//! Quickstart: replicate a counter over three OAR servers and issue a handful
//! of requests from one client.
//!
//! ```text
//! cargo run -p oar-examples --example quickstart
//! ```

use oar::cluster::{Cluster, ClusterConfig};
use oar::state_machine::{CounterCommand, CounterMachine};
use oar_simnet::SimTime;

fn main() {
    // Three replicas, one client, a simulated switched LAN, deterministic seed.
    let config = ClusterConfig {
        num_servers: 3,
        num_clients: 1,
        seed: 42,
        ..ClusterConfig::default()
    };

    // The client increments the replicated counter ten times.
    let workload: Vec<CounterCommand> = (1..=10).map(CounterCommand::Add).collect();
    let mut cluster: Cluster<CounterMachine> =
        Cluster::build(&config, CounterMachine::default, |_client| workload.clone());

    // Run the simulation until the workload completes.
    let done = cluster.run_to_completion(SimTime::from_secs(10));
    assert!(done, "workload did not finish");

    println!("completed requests:");
    for request in cluster.client(0).completed() {
        println!(
            "  request {:>6}  response={:<4}  position={}  epoch={}  weight={}  latency={}",
            request.id.to_string(),
            request.response,
            request.position,
            request.epoch,
            request.adopted_weight,
            request.latency(),
        );
    }

    // Every replica holds the same state.
    for (i, &server) in cluster.groups[0].clone().iter().enumerate() {
        let server = cluster
            .world
            .process_ref::<oar::OarServer<CounterMachine>>(server);
        println!(
            "server {i}: counter={} epoch={} opt-delivered={} phase2-entries={}",
            server.state_machine().value(),
            server.epoch(),
            server.stats().opt_delivered,
            server.stats().phase2_entered,
        );
    }

    cluster
        .check_per_group_consistency()
        .expect("replicas agree");
    cluster
        .check_external_consistency()
        .expect("client replies are final");
    println!("latency summary (ms): {}", cluster.latencies().summary());
    println!(
        "OK: failure-free run, {} phase-2 entries, {} undeliveries",
        cluster.sum_stats(|s| s.phase2_entered),
        cluster.sum_stats(|s| s.opt_undelivered)
    );
}
