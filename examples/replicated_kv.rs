//! A replicated key-value store served by five OAR replicas under a mixed
//! read/write workload from several clients, with one replica crash mid-run.
//!
//! ```text
//! cargo run -p oar-examples --example replicated_kv
//! ```

use oar::cluster::{Cluster, ClusterConfig};
use oar::OarConfig;
use oar_apps::kv::{KvCommand, KvMachine, KvResponse};
use oar_simnet::{ProcessId, SimDuration, SimTime};

fn workload(client: usize) -> Vec<KvCommand> {
    let mut commands = Vec::new();
    for i in 0..20 {
        let key = format!("user:{}", (client * 7 + i) % 10);
        if i % 3 == 2 {
            commands.push(KvCommand::Get { key });
        } else {
            commands.push(KvCommand::Put {
                key,
                value: format!("c{client}#{i}"),
            });
        }
    }
    commands.push(KvCommand::CompareAndSwap {
        key: format!("user:{client}"),
        expected: None,
        new: format!("created-by-{client}"),
    });
    commands
}

fn main() {
    let config = ClusterConfig {
        num_servers: 5,
        num_clients: 4,
        oar: OarConfig::builder()
            .fd_timeout(SimDuration::from_millis(20))
            .build(),
        seed: 2001,
        ..ClusterConfig::default()
    };
    let mut cluster: Cluster<KvMachine> = Cluster::build(&config, KvMachine::new, workload);

    // Crash one non-sequencer replica mid-run: active replication keeps going
    // without any fail-over because the four remaining replicas still answer
    // with majority weight.
    cluster
        .world
        .schedule_crash(ProcessId::new(3), SimTime::from_millis(4));

    let done = cluster.run_to_completion(SimTime::from_secs(60));
    assert!(done, "workload did not finish");
    cluster
        .check_per_group_consistency()
        .expect("replicas agree");
    cluster
        .check_external_consistency()
        .expect("client replies are final");

    let total: usize = cluster.completed().len();
    let swaps = cluster
        .completed()
        .iter()
        .filter(|r| matches!(r.response, KvResponse::Swapped(true)))
        .count();
    println!("completed {total} requests ({swaps} successful compare-and-swaps)");
    println!("latency summary (ms): {}", cluster.latencies().summary());

    let store = cluster.server(0, 0).state_machine();
    println!("replica 0 now stores {} keys; sample:", store.len());
    for c in 0..config.num_clients {
        let key = format!("user:{c}");
        println!("  {key} = {:?}", store.get(&key));
    }
    println!(
        "phase-2 entries: {}   opt-undeliveries: {}",
        cluster.sum_stats(|s| s.phase2_entered),
        cluster.sum_stats(|s| s.opt_undelivered)
    );
}
