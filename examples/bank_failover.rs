//! A replicated bank that survives the crash of its sequencer: the epoch
//! switches to the conservative phase, a new sequencer takes over, and no
//! money is lost or duplicated — the transactional-undo integration suggested
//! by the paper's conclusion.
//!
//! ```text
//! cargo run -p oar-examples --example bank_failover
//! ```

use oar::cluster::{Cluster, ClusterConfig};
use oar::OarConfig;
use oar_apps::bank::{BankCommand, BankMachine};
use oar_simnet::{ProcessId, SimTime};

fn workload(client: usize) -> Vec<BankCommand> {
    // Each client shuffles money between its two accounts and the shared
    // account 0; total funds must be conserved whatever the interleaving.
    let a = (client * 2 + 1) as u32;
    let b = (client * 2 + 2) as u32;
    let mut commands = Vec::new();
    for i in 0..15 {
        match i % 3 {
            0 => commands.push(BankCommand::Transfer {
                from: a,
                to: b,
                amount: 5,
            }),
            1 => commands.push(BankCommand::Transfer {
                from: b,
                to: 0,
                amount: 3,
            }),
            _ => commands.push(BankCommand::Deposit {
                account: a,
                amount: 2,
            }),
        }
    }
    commands.push(BankCommand::Balance { account: a });
    commands
}

fn main() {
    let accounts = 7u32;
    let initial = 100;
    let config = ClusterConfig {
        num_servers: 3,
        num_clients: 3,
        oar: OarConfig::default(),
        seed: 7,
        ..ClusterConfig::default()
    };
    let mut cluster: Cluster<BankMachine> = Cluster::build(
        &config,
        || BankMachine::with_accounts(accounts, initial),
        workload,
    );

    // Crash the current sequencer (server 0) while the workload is in flight.
    cluster
        .world
        .schedule_crash(ProcessId::new(0), SimTime::from_millis(3));

    let done = cluster.run_to_completion(SimTime::from_secs(60));
    assert!(done, "workload did not finish after the sequencer crash");
    cluster
        .check_per_group_consistency()
        .expect("replicas agree");
    cluster
        .check_external_consistency()
        .expect("client replies are final");

    let deposited_per_client = 5 * 2; // five Deposit commands of 2 per client
    let expected_total =
        initial * accounts as i64 + deposited_per_client * config.num_clients as i64;
    for (i, &server) in cluster.groups[0].clone().iter().enumerate() {
        if cluster.world.is_crashed(server) {
            println!("server {i}: crashed (was the sequencer)");
            continue;
        }
        let bank = cluster
            .world
            .process_ref::<oar::OarServer<BankMachine>>(server)
            .state_machine();
        println!(
            "server {i}: total funds = {} (expected {expected_total}), accounts = {}",
            bank.total_funds(),
            bank.num_accounts()
        );
        assert_eq!(
            bank.total_funds(),
            expected_total,
            "money must be conserved"
        );
    }
    println!(
        "completed {} requests; phase-2 entries: {}; latency: {}",
        cluster.completed().len(),
        cluster.sum_stats(|s| s.phase2_entered),
        cluster.latencies().summary()
    );
    println!("OK: sequencer crash tolerated, funds conserved, clients consistent");
}
