//! A cross-group bank transfer: account balances sharded over two OAR
//! groups by a range router, with every transfer a two-key transaction —
//! one leg per group — committed by the client-side transaction layer while
//! one group's sequencer crashes mid-run.
//!
//! The run demonstrates the two halves of the transaction layer's contract:
//!
//! * **atomicity** — every committed transfer debits one group and credits
//!   the other; money is conserved across the whole deployment;
//! * **fail-over-proof confirmation** — the crashed group's legs settle
//!   through its conservative phase (replies with full weight `Π`), so the
//!   commits keep flowing without any cross-group coordination.
//!
//! ```text
//! cargo run -p oar-examples --example txn_transfer
//! ```

use oar::shard::ShardRouter;
use oar::txn::TxnCluster;
use oar::ClusterConfig;
use oar::OarConfig;
use oar_apps::kv::{KvCommand, KvMachine};
use oar_simnet::{SimDuration, SimTime};

/// Initial balance of every account, in cents.
const OPENING: i64 = 10_000;
/// Number of transfers the client commits.
const TRANSFERS: usize = 20;

fn put(key: &str, cents: i64) -> KvCommand {
    KvCommand::Put {
        key: key.into(),
        value: cents.to_string(),
    }
}

fn main() {
    // "checking:*" sorts below "m" (group 0), "savings:*" above it (group 1):
    // every transfer between the two accounts crosses the group boundary.
    let router = ShardRouter::range(vec!["m".to_string()]);
    let config = ClusterConfig {
        num_groups: 2,
        num_servers: 3,
        num_clients: 1,
        router,
        oar: OarConfig::builder()
            .fd_timeout(SimDuration::from_millis(20))
            .build(),
        seed: 2001,
        ..ClusterConfig::default()
    };

    // The single writer precomputes the balance trajectory, so each transfer
    // is a deterministic two-key write transaction.
    let mut checking = OPENING;
    let mut savings = OPENING;
    let mut workload: Vec<Vec<KvCommand>> = vec![vec![
        put("checking:alice", checking),
        put("savings:alice", savings),
    ]];
    for i in 0..TRANSFERS {
        let amount = 100 + (i as i64 % 7) * 50; // 100..400 cents
        if i % 3 == 2 {
            savings -= amount;
            checking += amount;
        } else {
            checking -= amount;
            savings += amount;
        }
        workload.push(vec![
            put("checking:alice", checking),
            put("savings:alice", savings),
        ]);
    }
    let expected = (checking, savings);

    let mut cluster: TxnCluster<KvMachine> =
        TxnCluster::build(&config, KvMachine::new, move |_| workload.clone());

    // Crash the savings group's initial sequencer mid-run: transfers in
    // flight confirm through that group's conservative phase.
    let victim = cluster.groups[1][0];
    cluster
        .world
        .schedule_crash(victim, SimTime::from_millis(4));

    let done = cluster.run_to_completion(SimTime::from_secs(60));
    assert!(done, "every transfer must commit despite the crash");
    cluster
        .check_all()
        .expect("per-group propositions + atomicity");
    assert_eq!(cluster.sum_stats(|s| s.misrouted), 0);

    println!(
        "committed {} transactions ({} spanning both groups)",
        cluster.completed().len(),
        cluster.multi_group_commits(),
    );
    let conservative = cluster
        .completed()
        .iter()
        .flat_map(|t| t.parts.iter())
        .filter(|p| p.adopted_weight == 3)
        .count();
    println!("legs confirmed conservatively during fail-over: {conservative}");
    assert!(cluster.sum_group_stats(1, |st| st.phase2_entered) > 0);
    assert_eq!(cluster.sum_group_stats(0, |st| st.phase2_entered), 0);

    // Read the final balances straight out of each group's replicas: the
    // committed trajectory survived the crash, and money was conserved.
    let read = |group: usize, key: &str| -> i64 {
        cluster.groups[group]
            .iter()
            .filter(|&&s| !cluster.world.is_crashed(s))
            .filter_map(|&s| {
                cluster
                    .world
                    .process_ref::<oar::OarServer<KvMachine>>(s)
                    .state_machine()
                    .get(key)
                    .and_then(|v| v.parse().ok())
            })
            .next()
            .expect("an alive replica holds the account")
    };
    let final_checking = read(0, "checking:alice");
    let final_savings = read(1, "savings:alice");
    println!("final balances: checking {final_checking}  savings {final_savings}");
    assert_eq!((final_checking, final_savings), expected);
    assert_eq!(
        final_checking + final_savings,
        2 * OPENING,
        "money must be conserved"
    );
    println!("money conserved across both groups: {} cents", 2 * OPENING);
}
