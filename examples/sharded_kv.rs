//! A sharded replicated key-value store: the key space hash-partitioned over
//! four independent OAR groups (each its own sequencer, consensus and
//! failure detector), clients routing every command to the owning group —
//! with one group's sequencer crashing mid-run while the other three keep
//! serving undisturbed.
//!
//! ```text
//! cargo run -p oar-examples --example sharded_kv
//! ```

use oar::shard::ShardRouter;
use oar::sharded::ShardedCluster;
use oar::ClusterConfig;
use oar::OarConfig;
use oar_apps::kv::{KvCommand, KvMachine};
use oar_simnet::{SimDuration, SimTime};

fn workload(client: usize) -> Vec<KvCommand> {
    let mut commands = Vec::new();
    for i in 0..25 {
        let key = format!("user:{}", (client * 7 + i) % 32);
        if i % 3 == 2 {
            commands.push(KvCommand::Get { key });
        } else {
            commands.push(KvCommand::Put {
                key,
                value: format!("c{client}#{i}"),
            });
        }
    }
    commands
}

fn main() {
    const GROUPS: usize = 4;
    let config = ClusterConfig {
        num_groups: GROUPS,
        num_servers: 3,
        num_clients: 4,
        router: ShardRouter::hash(GROUPS),
        oar: OarConfig::builder()
            .fd_timeout(SimDuration::from_millis(20))
            .build(),
        seed: 2001,
        ..ClusterConfig::default()
    };
    let mut cluster: ShardedCluster<KvMachine> =
        ShardedCluster::build(&config, KvMachine::new, workload);

    // Crash group 2's initial sequencer mid-run: only that group fails over
    // (through its own consensus); groups 0, 1 and 3 never notice.
    let victim = cluster.groups[2][0];
    cluster
        .world
        .schedule_crash(victim, SimTime::from_millis(4));

    let done = cluster.run_to_completion(SimTime::from_secs(60));
    assert!(done, "workload did not finish");
    cluster
        .check_per_group_consistency()
        .expect("every group agrees internally");
    cluster
        .check_external_consistency()
        .expect("client replies are final");
    assert_eq!(cluster.sum_stats(|s| s.misrouted), 0, "the router is exact");

    println!("completed {} requests:", cluster.completed().len());
    println!(
        "{:<6} {:>8} {:>10} {:>12} {:>12} {:>10}",
        "group", "settled", "order-msgs", "reply-wires", "wire-sent", "phase2"
    );
    for g in 0..GROUPS {
        println!(
            "g{:<5} {:>8} {:>10} {:>12} {:>12} {:>10}",
            g,
            cluster.sum_group_stats(g, |st| st.opt_delivered + st.a_delivered),
            cluster.sum_group_stats(g, |st| st.order_messages_sent),
            cluster.sum_group_stats(g, |st| st.reply_messages_sent),
            cluster.group_net_stats(g).sent,
            cluster.sum_group_stats(g, |st| st.phase2_entered),
        );
    }
    let failed_over: Vec<usize> = (0..GROUPS)
        .filter(|&g| cluster.sum_group_stats(g, |st| st.phase2_entered) > 0)
        .collect();
    println!("groups that ran phase 2: {failed_over:?} (only the one whose sequencer crashed)");
    assert_eq!(failed_over, vec![2]);
}
