//! Online rebalancing of a sharded replicated key-value store: while two
//! OAR groups serve client traffic, one group's crashed replica is replaced
//! by a fresh one (a `Replace` fence settled through the conservative order,
//! the newcomer joining over the ordinary `CatchUp*` wires), and a hot key
//! range is migrated from group 0 to group 1 (a `Migrate` fence in *each*
//! group advancing the routing-boundary epoch, donors shipping the settled
//! range over `MigrateState` wires, stale traffic door-dropped and
//! redirected). No reply is lost or duplicated, and the migrated range ends
//! up bit-identical on every recipient replica.
//!
//! ```text
//! cargo run -p oar-examples --example rebalance_kv
//! ```

use oar::shard::{KeyRange, ShardRouter};
use oar::sharded::ShardedCluster;
use oar::ClusterConfig;
use oar::OarConfig;
use oar_apps::kv::{KvCommand, KvMachine};
use oar_simnet::{SimDuration, SimTime};

const CLIENTS: usize = 3;
const PER_CLIENT: usize = 40;

/// Every client hammers both sides of the `"m"` split point; the `a…` keys
/// are the range that migrates mid-run.
fn workload(client: usize) -> Vec<KvCommand> {
    (0..PER_CLIENT)
        .map(|i| {
            let key = if i % 2 == 0 {
                format!("a{:02}", (client * 7 + i) % 24)
            } else {
                format!("n{:02}", (client * 7 + i) % 24)
            };
            if i % 5 == 4 {
                KvCommand::Get { key }
            } else {
                KvCommand::Put {
                    key,
                    value: format!("c{client}#{i}"),
                }
            }
        })
        .collect()
}

fn main() {
    let config = ClusterConfig {
        num_groups: 2,
        num_servers: 3,
        num_clients: CLIENTS,
        router: ShardRouter::range(vec!["m".into()]),
        oar: OarConfig::builder()
            .fd_timeout(SimDuration::from_millis(20))
            .build(),
        seed: 2001,
        ..ClusterConfig::default()
    };
    let mut cluster: ShardedCluster<KvMachine> =
        ShardedCluster::build(&config, KvMachine::new, workload);

    // A replica of group 0 crashes under traffic…
    let victim = cluster.groups[0][2];
    cluster
        .world
        .schedule_crash(victim, SimTime::from_millis(2));
    cluster.world.run_until(SimTime::from_millis(4));

    // …and is replaced online: the fence settles conservatively in group 0,
    // the replacement catches up by snapshot + delta, and the group is back
    // at full fault budget — group 1 never notices.
    let replacement =
        cluster.inject_replace(0, 2, KvCommand::Get { key: "zz".into() }, KvMachine::new);
    println!("replacing crashed {victim} by {replacement} in group 0");

    // Meanwhile the keys `a00..a12` move from group 0 to group 1. Clients
    // still routing by the old boundary get door-dropped and redirected.
    let range = KeyRange::new("a00", "a12");
    cluster.world.run_until(SimTime::from_millis(6));
    let record = cluster.inject_migrate(range.clone(), 0, 1, KvCommand::Get { key: "zz".into() });
    println!(
        "migrating [a00, a12) from g0 to g1 (route epoch {})",
        record.route_epoch
    );

    let done = cluster.run_to_completion(SimTime::from_secs(60));
    assert!(done, "workload did not finish");
    // Let the replacement's catch-up and the migration transfers settle.
    let settle = cluster.world.now() + SimDuration::from_millis(50);
    cluster.world.run_until(settle);

    // Zero lost or duplicated replies: every client adopted exactly one
    // reply per request it issued.
    let mut total = 0usize;
    for c in 0..CLIENTS {
        let completed = cluster.client(c).completed();
        let mut ids: Vec<_> = completed.iter().map(|d| d.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), completed.len(), "client {c} adopted a duplicate");
        assert_eq!(completed.len(), PER_CLIENT, "client {c} lost a reply");
        total += completed.len();
    }

    cluster
        .check_per_group_consistency()
        .expect("every group agrees internally");
    cluster
        .check_external_consistency()
        .expect("client replies are final");
    assert_eq!(cluster.sum_stats(|s| s.misrouted), 0, "the router is exact");
    assert!(
        !cluster.server(0, 2).is_recovering(),
        "the replacement finished catch-up"
    );

    // Digest equality: the migrated range is bit-identical on every live
    // recipient replica (and the donors kept nothing of it).
    let digests: Vec<u64> = cluster
        .range_digests(1, &range)
        .into_iter()
        .flatten()
        .collect();
    assert_eq!(digests.len(), 3, "all recipient replicas answer");
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "recipients disagree on the migrated range"
    );

    println!("completed {total} requests, zero lost, zero duplicated");
    println!(
        "fences applied {} | catch-up replies {} | redirected {} | MigrateState wires {}",
        cluster.sum_stats(|s| s.reconfigs_applied),
        cluster.sum_stats(|s| s.catch_up_replies),
        cluster.sum_stats(|s| s.redirected),
        cluster.sum_stats(|s| s.migrate_state_wires),
    );
    println!(
        "migrated-range digest agreed across group 1: {:#018x}",
        digests[0]
    );
}
