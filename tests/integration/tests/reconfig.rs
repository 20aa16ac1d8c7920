//! Membership reconfiguration, online shard rebalancing and divergence
//! detection, end to end:
//!
//! * a crashed replica is **replaced** through a `Reconfig::Replace` fence
//!   settled in the conservative order; the replacement joins over the
//!   ordinary `CatchUp*` wires, and the group then tolerates a *further*
//!   crash — the fault budget is restored;
//! * a key range **migrates** between groups mid-traffic with zero lost or
//!   duplicated replies: the fence is ordered in both groups independently,
//!   donors ship the settled range over bounded `MigrateState` wires, stale
//!   traffic is door-redirected and clients re-route under the original
//!   request ids;
//! * a command applied outside the order at one replica is **caught** at
//!   the next epoch close, where that replica's settled digest is out-voted
//!   by its peers', and **healed** by its rejoin through catch-up.

use oar::cluster::{Cluster, ClusterConfig};
use oar::shard::{KeyRange, ShardRouter};
use oar::sharded::ShardedCluster;
use oar::state_machine::{CounterCommand, CounterMachine};
use oar::{OarConfig, StateMachine};
use oar_apps::kv::{KvCommand, KvMachine};
use oar_simnet::{NetConfig, SimDuration, SimTime};

fn counter_workload(client: usize, n: usize) -> Vec<CounterCommand> {
    (0..n)
        .map(|i| CounterCommand::Add((client * 31 + i) as i64 % 11 + 1))
        .collect()
}

fn run_cluster_checks<S: StateMachine>(cluster: &Cluster<S>, label: &str) {
    cluster
        .check_per_group_consistency()
        .unwrap_or_else(|e| panic!("[{label}] replica consistency: {e}"));
    cluster
        .check_external_consistency()
        .unwrap_or_else(|e| panic!("[{label}] external consistency: {e}"));
}

/// The tentpole, part 1: replace a crashed replica online, then crash a
/// *second* replica — the replacement restored the fault budget, so the
/// group keeps settling new requests.
#[test]
fn replaced_replica_restores_the_fault_budget() {
    for seed in 0..4u64 {
        let config = ClusterConfig {
            num_servers: 3,
            num_clients: 2,
            net: NetConfig::constant(SimDuration::from_micros(150)),
            oar: OarConfig {
                epoch_cut_after: Some(4),
                snapshot_every: Some(2),
                ..OarConfig::builder()
                    .fd_timeout(SimDuration::from_millis(20))
                    .build()
            },
            client_pipeline: 4,
            seed,
            ..ClusterConfig::default()
        };
        let mut cluster: Cluster<CounterMachine> =
            Cluster::build(&config, CounterMachine::default, |c| {
                counter_workload(c, 150)
            });
        let old = cluster.groups[0][2];
        cluster.world.schedule_crash(old, SimTime::from_millis(2));
        cluster.world.run_until(SimTime::from_millis(4));
        let new = cluster.inject_replace(0, 2, CounterCommand::Add(0), CounterMachine::default);

        // Wait for the fence to settle and the replacement to catch up.
        let mut t = cluster.world.now();
        loop {
            t += SimDuration::from_millis(5);
            cluster.world.run_until(t);
            let fenced =
                cluster.server(0, 0).members() == [cluster.groups[0][0], cluster.groups[0][1], new];
            if fenced && !cluster.server(0, 2).is_recovering() {
                break;
            }
            assert!(
                t < SimTime::from_secs(5),
                "seed {seed}: replace fence did not settle / replacement did not catch up"
            );
        }
        assert!(
            !cluster.all_clients_done(),
            "seed {seed}: workload drained before the further crash — test vacuous"
        );
        // The fence removed `old` from the suspect sets (satellite a).
        assert!(
            !cluster.server(0, 0).is_suspecting(old),
            "seed {seed}: fenced-out replica still suspected"
        );

        // The further crash the replacement's fault budget must absorb.
        cluster.world.crash_now(cluster.groups[0][1]);
        assert!(
            cluster.run_to_completion(SimTime::from_secs(120)),
            "seed {seed}: workload did not finish after the post-replace crash"
        );
        assert_eq!(cluster.completed().len(), 300, "seed {seed}");
        assert!(
            cluster.sum_stats(|s| s.reconfigs_applied) >= 2,
            "seed {seed}: both survivors must apply the fence"
        );
        // Membership converged on the post-replacement roster everywhere
        // alive.
        for i in [0usize, 2] {
            assert_eq!(
                cluster.server(0, i).members(),
                [cluster.groups[0][0], cluster.groups[0][1], new],
                "seed {seed}: server {i} roster"
            );
        }
        run_cluster_checks(&cluster, &format!("replace seed {seed}"));
    }
}

fn split_workload(client: usize, n: usize) -> Vec<KvCommand> {
    (0..n)
        .map(|i| {
            // Half the keys below the "m" boundary (group 0), half above
            // (group 1); the migrated range ["a00","a12") stays hot
            // throughout.
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
                    value: format!("c{client}i{i}"),
                }
            }
        })
        .collect()
}

/// The tentpole, part 2: migrate a key range between groups while clients
/// hammer it. No reply is lost or duplicated, the transfer stays within the
/// s² wire bound, stale traffic is counted and redirected, and the migrated
/// range's digests agree across the recipient group while the donor's copy
/// is gone.
#[test]
fn online_migration_loses_and_duplicates_nothing() {
    for seed in 0..4u64 {
        let per_client = 120usize;
        let config = ClusterConfig {
            num_groups: 2,
            num_servers: 3,
            num_clients: 3,
            router: ShardRouter::range(vec!["m".into()]),
            oar: OarConfig::default(),
            seed,
            client_pipeline: 2,
            ..ClusterConfig::default()
        };
        let mut cluster: ShardedCluster<KvMachine> =
            ShardedCluster::build(&config, KvMachine::new, |c| split_workload(c, per_client));
        cluster.world.run_until(SimTime::from_millis(2));
        assert!(
            !cluster.all_clients_done(),
            "seed {seed}: workload drained before the migration — test vacuous"
        );
        let range = KeyRange::new("a00", "a12");
        let record =
            cluster.inject_migrate(range.clone(), 0, 1, KvCommand::Get { key: "zz".into() });
        assert_eq!(record.route_epoch, 1);
        assert!(
            cluster.run_to_completion(SimTime::from_secs(60)),
            "seed {seed}: workload did not finish across the migration"
        );
        // Settle in-flight redirect traffic before checking.
        let settle = cluster.world.now() + SimDuration::from_millis(50);
        cluster.world.run_until(settle);

        // Zero lost or duplicated replies: every client adopted exactly one
        // reply per workload command, with distinct request ids.
        for c in 0..3 {
            let completed = cluster.client(c).completed();
            assert_eq!(completed.len(), per_client, "seed {seed}: client {c}");
            let mut ids: Vec<_> = completed.iter().map(|d| d.id).collect();
            ids.sort();
            ids.dedup();
            assert_eq!(
                ids.len(),
                per_client,
                "seed {seed}: client {c} duplicated a reply"
            );
        }
        cluster
            .check_per_group_consistency()
            .unwrap_or_else(|e| panic!("seed {seed}: per-group consistency: {e}"));
        cluster
            .check_external_consistency()
            .unwrap_or_else(|e| panic!("seed {seed}: external consistency: {e}"));
        assert_eq!(cluster.sum_stats(|s| s.misrouted), 0, "seed {seed}");

        // Stale-routed traffic was counted and redirected.
        assert!(
            cluster.sum_stats(|s| s.redirected) > 0,
            "seed {seed}: migration under traffic must redirect something"
        );
        // Transfer wires within the s² bound: each donor replica ships the
        // range to each recipient member at most once.
        assert!(
            cluster.sum_stats(|s| s.migrate_state_wires) <= 9,
            "seed {seed}: {} transfer wires exceed the s² bound",
            cluster.sum_stats(|s| s.migrate_state_wires)
        );
        // The migrated range lives identically on every recipient replica
        // and is gone from every donor replica.
        let recipient = cluster.range_digests(1, &range);
        assert!(
            recipient.windows(2).all(|w| w[0] == w[1]),
            "seed {seed}: recipient range digests diverge: {recipient:?}"
        );
        let donor = cluster.range_digests(0, &range);
        let empty = oar::state_machine::entries_digest::<String, String>(&[]);
        assert!(
            donor.iter().all(|d| *d == Some(empty)),
            "seed {seed}: donor still holds migrated keys: {donor:?}"
        );
        // The shipped and installed snapshots agreed bit-for-bit.
        let outs: Vec<u64> = (0..3)
            .map(|i| cluster.server(0, i).stats().migrate_out_digest)
            .collect();
        let ins: Vec<u64> = (0..3)
            .map(|i| cluster.server(1, i).stats().migrate_in_digest)
            .collect();
        for d in outs.iter().chain(&ins) {
            assert_eq!(
                *d, outs[0],
                "seed {seed}: transfer digests disagree ({outs:?} vs {ins:?})"
            );
        }
    }
}

fn kv_keys_workload(client: usize, n: usize) -> Vec<KvCommand> {
    (0..n)
        .map(|i| KvCommand::Put {
            key: format!("k{:02}", (client * 11 + i * 3) % 24),
            value: format!("c{client}i{i}"),
        })
        .collect()
}

/// Lets the quiescent `cluster` settle, applies `corruption` at replica 1
/// outside the order and closes the open epoch. The detector must catch it
/// there: replica 1 alone counts the divergence, it rejoins through catch-up,
/// and all three replicas end with one state digest.
fn corrupt_and_heal(cluster: &mut Cluster<KvMachine>, corruption: KvCommand, label: &str) {
    let settle = cluster.world.now() + SimDuration::from_millis(100);
    cluster.world.run_until(settle);
    let divergences = |cluster: &Cluster<KvMachine>| -> Vec<u64> {
        (0..3)
            .map(|i| cluster.server(0, i).stats().divergences)
            .collect()
    };
    assert_eq!(divergences(cluster), [0, 0, 0], "[{label}] equal replicas");

    let before = cluster.server(0, 1).state_machine().digest();
    cluster.inject_divergence(0, 1, &corruption);
    assert_ne!(
        cluster.server(0, 1).state_machine().digest(),
        before,
        "[{label}] injection must change the state"
    );
    cluster.close_epoch();
    let heal = cluster.world.now() + SimDuration::from_millis(200);
    cluster.world.run_until(heal);

    assert_eq!(
        divergences(cluster),
        [0, 1, 0],
        "[{label}] the corrupted replica, and only it, counts the divergence"
    );
    let rejoiner = cluster.server(0, 1);
    assert!(
        !rejoiner.is_recovering() && rejoiner.stats().catch_up_requests >= 1,
        "[{label}] the corrupted replica rejoined through catch-up"
    );
    let digests: Vec<u64> = (0..3)
        .map(|i| cluster.server(0, i).state_machine().digest())
        .collect();
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "[{label}] digests after the heal: {digests:x?}"
    );
    run_cluster_checks(cluster, label);
}

/// The tentpole, part 3: a divergent value written into one replica
/// outside the order is caught at the next epoch close and healed by that
/// replica's rejoin.
#[test]
fn detector_catches_and_heals_a_corrupted_value() {
    let config = ClusterConfig {
        num_servers: 3,
        num_clients: 2,
        net: NetConfig::lan(),
        oar: OarConfig::default(),
        seed: 9,
        ..ClusterConfig::default()
    };
    let mut cluster: Cluster<KvMachine> =
        Cluster::build(&config, KvMachine::new, |c| kv_keys_workload(c, 40));
    assert!(cluster.run_to_completion(SimTime::from_secs(30)));
    let corruption = KvCommand::Put {
        key: "k05".into(),
        value: "corrupted".into(),
    };
    corrupt_and_heal(&mut cluster, corruption, "corrupted value");
}

/// A divergence that changes the key count — deleting one of 9 keys at one
/// replica — is caught and healed the same way: the settled digest covers
/// the whole state, whatever its shape.
#[test]
fn detector_catches_and_heals_a_deleted_key() {
    let config = ClusterConfig {
        num_servers: 3,
        num_clients: 2,
        net: NetConfig::lan(),
        oar: OarConfig::default(),
        seed: 11,
        ..ClusterConfig::default()
    };
    // Exactly 9 distinct keys.
    let mut cluster: Cluster<KvMachine> = Cluster::build(&config, KvMachine::new, |c| {
        (0..27)
            .map(|i| KvCommand::Put {
                key: format!("k{}", (c * 4 + i) % 9),
                value: format!("c{c}i{i}"),
            })
            .collect()
    });
    assert!(cluster.run_to_completion(SimTime::from_secs(30)));
    assert_eq!(cluster.server(0, 1).state_machine().len(), 9);
    let corruption = KvCommand::Delete { key: "k4".into() };
    corrupt_and_heal(&mut cluster, corruption, "deleted key");
    assert_eq!(
        cluster.server(0, 1).state_machine().len(),
        9,
        "the key is back"
    );
}
