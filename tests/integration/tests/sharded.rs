//! End-to-end checks of the sharded deployment layer: the paper's
//! propositions hold *inside every group* — under faults injected into
//! individual groups — while groups stay isolated from each other's
//! failures, no request is ever misrouted, and the duplicate-suppression
//! memory stays window-bounded.

use oar::shard::ShardRouter;
use oar::sharded::ShardedCluster;
use oar::{Cluster, ClusterConfig, OarConfig, OarServer, StateMachine};
use oar_apps::kv::{KvCommand, KvMachine, KvResponse};
use oar_simnet::SimTime;

fn kv_workload(client: usize, n: usize) -> Vec<KvCommand> {
    (0..n)
        .map(|i| {
            let key = format!("k{:02}", (client * 11 + i * 3) % 24);
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

fn sharded_config(groups: usize, seed: u64) -> ClusterConfig {
    ClusterConfig {
        num_groups: groups,
        num_servers: 3,
        num_clients: 3,
        router: ShardRouter::hash(groups),
        oar: OarConfig::default(),
        seed,
        ..ClusterConfig::default()
    }
}

fn run_checks(cluster: &ShardedCluster<KvMachine>, label: &str) {
    cluster
        .check_per_group_consistency()
        .unwrap_or_else(|e| panic!("[{label}] per-group consistency: {e}"));
    cluster
        .check_external_consistency()
        .unwrap_or_else(|e| panic!("[{label}] external consistency: {e}"));
    assert_eq!(
        cluster.sum_stats(|s| s.misrouted),
        0,
        "[{label}] misroutes must be 0"
    );
}

#[test]
fn failure_free_sharded_runs_over_many_seeds() {
    for seed in 0..6u64 {
        let groups = 2 + (seed % 3) as usize; // 2, 3, 4
        let config = sharded_config(groups, seed);
        let mut cluster: ShardedCluster<KvMachine> =
            ShardedCluster::build(&config, KvMachine::new, |c| kv_workload(c, 10));
        assert!(
            cluster.run_to_completion(SimTime::from_secs(30)),
            "seed {seed}: workload did not finish"
        );
        assert_eq!(cluster.completed().len(), 30);
        run_checks(&cluster, &format!("seed {seed}"));
    }
}

/// Crash one group's sequencer: that group fails over through its own
/// consensus while every other group keeps delivering optimistically,
/// untouched — the failure detectors are per group.
#[test]
fn crashing_one_groups_sequencer_leaves_the_rest_delivering() {
    let config = sharded_config(3, 42);
    let mut cluster: ShardedCluster<KvMachine> =
        ShardedCluster::build(&config, KvMachine::new, |c| kv_workload(c, 12));
    let victim = cluster.groups[1][0]; // group 1's epoch-0 sequencer
    cluster
        .world
        .schedule_crash(victim, SimTime::from_millis(4));
    assert!(
        cluster.run_to_completion(SimTime::from_secs(60)),
        "every group (including the failed-over one) must finish"
    );
    assert_eq!(cluster.completed().len(), 36);
    run_checks(&cluster, "one-group crash");
    assert!(
        cluster.sum_group_stats(1, |st| st.phase2_entered) > 0,
        "the crashed group must have run phase 2"
    );
    for g in [0usize, 2] {
        assert_eq!(
            cluster.sum_group_stats(g, |st| st.phase2_entered),
            0,
            "group {g} must stay in the optimistic phase"
        );
        assert_eq!(
            cluster.sum_group_stats(g, |st| st.opt_undelivered),
            0,
            "group {g} must not undo anything"
        );
    }
}

/// Crashing a sequencer in *every* group still completes: each group's
/// fail-over is independent, so they recover in parallel.
#[test]
fn parallel_failovers_across_all_groups() {
    let config = sharded_config(2, 7);
    let mut cluster: ShardedCluster<KvMachine> =
        ShardedCluster::build(&config, KvMachine::new, |c| kv_workload(c, 10));
    for g in 0..2 {
        let victim = cluster.groups[g][0];
        cluster
            .world
            .schedule_crash(victim, SimTime::from_millis(4 + g as u64));
    }
    assert!(
        cluster.run_to_completion(SimTime::from_secs(60)),
        "both groups must fail over and finish"
    );
    run_checks(&cluster, "parallel failovers");
    for g in 0..2 {
        assert!(
            cluster.sum_group_stats(g, |st| st.phase2_entered) > 0,
            "group {g} must have failed over"
        );
    }
}

/// A range-partitioned deployment preserves the same guarantees, and routes
/// contiguous key intervals to the same group.
#[test]
fn range_partitioned_deployment_is_consistent() {
    let keys: Vec<String> = (0..24).map(|i| format!("k{i:02}")).collect();
    let router = ShardRouter::range_from_keys(keys, 3);
    let config = ClusterConfig {
        num_groups: 3,
        router: router.clone(),
        ..sharded_config(3, 11)
    };
    let mut cluster: ShardedCluster<KvMachine> =
        ShardedCluster::build(&config, KvMachine::new, |c| kv_workload(c, 10));
    assert!(cluster.run_to_completion(SimTime::from_secs(30)));
    run_checks(&cluster, "range");
    // Every completion landed in the group the router owns the key to.
    for done in cluster.completed() {
        let settled = cluster.groups[done.group.index()].iter().any(|&s| {
            cluster
                .world
                .process_ref::<OarServer<KvMachine>>(s)
                .committed_sequence()
                .contains(&done.id)
        });
        assert!(settled, "{} not settled by its owning group", done.id);
    }
}

/// Per-key ordering: all commands on one key are serialised by the owning
/// group. For a closed-loop (pipeline-1) client this is observable from the
/// outside: successive requests it routes to the same group must adopt
/// strictly increasing positions in that group's order.
#[test]
fn per_key_reads_see_the_owning_groups_order() {
    let config = sharded_config(2, 23);
    let mut cluster: ShardedCluster<KvMachine> =
        ShardedCluster::build(&config, KvMachine::new, |c| kv_workload(c, 15));
    assert!(cluster.run_to_completion(SimTime::from_secs(30)));
    run_checks(&cluster, "per-key order");
    // Within each client, completions for the same key + group arrive with
    // strictly increasing positions (the group's order is per-key order).
    for c in 0..cluster.clients.len() {
        let client = cluster.client(c);
        let mut last_pos: std::collections::HashMap<usize, u64> = Default::default();
        let mut by_index: Vec<_> = client.completed().to_vec();
        by_index.sort_by_key(|d| d.index);
        for done in by_index {
            let g = done.group.index();
            let prev = last_pos.insert(g, done.position);
            if let Some(prev) = prev {
                assert!(
                    done.position > prev,
                    "client {c}: positions within group {g} must increase \
                     with submission order for a pipeline-1 client"
                );
            }
        }
    }
}

/// The reliable-multicast duplicate-suppression memory stays bounded by the
/// epoch watermark under a multi-epoch sharded run (the ROADMAP leftover,
/// observed at the deployment level).
#[test]
fn seen_sets_stay_window_bounded_under_epoch_cuts() {
    let config = ClusterConfig {
        oar: OarConfig {
            epoch_cut_after: Some(16),
            ..OarConfig::builder().max_batch(4).build()
        },
        client_pipeline: 4,
        ..sharded_config(2, 5)
    };
    let requests_per_client = 120;
    let mut cluster: ShardedCluster<KvMachine> =
        ShardedCluster::build(&config, KvMachine::new, |c| {
            kv_workload(c, requests_per_client)
        });
    assert!(cluster.run_to_completion(SimTime::from_secs(120)));
    run_checks(&cluster, "seen bound");
    // 3 clients × 120 requests split over 2 groups; without aging, `seen`
    // would reach each group's full share (~180). The watermark keeps it
    // near the epoch window (16 deliveries + in-flight pipeline).
    let bound = 4 * (16 + 3 * 4) + 64;
    assert!(
        cluster.max_stats(|s| s.seen.peak()) <= bound as u64,
        "peak seen {} exceeds the watermark window bound {bound}",
        cluster.max_stats(|s| s.seen.peak())
    );
    // Responses still correct: a Get that completed adopted a real value.
    for done in cluster.completed() {
        match &done.response {
            KvResponse::Value(_)
            | KvResponse::Previous(_)
            | KvResponse::Swapped(_)
            | KvResponse::Multi(_)
            | KvResponse::Installed(_) => {}
        }
    }
}

/// A single-group `Cluster` is the one-group case of the sharded layout:
/// the same KV workload and seed, run as a `Cluster` and as a
/// `ShardedCluster` over `ShardRouter::hash(1)`, end with identical replica
/// digests, identical client latencies and identical wire traffic.
#[test]
fn a_cluster_runs_exactly_like_a_one_group_sharded_cluster() {
    let config = ClusterConfig {
        num_clients: 3,
        seed: 19,
        client_pipeline: 2,
        ..ClusterConfig::default()
    };
    let mut plain: Cluster<KvMachine> =
        Cluster::build(&config, KvMachine::new, |c| kv_workload(c, 20));
    let mut sharded: ShardedCluster<KvMachine> =
        ShardedCluster::build(&config, KvMachine::new, |c| kv_workload(c, 20));
    assert!(plain.run_to_completion(SimTime::from_secs(30)));
    assert!(sharded.run_to_completion(SimTime::from_secs(30)));
    let plain_digests: Vec<u64> = (0..3)
        .map(|i| plain.server(0, i).state_machine().digest())
        .collect();
    let sharded_digests: Vec<u64> = (0..3)
        .map(|i| sharded.server(0, i).state_machine().digest())
        .collect();
    assert_eq!(plain_digests, sharded_digests);
    let latencies = |done: Vec<&oar::CompletedRequest<KvResponse>>| -> Vec<_> {
        done.iter().map(|r| (r.id, r.latency())).collect()
    };
    assert_eq!(latencies(plain.completed()), latencies(sharded.completed()));
    assert_eq!(plain.completed().len(), 60);
    assert_eq!(plain.world.stats(), sharded.world.stats());
}
