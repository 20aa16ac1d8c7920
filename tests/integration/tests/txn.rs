//! End-to-end checks of the multi-key transaction layer over the sharded
//! deployment: cross-group atomicity (no group applies a committed
//! transaction's writes while another participating group drops them),
//! read-your-committed-writes across groups, commit liveness under one
//! participating group's sequencer crash, and isolation from concurrent
//! single-key traffic.

use oar::shard::ShardRouter;
use oar::txn::TxnCluster;
use oar::ClusterConfig;
use oar::{AdaptiveConfig, OarConfig, OarServer, ShardedClient};
use oar_apps::kv::{KvCommand, KvMachine, KvResponse};
use oar_simnet::{SimDuration, SimTime};

fn put(key: &str, value: &str) -> KvCommand {
    KvCommand::Put {
        key: key.into(),
        value: value.into(),
    }
}

fn get(key: &str) -> KvCommand {
    KvCommand::Get { key: key.into() }
}

fn txn_config(groups: usize, seed: u64) -> ClusterConfig {
    ClusterConfig {
        num_groups: groups,
        num_servers: 3,
        num_clients: 2,
        router: ShardRouter::hash(groups),
        oar: OarConfig::default(),
        seed,
        ..ClusterConfig::default()
    }
}

/// Transactions spreading two writes over a 24-key pool — under the hash
/// router most of them span two groups.
fn spanning_workload(client: usize, n: usize) -> Vec<Vec<KvCommand>> {
    (0..n)
        .map(|i| {
            let a = format!("k{:02}", (client * 11 + i * 3) % 24);
            let b = format!("k{:02}", (client * 11 + i * 3 + 7) % 24);
            vec![
                put(&a, &format!("c{client}t{i}a")),
                put(&b, &format!("c{client}t{i}b")),
            ]
        })
        .collect()
}

fn run_checks(cluster: &TxnCluster<KvMachine>, label: &str) {
    cluster
        .check_per_group_consistency()
        .unwrap_or_else(|e| panic!("[{label}] per-group consistency: {e}"));
    cluster
        .check_txn_atomicity()
        .unwrap_or_else(|e| panic!("[{label}] atomicity: {e}"));
    cluster
        .check_external_consistency()
        .unwrap_or_else(|e| panic!("[{label}] external consistency: {e}"));
    assert_eq!(
        cluster.sum_stats(|s| s.misrouted),
        0,
        "[{label}] misroutes must be 0"
    );
}

/// Atomicity across groups, failure-free: every committed transaction's
/// prepare is settled by **every** participating group — checked both
/// through the cluster's atomicity check and directly against each group's
/// stable state.
#[test]
fn committed_multi_group_txns_settle_in_every_participating_group() {
    for seed in [3u64, 19, 40] {
        let config = txn_config(3, seed);
        let mut cluster: TxnCluster<KvMachine> =
            TxnCluster::build(&config, KvMachine::new, |c| spanning_workload(c, 12));
        assert!(
            cluster.run_to_completion(SimTime::from_secs(30)),
            "seed {seed}: workload did not commit"
        );
        assert_eq!(cluster.completed().len(), 24);
        run_checks(&cluster, &format!("seed {seed}"));
        assert!(
            cluster.multi_group_commits() > 0,
            "seed {seed}: the workload must span groups"
        );
        // Direct cross-check of the atomicity property: for every committed
        // transaction, every per-group prepare appears in the owning group's
        // delivery order at some alive server.
        for txn in cluster.completed() {
            for part in &txn.parts {
                let settled = cluster.groups[part.group.index()].iter().any(|&s| {
                    cluster
                        .world
                        .process_ref::<OarServer<KvMachine>>(s)
                        .committed_sequence()
                        .contains(&part.id)
                });
                assert!(
                    settled,
                    "seed {seed}: {} of {} dropped by {}",
                    part.id, txn.id, part.group
                );
            }
        }
    }
}

/// The checks hold with log compaction on: epochs cut every 4 requests and
/// a snapshot every 2 epochs compact most committed prepares out of the
/// replicas' retained logs, so atomicity must be answered from the settled
/// set and adopted positions compared past the compaction base. (With
/// positions counted from the start of the *retained* log, every adoption
/// past the first snapshot used to be reported as a mismatch, and every
/// compacted prepare as missing.)
#[test]
fn checks_are_compaction_aware_with_snapshots_on() {
    let config = ClusterConfig {
        oar: OarConfig {
            epoch_cut_after: Some(4),
            snapshot_every: Some(2),
            ..OarConfig::default()
        },
        client_pipeline: 4,
        ..txn_config(2, 11)
    };
    let mut cluster: TxnCluster<KvMachine> =
        TxnCluster::build(&config, KvMachine::new, |c| spanning_workload(c, 60));
    assert!(
        cluster.run_to_completion(SimTime::from_secs(30)),
        "workload did not commit"
    );
    assert_eq!(cluster.completed().len(), 120);
    assert!(cluster.multi_group_commits() > 0);
    let compacted = cluster.sum_stats(|st| st.compacted);
    assert!(
        compacted > 0,
        "the run must compact, or the test is vacuous"
    );
    let some_replica = cluster
        .world
        .process_ref::<OarServer<KvMachine>>(cluster.groups[0][0]);
    assert!(some_replica.a_base() > 0);
    assert!(
        cluster.completed().iter().any(|txn| txn
            .parts
            .iter()
            .any(|part| !some_replica.committed_sequence().contains(&part.id)
                && some_replica.has_delivered(&part.id))),
        "some committed prepare must be gone from the retained log"
    );
    run_checks(&cluster, "snapshots on");
    cluster.check_all().expect("check_all with snapshots on");
}

/// Read-your-committed-writes across groups: once a transaction's commit is
/// reported, a subsequent read transaction by the same (closed-loop) client
/// observes that commit's writes in **every** group — the optimistic quorum
/// contains each group's sequencer, so the writes are already ordered ahead
/// of the reads.
#[test]
fn reads_across_groups_observe_the_readers_committed_writes() {
    // Range router pinning `a*` keys to group 0 and `z*` keys to group 1.
    let router = ShardRouter::range(vec!["m".to_string()]);
    let config = ClusterConfig {
        num_groups: 2,
        num_clients: 1,
        router,
        ..txn_config(2, 77)
    };
    let rounds = 10usize;
    // write txn (both groups), then read txn (both groups), alternating.
    let workload: Vec<Vec<KvCommand>> = (0..rounds)
        .flat_map(|i| {
            vec![
                vec![
                    put("acct:a", &format!("v{i}")),
                    put("zacct:b", &format!("v{i}")),
                ],
                vec![get("acct:a"), get("zacct:b")],
            ]
        })
        .collect();
    let mut cluster: TxnCluster<KvMachine> =
        TxnCluster::build(&config, KvMachine::new, move |_| workload.clone());
    assert!(cluster.run_to_completion(SimTime::from_secs(30)));
    run_checks(&cluster, "read-your-writes");
    let client = cluster.client(0);
    assert_eq!(client.completed().len(), 2 * rounds);
    let mut by_index: Vec<_> = client.completed().to_vec();
    by_index.sort_by_key(|t| t.index);
    for (i, pair) in by_index.chunks(2).enumerate() {
        let read = &pair[1];
        assert!(read.is_multi_group(), "the read spans both groups");
        // Each part of the read transaction must return the value the
        // immediately preceding committed write transaction stored in that
        // part's group.
        let expected = KvResponse::Value(Some(format!("v{i}")));
        for part in &read.parts {
            assert_eq!(
                part.response, expected,
                "round {i}: group {} served a stale read",
                part.group
            );
        }
    }
}

/// Commit liveness under fail-over: a participating group's sequencer
/// crashes mid-run; its prepares settle through the conservative phase
/// (replies with full weight), every transaction still commits, and the
/// other groups never leave the optimistic phase.
#[test]
fn commits_survive_one_participating_groups_sequencer_crash() {
    let config = txn_config(3, 42);
    let mut cluster: TxnCluster<KvMachine> =
        TxnCluster::build(&config, KvMachine::new, |c| spanning_workload(c, 12));
    let victim = cluster.groups[1][0]; // group 1's epoch-0 sequencer
    cluster
        .world
        .schedule_crash(victim, SimTime::from_millis(4));
    assert!(
        cluster.run_to_completion(SimTime::from_secs(60)),
        "every transaction must commit despite the crash"
    );
    assert_eq!(cluster.completed().len(), 24);
    run_checks(&cluster, "sequencer crash");
    assert!(
        cluster.sum_group_stats(1, |st| st.phase2_entered) > 0,
        "the crashed group must have failed over"
    );
    for g in [0usize, 2] {
        assert_eq!(
            cluster.sum_group_stats(g, |st| st.phase2_entered),
            0,
            "group {g} must not react to another group's crash"
        );
    }
    // At least one commit was confirmed conservatively: a part adopted with
    // the full group weight (3), not the optimistic {p, s} (2).
    let conservative_parts = cluster
        .completed()
        .iter()
        .flat_map(|t| t.parts.iter())
        .filter(|p| p.adopted_weight == 3)
        .count();
    assert!(
        conservative_parts > 0,
        "the fail-over window must have produced conservative confirmations"
    );
}

/// Isolation from concurrent single-key traffic: a plain sharded client
/// hammers the same key space while transactions run. Both finish, both
/// stay consistent, and the transactional checks still hold.
#[test]
fn txns_are_isolated_from_concurrent_single_key_traffic() {
    let config = txn_config(2, 13);
    let mut cluster: TxnCluster<KvMachine> =
        TxnCluster::build(&config, KvMachine::new, |c| spanning_workload(c, 10));
    // A plain (non-transactional) client over the same groups and router,
    // writing the same 24-key pool.
    let plain_workload: Vec<KvCommand> = (0..30)
        .map(|i| put(&format!("k{:02}", (i * 5) % 24), &format!("plain{i}")))
        .collect();
    let plain_client: ShardedClient<KvMachine> = ShardedClient::new(
        oar_simnet::ProcessId::new(cluster.world.num_processes()),
        cluster.groups.clone(),
        cluster.router.clone(),
        plain_workload,
        oar::ClientConfig::default(),
    );
    let plain_id = cluster.world.add_process(plain_client);
    // Drive the world until both client kinds are done.
    let horizon = SimTime::from_secs(60);
    loop {
        let next = cluster.world.now() + SimDuration::from_millis(50);
        cluster.world.run_until(next);
        let plain_done = cluster
            .world
            .process_ref::<ShardedClient<KvMachine>>(plain_id)
            .is_done();
        if (cluster.all_clients_done() && plain_done) || cluster.world.now() >= horizon {
            assert!(cluster.all_clients_done(), "transactions must commit");
            assert!(plain_done, "single-key traffic must complete");
            break;
        }
    }
    run_checks(&cluster, "mixed traffic");
    assert_eq!(cluster.completed().len(), 20);
    let plain = cluster
        .world
        .process_ref::<ShardedClient<KvMachine>>(plain_id);
    assert_eq!(plain.completed().len(), 30);
    // The plain client's adopted positions agree with the servers that
    // settled them — external consistency is undisturbed by the interleaved
    // transactional traffic.
    for done in plain.completed() {
        for &s in &cluster.groups[done.group.index()] {
            let server = cluster.world.process_ref::<OarServer<KvMachine>>(s);
            if let Some(pos) = server
                .committed_sequence()
                .iter()
                .position(|id| *id == done.id)
            {
                assert_eq!(
                    (pos + 1) as u64,
                    done.position,
                    "plain request {} settled at a different position",
                    done.id
                );
            }
        }
    }
}

/// Concurrent writers on overlapping key sets: transactions from several
/// clients interleave freely across groups; every per-group order stays
/// consistent and every commit is atomic (multi-seed).
#[test]
fn concurrent_overlapping_txns_stay_atomic_over_many_seeds() {
    for seed in 0..4u64 {
        let config = ClusterConfig {
            num_clients: 3,
            client_pipeline: 2,
            ..txn_config(2 + (seed % 2) as usize, seed)
        };
        let mut cluster: TxnCluster<KvMachine> =
            TxnCluster::build(&config, KvMachine::new, |c| spanning_workload(c, 8));
        assert!(
            cluster.run_to_completion(SimTime::from_secs(30)),
            "seed {seed}: workload did not commit"
        );
        assert_eq!(cluster.completed().len(), 24);
        run_checks(&cluster, &format!("overlap seed {seed}"));
    }
}

/// Adaptive windows are kept per group, as for plain sharded clients: under
/// skewed two-group load the heavy group's window opens further than the
/// light group's, a transaction spanning both takes one slot in each, and
/// every transaction still commits with all checks green.
#[test]
fn adaptive_windows_follow_each_groups_load() {
    let clients = 8;
    let per_client = 40;
    let config = ClusterConfig {
        num_clients: clients,
        // `a*` keys belong to group 0 (heavy), `z*` keys to group 1 (light).
        router: ShardRouter::range(vec!["m".to_string()]),
        oar: OarConfig::builder()
            .adaptive(AdaptiveConfig::default())
            .build(),
        client_pipeline: 16,
        adaptive_pipeline: true,
        ..txn_config(2, 5)
    };
    // Seven of eight transactions stay in group 0; every eighth spans both.
    let workload = |c: usize| -> Vec<Vec<KvCommand>> {
        (0..per_client)
            .map(|i| {
                let heavy = put(&format!("a{:02}", (c * 7 + i) % 16), &format!("c{c}t{i}"));
                if i % 8 == 7 {
                    vec![heavy, put(&format!("z{:02}", i % 16), &format!("c{c}t{i}"))]
                } else {
                    vec![heavy]
                }
            })
            .collect()
    };
    let mut cluster: TxnCluster<KvMachine> = TxnCluster::build(&config, KvMachine::new, workload);
    assert!(cluster.run_to_completion(SimTime::from_secs(60)));
    assert_eq!(cluster.completed().len(), clients * per_client);
    assert!(cluster.multi_group_commits() > 0);
    cluster
        .check_all()
        .expect("check_all with adaptive windows");
    let peak = |g: usize| {
        (0..clients)
            .map(|c| cluster.client(c).pipeline_stats()[g].window_peak)
            .max()
            .expect("clients")
    };
    assert!(
        peak(0) > peak(1),
        "heavy group's window peak {} must exceed the light group's {}",
        peak(0),
        peak(1)
    );
}
