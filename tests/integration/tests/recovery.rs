//! Crash → restart → catch-up: end-to-end recovery of restarted replicas.
//!
//! Each test crashes a replica mid-run with [`World::schedule_crash`], revives
//! it with [`Cluster::schedule_server_restart`] (fresh in-memory state — the
//! crash lost everything), and checks that the rejoiner:
//!
//! * catches up by **snapshot + delta**, not by replaying the full history
//!   (`catch_up_snapshot_position > 0`);
//! * ends **bit-identical** to the survivors — same settled digest, same
//!   settled position, same chained order hash (the replica-consistency
//!   checks compare compacted replicas through those);
//! * **resumes participation**: it settles requests ordered after its rejoin;
//! * is **un-suspected** by its peers' failure detectors once its fresh
//!   heartbeats arrive (satellite a);
//! * never replays a settled request and never re-relays one — the seen-set
//!   aging and door-drop filters stay correct across the restart
//!   (satellite b, the relay ping-pong regression class);
//! * never trips the divergence detector: replicas at one settled watermark
//!   hold one settled digest, restarts and catch-ups included.

use std::collections::HashMap;

use oar::cluster::{Cluster, ClusterConfig};
use oar::state_machine::{CounterCommand, CounterMachine};
use oar::{AdaptiveConfig, OarConfig};
use oar_apps::kv::{KvCommand, KvMachine};
use oar_simnet::{NetConfig, ProcessId, SimDuration, SimTime};

fn counter_workload(client: usize, n: usize) -> Vec<CounterCommand> {
    (0..n)
        .map(|i| CounterCommand::Add((client * 31 + i) as i64 % 11 + 1))
        .collect()
}

fn run_checks<S: oar::StateMachine>(cluster: &Cluster<S>, label: &str) {
    cluster
        .check_per_group_consistency()
        .unwrap_or_else(|e| panic!("[{label}] replica consistency: {e}"));
    cluster
        .check_external_consistency()
        .unwrap_or_else(|e| panic!("[{label}] external consistency: {e}"));
    assert_eq!(
        cluster.sum_stats(|s| s.divergences),
        0,
        "[{label}] a restart tripped the divergence detector"
    );
}

/// Recovery-flavoured config: proactive epoch cuts feed the snapshot
/// trigger, and snapshots every 2 epochs keep the catch-up delta short.
fn recovery_oar() -> OarConfig {
    OarConfig {
        epoch_cut_after: Some(4),
        snapshot_every: Some(2),
        ..OarConfig::builder()
            .fd_timeout(SimDuration::from_millis(20))
            .build()
    }
}

/// Runs to completion, then keeps the world going so in-flight recovery,
/// watermarks and heartbeats settle before the checks.
fn run_and_settle<S: oar::StateMachine>(cluster: &mut Cluster<S>, horizon: SimTime) -> bool {
    let done = cluster.run_to_completion(horizon);
    let settle = cluster.world.now() + SimDuration::from_millis(120);
    cluster.world.run_until(settle);
    done
}

/// The tentpole, multi-seed: a non-sequencer replica crashes under load,
/// restarts with blank state, fetches snapshot + delta from a donor and ends
/// consistent with the survivors — then keeps settling new requests.
#[test]
fn restarted_replica_catches_up_by_snapshot_plus_delta() {
    for seed in 0..6u64 {
        let config = ClusterConfig {
            num_servers: 3,
            num_clients: 2,
            net: NetConfig::constant(SimDuration::from_micros(150)),
            oar: recovery_oar(),
            client_pipeline: 4,
            seed,
            ..ClusterConfig::default()
        };
        let mut cluster: Cluster<CounterMachine> =
            Cluster::build(&config, CounterMachine::default, |c| {
                counter_workload(c, 80)
            });
        cluster
            .world
            .schedule_crash(ProcessId::new(2), SimTime::from_micros(2_000 + seed * 300));
        cluster.schedule_server_restart(
            SimTime::from_micros(10_000 + seed * 500),
            0,
            2,
            CounterMachine::default,
        );
        assert!(
            run_and_settle(&mut cluster, SimTime::from_secs(120)),
            "seed {seed}: workload did not finish across the restart"
        );
        assert_eq!(cluster.completed().len(), 160, "seed {seed}");
        let rejoined = cluster.server(0, 2);
        assert!(
            !rejoined.is_recovering(),
            "seed {seed}: replica 2 still mid-recovery at quiesce"
        );
        let stats = rejoined.stats();
        // Snapshot + delta, not full replay: the transfer started from a
        // non-zero snapshot position…
        assert!(
            stats.catch_up_snapshot_position > 0,
            "seed {seed}: catch-up replayed from position 0 (full replay)"
        );
        // …and the replica kept settling requests ordered after its rejoin.
        let transferred = stats.catch_up_snapshot_position + stats.catch_up_delta;
        assert!(
            rejoined.total_settled() > transferred,
            "seed {seed}: rejoined replica settled nothing new \
             (transfer {transferred}, settled {})",
            rejoined.total_settled()
        );
        // Bit-identical to a survivor at the common settled position.
        let survivor = cluster.server(0, 1);
        let common = rejoined.total_settled().min(survivor.total_settled());
        assert_eq!(
            rejoined.order_hash_at(common),
            survivor.order_hash_at(common),
            "seed {seed}: settled prefixes diverge at {common}"
        );
        run_checks(&cluster, &format!("restart seed {seed}"));
        // Compaction kept the retained log bounded by the snapshot window,
        // not the 160-request workload.
        assert!(
            cluster.sum_stats(|s| s.snapshots_taken) > 0,
            "seed {seed}: no snapshots"
        );
        let window = 2 * (4 + (config.num_clients * config.client_pipeline) as u64);
        assert!(
            cluster.max_stats(|s| s.a_delivered_len.peak()) <= 2 * window,
            "seed {seed}: peak A_delivered {} exceeds the snapshot window bound {}",
            cluster.max_stats(|s| s.a_delivered_len.peak()),
            2 * window
        );
    }
}

/// Satellite (a): peers suspect a crashed replica, then un-suspect it after
/// the restart once its fresh heartbeats arrive.
#[test]
fn fd_unsuspects_restarted_replica_after_fresh_heartbeats() {
    let config = ClusterConfig {
        num_servers: 3,
        num_clients: 1,
        net: NetConfig::lan(),
        oar: recovery_oar(),
        seed: 11,
        ..ClusterConfig::default()
    };
    let mut cluster: Cluster<CounterMachine> =
        Cluster::build(&config, CounterMachine::default, |c| counter_workload(c, 8));
    cluster
        .world
        .schedule_crash(ProcessId::new(2), SimTime::from_millis(1));
    // Let the detectors time the silence out.
    cluster.world.run_until(SimTime::from_millis(80));
    assert!(
        cluster.server(0, 0).is_suspecting(ProcessId::new(2)),
        "peer 0 must suspect the crashed replica"
    );
    assert!(
        cluster.server(0, 1).is_suspecting(ProcessId::new(2)),
        "peer 1 must suspect the crashed replica"
    );
    // Restart: catch-up runs, heartbeats resume, peers re-admit it.
    cluster.schedule_server_restart(SimTime::from_millis(85), 0, 2, CounterMachine::default);
    cluster.world.run_until(SimTime::from_millis(300));
    assert!(
        !cluster.server(0, 2).is_recovering(),
        "restarted replica must finish catch-up"
    );
    assert!(
        !cluster.server(0, 0).is_suspecting(ProcessId::new(2)),
        "peer 0 must un-suspect the rejoined replica"
    );
    assert!(
        !cluster.server(0, 1).is_suspecting(ProcessId::new(2)),
        "peer 1 must un-suspect the rejoined replica"
    );
    run_checks(&cluster, "fd-unsuspect");
}

/// Satellite (b): across a restart, no settled request is replayed (checked
/// by the at-most-once sweep inside the consistency checks) and stale relays
/// of settled requests die at the door instead of ping-ponging — the run
/// terminates and the duplicate-suppression set stays near-empty at quiesce.
#[test]
fn no_settled_replay_and_bounded_seen_across_restart() {
    for seed in 0..4u64 {
        let config = ClusterConfig {
            num_servers: 3,
            num_clients: 2,
            net: NetConfig::constant(SimDuration::from_micros(150)),
            oar: recovery_oar(),
            client_pipeline: 4,
            seed: 100 + seed,
            ..ClusterConfig::default()
        };
        let mut cluster: Cluster<CounterMachine> =
            Cluster::build(&config, CounterMachine::default, |c| {
                counter_workload(c, 60)
            });
        cluster
            .world
            .schedule_crash(ProcessId::new(1), SimTime::from_micros(1_500 + seed * 400));
        cluster.schedule_server_restart(
            SimTime::from_micros(9_000 + seed * 700),
            0,
            1,
            CounterMachine::default,
        );
        assert!(
            run_and_settle(&mut cluster, SimTime::from_secs(120)),
            "seed {seed}: run did not terminate (relay ping-pong?)"
        );
        // At-least-once with no duplicate adoption: every request completed
        // exactly once per client.
        assert_eq!(cluster.completed().len(), 120, "seed {seed}");
        // At-most-once on every replica (duplicate sweep) + digest equality.
        run_checks(&cluster, &format!("seen-aging seed {seed}"));
        // The seen set was aged across the restart: at quiesce the settled
        // workload (120 ids and their PhaseII ids) has been forgotten.
        let window = 2 * (4 + (config.num_clients * config.client_pipeline) as u64) + 8;
        assert!(
            cluster.max_alive_stats(|s| s.seen.current()) <= 3 * window,
            "seed {seed}: {} seen ids retained at quiesce (bound {})",
            cluster.max_alive_stats(|s| s.seen.current()),
            3 * window
        );
    }
}

/// Satellite (c): the *sequencer* crashes, the group fails over, and the old
/// sequencer restarts into a group that moved on — it must catch up and
/// resume as a follower without disturbing the new epoch.
#[test]
fn sequencer_restart_catches_up_after_failover() {
    for seed in 0..4u64 {
        let config = ClusterConfig {
            num_servers: 3,
            num_clients: 2,
            net: NetConfig::constant(SimDuration::from_micros(150)),
            oar: recovery_oar(),
            client_pipeline: 4,
            seed: 200 + seed,
            ..ClusterConfig::default()
        };
        let mut cluster: Cluster<CounterMachine> =
            Cluster::build(&config, CounterMachine::default, |c| {
                counter_workload(c, 60)
            });
        // Crash the epoch-0 sequencer: the group enters phase 2 and rotates.
        cluster
            .world
            .schedule_crash(ProcessId::new(0), SimTime::from_micros(1_000 + seed * 300));
        cluster.schedule_server_restart(
            SimTime::from_millis(60 + seed * 5),
            0,
            0,
            CounterMachine::default,
        );
        assert!(
            run_and_settle(&mut cluster, SimTime::from_secs(120)),
            "seed {seed}: workload did not finish after sequencer restart"
        );
        assert_eq!(cluster.completed().len(), 120, "seed {seed}");
        assert!(
            cluster.sum_stats(|s| s.phase2_entered) > 0,
            "seed {seed}: fail-over expected"
        );
        assert!(
            !cluster.server(0, 0).is_recovering(),
            "seed {seed}: old sequencer still mid-recovery at quiesce"
        );
        run_checks(&cluster, &format!("sequencer-restart seed {seed}"));
    }
}

/// Satellite (c), hard case: the restart lands *during* an epoch change — a
/// second replica's crash forces phase 2 + consensus while the rejoiner is
/// mid-transfer, so the buffered-wire replay and the donor-phase handoff in
/// the catch-up reply are both exercised.
#[test]
fn restart_during_epoch_change_stays_consistent() {
    for seed in 0..4u64 {
        let config = ClusterConfig {
            num_servers: 5,
            num_clients: 2,
            net: NetConfig::constant(SimDuration::from_micros(150)),
            oar: recovery_oar(),
            client_pipeline: 4,
            seed: 300 + seed,
            ..ClusterConfig::default()
        };
        let mut cluster: Cluster<CounterMachine> =
            Cluster::build(&config, CounterMachine::default, |c| {
                counter_workload(c, 50)
            });
        // Replica 4 crashes early and rejoins right as the sequencer crash
        // below forces the group through an epoch change.
        cluster
            .world
            .schedule_crash(ProcessId::new(4), SimTime::from_millis(1));
        cluster
            .world
            .schedule_crash(ProcessId::new(0), SimTime::from_millis(8));
        cluster.schedule_server_restart(
            SimTime::from_millis(8 + seed * 3),
            0,
            4,
            CounterMachine::default,
        );
        assert!(
            run_and_settle(&mut cluster, SimTime::from_secs(120)),
            "seed {seed}: workload did not finish across restart + epoch change"
        );
        assert_eq!(cluster.completed().len(), 100, "seed {seed}");
        assert!(
            !cluster.server(0, 4).is_recovering(),
            "seed {seed}: rejoiner still mid-recovery at quiesce"
        );
        run_checks(
            &cluster,
            &format!("restart-during-epoch-change seed {seed}"),
        );
    }
}

/// A restart with *no* surviving donor traffic hazard: the donor rotation +
/// backoff must survive the first donor being the other crashed replica.
#[test]
fn catch_up_rotates_donors_past_a_dead_peer() {
    let config = ClusterConfig {
        num_servers: 5,
        num_clients: 2,
        net: NetConfig::lan(),
        oar: recovery_oar(),
        seed: 42,
        ..ClusterConfig::default()
    };
    let mut cluster: Cluster<CounterMachine> =
        Cluster::build(&config, CounterMachine::default, |c| {
            counter_workload(c, 30)
        });
    // Replica 1 stays down for good; replica 2 restarts. Replica 2's donor
    // rotation starts from its peer list and may well hit the dead replica 1
    // first — the retry timer must carry it to a live donor.
    cluster
        .world
        .schedule_crash(ProcessId::new(1), SimTime::from_millis(1));
    cluster
        .world
        .schedule_crash(ProcessId::new(2), SimTime::from_millis(2));
    cluster.schedule_server_restart(SimTime::from_millis(10), 0, 2, CounterMachine::default);
    assert!(
        run_and_settle(&mut cluster, SimTime::from_secs(120)),
        "workload did not finish"
    );
    assert_eq!(cluster.completed().len(), 60);
    assert!(
        !cluster.server(0, 2).is_recovering(),
        "rejoiner must find a live donor despite the dead peer"
    );
    run_checks(&cluster, "dead-donor rotation");
}

/// The detector's premise under churn: replicas at one settled watermark
/// hold one settled digest. A group under load, in the production
/// configuration (adaptive batching, an epoch cut every 8 requests, a
/// snapshot every 4 epochs), loses its first sequencer or a follower once
/// 400 requests are done; the victim restarts blank 20–60 ms later and
/// rejoins through catch-up. Until the workload is done and the victim has
/// rejoined, every 25 µs of simulated time each live, non-recovering
/// replica's (watermark, settled digest) is sampled, and no
/// watermark may ever show two digests — across replicas and across time,
/// through epoch cuts, snapshots, the crash and the catch-up. The detector,
/// which compares exactly these pairs, never fires.
#[test]
fn equal_settled_watermarks_hold_equal_settled_digests() {
    for victim in [0usize, 1] {
        for seed in 0..16u64 {
            let label = format!("victim p{victim}, seed {seed}");
            let config = ClusterConfig {
                num_servers: 3,
                num_clients: 8,
                net: NetConfig::lan(),
                oar: OarConfig::builder()
                    .adaptive(AdaptiveConfig::default())
                    .epoch_cut_after(8)
                    .snapshot_every(4)
                    .build(),
                client_pipeline: 4,
                seed,
                ..ClusterConfig::default()
            };
            let mut cluster: Cluster<KvMachine> = Cluster::build(&config, KvMachine::new, |c| {
                (0..150)
                    .map(|i| KvCommand::Put {
                        key: format!("k{:03}", (c * 397 + i * 13) % 1000),
                        value: format!("c{c}i{i}"),
                    })
                    .collect()
            });
            let mut digest_at: HashMap<u64, u64> = HashMap::new();
            let (mut samples, mut shared, mut crashed) = (0u64, 0u64, false);
            while cluster.world.now() < SimTime::from_secs(3) {
                let next = cluster.world.now() + SimDuration::from_micros(25);
                cluster.world.run_until(next);
                let mut watermarks = Vec::new();
                for i in 0..3 {
                    let server = cluster.server(0, i);
                    if cluster.world.is_crashed(server.id()) || server.is_recovering() {
                        continue;
                    }
                    let (watermark, digest) = (server.settled_watermark(), server.settled_digest());
                    let first = *digest_at.entry(watermark).or_insert(digest);
                    assert_eq!(
                        digest, first,
                        "[{label}] watermark {watermark} holds two settled digests"
                    );
                    watermarks.push(watermark);
                }
                samples += 1;
                watermarks.sort_unstable();
                shared += u64::from(watermarks.windows(2).any(|w| w[0] == w[1]));
                if samples % 40 == 0 {
                    if !crashed && cluster.completed().len() >= 400 {
                        cluster.world.crash_now(cluster.groups[0][victim]);
                        let restart =
                            cluster.world.now() + SimDuration::from_millis(20 + seed * 13 % 41);
                        cluster.schedule_server_restart(restart, 0, victim, KvMachine::new);
                        crashed = true;
                    }
                    let victim = cluster.server(0, victim);
                    let rejoined = victim.stats().catch_up_requests > 0 && !victim.is_recovering();
                    if rejoined && cluster.all_clients_done() {
                        break;
                    }
                }
            }
            assert!(crashed, "[{label}] the victim never crashed");
            assert!(
                2 * shared >= samples,
                "[{label}] only {shared} of {samples} samples compared two replicas"
            );
            assert_eq!(
                cluster.sum_stats(|s| s.divergences),
                0,
                "[{label}] the detector fired"
            );
        }
    }
}
