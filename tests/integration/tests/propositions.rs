//! End-to-end checks of the paper's correctness propositions (Appendix A)
//! under randomized fault schedules.
//!
//! Each run builds a full OAR deployment in the simulator, injects crashes
//! and/or partitions derived from the seed, drives client workloads to
//! completion and then checks:
//!
//! * **at-least-once** (Prop. 4): every client request completes;
//! * **at-most-once** (Props. 2–3): no server's settled sequence contains a
//!   request twice;
//! * **total order** (Prop. 5): settled sequences of alive servers are
//!   prefix-compatible and equal-length prefixes yield identical state
//!   digests;
//! * **external consistency** (Prop. 7): the reply adopted by each client
//!   matches the position at which every alive server settled the request.

use oar::cluster::{Cluster, ClusterConfig};
use oar::state_machine::{CounterCommand, CounterMachine};
use oar::OarConfig;
use oar_apps::bank::{BankCommand, BankMachine};
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
}

#[test]
fn failure_free_runs_over_many_seeds() {
    for seed in 0..10u64 {
        let config = ClusterConfig {
            num_servers: 3 + (seed % 3) as usize * 2, // 3, 5, 7
            num_clients: 2,
            net: NetConfig::lan(),
            seed,
            ..ClusterConfig::default()
        };
        let mut cluster: Cluster<CounterMachine> =
            Cluster::build(&config, CounterMachine::default, |c| {
                counter_workload(c, 10)
            });
        assert!(
            cluster.run_to_completion(SimTime::from_secs(60)),
            "seed {seed}: workload did not finish"
        );
        assert_eq!(cluster.completed().len(), 20, "seed {seed}");
        assert_eq!(
            cluster.sum_stats(|s| s.phase2_entered),
            0,
            "seed {seed}: no failures, no phase 2"
        );
        assert_eq!(cluster.sum_stats(|s| s.opt_undelivered), 0, "seed {seed}");
        run_checks(&cluster, &format!("failure-free seed {seed}"));
    }
}

#[test]
fn sequencer_crash_at_random_times() {
    for seed in 0..8u64 {
        let config = ClusterConfig {
            num_servers: 3,
            num_clients: 2,
            net: NetConfig::lan(),
            oar: OarConfig::builder()
                .fd_timeout(SimDuration::from_millis(20))
                .build(),
            seed,
            ..ClusterConfig::default()
        };
        let mut cluster: Cluster<CounterMachine> =
            Cluster::build(&config, CounterMachine::default, |c| {
                counter_workload(c, 15)
            });
        // Crash the epoch-0 sequencer at a seed-dependent time.
        let crash_at = SimTime::from_micros(500 + seed * 700);
        cluster.world.schedule_crash(ProcessId::new(0), crash_at);
        assert!(
            cluster.run_to_completion(SimTime::from_secs(120)),
            "seed {seed}: workload did not finish after sequencer crash at {crash_at}"
        );
        // at-least-once: every request of every client completed
        assert_eq!(cluster.completed().len(), 30, "seed {seed}");
        run_checks(&cluster, &format!("sequencer-crash seed {seed}"));
    }
}

#[test]
fn crash_of_a_non_sequencer_replica_is_invisible_to_clients() {
    for seed in 0..5u64 {
        let config = ClusterConfig {
            num_servers: 5,
            num_clients: 3,
            net: NetConfig::lan(),
            seed,
            ..ClusterConfig::default()
        };
        let mut cluster: Cluster<CounterMachine> =
            Cluster::build(&config, CounterMachine::default, |c| {
                counter_workload(c, 10)
            });
        cluster.world.schedule_crash(
            ProcessId::new(2 + (seed % 3) as usize),
            SimTime::from_millis(1 + seed),
        );
        assert!(
            cluster.run_to_completion(SimTime::from_secs(60)),
            "seed {seed}"
        );
        assert_eq!(cluster.completed().len(), 30, "seed {seed}");
        run_checks(&cluster, &format!("replica-crash seed {seed}"));
    }
}

#[test]
fn minority_partition_with_sequencer_crash_recovers_consistently() {
    // The Figure-4 family: the sequencer and one other replica are partitioned
    // away together with part of the client population, the sequencer crashes,
    // the majority moves on, the partition heals. Opt-undeliveries may or may
    // not occur depending on timing — consistency must hold either way.
    for seed in 0..6u64 {
        let config = ClusterConfig {
            num_servers: 5,
            num_clients: 3,
            net: NetConfig::constant(SimDuration::from_micros(100)),
            oar: OarConfig::default(),
            seed,
            client_start_delays: vec![
                SimDuration::ZERO,
                SimDuration::from_millis(4),
                SimDuration::from_micros(4_200),
            ],
            ..ClusterConfig::default()
        };
        let mut cluster: Cluster<CounterMachine> =
            Cluster::build(&config, CounterMachine::default, |c| counter_workload(c, 4));
        let servers = cluster.groups[0].clone();
        let clients = cluster.clients.clone();
        let mut minority = vec![servers[0], servers[1], clients[1], clients[2]];
        let majority = vec![servers[2], servers[3], servers[4], clients[0]];
        if seed % 2 == 0 {
            minority.push(clients[0]);
        }
        cluster
            .world
            .schedule_partition(SimTime::from_millis(3), vec![minority, majority]);
        cluster
            .world
            .schedule_crash(servers[0], SimTime::from_millis(6 + seed));
        cluster.world.schedule_heal(SimTime::from_millis(120));
        assert!(
            cluster.run_to_completion(SimTime::from_secs(120)),
            "seed {seed}: workload did not finish"
        );
        run_checks(&cluster, &format!("partition seed {seed}"));
    }
}

#[test]
fn repeated_sequencer_crashes_across_epochs() {
    // Crash the sequencer of epoch 0, then the sequencer of epoch 1 (server 1)
    // a bit later: the rotating-sequencer rule must keep making progress as
    // long as a majority is alive.
    let config = ClusterConfig {
        num_servers: 5,
        num_clients: 2,
        net: NetConfig::lan(),
        oar: OarConfig::builder()
            .fd_timeout(SimDuration::from_millis(20))
            .build(),
        seed: 3,
        ..ClusterConfig::default()
    };
    let mut cluster: Cluster<CounterMachine> =
        Cluster::build(&config, CounterMachine::default, |c| {
            counter_workload(c, 20)
        });
    cluster
        .world
        .schedule_crash(ProcessId::new(0), SimTime::from_millis(2));
    cluster
        .world
        .schedule_crash(ProcessId::new(1), SimTime::from_millis(60));
    assert!(
        cluster.run_to_completion(SimTime::from_secs(300)),
        "workload did not finish"
    );
    assert_eq!(cluster.completed().len(), 40);
    assert!(
        cluster.sum_stats(|s| s.phase2_entered) >= 2,
        "two fail-overs expected"
    );
    run_checks(&cluster, "double-crash");
}

#[test]
fn bank_invariants_hold_under_sequencer_crash() {
    let accounts = 6u32;
    let initial = 50i64;
    let config = ClusterConfig {
        num_servers: 3,
        num_clients: 3,
        net: NetConfig::lan(),
        oar: OarConfig::builder()
            .fd_timeout(SimDuration::from_millis(20))
            .build(),
        seed: 17,
        ..ClusterConfig::default()
    };
    let mut cluster: Cluster<BankMachine> = Cluster::build(
        &config,
        || BankMachine::with_accounts(accounts, initial),
        |client| {
            (0..12)
                .map(|i| BankCommand::Transfer {
                    from: (client as u32 * 2) % accounts,
                    to: (client as u32 * 2 + 1 + i as u32) % accounts,
                    amount: 3,
                })
                .collect()
        },
    );
    cluster
        .world
        .schedule_crash(ProcessId::new(0), SimTime::from_millis(2));
    assert!(cluster.run_to_completion(SimTime::from_secs(120)));
    run_checks(&cluster, "bank");
    for (i, &server) in cluster.groups[0].clone().iter().enumerate() {
        if cluster.world.is_crashed(server) {
            continue;
        }
        let bank = cluster
            .world
            .process_ref::<oar::OarServer<BankMachine>>(server)
            .state_machine();
        assert_eq!(
            bank.total_funds(),
            accounts as i64 * initial,
            "transfers must conserve funds at replica {i}"
        );
    }
}

#[test]
fn propositions_hold_with_batched_sequencer_under_crash() {
    // The `max_batch` knob must not affect safety, only message counts: rerun
    // the sequencer-crash scenario with batched ordering. The interesting
    // hazard is a partially accumulated batch (not yet flushed by the tick)
    // at the moment the group enters phase 2.
    for seed in 0..8u64 {
        let config = ClusterConfig {
            num_servers: 3,
            num_clients: 2,
            net: NetConfig::lan(),
            oar: OarConfig {
                max_batch: 8,
                ..OarConfig::builder()
                    .fd_timeout(SimDuration::from_millis(20))
                    .build()
            },
            seed,
            ..ClusterConfig::default()
        };
        let mut cluster: Cluster<CounterMachine> =
            Cluster::build(&config, CounterMachine::default, |c| {
                counter_workload(c, 15)
            });
        let crash_at = SimTime::from_micros(500 + seed * 700);
        cluster.world.schedule_crash(ProcessId::new(0), crash_at);
        assert!(
            cluster.run_to_completion(SimTime::from_secs(120)),
            "seed {seed}: batched workload did not finish after sequencer crash at {crash_at}"
        );
        assert_eq!(cluster.completed().len(), 30, "seed {seed}");
        run_checks(&cluster, &format!("batched sequencer-crash seed {seed}"));
    }
}

#[test]
fn propositions_hold_with_batched_sequencer_under_partition() {
    // Figure-4 family with batching: minority partition containing the
    // sequencer, crash, heal — Opt-undeliveries may occur; consistency must
    // hold and batching must still amortise the ordering broadcasts.
    for seed in 0..4u64 {
        let config = ClusterConfig {
            num_servers: 5,
            num_clients: 3,
            net: NetConfig::constant(SimDuration::from_micros(100)),
            oar: OarConfig {
                max_batch: 8,
                ..OarConfig::default()
            },
            seed,
            ..ClusterConfig::default()
        };
        let mut cluster: Cluster<CounterMachine> =
            Cluster::build(&config, CounterMachine::default, |c| counter_workload(c, 6));
        let servers = cluster.groups[0].clone();
        let clients = cluster.clients.clone();
        let minority = vec![servers[0], servers[1], clients[1], clients[2]];
        let majority = vec![servers[2], servers[3], servers[4], clients[0]];
        cluster
            .world
            .schedule_partition(SimTime::from_millis(3), vec![minority, majority]);
        cluster
            .world
            .schedule_crash(servers[0], SimTime::from_millis(6 + seed));
        cluster.world.schedule_heal(SimTime::from_millis(120));
        assert!(
            cluster.run_to_completion(SimTime::from_secs(120)),
            "seed {seed}: batched workload did not finish"
        );
        run_checks(&cluster, &format!("batched partition seed {seed}"));
    }
}

/// Runs the cluster to completion, then lets the final watermark
/// announcements propagate so end-of-run payload levels reflect the garbage
/// collector rather than in-flight messages.
fn run_and_settle(cluster: &mut Cluster<CounterMachine>, horizon: SimTime) -> bool {
    let done = cluster.run_to_completion(horizon);
    let settle = cluster.world.now() + SimDuration::from_millis(60);
    cluster.world.run_until(settle);
    done
}

/// Payload GC under a sequencer crash (satellite of the watermark protocol):
/// after recovery the alive servers' payload maps return to the
/// unsettled-epoch window — they do not retain the whole workload — and no
/// reply is lost to premature pruning (every request still completes and the
/// external-consistency proposition still holds).
#[test]
fn payload_gc_bounded_after_sequencer_crash() {
    let cut = 8u64;
    let pipeline = 4usize;
    for seed in 0..6u64 {
        let config = ClusterConfig {
            num_servers: 3,
            num_clients: 2,
            net: NetConfig::lan(),
            oar: OarConfig {
                epoch_cut_after: Some(cut),
                max_batch: 4,
                ..OarConfig::builder()
                    .fd_timeout(SimDuration::from_millis(20))
                    .build()
            },
            client_pipeline: pipeline,
            seed,
            ..ClusterConfig::default()
        };
        let mut cluster: Cluster<CounterMachine> =
            Cluster::build(&config, CounterMachine::default, |c| {
                counter_workload(c, 40)
            });
        let crash_at = SimTime::from_micros(500 + seed * 900);
        cluster.world.schedule_crash(ProcessId::new(0), crash_at);
        assert!(
            run_and_settle(&mut cluster, SimTime::from_secs(120)),
            "seed {seed}: workload did not finish after sequencer crash"
        );
        // No reply lost to pruning: at-least-once still holds…
        assert_eq!(cluster.completed().len(), 80, "seed {seed}");
        // …and so do the consistency propositions.
        run_checks(&cluster, &format!("gc sequencer-crash seed {seed}"));
        // The collector actually ran and the bound is the epoch window, not
        // the workload size.
        assert!(
            cluster.sum_stats(|s| s.payloads_pruned) > 0,
            "seed {seed}: watermark GC never pruned"
        );
        let window = cut + (config.num_clients * pipeline) as u64;
        let bound = 2 * window + 8;
        let residual = cluster.max_alive_stats(|s| s.payloads.current());
        assert!(
            residual <= bound,
            "seed {seed}: {residual} payloads retained after recovery \
             (bound {bound}, workload 80)"
        );
    }
}

/// Payload GC under the Figure-4 fault family: a minority partition holding
/// the crashed sequencer stalls the minority's watermark (the majority keeps
/// pruning — suspected replicas don't hold the collector back), and after the
/// heal every alive server converges back to the watermark bound without
/// losing a single reply.
#[test]
fn payload_gc_recovers_after_minority_partition() {
    let cut = 8u64;
    let pipeline = 4usize;
    for seed in 0..4u64 {
        let config = ClusterConfig {
            num_servers: 5,
            num_clients: 3,
            net: NetConfig::constant(SimDuration::from_micros(100)),
            oar: OarConfig {
                epoch_cut_after: Some(cut),
                max_batch: 4,
                ..OarConfig::default()
            },
            client_pipeline: pipeline,
            seed,
            ..ClusterConfig::default()
        };
        let mut cluster: Cluster<CounterMachine> =
            Cluster::build(&config, CounterMachine::default, |c| {
                counter_workload(c, 20)
            });
        let servers = cluster.groups[0].clone();
        let clients = cluster.clients.clone();
        let minority = vec![servers[0], servers[1], clients[1], clients[2]];
        let majority = vec![servers[2], servers[3], servers[4], clients[0]];
        cluster
            .world
            .schedule_partition(SimTime::from_millis(3), vec![minority, majority]);
        cluster
            .world
            .schedule_crash(servers[0], SimTime::from_millis(6 + seed));
        cluster.world.schedule_heal(SimTime::from_millis(120));
        assert!(
            run_and_settle(&mut cluster, SimTime::from_secs(120)),
            "seed {seed}: workload did not finish after partition"
        );
        assert_eq!(cluster.completed().len(), 60, "seed {seed}");
        run_checks(&cluster, &format!("gc partition seed {seed}"));
        assert!(
            cluster.sum_stats(|s| s.payloads_pruned) > 0,
            "seed {seed}: watermark GC never pruned"
        );
        let window = cut + (config.num_clients * pipeline) as u64;
        let bound = 2 * window + 8;
        let residual = cluster.max_alive_stats(|s| s.payloads.current());
        assert!(
            residual <= bound,
            "seed {seed}: {residual} payloads retained after heal \
             (bound {bound}, workload 60)"
        );
    }
}

/// Pipelined clients must not weaken any proposition: rerun the
/// sequencer-crash scenario with a deep pipeline and batched ordering.
#[test]
fn propositions_hold_with_pipelined_clients_under_crash() {
    for seed in 0..6u64 {
        let config = ClusterConfig {
            num_servers: 3,
            num_clients: 2,
            net: NetConfig::lan(),
            oar: OarConfig {
                max_batch: 8,
                ..OarConfig::builder()
                    .fd_timeout(SimDuration::from_millis(20))
                    .build()
            },
            client_pipeline: 8,
            seed,
            ..ClusterConfig::default()
        };
        let mut cluster: Cluster<CounterMachine> =
            Cluster::build(&config, CounterMachine::default, |c| {
                counter_workload(c, 15)
            });
        let crash_at = SimTime::from_micros(500 + seed * 700);
        cluster.world.schedule_crash(ProcessId::new(0), crash_at);
        assert!(
            cluster.run_to_completion(SimTime::from_secs(120)),
            "seed {seed}: pipelined workload did not finish after crash"
        );
        assert_eq!(cluster.completed().len(), 30, "seed {seed}");
        run_checks(&cluster, &format!("pipelined sequencer-crash seed {seed}"));
    }
}

#[test]
fn epoch_cutting_preserves_correctness() {
    // The §5.3 remark: proactively cutting epochs (running phase 2 regularly)
    // must not affect safety, only performance.
    let oar = OarConfig {
        epoch_cut_after: Some(5),
        ..OarConfig::default()
    };
    let config = ClusterConfig {
        num_servers: 3,
        num_clients: 2,
        net: NetConfig::lan(),
        oar,
        seed: 9,
        ..ClusterConfig::default()
    };
    let mut cluster: Cluster<CounterMachine> =
        Cluster::build(&config, CounterMachine::default, |c| {
            counter_workload(c, 25)
        });
    assert!(cluster.run_to_completion(SimTime::from_secs(120)));
    assert_eq!(cluster.completed().len(), 50);
    assert!(
        cluster.sum_stats(|s| s.phase2_entered) > 0,
        "epoch cutting should run phase 2"
    );
    assert_eq!(
        cluster.sum_stats(|s| s.opt_undelivered),
        0,
        "proactive cuts never undo deliveries"
    );
    run_checks(&cluster, "epoch-cut");
}
