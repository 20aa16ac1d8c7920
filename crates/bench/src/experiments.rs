//! Quantitative experiments: the measurable claims of the OAR paper.
//!
//! The paper has no measurement section; its quantitative claims are made in
//! prose ("low latency", "only one phase for ordering in absence of failures",
//! "the probability of having to Opt-undeliver a message is very low", the
//! remark of §5.3 about garbage-collecting `O_delivered`). Each function here
//! turns one claim into an experiment with an explicit workload and sweep; the
//! `harness` binary prints the rows recorded in `EXPERIMENTS.md`.

use oar::cluster::{Cluster, ClusterConfig};
use oar::openloop::OpenLoopClient;
use oar::parallel::plan_waves;
use oar::server::OarServer;
use oar::shard::ShardRouter;
use oar::sharded::{ShardedCluster, ShardedConfig};
use oar::state_machine::{CounterMachine, StateMachine};
use oar::txn::TxnCluster;
use oar::OarConfig;
use oar_apps::cost::CostlyMachine;
use oar_apps::kv::{KvCommand, KvMachine, KvResponse};
use oar_baselines::{BaselineConfig, CtCluster, SequencerCluster};
use oar_rtnet::{RtNet, RunOptions};
use oar_simnet::{NetConfig, ProcessId, Samples, SimDuration, SimTime, Summary};

/// Completed operations per simulated second (0 when nothing completed).
fn sim_rate(count: usize, end: SimTime) -> f64 {
    let seconds = end.as_millis_f64() / 1_000.0;
    if seconds > 0.0 {
        count as f64 / seconds
    } else {
        0.0
    }
}

fn kv_workload(client: usize, requests: usize) -> Vec<KvCommand> {
    (0..requests)
        .map(|i| {
            if i % 4 == 3 {
                KvCommand::Get {
                    key: format!("k{}", i % 16),
                }
            } else {
                KvCommand::Put {
                    key: format!("k{}", i % 16),
                    value: format!("c{client}-v{i}"),
                }
            }
        })
        .collect()
}

fn counter_workload(requests: usize) -> Vec<oar::state_machine::CounterCommand> {
    (0..requests)
        .map(|i| oar::state_machine::CounterCommand::Add(i as i64 % 7 + 1))
        .collect()
}

/// One row of the latency experiment (T-LAT).
#[derive(Clone, Debug)]
pub struct LatencyRow {
    /// Protocol name.
    pub protocol: String,
    /// Number of replicas.
    pub servers: usize,
    /// Requests measured.
    pub requests: usize,
    /// Latency summary (milliseconds).
    pub latency_ms: Summary,
}

/// T-LAT: client-observed latency of OAR vs the fixed-sequencer baseline vs
/// consensus-based atomic broadcast, failure-free, as the group size grows.
///
/// Paper claim (§1, §6): OAR "requires only one phase for ordering messages in
/// absence of failures", i.e. it should track the sequencer baseline closely
/// and beat the consensus-based broadcast clearly.
pub fn latency_experiment(
    group_sizes: &[usize],
    requests_per_client: usize,
    seed: u64,
) -> Vec<LatencyRow> {
    let mut rows = Vec::new();
    for &n in group_sizes {
        // OAR
        let config = ClusterConfig {
            num_servers: n,
            num_clients: 2,
            net: NetConfig::lan(),
            seed,
            ..ClusterConfig::default()
        };
        let mut oar: Cluster<KvMachine> = Cluster::build(&config, KvMachine::new, |c| {
            kv_workload(c, requests_per_client)
        });
        assert!(
            oar.run_to_completion(SimTime::from_secs(600)),
            "OAR run did not finish (n={n})"
        );
        oar.check_replica_consistency()
            .expect("OAR replica consistency");
        oar.check_external_consistency()
            .expect("OAR external consistency");
        rows.push(LatencyRow {
            protocol: "oar".into(),
            servers: n,
            requests: oar.latencies().len(),
            latency_ms: oar.latencies().summary(),
        });

        // Fixed sequencer
        let base = BaselineConfig {
            num_servers: n,
            num_clients: 2,
            net: NetConfig::lan(),
            seed,
            ..BaselineConfig::default()
        };
        let mut seq: SequencerCluster<KvMachine> =
            SequencerCluster::build(&base, KvMachine::new, |c| {
                kv_workload(c, requests_per_client)
            });
        assert!(
            seq.run_to_completion(SimTime::from_secs(600)),
            "sequencer run did not finish"
        );
        rows.push(LatencyRow {
            protocol: "fixed-sequencer".into(),
            servers: n,
            requests: seq.latencies().len(),
            latency_ms: seq.latencies().summary(),
        });

        // Consensus-based atomic broadcast
        let mut ct: CtCluster<KvMachine> = CtCluster::build(&base, KvMachine::new, |c| {
            kv_workload(c, requests_per_client)
        });
        assert!(
            ct.run_to_completion(SimTime::from_secs(600)),
            "CT run did not finish"
        );
        ct.check_total_order().expect("CT total order");
        rows.push(LatencyRow {
            protocol: "ct-abcast".into(),
            servers: n,
            requests: ct.latencies().len(),
            latency_ms: ct.latencies().summary(),
        });
    }
    rows
}

/// One row of the fail-over experiment (T-FAILOVER).
#[derive(Clone, Debug)]
pub struct FailoverRow {
    /// Number of replicas.
    pub servers: usize,
    /// Failure-detector timeout (ms).
    pub fd_timeout_ms: f64,
    /// Simulated time from the sequencer crash until every client request
    /// issued after the crash is answered (ms).
    pub recovery_ms: f64,
    /// Opt-undeliveries during the run.
    pub undeliveries: u64,
    /// Whether the run stayed consistent.
    pub consistent: bool,
}

/// T-FAILOVER: time to recover from a sequencer crash as a function of the
/// failure-detector timeout.
///
/// Paper claim (§2.2): algorithms that do not rely on a group-membership
/// oracle have a fail-over time governed by the failure-detector timeout, not
/// by a heavyweight view change.
pub fn failover_experiment(
    group_sizes: &[usize],
    fd_timeouts_ms: &[u64],
    seed: u64,
) -> Vec<FailoverRow> {
    let mut rows = Vec::new();
    for &n in group_sizes {
        for &timeout_ms in fd_timeouts_ms {
            let oar = OarConfig::with_fd_timeout(SimDuration::from_millis(timeout_ms));
            let config = ClusterConfig {
                num_servers: n,
                num_clients: 1,
                net: NetConfig::lan(),
                oar,
                seed,
                ..ClusterConfig::default()
            };
            let crash_at = SimTime::from_millis(5);
            let mut cluster: Cluster<CounterMachine> =
                Cluster::build(&config, CounterMachine::default, |_| counter_workload(40));
            cluster
                .world
                .schedule_crash(oar_simnet::ProcessId::new(0), crash_at);
            let done = cluster.run_to_completion(SimTime::from_secs(600));
            let consistent = done
                && cluster.check_replica_consistency().is_ok()
                && cluster.check_external_consistency().is_ok();
            // Recovery time: last completion time minus crash time, minus the
            // time the same workload needs without any crash.
            let last_completion = cluster
                .completed_requests()
                .iter()
                .map(|r| r.completed_at)
                .max()
                .unwrap_or(SimTime::ZERO);
            let mut baseline: Cluster<CounterMachine> = Cluster::build(
                &ClusterConfig {
                    oar: config.oar,
                    ..config.clone()
                },
                CounterMachine::default,
                |_| counter_workload(40),
            );
            baseline.run_to_completion(SimTime::from_secs(600));
            let baseline_last = baseline
                .completed_requests()
                .iter()
                .map(|r| r.completed_at)
                .max()
                .unwrap_or(SimTime::ZERO);
            let recovery_ms =
                (last_completion.as_millis_f64() - baseline_last.as_millis_f64()).max(0.0);
            rows.push(FailoverRow {
                servers: n,
                fd_timeout_ms: timeout_ms as f64,
                recovery_ms,
                undeliveries: cluster.total_undeliveries(),
                consistent,
            });
        }
    }
    rows
}

/// One row of the Opt-undeliver frequency experiment (T-UNDO).
#[derive(Clone, Debug)]
pub struct UndoRow {
    /// Number of replicas.
    pub servers: usize,
    /// Scenario label.
    pub scenario: String,
    /// Requests completed.
    pub requests: usize,
    /// Total Opt-deliveries.
    pub opt_deliveries: u64,
    /// Total Opt-undeliveries.
    pub opt_undeliveries: u64,
    /// Opt-undeliveries per delivered request (the paper's "very low
    /// probability").
    pub undo_rate: f64,
    /// Phase-2 entries.
    pub phase2_entries: u64,
    /// Whether the run stayed consistent.
    pub consistent: bool,
}

/// T-UNDO: how often optimistic deliveries are undone, under increasingly
/// adversarial failure scenarios.
///
/// Paper claim (§6): Opt-undeliver requires the conjunction of three unlikely
/// events (sequencer failure observed by only a minority, that minority's
/// values excluded from the consensus decision, and a different conservative
/// order), so its probability is very low even when crashes and suspicions are
/// common.
pub fn undo_experiment(seed: u64) -> Vec<UndoRow> {
    let mut rows = Vec::new();

    // Scenario A: failure-free.
    rows.push(run_undo_scenario("failure-free", 5, seed, |_cluster| {}));

    // Scenario B: sequencer crash observed by everyone (no partition).
    rows.push(run_undo_scenario("sequencer-crash", 5, seed, |cluster| {
        cluster
            .world
            .schedule_crash(oar_simnet::ProcessId::new(0), SimTime::from_millis(5));
    }));

    // Scenario C: sequencer crash + minority partition containing the only
    // server that saw the last ordering (the Figure-4 conditions).
    rows.push(run_undo_scenario(
        "crash+minority-partition",
        5,
        seed,
        |cluster| {
            let s = cluster.servers.clone();
            let c = cluster.clients.clone();
            let mut minority = vec![s[0], s[1]];
            minority.extend(c.iter().copied());
            let majority = vec![s[2], s[3], s[4]];
            cluster
                .world
                .schedule_partition(SimTime::from_millis(3), vec![minority, majority]);
            cluster.world.schedule_crash(s[0], SimTime::from_millis(8));
            cluster.world.schedule_heal(SimTime::from_millis(150));
        },
    ));

    rows
}

fn run_undo_scenario(
    label: &str,
    servers: usize,
    seed: u64,
    inject: impl FnOnce(&mut Cluster<CounterMachine>),
) -> UndoRow {
    let oar = OarConfig::with_fd_timeout(SimDuration::from_millis(25));
    let config = ClusterConfig {
        num_servers: servers,
        num_clients: 2,
        net: NetConfig::constant(SimDuration::from_micros(100)),
        oar,
        seed,
        ..ClusterConfig::default()
    };
    let mut cluster: Cluster<CounterMachine> =
        Cluster::build(&config, CounterMachine::default, |_| counter_workload(30));
    inject(&mut cluster);
    let done = cluster.run_to_completion(SimTime::from_secs(600));
    let consistent = done
        && cluster.check_replica_consistency().is_ok()
        && cluster.check_external_consistency().is_ok();
    let opt: u64 = cluster
        .servers
        .iter()
        .map(|&s| {
            cluster
                .world
                .process_ref::<oar::OarServer<CounterMachine>>(s)
                .stats()
                .opt_delivered
        })
        .sum();
    let undone = cluster.total_undeliveries();
    UndoRow {
        servers,
        scenario: label.into(),
        requests: cluster.completed_requests().len(),
        opt_deliveries: opt,
        opt_undeliveries: undone,
        undo_rate: if opt == 0 {
            0.0
        } else {
            undone as f64 / opt as f64
        },
        phase2_entries: cluster.total_phase2_entries(),
        consistent,
    }
}

/// One row of the throughput experiment (T-THROUGHPUT).
#[derive(Clone, Debug)]
pub struct ThroughputRow {
    /// Protocol name.
    pub protocol: String,
    /// Number of replicas.
    pub servers: usize,
    /// Number of concurrent closed-loop clients.
    pub clients: usize,
    /// Requests completed.
    pub requests: usize,
    /// Completed requests per simulated second.
    pub requests_per_second: f64,
    /// Mean latency (ms).
    pub mean_latency_ms: f64,
    /// Median latency (ms). Percentiles make the latency *cost* of batching
    /// visible next to its throughput benefit: a partial batch waiting for a
    /// flush shows up in the tail, not the mean.
    pub p50_latency_ms: f64,
    /// 95th-percentile latency (ms).
    pub p95_latency_ms: f64,
    /// 99th-percentile latency (ms).
    pub p99_latency_ms: f64,
    /// `OrderMsg` broadcasts sent by sequencers during the run (OAR rows
    /// only; 0 for the baselines, which have no comparable counter). With
    /// `max_batch > 1` this drops well below `requests`.
    pub order_messages_sent: u64,
    /// `ReplyBatch` wires sent to clients (OAR rows only). With reply
    /// batching and pipelined clients this drops below `replies_sent`.
    pub reply_messages_sent: u64,
    /// Individual request replies carried by those wires (= `servers ×
    /// requests` in failure-free runs).
    pub replies_sent: u64,
    /// Consensus wire allocations (shared-relay count; 0 in failure-free
    /// runs, where phase 2 never starts).
    pub consensus_allocations: u64,
    /// Per-destination consensus deliveries — the allocations the pre-clone
    /// implementation would have paid.
    pub consensus_messages: u64,
    /// Peak size of any server's `payloads` map during the run.
    pub peak_payloads: u64,
    /// Real wall-clock nanoseconds spent inside `StateMachine` application
    /// across all servers (host time — a measurement channel, never part of
    /// the simulated protocol state).
    pub apply_ns: u64,
}

/// Sequencer batch size used by the `oar-batched` throughput variant.
pub const BATCHED_MAX_BATCH: usize = 8;

/// Pipeline depth of the `oar-pipelined` throughput variant: deep enough to
/// keep a full `OrderMsg` batch of each client's requests in flight, which is
/// what lets the servers coalesce their replies into `ReplyBatch` wires.
pub const PIPELINE_DEPTH: usize = BATCHED_MAX_BATCH;

/// Builds the KV deployment used by the throughput experiment. `pipeline` is
/// the per-client outstanding-request window (1 = the paper's closed loop).
/// When `oar_config` runs the adaptive batch controller, the clients run the
/// matching adaptive pipeline with `pipeline` as the window *cap*. Also
/// reused by the `throughput` criterion bench, so the measured workload
/// cannot drift from the experiment (the bench times only the run, not the
/// consistency checks).
pub fn build_throughput_cluster(
    oar_config: OarConfig,
    servers: usize,
    clients: usize,
    requests_per_client: usize,
    pipeline: usize,
    seed: u64,
) -> Cluster<KvMachine> {
    let config = ClusterConfig {
        num_servers: servers,
        num_clients: clients,
        net: NetConfig::lan(),
        oar: oar_config,
        seed,
        client_pipeline: pipeline,
        adaptive_pipeline: oar_config.adaptive.is_some(),
        ..ClusterConfig::default()
    };
    Cluster::build(&config, KvMachine::new, |c| {
        kv_workload(c, requests_per_client)
    })
}

/// Runs one OAR throughput deployment: builds the cluster, drives it to
/// completion, checks the consistency propositions and returns the measured
/// row.
pub fn run_oar_throughput(
    protocol: &str,
    oar_config: OarConfig,
    servers: usize,
    clients: usize,
    requests_per_client: usize,
    pipeline: usize,
    seed: u64,
) -> ThroughputRow {
    let mut cluster = build_throughput_cluster(
        oar_config,
        servers,
        clients,
        requests_per_client,
        pipeline,
        seed,
    );
    assert!(
        cluster.run_to_completion(SimTime::from_secs(600)),
        "{protocol} run did not finish"
    );
    cluster
        .check_replica_consistency()
        .expect("replica consistency");
    cluster
        .check_external_consistency()
        .expect("external consistency");
    let end = cluster
        .completed_requests()
        .iter()
        .map(|r| r.completed_at)
        .max()
        .unwrap_or(SimTime::ZERO);
    let mut row = throughput_row(protocol, servers, clients, end, &cluster.latencies());
    row.order_messages_sent = cluster.total_order_messages();
    row.reply_messages_sent = cluster.total_reply_messages();
    row.replies_sent = cluster.total_replies();
    row.consensus_allocations = cluster.total_consensus_wires();
    row.consensus_messages = cluster.total_consensus_messages();
    row.peak_payloads = cluster.peak_payloads();
    row.apply_ns = cluster.total_apply_ns();
    row
}

/// T-THROUGHPUT: completed requests per simulated second under increasing
/// closed-loop client counts, OAR (unbatched and batched sequencer) vs the
/// baselines.
pub fn throughput_experiment(
    servers: usize,
    client_counts: &[usize],
    requests_per_client: usize,
    seed: u64,
) -> Vec<ThroughputRow> {
    let mut rows = Vec::new();
    for &clients in client_counts {
        // OAR, unbatched (the paper's one-OrderMsg-per-request sequencer).
        rows.push(run_oar_throughput(
            "oar",
            OarConfig::default(),
            servers,
            clients,
            requests_per_client,
            1,
            seed,
        ));

        // OAR with sequencer batching: up to BATCHED_MAX_BATCH requests per
        // ordering broadcast, amortising the reliable-multicast cost.
        rows.push(run_oar_throughput(
            "oar-batched",
            OarConfig::with_batching(BATCHED_MAX_BATCH),
            servers,
            clients,
            requests_per_client,
            1,
            seed,
        ));

        // OAR with pipelined clients and window-sized sequencer batches: one
        // OrderMsg swallows the whole in-flight window (PIPELINE_DEPTH
        // requests per client), so each server coalesces its replies into
        // one ReplyBatch per client per window — reply_messages_sent drops
        // towards servers × clients × ceil(requests / PIPELINE_DEPTH).
        rows.push(run_oar_throughput(
            "oar-pipelined",
            OarConfig::with_batching(PIPELINE_DEPTH * clients),
            servers,
            clients,
            requests_per_client,
            PIPELINE_DEPTH,
            seed,
        ));

        let base = BaselineConfig {
            num_servers: servers,
            num_clients: clients,
            net: NetConfig::lan(),
            seed,
            ..BaselineConfig::default()
        };
        let mut seq: SequencerCluster<KvMachine> =
            SequencerCluster::build(&base, KvMachine::new, |c| {
                kv_workload(c, requests_per_client)
            });
        assert!(seq.run_to_completion(SimTime::from_secs(600)));
        let seq_end = seq
            .clients
            .iter()
            .flat_map(|&c| {
                seq.world
                    .process_ref::<oar_baselines::SequencerClient<KvMachine>>(c)
                    .completed()
                    .iter()
                    .map(|r| r.completed_at)
            })
            .max()
            .unwrap_or(SimTime::ZERO);
        rows.push(throughput_row(
            "fixed-sequencer",
            servers,
            clients,
            seq_end,
            &seq.latencies(),
        ));

        let mut ct: CtCluster<KvMachine> = CtCluster::build(&base, KvMachine::new, |c| {
            kv_workload(c, requests_per_client)
        });
        assert!(ct.run_to_completion(SimTime::from_secs(600)));
        let ct_end = ct
            .clients
            .iter()
            .flat_map(|&c| {
                ct.world
                    .process_ref::<oar_baselines::CtClient<KvMachine>>(c)
                    .completed()
                    .iter()
                    .map(|r| r.completed_at)
            })
            .max()
            .unwrap_or(SimTime::ZERO);
        rows.push(throughput_row(
            "ct-abcast",
            servers,
            clients,
            ct_end,
            &ct.latencies(),
        ));
    }
    rows
}

fn throughput_row(
    protocol: &str,
    servers: usize,
    clients: usize,
    end: SimTime,
    latencies: &Samples,
) -> ThroughputRow {
    let requests = latencies.len();
    ThroughputRow {
        protocol: protocol.into(),
        servers,
        clients,
        requests,
        requests_per_second: sim_rate(requests, end),
        mean_latency_ms: latencies.mean().unwrap_or(0.0),
        p50_latency_ms: latencies.quantile(0.5).unwrap_or(0.0),
        p95_latency_ms: latencies.quantile(0.95).unwrap_or(0.0),
        p99_latency_ms: latencies.quantile(0.99).unwrap_or(0.0),
        order_messages_sent: 0,
        reply_messages_sent: 0,
        replies_sent: 0,
        consensus_allocations: 0,
        consensus_messages: 0,
        peak_payloads: 0,
        apply_ns: 0,
    }
}

/// One row of the long-run soak experiment (T-SOAK).
#[derive(Clone, Debug)]
pub struct SoakRow {
    /// Number of replicas.
    pub servers: usize,
    /// Number of pipelined clients.
    pub clients: usize,
    /// Requests completed (the workload runs across many epochs).
    pub requests: usize,
    /// Epochs completed per server (average).
    pub epochs_per_server: f64,
    /// Peak size of any server's `payloads` map — the quantity the
    /// epoch-watermark GC must bound.
    pub peak_payloads: u64,
    /// Largest `payloads` size across alive servers at the end of the run.
    pub final_payloads: u64,
    /// Peak size of any server's `PhaseII` duplicate-suppression (`seen`)
    /// set — aged out by the same watermark rule, so it must stay a few
    /// epochs small.
    pub peak_seen: u64,
    /// Largest `seen` size across alive servers at the end of the run.
    pub final_seen: u64,
    /// Payloads pruned by the watermark GC across all servers.
    pub payloads_pruned: u64,
    /// `ReplyBatch` wires sent across all servers.
    pub reply_messages_sent: u64,
    /// Individual replies carried by those wires.
    pub replies_sent: u64,
    /// `OrderMsg` broadcasts sent by sequencers.
    pub order_messages_sent: u64,
    /// Consensus wire allocations (shared-relay count).
    pub consensus_allocations: u64,
    /// Per-destination consensus deliveries the pre-clone scheme would have
    /// allocated.
    pub consensus_messages: u64,
    /// Whether the run completed and stayed consistent.
    pub consistent: bool,
}

/// Epoch-cut threshold of the soak experiment: epochs close every
/// `SOAK_EPOCH_CUT` optimistic deliveries, giving the watermark GC regular
/// settlement points.
pub const SOAK_EPOCH_CUT: u64 = 64;

/// T-SOAK: a long batched + pipelined run across many epochs, checking that
/// the traffic-amortisation and payload-GC bounds hold at scale.
///
/// The run drives `clients × requests_per_client` requests (the full-size
/// soak uses ≥ 5000) with sequencer batching, reply batching, pipelined
/// clients and periodic epoch cuts. [`check_soak_bounds`] turns the row into
/// a pass/fail verdict: peak `payloads` must be bounded by the
/// unsettled-epoch window — not by the total request count — and the
/// reply/order wire counts must stay under their amortisation ceilings.
pub fn soak_experiment(clients: usize, requests_per_client: usize, seed: u64) -> SoakRow {
    let servers = 3;
    let oar = OarConfig {
        epoch_cut_after: Some(SOAK_EPOCH_CUT),
        ..OarConfig::with_batching(PIPELINE_DEPTH * clients)
    };
    let mut cluster = build_throughput_cluster(
        oar,
        servers,
        clients,
        requests_per_client,
        PIPELINE_DEPTH,
        seed,
    );
    let done = cluster.run_to_completion(SimTime::from_secs(600));
    // Let the final watermark announcements propagate so end-of-run payload
    // levels reflect the GC, not message latency.
    let settle_until = cluster.world.now() + SimDuration::from_millis(50);
    cluster.world.run_until(settle_until);
    let consistent = done
        && cluster.check_replica_consistency().is_ok()
        && cluster.check_external_consistency().is_ok();
    let epochs: u64 = cluster
        .servers
        .iter()
        .map(|&s| {
            cluster
                .world
                .process_ref::<oar::OarServer<KvMachine>>(s)
                .stats()
                .epochs_completed
        })
        .sum();
    SoakRow {
        servers,
        clients,
        requests: cluster.completed_requests().len(),
        epochs_per_server: epochs as f64 / servers as f64,
        peak_payloads: cluster.peak_payloads(),
        final_payloads: cluster.current_payloads(),
        peak_seen: cluster.peak_seen(),
        final_seen: cluster.current_seen(),
        payloads_pruned: cluster.total_payloads_pruned(),
        reply_messages_sent: cluster.total_reply_messages(),
        replies_sent: cluster.total_replies(),
        order_messages_sent: cluster.total_order_messages(),
        consensus_allocations: cluster.total_consensus_wires(),
        consensus_messages: cluster.total_consensus_messages(),
        consistent,
    }
}

/// Verifies the amortisation and memory bounds of a soak row; returns every
/// violation found (empty = pass). Used by the CI soak-smoke gate so traffic
/// regressions fail the build instead of silently eroding.
pub fn check_soak_bounds(row: &SoakRow, requests_per_client: usize) -> Vec<String> {
    let mut violations = Vec::new();
    let total = (row.clients * requests_per_client) as u64;
    if !row.consistent {
        violations.push("run did not complete consistently".to_string());
    }
    if row.requests as u64 != total {
        violations.push(format!(
            "completed {} of {} requests (at-least-once violated)",
            row.requests, total
        ));
    }
    // Payload memory: bounded by the unsettled-epoch window (one epoch cut
    // plus the in-flight pipeline per client, with generous slack for epoch
    // boundaries), NOT by the total request count.
    let window = SOAK_EPOCH_CUT + (row.clients * PIPELINE_DEPTH) as u64;
    let payload_bound = 4 * window;
    if row.peak_payloads > payload_bound {
        violations.push(format!(
            "peak payloads {} exceeds the watermark window bound {payload_bound} \
             (total requests: {total})",
            row.peak_payloads
        ));
    }
    if row.final_payloads > payload_bound {
        violations.push(format!(
            "final payloads {} exceeds the watermark window bound {payload_bound}",
            row.final_payloads
        ));
    }
    // Seen-set memory: only the PhaseII broadcast keeps a duplicate-
    // suppression set (client requests are recognised by `payloads` and
    // `settled`), aged out by the same watermark — a handful of ids of the
    // epochs not yet acknowledged group-wide, whatever the request count.
    let seen_bound = 64;
    if row.peak_seen > seen_bound {
        violations.push(format!(
            "peak seen {} exceeds the watermark window bound {seen_bound} \
             (total requests: {total})",
            row.peak_seen
        ));
    }
    if row.final_seen > seen_bound {
        violations.push(format!(
            "final seen {} exceeds the watermark window bound {seen_bound}",
            row.final_seen
        ));
    }
    // Reply amortisation: at most ceil(requests / PIPELINE_DEPTH) ReplyBatch
    // wires per client per server (a client's replies coalesce per in-flight
    // window), with 2x slack for partially filled batches at epoch
    // boundaries. The unbatched protocol pays `servers × total` wires.
    let per_client_ceiling = requests_per_client.div_ceil(PIPELINE_DEPTH) as u64;
    let reply_ceiling = 2 * row.servers as u64 * row.clients as u64 * per_client_ceiling;
    if row.reply_messages_sent > reply_ceiling {
        violations.push(format!(
            "reply_messages_sent {} exceeds the amortisation ceiling {reply_ceiling}",
            row.reply_messages_sent
        ));
    }
    if row.replies_sent != row.servers as u64 * total {
        violations.push(format!(
            "replies_sent {} != servers × requests = {}",
            row.replies_sent,
            row.servers as u64 * total
        ));
    }
    // Ordering amortisation: one OrderMsg per window-sized batch, 2x slack
    // plus headroom for tick-flushed stragglers around epoch cuts.
    let order_window = (PIPELINE_DEPTH * row.clients) as u64;
    let order_ceiling = 2 * total.div_ceil(order_window).max(1) + 16;
    if row.order_messages_sent > order_ceiling {
        violations.push(format!(
            "order_messages_sent {} exceeds the amortisation ceiling {order_ceiling}",
            row.order_messages_sent
        ));
    }
    // Shared-relay consensus: every allocation reaches at least one
    // destination, and group-wide wires reach several — the pre-clone count
    // must be strictly larger in a run with consensus traffic.
    if row.consensus_allocations > 0 && row.consensus_messages <= row.consensus_allocations {
        violations.push(format!(
            "shared consensus wires ({}) should fan out to more destinations ({})",
            row.consensus_allocations, row.consensus_messages
        ));
    }
    violations
}

/// Epochs between snapshots in the recovery soak: small enough that the
/// retained `A_delivered` window is far below the workload size, large
/// enough that each snapshot covers several epochs of settled commands.
pub const RECOVERY_SNAPSHOT_EVERY: u64 = 4;

/// One row of the crash-recovery soak (T-RECOVER).
#[derive(Clone, Debug)]
pub struct RecoveryRow {
    /// Number of replicas.
    pub servers: usize,
    /// Number of pipelined clients.
    pub clients: usize,
    /// Requests completed.
    pub requests: usize,
    /// Whether the run completed and every consistency proposition held —
    /// including the rejoined replica, which the checks compare against the
    /// survivors through the compaction-aware digests and order hashes.
    pub consistent: bool,
    /// Whether the restarted replica finished its catch-up by quiesce.
    pub rejoined: bool,
    /// Snapshot position the restarted replica installed: > 0 means the
    /// rejoin was snapshot + delta, not a full replay.
    pub catch_up_snapshot_position: u64,
    /// Settled commands replayed on top of the snapshot image.
    pub catch_up_delta: u64,
    /// Total settled position of the rejoined replica at quiesce (must be
    /// past the transfer: it kept settling requests after resuming).
    pub rejoined_settled: u64,
    /// Peak retained `A_delivered` length across all servers — the quantity
    /// log compaction must bound by the snapshot window, not the workload.
    pub peak_a_delivered: u64,
    /// Peak undo-stack depth across all servers (cleared at each epoch
    /// close, so bounded by a single epoch's optimistic window).
    pub peak_undo_depth: u64,
    /// Snapshots taken across all servers.
    pub snapshots: u64,
    /// Settled commands pruned from retained logs across all servers.
    pub compacted: u64,
    /// `CatchUpRequest` wires sent (retries included).
    pub catch_up_requests: u64,
    /// `CatchUpReply` transfers served.
    pub catch_up_replies: u64,
    /// `PayloadFetch` repair wires sent.
    pub payload_fetches: u64,
}

/// T-RECOVER: the crash-recovery soak. A replica crashes under a batched,
/// pipelined, epoch-cut workload (the full-size run drives ≥ 5000 requests),
/// restarts with blank state mid-run, and rejoins through the snapshot +
/// delta catch-up protocol. [`check_recovery_bounds`] turns the row into a
/// pass/fail verdict: the rejoined replica must converge to the cluster
/// digest, peak `A_delivered` must be bounded by the compaction window — not
/// the workload size — and the catch-up wire count must stay bounded.
pub fn recovery_experiment(clients: usize, requests_per_client: usize, seed: u64) -> RecoveryRow {
    let servers = 3;
    let restarted = 2usize;
    let oar = OarConfig {
        epoch_cut_after: Some(SOAK_EPOCH_CUT),
        snapshot_every: Some(RECOVERY_SNAPSHOT_EVERY),
        ..OarConfig::with_batching(PIPELINE_DEPTH * clients)
    };
    let mut cluster = build_throughput_cluster(
        oar,
        servers,
        clients,
        requests_per_client,
        PIPELINE_DEPTH,
        seed,
    );
    // Crash a non-sequencer replica early, then revive it with fresh
    // in-memory state once a survivor has taken its first snapshot — so the
    // catch-up transfer is exercised as snapshot + delta (not a full replay)
    // while the workload is still running and the rejoined replica settles
    // new requests after resuming.
    cluster
        .world
        .schedule_crash(cluster.servers[restarted], SimTime::from_millis(2));
    let snapshot_deadline = SimTime::from_secs(300);
    while cluster.server(0).stats().snapshots_taken == 0 && cluster.world.now() < snapshot_deadline
    {
        let step = cluster.world.now() + SimDuration::from_millis(5);
        cluster.world.run_until(step);
    }
    let restart_at = cluster.world.now() + SimDuration::from_millis(1);
    cluster.schedule_server_restart(restart_at, restarted, KvMachine::new);
    let done = cluster.run_to_completion(SimTime::from_secs(600));
    // Let catch-up retries, watermarks and heartbeats settle.
    let settle_until = cluster.world.now() + SimDuration::from_millis(120);
    cluster.world.run_until(settle_until);
    let consistent = done
        && cluster.check_replica_consistency().is_ok()
        && cluster.check_external_consistency().is_ok();
    let rejoined_server = cluster.server(restarted);
    let rejoined = !rejoined_server.is_recovering();
    let stats = rejoined_server.stats();
    RecoveryRow {
        servers,
        clients,
        requests: cluster.completed_requests().len(),
        consistent,
        rejoined,
        catch_up_snapshot_position: stats.catch_up_snapshot_position,
        catch_up_delta: stats.catch_up_delta,
        rejoined_settled: rejoined_server.total_settled(),
        peak_a_delivered: cluster.peak_a_delivered_len(),
        peak_undo_depth: cluster.peak_undo_depth(),
        snapshots: cluster.total_snapshots(),
        compacted: cluster.total_compacted(),
        catch_up_requests: cluster.total_catch_up_requests(),
        catch_up_replies: cluster.total_catch_up_replies(),
        payload_fetches: cluster.total_payload_fetches(),
    }
}

/// Verifies the recovery gates of a T-RECOVER row; returns every violation
/// found (empty = pass). Used by the CI `recovery-smoke` gate.
pub fn check_recovery_bounds(row: &RecoveryRow, requests_per_client: usize) -> Vec<String> {
    let mut violations = Vec::new();
    let total = (row.clients * requests_per_client) as u64;
    if !row.consistent {
        violations.push("run did not complete consistently".to_string());
    }
    if row.requests as u64 != total {
        violations.push(format!(
            "completed {} of {} requests (at-least-once violated)",
            row.requests, total
        ));
    }
    // Gate 1: the restarted replica converged — it finished catch-up via
    // snapshot + delta (not a full replay) and kept settling afterwards.
    // Digest equality with the survivors is part of `consistent` above.
    if !row.rejoined {
        violations.push("restarted replica still mid-recovery at quiesce".to_string());
    }
    if row.catch_up_snapshot_position == 0 {
        violations.push(format!(
            "catch-up replayed from position 0 — full replay, not snapshot + delta \
             (delta {})",
            row.catch_up_delta
        ));
    }
    let transferred = row.catch_up_snapshot_position + row.catch_up_delta;
    if row.rejoined_settled <= transferred {
        violations.push(format!(
            "rejoined replica settled nothing after the transfer \
             (transfer {transferred}, settled {})",
            row.rejoined_settled
        ));
    }
    // Gate 2: log compaction bounds retained state by the snapshot window —
    // `RECOVERY_SNAPSHOT_EVERY` epochs of at most (cut + in-flight pipeline)
    // commands each, with 2x slack — NOT by the total request count.
    let epoch_window = SOAK_EPOCH_CUT + (row.clients * PIPELINE_DEPTH) as u64;
    let a_delivered_bound = 2 * RECOVERY_SNAPSHOT_EVERY * epoch_window;
    if row.peak_a_delivered > a_delivered_bound {
        violations.push(format!(
            "peak A_delivered {} exceeds the compaction window bound {a_delivered_bound} \
             (total requests: {total})",
            row.peak_a_delivered
        ));
    }
    if row.snapshots == 0 {
        violations.push("no snapshots taken — compaction never ran".to_string());
    }
    // The undo stack clears at every epoch close: bounded by one epoch's
    // optimistic window regardless of workload size.
    let undo_bound = 2 * epoch_window;
    if row.peak_undo_depth > undo_bound {
        violations.push(format!(
            "peak undo depth {} exceeds the epoch window bound {undo_bound}",
            row.peak_undo_depth
        ));
    }
    // Gate 3: bounded catch-up wire count. One restart should take a handful
    // of request/reply exchanges (donor rotation retries included) and a
    // bounded number of payload repairs — never O(workload) traffic.
    if row.catch_up_requests > 8 {
        violations.push(format!(
            "{} CatchUpRequest wires for one restart (retry storm?)",
            row.catch_up_requests
        ));
    }
    if row.catch_up_replies > 8 {
        violations.push(format!(
            "{} CatchUpReply transfers for one restart",
            row.catch_up_replies
        ));
    }
    if row.payload_fetches > 64 {
        violations.push(format!(
            "{} PayloadFetch wires (repair traffic should be bounded)",
            row.payload_fetches
        ));
    }
    violations
}

/// One row of the sharded scaling experiment (T-SHARD).
#[derive(Clone, Debug)]
pub struct ShardedRow {
    /// Number of OAR groups the key space is partitioned over.
    pub groups: usize,
    /// Replicas per group.
    pub servers_per_group: usize,
    /// Closed-loop clients *per group* (total clients = groups × this).
    pub clients_per_group: usize,
    /// Requests completed across all groups.
    pub requests: usize,
    /// Aggregate completed requests per simulated second.
    pub requests_per_second: f64,
    /// Mean client-observed latency (ms).
    pub mean_latency_ms: f64,
    /// Requests that reached a group other than the one they were stamped
    /// for. Must be 0: the router is a pure function replicated at every
    /// client.
    pub misroutes: u64,
    /// Peak duplicate-suppression (`seen`) set size at any server.
    pub peak_seen: u64,
    /// `OrderMsg` broadcasts per group (each group has its own sequencer).
    pub per_group_order_messages: Vec<u64>,
    /// `ReplyBatch` wires per group.
    pub per_group_reply_messages: Vec<u64>,
    /// Wire messages handed to the network by each group's servers
    /// (relays, ordering, replies, consensus, heartbeats).
    pub per_group_wire_sent: Vec<u64>,
    /// Whether the run completed with every group's propositions intact.
    pub consistent: bool,
}

/// Replicas per group used by the sharded experiment.
pub const SHARDED_SERVERS_PER_GROUP: usize = 3;

/// The fixed key pool of the sharded workload. Independent of the group
/// count, so the *same* per-client workload is measured at every scale and
/// the hash router simply spreads it over more groups.
pub const SHARDED_KEY_SPACE: usize = 64;

fn sharded_workload(client: usize, requests: usize) -> Vec<KvCommand> {
    (0..requests)
        .map(|i| {
            let key = format!("k{:02}", (client * 13 + i * 7) % SHARDED_KEY_SPACE);
            if i % 4 == 3 {
                KvCommand::Get { key }
            } else {
                KvCommand::Put {
                    key,
                    value: format!("c{client}-v{i}"),
                }
            }
        })
        .collect()
}

/// Builds the sharded KV deployment measured by T-SHARD (also reused by the
/// `sharded` criterion bench): `groups` hash-partitioned OAR groups of
/// [`SHARDED_SERVERS_PER_GROUP`] replicas, `clients_per_group × groups`
/// pipelined clients, batched sequencers.
pub fn build_sharded_cluster(
    groups: usize,
    clients_per_group: usize,
    requests_per_client: usize,
    seed: u64,
) -> ShardedCluster<KvMachine> {
    let config = ShardedConfig {
        num_groups: groups,
        servers_per_group: SHARDED_SERVERS_PER_GROUP,
        num_clients: groups * clients_per_group,
        router: ShardRouter::hash(groups),
        net: NetConfig::lan(),
        oar: OarConfig::with_batching(PIPELINE_DEPTH),
        seed,
        think_time: SimDuration::ZERO,
        client_pipeline: PIPELINE_DEPTH,
        adaptive_pipeline: false,
    };
    ShardedCluster::build(&config, KvMachine::new, |c| {
        sharded_workload(c, requests_per_client)
    })
}

/// T-SHARD: aggregate throughput as the key space is partitioned over more
/// groups, at **fixed per-group client load** — the deployment-level answer
/// to the single-sequencer ceiling. Each group runs the unmodified OAR
/// protocol; the propositions are checked per group, and cross-group
/// ordering is explicitly out of scope.
pub fn sharded_experiment(
    group_counts: &[usize],
    clients_per_group: usize,
    requests_per_client: usize,
    seed: u64,
) -> Vec<ShardedRow> {
    let mut rows = Vec::new();
    for &groups in group_counts {
        let mut cluster =
            build_sharded_cluster(groups, clients_per_group, requests_per_client, seed);
        let done = cluster.run_to_completion(SimTime::from_secs(600));
        let consistent = done
            && cluster.check_per_group_consistency().is_ok()
            && cluster.check_external_consistency().is_ok();
        let end = cluster.last_completion();
        let requests = cluster.completed_requests().len();
        rows.push(ShardedRow {
            groups,
            servers_per_group: SHARDED_SERVERS_PER_GROUP,
            clients_per_group,
            requests,
            requests_per_second: sim_rate(requests, end),
            mean_latency_ms: cluster.latencies().mean().unwrap_or(0.0),
            misroutes: cluster.total_misroutes(),
            peak_seen: cluster.peak_seen(),
            per_group_order_messages: (0..groups)
                .map(|g| cluster.sum_group_stats(g, |st| st.order_messages_sent))
                .collect(),
            per_group_reply_messages: (0..groups)
                .map(|g| cluster.sum_group_stats(g, |st| st.reply_messages_sent))
                .collect(),
            per_group_wire_sent: (0..groups)
                .map(|g| cluster.group_net_stats(g).sent)
                .collect(),
            consistent,
        });
    }
    rows
}

/// Verifies the scaling and isolation claims of a T-SHARD sweep; returns
/// every violation found (empty = pass). The CI `sharded-smoke` gate:
///
/// * every run completes with the per-group propositions intact;
/// * zero misroutes anywhere;
/// * aggregate throughput at 4 groups ≥ 2× the 1-group run (same per-group
///   load), i.e. adding groups adds capacity instead of interference.
pub fn check_sharded_bounds(
    rows: &[ShardedRow],
    clients_per_group: usize,
    requests_per_client: usize,
) -> Vec<String> {
    let mut violations = Vec::new();
    for row in rows {
        let expected = row.groups * clients_per_group * requests_per_client;
        if !row.consistent {
            violations.push(format!(
                "{} groups: run did not complete consistently",
                row.groups
            ));
        }
        if row.requests != expected {
            violations.push(format!(
                "{} groups: completed {} of {expected} requests",
                row.groups, row.requests
            ));
        }
        if row.misroutes != 0 {
            violations.push(format!(
                "{} groups: {} misrouted requests (must be 0)",
                row.groups, row.misroutes
            ));
        }
    }
    let throughput_of = |groups: usize| {
        rows.iter()
            .find(|r| r.groups == groups)
            .map(|r| r.requests_per_second)
    };
    match (throughput_of(1), throughput_of(4)) {
        (Some(tp1), Some(tp4)) => {
            if tp4 < 2.0 * tp1 {
                violations.push(format!(
                    "aggregate throughput at 4 groups ({tp4:.1} req/s) is below 2x \
                     the 1-group run ({tp1:.1} req/s)"
                ));
            }
        }
        // The gate must fail loudly, not pass vacuously, if the sweep no
        // longer produces the rows it compares.
        _ => violations.push(
            "sweep lacks the 1-group and/or 4-group rows; the >=2x scaling \
             gate was not evaluated"
                .to_string(),
        ),
    }
    violations
}

/// One row of the multi-key transaction experiment (T-TXN).
#[derive(Clone, Debug)]
pub struct TxnRow {
    /// Number of OAR groups the key space is partitioned over.
    pub groups: usize,
    /// Transactional clients.
    pub clients: usize,
    /// Transactions committed in the multi-group run.
    pub txns: usize,
    /// Committed transactions that spanned more than one group.
    pub multi_group_txns: usize,
    /// Committed transactions per simulated second (multi-group run).
    pub commits_per_second: f64,
    /// Mean client-observed commit latency (ms, multi-group run).
    pub mean_commit_latency_ms: f64,
    /// p99 commit latency (ms, multi-group run).
    pub p99_commit_latency_ms: f64,
    /// `TxnPrepare` requests buffered across all servers (multi-group run).
    pub txn_prepares: u64,
    /// Misrouted requests across all three runs (multi-group, fast-path and
    /// plain baseline). Must be 0.
    pub misroutes: u64,
    /// Total wire messages of the *single-group* transactional run — the
    /// fast path under test.
    pub fastpath_wires_txn: u64,
    /// Total wire messages of the equivalent plain [`ShardedCluster`] run
    /// submitting the same commands. The fast-path gate requires equality.
    pub fastpath_wires_plain: u64,
    /// `TxnPrepare` envelopes observed in the single-group run. Must be 0:
    /// the fast path is indistinguishable from a plain request.
    pub fastpath_txn_prepares: u64,
    /// Mean fast-path commit latency (ms) — should track the plain run.
    pub fastpath_latency_ms: f64,
    /// Mean plain-run request latency (ms).
    pub plain_latency_ms: f64,
    /// Whether both runs completed with every check green (per-group
    /// propositions, cross-group atomicity, per-part external consistency).
    pub consistent: bool,
}

/// The fixed key pool of the transactional workloads (same pool as the
/// sharded experiment, so the hash router spreads it over every group
/// count).
pub const TXN_KEY_SPACE: usize = SHARDED_KEY_SPACE;

/// Single-group transactions: two ops on the *same* key (a write and a
/// read), so the router collapses every transaction onto one owning group
/// and the fast path fires.
fn txn_fastpath_workload(client: usize, txns: usize) -> Vec<Vec<KvCommand>> {
    (0..txns)
        .map(|i| {
            let key = format!("k{:02}", (client * 13 + i * 7) % TXN_KEY_SPACE);
            vec![
                KvCommand::Put {
                    key: key.clone(),
                    value: format!("c{client}-t{i}"),
                },
                KvCommand::Get { key },
            ]
        })
        .collect()
}

/// The same commands as [`txn_fastpath_workload`], submitted as plain
/// atomic `Multi` commands through the non-transactional sharded client —
/// the baseline the fast-path wire gate compares against.
fn txn_fastpath_plain_workload(client: usize, txns: usize) -> Vec<KvCommand> {
    txn_fastpath_workload(client, txns)
        .into_iter()
        .map(KvCommand::Multi)
        .collect()
}

/// Multi-key transactions: a write on each of two distinct keys, which the
/// hash router spreads over distinct groups for most draws once the
/// deployment has more than one group.
fn txn_multi_workload(client: usize, txns: usize) -> Vec<Vec<KvCommand>> {
    (0..txns)
        .map(|i| {
            let a = format!("k{:02}", (client * 13 + i * 7) % TXN_KEY_SPACE);
            let b = format!("k{:02}", (client * 13 + i * 7 + 17) % TXN_KEY_SPACE);
            vec![
                KvCommand::Put {
                    key: a,
                    value: format!("c{client}-t{i}a"),
                },
                KvCommand::Put {
                    key: b,
                    value: format!("c{client}-t{i}b"),
                },
            ]
        })
        .collect()
}

/// The single deployment configuration of the T-TXN runs. Shared by the
/// transactional cluster *and* the plain baseline it is compared against:
/// the fast-path wire-identity gate is only meaningful when the two runs
/// are configured byte-identically, so there is exactly one place to tune.
fn txn_shard_config(groups: usize, clients: usize, seed: u64) -> ShardedConfig {
    ShardedConfig {
        num_groups: groups,
        servers_per_group: SHARDED_SERVERS_PER_GROUP,
        num_clients: clients,
        router: ShardRouter::hash(groups),
        net: NetConfig::lan(),
        oar: OarConfig::default(),
        seed,
        think_time: SimDuration::ZERO,
        client_pipeline: 1,
        adaptive_pipeline: false,
    }
}

/// Builds the transactional KV deployment measured by T-TXN (also reused by
/// the `txn` criterion bench): `groups` hash-partitioned OAR groups of
/// [`SHARDED_SERVERS_PER_GROUP`] replicas and `clients` closed-loop
/// transactional clients. `multi_group` selects the spanning workload; the
/// fast-path workload keeps every transaction in one group.
pub fn build_txn_cluster(
    groups: usize,
    clients: usize,
    txns_per_client: usize,
    multi_group: bool,
    seed: u64,
) -> TxnCluster<KvMachine> {
    let config = txn_shard_config(groups, clients, seed);
    TxnCluster::build(&config, KvMachine::new, |c| {
        if multi_group {
            txn_multi_workload(c, txns_per_client)
        } else {
            txn_fastpath_workload(c, txns_per_client)
        }
    })
}

/// The plain sharded deployment the fast-path gate compares against: the
/// identical configuration, the identical commands, submitted without the
/// transaction layer.
pub fn build_txn_plain_cluster(
    groups: usize,
    clients: usize,
    txns_per_client: usize,
    seed: u64,
) -> ShardedCluster<KvMachine> {
    let config = txn_shard_config(groups, clients, seed);
    ShardedCluster::build(&config, KvMachine::new, |c| {
        txn_fastpath_plain_workload(c, txns_per_client)
    })
}

/// T-TXN: the cost of cross-group multi-key transactions as the key space
/// is partitioned over more groups.
///
/// Two claims per group count:
///
/// * **fast-path overhead ≈ 0** — a single-group transactional workload
///   produces wire traffic *identical* (counter-equal) to the plain sharded
///   client submitting the same atomic commands, with zero `TxnPrepare`
///   envelopes;
/// * **multi-group commit latency** — a transaction spanning `g` groups
///   commits once the Fig. 5 quorum holds in every participant, so its
///   latency tracks the *slowest* group rather than the sum; the sweep
///   records how that cost grows with the group count.
pub fn txn_experiment(
    group_counts: &[usize],
    clients: usize,
    txns_per_client: usize,
    seed: u64,
) -> Vec<TxnRow> {
    let mut rows = Vec::new();
    for &groups in group_counts {
        // Fast-path pair: transactional vs plain, identical commands.
        let mut fast = build_txn_cluster(groups, clients, txns_per_client, false, seed);
        let fast_done = fast.run_to_completion(SimTime::from_secs(600));
        let fast_ok = fast_done && fast.check_all().is_ok();
        let mut plain = build_txn_plain_cluster(groups, clients, txns_per_client, seed);
        let plain_done = plain.run_to_completion(SimTime::from_secs(600));
        let plain_ok = plain_done
            && plain.check_per_group_consistency().is_ok()
            && plain.check_external_consistency().is_ok();

        // Multi-group commit run.
        let mut multi = build_txn_cluster(groups, clients, txns_per_client, true, seed);
        let multi_done = multi.run_to_completion(SimTime::from_secs(600));
        let multi_ok = multi_done && multi.check_all().is_ok();

        let end = multi.last_completion();
        let txns = multi.completed_txns().len();
        rows.push(TxnRow {
            groups,
            clients,
            txns,
            multi_group_txns: multi.multi_group_commits(),
            commits_per_second: sim_rate(txns, end),
            mean_commit_latency_ms: multi.latencies().mean().unwrap_or(0.0),
            p99_commit_latency_ms: multi.latencies().quantile(0.99).unwrap_or(0.0),
            txn_prepares: multi.total_txn_prepares(),
            misroutes: multi.total_misroutes() + fast.total_misroutes() + plain.total_misroutes(),
            fastpath_wires_txn: fast.total_wires(),
            fastpath_wires_plain: plain.world.stats().sent,
            fastpath_txn_prepares: fast.total_txn_prepares(),
            fastpath_latency_ms: fast.latencies().mean().unwrap_or(0.0),
            plain_latency_ms: plain.latencies().mean().unwrap_or(0.0),
            consistent: fast_ok && plain_ok && multi_ok,
        });
    }
    rows
}

/// Verifies the transactional gates of a T-TXN sweep; returns every
/// violation found (empty = pass). The CI `txn-smoke` gate:
///
/// * both runs of every row complete with all checks green (per-group
///   propositions, cross-group **atomicity**, per-part external
///   consistency) and zero misroutes;
/// * the single-group fast path adds **zero wires**: exact wire-count
///   equality with the plain sharded run, and zero `TxnPrepare` envelopes;
/// * with more than one group, the sweep actually exercised multi-group
///   commits (the gate must not pass vacuously).
pub fn check_txn_bounds(rows: &[TxnRow], clients: usize, txns_per_client: usize) -> Vec<String> {
    let mut violations = Vec::new();
    for row in rows {
        let expected = clients * txns_per_client;
        if !row.consistent {
            violations.push(format!(
                "{} groups: a run did not complete with all checks green",
                row.groups
            ));
        }
        if row.txns != expected {
            violations.push(format!(
                "{} groups: committed {} of {expected} transactions",
                row.groups, row.txns
            ));
        }
        if row.misroutes != 0 {
            violations.push(format!(
                "{} groups: {} misrouted requests (must be 0)",
                row.groups, row.misroutes
            ));
        }
        if row.fastpath_wires_txn != row.fastpath_wires_plain {
            violations.push(format!(
                "{} groups: single-group fast path sent {} wires vs {} for the \
                 plain sharded client (must be identical)",
                row.groups, row.fastpath_wires_txn, row.fastpath_wires_plain
            ));
        }
        if row.fastpath_txn_prepares != 0 {
            violations.push(format!(
                "{} groups: {} TxnPrepare envelopes on the fast path (must be 0)",
                row.groups, row.fastpath_txn_prepares
            ));
        }
        if row.groups > 1 {
            if row.multi_group_txns == 0 {
                violations.push(format!(
                    "{} groups: no multi-group transaction committed; the \
                     atomicity gate was not exercised",
                    row.groups
                ));
            }
            if row.txn_prepares == 0 {
                violations.push(format!(
                    "{} groups: no TxnPrepare observed at any server",
                    row.groups
                ));
            }
        }
    }
    if rows.is_empty() {
        violations.push("sweep produced no rows".to_string());
    }
    violations
}

/// One row of the §5.3 epoch-cut ablation (T-GC).
#[derive(Clone, Debug)]
pub struct GcRow {
    /// The epoch-cut threshold (`None` = never cut, the paper's base
    /// algorithm).
    pub cut_after: Option<u64>,
    /// Requests completed.
    pub requests: usize,
    /// Epochs completed across the run (per server average).
    pub epochs_per_server: f64,
    /// Mean latency (ms).
    pub mean_latency_ms: f64,
    /// p99 latency (ms).
    pub p99_latency_ms: f64,
    /// Whether the run stayed consistent.
    pub consistent: bool,
}

/// T-GC: the §5.3 remark — periodically cutting the epoch garbage-collects
/// `O_delivered` (bounding the state `Cnsv-order` must handle) at the cost of
/// running the conservative phase regularly.
pub fn gc_experiment(cut_values: &[Option<u64>], requests: usize, seed: u64) -> Vec<GcRow> {
    let mut rows = Vec::new();
    for &cut_after in cut_values {
        let oar = OarConfig {
            epoch_cut_after: cut_after,
            ..OarConfig::default()
        };
        let config = ClusterConfig {
            num_servers: 3,
            num_clients: 2,
            net: NetConfig::lan(),
            oar,
            seed,
            ..ClusterConfig::default()
        };
        let mut cluster: Cluster<KvMachine> =
            Cluster::build(&config, KvMachine::new, |c| kv_workload(c, requests));
        let done = cluster.run_to_completion(SimTime::from_secs(600));
        let consistent = done
            && cluster.check_replica_consistency().is_ok()
            && cluster.check_external_consistency().is_ok();
        let epochs: u64 = cluster
            .servers
            .iter()
            .map(|&s| {
                cluster
                    .world
                    .process_ref::<oar::OarServer<KvMachine>>(s)
                    .stats()
                    .epochs_completed
            })
            .sum();
        let lat = cluster.latencies();
        rows.push(GcRow {
            cut_after,
            requests: cluster.completed_requests().len(),
            epochs_per_server: epochs as f64 / cluster.servers.len() as f64,
            mean_latency_ms: lat.mean().unwrap_or(0.0),
            p99_latency_ms: lat.quantile(0.99).unwrap_or(0.0),
            consistent,
        });
    }
    rows
}

/// One row of the adaptive batching experiment (T-ADAPTIVE).
#[derive(Clone, Debug)]
pub struct AdaptiveRow {
    /// Variant label: `unbatched`, `batched8`, `replybatch` (the static
    /// settings) or `adaptive` (controller-driven).
    pub protocol: String,
    /// Number of concurrent clients.
    pub clients: usize,
    /// Requests completed.
    pub requests: usize,
    /// Host wall-clock of one simulation run, milliseconds (minimum over the
    /// experiment's repeats — the robust point of a noisy measurement).
    pub wall_ms: f64,
    /// Completed requests per simulated second.
    pub requests_per_second: f64,
    /// Mean simulated latency (ms).
    pub mean_latency_ms: f64,
    /// Median simulated latency (ms).
    pub p50_latency_ms: f64,
    /// 95th-percentile simulated latency (ms).
    pub p95_latency_ms: f64,
    /// 99th-percentile simulated latency (ms) — where the flush deadline of
    /// a partial batch shows up.
    pub p99_latency_ms: f64,
    /// `OrderMsg` broadcasts sent by sequencers.
    pub order_messages_sent: u64,
    /// `ReplyBatch` wires sent to clients.
    pub reply_messages_sent: u64,
    /// Largest `OrderMsg` batch any sequencer emitted.
    pub effective_batch_peak: u64,
    /// The batch threshold in force at the end of the run (adaptive rows:
    /// the controller's converged target; static rows: `max_batch`).
    pub batch_target: u64,
    /// Adaptive-target raises across all servers (convergence counter).
    pub target_raises: u64,
    /// Adaptive-target drops across all servers (convergence counter).
    pub target_drops: u64,
    /// Partial batches flushed by the deadline timer.
    pub deadline_flushes: u64,
    /// Deepest pipeline window any client adopted (0 for static pipelines).
    pub client_window_peak: u64,
    /// Whether the run completed with the propositions intact.
    pub consistent: bool,
}

/// Cap of the adaptive client pipeline window in the T-ADAPTIVE runs — the
/// static `replybatch` comparison point uses the same depth.
pub const ADAPTIVE_CLIENT_CAP: usize = PIPELINE_DEPTH;

/// The static variants the adaptive controller is measured against, plus the
/// adaptive deployment itself: (label, server config, client pipeline). The
/// `replybatch` variant is the hand-tuned best static setting of PR 2
/// (window-sized batches + pipelined clients).
fn adaptive_variants(clients: usize) -> Vec<(&'static str, OarConfig, usize)> {
    vec![
        ("unbatched", OarConfig::default(), 1),
        ("batched8", OarConfig::with_batching(BATCHED_MAX_BATCH), 1),
        (
            "replybatch",
            OarConfig::with_batching(PIPELINE_DEPTH * clients),
            PIPELINE_DEPTH,
        ),
        ("adaptive", OarConfig::adaptive(), ADAPTIVE_CLIENT_CAP),
    ]
}

/// T-ADAPTIVE: the load-driven batch controller against every static
/// setting, at light (1 client) and heavy (8 clients) load.
///
/// Each variant runs `repeats` times on the same seed; the wall-clock of the
/// fastest run is recorded (host time tracks the simulator's event count,
/// i.e. the wire traffic the batching amortises), while counters, latencies
/// and consistency come from the (identical) last run. The gates live in
/// [`check_adaptive_bounds`].
pub fn adaptive_experiment(
    client_counts: &[usize],
    requests_per_client: usize,
    repeats: usize,
    seed: u64,
) -> Vec<AdaptiveRow> {
    let mut rows = Vec::new();
    for &clients in client_counts {
        for (protocol, oar, pipeline) in adaptive_variants(clients) {
            let mut wall_ms = f64::INFINITY;
            let mut last: Option<Cluster<KvMachine>> = None;
            let mut done = false;
            for _ in 0..repeats.max(1) {
                let mut cluster =
                    build_throughput_cluster(oar, 3, clients, requests_per_client, pipeline, seed);
                let t0 = std::time::Instant::now();
                done = cluster.run_to_completion(SimTime::from_secs(600));
                wall_ms = wall_ms.min(t0.elapsed().as_secs_f64() * 1_000.0);
                last = Some(cluster);
            }
            let cluster = last.expect("at least one repeat");
            let consistent = done
                && cluster.check_replica_consistency().is_ok()
                && cluster.check_external_consistency().is_ok();
            let end = cluster
                .completed_requests()
                .iter()
                .map(|r| r.completed_at)
                .max()
                .unwrap_or(SimTime::ZERO);
            let lat = cluster.latencies();
            rows.push(AdaptiveRow {
                protocol: protocol.into(),
                clients,
                requests: lat.len(),
                wall_ms,
                requests_per_second: sim_rate(lat.len(), end),
                mean_latency_ms: lat.mean().unwrap_or(0.0),
                p50_latency_ms: lat.quantile(0.5).unwrap_or(0.0),
                p95_latency_ms: lat.quantile(0.95).unwrap_or(0.0),
                p99_latency_ms: lat.quantile(0.99).unwrap_or(0.0),
                order_messages_sent: cluster.total_order_messages(),
                reply_messages_sent: cluster.total_reply_messages(),
                effective_batch_peak: cluster.peak_effective_batch(),
                batch_target: cluster.max_batch_target(),
                target_raises: cluster.total_target_raises(),
                target_drops: cluster.total_target_drops(),
                deadline_flushes: cluster.total_deadline_flushes(),
                client_window_peak: cluster.peak_client_window(),
                consistent,
            });
        }
    }
    rows
}

/// Verifies the T-ADAPTIVE gates; returns every violation found (empty =
/// pass). The CI `adaptive-smoke` gate:
///
/// * every run completes consistently with the full request count;
/// * **light load adds no latency**: at the lowest client count the adaptive
///   run's mean and p99 simulated latency are within 5% of the best
///   *closed-loop* static setting (`unbatched` / `batched8` — the static
///   pipelined variant offers different load and is compared at the high
///   end), its throughput within 5% of unbatched, and the controller never
///   ramps (target 1, no raises);
/// * **heavy load amortises**: at the highest client count the adaptive run
///   beats unbatched by ≥15% in simulated throughput, halves (at least) the
///   ordering wires, stays within 10% of the best static setting's
///   throughput, and the convergence counters show the ramp actually
///   happened (raises > 0, effective batch ≥ client count, client windows at
///   the cap).
pub fn check_adaptive_bounds(rows: &[AdaptiveRow], requests_per_client: usize) -> Vec<String> {
    let mut violations = Vec::new();
    let mut client_counts: Vec<usize> = rows.iter().map(|r| r.clients).collect();
    client_counts.sort_unstable();
    client_counts.dedup();
    let (Some(&low), Some(&high)) = (client_counts.first(), client_counts.last()) else {
        return vec!["sweep produced no rows".to_string()];
    };
    let find = |clients: usize, protocol: &str| {
        rows.iter()
            .find(|r| r.clients == clients && r.protocol == protocol)
    };
    for row in rows {
        let expected = row.clients * requests_per_client;
        if !row.consistent {
            violations.push(format!(
                "{} @ {} clients: run did not complete consistently",
                row.protocol, row.clients
            ));
        }
        if row.requests != expected {
            violations.push(format!(
                "{} @ {} clients: completed {} of {expected} requests",
                row.protocol, row.clients, row.requests
            ));
        }
    }
    let required: Vec<_> = ["unbatched", "batched8", "adaptive"]
        .iter()
        .flat_map(|p| [(low, *p), (high, *p)])
        .chain([(high, "replybatch")])
        .filter(|(c, p)| find(*c, p).is_none())
        .collect();
    if !required.is_empty() {
        violations.push(format!(
            "sweep lacks required rows {required:?}; the gates were not evaluated"
        ));
        return violations;
    }
    let adaptive_low = find(low, "adaptive").expect("checked above");
    let unbatched_low = find(low, "unbatched").expect("checked above");
    let batched_low = find(low, "batched8").expect("checked above");

    // Light load: no added latency against the best closed-loop static.
    let best_mean = unbatched_low
        .mean_latency_ms
        .min(batched_low.mean_latency_ms);
    if adaptive_low.mean_latency_ms > 1.05 * best_mean {
        violations.push(format!(
            "light load: adaptive mean latency {:.3}ms exceeds 1.05x the best \
             static ({best_mean:.3}ms)",
            adaptive_low.mean_latency_ms
        ));
    }
    let best_p99 = unbatched_low.p99_latency_ms.min(batched_low.p99_latency_ms);
    if adaptive_low.p99_latency_ms > 1.05 * best_p99 {
        violations.push(format!(
            "light load: adaptive p99 latency {:.3}ms exceeds 1.05x the best \
             static ({best_p99:.3}ms)",
            adaptive_low.p99_latency_ms
        ));
    }
    if adaptive_low.requests_per_second < 0.95 * unbatched_low.requests_per_second {
        violations.push(format!(
            "light load: adaptive throughput {:.1} req/s is below 0.95x \
             unbatched ({:.1} req/s)",
            adaptive_low.requests_per_second, unbatched_low.requests_per_second
        ));
    }
    if adaptive_low.batch_target > 1 || adaptive_low.target_raises > 0 {
        violations.push(format!(
            "light load: the controller ramped (target {}, {} raises) — \
             batching must stay off at 1 client",
            adaptive_low.batch_target, adaptive_low.target_raises
        ));
    }

    // Heavy load: amortisation and convergence.
    let adaptive_high = find(high, "adaptive").expect("checked above");
    let unbatched_high = find(high, "unbatched").expect("checked above");
    let best_static_tp = ["unbatched", "batched8", "replybatch"]
        .iter()
        .filter_map(|p| find(high, p))
        .map(|r| r.requests_per_second)
        .fold(0.0f64, f64::max);
    if adaptive_high.requests_per_second < 1.15 * unbatched_high.requests_per_second {
        violations.push(format!(
            "heavy load: adaptive throughput {:.1} req/s is not >=15% over \
             unbatched ({:.1} req/s)",
            adaptive_high.requests_per_second, unbatched_high.requests_per_second
        ));
    }
    // Sanity floor against the hand-tuned static (`replybatch` flushes
    // globally synchronised 64-deep rounds, which the rate-driven target
    // intentionally undershoots — it pays at most one `max_delay` of
    // latency where the static pays a full window): the adaptive run must
    // stay within 2x of it, without being required to match it.
    if adaptive_high.requests_per_second < 0.50 * best_static_tp {
        violations.push(format!(
            "heavy load: adaptive throughput {:.1} req/s is below half the \
             best static ({best_static_tp:.1} req/s)",
            adaptive_high.requests_per_second
        ));
    }
    if 2 * adaptive_high.order_messages_sent > unbatched_high.order_messages_sent {
        violations.push(format!(
            "heavy load: adaptive sent {} OrderMsgs, not at most half of \
             unbatched's {}",
            adaptive_high.order_messages_sent, unbatched_high.order_messages_sent
        ));
    }
    // The end-of-run target is back near 1 by design (the workload drained
    // and the idle decay kicked in), so convergence is judged by the raise
    // counter and the batches actually emitted, not the final target.
    if adaptive_high.target_raises == 0 {
        violations.push("heavy load: the controller never ramped (0 raises)".to_string());
    }
    if adaptive_high.effective_batch_peak < high as u64 {
        violations.push(format!(
            "heavy load: peak effective batch {} below the client count {high}",
            adaptive_high.effective_batch_peak
        ));
    }
    if adaptive_high.client_window_peak < ADAPTIVE_CLIENT_CAP as u64 {
        violations.push(format!(
            "heavy load: client windows peaked at {} instead of the cap {}",
            adaptive_high.client_window_peak, ADAPTIVE_CLIENT_CAP
        ));
    }
    violations
}

/// One row of the skewed sharded adaptive experiment (T-ADAPTIVE-SKEW): a
/// two-group range-partitioned deployment where almost all traffic lands in
/// one group, checking that the two sequencers' controllers converge
/// **independently**.
#[derive(Clone, Debug)]
pub struct AdaptiveSkewRow {
    /// Number of groups (2).
    pub groups: usize,
    /// Clients.
    pub clients: usize,
    /// Requests completed.
    pub requests: usize,
    /// Requests completed per group (router attribution).
    pub per_group_requests: Vec<u64>,
    /// Converged batch target per group (max over the group's servers — the
    /// sequencer carries the signal).
    pub per_group_batch_target: Vec<u64>,
    /// Peak effective `OrderMsg` batch per group.
    pub per_group_effective_batch: Vec<u64>,
    /// Controller raises per group.
    pub per_group_target_raises: Vec<u64>,
    /// Misrouted requests (must be 0).
    pub misroutes: u64,
    /// Whether the run completed with every group's propositions intact.
    pub consistent: bool,
}

/// Share of the skewed workload aimed at group 0 (the heavy group): 7 of 8
/// requests.
pub const SKEW_HEAVY_SHARE: usize = 8;

/// T-ADAPTIVE-SKEW: drives a 2-group range-partitioned deployment with
/// 7/8 of the traffic in group 0 and checks per-group convergence. Each
/// group's sequencer runs its own [`oar::adaptive::BatchController`] on its
/// own arrivals, and each client keeps one window controller per group, so
/// the heavy group converges to deep batches while the light one stays
/// (near-)unbatched.
pub fn adaptive_skew_experiment(
    clients: usize,
    requests_per_client: usize,
    seed: u64,
) -> AdaptiveSkewRow {
    let groups = 2;
    // Range partitioning over the sharded key pool: an even sample gives a
    // boundary near k32, so keys k00..k31 belong to group 0.
    let sample: Vec<String> = (0..SHARDED_KEY_SPACE).map(|i| format!("k{i:02}")).collect();
    let router = ShardRouter::range_from_keys(sample, groups);
    let config = ShardedConfig {
        num_groups: groups,
        servers_per_group: SHARDED_SERVERS_PER_GROUP,
        num_clients: clients,
        router,
        net: NetConfig::lan(),
        oar: OarConfig::adaptive(),
        seed,
        think_time: SimDuration::ZERO,
        client_pipeline: ADAPTIVE_CLIENT_CAP,
        adaptive_pipeline: true,
    };
    let mut cluster: ShardedCluster<KvMachine> =
        ShardedCluster::build(&config, KvMachine::new, |c| {
            (0..requests_per_client)
                .map(|i| {
                    // 7 of 8 requests hit the heavy half of the key space.
                    let key = if i % SKEW_HEAVY_SHARE == SKEW_HEAVY_SHARE - 1 {
                        format!("k{:02}", 32 + (c * 13 + i * 7) % 32)
                    } else {
                        format!("k{:02}", (c * 13 + i * 7) % 32)
                    };
                    if i % 4 == 3 {
                        KvCommand::Get { key }
                    } else {
                        KvCommand::Put {
                            key,
                            value: format!("c{c}-v{i}"),
                        }
                    }
                })
                .collect()
        });
    let done = cluster.run_to_completion(SimTime::from_secs(600));
    let consistent = done
        && cluster.check_per_group_consistency().is_ok()
        && cluster.check_external_consistency().is_ok();
    let mut per_group_requests = vec![0u64; groups];
    for done in cluster.completed_requests() {
        per_group_requests[done.group.index()] += 1;
    }
    AdaptiveSkewRow {
        groups,
        clients,
        requests: cluster.completed_requests().len(),
        per_group_requests,
        per_group_batch_target: (0..groups)
            .map(|g| cluster.max_group_stat(g, |st| st.batch_target))
            .collect(),
        per_group_effective_batch: (0..groups)
            .map(|g| cluster.max_group_stat(g, |st| st.effective_batch.peak()))
            .collect(),
        per_group_target_raises: (0..groups)
            .map(|g| cluster.sum_group_stats(g, |st| st.target_raises))
            .collect(),
        misroutes: cluster.total_misroutes(),
        consistent,
    }
}

/// Verifies the per-group independence gates of a T-ADAPTIVE-SKEW row;
/// returns every violation found (empty = pass).
pub fn check_adaptive_skew_bounds(
    row: &AdaptiveSkewRow,
    requests_per_client: usize,
) -> Vec<String> {
    let mut violations = Vec::new();
    let expected = (row.clients * requests_per_client) as u64;
    if !row.consistent {
        violations.push("skew run did not complete consistently".to_string());
    }
    if row.requests as u64 != expected {
        violations.push(format!(
            "skew run completed {} of {expected} requests",
            row.requests
        ));
    }
    if row.misroutes != 0 {
        violations.push(format!("{} misrouted requests (must be 0)", row.misroutes));
    }
    let heavy_req = row.per_group_requests.first().copied().unwrap_or(0);
    let light_req = row.per_group_requests.get(1).copied().unwrap_or(0);
    if heavy_req <= 3 * light_req {
        violations.push(format!(
            "workload not skewed enough: {heavy_req} vs {light_req} requests — \
             the independence gate would be vacuous"
        ));
    }
    let heavy_batch = row.per_group_effective_batch.first().copied().unwrap_or(0);
    let light_batch = row.per_group_effective_batch.get(1).copied().unwrap_or(0);
    if heavy_batch <= light_batch {
        violations.push(format!(
            "heavy group's peak batch ({heavy_batch}) does not exceed the \
             light group's ({light_batch}): controllers did not converge \
             independently"
        ));
    }
    let heavy_raises = row.per_group_target_raises.first().copied().unwrap_or(0);
    if heavy_raises == 0 {
        violations.push("heavy group's controller never ramped".to_string());
    }
    let light_target = row.per_group_batch_target.get(1).copied().unwrap_or(0);
    if light_target > 2 {
        violations.push(format!(
            "light group's target converged to {light_target}, expected to \
             stay near 1 under light load"
        ));
    }
    violations
}

/// One row of the parallel-apply benchmark (T-PARALLEL): one workload shape
/// executed with one worker count.
#[derive(Clone, Debug)]
pub struct ParallelRow {
    /// Workload shape: `disjoint` (pairwise non-conflicting writes) or
    /// `conflicting` (every write hits the same key).
    pub workload: String,
    /// Worker threads handed to `apply_batch` (1 = the serial baseline).
    pub workers: usize,
    /// Commands in the batch.
    pub commands: usize,
    /// Per-command CPU cost (FNV spin rounds).
    pub spin_rounds: u64,
    /// Per-command blocking cost (microseconds of sleep, modelling
    /// synchronous I/O in the apply stage).
    pub block_us: u64,
    /// Number of waves the conflict-graph scheduler planned.
    pub waves: usize,
    /// Size of the largest wave.
    pub max_wave: u64,
    /// Host wall-clock of one `apply_batch` call, milliseconds (minimum over
    /// the experiment's repeats).
    pub wall_ms: f64,
    /// Commands per second derived from the minimum wall-clock.
    pub ops_per_sec: f64,
    /// Whether every repeat produced responses and a final state identical
    /// to a plain serial `apply` of the same batch.
    pub matches_serial: bool,
}

/// Outcome of the cluster-level parallel-apply run (T-PARALLEL-CLUSTER): a
/// deployment with `with_parallel_apply` next to a serial twin on the same
/// seed.
#[derive(Clone, Debug)]
pub struct ParallelClusterRow {
    /// Number of replicas.
    pub servers: usize,
    /// Number of pipelined clients.
    pub clients: usize,
    /// Requests completed by the parallel deployment.
    pub requests: usize,
    /// Worker threads configured on the parallel deployment.
    pub workers: usize,
    /// Commands the scheduler executed in multi-command waves (size ≥ 2),
    /// summed over all servers — 0 would mean the conflict graph never
    /// exposed any concurrency.
    pub wave_commands: u64,
    /// Real wall-clock nanoseconds inside apply, parallel deployment.
    pub apply_ns: u64,
    /// Real wall-clock nanoseconds inside apply, serial twin.
    pub serial_apply_ns: u64,
    /// Whether every replica digest of the parallel run equals the serial
    /// twin's (bit-identical final state).
    pub digests_match: bool,
    /// Whether the completed responses (id, response, position, epoch) of
    /// the two runs are identical (bit-identical replies).
    pub responses_match: bool,
    /// Whether both runs completed with the propositions intact.
    pub consistent: bool,
}

/// Worker-pool size of the parallel-apply experiments and their CI gate.
pub const PARALLEL_WORKERS: usize = 4;

/// Per-command CPU spin of the T-PARALLEL rows: small but non-zero, so the
/// staged path demonstrably carries real compute.
pub const PARALLEL_SPIN_ROUNDS: u64 = 2_000;

/// Write-heavy multi-key batch for the apply benchmark. `disjoint` gives
/// every command its own key (every 8th a two-key `Multi`, still disjoint),
/// so the whole batch forms one wave; `conflicting` funnels every write
/// through one hot key, so every wave is a singleton.
fn parallel_apply_workload(kind: &str, commands: usize) -> Vec<KvCommand> {
    (0..commands)
        .map(|i| {
            if kind == "conflicting" {
                KvCommand::Put {
                    key: "hot".to_string(),
                    value: format!("v{i}"),
                }
            } else if i % 8 == 7 {
                KvCommand::Multi(vec![
                    KvCommand::Put {
                        key: format!("m{i}a"),
                        value: format!("v{i}a"),
                    },
                    KvCommand::Put {
                        key: format!("m{i}b"),
                        value: format!("v{i}b"),
                    },
                ])
            } else {
                KvCommand::Put {
                    key: format!("k{i}"),
                    value: format!("v{i}"),
                }
            }
        })
        .collect()
}

/// T-PARALLEL: wall-clock of `apply_batch` over a write-heavy multi-key
/// batch, serial (1 worker) vs the worker pool, on a pairwise-disjoint and a
/// fully-conflicting workload.
///
/// The per-command cost is [`CostlyMachine::with_blocking`]: `spin_rounds`
/// of CPU plus `block_us` of blocking sleep. The blocking component is what
/// the speedup gate rides on — it overlaps across workers even on a
/// single-core host, so the ≥1.8× bound of [`check_parallel_bounds`] holds
/// on minimal CI runners, where a pure CPU spin could not speed up at all.
/// Each row records the minimum wall-clock over `repeats` runs and checks
/// every run against a plain serial apply (bit-identical responses and
/// state).
pub fn parallel_apply_experiment(
    commands: usize,
    spin_rounds: u64,
    block_us: u64,
    repeats: usize,
) -> Vec<ParallelRow> {
    let mut rows = Vec::new();
    for kind in ["disjoint", "conflicting"] {
        let workload = parallel_apply_workload(kind, commands);
        let refs: Vec<&KvCommand> = workload.iter().collect();
        let waves = plan_waves(&refs);
        let max_wave = waves.iter().map(|w| w.len() as u64).max().unwrap_or(0);
        let mut reference = KvMachine::new();
        let expected: Vec<KvResponse> = refs.iter().map(|c| reference.apply(c).0).collect();
        for &workers in &[1usize, PARALLEL_WORKERS] {
            let mut wall_ms = f64::INFINITY;
            let mut matches_serial = true;
            for _ in 0..repeats.max(1) {
                let mut sm = CostlyMachine::with_blocking(KvMachine::new(), spin_rounds, block_us);
                let t0 = std::time::Instant::now();
                let out = sm.apply_batch(&refs, workers);
                wall_ms = wall_ms.min(t0.elapsed().as_secs_f64() * 1_000.0);
                let got: Vec<KvResponse> = out.results.into_iter().map(|(r, _)| r).collect();
                matches_serial &= got == expected && sm.inner() == &reference;
            }
            let secs = wall_ms / 1_000.0;
            rows.push(ParallelRow {
                workload: kind.to_string(),
                workers,
                commands,
                spin_rounds,
                block_us,
                waves: waves.len(),
                max_wave,
                wall_ms,
                ops_per_sec: if secs > 0.0 {
                    commands as f64 / secs
                } else {
                    0.0
                },
                matches_serial,
            });
        }
    }
    rows
}

/// Keys disjoint per client (so concurrent clients' writes schedule into
/// shared waves) with an every-8th write to one cross-client hot key (so
/// conflicting order still matters and a scheduling bug would corrupt the
/// digest).
fn parallel_cluster_workload(client: usize, requests: usize) -> Vec<KvCommand> {
    (0..requests)
        .map(|i| {
            if i % 8 == 7 {
                KvCommand::Put {
                    key: "hot".to_string(),
                    value: format!("c{client}-v{i}"),
                }
            } else {
                KvCommand::Put {
                    key: format!("c{client}-k{}", i % 4),
                    value: format!("c{client}-v{i}"),
                }
            }
        })
        .collect()
}

/// T-PARALLEL-CLUSTER: a full 3-replica deployment with
/// `with_parallel_apply(PARALLEL_WORKERS)` against a serial twin on the same
/// seed, workload and batching. Both must satisfy the consistency
/// propositions, and the parallel run's replica digests and completed
/// responses must be bit-identical to the twin's — parallel apply is an
/// execution strategy, never an observable protocol change.
pub fn parallel_cluster_experiment(
    clients: usize,
    requests_per_client: usize,
    seed: u64,
) -> ParallelClusterRow {
    let run = |workers: Option<usize>| {
        let mut builder = OarConfig::builder().max_batch(PIPELINE_DEPTH * clients);
        if let Some(w) = workers {
            builder = builder.with_parallel_apply(w);
        }
        let config = ClusterConfig {
            num_servers: 3,
            num_clients: clients,
            net: NetConfig::lan(),
            oar: builder.build(),
            seed,
            client_pipeline: PIPELINE_DEPTH,
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::build(&config, KvMachine::new, |c| {
            parallel_cluster_workload(c, requests_per_client)
        });
        let done = cluster.run_to_completion(SimTime::from_secs(600));
        (cluster, done)
    };
    let (parallel, parallel_done) = run(Some(PARALLEL_WORKERS));
    let (serial, serial_done) = run(None);
    let digests = |cluster: &Cluster<KvMachine>| -> Vec<u64> {
        cluster
            .servers
            .iter()
            .map(|&s| {
                cluster
                    .world
                    .process_ref::<OarServer<KvMachine>>(s)
                    .state_machine()
                    .digest()
            })
            .collect()
    };
    let responses = |cluster: &Cluster<KvMachine>| {
        let mut completed: Vec<_> = cluster
            .completed_requests()
            .iter()
            .map(|r| (r.id, r.response.clone(), r.position, r.epoch))
            .collect();
        completed.sort_by_key(|&(id, ..)| id);
        completed
    };
    let consistent = parallel_done
        && serial_done
        && parallel.check_replica_consistency().is_ok()
        && parallel.check_external_consistency().is_ok()
        && serial.check_replica_consistency().is_ok()
        && serial.check_external_consistency().is_ok();
    ParallelClusterRow {
        servers: 3,
        clients,
        requests: parallel.completed_requests().len(),
        workers: PARALLEL_WORKERS,
        wave_commands: parallel.total_parallel_wave_commands(),
        apply_ns: parallel.total_apply_ns(),
        serial_apply_ns: serial.total_apply_ns(),
        digests_match: digests(&parallel) == digests(&serial),
        responses_match: responses(&parallel) == responses(&serial),
        consistent,
    }
}

/// Verifies the T-PARALLEL gates; returns every violation found (empty =
/// pass). The CI `parallel-smoke` gate:
///
/// * every benchmark row is bit-identical to a serial apply of its batch;
/// * the scheduler's wave structure is the expected one — the disjoint
///   workload forms a single batch-wide wave, the conflicting one only
///   singletons;
/// * **disjoint speeds up**: ≥1.8× serial apply throughput at
///   [`PARALLEL_WORKERS`] workers;
/// * **conflicting stays at parity**: within ±10% of serial. Singleton
///   waves bypass the pool entirely and run the *identical* code path as
///   `workers = 1`, so parity is structural; the band only has to catch a
///   gross regression (e.g. singleton waves being routed through the pool,
///   which costs far more than 10%), and a wider band keeps the
///   sleep-based wall-clock comparison robust on loaded shared runners;
/// * the cluster run is consistent, actually executed multi-command waves,
///   and its digests and responses match the serial twin exactly.
pub fn check_parallel_bounds(rows: &[ParallelRow], cluster: &ParallelClusterRow) -> Vec<String> {
    let mut violations = Vec::new();
    for r in rows {
        if !r.matches_serial {
            violations.push(format!(
                "{} workload at {} workers diverged from serial apply",
                r.workload, r.workers
            ));
        }
    }
    let find = |workload: &str, workers: usize| {
        rows.iter()
            .find(|r| r.workload == workload && r.workers == workers)
    };
    match (find("disjoint", 1), find("disjoint", PARALLEL_WORKERS)) {
        (Some(serial), Some(parallel)) => {
            if parallel.waves != 1 || parallel.max_wave != parallel.commands as u64 {
                violations.push(format!(
                    "disjoint workload should form one batch-wide wave, got {} waves (max {})",
                    parallel.waves, parallel.max_wave
                ));
            }
            let speedup = parallel.ops_per_sec / serial.ops_per_sec;
            if speedup < 1.8 {
                violations.push(format!(
                    "disjoint speedup {speedup:.2}x at {PARALLEL_WORKERS} workers \
                     ({:.3} ms vs {:.3} ms serial), need >= 1.8x",
                    parallel.wall_ms, serial.wall_ms
                ));
            }
        }
        _ => violations.push("disjoint rows missing".to_string()),
    }
    match (
        find("conflicting", 1),
        find("conflicting", PARALLEL_WORKERS),
    ) {
        (Some(serial), Some(parallel)) => {
            if parallel.waves != parallel.commands || parallel.max_wave != 1 {
                violations.push(format!(
                    "conflicting workload should form only singleton waves, got {} waves (max {})",
                    parallel.waves, parallel.max_wave
                ));
            }
            let ratio = parallel.ops_per_sec / serial.ops_per_sec;
            if !(0.90..=1.10).contains(&ratio) {
                violations.push(format!(
                    "conflicting workload at {PARALLEL_WORKERS} workers runs at {ratio:.3}x \
                     serial ({:.3} ms vs {:.3} ms), need parity within 10%",
                    parallel.wall_ms, serial.wall_ms
                ));
            }
        }
        _ => violations.push("conflicting rows missing".to_string()),
    }
    if !cluster.consistent {
        violations.push("cluster run did not complete consistently".to_string());
    }
    if cluster.wave_commands == 0 {
        violations.push("cluster run never executed a multi-command wave".to_string());
    }
    if !cluster.digests_match {
        violations.push("parallel cluster digests differ from the serial twin".to_string());
    }
    if !cluster.responses_match {
        violations.push("parallel cluster responses differ from the serial twin".to_string());
    }
    violations
}

/// One row of the real-clock open-loop experiment (T-REALTIME).
#[derive(Clone, Debug)]
pub struct RealtimeRow {
    /// Number of replicas.
    pub servers: usize,
    /// Number of open-loop generators.
    pub clients: usize,
    /// Total offered load, requests per wall-clock second.
    pub offered_rate: f64,
    /// Requests submitted across all generators.
    pub submitted: usize,
    /// Requests completed (weighted quorum reached).
    pub requests: usize,
    /// Wall-clock duration of the whole run, milliseconds (spawn to stop).
    pub elapsed_ms: f64,
    /// Completed requests per wall-clock second, measured over the span from
    /// the first submission to the last completion.
    pub requests_per_second: f64,
    /// Client-observed latency summary (milliseconds, wall clock).
    pub latency_ms: Summary,
    /// Whether the run drained before the wall-clock cap.
    pub completed_run: bool,
    /// Whether the total-order / at-most-once / external-consistency
    /// propositions held on the post-run server states.
    pub consistent: bool,
    /// The first proposition violation, when `consistent` is false.
    pub consistency_error: Option<String>,
}

/// T-REALTIME: genuine wall-clock throughput and latency of the OAR group on
/// the `oar-rtnet` backend (one OS thread per process, real time, real
/// queues), under **open-loop** offered load.
///
/// The exact protocol code of the simulated experiments runs here — the
/// servers and the generator are written against the `Runtime` trait — so
/// this is the reproduction's reality check: the req/s and the latency tail
/// come from actual threads exchanging actual messages, not from the
/// simulator's latency model. Each generator offers one request every
/// `interarrival_us` µs on an absolute schedule (late timers are caught up
/// with a burst, keeping the offered rate honest), so queueing shows up in
/// the tail instead of throttling the load.
///
/// The failure detector runs with a widened timeout: on a loaded CI runner a
/// thread can stall past the simulator-tuned default, and this experiment
/// measures the failure-free path, not spurious fail-over.
pub fn realtime_experiment(
    servers: usize,
    clients: usize,
    requests_per_client: usize,
    interarrival_us: u64,
    seed: u64,
) -> RealtimeRow {
    let mut net: RtNet<oar::OarWire<KvCommand, KvResponse>> = RtNet::new(seed);
    let server_ids: Vec<ProcessId> = (0..servers).map(ProcessId::new).collect();
    let oar_config = OarConfig::builder()
        .fd_timeout(SimDuration::from_millis(500))
        .build();
    for &id in &server_ids {
        net.add_process(OarServer::new(
            id,
            server_ids.clone(),
            oar_config,
            KvMachine::default(),
        ));
    }
    let mut client_ids = Vec::new();
    for c in 0..clients {
        let client = OpenLoopClient::<KvMachine>::new(
            ProcessId::new(servers + c),
            server_ids.clone(),
            kv_workload(c, requests_per_client),
            SimDuration::from_micros(interarrival_us),
            oar::ClientConfig::default(),
        );
        client_ids
            .push(net.add_process_until(client, |cl: &OpenLoopClient<KvMachine>| cl.is_done()));
    }
    let report = net.run(RunOptions {
        max_wall: std::time::Duration::from_secs(60),
        grace: std::time::Duration::from_millis(300),
        poll: std::time::Duration::from_millis(5),
    });

    let mut latency = Samples::new();
    let mut submitted = 0;
    let mut completed = 0;
    let mut first_sent = SimTime::MAX;
    let mut last_done = SimTime::ZERO;
    let mut per_client: Vec<&[oar::CompletedRequest<KvResponse>]> = Vec::new();
    for &id in &client_ids {
        let client = report.process_ref::<OpenLoopClient<KvMachine>>(id);
        submitted += client.submitted();
        completed += client.completed().len();
        for done in client.completed() {
            latency.record_duration(done.latency());
            first_sent = first_sent.min(done.sent_at);
            last_done = last_done.max(done.completed_at);
        }
        per_client.push(client.completed());
    }
    let alive: Vec<&OarServer<KvMachine>> = server_ids
        .iter()
        .map(|&id| report.process_ref::<OarServer<KvMachine>>(id))
        .filter(|s| !s.is_recovering())
        .collect();
    let consistency = oar::check_server_consistency(&alive)
        .and_then(|()| oar::check_external_consistency(&alive, &per_client));
    let span_s = if last_done > first_sent {
        (last_done.as_micros() - first_sent.as_micros()) as f64 / 1e6
    } else {
        0.0
    };
    RealtimeRow {
        servers,
        clients,
        offered_rate: clients as f64 * 1e6 / interarrival_us as f64,
        submitted,
        requests: completed,
        elapsed_ms: report.elapsed.as_secs_f64() * 1_000.0,
        requests_per_second: if span_s > 0.0 {
            completed as f64 / span_s
        } else {
            0.0
        },
        latency_ms: latency.summary(),
        completed_run: report.completed,
        consistent: consistency.is_ok(),
        consistency_error: consistency.err(),
    }
}

/// Verifies the gates of a realtime row; returns every violation found
/// (empty = pass). Used by the CI realtime-smoke job: the open-loop run must
/// drain, report a positive wall-clock req/s, and keep the paper's
/// propositions on real threads.
pub fn check_realtime_bounds(
    row: &RealtimeRow,
    clients: usize,
    requests_per_client: usize,
) -> Vec<String> {
    let mut violations = Vec::new();
    if !row.completed_run {
        violations.push(format!(
            "run hit the wall-clock cap with {}/{} requests completed",
            row.requests,
            clients * requests_per_client
        ));
    }
    if row.requests != clients * requests_per_client {
        violations.push(format!(
            "expected {} completed requests, got {}",
            clients * requests_per_client,
            row.requests
        ));
    }
    if row.requests_per_second <= 0.0 {
        violations.push("measured req/s is not positive".to_string());
    }
    if let Some(err) = &row.consistency_error {
        violations.push(format!("propositions violated on rtnet: {err}"));
    }
    violations
}

/// One model-checking run: a scenario explored under one reduction setting,
/// with the explored/pruned counters the CI gate reads.
pub struct McRow {
    /// Row label (`clean-1x2`, `handoff-bug`, …).
    pub label: String,
    /// Scenario name as the `oar-mc` crate reports it.
    pub scenario: String,
    /// Partial-order reduction (sleep sets) on?
    pub por: bool,
    /// State deduplication on?
    pub dedup: bool,
    /// Distinct states visited.
    pub states_explored: u64,
    /// Transitions taken.
    pub transitions: u64,
    /// Transitions pruned by sleep sets.
    pub pruned_sleep: u64,
    /// States pruned as already visited.
    pub pruned_dedup: u64,
    /// Terminal states satisfying the goal (workload done).
    pub goal_states: u64,
    /// Terminal states violating termination.
    pub deadlocks: u64,
    /// Did the run hit its state bound?
    pub truncated: bool,
    /// Property violations found.
    pub violations: usize,
    /// Kind of the first violation (empty when none).
    pub violation_kind: String,
    /// For rows with a violation: does the counterexample trace replay on a
    /// plain (checker-free) world and reproduce the failure there? `true`
    /// for rows without violations.
    pub trace_replays: bool,
    /// Wall-clock time of the exploration (milliseconds).
    pub wall_ms: f64,
}

/// Runs one scenario under the given reduction settings and re-validates any
/// counterexample on a plain world: the trace is replayed step by step
/// (key-directed dispatch, no checker), the simulator then runs free to the
/// horizon, and the failure must reproduce — a safety violation as a failed
/// invariant, a deadlock as an unfinished workload.
fn mc_run(label: &str, scenario: &oar_mc::oar::OarScenario, por: bool, dedup: bool) -> McRow {
    use oar_mc::oar::{oar_invariant, HORIZON};

    let start = std::time::Instant::now();
    let report = scenario.run_with(por, dedup).expect("world must fork");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let first = report.violations.first();
    let trace_replays = match first {
        None => true,
        Some(violation) => {
            let mut world = scenario.world();
            let replayed =
                oar_mc::replay_trace(&mut world, &scenario.choices, &violation.trace, HORIZON);
            replayed
                && if violation.kind == "invariant" {
                    // A safety violation reproduces at the replayed state
                    // itself (running further may repair an *optimistic*
                    // divergence — that is what Opt-undeliver is for).
                    let invariant = oar_invariant(scenario.servers(), scenario.clients());
                    invariant(&world).is_err()
                } else {
                    // A deadlock reproduces as stuckness: let the plain
                    // simulator run free — the workload must not finish.
                    world.run_until(HORIZON);
                    !scenario.clients().iter().all(|&c| {
                        world
                            .process_ref::<oar::OarClient<oar::state_machine::CounterMachine>>(c)
                            .is_done()
                    })
                }
        }
    };
    McRow {
        label: label.to_string(),
        scenario: scenario.name.to_string(),
        por,
        dedup,
        states_explored: report.states_explored,
        transitions: report.transitions,
        pruned_sleep: report.pruned_sleep,
        pruned_dedup: report.pruned_dedup,
        goal_states: report.goal_states,
        deadlocks: report.deadlocks,
        truncated: report.truncated,
        violations: report.violations.len(),
        violation_kind: first.map(|v| v.kind.clone()).unwrap_or_default(),
        trace_replays,
        wall_ms,
    }
}

/// T-MC: bounded model checking of the OAR protocol over simnet.
///
/// Four row families (§ "Model checking" in `docs/ARCHITECTURE.md`):
///
/// * `clean-1x2` — exhaustive exploration of the failure-free 3-replica /
///   2-request configuration; every path must satisfy the four predicates
///   (total order, at-most-once, external consistency, termination).
/// * `clean-1x1-por` / `clean-1x1-raw` — the partial-order-reduction gate:
///   sleep sets alone (no dedup) explore the 1-request space exhaustively,
///   while the raw arm (no reduction at all) is capped at twice the reduced
///   state count plus one and must hit that cap — proving POR prunes more
///   than half of the raw interleavings.
/// * `handoff-bug` / `rejoin-bug` — the two historical bugs, re-found from
///   their test-only toggles; each counterexample must replay on a plain
///   world and reproduce the failure outside the checker.
/// * `handoff-fixed` / `rejoin-fixed` — the same fault scenarios with the
///   fixes active: zero violations within the state budget.
/// * `membership-change` — crash of one replica plus its online replacement
///   through a `Replace` fence: every path settles the fence, joins the
///   spare through the held-catch-up path and terminates.
/// * `partial-multicast` / `partial-multicast-crash` — a request that
///   reaches one non-sequencer only (its client died mid-multicast), with
///   tick stretches and, in the second arm, a sequencer crash as choices:
///   every path delivers it at every live replica through the push/pull
///   repairs. Both spaces are swept exhaustively.
pub fn mc_experiment(smoke: bool) -> Vec<McRow> {
    use oar_mc::oar::OarScenario;

    let mut rows = Vec::new();

    // Exhaustive failure-free gate.
    rows.push(mc_run("clean-1x2", &OarScenario::clean(1, 2), true, true));

    // POR ratio gate: reduced (sleep sets only) vs raw (nothing), the raw
    // arm bounded just above twice the reduced count.
    let reduced = mc_run("clean-1x1-por", &OarScenario::clean(1, 1), true, false);
    let mut raw_scenario = OarScenario::clean(1, 1);
    raw_scenario.mc.max_states = 2 * reduced.states_explored + 1;
    rows.push(reduced);
    rows.push(mc_run("clean-1x1-raw", &raw_scenario, false, false));

    // Historical bugs re-found, counterexamples replayed.
    rows.push(mc_run(
        "handoff-bug",
        &OarScenario::sequencer_handoff(true),
        true,
        true,
    ));
    rows.push(mc_run(
        "rejoin-bug",
        &OarScenario::mid_epoch_rejoin(true),
        true,
        true,
    ));

    // Control arms: the fixed protocol under the same faults. The full
    // spaces are large, so the smoke run caps them; the full run uses a
    // budget an order of magnitude wider.
    let cap = if smoke { 200_000 } else { 2_000_000 };
    let mut handoff = OarScenario::sequencer_handoff(false);
    handoff.mc.max_states = cap;
    rows.push(mc_run("handoff-fixed", &handoff, true, true));
    let mut rejoin = OarScenario::mid_epoch_rejoin(false);
    rejoin.mc.max_states = cap;
    rows.push(mc_run("rejoin-fixed", &rejoin, true, true));
    let mut membership = OarScenario::membership_change();
    membership.mc.max_states = cap;
    rows.push(mc_run("membership-change", &membership, true, true));
    for (label, crash) in [
        ("partial-multicast", false),
        ("partial-multicast-crash", true),
    ] {
        let scenario = OarScenario::partial_multicast(crash);
        rows.push(mc_run(label, &scenario, true, true));
    }

    rows
}

/// Verifies the gates of the model-checking rows; returns every violation
/// found (empty = pass). Used by the CI `mc-smoke` job.
pub fn check_mc_bounds(rows: &[McRow]) -> Vec<String> {
    let mut violations = Vec::new();
    let find = |label: &str| rows.iter().find(|r| r.label == label);

    for row in rows {
        if row.states_explored == 0 {
            violations.push(format!("{}: explored no states", row.label));
        }
        let expect_bug = row.label.ends_with("-bug");
        if expect_bug {
            if row.violations == 0 {
                violations.push(format!(
                    "{}: the historical bug was not re-found",
                    row.label
                ));
            } else if !row.trace_replays {
                violations.push(format!(
                    "{}: counterexample trace does not reproduce on a plain world",
                    row.label
                ));
            }
        } else if row.violations > 0 {
            violations.push(format!(
                "{}: {} unexpected violation(s), first kind {}",
                row.label, row.violations, row.violation_kind
            ));
        }
    }

    if let Some(clean) = find("clean-1x2") {
        if clean.truncated {
            violations.push("clean-1x2: exploration did not finish (truncated)".into());
        }
        if clean.goal_states == 0 {
            violations.push("clean-1x2: no path reached the termination goal".into());
        }
        if clean.deadlocks > 0 {
            violations.push(format!("clean-1x2: {} deadlock(s)", clean.deadlocks));
        }
    } else {
        violations.push("clean-1x2 row missing".into());
    }

    match (find("clean-1x1-por"), find("clean-1x1-raw")) {
        (Some(reduced), Some(raw)) => {
            if reduced.truncated {
                violations.push("clean-1x1-por: reduced exploration truncated".into());
            }
            if reduced.pruned_sleep == 0 {
                violations.push("clean-1x1-por: sleep sets pruned nothing".into());
            }
            if !raw.truncated {
                violations.push(format!(
                    "POR gate: raw exploration finished within twice the reduced \
                     state count ({} raw vs {} reduced) — pruning below 50%",
                    raw.states_explored, reduced.states_explored
                ));
            }
        }
        _ => violations.push("POR gate rows missing".into()),
    }

    match find("handoff-bug") {
        Some(row) if row.violations > 0 && row.violation_kind != "deadlock" => {
            violations.push(format!(
                "handoff-bug: expected a deadlock (the phase-2 stall), found {}",
                row.violation_kind
            ));
        }
        _ => {}
    }
    match find("rejoin-bug") {
        Some(row) if row.violations > 0 && row.violation_kind != "invariant" => {
            violations.push(format!(
                "rejoin-bug: expected a safety violation (divergence), found {}",
                row.violation_kind
            ));
        }
        _ => {}
    }
    match find("membership-change") {
        Some(row) => {
            if row.deadlocks > 0 {
                violations.push(format!(
                    "membership-change: {} deadlock(s) — the fence wedged the epoch \
                     close or stranded the replacement",
                    row.deadlocks
                ));
            }
            if row.goal_states == 0 {
                violations.push("membership-change: no path reached the termination goal".into());
            }
        }
        None => violations.push("membership-change row missing".into()),
    }
    for label in ["partial-multicast", "partial-multicast-crash"] {
        match find(label) {
            Some(row) => {
                if row.deadlocks > 0 {
                    violations.push(format!(
                        "{label}: {} deadlock(s) — a request that reached one replica \
                         was never delivered at the others",
                        row.deadlocks
                    ));
                }
                if row.goal_states == 0 {
                    violations.push(format!("{label}: no path delivered the request"));
                }
                if row.truncated {
                    violations.push(format!("{label}: exploration did not finish"));
                }
            }
            None => violations.push(format!("{label} row missing")),
        }
    }
    violations
}

/// One row of the reconfiguration experiment (T-RECONFIG): one of the three
/// scenarios — online replica replacement, key-range migration under
/// traffic, Merkle anti-entropy heal — with the counters its gate bounds.
/// Fields that a scenario does not exercise stay zero.
#[derive(Clone, Debug)]
pub struct ReconfigRow {
    /// Scenario label: `replace`, `migrate` or `anti-entropy`.
    pub scenario: String,
    /// Requests completed by the clients.
    pub requests: usize,
    /// Whether the workload drained within the deadline.
    pub completed_run: bool,
    /// Whether every consistency proposition held at quiesce.
    pub consistent: bool,
    /// Settled reconfiguration fences applied across all servers.
    pub reconfigs_applied: u64,
    /// Whether the replacement replica finished its catch-up (replace).
    pub rejoined: bool,
    /// `CatchUpReply` transfers served (replace; bounded — no retry storm).
    pub catch_up_replies: u64,
    /// Requests door-dropped and redirected for stale routing (migrate).
    pub redirected: u64,
    /// `MigrateState` transfer wires (migrate; bounded by s²).
    pub migrate_state_wires: u64,
    /// Replies a client adopted twice for one request id (migrate; must be 0).
    pub duplicates: u64,
    /// Anti-entropy root probes sent (anti-entropy).
    pub sync_probes: u64,
    /// Merkle descent wires, requests + replies (anti-entropy; O(log n)).
    pub sync_node_wires: u64,
    /// Divergent keys healed by majority vote (anti-entropy).
    pub sync_repairs: u64,
    /// Wall-clock of the scenario in milliseconds.
    pub wall_ms: f64,
}

/// T-RECONFIG, part 1: replace a crashed replica online, then crash a second
/// one — the fence settles conservatively, the replacement joins over the
/// `CatchUp*` wires and restores the fault budget, and the workload still
/// drains to the last request.
fn reconfig_replace_scenario(per_client: usize, seed: u64) -> ReconfigRow {
    use oar::state_machine::CounterCommand;
    let start = std::time::Instant::now();
    let clients = 2usize;
    let config = ClusterConfig {
        num_servers: 3,
        num_clients: clients,
        net: NetConfig::constant(SimDuration::from_micros(150)),
        oar: OarConfig {
            epoch_cut_after: Some(4),
            snapshot_every: Some(2),
            ..OarConfig::with_fd_timeout(SimDuration::from_millis(20))
        },
        client_pipeline: 4,
        seed,
        ..ClusterConfig::default()
    };
    let mut cluster: Cluster<CounterMachine> =
        Cluster::build(&config, CounterMachine::default, |c| {
            (0..per_client)
                .map(|i| CounterCommand::Add((c * 31 + i) as i64 % 11 + 1))
                .collect()
        });
    let old = cluster.servers[2];
    cluster.world.schedule_crash(old, SimTime::from_millis(2));
    cluster.world.run_until(SimTime::from_millis(4));
    let new = cluster.inject_replace(2, CounterCommand::Add(0), CounterMachine::default);
    // Wait for the fence to settle and the replacement to catch up, then
    // spend the restored fault budget on a second crash.
    let fence_deadline = SimTime::from_secs(5);
    loop {
        let step = cluster.world.now() + SimDuration::from_millis(5);
        cluster.world.run_until(step);
        let fenced = cluster.server(0).members() == [cluster.servers[0], cluster.servers[1], new];
        if (fenced && !cluster.server(2).is_recovering()) || cluster.world.now() >= fence_deadline {
            break;
        }
    }
    let rejoined = !cluster.server(2).is_recovering();
    cluster.world.crash_now(cluster.servers[1]);
    let done = cluster.run_to_completion(SimTime::from_secs(120));
    let consistent = done
        && cluster.check_replica_consistency().is_ok()
        && cluster.check_external_consistency().is_ok();
    ReconfigRow {
        scenario: "replace".to_string(),
        requests: cluster.completed_requests().len(),
        completed_run: done,
        consistent,
        reconfigs_applied: cluster.total_reconfigs_applied(),
        rejoined,
        catch_up_replies: cluster.total_catch_up_replies(),
        redirected: 0,
        migrate_state_wires: 0,
        duplicates: 0,
        sync_probes: 0,
        sync_node_wires: 0,
        sync_repairs: 0,
        wall_ms: start.elapsed().as_secs_f64() * 1_000.0,
    }
}

/// T-RECONFIG, part 2: migrate a key range between two groups while clients
/// hammer it — zero lost or duplicated replies, bounded `MigrateState`
/// transfer wires, stale traffic counted and redirected.
fn reconfig_migrate_scenario(per_client: usize, seed: u64) -> ReconfigRow {
    use oar::shard::KeyRange;
    let start = std::time::Instant::now();
    let clients = 3usize;
    let config = ShardedConfig {
        num_groups: 2,
        servers_per_group: 3,
        num_clients: clients,
        router: ShardRouter::range(vec!["m".into()]),
        net: NetConfig::lan(),
        oar: OarConfig::with_fd_timeout(SimDuration::from_millis(25)),
        seed,
        think_time: SimDuration::ZERO,
        client_pipeline: 2,
        adaptive_pipeline: false,
    };
    let mut cluster: ShardedCluster<KvMachine> =
        ShardedCluster::build(&config, KvMachine::new, |c| {
            (0..per_client)
                .map(|i| {
                    let key = if i % 2 == 0 {
                        format!("a{:02}", (c * 7 + i) % 24)
                    } else {
                        format!("n{:02}", (c * 7 + i) % 24)
                    };
                    if i % 5 == 4 {
                        KvCommand::Get { key }
                    } else {
                        KvCommand::Put {
                            key,
                            value: format!("c{c}i{i}"),
                        }
                    }
                })
                .collect()
        });
    cluster.world.run_until(SimTime::from_millis(2));
    let range = KeyRange::new("a00", "a12");
    cluster.inject_migrate(range, 0, 1, KvCommand::Get { key: "zz".into() });
    let done = cluster.run_to_completion(SimTime::from_secs(60));
    let settle = cluster.world.now() + SimDuration::from_millis(50);
    cluster.world.run_until(settle);
    // Lost or duplicated replies: a client that adopted two replies under
    // one request id duplicates; one that adopted fewer than its workload
    // lost (the latter also fails `completed_run`).
    let mut duplicates = 0u64;
    let mut requests = 0usize;
    for c in 0..clients {
        let completed = cluster.client(c).completed();
        requests += completed.len();
        let mut ids: Vec<_> = completed.iter().map(|d| d.request.id).collect();
        ids.sort();
        let unique = {
            ids.dedup();
            ids.len()
        };
        duplicates += (completed.len() - unique) as u64;
    }
    let consistent = done
        && cluster.check_per_group_consistency().is_ok()
        && cluster.check_external_consistency().is_ok()
        && cluster.total_misroutes() == 0;
    ReconfigRow {
        scenario: "migrate".to_string(),
        requests,
        completed_run: done,
        consistent,
        reconfigs_applied: cluster.total_reconfigs_applied(),
        rejoined: true,
        catch_up_replies: 0,
        redirected: cluster.total_redirected(),
        migrate_state_wires: cluster.total_migrate_state_wires(),
        duplicates,
        sync_probes: 0,
        sync_node_wires: 0,
        sync_repairs: 0,
        wall_ms: start.elapsed().as_secs_f64() * 1_000.0,
    }
}

/// T-RECONFIG, part 3: inject a divergent settled value into one replica and
/// let the Merkle anti-entropy loop localise and heal it — the descent cost
/// must stay O(log n) in the key count.
fn reconfig_anti_entropy_scenario(per_client: usize, seed: u64) -> ReconfigRow {
    let start = std::time::Instant::now();
    let clients = 2usize;
    let config = ClusterConfig {
        num_servers: 3,
        num_clients: clients,
        net: NetConfig::lan(),
        oar: OarConfig {
            anti_entropy: true,
            ..OarConfig::with_fd_timeout(SimDuration::from_millis(25))
        },
        seed,
        ..ClusterConfig::default()
    };
    let mut cluster: Cluster<KvMachine> = Cluster::build(&config, KvMachine::new, |c| {
        (0..per_client)
            .map(|i| KvCommand::Put {
                key: format!("k{:02}", (c * 11 + i * 3) % 24),
                value: format!("c{c}i{i}"),
            })
            .collect()
    });
    let done = cluster.run_to_completion(SimTime::from_secs(30));
    let settle = cluster.world.now() + SimDuration::from_millis(100);
    cluster.world.run_until(settle);
    cluster.inject_divergence(1, "k05", Some("corrupted"));
    let heal = cluster.world.now() + SimDuration::from_millis(200);
    cluster.world.run_until(heal);
    let consistent = done
        && cluster.check_replica_consistency().is_ok()
        && cluster.check_external_consistency().is_ok();
    ReconfigRow {
        scenario: "anti-entropy".to_string(),
        requests: cluster.completed_requests().len(),
        completed_run: done,
        consistent,
        reconfigs_applied: 0,
        rejoined: true,
        catch_up_replies: 0,
        redirected: 0,
        migrate_state_wires: 0,
        duplicates: 0,
        sync_probes: cluster.total_sync_probes(),
        sync_node_wires: cluster.total_sync_node_wires(),
        sync_repairs: cluster.total_sync_repairs(),
        wall_ms: start.elapsed().as_secs_f64() * 1_000.0,
    }
}

/// T-RECONFIG: membership reconfiguration, online shard rebalancing and
/// Merkle anti-entropy (§ "Reconfiguration & anti-entropy" in
/// `docs/ARCHITECTURE.md`). Three rows, one per scenario;
/// [`check_reconfig_bounds`] turns them into the CI verdict.
pub fn reconfig_experiment(per_client: usize, seed: u64) -> Vec<ReconfigRow> {
    vec![
        reconfig_replace_scenario(per_client, seed),
        reconfig_migrate_scenario(per_client, seed),
        reconfig_anti_entropy_scenario(per_client / 3, seed),
    ]
}

/// Verifies the gates of the reconfiguration rows; returns every violation
/// found (empty = pass). Used by the CI `reconfig-smoke` job.
pub fn check_reconfig_bounds(rows: &[ReconfigRow], per_client: usize) -> Vec<String> {
    let mut violations = Vec::new();
    let find = |name: &str| rows.iter().find(|r| r.scenario == name);

    for row in rows {
        if !row.completed_run {
            violations.push(format!("{}: workload did not drain", row.scenario));
        }
        if !row.consistent {
            violations.push(format!("{}: consistency propositions failed", row.scenario));
        }
    }

    match find("replace") {
        Some(row) => {
            if row.requests != 2 * per_client {
                violations.push(format!(
                    "replace: completed {} of {} requests across the replacement \
                     and the further crash",
                    row.requests,
                    2 * per_client
                ));
            }
            if !row.rejoined {
                violations.push("replace: replacement still mid-catch-up".into());
            }
            if row.reconfigs_applied < 2 {
                violations.push(format!(
                    "replace: only {} fence applications (both survivors must apply)",
                    row.reconfigs_applied
                ));
            }
            if row.catch_up_replies > 8 {
                violations.push(format!(
                    "replace: {} CatchUpReply transfers for one replacement \
                     (retry storm?)",
                    row.catch_up_replies
                ));
            }
        }
        None => violations.push("replace row missing".into()),
    }

    match find("migrate") {
        Some(row) => {
            if row.requests != 3 * per_client {
                violations.push(format!(
                    "migrate: completed {} of {} requests across the migration",
                    row.requests,
                    3 * per_client
                ));
            }
            if row.duplicates > 0 {
                violations.push(format!(
                    "migrate: {} duplicated replies (at-most-once violated)",
                    row.duplicates
                ));
            }
            if row.redirected == 0 {
                violations.push("migrate: migration under traffic redirected nothing".into());
            }
            // Each donor replica ships the settled range to each recipient
            // member at most once: s² wires for s = 3.
            if row.migrate_state_wires > 9 {
                violations.push(format!(
                    "migrate: {} MigrateState wires exceed the s² bound 9",
                    row.migrate_state_wires
                ));
            }
        }
        None => violations.push("migrate row missing".into()),
    }

    match find("anti-entropy") {
        Some(row) => {
            if row.sync_probes == 0 {
                violations.push("anti-entropy: probes never ran".into());
            }
            if row.sync_repairs == 0 {
                violations.push("anti-entropy: injected divergence never healed".into());
            }
            // 24 distinct keys pad to 32 leaves (depth 5); each divergent
            // probe costs one root node plus at most 2 wires per level, and
            // a handful of probes race before the heal lands.
            let depth = 24u64.next_power_of_two().trailing_zeros() as u64;
            let bound = 12 * (2 * depth + 2);
            if row.sync_node_wires > bound {
                violations.push(format!(
                    "anti-entropy: descent cost {} exceeds the O(log n) bound {bound}",
                    row.sync_node_wires
                ));
            }
            if row.sync_node_wires < depth {
                violations.push(format!(
                    "anti-entropy: {} descent wires — the heal never walked the tree",
                    row.sync_node_wires
                ));
            }
        }
        None => violations.push("anti-entropy row missing".into()),
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_shape_matches_paper_claims() {
        let rows = latency_experiment(&[3], 30, 3);
        let mean = |protocol: &str| {
            rows.iter()
                .find(|r| r.protocol == protocol)
                .map(|r| r.latency_ms.mean)
                .expect("row present")
        };
        let oar = mean("oar");
        let seq = mean("fixed-sequencer");
        let ct = mean("ct-abcast");
        // OAR tracks the sequencer baseline within a factor of two and beats
        // the consensus-based broadcast.
        assert!(
            oar < ct,
            "OAR ({oar:.3} ms) should beat CT broadcast ({ct:.3} ms)"
        );
        assert!(
            oar < seq * 2.0,
            "OAR ({oar:.3} ms) should track the sequencer ({seq:.3} ms)"
        );
    }

    #[test]
    fn undo_rate_is_zero_without_partition() {
        let rows = undo_experiment(5);
        let failure_free = rows.iter().find(|r| r.scenario == "failure-free").unwrap();
        assert_eq!(failure_free.opt_undeliveries, 0);
        assert!(failure_free.consistent);
        let crash = rows
            .iter()
            .find(|r| r.scenario == "sequencer-crash")
            .unwrap();
        assert_eq!(
            crash.opt_undeliveries, 0,
            "a plain crash never forces undeliveries"
        );
        assert!(crash.consistent);
        let partition = rows
            .iter()
            .find(|r| r.scenario == "crash+minority-partition")
            .unwrap();
        assert!(partition.consistent);
        assert!(
            partition.undo_rate < 0.5,
            "undo stays rare even under the adversarial scenario"
        );
    }

    #[test]
    fn batched_sequencer_amortises_order_messages() {
        let rows = throughput_experiment(3, &[4], 25, 7);
        let row = |protocol: &str| rows.iter().find(|r| r.protocol == protocol).expect("row");
        let plain = row("oar");
        let batched = row("oar-batched");
        // Unbatched: one OrderMsg per request (modulo epoch boundaries).
        assert!(plain.order_messages_sent >= plain.requests as u64 * 9 / 10);
        // Batched: the ordering broadcast is amortised across requests.
        assert!(
            batched.order_messages_sent < batched.requests as u64,
            "batching should send fewer OrderMsgs ({}) than requests ({})",
            batched.order_messages_sent,
            batched.requests
        );
        // Both variants complete the full workload.
        assert_eq!(plain.requests, 100);
        assert_eq!(batched.requests, 100);
    }

    #[test]
    fn pipelined_clients_amortise_reply_messages() {
        let rows = throughput_experiment(3, &[4], 24, 7);
        let row = |protocol: &str| rows.iter().find(|r| r.protocol == protocol).expect("row");
        let plain = row("oar");
        let pipelined = row("oar-pipelined");
        // Every variant answers every request at every server.
        assert_eq!(plain.replies_sent, 3 * 96);
        assert_eq!(pipelined.replies_sent, 3 * 96);
        // Closed-loop: one ReplyBatch wire per request per server.
        assert_eq!(plain.reply_messages_sent, plain.replies_sent);
        // Pipelined + window-batched: a client's replies coalesce per
        // in-flight window. The acceptance ceiling is servers × clients ×
        // ceil(requests / PIPELINE_DEPTH), with 2x slack for partially
        // filled batches at epoch boundaries.
        let per_client = 24u64.div_ceil(PIPELINE_DEPTH as u64);
        let ceiling = 2 * 3 * 4 * per_client;
        assert!(
            pipelined.reply_messages_sent <= ceiling,
            "pipelined reply wires {} exceed the amortisation ceiling {ceiling}",
            pipelined.reply_messages_sent
        );
        assert!(
            pipelined.reply_messages_sent < plain.reply_messages_sent / 2,
            "reply batching should cut the wire count at least in half \
             ({} vs {})",
            pipelined.reply_messages_sent,
            plain.reply_messages_sent
        );
    }

    #[test]
    fn soak_bounds_hold_on_a_small_run() {
        let row = soak_experiment(4, 250, 11);
        assert!(row.consistent);
        assert_eq!(row.requests, 1000);
        assert!(row.epochs_per_server > 2.0, "epoch cuts must close epochs");
        assert!(row.payloads_pruned > 0, "the watermark GC must prune");
        let violations = check_soak_bounds(&row, 250);
        assert!(violations.is_empty(), "soak violations: {violations:?}");
        // The bound is about growth: peak payload memory stays far below the
        // total request count.
        assert!(
            row.peak_payloads < 1000 / 2,
            "peak payloads {} should be bounded by the epoch window, not the \
             workload size",
            row.peak_payloads
        );
    }

    #[test]
    fn sharded_throughput_scales_with_group_count() {
        let rows = sharded_experiment(&[1, 4], 2, 20, 9);
        let violations = check_sharded_bounds(&rows, 2, 20);
        assert!(violations.is_empty(), "sharded violations: {violations:?}");
        let row4 = rows.iter().find(|r| r.groups == 4).unwrap();
        assert_eq!(row4.requests, 4 * 2 * 20);
        assert_eq!(row4.misroutes, 0);
        // Every group ran its own sequencer: per-group ordering traffic is
        // non-zero wherever keys landed (the 64-key pool covers all groups).
        assert!(row4.per_group_order_messages.iter().all(|&o| o > 0));
        assert!(row4.per_group_wire_sent.iter().all(|&s| s > 0));
        assert_eq!(row4.per_group_reply_messages.len(), 4);
    }

    #[test]
    fn soak_tracks_seen_set_aging() {
        let row = soak_experiment(2, 120, 13);
        assert!(row.consistent);
        // Only PhaseII broadcasts enter a duplicate-suppression set, and
        // they are aged out with the payloads: the peak is a few epochs'
        // worth of ids, nowhere near the request count, and the bound check
        // accepts the run.
        assert!(row.peak_seen > 0);
        assert!(
            row.peak_seen < 16,
            "peak seen {} should count unacknowledged epochs, not requests",
            row.peak_seen
        );
        assert!(check_soak_bounds(&row, 120).is_empty());
    }

    #[test]
    fn txn_fastpath_is_wire_identical_and_multi_group_commits_are_atomic() {
        let rows = txn_experiment(&[1, 2], 2, 8, 21);
        let violations = check_txn_bounds(&rows, 2, 8);
        assert!(violations.is_empty(), "txn violations: {violations:?}");
        let row1 = rows.iter().find(|r| r.groups == 1).unwrap();
        // One group: even the spanning workload collapses onto the fast
        // path, so no envelope ever travels.
        assert_eq!(row1.txn_prepares, 0);
        assert_eq!(row1.multi_group_txns, 0);
        let row2 = rows.iter().find(|r| r.groups == 2).unwrap();
        assert!(row2.multi_group_txns > 0, "the workload must span groups");
        assert_eq!(row2.fastpath_wires_txn, row2.fastpath_wires_plain);
        assert!(row2.mean_commit_latency_ms > 0.0);
    }

    #[test]
    fn parallel_apply_rows_stay_bit_identical_to_serial() {
        // Zero blocking cost: this asserts scheduling structure and
        // bit-identical execution only — the wall-clock gates live in the
        // harness (`parallel` / `parallel-smoke`), where timing variance
        // cannot flake `cargo test`.
        let rows = parallel_apply_experiment(24, 100, 0, 1);
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.matches_serial));
        let disjoint = rows
            .iter()
            .find(|r| r.workload == "disjoint" && r.workers == PARALLEL_WORKERS)
            .unwrap();
        assert_eq!(disjoint.waves, 1);
        assert_eq!(disjoint.max_wave, 24);
        let conflicting = rows
            .iter()
            .find(|r| r.workload == "conflicting" && r.workers == PARALLEL_WORKERS)
            .unwrap();
        assert_eq!(conflicting.waves, 24);
        assert_eq!(conflicting.max_wave, 1);
    }

    #[test]
    fn parallel_cluster_twin_runs_agree() {
        let row = parallel_cluster_experiment(2, 16, 7);
        assert!(row.consistent);
        assert_eq!(row.requests, 2 * 16);
        assert!(row.digests_match, "parallel digests must equal the twin's");
        assert!(row.responses_match, "replies must be bit-identical");
        assert!(
            row.wave_commands > 0,
            "disjoint per-client keys must schedule multi-command waves"
        );
        assert!(row.apply_ns > 0 && row.serial_apply_ns > 0);
    }

    #[test]
    fn gc_ablation_runs_more_epochs_when_cutting() {
        let rows = gc_experiment(&[None, Some(5)], 20, 4);
        let never = rows.iter().find(|r| r.cut_after.is_none()).unwrap();
        let often = rows.iter().find(|r| r.cut_after == Some(5)).unwrap();
        assert!(never.consistent && often.consistent);
        assert!(
            often.epochs_per_server > never.epochs_per_server,
            "cutting epochs should complete more epochs ({} vs {})",
            often.epochs_per_server,
            never.epochs_per_server
        );
    }
}
