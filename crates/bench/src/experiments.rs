//! Quantitative experiments: the measurable claims of the OAR paper and of
//! the layers this repository added on top of it.
//!
//! The paper has no measurement section; its quantitative claims are made in
//! prose ("low latency", "only one phase for ordering in absence of failures",
//! "the probability of having to Opt-undeliver a message is very low", the
//! remark of §5.3 about garbage-collecting `O_delivered`). Each `*_experiment`
//! function here turns one claim into a workload and a sweep and returns the
//! measured [`Row`]s; the `*_BOUNDS` table next to it states, as data, what
//! must hold of those rows. [`crate::registry::EXPERIMENTS`] lists them for
//! the `harness` binary, CI and `docs/BENCHMARKS.md`.

use oar::cluster::{Cluster, ClusterConfig};
use oar::parallel::plan_waves;
use oar::server::ServerStats;
use oar::shard::ShardRouter;
use oar::sharded::ShardedCluster;
use oar::state_machine::{CounterCommand, CounterMachine, StateMachine};
use oar::txn::TxnCluster;
use oar::{AdaptiveConfig, OarConfig};
use oar_apps::cost::CostlyMachine;
use oar_apps::kv::{KvCommand, KvMachine, KvResponse};
use oar_baselines::{BaselineConfig, CtCluster, SequencerCluster};
use oar_simnet::{NetConfig, ProcessId, Samples, SimDuration, SimTime, World};

use crate::gate::Limit::{Const, Of, Text, Times};
use crate::gate::Select::{Each, Key, Where};
use crate::gate::{bounds, Bound, Ctx, TRUE, ZERO};
use crate::row::{Cell, Row};

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

fn counter_workload(requests: usize) -> Vec<CounterCommand> {
    (0..requests)
        .map(|i| CounterCommand::Add(i as i64 % 7 + 1))
        .collect()
}

/// Whether the workload drained with the propositions intact: the replicas
/// prefix-compatible with equal digests, every adopted reply matching the
/// servers' positions.
fn consistent<S: StateMachine>(c: &Cluster<S>) -> bool {
    c.all_clients_done()
        && c.check_per_group_consistency().is_ok()
        && c.check_external_consistency().is_ok()
}

/// What a finished single-group deployment can tell about itself, by metric
/// name. Every family that measures a [`Cluster`] builds its rows from these
/// (see [`with_metrics`]), so a counter is read from [`ServerStats`] in one
/// place, whatever rows it appears in. Panics on a name it does not know.
pub fn metric<S: StateMachine>(c: &Cluster<S>, name: &str) -> Cell {
    let sum = |f: fn(&ServerStats) -> u64| Cell::from(c.sum_stats(f));
    let max = |f: fn(&ServerStats) -> u64| Cell::from(c.max_stats(f));
    let latency = |of: fn(&Samples) -> Option<f64>| Cell::from(of(&c.latencies()).unwrap_or(0.0));
    match name {
        "servers" => c.groups[0].len().into(),
        "clients" => c.clients.len().into(),
        "requests" => c.completed().len().into(),
        "requests_per_second" => sim_rate(c.completed().len(), c.last_completion()).into(),
        "latency_ms" => c.latencies().summary().into(),
        "mean_latency_ms" => latency(|l| l.mean()),
        "p50_latency_ms" => latency(|l| l.quantile(0.5)),
        "p95_latency_ms" => latency(|l| l.quantile(0.95)),
        "p99_latency_ms" => latency(|l| l.quantile(0.99)),
        "completed_run" => c.all_clients_done().into(),
        "consistent" => consistent(c).into(),
        "opt_deliveries" => sum(|s| s.opt_delivered),
        "opt_undeliveries" | "undeliveries" => sum(|s| s.opt_undelivered),
        // The paper's "very low probability": undone per optimistic delivery.
        "undo_rate" => match c.sum_stats(|s| s.opt_delivered) {
            0 => 0.0.into(),
            opt => (c.sum_stats(|s| s.opt_undelivered) as f64 / opt as f64).into(),
        },
        "phase2_entries" => sum(|s| s.phase2_entered),
        "epochs_per_server" => {
            (c.sum_stats(|s| s.epochs_completed) as f64 / c.groups[0].len() as f64).into()
        }
        // Wires: `OrderMsg` broadcasts, `ReplyBatch` wires and the replies
        // they carry, consensus wire allocations (shared relays) and the
        // per-destination deliveries the pre-clone scheme would have paid.
        "order_messages_sent" => sum(|s| s.order_messages_sent),
        "reply_messages_sent" => sum(|s| s.reply_messages_sent),
        "replies_sent" => sum(|s| s.replies_sent),
        "consensus_allocations" => sum(|s| s.consensus_wires_sent),
        "consensus_messages" => sum(|s| s.consensus_messages_sent),
        // Memory the epoch-watermark GC bounds: the `payloads` map and the
        // `PhaseII` duplicate-suppression set, at their peak at any server
        // and as the alive servers hold them now.
        "peak_payloads" => max(|s| s.payloads.peak()),
        "final_payloads" => c.max_alive_stats(|s| s.payloads.current()).into(),
        "peak_seen" => max(|s| s.seen.peak()),
        "final_seen" => c.max_alive_stats(|s| s.seen.current()).into(),
        "payloads_pruned" => sum(|s| s.payloads_pruned),
        // Host nanoseconds inside `StateMachine` application: a measurement
        // channel, never part of the simulated protocol state.
        "apply_ns" => sum(|s| s.apply_ns),
        // Commands executed in multi-command waves (size ≥ 2).
        "wave_commands" => sum(|s| s.wave_commands()),
        // Adaptive batching: the largest `OrderMsg` batch emitted, the
        // threshold in force at the end, and the convergence counters of the
        // sequencers' and the clients' controllers.
        "effective_batch_peak" => max(|s| s.effective_batch.peak()),
        "batch_target" => max(|s| s.batch_target),
        "target_raises" => sum(|s| s.target_raises),
        "target_drops" => sum(|s| s.target_drops),
        "deadline_flushes" => sum(|s| s.deadline_flushes),
        "client_window_peak" => c.max_pipeline_stats(|p| p.window_peak).into(),
        // Recovery: retained `A_delivered` and undo-stack peaks (what log
        // compaction must bound), snapshots, pruned log entries, and the
        // catch-up and payload-repair wires.
        "peak_a_delivered" => max(|s| s.a_delivered_len.peak()),
        "peak_undo_depth" => max(|s| s.undo_depth.peak()),
        "snapshots" => sum(|s| s.snapshots_taken),
        "compacted" => sum(|s| s.compacted),
        "catch_up_requests" => sum(|s| s.catch_up_requests),
        "catch_up_replies" => sum(|s| s.catch_up_replies),
        "payload_fetches" => sum(|s| s.payload_fetches),
        // Reconfiguration: settled fences applied.
        "reconfigs_applied" => sum(|s| s.reconfigs_applied),
        // Replicas out-voted on their own settled digest: 0 unless a replica
        // left the deterministic order.
        "divergences" => sum(|s| s.divergences),
        unknown => panic!("no cluster metric is called `{unknown}`"),
    }
}

/// Appends the [`metric`]s called `names`, read from `cluster`, to `row`.
pub fn with_metrics<S: StateMachine>(
    row: Row,
    cluster: &Cluster<S>,
    names: &[&'static str],
) -> Row {
    names
        .iter()
        .fold(row, |row, name| row.with(name, metric(cluster, name)))
}

fn latency_row(protocol: &str, servers: usize, latencies: &Samples) -> Row {
    Row::new("latency", format!("{protocol}@{servers}"))
        .with("protocol", protocol)
        .with("servers", servers)
        .with("requests", latencies.len())
        .with("latency_ms", latencies.summary())
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
) -> Vec<Row> {
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
        oar.check_per_group_consistency()
            .expect("OAR replica consistency");
        oar.check_external_consistency()
            .expect("OAR external consistency");
        rows.push(latency_row("oar", n, &oar.latencies()));

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
        rows.push(latency_row("fixed-sequencer", n, &seq.latencies()));

        // Consensus-based atomic broadcast
        let mut ct: CtCluster<KvMachine> = CtCluster::build(&base, KvMachine::new, |c| {
            kv_workload(c, requests_per_client)
        });
        assert!(
            ct.run_to_completion(SimTime::from_secs(600)),
            "CT run did not finish"
        );
        ct.check_total_order().expect("CT total order");
        rows.push(latency_row("ct-abcast", n, &ct.latencies()));
    }
    rows
}

/// T-FAILOVER: time to recover from a sequencer crash as a function of the
/// failure-detector timeout.
///
/// Paper claim (§2.2): algorithms that do not rely on a group-membership
/// oracle have a fail-over time governed by the failure-detector timeout, not
/// by a heavyweight view change.
pub fn failover_experiment(group_sizes: &[usize], fd_timeouts_ms: &[u64], seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in group_sizes {
        for &timeout_ms in fd_timeouts_ms {
            let config = ClusterConfig {
                num_servers: n,
                num_clients: 1,
                net: NetConfig::lan(),
                oar: OarConfig::builder()
                    .fd_timeout(SimDuration::from_millis(timeout_ms))
                    .build(),
                seed,
                ..ClusterConfig::default()
            };
            let run = |crash: bool| {
                let mut cluster: Cluster<CounterMachine> =
                    Cluster::build(&config, CounterMachine::default, |_| counter_workload(40));
                if crash {
                    let at = SimTime::from_millis(5);
                    cluster.world.schedule_crash(ProcessId::new(0), at);
                }
                cluster.run_to_completion(SimTime::from_secs(600));
                let done = cluster.completed();
                let last = done.iter().map(|r| r.completed_at).max();
                (last.unwrap_or(SimTime::ZERO).as_millis_f64(), cluster)
            };
            // Recovery time: simulated time from the crash until every
            // request is answered, i.e. the last completion minus the time
            // the same workload needs without any crash.
            let (last_completion, cluster) = run(true);
            let (baseline_last, _) = run(false);
            let row = Row::new("failover", format!("n{n}/fd{timeout_ms}"))
                .with("servers", n)
                .with("fd_timeout_ms", timeout_ms as f64)
                .with("recovery_ms", (last_completion - baseline_last).max(0.0));
            rows.push(with_metrics(row, &cluster, &["undeliveries", "consistent"]));
        }
    }
    rows
}

/// T-UNDO: how often optimistic deliveries are undone, under increasingly
/// adversarial failure scenarios.
///
/// Paper claim (§6): Opt-undeliver requires the conjunction of three unlikely
/// events (sequencer failure observed by only a minority, that minority's
/// values excluded from the consensus decision, and a different conservative
/// order), so its probability is very low even when crashes and suspicions are
/// common.
pub fn undo_experiment(seed: u64) -> Vec<Row> {
    vec![
        // Scenario A: failure-free.
        run_undo_scenario("failure-free", 5, seed, |_cluster| {}),
        // Scenario B: sequencer crash observed by everyone (no partition).
        run_undo_scenario("sequencer-crash", 5, seed, |cluster| {
            cluster
                .world
                .schedule_crash(ProcessId::new(0), SimTime::from_millis(5));
        }),
        // Scenario C: sequencer crash + minority partition containing the
        // only server that saw the last ordering (the Figure-4 conditions).
        run_undo_scenario("crash+minority-partition", 5, seed, |cluster| {
            let s = cluster.groups[0].clone();
            let c = cluster.clients.clone();
            let mut minority = vec![s[0], s[1]];
            minority.extend(c.iter().copied());
            let majority = vec![s[2], s[3], s[4]];
            cluster
                .world
                .schedule_partition(SimTime::from_millis(3), vec![minority, majority]);
            cluster.world.schedule_crash(s[0], SimTime::from_millis(8));
            cluster.world.schedule_heal(SimTime::from_millis(150));
        }),
    ]
}

fn run_undo_scenario(
    label: &str,
    servers: usize,
    seed: u64,
    inject: impl FnOnce(&mut Cluster<CounterMachine>),
) -> Row {
    let config = ClusterConfig {
        num_servers: servers,
        num_clients: 2,
        net: NetConfig::constant(SimDuration::from_micros(100)),
        oar: OarConfig::default(),
        seed,
        ..ClusterConfig::default()
    };
    let mut cluster: Cluster<CounterMachine> =
        Cluster::build(&config, CounterMachine::default, |_| counter_workload(30));
    inject(&mut cluster);
    cluster.run_to_completion(SimTime::from_secs(600));
    let row = Row::new("undo", label)
        .with("servers", servers)
        .with("scenario", label);
    let cells = [
        "requests",
        "opt_deliveries",
        "opt_undeliveries",
        "undo_rate",
        "phase2_entries",
        "consistent",
    ];
    with_metrics(row, &cluster, &cells)
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

/// The throughput and latency cells of a `throughput` or `adaptive` row.
/// Percentiles make the latency *cost* of batching visible next to its
/// throughput benefit: a partial batch waiting for a flush shows up in the
/// tail, not the mean.
const THROUGHPUT_CELLS: [&str; 5] = [
    "requests_per_second",
    "mean_latency_ms",
    "p50_latency_ms",
    "p95_latency_ms",
    "p99_latency_ms",
];

/// The protocol counters of an OAR `throughput` row (0 on baseline rows,
/// which have no comparable counters).
const THROUGHPUT_COUNTERS: [&str; 7] = [
    "order_messages_sent",
    "reply_messages_sent",
    "replies_sent",
    "consensus_allocations",
    "consensus_messages",
    "peak_payloads",
    "apply_ns",
];

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
) -> Row {
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
        .check_per_group_consistency()
        .expect("replica consistency");
    cluster
        .check_external_consistency()
        .expect("external consistency");
    let row = Row::new("throughput", format!("{protocol}@{clients}")).with("protocol", protocol);
    let row = with_metrics(row, &cluster, &["servers", "clients", "requests"]);
    let row = with_metrics(row, &cluster, &THROUGHPUT_CELLS);
    with_metrics(row, &cluster, &THROUGHPUT_COUNTERS)
}

/// A `throughput` row of a baseline protocol, measured from its clients'
/// completion times and latencies.
fn baseline_throughput_row(
    protocol: &str,
    servers: usize,
    clients: usize,
    completions: impl Iterator<Item = SimTime>,
    latencies: &Samples,
) -> Row {
    let end = completions.max().unwrap_or(SimTime::ZERO);
    let quantile = |q| latencies.quantile(q).unwrap_or(0.0);
    let row = Row::new("throughput", format!("{protocol}@{clients}"))
        .with("protocol", protocol)
        .with("servers", servers)
        .with("clients", clients)
        .with("requests", latencies.len())
        .with("requests_per_second", sim_rate(latencies.len(), end))
        .with("mean_latency_ms", latencies.mean().unwrap_or(0.0))
        .with("p50_latency_ms", quantile(0.5))
        .with("p95_latency_ms", quantile(0.95))
        .with("p99_latency_ms", quantile(0.99));
    THROUGHPUT_COUNTERS
        .iter()
        .fold(row, |row, name| row.with(name, 0u64))
}

/// T-THROUGHPUT: completed requests per simulated second under increasing
/// closed-loop client counts, OAR (unbatched and batched sequencer) vs the
/// baselines.
pub fn throughput_experiment(
    servers: usize,
    client_counts: &[usize],
    requests_per_client: usize,
    seed: u64,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for &clients in client_counts {
        let oar = |protocol, config, pipeline| {
            run_oar_throughput(
                protocol,
                config,
                servers,
                clients,
                requests_per_client,
                pipeline,
                seed,
            )
        };
        // OAR, unbatched (the paper's one-OrderMsg-per-request sequencer).
        rows.push(oar("oar", OarConfig::default(), 1));
        // OAR with sequencer batching: up to BATCHED_MAX_BATCH requests per
        // ordering broadcast, amortising the reliable-multicast cost.
        let batched = OarConfig::builder().max_batch(BATCHED_MAX_BATCH).build();
        rows.push(oar("oar-batched", batched, 1));
        // OAR with pipelined clients and window-sized sequencer batches: one
        // OrderMsg swallows the whole in-flight window (PIPELINE_DEPTH
        // requests per client), so each server coalesces its replies into
        // one ReplyBatch per client per window — reply_messages_sent drops
        // towards servers × clients × ceil(requests / PIPELINE_DEPTH).
        let windowed = OarConfig::builder()
            .max_batch(PIPELINE_DEPTH * clients)
            .build();
        rows.push(oar("oar-pipelined", windowed, PIPELINE_DEPTH));

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
        let seq_done = seq.clients.iter().flat_map(|&c| {
            seq.world
                .process_ref::<oar_baselines::SequencerClient<KvMachine>>(c)
                .completed()
                .iter()
                .map(|r| r.completed_at)
        });
        rows.push(baseline_throughput_row(
            "fixed-sequencer",
            servers,
            clients,
            seq_done,
            &seq.latencies(),
        ));

        let mut ct: CtCluster<KvMachine> = CtCluster::build(&base, KvMachine::new, |c| {
            kv_workload(c, requests_per_client)
        });
        assert!(ct.run_to_completion(SimTime::from_secs(600)));
        let ct_done = ct.clients.iter().flat_map(|&c| {
            ct.world
                .process_ref::<oar_baselines::CtClient<KvMachine>>(c)
                .completed()
                .iter()
                .map(|r| r.completed_at)
        });
        rows.push(baseline_throughput_row(
            "ct-abcast",
            servers,
            clients,
            ct_done,
            &ct.latencies(),
        ));
    }
    rows
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
/// clients and periodic epoch cuts. [`SOAK_BOUNDS`] turns the row into a
/// pass/fail verdict: peak `payloads` must be bounded by the unsettled-epoch
/// window — not by the total request count — and the reply/order wire counts
/// must stay under their amortisation ceilings.
pub fn soak_experiment(clients: usize, requests_per_client: usize, seed: u64) -> Row {
    let oar = OarConfig {
        epoch_cut_after: Some(SOAK_EPOCH_CUT),
        ..OarConfig::builder()
            .max_batch(PIPELINE_DEPTH * clients)
            .build()
    };
    let mut cluster =
        build_throughput_cluster(oar, 3, clients, requests_per_client, PIPELINE_DEPTH, seed);
    cluster.run_to_completion(SimTime::from_secs(600));
    // Let the final watermark announcements propagate so end-of-run payload
    // levels reflect the GC, not message latency.
    run_for(&mut cluster.world, 50);
    let cells = [
        "servers",
        "clients",
        "requests",
        "epochs_per_server",
        "peak_payloads",
        "final_payloads",
        "peak_seen",
        "final_seen",
        "payloads_pruned",
        "reply_messages_sent",
        "replies_sent",
        "order_messages_sent",
        "consensus_allocations",
        "consensus_messages",
        "consistent",
        "divergences",
    ];
    with_metrics(Row::new("soak", "soak"), &cluster, &cells)
}

fn param(c: &Ctx, name: &str) -> u64 {
    c.params.get(name)
}

/// `clients × per_client`: the requests a soak or recovery run must answer.
fn total_requests(c: &Ctx) -> f64 {
    (param(c, "clients") * param(c, "per_client")) as f64
}

/// The unsettled-epoch window of the soak and recovery runs: one epoch cut
/// plus every client's in-flight pipeline.
fn epoch_window(c: &Ctx) -> f64 {
    (SOAK_EPOCH_CUT + param(c, "clients") * PIPELINE_DEPTH as u64) as f64
}

/// The amortisation and memory gates of T-SOAK, so that traffic regressions
/// fail the build instead of silently eroding.
pub const SOAK_BOUNDS: &[Bound] = bounds! {
    Each("soak") => "consistent" == TRUE, "the run completes with the propositions intact";
    Each("soak") => "requests" == Of("clients × per_client", total_requests),
        "every request is answered (at-least-once)";
    Each("soak") => "peak_payloads" <= Of("4 × epoch window", |c| 4.0 * epoch_window(c)),
        "payload memory is bounded by the unsettled-epoch window (epoch cut + clients × \
         pipeline, generous slack for epoch boundaries), not by the request count";
    Each("soak") => "final_payloads" <= Of("4 × epoch window", |c| 4.0 * epoch_window(c)),
        "the watermark GC keeps up to the end of the run";
    Each("soak") => "peak_seen" <= Const(64.0),
        "only `PhaseII` broadcasts enter a duplicate-suppression set, aged out by the same \
         watermark: a handful of ids, whatever the request count";
    Each("soak") => "final_seen" <= Const(64.0), "the seen set is aged out to the end of the run";
    Each("soak") => "reply_messages_sent"
        <= Of("2 × servers × clients × ⌈per_client / pipeline⌉", |c| {
            let windows = param(c, "per_client").div_ceil(PIPELINE_DEPTH as u64);
            (2 * c.row.u64("servers") * param(c, "clients") * windows) as f64
        }),
        "a client's replies coalesce per in-flight window (2x slack for partial batches at \
         epoch boundaries); unbatched, every server pays one wire per request";
    Each("soak") => "replies_sent"
        == Of("servers × requests", |c| c.row.u64("servers") as f64 * total_requests(c)),
        "every server answers every request";
    Each("soak") => "order_messages_sent"
        <= Of("2 × ⌈requests / (pipeline × clients)⌉ + 16", |c| {
            let window = PIPELINE_DEPTH as u64 * param(c, "clients");
            let batches = (total_requests(c) as u64).div_ceil(window).max(1);
            (2 * batches + 16) as f64
        }),
        "one `OrderMsg` per window-sized batch (2x slack, headroom for tick-flushed \
         stragglers around epoch cuts)";
    Each("soak") => "consensus_messages"
        >= Of("consensus_allocations + 1, when there are any", |c| {
            match c.row.u64("consensus_allocations") {
                0 => 0.0,
                shared => (shared + 1) as f64,
            }
        }),
        "shared consensus wires fan out: the pre-clone count is strictly larger";
    Each("soak") => "divergences" == ZERO, "equal settled watermarks hold equal digests";
};

/// Epochs between snapshots in the recovery soak: small enough that the
/// retained `A_delivered` window is far below the workload size, large
/// enough that each snapshot covers several epochs of settled commands.
pub const RECOVERY_SNAPSHOT_EVERY: u64 = 4;

/// T-RECOVER: the crash-recovery soak. A replica crashes under a batched,
/// pipelined, epoch-cut workload (the full-size run drives ≥ 5000 requests),
/// restarts with blank state mid-run, and rejoins through the snapshot +
/// delta catch-up protocol. [`RECOVERY_BOUNDS`] turns the row into a
/// pass/fail verdict: the rejoined replica must converge to the cluster
/// digest, peak `A_delivered` must be bounded by the compaction window — not
/// the workload size — and the catch-up wire count must stay bounded.
pub fn recovery_experiment(clients: usize, requests_per_client: usize, seed: u64) -> Row {
    let restarted = 2usize;
    let oar = OarConfig {
        epoch_cut_after: Some(SOAK_EPOCH_CUT),
        snapshot_every: Some(RECOVERY_SNAPSHOT_EVERY),
        ..OarConfig::builder()
            .max_batch(PIPELINE_DEPTH * clients)
            .build()
    };
    let mut cluster =
        build_throughput_cluster(oar, 3, clients, requests_per_client, PIPELINE_DEPTH, seed);
    // Crash a non-sequencer replica early, then revive it with fresh
    // in-memory state once a survivor has taken its first snapshot — so the
    // catch-up transfer is exercised as snapshot + delta (not a full replay)
    // while the workload is still running and the rejoined replica settles
    // new requests after resuming.
    cluster
        .world
        .schedule_crash(cluster.groups[0][restarted], SimTime::from_millis(2));
    let snapshot_deadline = SimTime::from_secs(300);
    while cluster.server(0, 0).stats().snapshots_taken == 0
        && cluster.world.now() < snapshot_deadline
    {
        run_for(&mut cluster.world, 5);
    }
    let restart_at = cluster.world.now() + SimDuration::from_millis(1);
    cluster.schedule_server_restart(restart_at, 0, restarted, KvMachine::new);
    cluster.run_to_completion(SimTime::from_secs(600));
    // Let catch-up retries, watermarks and heartbeats settle.
    run_for(&mut cluster.world, 120);
    let rejoined = cluster.server(0, restarted);
    // `consistent` covers the rejoined replica too: the checks compare it
    // with the survivors through the compaction-aware digests and order
    // hashes. A snapshot position > 0 means the rejoin was snapshot + delta.
    let row = with_metrics(
        Row::new("recovery", "recovery"),
        &cluster,
        &["servers", "clients", "requests", "consistent"],
    )
    .with("rejoined", !rejoined.is_recovering())
    .with(
        "catch_up_snapshot_position",
        rejoined.stats().catch_up_snapshot_position,
    )
    .with("catch_up_delta", rejoined.stats().catch_up_delta)
    .with("rejoined_settled", rejoined.total_settled());
    let cells = [
        "peak_a_delivered",
        "peak_undo_depth",
        "snapshots",
        "compacted",
        "catch_up_requests",
        "catch_up_replies",
        "payload_fetches",
        "divergences",
    ];
    with_metrics(row, &cluster, &cells)
}

/// The recovery gates of T-RECOVER.
pub const RECOVERY_BOUNDS: &[Bound] = bounds! {
    Each("recovery") => "consistent" == TRUE,
        "the run completes with every replica, the rejoined one included, bit-identical";
    Each("recovery") => "requests" == Of("clients × per_client", total_requests),
        "every request is answered (at-least-once)";
    Each("recovery") => "rejoined" == TRUE, "the restarted replica finished catch-up by quiesce";
    Each("recovery") => "catch_up_snapshot_position" > ZERO,
        "the rejoin was snapshot + delta, not a full replay from position 0";
    Each("recovery") => "rejoined_settled"
        > Of("catch_up_snapshot_position + catch_up_delta", |c| {
            (c.row.u64("catch_up_snapshot_position") + c.row.u64("catch_up_delta")) as f64
        }),
        "the rejoined replica kept settling requests after the transfer";
    Each("recovery") => "peak_a_delivered"
        <= Of("2 × snapshot_every × epoch window", |c| {
            2.0 * RECOVERY_SNAPSHOT_EVERY as f64 * epoch_window(c)
        }),
        "log compaction bounds retained state by the snapshot window, not by the request count";
    Each("recovery") => "snapshots" > ZERO, "compaction ran";
    Each("recovery") => "peak_undo_depth" <= Of("2 × epoch window", |c| 2.0 * epoch_window(c)),
        "the undo stack clears at every epoch close";
    Each("recovery") => "catch_up_requests" <= Const(8.0),
        "one restart takes a handful of exchanges, donor rotation included — no retry storm";
    Each("recovery") => "catch_up_replies" <= Const(8.0), "transfers served for one restart";
    Each("recovery") => "payload_fetches" <= Const(64.0),
        "payload repair stays bounded, never O(workload)";
    Each("recovery") => "divergences" == ZERO, "a blank restart and its catch-up trip no detector";
};

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
    let config = ClusterConfig {
        num_groups: groups,
        num_servers: SHARDED_SERVERS_PER_GROUP,
        num_clients: groups * clients_per_group,
        router: ShardRouter::hash(groups),
        oar: OarConfig::builder().max_batch(PIPELINE_DEPTH).build(),
        seed,
        client_pipeline: PIPELINE_DEPTH,
        ..ClusterConfig::default()
    };
    ShardedCluster::build(&config, KvMachine::new, |c| {
        sharded_workload(c, requests_per_client)
    })
}

/// One count per group of a sharded deployment.
fn per_group(groups: usize, of: impl Fn(usize) -> u64) -> Vec<u64> {
    (0..groups).map(of).collect()
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
) -> Vec<Row> {
    let mut rows = Vec::new();
    for &groups in group_counts {
        let mut cluster =
            build_sharded_cluster(groups, clients_per_group, requests_per_client, seed);
        let done = cluster.run_to_completion(SimTime::from_secs(600));
        let consistent = done
            && cluster.check_per_group_consistency().is_ok()
            && cluster.check_external_consistency().is_ok();
        let requests = cluster.completed().len();
        let row = Row::new("sharded", format!("{groups}-groups"))
            .with("groups", groups)
            .with("servers_per_group", SHARDED_SERVERS_PER_GROUP)
            .with("clients_per_group", clients_per_group)
            .with("requests", requests)
            .with(
                "requests_per_second",
                sim_rate(requests, cluster.last_completion()),
            )
            .with("mean_latency_ms", cluster.latencies().mean().unwrap_or(0.0))
            // Requests that reached a group other than the one they were
            // stamped for: the router is a pure function replicated at
            // every client, so there must be none.
            .with("misroutes", cluster.sum_stats(|s| s.misrouted))
            .with("peak_seen", cluster.max_stats(|s| s.seen.peak()))
            // Every group has its own sequencer; `wire_sent` is everything
            // the group's servers handed to the network.
            .with(
                "per_group_order_messages",
                per_group(groups, |g| {
                    cluster.sum_group_stats(g, |s| s.order_messages_sent)
                }),
            )
            .with(
                "per_group_reply_messages",
                per_group(groups, |g| {
                    cluster.sum_group_stats(g, |s| s.reply_messages_sent)
                }),
            )
            .with(
                "per_group_wire_sent",
                per_group(groups, |g| cluster.group_net_stats(g).sent),
            )
            .with("consistent", consistent);
        rows.push(row);
    }
    rows
}

/// The scaling and isolation gates of a T-SHARD sweep.
pub const SHARDED_BOUNDS: &[Bound] = bounds! {
    Each("sharded") => "consistent" == TRUE,
        "every run completes with each group's propositions intact";
    Each("sharded") => "requests"
        == Of("groups × clients_per_group × per_client", |c| {
            (c.row.u64("groups") * param(c, "clients_per_group") * param(c, "per_client")) as f64
        }),
        "every request is answered";
    Each("sharded") => "misroutes" == ZERO, "no request reaches a group it was not stamped for";
    Key("4-groups") => "requests_per_second" >= Times(2.0, "1-groups", "requests_per_second"),
        "adding groups adds capacity instead of interference (same per-group load)";
};

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
fn txn_shard_config(groups: usize, clients: usize, seed: u64) -> ClusterConfig {
    ClusterConfig {
        num_groups: groups,
        num_servers: SHARDED_SERVERS_PER_GROUP,
        num_clients: clients,
        router: ShardRouter::hash(groups),
        oar: OarConfig::default(),
        seed,
        ..ClusterConfig::default()
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
) -> Vec<Row> {
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

        let txns = multi.completed().len();
        let misrouted = |s: &ServerStats| s.misrouted;
        let row = Row::new("txn", format!("{groups}-groups"))
            .with("groups", groups)
            .with("clients", clients)
            // The commit cells come from the multi-group run.
            .with("txns", txns)
            .with("multi_group_txns", multi.multi_group_commits())
            .with(
                "commits_per_second",
                sim_rate(txns, multi.last_completion()),
            )
            .with(
                "mean_commit_latency_ms",
                multi.latencies().mean().unwrap_or(0.0),
            )
            .with(
                "p99_commit_latency_ms",
                multi.latencies().quantile(0.99).unwrap_or(0.0),
            )
            .with("txn_prepares", multi.sum_stats(|s| s.txn_prepares))
            // Across all three runs.
            .with(
                "misroutes",
                multi.sum_stats(misrouted) + fast.sum_stats(misrouted) + plain.sum_stats(misrouted),
            )
            // The fast path under test: total wires of the single-group
            // transactional run vs the plain run of the same commands.
            .with("fastpath_wires_txn", fast.world.stats().sent)
            .with("fastpath_wires_plain", plain.world.stats().sent)
            .with("fastpath_txn_prepares", fast.sum_stats(|s| s.txn_prepares))
            .with(
                "fastpath_latency_ms",
                fast.latencies().mean().unwrap_or(0.0),
            )
            .with("plain_latency_ms", plain.latencies().mean().unwrap_or(0.0))
            .with("consistent", fast_ok && plain_ok && multi_ok);
        rows.push(row);
    }
    rows
}

/// The transactional gates of a T-TXN sweep.
pub const TXN_BOUNDS: &[Bound] = bounds! {
    Each("txn") => "consistent" == TRUE,
        "all three runs complete with every check green: per-group propositions, cross-group \
         atomicity, per-part external consistency";
    Each("txn") => "txns"
        == Of("clients × per_client", |c| (param(c, "clients") * param(c, "per_client")) as f64),
        "every transaction commits";
    Each("txn") => "misroutes" == ZERO, "no request reaches a group it was not stamped for";
    Each("txn") => "fastpath_wires_txn" == Times(1.0, "", "fastpath_wires_plain"),
        "the single-group fast path adds zero wires over the plain sharded client";
    Each("txn") => "fastpath_txn_prepares" == ZERO,
        "no `TxnPrepare` envelope travels on the fast path";
    Where("the `txn` rows with groups > 1", |r| r.u64("groups") > 1)
        => "multi_group_txns" > ZERO,
        "the sweep exercised multi-group commits, so the atomicity check is not vacuous";
    Where("the `txn` rows with groups > 1", |r| r.u64("groups") > 1)
        => "txn_prepares" > ZERO, "a spanning transaction is prepared at its participants";
};

/// T-GC: the §5.3 remark — periodically cutting the epoch garbage-collects
/// `O_delivered` (bounding the state `Cnsv-order` must handle) at the cost of
/// running the conservative phase regularly. `cut_after` is the threshold
/// (`None`, serialised as `null` = never cut, the paper's base algorithm).
pub fn gc_experiment(cut_values: &[Option<u64>], requests: usize, seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for &cut_after in cut_values {
        let config = ClusterConfig {
            num_servers: 3,
            num_clients: 2,
            net: NetConfig::lan(),
            oar: OarConfig {
                epoch_cut_after: cut_after,
                ..OarConfig::default()
            },
            seed,
            ..ClusterConfig::default()
        };
        let mut cluster: Cluster<KvMachine> =
            Cluster::build(&config, KvMachine::new, |c| kv_workload(c, requests));
        cluster.run_to_completion(SimTime::from_secs(600));
        let (key, cut) = match cut_after {
            Some(cut) => (format!("cut-{cut}"), cut as f64),
            None => ("cut-never".to_string(), f64::INFINITY),
        };
        let cells = [
            "requests",
            "epochs_per_server",
            "mean_latency_ms",
            "p99_latency_ms",
            "consistent",
        ];
        let row = Row::new("gc", key).with("cut_after", cut);
        rows.push(with_metrics(row, &cluster, &cells));
    }
    rows
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
        (
            "batched8",
            OarConfig::builder().max_batch(BATCHED_MAX_BATCH).build(),
            1,
        ),
        (
            "replybatch",
            OarConfig::builder()
                .max_batch(PIPELINE_DEPTH * clients)
                .build(),
            PIPELINE_DEPTH,
        ),
        (
            "adaptive",
            OarConfig::builder()
                .adaptive(AdaptiveConfig::default())
                .build(),
            ADAPTIVE_CLIENT_CAP,
        ),
    ]
}

/// T-ADAPTIVE: the load-driven batch controller against every static
/// setting, at light (1 client) and heavy (8 clients) load.
///
/// Each variant runs `repeats` times on the same seed; `wall_ms` is the host
/// wall-clock of the fastest run (host time tracks the simulator's event
/// count, i.e. the wire traffic the batching amortises), while counters,
/// latencies and consistency come from the (identical) last run.
pub fn adaptive_experiment(
    client_counts: &[usize],
    requests_per_client: usize,
    repeats: usize,
    seed: u64,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for &clients in client_counts {
        for (protocol, oar, pipeline) in adaptive_variants(clients) {
            let mut wall_ms = f64::INFINITY;
            let mut last: Option<Cluster<KvMachine>> = None;
            for _ in 0..repeats.max(1) {
                let mut cluster =
                    build_throughput_cluster(oar, 3, clients, requests_per_client, pipeline, seed);
                let t0 = std::time::Instant::now();
                cluster.run_to_completion(SimTime::from_secs(600));
                wall_ms = wall_ms.min(t0.elapsed().as_secs_f64() * 1_000.0);
                last = Some(cluster);
            }
            let cluster = last.expect("at least one repeat");
            let row =
                Row::new("adaptive", format!("{protocol}@{clients}")).with("protocol", protocol);
            let row =
                with_metrics(row, &cluster, &["clients", "requests"]).with("wall_ms", wall_ms);
            let row = with_metrics(row, &cluster, &THROUGHPUT_CELLS);
            let cells = [
                "order_messages_sent",
                "reply_messages_sent",
                "effective_batch_peak",
                "batch_target",
                "target_raises",
                "target_drops",
                "deadline_flushes",
                "client_window_peak",
                "consistent",
            ];
            rows.push(with_metrics(row, &cluster, &cells));
        }
    }
    rows
}

/// The best (lowest) `metric` among the closed-loop statics at 1 client. The
/// static pipelined variant offers different load and is compared at the
/// heavy end instead.
fn best_closed_loop_static(c: &Ctx, metric: &str) -> f64 {
    c.other("unbatched@1", metric)
        .min(c.other("batched8@1", metric))
}

/// Share of the skewed workload aimed at group 0 (the heavy group): 7 of 8
/// requests.
pub const SKEW_HEAVY_SHARE: usize = 8;

/// T-ADAPTIVE-SKEW: drives a 2-group range-partitioned deployment with
/// 7/8 of the traffic in group 0, checking that the two sequencers'
/// controllers converge **independently**. Each group's sequencer runs its
/// own [`oar::adaptive::BatchController`] on its own arrivals, and each
/// client keeps one window controller per group, so the heavy group
/// converges to deep batches while the light one stays (near-)unbatched.
pub fn adaptive_skew_experiment(clients: usize, requests_per_client: usize, seed: u64) -> Row {
    let groups = 2;
    // Range partitioning over the sharded key pool: an even sample gives a
    // boundary near k32, so keys k00..k31 belong to group 0.
    let sample: Vec<String> = (0..SHARDED_KEY_SPACE).map(|i| format!("k{i:02}")).collect();
    let router = ShardRouter::range_from_keys(sample, groups);
    let config = ClusterConfig {
        num_groups: groups,
        num_servers: SHARDED_SERVERS_PER_GROUP,
        num_clients: clients,
        router,
        oar: OarConfig::builder()
            .adaptive(AdaptiveConfig::default())
            .build(),
        seed,
        client_pipeline: ADAPTIVE_CLIENT_CAP,
        adaptive_pipeline: true,
        ..ClusterConfig::default()
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
    let completed = cluster.completed();
    Row::new("adaptive_skew", "skew")
        .with("groups", groups)
        .with("clients", clients)
        .with("requests", completed.len())
        // Router attribution of the completed requests.
        .with(
            "per_group_requests",
            per_group(groups, |g| {
                completed.iter().filter(|r| r.group.index() == g).count() as u64
            }),
        )
        // Maximum over the group's servers: the sequencer carries the signal.
        .with(
            "per_group_batch_target",
            per_group(groups, |g| cluster.max_group_stat(g, |s| s.batch_target)),
        )
        .with(
            "per_group_effective_batch",
            per_group(groups, |g| {
                cluster.max_group_stat(g, |s| s.effective_batch.peak())
            }),
        )
        .with(
            "per_group_target_raises",
            per_group(groups, |g| cluster.sum_group_stats(g, |s| s.target_raises)),
        )
        .with("misroutes", cluster.sum_stats(|s| s.misrouted))
        .with("consistent", consistent)
}

/// The T-ADAPTIVE gates, on the sweep at 1 and 8 clients and on the skewed
/// 2-group run.
pub const ADAPTIVE_BOUNDS: &[Bound] = bounds! {
    Each("adaptive") => "consistent" == TRUE, "every run completes with the propositions intact";
    Each("adaptive") => "requests"
        == Of("clients × per_client", |c| (c.row.u64("clients") * param(c, "per_client")) as f64),
        "every request is answered";
    // Light load adds no latency.
    Key("adaptive@1") => "mean_latency_ms"
        <= Of("1.05 × the best closed-loop static (`unbatched@1`, `batched8@1`)", |c| {
            1.05 * best_closed_loop_static(c, "mean_latency_ms")
        }),
        "at 1 client the controller adds no mean latency";
    Key("adaptive@1") => "p99_latency_ms"
        <= Of("1.05 × the best closed-loop static (`unbatched@1`, `batched8@1`)", |c| {
            1.05 * best_closed_loop_static(c, "p99_latency_ms")
        }),
        "at 1 client the controller adds no tail latency";
    Key("adaptive@1") => "requests_per_second"
        >= Times(0.95, "unbatched@1", "requests_per_second"),
        "at 1 client the controller costs no throughput";
    Key("adaptive@1") => "batch_target" <= Const(1.0), "batching stays off at 1 client";
    Key("adaptive@1") => "target_raises" == ZERO, "the controller never ramps at 1 client";
    // Heavy load amortises and converges. The end-of-run target is back
    // near 1 by design (the workload drained and the idle decay kicked in),
    // so convergence is judged by the raise counter and the batches emitted.
    Key("adaptive@8") => "requests_per_second"
        >= Times(1.15, "unbatched@8", "requests_per_second"),
        "at 8 clients the controller beats unbatched by ≥ 15% in simulated throughput";
    Key("adaptive@8") => "requests_per_second"
        >= Of("0.5 × the best static at 8 clients", |c| {
            let statics = ["unbatched@8", "batched8@8", "replybatch@8"];
            let rates = statics.iter().map(|key| c.other(key, "requests_per_second"));
            0.5 * rates.fold(0.0, f64::max)
        }),
        "a sanity floor against the hand-tuned static: `replybatch` flushes globally \
         synchronised 64-deep rounds, which the rate-driven target intentionally undershoots";
    Key("adaptive@8") => "order_messages_sent"
        <= Times(0.5, "unbatched@8", "order_messages_sent"),
        "at 8 clients the controller at least halves the ordering wires";
    Key("adaptive@8") => "target_raises" > ZERO, "the controller ramped under load";
    Key("adaptive@8") => "effective_batch_peak" >= Const(8.0),
        "the batches emitted reached the client count";
    Key("adaptive@8") => "client_window_peak" >= Const(ADAPTIVE_CLIENT_CAP as f64),
        "the client windows opened to the cap";
    // Per-group independence under skew.
    Key("skew") => "consistent" == TRUE,
        "the skewed run completes with each group's propositions intact";
    Key("skew") => "requests"
        == Of("clients × skew_per_client", |c| {
            (c.row.u64("clients") * param(c, "skew_per_client")) as f64
        }),
        "every request is answered";
    Key("skew") => "misroutes" == ZERO, "no request reaches a group it was not stamped for";
    Key("skew") => "per_group_requests[0]" > Times(3.0, "", "per_group_requests[1]"),
        "the workload is skewed enough for the independence gate to mean something";
    Key("skew") => "per_group_effective_batch[0]" > Times(1.0, "", "per_group_effective_batch[1]"),
        "the heavy group's controller converged to deeper batches than the light group's";
    Key("skew") => "per_group_target_raises[0]" > ZERO, "the heavy group's controller ramped";
    Key("skew") => "per_group_batch_target[1]" <= Const(2.0),
        "the light group's target stays near 1";
};

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
/// of CPU plus `block_us` of blocking sleep (modelling synchronous I/O in
/// the apply stage). The blocking component is what the speedup gate rides
/// on — it overlaps across workers even on a single-core host, so the ≥1.8×
/// bound of [`PARALLEL_BOUNDS`] holds on minimal CI runners, where a pure
/// CPU spin could not speed up at all. Each row records the minimum
/// wall-clock over `repeats` runs (and the ops/s derived from it), the wave
/// structure the conflict-graph scheduler planned, and whether every run
/// matched a plain serial apply (bit-identical responses and state).
pub fn parallel_apply_experiment(
    commands: usize,
    spin_rounds: u64,
    block_us: u64,
    repeats: usize,
) -> Vec<Row> {
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
            let ops_per_sec = if wall_ms > 0.0 {
                commands as f64 / (wall_ms / 1_000.0)
            } else {
                0.0
            };
            let row = Row::new("parallel", format!("{kind}@{workers}"))
                .with("workload", kind)
                .with("workers", workers)
                .with("commands", commands)
                .with("spin_rounds", spin_rounds)
                .with("block_us", block_us)
                .with("waves", waves.len())
                .with("max_wave", max_wave)
                .with("wall_ms", wall_ms)
                .with("ops_per_sec", ops_per_sec)
                .with("matches_serial", matches_serial);
            rows.push(row);
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
/// responses (id, response, position, epoch) must be bit-identical to the
/// twin's — parallel apply is an execution strategy, never an observable
/// protocol change.
pub fn parallel_cluster_experiment(clients: usize, requests_per_client: usize, seed: u64) -> Row {
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
        cluster.run_to_completion(SimTime::from_secs(600));
        cluster
    };
    let parallel = run(Some(PARALLEL_WORKERS));
    let serial = run(None);
    let digests = |cluster: &Cluster<KvMachine>| -> Vec<u64> {
        (0..cluster.groups[0].len())
            .map(|i| cluster.server(0, i).state_machine().digest())
            .collect()
    };
    let responses = |cluster: &Cluster<KvMachine>| {
        let mut completed: Vec<_> = cluster
            .completed()
            .iter()
            .map(|r| (r.id, r.response.clone(), r.position, r.epoch))
            .collect();
        completed.sort_by_key(|&(id, ..)| id);
        completed
    };
    let row = Row::new("parallel_cluster", "cluster");
    let row = with_metrics(row, &parallel, &["servers", "clients", "requests"])
        .with("workers", PARALLEL_WORKERS);
    // `wave_commands` = 0 would mean the conflict graph never exposed any
    // concurrency; `apply_ns` is host time inside apply, for both twins.
    with_metrics(row, &parallel, &["wave_commands", "apply_ns"])
        .with("serial_apply_ns", serial.sum_stats(|s| s.apply_ns))
        .with("digests_match", digests(&parallel) == digests(&serial))
        .with(
            "responses_match",
            responses(&parallel) == responses(&serial),
        )
        .with("consistent", consistent(&parallel) && consistent(&serial))
}

/// The T-PARALLEL gates.
pub const PARALLEL_BOUNDS: &[Bound] = bounds! {
    Each("parallel") => "matches_serial" == TRUE,
        "every run is bit-identical to a serial apply of its batch";
    Key("disjoint@4") => "waves" == Const(1.0), "the disjoint workload forms one wave …";
    Key("disjoint@4") => "max_wave" == Times(1.0, "", "commands"), "… as wide as the batch";
    Key("disjoint@4") => "ops_per_sec" >= Times(1.8, "disjoint@1", "ops_per_sec"),
        "disjoint writes speed up ≥ 1.8× at 4 workers";
    Key("conflicting@4") => "waves" == Times(1.0, "", "commands"),
        "the conflicting workload forms only singleton waves: one per command …";
    Key("conflicting@4") => "max_wave" == Const(1.0), "… each of size 1";
    // Singleton waves bypass the pool entirely and run the *identical* code
    // path as `workers = 1`, so parity is structural; the band only has to
    // catch a gross regression (e.g. singleton waves being routed through
    // the pool, which costs far more than 10%), and a wider band keeps the
    // sleep-based wall-clock comparison robust on loaded shared runners.
    Key("conflicting@4") => "ops_per_sec" >= Times(0.9, "conflicting@1", "ops_per_sec"),
        "conflicting writes stay at parity with serial: not more than 10% slower …";
    Key("conflicting@4") => "ops_per_sec" <= Times(1.1, "conflicting@1", "ops_per_sec"),
        "… nor more than 10% faster";
    Key("cluster") => "consistent" == TRUE,
        "the parallel deployment and its serial twin complete with the propositions intact";
    Key("cluster") => "wave_commands" > ZERO, "the cluster executed multi-command waves";
    Key("cluster") => "digests_match" == TRUE, "replica digests equal the serial twin's";
    Key("cluster") => "responses_match" == TRUE, "completed replies equal the serial twin's";
};

/// Runs one scenario under the given reduction settings (partial-order
/// reduction by sleep sets, state deduplication) and re-validates any
/// counterexample on a plain world: the trace is replayed step by step
/// (key-directed dispatch, no checker), the simulator then runs free to the
/// horizon, and the failure must reproduce — a safety violation as a failed
/// invariant, a deadlock as an unfinished workload. `trace_replays` records
/// that (`true` for rows without violations); `violation_kind` is the kind
/// of the first violation (empty when none).
fn mc_run(label: &str, scenario: &oar_mc::oar::OarScenario, por: bool, dedup: bool) -> Row {
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
                            .process_ref::<oar::OarClient<CounterMachine>>(c)
                            .is_done()
                    })
                }
        }
    };
    Row::new("mc", label)
        .with("label", label)
        .with("scenario", scenario.name)
        .with("por", por)
        .with("dedup", dedup)
        .with("states_explored", report.states_explored)
        .with("transitions", report.transitions)
        .with("pruned_sleep", report.pruned_sleep)
        .with("pruned_dedup", report.pruned_dedup)
        .with("goal_states", report.goal_states)
        .with("deadlocks", report.deadlocks)
        .with("truncated", report.truncated)
        .with("violations", report.violations.len())
        .with(
            "violation_kind",
            first.map(|v| v.kind.clone()).unwrap_or_default(),
        )
        .with("trace_replays", trace_replays)
        .with("wall_ms", wall_ms)
}

/// T-MC: bounded model checking of the OAR protocol over simnet.
///
/// Row families (§ "Model checking" in `docs/ARCHITECTURE.md`):
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
///   fixes active: zero violations within the state budget `state_cap`.
/// * `membership-change` — crash of one replica plus its online replacement
///   through a `Replace` fence: every path settles the fence, joins the
///   spare through the held-catch-up path and terminates.
/// * `partial-multicast` / `partial-multicast-crash` — a request that
///   reaches one non-sequencer only (its client died mid-multicast), with
///   tick stretches and, in the second arm, a sequencer crash as choices:
///   every path delivers it at every live replica through the push/pull
///   repairs. Both spaces are swept exhaustively.
pub fn mc_experiment(state_cap: u64) -> Vec<Row> {
    use oar_mc::oar::OarScenario;

    let mut rows = Vec::new();

    // Exhaustive failure-free gate.
    rows.push(mc_run("clean-1x2", &OarScenario::clean(1, 2), true, true));

    // POR ratio gate: reduced (sleep sets only) vs raw (nothing), the raw
    // arm bounded just above twice the reduced count.
    let reduced = mc_run("clean-1x1-por", &OarScenario::clean(1, 1), true, false);
    let mut raw_scenario = OarScenario::clean(1, 1);
    raw_scenario.mc.max_states = 2 * reduced.u64("states_explored") + 1;
    rows.push(reduced);
    rows.push(mc_run("clean-1x1-raw", &raw_scenario, false, false));

    // Historical bugs re-found, counterexamples replayed.
    let handoff_bug = OarScenario::sequencer_handoff(true);
    rows.push(mc_run("handoff-bug", &handoff_bug, true, true));
    let rejoin_bug = OarScenario::mid_epoch_rejoin(true);
    rows.push(mc_run("rejoin-bug", &rejoin_bug, true, true));

    // Control arms: the fixed protocol under the same faults. The full
    // spaces are large, so the runs are capped at `state_cap`.
    for (label, mut scenario) in [
        ("handoff-fixed", OarScenario::sequencer_handoff(false)),
        ("rejoin-fixed", OarScenario::mid_epoch_rejoin(false)),
        ("membership-change", OarScenario::membership_change()),
    ] {
        scenario.mc.max_states = state_cap;
        rows.push(mc_run(label, &scenario, true, true));
    }
    for (label, crash) in [
        ("partial-multicast", false),
        ("partial-multicast-crash", true),
    ] {
        let scenario = OarScenario::partial_multicast(crash);
        rows.push(mc_run(label, &scenario, true, true));
    }

    rows
}

/// The gates of the model-checking rows.
pub const MC_BOUNDS: &[Bound] = bounds! {
    Each("mc") => "states_explored" > ZERO, "every scenario explores its space";
    Where("the `*-bug` rows", |r| r.key.ends_with("-bug")) => "violations" > ZERO,
        "the historical bug is re-found from its test-only toggle";
    Where("the `*-bug` rows", |r| r.key.ends_with("-bug")) => "trace_replays" == TRUE,
        "the counterexample trace reproduces on a plain, checker-free world";
    Where("every row but `*-bug`", |r| !r.key.ends_with("-bug")) => "violations" == ZERO,
        "the protocol, fixes active, violates no predicate within the state budget";
    Key("clean-1x2") => "truncated" == ZERO, "the failure-free space is explored exhaustively";
    Key("clean-1x2") => "goal_states" > ZERO, "some path reaches the termination goal";
    Key("clean-1x2") => "deadlocks" == ZERO, "no failure-free path deadlocks";
    Key("clean-1x1-por") => "truncated" == ZERO, "sleep sets alone close the 1-request space";
    Key("clean-1x1-por") => "pruned_sleep" > ZERO, "sleep sets prune something";
    Key("clean-1x1-raw") => "truncated" == TRUE,
        "the raw exploration overruns twice the reduced state count: POR prunes ≥ 50%";
    Key("handoff-bug") => "violation_kind" == Text("deadlock"),
        "the hand-off bug shows as the phase-2 stall";
    Key("rejoin-bug") => "violation_kind" == Text("invariant"),
        "the rejoin bug shows as a safety violation (divergence)";
    Key("membership-change") => "deadlocks" == ZERO,
        "the fence neither wedges the epoch close nor strands the replacement";
    Key("membership-change") => "goal_states" > ZERO, "some path reaches the termination goal";
    Where("the `partial-multicast*` rows", |r| r.key.starts_with("partial-multicast"))
        => "deadlocks" == ZERO,
        "a request that reached one replica is delivered at the others on every path";
    Where("the `partial-multicast*` rows", |r| r.key.starts_with("partial-multicast"))
        => "goal_states" > ZERO, "some path delivers the request";
    Where("the `partial-multicast*` rows", |r| r.key.starts_with("partial-multicast"))
        => "truncated" == ZERO, "the space is swept exhaustively";
};

/// A blank `reconfig` row. Each scenario sets the cells it exercises and
/// leaves the others as they are here.
fn reconfig_row(scenario: &'static str) -> Row {
    Row::new("reconfig", scenario)
        .with("scenario", scenario)
        .with("requests", 0u64)
        .with("completed_run", false)
        .with("consistent", false)
        // Settled reconfiguration fences applied across all servers.
        .with("reconfigs_applied", 0u64)
        // Whether the replacement replica finished its catch-up (replace).
        .with("rejoined", true)
        .with("catch_up_replies", 0u64)
        // Requests door-dropped and redirected for stale routing (migrate).
        .with("redirected", 0u64)
        .with("migrate_state_wires", 0u64)
        // Replies a client adopted twice for one request id (migrate).
        .with("duplicates", 0u64)
        // Replicas out-voted on their settled digest, summed over the group.
        .with("divergences", 0u64)
        // Whether every replica ends with one state digest (divergence).
        .with("digests_match", true)
}

/// Runs `world` for `ms` more milliseconds of simulated time.
fn run_for<M: Clone + 'static>(world: &mut World<M>, ms: u64) {
    let until = world.now() + SimDuration::from_millis(ms);
    world.run_until(until);
}

/// The scenario's host wall-clock, the last cell of its row.
fn wall_ms_since(start: std::time::Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1_000.0
}

/// T-RECONFIG, part 1: replace a crashed replica online, then crash a second
/// one — the fence settles conservatively, the replacement joins over the
/// `CatchUp*` wires and restores the fault budget, and the workload still
/// drains to the last request.
fn reconfig_replace_scenario(per_client: usize, seed: u64) -> Row {
    let start = std::time::Instant::now();
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
            (0..per_client)
                .map(|i| CounterCommand::Add((c * 31 + i) as i64 % 11 + 1))
                .collect()
        });
    let old = cluster.groups[0][2];
    cluster.world.schedule_crash(old, SimTime::from_millis(2));
    cluster.world.run_until(SimTime::from_millis(4));
    let new = cluster.inject_replace(0, 2, CounterCommand::Add(0), CounterMachine::default);
    // Wait for the fence to settle and the replacement to catch up, then
    // spend the restored fault budget on a second crash.
    let fence_deadline = SimTime::from_secs(5);
    loop {
        run_for(&mut cluster.world, 5);
        let fenced =
            cluster.server(0, 0).members() == [cluster.groups[0][0], cluster.groups[0][1], new];
        if (fenced && !cluster.server(0, 2).is_recovering())
            || cluster.world.now() >= fence_deadline
        {
            break;
        }
    }
    let rejoined = !cluster.server(0, 2).is_recovering();
    cluster.world.crash_now(cluster.groups[0][1]);
    cluster.run_to_completion(SimTime::from_secs(120));
    let mut row = reconfig_row("replace");
    row.set("rejoined", rejoined);
    for name in [
        "requests",
        "completed_run",
        "consistent",
        "reconfigs_applied",
        "catch_up_replies",
        "divergences",
    ] {
        row.set(name, metric(&cluster, name));
    }
    row.with("wall_ms", wall_ms_since(start))
}

/// T-RECONFIG, part 2: migrate a key range between two groups while clients
/// hammer it — zero lost or duplicated replies, bounded `MigrateState`
/// transfer wires, stale traffic counted and redirected.
fn reconfig_migrate_scenario(per_client: usize, seed: u64) -> Row {
    use oar::shard::KeyRange;
    let start = std::time::Instant::now();
    let clients = 3usize;
    let config = ClusterConfig {
        num_groups: 2,
        num_servers: 3,
        num_clients: clients,
        router: ShardRouter::range(vec!["m".into()]),
        oar: OarConfig::default(),
        seed,
        client_pipeline: 2,
        ..ClusterConfig::default()
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
    run_for(&mut cluster.world, 50);
    // Lost or duplicated replies: a client that adopted two replies under
    // one request id duplicates; one that adopted fewer than its workload
    // lost (the latter also fails `completed_run`).
    let mut duplicates = 0u64;
    let mut requests = 0usize;
    for c in 0..clients {
        let completed = cluster.client(c).completed();
        requests += completed.len();
        let mut ids: Vec<_> = completed.iter().map(|d| d.id).collect();
        ids.sort();
        ids.dedup();
        duplicates += (completed.len() - ids.len()) as u64;
    }
    let consistent = done
        && cluster.check_per_group_consistency().is_ok()
        && cluster.check_external_consistency().is_ok()
        && cluster.sum_stats(|s| s.misrouted) == 0;
    let mut row = reconfig_row("migrate");
    row.set("requests", requests);
    row.set("completed_run", done);
    row.set("consistent", consistent);
    row.set(
        "reconfigs_applied",
        cluster.sum_stats(|s| s.reconfigs_applied),
    );
    row.set("redirected", cluster.sum_stats(|s| s.redirected));
    row.set(
        "migrate_state_wires",
        cluster.sum_stats(|s| s.migrate_state_wires),
    );
    row.set("duplicates", duplicates);
    row.set("divergences", cluster.sum_stats(|s| s.divergences));
    row.with("wall_ms", wall_ms_since(start))
}

/// T-RECONFIG, part 3: apply a command outside the order at one replica
/// of a quiescent group (delete a settled key), then close the open epoch. The divergence shows in
/// that close's settled digest: the corrupted replica, out-voted by both
/// peers, counts it, rejoins blank through catch-up and ends bit-identical
/// to them; the healthy replicas count nothing.
fn reconfig_divergence_scenario(per_client: usize, seed: u64) -> Row {
    let start = std::time::Instant::now();
    let config = ClusterConfig {
        num_servers: 3,
        num_clients: 2,
        net: NetConfig::lan(),
        oar: OarConfig::default(),
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
    cluster.run_to_completion(SimTime::from_secs(30));
    run_for(&mut cluster.world, 100);
    cluster.inject_divergence(0, 1, &KvCommand::Delete { key: "k05".into() });
    cluster.close_epoch();
    run_for(&mut cluster.world, 200);
    let d = |i| cluster.server(0, i).state_machine().digest();
    let mut row = reconfig_row("divergence");
    row.set("rejoined", !cluster.server(0, 1).is_recovering());
    row.set("digests_match", d(0) == d(1) && d(1) == d(2));
    for name in [
        "requests",
        "completed_run",
        "consistent",
        "catch_up_replies",
        "divergences",
    ] {
        row.set(name, metric(&cluster, name));
    }
    row.with("wall_ms", wall_ms_since(start))
}

/// T-RECONFIG: membership reconfiguration, online shard rebalancing and
/// divergence detection (§ "Reconfiguration & divergence detection" in
/// `docs/ARCHITECTURE.md`). Three rows, one per scenario;
/// [`RECONFIG_BOUNDS`] turns them into the CI verdict.
pub fn reconfig_experiment(per_client: usize, seed: u64) -> Vec<Row> {
    vec![
        reconfig_replace_scenario(per_client, seed),
        reconfig_migrate_scenario(per_client, seed),
        reconfig_divergence_scenario(per_client / 3, seed),
    ]
}

/// The gates of the reconfiguration rows.
pub const RECONFIG_BOUNDS: &[Bound] = bounds! {
    Each("reconfig") => "completed_run" == TRUE, "the workload drains";
    Each("reconfig") => "consistent" == TRUE, "the consistency propositions hold at quiesce";
    Key("replace") => "requests" == Of("2 × per_client", |c| 2.0 * param(c, "per_client") as f64),
        "every request is answered across the replacement and the further crash";
    Key("replace") => "rejoined" == TRUE, "the replacement finished its catch-up";
    Key("replace") => "reconfigs_applied" >= Const(2.0), "both survivors apply the fence";
    Key("replace") => "catch_up_replies" <= Const(8.0),
        "one replacement takes a handful of transfers — no retry storm";
    Key("replace") => "divergences" == ZERO, "a catch-up and a further crash trip no detector";
    Key("migrate") => "requests" == Of("3 × per_client", |c| 3.0 * param(c, "per_client") as f64),
        "no reply is lost across the migration";
    Key("migrate") => "duplicates" == ZERO,
        "no reply is duplicated: door-drop + redirect never double-serve (at-most-once)";
    Key("migrate") => "redirected" > ZERO, "the migration really ran under traffic";
    Key("migrate") => "migrate_state_wires" <= Const(9.0),
        "each donor replica ships the settled range to each recipient member at most once: \
         s² wires for s = 3";
    Key("migrate") => "divergences" == ZERO, "a range moved at an epoch close keeps every digest";
    Key("divergence") => "divergences" == Const(1.0), "the corrupted replica alone counts it";
    Key("divergence") => "catch_up_replies" >= Const(1.0), "it rejoined through catch-up";
    Key("divergence") => "rejoined" == TRUE, "and finished its catch-up";
    Key("divergence") => "digests_match" == TRUE, "after the heal every replica holds one digest";
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{check, Limit, Op, Params};
    use crate::registry::EXPERIMENTS;

    use crate::row::by_key as find;

    /// The cell names of a row, in order: the shape of its JSON line.
    fn keys(row: &Row) -> String {
        row.names().collect::<Vec<_>>().join(" ")
    }

    /// The JSON line of `row` with its cells set to `values`: pins the
    /// family's key order and value formatting byte for byte.
    fn json_with(row: &Row, values: Vec<(&str, Cell)>) -> String {
        let mut row = row.clone();
        assert_eq!(values.len(), row.names().count(), "one value per cell");
        for (name, value) in values {
            row.set(name, value);
        }
        row.to_json()
    }

    fn violations(bounds: &[Bound], params: &Params, rows: &[Row]) -> Vec<String> {
        let found = check(bounds, params, rows);
        found.into_iter().map(|v| v.message).collect()
    }

    #[test]
    fn latency_shape_matches_paper_claims() {
        let rows = latency_experiment(&[3], 30, 3);
        let mean = |protocol: &str| find(&rows, protocol).num("latency_ms.mean");
        let oar = mean("oar@3");
        let seq = mean("fixed-sequencer@3");
        let ct = mean("ct-abcast@3");
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
        assert_eq!(keys(&rows[0]), "protocol servers requests latency_ms");
    }

    #[test]
    fn undo_rate_is_zero_without_partition() {
        let rows = undo_experiment(5);
        let failure_free = find(&rows, "failure-free");
        assert_eq!(failure_free.u64("opt_undeliveries"), 0);
        assert!(failure_free.bool("consistent"));
        let crash = find(&rows, "sequencer-crash");
        assert_eq!(
            crash.u64("opt_undeliveries"),
            0,
            "a plain crash never forces undeliveries"
        );
        assert!(crash.bool("consistent"));
        let partition = find(&rows, "crash+minority-partition");
        assert!(partition.bool("consistent"));
        assert!(
            partition.num("undo_rate") < 0.5,
            "undo stays rare even under the adversarial scenario"
        );
        assert_eq!(
            keys(partition),
            "servers scenario requests opt_deliveries opt_undeliveries undo_rate phase2_entries \
             consistent"
        );
    }

    #[test]
    fn failover_rows_keep_their_shape() {
        let rows = failover_experiment(&[3], &[10], 11);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].bool("consistent"));
        assert_eq!(
            keys(&rows[0]),
            "servers fd_timeout_ms recovery_ms undeliveries consistent"
        );
        assert!(rows[0]
            .to_json()
            .starts_with("{\"servers\":3,\"fd_timeout_ms\":10,"));
    }

    #[test]
    fn batched_sequencer_amortises_order_messages() {
        let rows = throughput_experiment(3, &[4], 25, 7);
        let plain = find(&rows, "oar@4");
        let batched = find(&rows, "oar-batched@4");
        // Unbatched: one OrderMsg per request (modulo epoch boundaries).
        assert!(plain.u64("order_messages_sent") >= plain.u64("requests") * 9 / 10);
        // Batched: the ordering broadcast is amortised across requests.
        assert!(
            batched.u64("order_messages_sent") < batched.u64("requests"),
            "batching should send fewer OrderMsgs ({}) than requests ({})",
            batched.u64("order_messages_sent"),
            batched.u64("requests")
        );
        // Both variants complete the full workload.
        assert_eq!(plain.u64("requests"), 100);
        assert_eq!(batched.u64("requests"), 100);
        let shape = "protocol servers clients requests requests_per_second mean_latency_ms \
                     p50_latency_ms p95_latency_ms p99_latency_ms order_messages_sent \
                     reply_messages_sent replies_sent consensus_allocations consensus_messages \
                     peak_payloads apply_ns";
        assert_eq!(keys(plain), shape);
        assert_eq!(
            keys(find(&rows, "ct-abcast@4")),
            shape,
            "baseline rows share the shape"
        );
    }

    #[test]
    fn pipelined_clients_amortise_reply_messages() {
        let rows = throughput_experiment(3, &[4], 24, 7);
        let plain = find(&rows, "oar@4");
        let pipelined = find(&rows, "oar-pipelined@4");
        // Every variant answers every request at every server.
        assert_eq!(plain.u64("replies_sent"), 3 * 96);
        assert_eq!(pipelined.u64("replies_sent"), 3 * 96);
        // Closed-loop: one ReplyBatch wire per request per server.
        assert_eq!(plain.u64("reply_messages_sent"), plain.u64("replies_sent"));
        // Pipelined + window-batched: a client's replies coalesce per
        // in-flight window. The acceptance ceiling is servers × clients ×
        // ceil(requests / PIPELINE_DEPTH), with 2x slack for partially
        // filled batches at epoch boundaries.
        let per_client = 24u64.div_ceil(PIPELINE_DEPTH as u64);
        let ceiling = 2 * 3 * 4 * per_client;
        assert!(
            pipelined.u64("reply_messages_sent") <= ceiling,
            "pipelined reply wires {} exceed the amortisation ceiling {ceiling}",
            pipelined.u64("reply_messages_sent")
        );
        assert!(
            pipelined.u64("reply_messages_sent") < plain.u64("reply_messages_sent") / 2,
            "reply batching should cut the wire count at least in half \
             ({} vs {})",
            pipelined.u64("reply_messages_sent"),
            plain.u64("reply_messages_sent")
        );
    }

    #[test]
    fn soak_bounds_hold_on_a_small_run() {
        let row = soak_experiment(4, 250, 11);
        assert!(row.bool("consistent"));
        assert_eq!(row.u64("requests"), 1000);
        assert!(
            row.num("epochs_per_server") > 2.0,
            "epoch cuts must close epochs"
        );
        assert!(
            row.u64("payloads_pruned") > 0,
            "the watermark GC must prune"
        );
        let params = Params(&[("clients", 4), ("per_client", 250)]);
        let found = violations(SOAK_BOUNDS, &params, std::slice::from_ref(&row));
        assert!(found.is_empty(), "soak violations: {found:?}");
        // The bound is about growth: peak payload memory stays far below the
        // total request count.
        assert!(
            row.u64("peak_payloads") < 1000 / 2,
            "peak payloads {} should be bounded by the epoch window, not the \
             workload size",
            row.u64("peak_payloads")
        );
    }

    #[test]
    fn sharded_throughput_scales_with_group_count() {
        let rows = sharded_experiment(&[1, 4], 2, 20, 9);
        let params = Params(&[("clients_per_group", 2), ("per_client", 20)]);
        let found = violations(SHARDED_BOUNDS, &params, &rows);
        assert!(found.is_empty(), "sharded violations: {found:?}");
        let row4 = find(&rows, "4-groups");
        assert_eq!(row4.u64("requests"), 4 * 2 * 20);
        assert_eq!(row4.u64("misroutes"), 0);
        // Every group ran its own sequencer: per-group ordering traffic is
        // non-zero wherever keys landed (the 64-key pool covers all groups).
        assert!(row4.list("per_group_order_messages").iter().all(|&o| o > 0));
        assert!(row4.list("per_group_wire_sent").iter().all(|&s| s > 0));
        assert_eq!(row4.list("per_group_reply_messages").len(), 4);
    }

    #[test]
    fn sharded_row_shape() {
        let row = &sharded_experiment(&[1], 1, 4, 9)[0];
        let values = vec![
            ("groups", 2u64.into()),
            ("servers_per_group", 3u64.into()),
            ("clients_per_group", 2u64.into()),
            ("requests", 80u64.into()),
            ("requests_per_second", 1000.0.into()),
            ("mean_latency_ms", 0.5.into()),
            ("misroutes", 0u64.into()),
            ("peak_seen", 40u64.into()),
            ("per_group_order_messages", vec![5u64, 6].into()),
            ("per_group_reply_messages", vec![30u64, 31].into()),
            ("per_group_wire_sent", vec![100u64, 110].into()),
            ("consistent", true.into()),
        ];
        assert_eq!(
            json_with(row, values),
            "{\"groups\":2,\"servers_per_group\":3,\"clients_per_group\":2,\"requests\":80,\
             \"requests_per_second\":1000,\"mean_latency_ms\":0.5,\"misroutes\":0,\
             \"peak_seen\":40,\"per_group_order_messages\":[5,6],\
             \"per_group_reply_messages\":[30,31],\"per_group_wire_sent\":[100,110],\
             \"consistent\":true}"
        );
    }

    #[test]
    fn soak_tracks_seen_set_aging() {
        let row = soak_experiment(2, 120, 13);
        assert!(row.bool("consistent"));
        // Only PhaseII broadcasts enter a duplicate-suppression set, and
        // they are aged out with the payloads: the peak is a few epochs'
        // worth of ids, nowhere near the request count, and the bound check
        // accepts the run.
        assert!(row.u64("peak_seen") > 0);
        assert!(
            row.u64("peak_seen") < 16,
            "peak seen {} should count unacknowledged epochs, not requests",
            row.u64("peak_seen")
        );
        let params = Params(&[("clients", 2), ("per_client", 120)]);
        assert!(check(SOAK_BOUNDS, &params, &[row]).is_empty());
    }

    #[test]
    fn txn_fastpath_is_wire_identical_and_multi_group_commits_are_atomic() {
        let rows = txn_experiment(&[1, 2], 2, 8, 21);
        let params = Params(&[("clients", 2), ("per_client", 8)]);
        let found = violations(TXN_BOUNDS, &params, &rows);
        assert!(found.is_empty(), "txn violations: {found:?}");
        let row1 = find(&rows, "1-groups");
        // One group: even the spanning workload collapses onto the fast
        // path, so no envelope ever travels.
        assert_eq!(row1.u64("txn_prepares"), 0);
        assert_eq!(row1.u64("multi_group_txns"), 0);
        let row2 = find(&rows, "2-groups");
        assert!(
            row2.u64("multi_group_txns") > 0,
            "the workload must span groups"
        );
        assert_eq!(
            row2.u64("fastpath_wires_txn"),
            row2.u64("fastpath_wires_plain")
        );
        assert!(row2.num("mean_commit_latency_ms") > 0.0);
    }

    #[test]
    fn parallel_apply_rows_stay_bit_identical_to_serial() {
        // Zero blocking cost: this asserts scheduling structure and
        // bit-identical execution only — the wall-clock gates live in the
        // harness (`parallel` / `parallel-smoke`), where timing variance
        // cannot flake `cargo test`.
        let rows = parallel_apply_experiment(24, 100, 0, 1);
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.bool("matches_serial")));
        let disjoint = find(&rows, "disjoint@4");
        assert_eq!(disjoint.u64("waves"), 1);
        assert_eq!(disjoint.u64("max_wave"), 24);
        let conflicting = find(&rows, "conflicting@4");
        assert_eq!(conflicting.u64("waves"), 24);
        assert_eq!(conflicting.u64("max_wave"), 1);
    }

    #[test]
    fn parallel_row_shape() {
        let row = &parallel_apply_experiment(2, 1, 0, 1)[0];
        let values = vec![
            ("workload", "disjoint".into()),
            ("workers", 4u64.into()),
            ("commands", 64u64.into()),
            ("spin_rounds", 2000u64.into()),
            ("block_us", 250u64.into()),
            ("waves", 1u64.into()),
            ("max_wave", 64u64.into()),
            ("wall_ms", 5.5.into()),
            ("ops_per_sec", 11636.0.into()),
            ("matches_serial", true.into()),
        ];
        assert_eq!(
            json_with(row, values),
            "{\"workload\":\"disjoint\",\"workers\":4,\"commands\":64,\"spin_rounds\":2000,\
             \"block_us\":250,\"waves\":1,\"max_wave\":64,\"wall_ms\":5.5,\
             \"ops_per_sec\":11636,\"matches_serial\":true}"
        );
    }

    #[test]
    fn parallel_cluster_twin_runs_agree() {
        let row = parallel_cluster_experiment(2, 16, 7);
        assert!(row.bool("consistent"));
        assert_eq!(row.u64("requests"), 2 * 16);
        assert!(
            row.bool("digests_match"),
            "parallel digests must equal the twin's"
        );
        assert!(row.bool("responses_match"), "replies must be bit-identical");
        assert!(
            row.u64("wave_commands") > 0,
            "disjoint per-client keys must schedule multi-command waves"
        );
        assert!(row.u64("apply_ns") > 0 && row.u64("serial_apply_ns") > 0);
    }

    #[test]
    fn gc_ablation_runs_more_epochs_when_cutting() {
        let rows = gc_experiment(&[None, Some(5)], 20, 4);
        let never = find(&rows, "cut-never");
        let often = find(&rows, "cut-5");
        assert!(never.bool("consistent") && often.bool("consistent"));
        assert!(
            often.num("epochs_per_server") > never.num("epochs_per_server"),
            "cutting epochs should complete more epochs ({} vs {})",
            often.num("epochs_per_server"),
            never.num("epochs_per_server")
        );
        assert!(never
            .to_json()
            .starts_with("{\"cut_after\":null,\"requests\":40,"));
        assert!(often
            .to_json()
            .starts_with("{\"cut_after\":5,\"requests\":40,"));
        assert_eq!(
            keys(never),
            "cut_after requests epochs_per_server mean_latency_ms p99_latency_ms consistent"
        );
    }

    /// A size small enough for `cargo test` for each gated experiment (the
    /// `mc` control arms are capped low; everything it gates on is swept
    /// exhaustively regardless).
    fn test_size(name: &str) -> Params {
        match name {
            "soak" => Params(&[("clients", 2), ("per_client", 120)]),
            "recovery" => Params(&[("clients", 4), ("per_client", 200)]),
            "sharded" => Params(&[("clients_per_group", 2), ("per_client", 20)]),
            "txn" => Params(&[("clients", 2), ("per_client", 8)]),
            "adaptive" => Params(&[("per_client", 30), ("repeats", 1), ("skew_per_client", 24)]),
            "parallel" => Params(&[
                ("commands", 24),
                ("block_us", 0),
                ("repeats", 1),
                ("clients", 2),
                ("per_client", 16),
            ]),
            "reconfig" => Params(&[("per_client", 60)]),
            "mc" => Params(&[("state_cap", 500)]),
            other => panic!("no test size for gated experiment `{other}`"),
        }
    }

    /// The JSON keys of every gated family, in order.
    fn golden_keys(label: &str) -> &'static str {
        match label {
            "soak" => {
                "servers clients requests epochs_per_server peak_payloads final_payloads \
                 peak_seen final_seen payloads_pruned reply_messages_sent replies_sent \
                 order_messages_sent consensus_allocations consensus_messages consistent \
                 divergences"
            }
            "recovery" => {
                "servers clients requests consistent rejoined catch_up_snapshot_position \
                 catch_up_delta rejoined_settled peak_a_delivered peak_undo_depth snapshots \
                 compacted catch_up_requests catch_up_replies payload_fetches divergences"
            }
            "sharded" => {
                "groups servers_per_group clients_per_group requests requests_per_second \
                 mean_latency_ms misroutes peak_seen per_group_order_messages \
                 per_group_reply_messages per_group_wire_sent consistent"
            }
            "txn" => {
                "groups clients txns multi_group_txns commits_per_second mean_commit_latency_ms \
                 p99_commit_latency_ms txn_prepares misroutes fastpath_wires_txn \
                 fastpath_wires_plain fastpath_txn_prepares fastpath_latency_ms \
                 plain_latency_ms consistent"
            }
            "adaptive" => {
                "protocol clients requests wall_ms requests_per_second mean_latency_ms \
                 p50_latency_ms p95_latency_ms p99_latency_ms order_messages_sent \
                 reply_messages_sent effective_batch_peak batch_target target_raises \
                 target_drops deadline_flushes client_window_peak consistent"
            }
            "adaptive_skew" => {
                "groups clients requests per_group_requests per_group_batch_target \
                 per_group_effective_batch per_group_target_raises misroutes consistent"
            }
            "parallel" => {
                "workload workers commands spin_rounds block_us waves max_wave wall_ms \
                 ops_per_sec matches_serial"
            }
            "parallel_cluster" => {
                "servers clients requests workers wave_commands apply_ns serial_apply_ns \
                 digests_match responses_match consistent"
            }
            "mc" => {
                "label scenario por dedup states_explored transitions pruned_sleep pruned_dedup \
                 goal_states deadlocks truncated violations violation_kind trace_replays wall_ms"
            }
            "reconfig" => {
                "scenario requests completed_run consistent reconfigs_applied rejoined \
                 catch_up_replies redirected migrate_state_wires duplicates divergences \
                 digests_match wall_ms"
            }
            other => panic!("no golden keys for family `{other}`"),
        }
    }

    /// Writes `value` into the cell a metric names, keeping the cell's type.
    fn set_metric(row: &mut Row, metric: &str, value: f64) {
        let (name, index) = match metric.split_once('[') {
            Some((name, index)) => (name, index.trim_end_matches(']').parse::<usize>().ok()),
            None => (metric, None),
        };
        let cell = match (row.cell(name).clone(), index) {
            (Cell::U64(_), None) => Cell::U64(value.max(0.0) as u64),
            (Cell::F64(_), None) => Cell::F64(value),
            (Cell::Bool(_), None) => Cell::Bool(value != 0.0),
            (Cell::List(mut items), Some(i)) => {
                items[i] = value.max(0.0) as u64;
                Cell::List(items)
            }
            (other, _) => panic!("cannot perturb `{metric}`: {other:?}"),
        };
        row.set(name, cell);
    }

    /// For every bound of every experiment: a passing row set, perturbed in
    /// the one cell the bound constrains so as to break it, yields that
    /// bound's violation — and no violation about any other cell. (Two
    /// bounds on the same cell can be entangled: a throughput pushed below
    /// `1.15 × unbatched` is necessarily below `0.5 × best static` too.) So
    /// no limit was lost, inverted or attached to the wrong metric.
    #[test]
    fn every_bound_is_violated_by_its_own_mutation_and_only_there() {
        for experiment in EXPERIMENTS.iter().filter(|e| !e.bounds.is_empty()) {
            let params = test_size(experiment.name);
            let mut rows = (experiment.run)(&params);
            for row in &rows {
                assert_eq!(keys(row), golden_keys(row.label), "{} row shape", row.label);
            }
            if experiment.name == "parallel" {
                // Host time decides the speed-up cells; pin them.
                for (key, ops) in [("disjoint@4", 2_000.0), ("conflicting@4", 1_000.0)] {
                    let at = rows.iter().position(|r| r.key == key).expect("row");
                    rows[at].set("ops_per_sec", ops);
                    rows[at - 1].set("ops_per_sec", 1_000.0);
                }
            }
            let clean = violations(experiment.bounds, &params, &rows);
            assert!(clean.is_empty(), "{}: {clean:?}", experiment.name);

            for (i, bound) in experiment.bounds.iter().enumerate() {
                let at = rows.iter().position(|row| bound.rows.matches(row));
                let at =
                    at.unwrap_or_else(|| panic!("{}: bound {i} selects no row", experiment.name));
                let mut mutated = rows.clone();
                if let Limit::Text(_) = bound.limit {
                    mutated[at].set(bound.metric, "mutated");
                } else {
                    let ctx = Ctx {
                        params: &params,
                        row: &rows[at],
                        rows: &rows,
                    };
                    let limit = bound.limit.value(&ctx);
                    let broken = match bound.op {
                        Op::Eq if limit >= 1.0 => limit - 1.0,
                        Op::Eq | Op::Le => limit + 1.0,
                        Op::Ge => limit - 1.0,
                        Op::Ne | Op::Lt | Op::Gt => limit,
                    };
                    set_metric(&mut mutated[at], bound.metric, broken);
                }
                let found = check(experiment.bounds, &params, &mutated);
                let what = format!("{} bound {i} (`{}`)", experiment.name, bound.metric);
                assert!(
                    found.iter().any(|v| v.bound == i),
                    "{what} survived its mutation: {found:?}"
                );
                for violation in &found {
                    let other = &experiment.bounds[violation.bound];
                    assert!(
                        other.metric == bound.metric && other.rows.matches(&rows[at]),
                        "{what}: collateral violation {violation:?}"
                    );
                }
            }
        }
    }
}
