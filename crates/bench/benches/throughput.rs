//! T-THROUGHPUT bench: wall-clock cost of the closed-loop throughput workload
//! as the number of concurrent clients grows, for the unbatched (`max_batch =
//! 1`, the paper's Fig. 6 behaviour), batched-sequencer, and batched +
//! pipelined (reply-coalescing) variants. Each point also records the
//! protocol's traffic counters — the integer view of the harness row of the
//! same deployment — so the `BENCH_throughput.json` trajectory shows the
//! amortisation, not just the timing. The cross-protocol comparison is
//! produced by `harness -- throughput`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use oar::{AdaptiveConfig, OarConfig};
use oar_bench::experiments::{
    build_sharded_cluster, build_throughput_cluster, build_txn_cluster, sharded_experiment,
    txn_experiment, with_metrics, BATCHED_MAX_BATCH, PIPELINE_DEPTH,
};
use oar_bench::row::Row;
use oar_simnet::SimTime;

const SEED: u64 = 11;

/// Times only the protocol run; the consistency checks of the harness
/// experiment are exercised by `cargo test`, not inside the measured loop.
fn run_cluster(
    oar: OarConfig,
    clients: usize,
    requests_per_client: usize,
    pipeline: usize,
) -> usize {
    let mut cluster =
        build_throughput_cluster(oar, 3, clients, requests_per_client, pipeline, SEED);
    assert!(cluster.run_to_completion(SimTime::from_secs(600)));
    cluster.completed().len()
}

/// One un-timed instrumentation run of the same deployment, returning the
/// traffic counters attached to the bench point. Latency percentiles ride
/// along (as integer µs) so the `BENCH_throughput.json` trajectory shows the
/// latency *cost* of each batching setting next to its wire savings; adaptive
/// runs additionally record their convergence counters.
fn traffic_counters(
    oar: OarConfig,
    clients: usize,
    requests_per_client: usize,
    pipeline: usize,
) -> Vec<(String, u64)> {
    let mut cluster =
        build_throughput_cluster(oar, 3, clients, requests_per_client, pipeline, SEED);
    assert!(cluster.run_to_completion(SimTime::from_secs(600)));
    let mut names = vec![
        "order_messages_sent",
        "reply_messages_sent",
        "replies_sent",
        "peak_payloads",
        "apply_ns",
        "p50_latency_ms",
        "p95_latency_ms",
        "p99_latency_ms",
    ];
    if oar.adaptive.is_some() {
        names.extend([
            "effective_batch_peak",
            "target_raises",
            "target_drops",
            "deadline_flushes",
            "client_window_peak",
        ]);
    }
    with_metrics(Row::new("bench", "point"), &cluster, &names).counters()
}

/// Times one sharded run to completion (per-group checks live in the tests,
/// outside the measured loop).
fn run_sharded(groups: usize, clients_per_group: usize, requests_per_client: usize) -> usize {
    let mut cluster = build_sharded_cluster(groups, clients_per_group, requests_per_client, SEED);
    assert!(cluster.run_to_completion(SimTime::from_secs(600)));
    cluster.completed().len()
}

/// Times one transactional run to completion (atomicity and consistency
/// checks live in the tests and the harness gate, outside the measured
/// loop).
fn run_txn(groups: usize, clients: usize, txns_per_client: usize, multi_group: bool) -> usize {
    let mut cluster = build_txn_cluster(groups, clients, txns_per_client, multi_group, SEED);
    assert!(cluster.run_to_completion(SimTime::from_secs(600)));
    cluster.completed().len()
}

fn bench_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("oar_throughput");
    group.sample_size(10);
    let requests_per_client = 25usize;
    for &clients in &[1usize, 2, 4, 8] {
        let variants: [(&str, OarConfig, usize); 4] = [
            ("unbatched", OarConfig::default(), 1),
            (
                "batched8",
                OarConfig::builder().max_batch(BATCHED_MAX_BATCH).build(),
                1,
            ),
            (
                // Pipelined clients + window-sized sequencer batches: the
                // configuration whose replies coalesce into ReplyBatch wires.
                "replybatch8",
                OarConfig::builder()
                    .max_batch(PIPELINE_DEPTH * clients)
                    .build(),
                PIPELINE_DEPTH,
            ),
            (
                // The load-driven controller: batch threshold and client
                // windows adapt per run instead of being configured.
                "adaptive",
                OarConfig::builder()
                    .adaptive(AdaptiveConfig::default())
                    .build(),
                PIPELINE_DEPTH,
            ),
        ];
        group.throughput(Throughput::Elements((clients * requests_per_client) as u64));
        for (name, oar, pipeline) in &variants {
            group.bench_with_input(BenchmarkId::new(*name, clients), &clients, |b, &clients| {
                b.iter(|| run_cluster(*oar, clients, requests_per_client, *pipeline))
            });
            group.attach_counters(traffic_counters(
                *oar,
                clients,
                requests_per_client,
                *pipeline,
            ));
        }
    }
    group.finish();

    // Sharded deployments: aggregate throughput at fixed per-group load as
    // the key space is partitioned over 1, 2 and 4 groups.
    let mut sharded = c.benchmark_group("sharded");
    sharded.sample_size(10);
    let clients_per_group = 2usize;
    for &groups in &[1usize, 2, 4] {
        sharded.throughput(Throughput::Elements(
            (groups * clients_per_group * requests_per_client) as u64,
        ));
        sharded.bench_with_input(BenchmarkId::new("hash", groups), &groups, |b, &groups| {
            b.iter(|| run_sharded(groups, clients_per_group, requests_per_client))
        });
        // The T-SHARD row of the same deployment: aggregate misroutes (must
        // stay 0) plus the per-group wire counters, so the trajectory
        // records how ordering and reply traffic split across sequencers.
        let rows = sharded_experiment(&[groups], clients_per_group, requests_per_client, SEED);
        sharded.attach_counters(rows[0].counters());
    }
    sharded.finish();

    // Multi-key transactions: fast-path (single-group) and spanning
    // (multi-group) commit cost as the group count grows, with the
    // wire-identity counters attached to every point.
    let mut txn = c.benchmark_group("txn");
    txn.sample_size(10);
    let txn_clients = 2usize;
    let txns_per_client = 20usize;
    for &groups in &[1usize, 2, 4] {
        txn.throughput(Throughput::Elements((txn_clients * txns_per_client) as u64));
        // The T-TXN row of the same deployments rides on both points: the
        // fast-path wire-identity pair (the two wire counters must stay
        // equal, the envelope counter 0) and the multi-group commit counts.
        let counters = txn_experiment(&[groups], txn_clients, txns_per_client, SEED)[0].counters();
        txn.bench_with_input(
            BenchmarkId::new("fastpath", groups),
            &groups,
            |b, &groups| b.iter(|| run_txn(groups, txn_clients, txns_per_client, false)),
        );
        txn.attach_counters(counters.clone());
        txn.bench_with_input(BenchmarkId::new("multi", groups), &groups, |b, &groups| {
            b.iter(|| run_txn(groups, txn_clients, txns_per_client, true))
        });
        txn.attach_counters(counters);
    }
    txn.finish();
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);
