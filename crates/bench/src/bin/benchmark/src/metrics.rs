//! The metric catalogue — every name `BENCHMARK.json` lists, with its unit —
//! and how each figure is worked out from a run's rounds.

use crate::round::Round;
use crate::stats;
use crate::timed::{Kind, Role, Trace};

/// What a user of the group sees. Measured on untraced rounds only; each is
/// the median over the run's rounds.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("lat_p50_us", "us"),
    ("lat_p99_us", "us"),
    ("cpu_us_per_req", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Single layers, from the traced rounds, the rounds' own counters and the
/// timed loops of `micro`. A metric that does not apply to a workload is 0.
pub const PER_LAYER: [(&str, &str); 64] = [
    // Figures of the whole group that are not end-to-end metrics because
    // they are 0, constant for a seed, or apply to some workloads only.
    ("host_us_per_req", "us"),
    ("unavail_sim_ms", "ms"),
    ("failed_share", "share"),
    ("lat_p999_us", "us"),
    ("slo_miss_share", "share"),
    ("rtnet.hop_ns", "ns"),
    ("rtnet.dispatch_wait_us", "us"),
    ("rtnet.gen_late_p99_us", "us"),
    ("simnet.event_ns", "ns"),
    ("simnet.events_per_req", "count"),
    ("server.on_request_ns", "ns"),
    ("server.on_order_ns", "ns"),
    ("server.on_phase2_ns", "ns"),
    ("server.on_consensus_ns", "ns"),
    ("server.on_fd_ns", "ns"),
    ("server.on_tick_ns", "ns"),
    ("server.on_flush_ns", "ns"),
    ("server.on_catchup_ns", "ns"),
    ("server.calls_per_req", "count"),
    ("server.seq_busy_share", "share"),
    ("wires.request_per_req", "count"),
    ("wires.order_per_req", "count"),
    ("wires.replies_per_req", "count"),
    ("wires.consensus_per_epoch", "count"),
    ("wires.fd_per_s", "1/s"),
    ("order.batch_p50", "count"),
    ("order.batch_max", "count"),
    ("replies.items_per_wire", "count"),
    ("adaptive.decide_ns", "ns"),
    ("adaptive.deadline_flush_share", "share"),
    ("sequence.subtract_ns.n8", "ns"),
    ("sequence.subtract_ns.n64", "ns"),
    ("sequence.subtract_ns.n512", "ns"),
    ("sequence.dedup_append_ns.n8", "ns"),
    ("sequence.dedup_append_ns.n64", "ns"),
    ("sequence.dedup_append_ns.n512", "ns"),
    ("sequence.intersection_ns.n8", "ns"),
    ("sequence.intersection_ns.n64", "ns"),
    ("sequence.intersection_ns.n512", "ns"),
    ("sequence.common_prefix_ns.n8", "ns"),
    ("sequence.common_prefix_ns.n64", "ns"),
    ("sequence.common_prefix_ns.n512", "ns"),
    ("cnsv_order.outcome_ns.n64", "ns"),
    ("channels.multicast_ns", "ns"),
    ("channels.on_wire_ns", "ns"),
    ("channels.on_wire_dup_ns", "ns"),
    ("consensus.instance_ns", "ns"),
    ("consensus.wires_per_instance", "count"),
    ("fd.on_heartbeat_ns", "ns"),
    ("client.on_replies_ns", "ns"),
    ("client.submit_ns", "ns"),
    ("client.quorum_absorb_ns", "ns"),
    ("client.busy_share", "share"),
    ("apps.kv_apply_ns", "ns"),
    ("apps.kv_snapshot_ns", "ns"),
    ("shard.route_ns", "ns"),
    ("sharded.client_submit_ns", "ns"),
    ("txn.prepares_per_txn", "count"),
    ("txn.wires_per_txn", "count"),
    ("txn.fastpath_share", "share"),
    ("recovery.catchup_sim_ms", "ms"),
    ("recovery.catchup_wires", "count"),
    ("trace.overhead_share", "share"),
    ("trace.unattributed_share", "share"),
];

/// A reply later than this after it was due misses the service-level
/// objective `slo_miss_share` counts.
const SLO_US: f64 = 5_000.0;

/// How a workload's end-to-end figure relates to its handlers' times.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Family {
    /// Latency-bound: requests cross idle threads one at a time.
    RtOpen,
    /// Throughput-bound by the busiest of four threads.
    RtClosed,
    /// One thread does everything; host time is the sum of all handlers.
    Sim,
}

fn median_of(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    if rounds.is_empty() {
        return 0.0;
    }
    stats::median(&rounds.iter().map(f).collect::<Vec<_>>())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// CPU time per completed request. `/proc` counts CPU time in 10 ms ticks,
/// one or two percent of a round.
fn cpu_us_per_req(rounds: &[Round]) -> f64 {
    median_of(rounds, |r| ratio(r.cpu_s * 1e6, r.completed as f64))
}

/// `values` in the order of `catalogue`, each with its unit. Every metric of
/// the catalogue must have been worked out, applicable or not.
pub fn labelled(
    catalogue: &'static [(&'static str, &'static str)],
    values: &[(String, f64)],
) -> Vec<(&'static str, f64, &'static str)> {
    catalogue
        .iter()
        .map(|&(name, unit)| {
            let (_, value) = values
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("metric {name} was not computed"));
            (name, *value, unit)
        })
        .collect()
}

pub fn end_to_end(rounds: &[Round]) -> Vec<(String, f64)> {
    [
        ("setup_s", median_of(rounds, |r| r.setup_s)),
        ("throughput_rps", median_of(rounds, Round::throughput_rps)),
        ("lat_p50_us", median_of(rounds, |r| r.latency_quantile(0.5))),
        (
            "lat_p99_us",
            median_of(rounds, |r| r.latency_quantile(0.99)),
        ),
        ("cpu_us_per_req", cpu_us_per_req(rounds)),
        ("peak_rss_mb", median_of(rounds, |r| r.peak_rss_mb)),
    ]
    .map(|(name, value)| (name.to_string(), value))
    .to_vec()
}

/// The share of what a request costs that no traced handler accounts for.
///
/// On `sim_*` the cost is host time per request, and the simulator's own
/// per-event cost (timed on handlers that do nothing) is counted as
/// explained: what remains is unexplained. On `rt_*` the cost is CPU time
/// per request, and what the handlers do not use is what `rtnet` itself
/// spends carrying messages and waking threads.
fn unattributed_share(
    family: Family,
    untraced: &[Round],
    trace: &Trace,
    traced_done: f64,
    event_ns: f64,
) -> f64 {
    let handlers_ns = ratio(
        (trace.server.busy_ns() + trace.client.busy_ns()) as f64,
        traced_done,
    );
    let (explained_ns, actual_ns) = match family {
        Family::Sim => {
            let events = median_of(untraced, |r| {
                r.layer_value("simnet.events_per_req").unwrap_or(0.0)
            });
            (
                handlers_ns + events * event_ns,
                1e9 / median_of(untraced, Round::throughput_rps),
            )
        }
        Family::RtOpen | Family::RtClosed => (handlers_ns, cpu_us_per_req(untraced) * 1e3),
    };
    1.0 - ratio(explained_ns, actual_ns)
}

/// The handlers one request crosses on the optimistic path.
fn critical_handlers_us(trace: &Trace) -> f64 {
    (trace.client.mean_ns(Kind::Arrival)
        + trace.server.mean_ns(Kind::Request)
        + trace.server.mean_ns(Kind::Order)
        + trace.client.mean_ns(Kind::Replies))
        / 1e3
}

/// The largest of `cost(busy_ns, calls)` over the processes of the trace
/// that `include` admits, each process's incarnations and rounds added up.
fn busiest(trace: &Trace, include: impl Fn(Role) -> bool, cost: impl Fn(u64, u64) -> f64) -> f64 {
    let mut per_process: Vec<(usize, u64, u64)> = Vec::new();
    for &(role, id, busy, calls) in &trace.per_process {
        if !include(role) {
            continue;
        }
        match per_process.iter_mut().find(|(p, _, _)| *p == id.index()) {
            Some(entry) => {
                entry.1 += busy;
                entry.2 += calls;
            }
            None => per_process.push((id.index(), busy, calls)),
        }
    }
    per_process
        .iter()
        .map(|&(_, busy, calls)| cost(busy, calls))
        .fold(0.0, f64::max)
}

/// Every per-layer metric of a traced run, by name.
pub fn per_layer(
    family: Family,
    untraced: &[Round],
    traced: &[Round],
    trace: &Trace,
    micro: &[(String, f64)],
) -> Vec<(String, f64)> {
    let micro_value = |name: &str| {
        micro
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let done: f64 = traced.iter().map(|r| r.completed as f64).sum();
    let wall: f64 = traced.iter().map(|r| r.wall_s).sum();
    let clock: f64 = traced.iter().map(|r| r.clock_s).sum();
    let epochs: f64 = traced.iter().map(|r| r.epochs as f64).sum();
    let (server, client) = (&trace.server, &trace.client);
    let sent = |kind: Kind| (server.sent[kind as usize] + client.sent[kind as usize]) as f64;
    let all_wires: f64 = Kind::ALL.iter().map(|&k| sent(k)).sum();
    let catch_up_calls =
        server.calls[Kind::CatchUp as usize] + server.calls[Kind::CatchUpTimer as usize];
    let catch_up_ns = server.ns[Kind::CatchUp as usize] + server.ns[Kind::CatchUpTimer as usize];
    let server_busy_max = busiest(trace, |role| role == Role::Server, |busy, _| busy as f64);
    // Tracing overhead on the figure the workload is about: time per
    // request where that is what varies, CPU per request on the open loops,
    // whose rate is fixed by the generator.
    let overhead = match family {
        Family::RtOpen => ratio(cpu_us_per_req(traced), cpu_us_per_req(untraced)) - 1.0,
        Family::RtClosed | Family::Sim => {
            ratio(
                median_of(untraced, Round::throughput_rps),
                median_of(traced, Round::throughput_rps),
            ) - 1.0
        }
    };
    let every_round: Vec<&Round> = untraced.iter().chain(traced).collect();
    let from_rounds = |name: &str| {
        let values: Vec<f64> = every_round
            .iter()
            .filter_map(|r| r.layer_value(name))
            .collect();
        if values.is_empty() {
            0.0
        } else {
            stats::median(&values)
        }
    };
    let event_ns = micro_value("simnet.event_ns");
    let is_rt = family != Family::Sim;

    let on_txn_workload = from_rounds("txn.fastpath_share") > 0.0;

    let mut out: Vec<(String, f64)> = vec![
        (
            "rtnet.dispatch_wait_us",
            if is_rt {
                median_of(traced, |r| r.latency_quantile(0.5)) - critical_handlers_us(trace)
            } else {
                0.0
            },
        ),
        (
            "rtnet.gen_late_p99_us",
            from_rounds("rtnet.gen_late_p99_us"),
        ),
        (
            "simnet.events_per_req",
            from_rounds("simnet.events_per_req"),
        ),
        ("server.on_request_ns", server.mean_ns(Kind::Request)),
        ("server.on_order_ns", server.mean_ns(Kind::Order)),
        ("server.on_phase2_ns", server.mean_ns(Kind::PhaseII)),
        ("server.on_consensus_ns", server.mean_ns(Kind::Consensus)),
        ("server.on_fd_ns", server.mean_ns(Kind::Fd)),
        ("server.on_tick_ns", server.mean_ns(Kind::Tick)),
        ("server.on_flush_ns", server.mean_ns(Kind::Flush)),
        (
            "server.on_catchup_ns",
            ratio(catch_up_ns as f64, catch_up_calls as f64),
        ),
        (
            "server.calls_per_req",
            ratio(server.total_calls() as f64, done),
        ),
        ("server.seq_busy_share", ratio(server_busy_max / 1e9, wall)),
        ("wires.request_per_req", ratio(sent(Kind::Request), done)),
        ("wires.order_per_req", ratio(sent(Kind::Order), done)),
        ("wires.replies_per_req", ratio(sent(Kind::Replies), done)),
        (
            "wires.consensus_per_epoch",
            ratio(sent(Kind::Consensus), epochs),
        ),
        ("wires.fd_per_s", ratio(sent(Kind::Fd), clock)),
        ("order.batch_p50", server.order_size_quantile(0.5)),
        ("order.batch_max", server.order_size_quantile(1.0)),
        (
            "replies.items_per_wire",
            ratio(server.reply_items as f64, sent(Kind::Replies)),
        ),
        (
            "adaptive.deadline_flush_share",
            ratio(server.order_from_flush as f64, sent(Kind::Order)),
        ),
        ("client.on_replies_ns", client.mean_ns(Kind::Replies)),
        (
            "client.busy_share",
            ratio(client.busy_ns() as f64 / 1e9, wall),
        ),
        (
            "host_us_per_req",
            if is_rt {
                0.0
            } else {
                1e6 / median_of(untraced, Round::throughput_rps)
            },
        ),
        ("unavail_sim_ms", from_rounds("unavail_sim_ms")),
        (
            "failed_share",
            ratio(
                every_round.iter().map(|r| r.failed as f64).sum(),
                every_round.iter().map(|r| r.attempted as f64).sum(),
            ),
        ),
        (
            "lat_p999_us",
            median_of(untraced, |r| r.latency_quantile(0.999)),
        ),
        (
            "slo_miss_share",
            median_of(untraced, |r| {
                let missed = r.latency_us.iter().filter(|&&l| l > SLO_US).count();
                ratio(
                    (missed + r.attempted - r.completed) as f64,
                    r.attempted as f64,
                )
            }),
        ),
        ("txn.prepares_per_txn", from_rounds("txn.prepares_per_txn")),
        (
            "txn.wires_per_txn",
            if on_txn_workload {
                ratio(all_wires, done)
            } else {
                0.0
            },
        ),
        ("txn.fastpath_share", from_rounds("txn.fastpath_share")),
        (
            "recovery.catchup_sim_ms",
            from_rounds("recovery.catchup_sim_ms"),
        ),
        (
            "recovery.catchup_wires",
            ratio(sent(Kind::CatchUp), traced.len() as f64),
        ),
        ("trace.overhead_share", overhead),
        (
            "trace.unattributed_share",
            unattributed_share(family, untraced, trace, done, event_ns),
        ),
    ]
    .into_iter()
    .map(|(name, value)| (name.to_string(), value))
    .collect();
    out.extend(micro.iter().cloned());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    /// `BENCHMARK.json` and the catalogue here must name the same metrics
    /// with the same units; the driver refuses a run that prints any other.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec = json::parse(&text).expect("valid JSON");
        let listed = |section: &str| -> Vec<(String, String)> {
            spec.get(section)
                .and_then(Json::as_array)
                .expect("a list of metrics")
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }
}
