//! The repository's benchmark: one OAR group measured end to end and layer
//! by layer, from outside the program. See `README.md` in this directory.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//! benchmark compare <old.jsonl> <new.jsonl> [--bounds <BENCHMARK.json>]
//! ```

mod compare;
mod gen;
mod json;
mod metrics;
mod micro;
mod oracle;
mod round;
mod rt;
mod sim;
mod stats;
mod timed;

use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use metrics::Family;
use round::Round;
use timed::{Trace, TraceSink};

/// One workload: how a round of it is run at full size — about a second on
/// `rt_*`, half a second on `sim_*`, so that a run has twenty rounds or more
/// and a stall of the box spoils one of them, not the median.
struct Workload {
    name: &'static str,
    family: Family,
    about: &'static str,
    /// Runs one round on `seed` with `scale` (0..=1) of the full request
    /// count, traced when a sink is given.
    round: fn(f64, u64, Option<&TraceSink>) -> Round,
}

fn scaled(full: usize, scale: f64) -> usize {
    ((full as f64 * scale) as usize).max(64)
}

const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "rt_open_lo",
        family: Family::RtOpen,
        about: "rtnet, open loop, one request every 100 us (10 000/s); no injected delay",
        round: |scale, seed, sink| {
            let load = rt::Load::Open {
                interarrival_us: 100,
            };
            rt::round(load, scaled(10_000, scale), seed, sink)
        },
    },
    Workload {
        name: "rt_open_hi",
        family: Family::RtOpen,
        about: "rtnet, open loop, one request every 33 us (30 303/s); no injected delay",
        round: |scale, seed, sink| {
            let load = rt::Load::Open {
                interarrival_us: 33,
            };
            rt::round(load, scaled(30_000, scale), seed, sink)
        },
    },
    Workload {
        name: "rt_closed_sat",
        family: Family::RtClosed,
        about: "rtnet, one closed-loop client with 16 requests outstanding; no injected delay",
        round: |scale, seed, sink| {
            let load = rt::Load::Closed { pipeline: 16 };
            rt::round(load, scaled(40_000, scale), seed, sink)
        },
    },
    Workload {
        name: "sim_churn",
        family: Family::Sim,
        about: "simnet lan(), 8 closed-loop clients x 4 outstanding, epoch cut every 8 \
                requests, sequencer crash and blank restart",
        round: |scale, seed, sink| sim::churn_round(scaled(1_250, scale), seed, sink),
    },
    Workload {
        name: "sim_sharded_txn",
        family: Family::Sim,
        about: "simnet lan(), 4 groups x 3 servers, 4 transactional clients x 4 \
                outstanding, half the transactions cross-group",
        round: |scale, seed, sink| sim::txn_round(scaled(4_000, scale), seed, sink),
    },
];

/// Rounds are full size from this many seconds of measuring up; shorter
/// runs (smoke tests) shrink them so several still fit.
const FULL_SIZE_SECONDS: f64 = 15.0;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes a whole number")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be within (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--out" => out = Some(value.to_string()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out <file>]\n\
         \x20      benchmark compare <old.jsonl> <new.jsonl> [--bounds <BENCHMARK.json>]",
        names.join("|")
    )
}

/// Where the trace file goes: next to the build, which is inside the
/// checkout wherever the build directory was put.
fn trace_path(workload: &str) -> Option<std::path::PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let target = exe.parent()?.parent()?;
    Some(
        target
            .join("benchmark")
            .join(format!("trace-{workload}.json")),
    )
}

fn write_trace(workload: &str, trace: &Trace) -> std::io::Result<std::path::PathBuf> {
    let path = trace_path(workload).ok_or_else(|| std::io::Error::other("no build directory"))?;
    std::fs::create_dir_all(path.parent().expect("joined above"))?;
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(
        file,
        "{{\"workload\": {}, \"spans\": [",
        json::quote(workload)
    )?;
    for (i, span) in trace.spans.iter().enumerate() {
        let request = span
            .request
            .map_or("null".to_string(), |(c, s)| format!("\"m{c}.{s}\""));
        writeln!(
            file,
            "{}{{\"process\": {}, \"role\": \"{:?}\", \"kind\": \"{:?}\", \"start_ns\": {}, \
             \"end_ns\": {}, \"request\": {}}}",
            if i == 0 { "" } else { "," },
            span.process.index(),
            span.role,
            span.kind,
            span.start_ns,
            span.end_ns,
            request
        )?;
    }
    writeln!(file, "]}}")?;
    file.flush()?;
    Ok(path)
}

fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(name),
                json::number(*value),
                json::quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

fn run(args: &Args) -> std::io::Result<bool> {
    let workload = args.workload;
    let scale = (args.seconds / FULL_SIZE_SECONDS).min(1.0);
    println!("workload {}: {}", workload.name, workload.about);
    println!(
        "seed {}, {} s, trace {}, {} hardware threads",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );

    let sink = TraceSink::new();
    let mut untraced: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let started = Instant::now();
    let mut last_round_s = 0.0;
    // A round is started while at least half of it still fits; a traced run
    // alternates plain and traced rounds and needs one of each.
    while untraced.is_empty()
        || (args.trace && traced.is_empty())
        || started.elapsed().as_secs_f64() + last_round_s / 2.0 < args.seconds
    {
        let index = untraced.len() + traced.len();
        let trace_this = args.trace && index % 2 == 1;
        let round_started = Instant::now();
        stats::reset_peak_rss();
        let mut round = (workload.round)(
            scale,
            gen::stream_seed(args.seed, index as u64),
            trace_this.then_some(&sink),
        );
        round.peak_rss_mb = stats::peak_rss_mb();
        last_round_s = round_started.elapsed().as_secs_f64();
        println!(
            "  round {index}{}: {} of {} done, {:.0}/s, p50 {:.0} us, p99 {:.0} us, set-up {:.3} ms",
            if trace_this { " (traced)" } else { "" },
            round.completed,
            round.attempted,
            round.throughput_rps(),
            round.latency_quantile(0.5),
            round.latency_quantile(0.99),
            round.setup_s * 1e3
        );
        for error in &round.errors {
            println!("  VIOLATION: {error}");
        }
        if trace_this {
            traced.push(round);
        } else {
            untraced.push(round);
        }
    }

    let every_round = || untraced.iter().chain(&traced);
    let correct = every_round().all(|r| r.errors.is_empty());
    let attempted: usize = every_round().map(|r| r.attempted).sum();
    let failed: usize = every_round().map(|r| r.failed).sum();
    let samples: usize = untraced.iter().map(|r| r.latency_us.len()).sum();
    println!(
        "{} rounds ({} traced), {samples} latency samples in the untraced rounds, \
         {failed} of {attempted} requests failed",
        untraced.len() + traced.len(),
        traced.len()
    );
    let latest = untraced
        .iter()
        .filter_map(|r| r.layer_value("rtnet.gen_late_p99_us"))
        .reduce(f64::max);
    if let Some(late) = latest.filter(|&late| late > 1_000.0) {
        // Latency counts from the due time, so the delay is charged, but the
        // load arrived in bursts rather than on the schedule it claims.
        println!("GENERATOR LATE: up to {late:.0} us at p99 in a round (limit 1000)");
    }

    let metrics = if args.trace {
        let trace = sink.take();
        let micro = micro::all();
        match write_trace(workload.name, &trace) {
            Ok(path) => println!("{} spans written to {}", trace.spans.len(), path.display()),
            Err(e) => println!("trace file not written: {e}"),
        }
        let values = metrics::per_layer(workload.family, &untraced, &traced, &trace, &micro);
        metrics::labelled(&metrics::PER_LAYER, &values)
    } else {
        metrics::labelled(&metrics::END_TO_END, &metrics::end_to_end(&untraced))
    };
    for (name, value, unit) in &metrics {
        println!("{name:<34} {value:>16.4} {unit}");
    }

    let line = result_line(correct, attempted.max(1), failed, &metrics);
    if let Some(path) = &args.out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        // The same object with the run's identity in front, one per line.
        writeln!(
            file,
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, {}",
            json::quote(workload.name),
            args.seed,
            u8::from(args.trace),
            &line[1..]
        )?;
    }
    println!("{line}");
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::main(&args[1..]) {
            Ok(regressed) => ExitCode::from(u8::from(regressed)),
            Err(e) => {
                eprintln!("{e}\n{}", usage());
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
