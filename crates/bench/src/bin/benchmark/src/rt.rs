//! The `rt_*` workloads: one group of three servers on `oar-rtnet`, one OS
//! thread per server, and ONE client thread generating all the load.
//!
//! rtnet injects no message delay, so every latency here is processor and
//! scheduler time only — three thread hops and the handlers between them.

use std::time::{Duration, Instant};

use oar::{ClientConfig, CompletedRequest, OarClient, OpenLoopClient};
use oar_apps::{KvCommand, KvMachine, KvResponse};
use oar_rtnet::{RtNet, RtReport, RunOptions};
use oar_simnet::{Process, ProcessId, SimDuration};

use crate::gen;
use crate::oracle::{self, Server};
use crate::round::{epochs_closed, group_config, Round, REPLICAS};
use crate::stats;
use crate::timed::{Role, Timed, TraceSink, Wire};

/// How the one client offers its load.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// One request every `interarrival_us`, whether or not earlier ones
    /// were answered.
    Open { interarrival_us: u64 },
    /// At most `pipeline` requests outstanding; the next is sent when a
    /// reply is adopted.
    Closed { pipeline: usize },
}

/// A request still unanswered this long after the last one was due (open)
/// or after the run started (closed) counts as failed and ends the round.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);
const CLOSED_DEADLINE: Duration = Duration::from_secs(90);

fn add<P>(
    net: &mut RtNet<Wire>,
    sink: Option<&TraceSink>,
    role: Role,
    process: P,
    done: impl Fn(&P) -> bool + Send + 'static,
) -> ProcessId
where
    P: Process<Wire> + Send + 'static,
{
    match sink {
        Some(sink) => {
            let id = ProcessId::new(net.num_processes());
            net.add_process_until(sink.wrap(role, id, process), move |t: &Timed<P>| {
                done(&t.inner)
            })
        }
        None => net.add_process_until(process, done),
    }
}

fn get<P: 'static>(report: &RtReport<Wire>, id: ProcessId, traced: bool) -> &P {
    if traced {
        &report.process_ref::<Timed<P>>(id).inner
    } else {
        report.process_ref::<P>(id)
    }
}

/// One round: `requests` seeded commands through a fresh group.
pub fn round(load: Load, requests: usize, seed: u64, sink: Option<&TraceSink>) -> Round {
    let commands = gen::commands(seed, requests);
    let workload = commands.clone();

    let setup_start = Instant::now();
    let mut net: RtNet<Wire> = RtNet::new(seed);
    let servers: Vec<ProcessId> = (0..REPLICAS).map(ProcessId::new).collect();
    // The simulator-tuned 25 ms failure-detector timeout would suspect a
    // server whose thread the OS descheduled; nothing fails in these runs.
    let config = group_config(256)
        .fd_timeout(SimDuration::from_millis(500))
        .build();
    for &id in &servers {
        let server = Server::new(id, servers.clone(), config, KvMachine::new());
        // The round ends when every replica has applied every request, so
        // the oracle compares complete states.
        add(&mut net, sink, Role::Server, server, move |s: &Server| {
            s.state_machine().operations() >= requests as u64
        });
    }
    let client_id = ProcessId::new(REPLICAS);
    let deadline = match load {
        Load::Open { interarrival_us } => {
            let client = OpenLoopClient::<KvMachine>::new(
                client_id,
                servers.clone(),
                workload,
                SimDuration::from_micros(interarrival_us),
                ClientConfig::default(),
            );
            add(&mut net, sink, Role::Client, client, |c| c.is_done());
            Duration::from_micros(interarrival_us * requests as u64) + DRAIN_DEADLINE
        }
        Load::Closed { pipeline } => {
            let client = OarClient::<KvMachine>::new(
                client_id,
                servers.clone(),
                workload,
                ClientConfig::builder().pipeline(pipeline).build(),
            );
            add(&mut net, sink, Role::Client, client, |c| c.is_done());
            CLOSED_DEADLINE
        }
    };
    let built = setup_start.elapsed();
    let cpu_before = stats::cpu_time();
    let report = net.run(RunOptions {
        max_wall: deadline,
        grace: Duration::ZERO,
        poll: Duration::from_millis(1),
    });
    let cpu_s = (stats::cpu_time() - cpu_before).as_secs_f64();

    let traced = sink.is_some();
    let completed: &[CompletedRequest<KvResponse>] = match load {
        Load::Open { .. } => {
            get::<OpenLoopClient<KvMachine>>(&report, client_id, traced).completed()
        }
        Load::Closed { .. } => get::<OarClient<KvMachine>>(&report, client_id, traced).completed(),
    };
    let replicas: Vec<&Server> = servers
        .iter()
        .map(|&id| get::<Server>(&report, id, traced))
        .collect();
    let commands: &[KvCommand] = &commands;
    let (mut errors, failed) = oracle::check_group(&replicas, &[commands], &[completed]);
    if !report.completed {
        errors.push(format!(
            "{} of {requests} requests answered when the drain deadline passed",
            completed.len()
        ));
    }

    let first_sent = completed.iter().map(|c| c.sent_at).min();
    let last_done = completed.iter().map(|c| c.completed_at).max();
    let (Some(first_sent), Some(last_done)) = (first_sent, last_done) else {
        return Round {
            attempted: requests,
            failed: requests,
            errors,
            ..Round::default()
        };
    };
    let mut layer = Vec::new();
    let mut latency_us: Vec<f64> = match load {
        Load::Open { interarrival_us } => {
            // Latency counts from when a request was DUE, not from the
            // (possibly late, catch-up) send: a stall of the generator or of
            // the group delays every request behind it, and this is what
            // makes that delay visible.
            let due = |c: &CompletedRequest<KvResponse>| {
                first_sent.as_micros() + c.index as u64 * interarrival_us
            };
            let mut late: Vec<f64> = completed
                .iter()
                .map(|c| c.sent_at.as_micros().saturating_sub(due(c)) as f64)
                .collect();
            stats::sort(&mut late);
            layer.push(("rtnet.gen_late_p99_us", stats::quantile_sorted(&late, 0.99)));
            completed
                .iter()
                .map(|c| c.completed_at.as_micros().saturating_sub(due(c)) as f64)
                .collect()
        }
        Load::Closed { .. } => completed
            .iter()
            .map(|c| c.latency().as_micros() as f64)
            .collect(),
    };
    stats::sort(&mut latency_us);
    let wall_s = (last_done.as_micros() - first_sent.as_micros()) as f64 / 1e6;
    Round {
        setup_s: built.as_secs_f64() + first_sent.as_micros() as f64 / 1e6,
        wall_s,
        cpu_s,
        clock_s: wall_s,
        epochs: epochs_closed(&replicas),
        attempted: requests,
        completed: completed.len(),
        failed,
        latency_us,
        errors,
        layer,
        ..Round::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timed::Kind;

    #[test]
    fn a_small_open_loop_round_is_answered_in_full_and_on_time() {
        let load = Load::Open {
            interarrival_us: 200,
        };
        let round = round(load, 1_000, 3, None);
        assert!(round.errors.is_empty(), "{:?}", round.errors);
        assert_eq!((round.completed, round.failed), (1_000, 0));
        // 999 gaps of 200 us: the offered rate, whatever the group's speed.
        assert!((round.wall_s - 0.2).abs() < 0.05, "{}", round.wall_s);
        assert!(round.layer_value("rtnet.gen_late_p99_us").is_some());
    }

    #[test]
    fn a_traced_closed_loop_round_counts_every_wire() {
        let sink = TraceSink::new();
        let round = round(Load::Closed { pipeline: 16 }, 2_000, 3, Some(&sink));
        assert!(round.errors.is_empty(), "{:?}", round.errors);
        assert_eq!(round.completed, 2_000);
        let trace = sink.take();
        // One multicast to three servers per request, each relayed twice.
        assert_eq!(trace.client.sent[Kind::Request as usize], 3 * 2_000);
        assert_eq!(trace.server.sent[Kind::Request as usize], 6 * 2_000);
        assert_eq!(trace.server.calls[Kind::Request as usize], 9 * 2_000);
        assert!(trace.server.reply_items >= 2 * 2_000);
        assert_eq!(trace.per_process.len(), 4);
    }
}
