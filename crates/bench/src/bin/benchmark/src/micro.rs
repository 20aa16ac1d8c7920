//! Per-layer costs the trace cannot see: timed loops over the public
//! functions of each crate, at sizes the traced workloads produce (`Order`
//! batches of a few ids on `rt_open_lo`, tens at saturation, hundreds in an
//! epoch close). They do not depend on the workload; every traced run
//! repeats them so its per-layer table is complete.

use std::collections::{BTreeSet, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

use oar::state_machine::StateMachine;
use oar::{
    cnsv_order_outcome, AdaptiveConfig, BatchController, ClientConfig, CnsvValue, DeliveryKind,
    OarClient, QuorumTracker, Reply, Request, RequestId, ShardRouter, ShardedClient,
};
use oar_apps::{KvCommand, KvMachine, KvResponse};
use oar_channels::{CastWire, ReliableCaster};
use oar_consensus::{ConsensusConfig, ConsensusWire, MajConsensus};
use oar_fd::{FdConfig, FdWire, HeartbeatFd};
use oar_rtnet::{RtNet, RunOptions};
use oar_sequence::{dedup_append, Seq};
use oar_simnet::{
    GroupId, NetConfig, Process, ProcessId, Runtime, SimDuration, SimRng, SimTime, TimerId,
    TimerTag, World,
};

use crate::gen;
use crate::stats;
use crate::timed::Wire;

/// Repetitions of each timed loop; the median is reported.
const REPS: usize = 7;

/// Median over [`REPS`] repetitions of: build an input with `prepare`
/// (untimed), run `work` on it (timed). Returns nanoseconds per unit, where
/// one run of `work` does `units` of them.
fn time_ns<I, O>(
    units: usize,
    mut prepare: impl FnMut() -> I,
    mut work: impl FnMut(I) -> O,
) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let input = prepare();
            let start = Instant::now();
            let output = work(input);
            let elapsed = start.elapsed();
            black_box(output);
            elapsed.as_nanos() as f64 / units as f64
        })
        .collect();
    stats::median(&samples)
}

fn ids(client: usize, range: std::ops::Range<u64>) -> Seq<RequestId> {
    Seq::from(
        range
            .map(|seq| RequestId::new(ProcessId::new(client), seq))
            .collect::<Vec<_>>(),
    )
}

/// `sequence.*` and `cnsv_order.*`: the `Seq` algebra on sequences of
/// request ids, the second operand overlapping the first by half.
fn sequence(out: &mut Vec<(String, f64)>) {
    for n in [8u64, 64, 512] {
        let a = ids(9, 0..n);
        let b = ids(9, n / 2..n + n / 2);
        // A prefix of `a` but for its last element.
        let mut almost = a.as_slice()[..a.len() - 1].to_vec();
        almost.push(RequestId::new(ProcessId::new(8), 0));
        let almost = Seq::from(almost);
        let loops = (32_768 / n) as usize;
        let mut row = |name: &str, ns: f64| out.push((format!("sequence.{name}_ns.n{n}"), ns));
        row(
            "subtract",
            time_ns(
                loops,
                || (),
                |()| {
                    for _ in 0..loops {
                        black_box(black_box(&a).subtract(black_box(&b)));
                    }
                },
            ),
        );
        row(
            "intersection",
            time_ns(
                loops,
                || (),
                |()| {
                    for _ in 0..loops {
                        black_box(black_box(&a).intersection(black_box(&b)));
                    }
                },
            ),
        );
        row(
            "common_prefix",
            time_ns(
                loops,
                || (),
                |()| {
                    for _ in 0..loops {
                        black_box(black_box(&a).common_prefix(black_box(&almost)));
                    }
                },
            ),
        );
        // `dedup_append` consumes its operands; they are cloned untimed.
        row(
            "dedup_append",
            time_ns(
                loops,
                || vec![[a.clone(), b.clone()]; loops],
                |pool| {
                    for pair in pool {
                        black_box(dedup_append(pair));
                    }
                },
            ),
        );
    }
    // One epoch close at three servers: 64 ids delivered by all, the decision
    // carrying each server's (delivered, pending) pair.
    let delivered = ids(9, 0..64);
    let decision: Vec<(ProcessId, CnsvValue)> = (0..3)
        .map(|p| {
            let value = CnsvValue {
                o_delivered: ids(9, 0..64 - 8 * p as u64),
                o_notdelivered: ids(9, 64..72),
            };
            (ProcessId::new(p), value)
        })
        .collect();
    out.push((
        "cnsv_order.outcome_ns.n64".into(),
        time_ns(
            500,
            || (),
            |()| {
                for _ in 0..500 {
                    black_box(cnsv_order_outcome(
                        black_box(&delivered),
                        black_box(&decision),
                    ));
                }
            },
        ),
    ));
}

fn request(client: ProcessId, seq: u64, command: KvCommand) -> Request<KvCommand> {
    Request {
        id: RequestId::new(client, seq),
        client,
        group: GroupId::default(),
        txn: None,
        reconfig: None,
        route_epoch: 0,
        command,
    }
}

/// `channels.*`: reliable multicast of a request to three servers, a
/// server's handling of the first copy, and of a duplicate.
fn channels(out: &mut Vec<(String, f64)>) {
    const N: usize = 4000;
    let servers: Vec<ProcessId> = (0..3).map(ProcessId::new).collect();
    let client = ProcessId::new(3);
    let requests = || -> Vec<Request<KvCommand>> {
        gen::commands(1, N)
            .into_iter()
            .enumerate()
            .map(|(i, c)| request(client, i as u64, c))
            .collect()
    };
    out.push((
        "channels.multicast_ns".into(),
        time_ns(
            N,
            || (ReliableCaster::new(client, servers.clone()), requests()),
            |(mut caster, requests)| {
                for r in requests {
                    black_box(caster.multicast_shared(r));
                }
            },
        ),
    ));
    let wires = || -> Vec<CastWire<Request<KvCommand>>> {
        requests()
            .into_iter()
            .map(|r| CastWire {
                id: r.id,
                origin: client,
                payload: r,
            })
            .collect()
    };
    out.push((
        "channels.on_wire_ns".into(),
        time_ns(
            N,
            || (ReliableCaster::new(servers[0], servers.clone()), wires()),
            |(mut caster, wires)| {
                for w in wires {
                    black_box(caster.on_wire_shared(w));
                }
            },
        ),
    ));
    out.push((
        "channels.on_wire_dup_ns".into(),
        time_ns(
            N,
            || {
                let mut caster = ReliableCaster::new(servers[0], servers.clone());
                for w in wires() {
                    caster.on_wire_shared(w);
                }
                (caster, wires())
            },
            |(mut caster, wires)| {
                for w in wires {
                    black_box(caster.on_wire_shared(w));
                }
            },
        ),
    ));
}

/// Runs one consensus instance among three members in memory, every wire
/// delivered in the order it was sent. Returns the number of wires.
fn consensus_instance(value: &CnsvValue) -> usize {
    let group: Vec<ProcessId> = (0..3).map(ProcessId::new).collect();
    let mut members: Vec<MajConsensus<CnsvValue>> = group
        .iter()
        .map(|&p| MajConsensus::new(1, p, group.clone(), group[0], ConsensusConfig::default()))
        .collect();
    let mut in_flight: VecDeque<(ProcessId, ProcessId, ConsensusWire<CnsvValue>)> = VecDeque::new();
    let mut wires = 0;
    let mut decided = 0;
    for p in 0..members.len() {
        let output = members[p].propose(value.clone());
        decided += usize::from(output.decision.is_some());
        for send in output.messages {
            for out in send.into_outgoing() {
                in_flight.push_back((group[p], out.to, out.wire));
            }
        }
    }
    while let Some((from, to, wire)) = in_flight.pop_front() {
        wires += 1;
        let output = members[to.index()].on_wire(from, wire);
        decided += usize::from(output.decision.is_some());
        for send in output.messages {
            for out in send.into_outgoing() {
                in_flight.push_back((to, out.to, out.wire));
            }
        }
    }
    assert_eq!(decided, members.len(), "every member decides");
    wires
}

/// `consensus.*`, `fd.*`, `adaptive.*`.
fn agreement(out: &mut Vec<(String, f64)>) {
    let value = CnsvValue {
        o_delivered: ids(9, 0..64),
        o_notdelivered: Seq::new(),
    };
    out.push((
        "consensus.wires_per_instance".into(),
        consensus_instance(&value) as f64,
    ));
    out.push((
        "consensus.instance_ns".into(),
        time_ns(
            200,
            || (),
            |()| {
                for _ in 0..200 {
                    black_box(consensus_instance(black_box(&value)));
                }
            },
        ),
    ));

    let group: Vec<ProcessId> = (0..3).map(ProcessId::new).collect();
    const BEATS: u64 = 20_000;
    out.push((
        "fd.on_heartbeat_ns".into(),
        time_ns(
            BEATS as usize,
            || HeartbeatFd::new(group[0], group.clone(), FdConfig::default()),
            |mut fd| {
                for i in 0..BEATS {
                    let from = group[1 + (i % 2) as usize];
                    black_box(fd.on_wire(from, FdWire::Heartbeat, SimTime::from_micros(i)));
                }
            },
        ),
    ));

    // One sequencer decision per arrival: note the arrival, ask for the
    // batch size, and report a flush every fourth time.
    const ARRIVALS: u64 = 20_000;
    out.push((
        "adaptive.decide_ns".into(),
        time_ns(
            ARRIVALS as usize,
            || BatchController::new(AdaptiveConfig::default()),
            |mut controller| {
                for i in 0..ARRIVALS {
                    controller.record_arrival(SimTime::from_micros(i * 30));
                    black_box(controller.target_batch((i % 8) as usize));
                    if i % 4 == 3 {
                        controller.note_flush();
                    }
                }
            },
        ),
    ));
}

/// A runtime that takes everything and does nothing, to call a process's
/// handlers outside any network.
struct NullRuntime {
    rng: SimRng,
    timers: u64,
}

impl NullRuntime {
    fn new() -> Self {
        NullRuntime {
            rng: SimRng::new(1),
            timers: 0,
        }
    }
}

impl Runtime<Wire> for NullRuntime {
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }
    fn id(&self) -> ProcessId {
        ProcessId::new(0)
    }
    fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }
    fn send(&mut self, to: ProcessId, msg: Wire) {
        black_box((to, msg));
    }
    fn send_all(&mut self, targets: &[ProcessId], msg: Wire) {
        black_box((targets, msg));
    }
    fn set_timer(&mut self, _delay: SimDuration, _tag: TimerTag) -> TimerId {
        self.timers += 1;
        TimerId(self.timers)
    }
    fn cancel_timer(&mut self, _id: TimerId) {}
    fn annotate(&mut self, text: String) {
        black_box(text);
    }
}

/// `client.*`, `shard.*`, `sharded.*`: what the client side pays per
/// request outside the reply path the trace times.
fn clients(out: &mut Vec<(String, f64)>) {
    const N: usize = 4000;
    let servers: Vec<ProcessId> = (0..3).map(ProcessId::new).collect();
    let whole_window = || ClientConfig::builder().pipeline(N).build();
    // With a window of N, `on_start` submits all N requests.
    out.push((
        "client.submit_ns".into(),
        time_ns(
            N,
            || {
                let workload = gen::commands(1, N);
                OarClient::<KvMachine>::new(
                    ProcessId::new(3),
                    servers.clone(),
                    workload,
                    whole_window(),
                )
            },
            |mut client| {
                client.on_start(&mut NullRuntime::new());
                client
            },
        ),
    ));

    // The Fig. 5 rule on the two replies that close a quorum of three.
    let reply = |from: usize, seq: u64| Reply {
        request: RequestId::new(ProcessId::new(3), seq),
        epoch: 1,
        weight: BTreeSet::from([ProcessId::new(0), ProcessId::new(from)]),
        position: seq + 1,
        response: KvResponse::Previous(None),
        from: ProcessId::new(from),
        kind: DeliveryKind::Optimistic,
    };
    out.push((
        "client.quorum_absorb_ns".into(),
        time_ns(
            2 * N,
            || -> Vec<[Reply<KvResponse>; 2]> {
                (0..N as u64).map(|s| [reply(0, s), reply(1, s)]).collect()
            },
            |replies| {
                for [first, second] in replies {
                    let mut tracker = QuorumTracker::new();
                    black_box(tracker.absorb(first, 2));
                    black_box(tracker.absorb(second, 2));
                }
            },
        ),
    ));

    let router = ShardRouter::hash(4);
    let commands = gen::commands(1, N);
    out.push((
        "shard.route_ns".into(),
        time_ns(
            N,
            || (),
            |()| {
                for c in &commands {
                    black_box(router.route(black_box(c)));
                }
            },
        ),
    ));
    let groups: Vec<Vec<ProcessId>> = (0..4)
        .map(|g| (3 * g..3 * g + 3).map(ProcessId::new).collect())
        .collect();
    out.push((
        "sharded.client_submit_ns".into(),
        time_ns(
            N,
            || {
                ShardedClient::<KvMachine>::new(
                    ProcessId::new(12),
                    groups.clone(),
                    router.clone(),
                    gen::commands(1, N),
                    whole_window(),
                )
            },
            |mut client| {
                client.on_start(&mut NullRuntime::new());
                client
            },
        ),
    ));
}

/// `apps.*`: the command stream on one bare `KvMachine` — what a single
/// node with no replication pays per command — and one snapshot of the full
/// key space.
fn apps(out: &mut Vec<(String, f64)>) {
    const N: usize = 50_000;
    let commands = gen::commands(1, N);
    out.push((
        "apps.kv_apply_ns".into(),
        time_ns(N, KvMachine::new, |mut machine| {
            for c in &commands {
                black_box(machine.apply(c));
            }
            machine
        }),
    ));
    let mut full = KvMachine::new();
    for c in &commands {
        full.apply(c);
    }
    out.push((
        "apps.kv_snapshot_ns".into(),
        time_ns(
            50,
            || (),
            |()| {
                for _ in 0..50 {
                    black_box(black_box(&full).snapshot());
                }
            },
        ),
    ));
}

/// Bounces a counter between two processes until it reaches `hops`; both
/// note when they saw it there (the second one hop later).
struct Bouncer {
    peer: ProcessId,
    serve: bool,
    hops: u64,
    done_at: Option<SimTime>,
}

impl Process<u64> for Bouncer {
    fn on_start(&mut self, rt: &mut dyn Runtime<u64>) {
        if self.serve {
            rt.send(self.peer, 0);
        }
    }
    fn on_message(&mut self, rt: &mut dyn Runtime<u64>, _from: ProcessId, n: u64) {
        if n >= self.hops {
            self.done_at = Some(rt.now());
        }
        if n <= self.hops {
            rt.send(self.peer, n + 1);
        }
    }
}

fn bouncers(hops: u64) -> [Bouncer; 2] {
    [0, 1].map(|i| Bouncer {
        peer: ProcessId::new(1 - i),
        serve: i == 0,
        hops,
        done_at: None,
    })
}

/// `rtnet.hop_ns` and `simnet.event_ns`: what each backend charges to carry
/// one message to a handler that does nothing.
fn runtimes(out: &mut Vec<(String, f64)>) {
    const HOPS: u64 = 20_000;
    let hop_ns = |_| {
        let mut net: RtNet<u64> = RtNet::new(1);
        let [a, b] = bouncers(HOPS);
        let first = net.add_process_until(a, |p: &Bouncer| p.done_at.is_some());
        net.add_process_until(b, |p: &Bouncer| p.done_at.is_some());
        let report = net.run(RunOptions {
            max_wall: Duration::from_secs(20),
            grace: Duration::ZERO,
            poll: Duration::from_millis(1),
        });
        // Microseconds since the threads started, after HOPS or HOPS + 1 hops.
        let done_at = report.process_ref::<Bouncer>(first).done_at;
        done_at.map_or(0.0, |t| t.as_micros() as f64 * 1e3 / HOPS as f64)
    };
    let samples: Vec<f64> = (0..3).map(hop_ns).collect();
    out.push(("rtnet.hop_ns".into(), stats::median(&samples)));

    const EVENTS: u64 = 200_000;
    out.push((
        "simnet.event_ns".into(),
        time_ns(
            EVENTS as usize,
            || {
                let mut world: World<u64> = World::new(NetConfig::lan(), 1);
                for b in bouncers(EVENTS) {
                    world.add_process(b);
                }
                world
            },
            |mut world| {
                world.run_until_quiescent(SimTime::MAX);
                assert!(world.events_processed() >= EVENTS);
                world
            },
        ),
    ));
}

/// Every micro figure, by metric name.
pub fn all() -> Vec<(String, f64)> {
    let mut out = Vec::new();
    sequence(&mut out);
    channels(&mut out);
    agreement(&mut out);
    clients(&mut out);
    apps(&mut out);
    runtimes(&mut out);
    out
}
