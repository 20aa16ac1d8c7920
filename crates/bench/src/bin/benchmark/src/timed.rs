//! Tracing from outside the program: [`Timed`] wraps a process, times every
//! callback the runtime makes into it and hands it a [`Counting`] runtime
//! that tallies the wires it sends. Nothing inside the protocol crates is
//! instrumented.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use oar::OarWire;
use oar_apps::{KvCommand, KvResponse};
use oar_simnet::{
    Process, ProcessId, Runtime, SimDuration, SimRng, SimTime, Timer, TimerId, TimerTag,
};

pub type Wire = OarWire<KvCommand, KvResponse>;

/// What a callback handled, or what kind of wire was sent.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Start,
    Request,
    Replies,
    Order,
    PhaseII,
    Fd,
    Consensus,
    Watermark,
    CatchUp,
    Payload,
    OtherWire,
    Tick,
    Flush,
    CatchUpTimer,
    NextRequest,
    Arrival,
    OtherTimer,
}

pub const KINDS: usize = Kind::OtherTimer as usize + 1;

impl Kind {
    pub const ALL: [Kind; KINDS] = [
        Kind::Start,
        Kind::Request,
        Kind::Replies,
        Kind::Order,
        Kind::PhaseII,
        Kind::Fd,
        Kind::Consensus,
        Kind::Watermark,
        Kind::CatchUp,
        Kind::Payload,
        Kind::OtherWire,
        Kind::Tick,
        Kind::Flush,
        Kind::CatchUpTimer,
        Kind::NextRequest,
        Kind::Arrival,
        Kind::OtherTimer,
    ];

    fn of_wire(wire: &Wire) -> Kind {
        match wire {
            OarWire::Request(_) => Kind::Request,
            OarWire::Replies(_) => Kind::Replies,
            OarWire::Order(_) => Kind::Order,
            OarWire::PhaseII(_) => Kind::PhaseII,
            OarWire::Fd { .. } => Kind::Fd,
            OarWire::Consensus(_) => Kind::Consensus,
            OarWire::Watermark { .. } => Kind::Watermark,
            OarWire::CatchUpRequest { .. } | OarWire::CatchUpReply(_) => Kind::CatchUp,
            OarWire::PayloadFetch { .. } | OarWire::PayloadFill { .. } => Kind::Payload,
            _ => Kind::OtherWire,
        }
    }

    fn of_timer(tag: TimerTag) -> Kind {
        match tag {
            TimerTag::Tick => Kind::Tick,
            TimerTag::Flush => Kind::Flush,
            TimerTag::CatchUp => Kind::CatchUpTimer,
            TimerTag::NextRequest => Kind::NextRequest,
            TimerTag::Arrival => Kind::Arrival,
            TimerTag::Custom(_) => Kind::OtherTimer,
        }
    }
}

/// Which side of the protocol a wrapped process is on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    Server,
    Client,
}

/// One callback into one process.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub process: ProcessId,
    pub role: Role,
    pub kind: Kind,
    /// Nanoseconds since the trace was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// `(client, sequence number)` of the request, when the wire carries one.
    pub request: Option<(usize, u64)>,
}

/// Largest `Order` batch the size histogram resolves; larger ones land in
/// the last bucket (the adaptive cap is far below it).
const MAX_BATCH: usize = 4096;

/// Counts and busy time of one role, summed over its processes.
#[derive(Clone, Debug)]
pub struct Tally {
    /// Callbacks handled, by kind.
    pub calls: [u64; KINDS],
    /// Time spent in them.
    pub ns: [u64; KINDS],
    /// Wires handed to the runtime, by kind (one per destination).
    pub sent: [u64; KINDS],
    /// `Order` wires sent from inside the `Flush` timer callback.
    pub order_from_flush: u64,
    /// `Order` wires sent, by batch size (one count per batch, not per wire).
    pub order_sizes: Vec<u64>,
    /// Reply items carried by all `Replies` wires sent.
    pub reply_items: u64,
}

impl Default for Tally {
    fn default() -> Self {
        Tally {
            calls: [0; KINDS],
            ns: [0; KINDS],
            sent: [0; KINDS],
            order_from_flush: 0,
            order_sizes: vec![0; MAX_BATCH + 1],
            reply_items: 0,
        }
    }
}

impl Tally {
    fn merge(&mut self, other: &Tally) {
        for k in 0..KINDS {
            self.calls[k] += other.calls[k];
            self.ns[k] += other.ns[k];
            self.sent[k] += other.sent[k];
        }
        self.order_from_flush += other.order_from_flush;
        for (mine, theirs) in self.order_sizes.iter_mut().zip(&other.order_sizes) {
            *mine += theirs;
        }
        self.reply_items += other.reply_items;
    }

    pub fn busy_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    /// Mean time of one callback of `kind`, 0 when there was none.
    pub fn mean_ns(&self, kind: Kind) -> f64 {
        let calls = self.calls[kind as usize];
        if calls == 0 {
            0.0
        } else {
            self.ns[kind as usize] as f64 / calls as f64
        }
    }

    /// The `q`-quantile of the `Order` batch sizes, 0 when none was sent.
    pub fn order_size_quantile(&self, q: f64) -> f64 {
        let total: u64 = self.order_sizes.iter().sum();
        let rank = (q * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (size, count) in self.order_sizes.iter().enumerate() {
            seen += count;
            if *count > 0 && seen >= rank {
                return size as f64;
            }
        }
        0.0
    }
}

/// Everything the traced rounds of a run recorded.
#[derive(Default)]
pub struct Trace {
    pub server: Tally,
    pub client: Tally,
    /// Busy time and callbacks of each wrapped process, per incarnation.
    pub per_process: Vec<(Role, ProcessId, u64, u64)>,
    /// The first [`SPAN_CAP`] spans of each process of the first traced
    /// rounds, up to [`TRACE_CAP`] in all, for the trace file.
    pub spans: Vec<Span>,
}

/// Spans kept: the trace file is a sample to look at, the figures come from
/// the tallies, which count every callback.
const SPAN_CAP: usize = 4000;
const TRACE_CAP: usize = 60_000;

/// Where wrapped processes leave their tallies when they are dropped or
/// crashed. Shared because a restarted process replaces its wrapper.
#[derive(Clone)]
pub struct TraceSink {
    origin: Instant,
    trace: Arc<Mutex<Trace>>,
}

impl TraceSink {
    pub fn new() -> Self {
        TraceSink {
            origin: Instant::now(),
            trace: Arc::default(),
        }
    }

    /// Takes what has been recorded so far. Call after the world or report
    /// holding the wrapped processes has been dropped.
    pub fn take(&self) -> Trace {
        std::mem::take(&mut *self.trace.lock().expect("no tracer panicked"))
    }

    pub fn wrap<P>(&self, role: Role, id: ProcessId, inner: P) -> Timed<P> {
        let kept = self.trace.lock().expect("no tracer panicked").spans.len();
        Timed {
            inner,
            role,
            id,
            sink: self.clone(),
            tally: Tally::default(),
            span_room: if kept < TRACE_CAP { SPAN_CAP } else { 0 },
            spans: Vec::new(),
        }
    }
}

/// A process with a stopwatch around every callback.
pub struct Timed<P> {
    pub inner: P,
    role: Role,
    id: ProcessId,
    sink: TraceSink,
    tally: Tally,
    /// How many spans this wrapper may still keep.
    span_room: usize,
    spans: Vec<Span>,
}

impl<P> Timed<P> {
    fn timed(
        &mut self,
        rt: &mut dyn Runtime<Wire>,
        kind: Kind,
        request: Option<(usize, u64)>,
        call: impl FnOnce(&mut P, &mut dyn Runtime<Wire>),
    ) {
        let mut counting = Counting {
            inner: rt,
            tally: &mut self.tally,
            in_flush: kind == Kind::Flush,
        };
        let start = Instant::now();
        call(&mut self.inner, &mut counting);
        let end = Instant::now();
        self.tally.calls[kind as usize] += 1;
        self.tally.ns[kind as usize] += (end - start).as_nanos() as u64;
        if self.span_room > 0 {
            self.span_room -= 1;
            self.spans.push(Span {
                process: self.id,
                role: self.role,
                kind,
                start_ns: (start - self.sink.origin).as_nanos() as u64,
                end_ns: (end - self.sink.origin).as_nanos() as u64,
                request,
            });
        }
    }
}

/// A wrapper hands its tally over when it goes: at the end of a round, or
/// when the runtime replaces a crashed process by a fresh incarnation.
impl<P> Drop for Timed<P> {
    fn drop(&mut self) {
        // A poisoned sink means another wrapper panicked; nothing to add.
        let Ok(mut trace) = self.sink.trace.lock() else {
            return;
        };
        match self.role {
            Role::Server => trace.server.merge(&self.tally),
            Role::Client => trace.client.merge(&self.tally),
        }
        trace.per_process.push((
            self.role,
            self.id,
            self.tally.busy_ns(),
            self.tally.total_calls(),
        ));
        trace.spans.append(&mut self.spans);
    }
}

impl<P: Process<Wire> + 'static> Process<Wire> for Timed<P> {
    fn on_start(&mut self, rt: &mut dyn Runtime<Wire>) {
        self.timed(rt, Kind::Start, None, |p, rt| p.on_start(rt));
    }

    fn on_message(&mut self, rt: &mut dyn Runtime<Wire>, from: ProcessId, msg: Wire) {
        let request = match &msg {
            OarWire::Request(cast) => Some((cast.id.origin.index(), cast.id.seq)),
            _ => None,
        };
        self.timed(rt, Kind::of_wire(&msg), request, |p, rt| {
            p.on_message(rt, from, msg)
        });
    }

    fn on_timer(&mut self, rt: &mut dyn Runtime<Wire>, timer: Timer) {
        self.timed(rt, Kind::of_timer(timer.tag), None, |p, rt| {
            p.on_timer(rt, timer)
        });
    }

    fn on_crash(&mut self) {
        self.inner.on_crash();
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// The runtime a wrapped process sees: the real one, plus a count of every
/// wire that goes out through it.
struct Counting<'a> {
    inner: &'a mut dyn Runtime<Wire>,
    tally: &'a mut Tally,
    in_flush: bool,
}

impl Counting<'_> {
    fn count(&mut self, msg: &Wire, wires: u64) {
        self.tally.sent[Kind::of_wire(msg) as usize] += wires;
        match msg {
            OarWire::Order(order) => {
                self.tally.order_sizes[order.order.len().min(MAX_BATCH)] += 1;
                if self.in_flush {
                    self.tally.order_from_flush += wires;
                }
            }
            OarWire::Replies(batch) => self.tally.reply_items += wires * batch.items.len() as u64,
            _ => {}
        }
    }
}

impl Runtime<Wire> for Counting<'_> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn rng(&mut self) -> &mut SimRng {
        self.inner.rng()
    }

    fn send(&mut self, to: ProcessId, msg: Wire) {
        self.count(&msg, 1);
        self.inner.send(to, msg);
    }

    fn send_all(&mut self, targets: &[ProcessId], msg: Wire) {
        self.count(&msg, targets.len() as u64);
        self.inner.send_all(targets, msg);
    }

    fn set_timer(&mut self, delay: SimDuration, tag: TimerTag) -> TimerId {
        self.inner.set_timer(delay, tag)
    }

    fn cancel_timer(&mut self, id: TimerId) {
        self.inner.cancel_timer(id);
    }

    fn annotate(&mut self, text: String) {
        self.inner.annotate(text);
    }
}
