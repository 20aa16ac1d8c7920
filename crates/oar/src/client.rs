//! The OAR client (Fig. 5 of the paper): one implementation, four flavours.
//!
//! `OAR-multicast(m, Π)` R-multicasts the request to the server group and then
//! waits for replies. Unlike classic active replication, the replies need not
//! be identical: each carries a *weight* (the set of servers endorsing it). The
//! client waits until, for some epoch `k`, the union of the weights of the
//! replies received for `k` reaches the majority threshold `⌈(|Π|+1)/2⌉`, and
//! then adopts a reply with the largest individual weight. This rule is what
//! guarantees external consistency (Proposition 7): a reply that could still be
//! invalidated by an `Opt-undeliver` can never gather a majority weight.
//!
//! # Submissions and parts
//!
//! [`Client`] submits the entries of its workload. An entry — a
//! *submission* — is a non-empty list of ops: one command, or the ops of a
//! transaction. The ops are routed, and one [`Request`] goes to the members
//! of each owning group. Each such *part* keeps its own [`QuorumTracker`]
//! against its own group's majority, and the submission completes when its
//! last part adopts: commit is a client-side observation over per-group
//! quorums (see [`crate::txn`]). A plain request is the one-part case. A
//! single-group client is the one-group case: it stamps every request with
//! [`ClientConfig::group`] and needs no key on its commands.
//!
//! The flavours differ only in their constructor and in what
//! [`Client::completed`] records:
//!
//! * [`OarClient`] — one group, paced by a window;
//! * [`OpenLoopClient`] — one group, paced by a schedule;
//! * [`ShardedClient`] — commands routed per key over several groups, with
//!   [`OarWire::Redirect`] handling for online migrations;
//! * [`TxnClient`] — transactions routed per op, recorded as
//!   [`TxnCompleted`].
//!
//! # Pacing
//!
//! A **window** keeps at most `depth` submissions outstanding — 1 by default,
//! exactly Fig. 5 — and refills on adoption, after the think time.
//! Pipelining is what lets the servers' batching layers (sequencer `OrderMsg`
//! batches, per-client `ReplyBatch` coalescing) see several requests of the
//! same client in one batch; replies arrive batched and are unpacked back
//! into per-request accounting, so the optimistic / conservative semantics of
//! each request are unchanged. [`PipelineMode::Adaptive`] gives each group
//! its own [`PipelineController`]: that group's window starts closed-loop and
//! co-adapts with the delivery-batch sizes the group reports, so groups under
//! different load converge to different windows. A submission waits until
//! every group it touches has room, then takes one slot in each. Submissions
//! stay FIFO, so a shallow window can briefly hold back traffic for a deep
//! one, which keeps per-key submission order trivially intact.
//!
//! A **schedule** ([`OpenLoopClient`]) submits one entry every
//! `interarrival`, whether or not earlier ones were answered, so queues build
//! when the system falls behind (and tail latency means something). The
//! schedule is drift-corrected: a late timer submits every arrival already
//! due (a catch-up burst) and re-arms against the intended schedule, not the
//! actual fire time. On the simulator it repeats exactly; on `oar-rtnet` it
//! is wall-clock.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Debug;

use oar_channels::CastWire;
use oar_simnet::{GroupId, Process, ProcessId, Runtime, SimDuration, SimTime, Timer, TimerTag};

use crate::adaptive::{PipelineController, PipelineStats};
use crate::config::{ClientConfig, PipelineMode};
use crate::message::{
    majority, OarWire, Reply, ReplyBatch, ReplyItem, Request, RequestId, TxnEnvelope, TxnId, Weight,
};
use crate::shard::{MigrationRecord, ShardKey, ShardRouter};
use crate::state_machine::StateMachine;
use crate::txn::MultiOp;

/// A request completed by a client: the adopted reply plus bookkeeping used
/// by the experiments.
#[derive(Clone, Debug, PartialEq)]
pub struct CompletedRequest<R> {
    /// The request identifier.
    pub id: RequestId,
    /// Index of the submission in the client's workload.
    pub index: usize,
    /// The group the request was sent to (and answered by).
    pub group: GroupId,
    /// The adopted response.
    pub response: R,
    /// Position reported by the adopted reply (the paper's integer reply).
    pub position: u64,
    /// Epoch of the adopted reply.
    pub epoch: u64,
    /// Size of the weight of the adopted reply (2 = optimistic `{p, s}`,
    /// `|Π|` = conservative — the fail-over case).
    pub adopted_weight: usize,
    /// Number of replies received before adoption.
    pub replies_seen: usize,
    /// Time at which the request was multicast.
    pub sent_at: SimTime,
    /// Time at which the quorum was reached and the reply adopted.
    pub completed_at: SimTime,
}

impl<R> CompletedRequest<R> {
    /// Client-observed latency of the request.
    pub fn latency(&self) -> SimDuration {
        self.completed_at.duration_since(self.sent_at)
    }
}

/// A transaction completed by a [`TxnClient`]: the commit was observed, i.e.
/// the Fig. 5 quorum rule held in every participating group.
#[derive(Clone, Debug, PartialEq)]
pub struct TxnCompleted<R> {
    /// The transaction identifier.
    pub id: TxnId,
    /// Index of the transaction in the client's workload.
    pub index: usize,
    /// One part per participating group, sorted by group: the group's
    /// request and its adopted reply to the group's share of the ops.
    pub parts: Vec<CompletedRequest<R>>,
    /// Time at which the requests were multicast.
    pub sent_at: SimTime,
    /// Time at which the last participating group's quorum closed.
    pub completed_at: SimTime,
}

impl<R> TxnCompleted<R> {
    /// Client-observed commit latency of the transaction.
    pub fn latency(&self) -> SimDuration {
        self.completed_at.duration_since(self.sent_at)
    }

    /// Whether the transaction spanned more than one group (i.e. paid the
    /// multi-group commit instead of the fast path).
    pub fn is_multi_group(&self) -> bool {
        self.parts.len() > 1
    }
}

/// The per-request reply accounting of the Fig. 5 weighted-quorum rule.
///
/// Replies are grouped by the epoch they were processed in; the request is
/// adoptable once, for some epoch, the union of the reply weights reaches the
/// majority threshold of the *owning group* — at which point a reply with the
/// largest individual weight is adopted (Fig. 5 lines 3–5). The threshold is
/// passed per [`absorb`](QuorumTracker::absorb) call because a routed client
/// tracks requests owned by groups of possibly different sizes.
#[derive(Debug, Clone)]
pub struct QuorumTracker<R> {
    /// Per epoch: the union of the reply weights, and the replies.
    by_epoch: BTreeMap<u64, (Weight, Vec<Reply<R>>)>,
    replies_seen: usize,
}

impl<R> Default for QuorumTracker<R> {
    fn default() -> Self {
        QuorumTracker {
            by_epoch: BTreeMap::new(),
            replies_seen: 0,
        }
    }
}

impl<R: Clone> QuorumTracker<R> {
    /// A tracker with no replies absorbed yet.
    pub fn new() -> Self {
        QuorumTracker::default()
    }

    /// Number of replies absorbed so far.
    pub fn replies_seen(&self) -> usize {
        self.replies_seen
    }

    /// Absorbs one reply. Returns `Some((epoch, adopted_reply))` as soon as
    /// the Fig. 5 rule is satisfied for some epoch with the given `majority`
    /// threshold, `None` while the quorum is still open. The caller is
    /// expected to stop feeding the tracker once it adopts.
    pub fn absorb(&mut self, reply: Reply<R>, majority: usize) -> Option<(u64, Reply<R>)> {
        self.replies_seen += 1;
        let (union_weight, replies) = self.by_epoch.entry(reply.epoch).or_default();
        union_weight.extend(reply.weight.iter().copied());
        replies.push(reply);

        // Fig. 5 line 3: wait until the union of weights for some epoch k
        // reaches the majority threshold; lines 4–5: adopt a reply with the
        // largest individual weight.
        for (epoch, (union_weight, replies)) in &self.by_epoch {
            if union_weight.len() >= majority {
                let adopted = replies.iter().max_by_key(|r| r.weight.len())?;
                return Some((*epoch, adopted.clone()));
            }
        }
        None
    }
}

/// The type parameter that tells the four client flavours apart: each has
/// its own constructor (an inherent `new`) and its own completion record.
/// Everything else is the one [`Client`].
pub trait Flavour<R>: 'static {
    /// What [`Client::completed`] records per submission.
    type Done: Clone + Debug;

    /// The record of a submission whose last part, `last`, just adopted;
    /// `earlier` holds the parts that adopted before it (empty for a
    /// one-part submission).
    fn done(last: CompletedRequest<R>, earlier: Vec<CompletedRequest<R>>) -> Self::Done;

    /// The adopted parts a record holds.
    fn parts(done: &Self::Done) -> &[CompletedRequest<R>];
}

/// The flavour of [`OarClient`].
#[derive(Debug)]
pub enum ClosedLoop {}

/// The flavour of [`OpenLoopClient`].
#[derive(Debug)]
pub enum OpenLoop {}

/// The flavour of [`ShardedClient`].
#[derive(Debug)]
pub enum Sharded {}

/// The flavour of [`TxnClient`].
#[derive(Debug)]
pub enum Transactional {}

/// The flavours whose submissions are single commands, recorded as the one
/// [`CompletedRequest`] they produce.
macro_rules! one_request_per_submission {
    ($($flavour:ty),*) => {$(
        impl<R: Clone + Debug> Flavour<R> for $flavour {
            type Done = CompletedRequest<R>;

            fn done(last: CompletedRequest<R>, _: Vec<CompletedRequest<R>>) -> CompletedRequest<R> {
                last
            }

            fn parts(done: &CompletedRequest<R>) -> &[CompletedRequest<R>] {
                std::slice::from_ref(done)
            }
        }
    )*};
}

one_request_per_submission!(ClosedLoop, OpenLoop, Sharded);

impl<R: Clone + Debug> Flavour<R> for Transactional {
    type Done = TxnCompleted<R>;

    fn done(last: CompletedRequest<R>, mut parts: Vec<CompletedRequest<R>>) -> TxnCompleted<R> {
        // A transaction's id is its submission index.
        let id = TxnId::new(last.id.origin, last.index as u64);
        let (index, sent_at, completed_at) = (last.index, last.sent_at, last.completed_at);
        parts.push(last);
        parts.sort_by_key(|p| p.group.index());
        TxnCompleted {
            id,
            index,
            parts,
            sent_at,
            completed_at,
        }
    }

    fn parts(done: &TxnCompleted<R>) -> &[CompletedRequest<R>] {
        &done.parts
    }
}

/// A closed-loop client of one group: it submits the commands of its
/// workload with at most `pipeline` requests outstanding (1 by default — the
/// paper's Fig. 5), adopting each reply per the weighted-quorum rule before
/// refilling the window (after an optional think time).
pub type OarClient<S> = Client<S, ClosedLoop>;

/// An open-loop client of one group: it submits the commands of its
/// workload at a fixed offered rate (one every `interarrival`), regardless of
/// how many earlier requests are still outstanding. The workload bounds the
/// run: once it is exhausted the generator goes quiet.
pub type OpenLoopClient<S> = Client<S, OpenLoop>;

/// A client of a sharded deployment: it routes every command of its workload
/// to the group owning the command's key and applies the Fig. 5 rule with
/// the majority threshold of that group.
pub type ShardedClient<S> = Client<S, Sharded>;

/// A client submitting multi-key transactions to a sharded deployment:
/// single-group transactions take the wire-identical fast path, multi-group
/// ones the per-group prepare commit of [`crate::txn`].
pub type TxnClient<S> = Client<S, Transactional>;

/// Where a client's requests go.
#[derive(Clone, Debug)]
enum Routing<C> {
    /// A single-group client: every request goes to `groups[0]`, stamped
    /// with this group.
    Fixed(GroupId),
    /// Each op goes to the group the router assigns its key.
    Keyed(ShardRouter, fn(&C) -> &str),
}

impl<C> Routing<C> {
    fn keyed(router: ShardRouter, groups: usize, key: fn(&C) -> &str) -> Self {
        assert_eq!(
            router.num_groups(),
            groups,
            "router and deployment disagree on the group count"
        );
        Routing::Keyed(router, key)
    }

    fn route(&self, op: &C) -> GroupId {
        match self {
            Routing::Fixed(group) => *group,
            Routing::Keyed(router, key) => router.route_key(key(op)),
        }
    }

    /// Where `group`'s members (and its adaptive window) are kept.
    fn slot(&self, group: GroupId) -> usize {
        match self {
            Routing::Fixed(_) => 0,
            Routing::Keyed(..) => group.index(),
        }
    }

    fn epoch(&self) -> u64 {
        match self {
            Routing::Fixed(_) => 0,
            Routing::Keyed(router, _) => router.route_epoch(),
        }
    }
}

/// The entries a client still has to submit.
#[derive(Clone, Debug)]
enum Workload<C> {
    /// One command per submission.
    Commands(VecDeque<C>),
    /// One transaction per submission, and [`MultiOp::multi`], which
    /// combines one group's share of a transaction into one command.
    Txns(VecDeque<Vec<C>>, fn(Vec<C>) -> C),
}

impl<C> Workload<C> {
    fn is_empty(&self) -> bool {
        self.head().is_none()
    }

    /// The ops of the next submission.
    fn head(&self) -> Option<&[C]> {
        match self {
            Workload::Commands(commands) => commands.front().map(std::slice::from_ref),
            Workload::Txns(txns, _) => txns.front().map(Vec::as_slice),
        }
    }
}

/// The wire type of a deployment of `S`.
type Wire<S> = OarWire<<S as StateMachine>::Command, <S as StateMachine>::Response>;

/// When a client submits.
#[derive(Clone, Debug)]
enum Pacing {
    /// At most this many submissions outstanding.
    Window(usize),
    /// Per group: the adaptive window and the submissions outstanding there.
    Adaptive(Vec<(PipelineController, usize)>),
    /// One submission every `interarrival`; the next one is due at `next`.
    Schedule {
        interarrival: SimDuration,
        next: SimTime,
    },
}

/// A submission with parts in several groups: its envelope, and the parts
/// adopted so far.
type OpenTxn<R> = (TxnEnvelope, Vec<CompletedRequest<R>>);

/// One outstanding request: a submission's part in one group.
#[derive(Clone, Debug)]
struct Part<C, R> {
    index: usize,
    sent_at: SimTime,
    group: GroupId,
    quorum: QuorumTracker<R>,
    /// The command and the routing epoch it was last sent under, kept by
    /// routed clients only: an [`OarWire::Redirect`] may ask for a re-send.
    resend: Option<Box<(C, u64)>>,
}

/// The OAR client: it routes each submission, keeps a Fig. 5 quorum per
/// part and paces by window or schedule (see the [module docs](self)). It is
/// used through its flavours [`OarClient`], [`OpenLoopClient`],
/// [`ShardedClient`] and [`TxnClient`].
#[derive(Debug)]
pub struct Client<S: StateMachine, F: Flavour<S::Response>> {
    id: ProcessId,
    /// Server ids per group, indexed by [`GroupId`]; a single-group client
    /// has one group.
    groups: Vec<Vec<ProcessId>>,
    routing: Routing<S::Command>,
    workload: Workload<S::Command>,
    pacing: Pacing,
    think_time: SimDuration,
    start_delay: SimDuration,
    /// Requests get ids `(self.id, seq)` from one counter across all groups,
    /// so ids stay unique however ops are routed.
    next_seq: u64,
    /// Index of the next submission.
    next_index: usize,
    /// Outstanding requests: the parts of every open submission.
    parts: BTreeMap<RequestId, Part<S::Command, S::Response>>,
    /// Open submissions with parts in several groups, by index.
    txns: BTreeMap<usize, OpenTxn<S::Response>>,
    /// Number of open submissions.
    open: usize,
    completed: Vec<F::Done>,
}

impl<S: StateMachine> Client<S, ClosedLoop> {
    /// Creates a client that will submit `workload` to `servers` under the
    /// given [`ClientConfig`] (think time, start delay, pipeline policy,
    /// target group — see [`ClientConfig::builder`]).
    pub fn new(
        id: ProcessId,
        servers: Vec<ProcessId>,
        workload: Vec<S::Command>,
        config: ClientConfig,
    ) -> Self {
        let workload = Workload::Commands(workload.into());
        Client::with(
            id,
            vec![servers],
            Routing::Fixed(config.group),
            workload,
            config,
        )
    }
}

impl<S: StateMachine> Client<S, OpenLoop> {
    /// Creates a generator that offers one command of `workload` every
    /// `interarrival` to `servers`. Only the `start_delay` and `group` of
    /// `config` apply — think time and pipelining are closed-loop notions.
    ///
    /// # Panics
    ///
    /// Panics on a zero `interarrival` (an infinite offered rate).
    pub fn new(
        id: ProcessId,
        servers: Vec<ProcessId>,
        workload: Vec<S::Command>,
        interarrival: SimDuration,
        config: ClientConfig,
    ) -> Self {
        assert!(
            !interarrival.is_zero(),
            "open-loop interarrival must be non-zero"
        );
        let workload = Workload::Commands(workload.into());
        let mut client = Client::with(
            id,
            vec![servers],
            Routing::Fixed(config.group),
            workload,
            config,
        );
        let next = SimTime::ZERO;
        client.pacing = Pacing::Schedule { interarrival, next };
        client
    }
}

impl<S: StateMachine> Client<S, Sharded>
where
    S::Command: ShardKey,
{
    /// Creates a client submitting `workload` to the deployment described by
    /// `groups` (server ids per group) and `router`.
    ///
    /// # Panics
    ///
    /// Panics if the router's group count differs from `groups.len()`.
    pub fn new(
        id: ProcessId,
        groups: Vec<Vec<ProcessId>>,
        router: ShardRouter,
        workload: Vec<S::Command>,
        config: ClientConfig,
    ) -> Self {
        let routing = Routing::keyed(router, groups.len(), S::Command::shard_key);
        let workload = Workload::Commands(workload.into());
        Client::with(id, groups, routing, workload, config)
    }
}

impl<S: StateMachine> Client<S, Transactional>
where
    S::Command: MultiOp,
{
    /// Creates a client submitting the transactions of `workload` (each a
    /// non-empty op list) to the deployment described by `groups` and
    /// `router`.
    ///
    /// # Panics
    ///
    /// Panics if the router's group count differs from `groups.len()`, or —
    /// when the transaction is submitted — if a workload entry is empty.
    pub fn new(
        id: ProcessId,
        groups: Vec<Vec<ProcessId>>,
        router: ShardRouter,
        workload: Vec<Vec<S::Command>>,
        config: ClientConfig,
    ) -> Self {
        let routing = Routing::keyed(router, groups.len(), S::Command::shard_key);
        let workload = Workload::Txns(workload.into(), S::Command::multi);
        Client::with(id, groups, routing, workload, config)
    }
}

impl<S: StateMachine, F: Flavour<S::Response>> Client<S, F> {
    fn with(
        id: ProcessId,
        groups: Vec<Vec<ProcessId>>,
        routing: Routing<S::Command>,
        workload: Workload<S::Command>,
        config: ClientConfig,
    ) -> Self {
        let pacing = match config.pipeline {
            PipelineMode::Fixed(depth) => Pacing::Window(depth.max(1)),
            PipelineMode::Adaptive(cap) => {
                Pacing::Adaptive(vec![(PipelineController::new(cap), 0); groups.len()])
            }
        };
        Client {
            id,
            groups,
            routing,
            workload,
            pacing,
            think_time: config.think_time,
            start_delay: config.start_delay,
            next_seq: 0,
            next_index: 0,
            parts: BTreeMap::new(),
            txns: BTreeMap::new(),
            open: 0,
            completed: Vec::new(),
        }
    }

    /// The client's process identifier.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The submissions completed so far, in completion order.
    pub fn completed(&self) -> &[F::Done] {
        &self.completed
    }

    /// Whether the whole workload has been submitted and answered.
    pub fn is_done(&self) -> bool {
        self.workload.is_empty() && self.open == 0
    }

    /// Number of submissions made so far.
    pub fn submitted(&self) -> usize {
        self.next_index
    }

    /// Number of submissions still awaiting their quorums.
    pub fn outstanding_len(&self) -> usize {
        self.open
    }

    /// Convergence counters of each group's adaptive window, indexed by
    /// group (empty unless the window adapts).
    pub fn pipeline_stats(&self) -> Vec<PipelineStats> {
        match &self.pacing {
            Pacing::Adaptive(windows) => windows.iter().map(|(c, _)| c.stats()).collect(),
            _ => Vec::new(),
        }
    }

    /// Submits what the pacing admits now: the window's free slots, or the
    /// arrivals the schedule has made due (then re-arms its timer).
    fn pace(&mut self, rt: &mut dyn Runtime<Wire<S>>) {
        if let Pacing::Schedule {
            interarrival,
            mut next,
        } = self.pacing
        {
            let now = rt.now();
            while next <= now && !self.workload.is_empty() {
                self.submit(rt);
                next += interarrival;
            }
            self.pacing = Pacing::Schedule { interarrival, next };
            if !self.workload.is_empty() {
                let delay = SimDuration::from_micros(next.as_micros() - now.as_micros());
                rt.set_timer(delay, TimerTag::Arrival);
            }
            return;
        }
        while let Some(ops) = self.workload.head() {
            assert!(!ops.is_empty(), "empty transaction");
            let room = match &self.pacing {
                Pacing::Adaptive(windows) => ops.iter().all(|op| {
                    let (window, open) = &windows[self.routing.slot(self.routing.route(op))];
                    *open < window.window()
                }),
                Pacing::Window(depth) => self.open < *depth,
                Pacing::Schedule { .. } => unreachable!("handled above"),
            };
            if !room {
                return;
            }
            self.submit(rt);
        }
    }

    /// Submits the next workload entry: one request per owning group, with
    /// a transaction envelope only when there are several.
    fn submit(&mut self, rt: &mut dyn Runtime<Wire<S>>) {
        let index = self.next_index;
        self.next_index += 1;
        self.open += 1;
        let (mut ops, multi) = match &mut self.workload {
            Workload::Commands(commands) => {
                let op = commands.pop_front().expect("a workload entry to submit");
                let group = self.routing.route(&op);
                return self.send(rt, index, group, op, None);
            }
            Workload::Txns(txns, multi) => (txns.pop_front().expect("a transaction"), *multi),
        };
        if ops.len() == 1 {
            let op = ops.pop().expect("one op");
            let group = self.routing.route(&op);
            return self.send(rt, index, group, op, None);
        }
        // Partition the ops by owning group, preserving op order per group.
        let mut shares: BTreeMap<GroupId, Vec<S::Command>> = BTreeMap::new();
        for op in ops {
            shares.entry(self.routing.route(&op)).or_default().push(op);
        }
        // A single-group transaction carries no envelope: its one request is
        // indistinguishable on the wire from a plain one.
        let txn = (shares.len() > 1).then(|| TxnEnvelope {
            txn: TxnId::new(self.id, index as u64),
            participants: shares.keys().copied().collect(),
        });
        for (group, mut share) in shares {
            let command = if share.len() == 1 {
                share.pop().expect("one op")
            } else {
                multi(share)
            };
            self.send(rt, index, group, command, txn.clone());
        }
        if let Some(txn) = txn {
            self.txns.insert(index, (txn, Vec::new()));
        }
    }

    /// R-multicasts one part of submission `index` to `group`'s members.
    fn send(
        &mut self,
        rt: &mut dyn Runtime<Wire<S>>,
        index: usize,
        group: GroupId,
        command: S::Command,
        txn: Option<TxnEnvelope>,
    ) {
        let id = RequestId::new(self.id, self.next_seq);
        self.next_seq += 1;
        let slot = self.routing.slot(group);
        let routed = matches!(self.routing, Routing::Keyed(..));
        let resend = routed.then(|| Box::new((command.clone(), self.routing.epoch())));
        self.multicast(rt, id, group, txn, command);
        rt.annotate_with(|| format!("OAR-multicast({id})"));
        if let Pacing::Adaptive(windows) = &mut self.pacing {
            windows[slot].1 += 1;
        }
        let part = Part {
            index,
            sent_at: rt.now(),
            group,
            quorum: QuorumTracker::new(),
            resend,
        };
        self.parts.insert(id, part);
    }

    fn on_replies(&mut self, rt: &mut dyn Runtime<Wire<S>>, batch: ReplyBatch<S::Response>) {
        // Adapt the sending group's window before unpacking, so the refills
        // triggered by the adoptions below already see it.
        if let Pacing::Adaptive(windows) = &mut self.pacing {
            let slot = match self.routing {
                // One group: every reply wire is its own, whatever the roster.
                Routing::Fixed(_) => Some(0),
                Routing::Keyed(..) => self.groups.iter().position(|g| g.contains(&batch.from)),
            };
            if let Some(slot) = slot {
                windows[slot].0.observe_batch(batch.batch_hint);
            }
        }
        for item in &batch.items {
            self.on_reply(rt, &batch, item);
        }
    }

    /// The Fig. 5 adoption rule, with the majority threshold of the
    /// request's group; the submission completes with its last part.
    fn on_reply(
        &mut self,
        rt: &mut dyn Runtime<Wire<S>>,
        batch: &ReplyBatch<S::Response>,
        item: &ReplyItem<S::Response>,
    ) {
        let Some(part) = self.parts.get_mut(&item.request) else {
            return; // stale reply for an already-adopted part
        };
        let slot = self.routing.slot(part.group);
        let threshold = majority(self.groups[slot].len());
        let Some((epoch, reply)) = part.quorum.absorb(batch.reply(item), threshold) else {
            return;
        };
        let part = self.parts.remove(&item.request).expect("outstanding");
        if let Pacing::Adaptive(windows) = &mut self.pacing {
            windows[slot].1 -= 1;
        }
        let (position, adopted_weight) = (reply.position, reply.weight.len());
        let request = item.request;
        rt.annotate_with(|| format!("adopt({request}, pos={position}, |W|={adopted_weight})"));
        let done = CompletedRequest {
            id: request,
            index: part.index,
            group: part.group,
            response: reply.response,
            position,
            epoch,
            adopted_weight,
            replies_seen: part.quorum.replies_seen(),
            sent_at: part.sent_at,
            completed_at: rt.now(),
        };
        if let Some((txn, adopted)) = self.txns.get_mut(&part.index) {
            if adopted.len() + 1 < txn.participants.len() {
                adopted.push(done);
                return; // other participating groups still short of quorum
            }
        }
        let earlier = self
            .txns
            .remove(&part.index)
            .map_or_else(Vec::new, |(_, adopted)| adopted);
        self.open -= 1;
        self.completed.push(F::done(done, earlier));
        if self.workload.is_empty() || matches!(self.pacing, Pacing::Schedule { .. }) {
            return;
        }
        if self.think_time.is_zero() {
            self.pace(rt);
        } else {
            rt.set_timer(self.think_time, TimerTag::NextRequest);
        }
    }

    /// Handles a routing redirect from a donor group: advance the local
    /// router past the migrations the redirect carries, then re-send exactly
    /// the requests the redirect names as **dropped** — under their
    /// *original* [`RequestId`]s and transaction envelopes, so the servers'
    /// at-most-once guarantee (and the cross-group leak check) still holds.
    ///
    /// Only dropped requests may be re-sent. An outstanding request the
    /// donor already ordered is *not* dropped: its effect travels in the
    /// migrated hand-off and its replies are still in flight, so re-sending
    /// it to the recipient group — whose seen-set has never met its id —
    /// would order and execute it a second time. The servers name a request
    /// in `dropped` only when no copy of it can settle anywhere (door-drop
    /// before the caster, or fence prune with the seen entry retained), so
    /// the re-send is the request's only path to settlement. A transaction's
    /// share re-routes wholesale by its command's key: keys move between
    /// groups one record at a time, so a migration cannot split it.
    fn on_redirect(
        &mut self,
        rt: &mut dyn Runtime<Wire<S>>,
        records: Vec<MigrationRecord>,
        dropped: Vec<RequestId>,
    ) {
        let Routing::Keyed(router, _) = &mut self.routing else {
            return; // a single-group client never migrates
        };
        for record in &records {
            router.apply_record(record);
        }
        let route_epoch = router.route_epoch();
        for id in dropped {
            let Some(part) = self.parts.get_mut(&id) else {
                continue; // already adopted (a racing member answered)
            };
            let Some((command, sent_under)) = part.resend.as_deref_mut() else {
                continue;
            };
            if *sent_under >= route_epoch {
                continue; // already re-sent under the current boundary
            }
            // Same group: the first-hand copy was door-dropped for the stale
            // stamp alone, so re-send under the fresh one; members that
            // accepted the pre-fence copy recognise the duplicate by its id.
            *sent_under = route_epoch;
            let group = self.routing.route(command);
            if group != part.group {
                if let Pacing::Adaptive(windows) = &mut self.pacing {
                    windows[part.group.index()].1 -= 1;
                    windows[group.index()].1 += 1;
                }
                // Partial optimistic weight from the donor group must not be
                // mixed with the recipient's replies (epoch numbers are
                // per-group), so the tracker restarts from scratch.
                part.group = group;
                part.quorum = QuorumTracker::new();
            }
            let command = command.clone();
            let txn = self.txns.get(&part.index).map(|(txn, _)| txn.clone());
            self.multicast(rt, id, group, txn, command);
            rt.annotate_with(|| format!("OAR-redirect({id}, {group})"));
        }
    }

    /// `R-multicast` of request `id` to `group`'s members, stamped with the
    /// current routing epoch: one wire to each member, built once and shared
    /// by every send. The servers never relay it.
    fn multicast(
        &self,
        rt: &mut dyn Runtime<Wire<S>>,
        id: RequestId,
        group: GroupId,
        txn: Option<TxnEnvelope>,
        command: S::Command,
    ) {
        let payload = Request {
            id,
            client: self.id,
            group,
            txn,
            reconfig: None,
            route_epoch: self.routing.epoch(),
            command,
        };
        let wire = CastWire {
            id,
            origin: self.id,
            payload,
        };
        let members = &self.groups[self.routing.slot(group)];
        rt.send_all(members, OarWire::Request(wire));
    }
}

impl<S: StateMachine, F: Flavour<S::Response>> Process<Wire<S>> for Client<S, F> {
    fn on_start(&mut self, rt: &mut dyn Runtime<Wire<S>>) {
        let tag = match &mut self.pacing {
            Pacing::Schedule { next, .. } => {
                *next = rt.now() + self.start_delay;
                TimerTag::Arrival
            }
            _ => TimerTag::NextRequest,
        };
        if self.start_delay.is_zero() {
            self.pace(rt);
        } else {
            rt.set_timer(self.start_delay, tag);
        }
    }

    fn on_message(&mut self, rt: &mut dyn Runtime<Wire<S>>, _from: ProcessId, msg: Wire<S>) {
        match msg {
            OarWire::Replies(batch) => self.on_replies(rt, batch),
            OarWire::Redirect { records, dropped } => self.on_redirect(rt, records, dropped),
            // Clients ignore every other message kind.
            _ => {}
        }
    }

    fn on_timer(&mut self, rt: &mut dyn Runtime<Wire<S>>, _timer: Timer) {
        self.pace(rt);
    }

    fn fork(&self) -> Option<Box<dyn Process<Wire<S>>>> {
        Some(Box::new(Client::<S, F> {
            id: self.id,
            groups: self.groups.clone(),
            routing: self.routing.clone(),
            workload: self.workload.clone(),
            pacing: self.pacing.clone(),
            think_time: self.think_time,
            start_delay: self.start_delay,
            next_seq: self.next_seq,
            next_index: self.next_index,
            parts: self.parts.clone(),
            txns: self.txns.clone(),
            open: self.open,
            completed: self.completed.clone(),
        }))
    }

    /// Digest of the client's protocol-relevant state. Timestamps
    /// (`sent_at`, `completed_at`, the schedule) are excluded: the model
    /// checker abstracts time, and two states differing only in when things
    /// happened behave identically.
    fn state_digest(&self) -> Option<u64> {
        use std::hash::{DefaultHasher, Hash, Hasher};
        let mut h = DefaultHasher::new();
        // The workload left is a function of `next_index`.
        (self.id.index(), self.next_index, self.next_seq).hash(&mut h);
        match &self.pacing {
            Pacing::Window(depth) => depth.hash(&mut h),
            Pacing::Adaptive(windows) => windows.iter().for_each(|(c, _)| c.window().hash(&mut h)),
            Pacing::Schedule { .. } => {}
        }
        for (id, part) in &self.parts {
            (id, part.index, part.quorum.replies_seen()).hash(&mut h);
            format!("{:?}", part.quorum).hash(&mut h);
        }
        for done in self.completed.iter().flat_map(F::parts) {
            (done.id, done.index, done.position, done.epoch).hash(&mut h);
            format!("{:?}", done.response).hash(&mut h);
        }
        Some(h.finish())
    }

    fn name(&self) -> String {
        format!("oar-client-{}", self.id.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::config::OarConfig;
    use crate::server::OarServer;
    use crate::state_machine::{CounterCommand, CounterMachine};
    use oar_simnet::World;

    type Wire = OarWire<CounterCommand, i64>;

    fn build(
        n_servers: usize,
        n_requests: usize,
        interarrival: SimDuration,
    ) -> (World<Wire>, Vec<ProcessId>, ProcessId) {
        let config = ClusterConfig {
            num_servers: n_servers,
            num_clients: 0,
            ..ClusterConfig::default()
        };
        let mut world: World<Wire> = World::new(config.net.clone(), config.seed);
        let server_ids: Vec<ProcessId> = (0..n_servers).map(ProcessId::new).collect();
        for &id in &server_ids {
            let server = OarServer::new(
                id,
                server_ids.clone(),
                OarConfig::default(),
                CounterMachine::default(),
            );
            world.add_process(server);
        }
        let workload: Vec<CounterCommand> = (0..n_requests)
            .map(|i| CounterCommand::Add(i as i64 + 1))
            .collect();
        let client = OpenLoopClient::<CounterMachine>::new(
            ProcessId::new(n_servers),
            server_ids.clone(),
            workload,
            interarrival,
            ClientConfig::default(),
        );
        let client_id = world.add_process(client);
        (world, server_ids, client_id)
    }

    #[test]
    fn open_loop_submits_on_schedule_and_completes() {
        let (mut world, _servers, client_id) = build(3, 20, SimDuration::from_micros(200));
        world.run_until_quiescent(SimTime::from_secs(5));
        let client = world.process_ref::<OpenLoopClient<CounterMachine>>(client_id);
        assert!(client.is_done(), "open-loop workload must drain");
        assert_eq!(client.completed().len(), 20);
        assert_eq!(client.submitted(), 20);
        // Arrivals follow the absolute schedule: request i was sent at
        // ~i × interarrival, never earlier.
        let mut sent: Vec<SimTime> = client.completed().iter().map(|c| c.sent_at).collect();
        sent.sort();
        for (i, at) in sent.iter().enumerate() {
            assert!(
                at.as_micros() >= (i as u64) * 200,
                "arrival {i} ran ahead of the offered schedule: {at}"
            );
        }
    }

    #[test]
    fn open_loop_does_not_wait_for_replies() {
        // With an interarrival far below the network latency, many requests
        // must be in flight at once — the definition of open loop.
        let (mut world, _servers, client_id) = build(3, 30, SimDuration::from_micros(10));
        // Run just past the last scheduled arrival, long before most quorums.
        world.run_until(SimTime::from_micros(400));
        let client = world.process_ref::<OpenLoopClient<CounterMachine>>(client_id);
        assert_eq!(client.submitted(), 30, "arrivals must not gate on replies");
        assert!(
            client.outstanding_len() > 1,
            "an open-loop generator keeps several requests in flight"
        );
    }
}
