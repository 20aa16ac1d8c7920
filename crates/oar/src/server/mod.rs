//! The OAR server (Fig. 6 of the paper).
//!
//! Each server is a single [`Process`] that composes:
//!
//! * the reception buffer of client requests — Task 0 — with the two
//!   tick-driven repairs that give `R-multicast` its Agreement property
//!   without relaying (see the `repair` module);
//! * the sequencer logic — Task 1a (ordering) and Task 1b (Opt-delivery);
//! * a [`HeartbeatFd`] whose suspicion of the sequencer triggers Task 1c;
//! * a [`ReliableCaster`](oar_channels::ReliableCaster) for the
//!   `(k, PhaseII)` broadcast;
//! * one [`MajConsensus`](oar_consensus::MajConsensus) instance per epoch
//!   implementing the reduction of `Cnsv-order` to consensus — Task 2;
//! * the replicated [`StateMachine`] with its undo stack, so that
//!   `Opt-undeliver` can roll back optimistic deliveries in reverse order.
//!
//! The server progresses through epochs; the sequencer of epoch `k` is
//! `Π[k mod |Π|]` (the rotating-coordinator rule of §5.3).
//!
//! # One file per concern
//!
//! [`OarServer`] is the state machine plus one field per concern, and each
//! concern's file declares that field's type, the `impl OarServer` block
//! that works on it, and how it digests itself:
//!
//! * this file — `Core`, the state every concern reads (identity, roster,
//!   configuration, epoch, phase, `A_delivered`, payloads, undo stack,
//!   failure detector), the public accessors, and the [`Process`] impl,
//!   whose callbacks only dispatch to the concern owning a wire or timer;
//! * `order` — Tasks 0, 1a and 1b, sequencer batching and batch replies;
//! * `phase2` — Tasks 1c and 2: suspicion, `PhaseII`, consensus, epoch
//!   close;
//! * `gc` — the settled watermark: the payload garbage collector and the
//!   divergence detector's record of what each peer settled;
//! * `recovery` — snapshots, log compaction, catch-up after a restart, and
//!   the rejoin of a replica its group out-votes on its settled digest;
//! * `repair` — payload pull, push on stall, consensus retransmit;
//! * `reconfig` — the routing door, `Replace` and `Migrate` fences;
//! * `stats` — [`ServerStats`].
//!
//! Every sub-struct is `Clone` and `Debug` and is generic over the command,
//! response and undo types only, so [`Process::fork`] is the state machine's
//! own fork plus a clone of the rest, and a field joins the model checker's
//! state digest by being declared (and digested) in its concern.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

use oar_fd::{FdEvent, HeartbeatFd};
use oar_sequence::Seq;
use oar_simnet::{Process, ProcessId, Runtime, Timer, TimerTag};

use crate::config::OarConfig;
use crate::message::{OarWire, Request, RequestId};
use crate::shard::{KeyRange, MigrationRecord};
use crate::state_machine::StateMachine;

mod gc;
mod order;
mod phase2;
mod reconfig;
mod recovery;
mod repair;
mod stats;

pub use stats::ServerStats;

/// The wire type of a server replicating `S`.
type Wire<S> = OarWire<<S as StateMachine>::Command, <S as StateMachine>::Response>;

/// `items` sorted: how the digests hash unordered containers.
fn sorted<T: Ord>(items: impl IntoIterator<Item = T>) -> Vec<T> {
    let mut v: Vec<T> = items.into_iter().collect();
    v.sort_unstable();
    v
}

/// Which phase of the current epoch the server is in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Phase 1: the sequencer orders messages optimistically.
    Optimistic,
    /// Phase 2: the group runs `Cnsv-order` (consensus) to close the epoch.
    Conservative,
}

/// The state every concern reads: who this server is, the group it serves,
/// and the Fig. 6 epoch machinery (Initialization) the tasks share.
#[derive(Clone, Debug)]
struct Core<C, U> {
    id: ProcessId,
    /// The current replica group, in sequencer-rotation order. A settled
    /// `Replace` fence swaps the fenced member's slot in place.
    group: Vec<ProcessId>,
    config: OarConfig,
    epoch: u64,
    phase: Phase,
    /// Requests delivered in previous epochs (the paper's `A_delivered`).
    a_delivered: Seq<RequestId>,
    /// Fast membership test for `a_delivered` plus kept optimistic deliveries.
    settled: HashSet<RequestId>,
    /// Request payloads, keyed by id.
    payloads: HashMap<RequestId, Request<C>>,
    /// Undo tokens of the current epoch's optimistic deliveries (LIFO).
    undo_stack: Vec<(RequestId, U)>,
    /// Number of requests delivered and not undone (the proofs' reply counter).
    position: u64,
    fd: HeartbeatFd,
}

impl<C, U> Core<C, U> {
    fn new(id: ProcessId, group: Vec<ProcessId>, config: OarConfig) -> Self {
        Core {
            id,
            fd: HeartbeatFd::new(id, group.clone(), config.fd),
            group,
            config,
            epoch: 0,
            phase: Phase::Optimistic,
            a_delivered: Seq::new(),
            settled: HashSet::new(),
            payloads: HashMap::new(),
            undo_stack: Vec::new(),
            position: 0,
        }
    }

    /// Everything but `config` (fixed for the server's lifetime), payload
    /// *contents* (a `RequestId` determines its payload group-wide, so the
    /// key set suffices) and undo *tokens* (a function of the delivery
    /// prefix and the machine state, both covered).
    fn digest(&self, h: &mut impl Hasher) {
        self.id.hash(h);
        // Membership is mutable (`Replace` fences swap slots in place), so
        // the group belongs in the digest.
        self.group.hash(h);
        self.epoch.hash(h);
        matches!(self.phase, Phase::Conservative).hash(h);
        self.position.hash(h);
        self.a_delivered.as_slice().hash(h);
        sorted(self.settled.iter()).hash(h);
        sorted(self.payloads.keys()).hash(h);
        self.undo_stack.iter().for_each(|(id, _undo)| id.hash(h));
        self.fd.suspects().hash(h);
    }
}

/// The OAR server process, generic over the replicated [`StateMachine`].
#[derive(Debug)]
pub struct OarServer<S: StateMachine> {
    core: Core<S::Command, S::Undo>,
    order: order::Order,
    phase2: phase2::Phase2,
    gc: gc::Gc,
    recovery: recovery::Recovery<S::Command, S::Response>,
    repair: repair::Repair,
    reconfig: reconfig::Reconfig,
    sm: S,
    stats: ServerStats,
}

impl<S: StateMachine> OarServer<S> {
    /// Creates the server with identity `id`, replica group `group` (which must
    /// contain `id`) and initial service state `sm`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a member of `group`.
    pub fn new(id: ProcessId, group: Vec<ProcessId>, config: OarConfig, sm: S) -> Self {
        assert!(group.contains(&id), "server must belong to its group");
        OarServer {
            order: order::Order::new(&config),
            phase2: phase2::Phase2::new(id, group.clone()),
            gc: gc::Gc::default(),
            recovery: recovery::Recovery::new(&sm),
            repair: repair::Repair::default(),
            reconfig: reconfig::Reconfig::default(),
            stats: ServerStats::new(&config),
            core: Core::new(id, group, config),
            sm,
        }
    }

    /// Creates a server that rejoins the group after a restart: it starts in
    /// **recovery mode** — on start it asks a peer for a
    /// [`CatchUpReply`](crate::message::CatchUpReply) (latest snapshot +
    /// settled delta) and ignores all other protocol traffic until the
    /// transfer installs, retrying with donor rotation and exponential
    /// backoff while the chosen donor is down. `sm` must be the service's
    /// *initial* state (the crash lost the in-memory state; the snapshot and
    /// delta rebuild it).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a member of `group`.
    pub fn recovering(id: ProcessId, group: Vec<ProcessId>, config: OarConfig, sm: S) -> Self {
        let mut server = Self::new(id, group, config, sm);
        // A single-member group has no peer to catch up from (and nothing it
        // could learn): it resumes with fresh state immediately.
        if server.core.group.len() > 1 {
            server.recovery.catch_up_attempt = Some(0);
        }
        server
    }

    /// Whether this server is still catching up after a restart.
    pub fn is_recovering(&self) -> bool {
        self.recovery.catch_up_attempt.is_some()
    }

    /// The server's process identifier.
    pub fn id(&self) -> ProcessId {
        self.core.id
    }

    /// The configuration this server was built with (fixed for its
    /// lifetime; a restarted or replacement replica is built with the same).
    pub fn config(&self) -> &OarConfig {
        &self.core.config
    }

    /// Size of the `PhaseII` caster's duplicate-suppression set — the
    /// quantity aged out by the epoch-watermark rule. (Client requests need
    /// no such set: `payloads` and `settled` recognise every copy.)
    pub fn seen_len(&self) -> usize {
        self.phase2.cast.seen_count()
    }

    /// The current epoch number.
    pub fn epoch(&self) -> u64 {
        self.core.epoch
    }

    /// The current phase.
    pub fn phase(&self) -> Phase {
        self.core.phase
    }

    /// Test-support: `Debug` dump of the running phase-2 consensus instance
    /// (`None` outside phase 2). Used by the model checker's trace probe.
    pub fn mc_consensus_debug(&self) -> String {
        format!("{:?}", self.phase2.consensus)
    }

    /// The sequencer of epoch `k`: `Π[k mod |Π|]`.
    pub fn sequencer_of(&self, epoch: u64) -> ProcessId {
        self.core.group[(epoch as usize) % self.core.group.len()]
    }

    /// The sequencer of the current epoch.
    pub fn current_sequencer(&self) -> ProcessId {
        self.sequencer_of(self.core.epoch)
    }

    /// Whether this server is the sequencer of the current epoch.
    pub fn is_sequencer(&self) -> bool {
        self.current_sequencer() == self.core.id
    }

    /// The replicated state machine (read access, for tests and examples).
    pub fn state_machine(&self) -> &S {
        &self.sm
    }

    /// Protocol counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Number of request payloads currently retained (the quantity bounded by
    /// the epoch-watermark garbage collector).
    pub fn payloads_len(&self) -> usize {
        self.core.payloads.len()
    }

    /// This server's settled-epoch watermark: every epoch `< watermark` is
    /// closed locally. Epochs close in order, so this is simply the current
    /// epoch number.
    pub fn settled_watermark(&self) -> u64 {
        self.core.epoch
    }

    /// The watermark acknowledged by every replica this server does not
    /// suspect (including itself): payloads of requests decided in epochs
    /// below it are safe to prune.
    pub fn acked_watermark(&self) -> u64 {
        self.core
            .group
            .iter()
            .map(|&p| {
                if p == self.core.id {
                    self.core.epoch
                } else if self.core.fd.is_suspected(p) {
                    // Suspected replicas do not hold up the collector; they
                    // only ever need their *own* payload map to catch up.
                    u64::MAX
                } else {
                    self.gc.peer_settled.get(&p).map_or(0, |s| s.epoch)
                }
            })
            .min()
            .unwrap_or(0)
    }

    /// The sequence of requests this server has delivered and not undone, in
    /// delivery order: `A_delivered ⊕ (O_delivered of the current epoch)`.
    pub fn committed_sequence(&self) -> Seq<RequestId> {
        self.core.a_delivered.concat(&self.order.o_delivered)
    }

    /// The requests delivered in closed epochs only (never undoable). With
    /// log compaction this is the *retained* suffix: the first [`Self::a_base`]
    /// settled requests were pruned into the snapshot and are represented by
    /// [`Self::order_hash_at`].
    pub fn stable_sequence(&self) -> &Seq<RequestId> {
        &self.core.a_delivered
    }

    /// Number of settled commands compacted out of the retained
    /// `A_delivered` log: the global delivery position of
    /// `stable_sequence()[0]` is `a_base() + 1`.
    pub fn a_base(&self) -> u64 {
        self.recovery.a_base
    }

    /// Total number of settled commands: compacted prefix + retained log.
    pub fn total_settled(&self) -> u64 {
        self.recovery.a_base + self.core.a_delivered.len() as u64
    }

    /// State digest at the last epoch close (the settled prefix, excluding
    /// current-epoch optimistic deliveries).
    pub fn settled_digest(&self) -> u64 {
        self.recovery.settled_digest
    }

    /// The chained order-hash over the first `pos` settled request ids, or
    /// `None` when `pos` lies inside the compacted prefix (`pos < a_base()`,
    /// elements gone) or beyond the settled log. Two replicas agree on their
    /// common settled prefix iff their chain values at a common position are
    /// equal — this is how compacted replicas are compared.
    pub fn order_hash_at(&self, pos: u64) -> Option<u64> {
        let base = self.recovery.a_base;
        if pos < base || pos > self.total_settled() {
            return None;
        }
        let retained = &self.core.a_delivered.as_slice()[..(pos - base) as usize];
        Some(recovery::chain(self.recovery.a_base_hash, retained))
    }

    /// Whether this server's failure detector currently suspects `p` (used
    /// by the restart tests: a rejoined replica must be un-suspected once
    /// its fresh heartbeats arrive).
    pub fn is_suspecting(&self, p: ProcessId) -> bool {
        self.core.fd.is_suspected(p)
    }

    /// The current replica group, in sequencer-rotation order. Mutable over
    /// the server's lifetime: a settled
    /// [`ReconfigCmd::Replace`](crate::message::ReconfigCmd::Replace) swaps
    /// the fenced member's slot in place.
    pub fn members(&self) -> &[ProcessId] {
        &self.core.group
    }

    /// The routing-boundary epoch this group has settled (bumped by every
    /// settled `Migrate` fence).
    pub fn route_epoch(&self) -> u64 {
        self.reconfig.route_epoch
    }

    /// The settled key-range migration records this server knows about, in
    /// settle order.
    pub fn migration_records(&self) -> &[MigrationRecord] {
        &self.reconfig.migrations
    }

    /// Digest of the settled entries inside `range`, when the state machine
    /// supports keyed extraction (the donor/recipient equality check of the
    /// migration gate).
    pub fn range_digest(&self, range: &KeyRange) -> Option<u64> {
        self.sm.range_digest(range)
    }

    /// Test hook: applies `command` to the local state machine outside the
    /// order, as a replica that broke determinism would. Nothing else moves,
    /// so the divergence shows where a real one would: at the next epoch
    /// close, whose settled digest stops matching the peers'.
    pub fn inject_divergence(&mut self, command: &S::Command) {
        let _ = self.sm.apply(command);
    }

    /// Whether the maintenance tick has request repair to do here: an
    /// ordered or decided id whose payload is missing (pull), or a held
    /// request that is neither ordered nor settled and was not pushed yet
    /// (push on stall). Model-checker support: ticks are a scheduling choice
    /// there, worth taking only where they do something.
    pub fn repair_due(&self) -> bool {
        let core = &self.core;
        let missing =
            |id: &RequestId| !core.payloads.contains_key(id) && !core.settled.contains(id);
        let unpushed = |id: &RequestId| self.is_unordered(id) && !self.repair.pushed.contains(id);
        !self.phase2.pending_missing.is_empty()
            || self.order.queue.iter().any(missing)
            || self.order.r_delivered.iter().any(unpushed)
    }

    /// Forces this server to suspect the current sequencer (wrong-suspicion
    /// injection used by the experiments on Opt-undeliver frequency).
    pub fn force_suspect_sequencer(&mut self, ctx: &mut dyn Runtime<Wire<S>>) {
        let sequencer = self.current_sequencer();
        if sequencer != self.core.id {
            self.core.fd.force_suspect(sequencer);
        }
        self.maybe_start_phase2(ctx);
    }

    /// Forces this server's failure detector to suspect an arbitrary peer
    /// (wrong-suspicion injection used by the model checker's fault choices;
    /// unlike [`Self::force_suspect_sequencer`] the target need not be the
    /// current sequencer). Triggers Task 1c if the target *is* the current
    /// sequencer and feeds the updated suspect set to any running consensus,
    /// like a real suspicion event would (on the normal path the maintenance
    /// tick does both; the checker's configurations push ticks beyond the
    /// exploration horizon).
    pub fn force_suspect(&mut self, target: ProcessId, ctx: &mut dyn Runtime<Wire<S>>) {
        if target != self.core.id {
            self.core.fd.force_suspect(target);
        }
        self.maybe_start_phase2(ctx);
        self.push_suspects_to_consensus(ctx);
    }

    /// Whether this server has delivered `id` and not undone it — settled in
    /// a closed epoch (however long ago: the answer survives log compaction)
    /// or Opt-delivered in the current one. O(1): two hash probes.
    pub fn has_delivered(&self, id: &RequestId) -> bool {
        self.core.settled.contains(id) || self.order.o_delivered.contains(id)
    }

    /// Whether `id` is still waiting for the sequencer: neither delivered nor
    /// named by an order this server has accepted.
    fn is_unordered(&self, id: &RequestId) -> bool {
        !self.has_delivered(id) && !self.order.queued.contains(id)
    }

    /// Every group member except this server: the destination list of the
    /// server's own group-wide sends (ordering, watermark announcements).
    fn peers(&self) -> Vec<ProcessId> {
        let me = self.core.id;
        self.core
            .group
            .iter()
            .copied()
            .filter(|&p| p != me)
            .collect()
    }

    /// Reacts to failure-detector events: a suspicion change may trigger
    /// Task 1c, moves a running consensus, and no longer lets a newly
    /// suspected replica hold up the payload GC.
    fn handle_fd_events(&mut self, ctx: &mut dyn Runtime<Wire<S>>, events: Vec<FdEvent>) {
        let suspicion_changed = events
            .iter()
            .any(|e| matches!(e, FdEvent::Suspect(_) | FdEvent::Restore(_)));
        if suspicion_changed {
            self.maybe_start_phase2(ctx);
            self.push_suspects_to_consensus(ctx);
            self.maybe_gc();
        }
    }

    /// The maintenance tick: heartbeats, the tick-driven halves of ordering
    /// and Task 1c, and every repair loop.
    fn on_tick(&mut self, ctx: &mut dyn Runtime<Wire<S>>) {
        // Heartbeats + suspicion checks; heartbeats carry the settled
        // watermark so the payload GC and the divergence detector converge
        // even on idle protocol paths.
        let settled = self.settled();
        let (heartbeats, events) = self.core.fd.on_tick(ctx.now());
        for hb in heartbeats {
            let wire = hb.wire;
            ctx.send(hb.to, OarWire::Fd { wire, settled });
        }
        self.handle_fd_events(ctx, events);
        // A load drop leaves the adaptive target with no flushes to decay
        // through: the tick walks it back towards 1 while the sequencer
        // idles.
        if let Some(controller) = self.order.adaptive.as_mut() {
            controller.maybe_decay(ctx.now());
        }
        self.sync_adaptive_stats();
        // Task 1a on a timer: the safety-net flush of partially filled
        // batches (the flush-deadline timer usually fires first; static
        // batching has no deadline and flushes here).
        self.maybe_order(ctx);
        // Task 1c safety net: the current sequencer may have been suspected
        // before its epoch even started. Covered by the same model-checker
        // fault toggle as the epoch-advance re-check: with both omitted the
        // stall is permanent, which is what `oar-mc` demonstrates.
        if !self.core.config.bug_skip_handoff_recheck {
            self.maybe_start_phase2(ctx);
        }
        // Request repair, silent while every request reaches the sequencer
        // from its client: pull what was ordered or decided without its
        // payload arriving, push what is held but stays unordered.
        self.maybe_fetch_payloads(ctx);
        self.maybe_push_stalled(ctx);
        // Consensus repair: estimates/proposals unicast to a peer that was
        // down are lost for good; re-send them once the instance is stuck.
        self.maybe_retransmit_consensus(ctx);
        // Divergence detection: a replica its group out-votes on its own
        // settled digest rejoins through catch-up, whose install re-arms
        // the tick.
        if self.rejoin_if_out_voted(ctx) {
            return;
        }
        ctx.set_timer(self.core.config.tick_interval, TimerTag::Tick);
    }

    /// Deep copy of the whole server, for [`Process::fork`]: the state
    /// machine supplies its own copy through [`StateMachine::fork`] (`None` —
    /// not forkable — propagates), every concern is `Clone`.
    fn fork_self(&self) -> Option<Self> {
        Some(OarServer {
            sm: self.sm.fork()?,
            core: self.core.clone(),
            order: self.order.clone(),
            phase2: self.phase2.clone(),
            gc: self.gc.clone(),
            recovery: self.recovery.clone(),
            repair: self.repair.clone(),
            reconfig: self.reconfig.clone(),
            stats: self.stats,
        })
    }

    /// Digest of the server's *protocol-relevant* state, for
    /// [`Process::state_digest`] (model-checker state deduplication): every
    /// concern's own digest plus the state machine's
    /// [`StateMachine::digest`]. [`ServerStats`] stay out — observability
    /// only, `apply_ns` is even host wall-clock.
    fn mc_digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.core.digest(&mut h);
        self.order.digest(&mut h);
        self.phase2.digest(&mut h);
        self.gc.digest(&mut h);
        self.recovery.digest(&mut h);
        self.repair.digest(&mut h);
        self.reconfig.digest(&mut h);
        self.sm.digest().hash(&mut h);
        h.finish()
    }
}

impl<S: StateMachine> Process<Wire<S>> for OarServer<S> {
    fn fork(&self) -> Option<Box<dyn Process<Wire<S>>>> {
        Some(Box::new(self.fork_self()?))
    }

    fn state_digest(&self) -> Option<u64> {
        Some(self.mc_digest())
    }

    fn on_start(&mut self, ctx: &mut dyn Runtime<Wire<S>>) {
        if self.recovery.catch_up_attempt.is_some() {
            // Recovery mode: no maintenance tick (and so no heartbeats or
            // ordering) until the catch-up transfer installs — the replica
            // must not participate from a blank state.
            self.send_catch_up_request(ctx);
            return;
        }
        ctx.set_timer(self.core.config.tick_interval, TimerTag::Tick);
    }

    fn on_message(&mut self, ctx: &mut dyn Runtime<Wire<S>>, from: ProcessId, msg: Wire<S>) {
        if let Some(attempt) = self.recovery.catch_up_attempt {
            return self.on_message_recovering(ctx, from, msg, attempt);
        }
        // Any traffic from a group member is evidence of liveness.
        if self.core.group.contains(&from) && from != self.core.id {
            let events = self.core.fd.observe_traffic(from, ctx.now());
            self.handle_fd_events(ctx, events);
        }
        match msg {
            OarWire::Request(wire) => self.on_request(ctx, wire.payload),
            OarWire::Order(order) => self.on_order(ctx, from, order),
            OarWire::PhaseII(wire) => self.on_phase2_wire(ctx, wire),
            OarWire::Fd { wire, settled } => {
                self.note_settled(from, settled);
                let events = self.core.fd.on_wire(from, wire, ctx.now());
                self.handle_fd_events(ctx, events);
            }
            OarWire::Watermark { settled } => self.note_settled(from, settled),
            OarWire::Consensus(wire) => self.on_consensus_wire(ctx, from, wire),
            // Replies and redirects are client-bound; a catch-up transfer
            // while not recovering (any more) is stale. Ignore them.
            OarWire::Replies(_) | OarWire::Redirect { .. } | OarWire::CatchUpReply(_) => {}
            OarWire::CatchUpRequest { attempt, group } => {
                self.on_catch_up_request(ctx, from, attempt, group)
            }
            OarWire::PayloadFetch { ids } => self.serve_payload_fetch(ctx, from, ids),
            OarWire::PayloadFill { requests } => self.handle_payload_fill(ctx, requests),
            OarWire::MigrateState {
                record,
                entries,
                digest,
            } => self.handle_migrate_state(ctx, record, entries, digest),
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Runtime<Wire<S>>, timer: Timer) {
        match timer.tag {
            TimerTag::CatchUp => self.on_catch_up_timer(ctx),
            // No protocol activity while recovering.
            _ if self.recovery.catch_up_attempt.is_some() => {}
            TimerTag::Flush => self.on_flush_timer(ctx),
            TimerTag::Tick => self.on_tick(ctx),
            _ => {}
        }
    }

    fn name(&self) -> String {
        format!("oar-server-{}", self.core.id.index())
    }
}

#[cfg(test)]
mod tests {
    //! Component-level tests driving the server directly through wire
    //! messages, without a simulator — the pure-state-machine design makes
    //! ordering hazards (payload after decision, watermark acknowledgement)
    //! explicit and deterministic.

    use std::collections::VecDeque;

    use oar_channels::{CastWire, MsgId};
    use oar_consensus::ConsensusWire;
    use oar_simnet::{Action, Context, Payload, SimRng, SimTime};

    use super::*;
    use crate::message::{CatchUpReply, CnsvValue, OrderMsg, PhaseIIMsg, ReconfigCmd, Settled};
    use crate::state_machine::{CounterCommand, CounterMachine};

    type Wire = OarWire<CounterCommand, i64>;

    /// A replicated machine speaking [`Wire`].
    trait Machine: StateMachine<Command = CounterCommand, Response = i64> {}
    impl<S: StateMachine<Command = CounterCommand, Response = i64>> Machine for S {}

    /// Views a `Send` action as `(destination, wire)`, unwrapping the
    /// owned/shared payload distinction.
    fn sent(action: &Action<Wire>) -> Option<(ProcessId, &Wire)> {
        match action {
            Action::Send { to, msg } => Some((
                *to,
                match msg {
                    Payload::Owned(m) => m,
                    Payload::Shared(s) => s.as_ref(),
                },
            )),
            _ => None,
        }
    }

    /// Runs `f` against the server with a throwaway runtime context, the
    /// way a callback sees one, and returns the actions it produced.
    fn drive<S: Machine>(
        server: &mut OarServer<S>,
        f: impl FnOnce(&mut OarServer<S>, &mut dyn oar_simnet::Runtime<Wire>),
    ) -> Vec<Action<Wire>> {
        let mut rng = SimRng::new(1);
        let mut actions = Vec::new();
        let mut next_timer = 0u64;
        let mut ctx = Context::new(
            SimTime::from_millis(1),
            server.id(),
            &mut rng,
            &mut actions,
            &mut next_timer,
        );
        f(server, &mut ctx);
        actions
    }

    /// Feeds one wire message to the server and returns the actions it
    /// produced.
    fn deliver<S: Machine>(
        server: &mut OarServer<S>,
        from: ProcessId,
        msg: Wire,
    ) -> Vec<Action<Wire>> {
        drive(server, |s, ctx| s.on_message(ctx, from, msg))
    }

    fn request_wire(client: ProcessId, seq: u64, add: i64) -> (RequestId, Wire) {
        let id = MsgId::new(client, seq);
        let wire = CastWire {
            id,
            origin: client,
            payload: Request {
                id,
                client,
                group: oar_simnet::GroupId::default(),
                txn: None,
                reconfig: None,
                route_epoch: 0,
                command: CounterCommand::Add(add),
            },
        };
        (id, OarWire::Request(wire))
    }

    /// A request carrying a reconfiguration fence (no-op command).
    fn fence_wire(client: ProcessId, seq: u64, reconfig: ReconfigCmd) -> (RequestId, Wire) {
        let id = MsgId::new(client, seq);
        let wire = CastWire {
            id,
            origin: client,
            payload: Request {
                id,
                client,
                group: oar_simnet::GroupId::default(),
                txn: None,
                reconfig: Some(reconfig),
                route_epoch: 0,
                command: CounterCommand::Add(0),
            },
        };
        (id, OarWire::Request(wire))
    }

    /// Regression for the stale-decision re-check gap (formerly papered over
    /// by a defensive tick): a decision that arrives *before* the payload of
    /// a request it mentions must apply as soon as that payload arrives —
    /// driven by the payload delivery itself, no timer involved.
    #[test]
    fn delayed_payload_unblocks_pending_decision_without_a_tick() {
        let group: Vec<ProcessId> = (0..3).map(ProcessId::new).collect();
        let mut server = OarServer::new(
            ProcessId::new(2),
            group,
            OarConfig::default(),
            CounterMachine::default(),
        );
        let client = ProcessId::new(9);
        let (rid, request) = request_wire(client, 0, 5);

        // The group moves to phase 2 (sequencer suspected elsewhere).
        let phase2 = OarWire::PhaseII(CastWire {
            id: MsgId::new(ProcessId::new(0), 0),
            origin: ProcessId::new(0),
            payload: PhaseIIMsg {
                epoch: 0,
                settled: Settled::default(),
            },
        });
        deliver(&mut server, ProcessId::new(0), phase2);
        assert_eq!(server.phase(), Phase::Conservative);

        // The decision mentions `rid`, whose payload has NOT arrived here yet.
        let decision_value = CnsvValue {
            o_delivered: Seq::new(),
            o_notdelivered: [rid].into_iter().collect(),
        };
        let decide = OarWire::Consensus(ConsensusWire::Decide {
            instance: 0,
            value: vec![(ProcessId::new(0), decision_value)],
        });
        deliver(&mut server, ProcessId::new(0), decide);
        assert_eq!(
            server.epoch(),
            0,
            "decision must wait for the missing payload"
        );
        assert!(!server.stable_sequence().contains(&rid));

        // The delayed payload finally arrives (relayed by server 0): the
        // decision applies immediately, on this very delivery.
        let actions = deliver(&mut server, ProcessId::new(0), request);
        assert_eq!(server.epoch(), 1, "decision applied on payload arrival");
        assert!(server.stable_sequence().contains(&rid));
        let replied_to_client = actions.iter().any(|a| match a {
            Action::Send { to, .. } => *to == client,
            _ => false,
        });
        assert!(replied_to_client, "the A-deliver reply must go out");
    }

    /// End-to-end watermark GC on a single-replica group: the epoch cut
    /// closes the epoch, the server acknowledges its own watermark and the
    /// settled payload is pruned.
    #[test]
    fn watermark_gc_prunes_settled_payloads() {
        let config = OarConfig {
            epoch_cut_after: Some(1),
            ..OarConfig::default()
        };
        let mut server = OarServer::new(
            ProcessId::new(0),
            vec![ProcessId::new(0)],
            config,
            CounterMachine::default(),
        );
        let client = ProcessId::new(9);
        let (rid, request) = request_wire(client, 0, 3);
        deliver(&mut server, client, request);

        // The request was opt-delivered, the epoch cut + single-member
        // consensus settled it, and the GC pruned its payload.
        assert_eq!(server.epoch(), 1);
        assert!(server.stable_sequence().contains(&rid));
        assert_eq!(server.payloads_len(), 0, "settled payload pruned");
        assert_eq!(server.stats().payloads_pruned, 1);
        assert_eq!(server.stats().payloads.peak(), 1);
        assert_eq!(server.acked_watermark(), 1);
        // The epoch's PhaseII id was aged out of the duplicate-suppression
        // set alongside the payload.
        assert_eq!(server.seen_len(), 0, "settled seen ids aged out");
        assert_eq!(server.stats().seen.peak(), 1, "own PhaseII");
        // A late copy of the settled request is discarded by the settled
        // check: nothing is buffered again.
        let (_, stale) = request_wire(client, 0, 3);
        deliver(&mut server, client, stale);
        assert_eq!(server.payloads_len(), 0);
        assert_eq!(server.stats().opt_delivered, 1);
    }

    /// Requests stamped for another group are counted and dropped, never
    /// ordered: the misroute ceiling of the sharded deployment layer.
    #[test]
    fn misrouted_requests_are_counted_and_dropped() {
        let config = OarConfig::default().for_group(oar_simnet::GroupId::new(1));
        let mut server = OarServer::new(
            ProcessId::new(0),
            vec![ProcessId::new(0)],
            config,
            CounterMachine::default(),
        );
        assert_eq!(server.config().group, oar_simnet::GroupId::new(1));
        let client = ProcessId::new(9);
        // request_wire stamps g0; this server is g1.
        let (rid, request) = request_wire(client, 0, 7);
        let actions = deliver(&mut server, client, request);
        assert_eq!(server.stats().misrouted, 1);
        assert_eq!(server.payloads_len(), 0, "misroute must not be buffered");
        assert!(!server.stable_sequence().contains(&rid));
        assert_eq!(server.stats().opt_delivered, 0);
        // Dropped at the door: never relayed, never tracked in `seen`.
        assert_eq!(server.seen_len(), 0, "misroute must not enter `seen`");
        assert!(
            !actions.iter().any(|a| matches!(a, Action::Send { .. })),
            "misroute must not be relayed"
        );
    }

    /// Peers that lag hold the collector back; suspected peers do not.
    #[test]
    fn acked_watermark_tracks_live_peers_only() {
        let group: Vec<ProcessId> = (0..3).map(ProcessId::new).collect();
        let mut server = OarServer::new(
            ProcessId::new(0),
            group,
            OarConfig::default(),
            CounterMachine::default(),
        );
        assert_eq!(server.acked_watermark(), 0, "nothing heard yet");
        deliver(
            &mut server,
            ProcessId::new(1),
            OarWire::Watermark {
                settled: Settled {
                    epoch: 4,
                    digest: 0,
                },
            },
        );
        assert_eq!(server.acked_watermark(), 0, "p2 still unheard");
        deliver(
            &mut server,
            ProcessId::new(2),
            OarWire::Watermark {
                settled: Settled {
                    epoch: 2,
                    digest: 0,
                },
            },
        );
        // min(self = 0, p1 = 4, p2 = 2): the server's own epoch bounds it.
        assert_eq!(server.acked_watermark(), 0);
    }

    /// Periodic snapshots compact `A_delivered` and the settled log; the
    /// chained order hash keeps the compacted prefix comparable.
    #[test]
    fn snapshots_compact_the_settled_log() {
        let config = OarConfig {
            epoch_cut_after: Some(1),
            snapshot_every: Some(2),
            ..OarConfig::default()
        };
        let mut server = OarServer::new(
            ProcessId::new(0),
            vec![ProcessId::new(0)],
            config,
            CounterMachine::default(),
        );
        let client = ProcessId::new(9);
        for seq in 0..4 {
            let (_, request) = request_wire(client, seq, 1);
            deliver(&mut server, client, request);
        }
        // Four single-request epochs closed; snapshots at epochs 2 and 4
        // pruned everything below them.
        assert_eq!(server.epoch(), 4);
        assert_eq!(server.stats().snapshots_taken, 2);
        assert_eq!(server.stats().compacted, 4);
        assert_eq!(server.a_base(), 4, "prefix compacted up to the snapshot");
        assert_eq!(server.total_settled(), 4);
        assert!(server.stable_sequence().is_empty(), "A_delivered pruned");
        // The peak gauge saw the pre-compaction length; after compaction the
        // retained length is bounded by the snapshot window, not the run.
        assert!(server.stats().a_delivered_len.peak() <= 2);
        // Order hashes exist at and above the base, not below it.
        assert!(server.order_hash_at(4).is_some());
        assert!(server.order_hash_at(3).is_none());
    }

    /// The tentpole unit test: a recovering replica ignores-and-buffers
    /// traffic, installs a donor's snapshot + delta, verifies the digest,
    /// announces its watermark and resumes — ending element-identical to the
    /// donor's settled state without replaying the full history.
    #[test]
    fn rejoining_replica_catches_up_by_snapshot_plus_delta() {
        let config = OarConfig {
            epoch_cut_after: Some(1),
            snapshot_every: Some(2),
            ..OarConfig::default()
        };
        let mut donor = OarServer::new(
            ProcessId::new(0),
            vec![ProcessId::new(0)],
            config,
            CounterMachine::default(),
        );
        let client = ProcessId::new(9);
        for seq in 0..3 {
            let (_, request) = request_wire(client, seq, 2);
            deliver(&mut donor, client, request);
        }
        assert_eq!(donor.a_base(), 2, "snapshot at epoch 2");
        assert_eq!(donor.total_settled(), 3);

        let mut rejoiner = OarServer::recovering(
            ProcessId::new(1),
            vec![ProcessId::new(0), ProcessId::new(1)],
            config,
            CounterMachine::default(),
        );
        assert!(rejoiner.is_recovering());
        // Traffic during the transfer window is buffered, not processed.
        let (_, late_request) = request_wire(client, 3, 2);
        deliver(&mut rejoiner, ProcessId::new(0), late_request);
        assert_eq!(rejoiner.stats().opt_delivered, 0);
        assert_eq!(rejoiner.payloads_len(), 0);

        // Pull the transfer out of the donor and feed it to the rejoiner.
        let actions = deliver(
            &mut donor,
            ProcessId::new(1),
            OarWire::CatchUpRequest {
                attempt: 0,
                group: vec![ProcessId::new(0), ProcessId::new(1)],
            },
        );
        let reply = actions
            .iter()
            .find_map(|a| match sent(a) {
                Some((to, msg @ OarWire::CatchUpReply(_))) if to == ProcessId::new(1) => {
                    Some(msg.clone())
                }
                _ => None,
            })
            .expect("donor must answer with a CatchUpReply");
        let actions = deliver(&mut rejoiner, ProcessId::new(0), reply);

        assert!(!rejoiner.is_recovering());
        assert_eq!(rejoiner.a_base(), 2, "snapshot adopted, not full replay");
        assert_eq!(rejoiner.total_settled(), 3);
        assert_eq!(rejoiner.stats().catch_up_snapshot_position, 2);
        assert_eq!(rejoiner.stats().catch_up_delta, 1);
        assert_eq!(rejoiner.settled_digest(), donor.settled_digest());
        assert_eq!(rejoiner.order_hash_at(3), donor.order_hash_at(3));
        assert_eq!(rejoiner.epoch(), donor.epoch());
        // The buffered request was replayed after install.
        assert_eq!(rejoiner.payloads_len(), 1, "buffered request replayed");
        // The watermark announcement un-stalls the peers' payload GC.
        assert!(
            actions
                .iter()
                .any(|a| matches!(sent(a), Some((_, OarWire::Watermark { .. })))),
            "rejoiner must announce its watermark on install"
        );
    }

    /// Lemma-2 regression: a rejoiner must not opt-deliver from a mid-epoch
    /// order batch. It missed the epoch's earlier batches, so starting now
    /// would make its `O_delivered` diverge from the sequencer-order prefix
    /// the other replicas hold — and `Cnsv-order` silently drops the longest
    /// prefix's suffix when fed a non-prefix, splitting the settle order.
    /// The freeze expires once the epoch advances.
    #[test]
    fn rejoiner_freezes_optimistic_delivery_for_the_caught_up_epoch() {
        let config = OarConfig {
            epoch_cut_after: Some(1),
            snapshot_every: Some(2),
            ..OarConfig::default()
        };
        let mut donor = OarServer::new(
            ProcessId::new(0),
            vec![ProcessId::new(0)],
            config,
            CounterMachine::default(),
        );
        let client = ProcessId::new(9);
        for seq in 0..2 {
            let (_, request) = request_wire(client, seq, 2);
            deliver(&mut donor, client, request);
        }
        assert_eq!(donor.epoch(), 2);

        // Rejoiner catches up into epoch 2, whose sequencer is the donor.
        let mut rejoiner = OarServer::recovering(
            ProcessId::new(1),
            vec![ProcessId::new(0), ProcessId::new(1)],
            config,
            CounterMachine::default(),
        );
        let actions = deliver(
            &mut donor,
            ProcessId::new(1),
            OarWire::CatchUpRequest {
                attempt: 0,
                group: vec![ProcessId::new(0), ProcessId::new(1)],
            },
        );
        let reply = actions
            .iter()
            .find_map(|a| match sent(a) {
                Some((to, msg @ OarWire::CatchUpReply(_))) if to == ProcessId::new(1) => {
                    Some(msg.clone())
                }
                _ => None,
            })
            .expect("donor must answer with a CatchUpReply");
        deliver(&mut rejoiner, ProcessId::new(0), reply);
        assert!(!rejoiner.is_recovering());
        assert_eq!(rejoiner.epoch(), 2);
        assert_eq!(rejoiner.phase(), Phase::Optimistic);
        assert_eq!(rejoiner.current_sequencer(), ProcessId::new(0));

        // A mid-epoch order batch arrives with its payload in hand: the
        // frozen rejoiner stores the payload but must not opt-deliver.
        let (rid, request) = request_wire(client, 2, 2);
        deliver(&mut rejoiner, ProcessId::new(0), request);
        let order = OarWire::Order(OrderMsg {
            epoch: 2,
            order: [rid].into_iter().collect(),
            settled: donor.settled(),
        });
        deliver(&mut rejoiner, ProcessId::new(0), order);
        assert_eq!(rejoiner.stats().opt_delivered, 0, "freeze must hold");
        assert!(!rejoiner.stable_sequence().contains(&rid));

        // The epoch closes conservatively: the decision settles the request
        // (the rejoiner's empty `O_delivered` is the trivial prefix).
        let phase2 = OarWire::PhaseII(CastWire {
            id: MsgId::new(ProcessId::new(0), 99),
            origin: ProcessId::new(0),
            payload: PhaseIIMsg {
                epoch: 2,
                settled: donor.settled(),
            },
        });
        deliver(&mut rejoiner, ProcessId::new(0), phase2);
        assert_eq!(rejoiner.phase(), Phase::Conservative);
        let decision_value = CnsvValue {
            o_delivered: [rid].into_iter().collect(),
            o_notdelivered: Default::default(),
        };
        let decide = OarWire::Consensus(ConsensusWire::Decide {
            instance: 2,
            value: vec![(ProcessId::new(0), decision_value)],
        });
        deliver(&mut rejoiner, ProcessId::new(0), decide);
        assert_eq!(rejoiner.epoch(), 3, "conservative close advances");
        assert!(rejoiner.stable_sequence().contains(&rid));

        // The freeze expired with the epoch: epoch 3's sequencer is the
        // rejoiner itself, and a fresh request opt-delivers normally.
        assert!(rejoiner.is_sequencer());
        let (next, request) = request_wire(client, 3, 2);
        deliver(&mut rejoiner, client, request);
        assert_eq!(rejoiner.stats().opt_delivered, 1, "freeze expired");
        assert!(rejoiner.committed_sequence().contains(&next));
    }

    /// A transfer whose image cannot be installed (foreign type) is abandoned
    /// and retried against the next donor instead of corrupting state.
    #[test]
    fn rejected_catch_up_image_retries_with_next_donor() {
        let config = OarConfig::default();
        let mut rejoiner = OarServer::recovering(
            ProcessId::new(2),
            (0..3).map(ProcessId::new).collect(),
            config,
            CounterMachine::default(),
        );
        let reply = CatchUpReply {
            attempt: 0,
            image: Some(crate::state_machine::StateImage::new("not a counter")),
            snapshot_position: 5,
            snapshot_digest: 0,
            snapshot_order_hash: 0,
            delta: Vec::new(),
            epoch: 5,
            conservative: false,
            gc_floor: 0,
            settled: Vec::new(),
            digest: 0,
            pending: Vec::new(),
            group: (0..3).map(ProcessId::new).collect(),
            route_epoch: 0,
            migrations: Vec::new(),
        };
        let actions = deliver(
            &mut rejoiner,
            ProcessId::new(0),
            OarWire::CatchUpReply(Box::new(reply)),
        );
        assert!(rejoiner.is_recovering(), "bad image must not end recovery");
        assert_eq!(rejoiner.a_base(), 0, "state untouched by the bad image");
        // The retry goes to the next donor in rotation: attempt 1 -> peer 1.
        assert!(
            actions.iter().any(|a| matches!(
                sent(a),
                Some((to, OarWire::CatchUpRequest { attempt: 1, .. })) if to == ProcessId::new(1)
            )),
            "rejected install must retry with the next donor"
        );
    }

    /// Settled payloads remain fetchable from the catch-up delta: a peer that
    /// missed the original multicast can repair point-to-point, and the fill
    /// is never re-relayed (no ping-pong).
    #[test]
    fn payload_fetch_served_from_settled_log() {
        let config = OarConfig {
            epoch_cut_after: Some(1),
            ..OarConfig::default()
        };
        let mut server = OarServer::new(
            ProcessId::new(0),
            vec![ProcessId::new(0)],
            config,
            CounterMachine::default(),
        );
        let client = ProcessId::new(9);
        let (rid, request) = request_wire(client, 0, 3);
        deliver(&mut server, client, request);
        assert_eq!(server.payloads_len(), 0, "settled payload pruned");

        // The payload is gone from the live map but the settled log still
        // serves it.
        let actions = deliver(
            &mut server,
            ProcessId::new(1),
            OarWire::PayloadFetch { ids: vec![rid] },
        );
        let filled = actions.iter().any(|a| match sent(a) {
            Some((to, OarWire::PayloadFill { requests })) => {
                to == ProcessId::new(1) && requests.len() == 1 && requests[0].id == rid
            }
            _ => false,
        });
        assert!(filled, "settled payloads must be served from the delta log");
        assert_eq!(server.stats().payload_fills, 1);
    }

    /// The maintenance-tick timer, as the runtime fires it.
    const TICK: Timer = Timer {
        id: oar_simnet::TimerId(0),
        tag: TimerTag::Tick,
    };

    /// Three servers wired to each other through a FIFO queue, without a
    /// simulator: wires to processes outside the group (clients) are
    /// dropped, as are wires to the server marked `down`, and every other
    /// server-to-server wire is logged, as is every timer a server arms.
    struct Trio {
        servers: Vec<OarServer<CounterMachine>>,
        down: Option<usize>,
        queue: VecDeque<(ProcessId, ProcessId, Wire)>,
        log: Vec<(ProcessId, ProcessId, Wire)>,
        timers: Vec<(ProcessId, TimerTag)>,
    }

    impl Trio {
        fn new(config: OarConfig) -> Self {
            let group: Vec<ProcessId> = (0..3).map(ProcessId::new).collect();
            let servers = group
                .iter()
                .map(|&id| OarServer::new(id, group.clone(), config, CounterMachine::default()))
                .collect();
            Trio {
                servers,
                down: None,
                queue: VecDeque::new(),
                log: Vec::new(),
                timers: Vec::new(),
            }
        }

        fn collect(&mut self, from: ProcessId, actions: Vec<Action<Wire>>) {
            for action in &actions {
                if let Action::SetTimer { tag, .. } = action {
                    self.timers.push((from, *tag));
                }
                if let Some((to, wire)) = sent(action) {
                    if to.index() < self.servers.len() && Some(to.index()) != self.down {
                        self.queue.push_back((from, to, wire.clone()));
                        self.log.push((from, to, wire.clone()));
                    }
                }
            }
        }

        /// Delivers queued wires until none is left.
        fn pump(&mut self) {
            while let Some((from, to, wire)) = self.queue.pop_front() {
                let actions = deliver(&mut self.servers[to.index()], from, wire);
                self.collect(to, actions);
            }
        }

        /// Client 9's request `seq` (adding `seq + 1`) reaches the servers
        /// `to`, then delivery runs to quiescence.
        fn submit(&mut self, seq: u64, to: &[usize]) {
            let client = ProcessId::new(9);
            for &i in to {
                let (_, request) = request_wire(client, seq, seq as i64 + 1);
                let actions = deliver(&mut self.servers[i], client, request);
                self.collect(ProcessId::new(i), actions);
            }
            self.pump();
        }

        /// One maintenance tick at server `i`, its wires queued.
        fn tick(&mut self, i: usize) {
            let actions = drive(&mut self.servers[i], |s, ctx| s.on_timer(ctx, TICK));
            self.collect(ProcessId::new(i), actions);
        }

        /// One maintenance tick at every live server, then delivery to
        /// quiescence.
        fn tick_all(&mut self) {
            for i in 0..self.servers.len() {
                if Some(i) != self.down {
                    self.tick(i);
                }
            }
            self.pump();
        }

        fn pushes(&self) -> u64 {
            self.servers.iter().map(|s| s.stats().payload_pushes).sum()
        }

        fn fills_on_the_wire(&self) -> usize {
            self.log
                .iter()
                .filter(|(_, _, w)| matches!(w, OarWire::PayloadFill { .. }))
                .count()
        }
    }

    /// Agreement without the relay: a client dies mid-multicast, its request
    /// reached one non-sequencer only. Nothing moves until that holder has
    /// seen the request stay unordered across two ticks; then it pushes it
    /// once (n-1 wires), the sequencer orders it, the epoch cut settles it at
    /// all three replicas, and no further tick pushes anything — the
    /// receivers of the push find the request ordered and keep quiet.
    #[test]
    fn request_held_by_one_non_sequencer_is_pushed_once_and_settles_everywhere() {
        let mut trio = Trio::new(OarConfig {
            epoch_cut_after: Some(1),
            ..OarConfig::default()
        });
        let client = ProcessId::new(9);
        let (rid, request) = request_wire(client, 0, 5);
        let actions = deliver(&mut trio.servers[1], client, request);
        trio.collect(ProcessId::new(1), actions);
        trio.pump();
        assert_eq!(
            trio.fills_on_the_wire(),
            0,
            "first reception relays nothing"
        );

        trio.tick_all();
        assert_eq!(trio.pushes(), 0, "held for less than a full tick");
        trio.tick_all();
        assert_eq!(trio.servers[1].stats().payload_pushes, 2, "n-1 push wires");
        for server in &trio.servers {
            assert!(
                server.stable_sequence().contains(&rid),
                "{} must have settled the request",
                server.id()
            );
            assert_eq!(server.state_machine().value(), 5);
        }
        for _ in 0..4 {
            trio.tick_all();
        }
        assert_eq!(trio.pushes(), 2, "one holder pushed, once");
        assert_eq!(trio.fills_on_the_wire(), 2, "no ping-pong");
        let fetches: u64 = trio.servers.iter().map(|s| s.stats().payload_fetches).sum();
        assert_eq!(fetches, 0, "the push made every pull unnecessary");

        // A late push of the settled request is dropped at the door.
        let (_, late) = request_wire(client, 0, 5);
        let OarWire::Request(cast) = late else {
            unreachable!()
        };
        let fill = OarWire::PayloadFill {
            requests: vec![cast.payload],
        };
        let actions = deliver(&mut trio.servers[2], ProcessId::new(1), fill);
        assert!(actions.iter().all(|a| sent(a).is_none()), "no reaction");
        assert_eq!(trio.servers[2].payloads_len(), 0, "nothing buffered again");
        assert_eq!(trio.servers[2].state_machine().value(), 5);
    }

    /// A forked server is a deep, independent copy. The script leaves the
    /// kinds of state a fork must carry — an undo stack, an order queued for a
    /// missing payload, a taken snapshot — then the original and its fork are
    /// fed the same remaining wires and must end in the same state, and a wire
    /// fed to only one of them must move that one alone.
    #[test]
    fn a_forked_server_is_a_deep_independent_copy() {
        let mut trio = Trio::new(OarConfig {
            epoch_cut_after: Some(3),
            snapshot_every: Some(1),
            ..OarConfig::default()
        });
        let client = ProcessId::new(9);
        // Epoch 0 (sequencer 0) closes at the cut of three and snapshots.
        for seq in 0..3 {
            trio.submit(seq, &[0, 1, 2]);
        }
        // Epoch 1 (sequencer 1): request 3 is opt-delivered everywhere, and
        // request 4 reaches the sequencer only, so server 2 holds its order but
        // not its payload.
        trio.submit(3, &[0, 1, 2]);
        trio.submit(4, &[1]);
        let original = &mut trio.servers[2];
        assert_eq!(original.epoch(), 1);
        assert_eq!(original.stats().snapshots_taken, 1);
        assert_eq!(original.core.undo_stack.len(), 1, "request 3 is undoable");
        assert_eq!(original.order.queue.len(), 1, "request 4 is queued");

        let mut fork = original.fork_self().expect("a counter machine forks");
        let digest = |s: &OarServer<CounterMachine>| s.state_digest().expect("servers digest");
        // Host wall-clock time is the one counter two equal runs do not share.
        let stats = |s: &OarServer<CounterMachine>| ServerStats {
            apply_ns: 0,
            ..s.stats()
        };
        assert_eq!(digest(&fork), digest(original));
        for server in [&mut *original, &mut fork] {
            let (_, payload) = request_wire(client, 4, 5);
            deliver(server, client, payload);
            drive(server, |s, ctx| s.on_timer(ctx, TICK));
        }
        assert_eq!(original.core.undo_stack.len(), 2, "request 4 delivered");
        assert_eq!(digest(&fork), digest(original));
        assert_eq!(stats(&fork), stats(original));

        let before = digest(original);
        let (_, extra) = request_wire(client, 5, 1);
        deliver(&mut fork, client, extra);
        assert_ne!(digest(&fork), before, "the fork moved");
        assert_eq!(digest(original), before, "the original did not");
        assert_eq!(
            original.payloads_len(),
            2,
            "nothing leaked into the original"
        );
    }

    /// The repair is bounded around a crashed sequencer: every holder pushes
    /// a stalled request at most once, however long it stays unordered.
    #[test]
    fn stalled_requests_are_pushed_at_most_once_per_holder() {
        let mut trio = Trio::new(OarConfig::default());
        trio.down = Some(0); // the sequencer: never hears, never orders
        let client = ProcessId::new(9);
        let (_, request) = request_wire(client, 0, 5);
        let actions = deliver(&mut trio.servers[1], client, request);
        trio.collect(ProcessId::new(1), actions);
        for _ in 0..8 {
            trio.tick_all();
        }
        assert_eq!(trio.servers[1].stats().payload_pushes, 2);
        assert_eq!(
            trio.servers[2].stats().payload_pushes,
            2,
            "the receiver of the push became a holder and pushed once too"
        );
        assert_eq!(trio.pushes(), 4, "n-1 wires per holder, whatever the wait");
    }

    /// A settled `Replace` fence swaps the fenced member's slot in place:
    /// quorum, sequencer rotation, the failure detector and the GC
    /// accounting all see the new member; the old one is gone everywhere.
    #[test]
    fn replace_fence_swaps_membership_at_epoch_close() {
        let group: Vec<ProcessId> = vec![ProcessId::new(0), ProcessId::new(1)];
        let mut server = OarServer::new(
            ProcessId::new(0),
            group,
            OarConfig::default(),
            CounterMachine::default(),
        );
        let client = ProcessId::new(9);
        let (fid, fence) = fence_wire(
            client,
            0,
            ReconfigCmd::Replace {
                old: ProcessId::new(1),
                new: ProcessId::new(2),
            },
        );
        // The fence closes its epoch conservatively on receipt.
        deliver(&mut server, client, fence);
        assert_eq!(server.phase(), Phase::Conservative, "fence forces phase 2");
        assert_eq!(
            server.members(),
            &[ProcessId::new(0), ProcessId::new(1)],
            "membership only changes at the settle, not on receipt"
        );

        // Feed the epoch's decision (as if the peer agreed).
        let decision_value = CnsvValue {
            o_delivered: [fid].into_iter().collect(),
            o_notdelivered: Default::default(),
        };
        let decide = OarWire::Consensus(ConsensusWire::Decide {
            instance: 0,
            value: vec![(ProcessId::new(0), decision_value)],
        });
        deliver(&mut server, ProcessId::new(1), decide);
        assert_eq!(server.epoch(), 1, "fence epoch closed");
        assert!(server.stable_sequence().contains(&fid));
        assert_eq!(
            server.members(),
            &[ProcessId::new(0), ProcessId::new(2)],
            "the fenced slot is swapped in place, preserving rotation order"
        );
        assert_eq!(server.stats().reconfigs_applied, 1);
        assert_eq!(
            server.sequencer_of(1),
            ProcessId::new(2),
            "the newcomer inherits the fenced member's rotation slot"
        );
        assert!(
            !server.is_suspecting(ProcessId::new(1)),
            "the fenced member is scrubbed from the suspect set"
        );
        // Duplicate fences are idempotent (old no longer in the group).
        let (fid2, fence2) = fence_wire(
            client,
            1,
            ReconfigCmd::Replace {
                old: ProcessId::new(1),
                new: ProcessId::new(2),
            },
        );
        deliver(&mut server, client, fence2);
        let decide = OarWire::Consensus(ConsensusWire::Decide {
            instance: 1,
            value: vec![(
                ProcessId::new(0),
                CnsvValue {
                    o_delivered: [fid2].into_iter().collect(),
                    o_notdelivered: Default::default(),
                },
            )],
        });
        deliver(&mut server, ProcessId::new(2), decide);
        assert_eq!(server.members(), &[ProcessId::new(0), ProcessId::new(2)]);
        assert_eq!(server.stats().reconfigs_applied, 1, "duplicate is a no-op");
    }

    /// A settled `Migrate` fence bumps the routing-boundary epoch and ships
    /// the hand-off; requests stamped with the stale epoch are door-dropped
    /// and answered with a `Redirect` carrying the records.
    #[test]
    fn stale_route_epoch_requests_are_redirected() {
        let mut server = OarServer::new(
            ProcessId::new(0),
            vec![ProcessId::new(0)],
            OarConfig::default(),
            CounterMachine::default(),
        );
        let client = ProcessId::new(9);
        let record = MigrationRecord {
            range: KeyRange::new("m", "n"),
            from_group: oar_simnet::GroupId::default(),
            to_group: oar_simnet::GroupId::new(1),
            route_epoch: 1,
        };
        let (_, fence) = fence_wire(
            client,
            0,
            ReconfigCmd::Migrate {
                record,
                to_members: vec![ProcessId::new(5)],
            },
        );
        // Single-member group: the fence settles on receipt.
        let actions = deliver(&mut server, client, fence);
        assert_eq!(server.epoch(), 1);
        assert_eq!(server.route_epoch(), 1, "boundary epoch settled");
        assert_eq!(server.migration_records().len(), 1);
        assert_eq!(server.stats().migrations_out, 1);
        // The hand-off went to the recipient member (empty for a machine
        // without keyed state, but the wire still travels).
        assert_eq!(server.stats().migrate_state_wires, 1);
        assert!(
            actions.iter().any(|a| matches!(
                sent(a),
                Some((to, OarWire::MigrateState { .. })) if to == ProcessId::new(5)
            )),
            "donor must ship the hand-off to the recipient members"
        );

        // A request still stamped with boundary epoch 0 bounces.
        let (rid, stale) = request_wire(client, 7, 1);
        let actions = deliver(&mut server, client, stale);
        assert_eq!(server.stats().redirected, 1);
        assert!(!server.committed_sequence().contains(&rid));
        assert!(
            actions.iter().any(|a| matches!(
                sent(a),
                Some((to, OarWire::Redirect { records, dropped }))
                    if to == client
                        && records.len() == 1
                        && dropped.len() == 1
                        && dropped[0] == rid
            )),
            "stale-routed client must receive the records and its dropped id"
        );
    }

    /// A fresh member of a group of three and its own settled watermark.
    fn member_of_three<S: Machine>(sm: S) -> (OarServer<S>, Settled) {
        let group: Vec<ProcessId> = (0..3).map(ProcessId::new).collect();
        let server = OarServer::new(ProcessId::new(0), group, OarConfig::default(), sm);
        let own = server.settled();
        (server, own)
    }

    /// Peers 1 and 2 report `reports` as their settled watermarks, then the
    /// server ticks; returns the tick's actions.
    fn hear_and_tick<S: Machine>(
        server: &mut OarServer<S>,
        reports: [Settled; 2],
    ) -> Vec<Action<Wire>> {
        for (peer, settled) in [1, 2].into_iter().zip(reports) {
            deliver(server, ProcessId::new(peer), OarWire::Watermark { settled });
        }
        drive(server, |s, ctx| s.on_timer(ctx, TICK))
    }

    /// Whether `actions` arm the next maintenance tick.
    fn arms_tick(actions: &[Action<Wire>]) -> bool {
        (actions.iter()).any(|a| {
            matches!(
                a,
                Action::SetTimer {
                    tag: TimerTag::Tick,
                    ..
                }
            )
        })
    }

    /// The detector: both peers report this replica's own watermark with
    /// one digest that is not its own. A majority out-votes it, so it counts
    /// the divergence, drops its state and asks a peer for a catch-up — and
    /// the tick chain ends with this tick (the install re-arms it).
    #[test]
    fn a_replica_out_voted_on_its_settled_digest_rejoins_through_catch_up() {
        let (mut server, own) = member_of_three(CounterMachine::default());
        let other = Settled {
            digest: own.digest ^ 1,
            ..own
        };
        let actions = hear_and_tick(&mut server, [other, other]);
        assert_eq!(
            server.stats().divergences,
            1,
            "counted, and kept by the rebuild"
        );
        assert!(server.is_recovering(), "the out-voted replica rejoins");
        assert!(
            actions.iter().any(|a| matches!(
                sent(a),
                Some((to, OarWire::CatchUpRequest { attempt: 0, .. })) if to == ProcessId::new(1)
            )),
            "the rejoin starts with a catch-up request to the first peer"
        );
        assert!(
            !arms_tick(&actions),
            "the tick is not re-armed while recovering"
        );
    }

    /// Nothing happens without a majority against the replica: one peer
    /// disagreeing, two peers disagreeing with each other, or a dissenting
    /// peer whose partner reports another watermark.
    #[test]
    fn no_majority_against_the_replica_changes_nothing() {
        let (_, own) = member_of_three(CounterMachine::default());
        let other = Settled {
            digest: own.digest ^ 1,
            ..own
        };
        let third = Settled {
            digest: own.digest ^ 2,
            ..own
        };
        let later = Settled {
            epoch: own.epoch + 1,
            ..other
        };
        for reports in [[other, own], [other, third], [other, later]] {
            let (mut server, _) = member_of_three(CounterMachine::default());
            let actions = hear_and_tick(&mut server, reports);
            assert_eq!(server.stats().divergences, 0, "{reports:?}");
            assert!(!server.is_recovering(), "{reports:?}");
            assert!(arms_tick(&actions), "{reports:?}: the tick chain goes on");
        }
    }

    /// End to end on three servers: a command applied outside the order at
    /// server 1 shows at the next epoch close. Server 1's next tick finds
    /// itself out-voted, rejoins blank, installs server 0's state — digest
    /// verified — and ends with exactly one tick chain armed, like a
    /// restarted replica; the healthy replicas count nothing.
    #[test]
    fn a_divergent_replica_is_caught_at_the_next_close_and_rejoins_with_one_tick_chain() {
        let mut trio = Trio::new(OarConfig {
            epoch_cut_after: Some(1),
            snapshot_every: Some(2),
            ..OarConfig::default()
        });
        trio.submit(0, &[0, 1, 2]);
        trio.servers[1].inject_divergence(&CounterCommand::Add(100));
        trio.submit(1, &[0, 1, 2]);
        let settled: Vec<Settled> = trio.servers.iter().map(|s| s.settled()).collect();
        assert!(settled.iter().all(|s| s.epoch == 2), "{settled:?}");
        assert_ne!(settled[1].digest, settled[0].digest, "shows at the close");

        trio.timers.clear();
        trio.tick_all();
        let divergences: Vec<u64> = trio.servers.iter().map(|s| s.stats().divergences).collect();
        assert_eq!(divergences, [0, 1, 0]);
        let rejoiner = &trio.servers[1];
        assert!(!rejoiner.is_recovering(), "the catch-up installed");
        assert_eq!(rejoiner.stats().catch_up_requests, 1);
        assert_eq!(rejoiner.settled(), trio.servers[0].settled());
        for server in &trio.servers {
            assert_eq!(server.state_machine().value(), 3);
            assert_eq!(
                server.state_machine().digest(),
                trio.servers[0].state_machine().digest()
            );
        }
        let ticks = |p: usize| {
            let p = ProcessId::new(p);
            (trio.timers.iter())
                .filter(|&&(at, tag)| at == p && tag == TimerTag::Tick)
                .count()
        };
        assert_eq!(ticks(1), 1, "one tick chain after the rejoin");
        assert_eq!((ticks(0), ticks(2)), (1, 1));

        // The group carries on: the next request settles at all three.
        trio.submit(2, &[0, 1, 2]);
        for server in &trio.servers {
            assert_eq!(server.state_machine().value(), 6);
        }
    }

    /// A healthy replica that hears one corrupt peer never acts, however
    /// many ticks pass: the other healthy peer keeps it in the majority.
    #[test]
    fn a_healthy_replica_hearing_one_corrupt_peer_never_rejoins() {
        let mut trio = Trio::new(OarConfig {
            epoch_cut_after: Some(1),
            ..OarConfig::default()
        });
        trio.servers[1].inject_divergence(&CounterCommand::Add(100));
        trio.submit(0, &[0, 1, 2]);
        let corrupt = trio.servers[1].settled();
        assert_ne!(corrupt, trio.servers[0].settled());
        // Servers 0 and 2 tick; server 1, which would heal itself, does not.
        for _ in 0..8 {
            trio.tick(0);
            trio.tick(2);
            trio.pump();
        }
        for i in [0, 2] {
            let server = &trio.servers[i];
            assert_eq!(server.stats().divergences, 0);
            assert!(!server.is_recovering());
            assert_eq!(server.gc.peer_settled[&ProcessId::new(1)], corrupt);
        }
    }

    /// A counter without snapshots: no catch-up install could reset it.
    #[derive(Debug, Default)]
    struct Unresettable(CounterMachine);

    impl StateMachine for Unresettable {
        type Command = CounterCommand;
        type Response = i64;
        type Undo = crate::state_machine::CounterUndo;

        fn apply(&mut self, command: &CounterCommand) -> (i64, Self::Undo) {
            self.0.apply(command)
        }

        fn undo(&mut self, token: Self::Undo) {
            self.0.undo(token);
        }

        fn digest(&self) -> u64 {
            self.0.digest()
        }
    }

    /// An out-voted replica whose machine cannot be reset counts the
    /// divergence once per watermark, not once per tick, and runs on.
    #[test]
    fn an_unresettable_replica_counts_the_divergence_once_and_runs_on() {
        let (mut server, own) = member_of_three(Unresettable::default());
        let other = Settled {
            digest: own.digest ^ 1,
            ..own
        };
        for _ in 0..3 {
            let actions = hear_and_tick(&mut server, [other, other]);
            assert!(arms_tick(&actions), "the tick chain goes on");
        }
        assert_eq!(server.stats().divergences, 1);
        assert!(!server.is_recovering());
    }
}
