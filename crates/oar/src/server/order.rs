//! Tasks 0, 1a and 1b of Fig. 6: buffering client requests, ordering them at
//! the sequencer, and Opt-delivering them — with sequencer batching and
//! batch-aware replies.
//!
//! # Hot-path data structures
//!
//! The per-request work of the optimistic phase is O(1) amortised:
//!
//! * `O_delivered` and `A_delivered` are indexed [`Seq`]s, so the membership
//!   tests of Tasks 1a/1b (`has_delivered`) cost O(1) instead of a scan;
//! * the not-yet-deliverable suffix of the sequencer order is a `VecDeque`
//!   plus a membership `HashSet`, so draining it is O(1) per request;
//! * the sequencer keeps a cursor into `R_delivered` ([`Order::cursor`])
//!   marking the prefix it has already examined, so Task 1a only scans *new*
//!   requests instead of the whole reception buffer on every invocation;
//! * epoch close appends to `A_delivered` in place rather than rebuilding it.
//!
//! # Sequencer batching
//!
//! Task 1a accumulates unordered requests and emits a single `OrderMsg`
//! carrying the whole batch once the backlog reaches the batch threshold.
//! With `max_batch = 1` — the default — every request is ordered immediately,
//! exactly like the paper's Fig. 6; larger values amortise the ordering
//! broadcast over many requests, which is what makes the ordering layer keep
//! up at high client counts (`ServerStats::order_messages_sent` drops well
//! below the request count).
//!
//! The threshold is either static ([`OarConfig::max_batch`], a partial batch
//! then waits for the maintenance tick) or — with [`OarConfig::adaptive`]
//! set — owned by a [`BatchController`] that aims it at the observed arrival
//! rate, converging to 1 under light load (no added latency) and growing
//! under pressure. An adaptive partial batch never waits for the tick: a
//! dedicated **flush deadline** timer orders it the controller's
//! `max_delay` after its first unflushed arrival, independent of the tick
//! cadence. `ServerStats::effective_batch` / `ServerStats::batch_sizes`
//! record the batches actually emitted; `batch_target`, `target_raises` and
//! `target_drops` expose the controller's convergence.
//!
//! # Batch-aware replies
//!
//! Replies follow the same discipline: while a delivery batch (the drain of
//! an `OrderMsg`, or the A-deliveries of a `Cnsv-order` decision) runs, the
//! per-request replies destined for the same client are accumulated and
//! flushed as **one** `ReplyBatch` wire per client — one allocation and one
//! network event where the unbatched protocol paid one `Reply` per request.
//! `flush_replies` is the single construction site for both the optimistic
//! and the conservative reply path; `ServerStats::reply_messages_sent`
//! counts the wires, `ServerStats::replies_sent` the individual request
//! replies they carry.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};

use oar_sequence::Seq;
use oar_simnet::{ProcessId, Runtime, SimTime, TimerTag};

use super::{OarServer, Phase, ServerStats, Wire};
use crate::adaptive::BatchController;
use crate::config::OarConfig;
use crate::message::{
    DeliveryKind, OarWire, OrderMsg, ReplyBatch, ReplyItem, Request, RequestId, Weight,
};
use crate::state_machine::{AppliedBatch, StateMachine};

/// Replies accumulated during one delivery batch, keyed by destination
/// client. `BTreeMap` so the flush order (and thus the simulation schedule)
/// is deterministic.
type PendingReplies<R> = BTreeMap<ProcessId, Vec<ReplyItem<R>>>;

/// The reception buffer and the sequencer order of the current epoch.
#[derive(Clone, Debug, Default)]
pub(super) struct Order {
    /// Reception order of client requests (the paper's `R_delivered`).
    pub(super) r_delivered: Seq<RequestId>,
    /// Requests Opt-delivered in the current epoch (the paper's `O_delivered`).
    pub(super) o_delivered: Seq<RequestId>,
    /// Ordered requests not yet Opt-delivered because their payload has not
    /// arrived yet (delivery must follow the sequencer order).
    pub(super) queue: VecDeque<RequestId>,
    /// Fast membership test for `queue`.
    pub(super) queued: HashSet<RequestId>,
    /// Sequencer cursor into `r_delivered`: every request before this
    /// position has already been examined by Task 1a this epoch (it is
    /// delivered, settled, or in `queue`), so Task 1a only scans the suffix
    /// of new arrivals.
    pub(super) cursor: usize,
    /// Adaptive batch controller (sequencer side), present when
    /// `config.adaptive` is set.
    pub(super) adaptive: Option<BatchController>,
    /// When the current partial batch must be flushed (`None`: no partial
    /// batch is on the clock). Tracked separately from the timer because
    /// timers cannot be cancelled — see `schedule_flush_deadline`.
    flush_deadline: Option<SimTime>,
    /// Whether a flush-deadline timer is in flight (at most one at any time).
    flush_timer_pending: bool,
}

impl Order {
    pub(super) fn new(config: &OarConfig) -> Self {
        Order {
            adaptive: config.adaptive.map(BatchController::new),
            ..Order::default()
        }
    }

    /// Everything but `queued` (the set view of `queue`).
    pub(super) fn digest(&self, h: &mut impl Hasher) {
        self.cursor.hash(h);
        self.r_delivered.as_slice().hash(h);
        self.o_delivered.as_slice().hash(h);
        self.queue.hash(h);
        format!("{:?}", self.flush_deadline).hash(h);
        self.flush_timer_pending.hash(h);
        format!("{:?}", self.adaptive).hash(h);
    }
}

/// Applies one delivery batch to the state machine, routing through
/// [`StateMachine::apply_batch`] when parallel apply is configured and the
/// batch has room for concurrency. A free function over the individual
/// fields so callers can keep disjoint borrows of the server.
///
/// Wall-clock time spent applying and the wave partition used are recorded
/// in the stats; both are observability only and never feed back into the
/// (deterministic) protocol.
fn apply_command_batch<S: StateMachine>(
    sm: &mut S,
    parallel: Option<usize>,
    stats: &mut ServerStats,
    commands: &[&S::Command],
) -> Vec<(S::Response, S::Undo)> {
    let start = std::time::Instant::now();
    let batch = match parallel {
        Some(workers) if commands.len() > 1 => sm.apply_batch(commands, workers),
        _ => AppliedBatch {
            results: commands.iter().map(|c| sm.apply(c)).collect(),
            wave_sizes: vec![1; commands.len()],
        },
    };
    stats.apply_ns += start.elapsed().as_nanos() as u64;
    for &size in &batch.wave_sizes {
        stats.wave_sizes.record(size);
    }
    batch.results
}

impl<S: StateMachine> OarServer<S> {
    /// Number of received requests Task 1a has not examined yet.
    fn order_backlog(&self) -> usize {
        self.order.r_delivered.len() - self.order.cursor
    }

    /// Task 0 (Fig. 6 lines 6–7): buffer an incoming client request — the
    /// R-delivery, at most once per request whichever way its copies arrive
    /// (from the client, pushed or forwarded by a peer, pulled).
    pub(super) fn handle_request_delivery(
        &mut self,
        ctx: &mut dyn Runtime<Wire<S>>,
        request: Request<S::Command>,
    ) {
        let id = request.id;
        debug_assert_eq!(
            request.group, self.core.config.group,
            "misroutes are dropped at the door"
        );
        if self.core.payloads.contains_key(&id) || self.core.settled.contains(&id) {
            return;
        }
        if request.txn.is_some() {
            self.stats.txn_prepares += 1;
        }
        let fence = request.reconfig.is_some();
        self.core.payloads.insert(id, request);
        self.stats.payloads.record(self.core.payloads.len() as u64);
        self.order.r_delivered.push(id);
        // Feed the adaptive controller on every server (not just the current
        // sequencer): O(1), and it keeps a fail-over successor's rate
        // estimate warm.
        if let Some(controller) = self.order.adaptive.as_mut() {
            controller.record_arrival(ctx.now());
        }
        // New payloads may unblock a buffered sequencer order or a pending
        // consensus decision (the missing set makes the latter O(1)).
        self.drain_order_queue(ctx);
        if self.phase2.pending_missing.remove(&id) {
            self.try_apply_pending_decision(ctx);
        }
        // Task 1a: the sequencer flushes as soon as the accumulated backlog
        // fills a batch — the static `max_batch`, or the adaptive
        // controller's load-driven target (with a threshold of 1 this orders
        // every request immediately, the paper's unbatched behaviour). The
        // adaptive controller puts a smaller backlog on the flush-deadline
        // clock, so its added latency is bounded independent of the tick
        // cadence; a static one waits for the tick.
        let backlog = self.order_backlog();
        if backlog >= self.order_threshold(backlog) {
            self.maybe_order(ctx);
        } else {
            self.schedule_flush_deadline(ctx);
        }
        // A reconfiguration fence closes its epoch conservatively as soon as
        // it is received: fence effects only take hold at an epoch close
        // (`apply_decision`), and the close also settles everything ordered
        // before the fence — the deterministic cut the membership or
        // boundary change happens at. Timer-free: works in the checker too.
        if fence {
            self.start_phase2(ctx);
        }
    }

    /// The batch threshold currently in force: the adaptive controller's
    /// advised batch when configured, the static `max_batch` otherwise.
    fn order_threshold(&self, backlog: usize) -> usize {
        match &self.order.adaptive {
            Some(controller) => controller.target_batch(backlog),
            None => self.core.config.max_batch.max(1),
        }
    }

    /// Arms the flush deadline for the current partial batch, if the
    /// adaptive controller sets one (a static batch waits for the
    /// maintenance tick) and the batch does not have one yet.
    ///
    /// Timers cannot be cancelled, so the deadline *instant* is tracked
    /// separately (`flush_deadline`): a timer that fires after its batch
    /// already flushed finds either no deadline (ignored) or a newer, later
    /// one — in which case it re-arms for the remainder, so a fresh partial
    /// batch always gets its full window and `deadline_flushes` counts only
    /// genuine deadline expiries.
    fn schedule_flush_deadline(&mut self, ctx: &mut dyn Runtime<Wire<S>>) {
        if self.order.flush_deadline.is_some()
            || self.core.phase != Phase::Optimistic
            || !self.is_sequencer()
            || self.order_backlog() == 0
        {
            return;
        }
        if let Some(controller) = &self.order.adaptive {
            let delay = controller.config().max_delay;
            self.order.flush_deadline = Some(ctx.now() + delay);
            // At most one timer in flight: an earlier-armed timer (same
            // delay, armed earlier) necessarily fires before this deadline
            // and re-arms itself for the remainder.
            if !self.order.flush_timer_pending {
                ctx.set_timer(delay, TimerTag::Flush);
                self.order.flush_timer_pending = true;
            }
        }
    }

    /// The flush-deadline timer fired.
    pub(super) fn on_flush_timer(&mut self, ctx: &mut dyn Runtime<Wire<S>>) {
        self.order.flush_timer_pending = false;
        match self.order.flush_deadline {
            // The batch this timer was armed for already flushed (and no
            // newer partial batch started): nothing to do.
            None => {}
            // A newer partial batch owns the deadline now: give it its full
            // window by re-arming for the remainder.
            Some(deadline) if ctx.now() < deadline => {
                ctx.set_timer(deadline.duration_since(ctx.now()), TimerTag::Flush);
                self.order.flush_timer_pending = true;
            }
            // Flush deadline expired: order whatever accumulated, however
            // small — this bounds the added ordering latency of batching
            // independent of the tick cadence.
            Some(_) => {
                self.order.flush_deadline = None;
                if self.core.phase == Phase::Optimistic
                    && self.is_sequencer()
                    && self.order_backlog() > 0
                {
                    self.stats.deadline_flushes += 1;
                    self.maybe_order(ctx);
                }
            }
        }
    }

    /// Mirrors the adaptive controller's convergence state into the stats
    /// counters after any controller update.
    pub(super) fn sync_adaptive_stats(&mut self) {
        if let Some(controller) = &self.order.adaptive {
            self.stats.batch_target = controller.target() as u64;
            self.stats.target_raises = controller.raises();
            self.stats.target_drops = controller.drops();
        }
    }

    /// Task 1a (Fig. 6 lines 8–10): the sequencer orders unordered requests.
    ///
    /// Only the suffix of `R_delivered` behind the cursor is scanned:
    /// everything before it was examined by an earlier invocation this epoch
    /// and is delivered, settled or queued. The whole batch travels in one
    /// `OrderMsg` broadcast.
    pub(super) fn maybe_order(&mut self, ctx: &mut dyn Runtime<Wire<S>>) {
        if self.core.phase != Phase::Optimistic || !self.is_sequencer() {
            return;
        }
        if self.order.cursor >= self.order.r_delivered.len() {
            return;
        }
        let mut batch: Seq<RequestId> = Seq::with_capacity(self.order_backlog());
        for id in &self.order.r_delivered.as_slice()[self.order.cursor..] {
            if self.is_unordered(id) {
                batch.push(*id);
            }
        }
        self.order.cursor = self.order.r_delivered.len();
        // The whole backlog is examined now: whatever deadline the partial
        // batch had is served (a stale timer finds no deadline and ignores
        // itself).
        self.order.flush_deadline = None;
        if batch.is_empty() {
            return;
        }
        self.stats.order_messages_sent += 1;
        self.stats.effective_batch.record(batch.len() as u64);
        self.stats.batch_sizes.record(batch.len() as u64);
        if let Some(controller) = self.order.adaptive.as_mut() {
            controller.note_flush();
        }
        self.sync_adaptive_stats();
        let msg = OrderMsg {
            epoch: self.core.epoch,
            order: batch.clone(),
            settled: self.settled(),
        };
        // One allocation of the wire message shared across all recipients.
        ctx.send_all(&self.peers(), OarWire::Order(msg));
        // "The sequencer immediately delivers this message" (§5.3).
        self.accept_order(ctx, batch);
    }

    /// An `OrderMsg` from a peer: accepted if it is the current sequencer's
    /// order for the current epoch, buffered if it is early.
    pub(super) fn on_order(
        &mut self,
        ctx: &mut dyn Runtime<Wire<S>>,
        from: ProcessId,
        msg: OrderMsg,
    ) {
        // The watermark is meaningful whatever the epoch check says.
        self.note_settled(from, msg.settled);
        if msg.epoch < self.core.epoch {
            return;
        }
        if msg.epoch > self.core.epoch {
            let early = self.phase2.future_orders.entry(msg.epoch).or_default();
            early.push(msg.order);
            return;
        }
        if self.core.phase == Phase::Optimistic && from == self.current_sequencer() {
            self.accept_order(ctx, msg.order);
        }
    }

    /// Task 1b (Fig. 6 lines 11–19): accept an ordering for the current epoch.
    pub(super) fn accept_order(&mut self, ctx: &mut dyn Runtime<Wire<S>>, order: Seq<RequestId>) {
        for id in order.iter() {
            if !self.has_delivered(id) && self.order.queued.insert(*id) {
                self.order.queue.push_back(*id);
            }
        }
        self.drain_order_queue(ctx);
    }

    /// Opt-delivers ordered requests whose payload is available, preserving the
    /// sequencer order. O(1) per drained request; the whole drain forms **one**
    /// delivery batch — applied in one [`apply_command_batch`] call (the
    /// speculative half of parallel apply: waves of non-conflicting optimistic
    /// deliveries execute concurrently, each still individually undoable) —
    /// and produces at most one `ReplyBatch` wire per client. The undo tokens
    /// are kept: the epoch's decision may roll these deliveries back.
    fn drain_order_queue(&mut self, ctx: &mut dyn Runtime<Wire<S>>) {
        if self.core.phase != Phase::Optimistic {
            return;
        }
        // A rejoiner never opt-delivers in the epoch it caught up into: it
        // missed the epoch's earlier order batches, and a mid-epoch start
        // would make its `O_delivered` diverge from the sequencer-order
        // prefix every other replica holds (Lemma 2). The queued orders
        // settle at the conservative close instead.
        // `bug_skip_opt_freeze` (model-checker fault toggle) reintroduces
        // the pre-freeze behaviour so `oar-mc` can re-find the divergence.
        if !self.core.config.bug_skip_opt_freeze
            && self.recovery.opt_freeze_epoch == Some(self.core.epoch)
        {
            return;
        }
        // Collect the deliverable prefix of the queue, stopping at the §5.3
        // epoch cut: proactively cut long epochs to garbage-collect
        // O_delivered. The rest of the queue is re-ordered in the next epoch.
        let mut batch: Vec<RequestId> = Vec::new();
        let mut cut_epoch = false;
        while let Some(&next) = self.order.queue.front() {
            if self.has_delivered(&next) {
                self.order.queue.pop_front();
                self.order.queued.remove(&next);
                continue;
            }
            if !self.core.payloads.contains_key(&next) {
                break;
            }
            self.order.queue.pop_front();
            self.order.queued.remove(&next);
            batch.push(next);
            if let Some(cut) = self.core.config.epoch_cut_after {
                let delivered = self.order.o_delivered.len() + batch.len();
                if delivered as u64 >= cut && self.is_sequencer() {
                    cut_epoch = true;
                    break;
                }
            }
        }
        for (id, undo) in self.deliver_batch(ctx, &batch, DeliveryKind::Optimistic) {
            self.order.o_delivered.push(id);
            self.core.undo_stack.push((id, undo));
            self.stats
                .undo_depth
                .record(self.core.undo_stack.len() as u64);
            self.stats.opt_delivered += 1;
        }
        if cut_epoch {
            self.start_phase2(ctx);
        }
    }

    /// Delivers `ids` as one batch: applies their commands — in parallel
    /// waves when configured, every result bit-identical to serial apply —
    /// advances the delivery position and replies to their clients (the
    /// one delivery path of both `Opt-deliver` and `A-deliver`). Returns the
    /// undo token of each delivery, in delivery order.
    pub(super) fn deliver_batch(
        &mut self,
        ctx: &mut dyn Runtime<Wire<S>>,
        ids: &[RequestId],
        kind: DeliveryKind,
    ) -> Vec<(RequestId, S::Undo)> {
        if ids.is_empty() {
            return Vec::new();
        }
        let core = &mut self.core;
        let requests: Vec<&Request<S::Command>> = ids
            .iter()
            .map(|id| core.payloads.get(id).expect("payload present"))
            .collect();
        let commands: Vec<&S::Command> = requests.iter().map(|r| &r.command).collect();
        let parallel = core.config.parallel_apply;
        let results = apply_command_batch(&mut self.sm, parallel, &mut self.stats, &commands);
        let label = match kind {
            DeliveryKind::Optimistic => "Opt-deliver",
            DeliveryKind::Conservative => "A-deliver",
        };
        let mut pending: PendingReplies<S::Response> = BTreeMap::new();
        let mut undos = Vec::with_capacity(ids.len());
        for (request, (response, undo)) in requests.into_iter().zip(results) {
            let (id, position) = (request.id, core.position + 1);
            core.position = position;
            ctx.annotate_with(|| format!("{label}({id}) @{position}"));
            let reply = ReplyItem {
                request: id,
                position,
                response,
            };
            pending.entry(request.client).or_default().push(reply);
            undos.push((id, undo));
        }
        self.flush_replies(ctx, pending, kind);
        undos
    }

    /// The single reply-construction site of the server: sends the queued
    /// replies of one delivery batch, one `ReplyBatch` wire per client.
    ///
    /// The weight is identical for every reply of the batch (Fig. 6 lines
    /// 12–15 and 27–29): `{p, s}` — `{s}` collapses into it on the sequencer
    /// itself — for optimistic deliveries, the whole group `Π` for
    /// conservative ones. Must be called before the epoch advances, so the
    /// batch is stamped with the epoch its deliveries happened in.
    fn flush_replies(
        &mut self,
        ctx: &mut dyn Runtime<Wire<S>>,
        pending: PendingReplies<S::Response>,
        kind: DeliveryKind,
    ) {
        if pending.is_empty() {
            return;
        }
        let weight: Weight = match kind {
            DeliveryKind::Optimistic => [self.current_sequencer(), self.core.id].into(),
            DeliveryKind::Conservative => self.core.group.iter().copied().collect(),
        };
        // The group-wide size of this delivery batch, reported to every
        // client as the pipeline co-adaptation signal (a client's own item
        // count would under-report whenever other clients share the batch).
        let batch_hint: u64 = pending.values().map(|items| items.len() as u64).sum();
        for (client, items) in pending {
            self.stats.reply_messages_sent += 1;
            self.stats.replies_sent += items.len() as u64;
            let batch = ReplyBatch {
                epoch: self.core.epoch,
                weight: weight.clone(),
                from: self.core.id,
                kind,
                batch_hint,
                items,
            };
            ctx.send(client, OarWire::Replies(batch));
        }
    }
}
