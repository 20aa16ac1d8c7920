//! Tasks 1c and 2 of Fig. 6: suspecting the sequencer, the `(k, PhaseII)`
//! broadcast, the epoch's `Cnsv-order` consensus, and the epoch close that
//! applies its decision.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::hash::{Hash, Hasher};

use oar_channels::{CastWire, ReliableCaster};
use oar_consensus::{ConsensusConfig, ConsensusSend, ConsensusWire, Decision, MajConsensus};
use oar_sequence::Seq;
use oar_simnet::{ProcessId, Runtime};

use super::{sorted, OarServer, Phase, Wire};
use crate::cnsv_order::cnsv_order_outcome;
use crate::message::{CnsvValue, DeliveryKind, OarWire, PhaseIIMsg, ReconfigCmd, RequestId};
use crate::state_machine::StateMachine;

/// The conservative phase of the current epoch, and what arrived early for
/// later epochs.
#[derive(Clone, Debug)]
pub(super) struct Phase2 {
    /// True once Task 1c fired (or a PhaseII was delivered) for this epoch.
    pub(super) started: bool,
    /// The reliable broadcast of `(k, PhaseII)`.
    pub(super) cast: ReliableCaster<PhaseIIMsg>,
    /// The epoch's consensus instance, once phase 2 is entered.
    pub(super) consensus: Option<MajConsensus<CnsvValue>>,
    /// Order batches of future epochs.
    pub(super) future_orders: BTreeMap<u64, Vec<Seq<RequestId>>>,
    /// Future epochs whose `PhaseII` was already delivered.
    future_phase2: BTreeSet<u64>,
    /// Consensus wires of instances not started here yet.
    buffered_consensus: BTreeMap<u64, Vec<(ProcessId, ConsensusWire<CnsvValue>)>>,
    /// A consensus decision whose requests are not all locally known yet.
    pending_decision: Option<Decision<CnsvValue>>,
    /// The payloads the pending decision is still waiting for. Maintained
    /// incrementally so each payload arrival re-examines the decision in
    /// O(1) instead of rescanning every request it mentions.
    pub(super) pending_missing: HashSet<RequestId>,
}

impl Phase2 {
    pub(super) fn new(id: ProcessId, group: Vec<ProcessId>) -> Self {
        Phase2 {
            started: false,
            cast: ReliableCaster::new(id, group),
            consensus: None,
            future_orders: BTreeMap::new(),
            future_phase2: BTreeSet::new(),
            buffered_consensus: BTreeMap::new(),
            pending_decision: None,
            pending_missing: HashSet::new(),
        }
    }

    /// The caster via [`ReliableCaster::digest_view`], consensus and the
    /// out-of-epoch buffers via their deterministic `Debug` form.
    pub(super) fn digest(&self, h: &mut impl Hasher) {
        self.started.hash(h);
        self.cast.digest_view().hash(h);
        format!("{:?}", self.consensus).hash(h);
        format!("{:?}", self.future_orders).hash(h);
        self.future_phase2.hash(h);
        format!("{:?}", self.buffered_consensus).hash(h);
        format!("{:?}", self.pending_decision).hash(h);
        sorted(self.pending_missing.iter()).hash(h);
    }
}

impl<S: StateMachine> OarServer<S> {
    /// Task 1c (Fig. 6 lines 20–21): trigger phase 2 when the sequencer is
    /// suspected.
    pub(super) fn maybe_start_phase2(&mut self, ctx: &mut dyn Runtime<Wire<S>>) {
        if self.core.phase == Phase::Optimistic
            && !self.phase2.started
            && self.core.fd.is_suspected(self.current_sequencer())
        {
            self.start_phase2(ctx);
        }
    }

    /// R-broadcasts `(k, PhaseII)`; the local delivery enters phase 2
    /// immediately.
    pub(super) fn start_phase2(&mut self, ctx: &mut dyn Runtime<Wire<S>>) {
        if self.phase2.started || self.core.phase != Phase::Optimistic {
            return;
        }
        self.phase2.started = true;
        let (wire, targets, local) = self.phase2.cast.broadcast_shared(PhaseIIMsg {
            epoch: self.core.epoch,
            settled: self.settled(),
        });
        self.note_phase2_id(local.payload.epoch, local.id);
        ctx.send_all(&targets, OarWire::PhaseII(wire));
        self.handle_phase2_delivery(ctx, local.payload);
    }

    /// A `PhaseII` wire from a peer: relayed and delivered by the caster.
    pub(super) fn on_phase2_wire(
        &mut self,
        ctx: &mut dyn Runtime<Wire<S>>,
        wire: CastWire<PhaseIIMsg>,
    ) {
        // A PhaseII for an epoch the payload collector already passed is
        // settled knowledge group-wide; its multicast id may have been aged
        // out of `seen`, so (as for requests) drop it before the caster
        // would re-deliver and re-relay.
        if wire.payload.epoch < self.gc.floor {
            return;
        }
        let (delivery, relay) = self.phase2.cast.on_wire_shared(wire);
        if let Some((wire, targets)) = relay {
            ctx.send_all(&targets, OarWire::PhaseII(wire));
        }
        if let Some(delivery) = delivery {
            // The piggybacked watermark describes the broadcast's origin,
            // not the relaying neighbour.
            self.note_settled(delivery.origin, delivery.payload.settled);
            self.note_phase2_id(delivery.payload.epoch, delivery.id);
            self.handle_phase2_delivery(ctx, delivery.payload);
        }
    }

    /// Task 2 entry (Fig. 6 line 22): R-delivery of `(k, PhaseII)`.
    fn handle_phase2_delivery(&mut self, ctx: &mut dyn Runtime<Wire<S>>, msg: PhaseIIMsg) {
        if msg.epoch < self.core.epoch {
            return;
        }
        if msg.epoch > self.core.epoch {
            self.phase2.future_phase2.insert(msg.epoch);
            return;
        }
        if self.core.phase == Phase::Conservative {
            return;
        }
        self.enter_phase2(ctx);
    }

    /// Enters the conservative phase of the current epoch: propose our
    /// `(O_delivered, O_notdelivered)` to the epoch's consensus.
    pub(super) fn enter_phase2(&mut self, ctx: &mut dyn Runtime<Wire<S>>) {
        self.core.phase = Phase::Conservative;
        self.phase2.started = true;
        self.stats.phase2_entered += 1;
        ctx.annotate_with(|| format!("PhaseII(epoch={})", self.core.epoch));

        // Fig. 6 line 23: O_notdelivered = (R_delivered ⊖ A_delivered) ⊖ O_delivered.
        let o_notdelivered: Seq<RequestId> = self
            .order
            .r_delivered
            .iter()
            .filter(|id| !self.has_delivered(id))
            .copied()
            .collect();

        // The round-1 coordinator is the successor of the (suspected)
        // sequencer, so fail-over does not wait on the crashed process.
        let group = &self.core.group;
        let first_coordinator = group[(self.core.epoch as usize + 1) % group.len()];
        let mut consensus = MajConsensus::new(
            self.core.epoch,
            self.core.id,
            group.clone(),
            first_coordinator,
            ConsensusConfig::default(),
        );
        let value = CnsvValue {
            o_delivered: self.order.o_delivered.clone(),
            o_notdelivered,
        };
        let output = consensus.propose(value);
        self.phase2.consensus = Some(consensus);
        self.dispatch_consensus_output(ctx, output.messages, output.decision);

        // Feed consensus messages that arrived before we entered phase 2.
        let epoch = self.core.epoch;
        let buffered = self.phase2.buffered_consensus.remove(&epoch);
        for (from, wire) in buffered.unwrap_or_default() {
            self.feed_consensus(ctx, from, wire);
        }
        // The consensus needs the current suspicion view to make progress when
        // the coordinator is already dead.
        self.push_suspects_to_consensus(ctx);
    }

    pub(super) fn push_suspects_to_consensus(&mut self, ctx: &mut dyn Runtime<Wire<S>>) {
        if let Some(consensus) = self.phase2.consensus.as_mut() {
            let output = consensus.update_suspects(self.core.fd.suspects());
            self.dispatch_consensus_output(ctx, output.messages, output.decision);
        }
    }

    /// A consensus wire: fed to the current instance, buffered for a later
    /// one, dropped for a finished one.
    pub(super) fn on_consensus_wire(
        &mut self,
        ctx: &mut dyn Runtime<Wire<S>>,
        from: ProcessId,
        wire: ConsensusWire<CnsvValue>,
    ) {
        let instance = wire.instance();
        let epoch = self.core.epoch;
        if instance < epoch {
            return;
        }
        if instance > epoch || (instance == epoch && self.phase2.consensus.is_none()) {
            let early = self.phase2.buffered_consensus.entry(instance).or_default();
            early.push((from, wire));
            // Consensus traffic for the current epoch means somebody entered
            // phase 2: the PhaseII broadcast will follow (it is reliable), so
            // we simply wait for it.
            return;
        }
        self.feed_consensus(ctx, from, wire);
    }

    fn feed_consensus(
        &mut self,
        ctx: &mut dyn Runtime<Wire<S>>,
        from: ProcessId,
        wire: ConsensusWire<CnsvValue>,
    ) {
        if let Some(consensus) = self.phase2.consensus.as_mut() {
            let output = consensus.on_wire(from, wire);
            self.dispatch_consensus_output(ctx, output.messages, output.decision);
        }
    }

    pub(super) fn dispatch_consensus_output(
        &mut self,
        ctx: &mut dyn Runtime<Wire<S>>,
        messages: Vec<ConsensusSend<CnsvValue>>,
        decision: Option<Decision<CnsvValue>>,
    ) {
        for send in messages {
            self.stats.consensus_wires_sent += 1;
            self.stats.consensus_messages_sent += send.targets.len() as u64;
            if let [to] = send.targets[..] {
                ctx.send(to, OarWire::Consensus(send.wire));
            } else {
                // Group-wide wire (Propose / Decide): one shared allocation
                // for every recipient instead of a pre-clone per destination.
                ctx.send_all(&send.targets, OarWire::Consensus(send.wire));
            }
        }
        if let Some(decision) = decision {
            self.set_pending_decision(ctx, decision);
        }
    }

    /// Adopts the epoch's decision and records which payloads it still waits
    /// for. Requests decided by others but not yet received here arrive from
    /// their client, or are pulled on the next ticks; each arrival knocks
    /// its id out of `pending_missing` (O(1)) and the decision applies when
    /// the set drains — no periodic rescan needed.
    fn set_pending_decision(
        &mut self,
        ctx: &mut dyn Runtime<Wire<S>>,
        decision: Decision<CnsvValue>,
    ) {
        self.phase2.pending_missing = decision
            .iter()
            .flat_map(|(_, v)| v.o_delivered.iter().chain(v.o_notdelivered.iter()))
            .filter(|id| !self.core.payloads.contains_key(id))
            .copied()
            .collect();
        self.phase2.pending_decision = Some(decision);
        self.try_apply_pending_decision(ctx);
    }

    /// Applies the pending decision if every request it mentions is locally
    /// known (the missing set is empty).
    pub(super) fn try_apply_pending_decision(&mut self, ctx: &mut dyn Runtime<Wire<S>>) {
        if self.phase2.pending_decision.is_none()
            || self.core.phase != Phase::Conservative
            || !self.phase2.pending_missing.is_empty()
        {
            return;
        }
        let decision = self.phase2.pending_decision.take().expect("checked above");
        self.apply_decision(ctx, decision);
    }

    /// Task 2 body (Fig. 6 lines 24–32).
    fn apply_decision(&mut self, ctx: &mut dyn Runtime<Wire<S>>, decision: Decision<CnsvValue>) {
        let outcome = cnsv_order_outcome(&self.order.o_delivered, &decision);

        // Lines 25–26: Opt-undeliver the wrongly ordered requests, in reverse
        // delivery order (footnote 2).
        for id in outcome.bad.iter().rev() {
            let (undone_id, token) = self
                .core
                .undo_stack
                .pop()
                .expect("undo stack holds every current-epoch optimistic delivery");
            debug_assert_eq!(&undone_id, id, "Bad must be a suffix of O_delivered");
            self.sm.undo(token);
            self.core.position -= 1;
            self.stats.opt_undelivered += 1;
            ctx.annotate_with(|| format!("Opt-undeliver({id})"));
        }

        // Lines 27–29: A-deliver the new sequence and reply with weight Π,
        // one ReplyBatch per client for the whole decision. The decision is
        // one delivery batch: with parallel apply configured its
        // non-conflicting commands execute in concurrent waves, bit-identical
        // to applying them one by one. The undo tokens are dropped:
        // A-deliveries are settled and never rolled back. Replied while
        // `epoch` is still the closing epoch, so the batch is stamped
        // correctly.
        let delivered = self.deliver_batch(ctx, outcome.new.as_slice(), DeliveryKind::Conservative);
        self.stats.a_delivered += delivered.len() as u64;

        // Line 30: A_delivered ← A_delivered ⊕ (O_delivered ⊖ Bad) ⊕ New.
        // Appended in place: O(epoch length), not O(|A_delivered|).
        let kept = self.order.o_delivered.subtract(&outcome.bad);
        let mut decided_now: Vec<RequestId> = Vec::with_capacity(kept.len() + outcome.new.len());
        let mut reconfigs: Vec<ReconfigCmd> = Vec::new();
        for id in kept.iter().chain(outcome.new.iter()) {
            self.core.settled.insert(*id);
            self.core.a_delivered.push(*id);
            decided_now.push(*id);
            // The settled request (with payload) joins the catch-up delta —
            // retained past the payload GC until the next snapshot compacts
            // it, so a donor can always serve snapshot + delta.
            let request = self.core.payloads.get(id).expect("payload present").clone();
            if let Some(cmd) = &request.reconfig {
                reconfigs.push(cmd.clone());
            }
            self.recovery.settled_log.push_back(request);
        }
        // The payloads of this epoch's decisions become prunable once every
        // live replica acknowledges the epoch.
        if !decided_now.is_empty() {
            self.gc.pending.insert(self.core.epoch, decided_now);
        }

        // Settled reconfiguration fences take effect here — after the whole
        // batch applied (so every command settled up to this epoch executed
        // under the *old* membership/boundaries) and before the next epoch
        // opens (so everything after runs under the new ones): the
        // deterministic cut at the epoch boundary. Epochs close in order
        // with identical decisions group-wide, so every replica applies the
        // same reconfigurations at the same position.
        for cmd in reconfigs {
            self.apply_reconfig(ctx, cmd);
        }

        // Lines 31–32: reset the optimistic state and move to the next epoch.
        self.order.o_delivered = Seq::new();
        self.core.undo_stack.clear();
        self.order.queue.clear();
        self.order.queued.clear();
        self.order.cursor = 0;
        self.core.epoch += 1;
        self.core.phase = Phase::Optimistic;
        self.phase2.started = false;
        self.phase2.consensus = None;
        self.stats.epochs_completed += 1;
        // Right here the state machine holds exactly the settled prefix
        // (every optimistic delivery was either kept — now settled — or
        // undone, and the new epoch has not delivered yet): the digest a
        // rejoiner must reproduce, and the state a snapshot captures.
        self.recovery.settled_digest = self.sm.digest();
        let retained = self.core.a_delivered.len() as u64;
        self.stats.a_delivered_len.record(retained);
        if let Some(every) = self.core.config.snapshot_every {
            // Epochs close in order, group-wide, with identical decisions,
            // so every replica snapshots at the same positions.
            if self.core.epoch.is_multiple_of(every) {
                self.take_snapshot();
            }
        }
        ctx.annotate_with(|| format!("epoch {} starts", self.core.epoch));

        // Serve the catch-up transfers held for members a fence just
        // admitted — after the epoch reset, so the reply carries the fresh
        // epoch and phase (a mid-close snapshot would point the rejoiner at
        // a consensus instance the group has already finished).
        self.serve_held_catch_ups(ctx);

        // Announce the advanced watermark so peers can prune, and prune
        // whatever the group has already acknowledged.
        let settled = self.settled();
        ctx.send_all(&self.peers(), OarWire::Watermark { settled });
        self.maybe_gc();

        // Prune the reception buffer: settled requests never need re-ordering.
        let settled = &self.core.settled;
        self.order.r_delivered = self
            .order
            .r_delivered
            .iter()
            .filter(|id| !settled.contains(id))
            .copied()
            .collect();
        self.reset_stall_scan();

        // Replay buffered messages that were waiting for this epoch.
        let epoch = self.core.epoch;
        if let Some(orders) = self.phase2.future_orders.remove(&epoch) {
            for order in orders {
                self.accept_order(ctx, order);
            }
        }
        self.maybe_order(ctx);
        if self.phase2.future_phase2.remove(&epoch) {
            self.enter_phase2(ctx);
        }
        // The rotating rule may hand the new epoch to a server that is
        // *already* suspected (e.g. a crashed replica whose turn comes round
        // again): no fresh FD event will fire, so re-check Task 1c here.
        // `bug_skip_handoff_recheck` (model-checker fault toggle) omits the
        // re-check so `oar-mc` can re-find the resulting epoch stall.
        if !self.core.config.bug_skip_handoff_recheck {
            self.maybe_start_phase2(ctx);
        }
    }
}
