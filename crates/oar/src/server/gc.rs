//! Payload garbage collection (epoch watermark).
//!
//! Fig. 7 only needs a request's payload until the decision covering it is
//! settled, so `payloads` need not grow with the lifetime of the server.
//! Every server piggybacks its *settled-epoch watermark* — all epochs `< w`
//! are closed locally — on the ordering and `PhaseII` traffic, on
//! failure-detector heartbeats, and announces it explicitly when an epoch
//! closes. Once every replica this server does not suspect acknowledges
//! watermark `w`, the payloads of requests decided in epochs `< w` are
//! pruned. A server never prunes payloads of epochs it has not itself
//! settled (its own watermark participates in the minimum), so late
//! deliveries and fail-overs keep working from local state;
//! `ServerStats::payloads` exposes the current and peak map size so the
//! bound is observable.

use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};

use oar_simnet::ProcessId;

use super::{sorted, OarServer};
use crate::message::RequestId;
use crate::state_machine::StateMachine;

/// What the collector has heard and what it still holds back.
#[derive(Clone, Debug, Default)]
pub(super) struct Gc {
    /// Highest settled-epoch watermark heard from each peer (this server's
    /// own watermark is `epoch`, always current).
    pub(super) peer_settled: HashMap<ProcessId, u64>,
    /// Epochs `< floor` have had their payloads pruned already.
    pub(super) floor: u64,
    /// Requests settled per closed epoch, awaiting acknowledgement by every
    /// live replica before their payloads are pruned.
    pub(super) pending: BTreeMap<u64, Vec<RequestId>>,
    /// Multicast ids of the `PhaseII` broadcasts delivered per epoch, so the
    /// phase2 caster's duplicate-suppression set can be aged out alongside
    /// the payloads once the epoch is acknowledged group-wide.
    phase2_msg_ids: BTreeMap<u64, Vec<RequestId>>,
}

impl Gc {
    pub(super) fn digest(&self, h: &mut impl Hasher) {
        sorted(self.peer_settled.iter()).hash(h);
        self.floor.hash(h);
        format!("{:?}", self.pending).hash(h);
        format!("{:?}", self.phase2_msg_ids).hash(h);
    }
}

impl<S: StateMachine> OarServer<S> {
    /// Records a peer's settled-epoch watermark (piggybacked on ordering,
    /// PhaseII and heartbeat traffic, or announced explicitly at epoch close)
    /// and prunes whatever became acknowledged.
    pub(super) fn note_settled(&mut self, from: ProcessId, settled: u64) {
        if from == self.core.id || !self.core.group.contains(&from) {
            return;
        }
        let known = self.gc.peer_settled.entry(from).or_insert(0);
        if settled > *known {
            *known = settled;
            self.maybe_gc();
        }
    }

    /// Tracks the multicast id of a delivered `PhaseII` broadcast of `epoch`
    /// so the caster's duplicate-suppression set can forget it later.
    pub(super) fn note_phase2_id(&mut self, epoch: u64, id: RequestId) {
        self.gc.phase2_msg_ids.entry(epoch).or_default().push(id);
        self.record_seen();
    }

    /// Updates the `seen` gauge after any insertion into or pruning of the
    /// caster's duplicate-suppression set.
    fn record_seen(&mut self) {
        self.stats.seen.record(self.seen_len() as u64);
    }

    /// Prunes the payloads of requests decided in epochs every live replica
    /// has acknowledged — and ages the same epochs out of the `PhaseII`
    /// caster's duplicate-suppression set, which would otherwise grow with
    /// the lifetime of the server. A server's own watermark participates in
    /// the minimum, so nothing an unfinished local epoch still needs is
    /// touched. A late copy of a pruned request is discarded via the
    /// `settled` set, a stale `PhaseII` relay via the epoch check.
    pub(super) fn maybe_gc(&mut self) {
        let floor = self.acked_watermark();
        let mut changed = false;
        while self.gc.floor < floor {
            if let Some(ids) = self.gc.pending.remove(&self.gc.floor) {
                for id in ids {
                    if self.core.payloads.remove(&id).is_some() {
                        self.stats.payloads_pruned += 1;
                        changed = true;
                    }
                }
            }
            self.gc.floor += 1;
        }
        // PhaseII broadcasts of acknowledged epochs (keyed separately: their
        // multicast ids are per-origin counters, not request ids).
        while let Some((&epoch, _)) = self.gc.phase2_msg_ids.first_key_value() {
            if epoch >= self.gc.floor {
                break;
            }
            let ids = self.gc.phase2_msg_ids.remove(&epoch).expect("peeked key");
            for id in ids {
                self.phase2.cast.forget(&id);
            }
        }
        if changed {
            self.stats.payloads.record(self.core.payloads.len() as u64);
        }
        self.record_seen();
    }
}
