//! The settled watermark: payload garbage collection and divergence
//! detection.
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
//!
//! The watermark travels with the sender's settled-state digest
//! ([`Settled`]). Active replication needs deterministic replicas: every
//! replica that closed epochs `< w` applied the same settled prefix, so
//! replicas at one watermark hold one digest. A replica that a majority of
//! its group out-votes at its own watermark has left the order — a bug, not
//! a race — and [`OarServer::out_voted`] is how it finds out.

use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};

use oar_simnet::ProcessId;

use super::{sorted, OarServer};
use crate::message::{majority, RequestId, Settled};
use crate::state_machine::StateMachine;

/// What the collector has heard and what it still holds back.
#[derive(Clone, Debug, Default)]
pub(super) struct Gc {
    /// Highest settled watermark heard from each peer, with the digest the
    /// latest report at that watermark carried (this server's own is
    /// [`OarServer::settled`], always current).
    pub(super) peer_settled: HashMap<ProcessId, Settled>,
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
    /// This server's settled watermark and the digest of its state there:
    /// what every wire announcing the watermark carries.
    pub(super) fn settled(&self) -> Settled {
        Settled {
            epoch: self.settled_watermark(),
            digest: self.recovery.settled_digest,
        }
    }

    /// Records a peer's settled watermark (piggybacked on ordering, PhaseII
    /// and heartbeat traffic, or announced explicitly at epoch close) and
    /// prunes whatever became acknowledged. A report at the highest
    /// watermark heard replaces the digest too: a peer that rejoined through
    /// catch-up reports its repaired digest at the same watermark.
    pub(super) fn note_settled(&mut self, from: ProcessId, settled: Settled) {
        if from == self.core.id || !self.core.group.contains(&from) {
            return;
        }
        let known = self.gc.peer_settled.entry(from).or_default();
        if settled.epoch >= known.epoch {
            let advanced = settled.epoch > known.epoch;
            *known = settled;
            if advanced {
                self.maybe_gc();
            }
        }
    }

    /// The digest that out-votes this replica's own, if any: reported at
    /// this replica's watermark by a majority of the group's members — so
    /// by peers only — and different from its own digest there. A lone
    /// dissenting peer, peers that disagree among themselves, and peers at
    /// other watermarks change nothing, so only a replica in the minority
    /// ever acts; in a group of two nobody can be out-voted. O(n).
    pub(super) fn out_voted(&self) -> Option<u64> {
        let own = self.settled();
        let needed = majority(self.core.group.len());
        let peers = self.gc.peer_settled.values();
        let reports = || peers.clone().filter(|p| p.epoch == own.epoch);
        (reports().map(|p| p.digest).filter(|&d| d != own.digest))
            .find(|&d| reports().filter(|p| p.digest == d).count() >= needed)
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
