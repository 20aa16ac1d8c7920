//! Reliable multicast and reliable broadcast.
//!
//! The OAR paper (§3) assumes a primitive `R-multicast(m, Π)` with three
//! properties:
//!
//! * **Validity** — if a correct process executes `R-multicast(m, Π)`, then
//!   every correct process in `Π` eventually R-delivers `m`;
//! * **Agreement** — if a correct process R-delivers `m`, then all correct
//!   processes of `Π` eventually R-deliver `m`;
//! * **Integrity** — every process R-delivers `m` at most once, and only if it
//!   was previously R-multicast.
//!
//! [`ReliableCaster`] is the classic crash-stop construction over reliable
//! channels: the sender sends `m` to every member of `Π`; when a member
//! receives `m` for the first time it *relays* `m` to every member of `Π`
//! and then delivers it. Relaying guarantees Agreement even if the sender
//! crashes in the middle of its send loop, at the price of O(n²) wires per
//! message. Duplicates are suppressed with a per-message identifier.
//!
//! The OAR servers pay that price only for the rare `(k, PhaseII)`
//! notification — a member R-broadcasts it
//! ([`ReliableCaster::broadcast_shared`]: it also delivers its own message)
//! and every receiver relays ([`ReliableCaster::on_wire_shared`]). Client
//! requests are multicast by a sender outside `Π`
//! ([`ReliableCaster::multicast_shared`]) and are **not** relayed on
//! reception: one wire per member, with Agreement restored by repair on
//! evidence of need — a holder that sees a request stay unordered pushes it,
//! a member that sees an id ordered without its payload pulls it (the
//! `oar` crate's server, *Request dissemination*).

use std::collections::HashSet;

use oar_simnet::ProcessId;

use crate::component::MsgId;

/// Wire format of the reliable multicast: the payload plus the identifier used
/// for duplicate suppression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CastWire<M> {
    /// Unique identifier of this multicast (origin process + local counter).
    pub id: MsgId,
    /// The process that invoked `R-multicast` (the OAR "sender(m)", used by
    /// servers to know where to send the reply).
    pub origin: ProcessId,
    /// The payload.
    pub payload: M,
}

/// The sender-side and receiver-side state of reliable multicast for one
/// process.
#[derive(Clone, Debug)]
pub struct ReliableCaster<M> {
    self_id: ProcessId,
    group: Vec<ProcessId>,
    next_seq: u64,
    seen: HashSet<MsgId>,
    _marker: std::marker::PhantomData<M>,
}

impl<M: Clone> ReliableCaster<M> {
    /// Creates the multicast endpoint of process `self_id` for destination
    /// group `group` (which may or may not contain `self_id`).
    pub fn new(self_id: ProcessId, group: Vec<ProcessId>) -> Self {
        ReliableCaster {
            self_id,
            group,
            next_seq: 0,
            seen: HashSet::new(),
            _marker: std::marker::PhantomData,
        }
    }

    /// The destination group `Π`.
    pub fn group(&self) -> &[ProcessId] {
        &self.group
    }

    /// `R-multicast(m, Π)` for a sender that is *not* a member of `Π` (or that
    /// does not want to deliver its own message), without cloning the payload
    /// per destination: returns the wire message **once** plus the list of
    /// destinations. Pair with `Context::send_all`, which shares a single
    /// allocation of the wire across all recipients.
    pub fn multicast_shared(&mut self, payload: M) -> (MsgId, CastWire<M>, Vec<ProcessId>) {
        let id = MsgId::new(self.self_id, self.next_seq);
        self.next_seq += 1;
        let wire = CastWire {
            id,
            origin: self.self_id,
            payload,
        };
        let targets = self
            .group
            .iter()
            .copied()
            .filter(|&p| p != self.self_id)
            .collect();
        (id, wire, targets)
    }

    /// `R-broadcast(m)` for a sender that *is* a member of `Π`, without
    /// cloning the payload per destination: returns the wire message once,
    /// the destinations, and the local delivery of the sender's own message.
    pub fn broadcast_shared(&mut self, payload: M) -> (CastWire<M>, Vec<ProcessId>, Delivery<M>) {
        let (id, wire, targets) = self.multicast_shared(payload);
        // Mark as seen so that relayed copies are not re-delivered.
        self.seen.insert(id);
        let local = Delivery {
            id,
            origin: self.self_id,
            payload: wire.payload.clone(),
        };
        (wire, targets, local)
    }

    /// Handles an incoming multicast wire message, without cloning the relay
    /// payload per destination.
    ///
    /// Returns the delivery (if this is the first copy received) and — when a
    /// relay is required — the wire to forward plus its destinations (every
    /// member except this process and the origin).
    pub fn on_wire_shared(
        &mut self,
        wire: CastWire<M>,
    ) -> (Option<Delivery<M>>, Option<SharedRelay<M>>) {
        if !self.seen.insert(wire.id) {
            return (None, None);
        }
        let targets: Vec<ProcessId> = self
            .group
            .iter()
            .copied()
            .filter(|&p| p != self.self_id && p != wire.origin)
            .collect();
        if targets.is_empty() {
            let delivery = Delivery {
                id: wire.id,
                origin: wire.origin,
                payload: wire.payload,
            };
            return (Some(delivery), None);
        }
        let delivery = Delivery {
            id: wire.id,
            origin: wire.origin,
            payload: wire.payload.clone(),
        };
        (Some(delivery), Some((wire, targets)))
    }

    /// Number of distinct multicasts seen so far (delivered or self-sent).
    pub fn seen_count(&self) -> usize {
        self.seen.len()
    }

    /// The duplicate-suppression set in sorted order plus the local multicast
    /// counter — a canonical view of the caster's state, used by the model
    /// checker's state digests (`HashSet` iteration order is not stable).
    pub fn digest_view(&self) -> (u64, Vec<MsgId>) {
        let mut seen: Vec<MsgId> = self.seen.iter().copied().collect();
        seen.sort();
        (self.next_seq, seen)
    }

    /// Replaces group member `old` by `new` in place, keeping the slot order
    /// (the OAR sequencer rotation indexes into `Π` by position, so a
    /// membership change must not permute the survivors). Returns whether
    /// `old` was a member. The duplicate-suppression set is untouched: ids
    /// already seen stay suppressed regardless of who relays them.
    pub fn replace_member(&mut self, old: ProcessId, new: ProcessId) -> bool {
        match self.group.iter().position(|&p| p == old) {
            Some(slot) => {
                self.group[slot] = new;
                true
            }
            None => false,
        }
    }

    /// Ages `id` out of the duplicate-suppression set, returning whether it
    /// was present.
    ///
    /// The `seen` set otherwise grows with the lifetime of the process; the
    /// OAR servers bound it by forgetting a `PhaseII` broadcast's id once its
    /// epoch is acknowledged group-wide under the epoch-watermark rule.
    /// Forgetting is safe-but-noisy rather than unsafe: should a stale relay
    /// of a forgotten multicast still arrive, it is re-delivered (and
    /// re-relayed) once, and the layer above discards it by its own check —
    /// Integrity moves from this set to the caller's, which is why only ids
    /// the caller can recognise as obsolete may be forgotten.
    pub fn forget(&mut self, id: &MsgId) -> bool {
        self.seen.remove(id)
    }
}

/// A relay produced by [`ReliableCaster::on_wire_shared`]: the wire message
/// to forward (once) and the destinations to forward it to.
pub type SharedRelay<M> = (CastWire<M>, Vec<ProcessId>);

/// A message R-delivered to the upper layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery<M> {
    /// Identifier of the multicast.
    pub id: MsgId,
    /// The process that R-multicast the message.
    pub origin: ProcessId,
    /// The payload.
    pub payload: M,
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::component::Outgoing;

    fn group3() -> Vec<ProcessId> {
        vec![ProcessId::new(0), ProcessId::new(1), ProcessId::new(2)]
    }

    /// One wire per destination, the way a host's `send_all` fans it out.
    fn fan_out<M: Clone>(
        wire: &CastWire<M>,
        targets: Vec<ProcessId>,
    ) -> Vec<Outgoing<CastWire<M>>> {
        targets
            .into_iter()
            .map(|p| Outgoing::new(p, wire.clone()))
            .collect()
    }

    fn multicast<M: Clone>(
        caster: &mut ReliableCaster<M>,
        payload: M,
    ) -> (MsgId, Vec<Outgoing<CastWire<M>>>) {
        let (id, wire, targets) = caster.multicast_shared(payload);
        (id, fan_out(&wire, targets))
    }

    fn on_wire<M: Clone>(
        caster: &mut ReliableCaster<M>,
        wire: CastWire<M>,
    ) -> (Option<Delivery<M>>, Vec<Outgoing<CastWire<M>>>) {
        let (delivery, relay) = caster.on_wire_shared(wire);
        let relays = relay.map_or_else(Vec::new, |(wire, targets)| fan_out(&wire, targets));
        (delivery, relays)
    }

    #[test]
    fn multicast_from_external_sender_reaches_all_members() {
        let mut client: ReliableCaster<&str> = ReliableCaster::new(ProcessId::new(9), group3());
        let (id, out) = multicast(&mut client, "req");
        assert_eq!(out.len(), 3);
        assert_eq!(id.origin, ProcessId::new(9));
        let targets: Vec<ProcessId> = out.iter().map(|o| o.to).collect();
        assert_eq!(targets, group3());
        assert!(out.iter().all(|o| o.wire.origin == ProcessId::new(9)));
    }

    #[test]
    fn first_reception_delivers_and_relays() {
        let mut client: ReliableCaster<&str> = ReliableCaster::new(ProcessId::new(9), group3());
        let mut server0: ReliableCaster<&str> = ReliableCaster::new(ProcessId::new(0), group3());
        let (_, out) = multicast(&mut client, "req");
        let to_p0 = out.into_iter().find(|o| o.to == ProcessId::new(0)).unwrap();
        let (delivery, relays) = on_wire(&mut server0, to_p0.wire);
        let delivery = delivery.expect("first copy must be delivered");
        assert_eq!(delivery.payload, "req");
        assert_eq!(delivery.origin, ProcessId::new(9));
        // relays go to the other group members, not back to the origin
        let relay_targets: Vec<ProcessId> = relays.iter().map(|o| o.to).collect();
        assert_eq!(relay_targets, vec![ProcessId::new(1), ProcessId::new(2)]);
    }

    #[test]
    fn duplicates_are_not_redelivered() {
        let mut client: ReliableCaster<&str> = ReliableCaster::new(ProcessId::new(9), group3());
        let mut server0: ReliableCaster<&str> = ReliableCaster::new(ProcessId::new(0), group3());
        let (_, out) = multicast(&mut client, "req");
        let wire = out[0].wire.clone();
        let (d1, _) = on_wire(&mut server0, wire.clone());
        let (d2, relays2) = on_wire(&mut server0, wire);
        assert!(d1.is_some());
        assert!(d2.is_none());
        assert!(relays2.is_empty());
        assert_eq!(server0.seen_count(), 1);
    }

    #[test]
    fn forget_ages_out_and_permits_one_redelivery() {
        let mut client: ReliableCaster<&str> = ReliableCaster::new(ProcessId::new(9), group3());
        let mut server0: ReliableCaster<&str> = ReliableCaster::new(ProcessId::new(0), group3());
        let (_, out) = multicast(&mut client, "req");
        let wire = out[0].wire.clone();
        let (d1, _) = on_wire(&mut server0, wire.clone());
        assert!(d1.is_some());
        assert_eq!(server0.seen_count(), 1);
        assert!(server0.forget(&wire.id));
        assert!(!server0.forget(&wire.id), "already forgotten");
        assert_eq!(server0.seen_count(), 0);
        // A stale duplicate after forgetting is re-delivered once (the layer
        // above suppresses it by its settled-request check) and re-tracked.
        let (d2, _) = on_wire(&mut server0, wire);
        assert!(d2.is_some());
        assert_eq!(server0.seen_count(), 1);
    }

    #[test]
    fn broadcast_delivers_locally_and_ignores_own_relay() {
        let mut p0: ReliableCaster<u32> = ReliableCaster::new(ProcessId::new(0), group3());
        let (wire, targets, local) = p0.broadcast_shared(42);
        let out = fan_out(&wire, targets);
        assert_eq!(local.payload, 42);
        assert_eq!(local.origin, ProcessId::new(0));
        assert_eq!(out.len(), 2);
        // if a relayed copy of our own broadcast comes back, it is ignored
        let echo = CastWire {
            id: local.id,
            origin: ProcessId::new(0),
            payload: 42,
        };
        let (d, _) = on_wire(&mut p0, echo);
        assert!(d.is_none());
    }

    #[test]
    fn replace_member_retargets_relays_in_place() {
        let mut p0: ReliableCaster<&str> = ReliableCaster::new(ProcessId::new(0), group3());
        assert!(p0.replace_member(ProcessId::new(2), ProcessId::new(3)));
        assert!(!p0.replace_member(ProcessId::new(2), ProcessId::new(4)));
        // Slot order preserved: [0, 1, 3].
        assert_eq!(
            p0.group(),
            &[ProcessId::new(0), ProcessId::new(1), ProcessId::new(3)]
        );
        let mut client: ReliableCaster<&str> = ReliableCaster::new(ProcessId::new(9), group3());
        let (_, out) = multicast(&mut client, "req");
        let (d, relays) = on_wire(&mut p0, out[0].wire.clone());
        assert!(d.is_some());
        // The relay reaches the newcomer instead of the fenced-out member.
        let relay_targets: Vec<ProcessId> = relays.iter().map(|o| o.to).collect();
        assert_eq!(relay_targets, vec![ProcessId::new(1), ProcessId::new(3)]);
    }

    #[test]
    fn distinct_multicasts_get_distinct_ids() {
        let mut client: ReliableCaster<u32> = ReliableCaster::new(ProcessId::new(9), group3());
        let (id1, _) = multicast(&mut client, 1);
        let (id2, _) = multicast(&mut client, 2);
        assert_ne!(id1, id2);
    }

    /// Agreement under sender crash: if the sender's sends reach only one
    /// member, the relay from that member still lets every member deliver.
    #[test]
    fn relay_provides_agreement_when_sender_crashes_mid_send() {
        let group = group3();
        let mut client: ReliableCaster<&str> =
            ReliableCaster::new(ProcessId::new(9), group.clone());
        let mut servers: Vec<ReliableCaster<&str>> = group
            .iter()
            .map(|&p| ReliableCaster::new(p, group.clone()))
            .collect();
        let (_, out) = multicast(&mut client, "req");
        // Sender crashes after only the copy to p1 made it out.
        let only = out.into_iter().find(|o| o.to == ProcessId::new(1)).unwrap();
        let (d1, relays) = on_wire(&mut servers[1], only.wire);
        assert!(d1.is_some());
        let mut delivered = vec![false, true, false];
        for relay in relays {
            let idx = relay.to.index();
            let (d, more) = on_wire(&mut servers[idx], relay.wire);
            if d.is_some() {
                delivered[idx] = true;
            }
            // second-level relays are harmless duplicates
            for r in more {
                let (d, _) = on_wire(&mut servers[r.to.index()], r.wire);
                if d.is_some() {
                    delivered[r.to.index()] = true;
                }
            }
        }
        assert_eq!(delivered, vec![true, true, true]);
    }
}
