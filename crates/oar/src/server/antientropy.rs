//! Merkle anti-entropy: settled-state repair. With
//! [`OarConfig::anti_entropy`](crate::config::OarConfig::anti_entropy) set,
//! each replica tick-paces a probe of its Merkle root to a rotating peer; a
//! same-settled peer with a different root starts an O(log n) descent to the
//! divergent leaves, and each divergent key is repaired by a group-majority
//! vote.

use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

use oar_simnet::{ProcessId, Runtime};

use super::{OarServer, Phase, Wire};
use crate::merkle::MerkleTree;
use crate::message::{majority, OarWire};
use crate::state_machine::StateMachine;

/// Anti-entropy ticks an unresolved leaf-repair vote may stay in flight
/// before it expires. A vote resolves early on any strict group majority;
/// the deadline covers the remainder — a crashed or unreachable member whose
/// ballot never arrives, or a split with no majority — so a wedged vote
/// cannot block every future repair attempt for its key (`start_leaf_vote`
/// is idempotent per in-flight key). A healthy vote round-trips well within
/// one tick; eight is comfortably past any burst of probe races.
pub(super) const SYNC_VOTE_EXPIRY_TICKS: u64 = 8;

/// The repair loop's clocks and in-flight votes.
#[derive(Clone, Debug, Default)]
pub(super) struct AntiEntropy {
    /// Rotates the probe target of successive anti-entropy ticks.
    cursor: u64,
    /// Anti-entropy ticks elapsed (one per maintenance tick with the loop
    /// enabled) — the clock the leaf-vote deadlines are measured against.
    tick: u64,
    /// Leaf-repair votes in flight, keyed by divergent key: the tick the
    /// vote started at, plus the value each group member (self included)
    /// reported for it. A strict majority for one value settles the vote and
    /// repairs the leaf; a vote that cannot resolve (a member crashed or
    /// unreachable, or values split) expires after
    /// [`SYNC_VOTE_EXPIRY_TICKS`] so the next probe can retry it.
    pub(super) votes: BTreeMap<String, (u64, BTreeMap<ProcessId, Option<String>>)>,
    /// `(epoch, optimistic deliveries)` observed by the previous tick. When
    /// anti-entropy is on and two consecutive ticks see the same open
    /// optimistic epoch, the sequencer cuts it: an idle tail epoch would
    /// otherwise pin the undo stack forever and keep every probe gated.
    idle_mark: Option<(u64, u64)>,
}

impl AntiEntropy {
    pub(super) fn digest(&self, h: &mut impl Hasher) {
        self.cursor.hash(h);
        self.tick.hash(h);
        format!("{:?}", self.votes).hash(h);
        self.idle_mark.hash(h);
    }
}

impl<S: StateMachine> OarServer<S> {
    /// The Merkle tree over this replica's current settled leaves, rebuilt
    /// on demand (`None` when the machine does not expose leaves). Derived
    /// state: never stored, so it needs no fork/digest bookkeeping.
    fn build_sync_tree(&self) -> Option<MerkleTree> {
        self.sm.anti_entropy_leaves().map(MerkleTree::build)
    }

    /// Tick-paced anti-entropy probe: send our Merkle root (at our settled
    /// position) to one peer, rotating the target each tick. A peer at the
    /// same position with a different root answers with its root node,
    /// starting the O(log n) divergence descent.
    pub(super) fn maybe_sync(&mut self, ctx: &mut dyn Runtime<Wire<S>>) {
        if !self.core.config.anti_entropy {
            return;
        }
        // Advance the vote-deadline clock and expire votes that could not
        // resolve — a member crashed before answering, or the ballots split
        // with no majority. Dropping the entry un-wedges `start_leaf_vote`'s
        // idempotence guard, so the next divergent probe retries the key
        // from fresh state. This runs before the quiescence gate: a wedged
        // vote must clear even while traffic keeps the undo stack busy.
        self.sync.tick += 1;
        let deadline_tick = self.sync.tick;
        self.sync.votes.retain(|_, (started, _)| {
            deadline_tick.saturating_sub(*started) <= SYNC_VOTE_EXPIRY_TICKS
        });
        // Probe only while quiescent: with optimistic deliveries in flight
        // the machine's leaves are speculative, and same-settled peers would
        // descend into differences the epoch close is about to reconcile
        // anyway. An idle tail epoch would gate probes forever, so when two
        // consecutive ticks see the same open optimistic epoch the sequencer
        // cuts it conservatively and lets the undo stack drain.
        if !self.core.undo_stack.is_empty() {
            let mark = (self.core.epoch, self.order.o_delivered.len() as u64);
            if self.sync.idle_mark == Some(mark)
                && self.core.phase == Phase::Optimistic
                && self.is_sequencer()
            {
                self.start_phase2(ctx);
            }
            self.sync.idle_mark = Some(mark);
            return;
        }
        self.sync.idle_mark = None;
        let Some(tree) = self.build_sync_tree() else {
            return;
        };
        let peers = self.peers();
        if peers.is_empty() {
            return;
        }
        let peer = peers[(self.sync.cursor as usize) % peers.len()];
        self.sync.cursor += 1;
        self.stats.sync_probes += 1;
        ctx.send(
            peer,
            OarWire::SyncProbe {
                settled: self.total_settled(),
                root: tree.root(),
                leaves: tree.leaf_count() as u64,
            },
        );
    }

    /// The four comparison wires — `SyncProbe`, `SyncNodeRequest`,
    /// `SyncNodeReply` and `SyncKeys`. Only a quiescent replica (no
    /// optimistic delivery in flight) at the sender's settled position
    /// compares: anything else would diff speculative or differently long
    /// histories.
    pub(super) fn on_sync_wire(
        &mut self,
        ctx: &mut dyn Runtime<Wire<S>>,
        from: ProcessId,
        wire: Wire<S>,
    ) {
        let (OarWire::SyncProbe { settled, .. }
        | OarWire::SyncNodeRequest { settled, .. }
        | OarWire::SyncNodeReply { settled, .. }
        | OarWire::SyncKeys { settled, .. }) = wire
        else {
            return;
        };
        if !self.core.config.anti_entropy
            || settled != self.total_settled()
            || !self.core.undo_stack.is_empty()
        {
            return;
        }
        if let OarWire::SyncKeys {
            keys,
            reply_requested,
            ..
        } = wire
        {
            let Some(own) = self.sm.anti_entropy_leaves() else {
                return;
            };
            if reply_requested {
                // Bounded round trip: answer with our key set once, with the
                // flag cleared so the exchange can never loop.
                self.send_sync_keys(ctx, from, settled, false);
            }
            // Vote on the union of the two key sets: keys the peer has and
            // we lack are covered by its list, keys we have and it lacks by
            // ours. Each vote settles by group majority, so the union's false
            // positives (keys both sides agree on) resolve to the status quo
            // at one round trip apiece.
            let mut union: BTreeSet<String> = keys.into_iter().collect();
            union.extend(own.into_iter().map(|(key, _)| key));
            for key in union {
                self.start_leaf_vote(ctx, key);
            }
            return;
        }
        let Some(tree) = self.build_sync_tree() else {
            return;
        };
        let leaves = tree.leaf_count() as u64;
        match wire {
            OarWire::SyncProbe { root, .. } if tree.root() == root => {}
            // Equal settled counts do not imply equal key counts (a
            // divergence can add or remove a key): when the two leaf rows
            // pad to different widths — at the probe, or mid-descent because
            // our tree changed since — heap indices are incomparable and the
            // descent would misalign, so fall back to the full key-set
            // exchange instead.
            OarWire::SyncProbe { leaves: theirs, .. }
            | OarWire::SyncNodeRequest { leaves: theirs, .. }
            | OarWire::SyncNodeReply { leaves: theirs, .. }
                if !tree.same_shape(theirs) =>
            {
                self.send_sync_keys(ctx, from, settled, true);
            }
            // Same settled position and shape: answer with the node asked
            // for — a probe (different root) starts the descent with our
            // root node.
            OarWire::SyncProbe { .. } | OarWire::SyncNodeRequest { .. } => {
                let index = match wire {
                    OarWire::SyncNodeRequest { index, .. } => index,
                    _ => 1,
                };
                if let Some(node) = tree.node(index) {
                    self.stats.sync_node_wires += 1;
                    let reply = OarWire::SyncNodeReply {
                        settled,
                        index,
                        node,
                        leaves,
                    };
                    ctx.send(from, reply);
                }
            }
            OarWire::SyncNodeReply { index, node, .. } => {
                let (descend, keys) = tree.diff_step(index, &node);
                for index in descend {
                    self.stats.sync_node_wires += 1;
                    let request = OarWire::SyncNodeRequest {
                        settled,
                        index,
                        leaves,
                    };
                    ctx.send(from, request);
                }
                for key in keys {
                    self.start_leaf_vote(ctx, key);
                }
            }
            _ => {}
        }
    }

    /// Ships this replica's full settled key set to `peer` — the anti-entropy
    /// fallback when two same-settled trees pad to different leaf widths and
    /// the heap-index descent cannot run. Counted with the descent wires: the
    /// O(log n) gate only measures shape-preserving divergences, and a shape
    /// divergence costs O(n) keys on the wire by necessity.
    fn send_sync_keys(
        &mut self,
        ctx: &mut dyn Runtime<Wire<S>>,
        peer: ProcessId,
        settled: u64,
        reply_requested: bool,
    ) {
        let Some(leaves) = self.sm.anti_entropy_leaves() else {
            return;
        };
        self.stats.sync_node_wires += 1;
        ctx.send(
            peer,
            OarWire::SyncKeys {
                settled,
                keys: leaves.into_iter().map(|(key, _)| key).collect(),
                reply_requested,
            },
        );
    }

    /// Starts a leaf repair vote for `key`: records our own value and asks
    /// every peer for theirs. Idempotent while the vote is in flight; an
    /// in-flight vote that cannot resolve expires after
    /// [`SYNC_VOTE_EXPIRY_TICKS`] (see [`Self::maybe_sync`]), so the guard
    /// never blocks repair permanently.
    pub(super) fn start_leaf_vote(&mut self, ctx: &mut dyn Runtime<Wire<S>>, key: String) {
        if self.sync.votes.contains_key(&key) {
            return;
        }
        let mut votes = BTreeMap::new();
        votes.insert(self.core.id, self.sm.anti_entropy_value(&key));
        self.sync.votes.insert(key.clone(), (self.sync.tick, votes));
        for peer in self.peers() {
            ctx.send(peer, OarWire::SyncLeafRequest { key: key.clone() });
        }
    }

    /// Records one peer's value for a divergent key and settles the vote
    /// once a strict group majority agrees on a value: the majority value is
    /// installed locally (`None` deletes). A corrupted minority replica
    /// heals itself; a healthy replica voting against a corrupted peer finds
    /// its own value in the majority and changes nothing. Requires 3+
    /// replicas to out-vote a corrupt member — with 2 the vote stays split
    /// and expires undecided.
    pub(super) fn record_leaf_vote(&mut self, key: String, from: ProcessId, value: Option<String>) {
        let size = self.core.group.len();
        if !self.core.group.contains(&from) {
            return;
        }
        let Some((_, votes)) = self.sync.votes.get_mut(&key) else {
            return;
        };
        votes.insert(from, value);
        let needed = majority(size);
        let winner = votes
            .values()
            .find(|candidate| votes.values().filter(|v| v == candidate).count() >= needed)
            .cloned();
        match winner {
            Some(value) => {
                self.sync.votes.remove(&key);
                // Repair only while quiescent: overwriting a key with an
                // optimistic delivery in flight would fight the undo stack.
                // A dropped vote is retried by the next quiescent probe.
                if self.core.undo_stack.is_empty()
                    && self.sm.anti_entropy_repair(&key, value.as_deref())
                {
                    self.stats.sync_repairs += 1;
                }
            }
            None => {
                if votes.len() == size {
                    // Everyone answered, no majority: give up this round
                    // (the next probe retries from fresh state). Short of
                    // that — a member crashed, so not everyone *can* answer —
                    // the tick deadline expires the vote instead.
                    self.sync.votes.remove(&key);
                }
            }
        }
    }
}
