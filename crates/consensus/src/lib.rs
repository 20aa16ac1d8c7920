//! # oar-consensus — rotating-coordinator consensus with Maj-validity
//!
//! The conservative phase of the OAR protocol reduces `Cnsv-order` to a
//! consensus whose **decision is a sequence of initial values** (the paper's
//! `Dk ≡ {(dlv1, notdlv1); (dlv2, notdlv2); …}`), specified by the
//! **Maj-validity** property (§5.5):
//!
//! > If a process executes `decide(V)`, then `V` is a sequence of values such
//! > that, for a majority of processes `pi`, if `pi` has executed
//! > `propose(vi)`, then `vi ∈ V`.
//!
//! This crate implements that oracle as a Chandra–Toueg style ♦S consensus with
//! a rotating coordinator (\[CT96\], modified per \[Fel98\]):
//!
//! * each process sends its estimate to the coordinator of the current round;
//! * the coordinator waits until it has an estimate from every process it does
//!   not suspect **and** from at least a majority (the majority requirement can
//!   be relaxed with [`ConsensusConfig::require_majority_estimates`] to mimic
//!   the weaker collection rule described in the paper's footnote 5, at the
//!   cost of uniform agreement — see "Estimate collection" in
//!   `docs/ARCHITECTURE.md`);
//! * if no collected estimate is locked, the coordinator's proposal is the
//!   **aggregate** of the collected initial values (one `(ProcessId, V)` pair
//!   per contributor) — this is what gives Maj-validity; otherwise it re-uses
//!   the locked aggregate with the highest timestamp (standard CT locking);
//! * processes ack the proposal (locking it) or nack when they suspect the
//!   coordinator, and move to the next round;
//! * a coordinator that gathers a majority of acks decides and disseminates the
//!   decision with a relay-on-first-reception broadcast.
//!
//! The component is a pure state machine in the style of `oar-channels`: the
//! host feeds it wire messages and suspect-set updates and forwards the
//! [`ConsensusSend`]s it produces, so it can be unit-tested without a
//! simulator and embedded into any runtime.
//!
//! # Shared-relay sends
//!
//! Group-wide messages (the coordinator's `Propose`, the `Decide`
//! dissemination) are emitted as **one wire value plus the list of
//! destinations** ([`ConsensusSend`]) instead of one pre-cloned message per
//! destination — the same one-wire-plus-targets discipline as
//! `ReliableCaster::*_shared`. A host pairing this with `Context::send_all`
//! allocates each consensus message exactly once regardless of the group
//! size; test drivers that want the flat per-destination form can expand a
//! send with [`ConsensusSend::into_outgoing`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use oar_channels::Outgoing;
use oar_simnet::ProcessId;

/// A consensus decision: the aggregate of the initial values of the processes
/// the deciding coordinator collected (the paper's `Dk`).
pub type Decision<V> = Vec<(ProcessId, V)>;

/// One consensus message to transmit: the wire value **once** plus every
/// destination it must reach. Unicast messages (estimates and acks to the
/// round coordinator) carry a single target; group-wide messages (`Propose`,
/// `Decide`) carry the whole group minus the sender, so the host can share a
/// single allocation across recipients (`Context::send_all`).
#[derive(Clone, Debug, PartialEq)]
pub struct ConsensusSend<V> {
    /// The wire message, allocated once.
    pub wire: ConsensusWire<V>,
    /// Every process the wire must be sent to.
    pub targets: Vec<ProcessId>,
}

impl<V: Clone> ConsensusSend<V> {
    /// A send with a single destination.
    pub fn unicast(to: ProcessId, wire: ConsensusWire<V>) -> Self {
        ConsensusSend {
            wire,
            targets: vec![to],
        }
    }

    /// Expands into the flat one-[`Outgoing`]-per-destination form (cloning
    /// the wire per target). Meant for test drivers and hosts without a
    /// shared-payload send primitive; hot paths should forward the shared
    /// wire directly.
    pub fn into_outgoing(self) -> Vec<Outgoing<ConsensusWire<V>>> {
        let ConsensusSend { wire, targets } = self;
        targets
            .into_iter()
            .map(|to| Outgoing::new(to, wire.clone()))
            .collect()
    }
}

/// The timestamped estimate carried by each process, in the style of
/// Chandra–Toueg: `ts = 0` means the estimate is still the process's initial
/// value; `ts = r > 0` means the estimate was locked in round `r` and is an
/// aggregate proposal.
#[derive(Clone, Debug, PartialEq)]
pub struct Estimate<V> {
    /// Round in which the estimate was last updated (0 = initial).
    pub ts: u64,
    /// The value.
    pub value: EstimateValue<V>,
}

/// The two shapes an estimate can take.
#[derive(Clone, Debug, PartialEq)]
pub enum EstimateValue<V> {
    /// The process's own initial value (never yet locked).
    Initial(V),
    /// An aggregate proposal adopted (locked) in a previous round.
    Locked(Decision<V>),
}

/// Wire messages of one consensus instance.
#[derive(Clone, Debug, PartialEq)]
pub enum ConsensusWire<V> {
    /// Phase 1: a process sends its estimate to the round coordinator.
    Estimate {
        /// Consensus instance (the OAR epoch number).
        instance: u64,
        /// Round number (starts at 1).
        round: u64,
        /// The sender's current estimate.
        estimate: Estimate<V>,
    },
    /// Phase 2: the coordinator's proposal for the round.
    Propose {
        /// Consensus instance.
        instance: u64,
        /// Round number.
        round: u64,
        /// Proposed aggregate.
        value: Decision<V>,
    },
    /// Phase 3: positive acknowledgement of the round's proposal.
    Ack {
        /// Consensus instance.
        instance: u64,
        /// Round number.
        round: u64,
    },
    /// Phase 3: negative acknowledgement (the coordinator was suspected).
    Nack {
        /// Consensus instance.
        instance: u64,
        /// Round number.
        round: u64,
    },
    /// Phase 4 / dissemination: the decision. Relayed on first reception so
    /// that one correct receiver suffices for everyone to decide.
    Decide {
        /// Consensus instance.
        instance: u64,
        /// The decided aggregate.
        value: Decision<V>,
    },
}

impl<V> ConsensusWire<V> {
    /// The consensus instance this message belongs to.
    pub fn instance(&self) -> u64 {
        match self {
            ConsensusWire::Estimate { instance, .. }
            | ConsensusWire::Propose { instance, .. }
            | ConsensusWire::Ack { instance, .. }
            | ConsensusWire::Nack { instance, .. }
            | ConsensusWire::Decide { instance, .. } => *instance,
        }
    }
}

/// Configuration of the consensus component.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConsensusConfig {
    /// When `true` (default, recommended) the coordinator waits for estimates
    /// from at least a majority of processes before proposing, which yields
    /// uniform agreement exactly as in \[CT96\].
    ///
    /// When `false`, the coordinator only waits for the estimates of the
    /// processes it does not suspect, mirroring the collection rule that the
    /// OAR paper's footnote 5 attributes to \[Fel98\]. This lets a suspected
    /// minority's values be excluded from the decision with any group size
    /// (reproducing Figure 4 of the paper at `n = 4`), but a very adversarial
    /// combination of wrong suspicions and crashes can then violate uniform
    /// agreement; see "Estimate collection" in `docs/ARCHITECTURE.md`.
    pub require_majority_estimates: bool,
}

impl Default for ConsensusConfig {
    fn default() -> Self {
        ConsensusConfig {
            require_majority_estimates: true,
        }
    }
}

/// One instance of rotating-coordinator consensus with Maj-validity.
#[derive(Clone, Debug)]
pub struct MajConsensus<V> {
    instance: u64,
    self_id: ProcessId,
    group: Vec<ProcessId>,
    first_coord_index: usize,
    config: ConsensusConfig,

    started: bool,
    round: u64,
    estimate: Option<Estimate<V>>,
    waiting_proposal: bool,
    decided: Option<Decision<V>>,
    decision_reported: bool,
    decide_sent: bool,
    suspects: BTreeSet<ProcessId>,

    estimates: BTreeMap<u64, BTreeMap<ProcessId, Estimate<V>>>,
    proposals: BTreeMap<u64, Decision<V>>,
    acks: BTreeMap<u64, BTreeSet<ProcessId>>,
    nacks: BTreeMap<u64, BTreeSet<ProcessId>>,
    proposed_rounds: BTreeSet<u64>,
}

impl<V: Clone + fmt::Debug> MajConsensus<V> {
    /// Creates instance `instance` for process `self_id` in `group`. The
    /// coordinator of round 1 is `first_coordinator` (subsequent rounds rotate
    /// through the group); the OAR server passes the successor of the failed
    /// sequencer here so that fail-over does not stall on the crashed process.
    ///
    /// # Panics
    ///
    /// Panics if `self_id` or `first_coordinator` is not a member of `group`.
    pub fn new(
        instance: u64,
        self_id: ProcessId,
        group: Vec<ProcessId>,
        first_coordinator: ProcessId,
        config: ConsensusConfig,
    ) -> Self {
        assert!(group.contains(&self_id), "self must be a group member");
        let first_coord_index = group
            .iter()
            .position(|&p| p == first_coordinator)
            .expect("first coordinator must be a group member");
        MajConsensus {
            instance,
            self_id,
            group,
            first_coord_index,
            config,
            started: false,
            round: 0,
            estimate: None,
            waiting_proposal: false,
            decided: None,
            decision_reported: false,
            decide_sent: false,
            suspects: BTreeSet::new(),
            estimates: BTreeMap::new(),
            proposals: BTreeMap::new(),
            acks: BTreeMap::new(),
            nacks: BTreeMap::new(),
            proposed_rounds: BTreeSet::new(),
        }
    }

    /// The consensus instance number.
    pub fn instance(&self) -> u64 {
        self.instance
    }

    /// Whether `propose` has been called.
    pub fn is_started(&self) -> bool {
        self.started
    }

    /// The decision, if reached.
    pub fn decision(&self) -> Option<&Decision<V>> {
        self.decided.as_ref()
    }

    /// Whether a decision has been reached.
    pub fn has_decided(&self) -> bool {
        self.decided.is_some()
    }

    /// The coordinator of round `round` (1-based).
    pub fn coordinator_of(&self, round: u64) -> ProcessId {
        let idx = (self.first_coord_index + (round as usize - 1)) % self.group.len();
        self.group[idx]
    }

    fn majority(&self) -> usize {
        self.group.len() / 2 + 1
    }

    /// Starts the instance with initial value `value`.
    ///
    /// Returns the wire messages to send. If the instance already received
    /// enough messages from faster processes (or a decision), progress is made
    /// immediately and reflected in the output / decision.
    pub fn propose(&mut self, value: V) -> ProgressOutput<V> {
        if self.started {
            return ProgressOutput::default();
        }
        self.started = true;
        self.round = 1;
        self.estimate = Some(Estimate {
            ts: 0,
            value: EstimateValue::Initial(value),
        });
        self.waiting_proposal = true;
        let mut out = Vec::new();
        self.send_estimate(self.round, &mut out);
        self.try_progress(&mut out);
        self.progress_output(out)
    }

    /// Handles an incoming consensus wire message.
    pub fn on_wire(&mut self, from: ProcessId, wire: ConsensusWire<V>) -> ProgressOutput<V> {
        debug_assert_eq!(wire.instance(), self.instance, "instance mismatch");
        let mut out = Vec::new();
        match wire {
            ConsensusWire::Estimate {
                round, estimate, ..
            } => {
                self.estimates
                    .entry(round)
                    .or_default()
                    .insert(from, estimate);
            }
            ConsensusWire::Propose { round, value, .. } => {
                self.proposals.entry(round).or_insert(value);
            }
            ConsensusWire::Ack { round, .. } => {
                self.acks.entry(round).or_default().insert(from);
            }
            ConsensusWire::Nack { round, .. } => {
                self.nacks.entry(round).or_default().insert(from);
            }
            ConsensusWire::Decide { value, .. } => {
                self.adopt_decision(value, &mut out);
            }
        }
        self.try_progress(&mut out);
        self.progress_output(out)
    }

    /// Updates the failure-detector view (the paper's `D_p`). Suspicions may
    /// unblock the coordinator wait or cause a nack.
    pub fn update_suspects(&mut self, suspects: &BTreeSet<ProcessId>) -> ProgressOutput<V> {
        self.suspects = suspects
            .iter()
            .copied()
            .filter(|p| self.group.contains(p) && *p != self.self_id)
            .collect();
        let mut out = Vec::new();
        self.try_progress(&mut out);
        self.progress_output(out)
    }

    // ------------------------------------------------------------------

    fn progress_output(&mut self, out: Vec<ConsensusSend<V>>) -> ProgressOutput<V> {
        let decision = if self.decided.is_some() && !self.decision_reported {
            self.decision_reported = true;
            self.decided.clone()
        } else {
            None
        };
        ProgressOutput {
            messages: out,
            decision,
        }
    }

    /// Every group member except this process: the destination list of the
    /// group-wide (`Propose`, `Decide`) sends.
    fn peers(&self) -> Vec<ProcessId> {
        self.group
            .iter()
            .copied()
            .filter(|&p| p != self.self_id)
            .collect()
    }

    fn adopt_decision(&mut self, value: Decision<V>, out: &mut Vec<ConsensusSend<V>>) {
        if self.decided.is_some() {
            return;
        }
        self.decided = Some(value.clone());
        if !self.decide_sent {
            self.decide_sent = true;
            // One wire for the whole group: the host shares the allocation.
            out.push(ConsensusSend {
                wire: ConsensusWire::Decide {
                    instance: self.instance,
                    value,
                },
                targets: self.peers(),
            });
        }
    }

    fn send_estimate(&mut self, round: u64, out: &mut Vec<ConsensusSend<V>>) {
        let estimate = self.estimate.clone().expect("estimate set after propose");
        let coord = self.coordinator_of(round);
        if coord == self.self_id {
            self.estimates
                .entry(round)
                .or_default()
                .insert(self.self_id, estimate);
        } else {
            out.push(ConsensusSend::unicast(
                coord,
                ConsensusWire::Estimate {
                    instance: self.instance,
                    round,
                    estimate,
                },
            ));
        }
    }

    fn send_ack(&mut self, round: u64, positive: bool, out: &mut Vec<ConsensusSend<V>>) {
        let coord = self.coordinator_of(round);
        if coord == self.self_id {
            if positive {
                self.acks.entry(round).or_default().insert(self.self_id);
            } else {
                self.nacks.entry(round).or_default().insert(self.self_id);
            }
        } else {
            let wire = if positive {
                ConsensusWire::Ack {
                    instance: self.instance,
                    round,
                }
            } else {
                ConsensusWire::Nack {
                    instance: self.instance,
                    round,
                }
            };
            out.push(ConsensusSend::unicast(coord, wire));
        }
    }

    fn try_progress(&mut self, out: &mut Vec<ConsensusSend<V>>) {
        if !self.started {
            return;
        }
        loop {
            if self.decided.is_some() {
                return;
            }
            let mut progressed = false;
            progressed |= self.coordinator_phase2(out);
            progressed |= self.phase3(out);
            progressed |= self.coordinator_phase4(out);
            if !progressed {
                return;
            }
        }
    }

    /// Coordinator: propose once the estimate-collection condition is met.
    fn coordinator_phase2(&mut self, out: &mut Vec<ConsensusSend<V>>) -> bool {
        let mut progressed = false;
        for round in 1..=self.round {
            if self.coordinator_of(round) != self.self_id || self.proposed_rounds.contains(&round) {
                continue;
            }
            let received = self.estimates.entry(round).or_default();
            let received_count = received.len();
            let missing_all_suspected = self
                .group
                .iter()
                .all(|p| received.contains_key(p) || self.suspects.contains(p));
            let enough = if self.config.require_majority_estimates {
                received_count > self.group.len() / 2
            } else {
                received_count >= 1
            };
            if !(missing_all_suspected && enough) {
                continue;
            }
            // Pick the locked estimate with the highest timestamp, if any;
            // otherwise aggregate the collected initial values.
            let mut best_locked: Option<(u64, Decision<V>)> = None;
            for est in received.values() {
                if let EstimateValue::Locked(v) = &est.value {
                    if best_locked.as_ref().is_none_or(|(ts, _)| est.ts > *ts) {
                        best_locked = Some((est.ts, v.clone()));
                    }
                }
            }
            let proposal: Decision<V> = match best_locked {
                Some((_, locked)) => locked,
                None => received
                    .iter()
                    .filter_map(|(p, est)| match &est.value {
                        EstimateValue::Initial(v) => Some((*p, v.clone())),
                        EstimateValue::Locked(_) => None,
                    })
                    .collect(),
            };
            self.proposed_rounds.insert(round);
            self.proposals.entry(round).or_insert(proposal.clone());
            // One Propose wire shared by every other group member, instead of
            // one pre-cloned aggregate per destination.
            out.push(ConsensusSend {
                wire: ConsensusWire::Propose {
                    instance: self.instance,
                    round,
                    value: proposal,
                },
                targets: self.peers(),
            });
            progressed = true;
        }
        progressed
    }

    /// Every process: react to the current round's proposal or to suspicion of
    /// the current coordinator, then move to the next round.
    fn phase3(&mut self, out: &mut Vec<ConsensusSend<V>>) -> bool {
        if !self.waiting_proposal {
            return false;
        }
        let round = self.round;
        if let Some(value) = self.proposals.get(&round).cloned() {
            self.estimate = Some(Estimate {
                ts: round,
                value: EstimateValue::Locked(value),
            });
            self.waiting_proposal = false;
            self.send_ack(round, true, out);
            self.advance_round(out);
            return true;
        }
        let coord = self.coordinator_of(round);
        if coord != self.self_id && self.suspects.contains(&coord) {
            self.waiting_proposal = false;
            self.send_ack(round, false, out);
            self.advance_round(out);
            return true;
        }
        false
    }

    fn advance_round(&mut self, out: &mut Vec<ConsensusSend<V>>) {
        self.round += 1;
        self.waiting_proposal = true;
        self.send_estimate(self.round, out);
    }

    /// Re-sends the wire messages this process's current state calls for: its
    /// estimate for the round it is in, the proposals of rounds it
    /// coordinated, and the decision if one was reached. Every one of them is
    /// idempotent at the receiver (estimates and proposals are keyed inserts,
    /// the decision is adopted once), so re-sending is always safe.
    ///
    /// Consensus assumes quasi-reliable channels between correct processes —
    /// but a process that crashes and restarts loses every message sent to it
    /// while it was down, *including* estimates sent to it as the round's
    /// coordinator, and nothing in the protocol re-sends them. Hosts call
    /// this from a coarse timer when an instance has been stuck for a while
    /// to restore the channel assumption.
    pub fn retransmit(&mut self) -> ProgressOutput<V> {
        if !self.started {
            return ProgressOutput::default();
        }
        let mut out = Vec::new();
        if let Some(decision) = self.decided.clone() {
            out.push(ConsensusSend {
                wire: ConsensusWire::Decide {
                    instance: self.instance,
                    value: decision,
                },
                targets: self.peers(),
            });
            return self.progress_output(out);
        }
        self.send_estimate(self.round, &mut out);
        for &round in &self.proposed_rounds {
            if self.coordinator_of(round) != self.self_id {
                continue;
            }
            let value = self
                .proposals
                .get(&round)
                .cloned()
                .expect("proposed value stored");
            out.push(ConsensusSend {
                wire: ConsensusWire::Propose {
                    instance: self.instance,
                    round,
                    value,
                },
                targets: self.peers(),
            });
        }
        self.try_progress(&mut out);
        self.progress_output(out)
    }

    /// Coordinator: decide once a majority acked the proposal of a round it
    /// coordinated.
    fn coordinator_phase4(&mut self, out: &mut Vec<ConsensusSend<V>>) -> bool {
        let rounds: Vec<u64> = self.proposed_rounds.iter().copied().collect();
        for round in rounds {
            if self.coordinator_of(round) != self.self_id {
                continue;
            }
            let ack_count = self.acks.get(&round).map_or(0, BTreeSet::len);
            if ack_count >= self.majority() {
                let value = self
                    .proposals
                    .get(&round)
                    .cloned()
                    .expect("proposed value stored");
                self.adopt_decision(value, out);
                return true;
            }
        }
        false
    }
}

/// The result of driving a [`MajConsensus`] one step: messages to send plus the
/// decision if it was just reached (reported exactly once).
///
/// Each entry of `messages` is one wire allocation; multi-target entries are
/// meant to be forwarded through a shared-payload multicast primitive.
#[derive(Debug)]
pub struct ProgressOutput<V> {
    /// Wire messages to transmit, one [`ConsensusSend`] per distinct wire.
    pub messages: Vec<ConsensusSend<V>>,
    /// The decision, the first time it becomes available.
    pub decision: Option<Decision<V>>,
}

impl<V> Default for ProgressOutput<V> {
    fn default() -> Self {
        ProgressOutput {
            messages: Vec::new(),
            decision: None,
        }
    }
}

#[cfg(test)]
mod tests;
