//! Request dissemination repairs and the consensus retransmit.
//!
//! A client addresses every member of `Π` itself, so in a failure-free run
//! each request crosses the group exactly once: `n` wires, no relay. What
//! the classic relay-on-first-reception bought — Agreement when the client
//! dies in the middle of its send loop — comes from two repairs on the
//! maintenance tick, both silent while nothing is wrong:
//!
//! * **pull** (`maybe_fetch_payloads`): an id this server saw ordered or
//!   decided whose payload is still missing after a full tick is fetched
//!   from a peer (`PayloadFetch` / `PayloadFill`);
//! * **push on stall** (`maybe_push_stalled`): a request held in
//!   `R_delivered` that is neither ordered nor settled across two
//!   consecutive ticks is sent to the peers, once per holder, batched in
//!   `PayloadFill` wires — the classic relay, deferred until the sequencer
//!   has visibly not got the request.
//!
//! Every correct holder of a request therefore eventually pushes it or is
//! pulled from, which is Agreement. Two senders keep an immediate forward
//! because no client copy will ever arrive where it is needed: the
//! server-crafted `MigrateState` install request, and first-hand client
//! copies at a group that a `Replace` fence re-rostered (clients keep
//! addressing the roster they were built with).
//!
//! The same tick re-sends a consensus instance's messages once it has
//! stalled (`maybe_retransmit_consensus`).

use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use oar_simnet::{ProcessId, Runtime};

use super::{sorted, OarServer, Phase, Wire};
use crate::message::{OarWire, Request, RequestId};
use crate::state_machine::StateMachine;

/// At most this many payloads are named in one `PayloadFetch` wire (the
/// rest follow on later ticks once the first batch lands) or carried by one
/// pushed `PayloadFill`.
const FETCH_BATCH: usize = 64;

/// The repair loops' memory between ticks.
#[derive(Clone, Debug, Default)]
pub(super) struct Repair {
    /// Payload ids observed missing at the previous maintenance tick: only
    /// ids missing for a full tick are fetched, so normal multicast delivery
    /// fills fresh gaps without repair traffic.
    prev_missing: HashSet<RequestId>,
    /// Rotates the target peer of successive `PayloadFetch` wires.
    fetch_round: u64,
    /// Stall scan over `r_delivered`: every request before `stall_cursor`
    /// has been examined (pushed, or found ordered); the ones before
    /// `stall_mark` were already held at the previous maintenance tick, so
    /// a tick examines `[stall_cursor, stall_mark)` — requests held for a
    /// full tick — and nothing else. Both restart from 0 when `r_delivered`
    /// is rebuilt, and `pushed` keeps the rescan from pushing an id twice.
    stall_cursor: usize,
    stall_mark: usize,
    /// Unsettled requests this server has already pushed to its peers.
    pub(super) pushed: HashSet<RequestId>,
    /// Maintenance ticks the current consensus instance has spent undecided:
    /// after two full ticks its (idempotent) messages are re-sent, repairing
    /// estimates/proposals that were unicast to a peer while it was down.
    cnsv_stall_ticks: u32,
}

impl Repair {
    pub(super) fn digest(&self, h: &mut impl Hasher) {
        sorted(self.prev_missing.iter()).hash(h);
        self.fetch_round.hash(h);
        self.stall_cursor.hash(h);
        self.stall_mark.hash(h);
        sorted(self.pushed.iter()).hash(h);
        self.cnsv_stall_ticks.hash(h);
    }
}

impl<S: StateMachine> OarServer<S> {
    /// Answers a peer's `PayloadFetch` with every requested payload this
    /// server still holds — unsettled ones from the live payload map,
    /// settled ones from the catch-up delta.
    pub(super) fn serve_payload_fetch(
        &mut self,
        ctx: &mut dyn Runtime<Wire<S>>,
        to: ProcessId,
        ids: Vec<RequestId>,
    ) {
        let mut requests: Vec<Request<S::Command>> = Vec::new();
        for id in ids {
            if let Some(request) = self.core.payloads.get(&id) {
                requests.push(request.clone());
            } else if let Some(request) = self.recovery.settled_log.iter().find(|r| r.id == id) {
                requests.push(request.clone());
            }
        }
        if !requests.is_empty() {
            self.stats.payload_fills += 1;
            ctx.send(to, OarWire::PayloadFill { requests });
        }
    }

    /// The pull half of the request repair: fetches payloads this server
    /// never received from their client (it was down, or the client died
    /// mid-multicast) — clients never re-send, so an ordered request (in the
    /// order queue) or a decided one (in `pending_missing`) could otherwise
    /// stall forever. Runs on the maintenance tick; only ids already missing
    /// at the *previous* tick are fetched, so ordinary in-flight payloads
    /// arrive on their own without repair traffic.
    pub(super) fn maybe_fetch_payloads(&mut self, ctx: &mut dyn Runtime<Wire<S>>) {
        let core = &self.core;
        let mut missing: Vec<RequestId> = (self.order.queue.iter())
            .filter(|id| !core.payloads.contains_key(id) && !core.settled.contains(id))
            .take(FETCH_BATCH)
            .copied()
            .collect();
        let decided = sorted(self.phase2.pending_missing.iter().copied());
        missing.extend(decided.into_iter().take(FETCH_BATCH));
        missing.sort_unstable();
        missing.dedup();
        if missing.is_empty() {
            self.repair.prev_missing.clear();
            return;
        }
        let stuck: Vec<RequestId> = missing
            .iter()
            .filter(|id| self.repair.prev_missing.contains(id))
            .copied()
            .collect();
        self.repair.prev_missing = missing.into_iter().collect();
        if stuck.is_empty() {
            return;
        }
        let peers = self.peers();
        if peers.is_empty() {
            return;
        }
        let donor = peers[(self.repair.fetch_round as usize) % peers.len()];
        self.repair.fetch_round += 1;
        self.stats.payload_fetches += 1;
        ctx.annotate_with(|| format!("payload fetch ({}) -> {donor}", stuck.len()));
        ctx.send(donor, OarWire::PayloadFetch { ids: stuck });
    }

    /// Re-sends the current consensus instance's idempotent messages once it
    /// has been undecided for two full maintenance ticks. A healthy phase 2
    /// decides well within one tick; the only way to stall longer with
    /// nobody suspected is lost unicast — estimates or a proposal sent to a
    /// peer while it was down (e.g. the round's coordinator crashed and
    /// restarted faster than the failure-detector timeout, rejoining with a
    /// fresh, empty instance).
    pub(super) fn maybe_retransmit_consensus(&mut self, ctx: &mut dyn Runtime<Wire<S>>) {
        let stalled = self.core.phase == Phase::Conservative
            && self
                .phase2
                .consensus
                .as_ref()
                .is_some_and(|c| c.is_started() && !c.has_decided());
        if !stalled {
            self.repair.cnsv_stall_ticks = 0;
            return;
        }
        self.repair.cnsv_stall_ticks += 1;
        if self.repair.cnsv_stall_ticks < 2 {
            return;
        }
        self.repair.cnsv_stall_ticks = 0;
        self.stats.consensus_retransmits += 1;
        ctx.annotate_with(|| format!("consensus retransmit (epoch={})", self.core.epoch));
        let consensus = self.phase2.consensus.as_mut().expect("checked above");
        let output = consensus.retransmit();
        self.dispatch_consensus_output(ctx, output.messages, output.decision);
    }

    /// The door for request copies that come from a peer — pulled, pushed on
    /// stall, forwarded to an admitted member, or adopted from a catch-up
    /// donor: settled and migrated-away requests are dropped, the rest take
    /// the normal delivery path. Nothing is passed on from here; a receiver
    /// that ends up holding the request unordered pushes it once itself.
    pub(super) fn handle_payload_fill(
        &mut self,
        ctx: &mut dyn Runtime<Wire<S>>,
        requests: Vec<Request<S::Command>>,
    ) {
        for request in requests {
            // A fill must not resurrect a request the migration fence
            // pruned: its key now settles at the recipient group.
            if request.group != self.core.config.group
                || self.core.settled.contains(&request.id)
                || self.migrated_away(&request.command)
            {
                continue;
            }
            self.handle_request_delivery(ctx, request);
        }
    }

    /// The push half of the request repair: a request this server holds in
    /// `R_delivered` that is neither ordered nor settled after a full tick
    /// has visibly not reached the sequencer — its client died mid-multicast,
    /// or the sequencer was down when it was sent. It is sent to the peers,
    /// once per holder and batched, which is the relay the classic
    /// R-multicast does on every first reception. Costs a scan of the
    /// requests received since the tick before last, and no wire, while
    /// ordering keeps up.
    pub(super) fn maybe_push_stalled(&mut self, ctx: &mut dyn Runtime<Wire<S>>) {
        let mut stalled: Vec<Request<S::Command>> = Vec::new();
        let (from, to) = (self.repair.stall_cursor, self.repair.stall_mark);
        for id in &self.order.r_delivered.as_slice()[from..to] {
            if !self.is_unordered(id) {
                continue;
            }
            if let Some(request) = self.core.payloads.get(id) {
                if self.repair.pushed.insert(*id) {
                    stalled.push(request.clone());
                }
            }
        }
        self.repair.stall_cursor = self.repair.stall_mark;
        self.repair.stall_mark = self.order.r_delivered.len();
        if stalled.is_empty() {
            return;
        }
        let peers = self.peers();
        while !stalled.is_empty() && !peers.is_empty() {
            let rest = stalled.split_off(stalled.len().min(FETCH_BATCH));
            self.stats.payload_pushes += peers.len() as u64;
            ctx.annotate_with(|| format!("payload push ({})", stalled.len()));
            ctx.send_all(&peers, OarWire::PayloadFill { requests: stalled });
            stalled = rest;
        }
    }

    /// Restarts the stall scan after `r_delivered` was rebuilt (positions
    /// shifted, and a request ordered in the closed epoch may be unordered
    /// again), forgetting the pushed ids that are gone from it.
    pub(super) fn reset_stall_scan(&mut self) {
        self.repair.stall_cursor = 0;
        self.repair.stall_mark = 0;
        let held = &self.order.r_delivered;
        self.repair.pushed.retain(|id| held.contains(id));
    }
}
