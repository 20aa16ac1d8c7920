//! Durable snapshots, log compaction and catch-up: how a server bounds its
//! settled log, and how a restarted one — or one its group out-votes on its
//! settled digest — rejoins from a peer's snapshot plus the settled delta
//! since it.

use std::collections::VecDeque;
use std::fmt::Debug;
use std::hash::{Hash, Hasher};

use oar_sequence::Seq;
use oar_simnet::{Process, ProcessId, Runtime, TimerTag};

use super::{OarServer, Phase, Wire};
use crate::message::{CatchUpReply, OarWire, Request, RequestId};
use crate::state_machine::{StateImage, StateMachine};

/// Exponential-backoff cap of the catch-up retry delay, as a power of two:
/// attempts back off 1×, 2×, 4×, 8× [`OarConfig::catch_up_retry`] and stay
/// at 8× from there (donor rotation keeps every retry trying a new peer).
///
/// [`OarConfig::catch_up_retry`]: crate::config::OarConfig::catch_up_retry
const CATCHUP_BACKOFF_CAP: u32 = 3;

/// One link of the chained order-hash over settled request ids:
/// `h_i = mix(h_{i-1}, id_i)` (splitmix64-style finalizer). Replicas that
/// compacted their `A_delivered` prefix compare the chain value at a common
/// position instead of the pruned elements; the chain over the full prefix
/// commits to both content and order.
fn chain_hash(h: u64, id: RequestId) -> u64 {
    let mut x = h
        ^ (id.origin.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ id.seq.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The chain value `h` extended over `ids`.
pub(super) fn chain(h: u64, ids: &[RequestId]) -> u64 {
    ids.iter().fold(h, |h, id| chain_hash(h, *id))
}

/// The server's latest snapshot: the state image captured at an epoch close
/// plus the metadata needed to serve a [`CatchUpReply`] and to compare the
/// compacted prefix with other replicas.
#[derive(Clone, Debug)]
struct SnapshotRecord {
    /// The state image (`None` when the machine is not snapshottable —
    /// catch-up then ships the full settled history as the delta).
    image: Option<StateImage>,
    /// Number of settled commands captured inside `image`.
    position: u64,
    /// State digest at `position`.
    digest: u64,
    /// Chained order-hash over the first `position` settled request ids.
    order_hash: u64,
}

/// The recovery layer's state.
#[derive(Clone, Debug)]
pub(super) struct Recovery<C, R> {
    /// Number of settled commands compacted out of `a_delivered`: the global
    /// delivery position of `a_delivered[0]` is `a_base + 1`. Always equal to
    /// `snapshot.position` — compaction prunes exactly to the snapshot.
    pub(super) a_base: u64,
    /// Chained order-hash ([`chain_hash`]) over the compacted prefix.
    pub(super) a_base_hash: u64,
    /// State digest at the last epoch close (the settled prefix state —
    /// current-epoch optimistic deliveries are *not* in it). This is the
    /// digest a rejoiner must reproduce after snapshot + delta replay.
    pub(super) settled_digest: u64,
    /// The settled requests (with payloads) ordered after the snapshot
    /// position, in delivery order — the catch-up delta a donor serves.
    /// Parallels the retained `a_delivered` exactly; cleared on snapshot.
    pub(super) settled_log: VecDeque<Request<C>>,
    /// The latest snapshot (taken at construction with position 0, then at
    /// every `OarConfig::snapshot_every`-th epoch close).
    snapshot: SnapshotRecord,
    /// `Some(attempt)` while this server is catching up after a restart: it
    /// ignores all protocol traffic except the matching [`CatchUpReply`]
    /// (buffering what may still matter) until the install completes.
    pub(super) catch_up_attempt: Option<u64>,
    /// Wires received while recovering, replayed through `on_message` once
    /// the install completes (the door checks discard whatever the transfer
    /// already covered).
    buffer: Vec<(ProcessId, OarWire<C, R>)>,
    /// Catch-up requests from replicas this group does not (yet) roster —
    /// replacements whose `Replace` fence has not settled here. Serving them
    /// now would transfer a state whose future decisions are cast to the old
    /// roster, so the transfer is held and served the moment the fence
    /// applies. One slot per sender (the latest attempt wins).
    held_catch_ups: Vec<(ProcessId, u64)>,
    /// The epoch a catch-up install landed in the middle of. A rejoiner has
    /// missed that epoch's earlier order batches, so opt-delivering from a
    /// mid-epoch batch would break Lemma 2 (every `O_delivered` is a prefix
    /// of the sequencer order) — the premise that makes `Cnsv-order` agree.
    /// While the current epoch equals this one, the optimistic path is
    /// frozen: this replica proposes `O_delivered = ∅` (a trivial prefix)
    /// and the conservative close delivers everything. Expires when the
    /// epoch advances.
    pub(super) opt_freeze_epoch: Option<u64>,
    /// The watermark at which this replica last counted a divergence it
    /// could not heal (its machine cannot be reset), so a standing
    /// divergence is counted once per watermark, not once per tick.
    diverged_at: Option<u64>,
}

impl<C: Debug, R: Debug> Recovery<C, R> {
    /// A position-0 snapshot exists from the start, so the server can always
    /// donate state to a rejoining peer.
    pub(super) fn new<S: StateMachine>(sm: &S) -> Self {
        let digest = sm.digest();
        Recovery {
            a_base: 0,
            a_base_hash: 0,
            settled_digest: digest,
            settled_log: VecDeque::new(),
            snapshot: SnapshotRecord {
                image: sm.snapshot(),
                position: 0,
                digest,
                order_hash: 0,
            },
            catch_up_attempt: None,
            buffer: Vec::new(),
            held_catch_ups: Vec::new(),
            opt_freeze_epoch: None,
            diverged_at: None,
        }
    }

    /// Everything but the snapshot image (its digest stands for it) and the
    /// settled-log payloads (their ids stand for them).
    pub(super) fn digest(&self, h: &mut impl Hasher) {
        self.a_base.hash(h);
        self.a_base_hash.hash(h);
        self.settled_digest.hash(h);
        self.settled_log
            .iter()
            .for_each(|request| request.id.hash(h));
        self.snapshot.position.hash(h);
        self.snapshot.digest.hash(h);
        self.snapshot.order_hash.hash(h);
        self.catch_up_attempt.hash(h);
        format!("{:?}", self.buffer).hash(h);
        self.held_catch_ups.hash(h);
        self.opt_freeze_epoch.hash(h);
        self.diverged_at.hash(h);
    }
}

impl<S: StateMachine> OarServer<S> {
    /// Captures the settled state into a fresh snapshot and compacts the
    /// log: the retained `A_delivered` entries fold into the chained
    /// order-hash and are pruned, together with the settled-log delta they
    /// correspond to. Must run at an epoch boundary, where the state
    /// machine holds exactly the settled prefix. A machine without snapshot
    /// support keeps the historical unbounded log (catch-up then replays the
    /// full history).
    pub(super) fn take_snapshot(&mut self) {
        let Some(image) = self.sm.snapshot() else {
            return;
        };
        let position = self.total_settled();
        let order_hash = chain(self.recovery.a_base_hash, self.core.a_delivered.as_slice());
        self.recovery.snapshot = SnapshotRecord {
            image: Some(image),
            position,
            digest: self.recovery.settled_digest,
            order_hash,
        };
        self.stats.snapshots_taken += 1;
        self.stats.compacted += self.core.a_delivered.len() as u64;
        self.recovery.a_base = position;
        self.recovery.a_base_hash = order_hash;
        self.core.a_delivered = Seq::new();
        self.recovery.settled_log.clear();
        self.stats.a_delivered_len.record(0);
    }

    /// The divergence detector's verdict, taken on the maintenance tick. A
    /// replica whose settled digest a majority of its group out-votes
    /// ([`Self::out_voted`]) counts the divergence and annotates it, then
    /// rejoins blank: every concern is rebuilt as [`OarServer::recovering`]
    /// builds it, over the current roster and with the counters carried
    /// over, and a peer is asked for a catch-up, whose install verifies the
    /// donor's digest and re-arms the tick. Returns whether it rejoined; the
    /// caller must then not re-arm the tick. A machine without snapshots has
    /// nothing an install could reset it to (catch-up would replay the
    /// history onto the divergent state), and one that cannot fork leaves
    /// the rebuilt server no machine to hold until then: those only count.
    pub(super) fn rejoin_if_out_voted(&mut self, ctx: &mut dyn Runtime<Wire<S>>) -> bool {
        let own = self.settled();
        let Some(theirs) = self.out_voted() else {
            return false;
        };
        if self.recovery.diverged_at == Some(own.epoch) {
            return false;
        }
        self.stats.divergences += 1;
        ctx.annotate_with(|| {
            let (epoch, digest) = (own.epoch, own.digest);
            format!("divergence @{epoch}: settled digest {digest:x}, majority {theirs:x}")
        });
        let resettable = self.recovery.snapshot.image.is_some();
        let Some(sm) = resettable.then(|| self.sm.fork()).flatten() else {
            self.recovery.diverged_at = Some(own.epoch);
            return false;
        };
        let core = &self.core;
        *self = OarServer {
            stats: self.stats,
            ..Self::recovering(core.id, core.group.clone(), core.config, sm)
        };
        self.send_catch_up_request(ctx);
        true
    }

    /// Sends the current catch-up attempt's `CatchUpRequest` to a donor and
    /// arms the retry clock. Donors rotate per attempt (a crashed donor must
    /// not block rejoin) and the retry delay backs off exponentially, capped
    /// at 2^[`CATCHUP_BACKOFF_CAP`] × `OarConfig::catch_up_retry`.
    pub(super) fn send_catch_up_request(&mut self, ctx: &mut dyn Runtime<Wire<S>>) {
        let attempt = self
            .recovery
            .catch_up_attempt
            .expect("only called while recovering");
        let peers = self.peers();
        let donor = peers[(attempt as usize) % peers.len()];
        self.stats.catch_up_requests += 1;
        let group = self.core.group.clone();
        ctx.send(donor, OarWire::CatchUpRequest { attempt, group });
        ctx.annotate_with(|| format!("catch-up attempt {attempt} -> {donor}"));
        let backoff = 1u64 << (attempt.min(CATCHUP_BACKOFF_CAP as u64) as u32);
        let retry = self.core.config.catch_up_retry.saturating_mul(backoff);
        ctx.set_timer(retry, TimerTag::CatchUp);
    }

    /// The catch-up retry clock fired: if the donor did not answer in time
    /// (crashed, or its reply was lost), rotate to the next donor with
    /// backed-off retry.
    pub(super) fn on_catch_up_timer(&mut self, ctx: &mut dyn Runtime<Wire<S>>) {
        if let Some(attempt) = self.recovery.catch_up_attempt {
            self.recovery.catch_up_attempt = Some(attempt + 1);
            self.send_catch_up_request(ctx);
        }
    }

    /// A peer asks for a state transfer.
    pub(super) fn on_catch_up_request(
        &mut self,
        ctx: &mut dyn Runtime<Wire<S>>,
        from: ProcessId,
        attempt: u64,
        group: Vec<ProcessId>,
    ) {
        if self.core.group.contains(&from) || self.core.group.iter().all(|p| group.contains(p)) {
            self.serve_catch_up(ctx, from, attempt);
        } else {
            // A replacement asking before its `Replace` fence settled here:
            // this roster still contains the member the requester is
            // replacing, so the requester's install gate would reject the
            // transfer anyway — every decision settled between the transfer
            // and the fence is cast to the old roster and the requester
            // would silently miss it. Hold the request and serve it the
            // moment the fence applies (end of `apply_decision`).
            ctx.annotate_with(|| format!("catch-up from non-member {from} held"));
            self.recovery.held_catch_ups.retain(|(p, _)| *p != from);
            self.recovery.held_catch_ups.push((from, attempt));
        }
    }

    /// Serves the held catch-up requests of the peers now in the roster.
    pub(super) fn serve_held_catch_ups(&mut self, ctx: &mut dyn Runtime<Wire<S>>) {
        let held = std::mem::take(&mut self.recovery.held_catch_ups);
        let (ready, waiting): (Vec<_>, Vec<_>) =
            (held.into_iter()).partition(|(peer, _)| self.core.group.contains(peer));
        self.recovery.held_catch_ups = waiting;
        for (peer, attempt) in ready {
            self.serve_catch_up(ctx, peer, attempt);
        }
    }

    /// Serves a rejoining peer the state transfer it needs: the latest
    /// snapshot, the settled delta since it, the settled-id set and GC floor
    /// for its door-drop filters, and the digests it must reproduce.
    fn serve_catch_up(&mut self, ctx: &mut dyn Runtime<Wire<S>>, to: ProcessId, attempt: u64) {
        self.stats.catch_up_replies += 1;
        let (core, recovery) = (&self.core, &self.recovery);
        // Sorted so the reply (and thus the simulation schedule) does not
        // depend on `HashSet` iteration order.
        let mut settled: Vec<RequestId> = core.settled.iter().copied().collect();
        settled.sort_unstable();
        // Sorted so the reply does not depend on `HashMap` iteration order.
        let mut pending: Vec<Request<S::Command>> = core.payloads.values().cloned().collect();
        pending.sort_unstable_by_key(|r| r.id);
        let reply = CatchUpReply {
            attempt,
            image: recovery.snapshot.image.clone(),
            snapshot_position: recovery.snapshot.position,
            snapshot_digest: recovery.snapshot.digest,
            snapshot_order_hash: recovery.snapshot.order_hash,
            delta: recovery.settled_log.iter().cloned().collect(),
            epoch: core.epoch,
            conservative: core.phase == Phase::Conservative,
            gc_floor: self.gc.floor,
            settled,
            digest: recovery.settled_digest,
            pending,
            group: core.group.clone(),
            route_epoch: self.reconfig.route_epoch,
            migrations: self.reconfig.migrations.clone(),
        };
        ctx.annotate_with(|| {
            format!(
                "catch-up reply -> {to}: snapshot @{} + delta {}",
                recovery.snapshot.position,
                recovery.settled_log.len()
            )
        });
        ctx.send(to, OarWire::CatchUpReply(Box::new(reply)));
    }

    /// A message while recovering: only the matching [`CatchUpReply`] is
    /// processed; protocol traffic that may still matter after the install
    /// is buffered for replay.
    pub(super) fn on_message_recovering(
        &mut self,
        ctx: &mut dyn Runtime<Wire<S>>,
        from: ProcessId,
        msg: Wire<S>,
        attempt: u64,
    ) {
        match msg {
            OarWire::CatchUpReply(reply) if reply.attempt == attempt => {
                self.install_catch_up(ctx, from, *reply);
            }
            // A late reply of an abandoned attempt: ignore (the newer
            // attempt's donor will answer with current state).
            OarWire::CatchUpReply(_) => {}
            // The rest (heartbeats, watermarks, fetches) is periodic or
            // answered by peers with live state, and a recovering replica
            // cannot donate.
            OarWire::Request(_)
            | OarWire::PayloadFill { .. }
            | OarWire::Order(_)
            | OarWire::PhaseII(_)
            | OarWire::Consensus(_) => {
                self.recovery.buffer.push((from, msg));
            }
            _ => {}
        }
    }

    /// Installs a donor's state transfer and resumes participation: install
    /// the image, adopt the donor's compacted prefix (base position + chain
    /// hash) and snapshot, replay the settled delta, adopt the settled set
    /// and GC floor, verify the digest, then re-arm the maintenance tick,
    /// announce the watermark and replay the wires buffered during the
    /// transfer. A digest mismatch abandons the attempt and retries with the
    /// next donor.
    fn install_catch_up(
        &mut self,
        ctx: &mut dyn Runtime<Wire<S>>,
        donor: ProcessId,
        reply: CatchUpReply<S::Command>,
    ) {
        let retry = |server: &mut Self, ctx: &mut dyn Runtime<Wire<S>>| {
            server.recovery.catch_up_attempt = Some(reply.attempt + 1);
            server.send_catch_up_request(ctx);
        };
        let group = &self.core.group;
        if !reply.group.contains(&self.core.id) && reply.group.iter().any(|p| !group.contains(p)) {
            // The donor still rosters the member this replica is replacing:
            // it has not applied the `Replace` fence yet, and its phase-2
            // casts still target the old roster — installing now would
            // silently miss every decision settled between this transfer and
            // the fence. Stay recovering and retry until a donor has fenced
            // us in.
            ctx.annotate_with(|| format!("catch-up donor {donor} has not fenced us in"));
            return retry(self, ctx);
        }
        if let Some(image) = &reply.image {
            if !self.sm.install(image) {
                // An image of a foreign type cannot be installed; the state
                // is untouched, so another attempt is safe.
                ctx.annotate_with(|| format!("catch-up image from {donor} rejected"));
                return retry(self, ctx);
            }
            debug_assert_eq!(self.sm.digest(), reply.snapshot_digest);
        }
        // Adopt the donor's snapshot and compacted prefix verbatim: after
        // the delta replay below, this replica's (a_base, a_delivered,
        // settled_log, snapshot) are element-identical to the donor's
        // settled state.
        self.recovery.snapshot = SnapshotRecord {
            image: reply.image.clone(),
            position: reply.snapshot_position,
            digest: reply.snapshot_digest,
            order_hash: reply.snapshot_order_hash,
        };
        self.recovery.a_base = reply.snapshot_position;
        self.recovery.a_base_hash = reply.snapshot_order_hash;
        self.core.position = reply.snapshot_position;
        self.core.a_delivered = Seq::new();
        for request in &reply.delta {
            // Replay, discarding undo tokens: settled deliveries never roll
            // back. Responses are discarded too — the original replies went
            // out (from the survivors) before the crash.
            let _ = self.sm.apply(&request.command);
            self.core.position += 1;
            self.core.a_delivered.push(request.id);
        }
        self.recovery.settled_log = reply.delta.clone().into();
        self.core.settled = reply.settled.iter().copied().collect();
        self.core.epoch = reply.epoch;
        self.recovery.opt_freeze_epoch = Some(reply.epoch);
        self.gc.floor = reply.gc_floor;
        // Adopt the donor's roster: a `Replace` fence that settled while
        // this replica was down re-rostered the group, and quorum, rotation
        // and heartbeat accounting must see the current members. (A replica
        // the fence removed keeps its stale roster — it is no longer a
        // member, so nothing it counts matters.)
        if reply.group != self.core.group && reply.group.contains(&self.core.id) {
            let group = &self.core.group;
            let removed: Vec<ProcessId> = group
                .iter()
                .copied()
                .filter(|p| !reply.group.contains(p))
                .collect();
            let added: Vec<ProcessId> = reply
                .group
                .iter()
                .copied()
                .filter(|p| !group.contains(p))
                .collect();
            for (old, new) in removed.into_iter().zip(added) {
                self.swap_member(ctx, old, new);
            }
            self.core.group = reply.group.clone();
        }
        // Adopt the donor's routing boundary, so the stale-epoch door check
        // and `migrated_away` agree with the rest of the group about keys
        // migrated while this replica was down.
        if reply.route_epoch > self.reconfig.route_epoch {
            self.reconfig.route_epoch = reply.route_epoch;
            self.reconfig.migrations = reply.migrations.clone();
        }
        self.recovery.settled_digest = self.sm.digest();
        if self.recovery.settled_digest != reply.digest {
            // The transfer did not reproduce the donor's settled state. With
            // an image a re-install overwrites everything, so retrying is
            // safe; without one the machine cannot be reset and divergence
            // is unrecoverable.
            assert!(
                reply.image.is_some(),
                "catch-up digest mismatch on a non-snapshottable machine"
            );
            ctx.annotate_with(|| format!("catch-up digest mismatch from {donor}"));
            return retry(self, ctx);
        }
        self.stats.catch_up_delta = reply.delta.len() as u64;
        self.stats.catch_up_snapshot_position = reply.snapshot_position;
        let retained = self.core.a_delivered.len() as u64;
        self.stats.a_delivered_len.record(retained);
        self.recovery.catch_up_attempt = None;
        ctx.annotate_with(|| {
            format!(
                "caught up from {donor}: snapshot @{} + delta {} -> pos {}, epoch {}",
                reply.snapshot_position,
                reply.delta.len(),
                self.core.position,
                self.core.epoch
            )
        });
        // Resume participation: maintenance tick (heartbeats re-admit this
        // replica at its peers' failure detectors) and an immediate
        // watermark announcement so the peers' payload GC stops waiting on
        // the pre-crash watermark.
        ctx.set_timer(self.core.config.tick_interval, TimerTag::Tick);
        let settled = self.settled();
        ctx.send_all(&self.peers(), OarWire::Watermark { settled });
        // Adopt the donor's unsettled payloads: their clients sent them while
        // this replica was down and will never re-send, yet sequencer
        // rotation may make this replica responsible for ordering them.
        self.handle_payload_fill(ctx, reply.pending.clone());
        // Replay what arrived during the transfer; the door checks (settled
        // set, epoch guards, GC floor) discard whatever it already covered.
        let buffered = std::mem::take(&mut self.recovery.buffer);
        for (from, msg) in buffered {
            self.on_message(ctx, from, msg);
        }
        // The donor's current epoch may already be conservative — its
        // PhaseII broadcast finished spreading while this replica was down
        // and will never be re-sent, so the donor's phase travels in the
        // reply instead.
        let optimistic = self.core.phase == Phase::Optimistic;
        if reply.conservative && self.core.epoch == reply.epoch && optimistic {
            self.enter_phase2(ctx);
        }
        // If this replica is the frozen epoch's sequencer, nobody else can
        // order, so the epoch would never reach its cut: close it
        // conservatively instead. Re-ordering from scratch is not an option —
        // the orders issued before the crash already shaped the peers'
        // `O_delivered` prefixes.
        if self.recovery.opt_freeze_epoch == Some(self.core.epoch)
            && self.core.phase == Phase::Optimistic
            && self.is_sequencer()
        {
            self.start_phase2(ctx);
        }
    }
}
