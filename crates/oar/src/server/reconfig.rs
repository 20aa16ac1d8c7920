//! Membership reconfiguration and shard migration: the routing door every
//! client request passes, and the `Replace` / `Migrate` fence commands that
//! take effect at an epoch close.

use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};

use oar_simnet::{ProcessId, Runtime};

use super::{OarServer, Wire};
use crate::message::{OarWire, ReconfigCmd, Request, RequestId};
use crate::shard::MigrationRecord;
use crate::state_machine::{entries_digest, StateMachine};

/// What the settled fences changed.
#[derive(Clone, Debug, Default)]
pub(super) struct Reconfig {
    /// The routing-boundary epoch this group has settled. Bumped by every
    /// settled `Migrate` fence; requests stamped with an older epoch are
    /// door-dropped and answered with a `Redirect`.
    pub(super) route_epoch: u64,
    /// Settled key-range migration records this server knows about, in
    /// settle order. Records where this group is the donor drive the
    /// migrated-away door check; the whole list travels in `Redirect`s so a
    /// stale client can repair its router in one round-trip.
    pub(super) migrations: Vec<MigrationRecord>,
    /// Other members admitted by a settled `Replace` fence. Clients keep
    /// addressing the roster they were built with and are never told, so
    /// first-hand client copies are forwarded to these members on reception.
    admitted: Vec<ProcessId>,
}

impl Reconfig {
    pub(super) fn digest(&self, h: &mut impl Hasher) {
        self.route_epoch.hash(h);
        format!("{:?}", self.migrations).hash(h);
        self.admitted.hash(h);
    }
}

impl<S: StateMachine> OarServer<S> {
    /// The door of a first-hand client copy: misroutes, settled copies and
    /// stale routing are turned away before Task 0 buffers the request.
    pub(super) fn on_request(
        &mut self,
        ctx: &mut dyn Runtime<Wire<S>>,
        request: Request<S::Command>,
    ) {
        // Sharded deployments: a request stamped for another group reached
        // the wrong shard. Count it and drop it at the door: a request this
        // group never orders is never settled here, so buffering it would
        // pin it forever.
        if request.group != self.core.config.group {
            self.stats.misrouted += 1;
            ctx.annotate_with(|| format!("misroute({}, {})", request.id, request.group));
            return;
        }
        // A late copy of an already-settled request (a redirected client
        // re-sending, a slow link).
        if self.core.settled.contains(&request.id) {
            return;
        }
        // Routing door: a request stamped with a stale boundary epoch, or
        // touching a key this group migrated away, is dropped and its client
        // pointed at the new owner. Copies that peers pass on arrive in
        // `PayloadFill` and skip the epoch check: a pre-fence request one
        // member accepted must stay acceptable to the others.
        if request.route_epoch < self.reconfig.route_epoch || self.migrated_away(&request.command) {
            self.stats.redirected += 1;
            ctx.annotate_with(|| format!("redirect({})", request.id));
            let records = self.reconfig.migrations.clone();
            let dropped = vec![request.id];
            ctx.send(request.client, OarWire::Redirect { records, dropped });
            return;
        }
        // Clients address the roster they were built with: members a
        // `Replace` fence admitted since get the request from here.
        if !self.reconfig.admitted.is_empty() && !self.core.payloads.contains_key(&request.id) {
            let requests = vec![request.clone()];
            ctx.send_all(&self.reconfig.admitted, OarWire::PayloadFill { requests });
        }
        self.handle_request_delivery(ctx, request);
    }

    /// Applies one settled reconfiguration fence. Runs inside
    /// `apply_decision`, at the epoch boundary.
    pub(super) fn apply_reconfig(&mut self, ctx: &mut dyn Runtime<Wire<S>>, cmd: ReconfigCmd) {
        match cmd {
            ReconfigCmd::Replace { old, new } => self.apply_replace(ctx, old, new),
            ReconfigCmd::Migrate { record, to_members } => {
                self.apply_migrate(ctx, record, &to_members)
            }
        }
    }

    /// `Replace { old, new }`: fences `old` out of every membership-derived
    /// structure — quorum (consensus group), sequencer rotation and GC
    /// accounting — and admits `new` into the same slot, preserving the
    /// rotation order. `new` joins with live state through the ordinary
    /// catch-up wires (it is spawned with [`OarServer::recovering`]); until
    /// its first watermark announcement it holds the payload GC, exactly
    /// like any unheard peer.
    fn apply_replace(&mut self, ctx: &mut dyn Runtime<Wire<S>>, old: ProcessId, new: ProcessId) {
        let group = &mut self.core.group;
        let Some(slot) = group.iter().position(|&p| p == old) else {
            return; // already applied (duplicate fence), or a bad target
        };
        if group.contains(&new) {
            return;
        }
        group[slot] = new;
        self.swap_member(ctx, old, new);
        self.stats.reconfigs_applied += 1;
        ctx.annotate_with(|| format!("reconfig: replace {old} -> {new}"));
        // Note: if this server *is* `old` (fenced while still alive), it has
        // just removed itself from its own group view: it will never be
        // sequencer again, never count towards quorum, and its peers ignore
        // its watermarks. It keeps serving reads of its local state but is
        // protocol-inert — the conservative way to leave.
    }

    /// Puts `new` into `old`'s place everywhere but the roster itself: the
    /// admitted-forward list, the `PhaseII` caster, the failure detector,
    /// and the GC accounting — the fenced replica's watermark no longer
    /// participates in the GC minimum; the newcomer starts unheard (0),
    /// holding the GC until its catch-up completes (conservative, never
    /// unsafe).
    pub(super) fn swap_member(
        &mut self,
        ctx: &mut dyn Runtime<Wire<S>>,
        old: ProcessId,
        new: ProcessId,
    ) {
        self.reconfig.admitted.retain(|&p| p != old);
        if new != self.core.id {
            self.reconfig.admitted.push(new);
        }
        self.phase2.cast.replace_member(old, new);
        self.core.fd.replace_member(old, new, ctx.now());
        self.gc.peer_settled.remove(&old);
    }

    /// `Migrate { record, to_members }`: the donor half extracts the settled
    /// entries of the migrated range from the state machine (dropping them
    /// locally) and ships them to every recipient member; both halves adopt
    /// the record and bump the routing-boundary epoch, arming the door
    /// redirect for stale-routed requests.
    fn apply_migrate(
        &mut self,
        ctx: &mut dyn Runtime<Wire<S>>,
        record: MigrationRecord,
        to_members: &[ProcessId],
    ) {
        let known = &self.reconfig.migrations;
        if known.iter().any(|r| r.route_epoch == record.route_epoch) {
            return; // duplicate fence
        }
        self.reconfig.route_epoch = self.reconfig.route_epoch.max(record.route_epoch);
        self.stats.reconfigs_applied += 1;
        let group = self.core.config.group;
        if record.to_group == group {
            self.stats.migrations_in += 1;
            self.reconfig.migrations.push(record);
            return;
        }
        if record.from_group != group {
            // A foreign record (possible when fences are broadcast wider
            // than the two groups): routing knowledge only.
            self.reconfig.migrations.push(record);
            return;
        }
        // Donor: extract-and-drop the settled entries of the range. This
        // runs after the closing epoch's batch applied and before the next
        // epoch delivers, so every donor replica cuts the exact same state.
        let entries = self.sm.extract_range(&record.range).unwrap_or_default();
        let digest = entries_digest(&entries);
        self.stats.migrations_out += 1;
        self.stats.migrate_out_digest = digest;
        ctx.annotate_with(|| {
            format!(
                "reconfig: migrate [{}..{:?}) -> {:?} ({} entries)",
                record.range.start,
                record.range.end,
                record.to_group,
                entries.len()
            )
        });
        for &to in to_members {
            self.stats.migrate_state_wires += 1;
            ctx.send(
                to,
                OarWire::MigrateState {
                    record: record.clone(),
                    entries: entries.clone(),
                    digest,
                },
            );
        }
        self.reconfig.migrations.push(record);
        // Unsettled requests for migrated keys must not be ordered here any
        // more (their effects would resurrect the range): drop them from the
        // reception buffer and point their clients at the new owner.
        self.prune_migrated_requests(ctx);
    }

    /// Drops every unsettled buffered request whose key this group just
    /// migrated away and sends each affected client one `Redirect` naming
    /// exactly its dropped ids. The client re-sends those — and only those —
    /// to the new owner under the same request ids, so each dropped request
    /// settles exactly once, at the recipient; requests this group already
    /// ordered are *not* listed (their effect travels in the hand-off) and
    /// are therefore never re-executed elsewhere.
    fn prune_migrated_requests(&mut self, ctx: &mut dyn Runtime<Wire<S>>) {
        let mut per_client: BTreeMap<ProcessId, Vec<RequestId>> = BTreeMap::new();
        for id in self.order.r_delivered.iter() {
            if self.core.settled.contains(id) {
                continue;
            }
            let Some(request) = self.core.payloads.get(id) else {
                continue;
            };
            if self.migrated_away(&request.command) {
                per_client.entry(request.client).or_default().push(*id);
            }
        }
        if per_client.is_empty() {
            return;
        }
        let gone: HashSet<RequestId> = per_client.values().flatten().copied().collect();
        let order = &mut self.order;
        order.r_delivered = order
            .r_delivered
            .iter()
            .filter(|id| !gone.contains(id))
            .copied()
            .collect();
        order.cursor = order.cursor.min(order.r_delivered.len());
        self.reset_stall_scan();
        // A late copy of a dropped request is turned away by the
        // migrated-away check of whichever door it arrives at.
        for id in &gone {
            self.core.payloads.remove(id);
        }
        self.stats.payloads.record(self.core.payloads.len() as u64);
        self.stats.redirected += gone.len() as u64;
        let records = self.reconfig.migrations.clone();
        for (client, dropped) in per_client {
            let records = records.clone();
            ctx.send(client, OarWire::Redirect { records, dropped });
        }
    }

    /// Whether `command` touches a key this group has migrated away (the
    /// donor-side half of the routing door check).
    pub(super) fn migrated_away(&self, command: &S::Command) -> bool {
        if self.reconfig.migrations.is_empty() {
            return false;
        }
        let Some(key) = S::command_key(command) else {
            return false;
        };
        // Newest covering record wins, mirroring `ShardRouter::route_key`.
        let group = self.core.config.group;
        for record in self.reconfig.migrations.iter().rev() {
            if record.range.contains(key) {
                return record.from_group == group && record.to_group != group;
            }
        }
        false
    }

    /// Ingests a donor's `MigrateState` hand-off: verifies the digest, then
    /// feeds a *deterministically identified* install request through this
    /// group's ordinary total order. Every donor replica sends the hand-off
    /// to every recipient member, and every recipient crafts the bit-same
    /// request — `payloads`/`settled` dedup the copies, so the range
    /// installs exactly once, at one agreed position. No client multicasts
    /// this request, so the first member to craft it forwards it to its
    /// peers at once instead of waiting for the stall repair. Install is
    /// insert-if-absent: a client write redirected ahead of the install
    /// keeps its effect whichever side of the install it lands on.
    pub(super) fn handle_migrate_state(
        &mut self,
        ctx: &mut dyn Runtime<Wire<S>>,
        record: MigrationRecord,
        entries: Vec<(String, String)>,
        digest: u64,
    ) {
        if record.to_group != self.core.config.group {
            return;
        }
        if entries_digest(&entries) != digest {
            ctx.annotate_with(|| "migrate-state digest mismatch dropped".to_string());
            return;
        }
        self.stats.migrate_in_digest = digest;
        let Some(command) = S::install_range_command(entries) else {
            return;
        };
        // Deterministic identity: any group member, fed by any donor,
        // produces the same id — `u64::MAX - route_epoch` cannot collide
        // with a client's own (small, counting-up) sequence numbers.
        let origin = *self.core.group.iter().min().expect("group is never empty");
        let id = oar_channels::MsgId::new(origin, u64::MAX - record.route_epoch);
        let request = Request {
            id,
            client: origin,
            group: self.core.config.group,
            txn: None,
            reconfig: None,
            route_epoch: self.reconfig.route_epoch,
            command,
        };
        if self.core.payloads.contains_key(&id) || self.core.settled.contains(&id) {
            return;
        }
        let requests = vec![request.clone()];
        ctx.send_all(&self.peers(), OarWire::PayloadFill { requests });
        self.handle_request_delivery(ctx, request);
    }
}
