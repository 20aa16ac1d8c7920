//! Client-side multi-key transactions over a sharded OAR deployment.
//!
//! A sharded deployment ([`crate::sharded`]) deliberately orders nothing
//! across groups; multi-key operations spanning shards are the first workload
//! that boundary excludes. This module adds them back **without any
//! cross-group agreement on the critical path**, in the spirit of
//! Sutra–Shapiro's asynchronous decentralised commitment: the commit decision
//! is a pure client-side observation over per-group quorums, never a wire
//! protocol of its own.
//!
//! # The commit protocol
//!
//! A transaction is a non-empty list of commands. [`TxnClient`] routes the
//! transaction's key set with the [`ShardRouter`]:
//!
//! * **Single-group fast path.** If every key is owned by one group, the ops
//!   collapse into one atomic command ([`MultiOp::multi`]) submitted exactly
//!   like a plain sharded request — same single `R-multicast` to the owning
//!   group, no envelope, no extra wire anywhere. The `txn-smoke` harness
//!   gate counts this: a single-group transactional workload produces wire
//!   traffic *identical* to the equivalent
//!   [`ShardedClient`](crate::sharded::ShardedClient) workload.
//! * **Multi-group commit.** Otherwise the client sends one `TxnPrepare`
//!   request per participating group — the group's partition of the ops as
//!   one atomic command, stamped with a [`TxnEnvelope`] naming the
//!   transaction and all participants. Each group orders its prepare through
//!   its **own** OAR total order and applies it optimistically like any other
//!   request (one command, one [`StateMachine::apply`], so the partition is
//!   atomic within the group's delivery by construction). The client runs the
//!   Fig. 5 weighted-quorum rule *per participating group* and declares the
//!   transaction **committed** once the rule holds in every one of them.
//!
//! # Why this is atomic, and what it is not
//!
//! There is no abort path: once the prepares are multicast, the reliable
//! multicast (Agreement) plus each group's total order guarantee every
//! participating group eventually orders and applies its partition — the
//! transaction is *deterministically committed* the moment it is submitted;
//! the client-side quorum observation only decides **when it is safe to
//! report** the commit. A group whose sequencer crashes mid-transaction
//! answers through the conservative phase instead (replies with full weight
//! `Π`), so the confirmation survives any single group's fail-over — the
//! quorum rule does not care which phase produced the replies.
//!
//! What multi-group transactions do **not** get is cross-group
//! serialisability: two groups may interleave two concurrent transactions in
//! different relative orders (there is nothing to order them *by*). What
//! holds is per-group total order, all-or-nothing application, and
//! read-your-committed-writes: a transaction submitted after a commit was
//! reported observes that commit's writes in every group, because each
//! group's sequencer had already delivered them (the optimistic weight
//! `{p, s}` contains the sequencer; the conservative weight is all of `Π`).

use std::collections::{BTreeMap, HashMap, VecDeque};

use oar_channels::CastWire;
use oar_simnet::{
    GroupId, Process, ProcessId, Runtime, Samples, SimDuration, SimTime, Timer, TimerTag, World,
};

use crate::adaptive::{PipelineController, PipelineStats};
use crate::client::QuorumTracker;
use crate::config::{ClientConfig, PipelineMode};
use crate::message::{
    majority, OarWire, ReplyBatch, ReplyItem, Request, RequestId, TxnEnvelope, TxnId,
};
use crate::server::{OarServer, ServerStats};
use crate::shard::{MigrationRecord, ShardKey, ShardRouter};
use crate::sharded::{
    alive_servers, build_group_servers, check_adopted_positions, check_groups_consistency,
    ShardedConfig,
};
use crate::state_machine::StateMachine;

/// Timer tag used for the think-time delay between two transactions.
const NEXT_TXN: TimerTag = TimerTag::NextRequest;

/// Commands that can carry a whole per-group transaction partition: several
/// ops combined into **one** command, applied atomically by one
/// [`StateMachine::apply`].
///
/// The transaction layer relies on two properties implementors must uphold:
///
/// * applying `multi(ops)` is equivalent to applying each op of `ops` in
///   order, with no observable intermediate state (the state machine applies
///   one command at a time, so this holds for free when `multi` simply
///   wraps the list);
/// * `multi(ops).shard_key()` routes to the same group as every op in `ops`
///   (the transaction layer only ever combines ops it has already routed to
///   one group, so returning the first op's key suffices).
///
/// `multi` is never called with an empty list; `multi(vec![op])` may return
/// `op` unchanged.
pub trait MultiOp: ShardKey + Sized {
    /// Combines `ops` (non-empty, all owned by one group) into one command
    /// that applies them in order, atomically.
    fn multi(ops: Vec<Self>) -> Self;
}

/// One per-group leg of a committed transaction: which group served it, the
/// prepare request's bookkeeping, and the group's response to the partition.
#[derive(Clone, Debug, PartialEq)]
pub struct TxnPart<R> {
    /// The participating group this part was ordered by.
    pub group: GroupId,
    /// The per-group prepare request (one [`RequestId`] per participant).
    pub request: RequestId,
    /// Epoch of the adopted reply in the owning group.
    pub epoch: u64,
    /// Position of the prepare in the owning group's delivery order.
    pub position: u64,
    /// Size of the adopted reply's weight (2 = optimistic `{p, s}`,
    /// `|Π|` = conservative — the fail-over case).
    pub adopted_weight: usize,
    /// Replies received for this part before its quorum closed.
    pub replies_seen: usize,
    /// The group's response to its partition of the ops.
    pub response: R,
}

/// A transaction completed by a [`TxnClient`]: the commit was observed, i.e.
/// the Fig. 5 quorum rule held in every participating group.
#[derive(Clone, Debug, PartialEq)]
pub struct TxnCompleted<R> {
    /// The transaction identifier.
    pub id: TxnId,
    /// Index of the transaction in the client's workload.
    pub index: usize,
    /// One part per participating group, sorted by group.
    pub parts: Vec<TxnPart<R>>,
    /// Time at which the prepares were multicast.
    pub sent_at: SimTime,
    /// Time at which the last participating group's quorum closed.
    pub completed_at: SimTime,
}

impl<R> TxnCompleted<R> {
    /// Client-observed commit latency of the transaction.
    pub fn latency(&self) -> SimDuration {
        self.completed_at.duration_since(self.sent_at)
    }

    /// Whether the transaction spanned more than one group (i.e. paid the
    /// multi-group commit instead of the fast path).
    pub fn is_multi_group(&self) -> bool {
        self.parts.len() > 1
    }
}

/// One not-yet-adopted per-group leg of an outstanding transaction.
#[derive(Debug)]
struct PendingPart<C, R> {
    group: GroupId,
    quorum: QuorumTracker<R>,
    /// The partition command, retained so a [`OarWire::Redirect`] can
    /// re-send the prepare (to the group that now owns its shard key).
    command: C,
    /// The routing-boundary epoch the prepare was last sent under; redirects
    /// naming an already re-sent prepare are de-duplicated against it.
    route_epoch: u64,
}

#[derive(Debug)]
struct OutstandingTxn<C, R> {
    index: usize,
    sent_at: SimTime,
    /// The envelope the prepares were multicast with (`None` on the
    /// single-group fast path). A redirected prepare is re-sent under the
    /// same envelope: the participant set names the groups the *other*
    /// prepares already carried, and must stay consistent across re-sends.
    envelope: Option<TxnEnvelope>,
    /// Parts whose group quorum is still open, keyed by prepare request.
    pending: BTreeMap<RequestId, PendingPart<C, R>>,
    /// Parts already adopted (their group's quorum closed).
    adopted: Vec<TxnPart<R>>,
}

/// A client submitting multi-key transactions to a sharded OAR deployment.
///
/// Each transaction's ops are partitioned by the router; single-group
/// transactions take the wire-identical fast path, multi-group transactions
/// run the per-group prepare commit described in the [module docs](self).
/// The client is closed-loop with an optional pipeline window, like the
/// other client flavours.
#[derive(Debug)]
pub struct TxnClient<S: StateMachine> {
    id: ProcessId,
    /// Server ids per group, indexed by [`GroupId`].
    groups: Vec<Vec<ProcessId>>,
    router: ShardRouter,
    workload: VecDeque<Vec<S::Command>>,
    /// Prepare requests get ids `(self.id, seq)` from one counter across all
    /// groups and transactions, so ids stay unique however ops are routed.
    next_seq: u64,
    /// Transactions get ids `(self.id, txn_seq)` from their own counter.
    next_txn: u64,
    next_index: usize,
    think_time: SimDuration,
    start_delay: SimDuration,
    pipeline: usize,
    /// Present when the transaction window adapts to the delivery-batch
    /// hints the participating groups report.
    adaptive: Option<PipelineController>,
    outstanding: BTreeMap<TxnId, OutstandingTxn<S::Command, S::Response>>,
    /// Owning transaction of every in-flight prepare request.
    request_txn: HashMap<RequestId, TxnId>,
    completed: Vec<TxnCompleted<S::Response>>,
}

impl<S: StateMachine> TxnClient<S>
where
    S::Command: MultiOp,
{
    /// Creates a client submitting the transactions of `workload` (each a
    /// non-empty op list) to the deployment described by `groups` and
    /// `router`.
    ///
    /// # Panics
    ///
    /// Panics if the router's group count differs from `groups.len()`, or —
    /// when the transaction is submitted — if a workload entry is empty.
    pub fn new(
        id: ProcessId,
        groups: Vec<Vec<ProcessId>>,
        router: ShardRouter,
        workload: Vec<Vec<S::Command>>,
        config: ClientConfig,
    ) -> Self {
        assert_eq!(
            router.num_groups(),
            groups.len(),
            "router and deployment disagree on the group count"
        );
        let adaptive = match config.pipeline {
            PipelineMode::Fixed(_) => None,
            PipelineMode::Adaptive(cap) => Some(PipelineController::new(cap)),
        };
        TxnClient {
            id,
            groups,
            router,
            workload: workload.into(),
            next_seq: 0,
            next_txn: 0,
            next_index: 0,
            think_time: config.think_time,
            start_delay: config.start_delay,
            pipeline: config.initial_window().max(1),
            adaptive,
            outstanding: BTreeMap::new(),
            request_txn: HashMap::new(),
            completed: Vec::new(),
        }
    }

    /// Convergence counters of the adaptive transaction window (`None` for a
    /// static pipeline).
    pub fn pipeline_stats(&self) -> Option<PipelineStats> {
        self.adaptive.as_ref().map(|c| c.stats())
    }

    /// The client's process identifier.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The transactions committed so far, in commit order.
    pub fn completed(&self) -> &[TxnCompleted<S::Response>] {
        &self.completed
    }

    /// Whether the whole workload has been submitted and committed.
    pub fn is_done(&self) -> bool {
        self.workload.is_empty() && self.outstanding.is_empty()
    }

    /// Submits transactions until the pipeline window is full or the
    /// workload is exhausted.
    fn fill_pipeline(&mut self, ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>) {
        while self.outstanding.len() < self.pipeline {
            let Some(ops) = self.workload.pop_front() else {
                return;
            };
            self.submit_txn(ctx, ops);
        }
    }

    /// Routes one transaction's ops, fans the per-group prepares out (or
    /// takes the single-group fast path) and registers the quorum trackers.
    fn submit_txn(
        &mut self,
        ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
        ops: Vec<S::Command>,
    ) {
        assert!(!ops.is_empty(), "empty transaction");
        // Partition the ops by owning group, preserving op order per group.
        let mut parts: BTreeMap<GroupId, Vec<S::Command>> = BTreeMap::new();
        for op in ops {
            parts.entry(self.router.route(&op)).or_default().push(op);
        }
        let txn = TxnId::new(self.id, self.next_txn);
        self.next_txn += 1;
        // The fast path carries no envelope: its one request must be
        // indistinguishable on the wire from a plain sharded request.
        let envelope = (parts.len() > 1).then(|| TxnEnvelope {
            txn,
            participants: parts.keys().copied().collect(),
        });
        let mut outstanding = OutstandingTxn {
            index: self.next_index,
            sent_at: ctx.now(),
            envelope: envelope.clone(),
            pending: BTreeMap::new(),
            adopted: Vec::new(),
        };
        self.next_index += 1;
        for (group, group_ops) in parts {
            let command = if group_ops.len() == 1 {
                group_ops.into_iter().next().expect("one op")
            } else {
                S::Command::multi(group_ops)
            };
            let id = RequestId::new(self.id, self.next_seq);
            self.next_seq += 1;
            let route_epoch = self.router.route_epoch();
            let wire = CastWire {
                id,
                origin: self.id,
                payload: Request {
                    id,
                    client: self.id,
                    group,
                    txn: envelope.clone(),
                    reconfig: None,
                    route_epoch,
                    command: command.clone(),
                },
            };
            ctx.send_all(&self.groups[group.index()], OarWire::Request(wire));
            ctx.annotate_with(|| format!("OAR-multicast({id}, {group})"));
            self.request_txn.insert(id, txn);
            outstanding.pending.insert(
                id,
                PendingPart {
                    group,
                    quorum: QuorumTracker::new(),
                    command,
                    route_epoch,
                },
            );
        }
        self.outstanding.insert(txn, outstanding);
    }

    fn handle_reply_batch(
        &mut self,
        ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
        batch: ReplyBatch<S::Response>,
    ) {
        // Adapt the window before unpacking, so the refills triggered by the
        // commits below see the adjusted pipeline.
        if let Some(controller) = self.adaptive.as_mut() {
            self.pipeline = controller.observe_batch(batch.batch_hint);
        }
        for item in &batch.items {
            self.handle_reply(ctx, &batch, item);
        }
    }

    /// Feeds one reply into its part's quorum tracker (Fig. 5, with the
    /// owning group's majority); the transaction commits when the last
    /// participating group's quorum closes.
    fn handle_reply(
        &mut self,
        ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
        batch: &ReplyBatch<S::Response>,
        item: &ReplyItem<S::Response>,
    ) {
        let request = item.request;
        let Some(&txn) = self.request_txn.get(&request) else {
            return; // stale reply for an already-adopted part
        };
        let outstanding = self
            .outstanding
            .get_mut(&txn)
            .expect("request_txn entries outlive their transaction");
        let part = outstanding
            .pending
            .get_mut(&request)
            .expect("pending part matches request_txn");
        let threshold = majority(self.groups[part.group.index()].len());
        let Some((epoch, adopted)) = part.quorum.absorb(batch.reply(item), threshold) else {
            return;
        };
        let part = outstanding.pending.remove(&request).expect("checked above");
        self.request_txn.remove(&request);
        outstanding.adopted.push(TxnPart {
            group: part.group,
            request,
            epoch,
            position: adopted.position,
            adopted_weight: adopted.weight.len(),
            replies_seen: part.quorum.replies_seen(),
            response: adopted.response,
        });
        if !outstanding.pending.is_empty() {
            return; // other participating groups still short of quorum
        }
        let mut outstanding = self.outstanding.remove(&txn).expect("checked above");
        outstanding.adopted.sort_by_key(|p| p.group.index());
        ctx.annotate_with(|| format!("txn-commit({txn}, |groups|={})", outstanding.adopted.len()));
        self.completed.push(TxnCompleted {
            id: txn,
            index: outstanding.index,
            parts: outstanding.adopted,
            sent_at: outstanding.sent_at,
            completed_at: ctx.now(),
        });
        if self.workload.is_empty() {
            return;
        }
        if self.think_time.is_zero() {
            self.fill_pipeline(ctx);
        } else {
            ctx.set_timer(self.think_time, NEXT_TXN);
        }
    }

    /// Applies the migration records of a [`OarWire::Redirect`] and re-sends
    /// exactly the door-dropped prepares — never the other outstanding ones:
    /// a prepare the donor group already ordered travels to the recipient in
    /// the migrated hand-off, and re-sending it would apply the transaction's
    /// partition twice.
    ///
    /// The re-sent prepare keeps its original envelope (participant set) and
    /// re-routes wholesale by the partition command's shard key. A migration
    /// cannot split the partition: keys move between groups one record at a
    /// time, so the recipient of the partition's first key owns the prepare.
    fn handle_redirect(
        &mut self,
        ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
        records: Vec<MigrationRecord>,
        dropped: Vec<RequestId>,
    ) {
        for record in &records {
            self.router.apply_record(record);
        }
        let route_epoch = self.router.route_epoch();
        for id in dropped {
            let Some(&txn) = self.request_txn.get(&id) else {
                continue; // part already adopted (a racing member answered)
            };
            let outstanding = self
                .outstanding
                .get_mut(&txn)
                .expect("request_txn entries outlive their transaction");
            let part = outstanding
                .pending
                .get_mut(&id)
                .expect("pending part matches request_txn");
            if part.route_epoch >= route_epoch {
                continue; // already re-sent under the current boundary
            }
            let group = self.router.route(&part.command);
            if group != part.group {
                // Partial optimistic weight from the donor group must not be
                // mixed with the recipient's replies (epoch numbers are
                // per-group), so the tracker restarts from scratch.
                part.group = group;
                part.quorum = QuorumTracker::new();
            }
            part.route_epoch = route_epoch;
            let wire = CastWire {
                id,
                origin: self.id,
                payload: Request {
                    id,
                    client: self.id,
                    group,
                    txn: outstanding.envelope.clone(),
                    reconfig: None,
                    route_epoch,
                    command: part.command.clone(),
                },
            };
            ctx.send_all(&self.groups[group.index()], OarWire::Request(wire));
            ctx.annotate_with(|| format!("OAR-redirect({id}, {group})"));
        }
    }
}

impl<S: StateMachine> Process<OarWire<S::Command, S::Response>> for TxnClient<S>
where
    S::Command: MultiOp,
{
    fn on_start(&mut self, ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>) {
        if self.start_delay.is_zero() {
            self.fill_pipeline(ctx);
        } else {
            ctx.set_timer(self.start_delay, NEXT_TXN);
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
        _from: ProcessId,
        msg: OarWire<S::Command, S::Response>,
    ) {
        match msg {
            OarWire::Replies(batch) => self.handle_reply_batch(ctx, batch),
            OarWire::Redirect { records, dropped } => self.handle_redirect(ctx, records, dropped),
            // Clients ignore every other message kind.
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>, timer: Timer) {
        if timer.tag == NEXT_TXN && self.outstanding.len() < self.pipeline {
            self.fill_pipeline(ctx);
        }
    }

    fn name(&self) -> String {
        format!("txn-client-{}", self.id.index())
    }
}

/// A sharded OAR deployment driven by transactional clients: the same
/// per-group server layout as [`crate::sharded::ShardedCluster`], with
/// [`TxnClient`]s submitting multi-key transactions.
pub struct TxnCluster<S: StateMachine> {
    /// The simulation world. Exposed so experiments can inject crashes,
    /// partitions, and additional (plain) client processes.
    pub world: World<OarWire<S::Command, S::Response>>,
    /// Server identifiers per group, indexed by [`GroupId`].
    pub groups: Vec<Vec<ProcessId>>,
    /// Identifiers of the transactional client processes.
    pub clients: Vec<ProcessId>,
    /// The router shared by all clients.
    pub router: ShardRouter,
}

impl<S: StateMachine> TxnCluster<S>
where
    S::Command: MultiOp,
{
    /// Builds a transactional cluster from the same configuration type as
    /// the sharded deployment; `config.client_pipeline` is the per-client
    /// window of outstanding *transactions*. `workload_for(client_index)` is
    /// each client's transaction list (each transaction a non-empty op
    /// list).
    ///
    /// # Panics
    ///
    /// Panics if the router's group count differs from `config.num_groups`.
    pub fn build(
        config: &ShardedConfig,
        mut make_sm: impl FnMut() -> S,
        mut workload_for: impl FnMut(usize) -> Vec<Vec<S::Command>>,
    ) -> Self {
        assert_eq!(
            config.router.num_groups(),
            config.num_groups,
            "router and config disagree on the group count"
        );
        let mut world: World<OarWire<S::Command, S::Response>> =
            World::new(config.net.clone(), config.seed);
        let groups = build_group_servers(&mut world, config, &mut make_sm);
        let first_client = config.num_groups * config.servers_per_group;
        let mut clients = Vec::with_capacity(config.num_clients);
        for c in 0..config.num_clients {
            let mut builder = ClientConfig::builder()
                .think_time(config.think_time)
                .start_delay(SimDuration::from_micros(10 * c as u64));
            builder = if config.adaptive_pipeline {
                builder.adaptive_pipeline(config.client_pipeline)
            } else {
                builder.pipeline(config.client_pipeline)
            };
            let client: TxnClient<S> = TxnClient::new(
                ProcessId::new(first_client + c),
                groups.clone(),
                config.router.clone(),
                workload_for(c),
                builder.build(),
            );
            clients.push(world.add_process(client));
        }
        TxnCluster {
            world,
            groups,
            clients,
            router: config.router.clone(),
        }
    }

    /// Runs the simulation until every client committed its workload or the
    /// horizon is reached. Returns `true` if all clients finished.
    pub fn run_to_completion(&mut self, horizon: SimTime) -> bool {
        let slice = SimDuration::from_millis(50);
        let mut next = self.world.now() + slice;
        loop {
            self.world.run_until(next);
            if self.all_clients_done() {
                return true;
            }
            if self.world.now() >= horizon {
                return self.all_clients_done();
            }
            next = self.world.now() + slice;
        }
    }

    /// Whether every client committed its whole workload.
    pub fn all_clients_done(&self) -> bool {
        self.clients
            .iter()
            .all(|&c| self.world.process_ref::<TxnClient<S>>(c).is_done())
    }

    /// Read access to client `i`.
    pub fn client(&self, i: usize) -> &TxnClient<S> {
        self.world.process_ref::<TxnClient<S>>(self.clients[i])
    }

    /// All committed transactions of all clients.
    pub fn completed_txns(&self) -> Vec<&TxnCompleted<S::Response>> {
        self.clients
            .iter()
            .flat_map(|&c| self.world.process_ref::<TxnClient<S>>(c).completed().iter())
            .collect()
    }

    /// Committed transactions that spanned more than one group.
    pub fn multi_group_commits(&self) -> usize {
        self.completed_txns()
            .iter()
            .filter(|t| t.is_multi_group())
            .count()
    }

    /// Client-observed commit latencies (milliseconds) of all transactions.
    pub fn latencies(&self) -> Samples {
        let mut samples = Samples::new();
        for t in self.completed_txns() {
            samples.record_duration(t.latency());
        }
        samples
    }

    /// Simulated time of the last commit (zero if nothing committed).
    pub fn last_completion(&self) -> SimTime {
        self.completed_txns()
            .iter()
            .map(|t| t.completed_at)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Sums `f` over the server stats of group `g` (crashed servers
    /// included — their counters froze at crash time).
    pub fn sum_group_stats(&self, g: usize, f: impl Fn(&ServerStats) -> u64) -> u64 {
        self.groups[g]
            .iter()
            .map(|&s| f(&self.world.process_ref::<OarServer<S>>(s).stats()))
            .sum()
    }

    /// Sums `f` over the server stats of every group.
    pub fn sum_stats(&self, f: impl Fn(&ServerStats) -> u64 + Copy) -> u64 {
        (0..self.groups.len())
            .map(|g| self.sum_group_stats(g, f))
            .sum()
    }

    /// The per-group safety propositions (total order, at-most-once, digest
    /// agreement) plus cross-group isolation — identical to
    /// [`crate::sharded::ShardedCluster::check_per_group_consistency`].
    pub fn check_per_group_consistency(&self) -> Result<(), String> {
        check_groups_consistency::<S>(&self.world, &self.groups)
    }

    /// Atomicity of committed transactions: every per-group prepare of every
    /// committed transaction is settled in its owning group's delivery
    /// order — no group applies a committed transaction's writes while
    /// another participating group drops them.
    pub fn check_txn_atomicity(&self) -> Result<(), String> {
        for (c_idx, &c) in self.clients.iter().enumerate() {
            let client = self.world.process_ref::<TxnClient<S>>(c);
            for txn in client.completed() {
                for part in &txn.parts {
                    let servers = alive_servers::<S>(&self.world, &self.groups[part.group.index()]);
                    if !servers.iter().any(|s| s.has_delivered(&part.request)) {
                        return Err(format!(
                            "atomicity violated: client {c_idx} committed {} but group {} \
                             has no trace of its prepare {}",
                            txn.id, part.group, part.request
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// External consistency per part (Proposition 7 lifted to transactions):
    /// every adopted per-group position matches, at every alive server of
    /// the owning group that retains the prepare, the position at which that
    /// server processed it.
    pub fn check_external_consistency(&self) -> Result<(), String> {
        let adopted = self.clients.iter().flat_map(|&c| {
            let client = self.world.process_ref::<TxnClient<S>>(c);
            client
                .completed()
                .iter()
                .flat_map(|txn| &txn.parts)
                .map(|part| (part.group, part.request, part.position))
        });
        check_adopted_positions::<S>(&self.world, &self.groups, adopted)
    }

    /// Runs every transactional check: per-group propositions, cross-group
    /// atomicity, and per-part external consistency.
    pub fn check_all(&self) -> Result<(), String> {
        self.check_per_group_consistency()?;
        self.check_txn_atomicity()?;
        self.check_external_consistency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::ShardedCluster;
    use oar_simnet::NetConfig;

    /// A keyed counter store whose command type supports atomic multi-op
    /// batches — the minimal transactional state machine.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    struct TxnCounters {
        counts: BTreeMap<String, i64>,
    }

    #[derive(Clone, Debug, PartialEq, Eq)]
    enum Op {
        Add { key: String, delta: i64 },
        Multi(Vec<Op>),
    }

    fn add(key: &str, delta: i64) -> Op {
        Op::Add {
            key: key.into(),
            delta,
        }
    }

    impl ShardKey for Op {
        fn shard_key(&self) -> &str {
            match self {
                Op::Add { key, .. } => key,
                Op::Multi(ops) => ops.first().expect("non-empty multi").shard_key(),
            }
        }
    }

    impl MultiOp for Op {
        fn multi(ops: Vec<Self>) -> Self {
            Op::Multi(ops)
        }
    }

    impl StateMachine for TxnCounters {
        type Command = Op;
        type Response = Vec<i64>;
        type Undo = Vec<(String, Option<i64>)>;

        fn apply(&mut self, command: &Op) -> (Vec<i64>, Vec<(String, Option<i64>)>) {
            let mut responses = Vec::new();
            let mut undo = Vec::new();
            let mut stack = vec![command];
            // Flatten nested multis in order (the layer never nests, but the
            // state machine should not care).
            let mut flat = Vec::new();
            while let Some(op) = stack.pop() {
                match op {
                    Op::Multi(ops) => stack.extend(ops.iter().rev()),
                    Op::Add { .. } => flat.push(op),
                }
            }
            flat.reverse();
            for op in flat {
                if let Op::Add { key, delta } = op {
                    undo.push((key.clone(), self.counts.get(key).copied()));
                    let entry = self.counts.entry(key.clone()).or_insert(0);
                    *entry += delta;
                    responses.push(*entry);
                }
            }
            undo.reverse(); // restore in reverse op order
            (responses, undo)
        }

        fn undo(&mut self, token: Vec<(String, Option<i64>)>) {
            for (key, previous) in token {
                match previous {
                    Some(v) => {
                        self.counts.insert(key, v);
                    }
                    None => {
                        self.counts.remove(&key);
                    }
                }
            }
        }

        fn digest(&self) -> u64 {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for (k, v) in &self.counts {
                for b in k.bytes().chain(v.to_le_bytes()) {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x0000_0100_0000_01B3);
                }
            }
            h
        }
    }

    fn config(num_groups: usize, seed: u64) -> ShardedConfig {
        ShardedConfig {
            num_groups,
            servers_per_group: 3,
            num_clients: 2,
            router: ShardRouter::hash(num_groups),
            net: NetConfig::lan(),
            oar: crate::OarConfig::default(),
            seed,
            think_time: SimDuration::ZERO,
            client_pipeline: 1,
            adaptive_pipeline: false,
        }
    }

    /// Transactions spanning several keys (and thus, under the hash router,
    /// several groups with high probability).
    fn txn_workload(client: usize, n: usize) -> Vec<Vec<Op>> {
        (0..n)
            .map(|i| {
                let a = format!("k{}", (client * 5 + i) % 12);
                let b = format!("k{}", (client * 5 + i + 6) % 12);
                vec![add(&a, 1), add(&b, -1)]
            })
            .collect()
    }

    #[test]
    fn multi_group_txns_commit_with_all_checks_green() {
        let config = config(3, 17);
        let mut cluster: TxnCluster<TxnCounters> =
            TxnCluster::build(&config, TxnCounters::default, |c| txn_workload(c, 10));
        assert!(cluster.run_to_completion(SimTime::from_secs(30)));
        assert_eq!(cluster.completed_txns().len(), 20);
        cluster.check_all().unwrap();
        assert_eq!(cluster.sum_stats(|s| s.misrouted), 0);
        // The 12-key pool spans groups: some transactions must have paid the
        // multi-group commit, and their prepares carried envelopes.
        assert!(cluster.multi_group_commits() > 0);
        assert!(cluster.sum_stats(|s| s.txn_prepares) > 0);
        // Every committed part reports a plausible weight: 2 (optimistic) in
        // this failure-free run.
        for txn in cluster.completed_txns() {
            for part in &txn.parts {
                assert_eq!(part.adopted_weight, 2, "failure-free => optimistic");
            }
        }
    }

    #[test]
    fn single_group_fast_path_is_wire_identical_to_sharded_client() {
        // Same ops, one key per transaction => every transaction is
        // single-group. The transactional run must produce exactly the wire
        // traffic of the plain sharded client submitting the same commands.
        let ops_of = |c: usize, n: usize| -> Vec<Op> {
            (0..n)
                .map(|i| add(&format!("k{}", (c + i) % 8), 1))
                .collect()
        };
        let n = 12;
        let config = config(2, 23);
        let mut txn_cluster: TxnCluster<TxnCounters> =
            TxnCluster::build(&config, TxnCounters::default, |c| {
                ops_of(c, n).into_iter().map(|op| vec![op]).collect()
            });
        assert!(txn_cluster.run_to_completion(SimTime::from_secs(30)));
        txn_cluster.check_all().unwrap();
        let mut plain_cluster: ShardedCluster<TxnCounters> =
            ShardedCluster::build(&config, TxnCounters::default, |c| ops_of(c, n));
        assert!(plain_cluster.run_to_completion(SimTime::from_secs(30)));
        assert_eq!(
            txn_cluster.world.stats().sent,
            plain_cluster.world.stats().sent,
            "single-group transactions must add zero wires"
        );
        assert_eq!(
            txn_cluster.sum_stats(|s| s.txn_prepares),
            0,
            "no envelopes on the fast path"
        );
        assert_eq!(txn_cluster.completed_txns().len(), 2 * n);
    }

    #[test]
    fn commit_survives_a_participating_groups_sequencer_crash() {
        let config = ShardedConfig {
            oar: crate::OarConfig::with_fd_timeout(SimDuration::from_millis(25)),
            ..config(3, 31)
        };
        let mut cluster: TxnCluster<TxnCounters> =
            TxnCluster::build(&config, TxnCounters::default, |c| txn_workload(c, 8));
        // Crash group 1's epoch-0 sequencer early: transactions with a part
        // in group 1 must still commit, through the conservative phase.
        let victim = cluster.groups[1][0];
        cluster
            .world
            .schedule_crash(victim, SimTime::from_millis(3));
        assert!(
            cluster.run_to_completion(SimTime::from_secs(60)),
            "all transactions must commit despite the crash"
        );
        cluster.check_all().unwrap();
        assert!(cluster.sum_group_stats(1, |st| st.phase2_entered) > 0);
    }

    #[test]
    #[should_panic(expected = "empty transaction")]
    fn empty_transactions_are_rejected() {
        let config = config(2, 1);
        let mut cluster: TxnCluster<TxnCounters> =
            TxnCluster::build(&config, TxnCounters::default, |_| vec![vec![]]);
        cluster.run_to_completion(SimTime::from_secs(1));
    }
}
