//! Atomic Broadcast by reduction to consensus (Chandra–Toueg style), used as
//! the *conservative* baseline: always safe, never optimistic, and therefore
//! paying the full consensus latency on every batch even in failure-free runs.
//!
//! Protocol sketch (the classic `AB ≤ consensus` reduction of \[CT96\]): clients
//! send their request to every replica; replicas accumulate undelivered
//! requests and run a sequence of consensus instances, each deciding the next
//! batch of requests to deliver; the batch is delivered in a deterministic
//! order and every replica replies; the client adopts the first reply (all
//! replies are identical because delivery is uniform total order).

use std::collections::{BTreeSet, HashMap, HashSet};

use oar::state_machine::StateMachine;
use oar::RequestId;
use oar_channels::MsgId;
use oar_consensus::{ConsensusConfig, ConsensusSend, ConsensusWire, Decision, MajConsensus};
use oar_fd::{FdConfig, FdWire, HeartbeatFd};
use oar_sequence::{dedup_append, Seq};
use oar_simnet::{Process, ProcessId, Runtime, SimDuration, SimTime, Timer, TimerTag};

/// Timer tag for the periodic maintenance tick.
const TICK: TimerTag = TimerTag::Tick;
/// Timer tag for the client think-time delay.
const NEXT_REQUEST: TimerTag = TimerTag::NextRequest;

/// A client request.
#[derive(Clone, Debug, PartialEq)]
pub struct CtRequest<C> {
    /// Unique identifier.
    pub id: RequestId,
    /// Issuing client.
    pub client: ProcessId,
    /// Command for the replicated service.
    pub command: C,
}

/// A server reply.
#[derive(Clone, Debug, PartialEq)]
pub struct CtReply<R> {
    /// The request answered.
    pub request: RequestId,
    /// Delivery position.
    pub position: u64,
    /// Application response.
    pub response: R,
    /// Replying server.
    pub from: ProcessId,
}

/// Wire messages of the consensus-based atomic broadcast.
#[derive(Clone, Debug, PartialEq)]
pub enum CtWire<C, R> {
    /// Client request, sent to every replica.
    Request(CtRequest<C>),
    /// Server reply.
    Reply(CtReply<R>),
    /// Consensus message for batch `instance`.
    Consensus(ConsensusWire<Seq<RequestId>>),
    /// Failure-detector heartbeat.
    Fd(FdWire),
}

/// A consensus wire message buffered for a future instance.
type BufferedWire = (ProcessId, ConsensusWire<Seq<RequestId>>);

/// One replica of the consensus-based atomic broadcast.
#[derive(Debug)]
pub struct CtServer<S: StateMachine> {
    id: ProcessId,
    group: Vec<ProcessId>,
    fd: HeartbeatFd,
    tick: SimDuration,
    consensus_config: ConsensusConfig,
    payloads: HashMap<RequestId, CtRequest<S::Command>>,
    pending: Vec<RequestId>,
    delivered: HashSet<RequestId>,
    delivery_order: Vec<RequestId>,
    position: u64,
    batch: u64,
    consensus: Option<MajConsensus<Seq<RequestId>>>,
    buffered: HashMap<u64, Vec<BufferedWire>>,
    pending_decision: Option<Decision<Seq<RequestId>>>,
    sm: S,
}

impl<S: StateMachine> CtServer<S> {
    /// Creates a replica.
    pub fn new(
        id: ProcessId,
        group: Vec<ProcessId>,
        fd: FdConfig,
        tick: SimDuration,
        sm: S,
    ) -> Self {
        CtServer {
            id,
            fd: HeartbeatFd::new(id, group.clone(), fd),
            group,
            tick,
            consensus_config: ConsensusConfig::default(),
            payloads: HashMap::new(),
            pending: Vec::new(),
            delivered: HashSet::new(),
            delivery_order: Vec::new(),
            position: 0,
            batch: 0,
            consensus: None,
            buffered: HashMap::new(),
            pending_decision: None,
            sm,
        }
    }

    /// The replica's delivery order so far.
    pub fn delivery_order(&self) -> &[RequestId] {
        &self.delivery_order
    }

    /// The replicated state machine.
    pub fn state_machine(&self) -> &S {
        &self.sm
    }

    /// Number of consensus batches completed.
    pub fn batches_completed(&self) -> u64 {
        self.batch
    }

    fn undelivered(&self) -> Seq<RequestId> {
        self.pending
            .iter()
            .filter(|id| !self.delivered.contains(id))
            .copied()
            .collect()
    }

    fn maybe_start_batch(&mut self, ctx: &mut dyn Runtime<CtWire<S::Command, S::Response>>) {
        if self.consensus.is_some() {
            return;
        }
        let proposal = self.undelivered();
        let has_buffered = self.buffered.contains_key(&self.batch);
        if proposal.is_empty() && !has_buffered {
            return;
        }
        let first_coordinator = self.group[(self.batch as usize) % self.group.len()];
        let mut consensus = MajConsensus::new(
            self.batch,
            self.id,
            self.group.clone(),
            first_coordinator,
            self.consensus_config,
        );
        let output = consensus.propose(proposal);
        self.consensus = Some(consensus);
        self.dispatch(ctx, output.messages, output.decision);
        let buffered = self.buffered.remove(&self.batch).unwrap_or_default();
        for (from, wire) in buffered {
            self.feed(ctx, from, wire);
        }
        self.push_suspects(ctx);
    }

    fn push_suspects(&mut self, ctx: &mut dyn Runtime<CtWire<S::Command, S::Response>>) {
        if let Some(consensus) = self.consensus.as_mut() {
            let suspects: BTreeSet<ProcessId> = self.fd.suspects().clone();
            let output = consensus.update_suspects(&suspects);
            self.dispatch(ctx, output.messages, output.decision);
        }
    }

    fn feed(
        &mut self,
        ctx: &mut dyn Runtime<CtWire<S::Command, S::Response>>,
        from: ProcessId,
        wire: ConsensusWire<Seq<RequestId>>,
    ) {
        if let Some(consensus) = self.consensus.as_mut() {
            let output = consensus.on_wire(from, wire);
            self.dispatch(ctx, output.messages, output.decision);
        }
    }

    fn dispatch(
        &mut self,
        ctx: &mut dyn Runtime<CtWire<S::Command, S::Response>>,
        messages: Vec<ConsensusSend<Seq<RequestId>>>,
        decision: Option<Decision<Seq<RequestId>>>,
    ) {
        for send in messages {
            if let [to] = send.targets[..] {
                ctx.send(to, CtWire::Consensus(send.wire));
            } else {
                // Group-wide wire: one shared allocation for all recipients.
                ctx.send_all(&send.targets, CtWire::Consensus(send.wire));
            }
        }
        if let Some(decision) = decision {
            self.pending_decision = Some(decision);
            self.try_apply_decision(ctx);
        }
    }

    fn try_apply_decision(&mut self, ctx: &mut dyn Runtime<CtWire<S::Command, S::Response>>) {
        let Some(decision) = self.pending_decision.clone() else {
            return;
        };
        let all_known = decision
            .iter()
            .flat_map(|(_, seq)| seq.iter())
            .all(|id| self.payloads.contains_key(id));
        if !all_known {
            return;
        }
        self.pending_decision = None;
        // Deterministic merge of the decided proposals, in decision order.
        let merged = dedup_append(decision.into_iter().map(|(_, seq)| seq));
        for id in merged.iter() {
            if self.delivered.contains(id) {
                continue;
            }
            let request = self.payloads.get(id).expect("payload present").clone();
            self.delivered.insert(*id);
            self.delivery_order.push(*id);
            self.position += 1;
            let (response, _undo) = self.sm.apply(&request.command);
            ctx.annotate_with(|| format!("A-deliver({id}) @{}", self.position));
            ctx.send(
                request.client,
                CtWire::Reply(CtReply {
                    request: *id,
                    position: self.position,
                    response,
                    from: self.id,
                }),
            );
        }
        self.batch += 1;
        self.consensus = None;
        // Immediately start the next batch if there is a backlog.
        self.maybe_start_batch(ctx);
    }
}

impl<S: StateMachine> Process<CtWire<S::Command, S::Response>> for CtServer<S> {
    fn on_start(&mut self, ctx: &mut dyn Runtime<CtWire<S::Command, S::Response>>) {
        ctx.set_timer(self.tick, TICK);
    }

    fn on_message(
        &mut self,
        ctx: &mut dyn Runtime<CtWire<S::Command, S::Response>>,
        from: ProcessId,
        msg: CtWire<S::Command, S::Response>,
    ) {
        if self.group.contains(&from) && from != self.id {
            self.fd.observe_traffic(from, ctx.now());
        }
        match msg {
            CtWire::Request(request) => {
                let id = request.id;
                if self.payloads.contains_key(&id) {
                    return;
                }
                self.payloads.insert(id, request);
                self.pending.push(id);
                self.try_apply_decision(ctx);
                self.maybe_start_batch(ctx);
            }
            CtWire::Consensus(wire) => {
                let instance = wire.instance();
                if instance < self.batch {
                    return;
                }
                if instance > self.batch || self.consensus.is_none() {
                    self.buffered
                        .entry(instance)
                        .or_default()
                        .push((from, wire));
                    // A peer started a batch we have not: join it even if we
                    // have nothing to propose.
                    if instance == self.batch {
                        self.maybe_start_batch(ctx);
                    }
                    return;
                }
                self.feed(ctx, from, wire);
            }
            CtWire::Fd(wire) => {
                self.fd.on_wire(from, wire, ctx.now());
                self.push_suspects(ctx);
            }
            CtWire::Reply(_) => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Runtime<CtWire<S::Command, S::Response>>, timer: Timer) {
        if timer.tag != TICK {
            return;
        }
        let (heartbeats, _events) = self.fd.on_tick(ctx.now());
        for hb in heartbeats {
            ctx.send(hb.to, CtWire::Fd(hb.wire));
        }
        self.push_suspects(ctx);
        self.maybe_start_batch(ctx);
        self.try_apply_decision(ctx);
        ctx.set_timer(self.tick, TICK);
    }

    fn name(&self) -> String {
        format!("ct-server-{}", self.id.index())
    }
}

/// A completed request at the CT-broadcast client.
#[derive(Clone, Debug, PartialEq)]
pub struct CtCompleted<R> {
    /// Request id.
    pub id: RequestId,
    /// Adopted (first) response.
    pub response: R,
    /// Delivery position reported by the reply.
    pub position: u64,
    /// When the request was sent.
    pub sent_at: SimTime,
    /// When the first reply arrived.
    pub completed_at: SimTime,
}

impl<R> CtCompleted<R> {
    /// Client-observed latency.
    pub fn latency(&self) -> SimDuration {
        self.completed_at.duration_since(self.sent_at)
    }
}

/// A closed-loop client of the consensus-based atomic broadcast.
#[derive(Debug)]
pub struct CtClient<S: StateMachine> {
    id: ProcessId,
    servers: Vec<ProcessId>,
    workload: Vec<S::Command>,
    next_index: usize,
    next_seq: u64,
    think_time: SimDuration,
    outstanding: Option<RequestId>,
    sent_at: SimTime,
    completed: Vec<CtCompleted<S::Response>>,
}

impl<S: StateMachine> CtClient<S> {
    /// Creates the client.
    pub fn new(
        id: ProcessId,
        servers: Vec<ProcessId>,
        workload: Vec<S::Command>,
        think_time: SimDuration,
    ) -> Self {
        CtClient {
            id,
            servers,
            workload,
            next_index: 0,
            next_seq: 0,
            think_time,
            outstanding: None,
            sent_at: SimTime::ZERO,
            completed: Vec::new(),
        }
    }

    /// Completed requests, in completion order.
    pub fn completed(&self) -> &[CtCompleted<S::Response>] {
        &self.completed
    }

    /// Whether the workload is fully submitted and answered.
    pub fn is_done(&self) -> bool {
        self.next_index >= self.workload.len() && self.outstanding.is_none()
    }

    fn send_next(&mut self, ctx: &mut dyn Runtime<CtWire<S::Command, S::Response>>) {
        if self.next_index >= self.workload.len() {
            return;
        }
        let command = self.workload[self.next_index].clone();
        self.next_index += 1;
        let id = MsgId::new(self.id, self.next_seq);
        self.next_seq += 1;
        for &s in &self.servers {
            ctx.send(
                s,
                CtWire::Request(CtRequest {
                    id,
                    client: self.id,
                    command: command.clone(),
                }),
            );
        }
        self.outstanding = Some(id);
        self.sent_at = ctx.now();
    }
}

impl<S: StateMachine> Process<CtWire<S::Command, S::Response>> for CtClient<S> {
    fn on_start(&mut self, ctx: &mut dyn Runtime<CtWire<S::Command, S::Response>>) {
        self.send_next(ctx);
    }

    fn on_message(
        &mut self,
        ctx: &mut dyn Runtime<CtWire<S::Command, S::Response>>,
        _from: ProcessId,
        msg: CtWire<S::Command, S::Response>,
    ) {
        let CtWire::Reply(reply) = msg else { return };
        if Some(reply.request) != self.outstanding {
            return;
        }
        self.outstanding = None;
        self.completed.push(CtCompleted {
            id: reply.request,
            response: reply.response,
            position: reply.position,
            sent_at: self.sent_at,
            completed_at: ctx.now(),
        });
        if self.next_index < self.workload.len() {
            if self.think_time.is_zero() {
                self.send_next(ctx);
            } else {
                ctx.set_timer(self.think_time, NEXT_REQUEST);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Runtime<CtWire<S::Command, S::Response>>, timer: Timer) {
        if timer.tag == NEXT_REQUEST && self.outstanding.is_none() {
            self.send_next(ctx);
        }
    }

    fn name(&self) -> String {
        format!("ct-client-{}", self.id.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oar::state_machine::{CounterCommand, CounterMachine};
    use oar_simnet::{NetConfig, World};

    type Wire = CtWire<CounterCommand, i64>;

    fn build(n: usize, requests: usize, seed: u64) -> (World<Wire>, Vec<ProcessId>, ProcessId) {
        let mut world: World<Wire> = World::new(NetConfig::lan(), seed);
        let group: Vec<ProcessId> = (0..n).map(ProcessId::new).collect();
        for &id in &group {
            world.add_process(CtServer::new(
                id,
                group.clone(),
                FdConfig::default(),
                SimDuration::from_millis(1),
                CounterMachine::default(),
            ));
        }
        let workload: Vec<CounterCommand> = (0..requests)
            .map(|i| CounterCommand::Add(i as i64 + 1))
            .collect();
        let client = world.add_process(CtClient::<CounterMachine>::new(
            ProcessId::new(n),
            group.clone(),
            workload,
            SimDuration::ZERO,
        ));
        (world, group, client)
    }

    #[test]
    fn failure_free_run_delivers_in_total_order() {
        let (mut world, group, client) = build(3, 6, 1);
        world.run_until_quiescent(SimTime::from_secs(10));
        let c = world.process_ref::<CtClient<CounterMachine>>(client);
        assert!(c.is_done(), "client did not finish");
        assert_eq!(c.completed().len(), 6);
        let orders: Vec<Vec<RequestId>> = group
            .iter()
            .map(|&s| {
                world
                    .process_ref::<CtServer<CounterMachine>>(s)
                    .delivery_order()
                    .to_vec()
            })
            .collect();
        assert_eq!(orders[0], orders[1]);
        assert_eq!(orders[1], orders[2]);
        // Responses are totally ordered and final: positions are 1..=6.
        let positions: Vec<u64> = c.completed().iter().map(|r| r.position).collect();
        assert_eq!(positions, (1..=6).collect::<Vec<_>>());
    }

    #[test]
    fn replica_crash_is_tolerated() {
        let (mut world, group, client) = build(3, 5, 2);
        world.schedule_crash(group[2], SimTime::from_millis(1));
        world.run_until_quiescent(SimTime::from_secs(20));
        let c = world.process_ref::<CtClient<CounterMachine>>(client);
        assert!(c.is_done(), "client did not finish after replica crash");
    }

    #[test]
    fn latency_exceeds_fixed_sequencer_shape() {
        // The consensus path needs strictly more communication steps than the
        // sequencer path: with a constant-latency network the first reply
        // cannot arrive before 4 one-way delays (request, estimate, propose,
        // ack+decide, reply collapse partially because the coordinator is also
        // a replica).
        let mut world: World<Wire> =
            World::new(NetConfig::constant(SimDuration::from_millis(1)), 3);
        let group: Vec<ProcessId> = (0..3).map(ProcessId::new).collect();
        for &id in &group {
            world.add_process(CtServer::new(
                id,
                group.clone(),
                FdConfig::default(),
                SimDuration::from_millis(1),
                CounterMachine::default(),
            ));
        }
        let client = world.add_process(CtClient::<CounterMachine>::new(
            ProcessId::new(3),
            group.clone(),
            vec![CounterCommand::Add(1)],
            SimDuration::ZERO,
        ));
        world.run_until_quiescent(SimTime::from_secs(5));
        let c = world.process_ref::<CtClient<CounterMachine>>(client);
        assert!(c.is_done());
        assert!(c.completed()[0].latency() >= SimDuration::from_millis(3));
    }
}
