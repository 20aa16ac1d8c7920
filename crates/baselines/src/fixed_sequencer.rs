//! The Isis/Amoeba-style fixed-sequencer Atomic Broadcast baseline (§2.4 of
//! the paper) used for active replication.
//!
//! Protocol: the client sends its request to every replica; the sequencer
//! assigns sequence numbers and broadcasts them; every replica delivers in
//! sequence-number order and replies; the client adopts the **first** reply it
//! receives. On suspicion of the sequencer, the next replica in the ring takes
//! over and (re-)orders any request it has not seen ordered.
//!
//! This is the low-latency baseline the OAR paper builds on — and the protocol
//! whose failure mode OAR fixes: when the sequencer crashes (or is wrongly
//! suspected) after replying but before its ordering reaches the other
//! replicas, the new sequencer may choose a different order, silently
//! invalidating replies that clients already adopted (Figure 1b). The protocol
//! has **no repair mechanism**: replicas that delivered in the old order keep
//! their state and simply skip re-ordered duplicates, so replicas can also stay
//! permanently inconsistent. The `InconsistencyReport` of the cluster harness
//! (see [`crate::harness`]) makes both effects measurable.

use std::collections::{HashMap, HashSet};

use oar::state_machine::StateMachine;
use oar::RequestId;
use oar_channels::MsgId;
use oar_fd::{FdConfig, FdEvent, FdWire, HeartbeatFd};
use oar_sequence::Seq;
use oar_simnet::{Process, ProcessId, Runtime, SimDuration, SimTime, Timer, TimerTag};

/// Timer tag for the periodic maintenance tick.
const TICK: TimerTag = TimerTag::Tick;
/// Timer tag for the client think-time delay.
const NEXT_REQUEST: TimerTag = TimerTag::NextRequest;

/// A client request.
#[derive(Clone, Debug, PartialEq)]
pub struct SeqRequest<C> {
    /// Unique identifier.
    pub id: RequestId,
    /// Issuing client.
    pub client: ProcessId,
    /// Command for the replicated service.
    pub command: C,
}

/// A server reply.
#[derive(Clone, Debug, PartialEq)]
pub struct SeqReply<R> {
    /// The request answered.
    pub request: RequestId,
    /// Position at which the replying server delivered it.
    pub position: u64,
    /// Application response.
    pub response: R,
    /// Replying server.
    pub from: ProcessId,
}

/// Wire messages of the fixed-sequencer protocol.
#[derive(Clone, Debug, PartialEq)]
pub enum SeqWire<C, R> {
    /// Client request (sent to every replica).
    Request(SeqRequest<C>),
    /// Sequencer ordering: the requests to deliver next, in order.
    Order {
        /// Ordering sequence number of the batch (per sequencer reign).
        view: u64,
        /// The ordered requests.
        order: Seq<RequestId>,
    },
    /// Server reply to the client.
    Reply(SeqReply<R>),
    /// Failure-detector heartbeat.
    Fd(FdWire),
}

/// One server replica of the fixed-sequencer baseline.
#[derive(Debug)]
pub struct SequencerServer<S: StateMachine> {
    id: ProcessId,
    group: Vec<ProcessId>,
    fd: HeartbeatFd,
    tick: SimDuration,
    /// Requests received but not yet delivered, in reception order.
    pending: Vec<RequestId>,
    payloads: HashMap<RequestId, SeqRequest<S::Command>>,
    delivered: HashSet<RequestId>,
    delivery_order: Vec<RequestId>,
    /// Requests ordered (by the sequencer) but whose payload has not arrived
    /// yet; they are delivered as soon as the payload shows up, preserving the
    /// ordering.
    order_queue: Vec<RequestId>,
    /// Requests this server ordered while acting as sequencer.
    ordered_by_me: HashSet<RequestId>,
    position: u64,
    sm: S,
    view: u64,
}

impl<S: StateMachine> SequencerServer<S> {
    /// Creates a replica.
    pub fn new(
        id: ProcessId,
        group: Vec<ProcessId>,
        fd: FdConfig,
        tick: SimDuration,
        sm: S,
    ) -> Self {
        SequencerServer {
            id,
            fd: HeartbeatFd::new(id, group.clone(), fd),
            group,
            tick,
            pending: Vec::new(),
            payloads: HashMap::new(),
            delivered: HashSet::new(),
            delivery_order: Vec::new(),
            order_queue: Vec::new(),
            ordered_by_me: HashSet::new(),
            position: 0,
            sm,
            view: 0,
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

    /// The current sequencer from this replica's point of view: the first
    /// group member it does not suspect.
    pub fn current_sequencer(&self) -> ProcessId {
        self.group
            .iter()
            .copied()
            .find(|p| !self.fd.is_suspected(*p))
            .unwrap_or(self.id)
    }

    fn is_sequencer(&self) -> bool {
        self.current_sequencer() == self.id
    }

    /// Queues `ids` for delivery in order, then delivers every queued request
    /// whose payload is available (stopping at the first gap so the order is
    /// preserved).
    fn enqueue_and_drain(
        &mut self,
        ctx: &mut dyn Runtime<SeqWire<S::Command, S::Response>>,
        ids: &[RequestId],
    ) {
        for id in ids {
            if !self.delivered.contains(id) && !self.order_queue.contains(id) {
                self.order_queue.push(*id);
            }
        }
        while let Some(&next) = self.order_queue.first() {
            if self.delivered.contains(&next) {
                self.order_queue.remove(0);
                continue;
            }
            if !self.payloads.contains_key(&next) {
                break;
            }
            self.order_queue.remove(0);
            self.deliver(ctx, next);
        }
    }

    fn deliver(&mut self, ctx: &mut dyn Runtime<SeqWire<S::Command, S::Response>>, id: RequestId) {
        if self.delivered.contains(&id) {
            return;
        }
        let Some(request) = self.payloads.get(&id).cloned() else {
            return;
        };
        self.delivered.insert(id);
        self.delivery_order.push(id);
        self.position += 1;
        let (response, _undo) = self.sm.apply(&request.command);
        ctx.annotate_with(|| format!("deliver({id}) @{}", self.position));
        ctx.send(
            request.client,
            SeqWire::Reply(SeqReply {
                request: id,
                position: self.position,
                response,
                from: self.id,
            }),
        );
    }

    fn maybe_order(&mut self, ctx: &mut dyn Runtime<SeqWire<S::Command, S::Response>>) {
        if !self.is_sequencer() {
            return;
        }
        let unordered: Seq<RequestId> = self
            .pending
            .iter()
            .filter(|id| !self.delivered.contains(id) && !self.ordered_by_me.contains(id))
            .copied()
            .collect();
        if unordered.is_empty() {
            return;
        }
        for id in unordered.iter() {
            self.ordered_by_me.insert(*id);
        }
        for &p in &self.group.clone() {
            if p != self.id {
                ctx.send(
                    p,
                    SeqWire::Order {
                        view: self.view,
                        order: unordered.clone(),
                    },
                );
            }
        }
        for id in unordered.iter() {
            self.deliver(ctx, *id);
        }
    }

    fn handle_fd_events(
        &mut self,
        ctx: &mut dyn Runtime<SeqWire<S::Command, S::Response>>,
        events: Vec<FdEvent>,
    ) {
        if events.iter().any(|e| matches!(e, FdEvent::Suspect(_))) {
            self.view += 1;
            // If the suspicion promoted us to sequencer, (re-)order whatever we
            // have not seen ordered — this is where inconsistency can creep in.
            self.maybe_order(ctx);
        }
    }
}

impl<S: StateMachine> Process<SeqWire<S::Command, S::Response>> for SequencerServer<S> {
    fn on_start(&mut self, ctx: &mut dyn Runtime<SeqWire<S::Command, S::Response>>) {
        ctx.set_timer(self.tick, TICK);
    }

    fn on_message(
        &mut self,
        ctx: &mut dyn Runtime<SeqWire<S::Command, S::Response>>,
        from: ProcessId,
        msg: SeqWire<S::Command, S::Response>,
    ) {
        if self.group.contains(&from) && from != self.id {
            let events = self.fd.observe_traffic(from, ctx.now());
            self.handle_fd_events(ctx, events);
        }
        match msg {
            SeqWire::Request(request) => {
                let id = request.id;
                if self.payloads.contains_key(&id) {
                    return;
                }
                self.payloads.insert(id, request);
                self.pending.push(id);
                // A payload arrival may unblock orderings received earlier.
                self.enqueue_and_drain(ctx, &[]);
                self.maybe_order(ctx);
            }
            SeqWire::Order { order, .. } => {
                if from == self.current_sequencer() {
                    let ids: Vec<RequestId> = order.iter().copied().collect();
                    self.enqueue_and_drain(ctx, &ids);
                }
            }
            SeqWire::Fd(wire) => {
                let events = self.fd.on_wire(from, wire, ctx.now());
                self.handle_fd_events(ctx, events);
            }
            SeqWire::Reply(_) => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Runtime<SeqWire<S::Command, S::Response>>, timer: Timer) {
        if timer.tag != TICK {
            return;
        }
        let (heartbeats, events) = self.fd.on_tick(ctx.now());
        for hb in heartbeats {
            ctx.send(hb.to, SeqWire::Fd(hb.wire));
        }
        self.handle_fd_events(ctx, events);
        self.maybe_order(ctx);
        ctx.set_timer(self.tick, TICK);
    }

    fn name(&self) -> String {
        format!("seq-server-{}", self.id.index())
    }
}

/// A completed request at the fixed-sequencer client.
#[derive(Clone, Debug, PartialEq)]
pub struct SeqCompleted<R> {
    /// Request id.
    pub id: RequestId,
    /// The first (adopted) response.
    pub response: R,
    /// Position reported by the adopted reply.
    pub position: u64,
    /// Server whose reply was adopted.
    pub from: ProcessId,
    /// When the request was sent.
    pub sent_at: SimTime,
    /// When the first reply arrived.
    pub completed_at: SimTime,
    /// Every `(server, position, response)` observed, including after adoption
    /// — used to detect external inconsistency.
    pub all_replies: Vec<(ProcessId, u64, R)>,
}

impl<R> SeqCompleted<R> {
    /// Client-observed latency (first reply).
    pub fn latency(&self) -> SimDuration {
        self.completed_at.duration_since(self.sent_at)
    }
}

/// A closed-loop client of the fixed-sequencer baseline: adopts the first
/// reply, like classic active replication over Atomic Broadcast.
#[derive(Debug)]
pub struct SequencerClient<S: StateMachine> {
    id: ProcessId,
    servers: Vec<ProcessId>,
    workload: Vec<S::Command>,
    next_index: usize,
    next_seq: u64,
    think_time: SimDuration,
    outstanding: Option<RequestId>,
    sent_at: SimTime,
    completed: Vec<SeqCompleted<S::Response>>,
}

impl<S: StateMachine> SequencerClient<S> {
    /// Creates the client.
    pub fn new(
        id: ProcessId,
        servers: Vec<ProcessId>,
        workload: Vec<S::Command>,
        think_time: SimDuration,
    ) -> Self {
        SequencerClient {
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
    pub fn completed(&self) -> &[SeqCompleted<S::Response>] {
        &self.completed
    }

    /// Whether the workload is fully submitted and answered.
    pub fn is_done(&self) -> bool {
        self.next_index >= self.workload.len() && self.outstanding.is_none()
    }

    fn send_next(&mut self, ctx: &mut dyn Runtime<SeqWire<S::Command, S::Response>>) {
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
                SeqWire::Request(SeqRequest {
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

impl<S: StateMachine> Process<SeqWire<S::Command, S::Response>> for SequencerClient<S> {
    fn on_start(&mut self, ctx: &mut dyn Runtime<SeqWire<S::Command, S::Response>>) {
        self.send_next(ctx);
    }

    fn on_message(
        &mut self,
        ctx: &mut dyn Runtime<SeqWire<S::Command, S::Response>>,
        _from: ProcessId,
        msg: SeqWire<S::Command, S::Response>,
    ) {
        let SeqWire::Reply(reply) = msg else { return };
        // Late replies for already-completed requests are recorded so the
        // harness can detect divergence.
        if Some(reply.request) != self.outstanding {
            if let Some(done) = self.completed.iter_mut().find(|c| c.id == reply.request) {
                done.all_replies
                    .push((reply.from, reply.position, reply.response));
            }
            return;
        }
        self.outstanding = None;
        self.completed.push(SeqCompleted {
            id: reply.request,
            response: reply.response.clone(),
            position: reply.position,
            from: reply.from,
            sent_at: self.sent_at,
            completed_at: ctx.now(),
            all_replies: vec![(reply.from, reply.position, reply.response)],
        });
        if self.next_index < self.workload.len() {
            if self.think_time.is_zero() {
                self.send_next(ctx);
            } else {
                ctx.set_timer(self.think_time, NEXT_REQUEST);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Runtime<SeqWire<S::Command, S::Response>>, timer: Timer) {
        if timer.tag == NEXT_REQUEST && self.outstanding.is_none() {
            self.send_next(ctx);
        }
    }

    fn name(&self) -> String {
        format!("seq-client-{}", self.id.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oar::state_machine::{CounterCommand, CounterMachine};
    use oar_simnet::{NetConfig, World};

    type Wire = SeqWire<CounterCommand, i64>;

    fn build(n: usize, requests: usize, seed: u64) -> (World<Wire>, Vec<ProcessId>, ProcessId) {
        let mut world: World<Wire> = World::new(NetConfig::lan(), seed);
        let group: Vec<ProcessId> = (0..n).map(ProcessId::new).collect();
        for &id in &group {
            world.add_process(SequencerServer::new(
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
        let client = world.add_process(SequencerClient::<CounterMachine>::new(
            ProcessId::new(n),
            group.clone(),
            workload,
            SimDuration::ZERO,
        ));
        (world, group, client)
    }

    #[test]
    fn failure_free_run_completes_with_identical_orders() {
        let (mut world, group, client) = build(3, 8, 1);
        world.run_until_quiescent(SimTime::from_secs(5));
        let c = world.process_ref::<SequencerClient<CounterMachine>>(client);
        assert!(c.is_done());
        assert_eq!(c.completed().len(), 8);
        let orders: Vec<Vec<RequestId>> = group
            .iter()
            .map(|&s| {
                world
                    .process_ref::<SequencerServer<CounterMachine>>(s)
                    .delivery_order()
                    .to_vec()
            })
            .collect();
        assert_eq!(orders[0], orders[1]);
        assert_eq!(orders[1], orders[2]);
    }

    #[test]
    fn latency_is_about_three_network_hops() {
        let (mut world, _, client) = build(3, 1, 2);
        world.run_until_quiescent(SimTime::from_secs(5));
        let c = world.process_ref::<SequencerClient<CounterMachine>>(client);
        let latency = c.completed()[0].latency();
        // LAN latency is 50–200µs per hop; request → order → reply is ≈ 2–3
        // hops from the client's point of view (the sequencer's own reply needs
        // only 2).
        assert!(
            latency >= SimDuration::from_micros(100),
            "latency {latency}"
        );
        assert!(latency <= SimDuration::from_millis(2), "latency {latency}");
    }

    #[test]
    fn sequencer_crash_fails_over_to_next_replica() {
        let (mut world, group, client) = build(3, 10, 3);
        world.schedule_crash(group[0], SimTime::from_millis(2));
        world.run_until_quiescent(SimTime::from_secs(10));
        let c = world.process_ref::<SequencerClient<CounterMachine>>(client);
        assert!(c.is_done(), "client should finish after fail-over");
    }
}
