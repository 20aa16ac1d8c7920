//! An open-loop load generator: offered-rate arrivals, not closed-loop.
//!
//! The closed-loop clients ([`crate::OarClient`] and friends) couple their
//! submission rate to the service rate: a request is only submitted when a
//! window slot frees up, so a slow server *hides* its slowness by slowing
//! the offered load down with it. Real throughput/latency measurements on
//! the real-clock backend need the opposite: arrivals at a fixed offered
//! rate, submitted whether or not earlier requests have completed, so queues
//! actually build when the system falls behind (and tail latency means
//! something).
//!
//! [`OpenLoopClient`] submits one request every `interarrival` on a fixed
//! absolute schedule, tagged [`TimerTag::Arrival`]. The schedule is
//! *drift-corrected*: each timer fires at least at its deadline, and the
//! next delay is computed against the intended schedule rather than the
//! actual fire time — if a callback runs late (real clock, busy thread), the
//! generator catches up with a burst, exactly like a real open-loop
//! harness. Replies are still tracked per the Fig. 5 weighted-quorum rule,
//! so each completion carries a genuine client-observed latency.
//!
//! The generator is written against [`Runtime`] only: on the simulator it
//! produces the same arrival schedule every run; on `oar-rtnet` the schedule
//! is wall-clock.

use std::collections::{BTreeMap, VecDeque};

use oar_channels::ReliableCaster;
use oar_simnet::{GroupId, Process, ProcessId, Runtime, SimDuration, SimTime, Timer, TimerTag};

use crate::client::{CompletedRequest, QuorumTracker};
use crate::config::ClientConfig;
use crate::message::{majority, OarWire, ReplyBatch, ReplyItem, Request, RequestId};
use crate::state_machine::StateMachine;

#[derive(Debug)]
struct Outstanding<R> {
    index: usize,
    sent_at: SimTime,
    quorum: QuorumTracker<R>,
}

/// An open-loop client: submits the commands of its workload at a fixed
/// offered rate (one every `interarrival`), regardless of how many earlier
/// requests are still outstanding.
///
/// The workload bounds the run — once it is exhausted the generator goes
/// quiet, which gives fixed-duration experiments a natural "offered load ×
/// duration" sizing and lets done probes detect drain.
#[derive(Debug)]
pub struct OpenLoopClient<S: StateMachine> {
    id: ProcessId,
    servers: Vec<ProcessId>,
    group: GroupId,
    cast: ReliableCaster<Request<S::Command>>,
    workload: VecDeque<S::Command>,
    interarrival: SimDuration,
    /// The intended submission time of the next arrival (absolute), the
    /// anchor of drift correction.
    scheduled: SimTime,
    started: bool,
    start_delay: SimDuration,
    next_index: usize,
    outstanding: BTreeMap<RequestId, Outstanding<S::Response>>,
    completed: Vec<CompletedRequest<S::Response>>,
    majority: usize,
}

impl<S: StateMachine> OpenLoopClient<S> {
    /// Creates a generator that offers one command of `workload` every
    /// `interarrival` to `servers`. Only the `start_delay` and `group` of
    /// `config` apply — think time and pipelining are closed-loop notions.
    ///
    /// # Panics
    ///
    /// Panics on a zero `interarrival` (an infinite offered rate).
    pub fn new(
        id: ProcessId,
        servers: Vec<ProcessId>,
        workload: Vec<S::Command>,
        interarrival: SimDuration,
        config: ClientConfig,
    ) -> Self {
        assert!(
            !interarrival.is_zero(),
            "open-loop interarrival must be non-zero"
        );
        let majority = majority(servers.len());
        OpenLoopClient {
            id,
            group: config.group,
            cast: ReliableCaster::new(id, servers.clone()),
            servers,
            workload: workload.into(),
            interarrival,
            scheduled: SimTime::ZERO,
            started: false,
            start_delay: config.start_delay,
            next_index: 0,
            outstanding: BTreeMap::new(),
            completed: Vec::new(),
            majority,
        }
    }

    /// The client's process identifier.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The offered interarrival gap.
    pub fn interarrival(&self) -> SimDuration {
        self.interarrival
    }

    /// The requests completed so far, in completion order.
    pub fn completed(&self) -> &[CompletedRequest<S::Response>] {
        &self.completed
    }

    /// Number of requests submitted so far.
    pub fn submitted(&self) -> usize {
        self.next_index
    }

    /// Number of submitted requests still awaiting their quorum.
    pub fn outstanding_len(&self) -> usize {
        self.outstanding.len()
    }

    /// Whether the whole workload has been submitted and answered.
    pub fn is_done(&self) -> bool {
        self.workload.is_empty() && self.outstanding.is_empty()
    }

    /// The server group this client talks to.
    pub fn servers(&self) -> &[ProcessId] {
        &self.servers
    }

    fn submit_one(&mut self, rt: &mut dyn Runtime<OarWire<S::Command, S::Response>>) {
        let Some(command) = self.workload.pop_front() else {
            return;
        };
        let (id, mut wire, targets) = self.cast.multicast_shared(Request {
            // Re-stamped below once the multicast assigns the id.
            id: RequestId::new(self.id, 0),
            client: self.id,
            group: self.group,
            txn: None,
            reconfig: None,
            route_epoch: 0,
            command,
        });
        wire.payload.id = id;
        rt.send_all(&targets, OarWire::Request(wire));
        self.outstanding.insert(
            id,
            Outstanding {
                index: self.next_index,
                sent_at: rt.now(),
                quorum: QuorumTracker::new(),
            },
        );
        self.next_index += 1;
    }

    /// Submits every arrival whose scheduled time has passed (catch-up
    /// burst included), then re-arms the arrival timer against the intended
    /// schedule.
    fn drain_schedule(&mut self, rt: &mut dyn Runtime<OarWire<S::Command, S::Response>>) {
        let now = rt.now();
        while self.scheduled <= now && !self.workload.is_empty() {
            self.submit_one(rt);
            self.scheduled += self.interarrival;
        }
        if !self.workload.is_empty() {
            let delay = SimDuration::from_micros(self.scheduled.as_micros() - now.as_micros());
            rt.set_timer(delay, TimerTag::Arrival);
        }
    }

    fn handle_reply_batch(
        &mut self,
        rt: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
        batch: ReplyBatch<S::Response>,
    ) {
        for item in &batch.items {
            self.handle_reply(rt, &batch, item);
        }
    }

    fn handle_reply(
        &mut self,
        rt: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
        batch: &ReplyBatch<S::Response>,
        item: &ReplyItem<S::Response>,
    ) {
        let request = item.request;
        let Some(outstanding) = self.outstanding.get_mut(&request) else {
            return; // stale reply for an already-completed request
        };
        let Some((epoch, reply)) = outstanding.quorum.absorb(batch.reply(item), self.majority)
        else {
            return;
        };
        let outstanding = self.outstanding.remove(&request).expect("outstanding");
        self.completed.push(CompletedRequest {
            id: request,
            index: outstanding.index,
            response: reply.response,
            position: reply.position,
            epoch,
            adopted_weight: reply.weight.len(),
            replies_seen: outstanding.quorum.replies_seen(),
            sent_at: outstanding.sent_at,
            completed_at: rt.now(),
        });
    }
}

impl<S: StateMachine> Process<OarWire<S::Command, S::Response>> for OpenLoopClient<S> {
    fn on_start(&mut self, rt: &mut dyn Runtime<OarWire<S::Command, S::Response>>) {
        self.started = true;
        self.scheduled = rt.now() + self.start_delay;
        if self.start_delay.is_zero() {
            self.drain_schedule(rt);
        } else {
            rt.set_timer(self.start_delay, TimerTag::Arrival);
        }
    }

    fn on_message(
        &mut self,
        rt: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
        _from: ProcessId,
        msg: OarWire<S::Command, S::Response>,
    ) {
        if let OarWire::Replies(batch) = msg {
            self.handle_reply_batch(rt, batch);
        }
        // Open-loop generators ignore every other message kind.
    }

    fn on_timer(&mut self, rt: &mut dyn Runtime<OarWire<S::Command, S::Response>>, timer: Timer) {
        if timer.tag == TimerTag::Arrival {
            self.drain_schedule(rt);
        }
    }

    fn name(&self) -> String {
        format!("openloop-client-{}", self.id.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::config::OarConfig;
    use crate::server::OarServer;
    use crate::state_machine::{CounterCommand, CounterMachine};
    use oar_simnet::World;

    type Wire = OarWire<CounterCommand, i64>;

    fn build(
        n_servers: usize,
        n_requests: usize,
        interarrival: SimDuration,
    ) -> (World<Wire>, Vec<ProcessId>, ProcessId) {
        let config = ClusterConfig {
            num_servers: n_servers,
            num_clients: 0,
            ..ClusterConfig::default()
        };
        let mut world: World<Wire> = World::new(config.net.clone(), config.seed);
        let server_ids: Vec<ProcessId> = (0..n_servers).map(ProcessId::new).collect();
        for &id in &server_ids {
            let server = OarServer::new(
                id,
                server_ids.clone(),
                OarConfig::default(),
                CounterMachine::default(),
            );
            world.add_process(server);
        }
        let workload: Vec<CounterCommand> = (0..n_requests)
            .map(|i| CounterCommand::Add(i as i64 + 1))
            .collect();
        let client = OpenLoopClient::<CounterMachine>::new(
            ProcessId::new(n_servers),
            server_ids.clone(),
            workload,
            interarrival,
            ClientConfig::default(),
        );
        let client_id = world.add_process(client);
        (world, server_ids, client_id)
    }

    #[test]
    fn open_loop_submits_on_schedule_and_completes() {
        let (mut world, _servers, client_id) = build(3, 20, SimDuration::from_micros(200));
        world.run_until_quiescent(SimTime::from_secs(5));
        let client = world.process_ref::<OpenLoopClient<CounterMachine>>(client_id);
        assert!(client.is_done(), "open-loop workload must drain");
        assert_eq!(client.completed().len(), 20);
        assert_eq!(client.submitted(), 20);
        // Arrivals follow the absolute schedule: request i was sent at
        // ~i × interarrival, never earlier.
        let mut sent: Vec<SimTime> = client.completed().iter().map(|c| c.sent_at).collect();
        sent.sort();
        for (i, at) in sent.iter().enumerate() {
            assert!(
                at.as_micros() >= (i as u64) * 200,
                "arrival {i} ran ahead of the offered schedule: {at}"
            );
        }
    }

    #[test]
    fn open_loop_does_not_wait_for_replies() {
        // With an interarrival far below the network latency, many requests
        // must be in flight at once — the definition of open loop.
        let (mut world, _servers, client_id) = build(3, 30, SimDuration::from_micros(10));
        // Run just past the last scheduled arrival, long before most quorums.
        world.run_until(SimTime::from_micros(400));
        let client = world.process_ref::<OpenLoopClient<CounterMachine>>(client_id);
        assert_eq!(client.submitted(), 30, "arrivals must not gate on replies");
        assert!(
            client.outstanding_len() > 1,
            "an open-loop generator keeps several requests in flight"
        );
    }
}
