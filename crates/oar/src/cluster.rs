//! A convenience harness that assembles a complete OAR deployment (servers +
//! clients) inside a [`World`], runs workloads and checks the paper's
//! correctness propositions. Used by the integration tests, the examples and
//! the experiment harness.

use oar_channels::CastWire;
use oar_simnet::{NetConfig, ProcessId, Samples, SimDuration, SimTime, World};

use crate::adaptive::PipelineStats;
use crate::client::{Client, ClosedLoop, CompletedRequest, Flavour, OarClient};
use crate::config::{ClientConfig, OarConfig};
use crate::message::{OarWire, ReconfigCmd, Request, RequestId};
use crate::server::{OarServer, ServerStats};
use crate::state_machine::StateMachine;

/// Parameters of a cluster deployment.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of server replicas (`|Π|`).
    pub num_servers: usize,
    /// Number of client processes.
    pub num_clients: usize,
    /// Network configuration.
    pub net: NetConfig,
    /// Protocol configuration shared by all servers.
    pub oar: OarConfig,
    /// Seed of the deterministic simulation.
    pub seed: u64,
    /// Client think time between requests.
    pub think_time: SimDuration,
    /// Maximum outstanding requests per client (1 = the paper's closed-loop
    /// client). Depths above 1 let the sequencer's `OrderMsg` batches and the
    /// servers' `ReplyBatch` coalescing amortise per-request traffic.
    pub client_pipeline: usize,
    /// When `true`, `client_pipeline` is the *cap* of an adaptive window: a
    /// [`crate::adaptive::PipelineController`] per client grows it with the
    /// servers' reported delivery-batch sizes and decays it when load drops.
    pub adaptive_pipeline: bool,
    /// Per-client delay before the first request. Clients beyond the end of
    /// the vector use a small default stagger (10µs × index). Used by the
    /// figure scenarios to issue specific requests while a partition is
    /// installed.
    pub client_start_delays: Vec<SimDuration>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            num_servers: 3,
            num_clients: 1,
            net: NetConfig::lan(),
            oar: OarConfig::default(),
            seed: 1,
            think_time: SimDuration::ZERO,
            client_pipeline: 1,
            adaptive_pipeline: false,
            client_start_delays: Vec::new(),
        }
    }
}

/// A fully assembled OAR deployment in a simulated world.
pub struct Cluster<S: StateMachine> {
    /// The simulation world. Exposed so experiments can inject crashes,
    /// partitions and custom calls.
    pub world: World<OarWire<S::Command, S::Response>>,
    /// Identifiers of the server processes, in group order.
    pub servers: Vec<ProcessId>,
    /// Identifiers of the client processes.
    pub clients: Vec<ProcessId>,
    /// The protocol configuration the servers were built with (restarted
    /// replicas are rebuilt with the same one).
    pub oar: OarConfig,
}

impl<S: StateMachine> Cluster<S> {
    /// Builds a cluster. `make_sm` creates each replica's initial state (must
    /// be identical); `workload_for(client_index)` is each client's command
    /// list.
    pub fn build(
        config: &ClusterConfig,
        mut make_sm: impl FnMut() -> S,
        mut workload_for: impl FnMut(usize) -> Vec<S::Command>,
    ) -> Self {
        let mut world: World<OarWire<S::Command, S::Response>> =
            World::new(config.net.clone(), config.seed);
        let server_ids: Vec<ProcessId> = (0..config.num_servers).map(ProcessId::new).collect();
        let mut servers = Vec::new();
        for &id in &server_ids {
            let server = OarServer::new(id, server_ids.clone(), config.oar, make_sm());
            let assigned = world.add_process(server);
            debug_assert_eq!(assigned, id);
            servers.push(assigned);
        }
        let mut clients = Vec::new();
        for c in 0..config.num_clients {
            let start_delay = config
                .client_start_delays
                .get(c)
                .copied()
                .unwrap_or_else(|| SimDuration::from_micros(10 * c as u64));
            let mut builder = ClientConfig::builder()
                .think_time(config.think_time)
                .start_delay(start_delay)
                .group(config.oar.group);
            builder = if config.adaptive_pipeline {
                builder.adaptive_pipeline(config.client_pipeline)
            } else {
                builder.pipeline(config.client_pipeline)
            };
            let client: OarClient<S> = OarClient::new(
                ProcessId::new(config.num_servers + c),
                server_ids.clone(),
                workload_for(c),
                builder.build(),
            );
            clients.push(world.add_process(client));
        }
        Cluster {
            world,
            servers,
            clients,
            oar: config.oar,
        }
    }

    /// Schedules server `i` (by group index) to restart at `at` with fresh
    /// in-memory state: the replacement is built with
    /// [`OarServer::recovering`], so on start it fetches a catch-up transfer
    /// (snapshot + settled delta) from a peer instead of replaying the full
    /// history. `make_sm` must produce the service's *initial* state — the
    /// crash lost everything in memory. A no-op if the server is not crashed
    /// at `at`.
    pub fn schedule_server_restart(
        &mut self,
        at: SimTime,
        i: usize,
        make_sm: impl FnOnce() -> S + 'static,
    ) {
        let id = self.servers[i];
        let group = self.servers.clone();
        let oar = self.oar;
        self.world.schedule_restart(at, id, move || {
            Box::new(OarServer::recovering(id, group, oar, make_sm()))
        });
    }

    /// Replaces server `old_index` by a fresh replica: spawns the
    /// replacement (built with [`OarServer::recovering`] over the
    /// post-replacement roster, so it joins through the ordinary `CatchUp*`
    /// wires) and injects a [`ReconfigCmd::Replace`] fence request into the
    /// surviving members, which settle it through the conservative order.
    /// `fence_command` is the no-op application command that carries the
    /// fence. Returns the replacement's process id; `self.servers` tracks
    /// the new roster from here on.
    ///
    /// Meant for a crashed `old` (the usual reason to replace a replica);
    /// a live `old` simply never learns it was fenced out.
    pub fn inject_replace(
        &mut self,
        old_index: usize,
        fence_command: S::Command,
        make_sm: impl FnOnce() -> S,
    ) -> ProcessId {
        let new = spawn_replacement(
            &mut self.world,
            &self.servers,
            old_index,
            self.oar,
            fence_command,
            make_sm(),
        );
        self.servers[old_index] = new;
        new
    }

    /// Applies `command` at server `i` outside the order
    /// ([`OarServer::inject_divergence`]): the fault the divergence detector
    /// reports at the next epoch close.
    pub fn inject_divergence(&mut self, i: usize, command: &S::Command) {
        let id = self.servers[i];
        self.world
            .process_mut::<OarServer<S>>(id)
            .inject_divergence(command);
    }

    /// Closes the open epoch conservatively: every live server that is not
    /// recovering wrongly suspects the current sequencer
    /// ([`OarServer::force_suspect_sequencer`]; the sequencer itself ignores
    /// the call), so the group runs phase 2.
    pub fn close_epoch(&mut self) {
        for s in self.checkable() {
            self.world.invoke_now(s, |process, ctx| {
                if let Some(server) = process.as_any_mut().downcast_mut::<OarServer<S>>() {
                    server.force_suspect_sequencer(ctx);
                }
            });
        }
    }

    /// The alive servers that finished any catch-up they were doing — the
    /// population the consistency checks compare (a replica mid-recovery
    /// deliberately holds blank state).
    fn checkable(&self) -> Vec<ProcessId> {
        self.servers
            .iter()
            .copied()
            .filter(|&s| {
                !self.world.is_crashed(s)
                    && !self.world.process_ref::<OarServer<S>>(s).is_recovering()
            })
            .collect()
    }

    /// Runs the simulation until every client finished its workload or the
    /// horizon is reached. Returns `true` if all clients finished.
    pub fn run_to_completion(&mut self, horizon: SimTime) -> bool {
        run_clients::<S, ClosedLoop>(&mut self.world, &self.clients, horizon)
    }

    /// Whether every client finished its workload.
    pub fn all_clients_done(&self) -> bool {
        clients_done::<S, ClosedLoop>(&self.world, &self.clients)
    }

    /// Read access to server `i` (by index in the group).
    pub fn server(&self, i: usize) -> &OarServer<S> {
        self.world.process_ref::<OarServer<S>>(self.servers[i])
    }

    /// Read access to client `i`.
    pub fn client(&self, i: usize) -> &OarClient<S> {
        self.world.process_ref::<OarClient<S>>(self.clients[i])
    }

    /// All completed requests of all clients.
    pub fn completed_requests(&self) -> Vec<&CompletedRequest<S::Response>> {
        self.clients
            .iter()
            .flat_map(|&c| self.world.process_ref::<OarClient<S>>(c).completed().iter())
            .collect()
    }

    /// Client-observed latencies (milliseconds) of all completed requests.
    pub fn latencies(&self) -> Samples {
        let mut samples = Samples::new();
        for r in self.completed_requests() {
            samples.record_duration(r.latency());
        }
        samples
    }

    fn server_stats(&self) -> impl Iterator<Item = (ProcessId, ServerStats)> + '_ {
        self.servers
            .iter()
            .map(|&s| (s, self.world.process_ref::<OarServer<S>>(s).stats()))
    }

    /// Sums `f` over the stats of all servers (crashed ones included — their
    /// counters froze at crash time, which is what the traffic totals want):
    /// `cluster.sum_stats(|s| s.order_messages_sent)`.
    pub fn sum_stats(&self, f: impl Fn(&ServerStats) -> u64) -> u64 {
        self.server_stats().map(|(_, stats)| f(&stats)).sum()
    }

    /// The maximum of `f` over the stats of all servers — for gauge peaks
    /// (`|s| s.payloads.peak()`) and per-sequencer signals such as the
    /// converged batch target, which only one replica carries.
    pub fn max_stats(&self, f: impl Fn(&ServerStats) -> u64) -> u64 {
        self.server_stats()
            .map(|(_, stats)| f(&stats))
            .max()
            .unwrap_or(0)
    }

    /// [`Self::max_stats`] over the *alive* servers only — for current gauge
    /// levels (`|s| s.payloads.current()`): a crashed replica's gauges froze
    /// at crash time and say nothing about what the group retains now.
    pub fn max_alive_stats(&self, f: impl Fn(&ServerStats) -> u64) -> u64 {
        self.server_stats()
            .filter(|(s, _)| !self.world.is_crashed(*s))
            .map(|(_, stats)| f(&stats))
            .max()
            .unwrap_or(0)
    }

    /// The maximum of `f` over the clients' adaptive pipeline-window counters
    /// (0 when the clients run a static pipeline).
    pub fn max_pipeline_stats(&self, f: impl Fn(&PipelineStats) -> u64) -> u64 {
        self.clients
            .iter()
            .flat_map(|&c| self.world.process_ref::<OarClient<S>>(c).pipeline_stats())
            .map(|p| f(&p))
            .max()
            .unwrap_or(0)
    }

    /// Checks the server-side safety properties across all *alive* servers
    /// (replicas still mid-catch-up are skipped — they deliberately hold
    /// blank state until the transfer installs):
    ///
    /// * the committed sequences (stable + current optimistic deliveries) of
    ///   any two servers are prefix-compatible (Proposition 5, total order).
    ///   With log compaction a replica no longer retains its full settled
    ///   prefix, so the comparison is **compaction-aware**: the settled
    ///   prefixes are compared through the chained order-hash at the highest
    ///   common settled position, and the retained suffixes element-wise
    ///   from the higher of the two compaction bases;
    /// * no request appears twice in a retained committed sequence
    ///   (Propositions 2–3, at-most-once);
    /// * servers that delivered the same total number of requests
    ///   (compacted prefix included) have identical state-machine digests
    ///   (determinism + total order).
    pub fn check_replica_consistency(&self) -> Result<(), String> {
        let alive: Vec<&OarServer<S>> = self
            .checkable()
            .iter()
            .map(|&p| self.world.process_ref::<OarServer<S>>(p))
            .collect();
        crate::consistency::check_server_consistency(&alive)
    }

    /// Checks external consistency (Proposition 7): every response adopted by a
    /// client matches, at every alive server that delivered the request without
    /// undoing it, the position at which that server processed the request.
    pub fn check_external_consistency(&self) -> Result<(), String> {
        let alive: Vec<&OarServer<S>> = self
            .checkable()
            .iter()
            .map(|&p| self.world.process_ref::<OarServer<S>>(p))
            .collect();
        let completed: Vec<&[CompletedRequest<S::Response>]> = self
            .clients
            .iter()
            .map(|&c| self.world.process_ref::<OarClient<S>>(c).completed())
            .collect();
        crate::consistency::check_external_consistency(&alive, &completed)
    }
}

/// The run loop of the deployment harnesses ([`Cluster`],
/// [`crate::ShardedCluster`], [`crate::TxnCluster`]): runs `world` in 50 ms
/// slices until every one of `clients` — all of flavour `F` — finished its
/// workload, or `horizon` has passed. Returns whether all finished.
pub(crate) fn run_clients<S: StateMachine, F: Flavour<S::Response>>(
    world: &mut World<OarWire<S::Command, S::Response>>,
    clients: &[ProcessId],
    horizon: SimTime,
) -> bool {
    let slice = SimDuration::from_millis(50);
    loop {
        let next = world.now() + slice;
        world.run_until(next);
        if clients_done::<S, F>(world, clients) {
            return true;
        }
        if world.now() >= horizon {
            return false;
        }
    }
}

/// Whether every one of `clients` — all of flavour `F` — finished its
/// workload.
pub(crate) fn clients_done<S: StateMachine, F: Flavour<S::Response>>(
    world: &World<OarWire<S::Command, S::Response>>,
    clients: &[ProcessId],
) -> bool {
    clients
        .iter()
        .all(|&c| world.process_ref::<Client<S, F>>(c).is_done())
}

/// The world-level core of [`Cluster::inject_replace`], usable without a
/// [`Cluster`] (the model checker drives a bare [`World`]): spawns the
/// replacement replica — built with [`OarServer::recovering`] over the
/// post-replacement roster, so it joins through the ordinary `CatchUp*`
/// wires — and injects the [`ReconfigCmd::Replace`] fence request into the
/// surviving members, which settle it through the conservative order.
/// `servers` is the *pre*-replacement roster; the caller is responsible for
/// tracking the new one. Returns the replacement's process id.
pub fn spawn_replacement<S: StateMachine>(
    world: &mut World<OarWire<S::Command, S::Response>>,
    servers: &[ProcessId],
    old_index: usize,
    oar: OarConfig,
    fence_command: S::Command,
    sm: S,
) -> ProcessId {
    let old = servers[old_index];
    let new = ProcessId::new(world.num_processes());
    let mut roster = servers.to_vec();
    roster[old_index] = new;
    let spawned = world.add_process(OarServer::recovering(new, roster, oar, sm));
    debug_assert_eq!(spawned, new);
    // The fence rides an ordinary request, R-multicast to the surviving
    // members; the replacement's pid doubles as the admin "client" (it
    // exists, and servers ignore stray `Replies` wires).
    let id = RequestId::new(new, u64::MAX);
    let wire = CastWire {
        id,
        origin: new,
        payload: Request {
            id,
            client: new,
            group: oar.group,
            txn: None,
            reconfig: Some(ReconfigCmd::Replace { old, new }),
            route_epoch: 0,
            command: fence_command,
        },
    };
    for &s in servers {
        if s != old && !world.is_crashed(s) {
            world.send_external(new, s, OarWire::Request(wire.clone()));
        }
    }
    new
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state_machine::{CounterCommand, CounterMachine};

    fn workload(n: usize) -> Vec<CounterCommand> {
        (0..n).map(|i| CounterCommand::Add(i as i64 + 1)).collect()
    }

    #[test]
    fn failure_free_run_completes_and_is_consistent() {
        let config = ClusterConfig {
            num_servers: 3,
            num_clients: 2,
            ..ClusterConfig::default()
        };
        let mut cluster: Cluster<CounterMachine> =
            Cluster::build(&config, CounterMachine::default, |_| workload(5));
        let done = cluster.run_to_completion(SimTime::from_secs(10));
        assert!(done, "clients did not finish");
        assert_eq!(cluster.completed_requests().len(), 10);
        cluster.check_replica_consistency().unwrap();
        cluster.check_external_consistency().unwrap();
        // No failures: phase 2 never runs, nothing is undone.
        assert_eq!(cluster.sum_stats(|s| s.phase2_entered), 0);
        assert_eq!(cluster.sum_stats(|s| s.opt_undelivered), 0);
        // All replies were optimistic with weight 2 (p + sequencer) or 1.
        for r in cluster.completed_requests() {
            assert!(r.adopted_weight <= 3);
        }
    }

    #[test]
    fn latencies_are_recorded() {
        let config = ClusterConfig::default();
        let mut cluster: Cluster<CounterMachine> =
            Cluster::build(&config, CounterMachine::default, |_| workload(3));
        cluster.run_to_completion(SimTime::from_secs(10));
        let lat = cluster.latencies();
        assert_eq!(lat.len(), 3);
        assert!(lat.mean().unwrap() > 0.0);
    }

    #[test]
    fn sequencer_crash_is_tolerated() {
        let config = ClusterConfig {
            num_servers: 3,
            num_clients: 1,
            ..ClusterConfig::default()
        };
        let mut cluster: Cluster<CounterMachine> =
            Cluster::build(&config, CounterMachine::default, |_| workload(10));
        // Crash the initial sequencer (server 0) shortly after the run starts.
        let victim = cluster.servers[0];
        cluster
            .world
            .schedule_crash(victim, SimTime::from_millis(3));
        let done = cluster.run_to_completion(SimTime::from_secs(30));
        assert!(done, "workload did not complete after sequencer crash");
        cluster.check_replica_consistency().unwrap();
        cluster.check_external_consistency().unwrap();
        assert!(
            cluster.sum_stats(|s| s.phase2_entered) > 0,
            "phase 2 should have run"
        );
    }
}
