//! The deployment harness: one type, [`Deployment`], assembles a complete
//! OAR deployment — `num_groups` server groups plus clients — inside a
//! [`World`], runs workloads and checks the paper's correctness
//! propositions. Used by the integration tests, the examples and the
//! experiment harness.
//!
//! A deployment is parameterised by its client type, one flavour of
//! [`Client`]; the three flavours it runs have their own names:
//!
//! * [`Cluster`] — one group of [`OarClient`]s, the paper's setting;
//! * [`crate::ShardedCluster`] — [`crate::ShardedClient`]s routing per key
//!   over several groups ([`crate::sharded`]);
//! * [`crate::TxnCluster`] — [`crate::TxnClient`]s submitting multi-key
//!   transactions ([`crate::txn`]).
//!
//! All three share the server layout (groups of consecutive process ids,
//! then the clients), the run loop, the statistics readers and the checks;
//! a single-group [`Cluster`] is the one-group case with
//! [`ShardRouter::hash`]`(1)`.

use std::collections::HashMap;

use oar_channels::CastWire;
use oar_simnet::{GroupId, NetConfig, NetStats, ProcessId, Samples, SimDuration, SimTime, World};

use crate::adaptive::PipelineStats;
use crate::client::{Client, Flavour, OarClient};
use crate::config::{ClientConfig, OarConfig};
use crate::consistency::{check_adopted_positions, check_server_consistency};
use crate::message::{OarWire, ReconfigCmd, Request, RequestId};
use crate::server::{OarServer, ServerStats};
use crate::shard::ShardRouter;
use crate::state_machine::StateMachine;

/// Parameters of a deployment.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of OAR groups the key space is partitioned over (1 = the
    /// paper's single group).
    pub num_groups: usize,
    /// Replicas per group (`|Π|` of each group).
    pub num_servers: usize,
    /// Number of client processes; a routing client may talk to every group.
    pub num_clients: usize,
    /// The key → group router, replicated at every routing client. Must
    /// agree with `num_groups`; single-group clients do not consult it.
    pub router: ShardRouter,
    /// Network configuration (shared by all groups: sharding splits the key
    /// space, not the network).
    pub net: NetConfig,
    /// Protocol configuration template; each group's servers get it stamped
    /// with their [`GroupId`] via [`OarConfig::for_group`].
    pub oar: OarConfig,
    /// Seed of the deterministic simulation.
    pub seed: u64,
    /// Client think time between requests.
    pub think_time: SimDuration,
    /// Maximum outstanding submissions per client (1 = the paper's
    /// closed-loop client). Depths above 1 let the sequencer's `OrderMsg`
    /// batches and the servers' `ReplyBatch` coalescing amortise per-request
    /// traffic.
    pub client_pipeline: usize,
    /// When `true`, `client_pipeline` is the cap of an adaptive window per
    /// group: a [`crate::adaptive::PipelineController`] per client and group
    /// grows it with that group's reported delivery-batch sizes and decays
    /// it when load drops, so groups under different load converge to
    /// different windows.
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
            num_groups: 1,
            num_servers: 3,
            num_clients: 1,
            router: ShardRouter::hash(1),
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

impl ClusterConfig {
    /// The configuration of client `c`: the deployment's think time and
    /// pipeline policy, and its start delay.
    fn client_config(&self, c: usize) -> ClientConfig {
        let start_delay = self
            .client_start_delays
            .get(c)
            .copied()
            .unwrap_or_else(|| SimDuration::from_micros(10 * c as u64));
        let builder = ClientConfig::builder()
            .think_time(self.think_time)
            .start_delay(start_delay);
        if self.adaptive_pipeline {
            builder.adaptive_pipeline(self.client_pipeline).build()
        } else {
            builder.pipeline(self.client_pipeline).build()
        }
    }
}

/// The client processes a [`Deployment`] runs: a flavour of [`Client`].
pub trait DeployedClient: 'static {
    /// The replicated service.
    type Machine: StateMachine;
}

impl<S: StateMachine, F: Flavour<S::Response>> DeployedClient for Client<S, F> {
    type Machine = S;
}

/// The command type of the service `C` replicates.
type Cmd<C> = <<C as DeployedClient>::Machine as StateMachine>::Command;
/// The response type of the service `C` replicates.
type Resp<C> = <<C as DeployedClient>::Machine as StateMachine>::Response;

/// A fully assembled OAR deployment in a simulated world: server groups
/// plus clients of type `C`.
pub struct Deployment<C: DeployedClient> {
    /// The simulation world. Exposed so experiments can inject crashes,
    /// partitions, custom calls and additional client processes.
    pub world: World<OarWire<Cmd<C>, Resp<C>>>,
    /// Server identifiers per group, indexed by [`GroupId`], in group order.
    /// [`Deployment::inject_replace`] keeps them current.
    pub groups: Vec<Vec<ProcessId>>,
    /// Identifiers of the client processes.
    pub clients: Vec<ProcessId>,
    /// The router shared by all routing clients (`ShardRouter::hash(1)` for
    /// a single group).
    pub router: ShardRouter,
}

/// A single-group deployment of closed-loop [`OarClient`]s.
pub type Cluster<S> = Deployment<OarClient<S>>;

impl<S: StateMachine> Cluster<S> {
    /// Builds a single-group cluster. `make_sm` creates each replica's
    /// initial state (must be identical); `workload_for(client_index)` is
    /// each client's command list.
    pub fn build(
        config: &ClusterConfig,
        make_sm: impl FnMut() -> S,
        workload_for: impl FnMut(usize) -> Vec<S::Command>,
    ) -> Self {
        Self::deploy(
            config,
            make_sm,
            workload_for,
            |id, groups, _, workload, c| OarClient::new(id, groups[0].clone(), workload, c),
        )
    }
}

impl<S: StateMachine, F: Flavour<S::Response>> Deployment<Client<S, F>> {
    /// Builds the server layout — `num_groups` groups of `num_servers`
    /// consecutive process ids, each server stamped with its group identity
    /// and registered with the tracer — then one client per index, made by
    /// `new_client(id, groups, router, workload_for(index), config)`.
    ///
    /// # Panics
    ///
    /// Panics if the router's group count differs from `config.num_groups`.
    pub(crate) fn deploy<W>(
        config: &ClusterConfig,
        mut make_sm: impl FnMut() -> S,
        mut workload_for: impl FnMut(usize) -> W,
        new_client: impl Fn(ProcessId, &[Vec<ProcessId>], ShardRouter, W, ClientConfig) -> Client<S, F>,
    ) -> Self {
        assert_eq!(
            config.router.num_groups(),
            config.num_groups,
            "router and config disagree on the group count"
        );
        let mut world = World::new(config.net.clone(), config.seed);
        let mut groups = Vec::with_capacity(config.num_groups);
        for g in 0..config.num_groups {
            let base = g * config.num_servers;
            let ids: Vec<ProcessId> = (base..base + config.num_servers)
                .map(ProcessId::new)
                .collect();
            let oar = config.oar.for_group(GroupId::new(g));
            for &id in &ids {
                let assigned = world.add_process(OarServer::new(id, ids.clone(), oar, make_sm()));
                debug_assert_eq!(assigned, id);
                world.assign_group(assigned, GroupId::new(g));
            }
            groups.push(ids);
        }
        let first_client = config.num_groups * config.num_servers;
        let clients = (0..config.num_clients)
            .map(|c| {
                let id = ProcessId::new(first_client + c);
                let workload = workload_for(c);
                let client_config = config.client_config(c);
                world.add_process(new_client(
                    id,
                    &groups,
                    config.router.clone(),
                    workload,
                    client_config,
                ))
            })
            .collect();
        Deployment {
            world,
            groups,
            clients,
            router: config.router.clone(),
        }
    }

    /// Runs the simulation until every client finished its workload or the
    /// horizon is reached. Returns `true` if all clients finished.
    pub fn run_to_completion(&mut self, horizon: SimTime) -> bool {
        let clients = &self.clients;
        run_until_done(&mut self.world, horizon, |world| {
            clients
                .iter()
                .all(|&c| world.process_ref::<Client<S, F>>(c).is_done())
        })
    }

    /// Whether every client finished its workload.
    pub fn all_clients_done(&self) -> bool {
        (0..self.clients.len()).all(|i| self.client(i).is_done())
    }

    /// Read access to server `i` of group `g` (a crashed server keeps its
    /// slot, frozen at crash time).
    pub fn server(&self, g: usize, i: usize) -> &OarServer<S> {
        self.world.process_ref::<OarServer<S>>(self.groups[g][i])
    }

    /// Read access to client `i`.
    pub fn client(&self, i: usize) -> &Client<S, F> {
        self.world.process_ref::<Client<S, F>>(self.clients[i])
    }

    /// All completed submissions of all clients: one
    /// [`crate::CompletedRequest`] per command, or one
    /// [`crate::TxnCompleted`] per transaction.
    pub fn completed(&self) -> Vec<&F::Done> {
        (0..self.clients.len())
            .flat_map(|i| self.client(i).completed())
            .collect()
    }

    /// Client-observed latencies (milliseconds) of all completed
    /// submissions; a transaction's runs from its submission to the quorum
    /// of its last part.
    pub fn latencies(&self) -> Samples {
        let mut samples = Samples::new();
        for done in self.completed() {
            let (sent_at, completed_at) = span::<S, F>(done);
            samples.record_duration(completed_at.duration_since(sent_at));
        }
        samples
    }

    /// Simulated time of the last completion (zero if nothing completed).
    pub fn last_completion(&self) -> SimTime {
        self.completed()
            .into_iter()
            .map(|done| span::<S, F>(done).1)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// The stats of every server of `groups`, crashed ones included.
    fn stats_of<'a>(
        &'a self,
        groups: &'a [Vec<ProcessId>],
    ) -> impl Iterator<Item = (ProcessId, ServerStats)> + 'a {
        groups
            .iter()
            .flatten()
            .map(|&s| (s, self.world.process_ref::<OarServer<S>>(s).stats()))
    }

    /// Sums `f` over the server stats of every group (crashed servers
    /// included — their counters froze at crash time, which is what the
    /// traffic totals want): `cluster.sum_stats(|s| s.order_messages_sent)`.
    pub fn sum_stats(&self, f: impl Fn(&ServerStats) -> u64) -> u64 {
        self.stats_of(&self.groups).map(|(_, s)| f(&s)).sum()
    }

    /// [`Self::sum_stats`] over the servers of group `g`.
    pub fn sum_group_stats(&self, g: usize, f: impl Fn(&ServerStats) -> u64) -> u64 {
        self.stats_of(&self.groups[g..=g]).map(|(_, s)| f(&s)).sum()
    }

    /// The maximum of `f` over the server stats of every group — for gauge
    /// peaks (`|s| s.payloads.peak()`) and per-sequencer signals such as the
    /// converged batch target, which only one replica carries.
    pub fn max_stats(&self, f: impl Fn(&ServerStats) -> u64) -> u64 {
        self.stats_of(&self.groups)
            .map(|(_, s)| f(&s))
            .max()
            .unwrap_or(0)
    }

    /// [`Self::max_stats`] over the servers of group `g`.
    pub fn max_group_stat(&self, g: usize, f: impl Fn(&ServerStats) -> u64) -> u64 {
        self.stats_of(&self.groups[g..=g])
            .map(|(_, s)| f(&s))
            .max()
            .unwrap_or(0)
    }

    /// [`Self::max_stats`] over the *alive* servers only — for current gauge
    /// levels (`|s| s.payloads.current()`): a crashed replica's gauges froze
    /// at crash time and say nothing about what the group retains now.
    pub fn max_alive_stats(&self, f: impl Fn(&ServerStats) -> u64) -> u64 {
        self.stats_of(&self.groups)
            .filter(|(s, _)| !self.world.is_crashed(*s))
            .map(|(_, s)| f(&s))
            .max()
            .unwrap_or(0)
    }

    /// The maximum of `f` over the clients' adaptive pipeline-window counters
    /// (0 when the clients run a static pipeline).
    pub fn max_pipeline_stats(&self, f: impl Fn(&PipelineStats) -> u64) -> u64 {
        (0..self.clients.len())
            .flat_map(|i| self.client(i).pipeline_stats())
            .map(|p| f(&p))
            .max()
            .unwrap_or(0)
    }

    /// Network statistics attributed to group `g` (message sends by its
    /// servers: ordering, replies, consensus, heartbeats, repair).
    pub fn group_net_stats(&self, g: usize) -> NetStats {
        self.world.group_stats(GroupId::new(g))
    }

    /// Schedules server `i` of group `g` to restart at `at` with fresh
    /// in-memory state: the replacement is built with
    /// [`OarServer::recovering`] over the same configuration, so on start it
    /// fetches a catch-up transfer (snapshot + settled delta) from a peer
    /// instead of replaying the full history. `make_sm` must produce the
    /// service's *initial* state — the crash lost everything in memory. A
    /// no-op if the server is not crashed at `at`.
    pub fn schedule_server_restart(
        &mut self,
        at: SimTime,
        g: usize,
        i: usize,
        make_sm: impl FnOnce() -> S + 'static,
    ) {
        let id = self.groups[g][i];
        let group = self.groups[g].clone();
        let oar = *self.server(g, i).config();
        self.world.schedule_restart(at, id, move || {
            Box::new(OarServer::recovering(id, group, oar, make_sm()))
        });
    }

    /// Replaces server `old_index` of group `g` by a fresh replica
    /// ([`spawn_replacement`] with the old replica's configuration). Other
    /// groups are untouched. `fence_command` is the no-op application
    /// command that carries the fence. Returns the replacement's process
    /// id; `self.groups[g]` tracks the new roster from here on.
    ///
    /// Meant for a crashed `old` (the usual reason to replace a replica);
    /// a live `old` simply never learns it was fenced out.
    pub fn inject_replace(
        &mut self,
        g: usize,
        old_index: usize,
        fence_command: S::Command,
        make_sm: impl FnOnce() -> S,
    ) -> ProcessId {
        let oar = *self.server(g, old_index).config();
        let new = spawn_replacement(
            &mut self.world,
            &self.groups[g],
            old_index,
            oar,
            fence_command,
            make_sm(),
        );
        self.world.assign_group(new, GroupId::new(g));
        self.groups[g][old_index] = new;
        new
    }

    /// Applies `command` at server `i` of group `g` outside the order
    /// ([`OarServer::inject_divergence`]): the fault the divergence detector
    /// reports at the next epoch close.
    pub fn inject_divergence(&mut self, g: usize, i: usize, command: &S::Command) {
        let id = self.groups[g][i];
        self.world
            .process_mut::<OarServer<S>>(id)
            .inject_divergence(command);
    }

    /// Closes every group's open epoch conservatively: every live server
    /// that is not recovering wrongly suspects its current sequencer
    /// ([`OarServer::force_suspect_sequencer`]; the sequencer itself ignores
    /// the call), so the group runs phase 2.
    pub fn close_epoch(&mut self) {
        let ids: Vec<ProcessId> = (0..self.groups.len())
            .flat_map(|g| self.checkable(g))
            .map(OarServer::id)
            .collect();
        for s in ids {
            self.world.invoke_now(s, |process, ctx| {
                if let Some(server) = process.as_any_mut().downcast_mut::<OarServer<S>>() {
                    server.force_suspect_sequencer(ctx);
                }
            });
        }
    }

    /// The servers of group `g` that hold comparable state: alive and done
    /// with any catch-up (a replica mid-recovery deliberately holds blank
    /// state until the transfer installs).
    pub(crate) fn checkable(&self, g: usize) -> Vec<&OarServer<S>> {
        self.groups[g]
            .iter()
            .filter(|&&s| !self.world.is_crashed(s))
            .map(|&s| self.world.process_ref::<OarServer<S>>(s))
            .filter(|server| !server.is_recovering())
            .collect()
    }

    /// Checks the single-group safety properties
    /// ([`check_server_consistency`]: total order, at-most-once, digest
    /// agreement) *inside every group* over its checkable servers, plus
    /// cross-group isolation: no request settled by one group ever appears
    /// in another group's sequence. Cross-group *ordering* is explicitly not
    /// checked — it is not a property of a sharded deployment.
    pub fn check_per_group_consistency(&self) -> Result<(), String> {
        let mut owner_of: HashMap<RequestId, usize> = HashMap::new();
        for g in 0..self.groups.len() {
            let alive = self.checkable(g);
            check_server_consistency(&alive).map_err(|e| format!("group {g}: {e}"))?;
            for id in alive.iter().flat_map(|s| s.committed_sequence()) {
                match owner_of.insert(id, g) {
                    Some(other) if other != g => {
                        return Err(format!(
                            "cross-group leak: {id} delivered by groups g{other} and g{g}"
                        ));
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }

    /// Checks external consistency (Proposition 7) per group: every position
    /// a client adopted — for every part of a transaction — matches, at
    /// every checkable server of the *owning* group that retains the
    /// request, the position at which that server processed it.
    pub fn check_external_consistency(&self) -> Result<(), String> {
        let groups: Vec<Vec<&OarServer<S>>> =
            (0..self.groups.len()).map(|g| self.checkable(g)).collect();
        let adopted = self
            .completed()
            .into_iter()
            .flat_map(|done| F::parts(done))
            .map(|part| (part.group.index(), part.id, part.position));
        check_adopted_positions(&groups, adopted)
    }
}

/// When a submission was sent and when its last part adopted.
fn span<S: StateMachine, F: Flavour<S::Response>>(done: &F::Done) -> (SimTime, SimTime) {
    let parts = F::parts(done);
    let completed_at = parts.iter().map(|p| p.completed_at).max();
    (
        parts[0].sent_at,
        completed_at.expect("a submission has parts"),
    )
}

/// The run loop of every simulated harness: runs `world` in 50 ms slices
/// until `done` holds, or `horizon` has passed. Returns whether `done` held.
pub fn run_until_done<M: Clone + 'static>(
    world: &mut World<M>,
    horizon: SimTime,
    done: impl Fn(&World<M>) -> bool,
) -> bool {
    let slice = SimDuration::from_millis(50);
    loop {
        let next = world.now() + slice;
        world.run_until(next);
        if done(world) {
            return true;
        }
        if world.now() >= horizon {
            return false;
        }
    }
}

/// The world-level core of [`Deployment::inject_replace`], usable without a
/// [`Deployment`] (the model checker drives a bare [`World`]): spawns the
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
        assert_eq!(cluster.completed().len(), 10);
        cluster.check_per_group_consistency().unwrap();
        cluster.check_external_consistency().unwrap();
        // No failures: phase 2 never runs, nothing is undone.
        assert_eq!(cluster.sum_stats(|s| s.phase2_entered), 0);
        assert_eq!(cluster.sum_stats(|s| s.opt_undelivered), 0);
        // All replies were optimistic with weight 2 (p + sequencer) or 1.
        for r in cluster.completed() {
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
        let victim = cluster.groups[0][0];
        cluster
            .world
            .schedule_crash(victim, SimTime::from_millis(3));
        let done = cluster.run_to_completion(SimTime::from_secs(30));
        assert!(done, "workload did not complete after sequencer crash");
        cluster.check_per_group_consistency().unwrap();
        cluster.check_external_consistency().unwrap();
        assert!(
            cluster.sum_stats(|s| s.phase2_entered) > 0,
            "phase 2 should have run"
        );
    }
}
