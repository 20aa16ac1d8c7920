//! Sharded multi-group OAR: several independent replication groups over one
//! simulated network, a key → group router, and clients that fan requests to
//! the group owning each key.
//!
//! With the per-group hot path linear and the per-batch traffic amortised, a
//! single sequencer is the scalability ceiling of a one-group deployment.
//! This module partitions the *key space* over `N` OAR groups — each with
//! its own sequencer, consensus instance and failure detector — following
//! the parallel-SMR observation that commands touching disjoint state need
//! not share one total order.
//!
//! # What is (and is not) ordered
//!
//! * **Inside a group**: the full OAR guarantees — total order, at-most-once,
//!   external consistency — hold per group, unchanged. Since the router is a
//!   pure function of the key, *per-key* ordering is exactly the owning
//!   group's total order.
//! * **Across groups**: nothing. Two requests routed to different groups are
//!   processed with no ordering relation whatsoever; there is no cross-group
//!   agreement on the critical path (or anywhere else). Workloads needing
//!   cross-key atomicity must place those keys in one group (range
//!   partitioning) or run on a single group.
//!
//! Misrouting is a safety hazard (a request ordered against the wrong key
//! space), so every request carries its intended [`GroupId`] and servers
//! drop + count mismatches ([`ServerStats::misrouted`]); the experiment
//! harness gates on the count staying zero.

use std::collections::HashMap;

use oar_channels::CastWire;
use oar_simnet::{GroupId, NetConfig, NetStats, ProcessId, Samples, SimDuration, SimTime, World};

use crate::client::{CompletedRequest, Sharded, ShardedClient};
use crate::cluster::{clients_done, run_clients};
use crate::config::{ClientConfig, OarConfig};
use crate::consistency::{check_server_consistency, retained_positions};
use crate::message::{OarWire, ReconfigCmd, Request, RequestId};
use crate::server::{OarServer, ServerStats};
use crate::shard::{KeyRange, MigrationRecord, ShardKey, ShardRouter};
use crate::state_machine::StateMachine;

/// Parameters of a sharded deployment.
#[derive(Clone, Debug)]
pub struct ShardedConfig {
    /// Number of OAR groups the key space is partitioned over.
    pub num_groups: usize,
    /// Replicas per group (`|Π|` of each group).
    pub servers_per_group: usize,
    /// Number of client processes; every client may talk to every group.
    pub num_clients: usize,
    /// The key → group router, replicated at every client.
    /// Must agree with `num_groups`.
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
    /// Static pipelines: the maximum outstanding requests per client,
    /// across all groups. With `adaptive_pipeline` set it is instead the cap
    /// of each **per-group** window, so a client may hold up to
    /// `num_groups × client_pipeline` requests once every group's window has
    /// opened fully.
    pub client_pipeline: usize,
    /// When `true`, each client keeps one
    /// [`crate::adaptive::PipelineController`] per group and adapts that group's window to its reported delivery-batch sizes —
    /// groups under different load converge to different windows.
    pub adaptive_pipeline: bool,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            num_groups: 2,
            servers_per_group: 3,
            num_clients: 2,
            router: ShardRouter::hash(2),
            net: NetConfig::lan(),
            oar: OarConfig::default(),
            seed: 1,
            think_time: SimDuration::ZERO,
            client_pipeline: 1,
            adaptive_pipeline: false,
        }
    }
}

impl ShardedConfig {
    /// The configuration of client `c`: the deployment's think time and
    /// pipeline policy, with starts staggered by 10 µs per client.
    pub(crate) fn client_config(&self, c: usize) -> ClientConfig {
        let builder = ClientConfig::builder()
            .think_time(self.think_time)
            .start_delay(SimDuration::from_micros(10 * c as u64));
        if self.adaptive_pipeline {
            builder.adaptive_pipeline(self.client_pipeline).build()
        } else {
            builder.pipeline(self.client_pipeline).build()
        }
    }
}

/// A fully assembled sharded OAR deployment: `num_groups` independent server
/// groups plus routing clients, in one simulated world.
pub struct ShardedCluster<S: StateMachine> {
    /// The simulation world. Exposed so experiments can inject crashes,
    /// partitions and custom calls.
    pub world: World<OarWire<S::Command, S::Response>>,
    /// Server identifiers per group, indexed by [`GroupId`].
    pub groups: Vec<Vec<ProcessId>>,
    /// Identifiers of the client processes.
    pub clients: Vec<ProcessId>,
    /// The router shared by all clients.
    pub router: ShardRouter,
    /// The protocol configuration the groups were built with (before
    /// [`OarConfig::for_group`] stamping) — kept for replacement spawns.
    oar: OarConfig,
}

impl<S: StateMachine> ShardedCluster<S>
where
    S::Command: ShardKey,
{
    /// Builds a sharded cluster. `make_sm` creates each replica's initial
    /// state (identical per group — and, as groups own disjoint key ranges,
    /// in practice identical everywhere); `workload_for(client_index)` is
    /// each client's command list, routed per command.
    ///
    /// # Panics
    ///
    /// Panics if the router's group count differs from `config.num_groups`.
    pub fn build(
        config: &ShardedConfig,
        mut make_sm: impl FnMut() -> S,
        mut workload_for: impl FnMut(usize) -> Vec<S::Command>,
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
            let client: ShardedClient<S> = ShardedClient::new(
                ProcessId::new(first_client + c),
                groups.clone(),
                config.router.clone(),
                workload_for(c),
                config.client_config(c),
            );
            clients.push(world.add_process(client));
        }
        ShardedCluster {
            world,
            groups,
            clients,
            router: config.router.clone(),
            oar: config.oar,
        }
    }

    /// Runs the simulation until every client finished its workload or the
    /// horizon is reached. Returns `true` if all clients finished.
    pub fn run_to_completion(&mut self, horizon: SimTime) -> bool {
        run_clients::<S, Sharded>(&mut self.world, &self.clients, horizon)
    }

    /// Whether every client finished its workload.
    pub fn all_clients_done(&self) -> bool {
        clients_done::<S, Sharded>(&self.world, &self.clients)
    }

    /// Read access to server `i` of group `g`.
    pub fn server(&self, g: usize, i: usize) -> &OarServer<S> {
        self.world.process_ref::<OarServer<S>>(self.groups[g][i])
    }

    /// Read access to client `i`.
    pub fn client(&self, i: usize) -> &ShardedClient<S> {
        self.world.process_ref::<ShardedClient<S>>(self.clients[i])
    }

    /// All completed requests of all clients, with their owning group.
    pub fn completed_requests(&self) -> Vec<&CompletedRequest<S::Response>> {
        self.clients
            .iter()
            .flat_map(|&c| {
                self.world
                    .process_ref::<ShardedClient<S>>(c)
                    .completed()
                    .iter()
            })
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

    /// Simulated time of the last completion (zero if nothing completed).
    pub fn last_completion(&self) -> SimTime {
        self.completed_requests()
            .iter()
            .map(|r| r.completed_at)
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

    /// The maximum of `f` over the server stats of group `g` (used for
    /// per-group gauges like the converged batch target, where only the
    /// group's sequencer carries the signal).
    pub fn max_group_stat(&self, g: usize, f: impl Fn(&ServerStats) -> u64) -> u64 {
        self.groups[g]
            .iter()
            .map(|&s| f(&self.world.process_ref::<OarServer<S>>(s).stats()))
            .max()
            .unwrap_or(0)
    }

    /// The maximum of `f` over the server stats of every group (gauge peaks:
    /// `|s| s.seen.peak()`).
    pub fn max_stats(&self, f: impl Fn(&ServerStats) -> u64 + Copy) -> u64 {
        (0..self.groups.len())
            .map(|g| self.max_group_stat(g, f))
            .max()
            .unwrap_or(0)
    }

    /// Network statistics attributed to group `g` (message sends by its
    /// servers: ordering, replies, consensus, heartbeats, repair).
    pub fn group_net_stats(&self, g: usize) -> NetStats {
        self.world.group_stats(GroupId::new(g))
    }

    /// Migrates `range` from group `from` to group `to` online: injects one
    /// [`ReconfigCmd::Migrate`] fence request into *each* of the two groups
    /// (each settles it through its own conservative order — there is no
    /// cross-group agreement), advancing the routing-boundary epoch. The
    /// donor replicas then ship the settled range to every recipient member
    /// over `MigrateState` wires and door-redirect stale traffic.
    /// `fence_command` is the no-op application command carrying each fence.
    ///
    /// The cluster's own router copy advances immediately; the *clients*
    /// learn the new boundary only through `Redirect` wires, like real
    /// stale-routed clients. Returns the settled migration record.
    pub fn inject_migrate(
        &mut self,
        range: KeyRange,
        from: usize,
        to: usize,
        fence_command: S::Command,
    ) -> MigrationRecord {
        assert_ne!(from, to, "migration needs two distinct groups");
        let record = MigrationRecord {
            range,
            from_group: GroupId::new(from),
            to_group: GroupId::new(to),
            route_epoch: self.router.route_epoch() + 1,
        };
        assert!(
            self.router.apply_record(&record),
            "freshly minted record must advance the router"
        );
        // The first client doubles as the admin origin; its ids count down
        // from `u64::MAX` so they can never collide with its own workload
        // sequence, and it ignores the fences' replies as stale.
        let admin = self.clients[0];
        let to_members = self.groups[to].clone();
        for (k, g) in [from, to].into_iter().enumerate() {
            let id = RequestId::new(admin, u64::MAX - 2 * record.route_epoch - k as u64);
            let wire = CastWire {
                id,
                origin: admin,
                payload: Request {
                    id,
                    client: admin,
                    group: GroupId::new(g),
                    txn: None,
                    reconfig: Some(ReconfigCmd::Migrate {
                        record: record.clone(),
                        to_members: to_members.clone(),
                    }),
                    route_epoch: record.route_epoch - 1,
                    command: fence_command.clone(),
                },
            };
            for &s in &self.groups[g] {
                if !self.world.is_crashed(s) {
                    self.world
                        .send_external(admin, s, OarWire::Request(wire.clone()));
                }
            }
        }
        record
    }

    /// Replaces server `old_index` of group `g` by a fresh replica: spawns
    /// the replacement over the post-replacement roster (it joins through
    /// the ordinary `CatchUp*` wires) and injects a [`ReconfigCmd::Replace`]
    /// fence into the group's survivors, which settle it through their
    /// conservative order. Other groups are untouched. Returns the
    /// replacement's process id; `self.groups[g]` tracks the new roster.
    pub fn inject_replace(
        &mut self,
        g: usize,
        old_index: usize,
        fence_command: S::Command,
        make_sm: impl FnOnce() -> S,
    ) -> ProcessId {
        let new = crate::cluster::spawn_replacement(
            &mut self.world,
            &self.groups[g],
            old_index,
            self.oar.for_group(GroupId::new(g)),
            fence_command,
            make_sm(),
        );
        self.world.assign_group(new, GroupId::new(g));
        self.groups[g][old_index] = new;
        new
    }

    /// The settled-state digest of `range` at every server of group `g`
    /// (`None` for servers whose machine does not expose range digests or
    /// are crashed).
    pub fn range_digests(&self, g: usize, range: &KeyRange) -> Vec<Option<u64>> {
        self.groups[g]
            .iter()
            .map(|&s| {
                if self.world.is_crashed(s) {
                    None
                } else {
                    self.world
                        .process_ref::<OarServer<S>>(s)
                        .range_digest(range)
                }
            })
            .collect()
    }

    /// Checks the single-group safety properties (total order, at-most-once,
    /// digest agreement) *inside every group*, plus cross-group isolation:
    /// no request settled by one group ever appears in another group's
    /// sequence. Cross-group *ordering* is explicitly not checked — it is
    /// not a property of the sharded deployment.
    pub fn check_per_group_consistency(&self) -> Result<(), String> {
        check_groups_consistency::<S>(&self.world, &self.groups)
    }

    /// Checks external consistency per group (Proposition 7): every adopted
    /// reply matches, at every alive server of the *owning* group that
    /// settled the request, the position at which that server processed it.
    pub fn check_external_consistency(&self) -> Result<(), String> {
        let adopted = self.clients.iter().flat_map(|&c| {
            let client = self.world.process_ref::<ShardedClient<S>>(c);
            client
                .completed()
                .iter()
                .map(|done| (done.group, done.id, done.position))
        });
        check_adopted_positions::<S>(&self.world, &self.groups, adopted)
    }
}

/// Builds the per-group server layout shared by [`ShardedCluster`] and
/// [`crate::txn::TxnCluster`]: `num_groups` groups of `servers_per_group`
/// consecutive process ids, each server stamped with its group identity and
/// registered with the tracer. The two deployments differ only in the
/// client processes added afterwards.
pub(crate) fn build_group_servers<S: StateMachine>(
    world: &mut World<OarWire<S::Command, S::Response>>,
    config: &ShardedConfig,
    make_sm: &mut impl FnMut() -> S,
) -> Vec<Vec<ProcessId>> {
    let mut groups = Vec::with_capacity(config.num_groups);
    for g in 0..config.num_groups {
        let base = g * config.servers_per_group;
        let ids: Vec<ProcessId> = (base..base + config.servers_per_group)
            .map(ProcessId::new)
            .collect();
        for &id in &ids {
            let server = OarServer::new(
                id,
                ids.clone(),
                config.oar.for_group(GroupId::new(g)),
                make_sm(),
            );
            let assigned = world.add_process(server);
            debug_assert_eq!(assigned, id);
            world.assign_group(assigned, GroupId::new(g));
        }
        groups.push(ids);
    }
    groups
}

/// The per-group safety properties (total order, at-most-once, digest
/// agreement) plus cross-group isolation, over any world holding `groups` of
/// [`OarServer`]s — shared by [`ShardedCluster`] and
/// [`crate::txn::TxnCluster`], whose worlds differ only in their client
/// processes.
pub(crate) fn check_groups_consistency<S: StateMachine>(
    world: &World<OarWire<S::Command, S::Response>>,
    groups: &[Vec<ProcessId>],
) -> Result<(), String> {
    let mut owner_of: HashMap<RequestId, usize> = HashMap::new();
    for (g, servers) in groups.iter().enumerate() {
        let alive = alive_servers::<S>(world, servers);
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

/// The replicas of one group that hold comparable state: not crashed, not
/// mid-catch-up.
pub(crate) fn alive_servers<'w, S: StateMachine>(
    world: &'w World<OarWire<S::Command, S::Response>>,
    servers: &[ProcessId],
) -> Vec<&'w OarServer<S>> {
    servers
        .iter()
        .filter(|&&s| !world.is_crashed(s))
        .map(|&s| world.process_ref::<OarServer<S>>(s))
        .filter(|server| !server.is_recovering())
        .collect()
}

/// External consistency per group (Proposition 7): every `(group, request,
/// position)` a client adopted matches, at every alive server of the owning
/// group that still retains the request, the position at which that server
/// processed it. Compaction-aware: positions are global, and a request a
/// replica compacted into its snapshot is compared at the others.
pub(crate) fn check_adopted_positions<S: StateMachine>(
    world: &World<OarWire<S::Command, S::Response>>,
    groups: &[Vec<ProcessId>],
    adopted: impl IntoIterator<Item = (GroupId, RequestId, u64)>,
) -> Result<(), String> {
    let per_group: Vec<Vec<(ProcessId, HashMap<RequestId, u64>)>> = groups
        .iter()
        .map(|servers| {
            alive_servers::<S>(world, servers)
                .into_iter()
                .map(|server| (server.id(), retained_positions(server)))
                .collect()
        })
        .collect();
    for (group, request, position) in adopted {
        for (s, positions) in &per_group[group.index()] {
            match positions.get(&request) {
                Some(&pos) if pos != position => {
                    return Err(format!(
                        "a client adopted position {position} for {request} but server {s} \
                         of {group} settled it at {pos}"
                    ));
                }
                _ => {}
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, Flavour, OarClient, TxnClient};
    use crate::message::{DeliveryKind, ReplyBatch, ReplyItem};
    use crate::state_machine::StateMachine;
    use crate::txn::MultiOp;
    use oar_simnet::{Process, Runtime};
    use std::collections::BTreeMap;

    /// A minimal keyed service for the sharded tests: per-key counters.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    struct KeyedCounters {
        counts: BTreeMap<String, i64>,
    }

    #[derive(Clone, Debug, PartialEq, Eq)]
    struct AddTo {
        key: String,
        delta: i64,
    }

    impl ShardKey for AddTo {
        fn shard_key(&self) -> &str {
            &self.key
        }
    }

    impl MultiOp for AddTo {
        fn multi(_: Vec<Self>) -> Self {
            unreachable!("the tests submit one-op transactions only")
        }
    }

    impl StateMachine for KeyedCounters {
        type Command = AddTo;
        type Response = i64;
        type Undo = (String, i64);

        fn apply(&mut self, command: &AddTo) -> (i64, (String, i64)) {
            let entry = self.counts.entry(command.key.clone()).or_insert(0);
            let before = *entry;
            *entry += command.delta;
            (*entry, (command.key.clone(), before))
        }

        fn undo(&mut self, (key, before): (String, i64)) {
            self.counts.insert(key, before);
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

    fn workload(client: usize, n: usize) -> Vec<AddTo> {
        (0..n)
            .map(|i| AddTo {
                key: format!("k{}", (client * 7 + i) % 16),
                delta: (i % 5) as i64 + 1,
            })
            .collect()
    }

    fn config(num_groups: usize) -> ShardedConfig {
        ShardedConfig {
            num_groups,
            router: ShardRouter::hash(num_groups),
            ..ShardedConfig::default()
        }
    }

    #[test]
    fn sharded_run_completes_with_per_group_guarantees() {
        let config = config(3);
        let mut cluster: ShardedCluster<KeyedCounters> =
            ShardedCluster::build(&config, KeyedCounters::default, |c| workload(c, 12));
        assert!(cluster.run_to_completion(SimTime::from_secs(30)));
        assert_eq!(cluster.completed_requests().len(), 24);
        cluster.check_per_group_consistency().unwrap();
        cluster.check_external_consistency().unwrap();
        assert_eq!(cluster.sum_stats(|s| s.misrouted), 0);
        // The workload's 16 keys spread over all 3 groups under the hash
        // router, and every group moved traffic of its own.
        let with_requests = (0..3)
            .filter(|&g| cluster.sum_group_stats(g, |st| st.opt_delivered) > 0)
            .count();
        assert!(with_requests >= 2, "keys should spread over groups");
        for g in 0..3 {
            if cluster.sum_group_stats(g, |st| st.opt_delivered) > 0 {
                assert!(cluster.group_net_stats(g).sent > 0);
            }
        }
    }

    #[test]
    fn completions_name_the_owning_group() {
        let config = config(2);
        let mut cluster: ShardedCluster<KeyedCounters> =
            ShardedCluster::build(&config, KeyedCounters::default, |c| workload(c, 8));
        assert!(cluster.run_to_completion(SimTime::from_secs(30)));
        for done in cluster.completed_requests() {
            // The adopting group is the one the router owns the key to; the
            // settled position must exist at that group's servers.
            assert!(done.group.index() < 2);
            let settled_somewhere = cluster.groups[done.group.index()].iter().any(|&s| {
                cluster
                    .world
                    .process_ref::<OarServer<KeyedCounters>>(s)
                    .committed_sequence()
                    .contains(&done.id)
            });
            assert!(settled_somewhere, "{} not settled in its group", done.id);
        }
    }

    #[test]
    fn one_group_sequencer_crash_leaves_other_groups_undisturbed() {
        let config = config(3);
        let mut cluster: ShardedCluster<KeyedCounters> =
            ShardedCluster::build(&config, KeyedCounters::default, |c| workload(c, 10));
        // Crash group 0's initial sequencer (its first server) early.
        let victim = cluster.groups[0][0];
        cluster
            .world
            .schedule_crash(victim, SimTime::from_millis(3));
        assert!(
            cluster.run_to_completion(SimTime::from_secs(60)),
            "all groups (including the one that failed over) must finish"
        );
        cluster.check_per_group_consistency().unwrap();
        cluster.check_external_consistency().unwrap();
        assert_eq!(cluster.sum_stats(|s| s.misrouted), 0);
        // Group 0 failed over (phase 2 ran); the *other* groups never left
        // the optimistic phase — their failure detectors are independent.
        assert!(cluster.sum_group_stats(0, |st| st.phase2_entered) > 0);
        for g in 1..3 {
            assert_eq!(
                cluster.sum_group_stats(g, |st| st.phase2_entered),
                0,
                "group {g} must not react to another group's crash"
            );
        }
    }

    #[test]
    #[should_panic(expected = "disagree on the group count")]
    fn build_rejects_router_group_mismatch() {
        let config = ShardedConfig {
            num_groups: 3,
            router: ShardRouter::hash(2),
            ..ShardedConfig::default()
        };
        let _cluster: ShardedCluster<KeyedCounters> =
            ShardedCluster::build(&config, KeyedCounters::default, |_| Vec::new());
    }

    /// Runs `f` against the client with a throwaway runtime context and
    /// returns the actions it produced.
    fn drive<F: Flavour<i64>>(
        client: &mut Client<KeyedCounters, F>,
        f: impl FnOnce(&mut Client<KeyedCounters, F>, &mut dyn Runtime<OarWire<AddTo, i64>>),
    ) -> Vec<oar_simnet::Action<OarWire<AddTo, i64>>> {
        let mut rng = oar_simnet::SimRng::new(1);
        let mut actions = Vec::new();
        let mut next_timer = 0u64;
        {
            let mut ctx = oar_simnet::Context::new(
                SimTime::from_millis(1),
                client.id(),
                &mut rng,
                &mut actions,
                &mut next_timer,
            );
            f(client, &mut ctx);
        }
        actions
    }

    /// The `(destination, request)` pairs among `actions`.
    fn requests_sent(
        actions: &[oar_simnet::Action<OarWire<AddTo, i64>>],
    ) -> Vec<(ProcessId, &Request<AddTo>)> {
        actions
            .iter()
            .filter_map(|a| match a {
                oar_simnet::Action::Send { to, msg } => {
                    let wire = match msg {
                        oar_simnet::Payload::Owned(m) => m,
                        oar_simnet::Payload::Shared(s) => s.as_ref(),
                    };
                    match wire {
                        OarWire::Request(cast) => Some((*to, &cast.payload)),
                        _ => None,
                    }
                }
                _ => None,
            })
            .collect()
    }

    /// The REVIEW regression: a `Redirect` re-sends exactly the requests it
    /// names as dropped — an outstanding request the donor group already
    /// ordered (whose effect travels in the hand-off) must NOT be re-sent
    /// to the recipient, whose seen-set would execute it a second time.
    #[test]
    fn redirect_re_sends_only_the_dropped_requests() {
        let groups: Vec<Vec<ProcessId>> = vec![
            (0..3).map(ProcessId::new).collect(),
            (3..6).map(ProcessId::new).collect(),
        ];
        // Keys below "m" start at group 0.
        let router = ShardRouter::range(vec!["m".into()]);
        let workload = vec![
            AddTo {
                key: "b".into(),
                delta: 1,
            },
            AddTo {
                key: "c".into(),
                delta: 1,
            },
        ];
        let mut client: ShardedClient<KeyedCounters> = ShardedClient::new(
            ProcessId::new(9),
            groups,
            router,
            workload,
            ClientConfig::builder().pipeline(2).build(),
        );
        let actions = drive(&mut client, |c, ctx| c.on_start(ctx));
        let initial = requests_sent(&actions);
        assert_eq!(initial.len(), 6, "two requests to three group-0 members");
        assert!(initial.iter().all(|(to, _)| to.index() < 3));
        let dropped_id = RequestId::new(ProcessId::new(9), 0); // key "b"
        let ordered_id = RequestId::new(ProcessId::new(9), 1); // key "c"

        // [b, c) migrated to group 1; the donor door-dropped only the "b"
        // request (the "c" one it had already ordered).
        let record = MigrationRecord {
            range: KeyRange::new("b", "c"),
            from_group: GroupId::new(0),
            to_group: GroupId::new(1),
            route_epoch: 1,
        };
        let actions = drive(&mut client, |c, ctx| {
            c.on_message(
                ctx,
                ProcessId::new(0),
                OarWire::Redirect {
                    records: vec![record.clone()],
                    dropped: vec![dropped_id],
                },
            );
        });
        let resent = requests_sent(&actions);
        assert_eq!(resent.len(), 3, "one request to three group-1 members");
        for (to, request) in &resent {
            assert!((3..6).contains(&to.index()), "re-sent to the recipient");
            assert_eq!(request.id, dropped_id, "only the dropped id re-sent");
            assert_eq!(request.route_epoch, 1, "re-sent under the fresh stamp");
        }
        assert!(
            resent.iter().all(|(_, r)| r.id != ordered_id),
            "the donor-ordered request must not be re-sent"
        );

        // A duplicate redirect (another donor member door-dropped the same
        // request) is absorbed by the route-epoch de-duplication.
        let actions = drive(&mut client, |c, ctx| {
            c.on_message(
                ctx,
                ProcessId::new(1),
                OarWire::Redirect {
                    records: vec![record],
                    dropped: vec![dropped_id],
                },
            );
        });
        assert!(requests_sent(&actions).is_empty(), "duplicate absorbed");
    }

    /// A single-group client is the one-group routed client: the same
    /// workload through an `OarClient`, a `ShardedClient` over one hash
    /// group and a `TxnClient` of one-op transactions emits the same
    /// `Request` wires in the same order — ids, targets, group stamp,
    /// routing epoch and no transaction envelope — for the first window and
    /// for the refill after an adoption.
    #[test]
    fn one_group_clients_send_identical_request_wires() {
        fn wires<F: Flavour<i64>>(
            client: &mut Client<KeyedCounters, F>,
        ) -> Vec<(ProcessId, Request<AddTo>)> {
            let first = RequestId::new(client.id(), 0);
            let quorum = OarWire::Replies(ReplyBatch {
                epoch: 0,
                weight: [ProcessId::new(0), ProcessId::new(1)].into(),
                from: ProcessId::new(0),
                kind: DeliveryKind::Optimistic,
                batch_hint: 1,
                items: vec![ReplyItem {
                    request: first,
                    position: 1,
                    response: 1,
                }],
            });
            let actions = drive(client, |c, ctx| {
                c.on_start(ctx);
                c.on_message(ctx, ProcessId::new(0), quorum);
            });
            assert_eq!(client.completed().len(), 1, "the first request adopted");
            requests_sent(&actions)
                .into_iter()
                .map(|(to, request)| (to, request.clone()))
                .collect()
        }
        let servers: Vec<ProcessId> = (0..3).map(ProcessId::new).collect();
        let id = ProcessId::new(3);
        let ops = workload(0, 6);
        let config = || ClientConfig::builder().pipeline(4).build();

        let mut plain: OarClient<KeyedCounters> =
            OarClient::new(id, servers.clone(), ops.clone(), config());
        let expected = wires(&mut plain);
        assert_eq!(expected.len(), 5 * 3, "a window of four plus one refill");
        for (k, (to, request)) in expected.iter().enumerate() {
            assert_eq!(*to, servers[k % 3]);
            assert_eq!(request.id, RequestId::new(id, (k / 3) as u64));
            assert_eq!(request.command, ops[k / 3]);
            assert_eq!(
                (request.group, request.route_epoch, &request.txn),
                (GroupId::new(0), 0, &None)
            );
        }

        let mut sharded: ShardedClient<KeyedCounters> = ShardedClient::new(
            id,
            vec![servers.clone()],
            ShardRouter::hash(1),
            ops.clone(),
            config(),
        );
        assert_eq!(wires(&mut sharded), expected);

        let txns = ops.iter().map(|op| vec![op.clone()]).collect();
        let mut txn: TxnClient<KeyedCounters> =
            TxnClient::new(id, vec![servers], ShardRouter::hash(1), txns, config());
        assert_eq!(wires(&mut txn), expected);
    }
}
