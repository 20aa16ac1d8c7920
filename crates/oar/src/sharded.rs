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
//! drop + count mismatches ([`crate::ServerStats::misrouted`]); the
//! experiment harness gates on the count staying zero.
//!
//! The deployment is [`ShardedCluster`]: the one [`Deployment`] harness
//! running [`ShardedClient`]s, with the run loop, statistics readers and
//! per-group checks every deployment shares. What is particular to sharding
//! lives here: its constructor, online key-range migration
//! ([`ShardedCluster::inject_migrate`]) and per-range digests.

use oar_channels::CastWire;
use oar_simnet::GroupId;

use crate::client::ShardedClient;
use crate::cluster::{ClusterConfig, Deployment};
use crate::message::{OarWire, ReconfigCmd, Request, RequestId};
use crate::server::OarServer;
use crate::shard::{KeyRange, MigrationRecord, ShardKey};
use crate::state_machine::StateMachine;

/// A sharded deployment: `num_groups` independent server groups plus
/// [`ShardedClient`]s routing every command to the group owning its key.
pub type ShardedCluster<S> = Deployment<ShardedClient<S>>;

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
        config: &ClusterConfig,
        make_sm: impl FnMut() -> S,
        workload_for: impl FnMut(usize) -> Vec<S::Command>,
    ) -> Self {
        Self::deploy(config, make_sm, workload_for, |id, groups, router, w, c| {
            ShardedClient::new(id, groups.to_vec(), router, w, c)
        })
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, Flavour, OarClient, TxnClient};
    use crate::config::ClientConfig;
    use crate::message::{DeliveryKind, ReplyBatch, ReplyItem};
    use crate::shard::ShardRouter;
    use crate::txn::MultiOp;
    use oar_simnet::{Process, ProcessId, Runtime, SimTime};
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

    fn config(num_groups: usize) -> ClusterConfig {
        ClusterConfig {
            num_groups,
            num_clients: 2,
            router: ShardRouter::hash(num_groups),
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn sharded_run_completes_with_per_group_guarantees() {
        let config = config(3);
        let mut cluster: ShardedCluster<KeyedCounters> =
            ShardedCluster::build(&config, KeyedCounters::default, |c| workload(c, 12));
        assert!(cluster.run_to_completion(SimTime::from_secs(30)));
        assert_eq!(cluster.completed().len(), 24);
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
        for done in cluster.completed() {
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
        let config = ClusterConfig {
            num_groups: 3,
            router: ShardRouter::hash(2),
            ..ClusterConfig::default()
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
