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
//! transaction's key set with the [`ShardRouter`](crate::ShardRouter):
//!
//! * **Single-group fast path.** If every key is owned by one group, the ops
//!   collapse into one atomic command ([`MultiOp::multi`]) submitted exactly
//!   like a plain sharded request — same single `R-multicast` to the owning
//!   group, no envelope, no extra wire anywhere. The `txn-smoke` harness
//!   gate counts this: a single-group transactional workload produces wire
//!   traffic *identical* to the equivalent [`crate::ShardedClient`]
//!   workload.
//! * **Multi-group commit.** Otherwise the client sends one `TxnPrepare`
//!   request per participating group — the group's partition of the ops as
//!   one atomic command, stamped with a [`crate::message::TxnEnvelope`]
//!   naming the transaction and all participants. Each group orders its
//!   prepare through its **own** OAR total order and applies it
//!   optimistically like any other request (one command, one
//!   [`StateMachine::apply`], so the partition is atomic within the group's
//!   delivery by construction). The client runs the Fig. 5 weighted-quorum
//!   rule *per participating group* and declares the transaction
//!   **committed** once the rule holds in every one of them.
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
//!
//! The deployment is [`TxnCluster`]: the one [`Deployment`] harness running
//! [`TxnClient`]s, whose run loop, statistics readers and per-group checks
//! (external consistency per part included) every deployment shares. This
//! module adds the transactional check, [`TxnCluster::check_txn_atomicity`].

pub use crate::client::{TxnClient, TxnCompleted};

use crate::cluster::{ClusterConfig, Deployment};
use crate::shard::ShardKey;
use crate::state_machine::StateMachine;

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

/// A sharded OAR deployment driven by transactional clients: the same
/// per-group server layout as [`crate::ShardedCluster`], with
/// [`TxnClient`]s submitting multi-key transactions.
pub type TxnCluster<S> = Deployment<TxnClient<S>>;

impl<S: StateMachine> TxnCluster<S>
where
    S::Command: MultiOp,
{
    /// Builds a transactional cluster; `config.client_pipeline` is the
    /// per-client window of outstanding *transactions*.
    /// `workload_for(client_index)` is each client's transaction list (each
    /// transaction a non-empty op list).
    ///
    /// # Panics
    ///
    /// Panics if the router's group count differs from `config.num_groups`.
    pub fn build(
        config: &ClusterConfig,
        make_sm: impl FnMut() -> S,
        workload_for: impl FnMut(usize) -> Vec<Vec<S::Command>>,
    ) -> Self {
        Self::deploy(config, make_sm, workload_for, |id, groups, router, w, c| {
            TxnClient::new(id, groups.to_vec(), router, w, c)
        })
    }

    /// Committed transactions that spanned more than one group.
    pub fn multi_group_commits(&self) -> usize {
        self.completed()
            .iter()
            .filter(|t| t.is_multi_group())
            .count()
    }

    /// Atomicity of committed transactions: every per-group prepare of every
    /// committed transaction is settled in its owning group's delivery
    /// order — no group applies a committed transaction's writes while
    /// another participating group drops them.
    pub fn check_txn_atomicity(&self) -> Result<(), String> {
        for txn in self.completed() {
            for part in &txn.parts {
                let servers = self.checkable(part.group.index());
                if !servers.iter().any(|s| s.has_delivered(&part.id)) {
                    return Err(format!(
                        "atomicity violated: {} committed but group {} has no trace of \
                         its prepare {}",
                        txn.id, part.group, part.id
                    ));
                }
            }
        }
        Ok(())
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
    use crate::shard::ShardRouter;
    use crate::sharded::ShardedCluster;
    use crate::{ClientConfig, OarConfig, OarServer};
    use oar_simnet::{GroupId, NetConfig, ProcessId, SimTime, World};
    use std::collections::BTreeMap;

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

    fn config(num_groups: usize, seed: u64) -> ClusterConfig {
        ClusterConfig {
            num_groups,
            num_clients: 2,
            router: ShardRouter::hash(num_groups),
            seed,
            ..ClusterConfig::default()
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
        assert_eq!(cluster.completed().len(), 20);
        cluster.check_all().unwrap();
        assert_eq!(cluster.sum_stats(|s| s.misrouted), 0);
        // The 12-key pool spans groups: some transactions must have paid the
        // multi-group commit, and their prepares carried envelopes.
        assert!(cluster.multi_group_commits() > 0);
        assert!(cluster.sum_stats(|s| s.txn_prepares) > 0);
        // Every committed part reports a plausible weight: 2 (optimistic) in
        // this failure-free run.
        for txn in cluster.completed() {
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
        assert_eq!(txn_cluster.completed().len(), 2 * n);
    }

    #[test]
    fn commit_survives_a_participating_groups_sequencer_crash() {
        let config = config(3, 31);
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

    /// A deployment assembled by hand — servers, group stamps and clients
    /// added to a bare world, the way a benchmark builds its own — is
    /// checked through the four-field struct literal of [`TxnCluster`].
    #[test]
    fn a_hand_built_world_is_checked_through_the_struct_literal() {
        let router = ShardRouter::hash(2);
        let mut world = World::new(NetConfig::lan(), 5);
        let mut groups = Vec::new();
        for g in 0..2 {
            let ids: Vec<ProcessId> = (3 * g..3 * g + 3).map(ProcessId::new).collect();
            for &id in &ids {
                let oar = OarConfig::default().for_group(GroupId::new(g));
                world.add_process(OarServer::new(id, ids.clone(), oar, TxnCounters::default()));
                world.assign_group(id, GroupId::new(g));
            }
            groups.push(ids);
        }
        let clients: Vec<ProcessId> = (0..2)
            .map(|c| {
                let id = ProcessId::new(6 + c);
                let workload = txn_workload(c, 6);
                let config = ClientConfig::default();
                let client = TxnClient::<TxnCounters>::new(
                    id,
                    groups.clone(),
                    router.clone(),
                    workload,
                    config,
                );
                world.add_process(client)
            })
            .collect();
        world.run_until(SimTime::from_secs(5));
        let cluster: TxnCluster<TxnCounters> = TxnCluster {
            world,
            groups,
            clients,
            router,
        };
        assert!(cluster.all_clients_done());
        assert_eq!(cluster.completed().len(), 12);
        cluster.check_per_group_consistency().unwrap();
        cluster.check_all().unwrap();
    }
}
