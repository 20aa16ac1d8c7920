//! # oar — Optimistic Active Replication
//!
//! A faithful, executable implementation of the **OAR algorithm** of Felber &
//! Schiper, *Optimistic Active Replication* (ICDCS 2001): active replication
//! whose Atomic Broadcast is opened up ("white box") so that the protocol can
//! deliver optimistically — with sequencer-based, single-phase ordering — while
//! guaranteeing that clients never adopt a reply that could be invalidated.
//!
//! ## Protocol in one paragraph
//!
//! Clients `R-multicast` their request to the server group `Π` and wait for a
//! **weighted quorum** of replies ([`client`], Fig. 5). Servers run
//! in epochs ([`server::OarServer`], Fig. 6): during the optimistic phase a
//! sequencer orders requests in one communication step and every server
//! `Opt-deliver`s them immediately, replying with a small weight; if the
//! sequencer is suspected, the group switches to the conservative phase, where
//! `Cnsv-order` ([`cnsv_order`]) — reduced to a Maj-validity consensus
//! ([`oar_consensus`]) — closes the epoch, possibly `Opt-undeliver`ing requests
//! that a suspected minority had delivered out of order, and `A-deliver`s the
//! agreed sequence with full weight `Π`.
//!
//! ## Crate layout
//!
//! * [`state_machine`] — the deterministic, undoable replicated-service trait,
//!   plus the [`ConflictKeys`] footprint declaration commands opt into;
//! * [`parallel`] — conflict-graph wave scheduling of `apply` across a
//!   `std::thread::scope` worker pool: non-conflicting commands of one
//!   delivery batch execute concurrently, bit-identically to serial apply;
//! * [`message`] — requests, weighted replies, ordering messages, wire enum;
//! * [`cnsv_order`] — the pure `Cnsv-order` procedure (Fig. 7) and its
//!   property-tested specification (§5.4);
//! * [`server`] — the replica, as a process of either runtime, with its
//!   snapshot/catch-up recovery and the divergence detector that sends a
//!   replica out-voted on its settled digest through that catch-up;
//! * [`client`] — the one client: it routes each submission (a command or a
//!   transaction), keeps a Fig. 5 quorum per part and paces by window or
//!   schedule; [`OarClient`], [`OpenLoopClient`], [`ShardedClient`] and
//!   [`TxnClient`] are its flavours;
//! * [`cluster`] — the one deployment harness, [`Deployment`]: server groups
//!   plus clients in a simulated world, its run loop, statistics readers
//!   and safety checks, for tests, examples and experiments; [`Cluster`],
//!   [`ShardedCluster`] and [`TxnCluster`] are its three flavours;
//! * [`shard`] / [`sharded`] — key-space partitioning over several
//!   independent OAR groups (the router, and the sharded deployment's
//!   constructor and online migration), the scale-out layer beyond one
//!   sequencer;
//! * [`txn`] — client-side multi-key transactions over the sharded
//!   deployment: single-group fast path (zero extra wires), per-group
//!   `TxnPrepare` commit for multi-group key sets ([`MultiOp`] and the
//!   transactional deployment's checks);
//! * [`adaptive`] — load-driven controllers for the sequencer's batch
//!   threshold and the clients' pipeline windows, converging to the paper's
//!   unbatched behaviour under light load and amortised batches under
//!   pressure;
//! * [`config`] — protocol tuning knobs (failure-detector timeout, batching,
//!   epoch cutting, group identity) behind one validated fluent builder.
//!
//! ## Quick start
//!
//! ```
//! use oar::cluster::{Cluster, ClusterConfig};
//! use oar::state_machine::{CounterCommand, CounterMachine};
//! use oar_simnet::SimTime;
//!
//! let config = ClusterConfig { num_servers: 3, num_clients: 1, ..Default::default() };
//! let mut cluster: Cluster<CounterMachine> = Cluster::build(
//!     &config,
//!     CounterMachine::default,
//!     |_client| vec![CounterCommand::Add(1), CounterCommand::Add(2)],
//! );
//! assert!(cluster.run_to_completion(SimTime::from_secs(5)));
//! assert_eq!(cluster.completed().len(), 2);
//! cluster.check_per_group_consistency().unwrap();
//! cluster.check_external_consistency().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod client;
pub mod cluster;
pub mod cnsv_order;
pub mod config;
pub mod consistency;
pub mod message;
pub mod parallel;
pub mod server;
pub mod shard;
pub mod sharded;
pub mod state_machine;
pub mod txn;

pub use adaptive::{AdaptiveConfig, BatchController, PipelineController, PipelineStats};
pub use client::{
    Client, ClosedLoop, CompletedRequest, Flavour, OarClient, OpenLoop, OpenLoopClient,
    QuorumTracker, Sharded, ShardedClient, Transactional, TxnClient, TxnCompleted,
};
pub use cluster::{
    run_until_done, spawn_replacement, Cluster, ClusterConfig, DeployedClient, Deployment,
};
pub use cnsv_order::{cnsv_order_outcome, CnsvOutcome};
pub use config::{ClientConfig, ClientConfigBuilder, OarConfig, OarConfigBuilder, PipelineMode};
pub use consistency::{check_external_consistency, check_server_consistency};
pub use message::{
    majority, CatchUpReply, CnsvValue, DeliveryKind, OarWire, OrderMsg, PhaseIIMsg, ReconfigCmd,
    Reply, Request, RequestId, Settled, TxnEnvelope, TxnId, Weight,
};
pub use parallel::{plan_waves, wave_apply, ParallelStateMachine};
pub use server::{OarServer, Phase, ServerStats};
pub use shard::{KeyRange, MigrationRecord, Partitioner, ShardKey, ShardRouter};
pub use sharded::ShardedCluster;
pub use state_machine::{
    AppliedBatch, ConflictKeys, KeySet, Snapshottable, StateImage, StateMachine,
};
pub use txn::{MultiOp, TxnCluster};
