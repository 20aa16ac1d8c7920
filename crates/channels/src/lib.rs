//! # oar-channels — group-communication toolkit for the OAR protocol
//!
//! The building blocks below the replication protocol:
//!
//! * [`FifoLink`] — reliable FIFO point-to-point channels over lossy,
//!   reordering links (sequence numbers, cumulative acks, retransmission);
//! * [`ReliableCaster`] — the paper's `R-multicast(m, Π)` / `R-broadcast`
//!   primitives (Validity, Agreement, Integrity): one wire per member from
//!   the sender, relay on first reception for broadcasts among members;
//! * [`Outgoing`] / [`MsgId`] — shared plumbing for writing protocol
//!   components as pure, host-driven state machines.
//!
//! Every component in this crate is a plain state machine with no dependency on
//! the simulator's event loop: the host process feeds it incoming wire messages
//! and periodic ticks, and forwards the [`Outgoing`] messages it produces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod component;
pub mod fifo;
pub mod rmulticast;

pub use component::{map_outgoing, MsgId, Outgoing};
pub use fifo::{FifoLink, FifoWire};
pub use rmulticast::{CastWire, Delivery, ReliableCaster};
