//! # oar-bench — experiment harness for the OAR reproduction
//!
//! * [`figures`] — deterministic reproductions of the paper's execution
//!   scenarios (Figures 1–4), each returning the measured facts and a textual
//!   timeline;
//! * [`experiments`] — the quantitative claims (latency vs the baselines,
//!   fail-over time, Opt-undeliver frequency, throughput, the §5.3 epoch-cut
//!   ablation, and the gates of every layer added since), each a function
//!   returning [`row::Row`]s next to the [`gate::Bound`] table that must hold
//!   of them;
//! * [`registry`] — the one list of experiments the `harness` binary, CI and
//!   the docs are derived from.
//!
//! The `harness` binary (`cargo run -p oar-bench --bin harness -- <experiment>`)
//! prints the rows as a table plus JSON. Every gated experiment also runs at
//! its smoke size under `cargo test`, against its own bounds; host-time
//! measurement lives in the separate benchmark package
//! (`crates/bench/src/bin/benchmark/`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod figures;
pub mod gate;
pub mod registry;
pub mod row;

pub use figures::{all_figures, FigureOutcome};
