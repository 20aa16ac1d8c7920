//! What one round of a workload reports, and the set-up all rounds share.
//!
//! A run is a sequence of rounds: each builds a fresh group, drives one
//! seeded command stream through it, checks the outputs and is measured on
//! its own. The run reports medians over its rounds, which is what keeps a
//! single scheduler hiccup out of the result.

use oar::{AdaptiveConfig, OarConfigBuilder};

use crate::oracle::Server;
use crate::stats;

/// Servers per group in every workload.
pub const REPLICAS: usize = 3;

/// The production configuration: adaptive batching, an epoch cut every
/// `epoch_cut_after` requests (so state stays bounded however long the run)
/// and a snapshot every fourth epoch.
pub fn group_config(epoch_cut_after: u64) -> OarConfigBuilder {
    oar::OarConfig::builder()
        .adaptive(AdaptiveConfig::default())
        .epoch_cut_after(epoch_cut_after)
        .snapshot_every(4)
}

/// Epochs one group has closed: its furthest replica's count.
pub fn epochs_closed(replicas: &[&Server]) -> u64 {
    replicas
        .iter()
        .map(|r| r.stats().epochs_completed)
        .max()
        .unwrap_or(0)
}

#[derive(Default)]
pub struct Round {
    /// Building the group and its clients, up to the first request sent.
    pub setup_s: f64,
    /// First request sent to last reply adopted: wall-clock on `rt_*`, host
    /// time of the simulated run on `sim_*`.
    pub wall_s: f64,
    /// CPU time of the whole process over the same interval.
    pub cpu_s: f64,
    /// Peak resident set size of the process during the round, filled in by
    /// the run loop.
    pub peak_rss_mb: f64,
    /// The same interval on the network's clock: equal to `wall_s` on
    /// `rt_*`, simulated seconds on `sim_*`.
    pub clock_s: f64,
    /// Epochs the group closed (summed over groups).
    pub epochs: u64,
    pub attempted: usize,
    pub completed: usize,
    /// Not answered by the drain deadline, or answered wrongly.
    pub failed: usize,
    /// Client-observed latency of each completed request, sorted.
    pub latency_us: Vec<f64>,
    /// Oracle violations; any makes the run incorrect.
    pub errors: Vec<String>,
    /// Layer figures the round measures itself, by metric name.
    pub layer: Vec<(&'static str, f64)>,
    /// All replicas' final state digests folded together (`sim_*` only),
    /// for the determinism tests.
    #[cfg_attr(not(test), allow(dead_code))]
    pub state_digest: u64,
}

impl Round {
    pub fn throughput_rps(&self) -> f64 {
        self.completed as f64 / self.wall_s
    }

    pub fn latency_quantile(&self, q: f64) -> f64 {
        stats::quantile_sorted(&self.latency_us, q)
    }

    pub fn layer_value(&self, name: &str) -> Option<f64> {
        self.layer.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}
