//! The per-server protocol counters.

use oar_simnet::{BucketHistogram, PeakGauge};

use crate::config::OarConfig;

/// Counters maintained by each server, used by the experiment harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests delivered optimistically (phase 1).
    pub opt_delivered: u64,
    /// Optimistic deliveries that were undone.
    pub opt_undelivered: u64,
    /// Requests delivered conservatively (phase 2).
    pub a_delivered: u64,
    /// Number of times the server entered phase 2.
    pub phase2_entered: u64,
    /// Number of epochs completed (phase 2 finished).
    pub epochs_completed: u64,
    /// Ordering messages sent while acting as the sequencer.
    pub order_messages_sent: u64,
    /// `ReplyBatch` wires sent to clients (one per client per delivery
    /// batch). With reply batching this drops below `replies_sent`.
    pub reply_messages_sent: u64,
    /// Individual request replies carried by those wires.
    pub replies_sent: u64,
    /// Consensus wire allocations: each counts one message construction,
    /// however many destinations the shared payload reaches.
    pub consensus_wires_sent: u64,
    /// Per-destination consensus deliveries requested (the count the
    /// pre-clone implementation would have allocated).
    pub consensus_messages_sent: u64,
    /// Request payloads pruned by the epoch-watermark garbage collector.
    pub payloads_pruned: u64,
    /// Current and peak size of the `payloads` map.
    pub payloads: PeakGauge,
    /// Requests that arrived stamped for a *different* replication group and
    /// were dropped. Must stay 0 in a correctly routed sharded deployment.
    pub misrouted: u64,
    /// Requests carrying a transaction envelope (`TxnPrepare` legs of
    /// multi-group transactions) buffered by this server. Single-group
    /// fast-path transactions carry no envelope and are **not** counted —
    /// the `txn-smoke` gate relies on that to show the fast path is
    /// wire-identical to the plain sharded client.
    pub txn_prepares: u64,
    /// Current and peak size of the `PhaseII` broadcast's duplicate-
    /// suppression (`seen`) set, bounded by the same epoch-watermark rule
    /// as `payloads`.
    pub seen: PeakGauge,
    /// Size of the last (current) and largest `OrderMsg` batch this server
    /// emitted as the sequencer.
    pub effective_batch: PeakGauge,
    /// Distribution of the `OrderMsg` batch sizes emitted as the sequencer
    /// (power-of-two buckets).
    pub batch_sizes: BucketHistogram,
    /// The batch threshold currently in force: the static
    /// `OarConfig::max_batch`, or the adaptive controller's converged
    /// target.
    pub batch_target: u64,
    /// Times the adaptive controller raised its target (0 for static
    /// configurations) — the convergence counter of the `adaptive` gate.
    pub target_raises: u64,
    /// Times the adaptive controller lowered its target (idle decay
    /// included).
    pub target_drops: u64,
    /// Partial batches ordered by the flush-deadline timer (as opposed to
    /// reaching the batch threshold or the maintenance tick).
    pub deadline_flushes: u64,
    /// Cumulative **real wall-clock** nanoseconds this server spent inside
    /// `StateMachine` application (optimistic and conservative deliveries).
    /// Unlike every other counter this measures host time, not simulated
    /// time: it is what the parallel-apply stage actually changes, and it is
    /// excluded from all determinism comparisons.
    pub apply_ns: u64,
    /// Distribution of the apply scheduler's wave sizes (power-of-two
    /// buckets). Serial application records every command as a singleton
    /// wave; with [`OarConfig::parallel_apply`] set, larger waves show how
    /// much of each delivery batch was conflict-free.
    pub wave_sizes: BucketHistogram,
    /// Current and peak length of the *retained* `A_delivered` log. With
    /// [`OarConfig::snapshot_every`] set this is bounded by the snapshot
    /// window instead of growing with the run — the compaction gate of the
    /// recovery benchmark.
    pub a_delivered_len: PeakGauge,
    /// Current and peak depth of the optimistic undo stack (bounded by the
    /// epoch cut; compaction never needs to prune it because epoch close
    /// already drops the settled epoch's tokens).
    pub undo_depth: PeakGauge,
    /// Snapshots captured at epoch closes (each also compacts the log).
    pub snapshots_taken: u64,
    /// `A_delivered` entries pruned by log compaction, cumulative.
    pub compacted: u64,
    /// `CatchUpRequest` wires sent while recovering (attempt count).
    pub catch_up_requests: u64,
    /// `CatchUpReply` wires served to rejoining peers (donor side).
    pub catch_up_replies: u64,
    /// Times a majority of the group reported this replica's own settled
    /// watermark with one digest that differs from its own — a replica that
    /// left the deterministic order. Each one sends the replica back through
    /// catch-up (if its machine snapshots and forks). 0 in every run of a
    /// correct protocol.
    pub divergences: u64,
    /// Length of the settled-command delta replayed by the last successful
    /// catch-up install (0 until a catch-up completed). Together with the
    /// snapshot position this shows the rejoin was snapshot + delta, not a
    /// full replay.
    pub catch_up_delta: u64,
    /// Delivery position of the snapshot image installed by the last
    /// successful catch-up (the prefix the rejoiner did *not* replay).
    pub catch_up_snapshot_position: u64,
    /// `PayloadFetch` wires sent to pull payloads of ordered or decided
    /// requests that never arrived from their client.
    pub payload_fetches: u64,
    /// `PayloadFill` wires served to peers (donor side).
    pub payload_fills: u64,
    /// `PayloadFill` wires pushed to peers for requests that stalled
    /// unordered (one per destination). 0 in a failure-free run.
    pub payload_pushes: u64,
    /// Consensus instances whose messages were re-sent after stalling (the
    /// crash-recovery repair of the quasi-reliable-channel assumption).
    pub consensus_retransmits: u64,
    /// Requests door-dropped for stale routing (an old boundary epoch, or a
    /// key this group has migrated away) and answered with a `Redirect`.
    pub redirected: u64,
    /// Reconfiguration fence commands whose effects this server applied at
    /// an epoch close (`Replace` membership swaps and `Migrate` records).
    pub reconfigs_applied: u64,
    /// Key-range migrations this server completed as a donor member
    /// (extracted the range and shipped the hand-off).
    pub migrations_out: u64,
    /// Key-range migrations this server recorded as a recipient member.
    pub migrations_in: u64,
    /// `MigrateState` hand-off wires sent to recipient members (donor side).
    pub migrate_state_wires: u64,
    /// Digest of the entries extracted by the last donor-side migration
    /// (what the hand-off shipped; 0 until a migration ran).
    pub migrate_out_digest: u64,
    /// Digest of the last verified incoming `MigrateState` (must match the
    /// donor's `migrate_out_digest`; 0 until a hand-off arrived).
    pub migrate_in_digest: u64,
}

impl ServerStats {
    /// Zeroed counters, with `batch_target` at the threshold the server
    /// starts with.
    pub(super) fn new(config: &OarConfig) -> Self {
        ServerStats {
            batch_target: match config.adaptive {
                Some(_) => 1, // the controller starts unbatched
                None => config.max_batch.max(1) as u64,
            },
            ..ServerStats::default()
        }
    }

    /// Commands applied through multi-command waves (wave size ≥ 2) — how
    /// much of the workload the conflict-graph scheduler actually ran
    /// concurrently.
    pub fn wave_commands(&self) -> u64 {
        self.wave_sizes.sum() - self.wave_sizes.counts()[0]
    }
}
