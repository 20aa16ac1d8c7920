//! Configuration of the OAR servers and clients.

use oar_fd::FdConfig;
use oar_simnet::{GroupId, SimDuration};

use crate::adaptive::AdaptiveConfig;

/// Configuration shared by all servers of an OAR group.
///
/// Construct one with [`OarConfig::builder`] — the builder is the single
/// place that validates field combinations (batch sizes, adaptive-mode
/// conflicts).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OarConfig {
    /// Identity of the replication group these servers form. Single-group
    /// deployments (the paper's setting) keep the default `g0`; sharded
    /// deployments give each group its own id, which servers check against
    /// incoming requests to detect misroutes.
    pub group: GroupId,
    /// Failure-detector parameters (heartbeat interval, suspicion timeout).
    /// The timeout is the main knob of the fail-over experiments.
    pub fd: FdConfig,
    /// Period of the servers' maintenance timer, which drives heartbeats,
    /// suspicion checks and sequencer batching.
    pub tick_interval: SimDuration,
    /// Sequencer batching knob (Task 1a). The sequencer accumulates unordered
    /// request ids and emits one `OrderMsg` carrying the whole batch as soon
    /// as the backlog reaches `max_batch`; a smaller backlog is flushed by the
    /// next maintenance tick. `1` (the default) reproduces the paper's unbatched behaviour —
    /// one ordering broadcast per request — while larger values amortise the
    /// reliable-multicast cost across the batch. Ignored when
    /// [`OarConfig::adaptive`] is set: the controller then owns the
    /// threshold.
    pub max_batch: usize,
    /// Adaptive batching mode: when set, a
    /// [`crate::adaptive::BatchController`] drives the sequencer's effective
    /// batch threshold from the observed arrival rate and backlog instead of
    /// the static [`OarConfig::max_batch`], and partial batches flush after
    /// [`AdaptiveConfig::max_delay`].
    pub adaptive: Option<AdaptiveConfig>,
    /// §5.3 remark: if set, a sequencer that has Opt-delivered this many
    /// requests in the current epoch proactively R-broadcasts `PhaseII` so the
    /// epoch is cut and `O_delivered` garbage-collected.
    pub epoch_cut_after: Option<u64>,
    /// Parallel apply: when `Some(workers)`, each delivery batch (optimistic
    /// drain or conservative decision) is handed to
    /// [`StateMachine::apply_batch`](crate::state_machine::StateMachine::apply_batch)
    /// with this worker count, so machines that override it — e.g. via
    /// [`crate::parallel::wave_apply`] — execute non-conflicting commands
    /// concurrently. Responses and state stay bit-identical to serial apply;
    /// only the replica's apply-stage wall-clock changes
    /// (`ServerStats::apply_ns`, `ServerStats::wave_sizes`). `None` (the
    /// default) keeps the serial per-command path.
    pub parallel_apply: Option<usize>,
    /// Snapshot/compaction period, in closed epochs: when `Some(k)`, every
    /// `k`-th epoch close takes a state snapshot (if the machine supports
    /// [`Snapshottable`](crate::state_machine::Snapshottable)) and compacts
    /// `A_delivered` and the settled-command log below the snapshot position.
    /// Epoch closes are deterministic group-wide (every replica closes each
    /// epoch with the identical decision), so all replicas snapshot at the
    /// same positions. `None` (the default) keeps the historical unbounded
    /// log.
    pub snapshot_every: Option<u64>,
    /// Base delay of a rejoining replica's catch-up retry timer: if the
    /// chosen donor has not answered a `CatchUpRequest` within this time, the
    /// rejoiner rotates to the next donor with exponential backoff (capped at
    /// 8× base). Also paces `PayloadFetch` retries after rejoin.
    pub catch_up_retry: SimDuration,
    /// **Test-only fault toggle** for the model checker: when `true`, servers
    /// skip the Task 1c re-check that runs when an epoch decision hands the
    /// new epoch to an already-suspected sequencer (and the matching
    /// maintenance-tick safety net). This reintroduces a historical bug — an
    /// epoch whose sequencer was suspected *before* the epoch started never
    /// enters phase 2 and the group stalls — so `oar-mc` can demonstrate that
    /// it re-finds the counterexample. Never enable outside checker tests.
    pub bug_skip_handoff_recheck: bool,
    /// **Test-only fault toggle** for the model checker: when `true`, a
    /// rejoining replica skips the Lemma-2 optimistic-delivery freeze for the
    /// epoch it caught up into, Opt-delivering mid-epoch orderings whose
    /// prefix it never observed. This reintroduces the historical mid-epoch
    /// rejoin divergence so `oar-mc` can demonstrate the violation. Never
    /// enable outside checker tests.
    pub bug_skip_opt_freeze: bool,
}

impl Default for OarConfig {
    fn default() -> Self {
        OarConfig {
            group: GroupId::default(),
            fd: FdConfig::default(),
            tick_interval: SimDuration::from_millis(1),
            max_batch: 1,
            adaptive: None,
            epoch_cut_after: None,
            parallel_apply: None,
            snapshot_every: None,
            catch_up_retry: SimDuration::from_millis(10),
            bug_skip_handoff_recheck: false,
            bug_skip_opt_freeze: false,
        }
    }
}

impl OarConfig {
    /// Starts the fluent [`OarConfigBuilder`] at the defaults.
    pub fn builder() -> OarConfigBuilder {
        OarConfigBuilder::default()
    }

    /// The same configuration for replication group `group` (used by the
    /// sharded deployment layer, which stamps each group's servers with
    /// their group identity).
    pub fn for_group(self, group: GroupId) -> Self {
        OarConfig { group, ..self }
    }
}

/// Fluent builder for [`OarConfig`], consolidating the historical one-shot
/// constructors and validating field combinations in one place.
///
/// ```
/// use oar::OarConfig;
/// use oar_simnet::SimDuration;
///
/// let config = OarConfig::builder()
///     .max_batch(8)
///     .fd_timeout(SimDuration::from_millis(25))
///     .build();
/// assert_eq!(config.max_batch, 8);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct OarConfigBuilder {
    group: Option<GroupId>,
    fd: Option<FdConfig>,
    tick_interval: Option<SimDuration>,
    max_batch: Option<usize>,
    adaptive: Option<AdaptiveConfig>,
    epoch_cut_after: Option<u64>,
    parallel_apply: Option<usize>,
    snapshot_every: Option<u64>,
    catch_up_retry: Option<SimDuration>,
    bug_skip_handoff_recheck: bool,
    bug_skip_opt_freeze: bool,
}

impl OarConfigBuilder {
    /// Sets the replication-group identity.
    pub fn group(mut self, group: GroupId) -> Self {
        self.group = Some(group);
        self
    }

    /// Sets the full failure-detector configuration.
    pub fn fd(mut self, fd: FdConfig) -> Self {
        self.fd = Some(fd);
        self
    }

    /// Sets the failure-detector timeout (heartbeats at one fifth of it).
    pub fn fd_timeout(mut self, timeout: SimDuration) -> Self {
        self.fd = Some(FdConfig::with_timeout(timeout));
        self
    }

    /// Sets the maintenance-tick period.
    pub fn tick_interval(mut self, tick: SimDuration) -> Self {
        self.tick_interval = Some(tick);
        self
    }

    /// Sets the static sequencer batch threshold. Conflicts with
    /// [`OarConfigBuilder::adaptive`]; zero is rejected at build time.
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = Some(max_batch);
        self
    }

    /// Enables adaptive batching under the given controller configuration.
    /// Conflicts with an explicit [`OarConfigBuilder::max_batch`].
    pub fn adaptive(mut self, adaptive: AdaptiveConfig) -> Self {
        self.adaptive = Some(adaptive);
        self
    }

    /// Sets the §5.3 proactive epoch-cut threshold.
    pub fn epoch_cut_after(mut self, cut: u64) -> Self {
        self.epoch_cut_after = Some(cut);
        self
    }

    /// Enables periodic snapshots + log compaction every `every` closed
    /// epochs. Zero is rejected at build time.
    pub fn snapshot_every(mut self, every: u64) -> Self {
        self.snapshot_every = Some(every);
        self
    }

    /// Sets the base delay of the catch-up retry/backoff timer used by
    /// rejoining replicas. Zero is rejected at build time.
    pub fn catch_up_retry(mut self, delay: SimDuration) -> Self {
        self.catch_up_retry = Some(delay);
        self
    }

    /// Reintroduces the historical suspected-sequencer hand-off stall
    /// ([`OarConfig::bug_skip_handoff_recheck`]). Test-only; used by the
    /// `oar-mc` checker to demonstrate counterexample discovery.
    pub fn bug_skip_handoff_recheck(mut self) -> Self {
        self.bug_skip_handoff_recheck = true;
        self
    }

    /// Reintroduces the historical mid-epoch rejoin divergence
    /// ([`OarConfig::bug_skip_opt_freeze`]). Test-only; used by the `oar-mc`
    /// checker to demonstrate counterexample discovery.
    pub fn bug_skip_opt_freeze(mut self) -> Self {
        self.bug_skip_opt_freeze = true;
        self
    }

    /// Enables parallel apply with the given worker count: delivery batches
    /// are partitioned into waves of pairwise non-conflicting commands
    /// ([`crate::parallel`]) and each wave is applied across `workers`
    /// threads. Zero is rejected at build time; `1` keeps the execution
    /// serial but exercises the scheduler (wave statistics included).
    pub fn with_parallel_apply(mut self, workers: usize) -> Self {
        self.parallel_apply = Some(workers);
        self
    }

    /// Validates the combination and produces the configuration.
    ///
    /// # Errors
    ///
    /// * `max_batch == 0` — a batch threshold of zero can never flush;
    /// * `adaptive` combined with an explicit `max_batch` — the controller
    ///   owns the threshold, a static value would be silently ignored;
    /// * `adaptive` with a zero batch cap or zero flush deadline;
    /// * `with_parallel_apply(0)` — a pool of zero workers can never apply;
    /// * a zero `tick_interval` — the maintenance timer would spin.
    pub fn try_build(self) -> Result<OarConfig, String> {
        if let Some(0) = self.parallel_apply {
            return Err("with_parallel_apply needs at least 1 worker (0 can never apply)".into());
        }
        if let Some(0) = self.max_batch {
            return Err("max_batch must be at least 1 (0 can never flush)".into());
        }
        if let Some(0) = self.snapshot_every {
            return Err("snapshot_every must be at least 1 epoch (0 would snapshot \
                 before any epoch ever closes)"
                .into());
        }
        if let Some(delay) = self.catch_up_retry {
            if delay.is_zero() {
                return Err("catch_up_retry must be non-zero (a zero timer would spin \
                     the donor rotation)"
                    .into());
            }
        }
        if let Some(adaptive) = self.adaptive {
            if self.max_batch.is_some() {
                return Err("adaptive batching conflicts with an explicit max_batch: \
                     the controller owns the batch threshold"
                    .into());
            }
            if adaptive.max_batch_cap == 0 {
                return Err("adaptive max_batch_cap must be at least 1".into());
            }
            if adaptive.max_delay.is_zero() {
                return Err("adaptive max_delay must be non-zero".into());
            }
        }
        if let Some(tick) = self.tick_interval {
            if tick.is_zero() {
                return Err("tick_interval must be non-zero".into());
            }
        }
        let defaults = OarConfig::default();
        Ok(OarConfig {
            group: self.group.unwrap_or(defaults.group),
            fd: self.fd.unwrap_or(defaults.fd),
            tick_interval: self.tick_interval.unwrap_or(defaults.tick_interval),
            max_batch: self.max_batch.unwrap_or(defaults.max_batch),
            adaptive: self.adaptive,
            epoch_cut_after: self.epoch_cut_after,
            parallel_apply: self.parallel_apply,
            snapshot_every: self.snapshot_every,
            catch_up_retry: self.catch_up_retry.unwrap_or(defaults.catch_up_retry),
            bug_skip_handoff_recheck: self.bug_skip_handoff_recheck,
            bug_skip_opt_freeze: self.bug_skip_opt_freeze,
        })
    }

    /// Like [`OarConfigBuilder::try_build`], panicking on an invalid
    /// combination.
    ///
    /// # Panics
    ///
    /// Panics with the validation message on any combination
    /// [`OarConfigBuilder::try_build`] rejects.
    pub fn build(self) -> OarConfig {
        match self.try_build() {
            Ok(config) => config,
            Err(e) => panic!("invalid OarConfig: {e}"),
        }
    }
}

/// How a client limits the number of outstanding requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PipelineMode {
    /// A fixed window of `depth` outstanding requests. `Fixed(1)` is the
    /// closed-loop client of Fig. 5.
    Fixed(usize),
    /// A [`crate::adaptive::PipelineController`]-driven window of up to `cap`
    /// outstanding requests: it starts closed-loop and co-adapts with the
    /// servers' delivery-batch hints.
    Adaptive(usize),
}

impl Default for PipelineMode {
    fn default() -> Self {
        PipelineMode::Fixed(1)
    }
}

/// Configuration of every client flavour (see [`crate::client`]).
///
/// Construct one with [`ClientConfig::builder`], the single place where the
/// client knobs are validated — the per-flavour `with_*` constructor zoo this
/// replaces is gone.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClientConfig {
    /// Delay between the adoption of a reply and the next request (the
    /// paper's think time). [`SimDuration::ZERO`] — the default — refills the
    /// pipeline immediately.
    pub think_time: SimDuration,
    /// Delay before the very first request, used to stagger clients.
    pub start_delay: SimDuration,
    /// The outstanding-request window policy (an open-loop client paces by
    /// its schedule instead).
    pub pipeline: PipelineMode,
    /// The replication group targeted by a single-group client, stamped on
    /// every request so servers can detect misroutes. Ignored by the sharded
    /// and transactional clients, which route per key. Defaults to `g0`.
    pub group: GroupId,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            think_time: SimDuration::ZERO,
            start_delay: SimDuration::ZERO,
            pipeline: PipelineMode::default(),
            group: GroupId::default(),
        }
    }
}

impl ClientConfig {
    /// Starts the fluent [`ClientConfigBuilder`] at the defaults.
    pub fn builder() -> ClientConfigBuilder {
        ClientConfigBuilder::default()
    }

    /// The initial pipeline window implied by [`ClientConfig::pipeline`]
    /// (adaptive windows start closed-loop).
    pub fn initial_window(&self) -> usize {
        match self.pipeline {
            PipelineMode::Fixed(depth) => depth,
            PipelineMode::Adaptive(_) => 1,
        }
    }
}

/// Fluent builder for [`ClientConfig`], mirroring [`OarConfigBuilder`].
///
/// ```
/// use oar::ClientConfig;
/// use oar_simnet::SimDuration;
///
/// let config = ClientConfig::builder()
///     .think_time(SimDuration::from_micros(50))
///     .pipeline(4)
///     .build();
/// assert_eq!(config.initial_window(), 4);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientConfigBuilder {
    think_time: Option<SimDuration>,
    start_delay: Option<SimDuration>,
    pipeline: Option<PipelineMode>,
    pipeline_conflict: bool,
    group: Option<GroupId>,
}

impl ClientConfigBuilder {
    /// Sets the think time between the adoption of a reply and the next
    /// request.
    pub fn think_time(mut self, think: SimDuration) -> Self {
        self.think_time = Some(think);
        self
    }

    /// Delays the first request by `delay` (used to stagger clients).
    pub fn start_delay(mut self, delay: SimDuration) -> Self {
        self.start_delay = Some(delay);
        self
    }

    /// Allows up to `depth` outstanding requests. Conflicts with
    /// [`ClientConfigBuilder::adaptive_pipeline`]; zero is rejected at build
    /// time.
    pub fn pipeline(mut self, depth: usize) -> Self {
        self.pipeline_conflict |= matches!(self.pipeline, Some(PipelineMode::Adaptive(_)));
        self.pipeline = Some(PipelineMode::Fixed(depth));
        self
    }

    /// Adapts the outstanding-request window to the servers' reported
    /// delivery-batch sizes, up to `cap` outstanding requests. Conflicts
    /// with an explicit [`ClientConfigBuilder::pipeline`]; a zero cap is
    /// rejected at build time.
    pub fn adaptive_pipeline(mut self, cap: usize) -> Self {
        self.pipeline_conflict |= matches!(self.pipeline, Some(PipelineMode::Fixed(_)));
        self.pipeline = Some(PipelineMode::Adaptive(cap));
        self
    }

    /// Targets the replication group `group` (single-group clients only).
    pub fn group(mut self, group: GroupId) -> Self {
        self.group = Some(group);
        self
    }

    /// Validates the combination and produces the configuration.
    ///
    /// # Errors
    ///
    /// * `pipeline(0)` — a window of zero can never submit;
    /// * `adaptive_pipeline(0)` — likewise for the adaptive cap;
    /// * `pipeline` combined with `adaptive_pipeline` — the controller owns
    ///   the window, a static depth would be silently ignored.
    pub fn try_build(self) -> Result<ClientConfig, String> {
        if self.pipeline_conflict {
            return Err("pipeline conflicts with adaptive_pipeline: the controller \
                 owns the window, a static depth would be silently ignored"
                .into());
        }
        match self.pipeline {
            Some(PipelineMode::Fixed(0)) => {
                return Err("pipeline depth must be at least 1 (0 can never submit)".into());
            }
            Some(PipelineMode::Adaptive(0)) => {
                return Err("adaptive_pipeline cap must be at least 1 (0 can never submit)".into());
            }
            _ => {}
        }
        let defaults = ClientConfig::default();
        Ok(ClientConfig {
            think_time: self.think_time.unwrap_or(defaults.think_time),
            start_delay: self.start_delay.unwrap_or(defaults.start_delay),
            pipeline: self.pipeline.unwrap_or(defaults.pipeline),
            group: self.group.unwrap_or(defaults.group),
        })
    }

    /// Like [`ClientConfigBuilder::try_build`], panicking on an invalid
    /// combination.
    ///
    /// # Panics
    ///
    /// Panics with the validation message on any combination
    /// [`ClientConfigBuilder::try_build`] rejects.
    pub fn build(self) -> ClientConfig {
        match self.try_build() {
            Ok(config) => config,
            Err(e) => panic!("invalid ClientConfig: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_group_overrides_only_the_group() {
        let cfg = OarConfig::builder()
            .max_batch(4)
            .build()
            .for_group(GroupId::new(3));
        assert_eq!(cfg.group, GroupId::new(3));
        assert_eq!(cfg.max_batch, 4);
    }

    #[test]
    fn default_is_eager_unbatched_and_uncut() {
        let cfg = OarConfig::default();
        assert_eq!(cfg.group, GroupId::new(0));
        assert_eq!(cfg.max_batch, 1);
        assert_eq!(cfg.adaptive, None);
        assert_eq!(cfg.epoch_cut_after, None);
        assert_eq!(cfg.parallel_apply, None);
    }

    #[test]
    fn builder_composes_fields() {
        let cfg = OarConfig::builder()
            .group(GroupId::new(2))
            .max_batch(16)
            .tick_interval(SimDuration::from_millis(2))
            .epoch_cut_after(100)
            .fd_timeout(SimDuration::from_millis(40))
            .build();
        assert_eq!(cfg.group, GroupId::new(2));
        assert_eq!(cfg.max_batch, 16);
        assert_eq!(cfg.fd.timeout, SimDuration::from_millis(40));
        assert_eq!(cfg.fd.heartbeat_interval, SimDuration::from_millis(8));
        assert_eq!(cfg.tick_interval, SimDuration::from_millis(2));
        assert_eq!(cfg.epoch_cut_after, Some(100));
    }

    #[test]
    fn builder_accepts_and_validates_parallel_apply() {
        let cfg = OarConfig::builder().with_parallel_apply(4).build();
        assert_eq!(cfg.parallel_apply, Some(4));
        let err = OarConfig::builder()
            .with_parallel_apply(0)
            .try_build()
            .unwrap_err();
        assert!(err.contains("parallel_apply"), "unexpected error: {err}");
    }

    #[test]
    fn builder_rejects_zero_max_batch() {
        let err = OarConfig::builder().max_batch(0).try_build().unwrap_err();
        assert!(err.contains("max_batch"), "unexpected error: {err}");
    }

    #[test]
    fn builder_accepts_and_validates_snapshot_and_catch_up_knobs() {
        let cfg = OarConfig::builder()
            .snapshot_every(4)
            .catch_up_retry(SimDuration::from_millis(5))
            .build();
        assert_eq!(cfg.snapshot_every, Some(4));
        assert_eq!(cfg.catch_up_retry, SimDuration::from_millis(5));
        let err = OarConfig::builder()
            .snapshot_every(0)
            .try_build()
            .unwrap_err();
        assert!(err.contains("snapshot_every"), "unexpected error: {err}");
        let err = OarConfig::builder()
            .catch_up_retry(SimDuration::ZERO)
            .try_build()
            .unwrap_err();
        assert!(err.contains("catch_up_retry"), "unexpected error: {err}");
    }

    #[test]
    fn builder_rejects_adaptive_with_explicit_batch() {
        let err = OarConfig::builder()
            .max_batch(8)
            .adaptive(AdaptiveConfig::default())
            .try_build()
            .unwrap_err();
        assert!(err.contains("adaptive"), "unexpected error: {err}");
    }

    #[test]
    fn builder_rejects_degenerate_adaptive_configs() {
        let zero_cap = AdaptiveConfig {
            max_batch_cap: 0,
            ..AdaptiveConfig::default()
        };
        assert!(OarConfig::builder().adaptive(zero_cap).try_build().is_err());
        let zero_delay = AdaptiveConfig {
            max_delay: SimDuration::ZERO,
            ..AdaptiveConfig::default()
        };
        assert!(OarConfig::builder()
            .adaptive(zero_delay)
            .try_build()
            .is_err());
        assert!(OarConfig::builder()
            .tick_interval(SimDuration::ZERO)
            .try_build()
            .is_err());
    }

    #[test]
    fn client_builder_composes_fields() {
        let cfg = ClientConfig::builder()
            .think_time(SimDuration::from_micros(40))
            .start_delay(SimDuration::from_micros(7))
            .pipeline(8)
            .group(GroupId::new(2))
            .build();
        assert_eq!(cfg.think_time, SimDuration::from_micros(40));
        assert_eq!(cfg.start_delay, SimDuration::from_micros(7));
        assert_eq!(cfg.pipeline, PipelineMode::Fixed(8));
        assert_eq!(cfg.initial_window(), 8);
        assert_eq!(cfg.group, GroupId::new(2));
    }

    #[test]
    fn client_default_is_closed_loop() {
        let cfg = ClientConfig::default();
        assert_eq!(cfg.pipeline, PipelineMode::Fixed(1));
        assert_eq!(cfg.initial_window(), 1);
        assert!(cfg.think_time.is_zero());
        assert!(cfg.start_delay.is_zero());
        assert_eq!(cfg.group, GroupId::default());
    }

    #[test]
    fn client_adaptive_window_starts_closed_loop() {
        let cfg = ClientConfig::builder().adaptive_pipeline(16).build();
        assert_eq!(cfg.pipeline, PipelineMode::Adaptive(16));
        assert_eq!(cfg.initial_window(), 1);
    }

    #[test]
    fn client_builder_rejects_degenerate_windows() {
        let err = ClientConfig::builder().pipeline(0).try_build().unwrap_err();
        assert!(err.contains("pipeline depth"), "unexpected error: {err}");
        let err = ClientConfig::builder()
            .adaptive_pipeline(0)
            .try_build()
            .unwrap_err();
        assert!(err.contains("cap"), "unexpected error: {err}");
    }

    #[test]
    fn client_builder_rejects_mixed_pipeline_modes() {
        let err = ClientConfig::builder()
            .pipeline(4)
            .adaptive_pipeline(16)
            .try_build()
            .unwrap_err();
        assert!(err.contains("conflicts"), "unexpected error: {err}");
        let err = ClientConfig::builder()
            .adaptive_pipeline(16)
            .pipeline(4)
            .try_build()
            .unwrap_err();
        assert!(err.contains("conflicts"), "unexpected error: {err}");
    }

    #[test]
    #[should_panic(expected = "invalid ClientConfig")]
    fn client_build_panics_on_zero_depth() {
        let _ = ClientConfig::builder().pipeline(0).build();
    }

    #[test]
    #[should_panic(expected = "invalid OarConfig")]
    fn build_panics_on_conflict() {
        let _ = OarConfig::builder()
            .adaptive(AdaptiveConfig::default())
            .max_batch(4)
            .build();
    }

    #[test]
    fn adaptive_mode_keeps_unbatched_static_fields() {
        let cfg = OarConfig::builder()
            .adaptive(AdaptiveConfig::default())
            .build();
        assert!(cfg.adaptive.is_some());
        assert_eq!(cfg.max_batch, 1);
        let a = cfg.adaptive.unwrap();
        assert_eq!(a.max_batch_cap, 64);
        assert!(!a.max_delay.is_zero());
    }
}
