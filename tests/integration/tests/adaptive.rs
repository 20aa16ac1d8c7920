//! End-to-end checks of the adaptive batching & pipelining subsystem: the
//! controller dynamics under load steps, the flush-deadline latency bound,
//! and the light-load no-overhead guarantee — with the paper's propositions
//! (total order, at-most-once, external consistency) checked on every run.

use oar::cluster::{Cluster, ClusterConfig};
use oar::state_machine::{CounterCommand, CounterMachine};
use oar::{AdaptiveConfig, OarConfig};
use oar_simnet::{SimDuration, SimTime};

fn workload(n: usize) -> Vec<CounterCommand> {
    (0..n)
        .map(|i| CounterCommand::Add(i as i64 % 5 + 1))
        .collect()
}

/// Under light load the adaptive deployment must be *behaviourally
/// identical* to the unbatched paper protocol: the controller keeps the
/// target at 1, the window stays closed-loop, and the two simulations
/// produce the same latencies on the same seed.
#[test]
fn adaptive_is_identical_to_unbatched_at_light_load() {
    let run = |oar: OarConfig, adaptive_pipeline: bool| {
        let config = ClusterConfig {
            num_servers: 3,
            num_clients: 1,
            oar,
            seed: 17,
            client_pipeline: if adaptive_pipeline { 8 } else { 1 },
            adaptive_pipeline,
            ..ClusterConfig::default()
        };
        let mut cluster: Cluster<CounterMachine> =
            Cluster::build(&config, CounterMachine::default, |_| workload(25));
        assert!(cluster.run_to_completion(SimTime::from_secs(30)));
        cluster.check_per_group_consistency().unwrap();
        cluster.check_external_consistency().unwrap();
        cluster
    };
    let unbatched = run(OarConfig::default(), false);
    let adaptive = run(
        OarConfig::builder()
            .adaptive(AdaptiveConfig::default())
            .build(),
        true,
    );
    let lat_a = adaptive.latencies();
    let lat_u = unbatched.latencies();
    assert_eq!(lat_a.len(), lat_u.len());
    // Same seed, same message schedule: a single closed-loop client never
    // fills a batch, so the adaptive run replays the unbatched one exactly.
    assert!((lat_a.mean().unwrap() - lat_u.mean().unwrap()).abs() < 1e-9);
    assert!((lat_a.quantile(0.99).unwrap() - lat_u.quantile(0.99).unwrap()).abs() < 1e-9);
    // And the controller never ramped.
    assert_eq!(adaptive.sum_stats(|s| s.target_raises), 0);
    assert_eq!(adaptive.max_stats(|s| s.batch_target), 1);
    assert_eq!(adaptive.max_stats(|s| s.effective_batch.peak()), 1);
}

/// A load step (1 client → 8 clients mid-run) must ramp the sequencer's
/// target and the clients' windows within the burst, and the load drop must
/// decay them back — with every proposition still green.
#[test]
fn load_step_converges_and_load_drop_decays() {
    let config = ClusterConfig {
        num_servers: 3,
        num_clients: 8,
        oar: OarConfig::builder()
            .adaptive(AdaptiveConfig::default())
            .build(),
        seed: 23,
        client_pipeline: 8,
        adaptive_pipeline: true,
        // Client 0 runs the whole time; clients 1..=7 pile in at 2ms and
        // finish well before client 0's long workload drains.
        client_start_delays: std::iter::once(SimDuration::ZERO)
            .chain(std::iter::repeat_n(SimDuration::from_millis(2), 7))
            .collect(),
        ..ClusterConfig::default()
    };
    let mut cluster: Cluster<CounterMachine> =
        Cluster::build(&config, CounterMachine::default, |c| {
            workload(if c == 0 { 120 } else { 40 })
        });
    assert!(cluster.run_to_completion(SimTime::from_secs(60)));
    assert_eq!(cluster.completed().len(), 120 + 7 * 40);
    // Propositions survive the whole ramp/decay cycle.
    cluster.check_per_group_consistency().unwrap();
    cluster.check_external_consistency().unwrap();
    // Convergence up: the burst formed real batches within the run.
    assert!(
        cluster.sum_stats(|s| s.target_raises) > 0,
        "the controller must ramp during the burst"
    );
    assert!(
        cluster.max_stats(|s| s.effective_batch.peak()) >= 8,
        "the burst should batch at least one request per client (peak {})",
        cluster.max_stats(|s| s.effective_batch.peak())
    );
    assert!(
        cluster.max_pipeline_stats(|p| p.window_peak) >= 4,
        "client windows should open during the burst (peak {})",
        cluster.max_pipeline_stats(|p| p.window_peak)
    );
    // Decay back: once the burst clients finish, the rate estimate shrinks
    // and the target walks down from its burst-time value.
    assert!(
        cluster.sum_stats(|s| s.target_drops) > 0,
        "the controller must decay after the load drop"
    );
    assert!(
        cluster.max_stats(|s| s.batch_target) <= 8,
        "the target should be near the single-client rate again (target {})",
        cluster.max_stats(|s| s.batch_target)
    );
}

/// A partial batch is ordered by the flush deadline, not by the maintenance
/// tick: in adaptive mode the deadline doubles as the controller's batching
/// horizon, so a burst that does not reach the ramped target is still
/// ordered within `max_delay`. Run at the default 1ms tick and at a 50ms one
/// — there, waiting for the tick would cost 50ms — with the same bounds.
#[test]
fn adaptive_mode_flushes_partial_batches_by_deadline() {
    let stretched = OarConfig::builder()
        .adaptive(AdaptiveConfig::default())
        .tick_interval(SimDuration::from_millis(50))
        // Keep the failure detector far away from the stretched tick.
        .fd_timeout(SimDuration::from_millis(400))
        .build();
    for oar in [
        OarConfig::builder()
            .adaptive(AdaptiveConfig::default())
            .build(),
        stretched,
    ] {
        let config = ClusterConfig {
            num_servers: 3,
            num_clients: 4,
            oar,
            seed: 31,
            client_pipeline: 8,
            adaptive_pipeline: true,
            ..ClusterConfig::default()
        };
        let mut cluster: Cluster<CounterMachine> =
            Cluster::build(&config, CounterMachine::default, |_| workload(40));
        assert!(cluster.run_to_completion(SimTime::from_secs(30)));
        cluster.check_per_group_consistency().unwrap();
        cluster.check_external_consistency().unwrap();
        // Once the target ramps past 1, stragglers are flushed by the
        // deadline rather than a full batch or the tick; the p99 latency
        // stays well below one default tick plus a round trip.
        let tick = oar.tick_interval;
        assert!(
            cluster.sum_stats(|s| s.deadline_flushes) > 0,
            "no deadline flush at tick {tick:?}"
        );
        let p99 = cluster.latencies().quantile(0.99).unwrap();
        assert!(
            p99 < 1.2,
            "p99 {p99:.3}ms should stay below a 1ms tick + round trip (tick {tick:?})"
        );
    }
}
