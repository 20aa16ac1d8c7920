//! T-FAILOVER bench: wall-clock cost of a run that includes a sequencer crash
//! and the resulting conservative phase, per failure-detector timeout.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use oar::cluster::{Cluster, ClusterConfig};
use oar::state_machine::{CounterCommand, CounterMachine};
use oar::OarConfig;
use oar_simnet::{NetConfig, ProcessId, SimDuration, SimTime};

fn bench_failover(c: &mut Criterion) {
    let mut group = c.benchmark_group("sequencer_crash_recovery");
    group.sample_size(10);
    for &timeout_ms in &[10u64, 25, 50] {
        group.bench_with_input(
            BenchmarkId::from_parameter(timeout_ms),
            &timeout_ms,
            |b, &timeout_ms| {
                b.iter(|| {
                    let config = ClusterConfig {
                        num_servers: 3,
                        num_clients: 1,
                        net: NetConfig::lan(),
                        oar: OarConfig::builder()
                            .fd_timeout(SimDuration::from_millis(timeout_ms))
                            .build(),
                        seed: 5,
                        ..ClusterConfig::default()
                    };
                    let workload: Vec<CounterCommand> =
                        (0..30).map(|i| CounterCommand::Add(i + 1)).collect();
                    let mut cluster: Cluster<CounterMachine> =
                        Cluster::build(&config, CounterMachine::default, |_| workload.clone());
                    cluster
                        .world
                        .schedule_crash(ProcessId::new(0), SimTime::from_millis(5));
                    assert!(cluster.run_to_completion(SimTime::from_secs(300)));
                    cluster.check_per_group_consistency().unwrap();
                    cluster.sum_stats(|s| s.phase2_entered)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_failover);
criterion_main!(benches);
