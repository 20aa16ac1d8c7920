//! End-to-end checks of the parallel apply stage: a deployment running the
//! conflict-graph wave scheduler must be observably indistinguishable from a
//! serial one — same replica digests, same replies, same positions — across
//! seeds, worker counts and workload shapes, with the paper's propositions
//! (total order, at-most-once, external consistency) intact on every run.

use oar::cluster::{Cluster, ClusterConfig};
use oar::server::OarServer;
use oar::{OarConfig, StateMachine};
use oar_apps::kv::{KvCommand, KvMachine};
use oar_simnet::SimTime;

const CLIENTS: usize = 3;
const PIPELINE: usize = 8;

/// Write-heavy workload, keys mostly private to each client (disjoint →
/// shared waves) with a periodic shared hot key (conflicting → ordered).
fn workload(client: usize, requests: usize) -> Vec<KvCommand> {
    (0..requests)
        .map(|i| match i % 7 {
            6 => KvCommand::Put {
                key: "hot".to_string(),
                value: format!("c{client}#{i}"),
            },
            5 => KvCommand::CompareAndSwap {
                key: format!("c{client}:k0"),
                expected: None,
                new: format!("cas-c{client}#{i}"),
            },
            _ => KvCommand::Put {
                key: format!("c{client}:k{}", i % 3),
                value: format!("c{client}#{i}"),
            },
        })
        .collect()
}

fn run(workers: Option<usize>, seed: u64, requests: usize) -> Cluster<KvMachine> {
    let mut builder = OarConfig::builder().max_batch(PIPELINE * CLIENTS);
    if let Some(w) = workers {
        builder = builder.with_parallel_apply(w);
    }
    let config = ClusterConfig {
        num_servers: 3,
        num_clients: CLIENTS,
        oar: builder.build(),
        seed,
        client_pipeline: PIPELINE,
        ..ClusterConfig::default()
    };
    let mut cluster: Cluster<KvMachine> =
        Cluster::build(&config, KvMachine::new, |c| workload(c, requests));
    assert!(
        cluster.run_to_completion(SimTime::from_secs(120)),
        "run (workers={workers:?}, seed={seed}) did not finish"
    );
    cluster.check_per_group_consistency().unwrap();
    cluster.check_external_consistency().unwrap();
    cluster
}

fn digests(cluster: &Cluster<KvMachine>) -> Vec<u64> {
    cluster.groups[0]
        .iter()
        .map(|&s| {
            cluster
                .world
                .process_ref::<OarServer<KvMachine>>(s)
                .state_machine()
                .digest()
        })
        .collect()
}

fn replies(cluster: &Cluster<KvMachine>) -> Vec<(u64, String, u64, u64)> {
    let mut out: Vec<_> = cluster
        .completed()
        .iter()
        .map(|r| (r.id.seq, format!("{:?}", r.response), r.position, r.epoch))
        .collect();
    out.sort();
    out
}

/// Across several seeds, a 4-worker deployment replays the serial one
/// exactly: digests, replies and positions are all bit-identical.
#[test]
fn parallel_apply_is_observably_identical_to_serial_across_seeds() {
    for seed in [3, 11, 42] {
        let parallel = run(Some(4), seed, 21);
        let serial = run(None, seed, 21);
        assert_eq!(
            digests(&parallel),
            digests(&serial),
            "digests diverged on seed {seed}"
        );
        assert_eq!(
            replies(&parallel),
            replies(&serial),
            "replies diverged on seed {seed}"
        );
        assert!(
            parallel.sum_stats(|s| s.wave_commands()) > 0,
            "seed {seed} never exercised a multi-command wave"
        );
    }
}

/// Worker count is a pure execution knob: 1, 2 and 8 workers all land on the
/// same digests as the serial deployment.
#[test]
fn worker_count_never_changes_the_outcome() {
    let reference = digests(&run(None, 23, 14));
    for workers in [1, 2, 8] {
        assert_eq!(
            digests(&run(Some(workers), 23, 14)),
            reference,
            "{workers} workers diverged"
        );
    }
}

/// The apply-time stats channel records work without perturbing the
/// simulation: the parallel run spends measurable host time in apply and its
/// wave histogram sees multi-command waves.
#[test]
fn apply_stats_record_wave_execution() {
    let parallel = run(Some(4), 5, 21);
    assert!(parallel.sum_stats(|s| s.apply_ns) > 0);
    assert!(parallel.sum_stats(|s| s.wave_commands()) > 0);
    let serial = run(None, 5, 21);
    // The serial twin records apply time too, but only singleton waves.
    assert!(serial.sum_stats(|s| s.apply_ns) > 0);
    assert_eq!(serial.sum_stats(|s| s.wave_commands()), 0);
}
