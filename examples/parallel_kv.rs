//! A replicated key-value store whose replicas apply delivery batches on a
//! worker pool: commands with disjoint key sets execute concurrently, and a
//! serial twin run on the same seed proves the final state and every reply
//! are bit-identical — parallel apply is an execution strategy, never an
//! observable protocol change.
//!
//! ```text
//! cargo run -p oar-examples --example parallel_kv
//! ```

use oar::cluster::{Cluster, ClusterConfig};
use oar::{OarConfig, StateMachine};
use oar_apps::kv::{KvCommand, KvMachine};
use oar_simnet::SimTime;

const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 24;
const PIPELINE: usize = 8;
const WORKERS: usize = 4;

/// Mixed workload: each client mostly writes its own keys (disjoint across
/// clients, so concurrently delivered commands share a wave), with every
/// sixth write hitting a shared hot key (conflicting, so delivery order
/// still matters).
fn workload(client: usize) -> Vec<KvCommand> {
    (0..REQUESTS_PER_CLIENT)
        .map(|i| {
            if i % 6 == 5 {
                KvCommand::Put {
                    key: "hot".to_string(),
                    value: format!("c{client}#{i}"),
                }
            } else {
                KvCommand::Put {
                    key: format!("c{client}:k{}", i % 4),
                    value: format!("c{client}#{i}"),
                }
            }
        })
        .collect()
}

/// Builds and runs one 3-replica deployment; `workers` enables the
/// conflict-graph apply scheduler.
fn run(workers: Option<usize>, seed: u64) -> Cluster<KvMachine> {
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
    let mut cluster: Cluster<KvMachine> = Cluster::build(&config, KvMachine::new, workload);
    assert!(
        cluster.run_to_completion(SimTime::from_secs(60)),
        "workload did not finish"
    );
    cluster
        .check_per_group_consistency()
        .expect("replicas agree");
    cluster
        .check_external_consistency()
        .expect("client replies are final");
    cluster
}

fn main() {
    let seed = 2001;
    let parallel = run(Some(WORKERS), seed);
    let serial = run(None, seed);

    // Bit-identical state: every replica digest of the parallel run equals
    // the serial twin's.
    for s in 0..3 {
        assert_eq!(
            parallel.server(0, s).state_machine().digest(),
            serial.server(0, s).state_machine().digest(),
            "replica {s} diverged from the serial twin"
        );
    }

    // Bit-identical replies: same responses at the same positions.
    let replies = |c: &Cluster<KvMachine>| {
        let mut r: Vec<_> = c
            .completed()
            .iter()
            .map(|r| (r.id, r.response.clone(), r.position, r.epoch))
            .collect();
        r.sort_by_key(|&(id, ..)| id);
        r
    };
    assert_eq!(
        replies(&parallel),
        replies(&serial),
        "replies diverged from the serial twin"
    );

    println!(
        "completed {} requests on {WORKERS} workers; {} commands ran in multi-command waves",
        parallel.completed().len(),
        parallel.sum_stats(|s| s.wave_commands()),
    );
    println!(
        "replica digests and all replies are bit-identical to the serial twin \
         (digest 0x{:016x})",
        parallel.server(0, 0).state_machine().digest()
    );
    println!(
        "hot key ended as {:?} in both runs",
        parallel.server(0, 0).state_machine().get("hot")
    );
}
