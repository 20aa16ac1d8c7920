//! Twin-run equivalence across runtime backends.
//!
//! The runtime boundary promises that the protocol crates contain no
//! backend-specific logic: the same `OarServer` and client code runs on the
//! deterministic simulator (`oar-simnet`) and on the real-clock threaded
//! backend (`oar-rtnet`). This test holds the boundary to that promise by
//! running the *same* workload — fixed seed, per-client disjoint key sets —
//! on both backends and requiring that every replica of both runs converges
//! to the **bit-identical** state-machine digest.
//!
//! Timing differs radically between the twins (virtual microseconds vs real
//! threads racing on real queues), so delivery interleavings differ — but
//! with disjoint per-client keys and per-client FIFO submission, total order
//! plus determinism force the same final KV content everywhere. The rtnet run
//! additionally re-checks the paper's propositions (at-most-once, total
//! order, external consistency) on real threads via the runtime-agnostic
//! checks of `oar::consistency`.

use oar::server::OarServer;
use oar::{
    check_external_consistency, check_server_consistency, ClientConfig, OarConfig, OarWire,
    OpenLoopClient, StateMachine,
};
use oar_apps::kv::{KvCommand, KvMachine, KvResponse};
use oar_rtnet::{RtNet, RunOptions};
use oar_simnet::{NetConfig, ProcessId, SimDuration, SimTime, World};

const SEED: u64 = 20010614;
const SERVERS: usize = 3;
const CLIENTS: usize = 2;
const REQUESTS: usize = 60;

type Wire = OarWire<KvCommand, KvResponse>;

/// Per-client disjoint keys: interleaving across clients cannot change the
/// final KV content, only per-client submission order matters (which both
/// backends preserve: FIFO links in the simulator, FIFO mpsc channels on
/// rtnet).
fn workload(client: usize, n: usize) -> Vec<KvCommand> {
    (0..n)
        .map(|i| KvCommand::Put {
            key: format!("c{client}-k{}", i % 8),
            value: format!("v{i}"),
        })
        .collect()
}

fn oar_config() -> OarConfig {
    // Wide failure-detector timeout: the rtnet twin runs on real threads
    // where a stalled scheduler must not look like a crashed sequencer.
    OarConfig::builder()
        .fd_timeout(SimDuration::from_millis(500))
        .build()
}

/// Runs the workload on the simulator and returns the common replica digest.
fn simnet_digest() -> u64 {
    let mut world: World<Wire> = World::new(NetConfig::lan(), SEED);
    let server_ids: Vec<ProcessId> = (0..SERVERS).map(ProcessId::new).collect();
    for &id in &server_ids {
        world.add_process(OarServer::new(
            id,
            server_ids.clone(),
            oar_config(),
            KvMachine::default(),
        ));
    }
    let mut client_ids = Vec::new();
    for c in 0..CLIENTS {
        let client = OpenLoopClient::<KvMachine>::new(
            ProcessId::new(SERVERS + c),
            server_ids.clone(),
            workload(c, REQUESTS),
            SimDuration::from_micros(300),
            ClientConfig::default(),
        );
        client_ids.push(world.add_process(client));
    }
    world.run_until_quiescent(SimTime::from_secs(60));
    for &id in &client_ids {
        let client = world.process_ref::<OpenLoopClient<KvMachine>>(id);
        assert!(client.is_done(), "simnet twin did not drain");
    }
    let digests: Vec<u64> = server_ids
        .iter()
        .map(|&id| {
            world
                .process_ref::<OarServer<KvMachine>>(id)
                .state_machine()
                .digest()
        })
        .collect();
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "simnet replicas diverged: {digests:x?}"
    );
    digests[0]
}

#[test]
fn rtnet_twin_converges_to_the_simnet_digest() {
    let expected = simnet_digest();

    let mut net: RtNet<Wire> = RtNet::new(SEED);
    let server_ids: Vec<ProcessId> = (0..SERVERS).map(ProcessId::new).collect();
    for &id in &server_ids {
        net.add_process(OarServer::new(
            id,
            server_ids.clone(),
            oar_config(),
            KvMachine::default(),
        ));
    }
    let mut client_ids = Vec::new();
    for c in 0..CLIENTS {
        let client = OpenLoopClient::<KvMachine>::new(
            ProcessId::new(SERVERS + c),
            server_ids.clone(),
            workload(c, REQUESTS),
            SimDuration::from_micros(300),
            ClientConfig::default(),
        );
        client_ids
            .push(net.add_process_until(client, |cl: &OpenLoopClient<KvMachine>| cl.is_done()));
    }
    let report = net.run(RunOptions {
        max_wall: std::time::Duration::from_secs(30),
        // Let in-flight optimistic deliveries settle on every replica after
        // the last quorum, so the digests below compare final states.
        grace: std::time::Duration::from_millis(300),
        poll: std::time::Duration::from_millis(5),
    });
    assert!(report.completed, "rtnet twin hit the wall-clock cap");

    // Every client drained its workload.
    let mut per_client: Vec<&[oar::CompletedRequest<KvResponse>]> = Vec::new();
    for &id in &client_ids {
        let client = report.process_ref::<OpenLoopClient<KvMachine>>(id);
        assert!(client.is_done(), "client {id} still has outstanding work");
        assert_eq!(client.completed().len(), REQUESTS);
        per_client.push(client.completed());
    }

    // Propositions hold on real threads: at-most-once, total order and
    // external consistency, straight from the runtime-agnostic checks.
    let servers: Vec<&OarServer<KvMachine>> = server_ids
        .iter()
        .map(|&id| report.process_ref::<OarServer<KvMachine>>(id))
        .filter(|s| !s.is_recovering())
        .collect();
    check_server_consistency(&servers).expect("rtnet server propositions");
    check_external_consistency(&servers, &per_client).expect("rtnet external consistency");

    // The divergence detector runs on real threads too, and a correct run
    // never trips it (checked at every replica, recovering or not).
    for &id in &server_ids {
        let server = report.process_ref::<OarServer<KvMachine>>(id);
        assert_eq!(
            server.stats().divergences,
            0,
            "server {} was out-voted on its settled digest",
            server.id()
        );
    }

    // The tentpole claim: bit-identical convergence across backends.
    for server in &servers {
        assert_eq!(
            server.state_machine().digest(),
            expected,
            "server {} diverged from the simnet twin",
            server.id()
        );
    }
}
