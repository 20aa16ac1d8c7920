//! Request dissemination: every client request crosses the group once.
//!
//! Servers do not relay client requests. R-multicast's Agreement property
//! comes from two tick-driven repairs instead — pull (`PayloadFetch`) and
//! push on stall (`PayloadFill`) — which must stay silent while nothing is
//! wrong and bounded when something is. These tests count the wires.

use oar::message::{OarWire, ReconfigCmd, Request, RequestId};
use oar::shard::{KeyRange, MigrationRecord};
use oar::state_machine::{CounterCommand, CounterMachine};
use oar::{
    check_external_consistency, check_server_consistency, ClientConfig, Cluster, ClusterConfig,
    CompletedRequest, OarClient, OarConfig, OarServer,
};
use oar_apps::kv::{KvCommand, KvMachine};
use oar_channels::CastWire;
use oar_simnet::{
    Context, GroupId, NetConfig, Process, ProcessId, Runtime, SimDuration, SimRng, SimTime, Timer,
    World,
};

type Wire = OarWire<CounterCommand, i64>;

/// A server that counts the request-carrying wires it receives.
struct Tap {
    inner: OarServer<CounterMachine>,
    request_wires: u64,
    fill_wires: u64,
}

impl Process<Wire> for Tap {
    fn on_start(&mut self, rt: &mut dyn Runtime<Wire>) {
        self.inner.on_start(rt);
    }

    fn on_message(&mut self, rt: &mut dyn Runtime<Wire>, from: ProcessId, msg: Wire) {
        match msg {
            OarWire::Request(_) => self.request_wires += 1,
            OarWire::PayloadFill { .. } => self.fill_wires += 1,
            _ => {}
        }
        self.inner.on_message(rt, from, msg);
    }

    fn on_timer(&mut self, rt: &mut dyn Runtime<Wire>, timer: Timer) {
        self.inner.on_timer(rt, timer);
    }
}

/// Failure-free: `n` `Request` wires per request — the client's own — and no
/// repair traffic of either kind, under batching, epoch cuts and pipelined
/// clients alike.
#[test]
fn failure_free_run_sends_n_request_wires_per_request_and_no_repair() {
    const SERVERS: usize = 3;
    const CLIENTS: usize = 3;
    const REQUESTS: usize = 200;
    for seed in 0..4u64 {
        let mut world: World<Wire> = World::new(NetConfig::lan(), seed);
        let servers: Vec<ProcessId> = (0..SERVERS).map(ProcessId::new).collect();
        let config = OarConfig::builder()
            .adaptive(oar::AdaptiveConfig::default())
            .epoch_cut_after(32)
            .snapshot_every(4)
            .build();
        for &id in &servers {
            world.add_process(Tap {
                inner: OarServer::new(id, servers.clone(), config, CounterMachine::default()),
                request_wires: 0,
                fill_wires: 0,
            });
        }
        let clients: Vec<ProcessId> = (0..CLIENTS)
            .map(|c| {
                let workload = (0..REQUESTS)
                    .map(|i| CounterCommand::Add((c * 31 + i) as i64 % 11 + 1))
                    .collect();
                world.add_process(OarClient::<CounterMachine>::new(
                    ProcessId::new(SERVERS + c),
                    servers.clone(),
                    workload,
                    ClientConfig::builder().pipeline(4).build(),
                ))
            })
            .collect();
        let done = |world: &World<Wire>| {
            clients
                .iter()
                .all(|&c| world.process_ref::<OarClient<CounterMachine>>(c).is_done())
        };
        let mut t = SimTime::ZERO;
        while !done(&world) {
            t += SimDuration::from_millis(10);
            assert!(
                t < SimTime::from_secs(20),
                "seed {seed}: run did not finish"
            );
            world.run_until(t);
        }
        world.run_until(t + SimDuration::from_millis(50));

        let taps: Vec<&Tap> = servers
            .iter()
            .map(|&s| world.process_ref::<Tap>(s))
            .collect();
        let request_wires: u64 = taps.iter().map(|t| t.request_wires).sum();
        assert_eq!(
            request_wires,
            (SERVERS * CLIENTS * REQUESTS) as u64,
            "seed {seed}: exactly n Request wires per request"
        );
        for tap in &taps {
            let stats = tap.inner.stats();
            assert_eq!(tap.fill_wires, 0, "seed {seed}: no fill reached a server");
            assert_eq!(stats.payload_pushes, 0, "seed {seed}");
            assert_eq!(stats.payload_fetches, 0, "seed {seed}");
            assert_eq!(stats.payload_fills, 0, "seed {seed}");
        }
        let replicas: Vec<&OarServer<CounterMachine>> = taps.iter().map(|t| &t.inner).collect();
        check_server_consistency(&replicas).unwrap();
        let completed: Vec<&[CompletedRequest<i64>]> = clients
            .iter()
            .map(|&c| {
                world
                    .process_ref::<OarClient<CounterMachine>>(c)
                    .completed()
            })
            .collect();
        check_external_consistency(&replicas, &completed).unwrap();
    }
}

/// A crashed sequencer is the one case where requests stall in the
/// survivors' reception buffers: they push while the failure detector has
/// not fired yet, at most once per request and holder, and go quiet again
/// once the group has closed the epoch without it.
#[test]
fn pushes_are_confined_to_the_crash_window_and_bounded() {
    const REQUESTS: usize = 120;
    for seed in 0..4u64 {
        let config = ClusterConfig {
            num_servers: 3,
            num_clients: 2,
            net: NetConfig::lan(),
            oar: OarConfig {
                epoch_cut_after: Some(16),
                ..OarConfig::builder()
                    .fd_timeout(SimDuration::from_millis(20))
                    .build()
            },
            client_pipeline: 4,
            seed,
            ..ClusterConfig::default()
        };
        let mut cluster: Cluster<CounterMachine> =
            Cluster::build(&config, CounterMachine::default, |c| {
                (0..REQUESTS)
                    .map(|i| CounterCommand::Add((c * 31 + i) as i64 % 11 + 1))
                    .collect()
            });
        cluster.world.run_until(SimTime::from_millis(2));
        let victim = cluster.server(0, 0).current_sequencer();
        let pushes = |cluster: &Cluster<CounterMachine>| -> u64 {
            (0..3)
                .filter(|&i| cluster.groups[0][i] != victim)
                .map(|i| cluster.server(0, i).stats().payload_pushes)
                .sum()
        };
        assert_eq!(pushes(&cluster), 0, "seed {seed}: quiet before the crash");
        cluster.world.crash_now(victim);
        // Detection (20 ms) and the conservative close are long over here.
        cluster.world.run_until(SimTime::from_millis(60));
        let in_window = pushes(&cluster);
        assert!(
            in_window > 0,
            "seed {seed}: requests stalled behind the dead sequencer must be pushed"
        );
        // Two survivors, two outstanding windows of 4: each stalled request
        // costs each holder at most n-1 wires, batched.
        assert!(
            in_window <= 2 * 2 * 2 * 4,
            "seed {seed}: {in_window} push wires for at most 8 stalled requests"
        );
        assert!(
            cluster.run_to_completion(SimTime::from_secs(20)),
            "seed {seed}: survivors must finish the workload"
        );
        assert_eq!(
            pushes(&cluster),
            in_window,
            "seed {seed}: no push once the survivors order again"
        );
        cluster.check_per_group_consistency().unwrap();
        cluster.check_external_consistency().unwrap();
    }
}

/// The door for copies a peer passes on: a fill of a request whose key this
/// group has migrated away is dropped silently — the pruning replicas have
/// already redirected its client, and buffering it here would resurrect the
/// range — while the same request from its client is answered with a
/// `Redirect`.
#[test]
fn fill_of_a_migrated_away_request_is_dropped_at_the_door() {
    type KvWire = OarWire<KvCommand, oar_apps::kv::KvResponse>;
    let me = ProcessId::new(0);
    let peer = ProcessId::new(1);
    let client = ProcessId::new(9);
    let mut server = OarServer::new(me, vec![me], OarConfig::default(), KvMachine::new());
    let deliver = |server: &mut OarServer<KvMachine>, from: ProcessId, msg: KvWire| {
        let mut rng = SimRng::new(1);
        let mut actions = Vec::new();
        let mut next_timer = 0u64;
        let mut ctx = Context::new(
            SimTime::from_millis(1),
            me,
            &mut rng,
            &mut actions,
            &mut next_timer,
        );
        server.on_message(&mut ctx, from, msg);
        actions
    };
    let request = |seq: u64, route_epoch: u64, reconfig, command| {
        let id = RequestId::new(client, seq);
        Request {
            id,
            client,
            group: GroupId::default(),
            txn: None,
            reconfig,
            route_epoch,
            command,
        }
    };
    let first_hand = |request: Request<KvCommand>| {
        OarWire::Request(CastWire {
            id: request.id,
            origin: client,
            payload: request,
        })
    };
    let fence = request(
        0,
        0,
        Some(ReconfigCmd::Migrate {
            record: MigrationRecord {
                range: KeyRange::new("m", "n"),
                from_group: GroupId::default(),
                to_group: GroupId::new(1),
                route_epoch: 1,
            },
            to_members: vec![ProcessId::new(5)],
        }),
        KvCommand::Get { key: "zz".into() },
    );
    // Single-member group: the fence settles on receipt.
    deliver(&mut server, client, first_hand(fence));
    assert_eq!(server.route_epoch(), 1);

    let put = |seq, key: &str| {
        request(
            seq,
            1,
            None,
            KvCommand::Put {
                key: key.into(),
                value: "v".into(),
            },
        )
    };
    let gone = put(1, "mm");
    let gone_id = gone.id;
    let actions = deliver(
        &mut server,
        peer,
        OarWire::PayloadFill {
            requests: vec![gone.clone(), put(2, "kept")],
        },
    );
    assert!(!server.committed_sequence().contains(&gone_id));
    assert!(server
        .committed_sequence()
        .contains(&RequestId::new(client, 2)));
    assert_eq!(
        server.payloads_len(),
        1,
        "only the kept request is buffered"
    );
    assert_eq!(server.stats().redirected, 0, "a fill is never answered");
    assert!(
        !actions.iter().any(|a| matches!(
            a,
            oar_simnet::Action::Send { msg, .. }
                if matches!(msg_ref(msg), OarWire::Redirect { .. })
        )),
        "the client was redirected by the replicas that pruned the request"
    );
    // The same request first-hand: dropped too, and its client told.
    deliver(&mut server, client, first_hand(gone));
    assert!(!server.committed_sequence().contains(&gone_id));
    assert_eq!(server.stats().redirected, 1);
}

fn msg_ref<M>(payload: &oar_simnet::Payload<M>) -> &M {
    match payload {
        oar_simnet::Payload::Owned(m) => m,
        oar_simnet::Payload::Shared(m) => m.as_ref(),
    }
}
