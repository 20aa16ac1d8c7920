//! The `sim_*` workloads: the same server core on `oar-simnet`, one host
//! thread, `NetConfig::lan()` between all processes. Counts repeat exactly
//! for a seed; what is timed is the host cost of simulating the run.

use std::time::Instant;

use oar::state_machine::StateMachine;
use oar::txn::TxnCompleted;
use oar::{ClientConfig, CompletedRequest, OarClient, ShardRouter, TxnClient, TxnCluster};
use oar_apps::{KvCommand, KvMachine, KvResponse};
use oar_simnet::{GroupId, NetConfig, Process, ProcessId, SimDuration, SimTime, World};

use crate::gen;
use crate::oracle::{self, Server, Settled};
use crate::round::{epochs_closed, group_config, Round, REPLICAS};
use crate::stats;
use crate::timed::{Role, Timed, TraceSink, Wire};

/// The world is run in slices of this much simulated time, between which
/// the driver looks at the clients' progress.
const SLICE: SimDuration = SimDuration::from_micros(200);
/// A run still incomplete at this simulated time has lost requests.
const HORIZON: SimTime = SimTime::from_secs(600);
/// After the last reply, replicas get this long to apply what the client's
/// quorum did not wait for.
const SETTLE: SimDuration = SimDuration::from_millis(500);

fn add<P: Process<Wire> + 'static>(
    world: &mut World<Wire>,
    sink: Option<&TraceSink>,
    role: Role,
    process: P,
) -> ProcessId {
    match sink {
        Some(sink) => {
            let id = ProcessId::new(world.num_processes());
            world.add_process(sink.wrap(role, id, process))
        }
        None => world.add_process(process),
    }
}

fn get<P: 'static>(world: &World<Wire>, id: ProcessId, traced: bool) -> &P {
    if traced {
        &world.process_ref::<Timed<P>>(id).inner
    } else {
        world.process_ref::<P>(id)
    }
}

/// Runs slices until `done` holds; `false` when the horizon came first.
fn run_until(world: &mut World<Wire>, mut done: impl FnMut(&World<Wire>) -> bool) -> bool {
    while !done(world) {
        if world.now() >= HORIZON {
            return false;
        }
        let next = world.now() + SLICE;
        world.run_until(next);
    }
    true
}

/// Clients per half of a `sim_churn` round.
const CHURN_CLIENTS: usize = 8;

type Client = OarClient<KvMachine>;

/// One round of `sim_churn`, in two halves of eight closed-loop clients
/// each, with an epoch cut every eighth request. The sequencer is crashed
/// two thirds through the first half, which the two survivors finish; it is
/// restarted blank once they are idle, catches up, and the second half runs
/// on the full group again.
pub fn churn_round(requests_per_client: usize, seed: u64, sink: Option<&TraceSink>) -> Round {
    let traced = sink.is_some();
    let total = requests_per_client * CHURN_CLIENTS * 2;
    let commands: Vec<Vec<KvCommand>> = (0..2 * CHURN_CLIENTS as u64)
        .map(|c| gen::commands(gen::stream_seed(seed, c), requests_per_client))
        .collect();
    let mut workloads = commands.clone().into_iter();

    let setup_start = Instant::now();
    let mut world: World<Wire> = World::new(NetConfig::lan(), seed);
    let servers: Vec<ProcessId> = (0..REPLICAS).map(ProcessId::new).collect();
    let config = group_config(8).build();
    for &id in &servers {
        let server = Server::new(id, servers.clone(), config, KvMachine::new());
        add(&mut world, sink, Role::Server, server);
    }
    let mut clients = Vec::new();
    let mut add_clients = |world: &mut World<Wire>, clients: &mut Vec<ProcessId>| {
        for (c, workload) in workloads.by_ref().take(CHURN_CLIENTS).enumerate() {
            let client = Client::new(
                ProcessId::new(world.num_processes()),
                servers.clone(),
                workload,
                ClientConfig::builder()
                    .start_delay(SimDuration::from_micros(10 * c as u64))
                    .pipeline(4)
                    .build(),
            );
            clients.push(add(world, sink, Role::Client, client));
        }
    };
    add_clients(&mut world, &mut clients);
    let setup_s = setup_start.elapsed().as_secs_f64();

    let completed_so_far = |world: &World<Wire>, clients: &[ProcessId]| -> usize {
        clients
            .iter()
            .map(|&c| get::<Client>(world, c, traced).completed().len())
            .sum()
    };
    let cpu_before = stats::cpu_time();
    let run_start = Instant::now();
    let mut finished = run_until(&mut world, |w| completed_so_far(w, &clients) >= total / 3);
    let victim = get::<Server>(&world, servers[1], traced).current_sequencer();
    let crashed_at = world.now();
    world.crash_now(victim);
    finished &= run_until(&mut world, |w| completed_so_far(w, &clients) >= total / 2);
    let restarted_at = world.now();
    let fresh = Server::recovering(victim, servers.clone(), config, KvMachine::new());
    match sink {
        Some(sink) => world.restart_now(victim, sink.wrap(Role::Server, victim, fresh)),
        None => world.restart_now(victim, fresh),
    }
    finished &= run_until(&mut world, |w| {
        !get::<Server>(w, victim, traced).is_recovering()
    });
    let caught_up_at = world.now();
    add_clients(&mut world, &mut clients);
    finished &= run_until(&mut world, |w| completed_so_far(w, &clients) >= total);
    let wall_s = run_start.elapsed().as_secs_f64();
    let cpu_s = (stats::cpu_time() - cpu_before).as_secs_f64();
    let clock_s = world.now().as_micros() as f64 / 1e6;
    let events = world.events_processed();
    // Outside the measured window: let every replica apply the tail.
    let settle_until = world.now() + SETTLE;
    world.run_until(settle_until);

    let replicas: Vec<&Server> = servers
        .iter()
        .map(|&id| get::<Server>(&world, id, traced))
        .collect();
    let completed: Vec<&[CompletedRequest<KvResponse>]> = clients
        .iter()
        .map(|&c| get::<Client>(&world, c, traced).completed())
        .collect();
    let command_refs: Vec<&[KvCommand]> = commands.iter().map(Vec::as_slice).collect();
    let (mut errors, failed) = oracle::check_group(&replicas, &command_refs, &completed);
    if !finished {
        errors.push("requests still unanswered at the simulated-time horizon".into());
    }

    let done = completed.iter().flat_map(|c| c.iter());
    let mut latency_us: Vec<f64> = done
        .clone()
        .map(|c| c.latency().as_micros() as f64)
        .collect();
    stats::sort(&mut latency_us);
    // Simulated time without service: from the crash to the first reply to a
    // request submitted after it.
    let back_at = done
        .filter(|c| c.sent_at > crashed_at)
        .map(|c| c.completed_at)
        .min()
        .unwrap_or(crashed_at);
    let ms_between = |from: SimTime, to: SimTime| to.duration_since(from).as_micros() as f64 / 1e3;
    let n_done = latency_us.len();
    Round {
        setup_s,
        wall_s,
        cpu_s,
        clock_s,
        epochs: epochs_closed(&replicas),
        attempted: total,
        completed: n_done,
        failed,
        latency_us,
        errors,
        layer: vec![
            (
                "simnet.events_per_req",
                events as f64 / n_done.max(1) as f64,
            ),
            ("unavail_sim_ms", ms_between(crashed_at, back_at)),
            (
                "recovery.catchup_sim_ms",
                ms_between(restarted_at, caught_up_at),
            ),
        ],
        state_digest: replicas
            .iter()
            .fold(0, |h, r| h ^ r.state_machine().digest()),
        ..Round::default()
    }
}

const TXN_GROUPS: usize = 4;
const TXN_CLIENTS: usize = 4;

type TxnCl = TxnClient<KvMachine>;

/// The command the transaction layer sends one group for its share of a
/// transaction: the op itself when there is one, else one atomic `Multi`.
fn partition_command(ops: Vec<KvCommand>) -> KvCommand {
    if ops.len() == 1 {
        ops.into_iter().next().expect("one op")
    } else {
        KvCommand::Multi(ops)
    }
}

/// One round of `sim_sharded_txn`: four groups of three, four transactional
/// clients, every second transaction spanning two groups.
pub fn txn_round(txns_per_client: usize, seed: u64, sink: Option<&TraceSink>) -> Round {
    let traced = sink.is_some();
    let total = txns_per_client * TXN_CLIENTS;
    let router = ShardRouter::hash(TXN_GROUPS);
    let txns: Vec<Vec<Vec<KvCommand>>> = (0..TXN_CLIENTS as u64)
        .map(|c| gen::transactions(gen::stream_seed(seed, c), txns_per_client, &router))
        .collect();
    let workloads = txns.clone();

    let setup_start = Instant::now();
    let mut world: World<Wire> = World::new(NetConfig::lan(), seed);
    let config = group_config(256).build();
    let mut groups: Vec<Vec<ProcessId>> = Vec::new();
    for g in 0..TXN_GROUPS {
        let ids: Vec<ProcessId> = (g * REPLICAS..(g + 1) * REPLICAS)
            .map(ProcessId::new)
            .collect();
        for &id in &ids {
            let group_config = config.for_group(GroupId::new(g));
            let server = Server::new(id, ids.clone(), group_config, KvMachine::new());
            add(&mut world, sink, Role::Server, server);
            world.assign_group(id, GroupId::new(g));
        }
        groups.push(ids);
    }
    let mut clients = Vec::new();
    for (c, workload) in workloads.into_iter().enumerate() {
        let client = TxnCl::new(
            ProcessId::new(TXN_GROUPS * REPLICAS + c),
            groups.clone(),
            router.clone(),
            workload,
            ClientConfig::builder()
                .start_delay(SimDuration::from_micros(10 * c as u64))
                .pipeline(4)
                .build(),
        );
        clients.push(add(&mut world, sink, Role::Client, client));
    }
    let setup_s = setup_start.elapsed().as_secs_f64();

    let cpu_before = stats::cpu_time();
    let run_start = Instant::now();
    let finished = run_until(&mut world, |w| {
        clients
            .iter()
            .all(|&c| get::<TxnCl>(w, c, traced).is_done())
    });
    let wall_s = run_start.elapsed().as_secs_f64();
    let cpu_s = (stats::cpu_time() - cpu_before).as_secs_f64();
    let clock_s = world.now().as_micros() as f64 / 1e6;
    let events = world.events_processed();
    let settle_until = world.now() + SETTLE;
    world.run_until(settle_until);

    let mut errors = Vec::new();
    if !finished {
        errors.push("transactions still uncommitted at the simulated-time horizon".into());
    }
    // Per group: the commands it was sent, at the positions the clients
    // adopted, replayed on a single node.
    let mut commands: Vec<Vec<(u64, KvCommand, &KvResponse)>> = vec![Vec::new(); TXN_GROUPS];
    let mut attempted_parts = [0usize; TXN_GROUPS];
    for ops in txns.iter().flatten() {
        for g in router.groups_for_keys(ops.iter().map(|op| op.key())) {
            attempted_parts[g.index()] += 1;
        }
    }
    let mut latency_us = Vec::with_capacity(total);
    let mut multi_group = 0usize;
    let mut parts_total = 0usize;
    for (c, &id) in clients.iter().enumerate() {
        let done: &[TxnCompleted<KvResponse>] = get::<TxnCl>(&world, id, traced).completed();
        for txn in done {
            latency_us.push(txn.latency().as_micros() as f64);
            multi_group += usize::from(txn.is_multi_group());
            parts_total += txn.parts.len();
            for part in &txn.parts {
                let ops: Vec<KvCommand> = txns[c][txn.index]
                    .iter()
                    .filter(|op| router.route_key(op.key()) == part.group)
                    .cloned()
                    .collect();
                commands[part.group.index()].push((
                    part.position,
                    partition_command(ops),
                    &part.response,
                ));
            }
        }
    }
    let mut state_digest = 0;
    let mut epochs = 0;
    for (g, ids) in groups.iter().enumerate() {
        let replicas: Vec<&Server> = ids
            .iter()
            .map(|&id| get::<Server>(&world, id, traced))
            .collect();
        if let Err(e) = oar::check_server_consistency(&replicas) {
            errors.push(format!("group {g} server consistency: {e}"));
        }
        let settled = commands[g]
            .iter()
            .map(|(position, command, response)| Settled {
                position: *position,
                command,
                response,
            })
            .collect();
        let (group_errors, _wrong_parts) = oracle::check_replay(
            &format!("group {g}"),
            settled,
            attempted_parts[g],
            &replicas,
        );
        errors.extend(group_errors);
        epochs += epochs_closed(&replicas);
        state_digest ^= replicas
            .iter()
            .fold(0, |h, r| h ^ r.state_machine().digest());
    }
    stats::sort(&mut latency_us);
    let n_done = latency_us.len();
    let fast_path = n_done - multi_group;
    let layer = vec![
        (
            "simnet.events_per_req",
            events as f64 / n_done.max(1) as f64,
        ),
        (
            "txn.prepares_per_txn",
            (parts_total - fast_path) as f64 / n_done.max(1) as f64,
        ),
        (
            "txn.fastpath_share",
            fast_path as f64 / n_done.max(1) as f64,
        ),
    ];
    // `commands` borrows the adopted responses out of `world`.
    drop(commands);
    if !traced {
        // The repository's own cross-group checks downcast to the bare
        // process types, so they run on the untraced rounds only. Of
        // `TxnCluster::check_all`, the atomicity and external-consistency
        // parts look requests up in the replicas' retained logs and so
        // report every compacted request as missing; the replay above
        // covers both. The per-group part is compaction-aware.
        let cluster: TxnCluster<KvMachine> = TxnCluster {
            world,
            groups,
            clients,
            router,
        };
        if let Err(e) = cluster.check_per_group_consistency() {
            errors.push(format!("TxnCluster::check_per_group_consistency: {e}"));
        }
    }
    Round {
        setup_s,
        wall_s,
        cpu_s,
        clock_s,
        epochs,
        attempted: total,
        completed: n_done,
        // A violation in any group leaves no transaction trustworthy.
        failed: if errors.is_empty() {
            total - n_done
        } else {
            total
        },
        latency_us,
        errors,
        layer,
        state_digest,
        ..Round::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timed::{Kind, Trace};

    fn traced(round: impl Fn(Option<&TraceSink>) -> Round) -> (Round, Trace) {
        let sink = TraceSink::new();
        let result = round(Some(&sink));
        (result, sink.take())
    }

    /// Wires sent per completed request, by kind, both roles together.
    fn wires_per_request(round: &Round, trace: &Trace) -> Vec<f64> {
        Kind::ALL
            .iter()
            .map(|&k| {
                (trace.server.sent[k as usize] + trace.client.sent[k as usize]) as f64
                    / round.completed as f64
            })
            .collect()
    }

    fn assert_same_run(a: &(Round, Trace), b: &(Round, Trace)) {
        assert!(a.0.errors.is_empty(), "{:?}", a.0.errors);
        assert_eq!(a.0.failed, 0);
        assert_eq!(a.0.completed, a.0.attempted);
        assert_eq!(a.1.server.sent, b.1.server.sent);
        assert_eq!(a.1.client.sent, b.1.client.sent);
        assert_eq!(a.1.server.calls, b.1.server.calls);
        assert_eq!(a.0.layer, b.0.layer);
        assert_eq!(a.0.latency_us, b.0.latency_us);
        assert_eq!(a.0.epochs, b.0.epochs);
        assert_eq!(a.0.state_digest, b.0.state_digest);
    }

    /// Another seed is another run, but the same amount of protocol work.
    fn assert_same_work(a: &(Round, Trace), b: &(Round, Trace)) {
        assert_ne!(a.0.state_digest, b.0.state_digest);
        let per_request = wires_per_request(&a.0, &a.1)
            .into_iter()
            .zip(wires_per_request(&b.0, &b.1));
        for (kind, (x, y)) in Kind::ALL.iter().zip(per_request) {
            // Kinds sent a handful of times per run (catch-up, phase 2 of the
            // one crash) are not a rate; everything per-request is.
            if x.max(y) >= 0.05 {
                assert!((x - y).abs() / x.max(y) < 0.02, "{kind:?}: {x} vs {y}");
            }
        }
        let events = |r: &Round| r.layer_value("simnet.events_per_req").expect("recorded");
        assert!((events(&a.0) - events(&b.0)).abs() / events(&a.0) < 0.02);
    }

    #[test]
    fn churn_repeats_exactly_on_one_seed_and_in_kind_on_another() {
        let first = traced(|sink| churn_round(400, 11, sink));
        assert_same_run(&first, &traced(|sink| churn_round(400, 11, sink)));
        // Rates settle with length: compared at the benchmark's round size.
        let full = traced(|sink| churn_round(1_250, 11, sink));
        assert_same_work(&full, &traced(|sink| churn_round(1_250, 12, sink)));
        // The crash was felt and the blank replica came back by transfer.
        assert!(first.0.layer_value("unavail_sim_ms").expect("recorded") > 0.0);
        assert!(first.1.server.sent[Kind::CatchUp as usize] >= 2);
        assert!(first.1.server.calls[Kind::PhaseII as usize] > 0);
    }

    #[test]
    fn churn_is_the_same_run_with_and_without_the_tracer() {
        let plain = churn_round(400, 11, None);
        let (with_tracer, _) = traced(|sink| churn_round(400, 11, sink));
        assert!(plain.errors.is_empty(), "{:?}", plain.errors);
        assert_eq!(plain.latency_us, with_tracer.latency_us);
        assert_eq!(plain.layer, with_tracer.layer);
        assert_eq!(plain.state_digest, with_tracer.state_digest);
    }

    #[test]
    fn sharded_txn_repeats_exactly_on_one_seed_and_in_kind_on_another() {
        let first = traced(|sink| txn_round(600, 11, sink));
        assert_same_run(&first, &traced(|sink| txn_round(600, 11, sink)));
        let full = traced(|sink| txn_round(4_000, 11, sink));
        assert_same_work(&full, &traced(|sink| txn_round(4_000, 12, sink)));
        assert_eq!(first.0.layer_value("txn.fastpath_share"), Some(0.5));
        assert_eq!(first.0.layer_value("txn.prepares_per_txn"), Some(1.0));
        let plain = txn_round(600, 11, None);
        assert!(plain.errors.is_empty(), "{:?}", plain.errors);
        assert_eq!(plain.state_digest, first.0.state_digest);
    }
}
