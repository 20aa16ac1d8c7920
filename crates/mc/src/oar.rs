//! OAR-specific model-checking scenarios.
//!
//! This module instantiates the generic [`Checker`] for the OAR protocol:
//! small clusters ([`Cluster`]) on a **checker-friendly configuration** —
//! constant-latency loss-free FIFO network, protocol timers pushed beyond
//! the exploration horizon (no heartbeats, no flush deadlines, no catch-up
//! retries fire *inside* the model), eager unbatched sequencing, closed-loop
//! clients with zero think time. On such a configuration the system never
//! reads the clock or the RNG, so key-directed exploration with abstract
//! time covers every behaviour — the preconditions spelled out in the crate
//! docs.
//!
//! The **invariant** checked at every state is the conjunction of the
//! paper's safety propositions, evaluated by the production checkers
//! ([`check_server_consistency`], [`check_external_consistency`]): total
//! order / prefix compatibility of the committed sequences (Proposition 5),
//! at-most-once delivery (Propositions 2–3), digest equality at equal
//! delivery counts, and external consistency of adopted replies
//! (Proposition 7). The **goal** predicate is termination: every client
//! finished its workload and no in-horizon event remains. A terminal state
//! that is not a goal state is a deadlock — the liveness failure mode the
//! historical sequencer-handoff bug produced.
//!
//! Faults are modelled as [`McChoice`]s, so the checker explores their
//! placement against every message interleaving: [`crash_choice`] kills a
//! replica, [`restart_choice`] brings it back with blank state through the
//! catch-up protocol, and [`force_suspect_choice`] injects a failure-detector
//! suspicion (wrong or justified) at one observer. The pre-packaged
//! [`OarScenario`]s tie these together:
//!
//! * [`OarScenario::clean`] — no faults; exhaustive interleaving coverage of
//!   the optimistic path.
//! * [`OarScenario::sequencer_handoff`] — crash of the *next* sequencer plus
//!   a wrong suspicion of the current one. With
//!   [`OarConfig::bug_skip_handoff_recheck`] enabled this re-finds the
//!   historical stall: consensus hands the epoch to an already-suspected
//!   dead sequencer and no one re-triggers phase 2.
//! * [`OarScenario::mid_epoch_rejoin`] — crash + catch-up rejoin while
//!   epochs cut every two requests. With
//!   [`OarConfig::bug_skip_opt_freeze`] enabled this re-finds the Lemma-2
//!   violation: the rejoiner Opt-delivers a mid-epoch suffix whose prefix it
//!   never observed, and the replicas' committed sequences diverge.
//! * [`OarScenario::membership_change`] — crash of one replica plus its
//!   online **replacement** through a `Reconfig::Replace` fence
//!   ([`replace_choice`]): the fence settles conservatively, the spare joins
//!   through the event-driven held-catch-up path, and every interleaving
//!   must keep total order, at-most-once and external consistency and
//!   terminate.
//! * [`OarScenario::partial_multicast`] — a client dies mid-multicast: its
//!   request reaches one non-sequencer only. Servers do not relay requests
//!   on reception, so Agreement rests on the tick-driven repairs (push on
//!   stall, pull of ordered-but-missing payloads); maintenance ticks are
//!   therefore a scheduling choice here ([`tick_choice`]), placed against
//!   every interleaving together with a crash of the sequencer. Every path
//!   must keep the propositions and deliver the request at every live
//!   replica.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use oar::message::{OarWire, Request, RequestId};
use oar::state_machine::{CounterCommand, CounterMachine};
use oar::{
    check_external_consistency, check_server_consistency, spawn_replacement, Cluster,
    ClusterConfig, CompletedRequest, OarClient, OarConfig, OarConfigBuilder, OarServer,
};
use oar_channels::CastWire;
use oar_simnet::{
    ForkError, GroupId, NetConfig, PendingEventInfo, Process, ProcessId, Runtime, SimDuration,
    SimTime, Timer, TimerId, TimerTag, World,
};

use crate::{Checker, McChoice, McConfig, McReport};

/// The wire type of a `CounterMachine` OAR cluster.
pub type Wire = OarWire<CounterCommand, i64>;

/// The exploration horizon of the packaged scenarios: far beyond the
/// microseconds the protocol needs on a 100µs-latency network, far below
/// the [`FAR`] timer period.
pub const HORIZON: SimTime = SimTime::from_secs(60);

/// "Never, within the model": the period of every protocol timer in a
/// checker-friendly configuration. Events at `now + FAR` exist in the queue
/// but lie beyond [`HORIZON`], so the checker neither fires nor hashes them.
pub const FAR: SimDuration = SimDuration::from_secs(3600);

/// Content hash of a wire message, for event signatures and state
/// fingerprints. Hashes the `Debug` rendering: every OAR wire derives
/// `Debug` over fully deterministic fields (ids, epochs, sequences), and the
/// rendering is stable across forks and rebuilds of the same world.
pub fn wire_digest(m: &Wire) -> u64 {
    let mut h = DefaultHasher::new();
    format!("{m:?}").hash(&mut h);
    h.finish()
}

/// A checker-friendly protocol configuration: every timer-driven behaviour
/// (maintenance tick, catch-up retry) pushed beyond the horizon, eager
/// unbatched sequencing. `tweak` customises the rest (epoch cuts, fault
/// toggles).
pub fn timer_free_oar(tweak: impl FnOnce(OarConfigBuilder) -> OarConfigBuilder) -> OarConfig {
    tweak(OarConfig::builder().tick_interval(FAR).catch_up_retry(FAR)).build()
}

/// A checker-friendly cluster configuration over `oar`: constant-latency
/// FIFO network, zero think time, static pipeline of 1, and — crucially —
/// zero client start delays (the default stagger would be a time-dependent
/// behaviour the abstract-time exploration must not rely on).
pub fn mc_cluster_config(num_servers: usize, num_clients: usize, oar: OarConfig) -> ClusterConfig {
    ClusterConfig {
        num_servers,
        num_clients,
        net: NetConfig::constant(SimDuration::from_micros(100)),
        oar,
        client_start_delays: vec![SimDuration::ZERO; num_clients],
        ..ClusterConfig::default()
    }
}

/// A fault choice killing `target` (consumes one unit of the fault budget).
pub fn crash_choice(target: ProcessId) -> McChoice<Wire> {
    McChoice {
        id: format!("crash({target})"),
        affects: Some(target),
        fault: true,
        enabled: Rc::new(move |world: &World<Wire>| !world.is_crashed(target)),
        apply: Rc::new(move |world: &mut World<Wire>| world.crash_now(target)),
    }
}

/// A choice restarting the crashed `target` with blank state: the
/// replacement is built with [`OarServer::recovering`], so it rejoins
/// through the snapshot + settled-delta catch-up protocol.
pub fn restart_choice(target: ProcessId, num_servers: usize, oar: OarConfig) -> McChoice<Wire> {
    let group: Vec<ProcessId> = (0..num_servers).map(ProcessId::new).collect();
    McChoice {
        id: format!("restart({target})"),
        affects: Some(target),
        fault: false,
        enabled: Rc::new(move |world: &World<Wire>| world.is_crashed(target)),
        apply: Rc::new(move |world: &mut World<Wire>| {
            world.restart_now(
                target,
                OarServer::recovering(target, group.clone(), oar, CounterMachine::default()),
            );
        }),
    }
}

/// A choice **replacing** the crashed `old_index`-th replica through the
/// online membership-reconfiguration path: spawns the replacement replica
/// over the post-replacement roster and injects the `Replace` fence request
/// into the survivors, which settle it through the conservative order
/// ([`spawn_replacement`] — the exact operation [`Cluster::inject_replace`]
/// performs). The replacement joins through the held-catch-up path: donors
/// that have not yet applied the fence *hold* its `CatchUpRequest` and serve
/// it the moment the fence applies, so the join is event-driven and needs no
/// retry timer — explorable timer-free.
///
/// Gated on `old` being actually crashed (replacing a live replica is legal
/// for the protocol but not what this scenario models). The gate is monotone
/// — the scenario repertoire offers no restart of `old`, so a crashed `old`
/// stays crashed — which keeps it sound under sleep-set reduction.
/// `affects: None`: the choice spawns a process and sends wires to every
/// survivor, so it is dependent with every other transition.
pub fn replace_choice(old_index: usize, num_servers: usize, oar: OarConfig) -> McChoice<Wire> {
    let servers: Vec<ProcessId> = (0..num_servers).map(ProcessId::new).collect();
    let old = servers[old_index];
    McChoice {
        id: format!("replace({old})"),
        affects: None,
        fault: false,
        enabled: Rc::new(move |world: &World<Wire>| world.is_crashed(old)),
        apply: Rc::new(move |world: &mut World<Wire>| {
            spawn_replacement(
                world,
                &servers,
                old_index,
                oar,
                CounterCommand::Add(0),
                CounterMachine::default(),
            );
            // Boot the replacement immediately so its first `CatchUpRequest`
            // is in the pending set before the next scheduling decision.
            world.start();
        }),
    }
}

/// A choice making server `at`'s failure detector suspect `target`
/// ([`OarServer::force_suspect`]: triggers Task 1c when `target` is the
/// current sequencer and feeds any running consensus, exactly like a real
/// suspicion event). With `only_when_down` the choice is gated on `target`
/// being actually crashed or mid-recovery (a *justified* suspicion — the
/// accuracy the eventually-perfect detector converges to); without it the
/// choice models a **wrong** suspicion of a healthy process.
///
/// The justified variant is additionally gated on the target having **no
/// in-flight messages**: the failure detector revokes suspicion on any
/// traffic from the suspect (`observe_traffic`), so a suspicion raised
/// while stale pre-crash messages are still in flight would be revoked on
/// their arrival and — with heartbeat timers pushed beyond the horizon —
/// never re-raised, losing the re-suspect transition a real timeout
/// provides. Firing only after the pipe drains models the detector's
/// eventual *completeness*: the final, permanent suspicion that follows
/// the last message from a crashed process. The gate is monotone (a
/// crashed process sends nothing, so a drained pipe stays drained), which
/// keeps it sound under sleep-set reduction for the same reason as the
/// epoch-gated crash in [`OarScenario::mid_epoch_rejoin`].
pub fn force_suspect_choice(
    at: ProcessId,
    target: ProcessId,
    only_when_down: bool,
) -> McChoice<Wire> {
    McChoice {
        id: format!("suspect({target})@{at}"),
        affects: Some(at),
        fault: false,
        enabled: Rc::new(move |world: &World<Wire>| {
            if world.is_crashed(at) {
                return false;
            }
            if !only_when_down {
                return true;
            }
            let down = world.is_crashed(target)
                || world
                    .process_ref::<OarServer<CounterMachine>>(target)
                    .is_recovering();
            down && !world.pending_events().iter().any(|e| {
                !e.noop
                    && matches!(e.info, PendingEventInfo::Deliver { from, .. } if from == target)
            })
        }),
        apply: Rc::new(move |world: &mut World<Wire>| {
            world.invoke_now(at, |proc, ctx| {
                if let Some(server) = proc
                    .as_any_mut()
                    .downcast_mut::<OarServer<CounterMachine>>()
                {
                    server.force_suspect(target, ctx);
                }
            });
        }),
    }
}

/// A choice letting two consecutive maintenance ticks pass at server `at`
/// with no message delivered in between — the stretch of time after which
/// the request repairs act: a payload still missing is pulled, a held
/// request still unordered is pushed. The packaged configurations keep the
/// tick *timer* beyond the horizon (a periodic timer would make the space
/// infinite); this choice fires the same `on_timer` callback, at most once
/// per path, and `round` distinguishes the copies a scenario offers when one
/// stretch may not be enough (a pull whose first donor is dead).
///
/// Gated on [`OarServer::repair_due`], so a tick is only taken where it does
/// something; the gate reads `at`'s state alone, so transitions at other
/// processes can neither enable nor disable it (sound under sleep sets).
pub fn tick_choice(at: ProcessId, round: usize) -> McChoice<Wire> {
    McChoice {
        id: format!("ticks@{at}#{round}"),
        affects: Some(at),
        fault: false,
        enabled: Rc::new(move |world: &World<Wire>| {
            !world.is_crashed(at) && {
                let server = world.process_ref::<OarServer<CounterMachine>>(at);
                !server.is_recovering() && server.repair_due()
            }
        }),
        apply: Rc::new(move |world: &mut World<Wire>| {
            world.invoke_now(at, |proc, ctx| {
                let tick = Timer {
                    id: TimerId(u64::MAX),
                    tag: TimerTag::Tick,
                };
                proc.on_timer(ctx, tick);
                proc.on_timer(ctx, tick);
            });
        }),
    }
}

/// A client that dies in the middle of its multicast: its one request
/// reaches `recipients` only, and nobody collects the replies.
#[derive(Clone)]
struct DyingClient {
    id: ProcessId,
    recipients: Vec<ProcessId>,
}

impl DyingClient {
    fn request_id(&self) -> RequestId {
        RequestId::new(self.id, 0)
    }
}

impl Process<Wire> for DyingClient {
    fn on_start(&mut self, rt: &mut dyn Runtime<Wire>) {
        let id = self.request_id();
        let request = Request {
            id,
            client: self.id,
            group: GroupId::default(),
            txn: None,
            reconfig: None,
            route_epoch: 0,
            command: CounterCommand::Add(7),
        };
        let wire = CastWire {
            id,
            origin: self.id,
            payload: request,
        };
        rt.send_all(&self.recipients, OarWire::Request(wire));
    }

    fn on_message(&mut self, _rt: &mut dyn Runtime<Wire>, _from: ProcessId, _msg: Wire) {}

    fn fork(&self) -> Option<Box<dyn Process<Wire>>> {
        Some(Box::new(self.clone()))
    }

    fn state_digest(&self) -> Option<u64> {
        Some(0)
    }
}

/// The safety invariant of every OAR scenario: the paper's propositions over
/// the alive, fully-caught-up replicas (a crashed replica holds no state; a
/// replica mid-catch-up deliberately holds blank state — same population
/// rule as [`Cluster::check_per_group_consistency`]). `servers` may list
/// replicas that do not exist yet — a [`replace_choice`] spare is only
/// spawned when the choice fires, so ids at or beyond the world's process
/// count are skipped.
pub fn oar_invariant(
    servers: Vec<ProcessId>,
    clients: Vec<ProcessId>,
) -> impl Fn(&World<Wire>) -> Result<(), String> {
    move |world: &World<Wire>| {
        let alive: Vec<&OarServer<CounterMachine>> = servers
            .iter()
            .copied()
            .filter(|&s| s.index() < world.num_processes() && !world.is_crashed(s))
            .map(|s| world.process_ref::<OarServer<CounterMachine>>(s))
            .filter(|server| !server.is_recovering())
            .collect();
        check_server_consistency(&alive)?;
        let completed: Vec<&[CompletedRequest<i64>]> = clients
            .iter()
            .map(|&c| {
                world
                    .process_ref::<OarClient<CounterMachine>>(c)
                    .completed()
            })
            .collect();
        check_external_consistency(&alive, &completed)
    }
}

/// The termination goal of every OAR scenario: all clients finished their
/// workloads **and** the in-horizon event queue drained. Requiring the
/// drain makes terminal states directly comparable with a plain
/// [`World::run_until`] execution (differential tests) and keeps the
/// deadlock check honest — a state with work still in flight is neither
/// done nor stuck.
///
///
/// `must_deliver` lists requests no client waits for (a dying client's):
/// each must be delivered — Opt-delivered and not undone, or settled — at
/// every live replica of `servers`, which is R-multicast's Agreement as the
/// replicated service sees it.
pub fn oar_goal(
    servers: Vec<ProcessId>,
    clients: Vec<ProcessId>,
    must_deliver: Vec<RequestId>,
    horizon: SimTime,
) -> impl Fn(&World<Wire>) -> bool {
    move |world: &World<Wire>| {
        let delivered_everywhere = |id: &RequestId| {
            servers
                .iter()
                .filter(|&&s| s.index() < world.num_processes() && !world.is_crashed(s))
                .map(|&s| world.process_ref::<OarServer<CounterMachine>>(s))
                .all(|server| server.is_recovering() || server.has_delivered(id))
        };
        clients
            .iter()
            .all(|&c| world.process_ref::<OarClient<CounterMachine>>(c).is_done())
            && must_deliver.iter().all(delivered_everywhere)
            && world
                .pending_events()
                .into_iter()
                .all(|e| e.noop || e.time > horizon)
    }
}

/// A packaged model-checking scenario: a cluster shape, a workload, a fault
/// repertoire and exploration bounds. [`OarScenario::world`] and
/// [`OarScenario::checker`] rebuild identical instances on every call, so a
/// trace found by one run replays on a world built by the next.
pub struct OarScenario {
    /// Scenario name (report labelling).
    pub name: &'static str,
    /// The cluster deployment.
    pub cluster: ClusterConfig,
    /// Commands per client (distinct across clients).
    pub requests_per_client: usize,
    /// Number of spare replicas a [`replace_choice`] in `choices` may spawn
    /// beyond the initial deployment. Their ids follow the clients'
    /// (simnet assigns dense pids in spawn order); [`OarScenario::servers`]
    /// includes them so the invariant covers a replacement once it exists.
    pub spare_servers: usize,
    /// The servers a [`OarScenario::partial_multicast`] dying client's one
    /// request reaches (empty: the scenario has no such client).
    pub partial_to: Vec<ProcessId>,
    /// The fault/control choices available to the checker.
    pub choices: Vec<McChoice<Wire>>,
    /// Exploration bounds.
    pub mc: McConfig,
}

impl OarScenario {
    /// Failure-free scenario: 3 replicas, `num_clients` closed-loop clients
    /// with `requests_per_client` commands each, no fault choices. Every
    /// interleaving of the optimistic path must satisfy all four predicates
    /// and terminate.
    pub fn clean(num_clients: usize, requests_per_client: usize) -> Self {
        OarScenario {
            name: "clean",
            cluster: mc_cluster_config(3, num_clients, timer_free_oar(|b| b)),
            requests_per_client,
            spare_servers: 0,
            partial_to: Vec::new(),
            choices: Vec::new(),
            mc: McConfig {
                horizon: HORIZON,
                max_faults: 0,
                ..McConfig::default()
            },
        }
    }

    /// Sequencer-handoff scenario (the historical "suspected-sequencer
    /// phase-2 stall"): 3 replicas, 1 client, 2 requests. The checker may
    /// crash `s1` (the epoch-1 sequencer), let `s0`/`s2` justifiedly suspect
    /// it, and let `s2` *wrongly* suspect `s0` (the epoch-0 sequencer) —
    /// which starts phase 2 and hands epoch 1 to the dead, already-suspected
    /// `s1`. With `bug` the servers skip the Task 1c re-check at the
    /// handoff, the second request is never ordered, and the checker finds
    /// the stall as a deadlock; without it every path terminates.
    pub fn sequencer_handoff(bug: bool) -> Self {
        let oar = timer_free_oar(|b| if bug { b.bug_skip_handoff_recheck() } else { b });
        let s0 = ProcessId::new(0);
        let s1 = ProcessId::new(1);
        let s2 = ProcessId::new(2);
        OarScenario {
            name: if bug {
                "sequencer-handoff(bug)"
            } else {
                "sequencer-handoff"
            },
            cluster: mc_cluster_config(3, 1, oar),
            requests_per_client: 2,
            spare_servers: 0,
            partial_to: Vec::new(),
            choices: vec![
                crash_choice(s1),
                force_suspect_choice(s0, s1, true),
                force_suspect_choice(s2, s1, true),
                force_suspect_choice(s2, s0, false),
            ],
            mc: McConfig {
                horizon: HORIZON,
                max_faults: 1,
                ..McConfig::default()
            },
        }
    }

    /// Mid-epoch rejoin scenario (the historical Lemma-2 violation): 3
    /// replicas, 1 client, 4 requests, epochs cut every 2 optimistic
    /// deliveries — so a rejoin can land *between* two `OrderMsg` batches of
    /// one epoch. The checker may crash `s2` — gated on the group having
    /// entered epoch 1, the window where a rejoin lands mid-epoch (crashes
    /// in epoch 0 only exercise rejoin-at-epoch-start, which the freeze is
    /// not about) — restart it through catch-up, and let the survivors
    /// suspect it while it is down (unwedging the epoch-close consensus
    /// whose round coordinator it is). With `bug` the rejoiner skips the
    /// Lemma-2 freeze and Opt-delivers a mid-epoch suffix, violating prefix
    /// compatibility; without it every path stays safe.
    pub fn mid_epoch_rejoin(bug: bool) -> Self {
        let oar = timer_free_oar(|b| {
            let b = b.epoch_cut_after(2);
            if bug {
                b.bug_skip_opt_freeze()
            } else {
                b
            }
        });
        let s0 = ProcessId::new(0);
        let s1 = ProcessId::new(1);
        let s2 = ProcessId::new(2);
        OarScenario {
            name: if bug {
                "mid-epoch-rejoin(bug)"
            } else {
                "mid-epoch-rejoin"
            },
            cluster: mc_cluster_config(3, 1, oar),
            requests_per_client: 4,
            spare_servers: 0,
            partial_to: Vec::new(),
            choices: vec![
                {
                    let mut crash = crash_choice(s2);
                    let base = crash.enabled;
                    crash.id = "crash(p2)@epoch1".to_owned();
                    crash.enabled = Rc::new(move |world: &World<Wire>| {
                        base(world)
                            && world.process_ref::<OarServer<CounterMachine>>(s0).epoch() >= 1
                    });
                    crash
                },
                restart_choice(s2, 3, oar),
                force_suspect_choice(s0, s2, true),
                force_suspect_choice(s1, s2, true),
            ],
            mc: McConfig {
                horizon: HORIZON,
                max_faults: 1,
                ..McConfig::default()
            },
        }
    }

    /// Membership-change scenario (the tentpole's replica replacement,
    /// exhaustively): 3 replicas, 1 client, 2 requests. The checker may
    /// crash `s2` at any point and then **replace** it online: the
    /// [`replace_choice`] spawns a spare replica over the post-replacement
    /// roster and injects the `Replace` fence, which the survivors settle
    /// through the conservative order. The spare joins through the
    /// held-catch-up path — a donor that has not applied the fence holds the
    /// spare's `CatchUpRequest` and serves it when the fence applies — so
    /// the whole join is event-driven and the scenario stays timer-free.
    /// Justified-suspicion choices of the crashed `s2` exercise the
    /// fence-close consensus under failure detection. Every path must
    /// satisfy total order, at-most-once and external consistency (with the
    /// caught-up spare included in the checked population) and terminate:
    /// the fence must neither wedge the epoch close nor strand the spare.
    pub fn membership_change() -> Self {
        let oar = timer_free_oar(|b| b);
        let s0 = ProcessId::new(0);
        let s1 = ProcessId::new(1);
        let s2 = ProcessId::new(2);
        OarScenario {
            name: "membership-change",
            cluster: mc_cluster_config(3, 1, oar),
            requests_per_client: 2,
            spare_servers: 1,
            partial_to: Vec::new(),
            choices: vec![
                crash_choice(s2),
                replace_choice(2, 3, oar),
                force_suspect_choice(s0, s2, true),
                force_suspect_choice(s1, s2, true),
            ],
            mc: McConfig {
                horizon: HORIZON,
                max_faults: 1,
                ..McConfig::default()
            },
        }
    }

    /// Partial-multicast scenario (Agreement without the relay): 3 replicas
    /// and a client that dies mid-multicast — its request reaches `s1`, a
    /// non-sequencer, and nobody else. The checker places two-tick
    /// stretches ([`tick_choice`], two per server) against every
    /// interleaving, may crash the sequencer `s0` at any point and let the
    /// survivors justifiedly suspect it. Whatever the schedule — pushed to a
    /// live sequencer and ordered; pushed between the survivors and settled
    /// by the conservative close; proposed by its one holder and pulled by
    /// the other replica once decided — the request must end up delivered
    /// at every live replica, with the propositions holding throughout.
    ///
    /// A fault choice stays available until it fires, so with the crash in
    /// the repertoire every maximal path contains it and the paths on which
    /// the sequencer lives are never terminal: `crash: false` removes it
    /// (fault budget 0), which is the arm that shows the push alone
    /// suffices.
    pub fn partial_multicast(crash: bool) -> Self {
        let oar = timer_free_oar(|b| b);
        let servers: Vec<ProcessId> = (0..3).map(ProcessId::new).collect();
        let (s0, s1, s2) = (servers[0], servers[1], servers[2]);
        let mut choices = vec![
            crash_choice(s0),
            force_suspect_choice(s1, s0, true),
            force_suspect_choice(s2, s0, true),
        ];
        for round in 0..2 {
            choices.extend(servers.iter().map(|&s| tick_choice(s, round)));
        }
        OarScenario {
            name: if crash {
                "partial-multicast(crash)"
            } else {
                "partial-multicast"
            },
            cluster: mc_cluster_config(3, 0, oar),
            requests_per_client: 0,
            spare_servers: 0,
            partial_to: vec![s1],
            choices,
            mc: McConfig {
                horizon: HORIZON,
                max_faults: usize::from(crash),
                ..McConfig::default()
            },
        }
    }

    /// The dying client of a partial-multicast scenario (its process id
    /// follows the deployment's).
    fn dying_client(&self) -> Option<DyingClient> {
        (!self.partial_to.is_empty()).then(|| DyingClient {
            id: ProcessId::new(self.cluster.num_servers + self.cluster.num_clients),
            recipients: self.partial_to.clone(),
        })
    }

    /// The server process ids of this scenario: the initial deployment plus
    /// any [`replace_choice`] spares (spawned after the clients, so their
    /// ids follow the clients'; [`oar_invariant`] skips the not-yet-spawned).
    pub fn servers(&self) -> Vec<ProcessId> {
        let base = self.cluster.num_servers + self.cluster.num_clients;
        (0..self.cluster.num_servers)
            .map(ProcessId::new)
            .chain((base..base + self.spare_servers).map(ProcessId::new))
            .collect()
    }

    /// The client process ids of this scenario.
    pub fn clients(&self) -> Vec<ProcessId> {
        (self.cluster.num_servers..self.cluster.num_servers + self.cluster.num_clients)
            .map(ProcessId::new)
            .collect()
    }

    /// Builds the cluster instance. Deterministic: every call returns an
    /// identical deployment (same ids, same event numbering).
    pub fn build_cluster(&self) -> Cluster<CounterMachine> {
        let requests = self.requests_per_client;
        Cluster::build(&self.cluster, CounterMachine::default, |client| {
            (0..requests)
                .map(|i| CounterCommand::Add((100 * client + i + 1) as i64))
                .collect()
        })
    }

    /// Builds the world to explore.
    pub fn world(&self) -> World<Wire> {
        let mut world = self.build_cluster().world;
        if let Some(client) = self.dying_client() {
            world.add_process(client);
        }
        world
    }

    /// Builds the checker (invariant = safety propositions, goal =
    /// termination).
    pub fn checker(&self) -> Checker<Wire> {
        Checker::new(
            self.mc.clone(),
            self.choices.clone(),
            oar_invariant(self.servers(), self.clients()),
            oar_goal(
                self.servers(),
                self.clients(),
                self.dying_client().iter().map(|c| c.request_id()).collect(),
                self.mc.horizon,
            ),
            wire_digest,
        )
    }

    /// Explores the scenario.
    pub fn run(&self) -> Result<McReport, ForkError> {
        self.checker().run(self.world())
    }

    /// Same exploration with POR and/or deduplication switched.
    pub fn run_with(&self, por: bool, dedup: bool) -> Result<McReport, ForkError> {
        let mut scenario = OarScenario {
            name: self.name,
            cluster: self.cluster.clone(),
            requests_per_client: self.requests_per_client,
            spare_servers: self.spare_servers,
            partial_to: self.partial_to.clone(),
            choices: self.choices.clone(),
            mc: self.mc.clone(),
        };
        scenario.mc.por = por;
        scenario.mc.dedup = dedup;
        scenario.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{replay_trace, TraceStep};

    /// Tentpole gate: the failure-free configuration explores exhaustively
    /// (no truncation) and every path satisfies all four predicates — total
    /// order and at-most-once (server consistency), external consistency,
    /// and termination (every terminal state is a goal state). The debug
    /// profile runs the 1-request instance (71 states — a request is three
    /// wires now, not nine); the release-mode smoke harness runs the
    /// 2-request instance (815 states).
    #[test]
    fn clean_exploration_is_exhaustive_and_safe() {
        let report = OarScenario::clean(1, 1).run().expect("forkable");
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert!(!report.truncated, "exploration must finish: {report:?}");
        assert_eq!(report.deadlocks, 0);
        assert!(report.goal_states > 0);
        assert!(report.states_explored > 0);
    }

    /// Acceptance gate: partial-order reduction prunes at least half of the
    /// **raw** interleavings. The reduced arm runs sleep sets alone (no
    /// state deduplication, so the comparison isolates POR); the raw arm
    /// runs with no reduction at all, bounded at twice the reduced state
    /// count plus one — it must hit that bound, proving the raw space is
    /// more than twice the reduced one. (The actual margin is ~18×: the raw
    /// 1-request space has 2 661 states against 146 reduced.)
    #[test]
    fn por_prunes_at_least_half_the_states() {
        let scenario = OarScenario::clean(1, 1);
        let reduced = scenario.run_with(true, false).expect("forkable");
        assert!(reduced.ok(), "violations: {:?}", reduced.violations);
        assert!(!reduced.truncated, "reduced run must finish: {reduced:?}");
        assert!(reduced.pruned_sleep > 0);

        let mut raw = OarScenario::clean(1, 1);
        raw.mc.max_states = 2 * reduced.states_explored + 1;
        let raw = raw.run_with(false, false).expect("forkable");
        assert!(raw.ok(), "violations: {:?}", raw.violations);
        assert!(
            raw.truncated,
            "raw exploration must exceed twice the reduced state count: \
             {} (por) vs {} (raw, not truncated)",
            reduced.states_explored, raw.states_explored
        );
    }

    /// Historical-bug gate #1: with the Task 1c handoff re-check disabled,
    /// the checker finds the suspected-sequencer stall as a deadlock and the
    /// counterexample trace replays on a plain world, reproducing the stall
    /// outside the checker.
    #[test]
    fn handoff_stall_is_refound_and_replays() {
        let scenario = OarScenario::sequencer_handoff(true);
        let report = scenario.run().expect("forkable");
        let violation = report.violations.first().expect("the stall must be found");
        assert_eq!(violation.kind, "deadlock", "{violation:?}");
        assert!(
            violation
                .trace
                .iter()
                .any(|s| matches!(s, TraceStep::Choice { id, .. } if id.starts_with("crash"))),
            "the stall needs the crash: {:?}",
            violation.trace
        );

        // Replay on a fresh, checker-free world: drive the exact trace, then
        // let the plain simulator run — the workload must still be stuck.
        let mut world = scenario.world();
        assert!(
            replay_trace(
                &mut world,
                scenario.choices.as_slice(),
                &violation.trace,
                HORIZON
            ),
            "the trace must replay on an identically-built world"
        );
        world.run_until(HORIZON);
        let done = scenario
            .clients()
            .iter()
            .all(|&c| world.process_ref::<OarClient<CounterMachine>>(c).is_done());
        assert!(!done, "replayed stall: the client must still be waiting");
        // And the stall is a liveness failure, not a safety one.
        oar_invariant(scenario.servers(), scenario.clients())(&world).expect("safety holds");
    }

    /// Historical-bug gate #1, control arm: with the fix in place the same
    /// fault repertoire finds nothing within a generous bound.
    #[test]
    fn handoff_with_fix_has_no_violations() {
        let mut scenario = OarScenario::sequencer_handoff(false);
        // Bounded sweep: the full fault-choice product is large in debug
        // builds; the release-mode smoke harness runs it exhaustively.
        scenario.mc.max_states = 40_000;
        let report = scenario.run().expect("forkable");
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert_eq!(report.deadlocks, 0);
        assert!(report.goal_states > 0);
    }

    /// Historical-bug gate #2: with the Lemma-2 freeze disabled, a rejoin
    /// landing between two `OrderMsg` batches of one epoch produces
    /// divergent committed sequences, caught by the server-consistency
    /// invariant.
    #[test]
    fn mid_epoch_rejoin_divergence_is_refound() {
        let report = OarScenario::mid_epoch_rejoin(true).run().expect("forkable");
        let violation = report
            .violations
            .first()
            .expect("the divergence must be found");
        assert_eq!(violation.kind, "invariant", "{violation:?}");
        assert!(
            violation
                .trace
                .iter()
                .any(|s| matches!(s, TraceStep::Choice { id, .. } if id.starts_with("restart"))),
            "the divergence needs the rejoin: {:?}",
            violation.trace
        );
    }

    /// Historical-bug gate #2, control arm: with the freeze active the same
    /// fault repertoire finds nothing within a generous bound.
    #[test]
    fn mid_epoch_rejoin_with_freeze_has_no_violations() {
        let mut scenario = OarScenario::mid_epoch_rejoin(false);
        scenario.mc.max_states = 40_000;
        let report = scenario.run().expect("forkable");
        assert!(report.ok(), "violations: {:?}", report.violations);
    }

    /// Membership-change gate (directed path): on a plain, checker-free
    /// world, crash `s2` and fire the replace choice immediately — the
    /// fence settles conservatively, the spare joins through the
    /// held-catch-up path (no catch-up retry timer fires inside the
    /// horizon), the workload terminates, and the caught-up spare is part
    /// of the consistent population.
    #[test]
    fn replace_path_joins_the_spare_without_timers() {
        let scenario = OarScenario::membership_change();
        let mut world = scenario.world();
        world.start();
        (scenario.choices[0].apply)(&mut world); // crash(s2)
        (scenario.choices[1].apply)(&mut world); // replace(s2)
                                                 // The fence's epoch close aggregates an estimate from every
                                                 // unsuspected member (Cnsv-order), so the survivors must suspect
                                                 // the crashed s2 for the consensus to propose — the justified
                                                 // suspicions a real failure detector's timeout would raise.
        (scenario.choices[2].apply)(&mut world); // suspect(s2)@s0
        (scenario.choices[3].apply)(&mut world); // suspect(s2)@s1
        world.run_until(HORIZON);
        assert!(
            oar_goal(scenario.servers(), scenario.clients(), Vec::new(), HORIZON)(&world),
            "the replaced group must finish the workload and drain"
        );
        let spare = ProcessId::new(4);
        assert!(
            !world
                .process_ref::<OarServer<CounterMachine>>(spare)
                .is_recovering(),
            "the spare must have caught up through the held-catch-up path"
        );
        assert_eq!(
            world
                .process_ref::<OarServer<CounterMachine>>(spare)
                .members(),
            vec![ProcessId::new(0), ProcessId::new(1), spare],
            "the spare must carry the post-replacement roster"
        );
        oar_invariant(scenario.servers(), scenario.clients())(&world).expect("safety holds");
    }

    /// Membership-change gate (exploration): every explored interleaving of
    /// crash placement, fence settlement, suspicion and catch-up satisfies
    /// the safety propositions and reaches termination — no deadlock on any
    /// path. The debug profile sweeps a bounded prefix of the space; the
    /// release-mode smoke harness runs the exhaustive instance.
    #[test]
    fn membership_change_paths_are_safe_and_terminate() {
        let mut scenario = OarScenario::membership_change();
        scenario.mc.max_states = 40_000;
        let report = scenario.run().expect("forkable");
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert_eq!(report.deadlocks, 0);
        assert!(report.goal_states > 0);
    }

    /// Partial-multicast gate (directed path): with the sequencer alive, the
    /// request sits at its one holder until a two-tick stretch passes there;
    /// the push then reaches the sequencer and the request is delivered at
    /// all three replicas — no timer fires inside the horizon.
    #[test]
    fn partial_multicast_is_pushed_to_the_sequencer_and_delivered() {
        let scenario = OarScenario::partial_multicast(false);
        let goal = scenario.checker().goal;
        let mut world = scenario.world();
        world.run_until(SimTime::from_secs(1));
        assert!(!goal(&world), "nothing moves without a tick");
        let holder_ticks = scenario
            .choices
            .iter()
            .find(|c| c.id == "ticks@p1#0")
            .expect("the holder's tick choice");
        assert!((holder_ticks.enabled)(&world));
        (holder_ticks.apply)(&mut world);
        world.run_until(HORIZON);
        assert!(goal(&world), "pushed, ordered and delivered everywhere");
        assert!(
            scenario
                .choices
                .iter()
                .filter(|c| c.id.starts_with("ticks"))
                .all(|c| !(c.enabled)(&world)),
            "no repair left to do"
        );
        oar_invariant(scenario.servers(), scenario.clients())(&world).expect("safety holds");
    }

    /// Partial-multicast gate (exploration): every explored interleaving of
    /// tick stretches, sequencer crash, suspicion and repair traffic keeps
    /// the safety propositions and ends with the dying client's request
    /// delivered at every live replica — no schedule strands it at its holder.
    /// Both arms — sequencer alive throughout, sequencer crashing at any
    /// point — are small enough (~34k states) to sweep exhaustively.
    #[test]
    fn partial_multicast_paths_are_safe_and_deliver() {
        for crash in [false, true] {
            let report = OarScenario::partial_multicast(crash)
                .run()
                .expect("forkable");
            assert!(report.ok(), "violations: {:?}", report.violations);
            assert!(!report.truncated, "exploration must finish: {report:?}");
            assert_eq!(report.deadlocks, 0);
            assert!(report.goal_states > 0);
        }
    }

    /// Differential gate (stepwise): a plain timed execution only ever
    /// dispatches events the checker considers enabled — the normal
    /// scheduler's path is one of the checker's paths. Checked on the
    /// *random-latency* LAN profile across several seeds: timing noise
    /// permutes the schedule, membership must hold for all of them.
    #[test]
    fn plain_execution_follows_checker_enabled_events() {
        for seed in [1, 7, 42, 1234, 98765] {
            let mut config = mc_cluster_config(3, 1, OarConfig::default());
            config.net = NetConfig::lan();
            config.seed = seed;
            let mut cluster: Cluster<CounterMachine> =
                Cluster::build(&config, CounterMachine::default, |_| {
                    vec![
                        CounterCommand::Add(1),
                        CounterCommand::Add(2),
                        CounterCommand::Add(3),
                    ]
                });
            let world = &mut cluster.world;
            world.start();
            let mut steps = 0u64;
            while let Some(next) = world
                .pending_events()
                .into_iter()
                .min_by_key(|e| (e.time, e.seq))
            {
                if !next.noop {
                    let enabled = world.enabled_events(SimTime::MAX);
                    assert!(
                        enabled.iter().any(|e| e.seq == next.seq),
                        "seed {seed}: the scheduler's next event #{} ({:?}) \
                         is not checker-enabled",
                        next.seq,
                        next.info
                    );
                }
                assert!(world.step(), "queue cannot be empty here");
                steps += 1;
                assert!(steps < 200_000, "seed {seed}: runaway execution");
                let done = (3..4).all(|c| {
                    world
                        .process_ref::<OarClient<CounterMachine>>(ProcessId::new(c))
                        .is_done()
                });
                if done {
                    break;
                }
            }
        }
    }

    /// Differential gate (terminal state): on the checker-friendly
    /// configuration, a plain timed execution must land on a terminal state
    /// the exhaustive exploration visited — its fingerprint is a member of
    /// the checker's goal-state fingerprints.
    #[test]
    fn plain_execution_lands_on_a_checker_goal_state() {
        let scenario = OarScenario::clean(1, 1);
        let report = scenario.run().expect("forkable");
        assert!(report.ok() && !report.truncated);
        assert!(!report.goal_fingerprints.is_empty());

        let mut world = scenario.world();
        world.run_until(HORIZON);
        let fp = world
            .fingerprint(HORIZON, &wire_digest)
            .expect("all OAR processes provide digests");
        assert!(
            report.goal_fingerprints.contains(&fp),
            "the plain run's terminal state must be one the checker visited"
        );
    }
}
