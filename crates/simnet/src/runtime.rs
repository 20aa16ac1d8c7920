//! The runtime boundary: the [`Runtime`] trait is everything a process may
//! ask of whatever is driving it.
//!
//! Protocol code (servers, clients, baselines) is written against this trait
//! only — never against a concrete backend — so the *same* process logic runs
//! on two very different substrates:
//!
//! * [`Context`](crate::Context): the deterministic discrete-event simulator.
//!   Callbacks record actions that the single-threaded [`World`](crate::World)
//!   applies after the callback returns; time is simulated, runs are
//!   reproducible from `(config, seed)` and the correctness propositions are
//!   checked here.
//! * `rtnet::RtContext` (the `oar-rtnet` crate): a real-clock backend with one
//!   OS thread per process, in-process channels and monotonic [`std::time::Instant`]
//!   time. Nothing is deterministic, but the numbers are genuine wall-clock.
//!
//! The trait is **object-safe** on purpose: processes are stored as
//! `Box<dyn Process<M>>` by both backends, so callbacks receive
//! `&mut dyn Runtime<M>` and neither the process trait nor the process
//! objects grow a backend type parameter.

use crate::process::{ProcessId, TimerId};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Typed timer tags: why a timer was set, shared by every process of the OAR
/// stack so both runtimes dispatch timers without magic numbers.
///
/// The tag travels verbatim from [`Runtime::set_timer`] to
/// [`Process::on_timer`](crate::Process::on_timer); a process multiplexing
/// several timer purposes branches on it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TimerTag {
    /// A periodic maintenance tick (heartbeats, suspicion checks, sequencer
    /// batching, baseline resends).
    Tick,
    /// The sequencer's partial-batch flush deadline.
    Flush,
    /// A rejoining replica's catch-up retry/backoff timer.
    CatchUp,
    /// A client's think-time / start-delay timer before submitting the next
    /// request (also used by the transactional client between transactions).
    NextRequest,
    /// An open-loop load generator's next scheduled arrival.
    Arrival,
    /// An uninterpreted tag for tests and ad-hoc processes.
    Custom(u32),
}

/// Everything a process may ask of the runtime driving it: the clock, its own
/// identity, randomness, message sends, timers and trace annotations.
///
/// Implementations must uphold the contract process code relies on:
///
/// * callbacks of one process run in mutual exclusion ("tasks execute in
///   mutual exclusion" in the paper's words), so `&mut self` state never
///   races;
/// * [`now`](Runtime::now) is monotone within a process;
/// * messages between two processes arrive in FIFO order (both backends
///   deliver over order-preserving links; reordering is the job of the
///   simulated network's *loss*, not of the transport);
/// * timer callbacks fire no earlier than their delay, tagged as armed.
pub trait Runtime<M> {
    /// The current time. Simulated time on the simnet backend, monotonic
    /// real time (µs since the run started) on the real-clock backend.
    fn now(&self) -> SimTime;

    /// The identifier of the process running this callback.
    fn id(&self) -> ProcessId;

    /// A per-process deterministic random number generator. On the simnet
    /// backend this is the world's seeded RNG (replays identically); on the
    /// real-clock backend each process owns one seeded from `(seed, id)`, so
    /// *command generation* stays reproducible even though interleaving is
    /// not.
    fn rng(&mut self) -> &mut SimRng;

    /// Sends `msg` to `to`. Sending to oneself is allowed and delivered like
    /// any other message.
    fn send(&mut self, to: ProcessId, msg: M);

    /// Sends `msg` to every process in `targets` (including the sender if it
    /// is listed). Backends share one payload allocation across recipients
    /// where possible.
    fn send_all(&mut self, targets: &[ProcessId], msg: M);

    /// Arms a timer that fires after `delay`; the returned [`TimerId`] can be
    /// used to cancel it. `tag` is returned verbatim in `on_timer`.
    fn set_timer(&mut self, delay: SimDuration, tag: TimerTag) -> TimerId;

    /// Cancels a previously armed timer. Cancelling a timer that already
    /// fired or was already cancelled is a no-op.
    fn cancel_timer(&mut self, id: TimerId);

    /// Records a protocol-level annotation (e.g. "Opt-deliver(m3)") in the
    /// runtime's trace. The simnet tracer stores these when annotation
    /// recording is on; the real-clock backend discards them (they are
    /// debugging aid, not protocol state). Hot paths go through
    /// `annotate_with` (on `dyn Runtime`) so the text is only built when
    /// somebody keeps it.
    fn annotate(&mut self, text: String);

    /// Whether [`annotate`](Runtime::annotate) keeps what it is given. A
    /// runtime that discards annotations returns `false`, which lets callers
    /// skip formatting the text altogether.
    fn annotating(&self) -> bool {
        true
    }
}

impl<M> dyn Runtime<M> + '_ {
    /// [`annotate`](Runtime::annotate) with the text built on demand: an
    /// unobserved run (the real-clock backend, a simulation that does not
    /// record annotations) formats and allocates nothing.
    pub fn annotate_with(&mut self, text: impl FnOnce() -> String) {
        if self.annotating() {
            self.annotate(text());
        }
    }
}
