//! The [`Context`] handed to a process during a callback.
//!
//! A process never talks to the network or the clock directly: it records
//! *actions* (send, set timer, …) in its context, and the simulator applies
//! them after the callback returns. This keeps process code purely
//! deterministic and easy to test in isolation.
//!
//! Multicast payloads are reference-counted from the moment they are
//! recorded: [`Runtime::send_all`] shares **one** allocation of the payload
//! across all recipients instead of cloning it per destination, and the
//! simulator only materialises a private copy at actual delivery (see
//! `world.rs`). For broadcast-heavy protocols — e.g. a sequencer shipping a
//! batched ordering message to the whole group — this removes the
//! per-recipient payload clone from the hot path entirely. Unicast sends
//! ([`Runtime::send`]) keep the payload owned, so they stay allocation-free.

use std::sync::Arc;

use crate::process::{ProcessId, TimerId};
use crate::rng::SimRng;
use crate::runtime::{Runtime, TimerTag};
use crate::time::{SimDuration, SimTime};

/// A message payload travelling through the simulator: owned for unicast
/// (no extra allocation), reference-counted for multicast (one allocation
/// shared by every recipient).
#[derive(Debug)]
pub enum Payload<M> {
    /// Exclusively owned — the unicast case.
    Owned(M),
    /// Shared across the recipients of one multicast.
    Shared(Arc<M>),
}

impl<M: Clone> Payload<M> {
    /// Takes the message out of the payload: free for owned payloads and for
    /// the last reference of a shared one, a single clone otherwise.
    pub fn materialize(self) -> M {
        match self {
            Payload::Owned(m) => m,
            Payload::Shared(shared) => Arc::try_unwrap(shared).unwrap_or_else(|s| (*s).clone()),
        }
    }

    /// Converts into the shared form (used when the network duplicates a
    /// message).
    pub fn into_shared(self) -> Arc<M> {
        match self {
            Payload::Owned(m) => Arc::new(m),
            Payload::Shared(shared) => shared,
        }
    }
}

/// An action emitted by a process during a callback.
#[derive(Debug)]
pub enum Action<M> {
    /// Send `msg` to process `to`.
    Send {
        /// Destination process.
        to: ProcessId,
        /// Message payload (owned for unicast, shared for multicast).
        msg: Payload<M>,
    },
    /// Arm a timer that fires after `delay`.
    SetTimer {
        /// Identifier returned to the caller.
        id: TimerId,
        /// Delay until the timer fires.
        delay: SimDuration,
        /// Caller-chosen tag.
        tag: TimerTag,
    },
    /// Cancel a previously armed timer.
    CancelTimer {
        /// The timer to cancel.
        id: TimerId,
    },
    /// Record a protocol-level trace annotation (e.g. "Opt-deliver(m3)").
    Annotate(String),
}

/// Execution context of one callback of one process.
///
/// Provides the current simulated time, the process identity, a deterministic
/// RNG and the action buffer.
pub struct Context<'a, M> {
    now: SimTime,
    self_id: ProcessId,
    rng: &'a mut SimRng,
    actions: &'a mut Vec<Action<M>>,
    next_timer_id: &'a mut u64,
    annotating: bool,
}

impl<'a, M> Context<'a, M> {
    /// Creates a context. Only the simulator (and protocol test drivers) need
    /// to call this.
    pub fn new(
        now: SimTime,
        self_id: ProcessId,
        rng: &'a mut SimRng,
        actions: &'a mut Vec<Action<M>>,
        next_timer_id: &'a mut u64,
    ) -> Self {
        Context {
            now,
            self_id,
            rng,
            actions,
            next_timer_id,
            annotating: true,
        }
    }

    /// Sets whether annotations are kept (the default, so a test driver sees
    /// them in its action buffer) or dropped unformatted: the simulator
    /// passes its tracer's setting.
    pub fn with_annotations(mut self, on: bool) -> Self {
        self.annotating = on;
        self
    }
}

/// The simulator's implementation of the runtime boundary: every operation is
/// buffered as an [`Action`] and applied by the [`World`](crate::World) after
/// the callback returns, which keeps process callbacks pure and replayable.
impl<M> Runtime<M> for Context<'_, M> {
    /// The current simulated time.
    fn now(&self) -> SimTime {
        self.now
    }

    /// The identifier of the process running this callback.
    fn id(&self) -> ProcessId {
        self.self_id
    }

    /// The simulation's deterministic random number generator.
    fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Sends `msg` to `to`. Sending to oneself is allowed and delivered through
    /// the network like any other message (after `local_latency`). The payload
    /// stays owned end to end — no extra allocation.
    fn send(&mut self, to: ProcessId, msg: M) {
        self.actions.push(Action::Send {
            to,
            msg: Payload::Owned(msg),
        });
    }

    /// Sends `msg` to every process in `targets` (including the sender if it
    /// is listed). The payload is allocated **once** and shared by reference
    /// count across all recipients; the simulator clones it only at delivery
    /// (and not at all for the last recipient, or for messages that are
    /// dropped by the network).
    fn send_all(&mut self, targets: &[ProcessId], msg: M) {
        let shared = Arc::new(msg);
        for &to in targets {
            self.actions.push(Action::Send {
                to,
                msg: Payload::Shared(Arc::clone(&shared)),
            });
        }
    }

    /// Arms a timer that fires after `delay`; the returned [`TimerId`] can be
    /// used to cancel it. `tag` is returned verbatim in `on_timer` and lets a
    /// process multiplex several timer purposes.
    fn set_timer(&mut self, delay: SimDuration, tag: TimerTag) -> TimerId {
        let id = TimerId(*self.next_timer_id);
        *self.next_timer_id += 1;
        self.actions.push(Action::SetTimer { id, delay, tag });
        id
    }

    /// Cancels a previously armed timer. Cancelling a timer that already fired
    /// or was already cancelled is a no-op.
    fn cancel_timer(&mut self, id: TimerId) {
        self.actions.push(Action::CancelTimer { id });
    }

    /// Records a protocol-level annotation in the simulation trace.
    fn annotate(&mut self, text: String) {
        if self.annotating {
            self.actions.push(Action::Annotate(text));
        }
    }

    fn annotating(&self) -> bool {
        self.annotating
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_buffers_actions() {
        let mut rng = SimRng::new(1);
        let mut actions: Vec<Action<u32>> = Vec::new();
        let mut next_timer = 0u64;
        let mut ctx = Context::new(
            SimTime::from_millis(5),
            ProcessId(2),
            &mut rng,
            &mut actions,
            &mut next_timer,
        );
        assert_eq!(ctx.now(), SimTime::from_millis(5));
        assert_eq!(ctx.id(), ProcessId(2));

        ctx.send(ProcessId(0), 10);
        ctx.send_all(&[ProcessId(0), ProcessId(1)], 11);
        let t = ctx.set_timer(SimDuration::from_millis(1), TimerTag::Custom(99));
        ctx.cancel_timer(t);
        ctx.annotate("hello".to_string());
        let _ = ctx.rng().unit();

        assert_eq!(actions.len(), 6);
        // Unicast stays owned; multicast is shared.
        assert!(matches!(
            &actions[0],
            Action::Send {
                to: ProcessId(0),
                msg: Payload::Owned(10)
            }
        ));
        assert!(matches!(
            &actions[1],
            Action::Send { to: ProcessId(0), msg: Payload::Shared(m) } if **m == 11
        ));
        assert!(matches!(
            &actions[2],
            Action::Send { to: ProcessId(1), msg: Payload::Shared(m) } if **m == 11
        ));
        assert!(matches!(
            actions[3],
            Action::SetTimer {
                id: TimerId(0),
                tag: TimerTag::Custom(99),
                ..
            }
        ));
        assert!(matches!(actions[4], Action::CancelTimer { id: TimerId(0) }));
        assert!(matches!(&actions[5], Action::Annotate(s) if s == "hello"));
        assert_eq!(next_timer, 1);
    }

    #[test]
    fn unobserved_annotations_are_never_formatted() {
        let mut rng = SimRng::new(1);
        let mut actions: Vec<Action<u32>> = Vec::new();
        let mut next_timer = 0u64;
        let mut ctx = Context::new(
            SimTime::ZERO,
            ProcessId(0),
            &mut rng,
            &mut actions,
            &mut next_timer,
        );
        let rt: &mut dyn Runtime<u32> = &mut ctx;
        rt.annotate_with(|| "kept".to_string());
        let mut ctx = ctx.with_annotations(false);
        let rt: &mut dyn Runtime<u32> = &mut ctx;
        rt.annotate_with(|| unreachable!("nobody keeps the text, so it is not built"));
        assert_eq!(actions.len(), 1);
        assert!(matches!(&actions[0], Action::Annotate(s) if s == "kept"));
    }

    #[test]
    fn send_all_shares_one_allocation() {
        let mut rng = SimRng::new(1);
        let mut actions: Vec<Action<u32>> = Vec::new();
        let mut next_timer = 0u64;
        let mut ctx = Context::new(
            SimTime::ZERO,
            ProcessId(0),
            &mut rng,
            &mut actions,
            &mut next_timer,
        );
        ctx.send_all(&[ProcessId(1), ProcessId(2), ProcessId(3)], 7u32);
        let arcs: Vec<&Arc<u32>> = actions
            .iter()
            .map(|a| match a {
                Action::Send {
                    msg: Payload::Shared(shared),
                    ..
                } => shared,
                other => panic!("unexpected action {other:?}"),
            })
            .collect();
        assert_eq!(arcs.len(), 3);
        assert!(Arc::ptr_eq(arcs[0], arcs[1]));
        assert!(Arc::ptr_eq(arcs[1], arcs[2]));
    }

    #[test]
    fn payload_materialize_and_share() {
        assert_eq!(Payload::Owned(5u32).materialize(), 5);
        let shared = Arc::new(6u32);
        assert_eq!(Payload::Shared(Arc::clone(&shared)).materialize(), 6);
        // last reference: materialize unwraps without cloning
        drop(shared);
        let only = Payload::Shared(Arc::new(String::from("x")));
        assert_eq!(only.materialize(), "x");
        assert_eq!(*Payload::Owned(7u32).into_shared(), 7);
    }

    #[test]
    fn timer_ids_are_unique() {
        let mut rng = SimRng::new(1);
        let mut actions: Vec<Action<u32>> = Vec::new();
        let mut next_timer = 0u64;
        let mut ctx = Context::new(
            SimTime::ZERO,
            ProcessId(0),
            &mut rng,
            &mut actions,
            &mut next_timer,
        );
        let a = ctx.set_timer(SimDuration::from_millis(1), TimerTag::Custom(0));
        let b = ctx.set_timer(SimDuration::from_millis(1), TimerTag::Custom(0));
        assert_ne!(a, b);
    }
}
