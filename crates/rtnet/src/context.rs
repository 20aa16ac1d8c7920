//! The real-clock implementation of the runtime boundary.
//!
//! An [`RtContext`] is handed to a process callback by its owning thread. It
//! differs from the simulator's action-buffering `Context` in that effects
//! are immediate: sends go straight into the destination thread's channel,
//! timers go straight into the owning thread's local heap. There is no
//! buffering because there is no single-threaded scheduler to replay the
//! actions — each thread *is* its own scheduler.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use std::sync::mpsc::Sender;
use std::time::Instant;

use oar_simnet::{ProcessId, Runtime, SimDuration, SimRng, SimTime, TimerId, TimerTag};

use crate::net::RtEvent;

/// A pending timer in a thread's local heap, ordered soonest-deadline-first.
#[derive(Debug)]
pub(crate) struct TimerEntry {
    pub(crate) deadline: Instant,
    pub(crate) id: TimerId,
    pub(crate) tag: TimerTag,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.id == other.id
    }
}

impl Eq for TimerEntry {}

impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest deadline (ties
        // broken by arming order) surfaces first.
        other
            .deadline
            .cmp(&self.deadline)
            .then_with(|| other.id.cmp(&self.id))
    }
}

/// The per-thread timer state: the heap of armed timers plus the set of
/// cancelled ids (cancellation is lazy — a cancelled entry stays in the heap
/// and is skipped when it surfaces).
#[derive(Debug, Default)]
pub(crate) struct TimerWheel {
    pub(crate) heap: BinaryHeap<TimerEntry>,
    pub(crate) cancelled: HashSet<TimerId>,
    pub(crate) next_id: u64,
}

impl TimerWheel {
    /// The deadline of the earliest live timer, if any.
    pub(crate) fn next_deadline(&mut self) -> Option<Instant> {
        while let Some(entry) = self.heap.peek() {
            if self.cancelled.contains(&entry.id) {
                let entry = self.heap.pop().expect("peeked");
                self.cancelled.remove(&entry.id);
                continue;
            }
            return Some(entry.deadline);
        }
        None
    }

    /// Pops every timer due at `now`, skipping cancelled ones.
    pub(crate) fn due(&mut self, now: Instant) -> Vec<(TimerId, TimerTag)> {
        let mut fired = Vec::new();
        while let Some(entry) = self.heap.peek() {
            if entry.deadline > now {
                break;
            }
            let entry = self.heap.pop().expect("peeked");
            if self.cancelled.remove(&entry.id) {
                continue;
            }
            fired.push((entry.id, entry.tag));
        }
        fired
    }
}

/// Execution context of one callback of one process on the real-clock
/// backend: the second implementation of [`Runtime`], next to the
/// simulator's `Context`.
///
/// Constructed only by the [`RtNet`](crate::RtNet) worker threads; protocol
/// code sees it as `&mut dyn Runtime<M>`.
pub struct RtContext<'a, M> {
    start: Instant,
    self_id: ProcessId,
    rng: &'a mut SimRng,
    senders: &'a [Sender<RtEvent<M>>],
    timers: &'a mut TimerWheel,
}

impl<'a, M> RtContext<'a, M> {
    pub(crate) fn new(
        start: Instant,
        self_id: ProcessId,
        rng: &'a mut SimRng,
        senders: &'a [Sender<RtEvent<M>>],
        timers: &'a mut TimerWheel,
    ) -> Self {
        RtContext {
            start,
            self_id,
            rng,
            senders,
            timers,
        }
    }
}

impl<M: Clone + Send + 'static> Runtime<M> for RtContext<'_, M> {
    /// Monotonic wall-clock time: microseconds since the run started.
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.start.elapsed().as_micros() as u64)
    }

    fn id(&self) -> ProcessId {
        self.self_id
    }

    /// A deterministic RNG owned by this process, seeded from
    /// `(run seed, process id)`: command generation replays identically even
    /// though thread interleaving does not.
    fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Delivers `msg` into the destination thread's channel. A send to a
    /// process whose thread already stopped is silently dropped — during
    /// shutdown the remaining threads drain at their own pace, exactly like
    /// messages in flight to a crashed process.
    fn send(&mut self, to: ProcessId, msg: M) {
        if let Some(sender) = self.senders.get(to.index()) {
            let _ = sender.send(RtEvent::Msg {
                from: self.self_id,
                msg,
            });
        }
    }

    /// Unicast per recipient; the payload is cloned per destination (a real
    /// transport serialises per destination anyway), with the final
    /// destination taking the original.
    fn send_all(&mut self, targets: &[ProcessId], msg: M) {
        let Some((&last, rest)) = targets.split_last() else {
            return;
        };
        for &to in rest {
            self.send(to, msg.clone());
        }
        self.send(last, msg);
    }

    /// Arms a timer in the owning thread's local heap; it fires no earlier
    /// than `delay` from now, whenever the thread next drains due timers.
    fn set_timer(&mut self, delay: SimDuration, tag: TimerTag) -> TimerId {
        let id = TimerId(self.timers.next_id);
        self.timers.next_id += 1;
        self.timers.heap.push(TimerEntry {
            deadline: Instant::now() + std::time::Duration::from_micros(delay.as_micros()),
            id,
            tag,
        });
        id
    }

    fn cancel_timer(&mut self, id: TimerId) {
        if id.0 < self.timers.next_id {
            self.timers.cancelled.insert(id);
        }
    }

    /// Annotations are a simulator trace feature; the real-clock backend
    /// discards them (they are debugging aid, not protocol state).
    fn annotate(&mut self, _text: String) {}

    fn annotating(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_wheel_orders_and_cancels() {
        let mut wheel = TimerWheel::default();
        let base = Instant::now();
        for (i, offset) in [30u64, 10, 20].iter().enumerate() {
            wheel.heap.push(TimerEntry {
                deadline: base + std::time::Duration::from_millis(*offset),
                id: TimerId(i as u64),
                tag: TimerTag::Custom(i as u32),
            });
        }
        wheel.next_id = 3;
        // Cancel the earliest (id 1 @ +10ms): it must not fire.
        wheel.cancelled.insert(TimerId(1));
        let fired = wheel.due(base + std::time::Duration::from_millis(25));
        assert_eq!(fired, vec![(TimerId(2), TimerTag::Custom(2))]);
        let fired = wheel.due(base + std::time::Duration::from_millis(40));
        assert_eq!(fired, vec![(TimerId(0), TimerTag::Custom(0))]);
        assert!(wheel.next_deadline().is_none());
    }

    #[test]
    fn timer_wheel_ties_fire_in_arming_order() {
        let mut wheel = TimerWheel::default();
        let deadline = Instant::now();
        for i in 0..3u64 {
            wheel.heap.push(TimerEntry {
                deadline,
                id: TimerId(i),
                tag: TimerTag::Tick,
            });
        }
        wheel.next_id = 3;
        let fired = wheel.due(deadline);
        let ids: Vec<u64> = fired.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }
}
