//! The event queue at the heart of the simulator.
//!
//! A binary heap of `(time, sequence)`-ordered entries. The sequence number
//! makes ordering *stable*: two events scheduled for the same instant pop in
//! the order they were scheduled, which keeps simulations deterministic.
//!
//! Events can be cancelled by [`EventId`] (used for retransmission timers
//! that are disarmed when the ack arrives). Cancellation is lazy — the entry
//! stays in the heap and is skipped on pop — which keeps `cancel` O(1).
//!
//! Liveness is tracked without hashing. Every heap entry owns a *slot* in
//! a `Vec`, and the slot records the sequence number of its live occupant
//! (or [`VACANT`] once that occupant is cancelled). An [`EventId`] is the
//! pair `(slot, seq)`, so cancelling is an indexed compare-and-clear, and
//! an id whose event already fired or was cancelled can never match a later
//! occupant of the same slot. A slot goes back on the free list only when
//! its entry leaves the heap, through [`EventQueue::pop`] or
//! [`EventQueue::peek_time`].

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Identifies a scheduled event so it can be cancelled later.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId {
    slot: u32,
    seq: u64,
}

/// Slot value meaning "no live event": the occupant fired or was cancelled.
/// Sequence numbers count up from zero and never reach it.
const VACANT: u64 = u64::MAX;

struct Entry<T> {
    time: SimTime,
    seq: u64,
    slot: u32,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered, stable, cancellable event queue.
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    /// Per heap entry: the sequence number of its live event, or
    /// [`VACANT`] if it was cancelled.
    slots: Vec<u64>,
    /// Slots whose entry has left the heap.
    free: Vec<u32>,
    live: usize,
    next_seq: u64,
    last_popped: SimTime,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Schedule `payload` to fire at `time`. Returns an id usable with
    /// [`EventQueue::cancel`].
    ///
    /// # Panics
    /// Panics if `time` is earlier than the last popped event: the
    /// simulation may not schedule into its own past.
    pub fn schedule(&mut self, time: SimTime, payload: T) -> EventId {
        assert!(
            time >= self.last_popped,
            "scheduling into the past: {time:?} < {:?}",
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = seq;
                slot
            }
            None => {
                self.slots.push(seq);
                u32::try_from(self.slots.len() - 1).expect("event queue slot overflow")
            }
        };
        self.live += 1;
        self.heap.push(Entry {
            time,
            seq,
            slot,
            payload,
        });
        EventId { slot, seq }
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending (not yet popped or cancelled). Cancelling an already
    /// fired event is a harmless no-op returning `false`.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.slots.get_mut(id.slot as usize) {
            Some(occupant) if *occupant == id.seq => {
                *occupant = VACANT;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Take `entry`, just removed from the heap, out of its slot. Returns
    /// whether it was live (not cancelled).
    fn release(&mut self, entry: &Entry<T>) -> bool {
        let occupant = std::mem::replace(&mut self.slots[entry.slot as usize], VACANT);
        self.free.push(entry.slot);
        occupant == entry.seq
    }

    /// Remove and return the earliest pending event, skipping cancelled ones.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        while let Some(entry) = self.heap.pop() {
            if !self.release(&entry) {
                continue;
            }
            self.live -= 1;
            self.last_popped = entry.time;
            return Some((entry.time, entry.payload));
        }
        None
    }

    /// The timestamp of the next pending (non-cancelled) event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(entry) = self.heap.peek() {
            if self.slots[entry.slot as usize] == entry.seq {
                return Some(entry.time);
            }
            let entry = self.heap.pop().expect("peeked entry vanished");
            self.release(&entry);
        }
        None
    }

    /// Number of pending entries, *including* lazily cancelled ones.
    pub fn raw_len(&self) -> usize {
        self.heap.len()
    }

    /// Number of live (non-cancelled) pending events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The timestamp of the most recently popped event — the queue's notion
    /// of "now".
    pub fn now(&self) -> SimTime {
        self.last_popped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_pop_in_schedule_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn cancel_skips_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert!(q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert!(!q.cancel(a));
        // Re-scheduling still works and the tombstone set stays clean.
        q.schedule(t(2), "b");
        assert_eq!(q.pop(), Some((t(2), "b")));
    }

    #[test]
    fn cancel_unknown_id_is_noop() {
        let mut q: EventQueue<&str> = EventQueue::new();
        assert!(!q.cancel(EventId {
            slot: 999,
            seq: 999
        }));
        // A slot in use, but a sequence number it never held.
        let a = q.schedule(t(1), "a");
        assert!(!q.cancel(EventId {
            slot: a.slot,
            seq: a.seq + 1
        }));
        assert_eq!(q.pop(), Some((t(1), "a")));
    }

    #[test]
    fn stale_id_cannot_cancel_slot_reuser() {
        let mut q = EventQueue::new();
        let old = q.schedule(t(1), "old");
        assert_eq!(q.pop(), Some((t(1), "old")));
        let new = q.schedule(t(2), "new");
        assert_eq!(new.slot, old.slot, "the fired event's slot is reused");
        assert!(!q.cancel(old));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(2), "new")));
    }

    #[test]
    fn cancelled_slot_is_reused_only_after_its_entry_leaves_the_heap() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(5), "a");
        assert!(q.cancel(a));
        let b = q.schedule(t(6), "b");
        assert_ne!(b.slot, a.slot, "a's entry is still in the heap");
        assert_eq!(q.peek_time(), Some(t(6)));
        let c = q.schedule(t(7), "c");
        assert_eq!(c.slot, a.slot, "peek_time discarded a's entry");
        assert!(!q.cancel(a));
        assert_eq!(q.pop(), Some((t(6), "b")));
        assert_eq!(q.pop(), Some((t(7), "c")));
    }

    /// The queue's contract, kept as plainly as possible: a list of live
    /// `(time, seq, payload)` with linear-scan pop.
    #[derive(Default)]
    struct Model {
        live: Vec<(SimTime, u64, u64)>,
        next_seq: u64,
    }

    impl Model {
        fn schedule(&mut self, time: SimTime, payload: u64) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.live.push((time, seq, payload));
            seq
        }
        fn cancel(&mut self, seq: u64) -> bool {
            let before = self.live.len();
            self.live.retain(|&(_, s, _)| s != seq);
            self.live.len() != before
        }
        fn earliest(&self) -> Option<usize> {
            (0..self.live.len()).min_by_key(|&i| (self.live[i].0, self.live[i].1))
        }
        fn pop(&mut self) -> Option<(SimTime, u64)> {
            let i = self.earliest()?;
            let (time, _, payload) = self.live.remove(i);
            Some((time, payload))
        }
        fn peek_time(&self) -> Option<SimTime> {
            self.earliest().map(|i| self.live[i].0)
        }
    }

    #[test]
    fn random_ops_match_reference_model() {
        for seed in 0..20 {
            let mut rng = crate::rng::SimRng::new(seed);
            let mut q = EventQueue::new();
            let mut model = Model::default();
            // Every id ever handed out, fired and cancelled ones included,
            // so stale cancels are exercised too.
            let mut ids: Vec<(EventId, u64)> = Vec::new();
            for step in 0..2_000u64 {
                match rng.below(10) {
                    0..=3 => {
                        let at = q.now() + SimDuration::from_nanos(rng.below(50));
                        let id = q.schedule(at, step);
                        ids.push((id, model.schedule(at, step)));
                    }
                    4..=5 if !ids.is_empty() => {
                        let (id, seq) = ids[rng.below(ids.len() as u64) as usize];
                        assert_eq!(q.cancel(id), model.cancel(seq), "seed {seed} step {step}");
                    }
                    6..=8 => assert_eq!(q.pop(), model.pop(), "seed {seed} step {step}"),
                    _ => assert_eq!(q.peek_time(), model.peek_time(), "seed {seed} step {step}"),
                }
                assert_eq!(q.len(), model.live.len(), "seed {seed} step {step}");
            }
            while let Some(ev) = q.pop() {
                assert_eq!(Some(ev), model.pop(), "seed {seed} drain");
            }
            assert_eq!(model.pop(), None);
            assert_eq!(q.raw_len(), 0);
        }
    }

    #[test]
    fn double_cancel_counts_once() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(2)));
        assert_eq!(q.pop(), Some((t(2), "b")));
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), t(7));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(t(10), ());
        q.pop();
        q.schedule(t(5), ());
    }

    #[test]
    fn scheduling_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1);
        q.pop();
        q.schedule(t(10), 2);
        assert_eq!(q.pop(), Some((t(10), 2)));
    }
}
