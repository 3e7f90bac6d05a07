//! The event queue at the heart of the simulator.
//!
//! An indexed binary min-heap ordered by `(time, sequence)`. The sequence
//! number makes ordering *stable*: two events scheduled for the same
//! instant pop in the order they were scheduled, which keeps simulations
//! deterministic.
//!
//! The heap holds only small `(time, seq, slot)` keys; each event's payload
//! sits in a *slot* of a `Vec` and moves twice in its life, once in
//! [`EventQueue::schedule`] and once out of [`EventQueue::pop`]. Each slot
//! records the sequence number of its occupant and the heap position of
//! its key, and every sift keeps that position current. An [`EventId`] is
//! the pair `(slot, seq)`, so [`EventQueue::cancel`] finds its key with no
//! search and removes it at once: the heap holds live events only, and a
//! cancelled event's slot is free for the next schedule. Because the
//! sequence number must match, an id whose event already fired or was
//! cancelled can never touch a later occupant of the same slot.
//!
//! [`EventQueue::reschedule`] moves a pending event to a new time in place
//! — the retransmission timers that every unit of progress pushes out —
//! and is indistinguishable from cancelling it and scheduling its payload
//! anew.
//!
//! A queue may also own a fixed set of *lanes*
//! ([`EventQueue::with_lanes`]). A lane is a completion slot with no
//! payload that holds at most one pending time: the engine gives one to
//! each simulated core, which never has more than one chunk running.
//! [`EventQueue::set_lane`] draws the lane's sequence number from the same
//! counter as [`EventQueue::schedule`], and [`EventQueue::pop_due`],
//! `peek_time`, `len` and the not-into-the-past check rank lanes and heap
//! events together by `(time, seq)`. A lane therefore pops exactly where
//! the same completion scheduled as a heap event would have popped. The
//! earliest lane is cached, so peeking stays O(1); only popping a lane
//! rescans the lanes.

use crate::time::SimTime;

/// Identifies a scheduled event so it can be cancelled or rescheduled.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId {
    slot: u32,
    seq: u64,
}

/// Slot sequence number meaning "no live event": the occupant fired or was
/// cancelled. Sequence numbers count up from zero and never reach it.
const VACANT: u64 = u64::MAX;

/// Rank of an idle lane (and of "nothing pending"): above every real
/// rank, whose sequence number is below [`VACANT`].
const IDLE: u128 = u128::MAX;

/// `(time, seq)` as one number, compared without branches.
#[inline(always)]
fn rank(time: SimTime, seq: u64) -> u128 {
    (u128::from(time.as_nanos()) << 64) | u128::from(seq)
}

/// The time half of a [`rank`].
#[inline(always)]
fn rank_time(rank: u128) -> SimTime {
    SimTime::from_nanos((rank >> 64) as u64)
}

/// The lowest rank in `lanes` and its index (`(IDLE, 0)` while every lane
/// is idle).
#[inline(always)]
fn first_lane(lanes: &[u128]) -> (u128, usize) {
    let mut first = (IDLE, 0);
    for (lane, &r) in lanes.iter().enumerate() {
        if r < first.0 {
            first = (r, lane);
        }
    }
    first
}

/// What [`EventQueue::pop_due`] took off the queue.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Due<T> {
    /// A scheduled event's payload.
    Event(T),
    /// The completion set on this lane.
    Lane(usize),
}

/// A heap entry: the ordering key of one live event and the slot holding
/// its payload.
#[derive(Clone, Copy)]
struct Key {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl Key {
    /// Whether `self` pops before `other`.
    #[inline]
    fn before(&self, other: &Key) -> bool {
        self.rank() < other.rank()
    }

    #[inline]
    fn rank(&self) -> u128 {
        rank(self.time, self.seq)
    }
}

struct Slot<T> {
    /// Sequence number of the live occupant, or [`VACANT`].
    seq: u64,
    /// Heap index of the occupant's key; meaningless while vacant.
    pos: u32,
    payload: Option<T>,
}

/// A time-ordered, stable, cancellable event queue.
pub struct EventQueue<T> {
    heap: Vec<Key>,
    slots: Vec<Slot<T>>,
    /// Vacant slots, reused last-freed first.
    free: Vec<u32>,
    /// Each lane's pending rank, or [`IDLE`].
    lanes: Vec<u128>,
    /// The lowest entry of `lanes` and its index (any index while every
    /// lane is idle).
    first_lane: (u128, usize),
    busy_lanes: usize,
    next_seq: u64,
    last_popped: SimTime,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue without lanes.
    pub fn new() -> Self {
        Self::with_lanes(0)
    }

    /// An empty queue with `lanes` idle lanes, numbered from zero.
    pub fn with_lanes(lanes: usize) -> Self {
        EventQueue {
            heap: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            lanes: vec![IDLE; lanes],
            first_lane: (IDLE, 0),
            busy_lanes: 0,
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Schedule `payload` to fire at `time`. Returns an id usable with
    /// [`EventQueue::cancel`] and [`EventQueue::reschedule`].
    ///
    /// # Panics
    /// Panics if `time` is earlier than the last popped event: the
    /// simulation may not schedule into its own past.
    #[inline]
    pub fn schedule(&mut self, time: SimTime, payload: T) -> EventId {
        self.check_not_past(time);
        let seq = self.take_seq();
        let pos = u32::try_from(self.heap.len()).expect("event queue overflow");
        let occupant = Slot {
            seq,
            pos,
            payload: Some(payload),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = occupant;
                slot
            }
            None => {
                self.slots.push(occupant);
                u32::try_from(self.slots.len() - 1).expect("event queue slot overflow")
            }
        };
        self.heap.push(Key { time, seq, slot });
        sift_up(&mut self.heap, &mut self.slots, pos as usize);
        EventId { slot, seq }
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending (not yet popped or cancelled). Cancelling an already
    /// fired event is a harmless no-op returning `false`.
    #[inline]
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(pos) = self.pending_pos(id) else {
            return false;
        };
        self.remove_key(pos);
        self.release(id.slot);
        true
    }

    /// Move a pending event to `time`, keeping its payload. Exactly
    /// equivalent to cancelling it and scheduling the same payload at
    /// `time`: the event takes a fresh sequence number, so it pops after
    /// every event already scheduled for `time`. Returns the event's new
    /// id, or `None` (changing nothing) if `id` no longer names a pending
    /// event.
    ///
    /// # Panics
    /// Panics if `time` is earlier than the last popped event, like
    /// [`EventQueue::schedule`].
    #[inline]
    pub fn reschedule(&mut self, id: EventId, time: SimTime) -> Option<EventId> {
        self.check_not_past(time);
        let pos = self.pending_pos(id)?;
        let seq = self.take_seq();
        self.slots[id.slot as usize].seq = seq;
        let key = &mut self.heap[pos];
        key.time = time;
        key.seq = seq;
        self.restore(pos);
        Some(EventId { slot: id.slot, seq })
    }

    /// Mark `lane` due at `time`. The lane takes the next sequence
    /// number, exactly as [`EventQueue::schedule`] would, and pops from
    /// [`EventQueue::pop_due`] as [`Due::Lane`].
    ///
    /// # Panics
    /// Panics if the lane is already pending, or if `time` is earlier than
    /// the last popped event, like [`EventQueue::schedule`].
    #[inline(always)]
    pub fn set_lane(&mut self, lane: usize, time: SimTime) {
        self.check_not_past(time);
        if self.lanes[lane] != IDLE {
            lane_already_pending(lane, self.lanes[lane]);
        }
        let r = rank(time, self.take_seq());
        self.lanes[lane] = r;
        self.busy_lanes += 1;
        if r < self.first_lane.0 {
            self.first_lane = (r, lane);
        }
    }

    /// Remove and return the earliest pending event or lane.
    #[inline(always)]
    pub fn pop_due(&mut self) -> Option<(SimTime, Due<T>)> {
        let (lane_rank, lane) = self.first_lane;
        if lane_rank < self.heap.first().map_or(IDLE, Key::rank) {
            self.lanes[lane] = IDLE;
            self.busy_lanes -= 1;
            self.first_lane = first_lane(&self.lanes);
            self.last_popped = rank_time(lane_rank);
            return Some((self.last_popped, Due::Lane(lane)));
        }
        if self.heap.is_empty() {
            return None;
        }
        let key = self.remove_key(0);
        self.last_popped = key.time;
        Some((key.time, Due::Event(self.release(key.slot))))
    }

    /// Remove and return the earliest pending event.
    ///
    /// # Panics
    /// Panics if the earliest entry is a lane: a queue with lanes pops
    /// through [`EventQueue::pop_due`].
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.pop_due().map(|(time, due)| match due {
            Due::Event(payload) => (time, payload),
            Due::Lane(lane) => panic!("lane {lane} is due: pop lanes with pop_due"),
        })
    }

    /// The timestamp of the next pending event or lane.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        let first = self
            .heap
            .first()
            .map_or(IDLE, Key::rank)
            .min(self.first_lane.0);
        (first != IDLE).then(|| rank_time(first))
    }

    /// Every pending event with its time, in no particular order. Lanes
    /// carry no payload and are not listed.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &T)> + '_ {
        self.heap.iter().map(|key| {
            let payload = self.slots[key.slot as usize].payload.as_ref();
            (key.time, payload.expect("a heap key names a live slot"))
        })
    }

    /// Number of pending events and lanes.
    pub fn len(&self) -> usize {
        self.heap.len() + self.busy_lanes
    }

    /// True if no event or lane is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The timestamp of the most recently popped event or lane — the
    /// queue's notion of "now".
    pub fn now(&self) -> SimTime {
        self.last_popped
    }

    #[inline(always)]
    fn check_not_past(&self, time: SimTime) {
        if time < self.last_popped {
            scheduled_into_the_past(time, self.last_popped);
        }
    }

    #[inline(always)]
    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Heap position of the event `id` names, if it is still pending.
    #[inline]
    fn pending_pos(&self, id: EventId) -> Option<usize> {
        match self.slots.get(id.slot as usize) {
            Some(s) if s.seq == id.seq => Some(s.pos as usize),
            _ => None,
        }
    }

    /// Vacate `slot`, whose key has left the heap, and return its payload.
    #[inline]
    fn release(&mut self, slot: u32) -> T {
        let s = &mut self.slots[slot as usize];
        s.seq = VACANT;
        self.free.push(slot);
        s.payload.take().expect("occupied slot holds a payload")
    }

    /// Take the key at `pos` out of the heap, filling the hole with the
    /// last key and sifting that into place.
    #[inline]
    fn remove_key(&mut self, pos: usize) -> Key {
        let key = self.heap.swap_remove(pos);
        if pos < self.heap.len() {
            self.restore(pos);
        }
        key
    }

    /// Sift the key at `pos`, whose ordering just changed, to where it
    /// belongs.
    #[inline]
    fn restore(&mut self, pos: usize) {
        let (heap, slots) = (&mut self.heap[..], &mut self.slots[..]);
        if pos > 0 && heap[pos].before(&heap[(pos - 1) / 2]) {
            sift_up(heap, slots, pos);
        } else {
            sift_down(heap, slots, pos);
        }
    }

    /// Assert the structure's invariants: heap order, every key's slot
    /// pointing back at it, vacant slots holding nothing, and the cached
    /// first lane and lane count matching the lanes.
    #[cfg(test)]
    fn check_invariants(&self) {
        let first = self.lanes.iter().copied().min().unwrap_or(IDLE);
        assert_eq!(self.first_lane.0, first, "cached first lane");
        if first != IDLE {
            assert_eq!(self.lanes[self.first_lane.1], first, "first lane index");
        }
        let busy = self.lanes.iter().filter(|&&r| r != IDLE).count();
        assert_eq!(self.busy_lanes, busy, "busy lanes");
        for (i, key) in self.heap.iter().enumerate() {
            if i > 0 {
                assert!(
                    !key.before(&self.heap[(i - 1) / 2]),
                    "heap order broken at {i}"
                );
            }
            let s = &self.slots[key.slot as usize];
            assert_eq!(s.pos as usize, i, "slot {} lost its key", key.slot);
            assert_eq!(s.seq, key.seq, "slot {} holds another event", key.slot);
        }
        let occupied = self.slots.iter().filter(|s| s.seq != VACANT).count();
        assert_eq!(
            occupied,
            self.heap.len(),
            "occupied slots vs pending events"
        );
        for s in &self.slots {
            assert_eq!(s.payload.is_some(), s.seq != VACANT, "payload vs occupancy");
        }
        for &f in &self.free {
            assert_eq!(
                self.slots[f as usize].seq, VACANT,
                "free slot {f} is occupied"
            );
        }
        assert_eq!(self.free.len() + occupied, self.slots.len(), "free list");
    }
}

#[cold]
#[inline(never)]
fn lane_already_pending(lane: usize, rank: u128) -> ! {
    assert_eq!(rank, IDLE, "lane {lane} is already pending");
    unreachable!("an idle lane")
}

#[cold]
#[inline(never)]
fn scheduled_into_the_past(time: SimTime, last_popped: SimTime) -> ! {
    panic!("scheduling into the past: {time:?} < {last_popped:?}")
}

// The sift helpers take the heap and the slots as two slices, since every
// key they move writes its new index into its slot.

/// Write `key` at heap index `pos` and record that index in its slot.
#[inline]
fn place<T>(heap: &mut [Key], slots: &mut [Slot<T>], pos: usize, key: Key) {
    heap[pos] = key;
    slots[key.slot as usize].pos = pos as u32;
}

#[inline]
fn sift_up<T>(heap: &mut [Key], slots: &mut [Slot<T>], mut pos: usize) {
    let key = heap[pos];
    while pos > 0 {
        let parent = (pos - 1) / 2;
        if !key.before(&heap[parent]) {
            break;
        }
        place(heap, slots, pos, heap[parent]);
        pos = parent;
    }
    place(heap, slots, pos, key);
}

#[inline]
fn sift_down<T>(heap: &mut [Key], slots: &mut [Slot<T>], mut pos: usize) {
    let key = heap[pos];
    let len = heap.len();
    loop {
        let mut child = 2 * pos + 1;
        if child >= len {
            break;
        }
        if child + 1 < len && heap[child + 1].before(&heap[child]) {
            child += 1;
        }
        if !heap[child].before(&key) {
            break;
        }
        place(heap, slots, pos, heap[child]);
        pos = child;
    }
    place(heap, slots, pos, key);
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
    fn cancelled_slot_is_reused_at_once() {
        let mut q = EventQueue::new();
        q.schedule(t(9), "z");
        let a = q.schedule(t(5), "a");
        assert!(q.cancel(a));
        assert_eq!(q.len(), 1);
        let b = q.schedule(t(6), "b");
        assert_eq!(b.slot, a.slot, "a's slot was freed by the cancel");
        assert!(
            !q.cancel(a),
            "a stale id cannot cancel the slot's new occupant"
        );
        assert!(q.reschedule(a, t(7)).is_none());
        assert_eq!(q.pop(), Some((t(6), "b")));
        assert_eq!(q.pop(), Some((t(9), "z")));
    }

    #[test]
    fn reschedule_moves_the_event_either_way() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        q.schedule(t(3), "c");
        let a = q.reschedule(a, t(4)).expect("a is pending");
        let a = q.reschedule(a, t(2)).expect("a is still pending");
        assert_eq!(q.len(), 3);
        // A fresh sequence number: a now ties after b.
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert_eq!(q.pop(), Some((t(2), "a")));
        assert!(q.reschedule(a, t(5)).is_none(), "a already fired");
        assert_eq!(q.pop(), Some((t(3), "c")));
        assert_eq!(q.pop(), None);
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
        /// Cancel plus schedule of the same payload.
        fn reschedule(&mut self, seq: u64, time: SimTime) -> Option<u64> {
            let i = self.live.iter().position(|&(_, s, _)| s == seq)?;
            let (_, _, payload) = self.live.remove(i);
            Some(self.schedule(time, payload))
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
                match rng.below(12) {
                    0..=3 => {
                        let at = q.now() + SimDuration::from_nanos(rng.below(50));
                        let id = q.schedule(at, step);
                        ids.push((id, model.schedule(at, step)));
                    }
                    4..=5 if !ids.is_empty() => {
                        let (id, seq) = ids[rng.below(ids.len() as u64) as usize];
                        assert_eq!(q.cancel(id), model.cancel(seq), "seed {seed} step {step}");
                    }
                    6..=7 if !ids.is_empty() => {
                        let (id, seq) = ids[rng.below(ids.len() as u64) as usize];
                        let at = q.now() + SimDuration::from_nanos(rng.below(50));
                        let moved = q.reschedule(id, at);
                        let moved_seq = model.reschedule(seq, at);
                        assert_eq!(
                            moved.is_some(),
                            moved_seq.is_some(),
                            "seed {seed} step {step}"
                        );
                        if let (Some(id), Some(seq)) = (moved, moved_seq) {
                            ids.push((id, seq));
                        }
                    }
                    8..=10 => assert_eq!(q.pop(), model.pop(), "seed {seed} step {step}"),
                    _ => assert_eq!(q.peek_time(), model.peek_time(), "seed {seed} step {step}"),
                }
                q.check_invariants();
                assert_eq!(q.len(), model.live.len(), "seed {seed} step {step}");
                let mut pending: Vec<_> = q.iter().map(|(at, &p)| (at, p)).collect();
                let mut live: Vec<_> = model.live.iter().map(|&(at, _, p)| (at, p)).collect();
                pending.sort_unstable();
                live.sort_unstable();
                assert_eq!(pending, live, "seed {seed} step {step}");
            }
            while let Some(ev) = q.pop() {
                assert_eq!(Some(ev), model.pop(), "seed {seed} drain");
            }
            assert_eq!(model.pop(), None);
            q.check_invariants();
        }
    }

    /// Lanes against a reference queue in which every lane completion is
    /// an ordinary heap event: with the same operations (times drawn from
    /// a few instants, so ties abound) both pop the same
    /// `(time, identity)` sequence, and agree on `peek_time` and `len`
    /// throughout.
    #[test]
    fn lanes_pop_like_heap_events() {
        const LANES: usize = 8;
        let (mut lane_pops, mut ties) = (0, 0);
        for seed in 0..30 {
            let mut rng = crate::rng::SimRng::new(seed);
            let mut q = EventQueue::with_lanes(LANES);
            let mut reference: EventQueue<Due<u64>> = EventQueue::new();
            let mut busy = [false; LANES];
            let mut ids: Vec<(EventId, EventId)> = Vec::new();
            let mut last = None;
            for step in 0..2_000u64 {
                let at = q.now() + SimDuration::from_nanos(rng.below(4));
                match rng.below(14) {
                    0..=2 => {
                        let id = q.schedule(at, step);
                        ids.push((id, reference.schedule(at, Due::Event(step))));
                    }
                    3..=5 => {
                        let lane = rng.below(LANES as u64) as usize;
                        if !busy[lane] {
                            busy[lane] = true;
                            q.set_lane(lane, at);
                            reference.schedule(at, Due::Lane(lane));
                        }
                    }
                    6 if !ids.is_empty() => {
                        let (id, ref_id) = ids[rng.below(ids.len() as u64) as usize];
                        assert_eq!(
                            q.cancel(id),
                            reference.cancel(ref_id),
                            "seed {seed} step {step}"
                        );
                    }
                    7 if !ids.is_empty() => {
                        let (id, ref_id) = ids[rng.below(ids.len() as u64) as usize];
                        let moved = q.reschedule(id, at);
                        let ref_moved = reference.reschedule(ref_id, at);
                        assert_eq!(
                            moved.is_some(),
                            ref_moved.is_some(),
                            "seed {seed} step {step}"
                        );
                        if let (Some(id), Some(ref_id)) = (moved, ref_moved) {
                            ids.push((id, ref_id));
                        }
                    }
                    8..=11 => {
                        let popped = q.pop_due();
                        assert_eq!(popped, reference.pop(), "seed {seed} step {step}");
                        if let Some((time, due)) = popped {
                            if let Due::Lane(lane) = due {
                                busy[lane] = false;
                                lane_pops += 1;
                            }
                            ties += u64::from(last == Some(time));
                            last = Some(time);
                        }
                    }
                    _ => {}
                }
                q.check_invariants();
                assert_eq!(
                    q.peek_time(),
                    reference.peek_time(),
                    "seed {seed} step {step}"
                );
                assert_eq!(q.len(), reference.len(), "seed {seed} step {step}");
                assert_eq!(q.is_empty(), reference.is_empty());
            }
            while let Some(popped) = q.pop_due() {
                assert_eq!(Some(popped), reference.pop(), "seed {seed} drain");
            }
            assert_eq!(reference.pop(), None);
            q.check_invariants();
        }
        assert!(lane_pops > 5_000, "{lane_pops} lane pops");
        assert!(ties > 5_000, "{ties} pops tied with the one before");
    }

    #[test]
    fn a_lane_ties_after_events_scheduled_before_it() {
        let mut q = EventQueue::with_lanes(2);
        q.schedule(t(5), "a");
        q.set_lane(1, t(5));
        q.schedule(t(5), "b");
        q.set_lane(0, t(4));
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(t(4)));
        assert_eq!(q.pop_due(), Some((t(4), Due::Lane(0))));
        assert_eq!(q.pop_due(), Some((t(5), Due::Event("a"))));
        assert_eq!(q.pop_due(), Some((t(5), Due::Lane(1))));
        assert_eq!(q.pop_due(), Some((t(5), Due::Event("b"))));
        assert_eq!(q.now(), t(5));
        assert!(q.is_empty());
        assert_eq!(q.pop_due(), None);
    }

    #[test]
    #[should_panic(expected = "lane 3 is already pending")]
    fn setting_a_pending_lane_panics() {
        let mut q: EventQueue<()> = EventQueue::with_lanes(4);
        q.set_lane(3, t(1));
        q.set_lane(3, t(2));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn setting_a_lane_into_the_past_panics() {
        let mut q = EventQueue::with_lanes(1);
        q.schedule(t(10), ());
        q.pop();
        q.set_lane(0, t(5));
    }

    #[test]
    #[should_panic(expected = "lane 0 is due")]
    fn pop_refuses_a_due_lane() {
        let mut q: EventQueue<()> = EventQueue::with_lanes(1);
        q.set_lane(0, t(1));
        q.pop();
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
