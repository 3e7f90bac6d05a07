//! A host-core model with Linux-like scheduling priorities.
//!
//! The paper's §4.3 overload scenario depends on one scheduling fact: the
//! receive path (bottom-half interrupt handler) is "strongly privileged" and
//! can exhaust a core, starving the application task that is trying to pin
//! pages. We model a core as a non-preemptive run queue with two priority
//! levels — [`Priority::BottomHalf`] always runs before [`Priority::Task`] —
//! where each work item is a bounded chunk of CPU time (pin batches,
//! per-packet processing, memcpy chunks). Chunking makes the model
//! effectively preemptive at chunk granularity, exactly like the real
//! softirq/task interleaving the paper describes.
//!
//! The core does not own a clock. The simulation engine drives it:
//!
//! ```text
//! engine: submit(now, work) ──► Some(Completion{at}) ──► schedule event at `at`
//! event fires: on_complete(now) ──► (finished payload, next Completion?)
//! ```

use std::collections::VecDeque;

use crate::time::{SimDuration, SimTime};

/// Scheduling class of a work item. Lower value = higher priority.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum Priority {
    /// Interrupt bottom-half work (packet rx/tx processing). Runs first.
    BottomHalf = 0,
    /// Kernel task context (on-demand pinning, deferred driver work):
    /// ahead of user code, below interrupts — like a kworker that the
    /// scheduler favours over the user thread that is blocked on it.
    Kernel = 1,
    /// Ordinary task context (application calls and compute).
    Task = 2,
}

/// Opaque identifier of a submitted work item.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct WorkId(u64);

/// A bounded chunk of CPU time carrying a caller-defined payload.
#[derive(Clone, Debug)]
pub struct Work<T> {
    /// CPU time this chunk consumes.
    pub duration: SimDuration,
    /// Scheduling class.
    pub priority: Priority,
    /// Caller payload returned on completion.
    pub payload: T,
}

/// A pending completion the engine must turn into a scheduled event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Completion {
    /// Which work item will finish.
    pub id: WorkId,
    /// When it will finish.
    pub at: SimTime,
}

/// A simulated host core: three-level non-preemptive run queue.
pub struct CpuCore<T> {
    queues: [VecDeque<(WorkId, Work<T>)>; 3],
    running: Option<(WorkId, SimTime, T)>,
    /// Between [`CpuCore::complete`] and [`CpuCore::resume`]: the engine is
    /// executing the finished work's handler, which may enqueue follow-up
    /// work that must be considered before the next item starts.
    held: bool,
    next_id: u64,
    busy: SimDuration,
}

impl<T> Default for CpuCore<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CpuCore<T> {
    /// An idle core with empty queues.
    pub fn new() -> Self {
        CpuCore {
            queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            running: None,
            held: false,
            next_id: 0,
            busy: SimDuration::ZERO,
        }
    }

    /// Submit a chunk of work. If the core is idle the chunk starts
    /// immediately and the returned [`Completion`] must be scheduled as an
    /// engine event; if the core is busy the chunk queues and `None` is
    /// returned (its completion will surface from a later
    /// [`CpuCore::on_complete`]).
    pub fn submit(&mut self, now: SimTime, work: Work<T>) -> Option<Completion> {
        let id = WorkId(self.next_id);
        self.next_id += 1;
        if self.running.is_none() && !self.held {
            // Every step that leaves the core idle and un-held ran
            // `start_next` and found nothing, so no queued work can be
            // ahead of this chunk: start it without queueing it.
            debug_assert!(self.queues.iter().all(VecDeque::is_empty));
            Some(self.start(now, id, work))
        } else {
            self.queues[work.priority as usize].push_back((id, work));
            None
        }
    }

    /// The engine calls this when the completion event for the running work
    /// fires. Returns the finished payload and *holds* the core: nothing
    /// new starts until [`CpuCore::resume`], so the completion handler can
    /// enqueue follow-up work (e.g. the next pin chunk) ahead of
    /// lower-priority items that were already waiting.
    ///
    /// # Panics
    /// Panics if no work is running or if `now` disagrees with the promised
    /// completion time — both indicate an engine bookkeeping bug.
    pub fn complete(&mut self, now: SimTime) -> (WorkId, T) {
        let (id, at, payload) = self
            .running
            .take()
            .expect("complete called on an idle core");
        assert_eq!(at, now, "completion fired at the wrong time");
        self.held = true;
        (id, payload)
    }

    /// Release the hold taken by [`CpuCore::complete`] and start the next
    /// queued item, if any.
    pub fn resume(&mut self, now: SimTime) -> Option<Completion> {
        assert!(self.held, "resume without a pending completion");
        self.held = false;
        self.start_next(now)
    }

    /// Convenience for tests and simple drivers: complete-and-resume with
    /// no handler in between.
    pub fn on_complete(&mut self, now: SimTime) -> (WorkId, T, Option<Completion>) {
        let (id, payload) = self.complete(now);
        let next = self.resume(now);
        (id, payload, next)
    }

    /// Remove a not-yet-started work item from the queues. Returns its
    /// payload if it was still queued; `None` if it already started or
    /// finished.
    pub fn cancel_queued(&mut self, id: WorkId) -> Option<T> {
        for q in &mut self.queues {
            if let Some(pos) = q.iter().position(|(wid, _)| *wid == id) {
                return q.remove(pos).map(|(_, w)| w.payload);
            }
        }
        None
    }

    fn start_next(&mut self, now: SimTime) -> Option<Completion> {
        debug_assert!(self.running.is_none() && !self.held);
        let (id, work) = self.queues.iter_mut().find_map(VecDeque::pop_front)?;
        Some(self.start(now, id, work))
    }

    fn start(&mut self, now: SimTime, id: WorkId, work: Work<T>) -> Completion {
        let at = now + work.duration;
        self.busy += work.duration;
        self.running = Some((id, at, work.payload));
        Completion { id, at }
    }

    /// True if nothing is running or queued.
    pub fn is_idle(&self) -> bool {
        self.running.is_none() && self.queues.iter().all(VecDeque::is_empty)
    }

    /// Number of queued (not yet started) items at `prio`.
    pub fn queued_at(&self, prio: Priority) -> usize {
        self.queues[prio as usize].len()
    }

    /// Total CPU time consumed by started work (utilization numerator).
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1000)
    }
    fn d(us: u64) -> SimDuration {
        SimDuration::from_micros(us)
    }
    fn task(us: u64, tag: &'static str) -> Work<&'static str> {
        Work {
            duration: d(us),
            priority: Priority::Task,
            payload: tag,
        }
    }
    fn bh(us: u64, tag: &'static str) -> Work<&'static str> {
        Work {
            duration: d(us),
            priority: Priority::BottomHalf,
            payload: tag,
        }
    }

    #[test]
    fn idle_core_starts_immediately() {
        let mut c = CpuCore::new();
        let comp = c.submit(t(0), task(5, "a")).expect("should start");
        assert_eq!(comp.at, t(5));
        assert!(!c.is_idle());
        let (_, payload, next) = c.on_complete(t(5));
        assert_eq!(payload, "a");
        assert!(next.is_none());
        assert!(c.is_idle());
    }

    #[test]
    fn fifo_within_priority() {
        let mut c = CpuCore::new();
        c.submit(t(0), task(5, "a")).unwrap();
        assert!(c.submit(t(0), task(5, "b")).is_none());
        assert!(c.submit(t(0), task(5, "c")).is_none());
        let (_, p, n) = c.on_complete(t(5));
        assert_eq!(p, "a");
        assert_eq!(n.unwrap().at, t(10));
        let (_, p, n) = c.on_complete(t(10));
        assert_eq!(p, "b");
        assert_eq!(n.unwrap().at, t(15));
        let (_, p, n) = c.on_complete(t(15));
        assert_eq!(p, "c");
        assert!(n.is_none());
    }

    #[test]
    fn bottom_half_jumps_the_queue() {
        let mut c = CpuCore::new();
        c.submit(t(0), task(10, "pin")).unwrap();
        c.submit(t(1), task(10, "pin2"));
        c.submit(t(2), bh(3, "rx"));
        // Running pin is NOT preempted (non-preemptive chunks)...
        let (_, p, n) = c.on_complete(t(10));
        assert_eq!(p, "pin");
        // ...but the bottom half runs before the queued task chunk.
        assert_eq!(n.unwrap().at, t(13));
        let (_, p, _n) = c.on_complete(t(13));
        assert_eq!(p, "rx");
        let (_, p, _) = c.on_complete(t(23));
        assert_eq!(p, "pin2");
    }

    #[test]
    fn sustained_bottom_half_starves_tasks() {
        // The §4.3 scenario: BH chunks keep arriving before the core drains,
        // so the task chunk never runs.
        let mut c = CpuCore::new();
        c.submit(t(0), task(10, "pin")).unwrap(); // starts at 0, done at 10
        c.submit(t(0), task(10, "pin-rest"));
        let mut now = t(10);
        // While pin runs, a BH storm arrives.
        for i in 0..100 {
            c.submit(t(1 + i), bh(10, "rx"));
        }
        // Drain 100 BH chunks; pin-rest must come out last.
        let mut order = Vec::new();
        let (_, p, mut next) = c.on_complete(now);
        order.push(p);
        while let Some(comp) = next {
            now = comp.at;
            let (_, p, n) = c.on_complete(now);
            order.push(p);
            next = n;
        }
        assert_eq!(order.first(), Some(&"pin"));
        assert_eq!(order.last(), Some(&"pin-rest"));
        assert_eq!(order.len(), 102);
        // pin-rest completed only after ~1 ms of BH work.
        assert_eq!(now, t(10 + 100 * 10 + 10));
    }

    #[test]
    fn hold_lets_handler_enqueue_ahead_of_queued_work() {
        // A kernel chunk finishes; its handler submits the next kernel
        // chunk. With the hold protocol the follow-up chunk runs before a
        // task item that was already queued.
        let mut c = CpuCore::new();
        c.submit(
            t(0),
            Work {
                duration: d(5),
                priority: Priority::Kernel,
                payload: "pin1",
            },
        )
        .unwrap();
        c.submit(t(0), task(5, "syscall"));
        let (_, p) = c.complete(t(5));
        assert_eq!(p, "pin1");
        // Handler submits the next chunk while the core is held.
        assert!(c
            .submit(
                t(5),
                Work {
                    duration: d(5),
                    priority: Priority::Kernel,
                    payload: "pin2"
                },
            )
            .is_none());
        let next = c.resume(t(5)).unwrap();
        assert_eq!(next.at, t(10));
        let (_, p, _) = c.on_complete(t(10));
        assert_eq!(p, "pin2", "kernel chunk chains ahead of the syscall");
        let (_, p, _) = c.on_complete(t(15));
        assert_eq!(p, "syscall");
    }

    #[test]
    fn kernel_work_runs_before_task_after_bh() {
        let mut c = CpuCore::new();
        c.submit(t(0), task(10, "compute")).unwrap();
        c.submit(
            t(1),
            Work {
                duration: d(2),
                priority: Priority::Kernel,
                payload: "pin",
            },
        );
        c.submit(t(2), bh(1, "rx"));
        c.submit(t(2), task(10, "compute2"));
        let (_, p, _) = c.on_complete(t(10));
        assert_eq!(p, "compute");
        let (_, p, _) = c.on_complete(t(11));
        assert_eq!(p, "rx", "bottom half first");
        let (_, p, _) = c.on_complete(t(13));
        assert_eq!(p, "pin", "kernel work before queued task work");
        let (_, p, _) = c.on_complete(t(23));
        assert_eq!(p, "compute2");
    }

    #[test]
    fn cancel_queued_removes_pending_only() {
        let mut c = CpuCore::new();
        let first = c.submit(t(0), task(5, "a")).unwrap();
        c.submit(t(0), task(5, "b"));
        // "a" already started: cannot cancel.
        assert!(c.cancel_queued(first.id).is_none());
        // find b's id by cancelling the only queued item
        assert_eq!(c.queued_at(Priority::Task), 1);
        let (_, _p, n) = c.on_complete(t(5));
        assert!(n.is_some());
    }

    #[test]
    fn busy_time_accumulates() {
        let mut c = CpuCore::new();
        c.submit(t(0), task(5, "a")).unwrap();
        c.submit(t(0), task(7, "b"));
        c.on_complete(t(5));
        c.on_complete(t(12));
        assert_eq!(c.busy_time(), d(12));
    }

    /// The core's contract written plainly: three FIFO lists, one running
    /// slot, the hold flag, and nothing that skips a list.
    #[derive(Default)]
    struct Model {
        queues: [Vec<(u64, SimDuration, u64)>; 3],
        running: Option<(u64, SimTime, u64)>,
        held: bool,
        next_id: u64,
        busy: SimDuration,
    }

    impl Model {
        fn submit(
            &mut self,
            now: SimTime,
            prio: Priority,
            dur: SimDuration,
            tag: u64,
        ) -> Option<(u64, SimTime)> {
            let id = self.next_id;
            self.next_id += 1;
            self.queues[prio as usize].push((id, dur, tag));
            if self.running.is_none() && !self.held {
                self.start_next(now)
            } else {
                None
            }
        }

        fn start_next(&mut self, now: SimTime) -> Option<(u64, SimTime)> {
            let q = self.queues.iter_mut().find(|q| !q.is_empty())?;
            let (id, dur, tag) = q.remove(0);
            self.busy += dur;
            self.running = Some((id, now + dur, tag));
            Some((id, now + dur))
        }

        fn complete(&mut self) -> (u64, u64) {
            let (id, _, tag) = self.running.take().expect("model running");
            self.held = true;
            (id, tag)
        }

        fn resume(&mut self, now: SimTime) -> Option<(u64, SimTime)> {
            self.held = false;
            self.start_next(now)
        }

        fn cancel(&mut self, id: u64) -> Option<u64> {
            for q in &mut self.queues {
                if let Some(pos) = q.iter().position(|w| w.0 == id) {
                    return Some(q.remove(pos).2);
                }
            }
            None
        }
    }

    #[test]
    fn matches_a_plain_queue_model_under_random_operations() {
        let ours = |c: Option<Completion>| c.map(|c| (c.id.0, c.at));
        let (mut idle_submits, mut held_submits, mut cancels) = (0, 0, 0);
        for seed in 0..40 {
            let mut rng = crate::SimRng::new(seed);
            let (mut c, mut m) = (CpuCore::new(), Model::default());
            let mut now = SimTime::ZERO;
            for step in 0..300u64 {
                match rng.below(8) {
                    0..=2 => {
                        let prio = [Priority::BottomHalf, Priority::Kernel, Priority::Task]
                            [rng.below(3) as usize];
                        let dur = SimDuration::from_nanos(1 + rng.below(50));
                        now += SimDuration::from_nanos(rng.below(20));
                        if let Some((_, at, _)) = c.running {
                            now = now.min(at);
                        }
                        if c.running.is_none() {
                            if c.held {
                                held_submits += 1;
                            } else {
                                idle_submits += 1;
                            }
                        }
                        let work = Work {
                            duration: dur,
                            priority: prio,
                            payload: step,
                        };
                        assert_eq!(ours(c.submit(now, work)), m.submit(now, prio, dur, step));
                    }
                    3..=5 if c.held => {
                        assert_eq!(ours(c.resume(now)), m.resume(now), "seed {seed}");
                    }
                    3..=5 => {
                        let Some((_, at, _)) = c.running else {
                            continue;
                        };
                        now = at;
                        let (id, tag) = c.complete(now);
                        assert_eq!((id.0, tag), m.complete(), "seed {seed}");
                        if rng.chance(0.5) {
                            assert_eq!(ours(c.resume(now)), m.resume(now));
                        }
                    }
                    _ => {
                        let id = rng.below(m.next_id + 1);
                        let got = c.cancel_queued(WorkId(id));
                        cancels += u64::from(got.is_some());
                        assert_eq!(got, m.cancel(id), "seed {seed}");
                    }
                }
                for prio in [Priority::BottomHalf, Priority::Kernel, Priority::Task] {
                    assert_eq!(c.queued_at(prio), m.queues[prio as usize].len());
                }
                let model_idle = m.running.is_none() && m.queues.iter().all(Vec::is_empty);
                assert_eq!(c.is_idle(), model_idle, "seed {seed} step {step}");
                assert_eq!(c.busy_time(), m.busy);
            }
        }
        assert!(idle_submits > 50, "{idle_submits} submits to an idle core");
        assert!(held_submits > 50, "{held_submits} submits while held");
        assert!(cancels > 50, "{cancels} cancellations");
    }

    #[test]
    #[should_panic(expected = "idle core")]
    fn on_complete_when_idle_panics() {
        let mut c: CpuCore<()> = CpuCore::new();
        c.on_complete(t(0));
    }
}
