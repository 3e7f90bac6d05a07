//! A host-core model with Linux-like scheduling priorities.
//!
//! The paper's §4.3 overload scenario depends on one scheduling fact: the
//! receive path (bottom-half interrupt handler) is "strongly privileged" and
//! can exhaust a core, starving the application task that is trying to pin
//! pages. We model a core as a non-preemptive run queue with three priority
//! levels — [`Priority::BottomHalf`] before [`Priority::Kernel`] before
//! [`Priority::Task`] — where each work item is a bounded chunk of CPU time
//! (pin batches, per-packet processing, memcpy chunks). Chunking makes the model
//! effectively preemptive at chunk granularity, exactly like the real
//! softirq/task interleaving the paper describes.
//!
//! The core does not own a clock. The simulation engine drives it:
//!
//! ```text
//! engine: submit(now, work) ──► Some(at) ──► set the core's queue lane at `at`
//! lane fires: complete(now) ──► finished payload; handler runs
//!             resume(now)   ──► next completion time?
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

/// A simulated host core: three-level non-preemptive run queue.
pub struct CpuCore<T> {
    queues: [VecDeque<Work<T>>; 3],
    /// The running chunk's completion time and payload.
    running: Option<(SimTime, T)>,
    /// Between [`CpuCore::complete`] and [`CpuCore::resume`]: the engine is
    /// executing the finished work's handler, which may enqueue follow-up
    /// work that must be considered before the next item starts.
    held: bool,
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
        }
    }

    /// Submit a chunk of work. If the core is idle the chunk starts
    /// immediately and its completion time is returned for the engine to
    /// schedule; if the core is busy the chunk queues and `None` is
    /// returned (its completion will surface from a later
    /// [`CpuCore::resume`]).
    #[inline(always)]
    pub fn submit(&mut self, now: SimTime, work: Work<T>) -> Option<SimTime> {
        if self.running.is_none() && !self.held {
            // Every step that leaves the core idle and un-held ran
            // `start_next` and found nothing, so no queued work can be
            // ahead of this chunk: start it without queueing it.
            debug_assert!(self.queues.iter().all(VecDeque::is_empty));
            Some(self.start(now, work))
        } else {
            self.queues[work.priority as usize].push_back(work);
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
    #[inline(always)]
    pub fn complete(&mut self, now: SimTime) -> T {
        match self.running.take() {
            Some((at, payload)) if at == now => {
                self.held = true;
                payload
            }
            running => bad_completion(running.map(|(at, _)| at), now),
        }
    }

    /// Release the hold taken by [`CpuCore::complete`] and start the next
    /// queued item, if any, returning its completion time.
    #[inline(always)]
    pub fn resume(&mut self, now: SimTime) -> Option<SimTime> {
        if !self.held {
            resume_without_completion();
        }
        self.held = false;
        self.start_next(now)
    }

    /// Convenience for tests and simple drivers: complete-and-resume with
    /// no handler in between.
    pub fn on_complete(&mut self, now: SimTime) -> (T, Option<SimTime>) {
        let payload = self.complete(now);
        (payload, self.resume(now))
    }

    #[inline(always)]
    fn start_next(&mut self, now: SimTime) -> Option<SimTime> {
        debug_assert!(self.running.is_none() && !self.held);
        let work = self.queues.iter_mut().find_map(VecDeque::pop_front)?;
        Some(self.start(now, work))
    }

    #[inline(always)]
    fn start(&mut self, now: SimTime, work: Work<T>) -> SimTime {
        let at = now + work.duration;
        self.running = Some((at, work.payload));
        at
    }
}

#[cold]
#[inline(never)]
fn bad_completion(running: Option<SimTime>, now: SimTime) -> ! {
    let at = running.expect("complete called on an idle core");
    assert_eq!(at, now, "completion fired at the wrong time");
    unreachable!("a completion that fired on time")
}

#[cold]
#[inline(never)]
fn resume_without_completion() -> ! {
    panic!("resume without a pending completion")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1000)
    }
    fn work(prio: Priority, us: u64, tag: &'static str) -> Work<&'static str> {
        Work {
            duration: SimDuration::from_micros(us),
            priority: prio,
            payload: tag,
        }
    }
    fn task(us: u64, tag: &'static str) -> Work<&'static str> {
        work(Priority::Task, us, tag)
    }
    fn bh(us: u64, tag: &'static str) -> Work<&'static str> {
        work(Priority::BottomHalf, us, tag)
    }

    /// Complete-and-resume until the core runs dry, from the completion
    /// due at `at`; the payloads in completion order and the final time.
    fn drain(c: &mut CpuCore<&'static str>, mut at: SimTime) -> (Vec<&'static str>, SimTime) {
        let mut order = Vec::new();
        loop {
            let (p, next) = c.on_complete(at);
            order.push(p);
            match next {
                Some(next) => at = next,
                None => return (order, at),
            }
        }
    }

    #[test]
    fn idle_core_starts_immediately() {
        let mut c = CpuCore::new();
        assert_eq!(c.submit(t(0), task(5, "a")), Some(t(5)));
        assert_eq!(c.submit(t(1), task(5, "b")), None, "busy core queues");
        assert_eq!(c.on_complete(t(5)), ("a", Some(t(10))));
        assert_eq!(c.on_complete(t(10)), ("b", None));
        assert_eq!(c.submit(t(12), task(1, "c")), Some(t(13)), "idle again");
    }

    #[test]
    fn fifo_within_priority() {
        let mut c = CpuCore::new();
        let first = c.submit(t(0), task(5, "a")).unwrap();
        assert!(c.submit(t(0), task(5, "b")).is_none());
        assert!(c.submit(t(0), task(5, "c")).is_none());
        assert_eq!(drain(&mut c, first), (vec!["a", "b", "c"], t(15)));
    }

    #[test]
    fn bottom_half_jumps_the_queue() {
        let mut c = CpuCore::new();
        let first = c.submit(t(0), task(10, "pin")).unwrap();
        c.submit(t(1), task(10, "pin2"));
        c.submit(t(2), bh(3, "rx"));
        // The running pin is NOT preempted (non-preemptive chunks), but the
        // bottom half runs before the queued task chunk.
        assert_eq!(c.on_complete(first), ("pin", Some(t(13))));
        assert_eq!(drain(&mut c, t(13)), (vec!["rx", "pin2"], t(23)));
    }

    #[test]
    fn sustained_bottom_half_starves_tasks() {
        // The §4.3 scenario: BH chunks keep arriving before the core drains,
        // so the task chunk never runs.
        let mut c = CpuCore::new();
        let first = c.submit(t(0), task(10, "pin")).unwrap();
        c.submit(t(0), task(10, "pin-rest"));
        // While pin runs, a BH storm arrives.
        for i in 0..100 {
            c.submit(t(1 + i), bh(10, "rx"));
        }
        let (order, end) = drain(&mut c, first);
        assert_eq!(order.first(), Some(&"pin"));
        assert_eq!(order.last(), Some(&"pin-rest"));
        assert_eq!(order.len(), 102);
        // pin-rest completed only after ~1 ms of BH work.
        assert_eq!(end, t(10 + 100 * 10 + 10));
    }

    #[test]
    fn hold_lets_handler_enqueue_ahead_of_queued_work() {
        // A kernel chunk finishes; its handler submits the next kernel
        // chunk. With the hold protocol the follow-up chunk runs before a
        // task item that was already queued.
        let mut c = CpuCore::new();
        let first = c.submit(t(0), work(Priority::Kernel, 5, "pin1")).unwrap();
        c.submit(t(0), task(5, "syscall"));
        assert_eq!(c.complete(first), "pin1");
        // Handler submits the next chunk while the core is held.
        assert!(c.submit(t(5), work(Priority::Kernel, 5, "pin2")).is_none());
        let next = c.resume(t(5)).unwrap();
        assert_eq!(next, t(10));
        assert_eq!(drain(&mut c, next), (vec!["pin2", "syscall"], t(15)));
    }

    #[test]
    fn kernel_work_runs_before_task_after_bh() {
        let mut c = CpuCore::new();
        let first = c.submit(t(0), task(10, "compute")).unwrap();
        c.submit(t(1), work(Priority::Kernel, 2, "pin"));
        c.submit(t(2), bh(1, "rx"));
        c.submit(t(2), task(10, "compute2"));
        let (order, end) = drain(&mut c, first);
        assert_eq!(order, ["compute", "rx", "pin", "compute2"]);
        assert_eq!(end, t(23));
    }

    /// The core's contract written plainly: three FIFO lists, one running
    /// slot, the hold flag, and nothing that skips a list.
    #[derive(Default)]
    struct Model {
        queues: [Vec<(SimDuration, u64)>; 3],
        running: Option<(SimTime, u64)>,
        held: bool,
    }

    impl Model {
        fn submit(
            &mut self,
            now: SimTime,
            prio: Priority,
            dur: SimDuration,
            tag: u64,
        ) -> Option<SimTime> {
            self.queues[prio as usize].push((dur, tag));
            if self.running.is_none() && !self.held {
                self.start_next(now)
            } else {
                None
            }
        }

        fn start_next(&mut self, now: SimTime) -> Option<SimTime> {
            let q = self.queues.iter_mut().find(|q| !q.is_empty())?;
            let (dur, tag) = q.remove(0);
            self.running = Some((now + dur, tag));
            Some(now + dur)
        }

        fn complete(&mut self) -> u64 {
            let (_, tag) = self.running.take().expect("model running");
            self.held = true;
            tag
        }

        fn resume(&mut self, now: SimTime) -> Option<SimTime> {
            self.held = false;
            self.start_next(now)
        }
    }

    #[test]
    fn matches_a_plain_queue_model_under_random_operations() {
        let (mut idle_submits, mut held_submits, mut completions) = (0, 0, 0);
        for seed in 0..40 {
            let mut rng = crate::SimRng::new(seed);
            let (mut c, mut m) = (CpuCore::new(), Model::default());
            let mut now = SimTime::ZERO;
            for step in 0..300u64 {
                match rng.below(6) {
                    0..=2 => {
                        let prio = [Priority::BottomHalf, Priority::Kernel, Priority::Task]
                            [rng.below(3) as usize];
                        let dur = SimDuration::from_nanos(1 + rng.below(50));
                        now += SimDuration::from_nanos(rng.below(20));
                        if let Some((at, _)) = m.running {
                            now = now.min(at);
                        } else if m.held {
                            held_submits += 1;
                        } else {
                            idle_submits += 1;
                        }
                        let work = Work {
                            duration: dur,
                            priority: prio,
                            payload: step,
                        };
                        let expect = m.submit(now, prio, dur, step);
                        assert_eq!(c.submit(now, work), expect, "seed {seed} step {step}");
                    }
                    _ if m.held => {
                        assert_eq!(c.resume(now), m.resume(now), "seed {seed} step {step}");
                    }
                    _ => {
                        let Some((at, _)) = m.running else {
                            continue;
                        };
                        now = at;
                        assert_eq!(c.complete(now), m.complete(), "seed {seed} step {step}");
                        completions += 1;
                        if rng.chance(0.5) {
                            assert_eq!(c.resume(now), m.resume(now), "seed {seed} step {step}");
                        }
                    }
                }
            }
        }
        assert!(idle_submits > 50, "{idle_submits} submits to an idle core");
        assert!(held_submits > 50, "{held_submits} submits while held");
        assert!(completions > 1_000, "{completions} completions");
    }

    #[test]
    #[should_panic(expected = "idle core")]
    fn on_complete_when_idle_panics() {
        let mut c: CpuCore<()> = CpuCore::new();
        c.on_complete(t(0));
    }
}
