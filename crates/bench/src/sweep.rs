//! Parallel parameter sweeps: each simulation is independent and
//! deterministic, so points of a figure can run on separate threads
//! (std scoped threads) and still produce identical results to a
//! sequential run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Map `f` over `inputs` in parallel, preserving order. `f` must build
/// everything it needs inside the call (simulations are not `Send`).
///
/// At most `available_parallelism()` worker threads run, whatever the
/// input count: each worker claims the next unstarted input until none
/// is left, and writes its result into that input's slot.
pub fn parallel_map<I, O, F>(inputs: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let inputs: Vec<Mutex<Option<I>>> = inputs.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let results: Vec<Mutex<Option<O>>> = inputs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers.min(inputs.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = inputs.get(i) else { break };
                let input = slot
                    .lock()
                    .unwrap()
                    .take()
                    .expect("each input is claimed once");
                *results[i].lock().unwrap() = Some(f(input));
            });
        }
    });
    results
        .into_iter()
        .map(|o| o.into_inner().unwrap().expect("slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = parallel_map((0..32).collect(), |x: u64| x * x);
        assert_eq!(out, (0..32).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn works_with_non_copy_outputs() {
        let out = parallel_map(vec!["a", "bb", "ccc"], |s: &str| s.to_string());
        assert_eq!(out, vec!["a", "bb", "ccc"]);
    }

    #[test]
    fn in_flight_calls_never_exceed_the_worker_count() {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (live, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let out = parallel_map((0..64).collect(), |x: usize| {
            peak.fetch_max(live.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(1));
            live.fetch_sub(1, Ordering::SeqCst);
            x
        });
        assert_eq!(out, (0..64).collect::<Vec<_>>());
        let peak = peak.into_inner();
        assert!(
            (1..=workers).contains(&peak),
            "{peak} calls in flight with {workers} workers"
        );
    }
}
