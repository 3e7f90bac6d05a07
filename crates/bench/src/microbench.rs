//! A minimal wall-clock micro-benchmark harness for the `harness = false`
//! bench targets. Measures real elapsed time of the simulator itself (the
//! *simulated* costs are the `bench` scenarios' business).
//!
//! Deliberately tiny: warm up, pick an iteration count that fills a target
//! measurement window, take several samples, report median ns/iter.

use std::time::{Duration, Instant};

/// Prevent the optimizer from discarding a computed value.
///
/// `std::hint::black_box` is stable since Rust 1.66.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// One benchmark runner; prints a line per benchmark.
pub struct Bench {
    samples: usize,
    target: Duration,
}

impl Default for Bench {
    fn default() -> Self {
        Self::new()
    }
}

impl Bench {
    /// A runner with the default 11 samples of ~50 ms each.
    pub fn new() -> Self {
        Bench {
            samples: 11,
            target: Duration::from_millis(50),
        }
    }

    /// Override the number of timed samples (median is reported).
    pub fn samples(mut self, n: usize) -> Self {
        assert!(n > 0);
        self.samples = n;
        self
    }

    /// Override the per-sample measurement window.
    pub fn sample_window(mut self, d: Duration) -> Self {
        self.target = d;
        self
    }

    /// Time `f`, printing `name: <median> ns/iter (± spread over samples)`.
    pub fn bench<O, F: FnMut() -> O>(&self, name: &str, mut f: F) {
        // Warm-up and calibration: how many iterations fill the window?
        let calib_start = Instant::now();
        black_box(f());
        let once = calib_start.elapsed().max(Duration::from_nanos(1));
        let iters = (self.target.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;

        let mut per_iter: Vec<f64> = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                start.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        per_iter.sort_by(|a, b| a.total_cmp(b));
        let median = per_iter[per_iter.len() / 2];
        let spread = per_iter[per_iter.len() - 1] - per_iter[0];
        println!("{name}: {median:.0} ns/iter (spread {spread:.0} ns, {iters} iters/sample)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        // Smoke test: a trivial closure completes without panicking.
        Bench::new()
            .samples(3)
            .sample_window(Duration::from_micros(200))
            .bench("noop", || black_box(1u64 + 1));
    }
}
