//! Statistics utilities used by the measurement harness.
//!
//! * [`OnlineStats`] — Welford's single-pass mean/variance,
//! * [`FixedHistogram`] — linear fixed-bucket latency histogram with
//!   interpolated quantiles over a known latency band,
//! * [`linear_fit`] — ordinary least squares, used to recover the paper's
//!   Table 1 "base + per-page" pinning-cost decomposition from sweep data.

use std::fmt;

use crate::time::SimDuration;

/// Single-pass mean / variance / min / max accumulator (Welford).
#[derive(Clone, Debug, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Convenience: add a duration observation in microseconds.
    pub fn push_duration_us(&mut self, d: SimDuration) {
        self.push(d.as_micros_f64());
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (n−1 denominator); 0 with fewer than 2 samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merge another accumulator into this one (parallel-sweep reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        let mean = self.mean + d * other.n as f64 / n as f64;
        self.m2 += other.m2 + d * d * self.n as f64 * other.n as f64 / n as f64;
        self.mean = mean;
        self.n = n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for OnlineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} sd={:.3} min={:.3} max={:.3}",
            self.n,
            self.mean(),
            self.stddev(),
            self.min.min(self.max),
            self.max.max(self.min)
        )
    }
}

/// Linear fixed-bucket histogram of nanosecond durations.
///
/// `bucket_count` equal-width buckets span `[0, range)`; values at or above
/// `range` land in a dedicated overflow bucket. Quantiles interpolate
/// linearly inside the winning bucket, so resolution is `range /
/// bucket_count` when the latency band is known (pin latency, rendezvous
/// round trips).
#[derive(Clone, Debug)]
pub struct FixedHistogram {
    buckets: Vec<u64>,
    overflow: u64,
    width_ns: u64,
    count: u64,
    sum_ns: u128,
    max_ns: u64,
}

impl FixedHistogram {
    /// A histogram of `bucket_count` buckets covering `[0, range)`.
    ///
    /// # Panics
    /// Panics if `bucket_count` is 0 or `range` is shorter than one
    /// nanosecond per bucket.
    pub fn new(range: SimDuration, bucket_count: usize) -> Self {
        assert!(bucket_count > 0, "bucket_count == 0");
        let width_ns = range.as_nanos() / bucket_count as u64;
        assert!(width_ns > 0, "range too small for {bucket_count} buckets");
        FixedHistogram {
            buckets: vec![0; bucket_count],
            overflow: 0,
            width_ns,
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }

    /// Record one duration.
    #[inline]
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        let idx = (ns / self.width_ns) as usize;
        match self.buckets.get_mut(idx) {
            Some(b) => *b += 1,
            None => self.overflow += 1,
        }
        self.count += 1;
        self.sum_ns += ns as u128;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Values that fell beyond the covered range.
    pub fn overflow_count(&self) -> u64 {
        self.overflow
    }

    /// Width of one bucket.
    pub fn bucket_width(&self) -> SimDuration {
        SimDuration::from_nanos(self.width_ns)
    }

    /// Mean of recorded values (exact, not bucketed).
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos((self.sum_ns / self.count as u128) as u64)
        }
    }

    /// Largest recorded value (exact).
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max_ns)
    }

    /// The `q`-quantile (0 ≤ q ≤ 1), interpolated within the winning
    /// bucket. Quantiles landing in the overflow bucket report the exact
    /// observed maximum.
    ///
    /// # Panics
    /// Panics unless `0.0 <= q <= 1.0`.
    pub fn quantile(&self, q: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&q), "invalid quantile {q}");
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                // Interpolate within bucket [i*w, (i+1)*w).
                let into = (target - seen) as f64 / c as f64;
                let ns = (i as u64 * self.width_ns) as f64 + into * self.width_ns as f64;
                return SimDuration::from_nanos(ns as u64);
            }
            seen += c;
        }
        self.max()
    }

    /// Merge another histogram into this one.
    ///
    /// # Panics
    /// Panics if the two histograms have different geometries.
    pub fn merge(&mut self, other: &FixedHistogram) {
        assert_eq!(self.width_ns, other.width_ns, "bucket width mismatch");
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "bucket count mismatch"
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// Ordinary least-squares fit `y = a + b·x`. Returns `(a, b)`.
///
/// Used to recover the Table 1 decomposition: pin cost observed for several
/// page counts, fitted to `base + per_page · pages`.
///
/// # Panics
/// Panics with fewer than two distinct x values.
pub fn linear_fit(points: &[(f64, f64)]) -> (f64, f64) {
    assert!(points.len() >= 2, "need at least two points");
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    assert!(denom.abs() > 1e-12, "x values are degenerate");
    let b = (n * sxy - sx * sy) / denom;
    let a = (sy - b * sx) / n;
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = OnlineStats::new();
        xs.iter().for_each(|&x| all.push(x));
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        xs[..37].iter().for_each(|&x| a.push(x));
        xs[37..].iter().for_each(|&x| b.push(x));
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn fixed_histogram_bucketing_and_quantiles() {
        // 100 buckets of 10 us over [0, 1 ms).
        let mut h = FixedHistogram::new(SimDuration::from_millis(1), 100);
        assert_eq!(h.bucket_width(), SimDuration::from_micros(10));
        for us in 1..=1000u64 {
            h.record(SimDuration::from_micros(us));
        }
        assert_eq!(h.count(), 1000);
        // 1000 us lands exactly at the range edge -> overflow bucket.
        assert_eq!(h.overflow_count(), 1);
        // Median of 1..=1000 us must be within one bucket of 500 us.
        let med = h.quantile(0.5).as_nanos();
        assert!((490_000..=510_000).contains(&med), "median {med}");
        let p99 = h.quantile(0.99).as_nanos();
        assert!((980_000..=1_000_000).contains(&p99), "p99 {p99}");
        let mean = h.mean().as_nanos();
        assert!((500_000..=501_000).contains(&mean), "mean {mean}");
        assert_eq!(h.max(), SimDuration::from_micros(1000));
        assert!(h.quantile(1.0) <= h.max());
    }

    #[test]
    fn fixed_histogram_edges() {
        let mut h = FixedHistogram::new(SimDuration::from_nanos(100), 10);
        // Bucket boundaries: 0 belongs to bucket 0, 10 to bucket 1,
        // 99 to bucket 9, 100+ overflows.
        h.record(SimDuration::ZERO);
        h.record(SimDuration::from_nanos(9));
        h.record(SimDuration::from_nanos(10));
        h.record(SimDuration::from_nanos(99));
        h.record(SimDuration::from_nanos(100));
        h.record(SimDuration::from_nanos(1_000_000));
        assert_eq!(h.count(), 6);
        assert_eq!(h.overflow_count(), 2);
        // The smallest observation quantile stays in the first bucket.
        assert!(h.quantile(0.0).as_nanos() < 10);
        // All-overflow quantile reports the exact max.
        assert_eq!(h.quantile(1.0), SimDuration::from_nanos(1_000_000));
    }

    #[test]
    fn fixed_histogram_empty_and_merge() {
        let empty = FixedHistogram::new(SimDuration::from_micros(1), 4);
        assert_eq!(empty.quantile(0.5), SimDuration::ZERO);
        assert_eq!(empty.mean(), SimDuration::ZERO);

        let mut a = FixedHistogram::new(SimDuration::from_micros(1), 4);
        let mut b = FixedHistogram::new(SimDuration::from_micros(1), 4);
        a.record(SimDuration::from_nanos(100));
        b.record(SimDuration::from_nanos(800));
        b.record(SimDuration::from_micros(5));
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.overflow_count(), 1);
        assert_eq!(a.max(), SimDuration::from_micros(5));
    }

    #[test]
    #[should_panic(expected = "bucket width mismatch")]
    fn fixed_histogram_merge_rejects_mismatch() {
        let mut a = FixedHistogram::new(SimDuration::from_micros(1), 4);
        let b = FixedHistogram::new(SimDuration::from_micros(2), 4);
        a.merge(&b);
    }

    #[test]
    fn linear_fit_recovers_coefficients() {
        // y = 1.3 + 0.15 x, the paper's Xeon E5460 pin cost in us/page.
        let pts: Vec<(f64, f64)> = (1..=64)
            .map(|p| (p as f64, 1.3 + 0.15 * p as f64))
            .collect();
        let (a, b) = linear_fit(&pts);
        assert!((a - 1.3).abs() < 1e-9, "a = {a}");
        assert!((b - 0.15).abs() < 1e-9, "b = {b}");
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn linear_fit_rejects_constant_x() {
        linear_fit(&[(1.0, 1.0), (1.0, 2.0)]);
    }
}
