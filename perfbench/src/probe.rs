//! A fixed probe of the host's speed, independent of the simulator.
//!
//! The machines this benchmark runs on are shared: the same episode's
//! host time drifts by 40–60% over minutes as neighbours come and go, far
//! more than the changes the benchmark must resolve. The probe is a fixed,
//! cache-resident loop of the kinds of work the simulator's event loop
//! does — a small binary heap, a small hash map and page-sized buffer
//! copies — timed right around each episode. Scaling an episode's host
//! time by `(REFERENCE_S / probe time)^EXPONENT` removes most of the drift
//! the two share, while a change to the simulator still moves the scaled
//! time in full, because the probe runs none of its code.
//!
//! The exponent is measured, not derived. Over about 280 episodes
//! spanning fast and slow machine states on a 2-core Intel Xeon at 2 GHz,
//! the median of the slowest third of episodes over that of the fastest
//! third was 1.38, 1.59 and 1.62 unscaled (pingpong_16m,
//! realloc_churn_256k, sendrecv_4k_lossy) and 0.90, 1.10 and 1.01 scaled
//! with exponent 0.9.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Probe time that defines the scale: scaled host seconds read as host
/// seconds on a machine where one probe takes this long, about its median
/// on a 2-core Intel Xeon at 2 GHz.
pub const REFERENCE_S: f64 = 0.01;

/// How strongly episode host time follows probe time (see the module
/// docs).
pub const EXPONENT: f64 = 0.9;

/// Loop iterations of one probe.
const STEPS: u64 = 200_000;

/// Factor that scales a host time measured while the probe took
/// `probe_s` to the reference machine speed.
pub fn scale(probe_s: f64) -> f64 {
    (REFERENCE_S / probe_s).powf(EXPONENT)
}

/// Run the probe once; returns its host seconds.
pub fn run() -> f64 {
    let page = vec![7u8; 4096];
    let mut heap = BinaryHeap::new();
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut x = 0x1234_5678u64;
    let mut sum = 0u64;
    let t = Instant::now();
    for i in 0..STEPS {
        // xorshift: the same pseudo-random sequence on every run.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(Reverse(x % 100_000));
        if heap.len() > 20 {
            sum += heap.pop().map_or(0, |r| r.0);
        }
        map.insert(x % 64, i);
        if i % 4 == 0 {
            let copy = black_box(page.clone());
            sum += u64::from(copy[(x % 4096) as usize]);
        }
    }
    let secs = t.elapsed().as_secs_f64();
    black_box(sum + map.len() as u64);
    secs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_times_are_positive_and_scale_is_monotonic() {
        assert!(run() > 0.0);
        assert_eq!(scale(REFERENCE_S), 1.0);
        assert!(scale(2.0 * REFERENCE_S) < 1.0 && scale(REFERENCE_S / 2.0) > 1.0);
    }
}
