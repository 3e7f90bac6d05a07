//! The always-on latency registry: histograms and running statistics.
//! Event counts live in [`CounterSet`](crate::obs::CounterSet).

use simcore::{FixedHistogram, OnlineStats, SimDuration};

/// Cluster-wide latency metrics, recorded whether or not tracing is on
/// (every record is a fixed-cost histogram increment).
///
/// * **Pin latency** — pin-start to pin-complete of one pin plan burst:
///   how long the driver took to walk the cursor to its target.
/// * **Rendezvous round trip** — rendezvous transmission to the matching
///   notify: the full large-message transaction as the sender sees it.
/// * **Overlap window** — rendezvous transmission to the first pull
///   request: the round trip the paper hides pinning behind (§3.3).
#[derive(Clone, Debug)]
pub struct Metrics {
    /// Pin-start → pin-complete, per pin plan burst.
    pub pin_latency: FixedHistogram,
    /// Rendezvous → notify, per large-message send.
    pub rndv_rtt: FixedHistogram,
    /// Rendezvous → first pull request, per large-message send.
    pub overlap_window: FixedHistogram,
    /// Pages covered per completed pin burst.
    pub pin_burst_pages: OnlineStats,
    /// Adaptive retransmission timeouts applied at timer arms.
    pub rto_applied: FixedHistogram,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// Fresh registry with bucket geometries sized for the paper's
    /// platforms (10 µs pin buckets, 100 µs round-trip buckets, 1 µs
    /// overlap-window buckets; out-of-range values are still counted and
    /// report exact maxima).
    pub fn new() -> Self {
        Metrics {
            pin_latency: FixedHistogram::new(SimDuration::from_millis(100), 10_000),
            rndv_rtt: FixedHistogram::new(SimDuration::from_secs(1), 10_000),
            overlap_window: FixedHistogram::new(SimDuration::from_millis(10), 10_000),
            pin_burst_pages: OnlineStats::new(),
            rto_applied: FixedHistogram::new(SimDuration::from_millis(10), 10_000),
        }
    }

    /// Merge another registry (parallel-sweep reduction).
    pub fn merge(&mut self, other: &Metrics) {
        self.pin_latency.merge(&other.pin_latency);
        self.rndv_rtt.merge(&other.rndv_rtt);
        self.overlap_window.merge(&other.overlap_window);
        self.pin_burst_pages.merge(&other.pin_burst_pages);
        self.rto_applied.merge(&other.rto_applied);
    }

    /// One-line pin-latency summary for the bench harness:
    /// `p50/p95/p99 µs over n bursts`.
    pub fn pin_latency_summary(&self) -> String {
        if self.pin_latency.count() == 0 {
            return "no pin bursts".to_string();
        }
        format!(
            "pin p50 {:.1} us, p95 {:.1} us, p99 {:.1} us ({} bursts)",
            self.pin_latency.quantile(0.50).as_micros_f64(),
            self.pin_latency.quantile(0.95).as_micros_f64(),
            self.pin_latency.quantile(0.99).as_micros_f64(),
            self.pin_latency.count(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        a.pin_latency.record(SimDuration::from_micros(100));
        b.pin_latency.record(SimDuration::from_micros(300));
        b.rto_applied.record(SimDuration::from_micros(50));
        a.merge(&b);
        assert_eq!(a.pin_latency.count(), 2);
        assert_eq!(a.rto_applied.count(), 1);
        assert!(a.pin_latency_summary().contains("2 bursts"));
    }
}
