//! Retransmission-timeout estimation (Jacobson/Karels, integer arithmetic).
//!
//! The engine feeds the estimator round-trip samples from exchanges it
//! already times — rendezvous → first pull request, eager → ack, pull
//! request → block completion — and asks for an RTO when (re)arming a
//! protocol timer. Karn's rule applies at the call sites: retransmitted
//! exchanges contribute no samples, since their ack could answer either
//! transmission.

use simcore::{SimDuration, SimRng};

use crate::config::{OpenMxConfig, RETRANSMIT_BACKOFF, RETRANSMIT_MIN};

/// Smoothed RTT + variance in the classic fixed-gain form:
/// `srtt += (sample - srtt) / 8`, `rttvar += (|sample - srtt| - rttvar) / 4`,
/// `rto = srtt + 4 * rttvar`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct RttEstimator {
    /// Smoothed RTT, nanoseconds (0 = no samples yet).
    srtt: u64,
    /// Mean deviation, nanoseconds.
    rttvar: u64,
    /// Samples absorbed.
    samples: u64,
}

impl RttEstimator {
    /// Absorb one round-trip sample.
    pub fn observe(&mut self, sample: SimDuration) {
        let s = sample.as_nanos();
        if self.samples == 0 {
            self.srtt = s;
            self.rttvar = s / 2;
        } else {
            let err = s.abs_diff(self.srtt);
            self.rttvar = self.rttvar - self.rttvar / 4 + err / 4;
            self.srtt = self.srtt - self.srtt / 8 + s / 8;
        }
        self.samples += 1;
    }

    /// The current retransmission timeout, or `None` before any sample.
    pub fn rto(&self) -> Option<SimDuration> {
        if self.samples == 0 {
            None
        } else {
            Some(SimDuration::from_nanos(self.srtt + 4 * self.rttvar))
        }
    }

    /// Samples absorbed so far.
    #[cfg(test)]
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

/// The adaptive retransmission timeout for a timer (re)arm: the RTT
/// estimator's RTO (falling back to the configured fixed timeout before
/// any sample) scaled by `backoff^attempt`, clamped to
/// `[RETRANSMIT_MIN, retransmit_timeout]`, with deterministic jitter on
/// top. `None` with adaptive retransmission off: the caller then uses the
/// fixed timeout, and no backoff decision was made.
pub(crate) fn retrans_timeout(
    cfg: &OpenMxConfig,
    rtt: &RttEstimator,
    rng: &mut SimRng,
    attempt: u32,
) -> Option<SimDuration> {
    if !cfg.adaptive_retransmit {
        return None;
    }
    let cfg_max = cfg.retransmit_timeout;
    let mut scaled = rtt.rto().unwrap_or(cfg_max).as_nanos() as f64;
    // A first arm scales by `backoff^0 == 1.0`, and `x * 1.0 == x`.
    if attempt > 0 {
        scaled *= RETRANSMIT_BACKOFF.powi(attempt.min(16) as i32);
    }
    let clamped = (scaled.min(cfg_max.as_nanos() as f64) as u64).max(RETRANSMIT_MIN.as_nanos());
    let jitter = 1.0 + cfg.retransmit_jitter * rng.unit_f64();
    Some(SimDuration::from_nanos((clamped as f64 * jitter) as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_samples_no_rto() {
        assert!(RttEstimator::default().rto().is_none());
    }

    #[test]
    fn first_sample_sets_rto_to_three_rtts() {
        let mut e = RttEstimator::default();
        e.observe(SimDuration::from_micros(100));
        // srtt = 100 us, rttvar = 50 us -> rto = 100 + 200 = 300 us.
        assert_eq!(e.rto(), Some(SimDuration::from_micros(300)));
    }

    #[test]
    fn steady_samples_converge_toward_srtt() {
        let mut e = RttEstimator::default();
        for _ in 0..200 {
            e.observe(SimDuration::from_micros(100));
        }
        let rto = e.rto().unwrap();
        // Variance decays toward zero; rto approaches srtt (integer decay
        // stalls a little above the fixed point).
        assert!(rto >= SimDuration::from_micros(100));
        assert!(rto < SimDuration::from_micros(130), "rto = {rto}");
        assert_eq!(e.samples(), 200);
    }

    #[test]
    fn outlier_inflates_variance() {
        let mut e = RttEstimator::default();
        for _ in 0..50 {
            e.observe(SimDuration::from_micros(100));
        }
        let before = e.rto().unwrap();
        e.observe(SimDuration::from_micros(1000));
        assert!(e.rto().unwrap() > before);
    }
}
