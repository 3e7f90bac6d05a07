//! Virtual time: instants, durations, and byte-rate arithmetic.
//!
//! The simulation clock has nanosecond resolution stored in a `u64`, which
//! covers ~584 years of virtual time — far beyond any experiment here. All
//! arithmetic is checked in debug builds (overflow panics rather than wraps).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinite" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds since the epoch.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since the epoch.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`.
    #[inline]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("duration_since: earlier instant is in the future"),
        )
    }

    /// Saturating version of [`SimTime::duration_since`]: returns zero when
    /// `earlier` is actually later.
    #[inline]
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// Largest representable duration; used as an "infinite" sentinel.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    ///
    /// # Panics
    /// Panics on negative or non-finite input.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration: {s}");
        SimDuration((s * 1e9).round() as u64)
    }

    /// Nanoseconds in this duration.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds, as a float (for reporting).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Seconds, as a float (for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True if this duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The longer of two durations.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// The shorter of two durations.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiply by an integer count (e.g. per-page cost × pages).
    #[inline]
    pub fn times(self, n: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(n).expect("duration overflow"))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        self.times(rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", format_ns(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

/// Render nanoseconds with a human-friendly unit.
fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// A data rate in bytes per second.
///
/// Used by the link, memcpy and DMA-engine models to convert byte counts
/// into [`SimDuration`]s. Stored as `f64` because rates are model
/// parameters, not accumulating state, so float error does not compound.
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Construct from bytes per second.
    ///
    /// # Panics
    /// Panics if the rate is not strictly positive and finite.
    #[inline]
    pub fn from_bytes_per_sec(bps: f64) -> Self {
        assert!(bps.is_finite() && bps > 0.0, "invalid bandwidth: {bps}");
        Bandwidth(bps)
    }

    /// Construct from megabytes (10^6 bytes) per second.
    #[inline]
    pub fn from_mb_per_sec(mbps: f64) -> Self {
        Self::from_bytes_per_sec(mbps * 1e6)
    }

    /// Construct from gigabytes (10^9 bytes) per second.
    #[inline]
    pub fn from_gb_per_sec(gbps: f64) -> Self {
        Self::from_bytes_per_sec(gbps * 1e9)
    }

    /// Construct from mebibytes (2^20 bytes) per second — the unit the
    /// paper's throughput figures use.
    #[inline]
    pub fn from_mib_per_sec(mibps: f64) -> Self {
        Self::from_bytes_per_sec(mibps * (1u64 << 20) as f64)
    }

    /// Construct from a link speed in gigabits per second (e.g. `10.0` for
    /// 10G Ethernet).
    #[inline]
    pub fn from_gbit_per_sec(gbitps: f64) -> Self {
        Self::from_bytes_per_sec(gbitps * 1e9 / 8.0)
    }

    /// Bytes per second.
    #[inline]
    pub fn bytes_per_sec(self) -> f64 {
        self.0
    }

    /// Mebibytes per second (the paper's reporting unit).
    #[inline]
    pub fn as_mib_per_sec(self) -> f64 {
        self.0 / (1u64 << 20) as f64
    }

    /// Time to move `bytes` at this rate, rounded up to a whole nanosecond
    /// so that a nonzero transfer never takes zero time.
    #[inline]
    pub fn time_for_bytes(self, bytes: u64) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        let ns = (bytes as f64) * 1e9 / self.0;
        // `ns.ceil() as u64` without the `ceil` (a library call on baseline
        // x86-64): truncate, then add one if that dropped a fraction. Equal
        // for every `ns >= 0`, since below 2^53 the truncation is exact and
        // above it `ns` is already whole (or saturates either way).
        let whole = ns as u64;
        SimDuration::from_nanos(whole.saturating_add(u64::from((whole as f64) < ns)))
    }

    /// The rate achieved by moving `bytes` in `elapsed` time.
    ///
    /// # Panics
    /// Panics if `elapsed` is zero.
    #[inline]
    pub fn measured(bytes: u64, elapsed: SimDuration) -> Bandwidth {
        assert!(
            !elapsed.is_zero(),
            "cannot measure bandwidth over zero time"
        );
        Bandwidth::from_bytes_per_sec(bytes as f64 * 1e9 / elapsed.as_nanos() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_micros(5);
        assert_eq!(t1.as_nanos(), 5_000);
        assert_eq!(t1 - t0, SimDuration::from_micros(5));
        assert_eq!(t1.duration_since(t0).as_micros_f64(), 5.0);
    }

    #[test]
    fn saturating_duration_since_clamps() {
        let early = SimTime::from_nanos(10);
        let late = SimTime::from_nanos(20);
        assert_eq!(early.saturating_duration_since(late), SimDuration::ZERO);
        assert_eq!(
            late.saturating_duration_since(early),
            SimDuration::from_nanos(10)
        );
    }

    #[test]
    #[should_panic(expected = "earlier instant is in the future")]
    fn duration_since_panics_backwards() {
        let _ = SimTime::ZERO.duration_since(SimTime::from_nanos(1));
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1000));
        assert_eq!(
            SimDuration::from_secs_f64(1.5),
            SimDuration::from_millis(1500)
        );
    }

    #[test]
    fn duration_scaling() {
        let per_page = SimDuration::from_nanos(150);
        assert_eq!(per_page.times(256).as_nanos(), 38_400);
        assert_eq!((per_page * 4).as_nanos(), 600);
        assert_eq!((SimDuration::from_micros(10) / 4).as_nanos(), 2_500);
    }

    #[test]
    fn bandwidth_time_for_bytes() {
        // 10G Ethernet = 1.25 GB/s; 1250 bytes take exactly 1 us.
        let bw = Bandwidth::from_gbit_per_sec(10.0);
        assert_eq!(bw.time_for_bytes(1250), SimDuration::from_micros(1));
        assert_eq!(bw.time_for_bytes(0), SimDuration::ZERO);
        // Rounds up: 1 byte at 1.25 GB/s is 0.8 ns -> 1 ns.
        assert_eq!(bw.time_for_bytes(1), SimDuration::from_nanos(1));
    }

    #[test]
    fn time_for_bytes_rounds_up_like_ceil() {
        let mut rng = crate::SimRng::new(26);
        for bps in [1.0, 3.0, 0.9e9, 1.25e9, 2.5e9 / 3.0, 1e-3, 1e300] {
            let bw = Bandwidth::from_bytes_per_sec(bps);
            let sizes =
                (0..2000)
                    .map(|_| rng.below(1 << 24))
                    .chain([0, 1, 9018, 1 << 40, u64::MAX]);
            for bytes in sizes {
                let want = if bytes == 0 {
                    0
                } else {
                    ((bytes as f64) * 1e9 / bps).ceil() as u64
                };
                let got = bw.time_for_bytes(bytes);
                assert_eq!(got.as_nanos(), want, "{bytes} bytes at {bps} B/s");
            }
        }
    }

    #[test]
    fn bandwidth_units() {
        let bw = Bandwidth::from_mib_per_sec(1000.0);
        assert!((bw.as_mib_per_sec() - 1000.0).abs() < 1e-9);
        let gb = Bandwidth::from_gb_per_sec(26.5);
        assert!((gb.bytes_per_sec() - 26.5e9).abs() < 1.0);
    }

    #[test]
    fn bandwidth_measured() {
        let bw = Bandwidth::measured(1_000_000, SimDuration::from_millis(1));
        assert!((bw.bytes_per_sec() - 1e9).abs() < 1.0);
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(17)), "17ns");
        assert_eq!(format!("{}", SimDuration::from_micros(2)), "2.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(3)), "3.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(4)), "4.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_micros).sum();
        assert_eq!(total, SimDuration::from_micros(10));
    }
}
