//! Deterministic randomness for the simulator.
//!
//! Every stochastic decision in the workspace (packet loss, payload
//! patterns, arrival jitter) draws from a [`SimRng`] seeded explicitly, so
//! a whole experiment is reproducible from `(config, seed)`.

/// A seedable RNG with the handful of draw shapes the simulation needs.
///
/// The core is an in-tree xoshiro256** generator seeded through SplitMix64,
/// so the workspace has no external dependency and the byte-for-byte output
/// is stable forever. The value of this type is the narrowed, documented
/// interface and the `derive_stream` mechanism that gives each component an
/// independent, reproducible stream.
pub struct SimRng {
    state: [u64; 4],
    seed: u64,
}

/// SplitMix64 step; used only to expand a 64-bit seed into xoshiro state.
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create an RNG from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        let state = [
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
        ];
        SimRng { state, seed }
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent child stream for a named component. The same
    /// `(seed, label)` pair always yields the same stream, so adding a new
    /// consumer never perturbs existing ones — unlike sharing one stream.
    pub fn derive_stream(&self, label: &str) -> SimRng {
        // FNV-1a over the label, folded into the parent seed.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        SimRng::new(self.seed ^ h)
    }

    /// A raw 64-bit draw (xoshiro256** output function).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s1 << 17;
        let mut n2 = s2 ^ s0;
        let mut n3 = s3 ^ s1;
        let n1 = s1 ^ n2;
        let n0 = s0 ^ n3;
        n2 ^= t;
        n3 = n3.rotate_left(45);
        self.state = [n0, n1, n2, n3];
        result
    }

    /// Uniform draw in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        // Rejection sampling over the widest multiple of `n`, so the draw
        // is exactly uniform rather than merely modulo-reduced.
        let zone = u64::MAX - (u64::MAX - n + 1) % n;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % n;
            }
        }
    }

    /// Uniform draw in the inclusive range `[lo, hi]`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli draw: true with probability `p`.
    ///
    /// # Panics
    /// Panics unless `0.0 <= p <= 1.0`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if !(0.0..=1.0).contains(&p) {
            invalid_probability(p);
        }
        if p == 0.0 {
            false
        } else if p == 1.0 {
            true
        } else {
            self.unit_f64() < p
        }
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        // 53 uniform mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fill a byte buffer (used to generate message payloads).
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

#[cold]
#[inline(never)]
fn invalid_probability(p: f64) -> ! {
    panic!("invalid probability {p}")
}

impl std::fmt::Debug for SimRng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SimRng(seed={:#x})", self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn derived_streams_are_stable_and_independent() {
        let root = SimRng::new(7);
        let mut n1 = root.derive_stream("net");
        let mut n2 = root.derive_stream("net");
        let mut m = root.derive_stream("mem");
        let s1: Vec<u64> = (0..8).map(|_| n1.next_u64()).collect();
        let s2: Vec<u64> = (0..8).map(|_| n2.next_u64()).collect();
        let sm: Vec<u64> = (0..8).map(|_| m.next_u64()).collect();
        assert_eq!(s1, s2);
        assert_ne!(s1, sm);
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = SimRng::new(3);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(4);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = SimRng::new(5);
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(6);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn unit_f64_in_half_open_range() {
        let mut r = SimRng::new(9);
        for _ in 0..10_000 {
            let v = r.unit_f64();
            assert!((0.0..1.0).contains(&v), "v = {v}");
        }
    }

    #[test]
    fn fill_bytes_deterministic_and_varied() {
        let mut a = SimRng::new(11);
        let mut b = SimRng::new(11);
        let mut ba = [0u8; 37];
        let mut bb = [0u8; 37];
        a.fill_bytes(&mut ba);
        b.fill_bytes(&mut bb);
        assert_eq!(ba, bb);
        // Not all bytes equal — vanishingly unlikely for a working PRNG.
        assert!(ba.iter().any(|&x| x != ba[0]));
    }
}
