//! The NAS Parallel Benchmarks IS (Integer Sort) communication kernel.
//!
//! NPB IS is the large-message-intensive benchmark of the paper's Table 2
//! (`is.C.4`: class C, 4 processes). Each iteration of the real code does:
//!
//! 1. local key generation / bucket counting (compute),
//! 2. an `MPI_Allreduce` of the bucket histograms (small message),
//! 3. an `MPI_Alltoallv` redistributing the keys (large messages),
//! 4. local ranking of the received keys (compute).
//!
//! We reproduce that communication skeleton with the same message-size
//! *structure*. Class C is 2^27 keys over 4 ranks (512 MiB of key data);
//! the simulated frame pool holds 256 MiB/node, so the default scale-down
//! keeps per-peer alltoallv messages deep in rendezvous territory (≥ 4 MiB)
//! while fitting comfortably — the pinning behaviour under study depends
//! on messages being large, not on the absolute key count (see DESIGN.md).

use simcore::{Bandwidth, SimDuration};

use crate::collectives::JobBuilder;
use crate::script::Script;

/// IS kernel parameters.
#[derive(Clone, Copy, Debug)]
pub struct IsConfig {
    /// Number of ranks (NPB `is.C.4` uses 4).
    pub ranks: usize,
    /// Keys per rank (4 bytes each). Class C would be `2^27 / ranks`.
    pub keys_per_rank: u64,
    /// Number of sort iterations (NPB class C does 10).
    pub iterations: u32,
    /// Local key-processing rate (keys/second) for the compute phases.
    pub keys_per_sec: f64,
}

impl IsConfig {
    /// A scaled-down `is.C.4`: 4 ranks, 2^22 keys/rank (16 MiB of keys
    /// each, 4 MiB per peer per alltoallv), 10 iterations.
    pub fn c4_scaled() -> Self {
        IsConfig {
            ranks: 4,
            keys_per_rank: 1 << 22,
            iterations: 10,
            keys_per_sec: 250e6,
        }
    }

    /// Bytes of keys each rank holds.
    pub fn bytes_per_rank(&self) -> u64 {
        self.keys_per_rank * 4
    }

    /// Bytes sent to each peer in the alltoallv (uniform distribution).
    pub fn bytes_per_peer(&self) -> u64 {
        self.bytes_per_rank() / self.ranks as u64
    }
}

/// Build the per-rank IS scripts. Returns `(scripts, timed_mark)` where
/// `timed_mark` is the step index after the warmup iteration.
pub fn is_job(cfg: &IsConfig) -> (Vec<Script>, usize) {
    let n = cfg.ranks;
    let mut b = JobBuilder::new(n);
    b.reduce_bw = Bandwidth::from_gb_per_sec(2.0);

    let keys = b.alloc(cfg.bytes_per_rank() + 4096, |r| Some(r as u8));
    let recv_keys = b.alloc(cfg.bytes_per_rank() + 4096, |_| None);
    // 1024 buckets x 8 bytes: the small allreduce.
    let hist = b.alloc(8 * 1024, |_| Some(0x33));
    let hist_scratch = b.alloc(8 * 1024, |_| None);

    let count_time = SimDuration::from_secs_f64(cfg.keys_per_rank as f64 / cfg.keys_per_sec);
    let rank_time = SimDuration::from_secs_f64(1.5 * cfg.keys_per_rank as f64 / cfg.keys_per_sec);
    let counts = vec![cfg.bytes_per_peer(); n];

    let one_iteration = |b: &mut JobBuilder| {
        b.compute_all(count_time);
        b.allreduce(hist, hist_scratch, 8 * 1024);
        b.alltoallv(keys, recv_keys, &counts);
        b.compute_all(rank_time);
    };

    // One untimed warmup iteration, then the timed ones (NPB itself times
    // all iterations after an untimed warm-up pass).
    one_iteration(&mut b);
    b.barrier();
    let mark = b.mark();
    for _ in 0..cfg.iterations {
        one_iteration(&mut b);
    }
    (b.scripts, mark)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imb::{run_job, summarize};
    use openmx_core::{Counter, OpenMxConfig, PinningMode};

    #[test]
    fn is_scaled_config_sizes() {
        let c = IsConfig::c4_scaled();
        assert_eq!(c.bytes_per_rank(), 16 << 20);
        assert_eq!(c.bytes_per_peer(), 4 << 20);
        assert!(
            c.bytes_per_peer() >= 32 * 1024,
            "must stay rendezvous-sized"
        );
    }

    #[test]
    fn is_kernel_runs_on_two_nodes() {
        let mut c = IsConfig::c4_scaled();
        c.keys_per_rank = 1 << 20; // lighter for the unit test
        c.iterations = 2;
        let (scripts, mark) = is_job(&c);
        assert_eq!(scripts.len(), 4);
        let cfg = OpenMxConfig::with_mode(PinningMode::Cached);
        let (cl, records) = run_job(&cfg, 2, 2, scripts);
        let res = summarize(&records, mark, c.iterations);
        assert!(res.avg_iter > SimDuration::ZERO);
        assert_eq!(cl.counters().get(Counter::RequestsFailed), 0);
        // The alltoallv must have used the rendezvous path.
        assert!(cl.counters().get(Counter::RndvMsgsTx) > 0);
        // ...and the intra-node pairs the shm path.
        assert!(cl.counters().get(Counter::ShmMsgsTx) > 0);
    }
}
