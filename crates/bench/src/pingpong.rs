//! The IMB PingPong throughput runner behind Figures 6 and 7, and the
//! one-way send step the other scripted workloads are built from.

use openmx_core::{Cluster, Counter, CpuProfile, Metrics, OpenMxConfig, PinningMode};
use openmx_mpi::collectives::JobBuilder;
use openmx_mpi::{imb_job, run_job, summarize, ImbKernel, Op};
use simcore::Bandwidth;

/// One measured point of a pingpong curve.
#[derive(Clone, Copy, Debug)]
pub struct PingPongPoint {
    /// Message size in bytes.
    pub msg: u64,
    /// Throughput in MiB/s, IMB-style (message bytes / half round trip).
    pub mib_per_sec: f64,
    /// Overlap misses observed during the run (both sides).
    pub overlap_misses: u64,
    /// Pin-latency percentiles over the run's pin bursts, in µs
    /// (0 when the mode never pinned, e.g. permanent after warmup).
    pub pin_p50_us: f64,
    /// 95th percentile pin latency, µs.
    pub pin_p95_us: f64,
    /// 99th percentile pin latency, µs.
    pub pin_p99_us: f64,
    /// Pin bursts the percentiles are over.
    pub pin_bursts: u64,
}

/// Run an IMB PingPong at one message size and return its throughput.
pub fn pingpong_throughput(cfg: &OpenMxConfig, msg: u64) -> PingPongPoint {
    // Iteration counts shrink with size, as IMB does.
    let iters = (64u32).min(((256u64 << 20) / msg.max(1)) as u32).max(4);
    let warmup = 2;
    let (scripts, mark) = imb_job(ImbKernel::PingPong, 2, msg, warmup, iters);
    let (cl, records) = run_job(cfg, 2, 1, scripts);
    let res = summarize(&records, mark, iters);
    // IMB PingPong reports t = half the round trip; throughput = msg / t.
    let half = res.avg_iter / 2;
    let bw = Bandwidth::measured(msg, half);
    let m = cl.metrics();
    PingPongPoint {
        msg,
        mib_per_sec: bw.as_mib_per_sec(),
        overlap_misses: overlap_misses(&cl),
        pin_p50_us: pin_quantile_us(m, 0.50),
        pin_p95_us: pin_quantile_us(m, 0.95),
        pin_p99_us: pin_quantile_us(m, 0.99),
        pin_bursts: m.pin_latency.count(),
    }
}

/// Pin-latency quantile `q` in µs, or 0 when the run never pinned.
pub fn pin_quantile_us(m: &Metrics, q: f64) -> f64 {
    if m.pin_latency.count() == 0 {
        0.0
    } else {
        m.pin_latency.quantile(q).as_micros_f64()
    }
}

/// Overlap misses on both sides of every transfer of the run.
pub fn overlap_misses(cl: &Cluster) -> u64 {
    let c = cl.counters();
    c.get(Counter::OverlapMissRx) + c.get(Counter::OverlapMissTx)
}

/// Append one step in which rank `tx` sends `len` bytes of buffer `sbuf`
/// to rank `rx`, which receives them into `rbuf`; other ranks idle.
pub fn send_step(b: &mut JobBuilder, (tx, rx): (usize, usize), sbuf: usize, rbuf: usize, len: u64) {
    let tag = b.tag();
    b.step_all(|r| match r {
        _ if r == tx => vec![Op::Send {
            to: rx,
            tag,
            buf: sbuf,
            offset: 0,
            len,
        }],
        _ if r == rx => vec![Op::Recv {
            from: tx,
            tag,
            buf: rbuf,
            offset: 0,
            len,
        }],
        _ => vec![],
    });
}

/// The message-size axis of Figs. 6–7: 64 kB to 16 MB, doubling.
pub fn figure_sizes() -> Vec<u64> {
    (0..9).map(|i| (64 * 1024) << i).collect()
}

/// Convenience: the paper's platform config with a mode and I/OAT flag.
pub fn paper_cfg(mode: PinningMode, ioat: bool) -> OpenMxConfig {
    let mut cfg = OpenMxConfig::with_mode(mode);
    cfg.use_ioat = ioat;
    cfg.profile = CpuProfile::xeon_e5460();
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_axis_matches_figures() {
        let s = figure_sizes();
        assert_eq!(s.first(), Some(&(64 * 1024)));
        assert_eq!(s.last(), Some(&(16 << 20)));
        assert_eq!(s.len(), 9);
    }

    #[test]
    fn throughput_is_sane_at_one_megabyte() {
        let p = pingpong_throughput(&paper_cfg(PinningMode::Permanent, false), 1 << 20);
        assert!(
            (700.0..1200.0).contains(&p.mib_per_sec),
            "got {}",
            p.mib_per_sec
        );
        assert_eq!(p.overlap_misses, 0, "permanent mode cannot miss");
    }
}
