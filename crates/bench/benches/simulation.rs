//! Benchmarks of whole-simulation wall time: how fast the engine replays
//! the paper's workloads. One benchmark per regenerated artifact.

use std::time::Duration;

use openmx_bench::microbench::{black_box, Bench};
use openmx_core::{OpenMxConfig, PinningMode};
use openmx_mpi::{imb_job, is_job, run_job, summarize, ImbKernel, IsConfig};

/// Fig. 6/7 unit of work: one pingpong measurement at 1 MiB.
fn bench_pingpong(b: &Bench) {
    for mode in [PinningMode::PinPerComm, PinningMode::OverlappedCached] {
        b.bench(&format!("sim_pingpong_1MiB/{}", mode.label()), || {
            let cfg = OpenMxConfig::with_mode(mode);
            let (scripts, mark) = imb_job(ImbKernel::PingPong, 2, 1 << 20, 1, 8);
            let (_cl, records) = run_job(&cfg, 2, 1, scripts);
            black_box(summarize(&records, mark, 8).avg_iter)
        });
    }
}

/// Table 2 unit of work: one IMB SendRecv sweep point.
fn bench_sendrecv(b: &Bench) {
    b.bench("sim_imb_sendrecv_512KiB/cached", || {
        let cfg = OpenMxConfig::with_mode(PinningMode::Cached);
        let (scripts, mark) = imb_job(ImbKernel::SendRecv, 2, 512 * 1024, 1, 8);
        let (_cl, records) = run_job(&cfg, 2, 1, scripts);
        black_box(summarize(&records, mark, 8).avg_iter)
    });
}

/// The eager path: a 4 KiB SendRecv ring of 4 ranks on 2 nodes over a
/// fabric that loses 1% of frames, so retransmissions run too.
fn bench_sendrecv_eager_lossy(b: &Bench) {
    b.bench("sim_imb_sendrecv_4KiB_lossy", || {
        let mut cfg = OpenMxConfig::with_mode(PinningMode::OverlappedCached);
        cfg.net.loss_probability = 0.01;
        let (scripts, mark) = imb_job(ImbKernel::SendRecv, 4, 4 << 10, 2, 1000);
        let (_cl, records) = run_job(&cfg, 2, 2, scripts);
        black_box(summarize(&records, mark, 1000).avg_iter)
    });
}

/// Table 2's NPB IS row: one scaled-down iteration pair.
fn bench_is(b: &Bench) {
    b.bench("sim_npb_is/is_2iter_4ranks", || {
        let cfg = OpenMxConfig::with_mode(PinningMode::OverlappedCached);
        let mut is = IsConfig::c4_scaled();
        is.keys_per_rank = 1 << 20;
        is.iterations = 2;
        let (scripts, mark) = is_job(&is);
        let (_cl, records) = run_job(&cfg, 2, 2, scripts);
        black_box(summarize(&records, mark, 2).avg_iter)
    });
}

fn main() {
    let b = Bench::new()
        .samples(5)
        .sample_window(Duration::from_millis(200));
    bench_pingpong(&b);
    bench_sendrecv(&b);
    bench_sendrecv_eager_lossy(&b);
    bench_is(&b);
}
