//! Benchmarks of whole-simulation wall time: how fast the engine replays
//! the paper's workloads. One benchmark per regenerated artifact.

use std::time::Duration;

use openmx_bench::microbench::{black_box, Bench};
use openmx_core::{OpenMxConfig, PinningMode, ProcId};
use openmx_mpi::{imb_job, is_job, run_job, summarize, ImbKernel, IsConfig, JobBuilder};

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

/// The MMU-notifier path: two 256 KiB buffers freed and re-malloced on
/// every rank before each round trip, so every iteration runs munmap →
/// notifier → deferred unpin → repin and lands fresh zero pages.
fn bench_realloc_churn(b: &Bench) {
    const LEN: u64 = 256 << 10;
    const ITERS: u32 = 300;
    b.bench("sim_realloc_churn_256KiB", || {
        let cfg = OpenMxConfig::with_mode(PinningMode::OverlappedCached);
        let mut job = JobBuilder::new(2);
        let a = job.alloc(LEN, |r| Some(r as u8));
        let bb = job.alloc(LEN, |r| Some(0x40 | r as u8));
        job.pingpong(a, bb, LEN);
        job.barrier();
        let mark = job.mark();
        for _ in 0..ITERS {
            job.realloc_all(a);
            job.realloc_all(bb);
            job.pingpong(a, bb, LEN);
        }
        let (mut cl, records) = run_job(&cfg, 2, 1, job.scripts);
        // Rank 1 receives buffer `a` from rank 0, rank 0 buffer `bb`
        // from rank 1: a stale pin would still hold the salted bytes.
        for (buf, from, to) in [(a, 0, 1), (bb, 1, 0)] {
            let want = cl.read_proc(ProcId(from), records[from as usize].buffer_addrs[buf], LEN);
            let got = cl.read_proc(ProcId(to), records[to as usize].buffer_addrs[buf], LEN);
            assert!(got == want, "buffer {buf} differs on rank {to}");
        }
        let deferred: u64 = (0..2).map(|n| cl.driver(n).stats().notifier_deferred).sum();
        assert!(deferred >= u64::from(ITERS), "{deferred} deferred unpins");
        black_box(summarize(&records, mark, ITERS).avg_iter)
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
    bench_realloc_churn(&b);
    bench_is(&b);
}
