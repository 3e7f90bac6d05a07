//! Table 2 — execution-time improvement brought by the pinning cache and
//! by overlapped pinning on IMB kernels and NPB is.C.4, between 2 nodes.
//!
//! Methodology: each benchmark runs three times — `pin-per-comm`
//! (baseline "regular pinning"), `cache`, and `overlapped` — and the
//! improvement is `(t_base - t_mode) / t_base`, like the paper's table.
//! IMB kernels sweep the large-message sizes that dominate the
//! benchmark's execution time; NPB IS runs the scaled class-C/4-process
//! integer-sort kernel (see DESIGN.md for the scaling note).
//!
//! Run: `cargo run --release -p openmx-bench --bin table2`

use openmx_bench::paper::TABLE2;
use openmx_bench::sweep::parallel_map;
use openmx_bench::table::Table;
use openmx_core::{Counter, OpenMxConfig, PinningMode};
use openmx_mpi::{imb_job, is_job, run_job, summarize, ImbKernel, IsConfig};
use simcore::SimDuration;

/// One benchmark run's timed duration plus its pin/overlap observability.
struct BenchRun {
    total: SimDuration,
    pin_p50_us: f64,
    pin_bursts: u64,
    overlap_misses: u64,
}

fn observe(cl: &openmx_core::Cluster) -> (f64, u64, u64) {
    let pin = &cl.metrics().pin_latency;
    let p50 = if pin.count() == 0 {
        0.0
    } else {
        pin.quantile(0.5).as_micros_f64()
    };
    let c = cl.counters();
    (
        p50,
        pin.count(),
        c.get(Counter::OverlapMissRx) + c.get(Counter::OverlapMissTx),
    )
}

/// Total timed duration of one IMB kernel's large-message sweep.
fn imb_total(mode: PinningMode, kernel: ImbKernel) -> BenchRun {
    let cfg = OpenMxConfig::with_mode(mode);
    let mut total = SimDuration::ZERO;
    let mut pin = openmx_core::Metrics::new();
    let mut misses = 0;
    for msg in [256 * 1024u64, 512 * 1024, 1 << 20, 2 << 20] {
        let iters = 12;
        let (scripts, mark) = imb_job(kernel, 2, msg, 2, iters);
        let (cl, records) = run_job(&cfg, 2, 1, scripts);
        let res = summarize(&records, mark, iters);
        total += res.avg_iter * iters as u64;
        pin.merge(cl.metrics());
        let (_, _, m) = observe(&cl);
        misses += m;
    }
    let p50 = if pin.pin_latency.count() == 0 {
        0.0
    } else {
        pin.pin_latency.quantile(0.5).as_micros_f64()
    };
    BenchRun {
        total,
        pin_p50_us: p50,
        pin_bursts: pin.pin_latency.count(),
        overlap_misses: misses,
    }
}

/// Total timed duration of the NPB IS kernel (4 ranks on 2 nodes).
fn is_total(mode: PinningMode) -> BenchRun {
    let cfg = OpenMxConfig::with_mode(mode);
    let is = IsConfig::c4_scaled();
    let (scripts, mark) = is_job(&is);
    let (cl, records) = run_job(&cfg, 2, 2, scripts);
    let res = summarize(&records, mark, is.iterations);
    let (pin_p50_us, pin_bursts, overlap_misses) = observe(&cl);
    BenchRun {
        total: res.avg_iter * is.iterations as u64,
        pin_p50_us,
        pin_bursts,
        overlap_misses,
    }
}

fn main() {
    let benches: Vec<(&str, Option<ImbKernel>)> = vec![
        ("IMB SendRecv", Some(ImbKernel::SendRecv)),
        ("IMB Allgatherv", Some(ImbKernel::Allgatherv)),
        ("IMB Broadcast", Some(ImbKernel::Bcast)),
        ("IMB Reduce", Some(ImbKernel::Reduce)),
        ("IMB Allreduce", Some(ImbKernel::Allreduce)),
        ("IMB Reduce_scatter", Some(ImbKernel::ReduceScatter)),
        ("IMB Exchange", Some(ImbKernel::Exchange)),
        ("NPB is.C.4", None),
    ];
    let modes = [
        PinningMode::PinPerComm,
        PinningMode::Cached,
        PinningMode::Overlapped,
    ];
    let jobs: Vec<(usize, PinningMode)> = (0..benches.len())
        .flat_map(|b| modes.iter().map(move |&m| (b, m)))
        .collect();
    let times = parallel_map(jobs.clone(), |(b, mode)| match benches[b].1 {
        Some(kernel) => imb_total(mode, kernel),
        None => is_total(mode),
    });

    let mut t = Table::new(
        "Table 2 — execution-time improvement vs regular pinning (2 nodes)",
        &[
            "Application",
            "cache %",
            "cache % (paper)",
            "overlap %",
            "overlap % (paper)",
        ],
    );
    for (b, (name, _)) in benches.iter().enumerate() {
        let base = times[b * 3].total.as_secs_f64();
        let cache = times[b * 3 + 1].total.as_secs_f64();
        let overlap = times[b * 3 + 2].total.as_secs_f64();
        let cache_pct = 100.0 * (base - cache) / base;
        let overlap_pct = 100.0 * (base - overlap) / base;
        let paper = TABLE2[b];
        assert_eq!(paper.name, *name);
        t.row(vec![
            name.to_string(),
            format!("{cache_pct:.1}"),
            format!("{:.1}", paper.cache_pct),
            format!("{overlap_pct:.1}"),
            format!("{:.1}", paper.overlap_pct),
        ]);
    }
    t.emit(Some("table2.csv"));

    let mut obs = Table::new(
        "observability — overlapped-mode pin latency and overlap misses per benchmark",
        &["Application", "pin p50 µs", "pin bursts", "overlap misses"],
    );
    for (b, (name, _)) in benches.iter().enumerate() {
        let r = &times[b * 3 + 2];
        obs.row(vec![
            name.to_string(),
            format!("{:.1}", r.pin_p50_us),
            format!("{}", r.pin_bursts),
            format!("{}", r.overlap_misses),
        ]);
    }
    obs.emit(None);
    println!(
        "expected shape (paper §4.4): the cache helps whenever buffers are\n\
         reused (most kernels); overlap helps less for collectives that already\n\
         overlap their constituent communications, and can go slightly negative."
    );
}
