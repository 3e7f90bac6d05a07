//! The paper's evaluation: Table 1 (§4.1), Figs. 6/7 and Table 2
//! (§4.2), the §4.3 overload collapse, and `core`, the one-file
//! virtual-clock baseline CI gates byte for byte.

use openmx_core::region::{DriverRegion, Segment};
use openmx_core::{Counter, CpuProfile, Metrics, OpenMxConfig, PinningMode};
use openmx_mpi::collectives::JobBuilder;
use openmx_mpi::{imb_job, is_job, run_imb, run_job, summarize, ImbKernel, IsConfig, Op, Step};
use simcore::{linear_fit, Bandwidth, SimDuration};
use simmem::{Memory, Prot, PAGE_SIZE};

use crate::cli::Args;
use crate::paper::{
    DEGRADATION_FAST_PCT, FIG6_ANCHORS, FIG7_ANCHORS, OVERLAP_MISS_RATE_BOUND,
    OVERLOAD_COLLAPSE_MBPS, TABLE1, TABLE2,
};
use crate::pingpong::{
    figure_sizes, overlap_misses, paper_cfg, pin_quantile_us, pingpong_throughput, send_step,
    PingPongPoint,
};
use crate::scenario::driver::batch_pin_calls;
use crate::sweep::parallel_map;
use crate::table::{fmt_size, Baseline, Table};

/// The paper's microbenchmark: pin+unpin `pages` once, return µs of
/// simulated CPU time, actually exercising the pin path.
fn micro_pin_unpin_us(profile: &CpuProfile, pages: u64) -> f64 {
    let mut mem = Memory::new((pages + 16) as usize, 0);
    let space = mem.create_space();
    let addr = mem.mmap(space, pages * PAGE_SIZE, Prot::ReadWrite).unwrap();
    let mut region = DriverRegion::new(
        space,
        &[Segment {
            addr,
            len: pages * PAGE_SIZE,
        }],
    );
    let mut elapsed = SimDuration::ZERO;
    let mut first = true;
    loop {
        let p = region.pin_next_chunk(&mut mem, 32).unwrap();
        elapsed += profile.pin_cost(p.pages_pinned, first);
        first = false;
        if p.complete {
            break;
        }
    }
    let released = region.unpin_all(&mut mem);
    assert_eq!(released, pages);
    elapsed += profile.unpin_cost(pages);
    elapsed.as_micros_f64()
}

fn iter_time_us(profile: &CpuProfile, mode: PinningMode, msg: u64) -> (f64, Metrics) {
    let mut cfg = OpenMxConfig::with_mode(mode);
    cfg.profile = profile.clone();
    let iters = 24;
    let (scripts, mark) = imb_job(ImbKernel::PingPong, 2, msg, 4, iters);
    let (cl, records) = run_job(&cfg, 2, 1, scripts);
    (
        summarize(&records, mark, iters).avg_iter.as_micros_f64(),
        cl.metrics().clone(),
    )
}

/// Table 1 — base and per-page overhead of Open-MX pinning+unpinning,
/// and the corresponding pinning throughput, for all four hosts.
///
/// Two methodologies:
///
/// 1. **Microbenchmark** (the paper's): pin+unpin a region in a tight
///    loop on one simulated core, sweep the page count, least-squares fit
///    `base + pages · per_page`. The pins are really performed against the
///    memory substrate; the virtual clock is charged by the host profile.
/// 2. **End-to-end**: run IMB PingPong under `pin-per-comm` vs `permanent`
///    pinning and fit the per-iteration time difference (4 pin+unpin
///    cycles per iteration). This shows how much of the microbenchmark
///    cost actually lands on the communication critical path (~80–85%:
///    part of the unpin work hides behind the wire).
///
/// Run: `cargo run --release -p openmx-bench -- table1`
pub(crate) fn table1(_: &Args) -> Result<(), String> {
    let sizes: Vec<u64> = vec![128 * 1024, 512 * 1024, 2 << 20, 8 << 20];
    let mut out = Table::new(
        "Table 1 — Open-MX pin+unpin overhead: microbench & end-to-end vs paper",
        &[
            "Processor",
            "GHz",
            "base µs",
            "(paper)",
            "ns/page",
            "(paper)",
            "GB/s",
            "(paper)",
            "e2e base µs",
            "e2e ns/page",
        ],
    );

    for (profile, paper) in CpuProfile::table1_hosts().iter().zip(TABLE1) {
        // --- microbenchmark fit (the paper's Table 1 methodology) ---
        let micro: Vec<(f64, f64)> = [16u64, 64, 256, 1024, 4096]
            .iter()
            .map(|&p| (p as f64, micro_pin_unpin_us(profile, p)))
            .collect();
        let (m_base, m_per_page_us) = linear_fit(&micro);
        let m_ns_page = m_per_page_us * 1e3;
        let m_gbps = PAGE_SIZE as f64 / m_ns_page;

        // --- end-to-end fit through IMB PingPong ---
        let jobs: Vec<(u64, PinningMode)> = sizes
            .iter()
            .flat_map(|&s| [(s, PinningMode::PinPerComm), (s, PinningMode::Permanent)])
            .collect();
        let results = parallel_map(jobs, |(msg, mode)| iter_time_us(profile, mode, msg));
        let mut points = Vec::new();
        let mut pin_metrics = Metrics::new();
        for (i, &msg) in sizes.iter().enumerate() {
            let pages = (msg / PAGE_SIZE) as f64;
            // 4 pin+unpin cycles per pingpong iteration; permanent mode
            // pays a cache lookup per op that pin-per-comm does not.
            let lookup_us = 4.0 * profile.cache_lookup.as_nanos() as f64 / 1e3;
            let diff = (results[2 * i].0 - results[2 * i + 1].0 + lookup_us) / 4.0;
            points.push((pages, diff));
            pin_metrics.merge(&results[2 * i].1);
        }
        let (e_base, e_per_page_us) = linear_fit(&points);
        println!(
            "{}: pin-per-comm runs: {}",
            profile.name,
            pin_metrics.pin_latency_summary()
        );

        out.row(vec![
            profile.name.to_string(),
            format!("{:.2}", profile.ghz),
            format!("{m_base:.1}"),
            format!("{:.1}", paper.base_us),
            format!("{m_ns_page:.0}"),
            format!("{:.0}", paper.ns_per_page),
            format!("{m_gbps:.1}"),
            format!("{:.1}", paper.gb_per_sec),
            format!("{e_base:.1}"),
            format!("{:.0}", e_per_page_us * 1e3),
        ]);
    }
    out.emit("table1.csv")?;
    println!(
        "microbench columns reproduce the paper's tight-loop methodology;\n\
         the e2e columns show the share visible on the pingpong critical path\n\
         (part of the unpin cost hides behind the wire, so e2e < microbench)."
    );
    Ok(())
}

/// One curve of Fig. 6 or 7: its label, pinning mode and I/OAT flag.
type Series = (&'static str, PinningMode, bool);

/// Every series over the figures' size axis, one simulation per point
/// in parallel; returns the points by series, then by size.
fn sweep_series(series: &[Series]) -> Vec<Vec<PingPongPoint>> {
    let sizes = figure_sizes();
    let jobs: Vec<(usize, u64)> = (0..series.len())
        .flat_map(|si| sizes.iter().map(move |&m| (si, m)))
        .collect();
    let points = parallel_map(jobs, |(si, msg)| {
        let (_, mode, ioat) = series[si];
        pingpong_throughput(&paper_cfg(mode, ioat), msg)
    });
    points.chunks(sizes.len()).map(<[_]>::to_vec).collect()
}

/// The figure itself: MiB/s per size (rows) and series (columns).
fn figure_table(title: &str, series: &[Series], by_series: &[Vec<PingPongPoint>]) -> Table {
    let mut headers = vec!["size"];
    headers.extend(series.iter().map(|s| s.0));
    let mut t = Table::new(title, &headers);
    for (i, &msg) in figure_sizes().iter().enumerate() {
        let mut row = vec![fmt_size(msg)];
        row.extend(by_series.iter().map(|s| format!("{:.0}", s[i].mib_per_sec)));
        t.row(row);
    }
    t
}

/// Measured vs the values read off the published figure.
fn anchors_table(
    series: &[Series],
    by_series: &[Vec<PingPongPoint>],
    anchors: &[(u64, f64, f64, f64, f64)],
) -> Table {
    let sizes = figure_sizes();
    let mut cmp = Table::new(
        "vs paper anchors (MiB/s, read off the published figure)",
        &["size", "series", "measured", "paper"],
    );
    for &(msg, a, b, c, d) in anchors {
        let idx = sizes.iter().position(|&s| s == msg).expect("anchor size");
        for (si, paper_v) in [a, b, c, d].into_iter().enumerate() {
            cmp.row(vec![
                fmt_size(msg),
                series[si].0.to_string(),
                format!("{:.0}", by_series[si][idx].mib_per_sec),
                format!("{paper_v:.0}"),
            ]);
        }
    }
    cmp
}

fn sweep_misses(points: &[PingPongPoint]) -> u64 {
    points.iter().map(|p| p.overlap_misses).sum()
}

/// Figure 6 — IMB PingPong throughput on Open-MX, 64 kB–16 MB, comparing
/// pin-once-per-communication against permanent pinning, with and without
/// I/OAT copy offload.
///
/// Run: `cargo run --release -p openmx-bench -- fig6`
pub(crate) fn fig6(_: &Args) -> Result<(), String> {
    let series = [
        ("pin-per-comm", PinningMode::PinPerComm, false),
        ("permanent", PinningMode::Permanent, false),
        ("pin-per-comm + I/OAT", PinningMode::PinPerComm, true),
        ("permanent + I/OAT", PinningMode::Permanent, true),
    ];
    let by_series = sweep_series(&series);
    figure_table(
        "Figure 6 — IMB PingPong throughput (MiB/s), Xeon E5460 + Myri-10G",
        &series,
        &by_series,
    )
    .emit("fig6.csv")?;

    // Observability: what the pin path actually cost per series at 16 MiB.
    let last = figure_sizes().len() - 1;
    let mut lat = Table::new(
        "pin latency at 16 MiB (per pin burst) and overlap misses across the sweep",
        &[
            "series",
            "p50 µs",
            "p95 µs",
            "p99 µs",
            "bursts",
            "overlap misses",
        ],
    );
    for ((name, _, _), points) in series.iter().zip(&by_series) {
        let p = &points[last];
        lat.row(vec![
            name.to_string(),
            format!("{:.1}", p.pin_p50_us),
            format!("{:.1}", p.pin_p95_us),
            format!("{:.1}", p.pin_p99_us),
            format!("{}", p.pin_bursts),
            format!("{}", sweep_misses(points)),
        ]);
    }
    lat.print();

    // Headline comparisons with the paper.
    let deg = |a: usize, b: usize| {
        100.0 * (1.0 - by_series[a][last].mib_per_sec / by_series[b][last].mib_per_sec)
    };
    println!(
        "pinning degradation at 16MiB: {:.1}% (no I/OAT), {:.1}% (I/OAT); paper: ~{}% on this host",
        deg(0, 1),
        deg(2, 3),
        DEGRADATION_FAST_PCT
    );
    anchors_table(&series, &by_series, &FIG6_ANCHORS).print();

    // §4.1/§4.2's "up to 20% on slower processors": repeat the comparison
    // on the slowest Table 1 host.
    let mut slow = Table::new(
        "slow host check — Opteron 265 (paper: pinning costs up to ~20%)",
        &["size", "pin-per-comm", "permanent", "degradation %"],
    );
    for msg in [1u64 << 20, 4 << 20, 16 << 20] {
        let jobs = vec![PinningMode::PinPerComm, PinningMode::Permanent];
        let vals = parallel_map(jobs, |mode| {
            let mut cfg = paper_cfg(mode, false);
            cfg.profile = CpuProfile::opteron_265();
            pingpong_throughput(&cfg, msg).mib_per_sec
        });
        slow.row(vec![
            fmt_size(msg),
            format!("{:.0}", vals[0]),
            format!("{:.0}", vals[1]),
            format!("{:.1}", 100.0 * (1.0 - vals[0] / vals[1])),
        ]);
    }
    slow.print();
    Ok(())
}

/// Figure 7 — impact of overlapped pinning and the pinning cache on IMB
/// PingPong throughput (no I/OAT): regular pinning vs overlapped pinning
/// vs pinning cache vs overlapped pinning cache.
///
/// Run: `cargo run --release -p openmx-bench -- fig7`
pub(crate) fn fig7(_: &Args) -> Result<(), String> {
    let series = [
        ("regular", PinningMode::PinPerComm, false),
        ("overlapped", PinningMode::Overlapped, false),
        ("cache", PinningMode::Cached, false),
        ("overlapped+cache", PinningMode::OverlappedCached, false),
    ];
    let by_series = sweep_series(&series);
    figure_table(
        "Figure 7 — IMB PingPong throughput (MiB/s): overlapped pinning & pinning cache",
        &series,
        &by_series,
    )
    .emit("fig7.csv")?;

    let last = figure_sizes().len() - 1;
    let base = by_series[0][last].mib_per_sec;
    for ((name, _, _), points) in series.iter().zip(&by_series) {
        let p = &points[last];
        println!(
            "{name:<18} at 16MiB: {:>6.0} MiB/s ({:+.1}% vs regular), \
             pin p50/p99 {:.1}/{:.1} µs over {} bursts, overlap misses across sweep: {}",
            p.mib_per_sec,
            100.0 * (p.mib_per_sec / base - 1.0),
            p.pin_p50_us,
            p.pin_p99_us,
            p.pin_bursts,
            sweep_misses(points)
        );
    }
    println!();
    anchors_table(&series, &by_series, &FIG7_ANCHORS).print();
    println!(
        "expected shape (paper §4.2): both the cache and the overlap recover the\n\
         ~5% pinning penalty; overlapped pinning helps exactly when the cache\n\
         cannot (no buffer reuse), at negligible overhead."
    );
    Ok(())
}

/// One benchmark run's timed duration plus its pin/overlap observability.
struct BenchRun {
    total: SimDuration,
    pin: Metrics,
    overlap_misses: u64,
}

/// Total timed duration of one IMB kernel's large-message sweep.
fn imb_total(mode: PinningMode, kernel: ImbKernel) -> BenchRun {
    let cfg = OpenMxConfig::with_mode(mode);
    let mut run = BenchRun {
        total: SimDuration::ZERO,
        pin: Metrics::new(),
        overlap_misses: 0,
    };
    for msg in [256 * 1024u64, 512 * 1024, 1 << 20, 2 << 20] {
        let iters = 12;
        let (scripts, mark) = imb_job(kernel, 2, msg, 2, iters);
        let (cl, records) = run_job(&cfg, 2, 1, scripts);
        run.total += summarize(&records, mark, iters).avg_iter * iters as u64;
        run.pin.merge(cl.metrics());
        run.overlap_misses += overlap_misses(&cl);
    }
    run
}

/// Total timed duration of the NPB IS kernel (4 ranks on 2 nodes).
fn is_total(mode: PinningMode) -> BenchRun {
    let cfg = OpenMxConfig::with_mode(mode);
    let is = IsConfig::c4_scaled();
    let (scripts, mark) = is_job(&is);
    let (cl, records) = run_job(&cfg, 2, 2, scripts);
    BenchRun {
        total: summarize(&records, mark, is.iterations).avg_iter * is.iterations as u64,
        pin: cl.metrics().clone(),
        overlap_misses: overlap_misses(&cl),
    }
}

/// Table 2 — execution-time improvement brought by the pinning cache and
/// by overlapped pinning on IMB kernels and NPB is.C.4, between 2 nodes.
///
/// Methodology: each benchmark runs three times — `pin-per-comm`
/// (baseline "regular pinning"), `cache`, and `overlapped` — and the
/// improvement is `(t_base - t_mode) / t_base`, like the paper's table.
/// IMB kernels sweep the large-message sizes that dominate the
/// benchmark's execution time; NPB IS runs the scaled class-C/4-process
/// integer-sort kernel (see DESIGN.md for the scaling note).
///
/// Run: `cargo run --release -p openmx-bench -- table2`
pub(crate) fn table2(_: &Args) -> Result<(), String> {
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
    let times = parallel_map(jobs, |(b, mode)| match benches[b].1 {
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
    t.emit("table2.csv")?;

    let mut obs = Table::new(
        "observability — overlapped-mode pin latency and overlap misses per benchmark",
        &["Application", "pin p50 µs", "pin bursts", "overlap misses"],
    );
    for (b, (name, _)) in benches.iter().enumerate() {
        let r = &times[b * 3 + 2];
        obs.row(vec![
            name.to_string(),
            format!("{:.1}", pin_quantile_us(&r.pin, 0.5)),
            format!("{}", r.pin.pin_latency.count()),
            format!("{}", r.overlap_misses),
        ]);
    }
    obs.print();
    println!(
        "expected shape (paper §4.4): the cache helps whenever buffers are\n\
         reused (most kernels); overlap helps less for collectives that already\n\
         overlap their constituent communications, and can go slightly negative."
    );
    Ok(())
}

/// One §4.3 case: its label, then whether the process shares the
/// interrupt core, whether an eager flood runs beside the stream, the
/// presync pages, and whether I/OAT offloads the copies.
type OverloadCase = (&'static str, bool, bool, u64, bool);

/// One §4.3 case: a 16 MiB one-way stream, optionally beside an eager
/// flood, returning its table row.
fn overload_case(&(name, colocate, flood, presync, ioat): &OverloadCase) -> Vec<String> {
    let mut cfg = OpenMxConfig::with_mode(PinningMode::Overlapped);
    cfg.colocate_with_bh = colocate;
    cfg.presync_pages = presync;
    cfg.use_ioat = ioat;
    // §4.3 measures the cost of dropped pull windows under MX's *fixed*
    // 1 s resend timer — the paper's collapse. The adaptive backoff
    // (default since it landed) recovers those drops in milliseconds and
    // would hide the very effect this experiment exists to show.
    cfg.adaptive_retransmit = false;

    let msg: u64 = 16 << 20;
    let msgs: u32 = 6;
    // Ranks in node order with `ppn` per node: the stream sender first on
    // node 0 and its receiver first on node 1; with the flood, the flood
    // sender sits beside the stream sender and the flood receiver beside
    // the stream receiver: [stream-tx, flood-tx, stream-rx, flood-rx].
    let ppn = if flood { 2 } else { 1 };
    let (tx, rx) = (0, ppn);
    let mut b = JobBuilder::new(2 * ppn);
    let sbuf = b.alloc(msg, |_| Some(0x5a));
    let rbuf = b.alloc(msg, |_| None);
    let fbuf = b.alloc(64 * 1024, |_| Some(0x01));

    // Warmup message, then the timed stream (tx -> rx).
    for _ in 0..=msgs {
        send_step(&mut b, (tx, rx), sbuf, rbuf, msg);
    }
    // The flood pair blasts 16 KiB eager messages at the victim's node
    // for the whole run. Receives are posted wildcard-ish ahead of time
    // in bursts.
    if flood {
        let burst = 16u64;
        for round in 0..600 {
            let tag = 1_000_000 + round;
            b.scripts[1].push(Step {
                ops: (0..burst)
                    .map(|i| Op::Send {
                        to: 3,
                        tag,
                        buf: fbuf,
                        offset: i * 4096 % 32768,
                        len: 16 * 1024,
                    })
                    .collect(),
            });
            b.scripts[3].push(Step {
                ops: (0..burst)
                    .map(|_| Op::RecvAny {
                        tag,
                        buf: fbuf,
                        offset: 0,
                        len: 16 * 1024,
                    })
                    .collect(),
            });
        }
    }
    let (cl, records) = run_job(&cfg, 2, ppn, b.scripts);

    // Timed window: from the stream receiver's first step completion
    // (warmup done) to its finish.
    let rec = &records[rx];
    let start = rec.step_done[0];
    let end = rec.finished.expect("stream receiver finished");
    let bw = Bandwidth::measured(msg * msgs as u64, end.duration_since(start));
    let c = cl.counters();
    let misses = overlap_misses(&cl);
    let frames = c.get(Counter::FramesRx).max(1);
    let m = cl.metrics();
    vec![
        name.to_string(),
        format!("{:.0}", bw.bytes_per_sec() / 1e6),
        format!("{misses}"),
        format!("{}", c.get(Counter::PullStallTimeouts)),
        format!("{:.2e}", misses as f64 / frames as f64),
        format!("{:.1}", pin_quantile_us(m, 0.50)),
        format!("{:.1}", pin_quantile_us(m, 0.99)),
    ]
}

/// §4.3 — Overlap-miss behaviour: rare under regular load, catastrophic
/// when the bottom half exhausts the core the pinning process runs on.
///
/// Cases (overlapped pinning, 16 MiB one-way stream, 10G Ethernet):
///
/// * `regular` — interrupts on core 0, process on core 1 (the usual irq
///   affinity): misses stay under 1/10 000 (paper).
/// * `colocated` — process bound to the interrupt core: receive processing
///   starves the pin chunks, whole windows of pull replies drop, and
///   recovery waits on the 1 s retransmission timeout — the 1 GB/s →
///   ~tens of MB/s collapse the paper reports.
/// * `colocated + eager flood` — an extra process pair hammers the same
///   node with small messages ("many small packets").
/// * `colocated + presync` — the paper's proposed mitigation: pin a few
///   pages synchronously before the initiating message.
/// * `colocated + I/OAT` — copy offload empties the bottom half, which
///   rescues the overlap (not in the paper, ablation).
///
/// Run: `cargo run --release -p openmx-bench -- overload`
pub(crate) fn overload(_: &Args) -> Result<(), String> {
    let cases: [OverloadCase; 5] = [
        ("regular (irq on its own core)", false, false, 0, false),
        ("colocated with bottom half", true, false, 0, false),
        ("colocated + eager flood", true, true, 0, false),
        ("colocated + presync 64 pages", true, false, 64, false),
        ("colocated + I/OAT offload", true, false, 0, true),
    ];
    let mut t = Table::new(
        "§4.3 — overlap misses and the overloaded-core collapse (16MiB stream, overlapped pinning)",
        &[
            "scenario",
            "MB/s",
            "overlap misses",
            "1s stalls",
            "miss rate",
            "pin p50 µs",
            "pin p99 µs",
        ],
    );
    for case in &cases {
        t.row(overload_case(case));
    }
    t.emit("overload.csv")?;
    println!(
        "paper: miss rate < {OVERLAP_MISS_RATE_BOUND:.0e} under regular load; collapse from\n\
         ~{:.0} MB/s to ~{:.0} MB/s when the receive bottom half exhausts the pinning core.",
        OVERLOAD_COLLAPSE_MBPS.0, OVERLOAD_COLLAPSE_MBPS.1
    );
    Ok(())
}

/// The bench-regression sweep: one run covers the paper's headline
/// results — Fig. 6 (pin-per-comm vs permanent, ± I/OAT), Fig. 7 (the
/// overlapped/cached pinning strategies), Table 2 (IMB kernels over the
/// MPI layer) and the deterministic batched-pinning call counts — and
/// writes them as one flat `BENCH_core.json`.
///
/// Every metric gated here is *virtual-time* or a deterministic counter,
/// so the numbers are machine-independent: any change is a behavioural
/// change in the protocol or the simulation, not noise. CI runs the full
/// sweep and requires its output to equal the committed `BENCH_core.json`
/// byte for byte. `--smoke` shrinks the size and iteration axes; its
/// keys are a subset of the full run's.
///
/// Run: `cargo run --release -p openmx-bench -- core [--smoke] [--out PATH]`
pub(crate) fn core(args: &Args) -> Result<(), String> {
    let sizes: &[u64] = if args.smoke {
        &[64 * 1024, 1 << 20]
    } else {
        &[64 * 1024, 1 << 20, 16 << 20]
    };
    let imb_iters: u32 = if args.smoke { 2 } else { 4 };

    let mut entries: Vec<(String, f64)> = Vec::new();

    // Fig. 6 — the pinning-cost bounds: pin-per-comm vs permanent, ± I/OAT.
    for mode in [PinningMode::PinPerComm, PinningMode::Permanent] {
        for ioat in [false, true] {
            let cfg = paper_cfg(mode, ioat);
            for &msg in sizes {
                let p = pingpong_throughput(&cfg, msg);
                entries.push((
                    format!("fig6.{}.ioat{}.{msg}.mib_s", mode.label(), ioat as u8),
                    p.mib_per_sec,
                ));
            }
        }
    }

    // Fig. 7 — the decoupled strategies against the regular baseline.
    for mode in [
        PinningMode::PinPerComm,
        PinningMode::Cached,
        PinningMode::Overlapped,
        PinningMode::OverlappedCached,
    ] {
        let cfg = paper_cfg(mode, false);
        for &msg in sizes {
            let p = pingpong_throughput(&cfg, msg);
            entries.push((format!("fig7.{}.{msg}.mib_s", mode.label()), p.mib_per_sec));
        }
    }

    // Table 2 — IMB kernels through the MPI layer, virtual per-iteration
    // time (steady state after one warmup iteration, so the average is
    // independent of the iteration count and smoke runs stay comparable).
    for mode in [PinningMode::PinPerComm, PinningMode::OverlappedCached] {
        let cfg = paper_cfg(mode, false);
        for (kernel, kname) in [
            (ImbKernel::SendRecv, "sendrecv"),
            (ImbKernel::Bcast, "bcast"),
        ] {
            let res = run_imb(&cfg, 2, 2, kernel, 64 * 1024, 1, imb_iters);
            entries.push((
                format!("table2.{kname}.{}.avg_us", mode.label()),
                res.avg_iter.as_micros_f64(),
            ));
        }
    }

    // Pinscale — deterministic pin-call counts for the batched path.
    let (batched, per_page) = batch_pin_calls();
    entries.push(("pinscale.batched_pin_calls".into(), batched as f64));
    entries.push(("pinscale.per_page_pin_calls".into(), per_page as f64));

    let mut t = Table::new(
        "bench-core: deterministic headline metrics",
        &["key", "value"],
    );
    let mut baseline = Baseline::new("bench-core-v1");
    for (k, v) in &entries {
        t.row(vec![k.clone(), format!("{v:.3}")]);
        baseline.entry(k.as_str(), format!("{v:.6}"));
    }
    t.print();
    baseline.write(&args.out)?;
    println!("wrote {} ({} entries)", args.out, entries.len());
    Ok(())
}
