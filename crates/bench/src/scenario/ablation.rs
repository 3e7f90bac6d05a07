//! Ablations of the design knobs in DESIGN.md §7, on the Fig. 7
//! pingpong workload.

use std::fmt::Display;

use openmx_core::{Counter, CounterSet, OpenMxConfig, PinningMode, ProcId};
use openmx_mpi::collectives::JobBuilder;
use openmx_mpi::run_job;
use simcore::SimDuration;
use simnet::FaultProfile;

use crate::cli::Args;
use crate::pingpong::{paper_cfg, pingpong_throughput, send_step};
use crate::sweep::parallel_map;
use crate::table::Table;

/// Sweep one knob over `values` on the 1 MiB pingpong in `mode`,
/// `set` applying each value to the config, and print one MiB/s row per
/// value.
fn knob<V: Copy + Display + Send + Sync>(
    title: &str,
    headers: &[&str],
    mode: PinningMode,
    values: &[V],
    set: impl Fn(&mut OpenMxConfig, V) + Sync,
) {
    let rows = parallel_map(values.to_vec(), |v| {
        let mut cfg = paper_cfg(mode, false);
        set(&mut cfg, v);
        pingpong_throughput(&cfg, 1 << 20).mib_per_sec
    });
    let mut t = Table::new(title, headers);
    for (v, mib) in values.iter().zip(rows) {
        t.row(vec![format!("{v}"), format!("{mib:.0}")]);
    }
    t.print();
}

/// Ablations of the design knobs called out in DESIGN.md §7, each
/// measured on the Fig. 7 pingpong workload (1 MiB unless stated):
///
/// * pin chunk size — overlap granularity vs. per-chunk overhead,
/// * eager threshold — where the rendezvous path should start,
/// * pull window — pipeline depth of the data phase,
/// * region-cache capacity — LRU thrash point,
/// * presync pages — the §4.3 mitigation's cost in the normal case,
/// * allreduce algorithm — reduce + bcast vs recursive doubling,
/// * optimistic re-request — recovery latency under loss,
/// * retransmission policy — duplicates of the fixed timer vs adaptive
///   backoff under loss and delay jitter.
///
/// Run: `cargo run --release -p openmx-bench -- ablation`
pub(crate) fn ablation(_: &Args) -> Result<(), String> {
    knob(
        "ablation: pin chunk size (overlapped, 1 MiB pingpong)",
        &["pages/chunk", "MiB/s"],
        PinningMode::Overlapped,
        &[1u64, 8, 32, 128, 1024],
        |cfg, c| cfg.pin_chunk_pages = c,
    );

    // ---- eager threshold ---------------------------------------------------
    let thresholds = [4 * 1024u64, 32 * 1024, 128 * 1024];
    let msgs = [16 * 1024u64, 64 * 1024];
    let jobs: Vec<(u64, u64)> = thresholds
        .iter()
        .flat_map(|&t| msgs.iter().map(move |&m| (t, m)))
        .collect();
    let rows = parallel_map(jobs, |(th, msg)| {
        let mut cfg = paper_cfg(PinningMode::OverlappedCached, false);
        cfg.eager_threshold = th;
        pingpong_throughput(&cfg, msg).mib_per_sec
    });
    let mut t = Table::new(
        "ablation: eager threshold (MXoE spec: 32 KiB)",
        &["threshold", "16KiB msg MiB/s", "64KiB msg MiB/s"],
    );
    for (th, mib) in thresholds.iter().zip(rows.chunks(msgs.len())) {
        t.row(vec![
            format!("{}KiB", th / 1024),
            format!("{:.0}", mib[0]),
            format!("{:.0}", mib[1]),
        ]);
    }
    t.print();

    knob(
        "ablation: pull window (blocks in flight)",
        &["window", "MiB/s"],
        PinningMode::OverlappedCached,
        &[1u32, 2, 4, 8],
        |cfg, w| cfg.pull_window = w,
    );

    // ---- region cache capacity ----------------------------------------------
    // Workload touches 16 distinct 256 KiB buffers round-robin; capacities
    // below 32 (16 send + 16 recv regions) thrash.
    let caps = [4usize, 16, 32, 64];
    let rows = parallel_map(caps.to_vec(), |cap| {
        let mut cfg = paper_cfg(PinningMode::Cached, false);
        cfg.cache_capacity = cap;
        let len = 256 * 1024u64;
        let nbufs = 16usize;
        let mut b = JobBuilder::new(2);
        let bufs: Vec<usize> = (0..nbufs)
            .map(|i| b.alloc(len, move |_| Some(i as u8)))
            .collect();
        let rbuf = b.alloc(len, |_| None);
        for _ in 0..3 {
            for &sbuf in &bufs {
                send_step(&mut b, (0, 1), sbuf, rbuf, len);
            }
        }
        let (cl, records) = run_job(&cfg, 2, 1, b.scripts);
        assert!(records.iter().all(|r| r.failures.is_empty()));
        let stats = cl.cache_stats(ProcId(0));
        vec![
            format!("{cap}"),
            format!("{}", stats.hits),
            format!("{}", stats.misses),
            format!("{}", cl.counters().get(Counter::CacheEvictions)),
            format!("{:.2}", cl.now().as_secs_f64() * 1e3),
        ]
    });
    let mut t = Table::new(
        "ablation: region cache capacity (16 buffers round-robin, 3 rounds)",
        &["capacity", "hits", "misses", "evictions", "total ms"],
    );
    for row in rows {
        t.row(row);
    }
    t.print();

    knob(
        "ablation: synchronous presync pages before the initiating message (§4.3 mitigation)",
        &["presync pages", "MiB/s (1 MiB, normal load)"],
        PinningMode::Overlapped,
        &[0u64, 8, 64, 256],
        |cfg, p| cfg.presync_pages = p,
    );

    // ---- allreduce algorithm -------------------------------------------------
    let rows = parallel_map(vec![false, true], |rdouble| {
        let cfg = paper_cfg(PinningMode::OverlappedCached, false);
        let len = 1u64 << 20;
        let mut b = JobBuilder::new(4);
        let buf = b.alloc(len, |_| Some(1));
        let scratch = b.alloc(len, |_| None);
        for _ in 0..4 {
            if rdouble {
                b.allreduce_rdouble(buf, scratch, len);
            } else {
                b.allreduce(buf, scratch, len);
            }
        }
        let (cl, records) = run_job(&cfg, 2, 2, b.scripts);
        assert!(records.iter().all(|r| r.failures.is_empty()));
        cl.now().as_secs_f64() * 1e3
    });
    let mut t = Table::new(
        "ablation: allreduce algorithm (1 MiB, 4 ranks on 2 nodes, 4 ops)",
        &["algorithm", "total ms"],
    );
    for (algorithm, ms) in ["reduce + bcast", "recursive doubling"].iter().zip(rows) {
        t.row(vec![algorithm.to_string(), format!("{ms:.2}")]);
    }
    t.print();

    // ---- optimistic re-request under loss ---------------------------------------
    knob(
        "ablation: optimistic re-request under 1% frame loss (timeout 100 ms)",
        &["optimistic re-request", "MiB/s"],
        PinningMode::OverlappedCached,
        &[true, false],
        |cfg, on| {
            cfg.net.loss_probability = 0.01;
            cfg.optimistic_rerequest = on;
            cfg.retransmit_timeout = SimDuration::from_millis(100);
        },
    );

    // ---- retransmission policy under loss and jitter -------------------------
    // The fixed baseline is the pre-adaptive protocol: a flat 1 s timer and
    // the static re-request guard. That guard assumes the nominal round
    // trip, so a frame delayed past it is re-requested while still in
    // flight and arrives twice; the adaptive guard tracks the measured RTO
    // and leaves merely-late frames alone.
    let faults = FaultProfile {
        loss: 0.05,
        reorder: 0.3,
        reorder_jitter: SimDuration::from_micros(400),
        ..FaultProfile::default()
    };
    let len = 1u64 << 20;
    let runs = parallel_map(
        (0..8u64).flat_map(|s| [(s, false), (s, true)]).collect(),
        |(s, adaptive)| {
            let mut cfg = OpenMxConfig::with_mode(PinningMode::OverlappedCached);
            cfg.seed = 0xd0b0_0000 + s;
            cfg.max_retries = 16;
            cfg.adaptive_retransmit = adaptive;
            cfg.retransmit_timeout = SimDuration::from_millis(if adaptive { 50 } else { 1000 });
            cfg.net.faults.set_link(0, 1, faults);
            cfg.net.faults.set_link(1, 0, faults);
            let mut b = JobBuilder::new(2);
            let sbuf = b.alloc(len, |_| Some(0x6b));
            let rbuf = b.alloc(len, |_| None);
            for _ in 0..5 {
                send_step(&mut b, (0, 1), sbuf, rbuf, len);
            }
            let (mut cl, records) = run_job(&cfg, 2, 1, b.scripts);
            let got = cl.read_proc(ProcId(1), records[1].buffer_addrs[rbuf], len);
            assert!(
                records
                    .iter()
                    .all(|r| r.failures.is_empty() && r.finished.is_some())
                    && got.iter().enumerate().all(|(i, &v)| v == (i as u8) ^ 0x6b),
                "seed {s} (adaptive: {adaptive}) did not deliver every message intact"
            );
            (adaptive, cl.counters())
        },
    );
    let sum = |want: bool| -> CounterSet {
        runs.iter()
            .filter(|(adaptive, _)| *adaptive == want)
            .map(|(_, c)| c.clone())
            .sum()
    };
    let (fixed, adaptive) = (sum(false), sum(true));
    let mut t = Table::new(
        "ablation: retransmission policy under 5% loss + 30% reorder (1 MiB × 5, sum over 8 seeds)",
        &["policy", "dup frames rx", "retransmits"],
    );
    for (policy, c) in [("fixed 1 s", &fixed), ("adaptive", &adaptive)] {
        t.row(vec![
            policy.into(),
            format!("{}", c.duplicates_rx()),
            format!("{}", c.retransmits()),
        ]);
    }
    t.print();
    assert!(
        adaptive.duplicates_rx() <= fixed.duplicates_rx(),
        "adaptive backoff received more duplicates than the fixed timer"
    );

    println!(
        "reading:\n\
         * pin chunks of 1-32 pages are equivalent; beyond that a cliff appears:\n\
           the first pull requests reach the sender before its *first* chunk\n\
           finishes, the whole initial window drops, and — since no later frames\n\
           arrive to trigger the optimistic re-request — recovery waits the full\n\
           1 s timeout. The paper's drop-don't-delay policy (§3.3) makes the\n\
           overlap granularity a correctness-adjacent knob, and its presync idea\n\
           (§4.3) is exactly the guard for this race.\n\
         * window 1 starves the pull pipeline; 2 suffices on this RTT.\n\
         * a region cache smaller than the working set thrashes back to\n\
           pin-per-comm behaviour (44 evictions, zero hits at capacity 4).\n\
         * presync costs a little normal-load throughput for §4.3 insurance.\n\
         * optimistic re-request is what keeps loss recovery off the 1 s path.\n\
         * under jitter the fixed re-request guard fires on frames that are\n\
           late, not lost, and each one arrives twice; the adaptive guard\n\
           waits out the measured RTO instead."
    );
    Ok(())
}
