//! Ablations of the design knobs called out in DESIGN.md §7, each
//! measured on the Fig. 7 pingpong workload (1 MiB unless stated):
//!
//! * pin chunk size — overlap granularity vs. per-chunk overhead,
//! * eager threshold — where the rendezvous path should start,
//! * pull window — pipeline depth of the data phase,
//! * region-cache capacity — LRU thrash point,
//! * presync pages — the §4.3 mitigation's cost in the normal case,
//! * optimistic re-request — recovery latency under loss,
//! * adaptive per-request hints — the paper's §5 proposal.
//!
//! Run: `cargo run --release -p openmx-bench --bin ablation`

use openmx_bench::pingpong::{paper_cfg, pingpong_throughput};
use openmx_bench::sweep::parallel_map;
use openmx_bench::table::Table;
use openmx_core::{Counter, OpenMxConfig, PinningMode};
use openmx_mpi::collectives::JobBuilder;
use openmx_mpi::{run_job, Op};

fn throughput(cfg: &OpenMxConfig, msg: u64) -> f64 {
    pingpong_throughput(cfg, msg).mib_per_sec
}

fn main() {
    // ---- pin chunk size ---------------------------------------------------
    let chunks = [1u64, 8, 32, 128, 1024];
    let rows = parallel_map(chunks.to_vec(), |c| {
        let mut cfg = paper_cfg(PinningMode::Overlapped, false);
        cfg.pin_chunk_pages = c;
        (c, throughput(&cfg, 1 << 20))
    });
    let mut t = Table::new(
        "ablation: pin chunk size (overlapped, 1 MiB pingpong)",
        &["pages/chunk", "MiB/s"],
    );
    for (c, v) in rows {
        t.row(vec![format!("{c}"), format!("{v:.0}")]);
    }
    t.emit(None);

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
        (th, msg, throughput(&cfg, msg))
    });
    let mut t = Table::new(
        "ablation: eager threshold (MXoE spec: 32 KiB)",
        &["threshold", "16KiB msg MiB/s", "64KiB msg MiB/s"],
    );
    for &th in &thresholds {
        let a = rows
            .iter()
            .find(|r| r.0 == th && r.1 == 16 * 1024)
            .unwrap()
            .2;
        let b = rows
            .iter()
            .find(|r| r.0 == th && r.1 == 64 * 1024)
            .unwrap()
            .2;
        t.row(vec![
            format!("{}KiB", th / 1024),
            format!("{a:.0}"),
            format!("{b:.0}"),
        ]);
    }
    t.emit(None);

    // ---- pull window --------------------------------------------------------
    let windows = [1u32, 2, 4, 8];
    let rows = parallel_map(windows.to_vec(), |w| {
        let mut cfg = paper_cfg(PinningMode::OverlappedCached, false);
        cfg.pull_window = w;
        (w, throughput(&cfg, 1 << 20))
    });
    let mut t = Table::new(
        "ablation: pull window (blocks in flight)",
        &["window", "MiB/s"],
    );
    for (w, v) in rows {
        t.row(vec![format!("{w}"), format!("{v:.0}")]);
    }
    t.emit(None);

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
        for round in 0..3 {
            for (i, &sbuf) in bufs.iter().enumerate() {
                let tag = (round * nbufs + i) as u32 + 10;
                b.step_all(move |r| match r {
                    0 => vec![Op::Send {
                        to: 1,
                        tag,
                        buf: sbuf,
                        offset: 0,
                        len,
                    }],
                    1 => vec![Op::Recv {
                        from: 0,
                        tag,
                        buf: rbuf,
                        offset: 0,
                        len,
                    }],
                    _ => vec![],
                });
            }
        }
        let (cl, records) = run_job(&cfg, 2, 1, b.scripts);
        assert!(records.iter().all(|r| r.failures.is_empty()));
        let stats = cl.cache_stats(openmx_core::ProcId(0));
        let evictions = cl.counters().get(Counter::CacheEvictions);
        (
            cap,
            stats.hits,
            stats.misses,
            evictions,
            cl.now().as_secs_f64() * 1e3,
        )
    });
    let mut t = Table::new(
        "ablation: region cache capacity (16 buffers round-robin, 3 rounds)",
        &["capacity", "hits", "misses", "evictions", "total ms"],
    );
    for (cap, h, m, e, ms) in rows {
        t.row(vec![
            format!("{cap}"),
            format!("{h}"),
            format!("{m}"),
            format!("{e}"),
            format!("{ms:.2}"),
        ]);
    }
    t.emit(None);

    // ---- presync pages --------------------------------------------------------
    let presync = [0u64, 8, 64, 256];
    let rows = parallel_map(presync.to_vec(), |p| {
        let mut cfg = paper_cfg(PinningMode::Overlapped, false);
        cfg.presync_pages = p;
        (p, throughput(&cfg, 1 << 20))
    });
    let mut t = Table::new(
        "ablation: synchronous presync pages before the initiating message (§4.3 mitigation)",
        &["presync pages", "MiB/s (1 MiB, normal load)"],
    );
    for (p, v) in rows {
        t.row(vec![format!("{p}"), format!("{v:.0}")]);
    }
    t.emit(None);

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
        (rdouble, cl.now().as_secs_f64() * 1e3)
    });
    let mut t = Table::new(
        "ablation: allreduce algorithm (1 MiB, 4 ranks on 2 nodes, 4 ops)",
        &["algorithm", "total ms"],
    );
    for (rd, ms) in rows {
        t.row(vec![
            if rd {
                "recursive doubling"
            } else {
                "reduce + bcast"
            }
            .to_string(),
            format!("{ms:.2}"),
        ]);
    }
    t.emit(None);

    // ---- optimistic re-request under loss ---------------------------------------
    let rows = parallel_map(vec![true, false], |on| {
        let mut cfg = paper_cfg(PinningMode::OverlappedCached, false);
        cfg.net.loss_probability = 0.01;
        cfg.optimistic_rerequest = on;
        cfg.retransmit_timeout = simcore::SimDuration::from_millis(100);
        (on, throughput(&cfg, 1 << 20))
    });
    let mut t = Table::new(
        "ablation: optimistic re-request under 1% frame loss (timeout 100 ms)",
        &["optimistic re-request", "MiB/s"],
    );
    for (on, v) in rows {
        t.row(vec![format!("{on}"), format!("{v:.0}")]);
    }
    t.emit(None);

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
         * optimistic re-request is what keeps loss recovery off the 1 s path."
    );
}
