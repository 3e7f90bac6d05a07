//! Unified bench-regression harness: one run sweeps the paper's headline
//! results — Fig. 6 (pin-per-comm vs permanent, ± I/OAT), Fig. 7 (the
//! overlapped/cached pinning strategies), Table 2 (IMB kernels over the
//! MPI layer) and the deterministic batched-pinning call counts — and
//! emits them as one flat `BENCH_core.json`.
//!
//! Every metric gated here is *virtual-time* or a deterministic counter,
//! so the numbers are machine-independent: any change is a behavioural
//! change in the protocol or the simulation, not noise. CI runs the full
//! sweep and requires its output to equal the committed `BENCH_core.json`
//! byte for byte.
//!
//! Run: `cargo run --release -p openmx-bench --bin bench_core [-- --smoke]`
//!
//! Flags:
//! * `--smoke`       reduced size/iteration axes for a quick local run
//!   (its keys are a subset of the full run's),
//! * `--out PATH`    where to write the JSON (default `BENCH_core.json`).

use openmx_bench::pingpong::{paper_cfg, pingpong_throughput};
use openmx_bench::table::Table;
use openmx_core::{Driver, PinningMode, Segment};
use openmx_mpi::{run_imb, ImbKernel};
use simmem::{Memory, Prot, PAGE_SIZE};

struct Args {
    smoke: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        out: "BENCH_core.json".to_string(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--smoke" => args.smoke = true,
            "--out" => {
                i += 1;
                args.out = argv[i].clone();
            }
            other => {
                eprintln!("unknown flag: {other}");
                eprintln!("usage: bench_core [--smoke] [--out PATH]");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    args
}

/// Count `Memory` pin calls for one 256-page region pinned in 32-page
/// chunks — batched vs per-page (same probe as the pinscale gate).
fn pin_call_count(per_page: bool) -> u64 {
    let pages = 256u64;
    let chunk = 32u64;
    let mut mem = Memory::new(pages as usize + 16, 0);
    let space = mem.create_space();
    let addr = mem.mmap(space, pages * PAGE_SIZE, Prot::ReadWrite).unwrap();
    let mut d = Driver::new(None);
    let id = d
        .declare(
            space,
            &[Segment {
                addr,
                len: pages * PAGE_SIZE,
            }],
        )
        .unwrap();
    let before = mem.pin_calls();
    loop {
        let r = d.region_mut(id);
        let progress = if per_page {
            r.pin_next_chunk_per_page(&mut mem, chunk)
        } else {
            r.pin_next_chunk(&mut mem, chunk)
        }
        .expect("pin");
        if progress.complete {
            break;
        }
    }
    mem.pin_calls() - before
}

fn main() {
    let args = parse_args();

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
    entries.push((
        "pinscale.batched_pin_calls".into(),
        pin_call_count(false) as f64,
    ));
    entries.push((
        "pinscale.per_page_pin_calls".into(),
        pin_call_count(true) as f64,
    ));

    let mut t = Table::new(
        "bench-core: deterministic headline metrics",
        &["key", "value"],
    );
    for (k, v) in &entries {
        t.row(vec![k.clone(), format!("{v:.3}")]);
    }
    t.emit(None);

    // One flat key per line so baselines diff cleanly in review.
    let mut json = String::from("{\n  \"schema\": \"bench-core-v1\",\n  \"entries\": {\n");
    for (i, (k, v)) in entries.iter().enumerate() {
        json.push_str(&format!(
            "    \"{k}\": {v:.6}{}\n",
            if i + 1 == entries.len() { "" } else { "," }
        ));
    }
    json.push_str("  }\n}\n");
    std::fs::write(&args.out, &json).expect("write BENCH_core.json");
    println!("wrote {} ({} entries)", args.out, entries.len());
}
