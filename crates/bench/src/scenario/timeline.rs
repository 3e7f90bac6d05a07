//! Figures 2 / 3 / 5 as event timelines of one large-message transfer,
//! on the console and as Chrome-trace and span-tree JSON.

use std::rc::Rc;

use openmx_core::engine::{Cluster, ProcId};
use openmx_core::{OpenMxConfig, PinningMode};
use simmem::{VirtAddr, PAGE_SIZE};

use super::storms::Sink;
use crate::chaos::Streamer;
use crate::cli::Args;
use crate::table::write_artifact;

fn show(mode: PinningMode, header: &str) -> Result<(), String> {
    let cfg = OpenMxConfig::with_mode(mode);
    let mut cl = Cluster::new(cfg, 2);
    cl.enable_trace();
    let len = 1 << 20;
    cl.add_process(
        0,
        Box::new(Streamer {
            peer: ProcId(1),
            tag: 42,
            len,
            msgs_left: 2,
            buf: VirtAddr(0),
            clean: Rc::default(),
            done: Rc::default(),
        }),
    );
    cl.add_process(1, Sink::boxed(42, len / PAGE_SIZE, 2));
    cl.run(None);
    println!("=== {header} ({}) ===", mode.label());
    println!("{:>12}  {:<8} {:<16} detail", "time", "node", "event");
    let mut shown = 0;
    for r in cl.tracer().iter() {
        println!(
            "{:>12}  node{:<4} {:<16} {}",
            format!("{}", r.time),
            r.node,
            r.event.kind(),
            r.event.detail()
        );
        shown += 1;
        if shown > 60 {
            println!("  … ({} more events)", cl.tracer().len() - shown);
            break;
        }
    }
    let json = openmx_core::obs::chrome_trace_json(cl.tracer());
    let path = format!("timeline_{}.json", mode.label().replace([' ', '+'], "_"));
    write_artifact(&path, &json)?;
    println!(
        "wrote {path} ({} events) — load in ui.perfetto.dev or chrome://tracing",
        cl.tracer().len()
    );

    // The causal view: per-transfer span trees with critical-path
    // attribution, plus the nested B/E export Perfetto renders as bars.
    let spans = openmx_core::obs::build_spans(cl.tracer());
    println!("per-transfer critical path (components sum to end-to-end):");
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "xfer", "e2e us", "pin_wait us", "wire us", "backoff us", "host us"
    );
    for s in &spans {
        let cp = &s.critical_path;
        println!(
            "{:>6} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
            s.msg.0,
            s.duration_ns() as f64 / 1e3,
            cp.pin_wait_ns as f64 / 1e3,
            cp.wire_ns as f64 / 1e3,
            cp.retransmit_backoff_ns as f64 / 1e3,
            cp.host_overhead_ns as f64 / 1e3,
        );
    }
    let span_json = openmx_core::obs::chrome_spans_json(&spans);
    let span_path = format!(
        "timeline_{}_spans.json",
        mode.label().replace([' ', '+'], "_")
    );
    write_artifact(&span_path, &span_json)?;
    println!(
        "wrote {span_path} ({} span trees) — nested B/E view, one track per transfer",
        spans.len()
    );
    println!();
    Ok(())
}

/// Figures 2 / 3 / 5 — event timelines of one large-message transfer.
///
/// A thin consumer of the engine's tracer (`openmx_core::obs`): prints the
/// event stream of a single 1 MiB MPI-style transfer under regular pinning
/// (Figure 2: pin → rndv → pull → notify) and under overlapped pinning with
/// the cache (Figures 3/5: rndv leaves first, pinning proceeds during the
/// round trip; the second transfer hits the cache and pins nothing).
///
/// Each run is also exported as Chrome trace-event JSON
/// (`timeline_<mode>.json`) — load it in <https://ui.perfetto.dev> or
/// `chrome://tracing` to see pin spans against the packet flow — and as a
/// causal span tree (`timeline_<mode>_spans.json`): nested B/E duration
/// events with one track group per transfer (`MsgId`), so the overlap window, pin
/// waits and pull blocks show as bars. A per-transfer critical-path
/// breakdown (pin wait / wire / backoff / host) is printed alongside.
///
/// Run: `cargo run --release -p openmx-bench -- timeline`
pub(crate) fn timeline(_: &Args) -> Result<(), String> {
    show(
        PinningMode::PinPerComm,
        "Figure 2 — regular rendezvous: pin, then rndv, pull, notify",
    )?;
    show(
        PinningMode::OverlappedCached,
        "Figures 3/5 — overlapped pinning + cache: rndv first, pin during the round trip; second transfer hits the cache",
    )
}
