//! Golden trace: one small seeded run whose three trace exports (CSV,
//! Chrome instants, Chrome spans) must stay byte-identical to the files
//! under `tests/golden/`.
//!
//! The run covers the protocol's recovery paths so that a refactor of
//! them shows up here as a diff: eager and rendezvous traffic, overlapped
//! pinning with the bottom half on the pinning core (overlap misses and
//! packet drops), 1% random loss (retransmits and adaptive backoff), and a
//! receiver crash mid-transfer (fenced frames and a peer-dead abort).
//!
//! There is no switch that rewrites the golden files. A deliberate change
//! to the trace regenerates them by hand and says why in CHANGES.md.

mod common;

use common::{assert_same, golden, golden_run};
use openmx_core::obs::{build_spans, chrome_spans_json, chrome_trace_json, csv};
use openmx_core::Counter;

#[test]
fn scenario_reaches_every_recovery_path() {
    let (cl, failures) = golden_run();
    let c = cl.counters();
    assert!(c.get(Counter::EagerMsgsTx) > 0 && c.get(Counter::RndvMsgsTx) > 0);
    assert!(c.get(Counter::OverlapMissRx) > 0, "overlap misses");
    assert!(c.get(Counter::NetFramesLost) > 0, "random loss");
    for k in [
        Counter::EagerRetrans,
        Counter::RndvRetrans,
        Counter::PullStallTimeouts,
    ] {
        assert!(c.get(k) > 0, "no {k:?}");
    }
    assert!(c.get(Counter::FramesFenced) > 0, "fenced frames");
    assert_eq!(c.get(Counter::PeerDeadAborts), 1, "one peer-dead abort");
    assert_eq!(failures, ["peer crashed"]);
    let kinds: Vec<&str> = cl.tracer().iter().map(|r| r.event.kind()).collect();
    for k in [
        "backoff",
        "retransmit",
        "packet_drop",
        "fenced_drop",
        "proc_crash",
    ] {
        assert!(kinds.contains(&k), "trace has no {k} event");
    }
    assert_eq!(cl.tracer().dropped(), 0, "the ring holds the whole run");
}

#[test]
fn trace_csv_matches_golden() {
    let (cl, _) = golden_run();
    assert_same("trace.csv", &csv(cl.tracer()), &golden("trace.csv"));
}

#[test]
fn chrome_trace_matches_golden() {
    let (cl, _) = golden_run();
    assert_same(
        "trace.chrome.json",
        &chrome_trace_json(cl.tracer()),
        &golden("trace.chrome.json"),
    );
}

#[test]
fn chrome_spans_match_golden() {
    let (cl, _) = golden_run();
    assert_same(
        "trace.spans.json",
        &chrome_spans_json(&build_spans(cl.tracer())),
        &golden("trace.spans.json"),
    );
}
