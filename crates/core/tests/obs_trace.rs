//! Integration tests for the observability subsystem: the tracer must
//! capture the exact §3.3 overlap-miss recovery sequence, and the Chrome
//! trace exporter must turn pin bursts into loadable spans.

use openmx_core::engine::{AppEvent, Cluster, Ctx, ProcId, Process};
use openmx_core::obs::{chrome_trace_json, csv};
use openmx_core::{Counter, OpenMxConfig, PinningMode};
use simcore::SimDuration;
use simmem::VirtAddr;

/// One-way stream: sends `msgs` messages of `len` bytes to proc 1.
struct Sender {
    len: u64,
    sent: u32,
    msgs: u32,
    buf: VirtAddr,
}

struct Receiver {
    len: u64,
    got: u32,
    msgs: u32,
    buf: VirtAddr,
}

impl Process for Sender {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.buf = ctx.malloc(self.len);
        ctx.write_buf(self.buf, &vec![0x5a; self.len as usize]);
        ctx.isend(ProcId(1), 7, self.buf, self.len);
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        if let AppEvent::SendDone(_) = ev {
            self.sent += 1;
            if self.sent < self.msgs {
                ctx.isend(ProcId(1), 7, self.buf, self.len);
            } else {
                ctx.stop();
            }
        }
    }
}

impl Process for Receiver {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.buf = ctx.malloc(self.len);
        ctx.irecv(7, !0, self.buf, self.len);
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        if let AppEvent::RecvDone(..) = ev {
            self.got += 1;
            if self.got < self.msgs {
                ctx.irecv(7, !0, self.buf, self.len);
            } else {
                ctx.stop();
            }
        }
    }
}

/// Overlapped pinning with the receive bottom half colocated on the
/// pinning core (the paper's §4.3 overload scenario): pull replies outrun
/// the pin cursor, so misses are guaranteed.
fn forced_miss_cfg() -> OpenMxConfig {
    let mut cfg = OpenMxConfig::with_mode(PinningMode::Overlapped);
    cfg.colocate_with_bh = true;
    // Recover via the pull-stall timer quickly so the run stays short.
    cfg.retransmit_timeout = SimDuration::from_millis(5);
    cfg
}

fn run_stream(cfg: OpenMxConfig, len: u64, msgs: u32) -> Cluster {
    let mut cl = Cluster::new(cfg, 2);
    cl.enable_trace();
    cl.add_process(
        0,
        Box::new(Sender {
            len,
            sent: 0,
            msgs,
            buf: VirtAddr(0),
        }),
    );
    cl.add_process(
        1,
        Box::new(Receiver {
            len,
            got: 0,
            msgs,
            buf: VirtAddr(0),
        }),
    );
    cl.run(None);
    cl
}

/// Asserts `needles` appear in `haystack` in order (not necessarily
/// adjacent) and returns the matched positions.
fn assert_subsequence(haystack: &[&str], needles: &[&str]) {
    let mut it = haystack.iter();
    for n in needles {
        assert!(
            it.any(|k| k == n),
            "event sequence missing {n:?} (in order {needles:?});\nsaw: {haystack:?}"
        );
    }
}

#[test]
fn overlap_miss_recovery_sequence_is_traced() {
    let cl = run_stream(forced_miss_cfg(), 4 << 20, 2);

    let misses = cl.counters().get(Counter::OverlapMissRx);
    assert!(misses > 0, "scenario must force at least one overlap miss");
    assert!(cl.counters().overlap_miss_rate() > 0.0);

    // The §3.3 story on the receiver node, in event order: a pin burst
    // starts, a pull reply outruns the cursor (miss), the frame is
    // dropped, a retransmission recovers it, and the pin completes.
    let rx_kinds: Vec<&str> = cl
        .tracer()
        .iter()
        .filter(|r| r.node == 1)
        .map(|r| r.event.kind())
        .collect();
    assert_subsequence(
        &rx_kinds,
        &[
            "pin_start",
            "overlap_miss_rx",
            "packet_drop",
            "retransmit",
            "pin_complete",
        ],
    );
}

#[test]
fn chrome_trace_export_has_pin_spans_and_miss_events() {
    let cl = run_stream(forced_miss_cfg(), 4 << 20, 2);
    let json = chrome_trace_json(cl.tracer());
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.ends_with("],\"otherData\":{\"dropped_events\":\"0\"}}"));
    assert!(
        json.contains("\"name\":\"pin\",\"ph\":\"X\""),
        "paired pin bursts must export as complete spans"
    );
    assert!(
        json.contains("\"name\":\"overlap_miss_rx\""),
        "forced misses must appear as instant events"
    );

    let text = csv(cl.tracer());
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some("time_ns,node,proc,kind,detail"));
    assert!(lines.clone().any(|l| l.contains("overlap_miss_rx")));
    // Header + one row per record + the dropped_events footer.
    assert_eq!(text.lines().count() - 2, cl.tracer().len());
    assert_eq!(text.lines().last(), Some("# dropped_events=0"));
}

#[test]
fn clean_overlapped_run_records_pin_latency_without_misses() {
    // Regular affinity: the overlap works as designed — pins finish inside
    // the rendezvous round trip and nothing drops.
    let cfg = OpenMxConfig::with_mode(PinningMode::Overlapped);
    let cl = run_stream(cfg, 1 << 20, 2);
    assert_eq!(cl.counters().get(Counter::OverlapMissRx), 0);
    assert!(
        cl.metrics().pin_latency.count() > 0,
        "pins must be recorded"
    );
    let p50 = cl.metrics().pin_latency.quantile(0.5);
    assert!(p50 > SimDuration::ZERO);
    // Every pin_start on the tracer has a matching pin_complete.
    let starts = cl
        .tracer()
        .iter()
        .filter(|r| r.event.kind() == "pin_start")
        .count();
    let completes = cl
        .tracer()
        .iter()
        .filter(|r| r.event.kind() == "pin_complete")
        .count();
    assert!(starts > 0);
    assert_eq!(starts, completes);
}

#[test]
fn backoff_decisions_and_injected_faults_are_traced() {
    use openmx_core::obs::TraceEvent;
    use simnet::{FaultConfig, FaultProfile};

    let mut cfg = OpenMxConfig::with_mode(PinningMode::OverlappedCached);
    let mut faults = FaultConfig::clean();
    let hostile = FaultProfile {
        duplicate: 0.5,
        loss: 0.05,
        ..FaultProfile::default()
    };
    faults.set_link(0, 1, hostile);
    faults.set_link(1, 0, hostile);
    cfg.net.faults = faults;
    cfg.retransmit_timeout = SimDuration::from_millis(20);
    let cl = run_stream(cfg, 1 << 20, 2);

    let has = |pred: &dyn Fn(&TraceEvent) -> bool| cl.tracer().iter().any(|r| pred(&r.event));
    assert!(
        has(&|e| matches!(e, TraceEvent::Backoff { .. })),
        "adaptive timer arms must be traced"
    );
    assert!(
        has(&|e| matches!(e, TraceEvent::FaultInjected { .. })),
        "injected faults must be traced"
    );
    assert!(cl.counters().faults_injected() > 0);
    // The rto_applied histogram mirrors the Backoff trace events.
    let backoffs = cl
        .tracer()
        .iter()
        .filter(|r| r.event.kind() == "backoff")
        .count() as u64;
    assert_eq!(cl.metrics().rto_applied.count(), backoffs);
}

#[test]
fn tracer_disabled_by_default_and_capacity_bounds_memory() {
    let cfg = OpenMxConfig::with_mode(PinningMode::Overlapped);
    let mut cl = Cluster::new(cfg, 2);
    assert!(!cl.tracer().is_enabled());
    cl.enable_trace_with_capacity(8);
    cl.add_process(
        0,
        Box::new(Sender {
            len: 1 << 20,
            sent: 0,
            msgs: 1,
            buf: VirtAddr(0),
        }),
    );
    cl.add_process(
        1,
        Box::new(Receiver {
            len: 1 << 20,
            got: 0,
            msgs: 1,
            buf: VirtAddr(0),
        }),
    );
    cl.run(None);
    assert_eq!(cl.tracer().len(), 8, "ring must stay at capacity");
    assert!(cl.tracer().dropped() > 0, "overflow must be counted");
}
