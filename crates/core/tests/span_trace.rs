//! Integration tests for causal transfer tracing: one rendezvous
//! transfer under packet loss must fold into a single correlated
//! cross-node span tree whose critical-path attribution partitions the
//! end-to-end latency exactly.

use openmx_core::engine::{AppEvent, Cluster, Ctx, ProcId, Process};
use openmx_core::obs::{build_spans, per_proc_latency, post_mortem_json};
use openmx_core::{Counter, OpenMxConfig, PinningMode};
use simcore::SimDuration;
use simmem::VirtAddr;
use simnet::{FaultConfig, FaultProfile};

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

/// Overlapped pinning, 5% i.i.d. loss on both directions of the 0↔1 link.
fn lossy_cfg() -> OpenMxConfig {
    let mut cfg = OpenMxConfig::with_mode(PinningMode::Overlapped);
    let mut faults = FaultConfig::clean();
    let lossy = FaultProfile {
        loss: 0.05,
        ..FaultProfile::default()
    };
    faults.set_link(0, 1, lossy);
    faults.set_link(1, 0, lossy);
    cfg.net.faults = faults;
    cfg.retransmit_timeout = SimDuration::from_millis(20);
    cfg
}

/// The acceptance scenario: ONE rendezvous transfer under 5% loss folds
/// into a SINGLE span tree with records from both nodes, and
/// pin_wait + wire + retransmit_backoff + host_overhead equals the
/// transfer's end-to-end latency (the partition is exact, so "within one
/// virtual tick" holds with zero slack).
#[test]
fn lossy_rndv_produces_one_exact_cross_node_span() {
    let cl = run_stream(lossy_cfg(), 1 << 20, 1);
    assert!(
        cl.counters().get(Counter::NetFramesLost) > 0,
        "the 5% loss links must actually drop frames"
    );

    let spans = build_spans(cl.tracer());
    assert_eq!(
        spans.len(),
        1,
        "one transfer must correlate into exactly one span tree"
    );
    let s = &spans[0];
    assert_eq!(
        s.nodes,
        vec![0, 1],
        "the span must contain records from both the sender and receiver node"
    );
    assert!(s.events > 4, "rndv + pulls + completion events expected");

    let cp = &s.critical_path;
    assert_eq!(
        cp.pin_wait_ns + cp.wire_ns + cp.retransmit_backoff_ns + cp.host_overhead_ns,
        s.duration_ns(),
        "attribution must partition the end-to-end latency exactly"
    );
    assert!(
        cp.wire_ns > 0,
        "a 1 MiB pull phase must spend time on the wire"
    );

    // The span begins at the sender's rendezvous transmission (the timer
    // arm's backoff record and the rndv_tx share that instant) and covers
    // the whole causal chain.
    let first = cl
        .tracer()
        .iter()
        .find(|r| r.event.msg().is_some())
        .unwrap();
    assert_eq!(first.node, 0, "the causal chain starts on the sender node");
    assert!(matches!(first.kind(), "backoff" | "rndv_tx"));
    assert_eq!(s.start_ns, first.time.as_nanos());
}

/// Forced overlap miss + retransmission recovery: the miss recovery goes
/// through the pull-stall timer, so the attribution must charge a nonzero
/// share to retransmit backoff — and still sum exactly.
#[test]
fn forced_miss_attribution_charges_backoff_and_sums_exactly() {
    let mut cfg = OpenMxConfig::with_mode(PinningMode::Overlapped);
    cfg.colocate_with_bh = true;
    cfg.retransmit_timeout = SimDuration::from_millis(5);
    let cl = run_stream(cfg, 4 << 20, 2);
    assert!(
        cl.counters().get(Counter::OverlapMissRx) > 0,
        "misses must be forced"
    );

    let spans = build_spans(cl.tracer());
    assert_eq!(spans.len(), 2, "two transfers, two spans");
    let total_backoff: u64 = spans
        .iter()
        .map(|s| s.critical_path.retransmit_backoff_ns)
        .sum();
    assert!(
        total_backoff > 0,
        "miss recovery via the stall timer must be attributed to backoff"
    );
    for s in &spans {
        assert_eq!(
            s.critical_path.total_ns(),
            s.duration_ns(),
            "xfer {}: attribution must be exact",
            s.msg.0
        );
        assert!(
            s.children.iter().any(|c| c.name == "overlap_window"),
            "xfer {}: the rndv→first-pull overlap window must be a child span",
            s.msg.0
        );
    }

    let stats = per_proc_latency(&spans);
    assert_eq!(stats.len(), 1, "both transfers initiated by proc 0");
    assert_eq!(stats[0].count, 2);
    assert!(stats[0].p50_ns > 0 && stats[0].p50_ns <= stats[0].p99_ns);
}

/// The tracer ring's evicted-record count must be mirrored into the
/// post-mortem's metrics section, so dumps are self-describing about
/// truncation.
#[test]
fn dropped_events_mirrored_into_metrics() {
    let cfg = OpenMxConfig::with_mode(PinningMode::Overlapped);
    let mut cl = Cluster::new(cfg, 2);
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
    assert!(cl.tracer().dropped() > 0);
    let dump = post_mortem_json("t", None, cl.tracer(), cl.metrics(), &cl.counters(), 0);
    let mirrored = format!(
        "\"dropped_events\":{},\"pin_bursts\"",
        cl.tracer().dropped()
    );
    assert!(dump.contains(&mirrored), "{dump}");
}
