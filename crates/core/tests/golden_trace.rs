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

use std::cell::RefCell;
use std::rc::Rc;

use openmx_core::engine::{AppEvent, Cluster, Ctx, ProcId, Process};
use openmx_core::obs::{build_spans, chrome_spans_json, chrome_trace_json, csv};
use openmx_core::{OpenMxConfig, PinningMode};
use simcore::{SimDuration, SimTime};
use simmem::VirtAddr;

const EAGER_LEN: u64 = 16 * 1024;
const RNDV_LEN: u64 = 2 * 1024 * 1024;
const MSGS: u64 = 12;
/// When the receiver dies: two rendezvous transfers have completed and
/// the third is mid-pull with frames on the wire.
const CRASH_AT: SimTime = SimTime::from_nanos(12_500_000);

fn len_of(i: u64) -> u64 {
    if i.is_multiple_of(4) {
        RNDV_LEN
    } else {
        EAGER_LEN
    }
}

/// Sends `MSGS` messages to proc 1, one rendezvous then three eager, each
/// after the previous one completed.
struct Sender {
    buf: VirtAddr,
    next: u64,
    failures: Rc<RefCell<Vec<&'static str>>>,
}

impl Sender {
    fn send_next(&mut self, ctx: &mut Ctx<'_>) {
        if self.next == MSGS {
            ctx.stop();
            return;
        }
        ctx.isend(ProcId(1), self.next, self.buf, len_of(self.next));
        self.next += 1;
    }
}

impl Process for Sender {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.buf = ctx.malloc(RNDV_LEN);
        let pattern: Vec<u8> = (0..RNDV_LEN).map(|i| (i % 251) as u8).collect();
        ctx.write_buf(self.buf, &pattern);
        self.send_next(ctx);
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::SendDone(_) => self.send_next(ctx),
            AppEvent::Failed(_, reason) => {
                self.failures.borrow_mut().push(reason);
                ctx.stop();
            }
            _ => {}
        }
    }
}

/// Receives the sender's messages in order, posting each receive after
/// the previous one completed.
struct Receiver {
    buf: VirtAddr,
    next: u64,
}

impl Receiver {
    fn post_next(&mut self, ctx: &mut Ctx<'_>) {
        if self.next == MSGS {
            ctx.stop();
            return;
        }
        ctx.irecv(self.next, !0, self.buf, len_of(self.next));
        self.next += 1;
    }
}

impl Process for Receiver {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.buf = ctx.malloc(RNDV_LEN);
        self.post_next(ctx);
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        if let AppEvent::RecvDone(..) = ev {
            self.post_next(ctx);
        }
    }
}

fn golden_run() -> (Cluster, Vec<&'static str>) {
    let mut cfg = OpenMxConfig::with_mode(PinningMode::Overlapped);
    cfg.colocate_with_bh = true;
    cfg.net.loss_probability = 0.01;
    cfg.retransmit_timeout = SimDuration::from_millis(5);
    cfg.seed = 6;
    let failures = Rc::new(RefCell::new(Vec::new()));
    let mut cl = Cluster::new(cfg, 2);
    cl.enable_trace();
    cl.add_process(
        0,
        Box::new(Sender {
            buf: VirtAddr(0),
            next: 0,
            failures: failures.clone(),
        }),
    );
    cl.add_process(
        1,
        Box::new(Receiver {
            buf: VirtAddr(0),
            next: 0,
        }),
    );
    cl.step_until(CRASH_AT);
    cl.crash_proc(ProcId(1));
    cl.run(None);
    let failures = failures.borrow().clone();
    (cl, failures)
}

/// Byte comparison that, on a mismatch, shows the neighbourhood of the
/// first differing byte instead of dumping two large exports.
fn assert_same(name: &str, got: &str, want: &str) {
    if got == want {
        return;
    }
    let at = got
        .bytes()
        .zip(want.bytes())
        .position(|(g, w)| g != w)
        .unwrap_or(got.len().min(want.len()));
    let window = |s: &str| {
        let lo = s.floor_char_boundary(at.saturating_sub(120));
        let hi = s.ceil_char_boundary((at + 120).min(s.len()));
        s[lo..hi].to_string()
    };
    panic!(
        "{name} differs from its golden file at byte {at} (lengths {} vs {}):\n got: {}\nwant: {}",
        got.len(),
        want.len(),
        window(got),
        window(want)
    );
}

fn golden(file: &str) -> String {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

#[test]
fn scenario_reaches_every_recovery_path() {
    let (cl, failures) = golden_run();
    let c = cl.counters();
    assert!(c.get("eager_msgs_tx") > 0 && c.get("rndv_msgs_tx") > 0);
    assert!(c.get("overlap_miss_rx") > 0, "overlap misses");
    assert!(c.get("net_frames_lost") > 0, "random loss");
    for k in ["eager_retrans", "rndv_retrans", "pull_stall_timeouts"] {
        assert!(c.get(k) > 0, "no {k}");
    }
    assert!(c.get("frames_fenced") > 0, "fenced frames");
    assert_eq!(c.get("peer_dead_aborts"), 1, "one peer-dead abort");
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
