//! The seeded scenarios and byte-comparison helpers shared by the
//! golden tests.
#![allow(dead_code)] // each test binary uses a subset of these helpers

use std::cell::RefCell;
use std::rc::Rc;

use openmx_core::engine::{AppEvent, Cluster, Ctx, ProcId, Process};
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

/// The golden-trace run: eager and rendezvous traffic, overlapped pinning
/// with the bottom half on the pinning core, 1% random loss, and a
/// receiver crash mid-transfer.
pub fn golden_run() -> (Cluster, Vec<&'static str>) {
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
pub fn assert_same(name: &str, got: &str, want: &str) {
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

pub fn golden(file: &str) -> String {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}
