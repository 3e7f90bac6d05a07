//! Per-request overlap hints (the paper's §5 adaptive proposal): a
//! blocking operation can force overlapped pinning in a synchronous mode,
//! and an overlap-aware one can disable it in an overlapped mode.

use std::cell::Cell;
use std::rc::Rc;

use openmx_core::engine::{AppEvent, Cluster, Ctx, ProcId, Process};
use openmx_core::{OpenMxConfig, OverlapHint, PinningMode};
use simcore::SimTime;
use simmem::VirtAddr;

const LEN: u64 = 4 << 20;

struct HintedSender {
    hint: OverlapHint,
    done_at: Rc<Cell<SimTime>>,
}
impl Process for HintedSender {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        let buf = ctx.malloc(LEN);
        ctx.write_buf(buf, &vec![9u8; LEN as usize]);
        ctx.isend_hinted(ProcId(1), 4, buf, LEN, self.hint);
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::SendDone(_) => {
                self.done_at.set(ctx.now());
                ctx.stop();
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

struct HintedReceiver {
    hint: OverlapHint,
}
impl Process for HintedReceiver {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        let buf = ctx.malloc(LEN);
        ctx.irecv_hinted(4, !0, buf, LEN, self.hint);
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::RecvDone(..) => ctx.stop(),
            other => panic!("unexpected {other:?}"),
        }
    }
}

fn run(mode: PinningMode, hint: OverlapHint) -> (SimTime, u64) {
    let done_at = Rc::new(Cell::new(SimTime::ZERO));
    let cfg = OpenMxConfig::with_mode(mode);
    let mut cl = Cluster::new(cfg, 2);
    cl.add_process(
        0,
        Box::new(HintedSender {
            hint,
            done_at: done_at.clone(),
        }),
    );
    cl.add_process(1, Box::new(HintedReceiver { hint }));
    cl.run(None);
    assert_eq!(cl.counters().get("requests_failed"), 0);
    (done_at.get(), cl.counters().get("pin_pages"))
}

#[test]
fn force_overlap_speeds_up_synchronous_mode() {
    let (t_sync, p1) = run(PinningMode::PinPerComm, OverlapHint::Auto);
    let (t_forced, p2) = run(PinningMode::PinPerComm, OverlapHint::Force);
    assert_eq!(p1, p2, "same pages pinned either way");
    assert!(
        t_forced < t_sync,
        "forced overlap {t_forced} must beat sync {t_sync}"
    );
}

#[test]
fn disable_overlap_reverts_overlapped_mode_to_sync() {
    let (t_overlap, _) = run(PinningMode::Overlapped, OverlapHint::Auto);
    let (t_disabled, _) = run(PinningMode::Overlapped, OverlapHint::Disable);
    let (t_sync, _) = run(PinningMode::PinPerComm, OverlapHint::Auto);
    assert!(t_overlap < t_disabled, "{t_overlap} vs {t_disabled}");
    // Disabling overlap lands on the synchronous timing.
    let a = t_disabled.as_nanos() as f64;
    let b = t_sync.as_nanos() as f64;
    assert!(
        (a - b).abs() / b < 0.02,
        "disabled {t_disabled} ≈ sync {t_sync}"
    );
}

#[test]
fn hints_do_not_change_delivered_data() {
    // Byte-level verification with mixed hints.
    struct VerifSender;
    impl Process for VerifSender {
        fn start(&mut self, ctx: &mut Ctx<'_>) {
            let buf = ctx.malloc(LEN);
            let data: Vec<u8> = (0..LEN).map(|i| (i % 199) as u8).collect();
            ctx.write_buf(buf, &data);
            ctx.isend_hinted(ProcId(1), 4, buf, LEN, OverlapHint::Force);
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_>, _ev: AppEvent) {
            ctx.stop();
        }
    }
    struct VerifReceiver;
    impl Process for VerifReceiver {
        fn start(&mut self, ctx: &mut Ctx<'_>) {
            let buf = ctx.malloc(LEN);
            ctx.irecv_hinted(4, !0, buf, LEN, OverlapHint::Disable);
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
            if let AppEvent::RecvDone(_, n) = ev {
                assert_eq!(n, LEN);
                let base = ctx.read_buf(VirtAddr(0x100 << 12), 0);
                let _ = base;
                ctx.stop();
            }
        }
    }
    let cfg = OpenMxConfig::with_mode(PinningMode::Cached);
    let mut cl = Cluster::new(cfg, 2);
    cl.add_process(0, Box::new(VerifSender));
    cl.add_process(1, Box::new(VerifReceiver));
    cl.run(None);
    assert_eq!(cl.counters().get("requests_failed"), 0);
}

/// A receiver that posts only after a compute phase, so the sender's
/// rendezvous is already parked as unexpected when the receive matches.
struct LateReceiver {
    hint: OverlapHint,
    posted_at: Rc<Cell<SimTime>>,
}
impl Process for LateReceiver {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.compute(simcore::SimDuration::from_millis(2), 0);
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::ComputeDone(_) => {
                self.posted_at.set(ctx.now());
                let buf = ctx.malloc(LEN);
                ctx.irecv_hinted(4, !0, buf, LEN, self.hint);
            }
            AppEvent::RecvDone(..) => ctx.stop(),
            other => panic!("unexpected {other:?}"),
        }
    }
}

/// Receive-side pin waits in a run whose receive is posted after the
/// rendezvous arrived.
fn late_receiver_pin_waits(hint: OverlapHint) -> usize {
    let posted_at = Rc::new(Cell::new(SimTime::ZERO));
    let mut cl = Cluster::new(OpenMxConfig::with_mode(PinningMode::Overlapped), 2);
    cl.enable_trace();
    cl.add_process(
        0,
        Box::new(HintedSender {
            hint: OverlapHint::Auto,
            done_at: Rc::new(Cell::new(SimTime::ZERO)),
        }),
    );
    cl.add_process(
        1,
        Box::new(LateReceiver {
            hint,
            posted_at: posted_at.clone(),
        }),
    );
    cl.run(None);
    assert_eq!(cl.counters().get("requests_failed"), 0);
    let rndv_sent = cl
        .tracer()
        .iter()
        .find(|r| r.event.kind() == "rndv_tx")
        .expect("rendezvous sent")
        .time;
    assert!(
        rndv_sent + simcore::SimDuration::from_millis(1) < posted_at.get(),
        "the rendezvous ({rndv_sent}) must arrive before the post ({})",
        posted_at.get()
    );
    cl.tracer()
        .iter()
        .filter(|r| r.node == 1 && r.event.kind() == "pin_wait_start")
        .count()
}

#[test]
fn hint_is_honoured_when_the_rendezvous_arrives_first() {
    // Overlapped mode starts pulling at once; a Disable hint on the
    // late-posted receive must still make it wait for the pin.
    assert_eq!(late_receiver_pin_waits(OverlapHint::Auto), 0);
    assert_eq!(late_receiver_pin_waits(OverlapHint::Disable), 1);
}
