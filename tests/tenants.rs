//! Multi-tenant behaviour at the engine level: pin-quota denials, per-tenant
//! attribution, and the pin-budget ledger when a pin pass fails part-way.
//! `Cluster::run` audits the pin ledger and the tenant books (see
//! `openmx_core::audit`) before it returns, so every test here checks
//! them.

mod common;

use std::cell::Cell;
use std::rc::Rc;

use common::{cfg, verified_stream};
use openmx_core::engine::{AppEvent, Cluster, Ctx, ProcId, Process};
use openmx_core::{Counter, PinQuota, PinningMode};
use simmem::{VirtAddr, PAGE_SIZE};

const PAGES: u64 = 80;
const LEN: u64 = PAGES * PAGE_SIZE;

struct TailSender {
    buf: Rc<Cell<VirtAddr>>,
    failed: Rc<Cell<bool>>,
}

impl Process for TailSender {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        let buf = ctx.malloc(LEN);
        self.buf.set(buf);
        ctx.isend(ProcId(1), 7, buf, LEN);
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        if let AppEvent::Failed(_, reason) = ev {
            assert!(reason.contains("pinning failed"), "reason: {reason}");
            self.failed.set(true);
        }
        ctx.stop();
    }
}

struct TailReceiver;
impl Process for TailReceiver {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        let buf = ctx.malloc(LEN);
        ctx.irecv(7, !0, buf, LEN);
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_>, _ev: AppEvent) {
        ctx.stop();
    }
}

/// Regression: a pin pass that fails part-way (here: the last page of the
/// buffer is unmapped after the first chunk lands, so a later chunk hits an
/// invalid PTE) rolls the region's pages back via `unpin_all` inside the
/// driver. Those rolled-back pages must be credited to the unpin ledger and
/// debited from the owner's attribution, or `pin_pages` drifts away from
/// `unpin_pages + pressure_unpinned_pages + attached` forever.
#[test]
fn failed_partial_pin_keeps_the_unpin_ledger_exact() {
    let buf = Rc::new(Cell::new(VirtAddr(0)));
    let failed = Rc::new(Cell::new(false));
    let mut cl = Cluster::new(cfg(PinningMode::OverlappedCached), 2);
    cl.add_process(
        0,
        Box::new(TailSender {
            buf: buf.clone(),
            failed: failed.clone(),
        }),
    );
    cl.add_process(1, Box::new(TailReceiver));

    // Step in 1 us slices until the first pin chunk of the sender's 80-page
    // region has landed but the cursor has not yet reached the tail, then
    // unmap only the last page. The notifier range is ahead of the cursor,
    // so nothing goes stale and no generation bump aborts the pass: the
    // pass keeps running and the chunk covering page 79 fails mid-flight.
    let mut unmapped = false;
    for us in 1..200_000u64 {
        cl.step_until(simcore::SimTime::from_nanos(us * 1_000));
        let valid = cl
            .driver(0)
            .iter_regions()
            .find(|(_, r)| r.layout.total_pages() == PAGES)
            .map(|(_, r)| r.valid_pages());
        if let Some(v) = valid {
            if (1..=64).contains(&v) {
                let tail = VirtAddr(buf.get().0 + (PAGES - 1) * PAGE_SIZE);
                cl.vm_munmap(ProcId(0), tail, PAGE_SIZE).unwrap();
                unmapped = true;
                break;
            }
            assert!(v < PAGES, "pass finished before we could unmap the tail");
        }
    }
    assert!(unmapped, "never caught the pin pass mid-flight");
    cl.run(Some(simcore::SimTime::from_nanos(30_000_000_000)));

    assert!(failed.get(), "send over the torn region must abort");
    let c0 = cl.node_counters(0);
    assert!(c0.get(Counter::PinPages) >= 32, "at least one chunk landed");
    assert!(c0.get(Counter::PinFailures) >= 1);
    // The failed pass rolled everything back: nothing stays attached and
    // nothing stays attributed to the sender.
    assert_eq!(cl.driver(0).pinned_pages_total(), 0);
    assert_eq!(cl.driver(0).pinned_pages_of(ProcId(0)), 0);
}

struct QuotaSender {
    peer: ProcId,
    tag: u64,
    len: u64,
    failed: Rc<Cell<bool>>,
    sent: Rc<Cell<bool>>,
}

impl Process for QuotaSender {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        let buf = ctx.malloc(self.len);
        ctx.isend(self.peer, self.tag, buf, self.len);
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::SendDone(_) => self.sent.set(true),
            AppEvent::Failed(_, reason) => {
                assert!(reason.contains("quota"), "reason: {reason}");
                self.failed.set(true);
            }
            other => panic!("unexpected event {other:?}"),
        }
        ctx.stop();
    }
}

struct QuotaReceiver {
    tag: u64,
    len: u64,
    got: Rc<Cell<bool>>,
}

impl Process for QuotaReceiver {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        let buf = ctx.malloc(self.len);
        ctx.irecv(self.tag, !0, buf, self.len);
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        if let AppEvent::RecvDone(..) = ev {
            self.got.set(true);
        }
        ctx.stop();
    }
}

/// A tenant over its hard cap with no idle regions of its own to shed gets
/// a clean `Failed("pin quota exceeded")` denial — and a neighbour under
/// its cap on the same node is completely unaffected.
#[test]
fn quota_hard_cap_denies_cleanly_without_touching_neighbours() {
    let mut c = cfg(PinningMode::OverlappedCached);
    c.pinned_pages_limit = None;
    c.pin_quota = Some(PinQuota {
        soft_share: 32,
        hard_cap: 48,
    });

    let big_failed = Rc::new(Cell::new(false));
    let big_sent = Rc::new(Cell::new(false));
    let small_sent = Rc::new(Cell::new(false));
    let small_got = Rc::new(Cell::new(false));

    let mut cl = Cluster::new(c, 2);
    cl.enable_trace();
    // ProcId(0): wants 80 pages, cap is 48 -> denied at the second chunk.
    cl.add_process(
        0,
        Box::new(QuotaSender {
            peer: ProcId(2),
            tag: 1,
            len: LEN,
            failed: big_failed.clone(),
            sent: big_sent.clone(),
        }),
    );
    // ProcId(1): 32 pages, under the cap -> sails through untouched.
    cl.add_process(
        0,
        Box::new(QuotaSender {
            peer: ProcId(3),
            tag: 2,
            len: 32 * PAGE_SIZE,
            failed: Rc::new(Cell::new(false)),
            sent: small_sent.clone(),
        }),
    );
    cl.add_process(
        1,
        Box::new(QuotaReceiver {
            tag: 1,
            len: LEN,
            got: Rc::new(Cell::new(false)),
        }),
    );
    cl.add_process(
        1,
        Box::new(QuotaReceiver {
            tag: 2,
            len: 32 * PAGE_SIZE,
            got: small_got.clone(),
        }),
    );
    cl.run(Some(simcore::SimTime::from_nanos(30_000_000_000)));

    assert!(big_failed.get(), "over-cap tenant must be denied");
    assert!(!big_sent.get());
    assert!(small_sent.get(), "under-cap neighbour must complete");
    assert!(small_got.get());

    let c0 = cl.node_counters(0);
    assert_eq!(c0.get(Counter::QuotaDenials), 1);
    assert!(cl.tracer().iter().any(|r| r.kind() == "pin_denied"));

    // Per-tenant attribution: the denied tenant holds nothing and the
    // neighbour's cached region stays pinned and attributed.
    let d = cl.driver(0);
    assert_eq!(d.pinned_pages_of(ProcId(0)), 0);
    assert_eq!(d.pinned_pages_of(ProcId(1)), 32);
    let stats = d.tenant_stats();
    let big = stats.iter().find(|(p, _)| *p == ProcId(0)).unwrap().1;
    let small = stats.iter().find(|(p, _)| *p == ProcId(1)).unwrap().1;
    assert_eq!(big.quota_denials, 1);
    assert_eq!(big.pinned_pages, 0);
    assert!(big.peak_pinned_pages <= 48, "cap enforced at all times");
    assert_eq!(small.quota_denials, 0);
    assert_eq!(small.pinned_pages, 32);
    assert_eq!(small.evictions_suffered_from_others, 0);
}

/// A generous quota is invisible: the stream completes byte-identical with
/// zero denials (and the run's audit finds the tenant books exact).
#[test]
fn generous_quota_does_not_perturb_a_healthy_stream() {
    let mut c = cfg(PinningMode::OverlappedCached);
    c.pin_quota = Some(PinQuota {
        soft_share: 1024,
        hard_cap: 4096,
    });
    let (cl, _) = verified_stream(&c, 512 * 1024, 4);
    assert_eq!(cl.counters().get(Counter::QuotaDenials), 0);
}
