//! The registration-cache correctness problem, made visible — and the
//! MMU-notifier fix (paper §2.1, §3.1).
//!
//! A pinning cache keeps user buffers pinned across communications. If
//! the application frees such a buffer and the allocator later returns
//! the *same virtual address* backed by *different physical pages*, a
//! cache that never learns about the `munmap` keeps DMA-ing the stale
//! frames: silent data corruption. That is why user-space caches intercept
//! `free`/`munmap` — unreliably — and why the paper moves invalidation
//! into the kernel with MMU notifiers.
//!
//! This example runs the exact free-then-realloc scenario twice:
//! with `use_mmu_notifiers = false` the receiver observes the *old*
//! payload (corruption); with notifiers enabled the driver unpins on the
//! `munmap`, repins on demand at the next send, and the receiver sees the
//! fresh bytes.
//!
//! Run: `cargo run --release --example invalidation`

use std::cell::Cell;
use std::rc::Rc;

use openmx_core::engine::{AppEvent, Cluster, Ctx, ProcId, Process};
use openmx_core::{Counter, OpenMxConfig, PinningMode};
use simmem::VirtAddr;

const LEN: u64 = 1 << 20;

fn pattern(gen: u8) -> Vec<u8> {
    (0..LEN).map(|i| (i as u8) ^ gen).collect()
}

struct Sender {
    buf: VirtAddr,
    round: u8,
}

impl Process for Sender {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.buf = ctx.malloc(LEN);
        ctx.write_buf(self.buf, &pattern(1));
        ctx.isend(ProcId(1), 1, self.buf, LEN);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::SendDone(_) if self.round == 0 => {
                self.round = 1;
                // free + malloc: same VA back, *different* physical pages.
                ctx.free(self.buf);
                let again = ctx.malloc(LEN);
                assert_eq!(again, self.buf, "allocator reuses the address");
                ctx.write_buf(again, &pattern(2));
                ctx.isend(ProcId(1), 2, again, LEN);
            }
            AppEvent::SendDone(_) => ctx.stop(),
            other => panic!("sender: unexpected {other:?}"),
        }
    }
}

struct Receiver {
    buf: VirtAddr,
    round: u8,
    corrupted: Rc<Cell<bool>>,
}

impl Process for Receiver {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.buf = ctx.malloc(LEN);
        ctx.irecv(1, !0, self.buf, LEN);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::RecvDone(..) if self.round == 0 => {
                assert_eq!(ctx.read_buf(self.buf, LEN), pattern(1));
                self.round = 1;
                ctx.irecv(2, !0, self.buf, LEN);
            }
            AppEvent::RecvDone(..) => {
                let got = ctx.read_buf(self.buf, LEN);
                self.corrupted.set(got != pattern(2));
                ctx.stop();
            }
            other => panic!("receiver: unexpected {other:?}"),
        }
    }
}

fn run(use_notifiers: bool) -> bool {
    let corrupted = Rc::new(Cell::new(false));
    let mut cfg = OpenMxConfig::with_mode(PinningMode::Cached);
    cfg.use_mmu_notifiers = use_notifiers;
    let mut cl = Cluster::new(cfg, 2);
    cl.add_process(
        0,
        Box::new(Sender {
            buf: VirtAddr(0),
            round: 0,
        }),
    );
    cl.add_process(
        1,
        Box::new(Receiver {
            buf: VirtAddr(0),
            round: 0,
            corrupted: corrupted.clone(),
        }),
    );
    cl.run(None);
    let invalidations = cl.node_counters(0).get(Counter::NotifierRegionUnpins);
    println!("  notifier invalidations on the sender node: {invalidations}");
    corrupted.get()
}

fn main() {
    println!("scenario: send 1 MiB, free the buffer, malloc it back at the same");
    println!("address, fill with new data, send again (pinning cache enabled)\n");

    println!("without MMU notifiers (stale pinning cache):");
    let corrupted = run(false);
    println!(
        "  second message payload: {}\n",
        if corrupted {
            "STALE — the receiver got the OLD bytes (silent corruption!)"
        } else {
            "fresh (unexpected)"
        }
    );
    assert!(
        corrupted,
        "expected the stale cache to corrupt the transfer"
    );

    println!("with MMU notifiers (the paper's design):");
    let corrupted = run(true);
    println!(
        "  second message payload: {}",
        if corrupted {
            "STALE (unexpected)"
        } else {
            "fresh — munmap invalidated the region; the driver repinned on demand"
        }
    );
    assert!(!corrupted);
}
