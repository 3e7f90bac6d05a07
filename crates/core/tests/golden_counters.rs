//! Golden counters: two seeded runs whose counter snapshots must stay
//! byte-identical to `tests/golden/counters.txt`.
//!
//! * The golden-trace run (loss, overlap misses, a receiver crash).
//! * A realloc-churn run: with MMU notifiers on and a pinned-page limit
//!   below the sender's two buffers, every free and re-malloc of a cached
//!   buffer defers an unpin, repins cancel some deferred unpins, and pin
//!   passes evict under pressure.
//!
//! Each snapshot holds every nonzero cluster counter, every nonzero
//! node-scope counter per node, each node's `DriverStats`, the fabric's
//! `NetStats` and the full post-mortem JSON.
//!
//! There is no switch that rewrites the golden file. A deliberate change
//! to a counter regenerates it by hand and says why in CHANGES.md.

mod common;

use std::fmt::Write;

use common::{assert_same, golden, golden_run};
use openmx_core::engine::{AppEvent, Cluster, Ctx, ProcId, Process};
use openmx_core::obs::post_mortem_json;
use openmx_core::{Counter, OpenMxConfig, PinningMode};
use simmem::VirtAddr;

const CHURN_LEN: u64 = 256 * 1024;
const CHURN_ROUNDS: u64 = 8;

/// Counters the engine once kept in a cluster-scope set; the per-node
/// sections leave them out so they read the same before and after the
/// move to node scope.
const CLUSTER_SCOPE: [&str; 12] = [
    "eager_dup_frags",
    "eager_ack_dup",
    "notify_dup",
    "rndv_dup",
    "pull_req_stale",
    "pull_reply_stale",
    "pull_reply_bogus",
    "dup_frames_rx",
    "eager_retrans",
    "notify_retrans",
    "eager_abandoned",
    "notify_abandoned",
];

/// Counters added after the golden file was made. `pull_frames_ok` is
/// still pinned, through the post-mortem's `overlap_miss_rate`.
const NEWER_THAN_GOLDEN: [&str; 1] = ["pull_frames_ok"];

/// Frees and re-mallocs one of its two buffers before each send, so the
/// cached region over it is invalidated and repinned every round.
struct ChurnSender {
    bufs: [VirtAddr; 2],
    round: u64,
}

impl ChurnSender {
    fn send_next(&mut self, ctx: &mut Ctx<'_>) {
        if self.round == CHURN_ROUNDS {
            ctx.stop();
            return;
        }
        let slot = (self.round % 2) as usize;
        ctx.free(self.bufs[slot]);
        self.bufs[slot] = ctx.malloc(CHURN_LEN);
        ctx.write_buf(self.bufs[slot], &vec![self.round as u8; CHURN_LEN as usize]);
        ctx.isend(ProcId(1), self.round, self.bufs[slot], CHURN_LEN);
        self.round += 1;
    }
}

impl Process for ChurnSender {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.bufs = [ctx.malloc(CHURN_LEN), ctx.malloc(CHURN_LEN)];
        self.send_next(ctx);
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        if let AppEvent::SendDone(_) = ev {
            self.send_next(ctx);
        }
    }
}

/// Receives every round into one buffer, which it frees and re-mallocs
/// after each delivery.
struct ChurnReceiver {
    buf: VirtAddr,
    round: u64,
}

impl ChurnReceiver {
    fn post_next(&mut self, ctx: &mut Ctx<'_>) {
        if self.round == CHURN_ROUNDS {
            ctx.stop();
            return;
        }
        ctx.irecv(self.round, !0, self.buf, CHURN_LEN);
        self.round += 1;
    }
}

impl Process for ChurnReceiver {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.buf = ctx.malloc(CHURN_LEN);
        self.post_next(ctx);
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        if let AppEvent::RecvDone(..) = ev {
            ctx.free(self.buf);
            self.buf = ctx.malloc(CHURN_LEN);
            self.post_next(ctx);
        }
    }
}

fn churn_run() -> Cluster {
    let mut cfg = OpenMxConfig::with_mode(PinningMode::OverlappedCached);
    cfg.pinned_pages_limit = Some(96);
    cfg.seed = 11;
    let mut cl = Cluster::new(cfg, 2);
    cl.add_process(
        0,
        Box::new(ChurnSender {
            bufs: [VirtAddr(0); 2],
            round: 0,
        }),
    );
    cl.add_process(
        1,
        Box::new(ChurnReceiver {
            buf: VirtAddr(0),
            round: 0,
        }),
    );
    cl.run(None);
    cl
}

/// The counter snapshot of one finished run.
fn snapshot(name: &str, cl: &Cluster, nodes: usize) -> String {
    let mut out = format!("== {name}\ncounters\n");
    for (k, v) in cl.counters().iter() {
        if v > 0 && !NEWER_THAN_GOLDEN.contains(&k) {
            let _ = writeln!(out, "  {k} {v}");
        }
    }
    for n in 0..nodes {
        let _ = writeln!(out, "node {n}");
        for (k, v) in cl.node_counters(n).iter() {
            if v > 0 && !CLUSTER_SCOPE.contains(&k) && !NEWER_THAN_GOLDEN.contains(&k) {
                let _ = writeln!(out, "  {k} {v}");
            }
        }
        let _ = writeln!(out, "  {:?}", cl.driver(n).stats());
    }
    let _ = writeln!(out, "net\n  {:?}", cl.net_stats());
    let pm = post_mortem_json("golden", None, cl.tracer(), cl.metrics(), &cl.counters(), 4);
    let _ = writeln!(out, "post_mortem\n  {pm}");
    out
}

#[test]
fn churn_run_reaches_every_driver_count() {
    let cl = churn_run();
    let c = cl.counters();
    for k in [
        Counter::NotifierDeferred,
        Counter::NotifierCancelled,
        Counter::NotifierDrainBatches,
        Counter::PressureUnpinnedPages,
    ] {
        assert!(c.get(k) > 0, "no {k:?}");
    }
    assert_eq!(c.get(Counter::RequestsFailed), 0);
}

#[test]
fn counters_match_golden() {
    let (golden_cl, _) = golden_run();
    let got = snapshot("golden_trace", &golden_cl, 2) + &snapshot("realloc_churn", &churn_run(), 2);
    assert_same("counters.txt", &got, &golden("counters.txt"));
}
