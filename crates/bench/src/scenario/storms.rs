//! Multi-tenant storms on one node: a noisy neighbor against per-tenant
//! pin quotas (`tenantstorm`) and repeated crash/restart of one tenant
//! (`crashstorm`). Both gate on steady-state pin waits read off the
//! trace, and both baselines are on the simulated clock, so CI compares
//! them byte for byte.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use openmx_core::{
    audit, AppEvent, Cluster, Counter, Ctx, OpenMxConfig, PinQuota, PinningMode, ProcId, Process,
    TraceEvent,
};
use simcore::{SimDuration, SimTime};
use simmem::{VirtAddr, PAGE_SIZE};

use crate::cli::Args;
use crate::table::{Baseline, Table};

/// Node-wide pinned-page ceiling in both storms.
const PINNED_LIMIT: usize = 256;
/// Rendezvous pre-synchronization threshold (paper §3.3): the rndv (and
/// the receiver's first pull) queue behind this many pinned pages, so a
/// transfer whose region lost its pins opens a traced pin-wait interval
/// on its next round.
const PRESYNC_PAGES: u64 = 16;
/// Think time of the well-behaved tenants between rounds — long enough
/// that an idle buffer becomes the LRU minimum under pressure.
const THINK_TIME: SimDuration = SimDuration::from_millis(1);

/// The storms' shared config: overlapped+cached pinning under the
/// node ceiling, with presync so repins show up as pin waits.
fn storm_cfg(quota: Option<PinQuota>) -> OpenMxConfig {
    let mut cfg = OpenMxConfig::with_mode(PinningMode::OverlappedCached);
    cfg.pinned_pages_limit = Some(PINNED_LIMIT);
    cfg.presync_pages = PRESYNC_PAGES;
    cfg.pin_quota = quota;
    cfg
}

/// Reposting receiver: one buffer, `rounds_left` back-to-back receives
/// (`u32::MAX`: until the run ends). Failures — a crashed peer — count
/// as a round and are shrugged off.
pub(super) struct Sink {
    tag: u64,
    len: u64,
    rounds_left: u32,
    buf: VirtAddr,
}

impl Sink {
    pub(super) fn boxed(tag: u64, pages: u64, rounds: u32) -> Box<Sink> {
        Box::new(Sink {
            tag,
            len: pages * PAGE_SIZE,
            rounds_left: rounds,
            buf: VirtAddr(0),
        })
    }
}

impl Process for Sink {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.buf = ctx.malloc(self.len);
        ctx.irecv(self.tag, !0, self.buf, self.len);
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::RecvDone(..) | AppEvent::Failed(..) => {
                self.rounds_left -= 1;
                if self.rounds_left == 0 {
                    ctx.stop();
                } else {
                    ctx.irecv(self.tag, !0, self.buf, self.len);
                }
            }
            other => panic!("sink: unexpected event {other:?}"),
        }
    }
}

/// The value at quantile `q` of `sorted` (nearest rank), 0 when empty.
fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx] as f64
}

/// Traced pin waits, sorted (ns): `PinWaitStart`/`End` paired by
/// `(msg, region)`, kept when `keep(proc, start)` holds for the process
/// the start was traced on.
fn pin_waits(cl: &Cluster, keep: impl Fn(u32, SimTime) -> bool) -> Vec<u64> {
    let mut open: BTreeMap<(u64, u32), (SimTime, u32)> = BTreeMap::new();
    let mut waits = Vec::new();
    for rec in cl.tracer().iter() {
        match rec.event {
            TraceEvent::PinWaitStart { msg, region } => {
                let proc = rec.proc.map(|p| p.0).unwrap_or(u32::MAX);
                open.insert((msg.0, region.0), (rec.time, proc));
            }
            TraceEvent::PinWaitEnd { msg, region } => {
                if let Some((start, proc)) = open.remove(&(msg.0, region.0)) {
                    if keep(proc, start) {
                        waits.push((rec.time - start).as_nanos());
                    }
                }
            }
            _ => {}
        }
    }
    waits.sort_unstable();
    waits
}

/// Pages per well-behaved tenant's buffer (32 pages = 128 KiB,
/// rendezvous-sized).
const TENANT_PAGES: u64 = 32;

/// A well-behaved tenant: send, think, repeat — `rounds_left` times
/// (`u32::MAX`: until the run ends), then count itself into `finished`.
/// A failed send (a crashed peer) is followed by thinking time too.
struct Tenant {
    peer: ProcId,
    tag: u64,
    rounds_left: u32,
    buf: VirtAddr,
    finished: Rc<Cell<usize>>,
}

impl Tenant {
    fn boxed(peer: usize, tag: usize, rounds: u32, finished: &Rc<Cell<usize>>) -> Box<Tenant> {
        Box::new(Tenant {
            peer: ProcId(peer as u32),
            tag: tag as u64,
            rounds_left: rounds,
            buf: VirtAddr(0),
            finished: finished.clone(),
        })
    }
}

impl Process for Tenant {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.buf = ctx.malloc(TENANT_PAGES * PAGE_SIZE);
        ctx.isend(self.peer, self.tag, self.buf, TENANT_PAGES * PAGE_SIZE);
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::SendDone(_) => {
                self.rounds_left -= 1;
                if self.rounds_left == 0 {
                    self.finished.set(self.finished.get() + 1);
                    ctx.stop();
                } else {
                    ctx.compute(THINK_TIME, 0);
                }
            }
            AppEvent::ComputeDone(_) => {
                ctx.isend(self.peer, self.tag, self.buf, TENANT_PAGES * PAGE_SIZE);
            }
            AppEvent::Failed(..) => ctx.compute(THINK_TIME, 0),
            other => panic!("tenant: unexpected event {other:?}"),
        }
    }
}

/// Pages per buffer of a [`Cycler`].
const CYCLER_PAGES: u64 = 64;
/// The tag a cycler's sink receives on.
const CYCLER_TAG: u64 = 100;

/// The heavy tenant of both storms — the noisy neighbor and the crash
/// victim: back-to-back sends round-robin over `n_bufs` buffers with no
/// think time, `rounds_left` of them (`u32::MAX`: until the run ends).
/// Each incarnation records the requests it posted; any completion for
/// a request it does not know is a ghost from a dead incarnation, which
/// the engine must never deliver.
struct Cycler {
    peer: ProcId,
    n_bufs: usize,
    rounds_left: u32,
    bufs: Vec<VirtAddr>,
    next: usize,
    mine: BTreeSet<u64>,
    ghosts: Rc<Cell<u64>>,
    /// Set to the completion time of this incarnation's first transfer.
    first_done: Rc<Cell<Option<SimTime>>>,
}

impl Cycler {
    fn boxed(peer: usize, n_bufs: usize, rounds: u32, cells: &CyclerCells) -> Box<Cycler> {
        Box::new(Cycler {
            peer: ProcId(peer as u32),
            n_bufs,
            rounds_left: rounds,
            bufs: Vec::new(),
            next: 0,
            mine: BTreeSet::new(),
            ghosts: cells.0.clone(),
            first_done: cells.1.clone(),
        })
    }

    fn post(&mut self, ctx: &mut Ctx<'_>) {
        let buf = self.bufs[self.next % self.n_bufs];
        self.next += 1;
        let req = ctx.isend(self.peer, CYCLER_TAG, buf, CYCLER_PAGES * PAGE_SIZE);
        self.mine.insert(req.0);
    }
}

/// What a [`Cycler`] reports: ghost completions, first completion time.
type CyclerCells = (Rc<Cell<u64>>, Rc<Cell<Option<SimTime>>>);

impl Process for Cycler {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..self.n_bufs {
            self.bufs.push(ctx.malloc(CYCLER_PAGES * PAGE_SIZE));
        }
        self.post(ctx);
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::SendDone(req) | AppEvent::Failed(req, _) => {
                if !self.mine.remove(&req.0) {
                    self.ghosts.set(self.ghosts.get() + 1);
                    return;
                }
                if matches!(ev, AppEvent::SendDone(_)) && self.first_done.get().is_none() {
                    self.first_done.set(Some(ctx.now()));
                }
                self.rounds_left -= 1;
                if self.rounds_left == 0 {
                    ctx.stop();
                } else {
                    self.post(ctx);
                }
            }
            other => panic!("cycler: unexpected event {other:?}"),
        }
    }
}

/// Distinct buffers the aggressor cycles through. Its full working set
/// (12 x 64 pages) overruns the node ceiling; quota-capped tenants
/// together stay under.
const AGGRESSOR_BUFS: usize = 12;
/// Victim processes (each with a dedicated receiver on the other node).
const VICTIMS: usize = 4;
/// Per-tenant quota in the protected world.
const QUOTA: PinQuota = PinQuota {
    soft_share: 64,
    hard_cap: 96,
};
/// Steady-state cutoff: pin waits starting before this are warmup (the
/// unavoidable cold first pin of each buffer) in both worlds.
const TENANT_WARMUP: SimTime = SimTime::from_nanos(5_000_000);
/// Required p99 pin-wait improvement of the quota world over the
/// unprotected world.
const REQUIRED_IMPROVEMENT: f64 = 10.0;
/// Floor for the protected world's p99 when it has no steady-state waits
/// at all (the expected case): 100 ns, one simulated per-page DMA setup,
/// so the ratio stays finite without drowning the off world's microsecond
/// -scale repin stalls.
const P99_FLOOR_NS: f64 = 100.0;

struct TenantWorld {
    /// Sorted steady-state victim pin-wait durations (ns).
    victim_waits: Vec<u64>,
    /// Cross-tenant eviction pages suffered by the victims.
    victims_suffered: u64,
    /// Aggressor peak attributed pinned pages.
    aggressor_peak: u64,
    /// Aggressor quota denials.
    aggressor_denials: u64,
    /// Pressure-evicted pages on the senders' node.
    pressure_pages: u64,
}

/// One storm: the aggressor and the victims share node 0, their sinks
/// live on node 1. `quota` switches the protected world on.
fn tenant_world(rounds: u32, quota: Option<PinQuota>) -> TenantWorld {
    let mut cl = Cluster::new(storm_cfg(quota), 2);
    cl.enable_trace_with_capacity(1 << 17);

    let finished = Rc::new(Cell::new(0));
    let agg_rounds = rounds * 6;
    // ProcId(0): the aggressor. ProcId(1..=VICTIMS): the victims.
    let cells = CyclerCells::default();
    cl.add_process(
        0,
        Cycler::boxed(VICTIMS + 1, AGGRESSOR_BUFS, agg_rounds, &cells),
    );
    for v in 0..VICTIMS {
        cl.add_process(0, Tenant::boxed(VICTIMS + 2 + v, v, rounds, &finished));
    }
    cl.add_process(1, Sink::boxed(CYCLER_TAG, CYCLER_PAGES, agg_rounds));
    for v in 0..VICTIMS {
        cl.add_process(1, Sink::boxed(v as u64, TENANT_PAGES, rounds));
    }
    cl.run(Some(SimTime::from_nanos(120_000_000_000)));
    assert_eq!(
        finished.get(),
        VICTIMS,
        "victims did not finish their rounds (quota={})",
        quota.is_some()
    );

    let victims = 1..=VICTIMS as u32;
    let victim_waits = pin_waits(&cl, |proc, start| {
        victims.contains(&proc) && start >= TENANT_WARMUP
    });
    let stats = cl.driver(0).tenant_stats();
    let tenant = |p: u32| {
        stats
            .iter()
            .find(|(q, _)| q.0 == p)
            .map(|&(_, t)| t)
            .unwrap_or_default()
    };
    TenantWorld {
        victim_waits,
        victims_suffered: victims
            .map(|p| tenant(p).evictions_suffered_from_others)
            .sum(),
        aggressor_peak: tenant(0).peak_pinned_pages,
        aggressor_denials: tenant(0).quota_denials,
        pressure_pages: cl.node_counters(0).get(Counter::PressureUnpinnedPages),
    }
}

/// Noisy-neighbor tenant storm: per-tenant pin quotas with weighted-fair
/// eviction vs the unprotected global-LRU driver.
///
/// One aggressor process round-robins rendezvous sends over twelve
/// 64-page buffers with no think time, so its pinned working set alone
/// overruns the node's pinned-page ceiling; four well-behaved victims on
/// the same node each loop a 32-page send followed by a 1 ms compute gap.
/// Without quotas the pressure evictor walks the global LRU, and the
/// victims' idle cached regions — the oldest entries by construction —
/// are exactly what it unpins: every victim round then stalls behind a
/// fresh pin pass. With quotas the aggressor is capped at its own hard
/// limit (self-evicting its own idle buffers), the node never reaches
/// the global ceiling, and the victims keep their pins.
///
/// The headline metric is the victims' steady-state pin-wait time (the
/// traced interval a transfer spends queued behind the pin cursor),
/// p50/p99 over all victim rounds past warmup. The gates assert the
/// quota world inflicts **zero** cross-tenant evictions on the victims
/// and bounds their p99 at least [`REQUIRED_IMPROVEMENT`]× below the
/// unprotected world's, while the aggressor stays within its cap.
/// `--smoke` runs fewer victim rounds (same gates).
///
/// Run: `cargo run --release -p openmx-bench -- tenantstorm [--smoke] [--out PATH]`
pub(crate) fn tenantstorm(args: &Args) -> Result<(), String> {
    let rounds: u32 = if args.smoke { 30 } else { 200 };

    let off = tenant_world(rounds, None);
    let on = tenant_world(rounds, Some(QUOTA));
    let q = |w: &TenantWorld, p| quantile(&w.victim_waits, p);
    let improvement = q(&off, 0.99) / q(&on, 0.99).max(P99_FLOOR_NS);

    let mut t = Table::new(
        "tenantstorm: victim pin-wait under a noisy neighbor (ns, steady state)",
        &[
            "world",
            "p50",
            "p99",
            "p999",
            "waits",
            "victim suffered pages",
            "aggressor peak",
        ],
    );
    for (world, w) in [("no quota", &off), ("quota 64/96", &on)] {
        t.row(vec![
            world.to_string(),
            format!("{:.0}", q(w, 0.50)),
            format!("{:.0}", q(w, 0.99)),
            format!("{:.0}", q(w, 0.999)),
            format!("{}", w.victim_waits.len()),
            format!("{}", w.victims_suffered),
            format!("{}", w.aggressor_peak),
        ]);
    }
    t.print();
    println!(
        "victim p99 improvement: {improvement:.1}x; aggressor denials with quota: {}; \
         pressure pages node0: off={} on={}",
        on.aggressor_denials, off.pressure_pages, on.pressure_pages
    );

    // Headline keys sit under "entries"; raw counts that scale with the
    // round axis go under "info".
    let mut b = Baseline::new("tenantstorm-v1");
    for (world, w) in [("off", &off), ("on", &on)] {
        b.entry(
            format!("{world}.victim_pin_wait_p50_ns"),
            format!("{:.1}", q(w, 0.50)),
        );
        b.entry(
            format!("{world}.victim_pin_wait_p99_ns"),
            format!("{:.1}", q(w, 0.99)),
        );
    }
    b.entry("on.victims_suffered_pages", on.victims_suffered);
    b.entry("on.aggressor_peak_pages", on.aggressor_peak);
    b.entry("p99_improvement", format!("{improvement:.2}"));
    b.info("rounds", rounds);
    b.info(
        "off.victim_pin_wait_p999_ns",
        format!("{:.0}", q(&off, 0.999)),
    );
    b.info(
        "on.victim_pin_wait_p999_ns",
        format!("{:.0}", q(&on, 0.999)),
    );
    b.info("off.waits", off.victim_waits.len());
    b.info("on.waits", on.victim_waits.len());
    b.info("off.victims_suffered_pages", off.victims_suffered);
    b.info("off.pressure_pages", off.pressure_pages);
    b.info("on.pressure_pages", on.pressure_pages);
    b.info("on.aggressor_denials", on.aggressor_denials);
    b.write(&args.out)?;
    println!("wrote {}", args.out);

    // The acceptance gates.
    assert!(
        off.victims_suffered > 0,
        "storm too weak: the unprotected world inflicted no cross-tenant evictions"
    );
    assert!(
        !off.victim_waits.is_empty(),
        "storm too weak: victims never waited on a pin in the unprotected world"
    );
    assert_eq!(
        on.victims_suffered, 0,
        "quota world must inflict zero cross-tenant evictions on the victims"
    );
    assert!(
        on.aggressor_peak <= QUOTA.hard_cap,
        "aggressor exceeded its hard cap: peak {} > {}",
        on.aggressor_peak,
        QUOTA.hard_cap
    );
    let (off_p99, on_p99) = (q(&off, 0.99), q(&on, 0.99));
    assert!(
        improvement >= REQUIRED_IMPROVEMENT,
        "victim p99 pin-wait only improved {improvement:.1}x \
         (off {off_p99:.0} ns vs on {on_p99:.0} ns, need {REQUIRED_IMPROVEMENT}x)"
    );
    println!(
        "tenantstorm OK: victim p99 pin-wait {off_p99:.0} ns -> {on_p99:.0} ns \
         ({improvement:.1}x), zero cross-tenant evictions under quota"
    );
    Ok(())
}

/// Distinct buffers the phoenix cycles through (192 pages of working
/// set: with the survivors' 96 the node overruns its 256-page ceiling,
/// so crashes double as pressure-relief events).
const PHOENIX_BUFS: usize = 3;
/// Survivor processes on node 0.
const SURVIVORS: usize = 3;
/// Traffic time before each crash.
const WORK_WINDOW: SimDuration = SimDuration::from_millis(4);
/// Dead time between crash and restart.
const DOWN_TIME: SimDuration = SimDuration::from_millis(1);
/// Per-cycle cap on waiting for the reborn phoenix's first completion.
const RECOVERY_CAP: SimDuration = SimDuration::from_millis(100);
/// Drive quantum while waiting for the recovery flag.
const RECOVERY_QUANTUM: SimDuration = SimDuration::from_micros(20);
/// Steady-state cutoff for survivor pin waits (cold first pins are
/// warmup in any world).
const CRASH_WARMUP: SimTime = SimTime::from_nanos(2_000_000);

/// Crash/restart recovery storm: incarnation-fenced endpoints and
/// orphan-pin reaping under repeated process crashes.
///
/// Three well-behaved survivor tenants share node 0 with one "phoenix"
/// process that is crashed and restarted every cycle while all four keep
/// rendezvous traffic flowing to sinks on node 1. The phoenix cycles a
/// working set large enough that, together with the survivors, the node
/// sits over its pinned-page ceiling — so every crash is also a pressure
/// event, and a missed reap would show up as both an orphaned pin and a
/// survivor stall.
///
/// Per cycle the harness asserts the two crash fault-domain invariants:
///
/// * **zero orphan pins** — the instant the crash returns, the state
///   audit finds no region owned by the dead incarnation (and every
///   other law holds);
/// * **zero ghost completions** — the restarted incarnation never
///   receives a completion for a request it did not post.
///
/// The headline metrics are recovery latency (crash to the reborn
/// process's first completed transfer, p50/p99 over cycles) and the
/// surviving tenants' steady-state p99 pin wait, which the crashes must
/// not inflate. `--smoke` runs fewer crash cycles (same gates).
///
/// Run: `cargo run --release -p openmx-bench -- crashstorm [--smoke] [--out PATH]`
pub(crate) fn crashstorm(args: &Args) -> Result<(), String> {
    let cycles: u32 = if args.smoke { 4 } else { 20 };

    let mut cl = Cluster::new(storm_cfg(None), 2);
    cl.enable_trace_with_capacity(1 << 18);

    let cells = CyclerCells::default();
    let (ghosts, first_done) = &cells;
    let phoenix = ProcId(SURVIVORS as u32);

    // ProcId(0..SURVIVORS): survivors; ProcId(SURVIVORS): the phoenix.
    let never = Rc::new(Cell::new(0));
    for s in 0..SURVIVORS {
        cl.add_process(0, Tenant::boxed(SURVIVORS + 2 + s, s, u32::MAX, &never));
    }
    cl.add_process(
        0,
        Cycler::boxed(SURVIVORS + 1, PHOENIX_BUFS, u32::MAX, &cells),
    );
    // Node 1: the phoenix's sink first, then one sink per survivor.
    cl.add_process(1, Sink::boxed(CYCLER_TAG, CYCLER_PAGES, u32::MAX));
    for s in 0..SURVIVORS {
        cl.add_process(1, Sink::boxed(s as u64, TENANT_PAGES, u32::MAX));
    }

    let mut recovery_ns: Vec<u64> = Vec::new();
    let mut orphan_pins_total = 0u64;
    let mut reaped_total = 0u64;

    for cycle in 0..cycles {
        let t = cl.now();
        cl.run(Some(t + WORK_WINDOW));

        let reaped_before = cl.counters().get(Counter::CrashReapedPages);
        let crash_at = cl.now();
        cl.crash_proc(phoenix);

        // Invariant: the kernel exit path reaps synchronously — the
        // instant crash_proc returns, the audit finds no orphan region
        // (counted for the gate below) and no other violation.
        let mut report = cl.audit();
        report.violations.retain(|v| match v {
            audit::Violation::OrphanPins { pages, .. } => {
                orphan_pins_total += (*pages).max(1);
                false
            }
            _ => true,
        });
        report.assert_clean();
        reaped_total += cl.counters().get(Counter::CrashReapedPages) - reaped_before;

        cl.run(Some(crash_at + DOWN_TIME));

        first_done.set(None);
        let reborn = Cycler::boxed(SURVIVORS + 1, PHOENIX_BUFS, u32::MAX, &cells);
        cl.restart_proc(phoenix, reborn);

        let cap = cl.now() + RECOVERY_CAP;
        while first_done.get().is_none() && cl.now() < cap {
            let t = cl.now();
            cl.run(Some(t + RECOVERY_QUANTUM));
        }
        let done_at = first_done
            .get()
            .unwrap_or_else(|| panic!("cycle {cycle}: phoenix never recovered"));
        recovery_ns.push((done_at - crash_at).as_nanos());

        assert_eq!(
            ghosts.get(),
            0,
            "cycle {cycle}: a dead incarnation's completion leaked through"
        );
    }

    // Survivor steady-state pin waits across the whole storm.
    let survivor_waits = pin_waits(&cl, |proc, start| {
        (proc as usize) < SURVIVORS && start >= CRASH_WARMUP
    });
    recovery_ns.sort_unstable();

    let rec_p50 = quantile(&recovery_ns, 0.50);
    let rec_p99 = quantile(&recovery_ns, 0.99);
    let wait_p50 = quantile(&survivor_waits, 0.50);
    let wait_p99 = quantile(&survivor_waits, 0.99);
    let reaped_per_cycle = reaped_total as f64 / cycles as f64;
    let c = cl.counters();

    let mut t = Table::new(
        "crashstorm: recovery latency and survivor pin-wait (ns)",
        &["metric", "p50", "p99", "samples"],
    );
    for (metric, v) in [
        ("recovery latency", &recovery_ns),
        ("survivor pin wait", &survivor_waits),
    ] {
        t.row(vec![
            metric.to_string(),
            format!("{:.0}", quantile(v, 0.50)),
            format!("{:.0}", quantile(v, 0.99)),
            format!("{}", v.len()),
        ]);
    }
    t.print();
    println!(
        "cycles={cycles} reaped/cycle={reaped_per_cycle:.0} pages, \
         orphans={orphan_pins_total}, ghosts={}, fenced={} frames, \
         peer_dead_aborts={}",
        ghosts.get(),
        c.get(Counter::FramesFenced),
        c.get(Counter::PeerDeadAborts),
    );

    // Headline keys sit under "entries"; raw counts that scale with the
    // cycle axis go under "info".
    let mut b = Baseline::new("crashstorm-v1");
    b.entry("recovery_p50_ns", format!("{rec_p50:.1}"));
    b.entry("recovery_p99_ns", format!("{rec_p99:.1}"));
    b.entry("survivor_pin_wait_p50_ns", format!("{wait_p50:.1}"));
    b.entry("survivor_pin_wait_p99_ns", format!("{wait_p99:.1}"));
    b.entry("reaped_pages_per_cycle", format!("{reaped_per_cycle:.1}"));
    b.entry("orphan_pins_total", orphan_pins_total);
    b.entry("ghost_completions_total", ghosts.get());
    b.info("cycles", cycles);
    b.info("recovery_samples", recovery_ns.len());
    b.info("survivor_wait_samples", survivor_waits.len());
    b.info("frames_fenced", c.get(Counter::FramesFenced));
    b.info("peer_dead_aborts", c.get(Counter::PeerDeadAborts));
    b.info("proc_crashes", c.get(Counter::ProcCrashes));
    b.info("proc_restarts", c.get(Counter::ProcRestarts));
    b.write(&args.out)?;
    println!("wrote {}", args.out);

    // The acceptance gates.
    assert_eq!(orphan_pins_total, 0, "orphaned pins survived a crash");
    assert_eq!(ghosts.get(), 0, "ghost completions crossed an incarnation");
    assert_eq!(c.get(Counter::ProcCrashes), cycles as u64);
    assert_eq!(c.get(Counter::ProcRestarts), cycles as u64);
    assert!(
        reaped_total > 0,
        "storm too weak: crashes never reaped a pinned page"
    );
    println!(
        "crashstorm OK: {cycles} crash/restart cycles, recovery p99 {rec_p99:.0} ns, \
         zero orphan pins, zero ghost completions"
    );
    Ok(())
}
