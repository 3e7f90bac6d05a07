//! Crash/restart recovery storm: incarnation-fenced endpoints and
//! orphan-pin reaping under repeated process crashes.
//!
//! Three well-behaved survivor tenants share node 0 with one "phoenix"
//! process that is crashed and restarted every cycle while all four keep
//! rendezvous traffic flowing to sinks on node 1. The phoenix cycles a
//! working set large enough that, together with the survivors, the node
//! sits over its pinned-page ceiling — so every crash is also a pressure
//! event, and a missed reap would show up as both an orphaned pin and a
//! survivor stall.
//!
//! Per cycle the harness asserts the two crash fault-domain invariants
//! directly against the driver:
//!
//! * **zero orphan pins** — the instant the crash returns, no region
//!   owned by the dead incarnation remains declared, and the tenant's
//!   attributed pinned-page count is zero;
//! * **zero ghost completions** — the restarted incarnation never
//!   receives a completion for a request it did not post.
//!
//! The headline metrics are recovery latency (crash to the reborn
//! process's first completed transfer, p50/p99 over cycles) and the
//! surviving tenants' steady-state p99 pin wait, which the crashes must
//! not inflate.
//!
//! Run: `cargo run --release -p openmx-bench --bin crashstorm [-- --smoke]`
//!
//! Flags:
//! * `--smoke`       fewer crash cycles for a quick local run (same asserts),
//! * `--out PATH`    where to write the JSON (default `BENCH_crashstorm.json`).
//!
//! CI runs the full storm and requires its output to equal the committed
//! `BENCH_crashstorm.json` byte for byte.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::rc::Rc;

use openmx_bench::table::Table;
use openmx_core::{AppEvent, Cluster, Ctx, OpenMxConfig, PinningMode, ProcId, Process, TraceEvent};
use simcore::{SimDuration, SimTime};
use simmem::{VirtAddr, PAGE_SIZE};

/// Pages per survivor buffer (rendezvous-sized).
const SURVIVOR_PAGES: u64 = 32;
/// Pages per phoenix buffer.
const PHOENIX_PAGES: u64 = 64;
/// Distinct buffers the phoenix cycles through (192 pages of working
/// set: with the survivors' 96 the node overruns its 256-page ceiling,
/// so crashes double as pressure-relief events).
const PHOENIX_BUFS: usize = 3;
/// Survivor processes on node 0.
const SURVIVORS: usize = 3;
/// Node-wide pinned-page ceiling.
const PINNED_LIMIT: usize = 256;
/// Rendezvous pre-synchronization threshold: transfers queue behind this
/// many pinned pages, opening traced pin-wait intervals on repins.
const PRESYNC_PAGES: u64 = 16;
/// Survivor think time between rounds — long enough that an idle
/// survivor buffer can become the LRU minimum under pressure, so the
/// storm produces real survivor repin waits to gate on.
const SURVIVOR_GAP: SimDuration = SimDuration::from_millis(1);
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
const WARMUP: SimTime = SimTime::from_nanos(2_000_000);

struct Args {
    smoke: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        out: "BENCH_crashstorm.json".to_string(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--smoke" => args.smoke = true,
            "--out" => {
                i += 1;
                args.out = argv[i].clone();
            }
            other => {
                eprintln!("unknown flag: {other}");
                eprintln!("usage: crashstorm [--smoke] [--out PATH]");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    args
}

/// A surviving tenant: send, think, repeat until the storm ends.
struct Survivor {
    peer: ProcId,
    tag: u64,
    buf: VirtAddr,
}

impl Process for Survivor {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.buf = ctx.malloc(SURVIVOR_PAGES * PAGE_SIZE);
        ctx.isend(self.peer, self.tag, self.buf, SURVIVOR_PAGES * PAGE_SIZE);
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::SendDone(_) => ctx.compute(SURVIVOR_GAP, 0),
            AppEvent::ComputeDone(_) => {
                ctx.isend(self.peer, self.tag, self.buf, SURVIVOR_PAGES * PAGE_SIZE);
            }
            AppEvent::Failed(..) => ctx.compute(SURVIVOR_GAP, 0),
            other => panic!("survivor: unexpected event {other:?}"),
        }
    }
}

/// The crash victim. Each incarnation records the requests it posted;
/// any completion for a request it does not know is a ghost from a dead
/// incarnation, which the engine must never deliver.
struct Phoenix {
    peer: ProcId,
    tag: u64,
    bufs: Vec<VirtAddr>,
    next: usize,
    mine: BTreeSet<u64>,
    ghosts: Rc<Cell<u64>>,
    /// Set to the completion time of this incarnation's first transfer.
    first_done: Rc<Cell<Option<SimTime>>>,
}

impl Phoenix {
    fn post(&mut self, ctx: &mut Ctx<'_>) {
        let buf = self.bufs[self.next % PHOENIX_BUFS];
        self.next += 1;
        let req = ctx.isend(self.peer, self.tag, buf, PHOENIX_PAGES * PAGE_SIZE);
        self.mine.insert(req.0);
    }
}

impl Process for Phoenix {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..PHOENIX_BUFS {
            self.bufs.push(ctx.malloc(PHOENIX_PAGES * PAGE_SIZE));
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
                self.post(ctx);
            }
            other => panic!("phoenix: unexpected event {other:?}"),
        }
    }
}

/// Reposting receiver that shrugs off peer-crash failures.
struct Sink {
    tag: u64,
    len: u64,
    buf: VirtAddr,
}

impl Process for Sink {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.buf = ctx.malloc(self.len);
        ctx.irecv(self.tag, !0, self.buf, self.len);
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::RecvDone(..) | AppEvent::Failed(..) => {
                ctx.irecv(self.tag, !0, self.buf, self.len);
            }
            other => panic!("sink: unexpected event {other:?}"),
        }
    }
}

fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx] as f64
}

fn main() {
    let args = parse_args();
    let cycles: u32 = if args.smoke { 4 } else { 20 };

    let mut cfg = OpenMxConfig::with_mode(PinningMode::OverlappedCached);
    cfg.pinned_pages_limit = Some(PINNED_LIMIT);
    cfg.presync_pages = PRESYNC_PAGES;
    let mut cl = Cluster::new(cfg, 2);
    cl.enable_trace_with_capacity(1 << 18);

    let ghosts = Rc::new(Cell::new(0u64));
    let first_done: Rc<Cell<Option<SimTime>>> = Rc::new(Cell::new(None));
    let phoenix = ProcId(SURVIVORS as u32);
    let phoenix_sink_tag = 100u64;

    // ProcId(0..SURVIVORS): survivors; ProcId(SURVIVORS): the phoenix.
    for s in 0..SURVIVORS {
        cl.add_process(
            0,
            Box::new(Survivor {
                peer: ProcId((SURVIVORS + 2 + s) as u32),
                tag: s as u64,
                buf: VirtAddr(0),
            }),
        );
    }
    cl.add_process(
        0,
        Box::new(Phoenix {
            peer: ProcId((SURVIVORS + 1) as u32),
            tag: phoenix_sink_tag,
            bufs: Vec::new(),
            next: 0,
            mine: BTreeSet::new(),
            ghosts: ghosts.clone(),
            first_done: first_done.clone(),
        }),
    );
    // Node 1: the phoenix's sink first, then one sink per survivor.
    cl.add_process(
        1,
        Box::new(Sink {
            tag: phoenix_sink_tag,
            len: PHOENIX_PAGES * PAGE_SIZE,
            buf: VirtAddr(0),
        }),
    );
    for s in 0..SURVIVORS {
        cl.add_process(
            1,
            Box::new(Sink {
                tag: s as u64,
                len: SURVIVOR_PAGES * PAGE_SIZE,
                buf: VirtAddr(0),
            }),
        );
    }

    let mut recovery_ns: Vec<u64> = Vec::new();
    let mut orphan_pins_total = 0u64;
    let mut reaped_total = 0u64;

    for cycle in 0..cycles {
        let t = cl.now();
        cl.run(Some(t + WORK_WINDOW));

        let reaped_before = cl.counters().get("crash_reaped_pages");
        let crash_at = cl.now();
        cl.crash_proc(phoenix);

        // Invariant: the kernel exit path reaps synchronously — the
        // instant crash_proc returns, the dead tenant owns nothing.
        let orphans: u64 = cl
            .driver(0)
            .iter_regions()
            .filter(|(_, r)| r.owner == phoenix)
            .map(|(_, r)| r.pinned_pages().max(1))
            .sum();
        orphan_pins_total += orphans;
        assert_eq!(
            cl.driver(0).pinned_pages_of(phoenix),
            0,
            "cycle {cycle}: dead tenant still has attributed pins"
        );
        reaped_total += cl.counters().get("crash_reaped_pages") - reaped_before;

        cl.run(Some(crash_at + DOWN_TIME));

        first_done.set(None);
        cl.restart_proc(
            phoenix,
            Box::new(Phoenix {
                peer: ProcId((SURVIVORS + 1) as u32),
                tag: phoenix_sink_tag,
                bufs: Vec::new(),
                next: 0,
                mine: BTreeSet::new(),
                ghosts: ghosts.clone(),
                first_done: first_done.clone(),
            }),
        );

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
    let mut open: BTreeMap<(u64, u32), (SimTime, u32)> = BTreeMap::new();
    let mut survivor_waits = Vec::new();
    for rec in cl.tracer().iter() {
        match rec.event {
            TraceEvent::PinWaitStart { msg, region } => {
                let proc = rec.proc.map(|p| p.0).unwrap_or(u32::MAX);
                open.insert((msg.0, region.0), (rec.time, proc));
            }
            TraceEvent::PinWaitEnd { msg, region } => {
                if let Some((start, proc)) = open.remove(&(msg.0, region.0)) {
                    if (proc as usize) < SURVIVORS && start >= WARMUP {
                        survivor_waits.push((rec.time - start).as_nanos());
                    }
                }
            }
            _ => {}
        }
    }
    survivor_waits.sort_unstable();
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
    t.row(vec![
        "recovery latency".to_string(),
        format!("{rec_p50:.0}"),
        format!("{rec_p99:.0}"),
        format!("{}", recovery_ns.len()),
    ]);
    t.row(vec![
        "survivor pin wait".to_string(),
        format!("{wait_p50:.0}"),
        format!("{wait_p99:.0}"),
        format!("{}", survivor_waits.len()),
    ]);
    t.emit(None);
    println!(
        "cycles={cycles} reaped/cycle={reaped_per_cycle:.0} pages, \
         orphans={orphan_pins_total}, ghosts={}, fenced={} frames, \
         peer_dead_aborts={}",
        ghosts.get(),
        c.get("frames_fenced"),
        c.get("peer_dead_aborts"),
    );

    // Headline keys sit under "entries"; raw counts that scale with the
    // cycle axis go under "info", written as strings.
    let json = format!(
        "{{\n  \"schema\": \"crashstorm-v1\",\n  \"entries\": {{\n    \
         \"recovery_p50_ns\": {rec_p50:.1},\n    \
         \"recovery_p99_ns\": {rec_p99:.1},\n    \
         \"survivor_pin_wait_p50_ns\": {wait_p50:.1},\n    \
         \"survivor_pin_wait_p99_ns\": {wait_p99:.1},\n    \
         \"reaped_pages_per_cycle\": {reaped_per_cycle:.1},\n    \
         \"orphan_pins_total\": {orphan_pins_total},\n    \
         \"ghost_completions_total\": {}\n  }},\n  \"info\": {{\n    \
         \"cycles\": \"{cycles}\",\n    \
         \"recovery_samples\": \"{}\",\n    \
         \"survivor_wait_samples\": \"{}\",\n    \
         \"frames_fenced\": \"{}\",\n    \
         \"peer_dead_aborts\": \"{}\",\n    \
         \"proc_crashes\": \"{}\",\n    \
         \"proc_restarts\": \"{}\"\n  }}\n}}\n",
        ghosts.get(),
        recovery_ns.len(),
        survivor_waits.len(),
        c.get("frames_fenced"),
        c.get("peer_dead_aborts"),
        c.get("proc_crashes"),
        c.get("proc_restarts"),
    );
    std::fs::write(&args.out, json).expect("write BENCH_crashstorm.json");
    println!("wrote {}", args.out);

    // The acceptance gates.
    assert_eq!(orphan_pins_total, 0, "orphaned pins survived a crash");
    assert_eq!(ghosts.get(), 0, "ghost completions crossed an incarnation");
    assert_eq!(c.get("proc_crashes"), cycles as u64);
    assert_eq!(c.get("proc_restarts"), cycles as u64);
    assert!(
        reaped_total > 0,
        "storm too weak: crashes never reaped a pinned page"
    );
    println!(
        "crashstorm OK: {cycles} crash/restart cycles, recovery p99 {rec_p99:.0} ns, \
         zero orphan pins, zero ghost completions"
    );
}
