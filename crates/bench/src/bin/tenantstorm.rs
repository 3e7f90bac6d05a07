//! Noisy-neighbor tenant storm: per-tenant pin quotas with weighted-fair
//! eviction vs the unprotected global-LRU driver.
//!
//! One aggressor process round-robins rendezvous sends over twelve
//! 64-page buffers with no think time, so its pinned working set alone
//! overruns the node's pinned-page ceiling; four well-behaved victims on
//! the same node each loop a 32-page send followed by a 1 ms compute gap.
//! Without quotas the pressure evictor walks the global LRU, and the
//! victims' idle cached regions — the oldest entries by construction —
//! are exactly what it unpins: every victim round then stalls behind a
//! fresh pin pass. With quotas the aggressor is capped at its own hard
//! limit (self-evicting its own idle buffers), the node never reaches
//! the global ceiling, and the victims keep their pins.
//!
//! The headline metric is the victims' steady-state pin-wait time (the
//! traced interval a transfer spends queued behind the pin cursor),
//! p50/p99 over all victim rounds past warmup. The gates assert the
//! quota world inflicts **zero** cross-tenant evictions on the victims
//! and bounds their p99 at least [`REQUIRED_IMPROVEMENT`]× below the
//! unprotected world's, while the aggressor stays within its cap.
//!
//! Run: `cargo run --release -p openmx-bench --bin tenantstorm [-- --smoke]`
//!
//! Flags:
//! * `--smoke`       fewer victim rounds for a quick local run (same asserts),
//! * `--out PATH`    where to write the JSON (default `BENCH_tenantstorm.json`).
//!
//! CI runs the full storm and requires its output to equal the committed
//! `BENCH_tenantstorm.json` byte for byte.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use openmx_bench::table::Table;
use openmx_core::{
    AppEvent, Cluster, Ctx, OpenMxConfig, PinQuota, PinningMode, ProcId, Process, TraceEvent,
};
use simcore::{SimDuration, SimTime};
use simmem::{VirtAddr, PAGE_SIZE};

/// Pages per victim buffer (32 pages = 128 KiB, rendezvous-sized).
const VICTIM_PAGES: u64 = 32;
/// Pages per aggressor buffer.
const AGGRESSOR_PAGES: u64 = 64;
/// Distinct buffers the aggressor cycles through.
const AGGRESSOR_BUFS: usize = 12;
/// Victim processes (each with a dedicated receiver on the other node).
const VICTIMS: usize = 4;
/// Node-wide pinned-page ceiling. The aggressor's full working set
/// (12 x 64 pages) overruns it; quota-capped tenants together stay under.
const PINNED_LIMIT: usize = 256;
/// Per-tenant quota in the protected world.
const QUOTA: PinQuota = PinQuota {
    soft_share: 64,
    hard_cap: 96,
};
/// Victim think time between rounds — longer than one full aggressor
/// buffer cycle, so victim regions are the LRU minimum while they idle.
const VICTIM_GAP: SimDuration = SimDuration::from_millis(1);
/// Rendezvous pre-synchronization threshold (paper §3.3): the rndv (and
/// the receiver's first pull) queue behind this many pinned pages, so a
/// transfer whose region lost its pins to eviction opens a traced
/// pin-wait interval on its next round.
const PRESYNC_PAGES: u64 = 16;
/// Steady-state cutoff: pin waits starting before this are warmup (the
/// unavoidable cold first pin of each buffer) in both worlds.
const WARMUP: SimTime = SimTime::from_nanos(5_000_000);
/// Required p99 pin-wait improvement of the quota world over the
/// unprotected world.
const REQUIRED_IMPROVEMENT: f64 = 10.0;
/// Floor for the protected world's p99 when it has no steady-state waits
/// at all (the expected case): 100 ns, one simulated per-page DMA setup,
/// so the ratio stays finite without drowning the off world's microsecond
/// -scale repin stalls.
const P99_FLOOR_NS: f64 = 100.0;

struct Args {
    smoke: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        out: "BENCH_tenantstorm.json".to_string(),
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
                eprintln!("usage: tenantstorm [--smoke] [--out PATH]");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    args
}

/// A well-behaved tenant: send, think, repeat.
struct Victim {
    peer: ProcId,
    tag: u64,
    rounds_left: u32,
    buf: VirtAddr,
    done: Rc<RefCell<Vec<bool>>>,
    slot: usize,
}

impl Process for Victim {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.buf = ctx.malloc(VICTIM_PAGES * PAGE_SIZE);
        ctx.isend(self.peer, self.tag, self.buf, VICTIM_PAGES * PAGE_SIZE);
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::SendDone(_) => {
                self.rounds_left -= 1;
                if self.rounds_left == 0 {
                    self.done.borrow_mut()[self.slot] = true;
                    ctx.stop();
                } else {
                    ctx.compute(VICTIM_GAP, 0);
                }
            }
            AppEvent::ComputeDone(_) => {
                ctx.isend(self.peer, self.tag, self.buf, VICTIM_PAGES * PAGE_SIZE);
            }
            other => panic!("victim: unexpected event {other:?}"),
        }
    }
}

/// The noisy neighbor: no think time, a working set that alone overruns
/// the node's pinned-page ceiling.
struct Aggressor {
    peer: ProcId,
    tag: u64,
    rounds_left: u32,
    bufs: Vec<VirtAddr>,
    next: usize,
}

impl Process for Aggressor {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..AGGRESSOR_BUFS {
            self.bufs.push(ctx.malloc(AGGRESSOR_PAGES * PAGE_SIZE));
        }
        ctx.isend(
            self.peer,
            self.tag,
            self.bufs[0],
            AGGRESSOR_PAGES * PAGE_SIZE,
        );
        self.next = 1;
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::SendDone(_) | AppEvent::Failed(..) => {
                self.rounds_left -= 1;
                if self.rounds_left == 0 {
                    ctx.stop();
                    return;
                }
                let buf = self.bufs[self.next % AGGRESSOR_BUFS];
                self.next += 1;
                ctx.isend(self.peer, self.tag, buf, AGGRESSOR_PAGES * PAGE_SIZE);
            }
            other => panic!("aggressor: unexpected event {other:?}"),
        }
    }
}

/// Reposting receiver: one buffer, `rounds` back-to-back receives.
struct Sink {
    tag: u64,
    len: u64,
    rounds_left: u32,
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

fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx] as f64
}

struct WorldReport {
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
fn run_world(rounds: u32, quota: Option<PinQuota>) -> WorldReport {
    let mut cfg = OpenMxConfig::with_mode(PinningMode::OverlappedCached);
    cfg.pinned_pages_limit = Some(PINNED_LIMIT);
    cfg.presync_pages = PRESYNC_PAGES;
    cfg.pin_quota = quota;
    let mut cl = Cluster::new(cfg, 2);
    cl.enable_trace_with_capacity(1 << 17);

    let done = Rc::new(RefCell::new(vec![false; VICTIMS]));
    let agg_rounds = rounds * 6;
    // ProcId(0): the aggressor. ProcId(1..=VICTIMS): the victims.
    cl.add_process(
        0,
        Box::new(Aggressor {
            peer: ProcId((VICTIMS + 1) as u32),
            tag: 100,
            rounds_left: agg_rounds,
            bufs: Vec::new(),
            next: 0,
        }),
    );
    for v in 0..VICTIMS {
        cl.add_process(
            0,
            Box::new(Victim {
                peer: ProcId((VICTIMS + 2 + v) as u32),
                tag: v as u64,
                rounds_left: rounds,
                buf: VirtAddr(0),
                done: done.clone(),
                slot: v,
            }),
        );
    }
    cl.add_process(
        1,
        Box::new(Sink {
            tag: 100,
            len: AGGRESSOR_PAGES * PAGE_SIZE,
            rounds_left: agg_rounds,
            buf: VirtAddr(0),
        }),
    );
    for v in 0..VICTIMS {
        cl.add_process(
            1,
            Box::new(Sink {
                tag: v as u64,
                len: VICTIM_PAGES * PAGE_SIZE,
                rounds_left: rounds,
                buf: VirtAddr(0),
            }),
        );
    }
    cl.run(Some(SimTime::from_nanos(120_000_000_000)));
    assert!(
        done.borrow().iter().all(|&d| d),
        "victims did not finish their rounds (quota={})",
        quota.is_some()
    );

    // Steady-state victim pin waits: pair PinWaitStart/End by (msg,
    // region), attribute by the record's proc, drop warmup intervals.
    let mut open: BTreeMap<(u64, u32), (SimTime, u32)> = BTreeMap::new();
    let mut victim_waits = Vec::new();
    for rec in cl.tracer().iter() {
        match rec.event {
            TraceEvent::PinWaitStart { msg, region } => {
                let proc = rec.proc.map(|p| p.0).unwrap_or(u32::MAX);
                open.insert((msg.0, region.0), (rec.time, proc));
            }
            TraceEvent::PinWaitEnd { msg, region } => {
                if let Some((start, proc)) = open.remove(&(msg.0, region.0)) {
                    let victim = (1..=VICTIMS as u32).contains(&proc);
                    if victim && start >= WARMUP {
                        victim_waits.push((rec.time - start).as_nanos());
                    }
                }
            }
            _ => {}
        }
    }
    victim_waits.sort_unstable();

    let stats = cl.driver(0).tenant_stats();
    let tenant = |p: u32| {
        stats
            .iter()
            .find(|(q, _)| q.0 == p)
            .map(|&(_, t)| t)
            .unwrap_or_default()
    };
    let victims_suffered = (1..=VICTIMS as u32)
        .map(|p| tenant(p).evictions_suffered_from_others)
        .sum();
    WorldReport {
        victim_waits,
        victims_suffered,
        aggressor_peak: tenant(0).peak_pinned_pages,
        aggressor_denials: tenant(0).quota_denials,
        pressure_pages: cl.node_counters(0).get("pressure_unpinned_pages"),
    }
}

fn main() {
    let args = parse_args();
    let rounds: u32 = if args.smoke { 30 } else { 200 };

    let off = run_world(rounds, None);
    let on = run_world(rounds, Some(QUOTA));

    let off_p50 = quantile(&off.victim_waits, 0.50);
    let off_p99 = quantile(&off.victim_waits, 0.99);
    let off_p999 = quantile(&off.victim_waits, 0.999);
    let on_p50 = quantile(&on.victim_waits, 0.50);
    let on_p99 = quantile(&on.victim_waits, 0.99);
    let on_p999 = quantile(&on.victim_waits, 0.999);
    let improvement = off_p99 / on_p99.max(P99_FLOOR_NS);

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
    t.row(vec![
        "no quota".to_string(),
        format!("{off_p50:.0}"),
        format!("{off_p99:.0}"),
        format!("{off_p999:.0}"),
        format!("{}", off.victim_waits.len()),
        format!("{}", off.victims_suffered),
        format!("{}", off.aggressor_peak),
    ]);
    t.row(vec![
        "quota 64/96".to_string(),
        format!("{on_p50:.0}"),
        format!("{on_p99:.0}"),
        format!("{on_p999:.0}"),
        format!("{}", on.victim_waits.len()),
        format!("{}", on.victims_suffered),
        format!("{}", on.aggressor_peak),
    ]);
    t.emit(None);
    println!(
        "victim p99 improvement: {improvement:.1}x; aggressor denials with quota: {}; \
         pressure pages node0: off={} on={}",
        on.aggressor_denials, off.pressure_pages, on.pressure_pages
    );

    // Headline keys sit under "entries"; raw counts that scale with the
    // round axis go under "info", written as strings.
    let json = format!(
        "{{\n  \"schema\": \"tenantstorm-v1\",\n  \"entries\": {{\n    \
         \"off.victim_pin_wait_p50_ns\": {off_p50:.1},\n    \
         \"off.victim_pin_wait_p99_ns\": {off_p99:.1},\n    \
         \"on.victim_pin_wait_p50_ns\": {on_p50:.1},\n    \
         \"on.victim_pin_wait_p99_ns\": {on_p99:.1},\n    \
         \"on.victims_suffered_pages\": {},\n    \
         \"on.aggressor_peak_pages\": {},\n    \
         \"p99_improvement\": {improvement:.2}\n  }},\n  \"info\": {{\n    \
         \"rounds\": \"{rounds}\",\n    \
         \"off.victim_pin_wait_p999_ns\": \"{off_p999:.0}\",\n    \
         \"on.victim_pin_wait_p999_ns\": \"{on_p999:.0}\",\n    \
         \"off.waits\": \"{}\",\n    \"on.waits\": \"{}\",\n    \
         \"off.victims_suffered_pages\": \"{}\",\n    \
         \"off.pressure_pages\": \"{}\",\n    \"on.pressure_pages\": \"{}\",\n    \
         \"on.aggressor_denials\": \"{}\"\n  }}\n}}\n",
        on.victims_suffered,
        on.aggressor_peak,
        off.victim_waits.len(),
        on.victim_waits.len(),
        off.victims_suffered,
        off.pressure_pages,
        on.pressure_pages,
        on.aggressor_denials,
    );
    std::fs::write(&args.out, json).expect("write BENCH_tenantstorm.json");
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
    assert!(
        improvement >= REQUIRED_IMPROVEMENT,
        "victim p99 pin-wait only improved {improvement:.1}x \
         (off {off_p99:.0} ns vs on {on_p99:.0} ns, need {REQUIRED_IMPROVEMENT}x)"
    );
    println!(
        "tenantstorm OK: victim p99 pin-wait {off_p99:.0} ns -> {on_p99:.0} ns \
         ({improvement:.1}x), zero cross-tenant evictions under quota"
    );
}
