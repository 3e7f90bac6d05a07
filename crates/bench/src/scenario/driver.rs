//! Driver-level storms without a cluster: notifier churn (`churnstorm`)
//! and the hot-path work counts as the region table grows (`pinscale`).
//! Both count deterministic work, so their baselines are committed and
//! gated byte for byte like the virtual-clock ones.

use openmx_core::{Driver, RegionId, Segment};
use simcore::{SimRng, SimTime};
use simmem::{AsId, Memory, Prot, VirtAddr, Vpn, VpnRange, PAGE_SIZE};

use crate::cli::Args;
use crate::table::{Baseline, Table};

/// Pin every chunk of `id` until it is fully pinned; returns the pages
/// pinned (= pages that had been unpinned before the pass).
fn pin_fully(d: &mut Driver, mem: &mut Memory, id: RegionId, chunk: u64, per_page: bool) -> u64 {
    let mut pinned = 0;
    loop {
        let p = d.pin_chunk(mem, id, chunk, per_page).expect("pin");
        pinned += p.pages_pinned;
        if p.complete {
            return pinned;
        }
    }
}

/// A driver and its memory, the space and base address of the mapped
/// arena, and the ids of the regions declared over it.
type Arena = (Driver, Memory, AsId, VirtAddr, Vec<RegionId>);

/// `n` contiguous regions of `pages` pages each, declared over one
/// mapped arena of a fresh space (with an MMU notifier registered), in a
/// driver with pinned-page limit `limit`. Nothing is pinned yet.
fn arena(n: u64, pages: u64, limit: Option<usize>) -> Arena {
    let mut mem = Memory::new((n * pages) as usize + 64, 0);
    let space = mem.create_space();
    mem.register_notifier(space).expect("notifier");
    let addr = mem
        .mmap(space, n * pages * PAGE_SIZE, Prot::ReadWrite)
        .expect("arena");
    let mut d = Driver::new(limit);
    let ids = (0..n)
        .map(|i| {
            d.declare(
                space,
                &[Segment {
                    addr: addr.add(i * pages * PAGE_SIZE),
                    len: pages * PAGE_SIZE,
                }],
            )
            .expect("declare")
        })
        .collect();
    (d, mem, space, addr, ids)
}

/// Pages in the churned region.
const CHURN_REGION_PAGES: u64 = 256;
/// Pages trimmed (and remapped) per churn round.
const TRIM_PAGES: u64 = 8;
/// Pin-pass chunk size (matches the engine's default granularity).
const CHUNK_PAGES: u64 = 32;
/// Required reduction in unpinned-then-repinned pages vs eager.
const REQUIRED_REDUCTION: f64 = 10.0;

struct ChurnReport {
    /// Total pages that were unpinned and then repinned across all rounds.
    unpin_repin_pages: u64,
    /// Total `Memory` pin calls issued by the repin passes.
    pin_calls: u64,
}

/// One trim/remap churn storm through either notifier path.
fn churn_world(rounds: u64, eager: bool) -> (ChurnReport, Driver) {
    let (mut d, mut mem, space, addr, ids) = arena(1, CHURN_REGION_PAGES, None);
    let id = ids[0];
    pin_fully(&mut d, &mut mem, id, CHUNK_PAGES, false);
    let tail_addr = addr.add((CHURN_REGION_PAGES - TRIM_PAGES) * PAGE_SIZE);
    let mut unpin_repin = 0u64;
    let pin_calls_before = mem.pin_calls();
    for _ in 0..rounds {
        let events = mem
            .munmap(space, tail_addr, TRIM_PAGES * PAGE_SIZE)
            .expect("trim");
        for ev in &events {
            // Eager releases inside the event; deferred only marks stale
            // (the release happens in the repin pass's cursor rewind).
            if eager {
                let hit = d.handle_invalidate_eager(&mut mem, ev);
                unpin_repin += hit.iter().map(|(_, pages)| pages).sum::<u64>();
            } else {
                d.handle_invalidate(&mut mem, ev);
            }
        }
        mem.mmap_at(space, tail_addr, TRIM_PAGES * PAGE_SIZE, Prot::ReadWrite)
            .expect("remap");
        if !eager {
            unpin_repin += d.region(id).stale_pages();
        }
        let repinned = pin_fully(&mut d, &mut mem, id, CHUNK_PAGES, false);
        assert_eq!(
            repinned,
            if eager {
                CHURN_REGION_PAGES
            } else {
                TRIM_PAGES
            },
            "repin width diverged from the design (eager={eager})"
        );
        if !eager {
            // Epoch close after the region was already re-pinned: the
            // drain must find nothing stale and cancel the pending unpin.
            let (released, cancelled) = d.drain_deferred(&mut mem);
            assert!(released.is_empty(), "drain found stale pages after repin");
            assert_eq!(cancelled, vec![id], "repin must cancel the deferred unpin");
        }
        // The driver's books stay exact in both worlds, every round.
        d.audit(&mem).assert_clean();
        assert!(d.region(id).fully_pinned());
    }
    let report = ChurnReport {
        unpin_repin_pages: unpin_repin,
        pin_calls: mem.pin_calls() - pin_calls_before,
    };
    (report, d)
}

/// Notifier-storm churn: deferred, coalesced unpinning vs the old eager
/// in-event unpin under allocator-style trim/remap churn.
///
/// The scenario is glibc's malloc trim heartbeat: a 256-page pinned
/// region whose 8-page tail is unmapped (one MMU-notifier event),
/// immediately remapped, and touched again by the next communication.
/// The eager notifier path unpins the *whole region* inside the event
/// and repins all 256 pages on next use; the deferred path marks the
/// 8-page tail stale, re-pins just that tail, and the epoch drain then
/// finds nothing left to release — the unpin is cancelled. The headline
/// metric is pages unpinned-then-repinned per trim event, which the
/// deferred path must cut by ≥10× (it lands at region/trim = 32×).
/// Also reported: `Memory` pin calls per path and the cancelled-unpin
/// ratio (1.0 here — every trim is churn, the design's best case and its
/// reason to exist). `--smoke` runs fewer rounds (same gates).
///
/// Run: `cargo run --release -p openmx-bench -- churnstorm [--smoke] [--out PATH]`
pub(crate) fn churnstorm(args: &Args) -> Result<(), String> {
    let rounds: u64 = if args.smoke { 64 } else { 512 };

    let (eager, _) = churn_world(rounds, true);
    let (deferred, d) = churn_world(rounds, false);
    let stats = d.stats();

    let reduction = eager.unpin_repin_pages as f64 / deferred.unpin_repin_pages as f64;
    let cancel_ratio = stats.notifier_cancelled as f64 / stats.notifier_deferred as f64;

    let mut t = Table::new(
        "churnstorm: trim/remap storms through the notifier (lower is better)",
        &["path", "unpin+repin pages", "pages/event", "pin calls"],
    );
    for (path, w) in [("eager", &eager), ("deferred", &deferred)] {
        t.row(vec![
            path.to_string(),
            format!("{}", w.unpin_repin_pages),
            format!("{}", w.unpin_repin_pages / rounds),
            format!("{}", w.pin_calls),
        ]);
    }
    t.print();
    println!(
        "churn work reduction: {reduction:.1}x; cancelled {}/{} deferred unpins \
         ({cancel_ratio:.2}) in {} drains",
        stats.notifier_cancelled, stats.notifier_deferred, stats.notifier_drain_batches
    );

    let mut b = Baseline::new("churnstorm-v1");
    b.entry("eager.unpin_repin_pages", eager.unpin_repin_pages);
    b.entry("eager.pin_calls", eager.pin_calls);
    b.entry("deferred.unpin_repin_pages", deferred.unpin_repin_pages);
    b.entry("deferred.pin_calls", deferred.pin_calls);
    b.entry("deferred.cancelled", stats.notifier_cancelled);
    b.entry("deferred.deferred", stats.notifier_deferred);
    b.entry("deferred.drain_batches", stats.notifier_drain_batches);
    b.entry("reduction", format!("{reduction:.2}"));
    b.entry("cancel_ratio", format!("{cancel_ratio:.2}"));
    b.info("rounds", rounds);
    b.info("region_pages", CHURN_REGION_PAGES);
    b.info("trim_pages", TRIM_PAGES);
    b.write(&args.out)?;
    println!("wrote {}", args.out);

    // The acceptance gates.
    assert!(
        reduction >= REQUIRED_REDUCTION,
        "deferred path only cut unpin+repin churn {reduction:.1}x (need {REQUIRED_REDUCTION}x)"
    );
    assert!(
        (cancel_ratio - 1.0).abs() < f64::EPSILON,
        "pure-churn storm must cancel every deferred unpin, got {cancel_ratio:.2}"
    );
    println!(
        "churnstorm OK: {reduction:.1}x less unpin+repin churn, {:.0}% of deferred \
         unpins cancelled",
        cancel_ratio * 100.0
    );
    Ok(())
}

/// Pages per declared region in the routing sweep.
const ROUTE_REGION_PAGES: u64 = 4;
/// The work reduction the indexed paths must show at the largest sweep
/// point.
const REQUIRED_SPEEDUP: f64 = 10.0;

/// Index entries visited per notifier-routing query over `n` adjacent
/// regions (nothing pinned — routing is a pure index question), for the
/// same pseudorandom 2-page windows the naive scan answers by visiting
/// all `n` regions. Every query's answer is cross-checked against the
/// naive scan.
fn route_visits(n: u64, queries: u64) -> f64 {
    let (d, _, space, addr, _) = arena(n, ROUTE_REGION_PAGES, None);
    let base = addr.vpn().0;
    let span = n * ROUTE_REGION_PAGES;
    let mut rng = SimRng::new(0x5eed + n);
    let mut visited = 0;
    for _ in 0..queries {
        let s = base + rng.below(span);
        let w = VpnRange::new(Vpn(s), Vpn(s + 2));
        let (hit, v) = d.regions_intersecting_visited(space, &w);
        assert_eq!(
            hit,
            d.regions_intersecting_naive(space, &w),
            "index diverged from the naive scan"
        );
        visited += v;
    }
    visited as f64 / queries as f64
}

/// LRU-heap pops per victim when pressure eviction drains `n` idle
/// pinned one-page regions under a zero pinned-page limit (the naive
/// min-scan the heap replaced examines all `n` regions per victim). The
/// victims must come out in least-recently-used order.
fn evict_pops(n: u64) -> f64 {
    let (mut d, mut mem, _, _, ids) = arena(n, 1, Some(0));
    for (i, &id) in ids.iter().enumerate() {
        pin_fully(&mut d, &mut mem, id, 100, false);
        d.region_mut(id).last_use = SimTime::from_nanos(i as u64);
        d.note_region_idle(id);
    }
    let pops_before = d.stats().evict_lru_pops;
    let evicted = d.pressure_evict(&mut mem, 0, SimTime::ZERO, None);
    let order: Vec<RegionId> = evicted.iter().map(|&(id, _)| id).collect();
    assert_eq!(order, ids, "drain must evict every region, oldest first");
    (d.stats().evict_lru_pops - pops_before) as f64 / n as f64
}

/// Pages of the region the batched-pin probe pins.
const BATCH_PAGES: u64 = 256;
/// Pages per pin pass in the batched-pin probe.
const BATCH_CHUNK: u64 = 32;

/// Pin one contiguous 256-page region in 32-page chunks through the
/// batched and the per-page pin path; returns the `Memory` pin calls
/// each issued.
pub(crate) fn batch_pin_calls() -> (u64, u64) {
    let count = |per_page| {
        let (mut d, mut mem, _, _, ids) = arena(1, BATCH_PAGES, None);
        let before = mem.pin_calls();
        pin_fully(&mut d, &mut mem, ids[0], BATCH_CHUNK, per_page);
        mem.pin_calls() - before
    };
    (count(false), count(true))
}

/// Driver hot-path scaling: notifier routing, pressure eviction and
/// batched pinning as the declared-region count grows.
///
/// The paper's argument needs the *kernel-side bookkeeping* to stay cheap
/// when thousands of regions are declared: an MMU-notifier event must not
/// pay O(regions) to find the pinned pages it invalidates, and a pressure
/// pass must not re-scan the whole table per victim. This sweep counts
/// the work of the indexed paths against the naive scans they replaced —
/// index entries visited per routing query and LRU-heap pops per evicted
/// victim, each against the `n` regions a naive scan examines — asserts
/// the ≥10× reduction at 4096 regions, checks the batched pin path
/// issues at most ⌈pages/chunk⌉ `Memory` pin calls per pin pass, and
/// writes `BENCH_pinscale.json`. `--smoke` drops one sweep point and
/// runs fewer routing queries (same gates).
///
/// Run: `cargo run --release -p openmx-bench -- pinscale [--smoke] [--out PATH]`
pub(crate) fn pinscale(args: &Args) -> Result<(), String> {
    let counts: &[u64] = if args.smoke {
        &[64, 1024, 4096]
    } else {
        &[64, 256, 1024, 4096]
    };
    let queries: u64 = if args.smoke { 256 } else { 1024 };

    let mut t = Table::new(
        "driver hot-path scaling (work per operation; a naive scan visits every region)",
        &[
            "regions",
            "route index visits",
            "route reduction",
            "evict heap pops",
            "evict reduction",
        ],
    );
    let mut b = Baseline::new("pinscale-v1");
    let mut last = (0, 0.0, 0.0);
    for &n in counts {
        let route = route_visits(n, queries);
        let pops = evict_pops(n);
        let (route_x, evict_x) = (n as f64 / route, n as f64 / pops);
        t.row(vec![
            format!("{n}"),
            format!("{route:.2}"),
            format!("{route_x:.1}x"),
            format!("{pops:.2}"),
            format!("{evict_x:.1}x"),
        ]);
        b.entry(
            format!("route.{n}.index_visits_per_query"),
            format!("{route:.3}"),
        );
        b.entry(
            format!("evict.{n}.heap_pops_per_victim"),
            format!("{pops:.3}"),
        );
        last = (n, route_x, evict_x);
    }
    t.print();

    let (batched, per_page) = batch_pin_calls();
    println!(
        "batch pin: {BATCH_PAGES} pages in {BATCH_CHUNK}-page chunks -> {batched} pin calls \
         batched vs {per_page} per-page"
    );
    b.entry("batch.batched_pin_calls", batched);
    b.entry("batch.per_page_pin_calls", per_page);
    b.info("queries", queries);
    b.info("route_region_pages", ROUTE_REGION_PAGES);
    b.info("batch.pages", BATCH_PAGES);
    b.info("batch.chunk", BATCH_CHUNK);
    b.write(&args.out)?;
    println!("wrote {}", args.out);

    // The acceptance gates.
    let (n_max, route_x, evict_x) = last;
    assert!(
        route_x >= REQUIRED_SPEEDUP,
        "notifier routing does only {route_x:.1}x less work than the naive scan at {n_max} regions"
    );
    assert!(
        evict_x >= REQUIRED_SPEEDUP,
        "pressure eviction does only {evict_x:.1}x less work than the naive scan at {n_max} regions"
    );
    let max_calls = BATCH_PAGES.div_ceil(BATCH_CHUNK);
    assert!(
        batched <= max_calls,
        "batched pinning issued {batched} pin calls for {BATCH_PAGES} pages in \
         {BATCH_CHUNK}-page chunks"
    );
    println!(
        "pinscale OK: routing {route_x:.1}x, eviction {evict_x:.1}x less work at {n_max} \
         regions; batched pin calls {batched} <= {max_calls}"
    );
    Ok(())
}
