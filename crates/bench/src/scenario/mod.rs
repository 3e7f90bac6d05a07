//! The scenario registry behind `bench <name>`: the paper's tables and
//! figures, the ablations and timelines, the committed-baseline sweeps,
//! the storms and the explorer soak.

mod ablation;
mod driver;
mod figures;
mod soak;
mod storms;
mod timeline;

use crate::cli::{Args, Flag, Scenario};

const NONE: &[Flag] = &[];
const BASELINE: &[Flag] = &[Flag::Smoke, Flag::Out];
const EXPLORE: &[Flag] = &[Flag::Smoke, Flag::Seeds, Flag::Start, Flag::Profile];

const fn scenario(
    name: &'static str,
    flags: &'static [Flag],
    run: fn(&Args) -> Result<(), String>,
    about: &'static str,
) -> Scenario {
    Scenario {
        name,
        about,
        flags,
        run,
    }
}

/// Every scenario, in `bench list` order.
#[rustfmt::skip]
pub static SCENARIOS: [Scenario; 13] = [
    scenario("table1",      NONE,     figures::table1,
        "Table 1: pin+unpin overhead per host, microbench and end-to-end"),
    scenario("fig6",        NONE,     figures::fig6,
        "Fig. 6: PingPong, pin-per-comm vs permanent, with and without I/OAT"),
    scenario("fig7",        NONE,     figures::fig7,
        "Fig. 7: PingPong, overlapped pinning and the pinning cache"),
    scenario("table2",      NONE,     figures::table2,
        "Table 2: IMB and NPB IS execution-time improvement"),
    scenario("overload",    NONE,     figures::overload,
        "section 4.3: overlap misses and the overloaded-core collapse"),
    scenario("ablation",    NONE,     ablation::ablation,
        "design-knob sweeps (DESIGN.md section 7)"),
    scenario("timeline",    NONE,     timeline::timeline,
        "Figs. 2/3/5 as event timelines and Chrome traces"),
    scenario("core",        BASELINE, figures::core,
        "headline virtual-clock metrics, gated against BENCH_core.json"),
    scenario("tenantstorm", BASELINE, storms::tenantstorm,
        "noisy-neighbor storm: per-tenant pin quotas vs global LRU"),
    scenario("crashstorm",  BASELINE, storms::crashstorm,
        "crash/restart storm: recovery latency, orphan pins, ghosts"),
    scenario("churnstorm",  BASELINE, driver::churnstorm,
        "trim/remap notifier churn: deferred vs eager unpinning"),
    scenario("pinscale",    BASELINE, driver::pinscale,
        "driver work counts vs region count: routing, eviction, pins"),
    scenario("explore",     EXPLORE,  soak::explore,
        "simulation-tester soak: zero invariant violations"),
];
