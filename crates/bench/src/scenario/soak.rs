//! The simulation tester's seed sweep (`explore`): every op-mix and
//! fault-fabric profile judged by the full invariant oracle. Every
//! violating seed ships its flight-recorder post-mortem as a file before
//! the soak fails.

use openmx_core::{Counter, CounterSet};
use simtest::{explore as explore_seeds, ExploreReport, Profile};

use crate::cli::Args;
use crate::sweep::parallel_map;
use crate::table::{write_artifact, Table};

/// Shrink budget, in candidate runs, for a failing explore schedule.
const SHRINK_RUNS: usize = 400;

/// Explorer soak: sweep seeds × profiles through the simulation tester
/// ([`simtest`]) and assert zero invariant violations, hangs or panics.
/// Per profile it prints the faults the fabric injected, the frames it
/// lost, and the retransmissions and duplicates the protocol handled, so
/// a fabric that never bit shows as zeros. On a failure, the schedule is
/// ddmin-shrunk (within [`SHRINK_RUNS`] candidate runs) and a one-line
/// repro string is printed for a regression test to replay verbatim.
///
/// `--smoke` is the reduced CI matrix (5 seeds per profile); `--seeds N`
/// sets the seeds per profile (default 70), `--start N` the first seed
/// (default 0), and `--profile P` restricts the sweep to one profile
/// (see [`simtest::profiles`]).
///
/// Run: `cargo run --release -p openmx-bench -- explore [--smoke]`
pub(crate) fn explore(args: &Args) -> Result<(), String> {
    let seeds = args.seeds.unwrap_or(if args.smoke { 5 } else { 70 }) as usize;
    let profs: Vec<Profile> = simtest::profiles()
        .into_iter()
        .filter(|p| args.profile.as_deref().is_none_or(|want| want == p.name))
        .collect();

    // One cell = a contiguous slice of seeds under one profile, so the
    // sweep parallelizes without splitting a profile's report.
    const SLICE: usize = 5;
    let mut cells = Vec::new();
    for pi in 0..profs.len() {
        for s in (0..seeds).step_by(SLICE) {
            cells.push((pi, args.start + s as u64, SLICE.min(seeds - s)));
        }
    }
    let reports = parallel_map(cells, |(pi, start, n)| {
        (pi, explore_seeds(&profs[pi], start, n, SHRINK_RUNS))
    });

    let mut t = Table::new(
        "explore soak: invariant violations per profile",
        &[
            "profile",
            "runs",
            "xfers",
            "completions",
            "faults",
            "lost",
            "retrans",
            "dups rx",
            "failures",
        ],
    );
    let mut total_runs = 0usize;
    let mut failures = Vec::new();
    for (pi, p) in profs.iter().enumerate() {
        let mine: Vec<&ExploreReport> = reports
            .iter()
            .filter(|(i, _)| *i == pi)
            .map(|(_, r)| r)
            .collect();
        let sum = |f: fn(&ExploreReport) -> usize| mine.iter().map(|r| f(r)).sum::<usize>();
        total_runs += sum(|r| r.runs);
        failures.extend(mine.iter().flat_map(|r| r.failures.iter().cloned()));
        let c: CounterSet = mine.iter().map(|r| r.counters.clone()).sum();
        t.row(vec![
            p.name.to_string(),
            format!("{}", sum(|r| r.runs)),
            format!("{}", sum(|r| r.xfers)),
            format!("{}", sum(|r| r.completions)),
            format!("{}", c.faults_injected()),
            format!("{}", c.get(Counter::NetFramesLost)),
            format!("{}", c.retransmits()),
            format!("{}", c.duplicates_rx()),
            format!("{}", sum(|r| r.failures.len())),
        ]);
    }
    t.print();

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("seed 0x{:x} ({}) violated:", f.seed, f.profile);
            for v in &f.violations {
                eprintln!("  - {v}");
            }
            eprintln!(
                "  shrunk to {} ops in {} runs; repro:",
                f.shrunk.ops.len(),
                f.shrink_runs
            );
            eprintln!("  {}", f.repro);
            // Flight recorder: ship the correlated-span + metrics dump
            // next to the repro string.
            let path = format!("postmortem_explore_{:x}_{}.json", f.seed, f.profile);
            write_artifact(&path, &f.post_mortem)?;
            eprintln!("  post-mortem: {path}");
        }
        return Err(format!(
            "explore soak: {} of {total_runs} runs failed",
            failures.len()
        ));
    }
    println!("explore soak: {total_runs} runs, 0 violations, 0 hangs, 0 panics");
    Ok(())
}
