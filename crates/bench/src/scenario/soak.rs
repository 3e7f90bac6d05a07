//! Liveness soaks: the hostile-fabric chaos matrix (`chaos`) and the
//! simulation tester's seed sweep (`explore`). Every hung or violating
//! cell ships its flight-recorder post-mortem as a file before the soak
//! fails.

use simnet::FaultProfile;
use simtest::{explore as explore_seeds, profiles as op_mixes, ExploreReport, Profile};

use crate::chaos::{
    chaos_cfg, crash_profiles, duplicate_comparison, profiles, run_chaos, run_chaos_crash,
    ChaosOutcome, Verdict,
};
use crate::cli::Args;
use crate::sweep::parallel_map;
use crate::table::{write_artifact, Table};

/// Retry budget handed to the engine in every chaos cell.
const MAX_RETRIES: u32 = 16;
/// Shrink budget, in candidate runs, for a failing explore schedule.
const SHRINK_RUNS: usize = 400;

/// One chaos cell's outcome, labelled by profile, seed and size.
type ChaosCell = (&'static str, u64, u64, ChaosOutcome);

/// Run every (profile, seed, size) cell of one chaos column.
fn run_column(
    profiles: &[(&'static str, FaultProfile)],
    seeds: u64,
    sizes: &[u64],
    run: impl Fn(&FaultProfile, u64, u64) -> ChaosOutcome + Sync,
) -> Vec<ChaosCell> {
    let mut cells = Vec::new();
    for pi in 0..profiles.len() {
        for seed in 0..seeds {
            for &size in sizes {
                cells.push((pi, seed, size));
            }
        }
    }
    parallel_map(cells, |(pi, seed, size)| {
        let (name, profile) = &profiles[pi];
        (*name, seed, size, run(profile, seed, size))
    })
}

/// Tabulate one column's outcomes per profile (with the duplicate
/// column if `dups`), write a post-mortem per hung cell, and return the
/// number of hung cells.
fn soak_table(
    title: &str,
    profiles: &[(&'static str, FaultProfile)],
    results: &[ChaosCell],
    dups: bool,
) -> Result<usize, String> {
    let mut headers = vec![
        "profile", "runs", "intact", "failed", "hung", "faults", "retrans",
    ];
    if dups {
        headers.push("dups rx");
    }
    let mut t = Table::new(title, &headers);
    for (name, _) in profiles {
        let rows: Vec<&ChaosOutcome> = results
            .iter()
            .filter(|r| r.0 == *name)
            .map(|r| &r.3)
            .collect();
        let count = |v: Verdict| rows.iter().filter(|o| o.verdict == v).count();
        let sum = |f: fn(&ChaosOutcome) -> u64| rows.iter().map(|o| f(o)).sum::<u64>();
        let mut row = vec![
            name.to_string(),
            format!("{}", rows.len()),
            format!("{}", count(Verdict::Intact)),
            format!("{}", count(Verdict::FailedCleanly)),
            format!("{}", count(Verdict::Hung)),
            format!("{}", sum(|o| o.counters.faults_injected())),
            format!("{}", sum(|o| o.counters.retransmits())),
        ];
        if dups {
            row.push(format!("{}", sum(|o| o.counters.duplicates_rx())));
        }
        t.row(row);
    }
    t.print();

    // Flight recorder: every hung cell ships its post-mortem dump as an
    // artifact before the soak aborts.
    let mut hung = 0;
    for (name, seed, size, out) in results {
        if out.verdict == Verdict::Hung {
            hung += 1;
            let path = format!("postmortem_chaos_{name}_{seed}_{size}.json");
            write_artifact(&path, out.post_mortem.as_deref().unwrap_or("{}"))?;
            eprintln!("hung: {name} seed {seed} size {size} -> {path}");
        }
    }
    Ok(hung)
}

/// Chaos soak: sweep seeds × fault profiles × message sizes over a
/// hostile fabric and assert the protocol never hangs or panics — every
/// transfer either completes intact or errors out through the completion
/// path. A crash column repeats the sweep with the receiver crashed and
/// restarted mid-stream. Also compares duplicate retransmissions of the
/// adaptive backoff policy against the fixed 1 s timer under 5% loss.
///
/// `--smoke` is the reduced CI matrix (2 seeds, small messages);
/// `--seeds N` sets the seeds per cell (default 8). The engine's retry
/// budget is [`MAX_RETRIES`].
///
/// Run: `cargo run --release -p openmx-bench -- chaos [--smoke] [--seeds N]`
pub(crate) fn chaos(args: &Args) -> Result<(), String> {
    let seeds = args.seeds.unwrap_or(if args.smoke { 2 } else { 8 });
    let (sizes, msgs): (&[u64], u32) = if args.smoke {
        (&[16 * 1024, 256 * 1024], 2)
    } else {
        (&[16 * 1024, 256 * 1024, 1 << 20], 3)
    };

    let profs = profiles();
    let results = run_column(&profs, seeds, sizes, |profile, seed, size| {
        let cfg = chaos_cfg(0xc4a0_5000 + seed, MAX_RETRIES, true);
        run_chaos(&cfg, profile, size, msgs)
    });
    let hung = soak_table(
        "chaos soak: outcomes per fault profile",
        &profs,
        &results,
        true,
    )?;
    assert_eq!(hung, 0, "chaos soak found hung transfers");
    println!("soak: {} runs, 0 hangs, 0 panics", results.len());

    // Crash column: the receiving rank is crashed and restarted
    // mid-stream, alone and crossed with loss and duplication. The bar
    // is the same — every send settles, nothing hangs — plus byte
    // verification of whatever the reborn incarnation completed.
    let crash_profs = crash_profiles();
    let crash_results = run_column(&crash_profs, seeds, sizes, |profile, seed, size| {
        let cfg = chaos_cfg(0xc4a5_4000 + seed, MAX_RETRIES, true);
        run_chaos_crash(&cfg, profile, size, msgs + 2)
    });
    let hung = soak_table(
        "chaos crash column: receiver crash/restart mid-stream",
        &crash_profs,
        &crash_results,
        false,
    )?;
    assert_eq!(hung, 0, "crash column found hung transfers");
    println!(
        "crash column: {} runs, 0 hangs, 0 panics",
        crash_results.len()
    );

    // Adaptive-vs-fixed duplicate comparison under 5% i.i.d. loss. Bigger
    // messages than the soak cells: the duplicate gap comes from frames
    // that are delayed (not lost) being re-requested, which needs enough
    // in-flight traffic to show.
    let seeds: Vec<u64> = (0..seeds).map(|s| 0xd0b0_0000 + s).collect();
    let (fixed, adaptive) = duplicate_comparison(&seeds, 1 << 20, msgs + 2);
    let mut t = Table::new(
        "retransmission policy under 5% loss (sum over seeds)",
        &["policy", "dup frames rx", "retransmits"],
    );
    for (policy, c) in [("fixed 1 s", &fixed), ("adaptive", &adaptive)] {
        t.row(vec![
            policy.into(),
            format!("{}", c.duplicates_rx()),
            format!("{}", c.retransmits()),
        ]);
    }
    t.print();
    let (adaptive_dups, fixed_dups) = (adaptive.duplicates_rx(), fixed.duplicates_rx());
    assert!(
        adaptive_dups <= fixed_dups,
        "adaptive backoff produced more duplicates ({adaptive_dups}) than the fixed timer ({fixed_dups})",
    );
    println!("adaptive dups {adaptive_dups} <= fixed dups {fixed_dups}");
    Ok(())
}

/// Explorer soak: sweep seeds × op-mix profiles through the simulation
/// tester ([`simtest`]) and assert zero invariant violations, hangs or
/// panics. On a failure, the schedule is ddmin-shrunk (within
/// [`SHRINK_RUNS`] candidate runs) and a one-line repro string is
/// printed for a regression test to replay verbatim.
///
/// `--smoke` is the reduced CI matrix (5 seeds per profile); `--seeds N`
/// sets the seeds per profile (default 70), `--start N` the first seed
/// (default 0), and `--profile P` restricts the sweep to one of churn |
/// lossy | pressure | trimstorm | tenantmix | crashstorm.
///
/// Run: `cargo run --release -p openmx-bench -- explore [--smoke]`
pub(crate) fn explore(args: &Args) -> Result<(), String> {
    let seeds = args.seeds.unwrap_or(if args.smoke { 5 } else { 70 }) as usize;
    let profs: Vec<Profile> = op_mixes()
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
        "explore soak: invariant violations per op-mix profile",
        &["profile", "runs", "xfers", "completions", "failures"],
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
        t.row(vec![
            p.name.to_string(),
            format!("{}", sum(|r| r.runs)),
            format!("{}", sum(|r| r.xfers)),
            format!("{}", sum(|r| r.completions)),
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
