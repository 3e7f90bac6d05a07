//! Chaos soak: sweep seeds × fault profiles × message sizes over a
//! hostile fabric and assert the protocol never hangs or panics — every
//! transfer either completes intact or errors out through the completion
//! path. Also compares duplicate retransmissions of the adaptive backoff
//! policy against the fixed 1 s timer under 5% loss.
//!
//! Run: `cargo run --release -p openmx-bench --bin chaos [-- --smoke]`
//!
//! Flags:
//! * `--smoke`          reduced matrix for CI (2 seeds, small messages),
//! * `--seeds N`        number of seeds per cell (default 8),
//! * `--max-retries N`  retry budget handed to the engine (default 16).

use openmx_bench::chaos::{
    chaos_cfg, crash_profiles, duplicate_comparison, profiles, run_chaos, run_chaos_crash, Verdict,
};
use openmx_bench::sweep::parallel_map;
use openmx_bench::table::Table;

struct Args {
    seeds: u64,
    max_retries: u32,
    sizes: Vec<u64>,
    msgs: u32,
}

fn parse_args() -> Args {
    let mut args = Args {
        seeds: 8,
        max_retries: 16,
        sizes: vec![16 * 1024, 256 * 1024, 1 << 20],
        msgs: 3,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--smoke" => {
                args.seeds = 2;
                args.sizes = vec![16 * 1024, 256 * 1024];
                args.msgs = 2;
            }
            "--seeds" => {
                i += 1;
                args.seeds = argv[i].parse().expect("--seeds takes a number");
            }
            "--max-retries" => {
                i += 1;
                args.max_retries = argv[i].parse().expect("--max-retries takes a number");
            }
            other => {
                eprintln!("unknown flag: {other}");
                eprintln!("usage: chaos [--smoke] [--seeds N] [--max-retries N]");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    args
}

fn main() {
    let args = parse_args();
    let profiles = profiles();

    // The full matrix: every (profile, seed, size) cell is one simulation.
    let mut cells = Vec::new();
    for (pi, _) in profiles.iter().enumerate() {
        for seed in 0..args.seeds {
            for &size in &args.sizes {
                cells.push((pi, seed, size));
            }
        }
    }
    let n_cells = cells.len();
    let max_retries = args.max_retries;
    let msgs = args.msgs;
    let profs = profiles.clone();
    let results = parallel_map(cells, move |(pi, seed, size)| {
        let (name, profile) = &profs[pi];
        let cfg = chaos_cfg(0xc4a0_5000 + seed, max_retries, true);
        let out = run_chaos(&cfg, profile, size, msgs);
        (*name, seed, size, out)
    });

    let mut t = Table::new(
        "chaos soak: outcomes per fault profile",
        &[
            "profile", "runs", "intact", "failed", "hung", "faults", "retrans", "dups rx",
        ],
    );
    let mut hung_total = 0u64;
    for (name, _) in &profiles {
        let rows: Vec<_> = results.iter().filter(|r| r.0 == *name).collect();
        let intact = rows
            .iter()
            .filter(|r| r.3.verdict == Verdict::Intact)
            .count();
        let failed = rows
            .iter()
            .filter(|r| r.3.verdict == Verdict::FailedCleanly)
            .count();
        let hung = rows.iter().filter(|r| r.3.verdict == Verdict::Hung).count();
        hung_total += hung as u64;
        let faults: u64 = rows.iter().map(|r| r.3.counters.faults_injected()).sum();
        let retrans: u64 = rows.iter().map(|r| r.3.counters.retransmits()).sum();
        let dups: u64 = rows.iter().map(|r| r.3.counters.duplicates_rx()).sum();
        t.row(vec![
            name.to_string(),
            format!("{}", rows.len()),
            format!("{intact}"),
            format!("{failed}"),
            format!("{hung}"),
            format!("{faults}"),
            format!("{retrans}"),
            format!("{dups}"),
        ]);
    }
    t.emit(None);

    // Flight recorder: every hung cell ships its post-mortem dump as an
    // artifact before the soak aborts.
    if hung_total > 0 {
        for (name, seed, size, out) in &results {
            if out.verdict != Verdict::Hung {
                continue;
            }
            let path = format!("postmortem_chaos_{name}_{seed}_{size}.json");
            let dump = out.post_mortem.as_deref().unwrap_or("{}");
            std::fs::write(&path, dump).expect("write post-mortem");
            eprintln!("hung: {name} seed {seed} size {size} -> {path}");
        }
    }
    assert_eq!(hung_total, 0, "chaos soak found hung transfers");
    println!("soak: {n_cells} runs, 0 hangs, 0 panics");

    // Crash column: the receiving rank is crashed and restarted
    // mid-stream, alone and crossed with loss and duplication. The bar
    // is the same — every send settles, nothing hangs — plus byte
    // verification of whatever the reborn incarnation completed.
    let crash_profs = crash_profiles();
    let mut crash_cells = Vec::new();
    for (pi, _) in crash_profs.iter().enumerate() {
        for seed in 0..args.seeds {
            for &size in &args.sizes {
                crash_cells.push((pi, seed, size));
            }
        }
    }
    let n_crash = crash_cells.len();
    let cprofs = crash_profs.clone();
    let crash_results = parallel_map(crash_cells, move |(pi, seed, size)| {
        let (name, profile) = &cprofs[pi];
        let cfg = chaos_cfg(0xc4a5_4000 + seed, max_retries, true);
        let out = run_chaos_crash(&cfg, profile, size, msgs + 2);
        (*name, seed, size, out)
    });
    let mut t = Table::new(
        "chaos crash column: receiver crash/restart mid-stream",
        &[
            "profile", "runs", "intact", "failed", "hung", "faults", "retrans",
        ],
    );
    let mut crash_hung = 0u64;
    for (name, _) in &crash_profs {
        let rows: Vec<_> = crash_results.iter().filter(|r| r.0 == *name).collect();
        let intact = rows
            .iter()
            .filter(|r| r.3.verdict == Verdict::Intact)
            .count();
        let failed = rows
            .iter()
            .filter(|r| r.3.verdict == Verdict::FailedCleanly)
            .count();
        let hung = rows.iter().filter(|r| r.3.verdict == Verdict::Hung).count();
        crash_hung += hung as u64;
        let faults: u64 = rows.iter().map(|r| r.3.counters.faults_injected()).sum();
        let retrans: u64 = rows.iter().map(|r| r.3.counters.retransmits()).sum();
        t.row(vec![
            name.to_string(),
            format!("{}", rows.len()),
            format!("{intact}"),
            format!("{failed}"),
            format!("{hung}"),
            format!("{faults}"),
            format!("{retrans}"),
        ]);
    }
    t.emit(None);
    if crash_hung > 0 {
        for (name, seed, size, out) in &crash_results {
            if out.verdict != Verdict::Hung {
                continue;
            }
            let path = format!("postmortem_chaos_{name}_{seed}_{size}.json");
            let dump = out.post_mortem.as_deref().unwrap_or("{}");
            std::fs::write(&path, dump).expect("write post-mortem");
            eprintln!("hung: {name} seed {seed} size {size} -> {path}");
        }
    }
    assert_eq!(crash_hung, 0, "crash column found hung transfers");
    println!("crash column: {n_crash} runs, 0 hangs, 0 panics");

    // Adaptive-vs-fixed duplicate comparison under 5% i.i.d. loss. Bigger
    // messages than the soak cells: the duplicate gap comes from frames
    // that are delayed (not lost) being re-requested, which needs enough
    // in-flight traffic to show.
    let seeds: Vec<u64> = (0..args.seeds).map(|s| 0xd0b0_0000 + s).collect();
    let (fixed, adaptive) = duplicate_comparison(&seeds, 1 << 20, args.msgs + 2);
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
    t.emit(None);
    let (adaptive_dups, fixed_dups) = (adaptive.duplicates_rx(), fixed.duplicates_rx());
    assert!(
        adaptive_dups <= fixed_dups,
        "adaptive backoff produced more duplicates ({adaptive_dups}) than the fixed timer ({fixed_dups})",
    );
    println!("adaptive dups {adaptive_dups} <= fixed dups {fixed_dups}");
}
