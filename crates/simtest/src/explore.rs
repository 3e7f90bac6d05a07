//! The seeded explorer: generate → run → (on failure) shrink → report.

use openmx_core::CounterSet;

use crate::exec::{run_schedule_catching, Violation};
use crate::schedule::{encode, generate, Profile, Schedule};
use crate::shrink::shrink;

/// One failing seed, fully packaged for a bug report.
#[derive(Clone, Debug)]
pub struct FailureCase {
    /// The failing seed.
    pub seed: u64,
    /// Profile it failed under.
    pub profile: String,
    /// Violations the original schedule produced.
    pub violations: Vec<Violation>,
    /// Minimized schedule (still failing).
    pub shrunk: Schedule,
    /// Violations the shrunk schedule produces.
    pub shrunk_violations: Vec<Violation>,
    /// Self-contained repro string for the shrunk schedule — feed it to
    /// [`crate::schedule::decode`] and re-run to replay the failure.
    pub repro: String,
    /// Candidate runs the shrinker spent.
    pub shrink_runs: usize,
    /// Flight-recorder post-mortem JSON (last correlated spans + metrics
    /// snapshot + repro) from the shrunk run, falling back to the
    /// original failing run.
    pub post_mortem: String,
}

/// Aggregate result of one explorer sweep.
#[derive(Clone, Debug, Default)]
pub struct ExploreReport {
    /// Schedules executed.
    pub runs: usize,
    /// Transfers posted across all runs.
    pub xfers: usize,
    /// Completions observed across all runs.
    pub completions: usize,
    /// Ops applied across all runs.
    pub ops_executed: usize,
    /// Engine counters summed over all runs: faults the fabric injected,
    /// frames it lost, retransmissions and duplicates discarded show
    /// whether the profile's fabric actually bit.
    pub counters: CounterSet,
    /// Every failing seed, shrunk and packaged.
    pub failures: Vec<FailureCase>,
}

/// Run `count` seeded schedules (seeds `start_seed..start_seed+count`)
/// under one profile. Each failure is shrunk within `shrink_budget`
/// candidate runs and packaged as a [`FailureCase`].
pub fn explore(
    profile: &Profile,
    start_seed: u64,
    count: usize,
    shrink_budget: usize,
) -> ExploreReport {
    let mut report = ExploreReport::default();
    for i in 0..count {
        let seed = start_seed.wrapping_add(i as u64);
        let s = generate(seed, profile);
        let out = run_schedule_catching(&s, None);
        report.runs += 1;
        report.xfers += out.xfers;
        report.completions += out.completions;
        report.ops_executed += out.ops_executed;
        report.counters = [std::mem::take(&mut report.counters), out.counters]
            .into_iter()
            .sum();
        if out.violations.is_empty() {
            continue;
        }
        let (shrunk, shrink_runs) = shrink(&s, None, shrink_budget);
        let shrunk_out = run_schedule_catching(&shrunk, None);
        report.failures.push(FailureCase {
            seed,
            profile: profile.name.to_string(),
            violations: out.violations,
            repro: encode(&shrunk),
            shrunk,
            shrunk_violations: shrunk_out.violations,
            post_mortem: shrunk_out
                .post_mortem
                .or(out.post_mortem)
                .unwrap_or_default(),
            shrink_runs,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::profiles;

    #[test]
    fn one_seed_per_profile_is_clean() {
        for p in profiles() {
            let r = explore(&p, 1000, 1, 10);
            assert_eq!(r.runs, 1);
            assert!(
                r.failures.is_empty(),
                "{}: {:?}",
                p.name,
                r.failures[0].violations
            );
            assert!(r.xfers > 0, "{}: schedule posted no transfers", p.name);
        }
    }
}
