//! Exact checks of the benchmark's simulated-clock results. Virtual time
//! is bit-deterministic, so these compare for equality, not within a
//! tolerance.

use perfbench::{run_episode, Episode, Spans, Workload};

fn episode(w: Workload, seed: u64, trace: Option<usize>) -> Episode {
    let ep = run_episode(w, seed, trace, &mut Spans::new());
    assert_eq!(ep.outcome.errors(), 0, "{}: {:?}", w.name(), ep.outcome);
    ep
}

/// A value from the repository's committed `BENCH_core.json`.
fn bench_core_entry(key: &str) -> f64 {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_core.json");
    let text = std::fs::read_to_string(path).expect("read BENCH_core.json");
    let needle = format!("\"{key}\":");
    let at = text.find(&needle).expect("key in BENCH_core.json") + needle.len();
    let value = text[at..]
        .split([',', '\n', '}'])
        .next()
        .expect("value after key");
    value.trim().parse().expect("numeric value")
}

#[test]
fn pingpong_16m_agrees_with_the_fig7_baseline() {
    let w = Workload::PingPong16m;
    let ep = episode(w, 1, None);
    // IMB PingPong: bytes over half the round trip.
    let half_s = ep.outcome.virt_iter_ns as f64 / 2.0 / 1e9;
    let mib_s = w.msg_bytes() as f64 / f64::from(1 << 20) / half_s;
    let want = bench_core_entry("fig7.overlapped+cache.16777216.mib_s");
    let rel = (mib_s - want).abs() / want;
    assert!(rel < 1e-4, "pingpong_16m gives {mib_s} MiB/s, fig7 {want}");
}

#[test]
fn simulated_clock_and_counts_repeat_exactly() {
    for w in Workload::ALL {
        let untraced = episode(w, 1, None);
        // The benchmark's own sizing rule must leave nothing dropped.
        let capacity = untraced.outcome.events as usize + 4096;
        let a = episode(w, 1, Some(capacity));
        let b = episode(w, 1, Some(capacity));
        let (ta, tb) = (a.traced.expect("traced"), b.traced.expect("traced"));
        assert_eq!(ta.dropped, 0, "{}", w.name());
        assert_eq!(a.outcome, b.outcome, "{}: same seed", w.name());
        assert_eq!(ta, tb, "{}: same seed, traced", w.name());
        assert_eq!(
            a.outcome,
            untraced.outcome,
            "{}: tracing perturbed the run",
            w.name()
        );

        let other = episode(w, 2, Some(capacity));
        if w == Workload::SendRecv4kLossy {
            // The seed draws the losses.
            assert!(a.outcome.frames_lost > 0, "lossy fabric lost nothing");
            assert_ne!(a.outcome.frames_lost, other.outcome.frames_lost);
        } else {
            // Clean fabrics: the seed must not matter at all.
            assert_eq!(a.outcome, other.outcome, "{}: across seeds", w.name());
            assert_eq!(
                ta,
                other.traced.expect("traced"),
                "{}: across seeds",
                w.name()
            );
        }
    }
}
