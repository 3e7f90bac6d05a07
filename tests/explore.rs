//! Simulation-test harness regression suite.
//!
//! Three layers of defense, all replayable from strings or single seeds:
//!
//! * a smoke sweep of freshly generated schedules per op-mix profile,
//! * a pinned corpus of repro strings (schedules that exercise every
//!   churn kind against in-flight transfers) replayed verbatim,
//! * mutation tests proving the invariant oracle actually catches the
//!   bug classes it claims to, under the clean op mixes and under every
//!   fault fabric, and that the shrinker minimizes a failure to a
//!   handful of ops whose repro string replays deterministically.

use openmx_core::{audit, Counter};
use simtest::{
    decode, encode, explore, generate, profile_by_name, profiles, run_schedule_catching, shrink,
    Mutation, Violation,
};

/// The one-fault-at-a-time fabric profiles: bursty loss, reordering and
/// duplication under the transfer-heavy mix, then a clean, lossy,
/// duplicating and mixed fabric under the crash/restart mix.
const FABRICS: [&str; 7] = [
    "burst",
    "reorder",
    "dup",
    "crash",
    "crashloss",
    "crashdup",
    "crashlossdup",
];

/// How many of seeds 0..5 of profile `name` catch mutation `m` with a
/// violation matching `hit`.
fn seeds_caught(name: &str, m: Option<Mutation>, hit: fn(&Violation) -> bool) -> usize {
    let p = profile_by_name(name).unwrap();
    (0..5)
        .filter(|&seed| {
            let out = run_schedule_catching(&generate(seed, &p), m);
            out.violations.iter().any(hit)
        })
        .count()
}

#[test]
fn explore_smoke_all_profiles() {
    let clean: Vec<&str> = profiles()
        .iter()
        .filter(|p| p.faults.is_clean())
        .map(|p| p.name)
        .collect();
    assert_eq!(
        clean,
        ["churn", "pressure", "trimstorm", "tenantmix", "crash"]
    );
    for p in profiles() {
        let r = explore(&p, 0, 3, 10);
        assert_eq!(r.runs, 3);
        assert!(
            r.failures.is_empty(),
            "profile {}: seed 0x{:x} violated: {:?}",
            p.name,
            r.failures[0].seed,
            r.failures[0].violations
        );
        assert!(r.xfers > 0, "profile {} posted no transfers", p.name);
        assert!(
            r.completions > 0,
            "profile {} observed no completions",
            p.name
        );
        // A fault fabric must actually bite, and a clean one must not.
        let bit = r.counters.faults_injected() + r.counters.get(Counter::NetFramesLost);
        if p.faults.is_clean() {
            assert_eq!(bit, 0, "clean profile {} lost or faulted frames", p.name);
        } else {
            assert!(bit > 0, "profile {} injected nothing", p.name);
        }
    }
}

/// Pinned corpus: hand-minimized schedules covering each churn kind
/// landing on an in-flight transfer. Replayed verbatim from the repro
/// string — exactly the path a shrunk failure report would take.
#[test]
fn pinned_repro_corpus_is_clean() {
    let corpus = [
        // Eager transfer, receive posted first.
        "EXPL1;seed=0x1;profile=churn;nodes=2;ppn=1;ops=X0.0>1.0:2048r,A10",
        // Eager transfer on the unexpected path (recv delayed).
        "EXPL1;seed=0x2;profile=churn;nodes=2;ppn=1;ops=X0.0>1.0:16384s,A10",
        // Rendezvous with the send buffer unmapped mid-flight.
        "EXPL1;seed=0x3;profile=churn;nodes=2;ppn=1;ops=X0.0>1.0:262144r,A1,U0.0,A40",
        // Rendezvous with the recv buffer unmapped and remapped mid-flight.
        "EXPL1;seed=0x4;profile=churn;nodes=2;ppn=1;ops=X0.0>1.0:262144r,A1,R1.0,A40",
        // Fork + COW write on the sender while a rendezvous is in flight.
        "EXPL1;seed=0x5;profile=churn;nodes=2;ppn=1;ops=X0.0>1.0:131072r,F0.0,A40",
        // Swap-out/in of the send buffer (content-preserving: data oracle
        // still checks the delivered bytes).
        "EXPL1;seed=0x6;profile=churn;nodes=2;ppn=1;ops=X0.0>1.0:131072r,O0.0,A2,I0.0,A40",
        // Page migration of the recv buffer mid-flight.
        "EXPL1;seed=0x7;profile=churn;nodes=2;ppn=1;ops=X0.0>1.0:131072r,A1,M1.0,A40",
        // Sender rewrites its buffer while the transfer is in flight.
        "EXPL1;seed=0x8;profile=churn;nodes=2;ppn=1;ops=X0.0>1.0:262144r,A1,W0.0,A40",
        // Crossing rendezvous transfers between two node pairs, 2 procs/node.
        "EXPL1;seed=0x9;profile=churn;nodes=2;ppn=2;ops=X0.0>3.0:262144r,X2.1>1.1:131072s,A60",
        // Rendezvous under loss, duplication and reordering.
        "EXPL1;seed=0xa;profile=lossy;nodes=2;ppn=1;ops=X0.0>1.0:262144r,A80",
        // Pin-pressure eviction: three large transfers through a 96-page
        // pin budget, with swap-out churn on an idle buffer.
        "EXPL1;seed=0xb;profile=pressure;nodes=3;ppn=1;ops=\
         X0.0>1.0:262144r,X1.1>2.0:262144r,O2.2,X2.1>0.1:131072s,A80",
        // Notifier-during-pin race: the send buffer is unmapped in the
        // same tick the rendezvous posts, so the invalidation lands while
        // the overlapped pin pass is still in flight — the generation
        // stamp must restart the pass instead of re-pinning freed pages.
        "EXPL1;seed=0xc;profile=trimstorm;nodes=2;ppn=1;ops=X0.0>1.0:262144r,U0.0,A40",
        // Trim/remap churn that cancels its own deferred unpins: the recv
        // buffer is remapped twice inside one flush epoch while the pull
        // traffic is in flight.
        "EXPL1;seed=0xd;profile=trimstorm;nodes=2;ppn=1;ops=X0.0>1.0:262144r,R1.0,A1,R1.0,A40",
        // Deferred drain racing an epoch-timer close under pin-budget
        // pressure: the unmapped send buffer parks 64 stale-held pages,
        // then the next 80-page pin overruns the 96-page budget while the
        // flush timer is still armed — submit_pin_chunk must drain the
        // deferred queue early (cheapest headroom) and the later timer
        // close must tolerate finding the queue already empty.
        "EXPL1;seed=0x10;profile=pressure;nodes=2;ppn=1;ops=\
         X0.0>1.0:262144r,A10,U0.0,X0.1>1.1:327680r,A80",
        // Region undeclared while parked in the deferred-unpin queue: the
        // trimmed buffer's region sits in the driver's pending set when
        // LRU churn on the tiny descriptor cache evicts and undeclares
        // it mid-epoch — the undeclare must also drop the pending entry,
        // or the drain would touch a recycled region slot.
        "EXPL1;seed=0x11;profile=trimstorm;nodes=2;ppn=1;ops=\
         X0.0>1.0:262144r,A10,R0.0,X0.1>1.1:49152r,X0.2>1.2:49152r,\
         X0.1>1.1:131072r,X0.2>1.2:131072r,A40",
    ];
    for repro in corpus {
        let s = decode(repro)
            .unwrap_or_else(|e| panic!("corpus entry failed to decode: {e}\n  {repro}"));
        assert_eq!(encode(&s), repro.replace(['\n', ' '], ""));
        let out = run_schedule_catching(&s, None);
        assert!(
            out.violations.is_empty(),
            "corpus repro violated: {:?}\n  {repro}",
            out.violations
        );
        assert!(out.xfers > 0);
    }
}

/// The two deferred-unpin edge repros must actually reach their edge, not
/// just pass: the counter signatures below were pinned from instrumented
/// runs and distinguish the paths from an ordinary timer drain.
#[test]
fn deferred_unpin_edge_repros_hit_their_paths() {
    // Pressure-forced early drain: the deferral parks, and exactly one
    // drain batch releases it (the timer close that follows finds the
    // queue empty and counts nothing). The drain — not LRU eviction —
    // provides the headroom, so node 0 does no pressure unpinning at all.
    let s = decode(
        "EXPL1;seed=0x10;profile=pressure;nodes=2;ppn=1;ops=\
         X0.0>1.0:262144r,A10,U0.0,X0.1>1.1:327680r,A80",
    )
    .unwrap();
    let out = run_schedule_catching(&s, None);
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    let n0 = &out.driver_stats[0];
    assert_eq!(n0.notifier_deferred, 1, "unmap must park a deferral");
    assert_eq!(n0.notifier_drain_batches, 1, "early drain must release it");
    assert_eq!(n0.notifier_region_unpins, 1);
    assert_eq!(
        n0.pressure_unpinned_pages, 0,
        "the deferred drain, not pressure eviction, must provide headroom"
    );

    // Undeclare-while-parked: the deferral parks, then cache churn
    // undeclares the region before any drain runs — a parked entry that
    // vanishes without ever being drained is exactly this path's
    // signature (`notifier_deferred` counted, zero drain batches).
    let s = decode(
        "EXPL1;seed=0x11;profile=trimstorm;nodes=2;ppn=1;ops=\
         X0.0>1.0:262144r,A10,R0.0,X0.1>1.1:49152r,X0.2>1.2:49152r,\
         X0.1>1.1:131072r,X0.2>1.2:131072r,A40",
    )
    .unwrap();
    let out = run_schedule_catching(&s, None);
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    let n0 = &out.driver_stats[0];
    assert_eq!(n0.notifier_deferred, 1, "trim must park a deferral");
    assert_eq!(
        n0.notifier_drain_batches, 0,
        "the undeclare must beat every drain to the parked entry"
    );
    assert_eq!(n0.notifier_region_unpins, 0);
}

/// Crash-at-every-phase pinned corpus: one hand-minimized schedule per
/// protocol phase a crash can land in. Each entry must stay violation
/// free *and* reproduce its pinned counter signature, so a regression
/// that silently stops exercising the phase (or stops reaping) fails
/// loudly here rather than in a soak.
#[test]
fn crash_phase_corpus_signatures() {
    // Phase 1: eager message in flight, receiver dies before the ack
    // returns — the eager watchdog must short-circuit the sender.
    let out = run("EXPL1;seed=0x20;profile=crashstorm;nodes=2;ppn=1;ops=X0.0>1.0:16384s,C1,A40");
    assert_eq!(out.counters.get(Counter::ProcCrashes), 1);
    assert!(
        out.counters.get(Counter::PeerDeadAborts) >= 1,
        "eager watchdog"
    );
    assert!(out.counters.get(Counter::RequestsFailed) >= 1);

    // Phase 2: rendezvous sent but no pull ever starts (recv never
    // posted, receiver dies) — the rndv watchdog aborts before any pull
    // traffic exists.
    let out = run("EXPL1;seed=0x21;profile=crashstorm;nodes=2;ppn=1;ops=X0.0>1.0:262144s,C1,A60");
    assert_eq!(out.counters.get(Counter::RndvMsgsTx), 1);
    assert_eq!(
        out.counters.get(Counter::FramesRx),
        1,
        "only the rndv frame may ever land — no pull traffic pre-crash"
    );
    assert!(
        out.counters.get(Counter::PeerDeadAborts) >= 1,
        "rndv watchdog"
    );
    assert!(out.counters.get(Counter::RequestsFailed) >= 1);

    // Phase 3: pull mid-block, sender dies — in-flight pull replies are
    // fenced at the dead endpoint and the sender's pinned region is
    // reaped by the crash, not by protocol completion.
    let out =
        run("EXPL1;seed=0x22;profile=crashstorm;nodes=2;ppn=1;ops=X0.0>1.0:262144r,A1,C0,A80");
    assert!(
        out.counters.get(Counter::FramesFenced) >= 1,
        "mid-pull fencing"
    );
    assert_eq!(out.counters.get(Counter::CrashReapedPages), 64);
    assert!(out.counters.get(Counter::PeerDeadAborts) >= 1);

    // Phase 4: deferred unpin parked, owner dies — the crash teardown
    // must reap the parked entry before any drain batch runs (signature:
    // a deferral counted, zero drains, pages reaped by the crash).
    let out =
        run("EXPL1;seed=0x23;profile=trimstorm;nodes=2;ppn=1;ops=X0.0>1.0:262144r,A30,U0.0,C0,A5");
    let n0 = &out.driver_stats[0];
    assert_eq!(n0.notifier_deferred, 1, "unmap must park a deferral");
    assert_eq!(
        n0.notifier_drain_batches, 0,
        "the crash must beat every drain to the parked entry"
    );
    assert_eq!(out.counters.get(Counter::CrashReapedPages), 64);

    // Phase 5: pin pass racing budget pressure, owner dies — the second
    // transfer's pin self-evicts the first region (128 pages of pressure
    // unpins), then the crash reaps the survivor's 80 pinned pages and
    // the in-flight plan without tripping pin accounting.
    let out = run("EXPL1;seed=0x24;profile=pressure;nodes=2;ppn=1;ops=\
         X0.0>1.0:262144r,A10,X0.1>1.1:327680r,C0,A80");
    assert_eq!(out.counters.get(Counter::PressureUnpinnedPages), 128);
    assert_eq!(out.counters.get(Counter::CrashReapedPages), 80);
    assert!(out.counters.get(Counter::FramesFenced) >= 1);
    assert!(out.counters.get(Counter::PeerDeadAborts) >= 1);

    // Phase 6: full cycle — crash, restart with a bumped incarnation,
    // and a fresh transfer through the reborn endpoint.
    let out = run("EXPL1;seed=0x25;profile=crashstorm;nodes=2;ppn=1;ops=\
         X0.0>1.0:2048r,A10,C0,A3,B0,X0.1>1.1:2048r,A20");
    assert_eq!(out.counters.get(Counter::ProcCrashes), 1);
    assert_eq!(out.counters.get(Counter::ProcRestarts), 1);
    assert_eq!(out.xfers, 2);
    assert!(
        out.completions >= 4,
        "the post-restart transfer must complete"
    );
}

fn run(repro: &str) -> simtest::RunOutcome {
    let s = decode(repro).unwrap_or_else(|e| panic!("bad corpus entry: {e}\n  {repro}"));
    assert_eq!(encode(&s), repro.replace(['\n', ' '], ""));
    let out = run_schedule_catching(&s, None);
    assert!(
        out.violations.is_empty(),
        "corpus repro violated: {:?}\n  {repro}",
        out.violations
    );
    out
}

/// A crash that leaks its pins (teardown skipped) must be caught by the
/// per-tick orphan-pin oracle and replay deterministically.
#[test]
fn leak_on_crash_is_caught_and_replays() {
    let s =
        decode("EXPL1;seed=0x26;profile=crashstorm;nodes=2;ppn=1;ops=X0.0>1.0:262144r,A30,C0,A5")
            .unwrap();
    let clean = run_schedule_catching(&s, None);
    assert!(clean.violations.is_empty(), "{:?}", clean.violations);
    let m = Some(Mutation::LeakOnCrash);
    let out = run_schedule_catching(&s, m);
    assert!(
        out.violations
            .iter()
            .any(|v| matches!(v, Violation::State(audit::Violation::OrphanPins { .. }))),
        "leaky crash not caught: {:?}",
        out.violations
    );
    let again = run_schedule_catching(&s, m);
    assert_eq!(out.violations, again.violations);
    let orphans =
        |v: &Violation| matches!(v, Violation::State(audit::Violation::OrphanPins { .. }));
    for name in &FABRICS[3..] {
        assert!(
            seeds_caught(name, m, orphans) > 0,
            "leaky crash not caught under {name}"
        );
    }
}

/// Acceptance mutation: a deliberately leaked page pin must be caught by
/// the pin-accounting invariant, shrink to a handful of ops, and replay
/// deterministically from the printed repro string.
#[test]
fn injected_pin_leak_is_caught_shrinks_and_replays() {
    let p = profile_by_name("churn").unwrap();
    let s = generate(7, &p);
    let m = Some(Mutation::LeakPin { after_op: 5 });

    let out = run_schedule_catching(&s, m);
    assert!(
        out.violations
            .iter()
            .any(|v| matches!(v, Violation::State(audit::Violation::PinAccounting { .. }))),
        "leaked pin not caught: {:?}",
        out.violations
    );

    let (small, _runs) = shrink(&s, m, 300);
    assert!(
        small.ops.len() <= 10,
        "shrunk schedule still has {} ops",
        small.ops.len()
    );

    // The repro string round-trips and two replays agree exactly.
    let repro = encode(&small);
    let replay = decode(&repro).expect("repro string must decode");
    assert_eq!(replay, small);
    let a = run_schedule_catching(&replay, m);
    let b = run_schedule_catching(&replay, m);
    assert!(!a.violations.is_empty(), "shrunk repro no longer fails");
    assert_eq!(a.violations, b.violations, "replay is not deterministic");
    assert_eq!(a.ops_executed, b.ops_executed);

    // Every seed of every fault fabric catches it too.
    let pin_accounting =
        |v: &Violation| matches!(v, Violation::State(audit::Violation::PinAccounting { .. }));
    for name in FABRICS {
        assert_eq!(
            seeds_caught(name, m, pin_accounting),
            5,
            "leaked pin not caught under {name}"
        );
    }
}

/// A forgotten stale watermark (equivalently: a lost MMU-notifier
/// callback) must surface as a `StaleVisible` residency violation — the
/// per-tick oracle that guards the deferred-unpin path has to notice a
/// moved page the driver still exposes to the protocol.
#[test]
fn forgotten_stale_watermark_is_caught() {
    let p = profile_by_name("trimstorm").unwrap();
    let s = generate(9, &p);
    let m = Some(Mutation::ForgetStale { after_op: 4 });
    let out = run_schedule_catching(&s, m);
    assert!(
        out.violations
            .iter()
            .any(|v| matches!(v, Violation::State(audit::Violation::StaleVisible { .. }))),
        "forgotten watermark not caught: {:?}",
        out.violations
    );
    // Two replays of the same (schedule, mutation) agree exactly.
    let again = run_schedule_catching(&s, m);
    assert_eq!(out.violations, again.violations);
    let stale =
        |v: &Violation| matches!(v, Violation::State(audit::Violation::StaleVisible { .. }));
    for name in FABRICS {
        assert!(
            seeds_caught(name, m, stale) > 0,
            "forgotten watermark not caught under {name}"
        );
    }
}

/// Quota enforcement switched off behind the oracle's back must surface
/// as a `QuotaExceeded` violation: the per-tick tenant oracle takes the
/// hard cap from the *profile*, so blinding the driver cannot blind it.
#[test]
fn skipped_quota_enforcement_is_caught() {
    let p = profile_by_name("tenantmix").unwrap();
    let s = generate(5, &p);
    let clean = run_schedule_catching(&s, None);
    assert!(clean.violations.is_empty(), "{:?}", clean.violations);
    let m = Some(Mutation::SkipQuota);
    let out = run_schedule_catching(&s, m);
    assert!(
        out.violations
            .iter()
            .any(|v| matches!(v, Violation::State(audit::Violation::QuotaExceeded { .. }))),
        "skipped quota not caught: {:?}",
        out.violations
    );
    // Two replays of the same (schedule, mutation) agree exactly.
    let again = run_schedule_catching(&s, m);
    assert_eq!(out.violations, again.violations);
}

/// A swallowed completion must surface as a conservation violation
/// (the pair never settles → Hang), not pass silently.
#[test]
fn swallowed_completion_is_caught() {
    let p = profile_by_name("churn").unwrap();
    let s = generate(3, &p);
    let m = Some(Mutation::SwallowCompletion { nth: 0 });
    let out = run_schedule_catching(&s, m);
    assert!(
        out.violations
            .iter()
            .any(|v| matches!(v, Violation::Hang { .. })),
        "swallowed completion not caught: {:?}",
        out.violations
    );
    let hang = |v: &Violation| matches!(v, Violation::Hang { .. });
    for name in FABRICS {
        assert!(
            seeds_caught(name, m, hang) > 0,
            "swallowed completion not caught under {name}"
        );
    }
}
