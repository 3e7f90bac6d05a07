//! Chaos soak harness: hostile-fabric sweeps asserting protocol liveness.
//!
//! Each run streams verified payloads between two ranks through a fabric
//! with injected faults (bursty loss, reordering, duplication, or all at
//! once) and classifies the outcome:
//!
//! * **intact** — every rank finished and every received byte matches,
//! * **failed cleanly** — at least one request errored through the normal
//!   completion path (the application saw it; nothing is stuck silently),
//! * **hung** — a rank neither finished nor observed a failure: the
//!   protocol lost liveness. The soak treats this as a hard error.
//!
//! The sweep axes (seeds × profiles × message sizes) and the adaptive-vs-
//! fixed retransmission comparison are driven by `bench chaos`.

use std::cell::Cell;
use std::rc::Rc;

use openmx_core::engine::{Cluster, Ctx, Process};
use openmx_core::{AppEvent, CounterSet, OpenMxConfig, PinningMode, ProcId};
use openmx_mpi::collectives::JobBuilder;
use openmx_mpi::run_job;
use simcore::{SimDuration, SimTime};
use simmem::VirtAddr;
use simnet::{FaultConfig, FaultProfile, GilbertElliott};

use crate::pingpong::send_step;

/// How one chaos run ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// All ranks finished and the payload verified byte-for-byte.
    Intact,
    /// Requests failed, but through the completion path — the run
    /// terminated and the application observed every error.
    FailedCleanly,
    /// A rank neither finished nor saw a failure: liveness lost.
    Hung,
}

/// The verdict and counters of one chaos run.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// Outcome classification.
    pub verdict: Verdict,
    /// The run's engine counters: retransmits, duplicates discarded,
    /// faults injected, …
    pub counters: CounterSet,
    /// Flight-recorder post-mortem JSON, present iff the run was not
    /// intact. Chaos jobs run with tracing off, so the dump is a
    /// metrics-only snapshot (no spans) — still enough to see retransmit
    /// and fault counts at the point of failure.
    pub post_mortem: Option<String>,
}

impl ChaosOutcome {
    /// The outcome of `cl`'s run, with a post-mortem when `reason` is set.
    fn of(cl: &Cluster, verdict: Verdict, reason: Option<&str>) -> Self {
        let counters = cl.counters();
        let post_mortem = reason.map(|r| {
            openmx_core::obs::post_mortem_json(r, None, cl.tracer(), cl.metrics(), &counters, 32)
        });
        ChaosOutcome {
            verdict,
            counters,
            post_mortem,
        }
    }
}

/// The soak's fault-profile axis: every hostile behavior alone, then all
/// of them together, each applied to both directions of the 0 ↔ 1 pair.
pub fn profiles() -> Vec<(&'static str, FaultProfile)> {
    let burst = FaultProfile {
        burst: Some(GilbertElliott::bursty(0.05, 8.0)),
        ..FaultProfile::default()
    };
    let reorder = FaultProfile {
        reorder: 0.15,
        reorder_jitter: SimDuration::from_micros(200),
        ..FaultProfile::default()
    };
    let duplicate = FaultProfile {
        duplicate: 0.10,
        ..FaultProfile::default()
    };
    let combined = FaultProfile {
        burst: Some(GilbertElliott::bursty(0.03, 4.0)),
        reorder: 0.05,
        reorder_jitter: SimDuration::from_micros(100),
        duplicate: 0.05,
        loss: 0.01,
        ..FaultProfile::default()
    };
    vec![
        ("burst-loss", burst),
        ("reorder", reorder),
        ("duplicate", duplicate),
        ("combined", combined),
    ]
}

/// Baseline config for chaos runs: overlapped+cached pinning, a short
/// retransmission ceiling so lossy runs converge in reasonable virtual
/// time, and the caller's seed / retry budget.
pub fn chaos_cfg(seed: u64, max_retries: u32, adaptive: bool) -> OpenMxConfig {
    let mut cfg = OpenMxConfig::with_mode(PinningMode::OverlappedCached);
    cfg.seed = seed;
    cfg.max_retries = max_retries;
    cfg.adaptive_retransmit = adaptive;
    cfg.retransmit_timeout = SimDuration::from_millis(50);
    cfg
}

/// `cfg` with `profile` on both directions of the 0 ↔ 1 link.
fn with_link_faults(cfg: &OpenMxConfig, profile: &FaultProfile) -> OpenMxConfig {
    let mut cfg = cfg.clone();
    cfg.net.faults = FaultConfig::clean();
    cfg.net.faults.set_link(0, 1, *profile);
    cfg.net.faults.set_link(1, 0, *profile);
    cfg
}

/// True when `len` bytes at `addr` of rank 1 hold the sender's pattern.
fn verified(cl: &mut Cluster, addr: VirtAddr, len: u64) -> bool {
    let got = cl.read_proc(ProcId(1), addr, len);
    got.iter().enumerate().all(|(i, &v)| v == (i as u8) ^ 0x6b)
}

/// Run `msgs` verified messages of `len` bytes from rank 0 to rank 1 under
/// `profile` on both directions of the link, and classify the outcome.
/// Never panics on protocol failure — that is the point of the harness.
pub fn run_chaos(cfg: &OpenMxConfig, profile: &FaultProfile, len: u64, msgs: u32) -> ChaosOutcome {
    let cfg = with_link_faults(cfg, profile);

    let mut b = JobBuilder::new(2);
    let sbuf = b.alloc(len, |_| Some(0x6b));
    let rbuf = b.alloc(len, |_| None);
    for _ in 0..msgs {
        send_step(&mut b, (0, 1), sbuf, rbuf, len);
    }
    let (mut cl, records) = run_job(&cfg, 2, 1, b.scripts);

    let failed = records.iter().any(|r| !r.failures.is_empty());
    let all_finished = records.iter().all(|r| r.finished.is_some());
    let verdict = if !failed && all_finished {
        if verified(&mut cl, records[1].buffer_addrs[rbuf], len) {
            Verdict::Intact
        } else {
            // Data corruption with no reported error is a silent failure.
            Verdict::Hung
        }
    } else if !failed {
        // Unfinished ranks with no recorded failure anywhere: stuck.
        Verdict::Hung
    } else {
        // Errors surfaced through the completion path. A peer of a failed
        // transfer may legitimately not finish (its partner is gone) —
        // what matters is that the run terminated and the error was seen.
        Verdict::FailedCleanly
    };

    let reason = match verdict {
        Verdict::Intact => None,
        Verdict::Hung => Some("chaos: liveness lost (rank stuck or silent corruption)"),
        Verdict::FailedCleanly => Some("chaos: transfers failed through the completion path"),
    };
    ChaosOutcome::of(&cl, verdict, reason)
}

/// The crash-column axis: a receiver crash/restart mid-stream, alone and
/// crossed with the hostile-fabric behaviors (loss, duplication, both).
pub fn crash_profiles() -> Vec<(&'static str, FaultProfile)> {
    let loss = FaultProfile {
        loss: 0.03,
        ..FaultProfile::default()
    };
    let duplicate = FaultProfile {
        duplicate: 0.10,
        ..FaultProfile::default()
    };
    let both = FaultProfile {
        loss: 0.02,
        duplicate: 0.05,
        reorder: 0.05,
        reorder_jitter: SimDuration::from_micros(100),
        ..FaultProfile::default()
    };
    vec![
        ("crash", FaultProfile::default()),
        ("crash+loss", loss),
        ("crash+dup", duplicate),
        ("crash+loss+dup", both),
    ]
}

/// Streams `msgs_left` messages of `len` bytes (the verification
/// pattern) to `peer` on `tag`, one at a time, counting clean
/// completions, and sets `done` once every send has settled — completed
/// or failed through the completion path, crash or no crash.
pub(crate) struct Streamer {
    pub(crate) peer: ProcId,
    pub(crate) tag: u64,
    pub(crate) len: u64,
    pub(crate) msgs_left: u32,
    pub(crate) buf: VirtAddr,
    pub(crate) clean: Rc<Cell<u32>>,
    pub(crate) done: Rc<Cell<bool>>,
}

impl Process for Streamer {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.buf = ctx.malloc(self.len);
        let pat: Vec<u8> = (0..self.len).map(|i| (i as u8) ^ 0x6b).collect();
        ctx.write_buf(self.buf, &pat);
        ctx.isend(self.peer, self.tag, self.buf, self.len);
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::SendDone(_) => self.clean.set(self.clean.get() + 1),
            AppEvent::Failed(..) => {}
            other => panic!("streamer: unexpected event {other:?}"),
        }
        self.msgs_left -= 1;
        if self.msgs_left == 0 {
            self.done.set(true);
            ctx.stop();
        } else {
            ctx.isend(self.peer, self.tag, self.buf, self.len);
        }
    }
}

/// Reposting receiver for the crash column; counts the completions its
/// own incarnation observed.
struct CrashSink {
    len: u64,
    buf: VirtAddr,
    buf_out: Rc<Cell<VirtAddr>>,
    recvs: Rc<Cell<u32>>,
}

impl CrashSink {
    fn boxed(len: u64, buf_out: &Rc<Cell<VirtAddr>>, recvs: &Rc<Cell<u32>>) -> Box<CrashSink> {
        Box::new(CrashSink {
            len,
            buf: VirtAddr(0),
            buf_out: buf_out.clone(),
            recvs: recvs.clone(),
        })
    }
}

impl Process for CrashSink {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.buf = ctx.malloc(self.len);
        self.buf_out.set(self.buf);
        ctx.irecv(7, !0, self.buf, self.len);
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::RecvDone(..) => self.recvs.set(self.recvs.get() + 1),
            AppEvent::Failed(..) => {}
            other => panic!("crash sink: unexpected event {other:?}"),
        }
        ctx.irecv(7, !0, self.buf, self.len);
    }
}

/// Like [`run_chaos`], but the receiving rank is crashed mid-stream and
/// restarted with a bumped incarnation while the sender keeps posting.
/// The liveness bar is identical: every send settles (done or failed);
/// a sender stuck waiting on a dead or reborn peer is a hang. Messages
/// completed by the restarted incarnation are verified byte-for-byte.
pub fn run_chaos_crash(
    cfg: &OpenMxConfig,
    profile: &FaultProfile,
    len: u64,
    msgs: u32,
) -> ChaosOutcome {
    let cfg = with_link_faults(cfg, profile);

    let clean = Rc::new(Cell::new(0u32));
    let done = Rc::new(Cell::new(false));
    let buf_out = Rc::new(Cell::new(VirtAddr(0)));

    let mut cl = Cluster::new(cfg, 2);
    cl.add_process(
        0,
        Box::new(Streamer {
            peer: ProcId(1),
            tag: 7,
            len,
            msgs_left: msgs,
            buf: VirtAddr(0),
            clean: clean.clone(),
            done: done.clone(),
        }),
    );
    cl.add_process(1, CrashSink::boxed(len, &buf_out, &Rc::default()));

    // Let the stream get going, kill the receiver mid-flight, leave it
    // down long enough for in-flight traffic to hit the fence, restart.
    cl.run(Some(SimTime::from_nanos(300_000)));
    cl.crash_proc(ProcId(1));
    cl.run(Some(SimTime::from_nanos(800_000)));
    let reborn_recvs = Rc::new(Cell::new(0u32));
    cl.restart_proc(ProcId(1), CrashSink::boxed(len, &buf_out, &reborn_recvs));
    cl.run(Some(SimTime::from_nanos(120_000_000_000)));

    let verdict = if !done.get() {
        // The sender never settled all its messages: liveness lost.
        Verdict::Hung
    } else if clean.get() == msgs {
        // Every send completed. If the reborn incarnation finished a
        // receive, its buffer must hold the verified pattern.
        if reborn_recvs.get() == 0 || verified(&mut cl, buf_out.get(), len) {
            Verdict::Intact
        } else {
            Verdict::Hung
        }
    } else {
        Verdict::FailedCleanly
    };

    let reason = "chaos crash column: liveness lost across a crash/restart";
    ChaosOutcome::of(&cl, verdict, (verdict == Verdict::Hung).then_some(reason))
}

/// Measure duplicate retransmissions under 5% loss (plus the delay jitter
/// every congested fabric shows) with the fixed 1 s retransmission timer
/// vs. the adaptive backoff policy. Returns the fixed and the adaptive
/// runs' counters, each summed over `seeds`.
///
/// The gap comes from the re-request guard: the static guard assumes the
/// nominal round trip, so a frame delayed past it gets re-requested while
/// still in flight and arrives twice. The adaptive guard tracks the
/// measured RTO and leaves merely-late frames alone.
pub fn duplicate_comparison(seeds: &[u64], len: u64, msgs: u32) -> (CounterSet, CounterSet) {
    let (mut fixed_runs, mut adaptive_runs) = (Vec::new(), Vec::new());
    let profile = FaultProfile {
        loss: 0.05,
        reorder: 0.3,
        reorder_jitter: SimDuration::from_micros(400),
        ..FaultProfile::default()
    };
    for &seed in seeds {
        let mut fixed = chaos_cfg(seed, 16, false);
        // The fixed baseline is the pre-adaptive protocol: a flat 1 s
        // retransmission timer and the static re-request guard.
        fixed.retransmit_timeout = SimDuration::from_secs(1);
        let f = run_chaos(&fixed, &profile, len, msgs);
        assert_eq!(f.verdict, Verdict::Intact, "fixed run must survive 5% loss");
        fixed_runs.push(f.counters);

        let adaptive = chaos_cfg(seed, 16, true);
        let a = run_chaos(&adaptive, &profile, len, msgs);
        assert_eq!(
            a.verdict,
            Verdict::Intact,
            "adaptive run must survive 5% loss"
        );
        adaptive_runs.push(a.counters);
    }
    (
        fixed_runs.into_iter().sum(),
        adaptive_runs.into_iter().sum(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_fabric_is_intact() {
        let cfg = chaos_cfg(1, 16, true);
        let out = run_chaos(&cfg, &FaultProfile::default(), 256 * 1024, 2);
        assert_eq!(out.verdict, Verdict::Intact);
        assert_eq!(out.counters.faults_injected(), 0);
    }

    #[test]
    fn every_profile_survives_one_seed() {
        for (name, p) in profiles() {
            let cfg = chaos_cfg(7, 16, true);
            // Enough frames that even the bursty model (which clusters its
            // losses into rare bad-state visits) is virtually certain to
            // fire at least once.
            let out = run_chaos(&cfg, &p, 1 << 20, 4);
            assert_ne!(out.verdict, Verdict::Hung, "{name} hung");
            assert!(
                out.counters.faults_injected() > 0,
                "{name} injected nothing"
            );
        }
    }
}
