//! Hostile-fabric regression tests: duplication, reordering, and silent
//! link death must never corrupt data, wedge a transfer, or panic the
//! engine. Each scenario is seeded and deterministic.

mod common;

use common::{cfg, verified_stream};
use openmx_core::{OpenMxConfig, PinningMode, ProcId};
use openmx_mpi::collectives::JobBuilder;
use openmx_mpi::{run_job, Op};
use simcore::SimDuration;
use simnet::{FaultConfig, FaultProfile};

/// A config with `profile` applied to both directions of the 0 ↔ 1 link
/// and a short retry budget so exhaustion scenarios converge quickly.
fn hostile_cfg(profile: FaultProfile, max_retries: u32) -> OpenMxConfig {
    let mut c = cfg(PinningMode::OverlappedCached);
    let mut faults = FaultConfig::clean();
    faults.set_link(0, 1, profile);
    faults.set_link(1, 0, profile);
    c.net.faults = faults;
    c.max_retries = max_retries;
    c.retransmit_timeout = SimDuration::from_millis(50);
    c
}

/// One rendezvous-sized send/recv pair; returns the cluster and records
/// without asserting success (exhaustion tests expect clean failure).
fn one_transfer(c: &OpenMxConfig, len: u64) -> (openmx_core::Cluster, Vec<openmx_mpi::RankRecord>) {
    let mut b = JobBuilder::new(2);
    let sbuf = b.alloc(len, |_| Some(0x2f));
    let rbuf = b.alloc(len, |_| None);
    let tag = b.tag();
    b.step_all(|r| match r {
        0 => vec![Op::Send {
            to: 1,
            tag,
            buf: sbuf,
            offset: 0,
            len,
        }],
        1 => vec![Op::Recv {
            from: 0,
            tag,
            buf: rbuf,
            offset: 0,
            len,
        }],
        _ => vec![],
    });
    run_job(c, 2, 1, b.scripts)
}

#[test]
fn survives_total_duplication() {
    // Every frame in both directions arrives twice: duplicate rendezvous,
    // duplicate pull replies (including after the transfer completed),
    // duplicate notifies and acks. The protocol must discard every copy.
    let c = hostile_cfg(
        FaultProfile {
            duplicate: 1.0,
            ..FaultProfile::default()
        },
        16,
    );
    // Rendezvous-sized stream: covers dup Rndv / PullReply / Notify.
    let (cl, _) = verified_stream(&c, 256 * 1024, 3);
    let counters = cl.counters();
    assert_eq!(counters.get("requests_failed"), 0);
    assert!(cl.net_stats().frames_duplicated > 0);
    assert!(
        cl.metrics().dup_frames_rx() > 0,
        "protocol must have discarded duplicates"
    );
    assert!(
        counters.get("rndv_dup") > 0,
        "the duplicated rendezvous must hit the dedup path"
    );
    assert!(
        counters.get("dup_frames_rx") + counters.get("pull_reply_stale") > 0,
        "duplicated pull replies must be discarded (live or post-completion)"
    );
}

#[test]
fn survives_duplication_on_eager_traffic() {
    let c = hostile_cfg(
        FaultProfile {
            duplicate: 1.0,
            ..FaultProfile::default()
        },
        16,
    );
    let (cl, _) = verified_stream(&c, 16 * 1024, 5);
    let counters = cl.counters();
    assert_eq!(counters.get("requests_failed"), 0);
    assert!(
        counters.get("eager_dup_frags") + counters.get("eager_ack_dup") > 0,
        "duplicated eager frames/acks must be discarded"
    );
}

#[test]
fn survives_reordered_pull_frames() {
    // A third of all frames are delayed by up to 500 µs — far beyond the
    // in-order delivery slot. Pull replies land out of order across
    // blocks; payload must still verify byte-for-byte.
    let c = hostile_cfg(
        FaultProfile {
            reorder: 0.3,
            reorder_jitter: SimDuration::from_micros(500),
            ..FaultProfile::default()
        },
        16,
    );
    let (cl, _) = verified_stream(&c, 1 << 20, 3);
    assert_eq!(cl.counters().get("requests_failed"), 0);
    let stats = cl.net_stats();
    assert!(stats.frames_reordered > 0, "reordering must have happened");
    // The engine-side counter mirrors the fabric's own bookkeeping.
    assert_eq!(
        cl.counters().get("net_frames_reordered"),
        stats.frames_reordered
    );
}

#[test]
fn rendezvous_exhaustion_errors_cleanly() {
    // The link is completely dead: the rendezvous can never get through.
    // The sender must error out after its retry budget — not hang, not
    // panic, not spin forever.
    let c = hostile_cfg(
        FaultProfile {
            loss: 1.0,
            ..FaultProfile::default()
        },
        2,
    );
    let (cl, records) = one_transfer(&c, 256 * 1024);
    assert!(
        records[0].failures.contains(&"rendezvous timed out"),
        "sender failures: {:?}",
        records[0].failures
    );
    assert!(records[0].finished.is_some(), "sender must not wedge");
    assert!(cl.counters().get("requests_failed") > 0);
}

#[test]
fn eager_exhaustion_errors_cleanly() {
    // Only the ack path (1 → 0) is dead: the receiver gets the data, but
    // the sender never hears the ack and must eventually give up with a
    // late error on the handle instead of retransmitting forever.
    let mut c = cfg(PinningMode::Cached);
    let mut faults = FaultConfig::clean();
    faults.set_link(
        1,
        0,
        FaultProfile {
            loss: 1.0,
            ..FaultProfile::default()
        },
    );
    c.net.faults = faults;
    c.max_retries = 3;
    c.retransmit_timeout = SimDuration::from_millis(20);
    let len = 8 * 1024;
    // The eager SendDone fires at copy-out, long before the retry budget
    // runs dry — keep the sender alive with a compute phase so the late
    // failure still has a listener.
    let mut b = JobBuilder::new(2);
    let sbuf = b.alloc(len, |_| Some(0x2f));
    let rbuf = b.alloc(len, |_| None);
    let tag = b.tag();
    b.step_all(|r| match r {
        0 => vec![Op::Send {
            to: 1,
            tag,
            buf: sbuf,
            offset: 0,
            len,
        }],
        1 => vec![Op::Recv {
            from: 0,
            tag,
            buf: rbuf,
            offset: 0,
            len,
        }],
        _ => vec![],
    });
    b.step_all(|r| match r {
        0 => vec![Op::Compute {
            dur: SimDuration::from_secs(1),
        }],
        _ => vec![],
    });
    let (mut cl, records) = run_job(&c, 2, 1, b.scripts);
    assert!(
        records[0].failures.contains(&"eager send unacked"),
        "sender failures: {:?}",
        records[0].failures
    );
    // The data still arrived intact on the receive side.
    assert!(records[1].finished.is_some());
    let addr = records[1].buffer_addrs[1];
    let got = cl.read_proc(ProcId(1), addr, len);
    assert!(got.iter().enumerate().all(|(i, &v)| v == (i as u8) ^ 0x2f));
    assert!(cl.counters().get("eager_abandoned") > 0);
}

#[test]
fn lost_notify_trips_sender_watchdog_not_a_hang() {
    // The receiver's link back to the sender dies right after the pull
    // request gets through: the sender sees pulling start, then silence.
    // Before the completion watchdog this hung the sender forever (the
    // rendezvous timer was cancelled at the first pull request with no
    // replacement). Now the watchdog fails the send cleanly.
    let mut c = cfg(PinningMode::OverlappedCached);
    let mut faults = FaultConfig::clean();
    faults.set_link(
        1,
        0,
        FaultProfile {
            drop_after: Some(1),
            ..FaultProfile::default()
        },
    );
    c.net.faults = faults;
    c.max_retries = 3;
    c.retransmit_timeout = SimDuration::from_millis(50);
    // One pull block: a single pull request (the one frame that gets
    // through on 1 → 0), then every notify is swallowed.
    let (cl, records) = one_transfer(&c, 64 * 1024);
    assert!(
        records[0]
            .failures
            .contains(&"transfer completion timed out"),
        "sender failures: {:?}",
        records[0].failures
    );
    assert!(records[0].finished.is_some(), "sender must not wedge");
    let counters = cl.counters();
    assert!(counters.get("send_watchdog_timeouts") > 0);
    assert!(
        counters.get("notify_abandoned") > 0,
        "the receiver must stop retransmitting the notify eventually"
    );
    assert!(cl.net_stats().frames_link_down > 0);
}

#[test]
fn stalled_pull_exhausts_on_the_receiver_not_a_hang() {
    // The sender's link to the receiver dies after the rendezvous: every
    // pull reply is swallowed. The receiver re-requests on each stall
    // timeout until its budget runs out and fails the receive; the
    // sender, which saw the pull requests and then silence, fails through
    // its completion watchdog.
    let mut c = cfg(PinningMode::OverlappedCached);
    let mut faults = FaultConfig::clean();
    faults.set_link(
        0,
        1,
        FaultProfile {
            drop_after: Some(1),
            ..FaultProfile::default()
        },
    );
    c.net.faults = faults;
    c.max_retries = 3;
    c.retransmit_timeout = SimDuration::from_millis(50);
    let (cl, records) = one_transfer(&c, 256 * 1024);
    assert_eq!(records[1].failures, ["pull transfer stalled"]);
    assert_eq!(records[0].failures, ["transfer completion timed out"]);
    assert!(records[0].finished.is_some() && records[1].finished.is_some());
    let counters = cl.counters();
    assert_eq!(counters.get("pull_stall_timeouts"), 3);
    assert_eq!(counters.get("requests_failed"), 2);
}

#[test]
fn bursty_loss_recovers_intact() {
    use simnet::GilbertElliott;
    // 10% average loss concentrated in bursts averaging 8 frames: whole
    // blocks (and whole retransmissions) vanish at once.
    let c = hostile_cfg(
        FaultProfile {
            burst: Some(GilbertElliott::bursty(0.10, 8.0)),
            ..FaultProfile::default()
        },
        16,
    );
    let (cl, _) = verified_stream(&c, 1 << 20, 3);
    let counters = cl.counters();
    assert_eq!(counters.get("requests_failed"), 0);
    let stats = cl.net_stats();
    assert!(stats.frames_burst_lost > 0, "bursts must have fired");
    assert_eq!(
        counters.get("net_frames_burst_lost"),
        stats.frames_burst_lost
    );
    assert!(
        cl.metrics().retransmits() > 0,
        "burst losses must trigger recovery"
    );
}

#[test]
fn adaptive_and_fixed_policies_both_deliver_under_loss() {
    for adaptive in [false, true] {
        let mut c = hostile_cfg(
            FaultProfile {
                loss: 0.05,
                ..FaultProfile::default()
            },
            16,
        );
        c.adaptive_retransmit = adaptive;
        let (cl, _) = verified_stream(&c, 512 * 1024, 3);
        assert_eq!(
            cl.counters().get("requests_failed"),
            0,
            "adaptive={adaptive}"
        );
    }
}
