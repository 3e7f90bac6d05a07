//! Cross-crate end-to-end tests: every pinning mode moves bytes correctly
//! through the full stack (VM substrate → driver → wire protocol →
//! fabric → driver → VM substrate), including under packet loss and
//! receive-side truncation.

mod common;

use common::{cfg, verified_stream};
use openmx_core::{Counter, OpenMxConfig, PinningMode, ProcId};
use openmx_mpi::collectives::JobBuilder;
use openmx_mpi::{run_job, Op};

#[test]
fn every_mode_delivers_intact_data() {
    for mode in PinningMode::all() {
        for ioat in [false, true] {
            let mut c = cfg(mode);
            c.use_ioat = ioat;
            let (cl, _) = verified_stream(&c, 1 << 20, 3);
            assert_eq!(
                cl.counters().get(Counter::RequestsFailed),
                0,
                "{mode:?} ioat={ioat}"
            );
        }
    }
}

#[test]
fn eager_and_rendezvous_boundary_sizes() {
    // Straddle the 32 kB eager threshold and the pull-block/frame edges.
    let c = cfg(PinningMode::OverlappedCached);
    for len in [
        1u64,
        4096,
        32 * 1024 - 1, // largest eager
        32 * 1024,     // smallest rendezvous
        64 * 1024,     // exactly one pull block
        64 * 1024 + 1,
        8968, // exactly one jumbo frame payload
        8969,
        128 * 1024 + 13,
    ] {
        let (cl, _) = verified_stream(&c, len, 2);
        assert_eq!(cl.counters().get(Counter::RequestsFailed), 0, "len={len}");
    }
}

#[test]
fn survives_random_packet_loss() {
    let mut c = cfg(PinningMode::OverlappedCached);
    c.net.loss_probability = 0.02;
    // Shorter timeout keeps the virtual clock reasonable; recovery logic
    // is identical.
    c.retransmit_timeout = simcore::SimDuration::from_millis(50);
    let (cl, _) = verified_stream(&c, 1 << 20, 4);
    let counters = cl.counters();
    assert_eq!(counters.get(Counter::RequestsFailed), 0);
    let lost = counters.get(Counter::NetFramesLost);
    assert!(lost > 0, "2% loss over ~500 frames must drop something");
    assert!(
        counters.retransmits() > 0,
        "losses must trigger recovery machinery"
    );
}

#[test]
fn survives_loss_on_eager_traffic() {
    let mut c = cfg(PinningMode::Cached);
    c.net.loss_probability = 0.05;
    c.retransmit_timeout = simcore::SimDuration::from_millis(20);
    let (cl, _) = verified_stream(&c, 16 * 1024, 20);
    assert_eq!(cl.counters().get(Counter::RequestsFailed), 0);
}

#[test]
fn receive_truncation_delivers_posted_length() {
    // Sender announces 1 MiB; receiver posts only 256 KiB. MX semantics:
    // the transfer truncates to the posted length.
    let send_len: u64 = 1 << 20;
    let recv_len: u64 = 256 * 1024;
    let mut b = JobBuilder::new(2);
    let sbuf = b.alloc(send_len, |_| Some(0x11));
    let rbuf = b.alloc(recv_len, |_| None);
    let tag = b.tag();
    b.step_all(|r| match r {
        0 => vec![Op::Send {
            to: 1,
            tag,
            buf: sbuf,
            offset: 0,
            len: send_len,
        }],
        1 => vec![Op::Recv {
            from: 0,
            tag,
            buf: rbuf,
            offset: 0,
            len: recv_len,
        }],
        _ => vec![],
    });
    let (mut cl, records) = run_job(&cfg(PinningMode::OverlappedCached), 2, 1, b.scripts);
    assert!(records.iter().all(|r| r.failures.is_empty()));
    let addr = records[1].buffer_addrs[rbuf];
    let got = cl.read_proc(ProcId(1), addr, recv_len);
    assert!(got.iter().enumerate().all(|(i, &v)| v == (i as u8) ^ 0x11));
    // Only the truncated length crossed the fabric (plus control frames).
    let delivered = cl.net_stats().payload_bytes_delivered;
    assert!(
        delivered < recv_len + 64 * 1024,
        "sender must not push the full 1 MiB: {delivered}"
    );
}

#[test]
fn pinned_pages_return_to_zero_after_runs() {
    for mode in [PinningMode::PinPerComm, PinningMode::Overlapped] {
        let (cl, _) = verified_stream(&cfg(mode), 1 << 20, 3);
        for node in 0..2 {
            assert_eq!(
                cl.node_counters(node).get(Counter::PinPages),
                cl.node_counters(node).get(Counter::UnpinPages),
                "{mode:?} node {node}: pins must balance"
            );
        }
    }
}

#[test]
fn standard_mtu_fabric_works_too() {
    let mut c: OpenMxConfig = cfg(PinningMode::OverlappedCached);
    c.net = simnet::NetConfig::gige();
    c.pull_block = 16 * 1024; // keep frames/block within the 64-bit mask
    let (cl, _) = verified_stream(&c, 256 * 1024, 2);
    assert_eq!(cl.counters().get(Counter::RequestsFailed), 0);
}
