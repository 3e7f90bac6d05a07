//! Deeper protocol tests: matching order, wildcard sources, concurrent
//! use of one buffer, posting order symmetry, loopback, and multi-process
//! nodes.

use std::cell::RefCell;
use std::rc::Rc;

use openmx_core::engine::{AppEvent, Cluster, Ctx, ProcId, Process};
use openmx_core::{Counter, OpenMxConfig, PinningMode};
use simmem::VirtAddr;

/// Harness process driven by closures, to keep the scenarios compact.
type StartFn = Box<dyn FnMut(&mut Ctx<'_>)>;
type EventFn = Box<dyn FnMut(&mut Ctx<'_>, AppEvent)>;

struct Closures {
    start: StartFn,
    event: EventFn,
}
impl Process for Closures {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        (self.start)(ctx)
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        (self.event)(ctx, ev)
    }
}

fn proc_of(
    start: impl FnMut(&mut Ctx<'_>) + 'static,
    event: impl FnMut(&mut Ctx<'_>, AppEvent) + 'static,
) -> Box<dyn Process> {
    Box::new(Closures {
        start: Box::new(start),
        event: Box::new(event),
    })
}

fn cluster(mode: PinningMode, nodes: usize) -> Cluster {
    Cluster::new(OpenMxConfig::with_mode(mode), nodes)
}

#[test]
fn any_source_recv_matches_arrivals_from_different_senders() {
    // Rank 2 posts two wildcard receives; ranks 0 and 1 each send once.
    let got: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let mut cl = cluster(PinningMode::Cached, 3);
    const LEN: u64 = 100 * 1024;
    const TAG_MASK: u64 = 0x0000_0000_ffff_ffff;

    for sender in 0..2u32 {
        cl.add_process(
            sender as usize,
            proc_of(
                move |ctx| {
                    let buf = ctx.malloc(LEN);
                    ctx.write_buf(buf, &vec![sender as u8 + 1; LEN as usize]);
                    // match key = (rank << 32) | tag so wildcards can mask.
                    let key = ((sender as u64) << 32) | 7;
                    ctx.isend(ProcId(2), key, buf, LEN);
                },
                |ctx, ev| {
                    if let AppEvent::SendDone(_) = ev {
                        ctx.stop();
                    }
                },
            ),
        );
    }
    let got2 = got.clone();
    let bufs: Rc<RefCell<Vec<VirtAddr>>> = Rc::new(RefCell::new(Vec::new()));
    let bufs2 = bufs.clone();
    let mut remaining = 2;
    cl.add_process(
        2,
        proc_of(
            move |ctx| {
                for _ in 0..2 {
                    let b = ctx.malloc(LEN);
                    bufs2.borrow_mut().push(b);
                    ctx.irecv(7, TAG_MASK, b, LEN);
                }
            },
            move |ctx, ev| {
                if let AppEvent::RecvDone(_, n) = ev {
                    got2.borrow_mut().push(n);
                    remaining -= 1;
                    if remaining == 0 {
                        // Both senders' payloads landed (order may vary).
                        let mut firsts: Vec<u8> = bufs
                            .borrow()
                            .iter()
                            .map(|&b| ctx.read_buf(b, 1)[0])
                            .collect();
                        firsts.sort_unstable();
                        assert_eq!(firsts, vec![1, 2]);
                        ctx.stop();
                    }
                }
            },
        ),
    );
    cl.run(None);
    assert_eq!(got.borrow().len(), 2);
    assert_eq!(cl.counters().get(Counter::RequestsFailed), 0);
}

#[test]
fn concurrent_sends_from_one_buffer_share_the_cached_region() {
    // Two outstanding sends of the same buffer to two peers: the cached
    // region's use_count handles overlap; one pin serves both.
    let mut cl = cluster(PinningMode::Cached, 3);
    const LEN: u64 = 512 * 1024;
    let mut done = 0;
    cl.add_process(
        0,
        proc_of(
            |ctx| {
                let buf = ctx.malloc(LEN);
                ctx.write_buf(buf, &vec![0xEE; LEN as usize]);
                ctx.isend(ProcId(1), 1, buf, LEN);
                ctx.isend(ProcId(2), 2, buf, LEN);
            },
            move |ctx, ev| {
                if let AppEvent::SendDone(_) = ev {
                    done += 1;
                    if done == 2 {
                        ctx.stop();
                    }
                }
            },
        ),
    );
    for peer in 1..3u32 {
        cl.add_process(
            peer as usize,
            proc_of(
                move |ctx| {
                    let buf = ctx.malloc(LEN);
                    ctx.irecv(peer as u64, !0, buf, LEN);
                },
                |ctx, ev| {
                    if let AppEvent::RecvDone(_, n) = ev {
                        assert_eq!(n, LEN);
                        ctx.stop();
                    }
                },
            ),
        );
    }
    cl.run(None);
    let c = cl.counters();
    assert_eq!(c.get(Counter::RequestsFailed), 0);
    // One pin of the sender buffer (128 pages) + one per receiver.
    assert_eq!(
        cl.node_counters(0).get(Counter::PinPages),
        LEN / 4096,
        "the second send must reuse the already-pinned region"
    );
}

#[test]
fn send_first_and_recv_first_orders_both_deliver() {
    // Unexpected-rndv path vs posted-first path must both work; use a
    // compute delay to force each ordering.
    for recv_late in [false, true] {
        let mut cl = cluster(PinningMode::OverlappedCached, 2);
        const LEN: u64 = 256 * 1024;
        cl.add_process(
            0,
            proc_of(
                |ctx| {
                    let buf = ctx.malloc(LEN);
                    ctx.write_buf(buf, &vec![0x3C; LEN as usize]);
                    ctx.isend(ProcId(1), 5, buf, LEN);
                },
                |ctx, ev| {
                    if let AppEvent::SendDone(_) = ev {
                        ctx.stop();
                    }
                },
            ),
        );
        let delay = if recv_late {
            simcore::SimDuration::from_millis(5)
        } else {
            simcore::SimDuration::from_nanos(1)
        };
        cl.add_process(
            1,
            proc_of(
                move |ctx| {
                    ctx.compute(delay, 1);
                },
                move |ctx, ev| match ev {
                    AppEvent::ComputeDone(_) => {
                        let buf = ctx.malloc(LEN);
                        ctx.irecv(5, !0, buf, LEN);
                    }
                    AppEvent::RecvDone(_, n) => {
                        assert_eq!(n, LEN);
                        ctx.stop();
                    }
                    other => panic!("unexpected {other:?}"),
                },
            ),
        );
        cl.run(None);
        assert_eq!(
            cl.counters().get(Counter::RequestsFailed),
            0,
            "recv_late={recv_late}"
        );
    }
}

#[test]
fn loopback_send_to_self_works() {
    let mut cl = cluster(PinningMode::Cached, 1);
    const LEN: u64 = 64 * 1024;
    let mut recv_seen = false;
    cl.add_process(
        0,
        proc_of(
            |ctx| {
                let sbuf = ctx.malloc(LEN);
                let rbuf = ctx.malloc(LEN);
                ctx.write_buf(sbuf, &vec![0x99; LEN as usize]);
                ctx.irecv(3, !0, rbuf, LEN);
                ctx.isend(ProcId(0), 3, sbuf, LEN);
            },
            move |ctx, ev| match ev {
                AppEvent::RecvDone(_, n) => {
                    assert_eq!(n, LEN);
                    recv_seen = true;
                }
                AppEvent::SendDone(_) => {
                    if recv_seen {
                        ctx.stop();
                    }
                }
                other => panic!("unexpected {other:?}"),
            },
        ),
    );
    cl.run(None);
    assert_eq!(cl.counters().get(Counter::ShmMsgsTx), 1);
}

#[test]
fn four_processes_on_one_node_all_pairs() {
    // All-pairs shm traffic on a single node: 4 procs, each sends to the
    // next, all data through the shared-memory path.
    let mut cl = cluster(PinningMode::Cached, 1);
    const LEN: u64 = 200 * 1024;
    for me in 0..4u32 {
        let peer = (me + 1) % 4;
        let from = (me + 3) % 4;
        let mut got = false;
        let mut sent = false;
        cl.add_process(
            0,
            proc_of(
                move |ctx| {
                    let sbuf = ctx.malloc(LEN);
                    let rbuf = ctx.malloc(LEN);
                    ctx.write_buf(sbuf, &vec![me as u8; LEN as usize]);
                    ctx.irecv(((from as u64) << 8) | 1, !0, rbuf, LEN);
                    ctx.isend(ProcId(peer), ((me as u64) << 8) | 1, sbuf, LEN);
                },
                move |ctx, ev| {
                    match ev {
                        AppEvent::RecvDone(..) => got = true,
                        AppEvent::SendDone(_) => sent = true,
                        other => panic!("unexpected {other:?}"),
                    }
                    if got && sent {
                        ctx.stop();
                    }
                },
            ),
        );
    }
    cl.run(None);
    let c = cl.counters();
    assert_eq!(c.get(Counter::ShmMsgsTx), 4);
    assert_eq!(
        c.get(Counter::RndvMsgsTx),
        0,
        "single node: no wire traffic"
    );
    assert_eq!(c.get(Counter::RequestsFailed), 0);
}

#[test]
fn fifo_matching_between_same_pair() {
    // Two same-tag messages from one sender must land in posting order.
    let mut cl = cluster(PinningMode::Cached, 2);
    const LEN: u64 = 128 * 1024;
    let mut sent = 0;
    cl.add_process(
        0,
        proc_of(
            |ctx| {
                let b1 = ctx.malloc(LEN);
                let b2 = ctx.malloc(LEN);
                ctx.write_buf(b1, &vec![1; LEN as usize]);
                ctx.write_buf(b2, &vec![2; LEN as usize]);
                ctx.isend(ProcId(1), 9, b1, LEN);
                ctx.isend(ProcId(1), 9, b2, LEN);
            },
            move |ctx, ev| {
                if let AppEvent::SendDone(_) = ev {
                    sent += 1;
                    if sent == 2 {
                        ctx.stop();
                    }
                }
            },
        ),
    );
    let order: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let order2 = order.clone();
    let bufs: Rc<RefCell<Vec<VirtAddr>>> = Rc::new(RefCell::new(Vec::new()));
    let bufs2 = bufs.clone();
    let mut done = 0;
    cl.add_process(
        1,
        proc_of(
            move |ctx| {
                for _ in 0..2 {
                    let b = ctx.malloc(LEN);
                    bufs2.borrow_mut().push(b);
                    ctx.irecv(9, !0, b, LEN);
                }
            },
            move |ctx, ev| {
                if let AppEvent::RecvDone(..) = ev {
                    done += 1;
                    if done == 2 {
                        for &b in bufs.borrow().iter() {
                            order2.borrow_mut().push(ctx.read_buf(b, 1)[0]);
                        }
                        ctx.stop();
                    }
                }
            },
        ),
    );
    cl.run(None);
    assert_eq!(*order.borrow(), vec![1, 2], "FIFO per-pair ordering");
}

#[test]
fn vectorial_send_gathers_segments() {
    // An iovec-style send of three scattered, unaligned segments arrives
    // as one contiguous message — both through the rendezvous (zero-copy
    // gather from pinned pages) and the eager path.
    use openmx_core::Segment;
    for per_seg in [100 * 1024u64 /* rndv */, 5 * 1024 /* eager */] {
        let total = 3 * per_seg;
        let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
        let got2 = got.clone();
        let mut cl = cluster(PinningMode::OverlappedCached, 2);
        cl.add_process(
            0,
            proc_of(
                move |ctx| {
                    let a = ctx.malloc(per_seg + 8192);
                    let b = ctx.malloc(per_seg + 8192);
                    let c = ctx.malloc(per_seg + 8192);
                    // Unaligned starts, distinct fill per segment.
                    let segs = [
                        Segment {
                            addr: a.add(13),
                            len: per_seg,
                        },
                        Segment {
                            addr: b.add(4099),
                            len: per_seg,
                        },
                        Segment {
                            addr: c.add(1),
                            len: per_seg,
                        },
                    ];
                    for (i, s) in segs.iter().enumerate() {
                        let fill: Vec<u8> =
                            (0..s.len).map(|j| (j as u8) ^ (0x10 + i as u8)).collect();
                        ctx.write_buf(s.addr, &fill);
                    }
                    ctx.isendv(ProcId(1), 11, &segs);
                },
                |ctx, ev| {
                    if let AppEvent::SendDone(_) = ev {
                        ctx.stop();
                    }
                },
            ),
        );
        cl.add_process(
            1,
            proc_of(
                move |ctx| {
                    let buf = ctx.malloc(total);
                    ctx.irecv(11, !0, buf, total);
                },
                move |ctx, ev| {
                    if let AppEvent::RecvDone(_, n) = ev {
                        assert_eq!(n, total);
                        // Receiver buffer address: re-derive via read of
                        // the only allocation: we saved nothing, so read
                        // through a fresh lookup is impossible — instead
                        // capture at malloc time in the closure below.
                        ctx.stop();
                        let _ = &got2;
                    }
                },
            ),
        );
        cl.run(None);
        assert_eq!(
            cl.counters().get(Counter::RequestsFailed),
            0,
            "per_seg={per_seg}"
        );
    }
}

#[test]
fn vectorial_send_data_verified() {
    use openmx_core::Segment;
    let per_seg = 80 * 1024u64;
    let total = 2 * per_seg;
    let rbuf_addr: Rc<RefCell<VirtAddr>> = Rc::new(RefCell::new(VirtAddr(0)));
    let rb = rbuf_addr.clone();
    let ok = Rc::new(RefCell::new(false));
    let ok2 = ok.clone();
    let mut cl = cluster(PinningMode::Cached, 2);
    cl.add_process(
        0,
        proc_of(
            move |ctx| {
                let a = ctx.malloc(per_seg + 4096);
                let b = ctx.malloc(per_seg + 4096);
                let segs = [
                    Segment {
                        addr: a.add(7),
                        len: per_seg,
                    },
                    Segment {
                        addr: b.add(513),
                        len: per_seg,
                    },
                ];
                ctx.write_buf(segs[0].addr, &vec![0xA1; per_seg as usize]);
                ctx.write_buf(segs[1].addr, &vec![0xB2; per_seg as usize]);
                ctx.isendv(ProcId(1), 12, &segs);
            },
            |ctx, ev| {
                if let AppEvent::SendDone(_) = ev {
                    ctx.stop();
                }
            },
        ),
    );
    cl.add_process(
        1,
        proc_of(
            move |ctx| {
                let buf = ctx.malloc(total);
                *rb.borrow_mut() = buf;
                ctx.irecv(12, !0, buf, total);
            },
            move |ctx, ev| {
                if let AppEvent::RecvDone(_, n) = ev {
                    assert_eq!(n, total);
                    let addr = *rbuf_addr.borrow();
                    let data = ctx.read_buf(addr, total);
                    let half = per_seg as usize;
                    assert!(data[..half].iter().all(|&v| v == 0xA1));
                    assert!(data[half..].iter().all(|&v| v == 0xB2));
                    *ok2.borrow_mut() = true;
                    ctx.stop();
                }
            },
        ),
    );
    cl.run(None);
    assert!(*ok.borrow());
}

#[test]
fn control_frame_loss_recovery_matrix() {
    // Deterministically drop the first N frames for N = 1..8: this kills,
    // in turn, the rndv, each initial pull request, early pull replies —
    // every control path must recover via retransmission.
    for n in 1..=8u64 {
        let mut cfg = OpenMxConfig::with_mode(PinningMode::OverlappedCached);
        cfg.net.drop_first = n;
        cfg.retransmit_timeout = simcore::SimDuration::from_millis(10);
        let mut cl = Cluster::new(cfg, 2);
        const LEN: u64 = 256 * 1024;
        cl.add_process(
            0,
            proc_of(
                |ctx| {
                    let buf = ctx.malloc(LEN);
                    ctx.write_buf(buf, &vec![0x55; LEN as usize]);
                    ctx.isend(ProcId(1), 4, buf, LEN);
                },
                |ctx, ev| {
                    if let AppEvent::SendDone(_) = ev {
                        ctx.stop();
                    }
                },
            ),
        );
        let ok = Rc::new(RefCell::new(false));
        let ok2 = ok.clone();
        cl.add_process(
            1,
            proc_of(
                |ctx| {
                    let buf = ctx.malloc(LEN);
                    ctx.irecv(4, !0, buf, LEN);
                },
                move |ctx, ev| {
                    if let AppEvent::RecvDone(_, len) = ev {
                        assert_eq!(len, LEN);
                        *ok2.borrow_mut() = true;
                        ctx.stop();
                    }
                },
            ),
        );
        cl.run(Some(simcore::SimTime::from_nanos(30_000_000_000)));
        assert!(*ok.borrow(), "drop_first={n}: transfer must recover");
        assert_eq!(
            cl.counters().get(Counter::RequestsFailed),
            0,
            "drop_first={n}"
        );
    }
}

/// Pull replies carry the sender's bytes as of the moment each frame was
/// cut, even though they reference the sender's pages instead of copying
/// them: overwriting the send buffer while the first replies are on the
/// wire must not change what those replies deliver.
///
/// On a clean fabric with a non-overlapped mode there are no overlap misses
/// and no retransmissions, pull replies are the only frames with a
/// payload, and the sender cuts one whole block per pull request, in block
/// order. The first instant with payload on the wire has cut exactly the
/// first block, and every later block lands after it.
#[test]
fn pull_replies_keep_the_bytes_of_their_send_time() {
    const LEN: u64 = 512 * 1024;
    const OLD: u8 = 0xaa;
    const NEW: u8 = 0x55;
    let cfg = OpenMxConfig::with_mode(PinningMode::Cached);
    let block = cfg.pull_block;
    let mut cl = Cluster::new(cfg, 2);
    let tx = cl.add_process(0, proc_of(|_| {}, |_, _| {}));
    let rx = cl.add_process(1, proc_of(|_| {}, |_, _| {}));
    cl.step_until(simcore::SimTime::ZERO);
    let recv_buf = cl.drive(rx, |ctx| {
        let buf = ctx.malloc(LEN);
        ctx.irecv(5, !0, buf, LEN);
        buf
    });
    let send_buf = cl.drive(tx, |ctx| {
        let buf = ctx.malloc(LEN);
        ctx.write_buf(buf, &vec![OLD; LEN as usize]);
        ctx.isend(rx, 5, buf, LEN);
        buf
    });
    // Step to the first instant at which pull replies have been cut.
    let cut = loop {
        let t = cl
            .next_event_time()
            .expect("transfer ended before any pull reply");
        cl.step_until(t);
        let cut = cl.net_stats().payload_bytes_delivered;
        if cut > 0 {
            break cut;
        }
    };
    // One block's frames; its last frame is a full frame and runs past
    // the block end.
    assert!(
        (block..2 * block).contains(&cut),
        "cut {cut} bytes, not one block"
    );
    assert!(
        cl.read_proc(rx, recv_buf, cut).iter().all(|&b| b == 0),
        "replies cut at this instant must still be in flight"
    );
    cl.drive(tx, |ctx| ctx.write_buf(send_buf, &vec![NEW; LEN as usize]));
    cl.run(None);
    let c = cl.counters();
    for resend in [
        Counter::OverlapMissTx,
        Counter::OverlapMissRx,
        Counter::PullRereqOptimistic,
    ] {
        assert_eq!(c.get(resend), 0, "{resend:?}: no frame may be cut twice");
    }
    let got = cl.read_proc(rx, recv_buf, LEN);
    let (before, after) = got.split_at(block as usize);
    assert!(
        before.iter().all(|&b| b == OLD),
        "a reply cut before the overwrite delivered the new bytes"
    );
    assert!(
        after.iter().all(|&b| b == NEW),
        "a reply cut after the overwrite delivered the old bytes"
    );
}

/// A process that records whether its send completed.
fn sender(done: &Rc<RefCell<bool>>) -> Box<dyn Process> {
    let done = done.clone();
    proc_of(
        |_| {},
        move |_, ev| {
            if let AppEvent::SendDone(_) = ev {
                *done.borrow_mut() = true;
            }
        },
    )
}

/// Step the cluster until `done` is set.
fn step_until_set(cl: &mut Cluster, done: &Rc<RefCell<bool>>) {
    while !*done.borrow() {
        let t = cl
            .next_event_time()
            .expect("ran dry before the send completed");
        cl.step_until(t);
    }
}

/// An eager message carries the sender's bytes as of the send, even when
/// its only frame is lost and retransmitted after `SendDone` let the
/// application overwrite the send buffer.
#[test]
fn eager_retransmits_keep_the_bytes_of_their_send_time() {
    const LEN: u64 = 4096;
    const OLD: u8 = 0xaa;
    const NEW: u8 = 0x55;
    let mut cfg = OpenMxConfig::with_mode(PinningMode::Cached);
    cfg.net.drop_first = 1;
    assert!(LEN < cfg.eager_threshold);
    let mut cl = Cluster::new(cfg, 2);
    let done = Rc::new(RefCell::new(false));
    let tx = cl.add_process(0, sender(&done));
    let rx = cl.add_process(1, proc_of(|_| {}, |_, _| {}));
    cl.step_until(simcore::SimTime::ZERO);
    let recv_buf = cl.drive(rx, |ctx| {
        let buf = ctx.malloc(LEN);
        ctx.irecv(5, !0, buf, LEN);
        buf
    });
    let send_buf = cl.drive(tx, |ctx| {
        let buf = ctx.malloc(LEN);
        ctx.write_buf(buf, &[OLD; LEN as usize]);
        ctx.isend(rx, 5, buf, LEN);
        buf
    });
    step_until_set(&mut cl, &done);
    cl.drive(tx, |ctx| ctx.write_buf(send_buf, &[NEW; LEN as usize]));
    cl.run(None);
    assert_eq!(
        cl.counters().get(Counter::EagerRetrans),
        1,
        "the frame was resent"
    );
    assert!(
        cl.read_proc(rx, recv_buf, LEN).iter().all(|&b| b == OLD),
        "the retransmission delivered bytes written after SendDone"
    );
    assert_eq!(cl.counters().get(Counter::RequestsFailed), 0);
}

/// A shared-memory message that arrives before its receive is posted is
/// parked as unexpected with the sender's bytes as of the send: writing
/// the send buffer before the receive is posted does not change them.
#[test]
fn parked_shm_messages_keep_the_bytes_of_their_send_time() {
    const LEN: u64 = 64 * 1024;
    const OLD: u8 = 0xaa;
    const NEW: u8 = 0x55;
    let mut cl = cluster(PinningMode::Cached, 1);
    let done = Rc::new(RefCell::new(false));
    let tx = cl.add_process(0, sender(&done));
    let rx = cl.add_process(0, proc_of(|_| {}, |_, _| {}));
    cl.step_until(simcore::SimTime::ZERO);
    let send_buf = cl.drive(tx, |ctx| {
        let buf = ctx.malloc(LEN);
        ctx.write_buf(buf, &vec![OLD; LEN as usize]);
        ctx.isend(rx, 5, buf, LEN);
        buf
    });
    step_until_set(&mut cl, &done);
    cl.drive(tx, |ctx| ctx.write_buf(send_buf, &vec![NEW; LEN as usize]));
    let recv_buf = cl.drive(rx, |ctx| {
        let buf = ctx.malloc(LEN);
        ctx.irecv(5, !0, buf, LEN);
        buf
    });
    cl.run(None);
    assert_eq!(cl.counters().get(Counter::ShmMsgsTx), 1);
    assert!(
        cl.read_proc(rx, recv_buf, LEN).iter().all(|&b| b == OLD),
        "the parked message delivered bytes written after SendDone"
    );
    assert_eq!(cl.counters().get(Counter::RequestsFailed), 0);
}

#[test]
fn send_to_a_missing_peer_fails_cleanly() {
    // One process, sending to a ProcId the cluster never created: the
    // request fails with an error instead of bringing down the engine.
    let failed: Rc<RefCell<Vec<&'static str>>> = Rc::new(RefCell::new(Vec::new()));
    let failed2 = failed.clone();
    let mut cl = cluster(PinningMode::Cached, 2);
    cl.add_process(
        0,
        proc_of(
            |ctx| {
                let buf = ctx.malloc(4096);
                ctx.isend(ProcId(7), 1, buf, 4096);
            },
            move |ctx, ev| {
                if let AppEvent::Failed(_, reason) = ev {
                    failed2.borrow_mut().push(reason);
                    ctx.stop();
                }
            },
        ),
    );
    cl.run(None);
    assert_eq!(*failed.borrow(), vec!["no such peer"]);
    assert_eq!(cl.counters().get(Counter::RequestsFailed), 1);
}
