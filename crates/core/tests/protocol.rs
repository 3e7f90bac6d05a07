//! Deeper protocol tests: matching order, wildcard sources, concurrent
//! use of one buffer, posting order symmetry, loopback, and multi-process
//! nodes.

use std::cell::RefCell;
use std::rc::Rc;

use openmx_core::engine::{AppEvent, Cluster, Ctx, OverlapHint, ProcId, Process};
use openmx_core::{Counter, OpenMxConfig, PinningMode, TraceEvent, WireMsg};
use simcore::{SimDuration, SimTime};
use simmem::{page_chunks, VirtAddr, PAGE_SIZE};

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
fn a_region_the_cache_evicts_in_use_is_undeclared_after_its_last_use() {
    // With room for one region per process, the second of two concurrent
    // sends from different buffers evicts the first send's region while
    // that send still uses it (the receives do the same on their side).
    // The region stays declared until its send completes, then it is
    // undeclared; at quiescence each node holds just the region its
    // cache names.
    const LEN: u64 = 512 * 1024;
    let mut cfg = OpenMxConfig::with_mode(PinningMode::Cached);
    cfg.cache_capacity = 1;
    let mut cl = Cluster::new(cfg, 2);
    cl.enable_trace();
    let mut sent = 0;
    cl.add_process(
        0,
        proc_of(
            |ctx| {
                for tag in 0..2 {
                    let buf = ctx.malloc(LEN);
                    ctx.write_buf(buf, &vec![tag as u8 + 1; LEN as usize]);
                    ctx.isend(ProcId(1), tag, buf, LEN);
                }
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
    let mut received = 0;
    cl.add_process(
        1,
        proc_of(
            |ctx| {
                for tag in 0..2 {
                    let buf = ctx.malloc(LEN);
                    ctx.irecv(tag, !0, buf, LEN);
                }
            },
            move |ctx, ev| {
                if let AppEvent::RecvDone(_, n) = ev {
                    assert_eq!(n, LEN);
                    received += 1;
                    if received == 2 {
                        ctx.stop();
                    }
                }
            },
        ),
    );
    cl.step_until(SimTime::ZERO);
    while cl.node_counters(0).get(Counter::CacheEvictions) == 0 {
        let t = cl.next_event_time().expect("the sends are pending");
        cl.step_until(t);
    }
    let evicted = cl
        .tracer()
        .iter()
        .find_map(|r| match r.event {
            TraceEvent::CacheEvict { region } if r.node == 0 => Some(region),
            _ => None,
        })
        .expect("the eviction is traced");
    let r = cl.driver(0).region(evicted);
    assert_eq!(r.use_count, 1, "evicted while its send runs");
    assert!(r.undeclare_when_idle);
    cl.run(None);
    let at = |is: &dyn Fn(&TraceEvent) -> bool| {
        let mut hits = cl.tracer().iter().filter(|r| r.node == 0 && is(&r.event));
        hits.next().expect("traced").time
    };
    let first_send_done = at(&|e| matches!(e, TraceEvent::SendDone { .. }));
    let undeclared =
        at(&|e| matches!(e, TraceEvent::RegionUndeclare { region } if *region == evicted));
    assert!(
        undeclared >= first_send_done,
        "undeclared after its last use"
    );
    assert!(cl.driver(0).try_region(evicted).is_none());
    assert_eq!(cl.counters().get(Counter::RequestsFailed), 0);
    for node in 0..2 {
        assert_eq!(cl.node_counters(node).get(Counter::CacheEvictions), 1);
        assert_eq!(cl.driver(node).declared_count(), 1, "the cached region");
    }
    cl.audit().assert_clean();
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

/// The eager frames on the wire, as `(frag, frag_count, offset, len)` in
/// arrival order.
fn eager_frames_in_flight(cl: &Cluster) -> Vec<(u32, u32, u64, u64)> {
    cl.frames_in_flight()
        .into_iter()
        .filter_map(|(_, f)| match &f.msg {
            WireMsg::Eager {
                frag,
                frag_count,
                offset,
                data,
                ..
            } => Some((*frag, *frag_count, *offset, data.len())),
            _ => None,
        })
        .collect()
}

/// A multi-frame eager message goes on the wire whole, one fragment per
/// frame in fragment order, on its first send and again when its ack is
/// lost; the receiver answers the duplicate with re-acks and delivers the
/// message once.
#[test]
fn eager_fragments_tile_the_message_on_every_transmission() {
    const LEN: u64 = 10 * 1024;
    let mut cfg = OpenMxConfig::with_mode(PinningMode::Cached);
    cfg.net.mtu = simnet::frame::MTU_STANDARD;
    assert!(LEN < cfg.eager_threshold);
    // A loss chain that starts out dropping everything and leaves that
    // state for good after one frame: the receiver's first frame back, the
    // ack, is the only frame lost.
    let first_frame_lost = simnet::GilbertElliott {
        p_good_to_bad: 1.0,
        p_bad_to_good: 0.0,
        loss_good: 1.0,
        loss_bad: 0.0,
    };
    cfg.net.faults.set_link(
        1,
        0,
        simnet::FaultProfile {
            burst: Some(first_frame_lost),
            ..simnet::FaultProfile::default()
        },
    );
    let frags = simnet::frame::frame_count(LEN, cfg.net.mtu);
    assert!(frags > 1);
    let mut cl = Cluster::new(cfg, 2);
    let delivered = Rc::new(RefCell::new(0));
    let seen = delivered.clone();
    let tx = cl.add_process(0, proc_of(|_| {}, |_, _| {}));
    let rx = cl.add_process(
        1,
        proc_of(
            |_| {},
            move |_, ev| {
                if let AppEvent::RecvDone(_, len) = ev {
                    assert_eq!(len, LEN);
                    *seen.borrow_mut() += 1;
                }
            },
        ),
    );
    cl.step_until(SimTime::ZERO);
    let recv_buf = cl.drive(rx, |ctx| {
        let buf = ctx.malloc(LEN);
        ctx.irecv(5, !0, buf, LEN);
        buf
    });
    let bytes: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
    cl.drive(tx, |ctx| {
        let buf = ctx.malloc(LEN);
        ctx.write_buf(buf, &bytes);
        ctx.isend(rx, 5, buf, LEN);
    });
    // A transmission starts at each instant eager frames are on the wire
    // after none were; all of its frames leave in that one instant.
    let mut transmissions = Vec::new();
    let mut on_wire = false;
    while let Some(t) = cl.next_event_time() {
        cl.step_until(t);
        let frames = eager_frames_in_flight(&cl);
        if !on_wire && !frames.is_empty() {
            transmissions.push(frames.clone());
        }
        on_wire = !frames.is_empty();
    }
    cl.run(None);
    assert_eq!(transmissions.len(), 2, "the first send and one resend");
    for frames in &transmissions {
        assert_eq!(frames.len() as u64, frags, "{frames:?}");
        let mut end = 0;
        for (i, &(frag, count, offset, len)) in frames.iter().enumerate() {
            assert_eq!((frag as usize, count as u64), (i, frags), "{frames:?}");
            assert_eq!(offset, end, "fragments tile the message: {frames:?}");
            end += len;
        }
        assert_eq!(end, LEN, "{frames:?}");
    }
    let c = cl.counters();
    assert_eq!(c.get(Counter::EagerRetrans), 1);
    assert_eq!(c.get(Counter::RequestsFailed), 0);
    let net = cl.net_stats();
    assert_eq!(net.frames_burst_lost, 1, "only the first ack was lost");
    assert_eq!(
        net.frames_sent,
        2 * frags + 1 + frags,
        "two transmissions, the lost ack, and one re-ack per duplicate fragment"
    );
    assert_eq!(*delivered.borrow(), 1, "the duplicate was not delivered");
    assert_eq!(cl.read_proc(rx, recv_buf, LEN), bytes);
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

/// The backing page of every page `[addr, addr + len)` of `proc` touches.
fn pages_of(cl: &Cluster, proc: ProcId, addr: VirtAddr, len: u64) -> Vec<Rc<[u8]>> {
    let mem = cl.memory(cl.node_of(proc));
    let space = cl.space_of(proc);
    page_chunks(addr, len)
        .map(|(vpn, _, _)| mem.share_phys(mem.resident_pfn(space, vpn).expect("resident")))
        .collect()
}

/// Two round trips of a 1 MiB rendezvous pingpong at jumbo MTU, whose
/// receive buffers start `shift` bytes into their allocation. Returns the
/// cluster, proc 0's send buffer, proc 1's receive buffer and proc 0's
/// echo buffer.
fn split_page_pingpong(shift: u64) -> (Cluster, VirtAddr, VirtAddr, VirtAddr) {
    const LEN: u64 = 1 << 20;
    let cfg = OpenMxConfig::with_mode(PinningMode::OverlappedCached);
    assert_eq!(cfg.net.mtu, simnet::frame::MTU_JUMBO);
    let mut cl = Cluster::new(cfg, 2);
    let p0 = cl.add_process(0, proc_of(|_| {}, |_, _| {}));
    let p1 = cl.add_process(1, proc_of(|_| {}, |_, _| {}));
    cl.step_until(simcore::SimTime::ZERO);
    let (send, echo) = cl.drive(p0, |ctx| {
        let send = ctx.malloc(LEN);
        // A different byte at every offset of the buffer.
        let data: Vec<u8> = (0..LEN).map(|i| (i / 3 + i / PAGE_SIZE) as u8).collect();
        ctx.write_buf(send, &data);
        (send, ctx.malloc(LEN + PAGE_SIZE).add(shift))
    });
    let recv = cl.drive(p1, |ctx| ctx.malloc(LEN + PAGE_SIZE).add(shift));
    for _ in 0..2 {
        cl.drive(p1, |ctx| ctx.irecv(0, !0, recv, LEN));
        cl.drive(p0, |ctx| ctx.isend(p1, 0, send, LEN));
        cl.run(None);
        cl.drive(p0, |ctx| ctx.irecv(1, !0, echo, LEN));
        cl.drive(p1, |ctx| ctx.isend(p0, 1, recv, LEN));
        cl.run(None);
    }
    let c = cl.counters();
    assert_eq!(c.get(Counter::RndvMsgsTx), 4);
    assert_eq!(c.get(Counter::RequestsFailed), 0);
    let want = cl.read_proc(p0, send, LEN);
    assert!(cl.read_proc(p1, recv, LEN) == want, "shift {shift}");
    assert!(cl.read_proc(p0, echo, LEN) == want, "shift {shift}");
    (cl, send, recv, echo)
}

/// Jumbo pull-reply frames (8,968 bytes) split about every other page
/// across two frames. A page whose two pieces land at the offsets they
/// were captured from ends up equal to the sender's page and takes it by
/// reference; at differing offsets every page is copied, and the bytes
/// are the same either way.
#[test]
fn pages_split_across_pull_replies_land_by_reference_when_offsets_agree() {
    const LEN: u64 = 1 << 20;
    let (cl, send, recv, echo) = split_page_pingpong(0);
    assert_eq!((send.page_offset(), recv.page_offset()), (0, 0));
    let sent = pages_of(&cl, ProcId(0), send, LEN);
    for (proc, buf) in [(ProcId(1), recv), (ProcId(0), echo)] {
        let got = pages_of(&cl, proc, buf, LEN);
        assert_eq!(got.len(), sent.len());
        for (i, (g, s)) in got.iter().zip(&sent).enumerate() {
            assert!(Rc::ptr_eq(g, s), "{proc:?}: page {i} is not the sender's");
        }
    }

    let (cl, send, recv, echo) = split_page_pingpong(100);
    let sent = pages_of(&cl, ProcId(0), send, LEN);
    for (proc, buf) in [(ProcId(1), recv), (ProcId(0), echo)] {
        for page in pages_of(&cl, proc, buf, LEN) {
            assert!(
                !sent.iter().any(|s| Rc::ptr_eq(s, &page)),
                "{proc:?}: a page moved by reference across differing offsets"
            );
        }
    }
}

/// On the CPU-copy path `DriverRegion::land` makes the overlapped
/// design's pin check itself. A pull-reply frame that reaches past the
/// pin cursor is dropped whole: none of its bytes land, one drop is
/// counted, and the re-request still delivers the sender's bytes.
#[test]
fn an_overlap_miss_lands_none_of_the_dropped_frame() {
    // One 64 KiB block: its frames cut the buffer into disjoint ranges.
    const LEN: u64 = 64 * 1024;
    const OLD: u8 = 0x11;
    let mut cfg = OpenMxConfig::with_mode(PinningMode::Overlapped);
    assert!(!cfg.use_ioat && cfg.eager_threshold < LEN && cfg.pull_block == LEN);
    // The pin cursor moves a page at a time, and a frame's pages take
    // longer to pin than its wire time: the pull replies outrun it.
    cfg.pin_chunk_pages = 1;
    cfg.profile.pin_per_page = SimDuration::from_micros(10);
    let chunk = simnet::frame::max_payload(cfg.net.mtu);
    let mut cl = Cluster::new(cfg, 2);
    cl.enable_trace();
    let tx = cl.add_process(0, proc_of(|_| {}, |_, _| {}));
    let rx = cl.add_process(1, proc_of(|_| {}, |_, _| {}));
    cl.step_until(SimTime::ZERO);
    let recv_buf = cl.drive(rx, |ctx| {
        let buf = ctx.malloc(LEN);
        ctx.write_buf(buf, &vec![OLD; LEN as usize]);
        ctx.irecv(5, !0, buf, LEN);
        buf
    });
    let send_buf = cl.drive(tx, |ctx| {
        let buf = ctx.malloc(LEN);
        let data: Vec<u8> = (0..LEN).map(|i| (0x20 + i % 200) as u8).collect();
        ctx.write_buf(buf, &data);
        // The sender pins before its rendezvous, so every reply is cut.
        ctx.isend_hinted(rx, 5, buf, LEN, OverlapHint::Disable);
        buf
    });
    let rx_node = cl.node_of(rx);
    let count = |cl: &Cluster, c| cl.node_counters(rx_node).get(c);
    let dropped_before = loop {
        let dropped = count(&cl, Counter::FramesDroppedUnpinned);
        let t = cl.next_event_time().expect("no overlap miss happened");
        cl.step_until(t);
        if count(&cl, Counter::OverlapMissRx) > 0 {
            break dropped;
        }
    };
    assert_eq!(count(&cl, Counter::OverlapMissRx), 1);
    assert_eq!(
        count(&cl, Counter::FramesDroppedUnpinned),
        dropped_before + 1
    );
    let offset = cl
        .tracer()
        .iter()
        .find_map(|r| match r.event {
            TraceEvent::OverlapMissRx { offset, .. } => Some(offset),
            _ => None,
        })
        .expect("the miss is traced");
    assert!(
        count(&cl, Counter::PullFramesOk) > 0,
        "no frame landed first"
    );
    let len = chunk.min(LEN - offset);
    assert!(
        cl.read_proc(rx, recv_buf.add(offset), len)
            .iter()
            .all(|&b| b == OLD),
        "the dropped frame's bytes [{offset}, +{len}) landed"
    );
    cl.run(None);
    assert_eq!(cl.counters().get(Counter::RequestsFailed), 0);
    assert!(cl.read_proc(rx, recv_buf, LEN) == cl.read_proc(tx, send_buf, LEN));
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
