//! Event handlers: the MXoE protocol state machine, on-demand pinning,
//! overlap-miss recovery, and completion plumbing.

use simcore::{Due, Priority, SimDuration};
use simmem::{PageSnapshot, VirtAddr};

use super::rto::{retrans_timeout, RttEstimator};
use super::xfer::{
    pull_of, Block, EagerRxMatched, EagerTx, End, PendingCopy, Phase, PinPlan, PinWaiter, Pull,
    Retry, Rndv, Shm, Xfer, XferKey,
};
use super::{
    AppEvent, Cluster, CopyWork, Event, OverlapHint, ProcId, SyscallAction, TimerToken, Work,
};
use crate::config::{OpenMxConfig, CORES_PER_NODE, RETRANSMIT_MIN};
use crate::driver::RegionId;
use crate::endpoint::{EagerRx, EndpointAddr, PostedRecv, RequestId, Unexpected};
use crate::obs::{Counter, RetransKind, TraceEvent};
use crate::region::{DeclareError, RegionAccessError, Segment};
use crate::wire::{Frame, MsgId, PullId, WireMsg};

impl Cluster {
    #[inline(always)]
    pub(crate) fn dispatch(&mut self, due: Due<Event>) {
        match due {
            Due::Lane(lane) => self.on_core_done(lane),
            Due::Event(Event::FrameArrival(frame)) => self.on_frame_arrival(frame),
            Due::Event(Event::IoatDone { node, token }) => self.on_ioat_done(node, token),
            Due::Event(Event::Timer(token)) => self.on_timer(token),
        }
    }

    // ================== CPU completion plumbing ==================

    /// The running chunk of the core that owns `lane` finished.
    #[inline(always)]
    fn on_core_done(&mut self, lane: usize) {
        let (node, core) = (lane / CORES_PER_NODE, lane % CORES_PER_NODE);
        // Hold the core while the handler runs so that follow-up work it
        // submits (next pin chunk, next compute slice) is considered
        // before already-queued lower-priority items start.
        let work = self.nodes[node].cores[core].complete(self.now);
        self.handle_work(work);
        if let Some(at) = self.nodes[node].cores[core].resume(self.now) {
            self.queue.set_lane(lane, at);
        }
    }

    #[inline(always)]
    fn handle_work(&mut self, work: Work) {
        match work {
            Work::Syscall { proc, action } => self.on_syscall(proc, action),
            Work::PinChunk { node, region } => self.on_pin_chunk(node, region),
            Work::UnpinRegion {
                node,
                region,
                owner,
                undeclare,
            } => self.on_unpin_region(node, region, owner, undeclare),
            Work::BhFrame(frame) => self.on_bh_frame(frame),
            Work::Compute {
                proc,
                token,
                remaining,
            } => {
                if remaining.is_zero() {
                    self.notify_app(proc, AppEvent::ComputeDone(token));
                } else {
                    let slice = Cluster::COMPUTE_SLICE.min(remaining);
                    self.submit_proc_work(
                        proc,
                        slice,
                        Work::Compute {
                            proc,
                            token,
                            remaining: remaining - slice,
                        },
                    );
                }
            }
            Work::Copy(copy) => self.on_copy_done(copy),
            Work::Slice { then, remaining } => {
                if remaining.is_zero() {
                    self.on_copy_done(then);
                } else {
                    let proc = then.owner();
                    let slice = Cluster::COMPUTE_SLICE.min(remaining);
                    self.submit_proc_work(
                        proc,
                        slice,
                        Work::Slice {
                            then,
                            remaining: remaining - slice,
                        },
                    );
                }
            }
        }
    }

    /// A copy finished, whole or as its last slice.
    fn on_copy_done(&mut self, copy: CopyWork) {
        match copy {
            CopyWork::EagerCopyOut { owner, msg, req } => self.on_eager_copy_out(owner, msg, req),
            CopyWork::EagerDeliver { msg, .. } => self.on_eager_deliver(msg),
            CopyWork::ShmSend { owner, msg, req } => self.on_shm_send(owner, msg, req),
            CopyWork::ShmDeliver { msg, .. } => self.on_shm_deliver(msg),
        }
    }

    // ================== syscalls ==================

    #[inline]
    fn on_syscall(&mut self, proc: ProcId, action: SyscallAction) {
        // A syscall queued behind other work when its issuer crashed dies
        // with the process — the kernel entry path checks the task state.
        if self.procs[proc.0 as usize].crashed {
            return;
        }
        match action {
            SyscallAction::Isend {
                req,
                peer,
                match_info,
                segments,
                hint,
            } => self.start_send(proc, req, peer, match_info, segments, hint),
            SyscallAction::Irecv {
                req,
                match_info,
                mask,
                addr,
                len,
                hint,
            } => self.start_recv(proc, req, match_info, mask, addr, len, hint),
        }
    }

    fn start_send(
        &mut self,
        proc: ProcId,
        req: RequestId,
        peer: ProcId,
        match_info: u64,
        segments: Vec<Segment>,
        hint: OverlapHint,
    ) {
        let len: u64 = segments.iter().map(|s| s.len).sum();
        let src_node = self.procs[proc.0 as usize].node;
        let Some(dst) = self.procs.get(peer.0 as usize) else {
            self.nodes[src_node].counters.bump(Counter::RequestsFailed);
            self.notify_app(proc, AppEvent::Failed(req, "no such peer"));
            return;
        };
        let dst_node = dst.node;
        if src_node == dst_node {
            self.start_shm_send(proc, req, peer, match_info, &segments, len);
        } else if len < self.cfg.eager_threshold {
            self.start_eager_send(proc, req, peer, match_info, &segments, len);
        } else {
            self.start_rndv_send(proc, req, peer, match_info, segments, len, hint);
        }
    }

    /// Capture the bytes of a segment vector through a process's page
    /// tables (the user-context copy of the eager/shm paths, whose cost the
    /// caller charges). Fails when the source range is no longer mapped —
    /// the copy takes a fault, and the request must abort cleanly instead
    /// of wedging the engine.
    fn capture_segments(
        &mut self,
        proc: ProcId,
        segments: &[Segment],
    ) -> Result<PageSnapshot, simmem::MemError> {
        let idx = proc.0 as usize;
        let node = self.procs[idx].node;
        let space = self.procs[idx].space;
        let mut data = PageSnapshot::default();
        for seg in segments {
            data.append(self.nodes[node].mem.capture(space, seg.addr, seg.len)?);
        }
        Ok(data)
    }

    // ================== shared-memory (intra-node) path ==================

    fn start_shm_send(
        &mut self,
        proc: ProcId,
        req: RequestId,
        peer: ProcId,
        match_info: u64,
        segments: &[Segment],
        len: u64,
    ) {
        let msg = self.alloc_msg();
        let node = self.procs[proc.0 as usize].node;
        let Ok(data) = self.capture_segments(proc, segments) else {
            self.nodes[node].counters.bump(Counter::RequestsFailed);
            self.notify_app(proc, AppEvent::Failed(req, "send source unmapped"));
            return;
        };
        self.xfers.insert(
            (msg, End::Tx),
            Box::new(Xfer {
                proc,
                peer: self.addr_of(peer),
                req,
                retry: Retry::default(),
                phase: Phase::Shm(Shm {
                    match_info,
                    data,
                    dst: None,
                }),
            }),
        );
        let cost = SimDuration::from_nanos(500) + self.cfg.profile.memcpy_cost(len);
        self.submit_sliced_copy(
            cost,
            CopyWork::ShmSend {
                owner: proc,
                msg,
                req,
            },
        );
        self.nodes[node].counters.bump(Counter::ShmMsgsTx);
    }

    fn on_shm_send(&mut self, owner: ProcId, msg: MsgId, req: RequestId) {
        let Some(x) = self.xfers.get(&(msg, End::Tx)) else {
            // The crash sweep dropped the parked copy while this copy-out
            // sat on the sender's core: either side may have died. A live
            // sender gets a clean failure; a dead one gets silence.
            if !self.procs[owner.0 as usize].crashed {
                let node = self.procs[owner.0 as usize].node;
                self.nodes[node].counters.bump(Counter::RequestsFailed);
                self.notify_app(owner, AppEvent::Failed(req, "peer crashed"));
            }
            return;
        };
        let Phase::Shm(parked) = &x.phase else {
            unreachable!("shm xfer")
        };
        let (src, peer, match_info, total) = (x.proc, x.peer, parked.match_info, parked.data.len());
        if self.endpoint_gone(peer) {
            // The destination died (or came back as a new incarnation)
            // since the send was posted. Shm has no watchdog to catch
            // this later, so fail the sender cleanly now instead of
            // parking bytes on a dead endpoint.
            self.xfers.remove(&(msg, End::Tx));
            let node = self.procs[owner.0 as usize].node;
            self.nodes[node].counters.bump(Counter::RequestsFailed);
            self.nodes[node].counters.bump(Counter::PeerDeadAborts);
            self.notify_app(owner, AppEvent::Failed(req, "peer crashed"));
            return;
        }
        self.notify_app(src, AppEvent::SendDone(req));
        // Deliver to the peer endpoint (receiver-side copy still pending).
        let pidx = peer.proc.0 as usize;
        match self.procs[pidx].endpoint.match_incoming(match_info) {
            Some(posted) => self.shm_matched(msg, posted, total),
            None => {
                let x = self.xfers.remove(&(msg, End::Tx)).expect("shm xfer");
                let Phase::Shm(parked) = x.phase else {
                    unreachable!("shm xfer")
                };
                let src = self.addr_of(src);
                self.procs[pidx].endpoint.push_unexpected(Unexpected::Shm {
                    msg,
                    src,
                    match_info,
                    data: parked.data,
                });
            }
        }
    }

    /// Match a parked shm message to the receive `posted` of its peer.
    fn shm_matched(&mut self, msg: MsgId, posted: PostedRecv, total: u64) {
        let copy_len = total.min(posted.len);
        let x = self.xfers.get_mut(&(msg, End::Tx)).expect("shm xfer");
        let Phase::Shm(parked) = &mut x.phase else {
            unreachable!("shm xfer")
        };
        parked.dst = Some((posted.addr, copy_len));
        x.req = posted.req;
        let receiver = x.peer.proc;
        let cost = self.cfg.profile.memcpy_cost(copy_len);
        self.submit_sliced_copy(
            cost,
            CopyWork::ShmDeliver {
                owner: receiver,
                msg,
            },
        );
    }

    fn on_shm_deliver(&mut self, msg: MsgId) {
        let Some(x) = self.xfers.remove(&(msg, End::Tx)) else {
            return; // crash sweep already failed/settled this transfer
        };
        let Phase::Shm(parked) = x.phase else {
            unreachable!("shm xfer")
        };
        let ((addr, copy_len), proc, req) = (parked.dst.expect("matched"), x.peer.proc, x.req);
        let idx = proc.0 as usize;
        let node = self.procs[idx].node;
        let space = self.procs[idx].space;
        let data = match parked.data {
            data if copy_len < data.len() => data.slice(0, copy_len),
            data => data,
        };
        match self.nodes[node].mem.land(space, addr, &data) {
            Ok(events) => {
                self.dispatch_notifier_events(node, &events);
                self.notify_app(proc, AppEvent::RecvDone(req, copy_len));
            }
            Err(_) => {
                // The receiver unmapped its posted buffer mid-delivery:
                // the copy faults (EFAULT), the request fails cleanly.
                self.nodes[node].counters.bump(Counter::RequestsFailed);
                self.notify_app(proc, AppEvent::Failed(req, "receive buffer unmapped"));
            }
        }
    }

    // ================== eager path ==================

    fn start_eager_send(
        &mut self,
        proc: ProcId,
        req: RequestId,
        peer: ProcId,
        match_info: u64,
        segments: &[Segment],
        len: u64,
    ) {
        let msg = self.alloc_msg();
        let node = self.procs[proc.0 as usize].node;
        let Ok(data) = self.capture_segments(proc, segments) else {
            self.nodes[node].counters.bump(Counter::RequestsFailed);
            self.notify_app(proc, AppEvent::Failed(req, "send source unmapped"));
            return;
        };
        self.xfers.insert(
            (msg, End::Tx),
            Box::new(Xfer {
                proc,
                peer: self.addr_of(peer),
                req,
                retry: Retry::default(),
                phase: Phase::EagerTx(EagerTx {
                    match_info,
                    total_len: len,
                    data,
                    sent_at: self.now,
                }),
            }),
        );
        let frags = simnet::frame::frame_count(len, self.cfg.net.mtu);
        let cost = self.cfg.profile.memcpy_cost(len) + self.cfg.profile.tx_setup.times(frags);
        self.submit_sliced_copy(
            cost,
            CopyWork::EagerCopyOut {
                owner: proc,
                msg,
                req,
            },
        );
        self.nodes[node].counters.bump(Counter::EagerMsgsTx);
    }

    fn on_eager_copy_out(&mut self, owner: ProcId, msg: MsgId, req: RequestId) {
        self.transmit_eager_frames(msg);
        // The ack may already have raced the copy-out completion (duplicate
        // delivery paths): `arm_retry` arms only if the tx state is live.
        self.arm_retry((msg, End::Tx), 0);
        // MX eager semantics: the send completes locally once the data has
        // been copied out of the user buffer.
        self.notify_app(owner, AppEvent::SendDone(req));
    }

    fn transmit_eager_frames(&mut self, msg: MsgId) {
        let chunk = self.frame_payload();
        let mtu = self.cfg.net.mtu;
        let now = self.now;
        let key = (msg, End::Tx);
        let Some(x) = self.xfers.get_mut(&key) else {
            return; // acked and reclaimed while this work was queued
        };
        let Phase::EagerTx(tx) = &mut x.phase else {
            unreachable!("eager send")
        };
        tx.sent_at = now;
        let (proc, peer, match_info, total) = (x.proc, x.peer, tx.match_info, tx.total_len);
        // The payload leaves the table while its fragments go out, so each
        // one is transmitted as it is cut; `transmit` never reads the table.
        let data = std::mem::take(&mut tx.data);
        let src = self.addr_of(proc);
        let frag_count = simnet::frame::frame_count(total, mtu) as u32;
        for frag in 0..frag_count {
            let offset = frag as u64 * chunk;
            self.transmit(Frame {
                src,
                dst: peer,
                msg: WireMsg::Eager {
                    msg,
                    match_info,
                    frag,
                    frag_count,
                    total_len: total,
                    offset,
                    data: data.slice(offset, chunk.min(total - offset)),
                },
            });
        }
        let x = self
            .xfers
            .get_mut(&key)
            .expect("transmit keeps the transfer");
        let Phase::EagerTx(tx) = &mut x.phase else {
            unreachable!("eager send")
        };
        tx.data = data;
    }

    #[allow(clippy::too_many_arguments)]
    fn on_eager_frame(
        &mut self,
        src: EndpointAddr,
        dst: ProcId,
        msg: MsgId,
        match_info: u64,
        frag: u32,
        frag_count: u32,
        total_len: u64,
        offset: u64,
        data: PageSnapshot,
    ) {
        let idx = dst.0 as usize;
        if self.procs[idx].endpoint.is_completed(msg) {
            // Duplicate of a finished message: just re-ack.
            let ack = self.frame(dst, src, WireMsg::EagerAck { msg });
            self.transmit(ack);
            return;
        }
        // Matched, still reassembling?
        if let Some(x) = self.xfers.get_mut(&(msg, End::Rx)) {
            let Phase::EagerRx(m) = &mut x.phase else {
                unreachable!("eager receive")
            };
            if m.rx.has_frag(frag) {
                let node = self.procs[idx].node;
                self.nodes[node].counters.bump(Counter::EagerDupFrags);
                return;
            }
            if m.rx.absorb(frag, offset, data) {
                let cost = self.cfg.profile.memcpy_cost(m.copy_len);
                let proc = x.proc;
                self.submit_sliced_copy(cost, CopyWork::EagerDeliver { owner: proc, msg });
            }
            return;
        }
        // Unexpected, still reassembling?
        if let Some(u) = self.procs[idx].endpoint.unexpected_eager_mut(msg) {
            if u.has_frag(frag) {
                let node = self.procs[idx].node;
                self.nodes[node].counters.bump(Counter::EagerDupFrags);
                return;
            }
            u.absorb(frag, offset, data);
            return;
        }
        // First frame of a new message.
        let mut rx = EagerRx::new(msg, src, match_info, total_len, frag_count);
        let complete = rx.absorb(frag, offset, data);
        match self.procs[idx].endpoint.match_incoming(match_info) {
            Some(posted) => {
                let copy_len = total_len.min(posted.len);
                self.insert_eager_rx(dst, posted.req, rx, posted.addr, copy_len);
                if complete {
                    let cost = self.cfg.profile.memcpy_cost(copy_len);
                    self.submit_sliced_copy(cost, CopyWork::EagerDeliver { owner: dst, msg });
                }
            }
            None => {
                self.procs[idx]
                    .endpoint
                    .push_unexpected(Unexpected::Eager(rx));
            }
        }
    }

    /// Enter a matched eager message's receive side.
    fn insert_eager_rx(
        &mut self,
        proc: ProcId,
        req: RequestId,
        rx: EagerRx,
        addr: VirtAddr,
        copy_len: u64,
    ) {
        self.xfers.insert(
            (rx.msg, End::Rx),
            Box::new(Xfer {
                proc,
                peer: rx.src,
                req,
                retry: Retry::default(),
                phase: Phase::EagerRx(EagerRxMatched { rx, addr, copy_len }),
            }),
        );
    }

    fn on_eager_deliver(&mut self, msg: MsgId) {
        let Some(x) = self.xfers.remove(&(msg, End::Rx)) else {
            return; // crash sweep already failed/settled this transfer
        };
        let Phase::EagerRx(m) = x.phase else {
            unreachable!("eager receive")
        };
        let (proc, req) = (x.proc, x.req);
        let idx = proc.0 as usize;
        let node = self.procs[idx].node;
        let space = self.procs[idx].space;
        let src = m.rx.src;
        // Each fragment lands at its own offset, in order, stopping at the
        // first fault: the same pages a write of the whole prefix touches.
        let mem = &mut self.nodes[node].mem;
        let delivered =
            m.rx.into_prefix(m.copy_len)
                .try_fold(Vec::new(), |mut events, (off, data)| {
                    events.extend(mem.land(space, m.addr.add(off), &data)?);
                    Ok::<_, simmem::MemError>(events)
                });
        // Ack either way: the message *was* received. A receiver that
        // unmapped its posted buffer gets a clean local failure (EFAULT on
        // the copy); the sender must not retransmit into the same fault.
        self.procs[idx].endpoint.mark_completed(msg);
        let ack = self.frame(proc, src, WireMsg::EagerAck { msg });
        self.transmit(ack);
        match delivered {
            Ok(events) => {
                self.dispatch_notifier_events(node, &events);
                self.notify_app(proc, AppEvent::RecvDone(req, m.copy_len));
            }
            Err(_) => {
                self.nodes[node].counters.bump(Counter::RequestsFailed);
                self.notify_app(proc, AppEvent::Failed(req, "receive buffer unmapped"));
            }
        }
    }

    // ================== rendezvous send side ==================

    #[allow(clippy::too_many_arguments)]
    fn start_rndv_send(
        &mut self,
        proc: ProcId,
        req: RequestId,
        peer: ProcId,
        match_info: u64,
        segments: Vec<Segment>,
        len: u64,
        hint: OverlapHint,
    ) {
        let node = self.procs[proc.0 as usize].node;
        let Ok((region, owned)) = self.acquire_region(proc, segments) else {
            self.nodes[node].counters.bump(Counter::RequestsFailed);
            self.notify_app(proc, AppEvent::Failed(req, "send region rejected (empty)"));
            return;
        };
        let msg = self.alloc_msg();
        let target = self.pin_target(node, region, len);
        self.xfers.insert(
            (msg, End::Tx),
            Box::new(Xfer {
                proc,
                peer: self.addr_of(peer),
                req,
                retry: Retry::default(),
                phase: Phase::Rndv(Rndv {
                    match_info,
                    region,
                    node,
                    total_len: len,
                    owned,
                    pull_seen: false,
                    rndv_sent_at: None,
                }),
            }),
        );
        self.nodes[node].counters.bump(Counter::RndvMsgsTx);
        self.pin_then(proc, region, target, hint, msg, None);
    }

    /// (Re)send the rendezvous and (re)arm its retransmission timer.
    fn send_rndv(&mut self, msg: MsgId) {
        let (now, key) = (self.now, (msg, End::Tx));
        let Some((proc, peer, retry, Phase::Rndv(x))) = self.xfers.get_mut(&key).map(|x| x.parts())
        else {
            return; // transfer aborted while the pin waiter was queued
        };
        let (match_info, total_len, node, attempt) =
            (x.match_info, x.total_len, x.node, retry.retries);
        x.rndv_sent_at.get_or_insert(now);
        let f = self.frame(
            proc,
            peer,
            WireMsg::Rndv {
                msg,
                match_info,
                total_len,
            },
        );
        self.transmit(f);
        self.arm_retry(key, attempt);
        self.emit(
            node,
            Some(proc),
            TraceEvent::RndvTx {
                msg,
                len: total_len,
            },
        );
    }

    fn on_pull_req(
        &mut self,
        dst: ProcId,
        msg: MsgId,
        pull: PullId,
        block: u32,
        frame_mask: u64,
        xfer_len: u64,
    ) {
        let (now, key) = (self.now, (msg, End::Tx));
        let Some((proc, peer, retry, Phase::Rndv(x))) = self.xfers.get_mut(&key).map(|x| x.parts())
        else {
            let node = self.node_of(dst);
            self.nodes[node].counters.bump(Counter::PullReqStale);
            return;
        };
        let first_pull = !x.pull_seen;
        if first_pull {
            x.pull_seen = true;
            // The first pull request closes the overlap window: everything
            // between the rendezvous and here was free pinning time.
            if let Some(sent) = x.rndv_sent_at {
                let sample = now.duration_since(sent);
                self.metrics.overlap_window.record(sample);
                // Rendezvous -> first pull request is the protocol's control
                // round trip — the RTT the retransmission policy adapts to.
                // Karn's rule: skip retransmitted rendezvous.
                if retry.retries == 0 {
                    self.rtt.observe(sample);
                }
            }
        }
        // Every pull request is sender-visible progress: reset the attempt
        // counter and re-arm the rendezvous timer as a completion watchdog.
        // (The old protocol cancelled it here with no replacement — a
        // lost-forever notify then hung the sender permanently.)
        retry.retries = 0;
        let (node, region, total_len) = (x.node, x.region, x.total_len);
        self.arm_retry(key, 0);
        // The receiver may have truncated the transfer to its posted size.
        let limit = total_len.min(xfer_len);
        let chunk = self.frame_payload();
        let block_base = block as u64 * self.cfg.pull_block;
        // Bogus or stale coordinates (e.g. a duplicate request racing a
        // shrunk transfer) must not underflow the block math.
        if block_base >= limit {
            self.nodes[node].counters.bump(Counter::PullReqBogus);
            return;
        }
        let block_len = self.cfg.pull_block.min(limit - block_base);
        let nframes = block_len.div_ceil(chunk) as u32;
        debug_assert!(nframes <= 64, "pull block exceeds the frame mask");
        let mut replies = Vec::new();
        let mut missed = false;
        {
            let n = &self.nodes[node];
            let r = n.driver.region(region);
            for f in 0..nframes {
                if frame_mask & (1u64 << f) == 0 {
                    continue;
                }
                let off = block_base + f as u64 * chunk;
                let flen = chunk.min(limit - off);
                match r.capture(&n.mem, off, flen) {
                    Ok(data) => replies.push((f, off, data)),
                    Err(_) => {
                        // Sender-side overlap miss: the pull request beat
                        // the pin cursor. Drop this frame; the receiver
                        // re-requests it.
                        missed = true;
                    }
                }
            }
        }
        if missed {
            self.nodes[node].counters.bump(Counter::OverlapMissTx);
            self.emit(node, Some(proc), TraceEvent::OverlapMissTx { msg, block });
            // Make sure pinning is (still) progressing toward the end.
            let target = self.pin_target(node, region, limit);
            self.ensure_pinned(node, proc, region, target, None);
        }
        for (f, off, data) in replies {
            let frame = self.frame(
                proc,
                peer,
                WireMsg::PullReply {
                    pull,
                    msg,
                    block,
                    frame: f,
                    offset: off,
                    data,
                },
            );
            self.transmit(frame);
        }
    }

    fn on_notify(&mut self, src: EndpointAddr, dst: ProcId, msg: MsgId) {
        // Always ack so the receiver can quiesce, even for duplicates.
        let ack = self.frame(dst, src, WireMsg::NotifyAck { msg });
        self.transmit(ack);
        let Some(x) = self.xfers.remove(&(msg, End::Tx)) else {
            let node = self.node_of(dst);
            self.nodes[node].counters.bump(Counter::NotifyDup);
            return; // duplicate notify
        };
        let Phase::Rndv(s) = x.phase else {
            unreachable!("rendezvous send")
        };
        let proc = x.proc;
        self.cancel_timer(x.retry.timer);
        if let Some(sent) = s.rndv_sent_at {
            self.metrics.rndv_rtt.record(self.now.duration_since(sent));
        }
        self.release_region(proc, s.node, s.region, s.owned);
        self.emit(s.node, Some(proc), TraceEvent::SendDone { msg });
        self.notify_app(proc, AppEvent::SendDone(x.req));
    }

    // ================== rendezvous receive side ==================

    #[allow(clippy::too_many_arguments)]
    fn start_recv(
        &mut self,
        proc: ProcId,
        req: RequestId,
        match_info: u64,
        mask: u64,
        addr: VirtAddr,
        len: u64,
        hint: OverlapHint,
    ) {
        let posted = PostedRecv {
            req,
            match_info,
            mask,
            addr,
            len,
            hint,
        };
        let idx = proc.0 as usize;
        match self.procs[idx].endpoint.post_recv(posted) {
            None => {}
            Some(Unexpected::Eager(rx)) => {
                let msg = rx.msg;
                let copy_len = rx.total_len.min(len);
                let complete = rx.complete();
                self.insert_eager_rx(proc, req, rx, addr, copy_len);
                if complete {
                    let cost = self.cfg.profile.memcpy_cost(copy_len);
                    self.submit_sliced_copy(cost, CopyWork::EagerDeliver { owner: proc, msg });
                }
            }
            Some(Unexpected::Rndv {
                msg,
                src,
                total_len,
                ..
            }) => {
                self.start_recv_xfer(proc, src, msg, total_len, posted);
            }
            Some(Unexpected::Shm { msg, src, data, .. }) => {
                let total = data.len();
                self.xfers.insert(
                    (msg, End::Tx),
                    Box::new(Xfer {
                        proc: src.proc,
                        peer: self.addr_of(proc),
                        req,
                        retry: Retry::default(),
                        phase: Phase::Shm(Shm {
                            match_info,
                            data,
                            dst: None,
                        }),
                    }),
                );
                self.shm_matched(msg, posted, total);
            }
        }
    }

    fn start_recv_xfer(
        &mut self,
        proc: ProcId,
        src: EndpointAddr,
        msg: MsgId,
        total_len: u64,
        posted: PostedRecv,
    ) {
        let node = self.procs[proc.0 as usize].node;
        let xfer_len = total_len.min(posted.len);
        // Cached modes key the region on the full posted buffer so repeat
        // receives hit; per-comm modes declare exactly what is needed
        // ("no need to pin an entire region if only part of it is used").
        let reg_len = if self.cfg.pinning.caches() {
            posted.len
        } else {
            xfer_len
        };
        let acquired = self.acquire_region(
            proc,
            vec![Segment {
                addr: posted.addr,
                len: reg_len,
            }],
        );
        let Ok((region, owned)) = acquired else {
            // Zero-length posted buffer: fail the receive cleanly; the
            // sender recovers through its normal retry/timeout path.
            self.nodes[node].counters.bump(Counter::RequestsFailed);
            self.notify_app(
                proc,
                AppEvent::Failed(posted.req, "receive region rejected (empty)"),
            );
            return;
        };
        let target = self.pin_target(node, region, xfer_len);
        let pull = self.alloc_pull();
        let chunk = self.frame_payload();
        let nblocks = xfer_len.div_ceil(self.cfg.pull_block);
        let mut blocks = Vec::with_capacity(nblocks as usize);
        let mut frames_total = 0u64;
        for b in 0..nblocks {
            let base = b * self.cfg.pull_block;
            let blen = self.cfg.pull_block.min(xfer_len - base);
            let frames = blen.div_ceil(chunk) as u32;
            assert!(frames <= 64, "pull_block too large for the frame mask");
            frames_total += frames as u64;
            blocks.push(Block {
                frames,
                received: 0,
                requested: false,
                requested_at: self.now,
                rerequested: false,
            });
        }
        self.xfers.insert(
            (msg, End::Rx),
            Box::new(Xfer {
                proc,
                peer: src,
                req: posted.req,
                retry: Retry::default(),
                phase: Phase::Pull(Pull {
                    id: pull,
                    region,
                    node,
                    owned,
                    xfer_len,
                    blocks,
                    next_block: 0,
                    first_hole: 0,
                    ioat_pending: 0,
                    frames_placed: 0,
                    frames_total,
                }),
            }),
        );
        self.arm_retry((msg, End::Rx), 0);
        self.emit(node, Some(proc), TraceEvent::RndvRx { msg, len: xfer_len });
        self.pin_then(proc, region, target, posted.hint, msg, Some(pull));
    }

    /// Send the initial window of pull requests.
    fn recv_start(&mut self, msg: MsgId, pull: PullId) {
        let window = self.cfg.pull_window;
        for _ in 0..window {
            if !self.request_next_block(msg, pull) {
                break;
            }
        }
    }

    /// Request the next unrequested block, if any. Returns false when all
    /// blocks have been requested.
    fn request_next_block(&mut self, msg: MsgId, pull: PullId) -> bool {
        let Some((proc, peer, _, x)) = pull_of(&mut self.xfers, msg, pull) else {
            return false;
        };
        let b = x.next_block;
        if b as u64 >= x.blocks.len() as u64 {
            return false;
        }
        x.next_block += 1;
        x.blocks[b as usize].requested = true;
        x.blocks[b as usize].requested_at = self.now;
        let mask = x.blocks[b as usize].missing_mask();
        let xfer_len = x.xfer_len;
        let node = self.procs[proc.0 as usize].node;
        self.emit(node, Some(proc), TraceEvent::PullReq { msg, block: b });
        let f = self.frame(
            proc,
            peer,
            WireMsg::PullReq {
                pull,
                msg,
                block: b,
                frame_mask: mask,
                xfer_len,
            },
        );
        self.transmit(f);
        true
    }

    /// Re-request the missing frames of one block.
    fn rerequest_block(&mut self, msg: MsgId, pull: PullId, block: u32) {
        let Some((proc, peer, _, x)) = pull_of(&mut self.xfers, msg, pull) else {
            return;
        };
        let blk = &mut x.blocks[block as usize];
        let mask = blk.missing_mask();
        if mask == 0 {
            return;
        }
        blk.requested_at = self.now;
        blk.rerequested = true;
        let xfer_len = x.xfer_len;
        let f = self.frame(
            proc,
            peer,
            WireMsg::PullReq {
                pull,
                msg,
                block,
                frame_mask: mask,
                xfer_len,
            },
        );
        self.transmit(f);
    }

    fn on_rndv(
        &mut self,
        src: EndpointAddr,
        dst: ProcId,
        msg: MsgId,
        match_info: u64,
        total_len: u64,
    ) {
        let idx = dst.0 as usize;
        // Duplicate suppression: already matched, queued, or finished.
        if self.procs[idx].endpoint.is_completed(msg)
            || self.xfers.contains_key(&(msg, End::Rx))
            || self.procs[idx].endpoint.has_unexpected(msg)
        {
            let node = self.procs[idx].node;
            self.nodes[node].counters.bump(Counter::RndvDup);
            return;
        }
        match self.procs[idx].endpoint.match_incoming(match_info) {
            Some(posted) => self.start_recv_xfer(dst, src, msg, total_len, posted),
            None => self.procs[idx].endpoint.push_unexpected(Unexpected::Rndv {
                msg,
                src,
                match_info,
                total_len,
            }),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_pull_reply(
        &mut self,
        dst: ProcId,
        msg: MsgId,
        pull: PullId,
        block: u32,
        frame: u32,
        offset: u64,
        data: PageSnapshot,
    ) {
        let Some((proc, _, _, x)) = pull_of(&mut self.xfers, msg, pull) else {
            // Stale: the transfer already finished (e.g. a duplicated or
            // badly delayed reply outliving its transaction).
            let node = self.node_of(dst);
            self.nodes[node].counters.bump(Counter::PullReplyStale);
            return;
        };
        // Bounds before bit math: hostile coordinates must degrade, not
        // panic with a shift overflow or out-of-range index.
        if block as usize >= x.blocks.len() || frame >= x.blocks[block as usize].frames {
            self.nodes[x.node].counters.bump(Counter::PullReplyBogus);
            return;
        }
        let bit = 1u64 << frame;
        if x.blocks[block as usize].received & bit != 0 {
            self.nodes[x.node].counters.bump(Counter::DupFramesRx);
            return; // duplicate frame
        }
        let (node, region, xfer_len) = (x.node, x.region, x.xfer_len);

        // The decisive check of the overlapped design: has the pin cursor
        // passed the touched pages? If not, drop the packet (§3.3) and let
        // re-request recover it once pinning catches up. A CPU copy lands
        // now and `land` makes the check; an I/OAT copy is checked here.
        let pinned = if self.cfg.use_ioat {
            let r = self.nodes[node].driver.region(region);
            r.pinned_through(offset, data.len())
        } else {
            let n = &mut self.nodes[node];
            match n.driver.region(region).land(&mut n.mem, offset, &data) {
                Ok(()) => true,
                Err(RegionAccessError::NotPinned) => false,
            }
        };
        if !pinned {
            self.nodes[node].counters.bump(Counter::OverlapMissRx);
            self.nodes[node]
                .counters
                .bump(Counter::FramesDroppedUnpinned);
            self.emit(
                node,
                Some(proc),
                TraceEvent::OverlapMissRx { pull, msg, offset },
            );
            self.emit(
                node,
                Some(proc),
                TraceEvent::PacketDrop { pull, msg, offset },
            );
            let target = self.pin_target(node, region, xfer_len);
            self.ensure_pinned(node, proc, region, target, None);
            return;
        }
        self.nodes[node].counters.bump(Counter::PullFramesOk);
        x.blocks[block as usize].received |= bit;
        if self.cfg.use_ioat {
            let token = self.next_ioat_token;
            self.next_ioat_token += 1;
            let done = self.nodes[node].ioat.submit(self.now, data.len());
            self.queue.schedule(done, Event::IoatDone { node, token });
            let copy = PendingCopy {
                msg,
                pull,
                block,
                frame,
                offset,
                data,
            };
            self.nodes[node].ioat_copies.insert(token, copy);
            x.ioat_pending += 1;
        } else {
            x.frames_placed += 1;
        }

        self.after_pull_progress(msg, pull, block);
    }

    /// Common post-processing after any pull progress: next block request,
    /// optimistic re-requests, stall-timer reset, completion check.
    fn after_pull_progress(&mut self, msg: MsgId, pull: PullId, block: u32) {
        let Some((proc, _, retry, x)) = pull_of(&mut self.xfers, msg, pull) else {
            return;
        };
        x.advance_first_hole();
        let (node, blk, done) = (x.node, x.blocks[block as usize], x.data_done());
        if blk.complete() {
            // Forward progress: the retry budget is for consecutive silent
            // timeouts, not for the whole (possibly long) transfer.
            retry.retries = 0;
            // A completed block is an RTT sample for the adaptive timer —
            // unless it was ever re-requested, in which case the completion
            // is ambiguous (Karn's rule).
            if !blk.rerequested {
                self.rtt
                    .observe(self.now.saturating_duration_since(blk.requested_at));
            }
        }
        // Optimistic re-request (§4.3): receiving a frame of block `b`
        // while an *earlier* block still has holes and has not been
        // re-requested recently means those frames were dropped. The
        // block requests below only touch blocks above `block`.
        let (cfg, rtt, now) = (&self.cfg, &self.rtt, self.now);
        let rerequests: Vec<u32> = if cfg.optimistic_rerequest {
            // The guard is computed at the first candidate: most frames
            // have none.
            let mut guard = None;
            let stale = |&i: &u32| {
                let guard = *guard.get_or_insert_with(|| Self::rerequest_guard(cfg, rtt));
                now.saturating_duration_since(x.blocks[i as usize].requested_at) > guard
            };
            x.holes_below(block).filter(stale).collect()
        } else {
            Vec::new()
        };
        // Block finished -> keep the pipeline full.
        if blk.complete() {
            self.emit(node, Some(proc), TraceEvent::BlockDone { pull, msg, block });
            self.request_next_block(msg, pull);
        }
        for b in rerequests {
            self.nodes[node].counters.bump(Counter::PullRereqOptimistic);
            self.emit(
                node,
                Some(proc),
                TraceEvent::Retransmit {
                    kind: RetransKind::OptimisticRereq,
                    id: pull.0,
                    msg,
                },
            );
            self.rerequest_block(msg, pull, b);
        }
        // Progress: push the stall timer out.
        self.arm_retry((msg, End::Rx), 0);
        if done {
            self.finish_recv(msg);
        }
    }

    fn on_ioat_done(&mut self, node: usize, token: u64) {
        let Some(copy) = self.nodes[node].ioat_copies.remove(&token) else {
            return;
        };
        let Some((.., x)) = pull_of(&mut self.xfers, copy.msg, copy.pull) else {
            return; // transfer failed/aborted while the copy was in flight
        };
        x.ioat_pending -= 1;
        let n = &mut self.nodes[node];
        let r = n.driver.region(x.region);
        match r.land(&mut n.mem, copy.offset, &copy.data) {
            Ok(()) => x.frames_placed += 1,
            Err(_) => {
                // Region was invalidated mid-copy: treat the frame as lost.
                n.counters.bump(Counter::IoatLandingMiss);
                x.unreceive(copy.block, copy.frame);
            }
        }
        self.after_pull_progress(copy.msg, copy.pull, copy.block);
    }

    /// Every frame of the pull landed: complete the receive, and turn its
    /// entry into the notify that retransmits until the sender acks.
    fn finish_recv(&mut self, msg: MsgId) {
        let x = self.xfers.get_mut(&(msg, End::Rx)).expect("pulling");
        let Phase::Pull(p) = std::mem::replace(&mut x.phase, Phase::Notify) else {
            unreachable!("pulling")
        };
        // The notify's first arm below moves the pending stall timer,
        // which is the same as cancelling it and arming afresh.
        x.retry.retries = 0;
        let (proc, req) = (x.proc, x.req);
        self.procs[proc.0 as usize].endpoint.mark_completed(msg);
        self.transmit_notify(msg);
        self.arm_retry((msg, End::Rx), 0);
        debug_assert_eq!(p.frames_placed, p.frames_total, "placed every frame");
        self.release_region(proc, p.node, p.region, p.owned);
        self.emit(
            p.node,
            Some(proc),
            TraceEvent::RecvDone {
                msg,
                len: p.xfer_len,
            },
        );
        self.notify_app(proc, AppEvent::RecvDone(req, p.xfer_len));
    }

    fn on_notify_ack(&mut self, msg: MsgId) {
        let key = (msg, End::Rx);
        if self
            .xfers
            .get(&key)
            .is_some_and(|x| matches!(x.phase, Phase::Notify))
        {
            let x = self.xfers.remove(&key).expect("looked up above");
            self.cancel_timer(x.retry.timer);
        }
    }

    /// (Re)send the completion notify of a received transfer.
    fn transmit_notify(&mut self, msg: MsgId) {
        let x = &self.xfers[&(msg, End::Rx)];
        let f = self.frame(x.proc, x.peer, WireMsg::Notify { msg });
        self.transmit(f);
    }

    // ================== frame reception ==================

    #[inline]
    fn on_frame_arrival(&mut self, frame: Frame) {
        let dst = frame.dst.proc;
        let node = self.procs[dst.0 as usize].node;
        self.nodes[node].counters.bump(Counter::FramesRx);
        // Incarnation fence: a frame from or to an endpoint that no longer
        // exists (crashed, or restarted under a newer incarnation) dies at
        // the NIC, before any bottom-half cost is charged. Stale traffic
        // must never resurrect protocol state in the new incarnation.
        if self.endpoint_gone(frame.src) || self.endpoint_gone(frame.dst) {
            self.fence_frame(node, &frame);
            return;
        }
        let duration = self.bh_duration(node, &frame.msg);
        let bh = self.nodes[node].bh_core;
        self.submit_work(
            node,
            bh,
            Priority::BottomHalf,
            duration,
            Work::BhFrame(frame),
        );
    }

    #[inline]
    fn bh_duration(&self, node: usize, msg: &WireMsg) -> SimDuration {
        let p = &self.cfg.profile;
        match msg {
            WireMsg::Eager { data, .. } => p.pkt_processing + p.memcpy_cost(data.len()),
            WireMsg::PullReply { data, .. } => {
                p.pkt_processing
                    + if self.cfg.use_ioat {
                        self.nodes[node].ioat.submit_cost()
                    } else {
                        p.memcpy_cost(data.len())
                    }
            }
            _ => p.pkt_processing,
        }
    }

    /// Drop a frame at the incarnation fence: count it, attribute it to
    /// its transfer in the trace, and charge nothing further.
    fn fence_frame(&mut self, node: usize, frame: &Frame) {
        self.nodes[node].counters.bump(Counter::FramesFenced);
        self.emit(
            node,
            Some(frame.dst.proc),
            TraceEvent::FencedDrop {
                src: frame.src.proc,
                dst: frame.dst.proc,
                msg: frame.msg.msg(),
            },
        );
    }

    fn on_bh_frame(&mut self, frame: Frame) {
        let src = frame.src;
        let dst = frame.dst.proc;
        // Re-check the fence: the endpoint may have died between the
        // frame's arrival and its bottom half running.
        if self.endpoint_gone(frame.src) || self.endpoint_gone(frame.dst) {
            let node = self.procs[dst.0 as usize].node;
            self.fence_frame(node, &frame);
            return;
        }
        match frame.msg {
            WireMsg::Eager {
                msg,
                match_info,
                frag,
                frag_count,
                total_len,
                offset,
                data,
            } => self.on_eager_frame(
                src, dst, msg, match_info, frag, frag_count, total_len, offset, data,
            ),
            WireMsg::EagerAck { msg } => {
                if let Some(Xfer {
                    retry,
                    phase: Phase::EagerTx(tx),
                    ..
                }) = self.xfers.remove(&(msg, End::Tx)).map(|x| *x)
                {
                    self.cancel_timer(retry.timer);
                    // Karn's rule: only a never-retransmitted exchange gives
                    // an unambiguous round-trip sample.
                    if retry.retries == 0 {
                        self.rtt
                            .observe(self.now.saturating_duration_since(tx.sent_at));
                    }
                } else {
                    let node = self.node_of(dst);
                    self.nodes[node].counters.bump(Counter::EagerAckDup);
                }
            }
            WireMsg::Rndv {
                msg,
                match_info,
                total_len,
            } => self.on_rndv(src, dst, msg, match_info, total_len),
            WireMsg::PullReq {
                pull,
                msg,
                block,
                frame_mask,
                xfer_len,
                ..
            } => self.on_pull_req(dst, msg, pull, block, frame_mask, xfer_len),
            WireMsg::PullReply {
                pull,
                msg,
                block,
                frame,
                offset,
                data,
            } => self.on_pull_reply(dst, msg, pull, block, frame, offset, data),
            WireMsg::Notify { msg } => self.on_notify(src, dst, msg),
            WireMsg::NotifyAck { msg } => self.on_notify_ack(msg),
        }
    }

    // ================== region acquisition & release ==================

    /// Get a region for a segment vector: through the user-space cache in
    /// cached modes, freshly declared otherwise. Bumps `use_count`.
    /// A rejected declaration (all-zero-length segments — user space can
    /// hand the driver anything) surfaces as `Err`, never a panic; the
    /// cache is left untouched on that path.
    fn acquire_region(
        &mut self,
        proc: ProcId,
        segments: Vec<Segment>,
    ) -> Result<(RegionId, bool), DeclareError> {
        let idx = proc.0 as usize;
        let node = self.procs[idx].node;
        let space = self.procs[idx].space;
        let (rid, owned) = if self.cfg.pinning.caches() {
            match self.procs[idx].cache.lookup(&segments) {
                crate::cache::CacheOutcome::Hit(rid) => {
                    self.nodes[node].counters.bump(Counter::CacheHit);
                    self.emit(node, Some(proc), TraceEvent::CacheHit { region: rid });
                    (rid, false)
                }
                crate::cache::CacheOutcome::Miss => {
                    self.nodes[node].counters.bump(Counter::CacheMiss);
                    self.emit(node, Some(proc), TraceEvent::CacheMiss);
                    let rid = self.nodes[node]
                        .driver
                        .declare_owned(space, proc, &segments)?;
                    let pages = self.nodes[node].driver.region(rid).layout.total_pages();
                    self.emit(
                        node,
                        Some(proc),
                        TraceEvent::RegionDeclare { region: rid, pages },
                    );
                    if let Some(victim) = self.procs[idx].cache.insert(segments, rid) {
                        self.evict_cached_region(proc, node, victim);
                    }
                    (rid, false)
                }
            }
        } else {
            let rid = self.nodes[node]
                .driver
                .declare_owned(space, proc, &segments)?;
            let pages = self.nodes[node].driver.region(rid).layout.total_pages();
            self.emit(
                node,
                Some(proc),
                TraceEvent::RegionDeclare { region: rid, pages },
            );
            (rid, true)
        };
        let now = self.now;
        let r = self.nodes[node].driver.region_mut(rid);
        r.use_count += 1;
        r.last_use = now;
        Ok((rid, owned))
    }

    /// LRU-evicted cache entry: undeclare now if idle, else defer.
    fn evict_cached_region(&mut self, proc: ProcId, node: usize, victim: RegionId) {
        self.nodes[node].counters.bump(Counter::CacheEvictions);
        self.emit(node, Some(proc), TraceEvent::CacheEvict { region: victim });
        if self.nodes[node].driver.region(victim).use_count == 0 {
            let pages = self.nodes[node].driver.region(victim).pinned_pages();
            let cost = self.cfg.profile.unpin_cost(pages);
            self.submit_kernel_work(
                proc,
                cost,
                Work::UnpinRegion {
                    node,
                    region: victim,
                    owner: proc,
                    undeclare: true,
                },
            );
        } else {
            self.nodes[node].deferred_undeclare.insert(victim);
        }
    }

    /// Drop one communication's use of a region; schedule unpin/undeclare
    /// when appropriate.
    fn release_region(&mut self, proc: ProcId, node: usize, region: RegionId, owned: bool) {
        let now = self.now;
        let r = self.nodes[node].driver.region_mut(region);
        assert!(r.use_count > 0, "release of unused region");
        r.use_count -= 1;
        r.last_use = now;
        let idle = r.use_count == 0;
        let pages = r.pinned_pages();
        if idle {
            // The region just became an eviction candidate (it may be
            // unpinned/undeclared below, which the LRU tolerates — heap
            // entries are validated on pop).
            self.nodes[node].driver.note_region_idle(region);
        }
        if idle && (owned || self.nodes[node].deferred_undeclare.remove(&region)) {
            self.nodes[node].pin_plans.remove(&region);
            let cost = self.cfg.profile.unpin_cost(pages);
            self.submit_kernel_work(
                proc,
                cost,
                Work::UnpinRegion {
                    node,
                    region,
                    owner: proc,
                    undeclare: true,
                },
            );
        }
    }

    fn on_unpin_region(&mut self, node: usize, region: RegionId, owner: ProcId, undeclare: bool) {
        if !self.nodes[node].driver.is_declared(region) {
            return;
        }
        // A crash reap may have freed this region id and a later declare
        // recycled it: a stale queued unpin must not touch the new owner's
        // region.
        if self.nodes[node].driver.region(region).owner != owner {
            return;
        }
        // A late communication may have re-acquired the region (cached
        // modes only re-use via the cache, which no longer knows it, so
        // this only guards pathological interleavings).
        if self.nodes[node].driver.region(region).use_count > 0 {
            return;
        }
        let n = &mut self.nodes[node];
        let pages = n.driver.unpin_region(&mut n.mem, region);
        n.counters.add(Counter::UnpinPages, pages);
        if undeclare {
            n.driver.undeclare(&mut n.mem, region);
            self.emit(node, None, TraceEvent::RegionUndeclare { region });
        }
        self.nodes[node].pin_plans.remove(&region);
    }

    // ================== on-demand pinning machinery ==================

    /// Pages needed to cover the first `len` bytes of `region`.
    pub(crate) fn pin_target(&self, node: usize, region: RegionId, len: u64) -> u64 {
        let r = self.nodes[node].driver.region(region);
        let len = len.min(r.layout.total_len());
        let (_, last) = r.layout.page_index_span(0, len);
        last + 1
    }

    /// Ensure the region's pin cursor is heading for `target_pages`.
    /// Returns true if `waiter`'s threshold is already satisfied (the
    /// caller runs the action itself); otherwise the waiter queues.
    pub(crate) fn ensure_pinned(
        &mut self,
        node: usize,
        proc: ProcId,
        region: RegionId,
        target_pages: u64,
        waiter: Option<PinWaiter>,
    ) -> bool {
        // The protocol-visible cursor: stale pages awaiting a deferred
        // unpin are excluded, so an invalidated tail reads as unpinned
        // here even while its frames are still attached.
        let r = self.nodes[node].driver.region(region);
        let (cursor, generation) = (r.valid_pages(), r.generation);
        let plan = self.nodes[node]
            .pin_plans
            .entry(region)
            .or_insert_with(|| PinPlan::new(proc));
        plan.target = plan.target.max(target_pages);
        plan.proc = proc;
        let satisfied = waiter.is_none_or(|w| cursor >= w.threshold_pages);
        if let Some(w) = waiter {
            if !satisfied {
                plan.waiters.push(w);
            }
        }
        let target = plan.target;
        let in_progress = plan.in_progress;
        if let Some(w) = waiter {
            if !satisfied {
                // The transfer's protocol action is now queued behind the
                // pin cursor: open its pin-wait interval.
                self.emit(
                    node,
                    Some(proc),
                    TraceEvent::PinWaitStart { msg: w.msg, region },
                );
            }
        }
        if cursor < target && !in_progress {
            let now = self.now;
            let plan = self.nodes[node].pin_plans.get_mut(&region).expect("plan");
            plan.in_progress = true;
            plan.started_at = Some(now);
            // Stamp the pass with the region generation it saw: a
            // notifier invalidation bumps the region's copy, and the
            // mismatch restarts the pass at its next chunk.
            plan.generation = generation;
            // Mirror into the driver's region state: the notifier and the
            // pressure evictor must see that a pin pass is in flight even
            // while the cursor still reads zero.
            self.nodes[node]
                .driver
                .region_mut(region)
                .pinning_in_progress = true;
            self.emit(
                node,
                Some(proc),
                TraceEvent::PinStart {
                    region,
                    target_pages: target,
                },
            );
            self.submit_pin_chunk(node, proc, region, cursor, target);
        } else if cursor >= target {
            // Nothing to pin; a waiterless plan can go away.
            let plans = &mut self.nodes[node].pin_plans;
            if plans[&region].waiters.is_empty() && !plans[&region].in_progress {
                plans.remove(&region);
            }
        }
        satisfied
    }

    fn submit_pin_chunk(
        &mut self,
        node: usize,
        proc: ProcId,
        region: RegionId,
        cursor: u64,
        target: u64,
    ) {
        let pages = self.cfg.pin_chunk_pages.min(target - cursor);
        // Per-tenant hard cap, enforced before the chunk is charged: a
        // tenant out of headroom pays with its own idle regions and,
        // failing that, has the pass denied — it never pushes the whole
        // node into pressure eviction of other tenants' working sets.
        // In-flight chunks of the same tenant count via their plans'
        // reservations, so two passes racing the last of the headroom
        // cannot both squeeze through.
        if let Some(q) = self.nodes[node].driver.enforced_quota() {
            let owner = self.nodes[node].driver.region(region).owner;
            let reserved = self.reserved_pages(node, owner, region);
            let over_cap =
                |d: &crate::Driver| d.pinned_pages_of(owner) + reserved + pages > q.hard_cap;
            if over_cap(&self.nodes[node].driver) {
                // Cheapest headroom first: stale frames parked for the
                // deferred drain, then the tenant's own idle regions.
                if self.nodes[node].driver.has_deferred() {
                    self.close_notifier_epoch(node);
                }
                let keep = q.hard_cap.saturating_sub(reserved + pages);
                let evicted = {
                    let n = &mut self.nodes[node];
                    n.driver.pressure_evict_tenant(&mut n.mem, owner, keep)
                };
                for (rid, p) in evicted {
                    self.emit(
                        node,
                        None,
                        TraceEvent::PressureUnpin {
                            region: rid,
                            pages: p,
                        },
                    );
                }
                if over_cap(&self.nodes[node].driver) {
                    self.deny_pin(node, owner, region, pages);
                    return;
                }
            }
        }
        // Under budget pressure, drain the deferred-unpin queue before
        // reaching for the LRU: already-invalidated pages are the
        // cheapest headroom, and evicting a live region while stale
        // frames sit parked would be strictly worse.
        let over_budget = self.cfg.pinned_pages_limit.is_some_and(|lim| {
            let n = &self.nodes[node];
            n.driver.has_deferred() && n.driver.pinned_pages_total() + pages > lim as u64
        });
        if over_budget {
            self.close_notifier_epoch(node);
        }
        // Enforce the pinned-pages ceiling before growing the pin set.
        let now = self.now;
        let evicted = {
            let n = &mut self.nodes[node];
            n.driver.pressure_evict(&mut n.mem, pages, now, Some(proc))
        };
        for (rid, p) in evicted {
            self.emit(
                node,
                None,
                TraceEvent::PressureUnpin {
                    region: rid,
                    pages: p,
                },
            );
        }
        // The chunk is on its way to a kernel core: reserve its pages
        // against the tenant's cap until `on_pin_chunk` settles them.
        if let Some(plan) = self.nodes[node].pin_plans.get_mut(&region) {
            plan.reserved = pages;
        }
        let duration = self.cfg.profile.pin_cost(pages, cursor == 0);
        self.submit_kernel_work(proc, duration, Work::PinChunk { node, region });
    }

    /// Pages reserved by in-flight pin chunks of `owner`'s *other* plans
    /// on `node` (the plan for `region` is the one being charged here).
    fn reserved_pages(&self, node: usize, owner: ProcId, region: RegionId) -> u64 {
        let n = &self.nodes[node];
        n.pin_plans
            .iter()
            .filter(|(&rid, _)| {
                rid != region && n.driver.try_region(rid).is_some_and(|r| r.owner == owner)
            })
            .map(|(_, p)| p.reserved)
            .sum()
    }

    /// Deny a pin pass that cannot proceed without busting its tenant's
    /// hard cap: release whatever the pass holds, account the denial, and
    /// fail its transfers cleanly. The application surface is the same as
    /// any pin failure — `AppEvent::Failed` — so the tenant sees a clean
    /// error instead of a hang, and no other tenant's working set is
    /// stolen to cover for it.
    fn deny_pin(&mut self, node: usize, owner: ProcId, region: RegionId, pages: u64) {
        let released = {
            let n = &mut self.nodes[node];
            n.driver.unpin_region(&mut n.mem, region)
        };
        if released > 0 {
            self.nodes[node].counters.add(Counter::UnpinPages, released);
        }
        if let Some(r) = self.nodes[node].driver.try_region_mut(region) {
            r.pinning_in_progress = false;
        }
        self.nodes[node].pin_plans.remove(&region);
        self.nodes[node].counters.bump(Counter::QuotaDenials);
        self.nodes[node].driver.note_quota_denial(owner);
        self.emit(node, Some(owner), TraceEvent::PinDenied { region, pages });
        self.fail_region_users(node, region, "pin quota exceeded");
    }

    fn on_pin_chunk(&mut self, node: usize, region: RegionId) {
        if !self.nodes[node].driver.is_declared(region) {
            self.nodes[node].pin_plans.remove(&region);
            return;
        }
        let Some(plan) = self.nodes[node].pin_plans.get_mut(&region) else {
            return; // plan cancelled (transfer completed/aborted)
        };
        // The submitted chunk has arrived: its reservation against the
        // tenant's cap settles into the attributed pin count below.
        plan.reserved = 0;
        let (target, proc, plan_gen) = (plan.target, plan.proc, plan.generation);
        let (region_gen, cursor) = {
            let r = self.nodes[node].driver.region(region);
            (r.generation, r.valid_pages())
        };
        if region_gen != plan_gen {
            // A notifier invalidation landed while this pass was in
            // flight: the chunk just charged was computed against a
            // cursor the invalidation has since rewound, and pinning
            // blindly from here would re-pin just-invalidated pages.
            // Abort the pass and restart it from the rewound cursor —
            // the simulated `mmu_notifier_retry`.
            let plan = self.nodes[node].pin_plans.get_mut(&region).expect("plan");
            plan.generation = region_gen;
            self.nodes[node].counters.bump(Counter::PinPassRestarts);
            if cursor < target {
                self.submit_pin_chunk(node, proc, region, cursor, target);
            } else {
                self.finish_pin_plan(node, region, cursor);
            }
            return;
        }
        if cursor >= target {
            self.finish_pin_plan(node, region, cursor);
            return;
        }
        let want = self.cfg.pin_chunk_pages.min(target - cursor);
        let (result, pin_calls, stale_released, attached_before) = {
            let n = &mut self.nodes[node];
            let calls_before = n.mem.pin_calls();
            let r = n.driver.region(region);
            // The pin call releases the region's stale tail on its way
            // in (cursor rewind); read it first so the unpin ledger and
            // the charged cost stay exact. The total attached count is
            // what a failed pass rolls back below.
            let stale = r.stale_pages();
            let attached = r.pinned_pages();
            let result = n.driver.pin_chunk(&mut n.mem, region, want, false);
            (result, n.mem.pin_calls() - calls_before, stale, attached)
        };
        self.nodes[node]
            .counters
            .add(Counter::PinSyscalls, pin_calls);
        if stale_released > 0 {
            self.nodes[node]
                .counters
                .add(Counter::UnpinPages, stale_released);
        }
        match result {
            Err(_) => {
                // A mid-run partial-pin failure rolled back *everything*
                // the region held: the stale tail (credited above) plus
                // the previously valid pages and whatever this chunk had
                // pinned before dying. The valid pages must hit the unpin
                // ledger too, or every failed pass permanently leaks
                // budget headroom.
                let rolled_back = attached_before - stale_released;
                if rolled_back > 0 {
                    self.nodes[node]
                        .counters
                        .add(Counter::UnpinPages, rolled_back);
                }
                self.nodes[node].pin_plans.remove(&region);
                self.nodes[node].counters.bump(Counter::PinFailures);
                self.fail_region_users(node, region, "pinning failed (invalid region)");
            }
            Ok(mut progress) => {
                self.nodes[node]
                    .counters
                    .add(Counter::PinPages, progress.pages_pinned);
                self.nodes[node].counters.bump(Counter::PinChunks);
                // The pin itself may have broken COW mappings (write
                // faults under get_user_pages): dispatch those notifier
                // events like any other invalidation, so *other* regions
                // pinned over the same pages learn their frames moved.
                // This region is safe from its own events — its PTEs now
                // point at the frames it just pinned, which the stale
                // filter recognizes.
                let cow_events = std::mem::take(&mut progress.cow_events);
                if !cow_events.is_empty() {
                    self.dispatch_notifier_events(node, &cow_events);
                }
                let cursor = self.nodes[node].driver.region(region).valid_pages();
                self.emit(
                    node,
                    Some(proc),
                    TraceEvent::PinChunk {
                        region,
                        pages: progress.pages_pinned,
                        cursor_pages: cursor,
                    },
                );
                // Fire satisfied waiters.
                let fired: Vec<PinWaiter> = {
                    let plan = self.nodes[node].pin_plans.get_mut(&region).expect("plan");
                    let mut fired = Vec::new();
                    plan.waiters.retain(|w| {
                        if cursor >= w.threshold_pages {
                            fired.push(*w);
                            false
                        } else {
                            true
                        }
                    });
                    fired
                };
                for w in fired {
                    self.emit(
                        node,
                        Some(proc),
                        TraceEvent::PinWaitEnd { msg: w.msg, region },
                    );
                    self.run_pin_waiter(w);
                }
                let target = self.nodes[node]
                    .pin_plans
                    .get(&region)
                    .map(|p| p.target)
                    .unwrap_or(0);
                if cursor < target {
                    self.submit_pin_chunk(node, proc, region, cursor, target);
                } else {
                    self.finish_pin_plan(node, region, cursor);
                }
            }
        }
    }

    fn finish_pin_plan(&mut self, node: usize, region: RegionId, cursor: u64) {
        let now = self.now;
        if let Some(r) = self.nodes[node].driver.try_region_mut(region) {
            r.pinning_in_progress = false;
        }
        // With the pin pass over, an idle pinned region is an eviction
        // candidate: file it with the pressure LRU.
        self.nodes[node].driver.note_region_idle(region);
        if let Some(plan) = self.nodes[node].pin_plans.get_mut(&region) {
            let was_running = plan.in_progress;
            plan.in_progress = false;
            if let Some(started) = plan.started_at.take() {
                self.metrics.pin_latency.record(now.duration_since(started));
                self.metrics.pin_burst_pages.push(cursor as f64);
            }
            let proc = plan.proc;
            if plan.waiters.is_empty() {
                self.nodes[node].pin_plans.remove(&region);
            }
            if was_running {
                self.emit(
                    node,
                    Some(proc),
                    TraceEvent::PinComplete {
                        region,
                        cursor_pages: cursor,
                    },
                );
            }
        }
    }

    /// Pin `region` toward `target` pages for `proc`'s transfer `msg` and
    /// then send its rendezvous (`pull` is `None`) or start its pull, once
    /// the cursor allows: when overlapping, after the first
    /// `presync_pages` (at once when that is zero — the action then races
    /// the pin); otherwise after the whole target.
    fn pin_then(
        &mut self,
        proc: ProcId,
        region: RegionId,
        target: u64,
        hint: OverlapHint,
        msg: MsgId,
        pull: Option<PullId>,
    ) {
        let node = self.procs[proc.0 as usize].node;
        let threshold_pages = if hint.resolve(self.cfg.pinning.overlaps()) {
            self.cfg.presync_pages.min(target)
        } else {
            target
        };
        let waiter = PinWaiter {
            threshold_pages,
            msg,
            pull,
        };
        if self.ensure_pinned(node, proc, region, target, Some(waiter)) {
            self.run_pin_waiter(waiter);
        }
    }

    /// Run a waiter's action. Both check that the transfer still runs the
    /// phase that queued it: `send_rndv` that the send is in flight, the
    /// pull requests that their `PullId` is still the live pull.
    fn run_pin_waiter(&mut self, w: PinWaiter) {
        match w.pull {
            None => self.send_rndv(w.msg),
            Some(pull) => self.recv_start(w.msg, pull),
        }
    }

    /// After an MMU-notifier invalidation, any transfer still using the
    /// region needs its pin plan restarted (repin on demand). Every user
    /// of a region belongs to its owner, so the target is the largest any
    /// of them needs.
    pub(crate) fn restart_pin_plan_if_needed(&mut self, node: usize, region: RegionId) {
        let mut need: Option<(ProcId, u64)> = None;
        for x in self.xfers.values() {
            if let Some((_, _, len, _)) = x
                .region_use()
                .filter(|&(n, r, _, _)| n == node && r == region)
            {
                let t = self.pin_target(node, region, len);
                let cur = need.map_or(0, |(_, t)| t);
                need = Some((x.proc, t.max(cur)));
            }
        }
        if let Some((proc, target)) = need {
            self.emit(
                node,
                Some(proc),
                TraceEvent::Repin {
                    region,
                    target_pages: target,
                },
            );
            self.ensure_pinned(node, proc, region, target, None);
        }
    }

    /// Close the node's deferred-unpin flush epoch: drain the driver's
    /// coalesced queue in one batch, counting released and cancelled
    /// entries separately. Called at epoch-timer expiry and early under
    /// pin-budget pressure.
    pub(crate) fn close_notifier_epoch(&mut self, node: usize) {
        let (released, cancelled) = {
            let n = &mut self.nodes[node];
            n.driver.drain_deferred(&mut n.mem)
        };
        if released.is_empty() && cancelled.is_empty() {
            return;
        }
        {
            let n = &mut self.nodes[node];
            for (_, pages) in &released {
                n.counters.add(Counter::NotifierUnpinnedPages, *pages);
                n.counters.add(Counter::UnpinPages, *pages);
            }
        }
        for (rid, pages) in released {
            self.emit(node, None, TraceEvent::NotifierDrain { region: rid, pages });
        }
        for rid in cancelled {
            self.emit(node, None, TraceEvent::NotifierCancel { region: rid });
        }
    }

    /// Abort every transfer that depends on a region whose pinning failed:
    /// sends in `MsgId` order, then pulls in `PullId` order.
    fn fail_region_users(&mut self, node: usize, region: RegionId, reason: &'static str) {
        let mut users: Vec<(End, u64, MsgId)> = self
            .xfers
            .iter()
            .filter(|(_, x)| {
                x.region_use()
                    .is_some_and(|(n, r, ..)| n == node && r == region)
            })
            .map(|(&(msg, end), x)| (end, x.pull_id().map_or(msg.0, |p| p.0), msg))
            .collect();
        users.sort_unstable();
        for (end, id, msg) in users {
            let pull = (end == End::Rx).then_some(PullId(id));
            self.fail_xfer((msg, end), pull, reason);
        }
    }

    /// Fail a rendezvous send (`pull` is `None`) or the pull `pull`, if
    /// that is still what `key` runs: release its region and report.
    fn fail_xfer(&mut self, key: XferKey, pull: Option<PullId>, reason: &'static str) {
        if self.xfers.get(&key).is_none_or(|x| x.pull_id() != pull) {
            return;
        }
        let x = self.xfers.remove(&key).expect("looked up above");
        let (node, region, _, owned) = x.region_use().expect("a region user");
        self.cancel_timer(x.retry.timer);
        self.release_region(x.proc, node, region, owned);
        self.nodes[node].counters.bump(Counter::RequestsFailed);
        self.notify_app(x.proc, AppEvent::Failed(x.req, reason));
    }

    // ================== timers ==================

    fn on_timer(&mut self, token: TimerToken) {
        match token {
            TimerToken::Retry(key) => self.on_retry_timer(key),
            TimerToken::NotifierEpoch(node) => {
                // Epoch over: one batched drain of everything that
                // deferred since the timer was armed. The flag clears
                // first so a deferral caused by the drain's own app
                // callbacks (none today) would open a fresh epoch.
                self.nodes[node].epoch_armed = false;
                self.close_notifier_epoch(node);
            }
        }
    }

    /// The one retry path of the four retried phases (eager, rendezvous,
    /// pull stall, notify): count the timeout, short-circuit a dead peer,
    /// give up once the budget is spent, otherwise resend and re-arm with
    /// backoff. Only the resend, the terminal action and the counter
    /// names differ per phase.
    fn on_retry_timer(&mut self, key: XferKey) {
        let Some(x) = self.xfers.get_mut(&key) else {
            return;
        };
        x.retry.retries += 1;
        let (retries, proc, peer, msg) = (x.retry.retries, x.proc, x.peer, key.0);
        let (kind, id) = x.retrans(msg);
        let node = self.procs[proc.0 as usize].node;
        if self.procs[proc.0 as usize].crashed {
            return; // zombie entry (leaky fault injection): let it rot
        }
        if self.endpoint_gone(peer) {
            // The peer died: burning the whole retry budget against a dead
            // endpoint only delays the inevitable. End the entry now.
            self.nodes[node].counters.bump(Counter::PeerDeadAborts);
            self.end_retry(key, false);
            return;
        }
        if retries > self.cfg.max_retries {
            self.emit(
                node,
                Some(proc),
                TraceEvent::RetryExhausted { kind, id, msg },
            );
            self.end_retry(key, true);
            return;
        }
        if let Phase::Rndv(Rndv {
            pull_seen: true, ..
        }) = self.xfers[&key].phase
        {
            // Completion watchdog: the transfer is in the receiver's
            // hands (it pulls at its own pace), so there is nothing
            // to resend — just keep waiting for the notify with
            // backoff. Every incoming pull request resets `retries`,
            // so only total silence exhausts it.
            self.nodes[node]
                .counters
                .bump(Counter::SendWatchdogTimeouts);
            self.arm_retry(key, retries);
            return;
        }
        let counter = match kind {
            RetransKind::Eager => Counter::EagerRetrans,
            RetransKind::Rndv => Counter::RndvRetrans,
            RetransKind::PullStall => Counter::PullStallTimeouts,
            RetransKind::Notify => Counter::NotifyRetrans,
            RetransKind::OptimisticRereq => unreachable!("not a timer"),
        };
        self.nodes[node].counters.bump(counter);
        self.emit(node, Some(proc), TraceEvent::Retransmit { kind, id, msg });
        match &self.xfers[&key].phase {
            Phase::EagerTx(_) => self.transmit_eager_frames(msg),
            // Re-arms itself before tracing the rendezvous.
            Phase::Rndv(_) => return self.send_rndv(msg),
            Phase::Pull(x) => {
                // Re-request everything outstanding.
                let pull = x.id;
                let stalled: Vec<u32> = x.holes_below(x.next_block).collect();
                for b in stalled {
                    self.rerequest_block(msg, pull, b);
                }
            }
            // Notify: the timerless phases never arm a timer.
            _ => self.transmit_notify(msg),
        }
        self.arm_retry(key, retries);
    }

    /// A retried entry's terminal transition: its peer is gone, or
    /// (`exhausted`) its retry budget ran out.
    fn end_retry(&mut self, key: XferKey, exhausted: bool) {
        let x = &self.xfers[&key];
        let (proc, req, node) = (x.proc, x.req, self.procs[x.proc.0 as usize].node);
        match &x.phase {
            Phase::EagerTx(_) => {
                self.xfers.remove(&key);
                if exhausted {
                    self.nodes[node].counters.bump(Counter::EagerAbandoned);
                }
                self.nodes[node].counters.bump(Counter::RequestsFailed);
                // The app saw SendDone at copy-out (MX semantics), but the
                // handle still carries a late, clean error instead of the
                // message silently vanishing.
                let reason = if exhausted {
                    "eager send unacked"
                } else {
                    "peer crashed"
                };
                self.notify_app(proc, AppEvent::Failed(req, reason));
            }
            Phase::Rndv(x) => {
                // Before `pull_seen` the rendezvous itself never got
                // through; after it, the pull/notify tail went silent —
                // either way the handle errors instead of hanging.
                let reason = match (exhausted, x.pull_seen) {
                    (false, _) => "peer crashed",
                    (true, false) => "rendezvous timed out",
                    (true, true) => "transfer completion timed out",
                };
                self.fail_xfer(key, None, reason);
            }
            Phase::Pull(x) => {
                let reason = if exhausted {
                    "pull transfer stalled"
                } else {
                    "peer crashed"
                };
                self.fail_xfer(key, Some(x.id), reason);
            }
            _ => {
                // Notify: the receive already completed locally. A dead sender
                // will never ack; a silent live one has its completion
                // watchdog turn the silence into a clean send-side
                // failure. Either way, drop the state.
                self.xfers.remove(&key);
                if exhausted {
                    self.nodes[node].counters.bump(Counter::NotifyAbandoned);
                }
            }
        }
    }

    /// (Re)arm an entry's retry timer, `attempt` driving the backoff.
    /// A pending timer moves; a fired one is replaced. No-op (and no
    /// timeout drawn) once the entry is gone.
    fn arm_retry(&mut self, key: XferKey, attempt: u32) {
        let Some(x) = self.xfers.get_mut(&key) else {
            return;
        };
        let node = self.procs[x.proc.0 as usize].node;
        let (kind, id) = x.retrans(key.0);
        let rto = retrans_timeout(&self.cfg, &self.rtt, &mut self.retrans_rng, attempt);
        let at = self.now + rto.unwrap_or(self.cfg.retransmit_timeout);
        let retry = &mut x.retry;
        let queue = &mut self.queue;
        let moved = retry.timer.take().and_then(|id| queue.reschedule(id, at));
        retry.timer =
            Some(moved.unwrap_or_else(|| queue.schedule(at, Event::Timer(TimerToken::Retry(key)))));
        // Backoff decisions are observable: the histogram and the trace.
        if let Some(rto) = rto {
            self.metrics.rto_applied.record(rto);
            self.emit(
                node,
                None,
                TraceEvent::Backoff {
                    kind,
                    id,
                    msg: key.0,
                    attempt,
                    rto_nanos: rto.as_nanos(),
                },
            );
        }
    }

    fn rerequest_guard(cfg: &OpenMxConfig, rtt: &RttEstimator) -> SimDuration {
        // Enough for a round trip plus one block's serialization: frames
        // still legitimately in flight are not "missing" yet.
        let static_guard =
            cfg.net.latency * 4 + cfg.net.bandwidth.time_for_bytes(cfg.pull_block * 2);
        if !cfg.adaptive_retransmit {
            return static_guard;
        }
        // Under adaptive retransmission the guard also tracks the measured
        // RTO: a congested or lossy fabric inflates queueing delay well past
        // the nominal round trip, and re-requesting frames that are merely
        // late produces duplicate traffic that makes the congestion worse.
        static_guard
            .max(rtt.rto().unwrap_or(SimDuration::ZERO))
            .max(RETRANSMIT_MIN)
    }
}
