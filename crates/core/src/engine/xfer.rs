//! In-flight transfer state machines.
//!
//! These are plain data apart from `RecvXfer`'s first-hole cursor and the
//! [`RetryKey`] lookup; all protocol transitions live in the engine's
//! handlers.
//! Tables are `BTreeMap`s so iteration order (and therefore the whole
//! simulation) is deterministic.

use std::collections::{BTreeMap, BTreeSet};

use simcore::{EventId, SimTime};
use simmem::{PageSnapshot, VirtAddr};

use crate::driver::RegionId;
use crate::endpoint::{EagerRx, EndpointAddr, RequestId};
use crate::engine::ProcId;
use crate::obs::RetransKind;
use crate::wire::{MsgId, PullId};

/// Names one retried entry: the table it lives in and its key. The four
/// retried states share one timer path (`Cluster::on_retry_timer`).
#[derive(Clone, Copy, Debug)]
pub(crate) enum RetryKey {
    /// Sender eager retransmission ([`XferTables::eager_tx`]).
    Eager(MsgId),
    /// Sender rendezvous retransmission, then completion watchdog
    /// ([`XferTables::send`]).
    Rndv(MsgId),
    /// Receiver pull stall ([`XferTables::recv`]).
    Pull(PullId),
    /// Receiver notify retransmission ([`XferTables::notify_pending`]).
    Notify(MsgId),
}

impl RetryKey {
    /// The retransmission machinery, for traces.
    pub fn kind(self) -> RetransKind {
        match self {
            RetryKey::Eager(_) => RetransKind::Eager,
            RetryKey::Rndv(_) => RetransKind::Rndv,
            RetryKey::Pull(_) => RetransKind::PullStall,
            RetryKey::Notify(_) => RetransKind::Notify,
        }
    }

    /// The raw key, for traces.
    pub fn id(self) -> u64 {
        match self {
            RetryKey::Eager(m) | RetryKey::Rndv(m) | RetryKey::Notify(m) => m.0,
            RetryKey::Pull(p) => p.0,
        }
    }
}

/// Retransmission state shared by every retried entry.
#[derive(Default)]
pub(crate) struct Retry {
    /// The pending retransmission (or watchdog) timer.
    pub timer: Option<EventId>,
    /// Consecutive timeouts without progress.
    pub retries: u32,
}

/// A retried entry as [`XferTables::retried`] finds it.
pub(crate) struct Retried<'a> {
    pub retry: &'a mut Retry,
    pub proc: ProcId,
    /// The endpoint whose answer the entry waits for.
    pub peer: EndpointAddr,
    pub msg: MsgId,
}

/// Sender-side state of an in-flight eager message (kept for
/// retransmission until the ack arrives; the app already saw SendDone).
pub(crate) struct EagerTx {
    /// The application request — needed to deliver a clean failure if
    /// retransmission is ever exhausted (the app saw SendDone already,
    /// but MX semantics allow a late error on the handle).
    pub req: RequestId,
    pub proc: ProcId,
    pub peer: EndpointAddr,
    pub match_info: u64,
    pub total_len: u64,
    /// The message bytes as they were at send time, for retransmission.
    pub data: PageSnapshot,
    pub retry: Retry,
    /// When the current (re)transmission went out — RTT sample on ack,
    /// Karn-gated by `retry.retries == 0`.
    pub sent_at: SimTime,
}

/// Receiver-side state of a *matched* eager message still reassembling.
pub(crate) struct EagerRxMatched {
    pub rx: EagerRx,
    pub req: RequestId,
    pub proc: ProcId,
    pub addr: VirtAddr,
    /// Bytes to copy to the user buffer (min of sent and posted length).
    pub copy_len: u64,
}

/// Sender-side state of a rendezvous (large-message) transfer.
pub(crate) struct SendXfer {
    pub req: RequestId,
    pub proc: ProcId,
    pub peer: EndpointAddr,
    pub match_info: u64,
    pub region: RegionId,
    pub node: usize,
    pub total_len: u64,
    /// This transfer owns the region (non-cached modes): unpin + undeclare
    /// at completion.
    pub owned: bool,
    /// A pull request arrived — the rendezvous got through.
    pub pull_seen: bool,
    /// When the first rendezvous went on the wire (metrics: the overlap
    /// window is measured from here to the first pull request, the
    /// rendezvous round trip from here to the notify).
    pub rndv_sent_at: Option<SimTime>,
    /// Rendezvous retransmission until the first pull request, completion
    /// watchdog after it.
    pub retry: Retry,
}

/// One pull block's progress on the receive side.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Block {
    /// Frames in this block.
    pub frames: u32,
    /// Bitmask of frames received (bit i = frame i).
    pub received: u64,
    /// Has the first request for this block been sent?
    pub requested: bool,
    /// When this block was last (re)requested.
    pub requested_at: SimTime,
    /// The block has been re-requested: its completion time is ambiguous
    /// (original or retransmitted reply), so no RTT sample (Karn's rule).
    pub rerequested: bool,
}

impl Block {
    /// True when every frame arrived.
    pub fn complete(&self) -> bool {
        self.received.count_ones() == self.frames
    }

    /// Bitmask of the frames still missing.
    pub fn missing_mask(&self) -> u64 {
        let full = if self.frames == 64 {
            u64::MAX
        } else {
            (1u64 << self.frames) - 1
        };
        full & !self.received
    }
}

/// Receiver-side state of a rendezvous transfer (one pull transaction).
pub(crate) struct RecvXfer {
    pub req: RequestId,
    pub proc: ProcId,
    /// The sender.
    pub peer: EndpointAddr,
    /// Sender's transfer id (names the sender-side region in pull reqs).
    pub msg: MsgId,
    pub region: RegionId,
    pub node: usize,
    pub owned: bool,
    /// Bytes actually transferred (min of sent and posted length).
    pub xfer_len: u64,
    pub blocks: Vec<Block>,
    /// Next block index to request for the first time. Blocks at or
    /// above it were never requested.
    pub next_block: u32,
    /// Lowest block index that is not complete: every block below it is.
    /// Moves forward in [`RecvXfer::advance_first_hole`] and back only in
    /// [`RecvXfer::unreceive`], so per-frame scans start here instead of
    /// at block 0.
    pub first_hole: u32,
    /// I/OAT copies still in flight.
    pub ioat_pending: u32,
    /// Frames fully placed in memory.
    pub frames_placed: u64,
    pub frames_total: u64,
    /// Pull-stall timer: re-requests every outstanding block.
    pub retry: Retry,
}

impl RecvXfer {
    /// Move `first_hole` past the blocks that are now complete. Amortized
    /// O(1) per frame: the cursor crosses each block once per rewind.
    pub fn advance_first_hole(&mut self) {
        while self
            .blocks
            .get(self.first_hole as usize)
            .is_some_and(Block::complete)
        {
            self.first_hole += 1;
        }
    }

    /// Forget that `frame` of `block` arrived (its copy never landed),
    /// rewinding the cursor if the block was below it.
    pub fn unreceive(&mut self, block: u32, frame: u32) {
        self.blocks[block as usize].received &= !(1u64 << frame);
        self.first_hole = self.first_hole.min(block);
    }

    /// Requested but incomplete blocks below `limit`, in index order: the
    /// re-request candidates. Only `first_hole..limit` is scanned.
    pub fn holes_below(&self, limit: u32) -> impl Iterator<Item = u32> + '_ {
        let end = limit.min(self.blocks.len() as u32);
        (self.first_hole..end).filter(|&i| {
            let b = &self.blocks[i as usize];
            b.requested && !b.complete()
        })
    }

    /// All frames received (masks full)? Valid once the cursor has been
    /// advanced past the latest arrival.
    pub fn all_received(&self) -> bool {
        self.first_hole as usize == self.blocks.len()
    }

    /// Transfer is done when everything is received *and* placed.
    pub fn data_done(&self) -> bool {
        self.all_received() && self.ioat_pending == 0
    }
}

/// Receiver-side notify retransmission state (survives the RecvXfer).
pub(crate) struct NotifyPending {
    pub proc: ProcId,
    pub peer: EndpointAddr,
    pub retry: Retry,
}

/// A held I/OAT copy: bytes parked until the DMA engine finishes.
pub(crate) struct PendingCopy {
    pub pull: PullId,
    pub block: u32,
    pub frame: u32,
    pub offset: u64,
    pub data: PageSnapshot,
}

/// What to do when a region's pin cursor reaches a threshold.
#[derive(Clone, Copy, Debug)]
pub(crate) enum PinAction {
    /// Send the rendezvous for this send transfer.
    SendRndv(MsgId),
    /// Send the initial window of pull requests for this receive transfer.
    RecvStart(PullId),
}

/// A waiter on pin progress.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PinWaiter {
    /// Fire when the cursor reaches this many pages.
    pub threshold_pages: u64,
    pub action: PinAction,
    /// Transfer whose protocol action is queued behind the threshold
    /// (drives the pin_wait_start / pin_wait_end trace pair).
    pub msg: MsgId,
}

/// Per-region on-demand pin plan.
pub(crate) struct PinPlan {
    /// Pin cursor goal (pages).
    pub target: u64,
    /// A PinChunk work item is queued or running.
    pub in_progress: bool,
    /// When the current pin burst started driving the cursor (metrics:
    /// pin latency is measured from here to quiescence).
    pub started_at: Option<SimTime>,
    pub waiters: Vec<PinWaiter>,
    /// Process whose core is charged for the pin work.
    pub proc: ProcId,
    /// Region generation this pass was stamped with at pin-start. A
    /// notifier invalidation bumps the region's generation; the pass
    /// detects the mismatch at its next chunk and restarts from the
    /// rewound cursor instead of re-pinning just-invalidated pages (the
    /// simulated `mmu_notifier_retry`).
    pub generation: u64,
    /// Pages of the in-flight pin chunk, reserved against the owning
    /// tenant's hard cap from submit until the chunk lands — two passes
    /// of one tenant racing the last of its headroom must not both pass
    /// the quota check.
    pub reserved: u64,
}

impl PinPlan {
    pub fn new(proc: ProcId) -> Self {
        PinPlan {
            target: 0,
            in_progress: false,
            started_at: None,
            waiters: Vec::new(),
            proc,
            generation: 0,
            reserved: 0,
        }
    }
}

/// Intra-node (shared-memory) message parked between send-copy and
/// receive-copy.
pub(crate) struct ShmParked {
    pub src: EndpointAddr,
    /// Destination endpoint, incarnation-stamped at post time: shm has no
    /// watchdog, so the fence check happens when the copy-out lands.
    pub peer: EndpointAddr,
    pub match_info: u64,
    /// The message bytes, captured from the sender at send time.
    pub data: PageSnapshot,
    /// Set when matched: (receiver request, receiver proc, dst, copy_len).
    pub dst: Option<(RequestId, ProcId, VirtAddr, u64)>,
}

/// All in-flight state, keyed deterministically.
#[derive(Default)]
pub(crate) struct XferTables {
    pub eager_tx: BTreeMap<MsgId, EagerTx>,
    pub eager_rx: BTreeMap<MsgId, EagerRxMatched>,
    pub send: BTreeMap<MsgId, SendXfer>,
    pub recv: BTreeMap<PullId, RecvXfer>,
    /// Route duplicate rndv / notify-ack to the pull transaction.
    pub recv_by_msg: BTreeMap<MsgId, PullId>,
    pub notify_pending: BTreeMap<MsgId, NotifyPending>,
    pub shm: BTreeMap<MsgId, ShmParked>,
    /// Pin plans keyed by (node, region).
    pub pin_plans: BTreeMap<(usize, u32), PinPlan>,
    /// Parked I/OAT copies keyed by token.
    pub ioat: BTreeMap<u64, PendingCopy>,
    /// Cache-evicted regions that were still in use at eviction time:
    /// undeclare them when their last use drains.
    pub deferred_undeclare: BTreeSet<(usize, u32)>,
}

impl XferTables {
    /// The entry a retry timer names, if it is still in flight.
    pub fn retried(&mut self, key: RetryKey) -> Option<Retried<'_>> {
        match key {
            RetryKey::Eager(msg) => self.eager_tx.get_mut(&msg).map(|t| Retried {
                retry: &mut t.retry,
                proc: t.proc,
                peer: t.peer,
                msg,
            }),
            RetryKey::Rndv(msg) => self.send.get_mut(&msg).map(|x| Retried {
                retry: &mut x.retry,
                proc: x.proc,
                peer: x.peer,
                msg,
            }),
            RetryKey::Pull(pull) => self.recv.get_mut(&pull).map(|x| Retried {
                retry: &mut x.retry,
                proc: x.proc,
                peer: x.peer,
                msg: x.msg,
            }),
            RetryKey::Notify(msg) => self.notify_pending.get_mut(&msg).map(|p| Retried {
                retry: &mut p.retry,
                proc: p.proc,
                peer: p.peer,
                msg,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_mask_arithmetic() {
        let mut b = Block {
            frames: 8,
            received: 0,
            requested: false,
            requested_at: SimTime::ZERO,
            rerequested: false,
        };
        assert!(!b.complete());
        assert_eq!(b.missing_mask(), 0xff);
        b.received |= 1 << 3;
        assert_eq!(b.missing_mask(), 0xf7);
        b.received = 0xff;
        assert!(b.complete());
        assert_eq!(b.missing_mask(), 0);
    }

    #[test]
    fn block_with_64_frames() {
        let b = Block {
            frames: 64,
            received: u64::MAX - 1,
            requested: true,
            requested_at: SimTime::ZERO,
            rerequested: false,
        };
        assert!(!b.complete());
        assert_eq!(b.missing_mask(), 1);
    }

    fn recv_xfer(frames_per_block: &[u32]) -> RecvXfer {
        let blocks = frames_per_block
            .iter()
            .map(|&frames| Block {
                frames,
                received: 0,
                requested: false,
                requested_at: SimTime::ZERO,
                rerequested: false,
            })
            .collect();
        RecvXfer {
            req: RequestId(0),
            proc: ProcId(0),
            peer: EndpointAddr {
                proc: ProcId(0),
                incarnation: 0,
            },
            msg: MsgId(0),
            region: RegionId(0),
            node: 0,
            owned: false,
            xfer_len: 0,
            blocks,
            next_block: 0,
            first_hole: 0,
            ioat_pending: 0,
            frames_placed: 0,
            frames_total: 0,
            retry: Retry::default(),
        }
    }

    fn fill(x: &mut RecvXfer, block: usize) {
        x.blocks[block].received |= x.blocks[block].missing_mask();
    }

    #[test]
    fn cursor_advances_over_completed_prefix_and_stops_at_first_hole() {
        let mut x = recv_xfer(&[2, 2, 2, 2]);
        fill(&mut x, 0);
        fill(&mut x, 2);
        x.advance_first_hole();
        assert_eq!(x.first_hole, 1);
        assert!(!x.all_received());
        x.blocks[1].received = 0b01;
        x.advance_first_hole();
        assert_eq!(x.first_hole, 1, "a partial block is still a hole");
        fill(&mut x, 1);
        x.advance_first_hole();
        assert_eq!(x.first_hole, 3, "skips the block completed earlier");
        fill(&mut x, 3);
        x.advance_first_hole();
        assert_eq!(x.first_hole, 4);
        assert!(x.all_received());
    }

    #[test]
    fn cursor_rewinds_when_a_received_bit_is_cleared() {
        let mut x = recv_xfer(&[2, 2, 2]);
        for b in 0..3 {
            fill(&mut x, b);
        }
        x.advance_first_hole();
        assert!(x.all_received());
        x.unreceive(1, 1);
        assert_eq!(x.first_hole, 1);
        assert_eq!(x.blocks[1].received, 0b01);
        assert!(!x.all_received());
        // Clearing above the cursor leaves it where it is.
        x.unreceive(2, 0);
        assert_eq!(x.first_hole, 1);
        x.blocks[1].received = 0b11;
        x.advance_first_hole();
        assert_eq!(x.first_hole, 2);
    }

    #[test]
    fn zero_block_transfer_is_all_received() {
        let mut x = recv_xfer(&[]);
        assert!(x.all_received());
        x.advance_first_hole();
        assert!(x.all_received());
        assert_eq!(x.holes_below(5).count(), 0);
    }

    /// The cursor-range candidates equal what a scan of every block
    /// yields, over random request/receive/unreceive histories.
    #[test]
    fn cursor_range_candidates_match_full_scan() {
        for seed in 0..50 {
            let mut rng = simcore::SimRng::new(seed);
            let frames: Vec<u32> = (0..1 + rng.below(12))
                .map(|_| 1 + rng.below(64) as u32)
                .collect();
            let mut x = recv_xfer(&frames);
            for _ in 0..400 {
                let n = x.blocks.len() as u64;
                match rng.below(8) {
                    0 if (x.next_block as u64) < n => {
                        x.blocks[x.next_block as usize].requested = true;
                        x.next_block += 1;
                    }
                    1 => {
                        let b = rng.below(n) as u32;
                        let f = rng.below(x.blocks[b as usize].frames as u64) as u32;
                        x.unreceive(b, f);
                    }
                    _ if x.next_block > 0 => {
                        let b = rng.below(x.next_block as u64) as usize;
                        let f = rng.below(x.blocks[b].frames as u64);
                        x.blocks[b].received |= 1 << f;
                    }
                    _ => {}
                }
                x.advance_first_hole();
                assert_eq!(x.all_received(), x.blocks.iter().all(Block::complete));
                for limit in [0, x.next_block, rng.below(n + 1) as u32] {
                    let full: Vec<u32> = (0..x.blocks.len() as u32)
                        .filter(|&i| {
                            let b = &x.blocks[i as usize];
                            i < limit && b.requested && !b.complete()
                        })
                        .collect();
                    let fast: Vec<u32> = x.holes_below(limit).collect();
                    assert_eq!(fast, full, "seed {seed} limit {limit}");
                }
                // The stall scan's range: nothing at or above next_block
                // was ever requested.
                let all: Vec<u32> = (0..x.blocks.len() as u32)
                    .filter(|&i| {
                        let b = &x.blocks[i as usize];
                        b.requested && !b.complete()
                    })
                    .collect();
                assert_eq!(x.holes_below(x.next_block).collect::<Vec<_>>(), all);
            }
        }
    }
}
