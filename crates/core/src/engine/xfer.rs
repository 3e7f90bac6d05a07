//! In-flight transfer state: one [`Xfer`] per `(MsgId, End)`.
//!
//! A transfer has a sending and a receiving end, and each end's whole
//! life is one table entry. The fields every end has (owner, peer,
//! request, retry timer) sit on [`Xfer`]; its [`Phase`] holds the rest.
//! The sending end is an eager copy, a rendezvous or a parked
//! shared-memory message; the receiving end reassembles an eager
//! message, pulls a rendezvous, then waits for its notify's ack — the
//! last step is an in-place phase change. A receive that fails and is
//! retried by a retransmitted rendezvous runs a second pull under the
//! same key; each pull keeps its own [`PullId`], and everything that
//! names a pull checks it.
//!
//! These are plain data apart from [`Pull`]'s first-hole cursor; all
//! protocol transitions live in the engine's handlers. The table is an
//! [`XferTable`]: a window over the dense message ids, so every frame
//! finds its end by one index, and iteration runs in `(MsgId, End)`
//! order, which keeps the whole simulation deterministic.
//!
//! A rendezvous or pull names its region by id and keeps nothing else
//! about it: the region's [`PinPass`] and whether its last release
//! undeclares it live on the driver's region itself.

use std::collections::VecDeque;
use std::ops::Index;

use simcore::{EventId, SimTime};
use simmem::{PageSnapshot, VirtAddr};

use crate::driver::RegionId;
use crate::endpoint::{EagerRx, EndpointAddr, RequestId};
use crate::engine::ProcId;
use crate::obs::RetransKind;
use crate::wire::{MsgId, PullId};

/// Which end of a transfer an entry is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(crate) enum End {
    Tx,
    Rx,
}

/// Names one in-flight transfer end.
pub(crate) type XferKey = (MsgId, End);

/// Retransmission state of an entry.
#[derive(Default)]
pub(crate) struct Retry {
    /// The pending retransmission (or watchdog) timer.
    pub timer: Option<EventId>,
    /// Consecutive timeouts without progress.
    pub retries: u32,
}

/// One end of an in-flight transfer.
pub(crate) struct Xfer {
    /// The process this end belongs to.
    pub proc: ProcId,
    /// The endpoint at the other end: the one whose answer a retried
    /// phase waits for.
    pub peer: EndpointAddr,
    /// The request this end completes. A shared-memory message carries
    /// the sender's until it is matched, then the receiver's.
    pub req: RequestId,
    /// Retransmission state; unused by the timerless phases (`Shm`,
    /// `EagerRx`).
    pub retry: Retry,
    pub phase: Phase,
}

/// Where an end is in its life, with the state that phase needs.
pub(crate) enum Phase {
    /// Sender: eager bytes kept for retransmission until the ack (the
    /// app already saw SendDone; MX lets a late error reach the handle).
    EagerTx(EagerTx),
    /// Sender: rendezvous retransmission until the first pull request,
    /// completion watchdog until the notify.
    Rndv(Rndv),
    /// Intra-node message parked between send-copy and receive-copy;
    /// `proc` is the sender, `peer` the receiver.
    Shm(Shm),
    /// Receiver: a matched eager message still reassembling.
    EagerRx(EagerRxMatched),
    /// Receiver: one pull transaction; its stall timer runs from its
    /// first pull requests, not during its pin wait.
    Pull(Pull),
    /// Receiver: the data landed and the notify is retransmitted until
    /// its ack.
    Notify,
}

impl Xfer {
    /// The shared fields and the phase, borrowed at once.
    pub fn parts(&mut self) -> (ProcId, EndpointAddr, &mut Retry, &mut Phase) {
        (self.proc, self.peer, &mut self.retry, &mut self.phase)
    }

    /// The pull this entry runs, if it is in its pull phase.
    pub fn pull_id(&self) -> Option<PullId> {
        match &self.phase {
            Phase::Pull(p) => Some(p.id),
            _ => None,
        }
    }

    /// The region this end pins, as `(node, region, transfer length)`:
    /// rendezvous sends and pulls only.
    pub fn region_use(&self) -> Option<(usize, RegionId, u64)> {
        match &self.phase {
            Phase::Rndv(x) => Some((x.node, x.region, x.total_len)),
            Phase::Pull(x) => Some((x.node, x.region, x.xfer_len)),
            _ => None,
        }
    }

    /// The retransmission machinery of this entry's timer and its trace
    /// id: the `PullId` for a pull, the `MsgId` otherwise.
    pub fn retrans(&self, msg: MsgId) -> (RetransKind, u64) {
        match &self.phase {
            Phase::EagerTx(_) => (RetransKind::Eager, msg.0),
            Phase::Rndv(_) => (RetransKind::Rndv, msg.0),
            Phase::Pull(p) => (RetransKind::PullStall, p.id.0),
            Phase::Notify => (RetransKind::Notify, msg.0),
            Phase::Shm(_) | Phase::EagerRx(_) => unreachable!("timerless phase retried"),
        }
    }
}

/// The receive side of `msg` while it still runs the pull `pull`, as
/// `(proc, peer, retry, pull state)`. A failed receive's successor has
/// the same key and another `PullId`: the dead pull's replies, I/OAT
/// copies and pin waiter must not touch it.
pub(crate) fn pull_of(
    xfers: &mut XferTable,
    msg: MsgId,
    pull: PullId,
) -> Option<(ProcId, EndpointAddr, &mut Retry, &mut Pull)> {
    match xfers.get_mut((msg, End::Rx))?.parts() {
        (proc, peer, retry, Phase::Pull(p)) if p.id == pull => Some((proc, peer, retry, p)),
        _ => None,
    }
}

/// Every in-flight transfer end, indexed by [`XferKey`].
///
/// The table is a window over message ids: slot `i` of `slots` holds
/// both ends of message `base + i`, indexed by [`End`], and the window
/// spans the oldest live end to the newest. A lookup is one
/// subtraction, one bounds check and one index; it never allocates, and
/// an id below `base` or past the top finds nothing. An insert extends
/// the window at either end, and a removal trims empty slots off both.
/// Iteration runs in ascending `(MsgId, End)` order.
///
/// This relies on message ids being dense: `Cluster::alloc_msg` hands
/// them out 1, 2, 3, … cluster-wide, and only ids it made are ever
/// inserted. (Receivers insert ids read off the wire; the fabric drops,
/// duplicates and reorders frames but never corrupts them.) The window
/// is therefore as wide as the ids allocated over the oldest live end's
/// life, at 16 bytes per id: a few hundred ids while a lost eager ack
/// keeps its sender alive for a retransmit timeout. Values are boxed so
/// that an id costs two pointers, live or not. `Endpoint`'s completed
/// bitmap relies on the same density; if ids ever become per-peer, both
/// must change.
#[derive(Default)]
pub(crate) struct XferTable {
    /// The message id of `slots[0]`.
    base: u64,
    slots: VecDeque<[Option<Box<Xfer>>; 2]>,
    /// Live ends.
    len: usize,
}

impl XferTable {
    /// The slot of `msg`, if it is inside the window.
    fn slot(&self, msg: MsgId) -> Option<&[Option<Box<Xfer>>; 2]> {
        let i = usize::try_from(msg.0.checked_sub(self.base)?).ok()?;
        self.slots.get(i)
    }

    fn slot_mut(&mut self, msg: MsgId) -> Option<&mut [Option<Box<Xfer>>; 2]> {
        let i = usize::try_from(msg.0.checked_sub(self.base)?).ok()?;
        self.slots.get_mut(i)
    }

    /// Number of live ends.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn get(&self, (msg, end): XferKey) -> Option<&Xfer> {
        self.slot(msg)?[end as usize].as_deref()
    }

    pub fn get_mut(&mut self, (msg, end): XferKey) -> Option<&mut Xfer> {
        self.slot_mut(msg)?[end as usize].as_deref_mut()
    }

    pub fn contains_key(&self, key: XferKey) -> bool {
        self.get(key).is_some()
    }

    /// Put `x` at `key`, dropping any end already there.
    pub fn insert(&mut self, (msg, end): XferKey, x: Box<Xfer>) {
        if self.slots.is_empty() {
            self.base = msg.0;
        } else if msg.0 < self.base {
            for _ in msg.0..self.base {
                self.slots.push_front([None, None]);
            }
            self.base = msg.0;
        }
        let i = usize::try_from(msg.0 - self.base).expect("window fits in memory");
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || [None, None]);
        }
        if self.slots[i][end as usize].replace(x).is_none() {
            self.len += 1;
        }
    }

    pub fn remove(&mut self, (msg, end): XferKey) -> Option<Box<Xfer>> {
        let x = self.slot_mut(msg)?[end as usize].take()?;
        self.len -= 1;
        self.trim();
        Some(x)
    }

    /// Drop the empty slots at both ends of the window.
    fn trim(&mut self) {
        while self
            .slots
            .front()
            .is_some_and(|s| s[0].is_none() && s[1].is_none())
        {
            self.slots.pop_front();
            self.base += 1;
        }
        while self
            .slots
            .back()
            .is_some_and(|s| s[0].is_none() && s[1].is_none())
        {
            self.slots.pop_back();
        }
    }

    /// Every live end in `(MsgId, End)` order.
    pub fn iter(&self) -> impl Iterator<Item = (XferKey, &Xfer)> {
        let base = self.base;
        self.slots.iter().zip(base..).flat_map(|(slot, id)| {
            [End::Tx, End::Rx]
                .into_iter()
                .filter_map(move |end| Some(((MsgId(id), end), slot[end as usize].as_deref()?)))
        })
    }

    pub fn values(&self) -> impl Iterator<Item = &Xfer> {
        self.iter().map(|(_, x)| x)
    }

    /// Remove every end `doomed` picks, returning them in `(MsgId, End)`
    /// order.
    pub fn extract_if(&mut self, mut doomed: impl FnMut(&Xfer) -> bool) -> Vec<Xfer> {
        let mut out = Vec::new();
        for slot in &mut self.slots {
            let taken = slot.iter_mut().filter_map(|x| x.take_if(|x| doomed(x)));
            out.extend(taken.map(|x| *x));
        }
        self.len -= out.len();
        self.trim();
        out
    }
}

impl Index<XferKey> for XferTable {
    type Output = Xfer;

    fn index(&self, key: XferKey) -> &Xfer {
        self.get(key).expect("no transfer end at this key")
    }
}

/// Sender-side eager state.
pub(crate) struct EagerTx {
    pub match_info: u64,
    pub total_len: u64,
    /// The message bytes as they were at send time, for retransmission.
    pub data: PageSnapshot,
    /// When the current (re)transmission went out — RTT sample on ack,
    /// Karn-gated by `retry.retries == 0`.
    pub sent_at: SimTime,
}

/// Receiver-side state of a matched eager message.
pub(crate) struct EagerRxMatched {
    pub rx: EagerRx,
    pub addr: VirtAddr,
    /// Bytes to copy to the user buffer (min of sent and posted length).
    pub copy_len: u64,
}

/// Sender-side state of a rendezvous (large-message) transfer.
pub(crate) struct Rndv {
    pub match_info: u64,
    pub region: RegionId,
    pub node: usize,
    pub total_len: u64,
    /// A pull request arrived — the rendezvous got through.
    pub pull_seen: bool,
    /// When the first rendezvous went on the wire (metrics: the overlap
    /// window is measured from here to the first pull request, the
    /// rendezvous round trip from here to the notify).
    pub rndv_sent_at: Option<SimTime>,
}

/// Intra-node message state.
pub(crate) struct Shm {
    pub match_info: u64,
    /// The message bytes, captured from the sender at send time.
    pub data: PageSnapshot,
    /// Set when matched: the receive buffer and the bytes to copy.
    pub dst: Option<(VirtAddr, u64)>,
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

/// Receiver-side state of one pull transaction.
pub(crate) struct Pull {
    /// Tells this pull's replies, I/OAT copies and pin waiter apart from
    /// those of an earlier, failed pull of the same transfer.
    pub id: PullId,
    pub region: RegionId,
    pub node: usize,
    /// Bytes actually transferred (min of sent and posted length).
    pub xfer_len: u64,
    pub blocks: Vec<Block>,
    /// Next block index to request for the first time. Blocks at or
    /// above it were never requested.
    pub next_block: u32,
    /// Lowest block index that is not complete: every block below it is.
    /// Moves forward in [`Pull::advance_first_hole`] and back only in
    /// [`Pull::unreceive`], so per-frame scans start here instead of
    /// at block 0.
    pub first_hole: u32,
    /// I/OAT copies still in flight.
    pub ioat_pending: u32,
    /// Frames fully placed in memory.
    pub frames_placed: u64,
    pub frames_total: u64,
}

impl Pull {
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

/// A held I/OAT copy: bytes parked until the DMA engine finishes.
pub(crate) struct PendingCopy {
    pub msg: MsgId,
    pub pull: PullId,
    pub block: u32,
    pub frame: u32,
    pub offset: u64,
    pub data: PageSnapshot,
}

/// A transfer's protocol action queued behind a pin threshold: the
/// rendezvous of a send, or the first pull requests of a receive.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PinWaiter {
    /// Fire when the cursor reaches this many pages.
    pub threshold_pages: u64,
    pub msg: MsgId,
    /// The pull to start, or `None` for the send's rendezvous. A waiter
    /// whose pull failed stays queued; it must not start a later pull of
    /// the same transfer.
    pub pull: Option<PullId>,
}

/// A region's running pin pass, kept on its
/// [`DriverRegion`](crate::region::DriverRegion) from the first chunk's
/// submit until the cursor reaches `target` (or the pass fails or is
/// dropped with the region's last use). Its work runs on the region
/// owner's core.
#[derive(Debug)]
pub(crate) struct PinPass {
    /// Pin cursor goal (pages).
    pub target: u64,
    /// When the pass started driving the cursor (metrics: pin latency is
    /// measured from here to the pass's end).
    pub started_at: SimTime,
    pub waiters: Vec<PinWaiter>,
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

impl PinPass {
    pub fn new(target: u64, generation: u64, started_at: SimTime) -> Self {
        PinPass {
            target,
            started_at,
            waiters: Vec::new(),
            generation,
            reserved: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An end whose request id carries `tag`, so the model can tell
    /// values apart.
    fn tagged(tag: u64) -> Box<Xfer> {
        Box::new(Xfer {
            proc: ProcId(0),
            peer: EndpointAddr {
                proc: ProcId(1),
                incarnation: 0,
            },
            req: RequestId(tag),
            retry: Retry::default(),
            phase: Phase::Notify,
        })
    }

    /// The window answers every operation as a `BTreeMap` with the same
    /// keys would, over random runs: both ends of one id, inserts below
    /// `base`, removals of the first and last entries (the window trims
    /// to them), a 10^6 id gap, lookups far outside the window, and the
    /// crash reap's extract. Iteration order equals the model's.
    #[test]
    fn xfer_table_matches_a_btreemap_model() {
        use std::collections::BTreeMap;

        const GAP: u64 = 1_000_000;
        for seed in 0..20 {
            let mut rng = simcore::SimRng::new(seed);
            let mut t = XferTable::default();
            let mut model = BTreeMap::<(MsgId, End), u64>::new();
            let mut tag = 0;
            for step in 0..2_000 {
                let first = model.keys().next().map(|k| k.0 .0);
                let last = model.keys().next_back().map(|k| k.0 .0);
                let id = match rng.below(10) {
                    // Below the window.
                    0 | 1 => first.map_or(1, |f| f.saturating_sub(1 + rng.below(3))),
                    2 | 3 => first.unwrap_or(1),
                    4 => last.unwrap_or(1),
                    _ => 1 + rng.below(40),
                };
                let end = if rng.chance(0.5) { End::Tx } else { End::Rx };
                let key = (MsgId(id), end);
                let ctx = format!("seed {seed} step {step} key {key:?}");
                // One end across a 10^6 id gap for twenty steps, which
                // random ops around the top may also remove.
                let far = (MsgId(GAP + 40), End::Rx);
                let op = match step {
                    1_000 => 7,
                    1_020 => 8,
                    _ => rng.below(7),
                };
                match op {
                    7 => {
                        tag += 1;
                        t.insert(far, tagged(tag));
                        model.insert(far, tag);
                    }
                    8 => {
                        let gone = t.remove(far).map(|x| x.req.0);
                        assert_eq!(gone, model.remove(&far), "{ctx}");
                    }
                    0 | 1 => {
                        tag += 1;
                        t.insert(key, tagged(tag));
                        model.insert(key, tag);
                    }
                    2 | 3 => {
                        let gone = t.remove(key).map(|x| x.req.0);
                        assert_eq!(gone, model.remove(&key), "{ctx}");
                    }
                    4 => {
                        tag += 1;
                        match (t.get_mut(key), model.get_mut(&key)) {
                            (Some(x), Some(v)) => (x.req.0, *v) = (tag, tag),
                            (None, None) => {}
                            (x, v) => panic!("{ctx}: {:?} vs {v:?}", x.map(|x| x.req)),
                        }
                    }
                    5 => assert_eq!(t.contains_key(key), model.contains_key(&key), "{ctx}"),
                    _ if rng.chance(0.1) => {
                        let m = rng.below(3);
                        // Tags are unique, so equal tag sequences are
                        // equal entries in equal order.
                        let got: Vec<_> = t
                            .extract_if(|x| x.req.0 % 3 == m)
                            .into_iter()
                            .map(|x| x.req.0)
                            .collect();
                        let want: Vec<_> = model
                            .extract_if(.., |_, v| *v % 3 == m)
                            .map(|(_, v)| v)
                            .collect();
                        assert_eq!(got, want, "{ctx}");
                    }
                    _ => {}
                }
                assert_eq!(t.len(), model.len(), "{ctx}");
                // The window spans exactly the first to the last live id.
                let span = match (model.keys().next(), model.keys().next_back()) {
                    (Some(f), Some(l)) => {
                        assert_eq!(t.base, f.0 .0, "{ctx}");
                        l.0 .0 - f.0 .0 + 1
                    }
                    _ => 0,
                };
                assert_eq!(t.slots.len() as u64, span, "{ctx}");
                if span < 1_000 || (seed, step) == (0, 1_010) {
                    let got: Vec<_> = t.iter().map(|(k, x)| (k, x.req.0)).collect();
                    let want: Vec<_> = model.iter().map(|(&k, &v)| (k, v)).collect();
                    assert_eq!(got, want, "{ctx}");
                }
                let top = t.base + t.slots.len() as u64;
                for id in [0, t.base.wrapping_sub(1), top, top + GAP, u64::MAX] {
                    for end in [End::Tx, End::Rx] {
                        let key = (MsgId(id), end);
                        let want = model.get(&key).copied();
                        assert_eq!(t.get(key).map(|x| x.req.0), want, "{ctx} probe {id}");
                    }
                }
            }
        }
    }

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

    fn recv_xfer(frames_per_block: &[u32]) -> Pull {
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
        Pull {
            id: PullId(0),
            region: RegionId(0),
            node: 0,
            xfer_len: 0,
            blocks,
            next_block: 0,
            first_hole: 0,
            ioat_pending: 0,
            frames_placed: 0,
            frames_total: 0,
        }
    }

    fn fill(x: &mut Pull, block: usize) {
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
