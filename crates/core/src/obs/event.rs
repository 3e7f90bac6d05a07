//! Typed trace events covering the pinning lifecycle and the rendezvous
//! protocol.
//!
//! Events carry only `Copy` scalar fields so constructing one is cheap
//! enough to do unconditionally; the human-readable [`TraceRecord::detail`]
//! string is only built when a consumer asks for it.

use simcore::SimTime;

use crate::driver::RegionId;
use crate::engine::ProcId;
use crate::wire::{MsgId, PullId};

/// Which retransmission machinery fired.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RetransKind {
    /// Sender re-sent the rendezvous (no pull request arrived in time).
    Rndv,
    /// Sender re-sent an eager message (no ack in time).
    Eager,
    /// Receiver re-requested stalled pull blocks (timeout).
    PullStall,
    /// Receiver re-sent the completion notify (no ack in time).
    Notify,
    /// Receiver optimistically re-requested an earlier block after
    /// out-of-order progress revealed a hole (§4.3).
    OptimisticRereq,
}

impl RetransKind {
    /// Stable lowercase label.
    pub fn label(&self) -> &'static str {
        match self {
            RetransKind::Rndv => "rndv",
            RetransKind::Eager => "eager",
            RetransKind::PullStall => "pull_stall",
            RetransKind::Notify => "notify",
            RetransKind::OptimisticRereq => "optimistic_rereq",
        }
    }
}

/// Which fabric misbehavior the fault-injection layer produced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Gilbert–Elliott bad-state (bursty) loss.
    BurstLoss,
    /// A frame was delivered twice.
    Duplicate,
    /// A frame was delayed past its in-order slot.
    Reorder,
    /// Scripted link death swallowed a frame.
    LinkDown,
}

impl FaultKind {
    /// Stable lowercase label.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::BurstLoss => "burst_loss",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Reorder => "reorder",
            FaultKind::LinkDown => "link_down",
        }
    }
}

/// One step of the pinning lifecycle or rendezvous protocol.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum TraceEvent {
    /// A region was declared to the driver (never pins).
    RegionDeclare {
        /// The new descriptor.
        region: RegionId,
        /// Pages the region spans.
        pages: u64,
    },
    /// A region was undeclared (descriptor released).
    RegionUndeclare {
        /// The released descriptor.
        region: RegionId,
    },
    /// A pin pass started driving the region's pin cursor toward a target.
    PinStart {
        /// Region being pinned.
        region: RegionId,
        /// Pages the cursor is heading for.
        target_pages: u64,
    },
    /// One pin chunk completed; the cursor advanced.
    PinChunk {
        /// Region being pinned.
        region: RegionId,
        /// Pages pinned by this chunk.
        pages: u64,
        /// Cursor position after the chunk.
        cursor_pages: u64,
    },
    /// The pin cursor reached its target; the plan is quiescent.
    PinComplete {
        /// Region that finished pinning.
        region: RegionId,
        /// Final cursor position.
        cursor_pages: u64,
    },
    /// Sender-side overlap miss: a pull request touched pages the pin
    /// cursor has not reached; those frames were withheld.
    OverlapMissTx {
        /// The send transfer.
        msg: MsgId,
        /// The pull block that could not be fully served.
        block: u32,
    },
    /// Receiver-side overlap miss: a pull reply landed on unpinned pages.
    OverlapMissRx {
        /// The pull transaction.
        pull: PullId,
        /// The transfer.
        msg: MsgId,
        /// Byte offset of the offending frame.
        offset: u64,
    },
    /// A data packet was dropped because its landing pages were unpinned
    /// (the §3.3 drop; re-request recovers it).
    PacketDrop {
        /// The pull transaction.
        pull: PullId,
        /// The transfer.
        msg: MsgId,
        /// Byte offset of the dropped frame.
        offset: u64,
    },
    /// A retransmission / re-request fired.
    Retransmit {
        /// Which machinery.
        kind: RetransKind,
        /// The retried entry's key (`MsgId` raw value, or `PullId` for
        /// pull stalls and re-requests).
        id: u64,
        /// The transfer.
        msg: MsgId,
    },
    /// An adaptive retransmission timeout was computed for a timer arm.
    Backoff {
        /// Which machinery the timer belongs to.
        kind: RetransKind,
        /// The retried entry's key (`MsgId` raw value, or `PullId` for
        /// pull stalls).
        id: u64,
        /// The transfer.
        msg: MsgId,
        /// Attempt number driving the exponential term (0 = first arm).
        attempt: u32,
        /// The timeout applied, nanoseconds.
        rto_nanos: u64,
    },
    /// The fault-injection fabric misbehaved on purpose.
    FaultInjected {
        /// What it did.
        kind: FaultKind,
    },
    /// A transfer exhausted its retry budget and failed cleanly.
    RetryExhausted {
        /// Which machinery gave up.
        kind: RetransKind,
        /// The retried entry's key (`MsgId` raw value, or `PullId` for
        /// pull stalls).
        id: u64,
        /// The transfer.
        msg: MsgId,
    },
    /// The MMU notifier invalidated (unpinned) a region.
    NotifierInvalidate {
        /// Region that lost its pins.
        region: RegionId,
        /// Pages released.
        pages: u64,
    },
    /// An invalidation hit was parked in the deferred-unpin queue instead
    /// of being serviced inside the notifier event (pins stay attached,
    /// the stale pages become protocol-invisible until the drain).
    NotifierDefer {
        /// Region whose tail went stale.
        region: RegionId,
        /// Pages newly marked stale by this event.
        pages: u64,
    },
    /// A deferred unpin dissolved at drain time: the region was re-pinned
    /// over the invalidated range before the epoch closed.
    NotifierCancel {
        /// Region whose pending unpin was cancelled.
        region: RegionId,
    },
    /// The deferred-unpin queue released a region's stale pages in the
    /// epoch-close (or pressure) batch.
    NotifierDrain {
        /// Region drained.
        region: RegionId,
        /// Pages released.
        pages: u64,
    },
    /// Pages unpinned to stay under the pinned-page ceiling.
    PressureUnpin {
        /// The evicted region.
        region: RegionId,
        /// Pages released.
        pages: u64,
    },
    /// A pin pass denied because the tenant's hard cap left no headroom
    /// even after self-eviction; its transfers fail cleanly.
    PinDenied {
        /// Region whose pin pass was denied.
        region: RegionId,
        /// Pages the denied chunk asked for.
        pages: u64,
    },
    /// An in-use region restarted pinning after an invalidation.
    Repin {
        /// Region being repinned.
        region: RegionId,
        /// Pages the restarted plan is heading for.
        target_pages: u64,
    },
    /// Region-cache hit: declaration syscall skipped.
    CacheHit {
        /// The cached descriptor.
        region: RegionId,
    },
    /// Region-cache miss: a fresh declaration was needed.
    CacheMiss,
    /// Region-cache eviction (LRU).
    CacheEvict {
        /// The evicted descriptor.
        region: RegionId,
    },
    /// Rendezvous sent (sender side).
    RndvTx {
        /// The send transfer.
        msg: MsgId,
        /// Message length in bytes.
        len: u64,
    },
    /// Rendezvous matched a posted receive (receiver side).
    RndvRx {
        /// The transfer.
        msg: MsgId,
        /// Bytes that will cross the fabric.
        len: u64,
    },
    /// A pull block was requested for the first time.
    PullReq {
        /// The transfer.
        msg: MsgId,
        /// Block index.
        block: u32,
    },
    /// A pull block completed (all frames placed or parked).
    BlockDone {
        /// The pull transaction.
        pull: PullId,
        /// The transfer.
        msg: MsgId,
        /// Block index.
        block: u32,
    },
    /// The sender saw the notify: transfer done on the send side.
    SendDone {
        /// The transfer.
        msg: MsgId,
    },
    /// The receiver placed every frame: transfer done on the receive side.
    RecvDone {
        /// The transfer.
        msg: MsgId,
        /// Bytes delivered.
        len: u64,
    },
    /// A transfer started waiting on the pin cursor: a protocol action
    /// (send rndv / start pulling) was queued behind an unmet pin
    /// threshold. Paired with [`TraceEvent::PinWaitEnd`].
    PinWaitStart {
        /// The waiting transfer.
        msg: MsgId,
        /// The region whose cursor is being waited on.
        region: RegionId,
    },
    /// The pin cursor reached the threshold and released the waiting
    /// transfer's queued action.
    PinWaitEnd {
        /// The transfer that stopped waiting.
        msg: MsgId,
        /// The region whose cursor satisfied the wait.
        region: RegionId,
    },
    /// Application-level annotation (via `Ctx::annotate`).
    AppMark {
        /// Caller-chosen label.
        label: &'static str,
    },
    /// A process crashed: its endpoint closed, its transfers were torn
    /// down, and the driver reaped every pin it owned.
    ProcCrash {
        /// The process that died.
        proc: ProcId,
        /// The incarnation that died.
        incarnation: u32,
        /// Pages the driver unpinned while reaping the dead tenant.
        reaped_pages: u64,
    },
    /// A process came back from a crash with a bumped incarnation.
    ProcRestart {
        /// The restarted process.
        proc: ProcId,
        /// The new (post-bump) incarnation.
        incarnation: u32,
    },
    /// A frame stamped with a stale incarnation (or addressed to a dead
    /// endpoint) was fenced at arrival instead of being interpreted.
    FencedDrop {
        /// The frame's source process.
        src: ProcId,
        /// The frame's destination process.
        dst: ProcId,
        /// The transfer the frame belonged to.
        msg: MsgId,
    },
}

impl TraceEvent {
    /// Stable snake_case tag, usable for filtering and as the CSV/Chrome
    /// event name. One tag per variant; documented in DESIGN.md.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::RegionDeclare { .. } => "region_declare",
            TraceEvent::RegionUndeclare { .. } => "region_undeclare",
            TraceEvent::PinStart { .. } => "pin_start",
            TraceEvent::PinChunk { .. } => "pin_chunk",
            TraceEvent::PinComplete { .. } => "pin_complete",
            TraceEvent::OverlapMissTx { .. } => "overlap_miss_tx",
            TraceEvent::OverlapMissRx { .. } => "overlap_miss_rx",
            TraceEvent::PacketDrop { .. } => "packet_drop",
            TraceEvent::Retransmit { .. } => "retransmit",
            TraceEvent::Backoff { .. } => "backoff",
            TraceEvent::FaultInjected { .. } => "fault_injected",
            TraceEvent::RetryExhausted { .. } => "retry_exhausted",
            TraceEvent::NotifierInvalidate { .. } => "notifier_invalidate",
            TraceEvent::NotifierDefer { .. } => "notifier_defer",
            TraceEvent::NotifierCancel { .. } => "notifier_cancel",
            TraceEvent::NotifierDrain { .. } => "notifier_drain",
            TraceEvent::PressureUnpin { .. } => "pressure_unpin",
            TraceEvent::PinDenied { .. } => "pin_denied",
            TraceEvent::Repin { .. } => "repin",
            TraceEvent::CacheHit { .. } => "cache_hit",
            TraceEvent::CacheMiss => "cache_miss",
            TraceEvent::CacheEvict { .. } => "cache_evict",
            TraceEvent::RndvTx { .. } => "rndv_tx",
            TraceEvent::RndvRx { .. } => "rndv_rx",
            TraceEvent::PullReq { .. } => "pull_req",
            TraceEvent::BlockDone { .. } => "block_done",
            TraceEvent::SendDone { .. } => "send_done",
            TraceEvent::RecvDone { .. } => "recv_done",
            TraceEvent::PinWaitStart { .. } => "pin_wait_start",
            TraceEvent::PinWaitEnd { .. } => "pin_wait_end",
            TraceEvent::AppMark { .. } => "app_mark",
            TraceEvent::ProcCrash { .. } => "proc_crash",
            TraceEvent::ProcRestart { .. } => "proc_restart",
            TraceEvent::FencedDrop { .. } => "fenced_drop",
        }
    }

    /// Human-readable detail string (built on demand, not on record).
    pub fn detail(&self) -> String {
        match self {
            TraceEvent::RegionDeclare { region, pages } => {
                format!("region {} pages {pages}", region.0)
            }
            TraceEvent::RegionUndeclare { region } => format!("region {}", region.0),
            TraceEvent::PinStart {
                region,
                target_pages,
            } => {
                format!("region {} target {target_pages} pages", region.0)
            }
            TraceEvent::PinChunk {
                region,
                pages,
                cursor_pages,
            } => {
                format!("region {} +{pages} cursor {cursor_pages} pages", region.0)
            }
            TraceEvent::PinComplete {
                region,
                cursor_pages,
            } => {
                format!("region {} cursor {cursor_pages} pages", region.0)
            }
            TraceEvent::OverlapMissTx { msg, block, .. } => {
                format!("msg {} block {block}", msg.0)
            }
            TraceEvent::OverlapMissRx { pull, offset, .. } => {
                format!("pull {} offset {offset}", pull.0)
            }
            TraceEvent::PacketDrop { pull, offset, .. } => {
                format!("pull {} offset {offset}", pull.0)
            }
            TraceEvent::Retransmit { kind, id, .. } => format!("{} id {id}", kind.label()),
            TraceEvent::Backoff {
                kind,
                id,
                attempt,
                rto_nanos,
                ..
            } => {
                format!(
                    "{} id {id} attempt {attempt} rto {rto_nanos} ns",
                    kind.label()
                )
            }
            TraceEvent::FaultInjected { kind } => kind.label().to_string(),
            TraceEvent::RetryExhausted { kind, id, .. } => format!("{} id {id}", kind.label()),
            TraceEvent::NotifierInvalidate { region, pages } => {
                format!("region {} unpinned {pages} pages", region.0)
            }
            TraceEvent::NotifierDefer { region, pages } => {
                format!("region {} deferred {pages} pages", region.0)
            }
            TraceEvent::NotifierCancel { region } => format!("region {}", region.0),
            TraceEvent::NotifierDrain { region, pages } => {
                format!("region {} released {pages} pages", region.0)
            }
            TraceEvent::PressureUnpin { region, pages } => {
                format!("region {} unpinned {pages} pages", region.0)
            }
            TraceEvent::PinDenied { region, pages } => {
                format!("region {} denied {pages} pages (quota)", region.0)
            }
            TraceEvent::Repin {
                region,
                target_pages,
            } => {
                format!("region {} target {target_pages} pages", region.0)
            }
            TraceEvent::CacheHit { region } => format!("region {}", region.0),
            TraceEvent::CacheMiss => String::new(),
            TraceEvent::CacheEvict { region } => format!("region {}", region.0),
            TraceEvent::RndvTx { msg, len, .. } => format!("msg {} len {len}", msg.0),
            TraceEvent::RndvRx { msg, len, .. } => format!("msg {} len {len}", msg.0),
            TraceEvent::PullReq { msg, block, .. } => format!("msg {} block {block}", msg.0),
            TraceEvent::BlockDone { pull, block, .. } => format!("pull {} block {block}", pull.0),
            TraceEvent::SendDone { msg } => format!("msg {}", msg.0),
            TraceEvent::RecvDone { msg, len, .. } => format!("msg {} len {len}", msg.0),
            TraceEvent::PinWaitStart { msg, region } | TraceEvent::PinWaitEnd { msg, region } => {
                format!("xfer {} region {}", msg.0, region.0)
            }
            TraceEvent::AppMark { label } => (*label).to_string(),
            TraceEvent::ProcCrash {
                proc,
                incarnation,
                reaped_pages,
            } => {
                format!(
                    "proc {} incarnation {incarnation} reaped {reaped_pages} pages",
                    proc.0
                )
            }
            TraceEvent::ProcRestart { proc, incarnation } => {
                format!("proc {} incarnation {incarnation}", proc.0)
            }
            TraceEvent::FencedDrop { src, dst, .. } => {
                format!("src proc {} dst proc {}", src.0, dst.0)
            }
        }
    }

    /// The region this event is about, when it has one (used to pair
    /// pin-start/pin-complete into spans).
    pub fn region(&self) -> Option<RegionId> {
        match self {
            TraceEvent::RegionDeclare { region, .. }
            | TraceEvent::RegionUndeclare { region }
            | TraceEvent::PinStart { region, .. }
            | TraceEvent::PinChunk { region, .. }
            | TraceEvent::PinComplete { region, .. }
            | TraceEvent::NotifierInvalidate { region, .. }
            | TraceEvent::NotifierDefer { region, .. }
            | TraceEvent::NotifierCancel { region }
            | TraceEvent::NotifierDrain { region, .. }
            | TraceEvent::PressureUnpin { region, .. }
            | TraceEvent::PinDenied { region, .. }
            | TraceEvent::Repin { region, .. }
            | TraceEvent::CacheHit { region }
            | TraceEvent::CacheEvict { region }
            | TraceEvent::PinWaitStart { region, .. }
            | TraceEvent::PinWaitEnd { region, .. } => Some(*region),
            _ => None,
        }
    }
}

impl TraceEvent {
    /// The transfer this event belongs to, when it names one (used by the
    /// span builder to correlate sender- and receiver-side records).
    pub fn msg(&self) -> Option<MsgId> {
        match self {
            TraceEvent::OverlapMissTx { msg, .. }
            | TraceEvent::OverlapMissRx { msg, .. }
            | TraceEvent::PacketDrop { msg, .. }
            | TraceEvent::Retransmit { msg, .. }
            | TraceEvent::Backoff { msg, .. }
            | TraceEvent::RetryExhausted { msg, .. }
            | TraceEvent::RndvTx { msg, .. }
            | TraceEvent::RndvRx { msg, .. }
            | TraceEvent::PullReq { msg, .. }
            | TraceEvent::BlockDone { msg, .. }
            | TraceEvent::SendDone { msg }
            | TraceEvent::RecvDone { msg, .. }
            | TraceEvent::PinWaitStart { msg, .. }
            | TraceEvent::PinWaitEnd { msg, .. }
            | TraceEvent::FencedDrop { msg, .. } => Some(*msg),
            _ => None,
        }
    }
}

/// A [`TraceEvent`] stamped with when and where it happened.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TraceRecord {
    /// Simulated instant.
    pub time: SimTime,
    /// Node index.
    pub node: usize,
    /// Process involved, when attributable.
    pub proc: Option<ProcId>,
    /// What happened.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Shorthand for `self.event.kind()`.
    pub fn kind(&self) -> &'static str {
        self.event.kind()
    }

    /// Shorthand for `self.event.detail()`.
    pub fn detail(&self) -> String {
        self.event.detail()
    }
}
