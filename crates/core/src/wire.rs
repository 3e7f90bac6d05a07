//! The MXoE-flavoured wire protocol.
//!
//! Message types follow the paper's Figure 2 vocabulary: small messages go
//! *eager*; large messages do `rndv` → `pull` → `pull reply` → `notify`.
//! Frames carry their payload bytes, which is what lets the test suite
//! verify end-to-end data integrity through every pinning mode. Every
//! payload is a [`PageSnapshot`]: it references the sender's pages and
//! keeps the bytes they held when the message was captured (the eager
//! send, or the pull reply being cut).
//!
//! Reliability: eager messages and notifies are acked explicitly; pull
//! replies are recovered by re-requesting missing frames (optimistically on
//! out-of-order arrival, else on the 1 s retransmission timeout) — §4.3.

use simmem::PageSnapshot;

use crate::endpoint::EndpointAddr;

/// Cluster-unique id of one message transfer (send request instance).
///
/// Allocated once at send initiation and carried by *every* wire message
/// of the transfer (rndv, pull req/reply, eager fragments, acks,
/// notifies). It keys the engine's transfer tables, and it is also the
/// causal-trace id: sender- and receiver-side trace records of one
/// transfer correlate through it into a single cross-node span tree
/// (`crate::obs::span`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MsgId(pub u64);

/// Identifies one pull transaction (a large-message data phase).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PullId(pub u64);

/// One MXoE message as carried in an Ethernet frame.
#[derive(Clone, Debug)]
pub enum WireMsg {
    /// Small-message fragment, copied through the static eager buffers.
    Eager {
        /// Transfer this fragment belongs to.
        msg: MsgId,
        /// Matching key.
        match_info: u64,
        /// Fragment index.
        frag: u32,
        /// Total fragments in the message.
        frag_count: u32,
        /// Total message length in bytes.
        total_len: u64,
        /// Byte offset of this fragment.
        offset: u64,
        /// Fragment payload, captured from the sender at send time.
        data: PageSnapshot,
    },
    /// Ack of a fully received eager message.
    EagerAck {
        /// The acked transfer.
        msg: MsgId,
    },
    /// Rendezvous request announcing a large message.
    Rndv {
        /// Transfer id.
        msg: MsgId,
        /// Matching key.
        match_info: u64,
        /// Total message length.
        total_len: u64,
    },
    /// Pull request: the receiver asks for (a subset of) one block.
    /// The receiver drives the transfer: `xfer_len` is the (possibly
    /// truncated) total it wants, bounding every frame the sender cuts.
    PullReq {
        /// The pull transaction.
        pull: PullId,
        /// Transfer id (identifies the sender-side region).
        msg: MsgId,
        /// Block index within the transfer.
        block: u32,
        /// Bitmask of the frames of this block being requested.
        frame_mask: u64,
        /// Total bytes the receiver will accept.
        xfer_len: u64,
    },
    /// Pull reply: one frame of requested data.
    PullReply {
        /// The pull transaction.
        pull: PullId,
        /// Transfer id.
        msg: MsgId,
        /// Block index.
        block: u32,
        /// Frame index within the block.
        frame: u32,
        /// Byte offset of this frame within the whole message.
        offset: u64,
        /// Frame payload, captured from the sender's pages at send time.
        data: PageSnapshot,
    },
    /// Transfer complete: receiver tells sender to release resources.
    Notify {
        /// The completed transfer.
        msg: MsgId,
    },
    /// Ack of a notify (lets the receiver release its retransmit state).
    NotifyAck {
        /// The acked transfer.
        msg: MsgId,
    },
}

impl WireMsg {
    /// Application payload bytes carried (for fabric accounting).
    pub fn payload_len(&self) -> u64 {
        match self {
            WireMsg::Eager { data, .. } | WireMsg::PullReply { data, .. } => data.len(),
            _ => 0,
        }
    }

    /// Short tag for traces and counters.
    pub fn kind(&self) -> &'static str {
        match self {
            WireMsg::Eager { .. } => "eager",
            WireMsg::EagerAck { .. } => "eager_ack",
            WireMsg::Rndv { .. } => "rndv",
            WireMsg::PullReq { .. } => "pull_req",
            WireMsg::PullReply { .. } => "pull_reply",
            WireMsg::Notify { .. } => "notify",
            WireMsg::NotifyAck { .. } => "notify_ack",
        }
    }

    /// True for pure control messages (no data payload).
    pub fn is_control(&self) -> bool {
        self.payload_len() == 0
    }

    /// The transfer id — carried by every message variant, which is what
    /// lets the incarnation fence attribute a dropped stale frame to its
    /// transfer.
    pub fn msg(&self) -> MsgId {
        match self {
            WireMsg::Eager { msg, .. }
            | WireMsg::EagerAck { msg }
            | WireMsg::Rndv { msg, .. }
            | WireMsg::PullReq { msg, .. }
            | WireMsg::PullReply { msg, .. }
            | WireMsg::Notify { msg }
            | WireMsg::NotifyAck { msg } => *msg,
        }
    }
}

/// A frame in flight: source, destination, and the message.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Sending endpoint.
    pub src: EndpointAddr,
    /// Destination endpoint.
    pub dst: EndpointAddr,
    /// The MXoE message inside.
    pub msg: WireMsg,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(p: u32) -> EndpointAddr {
        EndpointAddr {
            proc: crate::engine::ProcId(p),
            incarnation: 0,
        }
    }

    #[test]
    fn payload_accounting() {
        let e = WireMsg::Eager {
            msg: MsgId(1),
            match_info: 7,
            frag: 0,
            frag_count: 1,
            total_len: 5,
            offset: 0,
            data: PageSnapshot::from_bytes(&[1, 2, 3, 4, 5]),
        };
        assert_eq!(e.payload_len(), 5);
        assert!(!e.is_control());
        let n = WireMsg::Notify { msg: MsgId(1) };
        assert_eq!(n.payload_len(), 0);
        assert!(n.is_control());
        assert_eq!(n.kind(), "notify");
    }

    #[test]
    fn frame_carries_endpoints() {
        let f = Frame {
            src: addr(0),
            dst: addr(1),
            msg: WireMsg::NotifyAck { msg: MsgId(9) },
        };
        assert_eq!(f.msg.kind(), "notify_ack");
        assert_eq!(f.msg.msg(), MsgId(9));
        assert_ne!(f.src.proc, f.dst.proc);
    }
}
