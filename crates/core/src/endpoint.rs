//! Endpoints: MX-style message matching (posted receives vs. unexpected
//! messages) plus the receive-side eager reassembly buffers.
//!
//! Matching follows MX semantics: a posted receive carries `match_info`
//! and a `mask`; an incoming message with key `k` matches when
//! `k & mask == match_info & mask`. Both queues are FIFO, so matching is
//! deterministic.

use std::collections::VecDeque;

use simmem::{PageSnapshot, VirtAddr};

use crate::engine::{OverlapHint, ProcId};
use crate::wire::MsgId;

/// Network-visible address of an endpoint (one per process).
///
/// The address carries the process's *incarnation*: a counter bumped on
/// every crash/restart cycle. Every wire frame is stamped with the
/// incarnations its sender knew at transmit time, and the receive path
/// fences any frame whose stamps disagree with the live endpoints — a
/// restarted process never interprets pre-crash traffic, and peers never
/// interpret traffic from a previous incarnation of a restarted process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EndpointAddr {
    /// The owning process.
    pub proc: ProcId,
    /// The process incarnation this address names (0 until first restart).
    pub incarnation: u32,
}

/// Application-visible handle of a posted operation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RequestId(pub u64);

/// A receive posted by the application, waiting for a message.
#[derive(Clone, Copy, Debug)]
pub struct PostedRecv {
    /// Application handle.
    pub req: RequestId,
    /// Matching key.
    pub match_info: u64,
    /// Matching mask (`!0` = exact match).
    pub mask: u64,
    /// Destination buffer.
    pub addr: VirtAddr,
    /// Destination buffer capacity.
    pub len: u64,
    /// Overlap hint for a rendezvous this receive matches (the match may
    /// come long after the post).
    pub hint: OverlapHint,
}

impl PostedRecv {
    fn matches(&self, key: u64) -> bool {
        key & self.mask == self.match_info & self.mask
    }
}

/// Eager-message reassembly state (ring-buffer contents in real Open-MX).
#[derive(Clone, Debug)]
pub struct EagerRx {
    /// Sender's transfer id.
    pub msg: MsgId,
    /// Sending endpoint.
    pub src: EndpointAddr,
    /// Matching key.
    pub match_info: u64,
    /// Full message length.
    pub total_len: u64,
    /// Each fragment received so far, with its byte offset, by index.
    pub frags: Vec<Option<(u64, PageSnapshot)>>,
    /// Fragments still missing.
    pub frags_left: u32,
}

impl EagerRx {
    /// Fresh reassembly state for a message of `total_len` bytes in
    /// `frag_count` fragments.
    pub fn new(
        msg: MsgId,
        src: EndpointAddr,
        match_info: u64,
        total_len: u64,
        frag_count: u32,
    ) -> Self {
        EagerRx {
            msg,
            src,
            match_info,
            total_len,
            frags: vec![None; frag_count as usize],
            frags_left: frag_count,
        }
    }

    /// Absorb one fragment; duplicate fragments are ignored. Returns true
    /// when the message became complete.
    pub fn absorb(&mut self, frag: u32, offset: u64, data: PageSnapshot) -> bool {
        // Out-of-range coordinates (corrupt or hostile frames) are dropped
        // rather than panicking the whole engine; checked_add keeps an
        // offset near u64::MAX from wrapping past the bounds check.
        let fits = offset
            .checked_add(data.len())
            .is_some_and(|end| end <= self.total_len);
        match self.frags.get_mut(frag as usize) {
            Some(slot @ None) if fits => {
                *slot = Some((offset, data));
                self.frags_left -= 1;
                self.frags_left == 0
            }
            _ => false,
        }
    }

    /// Has this fragment already been absorbed? (Duplicate probe.)
    pub fn has_frag(&self, frag: u32) -> bool {
        self.frags.get(frag as usize).is_some_and(Option::is_some)
    }

    /// The first `len` bytes of the message, as `(offset, bytes)` pieces
    /// in fragment order.
    pub fn into_prefix(self, len: u64) -> impl Iterator<Item = (u64, PageSnapshot)> {
        self.frags
            .into_iter()
            .flatten()
            .filter(move |&(off, _)| off < len)
            .map(move |(off, data)| match len - off {
                n if n < data.len() => (off, data.slice(0, n)),
                _ => (off, data),
            })
    }

    /// True when all fragments arrived.
    pub fn complete(&self) -> bool {
        self.frags_left == 0
    }
}

/// A message that arrived before its receive was posted.
#[derive(Clone, Debug)]
pub enum Unexpected {
    /// Eager message (possibly still reassembling).
    Eager(EagerRx),
    /// Rendezvous announcement.
    Rndv {
        /// Sender transfer id.
        msg: MsgId,
        /// Sending endpoint.
        src: EndpointAddr,
        /// Matching key.
        match_info: u64,
        /// Announced message length.
        total_len: u64,
    },
    /// Intra-node (shared-memory) message, data already materialized.
    Shm {
        /// Sender transfer id.
        msg: MsgId,
        /// Sending endpoint.
        src: EndpointAddr,
        /// Matching key.
        match_info: u64,
        /// Message bytes, captured from the sender at send time.
        data: PageSnapshot,
    },
}

impl Unexpected {
    /// The matching key of this message.
    pub fn match_info(&self) -> u64 {
        match self {
            Unexpected::Eager(e) => e.match_info,
            Unexpected::Rndv { match_info, .. } | Unexpected::Shm { match_info, .. } => *match_info,
        }
    }

    /// The sender transfer id.
    pub fn msg_id(&self) -> MsgId {
        match self {
            Unexpected::Eager(e) => e.msg,
            Unexpected::Rndv { msg, .. } | Unexpected::Shm { msg, .. } => *msg,
        }
    }
}

/// One process's endpoint: matching queues and duplicate suppression.
///
/// Duplicate suppression keeps one bit per message id: bit `id % 64` of
/// word `id / 64` is set once message `id` is fully handled. Message ids
/// are dense and cluster-global (the engine hands them out from 1), so
/// the bitmap is an exact set of completed ids that costs one bit per id
/// up to the highest completed one, with no hashing. It is never pruned;
/// a restarted process gets a fresh, empty endpoint.
pub struct Endpoint {
    posted: VecDeque<PostedRecv>,
    unexpected: VecDeque<Unexpected>,
    /// Eager/rndv messages already fully handled — duplicates (from
    /// retransmission) of these are re-acked and dropped. One bit per id.
    completed: Vec<u64>,
}

impl Default for Endpoint {
    fn default() -> Self {
        Self::new()
    }
}

impl Endpoint {
    /// An endpoint with empty queues.
    pub fn new() -> Self {
        Endpoint {
            posted: VecDeque::new(),
            unexpected: VecDeque::new(),
            completed: Vec::new(),
        }
    }

    /// Post a receive. If an unexpected message matches (FIFO order), it is
    /// removed and returned; otherwise the receive queues.
    pub fn post_recv(&mut self, recv: PostedRecv) -> Option<Unexpected> {
        if let Some(pos) = self
            .unexpected
            .iter()
            .position(|u| recv.matches(u.match_info()))
        {
            return self.unexpected.remove(pos);
        }
        self.posted.push_back(recv);
        None
    }

    /// An incoming message with key `key` claims the first matching posted
    /// receive, removing it.
    pub fn match_incoming(&mut self, key: u64) -> Option<PostedRecv> {
        let pos = self.posted.iter().position(|p| p.matches(key))?;
        self.posted.remove(pos)
    }

    /// Queue a message that found no posted receive.
    pub fn push_unexpected(&mut self, msg: Unexpected) {
        self.unexpected.push_back(msg);
    }

    /// Find an in-progress unexpected eager reassembly by sender msg id.
    pub fn unexpected_eager_mut(&mut self, msg: MsgId) -> Option<&mut EagerRx> {
        self.unexpected.iter_mut().find_map(|u| match u {
            Unexpected::Eager(e) if e.msg == msg => Some(e),
            _ => None,
        })
    }

    /// True if an unexpected rndv with this id is already queued
    /// (duplicate-rndv suppression).
    pub fn has_unexpected(&self, msg: MsgId) -> bool {
        self.unexpected.iter().any(|u| u.msg_id() == msg)
    }

    /// Record a fully handled message id for duplicate suppression.
    pub fn mark_completed(&mut self, msg: MsgId) {
        let word = (msg.0 / 64) as usize;
        if word >= self.completed.len() {
            self.completed.resize(word + 1, 0);
        }
        self.completed[word] |= 1 << (msg.0 % 64);
    }

    /// Was this message id already fully handled?
    pub fn is_completed(&self, msg: MsgId) -> bool {
        usize::try_from(msg.0 / 64)
            .ok()
            .and_then(|word| self.completed.get(word))
            .is_some_and(|bits| bits >> (msg.0 % 64) & 1 == 1)
    }

    /// Queue depths `(posted, unexpected)` — for tests and stats.
    pub fn depths(&self) -> (usize, usize) {
        (self.posted.len(), self.unexpected.len())
    }

    /// Fence the unexpected queue after a peer crash: drop every parked
    /// message sent by `src` (all of it predates the crash — the dead
    /// incarnation must never match a future receive). Returns how many
    /// messages were dropped.
    pub fn purge_unexpected_from(&mut self, src: ProcId) -> usize {
        let before = self.unexpected.len();
        self.unexpected.retain(|u| {
            let from = match u {
                Unexpected::Eager(e) => e.src,
                Unexpected::Rndv { src, .. } | Unexpected::Shm { src, .. } => *src,
            };
            from.proc != src
        });
        before - self.unexpected.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(p: u32) -> EndpointAddr {
        EndpointAddr {
            proc: ProcId(p),
            incarnation: 0,
        }
    }

    fn recv(req: u64, match_info: u64, mask: u64) -> PostedRecv {
        PostedRecv {
            req: RequestId(req),
            match_info,
            mask,
            addr: VirtAddr(0x1000),
            len: 64,
            hint: OverlapHint::Auto,
        }
    }

    #[test]
    fn exact_matching_fifo() {
        let mut ep = Endpoint::new();
        assert!(ep.post_recv(recv(1, 42, !0)).is_none());
        assert!(ep.post_recv(recv(2, 42, !0)).is_none());
        let m = ep.match_incoming(42).unwrap();
        assert_eq!(m.req, RequestId(1), "first posted matches first");
        let m = ep.match_incoming(42).unwrap();
        assert_eq!(m.req, RequestId(2));
        assert!(ep.match_incoming(42).is_none());
    }

    #[test]
    fn masked_matching() {
        let mut ep = Endpoint::new();
        // Match only on the low 32 bits (e.g. tag, ignoring source).
        ep.post_recv(recv(1, 0x0000_0000_0000_0007, 0x0000_0000_ffff_ffff));
        assert!(ep.match_incoming(0xdead_beef_0000_0007).is_some());
        assert!(ep.match_incoming(0xdead_beef_0000_0008).is_none());
    }

    #[test]
    fn unexpected_claimed_by_later_post() {
        let mut ep = Endpoint::new();
        ep.push_unexpected(Unexpected::Rndv {
            msg: MsgId(5),
            src: addr(1),
            match_info: 9,
            total_len: 1 << 20,
        });
        let got = ep.post_recv(recv(1, 9, !0)).expect("should claim rndv");
        assert_eq!(got.msg_id(), MsgId(5));
        assert_eq!(ep.depths(), (0, 0));
    }

    #[test]
    fn unexpected_fifo_order() {
        let mut ep = Endpoint::new();
        for i in 0..3 {
            ep.push_unexpected(Unexpected::Shm {
                msg: MsgId(i),
                src: addr(1),
                match_info: 9,
                data: PageSnapshot::default(),
            });
        }
        let got = ep.post_recv(recv(1, 9, !0)).unwrap();
        assert_eq!(got.msg_id(), MsgId(0));
    }

    fn bytes(data: &[u8]) -> PageSnapshot {
        PageSnapshot::from_bytes(data)
    }

    /// The message's first `len` bytes, laid out at their offsets.
    fn assemble(e: &EagerRx, len: u64) -> Vec<u8> {
        let mut out = vec![0u8; len as usize];
        for (off, data) in e.clone().into_prefix(len) {
            let off = off as usize;
            out[off..off + data.len() as usize].copy_from_slice(&data.to_vec());
        }
        out
    }

    #[test]
    fn eager_reassembly() {
        let mut e = EagerRx::new(MsgId(1), addr(0), 7, 10, 3);
        assert!(!e.absorb(0, 0, bytes(&[1, 2, 3, 4])));
        assert!(!e.absorb(2, 8, bytes(&[9, 10])));
        // Duplicate is idempotent.
        assert!(!e.absorb(0, 0, bytes(&[0, 0, 0, 0])));
        assert!(e.absorb(1, 4, bytes(&[5, 6, 7, 8])));
        assert!(e.complete());
        assert_eq!(assemble(&e, 10), [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        // A truncating receive takes a prefix, cutting a fragment short.
        assert_eq!(assemble(&e, 6), [1, 2, 3, 4, 5, 6]);
        assert_eq!(e.clone().into_prefix(4).count(), 1);
        assert_eq!(e.into_prefix(0).count(), 0);
    }

    #[test]
    fn out_of_range_fragments_are_dropped() {
        let mut e = EagerRx::new(MsgId(1), addr(0), 7, 10, 3);
        // An offset near u64::MAX must not wrap past the bounds check.
        assert!(!e.absorb(0, u64::MAX, bytes(&[1, 2, 3, 4, 5])));
        assert!(!e.absorb(0, 8, bytes(&[1, 2, 3])));
        assert!(!e.absorb(3, 0, bytes(&[1])));
        assert!(!e.has_frag(0) && !e.has_frag(3));
        assert_eq!(e.frags_left, 3);
    }

    #[test]
    fn completed_dedup() {
        let mut ep = Endpoint::new();
        assert!(!ep.is_completed(MsgId(3)));
        ep.mark_completed(MsgId(3));
        assert!(ep.is_completed(MsgId(3)));
    }

    /// The bitmap answers every query as a plain ordered set of the
    /// marked ids would: word edges, a long gap, ids far above the
    /// highest marked word, and random mark/query runs.
    #[test]
    fn completed_bitmap_matches_a_set_model() {
        use std::collections::BTreeSet;

        use simcore::SimRng;

        let edges = [1, 63, 64, 65, 1_000_065, 1_000_066];
        for seed in 0..20 {
            let mut rng = SimRng::new(seed);
            let mut ep = Endpoint::new();
            let mut model = BTreeSet::new();
            for step in 0..2_000 {
                let id = match rng.below(4) {
                    0 => edges[rng.below(edges.len() as u64) as usize],
                    1 => 1 + rng.below(200),
                    2 => 1_000_000 + rng.below(200),
                    _ => rng.next_u64(),
                };
                let msg = MsgId(id);
                if id < 2_000_000 && rng.chance(0.5) {
                    ep.mark_completed(msg);
                    model.insert(msg);
                }
                assert_eq!(
                    ep.is_completed(msg),
                    model.contains(&msg),
                    "seed {seed} step {step} id {id}"
                );
            }
            for id in edges.into_iter().chain([0, 2_000_000, u64::MAX]) {
                assert_eq!(ep.is_completed(MsgId(id)), model.contains(&MsgId(id)));
            }
        }
    }

    #[test]
    fn find_unexpected_eager_in_progress() {
        let mut ep = Endpoint::new();
        ep.push_unexpected(Unexpected::Eager(EagerRx::new(
            MsgId(4),
            addr(2),
            1,
            100,
            2,
        )));
        assert!(ep.unexpected_eager_mut(MsgId(4)).is_some());
        assert!(ep.unexpected_eager_mut(MsgId(5)).is_none());
        assert!(ep.has_unexpected(MsgId(4)));
    }
}
