//! The engine's counter registry: every counter declared once, in one
//! table, and stored per node as a fixed array indexed by [`Counter`].
//!
//! Each event is counted by exactly one owner. The engine counts into
//! its nodes' [`CounterSet`]s. The driver owns the notifier and pressure
//! counts ([`DriverStats`](crate::DriverStats)), and
//! [`Cluster::node_counters`](crate::Cluster::node_counters) fills those
//! six entries from it. Nothing counts the same event twice.

use std::iter::Sum;

/// Declares the counter table: one line per counter, its variant, its
/// exported name and a one-line doc stating its unit. Generates
/// [`Counter`], [`Counter::ALL`], [`Counter::COUNT`] and [`Counter::name`].
macro_rules! counters {
    ($($(#[doc = $doc:literal])* $variant:ident = $name:literal,)*) => {
        /// One engine counter, named by [`Counter::name`].
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
        pub enum Counter {
            $($(#[doc = $doc])* $variant,)*
        }

        impl Counter {
            /// Every counter, in table order (ascending by name).
            pub const ALL: &'static [Counter] = &[$(Counter::$variant,)*];

            /// Number of counters in the table.
            pub const COUNT: usize = Counter::ALL.len();

            /// The counter's exported name.
            pub const fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)*
                }
            }
        }
    };
}

counters! {
    /// Region-cache entries evicted by LRU pressure (entries).
    CacheEvictions = "cache_evictions",
    /// Region-cache lookups answered from the cache (lookups).
    CacheHit = "cache_hit",
    /// Region-cache lookups that declared a fresh region (lookups).
    CacheMiss = "cache_miss",
    /// Pages a crashed process's regions released at reap (pages).
    CrashReapedPages = "crash_reaped_pages",
    /// Duplicate pull-reply frames for an already received slot (frames).
    DupFramesRx = "dup_frames_rx",
    /// Eager sends given up after the retry budget ran out (messages).
    EagerAbandoned = "eager_abandoned",
    /// Eager acks that matched no pending eager send (frames).
    EagerAckDup = "eager_ack_dup",
    /// Eager fragments received a second time (frames).
    EagerDupFrags = "eager_dup_frags",
    /// Eager messages sent over the wire (messages).
    EagerMsgsTx = "eager_msgs_tx",
    /// Eager retransmission timeouts that resent the message (timeouts).
    EagerRetrans = "eager_retrans",
    /// Pull-reply frames dropped for landing on unpinned pages (frames).
    FramesDroppedUnpinned = "frames_dropped_unpinned",
    /// Frames dropped at a crashed or restarted endpoint's fence (frames).
    FramesFenced = "frames_fenced",
    /// Frames that arrived at a node's NIC (frames).
    FramesRx = "frames_rx",
    /// I/OAT copies whose landing region was invalidated mid-copy (frames).
    IoatLandingMiss = "ioat_landing_miss",
    /// Frames the fabric dropped in a burst-loss state (frames, per source).
    NetFramesBurstLost = "net_frames_burst_lost",
    /// Frames the fabric delivered twice (frames, per source).
    NetFramesDuplicated = "net_frames_duplicated",
    /// Frames the fabric dropped on a dead link (frames, per source).
    NetFramesLinkDown = "net_frames_link_down",
    /// Frames the fabric lost at random (frames, per source).
    NetFramesLost = "net_frames_lost",
    /// Frames the fabric dropped on egress overflow (frames, per source).
    NetFramesOverflowed = "net_frames_overflowed",
    /// Frames the fabric delivered out of order (frames, per source).
    NetFramesReordered = "net_frames_reordered",
    /// Deferred unpins cancelled by a repin before the drain (entries; driver-owned).
    NotifierCancelled = "notifier_cancelled",
    /// Invalidation hits whose unpin was deferred to the epoch (region hits; driver-owned).
    NotifierDeferred = "notifier_deferred",
    /// Batched drains of the deferred-unpin queue (drains; driver-owned).
    NotifierDrainBatches = "notifier_drain_batches",
    /// MMU-notifier events handled by the driver (events; driver-owned).
    NotifierEvents = "notifier_events",
    /// Regions unpinned by notifier events or deferred drains (regions; driver-owned).
    NotifierRegionUnpins = "notifier_region_unpins",
    /// Pages unpinned by notifier events or deferred drains (pages).
    NotifierUnpinnedPages = "notifier_unpinned_pages",
    /// Receiver notifies given up after the retry budget ran out (messages).
    NotifyAbandoned = "notify_abandoned",
    /// Notifies that matched no pending send (frames).
    NotifyDup = "notify_dup",
    /// Notify retransmission timeouts that resent the notify (timeouts).
    NotifyRetrans = "notify_retrans",
    /// Pull-reply frames dropped because the receive pin cursor lagged (frames).
    OverlapMissRx = "overlap_miss_rx",
    /// Pull requests that found send pages not yet pinned (requests).
    OverlapMissTx = "overlap_miss_tx",
    /// Transfers ended early because their peer was gone (transfers).
    PeerDeadAborts = "peer_dead_aborts",
    /// Pin chunks that completed (chunks).
    PinChunks = "pin_chunks",
    /// Pin passes that failed on an invalid region (passes).
    PinFailures = "pin_failures",
    /// Pages pinned (pages).
    PinPages = "pin_pages",
    /// Pin passes restarted after an invalidation bumped the region (passes).
    PinPassRestarts = "pin_pass_restarts",
    /// `pin_user_pages` calls made by pin chunks (calls).
    PinSyscalls = "pin_syscalls",
    /// Pages unpinned to stay under the pinned-page ceiling (pages; driver-owned).
    PressureUnpinnedPages = "pressure_unpinned_pages",
    /// Processes crashed (processes).
    ProcCrashes = "proc_crashes",
    /// Processes restarted (processes).
    ProcRestarts = "proc_restarts",
    /// Pull-reply frames accepted onto pinned pages (frames).
    PullFramesOk = "pull_frames_ok",
    /// Pull-reply frames with out-of-range coordinates (frames).
    PullReplyBogus = "pull_reply_bogus",
    /// Pull-reply frames for a transfer that already ended (frames).
    PullReplyStale = "pull_reply_stale",
    /// Pull requests with out-of-range coordinates (requests).
    PullReqBogus = "pull_req_bogus",
    /// Pull requests for a send that already ended (requests).
    PullReqStale = "pull_req_stale",
    /// Pull blocks re-requested early when a later block completed (blocks).
    PullRereqOptimistic = "pull_rereq_optimistic",
    /// Pull stall timeouts that re-requested missing blocks (timeouts).
    PullStallTimeouts = "pull_stall_timeouts",
    /// Pin passes denied by the owner's pin quota (passes).
    QuotaDenials = "quota_denials",
    /// Requests completed with `AppEvent::Failed` (requests).
    RequestsFailed = "requests_failed",
    /// Rendezvous frames for a message already seen (frames).
    RndvDup = "rndv_dup",
    /// Rendezvous messages sent (messages).
    RndvMsgsTx = "rndv_msgs_tx",
    /// Rendezvous retransmission timeouts that resent it (timeouts).
    RndvRetrans = "rndv_retrans",
    /// Completion-watchdog timeouts of sends already being pulled (timeouts).
    SendWatchdogTimeouts = "send_watchdog_timeouts",
    /// Intra-node messages sent over shared memory (messages).
    ShmMsgsTx = "shm_msgs_tx",
    /// Unexpected messages purged because their sender crashed (messages).
    UnexpectedPurged = "unexpected_purged",
    /// Pages unpinned by every path except pressure eviction (pages).
    UnpinPages = "unpin_pages",
}

/// One value per [`Counter`]: a node's counts, or their sum over nodes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CounterSet([u64; Counter::COUNT]);

impl Default for CounterSet {
    fn default() -> Self {
        CounterSet([0; Counter::COUNT])
    }
}

impl CounterSet {
    /// Add one to `c`.
    pub fn bump(&mut self, c: Counter) {
        self.add(c, 1);
    }

    /// Add `n` to `c` (saturating).
    pub fn add(&mut self, c: Counter, n: u64) {
        let v = &mut self.0[c as usize];
        *v = v.saturating_add(n);
    }

    /// Current value of `c`.
    pub fn get(&self, c: Counter) -> u64 {
        self.0[c as usize]
    }

    /// Every `(name, value)` in table order, zeros included.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Counter::ALL.iter().map(|&c| (c.name(), self.get(c)))
    }

    fn sum_of(&self, cs: &[Counter]) -> u64 {
        cs.iter().map(|&c| self.get(c)).sum()
    }

    /// Retransmissions and re-requests fired by every retry machinery.
    pub fn retransmits(&self) -> u64 {
        self.sum_of(&[
            Counter::EagerRetrans,
            Counter::NotifyRetrans,
            Counter::RndvRetrans,
            Counter::PullStallTimeouts,
            Counter::PullRereqOptimistic,
        ])
    }

    /// Duplicate or stale frames the protocol received and discarded.
    pub fn duplicates_rx(&self) -> u64 {
        self.sum_of(&[
            Counter::EagerDupFrags,
            Counter::EagerAckDup,
            Counter::NotifyDup,
            Counter::RndvDup,
            Counter::PullReplyStale,
            Counter::DupFramesRx,
        ])
    }

    /// Faults the fabric injected on purpose: reorder, duplicate, burst
    /// loss and link death (random loss and overflow are not faults).
    pub fn faults_injected(&self) -> u64 {
        self.sum_of(&[
            Counter::NetFramesReordered,
            Counter::NetFramesDuplicated,
            Counter::NetFramesBurstLost,
            Counter::NetFramesLinkDown,
        ])
    }

    /// Overlap-missed pull-reply frames over all pull-reply frames that
    /// reached the pinned check; 0 when there was no pull traffic.
    pub fn overlap_miss_rate(&self) -> f64 {
        let misses = self.get(Counter::OverlapMissRx);
        let total = misses + self.get(Counter::PullFramesOk);
        misses as f64 / total.max(1) as f64
    }
}

impl Sum for CounterSet {
    fn sum<I: Iterator<Item = CounterSet>>(iter: I) -> Self {
        iter.fold(CounterSet::default(), |mut acc, s| {
            for (a, v) in acc.0.iter_mut().zip(s.0) {
                *a = a.saturating_add(v);
            }
            acc
        })
    }
}

#[cfg(test)]
mod tests {
    use super::Counter::*;
    use super::*;

    /// The table is strictly ascending, so names are unique and `iter()`
    /// keeps name order. It holds every name `perfbench` looks up by
    /// string: an unknown name reads 0 there, so a rename would silently
    /// zero its per-layer figures.
    #[test]
    fn table_is_sorted_and_has_every_name_read_by_string() {
        let names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
        for name in [
            "pin_pages",
            "eager_retrans",
            "rndv_retrans",
            "notify_retrans",
            "pull_stall_timeouts",
            "overlap_miss_rx",
            "overlap_miss_tx",
            "pin_syscalls",
        ] {
            assert!(names.contains(&name), "no counter named {name}");
        }
    }

    #[test]
    fn sets_accumulate_and_sum() {
        let (mut a, mut b) = (CounterSet::default(), CounterSet::default());
        a.bump(OverlapMissRx);
        a.add(OverlapMissRx, 2);
        a.add(PinPages, u64::MAX);
        a.bump(PinPages);
        b.add(CacheHit, 5);
        assert_eq!(a.get(PinPages), u64::MAX, "saturates");
        let total: CounterSet = [a, b].into_iter().sum();
        let nonzero: Vec<_> = total.iter().filter(|&(_, v)| v > 0).collect();
        let want = [
            ("cache_hit", 5),
            ("overlap_miss_rx", 3),
            ("pin_pages", u64::MAX),
        ];
        assert_eq!(nonzero, want);
        assert_eq!(total.iter().count(), Counter::COUNT);
    }

    #[test]
    fn miss_rate_arithmetic() {
        let mut c = CounterSet::default();
        assert_eq!(c.overlap_miss_rate(), 0.0);
        c.add(OverlapMissRx, 3);
        c.add(PullFramesOk, 7);
        assert!((c.overlap_miss_rate() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn derived_sums() {
        let mut c = CounterSet::default();
        let retried = [EagerRetrans, PullRereqOptimistic, PullReqStale];
        let duplicated = [PullReplyStale, PullReplyBogus];
        let faulted = [NetFramesLost, NetFramesLinkDown];
        for k in retried.into_iter().chain(duplicated).chain(faulted) {
            c.bump(k);
        }
        // Stale pull requests, bogus replies and random loss are not counted.
        assert_eq!(c.retransmits(), 2);
        assert_eq!(c.duplicates_rx(), 1);
        assert_eq!(c.faults_injected(), 1);
    }
}
