//! The bounded ring-buffer tracer owned by the cluster.

use std::collections::VecDeque;

use super::event::TraceRecord;

/// Default ring capacity: plenty for a figure-sized run, bounded enough
/// to keep long overload experiments at a fixed memory footprint.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// A bounded ring buffer of [`TraceRecord`]s.
///
/// Disabled (the default), [`Tracer::record`] is a branch and nothing
/// else. Enabled, each record is an O(1) push; once `capacity` records are
/// held the oldest is evicted and counted in [`Tracer::dropped`].
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    enabled: bool,
    capacity: usize,
    buf: VecDeque<TraceRecord>,
    dropped: u64,
}

impl Tracer {
    /// A disabled tracer (records are discarded for free).
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// An enabled tracer holding at most `capacity` records.
    ///
    /// # Panics
    /// Panics if `capacity` is 0.
    pub fn enabled(capacity: usize) -> Self {
        assert!(capacity > 0, "tracer capacity must be positive");
        Tracer {
            enabled: true,
            capacity,
            buf: VecDeque::with_capacity(capacity.min(4096)),
            dropped: 0,
        }
    }

    /// Is recording on?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record one event (no-op when disabled).
    pub fn record(&mut self, rec: TraceRecord) {
        if !self.enabled {
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(rec);
    }

    /// Records currently held, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> + '_ {
        self.buf.iter()
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Ring capacity (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Discard everything recorded so far (capacity and enablement keep).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::super::event::TraceEvent;
    use super::*;
    use simcore::SimTime;

    fn rec(i: u64) -> TraceRecord {
        TraceRecord {
            time: SimTime::from_nanos(i),
            node: 0,
            proc: None,
            event: TraceEvent::Retransmit {
                kind: super::super::RetransKind::Rndv,
                id: i,
                msg: crate::wire::MsgId(i),
            },
        }
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::disabled();
        assert!(!t.is_enabled());
        for i in 0..100 {
            t.record(rec(i));
        }
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn ring_wraparound_keeps_newest() {
        let mut t = Tracer::enabled(4);
        for i in 0..10u64 {
            t.record(rec(i));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 6);
        let times: Vec<u64> = t.iter().map(|r| r.time.as_nanos()).collect();
        // Oldest evicted first: the newest 4 survive, in order.
        assert_eq!(times, vec![6, 7, 8, 9]);
    }

    #[test]
    fn exact_capacity_does_not_drop() {
        let mut t = Tracer::enabled(5);
        for i in 0..5u64 {
            t.record(rec(i));
        }
        assert_eq!(t.len(), 5);
        assert_eq!(t.dropped(), 0);
        let times: Vec<u64> = t.iter().map(|r| r.time.as_nanos()).collect();
        assert_eq!(times, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn clear_resets_but_keeps_enablement() {
        let mut t = Tracer::enabled(2);
        t.record(rec(1));
        t.record(rec(2));
        t.record(rec(3));
        assert_eq!(t.dropped(), 1);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
        assert!(t.is_enabled());
        t.record(rec(4));
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        Tracer::enabled(0);
    }
}
