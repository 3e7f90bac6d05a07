//! The user-space region cache (§3.2).
//!
//! Lives in the Open-MX *library*, above the driver: it translates a
//! vector of user segments into the integer descriptor the driver
//! understands, and keeps recently used declarations alive so repeat
//! communications skip the declaration system call entirely. Eviction is
//! LRU. The cache never needs to hear about invalidations — that is the
//! whole point of decoupling: the driver unpins behind its back and
//! repins on next use, while the descriptor stays valid.

use std::collections::HashMap;

use crate::driver::RegionId;
use crate::obs::CacheStats;
use crate::region::Segment;

/// Outcome of a cache lookup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheOutcome {
    /// The segments were already declared; reuse this descriptor.
    Hit(RegionId),
    /// Not cached; the caller must declare a region and then call
    /// [`RegionCache::insert`].
    Miss,
}

/// LRU cache of declared regions, keyed by the exact segment vector.
pub struct RegionCache {
    capacity: usize,
    map: HashMap<Vec<Segment>, (RegionId, u64)>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl RegionCache {
    /// A cache holding at most `capacity` declared regions (0 disables
    /// caching: every lookup misses and nothing is retained).
    pub fn new(capacity: usize) -> Self {
        RegionCache {
            capacity,
            map: HashMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Look up a segment vector, refreshing its LRU position on hit.
    pub fn lookup(&mut self, segments: &[Segment]) -> CacheOutcome {
        self.clock += 1;
        if let Some((id, stamp)) = self.map.get_mut(segments) {
            *stamp = self.clock;
            self.hits += 1;
            CacheOutcome::Hit(*id)
        } else {
            self.misses += 1;
            CacheOutcome::Miss
        }
    }

    /// Insert a freshly declared region. If the cache is over capacity the
    /// least recently used entry is evicted and returned — the caller must
    /// undeclare it with the driver. Re-inserting an already-cached segment
    /// vector returns the *replaced* descriptor the same way: dropping it
    /// silently would leak the old declaration in the driver forever.
    pub fn insert(&mut self, segments: Vec<Segment>, id: RegionId) -> Option<RegionId> {
        if self.capacity == 0 {
            // Caching disabled: the caller keeps sole ownership.
            return None;
        }
        self.clock += 1;
        if let Some((replaced, _)) = self.map.insert(segments, (id, self.clock)) {
            // Replacement cannot overflow capacity (the key was present),
            // so the displaced descriptor is the only one to hand back.
            return if replaced == id { None } else { Some(replaced) };
        }
        if self.map.len() > self.capacity {
            let victim_key = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
                .expect("cache not empty");
            let (victim, _) = self.map.remove(&victim_key).expect("victim exists");
            return Some(victim);
        }
        None
    }

    /// Remove a specific descriptor (e.g. the driver reported the region's
    /// space died). Returns true if it was present.
    pub fn remove_by_id(&mut self, id: RegionId) -> bool {
        let key = self
            .map
            .iter()
            .find(|(_, (rid, _))| *rid == id)
            .map(|(k, _)| k.clone());
        match key {
            Some(k) => {
                self.map.remove(&k);
                true
            }
            None => false,
        }
    }

    /// Drain every entry (endpoint close). Caller undeclares them all.
    pub fn drain(&mut self) -> Vec<RegionId> {
        self.map.drain().map(|(_, (id, _))| id).collect()
    }

    /// Descriptors currently cached, sorted — deterministic introspection
    /// for the state audit (the map itself iterates in hash order).
    pub fn cached_ids(&self) -> Vec<RegionId> {
        let mut ids: Vec<RegionId> = self.map.values().map(|(id, _)| *id).collect();
        ids.sort_by_key(|r| r.0);
        ids
    }

    /// Hit/miss counters so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmem::VirtAddr;

    fn seg(addr: u64, len: u64) -> Segment {
        Segment {
            addr: VirtAddr(addr),
            len,
        }
    }

    #[test]
    fn hit_after_insert() {
        let mut c = RegionCache::new(4);
        let s = vec![seg(0x1000, 4096)];
        assert_eq!(c.lookup(&s), CacheOutcome::Miss);
        assert_eq!(c.insert(s.clone(), RegionId(7)), None);
        assert_eq!(c.lookup(&s), CacheOutcome::Hit(RegionId(7)));
        assert_eq!(c.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn different_segments_are_different_entries() {
        let mut c = RegionCache::new(4);
        c.insert(vec![seg(0x1000, 4096)], RegionId(1));
        c.insert(vec![seg(0x1000, 8192)], RegionId(2));
        c.insert(vec![seg(0x2000, 4096)], RegionId(3));
        assert_eq!(
            c.lookup(&[seg(0x1000, 4096)]),
            CacheOutcome::Hit(RegionId(1))
        );
        assert_eq!(
            c.lookup(&[seg(0x1000, 8192)]),
            CacheOutcome::Hit(RegionId(2))
        );
        // Vectorial key includes all segments.
        assert_eq!(
            c.lookup(&[seg(0x1000, 4096), seg(0x2000, 4096)]),
            CacheOutcome::Miss
        );
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = RegionCache::new(2);
        c.insert(vec![seg(0x1000, 1)], RegionId(1));
        c.insert(vec![seg(0x2000, 1)], RegionId(2));
        // Touch #1 so #2 becomes LRU.
        assert_eq!(c.lookup(&[seg(0x1000, 1)]), CacheOutcome::Hit(RegionId(1)));
        let evicted = c.insert(vec![seg(0x3000, 1)], RegionId(3));
        assert_eq!(evicted, Some(RegionId(2)));
        assert_eq!(c.lookup(&[seg(0x2000, 1)]), CacheOutcome::Miss);
        assert_eq!(c.lookup(&[seg(0x1000, 1)]), CacheOutcome::Hit(RegionId(1)));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = RegionCache::new(0);
        let s = vec![seg(0x1000, 1)];
        assert_eq!(c.insert(s.clone(), RegionId(1)), None);
        assert_eq!(c.lookup(&s), CacheOutcome::Miss);
        assert!(c.is_empty());
    }

    #[test]
    fn duplicate_insert_returns_replaced_id() {
        // Regression: the replaced descriptor used to be dropped on the
        // floor, leaking the old declaration in the driver forever.
        let mut c = RegionCache::new(4);
        let s = vec![seg(0x1000, 4096)];
        assert_eq!(c.insert(s.clone(), RegionId(1)), None);
        assert_eq!(c.insert(s.clone(), RegionId(2)), Some(RegionId(1)));
        assert_eq!(c.lookup(&s), CacheOutcome::Hit(RegionId(2)));
        assert_eq!(c.len(), 1);
        // Re-inserting the *same* descriptor is a refresh, not a leak.
        assert_eq!(c.insert(s.clone(), RegionId(2)), None);
        assert_eq!(c.cached_ids(), vec![RegionId(2)]);
    }

    #[test]
    fn cached_ids_are_sorted() {
        let mut c = RegionCache::new(4);
        c.insert(vec![seg(0x3000, 1)], RegionId(9));
        c.insert(vec![seg(0x1000, 1)], RegionId(2));
        c.insert(vec![seg(0x2000, 1)], RegionId(5));
        assert_eq!(c.cached_ids(), vec![RegionId(2), RegionId(5), RegionId(9)]);
    }

    #[test]
    fn remove_by_id_and_drain() {
        let mut c = RegionCache::new(4);
        c.insert(vec![seg(0x1000, 1)], RegionId(1));
        c.insert(vec![seg(0x2000, 1)], RegionId(2));
        assert!(c.remove_by_id(RegionId(1)));
        assert!(!c.remove_by_id(RegionId(1)));
        let mut rest = c.drain();
        rest.sort_by_key(|r| r.0);
        assert_eq!(rest, vec![RegionId(2)]);
        assert!(c.is_empty());
    }
}
