//! The kernel-side driver state: region table, notifier handling,
//! pinned-page pressure (§3.1).
//!
//! The driver owns *all* pinning decisions. User space only ever sees the
//! integer [`RegionId`]; whether the pages behind it are pinned right now
//! is invisible above the system-call boundary. Invalidation arrives from
//! the MMU notifier as [`simmem::NotifierEvent`]s and is resolved entirely
//! in here — no upcall, no user-space synchronization.
//!
//! Every per-event operation here is sublinear in the number of declared
//! regions: notifier events route through a per-address-space interval
//! index instead of a table scan, pressure eviction pops a lazily
//! invalidated LRU heap instead of re-scanning for the minimum, and
//! `declare` reuses slots from a free list instead of probing the table.
//!
//! Notifier unpinning is *deferred and coalesced*: an invalidation marks
//! the hit pages stale (generation-stamped, protocol-invisible, frames
//! still attached) and queues the region; the release runs in batches at
//! epoch close or under pin-budget pressure, and a region re-pinned
//! before the drain cancels its pending unpin entirely. See DESIGN.md §15.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};

use simcore::SimTime;
use simmem::{AsId, InvalidateCause, MemError, Memory, NotifierEvent, VpnRange};

use crate::engine::ProcId;
use crate::index::SpaceIndex;
use crate::obs::{DriverStats, TenantStats};
use crate::region::{DeclareError, DriverRegion, PinProgress, Segment};

/// The integer descriptor user space holds for a declared region.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RegionId(pub u32);

/// Per-tenant pin quota (§3.1 made multi-tenant): every process sharing
/// the driver gets a *soft share* of the pinned-page budget and a *hard
/// cap* it can never exceed. Under global pressure, tenants pinned past
/// their soft share pay first (deficit-weighted eviction); a pin pass
/// that would push its tenant past the hard cap first evicts the
/// tenant's own idle regions and, failing that, is denied cleanly.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PinQuota {
    /// Fair share of pinned pages per tenant; being over it makes the
    /// tenant the preferred pressure-eviction victim.
    pub soft_share: u64,
    /// Hard ceiling on one tenant's pinned pages (`>= soft_share`).
    pub hard_cap: u64,
}

/// Per-tenant accounting: the attributed pinned-page count, its own LRU
/// heap of idle evictable regions, and the fairness counters.
#[derive(Default)]
struct Tenant {
    /// Pages currently pinned and attributed to this tenant.
    pinned: u64,
    /// High-water mark of `pinned`.
    peak: u64,
    /// Pin passes denied because the hard cap left no headroom.
    denials: u64,
    /// Pages this tenant's pressure evicted from *other* tenants.
    inflicted: u64,
    /// Pages other tenants' pressure evicted from this one.
    suffered: u64,
    /// Idle-pinned-region LRU keyed on `(last_use, id)`, lazily
    /// invalidated exactly like the old global heap.
    lru: BinaryHeap<Reverse<(SimTime, u32)>>,
}

/// Per-node driver state.
pub struct Driver {
    regions: Vec<Option<DriverRegion>>,
    /// Free slots in `regions`; min-heap so ids are reused lowest-first,
    /// exactly like the table scan this replaces.
    free_slots: BinaryHeap<Reverse<u32>>,
    /// Per-address-space interval index for notifier routing.
    index: HashMap<AsId, SpaceIndex>,
    /// Per-tenant state: attributed pin counts, fairness counters, and
    /// the per-tenant idle-region LRU heaps that together replace the old
    /// single global heap. With one tenant (every raw `declare`) the
    /// min-over-tops victim selection degenerates to exactly the old
    /// global pop order.
    tenants: BTreeMap<ProcId, Tenant>,
    /// Declared regions (maintained so the heap-size bound is O(1)).
    live_regions: usize,
    /// Ceiling on pinned pages; `None` = unlimited.
    pinned_limit: Option<usize>,
    /// Per-tenant quota; `None` = single-tenant semantics.
    quota: Option<PinQuota>,
    /// Fault-injection hook: report the quota as absent to the engine's
    /// enforcement while the invariant oracle still knows it — proves the
    /// `QuotaExceeded` oracle fires when enforcement is broken.
    quota_disabled: bool,
    /// Regions with a deferred unpin pending: their stale suffix is still
    /// attached, awaiting the batched drain at epoch close or under
    /// pin-budget pressure. The coalesced-VA-range queue of the design is
    /// folded into the regions themselves — each region's stale watermark
    /// *is* the merge of every range that hit it this epoch, so the queue
    /// only needs the region ids.
    pending: BTreeSet<u32>,
    /// Pages unpinned due to memory pressure (counter).
    pressure_unpins: u64,
    /// MMU-notifier events handled (counter).
    notifier_events: u64,
    /// Regions unpinned by notifier events (counter).
    notifier_region_unpins: u64,
    /// Candidate regions the interval index routed events to (counter).
    notifier_index_candidates: u64,
    /// Region hits whose unpin was deferred instead of eager (counter).
    notifier_deferred: u64,
    /// Deferred unpins that resolved to nothing at drain time because the
    /// range was re-pinned first — the malloc-trim no-op (counter).
    notifier_cancelled: u64,
    /// Batched drains of the deferred queue (counter).
    notifier_drain_batches: u64,
    /// LRU heap entries examined by pressure eviction (counter).
    evict_lru_pops: u64,
}

impl Driver {
    /// An empty driver with an optional pinned-page ceiling.
    pub fn new(pinned_limit: Option<usize>) -> Self {
        Driver {
            regions: Vec::new(),
            free_slots: BinaryHeap::new(),
            index: HashMap::new(),
            tenants: BTreeMap::new(),
            live_regions: 0,
            pinned_limit,
            quota: None,
            quota_disabled: false,
            pending: BTreeSet::new(),
            pressure_unpins: 0,
            notifier_events: 0,
            notifier_region_unpins: 0,
            notifier_index_candidates: 0,
            notifier_deferred: 0,
            notifier_cancelled: 0,
            notifier_drain_batches: 0,
            evict_lru_pops: 0,
        }
    }

    /// Install (or clear) the per-tenant pin quota.
    pub fn set_quota(&mut self, quota: Option<PinQuota>) {
        self.quota = quota;
    }

    /// The installed per-tenant quota (what the invariant oracle checks).
    pub fn quota(&self) -> Option<PinQuota> {
        self.quota
    }

    /// The quota the engine must *enforce* — `None` while the
    /// fault-injection hook has enforcement disabled.
    pub fn enforced_quota(&self) -> Option<PinQuota> {
        if self.quota_disabled {
            None
        } else {
            self.quota
        }
    }

    /// Fault injection: keep the quota installed (so oracles still know
    /// the cap) but hide it from enforcement. Mutation self-tests use
    /// this to prove the `QuotaExceeded` oracle catches a broken check.
    pub fn disable_quota_enforcement_for_test(&mut self) {
        self.quota_disabled = true;
    }

    /// Declare a region (the only time segments cross the syscall
    /// boundary). Never pins. A region with zero total length — user
    /// space can hand the driver anything — is rejected, not a panic.
    /// Attribution falls to the single default tenant `ProcId(0)`; the
    /// engine uses [`Driver::declare_owned`].
    pub fn declare(&mut self, space: AsId, segments: &[Segment]) -> Result<RegionId, DeclareError> {
        self.declare_owned(space, ProcId(0), segments)
    }

    /// Declare a region owned by `owner`: every page later pinned through
    /// [`Driver::pin_chunk`] is attributed to that tenant, and the region
    /// files into that tenant's eviction heap when idle.
    pub fn declare_owned(
        &mut self,
        space: AsId,
        owner: ProcId,
        segments: &[Segment],
    ) -> Result<RegionId, DeclareError> {
        let mut region = DriverRegion::try_new(space, segments)?;
        region.owner = owner;
        self.tenants.entry(owner).or_default();
        self.live_regions += 1;
        let id = if let Some(Reverse(idx)) = self.free_slots.pop() {
            self.regions[idx as usize] = Some(region);
            RegionId(idx)
        } else {
            self.regions.push(Some(region));
            RegionId(self.regions.len() as u32 - 1)
        };
        let region = self.regions[id.0 as usize].as_ref().expect("just stored");
        let idx = self.index.entry(region.space).or_default();
        for seg in region.layout.segments() {
            let r = seg.page_range();
            idx.insert(r.start.0, r.end.0, id.0);
        }
        Ok(id)
    }

    /// Undeclare, releasing any pins. Returns pages released.
    ///
    /// # Panics
    /// Panics with the `unknown region` message on any id that does not
    /// name a declared region — including ids beyond the table (a hostile
    /// or buggy caller must not be able to trigger a raw index
    /// out-of-bounds), and if the region is still in use by a
    /// communication.
    pub fn undeclare(&mut self, mem: &mut Memory, id: RegionId) -> u64 {
        let mut region = self
            .regions
            .get_mut(id.0 as usize)
            .and_then(Option::take)
            .unwrap_or_else(|| panic!("undeclare of unknown region {id:?}"));
        assert_eq!(region.use_count, 0, "undeclare of in-use region {id:?}");
        if let Some(idx) = self.index.get_mut(&region.space) {
            for seg in region.layout.segments() {
                idx.remove(seg.page_range().start.0, id.0);
            }
        }
        // A pending deferred unpin dies with the region: unpin_all below
        // releases the stale suffix along with everything else, and the
        // slot may be recycled before the next drain runs.
        self.pending.remove(&id.0);
        self.free_slots.push(Reverse(id.0));
        self.live_regions -= 1;
        let pages = region.unpin_all(mem);
        self.debit(region.owner, pages);
        pages
    }

    /// Reap every trace of a dead tenant after a process crash: undeclare
    /// all regions it owns (a crashed process has no communications worth
    /// honoring, so non-zero use counts do not block the sweep), drop
    /// their deferred-unpin queue entries and interval-index spans, and
    /// remove the tenant's quota/accounting row. Each region's pages are
    /// unpinned in one batch and debited against the tenant before the
    /// row is dropped, so the pin ledger (`pin == unpin + pressure +
    /// still-pinned`) stays exact across the crash. Returns total pages
    /// unpinned.
    pub fn teardown_proc(&mut self, mem: &mut Memory, proc: ProcId) -> u64 {
        let dead: Vec<u32> = self
            .regions
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().filter(|r| r.owner == proc).map(|_| i as u32))
            .collect();
        let mut total = 0u64;
        for id in dead {
            let mut region = self.regions[id as usize].take().expect("listed above");
            if let Some(idx) = self.index.get_mut(&region.space) {
                for seg in region.layout.segments() {
                    idx.remove(seg.page_range().start.0, id);
                }
            }
            self.pending.remove(&id);
            self.free_slots.push(Reverse(id));
            self.live_regions -= 1;
            let pages = region.unpin_all(mem);
            self.debit(proc, pages);
            total += pages;
        }
        self.tenants.remove(&proc);
        total
    }

    /// Borrow a declared region.
    ///
    /// # Panics
    /// Panics with the `unknown region` message on undeclared *and*
    /// never-allocated ids alike; use [`Driver::try_region`] to probe.
    pub fn region(&self, id: RegionId) -> &DriverRegion {
        self.try_region(id)
            .unwrap_or_else(|| panic!("unknown region {id:?}"))
    }

    /// Mutably borrow a declared region.
    ///
    /// # Panics
    /// Panics with the `unknown region` message on undeclared *and*
    /// never-allocated ids alike; use [`Driver::try_region_mut`] to probe.
    pub fn region_mut(&mut self, id: RegionId) -> &mut DriverRegion {
        self.try_region_mut(id)
            .unwrap_or_else(|| panic!("unknown region {id:?}"))
    }

    /// Borrow a region if `id` names a declared one.
    pub fn try_region(&self, id: RegionId) -> Option<&DriverRegion> {
        self.regions.get(id.0 as usize).and_then(Option::as_ref)
    }

    /// Mutably borrow a region if `id` names a declared one.
    pub fn try_region_mut(&mut self, id: RegionId) -> Option<&mut DriverRegion> {
        self.regions.get_mut(id.0 as usize).and_then(Option::as_mut)
    }

    /// True if `id` names a declared region.
    pub fn is_declared(&self, id: RegionId) -> bool {
        self.regions.get(id.0 as usize).is_some_and(Option::is_some)
    }

    /// Every declared region with its id, in id order (invariant oracles).
    pub fn iter_regions(&self) -> impl Iterator<Item = (RegionId, &DriverRegion)> {
        self.regions
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|r| (RegionId(i as u32), r)))
    }

    /// Sum of pinned pages across every declared region. With all pinning
    /// flowing through regions this must equal the frame pool's
    /// `pinned_pages()` at every event boundary — the harness's pin
    /// accounting invariant.
    pub fn pinned_pages_total(&self) -> u64 {
        self.iter_regions().map(|(_, r)| r.pinned_pages()).sum()
    }

    /// Pages currently pinned and attributed to `proc`. Only pins taken
    /// through the attributed entry points ([`Driver::pin_chunk`] /
    /// [`Driver::unpin_region`], i.e. everything the engine does) are
    /// counted; tests poking regions directly bypass attribution.
    pub fn pinned_pages_of(&self, proc: ProcId) -> u64 {
        self.tenants.get(&proc).map_or(0, |t| t.pinned)
    }

    /// Per-tenant accounting snapshot, ascending by `ProcId`.
    pub fn tenant_stats(&self) -> Vec<(ProcId, TenantStats)> {
        self.tenants
            .iter()
            .map(|(&p, t)| {
                (
                    p,
                    TenantStats {
                        pinned_pages: t.pinned,
                        peak_pinned_pages: t.peak,
                        quota_denials: t.denials,
                        evictions_inflicted_on_others: t.inflicted,
                        evictions_suffered_from_others: t.suffered,
                    },
                )
            })
            .collect()
    }

    /// Record a pin pass denied against `proc` for lack of hard-cap
    /// headroom (the engine calls this on the `PinDenied` path).
    pub fn note_quota_denial(&mut self, proc: ProcId) {
        self.tenants.entry(proc).or_default().denials += 1;
    }

    /// Total entries across every tenant's LRU heap, stale included —
    /// bounded to `2 * live_regions + 8` by the rebuild in
    /// [`Driver::note_region_idle`]; the churn test asserts it.
    pub fn lru_len(&self) -> usize {
        self.tenants.values().map(|t| t.lru.len()).sum()
    }

    fn credit(&mut self, owner: ProcId, pages: u64) {
        let t = self.tenants.entry(owner).or_default();
        t.pinned += pages;
        t.peak = t.peak.max(t.pinned);
    }

    /// Saturating on purpose: regions pinned *around* the attributed
    /// entry points (benches and tests calling `region_mut` directly)
    /// were never credited, so their release must not underflow the
    /// tenant that happens to own the slot.
    fn debit(&mut self, owner: ProcId, pages: u64) {
        let t = self.tenants.entry(owner).or_default();
        t.pinned = t.pinned.saturating_sub(pages);
    }

    /// Pin the next chunk of `id` — the engine's pin entry point —
    /// attributing the net change in attached pages to the region's
    /// owner. Charging the signed delta (not the chunk size) makes the
    /// attribution robust to `release_stale` running inside the call and
    /// to the rollback a partial-pin failure performs: whatever the
    /// region ends up holding is exactly what its owner is charged for,
    /// so a failed pass can never leak budget headroom.
    pub fn pin_chunk(
        &mut self,
        mem: &mut Memory,
        id: RegionId,
        max_pages: u64,
        per_page: bool,
    ) -> Result<PinProgress, MemError> {
        let region = self.region_mut(id);
        let owner = region.owner;
        let before = region.pinned_pages();
        let result = if per_page {
            region.pin_next_chunk_per_page(mem, max_pages)
        } else {
            region.pin_next_chunk(mem, max_pages)
        };
        let after = self.region(id).pinned_pages();
        if after >= before {
            self.credit(owner, after - before);
        } else {
            self.debit(owner, before - after);
        }
        result
    }

    /// Unpin everything `id` holds, attributed to its owner — the
    /// engine's release path. Returns the pages released.
    pub fn unpin_region(&mut self, mem: &mut Memory, id: RegionId) -> u64 {
        let region = self.region_mut(id);
        let owner = region.owner;
        let pages = region.unpin_all(mem);
        self.debit(owner, pages);
        pages
    }

    /// Regions of `space` whose layout intersects `range`, ascending by
    /// id, answered from the interval index: one bounded `BTreeMap` range
    /// scan plus an exact `layout.intersects` confirmation per candidate.
    pub fn regions_intersecting(&self, space: AsId, range: &VpnRange) -> Vec<RegionId> {
        let Some(idx) = self.index.get(&space) else {
            return Vec::new();
        };
        let mut ids = BTreeSet::new();
        idx.intersecting(range, &mut ids);
        ids.into_iter()
            .map(RegionId)
            .filter(|&id| {
                self.try_region(id)
                    .is_some_and(|r| r.space == space && r.layout.intersects(range))
            })
            .collect()
    }

    /// The full-table-scan answer to [`Driver::regions_intersecting`].
    /// Kept as the differential oracle (simtest cross-checks the index
    /// against it on every notifier event) and as the `pinscale` baseline.
    pub fn regions_intersecting_naive(&self, space: AsId, range: &VpnRange) -> Vec<RegionId> {
        self.iter_regions()
            .filter(|(_, r)| r.space == space && r.layout.intersects(range))
            .map(|(id, _)| id)
            .collect()
    }

    /// MMU-notifier callback with deferred, coalesced unpinning: every
    /// intersecting region has the invalidated pages marked stale (the
    /// frames stay attached, invisible to the protocol) and joins the
    /// deferred-unpin queue; its generation is bumped so an in-flight pin
    /// pass restarts instead of resurrecting the old mapping. The actual
    /// frame release happens in one batch at [`Driver::drain_deferred`] —
    /// epoch close or pin-budget pressure — and a region re-pinned before
    /// then cancels its pending unpin (malloc-trim churn becomes a no-op).
    ///
    /// `Release` events (address-space teardown) still unpin eagerly:
    /// there is no "next use" to defer for, and a dead space must not hold
    /// pins for even one epoch.
    ///
    /// Returns the affected region ids and how many pages each *newly*
    /// marked stale (or, for `Release`, released).
    pub fn handle_invalidate(
        &mut self,
        mem: &mut Memory,
        event: &NotifierEvent,
    ) -> Vec<(RegionId, u64)> {
        self.notifier_events += 1;
        if event.cause == InvalidateCause::Release {
            return self.invalidate_eagerly(mem, event);
        }
        let candidates = self.regions_intersecting(event.space, &event.range);
        self.notifier_index_candidates += candidates.len() as u64;
        let mut hit = Vec::new();
        for id in candidates {
            let region = self
                .regions
                .get_mut(id.0 as usize)
                .and_then(Option::as_mut)
                .expect("indexed region exists");
            if region.unpinned() && !region.pinning_in_progress {
                continue;
            }
            let staled = region.mark_stale(&*mem, &event.range);
            if staled == 0 {
                // Every page in range still maps to this region's own
                // pinned frames (a COW break performed *by* this pin) or
                // lies beyond the cursor — nothing to invalidate, so no
                // generation bump and no queue entry. Bumping here would
                // restart the region's own pin pass on its own events.
                continue;
            }
            region.generation += 1;
            self.pending.insert(id.0);
            self.notifier_deferred += 1;
            hit.push((id, staled));
        }
        hit
    }

    /// The old eager notifier path: unpin every intersecting region in
    /// full, immediately, inside the event. Kept as the differential
    /// oracle for the deferred path (the churnstorm bench's baseline and
    /// the randomized cross-check in this module's tests) and as the
    /// teardown path for `Release` events. Returns the affected region ids
    /// and how many pages each released.
    pub fn handle_invalidate_eager(
        &mut self,
        mem: &mut Memory,
        event: &NotifierEvent,
    ) -> Vec<(RegionId, u64)> {
        self.notifier_events += 1;
        self.invalidate_eagerly(mem, event)
    }

    fn invalidate_eagerly(
        &mut self,
        mem: &mut Memory,
        event: &NotifierEvent,
    ) -> Vec<(RegionId, u64)> {
        let candidates = self.regions_intersecting(event.space, &event.range);
        self.notifier_index_candidates += candidates.len() as u64;
        let mut hit = Vec::new();
        for id in candidates {
            let region = self
                .regions
                .get_mut(id.0 as usize)
                .and_then(Option::as_mut)
                .expect("indexed region exists");
            if region.unpinned() && !region.pinning_in_progress {
                continue;
            }
            region.generation += 1;
            let owner = region.owner;
            let pages = region.unpin_all(mem);
            self.pending.remove(&id.0);
            self.notifier_region_unpins += 1;
            self.debit(owner, pages);
            hit.push((id, pages));
        }
        hit
    }

    /// True when regions are waiting for a deferred-unpin drain.
    pub fn has_deferred(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Drain the deferred-unpin queue in one batch: every pending region
    /// releases its stale suffix with a single batched `Memory` call. A
    /// region that was re-pinned (or fully unpinned) since the event has
    /// nothing stale left — its unpin is *cancelled*, the trim-storm
    /// no-op this design exists for. Returns `(released, cancelled)`:
    /// regions with the pages they released, and regions whose pending
    /// unpin dissolved.
    pub fn drain_deferred(&mut self, mem: &mut Memory) -> (Vec<(RegionId, u64)>, Vec<RegionId>) {
        let mut released = Vec::new();
        let mut cancelled = Vec::new();
        if self.pending.is_empty() {
            return (released, cancelled);
        }
        self.notifier_drain_batches += 1;
        for idx in std::mem::take(&mut self.pending) {
            let Some(region) = self.regions.get_mut(idx as usize).and_then(Option::as_mut) else {
                continue;
            };
            let owner = region.owner;
            let pages = region.release_stale(mem);
            if pages == 0 {
                self.notifier_cancelled += 1;
                cancelled.push(RegionId(idx));
            } else {
                self.notifier_region_unpins += 1;
                self.debit(owner, pages);
                released.push((RegionId(idx), pages));
            }
        }
        (released, cancelled)
    }

    /// Tell the LRU that `id` just became (or stays) an eviction
    /// candidate — idle, pinned, no pin pass running. The engine calls
    /// this whenever a communication releases a region or a pin pass
    /// finishes on an idle region; stale entries are harmless (they are
    /// validated on pop), missing entries are repaired by the one
    /// fallback rebuild [`Driver::pressure_evict`] allows itself.
    pub fn note_region_idle(&mut self, id: RegionId) {
        if let Some(r) = self.try_region(id) {
            if r.use_count == 0 && !r.unpinned() && !r.pinning_in_progress {
                let entry = Reverse((r.last_use, id.0));
                let owner = r.owner;
                self.tenants.entry(owner).or_default().lru.push(entry);
                // Bound stale-entry growth: declare/undeclare churn leaves
                // dead `(last_use, id)` stamps for recycled slots, and the
                // one-rebuild-per-call fallback in `pressure_evict` never
                // amortizes them away. Once more than half the entries
                // could be dead (heap > 2x live regions, plus slack so
                // tiny tables never rebuild), rescan into fresh heaps.
                if self.lru_len() > 2 * self.live_regions + 8 {
                    self.rebuild_heaps();
                }
            }
        }
    }

    /// Rescan the region table into fresh per-tenant heaps, dropping
    /// every stale entry.
    fn rebuild_heaps(&mut self) {
        for t in self.tenants.values_mut() {
            t.lru.clear();
        }
        for (i, r) in self.regions.iter().enumerate() {
            if let Some(r) = r {
                if r.use_count == 0 && !r.unpinned() && !r.pinning_in_progress {
                    self.tenants
                        .entry(r.owner)
                        .or_default()
                        .lru
                        .push(Reverse((r.last_use, i as u32)));
                }
            }
        }
    }

    /// Pop one entry off `owner`'s heap and validate it against the live
    /// region table. `Err(())` when the heap is empty; `Ok(Some(idx))`
    /// for a live victim; `Ok(None)` when the entry was lazily
    /// invalidated — dead slot, busy region, moved stamp, or a recycled
    /// id surfacing in the wrong tenant's heap (re-filed where it
    /// belongs) — and the caller should keep looking.
    fn pop_one(&mut self, owner: ProcId) -> Result<Option<u32>, ()> {
        let Some(Reverse((stamp, idx))) = self.tenants.get_mut(&owner).and_then(|t| t.lru.pop())
        else {
            return Err(());
        };
        self.evict_lru_pops += 1;
        let Some(r) = self.regions.get(idx as usize).and_then(Option::as_ref) else {
            return Ok(None);
        };
        // A region whose pin pass is currently running is not idle:
        // evicting it would race the repin it is in the middle of (the
        // cursor grows right back, and the eviction bought nothing).
        if r.use_count != 0 || r.unpinned() || r.pinning_in_progress {
            return Ok(None);
        }
        let (real_owner, last_use) = (r.owner, r.last_use);
        if real_owner != owner || last_use != stamp {
            self.tenants
                .entry(real_owner)
                .or_default()
                .lru
                .push(Reverse((last_use, idx)));
            return Ok(None);
        }
        Ok(Some(idx))
    }

    /// The globally least-recently-used idle victim across every tenant
    /// heap. Exactly one entry is popped and validated per iteration —
    /// min-over-tops selection makes the pop sequence identical to the
    /// single global heap this replaces, so single-tenant eviction order
    /// (and every figure built on it) is unchanged.
    fn pop_victim_global(&mut self) -> Option<u32> {
        loop {
            let owner = self
                .tenants
                .iter()
                .filter_map(|(&p, t)| t.lru.peek().map(|&Reverse(top)| (top, p)))
                .min()
                .map(|(_, p)| p)?;
            match self.pop_one(owner) {
                Ok(Some(idx)) => return Some(idx),
                Ok(None) => continue,
                Err(()) => unreachable!("peeked heap is non-empty"),
            }
        }
    }

    /// `owner`'s least-recently-used idle victim, or `None` when its
    /// heap holds nothing live.
    fn pop_victim_of(&mut self, owner: ProcId) -> Option<u32> {
        loop {
            match self.pop_one(owner) {
                Ok(Some(idx)) => return Some(idx),
                Ok(None) => continue,
                Err(()) => return None,
            }
        }
    }

    /// Weighted-fair victim selection: tenants pinned past their soft
    /// share pay first — largest deficit first, lower `ProcId` on ties —
    /// so the noisiest tenant's own working set absorbs the pressure it
    /// creates. Only when no over-share tenant has an evictable region
    /// does selection fall back to the global LRU order.
    fn pop_victim_weighted(&mut self, q: PinQuota) -> Option<u32> {
        let mut over: Vec<(u64, ProcId)> = self
            .tenants
            .iter()
            .filter(|(_, t)| t.pinned > q.soft_share)
            .map(|(&p, t)| (t.pinned - q.soft_share, p))
            .collect();
        over.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for (_, p) in over {
            if let Some(idx) = self.pop_victim_of(p) {
                return Some(idx);
            }
        }
        self.pop_victim_global()
    }

    /// Before pinning `needed` more pages, enforce the pinned-page ceiling
    /// by unpinning idle (use_count == 0) regions, least recently used
    /// first ("if there are too many pinned pages … it may also request
    /// some unpinning", §3.1). With a quota installed, victim selection is
    /// weighted-fair ([`Driver::pop_victim_weighted`]); otherwise it is
    /// the plain global LRU order. `requester` is the tenant whose pin
    /// pass triggered the pressure — evictions that land on *other*
    /// tenants are booked to its `inflicted` counter (and the victims'
    /// `suffered`). Returns the regions it unpinned.
    ///
    /// Victims come off the per-tenant LRU heaps in O(log n): popped
    /// entries are validated against the live region (still declared,
    /// idle, pinned, stamp current, owner current) and discarded or
    /// re-filed otherwise. If the heaps run dry while still over the
    /// limit — regions mutated behind the driver's back, e.g. by tests
    /// poking `last_use` — one full-scan rebuild per call restores them.
    pub fn pressure_evict(
        &mut self,
        mem: &mut Memory,
        needed: u64,
        _now: SimTime,
        requester: Option<ProcId>,
    ) -> Vec<(RegionId, u64)> {
        let Some(limit) = self.pinned_limit else {
            return Vec::new();
        };
        let mut evicted = Vec::new();
        let mut rebuilt = false;
        while mem.frames().pinned_pages() as u64 + needed > limit as u64 {
            let mut victim = match self.enforced_quota() {
                Some(q) => self.pop_victim_weighted(q),
                None => self.pop_victim_global(),
            };
            if victim.is_none() && !rebuilt {
                rebuilt = true;
                self.rebuild_heaps();
                victim = match self.enforced_quota() {
                    Some(q) => self.pop_victim_weighted(q),
                    None => self.pop_victim_global(),
                };
            }
            let Some(idx) = victim else { break };
            let pages = self.evict_region(mem, idx);
            let owner = self.regions[idx as usize].as_ref().expect("victim").owner;
            if let Some(req) = requester {
                if req != owner {
                    self.tenants.entry(req).or_default().inflicted += pages;
                    self.tenants.entry(owner).or_default().suffered += pages;
                }
            }
            evicted.push((RegionId(idx), pages));
        }
        evicted
    }

    /// Evict `owner`'s own idle regions, oldest first, until its
    /// attributed pinned count is at or below `max_pinned` (or no idle
    /// victim of its remains). Runs regardless of the global
    /// `pinned_limit` — this is the self-eviction a tenant performs to
    /// reclaim hard-cap headroom before a pin pass is denied, and it
    /// never touches another tenant's working set.
    pub fn pressure_evict_tenant(
        &mut self,
        mem: &mut Memory,
        owner: ProcId,
        max_pinned: u64,
    ) -> Vec<(RegionId, u64)> {
        let mut evicted = Vec::new();
        let mut rebuilt = false;
        while self.pinned_pages_of(owner) > max_pinned {
            let mut victim = self.pop_victim_of(owner);
            if victim.is_none() && !rebuilt {
                rebuilt = true;
                self.rebuild_heaps();
                victim = self.pop_victim_of(owner);
            }
            let Some(idx) = victim else { break };
            let pages = self.evict_region(mem, idx);
            evicted.push((RegionId(idx), pages));
        }
        evicted
    }

    /// Unpin one pressure victim, attributed. Settling the deferred-unpin
    /// queue entry first is load-bearing: `unpin_all` releases the stale
    /// suffix along with everything else, so a victim parked in the queue
    /// that kept its entry would be double-booked at the next drain — the
    /// drain finds nothing stale and records a spurious *cancelled*
    /// unpin, corrupting the coalescing stats the churnstorm gates ride
    /// on.
    fn evict_region(&mut self, mem: &mut Memory, idx: u32) -> u64 {
        self.pending.remove(&idx);
        let region = self.regions[idx as usize].as_mut().expect("victim exists");
        let owner = region.owner;
        let pages = region.unpin_all(mem);
        self.pressure_unpins += pages;
        self.debit(owner, pages);
        pages
    }

    /// Pressure/notifier counters.
    pub fn stats(&self) -> DriverStats {
        DriverStats {
            pressure_unpinned_pages: self.pressure_unpins,
            notifier_events: self.notifier_events,
            notifier_region_unpins: self.notifier_region_unpins,
            notifier_index_candidates: self.notifier_index_candidates,
            notifier_deferred: self.notifier_deferred,
            notifier_cancelled: self.notifier_cancelled,
            notifier_drain_batches: self.notifier_drain_batches,
            evict_lru_pops: self.evict_lru_pops,
        }
    }

    /// Number of declared regions.
    pub fn declared_count(&self) -> usize {
        self.regions.iter().filter(|r| r.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmem::{Prot, VirtAddr, Vpn, PAGE_SIZE};

    fn setup() -> (Memory, simmem::AsId, VirtAddr) {
        let mut mem = Memory::new(1024, 0);
        let space = mem.create_space();
        mem.register_notifier(space).unwrap();
        let addr = mem.mmap(space, 32 * PAGE_SIZE, Prot::ReadWrite).unwrap();
        (mem, space, addr)
    }

    #[test]
    fn declare_ids_are_reused() {
        let (mut mem, space, addr) = setup();
        let mut d = Driver::new(None);
        let a = d
            .declare(
                space,
                &[Segment {
                    addr,
                    len: PAGE_SIZE,
                }],
            )
            .unwrap();
        let b = d
            .declare(
                space,
                &[Segment {
                    addr: addr.add(PAGE_SIZE),
                    len: PAGE_SIZE,
                }],
            )
            .unwrap();
        assert_ne!(a, b);
        d.undeclare(&mut mem, a);
        let c = d
            .declare(
                space,
                &[Segment {
                    addr,
                    len: PAGE_SIZE,
                }],
            )
            .unwrap();
        assert_eq!(a, c);
        assert_eq!(d.declared_count(), 2);
    }

    #[test]
    fn freed_ids_are_reused_lowest_first() {
        let (mut mem, space, addr) = setup();
        let mut d = Driver::new(None);
        let ids: Vec<RegionId> = (0..4)
            .map(|i| {
                d.declare(
                    space,
                    &[Segment {
                        addr: addr.add(i * PAGE_SIZE),
                        len: PAGE_SIZE,
                    }],
                )
                .unwrap()
            })
            .collect();
        // Free out of order; redeclares must fill lowest holes first, the
        // same order the old table scan produced.
        d.undeclare(&mut mem, ids[2]);
        d.undeclare(&mut mem, ids[0]);
        d.undeclare(&mut mem, ids[3]);
        let s = [Segment {
            addr,
            len: PAGE_SIZE,
        }];
        assert_eq!(d.declare(space, &s).unwrap(), ids[0]);
        assert_eq!(d.declare(space, &s).unwrap(), ids[2]);
        assert_eq!(d.declare(space, &s).unwrap(), ids[3]);
    }

    #[test]
    fn declare_of_zero_length_region_is_rejected_not_a_panic() {
        // Regression: user space declaring only zero-length segments used
        // to trip the "empty region" assert inside the "kernel".
        let (mut mem, space, addr) = setup();
        let mut d = Driver::new(None);
        assert_eq!(d.declare(space, &[]), Err(DeclareError::EmptyRegion));
        assert_eq!(
            d.declare(space, &[Segment { addr, len: 0 }]),
            Err(DeclareError::EmptyRegion)
        );
        assert_eq!(d.declared_count(), 0);
        // The driver is fully usable afterwards and ids start from 0 —
        // the failed declares leaked no slots.
        let r = d
            .declare(
                space,
                &[Segment {
                    addr,
                    len: PAGE_SIZE,
                }],
            )
            .unwrap();
        assert_eq!(r, RegionId(0));
        d.region_mut(r).pin_next_chunk(&mut mem, 100).unwrap();
        assert_eq!(d.undeclare(&mut mem, r), 1);
    }

    #[test]
    fn invalidate_defers_unpin_of_intersecting_regions_only() {
        let (mut mem, space, addr) = setup();
        let mut d = Driver::new(None);
        let r1 = d
            .declare(
                space,
                &[Segment {
                    addr,
                    len: 4 * PAGE_SIZE,
                }],
            )
            .unwrap();
        let r2 = d
            .declare(
                space,
                &[Segment {
                    addr: addr.add(8 * PAGE_SIZE),
                    len: 4 * PAGE_SIZE,
                }],
            )
            .unwrap();
        d.region_mut(r1).pin_next_chunk(&mut mem, 100).unwrap();
        d.region_mut(r2).pin_next_chunk(&mut mem, 100).unwrap();
        assert_eq!(mem.frames().pinned_pages(), 8);

        // munmap of the first buffer fires a notifier covering r1 only.
        // The unpin is deferred: r1's pages go protocol-invisible at once,
        // but the frames stay attached until the batched drain.
        let events = mem.munmap(space, addr, 4 * PAGE_SIZE).unwrap();
        assert_eq!(events.len(), 1);
        let hit = d.handle_invalidate(&mut mem, &events[0]);
        assert_eq!(hit, vec![(r1, 4)]);
        assert!(d.has_deferred());
        assert_eq!(mem.frames().pinned_pages(), 8, "release is deferred");
        assert_eq!(d.region(r1).valid_pages(), 0);
        assert_eq!(d.region(r1).stale_pages(), 4);
        assert_eq!(d.region(r1).generation, 1);
        assert!(d.region(r2).fully_pinned());
        assert_eq!(d.region(r2).generation, 0);

        // The drain releases exactly r1's stale suffix, in one batch.
        let (released, cancelled) = d.drain_deferred(&mut mem);
        assert_eq!(released, vec![(r1, 4)]);
        assert!(cancelled.is_empty());
        assert!(!d.has_deferred());
        assert_eq!(mem.frames().pinned_pages(), 4);
        assert!(d.region(r1).unpinned());
        assert!(d.region(r2).fully_pinned());
        // r1 stays *declared* — it may repin later (after a remap).
        assert!(d.is_declared(r1));
        let s = d.stats();
        assert_eq!(s.notifier_events, 1);
        assert_eq!(s.notifier_deferred, 1);
        assert_eq!(s.notifier_region_unpins, 1);
        assert_eq!(s.notifier_cancelled, 0);
        assert_eq!(s.notifier_drain_batches, 1);
    }

    #[test]
    fn eager_path_still_unpins_inside_the_event() {
        // The differential baseline keeps the old semantics exactly.
        let (mut mem, space, addr) = setup();
        let mut d = Driver::new(None);
        let r1 = d
            .declare(
                space,
                &[Segment {
                    addr,
                    len: 4 * PAGE_SIZE,
                }],
            )
            .unwrap();
        d.region_mut(r1).pin_next_chunk(&mut mem, 100).unwrap();
        let events = mem.munmap(space, addr, 4 * PAGE_SIZE).unwrap();
        let hit = d.handle_invalidate_eager(&mut mem, &events[0]);
        assert_eq!(hit, vec![(r1, 4)]);
        assert_eq!(mem.frames().pinned_pages(), 0);
        assert!(d.region(r1).unpinned());
        assert!(!d.has_deferred());
        assert_eq!(d.stats().notifier_region_unpins, 1);
        assert_eq!(d.stats().notifier_deferred, 0);
    }

    #[test]
    fn partial_invalidation_unpins_only_the_invalidated_tail() {
        // Regression for the tentpole bug: the eager path used to
        // unpin_all the whole region on a partial-range hit. Through the
        // deferred path, a 2-page trim of a 16-page region costs exactly
        // those 2 pages at drain time.
        let (mut mem, space, addr) = setup();
        let mut d = Driver::new(None);
        let r = d
            .declare(
                space,
                &[Segment {
                    addr,
                    len: 16 * PAGE_SIZE,
                }],
            )
            .unwrap();
        d.region_mut(r).pin_next_chunk(&mut mem, 100).unwrap();
        assert_eq!(mem.frames().pinned_pages(), 16);

        let events = mem
            .munmap(space, addr.add(14 * PAGE_SIZE), 2 * PAGE_SIZE)
            .unwrap();
        let hit = d.handle_invalidate(&mut mem, &events[0]);
        assert_eq!(hit, vec![(r, 2)]);
        let (released, cancelled) = d.drain_deferred(&mut mem);
        assert_eq!(released, vec![(r, 2)]);
        assert!(cancelled.is_empty());
        assert_eq!(mem.frames().pinned_pages(), 14, "14 of 16 stay pinned");
        assert_eq!(d.region(r).pinned_pages(), 14);
        assert_eq!(d.pinned_pages_total(), 14);
    }

    #[test]
    fn repin_before_drain_cancels_the_deferred_unpin() {
        // The malloc-trim/realloc no-op: trim the tail, remap, repin — by
        // drain time there is nothing left to unpin and the entry
        // dissolves as cancelled.
        let (mut mem, space, addr) = setup();
        let mut d = Driver::new(None);
        let r = d
            .declare(
                space,
                &[Segment {
                    addr,
                    len: 8 * PAGE_SIZE,
                }],
            )
            .unwrap();
        d.region_mut(r).pin_next_chunk(&mut mem, 100).unwrap();
        let events = mem
            .munmap(space, addr.add(6 * PAGE_SIZE), 2 * PAGE_SIZE)
            .unwrap();
        d.handle_invalidate(&mut mem, &events[0]);
        assert!(d.has_deferred());
        mem.mmap_at(
            space,
            addr.add(6 * PAGE_SIZE),
            2 * PAGE_SIZE,
            Prot::ReadWrite,
        )
        .unwrap();
        d.region_mut(r).pin_next_chunk(&mut mem, 100).unwrap();
        assert!(d.region(r).fully_pinned());

        let (released, cancelled) = d.drain_deferred(&mut mem);
        assert!(released.is_empty());
        assert_eq!(cancelled, vec![r]);
        assert_eq!(d.stats().notifier_cancelled, 1);
        assert_eq!(d.stats().notifier_region_unpins, 0);
        assert!(d.region(r).fully_pinned());
        assert_eq!(mem.frames().pinned_pages(), 8);
    }

    #[test]
    fn back_to_back_trim_events_coalesce_into_one_pending_entry() {
        let (mut mem, space, addr) = setup();
        let mut d = Driver::new(None);
        let r = d
            .declare(
                space,
                &[Segment {
                    addr,
                    len: 16 * PAGE_SIZE,
                }],
            )
            .unwrap();
        d.region_mut(r).pin_next_chunk(&mut mem, 100).unwrap();
        // Three trims within one epoch: overlapping + adjacent ranges all
        // merge into the region's single stale watermark. The second and
        // third ranges overlap already-unmapped pages — simmem emits one
        // event per still-mapped subrange, like the kernel would.
        for (off, len) in [(14u64, 2u64), (12, 3), (10, 3)] {
            let events = mem
                .munmap(space, addr.add(off * PAGE_SIZE), len * PAGE_SIZE)
                .unwrap();
            for ev in &events {
                d.handle_invalidate(&mut mem, ev);
            }
        }
        assert_eq!(d.stats().notifier_deferred, 3, "three event hits");
        assert_eq!(d.region(r).stale_pages(), 6, "coalesced to pages 10..16");
        let (released, _) = d.drain_deferred(&mut mem);
        assert_eq!(released, vec![(r, 6)], "one region, one batch");
        assert_eq!(d.stats().notifier_drain_batches, 1);
        assert_eq!(mem.frames().pinned_pages(), 10);
    }

    #[test]
    fn release_cause_unpins_eagerly_through_the_deferred_path() {
        // Address-space teardown must not leave pins parked in the
        // deferred queue: the space is gone, there is no next use.
        let (mut mem, space, addr) = setup();
        let mut d = Driver::new(None);
        let r = d
            .declare(
                space,
                &[Segment {
                    addr,
                    len: 4 * PAGE_SIZE,
                }],
            )
            .unwrap();
        d.region_mut(r).pin_next_chunk(&mut mem, 100).unwrap();
        let events = mem.destroy_space(space).unwrap();
        assert!(events
            .iter()
            .any(|e| e.cause == simmem::InvalidateCause::Release));
        for ev in &events {
            d.handle_invalidate(&mut mem, ev);
        }
        assert_eq!(mem.frames().pinned_pages(), 0, "no deferral on release");
        assert!(d.region(r).unpinned());
        assert!(!d.has_deferred());
    }

    #[test]
    fn repin_after_invalidate_sees_new_mapping() {
        let (mut mem, space, addr) = setup();
        let mut d = Driver::new(None);
        let r = d
            .declare(
                space,
                &[Segment {
                    addr,
                    len: 2 * PAGE_SIZE,
                }],
            )
            .unwrap();
        mem.write(space, addr, b"first").unwrap();
        d.region_mut(r).pin_next_chunk(&mut mem, 100).unwrap();

        // free + malloc-again at the same VA (same size reuses the range).
        let events = mem.munmap(space, addr, 2 * PAGE_SIZE).unwrap();
        for ev in &events {
            d.handle_invalidate(&mut mem, ev);
        }
        // Deferred: the stale pages must already be invisible, or a read
        // here would see the *old* frames ("first").
        assert!(d.region(r).capture(&mem, 0, 6).is_err());
        let again = mem.mmap(space, 2 * PAGE_SIZE, Prot::ReadWrite).unwrap();
        assert_eq!(again, addr);
        mem.write(space, addr, b"second").unwrap();

        // The driver repins on next use and reads the *new* data.
        d.region_mut(r).pin_next_chunk(&mut mem, 100).unwrap();
        let snap = d.region(r).capture(&mem, 0, 6).unwrap();
        assert_eq!(snap.to_vec(), b"second");
        // The repin beat the drain: the pending unpin dissolves.
        let (released, cancelled) = d.drain_deferred(&mut mem);
        assert!(released.is_empty());
        assert_eq!(cancelled, vec![r]);
        d.region_mut(r).unpin_all(&mut mem);
    }

    #[test]
    fn interval_index_agrees_with_naive_scan() {
        // Differential: for a soup of declared/undeclared vectorial
        // regions, the index must answer every query exactly like the
        // full-table scan, in the same (ascending id) order.
        let mut mem = Memory::new(4096, 0);
        let space = mem.create_space();
        let other = mem.create_space();
        let addr = mem.mmap(space, 256 * PAGE_SIZE, Prot::ReadWrite).unwrap();
        mem.mmap(other, 256 * PAGE_SIZE, Prot::ReadWrite).unwrap();
        let mut d = Driver::new(None);
        let mut state = 0xdead_beef_cafe_f00du64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut live = Vec::new();
        for round in 0..200u32 {
            let roll = rng() % 10;
            if roll < 6 || live.len() < 4 {
                let s = if rng() % 4 == 0 { other } else { space };
                let nsegs = 1 + rng() % 3;
                let segs: Vec<Segment> = (0..nsegs)
                    .map(|_| Segment {
                        addr: addr.add((rng() % 240) * PAGE_SIZE + rng() % 64),
                        len: (1 + rng() % 8) * PAGE_SIZE,
                    })
                    .collect();
                live.push(d.declare(s, &segs).unwrap());
            } else {
                let victim = live.swap_remove((rng() % live.len() as u64) as usize);
                d.undeclare(&mut mem, victim);
            }
            // Query a few random windows every round, in both spaces.
            for _ in 0..4 {
                let base = addr.vpn().0 + rng() % 250;
                let range = VpnRange::new(Vpn(base), Vpn(base + 1 + rng() % 12));
                for s in [space, other] {
                    assert_eq!(
                        d.regions_intersecting(s, &range),
                        d.regions_intersecting_naive(s, &range),
                        "index diverged at round {round} range {range:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn pressure_evicts_idle_lru_regions() {
        let (mut mem, space, addr) = setup();
        let mut d = Driver::new(Some(8));
        let r1 = d
            .declare(
                space,
                &[Segment {
                    addr,
                    len: 4 * PAGE_SIZE,
                }],
            )
            .unwrap();
        let r2 = d
            .declare(
                space,
                &[Segment {
                    addr: addr.add(4 * PAGE_SIZE),
                    len: 4 * PAGE_SIZE,
                }],
            )
            .unwrap();
        d.region_mut(r1).pin_next_chunk(&mut mem, 100).unwrap();
        d.region_mut(r1).last_use = SimTime::from_nanos(10);
        d.region_mut(r2).pin_next_chunk(&mut mem, 100).unwrap();
        d.region_mut(r2).last_use = SimTime::from_nanos(20);
        assert_eq!(mem.frames().pinned_pages(), 8);

        // Need 4 more pages: r1 (older) must go.
        let evicted = d.pressure_evict(&mut mem, 4, SimTime::from_nanos(30), None);
        assert_eq!(evicted, vec![(r1, 4)]);
        assert_eq!(mem.frames().pinned_pages(), 4);

        // In-use regions are never victims.
        d.region_mut(r2).use_count = 1;
        let evicted = d.pressure_evict(&mut mem, 100, SimTime::from_nanos(40), None);
        assert!(evicted.is_empty());
        assert_eq!(d.stats().pressure_unpinned_pages, 4);
    }

    #[test]
    fn lru_heap_tracks_stale_stamps_and_warm_entries() {
        // A warm heap (note_region_idle called as the engine would) with
        // stamps that have since moved must still evict in exact
        // oldest-first order.
        let (mut mem, space, addr) = setup();
        let mut d = Driver::new(Some(0));
        let mut ids = Vec::new();
        for i in 0..4u64 {
            let r = d
                .declare(
                    space,
                    &[Segment {
                        addr: addr.add(i * PAGE_SIZE),
                        len: PAGE_SIZE,
                    }],
                )
                .unwrap();
            d.region_mut(r).pin_next_chunk(&mut mem, 100).unwrap();
            d.region_mut(r).last_use = SimTime::from_nanos(100 + i);
            d.note_region_idle(r);
            ids.push(r);
        }
        // Move region 0 *forward* after its heap entry was pushed (a
        // touch whose note_region_idle got lost): the stale stamp is
        // detected on pop and re-filed at its current position, so the
        // eviction order is still exactly oldest-first.
        d.region_mut(ids[0]).last_use = SimTime::from_nanos(200);
        let evicted = d.pressure_evict(&mut mem, 0, SimTime::from_nanos(300), None);
        assert_eq!(
            evicted,
            vec![(ids[1], 1), (ids[2], 1), (ids[3], 1), (ids[0], 1)]
        );
        assert_eq!(mem.frames().pinned_pages(), 0);
        // The heap saw real work (pops), not a silent fallback scan.
        assert!(d.stats().evict_lru_pops >= 4);
    }

    #[test]
    fn garbage_ids_probe_gracefully() {
        // A never-allocated id (way beyond the table) must hit the same
        // `unknown region` path as an undeclared one — never a raw index
        // out-of-bounds panic.
        let (_, space, addr) = setup();
        let mut d = Driver::new(None);
        let bogus = RegionId(9999);
        assert!(!d.is_declared(bogus));
        assert!(d.try_region(bogus).is_none());
        assert!(d.try_region_mut(bogus).is_none());
        let r = d
            .declare(
                space,
                &[Segment {
                    addr,
                    len: PAGE_SIZE,
                }],
            )
            .unwrap();
        assert!(d.try_region(r).is_some());
        assert_eq!(d.iter_regions().count(), 1);
    }

    #[test]
    #[should_panic(expected = "unknown region RegionId(9999)")]
    fn region_of_garbage_id_panics_with_unknown_region() {
        let d = Driver::new(None);
        d.region(RegionId(9999));
    }

    #[test]
    #[should_panic(expected = "unknown region RegionId(9999)")]
    fn region_mut_of_garbage_id_panics_with_unknown_region() {
        let mut d = Driver::new(None);
        d.region_mut(RegionId(9999));
    }

    #[test]
    #[should_panic(expected = "undeclare of unknown region RegionId(9999)")]
    fn undeclare_of_garbage_id_panics_with_unknown_region() {
        let (mut mem, _, _) = setup();
        let mut d = Driver::new(None);
        d.undeclare(&mut mem, RegionId(9999));
    }

    #[test]
    fn invalidate_during_pin_in_progress_bumps_generation() {
        // An unmap can land while a region's pin pass is queued on a core
        // but before any page is pinned. The region is "unpinned", yet the
        // invalidation must still be surfaced — and the generation bump is
        // what makes the in-flight pass restart instead of resurrecting
        // just-invalidated pages.
        let (mut mem, space, addr) = setup();
        let mut d = Driver::new(None);
        let r = d
            .declare(
                space,
                &[Segment {
                    addr,
                    len: 2 * PAGE_SIZE,
                }],
            )
            .unwrap();
        d.region_mut(r).pinning_in_progress = true;
        let events = mem.munmap(space, addr, 2 * PAGE_SIZE).unwrap();
        let hit = d.handle_invalidate(&mut mem, &events[0]);
        // Nothing is behind the cursor yet, so there is nothing the pass
        // could resurrect: the queued pin executes against the *current*
        // (post-unmap) page tables anyway. No hit, no generation bump —
        // a bump here would be a spurious pass restart.
        assert!(hit.is_empty());
        assert_eq!(d.region(r).generation, 0, "no stale pages, no restart");
        assert!(
            d.region(r).pinning_in_progress,
            "the pass flag stays with the engine's restart logic"
        );
        // The real race: pages already behind the cursor when the unmap
        // lands. They go stale at once, the generation bump restarts the
        // in-flight pass, and the frames come off at the drain.
        let again = mem.mmap(space, 2 * PAGE_SIZE, Prot::ReadWrite).unwrap();
        assert_eq!(again, addr);
        d.region_mut(r).pin_next_chunk(&mut mem, 1).unwrap();
        let events = mem.munmap(space, addr, 2 * PAGE_SIZE).unwrap();
        let hit = d.handle_invalidate(&mut mem, &events[0]);
        assert_eq!(hit, vec![(r, 1)]);
        assert_eq!(d.region(r).generation, 1, "pass must observe the bump");
        assert_eq!(d.region(r).valid_pages(), 0);
        let (released, _) = d.drain_deferred(&mut mem);
        assert_eq!(released, vec![(r, 1)]);
        assert_eq!(mem.frames().pinned_pages(), 0);
    }

    #[test]
    fn invalidation_range_is_filtered_by_address_space() {
        // Two spaces map the same virtual range (VAs are per-space), each
        // with a declared, pinned region over it. A notifier event names a
        // space; only that space's region may be invalidated even though
        // the other region's layout intersects the range numerically.
        let mut mem = Memory::new(1024, 0);
        let s1 = mem.create_space();
        let s2 = mem.create_space();
        mem.register_notifier(s1).unwrap();
        mem.register_notifier(s2).unwrap();
        let a1 = mem.mmap(s1, 4 * PAGE_SIZE, Prot::ReadWrite).unwrap();
        let a2 = mem.mmap(s2, 4 * PAGE_SIZE, Prot::ReadWrite).unwrap();
        assert_eq!(a1, a2, "fresh spaces hand out the same base address");
        let mut d = Driver::new(None);
        let r1 = d
            .declare(
                s1,
                &[Segment {
                    addr: a1,
                    len: 4 * PAGE_SIZE,
                }],
            )
            .unwrap();
        let r2 = d
            .declare(
                s2,
                &[Segment {
                    addr: a2,
                    len: 4 * PAGE_SIZE,
                }],
            )
            .unwrap();
        d.region_mut(r1).pin_next_chunk(&mut mem, 100).unwrap();
        d.region_mut(r2).pin_next_chunk(&mut mem, 100).unwrap();
        assert_eq!(mem.frames().pinned_pages(), 8);

        // s1's unmap straddles both regions' numeric ranges.
        let events = mem.munmap(s1, a1, 4 * PAGE_SIZE).unwrap();
        let hit = d.handle_invalidate(&mut mem, &events[0]);
        assert_eq!(hit, vec![(r1, 4)]);
        let (released, _) = d.drain_deferred(&mut mem);
        assert_eq!(released, vec![(r1, 4)]);
        assert!(d.region(r1).unpinned());
        assert!(d.region(r2).fully_pinned(), "other space untouched");
        assert_eq!(mem.frames().pinned_pages(), 4);
    }

    #[test]
    fn pressure_eviction_skips_region_mid_repin() {
        // A repin racing memory pressure: the older region is mid-pin
        // (in_progress), so eviction must take the younger idle one — and
        // give up entirely when only in-progress regions remain, rather
        // than unpinning pages the racing pin pass immediately re-pins.
        let (mut mem, space, addr) = setup();
        let mut d = Driver::new(Some(6));
        let r1 = d
            .declare(
                space,
                &[Segment {
                    addr,
                    len: 4 * PAGE_SIZE,
                }],
            )
            .unwrap();
        let r2 = d
            .declare(
                space,
                &[Segment {
                    addr: addr.add(4 * PAGE_SIZE),
                    len: 4 * PAGE_SIZE,
                }],
            )
            .unwrap();
        d.region_mut(r1).pin_next_chunk(&mut mem, 100).unwrap();
        d.region_mut(r1).last_use = SimTime::from_nanos(10);
        d.region_mut(r1).pinning_in_progress = true;
        d.region_mut(r2).pin_next_chunk(&mut mem, 100).unwrap();
        d.region_mut(r2).last_use = SimTime::from_nanos(20);

        // r1 is older but repinning: r2 must be the victim.
        let evicted = d.pressure_evict(&mut mem, 4, SimTime::from_nanos(30), None);
        assert_eq!(evicted, vec![(r2, 4)]);
        assert!(d.region(r1).fully_pinned());

        // Only the in-progress region is left: no victim, no livelock.
        let evicted = d.pressure_evict(&mut mem, 100, SimTime::from_nanos(40), None);
        assert!(evicted.is_empty());
        assert_eq!(mem.frames().pinned_pages(), 4);
    }

    /// Randomized differential oracle (same shape as the
    /// `interval_index_agrees_with_naive_scan` cross-check): twin worlds
    /// run the same mapping/churn schedule, one routing notifier events
    /// through the deferred-drain path, the other through the old eager
    /// path. The deferred world must (a) keep pin accounting exact at
    /// every step, (b) never expose a valid page whose PTE disagrees with
    /// the attached frame — the invariant the eager path enforces
    /// trivially by unpinning inside the event — and (c) read exactly the
    /// bytes the application sees wherever the eager world can read.
    #[test]
    fn deferred_drain_agrees_with_eager_oracle_under_random_churn() {
        const PAGES: u64 = 16;
        const REGIONS: u64 = 3;
        let build = || {
            let mut mem = Memory::new(256, 0);
            let space = mem.create_space();
            mem.register_notifier(space).unwrap();
            let addr = mem
                .mmap(space, REGIONS * PAGES * PAGE_SIZE, Prot::ReadWrite)
                .unwrap();
            let mut d = Driver::new(None);
            let ids: Vec<RegionId> = (0..REGIONS)
                .map(|i| {
                    d.declare(
                        space,
                        &[Segment {
                            addr: addr.add(i * PAGES * PAGE_SIZE),
                            len: PAGES * PAGE_SIZE,
                        }],
                    )
                    .unwrap()
                })
                .collect();
            (mem, space, addr, d, ids)
        };
        let (mut mem_a, space_a, addr_a, mut da, ids_a) = build();
        let (mut mem_b, space_b, addr_b, mut db, ids_b) = build();
        assert_eq!(addr_a, addr_b);

        let mut state = 0x5eed_cafe_0000_0042u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let check = |da: &Driver, db: &Driver, mem_a: &Memory, mem_b: &Memory, round: u32| {
            assert_eq!(
                da.pinned_pages_total(),
                mem_a.frames().pinned_pages() as u64,
                "deferred world accounting drifted at round {round}"
            );
            assert_eq!(
                db.pinned_pages_total(),
                mem_b.frames().pinned_pages() as u64,
                "eager world accounting drifted at round {round}"
            );
            for (id, r) in da.iter_regions() {
                for idx in 0..r.valid_pages() {
                    let vpn = r.layout.vpn_of_page(idx);
                    assert_eq!(
                        mem_a.resident_pfn(r.space, vpn),
                        Some(r.pinned_pfns()[idx as usize]),
                        "deferred {id:?} exposes page {idx} whose PTE moved (round {round})"
                    );
                }
                let eager = db.region(id);
                assert!(
                    eager.valid_pages() <= r.valid_pages(),
                    "eager kept more than deferred at round {round}"
                );
            }
        };

        for round in 0..150u32 {
            let i = (rng() % REGIONS) as usize;
            match rng() % 4 {
                // Trim a random tail of region i, feed each world its own
                // events, then remap + rewrite the hole identically.
                0 | 1 => {
                    let s = 1 + rng() % (PAGES - 1);
                    let off = (i as u64 * PAGES + s) * PAGE_SIZE;
                    let len = (PAGES - s) * PAGE_SIZE;
                    for ev in mem_a.munmap(space_a, addr_a.add(off), len).unwrap() {
                        da.handle_invalidate(&mut mem_a, &ev);
                    }
                    for ev in mem_b.munmap(space_b, addr_b.add(off), len).unwrap() {
                        db.handle_invalidate_eager(&mut mem_b, &ev);
                    }
                    mem_a
                        .mmap_at(space_a, addr_a.add(off), len, Prot::ReadWrite)
                        .unwrap();
                    mem_b
                        .mmap_at(space_b, addr_b.add(off), len, Prot::ReadWrite)
                        .unwrap();
                    let fill: Vec<u8> = (0..len).map(|j| (rng() ^ j) as u8).collect();
                    mem_a.write(space_a, addr_a.add(off), &fill).unwrap();
                    mem_b.write(space_b, addr_b.add(off), &fill).unwrap();
                }
                // Repin region i to full in both worlds and compare what
                // the driver reads against the application bytes.
                2 => {
                    loop {
                        if da
                            .region_mut(ids_a[i])
                            .pin_next_chunk(&mut mem_a, 4)
                            .unwrap()
                            .complete
                        {
                            break;
                        }
                    }
                    loop {
                        if db
                            .region_mut(ids_b[i])
                            .pin_next_chunk(&mut mem_b, 4)
                            .unwrap()
                            .complete
                        {
                            break;
                        }
                    }
                    let len = PAGES * PAGE_SIZE;
                    let via_a = da.region(ids_a[i]).capture(&mem_a, 0, len).unwrap();
                    let via_b = db.region(ids_b[i]).capture(&mem_b, 0, len).unwrap();
                    let (via_a, via_b) = (via_a.to_vec(), via_b.to_vec());
                    assert_eq!(via_a, via_b, "driver reads diverged at round {round}");
                }
                // Epoch close in the deferred world.
                _ => {
                    da.drain_deferred(&mut mem_a);
                }
            }
            check(&da, &db, &mem_a, &mem_b, round);
        }
        // Final drain: both worlds settle to the same protocol state.
        da.drain_deferred(&mut mem_a);
        for (id, r) in da.iter_regions() {
            assert_eq!(r.stale_pages(), 0);
            assert!(r.generation >= db.region(id).generation);
        }
        check(&da, &db, &mem_a, &mem_b, 999);
    }

    #[test]
    fn pressure_eviction_settles_pending_deferred_unpin() {
        // Satellite regression (counter signature): a victim parked in
        // the deferred-unpin queue must leave the queue with its
        // eviction. Before the fix the entry stayed behind: the next
        // drain found the stale suffix already gone and booked a spurious
        // *cancelled* unpin — double-booking pages the churnstorm cancel
        // ratio is built on.
        let (mut mem, space, addr) = setup();
        let mut d = Driver::new(Some(4));
        let r = d
            .declare(
                space,
                &[Segment {
                    addr,
                    len: 8 * PAGE_SIZE,
                }],
            )
            .unwrap();
        d.region_mut(r).pin_next_chunk(&mut mem, 100).unwrap();
        let events = mem
            .munmap(space, addr.add(6 * PAGE_SIZE), 2 * PAGE_SIZE)
            .unwrap();
        d.handle_invalidate(&mut mem, &events[0]);
        assert!(d.has_deferred());
        assert_eq!(d.region(r).stale_pages(), 2);
        d.note_region_idle(r);

        let evicted = d.pressure_evict(&mut mem, 0, SimTime::from_nanos(10), None);
        assert_eq!(evicted, vec![(r, 8)], "stale suffix goes with the victim");
        assert!(!d.has_deferred(), "pending drain settled, not orphaned");
        let (released, cancelled) = d.drain_deferred(&mut mem);
        assert!(released.is_empty());
        assert!(cancelled.is_empty());
        let s = d.stats();
        assert_eq!(s.pressure_unpinned_pages, 8);
        assert_eq!(s.notifier_cancelled, 0, "no spurious cancelled unpin");
        assert_eq!(s.notifier_drain_batches, 0, "nothing was left to drain");
    }

    #[test]
    fn declare_undeclare_churn_keeps_eviction_heap_bounded() {
        // Satellite regression: recycled slots leave one dead
        // `(last_use, id)` stamp per round, and the one-rebuild-per-call
        // fallback in pressure_evict never amortizes them. The rebuild
        // bound in note_region_idle must keep the heap O(live regions).
        let (mut mem, space, addr) = setup();
        let mut d = Driver::new(None);
        for round in 0..1000u64 {
            let r = d
                .declare(
                    space,
                    &[Segment {
                        addr,
                        len: PAGE_SIZE,
                    }],
                )
                .unwrap();
            assert_eq!(r, RegionId(0), "slot is recycled every round");
            d.region_mut(r).pin_next_chunk(&mut mem, 100).unwrap();
            d.region_mut(r).last_use = SimTime::from_nanos(round);
            d.note_region_idle(r);
            assert!(
                d.lru_len() <= 2 * d.declared_count() + 8,
                "heap grew unbounded: {} entries at round {round}",
                d.lru_len()
            );
            d.undeclare(&mut mem, r);
        }
    }

    #[test]
    fn failed_partial_pin_rolls_back_attribution() {
        // Satellite regression: a pin pass dying mid-run (frame pool
        // exhausted) rolls its pages back via PartialPin — the tenant's
        // attributed count must roll back with them, or every failed
        // pass permanently leaks budget headroom.
        let mut mem = Memory::new(3, 0);
        let space = mem.create_space();
        mem.register_notifier(space).unwrap();
        let addr = mem.mmap(space, 8 * PAGE_SIZE, Prot::ReadWrite).unwrap();
        let mut d = Driver::new(None);
        let r = d
            .declare_owned(
                space,
                ProcId(7),
                &[Segment {
                    addr,
                    len: 8 * PAGE_SIZE,
                }],
            )
            .unwrap();
        assert!(d.pin_chunk(&mut mem, r, 100, false).is_err());
        assert_eq!(d.pinned_pages_of(ProcId(7)), 0, "attribution rolled back");
        assert_eq!(d.pinned_pages_total(), 0);
        assert_eq!(mem.frames().pinned_pages(), 0);
    }

    #[test]
    fn attributed_pins_follow_the_owner_through_release() {
        let (mut mem, space, addr) = setup();
        let mut d = Driver::new(None);
        let a = d
            .declare_owned(
                space,
                ProcId(1),
                &[Segment {
                    addr,
                    len: 4 * PAGE_SIZE,
                }],
            )
            .unwrap();
        let b = d
            .declare_owned(
                space,
                ProcId(2),
                &[Segment {
                    addr: addr.add(4 * PAGE_SIZE),
                    len: 2 * PAGE_SIZE,
                }],
            )
            .unwrap();
        d.pin_chunk(&mut mem, a, 100, false).unwrap();
        d.pin_chunk(&mut mem, b, 100, false).unwrap();
        assert_eq!(d.pinned_pages_of(ProcId(1)), 4);
        assert_eq!(d.pinned_pages_of(ProcId(2)), 2);
        let total: u64 = d.tenant_stats().iter().map(|(_, t)| t.pinned_pages).sum();
        assert_eq!(total, d.pinned_pages_total(), "Σ per-tenant == global");

        // Deferred invalidation keeps the frames attributed until the
        // drain actually releases them.
        let events = mem
            .munmap(space, addr.add(2 * PAGE_SIZE), 2 * PAGE_SIZE)
            .unwrap();
        d.handle_invalidate(&mut mem, &events[0]);
        assert_eq!(d.pinned_pages_of(ProcId(1)), 4, "stale still attached");
        d.drain_deferred(&mut mem);
        assert_eq!(d.pinned_pages_of(ProcId(1)), 2);

        assert_eq!(d.unpin_region(&mut mem, b), 2);
        assert_eq!(d.pinned_pages_of(ProcId(2)), 0);
        assert_eq!(d.undeclare(&mut mem, a), 2);
        assert_eq!(d.pinned_pages_of(ProcId(1)), 0);
        let stats = d.tenant_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].1.peak_pinned_pages, 4);
        assert_eq!(stats[1].1.peak_pinned_pages, 2);
    }

    #[test]
    fn weighted_eviction_charges_the_over_share_tenant_first() {
        // Aggressor (ProcId 1) pinned past its soft share; victim
        // (ProcId 2) under it but holding the *older* region. Quota-aware
        // pressure must evict the aggressor's region even though plain
        // LRU would take the victim's — and the fairness counters must
        // say nobody else paid.
        let (mut mem, space, addr) = setup();
        let mut d = Driver::new(Some(8));
        d.set_quota(Some(PinQuota {
            soft_share: 4,
            hard_cap: 16,
        }));
        let v = d
            .declare_owned(
                space,
                ProcId(2),
                &[Segment {
                    addr,
                    len: 4 * PAGE_SIZE,
                }],
            )
            .unwrap();
        let a = d
            .declare_owned(
                space,
                ProcId(1),
                &[Segment {
                    addr: addr.add(4 * PAGE_SIZE),
                    len: 8 * PAGE_SIZE,
                }],
            )
            .unwrap();
        d.pin_chunk(&mut mem, v, 100, false).unwrap();
        d.region_mut(v).last_use = SimTime::from_nanos(10);
        d.note_region_idle(v);
        d.pin_chunk(&mut mem, a, 100, false).unwrap();
        d.region_mut(a).last_use = SimTime::from_nanos(20);
        d.note_region_idle(a);

        let evicted = d.pressure_evict(&mut mem, 4, SimTime::from_nanos(30), Some(ProcId(1)));
        assert_eq!(evicted, vec![(a, 8)], "the over-share tenant pays");
        assert_eq!(d.pinned_pages_of(ProcId(1)), 0);
        assert_eq!(d.pinned_pages_of(ProcId(2)), 4, "victim untouched");
        for (p, t) in d.tenant_stats() {
            assert_eq!(
                t.evictions_suffered_from_others, 0,
                "tenant {p:?} suffered cross-tenant eviction"
            );
            assert_eq!(t.evictions_inflicted_on_others, 0);
        }

        // Without a quota the same layout evicts strictly by age: the
        // victim's older region goes first.
        let mut d2 = Driver::new(Some(8));
        let v2 = d2
            .declare_owned(
                space,
                ProcId(2),
                &[Segment {
                    addr,
                    len: 4 * PAGE_SIZE,
                }],
            )
            .unwrap();
        let a2 = d2
            .declare_owned(
                space,
                ProcId(1),
                &[Segment {
                    addr: addr.add(4 * PAGE_SIZE),
                    len: 8 * PAGE_SIZE,
                }],
            )
            .unwrap();
        d2.pin_chunk(&mut mem, v2, 100, false).unwrap();
        d2.region_mut(v2).last_use = SimTime::from_nanos(10);
        d2.note_region_idle(v2);
        d2.pin_chunk(&mut mem, a2, 100, false).unwrap();
        d2.region_mut(a2).last_use = SimTime::from_nanos(20);
        d2.note_region_idle(a2);
        let evicted = d2.pressure_evict(&mut mem, 4, SimTime::from_nanos(30), Some(ProcId(1)));
        assert_eq!(evicted[0].0, v2, "LRU order without quota");
        let suffered: u64 = d2
            .tenant_stats()
            .iter()
            .map(|(_, t)| t.evictions_suffered_from_others)
            .sum();
        assert_eq!(suffered, 4, "cross-tenant eviction is booked");
        assert_eq!(
            d2.tenant_stats()
                .iter()
                .find(|(p, _)| *p == ProcId(1))
                .unwrap()
                .1
                .evictions_inflicted_on_others,
            4
        );
    }

    #[test]
    fn tenant_self_eviction_never_touches_other_tenants() {
        let (mut mem, space, addr) = setup();
        let mut d = Driver::new(None);
        let a1 = d
            .declare_owned(
                space,
                ProcId(1),
                &[Segment {
                    addr,
                    len: 4 * PAGE_SIZE,
                }],
            )
            .unwrap();
        let a2 = d
            .declare_owned(
                space,
                ProcId(1),
                &[Segment {
                    addr: addr.add(4 * PAGE_SIZE),
                    len: 4 * PAGE_SIZE,
                }],
            )
            .unwrap();
        let b = d
            .declare_owned(
                space,
                ProcId(2),
                &[Segment {
                    addr: addr.add(8 * PAGE_SIZE),
                    len: 4 * PAGE_SIZE,
                }],
            )
            .unwrap();
        for (r, t) in [(a1, 10u64), (a2, 20), (b, 5)] {
            d.pin_chunk(&mut mem, r, 100, false).unwrap();
            d.region_mut(r).last_use = SimTime::from_nanos(t);
            d.note_region_idle(r);
        }
        // Tenant 1 must get down to 4 pages: its own *older* region goes;
        // tenant 2's region is older than both but is not a candidate.
        let evicted = d.pressure_evict_tenant(&mut mem, ProcId(1), 4);
        assert_eq!(evicted, vec![(a1, 4)]);
        assert_eq!(d.pinned_pages_of(ProcId(1)), 4);
        assert_eq!(d.pinned_pages_of(ProcId(2)), 4, "other tenant untouched");
        // Already at target: nothing more to do.
        assert!(d.pressure_evict_tenant(&mut mem, ProcId(1), 4).is_empty());
        // Unreachable target with nothing idle left evictable: the in-use
        // region is skipped and the loop gives up rather than livelocking.
        d.region_mut(a2).use_count = 1;
        assert!(d.pressure_evict_tenant(&mut mem, ProcId(1), 0).is_empty());
    }

    #[test]
    fn quota_enforcement_toggle_hides_quota_from_enforcement_only() {
        let mut d = Driver::new(None);
        let q = PinQuota {
            soft_share: 8,
            hard_cap: 16,
        };
        d.set_quota(Some(q));
        assert_eq!(d.quota(), Some(q));
        assert_eq!(d.enforced_quota(), Some(q));
        d.disable_quota_enforcement_for_test();
        assert_eq!(d.quota(), Some(q), "oracle still sees the quota");
        assert_eq!(d.enforced_quota(), None, "enforcement does not");
    }

    #[test]
    #[should_panic(expected = "in-use region")]
    fn undeclare_in_use_panics() {
        let (mut mem, space, addr) = setup();
        let mut d = Driver::new(None);
        let r = d
            .declare(
                space,
                &[Segment {
                    addr,
                    len: PAGE_SIZE,
                }],
            )
            .unwrap();
        d.region_mut(r).use_count = 1;
        d.undeclare(&mut mem, r);
    }
}
