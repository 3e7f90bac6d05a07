//! User regions and the decoupled pin state machine.
//!
//! A *user region* is the driver-side object behind the integer descriptor
//! user space manipulates: a vector of `(addr, len)` segments in one
//! address space (§3.2 — regions may be vectorial). Declaration never pins
//! anything. The driver pins **on demand**, in page chunks and in region
//! order, which is what makes overlapped pinning possible: the in-order
//! data transfer only ever needs the pages behind the *pin cursor*.
//!
//! Accessors take the byte-offset view: `capture`/`land` at a region offset
//! translate to physical frames of the pinned pages, and fail with
//! [`RegionAccessError::NotPinned`] when the cursor has not reached the
//! touched pages — the overlap-miss case the engine turns into a packet
//! drop.

use simcore::SimTime;
use simmem::{
    AsId, MemError, Memory, NotifierEvent, PageSnapshot, Pfn, VirtAddr, Vpn, VpnRange, PAGE_SIZE,
};

use crate::engine::{PinPass, ProcId};

/// One contiguous piece of a (possibly vectorial) user region.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Segment {
    /// Start address (need not be page aligned).
    pub addr: VirtAddr,
    /// Length in bytes.
    pub len: u64,
}

impl Segment {
    /// Pages covering this segment.
    pub fn page_range(&self) -> VpnRange {
        VpnRange::covering(self.addr, self.len)
    }
}

#[derive(Clone, Debug)]
struct SegMeta {
    seg: Segment,
    /// Byte offset of this segment within the region.
    byte_start: u64,
    /// Index of the segment's first page in the flattened page list.
    page_start: u64,
}

/// The immutable shape of a region: segments plus derived page geometry.
#[derive(Clone, Debug)]
pub struct RegionLayout {
    segs: Vec<SegMeta>,
    total_len: u64,
    total_pages: u64,
}

/// Why a region declaration was rejected at the syscall boundary.
///
/// User space hands the driver an arbitrary segment vector; a hostile or
/// buggy caller must get an error back, never a kernel panic.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeclareError {
    /// Every segment had zero length — there is nothing to pin.
    EmptyRegion,
}

impl std::fmt::Display for DeclareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeclareError::EmptyRegion => write!(f, "empty region (all segments zero-length)"),
        }
    }
}

impl RegionLayout {
    /// Build a layout from segments (empty segments are dropped).
    ///
    /// # Panics
    /// Panics if the region has zero total length; use
    /// [`RegionLayout::try_new`] for untrusted input.
    pub fn new(segments: &[Segment]) -> Self {
        Self::try_new(segments).expect("empty region")
    }

    /// Build a layout from segments (empty segments are dropped), rejecting
    /// a region with zero total length instead of panicking.
    pub fn try_new(segments: &[Segment]) -> Result<Self, DeclareError> {
        let mut segs = Vec::with_capacity(segments.len());
        let mut byte_start = 0u64;
        let mut page_start = 0u64;
        for seg in segments.iter().filter(|s| s.len > 0) {
            let pages = seg.page_range().len();
            segs.push(SegMeta {
                seg: *seg,
                byte_start,
                page_start,
            });
            byte_start += seg.len;
            page_start += pages;
        }
        if byte_start == 0 {
            return Err(DeclareError::EmptyRegion);
        }
        Ok(RegionLayout {
            segs,
            total_len: byte_start,
            total_pages: page_start,
        })
    }

    /// Total bytes across all segments.
    pub fn total_len(&self) -> u64 {
        self.total_len
    }

    /// Total pages in the flattened page list.
    pub fn total_pages(&self) -> u64 {
        self.total_pages
    }

    /// The segments of this region.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.segs.iter().map(|m| m.seg)
    }

    /// The virtual page behind flattened page index `idx`.
    pub fn vpn_of_page(&self, idx: u64) -> Vpn {
        let m = self
            .segs
            .iter()
            .rev()
            .find(|m| m.page_start <= idx)
            .expect("page index out of range");
        let rel = idx - m.page_start;
        debug_assert!(rel < m.seg.page_range().len(), "page index out of range");
        Vpn(m.seg.addr.page_floor().vpn().0 + rel)
    }

    /// Visit the `(page_index, vpn, page_offset, chunk_len)` pieces
    /// covering region bytes `[offset, offset + len)`.
    ///
    /// # Panics
    /// Panics if the range exceeds the region.
    pub fn for_each_chunk(&self, offset: u64, len: u64, mut f: impl FnMut(u64, Vpn, u64, u64)) {
        self.assert_in_bounds(offset, len);
        let mut remaining = len;
        let mut off = offset;
        for m in &self.segs {
            if remaining == 0 {
                break;
            }
            let seg_end = m.byte_start + m.seg.len;
            if off >= seg_end {
                continue;
            }
            let rel = off - m.byte_start;
            let in_seg = (m.seg.len - rel).min(remaining);
            let base_vpn = m.seg.addr.page_floor().vpn();
            for (vpn, page_off, n) in simmem::page_chunks(m.seg.addr.add(rel), in_seg) {
                let page_idx = m.page_start + (vpn.0 - base_vpn.0);
                f(page_idx, vpn, page_off, n);
            }
            off += in_seg;
            remaining -= in_seg;
        }
        debug_assert_eq!(remaining, 0);
    }

    /// The flattened page indexes covering bytes `[offset, offset+len)`,
    /// as an inclusive range `(first, last)`: the pages of the first and
    /// the last byte.
    ///
    /// # Panics
    /// Panics if the range is empty or exceeds the region.
    pub fn page_index_span(&self, offset: u64, len: u64) -> (u64, u64) {
        assert!(len > 0, "empty span");
        self.assert_in_bounds(offset, len);
        (
            self.page_of_byte(offset),
            self.page_of_byte(offset + len - 1),
        )
    }

    /// The flattened page index of region byte `offset`, which must lie
    /// inside the region.
    fn page_of_byte(&self, offset: u64) -> u64 {
        let m = &self.segs[self.segs.partition_point(|m| m.byte_start <= offset) - 1];
        let vpn = m.seg.addr.add(offset - m.byte_start).vpn();
        m.page_start + (vpn.0 - m.seg.addr.vpn().0)
    }

    fn assert_in_bounds(&self, offset: u64, len: u64) {
        // checked_add: a hostile offset near u64::MAX must not wrap past
        // the bound and walk the segment list with garbage offsets.
        assert!(
            offset
                .checked_add(len)
                .is_some_and(|end| end <= self.total_len),
            "region access out of bounds: {offset}+{len} > {}",
            self.total_len
        );
    }

    /// True if any page of the region falls in `range` of space `space`
    /// (MMU-notifier routing test).
    pub fn intersects(&self, range: &VpnRange) -> bool {
        self.segs.iter().any(|m| m.seg.page_range().overlaps(range))
    }
}

/// Errors from region accessors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegionAccessError {
    /// The touched pages are beyond the pin cursor (overlap miss) or the
    /// region is not pinned at all.
    NotPinned,
}

/// Pin progress report from [`DriverRegion::pin_next_chunk`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PinProgress {
    /// Pages pinned by this chunk.
    pub pages_pinned: u64,
    /// True when the whole region is now pinned.
    pub complete: bool,
    /// True if this chunk was the first of the region (pays the base cost).
    pub first_chunk: bool,
    /// Notifier events the pin itself generated (COW breaks under
    /// `get_user_pages` write faults). The caller must dispatch these to
    /// the driver like any other MMU-notifier invalidation: *other*
    /// regions pinned over the same pages still hold the pre-break frames
    /// and have to learn their PTEs moved. Dropping them is the silent
    /// stale-frame bug the `StaleVisible` oracle catches.
    pub cow_events: Vec<NotifierEvent>,
}

/// A declared region inside the driver, with its decoupled pin state.
#[derive(Debug)]
pub struct DriverRegion {
    /// Geometry.
    pub layout: RegionLayout,
    /// Owning address space.
    pub space: AsId,
    /// Tenant (process) every pinned page of this region is attributed
    /// to. Raw declares default to `ProcId(0)`; the engine declares
    /// through [`crate::Driver::declare_owned`] so each region carries
    /// its real owner for quota accounting and weighted-fair eviction.
    pub owner: ProcId,
    /// Physical frames of pages `0..pfns.len()` — the pin cursor.
    pfns: Vec<Pfn>,
    /// Stale watermark: when `Some(w)`, pages `w..pfns.len()` were hit by
    /// an MMU-notifier invalidation. Their frames are still *held* (pin
    /// accounting stays exact) but they are invisible to the protocol —
    /// [`DriverRegion::pinned_through`] stops at the watermark, so a stale
    /// access is an ordinary overlap miss. The frames are released in one
    /// batch by [`DriverRegion::release_stale`], either lazily at the next
    /// pin pass or by the driver's deferred drain.
    stale_from: Option<u64>,
    /// Active communications using this region.
    pub use_count: u32,
    /// Last time a communication used this region (pressure LRU).
    pub last_use: SimTime,
    /// The pin pass driving the cursor while one is queued or running on
    /// a core. The driver asks only whether there is one: a region in
    /// mid-pass is busy even while its cursor still reads zero.
    pub(crate) pass: Option<PinPass>,
    /// Undeclare the region once its last communication releases it: set
    /// at declaration in the modes without a cache, and when the cache
    /// evicts a region still in use.
    pub undeclare_when_idle: bool,
    /// Invalidation generation, bumped by the driver on every notifier hit.
    /// A pin pass stamps the generation it started under and restarts when
    /// a completed chunk observes a newer one — the simulated equivalent of
    /// `mmu_notifier_retry` making `get_user_pages` start over, which is
    /// what keeps an in-flight pass from resurrecting just-invalidated
    /// pages as if nothing happened.
    pub generation: u64,
}

impl DriverRegion {
    /// Declare a region (no pinning).
    ///
    /// # Panics
    /// Panics on a zero-length region; use [`DriverRegion::try_new`] for
    /// untrusted input.
    pub fn new(space: AsId, segments: &[Segment]) -> Self {
        Self::try_new(space, segments).expect("empty region")
    }

    /// Declare a region (no pinning), rejecting a zero-length segment
    /// vector instead of panicking.
    pub fn try_new(space: AsId, segments: &[Segment]) -> Result<Self, DeclareError> {
        Ok(DriverRegion {
            layout: RegionLayout::try_new(segments)?,
            space,
            owner: ProcId(0),
            pfns: Vec::new(),
            stale_from: None,
            use_count: 0,
            last_use: SimTime::ZERO,
            pass: None,
            undeclare_when_idle: false,
            generation: 0,
        })
    }

    /// Pages whose frames are attached (valid *and* stale) — what pin
    /// accounting counts, since stale frames are still held.
    pub fn pinned_pages(&self) -> u64 {
        self.pfns.len() as u64
    }

    /// Pages the protocol may use: the pin cursor up to the stale
    /// watermark. Equals [`DriverRegion::pinned_pages`] unless a notifier
    /// invalidation marked a suffix stale.
    pub fn valid_pages(&self) -> u64 {
        self.stale_from.unwrap_or(self.pfns.len() as u64)
    }

    /// Attached pages past the stale watermark, awaiting batched release.
    pub fn stale_pages(&self) -> u64 {
        self.pfns.len() as u64 - self.valid_pages()
    }

    /// True when every page is pinned and none of them is stale.
    pub fn fully_pinned(&self) -> bool {
        self.valid_pages() == self.layout.total_pages()
    }

    /// True when no page is pinned.
    pub fn unpinned(&self) -> bool {
        self.pfns.is_empty()
    }

    /// True while a pin pass is queued or running.
    pub fn pinning(&self) -> bool {
        self.pass.is_some()
    }

    /// True when pressure may unpin the region: pinned, with neither a
    /// communication nor a pin pass using it.
    pub(crate) fn evictable(&self) -> bool {
        self.use_count == 0 && !self.unpinned() && !self.pinning()
    }

    /// Pin up to `max_pages` further pages in region order, batching each
    /// contiguous virtual run into a single [`Memory::pin_user_pages_partial`]
    /// call — one pin syscall per run instead of one per page. A fully
    /// contiguous chunk costs exactly one call.
    ///
    /// On failure (unmapped page, OOM) the region's previously pinned pages
    /// are *released* and the error is surfaced — the paper's "declaration
    /// succeeds, pinning fails at communication time, request aborts".
    /// Pages a partially-successful batch pinned before the failure are
    /// part of that rollback, so the observable semantics are identical to
    /// [`DriverRegion::pin_next_chunk_per_page`].
    pub fn pin_next_chunk(
        &mut self,
        mem: &mut Memory,
        max_pages: u64,
    ) -> Result<PinProgress, MemError> {
        // A stale suffix is released before pinning forward: the cursor
        // rewinds to the watermark and the invalidated pages are re-pinned
        // against the *current* mappings (fresh frames after a remap).
        // This is what cancels a pending deferred unpin — by the time the
        // drain runs, the region has nothing stale left.
        self.release_stale(mem);
        let first_chunk = self.pfns.is_empty();
        let cursor = self.pfns.len() as u64;
        let end = (cursor + max_pages).min(self.layout.total_pages());
        let mut cow_events = Vec::new();
        let mut idx = cursor;
        while idx < end {
            let vpn = self.layout.vpn_of_page(idx);
            // Extend the run while the flattened page list stays virtually
            // contiguous. A page shared by two adjacent segments appears
            // twice with the same vpn, which breaks the run and gets its
            // own (double-pinning) call, exactly like the per-page loop.
            let mut run = 1u64;
            while idx + run < end && self.layout.vpn_of_page(idx + run).0 == vpn.0 + run {
                run += 1;
            }
            let mut partial = mem.pin_user_pages_partial(self.space, vpn.base(), run * PAGE_SIZE);
            self.pfns.append(&mut partial.pfns);
            cow_events.append(&mut partial.events);
            if let Some(e) = partial.error {
                self.unpin_all(mem);
                return Err(e);
            }
            idx += run;
        }
        Ok(PinProgress {
            pages_pinned: end - cursor,
            complete: end == self.layout.total_pages(),
            first_chunk,
            cow_events,
        })
    }

    /// The pre-batching pin loop: one [`Memory::pin_user_pages`] call per
    /// page. Kept as the differential-test oracle for the batched path
    /// (and as the per-page pin-call baseline of `bench core` and `bench
    /// pinscale`); both must produce the same pins, cursor and
    /// failure/rollback behavior.
    pub fn pin_next_chunk_per_page(
        &mut self,
        mem: &mut Memory,
        max_pages: u64,
    ) -> Result<PinProgress, MemError> {
        self.release_stale(mem);
        let first_chunk = self.pfns.is_empty();
        let cursor = self.pfns.len() as u64;
        let end = (cursor + max_pages).min(self.layout.total_pages());
        let mut cow_events = Vec::new();
        for idx in cursor..end {
            let vpn = self.layout.vpn_of_page(idx);
            match mem.pin_user_pages(self.space, vpn.base(), PAGE_SIZE) {
                Ok((pfns, mut events)) => {
                    debug_assert_eq!(pfns.len(), 1);
                    self.pfns.push(pfns[0]);
                    cow_events.append(&mut events);
                }
                Err(e) => {
                    self.unpin_all(mem);
                    return Err(e);
                }
            }
        }
        Ok(PinProgress {
            pages_pinned: end - cursor,
            complete: end == self.layout.total_pages(),
            first_chunk,
            cow_events,
        })
    }

    /// The physical frames behind pages `0..pinned_pages()`, in page order
    /// (differential tests compare the batched and per-page pin paths).
    pub(crate) fn pinned_pfns(&self) -> &[Pfn] {
        &self.pfns
    }

    /// Release all pins. Returns the number of pages released. A running
    /// pin pass stays: it pins the region back from the empty cursor.
    pub fn unpin_all(&mut self, mem: &mut Memory) -> u64 {
        let n = self.pfns.len() as u64;
        mem.unpin_pages(&self.pfns);
        self.pfns.clear();
        self.stale_from = None;
        n
    }

    /// Mark every pinned page of `range` (and, conservatively, everything
    /// behind it) stale: invisible to the protocol, frames still held for
    /// a later batched release. Returns the number of *newly* staled
    /// pages — re-invalidating an already-stale suffix is free, which is
    /// how back-to-back trim events coalesce.
    ///
    /// The watermark is a suffix truncation on purpose: the protocol's pin
    /// cursor is a prefix, so invalidating page `w` invalidates the
    /// usefulness of everything at or after `w` anyway (the cursor can
    /// never skip a hole), and glibc-style trims hit the tail of a
    /// mapping. A middle-of-region invalidation therefore costs the tail
    /// too — correct, just conservative.
    ///
    /// A page inside `range` whose PTE still resolves to the frame this
    /// region pinned is *not* stale — its pin is what keeps the mapping
    /// in place. That is the COW-break case: the pin that broke the COW
    /// installed a fresh frame and reported an invalidation over the
    /// range, but the breaking region's own PTE already points at its
    /// pinned frame. Without the filter a region would stale itself on
    /// its own pin's events. An unmapped page (`resident_pfn` → `None`)
    /// always disagrees, so trims still stale the tail.
    pub fn mark_stale(&mut self, mem: &Memory, range: &VpnRange) -> u64 {
        let valid = self.valid_pages();
        for idx in 0..valid {
            let vpn = self.layout.vpn_of_page(idx);
            if range.contains(vpn)
                && mem.resident_pfn(self.space, vpn) != Some(self.pfns[idx as usize])
            {
                self.stale_from = Some(idx);
                return valid - idx;
            }
        }
        0
    }

    /// Release the stale suffix in one batched [`Memory`] call, rewinding
    /// the pin cursor to the watermark. Returns the pages released (0 when
    /// nothing was stale — the cancelled-unpin case).
    pub fn release_stale(&mut self, mem: &mut Memory) -> u64 {
        let valid = self.valid_pages() as usize;
        if valid == self.pfns.len() {
            self.stale_from = None;
            return 0;
        }
        let released = mem.unpin_pages_partial(&self.pfns[valid..]);
        self.pfns.truncate(valid);
        self.stale_from = None;
        released
    }

    /// Deliberately forget the stale watermark (fault injection only):
    /// pages a notifier invalidation marked stale become protocol-visible
    /// again even though their PTEs moved — exactly the lost-callback bug
    /// the audit's `StaleVisible` law exists to catch. Returns the
    /// pages exposed.
    #[doc(hidden)]
    pub fn forget_stale_watermark_for_test(&mut self) -> u64 {
        let exposed = self.stale_pages();
        self.stale_from = None;
        exposed
    }

    /// Eagerly unpin just the pages of `range`: mark stale, then release
    /// the suffix immediately. The partial-unpin fix for the old
    /// whole-region `unpin_all` on a partial-range invalidation — pages in
    /// front of the invalidated run stay pinned and accounted.
    pub fn unpin_range(&mut self, mem: &mut Memory, range: &VpnRange) -> u64 {
        self.mark_stale(mem, range);
        self.release_stale(mem)
    }

    /// True if bytes `[offset, offset+len)` lie entirely behind the pin
    /// cursor (safe for the driver to access). Stale pages do not count:
    /// an access past the watermark is an overlap miss, which is exactly
    /// the machinery (packet drop → re-request → repin) that makes
    /// deferred unpinning safe.
    pub fn pinned_through(&self, offset: u64, len: u64) -> bool {
        if len == 0 {
            return true;
        }
        // checked_add: offsets near u64::MAX must read as out of range,
        // not wrap around and pass the bounds check.
        let Some(end) = offset.checked_add(len) else {
            return false;
        };
        if end > self.layout.total_len() {
            return false;
        }
        let (_, last) = self.layout.page_index_span(offset, len);
        last < self.valid_pages()
    }

    /// Driver capture of region bytes `[offset, offset+len)` (pull-reply
    /// construction on the send side). The snapshot references the pinned
    /// pages instead of copying them, and keeps the bytes they hold now
    /// whatever is written to them later. Fails if the range is not pinned
    /// yet.
    pub fn capture(
        &self,
        mem: &Memory,
        offset: u64,
        len: u64,
    ) -> Result<PageSnapshot, RegionAccessError> {
        if !self.pinned_through(offset, len) {
            return Err(RegionAccessError::NotPinned);
        }
        let mut snap = PageSnapshot::with_capacity((len / PAGE_SIZE + 2) as usize);
        self.layout
            .for_each_chunk(offset, len, |idx, _vpn, page_off, n| {
                mem.frames()
                    .capture(self.pfns[idx as usize], page_off, n, &mut snap);
            });
        Ok(snap)
    }

    /// Driver landing of `data` at region offset `offset` (pull-reply
    /// placement on the receive side). A destination page that the landing
    /// leaves equal to a captured page takes that page by reference (see
    /// [`simmem::FrameAllocator::land`]); every other piece is copied.
    /// Fails if the range is not pinned yet.
    pub fn land(
        &self,
        mem: &mut Memory,
        offset: u64,
        data: &PageSnapshot,
    ) -> Result<(), RegionAccessError> {
        let len = data.len();
        if !self.pinned_through(offset, len) {
            return Err(RegionAccessError::NotPinned);
        }
        let mut src = data.reader();
        self.layout
            .for_each_chunk(offset, len, |idx, _vpn, page_off, n| {
                mem.land_phys(self.pfns[idx as usize], page_off, n, &mut src);
            });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimRng;
    use simmem::Prot;
    use std::rc::Rc;

    fn setup(pages: u64) -> (Memory, AsId, VirtAddr) {
        let mut mem = Memory::new(4096, 0);
        let space = mem.create_space();
        let addr = mem.mmap(space, pages * PAGE_SIZE, Prot::ReadWrite).unwrap();
        (mem, space, addr)
    }

    #[test]
    fn layout_geometry_contiguous() {
        let (_m, _s, addr) = setup(4);
        let l = RegionLayout::new(&[Segment {
            addr,
            len: 4 * PAGE_SIZE,
        }]);
        assert_eq!(l.total_len(), 4 * PAGE_SIZE);
        assert_eq!(l.total_pages(), 4);
        assert_eq!(l.vpn_of_page(0), addr.vpn());
        assert_eq!(l.vpn_of_page(3), Vpn(addr.vpn().0 + 3));
    }

    #[test]
    fn layout_unaligned_segment_spans_extra_page() {
        let (_m, _s, addr) = setup(4);
        // 2 pages of bytes starting mid-page covers 3 pages.
        let l = RegionLayout::new(&[Segment {
            addr: addr.add(100),
            len: 2 * PAGE_SIZE,
        }]);
        assert_eq!(l.total_pages(), 3);
        assert_eq!(l.vpn_of_page(0), addr.vpn());
    }

    #[test]
    fn layout_vectorial() {
        let (_m, _s, addr) = setup(10);
        let l = RegionLayout::new(&[
            Segment {
                addr,
                len: PAGE_SIZE,
            },
            Segment {
                addr: addr.add(5 * PAGE_SIZE),
                len: 2 * PAGE_SIZE,
            },
        ]);
        assert_eq!(l.total_len(), 3 * PAGE_SIZE);
        assert_eq!(l.total_pages(), 3);
        assert_eq!(l.vpn_of_page(1), Vpn(addr.vpn().0 + 5));
        // Byte PAGE_SIZE (first byte of segment 2) maps to page index 1.
        assert_eq!(l.page_index_span(PAGE_SIZE, 1), (1, 1));
        assert_eq!(l.page_index_span(0, 3 * PAGE_SIZE), (0, 2));
    }

    /// The chunk walk `page_index_span` replaced: the least and greatest
    /// page index it visits.
    fn span_by_walk(l: &RegionLayout, offset: u64, len: u64) -> (u64, u64) {
        let (mut first, mut last) = (u64::MAX, 0);
        l.for_each_chunk(offset, len, |idx, _, _, _| {
            first = first.min(idx);
            last = last.max(idx);
        });
        (first, last)
    }

    #[test]
    fn page_index_span_matches_the_chunk_walk() {
        let mut rng = SimRng::new(7);
        for case in 0..200 {
            // Unaligned segments of up to three pages, anywhere, some
            // sharing a page with their neighbour.
            let mut at = 0x10_0000 + rng.below(PAGE_SIZE);
            let segs: Vec<Segment> = (0..1 + rng.below(5))
                .map(|_| {
                    let len = 1 + rng.below(3 * PAGE_SIZE);
                    let seg = Segment {
                        addr: VirtAddr(at),
                        len,
                    };
                    at += len + rng.below(4) * rng.below(3 * PAGE_SIZE);
                    seg
                })
                .collect();
            let l = RegionLayout::new(&segs);
            let total = l.total_len();
            let mut spans: Vec<(u64, u64)> = (0..20)
                .map(|_| {
                    let off = rng.below(total);
                    (off, 1 + rng.below(total - off))
                })
                .collect();
            // Spans that end on a segment's last byte, and whole segments.
            let mut end = 0;
            for seg in &segs {
                end += seg.len;
                spans.push((0, end));
                spans.push((end - 1, 1));
                spans.push((end - seg.len, seg.len));
            }
            for (off, len) in spans {
                assert_eq!(
                    l.page_index_span(off, len),
                    span_by_walk(&l, off, len),
                    "case {case}: span {off}+{len} of {segs:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn page_index_span_rejects_a_span_past_the_end() {
        let l = RegionLayout::new(&[Segment {
            addr: VirtAddr(0x10_0000 + 5),
            len: PAGE_SIZE,
        }]);
        l.page_index_span(PAGE_SIZE - 1, 2);
    }

    #[test]
    fn chunked_pinning_moves_cursor() {
        let (mut mem, space, addr) = setup(10);
        let mut r = DriverRegion::new(
            space,
            &[Segment {
                addr,
                len: 10 * PAGE_SIZE,
            }],
        );
        assert!(r.unpinned());
        let p = r.pin_next_chunk(&mut mem, 4).unwrap();
        assert_eq!(
            p,
            PinProgress {
                pages_pinned: 4,
                complete: false,
                first_chunk: true,
                cow_events: Vec::new(),
            }
        );
        assert_eq!(r.pinned_pages(), 4);
        assert!(r.pinned_through(0, 4 * PAGE_SIZE));
        assert!(!r.pinned_through(0, 4 * PAGE_SIZE + 1));
        let p = r.pin_next_chunk(&mut mem, 100).unwrap();
        assert_eq!(
            p,
            PinProgress {
                pages_pinned: 6,
                complete: true,
                first_chunk: false,
                cow_events: Vec::new(),
            }
        );
        assert!(r.fully_pinned());
        assert_eq!(mem.frames().pinned_pages(), 10);
        assert_eq!(r.unpin_all(&mut mem), 10);
        assert_eq!(mem.frames().pinned_pages(), 0);
    }

    #[test]
    fn capture_land_roundtrip_through_pins() {
        let (mut mem, space, addr) = setup(4);
        let mut r = DriverRegion::new(
            space,
            &[Segment {
                addr: addr.add(64),
                len: 2 * PAGE_SIZE,
            }],
        );
        r.pin_next_chunk(&mut mem, 100).unwrap();
        let data: Vec<u8> = (0..2 * PAGE_SIZE).map(|i| (i % 253) as u8).collect();
        r.land(&mut mem, 0, &PageSnapshot::from_bytes(&data))
            .unwrap();
        let back = r.capture(&mem, 0, data.len() as u64).unwrap();
        assert_eq!(back.to_vec(), data);
        // And the application sees it through its own page tables.
        let mut app = vec![0u8; data.len()];
        mem.read(space, addr.add(64), &mut app).unwrap();
        assert_eq!(app, data);
    }

    #[test]
    fn access_beyond_cursor_is_overlap_miss() {
        let (mut mem, space, addr) = setup(8);
        let mut r = DriverRegion::new(
            space,
            &[Segment {
                addr,
                len: 8 * PAGE_SIZE,
            }],
        );
        r.pin_next_chunk(&mut mem, 2).unwrap();
        // Inside the cursor: fine.
        assert_eq!(r.capture(&mem, PAGE_SIZE, 16).unwrap().len(), 16);
        // Beyond: miss.
        assert_eq!(
            r.capture(&mem, 3 * PAGE_SIZE, 16).err(),
            Some(RegionAccessError::NotPinned)
        );
        assert_eq!(
            r.land(&mut mem, 7 * PAGE_SIZE, &PageSnapshot::from_bytes(&[0; 8])),
            Err(RegionAccessError::NotPinned)
        );
        r.unpin_all(&mut mem);
    }

    #[test]
    fn pin_failure_on_unmapped_segment_aborts() {
        let mut mem = Memory::new(64, 0);
        let space = mem.create_space();
        // Declared over an address that was never mapped: declaration is
        // fine, pinning fails (paper §3.1).
        let mut r = DriverRegion::new(
            space,
            &[Segment {
                addr: VirtAddr(0x4000_0000),
                len: 2 * PAGE_SIZE,
            }],
        );
        assert!(matches!(
            r.pin_next_chunk(&mut mem, 10),
            Err(MemError::BadAddress(_))
        ));
        assert!(r.unpinned());
        assert_eq!(mem.frames().pinned_pages(), 0);
    }

    #[test]
    fn partial_pin_failure_rolls_back_all_pins() {
        let mut mem = Memory::new(64, 0);
        let space = mem.create_space();
        let addr = mem.mmap(space, 2 * PAGE_SIZE, Prot::ReadWrite).unwrap();
        // Region claims 4 pages but only 2 are mapped.
        let mut r = DriverRegion::new(
            space,
            &[Segment {
                addr,
                len: 4 * PAGE_SIZE,
            }],
        );
        let p = r.pin_next_chunk(&mut mem, 2).unwrap();
        assert_eq!(p.pages_pinned, 2);
        assert!(r.pin_next_chunk(&mut mem, 2).is_err());
        assert!(r.unpinned(), "failed pin releases earlier pins");
        assert_eq!(mem.frames().pinned_pages(), 0);
    }

    #[test]
    fn intersects_notifier_ranges() {
        let (_m, _s, addr) = setup(10);
        let l = RegionLayout::new(&[
            Segment {
                addr,
                len: PAGE_SIZE,
            },
            Segment {
                addr: addr.add(5 * PAGE_SIZE),
                len: PAGE_SIZE,
            },
        ]);
        let v = addr.vpn().0;
        assert!(l.intersects(&VpnRange::new(Vpn(v), Vpn(v + 1))));
        assert!(!l.intersects(&VpnRange::new(Vpn(v + 1), Vpn(v + 5))));
        assert!(l.intersects(&VpnRange::new(Vpn(v + 5), Vpn(v + 6))));
    }

    #[test]
    fn zero_len_access_is_trivially_pinned() {
        let (_m, space, addr) = setup(2);
        let r = DriverRegion::new(
            space,
            &[Segment {
                addr,
                len: PAGE_SIZE,
            }],
        );
        assert!(r.pinned_through(0, 0));
        assert!(!r.pinned_through(0, 1));
    }

    #[test]
    #[should_panic(expected = "empty region")]
    fn empty_region_rejected() {
        RegionLayout::new(&[]);
    }

    #[test]
    fn try_new_rejects_zero_length_regions_gracefully() {
        let (_m, space, addr) = setup(2);
        assert!(matches!(
            RegionLayout::try_new(&[]),
            Err(DeclareError::EmptyRegion)
        ));
        // All-zero-length segments are just as empty as no segments.
        let zeros = [Segment { addr, len: 0 }, Segment { addr, len: 0 }];
        assert!(matches!(
            RegionLayout::try_new(&zeros),
            Err(DeclareError::EmptyRegion)
        ));
        assert!(DriverRegion::try_new(space, &zeros).is_err());
        // Zero-length segments mixed with real ones are dropped, not fatal.
        let mixed = [
            Segment { addr, len: 0 },
            Segment {
                addr,
                len: PAGE_SIZE,
            },
        ];
        let l = RegionLayout::try_new(&mixed).unwrap();
        assert_eq!(l.total_pages(), 1);
    }

    #[test]
    fn wrapping_offset_is_an_overlap_miss_not_a_panic() {
        // Regression: offset + len used to wrap past the bounds check for
        // offsets near u64::MAX, panicking (or indexing pfns out of range)
        // instead of reporting NotPinned.
        let (mut mem, space, addr) = setup(4);
        let mut r = DriverRegion::new(
            space,
            &[Segment {
                addr,
                len: 4 * PAGE_SIZE,
            }],
        );
        r.pin_next_chunk(&mut mem, 100).unwrap();
        assert!(r.fully_pinned());
        for offset in [u64::MAX, u64::MAX - 1, u64::MAX - 4 * PAGE_SIZE + 1] {
            assert!(!r.pinned_through(offset, 2), "offset {offset:#x} wrapped");
            assert_eq!(
                r.capture(&mem, offset, 16).err(),
                Some(RegionAccessError::NotPinned)
            );
            assert_eq!(
                r.land(&mut mem, offset, &PageSnapshot::from_bytes(&[0; 16])),
                Err(RegionAccessError::NotPinned)
            );
        }
        // A wrapping length is rejected the same way.
        assert_eq!(
            r.capture(&mem, u64::MAX - 8, 32).err(),
            Some(RegionAccessError::NotPinned)
        );
        r.unpin_all(&mut mem);
    }

    /// A fully pinned region over `segs`, given as `(page, byte offset,
    /// len)` relative to a fresh 32-page mapping in its own memory, filled
    /// with `fill`.
    fn pinned_region(segs: &[(u64, u64, u64)], fill: u8) -> (Memory, AsId, DriverRegion) {
        let (mut mem, space, addr) = setup(32);
        mem.write(space, addr, &[fill; 32 * PAGE_SIZE as usize])
            .unwrap();
        let segs: Vec<Segment> = segs
            .iter()
            .map(|&(page, off, len)| Segment {
                addr: addr.add(page * PAGE_SIZE + off),
                len,
            })
            .collect();
        let mut r = DriverRegion::new(space, &segs);
        r.pin_next_chunk(&mut mem, 1000).unwrap();
        assert!(r.fully_pinned());
        (mem, space, r)
    }

    /// Overwrite every byte of `r` through the application's page tables
    /// with a position- and `round`-dependent pattern; returns the region's
    /// new bytes in region order.
    fn scribble(mem: &mut Memory, space: AsId, r: &DriverRegion, round: u64) -> Vec<u8> {
        let bytes: Vec<u8> = (0..r.layout.total_len())
            .map(|i| (i * 7 + round * 13 + i / PAGE_SIZE) as u8)
            .collect();
        let mut at = 0;
        for seg in r.layout.segments() {
            mem.write(space, seg.addr, &bytes[at..at + seg.len as usize])
                .unwrap();
            at += seg.len as usize;
        }
        bytes
    }

    /// The in-page offset of every byte of `r`, in region order.
    fn page_offsets(r: &DriverRegion) -> Vec<u64> {
        let mut offs = Vec::new();
        r.layout
            .for_each_chunk(0, r.layout.total_len(), |_, _, off, n| {
                offs.extend(off..off + n)
            });
        offs
    }

    #[test]
    fn capture_land_matches_a_byte_copy() {
        const LEN: u64 = 6 * PAGE_SIZE;
        // Source and destination shapes of LEN bytes each: page-aligned,
        // unaligned, and vectorial. Only pairs whose page offsets agree
        // can move pages by reference.
        let aligned = vec![(0, 0, LEN)];
        let vector_aligned = vec![(2, 0, 2 * PAGE_SIZE), (8, 0, 4 * PAGE_SIZE)];
        let unaligned = vec![(1, 100, LEN)];
        let vector_odd = vec![(0, 3000, 5000), (10, 17, LEN - 5000 - 700), (20, 64, 700)];
        let shapes = [&aligned, &vector_aligned, &unaligned, &vector_odd];
        let mut rng = SimRng::new(42);
        let (mut whole, mut copied) = (0u64, 0u64);
        // Partial pieces installed, for pairs whose offsets agree / differ.
        let (mut assembled, mut assembled_offset) = (0u64, 0u64);
        for src_shape in shapes {
            for dst_shape in shapes {
                let (mut smem, sspace, src) = pinned_region(src_shape, 0x11);
                let (mut dmem, _, dst) = pinned_region(dst_shape, 0x22);
                let agree = page_offsets(&src) == page_offsets(&dst);
                let mut model = vec![0x22u8; LEN as usize];
                let mut src_bytes = scribble(&mut smem, sspace, &src, 0);
                for round in 1..=40u64 {
                    let off = rng.below(LEN);
                    let len = 1 + rng.below(LEN - off);
                    // Two frames, each captured on its own, as pull replies
                    // are: the page around the split lands in two pieces.
                    let split = rng.below(len + 1);
                    let src_pages: Vec<Rc<[u8]>> = src
                        .pinned_pfns()
                        .iter()
                        .map(|&p| smem.share_phys(p))
                        .collect();
                    for (off, len) in [(off, split), (off + split, len - split)] {
                        if len == 0 {
                            continue;
                        }
                        let snap = src.capture(&smem, off, len).unwrap();
                        dst.land(&mut dmem, off, &snap).unwrap();
                        // Classify each destination page this frame touched.
                        dst.layout.for_each_chunk(off, len, |idx, _, _, n| {
                            let page = dmem.share_phys(dst.pinned_pfns()[idx as usize]);
                            match (src_pages.iter().any(|s| Rc::ptr_eq(s, &page)), n) {
                                (false, _) => copied += 1,
                                (true, PAGE_SIZE) => whole += 1,
                                (true, _) if agree => assembled += 1,
                                (true, _) => assembled_offset += 1,
                            }
                        });
                    }
                    let span = off as usize..(off + len) as usize;
                    model[span.clone()].copy_from_slice(&src_bytes[span]);
                    // Overwrite the source; nothing already landed may change.
                    src_bytes = scribble(&mut smem, sspace, &src, round);
                    let got = dst.capture(&dmem, 0, LEN).unwrap().to_vec();
                    assert!(got == model, "landed bytes differ from the byte copy");
                }
            }
        }
        assert!(whole > 0, "no whole page installed");
        assert!(copied > 0, "the copy branch never ran");
        assert!(assembled > 0, "no page assembled from two frames installed");
        assert_eq!(assembled_offset, 0, "installed across differing offsets");
    }

    /// Differential harness: drive the batched and per-page pin paths over
    /// identical twin memories and assert every observable agrees — pins,
    /// cursor, pin-call savings, failure and rollback.
    fn assert_batch_matches_per_page(
        build: impl Fn() -> (Memory, AsId),
        segments: &[Segment],
        chunks: &[u64],
    ) {
        let (mut mem_a, space_a) = build();
        let (mut mem_b, space_b) = build();
        let mut batched = DriverRegion::new(space_a, segments);
        let mut per_page = DriverRegion::new(space_b, segments);
        for &chunk in chunks {
            let calls_a = mem_a.pin_calls();
            let calls_b = mem_b.pin_calls();
            let ra = batched.pin_next_chunk(&mut mem_a, chunk);
            let rb = per_page.pin_next_chunk_per_page(&mut mem_b, chunk);
            assert_eq!(ra, rb, "progress/failure diverged at chunk {chunk}");
            assert_eq!(
                batched.pinned_pfns(),
                per_page.pinned_pfns(),
                "pfns diverged at chunk {chunk}"
            );
            assert_eq!(batched.pinned_pages(), per_page.pinned_pages());
            assert_eq!(
                mem_a.frames().pinned_pages(),
                mem_b.frames().pinned_pages(),
                "frame-pool pins diverged at chunk {chunk}"
            );
            if ra.is_ok() {
                let pinned = rb.unwrap().pages_pinned;
                assert!(
                    mem_a.pin_calls() - calls_a <= (mem_b.pin_calls() - calls_b).max(1),
                    "batching used more pin calls than per-page"
                );
                if pinned > 0 {
                    assert!(mem_b.pin_calls() - calls_b >= pinned);
                }
            } else {
                // Both must have rolled everything back.
                assert!(batched.unpinned() && per_page.unpinned());
                assert_eq!(mem_a.frames().pinned_pages(), 0);
                assert_eq!(mem_b.frames().pinned_pages(), 0);
                return;
            }
        }
    }

    #[test]
    fn batch_pin_matches_per_page_oracle_across_layouts() {
        // Deterministic xorshift so chunk sizes vary without an RNG dep.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..8u64 {
            let chunks: Vec<u64> = (0..6).map(|_| 1 + rng() % 7).collect();
            // Contiguous aligned region.
            assert_batch_matches_per_page(
                || {
                    let mut m = Memory::new(4096, 0);
                    let s = m.create_space();
                    m.mmap(s, 16 * PAGE_SIZE, Prot::ReadWrite).unwrap();
                    (m, s)
                },
                &[Segment {
                    addr: VirtAddr(0x10_0000),
                    len: 12 * PAGE_SIZE,
                }],
                &chunks,
            );
            // Unaligned segment (starts mid-page, spans an extra page).
            assert_batch_matches_per_page(
                || {
                    let mut m = Memory::new(4096, 0);
                    let s = m.create_space();
                    m.mmap(s, 16 * PAGE_SIZE, Prot::ReadWrite).unwrap();
                    (m, s)
                },
                &[Segment {
                    addr: VirtAddr(0x10_0000 + 100 + trial * 7),
                    len: 5 * PAGE_SIZE + 311,
                }],
                &chunks,
            );
            // Vectorial region with a gap (two runs per chunk boundary).
            assert_batch_matches_per_page(
                || {
                    let mut m = Memory::new(4096, 0);
                    let s = m.create_space();
                    m.mmap(s, 32 * PAGE_SIZE, Prot::ReadWrite).unwrap();
                    (m, s)
                },
                &[
                    Segment {
                        addr: VirtAddr(0x10_0000),
                        len: 3 * PAGE_SIZE,
                    },
                    Segment {
                        addr: VirtAddr(0x10_0000 + 10 * PAGE_SIZE + 64),
                        len: 4 * PAGE_SIZE,
                    },
                ],
                &chunks,
            );
            // Partially unmapped: pinning fails mid-batch, with partial
            // success inside the failing run; both paths must roll back.
            assert_batch_matches_per_page(
                || {
                    let mut m = Memory::new(4096, 0);
                    let s = m.create_space();
                    let a = m.mmap(s, 8 * PAGE_SIZE, Prot::ReadWrite).unwrap();
                    m.munmap(s, a.add(4 * PAGE_SIZE), PAGE_SIZE).unwrap();
                    (m, s)
                },
                &[Segment {
                    addr: VirtAddr(0x10_0000),
                    len: 8 * PAGE_SIZE,
                }],
                &[8],
            );
            // Out-of-frames: partial success against the frame pool.
            assert_batch_matches_per_page(
                || {
                    let mut m = Memory::new(3, 0);
                    let s = m.create_space();
                    m.mmap(s, 8 * PAGE_SIZE, Prot::ReadWrite).unwrap();
                    (m, s)
                },
                &[Segment {
                    addr: VirtAddr(0x10_0000),
                    len: 8 * PAGE_SIZE,
                }],
                &[2, 6],
            );
        }
    }

    #[test]
    fn unpin_range_releases_only_the_invalidated_pages() {
        // Regression for the tentpole bug: a partial-range invalidation
        // used to go through unpin_all and drop the whole region. Pin 16
        // pages, invalidate the last 2, and 14 must stay pinned with
        // every stat exact.
        let (mut mem, space, addr) = setup(16);
        let mut r = DriverRegion::new(
            space,
            &[Segment {
                addr,
                len: 16 * PAGE_SIZE,
            }],
        );
        r.pin_next_chunk(&mut mem, 100).unwrap();
        assert!(r.fully_pinned());
        assert_eq!(mem.frames().pinned_pages(), 16);

        let v = addr.vpn().0;
        let tail = VpnRange::new(Vpn(v + 14), Vpn(v + 16));
        // The invalidation's cause: the tail mapping is actually torn
        // down (PTE disagreement is what makes a page stale).
        mem.munmap(space, addr.add(14 * PAGE_SIZE), 2 * PAGE_SIZE)
            .unwrap();
        let unpin_calls = mem.unpin_calls();
        assert_eq!(r.unpin_range(&mut mem, &tail), 2);
        assert_eq!(mem.unpin_calls(), unpin_calls + 1, "one batched call");
        assert_eq!(r.pinned_pages(), 14);
        assert_eq!(r.valid_pages(), 14);
        assert_eq!(r.stale_pages(), 0);
        assert_eq!(mem.frames().pinned_pages(), 14);
        assert!(!r.fully_pinned());
        assert!(r.pinned_through(0, 14 * PAGE_SIZE));
        assert!(!r.pinned_through(0, 14 * PAGE_SIZE + 1));

        // A disjoint range is a no-op.
        let gone = VpnRange::new(Vpn(v + 14), Vpn(v + 16));
        assert_eq!(r.unpin_range(&mut mem, &gone), 0);
        assert_eq!(mem.frames().pinned_pages(), 14);
        r.unpin_all(&mut mem);
        assert_eq!(mem.frames().pinned_pages(), 0);
    }

    #[test]
    fn mark_stale_defers_release_and_coalesces() {
        let (mut mem, space, addr) = setup(16);
        let mut r = DriverRegion::new(
            space,
            &[Segment {
                addr,
                len: 16 * PAGE_SIZE,
            }],
        );
        r.pin_next_chunk(&mut mem, 100).unwrap();
        let v = addr.vpn().0;

        // While the PTEs still point at the pinned frames, an
        // "invalidation" over them is a no-op: the pin itself is what
        // holds the mapping (the COW-break self-event case).
        assert_eq!(
            r.mark_stale(&mem, &VpnRange::new(Vpn(v + 12), Vpn(v + 14))),
            0
        );

        // Stale pages stay attached (accounting) but protocol-invisible.
        mem.munmap(space, addr.add(12 * PAGE_SIZE), 2 * PAGE_SIZE)
            .unwrap();
        assert_eq!(
            r.mark_stale(&mem, &VpnRange::new(Vpn(v + 12), Vpn(v + 14))),
            4
        );
        assert_eq!(r.pinned_pages(), 16, "frames still held");
        assert_eq!(r.valid_pages(), 12);
        assert_eq!(mem.frames().pinned_pages(), 16);
        assert!(!r.pinned_through(0, 13 * PAGE_SIZE));
        assert!(r.pinned_through(0, 12 * PAGE_SIZE));

        // Re-invalidating inside the stale suffix coalesces to nothing.
        assert_eq!(
            r.mark_stale(&mem, &VpnRange::new(Vpn(v + 13), Vpn(v + 16))),
            0
        );
        // A lower hit extends the suffix by exactly the new pages.
        mem.munmap(space, addr.add(10 * PAGE_SIZE), PAGE_SIZE)
            .unwrap();
        assert_eq!(
            r.mark_stale(&mem, &VpnRange::new(Vpn(v + 10), Vpn(v + 11))),
            2
        );
        assert_eq!(r.valid_pages(), 10);

        // One batched release drains the whole suffix.
        let unpin_calls = mem.unpin_calls();
        assert_eq!(r.release_stale(&mut mem), 6);
        assert_eq!(mem.unpin_calls(), unpin_calls + 1);
        assert_eq!(r.pinned_pages(), 10);
        assert_eq!(mem.frames().pinned_pages(), 10);
        assert_eq!(r.release_stale(&mut mem), 0, "nothing stale twice");
        r.unpin_all(&mut mem);
    }

    #[test]
    fn repin_after_stale_suffix_sees_fresh_frames() {
        // The malloc-trim/realloc pattern: tail unmapped + remapped, then
        // the next pin pass rewinds to the watermark and pins the new
        // mapping — the pending deferred unpin has nothing left to do.
        let (mut mem, space, addr) = setup(8);
        let mut r = DriverRegion::new(
            space,
            &[Segment {
                addr,
                len: 8 * PAGE_SIZE,
            }],
        );
        r.pin_next_chunk(&mut mem, 100).unwrap();
        let old_tail = r.pinned_pfns()[6..].to_vec();
        let tail_addr = addr.add(6 * PAGE_SIZE);
        mem.munmap(space, tail_addr, 2 * PAGE_SIZE).unwrap();
        assert!(
            mem.frames().is_pinned(old_tail[0]),
            "pinned frames survive munmap until released"
        );
        let v = addr.vpn().0;
        assert_eq!(
            r.mark_stale(&mem, &VpnRange::new(Vpn(v + 6), Vpn(v + 8))),
            2
        );
        mem.mmap_at(space, tail_addr, 2 * PAGE_SIZE, Prot::ReadWrite)
            .unwrap();

        let p = r.pin_next_chunk(&mut mem, 100).unwrap();
        assert_eq!(p.pages_pinned, 2, "cursor rewound to the watermark");
        assert!(r.fully_pinned());
        assert_eq!(r.stale_pages(), 0);
        assert_ne!(r.pinned_pfns()[6..], old_tail[..], "fresh frames");
        assert_eq!(mem.frames().pinned_pages(), 8);
        r.unpin_all(&mut mem);
        assert_eq!(mem.frames().pinned_pages(), 0);
    }

    #[test]
    fn batched_chunk_over_contiguous_pages_is_one_pin_call() {
        let (mut mem, space, addr) = setup(32);
        let mut r = DriverRegion::new(
            space,
            &[Segment {
                addr,
                len: 32 * PAGE_SIZE,
            }],
        );
        let before = mem.pin_calls();
        r.pin_next_chunk(&mut mem, 8).unwrap();
        assert_eq!(mem.pin_calls() - before, 1, "one call per contiguous chunk");
        r.pin_next_chunk(&mut mem, 100).unwrap();
        assert_eq!(mem.pin_calls() - before, 2);
        assert!(r.fully_pinned());
        r.unpin_all(&mut mem);
    }
}
