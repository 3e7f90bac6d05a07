//! Address spaces, page tables, faults, COW, swap, migration, and pinning.
//!
//! [`Memory`] is one node's memory subsystem: a frame pool, a swap device,
//! and a set of process address spaces. Its API mirrors the Linux facilities
//! the paper's driver relies on:
//!
//! * `mmap`/`munmap` — anonymous demand-paged mappings,
//! * `read`/`write` — application access through the page tables (faulting,
//!   breaking COW), and `capture`/`land`, which make the same accesses
//!   but carry the bytes as a [`PageSnapshot`] by reference,
//! * `pin_user_pages`/`unpin_pages` — `get_user_pages`-style DMA pinning,
//! * `swap_out`/`migrate` — the page-stealing operations pinning must block,
//! * `fork_space` — COW sharing, the classic registration-cache hazard,
//! * **MMU notifier events** — every operation that breaks a
//!   virtual→physical association returns [`NotifierEvent`]s when a notifier
//!   is registered on the space.
//!
//! ## Page tables and range walks
//!
//! Each space maps virtual pages to frames or swap slots through a
//! two-level radix `PageTable`. Operations over a page range (`read`,
//! `write`, `capture`, `land`, `pin_user_pages_partial`) look up each VMA
//! once and then fault its pages in one after another; `munmap` drains the
//! table range of each removed VMA and releases every frame and swap slot
//! inline. Every walk
//! runs in ascending page order, so frames return to the free list, and
//! are handed out again, in a fixed order.
//!
//! ## Notifier semantics
//!
//! Linux invokes `invalidate_range_start` synchronously, inside the mm
//! operation, before the mapping changes. In this single-threaded simulator
//! an operation is atomic at one virtual instant, so we return the events to
//! the caller, which must dispatch them to the driver *before simulated time
//! advances*. Frame refcounting makes the dispatch order safe: pinned frames
//! survive `munmap` until the driver drops its pins, exactly as pages held
//! by `get_user_pages` do.

use std::sync::Arc;

use crate::addr::{page_chunks, Pfn, VirtAddr, Vpn, VpnRange};
use crate::error::MemError;
use crate::frame::FrameAllocator;
use crate::pagetable::{PageTable, Pte};
use crate::snapshot::{PageSnapshot, SnapshotReader};
use crate::vma::{Prot, VmaSet};

/// Identifies one address space within a [`Memory`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct AsId(pub u32);

/// Why a notifier event fired.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InvalidateCause {
    /// Pages were unmapped (`munmap`, including process teardown).
    Unmap,
    /// A copy-on-write fault replaced the physical page.
    CowBreak,
    /// The kernel swapped the page out.
    SwapOut,
    /// The kernel migrated the page to another frame.
    Migrate,
    /// The whole address space is being destroyed (`release`).
    Release,
}

/// An MMU-notifier invalidation event, delivered to whoever registered a
/// notifier on the space (the Open-MX driver).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NotifierEvent {
    /// The affected address space.
    pub space: AsId,
    /// The invalidated page range.
    pub range: VpnRange,
    /// What happened.
    pub cause: InvalidateCause,
}

struct AddressSpace {
    vmas: VmaSet,
    ptes: PageTable,
    notifier: bool,
    /// Lowest page considered by the gap search; keeps user mappings away
    /// from page 0 so null-ish addresses fault.
    base: Vpn,
    limit: Vpn,
}

/// Swap slots hold the swapped-out page by reference (see
/// [`FrameAllocator::share`]); swap-out and swap-in copy no bytes.
struct SwapSpace {
    slots: Vec<Option<Arc<[u8]>>>,
    free: Vec<u32>,
    used: usize,
}

impl SwapSpace {
    fn new(capacity: usize) -> Self {
        SwapSpace {
            slots: (0..capacity).map(|_| None).collect(),
            free: (0..capacity as u32).rev().collect(),
            used: 0,
        }
    }

    fn store(&mut self, data: Arc<[u8]>) -> Result<u32, MemError> {
        let slot = self.free.pop().ok_or(MemError::OutOfSwap)?;
        self.slots[slot as usize] = Some(data);
        self.used += 1;
        Ok(slot)
    }

    fn load(&mut self, slot: u32) -> Arc<[u8]> {
        let data = self.slots[slot as usize]
            .take()
            .expect("load from free swap slot");
        self.free.push(slot);
        self.used -= 1;
        data
    }

    fn drop_slot(&mut self, slot: u32) {
        let _ = self.load(slot);
    }

    fn duplicate(&mut self, slot: u32) -> Result<u32, MemError> {
        let data = self.slots[slot as usize]
            .as_ref()
            .expect("duplicate of free swap slot")
            .clone();
        self.store(data)
    }
}

/// Result of one [`Memory::pin_user_pages_partial`] call: the pages pinned
/// before the first failure, any notifier events those pins caused, and the
/// failure itself if one occurred. Unlike [`Memory::pin_user_pages`], a
/// partial pin is *not* rolled back internally — the caller owns the
/// reported pins and decides whether to keep or release them.
#[derive(Debug)]
pub struct PartialPin {
    /// Frames pinned, in page order, up to the first failure.
    pub pfns: Vec<Pfn>,
    /// Notifier events (COW breaks) fired by the successful pins.
    pub events: Vec<NotifierEvent>,
    /// The error that stopped the batch, if it did not complete.
    pub error: Option<MemError>,
}

/// One node's memory subsystem.
pub struct Memory {
    frames: FrameAllocator,
    swap: SwapSpace,
    spaces: Vec<Option<AddressSpace>>,
    /// Pin syscalls serviced (each `pin_user_pages*` call counts once,
    /// whatever its page count) — the per-call cost the batched driver
    /// path exists to amortize.
    pin_calls: u64,
    /// Unpin syscalls serviced (each `unpin_pages*` call counts once,
    /// whatever its page count) — the per-call cost the driver's batched
    /// deferred-drain path exists to amortize.
    unpin_calls: u64,
}

impl Memory {
    /// A node with `frame_capacity` physical frames and `swap_slots` pages
    /// of swap.
    pub fn new(frame_capacity: usize, swap_slots: usize) -> Self {
        Memory {
            frames: FrameAllocator::new(frame_capacity),
            swap: SwapSpace::new(swap_slots),
            spaces: Vec::new(),
            pin_calls: 0,
            unpin_calls: 0,
        }
    }

    /// Number of `pin_user_pages*` calls serviced so far.
    pub fn pin_calls(&self) -> u64 {
        self.pin_calls
    }

    /// Number of `unpin_pages*` calls serviced so far.
    pub fn unpin_calls(&self) -> u64 {
        self.unpin_calls
    }

    /// Create an empty address space (a "process").
    pub fn create_space(&mut self) -> AsId {
        let space = AddressSpace {
            vmas: VmaSet::new(),
            ptes: PageTable::default(),
            notifier: false,
            base: Vpn(0x100),
            limit: Vpn(1 << 36), // 48-bit VA, way beyond any workload here
        };
        if let Some(idx) = self.spaces.iter().position(Option::is_none) {
            self.spaces[idx] = Some(space);
            AsId(idx as u32)
        } else {
            self.spaces.push(Some(space));
            AsId(self.spaces.len() as u32 - 1)
        }
    }

    /// Destroy an address space, dropping every mapping. Returns the
    /// `Release` notifier event if one was registered.
    pub fn destroy_space(&mut self, id: AsId) -> Result<Vec<NotifierEvent>, MemError> {
        let space = self
            .spaces
            .get_mut(id.0 as usize)
            .and_then(Option::take)
            .ok_or(MemError::NoSuchSpace)?;
        for (_, pte) in space.ptes.iter() {
            release(&mut self.frames, &mut self.swap, pte);
        }
        let full = VpnRange::new(Vpn(0), space.limit);
        Ok(if space.notifier {
            vec![NotifierEvent {
                space: id,
                range: full,
                cause: InvalidateCause::Release,
            }]
        } else {
            Vec::new()
        })
    }

    /// Register an MMU notifier on the space (the driver does this when an
    /// endpoint opens). Subsequent invalidations are reported.
    pub fn register_notifier(&mut self, id: AsId) -> Result<(), MemError> {
        self.space_mut(id)?.notifier = true;
        Ok(())
    }

    /// Unregister the notifier.
    pub fn unregister_notifier(&mut self, id: AsId) -> Result<(), MemError> {
        self.space_mut(id)?.notifier = false;
        Ok(())
    }

    /// True if `id` names a live space with a notifier registered.
    pub fn has_notifier(&self, id: AsId) -> bool {
        self.space(id).is_ok_and(|s| s.notifier)
    }

    fn space(&self, id: AsId) -> Result<&AddressSpace, MemError> {
        self.spaces
            .get(id.0 as usize)
            .and_then(Option::as_ref)
            .ok_or(MemError::NoSuchSpace)
    }

    fn space_mut(&mut self, id: AsId) -> Result<&mut AddressSpace, MemError> {
        Ok(self.parts(id)?.0)
    }

    /// Split borrows of space `id`, the frame pool and swap, for walks
    /// that update all three.
    fn parts(
        &mut self,
        id: AsId,
    ) -> Result<(&mut AddressSpace, &mut FrameAllocator, &mut SwapSpace), MemError> {
        let space = self
            .spaces
            .get_mut(id.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(MemError::NoSuchSpace)?;
        Ok((space, &mut self.frames, &mut self.swap))
    }

    /// Map `len` bytes (rounded up to pages) of zeroed anonymous memory.
    /// Pages materialize on first touch (demand paging).
    pub fn mmap(&mut self, id: AsId, len: u64, prot: Prot) -> Result<VirtAddr, MemError> {
        let pages = VirtAddr(len).page_ceil().0 >> crate::addr::PAGE_SHIFT;
        let pages = pages.max(1);
        let space = self.space_mut(id)?;
        let start = space
            .vmas
            .find_gap(space.base, pages, space.limit)
            .ok_or(MemError::OutOfVirtualSpace)?;
        let range = VpnRange::new(start, Vpn(start.0 + pages));
        let ok = space.vmas.insert(range, prot);
        debug_assert!(ok);
        Ok(start.base())
    }

    /// Map at a fixed page-aligned address (fails if busy).
    pub fn mmap_at(
        &mut self,
        id: AsId,
        addr: VirtAddr,
        len: u64,
        prot: Prot,
    ) -> Result<VirtAddr, MemError> {
        assert!(addr.is_page_aligned(), "mmap_at requires page alignment");
        let range = VpnRange::covering(addr, len.max(1));
        let space = self.space_mut(id)?;
        if !space.vmas.insert(range, prot) {
            return Err(MemError::RangeBusy(addr));
        }
        Ok(addr)
    }

    /// Unmap `[addr, addr+len)` (page-granular). Pages pinned by a driver
    /// survive physically until unpinned, but the *mapping* is gone.
    /// Returns notifier events for the removed ranges.
    pub fn munmap(
        &mut self,
        id: AsId,
        addr: VirtAddr,
        len: u64,
    ) -> Result<Vec<NotifierEvent>, MemError> {
        let range = VpnRange::covering(addr.page_floor(), len + addr.page_offset());
        let mut events = Vec::new();
        let (space, frames, swap) = self.parts(id)?;
        for sub in space.vmas.remove(range) {
            space
                .ptes
                .drain_range(sub.as_raw(), |_, pte| release(frames, swap, pte));
            if space.notifier {
                events.push(NotifierEvent {
                    space: id,
                    range: sub,
                    cause: InvalidateCause::Unmap,
                });
            }
        }
        Ok(events)
    }

    /// True if every byte of `[addr, addr+len)` is inside some VMA.
    pub fn is_mapped(&self, id: AsId, addr: VirtAddr, len: u64) -> bool {
        match self.space(id) {
            Ok(space) => space.vmas.covers(&VpnRange::covering(addr, len.max(1))),
            Err(_) => false,
        }
    }

    /// Fault in every page of `range` in ascending order, handing each
    /// page's frame to `each`. Each VMA is looked up once and its pages
    /// walked; the walk stops at the first page that fails, with the same
    /// error a fault on that page alone would give. With `write == true`
    /// this breaks COW, possibly emitting `CowBreak` events into `events`.
    fn fault_range(
        &mut self,
        id: AsId,
        range: VpnRange,
        write: bool,
        events: &mut Vec<NotifierEvent>,
        mut each: impl FnMut(&mut FrameAllocator, Pfn),
    ) -> Result<(), MemError> {
        if range.is_empty() {
            return Ok(());
        }
        let (space, frames, swap) = self.parts(id)?;
        let mut vpn = range.start;
        while vpn < range.end {
            let vma = space
                .vmas
                .find(vpn)
                .ok_or(MemError::BadAddress(vpn.base()))?;
            if write && !vma.prot.writable() {
                return Err(MemError::ProtectionFault(vpn.base()));
            }
            let end = vma.range.end.min(range.end);
            while vpn < end {
                let pfn = match space.ptes.get(vpn.0) {
                    // Resident and needing no COW break: the common case.
                    Some(Pte::Resident { pfn, cow }) if !(write && cow) => pfn,
                    pte => fault_in(id, space, frames, swap, vpn, pte, events)?,
                };
                each(frames, pfn);
                vpn = vpn.next();
            }
        }
        Ok(())
    }

    /// Application write through the page tables. Faults pages in and
    /// breaks COW as needed; returns any notifier events that caused.
    pub fn write(
        &mut self,
        id: AsId,
        addr: VirtAddr,
        data: &[u8],
    ) -> Result<Vec<NotifierEvent>, MemError> {
        let len = data.len() as u64;
        let mut events = Vec::new();
        let mut chunks = page_chunks(addr, len);
        let mut cursor = 0usize;
        self.fault_range(
            id,
            VpnRange::covering(addr, len),
            true,
            &mut events,
            |frames, pfn| {
                let (_, off, n) = chunks.next().expect("one chunk per page");
                frames.write(pfn, off, &data[cursor..cursor + n as usize]);
                cursor += n as usize;
            },
        )?;
        Ok(events)
    }

    /// Application read through the page tables.
    pub fn read(&mut self, id: AsId, addr: VirtAddr, buf: &mut [u8]) -> Result<(), MemError> {
        let len = buf.len() as u64;
        let mut events = Vec::new();
        let mut chunks = page_chunks(addr, len);
        let mut cursor = 0usize;
        self.fault_range(
            id,
            VpnRange::covering(addr, len),
            false,
            &mut events,
            |frames, pfn| {
                let (_, off, n) = chunks.next().expect("one chunk per page");
                frames.read(pfn, off, &mut buf[cursor..cursor + n as usize]);
                cursor += n as usize;
            },
        )?;
        debug_assert!(events.is_empty(), "read faults never invalidate");
        Ok(())
    }

    /// Capture `[addr, addr+len)` by reference to its pages: the same
    /// walk, faults and errors as [`Memory::read`], but no byte is copied.
    /// The snapshot keeps the bytes the pages hold now, whatever is written
    /// to them later.
    pub fn capture(
        &mut self,
        id: AsId,
        addr: VirtAddr,
        len: u64,
    ) -> Result<PageSnapshot, MemError> {
        let range = VpnRange::covering(addr, len);
        let mut snap = PageSnapshot::with_capacity(range.len() as usize);
        let mut events = Vec::new();
        let mut chunks = page_chunks(addr, len);
        self.fault_range(id, range, false, &mut events, |frames, pfn| {
            let (_, off, n) = chunks.next().expect("one chunk per page");
            frames.capture(pfn, off, n, &mut snap);
        })?;
        debug_assert!(events.is_empty(), "read faults never invalidate");
        Ok(snap)
    }

    /// Land `data` at `addr`: the same walk, faults, COW breaks, events and
    /// errors as [`Memory::write`] of its bytes. A destination page that
    /// `data` covers with one whole captured page takes that page by
    /// reference; every other piece is copied.
    pub fn land(
        &mut self,
        id: AsId,
        addr: VirtAddr,
        data: &PageSnapshot,
    ) -> Result<Vec<NotifierEvent>, MemError> {
        let len = data.len();
        let mut events = Vec::new();
        let mut chunks = page_chunks(addr, len);
        let mut src = data.reader();
        self.fault_range(
            id,
            VpnRange::covering(addr, len),
            true,
            &mut events,
            |frames, pfn| {
                let (_, off, n) = chunks.next().expect("one chunk per page");
                frames.land(pfn, off, n, &mut src);
            },
        )?;
        Ok(events)
    }

    /// `get_user_pages`-style pinning of the pages covering
    /// `[addr, addr+len)`: faults each page in *with write access* (breaking
    /// COW up front, as GUP with `FOLL_WRITE` does), raises its pin count,
    /// and returns the frames in page order.
    ///
    /// On failure (bad address, OOM) any pages already pinned by this call
    /// are released before the error is returned.
    pub fn pin_user_pages(
        &mut self,
        id: AsId,
        addr: VirtAddr,
        len: u64,
    ) -> Result<(Vec<Pfn>, Vec<NotifierEvent>), MemError> {
        let mut partial = self.pin_user_pages_partial(id, addr, len);
        match partial.error.take() {
            None => Ok((partial.pfns, partial.events)),
            Some(e) => {
                for pfn in partial.pfns {
                    self.frames.unpin(pfn);
                }
                Err(e)
            }
        }
    }

    /// Batched pin of the pages covering `[addr, addr+len)` with
    /// partial-success reporting: pins page by page in address order and
    /// stops at the first failure, returning everything pinned so far plus
    /// the error. The caller owns the reported pins — on error it must
    /// either keep them or release them via [`Memory::unpin_pages`].
    ///
    /// This is the one-syscall-per-run primitive behind the driver's
    /// batched pin path; [`Memory::pin_user_pages`] is the classic
    /// all-or-nothing wrapper over it.
    pub fn pin_user_pages_partial(&mut self, id: AsId, addr: VirtAddr, len: u64) -> PartialPin {
        self.pin_calls += 1;
        let range = VpnRange::covering(addr, len);
        let mut events = Vec::new();
        let mut pinned = Vec::with_capacity(range.len() as usize);
        let error = self
            .fault_range(id, range, true, &mut events, |frames, pfn| {
                frames.pin(pfn);
                pinned.push(pfn);
            })
            .err();
        PartialPin {
            pfns: pinned,
            events,
            error,
        }
    }

    /// Release DMA pins taken by [`Memory::pin_user_pages`].
    pub fn unpin_pages(&mut self, pfns: &[Pfn]) {
        self.unpin_pages_partial(pfns);
    }

    /// Batched release of an arbitrary run of DMA pins: one "syscall"
    /// whatever the page count, returning the number of pages released.
    ///
    /// This is the unpin-side twin of [`Memory::pin_user_pages_partial`]:
    /// the driver's deferred-drain path hands it whole invalidated page
    /// runs so a trim storm costs one call per run, not one per page.
    pub fn unpin_pages_partial(&mut self, pfns: &[Pfn]) -> u64 {
        self.unpin_calls += 1;
        for &pfn in pfns {
            self.frames.unpin(pfn);
        }
        pfns.len() as u64
    }

    /// Swap one resident page out to disk. Fails if the page is pinned —
    /// this is exactly the guarantee pinning exists to provide.
    pub fn swap_out(&mut self, id: AsId, vpn: Vpn) -> Result<Vec<NotifierEvent>, MemError> {
        let space = self.space(id)?;
        let notifier = space.notifier;
        let pte = space.ptes.get(vpn.0);
        match pte {
            Some(Pte::Resident { pfn, cow }) => {
                if self.frames.is_pinned(pfn) {
                    return Err(MemError::PagePinned(vpn.base()));
                }
                if cow && self.frames.refcount(pfn) > 1 {
                    // Shared COW pages stay resident in this simple model.
                    return Err(MemError::PagePinned(vpn.base()));
                }
                let slot = self.swap.store(self.frames.share(pfn))?;
                self.frames.put(pfn);
                self.space_mut(id)?
                    .ptes
                    .insert(vpn.0, Pte::Swapped { slot });
                Ok(if notifier {
                    vec![NotifierEvent {
                        space: id,
                        range: VpnRange::new(vpn, vpn.next()),
                        cause: InvalidateCause::SwapOut,
                    }]
                } else {
                    Vec::new()
                })
            }
            _ => Err(MemError::NotResident(vpn.base())),
        }
    }

    /// Migrate one resident page to a different physical frame (as memory
    /// compaction / NUMA balancing would). Fails if pinned.
    pub fn migrate(&mut self, id: AsId, vpn: Vpn) -> Result<Vec<NotifierEvent>, MemError> {
        let space = self.space(id)?;
        let notifier = space.notifier;
        let pte = space.ptes.get(vpn.0);
        match pte {
            Some(Pte::Resident { pfn, cow }) => {
                if self.frames.is_pinned(pfn) {
                    return Err(MemError::PagePinned(vpn.base()));
                }
                let new = self.frames.alloc()?;
                self.frames.copy_frame(pfn, new);
                self.frames.put(pfn);
                self.space_mut(id)?
                    .ptes
                    .insert(vpn.0, Pte::Resident { pfn: new, cow });
                Ok(if notifier {
                    vec![NotifierEvent {
                        space: id,
                        range: VpnRange::new(vpn, vpn.next()),
                        cause: InvalidateCause::Migrate,
                    }]
                } else {
                    Vec::new()
                })
            }
            _ => Err(MemError::NotResident(vpn.base())),
        }
    }

    /// Fork `parent` into a new space sharing all resident pages
    /// copy-on-write. Swapped pages are duplicated. (Linux fires no
    /// notifier on fork itself; hazards surface at the later COW breaks.)
    pub fn fork_space(&mut self, parent: AsId) -> Result<AsId, MemError> {
        let p = self.space(parent)?;
        // Check swap up front so a failed fork leaves nothing behind.
        let swapped = p
            .ptes
            .iter()
            .filter(|(_, pte)| matches!(pte, Pte::Swapped { .. }))
            .count();
        if swapped > self.swap.free.len() {
            return Err(MemError::OutOfSwap);
        }
        let (vmas, mut ptes) = (p.vmas.clone(), p.ptes.clone());
        for pte in ptes.values_mut() {
            match pte {
                Pte::Resident { pfn, cow } => {
                    self.frames.get(*pfn);
                    *cow = true;
                }
                Pte::Swapped { slot } => {
                    *slot = self.swap.duplicate(*slot).expect("free slots counted");
                }
            }
        }
        // Mark the parent's resident pages COW as well.
        for pte in self.space_mut(parent)?.ptes.values_mut() {
            if let Pte::Resident { cow, .. } = pte {
                *cow = true;
            }
        }
        let child = self.create_space();
        let c = self.space_mut(child)?;
        c.vmas = vmas;
        c.ptes = ptes;
        Ok(child)
    }

    /// The resident frame backing `vpn`, if any (driver-side lookup).
    pub fn resident_pfn(&self, id: AsId, vpn: Vpn) -> Option<Pfn> {
        match self.space(id).ok()?.ptes.get(vpn.0)? {
            Pte::Resident { pfn, .. } => Some(pfn),
            Pte::Swapped { .. } => None,
        }
    }

    /// True if `id` names a live (created and not destroyed) address space.
    pub fn space_exists(&self, id: AsId) -> bool {
        self.spaces.get(id.0 as usize).is_some_and(Option::is_some)
    }

    /// Ids of every live address space, in id order.
    pub fn space_ids(&self) -> Vec<AsId> {
        self.spaces
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .map(|(i, _)| AsId(i as u32))
            .collect()
    }

    /// Pages of `[addr, addr+len)` that are resident right now, in address
    /// order — lets harnesses target swap-out/migration deterministically.
    pub fn resident_vpns_in(&self, id: AsId, addr: VirtAddr, len: u64) -> Vec<Vpn> {
        let Ok(space) = self.space(id) else {
            return Vec::new();
        };
        let range = VpnRange::covering(addr, len.max(1));
        space
            .ptes
            .range(range.as_raw())
            .filter(|(_, pte)| matches!(pte, Pte::Resident { .. }))
            .map(|(vpn, _)| Vpn(vpn))
            .collect()
    }

    /// Direct physical read (what the driver does with pinned pages: "the
    /// kernel may remap it at a temporary virtual location and memcpy").
    pub fn read_phys(&self, pfn: Pfn, offset: u64, buf: &mut [u8]) {
        self.frames.read(pfn, offset, buf);
    }

    /// Direct physical write.
    pub fn write_phys(&mut self, pfn: Pfn, offset: u64, data: &[u8]) {
        self.frames.write(pfn, offset, data);
    }

    /// A frame's current page, by reference (see
    /// [`FrameAllocator::share`]).
    pub fn share_phys(&self, pfn: Pfn) -> Arc<[u8]> {
        self.frames.share(pfn)
    }

    /// Direct physical landing (see [`FrameAllocator::land`]).
    pub fn land_phys(&mut self, pfn: Pfn, offset: u64, len: u64, src: &mut SnapshotReader<'_>) {
        self.frames.land(pfn, offset, len, src);
    }

    /// Access to frame-pool statistics.
    pub fn frames(&self) -> &FrameAllocator {
        &self.frames
    }

    /// Pages currently in swap.
    pub fn swap_used(&self) -> usize {
        self.swap.used
    }
}

/// Return a dropped page's frame reference or swap slot.
fn release(frames: &mut FrameAllocator, swap: &mut SwapSpace, pte: Pte) {
    match pte {
        Pte::Resident { pfn, .. } => frames.put(pfn),
        Pte::Swapped { slot } => swap.drop_slot(slot),
    }
}

/// The slow path of a fault on `vpn` of `space`, whose VMA the caller has
/// already checked (present, and writable for a write) and whose entry
/// `pte` does not map a frame the access may use as it is. The page is
/// zero-filled or swapped in, or, for a write to a COW page, the COW bit
/// is dropped if the frame has no other mapping and the page is copied to
/// a private frame otherwise, which emits a `CowBreak` event into
/// `events` when a notifier is registered. Returns the resident frame.
fn fault_in(
    id: AsId,
    space: &mut AddressSpace,
    frames: &mut FrameAllocator,
    swap: &mut SwapSpace,
    vpn: Vpn,
    pte: Option<Pte>,
    events: &mut Vec<NotifierEvent>,
) -> Result<Pfn, MemError> {
    let pfn = match pte {
        // Demand-zero fault.
        None => frames.alloc()?,
        Some(Pte::Swapped { slot }) => {
            let pfn = frames.alloc()?;
            frames.install(pfn, swap.load(slot));
            pfn
        }
        // Sole owner: just drop the COW bit.
        Some(Pte::Resident { pfn, .. }) if frames.refcount(pfn) == 1 => pfn,
        Some(Pte::Resident { pfn, .. }) => {
            // Shared: copy to a private frame.
            let new = frames.alloc()?;
            frames.copy_frame(pfn, new);
            frames.put(pfn);
            if space.notifier {
                events.push(NotifierEvent {
                    space: id,
                    range: VpnRange::new(vpn, vpn.next()),
                    cause: InvalidateCause::CowBreak,
                });
            }
            new
        }
    };
    space.ptes.insert(vpn.0, Pte::Resident { pfn, cow: false });
    Ok(pfn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_SIZE;

    fn memory() -> Memory {
        Memory::new(1024, 256)
    }

    #[test]
    fn mmap_write_read_roundtrip() {
        let mut m = memory();
        let a = m.create_space();
        let addr = m.mmap(a, 3 * PAGE_SIZE, Prot::ReadWrite).unwrap();
        let data: Vec<u8> = (0..PAGE_SIZE * 2 + 100).map(|i| (i % 251) as u8).collect();
        let ev = m.write(a, addr.add(50), &data).unwrap();
        assert!(ev.is_empty());
        let mut back = vec![0u8; data.len()];
        m.read(a, addr.add(50), &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn demand_paging_allocates_lazily() {
        let mut m = memory();
        let a = m.create_space();
        let addr = m.mmap(a, 100 * PAGE_SIZE, Prot::ReadWrite).unwrap();
        assert_eq!(m.frames().allocated(), 0);
        m.write(a, addr, b"x").unwrap();
        assert_eq!(m.frames().allocated(), 1);
        m.write(a, addr.add(PAGE_SIZE * 50), b"y").unwrap();
        assert_eq!(m.frames().allocated(), 2);
    }

    #[test]
    fn unmapped_access_faults() {
        let mut m = memory();
        let a = m.create_space();
        let mut buf = [0u8; 4];
        assert!(matches!(
            m.read(a, VirtAddr(0x5000_0000), &mut buf),
            Err(MemError::BadAddress(_))
        ));
    }

    #[test]
    fn readonly_mapping_rejects_writes() {
        let mut m = memory();
        let a = m.create_space();
        let addr = m.mmap(a, PAGE_SIZE, Prot::ReadOnly).unwrap();
        assert!(matches!(
            m.write(a, addr, b"nope"),
            Err(MemError::ProtectionFault(_))
        ));
        let mut buf = [0u8; 4];
        m.read(a, addr, &mut buf).unwrap();
    }

    #[test]
    fn munmap_emits_notifier_event_when_registered() {
        let mut m = memory();
        let a = m.create_space();
        let addr = m.mmap(a, 4 * PAGE_SIZE, Prot::ReadWrite).unwrap();
        m.write(a, addr, &[1; 4096]).unwrap();
        // No notifier: silent.
        let ev = m.munmap(a, addr, PAGE_SIZE).unwrap();
        assert!(ev.is_empty());
        m.register_notifier(a).unwrap();
        let ev = m.munmap(a, addr.add(PAGE_SIZE), PAGE_SIZE).unwrap();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].cause, InvalidateCause::Unmap);
        assert_eq!(ev[0].range.len(), 1);
        assert_eq!(ev[0].space, a);
    }

    #[test]
    fn munmap_frees_frames() {
        let mut m = memory();
        let a = m.create_space();
        let addr = m.mmap(a, 4 * PAGE_SIZE, Prot::ReadWrite).unwrap();
        m.write(a, addr, &vec![7u8; 4 * PAGE_SIZE as usize])
            .unwrap();
        assert_eq!(m.frames().allocated(), 4);
        m.munmap(a, addr, 4 * PAGE_SIZE).unwrap();
        assert_eq!(m.frames().allocated(), 0);
    }

    #[test]
    fn pinned_page_survives_munmap() {
        let mut m = memory();
        let a = m.create_space();
        let addr = m.mmap(a, PAGE_SIZE, Prot::ReadWrite).unwrap();
        m.write(a, addr, b"persist").unwrap();
        let (pfns, _) = m.pin_user_pages(a, addr, PAGE_SIZE).unwrap();
        m.munmap(a, addr, PAGE_SIZE).unwrap();
        // The mapping is gone but the driver can still read the frame.
        let mut buf = [0u8; 7];
        m.read_phys(pfns[0], 0, &mut buf);
        assert_eq!(&buf, b"persist");
        m.unpin_pages(&pfns);
        assert_eq!(m.frames().allocated(), 0);
    }

    #[test]
    fn pin_prevents_swap_and_migration() {
        let mut m = memory();
        let a = m.create_space();
        let addr = m.mmap(a, PAGE_SIZE, Prot::ReadWrite).unwrap();
        m.write(a, addr, b"data").unwrap();
        let (pfns, _) = m.pin_user_pages(a, addr, PAGE_SIZE).unwrap();
        assert!(matches!(
            m.swap_out(a, addr.vpn()),
            Err(MemError::PagePinned(_))
        ));
        assert!(matches!(
            m.migrate(a, addr.vpn()),
            Err(MemError::PagePinned(_))
        ));
        m.unpin_pages(&pfns);
        m.register_notifier(a).unwrap();
        let ev = m.migrate(a, addr.vpn()).unwrap();
        assert_eq!(ev[0].cause, InvalidateCause::Migrate);
    }

    #[test]
    fn swap_out_and_back_preserves_data() {
        let mut m = memory();
        let a = m.create_space();
        let addr = m.mmap(a, PAGE_SIZE, Prot::ReadWrite).unwrap();
        m.write(a, addr, b"swapped bytes").unwrap();
        m.register_notifier(a).unwrap();
        let ev = m.swap_out(a, addr.vpn()).unwrap();
        assert_eq!(ev[0].cause, InvalidateCause::SwapOut);
        assert_eq!(m.swap_used(), 1);
        assert_eq!(m.frames().allocated(), 0);
        let mut buf = [0u8; 13];
        m.read(a, addr, &mut buf).unwrap(); // faults the page back in
        assert_eq!(&buf, b"swapped bytes");
        assert_eq!(m.swap_used(), 0);
    }

    #[test]
    fn migration_changes_frame_keeps_data() {
        let mut m = memory();
        let a = m.create_space();
        let addr = m.mmap(a, PAGE_SIZE, Prot::ReadWrite).unwrap();
        m.write(a, addr, b"moving").unwrap();
        let before = m.resident_pfn(a, addr.vpn()).unwrap();
        m.migrate(a, addr.vpn()).unwrap();
        let after = m.resident_pfn(a, addr.vpn()).unwrap();
        assert_ne!(before, after);
        let mut buf = [0u8; 6];
        m.read(a, addr, &mut buf).unwrap();
        assert_eq!(&buf, b"moving");
    }

    #[test]
    fn migrate_and_swap_move_pages_by_reference_without_leaks() {
        let mut m = memory();
        let a = m.create_space();
        let addr = m.mmap(a, PAGE_SIZE, Prot::ReadWrite).unwrap();
        let bytes: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 249) as u8).collect();
        m.write(a, addr, &bytes).unwrap();
        let held = m.share_phys(m.resident_pfn(a, addr.vpn()).unwrap());
        m.migrate(a, addr.vpn()).unwrap();
        m.swap_out(a, addr.vpn()).unwrap();
        let mut back = vec![0u8; PAGE_SIZE as usize];
        m.read(a, addr, &mut back).unwrap(); // swap-in
        assert_eq!(back, bytes);
        m.swap_out(a, addr.vpn()).unwrap();
        let child = m.fork_space(a).unwrap(); // duplicates the swap slot
        m.write(a, addr.add(8), b"parent").unwrap();
        m.read(child, addr, &mut back).unwrap();
        assert_eq!(back, bytes, "duplicated slot saw the parent's write");
        assert_eq!(&*held, &bytes[..], "held page saw a later write");
        assert_eq!(m.frames().pinned_pages(), 0);
    }

    #[test]
    fn fork_out_of_swap_leaves_nothing_behind() {
        let mut m = Memory::new(8, 1);
        let a = m.create_space();
        let addr = m.mmap(a, 2 * PAGE_SIZE, Prot::ReadWrite).unwrap();
        m.write(a, addr, &vec![5u8; 2 * PAGE_SIZE as usize])
            .unwrap();
        // The only swap slot holds page 1, so page 1 cannot be duplicated.
        m.swap_out(a, addr.add(PAGE_SIZE).vpn()).unwrap();
        assert!(matches!(m.fork_space(a), Err(MemError::OutOfSwap)));
        assert_eq!(m.space_ids(), vec![a], "no half-built child");
        let pfn = m.resident_pfn(a, addr.vpn()).unwrap();
        assert_eq!(m.frames().refcount(pfn), 1, "no reference taken");
        assert_eq!(m.swap_used(), 1, "no slot duplicated");
        // The parent's page is not left COW: a write lands in place.
        m.write(a, addr, b"x").unwrap();
        assert_eq!(m.resident_pfn(a, addr.vpn()), Some(pfn));
    }

    #[test]
    fn swap_in_out_of_memory_keeps_the_swapped_page() {
        let mut m = Memory::new(1, 1);
        let a = m.create_space();
        let addr = m.mmap(a, 2 * PAGE_SIZE, Prot::ReadWrite).unwrap();
        m.write(a, addr, b"kept").unwrap();
        m.swap_out(a, addr.vpn()).unwrap();
        m.write(a, addr.add(PAGE_SIZE), b"y").unwrap(); // takes the only frame
        let mut buf = [0u8; 4];
        assert!(matches!(
            m.read(a, addr, &mut buf),
            Err(MemError::OutOfMemory)
        ));
        assert_eq!(m.swap_used(), 1, "the page is still in swap");
        m.munmap(a, addr.add(PAGE_SIZE), PAGE_SIZE).unwrap();
        m.read(a, addr, &mut buf).unwrap();
        assert_eq!(&buf, b"kept");
    }

    #[test]
    fn fork_shares_then_cow_breaks_on_write() {
        let mut m = memory();
        let parent = m.create_space();
        let addr = m.mmap(parent, PAGE_SIZE, Prot::ReadWrite).unwrap();
        m.write(parent, addr, b"original").unwrap();
        let child = m.fork_space(parent).unwrap();
        // Shared frame.
        assert_eq!(
            m.resident_pfn(parent, addr.vpn()),
            m.resident_pfn(child, addr.vpn())
        );
        assert_eq!(m.frames().allocated(), 1);
        m.register_notifier(parent).unwrap();
        // Parent write breaks COW and fires the notifier.
        let ev = m.write(parent, addr, b"PARENT!!").unwrap();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].cause, InvalidateCause::CowBreak);
        assert_ne!(
            m.resident_pfn(parent, addr.vpn()),
            m.resident_pfn(child, addr.vpn())
        );
        // Child still sees the original bytes.
        let mut buf = [0u8; 8];
        m.read(child, addr, &mut buf).unwrap();
        assert_eq!(&buf, b"original");
        let mut buf = [0u8; 8];
        m.read(parent, addr, &mut buf).unwrap();
        assert_eq!(&buf, b"PARENT!!");
    }

    #[test]
    fn sole_owner_cow_write_does_not_copy() {
        let mut m = memory();
        let parent = m.create_space();
        let addr = m.mmap(parent, PAGE_SIZE, Prot::ReadWrite).unwrap();
        m.write(parent, addr, b"x").unwrap();
        let child = m.fork_space(parent).unwrap();
        m.destroy_space(child).unwrap();
        let before = m.resident_pfn(parent, addr.vpn()).unwrap();
        m.write(parent, addr, b"y").unwrap();
        assert_eq!(m.resident_pfn(parent, addr.vpn()).unwrap(), before);
    }

    #[test]
    fn gup_breaks_cow_eagerly() {
        // Pinning a COW-shared page must give the pinner a private copy
        // (FOLL_WRITE semantics) so later parent writes cannot detach the
        // pinned frame silently.
        let mut m = memory();
        let parent = m.create_space();
        let addr = m.mmap(parent, PAGE_SIZE, Prot::ReadWrite).unwrap();
        m.write(parent, addr, b"shared").unwrap();
        let child = m.fork_space(parent).unwrap();
        m.register_notifier(parent).unwrap();
        let (pfns, ev) = m.pin_user_pages(parent, addr, PAGE_SIZE).unwrap();
        assert_eq!(ev.len(), 1, "pin broke COW");
        assert_eq!(ev[0].cause, InvalidateCause::CowBreak);
        // Parent's pinned frame is now private; parent writes land in it.
        m.write(parent, addr, b"parent").unwrap();
        let mut buf = [0u8; 6];
        m.read_phys(pfns[0], 0, &mut buf);
        assert_eq!(&buf, b"parent");
        // Child unaffected.
        let mut buf = [0u8; 6];
        m.read(child, addr, &mut buf).unwrap();
        assert_eq!(&buf, b"shared");
        m.unpin_pages(&pfns);
    }

    #[test]
    fn pin_failure_rolls_back() {
        let mut m = Memory::new(2, 0);
        let a = m.create_space();
        let addr = m.mmap(a, 4 * PAGE_SIZE, Prot::ReadWrite).unwrap();
        // Only 2 frames available for 4 pages.
        assert!(matches!(
            m.pin_user_pages(a, addr, 4 * PAGE_SIZE),
            Err(MemError::OutOfMemory)
        ));
        assert_eq!(m.frames().pinned_pages(), 0);
    }

    #[test]
    fn partial_pin_reports_leading_pages_and_error() {
        let mut m = Memory::new(2, 0);
        let a = m.create_space();
        let addr = m.mmap(a, 4 * PAGE_SIZE, Prot::ReadWrite).unwrap();
        // 2 frames for 4 pages: the first two pin, the third fails.
        let partial = m.pin_user_pages_partial(a, addr, 4 * PAGE_SIZE);
        assert_eq!(partial.pfns.len(), 2);
        assert!(matches!(partial.error, Some(MemError::OutOfMemory)));
        // No internal rollback: the caller owns the partial pins.
        assert_eq!(m.frames().pinned_pages(), 2);
        m.unpin_pages(&partial.pfns);
        assert_eq!(m.frames().pinned_pages(), 0);
    }

    #[test]
    fn partial_pin_success_matches_per_page_pins() {
        let mut m = memory();
        let a = m.create_space();
        let addr = m.mmap(a, 4 * PAGE_SIZE, Prot::ReadWrite).unwrap();
        let calls0 = m.pin_calls();
        let batch = m.pin_user_pages_partial(a, addr, 4 * PAGE_SIZE);
        assert!(batch.error.is_none());
        assert_eq!(m.pin_calls() - calls0, 1, "one call pins the whole run");
        let mut per_page = Vec::new();
        for i in 0..4 {
            let (pfns, _) = m
                .pin_user_pages(a, addr.add(i * PAGE_SIZE), PAGE_SIZE)
                .unwrap();
            per_page.extend(pfns);
        }
        assert_eq!(batch.pfns, per_page);
        assert_eq!(m.pin_calls() - calls0, 5);
        m.unpin_pages(&batch.pfns);
        m.unpin_pages(&per_page);
        assert_eq!(m.frames().pinned_pages(), 0);
    }

    #[test]
    fn destroy_space_releases_everything() {
        let mut m = memory();
        let a = m.create_space();
        let addr = m.mmap(a, 8 * PAGE_SIZE, Prot::ReadWrite).unwrap();
        m.write(a, addr, &vec![3u8; 8 * PAGE_SIZE as usize])
            .unwrap();
        m.swap_out(a, addr.vpn()).unwrap();
        m.register_notifier(a).unwrap();
        let ev = m.destroy_space(a).unwrap();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].cause, InvalidateCause::Release);
        assert_eq!(m.frames().allocated(), 0);
        assert_eq!(m.swap_used(), 0);
        assert!(matches!(
            m.mmap(a, 1, Prot::ReadWrite),
            Err(MemError::NoSuchSpace)
        ));
    }

    #[test]
    fn space_ids_are_reused() {
        let mut m = memory();
        let a = m.create_space();
        m.destroy_space(a).unwrap();
        let b = m.create_space();
        assert_eq!(a, b);
    }

    #[test]
    fn mmap_addresses_do_not_overlap() {
        let mut m = memory();
        let a = m.create_space();
        let x = m.mmap(a, 10 * PAGE_SIZE, Prot::ReadWrite).unwrap();
        let y = m.mmap(a, 10 * PAGE_SIZE, Prot::ReadWrite).unwrap();
        assert!(y.0 >= x.0 + 10 * PAGE_SIZE || x.0 >= y.0 + 10 * PAGE_SIZE);
    }

    #[test]
    fn munmap_then_mmap_reuses_address() {
        // The malloc/free/malloc reuse pattern the pinning cache depends on:
        // a freed range is handed out again for an equal-size request.
        let mut m = memory();
        let a = m.create_space();
        let x = m.mmap(a, 16 * PAGE_SIZE, Prot::ReadWrite).unwrap();
        m.munmap(a, x, 16 * PAGE_SIZE).unwrap();
        let y = m.mmap(a, 16 * PAGE_SIZE, Prot::ReadWrite).unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn mmap_at_rejects_busy_range() {
        let mut m = memory();
        let a = m.create_space();
        let x = m
            .mmap_at(a, VirtAddr(0x10_0000), PAGE_SIZE * 2, Prot::ReadWrite)
            .unwrap();
        assert!(matches!(
            m.mmap_at(a, x, PAGE_SIZE, Prot::ReadWrite),
            Err(MemError::RangeBusy(_))
        ));
    }

    #[test]
    fn unpin_pages_partial_is_one_call_and_counts_pages() {
        let mut m = memory();
        let a = m.create_space();
        let addr = m.mmap(a, 8 * PAGE_SIZE, Prot::ReadWrite).unwrap();
        let (pfns, _) = m.pin_user_pages(a, addr, 8 * PAGE_SIZE).unwrap();
        assert_eq!(m.frames().pinned_pages(), 8);

        // Release an arbitrary 3-page run out of the middle: one syscall,
        // three pages, the other five stay pinned.
        let before = m.unpin_calls();
        assert_eq!(m.unpin_pages_partial(&pfns[2..5]), 3);
        assert_eq!(m.unpin_calls(), before + 1);
        assert_eq!(m.frames().pinned_pages(), 5);
        for (i, &pfn) in pfns.iter().enumerate() {
            assert_eq!(m.frames().is_pinned(pfn), !(2..5).contains(&i), "page {i}");
        }

        // The classic wrapper delegates: one more call, everything free.
        m.unpin_pages(&pfns[..2]);
        m.unpin_pages(&pfns[5..]);
        assert_eq!(m.unpin_calls(), before + 3);
        assert_eq!(m.frames().pinned_pages(), 0);
    }
}
