//! The physical frame pool with byte-backed frames.
//!
//! Every frame carries real bytes so the whole stack can be checked for
//! end-to-end data integrity (a registration cache that goes stale produces
//! *observable corruption* in tests, exactly the failure mode the paper's
//! MMU-notifier design eliminates).
//!
//! Reference counting mirrors Linux `struct page`:
//! * `refcount` — how many mappings / pinners hold the frame alive,
//! * `pin_count` — how many of those references are DMA pins
//!   (`get_user_pages`). A pinned frame may not be swapped or migrated,
//!   and it survives `munmap` until the last pinner releases it.
//!
//! ## Copy-on-write page storage
//!
//! A frame's bytes live in a reference-counted page (`Arc<[u8]>`) that
//! other holders may share: a [`PageSnapshot`] taken
//! by [`FrameAllocator::share`], another frame that received the page
//! through [`FrameAllocator::install`], or a swap slot. Sharing is
//! invisible to readers because every write to a shared page copies it
//! first, so a holder keeps the bytes the page had when it took its
//! reference. A frame that was never written holds no page at all and
//! reads as zeros; allocating one costs no memory.
//!
//! This byte-storage sharing is separate from `refcount`, which counts
//! *mappings* of the frame and drives the address-space COW in
//! [`crate::Memory`].

use std::sync::Arc;

use crate::addr::{Pfn, PAGE_SIZE};
use crate::error::MemError;
use crate::snapshot::{PageSnapshot, SnapshotReader};

/// One physical frame; free while `refcount` is zero. (An
/// `Option<Frame>` slot would take 32 bytes instead of 24: the page
/// pointer's only niche already encodes `data: None`.)
struct Frame {
    /// The frame's bytes; `None` until first written (demand-zero).
    data: Option<Arc<[u8]>>,
    refcount: u32,
    pin_count: u32,
}

/// The allocated frame `pfn` of `frames`.
fn live(frames: &mut [Frame], pfn: Pfn) -> &mut Frame {
    let f = &mut frames[pfn.0 as usize];
    assert!(f.refcount > 0, "use of freed frame {pfn:?}");
    f
}

/// Fixed-capacity pool of physical frames.
pub struct FrameAllocator {
    frames: Vec<Frame>,
    free: Vec<Pfn>,
    allocated: usize,
    pinned_pages: usize,
    /// High-water mark of simultaneously pinned pages.
    pinned_peak: usize,
    /// The page an unwritten frame reads as. Never written in place: the
    /// allocator's own reference keeps it shared, so writes copy it.
    zero: Arc<[u8]>,
}

impl FrameAllocator {
    /// A pool of `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        let free = (0..capacity as u32).rev().map(Pfn).collect();
        FrameAllocator {
            frames: (0..capacity)
                .map(|_| Frame {
                    data: None,
                    refcount: 0,
                    pin_count: 0,
                })
                .collect(),
            free,
            allocated: 0,
            pinned_pages: 0,
            pinned_peak: 0,
            zero: vec![0u8; PAGE_SIZE as usize].into(),
        }
    }

    /// Allocate a zeroed frame with refcount 1. The frame gets no page
    /// until its first write.
    pub fn alloc(&mut self) -> Result<Pfn, MemError> {
        let pfn = self.free.pop().ok_or(MemError::OutOfMemory)?;
        let f = &mut self.frames[pfn.0 as usize];
        debug_assert!(f.refcount == 0 && f.data.is_none());
        f.refcount = 1;
        self.allocated += 1;
        Ok(pfn)
    }

    fn frame(&self, pfn: Pfn) -> &Frame {
        let f = &self.frames[pfn.0 as usize];
        assert!(f.refcount > 0, "use of freed frame {pfn:?}");
        f
    }

    fn frame_mut(&mut self, pfn: Pfn) -> &mut Frame {
        live(&mut self.frames, pfn)
    }

    /// Take an additional reference (new mapping sharing the frame).
    pub fn get(&mut self, pfn: Pfn) {
        self.frame_mut(pfn).refcount += 1;
    }

    /// Drop a reference; the frame is freed when the count reaches zero.
    ///
    /// # Panics
    /// Panics if the frame is freed while still pinned with its last
    /// reference — pinners hold their own reference, so this indicates a
    /// refcounting bug in the caller.
    pub fn put(&mut self, pfn: Pfn) {
        let f = self.frame_mut(pfn);
        f.refcount -= 1;
        if f.refcount == 0 {
            assert_eq!(f.pin_count, 0, "freeing pinned frame {pfn:?}");
            f.data = None;
            self.free.push(pfn);
            self.allocated -= 1;
        }
    }

    /// Pin the frame for DMA: takes a reference *and* raises the pin count.
    pub fn pin(&mut self, pfn: Pfn) {
        let f = self.frame_mut(pfn);
        f.refcount += 1;
        f.pin_count += 1;
        self.pinned_pages += 1;
        self.pinned_peak = self.pinned_peak.max(self.pinned_pages);
    }

    /// Release a DMA pin (drops the pinner's reference too).
    pub fn unpin(&mut self, pfn: Pfn) {
        {
            let f = self.frame_mut(pfn);
            assert!(f.pin_count > 0, "unpin of unpinned frame {pfn:?}");
            f.pin_count -= 1;
        }
        self.pinned_pages -= 1;
        self.put(pfn);
    }

    /// True if the frame has at least one DMA pin.
    pub fn is_pinned(&self, pfn: Pfn) -> bool {
        self.frame(pfn).pin_count > 0
    }

    /// Current reference count (for tests/assertions).
    pub fn refcount(&self, pfn: Pfn) -> u32 {
        self.frame(pfn).refcount
    }

    /// Read bytes from the frame at `offset`.
    ///
    /// # Panics
    /// Panics if the access crosses the frame boundary or targets a freed
    /// frame — both are driver bugs, not recoverable conditions.
    pub fn read(&self, pfn: Pfn, offset: u64, buf: &mut [u8]) {
        let off = offset as usize;
        match &self.frame(pfn).data {
            Some(page) => buf.copy_from_slice(&page[off..off + buf.len()]),
            None => {
                assert!(off + buf.len() <= PAGE_SIZE as usize, "read past frame");
                buf.fill(0);
            }
        }
    }

    /// Write bytes into the frame at `offset`.
    ///
    /// A page nobody else holds is written in place. A page that is shared
    /// (or a frame that has none yet) gets a private page first: built
    /// straight from `data` for a whole-page write, otherwise a copy of the
    /// current bytes. Holders of the old page never see the write.
    pub fn write(&mut self, pfn: Pfn, offset: u64, data: &[u8]) {
        let off = offset as usize;
        let zero = &self.zero;
        let f = live(&mut self.frames, pfn);
        if let Some(page) = f.data.as_mut().and_then(Arc::get_mut) {
            page[off..off + data.len()].copy_from_slice(data);
        } else if data.len() == PAGE_SIZE as usize {
            f.data = Some(data.into());
        } else {
            let page = f.data.get_or_insert_with(|| Arc::clone(zero));
            Arc::make_mut(page)[off..off + data.len()].copy_from_slice(data);
        }
    }

    /// A reference to the frame's current page. Later writes to the frame
    /// do not show through it; an unwritten frame shares the zero page.
    pub fn share(&self, pfn: Pfn) -> Arc<[u8]> {
        Arc::clone(self.frame(pfn).data.as_ref().unwrap_or(&self.zero))
    }

    /// Make `page` the frame's contents without copying it. The frame and
    /// every other holder of `page` stay isolated: whichever writes first
    /// copies.
    ///
    /// # Panics
    /// Panics if `page` is not exactly one page long.
    pub fn install(&mut self, pfn: Pfn, page: Arc<[u8]>) {
        assert_eq!(page.len(), PAGE_SIZE as usize, "install of a partial page");
        self.frame_mut(pfn).data = Some(page);
    }

    /// Append bytes `[offset, offset + len)` of the frame to `snap`, by
    /// reference to its current page (see [`FrameAllocator::share`]).
    pub fn capture(&self, pfn: Pfn, offset: u64, len: u64, snap: &mut PageSnapshot) {
        snap.push(self.share(pfn), offset, len);
    }

    /// Write the next `len` bytes of `src` into the frame at `offset`. A
    /// whole page that `src` holds as one whole captured page is installed
    /// by reference; anything else is copied.
    ///
    /// # Panics
    /// Panics if `src` runs out before `len` bytes.
    pub fn land(&mut self, pfn: Pfn, offset: u64, len: u64, src: &mut SnapshotReader<'_>) {
        if len == PAGE_SIZE {
            if let Some(page) = src.whole_page() {
                self.install(pfn, page);
                return;
            }
        }
        let mut done = 0;
        while done < len {
            let bytes = src.bytes(len - done);
            assert!(!bytes.is_empty(), "snapshot shorter than its span");
            self.write(pfn, offset + done, bytes);
            done += bytes.len() as u64;
        }
    }

    /// Give `dst` the contents of `src` (COW break, migration). The two
    /// share one page until either is written.
    pub fn copy_frame(&mut self, src: Pfn, dst: Pfn) {
        assert_ne!(src, dst);
        let page = self.share(src);
        self.install(dst, page);
    }

    /// Number of frames currently allocated.
    pub fn allocated(&self) -> usize {
        self.allocated
    }

    /// Number of free frames.
    pub fn free_frames(&self) -> usize {
        self.free.len()
    }

    /// Number of page pins currently outstanding (counts multiplicity).
    pub fn pinned_pages(&self) -> usize {
        self.pinned_pages
    }

    /// High-water mark of outstanding pins.
    pub fn pinned_peak(&self) -> usize {
        self.pinned_peak
    }

    /// Pool capacity in frames.
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle() {
        let mut fa = FrameAllocator::new(4);
        let a = fa.alloc().unwrap();
        let b = fa.alloc().unwrap();
        assert_ne!(a, b);
        assert_eq!(fa.allocated(), 2);
        fa.put(a);
        assert_eq!(fa.allocated(), 1);
        let c = fa.alloc().unwrap();
        assert_eq!(c, a, "freed frame is reused");
        fa.put(b);
        fa.put(c);
        assert_eq!(fa.allocated(), 0);
        assert_eq!(fa.free_frames(), 4);
    }

    #[test]
    fn out_of_memory() {
        let mut fa = FrameAllocator::new(1);
        let _a = fa.alloc().unwrap();
        assert!(matches!(fa.alloc(), Err(MemError::OutOfMemory)));
    }

    #[test]
    fn frames_are_zeroed_on_alloc() {
        let mut fa = FrameAllocator::new(2);
        let a = fa.alloc().unwrap();
        fa.write(a, 0, &[0xff; 16]);
        fa.put(a);
        let b = fa.alloc().unwrap();
        assert_eq!(b, a);
        let mut buf = [0xaa; 16];
        fa.read(b, 0, &mut buf);
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn pin_keeps_frame_alive_past_unmap() {
        let mut fa = FrameAllocator::new(2);
        let a = fa.alloc().unwrap(); // mapping ref
        fa.write(a, 100, b"payload");
        fa.pin(a); // DMA pin
        fa.put(a); // mapping goes away (munmap)
        assert_eq!(fa.allocated(), 1, "pinned frame survives");
        let mut buf = [0u8; 7];
        fa.read(a, 100, &mut buf);
        assert_eq!(&buf, b"payload");
        fa.unpin(a);
        assert_eq!(fa.allocated(), 0);
    }

    #[test]
    fn pin_statistics() {
        let mut fa = FrameAllocator::new(4);
        let a = fa.alloc().unwrap();
        let b = fa.alloc().unwrap();
        fa.pin(a);
        fa.pin(b);
        fa.pin(a); // double pin of the same frame counts twice
        assert_eq!(fa.pinned_pages(), 3);
        assert_eq!(fa.pinned_peak(), 3);
        fa.unpin(a);
        fa.unpin(b);
        assert_eq!(fa.pinned_pages(), 1);
        assert_eq!(fa.pinned_peak(), 3);
        assert!(fa.is_pinned(a));
        fa.unpin(a);
        assert!(!fa.is_pinned(a));
    }

    #[test]
    fn copy_frame_copies_bytes() {
        let mut fa = FrameAllocator::new(2);
        let a = fa.alloc().unwrap();
        let b = fa.alloc().unwrap();
        fa.write(a, 0, b"hello");
        fa.copy_frame(a, b);
        let mut buf = [0u8; 5];
        fa.read(b, 0, &mut buf);
        assert_eq!(&buf, b"hello");
        // The copy is a private page for each side once either writes.
        fa.write(a, 0, b"world");
        fa.read(b, 0, &mut buf);
        assert_eq!(&buf, b"hello");
    }

    fn page_of(fa: &FrameAllocator, pfn: Pfn) -> Vec<u8> {
        let mut buf = vec![0u8; PAGE_SIZE as usize];
        fa.read(pfn, 0, &mut buf);
        buf
    }

    #[test]
    fn shared_page_keeps_its_bytes_across_writes() {
        let mut fa = FrameAllocator::new(1);
        let a = fa.alloc().unwrap();
        fa.write(a, 0, &[7; PAGE_SIZE as usize]);
        let partial = fa.share(a);
        fa.write(a, 10, b"xyz");
        assert!(partial.iter().all(|&b| b == 7), "partial write leaked");
        assert_eq!(&page_of(&fa, a)[9..14], &[7, b'x', b'y', b'z', 7]);
        let whole = fa.share(a);
        fa.write(a, 0, &[9; PAGE_SIZE as usize]);
        assert_eq!(
            &whole[9..14],
            &[7, b'x', b'y', b'z', 7],
            "whole write leaked"
        );
        assert!(page_of(&fa, a).iter().all(|&b| b == 9));
    }

    #[test]
    fn installed_page_and_its_source_stay_isolated() {
        let mut fa = FrameAllocator::new(3);
        let (a, b, c) = (
            fa.alloc().unwrap(),
            fa.alloc().unwrap(),
            fa.alloc().unwrap(),
        );
        fa.write(a, 0, &[1; PAGE_SIZE as usize]);
        fa.install(b, fa.share(a));
        fa.install(c, fa.share(a));
        fa.write(a, 0, b"source"); // source to installed copy
        assert!(page_of(&fa, b).iter().all(|&x| x == 1));
        fa.write(b, 100, b"target"); // installed copy to source and sibling
        assert_eq!(&page_of(&fa, a)[..6], b"source");
        assert_eq!(&page_of(&fa, a)[100..106], &[1; 6]);
        assert!(page_of(&fa, c).iter().all(|&x| x == 1));
        assert_eq!(&page_of(&fa, b)[100..106], b"target");
    }

    #[test]
    fn unwritten_frame_reads_and_shares_zeros() {
        let mut fa = FrameAllocator::new(2);
        let a = fa.alloc().unwrap();
        assert!(page_of(&fa, a).iter().all(|&x| x == 0));
        let zero = fa.share(a);
        assert_eq!(zero.len(), PAGE_SIZE as usize);
        assert!(zero.iter().all(|&x| x == 0));
        // A partial write fills only its bytes; the rest stays zero, and
        // the zero page itself is never written.
        fa.write(a, 4000, b"tail");
        let page = page_of(&fa, a);
        assert_eq!(&page[4000..4004], b"tail");
        assert!(page[..4000].iter().chain(&page[4004..]).all(|&x| x == 0));
        assert!(zero.iter().all(|&x| x == 0));
        let b = fa.alloc().unwrap();
        assert!(fa.share(b).iter().all(|&x| x == 0));
    }

    #[test]
    fn share_and_install_leave_counts_alone() {
        let mut fa = FrameAllocator::new(2);
        let (a, b) = (fa.alloc().unwrap(), fa.alloc().unwrap());
        fa.pin(a);
        let page = fa.share(a);
        fa.install(b, page);
        assert_eq!((fa.refcount(a), fa.refcount(b)), (2, 1));
        assert!(fa.is_pinned(a) && !fa.is_pinned(b));
        assert_eq!((fa.pinned_pages(), fa.allocated()), (1, 2));
        fa.unpin(a);
        fa.put(a);
        fa.put(b);
        assert_eq!(fa.allocated(), 0);
    }

    #[test]
    #[should_panic(expected = "install of a partial page")]
    fn install_rejects_a_partial_page() {
        let mut fa = FrameAllocator::new(1);
        let a = fa.alloc().unwrap();
        fa.install(a, vec![0u8; 16].into());
    }

    #[test]
    #[should_panic(expected = "use of freed frame")]
    fn use_after_free_is_caught() {
        let mut fa = FrameAllocator::new(1);
        let a = fa.alloc().unwrap();
        fa.put(a);
        let mut buf = [0u8; 1];
        fa.read(a, 0, &mut buf);
    }

    #[test]
    #[should_panic(expected = "unpin of unpinned frame")]
    fn unbalanced_unpin_is_caught() {
        let mut fa = FrameAllocator::new(1);
        let a = fa.alloc().unwrap();
        fa.unpin(a);
    }
}
