//! Payload bytes held by reference to the pages they came from.
//!
//! A [`PageSnapshot`] is an ordered list of byte ranges of shared pages
//! (see [`FrameAllocator::share`](crate::FrameAllocator::share)). Taking
//! one copies no bytes, yet it keeps the bytes its pages held when it was
//! taken: a write to a shared page copies the page first.

use std::fmt;
use std::rc::Rc;

use crate::addr::PAGE_SIZE;

#[derive(Clone)]
struct Piece {
    page: Rc<[u8]>,
    start: usize,
    len: usize,
}

impl Piece {
    #[inline]
    fn bytes(&self) -> &[u8] {
        &self.page[self.start..self.start + self.len]
    }
}

/// Bytes captured from one or more pages, in order, by reference.
///
/// The length is not stored but summed over the pieces (a payload has a
/// few): one word less in every frame that carries a snapshot.
#[derive(Clone, Default)]
pub struct PageSnapshot {
    pieces: Vec<Piece>,
}

impl PageSnapshot {
    /// An empty snapshot with room for `pieces` page ranges.
    #[inline]
    pub fn with_capacity(pieces: usize) -> Self {
        PageSnapshot {
            pieces: Vec::with_capacity(pieces),
        }
    }

    /// Append bytes `[start, start + len)` of `page`.
    ///
    /// # Panics
    /// Panics if `page` is not one page long or the range does not lie
    /// within it.
    #[inline]
    pub fn push(&mut self, page: Rc<[u8]>, start: u64, len: u64) {
        if page.len() != PAGE_SIZE as usize
            || start.checked_add(len).is_none_or(|end| end > PAGE_SIZE)
        {
            bad_piece(page.len(), start, len);
        }
        self.pieces.push(Piece {
            page,
            start: start as usize,
            len: len as usize,
        });
    }

    /// A snapshot of fresh pages holding a copy of `bytes`.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut snap = Self::with_capacity(bytes.len().div_ceil(PAGE_SIZE as usize));
        for chunk in bytes.chunks(PAGE_SIZE as usize) {
            let mut page = vec![0u8; PAGE_SIZE as usize];
            page[..chunk.len()].copy_from_slice(chunk);
            snap.push(page.into(), 0, chunk.len() as u64);
        }
        snap
    }

    /// Total bytes held.
    #[inline]
    pub fn len(&self) -> u64 {
        self.pieces.iter().map(|p| p.len as u64).sum()
    }

    /// True if the snapshot holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.pieces.iter().all(|p| p.len == 0)
    }

    /// Bytes `[start, start + len)`, by reference to the same pages.
    ///
    /// # Panics
    /// Panics if the range runs past the end of the snapshot.
    #[inline]
    pub fn slice(&self, start: u64, len: u64) -> PageSnapshot {
        let total = self.len();
        if start.checked_add(len).is_none_or(|end| end > total) {
            slice_past_end(start, len, total);
        }
        // A slice needs at most one piece per page its `len` bytes touch
        // when each piece covers a page of its own; pieces that share a
        // page only make the buffer grow.
        let pages = match len {
            0 => 0,
            n => (n - 1).div_ceil(PAGE_SIZE) + 1,
        };
        let pieces = pages.min(self.pieces.len() as u64);
        let mut out = PageSnapshot::with_capacity(pieces as usize);
        let mut skip = start as usize;
        let mut want = len as usize;
        for p in &self.pieces {
            if want == 0 {
                break;
            }
            if skip >= p.len {
                skip -= p.len;
                continue;
            }
            let n = (p.len - skip).min(want);
            out.pieces.push(Piece {
                page: Rc::clone(&p.page),
                start: p.start + skip,
                len: n,
            });
            skip = 0;
            want -= n;
        }
        out
    }

    /// Append the bytes of `other` after these.
    #[inline]
    pub fn append(&mut self, other: PageSnapshot) {
        if self.pieces.is_empty() {
            *self = other;
        } else {
            self.pieces.extend(other.pieces);
        }
    }

    /// The bytes, as contiguous slices in order.
    pub fn chunks(&self) -> impl Iterator<Item = &[u8]> + '_ {
        self.pieces.iter().map(Piece::bytes)
    }

    /// The bytes copied into one vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.chunks().collect::<Vec<_>>().concat()
    }

    /// A cursor that consumes the bytes front to back.
    #[inline]
    pub fn reader(&self) -> SnapshotReader<'_> {
        SnapshotReader {
            pieces: &self.pieces,
            piece: 0,
            at: 0,
        }
    }
}

#[cold]
#[inline(never)]
fn bad_piece(page_len: usize, start: u64, len: u64) -> ! {
    assert_eq!(page_len, PAGE_SIZE as usize, "snapshot piece of a non-page");
    panic!("snapshot piece {start}+{len} outside its page")
}

#[cold]
#[inline(never)]
fn slice_past_end(start: u64, len: u64, total: u64) -> ! {
    panic!("slice {start}+{len} past the end of a {total}-byte snapshot")
}

impl fmt::Debug for PageSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PageSnapshot")
            .field("len", &self.len())
            .field("pieces", &self.pieces.len())
            .finish()
    }
}

/// Front-to-back cursor over a [`PageSnapshot`].
pub struct SnapshotReader<'a> {
    pieces: &'a [Piece],
    piece: usize,
    /// Bytes of `pieces[piece]` already consumed.
    at: usize,
}

impl<'a> SnapshotReader<'a> {
    /// The page the next `len` bytes come from, if they are all one piece
    /// and sit at byte `offset` of that page. Consumes nothing.
    #[inline]
    pub fn page_at(&self, offset: u64, len: u64) -> Option<&'a Rc<[u8]>> {
        let p = self.pieces.get(self.piece)?;
        let start = p.start + self.at;
        (start == offset as usize && p.len - self.at >= len as usize).then_some(&p.page)
    }

    /// Consume and return up to `max` contiguous bytes (fewer at the end of
    /// a piece; empty once the snapshot is exhausted).
    #[inline]
    pub fn bytes(&mut self, max: u64) -> &'a [u8] {
        let Some(p) = self.pieces.get(self.piece) else {
            return &[];
        };
        let rest = &p.bytes()[self.at..];
        let n = rest.len().min(max as usize);
        self.at += n;
        if self.at == p.len {
            self.piece += 1;
            self.at = 0;
        }
        &rest[..n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(fill: u8) -> Rc<[u8]> {
        vec![fill; PAGE_SIZE as usize].into()
    }

    #[test]
    fn pieces_concatenate_in_order() {
        let mut s = PageSnapshot::default();
        assert!(s.is_empty());
        s.push(page(1), 10, 3);
        s.push(page(2), 0, 2);
        assert_eq!(s.len(), 5);
        assert_eq!(s.to_vec(), [1, 1, 1, 2, 2]);
        assert_eq!(s.chunks().count(), 2);
        let bytes: Vec<u8> = (0..2 * PAGE_SIZE + 5).map(|i| i as u8).collect();
        let s = PageSnapshot::from_bytes(&bytes);
        assert_eq!(s.chunks().count(), 3);
        assert_eq!(s.to_vec(), bytes);
    }

    #[test]
    fn reader_names_the_page_of_bytes_at_their_captured_offset() {
        let mut s = PageSnapshot::default();
        s.push(page(7), 0, PAGE_SIZE);
        s.push(page(8), 0, PAGE_SIZE);
        s.push(page(9), 1, 4);
        let mut r = s.reader();
        assert_eq!(r.page_at(0, PAGE_SIZE).unwrap()[0], 7);
        assert_eq!(r.bytes(PAGE_SIZE).len(), PAGE_SIZE as usize);
        assert_eq!(r.bytes(16), &[8u8; 16][..]);
        assert!(r.page_at(0, 16).is_none(), "mid-piece, other offset");
        assert_eq!(r.page_at(16, PAGE_SIZE - 16).unwrap()[0], 8);
        assert!(
            r.page_at(16, PAGE_SIZE - 15).is_none(),
            "runs past the piece"
        );
        assert_eq!(r.bytes(u64::MAX).len(), PAGE_SIZE as usize - 16);
        assert!(r.page_at(0, 4).is_none(), "piece starts at byte 1");
        assert_eq!(r.page_at(1, 4).unwrap()[0], 9);
        assert_eq!(r.bytes(u64::MAX), &[9u8; 4][..]);
        assert!(r.bytes(1).is_empty());
        assert!(r.page_at(0, 0).is_none(), "exhausted");
    }

    /// Three pieces: 10 bytes of page 1, a whole page 2, 6 bytes of page 3.
    fn three_pieces() -> PageSnapshot {
        let mut s = PageSnapshot::default();
        s.push(page(1), PAGE_SIZE - 10, 10);
        s.push(page(2), 0, PAGE_SIZE);
        s.push(page(3), 0, 6);
        s
    }

    #[test]
    fn slices_cross_piece_boundaries() {
        let s = three_pieces();
        let all = s.to_vec();
        let total = s.len();
        for (start, len) in [
            (0, total),
            (4, 8),
            (10, PAGE_SIZE),
            (9, PAGE_SIZE + 2),
            (total - 6, 6),
            (total - 1, 1),
        ] {
            let sub = s.slice(start, len);
            assert_eq!(sub.len(), len, "slice {start}+{len}");
            assert_eq!(
                sub.to_vec(),
                &all[start as usize..(start + len) as usize],
                "slice {start}+{len}"
            );
        }
        // The whole middle page stays a whole page, so it can land by
        // reference.
        assert!(s
            .slice(10, PAGE_SIZE)
            .reader()
            .page_at(0, PAGE_SIZE)
            .is_some());
        assert_eq!(s.slice(4, 8).chunks().count(), 2);
    }

    #[test]
    fn zero_length_slices_are_empty() {
        let s = three_pieces();
        for start in [0, 10, s.len()] {
            let sub = s.slice(start, 0);
            assert!(sub.is_empty());
            assert_eq!(sub.chunks().count(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "past the end")]
    fn slice_past_the_end_is_rejected() {
        let s = three_pieces();
        s.slice(s.len() - 3, 4);
    }

    #[test]
    fn append_concatenates() {
        let mut s = PageSnapshot::default();
        s.append(PageSnapshot::default());
        assert!(s.is_empty());
        s.append(three_pieces().slice(0, 12));
        s.append(PageSnapshot::from_bytes(b"xyz"));
        s.append(PageSnapshot::default());
        assert_eq!(s.len(), 15);
        assert_eq!(
            s.to_vec(),
            [1u8, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, b'x', b'y', b'z']
        );
        assert_eq!(s.chunks().count(), 3);
    }

    #[test]
    #[should_panic(expected = "outside its page")]
    fn piece_past_the_page_is_rejected() {
        PageSnapshot::default().push(page(0), PAGE_SIZE - 1, 2);
    }
}
