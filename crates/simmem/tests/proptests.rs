//! Randomized property tests for the memory substrate.
//!
//! Strategy: drive [`simmem`] with random operation sequences and check it
//! against trivially-correct reference models (a `HashMap<u64, u8>` for
//! byte contents, and a twin [`Memory`] that copies bytes where the one
//! under test carries them by reference). The substrate must agree with
//! the references regardless of interleaving, and global invariants
//! (frame accounting, pin balance, the bytes of every held
//! [`PageSnapshot`]) must hold at every step.
//!
//! Sequences are generated from a fixed-seed [`simcore::SimRng`], so every
//! run explores the same inputs — failures reproduce by case index.

use std::collections::HashMap;
use std::fmt::Debug;
use std::rc::Rc;

use simcore::SimRng;
use simmem::{
    page_chunks, AsId, InvalidateCause, MemError, Memory, PageSnapshot, Prot, VirtAddr, Vpn,
    PAGE_SIZE,
};

#[derive(Clone, Debug)]
enum Op {
    Mmap {
        pages: u64,
        read_only: bool,
    },
    Munmap {
        alloc_idx: usize,
    },
    /// Unmap a sub-range of an allocation, splitting its VMA.
    MunmapPart {
        alloc_idx: usize,
        first: u64,
        pages: u64,
    },
    Write {
        alloc_idx: usize,
        offset: u64,
        len: u64,
        byte: u8,
    },
    Read {
        alloc_idx: usize,
        offset: u64,
        len: u64,
    },
    Pin {
        alloc_idx: usize,
    },
    UnpinOldest,
    SwapOut {
        alloc_idx: usize,
        page: u64,
    },
    Migrate {
        alloc_idx: usize,
        page: u64,
    },
    /// Capture bytes by reference, as a pull reply does.
    Snapshot {
        alloc_idx: usize,
        offset: u64,
        len: u64,
    },
    /// Capture one whole page and install it over another, as a pull
    /// reply landing does.
    Install {
        from_idx: usize,
        from_page: u64,
        to_idx: usize,
        to_page: u64,
    },
    /// Capture through the page tables, as an eager or shm send does. The
    /// range may run past its allocation into a hole.
    Capture {
        alloc_idx: usize,
        offset: u64,
        len: u64,
    },
    /// Land a held snapshot through the page tables, as an eager or shm
    /// delivery does. The range may run past its allocation into a hole
    /// or a read-only mapping.
    Land {
        snap_idx: usize,
        alloc_idx: usize,
        offset: u64,
    },
    /// Land a held snapshot in two parts split at `split`, at the page
    /// offset it was captured from, as two pull-reply frames land the two
    /// halves of a page.
    LandParts {
        snap_idx: usize,
        alloc_idx: usize,
        page: u64,
        split: u64,
    },
    /// Fork the space (dropping the previous child), so that later writes
    /// to its resident pages break COW.
    Fork,
}

/// An offset below 8 MiB, page-aligned half the time so that whole pages
/// get captured and landed.
fn random_offset(rng: &mut SimRng) -> u64 {
    if rng.chance(0.5) {
        rng.below(1 << 11) * PAGE_SIZE
    } else {
        rng.below(1 << 23)
    }
}

fn random_op(rng: &mut SimRng) -> Op {
    match rng.below(15) {
        // Now and then more than a page-table leaf (512 pages), so that
        // allocations straddle a leaf boundary.
        0 if rng.chance(0.125) => Op::Mmap {
            pages: rng.range_inclusive(513, 1100),
            read_only: false,
        },
        0 => Op::Mmap {
            pages: rng.range_inclusive(1, 15),
            read_only: rng.chance(0.25),
        },
        1 => Op::Munmap {
            alloc_idx: rng.next_u64() as usize,
        },
        10 => Op::MunmapPart {
            alloc_idx: rng.next_u64() as usize,
            first: rng.below(1 << 11),
            pages: rng.range_inclusive(1, 600),
        },
        2 => Op::Write {
            alloc_idx: rng.next_u64() as usize,
            offset: rng.below(1 << 23),
            len: rng.range_inclusive(1, 4095),
            byte: rng.next_u64() as u8,
        },
        3 => Op::Read {
            alloc_idx: rng.next_u64() as usize,
            offset: rng.below(1 << 23),
            len: rng.range_inclusive(1, 4095),
        },
        4 => Op::Pin {
            alloc_idx: rng.next_u64() as usize,
        },
        5 => Op::UnpinOldest,
        6 => Op::SwapOut {
            alloc_idx: rng.next_u64() as usize,
            page: rng.below(1 << 11),
        },
        7 => Op::Migrate {
            alloc_idx: rng.next_u64() as usize,
            page: rng.below(1 << 11),
        },
        8 => Op::Snapshot {
            alloc_idx: rng.next_u64() as usize,
            offset: rng.below(1 << 23),
            len: rng.range_inclusive(1, 3 * PAGE_SIZE),
        },
        9 => Op::Install {
            from_idx: rng.next_u64() as usize,
            from_page: rng.below(1 << 11),
            to_idx: rng.next_u64() as usize,
            to_page: rng.below(1 << 11),
        },
        11 => Op::Capture {
            alloc_idx: rng.next_u64() as usize,
            offset: random_offset(rng),
            len: if rng.chance(0.5) {
                rng.range_inclusive(1, 3) * PAGE_SIZE
            } else {
                rng.range_inclusive(1, 3 * PAGE_SIZE)
            },
        },
        12 => Op::Land {
            snap_idx: rng.next_u64() as usize,
            alloc_idx: rng.next_u64() as usize,
            offset: random_offset(rng),
        },
        13 => Op::LandParts {
            snap_idx: rng.next_u64() as usize,
            alloc_idx: rng.next_u64() as usize,
            page: rng.below(1 << 11),
            split: rng.next_u64(),
        },
        _ => Op::Fork,
    }
}

/// The resident frame behind `vpn`, faulting it in (a read fault, which
/// changes no bytes) if it is absent or swapped out.
fn resident(mem: &mut Memory, space: AsId, vpn: Vpn) -> simmem::Pfn {
    mem.read(space, vpn.base(), &mut [0u8; 1]).unwrap();
    mem.resident_pfn(space, vpn).unwrap()
}

/// The reference model's bytes at `[addr, addr+len)`.
fn model_bytes(reference: &HashMap<u64, u8>, addr: u64, len: u64) -> Vec<u8> {
    (addr..addr + len)
        .map(|b| reference.get(&b).copied().unwrap_or(0))
        .collect()
}

struct Alloc {
    addr: VirtAddr,
    pages: u64,
    writable: bool,
}

/// A memory and its twin, driven in lockstep: every operation runs on
/// both and must return the same thing, frame numbers and notifier events
/// included. Only `Capture` and `Land` differ: `mem` runs
/// [`Memory::capture`] and [`Memory::land`], the twin a `read` and a
/// `write` of the same bytes.
struct Twins {
    mem: Memory,
    twin: Memory,
}

impl Twins {
    fn both<R: PartialEq + Debug>(&mut self, case: u32, f: impl Fn(&mut Memory) -> R) -> R {
        let a = f(&mut self.mem);
        let b = f(&mut self.twin);
        assert_eq!(a, b, "case {case}: the twin diverged");
        a
    }
}

/// How often the paths that `Capture` and `Land` must match were taken.
#[derive(Default, Debug)]
struct Coverage {
    /// Destination pages that took a captured page by reference.
    installed: u64,
    /// Destination pages landed in two pieces that took the captured page
    /// by reference.
    assembled: u64,
    cow_breaks: u64,
    protection_faults: u64,
    holes: u64,
}

/// Reads agree with a reference byte map under arbitrary interleavings of
/// mmap/munmap (whole and partial)/write/swap/migrate/pin/fork, and frame/pin
/// accounting balances at the end. Capture and land agree with a read and
/// a write of the same bytes: same bytes, frames, notifier events
/// (including COW breaks), and errors, after the same leading pages.
#[test]
fn memory_agrees_with_reference_model() {
    let mut rng = SimRng::new(0x5133_0001);
    let mut coverage = Coverage::default();
    for case in 0..64 {
        let nops = rng.range_inclusive(1, 119);
        let ops: Vec<Op> = (0..nops).map(|_| random_op(&mut rng)).collect();
        run_reference_case(case, ops, &mut coverage);
    }
    assert!(coverage.installed > 0, "{coverage:?}");
    assert!(coverage.assembled > 0, "{coverage:?}");
    assert!(coverage.cow_breaks > 0, "{coverage:?}");
    assert!(coverage.protection_faults > 0, "{coverage:?}");
    assert!(coverage.holes > 0, "{coverage:?}");
}

fn run_reference_case(case: u32, ops: Vec<Op>, coverage: &mut Coverage) {
    let build = || {
        let mut mem = Memory::new(16384, 1024);
        let space = mem.create_space();
        mem.register_notifier(space).unwrap();
        (mem, space)
    };
    let ((mem, space), (twin, _)) = (build(), build());
    let mut m = Twins { mem, twin };
    let mut child: Option<AsId> = None;

    let mut allocs: Vec<Alloc> = Vec::new();
    // Reference: absolute byte address -> value (unwritten bytes are 0).
    let mut reference: HashMap<u64, u8> = HashMap::new();
    let mut pins: Vec<Vec<simmem::Pfn>> = Vec::new();
    // Snapshots taken so far, each with the model's bytes at capture time
    // and the page offset of its first byte.
    let mut snapshots: Vec<(PageSnapshot, Vec<u8>, u64)> = Vec::new();

    for op in ops {
        match op {
            Op::Mmap { pages, read_only } => {
                let prot = if read_only {
                    Prot::ReadOnly
                } else {
                    Prot::ReadWrite
                };
                let addr = m
                    .both(case, |mem| mem.mmap(space, pages * PAGE_SIZE, prot))
                    .unwrap();
                allocs.push(Alloc {
                    addr,
                    pages,
                    writable: !read_only,
                });
            }
            Op::Munmap { alloc_idx } => {
                if allocs.is_empty() {
                    continue;
                }
                let a = allocs.remove(alloc_idx % allocs.len());
                // Pinned pages inside are allowed: frames survive pins.
                let evs = m
                    .both(case, |mem| mem.munmap(space, a.addr, a.pages * PAGE_SIZE))
                    .unwrap();
                for ev in &evs {
                    assert_eq!(ev.cause, InvalidateCause::Unmap, "case {case}");
                }
                let gone = a.addr.0..a.addr.0 + a.pages * PAGE_SIZE;
                reference.retain(|b, _| !gone.contains(b));
            }
            Op::MunmapPart {
                alloc_idx,
                first,
                pages,
            } => {
                if allocs.is_empty() {
                    continue;
                }
                let a = allocs.remove(alloc_idx % allocs.len());
                let first = first % a.pages;
                let n = pages.min(a.pages - first);
                let cut = a.addr.add(first * PAGE_SIZE);
                let evs = m
                    .both(case, |mem| mem.munmap(space, cut, n * PAGE_SIZE))
                    .unwrap();
                assert_eq!(evs.len(), 1, "case {case}");
                assert_eq!(evs[0].range.start, cut.vpn(), "case {case}");
                assert_eq!(evs[0].range.len(), n, "case {case}");
                let gone = cut.0..cut.0 + n * PAGE_SIZE;
                reference.retain(|b, _| !gone.contains(b));
                // What is left of the allocation: up to two pieces.
                if first > 0 {
                    allocs.push(Alloc {
                        addr: a.addr,
                        pages: first,
                        writable: a.writable,
                    });
                }
                if first + n < a.pages {
                    allocs.push(Alloc {
                        addr: cut.add(n * PAGE_SIZE),
                        pages: a.pages - first - n,
                        writable: a.writable,
                    });
                }
            }
            Op::Write {
                alloc_idx,
                offset,
                len,
                byte,
            } => {
                if allocs.is_empty() {
                    continue;
                }
                let a = &allocs[alloc_idx % allocs.len()];
                if !a.writable {
                    continue;
                }
                let size = a.pages * PAGE_SIZE;
                let offset = offset % size;
                let len = len.min(size - offset);
                let data = vec![byte; len as usize];
                m.both(case, |mem| mem.write(space, a.addr.add(offset), &data))
                    .unwrap();
                for i in 0..len {
                    reference.insert(a.addr.0 + offset + i, byte);
                }
            }
            Op::Read {
                alloc_idx,
                offset,
                len,
            } => {
                if allocs.is_empty() {
                    continue;
                }
                let a = &allocs[alloc_idx % allocs.len()];
                let size = a.pages * PAGE_SIZE;
                let offset = offset % size;
                let len = len.min(size - offset);
                let buf = m.both(case, |mem| {
                    let mut buf = vec![0u8; len as usize];
                    mem.read(space, a.addr.add(offset), &mut buf).map(|()| buf)
                });
                for (i, &b) in buf.unwrap().iter().enumerate() {
                    let expect = reference
                        .get(&(a.addr.0 + offset + i as u64))
                        .copied()
                        .unwrap_or(0);
                    assert_eq!(
                        b,
                        expect,
                        "case {case}: mismatch at offset {}",
                        offset + i as u64
                    );
                }
            }
            Op::Pin { alloc_idx } => {
                if allocs.is_empty() {
                    continue;
                }
                let a = &allocs[alloc_idx % allocs.len()];
                if !a.writable {
                    continue;
                }
                let (pfns, _ev) = m
                    .both(case, |mem| {
                        mem.pin_user_pages(space, a.addr, a.pages * PAGE_SIZE)
                    })
                    .unwrap();
                assert_eq!(pfns.len() as u64, a.pages, "case {case}");
                pins.push(pfns);
            }
            Op::UnpinOldest => {
                if let Some(pfns) = pins.pop() {
                    m.both(case, |mem| mem.unpin_pages(&pfns));
                }
            }
            Op::SwapOut { alloc_idx, page } => {
                if allocs.is_empty() {
                    continue;
                }
                let a = &allocs[alloc_idx % allocs.len()];
                let page = page % a.pages;
                let vaddr = a.addr.add(page * PAGE_SIZE);
                match m.both(case, |mem| mem.swap_out(space, vaddr.vpn())) {
                    Ok(_) | Err(MemError::NotResident(_)) | Err(MemError::PagePinned(_)) => {}
                    Err(e) => panic!("case {case}: unexpected swap_out error {e}"),
                }
            }
            Op::Migrate { alloc_idx, page } => {
                if allocs.is_empty() {
                    continue;
                }
                let a = &allocs[alloc_idx % allocs.len()];
                let page = page % a.pages;
                let vaddr = a.addr.add(page * PAGE_SIZE);
                match m.both(case, |mem| mem.migrate(space, vaddr.vpn())) {
                    Ok(_) | Err(MemError::NotResident(_)) | Err(MemError::PagePinned(_)) => {}
                    Err(e) => panic!("case {case}: unexpected migrate error {e}"),
                }
            }
            Op::Snapshot {
                alloc_idx,
                offset,
                len,
            } => {
                if allocs.is_empty() {
                    continue;
                }
                let a = &allocs[alloc_idx % allocs.len()];
                let size = a.pages * PAGE_SIZE;
                let offset = offset % size;
                let len = len.min(size - offset);
                let start = a.addr.add(offset);
                let mut snap = PageSnapshot::default();
                for (vpn, off, n) in page_chunks(start, len) {
                    let pfn = m.both(case, |mem| resident(mem, space, vpn));
                    m.mem.frames().capture(pfn, off, n, &mut snap);
                }
                snapshots.push((
                    snap,
                    model_bytes(&reference, start.0, len),
                    start.page_offset(),
                ));
            }
            Op::Install {
                from_idx,
                from_page,
                to_idx,
                to_page,
            } => {
                if allocs.is_empty() {
                    continue;
                }
                let from = &allocs[from_idx % allocs.len()];
                let from = from.addr.add(from_page % from.pages * PAGE_SIZE);
                let to = &allocs[to_idx % allocs.len()];
                if !to.writable {
                    continue;
                }
                let to = to.addr.add(to_page % to.pages * PAGE_SIZE);
                let pfn = m.both(case, |mem| resident(mem, space, from.vpn()));
                let mut snap = PageSnapshot::default();
                m.mem.frames().capture(pfn, 0, PAGE_SIZE, &mut snap);
                let bytes = model_bytes(&reference, from.0, PAGE_SIZE);
                // Land it where the engine does: in a pinned frame.
                let (pfns, _) = m
                    .both(case, |mem| mem.pin_user_pages(space, to, PAGE_SIZE))
                    .unwrap();
                m.mem.land_phys(pfns[0], 0, PAGE_SIZE, &mut snap.reader());
                m.twin.write_phys(pfns[0], 0, &bytes);
                m.both(case, |mem| mem.unpin_pages(&pfns));
                snapshots.push((snap, bytes.clone(), 0));
                for (i, &b) in bytes.iter().enumerate() {
                    reference.insert(to.0 + i as u64, b);
                }
                let mut back = vec![0u8; PAGE_SIZE as usize];
                m.mem.read(space, to, &mut back).unwrap();
                assert_eq!(back, bytes, "case {case}: installed page differs");
            }
            Op::Capture {
                alloc_idx,
                offset,
                len,
            } => {
                if allocs.is_empty() {
                    continue;
                }
                let a = &allocs[alloc_idx % allocs.len()];
                let start = a.addr.add(offset % (a.pages * PAGE_SIZE));
                let got = m.mem.capture(space, start, len);
                let mut buf = vec![0u8; len as usize];
                let want = m.twin.read(space, start, &mut buf).map(|()| buf);
                match (got, want) {
                    (Ok(snap), Ok(buf)) => {
                        assert!(snap.to_vec() == buf, "case {case}: capture differs");
                        let model = model_bytes(&reference, start.0, len);
                        assert!(buf == model, "case {case}: capture differs from the model");
                        snapshots.push((snap, model, start.page_offset()));
                    }
                    (Err(got), Err(want)) => {
                        assert_eq!(got, want, "case {case}: capture error");
                        coverage.holes += u64::from(matches!(got, MemError::BadAddress(_)));
                    }
                    (got, want) => panic!("case {case}: capture {got:?}, read {want:?}"),
                }
            }
            Op::Land {
                snap_idx,
                alloc_idx,
                offset,
            } => {
                if allocs.is_empty() || snapshots.is_empty() {
                    continue;
                }
                let (snap, bytes, _) = &snapshots[snap_idx % snapshots.len()];
                let a = &allocs[alloc_idx % allocs.len()];
                let start = a.addr.add(offset % (a.pages * PAGE_SIZE));
                let landed = land(
                    &mut m,
                    case,
                    space,
                    start,
                    snap,
                    bytes,
                    &mut reference,
                    coverage,
                );
                // A whole captured page lands by reference on a whole
                // destination page.
                if start.is_page_aligned() && landed >= PAGE_SIZE {
                    if let Some(page) = snap.reader().page_at(0, PAGE_SIZE) {
                        let pfn = m.mem.resident_pfn(space, start.vpn()).unwrap();
                        assert!(Rc::ptr_eq(page, &m.mem.share_phys(pfn)), "case {case}");
                        coverage.installed += 1;
                    }
                }
            }
            Op::LandParts {
                snap_idx,
                alloc_idx,
                page,
                split,
            } => {
                if allocs.is_empty() || snapshots.is_empty() {
                    continue;
                }
                let (snap, bytes, page_off) = &snapshots[snap_idx % snapshots.len()];
                let a = &allocs[alloc_idx % allocs.len()];
                let start = a.addr.add(page % a.pages * PAGE_SIZE + page_off);
                let split = split % (snap.len() + 1);
                let (first, second) = bytes.split_at(split as usize);
                let landed = land(
                    &mut m,
                    case,
                    space,
                    start,
                    &snap.slice(0, split),
                    first,
                    &mut reference,
                    coverage,
                );
                if landed < split {
                    continue;
                }
                let at = start.add(split);
                let rest = snap.slice(split, snap.len() - split);
                let landed = land(
                    &mut m,
                    case,
                    space,
                    at,
                    &rest,
                    second,
                    &mut reference,
                    coverage,
                );
                // The page the split falls in lands in two pieces. When the
                // snapshot covers all of it, it ends up equal to the
                // captured page and takes it by reference.
                let page_start = at.page_floor().0;
                let covered = page_start >= start.0 && page_start + PAGE_SIZE <= at.0 + landed;
                if !at.is_page_aligned() && split > 0 && covered {
                    let page = rest.reader().page_at(at.page_offset(), 1).cloned();
                    let page = page.expect("the parts land at their captured offsets");
                    let pfn = m.mem.resident_pfn(space, at.vpn()).unwrap();
                    assert!(Rc::ptr_eq(&page, &m.mem.share_phys(pfn)), "case {case}");
                    coverage.assembled += 1;
                }
            }
            Op::Fork => {
                if let Some(old) = child.take() {
                    m.both(case, |mem| mem.destroy_space(old)).unwrap();
                }
                match m.both(case, |mem| mem.fork_space(space)) {
                    Ok(c) => child = Some(c),
                    Err(MemError::OutOfSwap) => {}
                    Err(e) => panic!("case {case}: unexpected fork error {e}"),
                }
            }
        }
        // Invariant: pinned page count equals the pins we hold.
        let held: usize = pins.iter().map(Vec::len).sum();
        assert_eq!(m.mem.frames().pinned_pages(), held, "case {case}");
        // Invariant: the twins hold the same frames.
        assert_eq!(
            m.mem.frames().allocated(),
            m.twin.frames().allocated(),
            "case {case}"
        );
        // Invariant: no later operation changes a snapshot's bytes.
        for (i, (snap, want, _)) in snapshots.iter().enumerate() {
            assert!(snap.to_vec() == *want, "case {case}: snapshot {i} changed");
        }
    }

    // Every mapped byte agrees across the twins and with the model.
    for a in &allocs {
        let len = a.pages * PAGE_SIZE;
        let got = m
            .both(case, |mem| {
                let mut buf = vec![0u8; len as usize];
                mem.read(space, a.addr, &mut buf).map(|()| buf)
            })
            .unwrap();
        assert!(got == model_bytes(&reference, a.addr.0, len), "case {case}");
    }

    // Teardown: release pins, drop the child, unmap everything; all frames
    // return.
    for pfns in pins.drain(..) {
        m.both(case, |mem| mem.unpin_pages(&pfns));
    }
    if let Some(c) = child {
        m.both(case, |mem| mem.destroy_space(c)).unwrap();
    }
    for a in allocs.drain(..) {
        m.both(case, |mem| mem.munmap(space, a.addr, a.pages * PAGE_SIZE))
            .unwrap();
    }
    for mem in [&m.mem, &m.twin] {
        assert_eq!(mem.frames().allocated(), 0, "case {case}");
        assert_eq!(mem.frames().pinned_pages(), 0, "case {case}");
    }
}

/// Land `snap` at `start` in `m.mem` and write `bytes` there in the twin;
/// both must agree. Records the landed bytes in `reference` and returns
/// how many landed before the first failing page.
#[allow(clippy::too_many_arguments)]
fn land(
    m: &mut Twins,
    case: u32,
    space: AsId,
    start: VirtAddr,
    snap: &PageSnapshot,
    bytes: &[u8],
    reference: &mut HashMap<u64, u8>,
    coverage: &mut Coverage,
) -> u64 {
    let got = m.mem.land(space, start, snap);
    let want = m.twin.write(space, start, bytes);
    assert_eq!(got, want, "case {case}: land and write differ");
    // The bytes before the failing page were landed.
    let landed = match got {
        Ok(events) => {
            coverage.cow_breaks += events
                .iter()
                .filter(|e| e.cause == InvalidateCause::CowBreak)
                .count() as u64;
            snap.len()
        }
        Err(MemError::ProtectionFault(page)) => {
            coverage.protection_faults += 1;
            page.0.saturating_sub(start.0)
        }
        Err(MemError::BadAddress(page)) => {
            coverage.holes += 1;
            page.0.saturating_sub(start.0)
        }
        Err(e) => panic!("case {case}: unexpected land error {e}"),
    };
    for (i, &b) in bytes[..landed as usize].iter().enumerate() {
        reference.insert(start.0 + i as u64, b);
    }
    landed
}

/// Data written before a fork is visible in both spaces; writes after the
/// fork are private to the writer, under random offsets/sizes.
#[test]
fn fork_cow_isolation() {
    let mut rng = SimRng::new(0x5133_0002);
    for case in 0..32 {
        let pages = rng.range_inclusive(1, 7);
        let pre = rng.next_u64() as u8;
        let post_parent = rng.next_u64() as u8;
        let post_child = rng.next_u64() as u8;
        let offset = rng.below(4096);

        let mut mem = Memory::new(256, 64);
        let parent = mem.create_space();
        let addr = mem
            .mmap(parent, pages * PAGE_SIZE, Prot::ReadWrite)
            .unwrap();
        let size = pages * PAGE_SIZE;
        let offset = offset % size;
        let len = (size - offset).min(2 * PAGE_SIZE);
        mem.write(parent, addr.add(offset), &vec![pre; len as usize])
            .unwrap();

        let child = mem.fork_space(parent).unwrap();

        // Both see the pre-fork data.
        for space in [parent, child] {
            let mut buf = vec![0u8; len as usize];
            mem.read(space, addr.add(offset), &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == pre), "case {case}");
        }

        // Post-fork writes are isolated.
        mem.write(parent, addr.add(offset), &vec![post_parent; len as usize])
            .unwrap();
        mem.write(child, addr.add(offset), &vec![post_child; len as usize])
            .unwrap();
        let mut buf = vec![0u8; len as usize];
        mem.read(parent, addr.add(offset), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == post_parent), "case {case}");
        mem.read(child, addr.add(offset), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == post_child), "case {case}");
    }
}

/// A pinned frame's bytes are stable across any sequence of swap-out
/// attempts, migrations and the final munmap; the driver's phys reads see
/// exactly what the app wrote at pin time.
#[test]
fn pinned_frames_are_immovable() {
    let mut rng = SimRng::new(0x5133_0003);
    for case in 0..32 {
        let pages = rng.range_inclusive(1, 7);
        let fill = rng.next_u64() as u8;

        let mut mem = Memory::new(256, 64);
        let space = mem.create_space();
        mem.register_notifier(space).unwrap();
        let addr = mem.mmap(space, pages * PAGE_SIZE, Prot::ReadWrite).unwrap();
        mem.write(space, addr, &vec![fill; (pages * PAGE_SIZE) as usize])
            .unwrap();
        let (pfns, _) = mem.pin_user_pages(space, addr, pages * PAGE_SIZE).unwrap();

        for p in 0..pages {
            let vpn = addr.add(p * PAGE_SIZE).vpn();
            assert!(
                matches!(mem.swap_out(space, vpn), Err(MemError::PagePinned(_))),
                "case {case}"
            );
            assert!(
                matches!(mem.migrate(space, vpn), Err(MemError::PagePinned(_))),
                "case {case}"
            );
        }
        mem.munmap(space, addr, pages * PAGE_SIZE).unwrap();
        for &pfn in &pfns {
            let mut buf = [0u8; 64];
            mem.read_phys(pfn, 512, &mut buf);
            assert!(buf.iter().all(|&b| b == fill), "case {case}");
        }
        mem.unpin_pages(&pfns);
        assert_eq!(mem.frames().allocated(), 0, "case {case}");
    }
}

/// A pin, write or land that runs from a writable mapping into a
/// read-only one (`ProtectionFault`) or into an unmapped hole
/// (`BadAddress`) stops at the failing page: exactly the pages before it
/// are pinned or written, and the failing page is not faulted in.
#[test]
fn range_walks_stop_at_the_first_bad_page() {
    const BASE: u64 = 0x1000_0000;
    // Pages [0, 3) read-write, [3, 5) read-only; then [8, 12) read-write
    // and an unmapped hole from page 12.
    let page = |i: u64| VirtAddr(BASE + i * PAGE_SIZE);
    let layout = || {
        let mut mem = Memory::new(64, 0);
        let space = mem.create_space();
        mem.mmap_at(space, page(0), 3 * PAGE_SIZE, Prot::ReadWrite)
            .unwrap();
        mem.mmap_at(space, page(3), 2 * PAGE_SIZE, Prot::ReadOnly)
            .unwrap();
        mem.mmap_at(space, page(8), 4 * PAGE_SIZE, Prot::ReadWrite)
            .unwrap();
        (mem, space)
    };
    // (start page, pages, leading pages that succeed, the error).
    let cases = [
        (0, 5, 3, MemError::ProtectionFault(page(3))),
        (1, 3, 2, MemError::ProtectionFault(page(3))),
        (9, 5, 3, MemError::BadAddress(page(12))),
        (12, 2, 0, MemError::BadAddress(page(12))),
    ];
    for (start, pages, ok, err) in cases {
        let what = format!("pages {start}..{}", start + pages);
        let (mut mem, space) = layout();
        let partial = mem.pin_user_pages_partial(space, page(start), pages * PAGE_SIZE);
        assert_eq!(partial.pfns.len() as u64, ok, "pin {what}");
        assert_eq!(partial.error, Some(err), "pin {what}");
        for (i, &pfn) in partial.pfns.iter().enumerate() {
            let vpn = page(start + i as u64).vpn();
            assert_eq!(mem.resident_pfn(space, vpn), Some(pfn), "pin {what}");
        }
        assert_eq!(mem.frames().pinned_pages() as u64, ok, "pin {what}");
        assert_eq!(mem.frames().allocated() as u64, ok, "pin {what}");

        // The write starts mid-page so its first and last chunks are
        // partial.
        let (mut mem, space) = layout();
        let data: Vec<u8> = (0..pages * PAGE_SIZE)
            .map(|i| (i % 253) as u8 + 1)
            .collect();
        let at = page(start).add(100);
        assert_eq!(mem.write(space, at, &data[100..]), Err(err), "write {what}");
        assert_eq!(mem.frames().allocated() as u64, ok, "write {what}");
        let written = (ok * PAGE_SIZE).saturating_sub(100) as usize;
        let mut back = vec![0u8; written];
        mem.read(space, at, &mut back).unwrap();
        assert!(back == data[100..100 + written], "write {what}");

        // Landing the same bytes by reference stops at the same page.
        let (mut mem, space) = layout();
        let snap = PageSnapshot::from_bytes(&data[100..]);
        assert_eq!(mem.land(space, at, &snap), Err(err), "land {what}");
        assert_eq!(mem.frames().allocated() as u64, ok, "land {what}");
        let mut back = vec![0u8; written];
        mem.read(space, at, &mut back).unwrap();
        assert!(back == data[100..100 + written], "land {what}");

        // A capture faults exactly the pages a read of the range does, and
        // fails the same way (only at the hole: read-only pages are
        // readable).
        let len = snap.len();
        let (mut mem, space) = layout();
        let captured = mem.capture(space, at, len).map(|s| s.to_vec());
        let (mut twin, space) = layout();
        let mut buf = vec![0u8; len as usize];
        let read = twin.read(space, at, &mut buf).map(|()| buf);
        assert_eq!(captured, read, "capture {what}");
        assert_eq!(
            mem.frames().allocated(),
            twin.frames().allocated(),
            "capture {what}"
        );
    }
}

/// A read may cross from a read-write VMA into an adjacent read-only one;
/// it faults the pages of both in order.
#[test]
fn read_walks_across_adjacent_vmas() {
    let mut mem = Memory::new(16, 0);
    let space = mem.create_space();
    let rw = mem
        .mmap_at(space, VirtAddr(0x40_0000), 2 * PAGE_SIZE, Prot::ReadWrite)
        .unwrap();
    mem.mmap_at(space, rw.add(2 * PAGE_SIZE), PAGE_SIZE, Prot::ReadOnly)
        .unwrap();
    mem.write(space, rw.add(PAGE_SIZE), &[7; PAGE_SIZE as usize])
        .unwrap();
    let mut buf = vec![1u8; 2 * PAGE_SIZE as usize];
    mem.read(space, rw.add(PAGE_SIZE), &mut buf).unwrap();
    assert!(buf[..PAGE_SIZE as usize].iter().all(|&b| b == 7));
    assert!(buf[PAGE_SIZE as usize..].iter().all(|&b| b == 0));
    assert_eq!(mem.frames().allocated(), 2);
}
