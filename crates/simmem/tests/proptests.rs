//! Randomized property tests for the memory substrate.
//!
//! Strategy: drive [`simmem`] with random operation sequences and check it
//! against trivially-correct reference models (a `HashMap<u64, u8>` for
//! byte contents). The substrate must agree with the reference regardless
//! of interleaving, and global invariants (frame accounting, pin balance,
//! the bytes of every held [`PageSnapshot`]) must hold at every step.
//!
//! Sequences are generated from a fixed-seed [`simcore::SimRng`], so every
//! run explores the same inputs — failures reproduce by case index.

use std::collections::HashMap;

use simcore::SimRng;
use simmem::{
    page_chunks, AsId, InvalidateCause, MemError, Memory, PageSnapshot, Prot, VirtAddr, Vpn,
    PAGE_SIZE,
};

#[derive(Clone, Debug)]
enum Op {
    Mmap {
        pages: u64,
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
}

fn random_op(rng: &mut SimRng) -> Op {
    match rng.below(11) {
        // Now and then more than a page-table leaf (512 pages), so that
        // allocations straddle a leaf boundary.
        0 if rng.chance(0.125) => Op::Mmap {
            pages: rng.range_inclusive(513, 1100),
        },
        0 => Op::Mmap {
            pages: rng.range_inclusive(1, 15),
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
        _ => Op::Install {
            from_idx: rng.next_u64() as usize,
            from_page: rng.below(1 << 11),
            to_idx: rng.next_u64() as usize,
            to_page: rng.below(1 << 11),
        },
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
}

/// Reads agree with a reference byte map under arbitrary interleavings of
/// mmap/munmap (whole and partial)/write/swap/migrate/pin, and frame/pin
/// accounting balances at the end.
#[test]
fn memory_agrees_with_reference_model() {
    let mut rng = SimRng::new(0x5133_0001);
    for case in 0..64 {
        let nops = rng.range_inclusive(1, 119);
        let ops: Vec<Op> = (0..nops).map(|_| random_op(&mut rng)).collect();
        run_reference_case(case, ops);
    }
}

fn run_reference_case(case: u32, ops: Vec<Op>) {
    let mut mem = Memory::new(16384, 1024);
    let space = mem.create_space();
    mem.register_notifier(space).unwrap();

    let mut allocs: Vec<Alloc> = Vec::new();
    // Reference: absolute byte address -> value (unwritten bytes are 0).
    let mut reference: HashMap<u64, u8> = HashMap::new();
    let mut pins: Vec<Vec<simmem::Pfn>> = Vec::new();
    // Snapshots taken so far, each with the model's bytes at capture time.
    let mut snapshots: Vec<(PageSnapshot, Vec<u8>)> = Vec::new();

    for op in ops {
        match op {
            Op::Mmap { pages } => {
                let addr = mem.mmap(space, pages * PAGE_SIZE, Prot::ReadWrite).unwrap();
                allocs.push(Alloc { addr, pages });
            }
            Op::Munmap { alloc_idx } => {
                if allocs.is_empty() {
                    continue;
                }
                let a = allocs.remove(alloc_idx % allocs.len());
                // Pinned pages inside are allowed: frames survive pins.
                let evs = mem.munmap(space, a.addr, a.pages * PAGE_SIZE).unwrap();
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
                let evs = mem.munmap(space, cut, n * PAGE_SIZE).unwrap();
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
                    });
                }
                if first + n < a.pages {
                    allocs.push(Alloc {
                        addr: cut.add(n * PAGE_SIZE),
                        pages: a.pages - first - n,
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
                let size = a.pages * PAGE_SIZE;
                let offset = offset % size;
                let len = len.min(size - offset);
                let data = vec![byte; len as usize];
                mem.write(space, a.addr.add(offset), &data).unwrap();
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
                let mut buf = vec![0u8; len as usize];
                mem.read(space, a.addr.add(offset), &mut buf).unwrap();
                for (i, &b) in buf.iter().enumerate() {
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
                let (pfns, _ev) = mem
                    .pin_user_pages(space, a.addr, a.pages * PAGE_SIZE)
                    .unwrap();
                assert_eq!(pfns.len() as u64, a.pages, "case {case}");
                pins.push(pfns);
            }
            Op::UnpinOldest => {
                if let Some(pfns) = pins.pop() {
                    mem.unpin_pages(&pfns);
                }
            }
            Op::SwapOut { alloc_idx, page } => {
                if allocs.is_empty() {
                    continue;
                }
                let a = &allocs[alloc_idx % allocs.len()];
                let page = page % a.pages;
                let vaddr = a.addr.add(page * PAGE_SIZE);
                match mem.swap_out(space, vaddr.vpn()) {
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
                match mem.migrate(space, vaddr.vpn()) {
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
                    let pfn = resident(&mut mem, space, vpn);
                    snap.push(mem.share_phys(pfn), off, n);
                }
                snapshots.push((snap, model_bytes(&reference, start.0, len)));
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
                let to = to.addr.add(to_page % to.pages * PAGE_SIZE);
                let pfn = resident(&mut mem, space, from.vpn());
                let page = mem.share_phys(pfn);
                let bytes = model_bytes(&reference, from.0, PAGE_SIZE);
                let mut snap = PageSnapshot::default();
                snap.push(page.clone(), 0, PAGE_SIZE);
                snapshots.push((snap, bytes.clone()));
                // Land it where the engine does: in a pinned frame.
                let (pfns, _) = mem.pin_user_pages(space, to, PAGE_SIZE).unwrap();
                mem.install_phys(pfns[0], page);
                mem.unpin_pages(&pfns);
                for (i, &b) in bytes.iter().enumerate() {
                    reference.insert(to.0 + i as u64, b);
                }
                let mut back = vec![0u8; PAGE_SIZE as usize];
                mem.read(space, to, &mut back).unwrap();
                assert_eq!(back, bytes, "case {case}: installed page differs");
            }
        }
        // Invariant: pinned page count equals the pins we hold.
        let held: usize = pins.iter().map(Vec::len).sum();
        assert_eq!(mem.frames().pinned_pages(), held, "case {case}");
        // Invariant: no later operation changes a snapshot's bytes.
        for (i, (snap, want)) in snapshots.iter().enumerate() {
            assert!(snap.to_vec() == *want, "case {case}: snapshot {i} changed");
        }
    }

    // Teardown: release pins, unmap everything; all frames return.
    for pfns in pins.drain(..) {
        mem.unpin_pages(&pfns);
    }
    for a in allocs.drain(..) {
        mem.munmap(space, a.addr, a.pages * PAGE_SIZE).unwrap();
    }
    assert_eq!(mem.frames().allocated(), 0, "case {case}");
    assert_eq!(mem.frames().pinned_pages(), 0, "case {case}");
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

/// A pin or write that runs from a writable mapping into a read-only one
/// (`ProtectionFault`) or into an unmapped hole (`BadAddress`) stops at
/// the failing page: exactly the pages before it are pinned or written,
/// and the failing page is not faulted in.
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
