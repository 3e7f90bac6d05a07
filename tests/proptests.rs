//! Workspace-level randomized property tests: the full stack delivers
//! arbitrary payload sizes intact under every pinning strategy, and the
//! region layer's vectorial geometry is internally consistent.
//!
//! Cases are generated from a fixed-seed [`simcore::SimRng`], so every run
//! explores the same inputs — failures reproduce by case index.

mod common;

use common::cfg;
use openmx_core::region::{DriverRegion, RegionLayout, Segment};
use openmx_core::PinningMode;
use simcore::SimRng;
use simmem::{Memory, PageSnapshot, Prot, PAGE_SIZE};

/// Any message size in [1, 2 MiB], any mode, I/OAT on or off: the bytes
/// arrive intact and nothing fails or leaks pins.
#[test]
fn stream_integrity_any_size() {
    let mut rng = SimRng::new(0x51e4_0001);
    let modes = PinningMode::all();
    for case in 0..24 {
        let len = rng.range_inclusive(1, 2 * 1024 * 1024 - 1);
        let mode = modes[rng.below(modes.len() as u64) as usize];
        let ioat = rng.chance(0.5);
        let mut c = cfg(mode);
        c.use_ioat = ioat;
        let (cl, _) = common::verified_stream(&c, len, 1);
        assert_eq!(
            cl.counters().get("requests_failed"),
            0,
            "case {case}: len={len} mode={mode:?} ioat={ioat}"
        );
        if !mode.caches() {
            for node in 0..2 {
                let nc = cl.node_counters(node);
                assert_eq!(
                    nc.get("pin_pages"),
                    nc.get("unpin_pages"),
                    "case {case}: len={len} mode={mode:?} node={node}"
                );
            }
        }
    }
}

/// Vectorial regions: chunk iteration covers exactly the requested byte
/// range, in order, and region read/write round-trips match the
/// application's view through its page tables.
#[test]
fn region_geometry_and_roundtrip() {
    let mut rng = SimRng::new(0x51e4_0002);
    for case in 0..32 {
        let nsegs = rng.range_inclusive(1, 4) as usize;
        let seg_lens: Vec<u64> = (0..nsegs)
            .map(|_| rng.range_inclusive(1, 3 * PAGE_SIZE - 1))
            .collect();
        let gaps: Vec<u64> = (0..rng.range_inclusive(1, 4))
            .map(|_| rng.below(2 * PAGE_SIZE))
            .collect();
        let offset_frac = rng.unit_f64();
        let len_frac = rng.unit_f64().max(0.01);

        let mut mem = Memory::new(256, 0);
        let space = mem.create_space();
        // Build segments with gaps between them.
        let mut segments = Vec::new();
        for (i, &sl) in seg_lens.iter().enumerate() {
            let gap = gaps[i % gaps.len()];
            let span = sl + gap + 2 * PAGE_SIZE;
            let base = mem.mmap(space, span, Prot::ReadWrite).unwrap();
            segments.push(Segment {
                addr: base.add(gap % PAGE_SIZE),
                len: sl,
            });
        }
        let layout = RegionLayout::new(&segments);
        let total = layout.total_len();
        assert_eq!(total, seg_lens.iter().sum::<u64>(), "case {case}");

        // Chunks cover [offset, offset+len) exactly, in order.
        let offset = ((total - 1) as f64 * offset_frac) as u64;
        let len = (((total - offset) as f64 * len_frac) as u64).max(1);
        let mut covered = 0u64;
        let mut last_idx = None::<u64>;
        layout.for_each_chunk(offset, len, |idx, _vpn, page_off, n| {
            assert!(page_off + n <= PAGE_SIZE, "chunk crosses a page");
            if let Some(prev) = last_idx {
                assert!(idx >= prev, "chunks out of order");
            }
            last_idx = Some(idx);
            covered += n;
        });
        assert_eq!(covered, len, "case {case}");

        // Pin everything and round-trip bytes through the driver view.
        let mut region = DriverRegion::new(space, &segments);
        region.pin_next_chunk(&mut mem, 10_000).unwrap();
        let data: Vec<u8> = (0..len).map(|i| (i % 241) as u8).collect();
        region
            .land(&mut mem, offset, &PageSnapshot::from_bytes(&data))
            .unwrap();
        let back = region.capture(&mem, offset, len).unwrap().to_vec();
        assert_eq!(&back, &data, "case {case}");

        // The application sees the same bytes through its page tables.
        let mut cursor = offset;
        let mut checked = 0usize;
        for seg in &segments {
            if cursor >= seg.len {
                cursor -= seg.len;
                continue;
            }
            let in_seg = ((seg.len - cursor) as usize).min(data.len() - checked);
            let mut app = vec![0u8; in_seg];
            mem.read(space, seg.addr.add(cursor), &mut app).unwrap();
            assert_eq!(&app[..], &data[checked..checked + in_seg], "case {case}");
            checked += in_seg;
            cursor = 0;
            if checked == data.len() {
                break;
            }
        }
        assert_eq!(checked, data.len(), "case {case}");
        region.unpin_all(&mut mem);
        assert_eq!(mem.frames().pinned_pages(), 0, "case {case}");
    }
}
