//! Two-level radix page table: one address space's map from virtual page
//! to [`Pte`].
//!
//! A sparse directory keyed by `vpn >> 9` holds leaves of 512 consecutive
//! entries, the 2 MiB slice a last-level x86 table covers. A lookup is one
//! directory probe plus an array index, and a walk over a mapping touches
//! one directory entry per 512 pages. The directory is sparse rather than a
//! flat array because `mmap_at` may place a mapping anywhere below the
//! space's limit. A leaf whose last entry is removed is freed, so an
//! unmapped range costs nothing.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::addr::Pfn;

const LEAF_SHIFT: u32 = 9;
const LEAF_PAGES: usize = 1 << LEAF_SHIFT;
const LEAF_MASK: u64 = LEAF_PAGES as u64 - 1;

/// One page-table entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Pte {
    Resident { pfn: Pfn, cow: bool },
    Swapped { slot: u32 },
}

#[derive(Clone)]
struct Leaf {
    ptes: [Option<Pte>; LEAF_PAGES],
    /// Number of `Some` entries.
    used: u32,
}

/// The entries of `leaf` (directory key `key`) in ascending vpn order.
fn entries(key: u64, leaf: &Leaf) -> impl Iterator<Item = (u64, Pte)> + '_ {
    let base = key << LEAF_SHIFT;
    leaf.ptes
        .iter()
        .enumerate()
        .filter_map(move |(i, pte)| Some((base + i as u64, (*pte)?)))
}

#[derive(Clone, Default)]
pub(crate) struct PageTable {
    dir: BTreeMap<u64, Box<Leaf>>,
}

impl PageTable {
    pub(crate) fn get(&self, vpn: u64) -> Option<Pte> {
        self.dir.get(&(vpn >> LEAF_SHIFT))?.ptes[(vpn & LEAF_MASK) as usize]
    }

    /// Set the entry for `vpn`, replacing any previous one.
    pub(crate) fn insert(&mut self, vpn: u64, pte: Pte) {
        let leaf = self.dir.entry(vpn >> LEAF_SHIFT).or_insert_with(|| {
            Box::new(Leaf {
                ptes: [None; LEAF_PAGES],
                used: 0,
            })
        });
        if leaf.ptes[(vpn & LEAF_MASK) as usize].replace(pte).is_none() {
            leaf.used += 1;
        }
    }

    /// Remove every entry in `range`, handing each to `f` in ascending vpn
    /// order. Leaves left empty are freed.
    pub(crate) fn drain_range(&mut self, range: Range<u64>, mut f: impl FnMut(u64, Pte)) {
        if range.is_empty() {
            return;
        }
        let end_key = ((range.end - 1) >> LEAF_SHIFT) + 1;
        let mut key = range.start >> LEAF_SHIFT;
        while let Some((&k, leaf)) = self.dir.range_mut(key..end_key).next() {
            let base = k << LEAF_SHIFT;
            let lo = range.start.max(base) - base;
            let hi = (range.end - base).min(LEAF_PAGES as u64);
            for i in lo..hi {
                if let Some(pte) = leaf.ptes[i as usize].take() {
                    leaf.used -= 1;
                    f(base + i, pte);
                }
            }
            if leaf.used == 0 {
                self.dir.remove(&k);
            }
            key = k + 1;
        }
    }

    /// Every entry, in ascending vpn order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, Pte)> + '_ {
        self.dir.iter().flat_map(|(&k, leaf)| entries(k, leaf))
    }

    /// The entries in `range`, in ascending vpn order.
    pub(crate) fn range(&self, range: Range<u64>) -> impl Iterator<Item = (u64, Pte)> + '_ {
        let keys = range.start >> LEAF_SHIFT..(range.end.saturating_sub(1) >> LEAF_SHIFT) + 1;
        self.dir
            .range(keys)
            .flat_map(|(&k, leaf)| entries(k, leaf))
            .filter(move |(vpn, _)| range.contains(vpn))
    }

    /// Every entry, mutably, in ascending vpn order.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut Pte> {
        self.dir
            .values_mut()
            .flat_map(|leaf| leaf.ptes.iter_mut().flatten())
    }

    /// Panics unless every leaf's `used` counts its entries and no empty
    /// leaf stays in the directory.
    #[cfg(test)]
    fn check(&self) {
        for (k, leaf) in &self.dir {
            let n = leaf.ptes.iter().filter(|p| p.is_some()).count();
            assert_eq!(leaf.used as usize, n, "leaf {k}: used miscounted");
            assert!(n > 0, "empty leaf {k} kept");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimRng;
    use std::collections::BTreeMap;

    fn pte(rng: &mut SimRng) -> Pte {
        let v = rng.below(1 << 20) as u32;
        match rng.below(3) {
            0 => Pte::Swapped { slot: v },
            n => Pte::Resident {
                pfn: Pfn(v),
                cow: n == 2,
            },
        }
    }

    /// A vpn near one of the leaf boundaries the ranges must straddle.
    fn vpn(rng: &mut SimRng) -> u64 {
        const EDGES: [u64; 4] = [0, 512, 1024, 1 << 30];
        EDGES[rng.below(4) as usize].saturating_sub(12) + rng.below(24)
    }

    /// The invariants that must hold after every operation.
    fn assert_agrees(pt: &PageTable, want: Vec<(u64, Pte)>, step: usize) {
        pt.check();
        let got: Vec<_> = pt.iter().collect();
        assert!(
            got.windows(2).all(|w| w[0].0 < w[1].0),
            "step {step}: iteration not strictly ascending"
        );
        assert_eq!(got, want, "step {step}: contents differ");
    }

    #[test]
    fn agrees_with_an_ordered_map() {
        let mut rng = SimRng::new(0x5133_0100);
        let mut pt = PageTable::default();
        let mut model = BTreeMap::new();
        for step in 0..5_000 {
            match rng.below(5) {
                0 | 1 => {
                    let (v, p) = (vpn(&mut rng), pte(&mut rng));
                    pt.insert(v, p);
                    model.insert(v, p);
                }
                2 => {
                    let v = vpn(&mut rng);
                    assert_eq!(pt.get(v), model.get(&v).copied(), "step {step}: get {v}");
                }
                3 => {
                    let start = vpn(&mut rng);
                    let end = start + rng.below(1100);
                    let mut got = Vec::new();
                    pt.drain_range(start..end, |v, p| got.push((v, p)));
                    let want: Vec<_> = model.range(start..end).map(|(&k, &v)| (k, v)).collect();
                    for (k, _) in &want {
                        model.remove(k);
                    }
                    assert_eq!(got, want, "step {step}: drain {start}..{end}");
                }
                _ => {
                    let start = vpn(&mut rng);
                    let end = start + rng.below(1100);
                    let got: Vec<_> = pt.range(start..end).collect();
                    let want: Vec<_> = model.range(start..end).map(|(&k, &v)| (k, v)).collect();
                    assert_eq!(got, want, "step {step}: range {start}..{end}");
                }
            }
            assert_agrees(&pt, model.iter().map(|(&k, &v)| (k, v)).collect(), step);
        }
    }

    #[test]
    fn drain_across_leaf_boundaries_frees_emptied_leaves() {
        let mut pt = PageTable::default();
        for v in 500..1030 {
            pt.insert(v, Pte::Swapped { slot: v as u32 });
        }
        assert_eq!(pt.dir.len(), 3);
        let mut seen = Vec::new();
        pt.drain_range(511..1024, |v, _| seen.push(v));
        assert_eq!(seen, (511..1024).collect::<Vec<_>>());
        assert_eq!(pt.dir.len(), 2, "leaf 1 (vpns 512..1024) freed");
        pt.check();
        pt.drain_range(0..u64::MAX, |_, _| {});
        assert!(pt.dir.is_empty());
        pt.drain_range(7..7, |_, _| panic!("empty range drains nothing"));
        assert_eq!(pt.range(0..0).count(), 0);
    }

    #[test]
    fn values_mut_and_clone_see_every_entry() {
        let mut pt = PageTable::default();
        for v in [3, 511, 512, 1 << 30] {
            pt.insert(
                v,
                Pte::Resident {
                    pfn: Pfn(v as u32),
                    cow: false,
                },
            );
        }
        let copy = pt.clone();
        for pte in pt.values_mut() {
            if let Pte::Resident { cow, .. } = pte {
                *cow = true;
            }
        }
        assert!(pt
            .iter()
            .all(|(_, p)| matches!(p, Pte::Resident { cow: true, .. })));
        assert!(copy
            .iter()
            .all(|(_, p)| matches!(p, Pte::Resident { cow: false, .. })));
        assert_eq!(copy.iter().count(), 4);
    }
}
