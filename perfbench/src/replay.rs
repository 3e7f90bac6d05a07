//! Host-clock replays of the calls the engine makes into each layer.
//!
//! The engine calls `EventQueue`, `Memory`, `Driver`, `RegionCache` and
//! `Network` from inside its event handlers, where the benchmark cannot
//! put spans without changing the program. Each function here replays one
//! such call through the layer's public API on a private instance, sized
//! like the workloads, and returns the median host ns per operation over
//! [`SAMPLES`] samples. Multiplied by how often a run makes that call,
//! the replays estimate how much of the run's host time each layer costs.

use std::hint::black_box;
use std::time::Instant;

use openmx_core::{CacheOutcome, Driver, RegionCache, RegionId, Segment};
use simcore::{EventQueue, SimDuration, SimRng, SimTime};
use simmem::{Memory, Pfn, Prot, VirtAddr, PAGE_SIZE};
use simnet::{NetConfig, Network, NodeId, TxOutcome};

/// Timed samples per replay; the median is reported.
pub const SAMPLES: usize = 15;

/// Pages in the replayed buffers: 256 KiB, the churn workload's message.
const PAGES: u64 = 64;

/// Pin chunk of the default configuration.
const CHUNK_PAGES: u64 = 32;

/// Median over [`SAMPLES`] of host ns per op, where one call of `sample`
/// performs `ops` operations.
fn median_ns_per_op(ops: u64, mut sample: impl FnMut()) -> f64 {
    sample(); // warm caches and lazily built state
    let mut per_op: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            sample();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    per_op.sort_by(f64::total_cmp);
    per_op[per_op.len() / 2]
}

/// A mapped, faulted-in buffer of [`PAGES`] pages in a fresh space.
fn faulted_buffer(mem: &mut Memory) -> (simmem::AsId, VirtAddr) {
    let space = mem.create_space();
    let addr = mem
        .mmap(space, PAGES * PAGE_SIZE, Prot::ReadWrite)
        .expect("replay mmap");
    mem.write(space, addr, &vec![0x5a; (PAGES * PAGE_SIZE) as usize])
        .expect("replay fill");
    (space, addr)
}

/// simcore: one `schedule` plus one `pop` with `depth` events pending.
pub fn queue_ns(depth: u64) -> f64 {
    const OPS: u64 = 100_000;
    let mut rng = SimRng::new(7);
    let mut q = EventQueue::new();
    for i in 0..depth.max(1) {
        q.schedule(SimTime::from_nanos(1 + rng.below(10_000)), i);
    }
    median_ns_per_op(OPS, || {
        for _ in 0..OPS {
            let (t, v) = q.pop().expect("queue keeps its depth");
            q.schedule(t + SimDuration::from_nanos(1 + rng.below(10_000)), v);
        }
        black_box(q.len());
    })
}

/// simmem: one page moved between frames, as a pull reply does — read out
/// of the sender's frame, written into the receiver's.
pub fn copy_ns_per_page() -> f64 {
    let mut mem = Memory::new(2 * PAGES as usize + 16, 0);
    let (space, addr) = faulted_buffer(&mut mem);
    let (pfns, _) = mem
        .pin_user_pages(space, addr, PAGES * PAGE_SIZE)
        .expect("replay pin");
    let mut page = vec![0u8; PAGE_SIZE as usize];
    median_ns_per_op(PAGES * 64, || {
        for _ in 0..64 {
            for (i, &src) in pfns.iter().enumerate() {
                let dst: Pfn = pfns[(i + 1) % pfns.len()];
                mem.read_phys(src, 0, &mut page);
                mem.write_phys(dst, 0, &page);
            }
        }
        black_box(&page);
    })
}

/// simmem: `mmap` plus the first write of every page (demand fault and
/// fill), as `Cluster::start` does for each rank's buffers.
pub fn fault_ns_per_page() -> f64 {
    const BUF_PAGES: u64 = 256;
    let mut mem = Memory::new(BUF_PAGES as usize + 16, 0);
    let space = mem.create_space();
    let fill = vec![0xa5u8; (BUF_PAGES * PAGE_SIZE) as usize];
    let mut per_page: Vec<f64> = (0..=SAMPLES)
        .map(|_| {
            let t = Instant::now();
            let addr = mem
                .mmap(space, BUF_PAGES * PAGE_SIZE, Prot::ReadWrite)
                .expect("replay mmap");
            mem.write(space, addr, &fill).expect("replay fill");
            let ns = t.elapsed().as_nanos() as f64 / BUF_PAGES as f64;
            mem.munmap(space, addr, BUF_PAGES * PAGE_SIZE)
                .expect("replay munmap");
            ns
        })
        .skip(1)
        .collect();
    per_page.sort_by(f64::total_cmp);
    per_page[per_page.len() / 2]
}

/// simmem: `pin_user_pages` plus `unpin_pages` of a resident buffer, per
/// page.
pub fn pin_ns_per_page() -> f64 {
    let mut mem = Memory::new(PAGES as usize + 16, 0);
    let (space, addr) = faulted_buffer(&mut mem);
    median_ns_per_op(PAGES * 64, || {
        for _ in 0..64 {
            let (pfns, _) = mem
                .pin_user_pages(space, addr, PAGES * PAGE_SIZE)
                .expect("replay pin");
            mem.unpin_pages(&pfns);
        }
    })
}

/// driver: a whole pin pass over a resident buffer — declare,
/// `pin_chunk` until complete, undeclare — per page.
pub fn pin_pass_ns_per_page() -> f64 {
    let mut mem = Memory::new(PAGES as usize + 16, 0);
    let (space, addr) = faulted_buffer(&mut mem);
    let seg = [Segment {
        addr,
        len: PAGES * PAGE_SIZE,
    }];
    let mut driver = Driver::new(None);
    median_ns_per_op(PAGES * 64, || {
        for _ in 0..64 {
            let id = driver.declare(space, &seg).expect("replay declare");
            while !driver
                .pin_chunk(&mut mem, id, CHUNK_PAGES, false)
                .expect("replay pin chunk")
                .complete
            {}
            driver.undeclare(&mut mem, id);
        }
    })
}

/// driver: one invalidation of a pinned region — `munmap`, the notifier
/// events into `handle_invalidate`, then `drain_deferred` — per munmap.
pub fn invalidate_ns() -> f64 {
    const ROUNDS: usize = 64;
    let mut mem = Memory::new(PAGES as usize + 16, 0);
    let (space, addr) = faulted_buffer(&mut mem);
    mem.register_notifier(space).expect("fresh space");
    let seg = [Segment {
        addr,
        len: PAGES * PAGE_SIZE,
    }];
    let fill = vec![0x5au8; (PAGES * PAGE_SIZE) as usize];
    let mut driver = Driver::new(None);
    let mut per_op: Vec<f64> = Vec::with_capacity(SAMPLES);
    for sample in 0..=SAMPLES {
        let mut ns = 0u128;
        for _ in 0..ROUNDS {
            let id = driver.declare(space, &seg).expect("replay declare");
            while !driver
                .pin_chunk(&mut mem, id, PAGES, false)
                .expect("replay pin")
                .complete
            {}
            let t = Instant::now();
            let events = mem
                .munmap(space, addr, PAGES * PAGE_SIZE)
                .expect("replay munmap");
            for ev in &events {
                black_box(driver.handle_invalidate(&mut mem, ev));
            }
            black_box(driver.drain_deferred(&mut mem));
            ns += t.elapsed().as_nanos();
            driver.undeclare(&mut mem, id);
            mem.mmap_at(space, addr, PAGES * PAGE_SIZE, Prot::ReadWrite)
                .expect("replay remap");
            mem.write(space, addr, &fill).expect("replay refill");
        }
        if sample > 0 {
            per_op.push(ns as f64 / ROUNDS as f64);
        }
    }
    per_op.sort_by(f64::total_cmp);
    per_op[per_op.len() / 2]
}

/// cache: one `RegionCache::lookup` hit among the handful of regions a
/// rank keeps cached.
pub fn lookup_ns() -> f64 {
    const OPS: u64 = 100_000;
    let keys: Vec<Vec<Segment>> = (0..4u64)
        .map(|i| {
            vec![Segment {
                addr: VirtAddr(0x100_0000 + i * 0x10_0000),
                len: PAGES * PAGE_SIZE,
            }]
        })
        .collect();
    let mut cache = RegionCache::new(64);
    for (i, k) in keys.iter().enumerate() {
        cache.insert(k.clone(), RegionId(i as u32));
    }
    median_ns_per_op(OPS, || {
        for i in 0..OPS as usize {
            match cache.lookup(&keys[i % keys.len()]) {
                CacheOutcome::Hit(id) => {
                    black_box(id);
                }
                CacheOutcome::Miss => panic!("replayed keys are cached"),
            }
        }
    })
}

/// simnet: one `Network::transmit` of a full frame on a clean 2-node
/// fabric.
pub fn transmit_ns() -> f64 {
    const OPS: u64 = 100_000;
    let cfg = NetConfig::myri_10g();
    let payload = simnet::frame::max_payload(cfg.mtu);
    let mut net = Network::new(2, cfg, SimRng::new(7));
    let mut now = SimTime::ZERO;
    median_ns_per_op(OPS, || {
        for _ in 0..OPS {
            match net.transmit(now, NodeId(0), NodeId(1), payload) {
                // Send the next frame when this one lands, so the egress
                // queue never overflows.
                TxOutcome::Delivered(d) => now = d.at,
                TxOutcome::Dropped(r) => panic!("clean fabric dropped a frame: {r:?}"),
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_report_positive_times() {
        for ns in [
            queue_ns(16),
            copy_ns_per_page(),
            fault_ns_per_page(),
            pin_ns_per_page(),
            pin_pass_ns_per_page(),
            invalidate_ns(),
            lookup_ns(),
            transmit_ns(),
        ] {
            assert!(ns.is_finite() && ns > 0.0, "{ns}");
        }
    }
}
