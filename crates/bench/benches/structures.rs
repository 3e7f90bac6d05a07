//! Microbenchmarks of the hot data structures: the event queue, the region
//! cache, the page-fault/pin path, the pull-reply and eager byte paths and
//! the core run queue. These measure
//! *wall-clock* cost of the simulator itself (the simulated costs are the
//! `bench` scenarios' business).

use openmx_bench::microbench::{black_box, Bench};
use openmx_core::cache::{CacheOutcome, RegionCache};
use openmx_core::driver::Driver;
use openmx_core::region::{DriverRegion, Segment};
use openmx_core::RegionId;
use simcore::{CpuCore, EventQueue, Priority, SimDuration, SimTime, Work};
use simmem::{Memory, Prot, VirtAddr, PAGE_SIZE};

fn bench_event_queue(b: &Bench) {
    b.bench("event_queue schedule+pop 1k", || {
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            q.schedule(SimTime::from_nanos((i * 7919) % 100_000 + 1), i);
        }
        let mut sum = 0u64;
        while let Some((_, v)) = q.pop() {
            sum += v;
        }
        black_box(sum)
    });
    b.bench("event_queue cancel-heavy", || {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..1000u64)
            .map(|i| q.schedule(SimTime::from_nanos(i + 1), i))
            .collect();
        for id in ids.iter().step_by(2) {
            q.cancel(*id);
        }
        let mut n = 0;
        while q.pop().is_some() {
            n += 1;
        }
        black_box(n)
    });
    // The pull-reply pattern: every frame pops one event, then pushes the
    // transfer's stall timer out, either by cancelling the armed timer and
    // arming anew or by moving it in place as the engine does.
    const DEPTH: u64 = 20;
    const STALL: SimDuration = SimDuration::from_nanos(100_000);
    let gap = |v: u64| SimDuration::from_nanos((v * 7919) % 20_000 + 1);
    let primed = || {
        let mut q = EventQueue::new();
        for v in 0..DEPTH {
            q.schedule(SimTime::ZERO + gap(v), v);
        }
        let timer = q.schedule(SimTime::ZERO + STALL, u64::MAX);
        (q, timer)
    };
    {
        let (mut q, mut timer) = primed();
        b.bench("event_queue stall re-arm", || {
            let (t, v) = q.pop().expect("queue keeps its depth");
            q.schedule(t + gap(v + 1), v + 1);
            q.cancel(timer);
            timer = q.schedule(t + STALL, u64::MAX);
            black_box(v)
        });
    }
    {
        let (mut q, mut timer) = primed();
        b.bench("event_queue reschedule", || {
            let (t, v) = q.pop().expect("queue keeps its depth");
            q.schedule(t + gap(v + 1), v + 1);
            timer = q
                .reschedule(timer, t + STALL)
                .expect("the timer never fires");
            black_box(v)
        });
    }
}

fn bench_region_cache(b: &Bench) {
    let segments: Vec<Vec<Segment>> = (0..64u64)
        .map(|i| {
            vec![Segment {
                addr: VirtAddr(0x10_0000 + i * 0x10_0000),
                len: 1 << 20,
            }]
        })
        .collect();
    {
        let mut cache = RegionCache::new(64);
        for (i, s) in segments.iter().enumerate() {
            cache.insert(s.clone(), RegionId(i as u32));
        }
        let mut i = 0;
        b.bench("region_cache lookup hit", || {
            i = (i + 1) % segments.len();
            match cache.lookup(&segments[i]) {
                CacheOutcome::Hit(id) => black_box(id),
                CacheOutcome::Miss => panic!("must hit"),
            }
        });
    }
    b.bench("region_cache insert+evict", || {
        let mut cache = RegionCache::new(16);
        for (i, s) in segments.iter().enumerate() {
            black_box(cache.insert(s.clone(), RegionId(i as u32)));
        }
    });
}

fn bench_pin_path(b: &Bench) {
    {
        let mut mem = Memory::new(512, 0);
        let space = mem.create_space();
        let addr = mem.mmap(space, 256 * PAGE_SIZE, Prot::ReadWrite).unwrap();
        // Pre-fault so we measure the steady-state pin path.
        mem.write(space, addr, &vec![1u8; (256 * PAGE_SIZE) as usize])
            .unwrap();
        b.bench("pin+unpin 256 pages (1 MiB)", || {
            let (pfns, _) = mem.pin_user_pages(space, addr, 256 * PAGE_SIZE).unwrap();
            mem.unpin_pages(&pfns);
            black_box(pfns.len())
        });
    }
    {
        // The realloc-churn cycle in memory alone: a fresh buffer is
        // pinned (faulting every page in), freed while pinned, and its
        // pins dropped after the notifier fired.
        let mut mem = Memory::new(512, 0);
        let space = mem.create_space();
        mem.register_notifier(space).unwrap();
        let first = mem.mmap(space, 64 * PAGE_SIZE, Prot::ReadWrite).unwrap();
        mem.munmap(space, first, 64 * PAGE_SIZE).unwrap();
        b.bench("mmap+pin+munmap 64 pages (realloc churn)", || {
            let addr = mem.mmap(space, 64 * PAGE_SIZE, Prot::ReadWrite).unwrap();
            assert_eq!(addr, first, "the freed range is handed out again");
            let (pfns, _) = mem.pin_user_pages(space, addr, 64 * PAGE_SIZE).unwrap();
            let evs = mem.munmap(space, addr, 64 * PAGE_SIZE).unwrap();
            assert_eq!(evs.len(), 1);
            mem.unpin_pages(&pfns);
            black_box(pfns.len())
        });
    }
    {
        let mut mem = Memory::new(512, 0);
        let space = mem.create_space();
        mem.register_notifier(space).unwrap();
        let addr = mem.mmap(space, 64 * PAGE_SIZE, Prot::ReadWrite).unwrap();
        b.bench("driver declare+invalidate", || {
            let mut driver = Driver::new(None);
            let rid = driver
                .declare(
                    space,
                    &[Segment {
                        addr,
                        len: 64 * PAGE_SIZE,
                    }],
                )
                .unwrap();
            driver.region_mut(rid).pin_next_chunk(&mut mem, 64).unwrap();
            let evs = mem.munmap(space, addr, 64 * PAGE_SIZE).expect("munmap");
            for ev in &evs {
                driver.handle_invalidate(&mut mem, ev);
            }
            // Remap for the next iteration.
            let again = mem.mmap(space, 64 * PAGE_SIZE, Prot::ReadWrite).unwrap();
            assert_eq!(again, addr);
            driver.undeclare(&mut mem, rid);
            black_box(rid)
        });
    }
}

/// One pull reply's byte path: the sender captures its pinned pages, the
/// receiver lands them in its own pinned pages (separate `Memory`s, as on
/// two nodes), walking a 64-page buffer frame by frame. 8 KiB frames move
/// whole pages only; 8,968-byte jumbo frames split pages.
fn bench_pull_reply(b: &Bench) {
    const PAGES: u64 = 64;
    const FRAME: u64 = 2 * PAGE_SIZE;
    let pinned = |fill: u8| {
        let mut mem = Memory::new(PAGES as usize + 16, 0);
        let space = mem.create_space();
        let addr = mem.mmap(space, PAGES * PAGE_SIZE, Prot::ReadWrite).unwrap();
        mem.write(space, addr, &vec![fill; (PAGES * PAGE_SIZE) as usize])
            .unwrap();
        let mut region = DriverRegion::new(
            space,
            &[Segment {
                addr,
                len: PAGES * PAGE_SIZE,
            }],
        );
        region.pin_next_chunk(&mut mem, PAGES).unwrap();
        (mem, region)
    };
    let (src_mem, src) = pinned(0x5a);
    let (mut dst_mem, dst) = pinned(0);
    let mut offset = 0;
    b.bench("pull-reply 8 KiB capture+land", || {
        let data = src.capture(&src_mem, offset, FRAME).unwrap();
        dst.land(&mut dst_mem, offset, &data).unwrap();
        offset = (offset + FRAME) % (PAGES * PAGE_SIZE);
        black_box(data.len())
    });

    // Jumbo frames split about every other destination page across two
    // frames. Into a fresh destination (each pass over the buffer lands
    // the other of two senders) the first piece of a split page is copied
    // and the second takes the sender's page; into a steady-state one
    // (every pass lands the same sender) each page already holds it.
    const JUMBO: u64 = 8968;
    let senders = [pinned(0x5a), pinned(0xa5)];
    for (name, flip) in [("fresh", 1), ("steady", 0)] {
        let (mut dst_mem, dst) = pinned(0);
        let (mut offset, mut sender) = (0, 0);
        b.bench(&format!("pull-reply 8968 B capture+land, {name}"), || {
            let len = JUMBO.min(PAGES * PAGE_SIZE - offset);
            let (src_mem, src) = &senders[sender];
            let data = src.capture(src_mem, offset, len).unwrap();
            dst.land(&mut dst_mem, offset, &data).unwrap();
            offset += len;
            if offset == PAGES * PAGE_SIZE {
                offset = 0;
                sender ^= flip;
            }
            black_box(data.len())
        });
    }
}

/// One 4 KiB eager message's byte path: the sender captures its
/// page-aligned buffer through its page tables, the frame carries a slice
/// of it, and the receiver lands it in its own buffer (separate `Memory`s,
/// as on two nodes). The page goes across by reference.
fn bench_eager(b: &Bench) {
    const LEN: u64 = 4096;
    let buffer = |fill: u8| {
        let mut mem = Memory::new(16, 0);
        let space = mem.create_space();
        let addr = mem.mmap(space, LEN, Prot::ReadWrite).unwrap();
        mem.write(space, addr, &[fill; LEN as usize]).unwrap();
        (mem, space, addr)
    };
    let (mut src_mem, src_space, src) = buffer(0x5a);
    let (mut dst_mem, dst_space, dst) = buffer(0);
    b.bench("eager 4 KiB capture+land", || {
        let data = src_mem.capture(src_space, src, LEN).unwrap();
        let frag = data.slice(0, LEN);
        let events = dst_mem.land(dst_space, dst, &frag).unwrap();
        assert!(events.is_empty());
        black_box(frag.len())
    });
    let mut back = [0u8; LEN as usize];
    dst_mem.read(dst_space, dst, &mut back).unwrap();
    assert!(back.iter().all(|&x| x == 0x5a), "the message landed");
}

fn bench_cpu_core(b: &Bench) {
    b.bench("cpu_core submit/complete 1k mixed", || {
        let mut core = CpuCore::new();
        let mut now = SimTime::ZERO;
        let mut next = core
            .submit(
                now,
                Work {
                    duration: SimDuration::from_nanos(100),
                    priority: Priority::Task,
                    payload: 0u64,
                },
            )
            .unwrap();
        for i in 1..1000u64 {
            let prio = if i % 3 == 0 {
                Priority::BottomHalf
            } else {
                Priority::Task
            };
            core.submit(
                now,
                Work {
                    duration: SimDuration::from_nanos(100),
                    priority: prio,
                    payload: i,
                },
            );
        }
        let mut sum = 0u64;
        loop {
            now = next.at;
            let (_, v, n) = core.on_complete(now);
            sum += v;
            match n {
                Some(c) => next = c,
                None => break,
            }
        }
        black_box(sum)
    });
}

fn main() {
    let b = Bench::new();
    bench_event_queue(&b);
    bench_region_cache(&b);
    bench_pin_path(&b);
    bench_pull_reply(&b);
    bench_eager(&b);
    bench_cpu_core(&b);
}
