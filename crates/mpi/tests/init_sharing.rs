//! Script buffers start as one shared template page per buffer: every
//! whole page of an initialised buffer is backed by the same bytes, and
//! copy-on-write keeps a later write to one page from showing anywhere
//! else.

use std::rc::Rc;

use openmx_core::{OpenMxConfig, PinningMode, ProcId};
use openmx_mpi::collectives::JobBuilder;
use openmx_mpi::run_job;
use simmem::{page_chunks, PAGE_SIZE};

const MIB: u64 = 1 << 20;

fn pattern(salt: u8, len: u64) -> Vec<u8> {
    (0..len).map(|j| (j as u8) ^ salt).collect()
}

#[test]
fn whole_pages_share_one_template_and_a_write_breaks_only_its_page() {
    let mut b = JobBuilder::new(1);
    let buf = b.alloc(MIB, |_| Some(0x5a));
    let cfg = OpenMxConfig::with_mode(PinningMode::OverlappedCached);
    let (mut cl, records) = run_job(&cfg, 1, 1, b.scripts);
    let proc = ProcId(0);
    let addr = records[0].buffer_addrs[buf];
    let (node, space) = (cl.node_of(proc), cl.space_of(proc));

    // The backing page of every page the buffer covers whole.
    let whole_pages = |cl: &openmx_core::Cluster| -> Vec<Rc<[u8]>> {
        let mem = cl.memory(node);
        page_chunks(addr, MIB)
            .filter(|&(_, _, n)| n == PAGE_SIZE)
            .map(|(vpn, _, _)| {
                let pfn = mem
                    .resident_pfn(space, vpn)
                    .expect("initialised page resident");
                mem.share_phys(pfn)
            })
            .collect()
    };
    let pages = whole_pages(&cl);
    assert!(pages.len() as u64 >= MIB / PAGE_SIZE - 1);
    assert!(
        pages.iter().all(|p| Rc::ptr_eq(p, &pages[0])),
        "every whole page shares one template"
    );
    drop(pages);

    let target = addr.add(5 * PAGE_SIZE).page_floor();
    cl.drive(proc, |ctx| {
        ctx.write_buf(target, &[0xee; PAGE_SIZE as usize])
    });
    let mut want = pattern(0x5a, MIB);
    let at = (target.0 - addr.0) as usize;
    want[at..at + PAGE_SIZE as usize].fill(0xee);
    assert_eq!(cl.read_proc(proc, addr, MIB), want);

    let pages = whole_pages(&cl);
    let written = pages.iter().filter(|p| !Rc::ptr_eq(p, &pages[0])).count();
    assert_eq!(written, 1, "only the written page left the template");
    cl.audit().assert_clean();
}

#[test]
fn pingpong_between_template_buffers_delivers_the_senders_bytes() {
    let mut b = JobBuilder::new(2);
    let a = b.alloc(MIB, |r| Some(0x10 + r as u8));
    let bb = b.alloc(MIB, |r| Some(0x80 + r as u8));
    b.pingpong(a, bb, MIB);
    let cfg = OpenMxConfig::with_mode(PinningMode::OverlappedCached);
    // `run` audits the cluster's state before it returns.
    let (mut cl, records) = run_job(&cfg, 2, 1, b.scripts);
    for (rank, rec) in records.iter().enumerate() {
        assert!(rec.failures.is_empty(), "rank {rank}: {:?}", rec.failures);
        assert!(rec.finished.is_some(), "rank {rank} did not finish");
    }
    // Rank 0's `a` went to rank 1's `a`; rank 1's `bb` came back to rank 0's.
    for (buf, salt) in [(a, 0x10), (bb, 0x81)] {
        for (rank, rec) in records.iter().enumerate() {
            let got = cl.read_proc(ProcId(rank as u32), rec.buffer_addrs[buf], MIB);
            assert!(got == pattern(salt, MIB), "rank {rank} buffer {buf}");
        }
    }
}
