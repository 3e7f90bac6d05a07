//! The application-facing context: what a [`Process`](super::Process) can
//! do inside its callbacks.

use simcore::SimDuration;
use simmem::{PageSnapshot, VirtAddr};

use super::{Cluster, OverlapHint, ProcId, SyscallAction, Task, Work};
use crate::endpoint::RequestId;
use crate::region::Segment;

/// Handle given to application callbacks. All methods act *as* the
/// process: allocations land in its address space, communication costs
/// charge its core, request completions come back through
/// [`Process::on_event`](super::Process::on_event).
pub struct Ctx<'a> {
    cl: &'a mut Cluster,
    proc: ProcId,
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(cl: &'a mut Cluster, proc: ProcId) -> Self {
        Ctx { cl, proc }
    }

    /// This process's id.
    pub fn me(&self) -> ProcId {
        self.proc
    }

    /// Total processes in the cluster.
    pub fn nprocs(&self) -> usize {
        self.cl.procs.len()
    }

    /// Current simulated time.
    pub fn now(&self) -> simcore::SimTime {
        self.cl.now
    }

    /// Allocate `len` bytes in this process (malloc semantics: large
    /// blocks are mmap-backed and their `free` reaches the kernel).
    ///
    /// # Panics
    /// Panics on out-of-memory — workloads are sized to fit.
    pub fn malloc(&mut self, len: u64) -> VirtAddr {
        let idx = self.proc.0 as usize;
        let node = self.cl.procs[idx].node;
        let mem = &mut self.cl.nodes[node].mem;
        let heap = &mut self.cl.procs[idx].heap;
        heap.malloc(mem, len).expect("simulated heap OOM")
    }

    /// Free an allocation. For mmap-backed blocks this unmaps the pages —
    /// firing MMU-notifier invalidations into the driver, exactly the
    /// free-then-invalidate flow of the paper's Figure 3.
    pub fn free(&mut self, addr: VirtAddr) {
        let idx = self.proc.0 as usize;
        let node = self.cl.procs[idx].node;
        let events = {
            let mem = &mut self.cl.nodes[node].mem;
            let heap = &mut self.cl.procs[idx].heap;
            heap.free(mem, addr)
        };
        self.cl.dispatch_notifier_events(node, &events);
    }

    /// Write bytes into this process's memory (test/workload setup; no
    /// simulated time is charged). COW breaks fire notifier events.
    pub fn write_buf(&mut self, addr: VirtAddr, data: &[u8]) {
        let idx = self.proc.0 as usize;
        let node = self.cl.procs[idx].node;
        let space = self.cl.procs[idx].space;
        let events = self.cl.nodes[node]
            .mem
            .write(space, addr, data)
            .expect("write_buf fault");
        self.cl.dispatch_notifier_events(node, &events);
    }

    /// Land `data` in this process's memory by reference to its pages:
    /// [`Memory::land`](simmem::Memory::land), otherwise as
    /// [`Ctx::write_buf`] of its bytes.
    pub fn land_buf(&mut self, addr: VirtAddr, data: &PageSnapshot) {
        let idx = self.proc.0 as usize;
        let node = self.cl.procs[idx].node;
        let space = self.cl.procs[idx].space;
        let events = self.cl.nodes[node]
            .mem
            .land(space, addr, data)
            .expect("land_buf fault");
        self.cl.dispatch_notifier_events(node, &events);
    }

    /// Read bytes back from this process's memory (verification; free).
    pub fn read_buf(&mut self, addr: VirtAddr, len: u64) -> Vec<u8> {
        let idx = self.proc.0 as usize;
        let node = self.cl.procs[idx].node;
        let space = self.cl.procs[idx].space;
        let mut buf = vec![0u8; len as usize];
        self.cl.nodes[node]
            .mem
            .read(space, addr, &mut buf)
            .expect("read_buf fault");
        buf
    }

    /// Post a non-blocking send of `[addr, addr+len)` to `peer` with
    /// matching key `match_info`. Completion arrives as
    /// [`AppEvent::SendDone`](super::AppEvent::SendDone).
    pub fn isend(&mut self, peer: ProcId, match_info: u64, addr: VirtAddr, len: u64) -> RequestId {
        self.isend_hinted(peer, match_info, addr, len, OverlapHint::Auto)
    }

    /// [`Ctx::isend`] with an explicit per-request overlap hint (§5: only
    /// blocking operations benefit from overlapped pinning).
    pub fn isend_hinted(
        &mut self,
        peer: ProcId,
        match_info: u64,
        addr: VirtAddr,
        len: u64,
        hint: OverlapHint,
    ) -> RequestId {
        self.isendv_hinted(peer, match_info, &[Segment { addr, len }], hint)
    }

    /// Vectorial (iovec-style) send: the message is the concatenation of
    /// `segments`, gathered by the driver — "regions may be vectorial"
    /// (paper §3.2). The receiver sees one contiguous message.
    pub fn isendv(&mut self, peer: ProcId, match_info: u64, segments: &[Segment]) -> RequestId {
        self.isendv_hinted(peer, match_info, segments, OverlapHint::Auto)
    }

    /// [`Ctx::isendv`] with an explicit overlap hint.
    pub fn isendv_hinted(
        &mut self,
        peer: ProcId,
        match_info: u64,
        segments: &[Segment],
        hint: OverlapHint,
    ) -> RequestId {
        let len: u64 = segments.iter().map(|s| s.len).sum();
        assert!(len > 0, "zero-length sends are not modelled");
        let segments = segments.to_vec();
        let req = self.cl.alloc_req();
        let caches = self.cl.cfg.pinning.caches();
        let cost = self.cl.cfg.profile.syscall
            + if caches {
                self.cl.cfg.profile.cache_lookup
            } else {
                SimDuration::ZERO
            };
        self.cl.submit_proc_work(
            self.proc,
            cost,
            Work::Syscall {
                proc: self.proc,
                action: SyscallAction::Isend {
                    req,
                    peer,
                    match_info,
                    segments,
                    hint,
                },
            },
        );
        req
    }

    /// Post a non-blocking receive into `[addr, addr+len)` matching
    /// `match_info` under `mask` (`!0` = exact). Completion arrives as
    /// [`AppEvent::RecvDone`](super::AppEvent::RecvDone) with the delivered
    /// length.
    pub fn irecv(&mut self, match_info: u64, mask: u64, addr: VirtAddr, len: u64) -> RequestId {
        self.irecv_hinted(match_info, mask, addr, len, OverlapHint::Auto)
    }

    /// [`Ctx::irecv`] with an explicit per-request overlap hint.
    pub fn irecv_hinted(
        &mut self,
        match_info: u64,
        mask: u64,
        addr: VirtAddr,
        len: u64,
        hint: OverlapHint,
    ) -> RequestId {
        assert!(len > 0, "zero-length receives are not modelled");
        let req = self.cl.alloc_req();
        let caches = self.cl.cfg.pinning.caches();
        let cost = self.cl.cfg.profile.syscall
            + if caches {
                self.cl.cfg.profile.cache_lookup
            } else {
                SimDuration::ZERO
            };
        self.cl.submit_proc_work(
            self.proc,
            cost,
            Work::Syscall {
                proc: self.proc,
                action: SyscallAction::Irecv {
                    req,
                    match_info,
                    mask,
                    addr,
                    len,
                    hint,
                },
            },
        );
        req
    }

    /// Burn `duration` of CPU on this process's core, then receive
    /// [`AppEvent::ComputeDone`](super::AppEvent::ComputeDone) with `token`.
    /// Long phases run as bounded slices so interrupts and kernel work
    /// interleave, as the scheduler's timer tick would allow.
    pub fn compute(&mut self, duration: SimDuration, token: u64) {
        let task = Task::ComputeDone {
            owner: self.proc,
            token,
        };
        self.cl.submit_task(duration, task);
    }

    /// Drop an application-level marker into the trace (free; no-op when
    /// tracing is off). Shows up as an `app_mark` instant in the exports —
    /// useful to delimit phases of a workload on the timeline.
    pub fn annotate(&mut self, label: &'static str) {
        let node = self.cl.procs[self.proc.0 as usize].node;
        let proc = self.proc;
        self.cl
            .emit(node, Some(proc), crate::obs::TraceEvent::AppMark { label });
    }

    /// Mark this process finished. No further events are delivered to it.
    pub fn stop(&mut self) {
        self.cl.procs[self.proc.0 as usize].stopped = true;
    }
}
