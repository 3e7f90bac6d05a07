//! Script-driven processes: the execution model for MPI-style workloads.
//!
//! A [`Script`] is a per-rank program — a sequence of [`Step`]s, each a set
//! of operations issued together and completed together (a barrier within
//! the rank, like a blocking `MPI_Waitall`). Collective algorithms compile
//! into per-rank scripts; the [`ScriptProcess`] executes one on the engine.
//!
//! Matching keys encode `(source_rank << 32) | tag` so receives can match
//! either a specific source (exact) or any source (mask off the high bits).

use std::cell::RefCell;
use std::rc::Rc;

use openmx_core::engine::{AppEvent, Ctx, ProcId, Process};
use openmx_core::RequestId;
use simcore::{SimDuration, SimTime};
use simmem::{page_chunks, PageSnapshot, VirtAddr, VpnRange, PAGE_SIZE};

/// One operation within a step.
#[derive(Clone, Debug)]
pub enum Op {
    /// Send `len` bytes from buffer `buf` at `offset` to rank `to`.
    Send {
        /// Destination rank.
        to: usize,
        /// Message tag.
        tag: u32,
        /// Source buffer index.
        buf: usize,
        /// Byte offset within the buffer.
        offset: u64,
        /// Bytes to send.
        len: u64,
    },
    /// Receive `len` bytes from rank `from` into buffer `buf` at `offset`.
    Recv {
        /// Source rank.
        from: usize,
        /// Message tag.
        tag: u32,
        /// Destination buffer index.
        buf: usize,
        /// Byte offset within the buffer.
        offset: u64,
        /// Buffer capacity for this receive.
        len: u64,
    },
    /// Receive from any source (tag-only matching).
    RecvAny {
        /// Message tag.
        tag: u32,
        /// Destination buffer index.
        buf: usize,
        /// Byte offset within the buffer.
        offset: u64,
        /// Buffer capacity for this receive.
        len: u64,
    },
    /// Burn CPU (reduction arithmetic, application compute phase).
    Compute {
        /// CPU time to burn.
        dur: SimDuration,
    },
    /// Free buffer `buf` and allocate a fresh one of the same size —
    /// the malloc/free churn that defeats or exercises the pinning cache.
    Realloc {
        /// Buffer index to recycle.
        buf: usize,
    },
}

/// A set of operations issued together; the step completes when all do.
#[derive(Clone, Debug, Default)]
pub struct Step {
    /// The operations of this step.
    pub ops: Vec<Op>,
}

impl Step {
    /// A step with one op.
    pub fn one(op: Op) -> Step {
        Step { ops: vec![op] }
    }
}

/// A per-rank program.
#[derive(Clone, Debug, Default)]
pub struct Script {
    /// Buffer sizes to allocate at start.
    pub buffers: Vec<u64>,
    /// Fill patterns: `Some(salt)` initializes buffer bytes to
    /// `(i as u8) ^ salt` for end-to-end verification.
    pub init: Vec<Option<u8>>,
    /// The steps, executed in order.
    pub steps: Vec<Step>,
}

impl Script {
    /// A script with `n` buffers of the given sizes, uninitialized.
    pub fn with_buffers(sizes: &[u64]) -> Script {
        Script {
            buffers: sizes.to_vec(),
            init: vec![None; sizes.len()],
            steps: Vec::new(),
        }
    }

    /// Append a step.
    pub fn push(&mut self, step: Step) {
        self.steps.push(step);
    }
}

/// What one rank recorded during its run.
#[derive(Clone, Debug, Default)]
pub struct RankRecord {
    /// Completion time of each step.
    pub step_done: Vec<SimTime>,
    /// When the script finished.
    pub finished: Option<SimTime>,
    /// Addresses of the script buffers (for post-run verification).
    pub buffer_addrs: Vec<VirtAddr>,
    /// Any request failures observed.
    pub failures: Vec<&'static str>,
}

/// Shared recorder filled in by every rank.
pub type Recorder = Rc<RefCell<Vec<RankRecord>>>;

/// Create a recorder for `ranks` ranks.
pub fn new_recorder(ranks: usize) -> Recorder {
    Rc::new(RefCell::new(vec![RankRecord::default(); ranks]))
}

/// Build the matching key for (source rank, tag).
pub fn key(src_rank: usize, tag: u32) -> u64 {
    ((src_rank as u64) << 32) | tag as u64
}

/// Mask for tag-only (any-source) matching.
pub const ANY_SOURCE_MASK: u64 = 0x0000_0000_ffff_ffff;

// Byte `j` of a pattern depends on `j % 256` only, and 256 divides
// `PAGE_SIZE`, so it depends only on the page offset it lands at: one page
// holds every page of a buffer's pattern.
const _: () = assert!(PAGE_SIZE.is_multiple_of(256));

/// The init pattern of a `size`-byte buffer at `addr` (byte `j` is
/// `(j as u8) ^ salt`), by reference to one template page: every whole
/// page of the buffer is that page, and a partial first or last page is
/// the matching range of it. Landing it copies only the partial pages.
fn init_pattern(addr: VirtAddr, size: u64, salt: u8) -> PageSnapshot {
    let off = addr.page_offset();
    let template: Rc<[u8]> = (0..PAGE_SIZE)
        .map(|k| (k.wrapping_sub(off) as u8) ^ salt)
        .collect();
    let mut snap = PageSnapshot::with_capacity(VpnRange::covering(addr, size).len() as usize);
    for (_, start, len) in page_chunks(addr, size) {
        snap.push(Rc::clone(&template), start, len);
    }
    snap
}

/// Executes a [`Script`] as an engine [`Process`].
pub struct ScriptProcess {
    rank: usize,
    /// rank -> ProcId mapping (identity in simple runs, but explicit).
    ranks: Vec<ProcId>,
    script: Script,
    recorder: Recorder,
    // runtime state
    bufs: Vec<VirtAddr>,
    step: usize,
    /// The current step's requests not yet completed. A step holds a few,
    /// so a list searched front to back is enough.
    outstanding: Vec<RequestId>,
    computes_outstanding: u32,
}

impl ScriptProcess {
    /// A process executing `script` as `rank` of the job described by
    /// `ranks` (index = rank, value = engine ProcId).
    pub fn new(rank: usize, ranks: Vec<ProcId>, script: Script, recorder: Recorder) -> Self {
        ScriptProcess {
            rank,
            ranks,
            script,
            recorder,
            bufs: Vec::new(),
            step: 0,
            outstanding: Vec::new(),
            computes_outstanding: 0,
        }
    }

    fn issue_step(&mut self, ctx: &mut Ctx<'_>) {
        while self.step < self.script.steps.len() {
            for i in 0..self.script.steps[self.step].ops.len() {
                match self.script.steps[self.step].ops[i].clone() {
                    Op::Send {
                        to,
                        tag,
                        buf,
                        offset,
                        len,
                    } => {
                        let req = ctx.isend(
                            self.ranks[to],
                            key(self.rank, tag),
                            self.bufs[buf].add(offset),
                            len,
                        );
                        self.outstanding.push(req);
                    }
                    Op::Recv {
                        from,
                        tag,
                        buf,
                        offset,
                        len,
                    } => {
                        let req = ctx.irecv(key(from, tag), !0, self.bufs[buf].add(offset), len);
                        self.outstanding.push(req);
                    }
                    Op::RecvAny {
                        tag,
                        buf,
                        offset,
                        len,
                    } => {
                        let req = ctx.irecv(
                            key(0, tag),
                            ANY_SOURCE_MASK,
                            self.bufs[buf].add(offset),
                            len,
                        );
                        self.outstanding.push(req);
                    }
                    Op::Compute { dur } => {
                        ctx.compute(dur, self.step as u64);
                        self.computes_outstanding += 1;
                    }
                    Op::Realloc { buf } => {
                        // Free + malloc of the same size: typically returns
                        // the same virtual address backed by fresh frames.
                        let size = self.script.buffers[buf];
                        ctx.free(self.bufs[buf]);
                        self.bufs[buf] = ctx.malloc(size);
                        self.recorder.borrow_mut()[self.rank].buffer_addrs[buf] = self.bufs[buf];
                    }
                }
            }
            if self.outstanding.is_empty() && self.computes_outstanding == 0 {
                // Purely local step (e.g. realloc only): complete at once.
                self.recorder.borrow_mut()[self.rank]
                    .step_done
                    .push(ctx.now());
                self.step += 1;
                continue;
            }
            return;
        }
        // Script finished.
        self.recorder.borrow_mut()[self.rank].finished = Some(ctx.now());
        ctx.stop();
    }

    /// Take `req` off the outstanding list; false if it was not on it.
    fn complete(&mut self, req: RequestId) -> bool {
        let Some(i) = self.outstanding.iter().position(|&r| r == req) else {
            return false;
        };
        self.outstanding.swap_remove(i);
        true
    }

    fn maybe_advance(&mut self, ctx: &mut Ctx<'_>) {
        if self.outstanding.is_empty() && self.computes_outstanding == 0 {
            self.recorder.borrow_mut()[self.rank]
                .step_done
                .push(ctx.now());
            self.step += 1;
            self.issue_step(ctx);
        }
    }
}

impl Process for ScriptProcess {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        for (i, &size) in self.script.buffers.iter().enumerate() {
            let addr = ctx.malloc(size);
            if let Some(salt) = self.script.init[i] {
                ctx.land_buf(addr, &init_pattern(addr, size, salt));
            }
            self.bufs.push(addr);
        }
        self.recorder.borrow_mut()[self.rank].buffer_addrs = self.bufs.clone();
        self.issue_step(ctx);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: AppEvent) {
        match event {
            AppEvent::SendDone(req) | AppEvent::RecvDone(req, _) => {
                let was = self.complete(req);
                assert!(was, "completion for unknown request");
                self.maybe_advance(ctx);
            }
            AppEvent::ComputeDone(_) => {
                self.computes_outstanding -= 1;
                self.maybe_advance(ctx);
            }
            AppEvent::Failed(req, reason) => {
                self.recorder.borrow_mut()[self.rank].failures.push(reason);
                // A late failure (e.g. an eager send erroring after its
                // SendDone) names a request that is no longer outstanding;
                // it must only be recorded, not re-complete the step.
                if self.complete(req) {
                    self.maybe_advance(ctx);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_encoding_separates_sources() {
        assert_ne!(key(0, 5), key(1, 5));
        assert_eq!(key(3, 5) & ANY_SOURCE_MASK, key(7, 5) & ANY_SOURCE_MASK);
        assert_ne!(key(3, 5) & ANY_SOURCE_MASK, key(3, 6) & ANY_SOURCE_MASK);
    }

    #[test]
    fn init_pattern_matches_the_byte_formula_and_shares_its_whole_pages() {
        for off in [0, 1, 100, PAGE_SIZE - 1] {
            for size in [
                0,
                1,
                PAGE_SIZE - 1,
                PAGE_SIZE,
                PAGE_SIZE + 1,
                3 * PAGE_SIZE + 17,
            ] {
                for salt in [0x00, 0xa5] {
                    let addr = VirtAddr(0x40_0000 + off);
                    let snap = init_pattern(addr, size, salt);
                    let want: Vec<u8> = (0..size).map(|j| (j as u8) ^ salt).collect();
                    assert_eq!(snap.to_vec(), want, "offset {off} size {size}");

                    let mut whole = Vec::new();
                    let mut r = snap.reader();
                    loop {
                        if let Some(page) = r.page_at(0, PAGE_SIZE) {
                            whole.push(Rc::clone(page));
                            r.bytes(PAGE_SIZE);
                        } else if r.bytes(u64::MAX).is_empty() {
                            break;
                        }
                    }
                    let expect = page_chunks(addr, size)
                        .filter(|&(_, _, n)| n == PAGE_SIZE)
                        .count();
                    assert_eq!(whole.len(), expect, "offset {off} size {size}");
                    assert!(
                        whole.iter().all(|p| Rc::ptr_eq(p, &whole[0])),
                        "offset {off} size {size}: whole pages not shared"
                    );
                }
            }
        }
    }

    #[test]
    fn script_builder() {
        let mut s = Script::with_buffers(&[1024, 2048]);
        assert_eq!(s.buffers.len(), 2);
        s.push(Step::one(Op::Compute {
            dur: SimDuration::from_micros(1),
        }));
        assert_eq!(s.steps.len(), 1);
    }
}
