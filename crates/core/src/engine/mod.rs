//! The cluster engine: nodes, cores, NICs, drivers, processes, and the
//! deterministic event loop tying them together.
//!
//! One [`Cluster`] is one experiment: a set of nodes on a fabric, each with
//! its own memory subsystem ([`simmem::Memory`]), cores
//! ([`simcore::CpuCore`]), I/OAT engine, Open-MX driver and endpoints.
//! Applications implement [`Process`] and interact through [`Ctx`] —
//! `malloc`/`free`, `isend`/`irecv`, `compute` — while the engine charges
//! every cost (system calls, pinning chunks, per-frame bottom-half work,
//! memory copies, wire time) to the right resource at the right instant.
//!
//! The event loop is strictly deterministic: stable event ordering, seeded
//! RNG, state tables iterated in key order. Running the same
//! configuration twice produces byte-identical traces.

mod ctx;
mod handlers;
mod rto;
mod xfer;

pub use ctx::Ctx;

use std::collections::BTreeMap;

use simcore::{
    CpuCore, EventId, EventQueue, Priority, SimDuration, SimRng, SimTime, Work as CpuWork,
};
use simmem::{AsId, Memory, SimHeap};
use simnet::{IoatEngine, Network, NodeId, TxOutcome};

use crate::cache::RegionCache;
use crate::config::{OpenMxConfig, CORES_PER_NODE};
use crate::driver::{Driver, RegionId};
use crate::endpoint::{Endpoint, EndpointAddr, RequestId};
use crate::obs::tracer::DEFAULT_CAPACITY;
use crate::obs::{
    CacheStats, Counter, CounterSet, FaultKind, Metrics, TraceEvent, TraceRecord, Tracer,
};
use crate::wire::{Frame, MsgId, PullId, WireMsg};
use rto::RttEstimator;
pub(crate) use xfer::PinPass;
use xfer::{PendingCopy, Phase, Xfer, XferKey, XferTable};

/// Identifies a simulated process (rank).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProcId(pub u32);

/// Per-request control over overlapped pinning — the paper's §5 proposal
/// to "only enable decoupled/overlapped pinning for blocking operations":
/// a blocking `MPI_Send` gains from overlap (the caller waits anyway),
/// while an overlap-aware application computing concurrently may prefer
/// the simple synchronous path.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OverlapHint {
    /// Follow the configured [`PinningMode`](crate::PinningMode).
    #[default]
    Auto,
    /// Overlap this request's pinning even in a non-overlapping mode
    /// (cache behaviour still follows the mode).
    Force,
    /// Pin synchronously before the initiating message for this request.
    Disable,
}

impl OverlapHint {
    /// Resolve against the mode's default.
    pub fn resolve(self, mode_overlaps: bool) -> bool {
        match self {
            OverlapHint::Auto => mode_overlaps,
            OverlapHint::Force => true,
            OverlapHint::Disable => false,
        }
    }
}

/// Events delivered to a [`Process`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AppEvent {
    /// A send request completed (buffer reusable).
    SendDone(RequestId),
    /// A receive completed; the payload length actually delivered.
    RecvDone(RequestId, u64),
    /// A request aborted (e.g. pinning failed on an invalid region).
    Failed(RequestId, &'static str),
    /// A `compute` phase finished (token echoes the caller's).
    ComputeDone(u64),
}

/// A simulated application process.
///
/// Implementations are state machines: `start` runs once at time zero;
/// `on_event` runs at each request/compute completion. All interaction
/// goes through the [`Ctx`].
pub trait Process {
    /// Called once when the simulation starts.
    fn start(&mut self, ctx: &mut Ctx<'_>);
    /// Called on each completion event for this process.
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: AppEvent);
}

/// Engine events. A core's completion is not one: core `core` of `node`
/// owns lane `node * CORES_PER_NODE + core` of the event queue, set while
/// a chunk runs there.
pub(crate) enum Event {
    /// A frame reached its destination NIC (raise interrupt).
    FrameArrival(Frame),
    /// An I/OAT copy finished on `node`.
    IoatDone { node: usize, token: u64 },
    /// A protocol timer fired.
    Timer(TimerToken),
}

/// Timer identities (payload of [`Event::Timer`]).
#[derive(Clone, Copy, Debug)]
pub(crate) enum TimerToken {
    /// Retransmission (or completion-watchdog) timeout of a transfer end.
    Retry(XferKey),
    /// Deferred-unpin flush epoch close on a node: drain the driver's
    /// coalesced invalidation queue in one batch.
    NotifierEpoch(usize),
}

/// CPU work payloads.
pub(crate) enum Work {
    /// System-call half of an application call.
    Syscall { proc: ProcId, action: SyscallAction },
    /// Pin the next chunk of a region (on-demand pinning).
    PinChunk { node: usize, region: RegionId },
    /// Unpin and undeclare a region at its last use. `owner` guards
    /// against slot reuse: a crash reap may free the region id while this
    /// work is queued, and a recycled id must not be unpinned under its
    /// new owner.
    UnpinRegion {
        node: usize,
        region: RegionId,
        owner: ProcId,
    },
    /// Bottom-half processing of one received frame.
    BhFrame(Frame),
    /// One bounded slice of a process's task; `then` fires once
    /// `remaining` is charged too. Slicing keeps long copies and compute
    /// phases preemptible, as the scheduler's timer tick would.
    Slice { then: Task, remaining: SimDuration },
}

/// What a process's core runs in slices: the copies, and application
/// compute phases.
pub(crate) enum Task {
    /// Sender-side eager copy into the static pinned buffer + tx setup.
    EagerCopyOut {
        owner: ProcId,
        msg: MsgId,
        req: RequestId,
    },
    /// Receiver-side copy from the eager ring to the user buffer.
    EagerDeliver { owner: ProcId, msg: MsgId },
    /// Intra-node send copy (shared memory path).
    ShmSend {
        owner: ProcId,
        msg: MsgId,
        req: RequestId,
    },
    /// Intra-node receive copy.
    ShmDeliver { owner: ProcId, msg: MsgId },
    /// An application compute phase; `token` echoes the caller's.
    ComputeDone { owner: ProcId, token: u64 },
}

impl Task {
    /// The process whose core runs the task.
    fn owner(&self) -> ProcId {
        match self {
            Task::EagerCopyOut { owner, .. }
            | Task::EagerDeliver { owner, .. }
            | Task::ShmSend { owner, .. }
            | Task::ShmDeliver { owner, .. }
            | Task::ComputeDone { owner, .. } => *owner,
        }
    }
}

/// Deferred syscall bodies.
pub(crate) enum SyscallAction {
    Isend {
        req: RequestId,
        peer: ProcId,
        match_info: u64,
        segments: Vec<crate::region::Segment>,
        hint: OverlapHint,
    },
    Irecv {
        req: RequestId,
        match_info: u64,
        mask: u64,
        addr: simmem::VirtAddr,
        len: u64,
        hint: OverlapHint,
    },
}

/// One simulated host. What the engine knows about a region (its pin
/// pass, whether its last release undeclares it) lives on the driver's
/// region, not in a table here.
pub(crate) struct Node {
    pub mem: Memory,
    pub cores: Vec<CpuCore<Work>>,
    pub ioat: IoatEngine,
    pub driver: Driver,
    /// The engine's counts for this node. The driver's six notifier and
    /// pressure counts are not kept here; [`Cluster::node_counters`]
    /// reads them from `driver`.
    pub counters: CounterSet,
    /// Core the NIC's interrupt bottom half is bound to.
    pub bh_core: usize,
    /// A [`TimerToken::NotifierEpoch`] is pending for this node. Armed
    /// only when an invalidation defers while no epoch is open — never
    /// re-armed from its own firing, so an idle node stays quiescent.
    pub epoch_armed: bool,
    /// Parked I/OAT copies, by completion token.
    pub ioat_copies: BTreeMap<u64, PendingCopy>,
}

/// One simulated process (rank) and its kernel-side identity.
pub(crate) struct ProcSlot {
    pub node: usize,
    pub core: usize,
    pub space: AsId,
    pub heap: SimHeap,
    pub endpoint: Endpoint,
    pub cache: RegionCache,
    pub app: Option<Box<dyn Process>>,
    pub stopped: bool,
    /// Crash/restart cycle counter; stamped into every frame the process
    /// sends so stale-incarnation traffic is fenced at arrival.
    pub incarnation: u32,
    /// The process is dead (crashed, not yet restarted): its endpoint is
    /// fenced and no application events are delivered.
    pub crashed: bool,
    /// Pages of this process's in-flight pin chunks, reserved against its
    /// hard cap: the sum of `reserved` over its regions' pin passes.
    pub pin_reserved: u64,
}

/// The simulation engine. See the module docs.
pub struct Cluster {
    pub(crate) cfg: OpenMxConfig,
    pub(crate) queue: EventQueue<Event>,
    pub(crate) net: Network,
    pub(crate) nodes: Vec<Node>,
    pub(crate) procs: Vec<ProcSlot>,
    /// Every in-flight transfer end, found by one index on its message
    /// id (see `XferTable`).
    pub(crate) xfers: XferTable,
    pub(crate) next_msg: u64,
    pub(crate) next_pull: u64,
    pub(crate) next_req: u64,
    pub(crate) next_ioat_token: u64,
    pub(crate) tracer: Tracer,
    pub(crate) metrics: Metrics,
    pub(crate) now: SimTime,
    /// `start` callbacks have run (they run exactly once, whether the
    /// cluster is driven by [`Cluster::run`] or stepped externally).
    pub(crate) started: bool,
    /// Fabric round-trip estimator feeding adaptive retransmission.
    pub(crate) rtt: RttEstimator,
    /// Dedicated stream for retransmission-timeout jitter (keeps backoff
    /// decisions independent of the fabric's loss draws).
    retrans_rng: SimRng,
}

impl Cluster {
    /// Maximum uninterrupted compute slice (the scheduler tick).
    pub(crate) const COMPUTE_SLICE: SimDuration = SimDuration::from_micros(100);

    /// Build a cluster of `node_count` hosts with the given configuration.
    pub fn new(cfg: OpenMxConfig, node_count: usize) -> Self {
        assert!(node_count >= 1);
        cfg.validate().expect("invalid OpenMxConfig");
        let rng = SimRng::new(cfg.seed);
        let net = Network::new(node_count, cfg.net.clone(), rng.derive_stream("net"));
        let nodes = (0..node_count)
            .map(|_| Node {
                mem: Memory::new(cfg.frames_per_node, cfg.swap_per_node),
                cores: (0..CORES_PER_NODE).map(|_| CpuCore::new()).collect(),
                ioat: IoatEngine::default_chipset(),
                driver: {
                    let mut d = Driver::new(cfg.pinned_pages_limit);
                    d.set_quota(cfg.pin_quota);
                    d
                },
                counters: CounterSet::default(),
                bh_core: 0,
                epoch_armed: false,
                ioat_copies: BTreeMap::new(),
            })
            .collect();
        Cluster {
            cfg,
            queue: EventQueue::with_lanes(node_count * CORES_PER_NODE),
            net,
            nodes,
            procs: Vec::new(),
            xfers: XferTable::default(),
            next_msg: 0,
            next_pull: 0,
            next_req: 0,
            next_ioat_token: 0,
            tracer: Tracer::disabled(),
            metrics: Metrics::new(),
            now: SimTime::ZERO,
            started: false,
            rtt: RttEstimator::default(),
            retrans_rng: rng.derive_stream("retrans"),
        }
    }

    /// Add a process on `node`. Its endpoint opens immediately: the driver
    /// attaches an MMU notifier to the new address space (if enabled).
    pub fn add_process(&mut self, node: usize, app: Box<dyn Process>) -> ProcId {
        let procs_on_node = self.procs.iter().filter(|p| p.node == node).count();
        let n = &mut self.nodes[node];
        let space = n.mem.create_space();
        if self.cfg.use_mmu_notifiers {
            n.mem.register_notifier(space).expect("fresh space");
        }
        let ncores = n.cores.len();
        let core = if self.cfg.colocate_with_bh || ncores == 1 {
            n.bh_core
        } else {
            1 + procs_on_node % (ncores - 1)
        };
        let slot = ProcSlot {
            node,
            core,
            space,
            heap: SimHeap::new(space),
            endpoint: Endpoint::new(),
            cache: RegionCache::new(if self.cfg.pinning.caches() {
                self.cfg.cache_capacity
            } else {
                0
            }),
            app: Some(app),
            stopped: false,
            incarnation: 0,
            crashed: false,
            pin_reserved: 0,
        };
        self.procs.push(slot);
        ProcId(self.procs.len() as u32 - 1)
    }

    /// Start recording trace events into a default-capacity ring buffer
    /// (see [`crate::obs::tracer::DEFAULT_CAPACITY`]).
    pub fn enable_trace(&mut self) {
        self.tracer = Tracer::enabled(DEFAULT_CAPACITY);
    }

    /// Start recording trace events into a ring holding `capacity` records.
    pub fn enable_trace_with_capacity(&mut self, capacity: usize) {
        self.tracer = Tracer::enabled(capacity);
    }

    /// The trace ring buffer (empty and disabled unless
    /// [`Cluster::enable_trace`] was called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Latency metrics recorded so far (always on).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Run every process's `start` callback. Idempotent: the callbacks
    /// fire exactly once, on the first `start`/`run`/`step_until` call.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for p in 0..self.procs.len() {
            if self.procs[p].crashed {
                continue;
            }
            let proc = ProcId(p as u32);
            let mut app = self.procs[p].app.take().expect("app present");
            let mut ctx = Ctx::new(self, proc);
            app.start(&mut ctx);
            self.procs[p].app = Some(app);
        }
    }

    /// Run: start every process (first call only), then drain events until
    /// quiescence or `deadline`. An event scheduled past the deadline stays
    /// queued — earlier revisions popped and *discarded* it, silently
    /// dropping one event from any continuation. Before returning, run
    /// [`Cluster::audit`] (its quiescence laws too when the queue
    /// drained) and panic on the first violated law. Returns the final
    /// simulated time.
    pub fn run(&mut self, deadline: Option<SimTime>) -> SimTime {
        self.start();
        match deadline {
            None => {
                while let Some((t, due)) = self.queue.pop_due() {
                    self.now = t;
                    self.dispatch(due);
                }
            }
            Some(d) => {
                while let Some(t) = self.queue.peek_time() {
                    if t > d {
                        self.now = d;
                        break;
                    }
                    let (t, due) = self.queue.pop_due().expect("peeked event");
                    self.now = t;
                    self.dispatch(due);
                }
            }
        }
        self.audit().assert_clean();
        self.now
    }

    /// Dispatch every event up to and including `deadline`, then advance
    /// the clock to `deadline` exactly. Later events stay queued, so an
    /// external driver (the `simtest` explorer) can interleave its own
    /// actions — posting transfers, mutating address spaces — between
    /// steps and observe invariants at a quiescent instant. Unlike
    /// [`Cluster::run`] it does not audit. Returns how many events were
    /// dispatched, each core completion counting as one.
    pub fn step_until(&mut self, deadline: SimTime) -> usize {
        self.start();
        let mut dispatched = 0usize;
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            let (t, due) = self.queue.pop_due().expect("peeked event");
            self.now = t;
            self.dispatch(due);
            dispatched += 1;
        }
        if deadline > self.now {
            self.now = deadline;
        }
        dispatched
    }

    /// Timestamp of the next pending event or core completion, if any —
    /// `None` means the simulation is quiescent.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Run a closure against a process's [`Ctx`] from outside the event
    /// loop — the entry point for external schedule drivers: post
    /// sends/receives, write or read buffers, stop the process. Whatever
    /// the call schedules runs on the next `step_until`/`run`.
    pub fn drive<R>(&mut self, proc: ProcId, f: impl FnOnce(&mut Ctx<'_>) -> R) -> R {
        let mut ctx = Ctx::new(self, proc);
        f(&mut ctx)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Cluster-wide counters: the sum of every node's
    /// [`Cluster::node_counters`].
    pub fn counters(&self) -> CounterSet {
        (0..self.nodes.len()).map(|n| self.node_counters(n)).sum()
    }

    /// One node's counters: the engine's counts plus the six the node's
    /// driver owns, read from [`Driver::stats`].
    pub fn node_counters(&self, node: usize) -> CounterSet {
        let n = &self.nodes[node];
        let s = n.driver.stats();
        let mut c = n.counters.clone();
        c.add(Counter::NotifierEvents, s.notifier_events);
        c.add(Counter::NotifierRegionUnpins, s.notifier_region_unpins);
        c.add(Counter::NotifierDeferred, s.notifier_deferred);
        c.add(Counter::NotifierCancelled, s.notifier_cancelled);
        c.add(Counter::NotifierDrainBatches, s.notifier_drain_batches);
        c.add(Counter::PressureUnpinnedPages, s.pressure_unpinned_pages);
        c
    }

    /// Region cache hit/miss stats of one process.
    pub fn cache_stats(&self, proc: ProcId) -> CacheStats {
        self.procs[proc.0 as usize].cache.stats()
    }

    /// Fabric statistics.
    pub fn net_stats(&self) -> simnet::NetStats {
        self.net.stats()
    }

    /// Peak pages simultaneously pinned on `node`.
    pub fn pinned_peak(&self, node: usize) -> usize {
        self.nodes[node].mem.frames().pinned_peak()
    }

    /// Read a process's memory after (or during) a run — for result
    /// verification by tests and harnesses.
    pub fn read_proc(&mut self, proc: ProcId, addr: simmem::VirtAddr, len: u64) -> Vec<u8> {
        let idx = proc.0 as usize;
        let node = self.procs[idx].node;
        let space = self.procs[idx].space;
        let mut buf = vec![0u8; len as usize];
        self.nodes[node]
            .mem
            .read(space, addr, &mut buf)
            .expect("read_proc fault");
        buf
    }

    /// The node a process runs on.
    pub fn node_of(&self, proc: ProcId) -> usize {
        self.procs[proc.0 as usize].node
    }

    // ---- harness introspection and fault injection -------------------

    /// Number of nodes in the cluster.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The kernel-side driver of `node` (read-only introspection).
    pub fn driver(&self, node: usize) -> &Driver {
        &self.nodes[node].driver
    }

    /// The memory subsystem of `node` (read-only introspection).
    pub fn memory(&self, node: usize) -> &Memory {
        &self.nodes[node].mem
    }

    /// Mutable driver access — fault-injection hook for test harnesses
    /// that deliberately corrupt kernel state (e.g. forget a stale
    /// watermark) to prove [`Cluster::audit`] catches it. Not for
    /// applications.
    pub fn driver_mut(&mut self, node: usize) -> &mut Driver {
        &mut self.nodes[node].driver
    }

    /// Mutable memory access — fault-injection hook for test harnesses
    /// that deliberately corrupt kernel state (e.g. leak a pin) to prove
    /// [`Cluster::audit`] catches it. Not for applications.
    pub fn memory_mut(&mut self, node: usize) -> &mut Memory {
        &mut self.nodes[node].mem
    }

    /// The address space backing a process.
    pub fn space_of(&self, proc: ProcId) -> AsId {
        self.procs[proc.0 as usize].space
    }

    /// In-flight protocol state: one entry per transfer end (a receive
    /// counts once whether it is pulling or awaiting its notify's ack),
    /// per parked I/OAT copy and per region with a pin pass — zero means
    /// every posted operation has fully drained.
    pub fn inflight_xfers(&self) -> usize {
        let per_node: usize = self
            .nodes
            .iter()
            .map(|n| {
                let passes = n.driver.iter_regions().filter(|(_, r)| r.pinning());
                n.ioat_copies.len() + passes.count()
            })
            .sum();
        self.xfers.len() + per_node
    }

    /// Live (non-cancelled) events still pending in the queue, each
    /// running core's completion counting as one.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// The frames on the wire, each with its arrival time, in arrival
    /// order (frames due at the same instant in no particular order).
    pub fn frames_in_flight(&self) -> Vec<(SimTime, &Frame)> {
        let mut frames: Vec<_> = self
            .queue
            .iter()
            .filter_map(|(at, event)| match event {
                Event::FrameArrival(frame) => Some((at, frame)),
                _ => None,
            })
            .collect();
        frames.sort_by_key(|&(at, _)| at);
        frames
    }

    // ---- harness VM churn (the hostile-application model) ------------
    //
    // These mutate a process's address space *from outside* — the moves a
    // real application (or the kernel) makes underneath an in-flight
    // transfer: unmap, remap, fork + COW, swap, migration. Each routes the
    // resulting MMU-notifier events into the node's driver exactly like
    // the in-engine paths do.

    /// Map `len` bytes of fresh zeroed pages in a process's space,
    /// bypassing its heap — harness buffers must be unmappable/remappable
    /// at fixed addresses without confusing malloc bookkeeping.
    pub fn vm_mmap(&mut self, proc: ProcId, len: u64) -> simmem::VirtAddr {
        let idx = proc.0 as usize;
        let (node, space) = (self.procs[idx].node, self.procs[idx].space);
        self.nodes[node]
            .mem
            .mmap(space, len, simmem::Prot::ReadWrite)
            .expect("harness mmap")
    }

    /// Re-map a previously unmapped harness buffer at the same address.
    pub fn vm_mmap_at(
        &mut self,
        proc: ProcId,
        addr: simmem::VirtAddr,
        len: u64,
    ) -> Result<(), simmem::MemError> {
        let idx = proc.0 as usize;
        let (node, space) = (self.procs[idx].node, self.procs[idx].space);
        self.nodes[node]
            .mem
            .mmap_at(space, addr, len, simmem::Prot::ReadWrite)
            .map(|_| ())
    }

    /// Unmap `[addr, addr+len)` in a process's space, firing MMU-notifier
    /// invalidations into the driver (the free-then-invalidate flow).
    pub fn vm_munmap(
        &mut self,
        proc: ProcId,
        addr: simmem::VirtAddr,
        len: u64,
    ) -> Result<(), simmem::MemError> {
        let idx = proc.0 as usize;
        let (node, space) = (self.procs[idx].node, self.procs[idx].space);
        let events = self.nodes[node].mem.munmap(space, addr, len)?;
        self.dispatch_notifier_events(node, &events);
        Ok(())
    }

    /// Fork a process's address space (all pages go copy-on-write on both
    /// sides). Returns the child space id; destroy it with
    /// [`Cluster::vm_destroy_space`].
    pub fn vm_fork(&mut self, proc: ProcId) -> Result<AsId, simmem::MemError> {
        let idx = proc.0 as usize;
        let (node, space) = (self.procs[idx].node, self.procs[idx].space);
        self.nodes[node].mem.fork_space(space)
    }

    /// Destroy a forked child space on `node`, dispatching its `Release`
    /// notifier event (if one was registered).
    pub fn vm_destroy_space(&mut self, node: usize, space: AsId) -> Result<(), simmem::MemError> {
        let events = self.nodes[node].mem.destroy_space(space)?;
        self.dispatch_notifier_events(node, &events);
        Ok(())
    }

    /// Swap out every resident, unpinned page of `[addr, addr+len)` in a
    /// process's space (pinned pages refuse, like the kernel's). Notifier
    /// events reach the driver. Returns pages actually swapped.
    pub fn vm_swap_out(&mut self, proc: ProcId, addr: simmem::VirtAddr, len: u64) -> usize {
        let idx = proc.0 as usize;
        let (node, space) = (self.procs[idx].node, self.procs[idx].space);
        let vpns = self.nodes[node].mem.resident_vpns_in(space, addr, len);
        let mut swapped = 0usize;
        for vpn in vpns {
            match self.nodes[node].mem.swap_out(space, vpn) {
                Ok(events) => {
                    self.dispatch_notifier_events(node, &events);
                    swapped += 1;
                }
                Err(_) => continue, // pinned, or swap full — kernel moves on
            }
        }
        swapped
    }

    /// Fault the pages of `[addr, addr+len)` back in (a read touch per
    /// page, discarding the data).
    pub fn vm_swap_in(
        &mut self,
        proc: ProcId,
        addr: simmem::VirtAddr,
        len: u64,
    ) -> Result<(), simmem::MemError> {
        let idx = proc.0 as usize;
        let (node, space) = (self.procs[idx].node, self.procs[idx].space);
        let mut buf = vec![0u8; len as usize];
        self.nodes[node].mem.read(space, addr, &mut buf)?;
        Ok(())
    }

    /// Migrate every resident, unpinned page of `[addr, addr+len)` to a
    /// different frame (compaction/NUMA model; pinned pages refuse).
    /// Returns pages actually migrated.
    pub fn vm_migrate(&mut self, proc: ProcId, addr: simmem::VirtAddr, len: u64) -> usize {
        let idx = proc.0 as usize;
        let (node, space) = (self.procs[idx].node, self.procs[idx].space);
        let vpns = self.nodes[node].mem.resident_vpns_in(space, addr, len);
        let mut moved = 0usize;
        for vpn in vpns {
            match self.nodes[node].mem.migrate(space, vpn) {
                Ok(events) => {
                    self.dispatch_notifier_events(node, &events);
                    moved += 1;
                }
                Err(_) => continue,
            }
        }
        moved
    }

    // ---- crash/restart fault domain ----------------------------------

    /// Crash a process at the current instant. Its endpoint closes (all
    /// queued matching state is dropped), every protocol-table entry it
    /// owned is torn down without completions — nobody is listening — and
    /// the kernel exit path reaps the dead tenant synchronously: all its
    /// regions are undeclared, their pages unpinned in one batch with
    /// exact ledger credit, its in-flight pin passes unwound, and its
    /// address space destroyed. Surviving peers are *not* notified; their
    /// transfers aimed at the dead endpoint discover the death through
    /// their retransmission watchdogs, which short-circuit to a clean
    /// `Failed` completion. Bring the process back with
    /// [`Cluster::restart_proc`].
    pub fn crash_proc(&mut self, proc: ProcId) {
        self.crash_proc_inner(proc, false);
    }

    /// Fault-injection variant of [`Cluster::crash_proc`]: the process is
    /// marked dead (its endpoint fences and its app falls silent) but the
    /// kernel-side reap is skipped wholesale — transfers stay parked in
    /// the tables and every pin the dead tenant owned leaks. Exists so
    /// harness mutation self-tests can prove the audit's `OrphanPins` law
    /// fires.
    /// Not for applications.
    pub fn crash_proc_leaky_for_test(&mut self, proc: ProcId) {
        self.crash_proc_inner(proc, true);
    }

    fn crash_proc_inner(&mut self, proc: ProcId, leaky: bool) {
        let idx = proc.0 as usize;
        assert!(
            !self.procs[idx].crashed,
            "crash of already-crashed {proc:?}"
        );
        let node = self.procs[idx].node;
        let incarnation = self.procs[idx].incarnation;
        self.procs[idx].crashed = true;
        self.nodes[node].counters.bump(Counter::ProcCrashes);
        if leaky {
            self.emit(
                node,
                Some(proc),
                TraceEvent::ProcCrash {
                    proc,
                    incarnation,
                    reaped_pages: 0,
                },
            );
            return;
        }
        self.reap_crashed_xfers(proc);
        // User-space state dies with the process: matching queues and the
        // region cache. (The cached descriptors themselves are reaped
        // below with everything else the dead tenant declared.)
        self.procs[idx].endpoint = Endpoint::new();
        self.procs[idx].cache = RegionCache::new(0);
        // Its pin passes and their reservations go with its regions.
        self.procs[idx].pin_reserved = 0;
        // Kernel exit path: reap every region the dead tenant owned (one
        // batched unpin per region, debited against its quota row before
        // the row is dropped), then tear down the address space. The reap
        // runs first so the teardown's Release notifier event finds no
        // remaining region to double-release.
        let reaped = {
            let n = &mut self.nodes[node];
            n.driver.teardown_proc(&mut n.mem, proc)
        };
        if reaped > 0 {
            self.nodes[node].counters.add(Counter::UnpinPages, reaped);
            self.nodes[node]
                .counters
                .add(Counter::CrashReapedPages, reaped);
        }
        let space = self.procs[idx].space;
        let events = self.nodes[node]
            .mem
            .destroy_space(space)
            .expect("crashed proc had a live space");
        self.dispatch_notifier_events(node, &events);
        self.emit(
            node,
            Some(proc),
            TraceEvent::ProcCrash {
                proc,
                incarnation,
                reaped_pages: reaped,
            },
        );
    }

    /// Restart a crashed process with a bumped incarnation: fresh address
    /// space (MMU notifier re-registered), heap, endpoint, region cache,
    /// and application. Pre-crash frames still in flight carry the old
    /// incarnation stamp and are fenced at arrival, on both sides. If the
    /// cluster is already running, the new application's `start` callback
    /// runs immediately.
    pub fn restart_proc(&mut self, proc: ProcId, app: Box<dyn Process>) {
        let idx = proc.0 as usize;
        assert!(self.procs[idx].crashed, "restart of live {proc:?}");
        let node = self.procs[idx].node;
        let cache_capacity = if self.cfg.pinning.caches() {
            self.cfg.cache_capacity
        } else {
            0
        };
        let n = &mut self.nodes[node];
        let space = n.mem.create_space();
        if self.cfg.use_mmu_notifiers {
            n.mem.register_notifier(space).expect("fresh space");
        }
        let slot = &mut self.procs[idx];
        slot.space = space;
        slot.heap = SimHeap::new(space);
        slot.endpoint = Endpoint::new();
        slot.cache = RegionCache::new(cache_capacity);
        slot.app = Some(app);
        slot.stopped = false;
        slot.crashed = false;
        slot.incarnation += 1;
        let incarnation = slot.incarnation;
        self.nodes[node].counters.bump(Counter::ProcRestarts);
        self.emit(
            node,
            Some(proc),
            TraceEvent::ProcRestart { proc, incarnation },
        );
        if self.started {
            let mut app = self.procs[idx].app.take().expect("just installed");
            let mut ctx = Ctx::new(self, proc);
            app.start(&mut ctx);
            self.procs[idx].app = Some(app);
        }
    }

    /// True while `proc` is crashed (awaiting restart).
    pub fn is_crashed(&self, proc: ProcId) -> bool {
        self.procs[proc.0 as usize].crashed
    }

    /// Tear down every transfer end touching a dead process, in one pass
    /// in key order. The dead side is dropped without completions; live
    /// counterparts of *timerless* phases (matched eager reassembly, shm
    /// messages) fail — everything with a watchdog keeps its entry and
    /// short-circuits when the timer fires. Eager receivers fail before
    /// shm receivers, each in `MsgId` order.
    fn reap_crashed_xfers(&mut self, proc: ProcId) {
        let node = self.procs[proc.0 as usize].node;
        let (mut eager_orphans, mut shm_orphans) = (Vec::new(), Vec::new());
        let doomed = |x: &Xfer| {
            x.proc == proc
                || (x.peer.proc == proc && matches!(x.phase, Phase::EagerRx(_) | Phase::Shm(_)))
        };
        for x in self.xfers.extract_if(doomed) {
            cancel_in(&mut self.queue, x.retry.timer);
            match x.phase {
                // A live receiver mid-reassembly from the dead sender: the
                // missing fragments will never arrive.
                Phase::EagerRx(_) if x.proc != proc => eager_orphans.push((x.proc, x.req)),
                // A live receiver already matched to a dead sender's
                // parked copy. (A live sender's queued copy-out finds its
                // entry gone and fails on its own core, see `on_shm_send`.)
                Phase::Shm(s) if s.dst.is_some() && x.peer.proc != proc => {
                    shm_orphans.push((x.peer.proc, x.req))
                }
                _ => {}
            }
        }
        self.fail_orphans(eager_orphans);
        self.fail_orphans(shm_orphans);
        // Fence every live endpoint's unexpected queue: parked messages
        // from the dead incarnation must never match a future receive.
        let mut purged = 0usize;
        for (i, slot) in self.procs.iter_mut().enumerate() {
            if i != proc.0 as usize {
                purged += slot.endpoint.purge_unexpected_from(proc);
            }
        }
        if purged > 0 {
            self.nodes[node]
                .counters
                .add(Counter::UnexpectedPurged, purged as u64);
        }
    }

    /// Fail the live receivers a crash left waiting on a timerless state.
    fn fail_orphans(&mut self, orphaned: Vec<(ProcId, RequestId)>) {
        for (proc, req) in orphaned {
            let node = self.procs[proc.0 as usize].node;
            self.nodes[node].counters.bump(Counter::RequestsFailed);
            self.notify_app(proc, AppEvent::Failed(req, "peer crashed"));
        }
    }

    // ---- internal helpers shared by ctx & handlers -------------------

    pub(crate) fn alloc_req(&mut self) -> RequestId {
        self.next_req += 1;
        RequestId(self.next_req)
    }

    pub(crate) fn alloc_msg(&mut self) -> MsgId {
        self.next_msg += 1;
        MsgId(self.next_msg)
    }

    pub(crate) fn alloc_pull(&mut self) -> PullId {
        self.next_pull += 1;
        PullId(self.next_pull)
    }

    /// Record one trace event (free when tracing is off).
    #[inline]
    pub(crate) fn emit(&mut self, node: usize, proc: Option<ProcId>, event: TraceEvent) {
        if !self.tracer.is_enabled() {
            return;
        }
        self.tracer.record(TraceRecord {
            time: self.now,
            node,
            proc,
            event,
        });
    }

    /// Submit CPU work on (node, core); sets the core's lane if the core
    /// was idle.
    #[inline(always)]
    pub(crate) fn submit_work(
        &mut self,
        node: usize,
        core: usize,
        priority: Priority,
        duration: SimDuration,
        work: Work,
    ) {
        let completion = self.nodes[node].cores[core].submit(
            self.now,
            CpuWork {
                duration,
                priority,
                payload: work,
            },
        );
        if let Some(at) = completion {
            self.queue.set_lane(node * CORES_PER_NODE + core, at);
        }
    }

    /// Submit work on a process's application core at Task priority.
    #[inline(always)]
    pub(crate) fn submit_proc_work(&mut self, proc: ProcId, duration: SimDuration, work: Work) {
        let p = &self.procs[proc.0 as usize];
        let (node, core) = (p.node, p.core);
        self.submit_work(node, core, Priority::Task, duration, work);
    }

    /// Submit a task of `duration` at Task priority on its owner's core,
    /// sliced into bounded chunks so interrupts and kernel work
    /// interleave during long copies and compute phases.
    pub(crate) fn submit_task(&mut self, duration: SimDuration, then: Task) {
        let slice = Self::COMPUTE_SLICE.min(duration);
        let remaining = duration - slice;
        self.submit_proc_work(then.owner(), slice, Work::Slice { then, remaining });
    }

    /// Submit kernel-context work (pinning, unpinning) on a process's
    /// core: ahead of queued user work, below the bottom half.
    pub(crate) fn submit_kernel_work(&mut self, proc: ProcId, duration: SimDuration, work: Work) {
        let p = &self.procs[proc.0 as usize];
        let (node, core) = (p.node, p.core);
        self.submit_work(node, core, Priority::Kernel, duration, work);
    }

    /// Hand a frame to the fabric; schedules its arrival — twice, when the
    /// fault layer duplicates it — or counts the drop (recovery is the
    /// protocol's problem).
    pub(crate) fn transmit(&mut self, frame: Frame) {
        let src_node = self.procs[frame.src.proc.0 as usize].node;
        let dst_node = self.procs[frame.dst.proc.0 as usize].node;
        assert_ne!(src_node, dst_node, "intra-node traffic uses the shm path");
        let payload = frame.msg.payload_len();
        match self.net.transmit(
            self.now,
            NodeId(src_node as u32),
            NodeId(dst_node as u32),
            payload,
        ) {
            TxOutcome::Delivered(d) => {
                if d.reordered {
                    self.nodes[src_node]
                        .counters
                        .bump(Counter::NetFramesReordered);
                    self.emit(
                        src_node,
                        None,
                        TraceEvent::FaultInjected {
                            kind: FaultKind::Reorder,
                        },
                    );
                }
                if let Some(at2) = d.duplicate_at {
                    self.nodes[src_node]
                        .counters
                        .bump(Counter::NetFramesDuplicated);
                    self.emit(
                        src_node,
                        None,
                        TraceEvent::FaultInjected {
                            kind: FaultKind::Duplicate,
                        },
                    );
                    self.queue.schedule(at2, Event::FrameArrival(frame.clone()));
                }
                self.queue.schedule(d.at, Event::FrameArrival(frame));
            }
            TxOutcome::Dropped(reason) => {
                let (counter, fault) = match reason {
                    simnet::DropReason::RandomLoss => (Counter::NetFramesLost, None),
                    simnet::DropReason::QueueOverflow => (Counter::NetFramesOverflowed, None),
                    simnet::DropReason::BurstLoss => {
                        (Counter::NetFramesBurstLost, Some(FaultKind::BurstLoss))
                    }
                    simnet::DropReason::LinkDown => {
                        (Counter::NetFramesLinkDown, Some(FaultKind::LinkDown))
                    }
                };
                self.nodes[src_node].counters.bump(counter);
                if let Some(kind) = fault {
                    self.emit(src_node, None, TraceEvent::FaultInjected { kind });
                }
            }
        }
    }

    /// Arm a protocol timer.
    #[inline]
    pub(crate) fn arm_timer(&mut self, after: SimDuration, token: TimerToken) -> EventId {
        self.queue.schedule(self.now + after, Event::Timer(token))
    }

    /// Disarm a timer if still pending.
    #[inline]
    pub(crate) fn cancel_timer(&mut self, id: Option<EventId>) {
        cancel_in(&mut self.queue, id);
    }

    /// Deliver an application event, letting the process issue new calls.
    pub(crate) fn notify_app(&mut self, proc: ProcId, event: AppEvent) {
        let idx = proc.0 as usize;
        if self.procs[idx].stopped || self.procs[idx].crashed {
            return;
        }
        let mut app = self.procs[idx].app.take().expect("app present");
        let mut ctx = Ctx::new(self, proc);
        app.on_event(&mut ctx, event);
        self.procs[idx].app = Some(app);
    }

    /// Route MMU-notifier events to the node's driver (if notifiers are
    /// enabled) and restart pinning for any region a transfer still needs.
    pub(crate) fn dispatch_notifier_events(
        &mut self,
        node: usize,
        events: &[simmem::NotifierEvent],
    ) {
        if !self.cfg.use_mmu_notifiers {
            return;
        }
        let mut eager = Vec::new();
        let mut deferred = Vec::new();
        for ev in events {
            let release = ev.cause == simmem::InvalidateCause::Release;
            let n = &mut self.nodes[node];
            // The driver counts the event and its region hits.
            let hit = n.driver.handle_invalidate(&mut n.mem, ev);
            for (rid, pages) in hit {
                if release {
                    // Address-space teardown unpinned inside the event:
                    // there is no next use to defer for.
                    n.counters.add(Counter::NotifierUnpinnedPages, pages);
                    n.counters.add(Counter::UnpinPages, pages);
                    eager.push((rid, pages));
                } else {
                    // The unpin was parked in the deferred queue; the
                    // stale tail is already protocol-invisible.
                    deferred.push((rid, pages));
                }
            }
        }
        for (rid, pages) in eager {
            self.emit(
                node,
                None,
                TraceEvent::NotifierInvalidate { region: rid, pages },
            );
            // In-use regions must repin: restart their pin pass.
            self.restart_pin_pass_if_needed(node, rid);
        }
        for (rid, pages) in deferred {
            self.emit(node, None, TraceEvent::NotifierDefer { region: rid, pages });
            self.restart_pin_pass_if_needed(node, rid);
        }
        // Open a flush epoch the first time something defers; the drain
        // at epoch close batches every hit accumulated until then.
        if self.nodes[node].driver.has_deferred() && !self.nodes[node].epoch_armed {
            self.nodes[node].epoch_armed = true;
            let epoch = self.cfg.notifier_epoch;
            self.arm_timer(epoch, TimerToken::NotifierEpoch(node));
        }
    }

    /// The endpoint address of a process, stamped with its *current*
    /// incarnation. Addresses stored in protocol state across a peer's
    /// crash keep the old stamp, which is exactly what lets the receive
    /// path fence pre-crash traffic.
    #[inline]
    pub(crate) fn addr_of(&self, proc: ProcId) -> EndpointAddr {
        EndpointAddr {
            proc,
            incarnation: self.procs[proc.0 as usize].incarnation,
        }
    }

    /// True when the endpoint this address names no longer exists: the
    /// process is dead, or it restarted and the address carries a stale
    /// incarnation.
    #[inline]
    pub(crate) fn endpoint_gone(&self, addr: EndpointAddr) -> bool {
        let s = &self.procs[addr.proc.0 as usize];
        s.crashed || s.incarnation != addr.incarnation
    }

    /// Frame payload capacity of the fabric.
    #[inline]
    pub(crate) fn frame_payload(&self) -> u64 {
        simnet::frame::max_payload(self.cfg.net.mtu)
    }

    /// Build a control frame.
    #[inline]
    pub(crate) fn frame(&self, src: ProcId, dst: EndpointAddr, msg: WireMsg) -> Frame {
        Frame {
            src: self.addr_of(src),
            dst,
            msg,
        }
    }
}

/// Disarm a timer if still pending, borrowing only the queue (the crash
/// reap cancels while it iterates the transfer table).
#[inline]
fn cancel_in(queue: &mut EventQueue<Event>, timer: Option<EventId>) {
    if let Some(id) = timer {
        queue.cancel(id);
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use simnet::{FaultConfig, FaultProfile};

    use super::*;

    /// Events seen by the processes of a test cluster, in arrival order.
    pub(super) type Seen = Rc<RefCell<Vec<(ProcId, AppEvent)>>>;

    /// A process that only records the events it sees.
    pub(super) struct Recorder(pub ProcId, pub Seen);

    impl Process for Recorder {
        fn start(&mut self, _: &mut Ctx<'_>) {}
        fn on_event(&mut self, _: &mut Ctx<'_>, ev: AppEvent) {
            self.1.borrow_mut().push((self.0, ev));
        }
    }

    /// Add one recording process per entry of `nodes`, on that node.
    pub(super) fn recorders(cl: &mut Cluster, nodes: &[usize]) -> Seen {
        let seen = Seen::default();
        for &node in nodes {
            let id = ProcId(cl.procs.len() as u32);
            cl.add_process(node, Box::new(Recorder(id, seen.clone())));
        }
        seen
    }

    /// The crash reap is where the transfer table's iteration order shows:
    /// a sender dies with two eager reassemblies and two matched
    /// shared-memory receives orphaned at live receivers. Their `Failed`
    /// events arrive eager first, each group in `MsgId` order, not in
    /// process or request order.
    #[test]
    fn crash_orphans_fail_eager_first_each_in_msg_id_order() {
        const BIG: u64 = 4 << 20;
        const EAGER: u64 = 16 * 1024;
        let mut cfg = OpenMxConfig::paper_default();
        // Each eager message's first fragment gets through and the rest
        // never do, so both reassemblies stay open.
        let mut faults = FaultConfig::clean();
        for dst in [1, 2] {
            let first_only = FaultProfile {
                drop_after: Some(1),
                ..FaultProfile::default()
            };
            faults.set_link(0, dst, first_only);
        }
        cfg.net.faults = faults;
        let mut cl = Cluster::new(cfg, 3);
        // The sender, its shared-memory peer, then one eager peer per node.
        let seen = recorders(&mut cl, &[0, 0, 1, 2]);
        let (tx, shm, eager_lo, eager_hi) = (ProcId(0), ProcId(1), ProcId(2), ProcId(3));
        cl.step_until(SimTime::ZERO);
        // Receives go up in the opposite order to the sends' message ids.
        let recv = |ctx: &mut Ctx<'_>, tag, len| {
            let buf = ctx.malloc(len);
            ctx.irecv(tag, !0, buf, len)
        };
        let shm_recvs = cl.drive(shm, |ctx| {
            let late = recv(ctx, 20, BIG);
            [recv(ctx, 10, BIG), late]
        });
        let eager_recvs = [eager_hi, eager_lo].map(|p| cl.drive(p, |ctx| recv(ctx, 1, EAGER)));
        // The large copy-out keeps the first shared-memory message matched
        // while the rest go out; the eager sends take the higher ids.
        cl.drive(tx, |ctx| {
            for (dst, tag, len) in [
                (shm, 10, BIG),
                (shm, 20, BIG),
                (eager_hi, 1, EAGER),
                (eager_lo, 1, EAGER),
            ] {
                let buf = ctx.malloc(len);
                ctx.isend(dst, tag, buf, len);
            }
        });
        let orphans = |cl: &Cluster| {
            let mut eager = 0;
            let mut shm = 0;
            for x in cl.xfers.values() {
                match &x.phase {
                    Phase::EagerRx(_) if x.peer.proc == tx => eager += 1,
                    Phase::Shm(s) if x.proc == tx && s.dst.is_some() => shm += 1,
                    _ => {}
                }
            }
            (eager, shm)
        };
        while orphans(&cl) != (2, 2) {
            let t = cl.next_event_time().expect("both groups open at once");
            cl.step_until(t);
        }
        seen.borrow_mut().clear();
        cl.crash_proc(tx);
        let want: Vec<_> = [(eager_hi, eager_recvs[0]), (eager_lo, eager_recvs[1])]
            .into_iter()
            .chain(shm_recvs.map(|r| (shm, r)))
            .map(|(p, req)| (p, AppEvent::Failed(req, "peer crashed")))
            .collect();
        assert_eq!(*seen.borrow(), want);
    }
}
