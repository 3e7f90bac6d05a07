//! Two-clock benchmark of the Open-MX reproduction.
//!
//! Each workload is a closed-loop MPI job (every rank posts its next
//! operation only when the previous step completed) run through the
//! public API of `openmx_mpi` and `openmx_core::Cluster`. One run of a
//! workload is an *episode*:
//!
//! 1. set-up — build the rank scripts, `Cluster::new`, `add_process`, and
//!    `Cluster::start`, which mallocs and fills every rank's buffers;
//! 2. run — `Cluster::step_until` until the event queue is empty;
//! 3. verification — request failures, received bytes against the
//!    sender's buffer, and a quiescence check.
//!
//! Every episode yields numbers on two clocks: the simulated clock of the
//! modelled stack ([`Outcome`], bit-deterministic for a given seed) and
//! the host clock of the simulator itself ([`HostTimes`], noisy). The
//! host-clock phases are recorded as [`Spans`] around the calls into each
//! layer; [`replay`] times the layers the engine calls internally.

pub mod probe;
pub mod replay;

use std::time::Instant;

use openmx_core::engine::{Cluster, ProcId};
use openmx_core::{build_spans, OpenMxConfig, PinningMode};
use openmx_mpi::imb::rank_node;
use openmx_mpi::{
    imb_job, new_recorder, summarize, ImbKernel, JobBuilder, Op, Script, ScriptProcess,
};
use simcore::{SimDuration, SimTime};

/// The benchmark's workloads. All run in overlapped+cache mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// IMB PingPong, 16 MiB, 2 ranks on 2 nodes, clean fabric: the
    /// pull-reply byte path (simnet frames, bottom half, simmem copies)
    /// with the driver and cache idle after warm-up — Fig. 7's top point.
    PingPong16m,
    /// 256 KiB pingpong whose buffers are freed and re-malloced every
    /// iteration. 256 KiB is above the heap's mmap threshold, so each
    /// iteration runs munmap → MMU notifier → deferred unpin → cache miss
    /// → re-declare → re-pin: the invalidation path instead of the hit path.
    ReallocChurn256k,
    /// IMB SendRecv ring, 4 KiB, 4 ranks on 2 nodes, 1% random loss drawn
    /// from the seed: eager path only, zero pinning, and the only workload
    /// that reaches the retransmission timers.
    SendRecv4kLossy,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::PingPong16m,
        Workload::ReallocChurn256k,
        Workload::SendRecv4kLossy,
    ];

    /// Name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PingPong16m => "pingpong_16m",
            Workload::ReallocChurn256k => "realloc_churn_256k",
            Workload::SendRecv4kLossy => "sendrecv_4k_lossy",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Message size in bytes.
    pub fn msg_bytes(self) -> u64 {
        match self {
            Workload::PingPong16m => 16 << 20,
            Workload::ReallocChurn256k => 256 << 10,
            Workload::SendRecv4kLossy => 4 << 10,
        }
    }

    /// Timed iterations of one episode: each episode runs about a second
    /// of host time, so per-episode timer and scheduling noise stays small.
    pub fn iters(self) -> u32 {
        match self {
            Workload::PingPong16m => 48,
            Workload::ReallocChurn256k => 4000,
            Workload::SendRecv4kLossy => 40_000,
        }
    }

    /// Untimed warm-up iterations before the barrier, as IMB runs them.
    pub const WARMUP: u32 = 2;

    fn ranks(self) -> usize {
        match self {
            Workload::PingPong16m | Workload::ReallocChurn256k => 2,
            Workload::SendRecv4kLossy => 4,
        }
    }

    fn nodes_and_ppn(self) -> (usize, usize) {
        match self {
            Workload::PingPong16m | Workload::ReallocChurn256k => (2, 1),
            Workload::SendRecv4kLossy => (2, 2),
        }
    }

    /// The stack configuration for `seed`.
    pub fn config(self, seed: u64) -> OpenMxConfig {
        let mut cfg = OpenMxConfig::with_mode(PinningMode::OverlappedCached);
        cfg.seed = seed;
        if self == Workload::SendRecv4kLossy {
            cfg.net.loss_probability = 0.01;
        }
        cfg
    }

    /// Build the rank scripts for `iters` timed iterations.
    pub fn job(self, iters: u32) -> Job {
        let msg = self.msg_bytes();
        let (scripts, mark, checks) = match self {
            Workload::PingPong16m => {
                let (scripts, mark) = imb_job(ImbKernel::PingPong, 2, msg, Self::WARMUP, iters);
                // Rank 1 receives into buffer 0, rank 0 into buffer 1.
                (scripts, mark, vec![(1, 0, 0, 0), (0, 1, 1, 1)])
            }
            Workload::ReallocChurn256k => {
                let mut b = JobBuilder::new(2);
                let a = b.alloc(msg, |r| Some(r as u8));
                let bb = b.alloc(msg, |r| Some(0x40 | r as u8));
                for _ in 0..Self::WARMUP {
                    b.pingpong(a, bb, msg);
                }
                b.barrier();
                let mark = b.mark();
                // Realloc before the round trip, so the buffers checked at
                // the end hold the last transfer. The fresh pages are
                // zero; a stale pin would still carry the salted warm-up
                // bytes and show up as a mismatch.
                for _ in 0..iters {
                    b.realloc_all(a);
                    b.realloc_all(bb);
                    b.pingpong(a, bb, msg);
                }
                (b.scripts, mark, vec![(1, a, 0, a), (0, bb, 1, bb)])
            }
            Workload::SendRecv4kLossy => {
                let n = self.ranks();
                let (scripts, mark) = imb_job(ImbKernel::SendRecv, n, msg, Self::WARMUP, iters);
                // Each rank receives its left neighbour's buffer 0 into
                // its own buffer 1.
                let checks = (0..n).map(|r| (r, 1, (r + n - 1) % n, 0)).collect();
                (scripts, mark, checks)
            }
        };
        let checks = checks
            .into_iter()
            .map(|(recv_rank, recv_buf, send_rank, send_buf)| BufCheck {
                recv_rank,
                recv_buf,
                send_rank,
                send_buf,
                len: msg,
            })
            .collect();
        Job {
            scripts,
            mark,
            ppn: self.nodes_and_ppn().1,
            checks,
        }
    }
}

/// One receive buffer that must equal its sender's buffer after the run.
#[derive(Clone, Copy, Debug)]
pub struct BufCheck {
    recv_rank: usize,
    recv_buf: usize,
    send_rank: usize,
    send_buf: usize,
    len: u64,
}

/// A built job: per-rank scripts, the step where timing starts, and the
/// buffers to verify.
pub struct Job {
    /// Per-rank programs.
    pub scripts: Vec<Script>,
    /// Index of the first timed step.
    pub mark: usize,
    /// Ranks per node.
    ppn: usize,
    checks: Vec<BufCheck>,
}

impl Job {
    /// Requests the job posts: every send and receive of every rank.
    pub fn requests(&self) -> u64 {
        self.ops()
            .filter(|op| !matches!(op, Op::Compute { .. } | Op::Realloc { .. }))
            .count() as u64
    }

    /// Bytes the job's sends carry across the fabric; sends between ranks
    /// of one node go through shared memory instead.
    pub fn fabric_message_bytes(&self) -> u64 {
        let ppn = self.ppn;
        self.scripts
            .iter()
            .enumerate()
            .flat_map(|(rank, s)| {
                s.steps
                    .iter()
                    .flat_map(|st| st.ops.iter())
                    .map(move |op| match op {
                        Op::Send { to, len, .. } if to / ppn != rank / ppn => *len,
                        _ => 0,
                    })
            })
            .sum()
    }

    fn ops(&self) -> impl Iterator<Item = &Op> {
        self.scripts
            .iter()
            .flat_map(|s| s.steps.iter().flat_map(|st| st.ops.iter()))
    }
}

/// Everything an episode produces on the simulated clock, plus every
/// count. For a given workload and seed it is bit-identical from run to
/// run; on the clean fabrics it does not depend on the seed at all.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Outcome {
    /// Simulated time per timed iteration, IMB-style (max over ranks), ns.
    pub virt_iter_ns: u64,
    /// Simulated time from the start to quiescence, ns.
    pub virt_total_ns: u64,
    /// Simulated instant the timed window opened, ns.
    pub window_start_ns: u64,
    /// Events dispatched (sum of `step_until` returns).
    pub events: u64,
    /// Deepest event queue seen between `step_until` calls.
    pub pending_peak: u64,
    /// Requests posted.
    pub requests: u64,
    /// Bytes the sends carried across the fabric.
    pub fabric_message_bytes: u64,
    /// Failed requests plus ranks that never finished.
    pub failures: u64,
    /// Receive buffers whose bytes differ from the sender's buffer.
    pub mismatches: u64,
    /// Failed quiescence checks.
    pub quiescence_failures: u64,
    /// Engine counters merged over the cluster, by name.
    pub counters: Vec<(&'static str, u64)>,
    /// simnet: frames handed to the fabric.
    pub frames_sent: u64,
    /// simnet: frames lost at random.
    pub frames_lost: u64,
    /// simnet: payload bytes delivered.
    pub payload_bytes: u64,
    /// driver: notifier events handled, summed over nodes.
    pub notifier_events: u64,
    /// driver: invalidation hits whose unpin was deferred.
    pub notifier_deferred: u64,
    /// driver: deferred unpins that dissolved before the drain.
    pub notifier_cancelled: u64,
    /// driver: batched drains of the deferred queue.
    pub drain_batches: u64,
    /// cache: lookups answered from the region cache.
    pub cache_hits: u64,
    /// cache: lookups that declared a fresh region.
    pub cache_misses: u64,
    /// simmem: `pin_user_pages*` calls.
    pub pin_calls: u64,
    /// simmem: `unpin_pages*` calls.
    pub unpin_calls: u64,
}

impl Outcome {
    /// Engine counter `name` (zero if never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Failed requests, mismatched receives and failed quiescence checks.
    pub fn errors(&self) -> u64 {
        self.failures + self.mismatches + self.quiescence_failures
    }
}

/// Critical-path components of the transfers that started inside the
/// timed window, summed (ns of simulated time), from `obs::build_spans`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CritSums {
    /// Waiting on the pin cursor.
    pub pin_wait_ns: u64,
    /// Waiting on the fabric.
    pub wire_ns: u64,
    /// Waiting out retransmission timeouts.
    pub retransmit_backoff_ns: u64,
    /// Host-side work.
    pub host_overhead_ns: u64,
}

/// What a traced episode adds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Traced {
    /// Critical-path sums over the timed window.
    pub crit: CritSums,
    /// Trace records the ring overwrote.
    pub dropped: u64,
    /// Trace records kept.
    pub records: u64,
}

/// Host seconds of each episode phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostTimes {
    /// Building the rank scripts (`imb_job` / `JobBuilder`).
    pub build_s: f64,
    /// `Cluster::new`.
    pub new_s: f64,
    /// `Cluster::add_process` for every rank.
    pub add_s: f64,
    /// `Cluster::start`: malloc and fill of every rank's buffers.
    pub start_s: f64,
    /// `step_until` from after `start` to quiescence.
    pub run_s: f64,
}

impl HostTimes {
    /// The set-up phase: scripts, cluster, processes and start.
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.new_s + self.add_s + self.start_s
    }
}

/// One episode's results.
#[derive(Clone, Debug)]
pub struct Episode {
    /// Simulated-clock results and counts.
    pub outcome: Outcome,
    /// Host-clock phase times.
    pub host: HostTimes,
    /// Trace-derived results, when the episode was traced.
    pub traced: Option<Traced>,
}

/// How far past the next event each `step_until` call reaches: small
/// enough to sample the queue depth often, large enough that most calls
/// dispatch several events.
const STEP: SimDuration = SimDuration::from_micros(10);

/// Run one episode of `w`. With `trace_capacity`, the engine records into
/// a trace ring of that many records and the critical path is computed.
pub fn run_episode(
    w: Workload,
    seed: u64,
    trace_capacity: Option<usize>,
    spans: &mut Spans,
) -> Episode {
    let episode = spans.enter("episode");
    let mut host = HostTimes::default();

    let s = spans.enter("mpi.build");
    let iters = w.iters();
    let job = w.job(iters);
    host.build_s = spans.exit(s);

    let (nodes, ppn) = w.nodes_and_ppn();
    let s = spans.enter("engine.new");
    let mut cl = Cluster::new(w.config(seed), nodes);
    host.new_s = spans.exit(s);

    let requests = job.requests();
    let fabric_message_bytes = job.fabric_message_bytes();
    let Job {
        scripts,
        mark,
        checks,
        ..
    } = job;
    let ranks = scripts.len();
    let recorder = new_recorder(ranks);
    let ids: Vec<ProcId> = (0..ranks as u32).map(ProcId).collect();
    let s = spans.enter("engine.add_process");
    for (rank, script) in scripts.into_iter().enumerate() {
        let p = ScriptProcess::new(rank, ids.clone(), script, recorder.clone());
        let pid = cl.add_process(rank_node(rank, ppn), Box::new(p));
        assert_eq!(pid, ids[rank], "ranks map to process ids in order");
    }
    host.add_s = spans.exit(s);

    if let Some(cap) = trace_capacity {
        cl.enable_trace_with_capacity(cap);
    }
    let s = spans.enter("engine.start");
    cl.start();
    host.start_s = spans.exit(s);

    let s = spans.enter("engine.run");
    let mut events = 0u64;
    let mut pending_peak = cl.pending_events() as u64;
    while let Some(t) = cl.next_event_time() {
        events += cl.step_until(t + STEP) as u64;
        pending_peak = pending_peak.max(cl.pending_events() as u64);
    }
    host.run_s = spans.exit(s);

    let s = spans.enter("verify");
    let records = recorder.borrow().clone();
    let mut failures = 0u64;
    for rec in &records {
        failures += rec.failures.len() as u64 + u64::from(rec.finished.is_none());
    }
    let mut mismatches = 0u64;
    for c in &checks {
        let recv_addr = records[c.recv_rank].buffer_addrs[c.recv_buf];
        let send_addr = records[c.send_rank].buffer_addrs[c.send_buf];
        let got = cl.read_proc(ids[c.recv_rank], recv_addr, c.len);
        let want = cl.read_proc(ids[c.send_rank], send_addr, c.len);
        mismatches += u64::from(got != want);
    }
    let mut quiescence_failures =
        u64::from(cl.inflight_xfers() != 0) + u64::from(cl.pending_events() != 0);
    for node in 0..cl.node_count() {
        let driver = cl.driver(node).pinned_pages_total();
        let frames = cl.memory(node).frames().pinned_pages() as u64;
        quiescence_failures += u64::from(driver != frames);
    }
    let (virt_iter_ns, window_start_ns) = if failures == 0 {
        let res = summarize(&records, mark, iters);
        let start = records
            .iter()
            .map(|r| r.step_done[mark - 1])
            .max()
            .expect("at least one rank");
        (
            res.avg_iter.as_nanos(),
            start.duration_since(SimTime::ZERO).as_nanos(),
        )
    } else {
        (0, 0)
    };

    let mut counters: Vec<(&'static str, u64)> = cl.counters().iter().collect();
    counters.sort_unstable();
    let net = cl.net_stats();
    let mut outcome = Outcome {
        virt_iter_ns,
        virt_total_ns: cl.now().duration_since(SimTime::ZERO).as_nanos(),
        window_start_ns,
        events,
        pending_peak,
        requests,
        fabric_message_bytes,
        failures,
        mismatches,
        quiescence_failures,
        counters,
        frames_sent: net.frames_sent,
        frames_lost: net.frames_lost,
        payload_bytes: net.payload_bytes_delivered,
        ..Outcome::default()
    };
    for node in 0..cl.node_count() {
        let d = cl.driver(node).stats();
        outcome.notifier_events += d.notifier_events;
        outcome.notifier_deferred += d.notifier_deferred;
        outcome.notifier_cancelled += d.notifier_cancelled;
        outcome.drain_batches += d.notifier_drain_batches;
        outcome.pin_calls += cl.memory(node).pin_calls();
        outcome.unpin_calls += cl.memory(node).unpin_calls();
    }
    for &id in &ids {
        let c = cl.cache_stats(id);
        outcome.cache_hits += c.hits;
        outcome.cache_misses += c.misses;
    }
    spans.exit(s);

    let traced = trace_capacity.map(|_| {
        let s = spans.enter("obs.build_spans");
        let xfer_spans = build_spans(cl.tracer());
        spans.exit(s);
        let mut crit = CritSums::default();
        for x in xfer_spans.iter().filter(|x| x.start_ns >= window_start_ns) {
            let cp = x.critical_path;
            crit.pin_wait_ns += cp.pin_wait_ns;
            crit.wire_ns += cp.wire_ns;
            crit.retransmit_backoff_ns += cp.retransmit_backoff_ns;
            crit.host_overhead_ns += cp.host_overhead_ns;
        }
        Traced {
            crit,
            dropped: cl.tracer().dropped(),
            records: cl.tracer().len() as u64,
        }
    });

    // Tear the cluster down inside the episode span, so its frames are
    // freed before the next episode allocates.
    drop(cl);
    spans.exit(episode);
    Episode {
        outcome,
        host,
        traced,
    }
}

/// One recorded host-clock span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Phase name, `layer.call`.
    pub name: &'static str,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

/// In-memory recorder of host-clock spans around calls into the layers.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` inside the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one. Returns its
    /// duration in seconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 / 1e9
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per name: span count, total ns, and self ns (total minus the time
    /// covered by child spans), in order of first appearance.
    pub fn summary(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = s.end_ns - s.start_ns;
            let own = total.saturating_sub(child_ns[i]);
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += total;
                    r.3 += own;
                }
                None => rows.push((s.name, 1, total, own)),
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn span_self_time_excludes_children() {
        let mut spans = Spans::new();
        let outer = spans.enter("outer");
        let inner = spans.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        spans.exit(inner);
        spans.exit(outer);
        let rows = spans.summary();
        let (_, n, total, own) = rows[0];
        assert_eq!(n, 1);
        assert!(own < total, "outer self time excludes inner");
        assert_eq!(spans.spans()[inner].parent, Some(outer));
    }

    #[test]
    fn job_counts_requests_and_bytes() {
        let job = Workload::PingPong16m.job(3);
        // 5 round trips (2 warm-up + 3 timed) of one send and one receive
        // each way, plus the barrier's messages.
        assert!(job.requests() >= 5 * 4);
        assert!(job.fabric_message_bytes() >= 5 * 2 * (16 << 20));
        // Two of the ring's four hops stay inside a node.
        let ring = Workload::SendRecv4kLossy.job(10);
        let all: u64 = ring
            .ops()
            .map(|op| match op {
                Op::Send { len, .. } => *len,
                _ => 0,
            })
            .sum();
        let fabric = ring.fabric_message_bytes();
        assert!(fabric >= 12 * 2 * 4096 && fabric < all, "{fabric} of {all}");
    }
}
