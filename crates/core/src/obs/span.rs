//! The span builder: folds the flat trace stream into per-transfer
//! cross-node span trees with critical-path attribution.
//!
//! Every transfer carries its [`MsgId`] through the whole wire protocol
//! (rndv, pull req/reply, eager fragments, acks, notifies), so the
//! sender- and receiver-side [`TraceRecord`]s of one transfer correlate
//! into a single [`XferSpan`] even though they were recorded on different
//! nodes. On top of the raw tree, [`build_spans`] computes a
//! **critical-path attribution**: the transfer's end-to-end latency is
//! partitioned *exactly* — the four components always sum to the span
//! duration — into
//!
//! * `pin_wait` — a protocol action sat queued behind the pin cursor
//!   (between `pin_wait_start` and `pin_wait_end`);
//! * `wire` — waiting on the fabric (the gap ended with a frame arriving
//!   or being served: rndv rx, pull progress, overlap-miss detection,
//!   completion acks);
//! * `retransmit_backoff` — waiting out a retransmission timeout (the gap
//!   ended with a retransmit firing or the retry budget exhausting);
//! * `host_overhead` — everything else (copies, matching, bookkeeping).
//!
//! This is the per-transfer phase breakdown NP-RDMA-style evaluations
//! need: "for this 256 KiB send, how much of the latency was pin wait vs.
//! network vs. backoff?" becomes a field lookup.
//!
//! The module also renders span trees as nested Chrome-trace duration
//! events ([`chrome_spans_json`]) and packages post-mortem dumps for the
//! flight recorder ([`post_mortem_json`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::engine::ProcId;
use crate::obs::counters::{Counter, CounterSet};
use crate::obs::event::{TraceEvent, TraceRecord};
use crate::obs::metrics::Metrics;
use crate::obs::tracer::Tracer;
use crate::wire::MsgId;

/// Critical-path attribution of one transfer's end-to-end latency.
///
/// The four components partition the span exactly:
/// `pin_wait_ns + wire_ns + retransmit_backoff_ns + host_overhead_ns ==`
/// [`XferSpan::duration_ns`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CriticalPath {
    /// Nanoseconds a protocol action waited on the pin cursor.
    pub pin_wait_ns: u64,
    /// Nanoseconds waiting on the fabric.
    pub wire_ns: u64,
    /// Nanoseconds waiting out retransmission timeouts.
    pub retransmit_backoff_ns: u64,
    /// Nanoseconds of host-side work (copies, matching, bookkeeping).
    pub host_overhead_ns: u64,
}

impl CriticalPath {
    /// Sum of all components — equals the span's end-to-end latency.
    pub fn total_ns(&self) -> u64 {
        self.pin_wait_ns + self.wire_ns + self.retransmit_backoff_ns + self.host_overhead_ns
    }
}

/// A child interval of a transfer span (one phase, retransmit chain,
/// pin wait, or pull block).
#[derive(Clone, Debug)]
pub struct ChildSpan {
    /// Phase label (`rndv`, `overlap_window`, `pin_wait`, `pull_block N`,
    /// `notify`, `retransmit_chain`).
    pub name: String,
    /// Start, nanoseconds of virtual time.
    pub start_ns: u64,
    /// End, nanoseconds of virtual time.
    pub end_ns: u64,
    /// Node the interval was observed on (opening record's node).
    pub node: usize,
}

/// One correlated cross-node transfer span.
#[derive(Clone, Debug)]
pub struct XferSpan {
    /// The transfer.
    pub msg: MsgId,
    /// Earliest correlated record, nanoseconds.
    pub start_ns: u64,
    /// Latest correlated record, nanoseconds.
    pub end_ns: u64,
    /// Distinct nodes that contributed records (sorted).
    pub nodes: Vec<usize>,
    /// Process that initiated the transfer (first attributed record's
    /// process).
    pub initiator: Option<ProcId>,
    /// Correlated records folded into this span.
    pub events: usize,
    /// Phase intervals (rndv leg, overlap window, pin waits, pull blocks,
    /// completion, retransmit chains).
    pub children: Vec<ChildSpan>,
    /// Where the latency went.
    pub critical_path: CriticalPath,
}

impl XferSpan {
    /// End-to-end latency in nanoseconds (first to last correlated record).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Is this event kind the *end of a wait on the fabric*? Used to classify
/// inter-event gaps: a gap that ends with one of these was spent on the
/// wire (frame propagation / serving), not on the host.
fn ends_wire_wait(ev: &TraceEvent) -> bool {
    matches!(
        ev,
        TraceEvent::RndvRx { .. }
            | TraceEvent::BlockDone { .. }
            | TraceEvent::SendDone { .. }
            | TraceEvent::OverlapMissTx { .. }
            | TraceEvent::OverlapMissRx { .. }
            | TraceEvent::PacketDrop { .. }
    )
}

/// Is this event kind the *end of a retransmission backoff*? A gap that
/// ends with a retransmit firing (or the retry budget exhausting) was
/// spent waiting out the timeout.
fn ends_backoff_wait(ev: &TraceEvent) -> bool {
    matches!(
        ev,
        TraceEvent::Retransmit { .. } | TraceEvent::RetryExhausted { .. }
    )
}

/// Fold the tracer's flat record stream into per-transfer spans, one per
/// [`MsgId`] observed, sorted by id.
///
/// Correlation is purely by `msg`: records from every node land in the
/// same span. Attribution partitions the span's `[start, end]` into the
/// gaps between its (time-sorted) records and classifies each gap:
/// `pin_wait` while a pin-wait interval is open, otherwise by the kind of
/// the record that ends the gap (see [`CriticalPath`]). Because every
/// nanosecond lands in exactly one class, the components sum to the
/// end-to-end latency by construction.
pub fn build_spans(tracer: &Tracer) -> Vec<XferSpan> {
    // Gather records per transfer, in recorded (time) order.
    let mut per_msg: BTreeMap<MsgId, Vec<&TraceRecord>> = BTreeMap::new();
    for rec in tracer.iter() {
        if let Some(msg) = rec.event.msg() {
            per_msg.entry(msg).or_default().push(rec);
        }
    }

    let mut spans = Vec::with_capacity(per_msg.len());
    for (msg, mut recs) in per_msg {
        recs.sort_by_key(|r| r.time.as_nanos());
        let start_ns = recs[0].time.as_nanos();
        let end_ns = recs[recs.len() - 1].time.as_nanos();

        let mut nodes: Vec<usize> = recs.iter().map(|r| r.node).collect();
        nodes.sort_unstable();
        nodes.dedup();

        // --- critical-path attribution over inter-record gaps ---
        let mut cp = CriticalPath::default();
        let mut open_pin_waits = 0u32;
        for pair in recs.windows(2) {
            let gap = pair[1].time.as_nanos() - pair[0].time.as_nanos();
            match &pair[0].event {
                TraceEvent::PinWaitStart { .. } => open_pin_waits += 1,
                TraceEvent::PinWaitEnd { .. } => open_pin_waits = open_pin_waits.saturating_sub(1),
                _ => {}
            }
            if open_pin_waits > 0 {
                cp.pin_wait_ns += gap;
            } else if ends_wire_wait(&pair[1].event) {
                cp.wire_ns += gap;
            } else if ends_backoff_wait(&pair[1].event) {
                cp.retransmit_backoff_ns += gap;
            } else {
                cp.host_overhead_ns += gap;
            }
        }

        // --- child phase intervals ---
        let mut children = Vec::new();
        let mut rndv_tx: Option<(u64, usize)> = None;
        let mut first_pull_req: Option<u64> = None;
        let mut pin_wait_open: Vec<(u64, usize)> = Vec::new();
        let mut block_open: BTreeMap<u32, (u64, usize)> = BTreeMap::new();
        let mut recv_done: Option<(u64, usize)> = None;
        let mut retrans: Vec<(u64, usize)> = Vec::new();
        for r in &recs {
            let ns = r.time.as_nanos();
            match &r.event {
                TraceEvent::RndvTx { .. } => rndv_tx = Some((ns, r.node)),
                TraceEvent::RndvRx { .. } => {
                    if let Some((t0, node)) = rndv_tx {
                        children.push(ChildSpan {
                            name: "rndv".to_string(),
                            start_ns: t0,
                            end_ns: ns,
                            node,
                        });
                    }
                }
                TraceEvent::PullReq { block, .. } => {
                    if first_pull_req.is_none() {
                        first_pull_req = Some(ns);
                        if let Some((t0, node)) = rndv_tx {
                            children.push(ChildSpan {
                                name: "overlap_window".to_string(),
                                start_ns: t0,
                                end_ns: ns,
                                node,
                            });
                        }
                    }
                    block_open.entry(*block).or_insert((ns, r.node));
                }
                TraceEvent::BlockDone { block, .. } => {
                    if let Some((t0, node)) = block_open.remove(block) {
                        children.push(ChildSpan {
                            name: format!("pull_block {block}"),
                            start_ns: t0,
                            end_ns: ns,
                            node,
                        });
                    }
                }
                TraceEvent::PinWaitStart { .. } => pin_wait_open.push((ns, r.node)),
                TraceEvent::PinWaitEnd { .. } => {
                    if let Some((t0, node)) = pin_wait_open.pop() {
                        children.push(ChildSpan {
                            name: "pin_wait".to_string(),
                            start_ns: t0,
                            end_ns: ns,
                            node,
                        });
                    }
                }
                TraceEvent::RecvDone { .. } => recv_done = Some((ns, r.node)),
                TraceEvent::SendDone { .. } => {
                    if let Some((t0, node)) = recv_done {
                        children.push(ChildSpan {
                            name: "notify".to_string(),
                            start_ns: t0,
                            end_ns: ns,
                            node,
                        });
                    }
                }
                TraceEvent::Retransmit { .. } | TraceEvent::RetryExhausted { .. } => {
                    retrans.push((ns, r.node));
                }
                _ => {}
            }
        }
        if let (Some(&(first, node)), Some(&(last, _))) = (retrans.first(), retrans.last()) {
            children.push(ChildSpan {
                name: format!("retransmit_chain x{}", retrans.len()),
                start_ns: first,
                end_ns: last,
                node,
            });
        }
        children.sort_by_key(|c| (c.start_ns, c.end_ns));

        spans.push(XferSpan {
            msg,
            start_ns,
            end_ns,
            nodes,
            initiator: recs.iter().find_map(|r| r.proc),
            events: recs.len(),
            children,
            critical_path: cp,
        });
    }
    spans
}

/// End-to-end latency percentiles of one process's transfers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ProcLatencyStats {
    /// The initiating process.
    pub proc: ProcId,
    /// Transfers attributed to it.
    pub count: usize,
    /// Median end-to-end latency, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile end-to-end latency, nanoseconds.
    pub p99_ns: u64,
    /// 99.9th-percentile end-to-end latency, nanoseconds.
    pub p999_ns: u64,
}

/// Nearest-rank percentile over a sorted slice.
fn pct(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Per-process p50/p99/p999 end-to-end latency over a span set — the SLO
/// shape: each transfer is attributed to its initiating process.
pub fn per_proc_latency(spans: &[XferSpan]) -> Vec<ProcLatencyStats> {
    let mut per_proc: BTreeMap<ProcId, Vec<u64>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.initiator {
            per_proc.entry(p).or_default().push(s.duration_ns());
        }
    }
    per_proc
        .into_iter()
        .map(|(proc, mut lats)| {
            lats.sort_unstable();
            ProcLatencyStats {
                proc,
                count: lats.len(),
                p50_ns: pct(&lats, 0.50),
                p99_ns: pct(&lats, 0.99),
                p999_ns: pct(&lats, 0.999),
            }
        })
        .collect()
}

/// Nanoseconds → Chrome trace timestamp (microseconds, fractional).
fn ts_us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Render a span set as nested Chrome-trace **duration** events (`B`/`E`
/// pairs): one track group per transfer (`pid` = the `MsgId`), the root
/// span on `tid` 0 and each child phase on its own named thread, so
/// Perfetto shows the overlap window, pin waits and pull blocks as nested
/// bars instead of a dust of instants.
pub fn chrome_spans_json(spans: &[XferSpan]) -> String {
    let mut events: Vec<String> = Vec::new();
    for s in spans {
        let pid = s.msg.0;
        events.push(format!(
            r#"{{"name":"process_name","ph":"M","pid":{pid},"args":{{"name":"xfer {pid}"}}}}"#
        ));
        events.push(format!(
            r#"{{"name":"thread_name","ph":"M","pid":{pid},"tid":0,"args":{{"name":"transfer"}}}}"#
        ));
        let cp = &s.critical_path;
        events.push(format!(
            r#"{{"name":"xfer {pid}","ph":"B","ts":{:.3},"pid":{pid},"tid":0,"args":{{"events":{},"nodes":{},"pin_wait_ns":{},"wire_ns":{},"retransmit_backoff_ns":{},"host_overhead_ns":{}}}}}"#,
            ts_us(s.start_ns),
            s.events,
            s.nodes.len(),
            cp.pin_wait_ns,
            cp.wire_ns,
            cp.retransmit_backoff_ns,
            cp.host_overhead_ns,
        ));
        for (i, c) in s.children.iter().enumerate() {
            let tid = i as u64 + 1;
            events.push(format!(
                r#"{{"name":"thread_name","ph":"M","pid":{pid},"tid":{tid},"args":{{"name":"{}"}}}}"#,
                c.name
            ));
            events.push(format!(
                r#"{{"name":"{}","ph":"B","ts":{:.3},"pid":{pid},"tid":{tid},"args":{{"node":{}}}}}"#,
                c.name,
                ts_us(c.start_ns),
                c.node,
            ));
            events.push(format!(
                r#"{{"name":"{}","ph":"E","ts":{:.3},"pid":{pid},"tid":{tid}}}"#,
                c.name,
                ts_us(c.end_ns),
            ));
        }
        events.push(format!(
            r#"{{"name":"xfer {pid}","ph":"E","ts":{:.3},"pid":{pid},"tid":0}}"#,
            ts_us(s.end_ns),
        ));
    }
    let mut out = String::from("{\"traceEvents\":[");
    out.push_str(&events.join(","));
    out.push_str("]}");
    out
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Package a failure into a post-mortem JSON document: the flight
/// recorder's dump format.
///
/// Contains the failure `reason`, an optional `repro` string (the
/// simtest schedule encoding), a snapshot of `counters` and `metrics`
/// (its `dropped_events` is the tracer's), and the last `last_n`
/// correlated spans (by end time) each with its critical-path breakdown.
/// Works with a disabled tracer too — the dump is then metrics-only
/// (`spans` is empty), which is how chaos jobs (tracing off) still ship
/// state with every failure.
pub fn post_mortem_json(
    reason: &str,
    repro: Option<&str>,
    tracer: &Tracer,
    metrics: &Metrics,
    counters: &CounterSet,
    last_n: usize,
) -> String {
    let mut spans = build_spans(tracer);
    spans.sort_by_key(|s| s.end_ns);
    let tail: Vec<&XferSpan> = spans.iter().rev().take(last_n).collect();

    let mut out = String::from("{");
    let _ = write!(out, "\"reason\":\"{}\",", json_escape(reason));
    match repro {
        Some(r) => {
            let _ = write!(out, "\"repro\":\"{}\",", json_escape(r));
        }
        None => out.push_str("\"repro\":null,"),
    }
    let _ = write!(
        out,
        "\"metrics\":{{\"retransmits\":{},\"overlap_misses\":{},\"overlap_miss_rate\":{:.6},\"dup_frames_rx\":{},\"faults_injected\":{},\"dropped_events\":{},\"pin_bursts\":{},\"rndv_rtts\":{}}},",
        counters.retransmits(),
        counters.get(Counter::OverlapMissRx),
        counters.overlap_miss_rate(),
        counters.duplicates_rx(),
        counters.faults_injected(),
        tracer.dropped(),
        metrics.pin_latency.count(),
        metrics.rndv_rtt.count(),
    );
    let _ = write!(
        out,
        "\"trace\":{{\"records\":{},\"dropped_events\":{}}},",
        tracer.len(),
        tracer.dropped(),
    );
    out.push_str("\"spans\":[");
    let mut first = true;
    // `tail` is newest-first from the rev(); emit oldest-first.
    for s in tail.into_iter().rev() {
        if !first {
            out.push(',');
        }
        first = false;
        let cp = &s.critical_path;
        let _ = write!(
            out,
            "{{\"xfer\":{},\"start_ns\":{},\"end_ns\":{},\"duration_ns\":{},\"events\":{},\"nodes\":{},\"pin_wait_ns\":{},\"wire_ns\":{},\"retransmit_backoff_ns\":{},\"host_overhead_ns\":{},\"children\":[",
            s.msg.0,
            s.start_ns,
            s.end_ns,
            s.duration_ns(),
            s.events,
            s.nodes.len(),
            cp.pin_wait_ns,
            cp.wire_ns,
            cp.retransmit_backoff_ns,
            cp.host_overhead_ns,
        );
        for (i, c) in s.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                json_escape(&c.name),
                c.start_ns,
                c.end_ns,
            );
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::RegionId;
    use crate::wire::PullId;
    use simcore::SimTime;

    fn rec(ns: u64, node: usize, proc: u32, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            time: SimTime::from_nanos(ns),
            node,
            proc: Some(ProcId(proc)),
            event,
        }
    }

    /// A synthetic two-node rendezvous with a pin wait and a retransmit:
    /// checks correlation, child extraction, and that the attribution
    /// partitions the latency exactly.
    #[test]
    fn synthetic_rndv_attribution_is_exact() {
        let mut t = Tracer::enabled(64);
        let msg = MsgId(1);
        let pull = PullId(1);
        t.record(rec(0, 0, 0, TraceEvent::RndvTx { msg, len: 4096 }));
        t.record(rec(1_000, 1, 1, TraceEvent::RndvRx { msg, len: 4096 }));
        t.record(rec(
            1_100,
            1,
            1,
            TraceEvent::PinWaitStart {
                msg,
                region: RegionId(9),
            },
        ));
        t.record(rec(
            1_600,
            1,
            1,
            TraceEvent::PinWaitEnd {
                msg,
                region: RegionId(9),
            },
        ));
        t.record(rec(1_700, 1, 1, TraceEvent::PullReq { msg, block: 0 }));
        t.record(rec(
            4_000,
            1,
            1,
            TraceEvent::Retransmit {
                kind: crate::obs::RetransKind::PullStall,
                id: pull.0,
                msg,
            },
        ));
        t.record(rec(
            5_000,
            1,
            1,
            TraceEvent::BlockDone {
                pull,
                msg,
                block: 0,
            },
        ));
        t.record(rec(5_200, 1, 1, TraceEvent::RecvDone { msg, len: 4096 }));
        t.record(rec(6_000, 0, 0, TraceEvent::SendDone { msg }));

        let spans = build_spans(&t);
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(s.msg, msg);
        assert_eq!(s.nodes, vec![0, 1]);
        assert_eq!(s.events, 9);
        assert_eq!(s.duration_ns(), 6_000);
        let cp = &s.critical_path;
        // Gap classes: 0→1000 wire (rndv_rx), 1000→1100 host, 1100→1600
        // pin wait, 1600→1700 host, 1700→4000 backoff (retransmit),
        // 4000→5000 wire (block_done), 5000→5200 host, 5200→6000 wire
        // (send_done).
        assert_eq!(cp.pin_wait_ns, 500);
        assert_eq!(cp.wire_ns, 1_000 + 1_000 + 800);
        assert_eq!(cp.retransmit_backoff_ns, 2_300);
        assert_eq!(cp.host_overhead_ns, 100 + 100 + 200);
        assert_eq!(cp.total_ns(), s.duration_ns());

        let names: Vec<&str> = s.children.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"rndv"));
        assert!(names.contains(&"overlap_window"));
        assert!(names.contains(&"pin_wait"));
        assert!(names.contains(&"pull_block 0"));
        assert!(names.contains(&"notify"));
        assert!(names.iter().any(|n| n.starts_with("retransmit_chain")));

        let ow = s
            .children
            .iter()
            .find(|c| c.name == "overlap_window")
            .unwrap();
        assert_eq!((ow.start_ns, ow.end_ns), (0, 1_700));
        let pw = s.children.iter().find(|c| c.name == "pin_wait").unwrap();
        assert_eq!((pw.start_ns, pw.end_ns), (1_100, 1_600));
    }

    #[test]
    fn spans_separate_by_xfer_and_ignore_unrelated_events() {
        let mut t = Tracer::enabled(64);
        for i in 0..2 {
            let msg = MsgId(i + 1);
            let base = i * 100;
            t.record(rec(base, 0, 0, TraceEvent::RndvTx { msg, len: 1 }));
            t.record(rec(base + 10, 1, 1, TraceEvent::RndvRx { msg, len: 1 }));
        }
        // Events without a transfer never correlate.
        t.record(rec(5, 0, 0, TraceEvent::CacheMiss));
        let spans = build_spans(&t);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].msg, MsgId(1));
        assert_eq!(spans[1].msg, MsgId(2));
        assert_eq!(spans[0].events, 2);
        assert_eq!(spans[0].critical_path.total_ns(), spans[0].duration_ns());
    }

    #[test]
    fn per_proc_percentiles() {
        let mut t = Tracer::enabled(256);
        for i in 0..100u64 {
            let msg = MsgId(i + 1);
            let base = i * 10_000;
            t.record(rec(base, 0, 0, TraceEvent::RndvTx { msg, len: 1 }));
            // Latencies 1..=100 us.
            t.record(rec(
                base + (i + 1) * 1_000,
                1,
                1,
                TraceEvent::SendDone { msg },
            ));
        }
        let spans = build_spans(&t);
        let stats = per_proc_latency(&spans);
        assert_eq!(stats.len(), 1);
        let s = &stats[0];
        assert_eq!(s.proc, ProcId(0));
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_ns, 50_000);
        assert_eq!(s.p99_ns, 99_000);
        assert_eq!(s.p999_ns, 100_000);
    }

    #[test]
    fn chrome_spans_are_balanced_b_e_pairs() {
        let mut t = Tracer::enabled(64);
        let msg = MsgId(3);
        t.record(rec(0, 0, 0, TraceEvent::RndvTx { msg, len: 1 }));
        t.record(rec(500, 1, 1, TraceEvent::RndvRx { msg, len: 1 }));
        t.record(rec(900, 0, 0, TraceEvent::SendDone { msg }));
        let json = chrome_spans_json(&build_spans(&t));
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(
            json.matches("\"ph\":\"B\"").count(),
            json.matches("\"ph\":\"E\"").count()
        );
        assert!(json.contains("\"pid\":3"));
        assert!(json.contains("\"name\":\"xfer 3\""));
    }

    #[test]
    fn post_mortem_works_without_tracing() {
        let t = Tracer::disabled();
        let (m, c) = (Metrics::new(), CounterSet::default());
        let json = post_mortem_json("invariant violated", Some("repro:abc"), &t, &m, &c, 8);
        assert!(json.starts_with("{\"reason\":\"invariant violated\""));
        assert!(json.contains("\"repro\":\"repro:abc\""));
        assert!(json.contains("\"spans\":[]"));
        assert!(json.ends_with("}"));
    }

    #[test]
    fn post_mortem_keeps_last_n_spans() {
        let mut t = Tracer::enabled(256);
        for i in 0..10u64 {
            let msg = MsgId(i + 1);
            t.record(rec(i * 100, 0, 0, TraceEvent::RndvTx { msg, len: 1 }));
            t.record(rec(i * 100 + 50, 0, 0, TraceEvent::SendDone { msg }));
        }
        let (m, c) = (Metrics::new(), CounterSet::default());
        let json = post_mortem_json("boom", None, &t, &m, &c, 3);
        // Only the 3 newest transfers survive, oldest-first.
        assert!(!json.contains("\"xfer\":7,"));
        assert!(json.contains("\"xfer\":8,"));
        assert!(json.contains("\"xfer\":9,"));
        assert!(json.contains("\"xfer\":10,"));
        let p8 = json.find("\"xfer\":8,").unwrap();
        let p10 = json.find("\"xfer\":10,").unwrap();
        assert!(p8 < p10);
    }
}
