//! Crash fault-domain regressions: transfers touching a dead peer must
//! reach a clean `Failed` completion through the watchdog short-circuit,
//! never hang in retry loops, and frames from dead incarnations must be
//! fenced at arrival.

use std::cell::RefCell;
use std::rc::Rc;

use openmx_core::engine::{AppEvent, Cluster, Ctx, OverlapHint, ProcId, Process};

use openmx_core::{Counter, OpenMxConfig, PinningMode, RequestId, TraceEvent};
use simcore::{SimDuration, SimTime};

type StartFn = Box<dyn FnMut(&mut Ctx<'_>)>;
type EventFn = Box<dyn FnMut(&mut Ctx<'_>, AppEvent)>;

struct Closures {
    start: StartFn,
    event: EventFn,
}
impl Process for Closures {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        (self.start)(ctx)
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        (self.event)(ctx, ev)
    }
}

fn proc_of(
    start: impl FnMut(&mut Ctx<'_>) + 'static,
    event: impl FnMut(&mut Ctx<'_>, AppEvent) + 'static,
) -> Box<dyn Process> {
    Box::new(Closures {
        start: Box::new(start),
        event: Box::new(event),
    })
}

fn idle() -> Box<dyn Process> {
    proc_of(|_| {}, |_, _| {})
}

/// `run` audits before it returns: a page pinned behind the driver's
/// back fails the run.
#[test]
#[should_panic(expected = "pin accounting")]
fn run_panics_on_a_pin_leaked_behind_the_drivers_back() {
    let mut cl = Cluster::new(OpenMxConfig::paper_default(), 1);
    let proc = cl.add_process(0, idle());
    let addr = cl.vm_mmap(proc, simmem::PAGE_SIZE);
    let space = cl.space_of(proc);
    cl.memory_mut(0)
        .pin_user_pages(space, addr, simmem::PAGE_SIZE)
        .expect("pin a mapped page");
    cl.run(None);
}

/// A running core is pending work. Under pin-per-comm a rendezvous send
/// pins its whole buffer before the rendezvous goes out, so from the
/// syscall until then the sender's core is the only thing running: no
/// frame, no timer. At each of those instants one completion is pending
/// and due, the audit does not treat the cluster as quiescent although
/// the transfer and its pin plan are in flight, and `step_until` counts
/// the completion as one event.
#[test]
fn a_running_core_is_pending_work() {
    const LEN: u64 = 1 << 20;
    let mut cl = Cluster::new(OpenMxConfig::with_mode(PinningMode::PinPerComm), 2);
    let tx = cl.add_process(0, idle());
    cl.add_process(1, idle());
    cl.step_until(SimTime::ZERO);
    assert_eq!(cl.pending_events(), 0);
    cl.drive(tx, |ctx| {
        let buf = ctx.malloc(LEN);
        ctx.isend(ProcId(1), 1, buf, LEN);
    });
    let mut in_flight_steps = 0;
    while cl.frames_in_flight().is_empty() {
        assert_eq!(cl.pending_events(), 1, "only the sender's core runs");
        let t = cl
            .next_event_time()
            .expect("a running core is pending work");
        assert!(t > cl.now());
        assert_eq!(cl.audit().violations, vec![], "no quiescence laws at {t:?}");
        in_flight_steps += usize::from(cl.inflight_xfers() > 0);
        assert_eq!(cl.step_until(t), 1, "one core completion at {t:?}");
    }
    assert!(in_flight_steps >= 2, "{in_flight_steps} pin chunks ran");
}

/// Regression: a rendezvous sender whose peer dies between the rndv
/// notify and the first pull request used to grind through the full
/// retry budget before erroring. The rndv watchdog must now observe the
/// dead endpoint on its first fire and short-circuit to a clean failure.
#[test]
fn rndv_sender_short_circuits_when_peer_dies_before_pull() {
    const LEN: u64 = 256 * 1024;
    let failures: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
    let failures2 = failures.clone();

    let mut cl = Cluster::new(OpenMxConfig::with_mode(PinningMode::Cached), 2);
    cl.add_process(
        0,
        proc_of(
            |ctx| {
                let buf = ctx.malloc(LEN);
                ctx.write_buf(buf, &vec![0xab; LEN as usize]);
                ctx.isend(ProcId(1), 7, buf, LEN);
            },
            move |ctx, ev| match ev {
                AppEvent::Failed(_, reason) => {
                    failures2.borrow_mut().push(reason.to_string());
                    ctx.stop();
                }
                AppEvent::SendDone(_) => panic!("send to a dead peer must not complete"),
                _ => {}
            },
        ),
    );
    // The receiver never posts a matching recv, so no pull ever starts.
    cl.add_process(1, idle());

    // Let the rendezvous go on the wire, then kill the receiver.
    cl.step_until(SimTime::from_nanos(200_000));
    cl.crash_proc(ProcId(1));
    let end = cl.run(Some(SimTime::from_nanos(60_000_000_000)));

    assert_eq!(
        failures.borrow().as_slice(),
        ["peer crashed"],
        "sender must observe exactly one clean peer-crash failure"
    );
    let c = cl.counters();
    assert!(
        c.get(Counter::PeerDeadAborts) >= 1,
        "watchdog short-circuit"
    );
    assert_eq!(c.get(Counter::RequestsFailed), 1);
    assert!(
        c.get(Counter::RndvRetrans) <= 1,
        "short-circuit must not burn the retry budget ({} retrans)",
        c.get(Counter::RndvRetrans)
    );
    assert!(
        end < SimTime::from_nanos(5_000_000_000),
        "failure must land in watchdog time, not retry-exhaustion time (at {end:?})"
    );
}

/// An eager frame racing a crash is fenced at arrival (the dead
/// incarnation must not receive it), and the unacked sender is failed by
/// the eager watchdog instead of retransmitting forever.
#[test]
fn eager_frame_racing_a_crash_is_fenced_and_sender_aborts() {
    const LEN: u64 = 2048;
    let failures: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
    let failures2 = failures.clone();

    let mut cl = Cluster::new(OpenMxConfig::with_mode(PinningMode::Cached), 2);
    cl.add_process(
        0,
        proc_of(
            |ctx| {
                let buf = ctx.malloc(LEN);
                ctx.write_buf(buf, &vec![0x5a; LEN as usize]);
                ctx.isend(ProcId(1), 9, buf, LEN);
            },
            move |ctx, ev| {
                if let AppEvent::Failed(_, reason) = ev {
                    failures2.borrow_mut().push(reason.to_string());
                    ctx.stop();
                }
            },
        ),
    );
    cl.add_process(1, idle());

    // Crash while the eager frame is still in flight: it must be fenced
    // at arrival, so the ack never comes back.
    cl.step_until(SimTime::from_nanos(500));
    cl.crash_proc(ProcId(1));
    cl.run(Some(SimTime::from_nanos(60_000_000_000)));

    assert_eq!(failures.borrow().as_slice(), ["peer crashed"]);
    let c = cl.counters();
    assert!(
        c.get(Counter::FramesFenced) >= 1,
        "in-flight frame must be fenced at the dead endpoint"
    );
    assert!(c.get(Counter::PeerDeadAborts) >= 1);
}

/// Everything a receive-buffer-freed-mid-pull run leaves behind.
struct FreedMidPull {
    cl: Cluster,
    recv_req: RequestId,
    /// Every event the receiver and the sender saw, in order.
    rx_seen: Vec<AppEvent>,
    tx_seen: Vec<AppEvent>,
}

/// Post a 1 MiB rendezvous receive on an I/OAT cluster, step `instants`
/// distinct event times into the transfer, then free the (mmap-backed)
/// receive buffer and run to quiescence.
fn free_ioat_receive_buffer_after(instants: usize) -> FreedMidPull {
    const LEN: u64 = 1 << 20;
    let rx_seen: Rc<RefCell<Vec<AppEvent>>> = Rc::new(RefCell::new(Vec::new()));
    let tx_seen: Rc<RefCell<Vec<AppEvent>>> = Rc::new(RefCell::new(Vec::new()));
    let (rx_seen2, tx_seen2) = (rx_seen.clone(), tx_seen.clone());

    let mut cfg = OpenMxConfig::with_mode(PinningMode::Cached);
    cfg.use_ioat = true;
    let mut cl = Cluster::new(cfg, 2);
    cl.add_process(
        0,
        proc_of(
            |ctx| {
                let buf = ctx.malloc(LEN);
                ctx.write_buf(buf, &vec![0xc3; LEN as usize]);
                ctx.isend(ProcId(1), 5, buf, LEN);
            },
            move |_, ev| tx_seen2.borrow_mut().push(ev),
        ),
    );
    let rx = cl.add_process(
        1,
        proc_of(|_| {}, move |_, ev| rx_seen2.borrow_mut().push(ev)),
    );
    cl.step_until(SimTime::ZERO);
    let (buf, recv_req) = cl.drive(rx, |ctx| {
        let buf = ctx.malloc(LEN);
        (buf, ctx.irecv(5, !0, buf, LEN))
    });
    for _ in 0..instants {
        let Some(t) = cl.next_event_time() else { break };
        cl.step_until(t);
    }
    cl.drive(rx, |ctx| ctx.free(buf));
    cl.run(Some(SimTime::from_nanos(600_000_000_000)));
    let rx_seen = rx_seen.borrow().clone();
    let tx_seen = tx_seen.borrow().clone();
    FreedMidPull {
        cl,
        recv_req,
        rx_seen,
        tx_seen,
    }
}

/// Freeing the receive buffer while an I/OAT copy into it is parked: the
/// copy lands on an invalidated region (`ioat_landing_miss`, the one path
/// that marks a received frame missing again), and the transfer still
/// ends cleanly. Whether a copy is parked at a given instant depends on
/// the timing model, so the test walks the transfer instant by instant
/// and frees at each one until a landing miss happens; every run, hit or
/// not, must end in exactly one completion or clean failure per side
/// and leave nothing in flight.
#[test]
fn receive_buffer_freed_under_parked_ioat_copy_fails_cleanly() {
    let mut hit = None;
    for instants in 0..400 {
        let run = free_ioat_receive_buffer_after(instants);
        assert!(
            matches!(
                run.rx_seen.as_slice(),
                [AppEvent::RecvDone(r, _) | AppEvent::Failed(r, _)] if *r == run.recv_req
            ),
            "free after {instants} instants: receiver saw {:?}",
            run.rx_seen
        );
        assert!(
            matches!(
                run.tx_seen.as_slice(),
                [AppEvent::SendDone(_) | AppEvent::Failed(_, _)]
            ),
            "free after {instants} instants: sender saw {:?}",
            run.tx_seen
        );
        // The queue drained, so the run's audit checked for leaked transfers.
        assert_eq!(run.cl.pending_events(), 0, "free after {instants} instants");
        if run.cl.counters().get(Counter::IoatLandingMiss) > 0 {
            hit = Some(run);
            break;
        }
    }
    let run = hit.expect("no free instant caught a parked I/OAT copy");
    assert!(
        matches!(run.rx_seen.as_slice(), [AppEvent::Failed(..)]),
        "the receive lost its buffer, so it must fail: {:?}",
        run.rx_seen
    );
    let failed = run
        .rx_seen
        .iter()
        .chain(&run.tx_seen)
        .filter(|ev| matches!(ev, AppEvent::Failed(..)))
        .count();
    assert_eq!(
        run.cl.counters().get(Counter::RequestsFailed),
        failed as u64
    );
}

/// The message the second-pull scenarios move (four 64 KiB pull blocks).
const LEN_2ND: u64 = 256 * 1024;
const TAG_2ND: u64 = 5;

/// Run a second-pull scenario on a traced two-node cluster whose
/// processes only record their events: `script` posts every operation
/// through [`Cluster::drive`] (sender on node 0, receiver on node 1) and
/// returns the receive whose pull fails. Then check that each request
/// completed once: all `sends` succeeded, that receive failed for
/// `reason`, and the one posted behind it received the message.
fn second_pull(
    cfg: OpenMxConfig,
    sends: usize,
    reason: &str,
    script: impl FnOnce(&mut Cluster, ProcId, ProcId) -> RequestId,
) -> Cluster {
    let seen: Rc<RefCell<[Vec<AppEvent>; 2]>> = Rc::default();
    let mut cl = Cluster::new(cfg, 2);
    cl.enable_trace();
    for node in 0..2 {
        let seen = seen.clone();
        let record = move |_: &mut Ctx<'_>, ev| seen.borrow_mut()[node].push(ev);
        cl.add_process(node, proc_of(|_| {}, record));
    }
    cl.step_until(SimTime::ZERO);
    let first = script(&mut cl, ProcId(0), ProcId(1));
    cl.run(Some(SimTime::from_nanos(60_000_000_000)));
    let [tx_seen, rx_seen] = &*seen.borrow();
    assert!(
        tx_seen.len() == sends && tx_seen.iter().all(|ev| matches!(ev, AppEvent::SendDone(_))),
        "sender saw {tx_seen:?}"
    );
    assert!(
        rx_seen.len() == sends + 1
            && matches!(
                rx_seen.as_slice(),
                [.., AppEvent::Failed(r, why), AppEvent::RecvDone(_, LEN_2ND)]
                    if *r == first && *why == reason
            ),
        "receiver saw {rx_seen:?}"
    );
    // The queue drained, so the run's audit checked for leaked transfers.
    assert_eq!(cl.pending_events(), 0);
    cl
}

/// When the receiver's node traced the events `is` picks, in order.
fn rx_times(cl: &Cluster, is: impl Fn(&TraceEvent) -> bool) -> Vec<SimTime> {
    let rx = cl.tracer().iter().filter(|r| r.node == 1 && is(&r.event));
    rx.map(|r| r.time).collect()
}

/// Post the `LEN_2ND` rendezvous send.
fn send_2nd(ctx: &mut Ctx<'_>, hint: OverlapHint) {
    let buf = ctx.malloc(LEN_2ND);
    ctx.write_buf(buf, &vec![0x7e; LEN_2ND as usize]);
    ctx.isend_hinted(ProcId(1), TAG_2ND, buf, LEN_2ND, hint);
}

/// A receive fails after its pull requests went out; the rendezvous the
/// sender retransmitted before those requests reached it then starts a
/// second pull for the same `MsgId` (into a second posted receive),
/// which exists when the dead pull's replies arrive. Every one of those
/// replies is stale and lands nothing: the second pull places each frame
/// once, from its own replies.
#[test]
fn a_failed_pulls_late_replies_are_stale_for_its_successor() {
    let mut cfg = OpenMxConfig::with_mode(PinningMode::Cached);
    // Fixed 10 ms timers over a 1 ms link. The rendezvous goes out again
    // at ~10 ms, while the first pull's requests (sent at ~9.5 ms) are
    // still on the wire; it reaches the receiver at ~11 ms, after the
    // first pull failed (~9.9 ms) and before its replies (~11.5 ms).
    cfg.adaptive_retransmit = false;
    cfg.retransmit_timeout = SimDuration::from_millis(10);
    cfg.net.latency = SimDuration::from_millis(1);
    let block_frames = (cfg.pull_block).div_ceil(simnet::frame::max_payload(cfg.net.mtu));
    let window_frames = cfg.pull_window as u64 * block_frames;
    let total_frames = LEN_2ND.div_ceil(cfg.pull_block) * block_frames;
    let cl = second_pull(cfg, 1, "pinning failed (invalid region)", |cl, tx, rx| {
        cl.drive(tx, |ctx| send_2nd(ctx, OverlapHint::Auto));
        cl.step_until(SimTime::from_nanos(9_500_000));
        let (buf, first) = cl.drive(rx, |ctx| {
            let buf = ctx.malloc(LEN_2ND);
            let first = ctx.irecv(TAG_2ND, !0, buf, LEN_2ND);
            let other = ctx.malloc(LEN_2ND);
            ctx.irecv(TAG_2ND, !0, other, LEN_2ND);
            (buf, first)
        });
        cl.step_until(SimTime::from_nanos(9_900_000));
        // Free the buffer under the first pull: its re-pin fails.
        cl.drive(rx, |ctx| ctx.free(buf));
        first
    });
    let rndv_rx = rx_times(&cl, |e| matches!(e, TraceEvent::RndvRx { .. }));
    assert_eq!(
        rndv_rx.len(),
        2,
        "the retransmitted rendezvous started a second pull"
    );
    let c = cl.counters();
    assert_eq!(c.get(Counter::PullReplyStale), window_frames);
    assert_eq!(c.get(Counter::PullFramesOk), total_frames);
    assert_eq!(c.get(Counter::DupFramesRx), 0);
}

/// A receive fails (its pull stalls out) while its pin waiter is still
/// queued behind a slow pin pass. A retransmitted rendezvous then starts
/// a second pull for the same `MsgId` into a second receive posted on
/// the same buffer, which queues behind the same pass. When the pass
/// completes, the dead pull's waiter fires first and must not start the
/// second pull a second time: one initial window of pull requests goes
/// out, not two.
#[test]
fn a_failed_pulls_pin_waiter_does_not_start_its_successor() {
    let mut cfg = OpenMxConfig::with_mode(PinningMode::Cached);
    // Over a 1 ms link, with one retry: the sender arms its rendezvous
    // timer (at 1.5 ms) before any RTT sample, so it fires after the
    // 30 ms ceiling. The eager ack (~2 ms) lands before the rendezvous
    // reaches the receiver (~2.5 ms), so the first pull's stall timer
    // runs at 3x that round trip and gives up after ~18 ms, while its
    // pin pass (~35 ms) is still running. The retransmitted rendezvous
    // (~32.5 ms) starts the second pull before the pass ends.
    cfg.net.latency = SimDuration::from_millis(1);
    cfg.profile.pin_per_page = SimDuration::from_micros(820);
    cfg.retransmit_timeout = SimDuration::from_millis(30);
    cfg.retransmit_jitter = 0.0;
    cfg.max_retries = 1;
    let window = cfg.pull_window as usize;
    let cl = second_pull(cfg, 2, "pull transfer stalled", |cl, tx, rx| {
        let first = cl.drive(rx, |ctx| {
            let small = ctx.malloc(1024);
            ctx.irecv(1, !0, small, 1024);
            let buf = ctx.malloc(LEN_2ND);
            let first = ctx.irecv(TAG_2ND, !0, buf, LEN_2ND);
            ctx.irecv(TAG_2ND, !0, buf, LEN_2ND);
            first
        });
        cl.drive(tx, |ctx| {
            let small = ctx.malloc(1024);
            ctx.isend(rx, 1, small, 1024);
        });
        cl.step_until(SimTime::from_nanos(1_500_000));
        cl.drive(tx, |ctx| send_2nd(ctx, OverlapHint::Force));
        first
    });
    let rndv_rx = rx_times(&cl, |e| matches!(e, TraceEvent::RndvRx { .. }));
    let waits_ended = rx_times(&cl, |e| matches!(e, TraceEvent::PinWaitEnd { .. }));
    assert_eq!(
        rndv_rx.len(),
        2,
        "the retransmitted rendezvous started a second pull"
    );
    assert_eq!(waits_ended.len(), 2, "both pulls queued behind the pass");
    assert_eq!(waits_ended[0], waits_ended[1]);
    assert!(
        waits_ended[0] > rndv_rx[1],
        "the pass outlived the first pull"
    );
    let pull_reqs = rx_times(&cl, |e| matches!(e, TraceEvent::PullReq { .. }));
    let initial = pull_reqs.iter().filter(|&&t| t == waits_ended[0]).count();
    assert_eq!(initial, window, "one initial window of pull requests");
}
