//! Crash fault-domain regressions: transfers touching a dead peer must
//! reach a clean `Failed` completion through the watchdog short-circuit,
//! never hang in retry loops, and frames from dead incarnations must be
//! fenced at arrival.

use std::cell::RefCell;
use std::rc::Rc;

use openmx_core::engine::{AppEvent, Cluster, Ctx, ProcId, Process};

use openmx_core::{OpenMxConfig, PinningMode, RequestId};
use simcore::SimTime;

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
    assert!(c.get("peer_dead_aborts") >= 1, "watchdog short-circuit");
    assert_eq!(c.get("requests_failed"), 1);
    assert!(
        c.get("rndv_retrans") <= 1,
        "short-circuit must not burn the retry budget ({} retrans)",
        c.get("rndv_retrans")
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
        c.get("frames_fenced") >= 1,
        "in-flight frame must be fenced at the dead endpoint"
    );
    assert!(c.get("peer_dead_aborts") >= 1);
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
        assert_eq!(run.cl.inflight_xfers(), 0, "free after {instants} instants");
        assert_eq!(run.cl.pending_events(), 0, "free after {instants} instants");
        if run.cl.counters().get("ioat_landing_miss") > 0 {
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
    assert_eq!(run.cl.counters().get("requests_failed"), failed as u64);
}
