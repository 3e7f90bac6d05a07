//! Benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pingpong_16m|realloc_churn_256k|sendrecv_4k_lossy> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! After one untimed warm-up episode the command runs episodes of the
//! workload, all from the same seed, until `--seconds` of host time have
//! passed. Every episode must reproduce the warm-up's simulated-clock
//! outcome bit for bit; a difference counts as a failure.
//!
//! `--trace 0` reports the end-to-end metrics, each the median over the
//! episodes: host seconds of the run phase (`host_s`) and of the set-up
//! phase (`setup_s`), both scaled to a reference machine speed by the
//! probe in [`perfbench::probe`], and the simulator's peak RSS.
//! `--trace 1` spends a third of the time on untraced episodes, a third
//! on traced ones and the rest on the layer replays, and reports the
//! per-layer metrics, unscaled. Values on the simulated clock carry the
//! unit `sim_us`; they are exact, so the package's tests check them for
//! equality rather than within a tolerance.
//!
//! Each episode's raw times go to stderr. A human-readable report goes to
//! stdout; its last line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::probe;
use perfbench::{replay, run_episode, Episode, Outcome, Spans, Workload};
use simmem::PAGE_SIZE;

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <u64> --seconds <1..=600> --trace <0|1>";

/// Episodes measured at the least, whatever `--seconds` says.
const MIN_EPISODES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("seconds {s} not in 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The machine every host-clock number was measured on.
fn machine() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\"",
        env!("PERFBENCH_RUSTC")
    )
}

/// High-water resident set of this process, MiB (VmHWM).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Requests attempted and failed over every episode of the run. An
/// episode whose simulated-clock outcome differs from the warm-up's is
/// one more failure.
struct Ledger {
    reference: Outcome,
    attempted: u64,
    failed: u64,
}

impl Ledger {
    fn new(warmup: &Episode) -> Self {
        let mut l = Ledger {
            reference: warmup.outcome.clone(),
            attempted: 0,
            failed: 0,
        };
        l.note(warmup);
        l
    }

    fn note(&mut self, ep: &Episode) {
        self.attempted += ep.outcome.requests;
        self.failed += ep.outcome.errors() + u64::from(ep.outcome != self.reference);
    }

    fn error_rate(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// An episode and the factor that scales its host times to the
/// reference machine speed.
struct Timed {
    ep: Episode,
    scale: f64,
}

/// Everything episodes share: the arguments, the ledger, the span
/// recorder, and the last run of the speed probe.
struct Runner<'a> {
    args: &'a Args,
    ledger: Ledger,
    spans: Spans,
    last_probe_s: f64,
}

impl<'a> Runner<'a> {
    /// Run the warm-up episode, untimed: the first episode in a process
    /// pays for fresh heap pages.
    fn new(args: &'a Args) -> Self {
        let mut spans = Spans::new();
        let w = args.workload;
        let warmup = run_episode(w, args.seed, None, &mut spans);
        Runner {
            args,
            ledger: Ledger::new(&warmup),
            spans,
            last_probe_s: probe::run(),
        }
    }

    /// Run one episode, traced into a ring of `trace` records if given.
    /// Its scale comes from the mean of the probes just before and just
    /// after it.
    fn episode(&mut self, trace: Option<usize>) -> Timed {
        let w = self.args.workload;
        let ep = run_episode(w, self.args.seed, trace, &mut self.spans);
        let probe_s = probe::run();
        let scale = probe::scale((self.last_probe_s + probe_s) / 2.0);
        eprintln!(
            "episode: setup {:.6} s, run {:.6} s, probe {:.6} s, scale {:.4}",
            ep.host.setup_s(),
            ep.host.run_s,
            probe_s,
            scale
        );
        self.last_probe_s = probe_s;
        Timed { ep, scale }
    }

    /// Run untraced episodes until `until`, at least `min` of them.
    fn episodes_until(&mut self, until: Instant, min: usize) -> Vec<Timed> {
        let mut eps = Vec::new();
        while eps.len() < min || Instant::now() < until {
            let t = self.episode(None);
            self.ledger.note(&t.ep);
            eps.push(t);
        }
        eps
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn result_json(ledger: &Ledger, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.failed == 0,
        ledger.attempted,
        ledger.failed,
        body.join(", ")
    )
}

fn print_table(metrics: &[Metric]) {
    for x in metrics {
        println!("  {:<28} {:>18.6} {}", x.name, x.value, x.unit);
    }
}

fn end_to_end(runner: &mut Runner) -> Vec<Metric> {
    let start = Instant::now();
    let eps = runner.episodes_until(
        start + Duration::from_secs(runner.args.seconds),
        MIN_EPISODES,
    );
    let raw: Vec<f64> = eps.iter().map(|t| t.ep.host.run_s).collect();
    let run: Vec<f64> = eps.iter().map(|t| t.ep.host.run_s * t.scale).collect();
    let setup: Vec<f64> = eps.iter().map(|t| t.ep.host.setup_s() * t.scale).collect();
    let scale: Vec<f64> = eps.iter().map(|t| t.scale).collect();
    let lo = raw.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = raw.iter().copied().fold(0.0, f64::max);
    println!(
        "host-clock run phase over {} episodes: median {:.4} s, min {lo:.4} s, max {hi:.4} s unscaled; median speed scale {:.4}",
        eps.len(),
        median(raw),
        median(scale)
    );
    let ledger = &runner.ledger;
    let o = &ledger.reference;
    println!(
        "simulated clock: virt_iter_us {} sim_us over {} timed iterations",
        o.virt_iter_ns as f64 / 1e3,
        runner.args.workload.iters()
    );
    println!(
        "error_rate {} ({} failed of {} requests)",
        ledger.error_rate(),
        ledger.failed,
        ledger.attempted
    );
    vec![
        m("host_s", median(run), "s"),
        m("setup_s", median(setup), "s"),
        m("peak_rss_mib", peak_rss_mib(), "MiB"),
    ]
}

fn per_layer(runner: &mut Runner) -> Vec<Metric> {
    let iters = runner.args.workload.iters();
    let start = Instant::now();
    let third = Duration::from_secs(runner.args.seconds) / 3;

    let untraced = runner.episodes_until(start + third, 2);

    // Size the ring from the warm-up's event count; if records were still
    // overwritten, grow it by exactly that many (the episode is
    // deterministic) and discard the episode.
    let mut capacity = runner.ledger.reference.events as usize + 4096;
    let mut traced: Vec<Timed> = Vec::new();
    while traced.is_empty() || Instant::now() < start + 2 * third {
        let t = runner.episode(Some(capacity));
        let dropped = t.ep.traced.expect("traced episode").dropped;
        if dropped > 0 {
            capacity += dropped as usize;
            continue;
        }
        runner.ledger.note(&t.ep);
        traced.push(t);
    }
    let first = traced[0].ep.traced.expect("traced episode");
    let (crit, records, dropped) = (first.crit, first.records, first.dropped);

    let spans = &mut runner.spans;
    let ledger = &runner.ledger;
    let o = &ledger.reference;
    let s = spans.enter("replay");
    let queue_ns = replay::queue_ns(o.pending_peak);
    let copy_ns = replay::copy_ns_per_page();
    let fault_ns = replay::fault_ns_per_page();
    let pin_ns = replay::pin_ns_per_page();
    let pin_pass_ns = replay::pin_pass_ns_per_page();
    let invalidate_ns = replay::invalidate_ns();
    let lookup_ns = replay::lookup_ns();
    let transmit_ns = replay::transmit_ns();
    spans.exit(s);

    let med = |f: fn(&Episode) -> f64| median(untraced.iter().map(|t| f(&t.ep)).collect());
    let host_s = med(|e| e.host.run_s);
    // Scaled, so a change of machine speed between the untraced and the
    // traced episodes does not read as tracing cost.
    let scaled = |eps: &[Timed]| median(eps.iter().map(|t| t.ep.host.run_s * t.scale).collect());
    let trace_overhead = ratio(scaled(&traced), scaled(&untraced));
    let virt_s = o.virt_total_ns as f64 / 1e9;
    let per_iter_us = |ns: u64| ns as f64 / iters as f64 / 1e3;
    let lookups = o.cache_hits + o.cache_misses;

    // Each replayed call's cost times how often the run made it.
    let attributed = [
        ("simcore.queue", o.events as f64 * queue_ns),
        ("simnet.transmit", o.frames_sent as f64 * transmit_ns),
        (
            "simmem.copy",
            (o.payload_bytes / PAGE_SIZE) as f64 * copy_ns,
        ),
        (
            "driver.pin_pass",
            o.counter("pin_pages") as f64 * pin_pass_ns,
        ),
        (
            "driver.invalidate",
            o.notifier_events as f64 * invalidate_ns,
        ),
        ("cache.lookup", lookups as f64 * lookup_ns),
    ];
    println!("replayed calls x their count in the run, as a share of host_s {host_s:.4} s:");
    for (name, ns) in attributed {
        println!("  {name:<20} {:>8.4}", ratio(ns, host_s * 1e9));
    }
    let attributed_share = ratio(
        attributed.iter().map(|(_, ns)| ns).sum::<f64>(),
        host_s * 1e9,
    );
    println!(
        "attributed_share {attributed_share:.4} ({} untraced + {} traced episodes; trace ring {records} records of {capacity})",
        untraced.len(),
        traced.len()
    );
    println!("host-clock spans (count, total s, self s):");
    for (name, n, total, own) in spans.summary() {
        println!(
            "  {name:<20} {n:>6} {:>10.4} {:>10.4}",
            total as f64 / 1e9,
            own as f64 / 1e9
        );
    }

    let c = |name| o.counter(name) as f64;
    vec![
        m("mpi.build_s", med(|e| e.host.build_s), "s"),
        m("engine.new_s", med(|e| e.host.new_s), "s"),
        m("engine.start_s", med(|e| e.host.start_s), "s"),
        m("engine.events", o.events as f64, "count"),
        m(
            "engine.ns_per_event",
            ratio(host_s * 1e9, o.events as f64),
            "ns",
        ),
        m("engine.host_per_virt", ratio(host_s, virt_s), "s/s"),
        m(
            "engine.retrans",
            c("eager_retrans") + c("rndv_retrans") + c("notify_retrans") + c("pull_stall_timeouts"),
            "count",
        ),
        m(
            "engine.overlap_misses",
            c("overlap_miss_rx") + c("overlap_miss_tx"),
            "count",
        ),
        m("engine.pin_syscalls", c("pin_syscalls"), "count"),
        m("simcore.queue_ns", queue_ns, "ns"),
        m("simcore.pending_peak", o.pending_peak as f64, "count"),
        m("simmem.copy_ns_per_page", copy_ns, "ns"),
        m("simmem.fault_ns_per_page", fault_ns, "ns"),
        m("simmem.pin_ns_per_page", pin_ns, "ns"),
        m("simmem.pin_calls", o.pin_calls as f64, "count"),
        m("simmem.unpin_calls", o.unpin_calls as f64, "count"),
        m("driver.notifier_events", o.notifier_events as f64, "count"),
        m(
            "driver.notifier_deferred",
            o.notifier_deferred as f64,
            "count",
        ),
        m(
            "driver.notifier_cancelled",
            o.notifier_cancelled as f64,
            "count",
        ),
        m("driver.drain_batches", o.drain_batches as f64, "count"),
        m(
            "driver.unpin_avoided_ratio",
            ratio(o.notifier_cancelled as f64, o.notifier_deferred as f64),
            "ratio",
        ),
        m("driver.pin_pass_ns_per_page", pin_pass_ns, "ns"),
        m("driver.invalidate_ns", invalidate_ns, "ns"),
        m("cache.hits", o.cache_hits as f64, "count"),
        m("cache.misses", o.cache_misses as f64, "count"),
        m(
            "cache.hit_ratio",
            ratio(o.cache_hits as f64, lookups as f64),
            "ratio",
        ),
        m("cache.lookup_ns", lookup_ns, "ns"),
        m("simnet.frames_sent", o.frames_sent as f64, "count"),
        m("simnet.frames_lost", o.frames_lost as f64, "count"),
        m(
            "simnet.useful_ratio",
            ratio(o.fabric_message_bytes as f64, o.payload_bytes as f64),
            "ratio",
        ),
        m("simnet.transmit_ns", transmit_ns, "ns"),
        m("crit.pin_wait_us", per_iter_us(crit.pin_wait_ns), "sim_us"),
        m("crit.wire_us", per_iter_us(crit.wire_ns), "sim_us"),
        m(
            "crit.retransmit_backoff_us",
            per_iter_us(crit.retransmit_backoff_ns),
            "sim_us",
        ),
        m(
            "crit.host_overhead_us",
            per_iter_us(crit.host_overhead_ns),
            "sim_us",
        ),
        m("virt_iter_us", o.virt_iter_ns as f64 / 1e3, "sim_us"),
        m("obs.trace_overhead", trace_overhead, "ratio"),
        m("obs.dropped_events", dropped as f64, "count"),
        m("attributed_share", attributed_share, "ratio"),
    ]
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    println!("machine: {}", machine());
    println!(
        "workload {} seed {} trace {}: {} timed iterations of {} bytes per episode",
        w.name(),
        args.seed,
        u8::from(args.trace),
        w.iters(),
        w.msg_bytes()
    );
    let mut runner = Runner::new(&args);
    let metrics = if args.trace {
        per_layer(&mut runner)
    } else {
        end_to_end(&mut runner)
    };
    print_table(&metrics);
    if let Some(bad) = metrics.iter().find(|x| !x.value.is_finite()) {
        eprintln!("metric {} is not a finite number", bad.name);
        return ExitCode::FAILURE;
    }
    println!("{}", result_json(&runner.ledger, &metrics));
    ExitCode::SUCCESS
}
