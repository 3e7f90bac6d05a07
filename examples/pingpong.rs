//! IMB PingPong across all five pinning strategies — a compact version of
//! the paper's Figures 6/7 sweep at a single message size.
//!
//! Run: `cargo run --release --example pingpong [size_kib]`

use openmx_core::{Counter, OpenMxConfig, PinningMode};
use openmx_mpi::{imb_job, run_job, summarize, ImbKernel};
use simcore::Bandwidth;

fn main() {
    let size_kib: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1024);
    let msg = size_kib * 1024;
    println!("IMB PingPong, {size_kib} KiB messages, 2 nodes on 10G Ethernet\n");
    println!("{:<18} {:>12} {:>12}", "pinning mode", "t/2 (us)", "MiB/s");

    let mut base = None;
    for mode in PinningMode::all() {
        let cfg = OpenMxConfig::with_mode(mode);
        let iters = 24;
        let (scripts, mark) = imb_job(ImbKernel::PingPong, 2, msg, 4, iters);
        let (cluster, records) = run_job(&cfg, 2, 1, scripts);
        let res = summarize(&records, mark, iters);
        let half = res.avg_iter / 2;
        let bw = Bandwidth::measured(msg, half).as_mib_per_sec();
        let delta = match base {
            None => {
                base = Some(bw);
                String::new()
            }
            Some(b) => format!(
                "  ({:+.1}% vs {})",
                100.0 * (bw / b - 1.0),
                PinningMode::PinPerComm.label()
            ),
        };
        println!(
            "{:<18} {:>12.1} {:>12.0}{delta}",
            mode.label(),
            half.as_micros_f64(),
            bw
        );
        assert_eq!(cluster.counters().get(Counter::RequestsFailed), 0);
    }
    println!(
        "\nThe paper's §4.2 result: the pinning cache and overlapped pinning\n\
         each recover the ~5% that per-communication pinning costs on this host."
    );
}
