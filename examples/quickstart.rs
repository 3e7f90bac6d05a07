//! Quickstart: one large message across the simulated cluster, verified
//! byte for byte.
//!
//! Builds a two-node cluster running the Open-MX stack with the paper's
//! decoupled, overlapped, MMU-notifier-backed pinning cache, sends a 1 MiB
//! buffer from node 0 to node 1 through the rendezvous/pull protocol, and
//! checks the received bytes.
//!
//! Run: `cargo run --release --example quickstart`

use openmx_core::engine::{AppEvent, Cluster, Ctx, ProcId, Process};
use openmx_core::{OpenMxConfig, PinningMode};
use simmem::VirtAddr;

const LEN: u64 = 1 << 20;
const TAG: u64 = 7;

struct Sender {
    buf: VirtAddr,
}

impl Process for Sender {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        // Allocate and fill the send buffer, then post the send. Requests
        // are non-blocking; completion arrives in `on_event`.
        self.buf = ctx.malloc(LEN);
        let payload: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
        ctx.write_buf(self.buf, &payload);
        ctx.isend(ProcId(1), TAG, self.buf, LEN);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::SendDone(_) => {
                println!(
                    "[{}] sender: 1 MiB send completed (rendezvous + pull, pinning overlapped)",
                    ctx.now()
                );
                ctx.stop();
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
}

struct Receiver {
    buf: VirtAddr,
}

impl Process for Receiver {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.buf = ctx.malloc(LEN);
        ctx.irecv(TAG, !0, self.buf, LEN);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::RecvDone(_, n) => {
                assert_eq!(n, LEN);
                let got = ctx.read_buf(self.buf, LEN);
                let ok = got.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8);
                assert!(ok, "payload corrupted in flight");
                println!("[{}] receiver: {n} bytes delivered and verified", ctx.now());
                ctx.stop();
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
}

fn main() {
    // The paper's platform: Xeon E5460 hosts on Myri-10G Ethernet, with
    // the overlapped pinning cache (the paper's best configuration).
    let cfg = OpenMxConfig::with_mode(PinningMode::OverlappedCached);
    let mut cluster = Cluster::new(cfg, 2);
    cluster.add_process(0, Box::new(Sender { buf: VirtAddr(0) }));
    cluster.add_process(1, Box::new(Receiver { buf: VirtAddr(0) }));
    let end = cluster.run(None);

    println!("\nsimulation finished at {end}");
    println!("\nengine counters:");
    for (k, v) in cluster.counters().iter().filter(|&(_, v)| v > 0) {
        println!("  {k:<28} {v}");
    }
}
