//! The schedule grammar: what one simulation-test run *is*.
//!
//! A [`Schedule`] is a fully deterministic description of a run — cluster
//! shape, fault/op-mix profile, and an ordered list of [`Op`]s the
//! executor interleaves with the engine's event loop one tick at a time.
//! Schedules round-trip through a compact one-line repro string
//! ([`encode`]/[`decode`]) so a failing run can be replayed verbatim from
//! a test or a bug report.

use simcore::{SimDuration, SimRng};
use simmem::PAGE_SIZE;
use simnet::{FaultConfig, FaultProfile, GilbertElliott};

use openmx_core::{OpenMxConfig, PinQuota, PinningMode};

/// Virtual time between schedule steps: one op is applied, then the engine
/// runs for this long before the invariant oracle looks at the world.
pub const TICK: SimDuration = SimDuration::from_micros(100);

/// Harness buffers per process.
pub const BUFS_PER_PROC: usize = 3;

/// Pages per harness buffer.
pub const BUF_PAGES: u64 = 80;

/// Bytes per harness buffer (80 pages = 320 KiB, several pin chunks).
pub const BUF_LEN: u64 = BUF_PAGES * PAGE_SIZE;

/// A hostile address-space move aimed at one harness buffer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChurnKind {
    /// `munmap` the buffer (free-then-invalidate under an in-flight pin).
    Unmap,
    /// `munmap` then immediately re-`mmap` at the same address (the
    /// malloc-reuse pattern the pinning cache is designed around).
    UnmapRemap,
    /// `fork` the space, then write one page (COW break + notifier).
    CowWrite,
    /// Swap out every resident unpinned page of the buffer.
    SwapOut,
    /// Fault the buffer's pages back in.
    SwapIn,
    /// Migrate every resident unpinned page to a different frame.
    Migrate,
    /// Overwrite the buffer with fresh bytes (plain store, COW breaks).
    Rewrite,
}

/// One step of a schedule.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    /// Post a verified transfer: `src` sends `len` bytes from its buffer
    /// `sbuf` to `dst`'s buffer `rbuf`. With `recv_first` the receive is
    /// posted before the send; otherwise it is posted a few ticks late so
    /// the message arrives *unexpected*. Process/buffer indices are taken
    /// modulo the cluster shape, so ops stay valid while a shrinker edits
    /// the shape underneath them.
    Xfer {
        /// Sending process index (mod process count).
        src: u8,
        /// Sender buffer index (mod [`BUFS_PER_PROC`]).
        sbuf: u8,
        /// Receiving process index (mod process count; bumped if == src).
        dst: u8,
        /// Receiver buffer index (mod [`BUFS_PER_PROC`]).
        rbuf: u8,
        /// Message length in bytes (clamped to [`BUF_LEN`]).
        len: u32,
        /// Post the receive before the send.
        recv_first: bool,
    },
    /// Mutate one process's address space under whatever is in flight.
    Churn {
        /// Target process index (mod process count).
        proc: u8,
        /// Target buffer index (mod [`BUFS_PER_PROC`]).
        buf: u8,
        /// Which hostile move.
        kind: ChurnKind,
    },
    /// Crash one process mid-whatever: endpoint fenced, kernel exit path
    /// reaps every pin and transfer it owned, address space destroyed.
    /// Applied to an already-crashed process, a no-op.
    Crash {
        /// Target process index (mod process count).
        proc: u8,
    },
    /// Restart a crashed process with a bumped incarnation (fresh address
    /// space, heap, endpoint, cache). Applied to a live process, a no-op.
    Restart {
        /// Target process index (mod process count).
        proc: u8,
    },
    /// Let the engine run for `ticks` extra ticks with no new work.
    Advance {
        /// Ticks to advance (≥ 1).
        ticks: u8,
    },
}

/// One complete, replayable run description.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Schedule {
    /// Seed for the engine *and* the harness payload/choice streams.
    pub seed: u64,
    /// Name of the [`Profile`] supplying faults, memory shape and op mix.
    pub profile: String,
    /// Nodes in the cluster.
    pub nodes: u8,
    /// Processes per node.
    pub procs_per_node: u8,
    /// The op sequence.
    pub ops: Vec<Op>,
}

impl Schedule {
    /// Total process count.
    pub fn nprocs(&self) -> usize {
        self.nodes.max(1) as usize * self.procs_per_node.max(1) as usize
    }
}

/// An op-mix + environment profile the explorer sweeps over.
#[derive(Clone, Debug)]
pub struct Profile {
    /// Name (stable; part of the repro string).
    pub name: &'static str,
    /// Fault profile applied to every directed inter-node link.
    pub faults: FaultProfile,
    /// Physical frames per node.
    pub frames_per_node: usize,
    /// Swap slots per node.
    pub swap_per_node: usize,
    /// Driver pinned-page ceiling (pressure eviction when `Some`).
    pub pinned_pages_limit: Option<usize>,
    /// Per-tenant pin quota (soft share + hard cap) when `Some`.
    pub pin_quota: Option<PinQuota>,
    /// Generation weights, indexed `[xfer, unmap, remap, cow, swapout,
    /// swapin, migrate, rewrite, crash, restart, advance]`.
    pub weights: [u32; 11],
    /// Transfer sizes the generator draws from.
    pub sizes: &'static [u32],
}

/// The explorer's profile axis: six op mixes (VM churn on a clean
/// fabric, transfers over a hostile fabric, pin-budget pressure, trim
/// storms, tenant quotas, crash/restart storms), then the fault fabrics
/// one at a time under the transfer-heavy and the crash/restart mixes.
pub fn profiles() -> Vec<Profile> {
    let clean = FaultProfile::default();
    let hostile = FaultProfile {
        loss: 0.01,
        burst: Some(GilbertElliott::bursty(0.03, 4.0)),
        reorder: 0.05,
        reorder_jitter: SimDuration::from_micros(100),
        duplicate: 0.05,
        ..FaultProfile::default()
    };
    let mut mixes = vec![
        Profile {
            name: "churn",
            faults: clean,
            frames_per_node: 16 * 1024,
            swap_per_node: 8 * 1024,
            pinned_pages_limit: None,
            pin_quota: None,
            weights: [30, 8, 8, 6, 8, 6, 6, 8, 0, 0, 20],
            sizes: &[2048, 16384, 49152, 131072, 262144],
        },
        Profile {
            name: "lossy",
            faults: hostile,
            frames_per_node: 16 * 1024,
            swap_per_node: 8 * 1024,
            pinned_pages_limit: None,
            pin_quota: None,
            weights: [45, 4, 4, 2, 3, 2, 3, 4, 0, 0, 33],
            sizes: &[2048, 16384, 49152, 131072, 262144],
        },
        Profile {
            name: "pressure",
            faults: FaultProfile::default(),
            frames_per_node: 16 * 1024,
            swap_per_node: 8 * 1024,
            pinned_pages_limit: Some(96),
            pin_quota: None,
            weights: [40, 4, 4, 2, 10, 6, 4, 4, 0, 0, 26],
            sizes: &[49152, 131072, 262144, 327680],
        },
        // Glibc-style malloc-trim storm: heavy unmap/remap churn against
        // pinned buffers with transfers in flight — the workload the
        // deferred-unpin epoch exists for. No fabric faults and no pin
        // ceiling, so every failure is the notifier path's own.
        Profile {
            name: "trimstorm",
            faults: FaultProfile::default(),
            frames_per_node: 16 * 1024,
            swap_per_node: 8 * 1024,
            pinned_pages_limit: None,
            pin_quota: None,
            weights: [32, 12, 20, 4, 0, 0, 0, 8, 0, 0, 24],
            sizes: &[16384, 49152, 131072, 262144],
        },
        // Multi-tenant quota mix: no global pin ceiling, but every process
        // runs under a per-tenant quota (soft share 64 pages, hard cap 96).
        // One 80-page harness buffer pins fine; pinning a second one pushes
        // the tenant over its cap, so self-eviction and clean quota denials
        // interleave with rendezvous traffic and malloc-style remap churn.
        Profile {
            name: "tenantmix",
            faults: FaultProfile::default(),
            frames_per_node: 16 * 1024,
            swap_per_node: 8 * 1024,
            pinned_pages_limit: None,
            pin_quota: Some(PinQuota {
                soft_share: 64,
                hard_cap: 96,
            }),
            weights: [42, 6, 10, 2, 0, 0, 0, 6, 0, 0, 24],
            sizes: &[131072, 262144, 327680],
        },
        // Crash/restart storm: processes die under in-flight eager and
        // rendezvous traffic and come back with bumped incarnations while
        // a mildly hostile fabric keeps stale pre-crash frames arriving
        // late. Exercises incarnation fencing, the watchdog's
        // dead-peer short-circuits, and the kernel exit path's orphan-pin
        // reap; restarts re-run traffic over reused buffer addresses in
        // fresh address spaces.
        Profile {
            name: "crashstorm",
            faults: FaultProfile {
                loss: 0.005,
                reorder: 0.03,
                reorder_jitter: SimDuration::from_micros(100),
                duplicate: 0.03,
                ..FaultProfile::default()
            },
            frames_per_node: 16 * 1024,
            swap_per_node: 8 * 1024,
            pinned_pages_limit: None,
            pin_quota: None,
            weights: [40, 5, 5, 2, 0, 0, 0, 4, 6, 9, 29],
            sizes: &[2048, 16384, 131072, 262144],
        },
    ];
    // One hostile behavior per fabric under `lossy`'s transfer-heavy mix
    // (`lossy` itself is all of them at once), and a clean, lossy,
    // duplicating and mixed fabric under `crashstorm`'s crash/restart mix.
    let burst = FaultProfile {
        burst: Some(GilbertElliott::bursty(0.05, 8.0)),
        ..clean
    };
    let reorder = FaultProfile {
        reorder: 0.15,
        reorder_jitter: SimDuration::from_micros(200),
        ..clean
    };
    let dup = FaultProfile {
        duplicate: 0.10,
        ..clean
    };
    let loss = FaultProfile {
        loss: 0.03,
        ..clean
    };
    let lossdup = FaultProfile {
        loss: 0.02,
        duplicate: 0.05,
        reorder: 0.05,
        reorder_jitter: SimDuration::from_micros(100),
        ..clean
    };
    let (lossy, crashstorm) = (mixes[1].clone(), mixes[5].clone());
    let over = |mix: &Profile, name, faults| Profile {
        name,
        faults,
        ..mix.clone()
    };
    mixes.extend([
        over(&lossy, "burst", burst),
        over(&lossy, "reorder", reorder),
        over(&lossy, "dup", dup),
        over(&crashstorm, "crash", clean),
        over(&crashstorm, "crashloss", loss),
        over(&crashstorm, "crashdup", dup),
        over(&crashstorm, "crashlossdup", lossdup),
    ]);
    mixes
}

/// Look a profile up by name.
pub fn profile_by_name(name: &str) -> Option<Profile> {
    profiles().into_iter().find(|p| p.name == name)
}

/// Build the full stack configuration for a schedule: overlapped+cached
/// pinning, a deliberately tiny region cache (eviction paths stay hot), a
/// stretched deferred-unpin flush epoch (parked regions span several ops,
/// so schedules can race declares, evictions and pin-budget pressure
/// against the deferred queue — where that path's bugs live), a short
/// retransmission ceiling, and the profile's faults on every directed
/// inter-node link.
pub fn schedule_cfg(s: &Schedule, p: &Profile) -> OpenMxConfig {
    let mut cfg = OpenMxConfig::with_mode(PinningMode::OverlappedCached);
    cfg.seed = s.seed;
    cfg.max_retries = 6;
    cfg.retransmit_timeout = SimDuration::from_millis(20);
    cfg.cache_capacity = 4;
    cfg.notifier_epoch = TICK * 5;
    cfg.frames_per_node = p.frames_per_node;
    cfg.swap_per_node = p.swap_per_node;
    cfg.pinned_pages_limit = p.pinned_pages_limit;
    cfg.pin_quota = p.pin_quota;
    let mut faults = FaultConfig::clean();
    if !p.faults.is_clean() {
        for a in 0..s.nodes as u32 {
            for b in 0..s.nodes as u32 {
                if a != b {
                    faults.set_link(a, b, p.faults);
                }
            }
        }
    }
    cfg.net.faults = faults;
    cfg
}

/// Seeded random schedule: shape and op sequence drawn from the profile's
/// weights. The same `(seed, profile)` always yields the same schedule.
pub fn generate(seed: u64, profile: &Profile) -> Schedule {
    let mut rng = SimRng::new(seed).derive_stream("explore-gen");
    let nodes = rng.range_inclusive(2, 3) as u8;
    let ppn = rng.range_inclusive(1, 2) as u8;
    let nprocs = nodes as u64 * ppn as u64;
    let count = rng.range_inclusive(30, 60);
    let total: u64 = profile.weights.iter().map(|&w| w as u64).sum();
    let mut ops = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let mut draw = rng.below(total);
        let mut kind = profile.weights.len() - 1;
        for (k, &w) in profile.weights.iter().enumerate() {
            if draw < w as u64 {
                kind = k;
                break;
            }
            draw -= w as u64;
        }
        let churn = |rng: &mut SimRng, ck| Op::Churn {
            proc: rng.below(nprocs) as u8,
            buf: rng.below(BUFS_PER_PROC as u64) as u8,
            kind: ck,
        };
        ops.push(match kind {
            0 => {
                let src = rng.below(nprocs) as u8;
                let mut dst = rng.below(nprocs) as u8;
                if dst == src {
                    dst = (dst + 1) % nprocs as u8;
                }
                Op::Xfer {
                    src,
                    sbuf: rng.below(BUFS_PER_PROC as u64) as u8,
                    dst,
                    rbuf: rng.below(BUFS_PER_PROC as u64) as u8,
                    len: profile.sizes[rng.below(profile.sizes.len() as u64) as usize],
                    recv_first: rng.chance(0.6),
                }
            }
            1 => churn(&mut rng, ChurnKind::Unmap),
            2 => churn(&mut rng, ChurnKind::UnmapRemap),
            3 => churn(&mut rng, ChurnKind::CowWrite),
            4 => churn(&mut rng, ChurnKind::SwapOut),
            5 => churn(&mut rng, ChurnKind::SwapIn),
            6 => churn(&mut rng, ChurnKind::Migrate),
            7 => churn(&mut rng, ChurnKind::Rewrite),
            8 => Op::Crash {
                proc: rng.below(nprocs) as u8,
            },
            9 => Op::Restart {
                proc: rng.below(nprocs) as u8,
            },
            _ => Op::Advance {
                ticks: rng.range_inclusive(1, 5) as u8,
            },
        });
    }
    Schedule {
        seed,
        profile: profile.name.to_string(),
        nodes,
        procs_per_node: ppn,
        ops,
    }
}

// ---- repro-string codec ----------------------------------------------

const MAGIC: &str = "EXPL1";

fn encode_op(op: &Op, out: &mut String) {
    use std::fmt::Write;
    match op {
        Op::Xfer {
            src,
            sbuf,
            dst,
            rbuf,
            len,
            recv_first,
        } => {
            let tail = if *recv_first { 'r' } else { 's' };
            write!(out, "X{src}.{sbuf}>{dst}.{rbuf}:{len}{tail}").unwrap();
        }
        Op::Churn { proc, buf, kind } => {
            let c = match kind {
                ChurnKind::Unmap => 'U',
                ChurnKind::UnmapRemap => 'R',
                ChurnKind::CowWrite => 'F',
                ChurnKind::SwapOut => 'O',
                ChurnKind::SwapIn => 'I',
                ChurnKind::Migrate => 'M',
                ChurnKind::Rewrite => 'W',
            };
            write!(out, "{c}{proc}.{buf}").unwrap();
        }
        Op::Crash { proc } => write!(out, "C{proc}").unwrap(),
        Op::Restart { proc } => write!(out, "B{proc}").unwrap(),
        Op::Advance { ticks } => write!(out, "A{ticks}").unwrap(),
    }
}

/// Serialize a schedule to its one-line repro string.
pub fn encode(s: &Schedule) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    write!(
        out,
        "{MAGIC};seed=0x{:x};profile={};nodes={};ppn={};ops=",
        s.seed, s.profile, s.nodes, s.procs_per_node
    )
    .unwrap();
    for (i, op) in s.ops.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        encode_op(op, &mut out);
    }
    out
}

fn parse_pair(body: &str, what: &str) -> Result<(u8, u8), String> {
    let (a, b) = body
        .split_once('.')
        .ok_or_else(|| format!("{what}: expected `p.b`, got `{body}`"))?;
    let p = a.parse::<u8>().map_err(|e| format!("{what}: {e}"))?;
    let q = b.parse::<u8>().map_err(|e| format!("{what}: {e}"))?;
    Ok((p, q))
}

fn decode_op(tok: &str) -> Result<Op, String> {
    let (head, body) = tok.split_at(1);
    match head {
        "X" => {
            let (from, rest) = body
                .split_once('>')
                .ok_or_else(|| format!("xfer `{tok}`: missing `>`"))?;
            let (to, rest) = rest
                .split_once(':')
                .ok_or_else(|| format!("xfer `{tok}`: missing `:`"))?;
            let recv_first = match rest.chars().last() {
                Some('r') => true,
                Some('s') => false,
                _ => return Err(format!("xfer `{tok}`: expected trailing r|s")),
            };
            let len = rest[..rest.len() - 1]
                .parse::<u32>()
                .map_err(|e| format!("xfer `{tok}`: {e}"))?;
            let (src, sbuf) = parse_pair(from, "xfer src")?;
            let (dst, rbuf) = parse_pair(to, "xfer dst")?;
            Ok(Op::Xfer {
                src,
                sbuf,
                dst,
                rbuf,
                len,
                recv_first,
            })
        }
        "A" => Ok(Op::Advance {
            ticks: body.parse::<u8>().map_err(|e| format!("advance: {e}"))?,
        }),
        "C" => Ok(Op::Crash {
            proc: body.parse::<u8>().map_err(|e| format!("crash: {e}"))?,
        }),
        "B" => Ok(Op::Restart {
            proc: body.parse::<u8>().map_err(|e| format!("restart: {e}"))?,
        }),
        c => {
            let kind = match c {
                "U" => ChurnKind::Unmap,
                "R" => ChurnKind::UnmapRemap,
                "F" => ChurnKind::CowWrite,
                "O" => ChurnKind::SwapOut,
                "I" => ChurnKind::SwapIn,
                "M" => ChurnKind::Migrate,
                "W" => ChurnKind::Rewrite,
                _ => return Err(format!("unknown op `{tok}`")),
            };
            let (proc, buf) = parse_pair(body, "churn")?;
            Ok(Op::Churn { proc, buf, kind })
        }
    }
}

/// Parse a repro string back into a schedule. Validates the profile name.
pub fn decode(s: &str) -> Result<Schedule, String> {
    let mut seed = None;
    let mut profile = None;
    let mut nodes = None;
    let mut ppn = None;
    let mut ops = None;
    for (i, field) in s.trim().split(';').enumerate() {
        if i == 0 {
            if field != MAGIC {
                return Err(format!("bad magic `{field}` (want {MAGIC})"));
            }
            continue;
        }
        let (key, val) = field
            .split_once('=')
            .ok_or_else(|| format!("field `{field}`: missing `=`"))?;
        match key {
            "seed" => {
                let raw = val
                    .strip_prefix("0x")
                    .ok_or_else(|| format!("seed `{val}`: missing 0x"))?;
                seed = Some(u64::from_str_radix(raw, 16).map_err(|e| format!("seed: {e}"))?);
            }
            "profile" => {
                if profile_by_name(val).is_none() {
                    return Err(format!("unknown profile `{val}`"));
                }
                profile = Some(val.to_string());
            }
            "nodes" => nodes = Some(val.parse::<u8>().map_err(|e| format!("nodes: {e}"))?),
            "ppn" => ppn = Some(val.parse::<u8>().map_err(|e| format!("ppn: {e}"))?),
            "ops" => {
                let mut v = Vec::new();
                if !val.is_empty() {
                    for tok in val.split(',') {
                        v.push(decode_op(tok)?);
                    }
                }
                ops = Some(v);
            }
            other => return Err(format!("unknown field `{other}`")),
        }
    }
    Ok(Schedule {
        seed: seed.ok_or("missing seed")?,
        profile: profile.ok_or("missing profile")?,
        nodes: nodes.ok_or("missing nodes")?.clamp(1, 8),
        procs_per_node: ppn.ok_or("missing ppn")?.clamp(1, 4),
        ops: ops.ok_or("missing ops")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_round_trips() {
        let s = Schedule {
            seed: 0xdead_beef,
            profile: "churn".into(),
            nodes: 3,
            procs_per_node: 2,
            ops: vec![
                Op::Xfer {
                    src: 0,
                    sbuf: 1,
                    dst: 4,
                    rbuf: 2,
                    len: 262_144,
                    recv_first: true,
                },
                Op::Advance { ticks: 5 },
                Op::Churn {
                    proc: 3,
                    buf: 0,
                    kind: ChurnKind::UnmapRemap,
                },
                Op::Xfer {
                    src: 2,
                    sbuf: 0,
                    dst: 1,
                    rbuf: 0,
                    len: 2048,
                    recv_first: false,
                },
                Op::Churn {
                    proc: 1,
                    buf: 2,
                    kind: ChurnKind::SwapOut,
                },
            ],
        };
        let line = encode(&s);
        assert_eq!(decode(&line).expect("decode"), s);
        assert!(line.starts_with("EXPL1;seed=0xdeadbeef;profile=churn"));
    }

    #[test]
    fn every_churn_kind_round_trips() {
        for kind in [
            ChurnKind::Unmap,
            ChurnKind::UnmapRemap,
            ChurnKind::CowWrite,
            ChurnKind::SwapOut,
            ChurnKind::SwapIn,
            ChurnKind::Migrate,
            ChurnKind::Rewrite,
        ] {
            let s = Schedule {
                seed: 1,
                profile: "lossy".into(),
                nodes: 2,
                procs_per_node: 1,
                ops: vec![Op::Churn {
                    proc: 0,
                    buf: 1,
                    kind,
                }],
            };
            assert_eq!(decode(&encode(&s)).unwrap(), s);
        }
    }

    #[test]
    fn crash_and_restart_ops_round_trip() {
        let s = Schedule {
            seed: 7,
            profile: "crashstorm".into(),
            nodes: 2,
            procs_per_node: 2,
            ops: vec![
                Op::Xfer {
                    src: 0,
                    sbuf: 0,
                    dst: 2,
                    rbuf: 0,
                    len: 2048,
                    recv_first: false,
                },
                Op::Crash { proc: 0 },
                Op::Advance { ticks: 3 },
                Op::Restart { proc: 0 },
                Op::Crash { proc: 3 },
            ],
        };
        let line = encode(&s);
        assert!(line.contains("C0"), "{line}");
        assert!(line.contains("B0"), "{line}");
        assert_eq!(decode(&line).expect("decode"), s);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode("NOPE;seed=0x1").is_err());
        assert!(decode("EXPL1;seed=1;profile=churn;nodes=2;ppn=1;ops=").is_err());
        assert!(decode("EXPL1;seed=0x1;profile=wat;nodes=2;ppn=1;ops=").is_err());
        assert!(decode("EXPL1;seed=0x1;profile=churn;nodes=2;ppn=1;ops=Z0.0").is_err());
        assert!(decode("EXPL1;seed=0x1;profile=churn;nodes=2;ppn=1;ops=X0.0:5r").is_err());
        // Empty op list is fine.
        let s = decode("EXPL1;seed=0x1;profile=churn;nodes=2;ppn=1;ops=")
            .unwrap_or_else(|_| panic!("empty ops must parse"));
        assert!(s.ops.is_empty());
    }

    #[test]
    fn generation_is_deterministic_and_profile_sensitive() {
        for p in profiles() {
            let a = generate(99, &p);
            let b = generate(99, &p);
            assert_eq!(a, b, "{} not deterministic", p.name);
            assert!(a.ops.len() >= 30 && a.ops.len() <= 60);
            assert!((2..=3).contains(&a.nodes));
            let c = generate(100, &p);
            assert_ne!(a, c, "{} seed-insensitive", p.name);
        }
        let churn = generate(5, &profile_by_name("churn").unwrap());
        let lossy = generate(5, &profile_by_name("lossy").unwrap());
        assert_ne!(churn.ops, lossy.ops, "profiles share one op stream");
    }

    #[test]
    fn generated_schedules_round_trip() {
        for p in profiles() {
            for seed in 0..5u64 {
                let s = generate(seed, &p);
                assert_eq!(decode(&encode(&s)).unwrap(), s);
            }
        }
    }

    #[test]
    fn bad_decode_is_err_not_panic() {
        // Fuzzish corpus of malformed lines.
        for line in [
            "",
            ";;;",
            "EXPL1",
            "EXPL1;seed=0xzz;profile=churn;nodes=1;ppn=1;ops=",
            "EXPL1;seed=0x1;profile=churn;nodes=x;ppn=1;ops=",
            "EXPL1;seed=0x1;profile=churn;nodes=2;ppn=1;ops=X9.9>9.9:abcr",
            "EXPL1;seed=0x1;profile=churn;nodes=2;ppn=1;ops=A",
            "EXPL1;seed=0x1;profile=churn;nodes=2;ppn=1;ops=U5",
        ] {
            assert!(decode(line).is_err(), "accepted `{line}`");
        }
    }
}
