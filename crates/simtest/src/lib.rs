//! # simtest — deterministic simulation-test harness
//!
//! A FoundationDB-style randomized tester for the whole Open-MX stack:
//! seeded schedules drive multiple nodes, multiple address spaces and
//! concurrent eager/rendezvous transfers over a (possibly hostile)
//! fabric, while hostile VM churn — `munmap`/remap, fork + COW writes,
//! swap-out/in, page migration — lands on the very buffers the transfers
//! are using. After every tick an invariant oracle cross-checks the
//! layers against each other:
//!
//! * the core state audit (`openmx_core::Cluster::audit`): pin and tenant
//!   books, quotas, stale pages, orphan pins, driver/cache coherence and,
//!   once the queue is empty, transfer and region leaks;
//! * completion conservation (every posted op completes exactly once),
//! * end-to-end data integrity (delivered bytes match a pure-Rust model
//!   of the sender's buffer at post time).
//!
//! Everything replays from a single `u64` seed. When a run fails, the
//! delta-debugging [`shrink()`] minimizes the schedule and [`encode`] packs
//! it into a one-line repro string a `#[test]` replays verbatim:
//!
//! ```text
//! EXPL1;seed=0x2a;profile=churn;nodes=2;ppn=1;ops=X0.0>1.0:262144s,U0.0,A20
//! ```
//!
//! [`Mutation`]s deliberately break the stack (leak a pin, swallow a
//! completion) to prove the oracle catches what it claims to.

#![warn(missing_docs)]

pub mod exec;
pub mod explore;
pub mod schedule;
pub mod shrink;

pub use exec::{run_schedule, run_schedule_catching, Mutation, RunOutcome, Violation};
pub use explore::{explore, ExploreReport, FailureCase};
pub use schedule::{
    decode, encode, generate, profile_by_name, profiles, schedule_cfg, ChurnKind, Op, Profile,
    Schedule, BUFS_PER_PROC, BUF_LEN, BUF_PAGES, TICK,
};
pub use shrink::shrink;
