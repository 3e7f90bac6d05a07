//! # simcore — deterministic discrete-event simulation kernel
//!
//! The foundation every other crate in this workspace builds on. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — virtual time with nanosecond resolution,
//! * [`Bandwidth`] — byte-rate arithmetic for link/copy-engine models,
//! * [`EventQueue`] — a stable priority queue of timed events whose pending
//!   entries can be cancelled or moved in place,
//! * [`SimRng`] — a seedable, reproducible random number generator,
//! * [`CpuCore`] — a two-priority-level run queue modelling a host core
//!   (bottom-half interrupt work runs ahead of queued task work, as in Linux),
//! * [`stats`] — online statistics, a fixed-bucket latency histogram and the
//!   least-squares fit used to extract the paper's Table 1 coefficients.
//!
//! Everything here is purely computational: no wall-clock time, no I/O,
//! no global state. Two runs with the same seed produce identical traces,
//! which is what makes the paper's figures reviewable rather than noisy.

#![warn(missing_docs)]

pub mod cpu;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use cpu::{CpuCore, Priority, Work, WorkId};
pub use queue::{EventId, EventQueue};
pub use rng::SimRng;
pub use stats::{linear_fit, FixedHistogram, OnlineStats};
pub use time::{Bandwidth, SimDuration, SimTime};
