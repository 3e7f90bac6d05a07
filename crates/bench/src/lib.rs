//! Shared harness code for the table/figure regeneration binaries.
//!
//! * [`table`] — plain-text table rendering + CSV output,
//! * [`pingpong`] — the IMB PingPong throughput runner behind Figs. 6–7,
//! * [`sweep`] — parallel parameter sweeps (one simulation per thread),
//! * [`microbench`] — wall-clock timing harness for the bench targets,
//! * [`paper`] — the published numbers we compare against,
//! * [`chaos`] — hostile-fabric soak runs asserting protocol liveness.

#![warn(missing_docs)]

pub mod chaos;
pub mod microbench;
pub mod paper;
pub mod pingpong;
pub mod sweep;
pub mod table;

pub use pingpong::{pingpong_throughput, PingPongPoint};
pub use table::Table;
