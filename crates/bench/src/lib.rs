//! The bench harness behind the one `bench` runner, which regenerates
//! every table and figure of the paper and runs the storms and the
//! explorer soak.
//!
//! * [`cli`] — the runner's flag parser, usage text and dispatch,
//! * [`scenario`] — the registry of named scenarios `bench` runs,
//! * [`table`] — plain-text tables, CSV and the flat baseline JSON,
//! * [`pingpong`] — the IMB PingPong throughput runner behind Figs. 6–7,
//! * [`sweep`] — parallel parameter sweeps on a bounded worker pool,
//! * [`microbench`] — wall-clock timing harness for the bench targets,
//! * [`paper`] — the published numbers we compare against.

#![warn(missing_docs)]

pub mod cli;
pub mod microbench;
pub mod paper;
pub mod pingpong;
pub mod scenario;
pub mod sweep;
pub mod table;
