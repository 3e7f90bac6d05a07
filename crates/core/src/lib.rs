//! # openmx-core — the paper's contribution, end to end
//!
//! A faithful reconstruction of the Open-MX stack of Goglin's
//! *"Decoupling Memory Pinning from the Application with Overlapped
//! on-Demand Pinning and MMU Notifiers"* (CAC/IPDPS 2009), built on the
//! workspace's memory ([`simmem`]) and network ([`simnet`]) substrates:
//!
//! * [`wire`] — the MXoE protocol: eager, rendezvous, pull/pull-reply,
//!   notify, acks and retransmission;
//! * [`region`] — user regions (vectorial) with the **decoupled pin state
//!   machine**: declaration never pins; the driver pins on demand, in
//!   chunks, behind a cursor;
//! * [`cache`] — the user-space LRU region cache translating segment
//!   vectors into integer descriptors;
//! * [`driver`] — kernel-side region table, **MMU-notifier invalidation**
//!   and pinned-page pressure eviction;
//! * [`endpoint`] — MX matching (posted/unexpected, masks);
//! * [`engine`] — the deterministic cluster engine that charges every
//!   cost (syscalls, pin chunks, bottom-half packet work, copies, wire
//!   time) to the right core at the right virtual instant, implementing
//!   all five pinning strategies of the paper's evaluation;
//! * [`config`] — Table 1 CPU cost profiles and every knob the paper's
//!   experiments sweep;
//! * [`audit`] — the state laws (pin books, caches, transfer table),
//!   checked by [`Cluster::run`] before every return;
//! * [`obs`] — observability: typed trace events over the whole pinning
//!   lifecycle, a bounded ring-buffer tracer, latency histograms,
//!   Chrome-trace/CSV exporters, and the causal span builder that
//!   correlates sender- and receiver-side records of one transfer (via
//!   its [`wire::MsgId`]) into cross-node span trees with critical-path
//!   attribution.

#![warn(missing_docs)]

pub mod audit;
pub mod cache;
pub mod config;
pub mod driver;
pub mod endpoint;
pub mod engine;
mod index;
pub mod obs;
pub mod region;
pub mod wire;

pub use audit::Audit;
pub use cache::{CacheOutcome, RegionCache};
pub use config::{CpuProfile, OpenMxConfig, PinningMode};
pub use driver::{Driver, PinQuota, RegionId};
pub use endpoint::{Endpoint, EndpointAddr, RequestId};
pub use engine::{AppEvent, Cluster, Ctx, OverlapHint, ProcId, Process};
pub use obs::{
    build_spans, chrome_spans_json, per_proc_latency, post_mortem_json, CacheStats, ChildSpan,
    Counter, CounterSet, CriticalPath, DriverStats, FaultKind, Metrics, ProcLatencyStats,
    RetransKind, TenantStats, TraceEvent, TraceRecord, Tracer, XferSpan,
};
pub use region::{DeclareError, DriverRegion, RegionLayout, Segment};
pub use wire::{Frame, MsgId, PullId, WireMsg};
