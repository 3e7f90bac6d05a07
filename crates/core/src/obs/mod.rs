//! Observability: the unified pinning-lifecycle tracing and metrics layer.
//!
//! The paper's entire argument is about *when* things happen — pinning
//! overlapped with the rendezvous round trip, overlap misses recovered by
//! retransmission, notifier invalidations racing communications. This
//! module makes all of it observable as first-class data instead of
//! ad-hoc printing:
//!
//! * [`TraceEvent`] / [`TraceRecord`] — one typed event per step of the
//!   pinning lifecycle (declare, pin-start/chunk/complete, overlap miss,
//!   packet drop, retransmit, invalidation, pressure unpin, repin, cache
//!   hit/miss/evict) and of the rendezvous protocol, stamped with
//!   [`simcore::SimTime`], node and process;
//! * [`Tracer`] — a bounded ring buffer owned by the
//!   [`Cluster`](crate::Cluster): a no-op when disabled, O(1) per event
//!   when enabled, oldest events evicted first;
//! * [`Counter`] / [`CounterSet`] — the counter registry: one table
//!   declares every engine counter, and each node counts into a fixed
//!   array indexed by it;
//! * [`Metrics`] — always-on latency registry built on
//!   [`simcore::FixedHistogram`] / [`simcore::OnlineStats`]: pin latency,
//!   rendezvous round trip, overlap-window width;
//! * [`export`] — Chrome trace-event JSON (loadable in Perfetto / (chrome
//!   or edge)://tracing) and CSV.
//!
//! Named stats structs ([`DriverStats`], [`CacheStats`]) replace the old
//! anonymous tuple returns of `Driver::stats()` / `RegionCache::stats()`.

pub mod counters;
pub mod event;
pub mod export;
pub mod metrics;
pub mod span;
pub mod tracer;

pub use counters::{Counter, CounterSet};
pub use event::{FaultKind, RetransKind, TraceEvent, TraceRecord};
pub use export::{chrome_trace_json, csv};
pub use metrics::Metrics;
pub use span::{
    build_spans, chrome_spans_json, per_proc_latency, post_mortem_json, ChildSpan, CriticalPath,
    ProcLatencyStats, XferSpan,
};
pub use tracer::Tracer;

/// Driver-side pinning counters (was an anonymous `(u64, u64)` tuple).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DriverStats {
    /// Pages unpinned to stay under the pinned-page ceiling (§3.1).
    pub pressure_unpinned_pages: u64,
    /// MMU-notifier events handled. This used to be a single
    /// `notifier_invalidations` counter that was documented as an event
    /// count but bumped once per *region* unpinned — the split keeps the
    /// trace and metrics exporters honest about both rates.
    pub notifier_events: u64,
    /// Regions unpinned by MMU-notifier events (≥ one event can unpin
    /// several regions; most events unpin none).
    pub notifier_region_unpins: u64,
    /// Candidate regions the notifier interval index routed events to
    /// (index effectiveness: candidates ≪ declared regions).
    pub notifier_index_candidates: u64,
    /// Region invalidation hits whose unpin was deferred to the flush
    /// epoch instead of being serviced inside the notifier event.
    pub notifier_deferred: u64,
    /// Deferred unpins cancelled because the region was re-pinned over
    /// the invalidated range before the epoch drained (allocator churn
    /// turned into a no-op).
    pub notifier_cancelled: u64,
    /// Batched drains of the deferred-unpin queue (epoch close or
    /// pin-budget pressure).
    pub notifier_drain_batches: u64,
    /// LRU heap entries examined by pressure eviction (eviction
    /// effectiveness: pops stay near evictions instead of scaling with
    /// the region table).
    pub evict_lru_pops: u64,
}

/// Per-tenant pinning accounting (the multi-tenant half of the driver
/// stats): how many pages each process has pinned, how often its pin
/// passes were denied for quota, and how eviction pressure flowed
/// between tenants.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TenantStats {
    /// Pages currently pinned and attributed to this tenant.
    pub pinned_pages: u64,
    /// High-water mark of `pinned_pages`.
    pub peak_pinned_pages: u64,
    /// Pin passes denied because the tenant's hard cap left no headroom.
    pub quota_denials: u64,
    /// Pages this tenant's pressure evicted from *other* tenants — the
    /// noisy-neighbor damage it caused.
    pub evictions_inflicted_on_others: u64,
    /// Pages other tenants' pressure evicted from this one — the
    /// noisy-neighbor damage it absorbed.
    pub evictions_suffered_from_others: u64,
}

/// Region-cache effectiveness counters (was an anonymous `(u64, u64)`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to declare a fresh region.
    pub misses: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}
