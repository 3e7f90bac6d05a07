//! Configuration: host CPU cost profiles (Table 1) and the stack knobs.

use simcore::{Bandwidth, SimDuration};
use simnet::NetConfig;

/// Cost model of one host CPU, calibrated against the paper's Table 1.
///
/// `pin_base` / `pin_per_page` are the *combined* pin+unpin costs the paper
/// reports; [`CpuProfile::PIN_FRACTION`] says how much of each lands on the
/// pin (`get_user_pages`) side vs. the unpin (`put_page`) side.
#[derive(Clone, Debug)]
pub struct CpuProfile {
    /// Marketing name, as in Table 1.
    pub name: &'static str,
    /// Clock, GHz (reporting only).
    pub ghz: f64,
    /// Base overhead of one pin+unpin cycle (Table 1 "Base µs").
    pub pin_base: SimDuration,
    /// Per-page overhead of pin+unpin (Table 1 "ns/page").
    pub pin_per_page: SimDuration,
    /// Sustained kernel memcpy bandwidth (receive-side copies).
    pub memcpy_bw: Bandwidth,
    /// Fixed bottom-half cost of processing one received frame.
    pub pkt_processing: SimDuration,
    /// Per-frame transmit setup (descriptor + doorbell).
    pub tx_setup: SimDuration,
    /// One system call (enter + exit).
    pub syscall: SimDuration,
    /// One user-space region-cache lookup.
    pub cache_lookup: SimDuration,
}

impl CpuProfile {
    /// Fraction of the pin+unpin cost charged to the pin side
    /// (`get_user_pages` walks page tables and faults; `put_page` is cheap).
    pub const PIN_FRACTION: f64 = 2.0 / 3.0;

    fn frac(d: SimDuration, f: f64) -> SimDuration {
        SimDuration::from_nanos((d.as_nanos() as f64 * f).round() as u64)
    }

    /// Cost of pinning `pages` pages in one batch (first batch of a region
    /// pays the base cost; pass `first = false` for later chunks).
    pub fn pin_cost(&self, pages: u64, first: bool) -> SimDuration {
        let base = if first {
            Self::frac(self.pin_base, Self::PIN_FRACTION)
        } else {
            SimDuration::ZERO
        };
        base + Self::frac(self.pin_per_page, Self::PIN_FRACTION).times(pages)
    }

    /// Cost of unpinning `pages` pages.
    pub fn unpin_cost(&self, pages: u64) -> SimDuration {
        Self::frac(self.pin_base, 1.0 - Self::PIN_FRACTION)
            + Self::frac(self.pin_per_page, 1.0 - Self::PIN_FRACTION).times(pages)
    }

    /// Combined pin+unpin cost of a whole region — what Table 1 reports.
    pub fn pin_unpin_cost(&self, pages: u64) -> SimDuration {
        self.pin_base + self.pin_per_page.times(pages)
    }

    /// The equivalent "pinning throughput" of Table 1's last column.
    pub fn pin_throughput(&self) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(
            simmem::PAGE_SIZE as f64 * 1e9 / self.pin_per_page.as_nanos() as f64,
        )
    }

    /// Time for the CPU to copy `bytes` (receive path without I/OAT).
    pub fn memcpy_cost(&self, bytes: u64) -> SimDuration {
        self.memcpy_bw.time_for_bytes(bytes)
    }

    /// Table 1 row 1: dual-core Opteron 265, 1.8 GHz.
    pub fn opteron_265() -> Self {
        CpuProfile {
            name: "Opteron 265",
            ghz: 1.8,
            pin_base: SimDuration::from_nanos(4200),
            pin_per_page: SimDuration::from_nanos(720),
            memcpy_bw: Bandwidth::from_gb_per_sec(0.9),
            pkt_processing: SimDuration::from_nanos(900),
            tx_setup: SimDuration::from_nanos(500),
            syscall: SimDuration::from_nanos(400),
            cache_lookup: SimDuration::from_nanos(200),
        }
    }

    /// Table 1 row 2: quad-core Opteron 8347, 1.9 GHz.
    pub fn opteron_8347() -> Self {
        CpuProfile {
            name: "Opteron 8347",
            ghz: 1.9,
            pin_base: SimDuration::from_nanos(2200),
            pin_per_page: SimDuration::from_nanos(330),
            memcpy_bw: Bandwidth::from_gb_per_sec(1.1),
            pkt_processing: SimDuration::from_nanos(600),
            tx_setup: SimDuration::from_nanos(350),
            syscall: SimDuration::from_nanos(300),
            cache_lookup: SimDuration::from_nanos(150),
        }
    }

    /// Table 1 row 3: Xeon E5435, 2.33 GHz.
    pub fn xeon_e5435() -> Self {
        CpuProfile {
            name: "Xeon E5435",
            ghz: 2.33,
            pin_base: SimDuration::from_nanos(2300),
            pin_per_page: SimDuration::from_nanos(250),
            memcpy_bw: Bandwidth::from_gb_per_sec(1.2),
            pkt_processing: SimDuration::from_nanos(450),
            tx_setup: SimDuration::from_nanos(280),
            syscall: SimDuration::from_nanos(250),
            cache_lookup: SimDuration::from_nanos(120),
        }
    }

    /// Table 1 row 4: Xeon E5460, 3.16 GHz — the host all of the paper's
    /// figures were measured on.
    pub fn xeon_e5460() -> Self {
        CpuProfile {
            name: "Xeon E5460",
            ghz: 3.16,
            pin_base: SimDuration::from_nanos(1300),
            pin_per_page: SimDuration::from_nanos(150),
            memcpy_bw: Bandwidth::from_gb_per_sec(1.15),
            pkt_processing: SimDuration::from_nanos(350),
            tx_setup: SimDuration::from_nanos(220),
            syscall: SimDuration::from_nanos(200),
            cache_lookup: SimDuration::from_nanos(100),
        }
    }

    /// All four Table 1 hosts, in table order.
    pub fn table1_hosts() -> Vec<CpuProfile> {
        vec![
            Self::opteron_265(),
            Self::opteron_8347(),
            Self::xeon_e5435(),
            Self::xeon_e5460(),
        ]
    }
}

/// The five pinning strategies under study (paper §2–§4).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum PinningMode {
    /// Pin the whole region synchronously at each communication, unpin at
    /// completion ("pin once per communication" / "regular pinning").
    PinPerComm,
    /// Pin at first declaration, never unpin — the upper bound of Fig. 6.
    Permanent,
    /// Decoupled on-demand pinning cache: regions stay declared and pinned
    /// across communications; MMU notifiers / LRU / pressure unpin.
    Cached,
    /// Overlapped pinning: the initiating message is sent *before* pinning;
    /// pin chunks proceed concurrently with the rendezvous round-trip.
    /// Unpins at completion (no cache).
    Overlapped,
    /// Overlapped pinning + pinning cache ("overlapped pinning cache").
    OverlappedCached,
}

impl PinningMode {
    /// Does this mode keep regions pinned across communications?
    pub fn caches(self) -> bool {
        matches!(
            self,
            PinningMode::Permanent | PinningMode::Cached | PinningMode::OverlappedCached
        )
    }

    /// Does this mode send the initiating message before pinning?
    pub fn overlaps(self) -> bool {
        matches!(
            self,
            PinningMode::Overlapped | PinningMode::OverlappedCached
        )
    }

    /// Label used in figures/tables.
    pub fn label(self) -> &'static str {
        match self {
            PinningMode::PinPerComm => "pin-per-comm",
            PinningMode::Permanent => "permanent",
            PinningMode::Cached => "cache",
            PinningMode::Overlapped => "overlapped",
            PinningMode::OverlappedCached => "overlapped+cache",
        }
    }

    /// All five modes.
    pub fn all() -> [PinningMode; 5] {
        [
            PinningMode::PinPerComm,
            PinningMode::Permanent,
            PinningMode::Cached,
            PinningMode::Overlapped,
            PinningMode::OverlappedCached,
        ]
    }
}

/// Full stack configuration for a simulated cluster.
#[derive(Clone, Debug)]
pub struct OpenMxConfig {
    /// Host CPU cost model.
    pub profile: CpuProfile,
    /// Fabric parameters.
    pub net: NetConfig,
    /// Pinning strategy.
    pub pinning: PinningMode,
    /// Offload receive copies to the I/OAT DMA engine.
    pub use_ioat: bool,
    /// Use MMU notifiers to invalidate stale pins (turning this off
    /// reproduces the unreliable user-space-cache failure mode).
    pub use_mmu_notifiers: bool,
    /// Messages below this go through the eager path (MXoE spec: 32 kB).
    pub eager_threshold: u64,
    /// Bytes per pull block (one pull request covers one block).
    pub pull_block: u64,
    /// Outstanding pull blocks per transfer.
    pub pull_window: u32,
    /// Pages pinned per on-demand chunk (overlap granularity).
    pub pin_chunk_pages: u64,
    /// Issue one `pin_user_pages` call per page instead of batching each
    /// contiguous run of a chunk into a single call. Differential-test
    /// oracle for the batched path; the simulated cost model is identical,
    /// only the number of `Memory` pin calls differs.
    pub per_page_pin: bool,
    /// User-space region cache capacity (LRU above this).
    pub cache_capacity: usize,
    /// Driver-enforced ceiling on pinned pages per node; exceeding it
    /// triggers pressure unpinning of idle cached regions.
    pub pinned_pages_limit: Option<usize>,
    /// Per-tenant pin quota (soft share + hard cap). With it set, pressure
    /// eviction is weighted-fair — tenants pinned past their soft share
    /// pay first — and a pin pass that would push its tenant past the
    /// hard cap self-evicts the tenant's idle regions or fails cleanly
    /// with a quota denial. `None` keeps the single-tenant semantics.
    pub pin_quota: Option<crate::PinQuota>,
    /// How long a deferred-unpin flush epoch stays open after the first
    /// deferral: notifier invalidation hits park in the driver's deferred
    /// queue and drain in one batch when this timer fires (or earlier,
    /// under pin-budget pressure). Allocator churn that re-pins the range
    /// within the epoch cancels the unpin entirely.
    pub notifier_epoch: SimDuration,
    /// §4.3 mitigation: pin this many pages synchronously before sending
    /// the initiating message in overlapped modes (0 = off).
    pub presync_pages: u64,
    /// Bind application processes to the interrupt (bottom-half) core —
    /// the §4.3 overload topology. Off by default: processes start at
    /// core 1 while interrupts stay on core 0, the usual irq affinity.
    pub colocate_with_bh: bool,
    /// Re-request missing pull frames as soon as higher-sequence frames
    /// arrive (paper §4.3 footnote), instead of waiting for the timeout.
    pub optimistic_rerequest: bool,
    /// Retransmission timeout (paper: 1 s). With adaptive retransmission
    /// this is the *ceiling*; the working timeout comes from the RTT
    /// estimator and exponential backoff.
    pub retransmit_timeout: SimDuration,
    /// Max protocol retries before a request fails with a clean error.
    pub max_retries: u32,
    /// Adapt retransmission timeouts to the measured fabric RTT
    /// (Jacobson/Karels) with exponential backoff per attempt, instead of
    /// re-arming the fixed `retransmit_timeout` every time.
    pub adaptive_retransmit: bool,
    /// Backoff multiplier per retry attempt (adaptive mode).
    pub retransmit_backoff: f64,
    /// Floor on the adaptive timeout: an RTT estimate from a fast fabric
    /// must not retransmit so eagerly that queueing jitter looks like loss.
    pub retransmit_min: SimDuration,
    /// Deterministic jitter fraction applied to adaptive timeouts (breaks
    /// retransmission synchronization between transfers).
    pub retransmit_jitter: f64,
    /// Cores per node (application processes round-robin onto cores 1..;
    /// core 0 also runs the interrupt bottom half).
    pub cores_per_node: usize,
    /// Physical frames per node.
    pub frames_per_node: usize,
    /// Swap pages per node.
    pub swap_per_node: usize,
    /// RNG seed for the whole experiment.
    pub seed: u64,
}

impl OpenMxConfig {
    /// The paper's measurement platform: Xeon E5460 + Myri-10G, MXoE
    /// defaults, notifier-backed cache off (mode chooses), I/OAT off.
    pub fn paper_default() -> Self {
        OpenMxConfig {
            profile: CpuProfile::xeon_e5460(),
            net: NetConfig::myri_10g(),
            pinning: PinningMode::PinPerComm,
            use_ioat: false,
            use_mmu_notifiers: true,
            eager_threshold: 32 * 1024,
            pull_block: 64 * 1024,
            pull_window: 2,
            pin_chunk_pages: 32,
            per_page_pin: false,
            cache_capacity: 64,
            pinned_pages_limit: None,
            pin_quota: None,
            notifier_epoch: SimDuration::from_micros(100),
            presync_pages: 0,
            colocate_with_bh: false,
            optimistic_rerequest: true,
            retransmit_timeout: SimDuration::from_secs(1),
            max_retries: 16,
            adaptive_retransmit: true,
            retransmit_backoff: 2.0,
            retransmit_min: SimDuration::from_millis(1),
            retransmit_jitter: 0.1,
            cores_per_node: 4,
            frames_per_node: 64 * 1024, // 256 MiB per node
            swap_per_node: 16 * 1024,
            seed: 0x0123_4567_89ab_cdef,
        }
    }

    /// Same platform with a chosen pinning mode.
    pub fn with_mode(mode: PinningMode) -> Self {
        OpenMxConfig {
            pinning: mode,
            ..Self::paper_default()
        }
    }

    /// Check the retransmission and fabric knobs are coherent. Called by
    /// the engine at cluster construction.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_retries < 1 {
            return Err("max_retries must be >= 1".to_string());
        }
        if self.retransmit_backoff < 1.0 {
            return Err(format!(
                "retransmit_backoff = {} must be >= 1.0",
                self.retransmit_backoff
            ));
        }
        if self.notifier_epoch.is_zero() {
            return Err("notifier_epoch must be > 0".to_string());
        }
        if !(0.0..=1.0).contains(&self.retransmit_jitter) {
            return Err(format!(
                "retransmit_jitter = {} not in [0, 1]",
                self.retransmit_jitter
            ));
        }
        if self.retransmit_min.is_zero() || self.retransmit_min > self.retransmit_timeout {
            return Err(format!(
                "retransmit_min = {} must be in (0, retransmit_timeout = {}]",
                self.retransmit_min, self.retransmit_timeout
            ));
        }
        if self.pull_block == 0 {
            return Err("pull_block must be > 0".to_string());
        }
        if self.net.mtu <= simnet::frame::MXOE_HEADER {
            return Err(format!(
                "mtu = {} leaves no payload after the {}-byte MXoE header",
                self.net.mtu,
                simnet::frame::MXOE_HEADER
            ));
        }
        // A pull request names the frames of one block in a 64-bit mask.
        let frames = self
            .pull_block
            .div_ceil(simnet::frame::max_payload(self.net.mtu));
        if frames > 64 {
            return Err(format!(
                "pull_block = {} needs {frames} frames at mtu {}; the frame mask holds 64",
                self.pull_block, self.net.mtu
            ));
        }
        if let Some(q) = self.pin_quota {
            if q.soft_share < 1 {
                return Err("pin_quota.soft_share must be >= 1".to_string());
            }
            if q.hard_cap < q.soft_share {
                return Err(format!(
                    "pin_quota.hard_cap = {} must be >= soft_share = {}",
                    q.hard_cap, q.soft_share
                ));
            }
        }
        self.net.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_pin_throughputs_match_paper() {
        // Paper Table 1 last column: 5.5, 12, 16, 26.5 GB/s.
        let expect = [5.5, 12.0, 16.0, 26.5];
        for (profile, want) in CpuProfile::table1_hosts().iter().zip(expect) {
            let got = profile.pin_throughput().bytes_per_sec() / 1e9;
            let err = (got - want).abs() / want;
            assert!(
                err < 0.06,
                "{}: pin throughput {got:.1} GB/s vs paper {want}",
                profile.name
            );
        }
    }

    #[test]
    fn pin_unpin_decomposition_sums() {
        let p = CpuProfile::xeon_e5460();
        for pages in [1u64, 16, 256, 4096] {
            let total = p.pin_cost(pages, true) + p.unpin_cost(pages);
            let want = p.pin_unpin_cost(pages);
            let diff = total.as_nanos().abs_diff(want.as_nanos());
            assert!(diff <= 2, "pages={pages}: {total} vs {want}");
        }
    }

    #[test]
    fn later_chunks_skip_base_cost() {
        let p = CpuProfile::xeon_e5460();
        let first = p.pin_cost(32, true);
        let later = p.pin_cost(32, false);
        assert!(first > later);
        assert_eq!(
            first - later,
            CpuProfile::frac(p.pin_base, CpuProfile::PIN_FRACTION)
        );
    }

    #[test]
    fn e5460_expected_1mb_pin_cost() {
        // 1 MiB = 256 pages: 1.3 us + 256 * 150 ns = 39.7 us for the full
        // pin+unpin cycle — the §4.1 "5% of a ~900 us transfer" argument.
        let p = CpuProfile::xeon_e5460();
        let cost = p.pin_unpin_cost(256);
        assert_eq!(cost.as_nanos(), 1_300 + 256 * 150);
    }

    #[test]
    fn validation_accepts_defaults_and_rejects_bad_knobs() {
        assert!(OpenMxConfig::paper_default().validate().is_ok());
        let mut c = OpenMxConfig::paper_default();
        c.max_retries = 0;
        assert!(c.validate().is_err());
        let mut c = OpenMxConfig::paper_default();
        c.retransmit_backoff = 0.5;
        assert!(c.validate().is_err());
        let mut c = OpenMxConfig::paper_default();
        c.retransmit_jitter = 1.5;
        assert!(c.validate().is_err());
        let mut c = OpenMxConfig::paper_default();
        c.retransmit_min = c.retransmit_timeout + SimDuration::from_nanos(1);
        assert!(c.validate().is_err());
        let mut c = OpenMxConfig::paper_default();
        c.notifier_epoch = SimDuration::ZERO;
        assert!(c.validate().is_err());
        let mut c = OpenMxConfig::paper_default();
        c.net.loss_probability = 2.0;
        assert!(c.validate().is_err());
        let mut c = OpenMxConfig::paper_default();
        c.pull_block = 0;
        assert!(c.validate().is_err());
        let mut c = OpenMxConfig::paper_default();
        c.net.mtu = simnet::frame::MXOE_HEADER;
        assert!(c.validate().is_err());
        // 64 full frames fit the mask; one byte more needs a 65th.
        let mut c = OpenMxConfig::paper_default();
        c.pull_block = 64 * simnet::frame::max_payload(c.net.mtu);
        assert!(c.validate().is_ok());
        c.pull_block += 1;
        assert!(c.validate().is_err());
        let mut c = OpenMxConfig::paper_default();
        c.pin_quota = Some(crate::PinQuota {
            soft_share: 0,
            hard_cap: 8,
        });
        assert!(c.validate().is_err());
        c.pin_quota = Some(crate::PinQuota {
            soft_share: 16,
            hard_cap: 8,
        });
        assert!(c.validate().is_err());
        c.pin_quota = Some(crate::PinQuota {
            soft_share: 16,
            hard_cap: 64,
        });
        assert!(c.validate().is_ok());
    }

    #[test]
    fn mode_predicates() {
        use PinningMode::*;
        assert!(!PinPerComm.caches() && !PinPerComm.overlaps());
        assert!(Permanent.caches() && !Permanent.overlaps());
        assert!(Cached.caches() && !Cached.overlaps());
        assert!(!Overlapped.caches() && Overlapped.overlaps());
        assert!(OverlappedCached.caches() && OverlappedCached.overlaps());
        assert_eq!(PinningMode::all().len(), 5);
    }
}
