//! The state audit: every law the driver's books, the region caches and
//! the transfer table obey, written once (DESIGN.md §20).
//!
//! [`Driver::audit`] checks one node's kernel-side books; [`Cluster::audit`]
//! adds the orphan-pin, cache and counter-ledger laws and, when the event
//! queue is empty and no core is running, the quiescence laws
//! [`Violation::XferLeak`] and [`Violation::RegionLeak`]. [`Cluster::run`] audits before every return
//! and panics on the first violation; `Cluster::step_until` does not, so a
//! stepping driver (simtest, the benchmark loop) audits when it chooses.
//! [`Violation::StaleVisible`] applies only to spaces with an MMU notifier
//! registered: without one (`use_mmu_notifiers = false`, the unreliable
//! user-space cache) the driver is never told that pages moved.
//!
//! simtest's mutations prove five laws bite: `LeakPin` trips
//! `PinAccounting`, `ForgetStale` trips `StaleVisible`, `SkipQuota` trips
//! `QuotaExceeded`, `LeakOnCrash` trips `OrphanPins`, and
//! `SwallowCompletion` trips the harness's own `Hang`. No mutation yet
//! proves `TenantAccounting`, `DeadSpacePin`, `IndexDiverged`,
//! `CacheIncoherent`, `CacheDuplicate`, `PinLedger`, `XferLeak` or
//! `RegionLeak`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use simmem::{Memory, Vpn, VpnRange};

use crate::driver::Driver;
use crate::engine::{Cluster, ProcId};
use crate::obs::Counter;

/// One violated state law.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Violation {
    /// Driver region accounting disagrees with the frame pool.
    PinAccounting {
        /// Node where the books diverged.
        node: usize,
        /// Pages the driver thinks are pinned (sum over regions).
        declared: u64,
        /// Pages the frame pool says are pinned.
        pinned: u64,
    },
    /// The per-tenant attributed pinned-page sum disagrees with the
    /// driver's global pinned count — attribution leaked or double-counted
    /// somewhere on the pin/unpin/evict path.
    TenantAccounting {
        /// Node where the books diverged.
        node: usize,
        /// Sum of per-tenant attributed pages.
        attributed: u64,
        /// The driver's global pinned count.
        pinned: u64,
    },
    /// A tenant's attributed pinned pages exceeded its hard quota cap.
    QuotaExceeded {
        /// Node whose driver let the tenant through.
        node: usize,
        /// The over-cap process.
        proc: u32,
        /// Pages attributed to the tenant.
        pinned: u64,
        /// The quota's hard cap.
        cap: u64,
    },
    /// A region still holds pins although its address space is gone.
    DeadSpacePin {
        /// Node of the offending driver.
        node: usize,
        /// The offending region id.
        region: u32,
    },
    /// A page inside a region's protocol-visible (valid) prefix has a
    /// PTE that no longer maps the attached pinned frame: a deferred
    /// unpin (or a lost notifier callback) exposed a stale page to the
    /// protocol.
    StaleVisible {
        /// Node whose driver exposed the stale page.
        node: usize,
        /// The offending region.
        region: u32,
        /// Region-relative page index inside the valid prefix.
        page: u64,
    },
    /// The driver's notifier interval index answered a routing query
    /// differently from the naive full-table intersect scan.
    IndexDiverged {
        /// Node whose driver index diverged.
        node: usize,
        /// The address space queried.
        space: u32,
        /// Start vpn of the diverging query window.
        start_vpn: u64,
    },
    /// A crashed process still owns driver state — its kernel exit path
    /// failed to reap a region (and whatever pins it held).
    OrphanPins {
        /// Node whose driver kept the dead tenant's state.
        node: usize,
        /// The crashed owner.
        proc: u32,
        /// The region that survived the crash.
        region: u32,
        /// Pages the orphaned region still holds pinned.
        pages: u64,
    },
    /// A user-space cache holds a descriptor the driver never declared
    /// (or already tore down).
    CacheIncoherent {
        /// Process whose cache is stale.
        proc: usize,
        /// The dangling descriptor.
        region: u32,
    },
    /// The same descriptor appears in two cache entries on one node.
    CacheDuplicate {
        /// Node where the duplicate lives.
        node: usize,
        /// The duplicated descriptor.
        region: u32,
    },
    /// The node's pin counters do not balance: pages pinned differ from
    /// pages unpinned, pressure-unpinned and still attached.
    PinLedger {
        /// Node whose ledger is out of balance.
        node: usize,
        /// `pin_pages`.
        pinned: u64,
        /// `unpin_pages`.
        unpinned: u64,
        /// `pressure_unpinned_pages`.
        pressure_unpinned: u64,
        /// Pages the driver's regions still hold.
        attached: u64,
    },
    /// Protocol state survived to quiescence.
    XferLeak {
        /// Entries left across the engine's transfer tables.
        count: usize,
    },
    /// At quiescence, declared regions and cached descriptors disagree —
    /// a declaration leaked past the cache (or vice versa).
    RegionLeak {
        /// Node with the imbalance.
        node: usize,
        /// Regions the driver still holds.
        declared: usize,
        /// Descriptors user-space caches still hold.
        cached: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::PinAccounting {
                node,
                declared,
                pinned,
            } => write!(
                f,
                "pin accounting: node {node} driver says {declared} pages pinned, frame pool says {pinned}"
            ),
            Violation::TenantAccounting {
                node,
                attributed,
                pinned,
            } => write!(
                f,
                "tenant accounting: node {node} attributes {attributed} pages across tenants but {pinned} are pinned"
            ),
            Violation::QuotaExceeded {
                node,
                proc,
                pinned,
                cap,
            } => write!(
                f,
                "quota exceeded: node {node} proc {proc} holds {pinned} pinned pages over its hard cap of {cap}"
            ),
            Violation::DeadSpacePin { node, region } => write!(
                f,
                "dead-space pin: node {node} region {region} holds pins for a destroyed space"
            ),
            Violation::StaleVisible { node, region, page } => write!(
                f,
                "stale visible: node {node} region {region} page {page} is protocol-visible but its PTE left the pinned frame"
            ),
            Violation::IndexDiverged {
                node,
                space,
                start_vpn,
            } => write!(
                f,
                "index diverged: node {node} space {space} window at vpn {start_vpn} routed differently than the naive scan"
            ),
            Violation::OrphanPins {
                node,
                proc,
                region,
                pages,
            } => write!(
                f,
                "orphan pins: node {node} region {region} (owner proc {proc}, {pages} pages pinned) survived its owner's crash"
            ),
            Violation::CacheIncoherent { proc, region } => write!(
                f,
                "cache incoherent: proc {proc} caches undeclared region {region}"
            ),
            Violation::CacheDuplicate { node, region } => {
                write!(f, "cache duplicate: node {node} region {region} cached twice")
            }
            Violation::PinLedger {
                node,
                pinned,
                unpinned,
                pressure_unpinned,
                attached,
            } => write!(
                f,
                "pin ledger: node {node} pinned {pinned} pages but unpinned {unpinned}, pressure-unpinned {pressure_unpinned} and holds {attached}"
            ),
            Violation::XferLeak { count } => {
                write!(f, "xfer leak: {count} protocol table entries after a clean run")
            }
            Violation::RegionLeak {
                node,
                declared,
                cached,
            } => write!(
                f,
                "region leak: node {node} has {declared} declared vs {cached} cached at quiescence"
            ),
        }
    }
}

/// The outcome of one audit.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Audit {
    /// Violated laws, in check order (empty = every law holds).
    pub violations: Vec<Violation>,
}

impl Audit {
    /// Panic with the first violation's message, if there is one.
    #[track_caller]
    pub fn assert_clean(&self) {
        if let Some(first) = self.violations.first() {
            panic!("state audit failed: {first}");
        }
    }
}

impl Driver {
    /// Check this driver's books against `mem`, the memory it pins in.
    /// Violations name node 0; [`Cluster::audit`] numbers the nodes.
    pub fn audit(&self, mem: &Memory) -> Audit {
        let mut violations = Vec::new();
        driver_laws(0, self, mem, &|_| false, &mut violations);
        Audit { violations }
    }
}

/// The driver laws of one node. A region owned by a process `crashed`
/// reports is an orphan, and only that.
fn driver_laws(
    node: usize,
    driver: &Driver,
    mem: &Memory,
    crashed: &dyn Fn(ProcId) -> bool,
    out: &mut Vec<Violation>,
) {
    let declared = driver.pinned_pages_total();
    let pinned = mem.frames().pinned_pages() as u64;
    if declared != pinned {
        out.push(Violation::PinAccounting {
            node,
            declared,
            pinned,
        });
    }
    let tenants = driver.tenant_stats();
    let attributed: u64 = tenants.iter().map(|(_, t)| t.pinned_pages).sum();
    if attributed != declared {
        out.push(Violation::TenantAccounting {
            node,
            attributed,
            pinned: declared,
        });
    }
    if let Some(q) = driver.quota() {
        for (proc, t) in &tenants {
            if t.pinned_pages > q.hard_cap {
                out.push(Violation::QuotaExceeded {
                    node,
                    proc: proc.0,
                    pinned: t.pinned_pages,
                    cap: q.hard_cap,
                });
            }
        }
    }
    for (rid, r) in driver.iter_regions() {
        if crashed(r.owner) {
            out.push(Violation::OrphanPins {
                node,
                proc: r.owner.0,
                region: rid.0,
                pages: r.pinned_pages(),
            });
            continue;
        }
        if !mem.space_exists(r.space) {
            if r.pinned_pages() > 0 {
                out.push(Violation::DeadSpacePin {
                    node,
                    region: rid.0,
                });
            }
            continue;
        }
        if !mem.has_notifier(r.space) {
            continue;
        }
        for idx in 0..r.valid_pages() {
            let vpn = r.layout.vpn_of_page(idx);
            if mem.resident_pfn(r.space, vpn) != Some(r.pinned_pfns()[idx as usize]) {
                out.push(Violation::StaleVisible {
                    node,
                    region: rid.0,
                    page: idx,
                });
            }
        }
    }
    for (_, r) in driver.iter_regions() {
        for seg in r.layout.segments() {
            let exact = seg.page_range();
            let wider = VpnRange::new(Vpn(exact.start.0.saturating_sub(1)), Vpn(exact.end.0 + 1));
            for q in [exact, wider] {
                if driver.regions_intersecting(r.space, &q)
                    != driver.regions_intersecting_naive(r.space, &q)
                {
                    out.push(Violation::IndexDiverged {
                        node,
                        space: r.space.0,
                        start_vpn: q.start.0,
                    });
                }
            }
        }
    }
}

impl Cluster {
    /// Check every node's driver, the pin ledgers, the region caches and,
    /// when the event queue is empty, the quiescence laws. A running
    /// core's completion sits on its queue lane, so a busy core is not
    /// quiescent. See the [module docs](crate::audit) for the laws.
    pub fn audit(&self) -> Audit {
        let mut out = Vec::new();
        let crashed = |p: ProcId| self.procs.get(p.0 as usize).is_some_and(|s| s.crashed);
        for (node, n) in self.nodes.iter().enumerate() {
            driver_laws(node, &n.driver, &n.mem, &crashed, &mut out);
            let c = self.node_counters(node);
            let attached = n.driver.pinned_pages_total();
            let (pinned, unpinned, pressure_unpinned) = (
                c.get(Counter::PinPages),
                c.get(Counter::UnpinPages),
                c.get(Counter::PressureUnpinnedPages),
            );
            if pinned != unpinned + pressure_unpinned + attached {
                out.push(Violation::PinLedger {
                    node,
                    pinned,
                    unpinned,
                    pressure_unpinned,
                    attached,
                });
            }
        }
        let mut cached: BTreeMap<usize, BTreeSet<u32>> = BTreeMap::new();
        for (proc, slot) in self.procs.iter().enumerate() {
            let node = slot.node;
            for rid in slot.cache.cached_ids() {
                if !self.nodes[node].driver.is_declared(rid) {
                    out.push(Violation::CacheIncoherent {
                        proc,
                        region: rid.0,
                    });
                }
                if !cached.entry(node).or_default().insert(rid.0) {
                    out.push(Violation::CacheDuplicate {
                        node,
                        region: rid.0,
                    });
                }
            }
        }
        if self.queue.is_empty() {
            let count = self.inflight_xfers();
            if count != 0 {
                out.push(Violation::XferLeak { count });
            }
            for (node, n) in self.nodes.iter().enumerate() {
                let declared: BTreeSet<u32> = n.driver.iter_regions().map(|(r, _)| r.0).collect();
                let cached = cached.remove(&node).unwrap_or_default();
                if declared != cached {
                    out.push(Violation::RegionLeak {
                        node,
                        declared: declared.len(),
                        cached: cached.len(),
                    });
                }
            }
        }
        Audit { violations: out }
    }
}
