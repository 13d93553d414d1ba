//! The [`PageTable`] trait: the common contract of every translation
//! structure the paper evaluates.
//!
//! A design answers three questions:
//!
//! 1. *What does a VPN translate to?* — [`PageTable::translate`].
//! 2. *What must the OS do to create a mapping?* — [`PageTable::map`]
//!    (allocates frames and table nodes; reports fault kind so the
//!    simulator can charge fault latency).
//! 3. *Which physical PTE locations does a hardware walk touch?* —
//!    [`PageTable::walk_path`], consumed by the MMU's walker.

use crate::alloc::FrameAllocator;
use crate::occupancy::OccupancyReport;
use crate::walk::WalkPath;
use ndp_types::{PageSize, Pfn, Vpn};
use std::fmt;

/// Identifies a page-table design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageTableKind {
    /// Conventional x86-64 4-level radix tree.
    Radix4,
    /// NDPage's 3-level tree with a merged 2 MB L2/L1 node.
    FlattenedL2L1,
    /// Elastic cuckoo hash table (ECH).
    ElasticCuckoo,
    /// 3-level radix with 2 MB leaf pages (transparent huge pages).
    HugePage,
}

impl fmt::Display for PageTableKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageTableKind::Radix4 => f.write_str("Radix"),
            PageTableKind::FlattenedL2L1 => f.write_str("NDPage-Flat"),
            PageTableKind::ElasticCuckoo => f.write_str("ECH"),
            PageTableKind::HugePage => f.write_str("HugePage"),
        }
    }
}

/// A successful translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// Physical frame of the 4 KB page containing the address (for 2 MB
    /// mappings, the exact 4 KB frame within the huge page).
    pub pfn: Pfn,
    /// The mapping's page size (determines TLB entry reach).
    pub size: PageSize,
}

/// What kind of page fault a [`PageTable::map`] call incurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// First touch of a 4 KB page.
    Minor4K,
    /// First touch of a 2 MB page (zeroing 512 frames is costly).
    Minor2M,
    /// Wanted a 2 MB page but contiguity was exhausted; fell back to 4 KB
    /// after a failed allocation (and, in real kernels, compaction work).
    Fallback4K,
}

/// Result of a [`PageTable::map`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapOutcome {
    /// Whether a new mapping was created (false if already mapped).
    pub newly_mapped: bool,
    /// Fault incurred, if any.
    pub fault: Option<FaultKind>,
    /// Page-table nodes allocated while creating the mapping.
    pub tables_allocated: u32,
}

impl MapOutcome {
    /// The outcome for an already-present mapping.
    #[must_use]
    pub fn already_mapped() -> Self {
        MapOutcome {
            newly_mapped: false,
            fault: None,
            tables_allocated: 0,
        }
    }
}

/// Fault counts of a [`PageTable::map_range`] call, or summed over many
/// (a run's whole premap).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RangeMapOutcome {
    /// 4 KB minor faults incurred.
    pub minor_4k: u64,
    /// 2 MB minor faults incurred.
    pub minor_2m: u64,
    /// THP-fallback faults incurred.
    pub fallback: u64,
}

impl RangeMapOutcome {
    /// Folds one [`MapOutcome`] into the totals.
    pub fn absorb(&mut self, outcome: MapOutcome) {
        match outcome.fault {
            Some(FaultKind::Minor4K) => self.minor_4k += 1,
            Some(FaultKind::Minor2M) => self.minor_2m += 1,
            Some(FaultKind::Fallback4K) => self.fallback += 1,
            None => {}
        }
    }

    /// Folds another range's totals into this one.
    pub fn absorb_range(&mut self, other: RangeMapOutcome) {
        self.minor_4k += other.minor_4k;
        self.minor_2m += other.minor_2m;
        self.fallback += other.fallback;
    }

    /// Total faults.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.minor_4k + self.minor_2m + self.fallback
    }
}

/// One deferred run of leaf installs: `count` consecutive pages, backed
/// by `count` consecutive frames from `first_pfn`.
///
/// `node` and `start` are implementation-defined — a tree's leaf node and
/// first entry in it, the elastic cuckoo table's first page ordinal — so
/// only the table that produced the plan can interpret them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlanSegment {
    pub(crate) node: u32,
    pub(crate) start: u32,
    pub(crate) count: u32,
    pub(crate) first_pfn: u64,
}

/// The deferred half of a [`PageTable::map_range`]: every allocator
/// interaction has already happened (interior nodes and 2 MB leaves
/// created, data frames reserved), but the 4 KB leaf PTE writes — the
/// bulk of premap time at paper-scale footprints — are recorded as
/// segments to be installed later by [`PageTable::apply_plan`], possibly
/// on another thread.
#[derive(Debug, Clone, Default)]
pub struct RangePlan {
    pub(crate) segments: Vec<PlanSegment>,
    /// Fault totals, identical to what the combined call would return.
    pub outcome: RangeMapOutcome,
}

impl RangePlan {
    /// Records one run of `count` absent pages, each taking a 4 KB
    /// `fault` (a minor fault, or a THP fallback).
    pub(crate) fn push(
        &mut self,
        node: usize,
        start: usize,
        count: usize,
        first_pfn: Pfn,
        fault: FaultKind,
    ) {
        self.segments.push(PlanSegment {
            node: node as u32,
            start: start as u32,
            count: count as u32,
            first_pfn: first_pfn.as_u64(),
        });
        let count = count as u64;
        match fault {
            FaultKind::Minor4K => self.outcome.minor_4k += count,
            FaultKind::Fallback4K => self.outcome.fallback += count,
            FaultKind::Minor2M => unreachable!("a 2 MB leaf is not a run of 4 KB pages"),
        }
    }

    /// Number of pages the plan will install.
    #[must_use]
    pub fn pages(&self) -> u64 {
        self.segments.iter().map(|s| u64::from(s.count)).sum()
    }
}

/// A translation structure mapping virtual to physical pages.
///
/// Implementations must uphold two invariants relied on by the simulator
/// and checked by the property tests in `tests/`:
///
/// * After `map(vpn, ..)` returns, `translate(vpn)` is `Some` and stable.
/// * `walk_path(vpn)` is `Some` exactly when `translate(vpn)` is, and all
///   step addresses lie in frames tagged [`FramePurpose::PageTable`]
///   (so the bypass policy can recognise them).
///
/// [`FramePurpose::PageTable`]: crate::alloc::FramePurpose::PageTable
pub trait PageTable {
    /// Which design this is.
    fn kind(&self) -> PageTableKind;

    /// Looks up a translation without side effects.
    fn translate(&self, vpn: Vpn) -> Option<Translation>;

    /// Ensures `vpn` is mapped, allocating frames/nodes as needed.
    fn map(&mut self, vpn: Vpn, alloc: &mut FrameAllocator) -> MapOutcome;

    /// Maps `pages` consecutive pages starting at `first`, returning the
    /// aggregated fault counts. Must behave exactly like calling
    /// [`Self::map`] per page in ascending order (same allocator call
    /// sequence, same resulting structure); the built-in designs override
    /// it to descend once per region instead of once per page, which is
    /// what makes the simulator's init phase (millions of `map`s) cheap.
    fn map_range(&mut self, first: Vpn, pages: u64, alloc: &mut FrameAllocator) -> RangeMapOutcome {
        let mut totals = RangeMapOutcome::default();
        for p in 0..pages {
            totals.absorb(self.map(first.add(p), alloc));
        }
        totals
    }

    /// The allocator-free first step of a phased premap: lays out
    /// `pages` pages from `first` as [`Self::map`] would, without touching
    /// the allocator, so that shaping can run in parallel across tables,
    /// and tables premapped over the same pages can share one shaped
    /// layout (`PageTableImpl::adopt_layout`). The allocator calls it
    /// owes are then made by [`Self::plan_range`] over the same ranges in
    /// the same order, and the frames land in the table when
    /// [`Self::apply_plan`] has applied every resulting plan; until then
    /// the table must not be queried.
    ///
    /// The trees need no shaping (their layout is fixed by the VPNs, so
    /// `plan_range` already makes every allocator call up front), and
    /// the default does nothing. The elastic cuckoo table shapes: where
    /// its entries land, and when it resizes, depends on its own VPN
    /// sequence only.
    fn shape_range(&mut self, first: Vpn, pages: u64) {
        let _ = (first, pages);
    }

    /// The allocator half of [`Self::map_range`], with 4 KB leaf installs
    /// deferred into the returned [`RangePlan`]. The allocator call
    /// sequence and fault totals are exactly those of `map_range`; the
    /// deferred pages only become visible once [`Self::apply_plan`] runs.
    ///
    /// Returns `None` when the design cannot split the two halves, and
    /// callers must then use plain `map_range`. The built-in trees always
    /// plan; custom designs (the default) and the elastic cuckoo table,
    /// for any range it was not shaped for ([`Self::shape_range`]), decline.
    ///
    /// Until the plan is applied, its pages still read as unmapped, so
    /// planning a page twice would double-allocate: callers must only
    /// batch plans over disjoint ranges.
    fn plan_range(
        &mut self,
        first: Vpn,
        pages: u64,
        alloc: &mut FrameAllocator,
    ) -> Option<RangePlan> {
        let _ = (first, pages, alloc);
        None
    }

    /// Installs the leaf PTEs recorded by an earlier [`Self::plan_range`]
    /// on this same table. Pure memory writes — no allocator access — so
    /// per-table apply calls can run in parallel across tables. Plans from
    /// a shaped table must all be applied, in plan order.
    ///
    /// # Panics
    ///
    /// The default panics: it must only be called on designs whose
    /// `plan_range` returns plans.
    fn apply_plan(&mut self, plan: &RangePlan) {
        let _ = plan;
        unreachable!("apply_plan called on a design without plan_range support");
    }

    /// The physical PTE accesses a hardware walk for `vpn` performs, or
    /// `None` if unmapped.
    ///
    /// Paths are bounded by [`crate::walk::MAX_WALK_STEPS`] steps
    /// (4-level radix, or one probe per hash way up to
    /// `PtLevel::MAX_HASH_WAYS`); [`WalkPath::push`] panics beyond that,
    /// so custom designs needing deeper walks must raise the bound.
    fn walk_path(&self, vpn: Vpn) -> Option<WalkPath>;

    /// [`Self::translate`] and [`Self::walk_path`] in one call — the
    /// simulator needs both on every TLB miss, and a combined lookup lets
    /// implementations descend the table once instead of three times
    /// (`walk_path` typically re-translates internally). The default is
    /// the two separate calls; the built-in designs override it with a
    /// single-descent version. Must equal
    /// `(self.translate(vpn)?, self.walk_path(vpn)?)` exactly.
    fn translate_and_walk(&self, vpn: Vpn) -> Option<(Translation, WalkPath)> {
        Some((self.translate(vpn)?, self.walk_path(vpn)?))
    }

    /// Current occupancy of every level.
    fn occupancy(&self) -> OccupancyReport;

    /// Number of distinct pages currently mapped (huge pages count once).
    fn mapped_pages(&self) -> u64;

    /// Bytes of physical memory consumed by table nodes themselves.
    fn table_bytes(&self) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_display_matches_paper_names() {
        assert_eq!(PageTableKind::Radix4.to_string(), "Radix");
        assert_eq!(PageTableKind::ElasticCuckoo.to_string(), "ECH");
        assert_eq!(PageTableKind::HugePage.to_string(), "HugePage");
        assert_eq!(PageTableKind::FlattenedL2L1.to_string(), "NDPage-Flat");
    }

    #[test]
    fn already_mapped_outcome() {
        let o = MapOutcome::already_mapped();
        assert!(!o.newly_mapped);
        assert!(o.fault.is_none());
        assert_eq!(o.tables_allocated, 0);
    }
}
