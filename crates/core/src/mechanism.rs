//! The five address-translation mechanisms the paper evaluates (§VI) and
//! their component wiring.

use crate::alloc::FrameAllocator;
use crate::bypass::BypassPolicy;
use crate::cuckoo::ElasticCuckooTable;
use crate::occupancy::OccupancyReport;
use crate::table::{MapOutcome, PageTable, PageTableKind, RangeMapOutcome, RangePlan, Translation};
use crate::tree::{Tree, HUGE_PAGE, NDPAGE, RADIX};
use crate::walk::WalkPath;
use ndp_types::Vpn;
use std::fmt;

/// An evaluated address-translation mechanism.
///
/// | Mechanism  | Page table              | PWCs | L1 bypass for PTEs |
/// |------------|-------------------------|------|--------------------|
/// | `Radix`    | 4-level radix           | yes  | no                 |
/// | `Ech`      | elastic cuckoo hash     | no   | no                 |
/// | `HugePage` | 3-level radix, 2 MB leaf| yes  | no                 |
/// | `NdPage`   | flattened L2/L1 (3-level)| yes | **yes**            |
/// | `Ideal`    | — (every access L1-TLB hits at zero latency) | — | — |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mechanism {
    /// Conventional x86-64 baseline.
    Radix,
    /// Elastic cuckoo hash table (state-of-the-art baseline).
    Ech,
    /// 2 MB transparent huge pages.
    HugePage,
    /// This paper's contribution: flattened table + metadata bypass.
    NdPage,
    /// Upper bound: zero-cost translation.
    Ideal,
}

impl Mechanism {
    /// Every mechanism, in the order the paper's figures list them.
    pub const ALL: [Mechanism; 5] = [
        Mechanism::Radix,
        Mechanism::Ech,
        Mechanism::HugePage,
        Mechanism::NdPage,
        Mechanism::Ideal,
    ];

    /// The four real mechanisms (excluding the Ideal bound).
    pub const REAL: [Mechanism; 4] = [
        Mechanism::Radix,
        Mechanism::Ech,
        Mechanism::HugePage,
        Mechanism::NdPage,
    ];

    /// Display name as used in the paper's figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Mechanism::Radix => "Radix",
            Mechanism::Ech => "ECH",
            Mechanism::HugePage => "Huge Page",
            Mechanism::NdPage => "NDPage",
            Mechanism::Ideal => "Ideal",
        }
    }

    /// The cache policy this mechanism applies to PTE requests.
    #[must_use]
    pub fn bypass_policy(self) -> BypassPolicy {
        match self {
            Mechanism::NdPage => BypassPolicy::MetadataL1Bypass,
            _ => BypassPolicy::None,
        }
    }

    /// Whether the MMU keeps page-walk caches for this mechanism's table.
    /// Hashed tables have no prefix locality for a PWC to exploit.
    #[must_use]
    pub fn uses_pwc(self) -> bool {
        !matches!(self, Mechanism::Ech | Mechanism::Ideal)
    }

    /// Whether this mechanism translates at all (`Ideal` does not).
    #[must_use]
    pub fn is_ideal(self) -> bool {
        matches!(self, Mechanism::Ideal)
    }

    /// Builds the mechanism's page table as a statically dispatched
    /// [`PageTableImpl`], or `None` for `Ideal`.
    #[must_use]
    pub fn build_impl(self, alloc: &mut FrameAllocator) -> Option<PageTableImpl> {
        match self {
            Mechanism::Radix => Some(PageTableImpl::Tree(Tree::new(&RADIX, alloc))),
            Mechanism::Ech => Some(PageTableImpl::Ech(ElasticCuckooTable::new(alloc))),
            Mechanism::HugePage => Some(PageTableImpl::Tree(Tree::new(&HUGE_PAGE, alloc))),
            Mechanism::NdPage => Some(PageTableImpl::Tree(Tree::new(&NDPAGE, alloc))),
            Mechanism::Ideal => None,
        }
    }
}

/// The closed set of built-in page-table designs, as an enum so the
/// simulator's per-op translate/walk calls dispatch statically (and
/// inline) instead of through a `Box<dyn PageTable>` vtable.
///
/// Implements [`PageTable`] itself, so everything written against the
/// trait — the walker, occupancy tooling, reports — works unchanged.
#[derive(Debug, Clone)]
pub enum PageTableImpl {
    /// A radix-family tree: the Radix, NDPage or Huge Page layout.
    Tree(Tree),
    /// Elastic cuckoo hash table.
    Ech(ElasticCuckooTable),
}

impl PageTableImpl {
    /// [`ElasticCuckooTable::adopt_layout`] when both tables are elastic
    /// cuckoo tables; a no-op otherwise (a tree's layout is fixed by the
    /// VPNs, so it shapes nothing to share).
    pub fn adopt_layout(&mut self, shaped: &PageTableImpl) {
        if let (PageTableImpl::Ech(table), PageTableImpl::Ech(shaped)) = (self, shaped) {
            table.adopt_layout(shaped);
        }
    }
}

macro_rules! dispatch {
    ($self:ident, $table:ident => $body:expr) => {
        match $self {
            PageTableImpl::Tree($table) => $body,
            PageTableImpl::Ech($table) => $body,
        }
    };
}

impl PageTable for PageTableImpl {
    #[inline]
    fn kind(&self) -> PageTableKind {
        dispatch!(self, t => t.kind())
    }

    #[inline]
    fn translate(&self, vpn: Vpn) -> Option<Translation> {
        dispatch!(self, t => t.translate(vpn))
    }

    #[inline]
    fn map(&mut self, vpn: Vpn, alloc: &mut FrameAllocator) -> MapOutcome {
        dispatch!(self, t => t.map(vpn, alloc))
    }

    fn map_range(&mut self, first: Vpn, pages: u64, alloc: &mut FrameAllocator) -> RangeMapOutcome {
        dispatch!(self, t => t.map_range(first, pages, alloc))
    }

    fn shape_range(&mut self, first: Vpn, pages: u64) {
        dispatch!(self, t => t.shape_range(first, pages))
    }

    fn plan_range(
        &mut self,
        first: Vpn,
        pages: u64,
        alloc: &mut FrameAllocator,
    ) -> Option<RangePlan> {
        dispatch!(self, t => t.plan_range(first, pages, alloc))
    }

    fn apply_plan(&mut self, plan: &RangePlan) {
        dispatch!(self, t => t.apply_plan(plan))
    }

    #[inline]
    fn walk_path(&self, vpn: Vpn) -> Option<WalkPath> {
        dispatch!(self, t => t.walk_path(vpn))
    }

    #[inline]
    fn translate_and_walk(&self, vpn: Vpn) -> Option<(Translation, WalkPath)> {
        dispatch!(self, t => t.translate_and_walk(vpn))
    }

    fn occupancy(&self) -> OccupancyReport {
        dispatch!(self, t => t.occupancy())
    }

    fn mapped_pages(&self) -> u64 {
        dispatch!(self, t => t.mapped_pages())
    }

    fn table_bytes(&self) -> u64 {
        dispatch!(self, t => t.table_bytes())
    }
}

impl fmt::Display for Mechanism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_types::Vpn;

    #[test]
    fn names_match_figures() {
        let names: Vec<&str> = Mechanism::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names, ["Radix", "ECH", "Huge Page", "NDPage", "Ideal"]);
    }

    #[test]
    fn only_ndpage_bypasses() {
        for m in Mechanism::ALL {
            let expects = m == Mechanism::NdPage;
            assert_eq!(
                m.bypass_policy() == BypassPolicy::MetadataL1Bypass,
                expects,
                "{m}"
            );
        }
    }

    #[test]
    fn pwc_usage() {
        assert!(Mechanism::Radix.uses_pwc());
        assert!(Mechanism::NdPage.uses_pwc());
        assert!(Mechanism::HugePage.uses_pwc());
        assert!(!Mechanism::Ech.uses_pwc());
        assert!(!Mechanism::Ideal.uses_pwc());
    }

    #[test]
    fn build_impl_kinds() {
        let mut alloc = FrameAllocator::new(1 << 30);
        let kinds: Vec<PageTableKind> = Mechanism::REAL
            .iter()
            .map(|m| {
                let mut t = m.build_impl(&mut alloc).expect("real mechanism");
                let vpn = Vpn::new(0x42);
                t.map(vpn, &mut alloc);
                assert!(t.translate(vpn).is_some(), "{m}");
                t.kind()
            })
            .collect();
        assert_eq!(
            kinds,
            [
                PageTableKind::Radix4,
                PageTableKind::ElasticCuckoo,
                PageTableKind::HugePage,
                PageTableKind::FlattenedL2L1,
            ]
        );
        assert!(Mechanism::Ideal.build_impl(&mut alloc).is_none());
        assert!(Mechanism::Ideal.is_ideal());
    }

    #[test]
    fn walk_depths_match_paper() {
        let mut alloc = FrameAllocator::new(1 << 30);
        let depths: Vec<usize> = Mechanism::REAL
            .iter()
            .map(|m| {
                let mut t = m.build_impl(&mut alloc).unwrap();
                let vpn = Vpn::new(0x1234);
                t.map(vpn, &mut alloc);
                t.walk_path(vpn).unwrap().sequential_depth()
            })
            .collect();
        // Radix=4, ECH=1 (parallel), HugePage=3, NDPage=3.
        assert_eq!(depths, vec![4, 1, 3, 3]);
    }
}
