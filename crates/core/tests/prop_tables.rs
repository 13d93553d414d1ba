//! Property-based tests of the page-table designs' core invariants
//! (the contract documented on [`ndpage::table::PageTable`]).

use ndp_types::{PtLevel, Vpn};
use ndpage::alloc::FrameAllocator;
use ndpage::cuckoo::ElasticCuckooTable;
use ndpage::table::{PageTable, PageTableKind, RangeMapOutcome};
use ndpage::tree::{Tree, HUGE_PAGE, LAYOUTS};
use ndpage::{Mechanism, PageTableImpl};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// Arbitrary VPNs within a 16 GB virtual window (plenty of level variety).
fn arb_vpn() -> impl Strategy<Value = u64> {
    0u64..(16u64 << 30 >> 12)
}

/// The designs under test: every tree layout, ECH, then Huge Page on a
/// [`SMALL_POOL`]-byte contiguity pool. On the 8 GB pool the others get,
/// Huge Page never falls back; on the small one, a test's first few 2 MB
/// regions take huge leaves and the rest THP-fallback 4 KB pages.
const DESIGNS: usize = LAYOUTS.len() + 2;

/// The contiguity pool of the last design: eight 2 MB regions, less the
/// erosion of any 4 KB pages mapped before them.
const SMALL_POOL: u64 = 16 << 20;

/// Builds design number `design` (see [`DESIGNS`]) on a fresh 8 GB
/// allocator, returning its display name, the allocator and the table.
fn build(design: usize) -> (&'static str, FrameAllocator, PageTableImpl) {
    let ech = LAYOUTS.len();
    let mut alloc = if design > ech {
        FrameAllocator::with_contig_pool(8 << 30, SMALL_POOL)
    } else {
        FrameAllocator::new(8 << 30)
    };
    let (name, table) = match LAYOUTS.get(design) {
        Some(layout) => (
            layout.name,
            PageTableImpl::Tree(Tree::new(layout, &mut alloc)),
        ),
        None if design == ech => (
            "ECH",
            PageTableImpl::Ech(ElasticCuckooTable::new(&mut alloc)),
        ),
        None => (
            "Huge Page, small pool",
            PageTableImpl::Tree(Tree::new(&HUGE_PAGE, &mut alloc)),
        ),
    };
    (name, alloc, table)
}

fn for_each_design(
    mut f: impl FnMut(&str, &mut FrameAllocator, PageTableImpl) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    for design in 0..DESIGNS {
        let (name, mut alloc, table) = build(design);
        f(name, &mut alloc, table)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After `map`, `translate` must succeed and keep returning the same
    /// frame forever (stability), for every design.
    #[test]
    fn translate_after_map_is_stable(vpns in vec(arb_vpn(), 1..200)) {
        for_each_design(|name, alloc, mut table| {
            let mut first_seen: HashMap<u64, u64> = HashMap::new();
            for &raw in &vpns {
                let vpn = Vpn::new(raw);
                table.map(vpn, alloc);
                let tr = table.translate(vpn).unwrap_or_else(
                    || panic!("{name}: mapped vpn {raw:#x} must translate"));
                let prev = first_seen.entry(raw).or_insert(tr.pfn.as_u64());
                prop_assert_eq!(
                    *prev, tr.pfn.as_u64(),
                    "{}: translation of {:#x} changed", name, raw
                );
            }
            // Re-check everything at the end (no later map disturbed it).
            for (&raw, &pfn) in &first_seen {
                prop_assert_eq!(
                    table.translate(Vpn::new(raw)).unwrap().pfn.as_u64(),
                    pfn,
                    "{}: {:#x} disturbed by later maps", name, raw
                );
            }
            Ok(())
        })?;
    }

    /// Distinct 4 KB pages never share a physical frame (within a design;
    /// huge pages share a *region* but distinct VPNs get distinct frames).
    #[test]
    fn distinct_vpns_get_distinct_frames(vpns in vec(arb_vpn(), 1..200)) {
        for_each_design(|name, alloc, mut table| {
            let unique: HashSet<u64> = vpns.iter().copied().collect();
            let mut frames = HashSet::new();
            for &raw in &unique {
                let vpn = Vpn::new(raw);
                table.map(vpn, alloc);
                let pfn = table.translate(vpn).expect("mapped").pfn.as_u64();
                prop_assert!(
                    frames.insert(pfn),
                    "{}: frame {:#x} assigned twice", name, pfn
                );
            }
            Ok(())
        })?;
    }

    /// Walk paths exist exactly for mapped pages, have non-decreasing
    /// parallel groups, and touch only frames tagged as page-table storage
    /// (the property the bypass hardware relies on).
    #[test]
    fn walk_paths_are_well_formed(vpns in vec(arb_vpn(), 1..150), probe in arb_vpn()) {
        for_each_design(|name, alloc, mut table| {
            for &raw in &vpns {
                table.map(Vpn::new(raw), alloc);
            }
            for &raw in &vpns {
                let path = table.walk_path(Vpn::new(raw)).unwrap_or_else(
                    || panic!("{name}: mapped vpn needs a walk path"));
                prop_assert!(!path.is_empty());
                prop_assert!(path.sequential_depth() <= path.len());
                for step in path.steps() {
                    prop_assert!(
                        alloc.is_table_frame(step.addr.pfn()),
                        "{}: walk step {:?} outside table frames", name, step
                    );
                }
            }
            // A Huge Page design maps whole 2 MB regions, so only probe
            // VPNs whose region is untouched are guaranteed unmapped.
            let probe_region = probe >> 9;
            if vpns.iter().all(|v| (v >> 9) != probe_region) {
                prop_assert!(
                    table.translate(Vpn::new(probe)).is_none(),
                    "{}: unmapped vpn must not translate", name
                );
                prop_assert!(table.walk_path(Vpn::new(probe)).is_none());
            }
            Ok(())
        })?;
    }

    /// Range mapping must build exactly the structure per-page mapping
    /// builds — same translations, same fault totals and allocator
    /// statistics, same storage — since the simulator's init phase relies
    /// on the fast path.
    #[test]
    fn map_range_matches_per_page_maps(
        starts in vec(arb_vpn(), 1..12),
        lens in vec(1u64..1200, 1..12),
    ) {
        for design in 0..DESIGNS {
            let (name, mut alloc_a, mut by_range) = build(design);
            let (_, mut alloc_b, mut by_page) = build(design);
            let mut range_totals = RangeMapOutcome::default();
            let mut page_totals = RangeMapOutcome::default();
            for (&start, &len) in starts.iter().zip(&lens) {
                let first = Vpn::new(start);
                range_totals.absorb_range(by_range.map_range(first, len, &mut alloc_a));
                for p in 0..len {
                    page_totals.absorb(by_page.map(first.add(p), &mut alloc_b));
                }
            }
            prop_assert_eq!(range_totals, page_totals, "{}", name);
            prop_assert_eq!(alloc_a.stats(), alloc_b.stats(), "{}", name);
            prop_assert_eq!(by_range.mapped_pages(), by_page.mapped_pages(), "{}", name);
            prop_assert_eq!(by_range.table_bytes(), by_page.table_bytes(), "{}", name);
            for (&start, &len) in starts.iter().zip(&lens) {
                for p in 0..len {
                    let vpn = Vpn::new(start).add(p);
                    prop_assert_eq!(
                        by_range.translate(vpn),
                        by_page.translate(vpn),
                        "{} vpn {:?}",
                        name,
                        vpn
                    );
                }
            }
        }
    }

    /// Shaping a range, planning it and applying the plan must build
    /// exactly what a per-page `map` loop builds — same translations and
    /// walk addresses, frames, allocator statistics (failed 2 MB attempts
    /// included), table storage and fault totals — for every design; the
    /// machine's premap maps this way. The plan installs every 4 KB fault
    /// it counts, and nothing else: 2 MB leaves are written while planning.
    /// Ranges may overlap, so the tables also replay already-mapped pages.
    #[test]
    fn plan_then_apply_matches_per_page_maps(
        starts in vec(arb_vpn(), 1..12),
        lens in vec(1u64..1200, 1..12),
    ) {
        for design in 0..DESIGNS {
            let (name, mut alloc_a, mut planned) = build(design);
            let (_, mut alloc_b, mut by_page) = build(design);
            let mut plan_totals = RangeMapOutcome::default();
            let mut page_totals = RangeMapOutcome::default();
            for (&start, &len) in starts.iter().zip(&lens) {
                let first = Vpn::new(start);
                planned.shape_range(first, len);
                let plan = planned
                    .plan_range(first, len, &mut alloc_a)
                    .expect("every built-in design plans a shaped range");
                let four_k = plan.outcome.minor_4k + plan.outcome.fallback;
                prop_assert_eq!(plan.pages(), four_k, "{}", name);
                planned.apply_plan(&plan);
                plan_totals.absorb_range(plan.outcome);
                for p in 0..len {
                    page_totals.absorb(by_page.map(first.add(p), &mut alloc_b));
                }
            }
            prop_assert_eq!(plan_totals, page_totals, "{}", name);
            prop_assert_eq!(alloc_a.frames_used(), alloc_b.frames_used(), "{}", name);
            prop_assert_eq!(alloc_a.stats(), alloc_b.stats(), "{}", name);
            prop_assert_eq!(planned.mapped_pages(), by_page.mapped_pages(), "{}", name);
            prop_assert_eq!(planned.table_bytes(), by_page.table_bytes(), "{}", name);
            for (&start, &len) in starts.iter().zip(&lens) {
                for p in 0..len {
                    let vpn = Vpn::new(start).add(p);
                    prop_assert_eq!(
                        planned.translate_and_walk(vpn),
                        by_page.translate_and_walk(vpn),
                        "{} {:?}",
                        name,
                        vpn
                    );
                }
            }
        }
    }

    /// The hashed table's phased premap — shape every range, plan them in
    /// shape order, apply every plan — must build exactly what
    /// `map_range` builds over the same disjoint ranges, as the machine's
    /// premap relies on: walk addresses (slots and way bases), frames,
    /// allocator and cuckoo statistics, storage and occupancy. Single scattered pages make the table kick, which
    /// sequential keys never do.
    #[test]
    fn ech_shape_plan_apply_matches_map_range(
        spans in vec((arb_vpn(), 1u64..700), 1..24),
        scattered in vec(arb_vpn(), 0..6000),
    ) {
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for (start, len) in spans.into_iter().chain(scattered.into_iter().map(|v| (v, 1))) {
            if ranges.iter().all(|&(s, l)| start + len <= s || s + l <= start) {
                ranges.push((start, len));
            }
        }
        let mut alloc_a = FrameAllocator::new(64 << 30);
        let mut alloc_b = FrameAllocator::new(64 << 30);
        let mut phased = ElasticCuckooTable::new(&mut alloc_a);
        let mut direct = ElasticCuckooTable::new(&mut alloc_b);
        for &(start, len) in &ranges {
            phased.shape_range(Vpn::new(start), len);
        }
        let mut plans = Vec::new();
        let mut plan_totals = RangeMapOutcome::default();
        let mut direct_totals = RangeMapOutcome::default();
        for &(start, len) in &ranges {
            let plan = phased.plan_range(Vpn::new(start), len, &mut alloc_a);
            let plan = plan.expect("a shaped range plans");
            plan_totals.absorb_range(plan.outcome);
            plans.push(plan);
            direct_totals.absorb_range(direct.map_range(Vpn::new(start), len, &mut alloc_b));
        }
        for plan in &plans {
            phased.apply_plan(plan);
        }
        prop_assert_eq!(plan_totals, direct_totals);
        prop_assert_eq!(alloc_a.frames_used(), alloc_b.frames_used());
        prop_assert_eq!(alloc_a.stats(), alloc_b.stats());
        prop_assert_eq!(phased.stats(), direct.stats());
        prop_assert_eq!(phased.mapped_pages(), direct.mapped_pages());
        prop_assert_eq!(phased.table_bytes(), direct.table_bytes());
        prop_assert_eq!(phased.occupancy(), direct.occupancy());
        for &(start, len) in &ranges {
            for p in 0..len {
                let vpn = Vpn::new(start).add(p);
                prop_assert_eq!(phased.translate_and_walk(vpn), direct.translate_and_walk(vpn), "{:?}", vpn);
            }
        }
    }

    /// The single-descent combined lookup must equal the two separate
    /// calls exactly — the simulator's hot path relies on it.
    #[test]
    fn combined_lookup_matches_separate_calls(vpns in vec(arb_vpn(), 1..150), probe in arb_vpn()) {
        for_each_design(|name, alloc, mut table| {
            for &raw in &vpns {
                table.map(Vpn::new(raw), alloc);
            }
            for &raw in vpns.iter().chain([&probe]) {
                let vpn = Vpn::new(raw);
                let combined = table.translate_and_walk(vpn);
                let separate = table.translate(vpn).zip(table.walk_path(vpn));
                prop_assert_eq!(combined, separate, "{}", name);
            }
            Ok(())
        })?;
    }

    /// Mapping is idempotent: re-mapping changes nothing and reports
    /// `newly_mapped == false`.
    #[test]
    fn remap_is_idempotent(vpns in vec(arb_vpn(), 1..100)) {
        for_each_design(|name, alloc, mut table| {
            for &raw in &vpns {
                table.map(Vpn::new(raw), alloc);
            }
            let count = table.mapped_pages();
            for &raw in &vpns {
                let outcome = table.map(Vpn::new(raw), alloc);
                prop_assert!(
                    !outcome.newly_mapped,
                    "{}: remap of {:#x} claimed new mapping", name, raw
                );
            }
            prop_assert_eq!(table.mapped_pages(), count, "{}", name);
            Ok(())
        })?;
    }

    /// Occupancy accounting is consistent: valid entries never exceed
    /// capacity, and for the radix design the PL1 valid count equals the
    /// number of mapped pages.
    #[test]
    fn occupancy_is_consistent(vpns in vec(arb_vpn(), 1..200)) {
        for_each_design(|name, alloc, mut table| {
            let unique: HashSet<u64> = vpns.iter().copied().collect();
            for &raw in &unique {
                table.map(Vpn::new(raw), alloc);
            }
            let occ = table.occupancy();
            for (level, lo) in occ.iter() {
                prop_assert!(
                    lo.valid_entries <= lo.capacity,
                    "{}: {} over-occupied", name, level
                );
            }
            if table.kind() == PageTableKind::Radix4 {
                let l1 = occ.level(PtLevel::L1).expect("radix has PL1");
                prop_assert_eq!(l1.valid_entries, unique.len() as u64);
            }
            Ok(())
        })?;
    }

    /// The flattened design's walk is always exactly 3 sequential steps
    /// and the radix walk exactly 4 — the paper's headline structural
    /// difference — regardless of which pages are mapped.
    #[test]
    fn walk_depths_are_structural(vpns in vec(arb_vpn(), 1..100)) {
        let mut alloc = FrameAllocator::new(8 << 30);
        let mut flat = Mechanism::NdPage.build_impl(&mut alloc).unwrap();
        let mut radix = Mechanism::Radix.build_impl(&mut alloc).unwrap();
        let mut ech = Mechanism::Ech.build_impl(&mut alloc).unwrap();
        for &raw in &vpns {
            let vpn = Vpn::new(raw);
            flat.map(vpn, &mut alloc);
            radix.map(vpn, &mut alloc);
            ech.map(vpn, &mut alloc);
            prop_assert_eq!(flat.walk_path(vpn).unwrap().sequential_depth(), 3);
            prop_assert_eq!(radix.walk_path(vpn).unwrap().sequential_depth(), 4);
            prop_assert_eq!(ech.walk_path(vpn).unwrap().sequential_depth(), 1);
        }
    }
}
