//! Property-based tests of the page-table designs' core invariants
//! (the contract documented on [`ndpage::table::PageTable`]).

use ndp_types::{PtLevel, Vpn};
use ndpage::alloc::FrameAllocator;
use ndpage::cuckoo::ElasticCuckooTable;
use ndpage::table::{PageTable, PageTableKind, RangeMapOutcome};
use ndpage::tree::{Tree, LAYOUTS};
use ndpage::{Mechanism, PageTableImpl};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// Arbitrary VPNs within a 16 GB virtual window (plenty of level variety).
fn arb_vpn() -> impl Strategy<Value = u64> {
    0u64..(16u64 << 30 >> 12)
}

/// The designs under test: every tree layout, then ECH.
const DESIGNS: usize = LAYOUTS.len() + 1;

/// Builds design number `design` (see [`DESIGNS`]) and its display name.
fn build(design: usize, alloc: &mut FrameAllocator) -> (&'static str, PageTableImpl) {
    match LAYOUTS.get(design) {
        Some(layout) => (layout.name, PageTableImpl::Tree(Tree::new(layout, alloc))),
        None => ("ECH", PageTableImpl::Ech(ElasticCuckooTable::new(alloc))),
    }
}

fn for_each_design(
    mut f: impl FnMut(&str, &mut FrameAllocator, PageTableImpl) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    for design in 0..DESIGNS {
        let mut alloc = FrameAllocator::new(8 << 30);
        let (name, table) = build(design, &mut alloc);
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
    /// builds — same translations, same fault totals, same occupancy —
    /// since the simulator's init phase relies on the fast path.
    #[test]
    fn map_range_matches_per_page_maps(
        starts in vec(arb_vpn(), 1..12),
        lens in vec(1u64..1200, 1..12),
    ) {
        for design in 0..DESIGNS {
            let mut alloc_a = FrameAllocator::new(8 << 30);
            let mut alloc_b = FrameAllocator::new(8 << 30);
            let (name, mut by_range) = build(design, &mut alloc_a);
            let (_, mut by_page) = build(design, &mut alloc_b);
            let mut range_faults = (0u64, 0u64, 0u64);
            let mut page_faults = (0u64, 0u64, 0u64);
            for (&start, &len) in starts.iter().zip(&lens) {
                let first = Vpn::new(start);
                let o = by_range.map_range(first, len, &mut alloc_a);
                range_faults.0 += o.minor_4k;
                range_faults.1 += o.minor_2m;
                range_faults.2 += o.fallback;
                for p in 0..len {
                    match by_page.map(first.add(p), &mut alloc_b).fault {
                        Some(ndpage::table::FaultKind::Minor4K) => page_faults.0 += 1,
                        Some(ndpage::table::FaultKind::Minor2M) => page_faults.1 += 1,
                        Some(ndpage::table::FaultKind::Fallback4K) => page_faults.2 += 1,
                        None => {}
                    }
                }
            }
            prop_assert_eq!(range_faults, page_faults, "{}", name);
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

    /// Planning a range and applying the plan must build exactly what
    /// `map_range` builds — same translations, frames, table storage and
    /// fault totals — for every design that plans; the machine's premap
    /// splits `map_range` this way. Designs that decline to plan are the
    /// huge-page and hashed tables.
    #[test]
    fn plan_then_apply_matches_map_range(
        starts in vec(arb_vpn(), 1..12),
        lens in vec(1u64..1200, 1..12),
    ) {
        for design in 0..DESIGNS {
            let mut alloc_a = FrameAllocator::new(8 << 30);
            let mut alloc_b = FrameAllocator::new(8 << 30);
            let (name, mut planned) = build(design, &mut alloc_a);
            let (_, mut direct) = build(design, &mut alloc_b);
            let mut plan_totals = RangeMapOutcome::default();
            let mut direct_totals = RangeMapOutcome::default();
            for (&start, &len) in starts.iter().zip(&lens) {
                let first = Vpn::new(start);
                let Some(plan) = planned.plan_range(first, len, &mut alloc_a) else {
                    prop_assert!(
                        matches!(planned.kind(), PageTableKind::HugePage | PageTableKind::ElasticCuckoo),
                        "{} declined to plan", name
                    );
                    break;
                };
                prop_assert_eq!(plan.pages(), plan.outcome.minor_4k, "{}", name);
                planned.apply_plan(&plan);
                plan_totals.absorb_range(plan.outcome);
                direct_totals.absorb_range(direct.map_range(first, len, &mut alloc_b));
            }
            prop_assert_eq!(plan_totals, direct_totals, "{}", name);
            prop_assert_eq!(alloc_a.frames_used(), alloc_b.frames_used(), "{}", name);
            prop_assert_eq!(planned.mapped_pages(), direct.mapped_pages(), "{}", name);
            prop_assert_eq!(planned.table_bytes(), direct.table_bytes(), "{}", name);
            for (&start, &len) in starts.iter().zip(&lens) {
                for p in 0..len {
                    let vpn = Vpn::new(start).add(p);
                    prop_assert_eq!(planned.translate(vpn), direct.translate(vpn), "{} {:?}", name, vpn);
                }
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
