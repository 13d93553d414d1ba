//! Unit tests of the [`RADIX`](crate::tree::RADIX) layout.

#[cfg(test)]
mod tests {
    use crate::alloc::FrameAllocator;
    use crate::table::{FaultKind, PageTable, RangeMapOutcome};
    use crate::tree::{Tree, RADIX};
    use ndp_types::addr::PAGE_SIZE;
    use ndp_types::{PageSize, PtLevel, VirtAddr, Vpn};

    fn setup() -> (FrameAllocator, Tree) {
        let mut alloc = FrameAllocator::new(1 << 30);
        let table = Tree::new(&RADIX, &mut alloc);
        (alloc, table)
    }

    #[test]
    fn unmapped_translates_to_none() {
        let (_, t) = setup();
        assert!(t.translate(Vpn::new(0x1234)).is_none());
        assert!(t.walk_path(Vpn::new(0x1234)).is_none());
        assert_eq!(t.mapped_pages(), 0);
    }

    #[test]
    fn map_then_translate() {
        let (mut alloc, mut t) = setup();
        let vpn = VirtAddr::new(0x7f12_3456_7000).vpn();
        let o = t.map(vpn, &mut alloc);
        assert!(o.newly_mapped);
        assert_eq!(o.fault, Some(FaultKind::Minor4K));
        assert_eq!(o.tables_allocated, 3); // fresh L3, L2, L1 nodes
        let tr = t.translate(vpn).unwrap();
        assert_eq!(tr.size, PageSize::Size4K);
        assert_eq!(t.mapped_pages(), 1);
    }

    #[test]
    fn remap_is_idempotent() {
        let (mut alloc, mut t) = setup();
        let vpn = Vpn::new(42);
        let first = t.map(vpn, &mut alloc).fault;
        let tr1 = t.translate(vpn).unwrap();
        let again = t.map(vpn, &mut alloc);
        assert!(!again.newly_mapped);
        assert_eq!(first, Some(FaultKind::Minor4K));
        assert_eq!(t.translate(vpn).unwrap(), tr1);
        assert_eq!(t.mapped_pages(), 1);
    }

    #[test]
    fn neighbours_share_interior_nodes() {
        let (mut alloc, mut t) = setup();
        let a = Vpn::new(0x100);
        let b = Vpn::new(0x101); // same L1 node
        let o1 = t.map(a, &mut alloc);
        let o2 = t.map(b, &mut alloc);
        assert_eq!(o1.tables_allocated, 3);
        assert_eq!(o2.tables_allocated, 0);
        assert_ne!(t.translate(a).unwrap().pfn, t.translate(b).unwrap().pfn);
    }

    #[test]
    fn walk_has_four_sequential_levels() {
        let (mut alloc, mut t) = setup();
        let vpn = Vpn::new(0xabcdef);
        t.map(vpn, &mut alloc);
        let path = t.walk_path(vpn).unwrap();
        assert_eq!(path.len(), 4);
        assert_eq!(path.sequential_depth(), 4);
        let levels: Vec<PtLevel> = path.steps().iter().map(|s| s.level).collect();
        assert_eq!(levels, [PtLevel::L4, PtLevel::L3, PtLevel::L2, PtLevel::L1]);
    }

    #[test]
    fn walk_addresses_are_in_table_frames() {
        let (mut alloc, mut t) = setup();
        let vpn = Vpn::new(0x7777);
        t.map(vpn, &mut alloc);
        for step in t.walk_path(vpn).unwrap().steps() {
            assert!(alloc.is_table_frame(step.addr.pfn()), "step {step:?}");
        }
    }

    #[test]
    fn occupancy_dense_2mb_region_fills_l1() {
        let (mut alloc, mut t) = setup();
        // Map an entire 2 MB region: 512 consecutive pages.
        for i in 0..512 {
            t.map(Vpn::new(i), &mut alloc);
        }
        let occ = t.occupancy();
        let l1 = occ.level(PtLevel::L1).unwrap();
        assert_eq!(l1.nodes, 1);
        assert!((l1.rate() - 1.0).abs() < 1e-12, "L1 fully occupied");
        let l4 = occ.level(PtLevel::L4).unwrap();
        assert!(l4.rate() < 0.01, "root nearly empty");
    }

    #[test]
    fn table_bytes_counts_nodes() {
        let (mut alloc, mut t) = setup();
        assert_eq!(t.table_bytes(), PAGE_SIZE); // root only
        t.map(Vpn::new(0), &mut alloc);
        assert_eq!(t.table_bytes(), 4 * PAGE_SIZE);
    }

    #[test]
    fn map_range_matches_per_page_maps() {
        let (mut alloc_a, mut ranged) = setup();
        let (mut alloc_b, mut paged) = setup();
        // Two ranges with a gap, the second re-mapping part of the first
        // (so the present-page skip path is exercised mid-range).
        let spans = [(0u64, 700u64), (2000, 300), (400, 400)];
        let mut totals_a = RangeMapOutcome::default();
        let mut totals_b = RangeMapOutcome::default();
        for (start, pages) in spans {
            totals_a.absorb_range(ranged.map_range(Vpn::new(start), pages, &mut alloc_a));
            for p in 0..pages {
                totals_b.absorb(paged.map(Vpn::new(start + p), &mut alloc_b));
            }
        }
        assert_eq!(totals_a, totals_b);
        assert_eq!(alloc_a.frames_used(), alloc_b.frames_used());
        assert_eq!(alloc_a.contig_free_bytes(), alloc_b.contig_free_bytes());
        assert_eq!(ranged.mapped_pages(), paged.mapped_pages());
        for vpn in (0..800).chain(1990..2310).map(Vpn::new) {
            assert_eq!(ranged.translate(vpn), paged.translate(vpn), "{vpn:?}");
        }
    }

    #[test]
    fn plan_then_apply_matches_map_range() {
        let (mut alloc_a, mut planned) = setup();
        let (mut alloc_b, mut direct) = setup();
        let first = Vpn::new(0x3f0); // straddles a 2 MB region boundary
        let plan = planned
            .plan_range(first, 1000, &mut alloc_a)
            .expect("radix plans");
        // Allocator effects happen at plan time; visibility at apply time.
        assert_eq!(alloc_a.frames_used(), {
            direct.map_range(first, 1000, &mut alloc_b);
            alloc_b.frames_used()
        });
        assert!(
            planned.translate(first).is_none(),
            "not visible before apply"
        );
        assert_eq!(planned.mapped_pages(), 0);
        planned.apply_plan(&plan);
        assert_eq!(plan.outcome.minor_4k, 1000);
        assert_eq!(plan.pages(), 1000);
        assert_eq!(planned.mapped_pages(), direct.mapped_pages());
        for p in 0..1000 {
            let vpn = first.add(p);
            assert_eq!(planned.translate(vpn), direct.translate(vpn), "{vpn:?}");
        }
    }

    /// Maps enough pages through one table that its arena crosses the
    /// default slab capacity (2²¹ entries ≈ 4100 radix nodes) — the
    /// boundary that replaced the old single-slab arena's `u32`-offset
    /// panic ("PTE slab outgrew u32 offsets"), whose literal 2³²-entry
    /// trigger needs ~34 GB of slab and is exercised at reduced capacity
    /// in `arena::tests` instead.
    #[test]
    fn arena_crosses_default_slab_capacity_under_map_range() {
        let pages = (1u64 << 21) + 512;
        // Frames: `pages` data + ~4110 table + slack; 4 KB each.
        let mut alloc = FrameAllocator::new((pages + 8192) * PAGE_SIZE);
        let mut t = Tree::new(&RADIX, &mut alloc);
        let outcome = t.map_range(Vpn::new(0), pages, &mut alloc);
        assert_eq!(outcome.minor_4k, pages);
        assert_eq!(t.mapped_pages(), pages);
        for vpn in [0, 1 << 20, (1 << 21) - 1, pages - 1].map(Vpn::new) {
            let tr = t.translate(vpn).expect("mapped");
            assert_eq!(t.walk_path(vpn).map(|p| p.len()), Some(4), "{vpn:?}");
            assert!(tr.pfn.as_u64() > 0);
        }
        assert!(t.translate(Vpn::new(pages)).is_none());
    }

    #[test]
    fn distinct_pages_get_distinct_frames() {
        let (mut alloc, mut t) = setup();
        let mut seen = ndp_types::FastSet::default();
        for i in 0..1000u64 {
            let vpn = Vpn::new(i * 7919); // scattered
            t.map(vpn, &mut alloc);
            assert!(seen.insert(t.translate(vpn).unwrap().pfn));
        }
    }
}
