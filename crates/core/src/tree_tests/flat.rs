//! Unit tests of the [`NDPAGE`](crate::tree::NDPAGE) layout.

#[cfg(test)]
mod tests {
    use crate::alloc::FrameAllocator;
    use crate::table::PageTable;
    use crate::tree::{Tree, NDPAGE, RADIX};
    use ndp_types::addr::{ENTRIES_PER_FLAT_NODE, PAGE_SIZE};
    use ndp_types::{PtLevel, VirtAddr, Vpn};

    /// Frames backing one flattened node (2 MB / 4 KB).
    const FLAT_NODE_FRAMES: u64 = (ENTRIES_PER_FLAT_NODE * 8) / PAGE_SIZE;

    fn setup() -> (FrameAllocator, Tree) {
        let mut alloc = FrameAllocator::new(2 << 30);
        let table = Tree::new(&NDPAGE, &mut alloc);
        (alloc, table)
    }

    #[test]
    fn map_translate_round_trip() {
        let (mut alloc, mut t) = setup();
        let vpn = VirtAddr::new(0x7f12_3456_7000).vpn();
        let o = t.map(vpn, &mut alloc);
        assert!(o.newly_mapped);
        assert_eq!(o.tables_allocated, 2); // one L3, one flat node
        assert!(t.translate(vpn).is_some());
        assert!(t.map(vpn, &mut alloc).fault.is_none());
    }

    #[test]
    fn walk_is_three_sequential_steps() {
        let (mut alloc, mut t) = setup();
        let vpn = Vpn::new(0xfeed_beef);
        t.map(vpn, &mut alloc);
        let path = t.walk_path(vpn).unwrap();
        assert_eq!(path.len(), 3);
        assert_eq!(path.sequential_depth(), 3);
        assert_eq!(path.steps()[2].level, PtLevel::FlatL2L1);
    }

    #[test]
    fn flat_node_spans_a_1gb_region() {
        let (mut alloc, mut t) = setup();
        // Two VPNs 512 MB apart share L3 entry? No: flat node covers 2^18
        // pages = 1 GB. Same L3 index → same flat node.
        let a = Vpn::new(0);
        let b = Vpn::new(ENTRIES_PER_FLAT_NODE - 1);
        let c = Vpn::new(ENTRIES_PER_FLAT_NODE); // next flat node
        t.map(a, &mut alloc);
        let o_b = t.map(b, &mut alloc);
        assert_eq!(o_b.tables_allocated, 0, "same flat node");
        let o_c = t.map(c, &mut alloc);
        assert_eq!(o_c.tables_allocated, 1, "new flat node");
    }

    #[test]
    fn walk_addresses_live_in_table_frames_and_flat_entry_offsets_work() {
        let (mut alloc, mut t) = setup();
        let vpn = Vpn::new(0x3_ffff); // maximal flat index
        t.map(vpn, &mut alloc);
        let path = t.walk_path(vpn).unwrap();
        for step in path.steps() {
            assert!(alloc.is_table_frame(step.addr.pfn()), "step {step:?}");
        }
        // The last step's offset within the flat node is index*8 bytes.
        let flat_step = path.steps()[2];
        let base = flat_step.addr.as_u64() & !((FLAT_NODE_FRAMES * PAGE_SIZE) - 1);
        assert_eq!(flat_step.addr.as_u64() - base, 0x3_ffff * 8);
    }

    #[test]
    fn same_translations_as_radix_for_same_mapping_order() {
        // Both designs must implement the same virtual→physical function
        // given the same allocator sequence is not required — but each must
        // be internally consistent: every mapped VPN translates to the frame
        // it was given at map time, and distinct VPNs get distinct frames.
        let mut alloc_a = FrameAllocator::new(1 << 30);
        let mut alloc_b = FrameAllocator::new(1 << 30);
        let mut flat = Tree::new(&NDPAGE, &mut alloc_a);
        let mut radix = Tree::new(&RADIX, &mut alloc_b);
        let vpns: Vec<Vpn> = (0..300u64).map(|i| Vpn::new(i * 104_729)).collect();
        for &v in &vpns {
            flat.map(v, &mut alloc_a);
            radix.map(v, &mut alloc_b);
        }
        let mut flat_frames = ndp_types::FastSet::default();
        for &v in &vpns {
            assert!(flat_frames.insert(flat.translate(v).unwrap().pfn));
            assert!(radix.translate(v).is_some());
        }
        assert_eq!(flat.mapped_pages(), radix.mapped_pages());
    }

    #[test]
    fn occupancy_reports_flat_level() {
        let (mut alloc, mut t) = setup();
        for i in 0..1000 {
            t.map(Vpn::new(i), &mut alloc);
        }
        let occ = t.occupancy();
        let flat = occ.level(PtLevel::FlatL2L1).unwrap();
        assert_eq!(flat.nodes, 1);
        assert_eq!(flat.valid_entries, 1000);
        assert!(occ.level(PtLevel::L2).is_none(), "no separate L2 level");
        assert!(occ.level(PtLevel::L1).is_none(), "no separate L1 level");
    }

    #[test]
    fn table_bytes_includes_2mb_flat_nodes() {
        let (mut alloc, mut t) = setup();
        t.map(Vpn::new(0), &mut alloc);
        // root (4K) + one L3 (4K) + one flat node (2M).
        assert_eq!(t.table_bytes(), 2 * PAGE_SIZE + 2 * 1024 * 1024);
    }

    #[test]
    fn plan_then_apply_matches_map_range() {
        let (mut alloc_a, mut planned) = setup();
        let (mut alloc_b, mut direct) = setup();
        // Straddles a 1 GB flat-node boundary so the plan spans two nodes.
        let first = Vpn::new(ENTRIES_PER_FLAT_NODE - 500);
        let plan = planned
            .plan_range(first, 1000, &mut alloc_a)
            .expect("flat plans");
        direct.map_range(first, 1000, &mut alloc_b);
        assert_eq!(alloc_a.frames_used(), alloc_b.frames_used());
        assert!(
            planned.translate(first).is_none(),
            "not visible before apply"
        );
        planned.apply_plan(&plan);
        assert_eq!(plan.outcome.minor_4k, 1000);
        assert!(plan.segments.len() >= 2, "boundary splits the run");
        assert_eq!(planned.mapped_pages(), direct.mapped_pages());
        for p in 0..1000 {
            let vpn = first.add(p);
            assert_eq!(planned.translate(vpn), direct.translate(vpn), "{vpn:?}");
        }
        assert_eq!(planned.table_bytes(), direct.table_bytes());
    }

    #[test]
    fn unmapped_is_none() {
        let (_, t) = setup();
        assert!(t.translate(Vpn::new(5)).is_none());
        assert!(t.walk_path(Vpn::new(5)).is_none());
    }
}
