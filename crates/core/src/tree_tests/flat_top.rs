//! Unit tests of the [`TOP_FLATTENED`](crate::tree::TOP_FLATTENED) layout.

#[cfg(test)]
mod tests {
    use crate::alloc::FrameAllocator;
    use crate::table::PageTable;
    use crate::tree::{Tree, NDPAGE, TOP_FLATTENED};
    use ndp_types::addr::PAGE_SIZE;
    use ndp_types::{PtLevel, Vpn};

    fn setup() -> (FrameAllocator, Tree) {
        let mut alloc = FrameAllocator::new(2 << 30);
        let table = Tree::new(&TOP_FLATTENED, &mut alloc);
        (alloc, table)
    }

    #[test]
    fn map_translate_round_trip() {
        let (mut alloc, mut t) = setup();
        let vpn = Vpn::new(0xdead_beef);
        assert!(t.map(vpn, &mut alloc).newly_mapped);
        assert!(t.translate(vpn).is_some());
        assert!(!t.map(vpn, &mut alloc).newly_mapped);
        assert_eq!(t.mapped_pages(), 1);
        assert!(t.translate(Vpn::new(1)).is_none());
    }

    #[test]
    fn walk_is_three_steps_but_keeps_bottom_levels() {
        let (mut alloc, mut t) = setup();
        let vpn = Vpn::new(0x12_3456);
        t.map(vpn, &mut alloc);
        let path = t.walk_path(vpn).unwrap();
        assert_eq!(path.sequential_depth(), 3);
        let levels: Vec<PtLevel> = path.steps().iter().map(|s| s.level).collect();
        assert_eq!(levels, vec![PtLevel::L3, PtLevel::L2, PtLevel::L1]);
    }

    #[test]
    fn same_depth_as_bottom_flattened_but_different_levels() {
        let mut alloc = FrameAllocator::new(2 << 30);
        let mut top = Tree::new(&TOP_FLATTENED, &mut alloc);
        let mut bottom = Tree::new(&NDPAGE, &mut alloc);
        let vpn = Vpn::new(0xabcdef);
        top.map(vpn, &mut alloc);
        bottom.map(vpn, &mut alloc);
        let tp = top.walk_path(vpn).unwrap();
        let bp = bottom.walk_path(vpn).unwrap();
        assert_eq!(tp.sequential_depth(), bp.sequential_depth());
        // Top-flattening keeps the poorly-cached PL1 access...
        assert!(tp.steps().iter().any(|s| s.level == PtLevel::L1));
        // ...bottom-flattening eliminates it.
        assert!(bp.steps().iter().all(|s| s.level != PtLevel::L1));
    }

    #[test]
    fn root_spans_whole_address_space() {
        let (mut alloc, mut t) = setup();
        // VPNs a full 512 GB apart still live in the single root node.
        let a = Vpn::new(0);
        let b = Vpn::new((512u64 << 30) >> 12);
        t.map(a, &mut alloc);
        let o = t.map(b, &mut alloc);
        assert_eq!(o.tables_allocated, 2, "fresh PL2+PL1 but no new root");
        assert!(t.translate(a).is_some() && t.translate(b).is_some());
    }

    #[test]
    fn walk_addresses_in_table_frames() {
        let (mut alloc, mut t) = setup();
        let vpn = Vpn::new(0x7777);
        t.map(vpn, &mut alloc);
        for step in t.walk_path(vpn).unwrap().steps() {
            assert!(alloc.is_table_frame(step.addr.pfn()));
        }
    }

    #[test]
    fn occupancy_reports_merged_root_sparse() {
        let (mut alloc, mut t) = setup();
        for i in 0..512u64 {
            t.map(Vpn::new(i), &mut alloc);
        }
        let occ = t.occupancy();
        // One 2 MB region mapped: the giant root holds a single entry.
        assert!(occ.level(PtLevel::L3).unwrap().rate() < 1e-4);
        assert!((occ.level(PtLevel::L1).unwrap().rate() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn table_bytes_dominated_by_the_2mb_root() {
        let (mut alloc, mut t) = setup();
        t.map(Vpn::new(0), &mut alloc);
        assert_eq!(t.table_bytes(), 2 * 1024 * 1024 + 2 * PAGE_SIZE);
    }
}
