//! Unit tests of the [`HUGE_PAGE`](crate::tree::HUGE_PAGE) layout.

#[cfg(test)]
mod tests {
    use crate::alloc::FrameAllocator;
    use crate::table::{FaultKind, PageTable};
    use crate::tree::{Tree, HUGE_PAGE};
    use ndp_types::{PageSize, PtLevel, VirtAddr, Vpn};

    fn setup(capacity: u64) -> (FrameAllocator, Tree) {
        let mut alloc = FrameAllocator::new(capacity);
        let table = Tree::new(&HUGE_PAGE, &mut alloc);
        (alloc, table)
    }

    #[test]
    fn maps_2mb_pages_while_contiguity_lasts() {
        let (mut alloc, mut t) = setup(1 << 30);
        let vpn = VirtAddr::new(0x4000_0000).vpn();
        let o = t.map(vpn, &mut alloc);
        assert_eq!(o.fault, Some(FaultKind::Minor2M));
        let tr = t.translate(vpn).unwrap();
        assert_eq!(tr.size, PageSize::Size2M);
        assert_eq!(t.mapped_pages(), 1, "one 2 MB mapping counts once");
    }

    #[test]
    fn pages_in_same_2mb_region_share_the_mapping() {
        let (mut alloc, mut t) = setup(1 << 30);
        let a = Vpn::new(512 * 10);
        let b = Vpn::new(512 * 10 + 5);
        assert!(t.map(a, &mut alloc).newly_mapped);
        assert!(!t.map(b, &mut alloc).newly_mapped);
        // Within the huge page, 4 KB frames are consecutive.
        let ta = t.translate(a).unwrap();
        let tb = t.translate(b).unwrap();
        assert_eq!(tb.pfn.as_u64() - ta.pfn.as_u64(), 5);
    }

    #[test]
    fn huge_walk_is_three_levels_fallback_is_four() {
        // Small memory: contiguity pool exhausts quickly.
        let (mut alloc, mut t) = setup(64 << 20);
        let mut saw_huge = false;
        let mut saw_fallback = false;
        for i in 0..32u64 {
            let vpn = Vpn::new(i * 512);
            let o = t.map(vpn, &mut alloc);
            match o.fault.unwrap() {
                FaultKind::Minor2M => {
                    saw_huge = true;
                    assert_eq!(t.walk_path(vpn).unwrap().len(), 3);
                }
                FaultKind::Fallback4K => {
                    saw_fallback = true;
                    assert_eq!(t.walk_path(vpn).unwrap().len(), 4);
                }
                FaultKind::Minor4K => panic!("huge table never minor-faults 4K"),
            }
        }
        assert!(saw_huge && saw_fallback, "both paths must be exercised");
        assert_eq!(t.mapped_pages(), 32, "one mapping per fresh region");
    }

    #[test]
    fn fallback_region_maps_individual_pages() {
        let (mut alloc, mut t) = setup(16 << 20); // tiny: fallback almost immediately
                                                  // Exhaust contiguity.
        let mut i = 0u64;
        loop {
            let o = t.map(Vpn::new(i * 512), &mut alloc);
            if o.fault == Some(FaultKind::Fallback4K) {
                break;
            }
            i += 1;
            assert!(i < 100);
        }
        // Next page in same (fallback) region also fallback-maps.
        let region = Vpn::new(i * 512);
        let o = t.map(region.add(1), &mut alloc);
        assert_eq!(o.fault, Some(FaultKind::Fallback4K));
        assert!(o.newly_mapped);
        assert_ne!(
            t.translate(region).unwrap().pfn,
            t.translate(region.add(1)).unwrap().pfn
        );
    }

    #[test]
    fn unmapped_is_none() {
        let (_, t) = setup(1 << 30);
        assert!(t.translate(Vpn::new(3)).is_none());
        assert!(t.walk_path(Vpn::new(3)).is_none());
    }

    #[test]
    fn walk_addresses_in_table_frames() {
        let (mut alloc, mut t) = setup(1 << 30);
        let vpn = Vpn::new(0x12345);
        t.map(vpn, &mut alloc);
        for step in t.walk_path(vpn).unwrap().steps() {
            assert!(alloc.is_table_frame(step.addr.pfn()));
        }
    }

    #[test]
    fn occupancy_has_no_l1_until_fallback() {
        let (mut alloc, mut t) = setup(1 << 30);
        t.map(Vpn::new(0), &mut alloc);
        assert!(t.occupancy().level(PtLevel::L1).is_none());
    }
}
