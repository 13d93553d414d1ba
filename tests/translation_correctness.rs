//! Cross-crate integration: the MMU (TLB + PWC + walker) must agree with
//! the page tables it fronts, for every design.

use ndp_mmu::tlb::TlbHierarchy;
use ndp_mmu::walker::PageTableWalker;
use ndp_types::{Asid, PageSize, Pfn, Vpn};
use ndpage::alloc::FrameAllocator;
use ndpage::table::PageTable;
use ndpage::Mechanism;

/// Pushing a table's translations through the TLB hierarchy and reading
/// them back must be lossless — including fractured 2 MB mappings.
#[test]
fn tlb_round_trips_every_design() {
    for mechanism in Mechanism::REAL {
        let mut alloc = FrameAllocator::new(8 << 30);
        let mut table = mechanism.build_impl(&mut alloc).expect("real");
        let mut tlb = TlbHierarchy::table1();

        let vpns: Vec<Vpn> = (0..64u64).map(|i| Vpn::new(i * 104_729)).collect();
        for &vpn in &vpns {
            table.map(vpn, &mut alloc);
            let tr = table.translate(vpn).expect("mapped");
            let base = match tr.size {
                PageSize::Size4K => tr.pfn,
                PageSize::Size2M => Pfn::new(tr.pfn.as_u64() - vpn.l1_index() as u64),
            };
            tlb.fill(Asid::ZERO, vpn, base, tr.size);
            let hit = tlb.lookup(Asid::ZERO, vpn).hit.unwrap_or_else(|| {
                panic!("{mechanism}: fresh fill must hit");
            });
            assert_eq!(
                hit.pfn, tr.pfn,
                "{mechanism}: TLB returned a different frame for {vpn}"
            );
        }
    }
}

/// Walker plans must fetch a subset of the table's declared walk path and
/// never invent addresses.
#[test]
fn walker_plans_are_subsets_of_walk_paths() {
    for mechanism in Mechanism::REAL {
        let mut alloc = FrameAllocator::new(8 << 30);
        let mut table = mechanism.build_impl(&mut alloc).expect("real");
        let mut walker = if mechanism.uses_pwc() {
            PageTableWalker::with_pwcs()
        } else {
            PageTableWalker::without_pwcs()
        };

        for i in 0..500u64 {
            let vpn = Vpn::new(i * 7919);
            table.map(vpn, &mut alloc);
            let path = table.walk_path(vpn).expect("mapped");
            let plan = walker.plan(Asid::ZERO, vpn, &path);
            let path_addrs: Vec<u64> = path.steps().iter().map(|s| s.addr.as_u64()).collect();
            let fetched: usize = plan.memory_fetches();
            assert!(
                fetched + plan.pwc_skips as usize == path.len(),
                "{mechanism}: every step is either fetched or PWC-skipped"
            );
            for round in &plan.rounds {
                for fetch in round {
                    assert!(
                        path_addrs.contains(&fetch.addr.as_u64()),
                        "{mechanism}: plan fetched an address outside the walk path"
                    );
                }
            }
        }
    }
}

/// The bypass policy's recognition contract: every address a walker could
/// fetch lies in an OS-marked PTE frame; no data frame is ever marked.
#[test]
fn bypass_recognition_is_sound_and_complete() {
    for mechanism in Mechanism::REAL {
        let mut alloc = FrameAllocator::new(8 << 30);
        let mut table = mechanism.build_impl(&mut alloc).expect("real");
        let mut data_frames = Vec::new();
        for i in 0..2000u64 {
            let vpn = Vpn::new(i * 613);
            table.map(vpn, &mut alloc);
            data_frames.push(table.translate(vpn).expect("mapped").pfn);
        }
        for i in 0..2000u64 {
            let vpn = Vpn::new(i * 613);
            for step in table.walk_path(vpn).expect("mapped").steps() {
                assert!(
                    alloc.is_table_frame(step.addr.pfn()),
                    "{mechanism}: PTE fetch not recognised as metadata"
                );
            }
        }
        for pfn in data_frames {
            assert!(
                !alloc.is_table_frame(pfn),
                "{mechanism}: data frame wrongly marked as PTE region"
            );
        }
    }
}

/// PWC filtering must never change *what* a walk resolves — only how many
/// memory fetches it takes (paper §V-C).
#[test]
fn pwcs_preserve_translation_results() {
    let mut alloc = FrameAllocator::new(4 << 30);
    let mut table = Mechanism::NdPage.build_impl(&mut alloc).expect("real");
    let mut with = PageTableWalker::with_pwcs();
    let mut without = PageTableWalker::without_pwcs();

    for i in 0..1000u64 {
        let vpn = Vpn::new(i * 313);
        table.map(vpn, &mut alloc);
        let path = table.walk_path(vpn).expect("mapped");
        let plan_with = with.plan(Asid::ZERO, vpn, &path);
        let plan_without = without.plan(Asid::ZERO, vpn, &path);
        assert!(plan_with.memory_fetches() <= plan_without.memory_fetches());
        assert_eq!(plan_without.memory_fetches(), path.len());
    }
    assert!(
        with.stats().pwc_skips > 0,
        "PWCs must actually absorb upper-level fetches"
    );
}

/// The design-space argument of §V-B, quantified: with warm PWCs, the
/// bottom-flattened table (NDPage) sends ~1 PTE fetch per walk to memory,
/// while a top-flattened variant still sends ~2 — because the step it
/// merged away was already absorbed by the near-perfect upper-level PWCs.
#[test]
fn bottom_flattening_beats_top_flattening_under_pwcs() {
    use ndpage::tree::{Tree, NDPAGE, TOP_FLATTENED};

    let mut alloc = FrameAllocator::new(8 << 30);
    let mut bottom = Tree::new(&NDPAGE, &mut alloc);
    let mut top = Tree::new(&TOP_FLATTENED, &mut alloc);
    let mut walker_bottom = PageTableWalker::with_pwcs();
    let mut walker_top = PageTableWalker::with_pwcs();

    let vpns: Vec<Vpn> = (0..5_000u64).map(|i| Vpn::new(i * 613)).collect();
    for &vpn in &vpns {
        bottom.map(vpn, &mut alloc);
        top.map(vpn, &mut alloc);
    }
    let (mut fetches_bottom, mut fetches_top) = (0usize, 0usize);
    for &vpn in &vpns {
        fetches_bottom += walker_bottom
            .plan(Asid::ZERO, vpn, &bottom.walk_path(vpn).expect("mapped"))
            .memory_fetches();
        fetches_top += walker_top
            .plan(Asid::ZERO, vpn, &top.walk_path(vpn).expect("mapped"))
            .memory_fetches();
    }
    let per_walk_bottom = fetches_bottom as f64 / vpns.len() as f64;
    let per_walk_top = fetches_top as f64 / vpns.len() as f64;
    assert!(
        per_walk_bottom < 1.2,
        "bottom-flattened: ~1 fetch/walk, got {per_walk_bottom}"
    );
    assert!(
        per_walk_top > 1.6,
        "top-flattened keeps the uncacheable PL2+PL1 fetches, got {per_walk_top}"
    );
}
