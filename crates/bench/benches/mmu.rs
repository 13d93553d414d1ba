//! Criterion microbenches for the MMU: TLB lookups/fills, PWC probes and
//! full walk planning (backs the §V-C PWC analysis).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ndp_mmu::pwc::PwcSet;
use ndp_mmu::tlb::TlbHierarchy;
use ndp_mmu::walker::PageTableWalker;
use ndp_types::{Asid, PageSize, Pfn, PtLevel, Vpn};
use ndpage::alloc::FrameAllocator;
use ndpage::table::PageTable;
use ndpage::tree::{Tree, RADIX};

fn bench_tlb(c: &mut Criterion) {
    let mut group = c.benchmark_group("tlb");
    group.bench_function("lookup_miss_heavy", |b| {
        let mut tlb = TlbHierarchy::table1();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(tlb.lookup(Asid::ZERO, Vpn::new(i.wrapping_mul(0x9E37_79B9))))
        });
    });
    group.bench_function("fill_then_hit", |b| {
        let mut tlb = TlbHierarchy::table1();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let vpn = Vpn::new(i % 32);
            tlb.fill(Asid::ZERO, vpn, Pfn::new(i), PageSize::Size4K);
            black_box(tlb.lookup(Asid::ZERO, vpn))
        });
    });
    group.finish();
}

fn bench_pwc(c: &mut Criterion) {
    let mut group = c.benchmark_group("pwc");
    group.bench_function("probe_fill_cycle", |b| {
        let mut set = PwcSet::enabled();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let vpn = Vpn::new(i.wrapping_mul(613));
            for level in [PtLevel::L4, PtLevel::L3, PtLevel::L2, PtLevel::L1] {
                if !set.access(level, Asid::ZERO, vpn) {
                    set.fill(level, Asid::ZERO, vpn);
                }
            }
            black_box(&set);
        });
    });
    group.finish();
}

fn bench_walker(c: &mut Criterion) {
    let mut alloc = FrameAllocator::new(4 << 30);
    let mut table = Tree::new(&RADIX, &mut alloc);
    let vpns: Vec<Vpn> = (0..10_000u64).map(|i| Vpn::new(i * 613)).collect();
    for &vpn in &vpns {
        table.map(vpn, &mut alloc);
    }
    let paths: Vec<_> = vpns
        .iter()
        .map(|&v| table.walk_path(v).expect("mapped"))
        .collect();

    let mut group = c.benchmark_group("walker");
    group.bench_function("plan_radix_walks", |b| {
        let mut walker = PageTableWalker::with_pwcs();
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % vpns.len();
            black_box(walker.plan(Asid::ZERO, vpns[i], &paths[i]))
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_tlb, bench_pwc, bench_walker
}
criterion_main!(benches);
