//! Criterion microbenches for the MMU: TLB lookups/fills, PWC probes and
//! full walk planning for Radix, NDPage and ECH (backs the §V-C PWC
//! analysis).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkGroup, Criterion};
use ndp_mmu::pwc::PwcSet;
use ndp_mmu::tlb::TlbHierarchy;
use ndp_mmu::walker::PageTableWalker;
use ndp_types::{Asid, PageSize, Pfn, PtLevel, Vpn};
use ndpage::alloc::FrameAllocator;
use ndpage::cuckoo::ElasticCuckooTable;
use ndpage::table::PageTable;
use ndpage::tree::{Tree, NDPAGE, RADIX};
use ndpage::walk::WalkPath;

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

/// `vpns` mapped in a fresh `table`, with each one's walk path.
fn walks<T: PageTable>(
    mut table: T,
    alloc: &mut FrameAllocator,
    vpns: &[Vpn],
) -> Vec<(Vpn, WalkPath)> {
    for &vpn in vpns {
        table.map(vpn, alloc);
    }
    vpns.iter()
        .map(|&v| (v, table.walk_path(v).expect("mapped")))
        .collect()
}

/// Plans `walks` round-robin through `walker`, one walk per iteration.
fn bench_plans(
    group: &mut BenchmarkGroup<'_>,
    name: &str,
    mut walker: PageTableWalker,
    walks: &[(Vpn, WalkPath)],
) {
    group.bench_function(name, |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % walks.len();
            let (vpn, path) = &walks[i];
            black_box(walker.plan(Asid::ZERO, *vpn, path))
        });
    });
}

/// Walk planning over 10,000 pages spread across many 2 MB regions:
/// Radix and NDPage through their PWCs, ECH's parallel way probes
/// without them.
fn bench_walker(c: &mut Criterion) {
    let mut alloc = FrameAllocator::new(4 << 30);
    let vpns: Vec<Vpn> = (0..10_000u64).map(|i| Vpn::new(i * 613)).collect();
    let radix = walks(Tree::new(&RADIX, &mut alloc), &mut alloc, &vpns);
    let ndpage = walks(Tree::new(&NDPAGE, &mut alloc), &mut alloc, &vpns);
    let ech = walks(ElasticCuckooTable::new(&mut alloc), &mut alloc, &vpns);

    let mut group = c.benchmark_group("walker");
    bench_plans(
        &mut group,
        "plan_radix_walks",
        PageTableWalker::with_pwcs(),
        &radix,
    );
    bench_plans(
        &mut group,
        "plan_ndpage",
        PageTableWalker::with_pwcs(),
        &ndpage,
    );
    bench_plans(
        &mut group,
        "plan_ech_no_pwc",
        PageTableWalker::without_pwcs(),
        &ech,
    );
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(1000);
    targets = bench_tlb, bench_pwc, bench_walker
}
criterion_main!(benches);
