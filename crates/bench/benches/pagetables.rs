//! Criterion microbenches for the page-table designs — every tree layout
//! and ECH: per-page `map`, region-at-a-time `map_range` (the premap
//! path), `translate`, and `translate_and_walk` (the simulator's per-miss
//! call) — plus a whole machine's premap of eight ECH tables. Supports
//! the Fig 12–14 mechanism comparisons with component-level numbers.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ndp_sim::{Machine, SimConfig, SystemKind};
use ndp_types::Vpn;
use ndp_workloads::WorkloadId;
use ndpage::alloc::FrameAllocator;
use ndpage::cuckoo::ElasticCuckooTable;
use ndpage::table::PageTable;
use ndpage::tree::{Tree, LAYOUTS};
use ndpage::{Mechanism, PageTableImpl};

const PAGES: u64 = 50_000;

/// Pages per `map_range` call: a 2 MB region's worth, four times over.
const RANGE_PAGES: u64 = 4 * 512;

/// The designs under test, by name: every tree layout, then ECH.
fn designs() -> impl Iterator<Item = &'static str> {
    LAYOUTS.iter().map(|l| l.name).chain(["ECH"])
}

fn build(name: &str, alloc: &mut FrameAllocator) -> PageTableImpl {
    match LAYOUTS.iter().find(|l| l.name == name) {
        Some(layout) => PageTableImpl::Tree(Tree::new(layout, alloc)),
        None => PageTableImpl::Ech(ElasticCuckooTable::new(alloc)),
    }
}

fn mapped_table(name: &str) -> (FrameAllocator, PageTableImpl) {
    let mut alloc = FrameAllocator::new(8 << 30);
    let mut table = build(name, &mut alloc);
    for i in 0..PAGES {
        table.map(Vpn::new(i * 613), &mut alloc);
    }
    (alloc, table)
}

fn bench_map(c: &mut Criterion) {
    let mut group = c.benchmark_group("pagetable_map");
    for name in designs() {
        group.bench_with_input(BenchmarkId::from_parameter(name), name, |b, name| {
            b.iter_batched(
                || {
                    let mut alloc = FrameAllocator::new(8 << 30);
                    let table = build(name, &mut alloc);
                    (alloc, table, 0u64)
                },
                |(mut alloc, mut table, mut i)| {
                    for _ in 0..64 {
                        table.map(Vpn::new(i * 613), &mut alloc);
                        i += 1;
                    }
                    black_box(table.mapped_pages())
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_map_range(c: &mut Criterion) {
    let mut group = c.benchmark_group("pagetable_map_range");
    for name in designs() {
        group.bench_with_input(BenchmarkId::from_parameter(name), name, |b, name| {
            b.iter_batched(
                || {
                    let mut alloc = FrameAllocator::new(8 << 30);
                    let table = build(name, &mut alloc);
                    (alloc, table)
                },
                |(mut alloc, mut table)| {
                    black_box(table.map_range(Vpn::new(0x40_0000), RANGE_PAGES, &mut alloc))
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_translate(c: &mut Criterion) {
    let mut group = c.benchmark_group("pagetable_translate");
    for name in designs() {
        let (_alloc, table) = mapped_table(name);
        group.bench_with_input(BenchmarkId::from_parameter(name), &table, |b, table| {
            let mut i = 0u64;
            b.iter(|| {
                i = (i + 1) % PAGES;
                black_box(table.translate(Vpn::new(i * 613)))
            });
        });
    }
    group.finish();
}

fn bench_translate_and_walk(c: &mut Criterion) {
    let mut group = c.benchmark_group("pagetable_translate_and_walk");
    for name in designs() {
        let (_alloc, table) = mapped_table(name);
        group.bench_with_input(BenchmarkId::from_parameter(name), &table, |b, table| {
            let mut i = 0u64;
            b.iter(|| {
                i = (i + 1) % PAGES;
                black_box(table.translate_and_walk(Vpn::new(i * 613)))
            });
        });
    }
    group.finish();
}

/// `Machine::new` for an 8-core NDP machine under ECH at the calibration
/// grid's quick scale: eight 256 MiB address spaces premapped into eight
/// elastic cuckoo tables (shape the one layout the eight same-region
/// address spaces share, then per table replay the frame allocations in
/// schedule order and write the leaf PTEs).
fn bench_premap(c: &mut Criterion) {
    let mut group = c.benchmark_group("pagetable_premap");
    group.sample_size(10);
    group.bench_function("ECH_x8", |b| {
        b.iter(|| {
            let cfg = SimConfig::new(SystemKind::Ndp, 8, Mechanism::Ech, WorkloadId::Rnd)
                .with_footprint(256 << 20);
            black_box(Machine::new(cfg))
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_map, bench_map_range, bench_translate, bench_translate_and_walk, bench_premap
}
criterion_main!(benches);
