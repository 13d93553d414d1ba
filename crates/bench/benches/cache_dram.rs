//! Criterion microbenches for the memory substrate: private and shared
//! set-associative cache access/fill, DRAM device timing (scalar and overlap scheduling), and
//! controller contention (backs the Fig 6 contention analysis with
//! component-level numbers).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ndp_cache::hierarchy::CacheHierarchy;
use ndp_cache::set_assoc::{Access, CacheConfig, SetAssocCache};
use ndp_cache::shared::{InclusionPolicy, SharedCache, SharedConfig};
use ndp_mem::controller::MemoryController;
use ndp_mem::dram::DramConfig;
use ndp_types::{AccessClass, Asid, Cycles, PhysAddr, RwKind};

type HierarchyCtor = fn() -> CacheHierarchy;

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");
    let variants: [(&str, HierarchyCtor); 2] = [
        ("ndp_l1", CacheHierarchy::ndp),
        ("cpu_l1l2l3", || CacheHierarchy::cpu(4)),
    ];
    for (name, mk) in variants {
        group.bench_with_input(BenchmarkId::new("lookup_fill", name), &mk, |b, mk| {
            let mut caches = mk();
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                let addr = PhysAddr::new((i.wrapping_mul(0x9E37_79B9)) & 0x3FFF_FFC0);
                caches.resolve(addr, RwKind::Read, AccessClass::Data, |_, v| {
                    black_box(v);
                })
            });
        });
    }
    // A lone L1D missing on a scattered 16 MiB line stream, each miss
    // installed through the slot its lookup picked, so nearly every
    // install evicts; every fourth line is a LIP metadata fill.
    group.bench_function("fill_l1d", |b| {
        let mut l1 = SetAssocCache::new(CacheConfig::l1d());
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let class = if i.is_multiple_of(4) {
                AccessClass::Metadata
            } else {
                AccessClass::Data
            };
            let addr = PhysAddr::new((i.wrapping_mul(0x9E37_79B9)) & 0xFF_FFC0);
            if let Access::Miss(slot) = l1.access(addr, RwKind::Read, class) {
                black_box(l1.install(slot, addr, class, Asid::ZERO, i.is_multiple_of(8)));
            }
        });
    });
    // The CPU hierarchy's full miss path: a scattered 64 MiB line stream
    // nearly always misses L1, L2 and the 2 MB L3, then fills all three.
    group.bench_function("lookup_fill_cpu3", |b| {
        let mut caches = CacheHierarchy::cpu(1);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let addr = PhysAddr::new((i.wrapping_mul(0x9E37_79B9)) & 0x3FF_FFC0);
            caches.resolve(addr, RwKind::Read, AccessClass::Data, |_, v| {
                black_box(v);
            })
        });
    });
    group.finish();
}

/// The shared line array behind banked ports: an inclusive 512 KB,
/// 16-way, 8-bank L3 driven by the private benches' address stream.
fn bench_shared(c: &mut Criterion) {
    let mut group = c.benchmark_group("shared");
    group.bench_function("access_fill", |b| {
        let mut l3 = SharedCache::new(SharedConfig::l3(512, 16, 8, InclusionPolicy::Inclusive));
        let mut now = Cycles::ZERO;
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            now += Cycles::new(4);
            let addr = PhysAddr::new((i.wrapping_mul(0x9E37_79B9)) & 0x3FFF_FFC0);
            let look = l3.access(addr, RwKind::Read, AccessClass::Data, now);
            if let Some(slot) = look.slot {
                black_box(l3.install(slot, addr, AccessClass::Data, Asid::ZERO, false));
            }
        });
    });
    group.finish();
}

fn bench_dram(c: &mut Criterion) {
    let mut group = c.benchmark_group("dram");
    for (name, cfg) in [
        ("hbm2_vault", DramConfig::hbm2_vault()),
        ("ddr4_2400", DramConfig::ddr4_2400()),
    ] {
        group.bench_with_input(BenchmarkId::new("request", name), &cfg, |b, cfg| {
            let mut mc = MemoryController::new(*cfg);
            let mut now = Cycles::ZERO;
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                now += Cycles::new(100);
                black_box(mc.request(
                    PhysAddr::new((i.wrapping_mul(0xABCD_EF12)) & 0x3FFF_FFC0),
                    RwKind::Read,
                    AccessClass::Data,
                    now,
                ))
            });
        });
    }
    // Overlap (reservation-list) scheduling, as a windowed core drives
    // it: each request arrives up to 8 slots of latency ahead of a
    // steadily advancing issue clock, out of arrival order. Criterion's
    // warm-up books far more than 256 requests per bank, so the timed
    // iterations search full lists.
    group.bench_function(BenchmarkId::new("request_overlap", "hbm2_vault"), |b| {
        let mut mc = MemoryController::new(DramConfig::hbm2_vault()).with_overlap_scheduling();
        let mut now = Cycles::ZERO;
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            now += Cycles::new(12);
            let ahead = Cycles::new((i.wrapping_mul(5) % 8) * 40);
            black_box(mc.request(
                PhysAddr::new((i.wrapping_mul(0xABCD_EF12)) & 0x3FFF_FFC0),
                RwKind::Read,
                AccessClass::Data,
                now + ahead,
            ))
        });
    });
    group.finish();
}

/// Measures queueing growth under offered load — the mechanism behind the
/// paper's Fig 6a PTW scaling. Not a wall-clock benchmark of the model
/// code, but of the model's own simulated latency under contention.
fn bench_contention(c: &mut Criterion) {
    let mut group = c.benchmark_group("dram_contention_model");
    for issuers in [1u64, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(issuers),
            &issuers,
            |b, &issuers| {
                b.iter(|| {
                    let mut mc = MemoryController::new(DramConfig::hbm2_vault());
                    let mut total = Cycles::ZERO;
                    for t in 0..200u64 {
                        for core in 0..issuers {
                            let addr = PhysAddr::new(
                                ((t * issuers + core).wrapping_mul(0x9E37_79B9)) & 0x3FFF_FFC0,
                            );
                            let now = Cycles::new(t * 120);
                            let done = mc.request(addr, RwKind::Read, AccessClass::Metadata, now);
                            total += done - now;
                        }
                    }
                    black_box(total)
                });
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(1000);
    targets = bench_cache, bench_shared, bench_dram, bench_contention
}
criterion_main!(benches);
