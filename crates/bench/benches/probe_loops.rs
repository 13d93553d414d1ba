//! Criterion microbenches for the three hot probe loops the epoch-batched
//! kernel leans on: the TLB set scan, the PWC probe/fill cycle, and the
//! MSHR live-fill scan. Each loop is a branch-light linear pass over a
//! struct-of-arrays layout; these benches pin their per-probe cost so a
//! layout regression shows up as a ns/iter jump rather than only as noise
//! in an end-to-end `simbench` run.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ndp_cache::mshr::MshrFile;
use ndp_mmu::pwc::PwcSet;
use ndp_mmu::tlb::TlbHierarchy;
use ndp_types::{Asid, Cycles, LineAddr, PageSize, Pfn, PhysAddr, PtLevel, Vpn};

/// Resident lookups across a warm working set: every probe scans a full
/// set's tag lane and hits, the steady state of an epoch's address burst.
fn bench_tlb_set_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("probe_loops");
    group.bench_function("tlb_set_scan_hit", |b| {
        let mut tlb = TlbHierarchy::table1();
        // Enough pages to populate many sets, few enough to stay resident.
        let pages = 1024u64;
        for i in 0..pages {
            tlb.fill(Asid::ZERO, Vpn::new(i), Pfn::new(i + 7), PageSize::Size4K);
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % pages;
            black_box(tlb.lookup(Asid::ZERO, Vpn::new(i)))
        });
    });
    group.bench_function("tlb_set_scan_miss", |b| {
        let mut tlb = TlbHierarchy::table1();
        let mut i = 0u64;
        b.iter(|| {
            // Strided misses: tags never match, so each lookup pays the
            // full per-set scan at every level.
            i += 1;
            black_box(tlb.lookup(Asid::ZERO, Vpn::new(i.wrapping_mul(0x9E37_79B9))))
        });
    });
    group.finish();
}

/// The four-level probe/fill cycle a page walk issues per miss.
fn bench_pwc_probe_fill(c: &mut Criterion) {
    let mut group = c.benchmark_group("probe_loops");
    group.bench_function("pwc_probe_fill", |b| {
        let mut set = PwcSet::enabled();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let vpn = Vpn::new(i.wrapping_mul(613) % (1 << 27));
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

/// Live-fill scans over a populated MSHR file: `fill_in_flight` walks the
/// lines lane, `in_flight` the dones lane; both at history capacity.
fn bench_mshr_live_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("probe_loops");
    group.bench_function("mshr_live_fill_scan", |b| {
        let mut mshr = MshrFile::new(16);
        // Fill the file plus its history slack so scans run at max length.
        for i in 0..80u64 {
            let line = LineAddr::of(PhysAddr::new(i << 6));
            mshr.allocate(line, Cycles::new(i), Cycles::new(i + 10));
        }
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let line = LineAddr::of(PhysAddr::new((i % 96) << 6));
            black_box(mshr.fill_in_flight(line, Cycles::new(40)))
        });
    });
    group.bench_function("mshr_in_flight_count", |b| {
        let mut mshr = MshrFile::new(16);
        for i in 0..80u64 {
            let line = LineAddr::of(PhysAddr::new(i << 6));
            mshr.allocate(line, Cycles::new(i), Cycles::new(i + 10));
        }
        let mut now = 0u64;
        b.iter(|| {
            now = (now + 1) % 300;
            black_box(mshr.in_flight(Cycles::new(now)))
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_tlb_set_scan, bench_pwc_probe_fill, bench_mshr_live_scan,
}
criterion_main!(benches);
