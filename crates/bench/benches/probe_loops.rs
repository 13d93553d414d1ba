//! Criterion microbenches for the three hot probe loops every simulated
//! op leans on: the TLB set scan, the PWC probe/fill cycle, and the MSHR
//! live-fill scan, plus an MSHR file in its windowed steady state. Each
//! loop is a branch-light linear pass; these benches pin their per-probe
//! cost so a layout regression shows up as a ns/iter jump rather than
//! only as noise in an end-to-end `simbench` run.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ndp_cache::mshr::{MshrFile, MshrLookup, HISTORY_SLACK};
use ndp_mmu::pwc::PwcSet;
use ndp_mmu::tlb::TlbHierarchy;
use ndp_types::{Asid, Cycles, LineAddr, PageSize, Pfn, PhysAddr, PtLevel, Vpn};

/// Resident lookups across a warm working set: every probe scans a full
/// set's tag lane and hits, the steady state of a hot working set.
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

/// Live-fill scans over a populated MSHR file at history capacity:
/// `fill_in_flight` and `in_flight` walk the records still in flight (49
/// of the 80 at `fill_in_flight`'s instant, far more than a windowed
/// core's file holds).
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

/// The steady state of a windowed core's miss path: 8 registers whose
/// history sits at its cap (8 + [`HISTORY_SLACK`] records, so every
/// allocation evicts one), probed by a 16-deep issue window, so some
/// probes find the file `Full` and some merge into an in-flight fill.
/// One iteration is one probe plus the allocation it asks for.
fn bench_mshr_steady_state(c: &mut Criterion) {
    let mut group = c.benchmark_group("probe_loops");
    group.bench_function("mshr_steady_probe_allocate", |b| {
        let mut mshr = MshrFile::new(8);
        let mut window = [Cycles::ZERO; 16];
        let mut now = Cycles::ZERO;
        let mut k = 0u64;
        let mut step = move || {
            k += 1;
            let slot = (k % window.len() as u64) as usize;
            now = (now + Cycles::new(3)).max(window[slot]);
            let line = LineAddr::of(PhysAddr::new(
                ((k.wrapping_mul(0x9E37_79B9) >> 7) % 48) << 6,
            ));
            let send = match mshr.probe(line, now) {
                MshrLookup::Coalesced(done) => {
                    window[slot] = done;
                    return *mshr.stats();
                }
                MshrLookup::Free => now,
                MshrLookup::Full(free_at) => free_at,
            };
            let done = send + Cycles::new(120 + k % 64);
            mshr.allocate(line, send, done);
            window[slot] = done;
            *mshr.stats()
        };
        let mut stats = step();
        for _ in 0..4 * (8 + HISTORY_SLACK) {
            stats = step();
        }
        assert!(stats.full_stalls > 0 && stats.coalesced > 0, "{stats:?}");
        b.iter(|| black_box(step()));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_tlb_set_scan, bench_pwc_probe_fill, bench_mshr_live_scan,
        bench_mshr_steady_state,
}
criterion_main!(benches);
