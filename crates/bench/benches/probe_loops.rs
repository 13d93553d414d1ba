//! Criterion microbenches for the three hot probe loops every simulated
//! op leans on: the TLB set scan, the PWC probe/fill cycle, and the MSHR
//! live-fill scans over a full file, plus an MSHR file in its windowed
//! steady state; no MSHR file holds more live fills than registers. Each
//! loop is a branch-light linear pass; these benches pin their per-probe
//! cost so a layout regression shows up as a ns/iter jump rather than
//! only as noise in an end-to-end `simbench` run.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ndp_cache::mshr::{MshrFile, MshrLookup, MshrStep, HISTORY_SLACK};
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

/// A 16-register MSHR file at history capacity (16 + [`HISTORY_SLACK`]
/// records), filled the way the timing loop fills one: each miss goes
/// through [`MshrFile::step`], waits out a full file, and registers its
/// fill. Misses leave 2 cycles apart and take 40, so the file runs full;
/// returns it with the instant after the last miss, when all 16 registers
/// are live.
fn full_mshr_file() -> (MshrFile, Cycles) {
    let mut mshr = MshrFile::new(16);
    let mut now = Cycles::ZERO;
    for i in 0..(16 + HISTORY_SLACK) as u64 {
        let line = LineAddr::of(PhysAddr::new(i << 6));
        let MshrStep::Fetch(send) = mshr.step(line, false, now) else {
            unreachable!("distinct lines never merge");
        };
        mshr.allocate(line, send, send + Cycles::new(40));
        now = send + Cycles::new(2);
    }
    assert_eq!(mshr.in_flight(now), 16, "the file runs full");
    (mshr, now)
}

/// Live-fill scans over [`full_mshr_file`]: `fill_in_flight` walks its
/// 16 live fills at the file's last instant (one line in six is among
/// them), and `in_flight` counts them at instants from there to the last
/// completion, so it finds 16 down to none.
fn bench_mshr_live_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("probe_loops");
    group.bench_function("mshr_live_fill_scan", |b| {
        let (mut mshr, now) = full_mshr_file();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let line = LineAddr::of(PhysAddr::new((i % 96) << 6));
            black_box(mshr.fill_in_flight(line, now))
        });
    });
    group.bench_function("mshr_in_flight_count", |b| {
        let (mshr, now) = full_mshr_file();
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 1) % 40;
            black_box(mshr.in_flight(now + Cycles::new(k)))
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
