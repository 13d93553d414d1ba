//! Shared last-level cache integration tests.
//!
//! The PR that introduced the shared banked L3 and the per-vault buffers
//! re-routed every private miss through a new layer. Two families of
//! tests pin it:
//!
//! * **Digest invariance** — the disabled configuration (`l3_kb = 0`,
//!   `vault_buffer_kb = 0`, the default) must stay *cycle-identical* to
//!   the PR-3 tree. The golden fingerprints below are the same constants
//!   `tests/mlp_pipeline.rs` pins (produced at commit `3191fe3` and
//!   unchanged since); every one of the 12 pre-shared configurations is
//!   re-run here with the shared-layer knobs deliberately perturbed.
//! * **Shared-layer behaviour** — inclusive back-invalidation really
//!   removes private lines until refetch, exact hit/miss accounting on
//!   hand-built access sequences, and the co-runner interference shape
//!   (NDPage's bypassed PTE fetches are insensitive to shared-cache
//!   pressure, Radix's are not).

use ndp_cache::hierarchy::CacheHierarchy;
use ndp_cache::shared::{InclusionPolicy, SharedCache, SharedConfig};
use ndp_sim::spec::apply_knob;
use ndp_sim::{Machine, SimConfig, SystemKind};
use ndp_types::{AccessClass, Asid, Cycles, PhysAddr, RwKind};
use ndp_workloads::WorkloadId;
use ndpage::Mechanism;

fn bench_cfg(system: SystemKind, cores: u32, m: Mechanism, w: WorkloadId) -> SimConfig {
    SimConfig::new(system, cores, m, w)
        .with_ops(4_000, 8_000)
        .with_footprint(512 << 20)
}

/// Perturbs every inert shared-layer knob while leaving the layer
/// disabled — the digests must not notice.
fn with_inert_llc_knobs(mut cfg: SimConfig) -> SimConfig {
    cfg.l3_ways = 4;
    cfg.l3_banks = 2;
    cfg.l3_policy = InclusionPolicy::Exclusive;
    cfg
}

/// The ten NDP golden fingerprints from `tests/mlp_pipeline.rs` (every
/// mechanism on both contrasting workloads, 2-core NDP, the `ndpsim
/// bench` figure configurations), pre-refactor engine at `3191fe3`.
const GOLDEN_NDP: [(WorkloadId, Mechanism, u64); 10] = [
    (WorkloadId::Rnd, Mechanism::Radix, 6116369665233581051),
    (WorkloadId::Rnd, Mechanism::Ech, 11800367191099474065),
    (WorkloadId::Rnd, Mechanism::HugePage, 3097600018187868663),
    (WorkloadId::Rnd, Mechanism::NdPage, 7075727120160763403),
    (WorkloadId::Rnd, Mechanism::Ideal, 7994287721264578250),
    (WorkloadId::Bfs, Mechanism::Radix, 16706705192544354131),
    (WorkloadId::Bfs, Mechanism::Ech, 15573193775731539418),
    (WorkloadId::Bfs, Mechanism::HugePage, 16169518658622588006),
    (WorkloadId::Bfs, Mechanism::NdPage, 14852835452907560712),
    (WorkloadId::Bfs, Mechanism::Ideal, 67710112092225256),
];

/// Golden fingerprint 11: the blocking CPU system.
const GOLDEN_CPU: u64 = 10846251796690856522;

/// Golden fingerprint 12: blocking multiprogrammed untagged NDP.
const GOLDEN_MULTIPROG: u64 = 8107534158313623992;

#[test]
fn disabled_shared_llc_is_bit_identical_to_pr3_across_all_golden_configs() {
    for (workload, mechanism, want) in GOLDEN_NDP {
        let cfg = with_inert_llc_knobs(bench_cfg(SystemKind::Ndp, 2, mechanism, workload));
        assert_eq!(cfg.l3_kb, 0, "defaults must leave the shared layer off");
        assert!(cfg.l3_config().is_none() && cfg.vault_buffer_config().is_none());
        let report = Machine::new(cfg).run();
        assert!(report.l3.is_none() && report.vault.is_none());
        assert_eq!(
            report.fingerprint(),
            want,
            "{workload}/{mechanism}: disabled-L3 digest moved — the shared \
             layer leaked into the pre-existing timing"
        );
    }
}

#[test]
fn disabled_shared_llc_preserves_cpu_and_multiprogrammed_goldens() {
    let cpu = with_inert_llc_knobs(bench_cfg(
        SystemKind::Cpu,
        4,
        Mechanism::Radix,
        WorkloadId::Bfs,
    ));
    assert_eq!(Machine::new(cpu).run().fingerprint(), GOLDEN_CPU);

    let multi = with_inert_llc_knobs(
        SimConfig::new(SystemKind::Ndp, 2, Mechanism::NdPage, WorkloadId::Bfs)
            .with_ops(4_000, 8_000)
            .with_footprint(256 << 20)
            .with_procs(2)
            .with_quantum(2_000)
            .with_tlb_tagging(false),
    );
    assert_eq!(Machine::new(multi).run().fingerprint(), GOLDEN_MULTIPROG);
}

/// A tiny shared L3 for hand-built sequences: 4 sets x 2 ways, 2 banks,
/// 10-cycle latency, 2-cycle bank period.
fn tiny_l3(policy: InclusionPolicy) -> SharedCache {
    SharedCache::new(SharedConfig {
        name: "test-l3",
        size_bytes: 512,
        ways: 2,
        banks: 2,
        line_bytes: 64,
        latency: Cycles::new(10),
        bank_period: Cycles::new(2),
        policy,
        mshrs_per_bank: 4,
    })
}

#[test]
fn back_invalidated_line_is_never_l1_hit_until_refetched() {
    let mut l1 = CacheHierarchy::ndp();
    let mut l3 = tiny_l3(InclusionPolicy::Inclusive);
    let a = PhysAddr::new(0); // L3 set 0

    // Inclusive demand fill: the line lands in L3 and L1 and hits in L1.
    l3.fill(a, AccessClass::Data, Asid::ZERO, false);
    l1.fill(a, AccessClass::Data, false);
    assert!(l1.lookup(a, RwKind::Read, AccessClass::Data).is_hit());

    // Squeeze `a` out of the (2-way) L3 set with two more fills, playing
    // the machine's role: the inclusive eviction back-invalidates L1.
    for other in [4u64 * 64, 8 * 64] {
        if let Some(victim) = l3.fill(PhysAddr::new(other), AccessClass::Data, Asid::ZERO, false) {
            let bi = l1.back_invalidate(victim.addr);
            if bi.present {
                l3.note_back_invalidation();
            }
        }
    }
    assert!(!l3.probe(a), "a was evicted from the shared L3");
    assert_eq!(l3.stats().back_invalidations, 1);

    // The invariant: until refetched, the line can never hit in L1 —
    // not via lookup, not via probe.
    assert!(!l1.lookup(a, RwKind::Read, AccessClass::Data).is_hit());
    assert!(!l1.lookup(a, RwKind::Write, AccessClass::Data).is_hit());

    // Refetch (miss serviced below, both levels filled): hits again.
    l3.fill(a, AccessClass::Data, Asid::ZERO, false);
    l1.fill(a, AccessClass::Data, false);
    assert!(l1.lookup(a, RwKind::Read, AccessClass::Data).is_hit());
}

#[test]
fn back_invalidation_preserves_dirty_private_data() {
    let mut l1 = CacheHierarchy::ndp();
    let mut l3 = tiny_l3(InclusionPolicy::Inclusive);
    let a = PhysAddr::new(0);
    l3.fill(a, AccessClass::Data, Asid::ZERO, false);
    l1.fill(a, AccessClass::Data, false);
    l1.lookup(a, RwKind::Write, AccessClass::Data); // dirty the L1 copy

    l3.fill(PhysAddr::new(4 * 64), AccessClass::Data, Asid::ZERO, false);
    let victim = l3
        .fill(PhysAddr::new(8 * 64), AccessClass::Data, Asid::ZERO, false)
        .expect("set is full, someone must go");
    assert_eq!(victim.addr, a);
    assert!(!victim.dirty, "the *shared* copy was clean");
    let bi = l1.back_invalidate(victim.addr);
    assert!(
        bi.present && bi.dirty,
        "the private copy was dirty — its data must still be written back"
    );
}

#[test]
fn exact_hit_miss_accounting_on_a_hand_built_sequence() {
    let mut l3 = tiny_l3(InclusionPolicy::Inclusive);
    let a = PhysAddr::new(0); // set 0, bank 0
    let b = PhysAddr::new(64); // set 1, bank 1
    let c = PhysAddr::new(4 * 64); // set 0, bank 0

    // Cold misses: a (data), b (metadata), c (data) — all recorded.
    assert!(
        !l3.access(a, RwKind::Read, AccessClass::Data, Cycles::ZERO)
            .hit
    );
    assert!(
        !l3.access(b, RwKind::Read, AccessClass::Metadata, Cycles::new(100))
            .hit
    );
    assert!(
        !l3.access(c, RwKind::Read, AccessClass::Data, Cycles::new(200))
            .hit
    );
    l3.fill(a, AccessClass::Data, Asid(0), false);
    l3.fill(b, AccessClass::Metadata, Asid(1), false);
    l3.fill(c, AccessClass::Data, Asid(0), false);

    // Re-touch all three: hits, classes kept apart.
    assert!(
        l3.access(a, RwKind::Read, AccessClass::Data, Cycles::new(300))
            .hit
    );
    assert!(
        l3.access(b, RwKind::Read, AccessClass::Metadata, Cycles::new(400))
            .hit
    );
    assert!(
        l3.access(c, RwKind::Write, AccessClass::Data, Cycles::new(500))
            .hit
    );

    assert_eq!(l3.stats().cache.data.hits, 2);
    assert_eq!(l3.stats().cache.data.misses, 2);
    assert_eq!(l3.stats().cache.metadata.hits, 1);
    assert_eq!(l3.stats().cache.metadata.misses, 1);

    // A metadata fill into the full set 0 evicts LRU data line `a`
    // (c was just written): pollution plus no writeback for clean `a`,
    // but the dirtied `c` pushed next does write back.
    let victim = l3
        .fill(PhysAddr::new(8 * 64), AccessClass::Metadata, Asid(1), false)
        .expect("set 0 is full");
    assert_eq!(victim.addr, a);
    assert!(!victim.dirty);
    assert_eq!(l3.stats().cache.data_evicted_by_metadata, 1);
    assert_eq!(l3.stats().cache.writebacks, 0);
    let victim = l3
        .fill(
            PhysAddr::new(12 * 64),
            AccessClass::Metadata,
            Asid(1),
            false,
        )
        .expect("set 0 still full");
    assert_eq!(victim.addr, c, "LRU order: c was older than the new line");
    assert!(victim.dirty, "the write at t=500 dirtied c");
    assert_eq!(l3.stats().cache.writebacks, 1);
    assert_eq!(l3.stats().cache.data_evicted_by_metadata, 2);

    // Occupancy: set 0 holds two metadata lines for ASID 1, set 1 one
    // for ASID 1 — ASID 0 lost everything.
    assert_eq!(l3.occupancy_by_asid(), vec![(Asid(1), 3)]);
    assert_eq!(l3.live_lines(), 3);
}

#[test]
fn exact_bank_conflict_accounting() {
    let mut l3 = tiny_l3(InclusionPolicy::Inclusive);
    // Three same-instant accesses to bank 0 (sets 0): the 2-cycle port
    // serialises them — waits of 2 and 4 cycles.
    for (i, addr) in [0u64, 4 * 64, 8 * 64].into_iter().enumerate() {
        let look = l3.access(
            PhysAddr::new(addr),
            RwKind::Read,
            AccessClass::Data,
            Cycles::new(1_000),
        );
        assert_eq!(
            look.done,
            Cycles::new(1_000 + 10 + 2 * i as u64),
            "access {i} starts after {} port waits",
            i
        );
    }
    assert_eq!(l3.stats().bank_conflicts, 2);
    assert_eq!(l3.stats().bank_conflict_cycles, 2 + 4);
    // Bank 1 (set 1) is idle: no conflict there.
    let look = l3.access(
        PhysAddr::new(64),
        RwKind::Read,
        AccessClass::Data,
        Cycles::new(1_000),
    );
    assert_eq!(look.done, Cycles::new(1_010));
    assert_eq!(l3.stats().bank_conflicts, 2);
}

#[test]
fn exclusive_l3_holds_only_lines_that_left_the_private_hierarchy() {
    let mut l1 = CacheHierarchy::ndp();
    let mut l3 = tiny_l3(InclusionPolicy::Exclusive);
    let a = PhysAddr::new(0);

    // Demand fill: exclusive L3 is bypassed, only L1 holds the line.
    l1.fill(a, AccessClass::Data, false);
    assert!(!l3.probe(a));

    // Evict it from L1 (fill the 8-way set), playing the machine: the
    // outermost-level victim feeds the exclusive L3.
    for i in 1..=8u64 {
        let line = PhysAddr::new(i * 64 * 64);
        l1.resolve(line, RwKind::Read, AccessClass::Data, |_, v| {
            l3.fill(v.addr, v.class, Asid::ZERO, v.dirty);
        });
    }
    assert!(!l1.lookup(a, RwKind::Read, AccessClass::Data).is_hit());
    assert!(l3.probe(a), "the private victim landed in the exclusive L3");

    // A later access hits the L3 and extracts the line back up: never
    // resident in both.
    let look = l3.access(a, RwKind::Read, AccessClass::Data, Cycles::new(50));
    assert!(look.hit);
    assert!(!l3.probe(a), "exclusive hit extracts");
    l1.fill(a, AccessClass::Data, false);
    assert!(l1.lookup(a, RwKind::Read, AccessClass::Data).is_hit());
    assert!(!l3.probe(a));
}

#[test]
fn interference_is_real_and_ndpage_translation_is_insensitive_to_it() {
    // The acceptance shape at machine level: under co-runner pressure on
    // a small shared L3, Radix's PTE fetches contend in (and depend on)
    // the shared cache, while NDPage's bypassed fetches never touch it.
    let cfg = |m, kb| {
        let mut c = SimConfig::quick(SystemKind::Ndp, 2, m, WorkloadId::Rnd)
            .with_procs(2)
            .with_quantum(2_000)
            .with_l3(kb);
        c.warmup_ops = 4_000;
        c.measure_ops = 10_000;
        c
    };
    let radix_small = Machine::new(cfg(Mechanism::Radix, 256)).run();
    let radix_large = Machine::new(cfg(Mechanism::Radix, 8192)).run();
    let ndpage_small = Machine::new(cfg(Mechanism::NdPage, 256)).run();
    let ndpage_large = Machine::new(cfg(Mechanism::NdPage, 8192)).run();

    let small_l3 = radix_small.l3.as_ref().unwrap();
    let large_l3 = radix_large.l3.as_ref().unwrap();
    assert!(
        small_l3.metadata.hit_rate() < large_l3.metadata.hit_rate(),
        "cache pressure must eat Radix's PTE hits: {} vs {}",
        small_l3.metadata.hit_rate(),
        large_l3.metadata.hit_rate()
    );
    assert!(
        small_l3.back_invalidations > 0,
        "inclusive pressure is real"
    );
    assert!(small_l3.bank_conflicts > 0, "port contention is real");

    for r in [&ndpage_small, &ndpage_large] {
        assert_eq!(
            r.l3.as_ref().unwrap().metadata.total(),
            0,
            "bypassed PTE fetches are insensitive to shared-cache pressure"
        );
    }

    // And the mechanisms diverge: the NDPage-vs-Radix ratio moves with
    // shared capacity because only Radix's translation depends on it.
    let gap_small = ndpage_small.speedup_over(&radix_small);
    let gap_large = ndpage_large.speedup_over(&radix_large);
    assert!(
        (gap_small - gap_large).abs() > 0.01,
        "shared-cache pressure must move the gap: {gap_small:.4} vs {gap_large:.4}"
    );
}

#[test]
fn enabled_shared_llc_digests_are_deterministic_and_distinct() {
    let cfg = || {
        SimConfig::quick(SystemKind::Ndp, 2, Mechanism::Radix, WorkloadId::Bfs)
            .with_ops(1_000, 3_000)
            .with_footprint(256 << 20)
            .with_l3(512)
            .with_vault_buffer(128)
    };
    let a = Machine::new(cfg()).run();
    let b = Machine::new(cfg()).run();
    assert_eq!(a.fingerprint(), b.fingerprint(), "shared-layer determinism");
    let disabled = Machine::new(
        SimConfig::quick(SystemKind::Ndp, 2, Mechanism::Radix, WorkloadId::Bfs)
            .with_ops(1_000, 3_000)
            .with_footprint(256 << 20),
    )
    .run();
    assert_ne!(
        a.fingerprint(),
        disabled.fingerprint(),
        "the shared-layer blocks are part of the enabled digest"
    );
    // Both blocks populated and internally consistent.
    for block in [a.l3.as_ref().unwrap(), a.vault.as_ref().unwrap()] {
        assert!(block.total().total() > 0);
        assert_eq!(
            block.occupancy_by_asid.iter().map(|(_, n)| n).sum::<u64>(),
            block.live_lines
        );
    }
}

/// The base knobs of simbench's `windowed_shared` grid
/// (`simbench/workloads/windowed_shared.json`), in its order: 2 NDP
/// cores at 256 MB, 2 tagged-TLB procs per core at a 4 k-op quantum, an
/// 8-deep issue window with 8 MSHRs, a 512 KB shared L3 and 128 KB vault
/// buffers.
const WINDOWED_SHARED_BASE: [(&str, &str); 12] = [
    ("system", "ndp"),
    ("cores", "2"),
    ("footprint", "268435456"),
    ("warmup_ops", "6000"),
    ("measure_ops", "20000"),
    ("procs_per_core", "2"),
    ("context_switch_quantum_ops", "4000"),
    ("tlb_tagging", "true"),
    ("mlp_window", "8"),
    ("mshrs_per_core", "8"),
    ("l3_kb", "512"),
    ("vault_buffer_kb", "128"),
];

/// That grid's RND rows on seed 7, measured at `4c40b32`. On this seed a
/// private install whose set an inclusive-L3 eviction changed after the
/// lookup must fall back to a fresh fill, so these pin the fallback of
/// `SetAssocCache::install` at machine level.
const WINDOWED_SHARED_SEED7: [(&str, u64); 2] = [
    ("radix", 16253863815649339985),
    ("ndpage", 10941727576525074503),
];

#[test]
fn windowed_shared_seed7_rows_are_pinned() {
    for (mechanism, want) in WINDOWED_SHARED_SEED7 {
        let mut cfg = SimConfig::cli_default();
        let knobs = WINDOWED_SHARED_BASE.iter().copied().chain([
            ("seed", "7"),
            ("workload", "RND"),
            ("mechanism", mechanism),
        ]);
        for (knob, value) in knobs {
            apply_knob(&mut cfg, knob, value).expect("windowed_shared knob");
        }
        let got = Machine::new(cfg).run().fingerprint();
        assert_eq!(got, want, "windowed_shared seed 7, RND/{mechanism}");
    }
}
