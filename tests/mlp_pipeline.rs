//! Non-blocking-pipeline integration tests.
//!
//! The PR that introduced the issue window / MSHRs / walker occupancy
//! refactored every timing path from charge-latency-in-place to
//! completion-time plumbing. Two families of tests anchor it:
//!
//! * **Digest invariance** — the blocking configuration (`mlp_window = 1`,
//!   `mshrs = 1`) must stay *cycle-identical* to the pre-refactor engine.
//!   The golden fingerprints below were produced by the engine at commit
//!   `3191fe3` (the last pre-pipeline tree) and must never move for
//!   blocking runs.
//! * **Pipeline behaviour** — windowed runs must actually overlap
//!   (faster, MLP > 1, coalesced misses, queued walks) while preserving
//!   in-order retirement, and the paper-shape NDPage-vs-Radix gap must
//!   not shrink when overlap is enabled.

use ndp_sim::{Machine, SimConfig, SystemKind};
use ndp_workloads::WorkloadId;
use ndpage::Mechanism;

fn bench_cfg(system: SystemKind, cores: u32, m: Mechanism, w: WorkloadId) -> SimConfig {
    SimConfig::new(system, cores, m, w)
        .with_ops(4_000, 8_000)
        .with_footprint(512 << 20)
}

/// Golden fingerprints from the pre-refactor engine (2-core NDP,
/// 4 k warmup / 8 k measured ops, 512 MB footprint) for every mechanism
/// on both contrasting workloads — the exact configurations of the
/// figure-engine half of the pinned `report` digest
/// (`crates/bench/tests/bench_digests.rs`).
const GOLDEN: [(WorkloadId, Mechanism, u64); 10] = [
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

#[test]
fn blocking_config_is_cycle_identical_to_pre_refactor_engine() {
    for (workload, mechanism, want) in GOLDEN {
        let cfg = bench_cfg(SystemKind::Ndp, 2, mechanism, workload);
        assert!(cfg.is_blocking(), "defaults must be the blocking core");
        let got = Machine::new(cfg).run().fingerprint();
        assert_eq!(
            got, want,
            "{workload}/{mechanism}: blocking digest moved — the pipeline \
             refactor changed pre-existing timing"
        );
    }
}

#[test]
fn blocking_cpu_system_is_cycle_identical_too() {
    let cfg = bench_cfg(SystemKind::Cpu, 4, Mechanism::Radix, WorkloadId::Bfs);
    assert_eq!(Machine::new(cfg).run().fingerprint(), 10846251796690856522);
}

#[test]
fn blocking_multiprogrammed_untagged_is_cycle_identical_too() {
    // Exercises the context-switch path (which now drains the window) in
    // its blocking degenerate form, plus the sched fingerprint block.
    let cfg = SimConfig::new(SystemKind::Ndp, 2, Mechanism::NdPage, WorkloadId::Bfs)
        .with_ops(4_000, 8_000)
        .with_footprint(256 << 20)
        .with_procs(2)
        .with_quantum(2_000)
        .with_tlb_tagging(false);
    assert_eq!(Machine::new(cfg).run().fingerprint(), 8107534158313623992);
}

#[test]
fn inert_mlp_knobs_do_not_move_blocking_digests() {
    // MSHR count and walker count are structurally inert while the
    // window is 1: a blocking core never has two requests in flight.
    let base = Machine::new(SimConfig::quick(
        SystemKind::Ndp,
        2,
        Mechanism::Radix,
        WorkloadId::Rnd,
    ))
    .run()
    .fingerprint();
    for (mshrs, walkers) in [(8u32, 1u32), (1, 4), (64, 8)] {
        let cfg = SimConfig::quick(SystemKind::Ndp, 2, Mechanism::Radix, WorkloadId::Rnd)
            .with_mshrs(mshrs)
            .with_walkers(walkers);
        assert_eq!(
            Machine::new(cfg).run().fingerprint(),
            base,
            "mshrs={mshrs} walkers={walkers} must be inert at window 1"
        );
    }
}

fn windowed(cfg: &SimConfig, window: u32) -> SimConfig {
    let mut c = cfg.clone();
    c.mlp_window = window;
    c.mshrs_per_core = window;
    c
}

#[test]
fn windowed_runs_overlap_and_retire_in_order() {
    let base = SimConfig::quick(SystemKind::Ndp, 1, Mechanism::Radix, WorkloadId::Rnd)
        .with_ops(2_000, 5_000)
        .with_footprint(512 << 20);
    let blocking = Machine::new(base.clone()).run();
    let w8 = Machine::new(windowed(&base, 8)).run();

    // Overlap shortens the run and achieves real MLP.
    assert!(
        w8.total_cycles < blocking.total_cycles,
        "window 8 must beat blocking: {} vs {}",
        w8.total_cycles,
        blocking.total_cycles
    );
    assert!(w8.achieved_mlp() > 2.0, "achieved {}", w8.achieved_mlp());
    assert!(w8.mlp.peak_inflight > 1 && w8.mlp.peak_inflight <= 8);

    // GUPS is read-modify-write: every store's line is in flight from
    // its load, so misses must coalesce (one fill serves both).
    assert!(w8.mlp.mshr_coalesced > 0, "RMW pairs must merge");

    // Concurrent TLB misses queue for the single hardware walker, which
    // is why windowed PTW latency *grows* — walks serialise while data
    // overlaps (the paper's asymmetry, sharpened).
    assert!(w8.mlp.walker_queued_walks > 0);
    assert!(w8.avg_ptw_latency() > blocking.avg_ptw_latency());

    // GUPS's store re-looks-up the page its load just walked: a TLB hit
    // on an entry whose walk is still in flight waits for it (the
    // translation analogue of MSHR coalescing).
    assert!(w8.mlp.tlb_hits_under_miss > 0, "RMW pairs must merge walks");
    assert_eq!(blocking.mlp.tlb_hits_under_miss, 0);

    // In-order retirement: the wall clock covers every completion, so
    // it can never undercut the per-op critical path implied by the
    // slowest op (sanity: elapsed >= inflight-latency / window).
    let elapsed = w8.avg_core_cycles * f64::from(w8.cores);
    assert!(elapsed * 8.0 >= w8.mlp.inflight_latency_cycles as f64);

    // Blocking runs report no overlap artefacts at all.
    assert_eq!(blocking.mlp.window_stall_cycles, 0);
    assert_eq!(blocking.mlp.mshr_coalesced, 0);
    assert_eq!(blocking.mlp.walker_queued_walks, 0);
    assert!(blocking.achieved_mlp() <= 1.0);
}

#[test]
fn more_mshrs_cannot_hurt_a_windowed_run() {
    // With the window at 8 but a single MSHR, misses backpressure on the
    // lone register; widening the file can only help (or tie).
    let mut narrow = SimConfig::quick(SystemKind::Ndp, 1, Mechanism::Radix, WorkloadId::Rnd)
        .with_ops(2_000, 5_000)
        .with_footprint(512 << 20);
    narrow.mlp_window = 8;
    narrow.mshrs_per_core = 1;
    let mut wide = narrow.clone();
    wide.mshrs_per_core = 8;
    let narrow = Machine::new(narrow).run();
    let wide = Machine::new(wide).run();
    assert!(
        narrow.mlp.mshr_full_stalls > 0,
        "a 1-register file under window 8 must fill up"
    );
    assert!(
        wide.total_cycles <= narrow.total_cycles,
        "more MSHRs must not slow the run: {} vs {}",
        wide.total_cycles,
        narrow.total_cycles
    );
}

#[test]
fn windowed_gap_between_ndpage_and_radix_does_not_shrink() {
    // The acceptance shape: enabling overlap must leave NDPage's edge
    // over Radix on GUPS and BFS at least as large as in blocking mode —
    // data misses overlap, radix walks serialise on the walker.
    for workload in [WorkloadId::Rnd, WorkloadId::Bfs] {
        let cfg = |m| SimConfig::quick(SystemKind::Ndp, 2, m, workload);
        let b_radix = Machine::new(cfg(Mechanism::Radix)).run();
        let b_ndpage = Machine::new(cfg(Mechanism::NdPage)).run();
        let w_radix = Machine::new(windowed(&cfg(Mechanism::Radix), 8)).run();
        let w_ndpage = Machine::new(windowed(&cfg(Mechanism::NdPage), 8)).run();
        let blocking_gap = b_ndpage.speedup_over(&b_radix);
        let windowed_gap = w_ndpage.speedup_over(&w_radix);
        assert!(
            windowed_gap >= blocking_gap,
            "{workload}: overlap must sharpen the NDPage edge, \
             got blocking {blocking_gap:.3} vs windowed {windowed_gap:.3}"
        );
    }
}

#[test]
fn windowed_runs_are_deterministic_and_digest_distinct() {
    let base = SimConfig::quick(SystemKind::Ndp, 2, Mechanism::NdPage, WorkloadId::Bfs)
        .with_ops(1_000, 3_000)
        .with_footprint(256 << 20);
    let a = Machine::new(windowed(&base, 8)).run();
    let b = Machine::new(windowed(&base, 8)).run();
    assert_eq!(a.fingerprint(), b.fingerprint(), "windowed determinism");
    let blocking = Machine::new(base).run();
    assert_ne!(
        a.fingerprint(),
        blocking.fingerprint(),
        "window size is part of the windowed digest"
    );
    // Windowed digests cover the MLP counters.
    assert_eq!(a.mlp_window, 8);
    assert!(a.mlp.inflight_latency_cycles > 0);
}

#[test]
fn context_switches_drain_the_window() {
    // Multiprogrammed windowed run: switches serialise the pipeline, and
    // the blocking invariants (switch accounting) keep holding.
    let mut cfg = SimConfig::quick(SystemKind::Ndp, 1, Mechanism::Radix, WorkloadId::Bfs)
        .with_ops(2_000, 6_000)
        .with_footprint(256 << 20)
        .with_procs(2)
        .with_quantum(500);
    cfg.mlp_window = 8;
    cfg.mshrs_per_core = 8;
    let r = Machine::new(cfg).run();
    assert!(r.sched.context_switches > 0);
    assert!(r.total_cycles.as_u64() > 0);
    assert!(r.achieved_mlp() > 1.0, "overlap survives multiprogramming");
}

/// A 2-core NDPage/BFS run touching the knobs that couple the cores'
/// timing: issue window (in-flight ops per core), process count (context
/// switches drain the window) and shared L3 (cross-core contention).
fn scheduler_cfg(window: u32, procs: u32, l3_kb: u32) -> SimConfig {
    let mut c = SimConfig::new(SystemKind::Ndp, 2, Mechanism::NdPage, WorkloadId::Bfs)
        .with_ops(2_000, 5_000)
        .with_footprint(256 << 20)
        .with_l3(l3_kb);
    if procs > 1 {
        c = c.with_procs(procs).with_quantum(1_000);
    }
    windowed(&c, window)
}

/// Scheduler pins, one per corner of the window × procs × L3 matrix:
/// the timing loop interleaves the cores by the per-op rule (the
/// unfinished core with the smallest clock runs next, lowest index on
/// ties), so a change to that order moves these digests.
const SCHEDULER_GOLDEN: [(u32, u32, u32, u64); 4] = [
    (1, 1, 0, 7951321719782436550),
    (8, 1, 0, 1578718316153312710),
    (1, 2, 512, 294085866865651957),
    (8, 2, 512, 16922653198480144996),
];

#[test]
fn scheduler_golden_digests_hold() {
    for (window, procs, l3_kb, want) in SCHEDULER_GOLDEN {
        let got = Machine::new(scheduler_cfg(window, procs, l3_kb))
            .run()
            .fingerprint();
        assert_eq!(
            got, want,
            "window={window} procs={procs} l3_kb={l3_kb}: scheduler digest moved"
        );
    }
}
