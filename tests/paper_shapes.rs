//! End-to-end shape tests: the paper's qualitative claims must hold on
//! quick-scale runs, for the figures and for the extension sweeps of
//! `figures sweeps`. (EXPERIMENTS.md records the full-scale magnitudes.)

use ndp_sim::experiment::{occupancy_figure, Scale};
use ndp_sim::spec::{mechanism_names, run_sweep, SweepResult, SweepSpec};
use ndp_sim::{Machine, RunReport, SimConfig, SystemKind};
use ndp_types::PtLevel;
use ndp_workloads::WorkloadId;
use ndpage::Mechanism;

fn quick(system: SystemKind, cores: u32, m: Mechanism, w: WorkloadId) -> SimConfig {
    SimConfig::quick(system, cores, m, w)
}

/// A Radix run at the `figures --quick` scale.
fn figure_base(system: SystemKind, cores: u32, w: WorkloadId) -> SimConfig {
    Scale::Quick.apply(SimConfig::new(system, cores, Mechanism::Radix, w))
}

/// The extension sweeps' short windows over a 512 MB footprint.
fn sweep_base(cores: u32, w: WorkloadId) -> SimConfig {
    SimConfig::new(SystemKind::Ndp, cores, Mechanism::Radix, w)
        .with_ops(2_000, 5_000)
        .with_footprint(512 << 20)
}

fn sweep(spec: SweepSpec) -> SweepResult {
    run_sweep(&spec).expect("grid is valid")
}

/// Figs 12–14's grid: every mechanism per workload, Radix first.
fn speedup_grid(cores: u32, workloads: &[WorkloadId]) -> SweepResult {
    sweep(
        SweepSpec::new(figure_base(SystemKind::Ndp, cores, WorkloadId::Rnd))
            .axis("workload", workloads)
            .axis("mechanism", &mechanism_names()),
    )
}

/// Figs 12–14's headline: NDPage is the best real mechanism, bounded by
/// Ideal, across core counts.
#[test]
fn ndpage_is_best_real_mechanism_across_core_counts() {
    for cores in [1u32, 4] {
        let result = speedup_grid(cores, &[WorkloadId::Rnd, WorkloadId::Bfs]);
        let get = |m: &str| result.geomean_speedup("mechanism", "radix", m);
        assert!(
            get("ndpage") > 1.05,
            "{cores}-core: NDPage must beat Radix, got {}",
            get("ndpage")
        );
        assert!(
            get("ndpage") > get("ech"),
            "{cores}-core: NDPage must beat ECH"
        );
        assert!(
            get("ideal") >= get("ndpage"),
            "{cores}-core: Ideal bounds everything"
        );
    }
}

/// §IV-A observation 1: metadata misses the L1 far more than data, and its
/// presence inflates the data miss rate (Fig 7's 1.37x effect).
#[test]
fn metadata_is_more_irregular_than_data() {
    let radix = Machine::new(quick(SystemKind::Ndp, 4, Mechanism::Radix, WorkloadId::Bfs)).run();
    let ideal = Machine::new(quick(SystemKind::Ndp, 4, Mechanism::Ideal, WorkloadId::Bfs)).run();
    assert!(
        radix.l1_metadata.miss_rate() > radix.l1_data.miss_rate(),
        "metadata {} must out-miss data {}",
        radix.l1_metadata.miss_rate(),
        radix.l1_data.miss_rate()
    );
    assert!(radix.l1_metadata.miss_rate() > 0.8);
    assert!(
        radix.l1_data.miss_rate() >= ideal.l1_data.miss_rate(),
        "PTE pollution can only inflate the data miss rate"
    );
    assert!(radix.data_evicted_by_metadata > 0);
}

/// §IV-B observation 2: the bottom radix levels are (nearly) fully
/// occupied while PL3/PL4 are nearly empty.
#[test]
fn bottom_levels_are_fully_occupied() {
    // RND's single dense region fills its PL2 node completely at quick
    // scale; GEN's two regions each straddle node boundaries, so its PL2
    // rate is bounded by region granularity until the full 33 GB run
    // (see EXPERIMENTS.md for the full-scale ~98% figures).
    for (w, pl1, pl2, pl3, merged) in
        occupancy_figure(Scale::Quick, &[WorkloadId::Rnd, WorkloadId::Gen])
    {
        assert!(pl1 > 0.9, "{w}: PL1 {pl1}");
        assert!(pl3 < 0.1, "{w}: PL3 {pl3}");
        if w == WorkloadId::Rnd {
            assert!(pl2 > 0.9, "{w}: PL2 {pl2}");
            assert!(merged > 0.9, "{w}: merged {merged}");
        } else {
            assert!(pl2 > 0.4, "{w}: PL2 {pl2}");
        }
        assert!(pl1 > pl3 * 5.0, "{w}: bottom levels dominate the top");
    }
}

/// §V-C: PWC hit rates are near-perfect at PL4/PL3 and poor at PL2/PL1 —
/// the reason flattening pays off.
#[test]
fn pwc_hit_profile_matches_paper() {
    let r = Machine::new(quick(SystemKind::Ndp, 4, Mechanism::Radix, WorkloadId::Rnd)).run();
    let l4 = r.pwc_hit_rate(PtLevel::L4).expect("L4 exercised");
    let l3 = r.pwc_hit_rate(PtLevel::L3).expect("L3 exercised");
    let l2 = r.pwc_hit_rate(PtLevel::L2).expect("L2 exercised");
    let l1 = r.pwc_hit_rate(PtLevel::L1).expect("L1 exercised");
    assert!(l4 > 0.95, "PL4 {l4}");
    assert!(l3 > 0.9, "PL3 {l3}");
    assert!(l2 < 0.5, "PL2 {l2}");
    assert!(l1 < 0.3, "PL1 {l1}");
}

/// Fig 6a: NDP PTW latency grows with core count; the CPU's stays far
/// flatter (its caches absorb PTE traffic before DRAM).
#[test]
fn ndp_ptw_scales_with_cores_cpu_does_not() {
    let mut ndp = Vec::new();
    let mut cpu = Vec::new();
    for cores in [1u32, 4] {
        ndp.push(
            Machine::new(quick(
                SystemKind::Ndp,
                cores,
                Mechanism::Radix,
                WorkloadId::Bfs,
            ))
            .run()
            .avg_ptw_latency(),
        );
        cpu.push(
            Machine::new(quick(
                SystemKind::Cpu,
                cores,
                Mechanism::Radix,
                WorkloadId::Bfs,
            ))
            .run()
            .avg_ptw_latency(),
        );
    }
    let ndp_growth = ndp[1] / ndp[0];
    let cpu_growth = cpu[1] / cpu[0];
    assert!(ndp_growth > 1.2, "NDP PTW must grow: {ndp:?}");
    assert!(
        ndp_growth > cpu_growth,
        "NDP grows faster than CPU: {ndp_growth} vs {cpu_growth}"
    );
}

/// §VII-B: Huge Page collapses under contiguity exhaustion — forced here
/// with a small-memory override (the full-scale effect needs 8 cores x
/// 10 GB; see EXPERIMENTS.md).
#[test]
fn huge_page_degrades_when_contiguity_runs_out() {
    let mut plentiful = quick(SystemKind::Ndp, 1, Mechanism::HugePage, WorkloadId::Rnd);
    plentiful.memory_capacity_override = Some(16 << 30);
    let mut scarce = plentiful.clone();
    scarce.memory_capacity_override = Some(2 << 30); // pool < 1 GB footprint

    let rich = Machine::new(plentiful).run();
    let poor = Machine::new(scarce).run();
    assert_eq!(rich.faults.fallback, 0, "16 GB pool suffices for 1 GB");
    assert!(poor.faults.fallback > 0, "2 GB pool must exhaust");
    assert!(
        poor.total_cycles > rich.total_cycles,
        "fallbacks + compaction must cost time: {} vs {}",
        poor.total_cycles,
        rich.total_cycles
    );
}

/// The NDPage bypass eliminates metadata traffic from the L1 entirely
/// while still reaching memory (Fig 11's red path).
#[test]
fn bypass_reroutes_metadata_around_l1() {
    let ndpage = Machine::new(quick(
        SystemKind::Ndp,
        1,
        Mechanism::NdPage,
        WorkloadId::Gen,
    ))
    .run();
    assert_eq!(ndpage.l1_metadata.total(), 0);
    assert_eq!(ndpage.data_evicted_by_metadata, 0);
    assert!(ndpage.mem_traffic.metadata > 0);
    assert!(ndpage.ptw.count > 0);
}

/// ECH trades latency for bandwidth: fewer sequential rounds but more
/// metadata traffic per walk than NDPage (§VIII's contrast).
#[test]
fn ech_uses_more_metadata_bandwidth_than_ndpage() {
    let ech = Machine::new(quick(SystemKind::Ndp, 1, Mechanism::Ech, WorkloadId::Rnd)).run();
    let ndpage = Machine::new(quick(
        SystemKind::Ndp,
        1,
        Mechanism::NdPage,
        WorkloadId::Rnd,
    ))
    .run();
    let ech_per_walk = ech.mem_traffic.metadata as f64 / ech.ptw.count as f64;
    let ndpage_per_walk = ndpage.mem_traffic.metadata as f64 / ndpage.ptw.count as f64;
    assert!(
        ech_per_walk > 2.0 * ndpage_per_walk,
        "ECH {ech_per_walk} vs NDPage {ndpage_per_walk} fetches/walk"
    );
}

/// All eleven workloads run end-to-end under every mechanism without
/// violating basic report invariants.
#[test]
fn all_workloads_all_mechanisms_smoke() {
    for w in WorkloadId::ALL {
        for m in [Mechanism::Radix, Mechanism::NdPage] {
            let mut cfg = quick(SystemKind::Ndp, 1, m, w);
            cfg.warmup_ops = 1000;
            cfg.measure_ops = 2000;
            let r = Machine::new(cfg).run();
            assert_eq!(r.ops, 2000, "{w}/{m}");
            assert!(r.mem_ops > 0, "{w}/{m}");
            assert!(r.total_cycles.as_u64() > 0, "{w}/{m}");
            assert!(r.translation_fraction() <= 1.0, "{w}/{m}");
        }
    }
}

/// Radix/NDPage report pairs of a `... × mechanism [radix, ndpage]`
/// grid, one per outer grid point.
fn radix_ndpage(result: &SweepResult) -> Vec<(&RunReport, &RunReport)> {
    result
        .pairs("mechanism")
        .into_iter()
        .map(|(_, p)| (&p[0].report, &p[1].report))
        .collect()
}

#[test]
fn speedup_rows_have_all_mechanisms() {
    let result = speedup_grid(1, &[WorkloadId::Rnd]);
    let groups = result.pairs("mechanism");
    assert_eq!(groups.len(), 1);
    assert_eq!(groups[0].1.len(), 5, "Radix plus four mechanisms");
    assert_eq!(groups[0].1[0].coord("mechanism"), Some("radix"));
    let ideal = result.geomean_speedup("mechanism", "radix", "ideal");
    let ndpage = result.geomean_speedup("mechanism", "radix", "ndpage");
    assert!(ideal >= ndpage, "Ideal bounds NDPage");
    assert!(ndpage > 1.0, "NDPage beats Radix");
}

#[test]
fn motivation_shows_ndp_worse_than_cpu() {
    // BFS has the hot/cold working-set structure that lets CPU caches
    // absorb PTE lines; uniform-random GUPS is hostile to both systems.
    let result = sweep(
        SweepSpec::new(figure_base(SystemKind::Ndp, 4, WorkloadId::Bfs))
            .axis("system", &["ndp", "cpu"]),
    );
    let (ndp, cpu) = (&result.rows[0].report, &result.rows[1].report);
    assert!(
        ndp.avg_ptw_latency() > cpu.avg_ptw_latency(),
        "NDP {} vs CPU {}",
        ndp.avg_ptw_latency(),
        cpu.avg_ptw_latency()
    );
    assert!(ndp.translation_fraction() > cpu.translation_fraction());
}

#[test]
fn miss_rates_show_pollution() {
    let result = sweep(
        SweepSpec::new(figure_base(SystemKind::Ndp, 4, WorkloadId::Rnd))
            .axis("mechanism", &["ideal", "radix"]),
    );
    let data_ideal = result.rows[0].report.l1_data.miss_rate();
    let radix = &result.rows[1].report;
    let metadata = radix.l1_metadata.miss_rate();
    assert!(metadata > 0.8, "metadata miss {metadata}");
    assert!(
        radix.l1_data.miss_rate() >= data_ideal,
        "pollution can only hurt: {} vs {data_ideal}",
        radix.l1_data.miss_rate()
    );
}

#[test]
fn scaling_covers_requested_points() {
    let result = sweep(
        SweepSpec::new(figure_base(SystemKind::Ndp, 1, WorkloadId::Rnd))
            .axis("system", &["ndp", "cpu"])
            .axis("cores", &[1, 2])
            .axis("workload", &[WorkloadId::Rnd]),
    );
    assert_eq!(result.pairs("workload").len(), 4); // 2 systems x 2 core counts
}

#[test]
fn pwc_sweep_monotonically_helps_radix() {
    let result = sweep(
        SweepSpec::new(sweep_base(4, WorkloadId::Rnd))
            .axis("pwc_entries", &[8, 512])
            .axis("mechanism", &["radix", "ndpage"]),
    );
    let points = radix_ndpage(&result);
    assert_eq!(points.len(), 2);
    // Bigger PWCs cannot make Radix walk *more* memory fetches.
    let (small, large) = (points[0].0, points[1].0);
    assert!(
        large.mem_traffic.metadata <= small.mem_traffic.metadata,
        "PWC growth must absorb PTE fetches: {} vs {}",
        large.mem_traffic.metadata,
        small.mem_traffic.metadata
    );
    for (i, (radix, ndpage)) in points.iter().enumerate() {
        assert!(ndpage.speedup_over(radix) > 0.8, "sanity at point {i}");
    }
}

#[test]
fn tlb_sweep_reduces_walks() {
    let result = sweep(
        SweepSpec::new(sweep_base(4, WorkloadId::Rnd))
            .axis("tlb_l2_entries", &[384, 6144])
            .axis("mechanism", &["radix", "ndpage"]),
    );
    let points = radix_ndpage(&result);
    let (small, large) = (points[0].0, points[1].0);
    assert!(
        large.ptw.count <= small.ptw.count,
        "more TLB reach, fewer walks: {} vs {}",
        large.ptw.count,
        small.ptw.count
    );
}

#[test]
fn context_switch_sweep_shows_flush_costs_and_ndpage_recovery() {
    // BFS has the hot/cold locality that makes a TLB flush expensive;
    // uniform-random GUPS barely notices one (its TLB is always cold).
    let result = sweep(
        SweepSpec::new(
            sweep_base(2, WorkloadId::Bfs)
                .with_ops(4_000, 10_000)
                .with_procs(2),
        )
        .axis("context_switch_quantum_ops", &[1_000])
        .axis("mechanism", &["radix", "ndpage"])
        .axis("tlb_tagging", &[true, false]),
    );
    assert_eq!(result.rows.len(), 4);
    let [radix_tagged, radix_untagged, _, ndpage_untagged] =
        [0, 1, 2, 3].map(|i| &result.rows[i].report);
    // Switches happened and untagged hardware flushed on every one.
    assert!(radix_untagged.sched.context_switches > 0);
    assert_eq!(
        radix_untagged.sched.tlb_flushes,
        radix_untagged.sched.context_switches
    );
    assert_eq!(radix_tagged.sched.tlb_flushes, 0, "tags avoid flushes");
    // Flushing costs walks: the untagged run walks strictly more.
    assert!(
        radix_untagged.tlb_walk_rate() > radix_tagged.tlb_walk_rate(),
        "untagged {} vs tagged {}",
        radix_untagged.tlb_walk_rate(),
        radix_tagged.tlb_walk_rate()
    );
    // The flush penalty: untagged over tagged cycles.
    assert!(radix_tagged.speedup_over(radix_untagged) > 1.0);
    // NDPage's flat walks re-warm the flushed state cheaper than
    // Radix's descents (~2 cold fetches vs 1 once the near-perfect
    // upper-level PWCs refill, modulo cache absorption).
    let (radix_cost, ndpage_cost) = (
        radix_untagged.post_switch_walk_cost(),
        ndpage_untagged.post_switch_walk_cost(),
    );
    assert!(ndpage_cost > 0.0, "NDPage re-warmed after flushes");
    assert!(
        radix_cost / ndpage_cost > 1.15,
        "advantage {}",
        radix_cost / ndpage_cost
    );
    assert!(radix_cost > ndpage_cost);
}

#[test]
fn mlp_sweep_overlaps_misses_and_queues_walks() {
    let result = sweep(
        SweepSpec::new(sweep_base(4, WorkloadId::Rnd))
            .paired_axis(
                [1, 8]
                    .iter()
                    .map(|w: &u32| {
                        vec![
                            ("mlp_window", w.to_string()),
                            ("mshrs_per_core", w.to_string()),
                        ]
                    })
                    .collect(),
            )
            .axis("mechanism", &["radix", "ndpage"]),
    );
    let points = radix_ndpage(&result);
    assert_eq!(points.len(), 2);
    let (blocking, (windowed, windowed_ndpage)) = (points[0].0, points[1]);
    // Window 1 is the blocking core: no overlap artefacts at all
    // (its achieved MLP stays below one — every latency is exposed).
    assert_eq!(blocking.mlp_window, 1);
    assert_eq!(blocking.mlp.window_stall_cycles, 0);
    assert_eq!(blocking.mlp.peak_inflight, 0);
    assert_eq!(blocking.mlp.mshr_coalesced, 0);
    assert_eq!(blocking.mlp.mshr_full_stalls, 0);
    assert_eq!(blocking.mlp.walker_queued_walks, 0);
    assert!(blocking.achieved_mlp() <= 1.0);
    // Window 8 overlaps: the same trace finishes faster, with real
    // memory-level parallelism and queued walks.
    assert!(
        windowed.total_cycles < blocking.total_cycles,
        "overlap must help: {} vs {}",
        windowed.total_cycles,
        blocking.total_cycles
    );
    assert!(
        windowed.achieved_mlp() > 1.5,
        "achieved MLP {}",
        windowed.achieved_mlp()
    );
    assert!(windowed.mlp.peak_inflight > 1);
    assert!(
        windowed.mlp.walker_queued_walks > 0,
        "GUPS walks must queue for the single walker"
    );
    // Radix queues at least as much walker time as NDPage: four-level
    // descents hold the walker longer than flattened fetches.
    assert!(
        windowed.mlp.walker_queue_cycles >= windowed_ndpage.mlp.walker_queue_cycles,
        "radix {} vs ndpage {}",
        windowed.mlp.walker_queue_cycles,
        windowed_ndpage.mlp.walker_queue_cycles
    );
}

#[test]
fn shared_llc_sweep_diverges_under_cache_pressure() {
    // 0 KB anchors the no-shared-layer baseline; 256 KB is four
    // co-running address spaces squeezing a tiny cache; 8 MB is
    // ample capacity.
    let result = sweep(
        SweepSpec::new(
            sweep_base(2, WorkloadId::Rnd)
                .with_procs(2)
                .with_quantum(2_000),
        )
        .axis("l3_kb", &[0, 256, 8192])
        .axis("mechanism", &["radix", "ndpage"]),
    );
    let points = radix_ndpage(&result);
    assert_eq!(points.len(), 3);
    let (disabled, small, large) = (points[0], points[1], points[2]);
    let pte_hit = |r: &RunReport| r.l3.as_ref().map_or(0.0, |s| s.metadata.hit_rate());

    assert!(disabled.0.l3.is_none(), "0 KB disables the layer");
    for (radix, ndpage) in [small, large] {
        let l3 = radix.l3.as_ref().expect("enabled point reports L3");
        assert!(l3.total().total() > 0, "the L3 was exercised");
        assert_eq!(
            ndpage.l3.as_ref().unwrap().metadata.total(),
            0,
            "NDPage's bypassed PTE fetches never probe the shared L3"
        );
    }

    // Cache pressure eats Radix's PTE hits: under the small L3 its
    // metadata hit rate is strictly lower, and the inclusive layer
    // visibly back-invalidates private lines.
    assert!(
        pte_hit(small.0) < pte_hit(large.0),
        "pressure must cost Radix PTE hits: {} vs {}",
        pte_hit(small.0),
        pte_hit(large.0)
    );
    assert!(small.0.l3.as_ref().unwrap().back_invalidations > 0);

    // The acceptance shape: the mechanisms *diverge* measurably under
    // pressure — the NDPage-vs-Radix ratio moves when shared capacity
    // does, because only Radix's translation path depends on it.
    let (small_speedup, large_speedup) =
        (small.1.speedup_over(small.0), large.1.speedup_over(large.0));
    assert!(
        (small_speedup - large_speedup).abs() > 0.01,
        "cache pressure must move the NDPage-vs-Radix gap measurably, \
         got {small_speedup:.4} vs {large_speedup:.4}"
    );
}

#[test]
fn native_2mb_tlb_entries_help_huge_page() {
    let result = sweep(
        SweepSpec::new(sweep_base(1, WorkloadId::Rnd)).paired_axis(vec![
            vec![("mechanism", "radix".to_string())],
            vec![("mechanism", "hugepage".to_string())],
            vec![
                ("mechanism", "hugepage".to_string()),
                ("tlb_fracture_huge", "false".to_string()),
            ],
        ]),
    );
    let (fractured, native) = (&result.rows[1].report, &result.rows[2].report);
    assert!(
        native.tlb_walk_rate() < fractured.tlb_walk_rate(),
        "native 2 MB entries slash the walk rate: {} vs {}",
        native.tlb_walk_rate(),
        fractured.tlb_walk_rate()
    );
    assert!(native.total_cycles <= fractured.total_cycles);
}
