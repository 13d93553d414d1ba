#![forbid(unsafe_code)]
//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p ndp-bench --release --bin figures -- [--quick] [--jobs N] <what>...
//! ```
//!
//! `<what>` ∈ {table1, table2, fig4, fig5, fig6, fig7, fig8, pwc,
//! fig12, fig13, fig14, ablation, sweeps, all}. `--quick` uses small
//! footprints and windows (seconds instead of minutes); EXPERIMENTS.md
//! records the full-scale output. Every simulated table's header names
//! the scale it was produced at. `--jobs N` caps the parallel driver's
//! workers (wins over `NDP_THREADS`, exactly as in `ndpsim`).
//!
//! Every simulated table is one [`SweepSpec`] grid run through
//! [`run_sweep`], its rows read back in grid order with
//! [`SweepResult::pairs`] and [`SweepResult::geomean_speedup`]; only
//! Fig 8's occupancy is a mapping analysis without timing.

use ndp_bench::cli::{exit_on_err, install_jobs, Args};
use ndp_bench::{pct, print_table, spd};
use ndp_sim::experiment::{occupancy_figure, Scale};
use ndp_sim::report::ratio;
use ndp_sim::spec::{mechanism_names, run_sweep, SweepResult, SweepRow, SweepSpec};
use ndp_sim::{SimConfig, SystemKind};
use ndp_types::stats::mean;
use ndp_types::PtLevel;
use ndp_workloads::WorkloadId;
use ndpage::Mechanism;

fn main() {
    // Fail fast (and cleanly) on a malformed NDP_THREADS or --jobs
    // rather than panicking once the first sweep fans out; --jobs wins
    // over the env var, consistently with ndpsim.
    let args = Args::from_env();
    exit_on_err(install_jobs(&args));
    // A typo'd flag or figure name must error out, not silently run the
    // wrong (possibly hours-long, full-scale) set.
    exit_on_err(args.reject_unknown(&["--jobs", "--from-jsonl"], &["--quick", "--help"]));

    // Stored-row mode: render tables from a sweep JSONL file without
    // re-simulating anything (same renderer as the simulated path, same
    // group-mean code as `calibrate --check --from`).
    if let Some(path) = args.get("--from-jsonl") {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        });
        let tables = ndp_bench::calibration::jsonl_tables(&text).unwrap_or_else(|e| {
            eprintln!("error: {path}: {e}");
            std::process::exit(1);
        });
        println!("\n=== Stored rows: {path} ===\n");
        print!("{tables}");
        return;
    }
    const WHATS: &[&str] = &[
        "table1",
        "table2",
        "calibration",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "pwc",
        "fig12",
        "fig13",
        "fig14",
        "ablation",
        "sweeps",
        "all",
    ];
    if args.has("--help") {
        eprintln!(
            "usage: figures [--quick] [--jobs N] <what>...\n\
             \x20      figures --from-jsonl FILE.jsonl   render tables from stored rows\n\
             <what>: {}",
            WHATS.join(", ")
        );
        return;
    }
    let quick = args.has("--quick");
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let jobs_value = args.get("--jobs");
    let what: Vec<&str> = args
        .raw()
        .iter()
        .filter(|a| !a.starts_with("--") && Some(*a) != jobs_value.as_ref())
        .map(String::as_str)
        .collect();
    for w in &what {
        if !WHATS.contains(w) {
            eprintln!(
                "error: unrecognized figure {w:?}; valid values: {}",
                WHATS.join(", ")
            );
            std::process::exit(2);
        }
    }
    let what = if what.is_empty() { vec!["all"] } else { what };
    let all = what.contains(&"all");

    let workloads = WorkloadId::ALL;

    if all || what.contains(&"table1") {
        table1();
    }
    if all || what.contains(&"table2") {
        table2();
    }
    if all || what.contains(&"calibration") {
        calibration_targets();
    }
    if all || what.contains(&"fig4") || what.contains(&"fig5") {
        fig4_fig5(scale, &workloads);
    }
    if all || what.contains(&"fig6") {
        fig6(scale, &workloads);
    }
    if all || what.contains(&"fig7") {
        fig7(scale, &workloads);
    }
    if all || what.contains(&"fig8") {
        fig8(scale, &workloads);
    }
    if all || what.contains(&"pwc") {
        pwc(scale);
    }
    for (arg, cores) in [("fig12", 1u32), ("fig13", 4), ("fig14", 8)] {
        if all || what.contains(&arg) {
            speedups(arg, cores, scale, &workloads);
        }
    }
    if all || what.contains(&"ablation") {
        ablation(scale);
    }
    if all || what.contains(&"sweeps") {
        sweeps(scale);
    }
}

/// Extension studies beyond the paper's figures: parameter sweeps that
/// probe *why* NDPage works and where its advantage would end. Each is
/// Radix against NDPage (or Huge Page's TLB treatment) along one axis.
fn sweeps(scale: Scale) {
    let mechanisms = ["radix", "ndpage"];

    // Growing the per-level PWCs. §V-C predicts NDPage's edge shrinks
    // once PWCs cover the PL2/PL1 prefixes (flattening removes misses a
    // big-enough PWC would also remove), but bypass keeps a residual
    // advantage.
    println!(
        "\n=== Extension: PWC-size sweep (RND, 4-core NDP) [{} scale] ===\n",
        scale.name()
    );
    let result = sweep(
        SweepSpec::new(ndp_radix(scale, 4, WorkloadId::Rnd))
            .named("pwc_size_sweep")
            .axis("pwc_entries", &[8, 16, 64, 256, 1024])
            .axis("mechanism", &mechanisms),
    );
    let rows: Vec<Vec<String>> = result
        .pairs("mechanism")
        .iter()
        .map(|(_, p)| {
            let (radix, ndpage) = (&p[0].report, &p[1].report);
            vec![
                coord(p[0], "pwc_entries"),
                format!("{:.1}", radix.avg_ptw_latency()),
                format!("{:.1}", ndpage.avg_ptw_latency()),
                spd(ndpage.speedup_over(radix)),
            ]
        })
        .collect();
    print_table(
        &["PWC entries", "Radix PTW", "NDPage PTW", "NDPage speedup"],
        &rows,
    );

    // Growing the L2 TLB. With enough reach the walk rate collapses and
    // every mechanism converges toward Ideal. Sizes must be 12-way
    // divisible into a power of two sets.
    println!(
        "\n=== Extension: L2-TLB reach sweep (RND, 4-core NDP) [{} scale] ===\n",
        scale.name()
    );
    let result = sweep(
        SweepSpec::new(ndp_radix(scale, 4, WorkloadId::Rnd))
            .named("tlb_reach_sweep")
            .axis("tlb_l2_entries", &[384, 1536, 6144])
            .axis("mechanism", &mechanisms),
    );
    let rows: Vec<Vec<String>> = result
        .pairs("mechanism")
        .iter()
        .map(|(_, p)| {
            let (radix, ndpage) = (&p[0].report, &p[1].report);
            vec![
                coord(p[0], "tlb_l2_entries"),
                pct(radix.tlb_walk_rate()),
                spd(ndpage.speedup_over(radix)),
            ]
        })
        .collect();
    print_table(
        &["L2 TLB entries", "Radix walk rate", "NDPage speedup"],
        &rows,
    );

    // Huge Page with native 2 MB TLB entries (fracturing off) exposes
    // how much of its Fig 12 deficit comes from TLB support rather than
    // the table structure. One paired axis: the Radix baseline, then
    // Huge Page fractured (the paper's treatment) and native.
    println!(
        "\n=== Extension: Huge Page TLB-fracturing ablation (RND, 1-core) [{} scale] ===\n",
        scale.name()
    );
    let result = sweep(
        SweepSpec::new(ndp_radix(scale, 1, WorkloadId::Rnd))
            .named("fracturing_ablation")
            .paired_axis(vec![
                vec![("mechanism", "radix".to_string())],
                vec![("mechanism", "hugepage".to_string())],
                vec![
                    ("mechanism", "hugepage".to_string()),
                    ("tlb_fracture_huge", "false".to_string()),
                ],
            ]),
    );
    let radix = &result.rows[0].report;
    let rows: Vec<Vec<String>> = ["fractured (paper)", "native 2MB entries"]
        .iter()
        .zip(&result.rows[1..])
        .map(|(label, r)| {
            vec![
                (*label).to_string(),
                pct(r.report.tlb_walk_rate()),
                spd(r.report.speedup_over(radix)),
            ]
        })
        .collect();
    print_table(&["Huge Page TLB", "walk rate", "speedup vs Radix"], &rows);

    // Two processes per core, sweeping the scheduling quantum with ASID
    // tagging on and off. Untagged runs full-flush TLBs and PWCs at
    // every switch, so the sweep measures how quickly each mechanism
    // re-warms: NDPage's flattened single-fetch walks refill the TLB far
    // cheaper than Radix's four-level descents. The flush penalty is
    // untagged over tagged cycles; the recovery advantage is the ratio
    // of post-flush walk costs (one walk per hot page either way, so it
    // is the structural part of the penalty).
    println!(
        "\n=== Extension: context-switch sweep (BFS, 2-core NDP, 2 procs/core) [{} scale] ===\n",
        scale.name()
    );
    let result = sweep(
        SweepSpec::new(ndp_radix(scale, 2, WorkloadId::Bfs).with_procs(2))
            .named("context_switch_sweep")
            .axis("context_switch_quantum_ops", &[2_000, 10_000])
            .axis("mechanism", &mechanisms)
            .axis("tlb_tagging", &[true, false]),
    );
    // Grid order within one quantum: (Radix, NDPage) x (tagged, untagged).
    let rows: Vec<Vec<String>> = result
        .rows
        .chunks(4)
        .map(|runs| {
            let [radix_t, radix_u, ndpage_t, ndpage_u] = [0, 1, 2, 3].map(|i| &runs[i].report);
            let ndpage_cost = ndpage_u.post_switch_walk_cost();
            let advantage = ratio(radix_u.post_switch_walk_cost(), ndpage_cost).unwrap_or(0.0);
            vec![
                coord(&runs[0], "context_switch_quantum_ops"),
                format!("{:.3}x", radix_t.speedup_over(radix_u)),
                format!("{:.3}x", ndpage_t.speedup_over(ndpage_u)),
                format!("{:.0} cyc", radix_u.post_switch_walk_cost()),
                format!("{:.0} cyc", ndpage_cost),
                format!("{advantage:.2}x"),
            ]
        })
        .collect();
    print_table(
        &[
            "quantum (ops)",
            "Radix flush penalty",
            "NDPage flush penalty",
            "Radix re-warm walk",
            "NDPage re-warm walk",
            "NDPage recovery adv.",
        ],
        &rows,
    );

    // Widening the per-core issue window, with MSHRs matched to it on
    // one paired axis (window 1 is the blocking core).
    println!(
        "\n=== Extension: MLP sweep (BFS, 4-core NDP, MSHRs = window) [{} scale] ===\n",
        scale.name()
    );
    let result = sweep(
        SweepSpec::new(ndp_radix(scale, 4, WorkloadId::Bfs))
            .named("mlp_sweep")
            .paired_axis(
                [1, 2, 4, 8, 16]
                    .iter()
                    .map(|w: &u32| {
                        vec![
                            ("mlp_window", w.to_string()),
                            ("mshrs_per_core", w.to_string()),
                        ]
                    })
                    .collect(),
            )
            .axis("mechanism", &mechanisms),
    );
    let rows: Vec<Vec<String>> = result
        .pairs("mechanism")
        .iter()
        .map(|(_, p)| {
            let (radix, ndpage) = (&p[0].report, &p[1].report);
            vec![
                coord(p[0], "mlp_window"),
                format!("{:.1}", radix.cpo()),
                format!("{:.1}", ndpage.cpo()),
                format!("{:.2}", radix.achieved_mlp()),
                format!("{:.0} cyc", radix.mlp.walker_queue_delay()),
                format!("{:.0} cyc", ndpage.mlp.walker_queue_delay()),
                spd(ndpage.speedup_over(radix)),
            ]
        })
        .collect();
    print_table(
        &[
            "window",
            "Radix cpo",
            "NDPage cpo",
            "Radix MLP",
            "Radix walker wait",
            "NDPage walker wait",
            "NDPage speedup",
        ],
        &rows,
    );
    println!(
        "\nData misses overlap with the window; page walks still queue for\n\
         the hardware walker — so translation's share of every op grows\n\
         with MLP, and NDPage's one-fetch walks pay off more, not less."
    );

    // Four co-running address spaces squeezing one shared banked L3 of
    // shrinking capacity (0 KB disables the layer, anchoring the
    // baseline in the same grid).
    println!(
        "\n=== Extension: shared-LLC interference sweep \
         (RND, 2-core NDP, 2 procs/core) [{} scale] ===\n",
        scale.name()
    );
    let result = sweep(
        SweepSpec::new(
            ndp_radix(scale, 2, WorkloadId::Rnd)
                .with_procs(2)
                .with_quantum(2_000),
        )
        .named("shared_llc_sweep")
        .axis("l3_kb", &[0, 256, 2048, 8192])
        .axis("mechanism", &mechanisms),
    );
    let rows: Vec<Vec<String>> = result
        .pairs("mechanism")
        .iter()
        .map(|(_, p)| {
            let (radix, ndpage) = (&p[0].report, &p[1].report);
            let l3 = radix.l3.as_ref();
            vec![
                match coord(p[0], "l3_kb").as_str() {
                    "0" => "off".into(),
                    kb => format!("{kb} KB"),
                },
                pct(l3.map_or(0.0, |s| s.metadata.hit_rate())),
                l3.map_or_else(|| "-".into(), |s| s.bank_conflicts.to_string()),
                l3.map_or_else(|| "-".into(), |s| s.back_invalidations.to_string()),
                spd(ndpage.speedup_over(radix)),
            ]
        })
        .collect();
    print_table(
        &[
            "shared L3",
            "Radix PTE hit",
            "bank conflicts",
            "back-invals",
            "NDPage speedup",
        ],
        &rows,
    );
    println!(
        "\nOnly Radix's translation path depends on shared capacity: its PTE\n\
         fetches lose their L3 hits as co-runners squeeze the cache, while\n\
         NDPage's bypassed fetches never probe it — so the gap between the\n\
         mechanisms moves with cache pressure, the paper's central claim."
    );
}
fn table1() {
    println!("\n=== Table I: simulated system configuration ===\n");
    let rows = vec![
        vec![
            "Core".into(),
            "1/4/8 x86-64 2.6 GHz core(s)".into(),
            "same".into(),
        ],
        vec![
            "Cache".into(),
            "L1D 32KB/8w/4cyc only".into(),
            "L1D 32KB/8w/4cyc + L2 512KB/16w/16cyc + L3 2MB/core/16w/35cyc".into(),
        ],
        vec![
            "MMU".into(),
            "L1 DTLB 64e/4w/1cyc, L2 TLB 1536e/12cyc, 64e PWC per level".into(),
            "same".into(),
        ],
        vec![
            "Interconnect".into(),
            "mesh, 4-cycle hop (logic layer)".into(),
            "mesh, 4-cycle hop + off-chip penalty".into(),
        ],
        vec![
            "Memory".into(),
            "HBM2 16GB (vault view: 4ch x 6 banks)".into(),
            "DDR4-2400 16GB (2ch x 16 banks)".into(),
        ],
    ];
    print_table(&["component", "NDP system", "CPU system"], &rows);
}

fn table2() {
    println!("\n=== Table II: evaluated workloads ===\n");
    let rows: Vec<Vec<String>> = WorkloadId::ALL
        .iter()
        .map(|w| {
            vec![
                w.suite().to_string(),
                w.name().to_string(),
                format!("{} GB", w.table2_footprint() >> 30),
            ]
        })
        .collect();
    print_table(&["suite", "workload", "dataset"], &rows);
}

fn calibration_targets() {
    // Static (simulation-free): the reference points `calibrate --check`
    // gates against, straight from the embedded table.
    println!("\n=== Calibration: embedded paper targets (Figs 4/5/6/7) ===\n");
    print_table(
        &ndp_bench::calibration::TARGET_HEADERS,
        &ndp_bench::calibration::target_rows(),
    );
    println!("\nregenerate: cargo run -p ndp-bench --release --bin calibrate -- --out calibration.jsonl --resume --check");
}

fn fig4_fig5(scale: Scale, workloads: &[WorkloadId]) {
    println!(
        "\n=== Fig 4: avg PTW latency, 4-core Radix (NDP vs CPU) [{} scale] ===",
        scale.name()
    );
    println!("=== Fig 5: address-translation share of runtime ===\n");
    let result = sweep(
        SweepSpec::new(ndp_radix(scale, 4, WorkloadId::Rnd))
            .named("fig4_fig5")
            .axis("workload", workloads)
            .axis("system", &["ndp", "cpu"]),
    );
    let mut rows = Vec::new();
    let (mut ndp_ptw, mut cpu_ptw, mut ndp_fr, mut cpu_fr) = (vec![], vec![], vec![], vec![]);
    for (_, pair) in result.pairs("system") {
        let (ndp, cpu) = (&pair[0].report, &pair[1].report);
        ndp_ptw.push(ndp.avg_ptw_latency());
        cpu_ptw.push(cpu.avg_ptw_latency());
        ndp_fr.push(ndp.translation_fraction());
        cpu_fr.push(cpu.translation_fraction());
        rows.push(vec![
            ndp.workload.name().into(),
            format!("{:.1}", ndp.avg_ptw_latency()),
            format!("{:.1}", cpu.avg_ptw_latency()),
            format!(
                "{:+.0}%",
                (ndp.avg_ptw_latency() / cpu.avg_ptw_latency() - 1.0) * 100.0
            ),
            pct(ndp.translation_fraction()),
            pct(cpu.translation_fraction()),
        ]);
    }
    rows.push(vec![
        "avg".into(),
        format!("{:.1}", mean(&ndp_ptw)),
        format!("{:.1}", mean(&cpu_ptw)),
        format!("{:+.0}%", (mean(&ndp_ptw) / mean(&cpu_ptw) - 1.0) * 100.0),
        pct(mean(&ndp_fr)),
        pct(mean(&cpu_fr)),
    ]);
    print_table(
        &[
            "workload",
            "NDP PTW",
            "CPU PTW",
            "increment",
            "NDP trans%",
            "CPU trans%",
        ],
        &rows,
    );
    println!("\npaper: NDP avg PTW 474.56 cyc (+229% vs CPU); NDP 67.1% vs CPU 34.51% overhead");
}

fn fig6(scale: Scale, workloads: &[WorkloadId]) {
    println!(
        "\n=== Fig 6: scaling with core count (Radix) [{} scale] ===\n",
        scale.name()
    );
    let result = sweep(
        SweepSpec::new(ndp_radix(scale, 1, WorkloadId::Rnd))
            .named("fig6")
            .axis("system", &["ndp", "cpu"])
            .axis("cores", &[1, 4, 8])
            .axis("workload", workloads),
    );
    // One row per (system, cores): the mean over workloads.
    let rows: Vec<Vec<String>> = result
        .pairs("workload")
        .iter()
        .map(|(_, runs)| {
            let ptw: Vec<f64> = runs.iter().map(|r| r.report.avg_ptw_latency()).collect();
            let frac: Vec<f64> = runs
                .iter()
                .map(|r| r.report.translation_fraction())
                .collect();
            vec![
                runs[0].report.system.to_string(),
                runs[0].report.cores.to_string(),
                format!("{:.1}", mean(&ptw)),
                pct(mean(&frac)),
            ]
        })
        .collect();
    print_table(
        &["system", "cores", "avg PTW (cyc)", "translation %"],
        &rows,
    );
    println!("\npaper: NDP PTW 242.85 -> 474.56 -> 551.83; CPU roughly flat");
}

fn fig7(scale: Scale, workloads: &[WorkloadId]) {
    println!(
        "\n=== Fig 7: L1 miss rates, 4-core NDP [{} scale] ===\n",
        scale.name()
    );
    // Ideal has no translation traffic, so its data miss rate is the
    // pollution-free reference for Radix's.
    let result = sweep(
        SweepSpec::new(ndp_radix(scale, 4, WorkloadId::Rnd))
            .named("fig7")
            .axis("workload", workloads)
            .axis("mechanism", &["ideal", "radix"]),
    );
    let mut rows = Vec::new();
    let (mut i, mut a, mut m) = (vec![], vec![], vec![]);
    for (_, pair) in result.pairs("mechanism") {
        let (ideal, radix) = (&pair[0].report, &pair[1].report);
        i.push(ideal.l1_data.miss_rate());
        a.push(radix.l1_data.miss_rate());
        m.push(radix.l1_metadata.miss_rate());
        rows.push(vec![
            radix.workload.name().into(),
            pct(ideal.l1_data.miss_rate()),
            pct(radix.l1_data.miss_rate()),
            pct(radix.l1_metadata.miss_rate()),
        ]);
    }
    rows.push(vec![
        "avg".into(),
        pct(mean(&i)),
        pct(mean(&a)),
        pct(mean(&m)),
    ]);
    print_table(
        &[
            "workload",
            "data miss (ideal)",
            "data miss (actual)",
            "metadata miss",
        ],
        &rows,
    );
    println!("\npaper: ideal 26.16%, actual 35.89% (1.37x), metadata 98.28%");
}

fn fig8(scale: Scale, workloads: &[WorkloadId]) {
    println!(
        "\n=== Fig 8: radix page-table occupancy [{} scale] ===\n",
        scale.name()
    );
    let data = occupancy_figure(scale, workloads);
    let mut rows = Vec::new();
    let (mut p1, mut p2, mut p3, mut pc) = (vec![], vec![], vec![], vec![]);
    for (w, pl1, pl2, pl3, combined) in &data {
        p1.push(*pl1);
        p2.push(*pl2);
        p3.push(*pl3);
        pc.push(*combined);
        rows.push(vec![
            w.name().into(),
            pct(*pl1),
            pct(*pl2),
            pct(*pl3),
            pct(*combined),
        ]);
    }
    rows.push(vec![
        "avg".into(),
        pct(mean(&p1)),
        pct(mean(&p2)),
        pct(mean(&p3)),
        pct(mean(&pc)),
    ]);
    print_table(&["workload", "PL1", "PL2", "PL3", "PL2/PL1 merged"], &rows);
    println!("\npaper: PL1 97.97%, PL2 98.24%, PL3 3.12%, PL4 0.43%");
}

fn pwc(scale: Scale) {
    println!(
        "\n=== §V-C: page-walk-cache hit rates (4-core NDP, Radix) [{} scale] ===\n",
        scale.name()
    );
    let result = sweep(
        SweepSpec::new(ndp_radix(scale, 4, WorkloadId::Rnd))
            .named("pwc")
            .axis(
                "workload",
                &[
                    WorkloadId::Bfs,
                    WorkloadId::Rnd,
                    WorkloadId::Xs,
                    WorkloadId::Gen,
                ],
            ),
    );
    let rows: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|row| {
            let r = &row.report;
            vec![
                r.workload.name().into(),
                pct(r.pwc_hit_rate(PtLevel::L4).unwrap_or(0.0)),
                pct(r.pwc_hit_rate(PtLevel::L3).unwrap_or(0.0)),
                pct(r.pwc_hit_rate(PtLevel::L2).unwrap_or(0.0)),
                pct(r.pwc_hit_rate(PtLevel::L1).unwrap_or(0.0)),
            ]
        })
        .collect();
    print_table(
        &["workload", "PL4 PWC", "PL3 PWC", "PL2 PWC", "PL1 PWC"],
        &rows,
    );
    println!("\npaper: L4 ~100%, L3 98.6%, L2/L1 ~15.4%");
}

fn speedups(label: &str, cores: u32, scale: Scale, workloads: &[WorkloadId]) {
    println!(
        "\n=== {label}: speedup over Radix, {cores}-core NDP [{} scale] ===\n",
        scale.name()
    );
    // Radix first: every other mechanism's speedup is over it.
    let mechanisms = mechanism_names();
    let result = sweep(
        SweepSpec::new(ndp_radix(scale, cores, WorkloadId::Rnd))
            .named(label)
            .axis("workload", workloads)
            .axis("mechanism", &mechanisms),
    );
    let mut rows: Vec<Vec<String>> = result
        .pairs("mechanism")
        .iter()
        .map(|(_, runs)| {
            let radix = &runs[0].report;
            std::iter::once(radix.workload.name().to_string())
                .chain(runs[1..].iter().map(|r| spd(r.report.speedup_over(radix))))
                .collect()
        })
        .collect();
    let g = |m: &str| result.geomean_speedup("mechanism", "radix", m);
    rows.push(
        std::iter::once("geomean".to_string())
            .chain(mechanisms[1..].iter().map(|m| spd(g(m))))
            .collect(),
    );
    print_table(&["workload", "ECH", "Huge Page", "NDPage", "Ideal"], &rows);

    println!(
        "\nNDPage vs Radix {:+.1}%, vs second-best ECH {:+.1}%, vs Huge Page {:+.1}%",
        (g("ndpage") - 1.0) * 100.0,
        (g("ndpage") / g("ech") - 1.0) * 100.0,
        (g("ndpage") / g("hugepage") - 1.0) * 100.0
    );
    match label {
        "fig12" => println!("paper: NDPage +34.4% vs Radix, +14.3% vs ECH, +24.4% vs Huge Page"),
        "fig13" => println!("paper: NDPage +42.6% vs Radix, +9.8% vs ECH"),
        "fig14" => println!("paper: NDPage +40.7% vs Radix, +30.5% vs ECH; Huge Page at 0.901x"),
        _ => {}
    }
}

/// The §V ablation variants, isolating NDPage's two mechanisms and its
/// PWC interaction: `(column, knob settings)`, Radix first as the
/// baseline.
const ABLATION: [(&str, &[(&str, &str)]); 5] = [
    ("Radix", &[("mechanism", "radix")]),
    (
        "Radix+Bypass",
        &[("mechanism", "radix"), ("bypass", "metadata-l1")],
    ),
    (
        "Flatten-only",
        &[("mechanism", "ndpage"), ("bypass", "none")],
    ),
    ("NDPage", &[("mechanism", "ndpage")]),
    ("NDPage-noPWC", &[("mechanism", "ndpage"), ("pwc", "off")]),
];

fn ablation(scale: Scale) {
    println!(
        "\n=== Ablation: NDPage's mechanisms in isolation (4-core NDP) [{} scale] ===\n",
        scale.name()
    );
    let result = sweep(
        SweepSpec::new(ndp_radix(scale, 4, WorkloadId::Rnd))
            .named("ablation")
            .axis(
                "workload",
                &[WorkloadId::Bfs, WorkloadId::Rnd, WorkloadId::Xs],
            )
            .paired_axis(
                ABLATION
                    .iter()
                    .map(|(_, sets)| sets.iter().map(|&(k, v)| (k, v.to_string())).collect())
                    .collect(),
            ),
    );
    let rows: Vec<Vec<String>> = result
        .rows
        .chunks(ABLATION.len())
        .map(|runs| {
            let radix = &runs[0].report;
            std::iter::once(radix.workload.name().to_string())
                .chain(runs.iter().map(|r| spd(r.report.speedup_over(radix))))
                .collect()
        })
        .collect();
    let headers: Vec<&str> = std::iter::once("workload")
        .chain(ABLATION.iter().map(|(name, _)| *name))
        .collect();
    print_table(&headers, &rows);
    println!(
        "\nNote the synergy: bypass-only can *hurt* Radix (its PL2 fetches\n\
         lose their modest L1 hit rate), while flattening removes exactly\n\
         those fetches — leaving only never-hitting leaf fetches, which are\n\
         then safe to bypass. PWCs remain essential (paper SV-C)."
    );
}

/// An NDP Radix run of `workload` on `cores` cores at `scale`: the base
/// every simulated grid above starts from before its axes apply.
fn ndp_radix(scale: Scale, cores: u32, workload: WorkloadId) -> SimConfig {
    scale.apply(SimConfig::new(
        SystemKind::Ndp,
        cores,
        Mechanism::Radix,
        workload,
    ))
}

/// Runs a grid on the parallel spec engine. Every grid here is a fixed
/// literal, so one that fails to expand is a bug in this file.
fn sweep(spec: SweepSpec) -> SweepResult {
    run_sweep(&spec).unwrap_or_else(|e| panic!("{} grid: {e}", spec.name))
}

/// A row's axis value for `knob`, as the table prints it.
fn coord(row: &SweepRow, knob: &str) -> String {
    row.coord(knob).unwrap_or_default().to_string()
}
