#![forbid(unsafe_code)]
//! `simbench`: the NDPage simulator's benchmark.
//!
//! One invocation runs one workload — a sweep spec in `workloads/` — with
//! the seed applied as the spec's `seed` knob, and prints a digest
//! followed by one JSON result line:
//!
//! * `--trace 0` runs closed-loop passes over the grid until `--seconds`
//!   have passed (at least [`MIN_PASSES`]), checks every row (see
//!   [`check`]) and reports the end-to-end metrics; a timing is the sum
//!   over rows of each row's fastest pass.
//! * `--trace 1` runs a warm-up pass and an untraced pass, then a traced
//!   pass, the calibration evaluation and the layer replay ([`replay`])
//!   under the in-memory span recorder ([`spans`]), and reports the
//!   per-layer metrics. The spans are written out at the end.
//!
//! The simulator is driven only through its crates' public functions; it
//! carries no benchmark code.

pub mod check;
pub mod grid;
pub mod metrics;
pub mod replay;
pub mod spans;

use crate::grid::{Pass, Workload};
use crate::metrics::{median, END_TO_END, PER_LAYER};
use crate::spans::Tracer;
use ndp_bench::calibration;
use ndp_sim::spec::GridPoint;
use ndp_sim::{SimConfig, SystemKind};
use ndp_workloads::WorkloadId;
use ndpage::Mechanism;
use std::time::Instant;

/// Worker threads the benchmark allows: the machine's parallelism,
/// capped at 2 so runs stay comparable across hosts and small on shared
/// ones. Returns `(threads, nproc)`.
#[must_use]
pub fn threads() -> (usize, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    (nproc.min(2), nproc)
}

/// A hard ceiling on the untraced passes' total time, whatever
/// `--seconds` asks for, so a run always ends well inside its limit.
const MAX_MEASURE_S: f64 = 120.0;

/// Passes every untraced run makes, however long they take: enough for
/// the cross-pass fingerprint check and for a best-of-passes timing on
/// the longest grid.
pub const MIN_PASSES: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Workload seed (the specs' `seed` knob).
    pub seed: u64,
    /// How long the untraced passes run (at least [`MIN_PASSES`] run).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced passes.
    pub trace: bool,
    /// `knob=value` overrides applied after the seed (tests shrink the
    /// grids with them).
    pub sets: Vec<(String, String)>,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Human-readable digest lines.
    pub digest: Vec<String>,
    /// The JSON result line.
    pub result: String,
    /// Whether every check passed.
    pub correct: bool,
    /// The traced run's spans, as JSONL.
    pub spans: Option<String>,
}

/// Runs the benchmark.
///
/// # Errors
///
/// Unknown workload, spec errors, or a metric that could not be measured.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let w = grid::workload(&opts.workload)?;
    let (threads, nproc) = threads();
    ndp_sim::parallel::set_jobs(threads);
    let expand_start = Instant::now();
    let grid = expand(w, opts)?;
    let expand_s = expand_start.elapsed().as_secs_f64();
    let digest = vec![format!(
        "simbench {}: seed {}, {} rows, closed loop (one row at a time), threads {threads} of nproc {nproc}",
        w.name,
        opts.seed,
        grid.len()
    )];
    if opts.trace {
        traced_run(w, opts, &grid, digest)
    } else {
        timed_run(opts, &grid, expand_s, digest)
    }
}

fn expand(w: Workload, opts: &Options) -> Result<Vec<GridPoint>, String> {
    let spec = grid::load_spec(w, opts.seed, &opts.sets)?;
    spec.expand().map_err(|e| e.to_string())
}

/// Simulated ops (warmup + measured, all cores) of the completed rows.
fn simulated_ops(grid: &[GridPoint], pass: &Pass) -> f64 {
    grid.iter()
        .zip(&pass.rows)
        .filter(|(_, r)| r.outcome.is_ok())
        .map(|(p, _)| {
            (u64::from(p.config.cores) * (p.config.warmup_ops + p.config.measure_ops)) as f64
        })
        .sum()
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where
/// `/proc/self/status` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Calibration fidelity of a pass at tolerance scale 1, computed the way
/// `calibrate --check` computes it: `(max relative deviation, targets
/// missed, targets)`. `None` for grids that do not vary the calibration
/// coordinates (`system` and `cores`).
fn calibration_fidelity(pass: &Pass) -> Result<Option<(f64, usize, usize)>, String> {
    let calibrated = completed_rows(pass)
        .first()
        .is_some_and(|r| r.coord("system").is_some() && r.coord("cores").is_some());
    if !calibrated {
        return Ok(None);
    }
    let rows = calibration::parse_rows(&pass.jsonl())?;
    let findings = calibration::evaluate(&rows, &[], 1.0)?;
    let missed = findings.iter().filter(|f| !f.pass).count();
    Ok(Some((
        calibration::max_rel_deviation(&findings),
        missed,
        findings.len(),
    )))
}

fn completed_rows(pass: &Pass) -> Vec<&ndp_sim::spec::SweepRow> {
    pass.rows
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok().map(|d| &d.row))
        .collect()
}

/// Assembles the outcome: the result line gets `correct`, the row counts
/// and the rendered metrics.
fn outcome(
    digest: Vec<String>,
    verdict: &check::Verdict,
    metrics: &str,
    spans: Option<String>,
) -> Outcome {
    let correct = verdict.failed == 0;
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        verdict.attempted, verdict.failed
    );
    Outcome {
        digest,
        result,
        correct,
        spans,
    }
}

fn push_problems(digest: &mut Vec<String>, verdict: &check::Verdict) {
    for p in verdict.problems.iter().take(10) {
        digest.push(format!("  FAILED {p}"));
    }
}

fn timed_run(
    opts: &Options,
    grid: &[GridPoint],
    expand_s: f64,
    mut digest: Vec<String>,
) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut rss = 0.0;
    loop {
        passes.push(grid::run_pass(grid, None));
        if passes.len() == 1 {
            // The memory one grid needs; later passes only add allocator
            // fragmentation.
            rss = peak_rss_mb();
        }
        let elapsed = start.elapsed().as_secs_f64();
        let last = passes.last().map_or(0.0, |p| p.wall_s);
        if passes.len() >= MIN_PASSES && (elapsed >= opts.seconds || elapsed + last > MAX_MEASURE_S)
        {
            break;
        }
    }
    let verdict = check::check(grid, &passes);
    let n = passes.len();
    // Interference on a shared host only ever adds time, and it comes in
    // bursts: a fixed CPU loop's speed swings by up to 2x between 15 s
    // windows. Each row's fastest pass is its undisturbed cost, so the
    // grid's time is the sum over rows of that minimum; pass medians are
    // printed alongside.
    let best = |f: fn(&grid::RowRun) -> f64| -> f64 {
        (0..grid.len())
            .map(|i| {
                passes
                    .iter()
                    .map(|p| f(&p.rows[i]))
                    .fold(f64::INFINITY, f64::min)
            })
            .sum()
    };
    let wall_s = best(|r| r.new_s + r.run_s + r.report_s);
    let setup_s = best(|r| r.new_s);
    let first = &passes[0];
    let sim_ops_per_s = metrics::ratio_or_zero(simulated_ops(grid, first), best(|r| r.run_s));
    let ratios = metrics::ndpage_ratios(&completed_rows(first));
    let speedup = ndp_types::stats::geomean(&ratios);
    let slower = ratios.iter().filter(|&&r| r < 1.0).count();
    let fidelity = calibration_fidelity(first)?;
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let setups: Vec<f64> = passes.iter().map(Pass::setup_s).collect();
    let spread = |v: &[f64]| {
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(0.0, f64::max);
        format!("pass median {:.4}, range {lo:.4}..{hi:.4}", median(v))
    };
    digest.push(format!(
        "  wall_s             {wall_s:.4} s  (sum over rows of each row's fastest of {n} passes; {})",
        spread(&walls)
    ));
    digest.push(format!(
        "  setup_s            {setup_s:.4} s  ({:.1}% of wall; {})",
        100.0 * metrics::ratio_or_zero(setup_s, wall_s),
        spread(&setups)
    ));
    digest.push(format!(
        "  sim_ops_per_s      {sim_ops_per_s:.0} 1/s  (simulated warmup+measured ops over host seconds in Machine::run)"
    ));
    digest.push(format!(
        "  peak_rss_mb        {rss:.1} MB (after the first pass)"
    ));
    digest.push(format!(
        "  error_rate         {} ({} of {} rows failed)",
        verdict.error_rate(),
        verdict.failed,
        verdict.attempted
    ));
    if let Some((cal_dev, cal_missed, cal_targets)) = fidelity {
        digest.push(format!(
            "  cal_max_rel_dev    {cal_dev:.4}  (tolerance scale 1)"
        ));
        digest.push(format!(
            "  cal_targets_missed {cal_missed} of {cal_targets}"
        ));
    } else {
        digest.push("  cal_max_rel_dev    n/a (no calibration rows)".to_string());
        digest.push("  cal_targets_missed n/a (no calibration rows)".to_string());
    }
    digest.push(format!(
        "  ndpage_slower_pairs {slower} of {} NDP Radix/NDPage pairs; ndpage_speedup {speedup:.4} (geomean)",
        ratios.len()
    ));
    digest.push(format!(
        "  report digest      {:#018x} (xor of row fingerprints); spec expansion {expand_s:.4} s",
        first
            .rows
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok())
            .fold(0u64, |d, r| d ^ r.fingerprint)
    ));
    push_problems(&mut digest, &verdict);
    let values = [
        ("wall_s", wall_s),
        ("setup_s", setup_s),
        ("sim_ops_per_s", sim_ops_per_s),
        ("peak_rss_mb", rss),
        ("ndpage_speedup", speedup),
    ];
    let metrics = metrics::render(END_TO_END, &values)?;
    Ok(outcome(digest, &verdict, &metrics, None))
}

/// Rows replay once per distinct `(workload, mechanism, system)`.
type ReplayKey = (WorkloadId, Mechanism, SystemKind);

fn replay_key(cfg: &SimConfig) -> ReplayKey {
    (cfg.workload, cfg.mechanism, cfg.system)
}

fn traced_run(
    w: Workload,
    opts: &Options,
    grid: &[GridPoint],
    mut digest: Vec<String>,
) -> Result<Outcome, String> {
    // The first pass of a process pays for fresh heap pages; it warms the
    // process so the untraced/traced comparison measures tracing alone.
    let warm = grid::run_pass(grid, None);
    let untraced = grid::run_pass(grid, None);
    let mut t = Tracer::new();
    t.enter("bench.run");
    let traced_grid = t.span("bench.expand", |_| expand(w, opts))?;
    t.enter("sim.pass");
    let traced = grid::run_pass(&traced_grid, Some(&mut t));
    t.exit(traced_grid.len() as u64);
    let fidelity = t.span("bench.eval", |_| calibration_fidelity(&traced))?;
    let mut costs: Vec<(ReplayKey, replay::LayerCosts)> = Vec::new();
    t.enter("replay");
    for point in grid {
        let key = replay_key(&point.config);
        if costs.iter().all(|(k, _)| *k != key) {
            t.enter("replay.row");
            costs.push((key, replay::replay(&point.config, &mut t)));
            t.exit(1);
        }
    }
    t.exit(costs.len() as u64);
    t.exit(1);

    let passes = [warm, untraced, traced];
    let verdict = check::check(grid, &passes);
    let [_, untraced, traced] = passes;
    let cost_of = |cfg: &SimConfig| {
        let key = replay_key(cfg);
        costs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, c)| *c)
            .unwrap_or_default()
    };
    let mut explained = [0.0f64; 5];
    let mut regions_s = 0.0;
    let mut trace_build_s = 0.0;
    for (point, row) in grid.iter().zip(&traced.rows) {
        let cfg = &point.config;
        let c = cost_of(cfg);
        let procs = f64::from(cfg.cores * cfg.procs_per_core);
        regions_s += procs * c.regions_s;
        trace_build_s += procs * c.trace_build_s;
        if let Some(r) = row.report() {
            let e = metrics::explained_ns(r, cfg.warmup_ops, cfg.measure_ops, &c);
            for (acc, v) in explained.iter_mut().zip(e) {
                *acc += v;
            }
        }
    }
    let explained_total: f64 = explained.iter().sum();
    let share = |i: usize| metrics::ratio_or_zero(explained[i], explained_total);
    let run_s = traced.run_s();
    let weighted = |f: fn(&replay::LayerCosts) -> f64| {
        // Per-call cost averaged over the replayed keys, weighted by the
        // rows that use each key.
        let v: Vec<f64> = grid.iter().map(|p| f(&cost_of(&p.config))).collect();
        metrics::ratio_or_zero(v.iter().sum(), v.len() as f64)
    };
    let ratios = metrics::ndpage_ratios(&completed_rows(&traced));
    let reports: Vec<&ndp_sim::RunReport> =
        completed_rows(&traced).iter().map(|r| &r.report).collect();
    let mut values: Vec<(&str, f64)> = metrics::report_metrics(&reports);
    values.extend([
        ("workloads.trace_ns_per_op", weighted(|c| c.trace_ns)),
        ("workloads.trace_build_s", trace_build_s),
        ("workloads.regions_s", regions_s),
        ("workloads.replay_share", share(0)),
        (
            "core.premap_ns_per_page",
            weighted(|c| c.premap_ns_per_page),
        ),
        ("core.walk_ns", weighted(|c| c.walk_ns)),
        ("core.replay_share", share(1)),
        ("mmu.tlb_lookup_ns", weighted(|c| c.tlb_lookup_ns)),
        ("mmu.tlb_fill_ns", weighted(|c| c.tlb_fill_ns)),
        ("mmu.walker_plan_ns", weighted(|c| c.walker_plan_ns)),
        ("mmu.replay_share", share(2)),
        ("cache.lookup_ns", weighted(|c| c.cache_lookup_ns)),
        ("cache.fill_ns", weighted(|c| c.cache_fill_ns)),
        ("cache.shared_access_ns", weighted(|c| c.shared_access_ns)),
        ("cache.mshr_probe_ns", weighted(|c| c.mshr_probe_ns)),
        ("cache.replay_share", share(3)),
        ("mem.request_ns", weighted(|c| c.request_ns)),
        (
            "mem.request_ticketed_ns",
            weighted(|c| c.request_ticketed_ns),
        ),
        ("mem.replay_share", share(4)),
        ("sim.new_s", traced.setup_s()),
        ("sim.run_s", run_s),
        ("sim.report_s", traced.report_s()),
        (
            "sim.ndpage_speedup_geomean",
            ndp_types::stats::geomean(&ratios),
        ),
        (
            "sim.ndpage_slower_pairs",
            ratios.iter().filter(|&&r| r < 1.0).count() as f64,
        ),
        (
            "sim.run_explained_frac",
            metrics::ratio_or_zero(explained_total * 1e-9, run_s),
        ),
        ("bench.expand_s", t.seconds("bench.expand")),
        ("bench.eval_s", t.seconds("bench.eval")),
        ("bench.cal_max_rel_dev", fidelity.map_or(0.0, |f| f.0)),
        (
            "bench.cal_targets_missed",
            fidelity.map_or(0.0, |f| f.1 as f64),
        ),
        ("bench.trace_overhead_s", traced.wall_s - untraced.wall_s),
    ]);
    let self_ns = t.self_times_ns();
    let replay_s = t.seconds("replay");
    digest.push(format!(
        "  traced pass {:.4} s vs untraced {:.4} s: tracing overhead {:+.4} s; replay of {} (workload, mechanism, system) keys {replay_s:.3} s",
        traced.wall_s,
        untraced.wall_s,
        traced.wall_s - untraced.wall_s,
        costs.len()
    ));
    digest.push(format!(
        "  setup share {:.1}% of wall (untraced pass); run loop {run_s:.4} s, {:.1}% explained by the replay",
        100.0 * metrics::ratio_or_zero(untraced.setup_s(), untraced.wall_s),
        100.0 * metrics::ratio_or_zero(explained_total * 1e-9, run_s)
    ));
    digest.push(format!(
        "  replay split: workloads {:.1}%, core {:.1}%, mmu {:.1}%, cache {:.1}%, mem {:.1}%",
        100.0 * share(0),
        100.0 * share(1),
        100.0 * share(2),
        100.0 * share(3),
        100.0 * share(4)
    ));
    digest.push(format!(
        "  {} spans, min self time {} ns",
        t.spans().len(),
        self_ns.iter().copied().min().unwrap_or(0)
    ));
    push_problems(&mut digest, &verdict);
    let metrics = metrics::render(PER_LAYER, &values)?;
    Ok(outcome(digest, &verdict, &metrics, Some(t.to_jsonl())))
}
