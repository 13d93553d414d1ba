//! Metric names, units and the aggregations behind them.
//!
//! The two lists below are the benchmark's public contract and must match
//! `BENCHMARK.json` (a test checks this). End-to-end metrics come from
//! untraced passes; per-layer metrics from a run's reports, its traced
//! pass and the layer replay.

use crate::replay::LayerCosts;
use ndp_sim::spec::SweepRow;
use ndp_sim::{RunReport, SystemKind};
use ndp_types::{AccessClass, PtLevel};
use ndpage::Mechanism;

/// One metric's name, unit and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Printed with `--trace 0`.
pub const END_TO_END: &[MetricDef] = &[
    m("wall_s", "s", "lower"),
    m("setup_s", "s", "lower"),
    m("sim_ops_per_s", "1/s", "higher"),
    m("peak_rss_mb", "MB", "lower"),
    m("ndpage_speedup", "ratio", "higher"),
];

/// Printed with `--trace 1`.
pub const PER_LAYER: &[MetricDef] = &[
    m("workloads.trace_ns_per_op", "ns", "lower"),
    m("workloads.trace_build_s", "s", "lower"),
    m("workloads.regions_s", "s", "lower"),
    m("workloads.replay_share", "ratio", "lower"),
    m("core.premap_ns_per_page", "ns", "lower"),
    m("core.pages_mapped", "count", "lower"),
    m("core.table_bytes", "bytes", "lower"),
    m("core.walk_ns", "ns", "lower"),
    m("core.faults_4k", "count", "lower"),
    m("core.faults_2m", "count", "lower"),
    m("core.faults_fallback", "count", "lower"),
    m("core.replay_share", "ratio", "lower"),
    m("mmu.tlb_lookup_ns", "ns", "lower"),
    m("mmu.tlb_fill_ns", "ns", "lower"),
    m("mmu.walker_plan_ns", "ns", "lower"),
    m("mmu.tlb_walk_rate", "ratio", "lower"),
    m("mmu.pwc_hit_rate.L4", "ratio", "higher"),
    m("mmu.pwc_hit_rate.L3", "ratio", "higher"),
    m("mmu.pwc_hit_rate.L2", "ratio", "higher"),
    m("mmu.pwc_hit_rate.L1", "ratio", "higher"),
    m("mmu.ptw_avg_cycles", "cycles", "lower"),
    m("mmu.pte_fetches_per_walk", "count", "lower"),
    m("mmu.walker_queue_cycles", "cycles", "lower"),
    m("mmu.replay_share", "ratio", "lower"),
    m("cache.lookup_ns", "ns", "lower"),
    m("cache.fill_ns", "ns", "lower"),
    m("cache.shared_access_ns", "ns", "lower"),
    m("cache.mshr_probe_ns", "ns", "lower"),
    m("cache.l1_data_miss_rate", "ratio", "lower"),
    m("cache.l1_meta_miss_rate", "ratio", "lower"),
    m("cache.meta_pollution", "count", "lower"),
    m("cache.l3_meta_hit_rate", "ratio", "higher"),
    m("cache.l3_bank_conflicts", "count", "lower"),
    m("cache.mshr_coalesced", "count", "higher"),
    m("cache.mshr_full_stalls", "count", "lower"),
    m("cache.replay_share", "ratio", "lower"),
    m("mem.request_ns", "ns", "lower"),
    m("mem.request_ticketed_ns", "ns", "lower"),
    m("mem.row_hit_rate", "ratio", "higher"),
    m("mem.queue_delay_cycles", "cycles", "lower"),
    m("mem.metadata_reqs", "count", "lower"),
    m("mem.data_reqs", "count", "lower"),
    m("mem.write_reqs", "count", "lower"),
    m("mem.replay_share", "ratio", "lower"),
    m("sim.new_s", "s", "lower"),
    m("sim.run_s", "s", "lower"),
    m("sim.report_s", "s", "lower"),
    m("sim.cycles_per_op", "cycles", "lower"),
    m("sim.achieved_mlp", "ratio", "higher"),
    m("sim.ndpage_speedup_geomean", "ratio", "higher"),
    m("sim.ndpage_slower_pairs", "count", "lower"),
    m("sim.run_explained_frac", "ratio", "higher"),
    m("bench.expand_s", "s", "lower"),
    m("bench.eval_s", "s", "lower"),
    m("bench.cal_max_rel_dev", "ratio", "lower"),
    m("bench.cal_targets_missed", "count", "lower"),
    m("bench.trace_overhead_s", "s", "lower"),
];

/// Median of `values` (0 when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio_or_zero(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Radix-over-NDPage simulated-cycle ratios of every NDP-system row pair
/// (rows paired by every coordinate except `mechanism`). Above 1 is the
/// paper's direction.
#[must_use]
pub fn ndpage_ratios(rows: &[&SweepRow]) -> Vec<f64> {
    let key = |r: &SweepRow| -> Vec<(String, String)> {
        r.coords
            .iter()
            .filter(|(k, _)| k != "mechanism")
            .cloned()
            .collect()
    };
    let mut out = Vec::new();
    for radix in rows
        .iter()
        .filter(|r| r.report.mechanism == Mechanism::Radix && r.report.system == SystemKind::Ndp)
    {
        let k = key(radix);
        if let Some(nd) = rows
            .iter()
            .find(|r| r.report.mechanism == Mechanism::NdPage && key(r) == k)
        {
            out.push(ratio_or_zero(
                radix.report.total_cycles.as_f64(),
                nd.report.total_cycles.as_f64(),
            ));
        }
    }
    out
}

/// Whole-run ops over measured ops: scales a measured-window counter to
/// the whole run loop (warmup included).
fn run_scale(cfg_warmup: u64, cfg_measure: u64) -> f64 {
    ratio_or_zero((cfg_warmup + cfg_measure) as f64, cfg_measure as f64)
}

/// Host nanoseconds the replay costs explain for one row's run loop,
/// split by layer: `[workloads, core, mmu, cache, mem]`. Call counts come
/// from the row's report (measured-window counters scaled to the whole
/// run); per-call costs from the replay of the row's
/// `(workload, mechanism, system)`.
#[must_use]
pub fn explained_ns(r: &RunReport, warmup: u64, measure: u64, c: &LayerCosts) -> [f64; 5] {
    let s = run_scale(warmup, measure);
    let ops = f64::from(r.cores) * (warmup + measure) as f64;
    let tlb_lookups = r.tlb_l1.total() as f64 * s;
    let walks = r.ptw.count as f64 * s;
    let lookups = (r.l1_data.total() + r.l1_metadata.total()) as f64 * s;
    let fills = (r.l1_data.misses + r.l1_metadata.misses) as f64 * s;
    let shared: u64 = [&r.l3, &r.vault]
        .iter()
        .filter_map(|b| b.as_ref())
        .map(|b| b.total().total())
        .sum();
    let windowed = r.mlp_window > 1;
    let mshr_probes = if windowed {
        r.l1_data.misses as f64 * s
    } else {
        0.0
    };
    let mem_reqs = r.mem_traffic.total() as f64 * s;
    let mem_ns = if windowed {
        c.request_ticketed_ns
    } else {
        c.request_ns
    };
    [
        ops * c.trace_ns,
        walks * c.walk_ns,
        tlb_lookups * c.tlb_lookup_ns + walks * (c.walker_plan_ns + c.tlb_fill_ns),
        lookups * c.cache_lookup_ns
            + fills * c.cache_fill_ns
            + shared as f64 * s * c.shared_access_ns
            + mshr_probes * c.mshr_probe_ns,
        mem_reqs * mem_ns,
    ]
}

/// Per-layer metrics derived from the reports alone, as `(name, value)`.
#[must_use]
pub fn report_metrics(reports: &[&RunReport]) -> Vec<(&'static str, f64)> {
    let sum = |f: &dyn Fn(&RunReport) -> f64| reports.iter().map(|r| f(r)).sum::<f64>();
    let pwc_rate = |level: PtLevel| {
        let (hits, total) = reports
            .iter()
            .flat_map(|r| r.pwc.iter())
            .filter(|(l, _)| *l == level)
            .fold((0u64, 0u64), |(h, t), (_, hm)| {
                (h + hm.hits, t + hm.total())
            });
        ratio_or_zero(hits as f64, total as f64)
    };
    let fetches = sum(&|r| {
        let bypassed = if r.mechanism.bypass_policy().bypasses(AccessClass::Metadata) {
            r.mem_traffic.metadata
        } else {
            0
        };
        (r.l1_metadata.total() + bypassed) as f64
    });
    let walks = sum(&|r| r.ptw.count as f64);
    let traffic = sum(&|r| r.mem_traffic.total() as f64);
    let l3_meta = reports
        .iter()
        .filter_map(|r| r.l3.as_ref())
        .fold((0u64, 0u64), |(h, t), l3| {
            (h + l3.metadata.hits, t + l3.metadata.total())
        });
    let windowed: Vec<f64> = reports
        .iter()
        .filter(|r| r.mlp_window > 1)
        .map(|r| r.achieved_mlp())
        .collect();
    vec![
        (
            "core.pages_mapped",
            sum(&|r| (r.faults.minor_4k + r.faults.fallback + 512 * r.faults.minor_2m) as f64),
        ),
        ("core.table_bytes", sum(&|r| r.table_bytes as f64)),
        ("core.faults_4k", sum(&|r| r.faults.minor_4k as f64)),
        ("core.faults_2m", sum(&|r| r.faults.minor_2m as f64)),
        ("core.faults_fallback", sum(&|r| r.faults.fallback as f64)),
        (
            "mmu.tlb_walk_rate",
            ratio_or_zero(
                sum(&|r| r.tlb_l2.misses as f64),
                sum(&|r| r.tlb_l1.total() as f64),
            ),
        ),
        ("mmu.pwc_hit_rate.L4", pwc_rate(PtLevel::L4)),
        ("mmu.pwc_hit_rate.L3", pwc_rate(PtLevel::L3)),
        ("mmu.pwc_hit_rate.L2", pwc_rate(PtLevel::L2)),
        ("mmu.pwc_hit_rate.L1", pwc_rate(PtLevel::L1)),
        (
            "mmu.ptw_avg_cycles",
            ratio_or_zero(sum(&|r| r.ptw.sum.as_f64()), walks),
        ),
        ("mmu.pte_fetches_per_walk", ratio_or_zero(fetches, walks)),
        (
            "mmu.walker_queue_cycles",
            sum(&|r| r.mlp.walker_queue_cycles as f64),
        ),
        (
            "cache.l1_data_miss_rate",
            ratio_or_zero(
                sum(&|r| r.l1_data.misses as f64),
                sum(&|r| r.l1_data.total() as f64),
            ),
        ),
        (
            "cache.l1_meta_miss_rate",
            ratio_or_zero(
                sum(&|r| r.l1_metadata.misses as f64),
                sum(&|r| r.l1_metadata.total() as f64),
            ),
        ),
        (
            "cache.meta_pollution",
            sum(&|r| r.data_evicted_by_metadata as f64),
        ),
        (
            "cache.l3_meta_hit_rate",
            ratio_or_zero(l3_meta.0 as f64, l3_meta.1 as f64),
        ),
        (
            "cache.l3_bank_conflicts",
            sum(&|r| r.l3.as_ref().map_or(0, |l3| l3.bank_conflicts) as f64),
        ),
        (
            "cache.mshr_coalesced",
            sum(&|r| r.mlp.mshr_coalesced as f64),
        ),
        (
            "cache.mshr_full_stalls",
            sum(&|r| r.mlp.mshr_full_stalls as f64),
        ),
        (
            "mem.row_hit_rate",
            ratio_or_zero(
                sum(&|r| r.dram_row_hit_rate * r.mem_traffic.total() as f64),
                traffic,
            ),
        ),
        (
            "mem.queue_delay_cycles",
            ratio_or_zero(
                sum(&|r| r.dram_queue_delay * r.mem_traffic.total() as f64),
                traffic,
            ),
        ),
        ("mem.metadata_reqs", sum(&|r| r.mem_traffic.metadata as f64)),
        ("mem.data_reqs", sum(&|r| r.mem_traffic.data as f64)),
        ("mem.write_reqs", sum(&|r| r.mem_traffic.write as f64)),
        (
            "sim.cycles_per_op",
            ratio_or_zero(
                sum(&|r| r.avg_core_cycles * f64::from(r.cores)),
                sum(&|r| r.ops as f64),
            ),
        ),
        (
            "sim.achieved_mlp",
            ratio_or_zero(windowed.iter().sum(), windowed.len() as f64),
        ),
    ]
}

/// Renders `(name, value)` pairs as the result line's `metrics` object,
/// in `defs` order.
///
/// # Errors
///
/// A metric of `defs` with no value, or a non-finite value.
pub fn render(defs: &[MetricDef], values: &[(&str, f64)]) -> Result<String, String> {
    let mut parts = Vec::with_capacity(defs.len());
    for d in defs {
        let v = values
            .iter()
            .find(|(n, _)| *n == d.name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite: {v}", d.name));
        }
        parts.push(format!(
            "\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}",
            d.name, d.unit
        ));
    }
    Ok(format!("{{{}}}", parts.join(",")))
}
