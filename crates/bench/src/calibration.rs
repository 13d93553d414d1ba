//! Paper-target calibration: embedded Fig 4/5/6/7 reference points,
//! tolerance bands, and the pass/fail evaluation behind
//! `calibrate --check`.
//!
//! The evaluation is file-driven: it consumes the calibration sweep's
//! JSONL rows, parsed into [`JsonlRow`]s (each carries its grid
//! coordinates and a [`RowCounters`] of raw counters — walk counts, PTW
//! cycles, translation cycles, TLB and L1 hit/miss totals), takes the
//! paper's headline metrics from the counters' own methods, averages
//! them per `(system, cores, mechanism)` group over the workloads
//! present, and compares each embedded target against its tolerance
//! band. Everything needed to re-check a finished run is in the JSONL
//! file; no simulation state survives into this module. The same rows
//! render as tables for `figures --from-jsonl` ([`jsonl_tables`]).

use crate::pct;
use ndp_sim::report::ratio;
use ndp_sim::spec::{mechanism_names, JsonlRow, RowCounters, SweepSpec};
use ndp_sim::SimConfig;

/// The `(system, cores)` pairs the paper's figures evaluate: NDP
/// scaling from 1 to 8 cores plus the 4-core CPU baseline.
pub const SYSTEM_CORES: [(&str, &str); 4] =
    [("ndp", "1"), ("ndp", "4"), ("ndp", "8"), ("cpu", "4")];

/// The calibration grid over `base`: workload (slowest-varying) x
/// paired `(system, cores)` x mechanism (fastest). Shared by the
/// `calibrate` binary and the pinned `cal` digest test
/// (`tests/bench_digests.rs`) so the two can never sweep different grids.
#[must_use]
pub fn grid(base: SimConfig, workloads: &[&str]) -> SweepSpec {
    SweepSpec::new(base)
        .named("calibration")
        .axis("workload", workloads)
        .paired_axis(
            SYSTEM_CORES
                .iter()
                .map(|(s, c)| vec![("system", (*s).to_string()), ("cores", (*c).to_string())])
                .collect(),
        )
        .axis("mechanism", &mechanism_names())
}

/// Which derived metric a [`PaperTarget`] pins down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Mean page-table-walk latency in cycles
    /// ([`RowCounters::ptw_latency`]).
    AvgPtwLatency,
    /// Fraction of core time spent translating
    /// ([`RowCounters::translation_fraction`]).
    TranslationFraction,
    /// L1 data-cache miss rate ([`RowCounters::l1_data_miss_rate`]).
    L1DataMissRate,
    /// L1 metadata-cache miss rate, page-table traffic
    /// ([`RowCounters::l1_metadata_miss_rate`]).
    L1MetadataMissRate,
}

impl Metric {
    /// Short unit-bearing label for report tables.
    #[must_use]
    pub fn unit(self) -> &'static str {
        match self {
            Metric::AvgPtwLatency => "cycles",
            Metric::TranslationFraction | Metric::L1DataMissRate | Metric::L1MetadataMissRate => {
                "fraction"
            }
        }
    }

    /// The metric's value for a row's counters on `cores` cores, `None`
    /// when its denominator is 0.
    #[must_use]
    pub fn of(self, counters: &RowCounters, cores: u32) -> Option<f64> {
        match self {
            Metric::AvgPtwLatency => counters.ptw_latency(),
            Metric::TranslationFraction => counters.translation_fraction(cores),
            Metric::L1DataMissRate => counters.l1_data_miss_rate(),
            Metric::L1MetadataMissRate => counters.l1_metadata_miss_rate(),
        }
    }

    /// Formats a metric value for the report (cycles plain, rates as %).
    #[must_use]
    pub fn fmt(self, v: f64) -> String {
        match self {
            Metric::AvgPtwLatency => format!("{v:.2}"),
            _ => pct(v),
        }
    }
}

/// A tolerance band around a target value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Relative band: `target * (1 ± r)`.
    Rel(f64),
    /// Absolute band: `target ± a` (in the metric's own unit).
    Abs(f64),
}

impl Tolerance {
    /// Parses `"25%"` as a relative band and a plain number as an
    /// absolute band.
    ///
    /// # Errors
    ///
    /// Empty, non-numeric, negative or non-finite bands.
    pub fn parse(s: &str) -> Result<Tolerance, String> {
        let s = s.trim();
        let (raw, rel) = match s.strip_suffix('%') {
            Some(head) => (head, true),
            None => (s, false),
        };
        let v: f64 = raw
            .trim()
            .parse()
            .map_err(|_| format!("tolerance {s:?} is not a number (use e.g. \"25%\" or 0.05)"))?;
        if !v.is_finite() || v < 0.0 {
            return Err(format!("tolerance {s:?} must be finite and non-negative"));
        }
        Ok(if rel {
            Tolerance::Rel(v / 100.0)
        } else {
            Tolerance::Abs(v)
        })
    }

    /// The band's absolute half-width around `target`.
    #[must_use]
    pub fn half_width(self, target: f64) -> f64 {
        match self {
            Tolerance::Rel(r) => r * target.abs(),
            Tolerance::Abs(a) => a,
        }
    }

    /// Renders the band the way it parses (`"25%"` / `"0.05"`).
    #[must_use]
    pub fn render(self) -> String {
        match self {
            Tolerance::Rel(r) => format!("{:.0}%", r * 100.0),
            Tolerance::Abs(a) => format!("{a}"),
        }
    }
}

/// One embedded reference point from the paper's evaluation.
#[derive(Debug, Clone, Copy)]
pub struct PaperTarget {
    /// Stable key, used by `--tolerance KEY=BAND` overrides.
    pub key: &'static str,
    /// Which figure the number comes from.
    pub figure: &'static str,
    /// Human description for the report table.
    pub what: &'static str,
    /// The `(system, cores, mechanism)` group whose rows it averages.
    pub group: Group<'static>,
    /// The derived metric being pinned.
    pub metric: Metric,
    /// The paper's value.
    pub value: f64,
    /// Default tolerance band.
    pub tolerance: Tolerance,
}

/// The embedded paper-target table: Fig 4 (4-core PTW latency), Fig 5
/// (translation overhead fraction), Fig 6 (PTW latency vs core count)
/// and Fig 7 (NDP L1 data/metadata miss rates). CPU 4-core PTW is
/// derived from Fig 4's "+229%" (474.56 / 3.29).
pub const TARGETS: &[PaperTarget] = &[
    PaperTarget {
        key: "ndp_radix_ptw_1c",
        figure: "Fig 6",
        what: "NDP radix avg PTW latency, 1 core",
        group: ("ndp", 1, "radix"),
        metric: Metric::AvgPtwLatency,
        value: 242.85,
        tolerance: Tolerance::Rel(0.25),
    },
    PaperTarget {
        key: "ndp_radix_ptw_4c",
        figure: "Fig 4",
        what: "NDP radix avg PTW latency, 4 cores",
        group: ("ndp", 4, "radix"),
        metric: Metric::AvgPtwLatency,
        value: 474.56,
        tolerance: Tolerance::Rel(0.25),
    },
    PaperTarget {
        key: "ndp_radix_ptw_8c",
        figure: "Fig 6",
        what: "NDP radix avg PTW latency, 8 cores",
        group: ("ndp", 8, "radix"),
        metric: Metric::AvgPtwLatency,
        value: 551.83,
        tolerance: Tolerance::Rel(0.25),
    },
    PaperTarget {
        key: "cpu_radix_ptw_4c",
        figure: "Fig 4",
        what: "CPU radix avg PTW latency, 4 cores",
        group: ("cpu", 4, "radix"),
        metric: Metric::AvgPtwLatency,
        value: 144.24,
        tolerance: Tolerance::Rel(0.25),
    },
    PaperTarget {
        key: "ndp_radix_trans_frac_4c",
        figure: "Fig 5",
        what: "NDP radix translation fraction, 4 cores",
        group: ("ndp", 4, "radix"),
        metric: Metric::TranslationFraction,
        value: 0.671,
        tolerance: Tolerance::Rel(0.20),
    },
    PaperTarget {
        key: "cpu_radix_trans_frac_4c",
        figure: "Fig 5",
        what: "CPU radix translation fraction, 4 cores",
        group: ("cpu", 4, "radix"),
        metric: Metric::TranslationFraction,
        value: 0.3451,
        tolerance: Tolerance::Rel(0.25),
    },
    PaperTarget {
        key: "ndp_radix_l1_data_miss_4c",
        figure: "Fig 7",
        what: "NDP radix L1 data miss rate, 4 cores",
        group: ("ndp", 4, "radix"),
        metric: Metric::L1DataMissRate,
        value: 0.3589,
        tolerance: Tolerance::Rel(0.20),
    },
    PaperTarget {
        key: "ndp_ideal_l1_data_miss_4c",
        figure: "Fig 7",
        what: "NDP ideal-translation L1 data miss rate, 4 cores",
        group: ("ndp", 4, "ideal"),
        metric: Metric::L1DataMissRate,
        value: 0.2616,
        tolerance: Tolerance::Rel(0.20),
    },
    PaperTarget {
        key: "ndp_radix_l1_meta_miss_4c",
        figure: "Fig 7",
        what: "NDP radix L1 metadata miss rate, 4 cores",
        group: ("ndp", 4, "radix"),
        metric: Metric::L1MetadataMissRate,
        value: 0.9828,
        tolerance: Tolerance::Abs(0.05),
    },
];

/// Looks up an embedded target by key.
#[must_use]
pub fn target(key: &str) -> Option<&'static PaperTarget> {
    TARGETS.iter().find(|t| t.key == key)
}

/// A calibration group: `(system, cores, mechanism)` knob values.
pub type Group<'a> = (&'a str, u32, &'a str);

/// A calibration row's group and counters.
type Point<'a> = (Group<'a>, &'a RowCounters);

/// Reads a stored row as a calibration point.
///
/// # Errors
///
/// Names a missing calibration coordinate (`workload` included) or
/// counter; rows without counters get a hint to re-run the sweep.
fn point(row: &JsonlRow) -> Result<Point<'_>, String> {
    const HINT: &str = "(pre-calibration JSONL format? re-run the sweep to regenerate it)";
    let s = |key: &str| {
        row.coord(key).ok_or_else(|| match row.counters {
            Ok(_) => format!("row is missing coordinate {key:?}"),
            Err(_) => format!("row is missing coordinate {key:?} {HINT}"),
        })
    };
    let cores_raw = s("cores")?;
    let cores: u32 = cores_raw
        .parse()
        .map_err(|_| format!("coordinate \"cores\"={cores_raw:?} is not an integer"))?;
    s("workload")?;
    let group = (s("system")?, cores, s("mechanism")?);
    let counters = row
        .counters
        .as_ref()
        .map_err(|key| format!("row is missing counter {key:?} {HINT}"))?;
    Ok((group, counters))
}

/// The calibration points among `rows`, in row order.
fn points(rows: &[JsonlRow]) -> Vec<Point<'_>> {
    rows.iter().filter_map(|r| point(r).ok()).collect()
}

/// Parses every non-blank line into a stored row that passes `check`.
///
/// # Errors
///
/// Empty input, or the first bad row with its 1-based line number.
fn stored_rows(
    text: &str,
    check: impl Fn(&JsonlRow) -> Result<(), String>,
) -> Result<Vec<JsonlRow>, String> {
    let rows: Vec<JsonlRow> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| {
            JsonlRow::parse(l)
                .and_then(|row| check(&row).map(|()| row))
                .map_err(|e| format!("line {}: {e}", i + 1))
        })
        .collect::<Result<_, _>>()?;
    if rows.is_empty() {
        return Err("no rows (empty JSONL)".to_string());
    }
    Ok(rows)
}

/// Parses a calibration sweep's JSONL stream: every row must carry the
/// calibration coordinates and counters.
///
/// # Errors
///
/// Empty input or any malformed row (with its 1-based line number).
pub fn parse_rows(text: &str) -> Result<Vec<JsonlRow>, String> {
    stored_rows(text, |row| point(row).map(|_| ()))
}

/// The mean of `metric` over the points of `group` that have a value
/// (`None` when none has), and how many have one.
fn group_mean(
    points: &[Point<'_>],
    group: Group<'_>,
    metric: impl Fn(&RowCounters) -> Option<f64>,
) -> (Option<f64>, usize) {
    let vals: Vec<f64> = points
        .iter()
        .filter(|(g, _)| *g == group)
        .filter_map(|(_, c)| metric(c))
        .collect();
    (ratio(vals.iter().sum(), vals.len() as f64), vals.len())
}

/// One target's evaluation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The target evaluated.
    pub target: &'static PaperTarget,
    /// Measured group mean, `None` when the sweep has no matching rows.
    pub measured: Option<f64>,
    /// Workloads contributing to the mean.
    pub workloads: usize,
    /// Effective band half-width after overrides and scaling.
    pub band: f64,
    /// The band rendered the way it was specified (pre-scaling).
    pub band_spec: String,
    /// Whether the measured mean lies inside the band.
    pub pass: bool,
}

impl Finding {
    /// `|measured - target| / |target|`, `None` without a measurement.
    #[must_use]
    pub fn rel_deviation(&self) -> Option<f64> {
        self.measured
            .map(|m| (m - self.target.value).abs() / self.target.value.abs())
    }
}

/// Evaluates every embedded target against the sweep rows.
///
/// `overrides` replaces individual bands (`--tolerance KEY=BAND`);
/// `scale` multiplies every effective half-width (`--tolerance-scale`),
/// letting quick-scale CI runs reuse the full-scale table with wider,
/// deterministic-stable bands.
///
/// # Errors
///
/// Unknown override keys (valid keys listed) or a non-positive scale.
pub fn evaluate(
    rows: &[JsonlRow],
    overrides: &[(String, Tolerance)],
    scale: f64,
) -> Result<Vec<Finding>, String> {
    if !scale.is_finite() || scale <= 0.0 {
        return Err(format!("--tolerance-scale must be positive, got {scale}"));
    }
    for (key, _) in overrides {
        if target(key).is_none() {
            let keys: Vec<&str> = TARGETS.iter().map(|t| t.key).collect();
            return Err(format!(
                "unknown calibration target {key:?}; valid targets: {}",
                keys.join(", ")
            ));
        }
    }
    let points = points(rows);
    Ok(TARGETS
        .iter()
        .map(|t| {
            let tol = overrides
                .iter()
                .rev()
                .find(|(k, _)| k == t.key)
                .map_or(t.tolerance, |(_, tol)| *tol);
            let band = tol.half_width(t.value) * scale;
            let (measured, workloads) = group_mean(&points, t.group, |c| t.metric.of(c, t.group.1));
            // An exactly-on-band measurement passes: widen by a hair of
            // float slack so `x ± band` endpoints are inside.
            let pass = measured.is_some_and(|m| (m - t.value).abs() <= band + 1e-9 * t.value.abs());
            Finding {
                target: t,
                measured,
                workloads,
                band,
                band_spec: tol.render(),
                pass,
            }
        })
        .collect())
}

/// The largest relative deviation across measured findings (0 when
/// nothing measured).
#[must_use]
pub fn max_rel_deviation(findings: &[Finding]) -> f64 {
    findings
        .iter()
        .filter_map(Finding::rel_deviation)
        .fold(0.0, f64::max)
}

/// Renders the pass/fail report as table rows for
/// [`crate::print_table`].
#[must_use]
pub fn report_rows(findings: &[Finding]) -> Vec<Vec<String>> {
    findings
        .iter()
        .map(|f| {
            let t = f.target;
            vec![
                t.key.to_string(),
                t.figure.to_string(),
                t.metric.fmt(t.value),
                cell(f.measured, |m| t.metric.fmt(m)),
                cell(f.rel_deviation(), |d| format!("{:.1}%", d * 100.0)),
                f.band_spec.clone(),
                (if f.pass { "pass" } else { "FAIL" }).to_string(),
            ]
        })
        .collect()
}

/// Renders the embedded target table itself (no measurements) for
/// `figures --calibration` and `calibrate --targets`.
#[must_use]
pub fn target_rows() -> Vec<Vec<String>> {
    TARGETS
        .iter()
        .map(|t| {
            vec![
                t.key.to_string(),
                t.figure.to_string(),
                t.what.to_string(),
                t.metric.fmt(t.value),
                t.metric.unit().to_string(),
                t.tolerance.render(),
            ]
        })
        .collect()
}

/// Headers of the per-group shape table ([`group_table`]).
const GROUP_HEADERS: [&str; 9] = [
    "system",
    "cores",
    "mechanism",
    "n",
    "ptw",
    "trans",
    "walkrate",
    "L1d miss",
    "L1m miss",
];

/// Headers of the embedded target table ([`target_rows`]), shared by
/// `calibrate --targets` and `figures calibration`.
pub const TARGET_HEADERS: [&str; 6] = [
    "key",
    "figure",
    "description",
    "target",
    "unit",
    "tolerance",
];

/// `-` for a metric with a zero denominator, else `fmt` of its value.
fn cell(value: Option<f64>, fmt: impl Fn(f64) -> String) -> String {
    value.map_or_else(|| "-".to_string(), fmt)
}

/// The per-group shape summary (`system/cores/mechanism` → mean
/// derived metrics over the workloads), groups in order of first
/// appearance — the view `calibrate` prints after a run and `figures
/// --from-jsonl` appends to calibration rows, so the two emit identical
/// bytes. Rows that are not calibration points are skipped.
#[must_use]
pub fn group_table(rows: &[JsonlRow]) -> String {
    let points = points(rows);
    let mut groups: Vec<Group<'_>> = Vec::new();
    for (g, _) in &points {
        if !groups.contains(g) {
            groups.push(*g);
        }
    }
    let table: Vec<Vec<String>> = groups
        .iter()
        .map(|&g @ (system, cores, mechanism)| {
            let n = points.iter().filter(|(pg, _)| *pg == g).count();
            let metric =
                |m: Metric| cell(group_mean(&points, g, |c| m.of(c, cores)).0, |x| m.fmt(x));
            vec![
                system.to_string(),
                cores.to_string(),
                mechanism.to_string(),
                n.to_string(),
                metric(Metric::AvgPtwLatency),
                metric(Metric::TranslationFraction),
                cell(group_mean(&points, g, RowCounters::tlb_walk_rate).0, pct),
                metric(Metric::L1DataMissRate),
                metric(Metric::L1MetadataMissRate),
            ]
        })
        .collect();
    format!(
        "\nper-group shape metrics ({} rows):\n{}",
        points.len(),
        crate::table_string(&GROUP_HEADERS, &table)
    )
}

/// Renders stored sweep JSONL as tables without re-simulating — the
/// `figures --from-jsonl` engine.
///
/// Every stream gets a generic per-row table: grid index, the knob
/// coordinates (first-seen order across rows; `-` where a row lacks
/// one), then the per-row metrics of its counters (cycles,
/// [`RowCounters::wall_cycles_per_op`], mean PTW latency, walk rate, L1
/// miss rates; `-` for a zero denominator or a row without counters).
/// When every row is also a calibration point, [`group_table`] follows.
///
/// # Errors
///
/// Empty input or a malformed line (named by 1-based number).
pub fn jsonl_tables(text: &str) -> Result<String, String> {
    let rows = stored_rows(text, |_| Ok(()))?;
    let mut knob_names: Vec<&str> = Vec::new();
    for (k, _) in rows.iter().flat_map(|r| &r.coords) {
        if !knob_names.contains(&k.as_str()) {
            knob_names.push(k);
        }
    }
    let mut headers: Vec<&str> = vec!["i"];
    headers.extend(&knob_names);
    headers.extend_from_slice(&[
        "cycles", "cyc/op", "ptw", "walkrate", "L1d miss", "L1m miss",
    ]);
    let one_dp = |x: f64| format!("{x:.1}");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            let mut cells = vec![row.index.to_string()];
            for name in &knob_names {
                cells.push(row.coord(name).unwrap_or("-").to_string());
            }
            let c = row.counters.as_ref().ok();
            cells.push(c.map_or_else(|| "-".to_string(), |c| c.cycles.to_string()));
            cells.push(cell(c.and_then(RowCounters::wall_cycles_per_op), one_dp));
            cells.push(cell(c.and_then(RowCounters::ptw_latency), one_dp));
            cells.push(cell(c.and_then(RowCounters::tlb_walk_rate), pct));
            cells.push(cell(c.and_then(RowCounters::l1_data_miss_rate), pct));
            cells.push(cell(c.and_then(RowCounters::l1_metadata_miss_rate), pct));
            cells
        })
        .collect();
    let mut out = format!("rows ({}):\n", rows.len());
    out.push_str(&crate::table_string(&headers, &table));

    if rows.iter().all(|r| point(r).is_ok()) {
        out.push_str(&group_table(&rows));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A calibration row line whose counters give a 474.6-cycle mean
    /// PTW latency, inside the 4-core NDP band.
    fn line(system: &str, cores: u32, mechanism: &str, workload: &str) -> String {
        format!(
            "{{\"i\":3,\"cfg\":7,\"knobs\":{{\"workload\":\"{workload}\",\
             \"system\":\"{system}\",\"cores\":\"{cores}\",\"mechanism\":\"{mechanism}\"}},\
             \"cycles\":9,\"ops\":5,\"mem_ops\":4,\"translation_cycles\":500,\
             \"os_cycles\":0,\"walks\":10,\"ptw_cycles\":4746,\"avg_core_cycles\":1000,\
             \"tlb_l1_hits\":90,\"tlb_l1_misses\":10,\"tlb_l2_misses\":10,\"l1d_hits\":65,\
             \"l1d_misses\":35,\"l1m_hits\":2,\"l1m_misses\":98,\"fp\":1}}"
        )
    }

    fn row(system: &str, cores: u32, mechanism: &str, workload: &str) -> JsonlRow {
        JsonlRow::parse(&line(system, cores, mechanism, workload)).unwrap()
    }

    fn counters(row: &JsonlRow) -> RowCounters {
        row.counters.unwrap()
    }

    #[test]
    fn tolerance_parses_percent_as_relative() {
        assert_eq!(Tolerance::parse("25%").unwrap(), Tolerance::Rel(0.25));
        assert_eq!(Tolerance::parse(" 10% ").unwrap(), Tolerance::Rel(0.10));
        assert_eq!(Tolerance::parse("0.05").unwrap(), Tolerance::Abs(0.05));
        assert_eq!(Tolerance::parse("3").unwrap(), Tolerance::Abs(3.0));
    }

    #[test]
    fn tolerance_rejects_junk() {
        for bad in ["", "%", "abc", "-1", "-5%", "nan", "inf%"] {
            assert!(Tolerance::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn tolerance_band_widths() {
        assert!((Tolerance::Rel(0.10).half_width(200.0) - 20.0).abs() < 1e-12);
        assert!((Tolerance::Abs(0.05).half_width(200.0) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn targets_are_unique_and_self_consistent() {
        for (i, t) in TARGETS.iter().enumerate() {
            assert!(t.value > 0.0, "{} target must be positive", t.key);
            assert!(
                TARGETS.iter().skip(i + 1).all(|u| u.key != t.key),
                "duplicate target key {}",
                t.key
            );
        }
        assert_eq!(target("ndp_radix_ptw_4c").unwrap().value, 474.56);
        assert!(target("nope").is_none());
    }

    #[test]
    fn row_metrics_derive_from_counters() {
        let c = counters(&row("ndp", 4, "radix", "RND"));
        assert!((c.ptw_latency().unwrap() - 474.6).abs() < 1e-9);
        assert!((c.translation_fraction(4).unwrap() - 0.125).abs() < 1e-9);
        assert!((c.tlb_walk_rate().unwrap() - 0.10).abs() < 1e-9);
        assert!((c.l1_data_miss_rate().unwrap() - 0.35).abs() < 1e-9);
        assert!((c.l1_metadata_miss_rate().unwrap() - 0.98).abs() < 1e-9);
        assert!((c.wall_cycles_per_op().unwrap() - 1.8).abs() < 1e-9);
        assert!((c.cpo(4).unwrap() - 800.0).abs() < 1e-9);
    }

    #[test]
    fn zero_denominators_yield_none() {
        let mut c = counters(&row("ndp", 4, "radix", "RND"));
        c.walks = 0;
        c.tlb_l1.hits = 0;
        c.tlb_l1.misses = 0;
        assert!(c.ptw_latency().is_none());
        assert!(c.tlb_walk_rate().is_none());
    }

    #[test]
    fn jsonl_row_round_trips_through_parse() {
        let text = line("ndp", 4, "radix", "RND");
        let rows = parse_rows(&text).unwrap();
        assert_eq!(rows, vec![row("ndp", 4, "radix", "RND")]);
        assert_eq!(rows[0].coord("workload"), Some("RND"));
        assert_eq!(rows[0].line, text);
        let c = counters(&rows[0]);
        assert_eq!(
            (c.walks, c.ptw_cycles, c.l1_metadata.misses),
            (10, 4746, 98)
        );
    }

    #[test]
    fn old_format_rows_are_rejected_with_hint() {
        let line = "{\"i\":0,\"cfg\":1,\"knobs\":{\"workload\":\"RND\",\"system\":\"ndp\",\
                    \"cores\":\"4\",\"mechanism\":\"radix\"},\"cycles\":9,\"ops\":5,\
                    \"mem_ops\":4,\"translation_cycles\":500,\"os_cycles\":0,\"walks\":10,\"fp\":1}";
        let err = parse_rows(line).unwrap_err();
        assert!(err.contains("ptw_cycles"), "{err}");
        assert!(err.contains("re-run"), "{err}");
    }

    #[test]
    fn frame_only_rows_are_rejected_with_hint() {
        // The oldest rows resume still accepts: no coordinates and no
        // counters.
        let err = parse_rows("{\"i\":0,\"cfg\":1,\"fp\":1}").unwrap_err();
        assert!(err.contains("coordinate \"cores\""), "{err}");
        assert!(err.contains("re-run"), "{err}");
    }

    #[test]
    fn parse_rows_names_bad_line() {
        let err = parse_rows("not json\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        assert!(parse_rows("").is_err());
    }

    #[test]
    fn evaluate_passes_inside_band_and_fails_outside() {
        let rows = vec![row("ndp", 4, "radix", "RND")];
        let findings = evaluate(&rows, &[], 1.0).unwrap();
        let f4 = findings
            .iter()
            .find(|f| f.target.key == "ndp_radix_ptw_4c")
            .unwrap();
        assert!(f4.pass, "474.6 sits inside 474.56 ± 25%");
        assert_eq!(f4.workloads, 1);

        // Shrinking every band to (effectively) zero fails the same
        // finding; targets with no matching rows fail either way.
        let tight = evaluate(&rows, &[], 1e-9).unwrap();
        assert!(
            !tight
                .iter()
                .find(|f| f.target.key == "ndp_radix_ptw_4c")
                .unwrap()
                .pass
        );
        assert!(
            !findings.iter().all(|f| f.pass),
            "1-core / 8-core / cpu groups are absent"
        );
        let missing = findings
            .iter()
            .find(|f| f.target.key == "ndp_radix_ptw_1c")
            .unwrap();
        assert!(missing.measured.is_none() && !missing.pass);
    }

    #[test]
    fn evaluate_honours_overrides_and_rejects_unknown_keys() {
        let rows = vec![row("ndp", 4, "radix", "RND")];
        let wide = evaluate(
            &rows,
            &[("ndp_radix_ptw_4c".to_string(), Tolerance::Abs(0.001))],
            1.0,
        )
        .unwrap();
        // 474.6 vs 474.56 is off by 0.04 > 0.001: the override tightened
        // the band below the deviation.
        assert!(
            !wide
                .iter()
                .find(|f| f.target.key == "ndp_radix_ptw_4c")
                .unwrap()
                .pass
        );

        let err = evaluate(&rows, &[("bogus".to_string(), Tolerance::Rel(1.0))], 1.0).unwrap_err();
        assert!(
            err.contains("bogus") && err.contains("ndp_radix_ptw_4c"),
            "{err}"
        );
        assert!(evaluate(&rows, &[], 0.0).is_err());
    }

    #[test]
    fn max_rel_deviation_is_positive_and_finite() {
        let rows = vec![row("ndp", 4, "radix", "RND")];
        let findings = evaluate(&rows, &[], 1.0).unwrap();
        assert_eq!(findings.len(), TARGETS.len());
        let dev = max_rel_deviation(&findings);
        assert!(dev > 0.0 && dev.is_finite());
    }

    #[test]
    fn report_and_group_rows_render() {
        let rows = vec![row("ndp", 4, "radix", "RND"), row("ndp", 4, "radix", "BFS")];
        let findings = evaluate(&rows, &[], 1.0).unwrap();
        let table = report_rows(&findings);
        assert_eq!(table.len(), TARGETS.len());
        assert!(table.iter().all(|r| r.len() == 7));
        // Two workloads, one (system, cores, mechanism) group of 2.
        let groups = group_table(&rows);
        assert!(groups.starts_with("\nper-group shape metrics (2 rows):\n"));
        let data: Vec<&str> = groups.lines().skip(4).collect();
        assert_eq!(data.len(), 1, "{groups}");
        assert_eq!(data[0].split_whitespace().nth(3), Some("2"), "{groups}");
        assert_eq!(target_rows().len(), TARGETS.len());
    }
}
