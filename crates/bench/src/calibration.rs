//! Paper-target calibration: embedded Fig 4/5/6/7 reference points,
//! tolerance bands, and the pass/fail evaluation behind
//! `calibrate --check`.
//!
//! The evaluation is file-driven: it consumes the calibration sweep's
//! JSONL rows (each row carries the raw counters — walk counts, PTW
//! cycles, translation cycles, TLB and L1 hit/miss totals — alongside
//! the grid coordinates), derives the paper's headline metrics per
//! `(system, cores, mechanism)` group as the arithmetic mean over the
//! workloads present, and compares each embedded target against its
//! tolerance band. Everything needed to re-check a finished run is in
//! the JSONL file; no simulation state survives into this module.

use crate::cli::{json_f64, json_str, json_u64};
use ndp_sim::spec::{mechanism_names, SweepSpec};
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
    /// Mean page-table-walk latency in cycles (`ptw_cycles / walks`).
    AvgPtwLatency,
    /// Fraction of core time spent translating
    /// (`translation_cycles / (avg_core_cycles * cores)`).
    TranslationFraction,
    /// L1 data-cache miss rate.
    L1DataMissRate,
    /// L1 metadata-cache miss rate (page-table traffic).
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

    /// Formats a metric value for the report (cycles plain, rates as %).
    #[must_use]
    pub fn fmt(self, v: f64) -> String {
        match self {
            Metric::AvgPtwLatency => format!("{v:.2}"),
            _ => format!("{:.2}%", v * 100.0),
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
    /// `system` knob value the group must match.
    pub system: &'static str,
    /// `cores` knob value the group must match.
    pub cores: u32,
    /// `mechanism` knob value the group must match.
    pub mechanism: &'static str,
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
        system: "ndp",
        cores: 1,
        mechanism: "radix",
        metric: Metric::AvgPtwLatency,
        value: 242.85,
        tolerance: Tolerance::Rel(0.25),
    },
    PaperTarget {
        key: "ndp_radix_ptw_4c",
        figure: "Fig 4",
        what: "NDP radix avg PTW latency, 4 cores",
        system: "ndp",
        cores: 4,
        mechanism: "radix",
        metric: Metric::AvgPtwLatency,
        value: 474.56,
        tolerance: Tolerance::Rel(0.25),
    },
    PaperTarget {
        key: "ndp_radix_ptw_8c",
        figure: "Fig 6",
        what: "NDP radix avg PTW latency, 8 cores",
        system: "ndp",
        cores: 8,
        mechanism: "radix",
        metric: Metric::AvgPtwLatency,
        value: 551.83,
        tolerance: Tolerance::Rel(0.25),
    },
    PaperTarget {
        key: "cpu_radix_ptw_4c",
        figure: "Fig 4",
        what: "CPU radix avg PTW latency, 4 cores",
        system: "cpu",
        cores: 4,
        mechanism: "radix",
        metric: Metric::AvgPtwLatency,
        value: 144.24,
        tolerance: Tolerance::Rel(0.25),
    },
    PaperTarget {
        key: "ndp_radix_trans_frac_4c",
        figure: "Fig 5",
        what: "NDP radix translation fraction, 4 cores",
        system: "ndp",
        cores: 4,
        mechanism: "radix",
        metric: Metric::TranslationFraction,
        value: 0.671,
        tolerance: Tolerance::Rel(0.20),
    },
    PaperTarget {
        key: "cpu_radix_trans_frac_4c",
        figure: "Fig 5",
        what: "CPU radix translation fraction, 4 cores",
        system: "cpu",
        cores: 4,
        mechanism: "radix",
        metric: Metric::TranslationFraction,
        value: 0.3451,
        tolerance: Tolerance::Rel(0.25),
    },
    PaperTarget {
        key: "ndp_radix_l1_data_miss_4c",
        figure: "Fig 7",
        what: "NDP radix L1 data miss rate, 4 cores",
        system: "ndp",
        cores: 4,
        mechanism: "radix",
        metric: Metric::L1DataMissRate,
        value: 0.3589,
        tolerance: Tolerance::Rel(0.20),
    },
    PaperTarget {
        key: "ndp_ideal_l1_data_miss_4c",
        figure: "Fig 7",
        what: "NDP ideal-translation L1 data miss rate, 4 cores",
        system: "ndp",
        cores: 4,
        mechanism: "ideal",
        metric: Metric::L1DataMissRate,
        value: 0.2616,
        tolerance: Tolerance::Rel(0.20),
    },
    PaperTarget {
        key: "ndp_radix_l1_meta_miss_4c",
        figure: "Fig 7",
        what: "NDP radix L1 metadata miss rate, 4 cores",
        system: "ndp",
        cores: 4,
        mechanism: "radix",
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

/// One parsed calibration JSONL row: the grid coordinates plus every
/// counter the derived metrics need.
#[derive(Debug, Clone, PartialEq)]
pub struct CalRow {
    /// `workload` coordinate.
    pub workload: String,
    /// `system` coordinate.
    pub system: String,
    /// `cores` coordinate.
    pub cores: u32,
    /// `mechanism` coordinate.
    pub mechanism: String,
    /// Cycles cores spent waiting on translation.
    pub translation_cycles: u64,
    /// Completed page-table walks.
    pub walks: u64,
    /// Total cycles spent in those walks.
    pub ptw_cycles: u64,
    /// Mean per-core busy cycles.
    pub avg_core_cycles: f64,
    /// L1 TLB hits.
    pub tlb_l1_hits: u64,
    /// L1 TLB misses.
    pub tlb_l1_misses: u64,
    /// L2 TLB misses (i.e. walks started).
    pub tlb_l2_misses: u64,
    /// L1 data-cache hits.
    pub l1d_hits: u64,
    /// L1 data-cache misses.
    pub l1d_misses: u64,
    /// L1 metadata-cache hits.
    pub l1m_hits: u64,
    /// L1 metadata-cache misses.
    pub l1m_misses: u64,
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

impl CalRow {
    /// Mean PTW latency in cycles, `None` with no walks.
    #[must_use]
    pub fn avg_ptw_latency(&self) -> Option<f64> {
        #[allow(clippy::cast_precision_loss)]
        ratio(self.ptw_cycles as f64, self.walks as f64)
    }

    /// Fraction of core time spent translating.
    #[must_use]
    pub fn translation_fraction(&self) -> Option<f64> {
        #[allow(clippy::cast_precision_loss)]
        ratio(
            self.translation_cycles as f64,
            self.avg_core_cycles * f64::from(self.cores),
        )
    }

    /// Walks per TLB access (the paper's walk rate).
    #[must_use]
    pub fn tlb_walk_rate(&self) -> Option<f64> {
        #[allow(clippy::cast_precision_loss)]
        ratio(
            self.tlb_l2_misses as f64,
            (self.tlb_l1_hits + self.tlb_l1_misses) as f64,
        )
    }

    /// L1 data-cache miss rate.
    #[must_use]
    pub fn l1_data_miss_rate(&self) -> Option<f64> {
        #[allow(clippy::cast_precision_loss)]
        ratio(
            self.l1d_misses as f64,
            (self.l1d_hits + self.l1d_misses) as f64,
        )
    }

    /// L1 metadata-cache miss rate.
    #[must_use]
    pub fn l1_metadata_miss_rate(&self) -> Option<f64> {
        #[allow(clippy::cast_precision_loss)]
        ratio(
            self.l1m_misses as f64,
            (self.l1m_hits + self.l1m_misses) as f64,
        )
    }

    /// The row's value for `metric`, `None` when the denominator is 0.
    #[must_use]
    pub fn metric(&self, metric: Metric) -> Option<f64> {
        match metric {
            Metric::AvgPtwLatency => self.avg_ptw_latency(),
            Metric::TranslationFraction => self.translation_fraction(),
            Metric::L1DataMissRate => self.l1_data_miss_rate(),
            Metric::L1MetadataMissRate => self.l1_metadata_miss_rate(),
        }
    }
}

/// Parses one calibration JSONL line.
///
/// # Errors
///
/// Names the missing field (older-format rows without the calibration
/// counters are rejected with a hint to re-run the sweep).
pub fn parse_row(line: &str) -> Result<CalRow, String> {
    let s =
        |key: &str| json_str(line, key).ok_or_else(|| format!("row is missing coordinate {key:?}"));
    let n = |key: &str| {
        json_u64(line, key).ok_or_else(|| {
            format!(
                "row is missing counter {key:?} (pre-calibration JSONL format? \
                 re-run the sweep to regenerate it)"
            )
        })
    };
    let cores_raw = s("cores")?;
    let cores: u32 = cores_raw
        .parse()
        .map_err(|_| format!("coordinate \"cores\"={cores_raw:?} is not an integer"))?;
    Ok(CalRow {
        workload: s("workload")?,
        system: s("system")?,
        cores,
        mechanism: s("mechanism")?,
        translation_cycles: n("translation_cycles")?,
        walks: n("walks")?,
        ptw_cycles: n("ptw_cycles")?,
        avg_core_cycles: json_f64(line, "avg_core_cycles")
            .ok_or_else(|| "row is missing counter \"avg_core_cycles\"".to_string())?,
        tlb_l1_hits: n("tlb_l1_hits")?,
        tlb_l1_misses: n("tlb_l1_misses")?,
        tlb_l2_misses: n("tlb_l2_misses")?,
        l1d_hits: n("l1d_hits")?,
        l1d_misses: n("l1d_misses")?,
        l1m_hits: n("l1m_hits")?,
        l1m_misses: n("l1m_misses")?,
    })
}

/// Parses a whole JSONL stream, naming the first bad line.
///
/// # Errors
///
/// Empty input or any malformed row (with its 1-based line number).
pub fn parse_rows(text: &str) -> Result<Vec<CalRow>, String> {
    let rows: Vec<CalRow> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| parse_row(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect::<Result<_, _>>()?;
    if rows.is_empty() {
        return Err("no rows (empty JSONL)".to_string());
    }
    Ok(rows)
}

/// The mean of `metric` over the rows in a target's
/// `(system, cores, mechanism)` group, with the workload count.
#[must_use]
pub fn group_mean(rows: &[CalRow], t: &PaperTarget) -> (Option<f64>, usize) {
    let vals: Vec<f64> = rows
        .iter()
        .filter(|r| r.system == t.system && r.cores == t.cores && r.mechanism == t.mechanism)
        .filter_map(|r| r.metric(t.metric))
        .collect();
    #[allow(clippy::cast_precision_loss)]
    let mean = (!vals.is_empty()).then(|| vals.iter().sum::<f64>() / vals.len() as f64);
    (mean, vals.len())
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
    rows: &[CalRow],
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
    Ok(TARGETS
        .iter()
        .map(|t| {
            let tol = overrides
                .iter()
                .rev()
                .find(|(k, _)| k == t.key)
                .map_or(t.tolerance, |(_, tol)| *tol);
            let band = tol.half_width(t.value) * scale;
            let (measured, workloads) = group_mean(rows, t);
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

/// Whether every finding passed.
#[must_use]
pub fn all_pass(findings: &[Finding]) -> bool {
    findings.iter().all(|f| f.pass)
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
                f.measured
                    .map_or_else(|| "-".to_string(), |m| t.metric.fmt(m)),
                f.rel_deviation()
                    .map_or_else(|| "-".to_string(), |d| format!("{:.1}%", d * 100.0)),
                f.band_spec.clone(),
                if f.pass {
                    "pass".to_string()
                } else {
                    "FAIL".to_string()
                },
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

/// Headers of the per-group shape table — the one definition shared by
/// `calibrate` and `figures --from-jsonl`, so the two renderings can
/// never drift.
pub const GROUP_HEADERS: [&str; 9] = [
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

/// The per-group shape summary (`system/cores/mechanism` → derived
/// metrics), in grid order of first appearance — the human-readable
/// view `calibrate` prints after a run.
#[must_use]
pub fn group_rows(rows: &[CalRow]) -> Vec<Vec<String>> {
    let fmt = |v: Option<f64>, m: Metric| v.map_or_else(|| "-".to_string(), |x| m.fmt(x));
    let mut groups: Vec<(String, u32, String)> = Vec::new();
    for r in rows {
        let g = (r.system.clone(), r.cores, r.mechanism.clone());
        if !groups.contains(&g) {
            groups.push(g);
        }
    }
    groups
        .iter()
        .map(|(system, cores, mechanism)| {
            let members: Vec<&CalRow> = rows
                .iter()
                .filter(|r| &r.system == system && r.cores == *cores && &r.mechanism == mechanism)
                .collect();
            let mean = |metric: Metric| {
                let vals: Vec<f64> = members.iter().filter_map(|r| r.metric(metric)).collect();
                #[allow(clippy::cast_precision_loss)]
                (!vals.is_empty()).then(|| vals.iter().sum::<f64>() / vals.len() as f64)
            };
            let walk_rate = {
                let vals: Vec<f64> = members.iter().filter_map(|r| r.tlb_walk_rate()).collect();
                #[allow(clippy::cast_precision_loss)]
                (!vals.is_empty()).then(|| vals.iter().sum::<f64>() / vals.len() as f64)
            };
            vec![
                system.clone(),
                cores.to_string(),
                mechanism.clone(),
                members.len().to_string(),
                fmt(mean(Metric::AvgPtwLatency), Metric::AvgPtwLatency),
                fmt(
                    mean(Metric::TranslationFraction),
                    Metric::TranslationFraction,
                ),
                walk_rate.map_or_else(|| "-".to_string(), |x| format!("{:.2}%", x * 100.0)),
                fmt(mean(Metric::L1DataMissRate), Metric::L1DataMissRate),
                fmt(mean(Metric::L1MetadataMissRate), Metric::L1MetadataMissRate),
            ]
        })
        .collect()
}

/// Renders stored sweep JSONL as tables without re-simulating — the
/// `figures --from-jsonl` engine.
///
/// Every stream gets a generic per-row table: grid index, the knob
/// coordinates (first-seen order across rows; `-` where a row lacks
/// one), then the derived per-row metrics computable from the raw
/// counters alone (cycles, cycles/op, mean PTW latency, walk rate, L1
/// miss rates). When the rows also carry the calibration coordinates
/// (`workload`/`system`/`cores`/`mechanism`), the same per-group shape
/// table `calibrate --check --from` prints is appended, through the
/// same [`group_rows`]/[`GROUP_HEADERS`] code, so the two paths emit
/// identical bytes for identical rows.
///
/// # Errors
///
/// Empty input or a malformed line (named by 1-based number).
pub fn jsonl_tables(text: &str) -> Result<String, String> {
    use ndp_sim::spec::{parse_json, Json};

    /// One parsed stream line: grid index, knob coordinates, raw text.
    type ParsedRow = (u64, Vec<(String, String)>, String);
    let mut knob_names: Vec<String> = Vec::new();
    let mut parsed: Vec<ParsedRow> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = parse_json(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let index = v
            .get("i")
            .and_then(Json::scalar)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("line {}: row has no grid index \"i\"", lineno + 1))?;
        let mut knobs = Vec::new();
        if let Some(Json::Obj(pairs)) = v.get("knobs") {
            for (k, val) in pairs {
                let val = val.scalar().unwrap_or_default();
                if !knob_names.contains(k) {
                    knob_names.push(k.clone());
                }
                knobs.push((k.clone(), val));
            }
        }
        parsed.push((index, knobs, line.to_string()));
    }
    if parsed.is_empty() {
        return Err("no rows (empty JSONL)".to_string());
    }

    let ratio = |num: Option<u64>, den: Option<u64>| -> Option<f64> {
        #[allow(clippy::cast_precision_loss)]
        match (num, den) {
            (Some(n), Some(d)) if d > 0 => Some(n as f64 / d as f64),
            _ => None,
        }
    };
    let fmt = |v: Option<f64>, f: &dyn Fn(f64) -> String| v.map_or_else(|| "-".to_string(), f);
    let mut headers: Vec<&str> = vec!["i"];
    headers.extend(knob_names.iter().map(String::as_str));
    headers.extend_from_slice(&[
        "cycles", "cyc/op", "ptw", "walkrate", "L1d miss", "L1m miss",
    ]);
    let rows: Vec<Vec<String>> = parsed
        .iter()
        .map(|(index, knobs, line)| {
            let n = |key: &str| json_u64(line, key);
            let mut cells = vec![index.to_string()];
            for name in &knob_names {
                cells.push(
                    knobs
                        .iter()
                        .find(|(k, _)| k == name)
                        .map_or_else(|| "-".to_string(), |(_, v)| v.clone()),
                );
            }
            cells.push(n("cycles").map_or_else(|| "-".to_string(), |c| c.to_string()));
            cells.push(fmt(ratio(n("cycles"), n("ops")), &|x| format!("{x:.1}")));
            cells.push(fmt(ratio(n("ptw_cycles"), n("walks")), &|x| {
                format!("{x:.1}")
            }));
            let tlb_accesses = n("tlb_l1_hits").zip(n("tlb_l1_misses")).map(|(h, m)| h + m);
            cells.push(fmt(ratio(n("tlb_l2_misses"), tlb_accesses), &|x| {
                format!("{:.2}%", x * 100.0)
            }));
            let l1d = n("l1d_hits").zip(n("l1d_misses")).map(|(h, m)| h + m);
            cells.push(fmt(ratio(n("l1d_misses"), l1d), &|x| {
                format!("{:.2}%", x * 100.0)
            }));
            let l1m = n("l1m_hits").zip(n("l1m_misses")).map(|(h, m)| h + m);
            cells.push(fmt(ratio(n("l1m_misses"), l1m), &|x| {
                format!("{:.2}%", x * 100.0)
            }));
            cells
        })
        .collect();
    let mut out = format!("rows ({}):\n", parsed.len());
    out.push_str(&crate::table_string(&headers, &rows));

    // The calibration view rides along whenever the coordinates allow
    // it — same parse, same grouping, same headers as `calibrate`.
    if let Ok(cal) = parse_rows(text) {
        out.push_str(&format!(
            "\nper-group shape metrics ({} rows):\n",
            cal.len()
        ));
        out.push_str(&crate::table_string(&GROUP_HEADERS, &group_rows(&cal)));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(system: &str, cores: u32, mechanism: &str, workload: &str) -> CalRow {
        CalRow {
            workload: workload.to_string(),
            system: system.to_string(),
            cores,
            mechanism: mechanism.to_string(),
            translation_cycles: 500,
            walks: 10,
            ptw_cycles: 4746, // avg 474.6, inside the 4c NDP band
            avg_core_cycles: 1000.0,
            tlb_l1_hits: 90,
            tlb_l1_misses: 10,
            tlb_l2_misses: 10,
            l1d_hits: 65,
            l1d_misses: 35,
            l1m_hits: 2,
            l1m_misses: 98,
        }
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
        let r = row("ndp", 4, "radix", "RND");
        assert!((r.avg_ptw_latency().unwrap() - 474.6).abs() < 1e-9);
        assert!((r.translation_fraction().unwrap() - 0.125).abs() < 1e-9);
        assert!((r.tlb_walk_rate().unwrap() - 0.10).abs() < 1e-9);
        assert!((r.l1_data_miss_rate().unwrap() - 0.35).abs() < 1e-9);
        assert!((r.l1_metadata_miss_rate().unwrap() - 0.98).abs() < 1e-9);
    }

    #[test]
    fn zero_denominators_yield_none() {
        let mut r = row("ndp", 4, "radix", "RND");
        r.walks = 0;
        r.tlb_l1_hits = 0;
        r.tlb_l1_misses = 0;
        assert!(r.avg_ptw_latency().is_none());
        assert!(r.tlb_walk_rate().is_none());
    }

    #[test]
    fn jsonl_row_round_trips_through_parse() {
        let line = "{\"i\":3,\"cfg\":7,\"knobs\":{\"workload\":\"RND\",\"system\":\"ndp\",\
                    \"cores\":\"4\",\"mechanism\":\"radix\"},\"cycles\":9,\"ops\":5,\
                    \"mem_ops\":4,\"translation_cycles\":500,\"os_cycles\":0,\"walks\":10,\
                    \"ptw_cycles\":4746,\"avg_core_cycles\":1000,\"tlb_l1_hits\":90,\
                    \"tlb_l1_misses\":10,\"tlb_l2_misses\":10,\"l1d_hits\":65,\
                    \"l1d_misses\":35,\"l1m_hits\":2,\"l1m_misses\":98,\"fp\":1}";
        let r = parse_row(line).unwrap();
        assert_eq!(r, row("ndp", 4, "radix", "RND"));
    }

    #[test]
    fn old_format_rows_are_rejected_with_hint() {
        let line = "{\"i\":0,\"cfg\":1,\"knobs\":{\"workload\":\"RND\",\"system\":\"ndp\",\
                    \"cores\":\"4\",\"mechanism\":\"radix\"},\"cycles\":9,\"ops\":5,\
                    \"mem_ops\":4,\"translation_cycles\":500,\"os_cycles\":0,\"walks\":10,\"fp\":1}";
        let err = parse_row(line).unwrap_err();
        assert!(err.contains("ptw_cycles"), "{err}");
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
            !all_pass(&findings),
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
        let groups = group_rows(&rows);
        assert_eq!(
            groups.len(),
            1,
            "two workloads, one (system,cores,mechanism) group"
        );
        assert_eq!(groups[0][3], "2");
        assert_eq!(target_rows().len(), TARGETS.len());
    }
}
