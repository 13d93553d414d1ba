//! The correctness gate: every row of every pass must complete, report
//! the same fingerprint as in the first pass, and satisfy the report
//! identities that hold for any seed.

use crate::grid::Pass;
use ndp_sim::spec::GridPoint;
use ndp_sim::RunReport;
use ndp_types::PtLevel;

/// Rows attempted and failed over all passes, with one line per failure.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Rows run, summed over passes.
    pub attempted: u64,
    /// Rows that panicked, changed fingerprint or broke an identity.
    pub failed: u64,
    /// What went wrong, one line per failed row.
    pub problems: Vec<String>,
}

impl Verdict {
    /// Failed rows over rows attempted.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Report identities of one completed row:
/// * measured ops = cores × `measure_ops`;
/// * on a mechanism with page-walk caches, every walk probes the root
///   level's PWC exactly once and no level more often than that.
#[must_use]
pub fn identity_problems(point: &GridPoint, r: &RunReport) -> Vec<String> {
    let cfg = &point.config;
    let mut out = Vec::new();
    let expected_ops = u64::from(cfg.cores) * cfg.measure_ops;
    if r.ops != expected_ops {
        out.push(format!(
            "measured ops {} != cores x measure_ops = {expected_ops}",
            r.ops
        ));
    }
    let pwc = cfg.pwc_override.unwrap_or_else(|| cfg.mechanism.uses_pwc());
    if pwc && !cfg.mechanism.is_ideal() {
        let walks = r.ptw.count;
        let root = r
            .pwc
            .iter()
            .find(|(l, _)| *l == PtLevel::L4)
            .map_or(0, |(_, hm)| hm.total());
        if root != walks {
            out.push(format!("L4 PWC probes {root} != walks {walks}"));
        }
        for (level, hm) in &r.pwc {
            if hm.total() > walks {
                out.push(format!(
                    "{} PWC probes {} exceed walks {walks}",
                    level.name(),
                    hm.total()
                ));
            }
        }
    }
    out
}

fn label(point: &GridPoint) -> String {
    let coords: Vec<String> = point
        .coords
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    format!("row {} ({})", point.index, coords.join(", "))
}

/// Checks every pass of `grid`.
#[must_use]
pub fn check(grid: &[GridPoint], passes: &[Pass]) -> Verdict {
    let mut v = Verdict::default();
    let first = passes.first();
    for (p, pass) in passes.iter().enumerate() {
        for (i, (point, row)) in grid.iter().zip(&pass.rows).enumerate() {
            v.attempted += 1;
            let problem = match &row.outcome {
                Err(msg) => Some(format!("panicked: {msg}")),
                Ok(done) => {
                    let reference = first
                        .and_then(|f| f.rows[i].outcome.as_ref().ok())
                        .map(|d| d.fingerprint);
                    if reference.is_some_and(|fp| fp != done.fingerprint) {
                        Some(format!(
                            "fingerprint {:#x} differs from pass 1 ({:#x})",
                            done.fingerprint,
                            reference.unwrap_or_default()
                        ))
                    } else {
                        let broken = identity_problems(point, &done.row.report);
                        (!broken.is_empty()).then(|| broken.join("; "))
                    }
                }
            };
            if let Some(problem) = problem {
                v.failed += 1;
                v.problems
                    .push(format!("pass {}: {}: {problem}", p + 1, label(point)));
            }
        }
    }
    v
}
