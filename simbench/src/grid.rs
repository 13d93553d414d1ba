//! The three benchmark workloads and the closed-loop row driver.
//!
//! Each workload is a sweep spec in `workloads/` (loadable by
//! `ndpsim sweep --spec`). A pass runs an already-expanded grid one row at
//! a time — each row starts after the previous one finishes — timing
//! `Machine::new`, `Machine::run` and the report step (fingerprint +
//! JSONL row) separately. A row that panics, including one whose config
//! fails `SimConfig::validate`, is recorded as failed and the pass goes
//! on.

use crate::spans::Tracer;
use ndp_sim::spec::{apply_knob, config_fingerprint, GridPoint, SweepRow, SweepSpec};
use ndp_sim::{Machine, RunReport};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// The sweep spec, as JSON.
    pub spec_json: &'static str,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "shootout_blocking",
        spec_json: include_str!("../workloads/shootout_blocking.json"),
    },
    Workload {
        name: "calibration_quick",
        spec_json: include_str!("../workloads/calibration_quick.json"),
    },
    Workload {
        name: "windowed_shared",
        spec_json: include_str!("../workloads/windowed_shared.json"),
    },
];

/// Looks a workload up by name.
///
/// # Errors
///
/// Names the valid workloads.
pub fn workload(name: &str) -> Result<Workload, String> {
    WORKLOADS
        .iter()
        .copied()
        .find(|w| w.name == name)
        .ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?}; valid: {}", names.join(", "))
        })
}

/// Loads a workload's spec with the benchmark seed applied as the `seed`
/// knob, then any `knob=value` overrides (applied last, like
/// `ndpsim sweep --set`).
///
/// # Errors
///
/// Spec or knob errors.
pub fn load_spec(w: Workload, seed: u64, sets: &[(String, String)]) -> Result<SweepSpec, String> {
    let mut spec = SweepSpec::from_json(w.spec_json).map_err(|e| format!("{}: {e}", w.name))?;
    apply_knob(&mut spec.base, "seed", &seed.to_string()).map_err(|e| e.to_string())?;
    for (k, v) in sets {
        apply_knob(&mut spec.base, k, v).map_err(|e| format!("--set {k}={v}: {e}"))?;
    }
    Ok(spec)
}

/// A row that ran to completion.
#[derive(Debug, Clone)]
pub struct Done {
    /// Coordinates, config fingerprint and report.
    pub row: SweepRow,
    /// `RunReport::fingerprint()` of the report.
    pub fingerprint: u64,
    /// The row as `ndpsim sweep` writes it to JSONL.
    pub jsonl: String,
}

/// One row of one pass.
#[derive(Debug, Clone)]
pub struct RowRun {
    /// Host seconds inside `Machine::new`.
    pub new_s: f64,
    /// Host seconds inside `Machine::run`.
    pub run_s: f64,
    /// Host seconds fingerprinting the report and rendering its JSONL row.
    pub report_s: f64,
    /// The completed row, or the panic message of a failed one.
    pub outcome: Result<Done, String>,
}

impl RowRun {
    /// The row's report, if it completed.
    #[must_use]
    pub fn report(&self) -> Option<&RunReport> {
        self.outcome.as_ref().ok().map(|d| &d.row.report)
    }
}

/// One closed-loop pass over a grid.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host seconds for the whole grid.
    pub wall_s: f64,
    /// Rows in grid order.
    pub rows: Vec<RowRun>,
}

impl Pass {
    /// Host seconds inside `Machine::new`, summed over rows.
    #[must_use]
    pub fn setup_s(&self) -> f64 {
        self.rows.iter().map(|r| r.new_s).sum()
    }

    /// Host seconds inside `Machine::run`, summed over rows.
    #[must_use]
    pub fn run_s(&self) -> f64 {
        self.rows.iter().map(|r| r.run_s).sum()
    }

    /// Host seconds in the report step, summed over rows.
    #[must_use]
    pub fn report_s(&self) -> f64 {
        self.rows.iter().map(|r| r.report_s).sum()
    }

    /// The completed rows' JSONL, in grid order (what `ndpsim sweep`
    /// would write for them).
    #[must_use]
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            if let Ok(done) = &row.outcome {
                out.push_str(&done.jsonl);
                out.push('\n');
            }
        }
        out
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

/// Times `f`, inside a span named `name` when tracing.
fn timed<T>(tracer: &mut Option<&mut Tracer>, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    if let Some(t) = tracer.as_deref_mut() {
        t.enter(name);
    }
    let start = Instant::now();
    let out = f();
    let secs = start.elapsed().as_secs_f64();
    if let Some(t) = tracer.as_deref_mut() {
        t.exit(1);
    }
    (out, secs)
}

/// Runs one grid row, catching any panic.
fn run_row(point: &GridPoint, tracer: &mut Option<&mut Tracer>) -> RowRun {
    let cfg = point.config.clone();
    let (machine, new_s) = timed(tracer, "sim.new", || {
        catch_unwind(AssertUnwindSafe(|| Machine::new(cfg)))
    });
    let mut run = RowRun {
        new_s,
        run_s: 0.0,
        report_s: 0.0,
        outcome: Err(String::new()),
    };
    let machine = match machine {
        Ok(m) => m,
        Err(p) => {
            run.outcome = Err(panic_message(p.as_ref()));
            return run;
        }
    };
    let (report, run_s) = timed(tracer, "sim.run", || {
        catch_unwind(AssertUnwindSafe(|| machine.run()))
    });
    run.run_s = run_s;
    let report = match report {
        Ok(r) => r,
        Err(p) => {
            run.outcome = Err(panic_message(p.as_ref()));
            return run;
        }
    };
    let (done, report_s) = timed(tracer, "sim.report", || {
        let row = SweepRow {
            index: point.index,
            coords: point.coords.clone(),
            config_fingerprint: config_fingerprint(&point.config),
            report,
        };
        let fingerprint = row.report.fingerprint();
        let jsonl = row.to_jsonl();
        Done {
            row,
            fingerprint,
            jsonl,
        }
    });
    run.report_s = report_s;
    run.outcome = Ok(done);
    run
}

/// Runs every grid point once, closed-loop, in grid order. With a
/// tracer, each row gets a `sim.row` span holding `sim.new`, `sim.run`
/// and `sim.report`.
pub fn run_pass(grid: &[GridPoint], mut tracer: Option<&mut Tracer>) -> Pass {
    let start = Instant::now();
    let mut rows = Vec::with_capacity(grid.len());
    for point in grid {
        if let Some(t) = tracer.as_deref_mut() {
            t.enter("sim.row");
        }
        rows.push(run_row(point, &mut tracer));
        if let Some(t) = tracer.as_deref_mut() {
            t.exit(1);
        }
    }
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        rows,
    }
}
