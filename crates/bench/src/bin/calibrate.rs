#![forbid(unsafe_code)]
//! Calibration checker: runs the committed calibration spec (the
//! paper's evaluation grid, workloads x {NDP 1/4/8 cores, CPU 4 cores}
//! x every mechanism) or reads finished rows, and checks the derived
//! Fig 4/5/6/7 metrics against the embedded paper targets.
//!
//! ```text
//! # full-scale run (examples/specs/calibration_full.json), resumable
//! # stream, pass/fail gate
//! cargo run -p ndp-bench --release --bin calibrate -- \
//!     --out calibration.jsonl --resume --check
//!
//! # quick CI-scale gate (examples/specs/calibration_quick.json) with
//! # widened bands
//! cargo run -p ndp-bench --release --bin calibrate -- \
//!     --quick --check --tolerance-scale 4
//!
//! # other scales, or the supervised multi-process executor: run the
//! # spec through `ndpsim sweep`, then check its rows
//! ndpsim sweep --spec examples/specs/calibration_full.json \
//!     --set footprint=4294967296 --workers 4 --out calibration.jsonl
//! calibrate --check --from calibration.jsonl
//! ```
//!
//! `--tolerance KEY=BAND` / `--tolerance-scale X` adjust the bands
//! without touching the embedded table.

use ndp_bench::calibration::{self, Tolerance};
use ndp_bench::cli::{exit_on_err, install_jobs, Args, CliError};
use ndp_bench::print_table;
use ndp_sim::spec::{run_sweep, run_sweep_jsonl_opts, JsonlOptions, SweepSpec};
use std::path::Path;

const USAGE: &str = "usage: calibrate [--quick] [--jobs N] [--out FILE.jsonl [--resume]] \
     [--check] [--from FILE.jsonl] [--tolerance KEY=BAND]... \
     [--tolerance-scale X] [--targets]\n\
     runs examples/specs/calibration_full.json, or calibration_quick.json with --quick;\n\
     other scales: ndpsim sweep --spec FILE [--set knob=value]... --out rows.jsonl,\n\
     then calibrate --check --from rows.jsonl";

/// The committed calibration grids, `--quick` and full scale.
const QUICK_SPEC: &str = include_str!("../../../../examples/specs/calibration_quick.json");
const FULL_SPEC: &str = include_str!("../../../../examples/specs/calibration_full.json");

/// Rejects flag combinations that would silently drop a flag: `--from`
/// reads finished rows, so nothing it could run or stream applies.
fn check_flag_combinations(args: &Args) -> Result<(), CliError> {
    if args.has("--from") {
        if let Some(flag) = ["--quick", "--out", "--resume", "--jobs"]
            .into_iter()
            .find(|f| args.has(f))
        {
            return Err(CliError::usage(format!(
                "error: --from reads finished rows; {flag} has nothing to run"
            )));
        }
    } else if args.has("--resume") && !args.has("--out") {
        return Err(CliError::usage(
            "error: --resume needs --out FILE.jsonl to stream to".to_string(),
        ));
    }
    Ok(())
}

/// Parses the repeatable `--tolerance KEY=BAND` overrides.
fn tolerance_overrides(args: &Args) -> Result<Vec<(String, Tolerance)>, CliError> {
    args.get_all("--tolerance")
        .iter()
        .map(|setting| {
            let (key, band) = setting.split_once('=').ok_or_else(|| {
                CliError::usage(format!(
                    "error: --tolerance expects KEY=BAND (e.g. ndp_radix_ptw_4c=25%), \
                     got {setting:?}"
                ))
            })?;
            let tol = Tolerance::parse(band)
                .map_err(|e| CliError::usage(format!("error: --tolerance {key}: {e}")))?;
            Ok((key.trim().to_string(), tol))
        })
        .collect()
}

/// Runs `spec` and returns its JSONL rows: streamed resumably to
/// `--out`, or in memory through the same JSONL format so one parse
/// path serves every mode.
fn run_rows(args: &Args, spec: &SweepSpec) -> Result<String, CliError> {
    let Some(out) = args.get("--out") else {
        let result = run_sweep(spec).map_err(|e| CliError::semantic(format!("error: {e}")))?;
        return Ok(result.to_jsonl());
    };
    let opts = JsonlOptions {
        resume: args.has("--resume"),
        ..JsonlOptions::default()
    };
    let summary = run_sweep_jsonl_opts(spec, Path::new(&out), &opts)
        .map_err(|e| CliError::semantic(format!("error: {e}")))?;
    for w in &summary.warnings {
        eprintln!("warning: {w}");
    }
    println!(
        "sweep \"calibration\": {} grid points, {} executed, {} reused, digest {}",
        summary.grid, summary.executed, summary.reused, summary.digest
    );
    std::fs::read_to_string(&out)
        .map_err(|e| CliError::semantic(format!("error: cannot read back {out}: {e}")))
}

fn main() {
    let args = Args::from_env();
    exit_on_err(args.reject_unknown(
        &[
            "--jobs",
            "--out",
            "--from",
            "--tolerance",
            "--tolerance-scale",
        ],
        &["--quick", "--resume", "--check", "--targets", "--help"],
    ));
    if args.has("--help") {
        eprintln!("{USAGE}");
        return;
    }
    exit_on_err(check_flag_combinations(&args));
    exit_on_err(install_jobs(&args));

    if args.has("--targets") {
        println!("embedded paper targets (figures 4/5/6/7):");
        print_table(&calibration::TARGET_HEADERS, &calibration::target_rows());
        return;
    }

    let overrides = exit_on_err(tolerance_overrides(&args));
    let scale: f64 = match args.get("--tolerance-scale") {
        Some(raw) => exit_on_err(raw.parse().map_err(|_| {
            CliError::usage(format!(
                "error: --tolerance-scale expects a number, got {raw:?}"
            ))
        })),
        None => 1.0,
    };

    let start = std::time::Instant::now();
    let text = if let Some(from) = args.get("--from") {
        exit_on_err(
            std::fs::read_to_string(&from)
                .map_err(|e| CliError::semantic(format!("error: cannot read {from}: {e}"))),
        )
    } else {
        let json = if args.has("--quick") {
            QUICK_SPEC
        } else {
            FULL_SPEC
        };
        let spec = exit_on_err(
            SweepSpec::from_json(json)
                .map_err(|e| CliError::semantic(format!("error: calibration spec: {e}"))),
        );
        let axis_len = |i: usize| spec.axes.get(i).map_or(0, |a| a.points.len());
        println!(
            "calibration grid: {} points ({} workloads x {} system/core pairs x {} mechanisms)",
            spec.grid_len(),
            axis_len(0),
            axis_len(1),
            axis_len(2)
        );
        exit_on_err(run_rows(&args, &spec))
    };
    let wall_s = start.elapsed().as_secs_f64();

    let rows = exit_on_err(
        calibration::parse_rows(&text).map_err(|e| CliError::semantic(format!("error: {e}"))),
    );
    print!("{}", calibration::group_table(&rows));

    let findings = exit_on_err(
        calibration::evaluate(&rows, &overrides, scale)
            .map_err(|e| CliError::usage(format!("error: {e}"))),
    );
    println!("\npaper-target check (tolerance scale {scale}):");
    print_table(
        &[
            "key", "figure", "target", "measured", "dev", "band", "status",
        ],
        &calibration::report_rows(&findings),
    );
    let hit = findings.iter().filter(|f| f.pass).count();
    println!(
        "\n{hit}/{} targets in band, max relative deviation {:.1}%, wall {wall_s:.1}s",
        findings.len(),
        calibration::max_rel_deviation(&findings) * 100.0
    );

    if args.has("--check") && hit < findings.len() {
        eprintln!(
            "error: calibration check failed: {} target(s) out of band",
            findings.len() - hit
        );
        std::process::exit(1);
    }
}
