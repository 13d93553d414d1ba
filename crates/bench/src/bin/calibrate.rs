#![forbid(unsafe_code)]
//! Full-scale calibration harness: sweeps the paper's evaluation grid
//! (workloads x {NDP 1/4/8 cores, CPU 4 cores} x every mechanism),
//! streams rows to resumable JSONL through the spec engine, and checks
//! the derived Fig 4/5/6/7 metrics against the embedded paper targets.
//!
//! ```text
//! # full-scale run, resumable stream, pass/fail gate
//! cargo run -p ndp-bench --release --bin calibrate -- \
//!     --out calibration.jsonl --resume --check
//!
//! # quick CI-scale gate with widened bands
//! cargo run -p ndp-bench --release --bin calibrate -- \
//!     --quick --check --tolerance-scale 4
//!
//! # shard 0 of 4 (merge by re-running without --shard), or export the
//! # spec for the supervised multi-process executor
//! calibrate --out calibration.jsonl --resume --shard 0/4
//! calibrate --emit-spec calibration.spec.json
//! ndpsim sweep --spec calibration.spec.json --workers 4 --out calibration.jsonl
//! calibrate --check --from calibration.jsonl
//! ```
//!
//! The base configuration is built through the knob registry
//! (`SimConfig::cli_default` + `apply_knob` + `--set`), never ad-hoc
//! constructors, so the sweep's coordinates round-trip through spec
//! files and `--tolerance KEY=BAND` / `--tolerance-scale X` adjust the
//! bands without touching the embedded table.

use ndp_bench::calibration::{self, Tolerance, SYSTEM_CORES};
use ndp_bench::cli::{exit_on_err, install_jobs, parse_workload_list, Args, CliError};
use ndp_bench::print_table;
use ndp_sim::shard::ShardSpec;
use ndp_sim::spec::{
    apply_knob, config_knobs, mechanism_names, run_sweep, run_sweep_jsonl_opts, JsonlOptions,
    SweepSpec,
};
use ndp_sim::SimConfig;
use ndp_workloads::WorkloadId;
use std::path::Path;

const USAGE: &str = "usage: calibrate [--quick] [--footprint-mb MB] [--ops N] \
     [--workloads RND,BFS,XS] [--set knob=value]... [--jobs N] \
     [--out FILE.jsonl [--resume] [--shard I/N]] [--emit-spec FILE] \
     [--check] [--from FILE.jsonl] [--tolerance KEY=BAND]... \
     [--tolerance-scale X] [--targets]";

/// Builds the registry-driven base config: quick/full scale defaults,
/// then the validated `--footprint-mb` / `--ops` flags, then `--set`
/// overrides (spec-file semantics, applied last).
fn base_config(args: &Args) -> Result<SimConfig, CliError> {
    let mut cfg = SimConfig::cli_default();
    let quick = args.has("--quick");
    let set = |cfg: &mut SimConfig, knob: &str, value: &str| {
        apply_knob(cfg, knob, value)
            .map_err(|e| CliError::usage(format!("error: knob {knob}: {e}")))
    };

    // Scale defaults: the full grid at paper-sized per-core footprints,
    // or a quick deterministic gate for CI.
    let footprint_mb_default: u64 = if quick { 256 } else { 2048 };
    let ops_default: u64 = if quick { 6_000 } else { 30_000 };

    let footprint_mb = match args.num("--footprint-mb")? {
        Some(0) => {
            // A zero footprint used to shift straight into the config
            // and simulate an empty address space; reject it by name.
            return Err(CliError::usage(
                "error: --footprint-mb (knob `footprint`) must be positive, got 0".to_string(),
            ));
        }
        Some(mb) => mb,
        None => footprint_mb_default,
    };
    let footprint_bytes = footprint_mb.checked_mul(1 << 20).ok_or_else(|| {
        CliError::usage(format!(
            "error: --footprint-mb value {footprint_mb} overflows the `footprint` knob (bytes)"
        ))
    })?;
    set(&mut cfg, "footprint", &footprint_bytes.to_string())?;

    let ops = args.num("--ops")?.unwrap_or(ops_default);
    set(&mut cfg, "measure_ops", &ops.to_string())?;
    set(&mut cfg, "warmup_ops", &(ops / 3).to_string())?;

    ndp_bench::cli::apply_sets(&mut cfg, args)?;
    cfg.validate()
        .map_err(|e| CliError::semantic(e.to_string()))?;
    Ok(cfg)
}

/// The calibration grid over `base` ([`calibration::grid`], shared with
/// the pinned `cal` digest test).
fn calibration_spec(base: SimConfig, workloads: &[WorkloadId]) -> SweepSpec {
    let names: Vec<&str> = workloads.iter().map(|w| w.name()).collect();
    calibration::grid(base, &names)
}

/// Renders the spec as the JSON format `ndpsim sweep --spec` loads: the
/// full base knob list plus the three axes.
fn spec_json(spec: &SweepSpec) -> String {
    let base: Vec<String> = config_knobs(&spec.base)
        .iter()
        .map(|(k, v)| format!("    \"{k}\": \"{v}\""))
        .collect();
    let mut axes = Vec::new();
    for axis in &spec.axes {
        if axis.points.iter().all(|p| p.sets.len() == 1) {
            let knob = &axis.points[0].sets[0].0;
            let values: Vec<String> = axis
                .points
                .iter()
                .map(|p| format!("\"{}\"", p.sets[0].1))
                .collect();
            axes.push(format!(
                "    {{\"knob\": \"{knob}\", \"values\": [{}]}}",
                values.join(", ")
            ));
        } else {
            let points: Vec<String> = axis
                .points
                .iter()
                .map(|p| {
                    let sets: Vec<String> = p
                        .sets
                        .iter()
                        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
                        .collect();
                    format!("{{{}}}", sets.join(", "))
                })
                .collect();
            axes.push(format!("    {{\"points\": [{}]}}", points.join(", ")));
        }
    }
    format!(
        "{{\n  \"name\": \"{}\",\n  \"base\": {{\n{}\n  }},\n  \"axes\": [\n{}\n  ]\n}}\n",
        spec.name,
        base.join(",\n"),
        axes.join(",\n")
    )
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

/// Produces the JSONL text to evaluate: an existing file (`--from`), a
/// streamed resumable run (`--out`), or an in-memory sweep.
fn obtain_rows_text(args: &Args, spec: &SweepSpec) -> Result<Option<String>, CliError> {
    if let Some(from) = args.get("--from") {
        return std::fs::read_to_string(&from)
            .map(Some)
            .map_err(|e| CliError::semantic(format!("error: cannot read {from}: {e}")));
    }

    let shard = args
        .get("--shard")
        .map(|raw| ShardSpec::parse(&raw).map_err(|e| CliError::usage(format!("error: {e}"))))
        .transpose()?;
    let Some(out) = args.get("--out") else {
        if shard.is_some() || args.has("--resume") {
            return Err(CliError::usage(
                "error: --shard/--resume need --out FILE.jsonl to stream to".to_string(),
            ));
        }
        // In-memory run: serialize through the same JSONL format so one
        // parse path serves every mode.
        let result = run_sweep(spec).map_err(|e| CliError::semantic(format!("error: {e}")))?;
        let lines: Vec<String> = result.rows.iter().map(|r| r.to_jsonl()).collect();
        return Ok(Some(lines.join("\n")));
    };

    if shard.is_some() && args.has("--check") {
        return Err(CliError::usage(
            "error: --check needs the merged grid; run without --shard (it stitches \
             finished shard files), or drive shards via `ndpsim sweep --workers N`"
                .to_string(),
        ));
    }
    let opts = JsonlOptions {
        resume: args.has("--resume"),
        shard,
        fault: None,
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
    if let Some(sh) = opts.shard {
        // A stripe is not the grid: report where it landed and stop
        // before any metric math.
        println!(
            "shard {sh} complete: rows in {}",
            ndp_sim::shard::shard_path(Path::new(&out), sh).display()
        );
        return Ok(None);
    }
    std::fs::read_to_string(&out)
        .map(Some)
        .map_err(|e| CliError::semantic(format!("error: cannot read back {out}: {e}")))
}

fn main() {
    let args = Args::from_env();
    exit_on_err(args.reject_unknown(
        &[
            "--footprint-mb",
            "--ops",
            "--workloads",
            "--set",
            "--jobs",
            "--out",
            "--shard",
            "--from",
            "--emit-spec",
            "--tolerance",
            "--tolerance-scale",
        ],
        &["--quick", "--resume", "--check", "--targets", "--help"],
    ));
    if args.has("--help") {
        eprintln!("{USAGE}");
        eprint!("{}", ndp_bench::cli::knob_help_table());
        return;
    }
    exit_on_err(install_jobs(&args));

    if args.has("--targets") {
        println!("embedded paper targets (figures 4/5/6/7):");
        print_table(
            &[
                "key",
                "figure",
                "description",
                "target",
                "unit",
                "tolerance",
            ],
            &calibration::target_rows(),
        );
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

    let cfg = exit_on_err(base_config(&args));
    let workloads = match args.get("--workloads") {
        Some(list) => exit_on_err(parse_workload_list("--workloads", &list)),
        None => vec![WorkloadId::Rnd, WorkloadId::Bfs, WorkloadId::Xs],
    };
    let spec = calibration_spec(cfg, &workloads);

    if let Some(path) = args.get("--emit-spec") {
        let json = spec_json(&spec);
        exit_on_err(
            std::fs::write(&path, &json)
                .map_err(|e| CliError::semantic(format!("error: cannot write {path}: {e}"))),
        );
        println!("wrote {path} ({} grid points)", spec.grid_len());
        println!(
            "run it supervised:  ndpsim sweep --spec {path} --workers N --out calibration.jsonl"
        );
        println!("then check:         calibrate --check --from calibration.jsonl");
        return;
    }

    if args.get("--from").is_none() {
        println!(
            "calibration grid: {} points ({} workloads x {} system/core pairs x {} mechanisms)",
            spec.grid_len(),
            workloads.len(),
            SYSTEM_CORES.len(),
            mechanism_names().len()
        );
    }
    let start = std::time::Instant::now();
    let Some(text) = exit_on_err(obtain_rows_text(&args, &spec)) else {
        return; // shard stripe written; nothing to evaluate
    };
    let wall_s = start.elapsed().as_secs_f64();

    let rows = exit_on_err(
        calibration::parse_rows(&text).map_err(|e| CliError::semantic(format!("error: {e}"))),
    );
    println!("\nper-group shape metrics ({} rows):", rows.len());
    print_table(&calibration::GROUP_HEADERS, &calibration::group_rows(&rows));

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

    if args.has("--check") && !calibration::all_pass(&findings) {
        eprintln!(
            "error: calibration check failed: {} target(s) out of band",
            findings.len() - hit
        );
        std::process::exit(1);
    }
}
