//! `ndpsim sweep` subcommand tests and the flags ⇄ spec round-trip: any
//! configuration expressible via `ndpsim` flags must be reproducible
//! through the registry (`--set` / spec files), and the subcommand must
//! reject unknown knobs with the full table.

use ndp_bench::cli::{apply_sets, config_from_args, Args};
use ndp_sim::spec::{apply_knob, config_fingerprint, config_knobs, KNOBS};
use ndp_sim::SimConfig;
use std::path::PathBuf;
use std::process::Command;

fn ndpsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ndpsim"))
}

fn args(list: &[&str]) -> Args {
    Args::new(list.iter().map(|s| (*s).to_string()).collect())
}

fn tmp(tag: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ndp_sweep_cli_{}_{tag}.{ext}", std::process::id()))
}

const TINY_SPEC: &str = r#"{
  "name": "tiny",
  "base": {"workload": "RND", "warmup_ops": 200, "measure_ops": 500,
           "footprint": 268435456},
  "axes": [{"knob": "mechanism", "values": ["radix", "ndpage"]}]
}"#;

// ---------------------------------------------------------------------------
// Round-trip: flags -> config -> knobs -> config.
// ---------------------------------------------------------------------------

/// Every flag-expressible configuration round-trips through the knob
/// registry: serializing the flags-built config as knob assignments and
/// replaying them onto the spec base reproduces it exactly. This is the
/// acceptance property behind `ndpsim sweep --spec`/`--set` being able
/// to reproduce any flag configuration.
#[test]
fn flag_configs_round_trip_through_the_registry() {
    let flag_sets: [&[&str]; 5] = [
        &[],
        &["--workload", "RND", "--mechanism", "radix", "--cores", "4"],
        &[
            "--workload",
            "XS",
            "--mechanism",
            "huge-page",
            "--system",
            "cpu",
            "--footprint-mb",
            "512",
            "--ops",
            "5000",
            "--warmup",
            "100",
            "--seed",
            "7",
            "--pwc-entries",
            "128",
            "--tlb-l2",
            "768",
            "--no-fracture",
        ],
        &[
            "--procs",
            "2",
            "--quantum",
            "500",
            "--switch-cost",
            "100",
            "--no-asid",
            "--window",
            "8",
            "--walkers",
            "2",
        ],
        &[
            "--l3-kb",
            "2048",
            "--l3-ways",
            "8",
            "--l3-banks",
            "4",
            "--l3-policy",
            "exclusive",
            "--vault-kb",
            "128",
        ],
    ];
    for flags in flag_sets {
        let via_flags = config_from_args(&args(flags)).unwrap();
        let mut via_registry = SimConfig::cli_default();
        for (name, value) in config_knobs(&via_flags) {
            apply_knob(&mut via_registry, name, &value).unwrap();
        }
        assert_eq!(
            config_fingerprint(&via_flags),
            config_fingerprint(&via_registry),
            "flags {flags:?} must round-trip"
        );
    }
}

/// The same round-trip expressed the way a user would: `--set` overrides
/// on the spec base reproduce the flags-built config.
#[test]
fn set_overrides_reproduce_flag_configs() {
    let via_flags = config_from_args(&args(&[
        "--workload",
        "BFS",
        "--mechanism",
        "ndpage",
        "--cores",
        "2",
        "--window",
        "8",
        "--l3-kb",
        "1024",
    ]))
    .unwrap();
    let mut sets = vec!["ignored-bin".to_string()];
    for (name, value) in config_knobs(&via_flags) {
        sets.push("--set".to_string());
        sets.push(format!("{name}={value}"));
    }
    let mut via_sets = SimConfig::cli_default();
    apply_sets(&mut via_sets, &Args::new(sets[1..].to_vec())).unwrap();
    assert_eq!(
        config_fingerprint(&via_flags),
        config_fingerprint(&via_sets)
    );
    assert_eq!(via_sets.mshrs_per_core, 8, "window-implied MSHRs carried");
}

/// Every registered flag is parsed by `config_from_args` — setting it
/// must change the config away from the default (no dead table rows).
#[test]
fn every_registered_flag_reaches_the_config() {
    let default_fp = config_fingerprint(&config_from_args(&args(&[])).unwrap());
    let sample: &[(&str, &str)] = &[
        ("--system", "cpu"),
        ("--cores", "3"),
        ("--mechanism", "ech"),
        ("--workload", "GEN"),
        ("--warmup", "123"),
        ("--ops", "77777"),
        ("--footprint-mb", "300"),
        ("--seed", "99"),
        ("--pwc-entries", "32"),
        ("--tlb-l2", "768"),
        ("--procs", "2"),
        ("--quantum", "123"),
        ("--switch-cost", "55"),
        ("--window", "4"),
        ("--mshrs", "2"),
        ("--walkers", "2"),
        ("--l3-kb", "1024"),
        ("--l3-ways", "8"),
        ("--l3-banks", "2"),
        ("--l3-policy", "exclusive"),
        ("--vault-kb", "64"),
    ];
    let flagged: Vec<&str> = KNOBS.iter().filter_map(|k| k.flag).collect();
    assert_eq!(
        sample.len(),
        flagged.len(),
        "sample list must cover every registered flag: {flagged:?}"
    );
    for (flag, value) in sample {
        assert!(flagged.contains(flag), "{flag} not in the registry");
        let cfg = config_from_args(&args(&[flag, value]))
            .unwrap_or_else(|e| panic!("{flag} {value}: {e}"));
        assert_ne!(
            config_fingerprint(&cfg),
            default_fp,
            "{flag} must reach the config"
        );
    }
}

// ---------------------------------------------------------------------------
// The sweep subcommand (subprocess).
// ---------------------------------------------------------------------------

#[test]
fn sweep_requires_a_spec_file() {
    let out = ndpsim().arg("sweep").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--spec"));
}

#[test]
fn sweep_rejects_resume_without_out() {
    let path = tmp("resume_no_out", "json");
    std::fs::write(&path, TINY_SPEC).unwrap();
    let out = ndpsim()
        .args(["sweep", "--spec", path.to_str().unwrap(), "--resume"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn sweep_rejects_unknown_knobs_listing_the_table() {
    let path = tmp("bad_knob", "json");
    std::fs::write(&path, r#"{"axes": [{"knob": "wndow", "values": [1, 8]}]}"#).unwrap();
    let out = ndpsim()
        .args(["sweep", "--spec", path.to_str().unwrap(), "--dry-run"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("wndow"), "echoes the bad knob: {stderr}");
    assert!(
        stderr.contains("mlp_window") && stderr.contains("l3_policy"),
        "lists valid knobs: {stderr}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn sweep_rejects_malformed_spec_json() {
    let path = tmp("bad_json", "json");
    std::fs::write(&path, "{\"base\": ").unwrap();
    let out = ndpsim()
        .args(["sweep", "--spec", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("spec"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn sweep_rejects_missing_spec_file() {
    let out = ndpsim()
        .args(["sweep", "--spec", "/nonexistent/nope.json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("nope.json"));
}

#[test]
fn sweep_dry_run_lists_the_grid_without_running() {
    let path = tmp("dry", "json");
    std::fs::write(&path, TINY_SPEC).unwrap();
    let out = ndpsim()
        .args(["sweep", "--spec", path.to_str().unwrap(), "--dry-run"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 grid points"), "{stdout}");
    assert!(stdout.contains("mechanism=radix") && stdout.contains("mechanism=ndpage"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn sweep_set_overrides_reach_the_grid() {
    let path = tmp("set", "json");
    std::fs::write(&path, TINY_SPEC).unwrap();
    let out = ndpsim()
        .args(["sweep", "--spec", path.to_str().unwrap()])
        .args(["--set", "cores=2", "--dry-run"])
        .output()
        .unwrap();
    assert!(out.status.success());
    // An unknown --set knob dies with the table.
    let bad = ndpsim()
        .args(["sweep", "--spec", path.to_str().unwrap()])
        .args(["--set", "nope=1", "--dry-run"])
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad.stderr).contains("valid knobs"));
    std::fs::remove_file(&path).ok();
}

/// Without `--out` the sweep prints each point's `RunReport::cpo` under
/// the label `cpo`; `cyc/op` names the stored-row tables' `cycles / ops`,
/// a different figure, and must not appear here.
#[test]
fn sweep_without_out_labels_cpo() {
    let path = tmp("cpo_label", "json");
    std::fs::write(&path, TINY_SPEC).unwrap();
    let out = ndpsim()
        .args(["sweep", "--spec", path.to_str().unwrap()])
        .output()
        .unwrap();
    std::fs::remove_file(&path).ok();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let points: Vec<&str> = stdout.lines().filter(|l| l.contains("cycles ")).collect();
    assert_eq!(points.len(), 2, "{stdout}");
    for line in points {
        assert!(line.contains("  cpo "), "{line}");
    }
    assert!(!stdout.contains("cyc/op"), "{stdout}");
}

#[test]
fn sweep_jsonl_is_jobs_invariant_and_resumable() {
    let spec_path = tmp("run", "json");
    std::fs::write(&spec_path, TINY_SPEC).unwrap();
    let spec = spec_path.to_str().unwrap();
    let out1 = tmp("run_j1", "jsonl");
    let out2 = tmp("run_j2", "jsonl");

    let run1 = ndpsim()
        .args([
            "sweep",
            "--spec",
            spec,
            "--out",
            out1.to_str().unwrap(),
            "--jobs",
            "1",
        ])
        .output()
        .unwrap();
    assert!(
        run1.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&run1.stderr)
    );
    let run2 = ndpsim()
        .args([
            "sweep",
            "--spec",
            spec,
            "--out",
            out2.to_str().unwrap(),
            "--jobs",
            "2",
        ])
        .output()
        .unwrap();
    assert!(run2.status.success());
    let bytes1 = std::fs::read(&out1).unwrap();
    let bytes2 = std::fs::read(&out2).unwrap();
    assert_eq!(bytes1, bytes2, "worker count must not change a byte");

    // Interrupt after one row, resume, and expect identical bytes.
    let text = String::from_utf8(bytes1.clone()).unwrap();
    let first_line: String = text.lines().take(1).map(|l| format!("{l}\n")).collect();
    std::fs::write(&out1, first_line).unwrap();
    let resumed = ndpsim()
        .args([
            "sweep",
            "--spec",
            spec,
            "--out",
            out1.to_str().unwrap(),
            "--resume",
        ])
        .output()
        .unwrap();
    assert!(resumed.status.success());
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    assert!(stdout.contains("1 executed, 1 reused"), "{stdout}");
    assert_eq!(std::fs::read(&out1).unwrap(), bytes1);

    std::fs::remove_file(&spec_path).ok();
    std::fs::remove_file(&out1).ok();
    std::fs::remove_file(&out2).ok();
}

#[test]
fn sweep_rejects_a_knob_on_two_axes() {
    let path = tmp("dup_axis", "json");
    std::fs::write(
        &path,
        r#"{
          "name": "dup",
          "base": {"workload": "RND"},
          "axes": [{"knob": "seed", "values": [1, 2]},
                   {"knob": "mechanism", "values": ["radix"]},
                   {"knob": "seed", "values": [3]}]
        }"#,
    )
    .unwrap();
    let out = ndpsim()
        .args(["sweep", "--spec", path.to_str().unwrap(), "--dry-run"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"seed\""), "names the knob: {stderr}");
    assert!(
        stderr.contains("axis 1") && stderr.contains("axis 3"),
        "names both axes: {stderr}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn sweep_rejects_an_axis_with_zero_values() {
    let path = tmp("empty_axis", "json");
    std::fs::write(&path, r#"{"axes": [{"knob": "mechanism", "values": []}]}"#).unwrap();
    let out = ndpsim()
        .args(["sweep", "--spec", path.to_str().unwrap(), "--dry-run"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("mechanism") && stderr.contains("values"),
        "names the empty axis: {stderr}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn sweep_rejects_malformed_shard_and_worker_flags() {
    let path = tmp("shardflags", "json");
    std::fs::write(&path, TINY_SPEC).unwrap();
    let spec = path.to_str().unwrap();
    for shard in ["2", "a/2", "2/2", "0/0"] {
        let out = ndpsim()
            .args(["sweep", "--spec", spec, "--out", "/tmp/x.jsonl"])
            .args(["--shard", shard])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "--shard {shard}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("--shard"));
    }
    // --shard / --workers need --out, and exclude each other.
    let out = ndpsim()
        .args(["sweep", "--spec", spec, "--shard", "0/2"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out"));
    let out = ndpsim()
        .args(["sweep", "--spec", spec, "--out", "/tmp/x.jsonl"])
        .args(["--shard", "0/2", "--workers", "2"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("mutually exclusive"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn sweep_rejects_a_malformed_fault_plan_up_front() {
    let path = tmp("badfault", "json");
    std::fs::write(&path, TINY_SPEC).unwrap();
    let out = ndpsim()
        .env("NDP_FAULT", "explode@oops")
        .args(["sweep", "--spec", path.to_str().unwrap()])
        .args(["--out", "/tmp/x.jsonl"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("NDP_FAULT"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn run_path_rejects_unknown_flags() {
    let out = ndpsim()
        .args(["--wndow", "8", "--workload", "RND"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--wndow"), "{stderr}");
    assert!(
        stderr.contains("--window"),
        "suggests the real flags: {stderr}"
    );
}

#[test]
fn help_lists_every_knob() {
    let out = ndpsim().arg("--help").output().unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    for k in KNOBS {
        assert!(stderr.contains(k.name), "help missing {}", k.name);
    }
    let out = ndpsim().args(["sweep", "--help"]).output().unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("axes") && stderr.contains("mlp_window"));
}

// ---------------------------------------------------------------------------
// figures: the shared flag validation applies there too.
// ---------------------------------------------------------------------------

fn figures() -> Command {
    Command::new(env!("CARGO_BIN_EXE_figures"))
}

#[test]
fn figures_rejects_typod_flags() {
    // --quik must not silently fall back to the (hours-long) full scale.
    let out = figures().args(["--quik", "table1"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--quik"), "{stderr}");
    assert!(stderr.contains("--quick"), "lists valid flags: {stderr}");
}

#[test]
fn figures_rejects_unknown_figure_names() {
    let out = figures().args(["--quick", "fig99"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("fig99") && stderr.contains("fig12"),
        "{stderr}"
    );
}

#[test]
fn figures_static_tables_stay_fast_and_tagged() {
    // table1/table2 are simulation-free: safe to run in a test.
    let out = figures().args(["--quick", "table2"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Table II"), "{stdout}");
}

// ---------------------------------------------------------------------------
// Filtered specs at the CLI, and figures --from-jsonl.
// ---------------------------------------------------------------------------

fn example_spec(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/specs")
        .join(name)
}

/// The exact JSONL bytes of the CI spec's rows. simbench and
/// `calibrate --from` parse these rows, so the row writer must not
/// move a byte (field order, number formatting, escaping).
#[test]
fn ci_quick_rows_match_the_golden_bytes() {
    let out_path = tmp("ci_quick_golden", "jsonl");
    std::fs::remove_file(&out_path).ok();
    let out = ndpsim()
        .args([
            "sweep",
            "--spec",
            example_spec("ci_quick.json").to_str().unwrap(),
        ])
        .args(["--out", out_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = std::fs::read_to_string(&out_path).unwrap();
    std::fs::remove_file(&out_path).ok();
    assert_eq!(got, include_str!("golden/ci_quick.jsonl"));
}

/// The shipped `filtered.json` example: `--dry-run` shows the pruned,
/// compactly re-indexed grid, and the supervised path merges it
/// byte-identically to a serial run — filters change *which* points
/// exist, never how they stream, shard or merge.
#[test]
fn filtered_example_spec_is_pruned_and_workers_invariant() {
    let spec = example_spec("filtered.json");
    let spec = spec.to_str().unwrap();

    let out = ndpsim()
        .args(["sweep", "--spec", spec, "--dry-run"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // 3x2 cross product, two clauses keep pwc<=64 x ndpage = 2 points.
    assert!(stdout.contains("2 grid points"), "{stdout}");
    assert!(
        stdout.contains("[  0]") && stdout.contains("[  1]"),
        "{stdout}"
    );

    let serial = tmp("filtered_serial", "jsonl");
    let merged = tmp("filtered_workers", "jsonl");
    for p in [&serial, &merged] {
        std::fs::remove_file(p).ok();
    }
    let out = ndpsim()
        .args(["sweep", "--spec", spec, "--jobs", "1"])
        .args(["--out", serial.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = ndpsim()
        .env_remove("NDP_FAULT")
        .args(["sweep", "--spec", spec, "--workers", "2"])
        .args(["--out", merged.to_str().unwrap(), "--backoff-ms", "20"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(
        std::fs::read_to_string(&merged).unwrap(),
        std::fs::read_to_string(&serial).unwrap(),
        "supervised merge of a filtered grid must match serial bytes"
    );
    for p in [&serial, &merged] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn sweep_rejects_bad_filter_clauses_with_usage_errors() {
    // Unknown knob in a filter clause: registry list, exit 2.
    let path = tmp("bad_filter", "json");
    std::fs::write(
        &path,
        r#"{"axes": [{"knob": "cores", "values": [1, 2]}],
            "filter": ["bogus_knob = 1"]}"#,
    )
    .unwrap();
    let out = ndpsim()
        .args(["sweep", "--spec", path.to_str().unwrap(), "--dry-run"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("bogus_knob") && stderr.contains("pwc_entries"),
        "filter errors list the registry: {stderr}"
    );

    // A filter that rejects the whole grid is an error, not a no-op run.
    std::fs::write(
        &path,
        r#"{"axes": [{"knob": "cores", "values": [1, 2]}],
            "filter": ["cores > 2"]}"#,
    )
    .unwrap();
    let out = ndpsim()
        .args(["sweep", "--spec", path.to_str().unwrap(), "--dry-run"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("rejects every grid point"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(&path).ok();
}

/// `figures --from-jsonl` renders stored rows through exactly the code
/// the simulated path uses: its stdout must equal the in-process
/// `run_sweep` -> `to_jsonl` -> `jsonl_tables` bytes for the shipped CI
/// spec, and the stored file itself must match the in-process rows.
#[test]
fn figures_from_jsonl_matches_the_simulated_path_byte_for_byte() {
    let spec_path = example_spec("ci_quick.json");
    let rows_path = tmp("figures_rows", "jsonl");
    std::fs::remove_file(&rows_path).ok();

    let out = ndpsim()
        .args(["sweep", "--spec", spec_path.to_str().unwrap()])
        .args(["--out", rows_path.to_str().unwrap(), "--jobs", "1"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stored = std::fs::read_to_string(&rows_path).unwrap();

    // Simulated path, in-process: same spec, same rows, same bytes.
    let spec_text = std::fs::read_to_string(&spec_path).unwrap();
    let spec = ndp_sim::spec::SweepSpec::from_json(&spec_text).unwrap();
    let simulated = ndp_sim::spec::run_sweep(&spec).unwrap();
    assert_eq!(simulated.to_jsonl(), stored, "CLI rows == in-process rows");
    let expected_tables = ndp_bench::calibration::jsonl_tables(&stored).unwrap();

    let out = figures()
        .args(["--from-jsonl", rows_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let want = format!(
        "\n=== Stored rows: {} ===\n\n{expected_tables}",
        rows_path.to_str().unwrap()
    );
    assert_eq!(stdout, want, "stored-row tables == simulated-path tables");
    std::fs::remove_file(&rows_path).ok();

    // Garbage input is a structured error, not a panic or empty table.
    let bad = tmp("figures_bad", "jsonl");
    std::fs::write(&bad, "not json at all\n").unwrap();
    let out = figures()
        .args(["--from-jsonl", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_file(&bad).ok();
    let out = figures()
        .args(["--from-jsonl", "/nonexistent/x.jsonl"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}
