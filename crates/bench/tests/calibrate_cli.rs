//! `calibrate` harness tests: flag validation, the committed calibration
//! specs (they must expand to [`calibration::grid`]), resumable JSONL
//! byte-identity through `ndpsim sweep`, the `--check --from`
//! exit-code contract, and `calibrate --out` writing the same bytes as
//! `ndpsim sweep` on the same spec.

use ndp_bench::calibration;
use ndp_sim::spec::{apply_knob, config_fingerprint, SweepSpec};
use ndp_sim::SimConfig;
use std::path::PathBuf;
use std::process::Command;

fn calibrate() -> Command {
    Command::new(env!("CARGO_BIN_EXE_calibrate"))
}

fn ndpsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ndpsim"))
}

fn tmp(tag: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ndp_calibrate_cli_{}_{tag}.{ext}",
        std::process::id()
    ))
}

/// A committed calibration spec under `examples/specs/`.
fn spec_path(file: &str) -> String {
    format!("{}/../../examples/specs/{file}", env!("CARGO_MANIFEST_DIR"))
}

/// `--set` overrides that shrink the quick spec to a grid tiny enough
/// for test builds (60 points of a few hundred ops each) while still
/// covering every (system, cores, mechanism) group the embedded targets
/// reference.
const TINY: &[&str] = &[
    "--set",
    "footprint=8388608",
    "--set",
    "measure_ops=300",
    "--set",
    "warmup_ops=100",
];

// ---------------------------------------------------------------------------
// Flag validation (all exit 2, no simulation).
// ---------------------------------------------------------------------------

#[test]
fn rejects_zero_footprint_by_knob_name() {
    // A zero footprint must not simulate an empty address space.
    let out = ndpsim()
        .args(["sweep", "--spec", &spec_path("calibration_quick.json")])
        .args(["--set", "footprint=0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("footprint"), "names the knob: {stderr}");
}

#[test]
fn rejects_overflowing_footprint() {
    // 2^44 MiB << 20 would wrap; the checked multiply must reject it.
    let out = ndpsim()
        .args(["--footprint-mb", "17592186044416"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("too large"));
}

#[test]
fn rejects_unknown_flags_and_workloads() {
    let out = calibrate().args(["--fotprint-mb", "64"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--fotprint-mb") && stderr.contains("--tolerance-scale"),
        "{stderr}"
    );

    // No grid-shaping flags: scales other than quick and full run
    // through `ndpsim sweep --spec`, and calibrate must not accept them.
    for (flag, value) in [
        ("--shard", "0/2"),
        ("--emit-spec", "cal.json"),
        ("--footprint-mb", "8"),
        ("--ops", "300"),
        ("--workloads", "RND"),
        ("--set", "footprint=8388608"),
    ] {
        let out = calibrate().args([flag, value]).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unrecognized flag {flag:?}")),
            "{stderr}"
        );
    }

    let out = ndpsim()
        .args(["sweep", "--spec", &spec_path("calibration_quick.json")])
        .args(["--set", "workload=NOPE"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("NOPE"));
}

#[test]
fn rejects_malformed_tolerance_flags() {
    let out = calibrate()
        .args(["--tolerance", "ndp_radix_ptw_4c"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("KEY=BAND"));

    let out = calibrate()
        .args(["--tolerance", "ndp_radix_ptw_4c=abc"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("not a number"));

    let out = calibrate()
        .args(["--tolerance-scale", "wide"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--tolerance-scale"));
}

#[test]
fn rejects_orphan_resume_and_run_flags_with_from() {
    let out = calibrate().args(["--resume"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out"));

    // `--from` reads finished rows: a run flag beside it would be
    // silently dropped, so each one is a usage error that names it.
    for run_flag in [
        &["--quick"][..],
        &["--out", "/tmp/x.jsonl"],
        &["--resume"],
        &["--jobs", "4"],
    ] {
        let out = calibrate()
            .args(["--check", "--from", "/tmp/rows.jsonl"])
            .args(run_flag)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{run_flag:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(run_flag[0]), "{stderr}");
    }
}

#[test]
fn check_from_missing_file_is_a_semantic_error() {
    let out = calibrate()
        .args(["--check", "--from", "/nonexistent/cal.jsonl"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cal.jsonl"));
}

// ---------------------------------------------------------------------------
// Static outputs (no simulation).
// ---------------------------------------------------------------------------

#[test]
fn targets_table_lists_every_embedded_key() {
    let out = calibrate().arg("--targets").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for t in ndp_bench::calibration::TARGETS {
        assert!(stdout.contains(t.key), "missing {}", t.key);
    }
}

#[test]
fn committed_specs_expand_to_the_calibration_grid() {
    // Each file against `calibration::grid` over the scale it replaces:
    // a per-core footprint in MiB and measured ops, warmup a third of
    // them.
    for (file, footprint_mb, ops) in [
        ("calibration_quick.json", 256_u64, 6_000_u64),
        ("calibration_full.json", 2_048, 30_000),
    ] {
        let mut base = SimConfig::cli_default();
        for (knob, value) in [
            ("footprint", footprint_mb << 20),
            ("measure_ops", ops),
            ("warmup_ops", ops / 3),
        ] {
            apply_knob(&mut base, knob, &value.to_string()).expect("knob applies");
        }
        let theirs: Vec<u64> = calibration::grid(base, &["RND", "BFS", "XS"])
            .expand()
            .expect("calibration grid expands")
            .iter()
            .map(|p| config_fingerprint(&p.config))
            .collect();
        let text = std::fs::read_to_string(spec_path(file)).expect("spec file");
        let spec = SweepSpec::from_json(&text).expect("spec loads");
        assert_eq!(spec.name, "calibration", "{file}");
        let ours: Vec<u64> = spec
            .expand()
            .expect("spec expands")
            .iter()
            .map(|p| config_fingerprint(&p.config))
            .collect();
        assert_eq!(ours, theirs, "{file}");
    }

    let dry = ndpsim()
        .args(["sweep", "--spec", &spec_path("calibration_quick.json")])
        .arg("--dry-run")
        .output()
        .unwrap();
    assert!(
        dry.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&dry.stderr)
    );
    let stdout = String::from_utf8_lossy(&dry.stdout);
    assert!(stdout.contains("60 grid points"), "{stdout}");
}

// ---------------------------------------------------------------------------
// End-to-end: stream, resume, check (one tiny grid, reused across
// assertions to keep test-build runtime down).
// ---------------------------------------------------------------------------

#[test]
fn streamed_jsonl_resumes_byte_identically_and_check_gates() {
    let out_path = tmp("stream", "jsonl");
    let sweep = |extra: &[&str]| {
        ndpsim()
            .args(["sweep", "--spec", &spec_path("calibration_quick.json")])
            .args(TINY)
            .args(["--out", out_path.to_str().unwrap()])
            .args(extra)
            .output()
            .unwrap()
    };
    let run = sweep(&[]);
    assert!(
        run.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let bytes = std::fs::read(&out_path).unwrap();
    let text = String::from_utf8(bytes.clone()).unwrap();
    assert_eq!(text.lines().count(), 60, "full grid streamed");

    // Interrupt after three rows; resume must re-run exactly the missing
    // points and reproduce the file byte-for-byte.
    let head: String = text.lines().take(3).map(|l| format!("{l}\n")).collect();
    std::fs::write(&out_path, head).unwrap();
    let resumed = sweep(&["--resume"]);
    assert!(resumed.status.success());
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    assert!(stdout.contains("57 executed, 3 reused"), "{stdout}");
    assert_eq!(std::fs::read(&out_path).unwrap(), bytes);

    // --check --from on the finished stream: wide bands pass (exit 0),
    // near-zero bands fail (exit 1) — deterministically.
    let pass = calibrate()
        .args(["--check", "--from", out_path.to_str().unwrap()])
        .args(["--tolerance-scale", "1000000"])
        .output()
        .unwrap();
    assert_eq!(
        pass.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&pass.stderr)
    );
    assert!(String::from_utf8_lossy(&pass.stdout).contains("9/9 targets in band"));

    let fail = calibrate()
        .args(["--check", "--from", out_path.to_str().unwrap()])
        .args(["--tolerance-scale", "0.0000001"])
        .output()
        .unwrap();
    assert_eq!(fail.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&fail.stderr).contains("out of band"));

    // Per-target overrides reach the evaluation: an absurd band on one
    // key must flip only that key's verdict.
    let overridden = calibrate()
        .args(["--check", "--from", out_path.to_str().unwrap()])
        .args(["--tolerance-scale", "1000000"])
        .args(["--tolerance", "ndp_radix_ptw_4c=0.0000001"])
        .output()
        .unwrap();
    assert_eq!(overridden.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&overridden.stderr).contains("1 target(s) out of band"));

    let unknown = calibrate()
        .args(["--check", "--from", out_path.to_str().unwrap()])
        .args(["--tolerance", "bogus=25%"])
        .output()
        .unwrap();
    assert_eq!(unknown.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&unknown.stderr).contains("bogus"));

    std::fs::remove_file(&out_path).ok();
}

#[test]
fn calibrate_out_writes_the_bytes_ndpsim_sweep_writes() {
    let ours = tmp("calibrate_out", "jsonl");
    let theirs = tmp("sweep_out", "jsonl");
    let run = calibrate()
        .args(["--quick", "--out", ours.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let sweep = ndpsim()
        .args(["sweep", "--spec", &spec_path("calibration_quick.json")])
        .args(["--out", theirs.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        sweep.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&sweep.stderr)
    );
    let bytes = std::fs::read(&ours).unwrap();
    assert_eq!(bytes.iter().filter(|&&b| b == b'\n').count(), 60);
    assert_eq!(bytes, std::fs::read(&theirs).unwrap());
    std::fs::remove_file(&ours).ok();
    std::fs::remove_file(&theirs).ok();
}
