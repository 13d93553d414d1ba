//! Stored sweep rows, pinned byte for byte: the calibration rows
//! `ndpsim sweep` writes for a tiny calibration grid, the tables
//! `figures --from-jsonl` renders from those rows and from the CI spec's
//! rows, and the report (stdout and exit status) `calibrate --check
//! --from` prints for them. Every reader of the row format sits behind
//! one of these pins.

use std::path::PathBuf;
use std::process::Command;

/// A committed file under `tests/golden/`.
fn golden(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

fn read_golden(file: &str) -> String {
    std::fs::read_to_string(golden(file)).expect("golden file")
}

/// Replaces the run-dependent `wall` figure of `calibrate`'s summary
/// line with `*`.
fn mask_wall(stdout: &str) -> String {
    stdout
        .lines()
        .map(|line| match line.split_once(", wall ") {
            Some((head, _)) => format!("{head}, wall *s\n"),
            None => format!("{line}\n"),
        })
        .collect()
}

/// `examples/specs/calibration_quick.json` shrunk to a few hundred ops
/// per point: 60 rows that still cover every `(system, cores,
/// mechanism)` group the embedded targets reference.
#[test]
fn calibration_rows_match_the_golden_bytes() {
    let out_path = std::env::temp_dir().join(format!(
        "ndp_stored_rows_{}_calibration.jsonl",
        std::process::id()
    ));
    let spec = format!(
        "{}/../../examples/specs/calibration_quick.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let out = Command::new(env!("CARGO_BIN_EXE_ndpsim"))
        .args(["sweep", "--spec", &spec])
        .args(["--set", "footprint=8388608"])
        .args(["--set", "measure_ops=300", "--set", "warmup_ops=100"])
        .args(["--out", out_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = std::fs::read_to_string(&out_path).unwrap();
    std::fs::remove_file(&out_path).ok();
    assert_eq!(got, read_golden("calibration_tiny.jsonl"));
}

#[test]
fn figures_from_jsonl_matches_the_golden_tables() {
    for (rows, tables) in [
        ("calibration_tiny.jsonl", "calibration_tiny_tables.txt"),
        ("ci_quick.jsonl", "ci_quick_tables.txt"),
    ] {
        let path = golden(rows);
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .arg("--from-jsonl")
            .arg(&path)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{rows}");
        let want = format!(
            "\n=== Stored rows: {} ===\n\n{}",
            path.display(),
            read_golden(tables)
        );
        assert_eq!(String::from_utf8_lossy(&out.stdout), want, "{rows}");
    }
}

#[test]
fn calibrate_from_golden_rows_matches_the_golden_report() {
    let out = Command::new(env!("CARGO_BIN_EXE_calibrate"))
        .args(["--check", "--from"])
        .arg(golden("calibration_tiny.jsonl"))
        .output()
        .unwrap();
    // At this scale 8 of the 9 targets fall outside their bands.
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "error: calibration check failed: 8 target(s) out of band\n"
    );
    assert_eq!(
        mask_wall(&String::from_utf8_lossy(&out.stdout)),
        read_golden("calibration_tiny_check.txt")
    );
}
