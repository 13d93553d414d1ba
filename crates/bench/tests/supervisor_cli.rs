//! Integration tests for the supervised multi-worker sweep executor:
//! `ndpsim sweep --workers N` must merge byte-identically to a serial
//! run, recover from aborted / hung / torn-write workers via respawn,
//! and degrade gracefully (keep completed rows, report missing grid
//! indices) once retries are exhausted.
//!
//! Fault injection uses the `NDP_FAULT` knob (`abort|hang|torn@INDEX`,
//! optional `:once=MARKER` to make the fault one-shot across respawns).

use ndp_sim::spec::{parse_json, Json};
use std::path::PathBuf;
use std::process::Command;

fn ndpsim() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ndpsim"));
    // Never inherit a fault plan from the ambient environment; tests
    // that want one set it explicitly.
    cmd.env_remove("NDP_FAULT");
    cmd
}

fn tmp(tag: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ndp_supervisor_{}_{tag}.{ext}", std::process::id()))
}

/// 2x2 grid (pwc_entries x mechanism), sized to finish in well under a
/// second per point. Its name ([`QUAD_NAME`]) holds a tab, a newline and
/// quotes, which the supervisor's JSON summary line must escape.
const QUAD_SPEC: &str = r#"{
  "name": "quad\tline\nbreak \"q\"",
  "base": {"workload": "RND", "warmup_ops": 100, "measure_ops": 300,
           "footprint": 134217728},
  "axes": [{"knob": "pwc_entries", "values": [16, 64]},
           {"knob": "mechanism", "values": ["radix", "ndpage"]}]
}"#;

/// The name [`QUAD_SPEC`] declares, unescaped.
const QUAD_NAME: &str = "quad\tline\nbreak \"q\"";

struct Fixture {
    spec: PathBuf,
    out: PathBuf,
    reference: PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let spec = tmp(tag, "json");
        std::fs::write(&spec, QUAD_SPEC).unwrap();
        let fx = Fixture {
            spec,
            out: tmp(&format!("{tag}_out"), "jsonl"),
            reference: tmp(&format!("{tag}_ref"), "jsonl"),
        };
        fx.clean_outputs();
        fx
    }

    fn clean_outputs(&self) {
        for p in [&self.out, &self.reference] {
            std::fs::remove_file(p).ok();
            std::fs::remove_file(p.with_extension("jsonl.tmp")).ok();
        }
        for sh in ndp_sim::shard::existing_shard_files(&self.out) {
            std::fs::remove_file(sh).ok();
        }
    }

    /// Serial `--jobs 1` reference bytes (no fault plan).
    fn serial_reference(&self) -> String {
        let out = ndpsim()
            .args(["sweep", "--spec", self.spec.to_str().unwrap()])
            .args(["--out", self.reference.to_str().unwrap(), "--jobs", "1"])
            .output()
            .unwrap();
        assert!(out.status.success(), "serial reference run failed");
        std::fs::read_to_string(&self.reference).unwrap()
    }

    /// Base supervised invocation: `--workers 2` with a short backoff.
    fn supervised(&self) -> Command {
        let mut cmd = ndpsim();
        cmd.args(["sweep", "--spec", self.spec.to_str().unwrap()])
            .args(["--out", self.out.to_str().unwrap()])
            .args(["--workers", "2", "--backoff-ms", "20"]);
        cmd
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        self.clean_outputs();
        std::fs::remove_file(&self.spec).ok();
    }
}

#[test]
fn supervised_run_matches_serial_bytes() {
    let fx = Fixture::new("baseline");
    let reference = fx.serial_reference();

    let out = fx.supervised().output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"outcome\":\"full\""), "stdout: {stdout}");
    // The summary is one JSON line whatever the spec's name holds.
    let summary = stdout.lines().last().expect("a summary line");
    let summary = parse_json(summary).unwrap_or_else(|e| panic!("{e}: {summary}"));
    assert_eq!(summary.get("sweep"), Some(&Json::Str(QUAD_NAME.into())));
    assert_eq!(std::fs::read_to_string(&fx.out).unwrap(), reference);
    // Shard intermediates are cleaned up after a full merge.
    assert!(ndp_sim::shard::existing_shard_files(&fx.out).is_empty());
}

#[test]
fn supervisor_recovers_from_an_injected_abort() {
    let fx = Fixture::new("abort");
    let reference = fx.serial_reference();
    let marker = tmp("abort_marker", "flag");
    std::fs::remove_file(&marker).ok();

    let out = fx
        .supervised()
        .env(
            "NDP_FAULT",
            format!("abort@2:once={}", marker.to_str().unwrap()),
        )
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.contains("retrying"), "stderr: {stderr}");
    assert_eq!(std::fs::read_to_string(&fx.out).unwrap(), reference);
    std::fs::remove_file(&marker).ok();
}

#[test]
fn supervisor_recovers_from_a_hung_worker() {
    let fx = Fixture::new("hang");
    let reference = fx.serial_reference();
    let marker = tmp("hang_marker", "flag");
    std::fs::remove_file(&marker).ok();

    let out = fx
        .supervised()
        .env(
            "NDP_FAULT",
            format!("hang@0:once={}", marker.to_str().unwrap()),
        )
        .args(["--row-timeout", "1.5"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.contains("stalled"), "stderr: {stderr}");
    assert_eq!(std::fs::read_to_string(&fx.out).unwrap(), reference);
    std::fs::remove_file(&marker).ok();
}

#[test]
fn supervisor_recovers_from_a_torn_write() {
    let fx = Fixture::new("torn");
    let reference = fx.serial_reference();
    let marker = tmp("torn_marker", "flag");
    std::fs::remove_file(&marker).ok();

    let out = fx
        .supervised()
        .env(
            "NDP_FAULT",
            format!("torn@1:once={}", marker.to_str().unwrap()),
        )
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    // The respawned worker must detect the half-written row and redo it.
    assert!(stderr.contains("trailing line"), "stderr: {stderr}");
    assert_eq!(std::fs::read_to_string(&fx.out).unwrap(), reference);
    std::fs::remove_file(&marker).ok();
}

#[test]
fn retries_exhausted_keeps_completed_rows_and_reports_missing() {
    let fx = Fixture::new("exhaust");
    let reference = fx.serial_reference();

    // Persistent abort at grid index 2 (no `once=` marker): the owning
    // shard fails on every attempt.
    let out = fx
        .supervised()
        .env("NDP_FAULT", "abort@2")
        .args(["--max-retries", "1"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "stderr: {stderr}");
    assert!(stderr.contains("retries exhausted"), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"missing\":[2]"), "stdout: {stdout}");
    assert!(
        stdout.contains("\"outcome\":\"partial\""),
        "stdout: {stdout}"
    );

    // The three completed rows survive, in grid order, byte-identical
    // to the corresponding serial lines.
    let partial = std::fs::read_to_string(&fx.out).unwrap();
    let kept: Vec<&str> = partial.lines().collect();
    let want: Vec<&str> = reference
        .lines()
        .enumerate()
        .filter(|(i, _)| *i != 2)
        .map(|(_, l)| l)
        .collect();
    assert_eq!(kept, want);

    // A fault-free resume finishes the grid and matches serial bytes.
    let out = fx.supervised().arg("--resume").output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(std::fs::read_to_string(&fx.out).unwrap(), reference);
}

/// Exit-code audit: the documented 0/3/4 ladder's bottom rung. With a
/// single worker owning the whole grid and a *persistent* abort at
/// index 0, no row ever lands — the outcome is `failed` with exit 4,
/// distinct from `partial`'s exit 3 above.
#[test]
fn zero_merged_rows_is_failed_exit_4() {
    let fx = Fixture::new("failed");

    let out = ndpsim()
        .args(["sweep", "--spec", fx.spec.to_str().unwrap()])
        .args(["--out", fx.out.to_str().unwrap()])
        .args(["--workers", "1", "--backoff-ms", "20", "--max-retries", "1"])
        .env("NDP_FAULT", "abort@0")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(4), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"outcome\":\"failed\""),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("\"merged\":0"), "stdout: {stdout}");
}
