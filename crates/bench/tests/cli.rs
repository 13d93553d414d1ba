//! CLI regression tests: `ndpsim` must reject unrecognised values with an
//! error listing the valid names instead of silently substituting
//! defaults, and must honour the multiprogramming flags.

use std::process::Command;

fn ndpsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ndpsim"))
}

/// A fast but real simulation: 1 GB footprint would premap a while, so
/// shrink everything.
const FAST: &[&str] = &["--footprint-mb", "256", "--ops", "2000", "--warmup", "500"];

#[test]
fn rejects_unknown_workload_listing_valid_names() {
    let out = ndpsim().args(["--workload", "bsf"]).output().unwrap();
    assert!(!out.status.success(), "bad workload must fail");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bsf"), "echoes the bad value: {stderr}");
    assert!(stderr.contains("BFS") && stderr.contains("RND") && stderr.contains("DLRM"));
}

#[test]
fn rejects_unknown_subcommand_listing_valid_ones() {
    let out = ndpsim().args(["bench", "--runs", "1"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("\"bench\""),
        "echoes the bad word: {stderr}"
    );
    assert!(
        stderr.contains("sweep") && stderr.contains("serve"),
        "{stderr}"
    );
}

#[test]
fn rejects_unknown_mechanism_listing_valid_names() {
    let out = ndpsim().args(["--mechanism", "foo"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("ndpage") && stderr.contains("radix") && stderr.contains("hugepage"));
}

#[test]
fn rejects_unknown_system() {
    let out = ndpsim().args(["--system", "foo"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("ndp") && stderr.contains("cpu"));
}

#[test]
fn rejects_malformed_numeric_flags() {
    for (flag, value) in [("--procs", "two"), ("--quantum", "5k"), ("--cores", "x")] {
        let out = ndpsim()
            .args(["--workload", "RND", flag, value])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag} {value} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(flag) && stderr.contains(value),
            "names flag and value: {stderr}"
        );
    }
}

#[test]
fn rejects_out_of_range_numeric_flags() {
    // 2^32 + 1 would silently wrap to 1 core under an `as u32` cast.
    let out = ndpsim()
        .args(["--workload", "RND", "--cores", "4294967297"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--cores") && stderr.contains("exceeds"),
        "overflow is an error, not a wrap: {stderr}"
    );
}

#[test]
fn rejects_malformed_ndp_threads() {
    let out = ndpsim()
        .env("NDP_THREADS", "abc")
        .args(["--workload", "RND"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("NDP_THREADS") && stderr.contains("abc"),
        "names the variable and the bad value: {stderr}"
    );
}

#[test]
fn accepts_valid_run() {
    let out = ndpsim()
        .args(["--workload", "RND", "--mechanism", "radix"])
        .args(FAST)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("RND") && stdout.contains("translation"));
    assert!(!stdout.contains("sched:"), "no sched line at 1 proc/core");
}

#[test]
fn window_flags_reach_the_report() {
    let out = ndpsim()
        .args(["--workload", "RND", "--mechanism", "ndpage"])
        .args(["--window", "8", "--mshrs", "8", "--walkers", "2"])
        .args(FAST)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("mlp: window 8"),
        "mlp line present: {stdout}"
    );
    assert!(stdout.contains("in flight"));
}

#[test]
fn blocking_run_prints_no_mlp_line() {
    let out = ndpsim()
        .args(["--workload", "RND", "--mechanism", "ndpage"])
        .args(FAST)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("mlp:"),
        "no mlp line at window 1: {stdout}"
    );
}

#[test]
fn rejects_out_of_range_window() {
    let out = ndpsim()
        .args(["--workload", "RND", "--window", "0"])
        .args(FAST)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "validation must reject it");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("mlp_window"), "names the knob: {stderr}");
    let out = ndpsim()
        .args(["--workload", "RND", "--window", "8", "--walkers", "99"])
        .args(FAST)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("walkers_per_core"));
}

#[test]
fn shared_llc_flags_round_trip_into_the_report() {
    let out = ndpsim()
        .args(["--workload", "RND", "--mechanism", "radix"])
        .args(["--l3-kb", "1024", "--l3-ways", "8", "--l3-banks", "4"])
        .args(["--l3-policy", "exclusive", "--vault-kb", "128"])
        .args(FAST)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("l3: 1x 1024 KB 8w/4b exclusive"),
        "accepted values round-trip into the report: {stdout}"
    );
    assert!(
        stdout.contains("vault: 4x 128 KB"),
        "vault block present: {stdout}"
    );
}

#[test]
fn rejects_unknown_l3_policy_listing_valid_names() {
    let out = ndpsim()
        .args([
            "--workload",
            "RND",
            "--l3-kb",
            "1024",
            "--l3-policy",
            "bogus",
        ])
        .args(FAST)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bogus"), "echoes the bad value: {stderr}");
    assert!(
        stderr.contains("inclusive") && stderr.contains("exclusive"),
        "lists valid policies: {stderr}"
    );
}

#[test]
fn rejects_invalid_l3_geometry() {
    let out = ndpsim()
        .args(["--workload", "RND", "--l3-kb", "1024", "--l3-ways", "32"])
        .args(FAST)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "validation must reject it");
    assert!(String::from_utf8_lossy(&out.stderr).contains("l3_ways"));
}

#[test]
fn l3_knobs_are_inert_without_l3_kb() {
    // Geometry/policy knobs without --l3-kb run the disabled engine: no
    // shared-LLC lines in the report, same output as no knobs at all.
    let with_knobs = ndpsim()
        .args(["--workload", "RND", "--mechanism", "radix"])
        .args([
            "--l3-ways",
            "8",
            "--l3-banks",
            "2",
            "--l3-policy",
            "exclusive",
        ])
        .args(FAST)
        .output()
        .unwrap();
    assert!(
        with_knobs.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&with_knobs.stderr)
    );
    let knobs_stdout = String::from_utf8_lossy(&with_knobs.stdout);
    assert!(!knobs_stdout.contains("l3:"), "no l3 line: {knobs_stdout}");
    assert!(!knobs_stdout.contains("vault:"));
    let plain = ndpsim()
        .args(["--workload", "RND", "--mechanism", "radix"])
        .args(FAST)
        .output()
        .unwrap();
    assert_eq!(
        knobs_stdout,
        String::from_utf8_lossy(&plain.stdout),
        "inert knobs must not change a single reported counter"
    );
}

#[test]
fn multiprogramming_flags_reach_the_report() {
    let out = ndpsim()
        .args(["--workload", "RND", "--mechanism", "ndpage"])
        .args(["--procs", "2", "--quantum", "500", "--no-asid"])
        .args(FAST)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("sched: 2 procs/core"),
        "sched line present: {stdout}"
    );
    assert!(stdout.contains("switches"));
}
