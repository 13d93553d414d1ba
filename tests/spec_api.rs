//! Spec-API integration tests: the declarative sweep engine must expand
//! order-deterministic grids, run them bit-identically at any thread
//! count, and the JSONL driver must resume interrupted sweeps
//! byte-for-byte.

use ndp_sim::parallel::par_map_threads;
use ndp_sim::shard::ShardSpec;
use ndp_sim::spec::{
    apply_knob, config_fingerprint, config_knobs, merge_sweep_jsonl, parse_jsonl, run_sweep,
    run_sweep_jsonl, run_sweep_jsonl_opts, JsonlOptions, SweepSpec,
};
use ndp_sim::{Machine, SimConfig, SystemKind};
use ndp_workloads::WorkloadId;
use ndpage::Mechanism;
use proptest::prelude::*;
use std::path::PathBuf;

fn quick_base() -> SimConfig {
    SimConfig::quick(SystemKind::Ndp, 1, Mechanism::Radix, WorkloadId::Rnd)
        .with_ops(500, 1_500)
        .with_footprint(256 << 20)
}

/// Runtime companion to `ndp-lint`'s static registry-completeness rule:
/// the registry must carry exactly one entry per `SimConfig` field. The
/// count is pinned so the static scanner (which reads the source) and
/// the runtime registry (which reads the table) can never disagree
/// silently — adding a `SimConfig` field without a knob trips both this
/// test and `cargo run -p ndp-lint`.
#[test]
fn knob_registry_covers_every_simconfig_field_exactly_once() {
    let cfg = SimConfig::cli_default();
    let knobs = config_knobs(&cfg);
    assert_eq!(
        knobs.len(),
        27,
        "one KNOBS entry per SimConfig field — update KNOBS (and this pin) \
         together with the struct"
    );
    let mut names: Vec<&str> = knobs.iter().map(|(n, _)| *n).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), knobs.len(), "knob names must be unique");

    // The serialized list is a lossless image of the config: applying it
    // to a fresh default reproduces the fingerprint exactly.
    let mut rebuilt = SimConfig::cli_default();
    for (name, value) in &knobs {
        apply_knob(&mut rebuilt, name, value).expect("registry round-trip");
    }
    assert_eq!(config_fingerprint(&rebuilt), config_fingerprint(&cfg));
}

#[test]
fn heterogeneous_batches_are_bit_identical_across_thread_counts() {
    // Deliberately uneven per-task cost: different mechanisms, core
    // counts and op windows, so completion order scrambles under
    // parallel schedules.
    let cfgs: Vec<SimConfig> = vec![
        quick_base().with_ops(200, 3_000),
        SimConfig::quick(SystemKind::Ndp, 2, Mechanism::NdPage, WorkloadId::Bfs)
            .with_ops(100, 400)
            .with_footprint(256 << 20),
        SimConfig::quick(SystemKind::Cpu, 1, Mechanism::Ech, WorkloadId::Xs)
            .with_ops(300, 2_000)
            .with_footprint(256 << 20),
        quick_base().with_ops(50, 100),
        SimConfig::quick(SystemKind::Ndp, 1, Mechanism::HugePage, WorkloadId::Dlrm)
            .with_ops(200, 1_200)
            .with_footprint(256 << 20),
        quick_base().with_ops(400, 2_500).with_seed(9),
    ];
    let serial: Vec<u64> = par_map_threads(1, cfgs.clone(), |c| Machine::new(c).run())
        .iter()
        .map(ndp_sim::RunReport::fingerprint)
        .collect();
    for threads in [2usize, 8] {
        let parallel: Vec<u64> = par_map_threads(threads, cfgs.clone(), |c| Machine::new(c).run())
            .iter()
            .map(ndp_sim::RunReport::fingerprint)
            .collect();
        assert_eq!(parallel, serial, "threads = {threads}");
    }
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ndp_spec_api_{}_{tag}.jsonl", std::process::id()))
}

fn tiny_grid_spec() -> SweepSpec {
    SweepSpec::new(quick_base().with_ops(200, 600))
        .named("resume_test")
        .axis("seed", &[1u64, 2])
        .axis("mechanism", &["radix", "ndpage"])
}

#[test]
fn interrupted_jsonl_sweep_resumes_byte_for_byte() {
    let spec = tiny_grid_spec();
    let path = tmp_path("resume");

    let full = run_sweep_jsonl(&spec, &path, false).unwrap();
    assert_eq!((full.grid, full.executed, full.reused), (4, 4, 0));
    let reference = std::fs::read_to_string(&path).unwrap();
    assert_eq!(reference.lines().count(), 4);

    for k in [0usize, 1, 3] {
        // Interrupt: keep only the first k rows (plus half a row of
        // garbage for k > 0, like a write cut mid-line).
        let mut truncated: String = reference
            .lines()
            .take(k)
            .map(|l| format!("{l}\n"))
            .collect();
        if k > 0 {
            truncated.push_str("{\"i\":99,\"cfg\":12");
        }
        std::fs::write(&path, truncated).unwrap();

        let resumed = run_sweep_jsonl(&spec, &path, true).unwrap();
        assert_eq!(resumed.grid, 4);
        assert_eq!(resumed.reused, k, "k = {k}");
        assert_eq!(resumed.executed, 4 - k, "only the missing points run");
        assert_eq!(resumed.digest, full.digest);
        let merged = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            merged, reference,
            "resume must merge byte-for-byte (k = {k})"
        );
    }

    // Resuming a complete file executes nothing and rewrites it
    // identically.
    let noop = run_sweep_jsonl(&spec, &path, true).unwrap();
    assert_eq!((noop.executed, noop.reused), (0, 4));
    assert_eq!(std::fs::read_to_string(&path).unwrap(), reference);
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_reruns_points_the_spec_edit_moved() {
    let spec = tiny_grid_spec();
    let path = tmp_path("edited");
    run_sweep_jsonl(&spec, &path, false).unwrap();

    // The second seed axis point changes (2 -> 3): the seed-1 rows stay
    // at their grid indices and are reused; the seed-3 rows re-run.
    let edited = SweepSpec::new(quick_base().with_ops(200, 600))
        .named("resume_test")
        .axis("seed", &[1u64, 3])
        .axis("mechanism", &["radix", "ndpage"]);
    let resumed = run_sweep_jsonl(&edited, &path, true).unwrap();
    // Rows 0 and 1 (seed 1) match the old file at the same indices and
    // are reused; rows 2 and 3 (seed 3, previously 2) re-run.
    assert_eq!(resumed.reused, 2);
    assert_eq!(resumed.executed, 2);
    let fresh_path = tmp_path("edited_fresh");
    let fresh = run_sweep_jsonl(&edited, &fresh_path, false).unwrap();
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        std::fs::read_to_string(&fresh_path).unwrap(),
        "a resumed edited sweep equals an uninterrupted run of the edit"
    );
    assert_eq!(resumed.digest, fresh.digest);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&fresh_path).ok();
}

#[test]
fn jsonl_driver_matches_in_memory_engine() {
    let spec = tiny_grid_spec();
    let path = tmp_path("memory");
    let summary = run_sweep_jsonl(&spec, &path, false).unwrap();
    let in_memory = run_sweep(&spec).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text, in_memory.to_jsonl(), "one serialization, two drivers");
    assert_eq!(summary.digest, in_memory.digest());
    let rows = parse_jsonl(&text);
    assert_eq!(rows.len(), 4);
    for (parsed, row) in rows.iter().zip(&in_memory.rows) {
        assert_eq!(parsed.config_fingerprint, row.config_fingerprint);
        assert_eq!(parsed.report_fingerprint, row.report.fingerprint());
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_duplicate_row_is_last_wins_and_warned() {
    let spec = tiny_grid_spec();
    let path = tmp_path("dup");
    run_sweep_jsonl(&spec, &path, false).unwrap();
    let reference = std::fs::read_to_string(&path).unwrap();

    // Append a second row for grid index 1 with a tampered report
    // fingerprint: same identity (index + config fingerprint), visibly
    // different content — last-wins must pick it.
    let line1 = reference.lines().nth(1).unwrap();
    let (lead, _) = line1.rsplit_once("\"fp\":").unwrap();
    let tampered = format!("{lead}\"fp\":42}}");
    std::fs::write(&path, format!("{reference}{tampered}\n")).unwrap();

    let resumed = run_sweep_jsonl(&spec, &path, true).unwrap();
    assert_eq!((resumed.executed, resumed.reused), (0, 4));
    assert!(
        resumed
            .warnings
            .iter()
            .any(|w| w.contains("duplicate row for grid index 1")),
        "warns about the duplicate: {:?}",
        resumed.warnings
    );
    let merged = std::fs::read_to_string(&path).unwrap();
    assert!(
        merged.lines().nth(1) == Some(tampered.as_str()),
        "the LAST duplicate wins"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_ignores_rows_not_in_the_grid_with_a_warning() {
    let spec = tiny_grid_spec();
    let path = tmp_path("stale");
    run_sweep_jsonl(&spec, &path, false).unwrap();
    let reference = std::fs::read_to_string(&path).unwrap();

    // Corrupt row 2's config fingerprint: its identity no longer
    // matches any grid point, so it is ignored (warned) and re-run.
    let mangled: String = reference
        .lines()
        .enumerate()
        .map(|(i, l)| {
            if i == 2 {
                let (lead, rest) = l.split_once("\"cfg\":").unwrap();
                let digits = rest.find(',').unwrap();
                format!("{lead}\"cfg\":7{}\n", &rest[digits..])
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    std::fs::write(&path, mangled).unwrap();

    let resumed = run_sweep_jsonl(&spec, &path, true).unwrap();
    assert_eq!((resumed.executed, resumed.reused), (1, 3));
    assert!(
        resumed
            .warnings
            .iter()
            .any(|w| w.contains("does not match the current grid")),
        "warns about the stale row: {:?}",
        resumed.warnings
    );
    assert_eq!(std::fs::read_to_string(&path).unwrap(), reference);
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_from_an_empty_file_is_a_clean_cold_start() {
    let spec = tiny_grid_spec();
    let path = tmp_path("empty");
    std::fs::write(&path, "").unwrap();
    let resumed = run_sweep_jsonl(&spec, &path, true).unwrap();
    assert_eq!((resumed.executed, resumed.reused), (4, 0));
    assert!(resumed.warnings.is_empty(), "{:?}", resumed.warnings);
    assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 4);
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_errors_on_mid_file_corruption_naming_the_line() {
    let spec = tiny_grid_spec();
    let path = tmp_path("corrupt");
    run_sweep_jsonl(&spec, &path, false).unwrap();
    let reference = std::fs::read_to_string(&path).unwrap();
    let mangled: String = reference
        .lines()
        .enumerate()
        .map(|(i, l)| {
            if i == 1 {
                "{\"i\":99,\"cf\n".to_string()
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    std::fs::write(&path, mangled).unwrap();
    let err = run_sweep_jsonl(&spec, &path, true).unwrap_err().to_string();
    assert!(err.contains("line 2"), "names the offending line: {err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_tolerates_a_torn_final_line_with_a_warning() {
    let spec = tiny_grid_spec();
    let path = tmp_path("torn_warn");
    run_sweep_jsonl(&spec, &path, false).unwrap();
    let reference = std::fs::read_to_string(&path).unwrap();
    let torn: String = reference
        .lines()
        .take(3)
        .map(|l| format!("{l}\n"))
        .chain(std::iter::once("{\"i\":3,\"cfg\":99".to_string()))
        .collect();
    std::fs::write(&path, torn).unwrap();
    let resumed = run_sweep_jsonl(&spec, &path, true).unwrap();
    assert_eq!((resumed.executed, resumed.reused), (1, 3));
    assert!(
        resumed.warnings.iter().any(|w| w.contains("line 4")),
        "warns about the torn tail: {:?}",
        resumed.warnings
    );
    assert_eq!(std::fs::read_to_string(&path).unwrap(), reference);
    std::fs::remove_file(&path).ok();
}

#[test]
fn shard_workers_plus_merge_equal_the_serial_bytes() {
    let spec = tiny_grid_spec();
    let serial_path = tmp_path("shard_serial");
    let full = run_sweep_jsonl(&spec, &serial_path, false).unwrap();
    let reference = std::fs::read_to_string(&serial_path).unwrap();

    let out = tmp_path("sharded");
    std::fs::remove_file(&out).ok();
    let mut executed = 0;
    for index in 0..2 {
        let shard = ShardSpec { index, count: 2 };
        let opts = JsonlOptions {
            resume: true,
            shard: Some(shard),
            fault: None,
        };
        let summary = run_sweep_jsonl_opts(&spec, &out, &opts).unwrap();
        assert_eq!(summary.grid, 2, "each stripe owns half the 4-point grid");
        executed += summary.executed;
    }
    assert_eq!(executed, 4);

    let merge = merge_sweep_jsonl(&spec, &out).unwrap();
    assert_eq!(merge.merged, 4);
    assert!(merge.missing.is_empty());
    assert_eq!(merge.digest, full.digest);
    assert_eq!(
        std::fs::read_to_string(&out).unwrap(),
        reference,
        "merged shards must be byte-identical to the serial run"
    );
    assert!(
        ndp_sim::shard::existing_shard_files(&out).is_empty(),
        "a complete merge removes its shard files"
    );

    // A serial resume over an (incomplete) shard layout ingests the
    // shard files directly.
    std::fs::remove_file(&out).ok();
    let opts = JsonlOptions {
        resume: true,
        shard: Some(ShardSpec { index: 0, count: 2 }),
        fault: None,
    };
    run_sweep_jsonl_opts(&spec, &out, &opts).unwrap();
    let resumed = run_sweep_jsonl(&spec, &out, true).unwrap();
    assert_eq!((resumed.executed, resumed.reused), (2, 2));
    assert_eq!(std::fs::read_to_string(&out).unwrap(), reference);
    assert!(
        ndp_sim::shard::existing_shard_files(&out).is_empty(),
        "a completing serial resume cleans up ingested shard files"
    );

    std::fs::remove_file(&serial_path).ok();
    std::fs::remove_file(&out).ok();
}

// ---------------------------------------------------------------------------
// Constraint filters on grid expansion.
// ---------------------------------------------------------------------------

#[test]
fn filters_prune_the_cross_product_with_compact_reindexing() {
    let full = SweepSpec::new(quick_base())
        .axis("pwc_entries", &[16u64, 64, 256])
        .axis("mechanism", &["radix", "ndpage"]);
    let filtered = full
        .clone()
        .filter("pwc_entries <= 64")
        .filter("mechanism != radix");

    // grid_len is the unfiltered upper bound; expansion prunes.
    assert_eq!(filtered.grid_len(), 6);
    let grid = filtered.expand().unwrap();
    assert_eq!(grid.len(), 2);

    // Kept points are re-indexed compactly in row-major order, and
    // their configs are bit-identical to the matching points of the
    // unfiltered grid — so resume keys (fingerprint) and emit order
    // stay a deterministic function of the spec.
    let dense = full.expand().unwrap();
    let want: Vec<&_> = dense
        .iter()
        .filter(|p| {
            p.config.pwc_entries.unwrap_or(0) <= 64 && p.config.mechanism == Mechanism::NdPage
        })
        .collect();
    assert_eq!(grid.len(), want.len());
    for (i, (kept, from_dense)) in grid.iter().zip(&want).enumerate() {
        assert_eq!(kept.index, i, "compact re-index, no holes");
        assert_eq!(
            config_fingerprint(&kept.config),
            config_fingerprint(&from_dense.config)
        );
        assert_eq!(kept.coords, from_dense.coords);
    }
}

#[test]
fn filters_reach_base_knobs_that_do_not_vary() {
    // `cores` is not on any axis: the clause is evaluated against the
    // base value, keeping everything or nothing.
    let base = quick_base();
    let keep = SweepSpec::new(base.clone())
        .axis("pwc_entries", &[16u64, 64])
        .filter("cores = 1");
    assert_eq!(keep.expand().unwrap().len(), 2);

    let reject = SweepSpec::new(base)
        .axis("pwc_entries", &[16u64, 64])
        .filter("cores > 1");
    let err = reject.expand().unwrap_err().to_string();
    assert!(
        err.contains("rejects every grid point"),
        "an all-rejecting filter is a named error, not an empty sweep: {err}"
    );
}

#[test]
fn filter_errors_name_the_clause_and_list_the_registry() {
    // Unknown knob: rejected with the registry list (builder path).
    let spec = SweepSpec::new(quick_base())
        .axis("pwc_entries", &[16u64])
        .filter("bogus_knob = 1");
    let err = spec.expand().unwrap_err().to_string();
    assert!(
        err.contains("bogus_knob") && err.contains("valid values") && err.contains("pwc_entries"),
        "unknown filter knob lists the registry: {err}"
    );

    // Malformed clause text also surfaces at expansion, naming it.
    let spec = SweepSpec::new(quick_base())
        .axis("pwc_entries", &[16u64])
        .filter("pwc_entries");
    assert!(spec.expand().is_err());

    // Ordering operators need numeric values.
    let spec = SweepSpec::new(quick_base())
        .axis("mechanism", &["radix", "ndpage"])
        .filter("mechanism < radix");
    let err = spec.expand().unwrap_err().to_string();
    assert!(err.contains("needs numeric"), "got: {err}");

    // FilterClause::parse rejects unknown operators by name.
    let err = ndp_sim::spec::FilterClause::parse("cores ~ 2")
        .unwrap_err()
        .to_string();
    assert!(
        err.contains('~') && err.contains("unknown operator"),
        "{err}"
    );
}

#[test]
fn filtered_specs_load_from_json_and_stream_like_dense_ones() {
    let json = r#"{
      "name": "filtered",
      "base": {"workload": "RND", "warmup_ops": 200, "measure_ops": 500,
               "footprint": 268435456},
      "axes": [{"knob": "pwc_entries", "values": [16, 64, 256]},
               {"knob": "mechanism", "values": ["radix", "ndpage"]}],
      "filter": ["pwc_entries <= 64", "mechanism != radix"]
    }"#;
    let spec = SweepSpec::from_json(json).unwrap();
    assert_eq!(spec.filters.len(), 2);
    assert_eq!(spec.expand().unwrap().len(), 2);

    // The JSONL driver treats the filtered grid exactly like a dense
    // 2-point one: stream, resume (full reuse), shard + merge all
    // byte-identical.
    let path = tmp_path("filtered_stream");
    std::fs::remove_file(&path).ok();
    let first = run_sweep_jsonl(&spec, &path, false).unwrap();
    assert_eq!((first.grid, first.executed), (2, 2));
    let reference = std::fs::read_to_string(&path).unwrap();

    let resumed = run_sweep_jsonl(&spec, &path, true).unwrap();
    assert_eq!((resumed.executed, resumed.reused), (0, 2));
    assert_eq!(std::fs::read_to_string(&path).unwrap(), reference);

    let out = tmp_path("filtered_shards");
    std::fs::remove_file(&out).ok();
    for index in 0..2 {
        let opts = JsonlOptions {
            resume: true,
            shard: Some(ShardSpec { index, count: 2 }),
            fault: None,
        };
        run_sweep_jsonl_opts(&spec, &out, &opts).unwrap();
    }
    let merge = merge_sweep_jsonl(&spec, &out).unwrap();
    assert_eq!(merge.merged, 2);
    assert_eq!(std::fs::read_to_string(&out).unwrap(), reference);

    // A bad filter type in JSON is a named error.
    let err = SweepSpec::from_json(r#"{"name": "x", "filter": "cores = 1"}"#)
        .unwrap_err()
        .to_string();
    assert!(err.contains("must be an array"), "{err}");

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&out).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Grid expansion is order-deterministic and covers the cross
    /// product exactly once, whatever the axis shapes.
    #[test]
    fn grid_expansion_is_deterministic_and_exactly_covers(
        seeds in prop::collection::vec(0u64..1000, 1..4),
        pwc in prop::collection::vec(1u64..512, 1..4),
        windows in prop::collection::vec(1u64..16, 1..3),
    ) {
        // Distinct values per axis (duplicates would legitimately
        // produce equal grid points).
        let dedup = |mut v: Vec<u64>| { v.sort_unstable(); v.dedup(); v };
        let (seeds, pwc, windows) = (dedup(seeds), dedup(pwc), dedup(windows));

        let spec = SweepSpec::new(quick_base())
            .axis("seed", &seeds)
            .axis("pwc_entries", &pwc)
            .axis("mlp_window", &windows);
        let expect = seeds.len() * pwc.len() * windows.len();
        prop_assert_eq!(spec.grid_len(), expect);

        let grid = spec.expand().unwrap();
        prop_assert_eq!(grid.len(), expect);

        // Exactly once: every combination appears, and no fingerprint
        // repeats.
        let mut fps: Vec<u64> = grid.iter().map(|p| config_fingerprint(&p.config)).collect();
        fps.sort_unstable();
        fps.dedup();
        prop_assert_eq!(fps.len(), expect);
        for (i, s) in seeds.iter().enumerate() {
            for (j, p) in pwc.iter().enumerate() {
                for (k, w) in windows.iter().enumerate() {
                    // Row-major: first axis slowest.
                    let idx = (i * pwc.len() + j) * windows.len() + k;
                    prop_assert_eq!(grid[idx].config.seed, *s);
                    prop_assert_eq!(grid[idx].config.pwc_entries, Some(*p as usize));
                    prop_assert_eq!(grid[idx].config.mlp_window, *w as u32);
                }
            }
        }

        // Deterministic: expanding again gives identical configs in
        // identical order.
        let again = spec.expand().unwrap();
        for (a, b) in grid.iter().zip(&again) {
            prop_assert_eq!(config_fingerprint(&a.config), config_fingerprint(&b.config));
            prop_assert_eq!(&a.coords, &b.coords);
        }
    }
}
