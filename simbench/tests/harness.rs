//! Tests of the benchmark harness itself, on scaled-down grids.

use ndp_bench::calibration;
use ndp_sim::spec::{apply_knob, config_fingerprint, parse_json, Json};
use ndp_sim::SimConfig;
use simbench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use simbench::{check, grid, run, Options};

/// Knob overrides that shrink any workload to a fraction of a second.
fn tiny() -> Vec<(String, String)> {
    [
        ("footprint", "16777216"),
        ("warmup_ops", "200"),
        ("measure_ops", "600"),
    ]
    .iter()
    .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
    .collect()
}

fn options(workload: &str, trace: bool) -> Options {
    Options {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.0,
        trace,
        sets: tiny(),
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse_json(&text).expect("BENCHMARK.json parses")
}

fn declared(key: &str) -> Vec<(String, String, String)> {
    let Some(Json::Arr(items)) = benchmark_json().get(key).cloned() else {
        panic!("BENCHMARK.json has no {key} list");
    };
    items
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::scalar).expect("metric field");
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn defs(list: &[MetricDef]) -> Vec<(String, String, String)> {
    list.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
        .collect()
}

/// `(name, unit)` of every metric in a printed result line, in order.
fn printed(result: &str) -> Vec<(String, String)> {
    let json = parse_json(result).expect("result line is JSON");
    let Some(Json::Obj(metrics)) = json.get("metrics").cloned() else {
        panic!("result has no metrics object: {result}");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Json::scalar).expect("unit");
            (name.clone(), unit)
        })
        .collect()
}

#[test]
fn metric_lists_match_benchmark_json() {
    assert_eq!(defs(END_TO_END), declared("end_to_end"));
    assert_eq!(defs(PER_LAYER), declared("per_layer"));
    let Some(Json::Arr(workloads)) = benchmark_json().get("workloads").cloned() else {
        panic!("BENCHMARK.json has no workloads");
    };
    let names: Vec<String> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Json::scalar).expect("workload name"))
        .collect();
    let ours: Vec<&str> = grid::WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(names, ours);
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let outcome = run(&options("windowed_shared", trace)).expect("benchmark runs");
        assert!(outcome.correct, "{:?}", outcome.digest);
        let want: Vec<(String, String)> = declared(key)
            .into_iter()
            .map(|(name, unit, _)| (name, unit))
            .collect();
        assert_eq!(
            printed(&outcome.result),
            want,
            "--trace {}",
            u8::from(trace)
        );
    }
}

#[test]
fn invalid_row_counts_toward_error_rate() {
    let w = grid::workload("shootout_blocking").expect("known workload");
    let mut points = grid::load_spec(w, 3, &tiny())
        .expect("spec loads")
        .expand()
        .expect("grid expands");
    let mut bad = points[0].clone();
    bad.index = points.len();
    bad.config.cores = 0;
    assert!(bad.config.validate().is_err());
    points.push(bad);

    let passes = [grid::run_pass(&points, None), grid::run_pass(&points, None)];
    let verdict = check::check(&points, &passes);
    assert_eq!(verdict.attempted, 2 * points.len() as u64);
    assert_eq!(verdict.failed, 2, "{:?}", verdict.problems);
    assert!((verdict.error_rate() - 1.0 / points.len() as f64).abs() < 1e-12);
    assert!(verdict.problems[0].contains("invalid simulation config"));
    // Every valid row still completed in both passes.
    for pass in &passes {
        let done = pass.rows.iter().filter(|r| r.outcome.is_ok()).count();
        assert_eq!(done, points.len() - 1);
    }
}

#[test]
fn spans_nest_with_nonnegative_self_time() {
    let outcome = run(&options("shootout_blocking", true)).expect("traced run");
    let spans: Vec<Json> = outcome
        .spans
        .expect("traced run records spans")
        .lines()
        .map(|l| parse_json(l).expect("span line is JSON"))
        .collect();
    assert!(spans.len() > 10);
    let num = |s: &Json, k: &str| -> i128 {
        s.get(k)
            .and_then(Json::scalar)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("span field {k}"))
    };
    for span in &spans {
        assert!(num(span, "self_ns") >= 0, "{}", span.render());
        assert!(num(span, "end_ns") >= num(span, "start_ns"));
        if let Some(Json::Num(parent)) = span.get("parent") {
            let p = &spans[parent.parse::<usize>().expect("parent id")];
            assert!(num(p, "start_ns") <= num(span, "start_ns"));
            assert!(num(span, "end_ns") <= num(p, "end_ns"));
        }
    }
    let names: Vec<String> = spans
        .iter()
        .filter_map(|s| s.get("name").and_then(Json::scalar))
        .collect();
    for layer in ["sim.new", "sim.run", "core.walk", "mem.request_ticketed"] {
        assert!(names.iter().any(|n| n == layer), "no {layer} span");
    }
}

#[test]
fn calibration_workload_is_the_calibrate_grid() {
    // `calibrate --quick`'s base: 256 MiB per core, 6k measured ops and a
    // third of that as warmup, at the default seed.
    let mut base = SimConfig::cli_default();
    for (k, v) in [
        ("footprint", "268435456"),
        ("measure_ops", "6000"),
        ("warmup_ops", "2000"),
    ] {
        apply_knob(&mut base, k, v).expect("knob applies");
    }
    let theirs: Vec<u64> = calibration::grid(base.clone(), &["RND", "BFS", "XS"])
        .expand()
        .expect("calibration grid expands")
        .iter()
        .map(|p| config_fingerprint(&p.config))
        .collect();
    let w = grid::workload("calibration_quick").expect("known workload");
    let ours: Vec<u64> = grid::load_spec(w, base.seed, &[])
        .expect("spec loads")
        .expand()
        .expect("grid expands")
        .iter()
        .map(|p| config_fingerprint(&p.config))
        .collect();
    assert_eq!(ours, theirs);
}

#[test]
fn unknown_workload_is_named() {
    let err = grid::workload("nope").expect_err("unknown workload");
    assert!(err.contains("shootout_blocking"), "{err}");
}
