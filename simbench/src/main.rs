#![forbid(unsafe_code)]
//! Command line of the simulator benchmark.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload calibration_quick --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Prints a digest, then one JSON line
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. A traced
//! run (`--trace 1`) also writes its spans to
//! `.simbench/spans-<workload>-seed<N>.jsonl`.

use simbench::{run, Options};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: simbench --workload NAME --seed N --seconds S --trace 0|1";

/// Where traced runs write their spans, relative to the working directory.
const SPAN_DIR: &str = ".simbench";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed {value:?}"))?,
                );
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?} (0 or 1)")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        sets: Vec::new(),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &outcome.digest {
        println!("{line}");
    }
    if let Some(spans) = &outcome.spans {
        let dir = Path::new(SPAN_DIR);
        let path = dir.join(format!("spans-{}-seed{}.jsonl", opts.workload, opts.seed));
        let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans));
        match written {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => {
                eprintln!("simbench: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", outcome.result);
    ExitCode::SUCCESS
}
