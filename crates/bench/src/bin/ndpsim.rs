#![forbid(unsafe_code)]
//! `ndpsim` — run one simulation or a declarative sweep, or serve
//! sweeps as a long-running experiment service.
//!
//! **Single run** (every flag is generated from the knob registry in
//! `ndp_sim::spec::KNOBS` — `--help` prints the full table):
//!
//! ```text
//! cargo run -p ndp-bench --release --bin ndpsim -- \
//!     --workload BFS --mechanism ndpage --system ndp --cores 4 \
//!     [--window 8] [--l3-kb 2048] [--set knob=value]... [--jobs N] ...
//! ```
//!
//! **Declarative sweep**: expand a JSON spec's cross product and run it
//! on the work-stealing driver, optionally with incremental JSONL
//! output and resume:
//!
//! ```text
//! cargo run -p ndp-bench --release --bin ndpsim -- \
//!     sweep --spec experiments.json --set cores=2 \
//!           --out rows.jsonl --resume --jobs 8
//! ```
//!
//! Each completed grid point is appended to the JSONL file in grid
//! order as soon as every earlier point has retired; `--resume` skips
//! points already on disk (matched by config fingerprint + grid index)
//! and produces a file byte-for-byte identical to an uninterrupted run.

use ndp_bench::cli::{
    config_from_args, exit_on_err, install_jobs, knob_help_table, ndpsim_value_flags, Args,
    CliError, NDPSIM_BOOL_FLAGS,
};
use ndp_bench::serve::{serve, ServeConfig};
use ndp_bench::supervisor::{supervise, Policy, SupervisorConfig};
use ndp_sim::fault::FaultPlan;
use ndp_sim::shard::ShardSpec;
use ndp_sim::spec::{config_fingerprint, run_sweep, run_sweep_jsonl_opts, JsonlOptions, SweepSpec};
use ndp_sim::Machine;

/// Validates `NDP_FAULT` up front (like `NDP_THREADS`): a typo'd fault
/// plan must exit cleanly, not silently run fault-free.
fn fault_plan_from_env() -> Option<FaultPlan> {
    ndp_sim::fault::plan_from_env().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// `ndpsim sweep`: expand a JSON spec (plus `--set` overrides) and run
/// the grid — in memory with a printed table, incrementally to JSONL
/// with `--out`/`--resume`, as one stripe of a sharded run
/// (`--shard I/N`), or as the supervisor of N shard workers
/// (`--workers N`).
fn run_sweep_cmd(args: &Args) {
    if args.has("--help") {
        eprintln!(
            "usage: ndpsim sweep --spec FILE [--set knob=value]... [--out FILE.jsonl] \\\n\
             \x20                  [--resume] [--jobs N] [--dry-run] \\\n\
             \x20                  [--shard I/N | --workers N] [--row-timeout SECS] \\\n\
             \x20                  [--max-retries N] [--backoff-ms MS]\n\
             \n\
             spec JSON: {{\"name\": STR, \"base\": {{KNOB: VALUE, ...}},\n\
             \x20           \"axes\": [{{\"knob\": NAME, \"values\": [V, ...]}} |\n\
             \x20                    {{\"points\": [{{KNOB: V, ...}}, ...]}}, ...],\n\
             \x20           \"filter\": [\"KNOB OP VALUE\", ...]}}   OP: = != < <= > >=\n\
             \n\
             The grid is the axes' cross product (first axis slowest), pruned by\n\
             the conjunctive \"filter\" clauses (kept points re-index compactly,\n\
             so filtered grids shard and resume like dense ones) and run on the\n\
             work-stealing driver. --out appends completed rows in grid order as\n\
             they retire (landing via .tmp + atomic rename); --resume reuses rows\n\
             already on disk (matched by config fingerprint + grid index) and\n\
             re-runs only the rest. --shard I/N runs grid indices i mod N == I,\n\
             streaming to FILE.jsonl.shard-I-of-N; --workers N spawns N such\n\
             shard subprocesses, retries crashed or stalled ones (exponential\n\
             backoff, --max-retries), merges the shards byte-identically to a\n\
             serial run, and exits 0 (full), 3 (partial) or 4 (failed).\n\
             {}",
            knob_help_table()
        );
        return;
    }
    exit_on_err(args.reject_unknown(
        &[
            "--spec",
            "--set",
            "--out",
            "--jobs",
            "--shard",
            "--workers",
            "--row-timeout",
            "--max-retries",
            "--backoff-ms",
        ],
        &["sweep", "--resume", "--dry-run", "--help"],
    ));
    let spec_path = exit_on_err(
        args.get("--spec")
            .ok_or_else(|| CliError::usage("error: sweep needs --spec FILE (see sweep --help)")),
    );
    let text = std::fs::read_to_string(&spec_path).unwrap_or_else(|e| {
        eprintln!("error: cannot read spec {spec_path:?}: {e}");
        std::process::exit(2);
    });
    let mut spec = SweepSpec::from_json(&text).unwrap_or_else(|e| {
        eprintln!("error: spec {spec_path:?}: {e}");
        std::process::exit(2);
    });
    exit_on_err(ndp_bench::cli::apply_sets(&mut spec.base, args));
    // Structural spec problems (empty axis, knob on two axes, bad knob
    // value) are usage errors — catch them before any process spawns or
    // file is touched.
    let grid = spec.expand().unwrap_or_else(|e| {
        eprintln!("error: spec {spec_path:?}: {e}");
        std::process::exit(2);
    });
    let fault = fault_plan_from_env();

    if args.has("--dry-run") {
        println!("sweep {}: {} grid points", spec.name, grid.len());
        for p in &grid {
            let coords: Vec<String> = p.coords.iter().map(|(k, v)| format!("{k}={v}")).collect();
            println!(
                "  [{:>3}] {}  cfg {}",
                p.index,
                coords.join(", "),
                config_fingerprint(&p.config)
            );
        }
        return;
    }

    let shard = args.get("--shard").map(|raw| {
        exit_on_err(ShardSpec::parse(&raw).map_err(|e| CliError::usage(format!("error: {e}"))))
    });
    let supervised = args.get("--workers").is_some();
    if shard.is_some() && supervised {
        eprintln!("error: --shard and --workers are mutually exclusive");
        std::process::exit(2);
    }
    if (shard.is_some() || supervised) && args.get("--out").is_none() {
        eprintln!("error: --shard/--workers need --out FILE.jsonl");
        std::process::exit(2);
    }

    if supervised {
        let out = args.get("--out").expect("checked above");
        let cfg = SupervisorConfig {
            spec_path,
            sets: args.get_all("--set"),
            out: std::path::PathBuf::from(out),
            resume: args.has("--resume"),
            policy: exit_on_err(Policy::from_args(args)),
        };
        let code = exit_on_err(supervise(&spec, &cfg));
        std::process::exit(code);
    }

    if let Some(out) = args.get("--out") {
        let opts = JsonlOptions {
            resume: args.has("--resume"),
            shard,
            fault,
        };
        let summary = run_sweep_jsonl_opts(&spec, std::path::Path::new(&out), &opts)
            .unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1);
            });
        for warning in &summary.warnings {
            eprintln!("warning: {warning}");
        }
        if let Some(sh) = shard {
            println!(
                "sweep {} shard {sh}: {} stripe points, {} executed, {} reused -> {}",
                spec.name,
                summary.grid,
                summary.executed,
                summary.reused,
                ndp_sim::shard::shard_path(std::path::Path::new(&out), sh).display()
            );
            println!("shard digest: {}", summary.digest);
        } else {
            println!(
                "sweep {}: {} grid points, {} executed, {} reused -> {}",
                spec.name, summary.grid, summary.executed, summary.reused, out
            );
            println!("sweep digest: {}", summary.digest);
        }
    } else {
        if args.has("--resume") {
            eprintln!("error: --resume needs --out FILE.jsonl");
            std::process::exit(2);
        }
        let result = run_sweep(&spec).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        });
        println!("sweep {}: {} grid points", result.name, result.rows.len());
        for row in &result.rows {
            let coords: Vec<String> = row.coords.iter().map(|(k, v)| format!("{k}={v}")).collect();
            println!(
                "  [{:>3}] {}  cycles {}  cyc/op {:.1}",
                row.index,
                coords.join(", "),
                row.report.total_cycles.as_u64(),
                row.report.cpo()
            );
        }
        println!("sweep digest: {}", result.digest());
    }
}

/// `ndpsim serve`: the long-running experiment service (submit/status/
/// watch/cancel/shutdown over newline-delimited JSON on TCP).
fn run_serve_cmd(args: &Args) {
    if args.has("--help") {
        eprintln!(
            "usage: ndpsim serve --addr HOST:PORT [--state DIR] [--workers N] [--jobs N] \\\n\
             \x20                  [--row-timeout SECS] [--max-retries N] [--backoff-ms MS]\n\
             \n\
             Long-running experiment service. Binds HOST:PORT (port 0 = ephemeral;\n\
             the bound address is printed as a JSON line on stdout), accepts\n\
             newline-delimited JSON requests — submit / status / watch / cancel /\n\
             shutdown — and runs each submitted sweep spec through the sharded,\n\
             fault-tolerant supervisor (N worker subprocesses, always resuming).\n\
             Job state (journal, specs, row streams) lives under --state DIR\n\
             (default serve-state); a killed server restarted on the same state\n\
             dir re-enqueues interrupted jobs and reuses every completed row.\n\
             Clients: ndpsim submit|status|watch|cancel|shutdown --addr HOST:PORT."
        );
        return;
    }
    exit_on_err(args.reject_unknown(
        &[
            "--addr",
            "--state",
            "--jobs",
            "--workers",
            "--row-timeout",
            "--max-retries",
            "--backoff-ms",
        ],
        &["serve", "--help"],
    ));
    let addr = exit_on_err(args.get("--addr").ok_or_else(|| {
        CliError::usage("error: serve needs --addr HOST:PORT (port 0 picks an ephemeral port)")
    }));
    let cfg = ServeConfig {
        addr,
        state: std::path::PathBuf::from(
            args.get("--state")
                .unwrap_or_else(|| "serve-state".to_string()),
        ),
        policy: exit_on_err(Policy::from_args(args)),
    };
    exit_on_err(serve(&cfg));
}

/// `ndpsim submit|status|watch|cancel|shutdown`: one client request to
/// a running `ndpsim serve`, response copied to stdout verbatim.
fn run_client_cmd(verb: &str, args: &Args) {
    if args.has("--help") {
        eprintln!(
            "usage: ndpsim submit   --addr HOST:PORT --spec FILE\n\
             \x20      ndpsim status   --addr HOST:PORT [--job ID]\n\
             \x20      ndpsim watch    --addr HOST:PORT --job ID [--from N]\n\
             \x20      ndpsim cancel   --addr HOST:PORT --job ID\n\
             \x20      ndpsim shutdown --addr HOST:PORT\n\
             \n\
             Talks to a running `ndpsim serve`. submit enqueues a sweep spec and\n\
             prints its deterministic job id; watch streams completed rows as\n\
             JSONL in grid order (byte-identical to an offline `ndpsim sweep` of\n\
             the same spec), resumable with --from N; cancel kills the job's\n\
             workers but keeps completed rows. Exits 1 if the server answers\n\
             with a structured {{\"ok\":false,...}} error record."
        );
        return;
    }
    let code = exit_on_err(ndp_bench::client::run_verb(verb, args));
    std::process::exit(code);
}

fn run_single(args: &Args) {
    if args.has("--help") || args.raw().is_empty() {
        eprintln!(
            "usage: ndpsim [flags]        run one simulation (flags below)\n\
             \x20      ndpsim sweep ...    declarative spec sweep (sweep --help)\n\
             \n\
             Each run flag sets the registered knob of the same row; `--set\n\
             knob=value` (repeatable, applied last) reaches every knob, flagged\n\
             or not. --jobs N caps the parallel driver's workers (wins over\n\
             NDP_THREADS); --histogram prints the PTW latency histogram.\n\
             {}",
            knob_help_table()
        );
        return;
    }
    exit_on_err(args.reject_unknown(&ndpsim_value_flags(), NDPSIM_BOOL_FLAGS));
    let cfg = exit_on_err(config_from_args(args));

    let report = Machine::new(cfg).run();
    println!("{report}\n");

    println!("PWC hit rates:");
    for (level, hm) in &report.pwc {
        println!(
            "  {level:<8} {:.2}%  ({} probes)",
            hm.hit_rate() * 100.0,
            hm.total()
        );
    }

    if args.has("--histogram") && report.ptw_histogram.count() > 0 {
        println!("\nPTW latency histogram (cycles):");
        let total = report.ptw_histogram.count() as f64;
        for (lower, count) in report.ptw_histogram.iter() {
            let share = count as f64 / total;
            println!(
                "  >= {lower:>7}: {:<40} {:.1}%",
                "#".repeat((share * 40.0).ceil() as usize),
                share * 100.0
            );
        }
        println!(
            "  p50 ~{} cyc, p99 ~{} cyc",
            report.ptw_histogram.quantile(0.5),
            report.ptw_histogram.quantile(0.99)
        );
    }
}

fn main() {
    let args = Args::from_env();
    // Validate the parallelism knobs up front (a malformed NDP_THREADS or
    // --jobs must exit cleanly, not panic mid-run); --jobs wins.
    exit_on_err(install_jobs(&args));

    match args.raw().first().map(String::as_str) {
        Some("sweep") => run_sweep_cmd(&args),
        Some("serve") => run_serve_cmd(&args),
        Some(verb @ ("submit" | "status" | "watch" | "cancel" | "shutdown")) => {
            // Borrow ends before args is used again below.
            let verb = verb.to_string();
            run_client_cmd(&verb, &args);
        }
        // A leading word can only be a subcommand; never fall through to
        // a default single run for one that does not exist.
        Some(word) if !word.starts_with('-') => {
            eprintln!(
                "error: unrecognized subcommand {word:?}; valid subcommands: sweep, serve, \
                 submit, status, watch, cancel, shutdown (or run flags, see --help)"
            );
            std::process::exit(2);
        }
        _ => run_single(&args),
    }
}
