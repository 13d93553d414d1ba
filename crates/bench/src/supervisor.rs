//! The sweep supervisor: spawn shard workers, watch their heartbeats,
//! retry the failures, merge what survives.
//!
//! `ndpsim sweep --workers N` splits the grid into `N` stripes and runs
//! each as a `ndpsim sweep --shard I/N --resume` subprocess. The only
//! health signal a worker owes the supervisor is its shard stream: the
//! engine flushes one line per retired row, so **file growth is the
//! heartbeat** — no IPC, no pidfiles, and the signal is exactly the
//! thing we care about (rows landing on disk).
//!
//! Failure policy: a worker that exits nonzero or stalls past
//! `row_timeout` is killed and respawned with exponential backoff, up
//! to `max_retries` retries. Because workers always resume, a respawn
//! re-simulates only the rows its predecessor had not yet flushed.
//! When retries are exhausted the sweep degrades instead of dying:
//! every completed row is merged, the missing grid indices are listed
//! in a structured JSON summary on stdout, and the exit code tells the
//! caller which of full / partial / failed happened.
//!
//! **Events.** While it runs, the supervisor reports only through
//! [`event`]: one `{"event":KIND,...}` line on stderr each, with
//! `shard` the stripe index. `spawn` {shard, attempt, pid}; `retry`
//! {shard, attempt (the next), of, delay_ms, why}; `give_up` {shard,
//! attempts, why}; `cancel` {shard, killed (false: never spawned)};
//! `shard_done` {shard, attempts, rows_done (rows on its stream),
//! rows_per_s (since the supervisor started)}; `warning` {message}.
//! `why` names the exit (`exited with code N`, `was killed by a
//! signal`) or the stall (`stalled (no row for S s)`).

use crate::cli::{Args, CliError};
use ndp_sim::shard::{shard_path, stream_path, ShardSpec};
use ndp_sim::spec::{merge_sweep_jsonl, parse_jsonl, Json, SweepSpec};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Every grid point completed and merged.
pub const EXIT_FULL: i32 = 0;
/// Some rows missing after retries were exhausted; completed rows kept.
pub const EXIT_PARTIAL: i32 = 3;
/// Nothing completed at all.
pub const EXIT_FAILED: i32 = 4;
/// The run was cancelled mid-flight (workers killed, completed rows
/// merged and kept). Only [`supervise_with_cancel`] returns this.
pub const EXIT_CANCELLED: i32 = 5;

/// Longest backoff between respawns, whatever the exponent says.
const BACKOFF_CAP: Duration = Duration::from_secs(10);
/// Supervisor poll cadence.
const POLL: Duration = Duration::from_millis(25);

/// How a supervised run spawns and retries its workers — one policy
/// for `ndpsim sweep --workers` and for every `ndpsim serve` job.
#[derive(Debug, Clone)]
pub struct Policy {
    /// Number of shard workers (stripes).
    pub workers: u64,
    /// `--jobs` to forward to each worker (`None` = worker default).
    pub jobs: Option<u64>,
    /// Kill a worker whose shard stream has not grown for this long.
    pub row_timeout: Duration,
    /// Respawns allowed per shard after its first attempt.
    pub max_retries: u32,
    /// Base backoff before a respawn; doubles per failed attempt.
    pub backoff: Duration,
}

impl Policy {
    /// Parses `--workers N` (default 2, at least 1), `--jobs N`,
    /// `--row-timeout SECS` (default 600), `--max-retries N` (default 2)
    /// and `--backoff-ms MS` (default 250).
    ///
    /// # Errors
    ///
    /// Usage errors for malformed or out-of-range values.
    pub fn from_args(args: &Args) -> Result<Policy, CliError> {
        let workers = args.num("--workers")?.unwrap_or(2);
        if workers == 0 {
            return Err(CliError::usage("error: --workers must be at least 1"));
        }
        let row_timeout = match args.get("--row-timeout") {
            None => 600.0,
            Some(raw) => raw
                .parse::<f64>()
                .ok()
                .filter(|t| t.is_finite() && *t > 0.0)
                .ok_or_else(|| {
                    CliError::usage(format!(
                        "error: --row-timeout expects a positive number of seconds, got {raw:?}"
                    ))
                })?,
        };
        Ok(Policy {
            workers,
            jobs: args.num("--jobs")?,
            row_timeout: Duration::from_secs_f64(row_timeout),
            max_retries: args.num_u32("--max-retries")?.unwrap_or(2),
            backoff: Duration::from_millis(args.num("--backoff-ms")?.unwrap_or(250)),
        })
    }
}

/// Everything the supervisor needs to reconstruct worker command lines
/// and apply the retry policy.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Spec file path, forwarded to workers verbatim.
    pub spec_path: String,
    /// `--set knob=value` overrides, forwarded to workers in order.
    pub sets: Vec<String>,
    /// Final merged output path.
    pub out: PathBuf,
    /// Keep existing rows (otherwise the output and all shard state are
    /// cleared first).
    pub resume: bool,
    /// Workers and their retry policy.
    pub policy: Policy,
}

/// Writes one `{"event":KIND,...fields}` line to stderr. Best effort: a
/// closed or broken stderr loses the line, never the run (a print macro
/// would panic there, inside a job or on the service's executor).
pub fn event<'a>(kind: &str, fields: impl IntoIterator<Item = (&'a str, Json)>) {
    let head = ("event", Json::Str(kind.to_string()));
    let mut line = Json::obj(std::iter::once(head).chain(fields)).render();
    line.push('\n');
    // One write: a worker sharing this stderr cannot split the line.
    let _ = std::io::stderr().lock().write_all(line.as_bytes());
}

/// A `warning` event: something went wrong that the run survives.
pub(crate) fn warn(message: String) {
    event("warning", [("message", Json::Str(message))]);
}

/// `rows / secs` with three decimals (0 before any time has passed).
pub(crate) fn rows_per_s(rows: usize, secs: f64) -> Json {
    let rate = if secs > 0.0 { rows as f64 / secs } else { 0.0 };
    Json::num(format_args!("{rate:.3}"))
}

enum WorkerState {
    /// Waiting for its (re)spawn slot.
    Pending {
        at: Instant,
    },
    Running {
        child: Child,
        last_len: u64,
        last_progress: Instant,
    },
    Done,
    Failed,
}

struct Worker {
    shard: ShardSpec,
    path: PathBuf,
    attempts: u32,
    state: WorkerState,
}

impl Worker {
    fn shard_field(&self) -> (&'static str, Json) {
        ("shard", Json::num(self.shard.index))
    }
}

fn stream_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

fn spawn_worker(cfg: &SupervisorConfig, shard: ShardSpec) -> Result<Child, CliError> {
    let exe = std::env::current_exe()
        .map_err(|e| CliError::semantic(format!("error: cannot locate own binary: {e}")))?;
    let mut cmd = Command::new(exe);
    cmd.arg("sweep")
        .arg("--spec")
        .arg(&cfg.spec_path)
        .arg("--out")
        .arg(&cfg.out)
        .arg("--shard")
        .arg(shard.to_string())
        // Workers always resume: a respawn must pick up where the dead
        // attempt's shard stream ends, not start the stripe over.
        .arg("--resume");
    for set in &cfg.sets {
        cmd.arg("--set").arg(set);
    }
    if let Some(jobs) = cfg.policy.jobs {
        cmd.arg("--jobs").arg(jobs.to_string());
    }
    // Worker stdout (its own summary lines) would interleave with the
    // supervisor's structured summary; stderr (warnings, fault notices)
    // passes through.
    cmd.stdout(Stdio::null()).stderr(Stdio::inherit());
    cmd.spawn()
        .map_err(|e| CliError::semantic(format!("error: cannot spawn shard {shard}: {e}")))
}

/// Marks a worker attempt as failed: schedules the respawn with
/// exponential backoff, or gives up past `max_retries`.
fn register_failure(policy: &Policy, w: &mut Worker, why: String) {
    let shard = w.shard_field();
    if w.attempts > policy.max_retries {
        // Completed rows are kept.
        let attempts = ("attempts", Json::num(w.attempts));
        event("give_up", [shard, attempts, ("why", Json::Str(why))]);
        w.state = WorkerState::Failed;
        return;
    }
    let exp = w.attempts.saturating_sub(1).min(16);
    let delay = policy.backoff.saturating_mul(1u32 << exp).min(BACKOFF_CAP);
    event(
        "retry",
        [
            shard,
            ("attempt", Json::num(w.attempts + 1)),
            ("of", Json::num(policy.max_retries + 1)),
            ("delay_ms", Json::num(delay.as_millis())),
            ("why", Json::Str(why)),
        ],
    );
    w.state = WorkerState::Pending {
        at: Instant::now() + delay,
    };
}

/// Runs the supervised sweep end to end: spawn, monitor, retry, merge.
/// Returns the process exit code ([`EXIT_FULL`] / [`EXIT_PARTIAL`] /
/// [`EXIT_FAILED`]) after printing the structured summary on stdout.
///
/// # Errors
///
/// Setup failures (cannot clear stale output, cannot spawn at all) and
/// merge errors; worker failures are policy, not errors.
pub fn supervise(spec: &SweepSpec, cfg: &SupervisorConfig) -> Result<i32, CliError> {
    supervise_with_cancel(spec, cfg, None)
}

/// [`supervise`] with a cooperative cancellation flag (the experiment
/// service's `cancel` verb). When `cancel` flips true the supervisor
/// kills every running worker, skips pending respawns, merges the rows
/// that already landed — cancellation **keeps completed rows** — and
/// returns [`EXIT_CANCELLED`] (or [`EXIT_FULL`] when the grid happened
/// to complete before the flag was observed).
///
/// # Errors
///
/// Same as [`supervise`].
pub fn supervise_with_cancel(
    spec: &SweepSpec,
    cfg: &SupervisorConfig,
    cancel: Option<&AtomicBool>,
) -> Result<i32, CliError> {
    if !cfg.resume {
        // A fresh supervised run must not inherit stale rows.
        for stale in [cfg.out.clone(), stream_path(&cfg.out)]
            .into_iter()
            .chain(ndp_sim::shard::existing_shard_files(&cfg.out))
        {
            if stale.exists() {
                std::fs::remove_file(&stale).map_err(|e| {
                    CliError::semantic(format!("error: cannot clear {}: {e}", stale.display()))
                })?;
            }
        }
    }

    let policy = &cfg.policy;
    let started = Instant::now();
    let mut workers: Vec<Worker> = (0..policy.workers)
        .map(|i| {
            let shard = ShardSpec {
                index: i,
                count: policy.workers,
            };
            Worker {
                shard,
                path: shard_path(&cfg.out, shard),
                attempts: 0,
                state: WorkerState::Pending { at: Instant::now() },
            }
        })
        .collect();

    let mut cancelled = false;
    loop {
        if !cancelled && cancel.is_some_and(|c| c.load(Ordering::SeqCst)) {
            // Cancellation: kill what runs, skip what waits; completed
            // rows stay on disk and merge below.
            cancelled = true;
            for w in &mut workers {
                let killed = match &mut w.state {
                    WorkerState::Running { child, .. } => {
                        let _ = child.kill();
                        let _ = child.wait();
                        true
                    }
                    WorkerState::Pending { .. } => false,
                    WorkerState::Done | WorkerState::Failed => continue,
                };
                event("cancel", [w.shard_field(), ("killed", Json::Bool(killed))]);
                w.state = WorkerState::Failed;
            }
        }
        let mut live = false;
        for w in &mut workers {
            match &mut w.state {
                WorkerState::Done | WorkerState::Failed => {}
                WorkerState::Pending { at } => {
                    live = true;
                    if Instant::now() >= *at {
                        w.attempts += 1;
                        let child = spawn_worker(cfg, w.shard)?;
                        let attempt = ("attempt", Json::num(w.attempts));
                        event(
                            "spawn",
                            [w.shard_field(), attempt, ("pid", Json::num(child.id()))],
                        );
                        w.state = WorkerState::Running {
                            child,
                            last_len: stream_len(&w.path),
                            last_progress: Instant::now(),
                        };
                    }
                }
                WorkerState::Running {
                    child,
                    last_len,
                    last_progress,
                } => {
                    live = true;
                    // Heartbeat: each retired row is flushed to the
                    // shard stream, so growth == progress.
                    let len = stream_len(&w.path);
                    if len > *last_len {
                        *last_len = len;
                        *last_progress = Instant::now();
                    }
                    match child.try_wait() {
                        Ok(Some(status)) if status.success() => {
                            let rows = std::fs::read_to_string(&w.path)
                                .map_or(0, |text| parse_jsonl(&text).len());
                            let rate = rows_per_s(rows, started.elapsed().as_secs_f64());
                            event(
                                "shard_done",
                                [
                                    w.shard_field(),
                                    ("attempts", Json::num(w.attempts)),
                                    ("rows_done", Json::num(rows)),
                                    ("rows_per_s", rate),
                                ],
                            );
                            w.state = WorkerState::Done;
                        }
                        Ok(Some(status)) => {
                            let why = match status.code() {
                                Some(code) => format!("exited with code {code}"),
                                None => "was killed by a signal".to_string(),
                            };
                            register_failure(policy, w, why);
                        }
                        Ok(None) => {
                            if last_progress.elapsed() > policy.row_timeout {
                                let _ = child.kill();
                                let _ = child.wait();
                                let why = format!(
                                    "stalled (no row for {:.1} s)",
                                    policy.row_timeout.as_secs_f64()
                                );
                                register_failure(policy, w, why);
                            }
                        }
                        Err(e) => {
                            let _ = child.kill();
                            let _ = child.wait();
                            register_failure(policy, w, format!("became unwaitable ({e})"));
                        }
                    }
                }
            }
        }
        if !live {
            break;
        }
        std::thread::sleep(POLL);
    }

    // Merge whatever landed. The merge runs in this process, which may
    // carry NDP_FAULT for its workers — merge_sweep_jsonl deliberately
    // never consults the fault plan.
    let merge = merge_sweep_jsonl(spec, &cfg.out)
        .map_err(|e| CliError::semantic(format!("error: merge: {e}")))?;
    merge.warnings.into_iter().for_each(warn);

    let (outcome, code) = if merge.missing.is_empty() {
        // A cancel that raced completion is still a completed grid.
        ("full", EXIT_FULL)
    } else if cancelled {
        ("cancelled", EXIT_CANCELLED)
    } else if merge.merged > 0 {
        ("partial", EXIT_PARTIAL)
    } else {
        ("failed", EXIT_FAILED)
    };

    let shards = workers.iter().map(|w| {
        let state = if matches!(w.state, WorkerState::Done) {
            "done"
        } else {
            "failed"
        };
        let attempts = ("attempts", Json::num(w.attempts));
        Json::obj([
            w.shard_field(),
            attempts,
            ("state", Json::Str(state.into())),
        ])
    });
    let missing = merge.missing.iter().map(Json::num).collect();
    let summary = Json::obj([
        ("sweep", Json::Str(spec.name.clone())),
        ("grid", Json::num(merge.grid)),
        ("merged", Json::num(merge.merged)),
        ("missing", Json::Arr(missing)),
        ("digest", Json::num(merge.digest)),
        ("outcome", Json::Str(outcome.into())),
        ("shards", Json::Arr(shards.collect())),
    ]);
    // Best effort, like [`event`]: when the supervisor runs inside
    // `ndpsim serve`, stdout may be a pipe the launcher closed after
    // reading the listening line. The exit code and the merged file are
    // the contract.
    let _ = writeln!(std::io::stdout().lock(), "{}", summary.render());
    Ok(code)
}
