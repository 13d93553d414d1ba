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

use crate::cli::CliError;
use ndp_sim::shard::{shard_path, stream_path, ShardSpec};
use ndp_sim::spec::{json_escape, merge_sweep_jsonl, SweepSpec};
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
    /// Number of shard workers (stripes).
    pub workers: u64,
    /// Keep existing rows (otherwise the output and all shard state are
    /// cleared first).
    pub resume: bool,
    /// `--jobs` to forward to each worker (`None` = worker default).
    pub jobs: Option<u64>,
    /// Kill a worker whose shard stream has not grown for this long.
    pub row_timeout: Duration,
    /// Respawns allowed per shard after its first attempt.
    pub max_retries: u32,
    /// Base backoff before a respawn; doubles per failed attempt.
    pub backoff: Duration,
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

/// Outcome of one shard, for the structured summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardOutcome {
    /// Stripe index.
    pub shard: u64,
    /// Spawns consumed (1 = no retries needed).
    pub attempts: u32,
    /// Whether the stripe completed.
    pub done: bool,
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
    if let Some(jobs) = cfg.jobs {
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
fn register_failure(cfg: &SupervisorConfig, w: &mut Worker, why: &str) {
    if w.attempts > cfg.max_retries {
        eprintln!(
            "supervisor: shard {} {why}; retries exhausted after {} attempt(s), giving up \
             (completed rows are kept)",
            w.shard, w.attempts
        );
        w.state = WorkerState::Failed;
        return;
    }
    let exp = w.attempts.saturating_sub(1).min(16);
    let delay = cfg.backoff.saturating_mul(1u32 << exp).min(BACKOFF_CAP);
    eprintln!(
        "supervisor: shard {} {why}; retrying in {} ms (attempt {}/{})",
        w.shard,
        delay.as_millis(),
        w.attempts + 1,
        cfg.max_retries + 1
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

    let mut workers: Vec<Worker> = (0..cfg.workers)
        .map(|i| {
            let shard = ShardSpec {
                index: i,
                count: cfg.workers,
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
                match &mut w.state {
                    WorkerState::Running { child, .. } => {
                        let _ = child.kill();
                        let _ = child.wait();
                        eprintln!("supervisor: shard {} cancelled (worker killed)", w.shard);
                        w.state = WorkerState::Failed;
                    }
                    WorkerState::Pending { .. } => {
                        eprintln!("supervisor: shard {} cancelled (never spawned)", w.shard);
                        w.state = WorkerState::Failed;
                    }
                    WorkerState::Done | WorkerState::Failed => {}
                }
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
                        eprintln!(
                            "supervisor: shard {} spawned (attempt {}, pid {})",
                            w.shard,
                            w.attempts,
                            child.id()
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
                            eprintln!("supervisor: shard {} done", w.shard);
                            w.state = WorkerState::Done;
                        }
                        Ok(Some(status)) => {
                            let why = match status.code() {
                                Some(code) => format!("exited with code {code}"),
                                None => "was killed by a signal".to_string(),
                            };
                            register_failure(cfg, w, &why);
                        }
                        Ok(None) => {
                            if last_progress.elapsed() > cfg.row_timeout {
                                let _ = child.kill();
                                let _ = child.wait();
                                let why = format!(
                                    "stalled (no row for {:.1} s)",
                                    cfg.row_timeout.as_secs_f64()
                                );
                                register_failure(cfg, w, &why);
                            }
                        }
                        Err(e) => {
                            let _ = child.kill();
                            let _ = child.wait();
                            register_failure(cfg, w, &format!("became unwaitable ({e})"));
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
    for warning in &merge.warnings {
        eprintln!("warning: {warning}");
    }

    let outcomes: Vec<ShardOutcome> = workers
        .iter()
        .map(|w| ShardOutcome {
            shard: w.shard.index,
            attempts: w.attempts,
            done: matches!(w.state, WorkerState::Done),
        })
        .collect();
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

    let missing: Vec<String> = merge.missing.iter().map(ToString::to_string).collect();
    let shards: Vec<String> = outcomes
        .iter()
        .map(|o| {
            format!(
                "{{\"shard\":{},\"attempts\":{},\"state\":\"{}\"}}",
                o.shard,
                o.attempts,
                if o.done { "done" } else { "failed" }
            )
        })
        .collect();
    // Not `println!`: when the supervisor runs inside `ndpsim serve`,
    // stdout may be a pipe the launcher closed after reading the
    // listening line — a macro panic on EPIPE would kill the executor
    // thread mid-job. The summary is best-effort; the exit code and the
    // merged file are the contract.
    let summary = format!(
        "{{\"sweep\":\"{}\",\"grid\":{},\"merged\":{},\"missing\":[{}],\"digest\":{},\
         \"outcome\":\"{outcome}\",\"shards\":[{}]}}",
        json_escape(&spec.name),
        merge.grid,
        merge.merged,
        missing.join(","),
        merge.digest,
        shards.join(",")
    );
    use std::io::Write as _;
    let _ = writeln!(std::io::stdout(), "{summary}");
    Ok(code)
}
