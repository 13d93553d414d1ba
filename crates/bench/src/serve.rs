//! The long-running experiment service: `ndpsim serve` accepts sweep
//! specs over TCP, queues them, executes each through the PR-6
//! supervisor (sharded `--resume`-respawned worker subprocesses), and
//! streams completed rows back in grid order.
//!
//! **Protocol.** Newline-delimited JSON over a plain TCP connection,
//! parsed by the same serde-free parser the spec files use. Each
//! request is one line; each response is one or more JSON lines (or,
//! for `watch`, raw sweep JSONL rows) terminated by one **blank
//! line**. Connections are persistent: a malformed request line gets a
//! structured `{"ok":false,...}` error and the connection survives for
//! the next request.
//!
//! | verb       | request                                     | response                         |
//! |------------|---------------------------------------------|----------------------------------|
//! | `submit`   | `{"verb":"submit","spec":{...}}`            | `{"ok":true,"job":ID,...}`       |
//! | `status`   | `{"verb":"status"[,"job":ID]}`              | one record per job               |
//! | `watch`    | `{"verb":"watch","job":ID[,"from":N]}`      | sweep JSONL rows, grid order     |
//! | `cancel`   | `{"verb":"cancel","job":ID}`                | `{"ok":true,"state":...}`        |
//! | `shutdown` | `{"verb":"shutdown"}`                       | `{"ok":true,"state":"draining"}` |
//!
//! **Job identity** is deterministic: the id is the spec base's
//! [`config_fingerprint`] plus an order-sensitive digest of every grid
//! point's fingerprint, so re-submitting the same spec yields the same
//! job (and its already-computed rows) instead of a duplicate run.
//!
//! **Crash safety.** All job state lives under the `--state` directory:
//! `<state>/journal.jsonl` appends one record per job state transition
//! (queued → running → done/partial/failed/cancelled) and
//! `<state>/<job-id>/` holds the submitted spec plus the supervisor's
//! append-only shard streams and merged `rows.jsonl`. A killed or
//! restarted server re-ingests the journal (line-granular recovery: a
//! torn trailing record is dropped), re-enqueues every non-terminal
//! job, and the always-`--resume` supervisor reuses every row already
//! on disk — finished rows are never recomputed, and `watch` bytes
//! stay identical to an offline `ndpsim sweep` of the same spec.
//!
//! **Events.** Besides each job's supervisor events, the service writes
//! these [`event`] lines on stderr: `job` {job, state} at every state
//! transition, terminal ones adding rows_done, rows_per_s, wall_s and
//! (for a job that failed to run) why; `reenqueue` {job, name, last} on
//! restart; `draining` {jobs_pending}; `drained` {}; and `warning`
//! {message}.

use crate::cli::CliError;
use crate::supervisor::{
    event, rows_per_s, supervise_with_cancel, warn, Policy, SupervisorConfig, EXIT_CANCELLED,
    EXIT_FULL, EXIT_PARTIAL,
};
use ndp_sim::shard::{existing_shard_files, stream_path};
use ndp_sim::spec::{config_fingerprint, ingest_lines, parse_json, parse_jsonl, Json, SweepSpec};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Accept-loop and watch poll cadence.
const POLL: Duration = Duration::from_millis(50);

/// Everything the service needs: where to listen, where job state
/// lives, and the supervisor policy each job runs under.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// `HOST:PORT` to bind (port 0 picks an ephemeral port; the chosen
    /// address is printed as the first stdout line).
    pub addr: String,
    /// Job-state directory (journal, specs, row streams).
    pub state: PathBuf,
    /// The supervision policy every job runs under.
    pub policy: Policy,
}

/// Lifecycle of a job, journalled at every transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for the executor.
    Queued,
    /// The supervisor is running its workers.
    Running,
    /// Every grid point completed and merged.
    Done,
    /// Retries exhausted on some rows; completed rows kept.
    Partial,
    /// Nothing completed (or the spec failed to load on restart).
    Failed,
    /// Cancelled; completed rows kept.
    Cancelled,
}

impl JobState {
    /// The journal/status wire name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Partial => "partial",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Parses the wire name back.
    #[must_use]
    pub fn parse(s: &str) -> Option<JobState> {
        match s {
            "queued" => Some(JobState::Queued),
            "running" => Some(JobState::Running),
            "done" => Some(JobState::Done),
            "partial" => Some(JobState::Partial),
            "failed" => Some(JobState::Failed),
            "cancelled" => Some(JobState::Cancelled),
            _ => None,
        }
    }

    /// Whether the state is final (no further transitions).
    #[must_use]
    pub fn terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Partial | JobState::Failed | JobState::Cancelled
        )
    }
}

/// One job as the registry tracks it.
#[derive(Clone)]
struct Job {
    id: String,
    name: String,
    grid: usize,
    state: JobState,
    cancel: Arc<AtomicBool>,
    started: Option<Instant>,
    wall_s: f64,
}

impl Job {
    fn new(id: String, name: String, grid: usize, state: JobState, wall_s: f64) -> Job {
        Job {
            id,
            name,
            grid,
            state,
            cancel: Arc::new(AtomicBool::new(false)),
            started: None,
            wall_s,
        }
    }
}

/// In-memory job table, rebuilt from the journal on startup.
struct Registry {
    jobs: Vec<Job>,
    draining: bool,
    /// The executor exited (drain complete).
    finished: bool,
}

/// Poison-proof lock: a panicking connection thread must not wedge the
/// daemon, so a poisoned registry is recovered, not propagated.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The deterministic job id of a spec: base config fingerprint plus an
/// order-sensitive FNV-style fold of every grid point's fingerprint
/// (so any change to the grid — axes, filters, knob values, order —
/// changes the id).
///
/// # Errors
///
/// Spec expansion errors.
pub fn job_id(spec: &SweepSpec) -> Result<(String, usize), CliError> {
    let grid = spec
        .expand()
        .map_err(|e| CliError::semantic(format!("error: spec: {e}")))?;
    let base_fp = config_fingerprint(&spec.base);
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for p in &grid {
        digest = digest
            .wrapping_mul(0x0000_0100_0000_01b3)
            .wrapping_add(config_fingerprint(&p.config));
    }
    Ok((format!("{base_fp:016x}-{digest:016x}"), grid.len()))
}

/// `<state>/journal.jsonl`.
fn journal_path(state: &Path) -> PathBuf {
    state.join("journal.jsonl")
}

/// `<state>/<job-id>/`.
fn job_dir(state: &Path, id: &str) -> PathBuf {
    state.join(id)
}

/// `<state>/<job-id>/spec.json`.
fn spec_path(state: &Path, id: &str) -> PathBuf {
    job_dir(state, id).join("spec.json")
}

/// `<state>/<job-id>/rows.jsonl` (the supervisor's `--out`).
fn rows_path(state: &Path, id: &str) -> PathBuf {
    job_dir(state, id).join("rows.jsonl")
}

/// A string field.
fn jstr(s: &str) -> Json {
    Json::Str(s.to_string())
}

/// A `wall_s` field: seconds with three decimals.
fn wall(secs: f64) -> Json {
    Json::num(format_args!("{secs:.3}"))
}

/// Appends a job's `state` transition to the journal, with `extra`
/// fields after the job and state, and flushes it at once (the
/// append-only journal is the restart source of truth; a torn tail
/// from a hard kill is dropped on re-ingest).
fn journal<'a>(
    dir: &Path,
    id: &str,
    state: JobState,
    extra: impl IntoIterator<Item = (&'a str, Json)>,
) -> Result<(), CliError> {
    let head = [("job", jstr(id)), ("state", jstr(state.as_str()))];
    let path = journal_path(dir);
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| CliError::semantic(format!("error: cannot open {}: {e}", path.display())))?;
    writeln!(f, "{}", Json::obj(head.into_iter().chain(extra)).render())
        .and_then(|()| f.flush())
        .map_err(|e| CliError::semantic(format!("error: cannot append {}: {e}", path.display())))
}

/// The `job` event of a state transition. Terminal states carry the
/// rows on disk and their rate over `wall_s`.
fn job_event(dir: &Path, id: &str, state: JobState, wall_s: f64, why: Option<String>) {
    let mut fields = vec![("job", jstr(id)), ("state", jstr(state.as_str()))];
    if state.terminal() {
        let rows = collect_rows(&rows_path(dir, id)).len();
        fields.extend([
            ("rows_done", Json::num(rows)),
            ("rows_per_s", rows_per_s(rows, wall_s)),
            ("wall_s", wall(wall_s)),
        ]);
    }
    fields.extend(why.map(|why| ("why", Json::Str(why))));
    event("job", fields);
}

/// Reads one journal line as the job it records.
fn journal_record(line: &str) -> Option<Job> {
    let v = parse_json(line).ok()?;
    let field = |key: &str| v.get(key).and_then(Json::scalar);
    Some(Job::new(
        field("job")?,
        field("name").unwrap_or_default(),
        field("grid").and_then(|s| s.parse().ok()).unwrap_or(0),
        JobState::parse(&field("state")?)?,
        field("wall_s").and_then(|s| s.parse().ok()).unwrap_or(0.0),
    ))
}

/// Re-ingests the journal with the sweep streams' line-granular
/// recovery ([`ingest_lines`]): a torn or garbage **trailing** line is
/// dropped with a warning (the transition it recorded re-derives from
/// the job dir), a malformed line mid-file is an error.
fn ingest_journal(text: &str, source: &str) -> Result<Vec<Job>, CliError> {
    let (recs, torn) = ingest_lines(text, journal_record).map_err(|lineno| {
        CliError::semantic(format!(
            "error: {source}: corrupt journal record at line {lineno} \
             (mid-file — not a torn tail; refusing to start over it)"
        ))
    })?;
    if let Some((lineno, _)) = torn {
        warn(format!(
            "{source}: dropping torn/garbage trailing journal line {lineno} \
             (the transition re-derives from the job directory)"
        ));
    }
    Ok(recs.into_iter().map(|(rec, _)| rec).collect())
}

impl Registry {
    /// Rebuilds the job table from the on-disk journal: the last
    /// journalled state wins per job, and every non-terminal job is
    /// re-enqueued (its supervisor run always resumes, so rows already
    /// on disk are reused, never recomputed).
    fn load(state: &Path) -> Result<Registry, CliError> {
        let mut reg = Registry {
            jobs: Vec::new(),
            draining: false,
            finished: false,
        };
        let path = journal_path(state);
        let Ok(text) = std::fs::read_to_string(&path) else {
            return Ok(reg); // fresh state dir
        };
        for rec in ingest_journal(&text, &path.display().to_string())? {
            let Some(job) = reg.jobs.iter_mut().find(|j| j.id == rec.id) else {
                reg.jobs.push(rec);
                continue;
            };
            job.state = rec.state;
            job.wall_s = rec.wall_s;
            if !rec.name.is_empty() {
                job.name = rec.name;
            }
            if rec.grid > 0 {
                job.grid = rec.grid;
            }
        }
        for job in reg.jobs.iter_mut().filter(|j| !j.state.terminal()) {
            if spec_path(state, &job.id).is_file() {
                let last = jstr(job.state.as_str());
                let fields = [
                    ("job", jstr(&job.id)),
                    ("name", jstr(&job.name)),
                    ("last", last),
                ];
                event("reenqueue", fields);
                job.state = JobState::Queued;
            } else {
                job.state = JobState::Failed;
                let why = Some("no spec file".to_string());
                job_event(state, &job.id, job.state, job.wall_s, why);
            }
        }
        Ok(reg)
    }

    /// 1-based queue position of a queued job (0 otherwise).
    fn queue_position(&self, id: &str) -> usize {
        let mut pos = 0;
        for job in &self.jobs {
            if job.state == JobState::Queued {
                pos += 1;
                if job.id == id {
                    return pos;
                }
            }
        }
        0
    }
}

/// Every completed row currently on disk for a job, keyed by grid
/// index in ascending order (merged output, live `.tmp` stream and
/// shard files all count; later sources win). Lenient per-line parsing
/// — a half-written row is simply not a row yet.
fn collect_rows(out: &Path) -> Vec<(u64, String)> {
    let mut sources = vec![out.to_path_buf(), stream_path(out)];
    sources.extend(existing_shard_files(out));
    let mut map: Vec<(u64, String)> = Vec::new();
    for src in &sources {
        let Ok(text) = std::fs::read_to_string(src) else {
            continue;
        };
        for row in parse_jsonl(&text) {
            if let Some(entry) = map.iter_mut().find(|(i, _)| *i == row.index) {
                entry.1 = row.line;
            } else {
                map.push((row.index, row.line));
            }
        }
    }
    map.sort_by_key(|&(i, _)| i);
    map
}

/// Renders one status record for a job snapshot taken under the
/// registry lock (the row scan runs after releasing it).
fn status_record(state: &Path, job: &Job, queue: usize) -> String {
    let rows_done = collect_rows(&rows_path(state, &job.id)).len();
    Json::obj([
        ("job", jstr(&job.id)),
        ("name", jstr(&job.name)),
        ("state", jstr(job.state.as_str())),
        ("queue", Json::num(queue)),
        ("rows_done", Json::num(rows_done)),
        ("rows_total", Json::num(job.grid)),
        ("wall_s", wall(job.wall_s)),
    ])
    .render()
}

/// A structured protocol error line.
fn err_record(code: &str, msg: &str) -> String {
    let fields = [
        ("ok", Json::Bool(false)),
        ("code", jstr(code)),
        ("error", jstr(msg)),
    ];
    Json::obj(fields).render()
}

/// A `bad-request` error line.
fn bad(msg: &str) -> String {
    err_record("bad-request", msg)
}

/// The `not-found` error line for a job id.
fn not_found(id: &str) -> String {
    err_record("not-found", &format!("unknown job {id:?}"))
}

/// An `{"ok":true,...}` response.
fn ok_record<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> String {
    Json::obj([("ok", Json::Bool(true))].into_iter().chain(fields)).render()
}

/// Runs one job under the supervisor (always resuming) and maps its
/// exit code to the terminal state; `Err` says why the job failed
/// without running.
fn run_job(cfg: &ServeConfig, id: &str, cancel: &AtomicBool) -> Result<JobState, String> {
    let spath = spec_path(&cfg.state, id);
    let text = std::fs::read_to_string(&spath)
        .map_err(|e| format!("cannot read {}: {e}", spath.display()))?;
    let spec = SweepSpec::from_json(&text).map_err(|e| format!("spec no longer loads: {e}"))?;
    let scfg = SupervisorConfig {
        spec_path: spath.display().to_string(),
        sets: Vec::new(),
        out: rows_path(&cfg.state, id),
        // Always resume: a restarted server (or a re-submitted job)
        // must reuse every row already on disk.
        resume: true,
        policy: cfg.policy.clone(),
    };
    match supervise_with_cancel(&spec, &scfg, Some(cancel)) {
        Ok(code) if code == EXIT_FULL => Ok(JobState::Done),
        Ok(code) if code == EXIT_PARTIAL => Ok(JobState::Partial),
        Ok(code) if code == EXIT_CANCELLED => Ok(JobState::Cancelled),
        Ok(_) => Ok(JobState::Failed),
        Err(e) => Err(e.message),
    }
}

/// The job executor: one job at a time, submission order, drains the
/// queue on shutdown.
fn executor(reg: &Arc<Mutex<Registry>>, cfg: &ServeConfig) {
    let warn_on = |e: CliError| warn(e.message);
    loop {
        let next = {
            let mut r = lock(reg);
            match r.jobs.iter_mut().find(|j| j.state == JobState::Queued) {
                Some(job) => {
                    job.state = JobState::Running;
                    job.started = Some(Instant::now());
                    job.cancel.store(false, Ordering::SeqCst);
                    Some((job.id.clone(), job.cancel.clone()))
                }
                None => {
                    if r.draining {
                        r.finished = true;
                        return;
                    }
                    None
                }
            }
        };
        let Some((id, cancel)) = next else {
            std::thread::sleep(POLL);
            continue;
        };
        journal(&cfg.state, &id, JobState::Running, []).unwrap_or_else(warn_on);
        job_event(&cfg.state, &id, JobState::Running, 0.0, None);
        let t0 = Instant::now();
        // A panic inside one job (a supervisor bug) must fail that job,
        // not silently kill the executor thread and wedge every later
        // submit at "queued".
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_job(cfg, &id, &cancel)))
                .unwrap_or_else(|_| Err("panicked".to_string()));
        let (state, why) = match outcome {
            Ok(state) => (state, None),
            Err(why) => (JobState::Failed, Some(why)),
        };
        let wall_s = t0.elapsed().as_secs_f64();
        if let Some(job) = lock(reg).jobs.iter_mut().find(|j| j.id == id) {
            job.state = state;
            job.wall_s = wall_s;
        }
        journal(&cfg.state, &id, state, [("wall_s", wall(wall_s))]).unwrap_or_else(warn_on);
        job_event(&cfg.state, &id, state, wall_s, why);
    }
}

/// Handles `submit`: validate, dedupe by deterministic id, persist the
/// spec, journal the queued transition, enqueue.
fn handle_submit(req: &Json, reg: &Arc<Mutex<Registry>>, cfg: &ServeConfig) -> String {
    if lock(reg).draining {
        return err_record("draining", "server is draining; new submits are refused");
    }
    let Some(spec_json) = req.get("spec") else {
        return bad("submit needs a \"spec\" object");
    };
    if !matches!(spec_json, Json::Obj(_)) {
        return bad("submit \"spec\" must be an object");
    }
    let text = spec_json.render();
    let spec = match SweepSpec::from_json(&text) {
        Ok(s) => s,
        Err(e) => return bad(&format!("spec: {e}")),
    };
    if let Err(e) = spec.validate_axes() {
        return bad(&format!("spec: {e}"));
    }
    let (id, grid) = match job_id(&spec) {
        Ok(v) => v,
        Err(e) => return bad(&e.message),
    };
    let queued = JobState::Queued;
    // The fields a first submit and a re-submit both answer with.
    let accepted = |job: &Job, queue| {
        let head = [("job", jstr(&id)), ("grid", Json::num(job.grid))];
        let tail = [
            ("state", jstr(job.state.as_str())),
            ("queue", Json::num(queue)),
        ];
        head.into_iter().chain(tail)
    };
    {
        let r = lock(reg);
        if let Some(job) = r.jobs.iter().find(|j| j.id == id) {
            // Deterministic ids make re-submission idempotent.
            let note = ("note", jstr("already submitted"));
            return ok_record(accepted(job, r.queue_position(&id)).chain([note]));
        }
    }
    let dir = job_dir(&cfg.state, &id);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        let msg = format!("cannot create {}: {e}", dir.display());
        return err_record("server-error", &msg);
    }
    // Land the spec atomically so a crash between submit and journal
    // cannot leave a half-written spec for the restart path to load.
    let spath = spec_path(&cfg.state, &id);
    let tmp = dir.join("spec.json.tmp");
    if let Err(e) = std::fs::write(&tmp, &text).and_then(|()| std::fs::rename(&tmp, &spath)) {
        let msg = format!("cannot write {}: {e}", spath.display());
        return err_record("server-error", &msg);
    }
    let extra = [("name", jstr(&spec.name)), ("grid", Json::num(grid))];
    if let Err(e) = journal(&cfg.state, &id, queued, extra) {
        return err_record("server-error", &e.message);
    }
    job_event(&cfg.state, &id, queued, 0.0, None);
    let job = Job::new(id.clone(), spec.name.clone(), grid, queued, 0.0);
    let mut r = lock(reg);
    r.jobs.push(job.clone());
    ok_record(accepted(&job, r.queue_position(&id)))
}

/// Handles `status`: one record for the named job, or one per job.
fn handle_status(req: &Json, reg: &Arc<Mutex<Registry>>, cfg: &ServeConfig) -> Vec<String> {
    let filter = req.get("job").and_then(Json::scalar);
    // Snapshot under the lock, scan row files after releasing it: the
    // row count is a directory scan and must not block the executor.
    let snapshot: Vec<(Job, usize)> = {
        let r = lock(reg);
        r.jobs
            .iter()
            .filter(|j| filter.as_ref().is_none_or(|id| &j.id == id))
            .map(|j| {
                let mut job = j.clone();
                if let (JobState::Running, Some(t0)) = (j.state, j.started) {
                    job.wall_s = t0.elapsed().as_secs_f64();
                }
                (job, r.queue_position(&j.id))
            })
            .collect()
    };
    match filter {
        Some(id) if snapshot.is_empty() => vec![not_found(&id)],
        None if snapshot.is_empty() => vec![Json::obj([("jobs", Json::num(0))]).render()],
        _ => snapshot
            .iter()
            .map(|(job, queue)| status_record(&cfg.state, job, *queue))
            .collect(),
    }
}

/// Handles `cancel`: a queued job flips straight to cancelled; a
/// running one has its supervisor's cancel flag raised (workers are
/// killed, completed rows merged and kept); terminal jobs report their
/// state unchanged.
fn handle_cancel(req: &Json, reg: &Arc<Mutex<Registry>>, cfg: &ServeConfig) -> String {
    let Some(id) = req.get("job").and_then(Json::scalar) else {
        return bad("cancel needs a \"job\" id");
    };
    let cancelled = JobState::Cancelled;
    let (state, now) = {
        let mut r = lock(reg);
        let Some(job) = r.jobs.iter_mut().find(|j| j.id == id) else {
            return not_found(&id);
        };
        match job.state {
            JobState::Queued => {
                job.state = cancelled;
                (cancelled.as_str(), true)
            }
            JobState::Running => {
                job.cancel.store(true, Ordering::SeqCst);
                // The executor journals the terminal record when the
                // supervisor actually stops.
                ("cancelling", false)
            }
            state => (state.as_str(), false),
        }
    };
    if now {
        let wall_s = [("wall_s", wall(0.0))];
        journal(&cfg.state, &id, cancelled, wall_s).unwrap_or_else(|e| warn(e.message));
        job_event(&cfg.state, &id, cancelled, 0.0, None);
    }
    ok_record([("job", jstr(&id)), ("state", jstr(state))])
}

/// Handles `watch`: streams completed rows as JSONL in grid order as
/// they retire. While the job runs only the contiguous prefix is
/// emitted (later rows may still fill earlier gaps); once it reaches a
/// terminal state every row on disk is flushed (a cancelled or partial
/// job yields its completed rows, with gaps). `from` skips the first N
/// stream rows, making an interrupted watch resumable.
fn handle_watch(
    req: &Json,
    reg: &Arc<Mutex<Registry>>,
    cfg: &ServeConfig,
    w: &mut impl Write,
) -> std::io::Result<()> {
    let Some(id) = req.get("job").and_then(Json::scalar) else {
        return writeln!(w, "{}", bad("watch needs a \"job\" id"));
    };
    let from: usize = req
        .get("from")
        .and_then(Json::scalar)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    if !lock(reg).jobs.iter().any(|j| j.id == id) {
        // An unknown job is a structured not-found record, never a
        // silently empty stream.
        return writeln!(w, "{}", not_found(&id));
    }
    let out = rows_path(&cfg.state, &id);
    let mut sent = from;
    loop {
        let state = lock(reg).jobs.iter().find(|j| j.id == id).map(|j| j.state);
        let Some(state) = state else {
            let vanished = err_record("not-found", &format!("job {id:?} vanished"));
            return writeln!(w, "{vanished}");
        };
        let rows = collect_rows(&out);
        if state.terminal() {
            for (_, line) in rows.iter().skip(sent) {
                writeln!(w, "{line}")?;
            }
            w.flush()?;
            return Ok(());
        }
        // Contiguous prefix only: row k is safe to emit once every
        // earlier grid index is on disk too.
        let mut prefix = 0;
        for (k, &(i, _)) in rows.iter().enumerate() {
            if i as usize == k {
                prefix = k + 1;
            } else {
                break;
            }
        }
        let mut progressed = false;
        while sent < prefix {
            writeln!(w, "{}", rows[sent].1)?;
            sent += 1;
            progressed = true;
        }
        if progressed {
            w.flush()?;
        }
        std::thread::sleep(POLL);
    }
}

/// Answers one request line (watch streams directly). The blank-line
/// terminator is written by the caller.
fn respond(
    line: &str,
    reg: &Arc<Mutex<Registry>>,
    cfg: &ServeConfig,
    w: &mut impl Write,
) -> std::io::Result<()> {
    let req = match parse_json(line.trim()) {
        Ok(v @ Json::Obj(_)) => v,
        Ok(_) => return writeln!(w, "{}", bad("request must be a JSON object")),
        Err(e) => return writeln!(w, "{}", bad(&format!("malformed request: {e}"))),
    };
    let records = match req.get("verb").and_then(Json::scalar).as_deref() {
        None => vec![bad("request has no \"verb\"")],
        Some("submit") => vec![handle_submit(&req, reg, cfg)],
        Some("status") => handle_status(&req, reg, cfg),
        Some("watch") => return handle_watch(&req, reg, cfg, w),
        Some("cancel") => vec![handle_cancel(&req, reg, cfg)],
        Some("shutdown") => {
            let pending = {
                let mut r = lock(reg);
                r.draining = true;
                r.jobs.iter().filter(|j| !j.state.terminal()).count()
            };
            event("draining", [("jobs_pending", Json::num(pending))]);
            let draining = [
                ("state", jstr("draining")),
                ("jobs_pending", Json::num(pending)),
            ];
            vec![ok_record(draining)]
        }
        Some(other) => vec![bad(&format!(
            "unknown verb {other:?}; valid: submit, status, watch, cancel, shutdown"
        ))],
    };
    for record in records {
        writeln!(w, "{record}")?;
    }
    Ok(())
}

/// One connection: a loop of request lines, each answered by response
/// lines plus a blank terminator. Errors (including malformed lines)
/// are structured records; only I/O failure ends the connection.
fn handle_conn(stream: TcpStream, reg: &Arc<Mutex<Registry>>, cfg: &ServeConfig) {
    // A dead peer must not pin the thread forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(3600)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut w = std::io::BufWriter::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return, // peer closed / timed out
            Ok(_) => {}
        }
        if line.trim().is_empty() {
            continue;
        }
        if respond(&line, reg, cfg, &mut w).is_err() {
            return;
        }
        // Response terminator; flush so one-shot clients see it now.
        if writeln!(w).and_then(|()| w.flush()).is_err() {
            return;
        }
    }
}

/// Runs the service until a `shutdown` request drains the queue.
/// Prints one `{"serve":"listening","addr":...}` line on stdout once
/// the socket is bound (with the resolved port — `--addr host:0` binds
/// an ephemeral one).
///
/// # Errors
///
/// Bind/setup failures and journal corruption; per-connection and
/// per-job failures are handled in-protocol.
pub fn serve(cfg: &ServeConfig) -> Result<(), CliError> {
    std::fs::create_dir_all(&cfg.state).map_err(|e| {
        CliError::semantic(format!(
            "error: cannot create state dir {}: {e}",
            cfg.state.display()
        ))
    })?;
    let reg = Arc::new(Mutex::new(Registry::load(&cfg.state)?));
    let listener = TcpListener::bind(&cfg.addr)
        .map_err(|e| CliError::semantic(format!("error: cannot bind {}: {e}", cfg.addr)))?;
    let local = listener
        .local_addr()
        .map_err(|e| CliError::semantic(format!("error: cannot resolve bound address: {e}")))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| CliError::semantic(format!("error: cannot set nonblocking accept: {e}")))?;
    let listening = Json::obj([
        ("serve", jstr("listening")),
        ("addr", jstr(&local.to_string())),
        ("state", jstr(&cfg.state.display().to_string())),
        ("workers", Json::num(cfg.policy.workers)),
    ]);
    // stdout is the machine-readable channel (tests read the bound
    // address from it); make sure the line is out before accepting.
    let mut stdout = std::io::stdout().lock();
    let _ = writeln!(stdout, "{}", listening.render()).and_then(|()| stdout.flush());
    drop(stdout);

    let exec_reg = Arc::clone(&reg);
    let exec_cfg = cfg.clone();
    let exec = std::thread::spawn(move || executor(&exec_reg, &exec_cfg));

    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let conn_reg = Arc::clone(&reg);
                let conn_cfg = cfg.clone();
                std::thread::spawn(move || handle_conn(stream, &conn_reg, &conn_cfg));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if lock(&reg).finished {
                    break;
                }
                std::thread::sleep(POLL);
            }
            Err(e) => {
                return Err(CliError::semantic(format!("error: accept failed: {e}")));
            }
        }
    }
    let _ = exec.join();
    event("drained", []);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_states_round_trip_and_classify() {
        for s in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Partial,
            JobState::Failed,
            JobState::Cancelled,
        ] {
            assert_eq!(JobState::parse(s.as_str()), Some(s));
            assert_eq!(
                s.terminal(),
                !matches!(s, JobState::Queued | JobState::Running)
            );
        }
        assert_eq!(JobState::parse("nope"), None);
    }

    #[test]
    fn journal_ingest_drops_torn_tail_and_rejects_midfile_garbage() {
        let good = "{\"job\":\"a\",\"state\":\"queued\",\"name\":\"n\",\"grid\":4}\n";
        let recs = ingest_journal(good, "j").unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].id, "a");
        assert_eq!(recs[0].state, JobState::Queued);
        assert_eq!(recs[0].grid, 4);

        // Torn tail (no newline) is dropped.
        let torn = format!("{good}{{\"job\":\"b\",\"sta");
        assert_eq!(ingest_journal(&torn, "j").unwrap().len(), 1);
        // Unterminated but valid final line is also treated as torn.
        let unterminated = format!("{good}{}", good.trim_end());
        assert_eq!(ingest_journal(&unterminated, "j").unwrap().len(), 1);
        // Garbage mid-file is an error.
        let corrupt = format!("garbage\n{good}");
        assert!(ingest_journal(&corrupt, "j").is_err());
    }

    #[test]
    fn job_id_is_deterministic_and_grid_sensitive() {
        let spec = SweepSpec::new(ndp_sim::SimConfig::cli_default()).axis("pwc_entries", &[16, 64]);
        let (id1, grid1) = job_id(&spec).unwrap();
        let (id2, _) = job_id(&spec).unwrap();
        assert_eq!(id1, id2);
        assert_eq!(grid1, 2);
        let wider =
            SweepSpec::new(ndp_sim::SimConfig::cli_default()).axis("pwc_entries", &[16, 64, 256]);
        assert_ne!(job_id(&wider).unwrap().0, id1);
    }
}
