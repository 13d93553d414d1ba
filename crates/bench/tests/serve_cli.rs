//! Integration tests for the experiment service: `ndpsim serve` plus
//! the `submit`/`status`/`watch`/`cancel`/`shutdown` client verbs, all
//! over a real loopback socket.
//!
//! The acceptance bar is the same as every execution layer before it:
//! the bytes `watch` streams must be identical to an offline
//! `ndpsim sweep` of the same spec — including with an injected worker
//! fault and across a mid-job server kill+restart — and cancellation
//! must keep completed rows with the journal recording the terminal
//! state.

use ndp_sim::spec::parse_json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

fn ndpsim() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ndpsim"));
    // Never inherit a fault plan from the ambient environment; tests
    // that want one set it explicitly.
    cmd.env_remove("NDP_FAULT");
    cmd
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ndp_serve_{}_{tag}", std::process::id()))
}

/// 2x2 grid (pwc_entries x mechanism), sized to finish in well under a
/// second per point.
const QUAD_SPEC: &str = r#"{
  "name": "quad",
  "base": {"workload": "RND", "warmup_ops": 100, "measure_ops": 300,
           "footprint": 134217728},
  "axes": [{"knob": "pwc_entries", "values": [16, 64]},
           {"knob": "mechanism", "values": ["radix", "ndpage"]}]
}"#;

/// Fault plan that holds a QUAD_SPEC job mid-flight: the worker owning
/// grid index 3 hangs before emitting that row, so rows 0..3 land and
/// the job stays `running` until the server's 600 s row timeout.
const HANG_LAST_ROW: &str = "hang@3";

/// A field of a one-line JSON record, as the text it denotes (`None`
/// when the line does not parse or has no such field).
fn field(line: &str, key: &str) -> Option<String> {
    parse_json(line.trim_end()).ok()?.get(key)?.scalar()
}

/// A numeric field of a one-line JSON record.
fn num(line: &str, key: &str) -> Option<u64> {
    field(line, key)?.parse().ok()
}

/// Whether a one-line JSON record's `state` is `state`.
fn in_state(line: &str, state: &str) -> bool {
    field(line, "state").as_deref() == Some(state)
}

/// Pids of the live `ndpsim sweep` workers of any job under `state`:
/// every worker is spawned with `--spec`/`--out` paths inside the state
/// dir (the server itself only names the dir, with no trailing `/`), and
/// a zombie's empty cmdline drops out of the match.
fn job_workers(state: &std::path::Path) -> Vec<u32> {
    let needle = format!("{}/", state.to_str().unwrap()).into_bytes();
    let needle = needle.as_slice();
    let Ok(procs) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    procs
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            std::fs::read(format!("/proc/{pid}/cmdline"))
                .is_ok_and(|c| c.windows(needle.len()).any(|w| w == needle))
        })
        .collect()
}

/// SIGKILLs every worker of `state`'s jobs (orphans of a killed server,
/// or a worker hung by a fault plan) and waits until none is left.
fn kill_job_workers(state: &std::path::Path) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let pids = job_workers(state);
        if pids.is_empty() {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "workers {pids:?} survived SIGKILL"
        );
        Command::new("kill")
            .arg("-9")
            .args(pids.iter().map(u32::to_string))
            .stderr(Stdio::null())
            .status()
            .ok();
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// `line` with the value of its `"wall_s"` field replaced by `W`: wall
/// time is the one nondeterministic field of status and journal
/// records, so everything else about them can be pinned byte for byte.
fn mask_wall(line: &str) -> String {
    let key = "\"wall_s\":";
    let Some(at) = line.find(key) else {
        return line.to_string();
    };
    let start = at + key.len();
    let len = line[start..]
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(line.len() - start);
    format!("{}W{}", &line[..start], &line[start + len..])
}

/// A running `ndpsim serve` child bound to an ephemeral loopback port.
struct Server {
    child: Child,
    addr: String,
    state: PathBuf,
    /// The first stdout line (without its newline).
    listening: String,
}

impl Server {
    fn start(state: &std::path::Path, envs: &[(&str, String)]) -> Server {
        Server::start_with(state, envs, Stdio::null())
    }

    fn start_with(state: &std::path::Path, envs: &[(&str, String)], stderr: Stdio) -> Server {
        let mut cmd = ndpsim();
        cmd.args(["serve", "--addr", "127.0.0.1:0"])
            .args(["--state", state.to_str().unwrap()])
            .args(["--workers", "2", "--backoff-ms", "20"])
            .stdout(Stdio::piped())
            .stderr(stderr);
        for (k, v) in envs {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().unwrap();
        let mut line = String::new();
        BufReader::new(child.stdout.take().unwrap())
            .read_line(&mut line)
            .unwrap();
        let addr =
            field(&line, "addr").unwrap_or_else(|| panic!("no addr in listening line: {line:?}"));
        Server {
            child,
            addr,
            state: state.to_path_buf(),
            listening: line.trim_end().to_string(),
        }
    }

    /// Runs one client verb against this server.
    fn client(&self, verb_and_flags: &[&str]) -> Output {
        ndpsim()
            .args(verb_and_flags)
            .args(["--addr", &self.addr])
            .output()
            .unwrap()
    }

    /// Submits a spec string, returning the client's output.
    fn submit_raw(&self, spec: &str, tag: &str) -> Output {
        let path = tmp(&format!("{tag}_spec.json"));
        std::fs::write(&path, spec).unwrap();
        let out = self.client(&["submit", "--spec", path.to_str().unwrap()]);
        std::fs::remove_file(&path).ok();
        out
    }

    /// Submits a spec string, returning the job id and the response.
    fn submit_with_response(&self, spec: &str, tag: &str) -> (String, String) {
        let out = self.submit_raw(spec, tag);
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        assert_eq!(out.status.code(), Some(0), "submit failed: {stdout}");
        let job = field(&stdout, "job").unwrap_or_else(|| panic!("no job id in {stdout:?}"));
        (job, stdout)
    }

    /// Submits a spec string, returning the job id.
    fn submit(&self, spec: &str, tag: &str) -> String {
        self.submit_with_response(spec, tag).0
    }

    /// Polls `status --job` until `pred(status_line)` holds.
    fn wait_status(&self, job: &str, what: &str, pred: impl Fn(&str) -> bool) -> String {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let out = self.client(&["status", "--job", job]);
            let line = String::from_utf8_lossy(&out.stdout).to_string();
            if pred(&line) {
                return line;
            }
            assert!(
                Instant::now() < deadline,
                "timed out waiting for {what}; last status: {line}"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Shuts the server down (every job must be terminal by now) and
    /// returns its journal, one record a line.
    fn shutdown_and_wait(mut self) -> Vec<String> {
        let out = self.client(&["shutdown"]);
        assert_eq!(out.status.code(), Some(0));
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            "{\"ok\":true,\"state\":\"draining\",\"jobs_pending\":0}\n"
        );
        let status = self.child.wait().unwrap();
        assert!(status.success(), "server exit: {status:?}");
        std::fs::read_to_string(self.state.join("journal.jsonl"))
            .unwrap_or_default()
            .lines()
            .map(str::to_string)
            .collect()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
        // A failed test must not leave a fault-hung worker behind.
        kill_job_workers(&self.state);
        std::fs::remove_dir_all(&self.state).ok();
    }
}

/// Offline `ndpsim sweep` reference bytes for a spec.
fn offline_reference(spec: &str, tag: &str) -> String {
    let spec_path = tmp(&format!("{tag}_ref_spec.json"));
    let out_path = tmp(&format!("{tag}_ref.jsonl"));
    std::fs::write(&spec_path, spec).unwrap();
    let out = ndpsim()
        .args(["sweep", "--spec", spec_path.to_str().unwrap()])
        .args(["--out", out_path.to_str().unwrap(), "--jobs", "1"])
        .output()
        .unwrap();
    assert!(out.status.success(), "offline reference failed");
    let text = std::fs::read_to_string(&out_path).unwrap();
    std::fs::remove_file(&spec_path).ok();
    std::fs::remove_file(&out_path).ok();
    text
}

#[test]
fn submit_status_watch_round_trip_matches_offline_bytes() {
    let reference = offline_reference(QUAD_SPEC, "rt");
    let state = tmp("rt_state");
    let server = Server::start(&state, &[]);
    assert_eq!(
        server.listening,
        format!(
            "{{\"serve\":\"listening\",\"addr\":\"{}\",\"state\":\"{}\",\"workers\":2}}",
            server.addr,
            state.display()
        )
    );

    let (job, submitted) = server.submit_with_response(QUAD_SPEC, "rt");
    assert_eq!(
        submitted,
        format!("{{\"ok\":true,\"job\":\"{job}\",\"grid\":4,\"state\":\"queued\",\"queue\":1}}\n")
    );
    // Deterministic ids make re-submission idempotent.
    let again = server.submit(QUAD_SPEC, "rt2");
    assert_eq!(job, again);

    let done = server.wait_status(&job, "job done", |s| in_state(s, "done"));
    assert_eq!(num(&done, "rows_done"), Some(4));
    assert_eq!(num(&done, "rows_total"), Some(4));
    assert_eq!(
        mask_wall(&done),
        format!(
            "{{\"job\":\"{job}\",\"name\":\"quad\",\"state\":\"done\",\"queue\":0,\
             \"rows_done\":4,\"rows_total\":4,\"wall_s\":W}}\n"
        )
    );
    let (_, resubmitted) = server.submit_with_response(QUAD_SPEC, "rt3");
    assert_eq!(
        resubmitted,
        format!(
            "{{\"ok\":true,\"job\":\"{job}\",\"grid\":4,\"state\":\"done\",\"queue\":0,\
             \"note\":\"already submitted\"}}\n"
        )
    );

    // The tentpole acceptance bar: watch bytes == offline sweep bytes.
    let out = server.client(&["watch", "--job", &job]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&out.stdout), reference);

    // Resumable: --from N skips the first N stream rows.
    let out = server.client(&["watch", "--job", &job, "--from", "2"]);
    let tail: Vec<&str> = reference.lines().skip(2).collect();
    let got: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(got, tail);

    let journal = server.shutdown_and_wait();
    assert_eq!(
        journal.iter().map(|l| mask_wall(l)).collect::<Vec<_>>(),
        [
            format!("{{\"job\":\"{job}\",\"state\":\"queued\",\"name\":\"quad\",\"grid\":4}}"),
            format!("{{\"job\":\"{job}\",\"state\":\"running\"}}"),
            format!("{{\"job\":\"{job}\",\"state\":\"done\",\"wall_s\":W}}"),
        ]
    );
}

#[test]
fn watch_streams_while_running_and_fault_recovery_matches_offline_bytes() {
    let reference = offline_reference(QUAD_SPEC, "fault");
    let state = tmp("fault_state");
    let marker = tmp("fault_marker");
    std::fs::remove_file(&marker).ok();
    // The one-shot abort plan reaches the server's worker subprocesses
    // through the inherited environment: the first worker owning grid
    // index 2 dies mid-row, the supervisor respawns it, and the stream
    // the watcher sees must be indistinguishable from a clean run.
    let server = Server::start(
        &state,
        &[(
            "NDP_FAULT",
            format!("abort@2:once={}", marker.to_str().unwrap()),
        )],
    );

    let job = server.submit(QUAD_SPEC, "fault");
    // Start watching before the job finishes: rows arrive as they
    // retire, then the connection closes at the terminal state.
    let out = server.client(&["watch", "--job", &job]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&out.stdout), reference);

    std::fs::remove_file(&marker).ok();
    server.shutdown_and_wait();
}

#[test]
fn server_kill_and_restart_resumes_from_journal_with_identical_bytes() {
    let reference = offline_reference(QUAD_SPEC, "restart");
    let state = tmp("restart_state");
    let job;
    {
        let mut server = Server::start(&state, &[("NDP_FAULT", HANG_LAST_ROW.to_string())]);
        job = server.submit(QUAD_SPEC, "restart");
        // Rows 0..3 land and row 3 hangs, so the job is held mid-flight.
        let held = server.wait_status(&job, "three rows", |s| num(s, "rows_done") == Some(3));
        assert!(in_state(&held, "running"), "{held}");
        // Shutdown while the job is held: the server drains, refusing
        // new submits until the held job ends (it never does here).
        let out = server.client(&["shutdown"]);
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            "{\"ok\":true,\"state\":\"draining\",\"jobs_pending\":1}\n"
        );
        let out = server.submit_raw(QUAD_SPEC, "restart_late");
        assert_eq!(out.status.code(), Some(1));
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            "{\"ok\":false,\"code\":\"draining\",\
             \"error\":\"server is draining; new submits are refused\"}\n"
        );
        // Hard-kill the server mid-job (the journal's last record is
        // `running`).
        server.child.kill().unwrap();
        server.child.wait().unwrap();
        // Drop must not delete the state dir: forget the fixture after
        // taking ownership of cleanup.
        server.state = tmp("restart_nonexistent");
    }

    // The orphaned workers must not race the restarted supervisor's on
    // the same files. Every row that can land already has (rows_done was
    // 3), and the worker owning row 3 hangs forever, so kill the orphans
    // rather than wait for them.
    kill_job_workers(&state);
    let rows_dir = state.join(&job);
    let shard_rows: usize = ndp_sim::shard::existing_shard_files(&rows_dir.join("rows.jsonl"))
        .iter()
        .filter_map(|p| std::fs::read_to_string(p).ok())
        .map(|t| ndp_sim::spec::parse_jsonl(&t).len())
        .sum();
    assert_eq!(shard_rows, 3, "rows on disk before the restart");

    // Restart on the same state dir without the fault: the journal
    // re-enqueues the job, the always-resume supervisor reuses every row
    // on disk and runs only row 3, and watch bytes stay identical to the
    // offline sweep.
    let server = Server::start(&state, &[]);
    server.wait_status(&job, "resumed job done", |s| in_state(s, "done"));
    let out = server.client(&["watch", "--job", &job]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&out.stdout), reference);
    server.shutdown_and_wait();
}

#[test]
fn cancel_kills_workers_keeps_rows_and_journals_terminal_state() {
    let state = tmp("cancel_state");
    let server = Server::start(&state, &[("NDP_FAULT", HANG_LAST_ROW.to_string())]);
    let job = server.submit(QUAD_SPEC, "cancel");

    // Rows 0..3 land and row 3 hangs: cancel while the job is held
    // mid-flight.
    server.wait_status(&job, "three rows", |s| num(s, "rows_done") == Some(3));

    // A second job queues behind the held one, and cancelling it
    // flips it straight to cancelled.
    let (queued, submitted) = server.submit_with_response(&QUAD_SPEC.replace("300", "301"), "q2");
    assert_eq!(
        submitted,
        format!(
            "{{\"ok\":true,\"job\":\"{queued}\",\"grid\":4,\"state\":\"queued\",\"queue\":1}}\n"
        )
    );
    let out = server.client(&["cancel", "--job", &queued]);
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        format!("{{\"ok\":true,\"job\":\"{queued}\",\"state\":\"cancelled\"}}\n")
    );

    let out = server.client(&["cancel", "--job", &job]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        format!("{{\"ok\":true,\"job\":\"{job}\",\"state\":\"cancelling\"}}\n")
    );
    let cancelled = server.wait_status(&job, "cancelled", |s| in_state(s, "cancelled"));
    let kept = num(&cancelled, "rows_done").unwrap();
    assert_eq!(
        kept, 3,
        "cancel mid-flight keeps the landed rows: {cancelled}"
    );
    assert_eq!(
        mask_wall(&cancelled),
        format!(
            "{{\"job\":\"{job}\",\"name\":\"quad\",\"state\":\"cancelled\",\"queue\":0,\
             \"rows_done\":3,\"rows_total\":4,\"wall_s\":W}}\n"
        )
    );
    // Cancelling a terminal job reports its state unchanged.
    let out = server.client(&["cancel", "--job", &job]);
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        format!("{{\"ok\":true,\"job\":\"{job}\",\"state\":\"cancelled\"}}\n")
    );
    // Cancellation killed the hung worker.
    assert_eq!(job_workers(&state), Vec::<u32>::new());

    // Watch on a cancelled job flushes the completed rows (gaps
    // allowed) instead of hanging.
    let out = server.client(&["watch", "--job", &job]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).lines().count(),
        kept as usize
    );

    // The journal records every transition, the terminal ones too.
    let journal = server.shutdown_and_wait();
    assert_eq!(
        journal[3],
        format!("{{\"job\":\"{queued}\",\"state\":\"cancelled\",\"wall_s\":0.000}}"),
        "a job cancelled while queued never ran"
    );
    assert_eq!(
        journal.iter().map(|l| mask_wall(l)).collect::<Vec<_>>(),
        [
            format!("{{\"job\":\"{job}\",\"state\":\"queued\",\"name\":\"quad\",\"grid\":4}}"),
            format!("{{\"job\":\"{job}\",\"state\":\"running\"}}"),
            format!("{{\"job\":\"{queued}\",\"state\":\"queued\",\"name\":\"quad\",\"grid\":4}}"),
            format!("{{\"job\":\"{queued}\",\"state\":\"cancelled\",\"wall_s\":W}}"),
            format!("{{\"job\":\"{job}\",\"state\":\"cancelled\",\"wall_s\":W}}"),
        ]
    );
}

#[test]
fn malformed_lines_get_structured_errors_and_the_connection_survives() {
    let state = tmp("proto_state");
    let server = Server::start(&state, &[]);

    let mut stream = TcpStream::connect(&server.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut send = |req: &str| {
        writeln!(stream, "{req}").unwrap();
        stream.flush().unwrap();
        // Read lines until the blank terminator.
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).unwrap() > 0, "server hung up");
            let content = line.trim_end().to_string();
            if content.is_empty() {
                return lines;
            }
            lines.push(content);
        }
    };

    // Garbage, a non-object, an unknown verb and requests missing
    // their operands each get a structured error on the same
    // connection.
    for (req, expect) in [
        (
            "this is not json",
            "malformed request: invalid literal at byte 0",
        ),
        ("[1,2,3]", "request must be a JSON object"),
        (
            "{\"verb\":\"frobnicate\"}",
            "unknown verb \\\"frobnicate\\\"; valid: submit, status, watch, cancel, shutdown",
        ),
        // The quotes around `verb` arrive JSON-escaped inside the
        // error string.
        ("{\"nope\":1}", "request has no \\\"verb\\\""),
        ("{\"verb\":\"watch\"}", "watch needs a \\\"job\\\" id"),
        ("{\"verb\":\"cancel\"}", "cancel needs a \\\"job\\\" id"),
        (
            "{\"verb\":\"submit\"}",
            "submit needs a \\\"spec\\\" object",
        ),
        (
            "{\"verb\":\"submit\",\"spec\":1}",
            "submit \\\"spec\\\" must be an object",
        ),
    ] {
        let lines = send(req);
        assert_eq!(
            lines,
            [format!(
                "{{\"ok\":false,\"code\":\"bad-request\",\"error\":\"{expect}\"}}"
            )],
            "one error record for {req:?}"
        );
    }

    // ...and the connection still serves real requests afterwards.
    let lines = send("{\"verb\":\"status\"}");
    assert_eq!(lines, vec!["{\"jobs\":0}".to_string()]);

    // Unknown job ids are structured not-found records, not empty
    // streams — on watch, status and cancel alike.
    for verb in ["watch", "status", "cancel"] {
        let lines = send(&format!("{{\"verb\":\"{verb}\",\"job\":\"bogus\"}}"));
        assert_eq!(
            lines,
            ["{\"ok\":false,\"code\":\"not-found\",\"error\":\"unknown job \\\"bogus\\\"\"}"],
            "{verb}"
        );
    }

    // The client maps structured errors to exit code 1.
    let out = server.client(&["watch", "--job", "bogus"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("not-found"));
    // The client escapes job ids: a quote is an unknown job, not a
    // malformed request.
    let out = server.client(&["status", "--job", "a\"b"]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        field(&String::from_utf8_lossy(&out.stdout), "code").as_deref(),
        Some("not-found")
    );

    server.shutdown_and_wait();
}

#[test]
fn submit_validates_specs_and_draining_refuses_new_jobs() {
    let state = tmp("validate_state");
    let server = Server::start(&state, &[]);

    // A spec with an unregistered axis knob is rejected with the
    // registry list, before anything is enqueued or journalled.
    let bad = r#"{"name": "bad", "base": {}, "axes": [{"knob": "bogus_knob", "values": [1]}]}"#;
    let path = tmp("bad_spec.json");
    std::fs::write(&path, bad).unwrap();
    let out = server.client(&["submit", "--spec", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("bogus_knob") && stdout.contains("valid knobs"),
        "stdout: {stdout}"
    );
    assert!(!state.join("journal.jsonl").exists());

    // After shutdown the server drains and refuses submits.
    let out = server.client(&["shutdown"]);
    assert_eq!(out.status.code(), Some(0));
    let path = tmp("late_spec.json");
    std::fs::write(&path, QUAD_SPEC).unwrap();
    let out = server.client(&["submit", "--spec", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    // Either the drain refusal or (if the server already exited) a
    // connection failure ("cannot connect" / "Connection reset") —
    // never an accepted job.
    if out.status.code() == Some(1) {
        let text = (String::from_utf8_lossy(&out.stdout).to_string()
            + &String::from_utf8_lossy(&out.stderr))
            .to_lowercase();
        assert!(
            text.contains("draining") || text.contains("connect"),
            "{text}"
        );
    }
}

/// Events are best effort: with its stderr pipe closed the server
/// loses event lines, never jobs. Both jobs finish and `shutdown`
/// drains.
#[test]
fn closed_stderr_loses_events_not_jobs() {
    let state = tmp("closed_stderr_state");
    let mut server = Server::start_with(&state, &[], Stdio::piped());
    drop(server.child.stderr.take());

    let first = server.submit(QUAD_SPEC, "closed1");
    let second = server.submit(&QUAD_SPEC.replace("300", "301"), "closed2");
    for job in [&first, &second] {
        let done = server.wait_status(job, "job done", |s| in_state(s, "done"));
        assert_eq!(num(&done, "rows_done"), Some(4), "{done}");
    }
    assert_eq!(server.shutdown_and_wait().len(), 6, "three records per job");
}

/// A journal that cannot be appended to fails the submit with a
/// structured `server-error` record, and nothing is enqueued.
#[test]
fn unwritable_journal_is_a_server_error() {
    let state = tmp("unwritable_state");
    // A directory where the journal file should be: reading it on
    // startup finds no records, appending to it fails.
    std::fs::create_dir_all(state.join("journal.jsonl")).unwrap();
    let server = Server::start(&state, &[]);
    let out = server.submit_raw(QUAD_SPEC, "unwritable");
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        format!(
            "{{\"ok\":false,\"code\":\"server-error\",\"error\":\
             \"error: cannot open {}: Is a directory (os error 21)\"}}\n",
            state.join("journal.jsonl").display()
        )
    );
    let out = server.client(&["status"]);
    assert_eq!(String::from_utf8_lossy(&out.stdout), "{\"jobs\":0}\n");
    server.shutdown_and_wait();
}

/// `serve` with a corrupt journal mid-file refuses to start; a torn
/// trailing record is tolerated.
#[test]
fn corrupt_journal_refuses_startup_torn_tail_does_not() {
    let state = tmp("journal_state");
    std::fs::create_dir_all(&state).unwrap();
    std::fs::write(
        state.join("journal.jsonl"),
        "garbage mid-file\n{\"job\":\"x\",\"state\":\"queued\",\"name\":\"n\",\"grid\":1}\n",
    )
    .unwrap();
    let out = ndpsim()
        .args(["serve", "--addr", "127.0.0.1:0"])
        .args(["--state", state.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("corrupt journal record"));

    // A torn tail is dropped with a warning and startup proceeds.
    std::fs::write(
        state.join("journal.jsonl"),
        "{\"job\":\"x\",\"state\":\"queued\",\"name\":\"n\",\"grid\":1}\n{\"job\":\"y\",\"sta",
    )
    .unwrap();
    let mut child = ndpsim()
        .args(["serve", "--addr", "127.0.0.1:0"])
        .args(["--state", state.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut line = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut line)
        .unwrap();
    assert!(line.contains("listening"), "got {line:?}");
    child.kill().ok();
    child.wait().ok();
    std::fs::remove_dir_all(&state).ok();
}

/// The raw protocol supports pipelining independent requests on one
/// connection and the server stays up across client disconnects.
#[test]
fn abrupt_client_disconnects_leave_the_server_healthy() {
    let state = tmp("disconnect_state");
    let server = Server::start(&state, &[]);

    // Open a connection, send half a request, and slam it shut.
    {
        let mut stream = TcpStream::connect(&server.addr).unwrap();
        stream.write_all(b"{\"verb\":\"stat").unwrap();
    }
    // And one that connects and says nothing.
    drop(TcpStream::connect(&server.addr).unwrap());

    // The server still answers on a fresh connection.
    let out = server.client(&["status"]);
    assert_eq!(out.status.code(), Some(0));
    let got = String::from_utf8_lossy(&out.stdout);
    assert!(got.contains("\"jobs\":0"), "status: {got}");

    server.shutdown_and_wait();
}
