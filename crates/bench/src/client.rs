//! The `ndpsim serve` client: `ndpsim submit|status|watch|cancel|shutdown
//! --addr HOST:PORT [...]`.
//!
//! One request line out, response lines in until the blank-line
//! terminator. Response lines (status records, watched sweep rows) are
//! copied to the writer verbatim — for `watch` that makes client
//! stdout byte-identical to the offline `ndpsim sweep` JSONL for the
//! same spec, which is the acceptance bar the integration tests and
//! the CI smoke hold it to.

use crate::cli::{Args, CliError};
use ndp_sim::spec::{parse_json, Json};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// Builds the one-line JSON request for a client verb from its CLI
/// flags (`--spec` for submit; `--job` for watch/cancel and optionally
/// status; `--from` for watch).
///
/// # Errors
///
/// Usage errors for missing/invalid flags; semantic errors for an
/// unreadable or non-object spec file.
pub fn request_line(verb: &str, args: &Args) -> Result<String, CliError> {
    let job = || {
        args.get("--job")
            .map(Json::Str)
            .ok_or_else(|| CliError::usage(format!("error: {verb} requires --job ID")))
    };
    let mut request = vec![("verb", Json::Str(verb.to_string()))];
    match verb {
        "submit" => {
            let path = args
                .get("--spec")
                .ok_or_else(|| CliError::usage("error: submit requires --spec FILE"))?;
            let text = std::fs::read_to_string(&path)
                .map_err(|e| CliError::semantic(format!("error: cannot read {path}: {e}")))?;
            let spec =
                parse_json(&text).map_err(|e| CliError::semantic(format!("error: {path}: {e}")))?;
            if !matches!(spec, Json::Obj(_)) {
                return Err(CliError::semantic(format!(
                    "error: {path}: spec must be a JSON object"
                )));
            }
            request.push(("spec", spec));
        }
        "status" => request.extend(args.get("--job").map(|id| ("job", Json::Str(id)))),
        "watch" => {
            request.push(("job", job()?));
            request.push(("from", Json::num(args.num("--from")?.unwrap_or(0))));
        }
        "cancel" => request.push(("job", job()?)),
        "shutdown" => {}
        other => {
            return Err(CliError::usage(format!(
                "error: unknown client verb {other:?}"
            )))
        }
    }
    // Rendered compactly: the request must be a single line.
    Ok(Json::obj(request).render())
}

/// Sends one request to the service and copies the response lines to
/// `out` until the blank-line terminator (or EOF). Returns the process
/// exit code: 0 normally, 1 if the server answered with a structured
/// `{"ok":false,...}` error record.
///
/// # Errors
///
/// Connection and I/O failures.
pub fn run_request(addr: &str, request: &str, out: &mut impl Write) -> Result<i32, CliError> {
    let stream = TcpStream::connect(addr)
        .map_err(|e| CliError::semantic(format!("error: cannot connect to {addr}: {e}")))?;
    let read_half = stream
        .try_clone()
        .map_err(|e| CliError::semantic(format!("error: cannot clone connection: {e}")))?;
    let mut writer = stream;
    writeln!(writer, "{request}")
        .and_then(|()| writer.flush())
        .map_err(|e| CliError::semantic(format!("error: cannot send request to {addr}: {e}")))?;
    let mut reader = BufReader::new(read_half);
    let mut line = String::new();
    let mut code = 0;
    let mut first = true;
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| CliError::semantic(format!("error: read from {addr} failed: {e}")))?;
        if n == 0 {
            break; // server closed before the terminator; keep what we got
        }
        let content = line.trim_end_matches(['\n', '\r']);
        if content.is_empty() {
            break; // blank-line terminator
        }
        if first && content.starts_with("{\"ok\":false") {
            code = 1;
        }
        first = false;
        writeln!(out, "{content}")
            .map_err(|e| CliError::semantic(format!("error: cannot write response: {e}")))?;
        // Stream rows as they arrive (watch can run for minutes).
        let _ = out.flush();
    }
    Ok(code)
}

/// Runs a client verb end-to-end against `--addr` and exits with the
/// returned code. This is the `ndpsim submit|status|watch|cancel|shutdown`
/// entry point.
///
/// # Errors
///
/// Usage errors for missing `--addr`/flags; semantic errors for
/// connection or I/O failures.
pub fn run_verb(verb: &str, args: &Args) -> Result<i32, CliError> {
    args.reject_unknown(&["--addr", "--spec", "--job", "--from"], &["--help"])?;
    let addr = args
        .get("--addr")
        .ok_or_else(|| CliError::usage(format!("error: {verb} requires --addr HOST:PORT")))?;
    let request = request_line(verb, args)?;
    let mut stdout = std::io::stdout().lock();
    run_request(&addr, &request, &mut stdout)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::new(list.iter().map(|s| (*s).to_string()).collect())
    }

    #[test]
    fn request_lines_take_shape() {
        assert_eq!(
            request_line("status", &args(&[])).unwrap(),
            "{\"verb\":\"status\"}"
        );
        assert_eq!(
            request_line("status", &args(&["--job", "ab-cd"])).unwrap(),
            "{\"verb\":\"status\",\"job\":\"ab-cd\"}"
        );
        assert_eq!(
            request_line("watch", &args(&["--job", "x", "--from", "7"])).unwrap(),
            "{\"verb\":\"watch\",\"job\":\"x\",\"from\":7}"
        );
        assert_eq!(
            request_line("cancel", &args(&["--job", "x"])).unwrap(),
            "{\"verb\":\"cancel\",\"job\":\"x\"}"
        );
        assert_eq!(
            request_line("shutdown", &args(&[])).unwrap(),
            "{\"verb\":\"shutdown\"}"
        );
        // Job ids are escaped, so a quote reaches the server intact.
        let line = request_line("cancel", &args(&["--job", "a\"b"])).unwrap();
        assert_eq!(line, "{\"verb\":\"cancel\",\"job\":\"a\\\"b\"}");
        assert_eq!(
            parse_json(&line).unwrap().get("job"),
            Some(&Json::Str("a\"b".into()))
        );
    }

    #[test]
    fn missing_flags_are_usage_errors() {
        assert_eq!(request_line("watch", &args(&[])).unwrap_err().code, 2);
        assert_eq!(request_line("cancel", &args(&[])).unwrap_err().code, 2);
        assert_eq!(request_line("submit", &args(&[])).unwrap_err().code, 2);
        assert_eq!(request_line("bogus", &args(&[])).unwrap_err().code, 2);
    }
}
