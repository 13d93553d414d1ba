#![forbid(unsafe_code)]
//! `ndp-lint`: the workspace invariant checker.
//!
//! The repo's correctness story rests on conventions no compiler
//! checks: every `SimConfig` knob registered in `KNOBS`, every report
//! stat hashed into `RunReport::fingerprint()`, hot-path crates free of
//! unordered maps and wall-clock time, I/O paths free of panics. This
//! crate is a hand-rolled, dependency-free Rust source scanner — in-repo
//! character, like the serde-free JSON parser — that turns those tribal
//! rules into machine-checked ones:
//!
//! * [`rules::registry_rule`] — **registry-completeness** / **flag-docs**:
//!   every `pub` field of `SimConfig` has a `KNOBS` entry, knob names and
//!   flags are unique, every flag is documented in README.md.
//! * [`rules::digest_rule`] — **digest-coverage**: every field of
//!   `RunReport` and its stats sub-structs is referenced inside
//!   `fingerprint()` or allowlisted with a reason.
//! * [`rules::determinism_rule`] — **determinism**: no
//!   `std::collections::{HashMap,HashSet}`, `Instant`, `SystemTime` or
//!   `thread_rng` in non-test code of the deterministic crates.
//! * [`rules::panic_free_rule`] — **panic-free-io**: no
//!   `unwrap()`/`expect()`/`panic!` and no print macro (`print!`,
//!   `println!`, `eprint!`, `eprintln!`) outside tests in supervisor,
//!   service, CLI and spec ingest/resume code.
//! * [`rules::forbid_unsafe_rule`] — **forbid-unsafe**: every crate root
//!   carries `#![forbid(unsafe_code)]`.
//! * [`allow`] — **allow-hygiene** / **stale-allow**: `lint.allow`
//!   entries are `path: line-pattern # reason`, and an entry that no
//!   longer suppresses anything is itself an error.
//!
//! Diagnostics are clippy-style `file:line: rule-name: message`; the
//! binary exits nonzero on any.

pub mod allow;
pub mod diag;
pub mod rules;
pub mod scan;

use diag::Diagnostic;
use rules::Workspace;

/// Runs every rule family and applies the allowlist; the returned
/// diagnostics are what the binary prints (empty = clean tree).
#[must_use]
pub fn check(ws: &Workspace, allow_text: &str) -> Vec<Diagnostic> {
    let allowlist = allow::parse(allow_text);
    let mut diags = allow::apply(&allowlist, rules::run_all(ws));
    diags.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::SourceFile;

    #[test]
    fn check_applies_allowlist_and_flags_stale_entries() {
        let ws = Workspace {
            files: vec![SourceFile::new(
                "crates/core/src/radix.rs",
                "use std::collections::HashSet;\n",
            )],
            readme: String::new(),
        };
        // Unsuppressed: one determinism diagnostic.
        let out = check(&ws, "");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "determinism");

        // Suppressed by a matching entry: clean.
        let out = check(
            &ws,
            "crates/core/src/radix.rs: HashSet # seeded fixture exemption\n",
        );
        assert!(out.is_empty(), "{out:?}");

        // A deliberately-stale entry is itself an error.
        let out = check(
            &ws,
            "crates/core/src/radix.rs: HashSet # fixture\n\
             crates/core/src/radix.rs: NoSuchToken # stale on purpose\n",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "stale-allow");
        assert_eq!(out[0].file, "lint.allow");
        assert_eq!(out[0].line, 2);
    }

    #[test]
    fn diagnostics_sort_stably_by_file_then_line() {
        let ws = Workspace {
            files: vec![
                SourceFile::new("crates/sim/src/b.rs", "use std::collections::HashMap;\n"),
                SourceFile::new(
                    "crates/core/src/a.rs",
                    "pub fn f() {}\nuse std::collections::HashMap;\n",
                ),
            ],
            readme: String::new(),
        };
        let out = check(&ws, "");
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].file, "crates/core/src/a.rs");
        assert_eq!(out[1].file, "crates/sim/src/b.rs");
    }
}
