//! The five rule families.
//!
//! Every rule walks prepared [`SourceFile`]s — no filesystem access —
//! so each family's tests seed violations into synthetic workspaces.

use crate::diag::Diagnostic;
use crate::scan::{has_token, line_of, matching, SourceFile};

/// The workspace as the rules see it.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Every Rust source file, with workspace-relative paths.
    pub files: Vec<SourceFile>,
    /// `README.md` text (flag-documentation rule).
    pub readme: String,
}

impl Workspace {
    /// Looks a file up by exact relative path.
    #[must_use]
    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }
}

/// Where `SimConfig` lives.
pub const CONFIG_RS: &str = "crates/sim/src/config.rs";
/// Where the `KNOBS` registry lives.
pub const SPEC_RS: &str = "crates/sim/src/spec.rs";
/// Where `RunReport` and its stats sub-structs live.
pub const REPORT_RS: &str = "crates/sim/src/report.rs";

/// Crates whose non-test code must be deterministic: no unordered std
/// maps, no wall-clock time, no ambient RNG. `crates/bench` (and the
/// vendored shims) are deliberately absent — the supervisor and the
/// bench harness legitimately need wall-clock timeouts.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "crates/types/src/",
    "crates/core/src/",
    "crates/mmu/src/",
    "crates/cache/src/",
    "crates/mem/src/",
    "crates/workloads/src/",
    "crates/sim/src/",
];

/// The arena module that owns all page-table PTE storage.
pub const ARENA_RS: &str = "crates/core/src/arena.rs";

/// I/O-path files where `unwrap`/`expect`/`panic!` must not appear in
/// non-test code: ingest, resume and supervision surface errors instead
/// of crashing mid-sweep.
pub const PANIC_FREE_FILES: &[&str] = &[
    "crates/bench/src/supervisor.rs",
    "crates/bench/src/cli.rs",
    "crates/bench/src/serve.rs",
    "crates/bench/src/client.rs",
    "crates/sim/src/spec.rs",
];

/// Runs every rule family over the workspace (allowlist not applied).
#[must_use]
pub fn run_all(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    out.extend(registry_rule(ws));
    out.extend(digest_rule(ws));
    out.extend(determinism_rule(ws));
    out.extend(arena_rule(ws));
    out.extend(panic_free_rule(ws));
    out.extend(registry_construction_rule(ws));
    out.extend(forbid_unsafe_rule(ws));
    out
}

// ---------------------------------------------------------------------------
// Shared parsing helpers.
// ---------------------------------------------------------------------------

/// A `pub` field parsed out of a struct body.
#[derive(Debug, Clone)]
struct Field {
    name: String,
    line: usize,
}

/// Byte range (exclusive of the braces) of `pub struct <name> { ... }`
/// in a scrubbed source, or None when absent.
fn struct_body(f: &SourceFile, name: &str) -> Option<(usize, usize)> {
    let needle = format!("pub struct {name}");
    let mut from = 0;
    while let Some(pos) = f.scrubbed[from..].find(&needle) {
        let at = from + pos;
        let after = at + needle.len();
        // Reject prefixes of longer names (SharedLlcStats vs SharedLlc).
        let boundary = f.scrubbed[after..]
            .chars()
            .next()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if boundary {
            let open = at + f.scrubbed[at..].find('{')?;
            let close = matching(f.scrubbed.as_bytes(), open, b'{', b'}')?;
            return Some((open + 1, close));
        }
        from = after;
    }
    None
}

/// `pub` fields declared in a scrubbed byte range of `f`.
fn pub_fields(f: &SourceFile, range: (usize, usize)) -> Vec<Field> {
    let (start, end) = range;
    let mut fields = Vec::new();
    let mut offset = start;
    for line in f.scrubbed[start..end].lines() {
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("pub ") {
            if let Some(colon) = rest.find(':') {
                let name = rest[..colon].trim();
                if !name.is_empty()
                    && name.chars().all(|c| c.is_alphanumeric() || c == '_')
                    // `pub fn`/`pub const` etc. never parse as a lone
                    // identifier before `:`, but be explicit anyway.
                    && !matches!(name, "fn" | "const" | "static" | "struct" | "enum" | "use")
                {
                    fields.push(Field {
                        name: name.to_string(),
                        line: line_of(&f.scrubbed, offset),
                    });
                }
            }
        }
        offset += line.len() + 1;
    }
    fields
}

/// Body byte range of `fn <name>(...) { ... }` in a scrubbed source.
fn fn_body(f: &SourceFile, name: &str) -> Option<(usize, usize)> {
    let needle = format!("fn {name}(");
    let at = f.scrubbed.find(&needle)?;
    let open = at + f.scrubbed[at..].find('{')?;
    let close = matching(f.scrubbed.as_bytes(), open, b'{', b'}')?;
    Some((open + 1, close))
}

// ---------------------------------------------------------------------------
// Rule family 1: registry completeness.
// ---------------------------------------------------------------------------

/// A `KnobDef` literal parsed out of the `KNOBS` table.
#[derive(Debug, Clone)]
struct Knob {
    name: String,
    name_line: usize,
    flag: Option<(String, usize)>,
}

/// Parses the `KNOBS` table from `spec.rs` raw text (the names live in
/// string literals, so the scrubbed copy only guides bracket matching).
fn parse_knobs(spec: &SourceFile) -> Vec<Knob> {
    let Some(at) = spec.scrubbed.find("pub static KNOBS") else {
        return Vec::new();
    };
    // The array literal's `[` is the first one after the `=` (the one
    // before it belongs to the `&[KnobDef]` type annotation).
    let Some(eq_rel) = spec.scrubbed[at..].find('=') else {
        return Vec::new();
    };
    let eq = at + eq_rel;
    let Some(open_rel) = spec.scrubbed[eq..].find('[') else {
        return Vec::new();
    };
    let open = eq + open_rel;
    let Some(close) = matching(spec.scrubbed.as_bytes(), open, b'[', b']') else {
        return Vec::new();
    };
    let mut knobs: Vec<Knob> = Vec::new();
    let mut offset = open;
    for line in spec.raw[open..close].lines() {
        let lineno = line_of(&spec.raw, offset);
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("name: \"") {
            if let Some(q) = rest.find('"') {
                knobs.push(Knob {
                    name: rest[..q].to_string(),
                    name_line: lineno,
                    flag: None,
                });
            }
        } else if let Some(rest) = t.strip_prefix("flag: Some(\"") {
            if let (Some(q), Some(last)) = (rest.find('"'), knobs.last_mut()) {
                if last.flag.is_none() {
                    last.flag = Some((rest[..q].to_string(), lineno));
                }
            }
        }
        offset += line.len() + 1;
    }
    knobs
}

/// Registry completeness: every `pub` field of `SimConfig` has a `KNOBS`
/// entry (the `_override` suffix maps to the bare knob name), knob names
/// and flags are unique, and every flag appears in README.md.
#[must_use]
pub fn registry_rule(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let (Some(config), Some(spec)) = (ws.file(CONFIG_RS), ws.file(SPEC_RS)) else {
        return out;
    };
    let Some(body) = struct_body(config, "SimConfig") else {
        out.push(Diagnostic::new(
            CONFIG_RS,
            1,
            "registry-completeness",
            "cannot find `pub struct SimConfig` — the registry rule has nothing to check",
            "",
        ));
        return out;
    };
    let fields = pub_fields(config, body);
    let knobs = parse_knobs(spec);
    if knobs.is_empty() {
        out.push(Diagnostic::new(
            SPEC_RS,
            1,
            "registry-completeness",
            "cannot find the `pub static KNOBS` table",
            "",
        ));
        return out;
    }

    for f in &fields {
        let bare = f.name.strip_suffix("_override").unwrap_or(&f.name);
        let covered = knobs.iter().any(|k| k.name == f.name || k.name == bare);
        if !covered {
            out.push(Diagnostic::new(
                CONFIG_RS,
                f.line,
                "registry-completeness",
                format!(
                    "pub field `SimConfig::{}` has no KNOBS entry (expected a knob named `{}`); \
                     register it in crates/sim/src/spec.rs so specs, flags and fingerprints see it",
                    f.name, bare
                ),
                config.raw_line(f.line),
            ));
        }
    }

    for (i, k) in knobs.iter().enumerate() {
        if knobs[..i].iter().any(|p| p.name == k.name) {
            out.push(Diagnostic::new(
                SPEC_RS,
                k.name_line,
                "registry-completeness",
                format!("knob name `{}` is registered twice", k.name),
                spec.raw_line(k.name_line),
            ));
        }
        if let Some((flag, line)) = &k.flag {
            if knobs[..i]
                .iter()
                .any(|p| p.flag.as_ref().is_some_and(|(pf, _)| pf == flag))
            {
                out.push(Diagnostic::new(
                    SPEC_RS,
                    *line,
                    "registry-completeness",
                    format!("flag `{flag}` is bound to two knobs"),
                    spec.raw_line(*line),
                ));
            }
            if !ws.readme.contains(flag.as_str()) {
                out.push(Diagnostic::new(
                    SPEC_RS,
                    *line,
                    "flag-docs",
                    format!(
                        "flag `{flag}` (knob `{}`) is not documented in README.md",
                        k.name
                    ),
                    spec.raw_line(*line),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule family 2: digest coverage.
// ---------------------------------------------------------------------------

/// Digest coverage: every `pub` field of every `pub` struct in
/// `report.rs` must be referenced inside `RunReport::fingerprint()` (or
/// carry a `lint.allow` entry with a reason). A report field the digest
/// silently ignores makes every CI digest gate vacuous for it.
#[must_use]
pub fn digest_rule(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let Some(report) = ws.file(REPORT_RS) else {
        return out;
    };
    let Some((body_start, body_end)) = fn_body(report, "fingerprint") else {
        out.push(Diagnostic::new(
            REPORT_RS,
            1,
            "digest-coverage",
            "cannot find `fn fingerprint(` — the digest rule has nothing to check",
            "",
        ));
        return out;
    };
    let fingerprint = &report.raw[body_start..body_end];

    // Every pub struct declared in report.rs is part of the report
    // surface: RunReport itself plus its stats sub-structs.
    let mut from = 0;
    while let Some(pos) = report.scrubbed[from..].find("pub struct ") {
        let at = from + pos;
        let name: String = report.scrubbed[at + "pub struct ".len()..]
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        from = at + "pub struct ".len();
        if name.is_empty() {
            continue;
        }
        let Some(range) = struct_body(report, &name) else {
            continue;
        };
        for f in pub_fields(report, range) {
            if !has_token(fingerprint, &f.name) {
                out.push(Diagnostic::new(
                    REPORT_RS,
                    f.line,
                    "digest-coverage",
                    format!(
                        "pub field `{}::{}` is not referenced in RunReport::fingerprint(); \
                         hash it, or allowlist it in lint.allow with a reason",
                        name, f.name
                    ),
                    report.raw_line(f.line),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule family 3: determinism.
// ---------------------------------------------------------------------------

/// Forbidden tokens and what to use instead.
const DETERMINISM_TOKENS: &[(&str, &str)] = &[
    (
        "HashMap",
        "use ndp_types::FastMap (fixed-seed, deterministic iteration)",
    ),
    (
        "HashSet",
        "use ndp_types::FastSet (fixed-seed, deterministic iteration)",
    ),
    (
        "Instant",
        "simulated time only — wall-clock reads make runs unreproducible",
    ),
    (
        "SystemTime",
        "simulated time only — wall-clock reads make runs unreproducible",
    ),
    (
        "thread_rng",
        "use the vendored seedable rand::Rng with an explicit seed",
    ),
];

/// Determinism: hot-path crates must not reach for unordered std maps,
/// wall-clock time or ambient RNG outside test code.
#[must_use]
pub fn determinism_rule(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in &ws.files {
        if !DETERMINISTIC_CRATES.iter().any(|p| f.rel.starts_with(p)) {
            continue;
        }
        for (lineno, line) in f.scrubbed_lines() {
            if f.is_test_line(lineno) {
                continue;
            }
            for (token, fix) in DETERMINISM_TOKENS {
                if has_token(line, token) {
                    out.push(Diagnostic::new(
                        &f.rel,
                        lineno,
                        "determinism",
                        format!("`{token}` is forbidden in deterministic crates; {fix}"),
                        f.raw_line(lineno),
                    ));
                }
            }
        }
    }
    out
}

/// Arena allocation (determinism family): page-table nodes draw their
/// PTE storage from the contiguous `PteArena` slab; a per-node
/// `Vec<Pte>` outside `arena.rs` reintroduces the pointer-chasing
/// layout the arena replaced and scatters walk state across the heap.
/// Construction-time code that legitimately owns a PTE vector (e.g. the
/// cuckoo table's leaf array, which is not a tree node) carries a `lint.allow`
/// entry with its reason.
#[must_use]
pub fn arena_rule(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in &ws.files {
        if !f.rel.starts_with("crates/core/src/") || f.rel == ARENA_RS {
            continue;
        }
        for (lineno, line) in f.scrubbed_lines() {
            if f.is_test_line(lineno) {
                continue;
            }
            if line.contains("Vec<Pte>") {
                out.push(Diagnostic::new(
                    &f.rel,
                    lineno,
                    "arena-allocation",
                    "per-node `Vec<Pte>` allocation outside arena.rs; carve PTE storage \
                     from `PteArena` (or allowlist construction-time code in lint.allow \
                     with a reason)",
                    f.raw_line(lineno),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule family 4: panic-freedom in I/O paths.
// ---------------------------------------------------------------------------

/// Panic-prone constructs that must not appear on I/O paths.
const PANIC_TOKENS: &[&str] = &[".unwrap()", ".expect(", "panic!", "unreachable!"];

/// Print macros, which panic when their stream fails (a closed stderr
/// pipe, say). Matched as whole tokens, so `eprint!` is not `print!`.
const PRINT_MACROS: &[&str] = &["print!", "println!", "eprint!", "eprintln!"];

/// Panic freedom: ingest/resume/supervision code surfaces errors instead
/// of crashing a sweep mid-run, and writes its output best effort.
#[must_use]
pub fn panic_free_rule(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for rel in PANIC_FREE_FILES {
        let Some(f) = ws.file(rel) else { continue };
        for (lineno, line) in f.scrubbed_lines() {
            if f.is_test_line(lineno) {
                continue;
            }
            let panics = PANIC_TOKENS.iter().filter(|t| line.contains(*t));
            for token in panics {
                out.push(Diagnostic::new(
                    &f.rel,
                    lineno,
                    "panic-free-io",
                    format!(
                        "`{token}` is forbidden in I/O-path code; return the error \
                         (these paths must survive torn files and dying workers)",
                        token = token.trim_start_matches('.')
                    ),
                    f.raw_line(lineno),
                ));
            }
            for mac in PRINT_MACROS.iter().filter(|m| has_token(line, m)) {
                out.push(Diagnostic::new(
                    &f.rel,
                    lineno,
                    "panic-free-io",
                    format!(
                        "`{mac}` panics when its stream is closed; write best effort \
                         (`let _ = writeln!(std::io::stderr().lock(), ..)`)"
                    ),
                    f.raw_line(lineno),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule family: registry-driven config construction.
// ---------------------------------------------------------------------------

/// Binaries whose `SimConfig`s must be built through the knob registry
/// (`SimConfig::cli_default()` + `apply_knob`/`config_from_args`/
/// `--set`), never the ad-hoc `SimConfig::new(..).with_*(..)`
/// constructors: their grids feed spec files and JSONL coordinates, so
/// a config assembled outside the registry silently drifts from what
/// the committed spec files express and what `calibrate --check`
/// re-derives.
pub const REGISTRY_CONSTRUCTION_FILES: &[&str] = &["crates/bench/src/bin/calibrate.rs"];

/// Construction tokens that bypass the knob registry.
const AD_HOC_CONFIG_TOKENS: &[&str] = &["SimConfig::new(", ".with_ops(", ".with_footprint("];

/// Registry construction: calibration configs come from
/// `SimConfig::cli_default()` + `apply_knob`, keeping the registry the
/// single source of truth for every coordinate the harness emits.
#[must_use]
pub fn registry_construction_rule(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for rel in REGISTRY_CONSTRUCTION_FILES {
        let Some(f) = ws.file(rel) else { continue };
        for (lineno, line) in f.scrubbed_lines() {
            if f.is_test_line(lineno) {
                continue;
            }
            for token in AD_HOC_CONFIG_TOKENS {
                if line.contains(token) {
                    out.push(Diagnostic::new(
                        &f.rel,
                        lineno,
                        "registry-construction",
                        format!(
                            "`{token}..` bypasses the knob registry; build the config \
                             with `SimConfig::cli_default()` + `apply_knob` (or \
                             `config_from_args`) so spec files and JSONL coordinates \
                             cannot drift"
                        ),
                        f.raw_line(lineno),
                    ));
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule family (satellite): forbid(unsafe_code) on every crate root.
// ---------------------------------------------------------------------------

/// Whether a path is a crate root (`src/lib.rs`, `src/main.rs`, or a
/// `src/bin/*.rs` binary root).
#[must_use]
pub fn is_crate_root(rel: &str) -> bool {
    rel == "src/lib.rs"
        || rel == "src/main.rs"
        || rel.ends_with("/src/lib.rs")
        || rel.ends_with("/src/main.rs")
        || (rel.contains("/src/bin/") && rel.ends_with(".rs"))
}

/// Unsafe-freedom: the workspace has zero `unsafe` today; every crate
/// root must carry `#![forbid(unsafe_code)]` so new code keeps it that
/// way (and new crates inherit the guarantee the moment this rule sees
/// their root).
#[must_use]
pub fn forbid_unsafe_rule(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in &ws.files {
        if !is_crate_root(&f.rel) {
            continue;
        }
        if !f.scrubbed.contains("#![forbid(unsafe_code)]") {
            out.push(Diagnostic::new(
                &f.rel,
                1,
                "forbid-unsafe",
                "crate root is missing `#![forbid(unsafe_code)]`",
                f.raw_line(1),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)], readme: &str) -> Workspace {
        Workspace {
            files: files.iter().map(|(r, t)| SourceFile::new(r, t)).collect(),
            readme: readme.to_string(),
        }
    }

    const CONFIG_FIXTURE: &str = "pub struct SimConfig {\n    /// Seed.\n    pub seed: u64,\n    pub footprint_override: Option<u64>,\n    pub mlp_window: u32,\n}\n";

    fn spec_fixture(entries: &[(&str, Option<&str>)]) -> String {
        let mut s = String::from("pub static KNOBS: &[KnobDef] = &[\n");
        for (name, flag) in entries {
            s.push_str(&format!("    KnobDef {{\n        name: \"{name}\",\n"));
            match flag {
                Some(f) => s.push_str(&format!("        flag: Some(\"{f}\"),\n")),
                None => s.push_str("        flag: None,\n"),
            }
            s.push_str("        help: \"h\",\n    },\n");
        }
        s.push_str("];\n");
        s
    }

    #[test]
    fn registry_clean_when_every_field_covered() {
        let spec = spec_fixture(&[
            ("seed", Some("--seed")),
            ("footprint", Some("--footprint-mb")),
            ("mlp_window", Some("--window")),
        ]);
        let w = ws(
            &[(CONFIG_RS, CONFIG_FIXTURE), (SPEC_RS, &spec)],
            "--seed --footprint-mb --window",
        );
        assert_eq!(registry_rule(&w), vec![], "clean fixture must not fire");
    }

    #[test]
    fn registry_flags_missing_knob() {
        // Seeded violation: `mlp_window` has no KNOBS entry.
        let spec = spec_fixture(&[("seed", Some("--seed")), ("footprint", None)]);
        let w = ws(&[(CONFIG_RS, CONFIG_FIXTURE), (SPEC_RS, &spec)], "--seed");
        let d = registry_rule(&w);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "registry-completeness");
        assert_eq!(d[0].file, CONFIG_RS);
        assert_eq!(d[0].line, 5, "anchors at the field declaration");
        assert!(d[0].message.contains("mlp_window"));
    }

    #[test]
    fn registry_maps_override_suffix_to_bare_knob() {
        // `footprint_override` is covered by a knob named `footprint`.
        let spec = spec_fixture(&[("seed", None), ("footprint", None), ("mlp_window", None)]);
        let w = ws(&[(CONFIG_RS, CONFIG_FIXTURE), (SPEC_RS, &spec)], "");
        assert_eq!(registry_rule(&w), vec![]);
    }

    #[test]
    fn registry_flags_duplicates_and_undocumented_flags() {
        let spec = spec_fixture(&[
            ("seed", Some("--seed")),
            ("seed", Some("--seed")),
            ("footprint", Some("--footprint-mb")),
            ("mlp_window", None),
        ]);
        let w = ws(
            &[(CONFIG_RS, CONFIG_FIXTURE), (SPEC_RS, &spec)],
            "--seed only",
        );
        let d = registry_rule(&w);
        let rules: Vec<_> = d.iter().map(|x| (x.rule, x.message.clone())).collect();
        assert!(
            d.iter().any(|x| x.message.contains("registered twice")),
            "{rules:?}"
        );
        assert!(
            d.iter().any(|x| x.message.contains("bound to two knobs")),
            "{rules:?}"
        );
        let docs: Vec<_> = d.iter().filter(|x| x.rule == "flag-docs").collect();
        assert_eq!(docs.len(), 1, "{rules:?}");
        assert!(docs[0].message.contains("--footprint-mb"));
        assert_eq!(docs[0].file, SPEC_RS);
    }

    const REPORT_CLEAN: &str = "pub struct FaultCounts {\n    pub minor_4k: u64,\n}\n\npub struct RunReport {\n    pub ops: u64,\n    pub faults: FaultCounts,\n}\n\nimpl RunReport {\n    pub fn fingerprint(&self) -> u64 {\n        self.ops.hash(&mut h);\n        self.faults.minor_4k.hash(&mut h);\n        h.finish()\n    }\n}\n";

    #[test]
    fn digest_clean_when_every_field_hashed() {
        let w = ws(&[(REPORT_RS, REPORT_CLEAN)], "");
        assert_eq!(digest_rule(&w), vec![]);
    }

    #[test]
    fn digest_flags_unhashed_field_in_report_and_substructs() {
        // Seeded violation: a new stat forgotten in fingerprint().
        let report = REPORT_CLEAN.replace(
            "pub minor_4k: u64,\n",
            "pub minor_4k: u64,\n    pub forgotten_stat: u64,\n",
        );
        let w = ws(&[(REPORT_RS, &report)], "");
        let d = digest_rule(&w);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "digest-coverage");
        assert_eq!(d[0].file, REPORT_RS);
        assert_eq!(d[0].line, 3);
        assert!(d[0].message.contains("FaultCounts::forgotten_stat"));
        assert!(d[0].line_text.contains("forgotten_stat"));
    }

    #[test]
    fn digest_field_name_must_match_as_whole_token() {
        // `ptw` in the fingerprint must not cover `ptw_histogram`.
        let report = "pub struct RunReport {\n    pub ptw: u64,\n    pub ptw_histogram: u64,\n}\nimpl RunReport {\n    pub fn fingerprint(&self) -> u64 {\n        self.ptw.hash(&mut h);\n        0\n    }\n}\n";
        let w = ws(&[(REPORT_RS, report)], "");
        let d = digest_rule(&w);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("ptw_histogram"));
    }

    #[test]
    fn determinism_flags_live_code_only() {
        let src = "use std::collections::HashMap;\npub fn f() { let t = Instant::now(); }\n#[cfg(test)]\nmod tests {\n    fn t() { let s = std::collections::HashSet::new(); }\n}\n";
        let w = ws(&[("crates/core/src/radix.rs", src)], "");
        let d = determinism_rule(&w);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().all(|x| x.rule == "determinism"));
        assert_eq!(d[0].line, 1);
        assert!(d[0].message.contains("HashMap"));
        assert_eq!(d[1].line, 2);
        assert!(d[1].message.contains("Instant"));
    }

    #[test]
    fn determinism_ignores_comments_strings_and_foreign_crates() {
        let commented =
            "// a HashMap in a comment\npub fn f() { let s = \"HashSet in a string\"; }\n";
        let bench = "use std::time::Instant;\npub fn t() { let _ = Instant::now(); }\n";
        let w = ws(
            &[
                ("crates/mmu/src/tlb.rs", commented),
                ("crates/bench/src/supervisor.rs", bench),
                ("tests/spec_api.rs", "use std::collections::HashMap;\n"),
            ],
            "",
        );
        assert_eq!(determinism_rule(&w), vec![]);
    }

    #[test]
    fn arena_flags_vec_pte_outside_arena_module() {
        // Seeded violation: a table growing its own PTE vector per node.
        let src = "pub struct Node {\n    ptes: Vec<Pte>,\n}\n#[cfg(test)]\nmod tests {\n    fn t() { let v: Vec<Pte> = Vec::new(); }\n}\n";
        let w = ws(&[("crates/core/src/radix.rs", src)], "");
        let d = arena_rule(&w);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "arena-allocation");
        assert_eq!(d[0].line, 2);
        assert!(d[0].message.contains("PteArena"));
    }

    #[test]
    fn arena_ignores_the_arena_module_comments_and_foreign_crates() {
        let arena = "pub struct PteArena {\n    ptes: Vec<Pte>,\n}\n";
        let commented = "// the old Vec<Pte> layout\npub fn f() {}\n";
        let w = ws(
            &[
                (ARENA_RS, arena),
                ("crates/core/src/flat.rs", commented),
                ("crates/sim/src/machine.rs", "pub a: Vec<Pte>,\n"),
            ],
            "",
        );
        assert_eq!(arena_rule(&w), vec![]);
    }

    #[test]
    fn panic_free_flags_unwrap_expect_panic_outside_tests() {
        let src = "pub fn load() {\n    let x = read().unwrap();\n    let y = parse().expect(\"boom\");\n    panic!(\"no\");\n}\n#[cfg(test)]\nmod tests {\n    fn t() { other().unwrap(); }\n}\n";
        let w = ws(&[("crates/bench/src/supervisor.rs", src)], "");
        let d = panic_free_rule(&w);
        assert_eq!(d.len(), 3, "{d:?}");
        assert!(d.iter().all(|x| x.rule == "panic-free-io"));
        assert_eq!(d.iter().map(|x| x.line).collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    fn panic_free_flags_print_macros_outside_tests() {
        let src = "pub fn run() {\n    eprintln!(\"x\");\n    println!(\"y\");\n    print!(\"z\");\n    eprint!(\"w\");\n    let _ = writeln!(std::io::stderr().lock(), \"ok\");\n    let s = \"eprintln!\"; // println!\n}\n#[cfg(test)]\nmod tests {\n    fn t() { println!(\"fine\"); }\n}\n";
        let w = ws(
            &[
                ("crates/bench/src/serve.rs", src),
                (
                    "crates/bench/src/lib.rs",
                    "pub fn f() { println!(\"table\"); }\n",
                ),
            ],
            "",
        );
        let d = panic_free_rule(&w);
        assert_eq!(d.len(), 4, "{d:?}");
        assert!(d
            .iter()
            .all(|x| x.rule == "panic-free-io" && x.file == "crates/bench/src/serve.rs"));
        assert_eq!(
            d.iter().map(|x| x.line).collect::<Vec<_>>(),
            vec![2, 3, 4, 5]
        );
    }

    #[test]
    fn panic_free_allows_unwrap_or_variants_and_other_files() {
        let src =
            "pub fn f() { let x = v.unwrap_or_else(Default::default); let y = v.unwrap_or(0); }\n";
        let elsewhere = "pub fn f() { x.unwrap(); }\n";
        let w = ws(
            &[
                ("crates/bench/src/cli.rs", src),
                ("crates/sim/src/machine.rs", elsewhere),
            ],
            "",
        );
        assert_eq!(panic_free_rule(&w), vec![]);
    }

    #[test]
    fn registry_construction_flags_ad_hoc_config_in_calibrate() {
        let src = "fn main() {\n    let cfg = SimConfig::new(system, cores, m, w)\n        .with_ops(10, 30)\n        .with_footprint(mb << 20);\n}\n#[cfg(test)]\nmod tests {\n    fn t() { let c = SimConfig::new(s, 1, m, w); }\n}\n";
        let w = ws(&[("crates/bench/src/bin/calibrate.rs", src)], "");
        let d = registry_construction_rule(&w);
        assert_eq!(d.len(), 3, "{d:?}");
        assert!(d.iter().all(|x| x.rule == "registry-construction"));
        assert_eq!(d.iter().map(|x| x.line).collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    fn registry_construction_ignores_other_files_and_registry_calls() {
        let clean = "fn main() {\n    let mut cfg = SimConfig::cli_default();\n    apply_knob(&mut cfg, \"footprint\", \"1024\").unwrap();\n}\n";
        let elsewhere = "pub fn f() { let c = SimConfig::new(s, 1, m, w).with_ops(1, 2); }\n";
        let w = ws(
            &[
                ("crates/bench/src/bin/calibrate.rs", clean),
                ("crates/bench/src/bin/figures.rs", elsewhere),
            ],
            "",
        );
        assert_eq!(registry_construction_rule(&w), vec![]);
    }

    #[test]
    fn forbid_unsafe_checks_all_crate_roots() {
        let w = ws(
            &[
                (
                    "crates/types/src/lib.rs",
                    "#![forbid(unsafe_code)]\npub mod x;\n",
                ),
                ("crates/cache/src/lib.rs", "//! Doc.\npub mod y;\n"),
                ("crates/bench/src/bin/ndpsim.rs", "fn main() {}\n"),
                ("crates/cache/src/set_assoc.rs", "pub fn not_a_root() {}\n"),
                ("src/lib.rs", "#![forbid(unsafe_code)]\n"),
            ],
            "",
        );
        let d = forbid_unsafe_rule(&w);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().all(|x| x.rule == "forbid-unsafe"));
        let files: Vec<_> = d.iter().map(|x| x.file.as_str()).collect();
        assert!(files.contains(&"crates/cache/src/lib.rs"));
        assert!(files.contains(&"crates/bench/src/bin/ndpsim.rs"));
    }

    #[test]
    fn crate_root_classification() {
        assert!(is_crate_root("src/lib.rs"));
        assert!(is_crate_root("crates/lint/src/main.rs"));
        assert!(is_crate_root("vendor/rand/src/lib.rs"));
        assert!(is_crate_root("crates/bench/src/bin/figures.rs"));
        assert!(!is_crate_root("crates/bench/src/cli.rs"));
        assert!(!is_crate_root("tests/spec_api.rs"));
    }
}
