//! Declarative experiment specs: one knob registry, one sweep engine.
//!
//! Historically every sweep was a bespoke struct + hand-rolled grid loop,
//! and `ndpsim` re-implemented ~30 `--flag` parsers that had to be kept
//! in sync with [`SimConfig`] by hand. This module replaces all of that
//! with three pieces:
//!
//! * **[`KNOBS`]** — a registry with one entry per [`SimConfig`]
//!   parameter, carrying the canonical knob name, the `ndpsim` CLI flag
//!   (if any), help text, and `apply`/`get` functions. It is the single
//!   source of truth consumed by `ndpsim` flag parsing, spec files and
//!   [`config_fingerprint`]; unknown-knob errors and `--help` text
//!   derive from the same table.
//! * **[`SweepSpec`]** — a base [`SimConfig`] plus [`Axis`] lists whose
//!   cross product [`SweepSpec::expand`]s into a deterministic,
//!   seed-stable grid of configs (row-major: the first axis varies
//!   slowest, the last fastest). Axes are either one knob × values, or
//!   *paired* points that set several knobs together (e.g. `mlp_window`
//!   with matching `mshrs_per_core`). Specs load from JSON
//!   ([`SweepSpec::from_json`]).
//! * **[`run_sweep`]** — the one generic engine: expands the grid, fans
//!   the configs out over the work-stealing parallel driver
//!   ([`crate::parallel`]), and returns a [`SweepResult`] with
//!   paired-row grouping and geomean helpers. [`run_sweep_jsonl`] is the
//!   same engine with **incremental JSONL output**: each completed grid
//!   point is appended (in grid order) as soon as every earlier point
//!   has retired, and `resume` skips points whose config fingerprint is
//!   already on disk — an interrupted sweep resumed produces a file
//!   byte-for-byte equal to an uninterrupted run.
//! * **The row format** — one schema for every stored row. A row's
//!   counters are a [`RowCounters`], whose key list is the one spelling
//!   of the counter keys and which defines each derived Fig 4–7 metric
//!   once ([`RunReport`]'s metric methods delegate to it).
//!   [`SweepRow::to_jsonl`] writes a row; [`JsonlRow::parse`] reads one
//!   back, once, for every reader: resume and merge, `serve`, the
//!   supervisor, `calibrate` and `figures --from-jsonl`.
//!
//! Every simulated table of the `figures` binary is a [`SweepSpec`]
//! grid read back through [`SweepResult::pairs`] and
//! [`SweepResult::geomean_speedup`].

use crate::config::{InclusionPolicy, SimConfig, SystemKind};
use crate::fault::FaultPlan;
use crate::machine::Machine;
use crate::parallel::{par_map, par_map_sink};
use crate::report::{ratio, RunReport};
use crate::shard::{self, ShardSpec};
use ndp_types::stats::{geomean, HitMiss};
use ndp_types::Cycles;
use ndp_workloads::WorkloadId;
use ndpage::bypass::BypassPolicy;
use ndpage::Mechanism;
use std::fmt;
use std::io::Write as _;
use std::path::Path;

/// Error from spec parsing, knob application or sweep execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    message: String,
}

impl SpecError {
    fn new(message: impl Into<String>) -> Self {
        SpecError {
            message: message.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for SpecError {}

// ---------------------------------------------------------------------------
// Canonical name parsers (shared by the registry and the CLI layer).
// ---------------------------------------------------------------------------

/// Parses a mechanism name, tolerating case and `-`/`_`/space
/// (`"huge-page"`, `"NDPage"`, `"radix"` all resolve).
#[must_use]
pub fn parse_mechanism(s: &str) -> Option<Mechanism> {
    Mechanism::ALL.into_iter().find(|m| {
        m.name()
            .replace(' ', "")
            .eq_ignore_ascii_case(&s.replace(['-', '_', ' '], ""))
    })
}

/// Parses a workload name (case-insensitive Table II short name).
#[must_use]
pub fn parse_workload(s: &str) -> Option<WorkloadId> {
    WorkloadId::ALL
        .into_iter()
        .find(|w| w.name().eq_ignore_ascii_case(s))
}

/// Canonical (lower-case, space-stripped) mechanism value names.
#[must_use]
pub fn mechanism_names() -> Vec<String> {
    Mechanism::ALL
        .iter()
        .map(|m| m.name().replace(' ', "").to_lowercase())
        .collect()
}

/// Canonical workload value names.
#[must_use]
pub fn workload_names() -> Vec<String> {
    WorkloadId::ALL
        .iter()
        .map(|w| w.name().to_string())
        .collect()
}

fn unrecognized(got: &str, valid: &[String]) -> String {
    format!(
        "unrecognized value {got:?}; valid values: {}",
        valid.join(", ")
    )
}

fn p_system(s: &str) -> Result<SystemKind, String> {
    match s.to_ascii_lowercase().as_str() {
        "ndp" => Ok(SystemKind::Ndp),
        "cpu" => Ok(SystemKind::Cpu),
        _ => Err(unrecognized(s, &["ndp".into(), "cpu".into()])),
    }
}

fn p_mechanism(s: &str) -> Result<Mechanism, String> {
    parse_mechanism(s).ok_or_else(|| unrecognized(s, &mechanism_names()))
}

fn p_workload(s: &str) -> Result<WorkloadId, String> {
    parse_workload(s).ok_or_else(|| unrecognized(s, &workload_names()))
}

fn p_policy(s: &str) -> Result<InclusionPolicy, String> {
    InclusionPolicy::parse(s).ok_or_else(|| {
        let valid: Vec<String> = InclusionPolicy::ALL
            .iter()
            .map(|p| p.name().to_string())
            .collect();
        unrecognized(s, &valid)
    })
}

fn p_u64(s: &str) -> Result<u64, String> {
    s.trim()
        .parse()
        .map_err(|_| format!("expects a non-negative integer, got {s:?}"))
}

fn p_u32(s: &str) -> Result<u32, String> {
    let n = p_u64(s)?;
    u32::try_from(n).map_err(|_| format!("value {n} exceeds {}", u32::MAX))
}

fn p_bool(s: &str) -> Result<bool, String> {
    match s.to_ascii_lowercase().as_str() {
        "true" | "on" | "1" | "yes" => Ok(true),
        "false" | "off" | "0" | "no" => Ok(false),
        _ => Err(format!("expects true or false, got {s:?}")),
    }
}

/// `"default"` clears an optional knob back to `None`.
fn p_opt<T>(s: &str, f: impl Fn(&str) -> Result<T, String>) -> Result<Option<T>, String> {
    if s.eq_ignore_ascii_case("default") {
        Ok(None)
    } else {
        f(s).map(Some)
    }
}

fn opt_str<T: fmt::Display>(v: Option<T>) -> String {
    v.map_or_else(|| "default".to_string(), |x| x.to_string())
}

// ---------------------------------------------------------------------------
// The knob registry.
// ---------------------------------------------------------------------------

/// One registered [`SimConfig`] parameter: the single source of truth for
/// its spec-file name, `ndpsim` flag, help text, parsing and
/// serialization.
pub struct KnobDef {
    /// Canonical knob name used in spec files and `--set` overrides
    /// (matches the `SimConfig` field name).
    pub name: &'static str,
    /// The `ndpsim` CLI flag bound to this knob, if any.
    pub flag: Option<&'static str>,
    /// Multiplier applied to a numeric *flag* value before
    /// [`Self::apply`] — `--footprint-mb` scales MiB to the knob's bytes.
    /// Always 1 for direct knob values.
    pub flag_scale: u64,
    /// One-line help text (printed by `ndpsim --help` / `sweep --help`).
    pub help: &'static str,
    /// Parses `value` and stores it in the config. The error names the
    /// constraint and echoes the offending value, but not the knob — the
    /// caller prefixes the knob or flag name.
    pub apply: fn(&mut SimConfig, &str) -> Result<(), String>,
    /// Reads the knob's current value back as its canonical string —
    /// `apply(get(cfg))` is an identity for every knob.
    pub get: fn(&SimConfig) -> String,
}

impl fmt::Debug for KnobDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KnobDef")
            .field("name", &self.name)
            .field("flag", &self.flag)
            .finish_non_exhaustive()
    }
}

/// Every [`SimConfig`] parameter, registered exactly once, in field
/// order. Flag application order follows table order.
pub static KNOBS: &[KnobDef] = &[
    KnobDef {
        name: "system",
        flag: Some("--system"),
        flag_scale: 1,
        help: "Table I system flavour: ndp | cpu",
        apply: |c, v| {
            c.system = p_system(v)?;
            Ok(())
        },
        get: |c| match c.system {
            SystemKind::Ndp => "ndp".into(),
            SystemKind::Cpu => "cpu".into(),
        },
    },
    KnobDef {
        name: "cores",
        flag: Some("--cores"),
        flag_scale: 1,
        help: "core count (1..=64)",
        apply: |c, v| {
            c.cores = p_u32(v)?;
            Ok(())
        },
        get: |c| c.cores.to_string(),
    },
    KnobDef {
        name: "mechanism",
        flag: Some("--mechanism"),
        flag_scale: 1,
        help: "translation mechanism: radix | ech | hugepage | ndpage | ideal",
        apply: |c, v| {
            c.mechanism = p_mechanism(v)?;
            Ok(())
        },
        get: |c| c.mechanism.name().replace(' ', "").to_lowercase(),
    },
    KnobDef {
        name: "workload",
        flag: Some("--workload"),
        flag_scale: 1,
        help: "Table II workload: BC|BFS|CC|GC|PR|TC|SP|XS|RND|DLRM|GEN",
        apply: |c, v| {
            c.workload = p_workload(v)?;
            Ok(())
        },
        get: |c| c.workload.name().to_string(),
    },
    KnobDef {
        name: "warmup_ops",
        flag: Some("--warmup"),
        flag_scale: 1,
        help: "untimed warmup ops per core",
        apply: |c, v| {
            c.warmup_ops = p_u64(v)?;
            Ok(())
        },
        get: |c| c.warmup_ops.to_string(),
    },
    KnobDef {
        name: "measure_ops",
        flag: Some("--ops"),
        flag_scale: 1,
        help: "measured ops per core",
        apply: |c, v| {
            c.measure_ops = p_u64(v)?;
            Ok(())
        },
        get: |c| c.measure_ops.to_string(),
    },
    KnobDef {
        name: "footprint",
        flag: Some("--footprint-mb"),
        flag_scale: 1 << 20,
        help: "absolute per-core footprint in bytes, or 'default' (the Table II size); the flag takes MiB",
        apply: |c, v| {
            c.footprint_override = p_opt(v, p_u64)?;
            Ok(())
        },
        get: |c| opt_str(c.footprint_override),
    },
    KnobDef {
        name: "seed",
        flag: Some("--seed"),
        flag_scale: 1,
        help: "base RNG seed (core i uses seed + i)",
        apply: |c, v| {
            c.seed = p_u64(v)?;
            Ok(())
        },
        get: |c| c.seed.to_string(),
    },
    KnobDef {
        name: "pwc",
        flag: None,
        flag_scale: 1,
        help: "page-walk caches: default (per mechanism) | on | off",
        apply: |c, v| {
            c.pwc_override = p_opt(v, p_bool)?;
            Ok(())
        },
        get: |c| match c.pwc_override {
            None => "default".into(),
            Some(true) => "on".into(),
            Some(false) => "off".into(),
        },
    },
    KnobDef {
        name: "bypass",
        flag: None,
        flag_scale: 1,
        help: "L1 bypass policy: default (per mechanism) | none | metadata-l1",
        apply: |c, v| {
            c.bypass_override = match v.to_ascii_lowercase().as_str() {
                "default" => None,
                "none" => Some(BypassPolicy::None),
                "metadata-l1" => Some(BypassPolicy::MetadataL1Bypass),
                _ => {
                    return Err(unrecognized(
                        v,
                        &["default".into(), "none".into(), "metadata-l1".into()],
                    ))
                }
            };
            Ok(())
        },
        get: |c| match c.bypass_override {
            None => "default".into(),
            Some(BypassPolicy::None) => "none".into(),
            Some(BypassPolicy::MetadataL1Bypass) => "metadata-l1".into(),
        },
    },
    KnobDef {
        name: "memory_capacity",
        flag: None,
        flag_scale: 1,
        help: "physical-memory bytes, or 'default' (Table I 16 GB)",
        apply: |c, v| {
            c.memory_capacity_override = p_opt(v, p_u64)?;
            Ok(())
        },
        get: |c| opt_str(c.memory_capacity_override),
    },
    KnobDef {
        name: "pwc_entries",
        flag: Some("--pwc-entries"),
        flag_scale: 1,
        help: "entries per PWC level, or 'default' (64)",
        apply: |c, v| {
            c.pwc_entries = p_opt(v, |s| p_u64(s).map(|n| n as usize))?;
            Ok(())
        },
        get: |c| opt_str(c.pwc_entries),
    },
    KnobDef {
        name: "tlb_l2_entries",
        flag: Some("--tlb-l2"),
        flag_scale: 1,
        help: "L2 TLB entries (12-way power-of-two sets), or 'default' (1536)",
        apply: |c, v| {
            c.tlb_l2_entries = p_opt(v, p_u32)?;
            Ok(())
        },
        get: |c| opt_str(c.tlb_l2_entries),
    },
    KnobDef {
        name: "tlb_fracture_huge",
        flag: None,
        flag_scale: 1,
        help: "fracture 2 MB TLB entries: default (fractured) | true | false",
        apply: |c, v| {
            c.tlb_fracture_huge = p_opt(v, p_bool)?;
            Ok(())
        },
        get: |c| opt_str(c.tlb_fracture_huge),
    },
    KnobDef {
        name: "compaction_tax",
        flag: None,
        flag_scale: 1,
        help: "compaction-interference cycles per period, scaled by THP pressure",
        apply: |c, v| {
            c.compaction_tax = Cycles::new(p_u64(v)?);
            Ok(())
        },
        get: |c| c.compaction_tax.as_u64().to_string(),
    },
    KnobDef {
        name: "procs_per_core",
        flag: Some("--procs"),
        flag_scale: 1,
        help: "multiprogrammed processes per core (1 = paper setup)",
        apply: |c, v| {
            c.procs_per_core = p_u32(v)?;
            Ok(())
        },
        get: |c| c.procs_per_core.to_string(),
    },
    KnobDef {
        name: "context_switch_quantum_ops",
        flag: Some("--quantum"),
        flag_scale: 1,
        help: "ops per scheduling timeslice",
        apply: |c, v| {
            c.context_switch_quantum_ops = p_u64(v)?;
            Ok(())
        },
        get: |c| c.context_switch_quantum_ops.to_string(),
    },
    KnobDef {
        name: "context_switch_cost",
        flag: Some("--switch-cost"),
        flag_scale: 1,
        help: "OS cycles charged per context switch",
        apply: |c, v| {
            c.context_switch_cost = Cycles::new(p_u64(v)?);
            Ok(())
        },
        get: |c| c.context_switch_cost.as_u64().to_string(),
    },
    KnobDef {
        name: "tlb_tagging",
        flag: None,
        flag_scale: 1,
        help: "ASID-tagged TLBs/PWCs: true | false (false = full flush per switch; ndpsim: --no-asid)",
        apply: |c, v| {
            c.tlb_tagging = p_bool(v)?;
            Ok(())
        },
        get: |c| c.tlb_tagging.to_string(),
    },
    KnobDef {
        name: "mlp_window",
        flag: Some("--window"),
        flag_scale: 1,
        help: "per-core issue window (1 = blocking core)",
        apply: |c, v| {
            c.mlp_window = p_u32(v)?;
            Ok(())
        },
        get: |c| c.mlp_window.to_string(),
    },
    KnobDef {
        name: "mshrs_per_core",
        flag: Some("--mshrs"),
        flag_scale: 1,
        help: "miss-status holding registers per core",
        apply: |c, v| {
            c.mshrs_per_core = p_u32(v)?;
            Ok(())
        },
        get: |c| c.mshrs_per_core.to_string(),
    },
    KnobDef {
        name: "walkers_per_core",
        flag: Some("--walkers"),
        flag_scale: 1,
        help: "hardware page-table walkers per core",
        apply: |c, v| {
            c.walkers_per_core = p_u32(v)?;
            Ok(())
        },
        get: |c| c.walkers_per_core.to_string(),
    },
    KnobDef {
        name: "l3_kb",
        flag: Some("--l3-kb"),
        flag_scale: 1,
        help: "shared banked L3 capacity in KB (0 = off)",
        apply: |c, v| {
            c.l3_kb = p_u32(v)?;
            Ok(())
        },
        get: |c| c.l3_kb.to_string(),
    },
    KnobDef {
        name: "l3_ways",
        flag: Some("--l3-ways"),
        flag_scale: 1,
        help: "shared-L3 associativity (inert while l3_kb = 0)",
        apply: |c, v| {
            c.l3_ways = p_u32(v)?;
            Ok(())
        },
        get: |c| c.l3_ways.to_string(),
    },
    KnobDef {
        name: "l3_banks",
        flag: Some("--l3-banks"),
        flag_scale: 1,
        help: "shared-L3 bank count (inert while l3_kb = 0)",
        apply: |c, v| {
            c.l3_banks = p_u32(v)?;
            Ok(())
        },
        get: |c| c.l3_banks.to_string(),
    },
    KnobDef {
        name: "l3_policy",
        flag: Some("--l3-policy"),
        flag_scale: 1,
        help: "shared-L3 inclusion policy: inclusive | exclusive",
        apply: |c, v| {
            c.l3_policy = p_policy(v)?;
            Ok(())
        },
        get: |c| c.l3_policy.name().to_string(),
    },
    KnobDef {
        name: "vault_buffer_kb",
        flag: Some("--vault-kb"),
        flag_scale: 1,
        help: "per-vault memory-side buffer in KB (0 = off)",
        apply: |c, v| {
            c.vault_buffer_kb = p_u32(v)?;
            Ok(())
        },
        get: |c| c.vault_buffer_kb.to_string(),
    },
];

/// Looks a knob up by canonical name.
#[must_use]
pub fn knob(name: &str) -> Option<&'static KnobDef> {
    KNOBS.iter().find(|k| k.name == name)
}

/// Every registered knob name, in registry order.
#[must_use]
pub fn knob_names() -> Vec<String> {
    KNOBS.iter().map(|k| k.name.to_string()).collect()
}

/// Applies `name = value` to a config.
///
/// # Errors
///
/// Unknown names error listing every valid knob; bad values error with
/// the knob's constraint and the offending value.
pub fn apply_knob(cfg: &mut SimConfig, name: &str, value: &str) -> Result<(), SpecError> {
    let k = knob(name).ok_or_else(|| {
        SpecError::new(format!(
            "unknown knob {name:?}; valid knobs: {}",
            knob_names().join(", ")
        ))
    })?;
    (k.apply)(cfg, value).map_err(|e| SpecError::new(format!("knob {name}: {e}")))
}

/// Serializes a config as its full `(knob, value)` list, in registry
/// order. Applying the list to any config reproduces `cfg` exactly.
#[must_use]
pub fn config_knobs(cfg: &SimConfig) -> Vec<(&'static str, String)> {
    KNOBS.iter().map(|k| (k.name, (k.get)(cfg))).collect()
}

/// A deterministic fingerprint of a configuration: the hash of every
/// registered knob's canonical value. Stable across processes (fixed-seed
/// [`ndp_types::FastHasher`]); the resume key of [`run_sweep_jsonl`].
#[must_use]
pub fn config_fingerprint(cfg: &SimConfig) -> u64 {
    use core::hash::{Hash, Hasher};
    let mut h = ndp_types::FastHasher::default();
    for k in KNOBS {
        k.name.hash(&mut h);
        (k.get)(cfg).hash(&mut h);
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// Minimal JSON (the workspace deliberately vendors no serde).
// ---------------------------------------------------------------------------

/// A parsed JSON value. Numbers keep their source text so 64-bit seeds
/// and fingerprints never round-trip through an `f64`.
///
/// Public because the experiment service speaks newline-delimited JSON
/// through this same parser — the workspace deliberately vendors no
/// serde, and one parser means the protocol and the spec files can
/// never disagree about what a value is.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Raw number text, e.g. `"4096"`.
    Num(String),
    /// String contents (unescaped).
    Str(String),
    /// Array elements in order.
    Arr(Vec<Json>),
    /// Key order is preserved — knob application order matters.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Coerces a scalar to the knob-value string it denotes.
    #[must_use]
    pub fn scalar(&self) -> Option<String> {
        match self {
            Json::Num(s) => Some(s.clone()),
            Json::Str(s) => Some(s.clone()),
            Json::Bool(b) => Some(b.to_string()),
            _ => None,
        }
    }

    /// Looks a key up in an object value (`None` for non-objects).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// An object with `fields` in the given order.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A number written as `n` displays (`format_args!("{x:.3}")` fixes
    /// a float's digits).
    pub fn num(n: impl fmt::Display) -> Json {
        Json::Num(n.to_string())
    }

    /// Renders the value as compact single-line JSON — the one JSON
    /// writer of the workspace. Numbers keep their text, so a parse →
    /// render round trip is lossless for 64-bit integers; strings are
    /// re-escaped.
    #[must_use]
    pub fn render(&self) -> String {
        let join = |items: Vec<String>| items.join(",");
        match self {
            Json::Null => "null".to_string(),
            Json::Bool(b) => b.to_string(),
            Json::Num(raw) => raw.clone(),
            Json::Str(s) => format!("\"{}\"", json_escape(s)),
            Json::Arr(items) => format!("[{}]", join(items.iter().map(Json::render).collect())),
            Json::Obj(fields) => {
                let field =
                    |(k, v): &(String, Json)| format!("\"{}\":{}", json_escape(k), v.render());
                format!("{{{}}}", join(fields.iter().map(field).collect()))
            }
        }
    }
}

struct JsonParser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> JsonParser<'a> {
    fn new(text: &'a str) -> Self {
        JsonParser {
            b: text.as_bytes(),
            i: 0,
        }
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.i)
    }

    fn skip_ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.i < self.b.len() && self.b[self.i] == c {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", c as char)))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.b.get(self.i).copied()
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        // Accumulate raw bytes and convert once: byte-at-a-time
        // `as char` would mangle multi-byte UTF-8 into mojibake.
        let mut out = Vec::new();
        while self.i < self.b.len() {
            let c = self.b[self.i];
            self.i += 1;
            match c {
                b'"' => {
                    return String::from_utf8(out).map_err(|_| self.err("invalid UTF-8 in string"))
                }
                b'\\' => {
                    let e = *self
                        .b
                        .get(self.i)
                        .ok_or_else(|| self.err("unterminated escape"))?;
                    self.i += 1;
                    out.push(match e {
                        b'"' => b'"',
                        b'\\' => b'\\',
                        b'/' => b'/',
                        b'b' => 0x08,
                        b'f' => 0x0c,
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'r' => b'\r',
                        b'u' => {
                            let c = self.unicode_escape()?;
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                            continue;
                        }
                        _ => return Err(self.err("unsupported escape")),
                    });
                }
                _ => out.push(c),
            }
        }
        Err(self.err("unterminated string"))
    }

    /// The four hex digits after a `\u`.
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self.b.get(self.i..self.i + 4);
        let hex = digits.and_then(|d| std::str::from_utf8(d).ok());
        let n = hex.filter(|d| d.bytes().all(|c| c.is_ascii_hexdigit()));
        let n = n.and_then(|d| u32::from_str_radix(d, 16).ok());
        let n = n.ok_or_else(|| self.err("expected 4 hex digits after \\u"))?;
        self.i += 4;
        Ok(n)
    }

    /// The character of a `\uXXXX` escape (`\u` consumed). A surrogate
    /// pair spans two escapes; a lone surrogate is no `char`, so
    /// `char::from_u32` rejects it.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.b[self.i..].starts_with(b"\\u") {
            self.i += 2;
            let lo = self.hex4()?;
            if (0xDC00..0xE000).contains(&lo) {
                code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
            }
        }
        char::from_u32(code).ok_or_else(|| self.err("lone surrogate in \\u escape"))
    }

    /// The comma-separated items of an array or object, from its
    /// opening bracket through `close`.
    fn seq<T>(
        &mut self,
        close: u8,
        item: impl Fn(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.i += 1; // the opening bracket `value` peeked
        let mut items = Vec::new();
        if self.peek() == Some(close) {
            self.i += 1;
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(c) if c == close => {
                    self.i += 1;
                    return Ok(items);
                }
                _ => return Err(self.err(&format!("expected ',' or '{}'", close as char))),
            }
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'n' => self.lit("null", Json::Null),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'"' => self.string().map(Json::Str),
            b'[' => self.seq(b']', Self::value).map(Json::Arr),
            b'{' => self
                .seq(b'}', |p| {
                    let key = p.string()?;
                    p.eat(b':')?;
                    Ok((key, p.value()?))
                })
                .map(Json::Obj),
            c if c == b'-' || c.is_ascii_digit() => {
                let start = self.i;
                while self.i < self.b.len()
                    && matches!(
                        self.b[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                Ok(Json::Num(
                    std::str::from_utf8(&self.b[start..self.i])
                        .map_err(|_| self.err("invalid number"))?
                        .to_string(),
                ))
            }
            _ => Err(self.err("unexpected character")),
        }
    }
}

/// Parses one JSON document (the whole input; trailing content is an
/// error). The workspace's one JSON entry point — spec files, JSONL
/// rows, and the experiment-service protocol all come through here.
///
/// # Errors
///
/// Malformed JSON, with the byte offset of the problem.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = JsonParser::new(text);
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(p.err("trailing content"));
    }
    Ok(v)
}

/// Escapes a string for embedding in a JSON string literal (without
/// the quotes): every control character is escaped. Workspace code
/// writes JSON through [`Json::render`].
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            _ => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// SweepSpec: base + axes -> deterministic grid.
// ---------------------------------------------------------------------------

/// The `(knob, value)` assignments identifying one grid point.
pub type Coords = Vec<(String, String)>;

/// One value of an [`Axis`]: the knob assignments applied together when
/// the axis selects this point. Single-knob axes have one assignment per
/// point; paired axes (e.g. `mlp_window` with matching `mshrs_per_core`)
/// have several.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AxisPoint {
    /// `(knob, value)` assignments, applied in order.
    pub sets: Vec<(String, String)>,
}

/// One grid dimension of a [`SweepSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Axis {
    /// The points this axis ranges over.
    pub points: Vec<AxisPoint>,
}

/// Comparison operator of a [`FilterClause`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterOp {
    /// `=` / `==` (numeric when both sides parse, else string equality).
    Eq,
    /// `!=` (complement of [`FilterOp::Eq`]).
    Ne,
    /// `<` (numeric only).
    Lt,
    /// `<=` (numeric only).
    Le,
    /// `>` (numeric only).
    Gt,
    /// `>=` (numeric only).
    Ge,
}

impl FilterOp {
    fn parse(s: &str) -> Option<FilterOp> {
        match s {
            "=" | "==" => Some(FilterOp::Eq),
            "!=" => Some(FilterOp::Ne),
            "<" => Some(FilterOp::Lt),
            "<=" => Some(FilterOp::Le),
            ">" => Some(FilterOp::Gt),
            ">=" => Some(FilterOp::Ge),
            _ => None,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            FilterOp::Eq => "=",
            FilterOp::Ne => "!=",
            FilterOp::Lt => "<",
            FilterOp::Le => "<=",
            FilterOp::Gt => ">",
            FilterOp::Ge => ">=",
        }
    }
}

/// One conjunctive constraint on grid expansion: `knob OP value`.
/// A grid point is kept only when **every** clause holds; the knob's
/// value at a point is its axis coordinate when the knob varies, or
/// its base value otherwise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterClause {
    /// Registered knob name the clause constrains.
    pub knob: String,
    /// Comparison operator.
    pub op: FilterOp,
    /// Right-hand side, in knob-value syntax.
    pub value: String,
}

impl fmt::Display for FilterClause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.knob, self.op.symbol(), self.value)
    }
}

impl FilterClause {
    /// Parses `knob OP value` (whitespace-separated, e.g.
    /// `"pwc_entries >= 64"`). The knob must be registered; an unknown
    /// name errors with the registry list.
    ///
    /// # Errors
    ///
    /// Malformed clause syntax, an unknown operator, or an
    /// unregistered knob name.
    pub fn parse(text: &str) -> Result<FilterClause, SpecError> {
        let mut parts = text.split_whitespace();
        let (Some(name), Some(op_raw), Some(value), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(SpecError::new(format!(
                "filter clause {text:?} must be `knob OP value` \
                 (OP in =, !=, <, <=, >, >=)"
            )));
        };
        let Some(op) = FilterOp::parse(op_raw) else {
            return Err(SpecError::new(format!(
                "filter clause {text:?}: unknown operator {op_raw:?} \
                 (valid: =, !=, <, <=, >, >=)"
            )));
        };
        if knob(name).is_none() {
            return Err(SpecError::new(format!(
                "filter clause {text:?}: {}",
                unrecognized(name, &knob_names())
            )));
        }
        Ok(FilterClause {
            knob: name.to_string(),
            op,
            value: value.to_string(),
        })
    }

    /// Whether the clause holds for `actual` (the point's value of the
    /// clause's knob). Equality compares numerically when both sides
    /// parse as numbers (so `16 = 16.0` and `16 = 016` hold), falling
    /// back to string comparison; ordering operators require numbers.
    ///
    /// # Errors
    ///
    /// An ordering operator over a non-numeric value.
    pub fn holds(&self, actual: &str) -> Result<bool, SpecError> {
        let nums = (actual.parse::<f64>().ok(), self.value.parse::<f64>().ok());
        match self.op {
            FilterOp::Eq | FilterOp::Ne => {
                let eq = match nums {
                    (Some(a), Some(b)) => a == b,
                    _ => actual == self.value,
                };
                Ok(eq == (self.op == FilterOp::Eq))
            }
            _ => {
                let (Some(a), Some(b)) = nums else {
                    return Err(SpecError::new(format!(
                        "filter clause \"{self}\": operator {} needs numeric \
                         values, got {actual:?} {} {:?}",
                        self.op.symbol(),
                        self.op.symbol(),
                        self.value
                    )));
                };
                Ok(match self.op {
                    FilterOp::Lt => a < b,
                    FilterOp::Le => a <= b,
                    FilterOp::Gt => a > b,
                    // Eq/Ne returned above; only Ge remains.
                    _ => a >= b,
                })
            }
        }
    }
}

/// A declarative sweep: a base configuration plus axes whose cross
/// product forms the grid. Expansion is row-major — the **first axis
/// varies slowest**, the last fastest — and deterministic. Optional
/// [`FilterClause`]s prune the cross product during expansion: the
/// kept points are re-indexed compactly (grid indices `0..len` with no
/// holes), so filtered grids shard, stream and resume exactly like
/// dense ones — the emit order is a deterministic function of the
/// spec, and a filter edit changes config fingerprints' positions,
/// which the resume path already treats as "re-run that point".
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Display name (JSONL metadata only; no semantic weight).
    pub name: String,
    /// The configuration every grid point starts from.
    pub base: SimConfig,
    /// Grid dimensions, slowest-varying first.
    pub axes: Vec<Axis>,
    /// Conjunctive constraint clauses applied during expansion
    /// (empty = keep the full cross product).
    pub filters: Vec<FilterClause>,
}

impl SweepSpec {
    /// A spec with no axes (a 1-point grid) over `base`.
    #[must_use]
    pub fn new(base: SimConfig) -> Self {
        SweepSpec {
            name: "sweep".to_string(),
            base,
            axes: Vec::new(),
            filters: Vec::new(),
        }
    }

    /// Sets the display name.
    #[must_use]
    pub fn named(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// Appends a single-knob axis over `values`.
    #[must_use]
    pub fn axis<T: fmt::Display>(mut self, knob: &str, values: &[T]) -> Self {
        self.axes.push(Axis {
            points: values
                .iter()
                .map(|v| AxisPoint {
                    sets: vec![(knob.to_string(), v.to_string())],
                })
                .collect(),
        });
        self
    }

    /// Appends a paired axis: each point sets several knobs together.
    #[must_use]
    pub fn paired_axis(mut self, points: Vec<Vec<(&str, String)>>) -> Self {
        self.axes.push(Axis {
            points: points
                .into_iter()
                .map(|sets| AxisPoint {
                    sets: sets.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
                })
                .collect(),
        });
        self
    }

    /// Appends a conjunctive filter clause (`"knob OP value"` syntax).
    /// Invalid clauses surface when the spec expands.
    #[must_use]
    pub fn filter(mut self, clause: &str) -> Self {
        match FilterClause::parse(clause) {
            Ok(c) => self.filters.push(c),
            // Remember the raw text so expand() reports the error with
            // the clause named, instead of silently dropping it here.
            Err(_) => self.filters.push(FilterClause {
                knob: clause.to_string(),
                op: FilterOp::Eq,
                value: String::new(),
            }),
        }
        self
    }

    /// Cross-product size: the product of the axis lengths (1 with no
    /// axes). With filters this is an **upper bound** — the expanded
    /// grid keeps only the points every clause accepts; use
    /// `expand()?.len()` for the exact count.
    #[must_use]
    pub fn grid_len(&self) -> usize {
        self.axes.iter().map(|a| a.points.len()).product()
    }

    /// Loads a spec from JSON. The base starts from
    /// [`SimConfig::cli_default`] (the flag-less `ndpsim` configuration)
    /// and applies the `"base"` object's knobs in order. Axes are either
    /// `{"knob": NAME, "values": [..]}` or `{"points": [{KNOB: V, ..},
    /// ..]}` (paired). An optional `"filter"` array of `"knob OP value"`
    /// clauses (conjunctive) prunes the cross product during expansion.
    /// Unknown keys and unknown knobs are errors.
    ///
    /// # Errors
    ///
    /// Malformed JSON, unknown keys/knobs, bad knob values, or
    /// malformed filter clauses.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        let root = parse_json(text).map_err(|e| SpecError::new(format!("spec JSON: {e}")))?;
        let Json::Obj(fields) = root else {
            return Err(SpecError::new("spec JSON: root must be an object"));
        };
        let mut spec = SweepSpec::new(SimConfig::cli_default());
        let err = |msg: &str| Err(SpecError::new(msg));
        for (key, val) in fields {
            match (key.as_str(), val) {
                ("name", v) => {
                    spec.name = v
                        .scalar()
                        .ok_or_else(|| SpecError::new("spec \"name\" must be a string"))?;
                }
                ("base", Json::Obj(knobs)) => {
                    for (name, v) in knobs {
                        let value = v.scalar().ok_or_else(|| {
                            SpecError::new(format!("base knob {name:?} must be a scalar"))
                        })?;
                        apply_knob(&mut spec.base, &name, &value)?;
                    }
                }
                ("axes", Json::Arr(axes)) => {
                    for axis in axes {
                        spec.axes.push(Self::axis_from_json(axis)?);
                    }
                }
                ("filter", Json::Arr(clauses)) => {
                    for clause in clauses {
                        let Json::Str(text) = clause else {
                            return err("each filter clause must be a \"knob OP value\" string");
                        };
                        spec.filters.push(FilterClause::parse(&text)?);
                    }
                }
                ("base", _) => return err("spec \"base\" must be an object"),
                ("axes", _) => return err("spec \"axes\" must be an array"),
                ("filter", _) => {
                    return err("spec \"filter\" must be an array of \"knob OP value\" strings")
                }
                (other, _) => {
                    return Err(SpecError::new(format!(
                        "unknown spec key {other:?}; valid keys: name, base, axes, filter"
                    )));
                }
            }
        }
        Ok(spec)
    }

    fn axis_from_json(axis: Json) -> Result<Axis, SpecError> {
        let Json::Obj(fields) = axis else {
            return Err(SpecError::new("each axis must be an object"));
        };
        let (mut knob_name, mut values, mut points) = (None, None, None);
        for (key, val) in fields {
            match (key.as_str(), val) {
                ("knob", v) => {
                    let name = v.scalar();
                    knob_name =
                        Some(name.ok_or_else(|| SpecError::new("axis \"knob\" must be a string"))?);
                }
                ("values", Json::Arr(vs)) => values = Some(vs),
                ("points", Json::Arr(ps)) => points = Some(ps),
                (list @ ("values" | "points"), _) => {
                    return Err(SpecError::new(format!("axis {list:?} must be an array")));
                }
                (other, _) => {
                    return Err(SpecError::new(format!(
                        "unknown axis key {other:?}; valid keys: knob, values, points"
                    )));
                }
            }
        }
        // An unknown knob errors with the full registry list.
        let known = |k: &str| match knob(k) {
            Some(_) => Ok(()),
            None => apply_knob(&mut SimConfig::cli_default(), k, "0"),
        };
        let scalar = |v: Json, what: String| v.scalar().ok_or_else(|| SpecError::new(what));
        let points: Vec<AxisPoint> = match (knob_name, values, points) {
            (Some(name), Some(vs), None) => {
                known(&name)?;
                if vs.is_empty() {
                    return Err(SpecError::new(format!("axis {name:?} has no values")));
                }
                vs.into_iter()
                    .map(|v| {
                        let value = scalar(v, format!("axis {name:?} values must be scalars"))?;
                        Ok(AxisPoint {
                            sets: vec![(name.clone(), value)],
                        })
                    })
                    .collect::<Result<_, SpecError>>()?
            }
            (None, None, Some(ps)) => {
                if ps.is_empty() {
                    return Err(SpecError::new("paired axis has no points"));
                }
                ps.into_iter()
                    .map(|p| {
                        let Json::Obj(sets) = p else {
                            return Err(SpecError::new("each paired-axis point must be an object"));
                        };
                        let sets = sets.into_iter().map(|(k, v)| {
                            known(&k)?;
                            let value = scalar(v, format!("point knob {k:?} must be a scalar"))?;
                            Ok((k, value))
                        });
                        Ok(AxisPoint {
                            sets: sets.collect::<Result<_, _>>()?,
                        })
                    })
                    .collect::<Result<_, SpecError>>()?
            }
            _ => {
                return Err(SpecError::new(
                    "each axis needs either \"knob\" + \"values\" or \"points\"",
                ))
            }
        };
        Ok(Axis { points })
    }

    /// Structural validation of the axes themselves, before any grid
    /// point is built: an axis with zero values collapses the whole
    /// grid to nothing, and a knob appearing on two different axes
    /// makes one axis silently overwrite the other — both are spec
    /// bugs, rejected with the axis/knob named.
    ///
    /// # Errors
    ///
    /// Names the empty axis (1-based) or the knob and the two axes it
    /// appears on.
    pub fn validate_axes(&self) -> Result<(), SpecError> {
        let mut seen: Vec<(&str, usize)> = Vec::new();
        for (a, axis) in self.axes.iter().enumerate() {
            if axis.points.is_empty() {
                return Err(SpecError::new(format!(
                    "axis {} has zero values (an empty axis makes the grid empty)",
                    a + 1
                )));
            }
            let mut here: Vec<&str> = axis
                .points
                .iter()
                .flat_map(|p| p.sets.iter().map(|(k, _)| k.as_str()))
                .collect();
            here.sort_unstable();
            here.dedup();
            for k in here {
                if let Some(&(_, prev)) = seen.iter().find(|(name, _)| *name == k) {
                    return Err(SpecError::new(format!(
                        "knob {k:?} appears on both axis {prev} and axis {} \
                         (each knob may vary on one axis only)",
                        a + 1
                    )));
                }
                seen.push((k, a + 1));
            }
        }
        for clause in &self.filters {
            if knob(&clause.knob).is_none() {
                return Err(SpecError::new(format!(
                    "filter clause: {}",
                    unrecognized(&clause.knob, &knob_names())
                )));
            }
        }
        Ok(())
    }

    /// Expands the cross product into the deterministic grid: every
    /// combination exactly once, row-major (first axis slowest), each
    /// config validated. Filter clauses are evaluated on the **axis
    /// coordinates** (base values for knobs that do not vary) before
    /// any config is built, so sparse studies skip the cross-product
    /// cost; surviving points are re-indexed compactly (`index` =
    /// position in the filtered grid), keeping shard striping and
    /// resume emit-positions deterministic and hole-free.
    ///
    /// # Errors
    ///
    /// Structurally invalid axes or filters ([`Self::validate_axes`]),
    /// unknown knobs, bad values, a filter that rejects every point,
    /// or a grid point failing [`SimConfig::validate`] (the error
    /// names the point).
    pub fn expand(&self) -> Result<Vec<GridPoint>, SpecError> {
        self.validate_axes()?;
        // Base values (registry-canonical text) for filter clauses over
        // knobs that do not vary on any axis.
        let base_knobs: Vec<(&'static str, String)> = if self.filters.is_empty() {
            Vec::new()
        } else {
            config_knobs(&self.base)
        };
        let total = self.grid_len();
        let mut grid = Vec::new();
        for raw in 0..total {
            // Decompose the row-major cross-product index into per-axis
            // choices.
            let mut rem = raw;
            let mut choices = vec![0usize; self.axes.len()];
            for (a, axis) in self.axes.iter().enumerate().rev() {
                choices[a] = rem % axis.points.len();
                rem /= axis.points.len();
            }
            let mut coords = Vec::new();
            for (a, axis) in self.axes.iter().enumerate() {
                for (k, v) in &axis.points[choices[a]].sets {
                    coords.push((k.clone(), v.clone()));
                }
            }
            let mut keep = true;
            for clause in &self.filters {
                let actual = coords
                    .iter()
                    .find(|(k, _)| *k == clause.knob)
                    .map(|(_, v)| v.as_str())
                    .or_else(|| {
                        base_knobs
                            .iter()
                            .find(|(k, _)| *k == clause.knob)
                            .map(|(_, v)| v.as_str())
                    })
                    .unwrap_or("");
                if !clause.holds(actual)? {
                    keep = false;
                    break;
                }
            }
            if !keep {
                continue;
            }
            let index = grid.len();
            let mut config = self.base.clone();
            for (k, v) in &coords {
                apply_knob(&mut config, k, v)?;
            }
            if let Err(e) = config.validate() {
                let at: Vec<String> = coords.iter().map(|(k, v)| format!("{k}={v}")).collect();
                return Err(SpecError::new(format!(
                    "grid point {index} ({}): {e}",
                    at.join(", ")
                )));
            }
            grid.push(GridPoint {
                index,
                coords,
                config,
            });
        }
        if grid.is_empty() && !self.filters.is_empty() {
            let clauses: Vec<String> = self.filters.iter().map(ToString::to_string).collect();
            return Err(SpecError::new(format!(
                "filter [{}] rejects every grid point ({} candidates)",
                clauses.join(", "),
                total
            )));
        }
        Ok(grid)
    }
}

/// One expanded grid point.
#[derive(Debug, Clone)]
pub struct GridPoint {
    /// Position in the row-major grid.
    pub index: usize,
    /// The axis assignments that produced this point.
    pub coords: Vec<(String, String)>,
    /// The fully-built configuration.
    pub config: SimConfig,
}

// ---------------------------------------------------------------------------
// The sweep engine.
// ---------------------------------------------------------------------------

/// One completed grid point of a sweep.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Position in the row-major grid.
    pub index: usize,
    /// The axis assignments that produced this point.
    pub coords: Vec<(String, String)>,
    /// [`config_fingerprint`] of the point's configuration (the resume
    /// key).
    pub config_fingerprint: u64,
    /// The simulation's full report.
    pub report: RunReport,
}

impl SweepRow {
    /// The value this row's coordinates assign to `knob`, if any.
    #[must_use]
    pub fn coord(&self, knob: &str) -> Option<&str> {
        coord(&self.coords, knob)
    }

    /// Serializes this row as one JSONL line (no trailing newline),
    /// keys in this order: `i`, `cfg`, `knobs` (the coordinates, as
    /// strings), the [`RowCounters`] keys, `fp`. Resume needs only `i`,
    /// `cfg` and `fp`, so adding fields never invalidates old streams.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let (i, cfg, r) = (self.index as u64, self.config_fingerprint, &self.report);
        render_row(i, cfg, &self.coords, RowCounters::of(r), r.fingerprint())
    }
}

fn coord<'a>(coords: &'a [(String, String)], knob: &str) -> Option<&'a str> {
    coords
        .iter()
        .find(|(k, _)| k == knob)
        .map(|(_, v)| v.as_str())
}

/// The keys around a row's counters: grid index, config fingerprint,
/// coordinates, report fingerprint.
const FRAME_KEYS: [&str; 4] = ["i", "cfg", "knobs", "fp"];

/// The one row writer ([`SweepRow::to_jsonl`]); [`JsonlRow::parse`]
/// reads it back.
fn render_row(index: u64, cfg: u64, coords: &Coords, mut c: RowCounters, fp: u64) -> String {
    let [index_key, cfg_key, knobs_key, fp_key] = FRAME_KEYS;
    let knobs = coords
        .iter()
        .map(|(k, v)| (k.clone(), Json::Str(v.clone())));
    let mut fields = vec![
        (index_key, Json::num(index)),
        (cfg_key, Json::num(cfg)),
        (knobs_key, Json::Obj(knobs.collect())),
    ];
    fields.extend(c.slots().map(|(key, slot)| match slot {
        Slot::Count(n) => (key, Json::num(*n)),
        Slot::Mean(x) => (key, Json::num(*x)),
    }));
    fields.push((fp_key, Json::num(fp)));
    Json::obj(fields).render()
}

/// The measured-window counters a sweep row carries: everything the
/// derived Fig 4–7 metrics need, so a stored row needs no simulation
/// state. Each metric is defined here once, `None` for a zero
/// denominator; [`RunReport`]'s metric methods delegate to these.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RowCounters {
    /// Slowest core's measured cycles (the run's wall clock).
    pub cycles: u64,
    /// Ops measured, all cores.
    pub ops: u64,
    /// Memory ops measured, all cores.
    pub mem_ops: u64,
    /// Cycles spent in address translation.
    pub translation_cycles: u64,
    /// OS cycles: compaction tax plus context-switch costs.
    pub os_cycles: u64,
    /// Completed page-table walks.
    pub walks: u64,
    /// Cycles spent in those walks.
    pub ptw_cycles: u64,
    /// Mean measured cycles across cores.
    pub avg_core_cycles: f64,
    /// L1 TLB hits/misses.
    pub tlb_l1: HitMiss,
    /// L2 TLB misses (walks started).
    pub tlb_l2_misses: u64,
    /// L1 cache hits/misses of normal data.
    pub l1_data: HitMiss,
    /// L1 cache hits/misses of metadata (PTEs).
    pub l1_metadata: HitMiss,
}

/// Where [`RowCounters::slots`] keeps one counter.
enum Slot<'a> {
    Count(&'a mut u64),
    Mean(&'a mut f64),
}

impl RowCounters {
    /// The counters of a finished run.
    #[must_use]
    pub fn of(r: &RunReport) -> Self {
        RowCounters {
            cycles: r.total_cycles.as_u64(),
            ops: r.ops,
            mem_ops: r.mem_ops,
            translation_cycles: r.translation_cycles,
            os_cycles: r.os_cycles,
            walks: r.ptw.count,
            ptw_cycles: r.ptw.sum.as_u64(),
            avg_core_cycles: r.avg_core_cycles,
            tlb_l1: r.tlb_l1,
            tlb_l2_misses: r.tlb_l2.misses,
            l1_data: r.l1_data,
            l1_metadata: r.l1_metadata,
        }
    }

    /// Every counter with its row key, in row order: the one spelling
    /// of the keys, shared by the writer and the parser.
    fn slots(&mut self) -> [(&'static str, Slot<'_>); 15] {
        use Slot::{Count, Mean};
        [
            ("cycles", Count(&mut self.cycles)),
            ("ops", Count(&mut self.ops)),
            ("mem_ops", Count(&mut self.mem_ops)),
            ("translation_cycles", Count(&mut self.translation_cycles)),
            ("os_cycles", Count(&mut self.os_cycles)),
            ("walks", Count(&mut self.walks)),
            ("ptw_cycles", Count(&mut self.ptw_cycles)),
            ("avg_core_cycles", Mean(&mut self.avg_core_cycles)),
            ("tlb_l1_hits", Count(&mut self.tlb_l1.hits)),
            ("tlb_l1_misses", Count(&mut self.tlb_l1.misses)),
            ("tlb_l2_misses", Count(&mut self.tlb_l2_misses)),
            ("l1d_hits", Count(&mut self.l1_data.hits)),
            ("l1d_misses", Count(&mut self.l1_data.misses)),
            ("l1m_hits", Count(&mut self.l1_metadata.hits)),
            ("l1m_misses", Count(&mut self.l1_metadata.misses)),
        ]
    }

    /// Reads the counters of a parsed row, each from its number's
    /// source text (64-bit counters never pass through an `f64`).
    ///
    /// # Errors
    ///
    /// The key of the first counter that is absent or not a number.
    fn from_json(row: &Json) -> Result<Self, &'static str> {
        let mut counters = RowCounters::default();
        for (key, slot) in counters.slots() {
            let Some(Json::Num(raw)) = row.get(key) else {
                return Err(key);
            };
            let parsed = match slot {
                Slot::Count(n) => raw.parse().ok().map(|v| *n = v),
                Slot::Mean(x) => raw.parse().ok().map(|v| *x = v),
            };
            parsed.ok_or(key)?;
        }
        Ok(counters)
    }

    /// Mean page-table-walk latency in cycles (Figs 4 and 6a).
    #[must_use]
    pub fn ptw_latency(&self) -> Option<f64> {
        ratio(self.ptw_cycles as f64, self.walks as f64)
    }

    /// Share of core time (`avg_core_cycles` × `cores`) spent
    /// translating (Fig 5).
    #[must_use]
    pub fn translation_fraction(&self, cores: u32) -> Option<f64> {
        let core_time = self.avg_core_cycles * f64::from(cores);
        ratio(self.translation_cycles as f64, core_time)
    }

    /// Core time (`avg_core_cycles` × `cores`) per measured op.
    #[must_use]
    pub fn cpo(&self, cores: u32) -> Option<f64> {
        ratio(self.avg_core_cycles * f64::from(cores), self.ops as f64)
    }

    /// `cycles / ops`: the slowest core's cycles over all cores' ops,
    /// the stored-row table's `cyc/op`. Unlike [`cpo`](Self::cpo) it
    /// does not scale with the core count (a quarter of it on 4 cores).
    #[must_use]
    pub fn wall_cycles_per_op(&self) -> Option<f64> {
        ratio(self.cycles as f64, self.ops as f64)
    }

    /// Walks per L1 TLB access (the end-to-end TLB miss rate).
    #[must_use]
    pub fn tlb_walk_rate(&self) -> Option<f64> {
        ratio(self.tlb_l2_misses as f64, self.tlb_l1.total() as f64)
    }

    /// L1 data-cache miss rate (Fig 7).
    #[must_use]
    pub fn l1_data_miss_rate(&self) -> Option<f64> {
        (self.l1_data.total() > 0).then(|| self.l1_data.miss_rate())
    }

    /// L1 metadata-cache miss rate (Fig 7).
    #[must_use]
    pub fn l1_metadata_miss_rate(&self) -> Option<f64> {
        (self.l1_metadata.total() > 0).then(|| self.l1_metadata.miss_rate())
    }
}

/// The outcome of [`run_sweep`]: every grid point's report, in grid
/// order, with grouping and summary helpers.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The spec's display name.
    pub name: String,
    /// One row per grid point, in row-major grid order.
    pub rows: Vec<SweepRow>,
}

impl SweepResult {
    /// XOR of every row's report fingerprint — one digest for the whole
    /// sweep.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.rows
            .iter()
            .fold(0u64, |d, r| d ^ r.report.fingerprint())
    }

    /// Groups rows by every coordinate **except** `knob`, preserving
    /// grid order within and across groups. For the common
    /// mechanism-paired sweeps, `pairs("mechanism")` yields one group
    /// per outer grid point with the Radix/NDPage rows side by side.
    #[must_use]
    pub fn pairs(&self, knob: &str) -> Vec<(Coords, Vec<&SweepRow>)> {
        let mut groups: Vec<(Coords, Vec<&SweepRow>)> = Vec::new();
        for row in &self.rows {
            let key: Coords = row
                .coords
                .iter()
                .filter(|(k, _)| k != knob)
                .cloned()
                .collect();
            if let Some((_, rows)) = groups.iter_mut().find(|(k, _)| *k == key) {
                rows.push(row);
            } else {
                groups.push((key, vec![row]));
            }
        }
        groups
    }

    /// Geometric-mean speedup of `test` over `baseline` along `knob`:
    /// rows are paired by their other coordinates, and each pair
    /// contributes `baseline.total_cycles / test.total_cycles`. Returns
    /// 0.0 when no pair has both values.
    #[must_use]
    pub fn geomean_speedup(&self, knob: &str, baseline: &str, test: &str) -> f64 {
        let mut ratios = Vec::new();
        for (_, rows) in self.pairs(knob) {
            let base = rows.iter().find(|r| r.coord(knob) == Some(baseline));
            let fast = rows.iter().find(|r| r.coord(knob) == Some(test));
            if let (Some(b), Some(t)) = (base, fast) {
                if t.report.total_cycles.as_u64() > 0 {
                    ratios.push(b.report.total_cycles.as_f64() / t.report.total_cycles.as_f64());
                }
            }
        }
        if ratios.is_empty() {
            0.0
        } else {
            geomean(&ratios)
        }
    }

    /// Serializes every row as JSONL (one line per grid point, grid
    /// order) — exactly the bytes [`run_sweep_jsonl`] writes.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        self.rows.iter().map(|r| r.to_jsonl() + "\n").collect()
    }
}

/// Expands a spec and runs every grid point across the work-stealing
/// parallel driver, returning reports in grid order (bit-identical to a
/// serial loop at any thread count).
///
/// # Errors
///
/// Propagates [`SweepSpec::expand`] errors; execution itself cannot
/// fail.
pub fn run_sweep(spec: &SweepSpec) -> Result<SweepResult, SpecError> {
    let grid = spec.expand()?;
    let mut meta = Vec::with_capacity(grid.len());
    let mut configs = Vec::with_capacity(grid.len());
    for p in grid {
        meta.push((p.index, p.coords, config_fingerprint(&p.config)));
        configs.push(p.config);
    }
    let reports = par_map(configs, |cfg| Machine::new(cfg).run());
    let rows = meta
        .into_iter()
        .zip(reports)
        .map(|((index, coords, config_fingerprint), report)| SweepRow {
            index,
            coords,
            config_fingerprint,
            report,
        })
        .collect();
    Ok(SweepResult {
        name: spec.name.clone(),
        rows,
    })
}

// ---------------------------------------------------------------------------
// Incremental JSONL output + resume.
// ---------------------------------------------------------------------------

/// One stored sweep row, parsed once for every reader: resume and
/// merge, `serve`, the supervisor, `calibrate` and `figures
/// --from-jsonl`.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonlRow {
    /// Grid index recorded in the row.
    pub index: u64,
    /// The row's coordinates (empty when it has no `knobs`).
    pub coords: Coords,
    /// Config fingerprint recorded in the row (the resume key).
    pub config_fingerprint: u64,
    /// Report fingerprint recorded in the row.
    pub report_fingerprint: u64,
    /// The row's counters, or the key of the first one it lacks: rows
    /// written before the counters existed carry only `i`, `cfg` and
    /// `fp`, and resume still reuses them.
    pub counters: Result<RowCounters, &'static str>,
    /// The row's original line, verbatim (no newline).
    pub line: String,
}

impl JsonlRow {
    /// Parses one row line (the inverse of [`SweepRow::to_jsonl`]).
    ///
    /// # Errors
    ///
    /// Malformed JSON, or names the missing index or fingerprint.
    pub fn parse(line: &str) -> Result<JsonlRow, String> {
        let row = parse_json(line)?;
        let [index_key, cfg_key, knobs_key, fp_key] = FRAME_KEYS;
        let num = |key: &str| match row.get(key) {
            Some(Json::Num(raw)) => raw
                .parse()
                .map_err(|_| format!("row key {key:?} is not a u64")),
            _ => Err(format!("row has no number {key:?}")),
        };
        let coords = match row.get(knobs_key) {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, v)| (k.clone(), v.scalar().unwrap_or_default()))
                .collect(),
            _ => Vec::new(),
        };
        Ok(JsonlRow {
            index: num(index_key)?,
            coords,
            config_fingerprint: num(cfg_key)?,
            report_fingerprint: num(fp_key)?,
            counters: RowCounters::from_json(&row),
            line: line.to_string(),
        })
    }

    /// The value this row's coordinates assign to `knob`, if any.
    #[must_use]
    pub fn coord(&self, knob: &str) -> Option<&str> {
        coord(&self.coords, knob)
    }
}

/// Parses a JSONL sweep file, skipping malformed lines (a truncated
/// final line after an interrupt parses as malformed and is dropped, so
/// its grid point re-runs).
#[must_use]
pub fn parse_jsonl(text: &str) -> Vec<JsonlRow> {
    text.lines()
        .filter_map(|l| JsonlRow::parse(l).ok())
        .collect()
}

/// Result of strictly ingesting a JSONL sweep stream for resume/merge.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonlIngest {
    /// Every valid, newline-terminated row, in file order, with the
    /// byte offset just past its newline (truncating the file there
    /// keeps exactly the rows up to this one).
    pub rows: Vec<(JsonlRow, u64)>,
    /// Non-fatal observations: a torn or garbage **trailing** line is
    /// skipped with a warning here (its point simply re-runs).
    pub warnings: Vec<String>,
}

/// What [`ingest_lines`] keeps: every parsed, newline-terminated
/// record with the byte offset just past its newline, and the dropped
/// final line, if any (its 1-based number, and whether it parsed).
pub type Ingested<T> = (Vec<(T, u64)>, Option<(usize, bool)>);

/// Line-granular crash recovery for an append-only stream of records,
/// one per line, each read by `parse`. A malformed or unterminated
/// **final** line is the signature of an interrupted append and is
/// dropped (truncate-and-redo — never an error, never a duplicate); a
/// malformed line **mid**-file means something other than a crash
/// mangled the stream. Blank lines are ignored, and a *valid* final
/// line without its newline is still torn, so a half-flushed line
/// never survives.
///
/// # Errors
///
/// The 1-based number of the first malformed line before the final one.
pub fn ingest_lines<T>(
    text: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Ingested<T>, usize> {
    let (mut items, mut torn, mut offset) = (Vec::new(), None, 0u64);
    let mut segments = text.split_inclusive('\n').enumerate().peekable();
    while let Some((n, seg)) = segments.next() {
        offset += seg.len() as u64;
        let content = seg.trim_end_matches('\n').trim_end_matches('\r');
        if content.trim().is_empty() {
            continue;
        }
        match parse(content) {
            Some(item) if seg.ends_with('\n') => items.push((item, offset)),
            // Unterminated can only be the final segment.
            parsed if segments.peek().is_none() => torn = Some((n + 1, parsed.is_some())),
            _ => return Err(n + 1),
        }
    }
    Ok((items, torn))
}

/// Strictly parses a JSONL sweep stream with [`ingest_lines`]'s
/// recovery: a torn final line is skipped with a warning (its grid
/// point re-runs), a malformed line mid-file is an error.
///
/// # Errors
///
/// Corruption before the final line, with `source` and the 1-based
/// line number in the message.
pub fn ingest_jsonl(text: &str, source: &str) -> Result<JsonlIngest, SpecError> {
    let (rows, torn) = ingest_lines(text, |l| JsonlRow::parse(l).ok()).map_err(|lineno| {
        SpecError::new(format!(
            "{source}: corrupt JSONL row at line {lineno} (mid-file — \
             not a torn tail; refusing to resume over it)"
        ))
    })?;
    let warnings = match torn {
        None => Vec::new(),
        Some((lineno, true)) => vec![format!(
            "{source}: final line {lineno} has no trailing newline \
             (torn write); dropping it, its grid point will re-run"
        )],
        Some((lineno, false)) => vec![format!(
            "{source}: skipping truncated/garbage trailing line {lineno}; \
             its grid point will re-run"
        )],
    };
    Ok(JsonlIngest { rows, warnings })
}

/// Loads resume rows from `sources` in order (later sources win) into
/// a by-grid-index cache. A row is usable only when its grid index and
/// config fingerprint both match the current grid; anything else is
/// warned about and ignored. A duplicate grid index **within one
/// file** is warned about, last row wins.
///
/// # Errors
///
/// Mid-file corruption in any source ([`ingest_jsonl`]).
fn load_resume_cache(
    sources: &[std::path::PathBuf],
    fps: &[u64],
    warnings: &mut Vec<String>,
) -> Result<Vec<Option<JsonlRow>>, SpecError> {
    let mut cached: Vec<Option<JsonlRow>> = vec![None; fps.len()];
    for src in sources {
        let Ok(text) = std::fs::read_to_string(src) else {
            continue;
        };
        let name = src.display().to_string();
        let ingest = ingest_jsonl(&text, &name)?;
        warnings.extend(ingest.warnings);
        let mut seen = vec![false; fps.len()];
        for (row, _) in ingest.rows {
            let idx = row.index as usize;
            if idx >= fps.len() || fps[idx] != row.config_fingerprint {
                warnings.push(format!(
                    "{name}: row for grid index {} does not match the current \
                     grid (ignored; its point re-runs if still in the spec)",
                    row.index
                ));
                continue;
            }
            if seen[idx] {
                warnings.push(format!(
                    "{name}: duplicate row for grid index {idx} (keeping the last)"
                ));
            }
            seen[idx] = true;
            cached[idx] = Some(row);
        }
    }
    Ok(cached)
}

/// Summary of a [`run_sweep_jsonl`] drive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepRunSummary {
    /// Grid points this run was responsible for (the full grid, or the
    /// shard's stripe under `--shard`).
    pub grid: usize,
    /// Points actually simulated this run.
    pub executed: usize,
    /// Points reused from resume state (final output, `.tmp` stream or
    /// shard files).
    pub reused: usize,
    /// XOR of every row's report fingerprint (reused rows contribute
    /// their recorded fingerprint).
    pub digest: u64,
    /// Non-fatal resume observations (torn tails skipped, stale rows
    /// ignored, duplicates resolved). Callers should surface these.
    pub warnings: Vec<String>,
}

/// How [`run_sweep_jsonl_opts`] executes and recovers.
#[derive(Debug, Clone, Default)]
pub struct JsonlOptions {
    /// Reuse matching rows from existing output/stream/shard files.
    pub resume: bool,
    /// Run only this stripe of the grid, streaming to the shard file.
    pub shard: Option<ShardSpec>,
    /// Fault-injection plan (tests only; `None` in production).
    pub fault: Option<FaultPlan>,
}

/// Runs a sweep with **incremental JSONL output**: the stream always
/// holds a contiguous, in-order prefix of completed rows (each flushed
/// as soon as every earlier point has retired), so an interrupted sweep
/// leaves a usable, resumable stream. The final file lands via
/// temp-file + atomic rename ([`run_sweep_jsonl_opts`] for details).
///
/// With `resume`, rows already on disk are reused — a row is reused
/// when both its config fingerprint and its grid index match the
/// current spec, so a spec edit re-runs exactly the points it moved or
/// changed — and only the remaining grid points execute. The merged
/// file is byte-for-byte identical to an uninterrupted run.
///
/// # Errors
///
/// Spec expansion errors, mid-file resume corruption, or I/O errors.
pub fn run_sweep_jsonl(
    spec: &SweepSpec,
    path: &Path,
    resume: bool,
) -> Result<SweepRunSummary, SpecError> {
    run_sweep_jsonl_opts(
        spec,
        path,
        &JsonlOptions {
            resume,
            ..JsonlOptions::default()
        },
    )
}

/// In-order row sink over a position list: positions `0..written` are
/// already on disk; `put` appends the next one.
struct Sink<'a> {
    w: std::io::BufWriter<std::fs::File>,
    /// Positions (into the emit list) already emitted.
    written: usize,
    /// Grid index of each emit position (fault-plan addressing).
    emit: &'a [usize],
    cached: &'a [Option<JsonlRow>],
    fault: Option<&'a FaultPlan>,
    err: Option<String>,
}

impl Sink<'_> {
    fn put(&mut self, line: &str) {
        let pos = self.written;
        // Count the row as logically emitted even after an earlier
        // write error: `written` is the loop variable of
        // `flush_cached_until`, which must keep terminating so the
        // first error can propagate instead of hanging the workers.
        self.written += 1;
        if self.err.is_some() {
            return;
        }
        if let Some(fault) = self.fault {
            // Abort/hang/torn exit or block here; returns iff disarmed.
            fault.maybe_fire(self.emit[pos] as u64, line, &mut self.w);
        }
        if let Err(e) = writeln!(self.w, "{line}") {
            self.err = Some(e.to_string());
        }
    }

    /// Writes cached rows up to (not including) emit position `upto`.
    fn flush_cached_until(&mut self, upto: usize) {
        while self.written < upto {
            match &self.cached[self.written] {
                Some(row) => {
                    let line = row.line.clone();
                    self.put(&line);
                }
                // The engine only calls with `upto` = a position about
                // to be written fresh; every earlier position is cached
                // or in the execute list, which runs in ascending order.
                // A gap would mean the resume bookkeeping lost a row —
                // surfaced as a sweep error (never a panic: a supervised
                // worker must die reporting, not crash mid-stream), with
                // `written` still advancing so the loop terminates.
                None => {
                    if self.err.is_none() {
                        self.err = Some(format!(
                            "internal: gap in completed sweep prefix at emit position {}",
                            self.written
                        ));
                    }
                    self.written += 1;
                }
            }
        }
        let _ = self.w.flush();
    }
}

/// Streams rows for emit positions `start..emit.len()` into `file` in
/// order: cached rows are copied, the rest simulate on the parallel
/// driver and flush per-row. Returns `(executed, digest_of_executed)`.
#[allow(clippy::too_many_arguments)]
fn stream_rows(
    grid: &[GridPoint],
    fps: &[u64],
    emit: &[usize],
    start: usize,
    cached: &[Option<JsonlRow>],
    file: std::fs::File,
    fault: Option<&FaultPlan>,
    path: &Path,
) -> Result<(usize, u64), SpecError> {
    let mut missing_pos = Vec::new();
    let mut missing_cfgs = Vec::new();
    for pos in start..emit.len() {
        if cached[pos].is_none() {
            missing_pos.push(pos);
            missing_cfgs.push(grid[emit[pos]].config.clone());
        }
    }

    let mut sink = Sink {
        w: std::io::BufWriter::new(file),
        written: start,
        emit,
        cached,
        fault,
        err: None,
    };
    // Land the reused prefix immediately — a sweep interrupted again
    // while its first missing point is still simulating must not lose
    // rows it already had.
    sink.flush_cached_until(missing_pos.first().copied().unwrap_or(emit.len()));

    let executed = missing_pos.len();
    let missing_rows: Vec<(usize, Coords, u64)> = missing_pos
        .iter()
        .map(|&p| (p, grid[emit[p]].coords.clone(), fps[emit[p]]))
        .collect();
    let reports = par_map_sink(missing_cfgs, |cfg| Machine::new(cfg).run(), {
        let sink = &mut sink;
        let missing_rows = &missing_rows;
        move |k: usize, report: &RunReport| {
            let (p, ref coords, cfg_fp) = missing_rows[k];
            sink.flush_cached_until(p);
            let (index, fp) = (emit[p] as u64, report.fingerprint());
            sink.put(&render_row(
                index,
                cfg_fp,
                coords,
                RowCounters::of(report),
                fp,
            ));
            let _ = sink.w.flush();
        }
    });
    sink.flush_cached_until(emit.len());
    if let Some(e) = sink.err {
        return Err(SpecError::new(format!("writing {}: {e}", path.display())));
    }
    drop(sink);

    let mut digest = 0u64;
    for report in &reports {
        digest ^= report.fingerprint();
    }
    Ok((executed, digest))
}

/// The crash-safe JSONL sweep engine.
///
/// **Serial mode** (`shard: None`): resumes from the final output, its
/// `.tmp` stream and any shard files next to it (later sources win),
/// streams the full grid to `<path>.tmp`, then atomically renames onto
/// `path` and removes the now-stale shard files. An interrupt leaves
/// the previous `path` intact and a contiguous `.tmp` prefix to resume
/// from; `path` itself is never half-written.
///
/// **Shard mode** (`shard: Some(I/N)`): runs only grid indices with
/// `i % N == I`, appending to `<path>.shard-I-of-N`. Resume keeps the
/// longest prefix of the shard file that matches the stripe in order
/// (truncating a torn tail byte-accurately), reuses matching rows from
/// the merged output for later stripe positions, and appends the rest
/// with a per-row flush — the file's growth is the worker's heartbeat.
/// [`merge_sweep_jsonl`] stitches shard files back into the serial
/// byte stream.
///
/// # Errors
///
/// Spec expansion errors, mid-file corruption in resume sources, or
/// I/O errors.
pub fn run_sweep_jsonl_opts(
    spec: &SweepSpec,
    path: &Path,
    opts: &JsonlOptions,
) -> Result<SweepRunSummary, SpecError> {
    let grid = spec.expand()?;
    let fps: Vec<u64> = grid.iter().map(|p| config_fingerprint(&p.config)).collect();
    let mut warnings = Vec::new();
    let serial_shards = match opts.shard {
        Some(_) => Vec::new(),
        None => shard::existing_shard_files(path),
    };

    // Emit positions, the rows already in place at the head of the
    // output stream, reusable rows for the later positions, and the
    // stream itself.
    let (emit, prefix_rows, mut digest, cached, file, stream) = if let Some(sh) = opts.shard {
        let emit: Vec<usize> = (0..grid.len()).filter(|&i| sh.owns(i)).collect();
        let spath = shard::shard_path(path, sh);
        let sname = spath.display().to_string();

        // The shard file is append-only in stripe order, so its usable
        // resume state is the longest prefix matching the stripe; the
        // first mismatched row (spec edit) or torn tail truncates.
        let mut prefix_rows = 0usize;
        let mut prefix_bytes = 0u64;
        let mut digest = 0u64;
        if opts.resume {
            if let Ok(text) = std::fs::read_to_string(&spath) {
                let ingest = ingest_jsonl(&text, &sname)?;
                warnings.extend(ingest.warnings);
                for (k, (row, end)) in ingest.rows.iter().enumerate() {
                    let expect = emit.get(k).copied();
                    if expect != Some(row.index as usize)
                        || fps[row.index as usize] != row.config_fingerprint
                    {
                        warnings.push(format!(
                            "{sname}: row {} does not match stripe {sh} of the \
                             current grid; truncating and re-running from there",
                            k + 1
                        ));
                        break;
                    }
                    prefix_rows = k + 1;
                    prefix_bytes = *end;
                    digest ^= row.report_fingerprint;
                }
            }
        }

        // Later stripe positions can still reuse rows from a previous
        // (possibly partial) merged output or its stream.
        let mut cached: Vec<Option<JsonlRow>> = vec![None; emit.len()];
        if opts.resume {
            let sources = [path.to_path_buf(), shard::stream_path(path)];
            let mut by_idx = load_resume_cache(&sources, &fps, &mut warnings)?;
            for (pos, &g) in emit.iter().enumerate().skip(prefix_rows) {
                cached[pos] = by_idx[g].take();
            }
        }

        // Append mode: after the truncation every row lands at the end.
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&spath)
            .map_err(|e| SpecError::new(format!("cannot open {sname}: {e}")))?;
        file.set_len(prefix_bytes)
            .map_err(|e| SpecError::new(format!("cannot truncate {sname}: {e}")))?;
        (emit, prefix_rows, digest, cached, file, spath)
    } else {
        let mut cached: Vec<Option<JsonlRow>> = vec![None; grid.len()];
        if opts.resume {
            let mut sources = vec![path.to_path_buf(), shard::stream_path(path)];
            sources.extend(serial_shards.iter().cloned());
            cached = load_resume_cache(&sources, &fps, &mut warnings)?;
        }
        let tmp = shard::stream_path(path);
        let file = std::fs::File::create(&tmp)
            .map_err(|e| SpecError::new(format!("cannot create {}: {e}", tmp.display())))?;
        ((0..grid.len()).collect(), 0, 0, cached, file, tmp)
    };

    let reused = prefix_rows + cached.iter().flatten().count();
    for row in cached.iter().flatten() {
        digest ^= row.report_fingerprint;
    }
    let (executed, exec_digest) = stream_rows(
        &grid,
        &fps,
        &emit,
        prefix_rows,
        &cached,
        file,
        opts.fault.as_ref(),
        &stream,
    )?;
    if opts.shard.is_none() {
        land(&stream, path)?;
        // The sweep is complete at `path`; shard files for it are stale.
        for f in &serial_shards {
            std::fs::remove_file(f).ok();
        }
    }
    Ok(SweepRunSummary {
        grid: emit.len(),
        executed,
        reused,
        digest: digest ^ exec_digest,
        warnings,
    })
}

/// Atomically renames a finished `.tmp` stream onto its final path.
fn land(tmp: &Path, path: &Path) -> Result<(), SpecError> {
    std::fs::rename(tmp, path).map_err(|e| {
        SpecError::new(format!(
            "cannot rename {} to {}: {e}",
            tmp.display(),
            path.display()
        ))
    })
}

/// Summary of a [`merge_sweep_jsonl`] pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeSummary {
    /// Total grid points in the spec.
    pub grid: usize,
    /// Rows present in the merged output.
    pub merged: usize,
    /// Grid indices with no completed row anywhere (partial sweep).
    pub missing: Vec<usize>,
    /// XOR of every merged row's report fingerprint.
    pub digest: u64,
    /// Non-fatal observations from ingesting the sources.
    pub warnings: Vec<String>,
}

/// Merges shard files (plus any previous merged output / `.tmp`
/// stream) into the final JSONL at `path`: rows in grid order, written
/// through `<path>.tmp` + atomic rename, byte-identical to an
/// uninterrupted serial run when every row is present. Deliberately
/// consults no fault plan — a supervisor with `NDP_FAULT` exported for
/// its workers merges unharmed. On a complete merge the shard files
/// are removed; on a partial one they are kept so a later run can
/// resume, and `missing` lists the absent grid indices.
///
/// # Errors
///
/// Spec expansion errors, mid-file corruption in any source, or I/O
/// errors writing the merged file.
pub fn merge_sweep_jsonl(spec: &SweepSpec, path: &Path) -> Result<MergeSummary, SpecError> {
    let grid = spec.expand()?;
    let fps: Vec<u64> = grid.iter().map(|p| config_fingerprint(&p.config)).collect();
    let mut warnings = Vec::new();

    let shard_files = shard::existing_shard_files(path);
    let mut sources = vec![path.to_path_buf(), shard::stream_path(path)];
    sources.extend(shard_files.iter().cloned());
    let cached = load_resume_cache(&sources, &fps, &mut warnings)?;

    let missing: Vec<usize> = (0..grid.len()).filter(|&i| cached[i].is_none()).collect();
    let tmp = shard::stream_path(path);
    let file = std::fs::File::create(&tmp)
        .map_err(|e| SpecError::new(format!("cannot create {}: {e}", tmp.display())))?;
    let mut w = std::io::BufWriter::new(file);
    let mut digest = 0u64;
    let mut merged = 0usize;
    for row in cached.iter().flatten() {
        writeln!(w, "{}", row.line)
            .map_err(|e| SpecError::new(format!("writing {}: {e}", tmp.display())))?;
        digest ^= row.report_fingerprint;
        merged += 1;
    }
    w.flush()
        .map_err(|e| SpecError::new(format!("writing {}: {e}", tmp.display())))?;
    drop(w);
    land(&tmp, path)?;
    if missing.is_empty() {
        for f in &shard_files {
            std::fs::remove_file(f).ok();
        }
    }
    Ok(MergeSummary {
        grid: grid.len(),
        merged,
        missing,
        digest,
        warnings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemKind;
    use proptest::prelude::*;

    fn base() -> SimConfig {
        SimConfig::quick(SystemKind::Ndp, 2, Mechanism::Radix, WorkloadId::Rnd)
    }

    #[test]
    fn every_knob_is_registered_exactly_once() {
        let mut names: Vec<&str> = KNOBS.iter().map(|k| k.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), KNOBS.len(), "duplicate knob names");
        let mut flags: Vec<&str> = KNOBS.iter().filter_map(|k| k.flag).collect();
        flags.sort_unstable();
        flags.dedup();
        assert_eq!(
            flags.len(),
            KNOBS.iter().filter(|k| k.flag.is_some()).count(),
            "duplicate flags"
        );
    }

    #[test]
    fn apply_get_round_trips_every_knob() {
        // Mutate every field away from the default, then check that
        // serializing and re-applying the knob list reproduces the
        // config exactly (same fingerprint).
        let mut cfg = base();
        cfg.system = SystemKind::Cpu;
        cfg.cores = 7;
        cfg.mechanism = Mechanism::HugePage;
        cfg.workload = WorkloadId::Gen;
        cfg.warmup_ops = 123;
        cfg.measure_ops = 456;
        cfg.footprint_override = Some(77 << 20);
        cfg.seed = 0xdead_beef_dead_beef;
        cfg.pwc_override = Some(false);
        cfg.bypass_override = Some(BypassPolicy::MetadataL1Bypass);
        cfg.memory_capacity_override = Some(1 << 33);
        cfg.pwc_entries = Some(128);
        cfg.tlb_l2_entries = Some(768);
        cfg.tlb_fracture_huge = Some(false);
        cfg.compaction_tax = Cycles::new(2201);
        cfg.procs_per_core = 3;
        cfg.context_switch_quantum_ops = 999;
        cfg.context_switch_cost = Cycles::new(4001);
        cfg.tlb_tagging = false;
        cfg.mlp_window = 8;
        cfg.mshrs_per_core = 16;
        cfg.walkers_per_core = 2;
        cfg.l3_kb = 2048;
        cfg.l3_ways = 8;
        cfg.l3_banks = 4;
        cfg.l3_policy = InclusionPolicy::Exclusive;
        cfg.vault_buffer_kb = 128;

        let mut rebuilt = SimConfig::cli_default();
        for (name, value) in config_knobs(&cfg) {
            apply_knob(&mut rebuilt, name, &value).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        assert_eq!(config_fingerprint(&cfg), config_fingerprint(&rebuilt));
        // Spot-check fields the fingerprint hash could in principle
        // collide on.
        assert_eq!(rebuilt.l3_policy, InclusionPolicy::Exclusive);
        assert_eq!(
            rebuilt.bypass_override,
            Some(BypassPolicy::MetadataL1Bypass)
        );
        assert_eq!(rebuilt.footprint_override, Some(77 << 20));
        assert!(!rebuilt.tlb_tagging);
    }

    #[test]
    fn optional_knobs_clear_with_default() {
        let mut cfg = base();
        cfg.pwc_entries = Some(99);
        apply_knob(&mut cfg, "pwc_entries", "default").unwrap();
        assert_eq!(cfg.pwc_entries, None);
        apply_knob(&mut cfg, "footprint", "default").unwrap();
        assert_eq!(cfg.footprint_override, None);
    }

    #[test]
    fn unknown_knob_lists_valid_names() {
        let err = apply_knob(&mut base(), "no_such_knob", "1").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("no_such_knob"));
        assert!(msg.contains("mlp_window") && msg.contains("l3_policy"));
    }

    #[test]
    fn bad_values_name_the_constraint() {
        let err = apply_knob(&mut base(), "cores", "many").unwrap_err();
        assert!(err.to_string().contains("many"));
        let err = apply_knob(&mut base(), "cores", "4294967297").unwrap_err();
        assert!(err.to_string().contains("exceeds"));
        let err = apply_knob(&mut base(), "mechanism", "foo").unwrap_err();
        assert!(err.to_string().contains("ndpage"));
        let err = apply_knob(&mut base(), "workload", "bar").unwrap_err();
        assert!(err.to_string().contains("BFS"));
        let err = apply_knob(&mut base(), "l3_policy", "open").unwrap_err();
        assert!(err.to_string().contains("exclusive"));
    }

    #[test]
    fn config_fingerprint_separates_and_repeats() {
        assert_eq!(config_fingerprint(&base()), config_fingerprint(&base()));
        let mut other = base();
        other.seed += 1;
        assert_ne!(config_fingerprint(&base()), config_fingerprint(&other));
    }

    #[test]
    fn grid_expands_row_major_exactly_once() {
        let spec = SweepSpec::new(base())
            .axis("pwc_entries", &[8usize, 64])
            .axis("mechanism", &["radix", "ndpage"]);
        assert_eq!(spec.grid_len(), 4);
        let grid = spec.expand().unwrap();
        let coords: Vec<String> = grid
            .iter()
            .map(|p| {
                p.coords
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect();
        assert_eq!(
            coords,
            vec![
                "pwc_entries=8,mechanism=radix",
                "pwc_entries=8,mechanism=ndpage",
                "pwc_entries=64,mechanism=radix",
                "pwc_entries=64,mechanism=ndpage",
            ]
        );
        // Deterministic: a second expansion is identical, config for
        // config.
        let again = spec.expand().unwrap();
        for (a, b) in grid.iter().zip(&again) {
            assert_eq!(config_fingerprint(&a.config), config_fingerprint(&b.config));
        }
        // Exactly once: all four config fingerprints distinct.
        let mut fps: Vec<u64> = grid.iter().map(|p| config_fingerprint(&p.config)).collect();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), 4);
    }

    #[test]
    fn paired_axis_sets_knobs_together() {
        let spec = SweepSpec::new(base()).paired_axis(vec![
            vec![("mlp_window", "1".into()), ("mshrs_per_core", "1".into())],
            vec![("mlp_window", "8".into()), ("mshrs_per_core", "8".into())],
        ]);
        let grid = spec.expand().unwrap();
        assert_eq!(grid.len(), 2);
        assert_eq!(grid[1].config.mlp_window, 8);
        assert_eq!(grid[1].config.mshrs_per_core, 8);
    }

    #[test]
    fn expansion_validates_each_point() {
        let spec = SweepSpec::new(base()).axis("mlp_window", &[1u32, 0]);
        let err = spec.expand().unwrap_err().to_string();
        assert!(err.contains("grid point 1"), "{err}");
        assert!(err.contains("mlp_window=0"), "{err}");
    }

    #[test]
    fn spec_json_round_trip() {
        let spec = SweepSpec::from_json(
            r#"{
                "name": "demo",
                "base": {"workload": "RND", "cores": 2, "measure_ops": 1000},
                "axes": [
                    {"knob": "l3_kb", "values": [0, 2048]},
                    {"points": [{"mlp_window": 1, "mshrs_per_core": 1},
                                {"mlp_window": 8, "mshrs_per_core": 8}]},
                    {"knob": "mechanism", "values": ["radix", "ndpage"]}
                ]
            }"#,
        )
        .unwrap();
        assert_eq!(spec.name, "demo");
        assert_eq!(spec.base.workload, WorkloadId::Rnd);
        assert_eq!(spec.base.cores, 2);
        assert_eq!(spec.base.measure_ops, 1000);
        // Unset base knobs keep the CLI defaults.
        assert_eq!(spec.base.footprint_override, Some(1 << 30));
        assert_eq!(spec.grid_len(), 8);
        let grid = spec.expand().unwrap();
        assert_eq!(grid[7].config.l3_kb, 2048);
        assert_eq!(grid[7].config.mlp_window, 8);
        assert_eq!(grid[7].config.mechanism, Mechanism::NdPage);
    }

    #[test]
    fn spec_json_rejects_unknowns() {
        let err = SweepSpec::from_json(r#"{"bases": {}}"#).unwrap_err();
        assert!(err.to_string().contains("unknown spec key"));
        let err = SweepSpec::from_json(r#"{"base": {"coers": 2}}"#).unwrap_err();
        assert!(err.to_string().contains("coers"));
        assert!(err.to_string().contains("valid knobs"));
        let err =
            SweepSpec::from_json(r#"{"axes": [{"knob": "nope", "values": [1]}]}"#).unwrap_err();
        assert!(err.to_string().contains("nope"));
        let err = SweepSpec::from_json(r#"{"axes": [{"values": [1]}]}"#).unwrap_err();
        assert!(err.to_string().contains("knob"));
        let err = SweepSpec::from_json(r#"{"#).unwrap_err();
        assert!(err.to_string().contains("spec JSON"));
    }

    #[test]
    fn jsonl_rows_parse_back() {
        let spec =
            SweepSpec::new(base().with_ops(200, 500)).axis("mechanism", &["radix", "ndpage"]);
        let result = run_sweep(&spec).unwrap();
        let text = result.to_jsonl();
        let rows = parse_jsonl(&text);
        assert_eq!(rows.len(), 2);
        for (row, parsed) in result.rows.iter().zip(&rows) {
            assert_eq!(parsed.index as usize, row.index);
            assert_eq!(parsed.config_fingerprint, row.config_fingerprint);
            assert_eq!(parsed.report_fingerprint, row.report.fingerprint());
            assert_eq!(parsed.line, row.to_jsonl());
        }
        // A truncated final line is dropped, not mis-parsed.
        let truncated = &text[..text.len() - 10];
        assert_eq!(parse_jsonl(truncated).len(), 1);
    }

    #[test]
    fn stored_row_metrics_match_the_report_bit_for_bit() {
        let spec = SweepSpec::new(base().with_ops(200, 500))
            .axis("cores", &[1usize, 2, 4])
            .axis("mechanism", &["radix", "ndpage", "ideal"]);
        let result = run_sweep(&spec).unwrap();
        let stored = parse_jsonl(&result.to_jsonl());
        assert_eq!(stored.len(), 9);
        for (row, parsed) in result.rows.iter().zip(&stored) {
            let (r, c) = (&row.report, parsed.counters.unwrap());
            let cores: u32 = parsed.coord("cores").unwrap().parse().unwrap();
            let bits = |v: Option<f64>| v.unwrap_or(0.0).to_bits();
            assert_eq!(bits(c.ptw_latency()), r.avg_ptw_latency().to_bits());
            assert_eq!(
                bits(c.translation_fraction(cores)),
                r.translation_fraction().to_bits()
            );
            assert_eq!(bits(c.cpo(cores)), r.cpo().to_bits());
            assert_eq!(bits(c.tlb_walk_rate()), r.tlb_walk_rate().to_bits());
            assert_eq!(bits(c.l1_data_miss_rate()), r.l1_data.miss_rate().to_bits());
            assert_eq!(
                bits(c.l1_metadata_miss_rate()),
                r.l1_metadata.miss_rate().to_bits()
            );
        }
    }

    /// Counters from raw draws: `avg_core_cycles` is a mean over cores,
    /// as the simulator computes it, of a total small enough (< 2^40)
    /// that the mean keeps a fractional part.
    fn counters_from(n: &[u64], cores: u64) -> RowCounters {
        RowCounters {
            cycles: n[0],
            ops: n[1],
            mem_ops: n[2],
            translation_cycles: n[3],
            os_cycles: n[4],
            walks: n[5],
            ptw_cycles: n[6],
            avg_core_cycles: (n[7] >> 24) as f64 / cores as f64,
            tlb_l1: HitMiss {
                hits: n[8],
                misses: n[9],
            },
            tlb_l2_misses: n[10],
            l1_data: HitMiss {
                hits: n[11],
                misses: n[12],
            },
            l1_metadata: HitMiss {
                hits: n[13],
                misses: n[14],
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Writing a row and parsing it back gives the same frame and
        /// counters, and writing the parsed row gives the same bytes.
        #[test]
        fn rows_round_trip_through_write_and_parse(
            n in prop::collection::vec(any::<u64>(), 15..16),
            cores in 1u64..64,
            frame in (
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
            ),
            knob in prop::sample::select(vec!["", "a\"b", "é 😀", "\u{1}\n"]),
        ) {
            let (index, cfg, fp) = frame;
            let counters = counters_from(&n, cores);
            let coords = vec![("mechanism".to_string(), knob.to_string())];
            let line = render_row(index, cfg, &coords, counters, fp);
            let row = JsonlRow::parse(&line).unwrap();
            prop_assert_eq!(&row.counters, &Ok(counters));
            prop_assert_eq!(
                (row.index, row.config_fingerprint, row.report_fingerprint),
                (index, cfg, fp)
            );
            prop_assert_eq!(&row.coords, &coords);
            prop_assert_eq!(&row.line, &line);
            let again = render_row(
                row.index,
                row.config_fingerprint,
                &row.coords,
                row.counters.unwrap(),
                row.report_fingerprint,
            );
            prop_assert_eq!(again, line);
        }
    }

    #[test]
    fn sweep_result_pairs_and_geomean() {
        let spec = SweepSpec::new(base().with_ops(200, 500))
            .axis("pwc_entries", &[8usize, 64])
            .axis("mechanism", &["radix", "ndpage"]);
        let result = run_sweep(&spec).unwrap();
        assert_eq!(result.rows.len(), 4);
        let pairs = result.pairs("mechanism");
        assert_eq!(pairs.len(), 2, "one group per pwc size");
        for (key, rows) in &pairs {
            assert_eq!(key.len(), 1);
            assert_eq!(rows.len(), 2);
            assert_eq!(rows[0].coord("mechanism"), Some("radix"));
            assert_eq!(rows[1].coord("mechanism"), Some("ndpage"));
        }
        let speedup = result.geomean_speedup("mechanism", "radix", "ndpage");
        assert!(speedup > 0.5 && speedup < 5.0, "sane speedup: {speedup}");
        assert_eq!(result.geomean_speedup("mechanism", "radix", "radix"), 1.0);
        assert_eq!(result.geomean_speedup("mechanism", "nope", "ndpage"), 0.0);
        let digest = result.digest();
        assert_ne!(digest, 0);
    }

    #[test]
    fn json_parser_handles_scalars_and_nesting() {
        assert_eq!(parse_json("null").unwrap(), Json::Null);
        assert_eq!(parse_json(" true ").unwrap(), Json::Bool(true));
        assert_eq!(
            parse_json("18446744073709551615").unwrap(),
            Json::Num("18446744073709551615".to_string())
        );
        assert_eq!(
            parse_json(r#""a\"b\\c""#).unwrap(),
            Json::Str("a\"b\\c".to_string())
        );
        let v = parse_json(r#"{"a": [1, {"b": "c"}], "d": {}}"#).unwrap();
        let Json::Obj(fields) = v else { panic!() };
        assert_eq!(fields.len(), 2);
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{\"a\": 1} trailing").is_err());
    }

    #[test]
    fn json_escape_round_trips_through_parser() {
        let nasty = "a\"b\\c\nd\te";
        let text = format!("\"{}\"", json_escape(nasty));
        assert_eq!(parse_json(&text).unwrap(), Json::Str(nasty.to_string()));
    }

    #[test]
    fn render_parse_round_trips_control_chars_quotes_and_non_bmp() {
        let mut nasty: String = (0u8..0x20).map(char::from).collect();
        nasty.push_str("\"\\/é😀");
        let value = Json::obj([(nasty.as_str(), Json::Str(nasty.clone()))]);
        let text = value.render();
        // Every control char is escaped: the rendered line stays one
        // printable line.
        assert!(!text.chars().any(char::is_control), "{text}");
        assert!(text.contains("\\u0000") && text.contains("\\b") && text.contains("\\f"));
        assert_eq!(parse_json(&text).unwrap(), value);
    }

    #[test]
    fn unicode_escapes_parse_with_surrogate_pairs() {
        // What Python's json.dump writes for a non-ASCII name.
        let spec = SweepSpec::from_json(r#"{"name": "caf\u00e9 \ud83d\ude00"}"#).unwrap();
        assert_eq!(spec.name, "café 😀");
        assert_eq!(
            parse_json(r#""\b\f\u0041\u00E9""#).unwrap(),
            Json::Str("\u{8}\u{c}Aé".into())
        );
        for bad in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
            r#""\u12""#,
            r#""\u12g4""#,
        ] {
            assert!(parse_json(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn json_strings_keep_multibyte_utf8_intact() {
        assert_eq!(
            parse_json("\"café Σweep\"").unwrap(),
            Json::Str("café Σweep".to_string())
        );
        let spec = SweepSpec::from_json(r#"{"name": "café"}"#).unwrap();
        assert_eq!(spec.name, "café");
    }

    #[test]
    fn axes_reject_a_knob_on_two_axes() {
        let spec = SweepSpec::new(base())
            .axis("seed", &[1u64, 2])
            .axis("mechanism", &["radix", "ndpage"])
            .axis("seed", &[3u64]);
        let err = spec.expand().unwrap_err().to_string();
        assert!(err.contains("\"seed\""), "names the knob: {err}");
        assert!(
            err.contains("axis 1") && err.contains("axis 3"),
            "names both axes: {err}"
        );
        // A paired axis sharing a knob with a plain axis is caught too.
        let spec = SweepSpec::new(base())
            .axis("cores", &[1u32, 2])
            .paired_axis(vec![vec![("cores", "4".to_string())]]);
        assert!(spec.expand().is_err());
    }

    #[test]
    fn axes_reject_zero_values() {
        let spec = SweepSpec::new(base()).axis("seed", &[] as &[u64]);
        let err = spec.expand().unwrap_err().to_string();
        assert!(
            err.contains("axis 1") && err.contains("zero values"),
            "{err}"
        );
    }

    #[test]
    fn ingest_accepts_clean_streams_with_byte_ends() {
        let text = "{\"i\":0,\"cfg\":10,\"fp\":100}\n{\"i\":1,\"cfg\":11,\"fp\":101}\n";
        let ingest = ingest_jsonl(text, "test").unwrap();
        assert_eq!(ingest.rows.len(), 2);
        assert!(ingest.warnings.is_empty());
        assert_eq!(ingest.rows[0].1, 26);
        assert_eq!(ingest.rows[1].1, text.len() as u64);
        assert!(ingest_jsonl("", "test").unwrap().rows.is_empty());
    }

    #[test]
    fn ingest_skips_torn_or_garbage_tails_with_a_warning() {
        for tail in ["{\"i\":2,\"cfg\":1", "not json at all\n", "{\"i\":2}\n"] {
            let text = format!("{{\"i\":0,\"cfg\":10,\"fp\":100}}\n{tail}");
            let ingest = ingest_jsonl(&text, "test").unwrap();
            assert_eq!(ingest.rows.len(), 1, "tail {tail:?}");
            assert_eq!(ingest.warnings.len(), 1, "tail {tail:?}");
            assert!(
                ingest.warnings[0].contains("line 2"),
                "{}",
                ingest.warnings[0]
            );
        }
        // A *valid* final row without its newline is still torn: the
        // append stream recovers to the last terminated line.
        let text = "{\"i\":0,\"cfg\":10,\"fp\":100}\n{\"i\":1,\"cfg\":11,\"fp\":101}";
        let ingest = ingest_jsonl(text, "test").unwrap();
        assert_eq!(ingest.rows.len(), 1);
        assert!(
            ingest.warnings[0].contains("torn"),
            "{}",
            ingest.warnings[0]
        );
    }

    #[test]
    fn ingest_errors_on_mid_file_corruption_naming_the_line() {
        let text = "{\"i\":0,\"cfg\":10,\"fp\":100}\ngarbage\n{\"i\":2,\"cfg\":12,\"fp\":102}\n";
        let err = ingest_jsonl(text, "rows.jsonl").unwrap_err().to_string();
        assert!(err.contains("rows.jsonl"), "names the source: {err}");
        assert!(err.contains("line 2"), "names the line: {err}");
    }
}
