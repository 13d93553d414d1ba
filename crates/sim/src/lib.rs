#![forbid(unsafe_code)]
//! The NDPage system simulator: trace-driven, mechanistic, multi-core.
//!
//! This crate wires every substrate together into the two systems of
//! Table I — the **NDP system** (cores in the logic layer of an HBM2 stack,
//! one 32 KB L1, one mesh hop to memory) and the **CPU system** (three
//! cache levels, off-chip DDR4) — and runs the paper's workloads under all
//! five translation mechanisms.
//!
//! # Model
//!
//! * **Cores** are in-order with a configurable memory pipeline: each
//!   trace op is a compute burst or one memory access. At the default
//!   `mlp_window = 1` the core is **blocking** — the op's full latency
//!   (translation + data) accrues to the core's clock before the next op
//!   issues, exactly as the paper models. Wider windows keep up to
//!   `mlp_window` memory ops in flight (retire-in-order), with same-line
//!   misses coalescing in per-core MSHR files and concurrent page walks
//!   queueing for the hardware walkers. Cores interleave through a
//!   conservative oldest-first event loop and contend in the shared
//!   memory controller — which is what makes NDP page-table-walk latency
//!   *grow* with core count (Fig 6) while CPU systems stay flat.
//! * **Translation** follows Fig 11: L1 TLB → L2 TLB → page-table walk.
//!   The walk consults per-level PWCs, then issues PTE fetches through the
//!   L1 (cacheable metadata) or straight to memory (NDPage bypass).
//! * **Multiprogramming**: each core runs its own instance of the workload
//!   in a private address space (its own page table), like the paper's
//!   per-core 500 M-instruction runs; physical memory, its contiguity
//!   pool, the controller and the NoC are shared.
//! * **Warmup**: each run executes `warmup_ops` untimed-for-statistics ops
//!   first (allocating pages, warming TLBs/caches/PWCs), then measures
//!   `measure_ops`; the paper similarly measures a steady-state window.
//!
//! # Examples
//!
//! ```
//! use ndp_sim::{Machine, SimConfig, SystemKind};
//! use ndpage::Mechanism;
//! use ndp_workloads::WorkloadId;
//!
//! let cfg = SimConfig::quick(
//!     SystemKind::Ndp,
//!     1,
//!     Mechanism::NdPage,
//!     WorkloadId::Rnd,
//! );
//! let report = Machine::new(cfg).run();
//! assert!(report.total_cycles.as_u64() > 0);
//! ```

pub mod config;
pub mod experiment;
pub mod fault;
pub mod machine;
pub mod parallel;
pub mod report;
pub mod shard;
pub mod spec;

pub use config::{SimConfig, SystemKind};
pub use machine::Machine;
pub use report::{FaultCounts, RunReport, SchedStats};
pub use spec::{run_sweep, run_sweep_jsonl, SweepResult, SweepSpec};
