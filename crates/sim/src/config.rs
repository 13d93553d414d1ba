//! Simulation configuration (Table I systems + run parameters).

use ndp_cache::shared::SharedConfig;
use ndp_types::Cycles;
use ndp_workloads::WorkloadId;
use ndpage::bypass::BypassPolicy;
use ndpage::Mechanism;
use std::fmt;

pub use ndp_cache::shared::InclusionPolicy;

/// Which Table I system to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Near-data cores in the HBM2 logic layer: L1 only, one-hop memory.
    Ndp,
    /// Conventional host: L1 + L2 + L3, off-chip DDR4.
    Cpu,
}

impl fmt::Display for SystemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemKind::Ndp => f.write_str("NDP"),
            SystemKind::Cpu => f.write_str("CPU"),
        }
    }
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// System flavour (cache depth, DRAM, interconnect).
    pub system: SystemKind,
    /// Core count (the paper evaluates 1, 4 and 8).
    pub cores: u32,
    /// Translation mechanism under test.
    pub mechanism: Mechanism,
    /// Workload to trace.
    pub workload: WorkloadId,
    /// Untimed warmup operations per core.
    pub warmup_ops: u64,
    /// Measured operations per core.
    pub measure_ops: u64,
    /// Per-core footprint = Table II size / divisor (private address
    /// spaces; the default of 1 runs the full dataset per core).
    pub footprint_divisor: u64,
    /// Absolute per-core footprint override (wins over the divisor).
    pub footprint_override: Option<u64>,
    /// Base RNG seed; core *i* uses `seed + i`.
    pub seed: u64,
    /// OS cost of a 4 KB minor fault.
    pub fault_minor_4k: Cycles,
    /// OS cost of a 2 MB minor fault (zeroing 512 frames).
    pub fault_minor_2m: Cycles,
    /// OS cost of a failed-THP fallback fault (direct compaction attempt
    /// + 4 KB path; see Kwon et al., OSDI'16, on why this is expensive).
    pub fault_fallback: Cycles,
    /// OS cost per PTE moved by an elastic-cuckoo rehash.
    pub rehash_entry_cost: Cycles,
    /// Ablation override: force PWCs on/off (`None` = per mechanism).
    pub pwc_override: Option<bool>,
    /// Ablation override: force a bypass policy (`None` = per mechanism).
    pub bypass_override: Option<BypassPolicy>,
    /// Physical-memory capacity override in bytes (`None` = Table I 16 GB).
    /// Small capacities force huge-page contiguity exhaustion in tests.
    pub memory_capacity_override: Option<u64>,
    /// Entries per page-walk cache level (`None` = 64). Sweep experiments
    /// vary this to show where flattening stops mattering.
    pub pwc_entries: Option<usize>,
    /// L2 TLB entry-count override (`None` = Table I's 1536). Must be
    /// 12-way-divisible into a power of two sets.
    pub tlb_l2_entries: Option<u32>,
    /// Override for 2 MB TLB-entry fracturing (`None` = fractured, the
    /// paper's Huge Page treatment; `Some(false)` gives native 2 MB
    /// entries — the Huge Page TLB-fracturing study of `figures sweeps`).
    pub tlb_fracture_huge: Option<bool>,
    /// Compaction/khugepaged interference: cycles charged per
    /// [`Self::COMPACTION_PERIOD`] ops, scaled by the run's THP-fallback
    /// pressure. Models the background defragmentation work (Kwon et al.,
    /// OSDI'16) that sinks Huge Page once contiguity is exhausted (Fig 14).
    pub compaction_tax: Cycles,
    /// Processes multiprogrammed onto each core, each with a private
    /// address space (its own page table, trace stream and ASID). The
    /// default of 1 reproduces the paper's one-instance-per-core setup
    /// bit-identically; higher values round-robin the processes on a
    /// [`Self::context_switch_quantum_ops`] quantum.
    pub procs_per_core: u32,
    /// Ops a process runs before its core switches to the next process
    /// (ignored when `procs_per_core` is 1).
    pub context_switch_quantum_ops: u64,
    /// OS cost charged at every context switch (register save/restore,
    /// scheduler, kernel entry/exit).
    pub context_switch_cost: Cycles,
    /// Whether TLB entries, PWC tags and walker state carry ASID tags.
    /// Tagged translation hardware keeps every resident process's entries
    /// warm across switches; untagged hardware (`false`, the ablation)
    /// must full-flush TLBs and PWCs on every switch and re-walk its
    /// working set cold.
    pub tlb_tagging: bool,
    /// Memory-level parallelism: independent memory ops a core may keep
    /// in flight (retire-in-order). The default of 1 is the fully
    /// blocking core — cycle-identical to the pre-pipeline engine;
    /// larger windows overlap misses and expose the paper's asymmetry
    /// between coalescable data misses and serialised page walks.
    pub mlp_window: u32,
    /// Miss-status holding registers per core: outstanding L1 fills,
    /// with same-line misses coalescing onto one fill. Inert at
    /// `mlp_window = 1` (a blocking core never has two misses in flight).
    pub mshrs_per_core: u32,
    /// Hardware page-table walkers per core: concurrent walks beyond
    /// this queue. Inert at `mlp_window = 1` for the same reason.
    pub walkers_per_core: u32,
    /// Shared last-level cache capacity in KB. `0` (the default)
    /// disables the shared layer entirely and is **cycle-identical** to
    /// the pre-shared-LLC engine; `> 0` builds a banked shared L3 that
    /// every core's private misses contend in (on the CPU system it
    /// replaces the per-core private L3 slice; on NDP it adds a shared
    /// logic-layer last level).
    pub l3_kb: u32,
    /// Shared-L3 associativity (ignored while `l3_kb = 0`).
    pub l3_ways: u32,
    /// Shared-L3 bank count — sets are partitioned over banks and each
    /// bank port serves one access per period, so co-runners conflict
    /// (ignored while `l3_kb = 0`).
    pub l3_banks: u32,
    /// Shared-L3 inclusion policy (ignored while `l3_kb = 0`):
    /// inclusive evictions back-invalidate private copies; exclusive
    /// holds only lines that left the private hierarchy.
    pub l3_policy: InclusionPolicy,
    /// Per-vault (per-memory-channel) buffer capacity in KB on the
    /// memory side, arbitrated across every core that reaches the vault.
    /// `0` (the default) disables it; bypassed NDPage metadata fetches
    /// skip it just as they skip every other cache.
    pub vault_buffer_kb: u32,
    /// Most ops a core executes per scheduler pick (the *epoch*). The
    /// batched scheduler only keeps running a core while the per-op
    /// scheduler would still pick it, so **every** epoch size is
    /// cycle-identical to per-op execution (`epoch_ops = 1`); larger
    /// epochs amortise the per-op core scan and keep one core's state
    /// hot across a block of ops.
    pub epoch_ops: u64,
}

impl SimConfig {
    /// The default warmup window per core.
    pub const DEFAULT_WARMUP: u64 = 150_000;
    /// The default measurement window per core.
    pub const DEFAULT_MEASURE: u64 = 250_000;
    /// The default footprint divisor: 1 — every core runs the full
    /// Table II dataset, as in the paper's per-core benchmark instances.
    pub const DEFAULT_DIVISOR: u64 = 1;
    /// Ops between compaction-interference charges.
    pub const COMPACTION_PERIOD: u64 = 64;
    /// Nominal Table I DRAM capacity.
    pub const TABLE1_CAPACITY: u64 = 16 << 30;
    /// Default scheduling quantum in ops (a compressed timeslice: long
    /// enough to re-warm translation state, short enough that several
    /// switches land inside the default measurement window).
    pub const DEFAULT_QUANTUM: u64 = 10_000;
    /// Default per-switch OS cost (~1.5 µs at 2.6 GHz).
    pub const DEFAULT_SWITCH_COST: Cycles = Cycles::new(4_000);
    /// Largest supported issue window / MSHR file.
    pub const MAX_MLP: u32 = 64;
    /// Default hardware walkers per core: one, as fits the simple
    /// in-order cores of both Table I systems (x86-class OoO cores ship
    /// two — set `walkers_per_core` to explore). One walker is also the
    /// sharpest instantiation of the pipeline's asymmetry: overlapped
    /// data misses each get an MSHR while overlapped walks serialise.
    pub const DEFAULT_WALKERS: u32 = 1;
    /// Default shared-L3 associativity (Table I's L3 is 16-way).
    pub const DEFAULT_L3_WAYS: u32 = 16;
    /// Default shared-L3 bank count.
    pub const DEFAULT_L3_BANKS: u32 = 8;
    /// Default scheduler epoch: long enough to amortise the per-op core
    /// scan, short enough that a core's batch rarely outlives its
    /// scheduling eligibility. Timing-inert at any value (see
    /// [`Self::epoch_ops`]).
    pub const DEFAULT_EPOCH_OPS: u64 = 64;
    /// Largest accepted scheduler epoch (a sanity bound, not a timing
    /// constraint).
    pub const MAX_EPOCH_OPS: u64 = 1 << 20;

    /// A full-size run configuration.
    #[must_use]
    pub fn new(system: SystemKind, cores: u32, mechanism: Mechanism, workload: WorkloadId) -> Self {
        SimConfig {
            system,
            cores,
            mechanism,
            workload,
            warmup_ops: Self::DEFAULT_WARMUP,
            measure_ops: Self::DEFAULT_MEASURE,
            footprint_divisor: Self::DEFAULT_DIVISOR,
            footprint_override: None,
            seed: 0x5eed,
            fault_minor_4k: Cycles::new(600),
            fault_minor_2m: Cycles::new(2600),
            fault_fallback: Cycles::new(15_000),
            rehash_entry_cost: Cycles::new(40),
            pwc_override: None,
            bypass_override: None,
            memory_capacity_override: None,
            pwc_entries: None,
            tlb_l2_entries: None,
            tlb_fracture_huge: None,
            compaction_tax: Cycles::new(2200),
            procs_per_core: 1,
            context_switch_quantum_ops: Self::DEFAULT_QUANTUM,
            context_switch_cost: Self::DEFAULT_SWITCH_COST,
            tlb_tagging: true,
            mlp_window: 1,
            mshrs_per_core: 1,
            walkers_per_core: Self::DEFAULT_WALKERS,
            l3_kb: 0,
            l3_ways: Self::DEFAULT_L3_WAYS,
            l3_banks: Self::DEFAULT_L3_BANKS,
            l3_policy: InclusionPolicy::Inclusive,
            vault_buffer_kb: 0,
            epoch_ops: Self::DEFAULT_EPOCH_OPS,
        }
    }

    /// The configuration a flag-less `ndpsim` invocation runs — and the
    /// base every JSON [`crate::spec::SweepSpec`] starts from: a 1-core
    /// NDP NDPage/BFS run with a fast 1 GB footprint and a 30 k-op
    /// measured window. Keeping the two entry points on one base is what
    /// lets `ndpsim sweep --spec`/`--set` reproduce any configuration
    /// the flags can express (round-tripped in `crates/bench/tests`).
    #[must_use]
    pub fn cli_default() -> Self {
        let mut cfg = Self::new(
            SystemKind::Ndp,
            1,
            Mechanism::NdPage,
            ndp_workloads::WorkloadId::Bfs,
        );
        cfg.footprint_override = Some(1 << 30);
        cfg.measure_ops = 30_000;
        cfg.warmup_ops = 10_000;
        cfg
    }

    /// Whether this configuration runs the fully blocking core (no
    /// memory-level parallelism).
    #[must_use]
    pub fn is_blocking(&self) -> bool {
        self.mlp_window <= 1
    }

    /// A small, fast configuration for tests and examples (1 GB/core
    /// footprint — large enough that PL2/PL1 translation prefixes overrun
    /// the PWCs and PTE lines overrun the caches, as in the full-scale
    /// runs — and short windows).
    #[must_use]
    pub fn quick(
        system: SystemKind,
        cores: u32,
        mechanism: Mechanism,
        workload: WorkloadId,
    ) -> Self {
        let mut cfg = Self::new(system, cores, mechanism, workload);
        cfg.warmup_ops = 10_000;
        cfg.measure_ops = 20_000;
        cfg.footprint_override = Some(1 << 30);
        cfg
    }

    /// Sets the warmup/measure windows.
    #[must_use]
    pub fn with_ops(mut self, warmup: u64, measure: u64) -> Self {
        self.warmup_ops = warmup;
        self.measure_ops = measure;
        self
    }

    /// Sets an absolute per-core footprint.
    #[must_use]
    pub fn with_footprint(mut self, bytes: u64) -> Self {
        self.footprint_override = Some(bytes);
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of multiprogrammed processes per core.
    #[must_use]
    pub fn with_procs(mut self, procs: u32) -> Self {
        self.procs_per_core = procs;
        self
    }

    /// Sets the context-switch quantum (in ops).
    #[must_use]
    pub fn with_quantum(mut self, ops: u64) -> Self {
        self.context_switch_quantum_ops = ops;
        self
    }

    /// Enables or disables ASID tagging of TLBs/PWCs (`false` = full
    /// flush on every context switch).
    #[must_use]
    pub fn with_tlb_tagging(mut self, tagging: bool) -> Self {
        self.tlb_tagging = tagging;
        self
    }

    /// Sets the per-core issue window (1 = blocking).
    #[must_use]
    pub fn with_window(mut self, window: u32) -> Self {
        self.mlp_window = window;
        self
    }

    /// Sets the per-core MSHR count.
    #[must_use]
    pub fn with_mshrs(mut self, mshrs: u32) -> Self {
        self.mshrs_per_core = mshrs;
        self
    }

    /// Sets the per-core hardware-walker count.
    #[must_use]
    pub fn with_walkers(mut self, walkers: u32) -> Self {
        self.walkers_per_core = walkers;
        self
    }

    /// Enables the shared L3 at `kb` KB (0 disables it again).
    #[must_use]
    pub fn with_l3(mut self, kb: u32) -> Self {
        self.l3_kb = kb;
        self
    }

    /// Sets the shared-L3 geometry (associativity and bank count).
    #[must_use]
    pub fn with_l3_geometry(mut self, ways: u32, banks: u32) -> Self {
        self.l3_ways = ways;
        self.l3_banks = banks;
        self
    }

    /// Sets the shared-L3 inclusion policy.
    #[must_use]
    pub fn with_l3_policy(mut self, policy: InclusionPolicy) -> Self {
        self.l3_policy = policy;
        self
    }

    /// Enables the per-vault buffers at `kb` KB each (0 disables).
    #[must_use]
    pub fn with_vault_buffer(mut self, kb: u32) -> Self {
        self.vault_buffer_kb = kb;
        self
    }

    /// Sets the scheduler epoch in ops (1 = per-op scheduling; timing is
    /// identical at any value).
    #[must_use]
    pub fn with_epoch_ops(mut self, ops: u64) -> Self {
        self.epoch_ops = ops;
        self
    }

    /// Whether any shared last-level structure (shared L3 or vault
    /// buffers) is enabled.
    #[must_use]
    pub fn has_shared_llc(&self) -> bool {
        self.l3_kb > 0 || self.vault_buffer_kb > 0
    }

    /// The shared-L3 configuration implied by the knobs, if enabled.
    #[must_use]
    pub fn l3_config(&self) -> Option<SharedConfig> {
        (self.l3_kb > 0)
            .then(|| SharedConfig::l3(self.l3_kb, self.l3_ways, self.l3_banks, self.l3_policy))
    }

    /// The per-vault buffer configuration implied by the knobs, if
    /// enabled.
    #[must_use]
    pub fn vault_buffer_config(&self) -> Option<SharedConfig> {
        (self.vault_buffer_kb > 0).then(|| SharedConfig::vault_buffer(self.vault_buffer_kb))
    }

    /// The per-core footprint in bytes.
    #[must_use]
    pub fn footprint_per_core(&self) -> u64 {
        self.footprint_override
            .unwrap_or_else(|| self.workload.table2_footprint() / self.footprint_divisor.max(1))
    }

    /// Validates parameter sanity.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first invalid parameter.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cores == 0 || self.cores > 64 {
            return Err(ConfigError::new("cores must be in 1..=64"));
        }
        if self.measure_ops == 0 {
            return Err(ConfigError::new("measure_ops must be positive"));
        }
        if self.footprint_per_core() < (1 << 20) {
            return Err(ConfigError::new("footprint must be at least 1 MB"));
        }
        if self.pwc_entries == Some(0) {
            return Err(ConfigError::new("pwc_entries must be positive"));
        }
        if let Some(entries) = self.tlb_l2_entries {
            let sets = entries / 12;
            if sets == 0 || !sets.is_power_of_two() {
                return Err(ConfigError::new(
                    "tlb_l2_entries must be 12-way-divisible into power-of-two sets",
                ));
            }
        }
        if self.procs_per_core == 0 || self.procs_per_core > 64 {
            return Err(ConfigError::new("procs_per_core must be in 1..=64"));
        }
        if self.procs_per_core > 1 && self.context_switch_quantum_ops == 0 {
            return Err(ConfigError::new(
                "context_switch_quantum_ops must be positive when multiprogrammed",
            ));
        }
        if self.mlp_window == 0 || self.mlp_window > Self::MAX_MLP {
            return Err(ConfigError::new("mlp_window must be in 1..=64"));
        }
        if self.mshrs_per_core == 0 || self.mshrs_per_core > Self::MAX_MLP {
            return Err(ConfigError::new("mshrs_per_core must be in 1..=64"));
        }
        if self.walkers_per_core == 0
            || self.walkers_per_core as usize > ndp_mmu::walker::MAX_WALKERS
        {
            return Err(ConfigError::new("walkers_per_core must be in 1..=8"));
        }
        if self.epoch_ops == 0 || self.epoch_ops > Self::MAX_EPOCH_OPS {
            return Err(ConfigError::new("epoch_ops must be in 1..=1048576"));
        }
        if let Some(l3) = self.l3_config() {
            if let Err(e) = l3.check() {
                // The shared-cache message already names the constraint;
                // prefix it with the knob family so CLI users know which
                // flags to fix.
                return Err(ConfigError::new(match e {
                    e if e.contains("ways") => "l3_ways must be in 1..=16",
                    e if e.contains("banks") => {
                        "l3_banks must be a power of two no larger than the set count"
                    }
                    _ => "l3_kb/l3_ways must give a power-of-two set count",
                }));
            }
        }
        if let Some(vault) = self.vault_buffer_config() {
            if vault.check().is_err() {
                return Err(ConfigError::new(
                    "vault_buffer_kb must give a power-of-two set count (8-way, 64 B lines)",
                ));
            }
        }
        Ok(())
    }
}

/// Error returned by [`SimConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: &'static str,
}

impl ConfigError {
    fn new(message: &'static str) -> Self {
        ConfigError { message }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid simulation config: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        let cfg = SimConfig::new(SystemKind::Ndp, 4, Mechanism::Radix, WorkloadId::Bfs);
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.footprint_per_core(), 8u64 << 30);
    }

    #[test]
    fn quick_is_small() {
        let cfg = SimConfig::quick(SystemKind::Ndp, 1, Mechanism::NdPage, WorkloadId::Rnd);
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.footprint_per_core(), 1 << 30);
        assert!(cfg.measure_ops <= 20_000);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = SimConfig::quick(SystemKind::Cpu, 1, Mechanism::Radix, WorkloadId::Xs);
        cfg.cores = 0;
        assert!(cfg.validate().is_err());
        cfg.cores = 65;
        assert!(cfg.validate().is_err());
        cfg.cores = 1;
        cfg.measure_ops = 0;
        assert!(cfg.validate().is_err());
        cfg.measure_ops = 10;
        cfg.footprint_override = Some(1000);
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("footprint"));
    }

    #[test]
    fn builders_compose() {
        let cfg = SimConfig::new(SystemKind::Cpu, 4, Mechanism::Ech, WorkloadId::Gen)
            .with_ops(5, 10)
            .with_footprint(2 << 20)
            .with_seed(99)
            .with_procs(2)
            .with_quantum(500)
            .with_tlb_tagging(false);
        assert_eq!(cfg.warmup_ops, 5);
        assert_eq!(cfg.footprint_per_core(), 2 << 20);
        assert_eq!(cfg.seed, 99);
        assert_eq!(cfg.procs_per_core, 2);
        assert_eq!(cfg.context_switch_quantum_ops, 500);
        assert!(!cfg.tlb_tagging);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn multiprogramming_defaults_are_off() {
        let cfg = SimConfig::new(SystemKind::Ndp, 1, Mechanism::Radix, WorkloadId::Rnd);
        assert_eq!(cfg.procs_per_core, 1);
        assert!(cfg.tlb_tagging);
    }

    #[test]
    fn multiprogramming_configs_validated() {
        let mut cfg = SimConfig::quick(SystemKind::Ndp, 1, Mechanism::Radix, WorkloadId::Rnd);
        cfg.procs_per_core = 0;
        assert!(cfg.validate().is_err());
        cfg.procs_per_core = 65;
        assert!(cfg.validate().is_err());
        cfg.procs_per_core = 2;
        cfg.context_switch_quantum_ops = 0;
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("quantum"));
        cfg.context_switch_quantum_ops = 100;
        assert!(cfg.validate().is_ok());
        // A single process never switches, so a zero quantum is harmless.
        cfg.procs_per_core = 1;
        cfg.context_switch_quantum_ops = 0;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn mlp_defaults_are_blocking() {
        let cfg = SimConfig::new(SystemKind::Ndp, 1, Mechanism::Radix, WorkloadId::Rnd);
        assert_eq!(cfg.mlp_window, 1);
        assert_eq!(cfg.mshrs_per_core, 1);
        assert_eq!(cfg.walkers_per_core, 1);
        assert!(cfg.is_blocking());
        assert!(!cfg.with_window(2).is_blocking());
    }

    #[test]
    fn mlp_configs_validated() {
        let mut cfg = SimConfig::quick(SystemKind::Ndp, 1, Mechanism::Radix, WorkloadId::Rnd);
        cfg.mlp_window = 0;
        assert!(cfg.validate().is_err());
        cfg.mlp_window = 65;
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("mlp_window"));
        cfg.mlp_window = 64;
        cfg.mshrs_per_core = 0;
        assert!(cfg.validate().is_err());
        cfg.mshrs_per_core = 65;
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("mshrs_per_core"));
        cfg.mshrs_per_core = 64;
        cfg.walkers_per_core = 0;
        assert!(cfg.validate().is_err());
        cfg.walkers_per_core = 9;
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("walkers_per_core"));
        cfg.walkers_per_core = 8;
        assert!(cfg.validate().is_ok());
        let cfg = cfg.with_window(8).with_mshrs(16).with_walkers(2);
        assert_eq!(cfg.mlp_window, 8);
        assert_eq!(cfg.mshrs_per_core, 16);
        assert_eq!(cfg.walkers_per_core, 2);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn epoch_configs_validated() {
        let mut cfg = SimConfig::quick(SystemKind::Ndp, 1, Mechanism::Radix, WorkloadId::Rnd);
        assert_eq!(cfg.epoch_ops, SimConfig::DEFAULT_EPOCH_OPS);
        cfg.epoch_ops = 0;
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("epoch_ops"));
        cfg.epoch_ops = SimConfig::MAX_EPOCH_OPS + 1;
        assert!(cfg.validate().is_err());
        let cfg = cfg.with_epoch_ops(1);
        assert_eq!(cfg.epoch_ops, 1);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn shared_llc_defaults_are_off() {
        let cfg = SimConfig::new(SystemKind::Ndp, 1, Mechanism::Radix, WorkloadId::Rnd);
        assert_eq!(cfg.l3_kb, 0);
        assert_eq!(cfg.vault_buffer_kb, 0);
        assert!(!cfg.has_shared_llc());
        assert!(cfg.l3_config().is_none());
        assert!(cfg.vault_buffer_config().is_none());
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn shared_llc_configs_validated() {
        let base = SimConfig::quick(SystemKind::Ndp, 2, Mechanism::Radix, WorkloadId::Rnd);
        let cfg = base.clone().with_l3(2048);
        assert!(cfg.validate().is_ok());
        assert!(cfg.has_shared_llc());
        assert_eq!(cfg.l3_config().unwrap().size_bytes, 2048 * 1024);

        let bad = base.clone().with_l3(2048).with_l3_geometry(32, 8);
        assert!(bad.validate().unwrap_err().to_string().contains("l3_ways"));
        let bad = base.clone().with_l3(2048).with_l3_geometry(16, 3);
        assert!(bad.validate().unwrap_err().to_string().contains("l3_banks"));
        let bad = base.clone().with_l3(100); // 100 KB / 16w -> 100 sets
        assert!(bad
            .validate()
            .unwrap_err()
            .to_string()
            .contains("power-of-two"));

        let cfg = base.clone().with_vault_buffer(128);
        assert!(cfg.validate().is_ok());
        assert!(cfg.has_shared_llc());
        let bad = base.clone().with_vault_buffer(100);
        assert!(bad
            .validate()
            .unwrap_err()
            .to_string()
            .contains("vault_buffer_kb"));

        // Bad geometry knobs are harmless while the L3 is disabled.
        let inert = base
            .with_l3_geometry(32, 3)
            .with_l3_policy(InclusionPolicy::Exclusive);
        assert!(inert.validate().is_ok());
    }

    #[test]
    fn shared_llc_builders_compose() {
        let cfg = SimConfig::quick(SystemKind::Cpu, 2, Mechanism::Radix, WorkloadId::Bfs)
            .with_l3(4096)
            .with_l3_geometry(8, 4)
            .with_l3_policy(InclusionPolicy::Exclusive)
            .with_vault_buffer(64);
        assert_eq!(cfg.l3_kb, 4096);
        assert_eq!(cfg.l3_ways, 8);
        assert_eq!(cfg.l3_banks, 4);
        assert_eq!(cfg.l3_policy, InclusionPolicy::Exclusive);
        assert_eq!(cfg.vault_buffer_kb, 64);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn system_kind_display() {
        assert_eq!(SystemKind::Ndp.to_string(), "NDP");
        assert_eq!(SystemKind::Cpu.to_string(), "CPU");
    }
}
