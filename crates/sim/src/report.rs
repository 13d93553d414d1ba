//! Run reports: every statistic the paper's figures draw from.

use crate::config::SystemKind;
use crate::spec::RowCounters;
use ndp_mem::controller::ClassTraffic;
use ndp_types::stats::{HitMiss, LatencyStat};
use ndp_types::{Cycles, PtLevel};
use ndp_workloads::WorkloadId;
use ndpage::occupancy::OccupancyReport;
use ndpage::table::RangeMapOutcome;
use ndpage::Mechanism;
use std::fmt;

/// `num / den`, `None` when `den` is 0: the zero-denominator rule of
/// every derived metric (report methods read `None` as 0, stored-row
/// tables print `-`).
#[must_use]
pub fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

/// Scheduling and translation-shootdown counters of one run (whole run,
/// like [`RunReport::faults`] — flush effects from warmup linger into the
/// measured window, so a window-only count would under-report).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Context switches performed across all cores.
    pub context_switches: u64,
    /// The subset of `context_switches` performed inside the measured
    /// window. The post-switch penalty counters below only accumulate in
    /// cold windows opened by these switches, so this is their exact
    /// denominator.
    pub measured_context_switches: u64,
    /// Full TLB+PWC flushes (one per switch on untagged hardware; zero on
    /// ASID-tagged hardware).
    pub tlb_flushes: u64,
    /// TLB entries + PWC tags dropped by those flushes.
    pub entries_flushed: u64,
    /// Page-table walks in cold windows opened by measured switches —
    /// the switch's cold-miss penalty in walk count.
    pub post_switch_walks: u64,
    /// Cycles those post-switch walks cost.
    pub post_switch_walk_cycles: u64,
}

impl SchedStats {
    /// Accumulates another core's counters into this one.
    pub fn merge(&mut self, other: &SchedStats) {
        self.context_switches += other.context_switches;
        self.measured_context_switches += other.measured_context_switches;
        self.tlb_flushes += other.tlb_flushes;
        self.entries_flushed += other.entries_flushed;
        self.post_switch_walks += other.post_switch_walks;
        self.post_switch_walk_cycles += other.post_switch_walk_cycles;
    }

    /// Mean walk cycles paid per context switch inside the post-switch
    /// cold window; zero when no switches happened. Numerator and
    /// denominator are both measured-window quantities (dividing by
    /// whole-run switches would understate the penalty by the
    /// warmup:measure ratio).
    #[must_use]
    pub fn cold_penalty_per_switch(&self) -> f64 {
        ratio(
            self.post_switch_walk_cycles as f64,
            self.measured_context_switches as f64,
        )
        .unwrap_or(0.0)
    }
}

/// Memory-level-parallelism counters of one run (measured window, like
/// the TLB/cache/PWC statistics — warmup overlap is not interesting).
///
/// Every *overlap artefact* (stalls, coalescing, queueing, peak depth)
/// is zero for a blocking (`mlp_window = 1`) run — a blocking core never
/// has two requests in flight — which is why the block is hashed into
/// the fingerprint only for windowed runs. The one exception is
/// `inflight_latency_cycles`, which accumulates for blocking runs too so
/// [`RunReport::achieved_mlp`] can report how memory-bound they are
/// (always ≤ 1 there).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MlpStats {
    /// Cycles cores spent stalled because the issue window was full.
    pub window_stall_cycles: u64,
    /// Highest number of simultaneously in-flight memory ops any core
    /// reached.
    pub peak_inflight: u32,
    /// TLB hits on entries whose walk was still in flight — the lookup
    /// waited for the walk's data (translation hit-under-miss).
    pub tlb_hits_under_miss: u64,
    /// Sum over measured memory ops of their in-flight latency
    /// (completion − issue); dividing by elapsed cycles gives the average
    /// memory-op occupancy, > 1 only when ops actually overlapped.
    pub inflight_latency_cycles: u64,
    /// Misses merged onto an in-flight same-line fill.
    pub mshr_coalesced: u64,
    /// Misses that found every MSHR busy.
    pub mshr_full_stalls: u64,
    /// Cycles those misses waited for a free MSHR.
    pub mshr_stall_cycles: u64,
    /// Walks that queued for a hardware walker.
    pub walker_queued_walks: u64,
    /// Cycles walks spent queueing for a walker.
    pub walker_queue_cycles: u64,
}

impl MlpStats {
    /// Accumulates another core's counters into this one.
    pub fn merge(&mut self, other: &MlpStats) {
        self.window_stall_cycles += other.window_stall_cycles;
        self.peak_inflight = self.peak_inflight.max(other.peak_inflight);
        self.tlb_hits_under_miss += other.tlb_hits_under_miss;
        self.inflight_latency_cycles += other.inflight_latency_cycles;
        self.mshr_coalesced += other.mshr_coalesced;
        self.mshr_full_stalls += other.mshr_full_stalls;
        self.mshr_stall_cycles += other.mshr_stall_cycles;
        self.walker_queued_walks += other.walker_queued_walks;
        self.walker_queue_cycles += other.walker_queue_cycles;
    }

    /// Mean cycles a queued walk waited for a hardware walker; zero when
    /// no walk queued.
    #[must_use]
    pub fn walker_queue_delay(&self) -> f64 {
        ratio(
            self.walker_queue_cycles as f64,
            self.walker_queued_walks as f64,
        )
        .unwrap_or(0.0)
    }
}

/// Statistics of one shared last-level structure — the shared banked L3,
/// or the merge of every per-vault buffer. Present in a report only when
/// the structure was enabled, and hashed into the fingerprint only then,
/// so disabled runs keep their pre-shared-LLC digests bit for bit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SharedLlcStats {
    /// Capacity in KB (per vault for the vault block).
    pub size_kb: u64,
    /// Associativity.
    pub ways: u32,
    /// Banks per cache (the port-conflict granularity).
    pub banks: u32,
    /// Number of physical caches merged into this block (1 for the L3,
    /// the channel count for vault buffers).
    pub units: u32,
    /// Inclusion policy name ("inclusive" / "exclusive"; vault buffers
    /// are memory-side and report "memory-side").
    pub policy: &'static str,
    /// Hits/misses of normal-data accesses.
    pub data: HitMiss,
    /// Hits/misses of metadata (PTE) accesses.
    pub metadata: HitMiss,
    /// Data lines evicted by metadata fills — shared-level pollution.
    pub data_evicted_by_metadata: u64,
    /// Dirty victims pushed toward memory.
    pub writebacks: u64,
    /// Private writebacks absorbed in place instead of reaching memory.
    pub writebacks_absorbed: u64,
    /// Accesses that found their bank port busy.
    pub bank_conflicts: u64,
    /// Cycles those accesses waited for the port.
    pub bank_conflict_cycles: u64,
    /// Inclusive evictions that invalidated a private L1/L2 copy.
    pub back_invalidations: u64,
    /// Misses merged onto an in-flight same-line fill (per-bank MSHRs).
    pub mshr_coalesced: u64,
    /// Misses that found every bank MSHR busy.
    pub mshr_full_stalls: u64,
    /// End-of-run live lines per owning ASID (sorted by ASID; sums to
    /// `live_lines`) — who is squeezing whom out of the shared capacity.
    pub occupancy_by_asid: Vec<(u16, u64)>,
    /// Valid lines resident at the end of the run.
    pub live_lines: u64,
}

impl SharedLlcStats {
    /// Combined accesses across classes.
    #[must_use]
    pub fn total(&self) -> HitMiss {
        let mut t = self.data;
        t.merge(&self.metadata);
        t
    }

    /// Mean cycles a bank-conflicted access waited; zero when none did.
    #[must_use]
    pub fn bank_conflict_delay(&self) -> f64 {
        ratio(self.bank_conflict_cycles as f64, self.bank_conflicts as f64).unwrap_or(0.0)
    }
}

/// Aggregated results of one simulation run (measured window only).
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload traced.
    pub workload: WorkloadId,
    /// Mechanism under test.
    pub mechanism: Mechanism,
    /// System flavour.
    pub system: SystemKind,
    /// Core count.
    pub cores: u32,
    /// Multiprogrammed processes per core (1 = the paper's setup).
    pub procs_per_core: u32,
    /// Wall-clock of the run: slowest core's measured cycles.
    pub total_cycles: Cycles,
    /// Mean measured cycles across cores.
    pub avg_core_cycles: f64,
    /// Ops measured (all cores).
    pub ops: u64,
    /// Memory ops measured (all cores).
    pub mem_ops: u64,
    /// Cycles spent in address translation (TLB lookups + walks).
    pub translation_cycles: u64,
    /// OS cycles: the compaction tax under THP fallback pressure plus
    /// context-switch costs. Premap faults are counted, never timed.
    pub os_cycles: u64,
    /// Page-table-walk latency distribution (the paper's PTW metric).
    pub ptw: LatencyStat,
    /// Full PTW latency histogram (power-of-two buckets) for tail
    /// analysis — Fig 4's "up to 1066 cycles" observation.
    pub ptw_histogram: ndp_types::stats::LatencyHistogram,
    /// L1 TLB hits/misses.
    pub tlb_l1: HitMiss,
    /// L2 TLB hits/misses.
    pub tlb_l2: HitMiss,
    /// L1 cache hits/misses of normal data.
    pub l1_data: HitMiss,
    /// L1 cache hits/misses of metadata (PTEs).
    pub l1_metadata: HitMiss,
    /// Data lines evicted by metadata fills (L1 pollution).
    pub data_evicted_by_metadata: u64,
    /// Per-level PWC statistics, merged across cores.
    pub pwc: Vec<(PtLevel, HitMiss)>,
    /// Main-memory traffic split by class.
    pub mem_traffic: ClassTraffic,
    /// DRAM row-buffer hit rate.
    pub dram_row_hit_rate: f64,
    /// Mean DRAM queueing delay (cycles).
    pub dram_queue_delay: f64,
    /// Fault counters of the premap, which maps every page untimed before
    /// the run starts.
    pub faults: RangeMapOutcome,
    /// Context-switch / TLB-shootdown counters (whole run; the post-switch
    /// penalty fields are measured-window).
    pub sched: SchedStats,
    /// Configured issue-window size (1 = blocking core).
    pub mlp_window: u32,
    /// Memory-level-parallelism counters (all zero for blocking runs).
    pub mlp: MlpStats,
    /// Shared banked L3 statistics (`None` when `l3_kb = 0`).
    pub l3: Option<SharedLlcStats>,
    /// Per-vault buffer statistics, merged over vaults (`None` when
    /// `vault_buffer_kb = 0`).
    pub vault: Option<SharedLlcStats>,
    /// Page-table occupancy pooled over *every* address space (all cores,
    /// all processes): per-level counters are summed, so the aggregate
    /// rate weights each table by its capacity. With the homogeneous
    /// per-core footprints and op counts the simulator runs, this
    /// coincides (to allocation noise) with the mean per-table rate.
    pub occupancy: OccupancyReport,
    /// Bytes of page-table storage summed over every address space.
    pub table_bytes: u64,
}

impl RunReport {
    /// Core time per measured op (lower is better); 0 with no ops.
    #[must_use]
    pub fn cpo(&self) -> f64 {
        RowCounters::of(self).cpo(self.cores).unwrap_or(0.0)
    }

    /// Fraction of run time spent on address translation (Fig 5
    /// metric); 0 with no core time.
    #[must_use]
    pub fn translation_fraction(&self) -> f64 {
        RowCounters::of(self)
            .translation_fraction(self.cores)
            .unwrap_or(0.0)
    }

    /// Average PTW latency in cycles (Figs 4 and 6a metric); 0 with no
    /// walks.
    #[must_use]
    pub fn avg_ptw_latency(&self) -> f64 {
        RowCounters::of(self).ptw_latency().unwrap_or(0.0)
    }

    /// End-to-end TLB miss (walk) rate; 0 with no TLB accesses.
    #[must_use]
    pub fn tlb_walk_rate(&self) -> f64 {
        RowCounters::of(self).tlb_walk_rate().unwrap_or(0.0)
    }

    /// Average number of memory ops in flight while the cores ran: the
    /// achieved memory-level parallelism. At most 1 for blocking runs
    /// (every op's latency is exposed serially); exceeds 1 — growing
    /// toward the window size — exactly when overlap succeeds.
    #[must_use]
    pub fn achieved_mlp(&self) -> f64 {
        let elapsed = self.avg_core_cycles * f64::from(self.cores);
        ratio(self.mlp.inflight_latency_cycles as f64, elapsed).unwrap_or(0.0)
    }

    /// Speedup of this run relative to a baseline (Figs 12–14 metric).
    #[must_use]
    pub fn speedup_over(&self, baseline: &RunReport) -> f64 {
        ratio(baseline.total_cycles.as_f64(), self.total_cycles.as_f64()).unwrap_or(0.0)
    }

    /// Mean latency of a walk in a post-switch cold window (0 when none
    /// happened): on untagged hardware, the per-walk price of re-warming
    /// translation state after a flush.
    #[must_use]
    pub fn post_switch_walk_cost(&self) -> f64 {
        let sched = &self.sched;
        ratio(
            sched.post_switch_walk_cycles as f64,
            sched.post_switch_walks as f64,
        )
        .unwrap_or(0.0)
    }

    /// PWC hit rate at a level, if that level was exercised.
    #[must_use]
    pub fn pwc_hit_rate(&self, level: PtLevel) -> Option<f64> {
        self.pwc
            .iter()
            .find(|(l, _)| *l == level)
            .map(|(_, hm)| hm.hit_rate())
    }

    /// A deterministic digest of every counter in the report, for
    /// bit-identity assertions (e.g. parallel vs serial experiment
    /// drivers). Two reports of the same run always digest equally; any
    /// counter divergence changes the digest.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        use core::hash::{Hash, Hasher};
        let mut h = ndp_types::FastHasher::default();
        let hm = |h: &mut ndp_types::FastHasher, m: &HitMiss| {
            m.hits.hash(h);
            m.misses.hash(h);
        };
        self.workload.name().hash(&mut h);
        self.mechanism.name().hash(&mut h);
        self.cores.hash(&mut h);
        self.total_cycles.as_u64().hash(&mut h);
        self.avg_core_cycles.to_bits().hash(&mut h);
        self.ops.hash(&mut h);
        self.mem_ops.hash(&mut h);
        self.translation_cycles.hash(&mut h);
        self.os_cycles.hash(&mut h);
        self.ptw.count.hash(&mut h);
        self.ptw.sum.as_u64().hash(&mut h);
        self.ptw.max.as_u64().hash(&mut h);
        hm(&mut h, &self.tlb_l1);
        hm(&mut h, &self.tlb_l2);
        hm(&mut h, &self.l1_data);
        hm(&mut h, &self.l1_metadata);
        self.data_evicted_by_metadata.hash(&mut h);
        for (level, stats) in &self.pwc {
            level.pwc_slot().hash(&mut h);
            hm(&mut h, stats);
        }
        self.mem_traffic.data.hash(&mut h);
        self.mem_traffic.metadata.hash(&mut h);
        self.mem_traffic.write.hash(&mut h);
        self.dram_row_hit_rate.to_bits().hash(&mut h);
        self.dram_queue_delay.to_bits().hash(&mut h);
        self.faults.minor_4k.hash(&mut h);
        self.faults.minor_2m.hash(&mut h);
        self.faults.fallback.hash(&mut h);
        // The scheduling block is hashed only for multiprogrammed runs:
        // single-program reports predate the scheduler, and their digests
        // must not move when the (inert at procs_per_core = 1) scheduling
        // knobs change.
        if self.procs_per_core > 1 {
            self.procs_per_core.hash(&mut h);
            self.sched.context_switches.hash(&mut h);
            self.sched.measured_context_switches.hash(&mut h);
            self.sched.tlb_flushes.hash(&mut h);
            self.sched.entries_flushed.hash(&mut h);
            self.sched.post_switch_walks.hash(&mut h);
            self.sched.post_switch_walk_cycles.hash(&mut h);
        }
        // The MLP block is hashed only for windowed runs, for the same
        // reason as the scheduling block: blocking reports predate the
        // pipeline, and their digests must not move when the (inert at
        // mlp_window = 1) overlap knobs or counters change shape.
        if self.mlp_window > 1 {
            self.mlp_window.hash(&mut h);
            self.mlp.window_stall_cycles.hash(&mut h);
            self.mlp.peak_inflight.hash(&mut h);
            self.mlp.tlb_hits_under_miss.hash(&mut h);
            self.mlp.inflight_latency_cycles.hash(&mut h);
            self.mlp.mshr_coalesced.hash(&mut h);
            self.mlp.mshr_full_stalls.hash(&mut h);
            self.mlp.mshr_stall_cycles.hash(&mut h);
            self.mlp.walker_queued_walks.hash(&mut h);
            self.mlp.walker_queue_cycles.hash(&mut h);
        }
        // The shared-LLC blocks are hashed only when their structure was
        // enabled, for the same reason as the sched and MLP blocks:
        // disabled reports predate the shared layer and their digests must
        // not move when the (inert at l3_kb = 0) knobs or counters change.
        let shared = |h: &mut ndp_types::FastHasher, tag: u8, s: &SharedLlcStats| {
            tag.hash(h);
            s.size_kb.hash(h);
            s.ways.hash(h);
            s.banks.hash(h);
            s.units.hash(h);
            s.policy.hash(h);
            hm(h, &s.data);
            hm(h, &s.metadata);
            s.data_evicted_by_metadata.hash(h);
            s.writebacks.hash(h);
            s.writebacks_absorbed.hash(h);
            s.bank_conflicts.hash(h);
            s.bank_conflict_cycles.hash(h);
            s.back_invalidations.hash(h);
            s.mshr_coalesced.hash(h);
            s.mshr_full_stalls.hash(h);
            for (asid, lines) in &s.occupancy_by_asid {
                asid.hash(h);
                lines.hash(h);
            }
            s.live_lines.hash(h);
        };
        if let Some(l3) = &self.l3 {
            shared(&mut h, 0x13, l3);
        }
        if let Some(vault) = &self.vault {
            shared(&mut h, 0x14, vault);
        }
        self.table_bytes.hash(&mut h);
        h.finish()
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} | {} | {} x{}: {} cycles ({:.1} cpo)",
            self.workload,
            self.mechanism,
            self.system,
            self.cores,
            self.total_cycles.as_u64(),
            self.cpo()
        )?;
        writeln!(
            f,
            "  translation: {:.1}% of time, PTW avg {:.1} cyc over {} walks",
            self.translation_fraction() * 100.0,
            self.avg_ptw_latency(),
            self.ptw.count
        )?;
        writeln!(
            f,
            "  TLB walk rate {:.2}%, L1D data miss {:.2}%, metadata miss {:.2}%",
            self.tlb_walk_rate() * 100.0,
            self.l1_data.miss_rate() * 100.0,
            self.l1_metadata.miss_rate() * 100.0
        )?;
        write!(
            f,
            "  memory: {} data + {} metadata + {} write reqs, row-hit {:.1}%, faults {}",
            self.mem_traffic.data,
            self.mem_traffic.metadata,
            self.mem_traffic.write,
            self.dram_row_hit_rate * 100.0,
            self.faults.total()
        )?;
        if self.procs_per_core > 1 {
            write!(
                f,
                "\n  sched: {} procs/core, {} switches, {} flushes ({} entries), \
                 post-switch {} walks / {} cycles",
                self.procs_per_core,
                self.sched.context_switches,
                self.sched.tlb_flushes,
                self.sched.entries_flushed,
                self.sched.post_switch_walks,
                self.sched.post_switch_walk_cycles
            )?;
        }
        if self.mlp_window > 1 {
            write!(
                f,
                "\n  mlp: window {}, achieved {:.2} in flight (peak {}), \
                 {} coalesced misses, {} MSHR-full stalls, \
                 {} TLB hits-under-miss, \
                 walker queue {} walks / {:.0} cyc avg",
                self.mlp_window,
                self.achieved_mlp(),
                self.mlp.peak_inflight,
                self.mlp.mshr_coalesced,
                self.mlp.mshr_full_stalls,
                self.mlp.tlb_hits_under_miss,
                self.mlp.walker_queued_walks,
                self.mlp.walker_queue_delay()
            )?;
        }
        let shared_line = |f: &mut fmt::Formatter<'_>, label: &str, s: &SharedLlcStats| {
            write!(
                f,
                "\n  {label}: {}x {} KB {}w/{}b {}, data hit {:.2}%, meta hit {:.2}%, \
                 {} bank conflicts ({:.1} cyc avg), {} back-invals, {} lines live",
                s.units,
                s.size_kb,
                s.ways,
                s.banks,
                s.policy,
                s.data.hit_rate() * 100.0,
                s.metadata.hit_rate() * 100.0,
                s.bank_conflicts,
                s.bank_conflict_delay(),
                s.back_invalidations,
                s.live_lines
            )
        };
        if let Some(l3) = &self.l3 {
            shared_line(f, "l3", l3)?;
        }
        if let Some(vault) = &self.vault {
            shared_line(f, "vault", vault)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(total: u64) -> RunReport {
        RunReport {
            workload: WorkloadId::Rnd,
            mechanism: Mechanism::Radix,
            system: SystemKind::Ndp,
            cores: 2,
            procs_per_core: 1,
            total_cycles: Cycles::new(total),
            avg_core_cycles: total as f64,
            ops: 100,
            mem_ops: 60,
            translation_cycles: total / 2,
            os_cycles: 0,
            ptw: LatencyStat::default(),
            ptw_histogram: ndp_types::stats::LatencyHistogram::new(),
            tlb_l1: HitMiss {
                hits: 10,
                misses: 90,
            },
            tlb_l2: HitMiss {
                hits: 10,
                misses: 80,
            },
            l1_data: HitMiss::default(),
            l1_metadata: HitMiss::default(),
            data_evicted_by_metadata: 0,
            pwc: vec![(
                PtLevel::L4,
                HitMiss {
                    hits: 99,
                    misses: 1,
                },
            )],
            mem_traffic: ClassTraffic::default(),
            dram_row_hit_rate: 0.5,
            dram_queue_delay: 1.0,
            faults: RangeMapOutcome::default(),
            sched: SchedStats::default(),
            mlp_window: 1,
            mlp: MlpStats::default(),
            l3: None,
            vault: None,
            occupancy: OccupancyReport::new(),
            table_bytes: 4096,
        }
    }

    #[test]
    fn derived_metrics() {
        let r = dummy(1000);
        assert!((r.cpo() - 20.0).abs() < 1e-9);
        assert!((r.translation_fraction() - 0.25).abs() < 1e-9);
        assert!((r.tlb_walk_rate() - 0.8).abs() < 1e-9);
        assert_eq!(r.pwc_hit_rate(PtLevel::L4), Some(0.99));
        assert_eq!(r.pwc_hit_rate(PtLevel::L1), None);
    }

    #[test]
    fn speedup_ratio() {
        let base = dummy(2000);
        let fast = dummy(1000);
        assert!((fast.speedup_over(&base) - 2.0).abs() < 1e-9);
        assert!((base.speedup_over(&base) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fingerprint_separates_runs() {
        assert_eq!(dummy(1000).fingerprint(), dummy(1000).fingerprint());
        assert_ne!(dummy(1000).fingerprint(), dummy(999).fingerprint());
        let mut tweaked = dummy(1000);
        tweaked.faults.fallback += 1;
        assert_ne!(dummy(1000).fingerprint(), tweaked.fingerprint());
    }

    #[test]
    fn sched_stats_merge_and_penalty() {
        let mut a = SchedStats {
            context_switches: 8,
            measured_context_switches: 4,
            tlb_flushes: 4,
            entries_flushed: 40,
            post_switch_walks: 8,
            post_switch_walk_cycles: 800,
        };
        let b = SchedStats {
            context_switches: 4,
            measured_context_switches: 2,
            tlb_flushes: 0,
            entries_flushed: 0,
            post_switch_walks: 1,
            post_switch_walk_cycles: 100,
        };
        a.merge(&b);
        assert_eq!(a.context_switches, 12);
        assert_eq!(a.entries_flushed, 40);
        // Penalty divides by *measured* switches (6), not whole-run (12).
        assert!((a.cold_penalty_per_switch() - 150.0).abs() < 1e-12);
        assert_eq!(SchedStats::default().cold_penalty_per_switch(), 0.0);
    }

    #[test]
    fn fingerprint_ignores_sched_at_one_proc_but_not_at_two() {
        // Single-program digests must not move when sched counters change
        // (they cannot change in a real run; this guards the hash shape).
        let mut single = dummy(1000);
        single.sched.context_switches = 99;
        assert_eq!(single.fingerprint(), dummy(1000).fingerprint());

        let mut multi = dummy(1000);
        multi.procs_per_core = 2;
        let base = multi.fingerprint();
        assert_ne!(base, dummy(1000).fingerprint(), "procs count is hashed");
        multi.sched.context_switches = 99;
        assert_ne!(base, multi.fingerprint(), "sched counters are hashed");
    }

    #[test]
    fn fingerprint_ignores_mlp_at_window_one_but_not_above() {
        // Blocking digests must not move when the (inert) MLP counters
        // change shape — windowed digests must cover them.
        let mut blocking = dummy(1000);
        blocking.mlp.mshr_coalesced = 42;
        assert_eq!(blocking.fingerprint(), dummy(1000).fingerprint());

        let mut windowed = dummy(1000);
        windowed.mlp_window = 8;
        let base = windowed.fingerprint();
        assert_ne!(base, dummy(1000).fingerprint(), "window size is hashed");
        windowed.mlp.mshr_coalesced = 42;
        assert_ne!(base, windowed.fingerprint(), "mlp counters are hashed");
    }

    #[test]
    fn mlp_stats_merge_and_derived_metrics() {
        let mut a = MlpStats {
            window_stall_cycles: 100,
            peak_inflight: 3,
            tlb_hits_under_miss: 6,
            inflight_latency_cycles: 4000,
            mshr_coalesced: 5,
            mshr_full_stalls: 2,
            mshr_stall_cycles: 50,
            walker_queued_walks: 4,
            walker_queue_cycles: 800,
        };
        let b = MlpStats {
            peak_inflight: 7,
            walker_queued_walks: 4,
            walker_queue_cycles: 1600,
            ..MlpStats::default()
        };
        a.merge(&b);
        assert_eq!(a.peak_inflight, 7, "peak is a max, not a sum");
        assert_eq!(a.walker_queued_walks, 8);
        assert!((a.walker_queue_delay() - 300.0).abs() < 1e-12);
        assert_eq!(MlpStats::default().walker_queue_delay(), 0.0);

        let mut r = dummy(1000);
        r.mlp.inflight_latency_cycles = 4000;
        // elapsed = avg_core_cycles * cores = 2000.
        assert!((r.achieved_mlp() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn display_covers_mlp_only_when_windowed() {
        let mut r = dummy(500);
        assert!(!r.to_string().contains("mlp:"));
        r.mlp_window = 8;
        assert!(r.to_string().contains("mlp: window 8"));
    }

    fn dummy_llc() -> SharedLlcStats {
        SharedLlcStats {
            size_kb: 2048,
            ways: 16,
            banks: 8,
            units: 1,
            policy: "inclusive",
            data: HitMiss {
                hits: 10,
                misses: 90,
            },
            metadata: HitMiss { hits: 5, misses: 5 },
            data_evicted_by_metadata: 2,
            writebacks: 3,
            writebacks_absorbed: 1,
            bank_conflicts: 4,
            bank_conflict_cycles: 8,
            back_invalidations: 2,
            mshr_coalesced: 1,
            mshr_full_stalls: 0,
            occupancy_by_asid: vec![(0, 60), (1, 40)],
            live_lines: 100,
        }
    }

    #[test]
    fn fingerprint_ignores_llc_when_absent_but_not_when_present() {
        // A disabled shared layer must not perturb pre-shared digests.
        assert_eq!(dummy(1000).fingerprint(), dummy(1000).fingerprint());

        let mut with_l3 = dummy(1000);
        with_l3.l3 = Some(dummy_llc());
        let base = with_l3.fingerprint();
        assert_ne!(base, dummy(1000).fingerprint(), "l3 block is hashed");
        let mut tweaked = with_l3.clone();
        tweaked.l3.as_mut().unwrap().bank_conflicts += 1;
        assert_ne!(base, tweaked.fingerprint(), "l3 counters are hashed");
        let mut tweaked = with_l3.clone();
        tweaked.l3.as_mut().unwrap().occupancy_by_asid[0].1 += 1;
        assert_ne!(base, tweaked.fingerprint(), "occupancy is hashed");

        // The vault block hashes with a distinct tag: the same stats as
        // a vault must not collide with them as an L3.
        let mut as_vault = dummy(1000);
        as_vault.vault = Some(dummy_llc());
        assert_ne!(base, as_vault.fingerprint());
    }

    #[test]
    fn llc_derived_metrics_and_display() {
        let s = dummy_llc();
        assert_eq!(s.total().total(), 110);
        assert!((s.bank_conflict_delay() - 2.0).abs() < 1e-12);
        assert_eq!(SharedLlcStats::default().bank_conflict_delay(), 0.0);

        let mut r = dummy(500);
        assert!(!r.to_string().contains("l3:"));
        assert!(!r.to_string().contains("vault:"));
        r.l3 = Some(dummy_llc());
        let text = r.to_string();
        assert!(text.contains("l3: 1x 2048 KB 16w/8b inclusive"), "{text}");
        assert!(text.contains("back-invals"));
        r.vault = Some(dummy_llc());
        assert!(r.to_string().contains("vault:"));
    }

    #[test]
    fn fingerprint_covers_write_traffic() {
        let mut tweaked = dummy(1000);
        tweaked.mem_traffic.write += 1;
        assert_ne!(dummy(1000).fingerprint(), tweaked.fingerprint());
    }

    #[test]
    fn fault_totals() {
        let f = RangeMapOutcome {
            minor_4k: 1,
            minor_2m: 2,
            fallback: 3,
        };
        assert_eq!(f.total(), 6);
    }

    #[test]
    fn display_is_informative() {
        let s = dummy(500).to_string();
        assert!(s.contains("RND"));
        assert!(s.contains("translation"));
    }
}
