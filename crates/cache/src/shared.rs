//! Shared last-level cache: one banked [`SetAssocCache`] that every
//! core's misses contend in.
//!
//! The private [`crate::hierarchy::CacheHierarchy`] models per-core
//! levels; this module models the layer *below* them that co-running
//! cores and processes share — the CPU's L3, or an NDP vault buffer in
//! front of a memory channel. The lines live in the same LRU
//! [`SetAssocCache`] the private levels use; this wrapper adds only what
//! is shared:
//!
//! * **Banked ports.** Sets are partitioned across `banks` (low set
//!   bits); each bank serves one access per [`SharedConfig::bank_period`]
//!   and requests that land on a busy bank wait, which is the
//!   port-conflict component of co-runner interference.
//! * **Capacity under one roof.** Lines carry the [`Asid`] of the
//!   address space that brought them in, so occupancy-by-ASID reports
//!   show exactly who is squeezing whom out.
//!
//! Inclusion is a policy knob ([`InclusionPolicy`]): inclusive mode
//! expects the owner to **back-invalidate** private copies when a shared
//! line is evicted (the caller orchestrates this — the shared cache
//! cannot reach into private arrays); exclusive mode holds only lines
//! that left the private hierarchy (victim-cache style), and a hit
//! *extracts* the line, moving it back up.
//!
//! Each bank owns a [`MshrFile`], so overlapped misses to one line —
//! e.g. two in-flight page walks fetching the same PTE line — merge
//! onto a single fetch below, and a saturated bank backpressures.

use crate::mshr::{MshrFile, MshrStats, MshrStep};
use crate::set_assoc::{Access, CacheConfig, CacheStats, SetAssocCache, Slot, Victim};
use core::fmt;
use ndp_types::{AccessClass, Asid, Cycles, LineAddr, PhysAddr, RwKind};

/// Highest associativity a shared cache accepts (as wide as Table I's
/// 16-way L2/L3).
const MAX_WAYS: usize = 16;

/// How the shared cache relates to the private levels above it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InclusionPolicy {
    /// Every private line is also resident here; evicting a shared line
    /// back-invalidates the private copies (the caller performs and
    /// reports the invalidation via
    /// [`SharedCache::note_back_invalidation`]).
    Inclusive,
    /// A line lives either in a private cache or here, never both:
    /// demand fills bypass this level, private victims are inserted, and
    /// a hit extracts the line back up.
    Exclusive,
}

impl InclusionPolicy {
    /// All policies, for CLI listings.
    pub const ALL: [InclusionPolicy; 2] = [InclusionPolicy::Inclusive, InclusionPolicy::Exclusive];

    /// Canonical lower-case name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            InclusionPolicy::Inclusive => "inclusive",
            InclusionPolicy::Exclusive => "exclusive",
        }
    }

    /// Parses a (case-insensitive) policy name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|p| p.name().eq_ignore_ascii_case(s))
    }
}

impl fmt::Display for InclusionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Static configuration of a shared cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedConfig {
    /// Human-readable name ("shared-L3", "vault-buffer").
    pub name: &'static str,
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Bank count; sets are partitioned over banks by their low bits.
    pub banks: u32,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Tag+data lookup latency (charged to hits and misses alike — a
    /// miss discovers itself only after the tag check).
    pub latency: Cycles,
    /// Cycles a bank port is occupied per access; a second access to the
    /// same bank within this window waits (the bank-conflict stat).
    pub bank_period: Cycles,
    /// Inclusion relation with the private levels above.
    pub policy: InclusionPolicy,
    /// MSHR registers per bank (outstanding fills below this level).
    pub mshrs_per_bank: usize,
}

impl SharedConfig {
    /// A shared L3 of `kb` KB: 64 B lines, 35-cycle latency (Table I's
    /// L3 latency), 2-cycle bank occupancy.
    #[must_use]
    pub fn l3(kb: u32, ways: u32, banks: u32, policy: InclusionPolicy) -> Self {
        SharedConfig {
            name: "shared-L3",
            size_bytes: u64::from(kb) * 1024,
            ways,
            banks,
            line_bytes: 64,
            latency: Cycles::new(35),
            bank_period: Cycles::new(2),
            policy,
            mshrs_per_bank: 8,
        }
    }

    /// A per-vault buffer of `kb` KB sitting in front of one memory
    /// channel: 8-way, single-banked (the vault port itself is the
    /// arbitration point), short SRAM latency. Memory-side, so the
    /// inclusion policy is nominal — the machine never back-invalidates
    /// on its behalf.
    #[must_use]
    pub fn vault_buffer(kb: u32) -> Self {
        SharedConfig {
            name: "vault-buffer",
            size_bytes: u64::from(kb) * 1024,
            ways: 8,
            banks: 1,
            line_bytes: 64,
            latency: Cycles::new(6),
            bank_period: Cycles::new(2),
            policy: InclusionPolicy::Inclusive,
            mshrs_per_bank: 8,
        }
    }

    /// Validates the geometry, returning a message naming the first
    /// problem (used by `SimConfig::validate` so bad CLI knobs die with
    /// a clean error instead of a panic mid-construction).
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn check(&self) -> Result<(), &'static str> {
        if self.ways == 0 || self.ways as usize > MAX_WAYS {
            return Err("shared-cache ways must be in 1..=16");
        }
        let lines = self.size_bytes / self.line_bytes;
        let sets = lines / u64::from(self.ways);
        if sets == 0 || !sets.is_power_of_two() {
            return Err("shared-cache geometry must give a power-of-two set count");
        }
        if self.banks == 0 || !self.banks.is_power_of_two() || u64::from(self.banks) > sets {
            return Err("shared-cache banks must be a power of two no larger than the set count");
        }
        if self.mshrs_per_bank == 0 {
            return Err("shared-cache needs at least one MSHR per bank");
        }
        Ok(())
    }
}

/// Statistics of one shared cache (or the merge of several vault
/// buffers), cleared at the warmup/measurement boundary like every other
/// cache statistic.
#[derive(Debug, Clone, Copy, Default)]
pub struct SharedStats {
    /// The line array's per-class hit/miss, pollution and writeback
    /// counters.
    pub cache: CacheStats,
    /// Private writebacks absorbed in place (line present, marked dirty)
    /// instead of travelling to memory.
    pub writebacks_absorbed: u64,
    /// Accesses that found their bank port busy.
    pub bank_conflicts: u64,
    /// Total cycles those accesses waited for the port.
    pub bank_conflict_cycles: u64,
    /// Inclusive evictions that actually invalidated a private copy
    /// (recorded by the owning machine via
    /// [`SharedCache::note_back_invalidation`]).
    pub back_invalidations: u64,
}

impl SharedStats {
    /// Accumulates another cache's counters into this one (merging the
    /// per-vault buffers into one report block).
    pub fn merge(&mut self, other: &SharedStats) {
        self.cache.merge(&other.cache);
        self.writebacks_absorbed += other.writebacks_absorbed;
        self.bank_conflicts += other.bank_conflicts;
        self.bank_conflict_cycles += other.bank_conflict_cycles;
        self.back_invalidations += other.back_invalidations;
    }
}

/// Outcome of one shared-cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedLookup {
    /// Whether the line was resident.
    pub hit: bool,
    /// Whether the resident copy was dirty. Only meaningful for
    /// exclusive hits, where the extraction hands the dirtiness back up
    /// to the private fill (dropping it would lose a future writeback).
    pub dirty: bool,
    /// For a hit: when the data is available at this cache (bank wait +
    /// latency included). For a miss: when the request may proceed below
    /// (the tag check that discovered the miss is complete).
    pub done: Cycles,
    /// For a miss: where [`SharedCache::install`] puts the line once it
    /// is fetched from below.
    pub slot: Option<Slot>,
}

/// A [`SetAssocCache`] behind banked ports and per-bank MSHR files.
#[derive(Debug, Clone)]
pub struct SharedCache {
    config: SharedConfig,
    lines: SetAssocCache,
    /// Per-bank port-busy frontier. A scalar (not a reservation list):
    /// the bank period is a couple of cycles, so processing-order skew
    /// under windowed cores distorts far less than it would for
    /// hundred-cycle DRAM bank occupancy — and stays deterministic.
    bank_busy: Vec<Cycles>,
    mshrs: Vec<MshrFile>,
    /// The shared-only counters; `stats.cache` stays zero because the
    /// line array keeps its own (see [`SharedCache::stats`]).
    stats: SharedStats,
}

impl SharedCache {
    /// Builds a shared cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails [`SharedConfig::check`].
    #[must_use]
    pub fn new(config: SharedConfig) -> Self {
        config.check().expect("invalid shared-cache geometry");
        let lines = SetAssocCache::new(CacheConfig {
            name: config.name,
            size_bytes: config.size_bytes,
            ways: config.ways,
            line_bytes: config.line_bytes,
            latency: config.latency,
            metadata_lru_insert: false,
        });
        let banks = config.banks as usize;
        SharedCache {
            lines,
            bank_busy: vec![Cycles::ZERO; banks],
            mshrs: (0..banks)
                .map(|_| MshrFile::new(config.mshrs_per_bank))
                .collect(),
            stats: SharedStats::default(),
            config,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &SharedConfig {
        &self.config
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.lines.config().sets()
    }

    /// Accumulated statistics: the line array's counters plus the
    /// shared-only ones.
    #[must_use]
    pub fn stats(&self) -> SharedStats {
        SharedStats {
            cache: *self.lines.stats(),
            ..self.stats
        }
    }

    /// The bank a set belongs to (its low set bits) — a partition: every
    /// set maps to exactly one bank and banks split the sets evenly.
    #[must_use]
    pub fn bank_of_set(&self, set: usize) -> usize {
        set & (self.config.banks as usize - 1)
    }

    /// The bank an address's set belongs to.
    #[must_use]
    pub fn bank_of(&self, addr: PhysAddr) -> usize {
        self.bank_of_set(self.lines.set_of(addr))
    }

    /// Waits for the set's bank port and occupies it; returns when the
    /// access actually starts, recording a conflict if it had to wait.
    fn arbitrate(&mut self, bank: usize, now: Cycles) -> Cycles {
        let busy = self.bank_busy[bank];
        let start = now.max(busy);
        if busy > now {
            self.stats.bank_conflicts += 1;
            self.stats.bank_conflict_cycles += (busy - now).as_u64();
        }
        self.bank_busy[bank] = start + self.config.bank_period;
        start
    }

    /// One demand access at `now`, recording per-class hit/miss
    /// statistics and bank-port contention. Under the exclusive policy a
    /// hit *extracts* the line (it moves back into the private
    /// hierarchy); the returned `dirty` flag carries the extracted
    /// copy's pre-access dirtiness up with it.
    pub fn access(
        &mut self,
        addr: PhysAddr,
        rw: RwKind,
        class: AccessClass,
        now: Cycles,
    ) -> SharedLookup {
        let start = self.arbitrate(self.bank_of(addr), now);
        let exclusive = self.config.policy == InclusionPolicy::Exclusive;
        let rw = if exclusive { RwKind::Read } else { rw };
        let (hit, slot) = match self.lines.access(addr, rw, class) {
            Access::Hit => (true, None),
            Access::Miss(slot) => (false, Some(slot)),
        };
        let dirty = hit && exclusive && self.lines.invalidate(addr) == Some(true);
        SharedLookup {
            hit,
            dirty,
            done: start + self.config.latency,
            slot,
        }
    }

    /// Checks residency without perturbing state or statistics.
    #[must_use]
    pub fn probe(&self, addr: PhysAddr) -> bool {
        self.lines.probe(addr)
    }

    /// Installs a line for `asid` (a demand fill under the inclusive
    /// policy, a private victim under the exclusive one), evicting the
    /// set's LRU line if full. The caller routes the victim: dirty ones
    /// go toward memory, and inclusive owners back-invalidate private
    /// copies.
    pub fn fill(
        &mut self,
        addr: PhysAddr,
        class: AccessClass,
        asid: Asid,
        dirty: bool,
    ) -> Option<Victim> {
        self.lines.fill(addr, class, asid, dirty)
    }

    /// Installs the demand-fetched line for `asid` into the slot its
    /// missing [`SharedCache::access`] picked (nothing touches the line
    /// array while the fetch is below), and reports the victim as
    /// [`SharedCache::fill`] does.
    pub fn install(
        &mut self,
        slot: Slot,
        addr: PhysAddr,
        class: AccessClass,
        asid: Asid,
        dirty: bool,
    ) -> Option<Victim> {
        self.lines.install(slot, addr, class, asid, dirty)
    }

    /// Absorbs a posted private writeback: if the line is resident it is
    /// marked dirty here (the write travels no further) and `true` comes
    /// back; otherwise the caller forwards the write toward memory.
    pub fn accept_writeback(&mut self, addr: PhysAddr) -> bool {
        let absorbed = self.lines.mark_dirty(addr);
        self.stats.writebacks_absorbed += u64::from(absorbed);
        absorbed
    }

    /// Records that an inclusive eviction invalidated a private copy
    /// (the owning machine performs the invalidation — this cache only
    /// keeps the count).
    pub fn note_back_invalidation(&mut self) {
        self.stats.back_invalidations += 1;
    }

    /// Puts a tag check of `addr` that finished at `now` through its
    /// bank's MSHR file ([`MshrFile::step`]), as the private
    /// [`crate::hierarchy::CacheHierarchy::mshr_step`] does.
    pub fn mshr_step(&mut self, addr: PhysAddr, hit: bool, now: Cycles) -> MshrStep {
        let bank = self.bank_of(addr);
        self.mshrs[bank].step(LineAddr::of(addr), hit, now)
    }

    /// Registers a primary-miss fetch sent below at `sent`, landing at
    /// `done`, in the owning bank's MSHR file.
    pub fn register_fill(&mut self, addr: PhysAddr, sent: Cycles, done: Cycles) {
        let bank = self.bank_of(addr);
        self.mshrs[bank].allocate(LineAddr::of(addr), sent, done);
    }

    /// Aggregated MSHR statistics over every bank.
    #[must_use]
    pub fn mshr_totals(&self) -> MshrStats {
        let mut total = MshrStats::default();
        for file in &self.mshrs {
            let s = file.stats();
            total.allocated += s.allocated;
            total.coalesced += s.coalesced;
            total.full_stalls += s.full_stalls;
            total.full_stall_cycles += s.full_stall_cycles;
        }
        total
    }

    /// Valid lines currently resident.
    #[must_use]
    pub fn live_lines(&self) -> u64 {
        self.lines.live_lines()
    }

    /// Live lines per owning ASID, sorted by ASID — always sums to
    /// [`SharedCache::live_lines`].
    #[must_use]
    pub fn occupancy_by_asid(&self) -> Vec<(Asid, u64)> {
        self.lines.occupancy_by_asid()
    }

    /// Clears contents, timing state and statistics.
    pub fn reset(&mut self) {
        self.lines.reset();
        self.bank_busy.fill(Cycles::ZERO);
        for file in &mut self.mshrs {
            file.reset();
        }
        self.stats = SharedStats::default();
    }

    /// Clears statistics (including per-bank MSHR stats), preserving
    /// contents, port frontiers and in-flight fills — the
    /// warmup/measurement boundary.
    pub fn clear_stats(&mut self) {
        self.lines.clear_stats();
        for file in &mut self.mshrs {
            file.clear_stats();
        }
        self.stats = SharedStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(policy: InclusionPolicy) -> SharedCache {
        // 4 sets x 2 ways x 64 B = 512 B, 2 banks.
        SharedCache::new(SharedConfig {
            name: "tiny-shared",
            size_bytes: 512,
            ways: 2,
            banks: 2,
            line_bytes: 64,
            latency: Cycles::new(10),
            bank_period: Cycles::new(2),
            policy,
            mshrs_per_bank: 2,
        })
    }

    #[test]
    fn miss_fill_hit_and_class_stats() {
        let mut c = tiny(InclusionPolicy::Inclusive);
        let a = PhysAddr::new(0x1000);
        let miss = c.access(a, RwKind::Read, AccessClass::Data, Cycles::ZERO);
        assert!(!miss.hit);
        assert_eq!(miss.done, Cycles::new(10));
        c.fill(a, AccessClass::Data, Asid(1), false);
        let hit = c.access(a, RwKind::Read, AccessClass::Data, Cycles::new(100));
        assert!(hit.hit);
        assert_eq!(c.stats().cache.data.hits, 1);
        assert_eq!(c.stats().cache.data.misses, 1);
        assert_eq!(c.occupancy_by_asid(), vec![(Asid(1), 1)]);
    }

    #[test]
    fn bank_conflicts_are_counted_and_waited_out() {
        let mut c = tiny(InclusionPolicy::Inclusive);
        // Two back-to-back accesses to the same bank (same set) at the
        // same instant: the second waits out the 2-cycle port period.
        let a = PhysAddr::new(0);
        let b = PhysAddr::new(4 * 64); // set 0 again (4 sets)
        let first = c.access(a, RwKind::Read, AccessClass::Data, Cycles::ZERO);
        let second = c.access(b, RwKind::Read, AccessClass::Data, Cycles::ZERO);
        assert_eq!(first.done, Cycles::new(10));
        assert_eq!(second.done, Cycles::new(12), "port wait adds 2");
        assert_eq!(c.stats().bank_conflicts, 1);
        assert_eq!(c.stats().bank_conflict_cycles, 2);
        // A different bank at the same instant does not wait.
        let other = c.access(
            PhysAddr::new(64),
            RwKind::Read,
            AccessClass::Data,
            Cycles::ZERO,
        );
        assert_eq!(other.done, Cycles::new(10));
        assert_eq!(c.stats().bank_conflicts, 1);
    }

    #[test]
    fn exclusive_hit_extracts_the_line() {
        let mut c = tiny(InclusionPolicy::Exclusive);
        let a = PhysAddr::new(0x80);
        c.fill(a, AccessClass::Data, Asid::ZERO, true);
        let hit = c.access(a, RwKind::Read, AccessClass::Data, Cycles::ZERO);
        assert!(hit.hit);
        assert!(hit.dirty, "extraction carries dirtiness up");
        assert!(!c.probe(a), "exclusive hit removes the line");
        assert_eq!(c.live_lines(), 0);
    }

    #[test]
    fn exclusive_write_hit_returns_pre_access_dirtiness() {
        let mut c = tiny(InclusionPolicy::Exclusive);
        let a = PhysAddr::new(0x80);
        c.fill(a, AccessClass::Data, Asid::ZERO, false);
        let hit = c.access(a, RwKind::Write, AccessClass::Data, Cycles::ZERO);
        assert!(hit.hit);
        assert!(
            !hit.dirty,
            "the store dirties the private copy, not this one"
        );
        assert!(!c.probe(a), "exclusive hit removes the line");
        c.fill(a, AccessClass::Data, Asid::ZERO, true);
        let hit = c.access(a, RwKind::Write, AccessClass::Data, Cycles::ZERO);
        assert!(hit.hit && hit.dirty);
        assert_eq!(c.live_lines(), 0);
    }

    #[test]
    fn fill_evicts_lru_and_reports_dirty_victims() {
        let mut c = tiny(InclusionPolicy::Inclusive);
        let a = PhysAddr::new(0); // set 0
        let b = PhysAddr::new(4 * 64); // set 0
        let d = PhysAddr::new(8 * 64); // set 0
        c.fill(a, AccessClass::Data, Asid::ZERO, true);
        c.fill(b, AccessClass::Data, Asid::ZERO, false);
        let victim = c.fill(d, AccessClass::Metadata, Asid::ZERO, false);
        assert_eq!(
            victim,
            Some(Victim {
                addr: a,
                class: AccessClass::Data,
                dirty: true
            })
        );
        assert_eq!(c.stats().cache.writebacks, 1);
        assert_eq!(
            c.stats().cache.data_evicted_by_metadata,
            1,
            "metadata evicted data"
        );
    }

    #[test]
    fn writeback_absorbed_only_when_resident() {
        let mut c = tiny(InclusionPolicy::Inclusive);
        let a = PhysAddr::new(0x40);
        assert!(!c.accept_writeback(a), "absent line forwards to memory");
        c.fill(a, AccessClass::Data, Asid::ZERO, false);
        assert!(c.accept_writeback(a));
        assert_eq!(c.stats().writebacks_absorbed, 1);
        // The absorbed write made the line dirty: evicting it (same set:
        // lines 5 and 9 also map to set 1) writes back.
        c.fill(PhysAddr::new(5 * 64), AccessClass::Data, Asid::ZERO, false);
        let v = c.fill(PhysAddr::new(9 * 64), AccessClass::Data, Asid::ZERO, false);
        assert!(v.is_some_and(|v| v.dirty));
    }

    #[test]
    fn bank_mapping_partitions_sets() {
        let c = tiny(InclusionPolicy::Inclusive);
        let mut per_bank = vec![0usize; 2];
        for set in 0..c.sets() {
            per_bank[c.bank_of_set(set)] += 1;
        }
        assert_eq!(per_bank, vec![2, 2], "even split of 4 sets over 2 banks");
    }

    #[test]
    fn occupancy_sums_to_live_lines() {
        let mut c = tiny(InclusionPolicy::Inclusive);
        c.fill(PhysAddr::new(0), AccessClass::Data, Asid(0), false);
        c.fill(PhysAddr::new(64), AccessClass::Data, Asid(1), false);
        c.fill(PhysAddr::new(128), AccessClass::Metadata, Asid(1), false);
        let occ = c.occupancy_by_asid();
        assert_eq!(occ.iter().map(|(_, n)| n).sum::<u64>(), c.live_lines());
        assert_eq!(occ, vec![(Asid(0), 1), (Asid(1), 2)]);
    }

    #[test]
    fn mshrs_coalesce_per_bank() {
        let mut c = tiny(InclusionPolicy::Inclusive);
        let a = PhysAddr::new(0);
        assert_eq!(
            c.mshr_step(a, false, Cycles::ZERO),
            MshrStep::Fetch(Cycles::ZERO)
        );
        c.register_fill(a, Cycles::ZERO, Cycles::new(200));
        assert_eq!(
            c.mshr_step(a, false, Cycles::new(50)),
            MshrStep::Ready(Cycles::new(200))
        );
        assert_eq!(c.mshr_totals().coalesced, 1);
        assert_eq!(
            c.mshr_step(a, true, Cycles::new(100)),
            MshrStep::Ready(Cycles::new(200))
        );
        // Another bank's file never saw the fill.
        assert_eq!(
            c.mshr_step(PhysAddr::new(64), false, Cycles::new(50)),
            MshrStep::Fetch(Cycles::new(50))
        );
    }

    #[test]
    fn clear_stats_preserves_contents() {
        let mut c = tiny(InclusionPolicy::Inclusive);
        let a = PhysAddr::new(0);
        c.access(a, RwKind::Read, AccessClass::Data, Cycles::ZERO);
        c.fill(a, AccessClass::Data, Asid(3), false);
        c.clear_stats();
        assert_eq!(c.stats().cache.data.total(), 0);
        assert!(c.probe(a), "contents survive");
        c.reset();
        assert!(!c.probe(a));
        assert_eq!(c.live_lines(), 0);
    }

    #[test]
    fn policy_parse_round_trips() {
        for p in InclusionPolicy::ALL {
            assert_eq!(InclusionPolicy::parse(p.name()), Some(p));
            assert_eq!(InclusionPolicy::parse(&p.name().to_uppercase()), Some(p));
        }
        assert_eq!(InclusionPolicy::parse("bogus"), None);
        assert_eq!(InclusionPolicy::Exclusive.to_string(), "exclusive");
    }

    #[test]
    #[should_panic(expected = "invalid shared-cache geometry")]
    fn bad_geometry_rejected() {
        let mut cfg = SharedConfig::l3(1024, 16, 8, InclusionPolicy::Inclusive);
        cfg.size_bytes = 192;
        let _ = SharedCache::new(cfg);
    }

    #[test]
    fn config_check_names_each_constraint() {
        let good = SharedConfig::l3(2048, 16, 8, InclusionPolicy::Inclusive);
        assert!(good.check().is_ok());
        let mut bad = good.clone();
        bad.ways = 32;
        assert!(bad.check().unwrap_err().contains("ways"));
        let mut bad = good.clone();
        bad.banks = 3;
        assert!(bad.check().unwrap_err().contains("banks"));
        let mut bad = good.clone();
        bad.size_bytes = 100;
        assert!(bad.check().unwrap_err().contains("power-of-two"));
        let mut bad = good;
        bad.mshrs_per_bank = 0;
        assert!(bad.check().unwrap_err().contains("MSHR"));
    }
}
