//! A set-associative, write-back, write-allocate LRU cache with
//! per-class (data vs. metadata) statistics and pollution accounting —
//! the one line array behind the private levels, the shared L3 and the
//! vault buffers.

use ndp_types::addr::CACHE_LINE_SIZE;
use ndp_types::stats::HitMiss;
use ndp_types::{AccessClass, Asid, Cycles, PhysAddr, RwKind};
use std::collections::BTreeMap;

/// Static configuration of one cache level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Human-readable level name ("L1D", "L2", ...).
    pub name: &'static str,
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes (64 in Table I).
    pub line_bytes: u64,
    /// Lookup/hit latency.
    pub latency: Cycles,
    /// Insert metadata (PTE) fills at LRU position instead of MRU.
    ///
    /// Models the empirical behaviour of small L1s under streaming,
    /// prefetching cores: PTE lines are evicted before reuse unless they
    /// are genuinely hot (a hit still promotes them). This reproduces the
    /// paper's measured 98.28% L1 miss rate for metadata (Fig 7). Enabled
    /// for L1 configurations; outer levels retain normal insertion.
    pub metadata_lru_insert: bool,
}

impl CacheConfig {
    /// Table I L1 data cache: 32 KB, 8-way, 4-cycle latency.
    #[must_use]
    pub const fn l1d() -> Self {
        CacheConfig {
            name: "L1D",
            size_bytes: 32 * 1024,
            ways: 8,
            line_bytes: CACHE_LINE_SIZE,
            latency: Cycles::new(4),
            metadata_lru_insert: true,
        }
    }

    /// Table I L2: 512 KB, 16-way, 16-cycle latency (CPU system only).
    #[must_use]
    pub const fn l2() -> Self {
        CacheConfig {
            name: "L2",
            size_bytes: 512 * 1024,
            ways: 16,
            line_bytes: CACHE_LINE_SIZE,
            latency: Cycles::new(16),
            metadata_lru_insert: false,
        }
    }

    /// Table I L3: 2 MB/core, 16-way, 35-cycle latency (CPU system only).
    #[must_use]
    pub fn l3(cores: u32) -> Self {
        CacheConfig {
            name: "L3",
            size_bytes: u64::from(cores.max(1)) * 2 * 1024 * 1024,
            ways: 16,
            line_bytes: CACHE_LINE_SIZE,
            latency: Cycles::new(35),
            metadata_lru_insert: false,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly, or if the line size
    /// or set count is not a power of two (both are decoded by shifts).
    #[must_use]
    pub fn sets(&self) -> usize {
        let pow2 = self.line_bytes.is_power_of_two();
        assert!(pow2, "line size must be a power of two");
        let lines = self.size_bytes / self.line_bytes;
        let sets = lines / u64::from(self.ways);
        assert!(sets > 0, "cache too small for its associativity");
        assert!(
            sets.is_power_of_two(),
            "set count must be a power of two (got {sets})"
        );
        sets as usize
    }
}

/// Statistics for one cache level, split by access class.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Hits/misses of normal-data accesses.
    pub data: HitMiss,
    /// Hits/misses of metadata (PTE) accesses.
    pub metadata: HitMiss,
    /// Data lines evicted to make room for metadata fills — the pollution
    /// counter behind Fig 7's data-miss-rate inflation.
    pub data_evicted_by_metadata: u64,
    /// Dirty lines written back to the next level.
    pub writebacks: u64,
}

impl CacheStats {
    /// Hit/miss counters for one class.
    #[must_use]
    pub fn class(&self, class: AccessClass) -> &HitMiss {
        match class {
            AccessClass::Data => &self.data,
            AccessClass::Metadata => &self.metadata,
        }
    }

    /// Combined accesses across classes.
    #[must_use]
    pub fn total(&self) -> HitMiss {
        let mut t = self.data;
        t.merge(&self.metadata);
        t
    }

    /// Accumulates another level's counters into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.data.merge(&other.data);
        self.metadata.merge(&other.metadata);
        self.data_evicted_by_metadata += other.data_evicted_by_metadata;
        self.writebacks += other.writebacks;
    }
}

/// A line pushed out of the cache by a fill, clean or dirty. Dirty
/// victims must be written toward memory; a shared exclusive last level
/// additionally wants the clean ones — they are exactly what fills it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// Line-aligned physical address of the victim.
    pub addr: PhysAddr,
    /// Class of the victim line.
    pub class: AccessClass,
    /// Whether the victim must be written toward memory.
    pub dirty: bool,
}

impl Default for Victim {
    fn default() -> Self {
        Victim {
            addr: PhysAddr::new(0),
            class: AccessClass::Data,
            dirty: false,
        }
    }
}

/// Bit layout of [`Line::key`]: valid, dirty and metadata flags, the
/// owner ASID above them, and the tag in the rest of the word.
const VALID: u64 = 1;
const DIRTY: u64 = 1 << 1;
const METADATA: u64 = 1 << 2;
const ASID_SHIFT: u32 = 3;
const TAG_SHIFT: u32 = ASID_SHIFT + u16::BITS;
/// The bits a lookup compares: the tag and the valid flag.
const MATCH_MASK: u64 = !((1 << TAG_SHIFT) - 1) | VALID;

/// One way of a set: one key word that packs the tag with the valid,
/// dirty, class and owner-ASID bits, and the LRU stamp. The line is 16
/// bytes, so a 16-way set is four cache lines of host memory.
#[derive(Debug, Clone, Copy, Default)]
struct Line {
    key: u64,
    stamp: u64,
}

const _: () = assert!(core::mem::size_of::<Line>() == 16);

impl Line {
    /// A valid line.
    fn new(tag: u64, class: AccessClass, asid: Asid, dirty: bool, stamp: u64) -> Self {
        let class_bit = if class.is_metadata() { METADATA } else { 0 };
        let dirty_bit = if dirty { DIRTY } else { 0 };
        Line {
            key: tag << TAG_SHIFT | u64::from(asid.0) << ASID_SHIFT | class_bit | dirty_bit | VALID,
            stamp,
        }
    }

    /// Whether this is a valid line with `tag`.
    #[inline]
    fn holds(self, tag: u64) -> bool {
        self.key & MATCH_MASK == (tag << TAG_SHIFT | VALID)
    }

    fn valid(self) -> bool {
        self.key & VALID != 0
    }

    fn dirty(self) -> bool {
        self.key & DIRTY != 0
    }

    fn class(self) -> AccessClass {
        if self.key & METADATA != 0 {
            AccessClass::Metadata
        } else {
            AccessClass::Data
        }
    }

    fn asid(self) -> Asid {
        Asid((self.key >> ASID_SHIFT) as u16)
    }

    fn tag(self) -> u64 {
        self.key >> TAG_SHIFT
    }
}

/// Where the fill after a miss goes, chosen by the miss's own set scan
/// ([`SetAssocCache::access`]): the victim way, the set's oldest live
/// stamp (LIP's insert point) and the cache's tick and invalidation count
/// at the scan, which tell [`SetAssocCache::install`] whether the set may
/// have changed since.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    way: usize,
    /// `u64::MAX` when the set held no live line.
    oldest: u64,
    tick: u64,
    invalidations: u64,
}

impl Default for Slot {
    /// A slot that is never current, so installing through it is a fill.
    fn default() -> Self {
        Slot {
            way: 0,
            oldest: u64::MAX,
            tick: u64::MAX,
            invalidations: 0,
        }
    }
}

/// Outcome of [`SetAssocCache::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The line was resident.
    Hit,
    /// The line was absent; the fill after the fetch goes to this slot.
    Miss(Slot),
}

impl Access {
    /// Whether the line was resident.
    #[must_use]
    pub fn is_hit(self) -> bool {
        self == Access::Hit
    }
}

/// A single set-associative LRU cache level. Lines stay array-of-structs
/// (a struct-of-arrays split measured slower); set and tag decode by the
/// log2 line size and set count ([`CacheConfig::sets`]).
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    line_shift: u32,
    set_shift: u32,
    lines: Vec<Line>,
    tick: u64,
    /// Bumped whenever lines are dropped outside a fill, so a [`Slot`]
    /// taken before knows it may be out of date.
    invalidations: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Builds a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`CacheConfig::sets`]).
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        SetAssocCache {
            lines: vec![Line::default(); sets * config.ways as usize],
            line_shift: config.line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            config,
            tick: 0,
            invalidations: 0,
            stats: CacheStats::default(),
        }
    }

    /// The level configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The set `addr` maps to (its low line-address bits).
    #[must_use]
    pub fn set_of(&self, addr: PhysAddr) -> usize {
        self.set_and_tag(addr).0
    }

    /// # Panics
    ///
    /// Panics if the tag does not fit beside a line's flag and ASID bits
    /// (a physical address of 2^51 bytes or more).
    #[inline]
    fn set_and_tag(&self, addr: PhysAddr) -> (usize, u64) {
        let line_addr = addr.as_u64() >> self.line_shift;
        let tag = line_addr >> self.set_shift;
        assert!(
            tag >> (u64::BITS - TAG_SHIFT) == 0,
            "address {:#x} beyond the tag range",
            addr.as_u64()
        );
        ((line_addr & ((1 << self.set_shift) - 1)) as usize, tag)
    }

    /// Index of the first way of `set` in `lines`.
    #[inline]
    fn base(&self, set: usize) -> usize {
        set * self.config.ways as usize
    }

    /// Index of `addr`'s line in `lines`, if resident.
    fn resident(&self, addr: PhysAddr) -> Option<usize> {
        let (set, tag) = self.set_and_tag(addr);
        let base = self.base(set);
        let row = &self.lines[base..base + self.config.ways as usize];
        Some(base + row.iter().position(|l| l.holds(tag))?)
    }

    /// One pass over `set`: the index of the line holding `tag`, or else
    /// the way a fill replaces (the first invalid way, else the first
    /// oldest live way) and the set's oldest live stamp (`u64::MAX` when
    /// none is live).
    #[inline]
    fn scan(&self, set: usize, tag: u64) -> Result<usize, (usize, u64)> {
        let base = self.base(set);
        let (mut way, mut key, mut oldest) = (0, u64::MAX, u64::MAX);
        for (w, line) in self.lines[base..base + self.config.ways as usize]
            .iter()
            .enumerate()
        {
            if line.holds(tag) {
                return Ok(base + w);
            }
            // Invalid ways key 0 and live ones stamp + 1: the first
            // minimum is the victim.
            let valid = line.valid();
            let k = if valid { line.stamp + 1 } else { 0 };
            if k < key {
                (way, key) = (w, k);
            }
            oldest = oldest.min(if valid { line.stamp } else { u64::MAX });
        }
        Err((way, oldest))
    }

    /// Looks up `addr`, recording a hit or miss for `class`. On a hit, the
    /// line's recency is refreshed and stores mark it dirty. Misses do
    /// **not** allocate: the same pass over the set picks the [`Slot`]
    /// that [`install`](Self::install) fills once the line arrives from
    /// below.
    pub fn access(&mut self, addr: PhysAddr, rw: RwKind, class: AccessClass) -> Access {
        self.tick += 1;
        let (set, tag) = self.set_and_tag(addr);
        let scan = self.scan(set, tag);
        if let Ok(i) = scan {
            let line = &mut self.lines[i];
            // Metadata in a low-priority (LIP) cache is never promoted:
            // PTE lines behave as streaming dead blocks, matching the
            // paper's measured 98% L1 PTE miss rate under real cores.
            if !(self.config.metadata_lru_insert && line.class().is_metadata()) {
                line.stamp = self.tick;
            }
            if rw.is_write() {
                line.key |= DIRTY;
            }
        }
        match class {
            AccessClass::Data => self.stats.data.record(scan.is_ok()),
            AccessClass::Metadata => self.stats.metadata.record(scan.is_ok()),
        }
        match scan {
            Ok(_) => Access::Hit,
            Err((way, oldest)) => Access::Miss(Slot {
                way,
                oldest,
                tick: self.tick,
                invalidations: self.invalidations,
            }),
        }
    }

    /// Checks residency without perturbing state or statistics.
    #[must_use]
    pub fn probe(&self, addr: PhysAddr) -> bool {
        self.resident(addr).is_some()
    }

    /// Installs the line for `addr` on behalf of `asid` after the miss
    /// whose [`access`](Self::access) returned `slot`: the set is not
    /// scanned again. If the cache changed since that access (another
    /// access or fill, or an invalidation), this is [`fill`](Self::fill).
    pub fn install(
        &mut self,
        slot: Slot,
        addr: PhysAddr,
        class: AccessClass,
        asid: Asid,
        dirty: bool,
    ) -> Option<Victim> {
        if slot.tick != self.tick || slot.invalidations != self.invalidations {
            return self.fill(addr, class, asid, dirty);
        }
        self.tick += 1;
        let (set, tag) = self.set_and_tag(addr);
        let line = Line::new(tag, class, asid, dirty, 0);
        self.place(set, slot.way, slot.oldest, line)
    }

    /// Installs the line for `addr` on behalf of `asid` without a prior
    /// lookup, evicting the set's LRU line if the set is full, and reports
    /// the evicted line whether or not it was dirty. The `writebacks`
    /// counter counts only dirty victims.
    ///
    /// One pass over the set: a resident line is refreshed in place;
    /// otherwise the line goes where [`access`](Self::access) would have
    /// put it, as in [`install`](Self::install).
    pub fn fill(
        &mut self,
        addr: PhysAddr,
        class: AccessClass,
        asid: Asid,
        dirty: bool,
    ) -> Option<Victim> {
        self.tick += 1;
        let (set, tag) = self.set_and_tag(addr);
        match self.scan(set, tag) {
            Ok(i) => {
                // Already resident (e.g. racing fills): just refresh.
                let dirty = dirty || self.lines[i].dirty();
                self.lines[i] = Line::new(tag, class, asid, dirty, self.tick);
                None
            }
            Err((way, oldest)) => {
                self.place(set, way, oldest, Line::new(tag, class, asid, dirty, 0))
            }
        }
    }

    /// Writes `line` over `way` of `set`, stamped at the current tick, and
    /// reports the line it evicts. `oldest` is the set's oldest live
    /// stamp.
    fn place(&mut self, set: usize, way: usize, oldest: u64, mut line: Line) -> Option<Victim> {
        let tick = self.tick;
        let class = line.class();
        // LRU-position insertion for metadata: the new line gets a stamp
        // older than everything resident (live stamps never exceed the
        // tick), so it is the set's next victim unless an access promotes
        // it first.
        line.stamp = if self.config.metadata_lru_insert && class.is_metadata() {
            oldest.min(tick).saturating_sub(1)
        } else {
            tick
        };
        let i = self.base(set) + way;
        let old = core::mem::replace(&mut self.lines[i], line);
        if !old.valid() {
            return None;
        }
        if old.class() == AccessClass::Data && class.is_metadata() {
            self.stats.data_evicted_by_metadata += 1;
        }
        if old.dirty() {
            self.stats.writebacks += 1;
        }
        Some(Victim {
            addr: PhysAddr::new(((old.tag() << self.set_shift) | set as u64) << self.line_shift),
            class: old.class(),
            dirty: old.dirty(),
        })
    }

    /// Marks a resident line dirty (a write absorbed in place), returning
    /// whether the line was resident.
    pub fn mark_dirty(&mut self, addr: PhysAddr) -> bool {
        self.resident(addr)
            .map(|i| self.lines[i].key |= DIRTY)
            .is_some()
    }

    /// Drops the line for `addr`: `Some(dirty)` if it was resident.
    pub fn invalidate(&mut self, addr: PhysAddr) -> Option<bool> {
        let i = self.resident(addr)?;
        let was_dirty = self.lines[i].dirty();
        self.lines[i] = Line::default();
        self.invalidations += 1;
        Some(was_dirty)
    }

    /// Valid lines currently resident.
    #[must_use]
    pub fn live_lines(&self) -> u64 {
        self.lines.iter().filter(|l| l.valid()).count() as u64
    }

    /// Live lines per owning ASID, sorted by ASID — always sums to
    /// [`SetAssocCache::live_lines`].
    #[must_use]
    pub fn occupancy_by_asid(&self) -> Vec<(Asid, u64)> {
        let mut by_asid: BTreeMap<Asid, u64> = BTreeMap::new();
        for line in self.lines.iter().filter(|l| l.valid()) {
            *by_asid.entry(line.asid()).or_default() += 1;
        }
        by_asid.into_iter().collect()
    }

    /// Clears contents and statistics.
    pub fn reset(&mut self) {
        self.lines.fill(Line::default());
        self.tick = 0;
        // The tick restarts, so slots taken before must not match again.
        self.invalidations += 1;
        self.stats = CacheStats::default();
    }

    /// Clears statistics only, preserving cache contents (used at the
    /// warmup/measurement boundary).
    pub fn clear_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 2 sets x 2 ways x 64 B = 256 B.
        SetAssocCache::new(CacheConfig {
            name: "tiny",
            size_bytes: 256,
            ways: 2,
            line_bytes: 64,
            latency: Cycles::new(1),
            metadata_lru_insert: false,
        })
    }

    /// Fills a line on behalf of the default ASID.
    fn fill(c: &mut SetAssocCache, addr: u64, class: AccessClass, dirty: bool) -> Option<Victim> {
        c.fill(PhysAddr::new(addr), class, Asid::ZERO, dirty)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        let a = PhysAddr::new(0x1000);
        assert!(!c.access(a, RwKind::Read, AccessClass::Data).is_hit());
        fill(&mut c, 0x1000, AccessClass::Data, false);
        assert!(c.access(a, RwKind::Read, AccessClass::Data).is_hit());
        assert_eq!(c.stats().data.hits, 1);
        assert_eq!(c.stats().data.misses, 1);
    }

    #[test]
    fn probe_does_not_change_stats() {
        let mut c = tiny();
        let a = PhysAddr::new(0x40);
        assert!(!c.probe(a));
        fill(&mut c, 0x40, AccessClass::Data, false);
        assert!(c.probe(a));
        assert_eq!(c.stats().total().total(), 0);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Three lines mapping to set 0 (set = line_addr & 1, so even lines).
        let a = PhysAddr::new(0); // line 0, set 0
        let b = PhysAddr::new(2 * 64);
        let d = PhysAddr::new(4 * 64);
        fill(&mut c, 0, AccessClass::Data, false);
        fill(&mut c, 2 * 64, AccessClass::Data, false);
        // Touch `a` so `b` becomes LRU.
        c.access(a, RwKind::Read, AccessClass::Data);
        fill(&mut c, 4 * 64, AccessClass::Data, false);
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));

        // Invalid way first, then the first of equally old ways. Under
        // LIP a metadata fill into an empty set stamps 0, the same as the
        // invalid way beside it, and the saturating insert gives a second
        // metadata fill stamp 0 as well.
        let mut cfg = tiny().config().clone();
        cfg.metadata_lru_insert = true;
        let mut c = SetAssocCache::new(cfg);
        fill(&mut c, 0, AccessClass::Metadata, false); // way 0, stamp 0
        fill(&mut c, 2 * 64, AccessClass::Data, false);
        assert!(
            c.probe(a),
            "the invalid way is taken before an equally old line"
        );
        assert_eq!(c.invalidate(b), Some(false));
        fill(&mut c, 4 * 64, AccessClass::Metadata, false); // way 1, stamp 0
        let v = fill(&mut c, 6 * 64, AccessClass::Data, false);
        assert_eq!(v.map(|v| v.addr), Some(a), "first of the tied ways");
        assert!(c.probe(d));
    }

    #[test]
    fn dirty_victim_produces_writeback() {
        let mut c = tiny();
        fill(&mut c, 0, AccessClass::Data, true); // dirty
        fill(&mut c, 128, AccessClass::Data, false);
        let wb = fill(&mut c, 256, AccessClass::Data, false);
        assert_eq!(
            wb,
            Some(Victim {
                addr: PhysAddr::new(0),
                class: AccessClass::Data,
                dirty: true
            })
        );
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn store_hit_marks_dirty() {
        let mut c = tiny();
        let a = PhysAddr::new(0);
        fill(&mut c, 0, AccessClass::Data, false);
        c.access(a, RwKind::Write, AccessClass::Data);
        // Evict it and expect a writeback.
        fill(&mut c, 128, AccessClass::Data, false);
        let wb = fill(&mut c, 256, AccessClass::Data, false);
        assert!(wb.is_some_and(|v| v.addr == a && v.dirty));
    }

    #[test]
    fn metadata_fill_evicting_data_counts_as_pollution() {
        let mut c = tiny();
        fill(&mut c, 0, AccessClass::Data, false);
        fill(&mut c, 128, AccessClass::Data, false);
        fill(&mut c, 256, AccessClass::Metadata, false);
        assert_eq!(c.stats().data_evicted_by_metadata, 1);
        // Second metadata fill evicts the remaining data line (pollution=2);
        // a third evicts metadata, which is not pollution.
        fill(&mut c, 384, AccessClass::Metadata, false);
        assert_eq!(c.stats().data_evicted_by_metadata, 2);
        fill(&mut c, 512, AccessClass::Metadata, false);
        assert_eq!(c.stats().data_evicted_by_metadata, 2);
    }

    #[test]
    fn class_stats_separate() {
        let mut c = tiny();
        c.access(PhysAddr::new(0), RwKind::Read, AccessClass::Metadata);
        c.access(PhysAddr::new(64), RwKind::Read, AccessClass::Data);
        assert_eq!(c.stats().metadata.misses, 1);
        assert_eq!(c.stats().data.misses, 1);
        assert_eq!(c.stats().class(AccessClass::Metadata).misses, 1);
        assert_eq!(c.stats().total().misses, 2);
    }

    #[test]
    fn refill_of_resident_line_is_idempotent() {
        let mut c = tiny();
        fill(&mut c, 0, AccessClass::Data, false);
        assert!(fill(&mut c, 0, AccessClass::Data, true).is_none());
        // Still resident and now dirty.
        fill(&mut c, 128, AccessClass::Data, false);
        let wb = fill(&mut c, 256, AccessClass::Data, false);
        assert!(wb.is_some_and(|v| v.addr.as_u64() == 0 && v.dirty));
    }

    #[test]
    fn fill_victim_reports_clean_victims_too() {
        let mut c = tiny();
        let a = PhysAddr::new(0);
        fill(&mut c, 0, AccessClass::Data, false); // clean
        fill(&mut c, 128, AccessClass::Data, false);
        let v = fill(&mut c, 256, AccessClass::Data, false);
        assert_eq!(
            v,
            Some(Victim {
                addr: a,
                class: AccessClass::Data,
                dirty: false
            }),
            "clean victims surface through fill"
        );
        assert_eq!(c.stats().writebacks, 0, "clean victims are not writebacks");
        // Re-install `a` dirty (evicting clean `b`), push out the clean
        // 0x100 line, then evict dirty `a`: only it counts as a writeback.
        fill(&mut c, 0, AccessClass::Data, true);
        let v = fill(&mut c, 384, AccessClass::Data, false);
        assert!(v.is_some_and(|v| v.addr.as_u64() == 256 && !v.dirty));
        let wb = fill(&mut c, 512, AccessClass::Data, false);
        assert!(wb.is_some_and(|v| v.addr == a && v.dirty));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        let a = PhysAddr::new(0);
        fill(&mut c, 0, AccessClass::Data, true);
        assert_eq!(c.invalidate(a), Some(true));
        assert!(!c.probe(a));
        assert_eq!(c.invalidate(a), None);
        fill(&mut c, 0, AccessClass::Data, false);
        assert!(c.mark_dirty(a));
        assert_eq!(c.invalidate(a), Some(true), "mark_dirty dirtied it");
        assert!(!c.mark_dirty(a), "absent lines are not dirtied");
    }

    #[test]
    fn reset_clears() {
        let mut c = tiny();
        fill(&mut c, 0, AccessClass::Data, false);
        c.access(PhysAddr::new(0), RwKind::Read, AccessClass::Data);
        c.reset();
        assert!(!c.probe(PhysAddr::new(0)));
        assert_eq!(c.stats().total().total(), 0);
        assert_eq!(c.live_lines(), 0);
    }

    #[test]
    fn table1_presets_geometry() {
        assert_eq!(CacheConfig::l1d().sets(), 64);
        assert_eq!(CacheConfig::l2().sets(), 512);
        assert_eq!(CacheConfig::l3(4).sets(), 8192);
        assert_eq!(CacheConfig::l1d().latency, Cycles::new(4));
        assert_eq!(CacheConfig::l2().latency, Cycles::new(16));
        assert_eq!(CacheConfig::l3(1).latency, Cycles::new(35));
    }

    /// The 24-byte line the oracle keeps: every field apart.
    #[derive(Debug, Clone, Copy)]
    struct OracleLine {
        tag: u64,
        stamp: u64,
        valid: bool,
        dirty: bool,
        class: AccessClass,
        asid: Asid,
    }

    impl Default for OracleLine {
        fn default() -> Self {
            OracleLine {
                tag: 0,
                stamp: 0,
                valid: false,
                dirty: false,
                class: AccessClass::Data,
                asid: Asid::ZERO,
            }
        }
    }

    /// The division-decoded line array with its one-pass fill, kept as
    /// the oracle for the production decode and victim choice: a fill
    /// refreshes a resident line, else takes the first invalid way, else
    /// the first way with the oldest stamp; a LIP metadata fill stamps one
    /// below the oldest live stamp.
    struct DivOracle {
        config: CacheConfig,
        sets: usize,
        lines: Vec<OracleLine>,
        tick: u64,
        stats: CacheStats,
    }

    impl DivOracle {
        fn new(config: CacheConfig) -> Self {
            let sets = config.sets();
            DivOracle {
                lines: vec![OracleLine::default(); sets * config.ways as usize],
                config,
                sets,
                tick: 0,
                stats: CacheStats::default(),
            }
        }

        fn set_and_tag(&self, addr: PhysAddr) -> (usize, u64) {
            let line_addr = addr.as_u64() / self.config.line_bytes;
            (
                (line_addr as usize) % self.sets,
                line_addr / self.sets as u64,
            )
        }

        fn resident(&mut self, addr: PhysAddr) -> Option<&mut OracleLine> {
            let (set, tag) = self.set_and_tag(addr);
            let ways = self.config.ways as usize;
            self.lines[set * ways..(set + 1) * ways]
                .iter_mut()
                .find(|l| l.valid && l.tag == tag)
        }

        fn access(&mut self, addr: PhysAddr, rw: RwKind, class: AccessClass) -> bool {
            self.tick += 1;
            let tick = self.tick;
            let lip = self.config.metadata_lru_insert;
            let hit = match self.resident(addr) {
                Some(line) => {
                    if !(lip && line.class.is_metadata()) {
                        line.stamp = tick;
                    }
                    line.dirty |= rw.is_write();
                    true
                }
                None => false,
            };
            match class {
                AccessClass::Data => self.stats.data.record(hit),
                AccessClass::Metadata => self.stats.metadata.record(hit),
            }
            hit
        }

        fn fill(
            &mut self,
            addr: PhysAddr,
            class: AccessClass,
            asid: Asid,
            dirty: bool,
        ) -> Option<Victim> {
            self.tick += 1;
            let tick = self.tick;
            let (set, tag) = self.set_and_tag(addr);
            let ways = self.config.ways as usize;
            let lip = self.config.metadata_lru_insert && class.is_metadata();
            let lines = &mut self.lines[set * ways..(set + 1) * ways];
            let mut invalid = None;
            let (mut lru, mut oldest) = (0, None::<u64>);
            for (way, line) in lines.iter_mut().enumerate() {
                if !line.valid {
                    invalid = invalid.or(Some(way));
                } else if line.tag == tag {
                    line.stamp = tick;
                    line.dirty |= dirty;
                    line.class = class;
                    line.asid = asid;
                    return None;
                } else if oldest.is_none_or(|s| line.stamp < s) {
                    (lru, oldest) = (way, Some(line.stamp));
                }
            }
            let stamp = if lip {
                oldest.unwrap_or(tick).saturating_sub(1)
            } else {
                tick
            };
            let victim = &mut lines[invalid.unwrap_or(lru)];
            let evicted = victim.valid.then(|| Victim {
                addr: PhysAddr::new(
                    (victim.tag * self.sets as u64 + set as u64) * self.config.line_bytes,
                ),
                class: victim.class,
                dirty: victim.dirty,
            });
            *victim = OracleLine {
                tag,
                stamp,
                valid: true,
                dirty,
                class,
                asid,
            };
            if let Some(v) = evicted {
                if v.class == AccessClass::Data && class.is_metadata() {
                    self.stats.data_evicted_by_metadata += 1;
                }
                if v.dirty {
                    self.stats.writebacks += 1;
                }
            }
            evicted
        }

        fn mark_dirty(&mut self, addr: PhysAddr) -> bool {
            self.resident(addr).map(|l| l.dirty = true).is_some()
        }

        fn invalidate(&mut self, addr: PhysAddr) -> Option<bool> {
            let line = self.resident(addr)?;
            let dirty = line.dirty;
            *line = OracleLine::default();
            Some(dirty)
        }
    }

    /// Every field of a line, for whole-array comparisons.
    fn line_state(l: &Line) -> (u64, u64, bool, bool, AccessClass, Asid) {
        (l.tag(), l.stamp, l.valid(), l.dirty(), l.class(), l.asid())
    }

    fn oracle_line_state(l: &OracleLine) -> (u64, u64, bool, bool, AccessClass, Asid) {
        (l.tag, l.stamp, l.valid, l.dirty, l.class, l.asid)
    }

    /// Replays `stream` through a cache of `ways` ways over 4 sets and
    /// through the oracle, comparing every hit, victim and residency
    /// answer, and the line array and statistics after every step. Each
    /// step is `(kind, line, asid, class, flag)`: `flag` is the fill's
    /// dirtiness or the access's store bit.
    fn cache_matches_oracle(
        ways: u32,
        lip: bool,
        stream: &[(u8, u64, u16, AccessClass, bool)],
    ) -> Result<(), proptest::TestCaseError> {
        let config = CacheConfig {
            name: "prop",
            size_bytes: 4 * u64::from(ways) * 64,
            ways,
            line_bytes: 64,
            latency: Cycles::new(1),
            metadata_lru_insert: lip,
        };
        let mut cache = SetAssocCache::new(config.clone());
        let mut oracle = DivOracle::new(config);
        for (i, &(kind, line, asid, class, flag)) in stream.iter().enumerate() {
            let addr = PhysAddr::new(line * 64 + (line % 64));
            let rw = if flag { RwKind::Write } else { RwKind::Read };
            match kind {
                0..=3 => proptest::prop_assert_eq!(
                    cache.fill(addr, class, Asid(asid), flag),
                    oracle.fill(addr, class, Asid(asid), flag),
                    "fill {}",
                    i
                ),
                4..=6 => proptest::prop_assert_eq!(
                    cache.access(addr, rw, class).is_hit(),
                    oracle.access(addr, rw, class),
                    "access {}",
                    i
                ),
                7 => proptest::prop_assert_eq!(
                    cache.mark_dirty(addr),
                    oracle.mark_dirty(addr),
                    "mark_dirty {}",
                    i
                ),
                8 => proptest::prop_assert_eq!(
                    cache.invalidate(addr),
                    oracle.invalidate(addr),
                    "invalidate {}",
                    i
                ),
                _ => {
                    // A miss installs through the slot its access picked;
                    // between the two, kind 11 invalidates and kind 12
                    // looks up another line of the same set, so a stale
                    // slot falls back to a fill.
                    let other = PhysAddr::new((line ^ 4) * 64);
                    let access = cache.access(addr, rw, class);
                    let hit = oracle.access(addr, rw, class);
                    proptest::prop_assert_eq!(access.is_hit(), hit, "access {}", i);
                    match kind {
                        11 => proptest::prop_assert_eq!(
                            cache.invalidate(other),
                            oracle.invalidate(other)
                        ),
                        12 => proptest::prop_assert_eq!(
                            cache.access(other, RwKind::Read, class).is_hit(),
                            oracle.access(other, RwKind::Read, class)
                        ),
                        _ => {}
                    }
                    if let Access::Miss(slot) = access {
                        proptest::prop_assert_eq!(
                            cache.install(slot, addr, class, Asid(asid), flag),
                            oracle.fill(addr, class, Asid(asid), flag),
                            "install {}",
                            i
                        );
                    }
                }
            }
            proptest::prop_assert_eq!(cache.probe(addr), oracle.resident(addr).is_some());
            proptest::prop_assert_eq!(cache.tick, oracle.tick);
            let lines: Vec<_> = cache.lines.iter().map(line_state).collect();
            let expect: Vec<_> = oracle.lines.iter().map(oracle_line_state).collect();
            proptest::prop_assert_eq!(lines, expect, "lines after step {}", i);
            proptest::prop_assert_eq!(
                format!("{:?}", cache.stats()),
                format!("{:?}", oracle.stats),
                "stats after step {}",
                i
            );
        }
        Ok(())
    }

    /// A step's line class: normal data or page-table metadata.
    fn access_class() -> impl proptest::prelude::Strategy<Value = AccessClass> {
        proptest::prop_oneof![
            proptest::prelude::Just(AccessClass::Data),
            proptest::prelude::Just(AccessClass::Metadata)
        ]
    }

    /// A fill's dirtiness, or an access's store bit.
    fn dirty_or_store() -> impl proptest::prelude::Strategy<Value = bool> {
        proptest::bool::ANY
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Random fill, access, miss-then-install, mark-dirty and
        /// invalidate streams over 1, 2, 8 and 16 ways, with and without
        /// LIP metadata fills, give the division-decoded one-pass oracle's
        /// hits, victims, stamps and statistics. A line pool of five sets'
        /// worth per set keeps every set evicting; LIP fills into sets
        /// with invalid ways or stamp-0 lines tie at stamp 0, repeated
        /// lines refill resident ones, and installs whose set changed
        /// since their access fall back to a fill.
        #[test]
        fn fill_matches_division_oracle(
            stream in proptest::collection::vec(
                (0u8..13, 0u64..80, 0u16..3, access_class(), dirty_or_store()),
                1..600,
            ),
        ) {
            for ways in [1, 2, 8, 16] {
                for lip in [false, true] {
                    let pool = 4 * 5 * u64::from(ways);
                    let scaled: Vec<_> = stream
                        .iter()
                        .map(|&(k, l, a, c, f)| (k, l * pool / 80, a, c, f))
                        .collect();
                    cache_matches_oracle(ways, lip, &scaled)?;
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "line size must be a power of two")]
    fn non_power_of_two_line_size_rejected() {
        let _ = SetAssocCache::new(CacheConfig {
            name: "bad",
            size_bytes: 4 * 96,
            ways: 1,
            line_bytes: 96,
            latency: Cycles::new(1),
            metadata_lru_insert: false,
        });
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = SetAssocCache::new(CacheConfig {
            name: "bad",
            size_bytes: 192,
            ways: 1,
            line_bytes: 64,
            latency: Cycles::new(1),
            metadata_lru_insert: false,
        });
    }
}
