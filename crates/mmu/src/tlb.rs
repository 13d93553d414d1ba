//! Translation lookaside buffers.
//!
//! Set-associative, LRU, with split 4 KB / 2 MB tagging: a huge-page entry
//! is tagged by the VPN's 2 MB-aligned prefix and covers all 512 base pages
//! beneath it — the reach advantage that makes the Huge Page baseline
//! strong at low core counts.
//!
//! Entries additionally carry an [`Asid`] tag so multiprogrammed cores can
//! keep several address spaces resident at once: lookups and fills are
//! keyed by `(asid, vpn)`, [`Tlb::flush_asid`] models a targeted shootdown
//! and [`Tlb::flush_all`] the untagged-TLB full flush a context switch
//! forces. Single-address-space runs pass [`Asid::ZERO`] everywhere and
//! behave bit-identically to an untagged TLB.

use ndp_types::stats::HitMiss;
use ndp_types::{Asid, Cycles, PageSize, Pfn, Vpn};

/// Geometry and latency of one TLB level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Human-readable name.
    pub name: &'static str,
    /// Total entries.
    pub entries: u32,
    /// Associativity.
    pub ways: u32,
    /// Lookup latency.
    pub latency: Cycles,
}

impl TlbConfig {
    /// Table I L1 DTLB: 64-entry, 4-way, 1-cycle.
    #[must_use]
    pub const fn l1_dtlb() -> Self {
        TlbConfig {
            name: "L1 DTLB",
            entries: 64,
            ways: 4,
            latency: Cycles::new(1),
        }
    }

    /// Table I L2 TLB: 1536-entry, 12-cycle (12-way here; Table I gives no
    /// associativity).
    #[must_use]
    pub const fn l2_stlb() -> Self {
        TlbConfig {
            name: "L2 TLB",
            entries: 1536,
            ways: 12,
            latency: Cycles::new(12),
        }
    }

    /// Sets implied by geometry.
    ///
    /// # Panics
    ///
    /// Panics if entries don't divide by ways into a power of two.
    #[must_use]
    pub fn sets(&self) -> usize {
        let sets = (self.entries / self.ways) as usize;
        assert!(sets > 0, "TLB too small for its associativity");
        assert!(sets.is_power_of_two(), "TLB sets must be a power of two");
        sets
    }
}

/// Tag of an empty way. Live tags pack a ≤ 37-bit page key with a 16-bit
/// ASID at [`Asid::TAG_SHIFT`], so they can never reach the sentinel.
const INVALID_TAG: u64 = u64::MAX;

/// Bits of a tag that hold the ASID.
const ASID_MASK: u64 = !0u64 << Asid::TAG_SHIFT;

/// A translation returned by a TLB probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbHit {
    /// Frame of the 4 KB page containing the address.
    pub pfn: Pfn,
    /// Size of the underlying mapping.
    pub size: PageSize,
}

/// One set-associative TLB level.
///
/// Probe state is struct-of-arrays (the `PwcSet` treatment): `tags[i]`
/// packs the page key with the owning ASID so a set probe is one `u64`
/// compare per way over a contiguous row, `stamps[i]` carries LRU age
/// (zeroed on invalidation — valid stamps are always ≥ 1, so the victim
/// scan needs no validity branch), and `pfns[i]` is the payload, touched
/// only on a hit. The mapping size is not stored: the key's low bit *is*
/// the 4 KB / 2 MB namespace.
///
/// `huge_live` counts the live 2 MB entries, so a lookup that misses the
/// 4 KB namespace skips the 2 MB probe while the level holds none — the
/// common case, since fracturing (the default) never installs one.
///
/// A lookup that misses picks, in the same call, the way a 4 KB fill of
/// its page would replace (`pending`). The fill right after it — an L2
/// hit's promotion into L1, or a walk's install — writes there without
/// scanning the set again; any other fill scans.
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    sets: usize,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    pfns: Vec<Pfn>,
    tick: u64,
    huge_live: usize,
    pending: Pending,
    stats: HitMiss,
}

/// The victim way a missing lookup picked for a 4 KB fill of its page:
/// current while the level's tick is still the lookup's (no lookup or
/// fill since) and no flush has cleared it.
#[derive(Debug, Clone, Copy)]
struct Pending {
    tag: u64,
    way: usize,
    tick: u64,
}

impl Pending {
    /// Matches no fill.
    const NONE: Pending = Pending {
        tag: INVALID_TAG,
        way: 0,
        tick: 0,
    };
}

impl Tlb {
    /// Builds a TLB from its configuration.
    #[must_use]
    pub fn new(config: TlbConfig) -> Self {
        let sets = config.sets();
        let ways = sets * config.ways as usize;
        Tlb {
            config,
            sets,
            tags: vec![INVALID_TAG; ways],
            stamps: vec![0; ways],
            pfns: vec![Pfn::new(0); ways],
            tick: 0,
            huge_live: 0,
            pending: Pending::NONE,
            stats: HitMiss::default(),
        }
    }

    /// Live 2 MB entries (the odd-keyed tags).
    #[must_use]
    pub fn huge_entries(&self) -> usize {
        self.huge_live
    }

    /// Whether a live tag is a 2 MB entry (the empty-way sentinel is
    /// odd too, so it is excluded first).
    fn is_huge_tag(tag: u64) -> bool {
        tag != INVALID_TAG && tag & 1 == 1
    }

    /// The level configuration.
    #[must_use]
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Hit/miss statistics.
    #[must_use]
    pub fn stats(&self) -> &HitMiss {
        &self.stats
    }

    fn key_for(vpn: Vpn, size: PageSize) -> u64 {
        match size {
            PageSize::Size4K => vpn.as_u64() << 1,
            // Huge entries tag the 2 MB-aligned prefix; low bit
            // distinguishes the namespaces.
            PageSize::Size2M => ((vpn.as_u64() >> 9) << 1) | 1,
        }
    }

    /// The ways of `key`'s set.
    #[inline]
    fn row(&self, key: u64) -> std::ops::Range<usize> {
        let (set, ways) = (
            (key as usize >> 1) & (self.sets - 1),
            self.config.ways as usize,
        );
        set * ways..(set + 1) * ways
    }

    /// The way of `tag` in `row`, refreshed to the current tick.
    fn probe_tag(&mut self, row: std::ops::Range<usize>, tag: u64) -> Option<usize> {
        let w = row.start + self.tags[row].iter().position(|&t| t == tag)?;
        self.stamps[w] = self.tick;
        Some(w)
    }

    /// The way a fill into `row` replaces: the first with the smallest
    /// stamp (invalidated ways hold stamp 0, below every live stamp).
    fn victim(&self, row: std::ops::Range<usize>) -> usize {
        let (mut victim, mut oldest) = (row.start, u64::MAX);
        for w in row {
            if self.stamps[w] < oldest {
                (victim, oldest) = (w, self.stamps[w]);
            }
        }
        victim
    }

    /// Looks up `vpn` in address space `asid`, probing the 4 KB and then
    /// (while the level holds any) the 2 MB namespace, and records a hit
    /// or miss. Entries of other ASIDs never hit. A miss leaves the way a
    /// 4 KB fill of `vpn` would replace for that fill.
    pub fn lookup(&mut self, asid: Asid, vpn: Vpn) -> Option<TlbHit> {
        self.tick += 1;
        let key = Self::key_for(vpn, PageSize::Size4K);
        let (row, tag) = (self.row(key), key | asid.tag_bits());
        let hit = match self.probe_tag(row.clone(), tag) {
            Some(w) => Some(TlbHit {
                pfn: self.pfns[w],
                size: PageSize::Size4K,
            }),
            None if self.huge_live == 0 => None,
            None => {
                let key = Self::key_for(vpn, PageSize::Size2M);
                let w = self.probe_tag(self.row(key), key | asid.tag_bits());
                w.map(|w| TlbHit {
                    // Reconstruct the 4 KB frame within the huge page.
                    pfn: self.pfns[w].add(vpn.l1_index() as u64),
                    size: PageSize::Size2M,
                })
            }
        };
        if hit.is_none() {
            self.pending = Pending {
                tag,
                way: self.victim(row),
                tick: self.tick,
            };
        }
        self.stats.record(hit.is_some());
        hit
    }

    /// Installs a translation for address space `asid`. For 2 MB mappings
    /// pass the *huge page base* PFN (512-frame aligned).
    ///
    /// Right after a lookup of the same page that missed, the fill goes to
    /// the way that lookup picked. Otherwise one pass refreshes the entry
    /// if present (the size lives in the key, so a refresh can never
    /// change it), else replaces the way [`Tlb::lookup`] would pick.
    pub fn fill(&mut self, asid: Asid, vpn: Vpn, pfn: Pfn, size: PageSize) {
        let key = Self::key_for(vpn, size);
        let tag = key | asid.tag_bits();
        let pending = self.pending;
        self.tick += 1;
        let victim = if pending.tag == tag && pending.tick + 1 == self.tick {
            pending.way
        } else {
            let row = self.row(key);
            if let Some(w) = self.probe_tag(row.clone(), tag) {
                self.pfns[w] = pfn;
                return;
            }
            self.victim(row)
        };
        self.huge_live -= usize::from(Self::is_huge_tag(self.tags[victim]));
        self.huge_live += usize::from(Self::is_huge_tag(tag));
        self.tags[victim] = tag;
        self.stamps[victim] = self.tick;
        self.pfns[victim] = pfn;
    }

    /// Invalidates every entry of `asid` (a targeted shootdown), returning
    /// how many entries were dropped. Statistics and other address spaces
    /// are untouched.
    pub fn flush_asid(&mut self, asid: Asid) -> u64 {
        self.pending = Pending::NONE;
        let tag_bits = asid.tag_bits();
        let mut dropped = 0;
        for w in 0..self.tags.len() {
            if self.tags[w] != INVALID_TAG && self.tags[w] & ASID_MASK == tag_bits {
                self.huge_live -= usize::from(Self::is_huge_tag(self.tags[w]));
                self.tags[w] = INVALID_TAG;
                self.stamps[w] = 0;
                dropped += 1;
            }
        }
        dropped
    }

    /// Invalidates every entry (the untagged-TLB context-switch flush),
    /// returning how many entries were dropped. Statistics survive — a
    /// flush loses state, not history.
    pub fn flush_all(&mut self) -> u64 {
        self.pending = Pending::NONE;
        let mut dropped = 0;
        for w in 0..self.tags.len() {
            if self.tags[w] != INVALID_TAG {
                self.tags[w] = INVALID_TAG;
                self.stamps[w] = 0;
                dropped += 1;
            }
        }
        self.huge_live = 0;
        dropped
    }

    /// Clears contents and statistics.
    pub fn reset(&mut self) {
        self.tags.fill(INVALID_TAG);
        self.stamps.fill(0);
        self.pfns.fill(Pfn::new(0));
        self.tick = 0;
        self.huge_live = 0;
        self.pending = Pending::NONE;
        self.stats = HitMiss::default();
    }

    /// Clears statistics only, preserving contents.
    pub fn clear_stats(&mut self) {
        self.stats = HitMiss::default();
    }
}

/// Where a hierarchy lookup was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbOutcome {
    /// Hit in the L1 TLB.
    L1Hit,
    /// Missed L1, hit the L2 TLB.
    L2Hit,
    /// Missed both levels; a page-table walk is required.
    Miss,
}

impl TlbOutcome {
    /// Whether a walk is required.
    #[must_use]
    pub fn is_miss(self) -> bool {
        matches!(self, TlbOutcome::Miss)
    }
}

/// Result of a hierarchy lookup: outcome, translation (if hit), and the
/// lookup latency spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbLookup {
    /// Where the lookup resolved.
    pub outcome: TlbOutcome,
    /// The translation, when either level hit.
    pub hit: Option<TlbHit>,
    /// Probe latency accumulated across levels.
    pub latency: Cycles,
}

/// The two-level data-TLB hierarchy of Table I.
#[derive(Debug, Clone)]
pub struct TlbHierarchy {
    l1: Tlb,
    l2: Tlb,
    fracture_huge: bool,
}

impl TlbHierarchy {
    /// Builds the Table I configuration (L1 DTLB + L2 STLB), with 2 MB
    /// fills *fractured* into 4 KB entries — the paper evaluates Huge Page
    /// purely as a shorter (3-level) walk (§VII-A), which corresponds to a
    /// TLB that does not hold native 2 MB entries.
    #[must_use]
    pub fn table1() -> Self {
        TlbHierarchy {
            l1: Tlb::new(TlbConfig::l1_dtlb()),
            l2: Tlb::new(TlbConfig::l2_stlb()),
            fracture_huge: true,
        }
    }

    /// Builds from explicit configurations (fracturing enabled).
    #[must_use]
    pub fn new(l1: TlbConfig, l2: TlbConfig) -> Self {
        TlbHierarchy {
            l1: Tlb::new(l1),
            l2: Tlb::new(l2),
            fracture_huge: true,
        }
    }

    /// Enables or disables 2 MB fracturing (for reach ablations).
    #[must_use]
    pub fn with_fracturing(mut self, fracture: bool) -> Self {
        self.fracture_huge = fracture;
        self
    }

    /// L1 statistics.
    #[must_use]
    pub fn l1_stats(&self) -> &HitMiss {
        self.l1.stats()
    }

    /// L2 statistics.
    #[must_use]
    pub fn l2_stats(&self) -> &HitMiss {
        self.l2.stats()
    }

    /// Looks up `(asid, vpn)` through L1 then L2, promoting L2 hits into L1.
    pub fn lookup(&mut self, asid: Asid, vpn: Vpn) -> TlbLookup {
        let mut latency = self.l1.config().latency;
        if let Some(hit) = self.l1.lookup(asid, vpn) {
            return TlbLookup {
                outcome: TlbOutcome::L1Hit,
                hit: Some(hit),
                latency,
            };
        }
        latency += self.l2.config().latency;
        if let Some(hit) = self.l2.lookup(asid, vpn) {
            // Promote into L1 (store the mapping-granularity base).
            let base = match hit.size {
                PageSize::Size4K => hit.pfn,
                PageSize::Size2M => Pfn::new((hit.pfn.as_u64() >> 9) << 9),
            };
            self.l1.fill(asid, vpn, base, hit.size);
            return TlbLookup {
                outcome: TlbOutcome::L2Hit,
                hit: Some(hit),
                latency,
            };
        }
        TlbLookup {
            outcome: TlbOutcome::Miss,
            hit: None,
            latency,
        }
    }

    /// Installs a walked translation into the hierarchy for address space
    /// `asid`. For 2 MB mappings pass the huge page base PFN.
    ///
    /// With fracturing enabled (the default, matching the paper's Huge
    /// Page treatment), a 2 MB translation installs only the 4 KB entry
    /// for `vpn`; the mapping's reach advantage is forfeited and Huge Page
    /// benefits purely from its shorter walk.
    pub fn fill(&mut self, asid: Asid, vpn: Vpn, pfn_base: Pfn, size: PageSize) {
        if self.fracture_huge && size == PageSize::Size2M {
            let exact = pfn_base.add(vpn.l1_index() as u64);
            self.l1.fill(asid, vpn, exact, PageSize::Size4K);
            self.l2.fill(asid, vpn, exact, PageSize::Size4K);
            return;
        }
        self.l1.fill(asid, vpn, pfn_base, size);
        self.l2.fill(asid, vpn, pfn_base, size);
    }

    /// Invalidates both levels' entries of `asid` (a targeted shootdown),
    /// returning how many entries were dropped. Statistics survive.
    pub fn flush_asid(&mut self, asid: Asid) -> u64 {
        self.l1.flush_asid(asid) + self.l2.flush_asid(asid)
    }

    /// Invalidates both levels entirely (the untagged-TLB context-switch
    /// flush), returning how many entries were dropped. Statistics survive.
    pub fn flush_all(&mut self) -> u64 {
        self.l1.flush_all() + self.l2.flush_all()
    }

    /// Clears contents and statistics.
    pub fn reset(&mut self) {
        self.l1.reset();
        self.l2.reset();
    }

    /// Clears statistics of both levels, preserving contents.
    pub fn clear_stats(&mut self) {
        self.l1.clear_stats();
        self.l2.clear_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_fill_hit() {
        let mut t = Tlb::new(TlbConfig::l1_dtlb());
        let vpn = Vpn::new(0xabc);
        assert!(t.lookup(Asid::ZERO, vpn).is_none());
        t.fill(Asid::ZERO, vpn, Pfn::new(0x123), PageSize::Size4K);
        let hit = t.lookup(Asid::ZERO, vpn).unwrap();
        assert_eq!(hit.pfn, Pfn::new(0x123));
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 1);
    }

    #[test]
    fn huge_entry_covers_whole_region() {
        let mut t = Tlb::new(TlbConfig::l1_dtlb());
        let base_vpn = Vpn::new(512 * 7);
        t.fill(Asid::ZERO, base_vpn, Pfn::new(1024), PageSize::Size2M);
        // Any page in the same 2 MB region hits and maps to consecutive frames.
        for off in [0u64, 1, 255, 511] {
            let hit = t.lookup(Asid::ZERO, base_vpn.add(off)).unwrap();
            assert_eq!(hit.pfn, Pfn::new(1024 + off), "offset {off}");
            assert_eq!(hit.size, PageSize::Size2M);
        }
        // Outside the region: miss.
        assert!(t.lookup(Asid::ZERO, Vpn::new(512 * 8)).is_none());
    }

    #[test]
    fn lru_eviction_within_set() {
        // 1-way "TLB" with 16 sets: two VPNs in the same set conflict.
        let cfg = TlbConfig {
            name: "tiny",
            entries: 16,
            ways: 1,
            latency: Cycles::new(1),
        };
        let mut t = Tlb::new(cfg);
        let a = Vpn::new(0);
        let b = Vpn::new(16); // same set (16 sets)
        t.fill(Asid::ZERO, a, Pfn::new(1), PageSize::Size4K);
        t.fill(Asid::ZERO, b, Pfn::new(2), PageSize::Size4K);
        assert!(t.lookup(Asid::ZERO, a).is_none(), "evicted by b");
        assert!(t.lookup(Asid::ZERO, b).is_some());
    }

    #[test]
    fn hierarchy_promotes_l2_hits() {
        let mut h = TlbHierarchy::table1();
        let vpn = Vpn::new(0x777);
        assert_eq!(h.lookup(Asid::ZERO, vpn).outcome, TlbOutcome::Miss);
        h.fill(Asid::ZERO, vpn, Pfn::new(9), PageSize::Size4K);
        // Evict from L1 by filling conflicting entries.
        for i in 0..64u64 {
            h.l1.fill(
                Asid::ZERO,
                Vpn::new(vpn.as_u64() + (i + 1) * 16),
                Pfn::new(i),
                PageSize::Size4K,
            );
        }
        let l2_hit = h.lookup(Asid::ZERO, vpn);
        assert!(matches!(
            l2_hit.outcome,
            TlbOutcome::L2Hit | TlbOutcome::L1Hit
        ));
        // Immediately after, it should be back in L1.
        let l1_hit = h.lookup(Asid::ZERO, vpn);
        assert_eq!(l1_hit.outcome, TlbOutcome::L1Hit);
        assert_eq!(l1_hit.latency, Cycles::new(1));
    }

    #[test]
    fn hierarchy_latencies_match_table1() {
        let mut h = TlbHierarchy::table1();
        let miss = h.lookup(Asid::ZERO, Vpn::new(1));
        assert_eq!(miss.latency, Cycles::new(13)); // 1 + 12
        h.fill(Asid::ZERO, Vpn::new(1), Pfn::new(1), PageSize::Size4K);
        let hit = h.lookup(Asid::ZERO, Vpn::new(1));
        assert_eq!(hit.latency, Cycles::new(1));
    }

    #[test]
    fn huge_promotion_reconstructs_base() {
        let mut h = TlbHierarchy::table1();
        let region = Vpn::new(512 * 3);
        h.l2.fill(Asid::ZERO, region, Pfn::new(2048), PageSize::Size2M);
        let probe_vpn = region.add(17);
        let hit = h.lookup(Asid::ZERO, probe_vpn).hit.unwrap();
        assert_eq!(hit.pfn, Pfn::new(2048 + 17));
        // And the L1 promotion preserves correctness for other offsets.
        let hit2 = h.lookup(Asid::ZERO, region.add(33)).hit.unwrap();
        assert_eq!(hit2.pfn, Pfn::new(2048 + 33));
    }

    #[test]
    fn reset_clears() {
        let mut h = TlbHierarchy::table1();
        h.fill(Asid::ZERO, Vpn::new(5), Pfn::new(5), PageSize::Size4K);
        h.lookup(Asid::ZERO, Vpn::new(5));
        h.reset();
        assert_eq!(h.l1_stats().total(), 0);
        assert!(h.lookup(Asid::ZERO, Vpn::new(5)).outcome.is_miss());
    }

    #[test]
    fn asids_partition_the_tlb() {
        let mut t = Tlb::new(TlbConfig::l1_dtlb());
        let vpn = Vpn::new(0xabc);
        t.fill(Asid(1), vpn, Pfn::new(0x100), PageSize::Size4K);
        t.fill(Asid(2), vpn, Pfn::new(0x200), PageSize::Size4K);
        assert_eq!(t.lookup(Asid(1), vpn).unwrap().pfn, Pfn::new(0x100));
        assert_eq!(t.lookup(Asid(2), vpn).unwrap().pfn, Pfn::new(0x200));
        assert!(t.lookup(Asid(3), vpn).is_none(), "foreign ASID misses");
    }

    #[test]
    fn flush_asid_drops_one_space_and_keeps_stats() {
        let mut t = Tlb::new(TlbConfig::l1_dtlb());
        let vpn = Vpn::new(0x7);
        t.fill(Asid(1), vpn, Pfn::new(1), PageSize::Size4K);
        t.fill(Asid(2), vpn, Pfn::new(2), PageSize::Size4K);
        assert!(t.lookup(Asid(1), vpn).is_some());
        let stats_before = *t.stats();
        assert_eq!(t.flush_asid(Asid(1)), 1);
        assert_eq!(*t.stats(), stats_before, "shootdowns keep statistics");
        assert!(t.lookup(Asid(1), vpn).is_none());
        assert!(t.lookup(Asid(2), vpn).is_some());
    }

    #[test]
    fn flush_all_empties_every_space() {
        let mut h = TlbHierarchy::table1();
        h.fill(Asid(0), Vpn::new(1), Pfn::new(1), PageSize::Size4K);
        h.fill(Asid(1), Vpn::new(2), Pfn::new(2), PageSize::Size4K);
        // Each hierarchy fill installs into both levels.
        assert_eq!(h.flush_all(), 4);
        assert!(h.lookup(Asid(0), Vpn::new(1)).outcome.is_miss());
        assert!(h.lookup(Asid(1), Vpn::new(2)).outcome.is_miss());
        assert_eq!(h.flush_all(), 0, "second flush finds nothing");
    }

    #[test]
    fn hierarchy_flush_asid_counts_both_levels() {
        let mut h = TlbHierarchy::table1();
        h.fill(Asid(3), Vpn::new(9), Pfn::new(9), PageSize::Size4K);
        h.fill(Asid(4), Vpn::new(9), Pfn::new(10), PageSize::Size4K);
        assert_eq!(h.flush_asid(Asid(3)), 2);
        assert!(h.lookup(Asid(3), Vpn::new(9)).outcome.is_miss());
        assert!(!h.lookup(Asid(4), Vpn::new(9)).outcome.is_miss());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The live-2 MB count that gates the 2 MB probe always equals a
        /// recount of the live odd-keyed tags, whatever mix of fills (both
        /// sizes, with evictions), lookups, shootdowns and resets ran.
        #[test]
        fn huge_count_matches_a_recount(
            ops in proptest::collection::vec((0u8..16, 0u16..3, 0u64..4096), 1..400),
        ) {
            let mut t = Tlb::new(TlbConfig { name: "tiny", entries: 16, ways: 2, latency: Cycles::new(1) });
            for &(op, asid_raw, vpn_raw) in &ops {
                let (asid, vpn) = (Asid(asid_raw), Vpn::new(vpn_raw));
                match op {
                    0..=5 => t.fill(asid, vpn, Pfn::new(vpn_raw), PageSize::Size4K),
                    6..=10 => t.fill(asid, vpn, Pfn::new(vpn_raw & !511), PageSize::Size2M),
                    11..=13 => {
                        t.lookup(asid, vpn);
                    }
                    14 => {
                        t.flush_asid(asid);
                    }
                    _ if vpn_raw % 2 == 0 => {
                        t.flush_all();
                    }
                    _ => t.reset(),
                }
                let recount = t.tags.iter().filter(|&&tag| Tlb::is_huge_tag(tag)).count();
                proptest::prop_assert_eq!(t.huge_entries(), recount);
            }
        }
    }

    /// The one-pass fill kept as the oracle for the production victim
    /// choice: a resident tag is refreshed in place, else the first way
    /// with the smallest stamp (invalidated ways scan as stamp 0) is
    /// replaced. Lookups and flushes are the production ones' copies.
    struct ScanTlb {
        sets: usize,
        ways: usize,
        tags: Vec<u64>,
        stamps: Vec<u64>,
        pfns: Vec<Pfn>,
        tick: u64,
        stats: HitMiss,
    }

    impl ScanTlb {
        fn new(config: TlbConfig) -> Self {
            let (sets, ways) = (config.sets(), config.ways as usize);
            ScanTlb {
                sets,
                ways,
                tags: vec![INVALID_TAG; sets * ways],
                stamps: vec![0; sets * ways],
                pfns: vec![Pfn::new(0); sets * ways],
                tick: 0,
                stats: HitMiss::default(),
            }
        }

        fn ways_of(&self, key: u64) -> std::ops::Range<usize> {
            let base = ((key as usize >> 1) % self.sets) * self.ways;
            base..base + self.ways
        }

        fn probe_key(&mut self, asid: Asid, key: u64) -> Option<Pfn> {
            let tag = key | asid.tag_bits();
            let w = self.ways_of(key).find(|&w| self.tags[w] == tag)?;
            self.stamps[w] = self.tick;
            Some(self.pfns[w])
        }

        fn lookup(&mut self, asid: Asid, vpn: Vpn) -> Option<TlbHit> {
            self.tick += 1;
            let hit = self
                .probe_key(asid, Tlb::key_for(vpn, PageSize::Size4K))
                .map(|pfn| TlbHit {
                    pfn,
                    size: PageSize::Size4K,
                })
                .or_else(|| {
                    self.probe_key(asid, Tlb::key_for(vpn, PageSize::Size2M))
                        .map(|base| TlbHit {
                            pfn: base.add(vpn.l1_index() as u64),
                            size: PageSize::Size2M,
                        })
                });
            self.stats.record(hit.is_some());
            hit
        }

        fn fill(&mut self, asid: Asid, vpn: Vpn, pfn: Pfn, size: PageSize) {
            self.tick += 1;
            let key = Tlb::key_for(vpn, size);
            let tag = key | asid.tag_bits();
            let (mut victim, mut victim_stamp) = (0, u64::MAX);
            for w in self.ways_of(key) {
                if self.tags[w] == tag {
                    self.stamps[w] = self.tick;
                    self.pfns[w] = pfn;
                    return;
                }
                if self.stamps[w] < victim_stamp {
                    (victim, victim_stamp) = (w, self.stamps[w]);
                }
            }
            self.tags[victim] = tag;
            self.stamps[victim] = self.tick;
            self.pfns[victim] = pfn;
        }

        /// The hierarchy's lookup on two oracle levels: L1, then L2 with
        /// an L2 hit promoted into L1 at its mapping granularity.
        fn lookup_pair(l1: &mut Self, l2: &mut Self, asid: Asid, vpn: Vpn) -> Option<TlbHit> {
            if let Some(hit) = l1.lookup(asid, vpn) {
                return Some(hit);
            }
            let hit = l2.lookup(asid, vpn)?;
            let base = match hit.size {
                PageSize::Size4K => hit.pfn,
                PageSize::Size2M => Pfn::new((hit.pfn.as_u64() >> 9) << 9),
            };
            l1.fill(asid, vpn, base, hit.size);
            Some(hit)
        }

        fn flush(&mut self, asid: Option<Asid>) -> u64 {
            let mut dropped = 0;
            for w in 0..self.tags.len() {
                let tag = self.tags[w];
                if tag != INVALID_TAG && asid.is_none_or(|a| tag & ASID_MASK == a.tag_bits()) {
                    self.tags[w] = INVALID_TAG;
                    self.stamps[w] = 0;
                    dropped += 1;
                }
            }
            dropped
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Random fill (both sizes), lookup, lookup-then-install and
        /// shootdown streams over 1, 2, 8 and 16 ways give the one-pass
        /// scan's hits, victims, stamps, frames and statistics. Early
        /// shootdowns leave stamp-0 ways beside live ones, and repeated
        /// pages refill resident entries. A two-level hierarchy, with and
        /// without fracturing, gives the oracle pair's L2-hit promotions
        /// and walk installs.
        #[test]
        fn fill_matches_scan_oracle(
            ops in proptest::collection::vec((0u8..20, 0u16..3, 0u64..1024), 1..500),
        ) {
            for ways in [1u32, 2, 8, 16] {
                let config = TlbConfig { name: "prop", entries: 4 * ways, ways, latency: Cycles::new(1) };
                let mut t = Tlb::new(config);
                let mut oracle = ScanTlb::new(config);
                for (i, &(op, asid_raw, vpn_raw)) in ops.iter().enumerate() {
                    let (asid, vpn) = (Asid(asid_raw), Vpn::new(vpn_raw * 8 * u64::from(ways) / 64));
                    match op {
                        0..=5 => {
                            t.fill(asid, vpn, Pfn::new(vpn_raw + 7), PageSize::Size4K);
                            oracle.fill(asid, vpn, Pfn::new(vpn_raw + 7), PageSize::Size4K);
                        }
                        6..=7 => {
                            let base = Pfn::new(vpn_raw << 9);
                            t.fill(asid, vpn, base, PageSize::Size2M);
                            oracle.fill(asid, vpn, base, PageSize::Size2M);
                        }
                        8..=13 => proptest::prop_assert_eq!(t.lookup(asid, vpn), oracle.lookup(asid, vpn), "lookup {}", i),
                        14 => proptest::prop_assert_eq!(t.flush_asid(asid), oracle.flush(Some(asid))),
                        15 => proptest::prop_assert_eq!(t.flush_all(), oracle.flush(None)),
                        _ => {
                            // A walk's install right after its missing
                            // lookup: a 4 KB one takes the way the lookup
                            // picked, unless kind 18's shootdown of
                            // another space or kind 19's fill of another
                            // page of the set came between; a native
                            // 2 MB one scans its own set.
                            let hit = t.lookup(asid, vpn);
                            proptest::prop_assert_eq!(hit, oracle.lookup(asid, vpn), "lookup {}", i);
                            if op == 18 {
                                let other = Asid((asid_raw + 1) % 3);
                                proptest::prop_assert_eq!(t.flush_asid(other), oracle.flush(Some(other)));
                            }
                            if op == 19 {
                                let other = vpn.add(4);
                                t.fill(asid, other, Pfn::new(vpn_raw + 9), PageSize::Size4K);
                                oracle.fill(asid, other, Pfn::new(vpn_raw + 9), PageSize::Size4K);
                            }
                            if hit.is_none() {
                                let (pfn, size) = if op == 17 {
                                    (Pfn::new(vpn_raw << 9), PageSize::Size2M)
                                } else {
                                    (Pfn::new(vpn_raw + 7), PageSize::Size4K)
                                };
                                t.fill(asid, vpn, pfn, size);
                                oracle.fill(asid, vpn, pfn, size);
                            }
                        }
                    }
                    proptest::prop_assert_eq!(&t.tags, &oracle.tags, "tags after step {}", i);
                    proptest::prop_assert_eq!(&t.stamps, &oracle.stamps, "stamps after step {}", i);
                    proptest::prop_assert_eq!(&t.pfns, &oracle.pfns, "frames after step {}", i);
                    proptest::prop_assert_eq!(t.tick, oracle.tick);
                    proptest::prop_assert_eq!(*t.stats(), oracle.stats);
                }
            }
            for fracture in [true, false] {
                let l1 = TlbConfig { name: "prop-l1", entries: 8, ways: 2, latency: Cycles::new(1) };
                let l2 = TlbConfig { name: "prop-l2", entries: 32, ways: 4, latency: Cycles::new(2) };
                let mut h = TlbHierarchy::new(l1, l2).with_fracturing(fracture);
                let (mut o1, mut o2) = (ScanTlb::new(l1), ScanTlb::new(l2));
                for (i, &(op, asid_raw, vpn_raw)) in ops.iter().enumerate() {
                    // 96 pages over 4 L1 and 8 L2 sets: pages come back
                    // after L1 evicted them, and hit in L2.
                    let vpn_raw = vpn_raw % 96;
                    let (asid, vpn) = (Asid(asid_raw), Vpn::new(vpn_raw));
                    if op >= 15 {
                        proptest::prop_assert_eq!(h.flush_asid(asid), o1.flush(Some(asid)) + o2.flush(Some(asid)));
                        continue;
                    }
                    let hit = h.lookup(asid, vpn).hit;
                    proptest::prop_assert_eq!(hit, ScanTlb::lookup_pair(&mut o1, &mut o2, asid, vpn), "lookup {}", i);
                    if hit.is_none() {
                        // Every third page is a 2 MB mapping.
                        let (base, size) = if vpn_raw % 3 == 0 {
                            (Pfn::new((vpn_raw >> 9) << 18), PageSize::Size2M)
                        } else {
                            (Pfn::new(vpn_raw + 7), PageSize::Size4K)
                        };
                        h.fill(asid, vpn, base, size);
                        let (base, size) = if fracture && size == PageSize::Size2M {
                            (base.add(vpn.l1_index() as u64), PageSize::Size4K)
                        } else {
                            (base, size)
                        };
                        o1.fill(asid, vpn, base, size);
                        o2.fill(asid, vpn, base, size);
                    }
                    for (t, o) in [(&h.l1, &o1), (&h.l2, &o2)] {
                        proptest::prop_assert_eq!(&t.tags, &o.tags, "tags after step {}", i);
                        proptest::prop_assert_eq!(&t.stamps, &o.stamps, "stamps after step {}", i);
                        proptest::prop_assert_eq!(&t.pfns, &o.pfns, "frames after step {}", i);
                        proptest::prop_assert_eq!(*t.stats(), o.stats);
                    }
                }
            }
        }
    }

    #[test]
    fn table1_geometries() {
        assert_eq!(TlbConfig::l1_dtlb().sets(), 16);
        assert_eq!(TlbConfig::l2_stlb().sets(), 128);
    }
}
