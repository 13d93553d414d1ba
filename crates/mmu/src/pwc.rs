//! Page-walk caches (§V-C).
//!
//! One small fully-associative LRU cache per page-table level, tagged by
//! the virtual-address prefix that selects the PTE at that level:
//!
//! | level     | tag bits (of the VPN)            | distinct tags per 8 GB |
//! |-----------|----------------------------------|------------------------|
//! | PL4       | bits 35..27 (9)                  | 1                      |
//! | PL3       | bits 35..18 (18)                 | 8                      |
//! | PL2       | bits 35..9  (27)                 | 4096                   |
//! | PL1       | all 36                           | 2 M                    |
//! | PL2/PL1   | all 36                           | 2 M                    |
//!
//! The tag population explains the paper's measured hit rates directly:
//! PL4/PL3 tags fit trivially in a 64-entry cache (≈100% / 98.6%) while
//! PL2/PL1 tags outnumber it by orders of magnitude (≈15.4%). NDPage's
//! flattening keeps the good PWCs and collapses the two bad ones into a
//! single miss per walk.

use ndp_types::stats::HitMiss;
use ndp_types::{Asid, PtLevel, Vpn};

/// Entries per per-level PWC (Victima-style: 64 entries).
pub const PWC_ENTRIES: usize = 64;

/// Packs an ASID above a VPN-prefix tag: level prefixes occupy at most
/// 36 bits, so the ASID lives at [`Asid::TAG_SHIFT`] and `Asid::ZERO`
/// leaves the tag bit-identical to the untagged layout. Keeping the
/// combined tag a single `u64` preserves the dense vectorisable scan.
#[inline]
fn tagged(asid: Asid, tag: u64) -> u64 {
    tag | asid.tag_bits()
}

/// "No entry" in the recency links.
const NIL: u32 = u32::MAX;

/// A single level's page-walk cache.
///
/// Tags live in a dense array (the per-walk-step tag scan then reads a
/// contiguous `u64` row the compiler can vectorise); recency is a doubly
/// linked list threaded through parallel `newer`/`older` index arrays, so
/// a hit moves its entry to the MRU end and a miss on a full cache takes
/// the LRU end as its victim, both in O(1). The PL1 and PL2/PL1 caches
/// miss on nearly every walk, which made the victim choice a scan of
/// every entry.
#[derive(Debug, Clone)]
pub struct Pwc {
    level: PtLevel,
    /// Fully associative tags, parallel to `newer`/`older`.
    tags: Vec<u64>,
    /// The next entry toward the MRU end ([`NIL`] at the MRU entry).
    newer: Vec<u32>,
    /// The next entry toward the LRU end ([`NIL`] at the LRU entry).
    older: Vec<u32>,
    /// Most recently used entry ([`NIL`] when empty).
    mru: u32,
    /// Least recently used entry — the next victim ([`NIL`] when empty).
    lru: u32,
    capacity: usize,
    stats: HitMiss,
}

impl Pwc {
    /// Builds an empty PWC for `level` with [`PWC_ENTRIES`] entries.
    #[must_use]
    pub fn new(level: PtLevel) -> Self {
        Self::with_capacity(level, PWC_ENTRIES)
    }

    /// Builds with an explicit capacity (for ablations).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_capacity(level: PtLevel, capacity: usize) -> Self {
        assert!(capacity > 0, "PWC needs at least one entry");
        Pwc {
            level,
            tags: Vec::with_capacity(capacity),
            newer: Vec::with_capacity(capacity),
            older: Vec::with_capacity(capacity),
            mru: NIL,
            lru: NIL,
            capacity,
            stats: HitMiss::default(),
        }
    }

    /// Index of `tag`, if cached. Written without an early exit so the
    /// scan vectorises; tags are unique, so the last match is the match.
    #[inline]
    fn find(&self, tag: u64) -> Option<usize> {
        let mut found = usize::MAX;
        for (i, &t) in self.tags.iter().enumerate() {
            if t == tag {
                found = i;
            }
        }
        (found != usize::MAX).then_some(found)
    }

    /// Links entry `i` (currently unlinked) in at the MRU end.
    #[inline]
    fn link_mru(&mut self, i: u32) {
        self.newer[i as usize] = NIL;
        self.older[i as usize] = self.mru;
        if self.mru == NIL {
            self.lru = i;
        } else {
            self.newer[self.mru as usize] = i;
        }
        self.mru = i;
    }

    /// Moves entry `i` to the MRU end.
    #[inline]
    fn touch(&mut self, i: usize) {
        let i = i as u32;
        if self.mru == i {
            return;
        }
        // `i` is not the MRU entry, so it has a newer neighbour.
        let (newer, older) = (self.newer[i as usize], self.older[i as usize]);
        self.older[newer as usize] = older;
        if older == NIL {
            self.lru = newer;
        } else {
            self.newer[older as usize] = newer;
        }
        self.link_mru(i);
    }

    /// Installs `tag` as the MRU entry, evicting the LRU entry when full.
    /// Caller guarantees `tag` is absent.
    #[inline]
    fn insert(&mut self, tag: u64) {
        if self.tags.len() < self.capacity {
            let i = self.tags.len() as u32;
            self.tags.push(tag);
            self.newer.push(NIL);
            self.older.push(NIL);
            self.link_mru(i);
            return;
        }
        let victim = self.lru as usize;
        self.tags[victim] = tag;
        self.touch(victim);
    }

    /// Drops every entry (the recency list with it).
    fn clear(&mut self) {
        self.tags.clear();
        self.newer.clear();
        self.older.clear();
        self.mru = NIL;
        self.lru = NIL;
    }

    /// The level this PWC serves.
    #[must_use]
    pub fn level(&self) -> PtLevel {
        self.level
    }

    /// Hit/miss statistics.
    #[must_use]
    pub fn stats(&self) -> &HitMiss {
        &self.stats
    }

    /// The VA prefix tag a level uses.
    #[must_use]
    pub fn tag_for(level: PtLevel, vpn: Vpn) -> u64 {
        let v = vpn.as_u64();
        match level {
            PtLevel::L4 => v >> 27,
            PtLevel::L3 => v >> 18,
            PtLevel::L2 => v >> 9,
            PtLevel::L1 | PtLevel::FlatL2L1 => v,
            PtLevel::HashWay(_) => v, // unused: hashed tables have no PWC
        }
    }

    /// Probes (and on hit refreshes) the PWC for address space `asid`;
    /// records statistics. Tags of other ASIDs never hit.
    #[inline]
    pub fn access(&mut self, asid: Asid, vpn: Vpn) -> bool {
        let tag = tagged(asid, Self::tag_for(self.level, vpn));
        if let Some(i) = self.find(tag) {
            self.touch(i);
            self.stats.record(true);
            return true;
        }
        self.stats.record(false);
        false
    }

    /// Installs the tag after a successful memory fetch of this level.
    #[inline]
    pub fn fill(&mut self, asid: Asid, vpn: Vpn) {
        let tag = tagged(asid, Self::tag_for(self.level, vpn));
        if let Some(i) = self.find(tag) {
            self.touch(i);
            return;
        }
        self.insert(tag);
    }

    /// [`Self::access`] and, on a miss, [`Self::fill`] in one call with a
    /// single tag scan — the walker probes and then installs every missed
    /// level, so the separate calls scanned twice. Recency and statistics
    /// match the two-call sequence exactly.
    #[inline]
    pub fn probe_fill(&mut self, asid: Asid, vpn: Vpn) -> bool {
        let tag = tagged(asid, Self::tag_for(self.level, vpn));
        if let Some(i) = self.find(tag) {
            self.touch(i);
            self.stats.record(true);
            return true;
        }
        self.stats.record(false);
        // The tag is known absent: the fill half installs it directly.
        self.insert(tag);
        false
    }

    /// Drops every tag of `asid` (a targeted shootdown), returning how
    /// many were dropped. Statistics and other ASIDs survive.
    pub fn flush_asid(&mut self, asid: Asid) -> u64 {
        // Survivors oldest first, re-inserted in that order so the
        // recency list keeps their relative order.
        let mut survivors = Vec::with_capacity(self.tags.len());
        let mut i = self.lru;
        while i != NIL {
            let tag = self.tags[i as usize];
            if tag >> Asid::TAG_SHIFT != u64::from(asid.as_u16()) {
                survivors.push(tag);
            }
            i = self.newer[i as usize];
        }
        let dropped = (self.tags.len() - survivors.len()) as u64;
        self.clear();
        for tag in survivors {
            self.insert(tag);
        }
        dropped
    }

    /// Drops every tag (the untagged-walker context-switch flush),
    /// returning how many were dropped. Statistics survive — a flush
    /// loses state, not history.
    pub fn flush_all(&mut self) -> u64 {
        let dropped = self.tags.len() as u64;
        self.clear();
        dropped
    }

    /// Clears contents and statistics.
    pub fn reset(&mut self) {
        self.clear();
        self.stats = HitMiss::default();
    }

    /// Clears statistics only, preserving contents.
    pub fn clear_stats(&mut self) {
        self.stats = HitMiss::default();
    }
}

/// The per-level PWC bank of one MMU.
///
/// PWCs are created lazily per level on first use, so the same type serves
/// the 4-level radix walker (PL4..PL1), NDPage's 3-level walker
/// (PL4, PL3, PL2/PL1) and the Huge Page walker.
///
/// The bank is a fixed-size array indexed by [`PtLevel::pwc_slot`] — the
/// level set is a tiny closed enum, and the per-walk-step probe is one of
/// the simulator's hottest operations, so it is an O(1) array index. Slot
/// order equals level order, so statistics iterate in level order.
#[derive(Debug, Clone)]
pub struct PwcSet {
    pwcs: [Option<Pwc>; PtLevel::PWC_SLOTS],
    enabled: bool,
    capacity: usize,
}

impl Default for PwcSet {
    fn default() -> Self {
        Self::enabled()
    }
}

impl PwcSet {
    /// An enabled, empty PWC bank with the default [`PWC_ENTRIES`] per
    /// level.
    #[must_use]
    pub fn enabled() -> Self {
        Self::enabled_with_capacity(PWC_ENTRIES)
    }

    /// An enabled bank with `capacity` entries per level (for the PWC-size
    /// sweep experiments).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn enabled_with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "PWC needs at least one entry");
        PwcSet {
            pwcs: core::array::from_fn(|_| None),
            enabled: true,
            capacity,
        }
    }

    /// A disabled bank: every probe misses, fills are ignored (the ECH and
    /// no-PWC-ablation configurations).
    #[must_use]
    pub fn disabled() -> Self {
        PwcSet {
            pwcs: core::array::from_fn(|_| None),
            enabled: false,
            capacity: PWC_ENTRIES,
        }
    }

    /// The live (touched) PWC for `level`, creating it on first use.
    #[inline]
    fn level_pwc(&mut self, level: PtLevel) -> &mut Pwc {
        let capacity = self.capacity;
        self.pwcs[level.pwc_slot()].get_or_insert_with(|| Pwc::with_capacity(level, capacity))
    }

    /// Probes the PWC for `level` in address space `asid`; always misses
    /// when disabled.
    #[inline]
    pub fn access(&mut self, level: PtLevel, asid: Asid, vpn: Vpn) -> bool {
        if !self.enabled {
            return false;
        }
        self.level_pwc(level).access(asid, vpn)
    }

    /// Fills the PWC for `level` in address space `asid` (no-op when
    /// disabled).
    #[inline]
    pub fn fill(&mut self, level: PtLevel, asid: Asid, vpn: Vpn) {
        if !self.enabled {
            return;
        }
        self.level_pwc(level).fill(asid, vpn);
    }

    /// Probes `level` and installs the tag on a miss with a single scan
    /// (see [`Pwc::probe_fill`]); equivalent to `access` + `fill`-on-miss.
    /// Always misses (and fills nothing) when disabled.
    #[inline]
    pub fn probe_fill(&mut self, level: PtLevel, asid: Asid, vpn: Vpn) -> bool {
        if !self.enabled {
            return false;
        }
        self.level_pwc(level).probe_fill(asid, vpn)
    }

    /// Drops every level's tags of `asid` (a targeted shootdown),
    /// returning how many were dropped. Statistics survive.
    pub fn flush_asid(&mut self, asid: Asid) -> u64 {
        self.touched_mut().map(|p| p.flush_asid(asid)).sum()
    }

    /// Drops every level's tags entirely (the untagged-walker
    /// context-switch flush), returning how many were dropped.
    /// Statistics survive.
    pub fn flush_all(&mut self) -> u64 {
        self.touched_mut().map(Pwc::flush_all).sum()
    }

    /// Per-level hit/miss statistics, in level order.
    pub fn stats(&self) -> impl Iterator<Item = (PtLevel, &HitMiss)> {
        self.touched().map(|p| (p.level(), p.stats()))
    }

    /// Statistics for one level, if it has been touched.
    #[must_use]
    pub fn level_stats(&self, level: PtLevel) -> Option<&HitMiss> {
        self.pwcs[level.pwc_slot()].as_ref().map(Pwc::stats)
    }

    fn touched(&self) -> impl Iterator<Item = &Pwc> {
        self.pwcs.iter().filter_map(Option::as_ref)
    }

    fn touched_mut(&mut self) -> impl Iterator<Item = &mut Pwc> {
        self.pwcs.iter_mut().filter_map(Option::as_mut)
    }

    /// Clears contents and statistics of all levels.
    pub fn reset(&mut self) {
        for pwc in self.touched_mut() {
            pwc.reset();
        }
    }

    /// Clears statistics of all levels, preserving contents.
    pub fn clear_stats(&mut self) {
        for pwc in self.touched_mut() {
            pwc.clear_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_follow_prefix_widths() {
        let vpn = Vpn::new(0xF_FFFF_FFFF);
        assert_eq!(Pwc::tag_for(PtLevel::L4, vpn), 0xF_FFFF_FFFF >> 27);
        assert_eq!(Pwc::tag_for(PtLevel::L3, vpn), 0xF_FFFF_FFFF >> 18);
        assert_eq!(Pwc::tag_for(PtLevel::L2, vpn), 0xF_FFFF_FFFF >> 9);
        assert_eq!(Pwc::tag_for(PtLevel::L1, vpn), 0xF_FFFF_FFFF);
        assert_eq!(Pwc::tag_for(PtLevel::FlatL2L1, vpn), 0xF_FFFF_FFFF);
    }

    #[test]
    fn miss_fill_hit() {
        let mut pwc = Pwc::new(PtLevel::L4);
        let vpn = Vpn::new(0x123);
        assert!(!pwc.access(Asid::ZERO, vpn));
        pwc.fill(Asid::ZERO, vpn);
        assert!(pwc.access(Asid::ZERO, vpn));
        assert_eq!(pwc.stats().hits, 1);
        assert_eq!(pwc.stats().misses, 1);
    }

    #[test]
    fn l4_pwc_absorbs_all_same_region_vpns() {
        // Two VPNs gigabytes apart share the PL4 tag if within 128 GB.
        let mut pwc = Pwc::new(PtLevel::L4);
        let a = Vpn::new(0);
        let b = Vpn::new((8u64 << 30) >> 12); // 8 GB away
        pwc.fill(Asid::ZERO, a);
        assert!(
            pwc.access(Asid::ZERO, b),
            "same 128 GB region → same PL4 tag"
        );
    }

    #[test]
    fn l1_pwc_thrashes_over_many_pages() {
        let mut pwc = Pwc::new(PtLevel::L1);
        // Stream over far more pages than entries: everything misses.
        for i in 0..1000u64 {
            pwc.access(Asid::ZERO, Vpn::new(i));
            pwc.fill(Asid::ZERO, Vpn::new(i));
        }
        // Re-streaming misses again (LRU evicted old tags).
        let mut hits = 0;
        for i in 0..1000u64 {
            if pwc.access(Asid::ZERO, Vpn::new(i)) {
                hits += 1;
            }
        }
        assert!(hits < 100, "PL1 PWC cannot cover the stream, hits={hits}");
    }

    #[test]
    fn lru_within_capacity_retains_hot_tags() {
        let mut pwc = Pwc::with_capacity(PtLevel::L1, 2);
        let hot = Vpn::new(1);
        pwc.fill(Asid::ZERO, hot);
        pwc.fill(Asid::ZERO, Vpn::new(2));
        pwc.access(Asid::ZERO, hot); // refresh
        pwc.fill(Asid::ZERO, Vpn::new(3)); // evicts vpn 2
        assert!(pwc.access(Asid::ZERO, hot));
        assert!(!pwc.access(Asid::ZERO, Vpn::new(2)));
    }

    #[test]
    fn disabled_set_never_hits() {
        let mut set = PwcSet::disabled();
        set.fill(PtLevel::L4, Asid::ZERO, Vpn::new(1));
        assert!(!set.access(PtLevel::L4, Asid::ZERO, Vpn::new(1)));
        assert_eq!(set.stats().count(), 0);
    }

    #[test]
    fn enabled_set_tracks_per_level() {
        let mut set = PwcSet::enabled();
        let vpn = Vpn::new(0x42);
        assert!(!set.access(PtLevel::L4, Asid::ZERO, vpn));
        set.fill(PtLevel::L4, Asid::ZERO, vpn);
        assert!(set.access(PtLevel::L4, Asid::ZERO, vpn));
        assert!(!set.access(PtLevel::L2, Asid::ZERO, vpn));
        let l4 = set.level_stats(PtLevel::L4).unwrap();
        assert_eq!(l4.hits, 1);
        assert_eq!(l4.misses, 1);
        assert_eq!(set.level_stats(PtLevel::L2).unwrap().misses, 1);
        assert!(set.level_stats(PtLevel::L1).is_none());
    }

    #[test]
    fn reset_clears_levels() {
        let mut set = PwcSet::enabled();
        set.fill(PtLevel::L3, Asid::ZERO, Vpn::new(9));
        set.access(PtLevel::L3, Asid::ZERO, Vpn::new(9));
        set.reset();
        assert_eq!(set.level_stats(PtLevel::L3).unwrap().total(), 0);
        assert!(!set.access(PtLevel::L3, Asid::ZERO, Vpn::new(9)));
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        let _ = Pwc::with_capacity(PtLevel::L4, 0);
    }

    #[test]
    fn hash_ways_are_independent_levels() {
        let mut set = PwcSet::enabled();
        let vpn = Vpn::new(0x99);
        set.fill(PtLevel::HashWay(0), Asid::ZERO, vpn);
        assert!(set.access(PtLevel::HashWay(0), Asid::ZERO, vpn));
        assert!(
            !set.access(PtLevel::HashWay(1), Asid::ZERO, vpn),
            "ways do not alias"
        );
        let levels: Vec<PtLevel> = set.stats().map(|(l, _)| l).collect();
        assert_eq!(levels, vec![PtLevel::HashWay(0), PtLevel::HashWay(1)]);
    }

    #[test]
    fn asids_partition_pwc_tags() {
        let mut pwc = Pwc::new(PtLevel::L2);
        let vpn = Vpn::new(0x42);
        pwc.fill(Asid(1), vpn);
        assert!(pwc.access(Asid(1), vpn));
        assert!(!pwc.access(Asid(2), vpn), "same prefix, foreign ASID");
    }

    #[test]
    fn flush_asid_keeps_other_spaces_and_stats() {
        let mut set = PwcSet::enabled();
        let vpn = Vpn::new(0x9);
        set.fill(PtLevel::L4, Asid(1), vpn);
        set.fill(PtLevel::L4, Asid(2), vpn);
        set.fill(PtLevel::L3, Asid(1), vpn);
        assert!(set.access(PtLevel::L4, Asid(1), vpn));
        let hits_before = set.level_stats(PtLevel::L4).unwrap().hits;
        assert_eq!(set.flush_asid(Asid(1)), 2);
        assert_eq!(
            set.level_stats(PtLevel::L4).unwrap().hits,
            hits_before,
            "shootdowns keep statistics"
        );
        assert!(!set.access(PtLevel::L4, Asid(1), vpn));
        assert!(set.access(PtLevel::L4, Asid(2), vpn));
    }

    #[test]
    fn flush_all_drops_every_tag() {
        let mut set = PwcSet::enabled();
        set.fill(PtLevel::L4, Asid(0), Vpn::new(1));
        set.fill(PtLevel::L3, Asid(5), Vpn::new(2));
        assert_eq!(set.flush_all(), 2);
        assert!(!set.access(PtLevel::L4, Asid(0), Vpn::new(1)));
        assert!(!set.access(PtLevel::L3, Asid(5), Vpn::new(2)));
        assert_eq!(set.flush_all(), 0);
    }

    /// The previous PWC: tags with LRU stamps, the victim found by a
    /// first-minimum scan — the oracle for the recency list.
    struct StampedPwc {
        level: PtLevel,
        tags: Vec<u64>,
        stamps: Vec<u64>,
        capacity: usize,
        tick: u64,
    }

    impl StampedPwc {
        fn touch_or_insert(&mut self, tag: u64, insert: bool) -> bool {
            self.tick += 1;
            if let Some(i) = self.tags.iter().position(|&t| t == tag) {
                self.stamps[i] = self.tick;
                return true;
            }
            if insert {
                if self.tags.len() < self.capacity {
                    self.tags.push(tag);
                    self.stamps.push(self.tick);
                } else {
                    let mut victim = 0usize;
                    let mut oldest = u64::MAX;
                    for (i, &s) in self.stamps.iter().enumerate() {
                        if s < oldest {
                            oldest = s;
                            victim = i;
                        }
                    }
                    self.tags[victim] = tag;
                    self.stamps[victim] = self.tick;
                }
            }
            false
        }

        fn tag(&self, asid: Asid, vpn: Vpn) -> u64 {
            tagged(asid, Pwc::tag_for(self.level, vpn))
        }

        fn flush_asid(&mut self, asid: Asid) -> u64 {
            let before = self.tags.len();
            let keep: Vec<(u64, u64)> = self
                .tags
                .iter()
                .zip(&self.stamps)
                .filter(|(&t, _)| t >> Asid::TAG_SHIFT != u64::from(asid.as_u16()))
                .map(|(&t, &s)| (t, s))
                .collect();
            self.tags = keep.iter().map(|&(t, _)| t).collect();
            self.stamps = keep.iter().map(|&(_, s)| s).collect();
            (before - self.tags.len()) as u64
        }

        fn resident(&self) -> Vec<u64> {
            let mut tags = self.tags.clone();
            tags.sort_unstable();
            tags
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Same hits and same victims (hence the same resident tags) as
        /// the stamped argmin scan, over any mix of probes, fills and
        /// shootdowns on a small cache that evicts constantly.
        #[test]
        fn recency_list_matches_the_stamp_scan(
            capacity in 1usize..9,
            ops in proptest::collection::vec((0u8..12, 0u16..3, 0u64..24), 1..400),
        ) {
            let mut pwc = Pwc::with_capacity(PtLevel::L1, capacity);
            let mut oracle = StampedPwc {
                level: PtLevel::L1,
                tags: Vec::new(),
                stamps: Vec::new(),
                capacity,
                tick: 0,
            };
            for &(op, asid_raw, vpn_raw) in &ops {
                let (asid, vpn) = (Asid(asid_raw), Vpn::new(vpn_raw));
                let tag = oracle.tag(asid, vpn);
                match op {
                    0..=4 => {
                        let hit = pwc.probe_fill(asid, vpn);
                        let expect = oracle.touch_or_insert(tag, false);
                        if !expect {
                            oracle.touch_or_insert(tag, true);
                        }
                        proptest::prop_assert_eq!(hit, expect);
                    }
                    5..=7 => {
                        pwc.fill(asid, vpn);
                        oracle.touch_or_insert(tag, true);
                    }
                    8..=9 => {
                        let hit = pwc.access(asid, vpn);
                        proptest::prop_assert_eq!(hit, oracle.touch_or_insert(tag, false));
                    }
                    10 => proptest::prop_assert_eq!(pwc.flush_asid(asid), oracle.flush_asid(asid)),
                    _ => {
                        proptest::prop_assert_eq!(pwc.flush_all(), oracle.tags.len() as u64);
                        oracle.tags.clear();
                        oracle.stamps.clear();
                    }
                }
                let mut resident = pwc.tags.clone();
                resident.sort_unstable();
                proptest::prop_assert_eq!(resident, oracle.resident());
            }
        }
    }

    #[test]
    fn stats_iterate_in_level_order() {
        let mut set = PwcSet::enabled();
        let vpn = Vpn::new(0x5);
        // Touch out of order; iteration must still be level-ordered.
        set.fill(PtLevel::FlatL2L1, Asid::ZERO, vpn);
        set.fill(PtLevel::L2, Asid::ZERO, vpn);
        set.fill(PtLevel::L4, Asid::ZERO, vpn);
        let levels: Vec<PtLevel> = set.stats().map(|(l, _)| l).collect();
        assert_eq!(levels, vec![PtLevel::L4, PtLevel::L2, PtLevel::FlatL2L1]);
    }
}
