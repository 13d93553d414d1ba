//! Multi-level cache assembly: NDP (L1 only) vs CPU (L1+L2+L3).
//!
//! The hierarchy resolves lookups top-down and reports either the hit level
//! (with the accumulated lookup latency) or a full miss. Each level that
//! missed keeps the [`Slot`] its lookup picked. The caller then puts the
//! tag check through [`CacheHierarchy::mshr_step`] (when misses overlap),
//! fetches the line from below, and installs it level by level with
//! [`CacheHierarchy::install`], routing each victim as it appears;
//! [`CacheHierarchy::resolve`] does the lookup and the installs in one
//! call when nothing happens in between.

use crate::mshr::{MshrFile, MshrLookup, MshrStats, MshrStep};
use crate::set_assoc::{Access, CacheConfig, CacheStats, SetAssocCache, Slot, Victim};
use ndp_types::{Asid, LineAddr};

/// Result of a back-invalidation sweep across the private levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BackInvalidate {
    /// Whether any private level held the line.
    pub present: bool,
    /// Whether any evicted private copy was dirty (its data must still
    /// reach memory or the shared level).
    pub dirty: bool,
}
use ndp_types::{AccessClass, Cycles, PhysAddr, RwKind};

/// Outcome of a hierarchy lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// Hit at `level` (0 = L1); `latency` includes every level probed.
    Hit {
        /// Index of the hitting level (0 = L1).
        level: usize,
        /// Accumulated probe latency up to and including the hit.
        latency: Cycles,
    },
    /// Missed every level; `lookup_latency` is the cost of probing them all.
    MissAll {
        /// Accumulated probe latency of all levels.
        lookup_latency: Cycles,
    },
}

impl LookupResult {
    /// Whether any level hit.
    #[must_use]
    pub fn is_hit(self) -> bool {
        matches!(self, LookupResult::Hit { .. })
    }
}

/// An inclusive-enough multi-level cache (fills install in every level,
/// evictions are independent — adequate for miss-rate and latency studies;
/// the paper's bypass concern about inclusion does not arise in NDP's
/// single-level hierarchy, §V-A).
///
/// The hierarchy additionally owns the core's [`MshrFile`]: misses that
/// reach memory register their in-flight fill here so overlapped misses
/// to the same line coalesce ([`CacheHierarchy::mshr_step`]) and a full
/// file backpressures further misses. The default single register
/// reproduces a blocking cache exactly; [`CacheHierarchy::with_mshrs`]
/// widens it.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    levels: Vec<Level>,
    mshrs: MshrFile,
}

/// One private level and the slot its last lookup miss picked.
#[derive(Debug, Clone)]
struct Level {
    cache: SetAssocCache,
    slot: Slot,
}

impl CacheHierarchy {
    /// Builds a hierarchy from level configurations, outermost last, with
    /// a single (blocking-equivalent) MSHR.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty or any geometry is invalid.
    #[must_use]
    pub fn new(configs: Vec<CacheConfig>) -> Self {
        assert!(!configs.is_empty(), "hierarchy needs at least one level");
        CacheHierarchy {
            levels: configs
                .into_iter()
                .map(|config| Level {
                    cache: SetAssocCache::new(config),
                    slot: Slot::default(),
                })
                .collect(),
            mshrs: MshrFile::new(1),
        }
    }

    /// Replaces the MSHR file with one of `registers` entries (the
    /// `mshrs_per_core` knob).
    ///
    /// # Panics
    ///
    /// Panics if `registers` is zero.
    #[must_use]
    pub fn with_mshrs(mut self, registers: usize) -> Self {
        self.mshrs = MshrFile::new(registers);
        self
    }

    /// The NDP per-core hierarchy from Table I: a single 32 KB L1.
    #[must_use]
    pub fn ndp() -> Self {
        CacheHierarchy::new(vec![CacheConfig::l1d()])
    }

    /// The CPU per-core hierarchy from Table I: L1 + L2 + (shared) L3.
    ///
    /// The L3 is sized `2 MB × cores`; in this per-core model each core gets
    /// a private slice of the same total capacity, a standard simplification.
    #[must_use]
    pub fn cpu(cores: u32) -> Self {
        CacheHierarchy::new(vec![
            CacheConfig::l1d(),
            CacheConfig::l2(),
            CacheConfig::l3(cores),
        ])
    }

    /// Number of levels.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Statistics of one level.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    #[must_use]
    pub fn level_stats(&self, level: usize) -> &CacheStats {
        self.levels[level].cache.stats()
    }

    /// Checks residency in any level without perturbing state or
    /// statistics (invariant checks; the timing path uses
    /// [`CacheHierarchy::lookup`]).
    #[must_use]
    pub fn probe(&self, addr: PhysAddr) -> bool {
        self.levels.iter().any(|level| level.cache.probe(addr))
    }

    /// Probes levels in order until a hit; records per-level hit/miss
    /// stats. Every level that misses keeps the slot its scan picked for
    /// [`CacheHierarchy::install`].
    pub fn lookup(&mut self, addr: PhysAddr, rw: RwKind, class: AccessClass) -> LookupResult {
        let mut latency = Cycles::ZERO;
        for (idx, level) in self.levels.iter_mut().enumerate() {
            latency += level.cache.config().latency;
            match level.cache.access(addr, rw, class) {
                Access::Hit => {
                    return LookupResult::Hit {
                        level: idx,
                        latency,
                    }
                }
                Access::Miss(slot) => level.slot = slot,
            }
        }
        LookupResult::MissAll {
            lookup_latency: latency,
        }
    }

    /// Looks `addr` up and, on a full miss, installs it in every level at
    /// once, handing each victim (clean ones included) to `victim` with
    /// the level that evicted it, in level order. For callers with
    /// nothing to do between the lookup and the fill.
    pub fn resolve(
        &mut self,
        addr: PhysAddr,
        rw: RwKind,
        class: AccessClass,
        mut victim: impl FnMut(usize, Victim),
    ) -> LookupResult {
        let look = self.lookup(addr, rw, class);
        if !look.is_hit() {
            for level in 0..self.levels.len() {
                if let Some(v) = self.install(level, addr, class, rw.is_write()) {
                    victim(level, v);
                }
            }
        }
        look
    }

    /// Probes the MSHR file for a miss on `addr`'s line observed at `now`
    /// (after the lookup latency). `Coalesced` misses piggyback on an
    /// in-flight fill; `Free`/`Full` callers fetch from memory (waiting
    /// out a `Full` first) and then call [`CacheHierarchy::register_fill`].
    pub fn probe_mshrs(&mut self, addr: PhysAddr, now: Cycles) -> MshrLookup {
        self.mshrs.probe(LineAddr::of(addr), now)
    }

    /// Registers a primary-miss fill for `addr`'s line, sent to memory at
    /// `sent` and completing at `done`.
    pub fn register_fill(&mut self, addr: PhysAddr, sent: Cycles, done: Cycles) {
        self.mshrs.allocate(LineAddr::of(addr), sent, done);
    }

    /// Puts a tag check of `addr` that finished at `now` through the MSHR
    /// file ([`MshrFile::step`]): the data is ready, or a fetch leaves for
    /// the level below (then call [`CacheHierarchy::register_fill`]).
    pub fn mshr_step(&mut self, addr: PhysAddr, hit: bool, now: Cycles) -> MshrStep {
        self.mshrs.step(LineAddr::of(addr), hit, now)
    }

    /// Statistics of the MSHR file.
    #[must_use]
    pub fn mshr_stats(&self) -> &MshrStats {
        self.mshrs.stats()
    }

    /// Installs `addr`'s line in `level` after a full miss of
    /// [`CacheHierarchy::lookup`], into the slot that lookup picked (a
    /// plain fill if the level changed since, e.g. a back-invalidation),
    /// and reports the line it evicted, clean or dirty. Victims of the
    /// outermost level leave the private hierarchy (an exclusive shared
    /// level is filled by exactly those); inner-level victims are still
    /// resident further out.
    pub fn install(
        &mut self,
        level: usize,
        addr: PhysAddr,
        class: AccessClass,
        dirty: bool,
    ) -> Option<Victim> {
        let Level { cache, slot } = &mut self.levels[level];
        cache.install(*slot, addr, class, Asid::ZERO, dirty)
    }

    /// Installs a line in every level without a lookup, dropping the
    /// victims (warm-up and tests; a simulated miss installs through
    /// [`CacheHierarchy::install`] or [`CacheHierarchy::resolve`], which
    /// report them).
    pub fn fill(&mut self, addr: PhysAddr, class: AccessClass, dirty: bool) {
        for level in &mut self.levels {
            level.cache.fill(addr, class, Asid::ZERO, dirty);
        }
    }

    /// Invalidates a line in every private level on behalf of an
    /// inclusive shared cache that just evicted it, reporting whether any
    /// level held the line and whether any held copy was dirty.
    pub fn back_invalidate(&mut self, addr: PhysAddr) -> BackInvalidate {
        let mut result = BackInvalidate::default();
        for level in &mut self.levels {
            if let Some(dirty) = level.cache.invalidate(addr) {
                result.present = true;
                result.dirty |= dirty;
            }
        }
        result
    }

    /// Clears contents and statistics of every level, and the MSHR file.
    pub fn reset(&mut self) {
        for level in &mut self.levels {
            level.cache.reset();
        }
        self.mshrs.reset();
    }

    /// Clears statistics of every level (and the MSHR file), preserving
    /// contents and in-flight fills.
    pub fn clear_stats(&mut self) {
        for level in &mut self.levels {
            level.cache.clear_stats();
        }
        self.mshrs.clear_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ndp_has_one_level_cpu_has_three() {
        assert_eq!(CacheHierarchy::ndp().depth(), 1);
        assert_eq!(CacheHierarchy::cpu(4).depth(), 3);
    }

    #[test]
    fn miss_fill_hit_cycle() {
        let mut h = CacheHierarchy::ndp();
        let a = PhysAddr::new(0x2000);
        let miss = h.lookup(a, RwKind::Read, AccessClass::Data);
        assert_eq!(
            miss,
            LookupResult::MissAll {
                lookup_latency: Cycles::new(4)
            }
        );
        h.fill(a, AccessClass::Data, false);
        let hit = h.lookup(a, RwKind::Read, AccessClass::Data);
        assert_eq!(
            hit,
            LookupResult::Hit {
                level: 0,
                latency: Cycles::new(4)
            }
        );
    }

    #[test]
    fn cpu_miss_probes_all_levels() {
        let mut h = CacheHierarchy::cpu(1);
        let r = h.lookup(PhysAddr::new(0), RwKind::Read, AccessClass::Data);
        assert_eq!(
            r,
            LookupResult::MissAll {
                lookup_latency: Cycles::new(4 + 16 + 35)
            }
        );
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = CacheHierarchy::cpu(1);
        let a = PhysAddr::new(0);
        h.fill(a, AccessClass::Data, false);
        // Evict `a` from L1 by filling its whole L1 set (8 ways), with
        // addresses that land in different L2/L3 sets.
        for i in 1..=8u64 {
            h.fill(PhysAddr::new(i * 64 * 64), AccessClass::Data, false);
        }
        let r = h.lookup(a, RwKind::Read, AccessClass::Data);
        match r {
            LookupResult::Hit { level, .. } => assert_eq!(level, 1),
            LookupResult::MissAll { .. } => panic!("expected an L2 hit"),
        }
    }

    #[test]
    fn fill_tags_victims_with_their_level() {
        // One 64-set, 8-way level. Fill one set to capacity, then once
        // more: the ninth miss evicts the LRU line and resolve streams it.
        let mut h = CacheHierarchy::ndp();
        for i in 0..=8u64 {
            let mut victims = Vec::new();
            let rw = if i == 0 { RwKind::Write } else { RwKind::Read };
            h.resolve(PhysAddr::new(i * 64 * 64), rw, AccessClass::Data, |l, v| {
                victims.push((l, v));
            });
            if i < 8 {
                assert!(victims.is_empty(), "set not yet full at fill {i}");
            } else {
                // Only the first line was stored to, so only it is dirty.
                assert_eq!(victims.len(), 1);
                let (level, victim) = victims[0];
                assert_eq!(level, 0);
                assert_eq!(victim.addr, PhysAddr::new(0));
                assert!(victim.dirty);
            }
        }
        // Three levels: a miss that evicts from each streams the victims
        // in level order. Lines 64 sets apart share an L1 set; 512 sets
        // apart, an L2 set too; 8192 sets apart, the L3 set as well.
        let mut h = CacheHierarchy::cpu(4);
        let stride = 8192 * 64;
        for i in 0..16u64 {
            h.resolve(
                PhysAddr::new(i * stride),
                RwKind::Read,
                AccessClass::Data,
                |_, _| {},
            );
        }
        let mut victims = Vec::new();
        let look = h.resolve(
            PhysAddr::new(16 * stride),
            RwKind::Read,
            AccessClass::Data,
            |l, v| victims.push((l, v.addr)),
        );
        assert!(!look.is_hit());
        let levels: Vec<_> = victims.iter().map(|&(l, _)| l).collect();
        assert_eq!(levels, [0, 1, 2], "one victim per level, in level order");
        // L1 (8 ways) evicted the ninth-newest line, L2 and L3 (16 ways)
        // the oldest.
        assert_eq!(victims[0].1, PhysAddr::new(8 * stride));
        assert_eq!(victims[1].1, PhysAddr::new(0));
        assert_eq!(victims[2].1, PhysAddr::new(0));
    }

    #[test]
    fn install_falls_back_to_a_fill_after_a_back_invalidation() {
        let mut h = CacheHierarchy::ndp();
        let a = PhysAddr::new(0);
        for i in 0..8u64 {
            h.fill(PhysAddr::new((i + 1) * 64 * 64), AccessClass::Data, false);
        }
        // The lookup's slot is the oldest line; a back-invalidation of
        // another line of the set frees a way, which the install takes.
        assert!(!h.lookup(a, RwKind::Read, AccessClass::Data).is_hit());
        let freed = PhysAddr::new(5 * 64 * 64);
        assert!(h.back_invalidate(freed).present);
        assert_eq!(h.install(0, a, AccessClass::Data, false), None);
        assert!(h.probe(a) && h.probe(PhysAddr::new(64 * 64)));
    }

    #[test]
    fn back_invalidate_reports_presence_and_dirtiness() {
        let mut h = CacheHierarchy::cpu(1);
        let a = PhysAddr::new(0x140);
        assert_eq!(h.back_invalidate(a), BackInvalidate::default());
        h.fill(a, AccessClass::Data, true);
        let bi = h.back_invalidate(a);
        assert!(bi.present && bi.dirty);
        assert!(!h.lookup(a, RwKind::Read, AccessClass::Data).is_hit());
        // Re-fetched clean: present but clean on the next sweep.
        h.fill(a, AccessClass::Data, false);
        let bi = h.back_invalidate(a);
        assert!(bi.present && !bi.dirty);
    }

    #[test]
    fn reset_clears_all_levels() {
        let mut h = CacheHierarchy::cpu(1);
        h.fill(PhysAddr::new(0), AccessClass::Data, false);
        h.lookup(PhysAddr::new(0), RwKind::Read, AccessClass::Data);
        h.reset();
        assert_eq!(h.level_stats(0).total().total(), 0);
        assert!(!h
            .lookup(PhysAddr::new(0), RwKind::Read, AccessClass::Data)
            .is_hit());
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn empty_hierarchy_rejected() {
        let _ = CacheHierarchy::new(vec![]);
    }
}
