//! The hardware page-table walker.
//!
//! Given a [`WalkPath`] from a page-table design, the walker consults the
//! per-level PWCs and produces a [`WalkPlan`]: the rounds of PTE fetches
//! that must actually reach the memory system (steps whose PWC hit are
//! skipped). The simulator executes the plan against the cache/DRAM timing
//! model; keeping the walker free of timing concerns lets the same logic
//! serve every mechanism and every system configuration.

use crate::pwc::PwcSet;
use ndp_types::{Asid, Cycles, InlineVec, PhysAddr, PtLevel, Vpn};
use ndpage::walk::WalkPath;

/// Most hardware walkers a core can be configured with.
pub const MAX_WALKERS: usize = 8;

/// One PTE fetch of a walk plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PteFetch {
    /// Physical address of the PTE.
    pub addr: PhysAddr,
    /// Page-table level being read.
    pub level: PtLevel,
}

impl Default for PteFetch {
    fn default() -> Self {
        PteFetch {
            addr: PhysAddr::new(0),
            level: PtLevel::L4,
        }
    }
}

/// One parallel round of PTE fetches (at most the hash-way bound wide).
pub type WalkRound = InlineVec<PteFetch, { PtLevel::MAX_HASH_WAYS }>;

/// Most sequential rounds any walk needs (a full 4-level radix walk).
pub const MAX_WALK_ROUNDS: usize = 4;

/// The memory work of one page-table walk, as parallel rounds to issue in
/// order. Rounds whose every step PWC-hit are absent entirely.
///
/// Plans are built and discarded once per TLB miss, so rounds are stored
/// inline ([`InlineVec`]) — the seed's nested `Vec`s cost several heap
/// round-trips on that path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalkPlan {
    /// Sequential rounds; fetches within a round overlap.
    pub rounds: InlineVec<WalkRound, MAX_WALK_ROUNDS>,
    /// Steps skipped thanks to PWC hits.
    pub pwc_skips: u32,
}

impl WalkPlan {
    /// Total PTE fetches that reach the memory system.
    #[must_use]
    pub fn memory_fetches(&self) -> usize {
        self.rounds.iter().map(|round| round.len()).sum()
    }

    /// Number of dependent (serialised) memory rounds.
    #[must_use]
    pub fn sequential_rounds(&self) -> usize {
        self.rounds.len()
    }
}

/// Statistics of the walker itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalkerStats {
    /// Walks planned.
    pub walks: u64,
    /// PTE fetches sent to memory.
    pub fetches: u64,
    /// PTE fetches avoided by PWC hits.
    pub pwc_skips: u64,
    /// Walks that found every hardware walker busy and had to queue.
    pub queued_walks: u64,
    /// Total cycles walks spent waiting for a free hardware walker.
    pub queue_cycles: u64,
}

/// Plans page-table walks through the PWC bank, and tracks the occupancy
/// of the core's hardware walkers.
///
/// A core has a small fixed number of walker state machines; when more
/// TLB misses are outstanding than walkers, the excess walks *queue*.
/// This is the structural asymmetry the non-blocking pipeline exposes:
/// overlapped data misses each get an MSHR, but overlapped radix walks
/// serialise behind the walker file — four dependent fetches at a time —
/// while NDPage's flattened single-fetch walks turn walkers around fast.
#[derive(Debug, Clone)]
pub struct PageTableWalker {
    pwcs: PwcSet,
    /// Per-walker busy-until timestamps (length = configured walkers).
    walker_free_at: InlineVec<Cycles, MAX_WALKERS>,
    stats: WalkerStats,
}

impl PageTableWalker {
    /// Hardware walkers per core when not overridden: one, as fits the
    /// simple in-order cores this simulator models (x86-class OoO cores
    /// ship two; see [`PageTableWalker::with_walkers`]).
    pub const DEFAULT_WALKERS: usize = 1;

    fn slots(n: usize) -> InlineVec<Cycles, MAX_WALKERS> {
        assert!(
            (1..=MAX_WALKERS).contains(&n),
            "walker count must be in 1..={MAX_WALKERS}"
        );
        (0..n).map(|_| Cycles::ZERO).collect()
    }

    /// A walker with PWCs enabled (Radix, Huge Page, NDPage).
    #[must_use]
    pub fn with_pwcs() -> Self {
        PageTableWalker {
            pwcs: PwcSet::enabled(),
            walker_free_at: Self::slots(Self::DEFAULT_WALKERS),
            stats: WalkerStats::default(),
        }
    }

    /// A walker whose PWCs hold `capacity` entries per level (PWC-size
    /// sweep experiments).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_pwc_capacity(capacity: usize) -> Self {
        PageTableWalker {
            pwcs: PwcSet::enabled_with_capacity(capacity),
            walker_free_at: Self::slots(Self::DEFAULT_WALKERS),
            stats: WalkerStats::default(),
        }
    }

    /// A walker without PWCs (ECH; PWC-off ablation).
    #[must_use]
    pub fn without_pwcs() -> Self {
        PageTableWalker {
            pwcs: PwcSet::disabled(),
            walker_free_at: Self::slots(Self::DEFAULT_WALKERS),
            stats: WalkerStats::default(),
        }
    }

    /// Overrides the number of hardware walkers (the `walkers_per_core`
    /// knob).
    ///
    /// # Panics
    ///
    /// Panics if `walkers` is zero or exceeds [`MAX_WALKERS`].
    #[must_use]
    pub fn with_walkers(mut self, walkers: usize) -> Self {
        self.walker_free_at = Self::slots(walkers);
        self
    }

    /// Number of hardware walkers.
    #[must_use]
    pub fn walkers(&self) -> usize {
        self.walker_free_at.len()
    }

    /// Admits a walk that wants to start at `now`: picks the
    /// earliest-free hardware walker and returns `(slot, start)` where
    /// `start = max(now, that walker's free time)`. Queueing (a start
    /// later than `now`) is recorded in [`WalkerStats`]. The caller runs
    /// the walk and must hand the slot back via
    /// [`PageTableWalker::release`].
    pub fn admit(&mut self, now: Cycles) -> (usize, Cycles) {
        let (slot, free_at) = self
            .walker_free_at
            .iter()
            .enumerate()
            .min_by_key(|&(_, free)| *free)
            .map(|(i, free)| (i, *free))
            .expect("at least one walker");
        let start = now.max(free_at);
        if start > now {
            self.stats.queued_walks += 1;
            self.stats.queue_cycles += (start - now).as_u64();
        }
        (slot, start)
    }

    /// Marks `slot` (from [`PageTableWalker::admit`]) busy until `done`.
    pub fn release(&mut self, slot: usize, done: Cycles) {
        self.walker_free_at.as_mut_slice()[slot] = done;
    }

    /// The PWC bank (for statistics reporting).
    #[must_use]
    pub fn pwcs(&self) -> &PwcSet {
        &self.pwcs
    }

    /// Walker statistics.
    #[must_use]
    pub fn stats(&self) -> &WalkerStats {
        &self.stats
    }

    /// Probes PWCs for every step of `path` in address space `asid` and
    /// returns the fetches that must go to memory. Fetched levels are
    /// filled into their PWCs (hardware installs translations on the way
    /// back up).
    pub fn plan(&mut self, asid: Asid, vpn: Vpn, path: &WalkPath) -> WalkPlan {
        self.stats.walks += 1;
        let mut plan = WalkPlan::default();
        for group in path.groups() {
            let mut round = WalkRound::new();
            for step in group {
                if self.pwcs.probe_fill(step.level, asid, vpn) {
                    plan.pwc_skips += 1;
                    self.stats.pwc_skips += 1;
                } else {
                    round.push(PteFetch {
                        addr: step.addr,
                        level: step.level,
                    });
                    self.stats.fetches += 1;
                }
            }
            if !round.is_empty() {
                plan.rounds.push(round);
            }
        }
        plan
    }

    /// Drops PWC state of `asid` (a targeted shootdown), returning how
    /// many tags were dropped. Statistics survive.
    pub fn flush_asid(&mut self, asid: Asid) -> u64 {
        self.pwcs.flush_asid(asid)
    }

    /// Drops all PWC state (the untagged-walker context-switch flush),
    /// returning how many tags were dropped. Statistics survive.
    pub fn flush_all(&mut self) -> u64 {
        self.pwcs.flush_all()
    }

    /// Clears PWC contents, walker occupancy and statistics.
    pub fn reset(&mut self) {
        self.pwcs.reset();
        for free in self.walker_free_at.as_mut_slice() {
            *free = Cycles::ZERO;
        }
        self.stats = WalkerStats::default();
    }

    /// Clears statistics (walker + PWC) while keeping PWC contents warm.
    pub fn clear_stats(&mut self) {
        self.pwcs.clear_stats();
        self.stats = WalkerStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_types::Asid;
    use ndpage::alloc::FrameAllocator;
    use ndpage::table::PageTable;
    use ndpage::tree::{Tree, NDPAGE, RADIX};

    fn radix_fixture() -> (FrameAllocator, Tree, Vpn) {
        let mut alloc = FrameAllocator::new(1 << 30);
        let mut t = Tree::new(&RADIX, &mut alloc);
        let vpn = Vpn::new(0x1_2345);
        t.map(vpn, &mut alloc);
        (alloc, t, vpn)
    }

    #[test]
    fn cold_walk_fetches_everything() {
        let (_, t, vpn) = radix_fixture();
        let mut w = PageTableWalker::with_pwcs();
        let plan = w.plan(Asid::ZERO, vpn, &t.walk_path(vpn).unwrap());
        assert_eq!(plan.memory_fetches(), 4);
        assert_eq!(plan.sequential_rounds(), 4);
        assert_eq!(plan.pwc_skips, 0);
    }

    #[test]
    fn warm_walk_skips_everything() {
        let (_, t, vpn) = radix_fixture();
        let mut w = PageTableWalker::with_pwcs();
        let path = t.walk_path(vpn).unwrap();
        w.plan(Asid::ZERO, vpn, &path);
        let plan = w.plan(Asid::ZERO, vpn, &path);
        assert_eq!(plan.memory_fetches(), 0);
        assert_eq!(plan.pwc_skips, 4);
        assert_eq!(plan.sequential_rounds(), 0);
    }

    #[test]
    fn upper_levels_stay_warm_across_pages() {
        let mut alloc = FrameAllocator::new(1 << 30);
        let mut t = Tree::new(&RADIX, &mut alloc);
        let mut w = PageTableWalker::with_pwcs();
        // Touch many pages within the same 1 GB region: PL4/PL3 warm,
        // PL2/PL1 churn.
        let mut vpns = Vec::new();
        for i in 0..500u64 {
            let vpn = Vpn::new(i * 613); // spread over many 2 MB regions
            t.map(vpn, &mut alloc);
            vpns.push(vpn);
        }
        for &vpn in &vpns {
            w.plan(Asid::ZERO, vpn, &t.walk_path(vpn).unwrap());
        }
        let l4 = w.pwcs().level_stats(PtLevel::L4).unwrap();
        let l1 = w.pwcs().level_stats(PtLevel::L1).unwrap();
        assert!(l4.hit_rate() > 0.95, "PL4 ≈ 100%: {}", l4.hit_rate());
        assert!(l1.hit_rate() < 0.3, "PL1 low: {}", l1.hit_rate());
    }

    #[test]
    fn disabled_pwcs_never_skip() {
        let (_, t, vpn) = radix_fixture();
        let mut w = PageTableWalker::without_pwcs();
        let path = t.walk_path(vpn).unwrap();
        w.plan(Asid::ZERO, vpn, &path);
        let plan = w.plan(Asid::ZERO, vpn, &path);
        assert_eq!(plan.memory_fetches(), 4);
        assert_eq!(w.stats().fetches, 8);
        assert_eq!(w.stats().pwc_skips, 0);
    }

    #[test]
    fn flattened_walk_costs_one_fetch_when_upper_levels_hit() {
        let mut alloc = FrameAllocator::new(1 << 30);
        let mut t = Tree::new(&NDPAGE, &mut alloc);
        let mut w = PageTableWalker::with_pwcs();
        let a = Vpn::new(100);
        let b = Vpn::new(200_000); // same 1 GB region → same L4/L3 tags
        t.map(a, &mut alloc);
        t.map(b, &mut alloc);
        w.plan(Asid::ZERO, a, &t.walk_path(a).unwrap());
        let plan = w.plan(Asid::ZERO, b, &t.walk_path(b).unwrap());
        assert_eq!(
            plan.memory_fetches(),
            1,
            "PL4+PL3 PWC hits leave only the flat fetch"
        );
        assert_eq!(plan.rounds[0][0].level, PtLevel::FlatL2L1);
    }

    #[test]
    fn walker_occupancy_queues_when_all_busy() {
        let mut w = PageTableWalker::with_pwcs().with_walkers(2);
        assert_eq!(w.walkers(), 2);
        // Two walks admitted at t=0 start immediately on distinct slots.
        let (s0, t0) = w.admit(Cycles::ZERO);
        w.release(s0, Cycles::new(400));
        let (s1, t1) = w.admit(Cycles::ZERO);
        w.release(s1, Cycles::new(500));
        assert_eq!((t0, t1), (Cycles::ZERO, Cycles::ZERO));
        assert_ne!(s0, s1);
        assert_eq!(w.stats().queued_walks, 0);
        // A third concurrent walk queues behind the earliest-free walker.
        let (s2, t2) = w.admit(Cycles::new(100));
        assert_eq!(t2, Cycles::new(400), "waits for slot {s0}");
        assert_eq!(s2, s0);
        assert_eq!(w.stats().queued_walks, 1);
        assert_eq!(w.stats().queue_cycles, 300);
    }

    #[test]
    fn walker_admit_is_free_once_prior_walk_finished() {
        // The blocking engine's pattern: each walk fully completes before
        // the next is admitted, so occupancy never queues and never
        // perturbs timing.
        let mut w = PageTableWalker::with_pwcs().with_walkers(1);
        let (s, t) = w.admit(Cycles::new(10));
        assert_eq!(t, Cycles::new(10));
        w.release(s, Cycles::new(200));
        let (_, t) = w.admit(Cycles::new(200));
        assert_eq!(t, Cycles::new(200), "boundary admit does not queue");
        assert_eq!(w.stats().queued_walks, 0);
        assert_eq!(w.stats().queue_cycles, 0);
    }

    #[test]
    #[should_panic(expected = "walker count")]
    fn zero_walkers_rejected() {
        let _ = PageTableWalker::with_pwcs().with_walkers(0);
    }

    #[test]
    fn reset_clears_pwc_state() {
        let (_, t, vpn) = radix_fixture();
        let mut w = PageTableWalker::with_pwcs();
        let path = t.walk_path(vpn).unwrap();
        w.plan(Asid::ZERO, vpn, &path);
        w.reset();
        let plan = w.plan(Asid::ZERO, vpn, &path);
        assert_eq!(plan.memory_fetches(), 4, "PWCs cold again");
        assert_eq!(w.stats().walks, 1);
    }
}
