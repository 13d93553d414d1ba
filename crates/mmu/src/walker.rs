//! The hardware page-table walker.
//!
//! Given a [`WalkPath`] from a page-table design, the walker consults the
//! per-level PWCs and plans the rounds of PTE fetches that must actually
//! reach the memory system (steps whose PWC hit are skipped). The
//! simulator executes the plan against the cache/DRAM timing model;
//! keeping the walker free of timing concerns lets the same logic serve
//! every mechanism and every system configuration.
//!
//! The walker is two halves: a [`WalkPlanner`] (the PWC bank and the plan,
//! purely functional) and [`WalkerSlots`] (the hardware walkers' busy
//! times, purely timing). [`PageTableWalker`] bundles both; a simulator
//! that runs translation ahead of timing owns them on different threads.

use crate::pwc::PwcSet;
use ndp_types::{Asid, Cycles, InlineVec, PhysAddr, Vpn};
use ndpage::walk::{WalkPath, MAX_WALK_STEPS};

/// Most hardware walkers a core can be configured with.
pub const MAX_WALKERS: usize = 8;

/// Most sequential rounds any walk needs (a full 4-level radix walk).
pub const MAX_WALK_ROUNDS: usize = 4;

/// The PTE fetches per dependent memory round of one planned walk, in
/// issue order; rounds whose every step PWC-hit are absent. The fetch
/// addresses go to the caller ([`WalkPlanner::plan_into`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalkRounds {
    len: u8,
    fetches: [u8; MAX_WALK_ROUNDS],
}

impl WalkRounds {
    /// PTE fetches per round (overlapping within a round).
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.fetches[..usize::from(self.len)]
    }
}

/// One planned walk with its fetch addresses inline
/// ([`PageTableWalker::plan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalkPlan {
    /// Addresses of the PTE fetches that reach memory, in issue order.
    pub fetches: InlineVec<PhysAddr, MAX_WALK_STEPS>,
    /// How those fetches split into dependent rounds.
    pub rounds: WalkRounds,
    /// Steps skipped thanks to PWC hits.
    pub pwc_skips: u32,
}

impl WalkPlan {
    /// Total PTE fetches that reach the memory system.
    #[must_use]
    pub fn memory_fetches(&self) -> usize {
        self.fetches.len()
    }

    /// Number of dependent (serialised) memory rounds.
    #[must_use]
    pub fn sequential_rounds(&self) -> usize {
        self.rounds.as_slice().len()
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

/// The functional half of the walker: plans page-table walks through the
/// PWC bank. Planning depends only on the walk paths and the PWC contents,
/// never on timing, so a simulator can run it ahead of its timing model.
#[derive(Debug, Clone)]
pub struct WalkPlanner {
    pwcs: PwcSet,
    /// Walks, fetches and PWC skips (the queueing fields stay zero).
    stats: WalkerStats,
}

impl WalkPlanner {
    /// The PWC bank (for statistics reporting).
    #[must_use]
    pub fn pwcs(&self) -> &PwcSet {
        &self.pwcs
    }

    /// Probes PWCs for every step of `path` in address space `asid`,
    /// hands the address of each fetch that must go to memory to `fetch`
    /// in issue order (the simulator appends them to its record buffer)
    /// and returns their per-round counts. Fetched levels are filled into
    /// their PWCs (hardware installs translations on the way back up).
    ///
    /// A missed step opens a round when its group differs from the last
    /// missed step's (groups ascend), so a group whose steps all hit
    /// leaves no round.
    #[inline]
    pub fn plan_into(
        &mut self,
        asid: Asid,
        vpn: Vpn,
        path: &WalkPath,
        mut fetch: impl FnMut(PhysAddr),
    ) -> WalkRounds {
        self.stats.walks += 1;
        let mut rounds = WalkRounds::default();
        let mut open = None;
        for step in path.steps() {
            if self.pwcs.probe_fill(step.level, asid, vpn) {
                self.stats.pwc_skips += 1;
                continue;
            }
            fetch(step.addr);
            self.stats.fetches += 1;
            if open != Some(step.group) {
                open = Some(step.group);
                rounds.len += 1;
            }
            rounds.fetches[usize::from(rounds.len) - 1] += 1;
        }
        rounds
    }

    /// Drops all PWC state (the untagged-walker context-switch flush),
    /// returning how many tags were dropped. Statistics survive.
    pub fn flush_all(&mut self) -> u64 {
        self.pwcs.flush_all()
    }

    /// Clears PWC contents and statistics.
    pub fn reset(&mut self) {
        self.pwcs.reset();
        self.stats = WalkerStats::default();
    }

    /// Clears statistics (planning + PWC) while keeping PWC contents warm.
    pub fn clear_stats(&mut self) {
        self.pwcs.clear_stats();
        self.stats = WalkerStats::default();
    }
}

/// The timing half of the walker: the occupancy of the core's hardware
/// walkers.
///
/// A core has a small fixed number of walker state machines; when more
/// TLB misses are outstanding than walkers, the excess walks *queue*.
/// This is the structural asymmetry the non-blocking pipeline exposes:
/// overlapped data misses each get an MSHR, but overlapped radix walks
/// serialise behind the walker file — four dependent fetches at a time —
/// while NDPage's flattened single-fetch walks turn walkers around fast.
#[derive(Debug, Clone)]
pub struct WalkerSlots {
    /// Per-walker busy-until timestamps (length = configured walkers).
    free_at: InlineVec<Cycles, MAX_WALKERS>,
    /// Queueing statistics (the planning fields stay zero).
    stats: WalkerStats,
}

impl WalkerSlots {
    /// `walkers` idle hardware walkers.
    ///
    /// # Panics
    ///
    /// Panics if `walkers` is zero or exceeds [`MAX_WALKERS`].
    #[must_use]
    pub fn new(walkers: usize) -> Self {
        assert!(
            (1..=MAX_WALKERS).contains(&walkers),
            "walker count must be in 1..={MAX_WALKERS}"
        );
        WalkerSlots {
            free_at: (0..walkers).map(|_| Cycles::ZERO).collect(),
            stats: WalkerStats::default(),
        }
    }

    /// Number of hardware walkers.
    #[must_use]
    pub fn walkers(&self) -> usize {
        self.free_at.len()
    }

    /// Queueing statistics (queued walks, queue cycles).
    #[must_use]
    pub fn stats(&self) -> &WalkerStats {
        &self.stats
    }

    /// Admits a walk that wants to start at `now`: picks the
    /// earliest-free hardware walker and returns `(slot, start)` where
    /// `start = max(now, that walker's free time)`. Queueing (a start
    /// later than `now`) is recorded in [`WalkerStats`]. The caller runs
    /// the walk and must hand the slot back via [`WalkerSlots::release`].
    pub fn admit(&mut self, now: Cycles) -> (usize, Cycles) {
        let (slot, free_at) = self
            .free_at
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

    /// Marks `slot` (from [`WalkerSlots::admit`]) busy until `done`.
    pub fn release(&mut self, slot: usize, done: Cycles) {
        self.free_at.as_mut_slice()[slot] = done;
    }

    /// Idles every walker and clears statistics.
    pub fn reset(&mut self) {
        for free in self.free_at.as_mut_slice() {
            *free = Cycles::ZERO;
        }
        self.stats = WalkerStats::default();
    }

    /// Clears statistics, keeping occupancy.
    pub fn clear_stats(&mut self) {
        self.stats = WalkerStats::default();
    }
}

/// A whole walker: a [`WalkPlanner`] over the PWC bank plus the
/// [`WalkerSlots`] of its hardware walkers.
#[derive(Debug, Clone)]
pub struct PageTableWalker {
    planner: WalkPlanner,
    slots: WalkerSlots,
}

impl PageTableWalker {
    /// Hardware walkers per core when not overridden: one, as fits the
    /// simple in-order cores this simulator models (x86-class OoO cores
    /// ship two; see [`PageTableWalker::with_walkers`]).
    pub const DEFAULT_WALKERS: usize = 1;

    fn over(pwcs: PwcSet) -> Self {
        PageTableWalker {
            planner: WalkPlanner {
                pwcs,
                stats: WalkerStats::default(),
            },
            slots: WalkerSlots::new(Self::DEFAULT_WALKERS),
        }
    }

    /// A walker with PWCs enabled (Radix, Huge Page, NDPage).
    #[must_use]
    pub fn with_pwcs() -> Self {
        Self::over(PwcSet::enabled())
    }

    /// A walker whose PWCs hold `capacity` entries per level (PWC-size
    /// sweep experiments).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_pwc_capacity(capacity: usize) -> Self {
        Self::over(PwcSet::enabled_with_capacity(capacity))
    }

    /// A walker without PWCs (ECH; PWC-off ablation).
    #[must_use]
    pub fn without_pwcs() -> Self {
        Self::over(PwcSet::disabled())
    }

    /// Overrides the number of hardware walkers (the `walkers_per_core`
    /// knob).
    ///
    /// # Panics
    ///
    /// Panics if `walkers` is zero or exceeds [`MAX_WALKERS`].
    #[must_use]
    pub fn with_walkers(mut self, walkers: usize) -> Self {
        self.slots = WalkerSlots::new(walkers);
        self
    }

    /// Splits the walker into its planning and occupancy halves.
    #[must_use]
    pub fn into_parts(self) -> (WalkPlanner, WalkerSlots) {
        (self.planner, self.slots)
    }

    /// Number of hardware walkers.
    #[must_use]
    pub fn walkers(&self) -> usize {
        self.slots.walkers()
    }

    /// See [`WalkerSlots::admit`].
    pub fn admit(&mut self, now: Cycles) -> (usize, Cycles) {
        self.slots.admit(now)
    }

    /// See [`WalkerSlots::release`].
    pub fn release(&mut self, slot: usize, done: Cycles) {
        self.slots.release(slot, done);
    }

    /// The PWC bank (for statistics reporting).
    #[must_use]
    pub fn pwcs(&self) -> &PwcSet {
        self.planner.pwcs()
    }

    /// Walker statistics: the planner's walk counts with the slots'
    /// queueing counts.
    #[must_use]
    pub fn stats(&self) -> WalkerStats {
        WalkerStats {
            queued_walks: self.slots.stats.queued_walks,
            queue_cycles: self.slots.stats.queue_cycles,
            ..self.planner.stats
        }
    }

    /// [`WalkPlanner::plan_into`] with the fetch addresses kept in the
    /// returned plan.
    pub fn plan(&mut self, asid: Asid, vpn: Vpn, path: &WalkPath) -> WalkPlan {
        let mut fetches = InlineVec::new();
        let rounds = self
            .planner
            .plan_into(asid, vpn, path, |addr| fetches.push(addr));
        WalkPlan {
            pwc_skips: (path.len() - fetches.len()) as u32,
            fetches,
            rounds,
        }
    }

    /// Clears PWC contents, walker occupancy and statistics.
    pub fn reset(&mut self) {
        self.planner.reset();
        self.slots.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pwc::PWC_ENTRIES;
    use ndp_types::{Asid, PtLevel};
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
        let path = t.walk_path(b).unwrap();
        let flat = path.steps().iter().find(|s| s.level == PtLevel::FlatL2L1);
        assert_eq!(plan.fetches[0], flat.unwrap().addr);
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

    /// One PWC level of the oracle: tags with LRU stamps, the victim the
    /// first minimum stamp.
    #[derive(Default)]
    struct StampedLevel {
        tags: Vec<u64>,
        stamps: Vec<u64>,
        tick: u64,
        hits: u64,
        misses: u64,
    }

    /// Today's planner, kept as the oracle for the production one: every
    /// step of every group probes its level's PWC (created on first use)
    /// and installs the tag on a miss; missed steps become the round's
    /// fetches, and empty rounds vanish.
    struct OraclePlanner {
        levels: Vec<Option<StampedLevel>>,
        enabled: bool,
        capacity: usize,
        walks: u64,
        fetches: u64,
        skips: u64,
    }

    impl OraclePlanner {
        fn new(enabled: bool, capacity: usize) -> Self {
            OraclePlanner {
                levels: (0..PtLevel::PWC_SLOTS).map(|_| None).collect(),
                enabled,
                capacity,
                walks: 0,
                fetches: 0,
                skips: 0,
            }
        }

        fn probe_fill(&mut self, level: PtLevel, asid: Asid, vpn: Vpn) -> bool {
            if !self.enabled {
                return false;
            }
            let capacity = self.capacity;
            let pwc = self.levels[level.pwc_slot()].get_or_insert_with(StampedLevel::default);
            let tag = crate::pwc::Pwc::tag_for(level, vpn) | asid.tag_bits();
            pwc.tick += 1;
            if let Some(i) = pwc.tags.iter().position(|&t| t == tag) {
                pwc.stamps[i] = pwc.tick;
                pwc.hits += 1;
                return true;
            }
            pwc.misses += 1;
            if pwc.tags.len() < capacity {
                pwc.tags.push(tag);
                pwc.stamps.push(pwc.tick);
            } else {
                let min = *pwc.stamps.iter().min().expect("full level");
                let victim = pwc.stamps.iter().position(|&s| s == min).expect("min");
                pwc.tags[victim] = tag;
                pwc.stamps[victim] = pwc.tick;
            }
            false
        }

        /// The walk's fetch addresses, its per-round fetch counts and its
        /// PWC skips.
        fn plan(
            &mut self,
            asid: Asid,
            vpn: Vpn,
            path: &WalkPath,
        ) -> (Vec<PhysAddr>, Vec<usize>, u32) {
            self.walks += 1;
            let (mut addrs, mut rounds, mut skips) = (Vec::new(), Vec::new(), 0);
            for group in path.groups() {
                let before = addrs.len();
                for step in group {
                    if self.probe_fill(step.level, asid, vpn) {
                        skips += 1;
                    } else {
                        addrs.push(step.addr);
                    }
                }
                if addrs.len() > before {
                    rounds.push(addrs.len() - before);
                }
            }
            self.fetches += addrs.len() as u64;
            self.skips += u64::from(skips);
            (addrs, rounds, skips)
        }

        /// `(level, hits, misses)` of every touched level, in level order.
        fn level_stats(&self) -> Vec<(PtLevel, u64, u64)> {
            (0..PtLevel::PWC_SLOTS)
                .filter_map(|slot| {
                    let pwc = self.levels[slot].as_ref()?;
                    Some((PtLevel::from_pwc_slot(slot), pwc.hits, pwc.misses))
                })
                .collect()
        }
    }

    /// A production plan as the oracle reports one.
    fn observed(
        w: &mut PageTableWalker,
        asid: Asid,
        vpn: Vpn,
        path: &WalkPath,
    ) -> (Vec<PhysAddr>, Vec<usize>, u32) {
        let plan = w.plan(asid, vpn, path);
        let addrs = plan.fetches.to_vec();
        let rounds = plan.rounds.as_slice().iter().map(|&n| n.into()).collect();
        (addrs, rounds, plan.pwc_skips)
    }

    /// A walk of one of the built-in shapes: radix (PL4..PL1), NDPage
    /// (PL4, PL3, PL2/PL1), a 2 MB radix walk (PL4..PL2) or `ways`
    /// parallel hash probes, at addresses drawn from `seed`.
    fn shaped_path(shape: u8, ways: usize, seed: u64) -> WalkPath {
        use ndpage::walk::WalkStep;
        let levels: Vec<PtLevel> = match shape {
            0 => vec![PtLevel::L4, PtLevel::L3, PtLevel::L2, PtLevel::L1],
            1 => vec![PtLevel::L4, PtLevel::L3, PtLevel::FlatL2L1],
            2 => vec![PtLevel::L4, PtLevel::L3, PtLevel::L2],
            _ => (0..ways).map(|w| PtLevel::HashWay(w as u8)).collect(),
        };
        let hashed = shape > 2;
        WalkPath::new(
            levels
                .into_iter()
                .enumerate()
                .map(|(i, level)| WalkStep {
                    addr: PhysAddr::new((seed.wrapping_mul(0x9E37_79B9) + i as u64 * 4096) & !7),
                    level,
                    group: if hashed { 0 } else { i as u8 },
                })
                .collect(),
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Random walks of every shape, over warm and cold PWCs of 1, 2, 8
        /// and 64 entries and with PWCs off, plan the oracle's fetch
        /// addresses, round counts and skips, and leave the same walker
        /// and per-level PWC statistics; untagged flushes and statistics
        /// resets interleave.
        #[test]
        fn plans_match_the_oracle(
            ops in proptest::collection::vec((0u8..20, 0u16..3, 0u64..96, 1usize..PtLevel::MAX_HASH_WAYS + 1), 1..400),
        ) {
            for (enabled, capacity) in [(true, 1), (true, 2), (true, 8), (true, PWC_ENTRIES), (false, PWC_ENTRIES)] {
                let mut w = if enabled {
                    PageTableWalker::with_pwc_capacity(capacity)
                } else {
                    PageTableWalker::without_pwcs()
                };
                let mut oracle = OraclePlanner::new(enabled, capacity);
                for (i, &(op, asid_raw, raw, ways)) in ops.iter().enumerate() {
                    let asid = Asid(asid_raw);
                    // VPNs sharing upper prefixes, so PL4/PL3 stay warm
                    // while the lower levels churn.
                    let vpn = Vpn::new(((raw % 4) << 27) | ((raw % 12) << 18) | (raw << 9) | (raw % 5));
                    match op {
                        0..=17 => {
                            let path = shaped_path(op % 4, ways, raw);
                            proptest::prop_assert_eq!(
                                observed(&mut w, asid, vpn, &path),
                                oracle.plan(asid, vpn, &path),
                                "walk {}",
                                i
                            );
                        }
                        18 => {
                            w.planner.flush_all();
                            for pwc in oracle.levels.iter_mut().flatten() {
                                pwc.tags.clear();
                                pwc.stamps.clear();
                            }
                        }
                        _ => {
                            w.planner.clear_stats();
                            (oracle.walks, oracle.fetches, oracle.skips) = (0, 0, 0);
                            for pwc in oracle.levels.iter_mut().flatten() {
                                (pwc.hits, pwc.misses) = (0, 0);
                            }
                        }
                    }
                    let stats = w.stats();
                    proptest::prop_assert_eq!(
                        (stats.walks, stats.fetches, stats.pwc_skips),
                        (oracle.walks, oracle.fetches, oracle.skips)
                    );
                    let levels: Vec<_> = w.pwcs().stats().map(|(l, s)| (l, s.hits, s.misses)).collect();
                    proptest::prop_assert_eq!(levels, oracle.level_stats(), "PWC statistics after step {}", i);
                }
            }
        }
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
