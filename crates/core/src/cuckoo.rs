//! Elastic cuckoo hash table (ECH) — the paper's strongest baseline
//! (Skarlatos et al., ASPLOS 2020).
//!
//! ECH replaces the radix tree with `d` hashed ways probed **in parallel**:
//! a walk costs one memory round-trip of `d` concurrent PTE fetches instead
//! of four dependent ones. The costs, which the paper's multi-core results
//! expose, are (a) `d`× the metadata memory traffic per walk and (b) no
//! page-walk-cache locality to exploit. "Elastic" refers to the online
//! resize: when load exceeds a threshold each way doubles and entries
//! rehash incrementally; we model the rehash work by counting moved
//! entries (the simulator charges latency for them).

use crate::alloc::{FrameAllocator, FramePurpose};
use crate::occupancy::{LevelOccupancy, OccupancyReport};
use crate::pte::Pte;
use crate::table::{FaultKind, MapOutcome, PageTable, PageTableKind, RangePlan, Translation};
use crate::walk::{WalkPath, WalkStep};
use ndp_types::addr::{PAGE_SIZE, PTE_SIZE};
use ndp_types::{PageSize, Pfn, PtLevel, Vpn};

/// Number of cuckoo ways (3-ary, as in the ECH paper's default).
pub const WAYS: usize = 3;
/// Resize when any way's load factor crosses this threshold.
pub const RESIZE_THRESHOLD: f64 = 0.6;
/// Give up cuckoo displacement after this many evictions and resize.
const MAX_KICKS: usize = 32;

const EMPTY: u64 = u64::MAX;

/// Allocates the data frames of ordinals `from..to` as one run of `plan`.
fn plan_data_run(plan: &mut RangePlan, from: u64, to: u64, alloc: &mut FrameAllocator) {
    if to > from {
        let count = to - from;
        let pfn = alloc.alloc_data_frames(count);
        plan.push(0, from as usize, count as usize, pfn, FaultKind::Minor4K);
    }
}

/// Where a table's frames come from while it maps pages: the frame
/// allocator itself, or a [`Shaping`] log that hands out stand-ins and
/// writes down the allocator calls it owes. The insert and resize code is
/// generic over it, so a shaped table is laid out exactly as `map` would
/// lay it out.
trait Frames {
    /// Storage for way `way`, now `slots` entries long.
    fn way(&mut self, way: usize, slots: usize) -> Pfn;
    /// The leaf PTE of the page being mapped.
    fn leaf(&mut self) -> Pte;
}

impl Frames for FrameAllocator {
    fn way(&mut self, _way: usize, slots: usize) -> Pfn {
        let frames = ((slots as u64 * PTE_SIZE).div_ceil(PAGE_SIZE)).max(1);
        self.alloc_contiguous(frames, FramePurpose::PageTable)
            .expect("page-table reservations always succeed")
    }

    fn leaf(&mut self) -> Pte {
        Pte::leaf(self.alloc_frame(FramePurpose::Data))
    }
}

/// An allocator call a shaped page owes (see [`Shaping`]).
#[derive(Debug, Clone, Copy)]
enum Owed {
    /// Storage for way `way`, `slots` entries long, as [`Frames::way`].
    Way { way: usize, slots: usize },
    /// No data frame: the page was already mapped.
    Skip,
}

/// A phased premap in progress (see [`PageTable::shape_range`]).
///
/// Where an entry lands depends only on the VPN sequence: insert and
/// resize compare VPNs, never PTEs, and resizes fire on per-way counts
/// and kick exhaustion. So shaping runs the unchanged insert/resize code
/// with each page's ordinal as a stand-in PTE and no allocator, logging
/// where every way allocation falls among the pages' data frames (all
/// the allocator sees of the order). Planning then replays the log
/// against the allocator range by range (the same calls `map` would
/// make, in the same order), and applying the last plan rewrites each
/// stand-in to its page's frame in one sweep of the ways.
#[derive(Debug, Clone, Default)]
struct Shaping {
    /// Shaped ranges as `(first vpn, pages)`; plans retrace them in order.
    ranges: Vec<(u64, u64)>,
    /// Pages shaped so far: the next page's ordinal.
    pages: u64,
    /// Whether the page being shaped has taken its data frame.
    leaf_taken: bool,
    /// Owed allocator calls in call order, each keyed by twice the
    /// ordinal of the page it falls in, plus one if it follows that
    /// page's data frame.
    owed: Vec<(u64, Owed)>,
    /// Ranges planned, and the `owed` entries their plans replayed.
    planned: usize,
    replayed: usize,
    /// Ordinal of the next page to plan.
    next: u64,
    /// Plans applied so far.
    applied: usize,
    /// Each ordinal's data frame, filled in as plans are applied.
    pfns: Vec<u64>,
}

impl Frames for Shaping {
    fn way(&mut self, way: usize, slots: usize) -> Pfn {
        let at = 2 * self.pages + u64::from(self.leaf_taken);
        self.owed.push((at, Owed::Way { way, slots }));
        // Replaced when the plan replays this allocation.
        Pfn::new(0)
    }

    fn leaf(&mut self) -> Pte {
        self.leaf_taken = true;
        Pte::unbound(self.pages)
    }
}

#[derive(Debug, Clone)]
struct Way {
    base: Pfn,
    vpns: Vec<u64>,
    ptes: Vec<Pte>,
    used: usize,
    seed: u64,
}

impl Way {
    fn new(base: Pfn, slots: usize, seed: u64) -> Self {
        Way {
            base,
            vpns: vec![EMPTY; slots],
            ptes: vec![Pte::NULL; slots],
            used: 0,
            seed,
        }
    }

    fn slots(&self) -> usize {
        self.vpns.len()
    }

    fn index(&self, vpn: Vpn) -> usize {
        // Multiply-shift hashing with a per-way odd seed.
        let h = vpn.as_u64().wrapping_mul(self.seed);
        (h >> (64 - self.slots().trailing_zeros())) as usize
    }

    /// Doubles the way, moving each entry to its split slot: one more
    /// hash bit turns slot `i` into `2i` or `2i + 1`. Descending order
    /// never overwrites an entry still to be moved.
    fn split(&mut self) {
        let slots = self.slots();
        self.vpns.resize(2 * slots, EMPTY);
        self.ptes.resize(2 * slots, Pte::NULL);
        for i in (0..slots).rev() {
            let vpn = self.vpns[i];
            if vpn != EMPTY {
                let pte = std::mem::take(&mut self.ptes[i]);
                self.vpns[i] = EMPTY;
                let j = self.index(Vpn::new(vpn));
                self.vpns[j] = vpn;
                self.ptes[j] = pte;
            }
        }
    }

    /// Empties the way and doubles it.
    fn clear_doubled(&mut self) {
        let slots = self.slots() * 2;
        self.vpns.clear();
        self.vpns.resize(slots, EMPTY);
        self.ptes.clear();
        self.ptes.resize(slots, Pte::NULL);
        self.used = 0;
    }

    fn entry_addr(&self, idx: usize) -> ndp_types::PhysAddr {
        self.base.entry_addr(idx)
    }
}

/// Statistics specific to the elastic behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CuckooStats {
    /// Completed resizes.
    pub resizes: u64,
    /// Entries moved by resizes (charged as OS work by the simulator).
    pub rehashed_entries: u64,
    /// Displacements performed by cuckoo insertion.
    pub kicks: u64,
}

/// The elastic cuckoo page table ("ECH" in Figs 12–14).
#[derive(Debug, Clone)]
pub struct ElasticCuckooTable {
    ways: Vec<Way>,
    mapped: u64,
    stats: CuckooStats,
    /// Entries rehashed since last drained by the simulator.
    pending_rehash: u64,
    /// The phased premap in progress, if any (boxed: most tables never
    /// shape, and the table sits inline in every process's context).
    shaping: Option<Box<Shaping>>,
}

impl ElasticCuckooTable {
    /// Initial slots per way.
    pub const INITIAL_SLOTS: usize = 4096;

    /// Creates an empty table with [`WAYS`] ways of
    /// [`Self::INITIAL_SLOTS`] slots each.
    #[must_use]
    pub fn new(alloc: &mut FrameAllocator) -> Self {
        Self::with_slots(alloc, Self::INITIAL_SLOTS)
    }

    /// [`Self::new`] with `slots` (a power of two) slots per way.
    fn with_slots(alloc: &mut FrameAllocator, slots: usize) -> Self {
        let seeds = [
            0x9E37_79B9_7F4A_7C15,
            0xC2B2_AE3D_27D4_EB4F,
            0x1656_67B1_9E37_79F9,
        ];
        let ways = (0..WAYS)
            .map(|w| Way::new(alloc.way(w, slots), slots, seeds[w] | 1))
            .collect();
        ElasticCuckooTable {
            ways,
            mapped: 0,
            stats: CuckooStats::default(),
            pending_rehash: 0,
            shaping: None,
        }
    }

    /// Elastic-resize statistics.
    #[must_use]
    pub fn stats(&self) -> &CuckooStats {
        &self.stats
    }

    /// Takes (and clears) the count of entries rehashed since the last
    /// call; the simulator charges OS latency proportional to it.
    pub fn take_pending_rehash(&mut self) -> u64 {
        std::mem::take(&mut self.pending_rehash)
    }

    /// Current load factor across ways.
    #[must_use]
    pub fn load_factor(&self) -> f64 {
        let used: usize = self.ways.iter().map(|w| w.used).sum();
        let slots: usize = self.ways.iter().map(Way::slots).sum();
        used as f64 / slots as f64
    }

    fn needs_resize(&self) -> bool {
        self.ways
            .iter()
            .any(|w| w.used as f64 / w.slots() as f64 >= RESIZE_THRESHOLD)
    }

    /// Doubles every way in place. Way 0's entries move straight to their
    /// split slots: way 0 is probed first and would be refilled first, so
    /// each would land there anyway. The other ways' entries are
    /// reinserted.
    fn resize<F: Frames>(&mut self, frames: &mut F) {
        let mut entries: Vec<(u64, Pte)> =
            Vec::with_capacity(self.ways[1..].iter().map(|w| w.used).sum());
        for way in &self.ways[1..] {
            for (&v, &pte) in way.vpns.iter().zip(&way.ptes) {
                if v != EMPTY {
                    entries.push((v, pte));
                }
            }
        }
        let moved = (self.ways[0].used + entries.len()) as u64;
        // Grown in place: glibc's `realloc` keeps a block in the arena that
        // allocated it, and a table's ways start in the main thread's, so
        // the memory one machine frees is reused by the next. Fresh
        // blocks would pile up in the arenas of the threads that shaped
        // the tables, raising peak RSS by a third on the calibration grid.
        for (w, way) in self.ways.iter_mut().enumerate() {
            way.base = frames.way(w, way.slots() * 2);
            if w == 0 {
                way.split();
            } else {
                way.clear_doubled();
            }
        }
        self.stats.resizes += 1;
        self.stats.rehashed_entries += moved;
        self.pending_rehash += moved;
        for (vpn, pte) in entries {
            self.insert(Vpn::new(vpn), pte, frames);
        }
    }

    fn insert<F: Frames>(&mut self, vpn: Vpn, pte: Pte, frames: &mut F) {
        let mut cur_vpn = vpn.as_u64();
        let mut cur_pte = pte;
        let mut way_idx = 0usize;
        for kick in 0..=MAX_KICKS {
            // Try every way for an empty slot first.
            for w in 0..WAYS {
                let way = &mut self.ways[w];
                let idx = way.index(Vpn::new(cur_vpn));
                if way.vpns[idx] == EMPTY {
                    way.vpns[idx] = cur_vpn;
                    way.ptes[idx] = cur_pte;
                    way.used += 1;
                    return;
                }
            }
            if kick == MAX_KICKS {
                break;
            }
            // Displace from the rotating way.
            let way = &mut self.ways[way_idx];
            let idx = way.index(Vpn::new(cur_vpn));
            std::mem::swap(&mut cur_vpn, &mut way.vpns[idx]);
            std::mem::swap(&mut cur_pte, &mut way.ptes[idx]);
            self.stats.kicks += 1;
            way_idx = (way_idx + 1) % WAYS;
        }
        // Path exhausted: grow and retry (always terminates since capacity
        // doubles).
        self.resize(frames);
        self.insert(Vpn::new(cur_vpn), cur_pte, frames);
    }

    /// [`PageTable::map`] with frames from `frames`.
    fn map_with<F: Frames>(&mut self, vpn: Vpn, frames: &mut F) -> MapOutcome {
        if self.find(vpn).is_some() {
            return MapOutcome::already_mapped();
        }
        let tables_before = self.stats.resizes;
        if self.needs_resize() {
            self.resize(frames);
        }
        let leaf = frames.leaf();
        self.insert(vpn, leaf, frames);
        self.mapped += 1;
        MapOutcome {
            newly_mapped: true,
            fault: Some(FaultKind::Minor4K),
            tables_allocated: ((self.stats.resizes - tables_before) * WAYS as u64) as u32,
        }
    }

    /// Ends a phased premap: rewrites every stand-in entry to its page's
    /// frame in one sweep of the ways.
    fn bind(&mut self) {
        let log = self.shaping.take().expect("binding ends a phased premap");
        for way in &mut self.ways {
            for (&vpn, pte) in way.vpns.iter().zip(&mut way.ptes) {
                if vpn != EMPTY && !pte.is_present() {
                    *pte = Pte::leaf(Pfn::new(log.pfns[pte.pfn().as_u64() as usize]));
                }
            }
        }
    }

    fn find(&self, vpn: Vpn) -> Option<(usize, usize)> {
        let raw = vpn.as_u64();
        for (w, way) in self.ways.iter().enumerate() {
            let idx = way.index(vpn);
            if way.vpns[idx] == raw {
                return Some((w, idx));
            }
        }
        None
    }
}

impl PageTable for ElasticCuckooTable {
    fn kind(&self) -> PageTableKind {
        PageTableKind::ElasticCuckoo
    }

    fn translate(&self, vpn: Vpn) -> Option<Translation> {
        self.find(vpn).map(|(w, idx)| Translation {
            pfn: self.ways[w].ptes[idx].pfn(),
            size: PageSize::Size4K,
        })
    }

    fn map(&mut self, vpn: Vpn, alloc: &mut FrameAllocator) -> MapOutcome {
        self.map_with(vpn, alloc)
    }

    /// Inserts the pages with stand-in PTEs and no allocator, logging the
    /// allocator calls `map` would make (see `Shaping`).
    fn shape_range(&mut self, first: Vpn, pages: u64) {
        let mut log = self.shaping.take().unwrap_or_default();
        assert!(
            log.pages + pages <= u64::from(u32::MAX),
            "plans index pages by u32"
        );
        log.ranges.push((first.as_u64(), pages));
        for p in 0..pages {
            log.leaf_taken = false;
            if !self.map_with(first.add(p), &mut *log).newly_mapped {
                log.owed.push((2 * log.pages, Owed::Skip));
            }
            log.pages += 1;
        }
        self.shaping = Some(log);
    }

    /// Replays the next shaped range's allocator calls. `None` when no
    /// shaped range is left to plan; the caller then maps directly.
    ///
    /// # Panics
    ///
    /// Panics if the range is not the next shaped one.
    fn plan_range(
        &mut self,
        first: Vpn,
        pages: u64,
        alloc: &mut FrameAllocator,
    ) -> Option<RangePlan> {
        let log = self.shaping.as_deref_mut()?;
        let &shaped = log.ranges.get(log.planned)?;
        assert_eq!(
            shaped,
            (first.as_u64(), pages),
            "ECH plans must retrace the shaped ranges in order"
        );
        log.planned += 1;
        let end = log.next + pages;
        let mut plan = RangePlan::default();
        while let Some(&(at, owed)) = log.owed.get(log.replayed).filter(|(at, _)| *at < 2 * end) {
            log.replayed += 1;
            let upto = at.div_ceil(2).max(log.next);
            plan_data_run(&mut plan, log.next, upto, alloc);
            log.next = upto;
            match owed {
                Owed::Way { way, slots } => self.ways[way].base = alloc.way(way, slots),
                Owed::Skip => log.next += 1,
            }
        }
        plan_data_run(&mut plan, log.next, end, alloc);
        log.next = end;
        Some(plan)
    }

    /// Records the plan's frames; the last plan of a phased premap binds
    /// every stand-in entry in one sweep.
    fn apply_plan(&mut self, plan: &RangePlan) {
        let log = self
            .shaping
            .as_deref_mut()
            .expect("plans come from a shaped table");
        log.pfns.resize(log.pages as usize, 0);
        for seg in &plan.segments {
            let start = seg.start as usize;
            for (k, pfn) in log.pfns[start..start + seg.count as usize]
                .iter_mut()
                .enumerate()
            {
                *pfn = seg.first_pfn + k as u64;
            }
        }
        log.applied += 1;
        if log.applied == log.ranges.len() {
            self.bind();
        }
    }

    fn walk_path(&self, vpn: Vpn) -> Option<WalkPath> {
        self.translate_and_walk(vpn).map(|(_, path)| path)
    }

    fn translate_and_walk(&self, vpn: Vpn) -> Option<(Translation, WalkPath)> {
        // One find() instead of two; the path probes every way anyway.
        let (w, idx) = self.find(vpn)?;
        let mut path = WalkPath::empty();
        for (way_idx, way) in self.ways.iter().enumerate() {
            path.push(WalkStep {
                addr: way.entry_addr(way.index(vpn)),
                level: PtLevel::HashWay(way_idx as u8),
                group: 0,
            });
        }
        Some((
            Translation {
                pfn: self.ways[w].ptes[idx].pfn(),
                size: PageSize::Size4K,
            },
            path,
        ))
    }

    fn occupancy(&self) -> OccupancyReport {
        let mut report = OccupancyReport::new();
        for (w, way) in self.ways.iter().enumerate() {
            report.set(
                PtLevel::HashWay(w as u8),
                LevelOccupancy {
                    nodes: 1,
                    valid_entries: way.used as u64,
                    capacity: way.slots() as u64,
                },
            );
        }
        report
    }

    fn mapped_pages(&self) -> u64 {
        self.mapped
    }

    fn table_bytes(&self) -> u64 {
        self.ways
            .iter()
            .map(|w| (w.slots() as u64 * PTE_SIZE).div_ceil(PAGE_SIZE) * PAGE_SIZE)
            .sum()
    }

    fn take_pending_os_work(&mut self) -> u64 {
        self.take_pending_rehash()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (FrameAllocator, ElasticCuckooTable) {
        let mut alloc = FrameAllocator::new(4 << 30);
        let table = ElasticCuckooTable::new(&mut alloc);
        (alloc, table)
    }

    #[test]
    fn map_translate_round_trip() {
        let (mut alloc, mut t) = setup();
        let vpn = Vpn::new(0xdead_beef);
        assert!(t.map(vpn, &mut alloc).newly_mapped);
        assert!(t.translate(vpn).is_some());
        assert!(!t.map(vpn, &mut alloc).newly_mapped);
        assert_eq!(t.mapped_pages(), 1);
    }

    #[test]
    fn walk_probes_all_ways_in_parallel() {
        let (mut alloc, mut t) = setup();
        let vpn = Vpn::new(123_456);
        t.map(vpn, &mut alloc);
        let path = t.walk_path(vpn).unwrap();
        assert_eq!(path.len(), WAYS);
        assert_eq!(path.sequential_depth(), 1, "single parallel round");
    }

    #[test]
    fn many_inserts_trigger_elastic_resize() {
        let (mut alloc, mut t) = setup();
        let n = (ElasticCuckooTable::INITIAL_SLOTS as f64 * WAYS as f64 * 0.7) as u64;
        for i in 0..n {
            t.map(Vpn::new(i * 7919 + 1), &mut alloc);
        }
        assert!(t.stats().resizes >= 1, "resize should have fired");
        assert!(t.stats().rehashed_entries > 0);
        // Every mapping survives the resizes.
        for i in 0..n {
            assert!(t.translate(Vpn::new(i * 7919 + 1)).is_some(), "vpn {i}");
        }
        assert_eq!(t.mapped_pages(), n);
        assert!(t.load_factor() < RESIZE_THRESHOLD + 0.05);
    }

    #[test]
    fn pending_rehash_is_drained_once() {
        let (mut alloc, mut t) = setup();
        let n = (ElasticCuckooTable::INITIAL_SLOTS as f64 * WAYS as f64 * 0.7) as u64;
        for i in 0..n {
            t.map(Vpn::new(i + 1), &mut alloc);
        }
        let drained = t.take_pending_rehash();
        assert!(drained > 0);
        assert_eq!(t.take_pending_rehash(), 0);
    }

    #[test]
    fn walk_addresses_are_table_frames_and_distinct_ways() {
        let (mut alloc, mut t) = setup();
        let vpn = Vpn::new(99);
        t.map(vpn, &mut alloc);
        let path = t.walk_path(vpn).unwrap();
        let mut bases: Vec<u64> = path.steps().iter().map(|s| s.addr.as_u64()).collect();
        bases.dedup();
        assert_eq!(bases.len(), WAYS, "each way probes its own array");
        for step in path.steps() {
            assert!(alloc.is_table_frame(step.addr.pfn()));
        }
    }

    /// Shapes each of `vpns` as a one-page range, plans and applies
    /// them, and checks the result against a twin that maps them
    /// directly. Returns the direct table and the shaping log's owed
    /// allocator calls.
    fn phased_matches_map(slots: usize, vpns: &[u64]) -> (ElasticCuckooTable, Vec<(u64, Owed)>) {
        let mut alloc = FrameAllocator::new(4 << 30);
        let mut phased = ElasticCuckooTable::with_slots(&mut alloc, slots);
        let mut direct_alloc = alloc.clone();
        let mut direct = phased.clone();
        for &v in vpns {
            phased.shape_range(Vpn::new(v), 1);
            direct.map(Vpn::new(v), &mut direct_alloc);
        }
        let owed = phased.shaping.as_ref().unwrap().owed.clone();
        let plans: Vec<RangePlan> = vpns
            .iter()
            .map(|&v| phased.plan_range(Vpn::new(v), 1, &mut alloc).unwrap())
            .collect();
        for plan in &plans {
            phased.apply_plan(plan);
        }
        assert_eq!(alloc.frames_used(), direct_alloc.frames_used());
        assert_eq!(alloc.stats(), direct_alloc.stats());
        assert_eq!(phased.stats(), direct.stats());
        assert_eq!(phased.take_pending_rehash(), direct.take_pending_rehash());
        for &v in vpns {
            let vpn = Vpn::new(v);
            assert_eq!(
                phased.translate_and_walk(vpn),
                direct.translate_and_walk(vpn)
            );
        }
        (direct, owed)
    }

    #[test]
    fn phased_premap_replays_kick_exhaustion() {
        // Keys probing slot 0 of every way of a 16-slot table: the fourth
        // finds all three taken and kicks until it gives up, resizing
        // after its page's data frame.
        let probe = ElasticCuckooTable::with_slots(&mut FrameAllocator::new(1 << 30), 16);
        let vpns: Vec<u64> = (1..)
            .filter(|&v| probe.ways.iter().all(|w| w.index(Vpn::new(v)) == 0))
            .take(6)
            .collect();
        let (direct, owed) = phased_matches_map(16, &vpns);
        assert!(direct.stats().kicks > 0);
        assert!(
            owed.iter().any(|&(at, _)| at % 2 == 1),
            "a resize follows a data frame: {owed:?}"
        );
    }

    #[test]
    fn phased_premap_replays_threshold_resizes_and_skips() {
        let mut vpns: Vec<u64> = (0..12_000).map(|i| i * 7919 + 1).collect();
        vpns.extend_from_slice(&[1, 7920]); // already mapped: no frame
        let (direct, owed) = phased_matches_map(ElasticCuckooTable::INITIAL_SLOTS, &vpns);
        assert!(direct.stats().resizes >= 2);
        assert_eq!(
            owed.iter().filter(|(_, o)| matches!(o, Owed::Skip)).count(),
            2
        );
    }

    #[test]
    fn plan_declines_without_shaping() {
        let (mut alloc, mut t) = setup();
        assert!(t.plan_range(Vpn::new(5), 10, &mut alloc).is_none());
        let frames = alloc.frames_used();
        t.shape_range(Vpn::new(5), 10);
        assert_eq!(alloc.frames_used(), frames, "shaping never allocates");
        let plan = t.plan_range(Vpn::new(5), 10, &mut alloc).unwrap();
        assert_eq!(plan.outcome.minor_4k, 10);
        assert!(t.plan_range(Vpn::new(15), 1, &mut alloc).is_none());
        t.apply_plan(&plan);
        assert!(t.translate(Vpn::new(14)).is_some());
    }

    #[test]
    fn unmapped_is_none() {
        let (_, t) = setup();
        assert!(t.translate(Vpn::new(7)).is_none());
        assert!(t.walk_path(Vpn::new(7)).is_none());
    }

    #[test]
    fn occupancy_reports_each_way() {
        let (mut alloc, mut t) = setup();
        for i in 0..100 {
            t.map(Vpn::new(i), &mut alloc);
        }
        let occ = t.occupancy();
        let total: u64 = (0..WAYS as u8)
            .map(|w| occ.level(PtLevel::HashWay(w)).unwrap().valid_entries)
            .sum();
        assert_eq!(total, 100);
    }
}
