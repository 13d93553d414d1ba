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
//!
//! In host memory a way is one array of 64-bit slots, each packing a
//! page's VPN (the low `KEY_BITS`) with the index of its leaf PTE in the
//! table's one leaf array. The simulated layout is not this: a walk
//! fetches the PTE-sized entry of each probed slot from the way's frames.

use crate::alloc::{FrameAllocator, FramePurpose};
use crate::occupancy::{LevelOccupancy, OccupancyReport};
use crate::pte::Pte;
use crate::table::{FaultKind, MapOutcome, PageTable, PageTableKind, RangePlan, Translation};
use crate::walk::{WalkPath, WalkStep};
use ndp_types::addr::{PAGE_SHIFT, PAGE_SIZE, PTE_SIZE, VA_BITS};
use ndp_types::{PageSize, Pfn, PtLevel, Vpn};

/// Number of cuckoo ways (3-ary, as in the ECH paper's default).
pub const WAYS: usize = 3;
/// Resize when any way's load factor crosses this threshold.
pub const RESIZE_THRESHOLD: f64 = 0.6;
/// Give up cuckoo displacement after this many evictions and resize.
const MAX_KICKS: usize = 32;

/// Low bits of a slot holding the VPN: every VPN bit of a virtual address.
const KEY_BITS: u32 = VA_BITS - PAGE_SHIFT;
const KEY_MASK: u64 = (1 << KEY_BITS) - 1;
/// Leaf indices fill the slot above the key, so they stay below this.
const LEAF_LIMIT: u64 = 1 << (u64::BITS - KEY_BITS);

/// A free slot. Its key bits are all ones, which no mapped VPN's are
/// (`map` refuses that VPN), so comparing keys alone finds a page.
const EMPTY: u64 = u64::MAX;

/// The slot of the page with VPN `key` whose leaf PTE is `leaves[leaf]`.
fn pack(key: u64, leaf: u64) -> u64 {
    assert!(
        leaf < LEAF_LIMIT,
        "leaf index {leaf} is past a slot's leaf field"
    );
    key | leaf << KEY_BITS
}

/// The VPN key of a slot.
const fn key(slot: u64) -> u64 {
    slot & KEY_MASK
}

/// The `used` count at which a way of `slots` slots is due to resize:
/// the least with `used / slots >= RESIZE_THRESHOLD`. Exact in `f64`,
/// because `slots` is a power of two.
fn resize_limit(slots: usize) -> usize {
    (RESIZE_THRESHOLD * slots as f64).ceil() as usize
}

/// Allocates the data frames of ordinals `from..to` as one run of `plan`.
fn plan_data_run(plan: &mut RangePlan, from: u64, to: u64, alloc: &mut FrameAllocator) {
    if to > from {
        let count = to - from;
        let pfn = alloc.alloc_data_frames(count);
        plan.push(0, from as usize, count as usize, pfn, FaultKind::Minor4K);
    }
}

/// Where a table's frames come from while it maps pages: the frame
/// allocator itself, or a [`Shaping`] log that hands out leaf indices
/// and writes down the allocator calls it owes. The insert and resize
/// code is generic over it, so a shaped table is laid out exactly as
/// `map` would lay it out.
trait Frames {
    /// Storage for way `way`, now `slots` entries long.
    fn way(&mut self, way: usize, slots: usize) -> Pfn;
    /// The index in `leaves` of the page being mapped's leaf PTE.
    fn leaf(&mut self, leaves: &mut Vec<Pte>) -> u64;
}

impl Frames for FrameAllocator {
    fn way(&mut self, _way: usize, slots: usize) -> Pfn {
        let frames = ((slots as u64 * PTE_SIZE).div_ceil(PAGE_SIZE)).max(1);
        self.alloc_contiguous(frames, FramePurpose::PageTable)
            .expect("page-table reservations always succeed")
    }

    fn leaf(&mut self, leaves: &mut Vec<Pte>) -> u64 {
        leaves.push(Pte::leaf(self.alloc_frame(FramePurpose::Data)));
        leaves.len() as u64 - 1
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
/// resize compare VPNs, never leaves, and resizes fire on per-way counts
/// and kick exhaustion. So shaping runs the unchanged insert/resize code
/// with no allocator, handing page `n` of the premap the leaf index
/// `first_leaf + n`, and logs where every way allocation falls among the
/// pages' data frames (all the allocator sees of the order). Planning
/// then replays the log against the allocator range by range (the same
/// calls `map` would make, in the same order) and grows the leaf array
/// over the range, and applying a plan writes its pages' leaf PTEs.
#[derive(Debug, Clone, Default)]
struct Shaping {
    /// Shaped ranges as `(first vpn, pages)`; plans retrace them in order.
    ranges: Vec<(u64, u64)>,
    /// The leaf index of the premap's first page.
    first_leaf: u64,
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
}

impl Frames for Shaping {
    fn way(&mut self, way: usize, slots: usize) -> Pfn {
        let at = 2 * self.pages + u64::from(self.leaf_taken);
        self.owed.push((at, Owed::Way { way, slots }));
        // Replaced when the plan replays this allocation.
        Pfn::new(0)
    }

    fn leaf(&mut self, _leaves: &mut Vec<Pte>) -> u64 {
        self.leaf_taken = true;
        self.first_leaf + self.pages
    }
}

#[derive(Debug, Clone)]
struct Way {
    base: Pfn,
    /// Packed slots (see [`pack`]), or [`EMPTY`].
    slots: Vec<u64>,
    used: usize,
    /// The `used` count that makes the way due to resize.
    limit: usize,
    seed: u64,
}

impl Way {
    fn index(&self, key: u64) -> usize {
        // Multiply-shift hashing with a per-way odd seed.
        let h = key.wrapping_mul(self.seed);
        (h >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// Doubles the way, moving each entry to its split slot: one more
    /// hash bit turns slot `i` into `2i` or `2i + 1`. Descending order
    /// never overwrites an entry still to be moved.
    fn split(&mut self) {
        let slots = self.slots.len();
        self.slots.resize(2 * slots, EMPTY);
        self.limit = resize_limit(2 * slots);
        for i in (0..slots).rev() {
            let slot = self.slots[i];
            if slot != EMPTY {
                self.slots[i] = EMPTY;
                let j = self.index(key(slot));
                self.slots[j] = slot;
            }
        }
    }

    /// Empties the way and doubles it.
    fn clear_doubled(&mut self) {
        let slots = self.slots.len() * 2;
        self.slots.clear();
        self.slots.resize(slots, EMPTY);
        self.used = 0;
        self.limit = resize_limit(slots);
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
    /// Boxed: the table sits inline in every process's context.
    ways: Box<[Way; WAYS]>,
    /// Every mapped page's leaf PTE, indexed by its slot's leaf field.
    leaves: Vec<Pte>,
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
        ElasticCuckooTable {
            ways: Box::new(std::array::from_fn(|w| Way {
                base: alloc.way(w, slots),
                slots: vec![EMPTY; slots],
                used: 0,
                limit: resize_limit(slots),
                seed: seeds[w] | 1,
            })),
            leaves: Vec::new(),
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

    fn needs_resize(&self) -> bool {
        self.ways.iter().any(|w| w.used >= w.limit)
    }

    /// Doubles every way in place. Way 0's entries move straight to their
    /// split slots: way 0 is probed first and would be refilled first, so
    /// each would land there anyway. The other ways' entries are
    /// reinserted.
    fn resize<F: Frames>(&mut self, frames: &mut F) {
        let mut entries = Vec::with_capacity(self.ways[1..].iter().map(|w| w.used).sum());
        for way in &self.ways[1..] {
            entries.extend(way.slots.iter().copied().filter(|&slot| slot != EMPTY));
        }
        let moved = (self.ways[0].used + entries.len()) as u64;
        // Grown in place: glibc's `realloc` keeps a block in the arena that
        // allocated it, and a table's ways start in the main thread's, so
        // the memory one machine frees is reused by the next. Fresh
        // blocks would pile up in the arenas of the threads that shaped
        // the tables, raising peak RSS by a third on the calibration grid;
        // the leaf array grows only while planning, on the main thread.
        for (w, way) in self.ways.iter_mut().enumerate() {
            way.base = frames.way(w, way.slots.len() * 2);
            if w == 0 {
                way.split();
            } else {
                way.clear_doubled();
            }
        }
        self.stats.resizes += 1;
        self.stats.rehashed_entries += moved;
        self.pending_rehash += moved;
        for slot in entries {
            self.insert(slot, frames);
        }
    }

    fn insert<F: Frames>(&mut self, slot: u64, frames: &mut F) {
        let mut cur = slot;
        let mut way_idx = 0usize;
        for kick in 0..=MAX_KICKS {
            // Try every way for an empty slot first.
            for way in self.ways.iter_mut() {
                let idx = way.index(key(cur));
                if way.slots[idx] == EMPTY {
                    way.slots[idx] = cur;
                    way.used += 1;
                    return;
                }
            }
            if kick == MAX_KICKS {
                break;
            }
            // Displace from the rotating way.
            let way = &mut self.ways[way_idx];
            let idx = way.index(key(cur));
            std::mem::swap(&mut cur, &mut way.slots[idx]);
            self.stats.kicks += 1;
            way_idx = (way_idx + 1) % WAYS;
        }
        // Path exhausted: grow and retry (always terminates since capacity
        // doubles).
        self.resize(frames);
        self.insert(cur, frames);
    }

    /// [`PageTable::map`] with frames from `frames`, probing each way
    /// once: unless a probed slot holds the page or a resize is due, the
    /// page takes the first empty one, as `insert`'s first round would.
    fn map_with<F: Frames>(&mut self, vpn: Vpn, frames: &mut F) -> MapOutcome {
        let raw = vpn.as_u64();
        // From an empty slot's key up, keys lie outside the space.
        assert!(
            raw < KEY_MASK,
            "VPN {raw:#x} is outside the {VA_BITS}-bit virtual address space"
        );
        let idx: [usize; WAYS] = std::array::from_fn(|w| self.ways[w].index(raw));
        let probed: [u64; WAYS] = std::array::from_fn(|w| self.ways[w].slots[idx[w]]);
        if probed.iter().any(|&slot| key(slot) == raw) {
            return MapOutcome::already_mapped();
        }
        let tables_before = self.stats.resizes;
        let due = self.needs_resize();
        if due {
            self.resize(frames);
        }
        let slot = pack(raw, frames.leaf(&mut self.leaves));
        match probed.iter().position(|&probe| probe == EMPTY) {
            Some(w) if !due => {
                self.ways[w].slots[idx[w]] = slot;
                self.ways[w].used += 1;
            }
            _ => self.insert(slot, frames),
        }
        self.mapped += 1;
        MapOutcome {
            newly_mapped: true,
            fault: Some(FaultKind::Minor4K),
            tables_allocated: ((self.stats.resizes - tables_before) * WAYS as u64) as u32,
        }
    }

    /// The slot holding `vpn`, if it is mapped.
    fn find(&self, vpn: Vpn) -> Option<u64> {
        let raw = vpn.as_u64();
        let mut probed = self.ways.iter().map(|way| way.slots[way.index(raw)]);
        // No mapped page has an empty slot's key, or one past it.
        probed.find(|&slot| key(slot) == raw && raw < KEY_MASK)
    }

    fn translation(&self, slot: u64) -> Translation {
        Translation {
            pfn: self.leaves[(slot >> KEY_BITS) as usize].pfn(),
            size: PageSize::Size4K,
        }
    }
}

impl PageTable for ElasticCuckooTable {
    fn kind(&self) -> PageTableKind {
        PageTableKind::ElasticCuckoo
    }

    fn translate(&self, vpn: Vpn) -> Option<Translation> {
        self.find(vpn).map(|slot| self.translation(slot))
    }

    fn map(&mut self, vpn: Vpn, alloc: &mut FrameAllocator) -> MapOutcome {
        self.map_with(vpn, alloc)
    }

    /// Inserts the pages with leaf indices and no allocator, logging the
    /// allocator calls `map` would make (see `Shaping`).
    fn shape_range(&mut self, first: Vpn, pages: u64) {
        let first_leaf = self.leaves.len() as u64;
        let mut log = self.shaping.take().unwrap_or_else(|| {
            Box::new(Shaping {
                first_leaf,
                ..Shaping::default()
            })
        });
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

    /// Replays the next shaped range's allocator calls and grows the leaf
    /// array over the range. `None` when no shaped range is left to plan;
    /// the caller then maps directly.
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
        self.leaves
            .resize((log.first_leaf + end) as usize, Pte::NULL);
        Some(plan)
    }

    /// Writes the plan's leaf PTEs; the last plan ends the phased premap.
    fn apply_plan(&mut self, plan: &RangePlan) {
        let log = self
            .shaping
            .as_deref_mut()
            .expect("plans come from a shaped table");
        for seg in &plan.segments {
            let start = (log.first_leaf + u64::from(seg.start)) as usize;
            let leaves = &mut self.leaves[start..start + seg.count as usize];
            for (leaf, pfn) in leaves.iter_mut().zip(seg.first_pfn..) {
                *leaf = Pte::leaf(Pfn::new(pfn));
            }
        }
        log.applied += 1;
        if log.applied == log.ranges.len() {
            self.shaping = None;
        }
    }

    fn walk_path(&self, vpn: Vpn) -> Option<WalkPath> {
        self.translate_and_walk(vpn).map(|(_, path)| path)
    }

    fn translate_and_walk(&self, vpn: Vpn) -> Option<(Translation, WalkPath)> {
        // One find() instead of two; the path probes every way anyway.
        let slot = self.find(vpn)?;
        let mut path = WalkPath::empty();
        for (way_idx, way) in self.ways.iter().enumerate() {
            path.push(WalkStep {
                addr: way.base.entry_addr(way.index(vpn.as_u64())),
                level: PtLevel::HashWay(way_idx as u8),
                group: 0,
            });
        }
        Some((self.translation(slot), path))
    }

    fn occupancy(&self) -> OccupancyReport {
        let mut report = OccupancyReport::new();
        for (w, way) in self.ways.iter().enumerate() {
            report.set(
                PtLevel::HashWay(w as u8),
                LevelOccupancy {
                    nodes: 1,
                    valid_entries: way.used as u64,
                    capacity: way.slots.len() as u64,
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
            .map(|w| (w.slots.len() as u64 * PTE_SIZE).div_ceil(PAGE_SIZE) * PAGE_SIZE)
            .sum()
    }

    fn take_pending_os_work(&mut self) -> u64 {
        self.take_pending_rehash()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        let used: usize = t.ways.iter().map(|w| w.used).sum();
        let slots: usize = t.ways.iter().map(|w| w.slots.len()).sum();
        assert!((used as f64 / slots as f64) < RESIZE_THRESHOLD + 0.05);
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
        // The fourth key finds all three ways taken and kicks until it
        // gives up, resizing after its page's data frame.
        let (direct, owed) = phased_matches_map(16, &colliding_vpns()[..6]);
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
        // An empty slot's key, and keys past it, are never mapped.
        assert!(t.translate(Vpn::new(KEY_MASK)).is_none());
        assert!(t.translate(Vpn::new(u64::MAX)).is_none());
    }

    #[test]
    #[should_panic(expected = "outside the 48-bit virtual address space")]
    fn map_refuses_a_vpn_beyond_the_virtual_address_space() {
        let (mut alloc, mut t) = setup();
        t.map(Vpn::new(1 << KEY_BITS), &mut alloc);
    }

    #[test]
    #[should_panic(expected = "is past a slot's leaf field")]
    fn pack_refuses_a_leaf_index_past_its_field() {
        pack(5, LEAF_LIMIT);
    }

    /// The integer resize limit answers as the per-way f64 load test it
    /// replaced, just below the limit and at it, for every power-of-two
    /// way size up to 2^40 slots.
    #[test]
    fn resize_limit_matches_the_f64_load_test() {
        for shift in 0..=40 {
            let slots = 1usize << shift;
            let limit = resize_limit(slots);
            for used in [limit - 1, limit] {
                assert_eq!(
                    used >= limit,
                    used as f64 / slots as f64 >= RESIZE_THRESHOLD,
                    "{used} of {slots} slots"
                );
            }
        }
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

    /// Marks an oracle leaf that still holds its page's ordinal: the
    /// oracle's stand-in, a not-present PTE until `bind` rewrites it.
    const UNBOUND: u64 = 1 << 63;

    /// The oracle's frame source: the allocator, or its shaping log.
    trait OracleFrames {
        fn way(&mut self, way: usize, slots: usize) -> Pfn;
        /// The leaf of the page being mapped: a frame number, or a
        /// stand-in ordinal tagged [`UNBOUND`].
        fn leaf(&mut self) -> u64;
    }

    impl OracleFrames for FrameAllocator {
        fn way(&mut self, _way: usize, slots: usize) -> Pfn {
            let frames = ((slots as u64 * PTE_SIZE).div_ceil(PAGE_SIZE)).max(1);
            self.alloc_contiguous(frames, FramePurpose::PageTable)
                .expect("page-table reservations always succeed")
        }

        fn leaf(&mut self) -> u64 {
            self.alloc_frame(FramePurpose::Data).as_u64()
        }
    }

    #[derive(Debug, Clone, Default)]
    struct OracleShaping {
        ranges: Vec<(u64, u64)>,
        pages: u64,
        leaf_taken: bool,
        owed: Vec<(u64, Owed)>,
        planned: usize,
        replayed: usize,
        next: u64,
        applied: usize,
        pfns: Vec<u64>,
    }

    impl OracleFrames for OracleShaping {
        fn way(&mut self, way: usize, slots: usize) -> Pfn {
            let at = 2 * self.pages + u64::from(self.leaf_taken);
            self.owed.push((at, Owed::Way { way, slots }));
            Pfn::new(0)
        }

        fn leaf(&mut self) -> u64 {
            self.leaf_taken = true;
            self.pages | UNBOUND
        }
    }

    #[derive(Debug, Clone)]
    struct OracleWay {
        base: Pfn,
        vpns: Vec<u64>,
        leaves: Vec<u64>,
        used: usize,
        seed: u64,
    }

    impl OracleWay {
        fn index(&self, vpn: u64) -> usize {
            let h = vpn.wrapping_mul(self.seed);
            (h >> (64 - self.vpns.len().trailing_zeros())) as usize
        }
    }

    /// The table as it stood with two arrays per way (keys and leaf
    /// PTEs), find-then-insert on every map, a per-way f64 load test and
    /// a stand-in PTE per shaped page bound in one sweep of the ways:
    /// the oracle the production table's host layout is checked against.
    #[derive(Debug, Clone)]
    struct OracleTable {
        ways: Vec<OracleWay>,
        mapped: u64,
        stats: CuckooStats,
        pending_rehash: u64,
        shaping: Option<OracleShaping>,
    }

    impl OracleTable {
        fn with_slots(alloc: &mut FrameAllocator, slots: usize) -> Self {
            let seeds = [
                0x9E37_79B9_7F4A_7C15,
                0xC2B2_AE3D_27D4_EB4F,
                0x1656_67B1_9E37_79F9,
            ];
            let ways = (0..WAYS)
                .map(|w| OracleWay {
                    base: OracleFrames::way(alloc, w, slots),
                    vpns: vec![EMPTY; slots],
                    leaves: vec![0; slots],
                    used: 0,
                    seed: seeds[w] | 1,
                })
                .collect();
            OracleTable {
                ways,
                mapped: 0,
                stats: CuckooStats::default(),
                pending_rehash: 0,
                shaping: None,
            }
        }

        fn needs_resize(&self) -> bool {
            self.ways
                .iter()
                .any(|w| w.used as f64 / w.vpns.len() as f64 >= RESIZE_THRESHOLD)
        }

        fn resize<F: OracleFrames>(&mut self, frames: &mut F) {
            let mut entries = Vec::new();
            for way in &self.ways[1..] {
                for (&v, &leaf) in way.vpns.iter().zip(&way.leaves) {
                    if v != EMPTY {
                        entries.push((v, leaf));
                    }
                }
            }
            let moved = (self.ways[0].used + entries.len()) as u64;
            for (w, way) in self.ways.iter_mut().enumerate() {
                let slots = way.vpns.len() * 2;
                way.base = frames.way(w, slots);
                if w == 0 {
                    way.vpns.resize(slots, EMPTY);
                    way.leaves.resize(slots, 0);
                    for i in (0..slots / 2).rev() {
                        let vpn = way.vpns[i];
                        if vpn != EMPTY {
                            let leaf = way.leaves[i];
                            way.vpns[i] = EMPTY;
                            way.leaves[i] = 0;
                            let j = way.index(vpn);
                            way.vpns[j] = vpn;
                            way.leaves[j] = leaf;
                        }
                    }
                } else {
                    way.vpns = vec![EMPTY; slots];
                    way.leaves = vec![0; slots];
                    way.used = 0;
                }
            }
            self.stats.resizes += 1;
            self.stats.rehashed_entries += moved;
            self.pending_rehash += moved;
            for (vpn, leaf) in entries {
                self.insert(vpn, leaf, frames);
            }
        }

        fn insert<F: OracleFrames>(&mut self, vpn: u64, leaf: u64, frames: &mut F) {
            let (mut cur_vpn, mut cur_leaf) = (vpn, leaf);
            let mut way_idx = 0;
            for kick in 0..=MAX_KICKS {
                for way in &mut self.ways {
                    let idx = way.index(cur_vpn);
                    if way.vpns[idx] == EMPTY {
                        way.vpns[idx] = cur_vpn;
                        way.leaves[idx] = cur_leaf;
                        way.used += 1;
                        return;
                    }
                }
                if kick == MAX_KICKS {
                    break;
                }
                let way = &mut self.ways[way_idx];
                let idx = way.index(cur_vpn);
                std::mem::swap(&mut cur_vpn, &mut way.vpns[idx]);
                std::mem::swap(&mut cur_leaf, &mut way.leaves[idx]);
                self.stats.kicks += 1;
                way_idx = (way_idx + 1) % WAYS;
            }
            self.resize(frames);
            self.insert(cur_vpn, cur_leaf, frames);
        }

        fn find(&self, vpn: u64) -> Option<(usize, usize)> {
            self.ways.iter().enumerate().find_map(|(w, way)| {
                let idx = way.index(vpn);
                (way.vpns[idx] == vpn).then_some((w, idx))
            })
        }

        fn map_with<F: OracleFrames>(&mut self, vpn: u64, frames: &mut F) -> MapOutcome {
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

        fn map(&mut self, vpn: Vpn, alloc: &mut FrameAllocator) -> MapOutcome {
            self.map_with(vpn.as_u64(), alloc)
        }

        fn shape_range(&mut self, first: Vpn, pages: u64) {
            let mut log = self.shaping.take().unwrap_or_default();
            log.ranges.push((first.as_u64(), pages));
            for p in 0..pages {
                log.leaf_taken = false;
                if !self.map_with(first.add(p).as_u64(), &mut log).newly_mapped {
                    log.owed.push((2 * log.pages, Owed::Skip));
                }
                log.pages += 1;
            }
            self.shaping = Some(log);
        }

        fn plan_range(&mut self, first: Vpn, pages: u64, alloc: &mut FrameAllocator) -> RangePlan {
            let log = self.shaping.as_mut().expect("a shaped table plans");
            assert_eq!(log.ranges[log.planned], (first.as_u64(), pages));
            log.planned += 1;
            let end = log.next + pages;
            let mut plan = RangePlan::default();
            while let Some(&(at, owed)) = log.owed.get(log.replayed).filter(|(at, _)| *at < 2 * end)
            {
                log.replayed += 1;
                let upto = at.div_ceil(2).max(log.next);
                plan_data_run(&mut plan, log.next, upto, alloc);
                log.next = upto;
                match owed {
                    Owed::Way { way, slots } => {
                        self.ways[way].base = OracleFrames::way(alloc, way, slots);
                    }
                    Owed::Skip => log.next += 1,
                }
            }
            plan_data_run(&mut plan, log.next, end, alloc);
            log.next = end;
            plan
        }

        fn apply_plan(&mut self, plan: &RangePlan) {
            let log = self
                .shaping
                .as_mut()
                .expect("plans come from a shaped table");
            log.pfns.resize(log.pages as usize, 0);
            for seg in &plan.segments {
                for k in 0..seg.count {
                    log.pfns[(seg.start + k) as usize] = seg.first_pfn + u64::from(k);
                }
            }
            log.applied += 1;
            if log.applied == log.ranges.len() {
                self.bind();
            }
        }

        fn bind(&mut self) {
            let log = self.shaping.take().expect("binding ends a phased premap");
            for way in &mut self.ways {
                for (&vpn, leaf) in way.vpns.iter().zip(&mut way.leaves) {
                    if vpn != EMPTY && *leaf & UNBOUND != 0 {
                        *leaf = log.pfns[(*leaf & !UNBOUND) as usize];
                    }
                }
            }
        }

        fn translate_and_walk(&self, vpn: Vpn) -> Option<(Translation, WalkPath)> {
            let (w, idx) = self.find(vpn.as_u64())?;
            let mut path = WalkPath::empty();
            for (way_idx, way) in self.ways.iter().enumerate() {
                path.push(WalkStep {
                    addr: way.base.entry_addr(way.index(vpn.as_u64())),
                    level: PtLevel::HashWay(way_idx as u8),
                    group: 0,
                });
            }
            let pfn = Pfn::new(self.ways[w].leaves[idx]);
            Some((
                Translation {
                    pfn,
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
                        capacity: way.vpns.len() as u64,
                    },
                );
            }
            report
        }

        fn table_bytes(&self) -> u64 {
            self.ways
                .iter()
                .map(|w| (w.vpns.len() as u64 * PTE_SIZE).div_ceil(PAGE_SIZE) * PAGE_SIZE)
                .sum()
        }

        /// Every way's slots in order: `(vpn, pfn)`, or `None` if empty.
        fn slots(&self) -> Vec<Vec<Option<(u64, u64)>>> {
            self.ways
                .iter()
                .map(|way| {
                    way.vpns
                        .iter()
                        .zip(&way.leaves)
                        .map(|(&vpn, &pfn)| (vpn != EMPTY).then_some((vpn, pfn)))
                        .collect()
                })
                .collect()
        }
    }

    /// The production table's slots, as [`OracleTable::slots`] lists them.
    fn table_slots(t: &ElasticCuckooTable) -> Vec<Vec<Option<(u64, u64)>>> {
        t.ways
            .iter()
            .map(|way| {
                way.slots
                    .iter()
                    .map(|&slot| {
                        (slot != EMPTY).then(|| (key(slot), t.translation(slot).pfn.as_u64()))
                    })
                    .collect()
            })
            .collect()
    }

    /// One premap phase of [`table_matches_oracle`]: `(first vpn, pages)`
    /// ranges, mapped shaped-then-planned-then-applied as the machine
    /// does (`batched`), or each range shaped, planned and applied in
    /// turn; then `(vpn)` pages mapped at run time.
    type Phase = (Vec<(u64, u64)>, bool, Vec<u64>);

    /// VPNs that hash to slot 0 of every way of a 16-slot table (so of
    /// any smaller one too): the fourth of them kicks until it gives up.
    fn colliding_vpns() -> Vec<u64> {
        let probe = ElasticCuckooTable::with_slots(&mut FrameAllocator::new(1 << 30), 16);
        (1..)
            .filter(|&v| probe.ways.iter().all(|w| w.index(v) == 0))
            .take(12)
            .collect()
    }

    fn arb_phase() -> impl Strategy<Value = Phase> {
        // Narrow windows make ranges overlap and runtime maps hit
        // premapped pages; the wide one scatters keys across hash slots,
        // and colliding keys exhaust the kicks of small ways.
        let vpn = || {
            prop_oneof![
                0u64..2048,
                0u64..(16u64 << 30 >> 12),
                proptest::sample::select(colliding_vpns()),
            ]
        };
        let range = prop_oneof![(vpn(), 1u64..600), (vpn(), Just(1u64))];
        (
            proptest::collection::vec(range, 0..8),
            proptest::bool::ANY,
            proptest::collection::vec(vpn(), 0..400),
        )
    }

    /// Replays `phases` on the production table and on the oracle, both
    /// starting from `slots` slots per way, and compares everything the
    /// table shows: each map's and plan's outcome, then after each phase
    /// every way's slot-by-slot `(vpn, pfn)`, the cuckoo statistics,
    /// pending rehash work, occupancy, storage, mapped pages, allocator
    /// state and the translation and walk of every touched page.
    fn table_matches_oracle(slots: usize, phases: &[Phase]) -> Result<(), TestCaseError> {
        let mut alloc = FrameAllocator::new(64 << 30);
        let mut oracle_alloc = alloc.clone();
        let mut table = ElasticCuckooTable::with_slots(&mut alloc, slots);
        let mut oracle = OracleTable::with_slots(&mut oracle_alloc, slots);
        let mut touched = Vec::new();
        for (ranges, batched, runtime) in phases {
            let mut plans = Vec::new();
            for &(start, len) in ranges {
                let first = Vpn::new(start);
                table.shape_range(first, len);
                oracle.shape_range(first, len);
                if !batched {
                    let plan = table.plan_range(first, len, &mut alloc).unwrap();
                    let oracle_plan = oracle.plan_range(first, len, &mut oracle_alloc);
                    prop_assert_eq!(plan.outcome, oracle_plan.outcome);
                    table.apply_plan(&plan);
                    oracle.apply_plan(&oracle_plan);
                }
                touched.extend(start..start + len);
            }
            if *batched {
                for &(start, len) in ranges {
                    let first = Vpn::new(start);
                    let plan = table.plan_range(first, len, &mut alloc).unwrap();
                    let oracle_plan = oracle.plan_range(first, len, &mut oracle_alloc);
                    prop_assert_eq!(plan.outcome, oracle_plan.outcome);
                    plans.push((plan, oracle_plan));
                }
                for (plan, oracle_plan) in &plans {
                    table.apply_plan(plan);
                    oracle.apply_plan(oracle_plan);
                }
            }
            for &v in runtime {
                let vpn = Vpn::new(v);
                prop_assert_eq!(
                    table.map(vpn, &mut alloc),
                    oracle.map(vpn, &mut oracle_alloc),
                    "map {}",
                    v
                );
                touched.push(v);
            }
            prop_assert_eq!(table_slots(&table), oracle.slots());
            prop_assert_eq!(table.stats(), &oracle.stats);
            prop_assert_eq!(
                table.take_pending_rehash(),
                std::mem::take(&mut oracle.pending_rehash)
            );
            prop_assert_eq!(table.occupancy(), oracle.occupancy());
            prop_assert_eq!(table.table_bytes(), oracle.table_bytes());
            prop_assert_eq!(table.mapped_pages(), oracle.mapped);
            prop_assert_eq!(alloc.frames_used(), oracle_alloc.frames_used());
            prop_assert_eq!(alloc.stats(), oracle_alloc.stats());
            for &v in touched.iter().chain(&[u64::from(u32::MAX)]) {
                let vpn = Vpn::new(v);
                prop_assert_eq!(
                    table.translate_and_walk(vpn),
                    oracle.translate_and_walk(vpn),
                    "vpn {}",
                    v
                );
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The production table against [`OracleTable`] over random
        /// phased premaps (batched as the machine runs them, or one
        /// range at a time), overlapping ranges and runtime maps of
        /// fresh, scattered and already-mapped pages; 2- to 16-slot
        /// ways reach kick exhaustion, and later phases start a second
        /// phased premap on a table that already maps pages.
        #[test]
        fn table_matches_the_oracle(
            slots in proptest::sample::select(vec![2usize, 4, 16, ElasticCuckooTable::INITIAL_SLOTS]),
            phases in proptest::collection::vec(arb_phase(), 1..4),
        ) {
            table_matches_oracle(slots, &phases)?;
        }
    }
}
