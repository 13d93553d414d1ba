//! The radix-family page tables — x86-64 Radix, NDPage's flattened L2/L1
//! table, a top-flattened counterpoint and 2 MB transparent huge pages —
//! as one [`Tree`] whose levels are data.
//!
//! §V-B observes that "flattening uses the radix nature of the page table
//! to naturally merge levels into single, larger levels". A design is
//! therefore just a [`Layout`]: the [`PtLevel`] each level reports, how
//! many VPN bits it indexes with, and (for Huge Page) which level may hold
//! a 2 MB leaf. Node creation, descent, range planning, walks and
//! occupancy are written once, here, for every layout.
//!
//! Node entries live in `PteArena` slabs; each node also owns real
//! physical storage from the [`FrameAllocator`] — one 4 KB frame for a
//! 9-bit level, a contiguous 2 MB block for an 18-bit one — so walk steps
//! report genuine PTE addresses (which the DRAM model banks on). Descents
//! follow the arena's child-handle lane instead of a frame→node hash map.

use crate::alloc::{FrameAllocator, FramePurpose};
use crate::arena::{Node, PteArena};
use crate::occupancy::{LevelOccupancy, OccupancyReport};
use crate::pte::Pte;
use crate::table::{
    FaultKind, MapOutcome, PageTable, PageTableKind, RangeMapOutcome, RangePlan, Translation,
};
use crate::walk::{WalkPath, WalkStep};
use ndp_types::addr::{LEVEL_BITS, PAGE_SIZE, PTE_SIZE};
use ndp_types::{PageSize, Pfn, PtLevel, Vpn};

/// One level of a [`Layout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Level {
    /// The level walk steps and occupancy report it as (PWC tags key on
    /// it).
    level: PtLevel,
    /// VPN bits this level indexes with: its nodes hold `2^bits` entries.
    bits: u32,
    /// VPN bits consumed by the levels below it — the index's shift.
    shift: u32,
}

impl Level {
    #[inline]
    fn index(self, vpn: Vpn) -> usize {
        ((vpn.as_u64() >> self.shift) & ((1 << self.bits) - 1)) as usize
    }

    fn entries(self) -> usize {
        1 << self.bits
    }

    /// 4 KB frames backing one node of this level.
    fn frames(self) -> u64 {
        self.entries() as u64 * PTE_SIZE / PAGE_SIZE
    }
}

/// The shape of one tree design: its levels, root first. The four
/// designs are the statics below.
#[derive(Debug)]
pub struct Layout {
    /// Display name, as the paper's figures call the design.
    pub name: &'static str,
    /// The design family [`PageTable::kind`] reports.
    kind: PageTableKind,
    /// The levels in walk order, root first; the last holds the 4 KB
    /// leaves.
    levels: &'static [Level],
    /// Transparent huge pages: the level whose absent entries first try a
    /// 2 MB leaf (falling back to a 4 KB leaf node below when contiguity
    /// runs out). `None` maps 4 KB pages only.
    huge_leaf_at: Option<PtLevel>,
}

/// Builds a layout's levels from `(level, bits)` pairs, root first,
/// deriving each level's shift from the bits below it.
const fn levels<const N: usize>(spec: [(PtLevel, u32); N]) -> [Level; N] {
    let mut out = [Level {
        level: PtLevel::L4,
        bits: 0,
        shift: 0,
    }; N];
    let mut shift = 0;
    let mut i = N;
    while i > 0 {
        i -= 1;
        out[i] = Level {
            level: spec[i].0,
            bits: spec[i].1,
            shift,
        };
        shift += spec[i].1;
    }
    out
}

/// The four 9-bit x86-64 levels, shared by [`RADIX`] and [`HUGE_PAGE`].
const RADIX_LEVELS: &[Level] = &levels([
    (PtLevel::L4, LEVEL_BITS),
    (PtLevel::L3, LEVEL_BITS),
    (PtLevel::L2, LEVEL_BITS),
    (PtLevel::L1, LEVEL_BITS),
]);

/// The conventional x86-64 4-level radix table — the paper's baseline
/// ("Radix" in Figs 12–14).
pub static RADIX: Layout = Layout {
    name: "Radix",
    kind: PageTableKind::Radix4,
    levels: RADIX_LEVELS,
    huge_leaf_at: None,
};

/// NDPage's flattened L2/L1 table (§V-B; "NDPage" in Figs 12–14, combined
/// with the bypass policy).
///
/// The tree keeps its L4 and L3 levels but replaces every L2 node *and its
/// up-to-512 L1 children* with one flattened node: a single 2 MB,
/// physically contiguous table of 2^18 entries indexed by the low 18
/// translation bits of the VPN. Every walk is therefore exactly three
/// sequential accesses — L4, L3, flat — while data pages stay 4 KB, so
/// none of Huge Page's contiguity/bloat pathologies apply to *data* (only
/// each flat node itself needs one 2 MB table allocation, which the OS
/// reserves like any page-table storage).
pub static NDPAGE: Layout = Layout {
    name: "NDPage",
    kind: PageTableKind::FlattenedL2L1,
    levels: &levels([
        (PtLevel::L4, LEVEL_BITS),
        (PtLevel::L3, LEVEL_BITS),
        (PtLevel::FlatL2L1, 2 * LEVEL_BITS),
    ]),
    huge_leaf_at: None,
};

/// A counterpoint design: flattening the *top* two radix levels instead
/// of the bottom two.
///
/// Merging levels leaves a design choice: *which* pair to merge. This
/// layout merges PL4 and PL3 into one 2 MB root node (2^18 entries, each
/// mapping 1 GB), keeping conventional PL2/PL1 nodes below. The root
/// reports as `L3`, whose PWC tag covers the same 18-bit prefix.
///
/// Walks are 3 sequential steps, like [`NDPAGE`] — but the step this
/// design eliminates is one the PL4/PL3 page-walk caches already absorbed
/// (~100% hit rates, §V-C), while the two steps it *keeps* are exactly the
/// poorly-cached PL2/PL1 accesses. Measured against NDPage in `tests/`,
/// this design recovers almost none of Radix's walk cost — quantitative
/// evidence for the paper's choice to merge the *bottom* levels, where
/// occupancy is full and PWCs fail. It reports the flattened family's
/// kind; its walk levels tell the variants apart.
pub static TOP_FLATTENED: Layout = Layout {
    name: "top-flattened",
    kind: PageTableKind::FlattenedL2L1,
    levels: &levels([
        (PtLevel::L3, 2 * LEVEL_BITS),
        (PtLevel::L2, LEVEL_BITS),
        (PtLevel::L1, LEVEL_BITS),
    ]),
    huge_leaf_at: None,
};

/// Transparent 2 MB huge pages over the radix levels — the paper's "Huge
/// Page" baseline.
///
/// A 2 MB leaf at PL2 removes one walk level and multiplies TLB reach by
/// 512, which is why Huge Page looks strong at low core counts (Fig 12).
/// Its failure mode (§VII-B, Fig 14) is physical: each 2 MB mapping needs
/// aligned contiguous frames from the [`FrameAllocator`]'s contiguity
/// pool, faults must zero 512× more memory, and when contiguity runs out
/// the kernel falls back to 4 KB pages behind a *4-level* walk plus
/// compaction stalls — all of which the tree surfaces through
/// [`FaultKind`].
pub static HUGE_PAGE: Layout = Layout {
    name: "Huge Page",
    kind: PageTableKind::HugePage,
    levels: RADIX_LEVELS,
    huge_leaf_at: Some(PtLevel::L2),
};

/// Every tree layout: the three tree mechanisms and the top-flattened
/// counterpoint.
pub static LAYOUTS: [&Layout; 4] = [&RADIX, &NDPAGE, &TOP_FLATTENED, &HUGE_PAGE];

/// A radix-family page table with the shape of its [`Layout`].
#[derive(Debug, Clone)]
pub struct Tree {
    layout: &'static Layout,
    arena: PteArena,
    /// Every node; index 0 is the root.
    nodes: Vec<Node>,
    /// Node indices per level, root first.
    per_level: Vec<Vec<usize>>,
    mapped: u64,
}

/// The translation a present leaf PTE at `level` gives `vpn`: its 4 KB
/// page, or the 4 KB frame within a 2 MB leaf.
#[inline]
fn leaf_translation(pte: Pte, level: Level, vpn: Vpn) -> Translation {
    if pte.is_huge() {
        Translation {
            pfn: pte.pfn().add(vpn.as_u64() & ((1 << level.shift) - 1)),
            size: PageSize::Size2M,
        }
    } else {
        Translation {
            pfn: pte.pfn(),
            size: PageSize::Size4K,
        }
    }
}

impl Tree {
    /// Creates an empty table, allocating the root node.
    ///
    #[must_use]
    pub fn new(layout: &'static Layout, alloc: &mut FrameAllocator) -> Self {
        let depth = layout.levels.len();
        let mut t = Tree {
            layout,
            arena: PteArena::new(),
            nodes: Vec::new(),
            per_level: vec![Vec::new(); depth],
            mapped: 0,
        };
        t.new_node(0, alloc);
        t
    }

    fn leaf_depth(&self) -> usize {
        self.layout.levels.len() - 1
    }

    fn new_node(&mut self, depth: usize, alloc: &mut FrameAllocator) -> usize {
        let level = self.layout.levels[depth];
        let frame = match level.frames() {
            1 => alloc.alloc_frame(FramePurpose::PageTable),
            frames => alloc
                .alloc_contiguous(frames, FramePurpose::PageTable)
                .expect("page-table reservations always succeed"),
        };
        let idx = self.nodes.len();
        // Leaf-level nodes hold only leaves; no child lane needed.
        let track_kids = depth < self.leaf_depth();
        self.nodes.push(Node::new(
            frame,
            level.entries(),
            track_kids,
            &mut self.arena,
        ));
        self.per_level[depth].push(idx);
        idx
    }

    /// The child of `node` (at `depth`) linked at `idx`, creating and
    /// linking a fresh node if the entry is absent; the flag reports
    /// whether one was created.
    fn child_or_new(
        &mut self,
        node: usize,
        depth: usize,
        idx: usize,
        alloc: &mut FrameAllocator,
    ) -> (usize, bool) {
        if self.nodes[node].get(&self.arena, idx).is_present() {
            let child = self.nodes[node]
                .kid(&self.arena, idx)
                .expect("interior PTE links its child node");
            return (child, false);
        }
        let child = self.new_node(depth + 1, alloc);
        let frame = self.nodes[child].frame;
        // The paper's one extra PTE bit marks a link to a merged L2/L1
        // node, and nothing else.
        let link = if self.layout.levels[depth + 1].level == PtLevel::FlatL2L1 {
            Pte::next_flattened(frame)
        } else {
            Pte::next(frame)
        };
        self.nodes[node].set(&mut self.arena, idx, link);
        self.nodes[node].set_kid(&mut self.arena, idx, child);
        (child, true)
    }

    /// The fault a fresh 4 KB leaf takes: under the huge-page policy one
    /// only ever sits below an entry whose 2 MB allocation failed.
    fn leaf_fault(&self) -> FaultKind {
        if self.layout.huge_leaf_at.is_some() {
            FaultKind::Fallback4K
        } else {
            FaultKind::Minor4K
        }
    }

    /// Descends to (creating as needed) the leaf-level node for `vpn`, or
    /// `None` if a 2 MB leaf maps it. An absent huge-level entry first
    /// tries a 2 MB block, as [`PageTable::map`] does; the leaf is written
    /// at once, so later ranges see it, and counted in `outcome`.
    fn leaf_node_for(
        &mut self,
        vpn: Vpn,
        alloc: &mut FrameAllocator,
        outcome: &mut RangeMapOutcome,
    ) -> Option<usize> {
        let levels = self.layout.levels;
        let mut node = 0;
        for (depth, level) in levels[..self.leaf_depth()].iter().enumerate() {
            let idx = level.index(vpn);
            let pte = self.nodes[node].get(&self.arena, idx);
            if pte.is_huge() {
                return None;
            }
            if !pte.is_present() && self.layout.huge_leaf_at == Some(level.level) {
                if let Some(base) =
                    alloc.alloc_contiguous(PageSize::Size2M.frames(), FramePurpose::Data)
                {
                    self.nodes[node].set(&mut self.arena, idx, Pte::huge_leaf(base));
                    self.mapped += 1;
                    outcome.minor_2m += 1;
                    return None;
                }
            }
            node = self.child_or_new(node, depth, idx, alloc).0;
        }
        Some(node)
    }

    /// Scans `pages` from `first` once, creating interior nodes and 2 MB
    /// leaves as needed and reserving backing frames for maximal runs of
    /// absent pages (bulk-bumped, preserving the per-page allocator call
    /// sequence); 4 KB leaf installs are recorded as plan segments. Shared
    /// by `map_range` (which applies immediately) and `plan_range`.
    fn plan_runs(&mut self, first: Vpn, pages: u64, alloc: &mut FrameAllocator) -> RangePlan {
        let leaf = self.layout.levels[self.leaf_depth()];
        let fault = self.leaf_fault();
        let mut plan = RangePlan::default();
        // One descent per leaf node's region: pages are ascending, so a
        // region's interior nodes or 2 MB leaf are made at its first page.
        let mut cached: Option<(u64, usize)> = None;
        let mut p = 0u64;
        while p < pages {
            let vpn = first.add(p);
            let region = vpn.as_u64() >> leaf.bits;
            let idx = leaf.index(vpn);
            let node = match cached {
                Some((r, node)) if r == region => node,
                _ => match self.leaf_node_for(vpn, alloc, &mut plan.outcome) {
                    Some(node) => {
                        cached = Some((region, node));
                        node
                    }
                    // A 2 MB leaf maps the rest of the region.
                    None => {
                        p += (leaf.entries() - idx) as u64;
                        continue;
                    }
                },
            };
            if self.nodes[node].get(&self.arena, idx).is_present() {
                p += 1;
                continue;
            }
            // Maximal run of absent pages within this leaf node: the
            // per-page loop would allocate one frame per iteration with
            // nothing in between, so the frames are consecutive either way.
            let max_run = (pages - p).min((leaf.entries() - idx) as u64) as usize;
            let mut run = 1;
            while run < max_run && !self.nodes[node].get(&self.arena, idx + run).is_present() {
                run += 1;
            }
            let first_pfn = alloc.alloc_data_frames(run as u64);
            plan.push(node, idx, run, first_pfn, fault);
            p += run as u64;
        }
        plan
    }

    fn install_plan(&mut self, plan: &RangePlan) {
        for seg in &plan.segments {
            self.nodes[seg.node as usize].set_leaf_run(
                &mut self.arena,
                seg.start as usize,
                seg.count as usize,
                |k| Pfn::new(seg.first_pfn + k as u64),
            );
            self.mapped += u64::from(seg.count);
        }
    }

    /// [`PageTable::translate`] on a layout `N` levels deep. The lookups
    /// take the depth as a constant so their per-level loop unrolls like a
    /// hand-written descent: bounded by the runtime depth instead, the same
    /// loop ran about 1.5x slower per lookup (2-vCPU Xeon, 50k scattered
    /// pages).
    #[inline]
    fn translate_at<const N: usize>(&self, vpn: Vpn) -> Option<Translation> {
        let levels: &[Level; N] = self.layout.levels.try_into().expect("layout depth");
        let mut node = 0;
        for (depth, &level) in levels.iter().enumerate() {
            let idx = level.index(vpn);
            let pte = self.nodes[node].get(&self.arena, idx);
            if !pte.is_present() {
                return None;
            }
            if pte.is_huge() || depth + 1 == N {
                return Some(leaf_translation(pte, level, vpn));
            }
            node = self.nodes[node].kid(&self.arena, idx)?;
        }
        None
    }

    /// [`PageTable::translate_and_walk`] on a layout `N` levels deep (see
    /// [`Self::translate_at`]): a single descent serving both results, the
    /// per-op hot path. Like a hardware walker, it stops at a present huge
    /// entry (the PS bit).
    #[inline]
    fn walk_at<const N: usize>(&self, vpn: Vpn) -> Option<(Translation, WalkPath)> {
        let levels: &[Level; N] = self.layout.levels.try_into().expect("layout depth");
        let mut path = WalkPath::empty();
        let mut node = 0;
        for (depth, &level) in levels.iter().enumerate() {
            let idx = level.index(vpn);
            path.push(WalkStep {
                addr: self.nodes[node].frame.entry_addr(idx),
                level: level.level,
                group: depth as u8,
            });
            let pte = self.nodes[node].get(&self.arena, idx);
            if !pte.is_present() {
                return None;
            }
            if pte.is_huge() || depth + 1 == N {
                return Some((leaf_translation(pte, level, vpn), path));
            }
            node = self.nodes[node].kid(&self.arena, idx)?;
        }
        None
    }
}

impl PageTable for Tree {
    fn kind(&self) -> PageTableKind {
        self.layout.kind
    }

    fn translate(&self, vpn: Vpn) -> Option<Translation> {
        match self.layout.levels.len() {
            3 => self.translate_at::<3>(vpn),
            _ => self.translate_at::<4>(vpn),
        }
    }

    fn map(&mut self, vpn: Vpn, alloc: &mut FrameAllocator) -> MapOutcome {
        let levels = self.layout.levels;
        let mut node = 0;
        let mut tables_allocated = 0;
        for (depth, &level) in levels[..self.leaf_depth()].iter().enumerate() {
            let idx = level.index(vpn);
            let pte = self.nodes[node].get(&self.arena, idx);
            if pte.is_huge() {
                return MapOutcome::already_mapped();
            }
            // THP: a fresh 2 MB region takes a huge leaf while contiguity
            // lasts, and otherwise falls back to a 4 KB leaf node below.
            if !pte.is_present() && self.layout.huge_leaf_at == Some(level.level) {
                if let Some(base) =
                    alloc.alloc_contiguous(PageSize::Size2M.frames(), FramePurpose::Data)
                {
                    self.nodes[node].set(&mut self.arena, idx, Pte::huge_leaf(base));
                    self.mapped += 1;
                    return MapOutcome {
                        newly_mapped: true,
                        fault: Some(FaultKind::Minor2M),
                        tables_allocated,
                    };
                }
            }
            let (child, created) = self.child_or_new(node, depth, idx, alloc);
            tables_allocated += u32::from(created);
            node = child;
        }
        let idx = levels[self.leaf_depth()].index(vpn);
        if self.nodes[node].get(&self.arena, idx).is_present() {
            return MapOutcome::already_mapped();
        }
        let frame = alloc.alloc_frame(FramePurpose::Data);
        self.nodes[node].set(&mut self.arena, idx, Pte::leaf(frame));
        self.mapped += 1;
        MapOutcome {
            newly_mapped: true,
            fault: Some(self.leaf_fault()),
            tables_allocated,
        }
    }

    fn map_range(&mut self, first: Vpn, pages: u64, alloc: &mut FrameAllocator) -> RangeMapOutcome {
        let plan = self.plan_runs(first, pages, alloc);
        self.install_plan(&plan);
        plan.outcome
    }

    /// Always `Some`: every layout's allocator calls (the huge-page
    /// policy's 2 MB attempts included) are made here, in `map` order.
    fn plan_range(
        &mut self,
        first: Vpn,
        pages: u64,
        alloc: &mut FrameAllocator,
    ) -> Option<RangePlan> {
        Some(self.plan_runs(first, pages, alloc))
    }

    fn apply_plan(&mut self, plan: &RangePlan) {
        self.install_plan(plan);
    }

    fn walk_path(&self, vpn: Vpn) -> Option<WalkPath> {
        self.translate_and_walk(vpn).map(|(_, path)| path)
    }

    fn translate_and_walk(&self, vpn: Vpn) -> Option<(Translation, WalkPath)> {
        match self.layout.levels.len() {
            3 => self.walk_at::<3>(vpn),
            _ => self.walk_at::<4>(vpn),
        }
    }

    fn occupancy(&self) -> OccupancyReport {
        let mut report = OccupancyReport::new();
        for (level, nodes) in self.layout.levels.iter().zip(&self.per_level) {
            if nodes.is_empty() {
                continue;
            }
            report.set(
                level.level,
                LevelOccupancy {
                    nodes: nodes.len() as u64,
                    valid_entries: nodes.iter().map(|&i| u64::from(self.nodes[i].valid)).sum(),
                    capacity: (nodes.len() * level.entries()) as u64,
                },
            );
        }
        report
    }

    fn mapped_pages(&self) -> u64 {
        self.mapped
    }

    fn table_bytes(&self) -> u64 {
        self.layout
            .levels
            .iter()
            .zip(&self.per_level)
            .map(|(level, nodes)| nodes.len() as u64 * level.frames() * PAGE_SIZE)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_types::addr::ENTRIES_PER_FLAT_NODE;

    #[test]
    fn layouts_index_the_whole_vpn_with_the_radix_fields() {
        for layout in LAYOUTS {
            // The lookups dispatch on these two depths.
            assert!(matches!(layout.levels.len(), 3 | 4), "{}", layout.name);
            let bits: u32 = layout.levels.iter().map(|l| l.bits).sum();
            assert_eq!(bits, 4 * LEVEL_BITS, "{}", layout.name);
            assert_eq!(layout.levels.last().unwrap().shift, 0, "{}", layout.name);
        }
        let flat = NDPAGE.levels[2];
        assert_eq!(flat.level, PtLevel::FlatL2L1);
        assert_eq!(flat.bits, 18);
        assert_eq!(flat.entries() as u64, ENTRIES_PER_FLAT_NODE);
        assert_eq!(RADIX.levels[2].bits, 9);
        for raw in [
            0u64,
            1,
            511,
            512,
            0x3ffff,
            0x40000,
            0xdead_beef,
            0xf_ffff_ffff,
        ] {
            let vpn = Vpn::new(raw);
            let radix: Vec<usize> = RADIX.levels.iter().map(|l| l.index(vpn)).collect();
            let fields = vec![
                vpn.l4_index(),
                vpn.l3_index(),
                vpn.l2_index(),
                vpn.l1_index(),
            ];
            assert_eq!(radix, fields, "{raw:#x}");
            // The flattened index is L2 concatenated with L1 ...
            assert_eq!(flat.index(vpn), (vpn.l2_index() << 9) | vpn.l1_index());
            // ... and the top-flattened root's is L4 concatenated with L3.
            let root = TOP_FLATTENED.levels[0];
            assert_eq!(root.index(vpn), (vpn.l4_index() << 9) | vpn.l3_index());
        }
    }

    #[test]
    fn node_storage_matches_level_width() {
        assert_eq!(RADIX.levels[0].frames(), 1);
        assert_eq!(NDPAGE.levels[2].frames() * PAGE_SIZE, 2 << 20);
        assert_eq!(TOP_FLATTENED.levels[0].frames() * PAGE_SIZE, 2 << 20);
    }

    #[test]
    fn huge_leaf_level_spans_one_2mb_page() {
        let at = HUGE_PAGE.huge_leaf_at.expect("huge layout");
        let level = HUGE_PAGE.levels.iter().find(|l| l.level == at).unwrap();
        assert_eq!(1u64 << level.shift, PageSize::Size2M.frames());
        for layout in [&RADIX, &NDPAGE, &TOP_FLATTENED] {
            assert!(layout.huge_leaf_at.is_none(), "{}", layout.name);
        }
    }

    /// The FLATTENED bit means "the next level is a merged L2/L1 node"
    /// (§V-B): only NDPage's L3 → flat links carry it, in every layout.
    #[test]
    fn links_carry_flattened_bit_exactly_above_flat_l2l1() {
        for layout in LAYOUTS {
            let mut alloc = FrameAllocator::new(1 << 30);
            let mut t = Tree::new(layout, &mut alloc);
            let vpn = Vpn::new(0x12_3456);
            t.map(vpn, &mut alloc);
            let mut node = 0;
            let mut links = 0;
            for (depth, level) in layout.levels.iter().enumerate() {
                let idx = level.index(vpn);
                let pte = t.nodes[node].get(&t.arena, idx);
                assert!(pte.is_present(), "{}", layout.name);
                if pte.is_huge() || depth + 1 == layout.levels.len() {
                    assert!(!pte.is_flattened(), "{}: leaf", layout.name);
                    break;
                }
                let child = layout.levels[depth + 1].level;
                assert_eq!(
                    pte.is_flattened(),
                    child == PtLevel::FlatL2L1,
                    "{}: link to {child}",
                    layout.name
                );
                links += 1;
                node = t.nodes[node].kid(&t.arena, idx).unwrap();
            }
            let expected = if layout.huge_leaf_at.is_some() {
                2 // PL4 → PL3 → PL2, which holds the huge leaf
            } else {
                layout.levels.len() - 1
            };
            assert_eq!(links, expected, "{}", layout.name);
        }
    }

    #[test]
    fn every_layout_plans() {
        for layout in LAYOUTS {
            let mut alloc = FrameAllocator::new(1 << 30);
            let mut t = Tree::new(layout, &mut alloc);
            let plan = t.plan_range(Vpn::new(0), 8, &mut alloc);
            assert!(plan.is_some(), "{}", layout.name);
        }
    }
}
