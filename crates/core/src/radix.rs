//! The conventional x86-64 4-level radix page table (the paper's baseline).

use crate::alloc::{FrameAllocator, FramePurpose};
use crate::arena::{Node, PteArena};
use crate::occupancy::{LevelOccupancy, OccupancyReport};
use crate::pte::Pte;
use crate::table::{
    FaultKind, MapOutcome, PageTable, PageTableKind, RangeMapOutcome, RangePlan, Translation,
};
use crate::walk::{WalkPath, WalkStep};
use ndp_types::addr::{ENTRIES_PER_NODE, PAGE_SIZE};
use ndp_types::{PageSize, Pfn, PtLevel, Vpn};

const NODE_ENTRIES: usize = ENTRIES_PER_NODE as usize;

/// The baseline 4-level radix tree ("Radix" in Figs 12–14).
///
/// Node entries live in a contiguous [`PteArena`] slab; each node also owns
/// a real physical frame from the [`FrameAllocator`] so that
/// [`walk_path`](PageTable::walk_path) reports genuine PTE addresses (which
/// the DRAM model banks on — literally). Descents follow the arena's
/// child-handle lane instead of a frame→node hash map.
#[derive(Debug, Clone)]
pub struct Radix4 {
    arena: PteArena,
    nodes: Vec<Node>,
    /// per-level node lists: [L4, L3, L2, L1] indices.
    per_level: [Vec<usize>; 4],
    root: usize,
    mapped: u64,
}

impl Radix4 {
    /// Creates an empty table, allocating the root node.
    #[must_use]
    pub fn new(alloc: &mut FrameAllocator) -> Self {
        let mut t = Radix4 {
            arena: PteArena::new(),
            nodes: Vec::new(),
            per_level: [Vec::new(), Vec::new(), Vec::new(), Vec::new()],
            root: 0,
            mapped: 0,
        };
        t.root = t.new_node(alloc, 0);
        t
    }

    fn new_node(&mut self, alloc: &mut FrameAllocator, level_idx: usize) -> usize {
        let frame = alloc.alloc_frame(FramePurpose::PageTable);
        let idx = self.nodes.len();
        // L1 nodes hold only leaves; no child lane needed.
        let track_kids = level_idx < 3;
        self.nodes
            .push(Node::new(frame, NODE_ENTRIES, track_kids, &mut self.arena));
        self.per_level[level_idx].push(idx);
        idx
    }

    /// Descends to (creating as needed) the L1 node for `vpn`, returning
    /// its arena index and how many interior nodes were allocated.
    fn leaf_node_for(&mut self, vpn: Vpn, alloc: &mut FrameAllocator) -> (usize, u32) {
        let mut node = self.root;
        let mut tables_allocated = 0;
        for (depth, level) in PtLevel::RADIX_WALK.iter().enumerate().take(3) {
            let idx = vpn.index_for(*level);
            let pte = self.nodes[node].get(&self.arena, idx);
            node = if pte.is_present() {
                self.nodes[node]
                    .kid(&self.arena, idx)
                    .expect("interior PTE links its child node")
            } else {
                let child = self.new_node(alloc, depth + 1);
                tables_allocated += 1;
                let child_frame = self.nodes[child].frame;
                self.nodes[node].set(&mut self.arena, idx, Pte::next(child_frame));
                self.nodes[node].set_kid(&mut self.arena, idx, child);
                child
            };
        }
        (node, tables_allocated)
    }

    /// Scans `pages` from `first` once, creating interior nodes as needed
    /// and reserving backing frames for maximal runs of absent pages
    /// (bulk-bumped, preserving the per-page allocator call sequence);
    /// leaf installs are recorded as plan segments. Shared by `map_range`
    /// (which applies immediately) and `plan_range` (which defers).
    fn plan_runs(&mut self, first: Vpn, pages: u64, alloc: &mut FrameAllocator) -> RangePlan {
        let mut plan = RangePlan::default();
        let mut cached: Option<(Vpn, usize)> = None;
        let mut p = 0u64;
        while p < pages {
            let vpn = first.add(p);
            let region = vpn.huge_aligned();
            let leaf = match cached {
                Some((base, node)) if base == region => node,
                _ => {
                    let (node, _) = self.leaf_node_for(vpn, alloc);
                    cached = Some((region, node));
                    node
                }
            };
            let idx = vpn.l1_index();
            if self.nodes[leaf].get(&self.arena, idx).is_present() {
                p += 1;
                continue;
            }
            // Maximal run of absent pages within this L1 node: the
            // per-page loop would allocate one frame per iteration with
            // nothing in between, so the frames are consecutive either way.
            let max_run = (pages - p).min((NODE_ENTRIES - idx) as u64) as usize;
            let mut run = 1;
            while run < max_run && !self.nodes[leaf].get(&self.arena, idx + run).is_present() {
                run += 1;
            }
            let first_pfn = alloc.alloc_data_frames(run as u64);
            plan.push(leaf, idx, run, first_pfn);
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

    /// Walks down to the node at `level_idx` (0=L4 .. 3=L1) for `vpn`,
    /// returning its arena index, or `None` where the path is unmapped.
    fn descend(&self, vpn: Vpn, level_idx: usize) -> Option<usize> {
        let mut node = self.root;
        for level in PtLevel::RADIX_WALK.iter().take(level_idx) {
            let idx = vpn.index_for(*level);
            if !self.nodes[node].get(&self.arena, idx).is_present() {
                return None;
            }
            node = self.nodes[node].kid(&self.arena, idx)?;
        }
        Some(node)
    }
}

impl PageTable for Radix4 {
    fn kind(&self) -> PageTableKind {
        PageTableKind::Radix4
    }

    fn translate(&self, vpn: Vpn) -> Option<Translation> {
        let leaf = self.descend(vpn, 3)?;
        let pte = self.nodes[leaf].get(&self.arena, vpn.l1_index());
        pte.is_present().then(|| Translation {
            pfn: pte.pfn(),
            size: PageSize::Size4K,
        })
    }

    fn map(&mut self, vpn: Vpn, alloc: &mut FrameAllocator) -> MapOutcome {
        let (node, tables_allocated) = self.leaf_node_for(vpn, alloc);
        let l1 = vpn.l1_index();
        if self.nodes[node].get(&self.arena, l1).is_present() {
            return MapOutcome::already_mapped();
        }
        let frame = alloc.alloc_frame(FramePurpose::Data);
        self.nodes[node].set(&mut self.arena, l1, Pte::leaf(frame));
        self.mapped += 1;
        MapOutcome {
            newly_mapped: true,
            fault: Some(FaultKind::Minor4K),
            tables_allocated,
        }
    }

    fn map_range(&mut self, first: Vpn, pages: u64, alloc: &mut FrameAllocator) -> RangeMapOutcome {
        // One descent per touched 2 MB region and one frame-allocator bump
        // per run of absent pages, instead of one of each per page; the
        // allocator call sequence and resulting structure match the
        // per-page loop exactly (pages are ascending, so a region's
        // interior nodes are created at its first page either way).
        let plan = self.plan_runs(first, pages, alloc);
        self.install_plan(&plan);
        plan.outcome
    }

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
        // Single descent serving both results (the default would descend
        // three times); per-op hot path.
        let mut path = WalkPath::empty();
        let mut node = self.root;
        let mut leaf = Pte::NULL;
        for (group, level) in PtLevel::RADIX_WALK.iter().enumerate() {
            let idx = vpn.index_for(*level);
            path.push(WalkStep {
                addr: self.nodes[node].frame.entry_addr(idx),
                level: *level,
                group: group as u8,
            });
            let pte = self.nodes[node].get(&self.arena, idx);
            if !pte.is_present() {
                return None;
            }
            if group < 3 {
                node = self.nodes[node].kid(&self.arena, idx)?;
            } else {
                leaf = pte;
            }
        }
        Some((
            Translation {
                pfn: leaf.pfn(),
                size: PageSize::Size4K,
            },
            path,
        ))
    }

    fn occupancy(&self) -> OccupancyReport {
        let mut report = OccupancyReport::new();
        for (depth, level) in PtLevel::RADIX_WALK.iter().enumerate() {
            let nodes = &self.per_level[depth];
            let valid: u64 = nodes.iter().map(|&i| u64::from(self.nodes[i].valid)).sum();
            report.set(
                *level,
                LevelOccupancy {
                    nodes: nodes.len() as u64,
                    valid_entries: valid,
                    capacity: nodes.len() as u64 * ENTRIES_PER_NODE,
                },
            );
        }
        report
    }

    fn mapped_pages(&self) -> u64 {
        self.mapped
    }

    fn table_bytes(&self) -> u64 {
        self.nodes.len() as u64 * PAGE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_types::VirtAddr;

    fn setup() -> (FrameAllocator, Radix4) {
        let mut alloc = FrameAllocator::new(1 << 30);
        let table = Radix4::new(&mut alloc);
        (alloc, table)
    }

    #[test]
    fn unmapped_translates_to_none() {
        let (_, t) = setup();
        assert!(t.translate(Vpn::new(0x1234)).is_none());
        assert!(t.walk_path(Vpn::new(0x1234)).is_none());
        assert_eq!(t.mapped_pages(), 0);
    }

    #[test]
    fn map_then_translate() {
        let (mut alloc, mut t) = setup();
        let vpn = VirtAddr::new(0x7f12_3456_7000).vpn();
        let o = t.map(vpn, &mut alloc);
        assert!(o.newly_mapped);
        assert_eq!(o.fault, Some(FaultKind::Minor4K));
        assert_eq!(o.tables_allocated, 3); // fresh L3, L2, L1 nodes
        let tr = t.translate(vpn).unwrap();
        assert_eq!(tr.size, PageSize::Size4K);
        assert_eq!(t.mapped_pages(), 1);
    }

    #[test]
    fn remap_is_idempotent() {
        let (mut alloc, mut t) = setup();
        let vpn = Vpn::new(42);
        let first = t.map(vpn, &mut alloc).fault;
        let tr1 = t.translate(vpn).unwrap();
        let again = t.map(vpn, &mut alloc);
        assert!(!again.newly_mapped);
        assert_eq!(first, Some(FaultKind::Minor4K));
        assert_eq!(t.translate(vpn).unwrap(), tr1);
        assert_eq!(t.mapped_pages(), 1);
    }

    #[test]
    fn neighbours_share_interior_nodes() {
        let (mut alloc, mut t) = setup();
        let a = Vpn::new(0x100);
        let b = Vpn::new(0x101); // same L1 node
        let o1 = t.map(a, &mut alloc);
        let o2 = t.map(b, &mut alloc);
        assert_eq!(o1.tables_allocated, 3);
        assert_eq!(o2.tables_allocated, 0);
        assert_ne!(t.translate(a).unwrap().pfn, t.translate(b).unwrap().pfn);
    }

    #[test]
    fn walk_has_four_sequential_levels() {
        let (mut alloc, mut t) = setup();
        let vpn = Vpn::new(0xabcdef);
        t.map(vpn, &mut alloc);
        let path = t.walk_path(vpn).unwrap();
        assert_eq!(path.len(), 4);
        assert_eq!(path.sequential_depth(), 4);
        let levels: Vec<PtLevel> = path.steps().iter().map(|s| s.level).collect();
        assert_eq!(levels, PtLevel::RADIX_WALK.to_vec());
    }

    #[test]
    fn walk_addresses_are_in_table_frames() {
        let (mut alloc, mut t) = setup();
        let vpn = Vpn::new(0x7777);
        t.map(vpn, &mut alloc);
        for step in t.walk_path(vpn).unwrap().steps() {
            assert!(alloc.is_table_frame(step.addr.pfn()), "step {step:?}");
        }
    }

    #[test]
    fn occupancy_dense_2mb_region_fills_l1() {
        let (mut alloc, mut t) = setup();
        // Map an entire 2 MB region: 512 consecutive pages.
        for i in 0..512 {
            t.map(Vpn::new(i), &mut alloc);
        }
        let occ = t.occupancy();
        let l1 = occ.level(PtLevel::L1).unwrap();
        assert_eq!(l1.nodes, 1);
        assert!((l1.rate() - 1.0).abs() < 1e-12, "L1 fully occupied");
        let l4 = occ.level(PtLevel::L4).unwrap();
        assert!(l4.rate() < 0.01, "root nearly empty");
    }

    #[test]
    fn table_bytes_counts_nodes() {
        let (mut alloc, mut t) = setup();
        assert_eq!(t.table_bytes(), PAGE_SIZE); // root only
        t.map(Vpn::new(0), &mut alloc);
        assert_eq!(t.table_bytes(), 4 * PAGE_SIZE);
    }

    #[test]
    fn map_range_matches_per_page_maps() {
        let (mut alloc_a, mut ranged) = setup();
        let (mut alloc_b, mut paged) = setup();
        // Two ranges with a gap, the second re-mapping part of the first
        // (so the present-page skip path is exercised mid-range).
        let spans = [(0u64, 700u64), (2000, 300), (400, 400)];
        let mut totals_a = RangeMapOutcome::default();
        let mut totals_b = RangeMapOutcome::default();
        for (start, pages) in spans {
            totals_a.absorb_range(ranged.map_range(Vpn::new(start), pages, &mut alloc_a));
            for p in 0..pages {
                totals_b.absorb(paged.map(Vpn::new(start + p), &mut alloc_b));
            }
        }
        assert_eq!(totals_a, totals_b);
        assert_eq!(alloc_a.frames_used(), alloc_b.frames_used());
        assert_eq!(alloc_a.contig_free_bytes(), alloc_b.contig_free_bytes());
        assert_eq!(ranged.mapped_pages(), paged.mapped_pages());
        for vpn in (0..800).chain(1990..2310).map(Vpn::new) {
            assert_eq!(ranged.translate(vpn), paged.translate(vpn), "{vpn:?}");
        }
    }

    #[test]
    fn plan_then_apply_matches_map_range() {
        let (mut alloc_a, mut planned) = setup();
        let (mut alloc_b, mut direct) = setup();
        let first = Vpn::new(0x3f0); // straddles a 2 MB region boundary
        let plan = planned
            .plan_range(first, 1000, &mut alloc_a)
            .expect("radix plans");
        // Allocator effects happen at plan time; visibility at apply time.
        assert_eq!(alloc_a.frames_used(), {
            direct.map_range(first, 1000, &mut alloc_b);
            alloc_b.frames_used()
        });
        assert!(
            planned.translate(first).is_none(),
            "not visible before apply"
        );
        assert_eq!(planned.mapped_pages(), 0);
        planned.apply_plan(&plan);
        assert_eq!(plan.outcome.minor_4k, 1000);
        assert_eq!(plan.pages(), 1000);
        assert_eq!(planned.mapped_pages(), direct.mapped_pages());
        for p in 0..1000 {
            let vpn = first.add(p);
            assert_eq!(planned.translate(vpn), direct.translate(vpn), "{vpn:?}");
        }
    }

    /// Maps enough pages through one table that its arena crosses the
    /// default slab capacity (2²¹ entries ≈ 4100 radix nodes) — the
    /// boundary that replaced the old single-slab arena's `u32`-offset
    /// panic ("PTE slab outgrew u32 offsets"), whose literal 2³²-entry
    /// trigger needs ~34 GB of slab and is exercised at reduced capacity
    /// in `arena::tests` instead.
    #[test]
    fn arena_crosses_default_slab_capacity_under_map_range() {
        let pages = (1u64 << 21) + 512;
        // Frames: `pages` data + ~4110 table + slack; 4 KB each.
        let mut alloc = FrameAllocator::new((pages + 8192) * PAGE_SIZE);
        let mut t = Radix4::new(&mut alloc);
        let outcome = t.map_range(Vpn::new(0), pages, &mut alloc);
        assert_eq!(outcome.minor_4k, pages);
        assert_eq!(t.mapped_pages(), pages);
        for vpn in [0, 1 << 20, (1 << 21) - 1, pages - 1].map(Vpn::new) {
            let tr = t.translate(vpn).expect("mapped");
            assert_eq!(t.walk_path(vpn).map(|p| p.len()), Some(4), "{vpn:?}");
            assert!(tr.pfn.as_u64() > 0);
        }
        assert!(t.translate(Vpn::new(pages)).is_none());
    }

    #[test]
    fn distinct_pages_get_distinct_frames() {
        let (mut alloc, mut t) = setup();
        let mut seen = ndp_types::FastSet::default();
        for i in 0..1000u64 {
            let vpn = Vpn::new(i * 7919); // scattered
            t.map(vpn, &mut alloc);
            assert!(seen.insert(t.translate(vpn).unwrap().pfn));
        }
    }
}
