//! NDPage's flattened L2/L1 page table (§V-B) — the paper's second
//! mechanism.
//!
//! The tree keeps its L4 and L3 levels but replaces every L2 node *and its
//! up-to-512 L1 children* with one **flattened node**: a single 2 MB,
//! physically contiguous table of 2^18 entries indexed by the low 18
//! translation bits of the VPN. Every walk is therefore exactly three
//! sequential accesses — L4, L3, flat — while data pages stay 4 KB, so none
//! of Huge Page's contiguity/bloat pathologies apply to *data* (only each
//! flat node itself needs one 2 MB table allocation, which the OS reserves
//! like any page-table storage).

use crate::alloc::{FrameAllocator, FramePurpose};
use crate::arena::{Node, PteArena};
use crate::occupancy::{LevelOccupancy, OccupancyReport};
use crate::pte::Pte;
use crate::table::{
    FaultKind, MapOutcome, PageTable, PageTableKind, RangeMapOutcome, RangePlan, Translation,
};
use crate::walk::{WalkPath, WalkStep};
use ndp_types::addr::{ENTRIES_PER_FLAT_NODE, ENTRIES_PER_NODE, PAGE_SIZE};
use ndp_types::{PageSize, Pfn, PtLevel, Vpn};

const NODE_ENTRIES: usize = ENTRIES_PER_NODE as usize;
const FLAT_ENTRIES: usize = ENTRIES_PER_FLAT_NODE as usize;
/// Frames backing one flattened node (2 MB / 4 KB).
const FLAT_NODE_FRAMES: u64 = (ENTRIES_PER_FLAT_NODE * 8) / PAGE_SIZE;

/// The flattened L2/L1 page table ("NDPage" in Figs 12–14, combined with
/// the bypass policy).
#[derive(Debug, Clone)]
pub struct FlattenedL2L1 {
    arena: PteArena,
    /// Interior nodes: index 0 = root (L4), rest are L3 nodes. Their
    /// child-handle lanes index `nodes` (root) or `flat_nodes` (L3s).
    nodes: Vec<Node>,
    /// Flattened leaf nodes (2^18 entries each).
    flat_nodes: Vec<Node>,
    l3_nodes: Vec<usize>,
    root: usize,
    mapped: u64,
}

impl FlattenedL2L1 {
    /// Creates an empty table, allocating the root node.
    #[must_use]
    pub fn new(alloc: &mut FrameAllocator) -> Self {
        let mut t = FlattenedL2L1 {
            arena: PteArena::new(),
            nodes: Vec::new(),
            flat_nodes: Vec::new(),
            l3_nodes: Vec::new(),
            root: 0,
            mapped: 0,
        };
        t.root = t.new_interior(alloc, false);
        t
    }

    fn new_interior(&mut self, alloc: &mut FrameAllocator, is_l3: bool) -> usize {
        let frame = alloc.alloc_frame(FramePurpose::PageTable);
        let idx = self.nodes.len();
        self.nodes
            .push(Node::new(frame, NODE_ENTRIES, true, &mut self.arena));
        if is_l3 {
            self.l3_nodes.push(idx);
        }
        idx
    }

    fn new_flat(&mut self, alloc: &mut FrameAllocator) -> usize {
        let frame = alloc
            .alloc_contiguous(FLAT_NODE_FRAMES, FramePurpose::PageTable)
            .expect("page-table reservations always succeed");
        let idx = self.flat_nodes.len();
        self.flat_nodes
            .push(Node::new(frame, FLAT_ENTRIES, false, &mut self.arena));
        idx
    }

    /// Descends to (creating as needed) the flattened node for `vpn`,
    /// returning its arena index and how many nodes were allocated.
    fn flat_node_for(&mut self, vpn: Vpn, alloc: &mut FrameAllocator) -> (usize, u32) {
        let mut tables_allocated = 0;

        let l4_idx = vpn.l4_index();
        let l3 = if self.nodes[self.root].get(&self.arena, l4_idx).is_present() {
            self.nodes[self.root]
                .kid(&self.arena, l4_idx)
                .expect("root PTE links its L3 node")
        } else {
            let n = self.new_interior(alloc, true);
            tables_allocated += 1;
            let f = self.nodes[n].frame;
            self.nodes[self.root].set(&mut self.arena, l4_idx, Pte::next(f));
            self.nodes[self.root].set_kid(&mut self.arena, l4_idx, n);
            n
        };

        let l3_idx = vpn.l3_index();
        let flat = if self.nodes[l3].get(&self.arena, l3_idx).is_present() {
            self.nodes[l3]
                .kid(&self.arena, l3_idx)
                .expect("L3 PTE links its flattened node")
        } else {
            let n = self.new_flat(alloc);
            tables_allocated += 1;
            let f = self.flat_nodes[n].frame;
            self.nodes[l3].set(&mut self.arena, l3_idx, Pte::next_flattened(f));
            self.nodes[l3].set_kid(&mut self.arena, l3_idx, n);
            n
        };
        (flat, tables_allocated)
    }

    /// Scans `pages` from `first` once, creating L3/flat nodes as needed
    /// and reserving backing frames for maximal runs of absent pages
    /// (bulk-bumped, preserving the per-page allocator call sequence);
    /// leaf installs are recorded as plan segments. Shared by `map_range`
    /// (which applies immediately) and `plan_range` (which defers).
    fn plan_runs(&mut self, first: Vpn, pages: u64, alloc: &mut FrameAllocator) -> RangePlan {
        let mut plan = RangePlan::default();
        let mut cached: Option<(u64, usize)> = None;
        let mut p = 0u64;
        while p < pages {
            let vpn = first.add(p);
            let region = vpn.as_u64() & !(ENTRIES_PER_FLAT_NODE - 1);
            let flat = match cached {
                Some((base, node)) if base == region => node,
                _ => {
                    let (node, _) = self.flat_node_for(vpn, alloc);
                    cached = Some((region, node));
                    node
                }
            };
            let fi = vpn.flat_l2l1_index();
            if self.flat_nodes[flat].get(&self.arena, fi).is_present() {
                p += 1;
                continue;
            }
            // Maximal run of absent pages within this flat node: the
            // per-page loop would allocate one frame per iteration with
            // nothing in between, so the frames are consecutive either way.
            let max_run = (pages - p).min((FLAT_ENTRIES - fi) as u64) as usize;
            let mut run = 1;
            while run < max_run
                && !self.flat_nodes[flat]
                    .get(&self.arena, fi + run)
                    .is_present()
            {
                run += 1;
            }
            let first_pfn = alloc.alloc_data_frames(run as u64);
            plan.push(flat, fi, run, first_pfn);
            p += run as u64;
        }
        plan
    }

    fn install_plan(&mut self, plan: &RangePlan) {
        for seg in &plan.segments {
            self.flat_nodes[seg.node as usize].set_leaf_run(
                &mut self.arena,
                seg.start as usize,
                seg.count as usize,
                |k| Pfn::new(seg.first_pfn + k as u64),
            );
            self.mapped += u64::from(seg.count);
        }
    }

    /// Resolves `(l3_node, flat_node)` indices for `vpn`, if mapped that far.
    fn descend(&self, vpn: Vpn) -> Option<(usize, usize)> {
        let l4_idx = vpn.l4_index();
        if !self.nodes[self.root].get(&self.arena, l4_idx).is_present() {
            return None;
        }
        let l3 = self.nodes[self.root].kid(&self.arena, l4_idx)?;
        let l3_idx = vpn.l3_index();
        let l3e = self.nodes[l3].get(&self.arena, l3_idx);
        if !l3e.is_present() {
            return None;
        }
        debug_assert!(l3e.is_flattened(), "L3 entries point to flattened nodes");
        let flat = self.nodes[l3].kid(&self.arena, l3_idx)?;
        Some((l3, flat))
    }
}

impl PageTable for FlattenedL2L1 {
    fn kind(&self) -> PageTableKind {
        PageTableKind::FlattenedL2L1
    }

    fn translate(&self, vpn: Vpn) -> Option<Translation> {
        let (_, flat) = self.descend(vpn)?;
        let pte = self.flat_nodes[flat].get(&self.arena, vpn.flat_l2l1_index());
        pte.is_present().then(|| Translation {
            pfn: pte.pfn(),
            size: PageSize::Size4K,
        })
    }

    fn map(&mut self, vpn: Vpn, alloc: &mut FrameAllocator) -> MapOutcome {
        let (flat, tables_allocated) = self.flat_node_for(vpn, alloc);
        let fi = vpn.flat_l2l1_index();
        if self.flat_nodes[flat].get(&self.arena, fi).is_present() {
            return MapOutcome::already_mapped();
        }
        let frame = alloc.alloc_frame(FramePurpose::Data);
        self.flat_nodes[flat].set(&mut self.arena, fi, Pte::leaf(frame));
        self.mapped += 1;
        MapOutcome {
            newly_mapped: true,
            fault: Some(FaultKind::Minor4K),
            tables_allocated,
        }
    }

    fn map_range(&mut self, first: Vpn, pages: u64, alloc: &mut FrameAllocator) -> RangeMapOutcome {
        // One descent per touched 1 GB flat-node region and one
        // frame-allocator bump per run of absent pages, instead of one of
        // each per page; allocation order matches the per-page loop exactly.
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
        // Single descent serving both results; per-op hot path.
        let (l3, flat) = self.descend(vpn)?;
        let pte = self.flat_nodes[flat].get(&self.arena, vpn.flat_l2l1_index());
        if !pte.is_present() {
            return None;
        }
        let path = WalkPath::of([
            WalkStep {
                addr: self.nodes[self.root].frame.entry_addr(vpn.l4_index()),
                level: PtLevel::L4,
                group: 0,
            },
            WalkStep {
                addr: self.nodes[l3].frame.entry_addr(vpn.l3_index()),
                level: PtLevel::L3,
                group: 1,
            },
            WalkStep {
                addr: self.flat_nodes[flat]
                    .frame
                    .entry_addr(vpn.flat_l2l1_index()),
                level: PtLevel::FlatL2L1,
                group: 2,
            },
        ]);
        Some((
            Translation {
                pfn: pte.pfn(),
                size: PageSize::Size4K,
            },
            path,
        ))
    }

    fn occupancy(&self) -> OccupancyReport {
        let mut report = OccupancyReport::new();
        report.set(
            PtLevel::L4,
            LevelOccupancy {
                nodes: 1,
                valid_entries: u64::from(self.nodes[self.root].valid),
                capacity: ENTRIES_PER_NODE,
            },
        );
        let l3_valid: u64 = self
            .l3_nodes
            .iter()
            .map(|&i| u64::from(self.nodes[i].valid))
            .sum();
        report.set(
            PtLevel::L3,
            LevelOccupancy {
                nodes: self.l3_nodes.len() as u64,
                valid_entries: l3_valid,
                capacity: self.l3_nodes.len() as u64 * ENTRIES_PER_NODE,
            },
        );
        let flat_valid: u64 = self.flat_nodes.iter().map(|n| u64::from(n.valid)).sum();
        report.set(
            PtLevel::FlatL2L1,
            LevelOccupancy {
                nodes: self.flat_nodes.len() as u64,
                valid_entries: flat_valid,
                capacity: self.flat_nodes.len() as u64 * ENTRIES_PER_FLAT_NODE,
            },
        );
        report
    }

    fn mapped_pages(&self) -> u64 {
        self.mapped
    }

    fn table_bytes(&self) -> u64 {
        self.nodes.len() as u64 * PAGE_SIZE
            + self.flat_nodes.len() as u64 * FLAT_NODE_FRAMES * PAGE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radix::Radix4;
    use ndp_types::VirtAddr;

    fn setup() -> (FrameAllocator, FlattenedL2L1) {
        let mut alloc = FrameAllocator::new(2 << 30);
        let table = FlattenedL2L1::new(&mut alloc);
        (alloc, table)
    }

    #[test]
    fn map_translate_round_trip() {
        let (mut alloc, mut t) = setup();
        let vpn = VirtAddr::new(0x7f12_3456_7000).vpn();
        let o = t.map(vpn, &mut alloc);
        assert!(o.newly_mapped);
        assert_eq!(o.tables_allocated, 2); // one L3, one flat node
        assert!(t.translate(vpn).is_some());
        assert!(t.map(vpn, &mut alloc).fault.is_none());
    }

    #[test]
    fn walk_is_three_sequential_steps() {
        let (mut alloc, mut t) = setup();
        let vpn = Vpn::new(0xfeed_beef);
        t.map(vpn, &mut alloc);
        let path = t.walk_path(vpn).unwrap();
        assert_eq!(path.len(), 3);
        assert_eq!(path.sequential_depth(), 3);
        assert_eq!(path.steps()[2].level, PtLevel::FlatL2L1);
    }

    #[test]
    fn flat_node_spans_a_1gb_region() {
        let (mut alloc, mut t) = setup();
        // Two VPNs 512 MB apart share L3 entry? No: flat node covers 2^18
        // pages = 1 GB. Same L3 index → same flat node.
        let a = Vpn::new(0);
        let b = Vpn::new(ENTRIES_PER_FLAT_NODE - 1);
        let c = Vpn::new(ENTRIES_PER_FLAT_NODE); // next flat node
        t.map(a, &mut alloc);
        let o_b = t.map(b, &mut alloc);
        assert_eq!(o_b.tables_allocated, 0, "same flat node");
        let o_c = t.map(c, &mut alloc);
        assert_eq!(o_c.tables_allocated, 1, "new flat node");
    }

    #[test]
    fn walk_addresses_live_in_table_frames_and_flat_entry_offsets_work() {
        let (mut alloc, mut t) = setup();
        let vpn = Vpn::new(0x3_ffff); // maximal flat index
        t.map(vpn, &mut alloc);
        let path = t.walk_path(vpn).unwrap();
        for step in path.steps() {
            assert!(alloc.is_table_frame(step.addr.pfn()), "step {step:?}");
        }
        // The last step's offset within the flat node is index*8 bytes.
        let flat_step = path.steps()[2];
        let base = flat_step.addr.as_u64() & !((FLAT_NODE_FRAMES * PAGE_SIZE) - 1);
        assert_eq!(flat_step.addr.as_u64() - base, 0x3_ffff * 8);
    }

    #[test]
    fn same_translations_as_radix_for_same_mapping_order() {
        // Both designs must implement the same virtual→physical function
        // given the same allocator sequence is not required — but each must
        // be internally consistent: every mapped VPN translates to the frame
        // it was given at map time, and distinct VPNs get distinct frames.
        let mut alloc_a = FrameAllocator::new(1 << 30);
        let mut alloc_b = FrameAllocator::new(1 << 30);
        let mut flat = FlattenedL2L1::new(&mut alloc_a);
        let mut radix = Radix4::new(&mut alloc_b);
        let vpns: Vec<Vpn> = (0..300u64).map(|i| Vpn::new(i * 104_729)).collect();
        for &v in &vpns {
            flat.map(v, &mut alloc_a);
            radix.map(v, &mut alloc_b);
        }
        let mut flat_frames = ndp_types::FastSet::default();
        for &v in &vpns {
            assert!(flat_frames.insert(flat.translate(v).unwrap().pfn));
            assert!(radix.translate(v).is_some());
        }
        assert_eq!(flat.mapped_pages(), radix.mapped_pages());
    }

    #[test]
    fn occupancy_reports_flat_level() {
        let (mut alloc, mut t) = setup();
        for i in 0..1000 {
            t.map(Vpn::new(i), &mut alloc);
        }
        let occ = t.occupancy();
        let flat = occ.level(PtLevel::FlatL2L1).unwrap();
        assert_eq!(flat.nodes, 1);
        assert_eq!(flat.valid_entries, 1000);
        assert!(occ.level(PtLevel::L2).is_none(), "no separate L2 level");
        assert!(occ.level(PtLevel::L1).is_none(), "no separate L1 level");
    }

    #[test]
    fn table_bytes_includes_2mb_flat_nodes() {
        let (mut alloc, mut t) = setup();
        t.map(Vpn::new(0), &mut alloc);
        // root (4K) + one L3 (4K) + one flat node (2M).
        assert_eq!(t.table_bytes(), 2 * PAGE_SIZE + 2 * 1024 * 1024);
    }

    #[test]
    fn plan_then_apply_matches_map_range() {
        let (mut alloc_a, mut planned) = setup();
        let (mut alloc_b, mut direct) = setup();
        // Straddles a 1 GB flat-node boundary so the plan spans two nodes.
        let first = Vpn::new(ENTRIES_PER_FLAT_NODE - 500);
        let plan = planned
            .plan_range(first, 1000, &mut alloc_a)
            .expect("flat plans");
        direct.map_range(first, 1000, &mut alloc_b);
        assert_eq!(alloc_a.frames_used(), alloc_b.frames_used());
        assert!(
            planned.translate(first).is_none(),
            "not visible before apply"
        );
        planned.apply_plan(&plan);
        assert_eq!(plan.outcome.minor_4k, 1000);
        assert!(plan.segments.len() >= 2, "boundary splits the run");
        assert_eq!(planned.mapped_pages(), direct.mapped_pages());
        for p in 0..1000 {
            let vpn = first.add(p);
            assert_eq!(planned.translate(vpn), direct.translate(vpn), "{vpn:?}");
        }
        assert_eq!(planned.table_bytes(), direct.table_bytes());
    }

    #[test]
    fn unmapped_is_none() {
        let (_, t) = setup();
        assert!(t.translate(Vpn::new(5)).is_none());
        assert!(t.walk_path(Vpn::new(5)).is_none());
    }
}
