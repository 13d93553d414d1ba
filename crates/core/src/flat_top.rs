//! A counterpoint design: flattening the *top* two radix levels instead
//! of the bottom two.
//!
//! §V-B observes that "flattening uses the radix nature of the page table
//! to naturally merge levels into single, larger levels" — which leaves a
//! design choice: *which* pair of levels to merge. [`FlattenedL4L3`]
//! merges PL4 and PL3 into one 2 MB root node (2^18 entries, each mapping
//! 1 GB), keeping conventional PL2/PL1 nodes below.
//!
//! Walks are 3 sequential steps, like NDPage's [`FlattenedL2L1`] — but the
//! step this design eliminates is one the PL4/PL3 page-walk caches already
//! absorbed (~100% hit rates, §V-C), while the two steps it *keeps* are
//! exactly the poorly-cached PL2/PL1 accesses. Measured against NDPage in
//! `tests/`, this design recovers almost none of Radix's walk cost —
//! quantitative evidence for the paper's choice to merge the *bottom*
//! levels, where occupancy is full and PWCs fail.
//!
//! [`FlattenedL2L1`]: crate::flat::FlattenedL2L1

use crate::alloc::{FrameAllocator, FramePurpose};
use crate::arena::{Node, PteArena};
use crate::occupancy::{LevelOccupancy, OccupancyReport};
use crate::pte::Pte;
use crate::table::{FaultKind, MapOutcome, PageTable, PageTableKind, Translation};
use crate::walk::{WalkPath, WalkStep};
use ndp_types::addr::{ENTRIES_PER_FLAT_NODE, ENTRIES_PER_NODE, LEVEL_BITS, PAGE_SIZE};
use ndp_types::{PageSize, PtLevel, Vpn};

const NODE_ENTRIES: usize = ENTRIES_PER_NODE as usize;
const FLAT_ENTRIES: usize = ENTRIES_PER_FLAT_NODE as usize;
const FLAT_NODE_FRAMES: u64 = (ENTRIES_PER_FLAT_NODE * 8) / PAGE_SIZE;

/// Index into the merged L4/L3 node: the top 18 translation bits.
fn flat_l4l3_index(vpn: Vpn) -> usize {
    ((vpn.as_u64() >> (2 * LEVEL_BITS)) & (ENTRIES_PER_FLAT_NODE - 1)) as usize
}

/// The top-flattened 3-level table: merged L4/L3 root, then PL2, then PL1.
#[derive(Debug, Clone)]
pub struct FlattenedL4L3 {
    arena: PteArena,
    /// The single merged root node (2^18 entries).
    root: Node,
    /// PL2 and PL1 nodes.
    nodes: Vec<Node>,
    l2_nodes: Vec<usize>,
    l1_nodes: Vec<usize>,
    mapped: u64,
}

impl FlattenedL4L3 {
    /// Creates an empty table, reserving the 2 MB root node.
    #[must_use]
    pub fn new(alloc: &mut FrameAllocator) -> Self {
        let frame = alloc
            .alloc_contiguous(FLAT_NODE_FRAMES, FramePurpose::PageTable)
            .expect("page-table reservations always succeed");
        let mut arena = PteArena::new();
        let root = Node::new(frame, FLAT_ENTRIES, true, &mut arena);
        FlattenedL4L3 {
            arena,
            root,
            nodes: Vec::new(),
            l2_nodes: Vec::new(),
            l1_nodes: Vec::new(),
            mapped: 0,
        }
    }

    fn new_node(&mut self, alloc: &mut FrameAllocator, is_l2: bool) -> usize {
        let frame = alloc.alloc_frame(FramePurpose::PageTable);
        let idx = self.nodes.len();
        // L1 nodes hold only leaves; no child lane needed.
        self.nodes
            .push(Node::new(frame, NODE_ENTRIES, is_l2, &mut self.arena));
        if is_l2 {
            self.l2_nodes.push(idx);
        } else {
            self.l1_nodes.push(idx);
        }
        idx
    }

    fn descend(&self, vpn: Vpn) -> Option<(usize, usize)> {
        let ri = flat_l4l3_index(vpn);
        if !self.root.get(&self.arena, ri).is_present() {
            return None;
        }
        let l2 = self.root.kid(&self.arena, ri)?;
        let l2_idx = vpn.l2_index();
        if !self.nodes[l2].get(&self.arena, l2_idx).is_present() {
            return None;
        }
        let l1 = self.nodes[l2].kid(&self.arena, l2_idx)?;
        Some((l2, l1))
    }
}

impl PageTable for FlattenedL4L3 {
    fn kind(&self) -> PageTableKind {
        // Reported as the flattened family; `walk_path` levels distinguish
        // the variants for the walker and PWCs.
        PageTableKind::FlattenedL2L1
    }

    fn translate(&self, vpn: Vpn) -> Option<Translation> {
        let (_, l1) = self.descend(vpn)?;
        let pte = self.nodes[l1].get(&self.arena, vpn.l1_index());
        pte.is_present().then(|| Translation {
            pfn: pte.pfn(),
            size: PageSize::Size4K,
        })
    }

    fn map(&mut self, vpn: Vpn, alloc: &mut FrameAllocator) -> MapOutcome {
        let mut tables_allocated = 0;

        let ri = flat_l4l3_index(vpn);
        let l2 = if self.root.get(&self.arena, ri).is_present() {
            self.root
                .kid(&self.arena, ri)
                .expect("root PTE links its L2 node")
        } else {
            let n = self.new_node(alloc, true);
            tables_allocated += 1;
            let f = self.nodes[n].frame;
            self.root.set(&mut self.arena, ri, Pte::next_flattened(f));
            self.root.set_kid(&mut self.arena, ri, n);
            n
        };

        let l2_idx = vpn.l2_index();
        let l1 = if self.nodes[l2].get(&self.arena, l2_idx).is_present() {
            self.nodes[l2]
                .kid(&self.arena, l2_idx)
                .expect("L2 PTE links its L1 node")
        } else {
            let n = self.new_node(alloc, false);
            tables_allocated += 1;
            let f = self.nodes[n].frame;
            self.nodes[l2].set(&mut self.arena, l2_idx, Pte::next(f));
            self.nodes[l2].set_kid(&mut self.arena, l2_idx, n);
            n
        };

        let l1_idx = vpn.l1_index();
        if self.nodes[l1].get(&self.arena, l1_idx).is_present() {
            return MapOutcome::already_mapped();
        }
        let frame = alloc.alloc_frame(FramePurpose::Data);
        self.nodes[l1].set(&mut self.arena, l1_idx, Pte::leaf(frame));
        self.mapped += 1;
        MapOutcome {
            newly_mapped: true,
            fault: Some(FaultKind::Minor4K),
            tables_allocated,
        }
    }

    fn walk_path(&self, vpn: Vpn) -> Option<WalkPath> {
        let (l2, l1) = self.descend(vpn)?;
        if !self.nodes[l1].get(&self.arena, vpn.l1_index()).is_present() {
            return None;
        }
        Some(WalkPath::of([
            // The merged root consumes the L4+L3 bits; its PWC tag must
            // cover the 18-bit prefix, which PtLevel::L3 provides.
            WalkStep {
                addr: self.root.frame.entry_addr(flat_l4l3_index(vpn)),
                level: PtLevel::L3,
                group: 0,
            },
            WalkStep {
                addr: self.nodes[l2].frame.entry_addr(vpn.l2_index()),
                level: PtLevel::L2,
                group: 1,
            },
            WalkStep {
                addr: self.nodes[l1].frame.entry_addr(vpn.l1_index()),
                level: PtLevel::L1,
                group: 2,
            },
        ]))
    }

    fn occupancy(&self) -> OccupancyReport {
        let mut report = OccupancyReport::new();
        report.set(
            PtLevel::L3,
            LevelOccupancy {
                nodes: 1,
                valid_entries: u64::from(self.root.valid),
                capacity: ENTRIES_PER_FLAT_NODE,
            },
        );
        let sum =
            |idxs: &[usize]| -> u64 { idxs.iter().map(|&i| u64::from(self.nodes[i].valid)).sum() };
        report.set(
            PtLevel::L2,
            LevelOccupancy {
                nodes: self.l2_nodes.len() as u64,
                valid_entries: sum(&self.l2_nodes),
                capacity: self.l2_nodes.len() as u64 * ENTRIES_PER_NODE,
            },
        );
        report.set(
            PtLevel::L1,
            LevelOccupancy {
                nodes: self.l1_nodes.len() as u64,
                valid_entries: sum(&self.l1_nodes),
                capacity: self.l1_nodes.len() as u64 * ENTRIES_PER_NODE,
            },
        );
        report
    }

    fn mapped_pages(&self) -> u64 {
        self.mapped
    }

    fn table_bytes(&self) -> u64 {
        FLAT_NODE_FRAMES * PAGE_SIZE + self.nodes.len() as u64 * PAGE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlattenedL2L1;

    fn setup() -> (FrameAllocator, FlattenedL4L3) {
        let mut alloc = FrameAllocator::new(2 << 30);
        let table = FlattenedL4L3::new(&mut alloc);
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
        assert!(t.translate(Vpn::new(1)).is_none());
    }

    #[test]
    fn walk_is_three_steps_but_keeps_bottom_levels() {
        let (mut alloc, mut t) = setup();
        let vpn = Vpn::new(0x12_3456);
        t.map(vpn, &mut alloc);
        let path = t.walk_path(vpn).unwrap();
        assert_eq!(path.sequential_depth(), 3);
        let levels: Vec<PtLevel> = path.steps().iter().map(|s| s.level).collect();
        assert_eq!(levels, vec![PtLevel::L3, PtLevel::L2, PtLevel::L1]);
    }

    #[test]
    fn same_depth_as_bottom_flattened_but_different_levels() {
        let mut alloc = FrameAllocator::new(2 << 30);
        let mut top = FlattenedL4L3::new(&mut alloc);
        let mut bottom = FlattenedL2L1::new(&mut alloc);
        let vpn = Vpn::new(0xabcdef);
        top.map(vpn, &mut alloc);
        bottom.map(vpn, &mut alloc);
        let tp = top.walk_path(vpn).unwrap();
        let bp = bottom.walk_path(vpn).unwrap();
        assert_eq!(tp.sequential_depth(), bp.sequential_depth());
        // Top-flattening keeps the poorly-cached PL1 access...
        assert!(tp.steps().iter().any(|s| s.level == PtLevel::L1));
        // ...bottom-flattening eliminates it.
        assert!(bp.steps().iter().all(|s| s.level != PtLevel::L1));
    }

    #[test]
    fn root_spans_whole_address_space() {
        let (mut alloc, mut t) = setup();
        // VPNs a full 512 GB apart still live in the single root node.
        let a = Vpn::new(0);
        let b = Vpn::new((512u64 << 30) >> 12);
        t.map(a, &mut alloc);
        let o = t.map(b, &mut alloc);
        assert_eq!(o.tables_allocated, 2, "fresh PL2+PL1 but no new root");
        assert!(t.translate(a).is_some() && t.translate(b).is_some());
    }

    #[test]
    fn walk_addresses_in_table_frames() {
        let (mut alloc, mut t) = setup();
        let vpn = Vpn::new(0x7777);
        t.map(vpn, &mut alloc);
        for step in t.walk_path(vpn).unwrap().steps() {
            assert!(alloc.is_table_frame(step.addr.pfn()));
        }
    }

    #[test]
    fn occupancy_reports_merged_root_sparse() {
        let (mut alloc, mut t) = setup();
        for i in 0..512u64 {
            t.map(Vpn::new(i), &mut alloc);
        }
        let occ = t.occupancy();
        // One 2 MB region mapped: the giant root holds a single entry.
        assert!(occ.level(PtLevel::L3).unwrap().rate() < 1e-4);
        assert!((occ.level(PtLevel::L1).unwrap().rate() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn table_bytes_dominated_by_the_2mb_root() {
        let (mut alloc, mut t) = setup();
        t.map(Vpn::new(0), &mut alloc);
        assert_eq!(t.table_bytes(), 2 * 1024 * 1024 + 2 * PAGE_SIZE);
    }
}
