//! Transparent 2 MB huge pages over a 3-level radix table — the paper's
//! "Huge Page" baseline.
//!
//! A 2 MB leaf at PL2 removes one walk level and multiplies TLB reach by
//! 512, which is why Huge Page looks strong at low core counts (Fig 12).
//! Its failure mode (§VII-B, Fig 14) is physical: each 2 MB mapping needs
//! aligned contiguous frames from the [`FrameAllocator`]'s contiguity pool,
//! faults must zero 512× more memory, and when contiguity runs out the
//! kernel falls back to 4 KB pages behind a *4-level* walk plus compaction
//! stalls — all of which this implementation surfaces through
//! [`FaultKind`].
//!
//! [`FaultKind`]: crate::table::FaultKind

use crate::alloc::{FrameAllocator, FramePurpose};
use crate::arena::{Node, PteArena};
use crate::occupancy::{LevelOccupancy, OccupancyReport};
use crate::pte::Pte;
use crate::table::{FaultKind, MapOutcome, PageTable, PageTableKind, RangeMapOutcome, Translation};
use crate::walk::{WalkPath, WalkStep};
use ndp_types::addr::{ENTRIES_PER_NODE, PAGE_SIZE};
use ndp_types::{PageSize, PtLevel, Vpn};

const NODE_ENTRIES: usize = ENTRIES_PER_NODE as usize;

/// Huge-page-specific statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct HugeStats {
    /// Successful 2 MB mappings.
    pub huge_mapped: u64,
    /// 4 KB fallback mappings after contiguity exhaustion.
    pub fallback_mapped: u64,
}

/// The 2 MB transparent-huge-page table ("Huge Page" in Figs 12–14).
#[derive(Debug, Clone)]
pub struct HugePageTable {
    arena: PteArena,
    nodes: Vec<Node>,
    /// per-level node lists: [L4, L3, L2, L1-fallback].
    per_level: [Vec<usize>; 4],
    root: usize,
    stats: HugeStats,
}

impl HugePageTable {
    /// Creates an empty table, allocating the root node.
    #[must_use]
    pub fn new(alloc: &mut FrameAllocator) -> Self {
        let mut t = HugePageTable {
            arena: PteArena::new(),
            nodes: Vec::new(),
            per_level: [Vec::new(), Vec::new(), Vec::new(), Vec::new()],
            root: 0,
            stats: HugeStats::default(),
        };
        t.root = t.new_node(alloc, 0);
        t
    }

    /// Huge/fallback mapping counters.
    #[must_use]
    pub fn stats(&self) -> &HugeStats {
        &self.stats
    }

    fn new_node(&mut self, alloc: &mut FrameAllocator, level_idx: usize) -> usize {
        let frame = alloc.alloc_frame(FramePurpose::PageTable);
        let idx = self.nodes.len();
        // L1 fallback nodes hold only leaves; no child lane needed.
        let track_kids = level_idx < 3;
        self.nodes
            .push(Node::new(frame, NODE_ENTRIES, track_kids, &mut self.arena));
        self.per_level[level_idx].push(idx);
        idx
    }

    /// Descends to the L2 node, returning `(l3_node, l2_node)` if present.
    fn descend_l2(&self, vpn: Vpn) -> Option<(usize, usize)> {
        let l4_idx = vpn.l4_index();
        if !self.nodes[self.root].get(&self.arena, l4_idx).is_present() {
            return None;
        }
        let l3 = self.nodes[self.root].kid(&self.arena, l4_idx)?;
        let l3_idx = vpn.l3_index();
        if !self.nodes[l3].get(&self.arena, l3_idx).is_present() {
            return None;
        }
        let l2 = self.nodes[l3].kid(&self.arena, l3_idx)?;
        Some((l3, l2))
    }
}

impl PageTable for HugePageTable {
    fn kind(&self) -> PageTableKind {
        PageTableKind::HugePage
    }

    fn translate(&self, vpn: Vpn) -> Option<Translation> {
        let (_, l2) = self.descend_l2(vpn)?;
        let l2_idx = vpn.l2_index();
        let l2e = self.nodes[l2].get(&self.arena, l2_idx);
        if !l2e.is_present() {
            return None;
        }
        if l2e.is_huge() {
            return Some(Translation {
                pfn: l2e.pfn().add(vpn.l1_index() as u64),
                size: PageSize::Size2M,
            });
        }
        let l1 = self.nodes[l2].kid(&self.arena, l2_idx)?;
        let l1e = self.nodes[l1].get(&self.arena, vpn.l1_index());
        l1e.is_present().then(|| Translation {
            pfn: l1e.pfn(),
            size: PageSize::Size4K,
        })
    }

    fn map(&mut self, vpn: Vpn, alloc: &mut FrameAllocator) -> MapOutcome {
        let mut tables_allocated = 0;

        let l4_idx = vpn.l4_index();
        let l3 = if self.nodes[self.root].get(&self.arena, l4_idx).is_present() {
            self.nodes[self.root]
                .kid(&self.arena, l4_idx)
                .expect("L4 PTE links its L3 node")
        } else {
            let n = self.new_node(alloc, 1);
            tables_allocated += 1;
            let f = self.nodes[n].frame;
            self.nodes[self.root].set(&mut self.arena, l4_idx, Pte::next(f));
            self.nodes[self.root].set_kid(&mut self.arena, l4_idx, n);
            n
        };

        let l3_idx = vpn.l3_index();
        let l2 = if self.nodes[l3].get(&self.arena, l3_idx).is_present() {
            self.nodes[l3]
                .kid(&self.arena, l3_idx)
                .expect("L3 PTE links its L2 node")
        } else {
            let n = self.new_node(alloc, 2);
            tables_allocated += 1;
            let f = self.nodes[n].frame;
            self.nodes[l3].set(&mut self.arena, l3_idx, Pte::next(f));
            self.nodes[l3].set_kid(&mut self.arena, l3_idx, n);
            n
        };

        let l2_idx = vpn.l2_index();
        let l2e = self.nodes[l2].get(&self.arena, l2_idx);
        if l2e.is_present() {
            if l2e.is_huge() {
                return MapOutcome::already_mapped();
            }
            // Fallback region: map the individual 4 KB page.
            let l1 = self.nodes[l2]
                .kid(&self.arena, l2_idx)
                .expect("fallback L2 PTE links its L1 node");
            let l1_idx = vpn.l1_index();
            if self.nodes[l1].get(&self.arena, l1_idx).is_present() {
                return MapOutcome::already_mapped();
            }
            let frame = alloc.alloc_frame(FramePurpose::Data);
            self.nodes[l1].set(&mut self.arena, l1_idx, Pte::leaf(frame));
            self.stats.fallback_mapped += 1;
            return MapOutcome {
                newly_mapped: true,
                fault: Some(FaultKind::Fallback4K),
                tables_allocated,
            };
        }

        // Fresh 2 MB region: try a huge allocation.
        match alloc.alloc_contiguous(PageSize::Size2M.frames(), FramePurpose::Data) {
            Some(base) => {
                self.nodes[l2].set(&mut self.arena, l2_idx, Pte::huge_leaf(base));
                self.stats.huge_mapped += 1;
                MapOutcome {
                    newly_mapped: true,
                    fault: Some(FaultKind::Minor2M),
                    tables_allocated,
                }
            }
            None => {
                // Contiguity exhausted: build an L1 node and map 4 KB.
                let l1 = self.new_node(alloc, 3);
                tables_allocated += 1;
                let l1_frame = self.nodes[l1].frame;
                self.nodes[l2].set(&mut self.arena, l2_idx, Pte::next(l1_frame));
                self.nodes[l2].set_kid(&mut self.arena, l2_idx, l1);
                let frame = alloc.alloc_frame(FramePurpose::Data);
                self.nodes[l1].set(&mut self.arena, vpn.l1_index(), Pte::leaf(frame));
                self.stats.fallback_mapped += 1;
                MapOutcome {
                    newly_mapped: true,
                    fault: Some(FaultKind::Fallback4K),
                    tables_allocated,
                }
            }
        }
    }

    fn map_range(&mut self, first: Vpn, pages: u64, alloc: &mut FrameAllocator) -> RangeMapOutcome {
        // After the first fault in a 2 MB region decides huge vs fallback,
        // the remaining pages of a huge region are no-ops the per-page
        // loop would still pay three lookups each for; skip them.
        let mut totals = RangeMapOutcome::default();
        let mut p = 0u64;
        while p < pages {
            let vpn = first.add(p);
            totals.absorb(self.map(vpn, alloc));
            let to_region_end = ENTRIES_PER_NODE - (vpn.as_u64() - vpn.huge_aligned().as_u64());
            let in_region = to_region_end.min(pages - p);
            let huge_mapped = self
                .translate(vpn)
                .is_some_and(|t| t.size == PageSize::Size2M);
            if huge_mapped {
                p += in_region;
            } else {
                for q in 1..in_region {
                    totals.absorb(self.map(vpn.add(q), alloc));
                }
                p += in_region;
            }
        }
        totals
    }

    fn walk_path(&self, vpn: Vpn) -> Option<WalkPath> {
        self.translate_and_walk(vpn).map(|(_, path)| path)
    }

    fn translate_and_walk(&self, vpn: Vpn) -> Option<(Translation, WalkPath)> {
        // Single descent serving both results; per-op hot path.
        let (l3, l2) = self.descend_l2(vpn)?;
        let l2e = self.nodes[l2].get(&self.arena, vpn.l2_index());
        if !l2e.is_present() {
            return None;
        }
        let mut path = WalkPath::of([
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
                addr: self.nodes[l2].frame.entry_addr(vpn.l2_index()),
                level: PtLevel::L2,
                group: 2,
            },
        ]);
        let translation = if l2e.is_huge() {
            Translation {
                pfn: l2e.pfn().add(vpn.l1_index() as u64),
                size: PageSize::Size2M,
            }
        } else {
            let l1 = self.nodes[l2].kid(&self.arena, vpn.l2_index())?;
            let l1e = self.nodes[l1].get(&self.arena, vpn.l1_index());
            if !l1e.is_present() {
                return None;
            }
            path.push(WalkStep {
                addr: self.nodes[l1].frame.entry_addr(vpn.l1_index()),
                level: PtLevel::L1,
                group: 3,
            });
            Translation {
                pfn: l1e.pfn(),
                size: PageSize::Size4K,
            }
        };
        Some((translation, path))
    }

    fn occupancy(&self) -> OccupancyReport {
        let mut report = OccupancyReport::new();
        for (depth, level) in [PtLevel::L4, PtLevel::L3, PtLevel::L2, PtLevel::L1]
            .iter()
            .enumerate()
        {
            let nodes = &self.per_level[depth];
            if nodes.is_empty() && *level == PtLevel::L1 {
                continue;
            }
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
        self.stats.huge_mapped + self.stats.fallback_mapped
    }

    fn table_bytes(&self) -> u64 {
        self.nodes.len() as u64 * PAGE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_types::VirtAddr;

    fn setup(capacity: u64) -> (FrameAllocator, HugePageTable) {
        let mut alloc = FrameAllocator::new(capacity);
        let table = HugePageTable::new(&mut alloc);
        (alloc, table)
    }

    #[test]
    fn maps_2mb_pages_while_contiguity_lasts() {
        let (mut alloc, mut t) = setup(1 << 30);
        let vpn = VirtAddr::new(0x4000_0000).vpn();
        let o = t.map(vpn, &mut alloc);
        assert_eq!(o.fault, Some(FaultKind::Minor2M));
        let tr = t.translate(vpn).unwrap();
        assert_eq!(tr.size, PageSize::Size2M);
        assert_eq!(t.stats().huge_mapped, 1);
    }

    #[test]
    fn pages_in_same_2mb_region_share_the_mapping() {
        let (mut alloc, mut t) = setup(1 << 30);
        let a = Vpn::new(512 * 10);
        let b = Vpn::new(512 * 10 + 5);
        assert!(t.map(a, &mut alloc).newly_mapped);
        assert!(!t.map(b, &mut alloc).newly_mapped);
        // Within the huge page, 4 KB frames are consecutive.
        let ta = t.translate(a).unwrap();
        let tb = t.translate(b).unwrap();
        assert_eq!(tb.pfn.as_u64() - ta.pfn.as_u64(), 5);
    }

    #[test]
    fn huge_walk_is_three_levels_fallback_is_four() {
        // Small memory: contiguity pool exhausts quickly.
        let (mut alloc, mut t) = setup(64 << 20);
        let mut saw_huge = false;
        let mut saw_fallback = false;
        for i in 0..32u64 {
            let vpn = Vpn::new(i * 512);
            let o = t.map(vpn, &mut alloc);
            match o.fault.unwrap() {
                FaultKind::Minor2M => {
                    saw_huge = true;
                    assert_eq!(t.walk_path(vpn).unwrap().len(), 3);
                }
                FaultKind::Fallback4K => {
                    saw_fallback = true;
                    assert_eq!(t.walk_path(vpn).unwrap().len(), 4);
                }
                FaultKind::Minor4K => panic!("huge table never minor-faults 4K"),
            }
        }
        assert!(saw_huge && saw_fallback, "both paths must be exercised");
        assert!(t.stats().fallback_mapped > 0);
    }

    #[test]
    fn fallback_region_maps_individual_pages() {
        let (mut alloc, mut t) = setup(16 << 20); // tiny: fallback almost immediately
                                                  // Exhaust contiguity.
        let mut i = 0u64;
        loop {
            let o = t.map(Vpn::new(i * 512), &mut alloc);
            if o.fault == Some(FaultKind::Fallback4K) {
                break;
            }
            i += 1;
            assert!(i < 100);
        }
        // Next page in same (fallback) region also fallback-maps.
        let region = Vpn::new(i * 512);
        let o = t.map(region.add(1), &mut alloc);
        assert_eq!(o.fault, Some(FaultKind::Fallback4K));
        assert!(o.newly_mapped);
        assert_ne!(
            t.translate(region).unwrap().pfn,
            t.translate(region.add(1)).unwrap().pfn
        );
    }

    #[test]
    fn unmapped_is_none() {
        let (_, t) = setup(1 << 30);
        assert!(t.translate(Vpn::new(3)).is_none());
        assert!(t.walk_path(Vpn::new(3)).is_none());
    }

    #[test]
    fn walk_addresses_in_table_frames() {
        let (mut alloc, mut t) = setup(1 << 30);
        let vpn = Vpn::new(0x12345);
        t.map(vpn, &mut alloc);
        for step in t.walk_path(vpn).unwrap().steps() {
            assert!(alloc.is_table_frame(step.addr.pfn()));
        }
    }

    #[test]
    fn occupancy_has_no_l1_until_fallback() {
        let (mut alloc, mut t) = setup(1 << 30);
        t.map(Vpn::new(0), &mut alloc);
        assert!(t.occupancy().level(PtLevel::L1).is_none());
    }
}
