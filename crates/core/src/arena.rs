//! A chained-slab arena for page-table nodes.
//!
//! Every table design in this crate used to give each node its own
//! `Vec<Pte>` heap allocation and resolve child nodes through a
//! `by_frame: FastMap<frame, index>` hash probe on **every walk step** —
//! three or four dependent hash lookups per translation on the simulator's
//! hottest path. The arena replaces both:
//!
//! * all PTEs live in fixed-capacity slabs ([`SLAB_ENTRIES`] entries
//!   each), carved into blocks addressed by a `(slab, start)` pair
//!   ([`PteBlock`]), so a table's entries share cache lines and the
//!   allocator is a bump pointer;
//! * interior blocks carry a parallel *child-handle* lane: when a PTE is
//!   linked to a child node, the child's index is recorded at the same
//!   slot, turning descent into a direct array load instead of a
//!   `by_frame[&pte.pfn()]` hash probe.
//!
//! The arena used to be one contiguous `Vec<Pte>` addressed by `u32`
//! offsets, which put a hard 2³²-entry ceiling on a table's PTE slab (an
//! `expect` panic) and paid a full copy every time the vector doubled —
//! tens of megabytes per table at paper-scale footprints. Chained slabs
//! remove both: filled slabs are never moved again, and capacity is
//! bounded only by memory. A block never spans slabs (blocks are at most
//! one flattened node, 2¹⁸ entries, well under [`SLAB_ENTRIES`]), so
//! per-entry addressing stays a single two-level index with no divide.
//!
//! [`Node`] is the per-node bookkeeping the tables share: the owning
//! physical frame (walk steps report genuine PTE addresses), the arena
//! block, and a valid-entry count for occupancy reports.

use crate::pte::Pte;
use ndp_types::Pfn;

/// Child-handle sentinel: slot has no linked child node.
const NO_CHILD: u32 = u32::MAX;
/// Block sentinel: block allocated without a child-handle lane.
const NO_KIDS: u32 = u32::MAX;

/// Entries per slab: 2²¹ PTEs = 16 MiB per PTE lane slab. Must exceed
/// the largest single block any table allocates (a flattened L2/L1 node:
/// 2¹⁸ entries), since blocks never span slab boundaries.
const SLAB_ENTRIES: usize = 1 << 21;

/// Handle to one block of PTEs (and, for interior nodes, child handles).
///
/// `(slab, start)` addressing: `start` is bounded by the slab capacity,
/// and slab counts are bounded by memory, so no offset here can overflow
/// — the old single-slab `u32` offset ceiling is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PteBlock {
    /// Slab holding the block's PTEs.
    pte_slab: u32,
    /// Offset of the block's first entry within its PTE slab.
    pte_start: u32,
    /// Slab holding the block's child handles, or [`NO_KIDS`] for leaf
    /// blocks (checked on `kid_slab` only; the pair is set together).
    kid_slab: u32,
    /// Offset of the block's first slot within its child-handle slab.
    kid_start: u32,
}

/// The slab allocator: one PTE lane, one child-handle lane.
///
/// Blocks are never freed — page-table nodes are only ever allocated in
/// this simulator, matching the tables' previous `Vec<Node>` growth.
#[derive(Debug, Clone)]
pub(crate) struct PteArena {
    pte_slabs: Vec<Vec<Pte>>,
    kid_slabs: Vec<Vec<u32>>,
    /// Per-slab entry capacity ([`SLAB_ENTRIES`]; tests shrink it to
    /// exercise boundary crossings without gigabytes of slab).
    slab_entries: usize,
}

impl Default for PteArena {
    fn default() -> Self {
        PteArena::new()
    }
}

/// Allocates `len` entries in the lane, opening a fresh slab when the
/// current one cannot hold the block contiguously.
fn lane_alloc<T: Copy>(slabs: &mut Vec<Vec<T>>, len: usize, fill: T, cap: usize) -> (u32, u32) {
    assert!(
        len <= cap,
        "block of {len} entries exceeds slab capacity {cap}"
    );
    if slabs.last().is_none_or(|s| s.len() + len > cap) {
        slabs.push(Vec::with_capacity(cap));
    }
    let slab = slabs.len() - 1;
    let lane = &mut slabs[slab];
    let start = lane.len();
    lane.resize(start + len, fill);
    (slab as u32, start as u32)
}

impl PteArena {
    pub(crate) fn new() -> Self {
        Self::with_slab_entries(SLAB_ENTRIES)
    }

    /// An arena with a custom per-slab capacity (tests only — shrinking
    /// the slabs makes boundary crossings cheap to reach).
    pub(crate) fn with_slab_entries(slab_entries: usize) -> Self {
        PteArena {
            pte_slabs: Vec::new(),
            kid_slabs: Vec::new(),
            slab_entries,
        }
    }

    /// Allocates a zeroed block of `len` PTEs; `track_kids` adds the
    /// parallel child-handle lane interior nodes use for descent.
    pub(crate) fn alloc(&mut self, len: usize, track_kids: bool) -> PteBlock {
        let (pte_slab, pte_start) =
            lane_alloc(&mut self.pte_slabs, len, Pte::NULL, self.slab_entries);
        let (kid_slab, kid_start) = if track_kids {
            lane_alloc(&mut self.kid_slabs, len, NO_CHILD, self.slab_entries)
        } else {
            (NO_KIDS, NO_KIDS)
        };
        PteBlock {
            pte_slab,
            pte_start,
            kid_slab,
            kid_start,
        }
    }

    /// Number of PTE-lane slabs currently open (diagnostic/tests).
    #[cfg(test)]
    pub(crate) fn pte_slab_count(&self) -> usize {
        self.pte_slabs.len()
    }

    #[inline]
    pub(crate) fn get(&self, b: PteBlock, idx: usize) -> Pte {
        self.pte_slabs[b.pte_slab as usize][b.pte_start as usize + idx]
    }

    #[inline]
    pub(crate) fn set(&mut self, b: PteBlock, idx: usize, pte: Pte) {
        self.pte_slabs[b.pte_slab as usize][b.pte_start as usize + idx] = pte;
    }

    /// The child node linked at `idx`, if any: a direct array load in
    /// place of a frame→node map probe.
    #[inline]
    pub(crate) fn kid(&self, b: PteBlock, idx: usize) -> Option<usize> {
        let k = self.kid_slabs[b.kid_slab as usize][b.kid_start as usize + idx];
        (k != NO_CHILD).then_some(k as usize)
    }

    #[inline]
    pub(crate) fn set_kid(&mut self, b: PteBlock, idx: usize, child: usize) {
        // Node indices count whole table nodes, each backed by at least a
        // 4 KB frame: 2³² of them would need 16 TiB of table storage,
        // orders beyond any bookkeeping capacity the simulator sizes.
        self.kid_slabs[b.kid_slab as usize][b.kid_start as usize + idx] =
            u32::try_from(child).expect("node index fits u32");
    }
}

/// Per-node bookkeeping shared by the radix-family tables.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    /// The physical frame(s) backing this node; walk steps report
    /// `frame.entry_addr(idx)` so the DRAM model sees real PTE addresses.
    pub(crate) frame: Pfn,
    /// Where this node's entries live in the arena.
    pub(crate) block: PteBlock,
    /// Present-entry count, for occupancy reports.
    pub(crate) valid: u32,
}

impl Node {
    pub(crate) fn new(frame: Pfn, len: usize, track_kids: bool, arena: &mut PteArena) -> Self {
        Node {
            frame,
            block: arena.alloc(len, track_kids),
            valid: 0,
        }
    }

    #[inline]
    pub(crate) fn get(&self, arena: &PteArena, idx: usize) -> Pte {
        arena.get(self.block, idx)
    }

    pub(crate) fn set(&mut self, arena: &mut PteArena, idx: usize, pte: Pte) {
        if !arena.get(self.block, idx).is_present() && pte.is_present() {
            self.valid += 1;
        }
        arena.set(self.block, idx, pte);
    }

    /// The child node index linked at `idx` (set alongside the PTE when a
    /// child table is attached).
    #[inline]
    pub(crate) fn kid(&self, arena: &PteArena, idx: usize) -> Option<usize> {
        arena.kid(self.block, idx)
    }

    pub(crate) fn set_kid(&self, arena: &mut PteArena, idx: usize, child: usize) {
        arena.set_kid(self.block, idx, child);
    }

    /// Bulk-installs `count` present leaf entries starting at `start`,
    /// all previously absent (the premap plan/apply contract); `pfn(k)`
    /// supplies the `k`-th frame. One bounds check and one valid-count
    /// update instead of per-entry [`Node::set`] calls.
    pub(crate) fn set_leaf_run(
        &mut self,
        arena: &mut PteArena,
        start: usize,
        count: usize,
        mut pfn: impl FnMut(usize) -> Pfn,
    ) {
        let b = self.block;
        let lane = &mut arena.pte_slabs[b.pte_slab as usize];
        let base = b.pte_start as usize + start;
        for (k, slot) in lane[base..base + count].iter_mut().enumerate() {
            debug_assert!(!slot.is_present(), "leaf run overwrites a present entry");
            *slot = Pte::leaf(pfn(k));
        }
        self.valid += count as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_types::Pfn;

    #[test]
    fn blocks_are_zeroed_and_independent() {
        let mut a = PteArena::new();
        let b1 = a.alloc(4, true);
        let b2 = a.alloc(4, false);
        for i in 0..4 {
            assert!(!a.get(b1, i).is_present());
            assert!(!a.get(b2, i).is_present());
        }
        a.set(b1, 2, Pte::leaf(Pfn::new(7)));
        assert!(a.get(b1, 2).is_present());
        assert!(!a.get(b2, 2).is_present());
    }

    #[test]
    fn kids_default_to_none_and_round_trip() {
        let mut a = PteArena::new();
        let b = a.alloc(8, true);
        assert_eq!(a.kid(b, 3), None);
        a.set_kid(b, 3, 42);
        assert_eq!(a.kid(b, 3), Some(42));
        assert_eq!(a.kid(b, 4), None);
    }

    #[test]
    fn node_tracks_valid_count() {
        let mut a = PteArena::new();
        let mut n = Node::new(Pfn::new(1), 16, false, &mut a);
        n.set(&mut a, 0, Pte::leaf(Pfn::new(2)));
        n.set(&mut a, 0, Pte::leaf(Pfn::new(3))); // overwrite: no recount
        n.set(&mut a, 5, Pte::leaf(Pfn::new(4)));
        assert_eq!(n.valid, 2);
    }

    #[test]
    fn leaf_run_installs_present_entries_and_counts_them() {
        let mut a = PteArena::new();
        let mut n = Node::new(Pfn::new(1), 512, false, &mut a);
        n.set_leaf_run(&mut a, 10, 5, |k| Pfn::new(100 + k as u64));
        assert_eq!(n.valid, 5);
        assert!(!n.get(&a, 9).is_present());
        for k in 0..5 {
            assert_eq!(n.get(&a, 10 + k).pfn(), Pfn::new(100 + k as u64));
        }
        assert!(!n.get(&a, 15).is_present());
    }

    /// Regression test for the old single-slab arena, whose `u32` offsets
    /// made block allocation panic ("PTE slab outgrew u32 offsets") once
    /// a table's entries crossed 2³². Crossing that literal limit needs
    /// ~34 GB of slab, so the test shrinks the per-slab capacity instead:
    /// the failure mode the chained design has to get right — blocks
    /// handed out across a capacity boundary — now happens every
    /// `slab_entries` entries, and every handle must keep resolving.
    #[test]
    fn blocks_survive_slab_boundary_crossings() {
        let mut a = PteArena::with_slab_entries(1000);
        let mut blocks = Vec::new();
        // 300-entry blocks: 3 per slab with 100 entries wasted at each
        // boundary, so 40 blocks span 14 slabs.
        for i in 0..40u64 {
            let b = a.alloc(300, i % 2 == 0);
            a.set(b, (i % 300) as usize, Pte::leaf(Pfn::new(i + 1)));
            if i % 2 == 0 {
                a.set_kid(b, (i % 300) as usize, i as usize);
            }
            blocks.push((i, b));
        }
        assert!(a.pte_slab_count() > 1, "test must cross slab boundaries");
        for (i, b) in blocks {
            let idx = (i % 300) as usize;
            assert_eq!(a.get(b, idx).pfn(), Pfn::new(i + 1), "block {i}");
            if i % 2 == 0 {
                assert_eq!(a.kid(b, idx), Some(i as usize), "block {i}");
            }
            // Neighbouring entries stay zeroed — blocks never overlap.
            if idx + 1 < 300 {
                assert!(!a.get(b, idx + 1).is_present(), "block {i}");
            }
        }
    }

    #[test]
    fn blocks_never_span_slabs() {
        let mut a = PteArena::with_slab_entries(512);
        for _ in 0..20 {
            let b = a.alloc(300, false);
            // A block that spanned slabs would make the final entry's
            // in-slab index exceed the capacity and panic here.
            a.set(b, 299, Pte::leaf(Pfn::new(9)));
            assert!(a.get(b, 299).is_present());
        }
    }

    #[test]
    #[should_panic(expected = "exceeds slab capacity")]
    fn oversized_block_is_rejected_not_truncated() {
        let mut a = PteArena::with_slab_entries(64);
        let _ = a.alloc(65, false);
    }
}
