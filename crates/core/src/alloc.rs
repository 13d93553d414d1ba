//! Physical-frame allocation with PTE-region tagging and a contiguity model.
//!
//! Two paper-relevant responsibilities beyond handing out frames:
//!
//! * **PTE-region marking** (§V-A): the OS marks the 4 KB regions holding
//!   page tables so the hardware can route their loads around the L1. The
//!   allocator keeps that mark per frame ([`FrameAllocator::is_table_frame`]).
//! * **Contiguity accounting** (§VII-B): transparent huge pages need 2 MB of
//!   physically contiguous, aligned memory. Scattered 4 KB allocations
//!   erode the pool of such regions; when it runs dry, 2 MB requests fail
//!   and the OS falls back to 4 KB pages (and, in real systems, burns time
//!   compacting). This is the effect that sinks Huge Page at 8 cores
//!   (Fig 14). The model is deliberately simple and documented here rather
//!   than hidden: every scattered 4 KB frame spoils
//!   [`FRAGMENTATION_FACTOR`] × 4 KB of contiguity from a pool that starts
//!   at [`CONTIG_POOL_FRACTION`] of capacity.

use ndp_types::addr::PAGE_SIZE;
use ndp_types::Pfn;

/// Fraction of physical capacity initially usable for 2 MB allocations.
/// Busy systems rarely have most of DRAM defragmented and free: the
/// kernel, page cache and prior allocations fragment it (Kwon et al.,
/// OSDI'16 report low THP allocation success under memory pressure).
pub const CONTIG_POOL_FRACTION: f64 = 0.45;

/// How many bytes of contiguity each scattered 4 KB allocation destroys,
/// as a multiple of the page size.
pub const FRAGMENTATION_FACTOR: u64 = 3;

/// What a frame is used for; determines bypass eligibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FramePurpose {
    /// Program data.
    Data,
    /// Page-table node storage (metadata; bypass-eligible).
    PageTable,
}

/// Allocation statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// 4 KB data frames handed out.
    pub data_frames: u64,
    /// 4 KB page-table frames handed out.
    pub table_frames: u64,
    /// Successful 2 MB contiguous allocations.
    pub huge_allocs: u64,
    /// Failed 2 MB allocations (contiguity exhausted).
    pub huge_failures: u64,
}

/// A bump allocator over a fixed physical space with purpose tagging.
///
/// Frames are never freed — the paper's workloads allocate monotonically
/// within a run, and the simulator constructs a fresh allocator per run.
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    next_frame: u64,
    total_frames: u64,
    /// Bitmap: 1 = page-table frame.
    table_bitmap: Vec<u64>,
    /// Remaining bytes in the huge-page contiguity pool.
    contig_free_bytes: u64,
    stats: AllocStats,
}

impl FrameAllocator {
    /// Builds an allocator over `capacity_bytes` of physical memory.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is smaller than one page.
    #[must_use]
    pub fn new(capacity_bytes: u64) -> Self {
        let pool = (capacity_bytes as f64 * CONTIG_POOL_FRACTION) as u64;
        Self::with_contig_pool(capacity_bytes, pool)
    }

    /// Builds an allocator with an explicit huge-page contiguity pool.
    ///
    /// Used when bookkeeping capacity exceeds the machine's nominal DRAM
    /// (e.g. modelling demand paging headroom for oversubscribed
    /// footprints) while huge-page contiguity must stay pegged to the real
    /// Table I capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is smaller than one page.
    #[must_use]
    pub fn with_contig_pool(capacity_bytes: u64, pool_bytes: u64) -> Self {
        assert!(capacity_bytes >= PAGE_SIZE, "capacity below one page");
        let total_frames = capacity_bytes / PAGE_SIZE;
        FrameAllocator {
            next_frame: 1, // frame 0 reserved so PFN 0 never aliases NULL
            total_frames,
            table_bitmap: vec![0u64; (total_frames as usize).div_ceil(64)],
            contig_free_bytes: pool_bytes,
            stats: AllocStats::default(),
        }
    }

    /// Remaining bytes in the contiguity pool (diagnostic).
    #[must_use]
    pub fn contig_free_bytes(&self) -> u64 {
        self.contig_free_bytes
    }

    /// Frames allocated so far.
    #[must_use]
    pub fn frames_used(&self) -> u64 {
        self.next_frame
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &AllocStats {
        &self.stats
    }

    /// Allocates one 4 KB frame.
    ///
    /// # Panics
    ///
    /// Panics if physical memory is exhausted (the simulated footprints fit
    /// comfortably in the 16 GB of Table I; running out indicates a
    /// misconfigured experiment).
    pub fn alloc_frame(&mut self, purpose: FramePurpose) -> Pfn {
        let pfn = self.bump(1);
        match purpose {
            FramePurpose::Data => {
                self.stats.data_frames += 1;
                // A scattered data page erodes the contiguity pool.
                self.contig_free_bytes = self
                    .contig_free_bytes
                    .saturating_sub(PAGE_SIZE * FRAGMENTATION_FACTOR);
            }
            FramePurpose::PageTable => {
                self.stats.table_frames += 1;
                self.mark_table(pfn, 1);
            }
        }
        pfn
    }

    /// Allocates `count` 4 KB data frames in one bump, returning the first
    /// PFN; the frames are consecutive, exactly as `count` back-to-back
    /// [`FrameAllocator::alloc_frame`] calls would return (the bump
    /// allocator never reorders), with identical statistics and pool
    /// erosion. Bulk premap paths use this to skip per-frame call
    /// overhead without perturbing the allocation sequence.
    pub fn alloc_data_frames(&mut self, count: u64) -> Pfn {
        let pfn = self.bump(count);
        self.stats.data_frames += count;
        self.contig_free_bytes = self
            .contig_free_bytes
            .saturating_sub(count.saturating_mul(PAGE_SIZE * FRAGMENTATION_FACTOR));
        pfn
    }

    /// Allocates `frames` physically contiguous frames aligned to the
    /// request size, as needed for a 2 MB page or an NDPage flattened node.
    ///
    /// Returns `None` when the contiguity pool is exhausted (data requests
    /// only — page-table storage is allocated at boot reservation priority
    /// and always succeeds, mirroring kernel behaviour).
    pub fn alloc_contiguous(&mut self, frames: u64, purpose: FramePurpose) -> Option<Pfn> {
        let bytes = frames * PAGE_SIZE;
        match purpose {
            FramePurpose::Data => {
                let align = frames.next_power_of_two();
                let aligned_start = self.next_frame.div_ceil(align) * align;
                let physically_fits = aligned_start + frames <= self.total_frames;
                if self.contig_free_bytes < bytes || !physically_fits {
                    self.stats.huge_failures += 1;
                    return None;
                }
                self.contig_free_bytes -= bytes;
                self.stats.huge_allocs += 1;
                Some(self.bump_aligned(frames))
            }
            FramePurpose::PageTable => {
                let pfn = self.bump_aligned(frames);
                self.stats.table_frames += frames;
                self.mark_table(pfn, frames);
                Some(pfn)
            }
        }
    }

    /// Whether `pfn` holds page-table storage (the OS's PTE-region mark).
    #[must_use]
    pub fn is_table_frame(&self, pfn: Pfn) -> bool {
        let idx = pfn.as_u64() as usize;
        if idx >= self.total_frames as usize {
            return false;
        }
        self.table_bitmap[idx / 64] & (1 << (idx % 64)) != 0
    }

    fn mark_table(&mut self, start: Pfn, frames: u64) {
        for f in 0..frames {
            let idx = (start.as_u64() + f) as usize;
            self.table_bitmap[idx / 64] |= 1 << (idx % 64);
        }
    }

    fn bump(&mut self, frames: u64) -> Pfn {
        assert!(
            self.next_frame + frames <= self.total_frames,
            "physical memory exhausted ({} of {} frames)",
            self.next_frame,
            self.total_frames
        );
        let pfn = Pfn::new(self.next_frame);
        self.next_frame += frames;
        pfn
    }

    fn bump_aligned(&mut self, frames: u64) -> Pfn {
        let align = frames.next_power_of_two();
        let aligned = self.next_frame.div_ceil(align) * align;
        self.next_frame = aligned;
        self.bump(frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_distinct_and_nonzero() {
        let mut a = FrameAllocator::new(1 << 20);
        let f1 = a.alloc_frame(FramePurpose::Data);
        let f2 = a.alloc_frame(FramePurpose::Data);
        assert_ne!(f1, f2);
        assert!(f1.as_u64() > 0);
        assert_eq!(a.stats().data_frames, 2);
    }

    #[test]
    fn table_frames_are_marked() {
        let mut a = FrameAllocator::new(1 << 20);
        let t = a.alloc_frame(FramePurpose::PageTable);
        let d = a.alloc_frame(FramePurpose::Data);
        assert!(a.is_table_frame(t));
        assert!(!a.is_table_frame(d));
        assert!(!a.is_table_frame(Pfn::new(u64::MAX >> 12)));
    }

    #[test]
    fn contiguous_is_aligned() {
        let mut a = FrameAllocator::new(64 << 20);
        a.alloc_frame(FramePurpose::Data); // misalign the bump pointer
        let huge = a.alloc_contiguous(512, FramePurpose::Data).expect("pool");
        assert_eq!(huge.as_u64() % 512, 0);
    }

    #[test]
    fn contiguity_pool_exhausts_for_data_not_tables() {
        let mut a = FrameAllocator::new(16 << 20); // 16 MB, pool ≈ 11 MB
        let mut ok = 0;
        while a.alloc_contiguous(512, FramePurpose::Data).is_some() {
            ok += 1;
            assert!(ok < 100, "pool never exhausted");
        }
        assert!(ok >= 1);
        assert!(a.stats().huge_failures >= 1);
        // Page-table contiguous allocation still succeeds.
        assert!(a.alloc_contiguous(512, FramePurpose::PageTable).is_some());
    }

    #[test]
    fn scattered_pages_erode_contiguity() {
        let mut a = FrameAllocator::new(16 << 20);
        let before = a.contig_free_bytes();
        for _ in 0..100 {
            a.alloc_frame(FramePurpose::Data);
        }
        assert_eq!(
            before - a.contig_free_bytes(),
            100 * PAGE_SIZE * FRAGMENTATION_FACTOR
        );
    }

    #[test]
    fn bulk_data_frames_match_singles() {
        let mut singles = FrameAllocator::new(16 << 20);
        let mut bulk = FrameAllocator::new(16 << 20);
        let first_single = singles.alloc_frame(FramePurpose::Data);
        for _ in 1..300 {
            singles.alloc_frame(FramePurpose::Data);
        }
        let first_bulk = bulk.alloc_data_frames(300);
        assert_eq!(first_single, first_bulk);
        assert_eq!(singles.frames_used(), bulk.frames_used());
        assert_eq!(singles.contig_free_bytes(), bulk.contig_free_bytes());
        assert_eq!(singles.stats().data_frames, bulk.stats().data_frames);
        // Next allocation continues from the same point in both.
        assert_eq!(
            singles.alloc_frame(FramePurpose::PageTable),
            bulk.alloc_frame(FramePurpose::PageTable)
        );
    }

    #[test]
    fn bulk_pool_erosion_saturates_like_singles() {
        let mut singles = FrameAllocator::with_contig_pool(64 << 20, 5 * PAGE_SIZE);
        let mut bulk = FrameAllocator::with_contig_pool(64 << 20, 5 * PAGE_SIZE);
        for _ in 0..4 {
            singles.alloc_frame(FramePurpose::Data);
        }
        bulk.alloc_data_frames(4);
        assert_eq!(singles.contig_free_bytes(), 0);
        assert_eq!(bulk.contig_free_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "physical memory exhausted")]
    fn oom_panics() {
        let mut a = FrameAllocator::new(2 * PAGE_SIZE);
        a.alloc_frame(FramePurpose::Data);
        a.alloc_frame(FramePurpose::Data); // frame 0 reserved → second alloc overflows
    }
}
