#![forbid(unsafe_code)]
//! The memory-management unit of the simulated cores: TLBs, page-walk
//! caches, and the hardware page-table walker.
//!
//! Matches Table I's MMU: a 64-entry 4-way L1 DTLB (1-cycle), a 128-entry
//! 4-way L1 ITLB (modelled but idle — traces are data-only), and a
//! 1536-entry L2 TLB (12-cycle). On an L2 miss the [`walker`] executes the
//! page table's [`WalkPath`], consulting per-level page-walk caches
//! ([`pwc`]) exactly as §V-C describes: NDPage keeps the near-perfect
//! PL4/PL3 PWCs and confines the poorly-hitting bottom levels to a single
//! flattened lookup.
//!
//! [`WalkPath`]: ndpage::walk::WalkPath
//!
//! # Examples
//!
//! TLB entries, PWC tags and walker state are tagged by [`Asid`], so
//! multiprogrammed cores keep several address spaces resident and flush
//! selectively ([`Tlb::flush_asid`]) or entirely ([`Tlb::flush_all`], the
//! untagged-TLB context-switch penalty).
//!
//! [`Asid`]: ndp_types::Asid
//! [`Tlb::flush_asid`]: tlb::Tlb::flush_asid
//! [`Tlb::flush_all`]: tlb::Tlb::flush_all
//!
//! ```
//! use ndp_mmu::tlb::{TlbConfig, TlbHierarchy};
//! use ndp_types::{Asid, PageSize, Pfn, Vpn};
//!
//! let mut tlb = TlbHierarchy::table1();
//! let vpn = Vpn::new(0x1234);
//! assert!(tlb.lookup(Asid::ZERO, vpn).outcome.is_miss());
//! tlb.fill(Asid::ZERO, vpn, Pfn::new(0x99), PageSize::Size4K);
//! assert!(!tlb.lookup(Asid::ZERO, vpn).outcome.is_miss());
//! // A second address space never sees the first one's entries.
//! assert!(tlb.lookup(Asid(1), vpn).outcome.is_miss());
//! # let _ = TlbConfig::l1_dtlb();
//! ```

pub mod pwc;
pub mod tlb;
pub mod walker;

pub use pwc::{Pwc, PwcSet};
pub use tlb::{Tlb, TlbConfig, TlbHierarchy};
pub use walker::{PageTableWalker, WalkPlan, WalkPlanner, WalkRounds, WalkerSlots};
