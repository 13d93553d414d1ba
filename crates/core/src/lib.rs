#![forbid(unsafe_code)]
//! # NDPage: tailored page tables for near-data processing
//!
//! This crate is the reproduction of the paper's primary contribution
//! (Jiang, Tu, An — *NDPage: Efficient Address Translation for Near-Data
//! Processing Architectures via Tailored Page Table*, DATE 2025):
//!
//! 1. **A metadata L1-cache-bypass policy** ([`bypass::BypassPolicy`]) —
//!    page-table-entry fetches are marked non-cacheable in the NDP L1,
//!    modelling the paper's PFLD-style special loads over OS-marked,
//!    64 B-aligned PTE regions (§V-A).
//! 2. **A flattened L2/L1 page table** ([`tree::NDPAGE`]) — the last two
//!    radix levels merge into a single 2 MB node with 2^18 entries,
//!    shortening every walk from 4 to 3 sequential accesses while keeping
//!    4 KB pages (§V-B).
//!
//! To evaluate them against the paper's baselines, the crate also implements
//! every comparison design behind one [`table::PageTable`] trait. The
//! radix-family designs are one [`tree::Tree`] type whose levels are data,
//! built from a [`tree::Layout`]:
//!
//! * [`tree::RADIX`] — the conventional x86-64 4-level radix table;
//! * [`tree::HUGE_PAGE`] — 2 MB transparent huge pages with a
//!   contiguity-aware allocator and 4 KB fallback;
//! * [`tree::TOP_FLATTENED`] — a counterpoint that merges the *top* two
//!   levels instead, showing why the paper's bottom-merge is the right
//!   one;
//!
//! and [`cuckoo::ElasticCuckooTable`] is the state-of-the-art hashed design
//! (ECH) with parallel way probes and elastic resizing.
//!
//! A shared [`alloc::FrameAllocator`] hands out physical frames, tags
//! page-table frames (so the bypass policy can recognise metadata), and
//! models physical-contiguity exhaustion — the effect behind Huge Page's
//! 8-core collapse in Fig 14.
//!
//! # Examples
//!
//! ```
//! use ndpage::alloc::FrameAllocator;
//! use ndpage::table::PageTable;
//! use ndpage::tree::{Tree, NDPAGE};
//! use ndp_types::VirtAddr;
//!
//! let mut alloc = FrameAllocator::new(16 << 30);
//! let mut pt = Tree::new(&NDPAGE, &mut alloc);
//! let vpn = VirtAddr::new(0x7f00_2000_1000).vpn();
//! pt.map(vpn, &mut alloc);
//! let walk = pt.walk_path(vpn).expect("mapped");
//! assert_eq!(walk.sequential_depth(), 3); // vs 4 for a radix table
//! ```

pub mod alloc;
pub(crate) mod arena;
pub mod bypass;
pub mod cuckoo;
pub mod mechanism;
pub mod occupancy;
pub mod pte;
pub mod table;
pub mod tree;
pub mod walk;

// Unit tests of the tree layouts, one module per design.
#[cfg(test)]
#[path = "tree_tests/flat.rs"]
mod flat;
#[cfg(test)]
#[path = "tree_tests/flat_top.rs"]
mod flat_top;
#[cfg(test)]
#[path = "tree_tests/huge.rs"]
mod huge;
#[cfg(test)]
#[path = "tree_tests/radix.rs"]
mod radix;

pub use alloc::FrameAllocator;
pub use bypass::BypassPolicy;
pub use mechanism::{Mechanism, PageTableImpl};
pub use table::{PageTable, PageTableKind, Translation};
pub use walk::{WalkPath, WalkStep};
