#![forbid(unsafe_code)]
//! Cache substrate for the NDPage reproduction.
//!
//! Provides one set-associative write-back LRU line array,
//! [`set_assoc::SetAssocCache`], with **per-class statistics** — every
//! line remembers whether it holds normal data or page-table metadata,
//! so the pollution effects central to the paper's first key observation
//! (§IV-A) can be measured directly:
//!
//! * the L1 miss rate of metadata (~98% in the paper, Fig 7),
//! * the inflation of the *data* miss rate caused by metadata fills
//!   evicting useful data (26.16% → 35.89%, a 1.37× increase).
//!
//! [`hierarchy::CacheHierarchy`] assembles the per-core NDP configuration
//! (a single 32 KB L1) and the CPU configuration (L1 + 512 KB L2 +
//! 2 MB/core L3) from Table I, and owns the core's [`mshr::MshrFile`] —
//! the miss-status holding registers that let a non-blocking core overlap
//! independent misses and coalesce same-line ones onto a single fill.
//!
//! [`shared::SharedCache`] models the layer *below* the private
//! hierarchies that co-running cores and processes genuinely share: a
//! `SetAssocCache` behind banked ports and per-bank MSHR files, serving
//! as a shared L3 (inclusive or exclusive of the private levels, with
//! back-invalidation on inclusive eviction) or an NDP per-vault buffer,
//! with occupancy accounted by [`ndp_types::Asid`].
//!
//! # Examples
//!
//! ```
//! use ndp_cache::hierarchy::CacheHierarchy;
//! use ndp_types::{AccessClass, PhysAddr, RwKind};
//!
//! let mut ndp_l1 = CacheHierarchy::ndp();
//! let addr = PhysAddr::new(0x1000);
//! // Cold miss: the lookup's set scan picks the slot the line goes to,
//! // and the install after the fetch below fills it (an empty set
//! // evicts nothing).
//! assert!(!ndp_l1.lookup(addr, RwKind::Read, AccessClass::Data).is_hit());
//! assert_eq!(ndp_l1.install(0, addr, AccessClass::Data, false), None);
//! assert!(ndp_l1.lookup(addr, RwKind::Read, AccessClass::Data).is_hit());
//! ```

pub mod hierarchy;
pub mod mshr;
pub mod set_assoc;
pub mod shared;

pub use hierarchy::CacheHierarchy;
pub use mshr::{MshrFile, MshrLookup, MshrStats, MshrStep};
pub use set_assoc::{Access, CacheConfig, CacheStats, SetAssocCache, Slot, Victim};
pub use shared::{InclusionPolicy, SharedCache, SharedConfig, SharedStats};
