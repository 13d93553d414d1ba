//! Compact 64-bit page-table entries.
//!
//! Layout (low to high bits):
//!
//! | bits   | field                                             |
//! |--------|---------------------------------------------------|
//! | 0      | present                                           |
//! | 1      | writable                                          |
//! | 2      | huge leaf (2 MB translation at a non-leaf level)  |
//! | 3      | flattened (next level is a merged L2/L1 node) — the single extra bit the paper adds to control registers and PTEs (§V-B) |
//! | 12..48 | physical frame number                             |
//!
//! The same entry format is used both for leaf translations and for
//! next-level pointers (where the PFN names the child node's first frame).

use ndp_types::Pfn;

const PRESENT: u64 = 1 << 0;
const WRITABLE: u64 = 1 << 1;
const HUGE: u64 = 1 << 2;
const FLATTENED: u64 = 1 << 3;
const PFN_SHIFT: u32 = 12;
const PFN_MASK: u64 = 0xf_ffff_ffff; // 36 bits of PFN

/// One 64-bit page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Pte(u64);

impl Pte {
    /// The all-zero, not-present entry.
    pub const NULL: Pte = Pte(0);

    /// A present leaf entry translating to `pfn`.
    #[must_use]
    pub fn leaf(pfn: Pfn) -> Self {
        Pte(PRESENT | WRITABLE | ((pfn.as_u64() & PFN_MASK) << PFN_SHIFT))
    }

    /// A present 2 MB leaf entry.
    #[must_use]
    pub fn huge_leaf(pfn: Pfn) -> Self {
        Pte(Pte::leaf(pfn).0 | HUGE)
    }

    /// A present pointer to a next-level node whose storage starts at `pfn`.
    #[must_use]
    pub fn next(pfn: Pfn) -> Self {
        Pte(PRESENT | ((pfn.as_u64() & PFN_MASK) << PFN_SHIFT))
    }

    /// A present pointer to a *flattened* L2/L1 node (sets the paper's
    /// flattened indicator bit).
    #[must_use]
    pub fn next_flattened(pfn: Pfn) -> Self {
        Pte(Pte::next(pfn).0 | FLATTENED)
    }

    /// Whether the entry is present.
    #[must_use]
    pub const fn is_present(self) -> bool {
        self.0 & PRESENT != 0
    }

    /// Whether the entry is a 2 MB leaf.
    #[must_use]
    pub const fn is_huge(self) -> bool {
        self.0 & HUGE != 0
    }

    /// Whether the entry points to a flattened L2/L1 node.
    #[must_use]
    pub const fn is_flattened(self) -> bool {
        self.0 & FLATTENED != 0
    }

    /// The physical frame number carried by the entry.
    #[must_use]
    pub const fn pfn(self) -> Pfn {
        Pfn::new((self.0 >> PFN_SHIFT) & PFN_MASK)
    }

    /// Raw 64-bit representation.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_is_not_present() {
        assert!(!Pte::NULL.is_present());
        assert_eq!(Pte::NULL.raw(), 0);
        assert_eq!(Pte::default(), Pte::NULL);
    }

    #[test]
    fn leaf_round_trips_pfn() {
        let p = Pte::leaf(Pfn::new(0x12345));
        assert!(p.is_present());
        assert!(!p.is_huge());
        assert!(!p.is_flattened());
        assert_eq!(p.pfn(), Pfn::new(0x12345));
    }

    #[test]
    fn huge_leaf_flag() {
        let p = Pte::huge_leaf(Pfn::new(0x200));
        assert!(p.is_huge());
        assert!(p.is_present());
        assert_eq!(p.pfn(), Pfn::new(0x200));
    }

    #[test]
    fn next_pointers() {
        let n = Pte::next(Pfn::new(7));
        assert!(n.is_present());
        assert!(!n.is_flattened());
        let f = Pte::next_flattened(Pfn::new(7));
        assert!(f.is_flattened());
        assert_eq!(f.pfn(), n.pfn());
    }

    #[test]
    fn pfn_is_masked_to_36_bits() {
        let p = Pte::leaf(Pfn::new(u64::MAX));
        assert_eq!(p.pfn().as_u64(), 0xf_ffff_ffff);
    }
}
