//! Virtual/physical addresses, page numbers and radix index arithmetic.
//!
//! The simulated machine follows the x86-64 layout the paper assumes: 48-bit
//! canonical virtual addresses, 4 KB base pages, and a 4-level radix page
//! table where each level indexes with 9 bits. NDPage's flattened L2/L1
//! table instead consumes the low 18 translation bits in one step
//! ([`ENTRIES_PER_FLAT_NODE`] entries per node).

use core::fmt;

/// Base page size in bytes (4 KB).
pub const PAGE_SIZE: u64 = 4096;
/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;
/// Bits of virtual-page-number consumed by one radix level.
pub const LEVEL_BITS: u32 = 9;
/// Entries per 4 KB radix node (2^9).
pub const ENTRIES_PER_NODE: u64 = 1 << LEVEL_BITS;
/// Entries per flattened L2/L1 node (2^18 = 262,144), per the paper §V-B.
pub const ENTRIES_PER_FLAT_NODE: u64 = 1 << (2 * LEVEL_BITS);
/// Size of one page-table entry in bytes.
pub const PTE_SIZE: u64 = 8;
/// Huge (2 MB) page size in bytes.
pub const HUGE_PAGE_SIZE: u64 = 2 * 1024 * 1024;
/// log2 of [`HUGE_PAGE_SIZE`].
pub const HUGE_PAGE_SHIFT: u32 = 21;
/// Width of the translated virtual address in bits (x86-64 canonical).
pub const VA_BITS: u32 = 48;
/// Cache line size in bytes; PTE regions are 64 B aligned per the paper §V-A.
pub const CACHE_LINE_SIZE: u64 = 64;

/// Page-table levels of the conventional radix design, plus the merged
/// level introduced by NDPage and the hash "level" used by cuckoo tables.
///
/// Ordering: `L4` is the root (walked first), `L1` the leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PtLevel {
    /// Root level (PL4, bits 47..=39).
    L4,
    /// PL3 (bits 38..=30).
    L3,
    /// PL2 (bits 29..=21).
    L2,
    /// Leaf level (PL1, bits 20..=12).
    L1,
    /// NDPage's merged PL2/PL1 node (bits 29..=12, 18 index bits).
    FlatL2L1,
    /// A bucket probe of a hashed page table (ECH); carries the way index.
    HashWay(u8),
}

impl PtLevel {
    /// Number of distinct PWC slots (see [`PtLevel::pwc_slot`]).
    pub const PWC_SLOTS: usize = 5 + Self::MAX_HASH_WAYS;

    /// Hash ways representable as PWC slots (ECH uses 3).
    pub const MAX_HASH_WAYS: usize = 8;

    /// Dense index of this level into a fixed-size per-level array — the
    /// level set is a tiny closed enum, so per-level state (PWC banks,
    /// stat tables) lives in arrays indexed by this slot instead of tree
    /// or hash maps. Slot order matches the enum's `Ord`.
    ///
    /// # Panics
    ///
    /// Panics on a hash way ≥ [`Self::MAX_HASH_WAYS`] (slots would
    /// silently alias otherwise).
    #[inline]
    #[must_use]
    pub const fn pwc_slot(self) -> usize {
        match self {
            PtLevel::L4 => 0,
            PtLevel::L3 => 1,
            PtLevel::L2 => 2,
            PtLevel::L1 => 3,
            PtLevel::FlatL2L1 => 4,
            PtLevel::HashWay(w) => {
                assert!((w as usize) < Self::MAX_HASH_WAYS);
                5 + w as usize
            }
        }
    }

    /// Inverse of [`Self::pwc_slot`].
    ///
    /// # Panics
    ///
    /// Panics if `slot >= PtLevel::PWC_SLOTS`.
    #[must_use]
    pub const fn from_pwc_slot(slot: usize) -> PtLevel {
        match slot {
            0 => PtLevel::L4,
            1 => PtLevel::L3,
            2 => PtLevel::L2,
            3 => PtLevel::L1,
            4 => PtLevel::FlatL2L1,
            _ => {
                assert!(slot < Self::PWC_SLOTS);
                PtLevel::HashWay((slot - 5) as u8)
            }
        }
    }

    /// Short display name matching the paper ("PL4".."PL1", "PL2/PL1").
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PtLevel::L4 => "PL4",
            PtLevel::L3 => "PL3",
            PtLevel::L2 => "PL2",
            PtLevel::L1 => "PL1",
            PtLevel::FlatL2L1 => "PL2/PL1",
            PtLevel::HashWay(_) => "hash-way",
        }
    }
}

impl fmt::Display for PtLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

macro_rules! addr_newtype {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(u64);

        impl $name {
            /// Wraps a raw 64-bit address.
            #[must_use]
            #[inline]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw address value.
            #[must_use]
            #[inline]
            pub const fn as_u64(self) -> u64 {
                self.0
            }

            /// Byte offset within the containing 4 KB page.
            #[must_use]
            #[inline]
            pub const fn page_offset(self) -> u64 {
                self.0 & (PAGE_SIZE - 1)
            }

            /// The address rounded down to its 4 KB page base.
            #[must_use]
            #[inline]
            pub const fn page_base(self) -> Self {
                Self(self.0 & !(PAGE_SIZE - 1))
            }

            /// The address rounded down to its 64 B cache-line base.
            #[must_use]
            #[inline]
            pub const fn line_base(self) -> Self {
                Self(self.0 & !(CACHE_LINE_SIZE - 1))
            }

            /// Returns the address advanced by `bytes`.
            ///
            /// # Panics
            ///
            /// Panics in debug builds on overflow.
            #[must_use]
            #[inline]
            pub const fn add(self, bytes: u64) -> Self {
                Self(self.0 + bytes)
            }

            /// Whether the address is aligned to `align` bytes
            /// (`align` must be a power of two).
            #[must_use]
            #[inline]
            pub const fn is_aligned(self, align: u64) -> bool {
                debug_assert!(align.is_power_of_two());
                self.0 & (align - 1) == 0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({:#x})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl fmt::UpperHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::UpperHex::fmt(&self.0, f)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                Self::new(raw)
            }
        }

        impl From<$name> for u64 {
            fn from(a: $name) -> u64 {
                a.as_u64()
            }
        }
    };
}

addr_newtype! {
    /// A virtual address in the simulated application's address space.
    VirtAddr
}

addr_newtype! {
    /// A physical address in the simulated machine's memory.
    PhysAddr
}

impl VirtAddr {
    /// Virtual page number of the containing 4 KB page.
    #[must_use]
    #[inline]
    pub const fn vpn(self) -> Vpn {
        Vpn(self.0 >> PAGE_SHIFT)
    }

    /// Virtual "huge page number" of the containing 2 MB region.
    #[must_use]
    #[inline]
    pub const fn huge_vpn(self) -> Vpn {
        Vpn((self.0 >> HUGE_PAGE_SHIFT) << LEVEL_BITS)
    }
}

impl PhysAddr {
    /// Physical frame number of the containing 4 KB frame.
    #[must_use]
    #[inline]
    pub const fn pfn(self) -> Pfn {
        Pfn(self.0 >> PAGE_SHIFT)
    }
}

/// A virtual page number: a [`VirtAddr`] shifted right by [`PAGE_SHIFT`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Vpn(u64);

impl Vpn {
    /// Wraps a raw virtual page number.
    #[must_use]
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// Returns the raw page-number value.
    #[must_use]
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Base virtual address of this page.
    #[must_use]
    #[inline]
    pub const fn base(self) -> VirtAddr {
        VirtAddr(self.0 << PAGE_SHIFT)
    }

    /// Index into the PL4 node (bits 47..=39 of the virtual address).
    #[must_use]
    #[inline]
    pub const fn l4_index(self) -> usize {
        ((self.0 >> (3 * LEVEL_BITS)) & (ENTRIES_PER_NODE - 1)) as usize
    }

    /// Index into a PL3 node (bits 38..=30).
    #[must_use]
    #[inline]
    pub const fn l3_index(self) -> usize {
        ((self.0 >> (2 * LEVEL_BITS)) & (ENTRIES_PER_NODE - 1)) as usize
    }

    /// Index into a PL2 node (bits 29..=21).
    #[must_use]
    #[inline]
    pub const fn l2_index(self) -> usize {
        ((self.0 >> LEVEL_BITS) & (ENTRIES_PER_NODE - 1)) as usize
    }

    /// Index into a PL1 node (bits 20..=12).
    #[must_use]
    #[inline]
    pub const fn l1_index(self) -> usize {
        (self.0 & (ENTRIES_PER_NODE - 1)) as usize
    }

    /// Returns the VPN advanced by `pages`.
    #[must_use]
    #[inline]
    pub const fn add(self, pages: u64) -> Self {
        Self(self.0 + pages)
    }
}

impl fmt::Debug for Vpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Vpn({:#x})", self.0)
    }
}

impl fmt::Display for Vpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A physical frame number: a [`PhysAddr`] shifted right by [`PAGE_SHIFT`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pfn(u64);

impl Pfn {
    /// Wraps a raw physical frame number.
    #[must_use]
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// Returns the raw frame-number value.
    #[must_use]
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Base physical address of this frame.
    #[must_use]
    #[inline]
    pub const fn base(self) -> PhysAddr {
        PhysAddr(self.0 << PAGE_SHIFT)
    }

    /// Physical address of entry `index` within a page-table node stored in
    /// this frame (8-byte entries).
    #[must_use]
    #[inline]
    pub const fn entry_addr(self, index: usize) -> PhysAddr {
        PhysAddr((self.0 << PAGE_SHIFT) + (index as u64) * PTE_SIZE)
    }

    /// Returns the frame number advanced by `frames`.
    #[must_use]
    #[inline]
    pub const fn add(self, frames: u64) -> Self {
        Self(self.0 + frames)
    }
}

impl fmt::Debug for Pfn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pfn({:#x})", self.0)
    }
}

impl fmt::Display for Pfn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// Page sizes supported by the simulated MMU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PageSize {
    /// 4 KB base page.
    #[default]
    Size4K,
    /// 2 MB huge page (transparent huge pages / NDPage flat-node backing).
    Size2M,
}

impl PageSize {
    /// Size in bytes.
    #[must_use]
    #[inline]
    pub const fn bytes(self) -> u64 {
        match self {
            PageSize::Size4K => PAGE_SIZE,
            PageSize::Size2M => HUGE_PAGE_SIZE,
        }
    }

    /// Number of 4 KB frames spanned.
    #[must_use]
    #[inline]
    pub const fn frames(self) -> u64 {
        self.bytes() / PAGE_SIZE
    }
}

impl fmt::Display for PageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageSize::Size4K => f.write_str("4KB"),
            PageSize::Size2M => f.write_str("2MB"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_offset_and_base() {
        let va = VirtAddr::new(0x1234_5678);
        assert_eq!(va.page_offset(), 0x678);
        assert_eq!(va.page_base().as_u64(), 0x1234_5000);
        assert_eq!(va.line_base().as_u64(), 0x1234_5640);
    }

    #[test]
    fn vpn_round_trip() {
        let va = VirtAddr::new(0x7fff_0000_1000);
        assert_eq!(va.vpn().base(), va.page_base());
        assert_eq!(va.vpn().as_u64(), 0x0007_fff0_0001);
    }

    #[test]
    fn radix_indices_cover_disjoint_bits() {
        // VA with a distinct 9-bit pattern in each level field.
        let vpn =
            Vpn::new((1 << (3 * LEVEL_BITS)) | (2 << (2 * LEVEL_BITS)) | (3 << LEVEL_BITS) | 4);
        assert_eq!(vpn.l4_index(), 1);
        assert_eq!(vpn.l3_index(), 2);
        assert_eq!(vpn.l2_index(), 3);
        assert_eq!(vpn.l1_index(), 4);
    }

    #[test]
    fn flat_index_is_l2_concat_l1() {
        // The flattened node's 18-bit index (the VPN's low 18 bits) is the
        // PL2 index followed by the PL1 index.
        for raw in [0u64, 1, 511, 512, 0x3ffff, 0x40000, 0xdead_beef] {
            let vpn = Vpn::new(raw);
            assert_eq!(
                raw & (ENTRIES_PER_FLAT_NODE - 1),
                ((vpn.l2_index() << LEVEL_BITS) | vpn.l1_index()) as u64,
                "vpn {raw:#x}"
            );
        }
    }

    #[test]
    fn flat_node_has_paper_entry_count() {
        // Paper §V-B: 2^9 × 2^9 = 262,144 entries fitting one 2 MB page.
        assert_eq!(ENTRIES_PER_FLAT_NODE, 262_144);
        assert_eq!(ENTRIES_PER_FLAT_NODE * PTE_SIZE, HUGE_PAGE_SIZE);
    }

    #[test]
    fn pfn_entry_addr() {
        let pfn = Pfn::new(0x100);
        assert_eq!(pfn.entry_addr(0).as_u64(), 0x100_000);
        assert_eq!(pfn.entry_addr(511).as_u64(), 0x100_000 + 511 * 8);
    }

    #[test]
    fn huge_alignment() {
        let va = VirtAddr::new(0x4020_3456);
        let vpn = va.vpn();
        assert_eq!(va.huge_vpn().l1_index(), 0);
        assert_eq!(va.huge_vpn().l2_index(), vpn.l2_index());
        assert_eq!(va.huge_vpn().as_u64(), vpn.as_u64() - vpn.l1_index() as u64);
    }

    #[test]
    fn page_size_accessors() {
        assert_eq!(PageSize::Size4K.bytes(), 4096);
        assert_eq!(PageSize::Size2M.bytes(), 2 * 1024 * 1024);
        assert_eq!(PageSize::Size2M.frames(), 512);
        assert_eq!(PageSize::Size4K.to_string(), "4KB");
    }

    #[test]
    fn level_names_match_paper() {
        assert_eq!(PtLevel::L4.name(), "PL4");
        assert_eq!(PtLevel::FlatL2L1.name(), "PL2/PL1");
    }

    #[test]
    fn pwc_slots_round_trip_in_level_order() {
        let levels = [
            PtLevel::L4,
            PtLevel::L3,
            PtLevel::L2,
            PtLevel::L1,
            PtLevel::FlatL2L1,
            PtLevel::HashWay(0),
            PtLevel::HashWay(2),
        ];
        let mut last = None;
        for level in levels {
            let slot = level.pwc_slot();
            assert!(slot < PtLevel::PWC_SLOTS);
            assert_eq!(PtLevel::from_pwc_slot(slot), level);
            // Slot order must match the enum's Ord so per-level stats
            // iterate in the same order the BTreeMap-backed bank used.
            if let Some((prev_level, prev_slot)) = last {
                assert!(level > prev_level && slot > prev_slot);
            }
            last = Some((level, slot));
        }
    }

    #[test]
    fn alignment_predicate() {
        assert!(PhysAddr::new(0x1000).is_aligned(4096));
        assert!(!PhysAddr::new(0x1040).is_aligned(4096));
        assert!(PhysAddr::new(0x1040).is_aligned(64));
    }

    #[test]
    fn display_formats_hex() {
        assert_eq!(VirtAddr::new(0xabc).to_string(), "0xabc");
        assert_eq!(format!("{:x}", Pfn::new(0xff).base()), "ff000");
        assert_eq!(format!("{:#X}", PhysAddr::new(0xbeef)), "0xBEEF");
    }
}
