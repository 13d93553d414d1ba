//! Memory-request identity and completion tickets.
//!
//! The non-blocking pipeline tracks every outstanding memory operation by
//! *when it finishes* rather than charging its latency to the issuing
//! core's clock on the spot. Two small types carry that information
//! across crate boundaries:
//!
//! * [`LineAddr`] — a cache-line-granular address, the coalescing key of
//!   MSHR files and the interleaving key of channel maps. Keeping the
//!   `>> 6` in one newtype removes the magic shifts that used to be
//!   scattered through the simulator and the DRAM decoder.
//! * [`MemTicket`] — the completion record of one memory-system request:
//!   issue, arrival and done timestamps, from which every latency the
//!   reports need (total, network, queueing-inclusive service) derives.

use crate::addr::PhysAddr;
use crate::cycles::Cycles;
use core::fmt;

/// Bytes per cache line / DRAM transfer (64 B everywhere in Table I).
pub const LINE_BYTES: u64 = 64;

/// Log2 of [`LINE_BYTES`].
pub const LINE_SHIFT: u32 = 6;

/// A physical address at cache-line granularity.
///
/// MSHRs coalesce misses per line, DRAM channels interleave per line, and
/// caches tag per line — all three now share this key type instead of
/// re-deriving `addr >> 6` locally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// The line containing `addr`.
    #[must_use]
    #[inline]
    pub const fn of(addr: PhysAddr) -> Self {
        LineAddr(addr.as_u64() >> LINE_SHIFT)
    }

    /// The raw line number (byte address divided by [`LINE_BYTES`]).
    #[must_use]
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The first byte address of this line.
    #[must_use]
    #[inline]
    pub const fn base(self) -> PhysAddr {
        PhysAddr::new(self.0 << LINE_SHIFT)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line:{:#x}", self.0 << LINE_SHIFT)
    }
}

/// Completion record of one request through the memory system.
///
/// `issue ≤ arrival ≤ done`: the request leaves the core at `issue`,
/// reaches the controller at `arrival` (after the NoC traversal) and its
/// data is back at the core at `done` (service plus the return hop). The
/// blocking engine collapses a ticket to `total_latency()` immediately;
/// the windowed engine keeps `done` as the op's retirement deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemTicket {
    /// When the core issued the request.
    pub issue: Cycles,
    /// When the request reached the memory controller.
    pub arrival: Cycles,
    /// When the data is back at the core.
    pub done: Cycles,
}

impl MemTicket {
    /// A ticket that completes instantly at `now` (zero-latency paths).
    #[must_use]
    pub const fn immediate(now: Cycles) -> Self {
        MemTicket {
            issue: now,
            arrival: now,
            done: now,
        }
    }

    /// End-to-end latency the issuer would wait for this request.
    #[must_use]
    pub fn total_latency(&self) -> Cycles {
        self.done - self.issue
    }
}

impl Default for MemTicket {
    fn default() -> Self {
        MemTicket::immediate(Cycles::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_addr_strips_offset() {
        let a = LineAddr::of(PhysAddr::new(0x1003f));
        let b = LineAddr::of(PhysAddr::new(0x10000));
        assert_eq!(a, b);
        assert_ne!(LineAddr::of(PhysAddr::new(0x10040)), a);
        assert_eq!(a.base(), PhysAddr::new(0x10000));
        assert_eq!(a.as_u64(), 0x10000 >> 6);
        assert_eq!(a.to_string(), "line:0x10000");
    }

    #[test]
    fn ticket_latencies() {
        let t = MemTicket {
            issue: Cycles::new(100),
            arrival: Cycles::new(110),
            done: Cycles::new(250),
        };
        assert_eq!(t.total_latency(), Cycles::new(150));
        let i = MemTicket::immediate(Cycles::new(7));
        assert_eq!(i.total_latency(), Cycles::ZERO);
        assert_eq!(i.done, Cycles::new(7));
        assert_eq!(MemTicket::default().done, Cycles::ZERO);
    }
}
