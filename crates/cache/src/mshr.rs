//! Miss-status holding registers: the structure that lets one core keep
//! several cache misses in flight.
//!
//! Each entry tracks one outstanding *line* fill and the timestamp its
//! data arrives. A second miss to the same line while the fill is in
//! flight **coalesces**: it piggybacks on the existing entry's completion
//! and sends nothing to memory (the paper's NDP cores are simple, but any
//! non-blocking memory stage needs exactly this file — without it,
//! overlapped same-line misses would each pay a DRAM round trip that real
//! hardware issues once).
//!
//! The file is a timing structure, not a functional one: entries free
//! themselves implicitly once simulated time passes their fill time, so
//! the file needs no explicit retire call and stays deterministic under
//! any interleaving the simulator produces.

use ndp_types::{Cycles, LineAddr};

/// Outcome of probing the MSHR file for a missing line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrLookup {
    /// The line is already being fetched; the miss merges into that entry
    /// and its data arrives at the contained timestamp.
    Coalesced(Cycles),
    /// No entry covers the line and a register is free: the caller must
    /// fetch from memory and then [`MshrFile::allocate`] the fill.
    Free,
    /// No entry covers the line and every register is busy; the fetch
    /// cannot start before the contained timestamp (the earliest entry to
    /// free). Structural backpressure: the miss still happens, later.
    Full(Cycles),
}

/// Statistics accumulated by one MSHR file.
#[derive(Debug, Clone, Copy, Default)]
pub struct MshrStats {
    /// Fills allocated (primary misses sent to memory).
    pub allocated: u64,
    /// Misses merged into an in-flight fill (no memory request issued).
    pub coalesced: u64,
    /// Misses that found the file full and had to wait for a register.
    pub full_stalls: u64,
    /// Total cycles those misses waited for a free register.
    pub full_stall_cycles: u64,
}

/// Completed-fill records retained beyond the register count. The
/// simulator processes a core's ops in *issue* order while their
/// timestamps interleave (an op's data access can carry an earlier time
/// than the previously processed op's), so a record must survive until
/// no earlier-timestamped probe can still need it — one full issue
/// window (≤ 64 ops) bounds that distance.
const HISTORY_SLACK: usize = 64;

/// A fixed-capacity file of in-flight line fills.
///
/// `capacity` bounds the *live* fills (the hardware registers); the
/// backing list additionally retains up to [`HISTORY_SLACK`] expired
/// records so that probes processed later but timestamped earlier still
/// observe fills that were in flight at their instant.
#[derive(Debug, Clone)]
pub struct MshrFile {
    /// Record lines, parallel to `dones` (struct-of-arrays: the live-fill
    /// and occupancy scans each touch only the array they test, and both
    /// stay small — ≤ capacity + [`HISTORY_SLACK`] — and branch-light).
    lines: Vec<LineAddr>,
    /// Fill-completion time of each record, parallel to `lines`.
    dones: Vec<Cycles>,
    capacity: usize,
    stats: MshrStats,
}

impl MshrFile {
    /// A file with `capacity` registers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a non-blocking cache needs at least
    /// one register (capacity 1 reproduces a blocking cache exactly: the
    /// sole fill always completes before the next blocking access issues).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR file needs at least one register");
        MshrFile {
            lines: Vec::with_capacity(capacity),
            dones: Vec::with_capacity(capacity),
            capacity,
            stats: MshrStats::default(),
        }
    }

    /// Number of registers.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &MshrStats {
        &self.stats
    }

    /// Registers still occupied at `now` (fills not yet complete).
    #[must_use]
    pub fn in_flight(&self, now: Cycles) -> usize {
        self.dones.iter().filter(|&&done| done > now).count()
    }

    /// The completion time of an in-flight fill covering `line`, if one
    /// exists at `now`. A `Some` is a **merge** — the caller's access
    /// piggybacks on that fill — and is counted as coalesced. Used both
    /// by [`MshrFile::probe`] and directly for hit-under-miss: the
    /// functional cache installs a line the moment its fill is *issued*,
    /// so a later access that "hits" the line must still wait for the
    /// in-flight data if the fill has not landed yet.
    pub fn fill_in_flight(&mut self, line: LineAddr, now: Cycles) -> Option<Cycles> {
        let done = self
            .lines
            .iter()
            .zip(&self.dones)
            .find(|&(&l, &done)| l == line && done > now)
            .map(|(_, &done)| done);
        if done.is_some() {
            self.stats.coalesced += 1;
        }
        done
    }

    /// Probes the file for a miss on `line` observed at `now`, recording
    /// statistics. See [`MshrLookup`] for the three outcomes. A `Full`
    /// result does **not** reserve anything — the caller re-issues the
    /// fetch at the returned time and allocates then.
    pub fn probe(&mut self, line: LineAddr, now: Cycles) -> MshrLookup {
        // One pass does both scans: the first live record of `line` is a
        // merge (as in `fill_in_flight`); otherwise it counts live fills.
        let mut live = 0;
        for (&l, &done) in self.lines.iter().zip(&self.dones) {
            if done > now {
                if l == line {
                    self.stats.coalesced += 1;
                    return MshrLookup::Coalesced(done);
                }
                live += 1;
            }
        }
        if live < self.capacity() {
            return MshrLookup::Free;
        }
        // The file frees up once enough live fills land that the count
        // drops below capacity. Probes are processed in issue order but
        // timestamped out of order, so more than `capacity` fills can be
        // live at this probe's instant — the wait must cover all the
        // excess, not just the earliest completion. (Expired history
        // records are skipped; their times are in the past.)
        let mut live: Vec<Cycles> = self
            .dones
            .iter()
            .filter(|&&done| done > now)
            .copied()
            .collect();
        live.sort_unstable();
        let free_at = live[live.len() - self.capacity];
        self.stats.full_stalls += 1;
        self.stats.full_stall_cycles += (free_at - now).as_u64();
        MshrLookup::Full(free_at)
    }

    /// Records a primary-miss fill for `line` completing at `done`.
    ///
    /// Call after a [`MshrLookup::Free`] probe (or after waiting out a
    /// [`MshrLookup::Full`]); `now` is when the fetch was actually sent.
    /// Records are never overwritten in place — an expired register's
    /// *record* may still be needed by a probe that is processed later
    /// but timestamped earlier (see [`HISTORY_SLACK`]); instead the
    /// oldest-completing record is evicted once the history is full.
    pub fn allocate(&mut self, line: LineAddr, now: Cycles, done: Cycles) {
        debug_assert!(self.in_flight(now) < self.capacity, "no free register");
        self.stats.allocated += 1;
        self.lines.push(line);
        self.dones.push(done);
        if self.dones.len() > self.capacity + HISTORY_SLACK {
            // The first record with the minimum completion time.
            let min = *self.dones.iter().min().expect("non-empty list");
            let oldest = self
                .dones
                .iter()
                .position(|&d| d == min)
                .expect("minimum is present");
            self.lines.swap_remove(oldest);
            self.dones.swap_remove(oldest);
        }
    }

    /// Clears in-flight entries and statistics.
    pub fn reset(&mut self) {
        self.lines.clear();
        self.dones.clear();
        self.stats = MshrStats::default();
    }

    /// Clears statistics, keeping in-flight entries.
    pub fn clear_stats(&mut self) {
        self.stats = MshrStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_types::PhysAddr;

    fn line(addr: u64) -> LineAddr {
        LineAddr::of(PhysAddr::new(addr))
    }

    #[test]
    fn same_line_misses_share_one_fill() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.probe(line(0x1000), Cycles::new(10)), MshrLookup::Free);
        m.allocate(line(0x1000), Cycles::new(10), Cycles::new(150));
        // Another word of the same line while the fill is in flight.
        assert_eq!(
            m.probe(line(0x1020), Cycles::new(50)),
            MshrLookup::Coalesced(Cycles::new(150)),
            "same 64 B line merges"
        );
        assert_eq!(m.stats().allocated, 1);
        assert_eq!(m.stats().coalesced, 1);
        // A different line does not merge.
        assert_eq!(m.probe(line(0x1040), Cycles::new(50)), MshrLookup::Free);
    }

    #[test]
    fn entries_expire_when_time_passes() {
        let mut m = MshrFile::new(1);
        m.allocate(line(0x0), Cycles::ZERO, Cycles::new(100));
        // At exactly the completion time the register is free again (the
        // data has arrived), so no coalescing and no stall.
        assert_eq!(m.probe(line(0x0), Cycles::new(100)), MshrLookup::Free);
        assert_eq!(m.in_flight(Cycles::new(100)), 0);
        assert_eq!(m.in_flight(Cycles::new(99)), 1);
    }

    #[test]
    fn full_file_backpressures_until_earliest_free() {
        let mut m = MshrFile::new(2);
        m.allocate(line(0x0), Cycles::ZERO, Cycles::new(300));
        m.allocate(line(0x40), Cycles::ZERO, Cycles::new(200));
        assert_eq!(
            m.probe(line(0x80), Cycles::new(50)),
            MshrLookup::Full(Cycles::new(200)),
            "earliest completion gates the next fetch"
        );
        assert_eq!(m.stats().full_stalls, 1);
        assert_eq!(m.stats().full_stall_cycles, 150);
        // Once the earliest fill lands, a register is free and the slot is
        // reused rather than growing the file.
        assert_eq!(m.probe(line(0x80), Cycles::new(200)), MshrLookup::Free);
        m.allocate(line(0x80), Cycles::new(200), Cycles::new(400));
        assert_eq!(m.in_flight(Cycles::new(250)), 2);
    }

    #[test]
    fn capacity_one_never_coalesces_under_blocking_use() {
        // The blocking engine only issues the next access after the
        // previous fill completed, so a 1-register file behaves as if it
        // were not there: every probe is Free.
        let mut m = MshrFile::new(1);
        let mut now = Cycles::ZERO;
        for i in 0..8u64 {
            assert_eq!(m.probe(line(i * 64), now), MshrLookup::Free);
            let done = now + Cycles::new(100);
            m.allocate(line(i * 64), now, done);
            now = done; // blocking: wait out the fill
        }
        assert_eq!(m.stats().coalesced, 0);
        assert_eq!(m.stats().full_stalls, 0);
    }

    #[test]
    fn records_survive_register_reuse_for_earlier_timestamped_probes() {
        // Processing order ≠ timestamp order: op B's fetch can be sent at
        // t=500 (waiting out a full file) before op C's hit at t=112 is
        // processed. Reusing X's register must not erase X's record — C
        // still needs to see that X's fill is in flight at t=112.
        let mut m = MshrFile::new(1);
        m.allocate(line(0x0), Cycles::ZERO, Cycles::new(500)); // X
        assert_eq!(m.probe(line(0x40), Cycles::new(500)), MshrLookup::Free);
        m.allocate(line(0x40), Cycles::new(500), Cycles::new(900)); // Y
        assert_eq!(
            m.fill_in_flight(line(0x0), Cycles::new(112)),
            Some(Cycles::new(500)),
            "X's in-flight record must survive Y's allocation"
        );
        assert_eq!(m.fill_in_flight(line(0x0), Cycles::new(500)), None);
    }

    #[test]
    fn probe_agrees_with_the_two_scan_reference() {
        // The fused probe must answer exactly as `fill_in_flight` then
        // `in_flight` would, including which record a merge reports.
        let mut m = MshrFile::new(4);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut now = Cycles::ZERO;
        for _ in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let l = line((x % 24) * 64);
            now += Cycles::new(x % 7);
            let t = now + Cycles::new(x % 40);
            let mut reference = m.clone();
            let want = match reference.fill_in_flight(l, t) {
                Some(done) => MshrLookup::Coalesced(done),
                None if reference.in_flight(t) < 4 => MshrLookup::Free,
                None => MshrLookup::Full(Cycles::ZERO),
            };
            let got = m.probe(l, t);
            match (got, want) {
                (MshrLookup::Full(_), MshrLookup::Full(_)) => {}
                _ => assert_eq!(got, want),
            }
            assert_eq!(m.stats().coalesced, reference.stats().coalesced);
            if got == MshrLookup::Free {
                m.allocate(l, t, t + Cycles::new(20 + x % 60));
            }
        }
    }

    #[test]
    fn history_is_bounded() {
        let mut m = MshrFile::new(2);
        let mut now = Cycles::ZERO;
        for i in 0..(2 * (2 + HISTORY_SLACK) as u64) {
            m.allocate(line(i * 64), now, now + Cycles::new(10));
            now += Cycles::new(10);
        }
        assert!(m.lines.len() <= 2 + HISTORY_SLACK);
        assert!(m.in_flight(now - Cycles::new(5)) >= 1, "newest survives");
    }

    #[test]
    fn reset_and_clear_stats() {
        let mut m = MshrFile::new(2);
        m.allocate(line(0x0), Cycles::ZERO, Cycles::new(100));
        m.probe(line(0x0), Cycles::new(10));
        m.clear_stats();
        assert_eq!(m.stats().coalesced, 0);
        assert_eq!(m.in_flight(Cycles::new(10)), 1, "entries survive");
        m.reset();
        assert_eq!(m.in_flight(Cycles::new(10)), 0);
    }

    #[test]
    #[should_panic(expected = "at least one register")]
    fn zero_capacity_rejected() {
        let _ = MshrFile::new(0);
    }
}
