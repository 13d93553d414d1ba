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
use std::collections::VecDeque;

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

/// Where an access goes once its tag check and the MSHR file have seen
/// it ([`MshrFile::step`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrStep {
    /// The data is ready at the contained time: a hit (once any
    /// in-flight fill of its line has landed) or a miss merged onto an
    /// in-flight fill.
    Ready(Cycles),
    /// A miss that fetches from the level below, leaving at the
    /// contained time (at once, or when a register frees). The caller
    /// registers the fill with [`MshrFile::allocate`] once it knows when
    /// the data lands.
    Fetch(Cycles),
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
pub const HISTORY_SLACK: usize = 64;

/// A fixed-capacity file of in-flight line fills.
///
/// `capacity` bounds the *live* fills (the hardware registers); the
/// backing list additionally retains up to [`HISTORY_SLACK`] expired
/// records so that probes processed later but timestamped earlier still
/// observe fills that were in flight at their instant.
///
/// Queries cost what the live frontier costs, not the retained history:
/// an ascending index of the completion times answers occupancy from its
/// tail (live fills are the suffix above `now`), the `Full` wait by
/// position and the eviction minimum from its front. The record arrays
/// keep their insertion order, because a merge reports the first live
/// record of its line in that order; a branch-free equality pass over
/// `lines` decides whether that exact scan is needed at all.
#[derive(Debug, Clone)]
pub struct MshrFile {
    /// Record lines, parallel to `dones` (struct-of-arrays: the
    /// equality pass touches only this array).
    lines: Vec<LineAddr>,
    /// Fill-completion time of each record, parallel to `lines`.
    dones: Vec<Cycles>,
    /// The same completion times as `dones`, sorted ascending.
    by_done: VecDeque<Cycles>,
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
            by_done: VecDeque::with_capacity(capacity),
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

    /// Registers still occupied at `now` (fills not yet complete): the
    /// suffix of the completion index above `now`, counted from the back.
    #[must_use]
    pub fn in_flight(&self, now: Cycles) -> usize {
        self.by_done
            .iter()
            .rev()
            .take_while(|&&done| done > now)
            .count()
    }

    /// The completion time of an in-flight fill covering `line`, if one
    /// exists at `now`. A `Some` is a **merge** — the caller's access
    /// piggybacks on that fill — and is counted as coalesced. Used by
    /// [`MshrFile::probe`] for a miss and by [`MshrFile::step`] for a
    /// hit-under-miss.
    pub fn fill_in_flight(&mut self, line: LineAddr, now: Cycles) -> Option<Cycles> {
        // The merge is the first live record of `line` in record order;
        // the exact scan runs only when some record holds `line` at all.
        if !self.lines.iter().fold(false, |any, &l| any | (l == line)) {
            return None;
        }
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
        if let Some(done) = self.fill_in_flight(line, now) {
            return MshrLookup::Coalesced(done);
        }
        if self.in_flight(now) < self.capacity {
            return MshrLookup::Free;
        }
        // The file frees up once enough live fills land that the count
        // drops below capacity. Probes are processed in issue order but
        // timestamped out of order, so more than `capacity` fills can be
        // live at this probe's instant — the wait must cover all the
        // excess, not just the earliest completion. The live fills are
        // the index's suffix above `now`, so the `capacity`-th latest of
        // them is the `capacity`-th latest completion overall.
        let free_at = self.by_done[self.by_done.len() - self.capacity];
        self.stats.full_stalls += 1;
        self.stats.full_stall_cycles += (free_at - now).as_u64();
        MshrLookup::Full(free_at)
    }

    /// The hit-under-miss / coalesce decision for an access to `line`
    /// whose tag check finished at `now`, hitting or not.
    ///
    /// The functional cache installs a line the moment its fill is
    /// *issued*, so a hit on a line whose fill is still in flight waits
    /// for the data (counted as coalesced). A miss merges onto an
    /// in-flight fill of its line, or fetches at once, or waits for a
    /// register ([`MshrFile::probe`]). A merge reports only fills that
    /// land after `now`, so a `Ready` time is never before `now`.
    pub fn step(&mut self, line: LineAddr, hit: bool, now: Cycles) -> MshrStep {
        if hit {
            return MshrStep::Ready(self.fill_in_flight(line, now).unwrap_or(now));
        }
        match self.probe(line, now) {
            MshrLookup::Coalesced(done) => MshrStep::Ready(done),
            MshrLookup::Free => MshrStep::Fetch(now),
            MshrLookup::Full(free_at) => MshrStep::Fetch(free_at),
        }
    }

    /// Records a primary-miss fill for `line` completing at `done`.
    ///
    /// Call after a [`MshrLookup::Free`] probe (or after waiting out a
    /// [`MshrLookup::Full`]); `now` is when the fetch was actually sent.
    /// Records are never overwritten in place — an expired register's
    /// *record* may still be needed by a probe that is processed later
    /// but timestamped earlier (see [`HISTORY_SLACK`]); instead the
    /// oldest-completing record (the first in record order, on ties) is
    /// evicted once the history is full.
    pub fn allocate(&mut self, line: LineAddr, now: Cycles, done: Cycles) {
        debug_assert!(self.in_flight(now) < self.capacity, "no free register");
        self.stats.allocated += 1;
        self.lines.push(line);
        self.dones.push(done);
        // New fills complete late, so their place is near the tail.
        let at = self.by_done.len() - self.by_done.iter().rev().take_while(|&&d| d > done).count();
        self.by_done.insert(at, done);
        if self.dones.len() > self.capacity + HISTORY_SLACK {
            let min = self.by_done.pop_front().expect("non-empty index");
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
        self.by_done.clear();
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
    use proptest::collection::vec;
    use proptest::prelude::*;

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

    /// The scan-everything MSHR file the production one must reproduce:
    /// every query walks the whole record list, `Full` sorts the live
    /// completions, and eviction takes the first record with the minimum
    /// completion time.
    #[derive(Debug, Clone)]
    struct ScanOracle {
        lines: Vec<LineAddr>,
        dones: Vec<Cycles>,
        capacity: usize,
        stats: MshrStats,
    }

    impl ScanOracle {
        fn new(capacity: usize) -> Self {
            ScanOracle {
                lines: Vec::new(),
                dones: Vec::new(),
                capacity,
                stats: MshrStats::default(),
            }
        }

        fn in_flight(&self, now: Cycles) -> usize {
            self.dones.iter().filter(|&&done| done > now).count()
        }

        fn fill_in_flight(&mut self, line: LineAddr, now: Cycles) -> Option<Cycles> {
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

        fn probe(&mut self, line: LineAddr, now: Cycles) -> MshrLookup {
            if let Some(done) = self.fill_in_flight(line, now) {
                return MshrLookup::Coalesced(done);
            }
            let mut live: Vec<Cycles> = self
                .dones
                .iter()
                .filter(|&&done| done > now)
                .copied()
                .collect();
            if live.len() < self.capacity {
                return MshrLookup::Free;
            }
            live.sort_unstable();
            let free_at = live[live.len() - self.capacity];
            self.stats.full_stalls += 1;
            self.stats.full_stall_cycles += (free_at - now).as_u64();
            MshrLookup::Full(free_at)
        }

        fn allocate(&mut self, line: LineAddr, done: Cycles) {
            self.stats.allocated += 1;
            self.lines.push(line);
            self.dones.push(done);
            if self.dones.len() > self.capacity + HISTORY_SLACK {
                let min = *self.dones.iter().min().expect("non-empty list");
                let oldest = self.dones.iter().position(|&d| d == min).unwrap();
                self.lines.swap_remove(oldest);
                self.dones.swap_remove(oldest);
            }
        }
    }

    /// Replays one stream of queries through an `MshrFile` and the scan
    /// oracle and compares every outcome, the statistics and the record
    /// order after each step. Each step is `(kind, line, jitter, dur)`:
    /// its timestamp is a steadily advancing clock plus `jitter`, so
    /// queries arrive out of timestamp order, as a windowed core issues
    /// them. Probes allocate the fill they ask for (at the `Full` wait's
    /// end if the file is full), so the history overflows its cap.
    fn mshr_matches_oracle(
        capacity: usize,
        stream: &[(u8, u64, u64, u64)],
    ) -> Result<(), TestCaseError> {
        let mut fast = MshrFile::new(capacity);
        let mut oracle = ScanOracle::new(capacity);
        for (i, &(kind, l, jitter, dur)) in stream.iter().enumerate() {
            let l = line(l * 64);
            let t = Cycles::new(i as u64 * 6 + jitter);
            match kind {
                0 => {
                    let got = fast.probe(l, t);
                    prop_assert_eq!(got, oracle.probe(l, t), "probe {}", i);
                    let sent = match got {
                        MshrLookup::Coalesced(_) => None,
                        MshrLookup::Free => Some(t),
                        MshrLookup::Full(at) => Some(at),
                    };
                    if let Some(sent) = sent {
                        fast.allocate(l, sent, sent + Cycles::new(dur));
                        oracle.allocate(l, sent + Cycles::new(dur));
                    }
                }
                1 => prop_assert_eq!(
                    fast.fill_in_flight(l, t),
                    oracle.fill_in_flight(l, t),
                    "fill_in_flight {}",
                    i
                ),
                2 if oracle.in_flight(t) < capacity => {
                    fast.allocate(l, t, t + Cycles::new(dur));
                    oracle.allocate(l, t + Cycles::new(dur));
                }
                _ => prop_assert_eq!(fast.in_flight(t), oracle.in_flight(t), "in_flight {}", i),
            }
            prop_assert_eq!(
                format!("{:?}", fast.stats()),
                format!("{:?}", oracle.stats),
                "stats after step {}",
                i
            );
            prop_assert_eq!(&fast.lines, &oracle.lines, "record lines after step {}", i);
            prop_assert_eq!(&fast.dones, &oracle.dones, "record times after step {}", i);
        }
        prop_assert_eq!(oracle.dones.len(), capacity + HISTORY_SLACK);
        Ok(())
    }

    /// Durations mixing zero (a record never live) with short and long
    /// fills, so completion times tie and interleave.
    fn fill_time() -> impl Strategy<Value = u64> {
        prop_oneof![Just(0u64), 1u64..30, 30u64..400]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Long out-of-order streams of probes, merges, allocations and
        /// occupancy queries answer exactly as the scan oracle does, for
        /// files of 1, 2, 8 and 16 registers whose history overflows.
        #[test]
        fn mshr_file_matches_scan_oracle(
            stream in vec((0u8..4, 0u64..48, 0u64..300, fill_time()), 800..1_200),
        ) {
            for capacity in [1, 2, 8, 16] {
                mshr_matches_oracle(capacity, &stream)?;
            }
        }
    }

    /// The timing loop's two-call sequence as every cache stage wrote it
    /// before the MSHR step existed: a hit asks `fill_in_flight` whether
    /// its line is still arriving; a miss matches `probe`. Runs on the
    /// scan oracle.
    fn two_call_oracle(file: &mut ScanOracle, line: LineAddr, hit: bool, now: Cycles) -> MshrStep {
        if hit {
            if let Some(fill_done) = file.fill_in_flight(line, now) {
                return MshrStep::Ready(fill_done.max(now));
            }
            return MshrStep::Ready(now);
        }
        match file.probe(line, now) {
            MshrLookup::Coalesced(done) => MshrStep::Ready(done.max(now)),
            MshrLookup::Free => MshrStep::Fetch(now),
            MshrLookup::Full(free_at) => MshrStep::Fetch(free_at),
        }
    }

    /// Replays `(hit, line, jitter, dur)` tag-check outcomes through the
    /// step and the two-call oracle, on a clock that advances steadily
    /// plus `jitter` (out of timestamp order, as a windowed core issues
    /// them). Every fetch registers its fill, so the history reaches its
    /// cap; outcomes, statistics and record order must agree throughout.
    fn step_matches_two_call_oracle(
        capacity: usize,
        stream: &[(bool, u64, u64, u64)],
    ) -> Result<(), TestCaseError> {
        let mut fast = MshrFile::new(capacity);
        let mut oracle = ScanOracle::new(capacity);
        for (i, &(hit, l, jitter, dur)) in stream.iter().enumerate() {
            let l = line(l * 64);
            let t = Cycles::new(i as u64 * 6 + jitter);
            let got = fast.step(l, hit, t);
            prop_assert_eq!(got, two_call_oracle(&mut oracle, l, hit, t), "step {}", i);
            if let MshrStep::Fetch(sent) = got {
                fast.allocate(l, sent, sent + Cycles::new(dur));
                oracle.allocate(l, sent + Cycles::new(dur));
            }
            prop_assert_eq!(
                format!("{:?}", fast.stats()),
                format!("{:?}", oracle.stats),
                "stats after step {}",
                i
            );
            prop_assert_eq!(&fast.lines, &oracle.lines, "record lines after step {}", i);
            prop_assert_eq!(&fast.dones, &oracle.dones, "record times after step {}", i);
        }
        prop_assert_eq!(oracle.dones.len(), capacity + HISTORY_SLACK);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random hit/miss streams give the same outcome, statistics and
        /// record order through the step as through the two-call
        /// sequence, for files of 1, 2, 8 and 16 registers whose history
        /// overflows.
        #[test]
        fn step_matches_the_two_call_sequence(
            stream in vec((prop::bool::ANY, 0u64..48, 0u64..300, fill_time()), 800..1_200),
        ) {
            for capacity in [1, 2, 8, 16] {
                step_matches_two_call_oracle(capacity, &stream)?;
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
