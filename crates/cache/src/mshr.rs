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
/// window (≤ 64 ops) bounds that distance. Queries walk only the live
/// records, so the slack costs memory, not time: a full history evicts
/// its earliest completion, the first of its sorted records.
pub const HISTORY_SLACK: usize = 64;

/// One fill record: its completion time, its slot in record order and
/// its line. The file keeps its records in the derived order
/// (completion time, then slot), so the first record holds the lowest
/// slot among the earliest completions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Record {
    done: Cycles,
    slot: usize,
    line: LineAddr,
}

/// A fixed-capacity file of in-flight line fills.
///
/// `capacity` bounds the *live* fills (the hardware registers); the file
/// additionally retains up to [`HISTORY_SLACK`] expired records so that
/// probes processed later but timestamped earlier still observe fills
/// that were in flight at their instant.
///
/// Each record holds a slot, its place in record order: a new fill takes
/// the next slot, or, once the history is full, the slot of the record it
/// evicts. A merge reports the first live record of its line in that
/// order, and an eviction takes the first of the earliest completions.
///
/// Queries cost what the live fills cost, not the retained history: the
/// records are kept sorted by completion time, so the live fills are the
/// suffix above `now`. Occupancy and merges walk only that suffix, the
/// `Full` wait is read by position, and the eviction is the first record.
#[derive(Debug, Clone)]
pub struct MshrFile {
    /// The retained records, sorted by (completion time, slot), from
    /// `front` on: an eviction advances `front`, and the evicted prefix
    /// is dropped in one move once it is [`HISTORY_SLACK`] long.
    records: Vec<Record>,
    front: usize,
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
            records: Vec::with_capacity(capacity),
            front: 0,
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

    /// The retained records, sorted by (completion time, slot).
    fn sorted(&self) -> &[Record] {
        &self.records[self.front..]
    }

    /// Registers still occupied at `now` (fills not yet complete): the
    /// records completing after `now`, counted from the back.
    #[must_use]
    pub fn in_flight(&self, now: Cycles) -> usize {
        self.sorted()
            .iter()
            .rev()
            .take_while(|r| r.done > now)
            .count()
    }

    /// One pass over the fills in flight at `now`: how many there are,
    /// and the completion time of the first of them (in record order)
    /// that covers `line`.
    fn scan_live(&self, line: LineAddr, now: Cycles) -> (usize, Option<Cycles>) {
        let live = self.in_flight(now);
        let (mut slot, mut done) = (usize::MAX, Cycles::ZERO);
        for r in &self.records[self.records.len() - live..] {
            let first = r.line == line && r.slot < slot;
            slot = if first { r.slot } else { slot };
            done = if first { r.done } else { done };
        }
        (live, (slot != usize::MAX).then_some(done))
    }

    /// The completion time of an in-flight fill covering `line`, if one
    /// exists at `now`. A `Some` is a **merge** — the caller's access
    /// piggybacks on that fill — and is counted as coalesced. Used by
    /// [`MshrFile::probe`] for a miss and by [`MshrFile::step`] for a
    /// hit-under-miss.
    pub fn fill_in_flight(&mut self, line: LineAddr, now: Cycles) -> Option<Cycles> {
        let (_, done) = self.scan_live(line, now);
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
        let (live, merge) = self.scan_live(line, now);
        if let Some(done) = merge {
            self.stats.coalesced += 1;
            return MshrLookup::Coalesced(done);
        }
        if live < self.capacity {
            return MshrLookup::Free;
        }
        // The file frees up once enough live fills land that the count
        // drops below capacity. Probes are processed in issue order but
        // timestamped out of order, so more than `capacity` fills can be
        // live at this probe's instant — the wait must cover all the
        // excess, not just the earliest completion. The live fills are
        // the sorted records' suffix above `now`, so the `capacity`-th
        // latest of them is the `capacity`-th latest completion overall.
        let free_at = self.records[self.records.len() - self.capacity].done;
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
    /// Records are never overwritten while the history has room — an
    /// expired register's *record* may still be needed by a probe that is
    /// processed later but timestamped earlier (see [`HISTORY_SLACK`]).
    /// Once the history is full, the earliest-completing record (the
    /// first in record order, on ties) is evicted and the new fill takes
    /// its slot; a new fill that completes before every record is itself
    /// the one evicted, so it is dropped at once (still counted as
    /// allocated).
    pub fn allocate(&mut self, line: LineAddr, now: Cycles, done: Cycles) {
        debug_assert!(self.in_flight(now) < self.capacity, "no free register");
        self.stats.allocated += 1;
        let mut slot = self.sorted().len();
        if slot == self.capacity + HISTORY_SLACK {
            let oldest = self.records[self.front];
            if done < oldest.done {
                return;
            }
            self.front += 1;
            if self.front == HISTORY_SLACK {
                self.records.drain(..self.front);
                self.front = 0;
            }
            slot = oldest.slot;
        }
        let record = Record { done, slot, line };
        // New fills complete late, so their place is near the tail.
        let later = self
            .sorted()
            .iter()
            .rev()
            .take_while(|&&r| r > record)
            .count();
        self.records.insert(self.records.len() - later, record);
    }

    /// Clears in-flight entries and statistics.
    pub fn reset(&mut self) {
        self.records.clear();
        self.front = 0;
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

    /// The file's records in record order, as the lines and completion
    /// times of slots 0, 1, …; panics unless the slots are exactly
    /// `0..len`, each held once.
    fn record_order(file: &MshrFile) -> (Vec<LineAddr>, Vec<Cycles>) {
        let mut slots = vec![None; file.sorted().len()];
        for r in file.sorted() {
            assert!(
                slots[r.slot].replace((r.line, r.done)).is_none(),
                "slot {} held twice",
                r.slot
            );
        }
        slots
            .into_iter()
            .map(|s| s.expect("every slot held"))
            .unzip()
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
            let (lines, dones) = record_order(&fast);
            prop_assert_eq!(&lines, &oracle.lines, "record lines after step {}", i);
            prop_assert_eq!(&dones, &oracle.dones, "record times after step {}", i);
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
            let (lines, dones) = record_order(&fast);
            prop_assert_eq!(&lines, &oracle.lines, "record lines after step {}", i);
            prop_assert_eq!(&dones, &oracle.dones, "record times after step {}", i);
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
        assert!(m.sorted().len() <= 2 + HISTORY_SLACK);
        assert!(m.in_flight(now - Cycles::new(5)) >= 1, "newest survives");
    }

    /// When the fills of [`full_history`] were sent: every record has
    /// completed by then.
    const SENT: Cycles = Cycles::new(1_000);

    /// A 2-register file and its oracle with a full history: slot `i`
    /// holds line `i`, completing at `100 + i` unless `overrides` names
    /// the slot with another completion time.
    fn full_history(overrides: &[(usize, u64)]) -> (MshrFile, ScanOracle) {
        let (mut fast, mut oracle) = (MshrFile::new(2), ScanOracle::new(2));
        for i in 0..2 + HISTORY_SLACK {
            let done = overrides
                .iter()
                .find(|&&(slot, _)| slot == i)
                .map_or(100 + i as u64, |&(_, done)| done);
            fast.allocate(line(i as u64 * 64), SENT, Cycles::new(done));
            oracle.allocate(line(i as u64 * 64), Cycles::new(done));
        }
        (fast, oracle)
    }

    /// Allocates `line` completing at `done` in both, checks that the
    /// oracle agrees on every record and on the statistics, and returns
    /// the file's records in record order.
    fn allocate_both(
        fast: &mut MshrFile,
        oracle: &mut ScanOracle,
        line: LineAddr,
        done: u64,
    ) -> (Vec<LineAddr>, Vec<Cycles>) {
        fast.allocate(line, SENT, Cycles::new(done));
        oracle.allocate(line, Cycles::new(done));
        let records = record_order(fast);
        assert_eq!(records.0, oracle.lines, "record lines");
        assert_eq!(records.1, oracle.dones, "record times");
        assert_eq!(format!("{:?}", fast.stats()), format!("{:?}", oracle.stats));
        records
    }

    #[test]
    fn a_fill_tying_the_earliest_record_takes_its_slot() {
        let (mut fast, mut oracle) = full_history(&[(5, 50)]);
        let (mut lines, mut dones) = record_order(&fast);
        let new = line(0x9000);
        // The old record leaves on the tie, not the new fill.
        lines[5] = new;
        dones[5] = Cycles::new(50);
        assert_eq!(
            allocate_both(&mut fast, &mut oracle, new, 50),
            (lines, dones)
        );
        assert_eq!(
            fast.fill_in_flight(new, Cycles::new(49)),
            Some(Cycles::new(50))
        );
    }

    #[test]
    fn a_fill_completing_before_every_record_is_dropped() {
        let (mut fast, mut oracle) = full_history(&[(5, 50)]);
        let before = record_order(&fast);
        let new = line(0x9000);
        assert_eq!(allocate_both(&mut fast, &mut oracle, new, 40), before);
        assert_eq!(
            fast.stats().allocated,
            2 + HISTORY_SLACK as u64 + 1,
            "still allocated"
        );
        assert_eq!(fast.fill_in_flight(new, Cycles::new(39)), None);
    }

    #[test]
    fn tied_earliest_records_leave_lowest_slot_first() {
        // After three evictions, slots 50, 7 and 30 (filled in that
        // order) all complete at 50, the earliest time left.
        let (mut fast, mut oracle) = full_history(&[(7, 20), (30, 20), (50, 10)]);
        let (mut lines, mut dones) = record_order(&fast);
        for (k, slot) in [50, 7, 30].into_iter().enumerate() {
            let new = line(0xA000 + k as u64 * 64);
            (lines[slot], dones[slot]) = (new, Cycles::new(50));
            let got = allocate_both(&mut fast, &mut oracle, new, 50);
            assert_eq!(
                got,
                (lines.clone(), dones.clone()),
                "fill {k} into slot {slot}"
            );
        }
        // Later fills evict the tied records by slot, not by arrival.
        for (k, slot) in [7, 30, 50].into_iter().enumerate() {
            let new = line(0xB000 + k as u64 * 64);
            (lines[slot], dones[slot]) = (new, Cycles::new(70));
            let got = allocate_both(&mut fast, &mut oracle, new, 70);
            assert_eq!(
                got,
                (lines.clone(), dones.clone()),
                "fill {k} into slot {slot}"
            );
        }
    }

    #[test]
    fn a_merge_reports_the_first_live_record_of_its_line() {
        // Four records of one line: slot 0 has landed by t=150; of the
        // live ones, slot 1 is first in record order, though slot 2
        // lands earliest and slot 4 latest.
        let mut m = MshrFile::new(8);
        let y = line(0x4000);
        for (l, done) in [(y, 100), (y, 300), (y, 200), (line(0x8000), 500), (y, 400)] {
            m.allocate(l, Cycles::ZERO, Cycles::new(done));
        }
        assert_eq!(
            m.fill_in_flight(y, Cycles::new(150)),
            Some(Cycles::new(300))
        );
        assert_eq!(
            m.probe(y, Cycles::new(150)),
            MshrLookup::Coalesced(Cycles::new(300))
        );
        assert_eq!(
            m.fill_in_flight(y, Cycles::new(300)),
            Some(Cycles::new(400))
        );
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
