//! Banked row-buffer DRAM timing model.
//!
//! Each bank keeps its open row and a `busy_until` timestamp; each channel
//! keeps a data-bus `busy_until`. A request's start time is the latest of
//! its arrival, its bank's free time and its channel's free time — a
//! conservative FR-FCFS-style approximation that produces realistic
//! queueing growth under multi-core load without simulating per-command
//! DRAM state machines.
//!
//! # Overlap mode
//!
//! The simulator processes one core *op* at a time, booking every memory
//! request of that op's chain (walk fetches, data fill) with its future
//! arrival timestamp. For blocking cores the chain is short and the
//! single `busy_until` per bank is a faithful queue. A windowed core,
//! however, books requests up to a whole issue-window of latency ahead —
//! under the plain model a request that merely got *processed* later
//! would queue behind one that *arrives* later, inflating contention with
//! a processing-order artifact. [`Dram::with_overlap_scheduling`] swaps
//! each bank's and channel's scalar busy time for a bounded, sorted
//! **reservation list** of its most recent bookings: a request takes the
//! earliest gap that fits after its arrival (FR-FCFS-with-lookahead), so
//! overlapped requests contend by their actual timestamps regardless of
//! processing order. Live bookings sit at each list's tail, so the gap
//! search and the booking find their place by galloping back from the
//! tail: a request near the frontier costs O(log d) for the d intervals
//! it lands behind, not a search over the past intervals that fill every
//! list. Blocking configurations keep the legacy scalar path bit for bit.

use ndp_types::stats::LatencyStat;
use ndp_types::{Cycles, PhysAddr, RwKind};
use std::collections::VecDeque;

/// Reservations remembered per bank/channel in overlap mode. Nothing
/// expires a booking, so every busy list fills with past intervals and
/// stays at this cap; only the most recent few (about `cores ×
/// mlp_window ÷ banks`) can still meet a new request, and the gap search
/// reaches them from the tail without touching the rest. The rest are not
/// pruned: which interval the cap evicts next depends on them, so pruning
/// would move results.
/// 256 covers every realistic live population (e.g. 8 cores × 64-deep
/// windows against a 24-bank vault) with slack. Beyond that the oldest
/// interval falls off and its span can be double-booked — a bounded
/// optimism only reachable by pathological single-bank hammering at
/// maximum scale.
const MAX_BANK_RESERVATIONS: usize = 256;

/// Row-buffer outcome of a single DRAM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowOutcome {
    /// The requested row was already open (CAS only).
    Hit,
    /// The bank was idle/closed (ACT + CAS).
    Miss,
    /// Another row was open (PRE + ACT + CAS).
    Conflict,
}

/// Core-clock-domain service times for the three row-buffer outcomes plus
/// the per-request data-burst occupancy of bank and channel.
///
/// All values are in 2.6 GHz core cycles (Table I), i.e. 1 ns ≈ 2.6 cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTiming {
    /// Latency when the row buffer hits.
    pub row_hit: Cycles,
    /// Latency when the bank is closed.
    pub row_miss: Cycles,
    /// Latency when a different row is open.
    pub row_conflict: Cycles,
    /// Bank/bus occupancy per 64 B transfer (limits throughput).
    pub burst: Cycles,
}

impl DramTiming {
    /// DDR4-2400 timing (tCL ≈ tRCD ≈ tRP ≈ 13.75 ns) in 2.6 GHz cycles.
    #[must_use]
    pub const fn ddr4_2400() -> Self {
        DramTiming {
            row_hit: Cycles::new(36),
            row_miss: Cycles::new(72),
            row_conflict: Cycles::new(107),
            // 64 B over a 19.2 GB/s channel ≈ 3.3 ns ≈ 9 cycles.
            burst: Cycles::new(9),
        }
    }

    /// HBM2 timing: comparable array latency to DDR4 but much shorter
    /// per-channel occupancy thanks to wide, fast stacked channels.
    #[must_use]
    pub const fn hbm2() -> Self {
        DramTiming {
            row_hit: Cycles::new(34),
            row_miss: Cycles::new(68),
            row_conflict: Cycles::new(100),
            // 64 B over a ~32 GB/s pseudo-channel ≈ 2 ns ≈ 5 cycles.
            burst: Cycles::new(5),
        }
    }

    /// Service latency for an outcome.
    #[must_use]
    pub fn service(&self, outcome: RowOutcome) -> Cycles {
        match outcome {
            RowOutcome::Hit => self.row_hit,
            RowOutcome::Miss => self.row_miss,
            RowOutcome::Conflict => self.row_conflict,
        }
    }
}

/// Geometry + timing of a DRAM device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of independent channels.
    pub channels: u32,
    /// Banks per channel.
    pub banks_per_channel: u32,
    /// Row-buffer size in bytes.
    pub row_bytes: u64,
    /// Device timing.
    pub timing: DramTiming,
    /// Total capacity in bytes (16 GB in Table I). Informational; the model
    /// does not allocate backing storage.
    pub capacity_bytes: u64,
}

impl DramConfig {
    /// DDR4-2400, 16 GB, 2 channels × 16 banks (Table I CPU memory).
    #[must_use]
    pub const fn ddr4_2400() -> Self {
        DramConfig {
            channels: 2,
            banks_per_channel: 16,
            row_bytes: 8192,
            timing: DramTiming::ddr4_2400(),
            capacity_bytes: 16 << 30,
        }
    }

    /// HBM2, 16 GB, 8 channels × 16 banks (Table I NDP memory).
    #[must_use]
    pub const fn hbm2() -> Self {
        DramConfig {
            channels: 8,
            banks_per_channel: 16,
            row_bytes: 2048,
            timing: DramTiming::hbm2(),
            capacity_bytes: 16 << 30,
        }
    }

    /// The NDP cores' *local vault view* of the HBM2 stack: logic-layer
    /// cores are physically attached to one vault, so the bank-level
    /// parallelism available to them is a small slice of the full stack.
    /// This is what makes NDP memory latency contention-sensitive as core
    /// counts grow (Fig 6) even though aggregate stack bandwidth is high.
    #[must_use]
    pub const fn hbm2_vault() -> Self {
        DramConfig {
            channels: 4,
            banks_per_channel: 6,
            row_bytes: 2048,
            timing: DramTiming::hbm2(),
            capacity_bytes: 16 << 30,
        }
    }

    /// Total bank count across all channels.
    #[must_use]
    pub fn total_banks(&self) -> usize {
        (self.channels * self.banks_per_channel) as usize
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    busy_until: Cycles,
}

/// A sorted, non-overlapping list of `(start, end)` occupancy intervals.
type Slots = VecDeque<(Cycles, Cycles)>;

/// Reservation state of overlap mode: every bank and every channel keeps
/// its own booked-interval list.
#[derive(Debug, Clone)]
struct Reservations {
    banks: Vec<Slots>,
    channels: Vec<Slots>,
}

/// The number of leading intervals of `slots[..end]` whose start
/// satisfies `before`, which must hold on a prefix (the partition point).
///
/// Live bookings sit at the list's tail and everything ahead of them is
/// past, so the search gallops backward from `end` (1, 2, 4, … intervals)
/// until it passes the partition, then binary-searches that bracket: a
/// request near the frontier touches a few intervals at the tail instead
/// of the whole list.
fn partition_from_back(slots: &Slots, end: usize, before: impl Fn(Cycles) -> bool) -> usize {
    // Every interval in `hi..end` fails `before`.
    let mut hi = end;
    let mut step = 1;
    let mut lo = 0;
    while hi > 0 {
        let probe = hi.saturating_sub(step);
        if before(slots[probe].0) {
            lo = probe + 1;
            break;
        }
        hi = probe;
        step *= 2;
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if before(slots[mid].0) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The earliest start ≥ `arrival` of a `dur`-long gap in `slots`
/// (read-only; see [`book`]).
///
/// The scan starts at the first interval that can matter, found by
/// searching back from the tail; the skipped prefix ends before
/// `arrival` and so could neither stop the scan nor raise the candidate.
/// Starts are sorted, so the intervals starting before `arrival` form a
/// prefix. Positive-length intervals are disjoint and no zero-length one
/// lies strictly inside one, so of that prefix only intervals sharing
/// its last start can reach `arrival`; everything before them ends
/// earlier. (Ends alone are not sorted: a zero-length interval booked at
/// an existing start sorts after the longer one.)
fn gap_at_or_after(slots: &Slots, arrival: Cycles, dur: Cycles) -> Cycles {
    let before = partition_from_back(slots, slots.len(), |start| start < arrival);
    let first = match before.checked_sub(1) {
        Some(last) => {
            let last_start = slots[last].0;
            partition_from_back(slots, last, |start| start < last_start)
        }
        None => 0,
    };
    let mut candidate = arrival;
    for &(start, end) in slots.range(first..) {
        if candidate + dur <= start {
            break;
        }
        candidate = candidate.max(end);
    }
    candidate
}

/// Books `[start, start + dur)` in `slots` after every interval starting
/// at or before `start`, keeping them sorted; the oldest reservation falls
/// off once the list exceeds [`MAX_BANK_RESERVATIONS`].
fn book(slots: &mut Slots, start: Cycles, dur: Cycles) {
    let idx = partition_from_back(slots, slots.len(), |s| s <= start);
    slots.insert(idx, (start, start + dur));
    if slots.len() > MAX_BANK_RESERVATIONS {
        slots.pop_front();
    }
}

/// Statistics accumulated by the DRAM device.
///
/// `requests` and the row-buffer counters cover *all* traffic (reads and
/// posted writes contend for the same banks), while the `queue_delay` and
/// `latency` distributions cover **demand reads only**: nobody waits on a
/// posted write, so folding its (large, deliberately deferred) delay into
/// the demand statistics would overstate what cores experience. Writes get
/// their own `write_queue_delay` distribution.
#[derive(Debug, Clone, Copy, Default)]
pub struct DramStats {
    /// Total requests served (reads + writes).
    pub requests: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row-buffer misses (closed bank).
    pub row_misses: u64,
    /// Row-buffer conflicts.
    pub row_conflicts: u64,
    /// Queueing delay distribution of demand reads (start − arrival).
    pub queue_delay: LatencyStat,
    /// End-to-end device latency distribution of demand reads
    /// (done − arrival).
    pub latency: LatencyStat,
    /// Queueing delay distribution of (posted) writes.
    pub write_queue_delay: LatencyStat,
}

impl DramStats {
    /// Row-buffer hit rate over all requests.
    #[must_use]
    pub fn row_hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.requests as f64
        }
    }
}

/// Result of one DRAM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramResult {
    /// Timestamp at which the data is available.
    pub done: Cycles,
    /// Row-buffer outcome.
    pub outcome: RowOutcome,
    /// Queueing delay suffered before service started.
    pub queue_delay: Cycles,
}

/// A banked, multi-channel DRAM device with open-row tracking.
#[derive(Debug, Clone)]
pub struct Dram {
    config: DramConfig,
    banks: Vec<Bank>,
    channel_busy_until: Vec<Cycles>,
    /// Bank/channel occupancy-interval lists — only populated in overlap
    /// mode (see the module docs).
    reservations: Option<Reservations>,
    stats: DramStats,
}

impl Dram {
    /// Builds a device from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero channels or banks.
    #[must_use]
    pub fn new(config: DramConfig) -> Self {
        assert!(config.channels > 0, "DRAM needs at least one channel");
        assert!(config.banks_per_channel > 0, "DRAM needs at least one bank");
        Dram {
            config,
            banks: vec![Bank::default(); config.total_banks()],
            channel_busy_until: vec![Cycles::ZERO; config.channels as usize],
            reservations: None,
            stats: DramStats::default(),
        }
    }

    /// Switches the device to overlap (reservation-list) bank scheduling.
    /// Used by non-blocking cores; see the module docs for why the
    /// blocking path must keep the scalar model.
    #[must_use]
    pub fn with_overlap_scheduling(mut self) -> Self {
        self.reservations = Some(Reservations {
            banks: vec![Slots::new(); self.config.total_banks()],
            channels: vec![Slots::new(); self.config.channels as usize],
        });
        self
    }

    /// The device configuration.
    #[must_use]
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Maps a physical address to `(channel, bank-within-channel, row)`.
    ///
    /// Channels interleave at cache-line granularity via the shared
    /// [`crate::channel::line_channel`] map (the same one the simulator
    /// routes NoC requests with); banks interleave at row granularity.
    #[must_use]
    pub fn decode(&self, addr: PhysAddr) -> (u32, u32, u64) {
        let line = ndp_types::LineAddr::of(addr).as_u64();
        let channel = crate::channel::line_channel(addr, self.config.channels);
        let per_channel_addr = line / u64::from(self.config.channels) * 64;
        let row = per_channel_addr / self.config.row_bytes;
        let bank = (row % u64::from(self.config.banks_per_channel)) as u32;
        (
            channel,
            bank,
            row / u64::from(self.config.banks_per_channel),
        )
    }

    /// Performs one 64 B access arriving at `now`, returning its completion
    /// time and row outcome. Mutates bank open-row and busy state. Reads
    /// and writes are timed identically (the bank is occupied either way);
    /// `rw` only selects which latency distribution records the access —
    /// see [`DramStats`].
    pub fn access(&mut self, addr: PhysAddr, rw: RwKind, now: Cycles) -> DramResult {
        self.access_with(addr, rw, now, gap_at_or_after, book)
    }

    /// [`Dram::access`] with the overlap mode's gap search and booking
    /// passed in, so tests can replay one stream through a reference
    /// implementation of each.
    #[inline(always)]
    fn access_with(
        &mut self,
        addr: PhysAddr,
        rw: RwKind,
        now: Cycles,
        search: impl Fn(&Slots, Cycles, Cycles) -> Cycles,
        reserve: impl Fn(&mut Slots, Cycles, Cycles),
    ) -> DramResult {
        let (channel, bank_in_ch, row) = self.decode(addr);
        let bank_idx = (channel * self.config.banks_per_channel + bank_in_ch) as usize;
        let bank = &mut self.banks[bank_idx];

        let outcome = match bank.open_row {
            Some(open) if open == row => RowOutcome::Hit,
            Some(_) => RowOutcome::Conflict,
            None => RowOutcome::Miss,
        };
        bank.open_row = Some(row);

        let service = self.config.timing.service(outcome);
        let burst = self.config.timing.burst;
        // The bank is tied up for the access plus its data burst; the
        // channel bus only for the burst.
        let occupancy = service + burst;
        let ready = match &mut self.reservations {
            None => {
                // Scalar path (blocking cores): latest of arrival, bank
                // free time and channel free time.
                let ready = now
                    .max(bank.busy_until)
                    .max(self.channel_busy_until[channel as usize]);
                bank.busy_until = ready + occupancy;
                self.channel_busy_until[channel as usize] = ready + burst;
                ready
            }
            Some(res) => {
                // Overlap path: earliest instant at or after arrival
                // where the bank has an `occupancy`-long gap *and* the
                // channel bus a `burst`-long one — so requests contend by
                // their timestamps, not their processing order.
                let bank_slots = &res.banks[bank_idx];
                let chan_slots = &res.channels[channel as usize];
                let mut candidate = now;
                let ready = loop {
                    let bank_start = search(bank_slots, candidate, occupancy);
                    let chan_start = search(chan_slots, bank_start, burst);
                    if chan_start == bank_start {
                        break bank_start;
                    }
                    candidate = chan_start;
                };
                reserve(&mut res.banks[bank_idx], ready, occupancy);
                reserve(&mut res.channels[channel as usize], ready, burst);
                ready
            }
        };
        let queue_delay = ready - now;
        let done = ready + service;

        self.stats.requests += 1;
        match outcome {
            RowOutcome::Hit => self.stats.row_hits += 1,
            RowOutcome::Miss => self.stats.row_misses += 1,
            RowOutcome::Conflict => self.stats.row_conflicts += 1,
        }
        if rw.is_write() {
            self.stats.write_queue_delay.record(queue_delay);
        } else {
            self.stats.queue_delay.record(queue_delay);
            self.stats.latency.record(done - now);
        }

        DramResult {
            done,
            outcome,
            queue_delay,
        }
    }

    /// Clears statistics only, preserving open rows and busy state.
    pub fn clear_stats(&mut self) {
        self.stats = DramStats::default();
    }

    /// Resets banks, reservations and statistics (not configuration or
    /// scheduling mode).
    pub fn reset(&mut self) {
        self.banks.fill(Bank::default());
        self.channel_busy_until.fill(Cycles::ZERO);
        if let Some(res) = &mut self.reservations {
            for slots in res.banks.iter_mut().chain(res.channels.iter_mut()) {
                slots.clear();
            }
        }
        self.stats = DramStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn small() -> Dram {
        Dram::new(DramConfig {
            channels: 2,
            banks_per_channel: 2,
            row_bytes: 1024,
            timing: DramTiming::hbm2(),
            capacity_bytes: 1 << 30,
        })
    }

    #[test]
    fn first_access_is_row_miss() {
        let mut d = small();
        let r = d.access(PhysAddr::new(0), RwKind::Read, Cycles::ZERO);
        assert_eq!(r.outcome, RowOutcome::Miss);
        assert_eq!(r.queue_delay, Cycles::ZERO);
        assert_eq!(r.done, DramTiming::hbm2().row_miss);
    }

    #[test]
    fn same_row_hits_after_open() {
        let mut d = small();
        let t = DramTiming::hbm2();
        let first = d.access(PhysAddr::new(0), RwKind::Read, Cycles::ZERO);
        // Address 128 is on the same channel (even line) and same row.
        let second = d.access(PhysAddr::new(128), RwKind::Read, first.done + t.burst);
        assert_eq!(second.outcome, RowOutcome::Hit);
    }

    #[test]
    fn different_row_same_bank_conflicts() {
        let mut d = small();
        // Rows interleave over banks; row r and row r+banks share a bank.
        // Channel 0, per-channel rows: addresses 0 and (2 banks * 1024 B) * 2 ch apart.
        let a = PhysAddr::new(0);
        let b = PhysAddr::new(2 * 1024 * 2 * 2); // same channel, same bank, next row
        let (ch_a, bk_a, row_a) = d.decode(a);
        let (ch_b, bk_b, row_b) = d.decode(b);
        assert_eq!((ch_a, bk_a), (ch_b, bk_b));
        assert_ne!(row_a, row_b);
        let first = d.access(a, RwKind::Read, Cycles::ZERO);
        let r = d.access(b, RwKind::Read, first.done + Cycles::new(100));
        assert_eq!(r.outcome, RowOutcome::Conflict);
    }

    #[test]
    fn back_to_back_requests_queue() {
        let mut d = small();
        let r1 = d.access(PhysAddr::new(0), RwKind::Read, Cycles::ZERO);
        // Immediately issue to the same bank: must wait for busy_until.
        let r2 = d.access(PhysAddr::new(0), RwKind::Read, Cycles::ZERO);
        assert!(r2.queue_delay > Cycles::ZERO);
        assert!(r2.done > r1.done);
    }

    #[test]
    fn channels_are_independent() {
        let mut d = small();
        let r1 = d.access(PhysAddr::new(0), RwKind::Read, Cycles::ZERO); // channel 0
        let r2 = d.access(PhysAddr::new(64), RwKind::Read, Cycles::ZERO); // channel 1
        assert_eq!(r1.queue_delay, Cycles::ZERO);
        assert_eq!(r2.queue_delay, Cycles::ZERO);
    }

    #[test]
    fn decode_spreads_lines_over_channels() {
        let d = small();
        let (c0, _, _) = d.decode(PhysAddr::new(0));
        let (c1, _, _) = d.decode(PhysAddr::new(64));
        assert_ne!(c0, c1);
    }

    #[test]
    fn stats_accumulate() {
        let mut d = small();
        d.access(PhysAddr::new(0), RwKind::Read, Cycles::ZERO);
        d.access(PhysAddr::new(64), RwKind::Read, Cycles::ZERO);
        assert_eq!(d.stats().requests, 2);
        assert_eq!(d.stats().row_misses, 2);
        assert_eq!(d.stats().row_hit_rate(), 0.0);
        d.reset();
        assert_eq!(d.stats().requests, 0);
    }

    #[test]
    fn presets_are_sane() {
        let ddr = DramConfig::ddr4_2400();
        let hbm = DramConfig::hbm2();
        assert!(hbm.channels > ddr.channels, "HBM has more channels");
        assert!(
            hbm.timing.burst < ddr.timing.burst,
            "HBM has more bandwidth"
        );
        assert_eq!(ddr.capacity_bytes, 16 << 30);
        assert_eq!(hbm.capacity_bytes, 16 << 30);
    }

    #[test]
    fn overlap_mode_slots_early_arrivals_into_gaps() {
        // Book a request far in the future, then one arriving at zero:
        // the scalar model falsely queues the early request behind the
        // late one; the reservation model does not.
        let mut scalar = small();
        let mut overlap = small().with_overlap_scheduling();
        let a = PhysAddr::new(0);
        for d in [&mut scalar, &mut overlap] {
            d.access(a, RwKind::Read, Cycles::new(10_000));
        }
        let s = scalar.access(a, RwKind::Read, Cycles::ZERO);
        let o = overlap.access(a, RwKind::Read, Cycles::ZERO);
        assert!(
            s.queue_delay > Cycles::new(9_000),
            "scalar artifact: {:?}",
            s.queue_delay
        );
        assert_eq!(o.queue_delay, Cycles::ZERO, "gap before the booking");
        // And the gap search respects existing bookings: a third request
        // arriving inside the early booking queues behind it, not the
        // far-future one.
        let third = overlap.access(a, RwKind::Read, Cycles::new(20));
        assert!(third.queue_delay > Cycles::ZERO);
        assert!(third.done < Cycles::new(10_000));
    }

    #[test]
    fn overlap_mode_matches_scalar_for_in_order_arrivals() {
        // When requests arrive in timestamp order (the blocking pattern),
        // both schedulers agree on every completion time.
        let mut scalar = small();
        let mut overlap = small().with_overlap_scheduling();
        let mut now = Cycles::ZERO;
        for i in 0..32u64 {
            let addr = PhysAddr::new((i % 7) * 64);
            let s = scalar.access(addr, RwKind::Read, now);
            let o = overlap.access(addr, RwKind::Read, now);
            assert_eq!(s.done, o.done, "request {i}");
            assert_eq!(s.queue_delay, o.queue_delay, "request {i}");
            now += Cycles::new(17);
        }
    }

    #[test]
    fn reservation_list_is_bounded_and_gap_search_fills_holes() {
        let mut slots: Slots = Slots::new();
        for i in 0..(MAX_BANK_RESERVATIONS as u64 + 10) {
            let start = gap_at_or_after(&slots, Cycles::new(i * 1000), Cycles::new(100));
            book(&mut slots, start, Cycles::new(100));
        }
        assert_eq!(slots.len(), MAX_BANK_RESERVATIONS);
        // Still sorted and non-overlapping.
        for pair in slots.iter().zip(slots.iter().skip(1)) {
            assert!(pair.0 .1 <= pair.1 .0);
        }
        // A small request fits into the hole between two bookings.
        let start = gap_at_or_after(&slots, Cycles::new(11_200), Cycles::new(100));
        assert_eq!(start, Cycles::new(11_200));
        // An oversized one skips to the end of the booked region.
        let start = gap_at_or_after(&slots, Cycles::new(11_200), Cycles::new(2_000));
        assert!(start >= slots.back().unwrap().1);
    }

    /// The linear-scan gap search the tail search must reproduce.
    fn linear_gap_at_or_after(slots: &Slots, arrival: Cycles, dur: Cycles) -> Cycles {
        let mut candidate = arrival;
        for &(start, end) in slots {
            if candidate + dur <= start {
                break;
            }
            candidate = candidate.max(end);
        }
        candidate
    }

    /// The linear-scan booking the tail search must reproduce.
    fn linear_book(slots: &mut Slots, start: Cycles, dur: Cycles) {
        let idx = slots
            .iter()
            .position(|&(s, _)| s > start)
            .unwrap_or(slots.len());
        slots.insert(idx, (start, start + dur));
        if slots.len() > MAX_BANK_RESERVATIONS {
            slots.pop_front();
        }
    }

    /// Durations mixing zero with short and long positive lengths, so one
    /// list holds zero-length intervals at the starts of longer ones.
    fn duration() -> impl Strategy<Value = u64> {
        prop_oneof![Just(0u64), 1u64..40, 40u64..400]
    }

    /// A DRAM whose channel bus and row hits occupy nothing, so both
    /// reservation lists mix zero-length and positive intervals.
    fn zero_burst() -> DramConfig {
        DramConfig {
            channels: 2,
            banks_per_channel: 2,
            row_bytes: 1024,
            timing: DramTiming {
                row_hit: Cycles::ZERO,
                burst: Cycles::ZERO,
                ..DramTiming::hbm2()
            },
            capacity_bytes: 1 << 30,
        }
    }

    /// Replays one out-of-order stream through the device twice, once
    /// with the production gap search and once with the linear oracle,
    /// and compares every result and the final statistics. Each request
    /// picks one of three rows of bank 0 (per channel), so the lists fill
    /// past their cap and row hits, misses and conflicts all occur.
    fn overlap_matches_oracle(
        config: DramConfig,
        stream: &[(u64, u64, u64, bool)],
    ) -> Result<(), TestCaseError> {
        let lines_per_row = u64::from(config.channels) * config.row_bytes / 64;
        let row_stride = lines_per_row * u64::from(config.banks_per_channel);
        let mut fast = Dram::new(config).with_overlap_scheduling();
        let mut oracle = fast.clone();
        for (i, &(row, col, ahead, write)) in stream.iter().enumerate() {
            // A window of requests booked up to `ahead` cycles past a
            // steadily advancing issue clock.
            let now = Cycles::new(i as u64 * 8 + ahead);
            let addr = PhysAddr::new((row * row_stride + col % lines_per_row) * 64);
            let rw = if write { RwKind::Write } else { RwKind::Read };
            let got = fast.access(addr, rw, now);
            let want = oracle.access_with(addr, rw, now, linear_gap_at_or_after, linear_book);
            prop_assert_eq!(got, want, "request {}", i);
        }
        prop_assert_eq!(
            format!("{:?}", fast.stats()),
            format!("{:?}", oracle.stats())
        );
        let res = fast.reservations.as_ref().expect("overlap mode");
        prop_assert!(res.banks.iter().any(|s| s.len() == MAX_BANK_RESERVATIONS));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Long random booking sequences (past the cap, so the front
        /// evicts) keep identical lists and gap answers under both
        /// implementations, for arrivals before, inside and after the
        /// booked span and for zero durations.
        #[test]
        fn binary_search_matches_linear_oracle(
            steps in vec((0u64..3, any::<u64>(), duration(), any::<bool>()), 600..1_000),
        ) {
            let mut fast = Slots::new();
            let mut oracle = Slots::new();
            for (where_, offset, dur, commit) in steps {
                let (lo, hi) = match (oracle.front(), oracle.back()) {
                    (Some(&(lo, _)), Some(&(_, hi))) => (lo.as_u64(), hi.as_u64()),
                    _ => (0, 0),
                };
                let arrival = Cycles::new(match where_ {
                    0 => lo - offset % (lo + 1),
                    1 => lo + offset % (hi - lo + 1),
                    _ => hi + offset % 500,
                });
                let dur = Cycles::new(dur);
                let start = linear_gap_at_or_after(&oracle, arrival, dur);
                prop_assert_eq!(gap_at_or_after(&fast, arrival, dur), start);
                if commit {
                    book(&mut fast, start, dur);
                    linear_book(&mut oracle, start, dur);
                    prop_assert_eq!(&fast, &oracle);
                }
            }
            prop_assert_eq!(fast.len(), MAX_BANK_RESERVATIONS);
        }

        /// Out-of-order arrivals through an overlap-mode vault and a
        /// zero-burst device schedule exactly as under the linear oracle.
        #[test]
        fn overlap_dram_matches_linear_oracle(
            stream in vec((0u64..3, 0u64..128, 0u64..1_500, any::<bool>()), 2_000..3_000),
        ) {
            overlap_matches_oracle(DramConfig::hbm2_vault(), &stream)?;
            overlap_matches_oracle(zero_burst(), &stream)?;
        }
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_rejected() {
        let mut cfg = DramConfig::hbm2();
        cfg.channels = 0;
        let _ = Dram::new(cfg);
    }
}
