//! Memory controller: the shared front door to DRAM.
//!
//! Tracks per-class traffic (normal data vs. PTE metadata) so that the
//! paper's "main-memory accesses caused by PTEs" statistic (§IV-A, a 200×
//! inflation in NDP vs CPU) can be measured directly.

use crate::dram::{Dram, DramConfig, DramStats};
use ndp_types::stats::LatencyStat;
use ndp_types::{AccessClass, Cycles, MemTicket, PhysAddr, RwKind};

/// Per-class request counters.
///
/// `data` and `metadata` count **demand reads** (a core or walker waits on
/// them); `write` counts posted writes — cache writebacks issued
/// fire-and-forget — regardless of the line's class. Keeping them apart
/// stops bandwidth-only write traffic from inflating demand statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassTraffic {
    /// Demand-read requests for normal program data.
    pub data: u64,
    /// Demand-read requests for page-table metadata.
    pub metadata: u64,
    /// Posted writes (writebacks); nobody waits on these.
    pub write: u64,
}

impl ClassTraffic {
    /// Total requests, demand and posted.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.data + self.metadata + self.write
    }

    /// Demand-read requests (data + metadata).
    #[must_use]
    pub fn demand(&self) -> u64 {
        self.data + self.metadata
    }
}

/// Controller-level statistics (device stats live in [`DramStats`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ControllerStats {
    /// Traffic split by demand class and write.
    pub traffic: ClassTraffic,
    /// Latency of demand metadata reads.
    pub metadata_latency: LatencyStat,
    /// Latency of demand data reads.
    pub data_latency: LatencyStat,
    /// Latency of posted writes (informational; nobody waits on these).
    pub write_latency: LatencyStat,
}

/// The shared memory controller.
///
/// All cores funnel memory requests through one controller instance, which is
/// what couples them: a burst of PTE fetches from one core delays every other
/// core's requests to the same banks/channels.
#[derive(Debug, Clone)]
pub struct MemoryController {
    dram: Dram,
    stats: ControllerStats,
}

impl MemoryController {
    /// Fixed controller pipeline overhead added to every request.
    pub const OVERHEAD: Cycles = Cycles::new(10);

    /// Builds a controller over a freshly-constructed DRAM device.
    #[must_use]
    pub fn new(config: DramConfig) -> Self {
        MemoryController {
            dram: Dram::new(config),
            stats: ControllerStats::default(),
        }
    }

    /// Switches the underlying device to overlap (reservation-list) bank
    /// scheduling — used when cores issue requests out of processing
    /// order (non-blocking pipelines). See [`crate::dram`]'s module docs.
    #[must_use]
    pub fn with_overlap_scheduling(mut self) -> Self {
        self.dram = self.dram.with_overlap_scheduling();
        self
    }

    /// Issues one 64 B request arriving at `now`; returns its completion
    /// timestamp. Writes are timed like reads (they occupy the bank and
    /// channel identically, which is their whole contention effect) but
    /// are accounted separately: posted writebacks must not inflate the
    /// demand-read traffic or latency statistics a core actually waits on.
    pub fn request(
        &mut self,
        addr: PhysAddr,
        rw: RwKind,
        class: AccessClass,
        now: Cycles,
    ) -> Cycles {
        self.request_ticketed(addr, rw, class, now, now).done
    }

    /// Issues one 64 B request with full completion-time plumbing: the
    /// request left its core at `issue` and reaches this controller at
    /// `arrival` (after the NoC traversal). Returns the [`MemTicket`]
    /// recording when the data is available *at the controller* — the
    /// caller adds its return-path latency on top. Overlapped requests
    /// from a non-blocking core each carry their own arrival time, so they
    /// contend realistically in the DRAM banks instead of being serialised
    /// by the issuing core's clock.
    pub fn request_ticketed(
        &mut self,
        addr: PhysAddr,
        rw: RwKind,
        class: AccessClass,
        issue: Cycles,
        arrival: Cycles,
    ) -> MemTicket {
        let result = self.dram.access(addr, rw, arrival);
        let done = result.done + Self::OVERHEAD;
        let latency = done - arrival;
        if rw.is_write() {
            self.stats.traffic.write += 1;
            self.stats.write_latency.record(latency);
        } else {
            match class {
                AccessClass::Data => {
                    self.stats.traffic.data += 1;
                    self.stats.data_latency.record(latency);
                }
                AccessClass::Metadata => {
                    self.stats.traffic.metadata += 1;
                    self.stats.metadata_latency.record(latency);
                }
            }
        }
        MemTicket {
            issue,
            arrival,
            done,
        }
    }

    /// Device-level statistics.
    #[must_use]
    pub fn dram_stats(&self) -> &DramStats {
        self.dram.stats()
    }

    /// Controller-level statistics.
    #[must_use]
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// The underlying device configuration.
    #[must_use]
    pub fn config(&self) -> &DramConfig {
        self.dram.config()
    }

    /// Resets device state and statistics.
    pub fn reset(&mut self) {
        self.dram.reset();
        self.stats = ControllerStats::default();
    }

    /// Clears statistics only, preserving device timing state.
    pub fn clear_stats(&mut self) {
        self.dram.clear_stats();
        self.stats = ControllerStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_adds_overhead() {
        let mut mc = MemoryController::new(DramConfig::hbm2());
        let done = mc.request(
            PhysAddr::new(0),
            RwKind::Read,
            AccessClass::Data,
            Cycles::ZERO,
        );
        assert_eq!(
            done,
            DramConfig::hbm2().timing.row_miss + MemoryController::OVERHEAD
        );
    }

    #[test]
    fn class_traffic_split() {
        let mut mc = MemoryController::new(DramConfig::hbm2());
        for i in 0..4 {
            mc.request(
                PhysAddr::new(i * 64),
                RwKind::Read,
                AccessClass::Metadata,
                Cycles::ZERO,
            );
        }
        mc.request(
            PhysAddr::new(1 << 20),
            RwKind::Read,
            AccessClass::Data,
            Cycles::ZERO,
        );
        assert_eq!(mc.stats().traffic.metadata, 4);
        assert_eq!(mc.stats().traffic.data, 1);
        assert_eq!(mc.stats().metadata_latency.count, 4);
    }

    /// Regression for the write-accounting bug: posted writes must land in
    /// their own traffic/latency counters and leave every demand-read
    /// statistic — controller and DRAM queue-delay alike — untouched.
    #[test]
    fn writes_do_not_pollute_demand_stats() {
        let mut mc = MemoryController::new(DramConfig::hbm2());
        mc.request(
            PhysAddr::new(0),
            RwKind::Read,
            AccessClass::Data,
            Cycles::ZERO,
        );
        let demand_latency = mc.stats().data_latency;
        let demand_queue = mc.dram_stats().queue_delay;
        // A burst of posted writebacks to the same bank (worst case for
        // queue-delay pollution: they all stack up behind each other).
        for _ in 0..8 {
            mc.request(
                PhysAddr::new(0),
                RwKind::Write,
                AccessClass::Data,
                Cycles::ZERO,
            );
        }
        assert_eq!(mc.stats().traffic.data, 1);
        assert_eq!(mc.stats().traffic.write, 8);
        assert_eq!(mc.stats().traffic.total(), 9);
        assert_eq!(mc.stats().traffic.demand(), 1);
        assert_eq!(mc.stats().write_latency.count, 8);
        assert_eq!(
            mc.stats().data_latency,
            demand_latency,
            "demand latency unmoved by writes"
        );
        assert_eq!(
            mc.dram_stats().queue_delay,
            demand_queue,
            "DRAM demand queue-delay unmoved by writes"
        );
        assert_eq!(mc.dram_stats().write_queue_delay.count, 8);
        assert!(
            mc.dram_stats().write_queue_delay.max > Cycles::ZERO,
            "stacked writes do queue — just in their own bucket"
        );
        // And the bank contention is real: a demand read behind the write
        // burst still waits.
        let done = mc.request(
            PhysAddr::new(0),
            RwKind::Read,
            AccessClass::Data,
            Cycles::ZERO,
        );
        assert!(
            done > DramConfig::hbm2().timing.row_conflict + MemoryController::OVERHEAD,
            "writes keep occupying banks"
        );
    }

    #[test]
    fn contention_raises_latency() {
        let mut mc = MemoryController::new(DramConfig::hbm2());
        // Hammer one bank from time zero: later requests must queue.
        let first = mc.request(
            PhysAddr::new(0),
            RwKind::Read,
            AccessClass::Data,
            Cycles::ZERO,
        );
        let mut last = first;
        for _ in 0..8 {
            last = mc.request(
                PhysAddr::new(0),
                RwKind::Read,
                AccessClass::Data,
                Cycles::ZERO,
            );
        }
        assert!(last.as_u64() > first.as_u64() * 4, "queueing accumulates");
    }

    #[test]
    fn reset_clears_everything() {
        let mut mc = MemoryController::new(DramConfig::hbm2());
        mc.request(
            PhysAddr::new(0),
            RwKind::Read,
            AccessClass::Data,
            Cycles::ZERO,
        );
        mc.reset();
        assert_eq!(mc.stats().traffic.total(), 0);
        assert_eq!(mc.dram_stats().requests, 0);
    }
}
