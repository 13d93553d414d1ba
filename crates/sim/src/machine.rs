//! The discrete-event multi-core machine.
//!
//! Implements the address-translation and data-access flow of the paper's
//! Fig 11: TLB lookup → (on miss) PWC-filtered page-table walk whose PTE
//! fetches either traverse the cache hierarchy or — under NDPage — bypass
//! the L1 straight to memory, followed by the normal data access.
//!
//! # Execution model: blocking vs windowed
//!
//! Every memory stage hands back *completion timestamps* rather than
//! charging latency to the core clock in place, so the same translation
//! and cache/DRAM code serves two cores:
//!
//! * **Blocking** (`mlp_window = 1`, the default): the core's clock jumps
//!   to each op's completion before the next op issues — exactly the
//!   pre-pipeline engine, bit for bit (anchored by digest-equality tests).
//! * **Windowed** (`mlp_window > 1`): up to `mlp_window` memory ops stay
//!   in flight and retire in order; the clock only advances by issue
//!   slots, compute bursts and structural stalls (window full, MSHRs
//!   full, walkers busy). Same-line misses coalesce in the MSHR file;
//!   concurrent page-table walks queue for the hardware walkers — the
//!   paper's asymmetry: data misses overlap, radix walks serialise.
//!
//! # Translation frontend and timing loop
//!
//! A run is split in two. Each core's **translation frontend**
//! (`frontend.rs`) owns its processes' traces and page tables, its TLB
//! hierarchy and its walker's PWC bank. It turns the op stream into
//! compact records: compute cycles, or the physical address, the TLB
//! latency and, after a miss, the walk (PWC probes, PTE-fetch rounds,
//! native-huge install). It applies context-switch flushes and the warmup
//! statistics clear at the same op counts the timing loop does. The
//! **timing loop** keeps everything else and consumes the records in
//! exactly the per-op order described below: clocks and the scheduler,
//! MSHRs, the shared L3 and vault buffers, NoC and DRAM, walker
//! occupancy, the compaction tax and the walk statistics.
//!
//! The split is exact because no frontend state depends on timing in any
//! mode: which entries a TLB or PWC holds follows from the op sequence
//! alone.
//!
//! # Where the private caches live
//!
//! Each core's private cache hierarchy has one home, chosen from the
//! config. In a blocking run (`mlp_window = 1`) with neither a shared L3
//! nor vault buffers it lives on the frontend, which looks up each memory
//! op's non-bypassed PTE fetches in walk order and then its data access,
//! fills a full miss, and records the outcome (lookup latency, serving
//! level or miss, number of dirty victims) and the dirty victims. Every
//! other run keeps the caches on the timing side, where timing-ordered
//! effects are modelled, and the timing loop's lookup gives the same
//! outcome. From there one path serves both: a hit costs its latency; a
//! miss fetches the line, then installs it level by level (timing side)
//! or posts the recorded dirty victims at its completion in level order,
//! the requests the timing side makes without a shared level. Running
//! ahead is exact because there a core's cache contents follow from its
//! own access order alone, as its TLBs' do: MSHR merges and hit-under-miss
//! happen only in windowed runs, metadata never coalesces, and only an
//! inclusive shared L3 back-invalidates private lines.
//!
//! Frontends run one chunk ahead on `default_threads() - 1` scoped
//! producer threads, each serving every `n`-th core through a bounded
//! queue. With one thread, or inside a [`crate::parallel`] worker, the
//! timing loop translates each chunk itself when it needs it — the same
//! code, so the result is bit-identical either way. When a producer holds
//! the frontend of the lane the timing loop needs, the loop fills a chunk
//! for another lane that can take one, and waits on the lane's lock only
//! when none can.

mod frontend;

use crate::config::{InclusionPolicy, SimConfig, SystemKind};
use crate::report::{MlpStats, RunReport, SchedStats, SharedLlcStats};
use frontend::{
    Cursor, FrontProc, Frontend, Lane, MemRec, Rec, Resolved, Schedule, StopProducers, Xlat,
};
use ndp_cache::hierarchy::CacheHierarchy;
use ndp_cache::mshr::MshrStep;
use ndp_cache::set_assoc::{CacheConfig, Victim};
use ndp_cache::shared::SharedCache;
use ndp_mem::controller::MemoryController;
use ndp_mem::dram::DramConfig;
use ndp_mem::noc::MeshNoc;
use ndp_mmu::tlb::{TlbConfig, TlbHierarchy};
use ndp_mmu::walker::{PageTableWalker, WalkerSlots};
use ndp_types::stats::{HitMiss, LatencyHistogram, LatencyStat};
use ndp_types::{AccessClass, Asid, CoreId, Cycles, PhysAddr, ProcessId, PtLevel, RwKind, Vpn};
use ndp_workloads::TraceParams;
use ndpage::alloc::FrameAllocator;
use ndpage::bypass::BypassPolicy;
use ndpage::occupancy::OccupancyReport;
use ndpage::table::{PageTable, PageTableKind, RangeMapOutcome, RangePlan};
use ndpage::Mechanism;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::AtomicBool;
use std::thread::Thread;

/// Memory ops after a context switch that count toward the post-switch
/// cold-miss penalty statistics (see [`SchedStats`]). Sized to cover the
/// TLB/PWC re-warm transient without bleeding into steady state.
const POST_SWITCH_WINDOW: u64 = 256;

/// The per-core page table. The mechanism set is closed, so the hot path
/// dispatches statically through [`ndpage::PageTableImpl`].
type TableImpl = ndpage::PageTableImpl;

/// Builds `mechanism`'s table; `Ideal` still places pages through a radix
/// table (but is charged no translation work).
fn build_table(mechanism: Mechanism, alloc: &mut FrameAllocator) -> TableImpl {
    mechanism.build_impl(alloc).unwrap_or_else(|| {
        Mechanism::Radix
            .build_impl(alloc)
            .expect("radix always builds")
    })
}

/// Process `p` of core `i` gets the globally unique pid
/// `i * procs_per_core + p`, whose value also offsets the RNG seed; with
/// one process per core this degenerates to the historical `seed + core`
/// scheme bit for bit.
fn pid(cfg: &SimConfig, core: u32, p: u32) -> ProcessId {
    ProcessId(core * cfg.procs_per_core + p)
}

/// Streams one process's premap schedule — its regions flattened into
/// 2 MB-or-smaller chunks — without materialising the chunk list (at
/// paper-scale footprints that list runs to tens of thousands of entries
/// per process, all derivable from a cursor).
struct ChunkCursor<'a> {
    regions: &'a [ndp_workloads::region::Region],
    region: usize,
    offset: u64,
}

impl<'a> ChunkCursor<'a> {
    fn new(regions: &'a [ndp_workloads::region::Region]) -> Self {
        ChunkCursor {
            regions,
            region: 0,
            offset: 0,
        }
    }

    /// The next `(base address, byte length)` chunk, if any.
    fn next_chunk(&mut self) -> Option<(u64, u64)> {
        use ndp_types::addr::HUGE_PAGE_SIZE;
        while let Some(region) = self.regions.get(self.region) {
            if self.offset < region.bytes {
                let len = (region.bytes - self.offset).min(HUGE_PAGE_SIZE);
                let base = region.base.as_u64() + self.offset;
                self.offset += len;
                return Some((base, len));
            }
            self.region += 1;
            self.offset = 0;
        }
        None
    }
}

/// The timing side of one multiprogrammed process (its trace and page
/// table belong to the core's [`Frontend`]).
struct ProcCtx {
    /// The ASID this process's translations and shared-cache lines are
    /// tagged with. With `tlb_tagging` off every process shares
    /// [`Asid::ZERO`] and the core full-flushes on each switch instead.
    asid: Asid,
    /// THP-fallback pressure established during init (0 when the
    /// contiguity pool sufficed); drives compaction interference.
    thp_pressure: f64,
    ops_since_tax: u64,
}

/// One in-flight translation install (windowed mode): the walk that
/// produced this TLB entry completes at `done`; until then a lookup that
/// functionally hits the entry is a hit-under-miss and waits — the same
/// treatment [`CacheHierarchy`] gives lines whose fill is in flight.
#[derive(Debug, Clone, Copy)]
struct PendingTlbFill {
    asid: Asid,
    /// The installed entry's tag: the exact VPN for 4 KB entries, the
    /// 2 MB-aligned region base for huge entries.
    key: Vpn,
    huge: bool,
    done: Cycles,
}

/// Most translation installs a core tracks as in flight (it can never
/// have more walks outstanding than its issue window, ≤ 64).
const MAX_PENDING_TLB_FILLS: usize = 64;

struct CoreCtx {
    /// Processes round-robin-scheduled on this core (length is
    /// `procs_per_core`; 1 reproduces the paper's setup exactly).
    procs: Vec<ProcCtx>,
    /// Index of the currently running process.
    active: usize,
    /// Ops executed in the current scheduling quantum.
    quantum_ops: u64,
    /// Memory ops remaining in the post-switch cold window.
    post_switch_ops: u64,
    /// Whether the switch that opened the current cold window happened
    /// inside the measured window — keeps the penalty counters aligned
    /// with `measured_context_switches` (a warmup switch whose window
    /// bleeds into measurement must not contribute walks it has no
    /// denominator for).
    post_switch_measured: bool,
    time: Cycles,
    start_time: Cycles,
    ops_done: u64,
    measuring: bool,
    /// Occupancy of the core's hardware walkers (the PWCs live with the
    /// frontend).
    walkers: WalkerSlots,
    /// The core's private caches, unless they run ahead on its frontend
    /// (see the module docs for the placement rule).
    caches: Option<CacheHierarchy>,
    // Measured-window accumulators.
    translation_cycles: u64,
    os_cycles: u64,
    ptw: LatencyStat,
    ptw_hist: LatencyHistogram,
    /// Premap's faults (untimed, before the run).
    faults: RangeMapOutcome,
    ops_measured: u64,
    mem_ops_measured: u64,
    /// Whole-run scheduling counters (like `faults`, switches are not a
    /// measured-window phenomenon — flush effects from warmup linger).
    sched: SchedStats,
    /// Completion times of in-flight memory ops in issue order (empty in
    /// blocking mode, where every op retires before the next issues).
    /// Retirement is in-order: the front op leaves first, and draining
    /// advances the clock past *every* completion.
    inflight: VecDeque<Cycles>,
    /// Machine-side MLP counters (window stalls, occupancy); the MSHR and
    /// walker-queue counters live with their structures and are merged in
    /// at report time.
    mlp: MlpStats,
    /// Walks whose TLB entry is installed but whose data is still in
    /// flight (empty in blocking mode — every walk retires before the
    /// next op can look its entry up).
    pending_tlb_fills: VecDeque<PendingTlbFill>,
}

impl CoreCtx {
    /// Retires in-flight ops that completed by `self.time` (free), then —
    /// if the window is still at `capacity` — stalls the clock to the
    /// oldest op's completion and retires it, recording the stall.
    fn make_issue_slot(&mut self, capacity: usize) {
        while let Some(&front) = self.inflight.front() {
            if front <= self.time {
                self.inflight.pop_front();
            } else {
                break;
            }
        }
        if self.inflight.len() >= capacity {
            let front = self.inflight.pop_front().expect("window is non-empty");
            if self.measuring {
                self.mlp.window_stall_cycles += (front - self.time).as_u64();
            }
            self.time = front;
        }
    }

    /// Advances the clock past every in-flight completion (end of run,
    /// context switch) and empties the window.
    fn drain_window(&mut self) {
        if let Some(&last) = self.inflight.iter().max() {
            self.time = self.time.max(last);
        }
        self.inflight.clear();
        self.pending_tlb_fills.clear();
    }

    /// The completion time of an in-flight walk whose installed entry
    /// covers `vpn`, if any is still outstanding at `now` — the TLB
    /// analogue of a hit-under-miss in [`CacheHierarchy::mshr_step`].
    fn pending_translation_done(&self, asid: Asid, vpn: Vpn, now: Cycles) -> Option<Cycles> {
        let huge_base = Vpn::new(vpn.as_u64() - vpn.l1_index() as u64);
        self.pending_tlb_fills
            .iter()
            .filter(|f| {
                f.done > now && f.asid == asid && (f.key == vpn || (f.huge && f.key == huge_base))
            })
            .map(|f| f.done)
            .max()
    }

    /// Records a windowed walk's install, pruning retired entries.
    fn push_pending_fill(&mut self, fill: PendingTlbFill) {
        while let Some(front) = self.pending_tlb_fills.front() {
            if front.done <= self.time || self.pending_tlb_fills.len() >= MAX_PENDING_TLB_FILLS {
                self.pending_tlb_fills.pop_front();
            } else {
                break;
            }
        }
        self.pending_tlb_fills.push_back(fill);
    }
}

impl CoreCtx {
    /// The running process's ASID.
    fn asid(&self) -> Asid {
        self.procs[self.active].asid
    }

    /// The private caches, on a run that keeps them on the timing side.
    fn caches(&mut self) -> &mut CacheHierarchy {
        self.caches
            .as_mut()
            .expect("the private caches run ahead on the frontend")
    }
}

/// The simulated machine: cores plus the shared memory system.
pub struct Machine {
    cfg: SimConfig,
    cores: Vec<CoreCtx>,
    /// Each core's translation frontend, index-aligned with `cores`.
    fronts: Vec<Frontend>,
    controller: MemoryController,
    /// One-way NoC latency from core `i` to channel `c`, at
    /// `i * channels + c` (the mesh arithmetic, done once).
    one_way: Vec<Cycles>,
    /// The frame allocator premap draws from. Nothing uses it after
    /// [`Machine::new`], but it is freed with the machine: freed at the
    /// end of `Machine::new` instead, it made simbench's
    /// `windowed_shared` `setup_s` three times slower on a 2-CPU x86_64
    /// host, through glibc's dynamic mmap threshold (with the threshold
    /// fixed by `GLIBC_TUNABLES` the two placements time the same).
    alloc: FrameAllocator,
    bypass: BypassPolicy,
    controller_cleared: bool,
    /// Shared banked L3 every core's private misses contend in
    /// (`l3_kb > 0`). `None` skips the L3 stage of the miss chain:
    /// private misses go straight to the vault buffers or DRAM.
    l3: Option<SharedCache>,
    /// Per-vault (per-memory-channel) buffers on the memory side
    /// (`vault_buffer_kb > 0`), arbitrated across every core that
    /// reaches the vault. Empty when disabled.
    vaults: Vec<SharedCache>,
}

impl Machine {
    /// Builds the machine for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`SimConfig::validate`].
    #[must_use]
    pub fn new(cfg: SimConfig) -> Self {
        // The placement rule (module docs): a core's private caches run
        // ahead on its frontend in a blocking run without a shared L3 or
        // vault buffers, and stay on the timing side otherwise.
        let ahead =
            cfg.is_blocking() && cfg.l3_config().is_none() && cfg.vault_buffer_config().is_none();
        Self::build(cfg, ahead)
    }

    /// [`Machine::new`] with every private cache on the timing side, the
    /// reference the run-ahead placement is checked against.
    #[cfg(test)]
    fn with_timing_side_caches(cfg: SimConfig) -> Self {
        Self::build(cfg, false)
    }

    /// Builds the machine for `cfg`, with the private caches on the
    /// frontends when `ahead`.
    fn build(cfg: SimConfig, ahead: bool) -> Self {
        cfg.validate().expect("invalid simulation config");

        let (mut dram, noc) = match cfg.system {
            SystemKind::Ndp => (DramConfig::hbm2_vault(), MeshNoc::ndp(cfg.cores)),
            SystemKind::Cpu => (DramConfig::ddr4_2400(), MeshNoc::cpu(cfg.cores)),
        };
        if let Some(capacity) = cfg.memory_capacity_override {
            dram.capacity_bytes = capacity;
        }
        // Frame bookkeeping must cover the multiprogrammed demand even when
        // it oversubscribes nominal DRAM (real systems would demand-page;
        // we do not model swap latency). The huge-page *contiguity pool*
        // stays pegged to the nominal capacity — that scarcity is the
        // physical effect behind Fig 14.
        let procs = u64::from(cfg.procs_per_core);
        let demand = cfg.footprint_per_core() * u64::from(cfg.cores) * procs;
        let bookkeeping = dram.capacity_bytes.max(demand + demand / 4 + (1 << 30));
        let pool = (dram.capacity_bytes as f64 * ndpage::alloc::CONTIG_POOL_FRACTION) as u64;
        let mut alloc = FrameAllocator::with_contig_pool(bookkeeping, pool);

        let bypass = cfg
            .bypass_override
            .unwrap_or_else(|| cfg.mechanism.bypass_policy());
        let use_pwc = cfg.pwc_override.unwrap_or_else(|| cfg.mechanism.uses_pwc());

        let footprint = cfg.footprint_per_core();
        let params = |pid: ProcessId| TraceParams {
            seed: cfg.seed + pid.as_u64(),
            footprint: Some(footprint),
        };

        // Tagged hardware gives each co-resident process its own
        // (core-local) ASID; untagged hardware has a single namespace and
        // pays with full flushes at every switch.
        let asid = |p: u32| {
            if cfg.tlb_tagging {
                Asid(p as u16)
            } else {
                Asid::ZERO
            }
        };
        let schedule = Schedule {
            total_ops: cfg.warmup_ops + cfg.measure_ops,
            warmup_ops: cfg.warmup_ops,
            quantum_ops: cfg.context_switch_quantum_ops,
            tagging: cfg.tlb_tagging,
            ideal: cfg.mechanism.is_ideal(),
            native_huge: !cfg.tlb_fracture_huge.unwrap_or(true),
            bypass,
        };
        let mut fronts = Vec::with_capacity(cfg.cores as usize);
        let mut cores = Vec::with_capacity(cfg.cores as usize);
        for i in 0..cfg.cores {
            let procs = (0..cfg.procs_per_core)
                .map(|p| FrontProc {
                    asid: asid(p),
                    trace: cfg.workload.trace(params(pid(&cfg, i, p))),
                    table: build_table(cfg.mechanism, &mut alloc),
                })
                .collect();
            let tlb = match cfg.tlb_l2_entries {
                None => TlbHierarchy::table1(),
                Some(entries) => TlbHierarchy::new(
                    TlbConfig::l1_dtlb(),
                    TlbConfig {
                        entries,
                        ..TlbConfig::l2_stlb()
                    },
                ),
            }
            .with_fracturing(cfg.tlb_fracture_huge.unwrap_or(true));
            let (planner, walkers) = match (use_pwc, cfg.pwc_entries) {
                (false, _) => PageTableWalker::without_pwcs(),
                (true, None) => PageTableWalker::with_pwcs(),
                (true, Some(entries)) => PageTableWalker::with_pwc_capacity(entries),
            }
            .with_walkers(cfg.walkers_per_core as usize)
            .into_parts();
            let caches = match (cfg.system, cfg.l3_kb) {
                (SystemKind::Ndp, _) => CacheHierarchy::ndp(),
                // Each CPU core gets its 2 MB share of the shared L3
                // (the cores are multiprogrammed, so a fair-share
                // private slice is the standard approximation)...
                (SystemKind::Cpu, 0) => CacheHierarchy::new(vec![
                    CacheConfig::l1d(),
                    CacheConfig::l2(),
                    CacheConfig::l3(1),
                ]),
                // ...unless a real shared L3 is enabled, which replaces
                // the fair-share slice: the private hierarchy ends at L2
                // and misses contend below.
                (SystemKind::Cpu, _) => {
                    CacheHierarchy::new(vec![CacheConfig::l1d(), CacheConfig::l2()])
                }
            }
            .with_mshrs(cfg.mshrs_per_core as usize);
            let (front_caches, core_caches) = if ahead {
                (Some(caches), None)
            } else {
                (None, Some(caches))
            };
            fronts.push(Frontend::new(procs, tlb, planner, front_caches, schedule));
            cores.push(CoreCtx {
                procs: (0..cfg.procs_per_core)
                    .map(|p| ProcCtx {
                        asid: asid(p),
                        thp_pressure: 0.0,
                        ops_since_tax: 0,
                    })
                    .collect(),
                active: 0,
                quantum_ops: 0,
                post_switch_ops: 0,
                post_switch_measured: false,
                // Deterministic start skew breaks the artificial phase
                // lock of homogeneous cores (standard simulator practice;
                // without it, identical per-op latencies make all cores
                // collide at the memory controller in the same cycles and
                // tiny latency deltas produce large spurious queueing
                // differences between otherwise-equivalent mechanisms).
                time: Cycles::new(u64::from(i) * 97),
                start_time: Cycles::ZERO,
                ops_done: 0,
                measuring: cfg.warmup_ops == 0,
                walkers,
                caches: core_caches,
                translation_cycles: 0,
                os_cycles: 0,
                ptw: LatencyStat::default(),
                ptw_hist: LatencyHistogram::new(),
                faults: RangeMapOutcome::default(),
                ops_measured: 0,
                mem_ops_measured: 0,
                sched: SchedStats::default(),
                inflight: VecDeque::with_capacity(cfg.mlp_window as usize),
                mlp: MlpStats::default(),
                pending_tlb_fills: VecDeque::new(),
            });
        }
        let one_way = (0..cfg.cores)
            .flat_map(|i| (0..dram.channels).map(move |c| (i, c)))
            .map(|(i, c)| noc.core_to_channel(CoreId(i), c))
            .collect();

        // Windowed cores book requests far ahead of their issue clock;
        // the reservation-list bank scheduler keeps that contention
        // timestamp-ordered. Blocking runs keep the scalar banks — the
        // digest-anchored legacy path.
        let l3 = cfg.l3_config().map(SharedCache::new);
        let vaults: Vec<SharedCache> = match cfg.vault_buffer_config() {
            Some(vault_cfg) => (0..dram.channels)
                .map(|_| SharedCache::new(vault_cfg.clone()))
                .collect(),
            None => Vec::new(),
        };
        let controller = if cfg.is_blocking() {
            MemoryController::new(dram)
        } else {
            MemoryController::new(dram).with_overlap_scheduling()
        };
        let mut machine = Machine {
            cfg,
            cores,
            fronts,
            controller,
            one_way,
            alloc,
            bypass,
            controller_cleared: false,
            l3,
            vaults,
        };
        machine.premap_footprints();
        machine
    }

    /// The init phase: every page of every process's regions is mapped
    /// before timing starts, exactly as the paper's workloads populate
    /// their arrays before the measured 500 M-instruction window.
    /// Processes' regions are mapped in interleaved 2 MB chunks so
    /// contiguity exhaustion hits all address spaces evenly (as concurrent
    /// first-touch faulting would).
    ///
    /// The chunk schedule streams from per-target cursors (nothing
    /// footprint-proportional is materialised — traces themselves are
    /// already lazy iterators). The phase splits three ways, so that only
    /// the allocator calls run serially:
    ///
    /// 1. **Shape**, one parallel task per distinct region list: its
    ///    first table lays out its pages without the allocator
    ///    ([`PageTable::shape_range`]; a no-op for the trees, whose
    ///    layout the VPNs fix). An ECH layout depends only on the pages,
    ///    so every other table over the same regions adopts it
    ///    ([`ndpage::PageTableImpl::adopt_layout`]), sharing its slot
    ///    arrays in host memory; each table keeps its own frames.
    /// 2. **Plan**, serially over the canonical interleaved schedule:
    ///    every allocator call a per-page `map` loop would make, in its
    ///    order (so frames, faults and digests are identical). Huge Page
    ///    makes its 2 MB attempts here and writes each huge leaf at once.
    /// 3. **Apply**, one parallel task per table: the planned 4 KB leaf
    ///    PTEs are written — the bulk of init time at paper-scale
    ///    footprints.
    ///
    /// A planned-but-unapplied page still reads as unmapped, so planning
    /// it twice would double-allocate; every workload carves its regions
    /// disjoint (`RegionLayout::carve`), so no page is planned twice.
    ///
    /// There is no run-time page fault: a trace stays inside the regions
    /// mapped here, and the frontend panics on a page outside them.
    fn premap_footprints(&mut self) {
        use ndp_types::addr::PAGE_SIZE;

        let footprint = self.cfg.footprint_per_core();
        // One entry per (core, proc), core-major — the same order the
        // processes were constructed in.
        let targets: Vec<(usize, usize)> = (0..self.cores.len())
            .flat_map(|c| (0..self.cores[c].procs.len()).map(move |p| (c, p)))
            .collect();
        let region_lists: Vec<Vec<ndp_workloads::region::Region>> = targets
            .iter()
            .map(|&(c, p)| {
                self.cfg.workload.regions(TraceParams {
                    seed: self.cfg.seed + pid(&self.cfg, c as u32, p as u32).as_u64(),
                    footprint: Some(footprint),
                })
            })
            .collect();
        let mut cursors: Vec<ChunkCursor<'_>> =
            region_lists.iter().map(|r| ChunkCursor::new(r)).collect();

        let mut proc_faults = vec![RangeMapOutcome::default(); targets.len()];
        let mut plans: Vec<Vec<RangePlan>> = vec![Vec::new(); targets.len()];
        // Only the hashed table shapes (`shape_range` is a no-op on the
        // trees), so the trees skip the fan-out. Each target's leader is
        // the first target with its region list; only leaders shape.
        let leaders: Vec<usize> = region_lists
            .iter()
            .map(|regions| {
                let first = region_lists.iter().position(|r| r == regions);
                first.expect("a region list is its own first match")
            })
            .collect();
        let mut tables: Vec<&mut TableImpl> = self
            .fronts
            .iter_mut()
            .flat_map(|f| f.procs.iter_mut().map(|p| &mut p.table))
            .collect();
        let work: Vec<(&mut TableImpl, ChunkCursor<'_>)> = tables
            .iter_mut()
            .zip(&region_lists)
            .enumerate()
            .filter(|&(i, (ref table, _))| {
                leaders[i] == i && table.kind() == PageTableKind::ElasticCuckoo
            })
            .map(|(_, (table, regions))| (&mut **table, ChunkCursor::new(regions)))
            .collect();
        crate::parallel::par_map(work, |(table, mut cursor)| {
            while let Some((base, len)) = cursor.next_chunk() {
                let first = ndp_types::VirtAddr::new(base).vpn();
                table.shape_range(first, len.div_ceil(PAGE_SIZE));
            }
        });
        for (i, &leader) in leaders.iter().enumerate().filter(|&(i, &l)| l != i) {
            let (shaped, rest) = tables.split_at_mut(i);
            rest[0].adopt_layout(shaped[leader]);
        }

        // Round-robin passes over the cursors reproduce the historical
        // `for chunk_idx { for target }` interleaving exactly (exhausted
        // targets drop out, the rest keep their relative order).
        let mut live = true;
        while live {
            live = false;
            for target_idx in 0..targets.len() {
                let Some((base, len)) = cursors[target_idx].next_chunk() else {
                    continue;
                };
                live = true;
                let (core_idx, proc_idx) = targets[target_idx];
                let first = ndp_types::VirtAddr::new(base).vpn();
                let pages = len.div_ceil(PAGE_SIZE);
                // Planning descends each table once per region instead of
                // once per page — the init phase maps millions of pages,
                // with the same faults, frames and counts as a per-page
                // loop.
                let plan = self.fronts[core_idx].procs[proc_idx]
                    .table
                    .plan_range(first, pages, &mut self.alloc)
                    .expect("built-in trees always plan, and every ECH range was shaped");
                proc_faults[target_idx].absorb_range(plan.outcome);
                plans[target_idx].push(plan);
            }
        }

        // Apply phase: install the planned leaf PTEs, one task per table.
        // Pure memory writes with no shared state, so thread count cannot
        // affect the result; `par_map` keeps task order regardless.
        let work: Vec<(&mut TableImpl, Vec<RangePlan>)> = self
            .fronts
            .iter_mut()
            .flat_map(|f| f.procs.iter_mut().map(|p| &mut p.table))
            .zip(plans)
            .collect();
        crate::parallel::par_map(work, |(table, table_plans)| {
            for plan in &table_plans {
                table.apply_plan(plan);
            }
        });

        for (target_idx, &(core_idx, proc_idx)) in targets.iter().enumerate() {
            let faults = proc_faults[target_idx];
            self.cores[core_idx].faults.absorb_range(faults);
            let proc = &mut self.cores[core_idx].procs[proc_idx];
            // Fallback faults are per 4 KB page while huge faults are per
            // 2 MB region; normalise to regions before computing the
            // fraction of the footprint that failed THP allocation.
            let fallback_regions = faults.fallback as f64 / 512.0;
            let huge_regions = faults.minor_2m as f64;
            proc.thp_pressure = if huge_regions + fallback_regions == 0.0 {
                0.0
            } else {
                fallback_regions / (huge_regions + fallback_regions)
            };
        }
    }

    /// Runs warmup + measurement and produces the report.
    ///
    /// # Scheduling
    ///
    /// One rule orders the cores: the unfinished core with the smallest
    /// clock runs its next op (conservative interleaving, lowest index
    /// on ties), and the pick is made again after every op.
    ///
    /// The ops themselves come translated from the cores' frontends (see
    /// the module docs), run ahead on producer threads when
    /// [`crate::parallel::default_threads`] allows more than one thread
    /// and this is not already a parallel worker.
    #[must_use]
    pub fn run(mut self) -> RunReport {
        let producers = if crate::parallel::in_worker() {
            0
        } else {
            crate::parallel::default_threads() - 1
        };
        self.simulate(producers);
        self.into_report()
    }

    /// [`Machine::run`]'s warmup and measurement, with `producers`
    /// frontend threads (at most one per core; 0 translates inline). The
    /// machine ends in the same state for every count.
    fn simulate(&mut self, producers: usize) {
        let ahead = self.fronts.iter().all(|front| front.caches.is_some());
        let lanes: Vec<Lane> = std::mem::take(&mut self.fronts)
            .into_iter()
            .map(Lane::new)
            .collect();
        let producers = producers.min(lanes.len());
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let threads: Vec<Thread> = (0..producers)
                .map(|first| {
                    let (lanes, stop) = (&lanes, &stop);
                    scope
                        .spawn(move || frontend::produce(lanes, first, producers, stop))
                        .thread()
                        .clone()
                })
                .collect();
            let _stop = StopProducers {
                stop: &stop,
                producers: &threads,
            };
            if ahead {
                self.timing_loop::<true>(&lanes, &threads);
            } else {
                self.timing_loop::<false>(&lanes, &threads);
            }
        });
        self.fronts = lanes.into_iter().map(Lane::into_frontend).collect();
    }

    /// The scheduler over the cores' record streams (see
    /// [`Machine::run`]); `producers[i % n]` fills core `i`'s lane.
    /// `AHEAD`: the private caches run on the frontends, and each access
    /// arrives resolved (a constant, so no access tests where its
    /// outcome comes from).
    fn timing_loop<const AHEAD: bool>(&mut self, lanes: &[Lane], producers: &[Thread]) {
        let total_ops = self.cfg.warmup_ops + self.cfg.measure_ops;
        let mut cursors: Vec<Cursor> = lanes.iter().map(|_| Cursor::default()).collect();
        loop {
            let mut next: Option<usize> = None;
            for (i, core) in self.cores.iter().enumerate() {
                if core.ops_done < total_ops && next.is_none_or(|n| core.time < self.cores[n].time)
                {
                    next = Some(i);
                }
            }
            let Some(i) = next else { break };

            if !self.cores[i].measuring && self.cores[i].ops_done >= self.cfg.warmup_ops {
                self.begin_measurement(i);
            }
            let producer = (!producers.is_empty()).then(|| &producers[i % producers.len()]);
            let rec = cursors[i].next(lanes, i, producer);
            let is_memory = matches!(rec, Rec::Mem(_));
            self.exec_op::<AHEAD>(i, rec, &mut cursors[i]);
            let core = &mut self.cores[i];
            core.ops_done += 1;
            if core.measuring {
                core.ops_measured += 1;
                if is_memory {
                    core.mem_ops_measured += 1;
                }
            }
            if core.procs.len() > 1 {
                core.quantum_ops += 1;
                if core.quantum_ops >= self.cfg.context_switch_quantum_ops {
                    self.context_switch(i);
                }
            }
        }
        // Windowed cores finish their traces with ops still in flight;
        // wall-clock includes waiting those out (in-order retirement).
        for core in &mut self.cores {
            core.drain_window();
        }
    }

    /// Round-robin switch to core `i`'s next process: charge the OS cost
    /// (the frontend flushes untagged TLBs and PWCs at the same op).
    fn context_switch(&mut self, i: usize) {
        let core = &mut self.cores[i];
        core.quantum_ops = 0;
        // A switch serialises the pipeline: the outgoing process's
        // in-flight ops retire before the OS takes over.
        core.drain_window();
        core.active = (core.active + 1) % core.procs.len();
        core.time += self.cfg.context_switch_cost;
        if core.measuring {
            core.os_cycles += self.cfg.context_switch_cost.as_u64();
        }
        core.sched.context_switches += 1;
        if core.measuring {
            core.sched.measured_context_switches += 1;
        }
        core.post_switch_ops = POST_SWITCH_WINDOW;
        core.post_switch_measured = core.measuring;
    }

    /// Opens core `i`'s measured window (the frontend clears the TLB and
    /// PWC statistics at the same op).
    fn begin_measurement(&mut self, i: usize) {
        let core = &mut self.cores[i];
        core.measuring = true;
        core.start_time = core.time;
        // Caches that run ahead clear with the TLBs, on the frontend.
        if let Some(caches) = &mut core.caches {
            caches.clear_stats();
        }
        core.walkers.clear_stats();
        // The shared controller's window opens with the *first* core to
        // measure, matching the per-core windows: every measured-window
        // request of every core is counted. Residual warmup overlap — a
        // core still warming after this point contributes its (small,
        // skew-bounded) tail of warmup traffic — is the price of a shared
        // resource with per-core windows, and is the consistent direction:
        // traffic generated by measuring cores is never silently dropped,
        // as it was when the window only opened with the *last* core.
        if !self.controller_cleared {
            self.controller.clear_stats();
            // The shared last-level structures open their measurement
            // window with the controller: they are shared resources with
            // per-core windows, same rationale as above.
            if let Some(l3) = &mut self.l3 {
                l3.clear_stats();
            }
            for vault in &mut self.vaults {
                vault.clear_stats();
            }
            self.controller_cleared = true;
        }
    }

    fn exec_op<const AHEAD: bool>(&mut self, i: usize, rec: Rec, cursor: &mut Cursor) {
        // Compaction/khugepaged interference while THP fallback pressure
        // persists: the OS periodically steals cycles trying to recover
        // contiguity (Fig 14's Huge Page collapse). The pressure is a
        // property of the *running process's* address space.
        {
            let core = &mut self.cores[i];
            let measuring = core.measuring;
            let tax_base = self.cfg.compaction_tax.as_f64();
            let proc = &mut core.procs[core.active];
            proc.ops_since_tax += 1;
            if proc.thp_pressure > 0.0 && proc.ops_since_tax >= SimConfig::COMPACTION_PERIOD {
                proc.ops_since_tax = 0;
                let tax = Cycles::new((tax_base * proc.thp_pressure) as u64);
                core.time += tax;
                if measuring {
                    core.os_cycles += tax.as_u64();
                }
            }
        }
        let m = match rec {
            Rec::Compute(n) => {
                self.cores[i].time += Cycles::new(u64::from(n));
                return;
            }
            Rec::Mem(m) => m,
        };

        let window = self.cfg.mlp_window as usize;
        if window > 1 {
            // Issue needs a free window slot; retire (in order) to make
            // one, stalling the clock if the oldest op has not completed
            // yet.
            self.cores[i].make_issue_slot(window);
        }

        let issue_t = self.cores[i].time;
        let translation = self.translate::<AHEAD>(i, &m, cursor);
        let core = &mut self.cores[i];
        if core.measuring {
            core.translation_cycles += translation.as_u64();
        }
        if core.post_switch_ops > 0 {
            core.post_switch_ops -= 1;
        }

        let data_issue = issue_t + translation;
        let done =
            self.access_done::<AHEAD>(i, m.paddr, m.rw, AccessClass::Data, data_issue, cursor);

        let core = &mut self.cores[i];
        if core.measuring {
            core.mlp.inflight_latency_cycles += (done - issue_t).as_u64();
        }
        if window > 1 {
            // Windowed: the op stays in flight; the clock only pays the
            // issue slot.
            core.inflight.push_back(done);
            core.time += Cycles::new(1);
            if core.measuring {
                let depth = core.inflight.len() as u32;
                core.mlp.peak_inflight = core.mlp.peak_inflight.max(depth);
            }
        } else {
            // Blocking: the clock jumps to completion before the next op,
            // exactly the pre-pipeline engine.
            core.time = done;
        }
    }

    /// The timing of memory op `m`'s translation on core `i`, returning
    /// its translation cycles: the TLB lookup, plus on a miss the walk
    /// through the walker slots, the PWC probes and the PTE fetches'
    /// memory rounds (Fig 11).
    fn translate<const AHEAD: bool>(
        &mut self,
        i: usize,
        m: &MemRec,
        cursor: &mut Cursor,
    ) -> Cycles {
        let lookup = Cycles::new(u64::from(m.tlb));
        let vpn = m.va.vpn();
        let asid = self.cores[i].asid();
        let walk = match m.xlat {
            Xlat::Walk(walk) => walk,
            Xlat::Hit => {
                // The functional TLB installs entries the moment their
                // walk is *planned*; in windowed mode that walk may still
                // be in flight, making this a hit-under-miss that waits
                // for the translation data (mirror of the cache-line
                // case).
                if self.cfg.mlp_window > 1 {
                    let core = &mut self.cores[i];
                    let now = core.time + lookup;
                    if let Some(done) = core.pending_translation_done(asid, vpn, now) {
                        if core.measuring {
                            core.mlp.tlb_hits_under_miss += 1;
                        }
                        return done - core.time;
                    }
                }
                return lookup;
            }
        };

        // The walk needs a hardware walker: concurrent misses beyond the
        // walker count queue here (never in blocking mode — each walk
        // fully retires before the next op issues, so `admit` is free).
        let walk_base = self.cores[i].time + lookup;
        let (slot, start) = self.cores[i].walkers.admit(walk_base);
        // One cycle per PWC probe, then the memory rounds; `clock` tracks
        // the walk's own completion frontier.
        let mut clock = start + Cycles::new(u64::from(walk.probes));
        for &fetches in walk.rounds.as_slice() {
            let t_issue = clock;
            let mut round_done = t_issue;
            for _ in 0..fetches {
                let addr = cursor.next_fetch();
                let done = self.access_done::<AHEAD>(
                    i,
                    addr,
                    RwKind::Read,
                    AccessClass::Metadata,
                    t_issue,
                    cursor,
                );
                round_done = round_done.max(done);
            }
            clock = round_done;
        }
        self.cores[i].walkers.release(slot, clock);
        // The latency a TLB miss experiences: walker queueing (windowed
        // mode only) + PWC probes + memory rounds.
        let walked = clock - walk_base;

        let core = &mut self.cores[i];
        if core.measuring {
            core.ptw.record(walked);
            core.ptw_hist.record(walked);
            // Walks landing shortly after a *measured* context switch are
            // the cold-miss penalty of the switch (flush-induced on
            // untagged hardware, capacity/competition-induced on tagged);
            // windows opened by warmup switches are excluded so the
            // penalty counters divide cleanly by measured switches.
            if core.post_switch_ops > 0 && core.post_switch_measured {
                core.sched.post_switch_walks += 1;
                core.sched.post_switch_walk_cycles += walked.as_u64();
            }
        }
        if self.cfg.mlp_window > 1 {
            // Later ops that functionally hit this entry before `clock`
            // must wait for the walk's data (hit-under-miss). Only a
            // *native* (unfractured) 2 MB install covers its whole
            // region; fractured installs tag the faulting VPN alone.
            let key = if walk.huge {
                Vpn::new(vpn.as_u64() - vpn.l1_index() as u64)
            } else {
                vpn
            };
            core.push_pending_fill(PendingTlbFill {
                asid,
                key,
                huge: walk.huge,
                done: clock,
            });
        }
        lookup + walked
    }

    /// One memory access through (or around) core `i`'s cache hierarchy,
    /// issued at `t_issue`; returns its **completion timestamp**. The
    /// private levels' outcome ([`Resolved`]) is the frontend's record
    /// with `AHEAD` and the timing side's lookup otherwise; from there
    /// both homes take one path.
    ///
    /// A miss walks one chain below the core: the private levels, then
    /// the shared L3 when configured (`read_l3`), then the line's vault
    /// buffer when configured and DRAM (`read_memory`). An absent stage
    /// is skipped. Each cache stage puts its tag check through its MSHR
    /// file's step: a hit, or a miss merged onto an in-flight fill, ends
    /// the chain there; a miss goes down once a register is free and
    /// registers its fill when the data's time is known.
    ///
    /// In the private levels only windowed data misses use the MSHR
    /// file: a second miss to a line whose fill is still in flight merges
    /// onto that fill (one memory request serves both), and a full file
    /// delays the fetch until a register frees. Metadata (PTE) fetches
    /// skip the MSHRs — their structural limit is the hardware walkers,
    /// and within one walk a round's parallel fetches (ECH's hash ways)
    /// must not serialise on miss registers the walker does not use.
    fn access_done<const AHEAD: bool>(
        &mut self,
        i: usize,
        addr: PhysAddr,
        rw: RwKind,
        class: AccessClass,
        t_issue: Cycles,
        cursor: &mut Cursor,
    ) -> Cycles {
        if self.bypass.bypasses(class) {
            // NDPage metadata bypass: straight to DRAM, probing no cache
            // (vault buffers included), no fill, no pollution.
            let (_, one_way) = self.route(i, addr);
            let arrival = t_issue + one_way;
            let ticket = self
                .controller
                .request_ticketed(addr, rw, class, t_issue, arrival);
            return ticket.done + one_way;
        }
        let access = if AHEAD {
            cursor.next_access()
        } else {
            Resolved::new(self.cores[i].caches().lookup(addr, rw, class), 0)
        };
        let t = t_issue + Cycles::new(u64::from(access.latency));
        let hit = access.level != Resolved::MISS;
        // MSHR bookkeeping only matters when ops can overlap; a blocking
        // core's previous fill always lands before its next access, so
        // skipping the (provably inert) scans keeps the default hot path
        // at pre-pipeline speed. `AHEAD` runs are blocking.
        let step = if !AHEAD && self.coalesces(class) {
            self.cores[i].caches().mshr_step(addr, hit, t)
        } else if hit {
            MshrStep::Ready(t)
        } else {
            MshrStep::Fetch(t)
        };
        match step {
            MshrStep::Ready(done) => done,
            MshrStep::Fetch(send_t) => {
                let victims = cursor.next_victims(access.dirty);
                self.private_miss::<AHEAD>(i, addr, rw, class, victims, send_t)
            }
        }
    }

    /// Whether a private miss of `class` uses the MSHR file ([`Machine::access_done`]).
    fn coalesces(&self, class: AccessClass) -> bool {
        class == AccessClass::Data && !self.cfg.is_blocking()
    }

    /// A miss in core `i`'s private levels, leaving for the chain below
    /// at `send_t`: fetch the line, post the outcome's recorded dirty
    /// `victims` (with `AHEAD` the frontend has installed the line), or
    /// else register the fill when its MSHR file tracks it, install it
    /// and route the victims. Returns when the data is back at the core.
    ///
    /// Kept out of line so that a hit, the common case, does not pay the
    /// miss chain's register and stack setup: with the chain inlined into
    /// `access_done`, simbench's `shootout_blocking` ran 6–11% fewer
    /// simulated ops per second on a 2-CPU x86_64 host.
    #[inline(never)]
    fn private_miss<const AHEAD: bool>(
        &mut self,
        i: usize,
        addr: PhysAddr,
        rw: RwKind,
        class: AccessClass,
        victims: &[Victim],
        send_t: Cycles,
    ) -> Cycles {
        // The demand fill fetches the line regardless of load or store
        // (store dirtiness is captured at eviction as a writeback), so it
        // goes below as a *read* — which is also what keeps it in the
        // demand-latency statistics.
        let (done, extracted_dirty) = self.read_l3(i, addr, class, send_t);
        if AHEAD {
            // An ahead run has no L3, so a victim's level does not change
            // its route.
            for &victim in victims {
                self.route_private_victim(i, victim, false, done);
            }
            return done;
        }
        if self.coalesces(class) {
            self.cores[i].caches().register_fill(addr, send_t, done);
        }
        // Routing a victim touches only the shared levels and memory, so
        // each level's victim goes out as soon as that level installs.
        let dirty = rw.is_write() || extracted_dirty;
        let outer = self.cores[i].caches().depth() - 1;
        for level in 0..=outer {
            if let Some(victim) = self.cores[i].caches().install(level, addr, class, dirty) {
                self.route_private_victim(i, victim, level == outer, done);
            }
        }
        done
    }

    /// The shared-L3 stage of a private miss sent at `t` (skipped without
    /// an L3). Returns when the data is back at the core and whether an
    /// exclusive L3 hit extracted a *dirty* copy (the private fill must
    /// keep that dirtiness or a future writeback is lost).
    fn read_l3(
        &mut self,
        i: usize,
        addr: PhysAddr,
        class: AccessClass,
        t: Cycles,
    ) -> (Cycles, bool) {
        let (send_t, slot) = match self.l3.as_mut() {
            None => (t, None),
            Some(l3) => {
                let look = l3.access(addr, RwKind::Read, class, t);
                match l3.mshr_step(addr, look.hit, look.done) {
                    MshrStep::Ready(done) => return (done, look.dirty),
                    MshrStep::Fetch(send_t) => (send_t, look.slot),
                }
            }
        };
        let done = self.read_memory(i, addr, class, send_t);
        let Some(l3) = self.l3.as_mut() else {
            return (done, false);
        };
        // The fill is registered in the *requesting core's* time frame
        // (`done` includes core `i`'s NoC return leg), because the L3
        // itself has no modelled mesh position — its below-L3 fetch
        // already rides core `i`'s channel path. A coalescing requester
        // therefore inherits this core's return leg instead of paying its
        // own; today that requester can only be core `i` itself (address
        // spaces are disjoint, so no two cores ever share a physical
        // line), which makes the frames coincide. Revisit if shared
        // mappings are added.
        l3.register_fill(addr, send_t, done);
        // Inclusive: the demand fill installs here as well as in the
        // private levels; exclusive fills bypass the L3 (it is fed by
        // private victims instead).
        if l3.config().policy == InclusionPolicy::Inclusive {
            let slot = slot.expect("a fetch below follows an L3 miss");
            if let Some(victim) = l3.install(slot, addr, class, self.cores[i].asid(), false) {
                self.back_invalidate_for(i, victim, done);
            }
        }
        (done, false)
    }

    /// An inclusive L3 evicted `victim`: invalidate every private copy
    /// (back-invalidation) and push dirty data toward memory — the
    /// victim's own dirtiness or a dirtier private copy's.
    fn back_invalidate_for(&mut self, i: usize, victim: Victim, now: Cycles) {
        let mut present = false;
        let mut dirty_private = false;
        for core in &mut self.cores {
            let bi = core.caches().back_invalidate(victim.addr);
            present |= bi.present;
            dirty_private |= bi.dirty;
        }
        if present {
            self.l3
                .as_mut()
                .expect("inclusive victims imply an L3")
                .note_back_invalidation();
        }
        if victim.dirty || dirty_private {
            self.post_write(i, victim.addr, victim.class, now);
        }
    }

    /// Routes one victim of a private install: a line leaving the
    /// `outermost` private level feeds an exclusive L3 (clean or dirty)
    /// or updates its inclusive-L3 copy in place; any other dirty victim
    /// is posted toward memory.
    fn route_private_victim(&mut self, i: usize, v: Victim, outermost: bool, now: Cycles) {
        if let Some(l3) = self.l3.as_mut().filter(|_| outermost) {
            let policy = l3.config().policy;
            match policy {
                InclusionPolicy::Exclusive => {
                    let asid = self.cores[i].asid();
                    let evicted = l3.fill(v.addr, v.class, asid, v.dirty);
                    if let Some(evicted) = evicted.filter(|e| e.dirty) {
                        self.post_write(i, evicted.addr, evicted.class, now);
                    }
                    return;
                }
                // A dirty inclusive victim updates its L3 copy in place
                // when present (absorbed, no memory traffic).
                InclusionPolicy::Inclusive if v.dirty && l3.accept_writeback(v.addr) => return,
                InclusionPolicy::Inclusive => {}
            }
        }
        if v.dirty {
            self.post_write(i, v.addr, v.class, now);
        }
    }

    /// The last stages of a demand read sent at `t` from above: the vault
    /// buffer fronting the line's channel when configured, then DRAM.
    /// Returns when the data is back at the core. Each DRAM request
    /// carries its own issue and arrival times ([`ndp_types::MemTicket`]),
    /// so requests a windowed core overlaps contend individually in the
    /// banks. Bypassed NDPage metadata never comes through here — it
    /// skips the vault buffers exactly as it skips every other cache.
    fn read_memory(&mut self, i: usize, addr: PhysAddr, class: AccessClass, t: Cycles) -> Cycles {
        let (channel, one_way) = self.route(i, addr);
        let arrival = t + one_way;
        let (send_t, slot) = match self.vaults.get_mut(channel as usize) {
            None => (arrival, None),
            Some(vault) => {
                let look = vault.access(addr, RwKind::Read, class, arrival);
                match vault.mshr_step(addr, look.hit, look.done) {
                    MshrStep::Ready(done) => return done + one_way,
                    MshrStep::Fetch(send_t) => (send_t, look.slot),
                }
            }
        };
        let ticket = self
            .controller
            .request_ticketed(addr, RwKind::Read, class, t, send_t);
        if let Some(vault) = self.vaults.get_mut(channel as usize) {
            vault.register_fill(addr, send_t, ticket.done);
            let slot = slot.expect("a fetch below follows a vault-buffer miss");
            let victim = vault.install(slot, addr, class, self.cores[i].asid(), false);
            if let Some(victim) = victim.filter(|v| v.dirty) {
                // The buffer sits at the vault: its dirty victims drain
                // into the local banks with no further NoC traversal.
                self.controller.request_ticketed(
                    victim.addr,
                    RwKind::Write,
                    victim.class,
                    ticket.done,
                    ticket.done,
                );
            }
        }
        ticket.done + one_way
    }

    /// A posted write (nobody waits; accounted under write traffic, not
    /// demand latency): absorbed by the line's vault buffer when present
    /// there, else sent to DRAM.
    fn post_write(&mut self, i: usize, addr: PhysAddr, class: AccessClass, t: Cycles) {
        let (channel, one_way) = self.route(i, addr);
        if self
            .vaults
            .get_mut(channel as usize)
            .is_some_and(|vault| vault.accept_writeback(addr))
        {
            return;
        }
        self.controller
            .request_ticketed(addr, RwKind::Write, class, t, t + one_way);
    }

    /// The channel serving `addr` and core `i`'s one-way NoC latency to
    /// it.
    fn route(&self, i: usize, addr: PhysAddr) -> (u32, Cycles) {
        let channels = self.controller.config().channels;
        let channel = ndp_mem::line_channel(addr, channels);
        (
            channel,
            self.one_way[i * channels as usize + channel as usize],
        )
    }

    fn into_report(self) -> RunReport {
        let mut tlb_l1 = HitMiss::default();
        let mut tlb_l2 = HitMiss::default();
        let mut l1_data = HitMiss::default();
        let mut l1_metadata = HitMiss::default();
        let mut pollution = 0u64;
        let mut ptw = LatencyStat::default();
        let mut ptw_histogram = LatencyHistogram::new();
        let mut faults = RangeMapOutcome::default();
        let mut pwc: BTreeMap<PtLevel, HitMiss> = BTreeMap::new();
        let mut translation_cycles = 0u64;
        let mut os_cycles = 0u64;
        let mut ops = 0u64;
        let mut mem_ops = 0u64;
        let mut sched = SchedStats::default();
        let mut mlp = MlpStats::default();
        let mut occupancy = OccupancyReport::new();
        let mut table_bytes = 0u64;
        let mut measured = Vec::with_capacity(self.cores.len());

        for (core, front) in self.cores.iter().zip(&self.fronts) {
            measured.push((core.time - core.start_time).as_f64());
            tlb_l1.merge(front.tlb.l1_stats());
            tlb_l2.merge(front.tlb.l2_stats());
            let caches = core
                .caches
                .as_ref()
                .or(front.caches.as_ref())
                .expect("every core has its private caches in one home");
            let l1 = caches.level_stats(0);
            l1_data.merge(&l1.data);
            l1_metadata.merge(&l1.metadata);
            pollution += l1.data_evicted_by_metadata;
            ptw.merge(&core.ptw);
            ptw_histogram.merge(&core.ptw_hist);
            faults.absorb_range(core.faults);
            translation_cycles += core.translation_cycles;
            os_cycles += core.os_cycles;
            ops += core.ops_measured;
            mem_ops += core.mem_ops_measured;
            sched.merge(&core.sched);
            sched.tlb_flushes += front.tlb_flushes;
            sched.entries_flushed += front.entries_flushed;
            // The machine-side MLP counters, then the ones owned by the
            // structures themselves (cleared at measurement start, like
            // every other cache/TLB statistic).
            mlp.merge(&core.mlp);
            let mshr = caches.mshr_stats();
            mlp.mshr_coalesced += mshr.coalesced;
            mlp.mshr_full_stalls += mshr.full_stalls;
            mlp.mshr_stall_cycles += mshr.full_stall_cycles;
            let walkers = core.walkers.stats();
            mlp.walker_queued_walks += walkers.queued_walks;
            mlp.walker_queue_cycles += walkers.queue_cycles;
            for (level, hm) in front.planner.pwcs().stats() {
                pwc.entry(level).or_default().merge(hm);
            }
            // Storage is the sum over every address space; occupancy
            // merges raw per-level counters, giving the capacity-weighted
            // pooled rate (with the homogeneous footprints and op counts
            // every table runs, this matches the per-table mean up to
            // allocation noise).
            for proc in &front.procs {
                occupancy.merge(&proc.table.occupancy());
                table_bytes += proc.table.table_bytes();
            }
        }

        let total = measured.iter().cloned().fold(0.0f64, f64::max);
        let avg = ndp_types::stats::mean(&measured);
        let dram = self.controller.dram_stats();

        // One report block per shared structure: the L3 as-is, the vault
        // buffers merged over `caches` via SharedStats::merge (one field
        // mapping, so a new counter cannot be dropped from the merge).
        let llc_block = |caches: &[&SharedCache], policy: &'static str| {
            let mut stats = ndp_cache::SharedStats::default();
            let mut mshr_coalesced = 0u64;
            let mut mshr_full_stalls = 0u64;
            let mut live_lines = 0u64;
            let mut occupancy: BTreeMap<u16, u64> = BTreeMap::new();
            for cache in caches {
                stats.merge(&cache.stats());
                let mshr = cache.mshr_totals();
                mshr_coalesced += mshr.coalesced;
                mshr_full_stalls += mshr.full_stalls;
                live_lines += cache.live_lines();
                for (asid, lines) in cache.occupancy_by_asid() {
                    *occupancy.entry(asid.as_u16()).or_default() += lines;
                }
            }
            let config = caches[0].config();
            SharedLlcStats {
                size_kb: config.size_bytes >> 10,
                ways: config.ways,
                banks: config.banks,
                units: caches.len() as u32,
                policy,
                data: stats.cache.data,
                metadata: stats.cache.metadata,
                data_evicted_by_metadata: stats.cache.data_evicted_by_metadata,
                writebacks: stats.cache.writebacks,
                writebacks_absorbed: stats.writebacks_absorbed,
                bank_conflicts: stats.bank_conflicts,
                bank_conflict_cycles: stats.bank_conflict_cycles,
                back_invalidations: stats.back_invalidations,
                mshr_coalesced,
                mshr_full_stalls,
                occupancy_by_asid: occupancy.into_iter().collect(),
                live_lines,
            }
        };
        let l3_block = self
            .l3
            .as_ref()
            .map(|l3| llc_block(&[l3], self.cfg.l3_policy.name()));
        let vault_block = (!self.vaults.is_empty()).then(|| {
            let vaults: Vec<&SharedCache> = self.vaults.iter().collect();
            llc_block(&vaults, "memory-side")
        });

        RunReport {
            workload: self.cfg.workload,
            mechanism: self.cfg.mechanism,
            system: self.cfg.system,
            cores: self.cfg.cores,
            procs_per_core: self.cfg.procs_per_core,
            total_cycles: Cycles::new(total as u64),
            avg_core_cycles: avg,
            ops,
            mem_ops,
            translation_cycles,
            os_cycles,
            ptw,
            ptw_histogram,
            tlb_l1,
            tlb_l2,
            l1_data,
            l1_metadata,
            data_evicted_by_metadata: pollution,
            pwc: pwc.into_iter().collect(),
            mem_traffic: self.controller.stats().traffic,
            dram_row_hit_rate: dram.row_hit_rate(),
            dram_queue_delay: dram.queue_delay.mean(),
            faults,
            sched,
            mlp_window: self.cfg.mlp_window,
            mlp,
            l3: l3_block,
            vault: vault_block,
            occupancy,
            table_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_workloads::WorkloadId;

    /// Runs `m` with `producers` frontend threads.
    fn run_with(mut m: Machine, producers: usize) -> RunReport {
        m.simulate(producers);
        m.into_report()
    }

    fn quick(mechanism: Mechanism) -> RunReport {
        Machine::new(SimConfig::quick(
            SystemKind::Ndp,
            1,
            mechanism,
            WorkloadId::Rnd,
        ))
        .run()
    }

    #[test]
    fn runs_complete_and_count_ops() {
        let r = quick(Mechanism::Radix);
        assert_eq!(r.ops, 20_000);
        assert!(r.mem_ops > 0);
        assert!(r.total_cycles > Cycles::ZERO);
        assert!(r.ptw.count > 0, "GUPS on Radix must walk");
    }

    #[test]
    fn ideal_has_zero_translation() {
        let r = quick(Mechanism::Ideal);
        assert_eq!(r.translation_cycles, 0);
        assert_eq!(r.ptw.count, 0);
        assert_eq!(r.mem_traffic.metadata, 0);
        assert_eq!(r.l1_metadata.total(), 0);
    }

    #[test]
    fn ndpage_beats_radix_on_gups() {
        let radix = quick(Mechanism::Radix);
        let ndpage = quick(Mechanism::NdPage);
        assert!(
            ndpage.speedup_over(&radix) > 1.05,
            "NDPage {} vs Radix {}",
            ndpage.total_cycles,
            radix.total_cycles
        );
    }

    #[test]
    fn ndpage_issues_no_metadata_into_l1() {
        let r = quick(Mechanism::NdPage);
        assert_eq!(r.l1_metadata.total(), 0, "bypassed PTEs never probe L1");
        assert!(r.mem_traffic.metadata > 0, "but they do reach memory");
        assert_eq!(r.data_evicted_by_metadata, 0, "no pollution");
    }

    #[test]
    fn radix_metadata_pollutes_l1() {
        let r = quick(Mechanism::Radix);
        assert!(r.l1_metadata.total() > 0);
        assert!(
            r.l1_metadata.miss_rate() > 0.8,
            "irregular PTEs mostly miss: {}",
            r.l1_metadata.miss_rate()
        );
        assert!(r.data_evicted_by_metadata > 0);
    }

    #[test]
    fn determinism() {
        let a = quick(Mechanism::NdPage);
        let b = quick(Mechanism::NdPage);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.mem_traffic.total(), b.mem_traffic.total());
    }

    #[test]
    fn multicore_raises_ptw_latency_in_ndp() {
        let one = Machine::new(SimConfig::quick(
            SystemKind::Ndp,
            1,
            Mechanism::Radix,
            WorkloadId::Rnd,
        ))
        .run();
        let four = Machine::new(SimConfig::quick(
            SystemKind::Ndp,
            4,
            Mechanism::Radix,
            WorkloadId::Rnd,
        ))
        .run();
        assert!(
            four.avg_ptw_latency() > one.avg_ptw_latency(),
            "contention must grow PTW latency: {} vs {}",
            four.avg_ptw_latency(),
            one.avg_ptw_latency()
        );
    }

    #[test]
    fn cpu_translation_overhead_is_lower_than_ndp() {
        // Fig 5's metric: the share of runtime spent translating is far
        // higher in the NDP system, whose single cache level cannot absorb
        // PTE traffic the way the CPU's L2/L3 do.
        let ndp = Machine::new(SimConfig::quick(
            SystemKind::Ndp,
            4,
            Mechanism::Radix,
            WorkloadId::Bfs,
        ))
        .run();
        let cpu = Machine::new(SimConfig::quick(
            SystemKind::Cpu,
            4,
            Mechanism::Radix,
            WorkloadId::Bfs,
        ))
        .run();
        assert!(
            ndp.translation_fraction() > cpu.translation_fraction(),
            "NDP {} vs CPU {}",
            ndp.translation_fraction(),
            cpu.translation_fraction()
        );
        assert!(
            ndp.avg_ptw_latency() > cpu.avg_ptw_latency(),
            "PTW: NDP {} vs CPU {}",
            ndp.avg_ptw_latency(),
            cpu.avg_ptw_latency()
        );
    }

    #[test]
    fn huge_page_maps_huge_and_walks_less() {
        let r = quick(Mechanism::HugePage);
        assert!(r.faults.minor_2m > 0, "huge faults happened");
        assert!(
            r.tlb_walk_rate() < 0.5,
            "2 MB reach slashes TLB misses: {}",
            r.tlb_walk_rate()
        );
    }

    #[test]
    fn ech_walks_are_parallel_single_round() {
        let r = quick(Mechanism::Ech);
        assert!(r.ptw.count > 0);
        // 3 fetches per walk reach memory (no PWCs), but in one round.
        assert!(r.mem_traffic.metadata >= r.ptw.count * 2);
    }

    #[test]
    fn shared_l3_absorbs_radix_metadata_but_never_sees_ndpage_metadata() {
        let cfg = |m| {
            SimConfig::quick(SystemKind::Ndp, 2, m, WorkloadId::Rnd)
                .with_l3(2048)
                .with_procs(2)
                .with_quantum(2_000)
        };
        let radix = Machine::new(cfg(Mechanism::Radix)).run();
        let l3 = radix.l3.as_ref().expect("enabled L3 reports a block");
        assert!(l3.metadata.hits > 0, "PTE lines hit the shared L3");
        assert!(l3.bank_conflicts > 0, "co-runners conflict on bank ports");
        assert_eq!(
            l3.occupancy_by_asid.iter().map(|(_, n)| n).sum::<u64>(),
            l3.live_lines,
            "occupancy partitions the live lines"
        );
        assert!(
            l3.occupancy_by_asid.len() >= 2,
            "both co-resident ASIDs hold shared capacity"
        );

        let ndpage = Machine::new(cfg(Mechanism::NdPage)).run();
        let l3 = ndpage.l3.as_ref().expect("block present");
        assert_eq!(
            l3.metadata.total(),
            0,
            "bypassed PTE fetches never probe the shared L3"
        );
        assert!(l3.data.total() > 0, "data misses still contend there");
    }

    #[test]
    fn small_inclusive_l3_back_invalidates_private_lines() {
        let mut cfg = SimConfig::quick(SystemKind::Ndp, 2, Mechanism::Radix, WorkloadId::Bfs)
            .with_l3(256)
            .with_procs(2)
            .with_quantum(2_000);
        cfg.l3_banks = 4;
        let r = Machine::new(cfg).run();
        let l3 = r.l3.as_ref().unwrap();
        assert!(
            l3.back_invalidations > 0,
            "a 256 KB inclusive L3 under four working sets must back-invalidate"
        );
        assert_eq!(l3.policy, "inclusive");
    }

    #[test]
    fn exclusive_l3_runs_and_reports_its_policy() {
        let cfg = SimConfig::quick(SystemKind::Ndp, 1, Mechanism::Radix, WorkloadId::Rnd)
            .with_l3(1024)
            .with_l3_policy(crate::config::InclusionPolicy::Exclusive);
        let r = Machine::new(cfg).run();
        let l3 = r.l3.as_ref().unwrap();
        assert_eq!(l3.policy, "exclusive");
        assert_eq!(
            l3.back_invalidations, 0,
            "exclusive evictions need no back-invalidation"
        );
        assert!(l3.live_lines > 0, "private victims fill the exclusive L3");
    }

    #[test]
    fn vault_buffers_front_the_channels() {
        let cfg = SimConfig::quick(SystemKind::Ndp, 2, Mechanism::Radix, WorkloadId::Rnd)
            .with_vault_buffer(256);
        let r = Machine::new(cfg).run();
        let vault = r.vault.as_ref().expect("enabled vaults report a block");
        assert_eq!(vault.units, 4, "one buffer per HBM2 vault channel");
        assert!(vault.metadata.hits > 0, "PTE lines hit in the vault");
        assert_eq!(
            vault.occupancy_by_asid.iter().map(|(_, n)| n).sum::<u64>(),
            vault.live_lines
        );
        assert!(r.l3.is_none(), "no L3 block without --l3-kb");
    }

    #[test]
    fn cpu_shared_l3_replaces_the_private_slice() {
        let base = SimConfig::quick(SystemKind::Cpu, 2, Mechanism::Radix, WorkloadId::Bfs);
        let shared = Machine::new(base.clone().with_l3(4096)).run();
        let private = Machine::new(base).run();
        assert!(shared.l3.is_some());
        assert!(private.l3.is_none());
        // Both runs complete with walks; timing legitimately differs.
        assert!(shared.ptw.count > 0 && private.ptw.count > 0);
        assert_ne!(shared.fingerprint(), private.fingerprint());
    }

    /// A page premap did not map is a bug, not a fault to service.
    #[test]
    #[should_panic(expected = "is not mapped")]
    fn an_unmapped_page_panics() {
        let mut m = Machine::new(SimConfig::quick(
            SystemKind::Ndp,
            1,
            Mechanism::Radix,
            WorkloadId::Rnd,
        ));
        m.fronts[0].procs[0].table = build_table(Mechanism::Radix, &mut m.alloc);
        let _ = run_with(m, 0);
    }

    /// One producer thread serving all eight frontends, three serving
    /// uneven shares of them, and inline frontends give the same report;
    /// so do a 4-core CPU system, whose three private levels run ahead,
    /// and a single core, where no other lane can take a chunk and the
    /// timing loop waits on its lane's lock while the producer fills it.
    #[test]
    fn producers_serving_several_frontends_match_inline() {
        let configs = [
            SimConfig::quick(SystemKind::Ndp, 8, Mechanism::NdPage, WorkloadId::Bfs)
                .with_footprint(64 << 20)
                .with_ops(2_000, 6_000)
                .with_procs(2)
                .with_quantum(700)
                .with_tlb_tagging(false),
            SimConfig::quick(SystemKind::Cpu, 4, Mechanism::Radix, WorkloadId::Bfs)
                .with_footprint(64 << 20)
                .with_ops(2_000, 6_000),
            SimConfig::quick(SystemKind::Ndp, 1, Mechanism::Radix, WorkloadId::Rnd)
                .with_footprint(64 << 20)
                .with_ops(2_000, 6_000),
        ];
        for cfg in configs {
            let inline = run_with(Machine::new(cfg.clone()), 0).fingerprint();
            for producers in [1, 3] {
                let r = run_with(Machine::new(cfg.clone()), producers);
                assert_eq!(
                    r.fingerprint(),
                    inline,
                    "{:?} {} cores, {producers} producers",
                    cfg.system,
                    cfg.cores
                );
            }
        }
    }

    /// Each core's private-cache statistics after a run, as text: every
    /// level's [`ndp_cache::set_assoc::CacheStats`], then the MSHR file's.
    fn private_stats(m: &Machine) -> Vec<String> {
        m.cores
            .iter()
            .zip(&m.fronts)
            .map(|(core, front)| {
                let caches = core.caches.as_ref().or(front.caches.as_ref()).unwrap();
                let levels: Vec<_> = (0..caches.depth()).map(|l| caches.level_stats(l)).collect();
                format!("{levels:?} {:?}", caches.mshr_stats())
            })
            .collect()
    }

    /// Private caches resolved ahead on the frontends give the report and
    /// the per-level cache and MSHR statistics the timing loop gives with
    /// the same caches, on every system, mechanism and core count, with
    /// untagged multiprogramming, and under every producer count.
    #[test]
    fn private_caches_ahead_match_the_timing_loop() {
        let mut configs = Vec::new();
        for system in [SystemKind::Ndp, SystemKind::Cpu] {
            for mechanism in Mechanism::ALL {
                for cores in [1, 4] {
                    configs.push(SimConfig::quick(system, cores, mechanism, WorkloadId::Rnd));
                }
            }
        }
        configs.push(
            SimConfig::quick(SystemKind::Ndp, 2, Mechanism::Radix, WorkloadId::Bfs)
                .with_procs(2)
                .with_quantum(700)
                .with_tlb_tagging(false),
        );
        for cfg in configs {
            let cfg = cfg.with_footprint(32 << 20).with_ops(1_000, 3_000);
            let label = format!(
                "{:?} {:?} {} cores {} procs",
                cfg.system, cfg.mechanism, cfg.cores, cfg.procs_per_core
            );
            let ahead = Machine::new(cfg.clone());
            assert!(
                ahead.fronts.iter().all(|f| f.caches.is_some()),
                "{label}: a blocking run without a shared level runs its caches ahead"
            );
            let mut reference = Machine::with_timing_side_caches(cfg.clone());
            reference.simulate(0);
            let reference_stats = private_stats(&reference);
            let reference = reference.into_report();
            assert!(
                reference.mem_traffic.write > 0,
                "{label}: dirty victims reach memory"
            );
            for producers in [0, 1, 3] {
                for mut m in [
                    Machine::with_timing_side_caches(cfg.clone()),
                    Machine::new(cfg.clone()),
                ] {
                    m.simulate(producers);
                    let context = format!("{label}, {producers} producers");
                    assert_eq!(private_stats(&m), reference_stats, "{context}");
                    let r = m.into_report();
                    assert_eq!(r.fingerprint(), reference.fingerprint(), "{context}");
                    assert_eq!(r.l1_data, reference.l1_data, "{context}");
                    assert_eq!(r.l1_metadata, reference.l1_metadata, "{context}");
                }
            }
        }
    }

    /// Windowed runs and runs with a shared level keep their caches on the
    /// timing side.
    #[test]
    fn caches_stay_on_the_timing_side_with_overlap_or_a_shared_level() {
        let base = SimConfig::quick(SystemKind::Ndp, 1, Mechanism::Radix, WorkloadId::Rnd)
            .with_footprint(32 << 20);
        for cfg in [
            base.clone().with_window(4),
            base.clone().with_l3(1024),
            base.with_vault_buffer(256),
        ] {
            let m = Machine::new(cfg);
            assert!(m.fronts.iter().all(|f| f.caches.is_none()));
            assert!(m.cores.iter().all(|c| c.caches.is_some()));
        }
    }

    #[test]
    fn disabled_shared_llc_knobs_are_inert() {
        let base = Machine::new(SimConfig::quick(
            SystemKind::Ndp,
            1,
            Mechanism::Radix,
            WorkloadId::Rnd,
        ))
        .run();
        let tweaked = SimConfig::quick(SystemKind::Ndp, 1, Mechanism::Radix, WorkloadId::Rnd)
            .with_l3_geometry(8, 2)
            .with_l3_policy(crate::config::InclusionPolicy::Exclusive);
        let tweaked = Machine::new(tweaked).run();
        assert_eq!(
            base.fingerprint(),
            tweaked.fingerprint(),
            "geometry/policy knobs must be inert while l3_kb = 0"
        );
        assert!(tweaked.l3.is_none() && tweaked.vault.is_none());
    }
}
