//! Layer replay: one workload's own trace and regions fed through each
//! layer's public API, one timed batch per call kind.
//!
//! For a grid row's `(workload, mechanism, system)` the replay builds the
//! first process's regions and trace, premaps a page table the way
//! `Machine::new` does, then pushes the trace's memory ops down the
//! translation and memory path: TLB lookups, page-table walks, walker
//! plans, TLB fills, private-cache lookups and fills, and — on the stream
//! of private-cache misses — shared-cache accesses, MSHR probes and
//! memory-controller requests. Each call kind is timed as one span over a
//! homogeneous batch (the structure is warmed on the first half of the
//! stream first), so the result is a host cost per call for each layer.

use crate::spans::Tracer;
use ndp_cache::hierarchy::LookupResult;
use ndp_cache::{CacheConfig, CacheHierarchy, InclusionPolicy, SharedCache, SharedConfig};
use ndp_mem::{DramConfig, MemoryController};
use ndp_mmu::{PageTableWalker, TlbHierarchy};
use ndp_sim::{SimConfig, SystemKind};
use ndp_types::addr::{HUGE_PAGE_SIZE, PAGE_SIZE};
use ndp_types::{AccessClass, Asid, Cycles, Op, PageSize, Pfn, PhysAddr, RwKind, VirtAddr, Vpn};
use ndp_workloads::region::Region;
use ndp_workloads::TraceParams;
use ndpage::table::{RangePlan, Translation};
use ndpage::{FrameAllocator, Mechanism, PageTable, PageTableImpl};
use std::hint::black_box;

/// Trace ops replayed per `(workload, mechanism, system)`.
pub const REPLAY_OPS: usize = 100_000;

/// Host cost per call of every replayed layer entry point.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerCosts {
    /// `WorkloadId::regions`, seconds per call.
    pub regions_s: f64,
    /// `WorkloadId::trace` (building the generator), seconds per call.
    pub trace_build_s: f64,
    /// Drawing one op from the trace generator.
    pub trace_ns: f64,
    /// Premap (plan + apply, or `map_range`) per 4 KiB page.
    pub premap_ns_per_page: f64,
    /// `translate_and_walk`.
    pub walk_ns: f64,
    /// `TlbHierarchy::lookup`.
    pub tlb_lookup_ns: f64,
    /// `TlbHierarchy::fill`.
    pub tlb_fill_ns: f64,
    /// `PageTableWalker::plan`.
    pub walker_plan_ns: f64,
    /// `CacheHierarchy::lookup`.
    pub cache_lookup_ns: f64,
    /// `CacheHierarchy::fill`.
    pub cache_fill_ns: f64,
    /// `SharedCache::access`.
    pub shared_access_ns: f64,
    /// `CacheHierarchy::probe_mshrs` (+ `register_fill` on a primary miss).
    pub mshr_probe_ns: f64,
    /// `MemoryController::request` on scalar banks.
    pub request_ns: f64,
    /// `MemoryController::request_ticketed` with overlap scheduling.
    pub request_ticketed_ns: f64,
}

/// Runs `f` as one batch span and returns its result with the batch's
/// nanoseconds per call.
fn batch<T>(t: &mut Tracer, name: &str, f: impl FnOnce() -> (T, usize)) -> (T, f64) {
    let id = t.spans().len();
    let out = t.batch(name, || {
        let (out, calls) = f();
        (out, calls as u64)
    });
    let span = &t.spans()[id];
    let ns = if span.calls == 0 {
        0.0
    } else {
        span.duration_ns() as f64 / span.calls as f64
    };
    (out, ns)
}

fn dram_config(cfg: &SimConfig) -> DramConfig {
    let mut dram = match cfg.system {
        SystemKind::Ndp => DramConfig::hbm2_vault(),
        SystemKind::Cpu => DramConfig::ddr4_2400(),
    };
    if let Some(capacity) = cfg.memory_capacity_override {
        dram.capacity_bytes = capacity;
    }
    dram
}

/// The private hierarchy `Machine::new` gives one core of `cfg`.
fn private_caches(cfg: &SimConfig) -> CacheHierarchy {
    match (cfg.system, cfg.l3_kb) {
        (SystemKind::Ndp, _) => CacheHierarchy::ndp(),
        (SystemKind::Cpu, 0) => CacheHierarchy::new(vec![
            CacheConfig::l1d(),
            CacheConfig::l2(),
            CacheConfig::l3(1),
        ]),
        (SystemKind::Cpu, _) => CacheHierarchy::new(vec![CacheConfig::l1d(), CacheConfig::l2()]),
    }
    .with_mshrs(cfg.mshrs_per_core.max(1) as usize)
}

fn spans_disjoint(regions: &[Region]) -> bool {
    let mut spans: Vec<(u64, u64)> = regions
        .iter()
        .map(|r| {
            let first = r.base.as_u64() / PAGE_SIZE;
            (first, (r.base.as_u64() + r.bytes).div_ceil(PAGE_SIZE))
        })
        .collect();
    spans.sort_unstable();
    spans.windows(2).all(|w| w[0].1 <= w[1].0)
}

/// Premaps one address space in 2 MiB chunks: plan every chunk, then
/// apply the plans, falling back to `map_range` for designs without the
/// plan/apply split. Returns the table and the pages mapped.
fn premap(cfg: &SimConfig, regions: &[Region]) -> (PageTableImpl, u64) {
    let dram = dram_config(cfg);
    let demand = cfg.footprint_per_core();
    let bookkeeping = dram.capacity_bytes.max(demand + demand / 4 + (1 << 30));
    let pool = (dram.capacity_bytes as f64 * ndpage::alloc::CONTIG_POOL_FRACTION) as u64;
    let mut alloc = FrameAllocator::with_contig_pool(bookkeeping, pool);
    let mut table = cfg
        .mechanism
        .build_impl(&mut alloc)
        .or_else(|| Mechanism::Radix.build_impl(&mut alloc))
        .expect("radix always builds");
    let mut deferred = spans_disjoint(regions);
    let mut plans: Vec<RangePlan> = Vec::new();
    let mut pages = 0;
    for region in regions {
        let mut offset = 0;
        while offset < region.bytes {
            let len = (region.bytes - offset).min(HUGE_PAGE_SIZE);
            let first = VirtAddr::new(region.base.as_u64() + offset).vpn();
            let n = len.div_ceil(PAGE_SIZE);
            if deferred {
                match table.plan_range(first, n, &mut alloc) {
                    Some(plan) => plans.push(plan),
                    None => {
                        deferred = false;
                        table.map_range(first, n, &mut alloc);
                    }
                }
            } else {
                table.map_range(first, n, &mut alloc);
            }
            pages += n;
            offset += len;
        }
    }
    for plan in &plans {
        table.apply_plan(plan);
    }
    (table, pages)
}

/// The TLB entry base of a translation (huge mappings store the region
/// base, as the machine installs them).
fn tlb_base(vpn: Vpn, tr: Translation) -> Pfn {
    match tr.size {
        PageSize::Size4K => tr.pfn,
        PageSize::Size2M => Pfn::new(tr.pfn.as_u64() - vpn.l1_index() as u64),
    }
}

/// Replays `cfg`'s first process through every layer, recording one
/// batch span per call kind under the caller's open span.
pub fn replay(cfg: &SimConfig, t: &mut Tracer) -> LayerCosts {
    let params = TraceParams {
        seed: cfg.seed,
        footprint: Some(cfg.footprint_per_core()),
    };
    let mut costs = LayerCosts::default();

    // ndp-workloads: regions and the op stream.
    let (regions, ns) = batch(t, "workloads.regions", || (cfg.workload.regions(params), 1));
    costs.regions_s = ns * 1e-9;
    let (mut trace, ns) = batch(t, "workloads.trace_build", || {
        (cfg.workload.trace(params), 1)
    });
    costs.trace_build_s = ns * 1e-9;
    let (ops, ns) = batch(t, "workloads.trace", || {
        let ops: Vec<Op> = trace.by_ref().take(REPLAY_OPS).collect();
        let n = ops.len();
        (ops, n)
    });
    costs.trace_ns = ns;

    // ndpage: premap, then walks of the TLB-missing pages.
    let (table, ns) = batch(t, "core.premap", || {
        let (table, pages) = premap(cfg, &regions);
        (table, pages as usize)
    });
    costs.premap_ns_per_page = ns;

    let mem: Vec<(VirtAddr, RwKind)> = ops
        .iter()
        .filter_map(|op| Some((op.addr()?, op.rw()?)))
        .collect();
    let half = mem.len() / 2;
    let asid = Asid::ZERO;

    // ndp-mmu: warm the TLBs and PWCs on the first half, then time
    // lookups alone on the second half.
    let mut tlb = TlbHierarchy::table1().with_fracturing(cfg.tlb_fracture_huge.unwrap_or(true));
    let use_pwc = cfg.pwc_override.unwrap_or_else(|| cfg.mechanism.uses_pwc());
    let mut walker = match (use_pwc, cfg.pwc_entries) {
        (false, _) => PageTableWalker::without_pwcs(),
        (true, None) => PageTableWalker::with_pwcs(),
        (true, Some(entries)) => PageTableWalker::with_pwc_capacity(entries),
    };
    for &(va, _) in &mem[..half] {
        let vpn = va.vpn();
        if tlb.lookup(asid, vpn).hit.is_none() {
            if let Some((tr, path)) = table.translate_and_walk(vpn) {
                walker.plan(asid, vpn, &path);
                tlb.fill(asid, vpn, tlb_base(vpn, tr), tr.size);
            }
        }
    }
    let (misses, ns) = batch(t, "mmu.tlb_lookup", || {
        let mut misses = Vec::new();
        for &(va, _) in &mem[half..] {
            let vpn = va.vpn();
            if black_box(tlb.lookup(asid, vpn)).hit.is_none() {
                misses.push(vpn);
            }
        }
        (misses, mem.len() - half)
    });
    costs.tlb_lookup_ns = ns;
    let (walked, ns) = batch(t, "core.walk", || {
        let walked: Vec<_> = misses
            .iter()
            .filter_map(|&vpn| table.translate_and_walk(vpn).map(|(tr, p)| (vpn, tr, p)))
            .collect();
        (walked, misses.len())
    });
    costs.walk_ns = ns;
    let ((), ns) = batch(t, "mmu.walker_plan", || {
        for (vpn, _, path) in &walked {
            black_box(walker.plan(asid, *vpn, path));
        }
        ((), walked.len())
    });
    costs.walker_plan_ns = ns;
    let ((), ns) = batch(t, "mmu.tlb_fill", || {
        for &(vpn, tr, _) in &walked {
            tlb.fill(asid, vpn, tlb_base(vpn, tr), tr.size);
        }
        ((), walked.len())
    });
    costs.tlb_fill_ns = ns;

    // ndp-cache: private lookups and fills of the data accesses.
    let phys: Vec<(PhysAddr, RwKind)> = mem
        .iter()
        .filter_map(|&(va, rw)| {
            let tr = table.translate(va.vpn())?;
            Some((tr.pfn.base().add(va.page_offset()), rw))
        })
        .collect();
    let half = phys.len() / 2;
    let mut caches = private_caches(cfg);
    let mut below: Vec<PhysAddr> = Vec::new();
    for &(pa, rw) in &phys[..half] {
        if let LookupResult::MissAll { .. } = caches.lookup(pa, rw, AccessClass::Data) {
            below.push(pa);
            caches.fill(pa, AccessClass::Data, rw.is_write());
        }
    }
    let (cold, ns) = batch(t, "cache.lookup", || {
        let mut cold = Vec::new();
        for &(pa, rw) in &phys[half..] {
            if !black_box(caches.lookup(pa, rw, AccessClass::Data)).is_hit() {
                cold.push((pa, rw));
            }
        }
        (cold, phys.len() - half)
    });
    costs.cache_lookup_ns = ns;
    let ((), ns) = batch(t, "cache.fill", || {
        for &(pa, rw) in &cold {
            black_box(caches.fill(pa, AccessClass::Data, rw.is_write()));
        }
        ((), cold.len())
    });
    costs.cache_fill_ns = ns;
    below.extend(cold.iter().map(|&(pa, _)| pa));

    // The private-miss stream below the core: shared L3, MSHRs, memory.
    let shared_cfg = cfg
        .l3_config()
        .unwrap_or_else(|| SharedConfig::l3(512, 16, 8, InclusionPolicy::Inclusive));
    let mut l3 = SharedCache::new(shared_cfg);
    let half = below.len() / 2;
    let mut now = Cycles::ZERO;
    for &pa in &below[..half] {
        now += Cycles::new(4);
        if !l3.access(pa, RwKind::Read, AccessClass::Data, now).hit {
            l3.fill(pa, AccessClass::Data, asid, false);
        }
    }
    let ((), ns) = batch(t, "cache.shared_access", || {
        for &pa in &below[half..] {
            now += Cycles::new(4);
            black_box(l3.access(pa, RwKind::Read, AccessClass::Data, now));
        }
        ((), below.len() - half)
    });
    costs.shared_access_ns = ns;

    // Misses issue from a window of 8 in-flight ops, as on a windowed
    // core: each waits for the op 8 places earlier to complete.
    let mut mshrs = private_caches(cfg);
    let ((), ns) = batch(t, "cache.mshr_probe", || {
        let mut window = [Cycles::ZERO; 8];
        let mut now = Cycles::ZERO;
        for (k, &pa) in below.iter().enumerate() {
            let slot = k % window.len();
            now = (now + Cycles::new(3)).max(window[slot]);
            let send = match mshrs.probe_mshrs(pa, now) {
                ndp_cache::MshrLookup::Coalesced(done) => {
                    window[slot] = done;
                    continue;
                }
                ndp_cache::MshrLookup::Free => now,
                ndp_cache::MshrLookup::Full(free_at) => free_at,
            };
            let done = send + Cycles::new(150);
            mshrs.register_fill(pa, send, done);
            window[slot] = done;
        }
        ((), below.len())
    });
    costs.mshr_probe_ns = ns;

    // ndp-mem: a blocking requester on scalar banks, then a window of 8
    // overlapping requests on reservation-list banks.
    let dram = dram_config(cfg);
    let mut scalar = MemoryController::new(dram);
    let ((), ns) = batch(t, "mem.request", || {
        let mut now = Cycles::ZERO;
        for &pa in &below {
            now = black_box(scalar.request(pa, RwKind::Read, AccessClass::Data, now));
        }
        ((), below.len())
    });
    costs.request_ns = ns;
    let mut overlapped = MemoryController::new(dram).with_overlap_scheduling();
    let ((), ns) = batch(t, "mem.request_ticketed", || {
        let mut window = [Cycles::ZERO; 8];
        let mut issue = Cycles::ZERO;
        for (k, &pa) in below.iter().enumerate() {
            let slot = k % window.len();
            issue = (issue + Cycles::new(1)).max(window[slot]);
            let arrival = issue + Cycles::new(20);
            let ticket =
                overlapped.request_ticketed(pa, RwKind::Read, AccessClass::Data, issue, arrival);
            window[slot] = ticket.done;
        }
        ((), below.len())
    });
    costs.request_ticketed_ns = ns;
    costs
}
