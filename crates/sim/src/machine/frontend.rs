//! The translation frontend: one core's op stream resolved through its
//! TLBs, page tables and PWCs — and, in a blocking run without a shared
//! level, its private caches — into compact records, one chunk at a
//! time, for the timing loop to replay (see the [`super`] module docs for
//! the split, the caches' placement rule and why both are exact).
//!
//! Each core's [`Frontend`] sits in a [`Lane`] with a bounded queue of
//! ready chunks. Producer threads fill the queues ahead of the timing
//! loop; the timing loop fills a chunk itself whenever its queue is empty,
//! which is the whole mechanism when there are no producer threads. When
//! a producer holds the frontend of the lane it needs, the timing loop
//! fills a chunk for another lane instead, and waits only when no lane
//! can take one.

use super::TableImpl;
use ndp_cache::hierarchy::{CacheHierarchy, LookupResult};
use ndp_cache::set_assoc::Victim;
use ndp_mmu::tlb::TlbHierarchy;
use ndp_mmu::walker::{WalkPlanner, WalkRounds};
use ndp_types::{AccessClass, Asid, Op, PageSize, Pfn, PhysAddr, RwKind, VirtAddr};
use ndp_workloads::Trace;
use ndpage::bypass::BypassPolicy;
use ndpage::table::PageTable;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, TryLockError};
use std::thread::Thread;

/// Most ops in one chunk. A lane's frontend state moves between host
/// cores whenever another thread fills its next chunk, so chunks are long
/// enough to amortise that: on a 2-CPU x86_64 host simbench's
/// `shootout_blocking` ran about 6% more simulated ops per second with
/// 1,024-op chunks two deep than with 512-op chunks four deep.
const CHUNK_OPS: usize = 1024;

/// Most ready chunks a lane queues ahead of the timing loop.
const QUEUE_CHUNKS: usize = 2;

/// The page walk behind a TLB miss: what the timing loop needs to replay
/// it through the walker slots and the memory system.
#[derive(Debug, Clone, Copy)]
pub(super) struct WalkRec {
    /// PWC probes (one cycle each) before the memory rounds.
    pub probes: u8,
    /// PTE fetches per memory round; their addresses follow in order in
    /// the chunk's `fetches`.
    pub rounds: WalkRounds,
    /// The install is a native 2 MB entry covering its whole region.
    pub huge: bool,
}

/// How a memory op's translation resolved.
#[derive(Debug, Clone, Copy)]
pub(super) enum Xlat {
    /// A TLB hit (every Ideal translation, at zero latency).
    Hit,
    /// Both TLB levels missed and the page was walked.
    Walk(WalkRec),
}

/// A memory op, translated.
#[derive(Debug, Clone, Copy)]
pub(super) struct MemRec {
    pub va: VirtAddr,
    /// Physical address of the access.
    pub paddr: PhysAddr,
    pub rw: RwKind,
    /// TLB lookup latency (zero for Ideal).
    pub tlb: u32,
    pub xlat: Xlat,
}

/// One op of a core's stream, as the timing loop consumes it.
#[derive(Debug, Clone, Copy)]
pub(super) enum Rec {
    Compute(u32),
    Mem(MemRec),
}

/// The outcome of a private-cache access (a non-bypassed PTE fetch or a
/// data access) in either home of the caches: resolved ahead of timing
/// (looked up and, on a full miss, filled), or looked up by the timing
/// loop.
#[derive(Debug, Clone, Copy)]
pub(super) struct Resolved {
    /// Probe latency of the levels looked up (all of them on a miss).
    pub latency: u32,
    /// The level that served the access (0 = L1), or [`Resolved::MISS`].
    pub level: u8,
    /// Dirty victims of the frontend's fill after a miss; they follow in
    /// level order in the chunk's `victims`. Always 0 on the timing side,
    /// which installs after the fetch.
    pub dirty: u8,
}

impl Resolved {
    /// `level` of an access that missed every private level.
    pub const MISS: u8 = u8::MAX;

    /// The outcome of `look`, whose fill evicted `dirty` dirty victims.
    pub fn new(look: LookupResult, dirty: u8) -> Self {
        let (latency, level) = match look {
            LookupResult::Hit { level, latency } => (latency, level as u8),
            LookupResult::MissAll { lookup_latency } => (lookup_latency, Resolved::MISS),
        };
        Resolved {
            latency: latency.as_u64() as u32,
            level,
            dirty,
        }
    }
}

/// A run of consecutive records of one core.
#[derive(Debug, Default)]
pub(super) struct Chunk {
    recs: Vec<Rec>,
    /// PTE fetch addresses of the chunk's walks, in record order.
    fetches: Vec<PhysAddr>,
    /// Private-cache outcomes, in access order: each memory record's
    /// non-bypassed PTE fetches in walk order, then its data access
    /// (empty when the caches are on the timing side).
    accesses: Vec<Resolved>,
    /// The dirty victims of the resolved misses, in access order.
    victims: Vec<Victim>,
}

impl Chunk {
    /// Looks `addr` up in `caches` and fills it on a full miss, recording
    /// the outcome and pushing the fill's dirty victims as they appear.
    fn resolve(
        &mut self,
        caches: &mut CacheHierarchy,
        addr: PhysAddr,
        rw: RwKind,
        class: AccessClass,
    ) {
        let before = self.victims.len();
        let victims = &mut self.victims;
        let look = caches.resolve(addr, rw, class, |_, v| {
            if v.dirty {
                victims.push(v);
            }
        });
        let dirty = (self.victims.len() - before) as u8;
        self.accesses.push(Resolved::new(look, dirty));
    }
}

/// One process as its core's frontend sees it: an address space (page
/// table and ASID) and the trace that runs in it.
pub(super) struct FrontProc {
    pub asid: Asid,
    pub trace: Trace,
    pub table: TableImpl,
}

/// The run constants a frontend schedules by.
#[derive(Debug, Clone, Copy)]
pub(super) struct Schedule {
    pub total_ops: u64,
    pub warmup_ops: u64,
    pub quantum_ops: u64,
    /// ASID-tagged TLBs/PWCs; untagged ones full-flush on every switch.
    pub tagging: bool,
    /// Ideal: no TLB or walk, only the page's frame.
    pub ideal: bool,
    /// 2 MB translations install native (unfractured) TLB entries.
    pub native_huge: bool,
    /// Which fetches skip the private caches.
    pub bypass: BypassPolicy,
}

/// A core's translation state: its processes' traces and page tables, its
/// TLB hierarchy, its walker's PWC bank and, where the placement rule puts
/// them here, its private caches. None of it depends on timing.
pub(super) struct Frontend {
    pub procs: Vec<FrontProc>,
    pub tlb: TlbHierarchy,
    pub planner: WalkPlanner,
    /// The core's private caches when they run ahead (`None` when they
    /// live on the timing side).
    pub caches: Option<CacheHierarchy>,
    sched: Schedule,
    active: usize,
    quantum_ops: u64,
    ops_done: u64,
    /// Untagged context-switch flushes, and the entries they dropped.
    pub tlb_flushes: u64,
    pub entries_flushed: u64,
}

impl Frontend {
    pub fn new(
        procs: Vec<FrontProc>,
        tlb: TlbHierarchy,
        planner: WalkPlanner,
        caches: Option<CacheHierarchy>,
        sched: Schedule,
    ) -> Self {
        Frontend {
            procs,
            tlb,
            planner,
            caches,
            sched,
            active: 0,
            quantum_ops: 0,
            ops_done: 0,
            tlb_flushes: 0,
            entries_flushed: 0,
        }
    }

    /// Every op is translated and retired.
    fn finished(&self) -> bool {
        self.ops_done >= self.sched.total_ops
    }

    /// Translates the next ops into `chunk` (replacing its contents): up to
    /// [`CHUNK_OPS`]. With the caches here, each memory op's non-bypassed
    /// PTE fetches are then resolved in walk order, and its data access
    /// after them: the order the timing loop issues them in.
    fn fill(&mut self, chunk: &mut Chunk) {
        chunk.recs.clear();
        chunk.fetches.clear();
        chunk.accesses.clear();
        chunk.victims.clear();
        let walks_cached = !self.sched.bypass.bypasses(AccessClass::Metadata);
        while chunk.recs.len() < CHUNK_OPS && self.ops_done < self.sched.total_ops {
            // The timing loop opens the measured window before this op
            // executes; the TLB, PWC and cache statistics restart with it.
            if self.ops_done == self.sched.warmup_ops && self.sched.warmup_ops > 0 {
                self.tlb.clear_stats();
                self.planner.clear_stats();
                if let Some(caches) = &mut self.caches {
                    caches.clear_stats();
                }
            }
            let op = self.procs[self.active]
                .trace
                .next()
                .expect("traces are infinite");
            let rec = match op {
                Op::Compute(n) => Rec::Compute(n),
                Op::Load(va) | Op::Store(va) => {
                    let rw = op.rw().expect("memory op");
                    let first_fetch = chunk.fetches.len();
                    let m = self.translate(va, rw, &mut chunk.fetches);
                    if let Some(caches) = &mut self.caches {
                        if walks_cached {
                            for k in first_fetch..chunk.fetches.len() {
                                let addr = chunk.fetches[k];
                                chunk.resolve(caches, addr, RwKind::Read, AccessClass::Metadata);
                            }
                        }
                        chunk.resolve(caches, m.paddr, rw, AccessClass::Data);
                    }
                    Rec::Mem(m)
                }
            };
            chunk.recs.push(rec);
            self.retire_op();
        }
    }

    /// The Fig 11 translation of `va` without its timing: TLB lookup, then
    /// on a miss the table descent, the PWC-filtered walk plan (fetch
    /// addresses appended to `fetches`) and the TLB install.
    ///
    /// # Panics
    ///
    /// Panics if `va`'s page is unmapped: the machine maps every page of
    /// every workload region before it runs, so that is a bug.
    fn translate(&mut self, va: VirtAddr, rw: RwKind, fetches: &mut Vec<PhysAddr>) -> MemRec {
        let vpn = va.vpn();
        let proc = &self.procs[self.active];
        let mut rec = MemRec {
            va,
            paddr: PhysAddr::new(0),
            rw,
            tlb: 0,
            xlat: Xlat::Hit,
        };
        if self.sched.ideal {
            // Every request hits a zero-latency L1 TLB (paper §VI); pages
            // are still placed through a real table so data-access
            // behaviour is comparable.
            let tr = proc.table.translate(vpn).unwrap_or_else(|| unmapped(va));
            rec.paddr = tr.pfn.base().add(va.page_offset());
            return rec;
        }
        let asid = proc.asid;
        let lookup = self.tlb.lookup(asid, vpn);
        rec.tlb = lookup.latency.as_u64() as u32;
        if let Some(hit) = lookup.hit {
            rec.paddr = hit.pfn.base().add(va.page_offset());
            return rec;
        }
        // One descent serves the translation and the walk path.
        let (tr, path) = proc
            .table
            .translate_and_walk(vpn)
            .unwrap_or_else(|| unmapped(va));
        let walk = WalkRec {
            probes: path.len() as u8,
            rounds: self
                .planner
                .plan_into(asid, vpn, &path, |addr| fetches.push(addr)),
            huge: tr.size == PageSize::Size2M && self.sched.native_huge,
        };
        // Install in the TLBs (huge mappings store the region base).
        let base = match tr.size {
            PageSize::Size4K => tr.pfn,
            PageSize::Size2M => Pfn::new(tr.pfn.as_u64() - vpn.l1_index() as u64),
        };
        self.tlb.fill(asid, vpn, base, tr.size);
        rec.paddr = tr.pfn.base().add(va.page_offset());
        rec.xlat = Xlat::Walk(walk);
        rec
    }

    /// Counts a translated op and applies its context switch, if due:
    /// round-robin to the next process, full-flushing untagged TLBs and
    /// PWCs (tagged hardware keeps every resident process's entries warm).
    fn retire_op(&mut self) {
        self.ops_done += 1;
        if self.procs.len() > 1 {
            self.quantum_ops += 1;
            if self.quantum_ops >= self.sched.quantum_ops {
                self.quantum_ops = 0;
                self.active = (self.active + 1) % self.procs.len();
                if !self.sched.tagging {
                    self.entries_flushed += self.tlb.flush_all() + self.planner.flush_all();
                    self.tlb_flushes += 1;
                }
            }
        }
    }
}

/// A trace touched a page that premap did not map.
#[cold]
fn unmapped(va: VirtAddr) -> ! {
    panic!("page {} (address {va}) is not mapped", va.vpn())
}

/// Ready chunks plus emptied ones kept for reuse.
#[derive(Default)]
struct Ready {
    chunks: VecDeque<Chunk>,
    spare: Vec<Chunk>,
}

/// One core's frontend and its bounded queue of ready chunks. Lock order
/// is `front` then `ready`; chunks are queued under the `front` lock, so
/// queue order is production order.
pub(super) struct Lane {
    front: Mutex<Frontend>,
    ready: Mutex<Ready>,
}

/// What a producer found a lane able to take.
enum Progress {
    Filled,
    Idle,
    Finished,
}

impl Lane {
    pub fn new(front: Frontend) -> Self {
        Lane {
            front: Mutex::new(front),
            ready: Mutex::new(Ready::default()),
        }
    }

    pub fn into_frontend(self) -> Frontend {
        self.front.into_inner().expect("frontend lock poisoned")
    }

    /// Queues one chunk if the lane has room and is free to run. Never
    /// waits: a busy or full lane is `Idle`.
    fn produce(&self) -> Progress {
        let Ok(mut front) = self.front.try_lock() else {
            return Progress::Idle;
        };
        if front.finished() {
            return Progress::Finished;
        }
        let mut chunk = {
            let mut ready = self.ready.lock().expect("queue lock poisoned");
            if ready.chunks.len() >= QUEUE_CHUNKS {
                return Progress::Idle;
            }
            ready.spare.pop().unwrap_or_default()
        };
        front.fill(&mut chunk);
        self.ready
            .lock()
            .expect("queue lock poisoned")
            .chunks
            .push_back(chunk);
        Progress::Filled
    }
}

/// Fills the queues of lanes `first, first + stride, …` until every one
/// is finished or `stop` is raised. A lane that cannot take a chunk is
/// skipped, never waited on, so one full queue cannot hold up another
/// lane the timing loop is waiting for; with nothing to do the producer
/// parks until the timing loop drains a chunk.
pub(super) fn produce(lanes: &[Lane], first: usize, stride: usize, stop: &AtomicBool) {
    loop {
        let mut filled = false;
        let mut live = false;
        for lane in lanes.iter().skip(first).step_by(stride) {
            match lane.produce() {
                Progress::Filled => {
                    filled = true;
                    live = true;
                }
                Progress::Idle => live = true,
                Progress::Finished => {}
            }
        }
        if !live || stop.load(Ordering::Acquire) {
            return;
        }
        if !filled {
            std::thread::park();
        }
    }
}

/// The timing loop's read position in one core's records.
#[derive(Default)]
pub(super) struct Cursor {
    chunk: Chunk,
    rec: usize,
    fetch: usize,
    access: usize,
    victim: usize,
}

impl Cursor {
    /// The next record of core `i`, taking the next ready chunk of its
    /// lane (`lanes[i]`) when this one is spent — or translating it here
    /// when none is ready. `producer` (the lane's producer thread, if
    /// any) is woken whenever the lane gains room or its frontend lock is
    /// released.
    pub fn next(&mut self, lanes: &[Lane], i: usize, producer: Option<&Thread>) -> Rec {
        if self.rec == self.chunk.recs.len() {
            self.refill(lanes, i);
            if let Some(thread) = producer {
                thread.unpark();
            }
        }
        self.rec += 1;
        self.chunk.recs[self.rec - 1]
    }

    /// Takes lane `i`'s next chunk. While a producer holds that lane's
    /// frontend, this thread fills a chunk for another lane that can take
    /// one and looks again; it blocks on the lane's lock only when no lane
    /// can. A chunk's contents depend only on its own lane's sequential
    /// state, so who fills it cannot change a bit.
    fn refill(&mut self, lanes: &[Lane], i: usize) {
        let lane = &lanes[i];
        let spent = std::mem::take(&mut self.chunk);
        self.rec = 0;
        self.fetch = 0;
        self.access = 0;
        self.victim = 0;
        {
            let mut ready = lane.ready.lock().expect("queue lock poisoned");
            ready.spare.push(spent);
            if let Some(chunk) = ready.chunks.pop_front() {
                self.chunk = chunk;
                return;
            }
        }
        let mut front = loop {
            match lane.front.try_lock() {
                Ok(front) => break front,
                Err(TryLockError::Poisoned(_)) => panic!("frontend lock poisoned"),
                Err(TryLockError::WouldBlock) => {}
            }
            let mut others = lanes[i + 1..].iter().chain(&lanes[..i]);
            if !others.any(|other| matches!(other.produce(), Progress::Filled)) {
                break lane.front.lock().expect("frontend lock poisoned");
            }
            let next = lane
                .ready
                .lock()
                .expect("queue lock poisoned")
                .chunks
                .pop_front();
            if let Some(chunk) = next {
                self.chunk = chunk;
                return;
            }
        };
        let mut ready = lane.ready.lock().expect("queue lock poisoned");
        // A producer may have queued a chunk while this thread waited
        // for the frontend.
        if let Some(chunk) = ready.chunks.pop_front() {
            self.chunk = chunk;
            return;
        }
        self.chunk = ready.spare.pop().unwrap_or_default();
        drop(ready);
        front.fill(&mut self.chunk);
        assert!(
            !self.chunk.recs.is_empty(),
            "the timing loop outran its trace"
        );
    }

    /// The next PTE fetch address of the current record's walk.
    pub fn next_fetch(&mut self) -> PhysAddr {
        self.fetch += 1;
        self.chunk.fetches[self.fetch - 1]
    }

    /// The outcome of the current record's next private-cache access.
    pub fn next_access(&mut self) -> Resolved {
        self.access += 1;
        self.chunk.accesses[self.access - 1]
    }

    /// The next `n` dirty victims of the current record's resolved misses
    /// (none on the timing side, where `n` is always 0).
    pub fn next_victims(&mut self, n: u8) -> &[Victim] {
        let first = self.victim;
        self.victim += usize::from(n);
        &self.chunk.victims[first..self.victim]
    }
}

// Records stream through the queues by the million: keep them a few words.
const _: () = assert!(core::mem::size_of::<Rec>() <= 40);

/// Raises `stop` and wakes every producer when the timing loop ends —
/// normally or by unwinding — so no producer outlives it.
pub(super) struct StopProducers<'a> {
    pub stop: &'a AtomicBool,
    pub producers: &'a [Thread],
}

impl Drop for StopProducers<'_> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        for thread in self.producers {
            thread.unpark();
        }
    }
}
