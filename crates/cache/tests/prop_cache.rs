//! Property tests checking the set-associative cache against a reference
//! model (a per-set LRU list) under random access/fill sequences, and
//! the shared last-level cache's structural invariants (inclusion,
//! exclusion, occupancy partition, bank partition) under random streams.

use ndp_cache::hierarchy::CacheHierarchy;
use ndp_cache::set_assoc::{Access, CacheConfig, SetAssocCache};
use ndp_cache::shared::{InclusionPolicy, SharedCache, SharedConfig};
use ndp_types::{AccessClass, Asid, Cycles, PhysAddr, RwKind};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::VecDeque;

/// Reference model: per-set MRU-ordered deque of line addresses.
struct RefCache {
    sets: usize,
    ways: usize,
    lines: Vec<VecDeque<u64>>,
}

impl RefCache {
    fn new(sets: usize, ways: usize) -> Self {
        RefCache {
            sets,
            ways,
            lines: vec![VecDeque::new(); sets],
        }
    }

    fn set_of(&self, addr: u64) -> usize {
        ((addr / 64) as usize) & (self.sets - 1)
    }

    fn access(&mut self, addr: u64) -> bool {
        let set = self.set_of(addr);
        let line = addr / 64;
        let dq = &mut self.lines[set];
        if let Some(pos) = dq.iter().position(|&l| l == line) {
            dq.remove(pos);
            dq.push_front(line);
            true
        } else {
            false
        }
    }

    fn fill(&mut self, addr: u64) {
        let set = self.set_of(addr);
        let line = addr / 64;
        let dq = &mut self.lines[set];
        if let Some(pos) = dq.iter().position(|&l| l == line) {
            dq.remove(pos);
        } else if dq.len() == self.ways {
            dq.pop_back();
        }
        dq.push_front(line);
    }
}

fn tiny_config() -> CacheConfig {
    CacheConfig {
        name: "prop",
        size_bytes: 4096, // 8 sets x 8 ways
        ways: 8,
        line_bytes: 64,
        latency: Cycles::new(1),
        metadata_lru_insert: false,
    }
}

/// A deliberately tiny private L1 (2 sets x 2 ways) so random streams
/// evict constantly.
fn prop_l1() -> CacheHierarchy {
    CacheHierarchy::new(vec![CacheConfig {
        name: "prop-L1",
        size_bytes: 256,
        ways: 2,
        line_bytes: 64,
        latency: Cycles::new(1),
        metadata_lru_insert: false,
    }])
}

/// A tiny shared L3 (8 sets x 2 ways, 2 banks) under the given policy.
fn prop_l3(policy: InclusionPolicy) -> SharedCache {
    SharedCache::new(SharedConfig {
        name: "prop-L3",
        size_bytes: 1024,
        ways: 2,
        banks: 2,
        line_bytes: 64,
        latency: Cycles::new(5),
        bank_period: Cycles::new(1),
        policy,
        mshrs_per_bank: 2,
    })
}

/// Line-aligned addresses drawn from a pool small enough to thrash both
/// structures.
fn line_of(sel: u64) -> PhysAddr {
    PhysAddr::new((sel % 48) * 64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under pure-LRU data traffic, the cache — and an inclusive
    /// single-bank shared cache of the same geometry — must agree with
    /// the reference model on every hit/miss decision.
    #[test]
    fn matches_reference_lru(addrs in vec(0u64..32_768, 1..400)) {
        let mut cache = SetAssocCache::new(tiny_config());
        let mut shared = SharedCache::new(SharedConfig {
            name: "prop-shared",
            size_bytes: 4096, // 8 sets x 8 ways, like tiny_config
            ways: 8,
            banks: 1,
            line_bytes: 64,
            latency: Cycles::new(1),
            bank_period: Cycles::new(1),
            policy: InclusionPolicy::Inclusive,
            mshrs_per_bank: 1,
        });
        let mut reference = RefCache::new(8, 8);
        for (t, &addr) in addrs.iter().enumerate() {
            let a = PhysAddr::new(addr & !63);
            let got = cache.access(a, RwKind::Read, AccessClass::Data);
            let shared_got = shared.access(a, RwKind::Read, AccessClass::Data, Cycles::new(t as u64));
            let want = reference.access(addr & !63);
            prop_assert_eq!(got.is_hit(), want, "divergence at {:#x}", addr);
            prop_assert_eq!(shared_got.hit, want, "shared divergence at {:#x}", addr);
            // Misses install through the slot their lookup picked.
            if let Access::Miss(slot) = got {
                cache.install(slot, a, AccessClass::Data, Asid::ZERO, false);
            }
            if let Some(slot) = shared_got.slot {
                shared.install(slot, a, AccessClass::Data, Asid::ZERO, false);
            }
            if !want {
                reference.fill(addr & !63);
            }
        }
    }

    /// Statistics identities: hits + misses == accesses; probe never
    /// changes them; resident set size never exceeds capacity.
    #[test]
    fn stats_identities(addrs in vec(0u64..16_384, 1..300)) {
        let mut cache = SetAssocCache::new(tiny_config());
        for &addr in &addrs {
            let a = PhysAddr::new(addr);
            let before = cache.stats().total().total();
            let _ = cache.probe(a);
            prop_assert_eq!(cache.stats().total().total(), before, "probe counted");
            if !cache.access(a, RwKind::Read, AccessClass::Data).is_hit() {
                cache.fill(a, AccessClass::Data, Asid::ZERO, false);
            }
        }
        prop_assert_eq!(cache.stats().total().total(), addrs.len() as u64);
        // Everything just filled must be resident or evicted — re-probing
        // all addresses can't yield more residents than capacity.
        let resident = addrs
            .iter()
            .map(|&a| a & !63)
            .collect::<std::collections::HashSet<_>>()
            .into_iter()
            .filter(|&a| cache.probe(PhysAddr::new(a)))
            .count();
        prop_assert!(resident <= 64, "capacity is 64 lines, found {resident}");
    }

    /// Metadata-LIP mode never changes *correctness* (hit iff resident),
    /// only survival time: a just-filled line is always resident.
    #[test]
    fn lip_mode_is_still_a_cache(ops in vec((0u64..8_192, prop::bool::ANY), 1..300)) {
        let mut cfg = tiny_config();
        cfg.metadata_lru_insert = true;
        let mut cache = SetAssocCache::new(cfg);
        for &(addr, is_meta) in &ops {
            let a = PhysAddr::new(addr);
            let class = if is_meta {
                AccessClass::Metadata
            } else {
                AccessClass::Data
            };
            let access = cache.access(a, RwKind::Read, class);
            prop_assert_eq!(access.is_hit(), cache.probe(a), "access/probe disagree");
            if let Access::Miss(slot) = access {
                cache.install(slot, a, class, Asid::ZERO, false);
                prop_assert!(cache.probe(a), "install must install");
            }
        }
    }

    /// MSHR-file invariants under random probe/advance sequences: the
    /// file never over-commits its registers, coalescing only merges
    /// onto *live* fills, a Full verdict names a time that makes
    /// progress, and registers recycle once their fill lands.
    #[test]
    fn mshr_file_invariants(ops in vec((0u64..24, 0u64..60), 1..300)) {
        use ndp_cache::mshr::{MshrFile, MshrLookup};
        use ndp_types::LineAddr;

        const CAP: usize = 4;
        const FILL: u64 = 100;
        let mut m = MshrFile::new(CAP);
        let mut now = Cycles::ZERO;
        for &(line_sel, advance) in &ops {
            now += Cycles::new(advance);
            let line = LineAddr::of(PhysAddr::new(line_sel * 64));
            prop_assert!(m.in_flight(now) <= CAP, "over-committed file");
            match m.probe(line, now) {
                MshrLookup::Coalesced(done) => {
                    // Merges only onto fills still in flight.
                    prop_assert!(done > now);
                }
                MshrLookup::Free => {
                    m.allocate(line, now, now + Cycles::new(FILL));
                    prop_assert!(m.in_flight(now) <= CAP);
                }
                MshrLookup::Full(free_at) => {
                    prop_assert!(free_at > now, "Full must name a future time");
                    prop_assert_eq!(m.in_flight(now), CAP);
                    // Waiting out the named time always makes progress.
                    match m.probe(line, free_at) {
                        MshrLookup::Full(_) => prop_assert!(false, "no progress at free_at"),
                        MshrLookup::Coalesced(done) => prop_assert!(done > free_at),
                        MshrLookup::Free => {
                            m.allocate(line, free_at, free_at + Cycles::new(FILL));
                        }
                    }
                    now = free_at;
                }
            }
        }
    }

    /// Inclusive invariant: after every step of the demand-fill /
    /// back-invalidate protocol (the machine's flow, replayed here), no
    /// line is resident in the private L1 while absent from the shared
    /// L3.
    #[test]
    fn inclusive_l3_always_covers_the_l1(ops in vec((0u64..96, prop::bool::ANY), 1..300)) {
        let mut l1 = prop_l1();
        let mut l3 = prop_l3(InclusionPolicy::Inclusive);
        let mut now = Cycles::ZERO;
        for &(sel, is_store) in &ops {
            now += Cycles::new(7);
            let addr = line_of(sel);
            let rw = if is_store { RwKind::Write } else { RwKind::Read };
            if !l1.lookup(addr, rw, AccessClass::Data).is_hit() {
                let look = l3.access(addr, RwKind::Read, AccessClass::Data, now);
                if let Some(slot) = look.slot {
                    // Demand fill installs in the shared level too; its
                    // victim back-invalidates every private copy (so the
                    // private installs below may find their slots stale).
                    if let Some(victim) = l3.install(slot, addr, AccessClass::Data, Asid::ZERO, false) {
                        let bi = l1.back_invalidate(victim.addr);
                        if bi.present {
                            l3.note_back_invalidation();
                        }
                        if bi.dirty && l3.probe(victim.addr) {
                            prop_assert!(false, "back-invalidated line still shared-resident");
                        }
                    }
                }
                // Private installs, level by level: outer dirty victims
                // update the L3 copy.
                let outer = l1.depth() - 1;
                for level in 0..l1.depth() {
                    let victim = l1.install(level, addr, AccessClass::Data, is_store);
                    if let Some(v) = victim.filter(|v| level == outer && v.dirty) {
                        let _ = l3.accept_writeback(v.addr);
                    }
                }
            }
            // The invariant, checked over the whole pool every step.
            for sel in 0..48u64 {
                let a = line_of(sel);
                prop_assert!(
                    !l1.probe(a) || l3.probe(a),
                    "inclusion violated at {:#x}",
                    a.as_u64()
                );
            }
        }
    }

    /// Exclusive invariant: a line is never resident in the private L1
    /// and the shared L3 at once — demand fills bypass the L3, private
    /// victims feed it, hits extract.
    #[test]
    fn exclusive_l3_never_duplicates_the_l1(ops in vec((0u64..96, prop::bool::ANY), 1..300)) {
        let mut l1 = prop_l1();
        let mut l3 = prop_l3(InclusionPolicy::Exclusive);
        let mut now = Cycles::ZERO;
        for &(sel, is_store) in &ops {
            now += Cycles::new(7);
            let addr = line_of(sel);
            let rw = if is_store { RwKind::Write } else { RwKind::Read };
            if !l1.lookup(addr, rw, AccessClass::Data).is_hit() {
                let look = l3.access(addr, RwKind::Read, AccessClass::Data, now);
                // Hit or miss, the line ends up (only) in the private L1;
                // an exclusive hit extracted it from the L3.
                let outer = l1.depth() - 1;
                for level in 0..l1.depth() {
                    let victim = l1.install(level, addr, AccessClass::Data, is_store || look.dirty);
                    if let Some(v) = victim.filter(|_| level == outer) {
                        // The departing line, clean or dirty, fills the
                        // exclusive L3 (its own victims just drop here —
                        // memory is not modelled in this harness).
                        let _ = l3.fill(v.addr, v.class, Asid::ZERO, v.dirty);
                    }
                }
            }
            for sel in 0..48u64 {
                let a = line_of(sel);
                prop_assert!(
                    !(l1.probe(a) && l3.probe(a)),
                    "exclusivity violated at {:#x}",
                    a.as_u64()
                );
            }
        }
    }

    /// Occupancy-by-ASID is a partition of the live lines: it sums to
    /// them after any fill/access/writeback stream, and live lines never
    /// exceed capacity.
    #[test]
    fn shared_occupancy_partitions_live_lines(
        ops in vec((0u64..96, 0u16..4, 0u8..3), 1..300)
    ) {
        let mut l3 = prop_l3(InclusionPolicy::Inclusive);
        let mut now = Cycles::ZERO;
        for &(sel, asid, kind) in &ops {
            now += Cycles::new(3);
            let addr = line_of(sel);
            match kind {
                0 => { let _ = l3.fill(addr, AccessClass::Data, Asid(asid), asid % 2 == 0); }
                1 => { let _ = l3.access(addr, RwKind::Read, AccessClass::Data, now); }
                _ => { let _ = l3.accept_writeback(addr); }
            }
            let occupancy = l3.occupancy_by_asid();
            let total: u64 = occupancy.iter().map(|(_, n)| n).sum();
            prop_assert_eq!(total, l3.live_lines(), "occupancy must sum to live lines");
            prop_assert!(l3.live_lines() <= 16, "capacity is 16 lines");
            // Sorted, duplicate-free ASIDs.
            for pair in occupancy.windows(2) {
                prop_assert!(pair[0].0 < pair[1].0);
            }
        }
    }

    /// Bank mapping is a partition of the sets: every set maps to
    /// exactly one bank, banks split the sets evenly, and addresses
    /// sharing a set share a bank.
    #[test]
    fn shared_bank_mapping_partitions_sets(
        sets_pow in 3u32..7, banks_pow in 0u32..4, addrs in vec(0u64..1_000_000, 1..50)
    ) {
        let sets = 1u64 << sets_pow;
        let banks = (1u32 << banks_pow).min(sets as u32);
        let cache = SharedCache::new(SharedConfig {
            name: "prop-banks",
            size_bytes: sets * 2 * 64, // 2 ways
            ways: 2,
            banks,
            line_bytes: 64,
            latency: Cycles::new(5),
            bank_period: Cycles::new(1),
            policy: InclusionPolicy::Inclusive,
            mshrs_per_bank: 1,
        });
        let mut per_bank = vec![0u64; banks as usize];
        for set in 0..cache.sets() {
            let bank = cache.bank_of_set(set);
            prop_assert!(bank < banks as usize, "bank out of range");
            per_bank[bank] += 1;
        }
        for &count in &per_bank {
            prop_assert_eq!(count, sets / u64::from(banks), "uneven bank split");
        }
        for &addr in &addrs {
            let a = PhysAddr::new(addr & !63);
            // A line and its set-alias (one full stride away) land on
            // the same bank; the bank is stable across repeated queries.
            let alias = PhysAddr::new(a.as_u64() + sets * 64);
            prop_assert_eq!(cache.bank_of(a), cache.bank_of(alias));
            prop_assert_eq!(cache.bank_of(a), cache.bank_of(a));
        }
    }

    /// Writebacks only ever emerge for lines that were written.
    #[test]
    fn writebacks_require_stores(ops in vec((0u64..4_096, prop::bool::ANY), 1..300)) {
        let mut cache = SetAssocCache::new(tiny_config());
        let mut written: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for &(addr, is_store) in &ops {
            let a = PhysAddr::new(addr & !63);
            let rw = if is_store { RwKind::Write } else { RwKind::Read };
            if is_store {
                written.insert(a.as_u64());
            }
            if let Access::Miss(slot) = cache.access(a, rw, AccessClass::Data) {
                let victim = cache.install(slot, a, AccessClass::Data, Asid::ZERO, is_store);
                if let Some(wb) = victim.filter(|v| v.dirty) {
                    prop_assert!(
                        written.contains(&wb.addr.as_u64()),
                        "writeback of never-written line {:#x}",
                        wb.addr.as_u64()
                    );
                }
            }
        }
    }
}
