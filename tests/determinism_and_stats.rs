//! Determinism and statistics-consistency integration tests: same seed ⇒
//! bit-identical reports; different seeds ⇒ different timings; internal
//! counters must reconcile.

use ndp_sim::parallel::{par_map, par_map_threads};
use ndp_sim::spec::{run_sweep, SweepSpec};
use ndp_sim::{Machine, RunReport, SimConfig, SystemKind};
use ndp_workloads::WorkloadId;
use ndpage::Mechanism;

fn cfg(seed: u64) -> SimConfig {
    SimConfig::quick(SystemKind::Ndp, 2, Mechanism::Radix, WorkloadId::Bfs).with_seed(seed)
}

#[test]
fn same_seed_is_bit_identical() {
    let a = Machine::new(cfg(7)).run();
    let b = Machine::new(cfg(7)).run();
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.translation_cycles, b.translation_cycles);
    assert_eq!(a.ptw.sum, b.ptw.sum);
    assert_eq!(a.tlb_l1, b.tlb_l1);
    assert_eq!(a.mem_traffic.total(), b.mem_traffic.total());
    assert_eq!(a.faults, b.faults);
}

#[test]
fn different_seed_changes_timing() {
    let a = Machine::new(cfg(7)).run();
    let b = Machine::new(cfg(8)).run();
    assert_ne!(a.total_cycles, b.total_cycles);
}

#[test]
fn counters_reconcile() {
    let r = Machine::new(cfg(3)).run();

    // Every op measured is either memory or compute.
    assert!(r.mem_ops <= r.ops);

    // Every L1 TLB miss probes the L2; L2 lookups can't exceed L1 misses.
    assert_eq!(
        r.tlb_l2.total(),
        r.tlb_l1.misses,
        "L2 TLB sees exactly the L1 misses"
    );

    // Every L2 TLB miss triggers exactly one walk.
    assert_eq!(r.ptw.count, r.tlb_l2.misses);

    // Cacheable-mechanism metadata L1 lookups can't exceed total PTE
    // fetches issued by walks.
    assert!(r.l1_metadata.total() >= r.mem_traffic.metadata);

    // The wall-clock bounds the mean.
    assert!(r.total_cycles.as_f64() + 0.5 >= r.avg_core_cycles);

    // Translation cycles fit in the total.
    assert!(
        r.translation_cycles as f64 <= r.avg_core_cycles * f64::from(r.cores) + 1.0,
        "translation {} vs total {}",
        r.translation_cycles,
        r.avg_core_cycles * f64::from(r.cores)
    );
}

#[test]
fn zero_warmup_measures_from_cold() {
    let mut c = cfg(1);
    c.warmup_ops = 0;
    c.measure_ops = 5_000;
    let r = Machine::new(c).run();
    assert_eq!(r.ops, 10_000); // 2 cores x 5000
    assert!(r.ptw.count > 0);
}

#[test]
fn per_core_seeds_differ_within_a_run() {
    // With 2 cores on the same workload, their streams must diverge —
    // detectable via per-core time imbalance over a short run.
    let r = Machine::new(cfg(5)).run();
    // The slowest core defines total; the average must differ from it
    // unless both cores were identical (vanishingly unlikely with
    // distinct seeds).
    assert!(
        (r.total_cycles.as_f64() - r.avg_core_cycles).abs() > 1.0,
        "cores should not be in lockstep"
    );
}

/// A small but heterogeneous batch: three mechanisms, two workloads, two
/// core counts.
fn batch_cfgs() -> Vec<SimConfig> {
    let mut cfgs = Vec::new();
    for (mechanism, workload, cores, seed) in [
        (Mechanism::Radix, WorkloadId::Rnd, 1, 7),
        (Mechanism::NdPage, WorkloadId::Rnd, 2, 8),
        (Mechanism::HugePage, WorkloadId::Bfs, 1, 9),
        (Mechanism::Ech, WorkloadId::Bfs, 2, 10),
        (Mechanism::NdPage, WorkloadId::Bfs, 1, 11),
        (Mechanism::Ideal, WorkloadId::Rnd, 2, 12),
    ] {
        let mut c = SimConfig::quick(SystemKind::Ndp, cores, mechanism, workload).with_seed(seed);
        c.warmup_ops = 1_000;
        c.measure_ops = 3_000;
        c.footprint_override = Some(256 << 20);
        cfgs.push(c);
    }
    cfgs
}

/// Runs a batch on the parallel driver, reports in input order.
fn run_all(cfgs: Vec<SimConfig>) -> Vec<RunReport> {
    par_map(cfgs, |c| Machine::new(c).run())
}

#[test]
fn parallel_batch_is_bit_identical_to_serial() {
    // Serial reference: plain in-order loop, no parallel machinery.
    let serial: Vec<u64> = batch_cfgs()
        .into_iter()
        .map(|c| Machine::new(c).run().fingerprint())
        .collect();

    // The fan-out path the sweep engine uses (however many threads this
    // host offers)...
    let driver: Vec<u64> = run_all(batch_cfgs())
        .into_iter()
        .map(|r| r.fingerprint())
        .collect();
    assert_eq!(serial, driver, "par_map must preserve results and order");

    // ...and an explicitly multi-threaded run, so the threaded path is
    // exercised even on single-core CI hosts.
    let threaded: Vec<u64> = par_map_threads(4, batch_cfgs(), |c| Machine::new(c).run())
        .into_iter()
        .map(|r| r.fingerprint())
        .collect();
    assert_eq!(serial, threaded, "4 worker threads, same bits, same order");
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let base = SimConfig::quick(SystemKind::Ndp, 1, Mechanism::Radix, WorkloadId::Rnd)
        .with_ops(1_000, 2_000)
        .with_footprint(256 << 20);
    let sizes = [8usize, 64];

    // Serial reference for every sweep point, built by hand.
    let mut serial = Vec::new();
    for &entries in &sizes {
        for mechanism in [Mechanism::Radix, Mechanism::NdPage] {
            let mut c = SimConfig::new(SystemKind::Ndp, 4, mechanism, WorkloadId::Rnd);
            c.warmup_ops = base.warmup_ops;
            c.measure_ops = base.measure_ops;
            c.footprint_override = base.footprint_override;
            c.seed = base.seed;
            c.pwc_entries = Some(entries);
            serial.push(Machine::new(c).run().fingerprint());
        }
    }

    let mut spec_base = base.clone();
    spec_base.cores = 4;
    let sweep = run_sweep(
        &SweepSpec::new(spec_base)
            .axis("pwc_entries", &sizes)
            .axis("mechanism", &["radix", "ndpage"]),
    )
    .unwrap();
    let parallel: Vec<u64> = sweep.rows.iter().map(|r| r.report.fingerprint()).collect();
    assert_eq!(
        serial, parallel,
        "sweep points must match serial runs bit for bit"
    );
    assert_eq!(sweep.rows[0].coord("pwc_entries"), Some("8"));
    assert_eq!(sweep.rows[2].coord("pwc_entries"), Some("64"));
}

/// The first configuration combining all three post-seed subsystems:
/// shared last-level resources (banked L3 + vault buffers), the
/// non-blocking pipeline (`--window 8`) and multiprogramming
/// (`--procs 2`).
fn combined_cfgs() -> Vec<SimConfig> {
    let mut cfgs = Vec::new();
    for (mechanism, workload, vault_kb, seed) in [
        (Mechanism::Radix, WorkloadId::Rnd, 0, 21),
        (Mechanism::NdPage, WorkloadId::Rnd, 128, 22),
        (Mechanism::Radix, WorkloadId::Bfs, 128, 23),
        (Mechanism::NdPage, WorkloadId::Bfs, 0, 24),
    ] {
        let mut c = SimConfig::quick(SystemKind::Ndp, 2, mechanism, workload)
            .with_seed(seed)
            .with_procs(2)
            .with_quantum(1_000)
            .with_l3(512)
            .with_vault_buffer(vault_kb)
            .with_window(8)
            .with_mshrs(8);
        c.warmup_ops = 1_000;
        c.measure_ops = 3_000;
        c.footprint_override = Some(256 << 20);
        cfgs.push(c);
    }
    cfgs
}

#[test]
fn parallel_driver_is_bit_identical_with_shared_llc_windowed_multiprogrammed() {
    // Serial reference first: plain in-order loop.
    let serial: Vec<u64> = combined_cfgs()
        .into_iter()
        .map(|c| Machine::new(c).run().fingerprint())
        .collect();

    // The driver fan-out path, then an explicitly 4-threaded run so the
    // threaded schedule is exercised even on single-core CI hosts.
    let driver: Vec<u64> = run_all(combined_cfgs())
        .into_iter()
        .map(|r| r.fingerprint())
        .collect();
    assert_eq!(
        serial, driver,
        "par_map must stay bit-identical with L3 + window 8 + 2 procs"
    );
    let threaded: Vec<u64> = par_map_threads(4, combined_cfgs(), |c| Machine::new(c).run())
        .into_iter()
        .map(|r| r.fingerprint())
        .collect();
    assert_eq!(serial, threaded, "4 worker threads, same bits, same order");

    // The runs genuinely combined the three subsystems.
    for report in run_all(combined_cfgs()) {
        assert_eq!(report.mlp_window, 8);
        assert_eq!(report.procs_per_core, 2);
        let l3 = report.l3.as_ref().expect("shared L3 enabled");
        assert!(l3.total().total() > 0, "the L3 was exercised");
        assert!(report.sched.context_switches > 0);
        assert!(report.mlp.inflight_latency_cycles > 0);
    }
}

#[test]
fn ideal_reports_are_clean() {
    let r = Machine::new(SimConfig::quick(
        SystemKind::Ndp,
        1,
        Mechanism::Ideal,
        WorkloadId::Xs,
    ))
    .run();
    assert_eq!(r.translation_cycles, 0);
    assert_eq!(r.ptw.count, 0);
    assert_eq!(r.tlb_l1.total(), 0);
    assert_eq!(r.mem_traffic.metadata, 0);
    assert!(r.mem_traffic.data > 0);
}
