//! The seven pinned sweep digests: each folds (XOR) the `RunReport`
//! fingerprints of one fixed sweep, so any change to simulated behaviour
//! on that sweep moves its constant. They cover the blocking figure
//! engine plus a PWC-capacity sweep (`report`), the issue-window sweep
//! (`mlp`), the shared-LLC sweep (`llc`), the quick-scale calibration
//! grid (`cal`), a windowed, co-running, shared-LLC grid whose DRAM
//! runs the overlap (reservation-list) scheduler (`windowed_shared`), and
//! Huge Page on memories small enough that 2 MB contiguity runs out
//! during premap, so most of each footprint takes THP-fallback faults
//! (`huge_fallback`), and ECH machines whose processes premap the same
//! regions (`ech_shared_layout`). Every sweep runs on the parallel
//! driver, so the pins also witness thread-count independence.

use ndp_bench::calibration;
use ndp_sim::spec::{apply_knob, mechanism_names, run_sweep, SweepSpec};
use ndp_sim::{SimConfig, SystemKind};
use ndp_workloads::WorkloadId;
use ndpage::Mechanism;

const REPORT_DIGEST: u64 = 14763835927449417281;
const MLP_DIGEST: u64 = 14920915780567262132;
const LLC_DIGEST: u64 = 14219396697369523494;
const CAL_DIGEST: u64 = 907243844365967685;
const WINDOWED_SHARED_DIGEST: u64 = 1664570759798941318;
const HUGE_FALLBACK_DIGEST: u64 = 14058462956231557024;
const ECH_SHARED_LAYOUT_DIGEST: u64 = 2805327607033760383;

/// An NDP Radix machine with 4 k warmup / 8 k measured ops over 512 MB.
fn base(cores: u32, workload: WorkloadId) -> SimConfig {
    SimConfig::new(SystemKind::Ndp, cores, Mechanism::Radix, workload)
        .with_ops(4_000, 8_000)
        .with_footprint(512 << 20)
}

fn digest(spec: &SweepSpec) -> u64 {
    run_sweep(spec).expect("pinned grid is valid").digest()
}

/// Every mechanism on RND and BFS with 2 cores, then Radix vs NDPage at
/// three PWC capacities with 4 cores.
#[test]
fn report_digest_is_pinned() {
    let figure = SweepSpec::new(base(2, WorkloadId::Rnd))
        .axis("workload", &[WorkloadId::Rnd, WorkloadId::Bfs])
        .axis("mechanism", &mechanism_names());
    let pwc = SweepSpec::new(base(4, WorkloadId::Rnd))
        .axis("pwc_entries", &[16, 64, 256])
        .axis("mechanism", &["radix", "ndpage"]);
    assert_eq!(digest(&figure) ^ digest(&pwc), REPORT_DIGEST);
}

/// Radix vs NDPage on BFS at issue windows 1, 4 and 8 (window 1 is the
/// blocking engine), MSHRs matched to the window.
#[test]
fn mlp_digest_is_pinned() {
    let spec = SweepSpec::new(base(4, WorkloadId::Bfs))
        .paired_axis(
            [1, 4, 8]
                .iter()
                .map(|w: &u32| {
                    vec![
                        ("mlp_window", w.to_string()),
                        ("mshrs_per_core", w.to_string()),
                    ]
                })
                .collect(),
        )
        .axis("mechanism", &["radix", "ndpage"]);
    assert_eq!(digest(&spec), MLP_DIGEST);
}

/// Radix vs NDPage co-running (2 procs/core, 2 k-op quantum) on BFS
/// under a 512 KB and a 4 MB shared L3.
#[test]
fn llc_digest_is_pinned() {
    let spec = SweepSpec::new(base(2, WorkloadId::Bfs).with_procs(2).with_quantum(2_000))
        .axis("l3_kb", &[512, 4096])
        .axis("mechanism", &["radix", "ndpage"]);
    assert_eq!(digest(&spec), LLC_DIGEST);
}

/// The `calibrate --quick` grid: RND, BFS and XS at 256 MB per core,
/// 2 k warmup / 6 k measured ops.
#[test]
fn cal_digest_is_pinned() {
    let mut cfg = SimConfig::cli_default();
    for (knob, value) in [
        ("footprint", "268435456"),
        ("measure_ops", "6000"),
        ("warmup_ops", "2000"),
    ] {
        apply_knob(&mut cfg, knob, value).expect("calibration base knob");
    }
    let spec = calibration::grid(cfg, &["RND", "BFS", "XS"]);
    assert_eq!(digest(&spec), CAL_DIGEST);
}

/// Radix vs NDPage on RND and BFS with an 8-deep issue window and 8
/// MSHRs, 2 tagged-TLB procs/core at a 2 k-op quantum, a 512 KB shared L3
/// and 128 KB vault buffers: overlap DRAM scheduling, the shared L3 and
/// co-running processes together, long enough for every bank's
/// reservation list to reach its cap.
#[test]
fn windowed_shared_digest_is_pinned() {
    let cfg = base(2, WorkloadId::Rnd)
        .with_procs(2)
        .with_quantum(2_000)
        .with_tlb_tagging(true)
        .with_window(8)
        .with_mshrs(8)
        .with_l3(512)
        .with_vault_buffer(128);
    let spec = SweepSpec::new(cfg)
        .axis("workload", &[WorkloadId::Rnd, WorkloadId::Bfs])
        .axis("mechanism", &["radix", "ndpage"]);
    assert_eq!(digest(&spec), WINDOWED_SHARED_DIGEST);
}

/// Huge Page at quick scale (1 GiB per core) on 1–3 GiB memories:
/// RND, BFS (two procs per core), XS and DLRM each exhaust the
/// contiguity pool partway through premap, so every row mixes 2 MB
/// faults with THP-fallback faults (pinned per row beside the digest).
#[test]
fn huge_fallback_digest_is_pinned() {
    // (workload, cores, procs per core, memory GiB, fallback faults)
    let rows: [(&str, u32, u32, u64, u64); 4] = [
        ("RND", 1, 1, 2, 26_624),
        ("BFS", 2, 2, 2, 813_168),
        ("XS", 4, 1, 3, 695_468),
        ("DLRM", 2, 1, 1, 406_528),
    ];
    let base = SimConfig::quick(SystemKind::Ndp, 1, Mechanism::HugePage, WorkloadId::Rnd)
        .with_ops(2_000, 6_000);
    let spec = SweepSpec::new(base).paired_axis(
        rows.iter()
            .map(|&(workload, cores, procs, gib, _)| {
                vec![
                    ("workload", workload.to_string()),
                    ("cores", cores.to_string()),
                    ("procs_per_core", procs.to_string()),
                    ("memory_capacity", (gib << 30).to_string()),
                ]
            })
            .collect(),
    );
    let result = run_sweep(&spec).expect("pinned grid is valid");
    let fallback: Vec<u64> = result
        .rows
        .iter()
        .map(|r| r.report.faults.fallback)
        .collect();
    assert_eq!(fallback, rows.map(|r| r.4));
    assert!(result.rows.iter().all(|r| r.report.faults.minor_2m > 0));
    assert_eq!(result.digest(), HUGE_FALLBACK_DIGEST);
}

/// ECH on RND (one region per process) and XS (two) with 1 core of 1
/// process, and with 4 cores of 2 processes each: eight tables premapped
/// over the same regions, whose frames, walk addresses and table sizes
/// must stay each table's own however their layouts are built. At 8 MiB
/// per process no table resizes, so every walk probes the ways its table
/// was built with; at 64 MiB every table resizes during premap.
#[test]
fn ech_shared_layout_digest_is_pinned() {
    let base =
        SimConfig::new(SystemKind::Ndp, 1, Mechanism::Ech, WorkloadId::Rnd).with_ops(2_000, 4_000);
    let spec = SweepSpec::new(base)
        .axis("footprint", &[8u64 << 20, 64 << 20])
        .axis("workload", &[WorkloadId::Rnd, WorkloadId::Xs])
        .paired_axis(
            [(1, 1), (4, 2)]
                .iter()
                .map(|&(cores, procs): &(u32, u32)| {
                    vec![
                        ("cores", cores.to_string()),
                        ("procs_per_core", procs.to_string()),
                    ]
                })
                .collect(),
        );
    assert_eq!(digest(&spec), ECH_SHARED_LAYOUT_DIGEST);
}
