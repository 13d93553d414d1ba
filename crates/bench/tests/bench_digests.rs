//! The five pinned sweep digests: each folds (XOR) the `RunReport`
//! fingerprints of one fixed sweep, so any change to simulated behaviour
//! on that sweep moves its constant. They cover the blocking figure
//! engine plus a PWC-capacity sweep (`report`), the issue-window sweep
//! (`mlp`), the shared-LLC sweep (`llc`), the quick-scale calibration
//! grid (`cal`) and a windowed, co-running, shared-LLC grid whose DRAM
//! runs the overlap (reservation-list) scheduler (`windowed_shared`). Every sweep runs on the parallel driver, so the pins
//! also witness thread-count independence.

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
