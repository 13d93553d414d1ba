//! The four pinned sweep digests: each folds (XOR) the `RunReport`
//! fingerprints of one fixed sweep, so any change to simulated behaviour
//! on that sweep moves its constant. They cover the blocking figure
//! engine plus a PWC-capacity sweep (`report`), the issue-window sweep
//! (`mlp`), the shared-LLC sweep (`llc`) and the quick-scale calibration
//! grid (`cal`). Every sweep runs on the parallel driver, so the pins
//! also witness thread-count independence.

use ndp_bench::calibration;
use ndp_sim::experiment::run_batch;
use ndp_sim::spec::{apply_knob, run_sweep};
use ndp_sim::sweeps::{mlp_sweep, pwc_size_sweep, shared_llc_sweep};
use ndp_sim::{SimConfig, SystemKind};
use ndp_workloads::WorkloadId;
use ndpage::Mechanism;

const REPORT_DIGEST: u64 = 14763835927449417281;
const MLP_DIGEST: u64 = 14920915780567262132;
const LLC_DIGEST: u64 = 14219396697369523494;
const CAL_DIGEST: u64 = 907243844365967685;

/// An NDP machine with 4 k warmup / 8 k measured ops over 512 MB.
fn base(cores: u32, workload: WorkloadId) -> SimConfig {
    SimConfig::new(SystemKind::Ndp, cores, Mechanism::Radix, workload)
        .with_ops(4_000, 8_000)
        .with_footprint(512 << 20)
}

/// Every mechanism on RND and BFS with 2 cores, then Radix vs NDPage at
/// three PWC capacities with 4 cores.
#[test]
fn report_digest_is_pinned() {
    let figure_cfgs: Vec<SimConfig> = [WorkloadId::Rnd, WorkloadId::Bfs]
        .iter()
        .flat_map(|&w| {
            Mechanism::ALL.iter().map(move |&m| {
                SimConfig::new(SystemKind::Ndp, 2, m, w)
                    .with_ops(4_000, 8_000)
                    .with_footprint(512 << 20)
            })
        })
        .collect();
    let mut digest = run_batch(figure_cfgs)
        .iter()
        .fold(0, |d, r| d ^ r.fingerprint());
    for point in pwc_size_sweep(WorkloadId::Rnd, &[16, 64, 256], &base(4, WorkloadId::Rnd)) {
        digest ^= point.radix.fingerprint() ^ point.ndpage.fingerprint();
    }
    assert_eq!(digest, REPORT_DIGEST);
}

/// Radix vs NDPage on BFS at issue windows 1, 4 and 8 (window 1 is the
/// blocking engine).
#[test]
fn mlp_digest_is_pinned() {
    let digest = mlp_sweep(WorkloadId::Bfs, &[1, 4, 8], &base(4, WorkloadId::Bfs))
        .iter()
        .fold(0, |d, p| d ^ p.radix.fingerprint() ^ p.ndpage.fingerprint());
    assert_eq!(digest, MLP_DIGEST);
}

/// Radix vs NDPage co-running on BFS under a 512 KB and a 4 MB shared L3.
#[test]
fn llc_digest_is_pinned() {
    let digest = shared_llc_sweep(WorkloadId::Bfs, &[512, 4096], &base(2, WorkloadId::Bfs))
        .iter()
        .fold(0, |d, p| d ^ p.radix.fingerprint() ^ p.ndpage.fingerprint());
    assert_eq!(digest, LLC_DIGEST);
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
    let digest = run_sweep(&spec)
        .expect("calibration sweep")
        .rows
        .iter()
        .fold(0, |d, r| d ^ r.report.fingerprint());
    assert_eq!(digest, CAL_DIGEST);
}
