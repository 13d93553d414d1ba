//! Graph analytics on a 4-core NDP system: runs the GraphBIG kernels the
//! paper's introduction motivates (BFS, PageRank, Connected Components)
//! under every translation mechanism and prints a Fig 13-style table.
//!
//! ```text
//! cargo run --release --example graph_analytics
//! ```

use ndp_sim::experiment::Scale;
use ndp_sim::spec::{mechanism_names, run_sweep, SweepSpec};
use ndp_sim::{SimConfig, SystemKind};
use ndp_workloads::WorkloadId;
use ndpage::Mechanism;

fn main() {
    let workloads = [WorkloadId::Bfs, WorkloadId::Pr, WorkloadId::Cc];
    println!("Speedup over Radix on a 4-core NDP system (quick scale):\n");
    println!(
        "{:<6} {:>8} {:>11} {:>8} {:>8}",
        "kernel", "ECH", "Huge Page", "NDPage", "Ideal"
    );

    // Every mechanism per kernel, Radix first as the baseline.
    let mechanisms = mechanism_names();
    let base = SimConfig::new(SystemKind::Ndp, 4, Mechanism::Radix, WorkloadId::Bfs);
    let spec = SweepSpec::new(Scale::Quick.apply(base))
        .axis("workload", &workloads)
        .axis("mechanism", &mechanisms);
    let result = run_sweep(&spec).expect("the grid is valid");
    for (_, runs) in result.pairs("mechanism") {
        let radix = &runs[0].report;
        let s: Vec<f64> = runs[1..]
            .iter()
            .map(|r| r.report.speedup_over(radix))
            .collect();
        println!(
            "{:<6} {:>7.2}x {:>10.2}x {:>7.2}x {:>7.2}x",
            radix.workload.name(),
            s[0],
            s[1],
            s[2],
            s[3]
        );
    }

    println!();
    for (mechanism, name) in Mechanism::ALL.iter().zip(&mechanisms).skip(1) {
        let gm = result.geomean_speedup("mechanism", "radix", name);
        println!("geomean {mechanism:<10} {gm:.3}x");
    }
    println!(
        "\nExpected shape (paper Fig 13): Ideal > NDPage > ECH > Radix,\n\
         with Huge Page fading as contiguity pressure mounts."
    );
}
