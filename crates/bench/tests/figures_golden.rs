//! Byte-for-byte pin of the `figures --quick` output: every simulated
//! table (Figs 4–8, the §V-C PWC hit rates, Fig 12, the mechanism
//! ablation and the six extension sweeps) plus the static tables. Any
//! change to simulated behaviour, grid order or rendering moves a byte.
//! fig13/fig14 share fig12's render path at 4 and 8 cores and are left
//! out to keep the test short.

use std::process::Command;

const GOLDEN: &str = include_str!("golden/figures_quick.txt");

fn figures_quick(jobs: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args([
            "--quick",
            "--jobs",
            jobs,
            "table1",
            "table2",
            "calibration",
            "fig4",
            "fig6",
            "fig7",
            "fig8",
            "pwc",
            "fig12",
            "ablation",
            "sweeps",
        ])
        .output()
        .expect("figures runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

#[test]
fn quick_figures_match_the_golden_text() {
    let got = figures_quick("2");
    if got != GOLDEN {
        let first = got
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "figures --quick output moved at line {}:\n  got:    {:?}\n  golden: {:?}",
            first + 1,
            got.lines().nth(first),
            GOLDEN.lines().nth(first)
        );
    }
}
