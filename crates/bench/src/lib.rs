#![forbid(unsafe_code)]
//! Benchmark & figure-regeneration harness for the NDPage reproduction.
//!
//! Two entry points:
//!
//! * the `figures` binary regenerates **every table and figure** of the
//!   paper's evaluation (`cargo run -p ndp-bench --release --bin figures --
//!   all`), printing the same rows/series the paper reports;
//! * the Criterion benches under `benches/` measure the library's own
//!   component performance (page-table ops, TLB/PWC/caches, DRAM,
//!   trace generation, end-to-end simulation).
//!
//! The formatting helpers here are shared by both.

pub mod calibration;
pub mod cli;
pub mod client;
pub mod serve;
pub mod supervisor;

/// Formats a fraction as a percentage with two decimals.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Formats a speedup with two decimals and an `x` suffix.
#[must_use]
pub fn spd(x: f64) -> String {
    format!("{x:.2}x")
}

/// Renders a simple aligned table (header row, dash rule, data rows)
/// to a string — the one table renderer behind both the live
/// simulation path and `figures --from-jsonl`, so their bytes can be
/// asserted identical.
#[must_use]
pub fn table_string(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|s| (*s).to_string()).collect();
    let mut out = String::new();
    out.push_str(&fmt_row(&head));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Prints a simple aligned table: header row then data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", table_string(headers, rows));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatters() {
        assert_eq!(pct(0.1234), "12.34%");
        assert_eq!(spd(1.5), "1.50x");
    }
}
