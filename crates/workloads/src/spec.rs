//! Workload identities, Table II metadata, and trace construction.

use crate::{dlrm, genomics, graph, gups, xsbench, Trace};
use std::fmt;

/// Benchmark suite of origin (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// GraphBIG graph analytics.
    GraphBig,
    /// XSBench Monte Carlo neutronics.
    XsBench,
    /// HPCC RandomAccess.
    Gups,
    /// Deep-learning recommendation (sparse-length sum).
    Dlrm,
    /// GenomicsBench k-mer counting.
    GenomicsBench,
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Suite::GraphBig => f.write_str("GraphBIG"),
            Suite::XsBench => f.write_str("XSBench"),
            Suite::Gups => f.write_str("GUPS"),
            Suite::Dlrm => f.write_str("DLRM"),
            Suite::GenomicsBench => f.write_str("GenomicsBench"),
        }
    }
}

/// The 11 evaluated workloads (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadId {
    /// Betweenness centrality.
    Bc,
    /// Breadth-first search.
    Bfs,
    /// Connected components.
    Cc,
    /// Graph coloring.
    Gc,
    /// PageRank.
    Pr,
    /// Triangle counting.
    Tc,
    /// Shortest path.
    Sp,
    /// XSBench particle simulation.
    Xs,
    /// GUPS random access.
    Rnd,
    /// DLRM sparse-length sum.
    Dlrm,
    /// k-mer counting.
    Gen,
}

impl WorkloadId {
    /// All 11 workloads in Table II order.
    pub const ALL: [WorkloadId; 11] = [
        WorkloadId::Bc,
        WorkloadId::Bfs,
        WorkloadId::Cc,
        WorkloadId::Gc,
        WorkloadId::Pr,
        WorkloadId::Tc,
        WorkloadId::Sp,
        WorkloadId::Xs,
        WorkloadId::Rnd,
        WorkloadId::Dlrm,
        WorkloadId::Gen,
    ];

    /// Short name used in the paper's figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::Bc => "BC",
            WorkloadId::Bfs => "BFS",
            WorkloadId::Cc => "CC",
            WorkloadId::Gc => "GC",
            WorkloadId::Pr => "PR",
            WorkloadId::Tc => "TC",
            WorkloadId::Sp => "SP",
            WorkloadId::Xs => "XS",
            WorkloadId::Rnd => "RND",
            WorkloadId::Dlrm => "DLRM",
            WorkloadId::Gen => "GEN",
        }
    }

    /// Suite of origin.
    #[must_use]
    pub fn suite(self) -> Suite {
        match self {
            WorkloadId::Bc
            | WorkloadId::Bfs
            | WorkloadId::Cc
            | WorkloadId::Gc
            | WorkloadId::Pr
            | WorkloadId::Tc
            | WorkloadId::Sp => Suite::GraphBig,
            WorkloadId::Xs => Suite::XsBench,
            WorkloadId::Rnd => Suite::Gups,
            WorkloadId::Dlrm => Suite::Dlrm,
            WorkloadId::Gen => Suite::GenomicsBench,
        }
    }

    /// Dataset size from Table II, in bytes.
    #[must_use]
    pub fn table2_footprint(self) -> u64 {
        match self.suite() {
            Suite::GraphBig => 8 << 30,
            Suite::XsBench => 9 << 30,
            Suite::Gups | Suite::Dlrm => 10 << 30,
            Suite::GenomicsBench => 33 << 30,
        }
    }

    /// The virtual-address regions this workload's trace stays within.
    #[must_use]
    pub fn regions(self, params: TraceParams) -> Vec<crate::region::Region> {
        match self {
            WorkloadId::Bc
            | WorkloadId::Bfs
            | WorkloadId::Cc
            | WorkloadId::Gc
            | WorkloadId::Pr
            | WorkloadId::Tc
            | WorkloadId::Sp => graph::regions(self, params),
            WorkloadId::Xs => xsbench::regions(params),
            WorkloadId::Rnd => gups::regions(params),
            WorkloadId::Dlrm => dlrm::regions(params),
            WorkloadId::Gen => genomics::regions(params),
        }
    }

    /// Builds this workload's operation stream.
    #[must_use]
    pub fn trace(self, params: TraceParams) -> Trace {
        match self {
            WorkloadId::Bc
            | WorkloadId::Bfs
            | WorkloadId::Cc
            | WorkloadId::Gc
            | WorkloadId::Pr
            | WorkloadId::Tc
            | WorkloadId::Sp => graph::trace(self, params),
            WorkloadId::Xs => xsbench::trace(params),
            WorkloadId::Rnd => gups::trace(params),
            WorkloadId::Dlrm => dlrm::trace(params),
            WorkloadId::Gen => genomics::trace(params),
        }
    }
}

impl fmt::Display for WorkloadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Parameters of one trace stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceParams {
    /// RNG seed; give each simulated core a distinct seed.
    pub seed: u64,
    /// Footprint override in bytes; `None` uses the Table II size.
    /// Experiments typically scale footprints down (recorded in
    /// EXPERIMENTS.md) to keep simulation turnaround practical — the
    /// translation-pressure *shape* is preserved because even scaled
    /// footprints dwarf TLB and PWC reach.
    pub footprint: Option<u64>,
}

impl TraceParams {
    /// Parameters with the Table II footprint.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        TraceParams {
            seed,
            footprint: None,
        }
    }

    /// Overrides the footprint.
    #[must_use]
    pub fn with_footprint(mut self, bytes: u64) -> Self {
        self.footprint = Some(bytes);
        self
    }

    /// The effective footprint for `workload`.
    #[must_use]
    pub fn footprint_for(&self, workload: WorkloadId) -> u64 {
        self.footprint
            .unwrap_or_else(|| workload.table2_footprint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eleven_workloads() {
        assert_eq!(WorkloadId::ALL.len(), 11);
        let graphbig = WorkloadId::ALL
            .iter()
            .filter(|w| w.suite() == Suite::GraphBig)
            .count();
        assert_eq!(graphbig, 7);
    }

    #[test]
    fn table2_sizes() {
        assert_eq!(WorkloadId::Bfs.table2_footprint(), 8 << 30);
        assert_eq!(WorkloadId::Xs.table2_footprint(), 9 << 30);
        assert_eq!(WorkloadId::Rnd.table2_footprint(), 10 << 30);
        assert_eq!(WorkloadId::Dlrm.table2_footprint(), 10 << 30);
        assert_eq!(WorkloadId::Gen.table2_footprint(), 33 << 30);
    }

    /// A machine premaps every region by planning its pages first and
    /// installing them later, which is sound only while no page is planned
    /// twice; Huge Page decides per 2 MB region. Every workload's regions
    /// come from `RegionLayout::carve`, so they are 2 MB-aligned and
    /// share no 2 MB region.
    #[test]
    fn regions_are_2mb_aligned_and_disjoint() {
        const HUGE: u64 = 2 << 20;
        for id in WorkloadId::ALL {
            for seed in [0, 1, 7] {
                for footprint in [Some(8 << 20), Some(256 << 20), None] {
                    let mut spans: Vec<(u64, u64)> = id
                        .regions(TraceParams { seed, footprint })
                        .iter()
                        .map(|r| {
                            let base = r.base.as_u64();
                            assert_eq!(base % HUGE, 0, "{id}: region at {base:#x}");
                            (base / HUGE, (base + r.bytes).div_ceil(HUGE))
                        })
                        .collect();
                    spans.sort_unstable();
                    assert!(
                        spans.windows(2).all(|w| w[0].1 <= w[1].0),
                        "{id} seed {seed} footprint {footprint:?}: {spans:?}"
                    );
                }
            }
        }
    }

    /// A machine maps exactly these regions before it runs and has no
    /// run-time page-fault path, so a trace address outside them would be
    /// an unmapped page.
    #[test]
    fn traces_stay_inside_their_regions() {
        for id in WorkloadId::ALL {
            for seed in [0, 1, 7] {
                for footprint in [Some(8 << 20), Some(256 << 20), None] {
                    let params = TraceParams { seed, footprint };
                    let regions = id.regions(params);
                    for (i, op) in id.trace(params).take(4_000).enumerate() {
                        let Some(addr) = op.addr() else { continue };
                        assert!(
                            regions.iter().any(|r| r.contains(addr)),
                            "{id} seed {seed} footprint {footprint:?}: op {i} at {addr} \
                             is outside {regions:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn footprint_override() {
        let p = TraceParams::new(0).with_footprint(1 << 20);
        assert_eq!(p.footprint_for(WorkloadId::Gen), 1 << 20);
        assert_eq!(TraceParams::new(0).footprint_for(WorkloadId::Gen), 33 << 30);
    }

    #[test]
    fn every_workload_produces_ops() {
        let params = TraceParams::new(42).with_footprint(64 << 20);
        for w in WorkloadId::ALL {
            let ops: Vec<_> = w.trace(params).take(50).collect();
            assert_eq!(ops.len(), 50, "{w}");
            assert!(ops.iter().any(|o| o.is_memory()), "{w} must touch memory");
        }
    }

    #[test]
    fn traces_are_deterministic() {
        let params = TraceParams::new(7).with_footprint(64 << 20);
        for w in WorkloadId::ALL {
            let a: Vec<_> = w.trace(params).take(200).collect();
            let b: Vec<_> = w.trace(params).take(200).collect();
            assert_eq!(a, b, "{w}");
        }
    }

    #[test]
    fn seeds_differentiate_streams() {
        let a: Vec<_> = WorkloadId::Rnd
            .trace(TraceParams::new(1).with_footprint(64 << 20))
            .take(100)
            .collect();
        let b: Vec<_> = WorkloadId::Rnd
            .trace(TraceParams::new(2).with_footprint(64 << 20))
            .take(100)
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn names_and_suites_display() {
        assert_eq!(WorkloadId::Dlrm.to_string(), "DLRM");
        assert_eq!(Suite::GraphBig.to_string(), "GraphBIG");
    }
}
