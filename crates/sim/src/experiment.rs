//! Experiment scale and the one figure that is not a timed sweep.
//!
//! Every timed figure is a [`crate::spec::SweepSpec`] grid (see the
//! `figures` binary); [`Scale`] sets the windows and footprints those
//! grids run at. Fig 8's page-table occupancy is a mapping analysis with
//! no timing, so it lives here as plain code.

use crate::config::SimConfig;
use crate::parallel::par_map;
use ndp_workloads::WorkloadId;

/// Scale of an experiment batch; controls windows and footprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small windows and footprints: CI-friendly (seconds).
    Quick,
    /// The default evaluation scale used for EXPERIMENTS.md.
    Full,
}

impl Scale {
    /// The scale's name, as printed in figure-table headers so output
    /// always says which scale produced it.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }

    /// Applies this scale to a config.
    #[must_use]
    pub fn apply(self, mut cfg: SimConfig) -> SimConfig {
        match self {
            Scale::Quick => {
                cfg.warmup_ops = 8_000;
                cfg.measure_ops = 15_000;
                cfg.footprint_override = Some(1 << 30);
            }
            Scale::Full => {
                cfg.warmup_ops = SimConfig::DEFAULT_WARMUP;
                cfg.measure_ops = SimConfig::DEFAULT_MEASURE;
                cfg.footprint_override = None;
            }
        }
        cfg
    }
}

/// Fig 8: radix page-table occupancy rates per workload.
/// Returns `(workload, PL1, PL2, PL3, combined PL2/PL1)` rates.
///
/// The paper measures occupancy on a system whose workloads have fully
/// initialised their multi-GB arrays, so every page of every region is
/// mapped. We reproduce that as a mapping analysis: build the radix table,
/// map the workload's regions page by page (as the init phase's first
/// touches would), and read the occupancy counters. No timing is involved,
/// so this uses the real Table II footprints even at `Scale::Quick`
/// (capped at 1 GB there to stay fast).
#[must_use]
pub fn occupancy_figure(
    scale: Scale,
    workloads: &[WorkloadId],
) -> Vec<(WorkloadId, f64, f64, f64, f64)> {
    use ndp_types::addr::PAGE_SIZE;
    use ndp_workloads::TraceParams;
    use ndpage::alloc::FrameAllocator;
    use ndpage::table::PageTable;
    use ndpage::tree::{Tree, RADIX};

    par_map(workloads.to_vec(), |w| {
        let footprint = match scale {
            Scale::Quick => w.table2_footprint().min(1 << 30),
            Scale::Full => w.table2_footprint(),
        };
        let params = TraceParams::new(0).with_footprint(footprint);
        // Bookkeeping-only allocator: sized generously so even the
        // 33 GB GEN footprint maps (no data is materialised).
        let mut alloc = FrameAllocator::new((footprint * 2).max(64 << 30));
        let mut table = Tree::new(&RADIX, &mut alloc);
        for region in w.regions(params) {
            let first = region.base.vpn();
            let pages = region.bytes.div_ceil(PAGE_SIZE);
            table.map_range(first, pages, &mut alloc);
        }
        let s = table.occupancy().fig8_series();
        (w, s.pl1, s.pl2, s.pl3, s.combined_pl2_pl1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_shows_full_bottom_levels() {
        let rows = occupancy_figure(Scale::Quick, &[WorkloadId::Rnd]);
        let (_, pl1, pl2, pl3, combined) = rows[0];
        assert!(pl1 > 0.9, "PL1 dense: {pl1}");
        assert!(pl2 > 0.9, "PL2 dense: {pl2}");
        assert!(pl3 < 0.05, "PL3 sparse: {pl3}");
        assert!(combined > 0.9, "merged level dense: {combined}");
    }
}
