//! DLRM sparse-length-sum (DLRM): embedding-table gathers.
//!
//! Each inference batch gathers a few dozen embedding rows selected by
//! skewed categorical features. A row read is a short *sequential* burst
//! (256 B), but consecutive rows are far apart — a gather-scatter pattern
//! with high TLB pressure and moderate cache-line locality, followed by a
//! dense compute phase (the MLP).

use crate::region::RegionLayout;
use crate::sampler::{hot_cold, rng};
use crate::spec::{TraceParams, WorkloadId};
use crate::Trace;
use ndp_types::Op;
use rand::rngs::SmallRng;
use std::collections::VecDeque;

/// Embedding rows gathered per batch (sum of sparse feature lookups).
const GATHERS_PER_BATCH: u64 = 32;
/// Bytes per embedding row.
const ROW_BYTES: u64 = 256;
/// Sequential 8 B reads issued per row (spanning its cache lines).
const READS_PER_ROW: u64 = 4;
/// MLP compute cycles per batch.
const COMPUTE_PER_BATCH: u32 = 96;

struct DlrmGen {
    emb: crate::region::Region,
    out: crate::region::Region,
    rows: u64,
    rng: SmallRng,
    batch: u64,
    buf: VecDeque<Op>,
}

impl DlrmGen {
    fn gen_batch(&mut self) {
        for _ in 0..GATHERS_PER_BATCH {
            // Categorical features follow a strong popularity skew:
            // popular items form a hot set, the long tail is uniform.
            let row = hot_cold(&mut self.rng, self.rows);
            let base = row * ROW_BYTES;
            for r in 0..READS_PER_ROW {
                self.buf.push_back(Op::Load(
                    self.emb.at(base + r * (ROW_BYTES / READS_PER_ROW)),
                ));
            }
        }
        self.buf.push_back(Op::Compute(COMPUTE_PER_BATCH));
        // Write the pooled output vector (sequential).
        let out_slot = self.batch % self.out.elems(64).max(1);
        self.buf.push_back(Op::Store(self.out.elem(out_slot, 64)));
        self.batch += 1;
    }
}

impl Iterator for DlrmGen {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        while self.buf.is_empty() {
            self.gen_batch();
        }
        self.buf.pop_front()
    }
}

/// The virtual regions the DLRM trace touches.
#[must_use]
pub fn regions(params: TraceParams) -> Vec<crate::region::Region> {
    let footprint = params.footprint_for(WorkloadId::Dlrm);
    let mut layout = RegionLayout::new();
    let out_bytes = (footprint / 64).max(4096);
    let emb = layout.carve(footprint - out_bytes);
    let out = layout.carve(out_bytes);
    vec![emb, out]
}

/// Builds the DLRM trace.
#[must_use]
pub fn trace(params: TraceParams) -> Trace {
    let footprint = params.footprint_for(WorkloadId::Dlrm);
    let mut layout = RegionLayout::new();
    let out_bytes = (footprint / 64).max(4096);
    let emb = layout.carve(footprint - out_bytes);
    let out = layout.carve(out_bytes);
    let rows = (emb.bytes / ROW_BYTES).max(1);
    Box::new(DlrmGen {
        emb,
        out,
        rows,
        rng: rng(params.seed ^ 0x444c_524d),
        batch: 0,
        buf: VecDeque::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_types::FastSet;

    #[test]
    fn batches_gather_then_compute_then_store() {
        let params = TraceParams::new(0).with_footprint(64 << 20);
        let ops: Vec<Op> = trace(params).take(200).collect();
        let loads = ops.iter().filter(|o| matches!(o, Op::Load(_))).count();
        let stores = ops.iter().filter(|o| matches!(o, Op::Store(_))).count();
        let computes = ops.iter().filter(|o| !o.is_memory()).count();
        assert!(loads > 100);
        assert!(stores >= 1);
        assert!(computes >= 1);
    }

    #[test]
    fn rows_read_as_sequential_bursts() {
        let params = TraceParams::new(1).with_footprint(64 << 20);
        let ops: Vec<Op> = trace(params).take(8).collect();
        // First four loads cover one row at 64 B strides.
        let a0 = ops[0].addr().unwrap().as_u64();
        for (i, op) in ops.iter().take(4).enumerate() {
            assert_eq!(op.addr().unwrap().as_u64(), a0 + i as u64 * 64);
        }
    }

    #[test]
    fn gathers_are_skewed_but_wide() {
        let params = TraceParams::new(2).with_footprint(512 << 20);
        let pages: FastSet<u64> = trace(params)
            .take(60_000)
            .filter_map(|o| o.addr())
            .map(|a| a.vpn().as_u64())
            .collect();
        assert!(pages.len() > 300, "{} pages", pages.len());
    }
}
