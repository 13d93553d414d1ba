//! Mesh interconnect model (Table I: mesh, 4-cycle hop latency, 512-bit
//! links).
//!
//! NDP cores sit in the logic layer directly under the DRAM stack, so their
//! path to a memory channel is short (one vertical hop plus a little mesh
//! distance). CPU cores must additionally cross the off-chip interface,
//! which adds a fixed serialisation + SerDes latency both ways. This is the
//! structural reason a *cache-missing* NDP access is cheap while a
//! cache-missing CPU access is not — and why NDP systems feel page-table
//! walks so acutely once their single cache level fails them.

use ndp_types::{CoreId, Cycles};

/// A 2-D mesh connecting cores to memory-channel endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshNoc {
    /// Mesh side length (tiles per row); cores fill row-major.
    pub width: u32,
    /// Per-hop router+link latency (Table I: 4 cycles).
    pub hop_latency: Cycles,
    /// Extra one-way latency for leaving the package (0 for NDP logic
    /// layer; >0 for an off-chip CPU memory path).
    pub off_chip_penalty: Cycles,
}

impl MeshNoc {
    /// Mesh sized for `cores` tiles with the Table I hop latency and no
    /// off-chip penalty (the NDP configuration).
    #[must_use]
    pub fn ndp(cores: u32) -> Self {
        MeshNoc {
            width: mesh_width(cores),
            hop_latency: Cycles::new(4),
            off_chip_penalty: Cycles::ZERO,
        }
    }

    /// Mesh sized for `cores` tiles with an off-chip DDR path (the CPU
    /// configuration). The 60-cycle penalty models the on-chip network to
    /// the PHY plus off-package signalling at 2.6 GHz.
    #[must_use]
    pub fn cpu(cores: u32) -> Self {
        MeshNoc {
            width: mesh_width(cores),
            hop_latency: Cycles::new(4),
            off_chip_penalty: Cycles::new(60),
        }
    }

    /// Position of a core tile in the mesh (row-major placement).
    #[must_use]
    pub fn core_position(&self, core: CoreId) -> (u32, u32) {
        let idx = core.0 % (self.width * self.width).max(1);
        (idx % self.width, idx / self.width)
    }

    /// Position of a memory-channel endpoint. Channels sit along the top
    /// edge of the mesh, spread across columns.
    #[must_use]
    pub fn channel_position(&self, channel: u32) -> (u32, u32) {
        (channel % self.width, 0)
    }

    /// One-way latency from a core to a memory channel: Manhattan hops plus
    /// one ejection hop, plus any off-chip penalty.
    #[must_use]
    pub fn core_to_channel(&self, core: CoreId, channel: u32) -> Cycles {
        let (cx, cy) = self.core_position(core);
        let (mx, my) = self.channel_position(channel);
        let hops = cx.abs_diff(mx) + cy.abs_diff(my) + 1;
        Cycles::new(u64::from(hops) * self.hop_latency.as_u64()) + self.off_chip_penalty
    }
}

/// Smallest square mesh that fits `cores` tiles.
#[must_use]
fn mesh_width(cores: u32) -> u32 {
    let mut w = 1u32;
    while w * w < cores.max(1) {
        w += 1;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_fits_cores() {
        assert_eq!(mesh_width(1), 1);
        assert_eq!(mesh_width(4), 2);
        assert_eq!(mesh_width(5), 3);
        assert_eq!(mesh_width(8), 3);
        assert_eq!(mesh_width(0), 1);
    }

    #[test]
    fn ndp_single_core_one_hop() {
        let noc = MeshNoc::ndp(1);
        assert_eq!(noc.core_to_channel(CoreId(0), 0), Cycles::new(4));
    }

    #[test]
    fn cpu_pays_off_chip_both_ways() {
        let ndp = MeshNoc::ndp(4);
        let cpu = MeshNoc::cpu(4);
        // The machine adds the one-way latency to the request and again
        // to the reply.
        let n = ndp.core_to_channel(CoreId(0), 0);
        let c = cpu.core_to_channel(CoreId(0), 0);
        assert_eq!(c - n, Cycles::new(60));
    }

    #[test]
    fn distance_grows_with_separation() {
        let noc = MeshNoc::ndp(8); // 3x3 mesh
        let near = noc.core_to_channel(CoreId(0), 0); // (0,0) -> (0,0)
        let far = noc.core_to_channel(CoreId(8), 0); // (2,2) -> (0,0)
        assert!(far > near);
    }

    #[test]
    fn channels_spread_over_columns() {
        let noc = MeshNoc::ndp(4);
        assert_ne!(noc.channel_position(0), noc.channel_position(1));
        // Channel index wraps around the mesh width.
        assert_eq!(noc.channel_position(0), noc.channel_position(2));
    }

    #[test]
    fn core_ids_wrap_into_mesh() {
        let noc = MeshNoc::ndp(4);
        assert_eq!(noc.core_position(CoreId(0)), noc.core_position(CoreId(4)));
    }
}
