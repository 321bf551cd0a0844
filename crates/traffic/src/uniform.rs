//! Uniform-random traffic.
//!
//! "We also evaluate the DBA enabled d-HetPNoC with a uniform-random traffic
//! pattern where all communication requires the same uniform bandwidth and
//! all cores communicate with all other cores with equal data rate"
//! (Section 3.4.1). Every cluster pair is served by the same medium-high
//! bandwidth class (whose wavelength requirement equals the Firefly channel
//! width), so the Firefly baseline and d-HetPNoC converge to the same
//! configuration — the sanity anchor of Figure 3-3.

use crate::pattern::PacketShape;
use pnoc_noc::ids::{ClusterId, CoreId};
use pnoc_noc::packet::{BandwidthClass, PacketDescriptor};
use pnoc_noc::topology::ClusterTopology;
use pnoc_noc::traffic_model::{OfferedLoad, TrafficModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Uniform-random traffic over all cores.
#[derive(Debug, Clone)]
pub struct UniformRandomTraffic {
    topology: ClusterTopology,
    shape: PacketShape,
    load: OfferedLoad,
    rng: StdRng,
}

impl UniformRandomTraffic {
    /// Creates the generator.
    #[must_use]
    pub fn new(
        topology: ClusterTopology,
        shape: PacketShape,
        load: OfferedLoad,
        seed: u64,
    ) -> Self {
        Self {
            topology,
            shape,
            load,
            rng: StdRng::seed_from_u64(seed ^ 0x556e_6946),
        }
    }

    /// The bandwidth class every flow uses (medium-high: the class whose
    /// wavelength requirement equals the uniform Firefly channel width).
    #[must_use]
    pub(crate) fn uniform_class() -> BandwidthClass {
        BandwidthClass::MediumHigh
    }
}

impl TrafficModel for UniformRandomTraffic {
    fn next_packet(&mut self, cycle: u64, src: CoreId) -> Option<PacketDescriptor> {
        if !self.rng.gen_bool(self.load.value()) {
            return None;
        }
        let num_cores = self.topology.num_cores();
        let mut dst = CoreId(self.rng.gen_range(0..num_cores));
        while dst == src {
            dst = CoreId(self.rng.gen_range(0..num_cores));
        }
        Some(PacketDescriptor {
            src,
            dst,
            num_flits: self.shape.num_flits,
            flit_bits: self.shape.flit_bits,
            class: Self::uniform_class(),
            created_cycle: cycle,
        })
    }

    fn demand_class(&self, _src: ClusterId, _dst: ClusterId) -> BandwidthClass {
        Self::uniform_class()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(load: f64) -> UniformRandomTraffic {
        UniformRandomTraffic::new(
            ClusterTopology::paper_default(),
            PacketShape::new(64, 32),
            OfferedLoad::new(load),
            7,
        )
    }

    #[test]
    fn injection_rate_tracks_offered_load() {
        let mut m = model(0.1);
        let mut generated = 0;
        let cycles = 20_000;
        for cycle in 0..cycles {
            if m.next_packet(cycle, CoreId(3)).is_some() {
                generated += 1;
            }
        }
        let rate = generated as f64 / cycles as f64;
        assert!((rate - 0.1).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn destinations_cover_the_chip_and_never_self() {
        let mut m = model(1.0);
        let mut seen = [false; 64];
        for cycle in 0..5_000 {
            let p = m.next_packet(cycle, CoreId(10)).unwrap();
            assert_ne!(p.dst, CoreId(10));
            seen[p.dst.0] = true;
            assert_eq!(p.num_flits, 64);
            assert_eq!(p.class, BandwidthClass::MediumHigh);
        }
        let covered = seen.iter().filter(|&&b| b).count();
        assert!(covered >= 60, "only {covered} destinations seen");
    }

    #[test]
    fn volume_shares_are_equal_across_destinations() {
        // Every other core is equally likely: each other cluster receives
        // 4/63 of a source's packets, the source's own cluster 3/63.
        let topology = ClusterTopology::paper_default();
        let mut m = model(1.0);
        let src = CoreId(9);
        let packets = 63_000;
        let mut per_cluster = [0usize; 16];
        for cycle in 0..packets {
            let p = m.next_packet(cycle, src).expect("load 1 always injects");
            per_cluster[topology.cluster_of(p.dst).0] += 1;
        }
        for (cluster, &count) in per_cluster.iter().enumerate() {
            let cores = if cluster == topology.cluster_of(src).0 {
                3.0
            } else {
                4.0
            };
            let share = count as f64 / packets as f64;
            assert!(
                (share - cores / 63.0).abs() < 0.01,
                "cluster {cluster}: share {share}"
            );
        }
    }

    #[test]
    fn the_configured_load_gates_injection() {
        assert!(model(0.0).next_packet(0, CoreId(0)).is_none());
        let mut m = model(1.0);
        assert!(m.next_packet(1, CoreId(0)).is_some());
    }
}
