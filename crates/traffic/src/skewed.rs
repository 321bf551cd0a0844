//! Skewed traffic (Table 3-1 / Table 3-2).
//!
//! Applications of four different bandwidth requirements share the chip. Each
//! (source cluster, destination cluster) pair is served by one application of
//! a fixed class; the *skew level* controls how much of the traffic volume is
//! carried by the high-bandwidth applications (50 % → 75 % → 90 % for
//! Skewed1 → Skewed2 → Skewed3). With increasing skew the uniformly
//! provisioned Firefly channels become insufficient for the flows that carry
//! most of the traffic, which is the effect the d-HetPNoC bandwidth
//! allocation exploits.

use crate::pattern::{ClassMatrix, PacketShape, SkewLevel};
use pnoc_noc::ids::{ClusterId, CoreId};
use pnoc_noc::packet::{BandwidthClass, PacketDescriptor};
use pnoc_noc::topology::ClusterTopology;
use pnoc_noc::traffic_model::{OfferedLoad, TrafficModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Skewed inter-cluster traffic.
#[derive(Debug, Clone)]
pub struct SkewedTraffic {
    topology: ClusterTopology,
    shape: PacketShape,
    skew: SkewLevel,
    classes: ClassMatrix,
    load: OfferedLoad,
    /// Relative injection intensity per source cluster (mean 1.0): clusters
    /// whose application mix is dominated by high-bandwidth, frequently
    /// communicating applications inject proportionally more traffic.
    intensity: Vec<f64>,
    rng: StdRng,
}

/// Computes per-cluster relative injection intensities from a class matrix
/// and a skew level: each cluster's weight is the sum of the communication
/// frequencies of its outgoing application flows, normalised to mean 1.
fn cluster_intensities(classes: &ClassMatrix, skew: SkewLevel) -> Vec<f64> {
    let n = classes.num_clusters();
    let mut weights: Vec<f64> = (0..n)
        .map(|s| {
            (0..n)
                .filter(|&d| d != s)
                .map(|d| skew.frequency(classes.class(ClusterId(s), ClusterId(d))))
                .sum()
        })
        .collect();
    let mean: f64 = weights.iter().sum::<f64>() / n as f64;
    if mean > 0.0 {
        for w in &mut weights {
            *w /= mean;
        }
    } else {
        weights.iter_mut().for_each(|w| *w = 1.0);
    }
    weights
}

impl SkewedTraffic {
    /// Creates a skewed traffic generator with a pseudo-random class
    /// assignment derived from `seed`.
    #[must_use]
    pub fn new(
        topology: ClusterTopology,
        shape: PacketShape,
        skew: SkewLevel,
        load: OfferedLoad,
        seed: u64,
    ) -> Self {
        let classes = ClassMatrix::random(topology.num_clusters(), seed);
        Self::with_classes(topology, shape, skew, classes, load, seed)
    }

    /// Creates a generator with an explicit class matrix (used by the
    /// hotspot and real-application generators and by tests).
    #[must_use]
    pub(crate) fn with_classes(
        topology: ClusterTopology,
        shape: PacketShape,
        skew: SkewLevel,
        classes: ClassMatrix,
        load: OfferedLoad,
        seed: u64,
    ) -> Self {
        let intensity = cluster_intensities(&classes, skew);
        Self {
            topology,
            shape,
            skew,
            classes,
            load,
            intensity,
            rng: StdRng::seed_from_u64(seed ^ 0x534b_4557),
        }
    }

    /// The skew level of this generator.
    #[must_use]
    pub fn skew(&self) -> SkewLevel {
        self.skew
    }

    /// Draws one destination core in cluster `dst_cluster` (uniformly over
    /// its cores).
    fn pick_core_in(&mut self, dst_cluster: ClusterId) -> CoreId {
        let local = self.rng.gen_range(0..self.topology.cores_per_cluster());
        dst_cluster.core(local, self.topology.cores_per_cluster())
    }
}

impl TrafficModel for SkewedTraffic {
    fn next_packet(&mut self, cycle: u64, src: CoreId) -> Option<PacketDescriptor> {
        let src_cluster = self.topology.cluster_of(src);
        let probability = (self.load.value() * self.intensity[src_cluster.0]).clamp(0.0, 1.0);
        if !self.rng.gen_bool(probability) {
            return None;
        }
        let dst_cluster = self
            .classes
            .sample_destination(src_cluster, self.skew, &mut self.rng);
        let dst = self.pick_core_in(dst_cluster);
        Some(PacketDescriptor {
            src,
            dst,
            num_flits: self.shape.num_flits,
            flit_bits: self.shape.flit_bits,
            class: self.classes.class(src_cluster, dst_cluster),
            created_cycle: cycle,
        })
    }

    fn offered_load(&self) -> OfferedLoad {
        self.load
    }

    fn demand_class(&self, src: ClusterId, dst: ClusterId) -> BandwidthClass {
        self.classes.class(src, dst)
    }

    fn volume_share(&self, src: ClusterId, dst: ClusterId) -> f64 {
        self.classes.volume_share(src, dst, self.skew)
    }

    fn source_intensity(&self, src: ClusterId) -> f64 {
        self.intensity[src.0]
    }

    fn name(&self) -> String {
        self.skew.label().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(skew: SkewLevel) -> SkewedTraffic {
        SkewedTraffic::new(
            ClusterTopology::paper_default(),
            PacketShape::new(64, 32),
            skew,
            OfferedLoad::new(1.0),
            99,
        )
    }

    #[test]
    fn generated_class_mix_follows_the_skew_frequencies() {
        // The class mix of a single run depends on the random class-matrix
        // realization (how many high-bandwidth pairs each source happens to
        // own), so average over several matrices to measure the ensemble
        // frequency the skew level prescribes.
        for skew in SkewLevel::ALL {
            let mut by_class = [0usize; 4];
            let mut total = 0usize;
            for seed in [7, 21, 99, 1234] {
                let mut m = SkewedTraffic::new(
                    ClusterTopology::paper_default(),
                    PacketShape::new(64, 32),
                    skew,
                    OfferedLoad::new(1.0),
                    seed,
                );
                for cycle in 0..30_000 {
                    // Rotate over source cores so every cluster contributes.
                    let src = CoreId((cycle as usize * 7) % 64);
                    if let Some(p) = m.next_packet(cycle, src) {
                        by_class[p.class.index()] += 1;
                        total += 1;
                    }
                }
            }
            assert!(total > 40_000, "too few packets generated");
            let high_fraction = by_class[3] as f64 / total as f64;
            let expected = skew.frequency(BandwidthClass::High);
            assert!(
                (high_fraction - expected).abs() < 0.07,
                "{skew:?}: high fraction {high_fraction}, expected {expected}"
            );
        }
    }

    #[test]
    fn packets_never_target_the_source_cluster() {
        let mut m = model(SkewLevel::Skewed2);
        for cycle in 0..5_000 {
            let src = CoreId(9);
            if let Some(p) = m.next_packet(cycle, src) {
                assert_ne!(
                    ClusterTopology::paper_default().cluster_of(p.dst),
                    ClusterTopology::paper_default().cluster_of(src)
                );
            }
        }
    }

    #[test]
    fn packet_class_matches_the_pair_class() {
        let mut m = model(SkewLevel::Skewed1);
        let topo = ClusterTopology::paper_default();
        for cycle in 0..2_000 {
            let src = CoreId(30);
            if let Some(p) = m.next_packet(cycle, src) {
                let expected = m.demand_class(topo.cluster_of(src), topo.cluster_of(p.dst));
                assert_eq!(p.class, expected);
            }
        }
    }

    #[test]
    fn source_intensities_average_to_one() {
        for skew in SkewLevel::ALL {
            let m = model(skew);
            let mean: f64 = (0..16)
                .map(|c| m.source_intensity(ClusterId(c)))
                .sum::<f64>()
                / 16.0;
            assert!((mean - 1.0).abs() < 1e-9, "{skew:?} mean intensity {mean}");
            assert!((0..16).all(|c| m.source_intensity(ClusterId(c)) > 0.0));
        }
    }

    #[test]
    fn higher_skew_spreads_source_intensities_wider() {
        let spread = |skew: SkewLevel| {
            let m = model(skew);
            let values: Vec<f64> = (0..16).map(|c| m.source_intensity(ClusterId(c))).collect();
            let max = values.iter().cloned().fold(f64::MIN, f64::max);
            let min = values.iter().cloned().fold(f64::MAX, f64::min);
            max - min
        };
        assert!(
            spread(SkewLevel::Skewed3) > spread(SkewLevel::Skewed1),
            "skewed-3 must have a wider intensity spread than skewed-1"
        );
    }

    #[test]
    fn volume_shares_are_consistent_with_demand_classes() {
        let m = model(SkewLevel::Skewed3);
        // High-class destinations receive strictly more volume than low-class
        // ones for the same source.
        let src = ClusterId(0);
        let mut high_share = None;
        let mut low_share = None;
        for d in 1..16 {
            let dst = ClusterId(d);
            match m.demand_class(src, dst) {
                BandwidthClass::High => high_share = Some(m.volume_share(src, dst)),
                BandwidthClass::Low => low_share = Some(m.volume_share(src, dst)),
                _ => {}
            }
        }
        if let (Some(h), Some(l)) = (high_share, low_share) {
            assert!(
                h > l,
                "high-class share {h} must exceed low-class share {l}"
            );
        }
    }

    #[test]
    fn name_reflects_skew_level() {
        assert_eq!(model(SkewLevel::Skewed1).name(), "skewed-1");
        assert_eq!(model(SkewLevel::Skewed3).name(), "skewed-3");
    }
}
