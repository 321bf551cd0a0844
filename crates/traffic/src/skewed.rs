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
//!
//! # One RNG word per core per cycle
//!
//! The engines poll every core every cycle, so the generator computes at
//! construction everything a poll would otherwise recompute: each source
//! cluster's Bernoulli threshold, the skew's four class weights and each
//! source row's weight total (16 bytes per cluster; no n × n table). A poll
//! is then one `next_u64`, a shift and a compare; only a hit walks the class
//! row, once.
//!
//! The stream is exactly the one `gen_bool` and the two-pass row walk
//! produced, bit for bit:
//!
//! * `gen_bool(p)` is `((x >> 11) as f64) * 2^-53 < p` for the drawn word
//!   `x`. Both sides are exact: `x >> 11` has at most 53 bits, and scaling
//!   by a power of two loses nothing, so the test is the integer
//!   `x >> 11` against the exact real `p * 2^53`. For an integer `k` and a
//!   real `y`, `k < y` iff `k < ceil(y)`, so the draw hits iff
//!   `x >> 11 < ceil(p * 2^53)`, the cached threshold. `p` is
//!   `load * intensity` clamped to `[0, 1]`, as `gen_bool` requires.
//! * A row's total is the same expression the walk summed per packet —
//!   every weight in cluster order, the source's own entry as `0.0` — so
//!   `gen_range(0.0..total)` sees the same bits.
//! * `cluster_intensities` reads the same totals instead of re-summing each
//!   row without the source's entry. Every class weight is positive, so the
//!   partial sums are positive (or a leading zero) and adding `+0.0` leaves
//!   their bits unchanged.

use crate::pattern::{ClassMatrix, PacketShape, SkewLevel};
use pnoc_noc::ids::{ClusterId, CoreId};
use pnoc_noc::packet::{BandwidthClass, PacketDescriptor};
use pnoc_noc::topology::ClusterTopology;
use pnoc_noc::traffic_model::{OfferedLoad, TrafficModel};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

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
    /// The skew's weight per bandwidth class (`skew.class_frequencies()`).
    frequencies: [f64; 4],
    /// Per source cluster: the sum of its class row's weights.
    row_total: Vec<f64>,
    /// Per source cluster: a core injects when its word's top 53 bits are
    /// below this (see the module docs).
    threshold: Vec<u64>,
    rng: StdRng,
}

/// Computes per-cluster relative injection intensities from the row totals:
/// each cluster's weight is the sum of the communication frequencies of its
/// outgoing application flows, normalised to mean 1.
fn cluster_intensities(row_total: &[f64]) -> Vec<f64> {
    let n = row_total.len();
    let mut weights = row_total.to_vec();
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

/// The threshold `t` for which `rng.next_u64() >> 11 < t` holds exactly when
/// `rng.gen_bool(p)` would on the same word, `p` first clamped to `[0, 1]`.
fn bernoulli_threshold(p: f64) -> u64 {
    let p = p.clamp(0.0, 1.0);
    assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
    (p * (1u64 << 53) as f64).ceil() as u64
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
        let frequencies = skew.class_frequencies();
        let row_total: Vec<f64> = topology
            .clusters()
            .map(|src| classes.row_total(src, &frequencies))
            .collect();
        let intensity = cluster_intensities(&row_total);
        let threshold = intensity
            .iter()
            .map(|i| bernoulli_threshold(load.value() * i))
            .collect();
        Self {
            topology,
            shape,
            skew,
            classes,
            load,
            intensity,
            frequencies,
            row_total,
            threshold,
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

    /// Decides whether core `src` of cluster `src_cluster` creates a packet
    /// at `cycle`: one word against the cluster's threshold, and on a hit a
    /// destination cluster and core.
    #[inline]
    fn draw(
        &mut self,
        cycle: u64,
        src: CoreId,
        src_cluster: ClusterId,
    ) -> Option<PacketDescriptor> {
        if self.rng.next_u64() >> 11 < self.threshold[src_cluster.0] {
            Some(self.packet(cycle, src, src_cluster))
        } else {
            None
        }
    }

    /// The packet of a hit: draws its destination cluster and core. Kept
    /// out of line so the miss path of [`Self::draw`] inlines into the poll.
    #[inline(never)]
    fn packet(&mut self, cycle: u64, src: CoreId, src_cluster: ClusterId) -> PacketDescriptor {
        let dst_cluster = self.classes.sample_destination(
            src_cluster,
            &self.frequencies,
            self.row_total[src_cluster.0],
            &mut self.rng,
        );
        let dst = self.pick_core_in(dst_cluster);
        PacketDescriptor {
            src,
            dst,
            num_flits: self.shape.num_flits,
            flit_bits: self.shape.flit_bits,
            class: self.classes.class(src_cluster, dst_cluster),
            created_cycle: cycle,
        }
    }
}

impl TrafficModel for SkewedTraffic {
    fn next_packet(&mut self, cycle: u64, src: CoreId) -> Option<PacketDescriptor> {
        let src_cluster = self.topology.cluster_of(src);
        self.draw(cycle, src, src_cluster)
    }

    /// The provided per-core loop, walked cluster by cluster so no core's
    /// cluster is computed by a division. The generator lives in a local
    /// across the walk, with the cluster's threshold hoisted, and goes back
    /// into `self` only around a hit's `packet`: the same words in
    /// the same order as `draw` per core.
    fn poll_cycle(
        &mut self,
        cycle: u64,
        num_cores: usize,
        emit: &mut dyn FnMut(CoreId, PacketDescriptor),
    ) {
        let per_cluster = self.topology.cores_per_cluster();
        let mut rng = self.rng.clone();
        for (cluster, first) in (0..num_cores).step_by(per_cluster).enumerate() {
            let threshold = self.threshold[cluster];
            for core in (first..num_cores.min(first + per_cluster)).map(CoreId) {
                if rng.next_u64() >> 11 < threshold {
                    self.rng = rng;
                    let descriptor = self.packet(cycle, core, ClusterId(cluster));
                    rng = self.rng.clone();
                    emit(core, descriptor);
                }
            }
        }
        self.rng = rng;
    }

    fn offered_load(&self) -> OfferedLoad {
        self.load
    }

    fn demand_class(&self, src: ClusterId, dst: ClusterId) -> BandwidthClass {
        self.classes.class(src, dst)
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
        // High-class destinations receive strictly more of a source's
        // packets, per destination, than low-class ones.
        let topology = ClusterTopology::paper_default();
        let mut m = model(SkewLevel::Skewed3);
        let src = ClusterId(0);
        let mut per_cluster = [0usize; 16];
        for cycle in 0..20_000 {
            for local in 0..topology.cores_per_cluster() {
                let core = src.core(local, topology.cores_per_cluster());
                if let Some(p) = m.next_packet(cycle, core) {
                    per_cluster[topology.cluster_of(p.dst).0] += 1;
                }
            }
        }
        let mean_to = |class: BandwidthClass| {
            let counts: Vec<usize> = topology
                .clusters()
                .filter(|&d| d != src && m.demand_class(src, d) == class)
                .map(|d| per_cluster[d.0])
                .collect();
            (!counts.is_empty()).then(|| counts.iter().sum::<usize>() as f64 / counts.len() as f64)
        };
        let (high, low) = (mean_to(BandwidthClass::High), mean_to(BandwidthClass::Low));
        let (Some(high), Some(low)) = (high, low) else {
            panic!("source {src:?} lacks a high- or low-class destination");
        };
        assert!(
            high > low,
            "high-class destinations got {high} packets each, low-class {low}"
        );
    }

    /// Always yields one fixed word.
    struct Word(u64);

    impl RngCore for Word {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn the_threshold_is_gen_bool() {
        // A p whose p·2^53 is an integer (the set-1 load rounded to a
        // multiple of 2^-53), and its two float neighbours.
        let on_grid = (0.00244 * (1u64 << 53) as f64).round() / (1u64 << 53) as f64;
        let probabilities = [
            0.0,
            1.0,
            2f64.powi(-60),
            1e-9,
            0.00244,
            0.5,
            1.0 - 2f64.powi(-53),
            on_grid,
            on_grid.next_down(),
            on_grid.next_up(),
            1.5,
        ];
        for p in probabilities {
            let threshold = bernoulli_threshold(p);
            let clamped = p.clamp(0.0, 1.0);
            let mut words = StdRng::seed_from_u64(p.to_bits());
            let mut bools = words.clone();
            for draw in 0..100_000 {
                assert_eq!(
                    words.next_u64() >> 11 < threshold,
                    bools.gen_bool(clamped),
                    "p = {p:e}, draw {draw}"
                );
            }
            // Random words almost never land next to the threshold: try the
            // words on either side of it directly.
            let tops = [threshold.saturating_sub(1), threshold, threshold + 1];
            for top in tops.into_iter().filter(|&top| top < 1 << 53) {
                for word in [top << 11, top << 11 | 0x7ff] {
                    assert_eq!(
                        word >> 11 < threshold,
                        Word(word).gen_bool(clamped),
                        "p = {p:e}, word {word:#x}"
                    );
                }
            }
        }
    }

    /// `(core, descriptor)` per generated packet, in generation order.
    type Emitted = Vec<(CoreId, PacketDescriptor)>;

    #[test]
    fn poll_cycle_is_the_per_core_loop() {
        let paper = ClusterTopology::paper_default();
        // The global model of `hier{pods=16}`.
        let pods16 = ClusterTopology::new(256, 4);
        for topology in [paper, pods16] {
            for skew in SkewLevel::ALL {
                // Off, the set-1 saturation load, and a load some cluster's
                // intensity lifts past 1.
                for load in [0.0, 0.00244, 0.9] {
                    // At 256 clusters and load 0.9 nearly every poll walks a
                    // 256-entry row; 100 cycles keep the debug build quick.
                    let cycles = if topology == pods16 && load == 0.9 {
                        100
                    } else {
                        2_000
                    };
                    let mut batched = SkewedTraffic::new(
                        topology,
                        PacketShape::new(64, 32),
                        skew,
                        OfferedLoad::new(load),
                        17,
                    );
                    let mut looped = batched.clone();
                    let context = format!("{topology:?} {skew:?} load {load}");
                    if load == 0.9 {
                        let clamps = batched.intensity.iter().any(|i| load * i > 1.0);
                        assert!(clamps, "{context}: no cluster clamps");
                    }
                    let mut from_batch: Emitted = Vec::new();
                    let mut from_loop: Emitted = Vec::new();
                    for cycle in 0..cycles {
                        batched.poll_cycle(cycle, topology.num_cores(), &mut |core, packet| {
                            from_batch.push((core, packet));
                        });
                        for core in topology.cores() {
                            if let Some(packet) = looped.next_packet(cycle, core) {
                                from_loop.push((core, packet));
                            }
                        }
                    }
                    assert_eq!(from_batch, from_loop, "{context}");
                    for _ in 0..16 {
                        assert_eq!(batched.rng.next_u64(), looped.rng.next_u64(), "{context}");
                    }
                }
            }
        }
    }

    #[test]
    fn cached_row_totals_equal_the_row_sums() {
        for clusters in [16, 256] {
            let topology = ClusterTopology::new(clusters, 4);
            for seed in [1, 7, 42, 0xDEAD_BEEF] {
                for skew in SkewLevel::ALL {
                    let m = SkewedTraffic::new(
                        topology,
                        PacketShape::new(64, 32),
                        skew,
                        OfferedLoad::new(0.1),
                        seed,
                    );
                    for src in topology.clusters() {
                        let weight = |d| skew.frequency(m.classes.class(src, d));
                        // The sum the destination walk redid per packet:
                        // every weight in cluster order, the source's own
                        // entry as 0.0 ...
                        let walked: f64 = topology
                            .clusters()
                            .map(|d| if d == src { 0.0 } else { weight(d) })
                            .sum();
                        // ... and the row without the source's entry.
                        let others: f64 =
                            topology.clusters().filter(|&d| d != src).map(weight).sum();
                        let context =
                            format!("{clusters} clusters, seed {seed}, {skew:?}, {src:?}");
                        assert_eq!(m.row_total[src.0].to_bits(), walked.to_bits(), "{context}");
                        assert_eq!(m.row_total[src.0].to_bits(), others.to_bits(), "{context}");
                    }
                }
            }
        }
    }

    #[test]
    fn name_reflects_skew_level() {
        assert_eq!(model(SkewLevel::Skewed1).name(), "skewed-1");
        assert_eq!(model(SkewLevel::Skewed3).name(), "skewed-3");
    }
}
