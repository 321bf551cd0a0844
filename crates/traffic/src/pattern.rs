//! Shared building blocks of the traffic generators: skew levels, bandwidth
//! class matrices and packet shapes.

use pnoc_noc::ids::ClusterId;
use pnoc_noc::packet::BandwidthClass;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The three skewed traffic scenarios of Table 3-1 / Table 3-2.
///
/// Each level gives the fraction of communication that happens at each of the
/// four application bandwidths (from highest to lowest):
///
/// | scenario | 100 Gbps | 50 Gbps | 25 Gbps | 12.5 Gbps |
/// |----------|----------|---------|---------|-----------|
/// | Skewed1  | 50 %     | 25 %    | 12.5 %  | 12.5 %    |
/// | Skewed2  | 75 %     | 12.5 %  | 6.25 %  | 6.25 %    |
/// | Skewed3  | 90 %     | 5 %     | 2.5 %   | 2.5 %     |
///
/// (the absolute bandwidths scale with the bandwidth set; the class structure
/// is identical).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SkewLevel {
    /// 50 / 25 / 12.5 / 12.5 % of traffic on the High / MediumHigh /
    /// MediumLow / Low classes.
    Skewed1,
    /// 75 / 12.5 / 6.25 / 6.25 %.
    Skewed2,
    /// 90 / 5 / 2.5 / 2.5 %.
    Skewed3,
}

impl SkewLevel {
    /// All levels in increasing skew order.
    pub const ALL: [SkewLevel; 3] = [SkewLevel::Skewed1, SkewLevel::Skewed2, SkewLevel::Skewed3];

    /// Fraction of communication for each bandwidth class, indexed by
    /// [`BandwidthClass::index`] (Low first). Sums to 1.
    #[must_use]
    pub(crate) fn class_frequencies(self) -> [f64; 4] {
        match self {
            SkewLevel::Skewed1 => [0.125, 0.125, 0.25, 0.50],
            SkewLevel::Skewed2 => [0.0625, 0.0625, 0.125, 0.75],
            SkewLevel::Skewed3 => [0.025, 0.025, 0.05, 0.90],
        }
    }

    /// Frequency of communication for one class.
    #[must_use]
    pub fn frequency(self, class: BandwidthClass) -> f64 {
        self.class_frequencies()[class.index()]
    }

    /// Name used in reports ("skewed-1", ...).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SkewLevel::Skewed1 => "skewed-1",
            SkewLevel::Skewed2 => "skewed-2",
            SkewLevel::Skewed3 => "skewed-3",
        }
    }
}

/// The geometry of generated packets (how many flits, how wide).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketShape {
    /// Flits per packet.
    pub num_flits: u32,
    /// Bits per flit.
    pub flit_bits: u32,
}

impl PacketShape {
    /// Creates a packet shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(num_flits: u32, flit_bits: u32) -> Self {
        assert!(num_flits > 0 && flit_bits > 0);
        Self {
            num_flits,
            flit_bits,
        }
    }

    /// Total packet size in bits.
    #[must_use]
    pub fn total_bits(self) -> u64 {
        u64::from(self.num_flits) * u64::from(self.flit_bits)
    }
}

/// A per-cluster-pair assignment of application bandwidth classes.
///
/// In the skewed scenarios each (source cluster, destination cluster) pair is
/// served by one application whose bandwidth class is fixed for the duration
/// of a run (the class changes only when the task mapping changes, which is
/// exactly when d-HetPNoC re-runs its bandwidth allocation). Classes are
/// assigned pseudo-randomly with equal probability; the *skew* of the traffic
/// comes from how often each class is used, not from how many pairs belong to
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ClassMatrix {
    num_clusters: usize,
    classes: Vec<BandwidthClass>,
}

impl ClassMatrix {
    /// Builds a matrix with classes drawn uniformly at random per pair, using
    /// `seed` for reproducibility.
    #[must_use]
    pub fn random(num_clusters: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let classes = (0..num_clusters * num_clusters)
            .map(|_| BandwidthClass::ALL[rng.gen_range(0..BandwidthClass::ALL.len())])
            .collect();
        Self {
            num_clusters,
            classes,
        }
    }

    /// Class of the application serving the `src → dst` pair.
    #[must_use]
    pub fn class(&self, src: ClusterId, dst: ClusterId) -> BandwidthClass {
        self.classes[src.0 * self.num_clusters + dst.0]
    }

    /// Fraction of `src`'s traffic volume that goes to `dst`, when the volume
    /// of a pair is weighted by `skew.frequency(class)` and normalised over
    /// all destinations other than `src`: the reference the destination
    /// sampling is tested against.
    #[cfg(test)]
    pub(crate) fn volume_share(&self, src: ClusterId, dst: ClusterId, skew: SkewLevel) -> f64 {
        if src == dst {
            return 0.0;
        }
        let total: f64 = (0..self.num_clusters)
            .filter(|&d| d != src.0)
            .map(|d| skew.frequency(self.class(src, ClusterId(d))))
            .sum();
        if total == 0.0 {
            return 0.0;
        }
        skew.frequency(self.class(src, dst)) / total
    }

    /// `src`'s row of pair weights in cluster order: `frequencies[class]`
    /// of each pair, and 0.0 for `src` itself.
    fn weights<'a>(
        &'a self,
        src: ClusterId,
        frequencies: &'a [f64; 4],
    ) -> impl Iterator<Item = f64> + 'a {
        let n = self.num_clusters;
        self.classes[src.0 * n..(src.0 + 1) * n]
            .iter()
            .enumerate()
            .map(move |(d, class)| {
                if d == src.0 {
                    0.0
                } else {
                    frequencies[class.index()]
                }
            })
    }

    /// The sum of `src`'s row of weights, in cluster order: the `total`
    /// [`Self::sample_destination`] draws against.
    pub(crate) fn row_total(&self, src: ClusterId, frequencies: &[f64; 4]) -> f64 {
        self.weights(src, frequencies).sum()
    }

    /// Draws a destination cluster for a packet leaving `src`, each
    /// destination weighted by the `frequencies` entry of its pair's class.
    /// `total` must be `self.row_total(src, frequencies)`, which callers
    /// compute once per source, so a draw walks the row once.
    pub(crate) fn sample_destination(
        &self,
        src: ClusterId,
        frequencies: &[f64; 4],
        total: f64,
        rng: &mut impl Rng,
    ) -> ClusterId {
        if total <= 0.0 {
            // Degenerate case: fall back to the next cluster.
            return ClusterId((src.0 + 1) % self.num_clusters);
        }
        let mut draw = rng.gen_range(0.0..total);
        for (d, w) in self.weights(src, frequencies).enumerate() {
            if w <= 0.0 {
                continue;
            }
            if draw < w {
                return ClusterId(d);
            }
            draw -= w;
        }
        ClusterId((src.0 + 1) % self.num_clusters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_frequencies_sum_to_one_and_match_table_3_2() {
        for level in SkewLevel::ALL {
            let f = level.class_frequencies();
            let sum: f64 = f.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "{level:?} sums to {sum}");
        }
        assert!((SkewLevel::Skewed1.frequency(BandwidthClass::High) - 0.5).abs() < 1e-12);
        assert!((SkewLevel::Skewed2.frequency(BandwidthClass::High) - 0.75).abs() < 1e-12);
        assert!((SkewLevel::Skewed3.frequency(BandwidthClass::High) - 0.9).abs() < 1e-12);
        assert!((SkewLevel::Skewed3.frequency(BandwidthClass::Low) - 0.025).abs() < 1e-12);
    }

    #[test]
    fn skew_increases_monotonically() {
        let h1 = SkewLevel::Skewed1.frequency(BandwidthClass::High);
        let h2 = SkewLevel::Skewed2.frequency(BandwidthClass::High);
        let h3 = SkewLevel::Skewed3.frequency(BandwidthClass::High);
        assert!(h1 < h2 && h2 < h3);
    }

    #[test]
    fn packet_shape_total_bits() {
        assert_eq!(PacketShape::new(64, 32).total_bits(), 2048);
        assert_eq!(PacketShape::new(8, 256).total_bits(), 2048);
    }

    #[test]
    fn class_matrix_is_deterministic_per_seed() {
        let a = ClassMatrix::random(16, 42);
        let b = ClassMatrix::random(16, 42);
        let c = ClassMatrix::random(16, 43);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should give different matrices");
    }

    #[test]
    fn class_matrix_covers_all_classes() {
        let m = ClassMatrix::random(16, 7);
        let mut seen = [false; 4];
        for s in 0..16 {
            for d in 0..16 {
                seen[m.class(ClusterId(s), ClusterId(d)).index()] = true;
            }
        }
        assert!(
            seen.iter().all(|&b| b),
            "256 random pairs must hit all 4 classes"
        );
    }

    #[test]
    fn volume_shares_normalise_per_source() {
        let m = ClassMatrix::random(16, 3);
        for s in 0..16 {
            let total: f64 = (0..16)
                .map(|d| m.volume_share(ClusterId(s), ClusterId(d), SkewLevel::Skewed3))
                .sum();
            assert!(
                (total - 1.0).abs() < 1e-9,
                "source {s} shares sum to {total}"
            );
            assert_eq!(
                m.volume_share(ClusterId(s), ClusterId(s), SkewLevel::Skewed3),
                0.0
            );
        }
    }

    #[test]
    fn destination_sampling_follows_shares() {
        let m = ClassMatrix::random(16, 11);
        let mut rng = StdRng::seed_from_u64(5);
        let src = ClusterId(2);
        let frequencies = SkewLevel::Skewed3.class_frequencies();
        let total = m.row_total(src, &frequencies);
        let samples = 40_000;
        let mut counts = [0usize; 16];
        for _ in 0..samples {
            counts[m.sample_destination(src, &frequencies, total, &mut rng).0] += 1;
        }
        assert_eq!(counts[src.0], 0, "never send to self");
        for (d, &count) in counts.iter().enumerate() {
            if d == src.0 {
                continue;
            }
            let expected = m.volume_share(src, ClusterId(d), SkewLevel::Skewed3);
            let measured = count as f64 / samples as f64;
            assert!(
                (measured - expected).abs() < 0.02,
                "destination {d}: expected {expected:.3}, measured {measured:.3}"
            );
        }
    }

    /// `sample_destination` as it was while it collected the row's weights
    /// into a `Vec` per call.
    fn sample_from_collected_weights(
        m: &ClassMatrix,
        src: ClusterId,
        skew: SkewLevel,
        rng: &mut impl Rng,
    ) -> ClusterId {
        let weights: Vec<f64> = (0..m.num_clusters)
            .map(|d| {
                if d == src.0 {
                    0.0
                } else {
                    skew.frequency(m.class(src, ClusterId(d)))
                }
            })
            .collect();
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return ClusterId((src.0 + 1) % m.num_clusters);
        }
        let mut draw = rng.gen_range(0.0..total);
        for (d, w) in weights.iter().enumerate() {
            if *w <= 0.0 {
                continue;
            }
            if draw < *w {
                return ClusterId(d);
            }
            draw -= *w;
        }
        ClusterId((src.0 + 1) % m.num_clusters)
    }

    #[test]
    fn destination_sampling_equals_the_collected_weights_formula() {
        for seed in [1, 7, 42, 0xDEAD_BEEF] {
            let m = ClassMatrix::random(64, seed);
            for skew in SkewLevel::ALL {
                let frequencies = skew.class_frequencies();
                let mut walked = StdRng::seed_from_u64(seed);
                let mut collected = StdRng::seed_from_u64(seed);
                for draw in 0..10_000 {
                    let src = ClusterId(draw % 64);
                    let total = m.row_total(src, &frequencies);
                    assert_eq!(
                        m.sample_destination(src, &frequencies, total, &mut walked),
                        sample_from_collected_weights(&m, src, skew, &mut collected),
                        "seed {seed}, {skew:?}, draw {draw}"
                    );
                }
            }
        }
    }

    #[test]
    fn homogeneous_matrix_gives_equal_shares() {
        let m = ClassMatrix {
            num_clusters: 16,
            classes: vec![BandwidthClass::MediumHigh; 16 * 16],
        };
        let share = m.volume_share(ClusterId(0), ClusterId(5), SkewLevel::Skewed1);
        assert!((share - 1.0 / 15.0).abs() < 1e-12);
    }
}
