//! Demand matrices: the interface between traffic and bandwidth allocation.
//!
//! d-HetPNoC cores advertise their bandwidth needs through demand tables
//! (Section 3.2.1). A [`DemandMatrix`] is the chip-wide view of those tables:
//! for every (source cluster, destination cluster) pair it records the
//! bandwidth class of the application serving the pair and the fraction of
//! the source's traffic volume that goes to that destination. The d-HetPNoC
//! fabric converts this into per-cluster wavelength requests.

use pnoc_noc::ids::ClusterId;
use pnoc_noc::packet::BandwidthClass;
use pnoc_noc::traffic_model::TrafficModel;

/// Chip-wide bandwidth demand description.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandMatrix {
    num_clusters: usize,
    classes: Vec<BandwidthClass>,
    shares: Vec<f64>,
    intensity: Vec<f64>,
}

impl DemandMatrix {
    /// Builds the matrix by querying a traffic model for every cluster pair.
    #[must_use]
    pub fn from_model<T: TrafficModel + ?Sized>(model: &T, num_clusters: usize) -> Self {
        let mut classes = Vec::with_capacity(num_clusters * num_clusters);
        let mut shares = Vec::with_capacity(num_clusters * num_clusters);
        for s in 0..num_clusters {
            for d in 0..num_clusters {
                classes.push(model.demand_class(ClusterId(s), ClusterId(d)));
                shares.push(model.volume_share(ClusterId(s), ClusterId(d)));
            }
        }
        let intensity = (0..num_clusters)
            .map(|s| model.source_intensity(ClusterId(s)))
            .collect();
        Self {
            num_clusters,
            classes,
            shares,
            intensity,
        }
    }

    /// Builds a uniform matrix (every pair the same class, equal shares).
    #[must_use]
    pub fn uniform(num_clusters: usize, class: BandwidthClass) -> Self {
        let share = if num_clusters > 1 {
            1.0 / (num_clusters - 1) as f64
        } else {
            0.0
        };
        let mut classes = vec![class; num_clusters * num_clusters];
        let mut shares = vec![share; num_clusters * num_clusters];
        for i in 0..num_clusters {
            classes[i * num_clusters + i] = class;
            shares[i * num_clusters + i] = 0.0;
        }
        Self {
            num_clusters,
            classes,
            shares,
            intensity: vec![1.0; num_clusters],
        }
    }

    /// Number of clusters covered.
    #[must_use]
    pub fn num_clusters(&self) -> usize {
        self.num_clusters
    }

    /// Bandwidth class of the `src → dst` application flow.
    #[must_use]
    pub fn class(&self, src: ClusterId, dst: ClusterId) -> BandwidthClass {
        self.classes[src.0 * self.num_clusters + dst.0]
    }

    /// Fraction of `src`'s traffic volume sent to `dst`.
    #[must_use]
    pub fn share(&self, src: ClusterId, dst: ClusterId) -> f64 {
        self.shares[src.0 * self.num_clusters + dst.0]
    }

    /// Relative traffic intensity of cluster `src` (mean ≈ 1 across clusters).
    #[must_use]
    pub fn intensity(&self, src: ClusterId) -> f64 {
        self.intensity[src.0]
    }

    /// The highest class multiplier demanded by `src` toward any destination
    /// (the "maximum bandwidth that the cluster will need" of Section 3.2.1).
    #[must_use]
    pub fn max_class_multiplier(&self, src: ClusterId) -> usize {
        (0..self.num_clusters)
            .filter(|&d| d != src.0)
            .map(|d| self.class(src, ClusterId(d)).multiplier())
            .max()
            .unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{PacketShape, SkewLevel};
    use crate::skewed::SkewedTraffic;
    use crate::uniform::UniformRandomTraffic;
    use pnoc_noc::topology::ClusterTopology;
    use pnoc_noc::traffic_model::OfferedLoad;

    /// Volume-weighted average class multiplier of `src` (between 1 and 8).
    fn weighted_class_multiplier(m: &DemandMatrix, src: ClusterId) -> f64 {
        let (weighted, total) = (0..m.num_clusters)
            .filter(|&d| d != src.0)
            .map(|d| (m.share(src, ClusterId(d)), m.class(src, ClusterId(d))))
            .fold((0.0, 0.0), |(w, t), (share, class)| {
                (w + share * class.multiplier() as f64, t + share)
            });
        if total <= 0.0 {
            1.0
        } else {
            weighted / total
        }
    }

    #[test]
    fn uniform_matrix_has_equal_shares_and_single_class() {
        let m = DemandMatrix::uniform(16, BandwidthClass::MediumHigh);
        assert_eq!(
            m.class(ClusterId(0), ClusterId(5)),
            BandwidthClass::MediumHigh
        );
        assert!((m.share(ClusterId(0), ClusterId(5)) - 1.0 / 15.0).abs() < 1e-12);
        assert_eq!(m.share(ClusterId(3), ClusterId(3)), 0.0);
        assert_eq!(m.max_class_multiplier(ClusterId(0)), 4);
        assert!((weighted_class_multiplier(&m, ClusterId(0)) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn from_model_matches_the_model() {
        let traffic = SkewedTraffic::new(
            ClusterTopology::paper_default(),
            PacketShape::new(64, 32),
            SkewLevel::Skewed3,
            OfferedLoad::new(0.1),
            5,
        );
        let m = DemandMatrix::from_model(&traffic, 16);
        for s in 0..16 {
            for d in 0..16 {
                assert_eq!(
                    m.class(ClusterId(s), ClusterId(d)),
                    traffic.demand_class(ClusterId(s), ClusterId(d))
                );
                assert!(
                    (m.share(ClusterId(s), ClusterId(d))
                        - traffic.volume_share(ClusterId(s), ClusterId(d)))
                    .abs()
                        < 1e-12
                );
            }
        }
    }

    #[test]
    fn skewed_traffic_has_higher_weighted_demand_than_uniform() {
        let topo = ClusterTopology::paper_default();
        let uniform =
            UniformRandomTraffic::new(topo, PacketShape::new(64, 32), OfferedLoad::new(0.1), 5);
        let skewed = SkewedTraffic::new(
            topo,
            PacketShape::new(64, 32),
            SkewLevel::Skewed3,
            OfferedLoad::new(0.1),
            5,
        );
        let mu = DemandMatrix::from_model(&uniform, 16);
        let ms = DemandMatrix::from_model(&skewed, 16);
        let avg_uniform: f64 = (0..16)
            .map(|s| weighted_class_multiplier(&mu, ClusterId(s)))
            .sum::<f64>()
            / 16.0;
        let avg_skewed: f64 = (0..16)
            .map(|s| weighted_class_multiplier(&ms, ClusterId(s)))
            .sum::<f64>()
            / 16.0;
        assert!(
            avg_skewed > avg_uniform,
            "skewed demand ({avg_skewed}) must exceed uniform demand ({avg_uniform})"
        );
    }

    #[test]
    fn weighted_multiplier_is_bounded_by_max() {
        let traffic = SkewedTraffic::new(
            ClusterTopology::paper_default(),
            PacketShape::new(64, 32),
            SkewLevel::Skewed1,
            OfferedLoad::new(0.1),
            23,
        );
        let m = DemandMatrix::from_model(&traffic, 16);
        for s in 0..16 {
            let src = ClusterId(s);
            assert!(
                weighted_class_multiplier(&m, src) <= m.max_class_multiplier(src) as f64 + 1e-9
            );
            assert!(weighted_class_multiplier(&m, src) >= 1.0);
        }
    }
}
