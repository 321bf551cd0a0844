//! Demand matrices: the interface between traffic and bandwidth allocation.
//!
//! d-HetPNoC cores advertise their bandwidth needs through demand tables
//! (Section 3.2.1). A [`DemandMatrix`] is the chip-wide view of those tables:
//! for every (source cluster, destination cluster) pair it records the
//! bandwidth class of the application serving the pair, and for every
//! source cluster its relative traffic intensity. The d-HetPNoC fabric
//! turns each class into the width of that pair's transfers and the
//! intensities into per-cluster wavelength targets.

use pnoc_noc::ids::ClusterId;
use pnoc_noc::packet::BandwidthClass;
use pnoc_noc::traffic_model::TrafficModel;

/// Chip-wide bandwidth demand description.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandMatrix {
    num_clusters: usize,
    classes: Vec<BandwidthClass>,
    intensity: Vec<f64>,
}

impl DemandMatrix {
    /// Builds the matrix by querying a traffic model for every cluster pair.
    #[must_use]
    pub fn from_model<T: TrafficModel + ?Sized>(model: &T, num_clusters: usize) -> Self {
        let mut classes = Vec::with_capacity(num_clusters * num_clusters);
        for s in 0..num_clusters {
            for d in 0..num_clusters {
                classes.push(model.demand_class(ClusterId(s), ClusterId(d)));
            }
        }
        let intensity = (0..num_clusters)
            .map(|s| model.source_intensity(ClusterId(s)))
            .collect();
        Self {
            num_clusters,
            classes,
            intensity,
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
    use pnoc_noc::topology::ClusterTopology;
    use pnoc_noc::traffic_model::OfferedLoad;

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
            let src = ClusterId(s);
            for d in 0..16 {
                assert_eq!(
                    m.class(src, ClusterId(d)),
                    traffic.demand_class(src, ClusterId(d))
                );
            }
            assert_eq!(
                m.intensity(src).to_bits(),
                traffic.source_intensity(src).to_bits()
            );
            let highest = (0..16)
                .filter(|&d| d != s)
                .map(|d| traffic.demand_class(src, ClusterId(d)).multiplier())
                .max();
            assert_eq!(Some(m.max_class_multiplier(src)), highest);
        }
    }
}
