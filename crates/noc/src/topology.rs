//! Hierarchical cluster topology.
//!
//! Both the Firefly baseline and d-HetPNoC organise the chip as clusters of
//! four cores (Table 3-3). Inside a cluster the four core switches are
//! connected **all-to-all** with electrical links and each core switch has an
//! additional electrical link to the cluster's photonic router (Section 3.1:
//! "These 4 cores are interconnected using traditional copper interconnects in
//! an all-to-all manner avoiding multi-hop paths within a cluster").
//!
//! This module defines the port numbering convention used throughout the
//! reproduction:
//!
//! **Core switch ports** (one switch per core, `cores_per_cluster + 1` ports):
//!
//! * port 0 — local core (injection/ejection),
//! * ports `1 ..= cores_per_cluster - 1` — peer core switches in ascending
//!   order of their local index, skipping the switch itself,
//! * port `cores_per_cluster` — the cluster's photonic router.
//!
//! **Photonic router electrical ports** (`cores_per_cluster` ports): port `i`
//! connects to the core switch of local core `i`.

use crate::ids::{ClusterId, CoreId, PortId};

/// The hierarchical cluster topology of the photonic NoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterTopology {
    num_clusters: usize,
    cores_per_cluster: usize,
}

impl ClusterTopology {
    /// Creates a topology of `num_clusters` clusters of `cores_per_cluster`
    /// cores each. The paper uses 16 clusters of 4 cores (64 cores total).
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero or if `cores_per_cluster < 2`
    /// (a cluster needs at least two cores for the all-to-all fabric to
    /// exist).
    #[must_use]
    pub fn new(num_clusters: usize, cores_per_cluster: usize) -> Self {
        assert!(num_clusters > 0, "need at least one cluster");
        assert!(
            cores_per_cluster >= 2,
            "need at least two cores per cluster"
        );
        Self {
            num_clusters,
            cores_per_cluster,
        }
    }

    /// The 64-core / 16-cluster configuration used throughout the paper.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(16, 4)
    }

    /// Number of clusters (= number of photonic routers).
    #[must_use]
    #[inline]
    pub fn num_clusters(&self) -> usize {
        self.num_clusters
    }

    /// Number of cores per cluster.
    #[must_use]
    #[inline]
    pub fn cores_per_cluster(&self) -> usize {
        self.cores_per_cluster
    }

    /// Total number of cores on the chip.
    #[must_use]
    #[inline]
    pub fn num_cores(&self) -> usize {
        self.num_clusters * self.cores_per_cluster
    }

    /// Cluster that owns `core`.
    #[must_use]
    #[inline]
    pub fn cluster_of(&self, core: CoreId) -> ClusterId {
        core.cluster(self.cores_per_cluster)
    }

    /// Local index of `core` within its cluster.
    #[must_use]
    #[inline]
    pub fn local_index(&self, core: CoreId) -> usize {
        core.local_index(self.cores_per_cluster)
    }

    /// True when both cores live in the same cluster.
    #[must_use]
    #[inline]
    pub fn same_cluster(&self, a: CoreId, b: CoreId) -> bool {
        self.cluster_of(a) == self.cluster_of(b)
    }

    /// Number of ports on each core switch: local core + peers + photonic
    /// router.
    #[must_use]
    #[inline]
    pub fn switch_ports(&self) -> usize {
        self.cores_per_cluster + 1
    }

    /// Port index of the local core on every core switch (always 0).
    #[must_use]
    #[inline]
    pub fn local_port(&self) -> PortId {
        PortId(0)
    }

    /// Port index of the photonic router on every core switch.
    #[must_use]
    #[inline]
    pub fn photonic_port(&self) -> PortId {
        PortId(self.cores_per_cluster)
    }

    /// Port on the switch of `from` leading to the switch of peer `to`
    /// (both must be in the same cluster and distinct).
    ///
    /// # Panics
    ///
    /// Panics if the cores are not distinct members of the same cluster.
    #[must_use]
    #[inline]
    pub fn peer_port(&self, from: CoreId, to: CoreId) -> PortId {
        assert!(
            self.same_cluster(from, to),
            "peer_port requires cores of the same cluster"
        );
        assert_ne!(from, to, "peer_port requires distinct cores");
        let from_local = self.local_index(from);
        let to_local = self.local_index(to);
        // Peers are numbered 1.. in ascending local index, skipping `from`.
        let offset = if to_local < from_local {
            to_local
        } else {
            to_local - 1
        };
        PortId(1 + offset)
    }

    /// Inverse of [`ClusterTopology::peer_port`]: the local index of the peer
    /// reached through `port` from the switch of the core with local index
    /// `from_local`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is not a peer port.
    #[must_use]
    #[inline]
    pub fn peer_of_port(&self, from_local: usize, port: PortId) -> usize {
        assert!(
            port.0 >= 1 && port.0 < self.cores_per_cluster,
            "port {port} is not a peer port"
        );
        let offset = port.0 - 1;
        if offset < from_local {
            offset
        } else {
            offset + 1
        }
    }

    /// Number of electrical ports on the photonic router (one per local core
    /// switch).
    #[must_use]
    pub fn photonic_router_ports(&self) -> usize {
        self.cores_per_cluster
    }

    /// Number of unidirectional electrical links in the whole chip:
    /// all-to-all between cluster cores (both directions) plus two per
    /// core ↔ photonic-router connection.
    #[must_use]
    pub fn num_electrical_links(&self) -> usize {
        let per_cluster =
            self.cores_per_cluster * (self.cores_per_cluster - 1) + 2 * self.cores_per_cluster;
        per_cluster * self.num_clusters
    }

    /// Iterator over all cluster ids.
    pub fn clusters(&self) -> impl Iterator<Item = ClusterId> {
        (0..self.num_clusters).map(ClusterId)
    }

    /// Iterator over all core ids.
    pub fn cores(&self) -> impl Iterator<Item = CoreId> {
        (0..self.num_cores()).map(CoreId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_dimensions() {
        let t = ClusterTopology::paper_default();
        assert_eq!(t.num_clusters(), 16);
        assert_eq!(t.cores_per_cluster(), 4);
        assert_eq!(t.num_cores(), 64);
        assert_eq!(t.switch_ports(), 5);
        assert_eq!(t.photonic_port(), PortId(4));
        assert_eq!(t.photonic_router_ports(), 4);
    }

    #[test]
    fn cluster_membership() {
        let t = ClusterTopology::paper_default();
        assert!(t.same_cluster(CoreId(4), CoreId(7)));
        assert!(!t.same_cluster(CoreId(3), CoreId(4)));
        assert_eq!(t.cluster_of(CoreId(63)), ClusterId(15));
    }

    #[test]
    fn peer_port_numbering_skips_self() {
        let t = ClusterTopology::paper_default();
        // From core 5 (local index 1): peers are local 0, 2, 3 at ports 1, 2, 3.
        assert_eq!(t.peer_port(CoreId(5), CoreId(4)), PortId(1));
        assert_eq!(t.peer_port(CoreId(5), CoreId(6)), PortId(2));
        assert_eq!(t.peer_port(CoreId(5), CoreId(7)), PortId(3));
        // From core 4 (local index 0): peers are local 1, 2, 3 at ports 1, 2, 3.
        assert_eq!(t.peer_port(CoreId(4), CoreId(5)), PortId(1));
        assert_eq!(t.peer_port(CoreId(4), CoreId(7)), PortId(3));
    }

    #[test]
    fn peer_port_roundtrip() {
        let t = ClusterTopology::paper_default();
        for from_local in 0..4 {
            let from = ClusterId(2).core(from_local, 4);
            for to_local in 0..4 {
                if from_local == to_local {
                    continue;
                }
                let to = ClusterId(2).core(to_local, 4);
                let port = t.peer_port(from, to);
                assert_eq!(t.peer_of_port(from_local, port), to_local);
            }
        }
    }

    #[test]
    #[should_panic(expected = "same cluster")]
    fn peer_port_rejects_cross_cluster() {
        let t = ClusterTopology::paper_default();
        let _ = t.peer_port(CoreId(0), CoreId(10));
    }

    #[test]
    fn electrical_link_count() {
        let t = ClusterTopology::paper_default();
        // Per cluster: 4*3 = 12 core-to-core + 8 core<->photonic = 20; 16 clusters.
        assert_eq!(t.num_electrical_links(), 320);
    }

    #[test]
    fn iterators_cover_everything() {
        let t = ClusterTopology::new(3, 2);
        assert_eq!(t.clusters().count(), 3);
        assert_eq!(t.cores().count(), 6);
    }
}
