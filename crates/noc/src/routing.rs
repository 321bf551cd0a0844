//! Routing inside a cluster.
//!
//! Because the intra-cluster fabric is all-to-all, routing is a single table
//! lookup: a destination in the same cluster is reached through the direct
//! peer link (or delivered locally), anything else leaves through the
//! photonic-router port.

use crate::ids::{CoreId, PortId};
use crate::topology::ClusterTopology;

/// Outcome of a routing decision at a core switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteDecision {
    /// Deliver to the locally attached core (ejection).
    Local,
    /// Forward to a peer core switch inside the cluster through `PortId`.
    Peer(PortId),
    /// Forward to the cluster's photonic router for inter-cluster transfer.
    Photonic(PortId),
}

impl RouteDecision {
    /// The output port this decision corresponds to.
    #[must_use]
    #[inline]
    pub fn port(&self, topology: &ClusterTopology) -> PortId {
        match self {
            RouteDecision::Local => topology.local_port(),
            RouteDecision::Peer(p) | RouteDecision::Photonic(p) => *p,
        }
    }
}

/// Per-switch routing table for the hierarchical cluster topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterRoutingTable {
    topology: ClusterTopology,
    own_core: CoreId,
}

impl ClusterRoutingTable {
    /// Builds the routing table of the switch attached to `own_core`.
    #[must_use]
    pub fn new(topology: ClusterTopology, own_core: CoreId) -> Self {
        Self { topology, own_core }
    }

    /// The core whose switch this table belongs to.
    #[must_use]
    pub fn own_core(&self) -> CoreId {
        self.own_core
    }

    /// Routes a packet headed for `dst`.
    #[must_use]
    #[inline]
    pub fn decide(&self, dst: CoreId) -> RouteDecision {
        if dst == self.own_core {
            RouteDecision::Local
        } else if self.topology.same_cluster(self.own_core, dst) {
            RouteDecision::Peer(self.topology.peer_port(self.own_core, dst))
        } else {
            RouteDecision::Photonic(self.topology.photonic_port())
        }
    }

    /// Output port for a packet headed to `dst` (convenience wrapper around
    /// [`ClusterRoutingTable::decide`]).
    #[must_use]
    #[inline]
    pub fn output_port(&self, dst: CoreId) -> PortId {
        self.decide(dst).port(&self.topology)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_delivery() {
        let t = ClusterTopology::paper_default();
        let rt = ClusterRoutingTable::new(t, CoreId(9));
        assert_eq!(rt.decide(CoreId(9)), RouteDecision::Local);
        assert_eq!(rt.output_port(CoreId(9)), PortId(0));
    }

    #[test]
    fn intra_cluster_uses_peer_link() {
        let t = ClusterTopology::paper_default();
        let rt = ClusterRoutingTable::new(t, CoreId(9)); // cluster 2, local 1
        match rt.decide(CoreId(8)) {
            RouteDecision::Peer(p) => assert_eq!(p, PortId(1)),
            other => panic!("expected peer route, got {other:?}"),
        }
        match rt.decide(CoreId(11)) {
            RouteDecision::Peer(p) => assert_eq!(p, PortId(3)),
            other => panic!("expected peer route, got {other:?}"),
        }
    }

    #[test]
    fn inter_cluster_goes_photonic() {
        let t = ClusterTopology::paper_default();
        let rt = ClusterRoutingTable::new(t, CoreId(9));
        match rt.decide(CoreId(40)) {
            RouteDecision::Photonic(p) => assert_eq!(p, PortId(4)),
            other => panic!("expected photonic route, got {other:?}"),
        }
    }

    #[test]
    fn every_destination_is_routable() {
        let t = ClusterTopology::paper_default();
        for own in t.cores() {
            let rt = ClusterRoutingTable::new(t, own);
            for dst in t.cores() {
                let port = rt.output_port(dst);
                assert!(port.0 < t.switch_ports());
            }
        }
    }
}
