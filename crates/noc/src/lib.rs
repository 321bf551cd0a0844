//! # pnoc-noc — electrical Network-on-Chip substrate
//!
//! This crate provides the electrical NoC building blocks used by the photonic
//! NoC architectures of the d-HetPNoC reproduction:
//!
//! * flit / packet representations with wormhole framing ([`flit`], [`packet`]),
//! * virtual-channel buffers with credit-style occupancy tracking ([`vc`]),
//! * the round-robin arbiter ([`arbiter`]),
//! * a three-stage (input arbitration → routing/crossbar → output arbitration)
//!   electrical router ([`router`]) as described in the thesis (Section 3.3.2,
//!   adopted from Pande et al. \[24\]),
//! * the hierarchical cluster topology used by both Firefly and d-HetPNoC
//!   (4 cores per cluster, all-to-all electrical links plus a photonic router
//!   per cluster, [`topology`]),
//! * routing helpers ([`routing`]) and
//! * the [`traffic_model::TrafficModel`] trait implemented by the
//!   `pnoc-traffic` crate.
//!
//! Everything in this crate is architecture-agnostic: it knows nothing about
//! photonics, wavelengths or bandwidth allocation. The photonic fabrics build
//! on top of these primitives.
//!
//! ## Example
//!
//! ```
//! use pnoc_noc::prelude::*;
//!
//! // A 5-port router (local core, three peers, photonic router) with
//! // 4 virtual channels of depth 8.
//! let spec = RouterSpec::new(5, 4, 8);
//! let topo = ClusterTopology::new(16, 4);
//! assert_eq!(topo.num_cores(), 64);
//! let router = ElectricalRouter::new(RouterId(0), spec);
//! assert_eq!(router.num_ports(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arbiter;
pub mod error;
pub mod flit;
pub mod ids;
pub mod packet;
pub mod registry;
pub mod router;
pub mod routing;
pub mod suggest;
pub mod topology;
pub mod traffic_model;
pub mod vc;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::arbiter::{Arbiter, RoundRobinArbiter};
    pub use crate::error::NocError;
    pub use crate::flit::{Flit, FlitKind, FlitPayload};
    pub use crate::ids::{ClusterId, CoreId, PacketId, PortId, RouterId, VcId};
    pub use crate::packet::{BandwidthClass, Packet, PacketDescriptor, PacketFramer};
    pub use crate::router::{ElectricalRouter, OutputGrant, RouterSpec};
    pub use crate::routing::ClusterRoutingTable;
    pub use crate::topology::ClusterTopology;
    pub use crate::traffic_model::{OfferedLoad, TrafficModel};
    pub use crate::vc::{VcBuffer, VcSet};
}

pub use prelude::*;
