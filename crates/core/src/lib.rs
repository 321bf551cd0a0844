//! # pnoc-dhetpnoc — the dynamic heterogeneous photonic NoC (d-HetPNoC)
//!
//! This crate implements the primary contribution of the reproduced thesis
//! (Chapter 3): a crossbar-based photonic NoC that allocates DWDM wavelengths
//! to cluster write-channels **on demand**, in proportion to the traffic
//! requirement of the applications mapped onto each cluster, instead of the
//! uniform static allocation of the Firefly baseline.
//!
//! The pieces follow the thesis structure:
//!
//! * [`token`] — the token that circulates on a dedicated control waveguide
//!   and serialises wavelength acquisition (equations 1 and 2),
//! * [`dba`] — the allocation policies, and the dynamic bandwidth
//!   allocation controller that acquires and relinquishes wavelengths when a
//!   router holds the token: the token-level model that the simulated pools
//!   (`pnoc_sim::system::refill`) are tested against. The demand / request /
//!   current tables of every photonic router (Section 3.2.1, Figure 3-2)
//!   are not stored; its module docs say which state answers each,
//! * [`reservation`] — the reservation-flit timing including the piggybacked
//!   wavelength identifiers (Section 3.3.1 / 3.4.1.1),
//! * [`fabric`] — the demand-driven allocator behind d-HetPNoC's class
//!   table of the shared system's [`pnoc_sim::system::PhotonicFabric`],
//! * [`network`] — convenience constructors and the `"d-hetpnoc"` registry
//!   entry used by the scenario-based experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dba;
pub mod fabric;
pub mod network;
pub mod reservation;
pub mod token;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::dba::DbaController;
    pub use crate::fabric::DhetFabric;
    pub use crate::network::{build_dhetpnoc_system, register_dhetpnoc_architecture};
    pub use crate::reservation::ReservationTiming;
    pub use crate::token::{token_hop_cycles, token_size_bits, Token};
}

pub use prelude::*;
