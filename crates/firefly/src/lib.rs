//! # pnoc-firefly — the crossbar-based Firefly baseline PNoC
//!
//! Firefly (Pan et al., ISCA 2009 \[20\]) is the baseline architecture of the
//! thesis: a hybrid, hierarchical photonic NoC in which clusters of cores
//! communicate electrically inside the cluster and photonically between
//! clusters over a reservation-assisted Single-Write-Multiple-Read (R-SWMR)
//! crossbar. Every cluster owns a *statically provisioned* write channel of
//! `total wavelengths / 16` DWDM wavelengths; all transmissions use the full
//! channel width regardless of the application's actual bandwidth need —
//! which is exactly the limitation d-HetPNoC removes.
//!
//! * [`fabric`] — the [`pnoc_sim::system::PhotonicFabric`] implementation
//!   with uniform static wavelength allocation,
//! * [`network`] — convenience constructors and the `"firefly"` registry
//!   entry used by the scenario-based experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fabric;
pub mod network;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::fabric::FireflyFabric;
    pub use crate::network::{
        build_firefly_system, register_firefly_architecture, FireflyArchitecture,
    };
}

pub use prelude::*;
