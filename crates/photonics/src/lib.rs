//! # pnoc-photonics — photonic energy, area and static-power models
//!
//! This crate holds the photonic cost models that the evaluation of the
//! Firefly baseline and the d-HetPNoC architecture reads (Chapters 2–3 of
//! the thesis):
//!
//! * [`energy`] — the packet-energy model of Section 3.4.1.2
//!   (Tables 3-4 and 3-5),
//! * [`area`] — the modulator/detector area model of Section 3.4.3
//!   (equations 5–24), with the per-ring footprint from [`mrr`],
//! * [`laser`] / [`thermal`] — laser and heater power (Table 3-4), which
//!   `SimConfig::static_power_mw` turns into the static-power gauge,
//! * [`dwdm`] — wavelength identifiers and wavelength grids,
//! * [`units`] — the unit conversions the models above share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod area;
pub mod dwdm;
pub mod energy;
pub mod laser;
pub mod mrr;
pub mod thermal;
pub mod units;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::area::{AreaModel, AreaReport, RingCounts};
    pub use crate::dwdm::{WavelengthGrid, WavelengthId};
    pub use crate::energy::{EnergyAccumulator, EnergyBreakdown, PhotonicEnergyModel};
    pub use crate::laser::LaserSource;
    pub use crate::mrr::MicroRingResonator;
    pub use crate::thermal::ThermalTuner;
    pub use crate::units::*;
}

pub use prelude::*;
