//! # pnoc-traffic — traffic generation for photonic NoC evaluation
//!
//! The thesis evaluates the NoC architectures with four families of traffic
//! (Sections 3.4.1 and 3.4.2):
//!
//! * **uniform-random** — every core communicates with every other core with
//!   the same data rate and the same bandwidth requirement ([`uniform`]),
//! * **skewed** — applications of four bandwidth classes share the chip and
//!   the frequency of communication is skewed toward the high-bandwidth
//!   applications (Table 3-1 / Table 3-2, [`skewed`]),
//! * **hotspot-coupled-skewed** — a fraction of all traffic additionally
//!   targets a single hotspot core (Section 3.4.2, [`hotspot`]),
//! * **real-application** — parallel GPU applications (MUM, BFS, CP, RAY,
//!   LPS) are mapped onto 12 clusters interacting with 4 memory clusters,
//!   with bandwidth demands derived from a synthetic GPU-memory interaction
//!   model ([`gpu`]). The same module contains the flit-size speedup model
//!   behind Figure 1-1.
//!
//! Two extended scenario families grow the evaluation beyond the paper:
//!
//! * **permutation** — transpose, bit-reverse and tornado, the classic
//!   adversarial fixed-destination patterns (`permutation`),
//! * **bursty** — Markov-modulated on-off uniform traffic (`bursty`).
//!
//! All generators implement [`pnoc_noc::traffic_model::TrafficModel`], carry
//! their own seeded RNG (runs are reproducible), and expose the per-cluster
//! pair bandwidth classes and per-cluster intensities that d-HetPNoC's
//! demand matrix is built from. The [`factory`] module lists every pattern in
//! one closed, name-sorted table, so that downstream harnesses resolve
//! patterns by name.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod bursty;
pub mod demand;
pub mod factory;
pub mod gpu;
pub mod hotspot;
pub mod pattern;
mod permutation;
pub mod skewed;
pub mod uniform;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::demand::DemandMatrix;
    pub use crate::factory::{
        lookup_traffic_factory, registered_traffic_patterns, TrafficFactory, TrafficSpec,
    };
    pub use crate::gpu::{GpuBenchmark, GpuSpeedupModel, RealApplicationTraffic};
    pub use crate::hotspot::HotspotSkewedTraffic;
    pub use crate::pattern::{PacketShape, SkewLevel};
    pub use crate::skewed::SkewedTraffic;
    pub use crate::uniform::UniformRandomTraffic;
}

pub use prelude::*;
