//! # pnoc-sim — cycle-accurate simulation engine
//!
//! The thesis evaluates the Firefly baseline and the proposed d-HetPNoC with
//! a cycle-accurate simulator that "models the progress of the data flits
//! accurately per clock cycle accounting for those flits that reach the
//! destination as well as those that are dropped" (Section 3.4.1). This crate
//! is that simulator:
//!
//! * [`clock`] — the 2.5 GHz clock and cycle ↔ time conversions,
//! * [`config`] — Table 3-3 simulation parameters and the three bandwidth
//!   sets of Table 3-1,
//! * [`stats`] — throughput, latency, drop and energy accounting, from which
//!   *peak bandwidth* and *packet energy* are derived,
//! * [`metrics`] — the observability surface: counters, gauges, mergeable
//!   streaming quantile sketches and labelled families, collected by
//!   engine-driven [`metrics::Probe`]s and streamed as JSON lines through
//!   the [`metrics::JsonlSink`],
//! * [`system`] — the full cluster system (cores, electrical core switches,
//!   photonic routers, reservation-assisted photonic transfers) over one
//!   [`system::PhotonicFabric`] table: a channel table (Firefly,
//!   `uniform-fabric`) or a class table (d-HetPNoC). The per-cycle loop is
//!   compiled once, here,
//! * [`engine`] — warm-up / measurement driver,
//! * [`registry`] — the open-ended architecture registry
//!   ([`registry::ArchitectureBuilder`]) that Firefly, d-HetPNoC and
//!   `uniform-fabric` plug into,
//! * [`params`] — the typed architecture-parameter system: every builder
//!   declares a [`params::ParamSchema`] (kind, default, bounds, doc per
//!   knob), `name{key=value,...}` specs parse into validated parameter
//!   sets, and scenario matrices sweep parameter axes like any other axis,
//! * [`sweep`] — the generic (optionally parallel) saturation-sweep driver
//!   shared by every architecture, with deterministic per-point seed
//!   derivation,
//! * [`scenario`] — the typed, serializable experiment API: a
//!   [`scenario::ScenarioSpec`] names one (architecture × traffic ×
//!   bandwidth set × effort × seed × ladder) run, a
//!   [`scenario::ScenarioMatrix`] batches whole cross-products into one
//!   flattened, deduplicated, parallel work queue,
//! * [`workload`] — the closed-loop workload engine: a
//!   [`workload::WorkloadDriver`] injects a finite flow DAG (see the
//!   `pnoc-workload` crate), observes deliveries through the event stream,
//!   releases dependent flows and terminates at DAG-drain, reporting
//!   flow-completion-time quantiles and per-collective makespans,
//! * [`report`] — plain-text table rendering used by the experiment harness.
//!
//! Deterministic fault injection lives in the `pnoc-faults` crate: a
//! validated [`pnoc_faults::FaultPlan`] attaches to any scenario (the
//! `#faults=` shorthand suffix, [`scenario::ScenarioSpec::with_faults`], or
//! the [`scenario::ScenarioMatrix::fault_plans`] axis) and the
//! [`system::PhotonicSystem`] applies and repairs each fault at its exact
//! onset cycle on the one [`pnoc_faults::FaultSurface`] it owns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod config;
pub mod engine;
pub mod metrics;
pub mod params;
pub mod registry;
pub mod report;
pub mod scenario;
pub mod stats;
pub mod sweep;
pub mod system;
pub mod workload;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::clock::Clock;
    pub use crate::config::{BandwidthSet, SimConfig};
    pub use crate::engine::{
        run_to_completion, run_to_completion_with, run_until_with, CycleNetwork,
    };
    pub use crate::metrics::{
        EventSink, JsonlSink, MetricReport, MetricRow, MetricValue, MetricsProbe, Probe,
        QuantileSketch, SimEvent,
    };
    pub use crate::params::{ArchParamError, ArchParams, ParamKind, ParamSchema, ResolvedParams};
    pub use crate::registry::{
        lookup_architecture, register_architecture, registered_architectures, ArchitectureBuilder,
        Provisioning,
    };
    pub use crate::report::Table;
    pub use crate::scenario::{
        engine_fingerprint, point_cache_key, run_specs, run_specs_with_cache, CacheStats, Effort,
        MatrixResult, PointCache, Scenario, ScenarioError, ScenarioMatrix, ScenarioResult,
        ScenarioSpec,
    };
    pub use crate::stats::SimStats;
    pub use crate::sweep::{derive_point_seed, SaturationResult, SweepMode, SweepPoint};
    pub use crate::system::{PhotonicFabric, PhotonicSystem};
    pub use crate::workload::{FlowProbe, WorkloadDriver};
    pub use pnoc_faults::{
        FaultController, FaultError, FaultEvent, FaultKind, FaultPlan, FaultSurface, FaultTarget,
    };
}

pub use prelude::*;
