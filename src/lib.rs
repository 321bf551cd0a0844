//! # d-hetpnoc-repro — umbrella crate
//!
//! A from-scratch Rust reproduction of *"Heterogeneous Photonic
//! Network-on-Chip with Dynamic Bandwidth Allocation"* (Shah, SOCC 2014):
//! a cycle-accurate photonic NoC simulator, the crossbar-based Firefly
//! baseline, and the proposed d-HetPNoC architecture with token-based
//! dynamic bandwidth allocation, together with the traffic generators,
//! photonic energy/area models and the benchmark harness that
//! regenerates every table and figure of the paper's evaluation.
//!
//! This crate re-exports the workspace crates under friendly names, hosts
//! the runnable examples (`examples/`) and the cross-crate integration and
//! property tests (`tests/`), and wires every architecture into the
//! process-global registry (see [`install_architectures`]).
//!
//! ## Quick start: the scenario API
//!
//! One experiment is one [`ScenarioSpec`](sim::scenario::ScenarioSpec): the
//! architecture and workload by registry name, the bandwidth set, the effort
//! level and the base seed — typed, validated against the registries (with
//! "did you mean" suggestions on typos) and serializable. Running it sweeps
//! the offered-load ladder in parallel, each point an independent
//! deterministic simulation, bitwise-identical to a sequential run:
//!
//! ```
//! use d_hetpnoc_repro::prelude::*;
//!
//! // Make "firefly", "d-hetpnoc" and "uniform-fabric" resolvable.
//! d_hetpnoc_repro::install_architectures();
//!
//! // A reduced-effort scenario so this doc test stays fast.
//! let outcome = ScenarioSpec::new("d-hetpnoc", "skewed-3")
//!     .with_bandwidth_set(BandwidthSet::Set1)
//!     .with_effort(Effort::Smoke)
//!     .resolve()
//!     .expect("both names are registered")
//!     .run();
//! assert_eq!(outcome.result.points.len(), outcome.point_seeds().len());
//! assert!(outcome.result.peak_bandwidth_gbps() > 0.0);
//!
//! // Whole evaluation grids are one batch: every (scenario, ladder point)
//! // pair goes into a single flattened, deduplicated executor work queue.
//! let matrix = ScenarioMatrix::new()
//!     .architectures(["firefly", "d-hetpnoc"])
//!     .traffics(["tornado"])
//!     .effort(Effort::Smoke);
//! let batch = matrix.run().expect("all names registered");
//! assert_eq!(batch.scenarios.len(), 2);
//! ```
//!
//! The paper's own evaluation runs exactly that way: `pnoc-bench`'s
//! `experiments::run` unions the cells of the named figures into one such
//! batch (each distinct cell simulates once, through the result cache when
//! one is attached) and every figure is a view over the finished
//! `MatrixResult`.
//!
//! `build_firefly_system` and `build_dhetpnoc_system` are the direct
//! constructors of one leaf system, outside the registry; the tests, the
//! examples and `tests/footprint.rs` use them. Every sweep goes through the
//! scenario engine.
//!
//! ## Metrics
//!
//! Every sweep point carries a typed
//! [`MetricReport`](sim::metrics::MetricReport) — streaming latency
//! quantiles (p50/p95/p99/max), per-node and per-cluster-pair breakdowns,
//! windowed throughput — collected by an engine-driven
//! [`MetricsProbe`](sim::metrics::MetricsProbe) and exported as JSON lines
//! through [`JsonlSink`](sim::metrics::JsonlSink); see `pnoc_sim::metrics`
//! and `repro --metrics`.
//!
//! ## Per-point seed derivation
//!
//! Sweep point `i` simulates with
//! `seed = splitmix64(config.seed XOR (i + 1) · 0x9E3779B97F4A7C15)`
//! (see `pnoc_sim::sweep::derive_point_seed`), so a point's result depends
//! only on the base seed, the point index and the load — never on thread
//! scheduling. That is what makes the parallel sweep reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The d-HetPNoC architecture (the paper's contribution).
pub use pnoc_dhetpnoc as dhetpnoc;
/// The Firefly baseline architecture.
pub use pnoc_firefly as firefly;
/// Hierarchical multi-pod topologies composed from registered leaf fabrics.
pub use pnoc_hier as hier;
/// Electrical NoC substrate (flits, virtual channels, routers, topology).
pub use pnoc_noc as noc;
/// Photonic energy, area and static-power models.
pub use pnoc_photonics as photonics;
/// Cycle-accurate simulation engine.
pub use pnoc_sim as sim;
/// Traffic generators (uniform, skewed, hotspot, GPU applications,
/// permutation, bursty) and the traffic registry.
pub use pnoc_traffic as traffic;
/// Flow-level workloads: collective DAG generators and the workload
/// registry behind the closed-loop scenario variant.
pub use pnoc_workload as workload;

/// Registers every architecture of this workspace into the process-global
/// architecture registry: `"firefly"`, `"d-hetpnoc"`, the hierarchical
/// composition `"hier"`, and (built into `pnoc-sim` itself)
/// `"uniform-fabric"`, Firefly's static allocation with a wavelength-budget
/// knob.
///
/// Idempotent and cheap; call it before resolving architectures by name.
/// Crates defining additional architectures register themselves with
/// `pnoc_sim::registry::register_architecture` — nothing here (or in the
/// benchmark harness) needs to change for a new architecture to become
/// sweepable.
pub fn install_architectures() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        pnoc_firefly::network::register_firefly_architecture();
        pnoc_dhetpnoc::network::register_dhetpnoc_architecture();
        // After the leaves: hier resolves its leaf builder by name at build
        // time, so the leaves must already be registered.
        pnoc_hier::register_hier_architecture();
    });
}

/// The most commonly used items across the whole workspace.
pub mod prelude {
    pub use pnoc_dhetpnoc::prelude::*;
    pub use pnoc_firefly::prelude::*;
    pub use pnoc_noc::prelude::*;
    pub use pnoc_photonics::prelude::*;
    pub use pnoc_sim::prelude::*;
    pub use pnoc_traffic::prelude::*;
    pub use pnoc_workload::prelude::*;
}

#[cfg(test)]
mod tests {
    #[test]
    fn install_architectures_is_idempotent_and_complete() {
        super::install_architectures();
        super::install_architectures();
        let names = pnoc_sim::registry::registered_architectures();
        for expected in ["d-hetpnoc", "firefly", "hier", "uniform-fabric"] {
            assert!(
                names.contains(&expected.to_string()),
                "architecture '{expected}' missing from {names:?}"
            );
        }
    }
}
