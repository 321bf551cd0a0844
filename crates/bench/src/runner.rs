//! Shared machinery for the throughput / energy experiments, built entirely
//! on the **scenario API** (`pnoc_sim::scenario`) over the architecture
//! registry (`pnoc_sim::registry`) and the traffic registry
//! (`pnoc_traffic::factory`).
//!
//! Nothing in this module names a concrete architecture or traffic type:
//! [`Architecture`] and [`TrafficKind`] are handles resolved by name, sweeps
//! are [`Scenario`] runs, and whole experiment grids go through the
//! [`ScenarioMatrix`] batch engine (one flattened, deduplicated, parallel
//! work queue instead of per-sweep parallelism). Adding an architecture
//! (register it with `pnoc_sim::registry::register_architecture`) or a
//! workload (register it with
//! `pnoc_traffic::factory::register_traffic_factory`) makes it available to
//! every experiment without touching this crate.

use pnoc_noc::traffic_model::{OfferedLoad, TrafficModel};
use pnoc_sim::config::{BandwidthSet, SimConfig};
use pnoc_sim::engine::run_to_completion;
use pnoc_sim::registry::{lookup_architecture, ArchitectureBuilder, Provisioning};
use pnoc_sim::scenario::{MatrixResult, Scenario, ScenarioMatrix, ScenarioResult, ScenarioSpec};
use pnoc_sim::stats::SimStats;
use pnoc_sim::sweep::SaturationResult;
use pnoc_traffic::factory::{lookup_traffic_factory, TrafficSpec};
use pnoc_traffic::pattern::PacketShape;
use std::sync::Arc;

/// The simulation effort level, re-exported from the scenario API
/// (`Paper` scale, `Quick` smoke runs, `Smoke` test runs).
pub use pnoc_sim::scenario::Effort as EffortLevel;

/// Makes sure the workspace's architectures are registered. Called by every
/// resolving entry point, so binaries and tests need no explicit setup.
pub fn ensure_registered() {
    d_hetpnoc_repro::install_architectures();
}

/// A handle to a registered architecture, resolved by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Architecture {
    name: String,
    label: String,
}

impl Architecture {
    /// Resolves a registered architecture by name.
    ///
    /// # Panics
    ///
    /// Panics if no architecture of that name is registered; the message
    /// lists the registered names and suggests the nearest match.
    #[must_use]
    pub fn named(name: &str) -> Self {
        let builder = Self::resolve(name);
        Self {
            name: builder.name().to_string(),
            label: builder.label(),
        }
    }

    fn resolve(name: &str) -> Arc<dyn ArchitectureBuilder> {
        ensure_registered();
        lookup_architecture(name).unwrap_or_else(|error| panic!("{error}"))
    }

    /// The Firefly baseline.
    #[must_use]
    pub fn firefly() -> Self {
        Self::named("firefly")
    }

    /// The d-HetPNoC architecture.
    #[must_use]
    pub fn dhetpnoc() -> Self {
        Self::named("d-hetpnoc")
    }

    /// The paper's comparison pair: the Firefly baseline first, d-HetPNoC
    /// second.
    #[must_use]
    pub fn comparison_pair() -> [Architecture; 2] {
        [Self::firefly(), Self::dhetpnoc()]
    }

    /// Every registered architecture, sorted by name.
    #[must_use]
    pub fn all() -> Vec<Architecture> {
        ensure_registered();
        pnoc_sim::registry::registered_architectures()
            .iter()
            .map(|name| Architecture::named(name))
            .collect()
    }

    /// Registry name ("firefly", "d-hetpnoc", ...).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Display label ("Firefly", "d-HetPNoC", ...).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The underlying registry builder.
    #[must_use]
    pub fn builder(&self) -> Arc<dyn ArchitectureBuilder> {
        Self::resolve(&self.name)
    }

    /// Resource-provisioning style declared by the builder (drives the
    /// area/cost model selection in the experiments).
    #[must_use]
    pub fn provisioning(&self) -> Provisioning {
        self.builder().provisioning()
    }
}

/// A handle to a registered traffic pattern, resolved by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficKind {
    name: String,
}

impl TrafficKind {
    /// Resolves a registered traffic pattern by name.
    ///
    /// # Panics
    ///
    /// Panics if no pattern of that name is registered; the message lists
    /// the registered names and suggests the nearest match.
    #[must_use]
    pub fn named(name: &str) -> Self {
        if let Err(error) = lookup_traffic_factory(name) {
            panic!("{error}");
        }
        Self {
            name: name.to_string(),
        }
    }

    /// The scenarios of Figures 3-3 / 3-4 (uniform + three skews).
    #[must_use]
    pub fn synthetic() -> [TrafficKind; 4] {
        ["uniform-random", "skewed-1", "skewed-2", "skewed-3"].map(TrafficKind::named)
    }

    /// The case studies of Figure 3-5 (four hotspot mixes + real
    /// application).
    #[must_use]
    pub fn case_studies() -> Vec<TrafficKind> {
        [
            "hotspot-10pct-skewed-2",
            "hotspot-10pct-skewed-3",
            "hotspot-20pct-skewed-2",
            "hotspot-20pct-skewed-3",
            "real-application",
        ]
        .map(TrafficKind::named)
        .to_vec()
    }

    /// The extended scenarios added by this reproduction (permutation and
    /// bursty patterns).
    #[must_use]
    pub fn extended() -> Vec<TrafficKind> {
        ["transpose", "bit-reverse", "tornado", "bursty-uniform"]
            .map(TrafficKind::named)
            .to_vec()
    }

    /// Every registered traffic pattern, sorted by name.
    #[must_use]
    pub fn all() -> Vec<TrafficKind> {
        pnoc_traffic::factory::registered_traffic_patterns()
            .iter()
            .map(|name| TrafficKind::named(name))
            .collect()
    }

    /// Registry name, also used as the report label.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Human-readable label used in report rows (same as the name).
    #[must_use]
    pub fn label(&self) -> String {
        self.name.clone()
    }

    /// Builds the traffic model for this pattern at the given load and seed,
    /// with geometry taken from `config`.
    #[must_use]
    pub fn build(
        &self,
        config: &SimConfig,
        load: OfferedLoad,
        seed: u64,
    ) -> Box<dyn TrafficModel + Send> {
        let factory = lookup_traffic_factory(&self.name).unwrap_or_else(|error| panic!("{error}"));
        let shape = PacketShape::new(
            config.bandwidth_set.packet_flits(),
            config.bandwidth_set.flit_bits(),
        );
        factory.build(&TrafficSpec::new(config.topology, shape, load, seed))
    }
}

/// Builds the [`ScenarioSpec`] of one experiment cell.
#[must_use]
pub fn spec_for(
    architecture: &Architecture,
    kind: &TrafficKind,
    effort: EffortLevel,
    set: BandwidthSet,
) -> ScenarioSpec {
    ScenarioSpec::new(architecture.name(), kind.name())
        .with_bandwidth_set(set)
        .with_effort(effort)
}

/// Resolves the [`Scenario`] of one experiment cell.
///
/// # Panics
///
/// Panics when either name is no longer registered (cannot normally happen:
/// [`Architecture`] and [`TrafficKind`] handles were themselves resolved).
#[must_use]
pub fn scenario_for(
    architecture: &Architecture,
    kind: &TrafficKind,
    effort: EffortLevel,
    set: BandwidthSet,
) -> Scenario {
    ensure_registered();
    spec_for(architecture, kind, effort, set)
        .resolve()
        .unwrap_or_else(|error| panic!("{error}"))
}

/// Runs one simulation of one architecture at one offered load (at the
/// architecture's default parameters; use the scenario API's `arch_params`
/// for other design points).
#[must_use]
pub fn run_once(
    architecture: &Architecture,
    config: SimConfig,
    kind: &TrafficKind,
    load: f64,
) -> SimStats {
    let traffic = kind.build(&config, OfferedLoad::new(load), config.seed);
    let builder = architecture.builder();
    let mut network = builder.build(config, &builder.default_params(), traffic);
    run_to_completion(&mut *network)
}

/// Sweeps the offered load for one architecture and traffic scenario through
/// the scenario engine (ladder points in parallel).
#[must_use]
pub fn saturation_sweep(
    architecture: &Architecture,
    kind: &TrafficKind,
    effort: EffortLevel,
    set: BandwidthSet,
) -> SaturationResult {
    scenario_for(architecture, kind, effort, set).run().result
}

/// The streamed latency percentiles (p50/p95/p99, in cycles) of one
/// scenario at its saturation point, read from the per-point
/// [`MetricReport`](pnoc_sim::metrics::MetricReport) the sweep engine
/// attaches. `None` when the sweep is empty or the point delivered nothing.
#[must_use]
pub fn latency_percentiles_at_saturation(result: &ScenarioResult) -> Option<[u64; 3]> {
    let index = result.result.saturation_index()?;
    let sketch = result.result.points[index]
        .metrics
        .histogram("latency_cycles")?;
    Some([
        sketch.percentile(50.0)?,
        sketch.percentile(95.0)?,
        sketch.percentile(99.0)?,
    ])
}

/// The outcome of comparing two architectures on one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// Bandwidth set of the experiment.
    pub bandwidth_set: String,
    /// Traffic scenario label.
    pub traffic: String,
    /// Baseline architecture label.
    pub baseline: String,
    /// Candidate architecture label.
    pub candidate: String,
    /// Baseline peak aggregate bandwidth, Gb/s.
    pub baseline_peak_gbps: f64,
    /// Candidate peak aggregate bandwidth, Gb/s.
    pub candidate_peak_gbps: f64,
    /// Baseline packet energy at the common operating point, pJ.
    pub baseline_packet_energy_pj: f64,
    /// Candidate packet energy at the common operating point, pJ.
    pub candidate_packet_energy_pj: f64,
    /// Baseline average latency at the common operating point, cycles.
    pub baseline_latency_cycles: f64,
    /// Candidate average latency at the common operating point, cycles.
    pub candidate_latency_cycles: f64,
}

impl ComparisonRow {
    /// Peak-bandwidth improvement of the candidate over the baseline,
    /// percent.
    #[must_use]
    pub fn bandwidth_gain_percent(&self) -> f64 {
        if self.baseline_peak_gbps == 0.0 {
            0.0
        } else {
            (self.candidate_peak_gbps - self.baseline_peak_gbps) / self.baseline_peak_gbps * 100.0
        }
    }

    /// Packet-energy reduction of the candidate relative to the baseline,
    /// percent (positive = candidate dissipates less).
    #[must_use]
    pub fn energy_saving_percent(&self) -> f64 {
        if self.baseline_packet_energy_pj == 0.0 {
            0.0
        } else {
            (self.baseline_packet_energy_pj - self.candidate_packet_energy_pj)
                / self.baseline_packet_energy_pj
                * 100.0
        }
    }
}

/// Builds a [`ComparisonRow`] from the two scenario results of one cell.
///
/// Peak bandwidth is each architecture's own sustainable (saturation)
/// bandwidth. Packet energy and latency are compared at a **common operating
/// point** — the baseline's saturation load — so that the energy difference
/// reflects how each architecture handles the same traffic (shorter buffer
/// residence under d-HetPNoC, Section 3.4.1.2) rather than how far past
/// saturation each one happens to be driven.
#[must_use]
pub fn comparison_from(
    baseline: &Architecture,
    candidate: &Architecture,
    base: &ScenarioResult,
    cand: &ScenarioResult,
) -> ComparisonRow {
    let common_idx = base
        .result
        .saturation_index()
        .unwrap_or(0)
        .min(cand.result.points.len().saturating_sub(1));
    let energy_at = |sweep: &SaturationResult| {
        sweep
            .points
            .get(common_idx)
            .map(|p| p.stats.packet_energy_pj())
            .unwrap_or(0.0)
    };
    let latency_at = |sweep: &SaturationResult| {
        sweep
            .points
            .get(common_idx)
            .map(|p| p.stats.average_packet_latency())
            .unwrap_or(0.0)
    };
    ComparisonRow {
        bandwidth_set: base.spec.bandwidth_set.label().to_string(),
        traffic: base.spec.traffic.clone(),
        baseline: baseline.label().to_string(),
        candidate: candidate.label().to_string(),
        baseline_peak_gbps: base.result.sustainable_bandwidth_gbps(),
        candidate_peak_gbps: cand.result.sustainable_bandwidth_gbps(),
        baseline_packet_energy_pj: energy_at(&base.result),
        candidate_packet_energy_pj: energy_at(&cand.result),
        baseline_latency_cycles: latency_at(&base.result),
        candidate_latency_cycles: latency_at(&cand.result),
    }
}

/// Compares two registered architectures across a whole (bandwidth set ×
/// traffic) grid in **one matrix run**: every sweep point of every cell goes
/// into one deduplicated batch on the persistent `pnoc-exec` pool, so short
/// sweeps no longer idle behind long ones and no threads are spawned per
/// call. Rows come back in `sets`-major, `kinds`-minor order.
///
/// # Panics
///
/// Panics if the matrix fails to resolve (cannot normally happen: the
/// handles were themselves resolved against the registries).
#[must_use]
pub fn comparison_rows(
    baseline: &Architecture,
    candidate: &Architecture,
    effort: EffortLevel,
    sets: &[BandwidthSet],
    kinds: &[TrafficKind],
) -> Vec<ComparisonRow> {
    ensure_registered();
    let matrix = ScenarioMatrix::new()
        .architectures([baseline.name(), candidate.name()])
        .traffics(kinds.iter().map(TrafficKind::name))
        .bandwidth_sets(sets.iter().copied())
        .effort(effort);
    let outcome = matrix.run().unwrap_or_else(|error| panic!("{error}"));
    let cell = |matrix: &MatrixResult, arch: &Architecture, kind: &TrafficKind, set| {
        matrix
            .find(arch.name(), kind.name(), set)
            .unwrap_or_else(|| {
                panic!(
                    "matrix result is missing the ({}, {}) cell",
                    arch.name(),
                    kind.name()
                )
            })
            .clone()
    };
    let mut rows = Vec::with_capacity(sets.len() * kinds.len());
    for &set in sets {
        for kind in kinds {
            let base = cell(&outcome, baseline, kind, set);
            let cand = cell(&outcome, candidate, kind, set);
            rows.push(comparison_from(baseline, candidate, &base, &cand));
        }
    }
    rows
}

/// Compares two registered architectures on one scenario at one bandwidth
/// set (a 1×1 [`comparison_rows`] grid).
#[must_use]
pub fn compare(
    baseline: &Architecture,
    candidate: &Architecture,
    effort: EffortLevel,
    set: BandwidthSet,
    kind: &TrafficKind,
) -> ComparisonRow {
    comparison_rows(
        baseline,
        candidate,
        effort,
        &[set],
        std::slice::from_ref(kind),
    )
    .pop()
    .expect("a 1x1 grid yields exactly one row")
}

/// Compares the paper's pair (Firefly baseline vs d-HetPNoC) on one
/// scenario.
#[must_use]
pub fn compare_architectures(
    effort: EffortLevel,
    set: BandwidthSet,
    kind: &TrafficKind,
) -> ComparisonRow {
    compare(
        &Architecture::firefly(),
        &Architecture::dhetpnoc(),
        effort,
        set,
        kind,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_handles_resolve_and_label() {
        let all = Architecture::all();
        assert!(all.len() >= 3, "expected ≥3 architectures, got {all:?}");
        let [firefly, dhet] = Architecture::comparison_pair();
        assert_eq!(firefly.name(), "firefly");
        assert_eq!(firefly.label(), "Firefly");
        assert_eq!(dhet.name(), "d-hetpnoc");
        assert_eq!(dhet.label(), "d-HetPNoC");
    }

    #[test]
    #[should_panic(expected = "unknown architecture")]
    fn unknown_architecture_panics_with_the_registered_names() {
        let _ = Architecture::named("warp-drive");
    }

    #[test]
    #[should_panic(expected = "did you mean 'd-hetpnoc'")]
    fn misspelled_architecture_panics_with_a_suggestion() {
        let _ = Architecture::named("d-hetpnok");
    }

    #[test]
    #[should_panic(expected = "unknown traffic pattern")]
    fn unknown_traffic_pattern_panics() {
        let _ = TrafficKind::named("smoke-signals");
    }

    #[test]
    fn traffic_kinds_have_distinct_labels_and_cover_the_registry() {
        let mut labels: Vec<String> = TrafficKind::synthetic()
            .iter()
            .map(TrafficKind::label)
            .collect();
        labels.extend(TrafficKind::case_studies().iter().map(TrafficKind::label));
        labels.extend(TrafficKind::extended().iter().map(TrafficKind::label));
        let before = labels.len();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), before, "labels must be unique");
        assert!(TrafficKind::all().len() >= 7);
    }

    #[test]
    fn quick_comparison_produces_sane_numbers() {
        let row = compare_architectures(
            EffortLevel::Smoke,
            BandwidthSet::Set1,
            &TrafficKind::named("skewed-2"),
        );
        assert_eq!(row.baseline, "Firefly");
        assert_eq!(row.candidate, "d-HetPNoC");
        assert!(row.baseline_peak_gbps > 0.0);
        assert!(row.candidate_peak_gbps > 0.0);
        assert!(row.baseline_packet_energy_pj > 0.0);
        assert!(row.candidate_packet_energy_pj > 0.0);
        // Both architectures share the same aggregate wavelength budget, so
        // neither can be more than ~2× the photonic limit even with
        // intra-cluster traffic counted.
        assert!(row.baseline_peak_gbps < 1600.0);
        assert!(row.candidate_peak_gbps < 1600.0);
    }

    #[test]
    fn grid_comparison_matches_the_single_cell_path() {
        let kind = TrafficKind::named("skewed-3");
        let [firefly, dhet] = Architecture::comparison_pair();
        let grid = comparison_rows(
            &firefly,
            &dhet,
            EffortLevel::Smoke,
            &[BandwidthSet::Set1],
            std::slice::from_ref(&kind),
        );
        let single = compare(
            &firefly,
            &dhet,
            EffortLevel::Smoke,
            BandwidthSet::Set1,
            &kind,
        );
        assert_eq!(grid, vec![single], "batched grid must equal per-cell runs");
    }

    #[test]
    fn saturation_latency_percentiles_are_present_and_ordered() {
        let outcome = scenario_for(
            &Architecture::named("uniform-fabric"),
            &TrafficKind::named("uniform-random"),
            EffortLevel::Smoke,
            BandwidthSet::Set1,
        )
        .run();
        let [p50, p95, p99] =
            latency_percentiles_at_saturation(&outcome).expect("smoke sweep delivers packets");
        assert!(p50 > 0);
        assert!(p50 <= p95 && p95 <= p99, "percentiles must be monotone");
        let max = outcome
            .result
            .saturation_point()
            .and_then(|p| p.metrics.histogram("latency_cycles"))
            .and_then(|h| h.max())
            .expect("sketch recorded");
        assert!(p99 <= max);
    }

    #[test]
    fn run_once_honours_the_architecture_label() {
        let config = EffortLevel::Quick.config(BandwidthSet::Set1);
        let load = config.estimated_saturation_load() * 0.5;
        let kind = TrafficKind::named("uniform-random");
        let firefly = run_once(&Architecture::firefly(), config, &kind, load);
        let dhet = run_once(&Architecture::dhetpnoc(), config, &kind, load);
        assert_eq!(firefly.architecture, "firefly");
        assert_eq!(dhet.architecture, "d-hetpnoc");
    }

    #[test]
    fn extended_patterns_flow_through_the_uniform_test_fabric() {
        let config = EffortLevel::Smoke.config(BandwidthSet::Set1);
        let load = config.estimated_saturation_load() * 0.8;
        let arch = Architecture::named("uniform-fabric");
        for kind in TrafficKind::extended() {
            let stats = run_once(&arch, config, &kind, load);
            assert!(
                stats.delivered_packets > 0,
                "pattern '{}' delivered nothing",
                kind.name()
            );
        }
    }
}
