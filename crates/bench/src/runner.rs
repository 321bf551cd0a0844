//! Shared machinery for the throughput / energy experiments: **views** over
//! a finished scenario batch (`pnoc_sim::scenario::MatrixResult`).
//!
//! Nothing here simulates. The experiments describe their cells as plain
//! `ScenarioSpec`s, `experiments::run` simulates the union once, and the
//! functions below read comparison rows and latency percentiles back out of
//! the result. Architectures and traffic patterns are registry *names*
//! (`pnoc_sim::registry`, `pnoc_traffic::factory`); display labels come from
//! `ArchitectureBuilder::label`.

use pnoc_sim::config::BandwidthSet;
use pnoc_sim::registry::{lookup_architecture, ArchitectureBuilder};
use pnoc_sim::scenario::{Effort, MatrixResult, ScenarioResult, ScenarioSpec};
use pnoc_sim::stats::SimStats;
use pnoc_sim::sweep::SaturationResult;
use std::sync::Arc;

/// Makes sure the workspace's architectures are registered. Called by every
/// resolving entry point, so binaries and tests need no explicit setup.
pub fn ensure_registered() {
    d_hetpnoc_repro::install_architectures();
}

/// The scenario batch both cross-engine gates run under the per-cycle and the
/// event-driven executor (`repro --cross-engine-check` and
/// `tests/cross_engine.rs`): an open-loop ladder on every registered
/// architecture (`run_to_completion_with`), closed-loop collectives on both
/// flat architectures (`run_until_with`), and closed-loop hierarchies, whose
/// pods apply the same advance rule inside each epoch.
#[must_use]
pub fn cross_engine_specs(effort: Effort) -> Vec<ScenarioSpec> {
    ensure_registered();
    let mut specs = Vec::new();
    for architecture in pnoc_sim::registry::registered_architectures() {
        specs.push(ScenarioSpec::new(architecture, "skewed-3"));
    }
    for workload in ["allreduce:8", "incast:16"] {
        specs.push(ScenarioSpec::closed_loop("d-hetpnoc", workload));
        specs.push(ScenarioSpec::closed_loop("firefly", workload));
    }
    for (architecture, workload) in [
        // Every hop of the ring crosses pods: all four pods stay idle.
        ("hier{pods=4,leaf=d-hetpnoc}", "allreduce:8"),
        // Three of the flows are pod-local: feed entries interleave with skips.
        ("hier{pods=4,leaf=d-hetpnoc}", "incast:16"),
        // Window edges that are multiples of nothing else in the system.
        ("hier{pods=2,leaf=firefly,epoch=7}", "incast:16"),
    ] {
        specs.push(ScenarioSpec::closed_loop(architecture, workload));
    }
    specs
        .into_iter()
        .map(|spec| spec.with_effort(effort))
        .collect()
}

/// The registry builder behind the architecture name of a finished batch's
/// cell; panics with the registry's did-you-mean message on an unknown name.
pub(crate) fn architecture(name: &str) -> Arc<dyn ArchitectureBuilder> {
    lookup_architecture(name).unwrap_or_else(|error| panic!("{error}"))
}

/// The result of one *(architecture, traffic, bandwidth set)* cell of a
/// finished batch; panics when the batch does not contain it (the caller's
/// `specs` and its view disagree).
pub(crate) fn cell<'a>(
    batch: &'a MatrixResult,
    architecture: &str,
    traffic: &str,
    set: BandwidthSet,
) -> &'a ScenarioResult {
    batch.find(architecture, traffic, set).unwrap_or_else(|| {
        panic!(
            "batch result is missing the ({architecture}, {traffic}, {}) cell",
            set.short_name()
        )
    })
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
pub(crate) struct ComparisonRow {
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
    pub(crate) fn bandwidth_gain_percent(&self) -> f64 {
        if self.baseline_peak_gbps == 0.0 {
            0.0
        } else {
            (self.candidate_peak_gbps - self.baseline_peak_gbps) / self.baseline_peak_gbps * 100.0
        }
    }

    /// Packet-energy reduction of the candidate relative to the baseline,
    /// percent (positive = candidate dissipates less).
    #[must_use]
    pub(crate) fn energy_saving_percent(&self) -> f64 {
        if self.baseline_packet_energy_pj == 0.0 {
            0.0
        } else {
            (self.baseline_packet_energy_pj - self.candidate_packet_energy_pj)
                / self.baseline_packet_energy_pj
                * 100.0
        }
    }
}

/// Builds a [`ComparisonRow`] from the two scenario results of one cell; the
/// row's architecture labels are the registry builders' display labels.
///
/// Peak bandwidth is each architecture's own sustainable (saturation)
/// bandwidth. Packet energy and latency are compared at a **common operating
/// point** — the baseline's saturation load — so that the energy difference
/// reflects how each architecture handles the same traffic (shorter buffer
/// residence under d-HetPNoC, Section 3.4.1.2) rather than how far past
/// saturation each one happens to be driven.
///
/// # Panics
///
/// Panics when a result's architecture name is not registered.
#[must_use]
pub(crate) fn comparison_from(base: &ScenarioResult, cand: &ScenarioResult) -> ComparisonRow {
    let common_idx = base
        .result
        .saturation_index()
        .unwrap_or(0)
        .min(cand.result.points.len().saturating_sub(1));
    let at_common = |sweep: &SaturationResult, read: fn(&SimStats) -> f64| {
        sweep.points.get(common_idx).map_or(0.0, |p| read(&p.stats))
    };
    ComparisonRow {
        bandwidth_set: base.spec.bandwidth_set.label().to_string(),
        traffic: base.spec.traffic.clone(),
        baseline: architecture(&base.spec.architecture).label(),
        candidate: architecture(&cand.spec.architecture).label(),
        baseline_peak_gbps: base.result.sustainable_bandwidth_gbps(),
        candidate_peak_gbps: cand.result.sustainable_bandwidth_gbps(),
        baseline_packet_energy_pj: at_common(&base.result, SimStats::packet_energy_pj),
        candidate_packet_energy_pj: at_common(&cand.result, SimStats::packet_energy_pj),
        baseline_latency_cycles: at_common(&base.result, SimStats::average_packet_latency),
        candidate_latency_cycles: at_common(&cand.result, SimStats::average_packet_latency),
    }
}

/// Reads the comparison of two architectures across a (bandwidth set ×
/// traffic) grid out of a finished batch. Rows come back in `sets`-major,
/// `traffics`-minor order.
///
/// # Panics
///
/// Panics when the batch lacks one of the grid's cells.
#[must_use]
pub(crate) fn comparison_rows(
    batch: &MatrixResult,
    baseline: &str,
    candidate: &str,
    sets: &[BandwidthSet],
    traffics: &[&str],
) -> Vec<ComparisonRow> {
    let mut rows = Vec::with_capacity(sets.len() * traffics.len());
    for &set in sets {
        for traffic in traffics {
            rows.push(comparison_from(
                cell(batch, baseline, traffic, set),
                cell(batch, candidate, traffic, set),
            ));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnoc_sim::registry::registered_architectures;
    use pnoc_sim::scenario::{Effort, ScenarioMatrix, ScenarioSpec};

    #[test]
    fn registry_handles_resolve_and_label() {
        ensure_registered();
        let all = registered_architectures();
        assert!(all.len() >= 3, "expected ≥3 architectures, got {all:?}");
        assert_eq!(architecture("firefly").label(), "Firefly");
        assert_eq!(architecture("d-hetpnoc").label(), "d-HetPNoC");
    }

    #[test]
    #[should_panic(expected = "unknown architecture")]
    fn unknown_architecture_panics_with_the_registered_names() {
        ensure_registered();
        let _ = architecture("warp-drive");
    }

    #[test]
    #[should_panic(expected = "did you mean 'd-hetpnoc'")]
    fn misspelled_architecture_panics_with_a_suggestion() {
        ensure_registered();
        let _ = architecture("d-hetpnok");
    }

    #[test]
    fn quick_comparison_produces_sane_numbers() {
        ensure_registered();
        let batch = ScenarioMatrix::new()
            .architectures(["firefly", "d-hetpnoc"])
            .traffics(["skewed-2"])
            .effort(Effort::Smoke)
            .run()
            .expect("registered names");
        let rows = comparison_rows(
            &batch,
            "firefly",
            "d-hetpnoc",
            &[BandwidthSet::Set1],
            &["skewed-2"],
        );
        let [row] = rows.as_slice() else {
            panic!("a 1x1 grid yields exactly one row, got {rows:?}");
        };
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
    fn saturation_latency_percentiles_are_present_and_ordered() {
        ensure_registered();
        let outcome = ScenarioSpec::new("uniform-fabric", "uniform-random")
            .with_effort(Effort::Smoke)
            .resolve()
            .expect("registered names")
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
}
