//! Integration tests of the scenario-matrix batch engine over the real
//! architectures: the flattened, deduplicated parallel work queue must be
//! bitwise-identical to running the same scenarios one by one sequentially,
//! and the `repro --matrix` JSON artifact must be deterministic.

use pnoc_bench::runner::ensure_registered;
use pnoc_bench::scenario_io::matrix_json;
use pnoc_sim::config::BandwidthSet;
use pnoc_sim::scenario::{Effort, ScenarioMatrix};

fn smoke_matrix() -> ScenarioMatrix {
    ensure_registered();
    ScenarioMatrix::new()
        .architectures(["firefly", "d-hetpnoc", "uniform-fabric"])
        .traffics(["tornado", "bursty-uniform"])
        .bandwidth_sets([BandwidthSet::Set1])
        .effort(Effort::Smoke)
}

#[test]
fn matrix_run_is_bitwise_identical_to_sequential_per_scenario_runs() {
    pnoc_exec::set_worker_override(4);
    let matrix = smoke_matrix();
    let batched = matrix.run().expect("all names registered");
    let sequential = matrix.run_sequential().expect("all names registered");
    assert_eq!(batched.scenarios.len(), 6);
    assert!(
        batched
            .scenarios
            .iter()
            .flat_map(|s| &s.result.points)
            .any(|p| p.stats.delivered_packets > 0),
        "the matrix delivered nothing, the comparison would be vacuous"
    );
    assert!(
        batched.bitwise_eq(&sequential),
        "flattened matrix run must be bitwise-identical to per-scenario sequential runs"
    );
    // `uniform-fabric` at its default budget builds Firefly's network, so
    // its points ride on Firefly's runs; the sequential reference shares
    // nothing.
    assert_eq!(batched.unique_points, batched.total_points);
    assert!(
        batched.cache.simulated < batched.unique_points,
        "{} simulations for {} unique points: equal networks did not share a run",
        batched.cache.simulated,
        batched.unique_points
    );
}

#[test]
fn param_axis_matrix_is_bitwise_deterministic_on_real_architectures() {
    pnoc_exec::set_worker_override(4);
    ensure_registered();
    // A 2-value radix sweep over the Firefly baseline: same flattened queue,
    // same bitwise-determinism contract as every other axis.
    let matrix = ScenarioMatrix::new()
        .architectures(["firefly"])
        .arch_params("radix", ["8", "32"])
        .traffics(["tornado"])
        .bandwidth_sets([BandwidthSet::Set1])
        .effort(Effort::Smoke);
    let batched = matrix.run().expect("radix is declared by firefly");
    let sequential = matrix.run_sequential().expect("radix is declared");
    assert_eq!(batched.scenarios.len(), 2);
    assert!(
        batched.bitwise_eq(&sequential),
        "param-swept matrix must be bitwise-identical to sequential runs"
    );
    assert_eq!(
        batched.unique_points, batched.total_points,
        "distinct radix values must not share simulations"
    );
    // The two design points genuinely differ, and the JSON artifact is
    // reproducible.
    assert_ne!(batched.scenarios[0].result, batched.scenarios[1].result);
    let again = matrix_json(&matrix.run().expect("registered")).render();
    assert_eq!(matrix_json(&batched).render(), again);
}

#[test]
fn matrix_json_artifact_is_deterministic_across_runs() {
    let matrix = smoke_matrix();
    let first = matrix_json(&matrix.run().expect("registered")).render();
    let second = matrix_json(&matrix.run().expect("registered")).render();
    assert_eq!(
        first, second,
        "two runs of the same matrix must produce byte-identical JSON"
    );
}

#[test]
fn default_effort_grid_expands_all_bandwidth_sets() {
    // The repro --matrix default shape: every architecture × 2 traffics ×
    // 3 sets. Only expansion is checked here (running it is CI's job).
    ensure_registered();
    let specs = ScenarioMatrix::new()
        .all_architectures()
        .traffics(["tornado", "bursty-uniform"])
        .all_bandwidth_sets()
        .effort(Effort::Quick)
        .specs();
    let architectures = pnoc_sim::registry::registered_architectures().len();
    assert_eq!(specs.len(), architectures * 2 * 3);
}
