//! Integration tests of the scenario engine through the full registry stack:
//! for every real architecture, a parallel scenario run must be
//! bitwise-identical to the sequential run, and every registered workload
//! must drive the network end to end.

use pnoc_bench::experiments::COMPARISON_PAIR;
use pnoc_bench::runner::ensure_registered;
use pnoc_sim::config::BandwidthSet;
use pnoc_sim::scenario::{Effort, Scenario, ScenarioMatrix, ScenarioSpec};
use pnoc_sim::sweep::{derive_point_seed, SweepMode};
use pnoc_traffic::factory::registered_traffic_patterns;

fn smoke_scenario(architecture: &str, traffic: &str) -> Scenario {
    ensure_registered();
    ScenarioSpec::new(architecture, traffic)
        .with_effort(Effort::Smoke)
        .resolve()
        .expect("registered names")
}

#[test]
fn parallel_scenarios_are_bitwise_identical_for_both_paper_architectures() {
    // Forced worker counts (atomic override, not env mutation) exercise the
    // parallel code path for real even on single-core hosts; every count must
    // reproduce the sequential sweep.
    for architecture in COMPARISON_PAIR {
        let scenario = smoke_scenario(architecture, "skewed-2");
        let sequential = scenario.run_with_mode(SweepMode::Sequential);
        assert!(
            sequential
                .result
                .points
                .iter()
                .any(|p| p.stats.delivered_packets > 0),
            "{architecture}: the sweep delivered nothing, the comparison would be vacuous"
        );
        for workers in [1, 2, 4, 8] {
            pnoc_exec::set_worker_override(workers);
            let parallel = scenario.run_with_mode(SweepMode::Parallel);
            assert_eq!(
                sequential, parallel,
                "{architecture}: parallel scenario run on {workers} worker(s) must be \
                 bitwise-identical to sequential"
            );
        }
    }
}

#[test]
fn scenario_points_use_derived_seeds() {
    // Two runs from the same base seed must reproduce exactly; a different
    // base seed must change the sweep (the per-point seed really is derived
    // from the base seed).
    let scenario = smoke_scenario("firefly", "uniform-random");
    let a = scenario.run_with_mode(SweepMode::Sequential);
    let b = scenario.run_with_mode(SweepMode::Sequential);
    assert_eq!(a, b, "same base seed must reproduce exactly");

    let reseeded = scenario
        .spec()
        .clone()
        .with_seed(scenario.spec().seed ^ 0xDEAD_BEEF)
        .resolve()
        .expect("still registered");
    let c = reseeded.run_with_mode(SweepMode::Sequential);
    assert_ne!(
        a.result, c.result,
        "a different base seed must change the sweep"
    );
    assert_ne!(a.point_seeds(), c.point_seeds());
    assert_eq!(
        a.point_seeds()[0],
        derive_point_seed(scenario.spec().seed, 0)
    );
}

#[test]
fn every_registered_workload_drives_every_paper_architecture() {
    // One smoke batch: both paper architectures × every registered pattern,
    // each at a single load just below the estimated saturation point.
    ensure_registered();
    let load = Effort::Smoke
        .config(BandwidthSet::Set1)
        .estimated_saturation_load()
        * 0.8;
    let batch = ScenarioMatrix::new()
        .architectures(COMPARISON_PAIR)
        .all_traffics()
        .effort(Effort::Smoke)
        .ladder(vec![load])
        .run()
        .expect("registered names");
    assert_eq!(
        batch.scenarios.len(),
        COMPARISON_PAIR.len() * registered_traffic_patterns().len()
    );
    for scenario in &batch.scenarios {
        let [point] = scenario.result.points.as_slice() else {
            panic!("{}: a one-entry ladder yields one point", scenario.spec);
        };
        assert!(
            point.stats.delivered_packets > 0,
            "{}: delivered nothing",
            scenario.spec
        );
    }
}
