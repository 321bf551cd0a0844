//! Integration tests of the scenario engine through the full registry stack:
//! for every real architecture, a parallel scenario run must be
//! bitwise-identical to the sequential run, and every registered workload
//! must drive the network end to end.

use pnoc_bench::runner::{ensure_registered, run_once, Architecture, EffortLevel, TrafficKind};
use pnoc_sim::config::BandwidthSet;
use pnoc_sim::scenario::{Scenario, ScenarioSpec};
use pnoc_sim::sweep::{derive_point_seed, SweepMode};

fn smoke_scenario(architecture: &Architecture, traffic: &str) -> Scenario {
    ensure_registered();
    ScenarioSpec::new(architecture.name(), traffic)
        .with_effort(EffortLevel::Smoke)
        .resolve()
        .expect("registered names")
}

#[test]
fn parallel_scenarios_are_bitwise_identical_for_both_paper_architectures() {
    // Forced worker counts (atomic override, not env mutation) exercise the
    // parallel code path for real even on single-core hosts; every count must
    // reproduce the sequential sweep.
    for architecture in Architecture::comparison_pair() {
        let scenario = smoke_scenario(&architecture, "skewed-2");
        let sequential = scenario.run_with_mode(SweepMode::Sequential);
        assert!(
            sequential
                .result
                .points
                .iter()
                .any(|p| p.stats.delivered_packets > 0),
            "{}: the sweep delivered nothing, the comparison would be vacuous",
            architecture.name()
        );
        for workers in [1, 2, 4, 8] {
            pnoc_exec::set_worker_override(workers);
            let parallel = scenario.run_with_mode(SweepMode::Parallel);
            assert!(
                sequential.bitwise_eq(&parallel),
                "{}: parallel scenario run on {workers} worker(s) must be \
                 bitwise-identical to sequential",
                architecture.name()
            );
        }
    }
}

#[test]
fn scenario_points_use_derived_seeds() {
    // Two runs from the same base seed must reproduce exactly; a different
    // base seed must change the sweep (the per-point seed really is derived
    // from the base seed).
    let architecture = Architecture::firefly();
    let scenario = smoke_scenario(&architecture, "uniform-random");
    let a = scenario.run_with_mode(SweepMode::Sequential);
    let b = scenario.run_with_mode(SweepMode::Sequential);
    assert!(a.bitwise_eq(&b), "same base seed must reproduce exactly");

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
    assert_ne!(a.point_seeds, c.point_seeds);
    assert_eq!(a.point_seeds[0], derive_point_seed(scenario.spec().seed, 0));
}

#[test]
fn every_registered_workload_drives_every_paper_architecture() {
    let config = EffortLevel::Smoke.config(BandwidthSet::Set1);
    let load = config.estimated_saturation_load() * 0.8;
    for architecture in Architecture::comparison_pair() {
        for kind in TrafficKind::all() {
            let stats = run_once(&architecture, config, &kind, load);
            assert!(
                stats.delivered_packets > 0,
                "pattern '{}' delivered nothing on '{}'",
                kind.name(),
                architecture.name()
            );
            assert_eq!(
                stats.traffic,
                kind.name(),
                "stats must carry the pattern name"
            );
        }
    }
}
