//! End-to-end tests of the fault-injection subsystem under the batch
//! engine: fault-free runs are bitwise-identical to pre-fault behaviour
//! (absent plan, `"none"` and the empty string all collapse onto the same
//! simulation), faulted sweeps stay bitwise-deterministic in parallel and
//! sequential mode and differ from the healthy run on every architecture
//! that accepts a plan, `uniform-fabric` at the paper point reports exactly
//! Firefly's rows healthy and faulted, healthy uniform-random d-HetPNoC
//! reports Firefly's results but for the set-3 reservation, injected faults
//! measurably degrade closed-loop completion times on the same seed, and the
//! result cache never serves a healthy point for a faulted scenario (or vice
//! versa).

use pnoc_bench::runner::ensure_registered;
use pnoc_bench::scenario_io::matrix_json;
use pnoc_sim::config::BandwidthSet;
use pnoc_sim::metrics::render_jsonl_row;
use pnoc_sim::scenario::{run_specs, run_specs_with_cache, Effort, ScenarioMatrix, ScenarioSpec};
use pnoc_store::{Json, ResultStore};
use std::path::PathBuf;

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pnoc-faults-it-{}-{tag}", std::process::id()))
}

#[test]
fn healthy_spellings_are_identical_to_a_fault_free_run_and_share_points() {
    ensure_registered();
    let base = ScenarioSpec::new("firefly", "tornado").with_effort(Effort::Smoke);
    let specs = vec![
        base.clone(),
        base.clone().with_faults("none"),
        base.clone().with_faults(""),
    ];
    let outcome = run_specs(&specs).expect("all spellings resolve");
    // `with_faults("")` normalises to the absent plan and `"none"` resolves
    // to the empty plan, so all three spellings dedup onto one set of
    // simulated points...
    assert_eq!(outcome.scenarios.len(), 3);
    assert_eq!(outcome.total_points, 3 * outcome.unique_points);
    // ...and produce the same results as running the fault-free spec alone
    // (the pre-fault behaviour).
    let alone = run_specs(&[base]).expect("resolves");
    assert_eq!(
        outcome.scenarios[0], alone.scenarios[0],
        "a fault-free run must be bitwise-identical to pre-fault behaviour"
    );
    // The 'none' spec echoes its spelling, but its simulated points and
    // seeds are the healthy ones.
    assert_eq!(outcome.scenarios[1].spec.faults.as_deref(), Some("none"));
    assert_eq!(
        outcome.scenarios[1].result, alone.scenarios[0].result,
        "faults='none' must reuse the exact healthy simulation"
    );
    assert_eq!(
        outcome.scenarios[1].point_seeds(),
        alone.scenarios[0].point_seeds()
    );
    // Healthy reports carry no fault metrics at all — the exact pre-fault
    // bytes.
    for point in &outcome.scenarios[0].result.points {
        assert!(point.metrics.gauge("faults_applied").is_none());
        assert!(point.metrics.counter("fault_applied_events").is_none());
    }
}

#[test]
fn faulted_presets_sweep_both_architectures_deterministically() {
    pnoc_exec::set_worker_override(4);
    ensure_registered();
    let healthy = ScenarioMatrix::new()
        .architectures(["firefly", "d-hetpnoc", "uniform-fabric"])
        .traffics(["tornado"])
        .effort(Effort::Smoke);
    let matrix = healthy.clone().fault_plans(["single-link", "ring-drift"]);
    assert_eq!(matrix.specs().len(), 6, "3 architectures × 2 presets");
    let parallel = matrix.run().expect("registered");
    let sequential = matrix.run_sequential().expect("registered");
    assert!(
        parallel.bitwise_eq(&sequential),
        "faulted sweeps must be bitwise-identical in parallel and sequential mode"
    );
    let healthy = healthy.run().expect("registered");
    for scenario in &parallel.scenarios {
        let id = scenario.spec.id();
        for point in &scenario.result.points {
            assert!(
                point.metrics.gauge("faults_applied").unwrap() >= 1.0,
                "{id}: the plan must actually fire"
            );
        }
        // Firing is not enough: a fabric that ignored the plan would still
        // count its transitions, so the simulated statistics must move.
        let baseline = healthy
            .scenarios
            .iter()
            .find(|h| h.spec.architecture == scenario.spec.architecture)
            .expect("every architecture ran healthy");
        let stats = |result: &pnoc_sim::sweep::SaturationResult| {
            result.points.iter().map(|p| p.stats).collect::<Vec<_>>()
        };
        assert_ne!(
            stats(&scenario.result),
            stats(&baseline.result),
            "{id}: a faulted sweep must simulate differently from the healthy one"
        );
    }
}

/// `uniform-fabric` at its default budget is Firefly's allocation at the
/// paper point (16 clusters, radix 16, one-cycle reservation), so the two
/// names must agree on every metric row but its `scenario` label — healthy
/// and under every non-empty preset, open and closed loop.
#[test]
fn uniform_fabric_rows_equal_firefly_rows_healthy_and_under_every_preset() {
    ensure_registered();
    let rows = |architecture: &str| {
        // `with_faults("")` is the healthy run.
        let specs: Vec<ScenarioSpec> = ["", "single-link", "rolling-links", "ring-drift"]
            .into_iter()
            .flat_map(|plan| {
                [
                    ScenarioSpec::new(architecture, "tornado"),
                    ScenarioSpec::closed_loop(architecture, "incast:8"),
                ]
                .map(|spec| spec.with_effort(Effort::Smoke).with_faults(plan))
            })
            .collect();
        let batch = run_specs(&specs).expect("registered names");
        let rows = batch.scenarios.iter().flat_map(|s| s.metric_rows());
        rows.map(|mut row| {
            row.scenario.clear();
            render_jsonl_row(&row)
        })
        .collect::<Vec<_>>()
    };
    let (firefly, uniform) = (rows("firefly"), rows("uniform-fabric"));
    assert_eq!(
        firefly.len(),
        4 * (3 + 1),
        "4 plans × (3 ladder points + 1 workload row)"
    );
    for (f, u) in firefly.iter().zip(&uniform) {
        assert_eq!(f, u, "uniform-fabric must report Firefly's row");
    }
    assert_eq!(firefly.len(), uniform.len());
}

/// Under uniform demand d-HetPNoC's class table is Firefly's channel table
/// (the same pools, and every class width equal to the channel) except for
/// its reservation: at set 3 its widest channel's 64 wavelength identifiers
/// take two cycles (Section 3.4.1.1). So healthy `d-hetpnoc:uniform-random`
/// reports Firefly's batch JSON but for `spec` and `id` at sets 1 and 2,
/// and `firefly{reservation_cycles=2}`'s at set 3. The two never share a run:
/// a class table's pools depend on its retarget hook's history.
#[test]
fn uniform_random_dhetpnoc_reports_firefly_but_for_the_set_3_reservation() {
    ensure_registered();
    let specs: Vec<ScenarioSpec> = BandwidthSet::ALL
        .into_iter()
        .flat_map(|set| {
            let firefly = match set {
                BandwidthSet::Set3 => "firefly{reservation_cycles=2}",
                _ => "firefly",
            };
            ["d-hetpnoc", firefly].map(|architecture| {
                ScenarioSpec::new(architecture, "uniform-random")
                    .with_bandwidth_set(set)
                    .with_effort(Effort::Smoke)
            })
        })
        .collect();
    let batch = run_specs(&specs).expect("registered names");
    assert_eq!(
        batch.cache.simulated, batch.unique_points,
        "d-hetpnoc must simulate apart from firefly"
    );
    let Some(Json::Arr(scenarios)) = matrix_json(&batch).get("scenarios").cloned() else {
        panic!("a batch document lists its scenarios");
    };
    let unlabelled = |scenario: &Json| match scenario {
        Json::Obj(fields) => fields
            .iter()
            .filter(|(key, _)| key != "spec" && key != "id")
            .map(|(key, value)| (key.clone(), value.render()))
            .collect::<Vec<_>>(),
        other => panic!("a scenario is an object, got {other:?}"),
    };
    assert_eq!(scenarios.len(), 6);
    for (pair, set) in scenarios.chunks(2).zip(BandwidthSet::ALL) {
        assert_eq!(
            unlabelled(&pair[0]),
            unlabelled(&pair[1]),
            "{set:?}: d-hetpnoc must report the matching firefly document"
        );
    }
}

#[test]
fn faults_measurably_degrade_closed_loop_completion_on_the_same_seed() {
    ensure_registered();
    let run = |faults: Option<&str>| {
        let mut spec =
            ScenarioSpec::closed_loop("d-hetpnoc", "allreduce:8").with_effort(Effort::Quick);
        if let Some(plan) = faults {
            spec = spec.with_faults(plan);
        }
        let outcome = run_specs(&[spec]).expect("resolves");
        let point = &outcome.scenarios[0].result.points[0];
        assert_eq!(
            point.metrics.gauge("workload_drained"),
            Some(1.0),
            "transient faults must not wedge the workload short of draining"
        );
        point.metrics.gauge("workload_makespan_cycles").unwrap()
    };
    let healthy = run(None);
    let faulted = run(Some("single-link"));
    assert!(
        faulted > healthy,
        "a failed link must lengthen the allreduce makespan \
         (healthy {healthy}, faulted {faulted})"
    );
}

#[test]
fn the_cache_never_serves_healthy_points_for_faulted_scenarios() {
    ensure_registered();
    let dir = scratch_dir("separation");
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir).expect("store opens");
    let healthy = ScenarioSpec::new("firefly", "tornado").with_effort(Effort::Smoke);
    let faulted = healthy.clone().with_faults("single-link");

    // Warm the cache with the healthy scenario, then run the faulted one:
    // every faulted point must miss (the canonical id differs), simulate
    // fresh, and store under its own keys.
    let cold =
        run_specs_with_cache(std::slice::from_ref(&healthy), Some(&store)).expect("healthy run");
    assert_eq!(cold.cache.stored, cold.unique_points);
    let fault_run =
        run_specs_with_cache(std::slice::from_ref(&faulted), Some(&store)).expect("faulted run");
    assert_eq!(
        fault_run.cache.hits, 0,
        "a faulted scenario must never be served a cached healthy point"
    );
    assert_eq!(fault_run.cache.stored, fault_run.unique_points);
    assert_ne!(
        cold.scenarios[0].result, fault_run.scenarios[0].result,
        "the faulted sweep must actually differ from the healthy one"
    );

    // Both populations now coexist: warm re-runs of each hit only their own
    // entries and reproduce their own results bitwise.
    let warm_healthy = run_specs_with_cache(&[healthy], Some(&store)).expect("warm healthy");
    assert_eq!(warm_healthy.cache.misses, 0);
    assert!(cold.bitwise_eq(&warm_healthy));
    let warm_faulted = run_specs_with_cache(&[faulted], Some(&store)).expect("warm faulted");
    assert_eq!(warm_faulted.cache.misses, 0);
    assert!(fault_run.bitwise_eq(&warm_faulted));
    let _ = std::fs::remove_dir_all(&dir);
}
