//! Resolving a workload scenario shares one DAG between every scenario with
//! the same workload key — the factory's canonical name, the spec it builds
//! and the architecture's placement map — for as long as one of them holds
//! it.
//!
//! The intern is process-wide and the tests of this file run side by side,
//! so a test that watches a DAG die uses a key no other test resolves.

use d_hetpnoc_repro::prelude::*;
use std::sync::{Arc, Weak};

fn resolve(architecture: &str, workload: &str, faults: &str) -> Scenario {
    d_hetpnoc_repro::install_architectures();
    ScenarioSpec::closed_loop(architecture, workload)
        .with_faults(faults)
        .resolve()
        .expect("registered architecture, workload and fault preset")
}

fn dag(scenario: &Scenario) -> &Arc<Workload> {
    scenario.workload().expect("a closed-loop scenario")
}

#[test]
fn architectures_fault_plans_and_aliases_share_one_dag() {
    let scenarios = [
        resolve("d-hetpnoc", "allreduce:64", ""),
        resolve("firefly", "allreduce:64", ""),
        resolve("d-hetpnoc", "allreduce:64", "rolling-links"),
        resolve("d-hetpnoc", "ring-allreduce:64", ""),
    ];
    for scenario in &scenarios[1..] {
        assert!(
            Arc::ptr_eq(dag(&scenarios[0]), dag(scenario)),
            "{} resolved its own DAG",
            scenario.canonical_id()
        );
    }
}

#[test]
fn sizes_and_placements_get_their_own_dags() {
    let [small, large] = [
        resolve("d-hetpnoc", "allreduce:32", ""),
        resolve("d-hetpnoc", "allreduce:64", ""),
    ];
    assert!(!Arc::ptr_eq(dag(&small), dag(&large)));

    let [four, four_firefly, sixteen] = [
        resolve("hier{pods=4}", "allreduce:64", ""),
        resolve("hier{pods=4,leaf=firefly}", "allreduce:64", ""),
        resolve("hier{pods=16}", "allreduce:64", ""),
    ];
    assert!(
        Arc::ptr_eq(dag(&four), dag(&four_firefly)),
        "two specs with one placement map must share"
    );
    assert!(!Arc::ptr_eq(dag(&four), dag(&sixteen)));
    assert!(!Arc::ptr_eq(dag(&four), dag(&large)));
}

#[test]
fn a_shared_dag_equals_a_fresh_build() {
    let factory = lookup_workload_factory("allreduce").expect("built in");
    let fresh = factory.build(&WorkloadSpec::new(64));
    let [flat, again] = [
        resolve("d-hetpnoc", "allreduce:64", ""),
        resolve("firefly", "allreduce:64", ""),
    ];
    assert!(Arc::ptr_eq(dag(&flat), dag(&again)));
    assert_eq!(**dag(&flat), fresh);

    let spec = ScenarioSpec::closed_loop("hier{pods=4}", "allreduce:64");
    let hier = lookup_architecture("hier").expect("installed above");
    let params = hier
        .param_schema()
        .validate("hier", &ArchParams::new().set("pods", 4))
        .expect("valid params");
    let map = hier
        .workload_placement(&hier.effective_config(spec.config(), &params), &params, 64)
        .expect("four pods place ranks round-robin");
    let placed = [
        spec.resolve().expect("valid"),
        resolve("hier{pods=4}", "allreduce:64", ""),
    ];
    assert!(Arc::ptr_eq(dag(&placed[0]), dag(&placed[1])));
    assert_eq!(
        **dag(&placed[0]),
        fresh.remap_cores(&map).expect("a permutation")
    );
}

#[test]
fn the_intern_retains_no_dag() {
    // `allreduce:24` is resolved by no other test of this file.
    let scenarios = [
        resolve("d-hetpnoc", "allreduce:24", ""),
        resolve("firefly", "allreduce:24", "rolling-links"),
    ];
    let weak: Weak<Workload> = Arc::downgrade(dag(&scenarios[0]));
    assert!(weak.upgrade().is_some());
    drop(scenarios);
    assert!(
        weak.upgrade().is_none(),
        "a DAG outlived every scenario that held it"
    );
}
