//! Resolving a workload scenario shares one DAG between every scenario with
//! the same workload key — the factory's canonical name, the spec it builds
//! and the architecture's placement map — for as long as one of them holds
//! it, and keeps every per-topology check on every resolve.
//!
//! The intern is process-wide and the tests of this file run side by side,
//! so a test that watches a DAG die uses a key no other test resolves.

use d_hetpnoc_repro::prelude::*;
use pnoc_noc::traffic_model::TrafficModel;
use pnoc_workload::registry::register_workload_factory;
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// Builds an incast over cores `0..40` whatever size it is asked for, and
/// counts its builds.
struct FortyCores;

static FORTY_CORE_BUILDS: AtomicUsize = AtomicUsize::new(0);

impl WorkloadFactory for FortyCores {
    fn name(&self) -> &str {
        "forty-cores"
    }

    fn build(&self, spec: &WorkloadSpec) -> Workload {
        FORTY_CORE_BUILDS.fetch_add(1, Ordering::Relaxed);
        incast(40, spec.bytes_per_node)
    }
}

/// The uniform fabric on a 16-core topology: four clusters of four cores.
struct SixteenCores;

impl ArchitectureBuilder for SixteenCores {
    fn name(&self) -> &str {
        "sixteen-cores"
    }

    fn effective_config(&self, mut config: SimConfig, _params: &ResolvedParams) -> SimConfig {
        config.topology = ClusterTopology::new(4, 4);
        config
    }

    fn build(
        &self,
        config: SimConfig,
        _params: &ResolvedParams,
        traffic: Box<dyn TrafficModel + Send>,
    ) -> Box<dyn CycleNetwork> {
        let uniform = lookup_architecture("uniform-fabric").expect("built in");
        uniform.build(config, &uniform.default_params(), traffic)
    }
}

#[test]
fn a_reused_dag_is_still_checked_against_the_topology() {
    register_workload_factory(Arc::new(FortyCores));
    register_architecture(Arc::new(SixteenCores));
    let held = resolve("d-hetpnoc", "forty-cores:4", "");
    assert_eq!(dag(&held).max_core(), 39);
    let error = ScenarioSpec::closed_loop("sixteen-cores", "forty-cores:4")
        .resolve()
        .expect_err("40 cores on a 16-core topology");
    assert!(
        matches!(
            error,
            ScenarioError::WorkloadTooLarge {
                size: 40,
                num_cores: 16,
                ..
            }
        ),
        "{error:?}"
    );
    assert_eq!(
        FORTY_CORE_BUILDS.load(Ordering::Relaxed),
        1,
        "the second resolve must reuse the held DAG"
    );
}

/// An incast over `size` cores that counts its builds, registered under a
/// name no other test uses.
struct CountedIncast(&'static AtomicUsize);

impl WorkloadFactory for CountedIncast {
    fn name(&self) -> &str {
        "counted-incast"
    }

    fn build(&self, spec: &WorkloadSpec) -> Workload {
        self.0.fetch_add(1, Ordering::Relaxed);
        incast(spec.size, spec.bytes_per_node)
    }
}

#[test]
fn a_factory_registered_over_a_name_builds_afresh() {
    static FIRST: AtomicUsize = AtomicUsize::new(0);
    static SECOND: AtomicUsize = AtomicUsize::new(0);
    register_workload_factory(Arc::new(CountedIncast(&FIRST)));
    let held = resolve("d-hetpnoc", "counted-incast:8", "");
    register_workload_factory(Arc::new(CountedIncast(&SECOND)));
    let rebuilt = resolve("firefly", "counted-incast:8", "");
    assert!(!Arc::ptr_eq(dag(&held), dag(&rebuilt)));
    assert_eq!(
        (
            FIRST.load(Ordering::Relaxed),
            SECOND.load(Ordering::Relaxed)
        ),
        (1, 1)
    );
}
