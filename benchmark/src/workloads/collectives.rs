//! `collectives_closed_loop`: the same engine, used the other way.
//!
//! Closed loop, one thread: collective DAGs run to drain at quick effort.
//! DAG release, delivery events, the quiescence fast-forward (about ten
//! times the cycles per second of the saturated ladder) and fault replay
//! dominate, so a hot-path gain that costs the skip path shows here.

use super::{closed_loop_stats, ns_per_call, simulated_cycles, Layers, RepOutcome, Workload};
use crate::trace::{best_span_s, Tracer};
use pnoc_faults::FaultPlan;
use pnoc_sim::scenario::{Scenario, ScenarioSpec};
use pnoc_sim::sweep::SweepMode;
use pnoc_workload::registry::{WorkloadRef, WorkloadSpec};
use std::hint::black_box;

const SPAN_HEALTHY: &str = "sim:run_with_mode[d-hetpnoc:allreduce]";
const SPAN_FAULTED: &str = "sim:run_with_mode[d-hetpnoc:allreduce#faults]";
const FAULT_PRESET: &str = "rolling-links";

/// See the module documentation.
pub struct CollectivesClosedLoop {
    /// `(statistics label, span name, scenario)`.
    scenarios: Vec<(&'static str, &'static str, Scenario)>,
    /// Summed makespan of the last rep (simulated, exact).
    makespan_cycles: f64,
}

impl CollectivesClosedLoop {
    /// Builds the four workload DAGs and resolves their scenarios.
    pub fn new(seed: u64) -> Self {
        let resolve = |arch: &str, workload: &str, faults: &str| {
            ScenarioSpec::closed_loop(arch, workload)
                .with_faults(faults)
                .with_seed(seed)
                .resolve()
                .expect("registered architecture, workload and fault preset")
        };
        CollectivesClosedLoop {
            makespan_cycles: 0.0,
            scenarios: vec![
                (
                    "d-hetpnoc.allreduce64",
                    SPAN_HEALTHY,
                    resolve("d-hetpnoc", "allreduce:64", ""),
                ),
                (
                    "d-hetpnoc.incast32",
                    "sim:run_with_mode[d-hetpnoc:incast]",
                    resolve("d-hetpnoc", "incast:32", ""),
                ),
                (
                    "firefly.allreduce64",
                    "sim:run_with_mode[firefly:allreduce]",
                    resolve("firefly", "allreduce:64", ""),
                ),
                (
                    "d-hetpnoc.allreduce64.rolling-links",
                    SPAN_FAULTED,
                    resolve("d-hetpnoc", "allreduce:64", FAULT_PRESET),
                ),
            ],
        }
    }
}

impl Workload for CollectivesClosedLoop {
    fn rep(&mut self, tracer: &Tracer) -> RepOutcome {
        let mut outcome = RepOutcome::default();
        self.makespan_cycles = 0.0;
        for (label, span, scenario) in &self.scenarios {
            let result = outcome.call(tracer, span, || {
                scenario.run_with_mode(SweepMode::Sequential)
            });
            outcome.simulated(simulated_cycles(&result), 1);
            outcome.attempted += 1;
            self.makespan_cycles +=
                closed_loop_stats(label, &result, &mut outcome.stats, &mut outcome.failures);
        }
        outcome.stats.push((
            "makespan_cycles".to_string(),
            format!("{}", self.makespan_cycles),
        ));
        outcome
    }

    fn probe_layers(&mut self, tracer: &Tracer, layers: &mut Layers) {
        let spans = tracer.spans();
        let healthy = best_span_s(&spans, SPAN_HEALTHY).expect("the traced reps ran it");
        let faulted = best_span_s(&spans, SPAN_FAULTED).expect("the traced reps ran it");
        layers.insert("sim.workload_point_s", healthy);
        layers.insert("faults.overhead_ratio", faulted / healthy);

        let flows: usize = self
            .scenarios
            .iter()
            .map(|(_, _, s)| s.workload().map_or(0, |w| w.len()))
            .sum();
        layers.insert("workload.flows", flows as f64);
        let (factory, size) = WorkloadRef::parse("allreduce:64")
            .expect("well-formed reference")
            .resolve()
            .expect("built-in workload");
        layers.insert(
            "workload.dag_build_us",
            ns_per_call(5, 20, || {
                black_box(factory.build(&WorkloadSpec::new(size)));
            }) / 1e3,
        );
        layers.insert(
            "faults.plan_parse_us",
            ns_per_call(5, 200, || {
                let plan = FaultPlan::resolve(FAULT_PRESET).expect("preset resolves");
                black_box(FaultPlan::parse(&plan.render()).expect("render parses back"));
            }) / 1e3,
        );
        layers.insert("sim.makespan_cycles", self.makespan_cycles);
    }
}
