//! `hier_pods`: the sharded multi-pod layer.
//!
//! Up to two pool threads: 16- and 4-pod hierarchies of d-HetPNoC and
//! Firefly leaves at quick effort. Pod sharding, the per-epoch executor
//! batches, the spine model and allocation volume dominate; this is the only
//! workload where `pnoc-hier` and nested executor batches do most of the
//! work, and the only one with a large memory footprint.

use super::{
    closed_loop_stats, parallel_speedup, simulated_cycles, with_pool_threads, Layers, RepOutcome,
    Workload,
};
use crate::golden::bits;
use crate::host::peak_rss_mb;
use crate::trace::Tracer;
use pnoc_sim::scenario::{run_specs, MatrixResult, ScenarioSpec};
use std::time::Instant;

fn allreduce_on(pods: usize, seed: u64) -> ScenarioSpec {
    ScenarioSpec::closed_loop(
        format!("hier{{pods={pods},leaf=d-hetpnoc}}"),
        "allreduce:64",
    )
    .with_seed(seed)
}

fn run(spec: &ScenarioSpec) -> MatrixResult {
    run_specs(std::slice::from_ref(spec)).expect("registered hierarchy, leaf and payload")
}

/// See the module documentation.
pub struct HierPods {
    seed: u64,
    /// `(statistics label, span name, spec)`.
    specs: Vec<(&'static str, &'static str, ScenarioSpec)>,
    /// Summed makespan of the closed-loop scenarios of the last rep
    /// (simulated, exact).
    makespan_cycles: f64,
}

impl HierPods {
    /// Generates the three specs.
    pub fn new(seed: u64) -> Self {
        HierPods {
            seed,
            makespan_cycles: 0.0,
            specs: vec![
                (
                    "pods16.d-hetpnoc.allreduce64",
                    "hier:run_specs[pods16:d-hetpnoc:allreduce]",
                    allreduce_on(16, seed),
                ),
                (
                    "pods16.firefly.skewed3",
                    "hier:run_specs[pods16:firefly:skewed-3]",
                    ScenarioSpec::new("hier{pods=16,leaf=firefly}", "skewed-3").with_seed(seed),
                ),
                (
                    "pods4.d-hetpnoc.allreduce64",
                    "hier:run_specs[pods4:d-hetpnoc:allreduce]",
                    allreduce_on(4, seed),
                ),
            ],
        }
    }
}

impl Workload for HierPods {
    fn rep(&mut self, tracer: &Tracer) -> RepOutcome {
        let mut outcome = RepOutcome::default();
        self.makespan_cycles = 0.0;
        for (label, span, spec) in &self.specs {
            let matrix = outcome.call(tracer, span, || run(spec));
            let result = &matrix.scenarios[0];
            outcome.simulated(simulated_cycles(result), matrix.total_points as u64);
            outcome.attempted += matrix.total_points as u64;
            if spec.workload.is_some() {
                self.makespan_cycles +=
                    closed_loop_stats(label, result, &mut outcome.stats, &mut outcome.failures);
            } else {
                outcome.stats.push((
                    format!("{label}.peak_gbps"),
                    bits(result.result.peak_bandwidth_gbps()),
                ));
            }
            let spine_flits: u64 = result
                .result
                .points
                .iter()
                .map(|p| p.metrics.counter("spine_flits").unwrap_or(0))
                .sum();
            outcome
                .stats
                .push((format!("{label}.spine_flits"), spine_flits.to_string()));
        }
        outcome.stats.push((
            "makespan_cycles".to_string(),
            format!("{}", self.makespan_cycles),
        ));
        outcome
    }

    /// One thread and two must agree bit for bit.
    fn verify(&mut self) -> (u64, Vec<String>) {
        let mut failures = Vec::new();
        for (label, _, spec) in &self.specs {
            let single = with_pool_threads(1, || run(spec));
            let pooled = with_pool_threads(2, || run(spec));
            if !pooled.bitwise_eq(&single) {
                failures.push(format!("{label}: 1-thread result differs from 2 threads'"));
            }
        }
        (self.specs.len() as u64, failures)
    }

    /// One shot per pod count, smallest first, so that each peak-memory
    /// reading belongs to the run just made.
    fn probe_before_reps(&mut self, layers: &mut Layers) {
        let shots: [(usize, &'static str, &'static str); 4] = [
            (1, "hier.wall_s.pods1", "hier.rss_mb.pods1"),
            (4, "hier.wall_s.pods4", "hier.rss_mb.pods4"),
            (16, "hier.wall_s.pods16", "hier.rss_mb.pods16"),
            (64, "hier.wall_s.pods64", "hier.rss_mb.pods64"),
        ];
        for (pods, wall, rss) in shots {
            let spec = allreduce_on(pods, self.seed);
            let started = Instant::now();
            let matrix = run(&spec);
            layers.insert(wall, started.elapsed().as_secs_f64());
            layers.insert(rss, peak_rss_mb());
            if pods == 16 {
                let flits = matrix.scenarios[0].result.points[0]
                    .metrics
                    .counter("spine_flits")
                    .unwrap_or(0);
                layers.insert("hier.spine_flits", flits as f64);
            }
        }
    }

    fn probe_layers(&mut self, _tracer: &Tracer, layers: &mut Layers) {
        layers.insert("sim.makespan_cycles", self.makespan_cycles);
        let spec = allreduce_on(16, self.seed);
        if let Some(speedup) = parallel_speedup("hier.parallel_speedup", || {
            run(&spec);
        }) {
            layers.insert("hier.parallel_speedup", speedup);
        }
    }
}
