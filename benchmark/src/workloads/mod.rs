//! The four workloads. Each is a set of identical, deterministic reps built
//! from the run's seed; the crates under test receive only the generated
//! specs and documents.

pub mod collectives;
pub mod hier;
pub mod ladder;
pub mod service;

use crate::golden::Stats;
use crate::harness::{fastest, Call};
use crate::trace::Tracer;
use pnoc_sim::scenario::ScenarioResult;
use std::collections::BTreeMap;
use std::time::Instant;

/// What one rep did: its calls into the crates, in order, and what they
/// returned. Every rep of a run makes the same calls.
#[derive(Default)]
pub struct RepOutcome {
    /// One entry per call, in call order.
    pub calls: Vec<Call>,
    /// Operations attempted: scenario points, HTTP requests, byte compares.
    pub attempted: u64,
    /// What went wrong, one line per failed operation.
    pub failures: Vec<String>,
    /// The exact simulated statistics of the rep; every rep of a run must
    /// produce the same ones.
    pub stats: Stats,
}

impl RepOutcome {
    /// Runs `f` as the rep's next call: inside a span named `span`, timed.
    pub fn call<T>(&mut self, tracer: &Tracer, span: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = tracer.span(span, f);
        self.calls.push(Call {
            seconds: started.elapsed().as_secs_f64(),
            cycles: 0,
            points: 0,
        });
        out
    }

    /// Host seconds of the call just made.
    pub fn last_call_s(&self) -> f64 {
        self.calls.last().map_or(0.0, |call| call.seconds)
    }

    /// Records what the call just made simulated.
    pub fn simulated(&mut self, cycles: u64, points: u64) {
        let call = self.calls.last_mut().expect("a call was just made");
        call.cycles = cycles;
        call.points = points;
    }
}

/// Per-layer metric values by name; a metric a workload does not measure is
/// reported as 0.
pub type Layers = BTreeMap<&'static str, f64>;

/// A benchmark workload, ready to run reps.
pub trait Workload {
    /// Called after the warm-up rep, before the first timed rep.
    fn start_timed_reps(&mut self) {}

    /// Runs one rep.
    fn rep(&mut self, tracer: &Tracer) -> RepOutcome;

    /// Untimed checks made once per run, after the timed reps. Returns the
    /// operations attempted and one line per failure.
    fn verify(&mut self) -> (u64, Vec<String>) {
        (0, Vec::new())
    }

    /// Layer probes of the traced run that must precede the reps (peak
    /// memory only grows).
    fn probe_before_reps(&mut self, _layers: &mut Layers) {}

    /// Layer probes of the traced run; `tracer` holds the reps' spans.
    fn probe_layers(&mut self, tracer: &Tracer, layers: &mut Layers);
}

/// A workload's fixed properties and constructor.
pub struct Descriptor {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Most executor pool threads it uses, CPUs permitting.
    pub max_pool_threads: usize,
    /// Concurrent client connections.
    pub connections: usize,
    /// Builds the workload's inputs from the seed.
    pub build: fn(u64) -> Box<dyn Workload>,
}

/// Runs `f` with the pool limited to `threads` threads.
pub fn with_pool_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let configured = pnoc_exec::worker_override();
    pnoc_exec::set_worker_override(threads);
    let out = f();
    pnoc_exec::set_worker_override(configured);
    out
}

/// `single-thread time / two-thread time` of `f`, best of two each; `None`
/// on a one-CPU host, where the ratio would claim nothing.
pub fn parallel_speedup(metric: &str, mut f: impl FnMut()) -> Option<f64> {
    if crate::host::nproc() < 2 {
        eprintln!("{metric}: skipped, one CPU (reported as 0)");
        return None;
    }
    let mut timed = |threads: usize| with_pool_threads(threads, || ns_per_call(2, 1, &mut f));
    let single = timed(1);
    Some(single / timed(2))
}

/// The workloads, in suite order.
pub const WORKLOADS: [Descriptor; 4] = [
    Descriptor {
        name: "ladder_saturated",
        max_pool_threads: 1,
        connections: 0,
        build: |seed| Box::new(ladder::LadderSaturated::new(seed)),
    },
    Descriptor {
        name: "collectives_closed_loop",
        max_pool_threads: 1,
        connections: 0,
        build: |seed| Box::new(collectives::CollectivesClosedLoop::new(seed)),
    },
    Descriptor {
        name: "hier_pods",
        max_pool_threads: 2,
        connections: 0,
        build: |seed| Box::new(hier::HierPods::new(seed)),
    },
    Descriptor {
        name: "service_cold_warm",
        max_pool_threads: 2,
        connections: 1,
        build: |seed| Box::new(service::ServiceColdWarm::new(seed)),
    },
];

/// Simulated cycles behind one scenario result: warm-up plus measured cycles
/// per open-loop point, the cycles to drain for a closed-loop point.
pub fn simulated_cycles(result: &ScenarioResult) -> u64 {
    if result.spec.workload.is_some() {
        result
            .result
            .points
            .iter()
            .map(|p| p.stats.measured_cycles)
            .sum()
    } else {
        result.spec.config().total_cycles() * result.result.points.len() as u64
    }
}

/// Appends the exact statistics of a closed-loop result and checks it
/// drained; returns its makespan in cycles.
pub fn closed_loop_stats(
    label: &str,
    result: &ScenarioResult,
    stats: &mut Stats,
    failures: &mut Vec<String>,
) -> f64 {
    let point = &result.result.points[0];
    let makespan = point
        .metrics
        .gauge("workload_makespan_cycles")
        .unwrap_or(0.0);
    if point.metrics.gauge("workload_drained") != Some(1.0) {
        failures.push(format!("{label}: workload did not drain"));
    }
    stats.push((format!("{label}.makespan_cycles"), format!("{makespan}")));
    stats.push((
        format!("{label}.delivered_flits"),
        point.stats.delivered_flits.to_string(),
    ));
    stats.push((
        format!("{label}.simulated_cycles"),
        point.stats.measured_cycles.to_string(),
    ));
    makespan
}

/// Best-of-`batches` mean time of one call of `f`, in nanoseconds, over
/// batches of `iters` calls. Fixed counts: the same work on every run.
pub fn ns_per_call(batches: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    fastest((0..batches).map(|_| {
        let started = Instant::now();
        for _ in 0..iters {
            f();
        }
        started.elapsed().as_nanos() as f64 / iters as f64
    }))
}
