//! Determinism of the metrics pipeline across execution strategies: the
//! flattened parallel matrix engine must produce **bitwise-identical**
//! per-point metric reports, merged scenario-level reports, and rendered
//! JSONL/CSV sink output compared to running every scenario sequentially.

use pnoc_bench::runner::ensure_registered;
use pnoc_sim::config::BandwidthSet;
use pnoc_sim::metrics::{JsonlSink, MetricReport};
use pnoc_sim::scenario::{Effort, MatrixResult, ScenarioMatrix};

fn smoke_matrix() -> ScenarioMatrix {
    ensure_registered();
    ScenarioMatrix::new()
        .architectures(["uniform-fabric", "firefly"])
        .traffics(["tornado", "uniform-random"])
        .bandwidth_sets([BandwidthSet::Set1])
        .effort(Effort::Smoke)
}

fn render_jsonl(outcome: &MatrixResult) -> Vec<u8> {
    let mut sink = JsonlSink::new(Vec::new());
    outcome
        .write_metrics(&mut sink)
        .expect("in-memory writer cannot fail");
    sink.into_inner()
}

#[test]
fn parallel_matrix_metrics_equal_sequential_metrics_bitwise() {
    pnoc_exec::set_worker_override(4);
    let matrix = smoke_matrix();
    let parallel = matrix.run().expect("all names registered");
    let sequential = matrix.run_sequential().expect("all names registered");

    // Point-by-point: the metric reports (quantile sketch bins included)
    // are structurally identical — PartialEq on MetricReport is bitwise.
    assert!(
        parallel.bitwise_eq(&sequential),
        "parallel matrix must be bitwise-identical to sequential runs, metrics included"
    );
    for (p, s) in parallel.scenarios.iter().zip(&sequential.scenarios) {
        for (pp, sp) in p.result.points.iter().zip(&s.result.points) {
            assert_eq!(pp.metrics, sp.metrics, "per-point reports diverged");
        }
        // Scenario-level merge (in ladder order) is deterministic too.
        let merged_p = p.merged_metrics().expect("uniform kinds");
        let merged_s = s.merged_metrics().expect("uniform kinds");
        assert_eq!(merged_p, merged_s, "merged scenario reports diverged");
        // Merged counters really aggregate the points.
        let sum: u64 = p
            .result
            .points
            .iter()
            .map(|point| point.metrics.counter("delivered_packets").unwrap_or(0))
            .sum();
        assert_eq!(merged_p.counter("delivered_packets"), Some(sum));
    }

    // Merging the batch's metric rows gives the same result as the direct
    // per-scenario merge.
    let mut batch_total = MetricReport::new();
    for row in parallel.scenarios.iter().flat_map(|s| s.metric_rows()) {
        batch_total.merge(&row.report).expect("uniform kinds");
    }
    let mut direct_total = parallel.scenarios[0]
        .merged_metrics()
        .expect("uniform kinds");
    for scenario in &parallel.scenarios[1..] {
        direct_total
            .merge(&scenario.merged_metrics().expect("uniform kinds"))
            .expect("uniform kinds");
    }
    assert_eq!(batch_total, direct_total);
}

#[test]
fn sink_output_is_byte_identical_across_execution_strategies() {
    pnoc_exec::set_worker_override(4);
    let matrix = smoke_matrix();
    let parallel = matrix.run().expect("registered");
    let sequential = matrix.run_sequential().expect("registered");

    let jsonl_parallel = render_jsonl(&parallel);
    let jsonl_sequential = render_jsonl(&sequential);
    assert!(
        !jsonl_parallel.is_empty(),
        "metric stream must not be empty"
    );
    assert_eq!(
        jsonl_parallel, jsonl_sequential,
        "JSONL metric streams must be byte-identical"
    );

    // Re-running the same parallel matrix reproduces the bytes exactly
    // (what CI's double-run `repro --metrics` gate asserts end to end).
    let rerun = matrix.run().expect("registered");
    assert_eq!(jsonl_parallel, render_jsonl(&rerun));
}

#[test]
fn faulted_matrix_metrics_stay_bitwise_deterministic_and_expose_fault_counters() {
    pnoc_exec::set_worker_override(4);
    let matrix = smoke_matrix().fault_plans(["none", "single-link", "ring-drift"]);
    let parallel = matrix.run().expect("registered");
    let sequential = matrix.run_sequential().expect("registered");
    assert!(
        parallel.bitwise_eq(&sequential),
        "faulted matrix must be bitwise-identical to sequential runs"
    );
    // Double-run byte-compare: fault transitions land on exact cycles, so
    // the rendered stream reproduces exactly.
    let bytes = render_jsonl(&parallel);
    assert_eq!(bytes, render_jsonl(&matrix.run().expect("registered")));

    // Faulted points carry the fault gauges and the FaultApplied /
    // FaultRepaired event counters; healthy points carry none of them, so
    // fault-free reports keep their exact pre-fault bytes.
    for scenario in &parallel.scenarios {
        let faulted = scenario.spec.faults.is_some();
        for point in &scenario.result.points {
            assert_eq!(
                point.metrics.gauge("faults_applied").is_some(),
                faulted,
                "{}: fault gauges must appear exactly on faulted points",
                scenario.spec.id()
            );
            assert_eq!(
                point.metrics.counter("fault_applied_events").is_some(),
                faulted
            );
            if faulted {
                let applied = point.metrics.gauge("faults_applied").unwrap();
                let active = point.metrics.gauge("faults_active").unwrap();
                assert!(applied >= 1.0, "the plan's onsets must all have fired");
                assert!(active <= applied, "repairs can only retire applied faults");
                // The probe's event counters agree with the controller's
                // gauges: onsets minus repairs leaves the still-active set
                // ('ring-drift' ends with its permanent degrade active).
                let applied_events = point.metrics.counter("fault_applied_events").unwrap();
                let repaired_events = point.metrics.counter("fault_repaired_events").unwrap();
                assert_eq!(applied_events as f64, applied);
                assert_eq!(applied_events - repaired_events, active as u64);
            }
        }
    }
}

#[test]
fn jsonl_rows_expose_percentiles_and_per_node_series() {
    ensure_registered();
    let outcome = smoke_matrix().run().expect("registered");
    let text = String::from_utf8(render_jsonl(&outcome)).expect("UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    let total_points: usize = outcome
        .scenarios
        .iter()
        .map(|s| s.result.points.len())
        .sum();
    assert_eq!(lines.len(), total_points, "one JSONL row per ladder point");
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"latency_cycles\""));
        assert!(line.contains("\"p95\""));
        assert!(line.contains("\"delivered_bits_by_node\""));
        assert!(line.contains("\"delivered_bits_by_window\""));
    }
}
