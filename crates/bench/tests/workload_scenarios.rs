//! Integration tests of the closed-loop workload engine end to end: the
//! acceptance path of the flow-level workload PR. A workload scenario must
//! run to DAG-drain termination, report flow-completion-time percentiles and
//! per-collective makespans, stream metric rows, and stay bitwise-identical
//! between the parallel matrix queue and sequential execution.

use pnoc_bench::runner::ensure_registered;
use pnoc_sim::metrics::MetricValue;
use pnoc_sim::scenario::{run_specs, Effort, ScenarioMatrix, ScenarioSpec};

fn closed(architecture: &str, reference: &str) -> ScenarioSpec {
    ensure_registered();
    ScenarioSpec::closed_loop(architecture, reference).with_effort(Effort::Smoke)
}

#[test]
fn allreduce_64_drains_on_dhetpnoc_and_reports_fct_and_makespan() {
    // The acceptance scenario: `repro --workload allreduce:64` (the CLI
    // defaults to d-hetpnoc), at smoke effort so the test stays fast.
    let outcome = closed("d-hetpnoc", "allreduce:64")
        .resolve()
        .expect("workload registered")
        .run();
    assert_eq!(outcome.result.points.len(), 1, "closed-loop = one point");
    let point = &outcome.result.points[0];
    let metrics = &point.metrics;

    // DAG-drain termination.
    assert_eq!(metrics.gauge("workload_drained"), Some(1.0));
    let flows = metrics.counter("flows_total").expect("counted");
    assert_eq!(flows, 2 * 63 * 64, "2(n−1) steps × n nodes");
    assert_eq!(metrics.counter("flows_completed"), Some(flows));
    assert_eq!(
        point.stats.dropped_packets, 0,
        "closed loop never sheds load"
    );

    // Flow-completion-time p50/p95/p99.
    let fct = metrics
        .histogram("flow_completion_cycles")
        .expect("FCT sketch present");
    assert_eq!(fct.count(), flows);
    let p50 = fct.percentile(50.0).expect("non-empty");
    let p95 = fct.percentile(95.0).expect("non-empty");
    let p99 = fct.percentile(99.0).expect("non-empty");
    assert!(
        p50 > 0 && p50 <= p95 && p95 <= p99,
        "p50={p50} p95={p95} p99={p99}"
    );

    // Collective makespans: both ring phases, each shorter than the whole.
    let total = metrics.gauge("workload_makespan_cycles").expect("present");
    assert!(total > 0.0);
    let spans = metrics
        .family("collective_makespan_cycles")
        .expect("present");
    for phase in ["reduce-scatter", "all-gather"] {
        match spans.get(phase) {
            Some(MetricValue::Gauge(span)) => {
                assert!(*span > 0.0 && *span <= total, "{phase}: {span} vs {total}")
            }
            other => panic!("expected a gauge for '{phase}', got {other:?}"),
        }
    }

    // The energy satellites ride on every point.
    assert!(metrics.gauge("static_power_mw").unwrap() > 0.0);
    assert!(
        metrics.gauge("total_energy_pj").unwrap() > point.stats.energy.total_pj(),
        "total energy must include the static budget"
    );
}

#[test]
fn workload_matrix_parallel_execution_is_bitwise_identical_to_sequential() {
    ensure_registered();
    pnoc_exec::set_worker_override(4);
    // Mixed batch: open-loop scenarios and closed-loop workloads share the
    // flattened queue across two architectures.
    let matrix = ScenarioMatrix::new()
        .architectures(["firefly", "d-hetpnoc"])
        .traffics(["uniform-random"])
        .workloads(["incast:4", "parameter-server:4"])
        .effort(Effort::Smoke);
    let parallel = matrix.run().expect("all names registered");
    let sequential = matrix.run_sequential().expect("all names registered");
    assert_eq!(parallel.scenarios.len(), 6);
    assert!(
        parallel.bitwise_eq(&sequential),
        "workload points must be bitwise-deterministic under the parallel queue"
    );
    for result in &parallel.scenarios {
        if result.spec.workload.is_some() {
            assert_eq!(
                result.result.points[0].metrics.gauge("workload_drained"),
                Some(1.0),
                "{} did not drain",
                result.spec.id()
            );
        }
    }
}

#[test]
fn workload_metric_rows_stream_with_flow_metrics() {
    let outcome = run_specs(&[closed("firefly", "shuffle:6")]).expect("resolves");
    let rows: Vec<_> = outcome
        .scenarios
        .iter()
        .flat_map(|s| s.metric_rows())
        .collect();
    assert_eq!(rows.len(), 1);
    let row = &rows[0];
    assert_eq!(row.scenario, "firefly:shuffle@6:set1:smoke");
    assert_eq!(row.point_index, 0);
    assert!(row.report.histogram("flow_completion_cycles").is_some());
    assert!(row.report.counter("delivered_packets").unwrap_or(0) > 0);
    // The JSONL rendering is pure, so two renders agree (byte-identical
    // exports are asserted end-to-end by CI's double-run diff).
    let line = pnoc_sim::metrics::render_jsonl_row(row);
    assert_eq!(line, pnoc_sim::metrics::render_jsonl_row(row));
    assert!(line.contains("flow_completion_cycles"));
}

#[test]
fn workload_specs_dump_and_reload_through_scenario_io() {
    let specs = vec![
        closed("d-hetpnoc", "allreduce:16"),
        ScenarioSpec::new("firefly", "tornado").with_effort(Effort::Smoke),
    ];
    let text = pnoc_bench::scenario_io::render_scenarios(&specs);
    let reloaded = pnoc_bench::scenario_io::parse_scenarios(&text).expect("round trip");
    assert_eq!(reloaded, specs);
}
