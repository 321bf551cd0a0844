//! Cross-engine determinism: the event-driven scheduler must be an
//! unobservable optimisation. Every registered architecture (an open-loop
//! ladder, `run_to_completion_with`), closed-loop collectives on both flat
//! architectures (`run_until_with`) and closed-loop hierarchies (whose pods
//! apply the same advance rule inside each epoch) are run under both the
//! per-cycle reference executor and the event-driven one, and the full
//! `MetricReport`s — including quantile sketches and windowed-throughput
//! samples — must be bitwise identical, down to the rendered metric bytes.
//!
//! This test owns the process-global engine flag, so it lives alone in its
//! own integration-test binary (each Rust integration test file is a
//! separate process; unit tests elsewhere must not toggle the flag).

use pnoc_bench::runner::ensure_registered;
use pnoc_sim::engine::set_event_driven;
use pnoc_sim::metrics::JsonlSink;
use pnoc_sim::scenario::{run_specs, Effort, MatrixResult, ScenarioSpec};

/// The smoke-effort batch run under both executors.
fn cross_engine_specs() -> Vec<ScenarioSpec> {
    ensure_registered();
    let mut specs = Vec::new();
    for architecture in pnoc_sim::registry::registered_architectures() {
        specs.push(ScenarioSpec::new(architecture, "skewed-3"));
    }
    for workload in ["allreduce:8", "incast:16"] {
        specs.push(ScenarioSpec::closed_loop("d-hetpnoc", workload));
        specs.push(ScenarioSpec::closed_loop("firefly", workload));
    }
    for (architecture, workload) in [
        // Every hop of the ring crosses pods: all four pods stay idle.
        ("hier{pods=4,leaf=d-hetpnoc}", "allreduce:8"),
        // Three of the flows are pod-local: feed entries interleave with skips.
        ("hier{pods=4,leaf=d-hetpnoc}", "incast:16"),
        // Window edges that are multiples of nothing else in the system.
        ("hier{pods=2,leaf=firefly,epoch=7}", "incast:16"),
    ] {
        specs.push(ScenarioSpec::closed_loop(architecture, workload));
    }
    specs
        .into_iter()
        .map(|spec| spec.with_effort(Effort::Smoke))
        .collect()
}

fn rendered_metrics(outcome: &MatrixResult) -> Vec<u8> {
    let mut bytes = Vec::new();
    outcome
        .write_metrics(&mut JsonlSink::new(&mut bytes))
        .expect("rendering metrics to a Vec cannot fail");
    bytes
}

#[test]
fn event_driven_engine_is_bitwise_identical_to_per_cycle() {
    let specs = cross_engine_specs();
    assert!(
        specs.len() >= 3 + 4 + 3,
        "expected the full architecture registry, got {} scenario(s)",
        specs.len()
    );

    set_event_driven(false);
    let per_cycle = run_specs(&specs);
    set_event_driven(true);
    let per_cycle = per_cycle.expect("per-cycle reference batch failed");
    let event = run_specs(&specs).expect("event-driven batch failed");

    assert!(
        per_cycle.bitwise_eq(&event),
        "event-driven engine diverged from the per-cycle reference executor"
    );
    let per_cycle_bytes = rendered_metrics(&per_cycle);
    let event_bytes = rendered_metrics(&event);
    assert!(
        !event_bytes.is_empty(),
        "metric stream is empty — the batch ran nothing"
    );
    assert_eq!(
        per_cycle_bytes, event_bytes,
        "rendered metric streams differ between executors"
    );
}
