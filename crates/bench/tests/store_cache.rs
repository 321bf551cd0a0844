//! End-to-end tests of the result cache under the batch engine: a warm
//! re-run serves every point from the cache byte-identically, an
//! incremental matrix only simulates the newly added scenarios (none when
//! an added scenario's network is already cached), and an
//! engine-fingerprint change (per-cycle vs event-driven executor) misses
//! rather than serving results from the other engine.

use pnoc_bench::runner::ensure_registered;
use pnoc_bench::scenario_io::matrix_json;
use pnoc_sim::metrics::JsonlSink;
use pnoc_sim::scenario::{run_specs_with_cache, Effort, MatrixResult, ScenarioSpec};
use pnoc_store::ResultStore;
use std::path::PathBuf;
use std::sync::Mutex;

/// Cache keys embed the process-global engine fingerprint, and one test
/// flips the executor flag — serialize the tests of this binary so the flag
/// never changes under a running batch.
static ENGINE_FLAG: Mutex<()> = Mutex::new(());

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pnoc-store-it-{}-{tag}", std::process::id()))
}

fn smoke_specs() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec::new("uniform-fabric", "uniform-random").with_effort(Effort::Smoke),
        ScenarioSpec::new("firefly", "tornado").with_effort(Effort::Smoke),
    ]
}

fn metric_bytes(outcome: &MatrixResult) -> Vec<u8> {
    let mut sink = JsonlSink::new(Vec::new());
    outcome
        .write_metrics(&mut sink)
        .expect("rendering into memory cannot fail");
    sink.into_inner()
}

#[test]
fn warm_rerun_serves_every_point_byte_identically() {
    let _guard = ENGINE_FLAG.lock().unwrap_or_else(|e| e.into_inner());
    ensure_registered();
    let dir = scratch_dir("warm");
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir).expect("store opens");
    let specs = smoke_specs();

    let cold = run_specs_with_cache(&specs, Some(&store)).expect("cold run");
    assert_eq!(cold.cache.hits, 0, "fresh cache cannot hit");
    assert_eq!(cold.cache.misses, cold.unique_points);
    assert_eq!(cold.cache.stored, cold.unique_points);

    let warm = run_specs_with_cache(&specs, Some(&store)).expect("warm run");
    assert_eq!(warm.cache.misses, 0, "warm run must not simulate");
    assert_eq!(warm.cache.hits, warm.unique_points);
    assert!(cold.bitwise_eq(&warm), "cache round-trip changed results");
    assert_eq!(
        matrix_json(&cold).render(),
        matrix_json(&warm).render(),
        "matrix documents must be byte-identical"
    );
    assert_eq!(
        metric_bytes(&cold),
        metric_bytes(&warm),
        "metric streams must be byte-identical"
    );
    // The warm outcome also matches an uncached run bit for bit: caching is
    // an execution strategy, never an approximation.
    let uncached = run_specs_with_cache(&specs, None).expect("uncached run");
    assert!(uncached.bitwise_eq(&warm));
    assert_eq!(metric_bytes(&uncached), metric_bytes(&warm));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn incremental_matrix_only_simulates_the_new_scenarios() {
    let _guard = ENGINE_FLAG.lock().unwrap_or_else(|e| e.into_inner());
    ensure_registered();
    let dir = scratch_dir("incremental");
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir).expect("store opens");
    let mut specs = smoke_specs();

    let first = run_specs_with_cache(&specs, Some(&store)).expect("first run");
    let first_points = first.unique_points;

    // Grow the matrix by one scenario: only its points are misses.
    specs.push(ScenarioSpec::new("d-hetpnoc", "uniform-random").with_effort(Effort::Smoke));
    let second = run_specs_with_cache(&specs, Some(&store)).expect("second run");
    assert_eq!(second.cache.hits, first_points);
    assert_eq!(
        second.cache.misses,
        second.unique_points - first_points,
        "only the added scenario may simulate"
    );
    assert!(second.cache.misses > 0, "the added scenario must simulate");

    // The original scenarios' results are unchanged by the extension.
    assert_eq!(
        first.scenarios[..],
        second.scenarios[..first.scenarios.len()]
    );

    // `firefly` at the paper point is `uniform-fabric`'s network: its points
    // miss (the cache is keyed per spelling) and are stored under their own
    // keys, but take the stored points of the equal network instead of
    // simulating.
    specs.push(ScenarioSpec::new("firefly", "uniform-random").with_effort(Effort::Smoke));
    let third = run_specs_with_cache(&specs, Some(&store)).expect("third run");
    assert_eq!(third.cache.hits, second.unique_points);
    assert!(third.cache.misses > 0);
    assert_eq!(third.cache.stored, third.cache.misses);
    assert_eq!(
        third.cache.simulated, 0,
        "an equal network's hit must serve"
    );
    let uncached = run_specs_with_cache(&specs, None).expect("uncached run");
    assert!(uncached.bitwise_eq(&third));
    assert_eq!(metric_bytes(&uncached), metric_bytes(&third));
    let fourth = run_specs_with_cache(&specs, Some(&store)).expect("fourth run");
    assert_eq!(fourth.cache.misses, 0, "the shared points were stored");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn engine_fingerprint_change_is_a_miss_not_a_stale_hit() {
    let _guard = ENGINE_FLAG.lock().unwrap_or_else(|e| e.into_inner());
    ensure_registered();
    let dir = scratch_dir("fingerprint");
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir).expect("store opens");
    let specs =
        vec![ScenarioSpec::new("uniform-fabric", "uniform-random").with_effort(Effort::Smoke)];

    let restore = pnoc_sim::engine::event_driven_enabled();
    pnoc_sim::engine::set_event_driven(true);
    let event = run_specs_with_cache(&specs, Some(&store)).expect("event-driven run");
    assert_eq!(event.cache.hits, 0);

    // Same scenarios under the other executor: the fingerprint differs, so
    // nothing may be served from the event-driven entries.
    pnoc_sim::engine::set_event_driven(false);
    let per_cycle = run_specs_with_cache(&specs, Some(&store)).expect("per-cycle run");
    assert_eq!(
        per_cycle.cache.hits, 0,
        "a per-cycle run must not be served event-driven cache entries"
    );
    assert_eq!(per_cycle.cache.misses, per_cycle.unique_points);

    // Both fingerprints now coexist in one store; each re-run is fully warm.
    pnoc_sim::engine::set_event_driven(true);
    let warm = run_specs_with_cache(&specs, Some(&store)).expect("warm event-driven run");
    assert_eq!(warm.cache.misses, 0);
    pnoc_sim::engine::set_event_driven(restore);
    let _ = std::fs::remove_dir_all(&dir);
}
