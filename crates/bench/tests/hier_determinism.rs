//! Integration tests of the `hier` multi-pod architecture through the full
//! scenario stack, pinning its three core contracts:
//!
//! * **degeneracy** — a single-pod hierarchy with a zero-latency spine is
//!   the identity composition: bitwise-identical sweep points to running
//!   the bare leaf fabric directly (modulo the hierarchy-only metric
//!   families, which only a real hierarchy emits);
//! * **sharding determinism** — the per-pod shards run as `pnoc-exec`
//!   batch jobs, and the merged result must be bitwise-identical whether
//!   those jobs run on one worker or many; the per-pod families and the
//!   spine totals partition the run's counters;
//! * **replay order** — the metric rows of a spread of spine shapes are
//!   pinned against `tests/golden/hier_metrics.jsonl`.

use d_hetpnoc_repro::hier::HIER_ONLY_METRICS;
use pnoc_bench::runner::ensure_registered;
use pnoc_sim::metrics::{render_jsonl_row, MetricReport, MetricValue};
use pnoc_sim::scenario::{run_specs, Effort, Scenario, ScenarioSpec};
use pnoc_sim::sweep::{SweepMode, SweepPoint};
use std::path::Path;

fn resolve(spec: ScenarioSpec) -> Scenario {
    ensure_registered();
    spec.with_effort(Effort::Smoke)
        .resolve()
        .expect("registered names")
}

/// Strips what a hierarchy legitimately adds on top of its leaf: the
/// hierarchy-only metric families. Everything else — counters, latency
/// histograms, energy, per-node breakdowns — must survive untouched for the
/// degeneracy comparison to pass.
fn normalized(mut point: SweepPoint) -> SweepPoint {
    let mut metrics = MetricReport::new();
    for (name, value) in point.metrics.iter() {
        if !HIER_ONLY_METRICS.contains(&name) {
            metrics.insert(name, value.clone());
        }
    }
    point.metrics = metrics;
    point
}

/// Property: over every registered leaf fabric and a spread of base seeds,
/// `hier{pods=1,spine_latency=0}` reproduces the bare leaf bitwise. The
/// single pod sees the whole topology, the auto epoch resolves to one cycle
/// and no packet ever crosses the (zero-latency) spine, so the hierarchy
/// layer must be a pure pass-through.
#[test]
fn single_pod_zero_latency_hierarchy_is_bitwise_identical_to_the_bare_leaf() {
    ensure_registered();
    for leaf in ["firefly", "d-hetpnoc", "uniform-fabric"] {
        for seed in [None, Some(0xDEAD_BEEF), Some(0x5EED_5EED_5EED)] {
            let with_seed = |mut spec: ScenarioSpec| {
                if let Some(seed) = seed {
                    spec = spec.with_seed(seed);
                }
                spec
            };
            let hier = resolve(with_seed(ScenarioSpec::new(
                format!("hier{{pods=1,leaf={leaf},spine_latency=0}}"),
                "skewed-2",
            )))
            .run();
            let bare = resolve(with_seed(ScenarioSpec::new(leaf, "skewed-2"))).run();
            assert_eq!(hier.result.points.len(), bare.result.points.len());
            assert!(
                bare.result
                    .points
                    .iter()
                    .any(|p| p.stats.delivered_packets > 0),
                "{leaf}: the sweep delivered nothing, the comparison would be vacuous"
            );
            for (hier_point, bare_point) in hier.result.points.iter().zip(bare.result.points.iter())
            {
                assert_eq!(
                    normalized(hier_point.clone()),
                    bare_point.clone(),
                    "{leaf} seed {seed:?}: pods=1 + zero spine latency must degenerate \
                     to the bare leaf bitwise"
                );
            }
        }
    }
}

/// Every counted event came from exactly one pod or the spine: the per-pod
/// families (counted in the pod jobs) plus the spine totals (counted in the
/// replay) add up to the engine's own counters.
fn assert_pods_partition_the_totals(point: &SweepPoint, id: &str) {
    let counter = |name: &str| {
        point
            .metrics
            .counter(name)
            .unwrap_or_else(|| panic!("{id}: counter '{name}' missing"))
    };
    let pod_sum = |name: &str| -> u64 {
        let family = point.metrics.family(name);
        let family = family.unwrap_or_else(|| panic!("{id}: family '{name}' missing"));
        family
            .values()
            .map(|value| match value {
                MetricValue::Counter(count) => *count,
                other => panic!("{id}: '{name}' member is a {}", other.kind()),
            })
            .sum()
    };
    let stats = &point.stats;
    for (what, pods, spine, total) in [
        (
            "generated packets",
            pod_sum("pod_generated_packets"),
            counter("cross_pod_packets"),
            stats.generated_packets,
        ),
        (
            "delivered packets",
            pod_sum("pod_delivered_packets"),
            counter("spine_packets"),
            stats.delivered_packets,
        ),
        (
            "delivered bits",
            pod_sum("pod_delivered_bits"),
            counter("spine_bits"),
            stats.delivered_bits,
        ),
        (
            "dropped packets",
            pod_sum("pod_dropped_packets"),
            0,
            stats.dropped_packets,
        ),
    ] {
        assert_eq!(pods + spine, total, "{id}: {what}, pods + spine");
    }
}

/// Sharded pod execution over a pod × leaf matrix (including a closed-loop
/// collective that actually crosses the spine) is bitwise-identical whether
/// the per-pod batch jobs run on one `pnoc-exec` worker or several, and the
/// per-pod families partition every point's counters.
#[test]
fn sharded_pod_execution_is_bitwise_identical_parallel_vs_sequential() {
    ensure_registered();
    let matrix = [
        ScenarioSpec::new("hier{pods=2,leaf=firefly}", "uniform-random"),
        ScenarioSpec::new("hier{pods=4,leaf=firefly}", "skewed-2"),
        ScenarioSpec::new("hier{pods=2,leaf=d-hetpnoc}", "uniform-random"),
        ScenarioSpec::new("hier{pods=4,leaf=d-hetpnoc}", "skewed-2"),
        ScenarioSpec::closed_loop("hier{pods=4,leaf=d-hetpnoc}", "allreduce:16"),
    ];
    for spec in matrix {
        let scenario = resolve(spec);
        // One worker: pod batches run inline on the calling thread.
        pnoc_exec::set_worker_override(1);
        let sequential = scenario.run_with_mode(SweepMode::Sequential);
        // Several workers: pod batches actually fan out across the pool.
        pnoc_exec::set_worker_override(4);
        let parallel = scenario.run_with_mode(SweepMode::Sequential);
        pnoc_exec::set_worker_override(0);
        assert!(
            sequential
                .result
                .points
                .iter()
                .any(|p| p.stats.delivered_packets > 0),
            "{}: the sweep delivered nothing, the comparison would be vacuous",
            scenario.canonical_id()
        );
        assert_eq!(
            sequential,
            parallel,
            "{}: sharded pod execution must be bitwise-identical parallel vs sequential",
            scenario.canonical_id()
        );
        for point in &sequential.result.points {
            assert_pods_partition_the_totals(point, &scenario.canonical_id());
        }
    }
}

/// Cross-pod traffic exists and is accounted: a multi-pod run reports the
/// hierarchy-only metric families and a non-zero spine packet count under
/// pod-striped collective placement.
#[test]
fn multi_pod_runs_report_per_pod_and_cross_pod_families() {
    ensure_registered();
    let outcome = resolve(ScenarioSpec::closed_loop(
        "hier{pods=4,leaf=firefly}",
        "allreduce:16",
    ))
    .run();
    let point = outcome
        .result
        .points
        .first()
        .expect("closed-loop scenarios have one point");
    for name in HIER_ONLY_METRICS {
        assert!(
            point.metrics.iter().any(|(metric, _)| metric == name),
            "hierarchy metric '{name}' missing from a multi-pod run"
        );
    }
    let cross_pod = point
        .metrics
        .counter("cross_pod_packets")
        .expect("cross_pod_packets is a counter");
    assert!(
        cross_pod > 0,
        "pod-striped all-reduce placement must cross the spine"
    );
}

/// The replay order is pinned: the metric rows of four spine shapes — zero
/// latency with a partial slot shared by two packets, one flit per cycle
/// behind a deep open-loop backlog, an oversubscribed spine on a short epoch,
/// and the zero-latency partial-slot spine made photonic (so the golden pins
/// `delivered_photonic_bits` and `photonic_bits_by_cluster_pair` from spine
/// flits) — under an open-loop and a closed-loop payload must equal the golden,
/// which was rendered by the eager per-flit spine that
/// `crates/hier/tests/prop_spine.rs` keeps as its reference model. Not
/// regenerated by any switch: a deliberate change replaces the file with the
/// text this test writes out.
#[test]
fn hier_metric_rows_match_their_golden() {
    ensure_registered();
    let architectures = [
        "hier{pods=4,spine_latency=0,spine_bandwidth=3}",
        "hier{pods=16,spine_latency=1,spine_bandwidth=1,leaf=firefly}",
        "hier{pods=8,spine_oversub=4.0,epoch=16}",
        "hier{pods=4,spine=photonic,spine_latency=0,spine_bandwidth=3}",
    ];
    let specs: Vec<ScenarioSpec> = architectures
        .iter()
        .flat_map(|arch| {
            [
                ScenarioSpec::new(*arch, "skewed-3"),
                ScenarioSpec::closed_loop(*arch, "allreduce:16"),
            ]
        })
        .map(|spec| spec.with_effort(Effort::Smoke))
        .collect();
    let batch = run_specs(&specs).expect("registered names");
    let mut actual = String::new();
    for row in batch.scenarios.iter().flat_map(|s| s.metric_rows()) {
        actual.push_str(&render_jsonl_row(&row));
        actual.push('\n');
    }

    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/hier_metrics.jsonl");
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|error| panic!("{}: {error}", golden_path.display()));
    if actual != golden {
        let actual_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("hier_determinism");
        let actual_path = actual_dir.join("hier_metrics.jsonl");
        std::fs::create_dir_all(&actual_dir).expect("target tmpdir is writable");
        std::fs::write(&actual_path, actual).expect("actual text writes");
        panic!(
            "hier metric rows: expected {} but rendered {}",
            golden_path.display(),
            actual_path.display()
        );
    }
}
