//! The metric tables: what `BENCHMARK.json` declares, in the same order. A
//! unit test keeps the two in step.

use crate::harness::Better::{self, Higher, Lower};

/// An end-to-end metric: name, unit, good direction, and the share of the
/// parent's median by which it may get worse.
pub struct EndToEnd {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Good direction.
    pub better: Better,
    /// Regression bound.
    pub bound: f64,
}

/// Every workload reports every one of these from its untraced run.
///
/// * `setup_s` — process start to ready (registration, pool start-up, input
///   generation and resolution), median over fresh processes.
/// * `sim_cycles_per_s`, `points_per_s` — simulated cycles and sweep points
///   per host second over the calls that simulate, each at its best time
///   (the service round: its cold `POST /run`).
/// * `rep_s` — host seconds of one whole rep at the best time of each of its
///   calls (the service round: cold and warm passes, revalidations and all).
/// * `peak_rss_mb` — `VmHWM` when the last timed rep ends.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_cycles_per_s",
        unit: "cycles/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "points_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "rep_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.05,
    },
];

/// Per-layer metrics `(name, unit, good direction)`, reported by the traced
/// run. A workload reports 0 for a layer it does not probe.
pub const PER_LAYER: [(&str, &str, Better); 64] = [
    // Kernels (ladder_saturated).
    ("noc.router_step_ns", "ns", Lower),
    ("noc.arbiter_grant_ns", "ns", Lower),
    ("traffic.poll_ns_per_cycle", "ns", Lower),
    ("core.dba_token_tick_ns", "ns", Lower),
    ("core.dba_converge_us", "us", Lower),
    ("core.fabric_build_us", "us", Lower),
    // Engine (ladder_saturated).
    ("sim.cycles_per_s.load_low", "cycles/s", Higher),
    ("sim.cycles_per_s.load_mid", "cycles/s", Higher),
    ("sim.cycles_per_s.load_sat", "cycles/s", Higher),
    ("sim.step_ns.dhetpnoc_sat", "ns", Lower),
    ("sim.step_ns.firefly_sat", "ns", Lower),
    ("sim.event_skip_speedup", "ratio", Higher),
    // Simulated results (exact; they compare two versions of the program).
    ("sim.bw_gain_pct", "%", Higher),
    ("sim.makespan_cycles", "cycles", Lower),
    // Orchestration (service_cold_warm).
    ("sim.system_build_us", "us", Lower),
    ("sim.scenario_resolve_us", "us", Lower),
    ("sim.matrix_plan_us", "us", Lower),
    ("sim.metrics_merge_us", "us", Lower),
    // Closed loop and faults (collectives_closed_loop).
    ("sim.workload_point_s", "s", Lower),
    ("workload.dag_build_us", "us", Lower),
    ("workload.flows", "count", Lower),
    ("faults.plan_parse_us", "us", Lower),
    ("faults.overhead_ratio", "ratio", Lower),
    // Executor (service_cold_warm).
    ("exec.pool_startup_s", "s", Lower),
    ("exec.batch_overhead_us_per_job", "us", Lower),
    ("exec.parallel_speedup", "ratio", Higher),
    // Store and codec (service_cold_warm).
    ("store.save_us", "us", Lower),
    ("store.load_hit_us", "us", Lower),
    ("store.load_miss_us", "us", Lower),
    ("store.encode_mb_per_s", "MB/s", Higher),
    ("store.decode_mb_per_s", "MB/s", Higher),
    ("store.entry_bytes", "bytes", Lower),
    ("store.compact_ms", "ms", Lower),
    ("store.evict_ms", "ms", Lower),
    // Server and documents (service_cold_warm).
    ("bench.server.cold_post_s", "s", Lower),
    ("bench.server.warm_post_ms", "ms", Lower),
    ("bench.server.warm_points_per_s", "1/s", Higher),
    ("bench.server.warm_req_per_s", "1/s", Higher),
    ("bench.server.warm_latency_p50_ms", "ms", Lower),
    ("bench.server.warm_latency_p99_ms", "ms", Lower),
    ("bench.server.revalidate_p50_ms", "ms", Lower),
    ("bench.server.http_overhead_ms", "ms", Lower),
    ("bench.scenario_io.parse_us", "us", Lower),
    ("bench.scenario_io.render_mb_per_s", "MB/s", Higher),
    // Hierarchy (hier_pods).
    ("hier.wall_s.pods1", "s", Lower),
    ("hier.wall_s.pods4", "s", Lower),
    ("hier.wall_s.pods16", "s", Lower),
    ("hier.wall_s.pods64", "s", Lower),
    ("hier.rss_mb.pods1", "MiB", Lower),
    ("hier.rss_mb.pods4", "MiB", Lower),
    ("hier.rss_mb.pods16", "MiB", Lower),
    ("hier.rss_mb.pods64", "MiB", Lower),
    ("hier.spine_flits", "count", Lower),
    ("hier.parallel_speedup", "ratio", Higher),
    // Share of rep time spent inside each layer's calls (self time).
    ("span.sim_pct", "%", Lower),
    ("span.hier_pct", "%", Lower),
    ("span.store_pct", "%", Lower),
    ("span.server_pct", "%", Lower),
    ("span.harness_pct", "%", Lower),
    // The harness itself.
    ("harness.wall_s", "s", Lower),
    ("harness.reps", "count", Higher),
    ("harness.warmup_rep_s", "s", Lower),
    ("harness.rep_iqr_pct", "%", Lower),
    ("harness.trace_overhead_pct", "%", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use pnoc_store::Json;

    fn names(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("an array")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("a name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_tables() {
        let text =
            std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at the root");
        let doc = Json::parse(&text).expect("valid JSON");
        assert_eq!(
            names(&doc, "workloads"),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names(&doc, "per_layer"),
            PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        let declared = doc
            .get("end_to_end")
            .and_then(Json::as_array)
            .expect("array");
        assert_eq!(declared.len(), END_TO_END.len());
        for (metric, json) in END_TO_END.iter().zip(declared) {
            let field = |key: &str| json.get(key).and_then(Json::as_str).expect("a string");
            assert_eq!(field("name"), metric.name);
            assert_eq!(field("unit"), metric.unit);
            assert_eq!(field("better"), metric.better.label());
            assert_eq!(json.get("bound").and_then(Json::as_f64), Some(metric.bound));
        }
        let declared = doc
            .get("per_layer")
            .and_then(Json::as_array)
            .expect("array");
        for ((_, unit, better), json) in PER_LAYER.iter().zip(declared) {
            assert_eq!(json.get("unit").and_then(Json::as_str), Some(*unit));
            assert_eq!(
                json.get("better").and_then(Json::as_str),
                Some(better.label())
            );
        }
    }
}
