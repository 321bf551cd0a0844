//! Serialization of [`ScenarioSpec`]s and matrix results through the
//! hand-rolled JSON value model in [`pnoc_store::json`].
//!
//! This module is the scenario wire format: `repro --dump-scenarios` writes
//! what [`render_scenarios`] produces, `repro --from-scenarios` reads it back
//! via [`parse_scenarios`], and the round trip is the identity
//! (`parse(render(specs)) == specs`, property-tested in
//! `tests/scenario_roundtrip.rs`). `repro --matrix` writes the deterministic
//! [`matrix_json`] document that CI diffs across two runs to prove the batch
//! engine reproducible.

use pnoc_sim::config::BandwidthSet;
use pnoc_sim::metrics::MetricReport;
use pnoc_sim::params::ArchParams;
use pnoc_sim::scenario::{Effort, MatrixResult, ScenarioResult, ScenarioSpec};
use pnoc_sim::stats::SimStats;
use pnoc_store::{Json, JsonParseError};

/// JSON representation of one scenario spec.
///
/// The seed is rendered as a **decimal string**, not a JSON number: the value
/// model stores numbers as `f64`, which cannot represent every `u64` exactly,
/// and seeds must survive the round trip bit-for-bit. Architecture-parameter
/// overrides serialize as a string→string object (values are raw spec
/// strings; typing happens against the schema at resolve time).
#[must_use]
pub(crate) fn spec_json(spec: &ScenarioSpec) -> Json {
    Json::obj(vec![
        ("architecture", Json::str(&spec.architecture)),
        (
            "arch_params",
            Json::Obj(
                spec.arch_params
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::str(v)))
                    .collect(),
            ),
        ),
        ("traffic", Json::str(&spec.traffic)),
        ("bandwidth_set", Json::str(spec.bandwidth_set.short_name())),
        ("effort", Json::str(spec.effort.label())),
        ("seed", Json::str(spec.seed.to_string())),
        (
            "ladder",
            Json::Arr(spec.ladder.iter().map(|&l| Json::Num(l)).collect()),
        ),
        (
            "workload",
            spec.workload.as_deref().map_or(Json::Null, Json::str),
        ),
        (
            "faults",
            spec.faults.as_deref().map_or(Json::Null, Json::str),
        ),
    ])
}

fn field<'a>(value: &'a Json, key: &str) -> Result<&'a Json, String> {
    value
        .get(key)
        .ok_or_else(|| format!("scenario spec is missing the '{key}' field"))
}

fn string_field(value: &Json, key: &str) -> Result<String, String> {
    field(value, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("scenario field '{key}' must be a string"))
}

/// Reads one scenario spec back from its JSON representation.
///
/// The seed is accepted either as a decimal string (what [`spec_json`]
/// writes) or, for hand-written files, as a non-negative integral number.
///
/// # Errors
///
/// Returns a human-readable message on missing fields, wrong types, unknown
/// bandwidth-set / effort labels, or an unparsable seed.
pub(crate) fn spec_from_json(value: &Json) -> Result<ScenarioSpec, String> {
    let architecture = string_field(value, "architecture")?;
    let traffic = string_field(value, "traffic")?;
    let set_name = string_field(value, "bandwidth_set")?;
    let bandwidth_set = BandwidthSet::from_short_name(&set_name)
        .ok_or_else(|| format!("unknown bandwidth set '{set_name}' (use set1, set2 or set3)"))?;
    let effort_name = string_field(value, "effort")?;
    let effort = Effort::parse(&effort_name)
        .ok_or_else(|| format!("unknown effort '{effort_name}' (use paper, quick or smoke)"))?;
    let seed = match field(value, "seed")? {
        Json::Str(text) => text
            .parse::<u64>()
            .map_err(|_| format!("seed '{text}' is not a u64"))?,
        Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => *n as u64,
        _ => return Err("seed must be a decimal string or a non-negative integer".to_string()),
    };
    let ladder = field(value, "ladder")?
        .as_array()
        .ok_or_else(|| "scenario field 'ladder' must be an array".to_string())?
        .iter()
        .map(|item| {
            item.as_f64()
                .ok_or_else(|| "ladder entries must be numbers".to_string())
        })
        .collect::<Result<Vec<f64>, String>>()?;
    // Optional (absent in pre-0.5 documents): the closed-loop workload
    // reference, `null` or missing for open-loop scenarios.
    let workload = match value.get("workload") {
        None | Some(Json::Null) => None,
        Some(Json::Str(reference)) => Some(reference.clone()),
        Some(_) => {
            return Err("scenario field 'workload' must be a string or null".to_string());
        }
    };
    // Optional (absent in pre-0.8 documents): the fault plan — a preset
    // name or canonical plan text, `null` or missing for healthy runs.
    let faults = match value.get("faults") {
        None | Some(Json::Null) => None,
        Some(Json::Str(plan)) => Some(plan.clone()),
        Some(_) => {
            return Err("scenario field 'faults' must be a string or null".to_string());
        }
    };
    // Optional (absent in pre-0.6 documents): architecture-parameter
    // overrides as a string→string object.
    let mut arch_params = ArchParams::new();
    match value.get("arch_params") {
        None | Some(Json::Null) => {}
        Some(Json::Obj(fields)) => {
            for (key, raw) in fields {
                match raw.as_str() {
                    Some(text) => arch_params.insert(key, text),
                    None => {
                        return Err(format!("scenario parameter '{key}' must be a string value"));
                    }
                }
            }
        }
        Some(_) => {
            return Err("scenario field 'arch_params' must be an object or null".to_string());
        }
    }
    Ok(ScenarioSpec {
        architecture,
        arch_params,
        traffic,
        bandwidth_set,
        effort,
        seed,
        ladder,
        workload,
        faults,
    })
}

/// JSON document for a batch of scenario specs (what `repro
/// --dump-scenarios` writes).
#[must_use]
pub(crate) fn scenarios_json(specs: &[ScenarioSpec]) -> Json {
    Json::obj(vec![
        ("format", Json::str("d-hetpnoc-scenarios/v1")),
        (
            "scenarios",
            Json::Arr(specs.iter().map(spec_json).collect()),
        ),
    ])
}

/// Renders a batch of scenario specs as a JSON document string.
#[must_use]
pub fn render_scenarios(specs: &[ScenarioSpec]) -> String {
    scenarios_json(specs).render() + "\n"
}

/// Parses a scenario document (the inverse of [`render_scenarios`]; a bare
/// top-level array of specs is also accepted).
///
/// # Errors
///
/// Returns a human-readable message on JSON syntax errors or invalid specs.
pub fn parse_scenarios(text: &str) -> Result<Vec<ScenarioSpec>, String> {
    let document = Json::parse(text).map_err(|e: JsonParseError| e.to_string())?;
    let list = match &document {
        Json::Arr(items) => items.as_slice(),
        Json::Obj(_) => document
            .get("scenarios")
            .and_then(Json::as_array)
            .ok_or_else(|| "scenario document has no 'scenarios' array".to_string())?,
        _ => return Err("scenario document must be an object or an array".to_string()),
    };
    list.iter()
        .enumerate()
        .map(|(i, item)| spec_from_json(item).map_err(|e| format!("scenario #{i}: {e}")))
        .collect()
}

fn stats_json(stats: &SimStats) -> Json {
    Json::obj(vec![
        (
            "delivered_packets",
            Json::Num(stats.delivered_packets as f64),
        ),
        ("delivered_bits", Json::Num(stats.delivered_bits as f64)),
        ("dropped_packets", Json::Num(stats.dropped_packets as f64)),
        (
            "accepted_bandwidth_gbps",
            Json::Num(stats.accepted_bandwidth_gbps()),
        ),
        ("packet_energy_pj", Json::Num(stats.packet_energy_pj())),
        (
            "average_latency_cycles",
            Json::Num(stats.average_packet_latency()),
        ),
        ("drop_rate", Json::Num(stats.drop_rate())),
    ])
}

/// JSON digest of a point's streamed latency metrics: the
/// p50/p95/p99/max summary of the `latency_cycles` quantile sketch, or
/// `null` when the point carries no metrics.
#[must_use]
pub(crate) fn latency_percentiles_json(metrics: &MetricReport) -> Json {
    let Some(sketch) = metrics.histogram("latency_cycles") else {
        return Json::Null;
    };
    let quantile = |p: f64| {
        sketch
            .percentile(p)
            .map_or(Json::Null, |v| Json::Num(v as f64))
    };
    Json::obj(vec![
        ("p50", quantile(50.0)),
        ("p95", quantile(95.0)),
        ("p99", quantile(99.0)),
        (
            "max",
            sketch.max().map_or(Json::Null, |v| Json::Num(v as f64)),
        ),
        ("samples", Json::Num(sketch.count() as f64)),
    ])
}

/// JSON representation of one scenario result: the spec, the derived
/// per-point seeds, a per-point stats digest (including the streamed
/// latency percentiles) and the headline metrics.
#[must_use]
pub(crate) fn scenario_result_json(result: &ScenarioResult) -> Json {
    Json::obj(vec![
        ("spec", spec_json(&result.spec)),
        ("id", Json::str(result.spec.id())),
        (
            "point_seeds",
            Json::Arr(
                result
                    .point_seeds()
                    .iter()
                    .map(|s| Json::str(s.to_string()))
                    .collect(),
            ),
        ),
        (
            "points",
            Json::Arr(
                result
                    .result
                    .points
                    .iter()
                    .map(|p| {
                        Json::obj(vec![
                            ("offered_load", Json::Num(p.offered_load)),
                            ("stats", stats_json(&p.stats)),
                            ("latency_percentiles", latency_percentiles_json(&p.metrics)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "peak_bandwidth_gbps",
            Json::Num(result.result.peak_bandwidth_gbps()),
        ),
        (
            "sustainable_bandwidth_gbps",
            Json::Num(result.result.sustainable_bandwidth_gbps()),
        ),
        (
            "packet_energy_at_saturation_pj",
            Json::Num(result.result.packet_energy_at_saturation_pj()),
        ),
    ])
}

/// The deterministic JSON document `repro --matrix` writes: every scenario
/// result plus the work-queue statistics. Contains **no wall-clock fields**,
/// so two runs of the same matrix must produce byte-identical documents —
/// CI asserts exactly that.
#[must_use]
pub fn matrix_json(result: &MatrixResult) -> Json {
    Json::obj(vec![
        ("generated_by", Json::str("repro --matrix")),
        ("total_points", Json::Num(result.total_points as f64)),
        ("unique_points", Json::Num(result.unique_points as f64)),
        (
            "scenarios",
            Json::Arr(result.scenarios.iter().map(scenario_result_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_spec() -> ScenarioSpec {
        ScenarioSpec::new("d-hetpnoc", "tornado")
            .with_bandwidth_set(BandwidthSet::Set2)
            .with_effort(Effort::Smoke)
            .with_seed(u64::MAX - 7)
            .with_ladder(vec![0.001, 0.0025, 0.004])
    }

    #[test]
    fn spec_round_trips_through_json_including_a_non_f64_seed() {
        let spec = example_spec();
        let rendered = spec_json(&spec).render();
        let parsed = spec_from_json(&Json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(
            parsed, spec,
            "u64::MAX-7 does not fit f64; string seed must survive"
        );
    }

    #[test]
    fn scenario_documents_round_trip_and_validate() {
        let specs = vec![
            example_spec(),
            ScenarioSpec::new("firefly", "uniform-random"),
        ];
        let text = render_scenarios(&specs);
        assert_eq!(parse_scenarios(&text).unwrap(), specs);

        // Bare arrays are accepted too.
        let bare = Json::Arr(specs.iter().map(spec_json).collect()).render();
        assert_eq!(parse_scenarios(&bare).unwrap(), specs);

        assert!(parse_scenarios("{}").is_err());
        assert!(parse_scenarios("42").is_err());
        let mut bad = spec_json(&example_spec());
        if let Json::Obj(fields) = &mut bad {
            fields.retain(|(k, _)| k != "traffic");
        }
        let error = parse_scenarios(&Json::Arr(vec![bad]).render()).unwrap_err();
        assert!(error.contains("missing the 'traffic' field"), "{error}");
    }

    #[test]
    fn workload_specs_round_trip_and_old_documents_still_parse() {
        let spec =
            ScenarioSpec::closed_loop("d-hetpnoc", "allreduce:64").with_effort(Effort::Smoke);
        let rendered = spec_json(&spec).render();
        let parsed = spec_from_json(&Json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.workload.as_deref(), Some("allreduce:64"));

        // Pre-0.5 documents have no 'workload' field: they parse as
        // open-loop specs.
        let mut old = spec_json(&example_spec());
        if let Json::Obj(fields) = &mut old {
            fields.retain(|(k, _)| k != "workload");
        }
        let parsed = spec_from_json(&old).unwrap();
        assert_eq!(parsed, example_spec());
        assert!(parsed.workload.is_none());
    }

    #[test]
    fn arch_params_round_trip_and_old_documents_still_parse() {
        let spec = example_spec()
            .with_arch_param("max_wavelengths", 4)
            .with_arch_param("policy", "paper-max");
        let rendered = spec_json(&spec).render();
        let parsed = spec_from_json(&Json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.arch_params.get("policy"), Some("paper-max"));

        // Pre-0.6 documents have no 'arch_params' field: they parse with
        // empty overrides (= the architecture's defaults).
        let mut old = spec_json(&example_spec());
        if let Json::Obj(fields) = &mut old {
            fields.retain(|(k, _)| k != "arch_params");
        }
        let parsed = spec_from_json(&old).unwrap();
        assert_eq!(parsed, example_spec());
        assert!(parsed.arch_params.is_empty());

        // Non-string parameter values are rejected with a clear message.
        let mut bad = spec_json(&spec);
        if let Json::Obj(fields) = &mut bad {
            for (k, v) in fields.iter_mut() {
                if k == "arch_params" {
                    *v = Json::obj(vec![("radix", Json::Num(8.0))]);
                }
            }
        }
        let error = spec_from_json(&bad).unwrap_err();
        assert!(error.contains("'radix' must be a string"), "{error}");
    }

    #[test]
    fn fault_plans_round_trip_and_old_documents_still_parse() {
        let spec = example_spec().with_faults("single-link");
        let rendered = spec_json(&spec).render();
        let parsed = spec_from_json(&Json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.faults.as_deref(), Some("single-link"));

        // Pre-0.8 documents have no 'faults' field: they parse as healthy
        // scenarios.
        let mut old = spec_json(&example_spec());
        if let Json::Obj(fields) = &mut old {
            fields.retain(|(k, _)| k != "faults");
        }
        let parsed = spec_from_json(&old).unwrap();
        assert_eq!(parsed, example_spec());
        assert!(parsed.faults.is_none());

        // Non-string fault plans are rejected with a clear message.
        let mut bad = spec_json(&spec);
        if let Json::Obj(fields) = &mut bad {
            for (k, v) in fields.iter_mut() {
                if k == "faults" {
                    *v = Json::Num(1.0);
                }
            }
        }
        let error = spec_from_json(&bad).unwrap_err();
        assert!(
            error.contains("'faults' must be a string or null"),
            "{error}"
        );
    }

    #[test]
    fn numeric_seeds_are_accepted_for_hand_written_files() {
        let mut value = spec_json(&ScenarioSpec::new("firefly", "tornado"));
        if let Json::Obj(fields) = &mut value {
            for (k, v) in fields.iter_mut() {
                if k == "seed" {
                    *v = Json::Num(42.0);
                }
            }
        }
        assert_eq!(spec_from_json(&value).unwrap().seed, 42);
    }

    #[test]
    fn matrix_document_is_free_of_wall_clock_fields() {
        let result = MatrixResult {
            scenarios: Vec::new(),
            total_points: 6,
            unique_points: 5,
            wall_clock_seconds: 1.25,
            cache: pnoc_sim::scenario::CacheStats {
                hits: 3,
                misses: 2,
                stored: 2,
                simulated: 1,
            },
        };
        let text = matrix_json(&result).render();
        assert!(!text.contains("wall_clock"), "{text}");
        // Cache accounting varies between cold and warm runs of the same
        // matrix, so it must stay out of the deterministic document too.
        assert!(!text.contains("cache"), "{text}");
        assert!(text.contains("\"unique_points\": 5"));
    }
}
