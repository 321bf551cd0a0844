//! Lossless codec between [`SweepPoint`] and the JSON value model.
//!
//! The cache must hand back **bit-identical** simulation output, so this
//! codec never routes a number through decimal floating-point text:
//!
//! * `f64` fields serialize as the 16-hex-digit IEEE-754 bit pattern
//!   (`f64::to_bits`), decoded with `f64::from_bits` — exact for every
//!   value including negative zero and subnormals,
//! * `u64` fields serialize as decimal **strings** (a JSON number is an
//!   `f64` in the value model and cannot represent every `u64`),
//! * quantile sketches serialize as their `(bucket index, count)` wire
//!   pairs plus the tracked aggregates, rebuilt through
//!   [`QuantileSketch::from_parts`] which re-validates the structural
//!   invariants.
//!
//! Decoding is total over arbitrary input: every malformed shape returns a
//! [`CodecError`] naming the offending field, so the store can treat any
//! tampered or truncated entry as a cache miss.

use crate::json::Json;
use pnoc_photonics::energy::EnergyBreakdown;
use pnoc_sim::clock::Clock;
use pnoc_sim::metrics::{MetricReport, MetricValue, QuantileSketch};
use pnoc_sim::stats::SimStats;
use pnoc_sim::sweep::SweepPoint;
use std::collections::BTreeMap;

/// Why a serialized point failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// What was wrong, naming the offending field.
    pub message: String,
}

impl CodecError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CodecError {}

fn bits(value: f64) -> Json {
    Json::Str(format!("{:016x}", value.to_bits()))
}

fn uint(value: u64) -> Json {
    Json::Str(value.to_string())
}

fn field<'a>(value: &'a Json, key: &str) -> Result<&'a Json, CodecError> {
    value
        .get(key)
        .ok_or_else(|| CodecError::new(format!("missing field '{key}'")))
}

fn bits_field(value: &Json, key: &str) -> Result<f64, CodecError> {
    let text = field(value, key)?
        .as_str()
        .ok_or_else(|| CodecError::new(format!("field '{key}' must be a hex-bits string")))?;
    if text.len() != 16 {
        return Err(CodecError::new(format!(
            "field '{key}' must be 16 hex digits, got '{text}'"
        )));
    }
    u64::from_str_radix(text, 16)
        .map(f64::from_bits)
        .map_err(|_| CodecError::new(format!("field '{key}' is not hex: '{text}'")))
}

fn uint_field(value: &Json, key: &str) -> Result<u64, CodecError> {
    parse_uint(field(value, key)?, key)
}

fn parse_uint(value: &Json, context: &str) -> Result<u64, CodecError> {
    let text = value
        .as_str()
        .ok_or_else(|| CodecError::new(format!("'{context}' must be a decimal u64 string")))?;
    text.parse::<u64>()
        .map_err(|_| CodecError::new(format!("'{context}' is not a u64: '{text}'")))
}

fn string_field(value: &Json, key: &str) -> Result<String, CodecError> {
    field(value, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| CodecError::new(format!("field '{key}' must be a string")))
}

/// Serializes one sweep point (stats + metric report) losslessly.
#[must_use]
pub fn point_json(point: &SweepPoint) -> Json {
    Json::obj(vec![
        ("offered_load", bits(point.offered_load)),
        ("stats", stats_json(&point.stats)),
        ("metrics", report_json(&point.metrics)),
    ])
}

/// Decodes a sweep point serialized by [`point_json`].
///
/// # Errors
///
/// Returns a [`CodecError`] naming the offending field on any malformed
/// shape; the decode is total over arbitrary JSON input.
pub fn point_from_json(value: &Json) -> Result<SweepPoint, CodecError> {
    Ok(SweepPoint {
        offered_load: bits_field(value, "offered_load")?,
        stats: stats_from_json(field(value, "stats")?)?,
        metrics: report_from_json(field(value, "metrics")?)?,
    })
}

fn stats_json(stats: &SimStats) -> Json {
    Json::obj(vec![
        ("architecture", Json::str(&stats.architecture)),
        ("traffic", Json::str(&stats.traffic)),
        ("offered_load", bits(stats.offered_load)),
        ("measured_cycles", uint(stats.measured_cycles)),
        ("generated_packets", uint(stats.generated_packets)),
        ("dropped_packets", uint(stats.dropped_packets)),
        ("injected_packets", uint(stats.injected_packets)),
        ("injected_flits", uint(stats.injected_flits)),
        ("delivered_packets", uint(stats.delivered_packets)),
        ("delivered_flits", uint(stats.delivered_flits)),
        ("delivered_bits", uint(stats.delivered_bits)),
        (
            "delivered_photonic_bits",
            uint(stats.delivered_photonic_bits),
        ),
        ("total_packet_latency", uint(stats.total_packet_latency)),
        ("max_packet_latency", uint(stats.max_packet_latency)),
        ("energy", energy_json(&stats.energy)),
        (
            "clock",
            Json::obj(vec![("frequency_ghz", bits(stats.clock.frequency_ghz))]),
        ),
    ])
}

fn stats_from_json(value: &Json) -> Result<SimStats, CodecError> {
    let clock = field(value, "clock")?;
    Ok(SimStats {
        architecture: string_field(value, "architecture")?,
        traffic: string_field(value, "traffic")?,
        offered_load: bits_field(value, "offered_load")?,
        measured_cycles: uint_field(value, "measured_cycles")?,
        generated_packets: uint_field(value, "generated_packets")?,
        dropped_packets: uint_field(value, "dropped_packets")?,
        injected_packets: uint_field(value, "injected_packets")?,
        injected_flits: uint_field(value, "injected_flits")?,
        delivered_packets: uint_field(value, "delivered_packets")?,
        delivered_flits: uint_field(value, "delivered_flits")?,
        delivered_bits: uint_field(value, "delivered_bits")?,
        delivered_photonic_bits: uint_field(value, "delivered_photonic_bits")?,
        total_packet_latency: uint_field(value, "total_packet_latency")?,
        max_packet_latency: uint_field(value, "max_packet_latency")?,
        energy: energy_from_json(field(value, "energy")?)?,
        clock: Clock::new(bits_field(clock, "frequency_ghz")?),
    })
}

fn energy_json(energy: &EnergyBreakdown) -> Json {
    Json::obj(vec![
        ("launch_pj", bits(energy.launch_pj)),
        ("modulation_pj", bits(energy.modulation_pj)),
        ("tuning_pj", bits(energy.tuning_pj)),
        ("buffer_pj", bits(energy.buffer_pj)),
        ("electrical_pj", bits(energy.electrical_pj)),
    ])
}

fn energy_from_json(value: &Json) -> Result<EnergyBreakdown, CodecError> {
    Ok(EnergyBreakdown {
        launch_pj: bits_field(value, "launch_pj")?,
        modulation_pj: bits_field(value, "modulation_pj")?,
        tuning_pj: bits_field(value, "tuning_pj")?,
        buffer_pj: bits_field(value, "buffer_pj")?,
        electrical_pj: bits_field(value, "electrical_pj")?,
    })
}

/// Serializes a metric report losslessly (names in report order, which is
/// already deterministic name order).
#[must_use]
pub(crate) fn report_json(report: &MetricReport) -> Json {
    Json::Obj(
        report
            .iter()
            .map(|(name, value)| (name.to_string(), metric_value_json(value)))
            .collect(),
    )
}

/// Decodes a metric report serialized by [`report_json`].
///
/// # Errors
///
/// Returns a [`CodecError`] naming the offending metric on any malformed
/// shape.
pub(crate) fn report_from_json(value: &Json) -> Result<MetricReport, CodecError> {
    let Json::Obj(fields) = value else {
        return Err(CodecError::new("metric report must be an object"));
    };
    let mut report = MetricReport::new();
    for (name, entry) in fields {
        report.insert(name.clone(), metric_value_from_json(entry, name)?);
    }
    Ok(report)
}

fn metric_value_json(value: &MetricValue) -> Json {
    match value {
        MetricValue::Counter(count) => Json::obj(vec![("counter", uint(*count))]),
        MetricValue::Gauge(level) => Json::obj(vec![("gauge", bits(*level))]),
        MetricValue::Histogram(sketch) => Json::obj(vec![("histogram", sketch_json(sketch))]),
        MetricValue::Family(members) => Json::obj(vec![(
            "family",
            Json::Obj(
                members
                    .iter()
                    .map(|(label, member)| (label.clone(), metric_value_json(member)))
                    .collect(),
            ),
        )]),
    }
}

fn metric_value_from_json(value: &Json, context: &str) -> Result<MetricValue, CodecError> {
    if let Some(count) = value.get("counter") {
        return Ok(MetricValue::Counter(parse_uint(count, context)?));
    }
    if let Some(level) = value.get("gauge") {
        let text = level
            .as_str()
            .ok_or_else(|| CodecError::new(format!("gauge '{context}' must be hex bits")))?;
        let raw = u64::from_str_radix(text, 16)
            .map_err(|_| CodecError::new(format!("gauge '{context}' is not hex: '{text}'")))?;
        return Ok(MetricValue::Gauge(f64::from_bits(raw)));
    }
    if let Some(sketch) = value.get("histogram") {
        return Ok(MetricValue::Histogram(sketch_from_json(sketch, context)?));
    }
    if let Some(members) = value.get("family") {
        let Json::Obj(fields) = members else {
            return Err(CodecError::new(format!(
                "family '{context}' must be an object"
            )));
        };
        let mut decoded: BTreeMap<String, MetricValue> = BTreeMap::new();
        for (label, member) in fields {
            decoded.insert(
                label.clone(),
                metric_value_from_json(member, &format!("{context}/{label}"))?,
            );
        }
        return Ok(MetricValue::Family(decoded));
    }
    Err(CodecError::new(format!(
        "metric '{context}' has no counter/gauge/histogram/family payload"
    )))
}

fn sketch_json(sketch: &QuantileSketch) -> Json {
    Json::obj(vec![
        ("count", uint(sketch.count())),
        ("sum", uint(sketch.sum())),
        ("min", sketch.min().map_or(Json::Null, uint)),
        ("max", sketch.max().map_or(Json::Null, uint)),
        (
            "bins",
            Json::Arr(
                sketch
                    .nonzero_bins()
                    .into_iter()
                    .map(|(index, count)| Json::Arr(vec![Json::Num(index as f64), uint(count)]))
                    .collect(),
            ),
        ),
    ])
}

fn sketch_from_json(value: &Json, context: &str) -> Result<QuantileSketch, CodecError> {
    let optional_uint = |key: &str| -> Result<Option<u64>, CodecError> {
        match field(value, key)? {
            Json::Null => Ok(None),
            other => parse_uint(other, key).map(Some),
        }
    };
    let bins = field(value, "bins")?
        .as_array()
        .ok_or_else(|| CodecError::new(format!("sketch '{context}' bins must be an array")))?
        .iter()
        .map(|pair| {
            let items = pair
                .as_array()
                .filter(|items| items.len() == 2)
                .ok_or_else(|| {
                    CodecError::new(format!(
                        "sketch '{context}' bins must be [index, count] pairs"
                    ))
                })?;
            let index = items[0]
                .as_f64()
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .ok_or_else(|| {
                    CodecError::new(format!("sketch '{context}' bin index must be an integer"))
                })? as usize;
            Ok((index, parse_uint(&items[1], "bin count")?))
        })
        .collect::<Result<Vec<(usize, u64)>, CodecError>>()?;
    QuantileSketch::from_parts(
        &bins,
        uint_field(value, "count")?,
        uint_field(value, "sum")?,
        optional_uint("min")?,
        optional_uint("max")?,
    )
    .ok_or_else(|| {
        CodecError::new(format!(
            "sketch '{context}' parts violate structural invariants"
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnoc_sim::clock::Clock;

    fn sample_point() -> SweepPoint {
        let mut stats = SimStats::new("firefly", "uniform-random", 0.1, Clock::paper_default());
        stats.measured_cycles = 1_200;
        stats.generated_packets = u64::MAX - 3;
        stats.delivered_bits = 123_456_789_012_345;
        stats.delivered_packets = 2;
        stats.total_packet_latency = 5_007;
        stats.max_packet_latency = 5_000;
        stats.energy.launch_pj = 0.1 + 0.2; // deliberately not representable
        stats.energy.electrical_pj = -0.0;
        let mut sketch = QuantileSketch::new();
        for sample in [0, 1, 63, 64, 12_345] {
            sketch.record(sample);
        }
        let mut family = BTreeMap::new();
        family.insert("n000".to_string(), MetricValue::Counter(9));
        family.insert(
            "n001".to_string(),
            MetricValue::Family(BTreeMap::from([(
                "inner".to_string(),
                MetricValue::Gauge(f64::MIN_POSITIVE / 2.0), // subnormal
            )])),
        );
        let mut metrics = MetricReport::new();
        metrics.insert("latency_cycles", MetricValue::Histogram(sketch));
        metrics.insert("delivered_packets", MetricValue::Counter(2));
        metrics.insert("power_w", MetricValue::Gauge(1.0 / 3.0));
        metrics.insert("per_node", MetricValue::Family(family));
        SweepPoint {
            offered_load: 0.001 * 3.0,
            stats,
            metrics,
        }
    }

    #[test]
    fn point_round_trips_bit_exactly() {
        let point = sample_point();
        let decoded = point_from_json(&point_json(&point)).expect("round trip");
        assert_eq!(decoded, point);
        assert_eq!(
            decoded.stats.energy.electrical_pj.to_bits(),
            (-0.0f64).to_bits(),
            "negative zero must survive"
        );
    }

    #[test]
    fn point_survives_a_render_parse_cycle() {
        let point = sample_point();
        let text = point_json(&point).render();
        let reparsed = Json::parse(&text).expect("own output parses");
        assert_eq!(point_from_json(&reparsed).expect("decodes"), point);
    }

    #[test]
    fn entries_carry_no_latency_histogram_and_tolerate_an_old_one() {
        let point = sample_point();
        let mut doc = point_json(&point);
        assert!(!doc.render().contains("latency_histogram"));
        // A 0.10-shaped entry carried a fixed-bin histogram inside `stats`;
        // the decoder reads fields by name, so the extra key is ignored.
        let Json::Obj(fields) = &mut doc else {
            panic!("point documents are objects");
        };
        let stats = fields
            .iter_mut()
            .find_map(|(key, value)| (key == "stats").then_some(value))
            .expect("stats field");
        let Json::Obj(stats_fields) = stats else {
            panic!("stats is an object");
        };
        stats_fields.push((
            "latency_histogram".to_string(),
            Json::obj(vec![
                ("bin_width", uint(16)),
                ("bins", Json::Arr(vec![uint(1), uint(0)])),
                ("overflow", uint(1)),
            ]),
        ));
        assert_eq!(point_from_json(&doc).expect("old shape decodes"), point);
    }

    #[test]
    fn malformed_documents_fail_with_field_context() {
        let point = sample_point();
        let mut doc = point_json(&point);
        if let Json::Obj(fields) = &mut doc {
            fields.retain(|(k, _)| k != "stats");
        }
        let error = point_from_json(&doc).expect_err("missing stats");
        assert!(error.to_string().contains("stats"), "{error}");

        let error = point_from_json(&Json::Null).expect_err("not an object");
        assert!(error.to_string().contains("offered_load"), "{error}");
    }

    #[test]
    fn tampered_sketch_parts_are_rejected() {
        let value = Json::obj(vec![
            ("count", uint(5)),
            ("sum", uint(10)),
            ("min", uint(1)),
            ("max", uint(4)),
            // Counts sum to 4, not the claimed 5.
            (
                "bins",
                Json::Arr(vec![Json::Arr(vec![Json::Num(1.0), uint(4)])]),
            ),
        ]);
        assert!(sketch_from_json(&value, "latency").is_err());
    }
}
