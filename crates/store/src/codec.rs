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
//! [`CodecError`], so the store can treat any tampered or truncated entry
//! as a cache miss.
//!
//! There is one decoder, written over `FieldReader`: [`point_from_json`]
//! runs it on a parsed [`Json`] tree, and the store runs it straight off an
//! entry's text (`read_point`), building no tree. Its rules are those of a
//! lookup by name in the tree:
//!
//! * a fixed field (`offered_load`, every `stats`, `energy` and sketch
//!   field) is read at its first occurrence; a later duplicate is only
//!   checked to be JSON;
//! * a metric's payload is the first of `counter`, `gauge`, `histogram`,
//!   `family` that is present, whatever the order of the keys; the others
//!   are only checked to be JSON;
//! * report names and family labels are decoded at every occurrence, and
//!   the last one wins;
//! * unknown keys are checked to be JSON and otherwise ignored.

use crate::json::{FieldReader, Json, JsonParseError};
use pnoc_photonics::energy::EnergyBreakdown;
use pnoc_sim::clock::Clock;
use pnoc_sim::metrics::{MetricReport, MetricValue, QuantileSketch, SUB_BITS};
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

    /// This error, as met inside the metric or family member `name`. The
    /// path is built on the way out of a failed decode only.
    fn within(self, name: &str) -> Self {
        Self::new(format!("{name}: {}", self.message))
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CodecError {}

impl From<JsonParseError> for CodecError {
    fn from(error: JsonParseError) -> Self {
        Self::new(error.to_string())
    }
}

fn bits(value: f64) -> Json {
    Json::Str(format!("{:016x}", value.to_bits()))
}

fn uint(value: u64) -> Json {
    Json::Str(value.to_string())
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
    read_point(&mut { value })
}

fn stats_json(stats: &SimStats) -> Json {
    Json::obj(vec![
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

fn energy_json(energy: &EnergyBreakdown) -> Json {
    Json::obj(vec![
        ("launch_pj", bits(energy.launch_pj)),
        ("modulation_pj", bits(energy.modulation_pj)),
        ("tuning_pj", bits(energy.tuning_pj)),
        ("buffer_pj", bits(energy.buffer_pj)),
        ("electrical_pj", bits(energy.electrical_pj)),
    ])
}

/// Serializes a metric report losslessly (names in report order, which is
/// already deterministic name order).
#[must_use]
fn report_json(report: &MetricReport) -> Json {
    Json::Obj(
        report
            .iter()
            .map(|(name, value)| (name.to_string(), metric_value_json(value)))
            .collect(),
    )
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

/// [`FieldReader::object`] with the codec's error: calls `member` with
/// each key and value of an object; `Ok(false)` for any other value.
pub(crate) fn fields<'a, R: FieldReader<'a>>(
    value: &mut R,
    member: impl FnMut(&str, &mut R) -> Result<(), CodecError>,
) -> Result<bool, CodecError> {
    value.object(member)
}

/// [`FieldReader::array`] with the codec's error.
fn items<'a, R: FieldReader<'a>>(
    value: &mut R,
    item: impl FnMut(&mut R) -> Result<(), CodecError>,
) -> Result<bool, CodecError> {
    value.array(item)
}

/// Reads a fixed field into `slot` at its first occurrence; later
/// duplicates are left unread.
fn first<T>(
    slot: &mut Option<T>,
    read: impl FnOnce() -> Result<T, CodecError>,
) -> Result<(), CodecError> {
    if slot.is_none() {
        *slot = Some(read()?);
    }
    Ok(())
}

fn required<T>(slot: Option<T>, key: &str) -> Result<T, CodecError> {
    slot.ok_or_else(|| CodecError::new(format!("missing field '{key}'")))
}

/// [`required`] over a row of same-typed fields named by `keys`.
fn required_all<T: Default, const N: usize>(
    slots: [Option<T>; N],
    keys: &[&str; N],
) -> Result<[T; N], CodecError> {
    if let Some(index) = slots.iter().position(Option::is_none) {
        return Err(CodecError::new(format!("missing field '{}'", keys[index])));
    }
    Ok(slots.map(Option::unwrap_or_default))
}

/// Reads one of the fields named by `keys` into its slot (first occurrence
/// wins); `Ok(false)` when `key` is none of them.
fn row_field<'a, R: FieldReader<'a>, T, const N: usize>(
    slots: &mut [Option<T>; N],
    keys: &[&str; N],
    key: &str,
    field: &mut R,
    read: impl FnOnce(&mut R, &str) -> Result<T, CodecError>,
) -> Result<bool, CodecError> {
    let Some(index) = keys.iter().position(|name| *name == key) else {
        return Ok(false);
    };
    first(&mut slots[index], || read(field, key))?;
    Ok(true)
}

fn read_bits<'a>(value: &mut impl FieldReader<'a>, key: &str) -> Result<f64, CodecError> {
    let text = value
        .str()?
        .ok_or_else(|| CodecError::new(format!("field '{key}' must be a hex-bits string")))?;
    if text.len() != 16 {
        return Err(CodecError::new(format!(
            "field '{key}' must be 16 hex digits, got '{text}'"
        )));
    }
    u64::from_str_radix(&text, 16)
        .map(f64::from_bits)
        .map_err(|_| CodecError::new(format!("field '{key}' is not hex: '{text}'")))
}

fn read_uint<'a>(value: &mut impl FieldReader<'a>, context: &str) -> Result<u64, CodecError> {
    let text = value
        .str()?
        .ok_or_else(|| CodecError::new(format!("'{context}' must be a decimal u64 string")))?;
    text.parse::<u64>()
        .map_err(|_| CodecError::new(format!("'{context}' is not a u64: '{text}'")))
}

/// Decodes a sweep point from `value`, which holds what [`point_json`]
/// wrote.
pub(crate) fn read_point<'a>(value: &mut impl FieldReader<'a>) -> Result<SweepPoint, CodecError> {
    let (mut offered_load, mut stats, mut metrics) = (None, None, None);
    fields(value, |key, field| match key {
        "offered_load" => first(&mut offered_load, || read_bits(field, key)),
        "stats" => first(&mut stats, || read_stats(field)),
        "metrics" => first(&mut metrics, || read_report(field)),
        _ => Ok(()),
    })?;
    Ok(SweepPoint {
        offered_load: required(offered_load, "offered_load")?,
        stats: required(stats, "stats")?,
        metrics: required(metrics, "metrics")?,
    })
}

const STATS_COUNTERS: [&str; 11] = [
    "measured_cycles",
    "generated_packets",
    "dropped_packets",
    "injected_packets",
    "injected_flits",
    "delivered_packets",
    "delivered_flits",
    "delivered_bits",
    "delivered_photonic_bits",
    "total_packet_latency",
    "max_packet_latency",
];

fn read_stats<'a>(value: &mut impl FieldReader<'a>) -> Result<SimStats, CodecError> {
    let (mut counters, mut energy, mut clock) = ([None; 11], None, None);
    fields(value, |key, field| match key {
        "energy" => first(&mut energy, || read_energy(field)),
        "clock" => first(&mut clock, || read_clock(field)),
        _ => row_field(&mut counters, &STATS_COUNTERS, key, field, read_uint).map(drop),
    })?;
    let [measured_cycles, generated_packets, dropped_packets, injected_packets, injected_flits, delivered_packets, delivered_flits, delivered_bits, delivered_photonic_bits, total_packet_latency, max_packet_latency] =
        required_all(counters, &STATS_COUNTERS)?;
    Ok(SimStats {
        measured_cycles,
        generated_packets,
        dropped_packets,
        injected_packets,
        injected_flits,
        delivered_packets,
        delivered_flits,
        delivered_bits,
        delivered_photonic_bits,
        total_packet_latency,
        max_packet_latency,
        energy: required(energy, "energy")?,
        clock: required(clock, "clock")?,
    })
}

fn read_clock<'a>(value: &mut impl FieldReader<'a>) -> Result<Clock, CodecError> {
    let mut frequency_ghz = None;
    fields(value, |key, field| match key {
        "frequency_ghz" => first(&mut frequency_ghz, || read_bits(field, key)),
        _ => Ok(()),
    })?;
    let frequency_ghz = required(frequency_ghz, "frequency_ghz")?;
    // `Clock::new` asserts a positive frequency: a tampered entry is a
    // miss, not a panic.
    (frequency_ghz > 0.0)
        .then(|| Clock::new(frequency_ghz))
        .ok_or_else(|| {
            CodecError::new(format!(
                "clock frequency must be positive, got {frequency_ghz}"
            ))
        })
}

const ENERGY_PARTS: [&str; 5] = [
    "launch_pj",
    "modulation_pj",
    "tuning_pj",
    "buffer_pj",
    "electrical_pj",
];

fn read_energy<'a>(value: &mut impl FieldReader<'a>) -> Result<EnergyBreakdown, CodecError> {
    let mut parts = [None; 5];
    fields(value, |key, field| {
        row_field(&mut parts, &ENERGY_PARTS, key, field, read_bits).map(drop)
    })?;
    let [launch_pj, modulation_pj, tuning_pj, buffer_pj, electrical_pj] =
        required_all(parts, &ENERGY_PARTS)?;
    Ok(EnergyBreakdown {
        launch_pj,
        modulation_pj,
        tuning_pj,
        buffer_pj,
        electrical_pj,
    })
}

fn read_report<'a>(value: &mut impl FieldReader<'a>) -> Result<MetricReport, CodecError> {
    let mut report = MetricReport::new();
    let is_object = fields(value, |name, entry| {
        report.insert(
            name,
            read_metric(entry).map_err(|error| error.within(name))?,
        );
        Ok(())
    })?;
    if !is_object {
        return Err(CodecError::new("metric report must be an object"));
    }
    Ok(report)
}

/// A metric's payload key, in the order that picks one when several are
/// present.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Payload {
    Counter,
    Gauge,
    Histogram,
    Family,
}

impl Payload {
    fn named(key: &str) -> Option<Self> {
        match key {
            "counter" => Some(Self::Counter),
            "gauge" => Some(Self::Gauge),
            "histogram" => Some(Self::Histogram),
            "family" => Some(Self::Family),
            _ => None,
        }
    }

    fn read<'a>(self, value: &mut impl FieldReader<'a>) -> Result<MetricValue, CodecError> {
        match self {
            Self::Counter => read_uint(value, "counter").map(MetricValue::Counter),
            Self::Gauge => {
                let text = value
                    .str()?
                    .ok_or_else(|| CodecError::new("gauge must be hex bits"))?;
                u64::from_str_radix(&text, 16)
                    .map(|raw| MetricValue::Gauge(f64::from_bits(raw)))
                    .map_err(|_| CodecError::new(format!("gauge is not hex: '{text}'")))
            }
            Self::Histogram => read_sketch(value).map(MetricValue::Histogram),
            Self::Family => read_family(value).map(MetricValue::Family),
        }
    }
}

/// Decodes one metric. A payload is decoded when it is the best seen so
/// far; one that a better payload later displaces may have failed without
/// failing the metric.
fn read_metric<'a, R: FieldReader<'a>>(value: &mut R) -> Result<MetricValue, CodecError> {
    let mut best: Option<(Payload, Result<MetricValue, CodecError>)> = None;
    fields(value, |key, field| {
        let Some(payload) = Payload::named(key) else {
            return Ok(());
        };
        if best.as_ref().is_some_and(|(seen, _)| *seen <= payload) {
            return Ok(());
        }
        best = Some((payload, field.attempt(|field| payload.read(field))?));
        Ok(())
    })?;
    best.map_or_else(
        || Err(CodecError::new("no counter/gauge/histogram/family payload")),
        |(_, decoded)| decoded,
    )
}

fn read_family<'a>(
    value: &mut impl FieldReader<'a>,
) -> Result<BTreeMap<String, MetricValue>, CodecError> {
    let mut members = BTreeMap::new();
    let is_object = fields(value, |label, member| {
        let decoded = read_metric(member).map_err(|error| error.within(label))?;
        members.insert(label.to_owned(), decoded);
        Ok(())
    })?;
    if !is_object {
        return Err(CodecError::new("family must be an object"));
    }
    Ok(members)
}

/// A sketch's `min` or `max`, `null` while it is empty.
fn read_bound<'a>(value: &mut impl FieldReader<'a>, key: &str) -> Result<Option<u64>, CodecError> {
    if value.is_null() {
        Ok(None)
    } else {
        read_uint(value, key).map(Some)
    }
}

fn read_sketch<'a>(value: &mut impl FieldReader<'a>) -> Result<QuantileSketch, CodecError> {
    let (mut count, mut sum, mut min, mut max, mut bins) = (None, None, None, None, None);
    fields(value, |key, field| match key {
        "count" => first(&mut count, || read_uint(field, key)),
        "sum" => first(&mut sum, || read_uint(field, key)),
        "min" => first(&mut min, || read_bound(field, key)),
        "max" => first(&mut max, || read_bound(field, key)),
        "bins" => first(&mut bins, || read_bins(field)),
        _ => Ok(()),
    })?;
    QuantileSketch::from_parts(
        &required(bins, "bins")?,
        required(count, "count")?,
        required(sum, "sum")?,
        required(min, "min")?,
        required(max, "max")?,
    )
    .ok_or_else(|| CodecError::new("sketch parts violate structural invariants"))
}

/// The bucket index of `u64::MAX`, the last a sketch has. `from_parts`
/// allocates up to the largest index it is given, so a tampered index past
/// this one is a miss here rather than a huge allocation there.
const MAX_BIN_INDEX: usize = ((65 - SUB_BITS) << SUB_BITS) as usize - 1;

fn read_bins<'a>(value: &mut impl FieldReader<'a>) -> Result<Vec<(usize, u64)>, CodecError> {
    let not_pairs = || CodecError::new("sketch bins must be [index, count] pairs");
    let mut bins = Vec::new();
    let is_array = items(value, |pair| {
        let (mut index, mut count, mut seen) = (None, None, 0);
        let is_array = items(pair, |item| {
            seen += 1;
            match seen {
                1 => {
                    index = item
                        .number()?
                        .filter(|n| *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_BIN_INDEX as f64)
                        .map(|n| n as usize);
                    if index.is_none() {
                        return Err(CodecError::new(format!(
                            "sketch bin index must be an integer in 0..={MAX_BIN_INDEX}"
                        )));
                    }
                }
                2 => count = Some(read_uint(item, "bin count")?),
                _ => return Err(not_pairs()),
            }
            Ok(())
        })?;
        match (is_array, index, count) {
            (true, Some(index), Some(count)) => bins.push((index, count)),
            _ => return Err(not_pairs()),
        }
        Ok(())
    })?;
    if !is_array {
        return Err(CodecError::new("sketch bins must be an array"));
    }
    Ok(bins)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnoc_sim::clock::Clock;

    fn sample_point() -> SweepPoint {
        let mut stats = SimStats::new(Clock::paper_default());
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

        // `Clock::new` would panic on these.
        let frequency = format!(
            "\"frequency_ghz\": \"{:016x}\"",
            point.stats.clock.frequency_ghz.to_bits()
        );
        for bad in [0.0, -0.0, -2.0, f64::NAN] {
            let text = point_json(&point).render().replace(
                &frequency,
                &format!("\"frequency_ghz\": \"{:016x}\"", bad.to_bits()),
            );
            let error = point_from_json(&Json::parse(&text).unwrap()).expect_err("bad clock");
            assert!(error.message.contains("must be positive"), "{error}");
        }
    }

    #[test]
    fn the_last_bin_index_is_that_of_u64_max() {
        let mut sketch = QuantileSketch::new();
        sketch.record(u64::MAX);
        assert_eq!(sketch.nonzero_bins(), [(MAX_BIN_INDEX, 1)]);
        let mut point = sample_point();
        point
            .metrics
            .insert("latency_cycles", MetricValue::Histogram(sketch));
        assert_eq!(point_from_json(&point_json(&point)), Ok(point));
    }

    /// A payload that fails and is displaced is read again to skip it. Each
    /// level below fails twice — its family, then its counter — and a
    /// megabyte of junk sits at the bottom: a decoder that re-read every
    /// failed value at every level above it would read the junk 60 times.
    #[test]
    fn nested_failing_payloads_are_read_at_most_twice() {
        let junk = "j".repeat(1 << 20);
        let mut metric = format!("{{\"junk\": \"{junk}\", \"gauge\": \"zz\"}}");
        for _ in 0..60 {
            metric = format!("{{\"family\": {{\"m\": {metric}}}, \"counter\": \"x\"}}");
        }
        let text = format!("{{\"metrics\": {{\"deep\": {metric}}}}}");
        let best_of_3 = |run: &dyn Fn()| {
            (0..3)
                .map(|_| {
                    let started = std::time::Instant::now();
                    run();
                    started.elapsed()
                })
                .min()
                .unwrap()
        };
        let parse = best_of_3(&|| assert!(Json::parse(&text).is_ok()));
        let decode = best_of_3(&|| {
            let decoded = crate::json::read_document(&text, read_point);
            assert!(decoded.is_err());
        });
        assert!(
            decode < parse * 4,
            "decoding took {decode:?}, parsing the same {} bytes {parse:?}",
            text.len()
        );
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
        assert!(read_sketch(&mut &value).is_err());

        // An index past the last bucket would have `from_parts` allocate a
        // bin per index up to it.
        let past_the_end = Json::obj(vec![
            ("count", uint(1)),
            ("sum", uint(1)),
            ("min", uint(1)),
            ("max", uint(1)),
            (
                "bins",
                Json::Arr(vec![Json::Arr(vec![Json::Num(1e15), uint(1)])]),
            ),
        ]);
        let error = read_sketch(&mut &past_the_end).expect_err("index past the end");
        assert!(error.message.contains("0..=1919"), "{error}");
    }
}
