//! Property tests of the result store: the `SweepPoint` ↔ JSON codec is
//! lossless (bit-exact through a full render → parse cycle, for arbitrary
//! stats, sketches and nested metric families), and any truncated, garbled
//! or structurally tampered entry file degrades to a cache miss — never a
//! crash, never wrong data — while leaving the store usable.

use pnoc_sim::clock::Clock;
use pnoc_sim::metrics::{MetricReport, MetricValue, QuantileSketch};
use pnoc_sim::stats::SimStats;
use pnoc_sim::sweep::SweepPoint;
use pnoc_store::{content_hash, point_from_json, point_json, Json, ResultStore};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Builds a sweep point exercising every codec branch from sampled raw
/// values: u64 counters at arbitrary magnitudes, delivered-packet
/// latencies feeding both the stats histogram and a quantile sketch, f64
/// gauges (finite — `MetricValue` equality is the test oracle, so NaN is
/// out of scope) and a nested metric family.
fn build_point(
    offered_load: f64,
    counters: &[u64],
    latencies: &[u64],
    energies: (f64, f64, f64),
    gauges: &[f64],
) -> SweepPoint {
    let mut stats = SimStats::new(Clock::paper_default());
    stats.measured_cycles = counters[0];
    stats.generated_packets = *counters.last().expect("at least one counter");
    stats.delivered_bits = counters[counters.len() / 2];
    stats.delivered_packets = latencies.len() as u64;
    stats.total_packet_latency = latencies.iter().sum();
    stats.max_packet_latency = latencies.iter().copied().max().unwrap_or(0);
    stats.energy.launch_pj = energies.0;
    stats.energy.tuning_pj = energies.1;
    stats.energy.electrical_pj = energies.2;

    let mut sketch = QuantileSketch::new();
    for &latency in latencies {
        sketch.record(latency);
    }
    let mut family: BTreeMap<String, MetricValue> = BTreeMap::new();
    for (index, &gauge) in gauges.iter().enumerate() {
        family.insert(format!("member_{index}"), MetricValue::Gauge(gauge));
    }
    family.insert(
        "nested".to_string(),
        MetricValue::Family(BTreeMap::from([(
            "counter".to_string(),
            MetricValue::Counter(counters[0]),
        )])),
    );
    let mut metrics = MetricReport::new();
    metrics.insert("latency_cycles", MetricValue::Histogram(sketch));
    metrics.insert("delivered_packets", MetricValue::Counter(counters[0]));
    metrics.insert("per_node", MetricValue::Family(family));
    for (index, &gauge) in gauges.iter().enumerate() {
        metrics.insert(format!("gauge_{index}"), MetricValue::Gauge(gauge));
    }
    SweepPoint {
        offered_load,
        stats,
        metrics,
    }
}

/// A unique per-case scratch directory (the shim's case streams are
/// deterministic, so the tag keeps parallel test binaries apart).
fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pnoc-store-prop-{}-{tag}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sweep_points_round_trip_bit_exactly(
        counters in prop::collection::vec(0u64..=u64::MAX, 1..5),
        latencies in prop::collection::vec(0u64..50_000, 0..40),
        offered_load in 1e-12f64..10.0,
        energies in (0f64..1e9, 0f64..1e9, -1e9f64..1e9),
        gauges in prop::collection::vec(-1e12f64..1e12, 1..5),
    ) {
        let point = build_point(offered_load, &counters, &latencies, energies, &gauges);
        let text = point_json(&point).render();
        let parsed = Json::parse(&text).map_err(|e| format!("own output failed to parse: {e}"))?;
        let decoded = point_from_json(&parsed).map_err(|e| format!("decode failed: {e}"))?;
        prop_assert_eq!(&decoded, &point);
        // Bit-exactness beyond PartialEq: re-encoding the decoded point
        // reproduces the original document byte for byte.
        prop_assert_eq!(point_json(&decoded).render(), text);
    }

    #[test]
    fn corrupted_entries_degrade_to_misses(
        case in (0usize..3, 1usize..4096, 0u64..=u64::MAX),
        latencies in prop::collection::vec(0u64..5_000, 1..10),
    ) {
        let (kind, position, seed) = case;
        let dir = scratch_dir(&format!("corrupt-{kind}-{position}"));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).map_err(|e| format!("open failed: {e}"))?;
        let key = format!("prop-arch:prop-traffic:set1:quick|seed={seed}|load=3f50624dd2f1a9fc|v0.8.0+event");
        let point = build_point(0.001, &[seed, 7], &latencies, (1.0, 2.0, 3.0), &[0.5]);
        store.save(&key, &point, 0.25).map_err(|e| format!("save failed: {e}"))?;
        prop_assert!(store.load(&key).is_some(), "fresh entry must load");

        let entry = dir.join("entries").join(format!("{}.json", content_hash(&key)));
        let bytes = std::fs::read(&entry).map_err(|e| format!("read failed: {e}"))?;
        let mutated: Vec<u8> = match kind {
            // Truncation: cut at least two bytes so the closing brace of the
            // document is gone and the text cannot parse.
            0 => bytes[..position % bytes.len().saturating_sub(2)].to_vec(),
            // Garbage: not JSON at all.
            1 => format!("garbage {position} {seed}").into_bytes(),
            // Structural tampering: valid JSON, but the point payload is
            // missing, so entry decoding (not parsing) must reject it.
            _ => {
                let mut doc = Json::parse(std::str::from_utf8(&bytes).expect("entries are UTF-8"))
                    .expect("fresh entries parse");
                if let Json::Obj(fields) = &mut doc {
                    fields.retain(|(name, _)| name != "point");
                }
                doc.render().into_bytes()
            }
        };
        std::fs::write(&entry, &mutated).map_err(|e| format!("write failed: {e}"))?;

        // Reopen so nothing is served from in-process state.
        let reopened = ResultStore::open(&dir).map_err(|e| format!("reopen failed: {e}"))?;
        prop_assert!(
            reopened.load(&key).is_none(),
            "corrupted entry (kind {kind}) must be a miss"
        );
        prop_assert_eq!(reopened.stats().misses, 1);

        // The store stays usable: the bad entry can be overwritten and
        // served again.
        store.save(&key, &point, 0.25).map_err(|e| format!("re-save failed: {e}"))?;
        prop_assert!(reopened.load(&key).is_some(), "overwritten entry must load");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
