//! Differential gate of the store's one-pass entry decoder. Entries from
//! `tests/fixtures/` are mangled — bytes flipped, cut and deleted; keys
//! duplicated, reordered and added; labels escaped; the sidecar nested 125
//! to 130 deep; garbage appended — and every document is decoded three ways:
//!
//! * by [`ResultStore::load`], straight off the text (the hit path);
//! * by [`point_from_json`] on the tree [`Json::parse`] builds;
//! * by the tree decoder the store ran before, copied below as the oracle.
//!
//! All three must accept and reject the same documents, and every accepted
//! point must re-encode to the same bytes. Two places where the oracle
//! panics (a clock frequency that is not positive) or would allocate a bin
//! per index up to a tampered one count as a rejection it was owed.
//!
//! The vendored `proptest` has no recursive strategies and no shrinking, so
//! each case draws one `seed`, mangles its document with a `StdRng` and
//! names the seed in the failure message.

use pnoc_store::{content_hash, point_from_json, point_json, Json, ResultStore};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

/// The tree decoder of the store before entries were read in one pass,
/// verbatim but for the shims above the copied code and `pub` on
/// `decode_entry`.
mod oracle {
    use pnoc_photonics::energy::EnergyBreakdown;
    use pnoc_sim::clock::Clock;
    use pnoc_sim::metrics::{MetricReport, MetricValue, QuantileSketch};
    use pnoc_sim::stats::SimStats;
    use pnoc_sim::sweep::SweepPoint;
    use pnoc_store::store::ENTRY_FORMAT;
    use pnoc_store::Json;
    use std::collections::BTreeMap;

    #[derive(Debug)]
    pub struct CodecError {
        message: String,
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

    mod codec {
        pub use super::point_from_json;
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

    fn stats_from_json(value: &Json) -> Result<SimStats, CodecError> {
        let clock = field(value, "clock")?;
        Ok(SimStats {
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

    fn energy_from_json(value: &Json) -> Result<EnergyBreakdown, CodecError> {
        Ok(EnergyBreakdown {
            launch_pj: bits_field(value, "launch_pj")?,
            modulation_pj: bits_field(value, "modulation_pj")?,
            tuning_pj: bits_field(value, "tuning_pj")?,
            buffer_pj: bits_field(value, "buffer_pj")?,
            electrical_pj: bits_field(value, "electrical_pj")?,
        })
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

    pub fn decode_entry(text: &str, expected_key: &str) -> Result<SweepPoint, String> {
        let document = Json::parse(text).map_err(|error| error.to_string())?;
        match document.get("format").and_then(Json::as_str) {
            Some(ENTRY_FORMAT) => {}
            Some(other) => return Err(format!("unsupported entry format '{other}'")),
            None => return Err("entry has no 'format' tag".to_string()),
        }
        match document.get("key").and_then(Json::as_str) {
            Some(stored) if stored == expected_key => {}
            Some(stored) => {
                return Err(format!(
                    "key mismatch (hash collision or tampering): stored '{stored}', \
                     requested '{expected_key}'"
                ));
            }
            None => return Err("entry has no 'key' field".to_string()),
        }
        let point = document
            .get("point")
            .ok_or_else(|| "entry has no 'point' payload".to_string())?;
        codec::point_from_json(point).map_err(|error| error.to_string())
    }
}

/// Real entries: what the store reads on a hit.
const ENTRIES: [&str; 3] = [
    include_str!("fixtures/open_loop_ladder_point.json"),
    include_str!("fixtures/closed_loop_collective_point.json"),
    include_str!("fixtures/earlier_layout_point.json"),
];

/// Keys a mangled object gains: every key the decoder reads, so that
/// duplicates and rival metric payloads are common, and a few it does not.
const KEYS: &[&str] = &[
    "format",
    "key",
    "sidecar",
    "point",
    "offered_load",
    "stats",
    "metrics",
    "measured_cycles",
    "energy",
    "launch_pj",
    "clock",
    "frequency_ghz",
    "counter",
    "gauge",
    "histogram",
    "family",
    "count",
    "sum",
    "min",
    "max",
    "bins",
    "n000",
    "latency_cycles",
    "extra",
    "",
];

/// The path of child indices from the root to every object in `value`,
/// grouped by depth.
fn objects_by_depth(value: &Json, path: &mut Vec<usize>, found: &mut Vec<Vec<Vec<usize>>>) {
    let children: Vec<&Json> = match value {
        Json::Obj(fields) => {
            if found.len() <= path.len() {
                found.resize(path.len() + 1, Vec::new());
            }
            found[path.len()].push(path.clone());
            fields.iter().map(|(_, child)| child).collect()
        }
        Json::Arr(items) => items.iter().collect(),
        _ => return,
    };
    for (index, child) in children.into_iter().enumerate() {
        path.push(index);
        objects_by_depth(child, path, found);
        path.pop();
    }
}

fn node_at<'a>(value: &'a mut Json, path: &[usize]) -> &'a mut Json {
    path.iter().fold(value, |node, &index| match node {
        Json::Obj(fields) => &mut fields[index].1,
        Json::Arr(items) => &mut items[index],
        _ => unreachable!("paths lead through containers"),
    })
}

/// Every value in `value`, for donors.
fn values<'a>(value: &'a Json, out: &mut Vec<&'a Json>) {
    out.push(value);
    match value {
        Json::Obj(fields) => fields.iter().for_each(|(_, child)| values(child, out)),
        Json::Arr(items) => items.iter().for_each(|child| values(child, out)),
        _ => {}
    }
}

/// A value to put under a duplicated or added key: often a sibling's, so a
/// duplicate is as plausible as the original and differs from it.
fn donor(rng: &mut StdRng, siblings: &[(String, Json)], document: &Json) -> Json {
    match rng.gen_range(0u32..6) {
        0..=2 if !siblings.is_empty() => siblings[rng.gen_range(0..siblings.len())].1.clone(),
        3 => {
            let mut all = Vec::new();
            values(document, &mut all);
            all[rng.gen_range(0..all.len())].clone()
        }
        4 => Json::str(format!("{:016x}", rng.gen_range(0u64..=u64::MAX))),
        _ => {
            let plain = [
                Json::Null,
                Json::Bool(true),
                Json::Num(3.0),
                Json::str("7"),
                Json::str("zz"),
                Json::Arr(Vec::new()),
                Json::Obj(Vec::new()),
                Json::obj(vec![("counter", Json::str("9"))]),
            ];
            plain[rng.gen_range(0..plain.len())].clone()
        }
    }
}

/// One mutation of the tree: a duplicated key, a shuffle, an added key or
/// a deeply nested sidecar. The object is drawn depth first, so the few
/// fixed-field objects near the root are drawn as often as metrics.
fn mutate_tree(rng: &mut StdRng, document: &mut Json) {
    if rng.gen_range(0u32..5) == 0 {
        let depth = rng.gen_range(125usize..=130);
        let nested = (0..depth).fold(Json::Null, |inner, level| {
            if level % 2 == 0 {
                Json::Arr(vec![inner])
            } else {
                Json::obj(vec![("deep", inner)])
            }
        });
        if let Json::Obj(fields) = document {
            for (key, value) in fields.iter_mut() {
                if key == "sidecar" {
                    *value = nested.clone();
                }
            }
        }
        return;
    }
    let mut found = Vec::new();
    objects_by_depth(document, &mut Vec::new(), &mut found);
    found.retain(|level| !level.is_empty());
    let level = &found[rng.gen_range(0..found.len())];
    let path = level[rng.gen_range(0..level.len())].clone();
    let snapshot = document.clone();
    let Json::Obj(fields) = node_at(document, &path) else {
        unreachable!("the path leads to an object");
    };
    match rng.gen_range(0u32..3) {
        0 if !fields.is_empty() => {
            let key = fields[rng.gen_range(0..fields.len())].0.clone();
            let value = donor(rng, fields, &snapshot);
            fields.insert(rng.gen_range(0..=fields.len()), (key, value));
        }
        1 => {
            for i in (1..fields.len()).rev() {
                fields.swap(i, rng.gen_range(0..=i));
            }
        }
        _ => {
            let key = KEYS[rng.gen_range(0..KEYS.len())].to_string();
            let value = donor(rng, fields, &snapshot);
            fields.insert(rng.gen_range(0..=fields.len()), (key, value));
        }
    }
}

/// A random char boundary of `text`.
fn boundary(rng: &mut StdRng, text: &str) -> usize {
    let mut at = rng.gen_range(0..=text.len());
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// One mutation of the text: a char replaced, a cut, a deletion, a char
/// written as a `\u` escape, or garbage behind the document.
fn mutate_text(rng: &mut StdRng, text: &mut String) {
    const CHARS: &[u8] = b"0123456789abcdefAF\"\\{}[],: \nnul-+.eExz";
    let at = boundary(rng, text);
    match rng.gen_range(0u32..5) {
        0 => {
            if let Some(old) = text[at..].chars().next() {
                let new = char::from(CHARS[rng.gen_range(0..CHARS.len())]);
                text.replace_range(at..at + old.len_utf8(), new.encode_utf8(&mut [0; 4]));
            }
        }
        1 => text.truncate(at),
        2 => {
            let end = text[at..]
                .char_indices()
                .nth(rng.gen_range(1usize..=8))
                .map_or(text.len(), |(offset, _)| at + offset);
            text.replace_range(at..end, "");
        }
        3 => {
            // An escape for an ASCII alphanumeric char: usually the same
            // char (a label spelled another way), sometimes another one.
            let spots: Vec<usize> = text
                .char_indices()
                .filter(|(_, c)| c.is_ascii_alphanumeric())
                .map(|(index, _)| index)
                .collect();
            if !spots.is_empty() {
                let at = spots[rng.gen_range(0..spots.len())];
                let old = text.as_bytes()[at];
                let new = if rng.gen_bool(0.8) {
                    old
                } else {
                    b'a' + rng.gen_range(0u8..26)
                };
                text.replace_range(at..=at, &format!("\\u{:04x}", new));
            }
        }
        _ => {
            const TAILS: &[&str] = &[
                "", " ", "\n\n", "x", "}", "{}", "0", " null", "\u{feff}", ",",
            ];
            text.push_str(TAILS[rng.gen_range(0..TAILS.len())]);
        }
    }
}

/// One mangled document: one to three mutations, those of the tree first.
fn mangle(rng: &mut StdRng, entry: &str) -> String {
    let (mut tree_mutations, mut text_mutations) = (0, 0);
    for _ in 0..rng.gen_range(1u32..=3) {
        if rng.gen_bool(0.5) {
            tree_mutations += 1;
        } else {
            text_mutations += 1;
        }
    }
    let mut text = entry.to_string();
    if tree_mutations > 0 {
        let mut document = Json::parse(entry).expect("fixtures parse");
        for _ in 0..tree_mutations {
            mutate_tree(rng, &mut document);
        }
        text = document.render() + "\n";
    }
    for _ in 0..text_mutations {
        mutate_text(rng, &mut text);
    }
    text
}

/// What a decode hands back, as bytes that compare every bit.
fn rendered(point: Option<pnoc_sim::sweep::SweepPoint>) -> Option<String> {
    point.map(|point| point_json(&point).render())
}

/// The oracle's verdict: a panic is a rejection.
fn oracle_verdict<T, E>(
    decode: impl FnOnce() -> Result<T, E> + std::panic::UnwindSafe,
) -> Option<T> {
    std::panic::catch_unwind(decode).ok().and_then(Result::ok)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5_000))]

    #[test]
    fn the_one_pass_decoder_accepts_and_rejects_as_the_tree_decoder_did(
        seed in 0u64..=u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let entry = ENTRIES[rng.gen_range(0..ENTRIES.len())];
        let key = Json::parse(entry)
            .ok()
            .and_then(|document| document.get("key").and_then(Json::as_str).map(String::from))
            .expect("fixtures carry their key");
        let text = mangle(&mut rng, entry);

        // The hit path, through a store holding the mangled file.
        let root = std::env::temp_dir()
            .join(format!("pnoc-store-prop-codec-{}", std::process::id()));
        let store = ResultStore::open(&root).map_err(|e| format!("open failed: {e}"))?;
        let path: PathBuf = root.join("entries").join(format!("{}.json", content_hash(&key)));
        std::fs::write(&path, &text).map_err(|e| format!("write failed: {e}"))?;
        let loaded = rendered(store.load(&key));
        let expected = rendered(oracle_verdict(|| oracle::decode_entry(&text, &key)));
        prop_assert_eq!(
            &loaded, &expected,
            "seed {}: the store and the oracle disagree on\n{}", seed, text
        );

        // The tree path, on the parsed document's point.
        if let Some(point) = Json::parse(&text).ok().and_then(|document| document.get("point").cloned()) {
            let decoded = rendered(point_from_json(&point).ok());
            let expected = rendered(oracle_verdict(|| oracle::point_from_json(&point)));
            prop_assert_eq!(
                decoded, expected,
                "seed {}: point_from_json and the oracle disagree on\n{}", seed, text
            );
        }
    }
}
