#![doc = include_str!("metrics.md")]

use crate::stats::SimStats;
use pnoc_noc::ids::{ClusterId, CoreId};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;

// ---------------------------------------------------------------------------
// Quantile sketch
// ---------------------------------------------------------------------------

/// Sub-bucket resolution of the [`QuantileSketch`]: `2^SUB_BITS` log-linear
/// buckets per power of two, i.e. a worst-case relative value error of
/// `2^-SUB_BITS` (≈ 3 %) on every reported quantile.
pub const SUB_BITS: u32 = 5;

const SUB_BUCKETS: u64 = 1 << SUB_BITS;

/// A mergeable streaming quantile sketch over `u64` samples (an HDR-style
/// log-linear histogram).
///
/// Values below `2^SUB_BITS` get exact unit-width buckets; larger values
/// share `2^SUB_BITS` buckets per power of two, so the bucket containing a
/// value `v` is at most `v / 2^SUB_BITS` wide. [`QuantileSketch::quantile`]
/// therefore returns an estimate within that relative error of an exact
/// rank-based quantile, using O(log₂(max) · 2^SUB_BITS) memory regardless of
/// the sample count.
///
/// Two sketches merge by bin-wise addition ([`QuantileSketch::merge`]), which
/// is associative, commutative and **deterministic**: merging per-thread
/// sketches gives bitwise the same result in any merge order. This is what
/// lets the parallel matrix engine produce metric reports identical to a
/// sequential run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuantileSketch {
    /// Bucket counts, indexed by [`bucket_index`]. Never has trailing zero
    /// entries, so structural equality equals logical equality.
    bins: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// The bucket index a value falls into (log-linear, `2^SUB_BITS` sub-buckets
/// per octave).
#[must_use]
fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS {
        return value as usize;
    }
    let msb = 63 - u64::from(value.leading_zeros());
    let shift = msb - u64::from(SUB_BITS);
    let sub = (value >> shift) - SUB_BUCKETS;
    ((shift + 1) * SUB_BUCKETS + sub) as usize
}

/// The largest value mapping to bucket `index` (the bucket's upper edge).
#[must_use]
fn bucket_upper_edge(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB_BUCKETS {
        return index;
    }
    let shift = (index / SUB_BUCKETS - 1) as u32;
    let sub = index % SUB_BUCKETS;
    // First value of the *next* bucket, minus one; the topmost bucket's
    // upper edge saturates at u64::MAX.
    match (SUB_BUCKETS + sub + 1).checked_shl(shift) {
        Some(next) if next != 0 => next - 1,
        _ => u64::MAX,
    }
}

impl QuantileSketch {
    /// Creates an empty sketch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = bucket_index(value);
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0);
        }
        self.bins[idx] += 1;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact minimum sample, `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum sample, `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of the recorded samples, `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The quantile estimate for `q` in `0.0..=1.0`: the upper edge of the
    /// bucket containing the sample of rank `ceil(q · count)`.
    ///
    /// Guarantees (the "rank error bound" property-tested in
    /// `tests/prop_metrics.rs`): at least `ceil(q · count)` samples are ≤ the
    /// returned value, and the returned value is at most one bucket width
    /// (relative error `2^-SUB_BITS`) above the exact rank-`ceil(q · count)`
    /// sample. Returns `None` when the sketch is empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut acc = 0u64;
        for (idx, &bin) in self.bins.iter().enumerate() {
            acc += bin;
            if acc >= target {
                // The exact extrema are tracked, so never report past them.
                return Some(bucket_upper_edge(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// The percentile estimate for `p` in `0.0..=100.0`
    /// (`percentile(95.0) == quantile(0.95)`).
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<u64> {
        self.quantile(p / 100.0)
    }

    /// Merges another sketch into this one by bin-wise addition. Every sketch
    /// shares the same bucketing, so the merge is total (no error case),
    /// associative and deterministic.
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.count == 0 {
            return;
        }
        if self.bins.len() < other.bins.len() {
            self.bins.resize(other.bins.len(), 0);
        }
        for (bin, &extra) in self.bins.iter_mut().zip(&other.bins) {
            *bin += extra;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// The non-empty buckets as `(bucket index, count)` pairs, in index
    /// order (the wire representation used by the JSONL sink).
    #[must_use]
    pub fn nonzero_bins(&self) -> Vec<(usize, u64)> {
        self.bins
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(idx, &count)| (idx, count))
            .collect()
    }

    /// Reassembles a sketch from the `(bucket index, count)` pairs of
    /// [`QuantileSketch::nonzero_bins`] plus the tracked aggregates — the
    /// inverse of the wire representation used by the JSONL sink and the
    /// result store. Returns `None` when the parts are inconsistent
    /// (unsorted or zero-count pairs, counts not summing to `count`, or
    /// extrema missing / mis-ordered), so decoders reject tampered documents
    /// instead of building a sketch that violates the "no trailing zero
    /// bins" structural-equality invariant.
    #[must_use]
    pub fn from_parts(
        nonzero_bins: &[(usize, u64)],
        count: u64,
        sum: u64,
        min: Option<u64>,
        max: Option<u64>,
    ) -> Option<Self> {
        let mut total = 0u64;
        let mut last: Option<usize> = None;
        for &(idx, bin) in nonzero_bins {
            if bin == 0 || last.is_some_and(|prev| idx <= prev) {
                return None;
            }
            last = Some(idx);
            total = total.checked_add(bin)?;
        }
        if total != count {
            return None;
        }
        if count == 0 {
            return (min.is_none() && max.is_none() && sum == 0).then(Self::new);
        }
        let (min, max) = match (min, max) {
            (Some(lo), Some(hi)) if lo <= hi => (lo, hi),
            _ => return None,
        };
        let mut bins = vec![0u64; last.map_or(0, |idx| idx + 1)];
        for &(idx, bin) in nonzero_bins {
            bins[idx] = bin;
        }
        Some(Self {
            bins,
            count,
            sum,
            min,
            max,
        })
    }
}

// ---------------------------------------------------------------------------
// Labels, values and the report
// ---------------------------------------------------------------------------

/// The label used for per-node (per-core) family members: zero-padded so the
/// lexicographic label order equals the numeric node order for up to 1000
/// cores (beyond that, family order stays deterministic but is no longer
/// numeric — the paper topology has 64 cores). The padding is fixed rather
/// than derived from the topology so that labels, and therefore report
/// merges, are stable across differently sized runs.
#[must_use]
pub(crate) fn node_label(core: CoreId) -> String {
    format!("n{:03}", core.0)
}

/// The label used for per-(source cluster, destination cluster) family
/// members. Zero-padded for numeric label order up to 100 clusters (the
/// paper topology has 16); fixed-width for the same merge-stability reason
/// as [`node_label`].
#[must_use]
pub(crate) fn cluster_pair_label(src: ClusterId, dst: ClusterId) -> String {
    format!("c{:02}->c{:02}", src.0, dst.0)
}

/// The label of time window `index`: zero-padded for numeric label order up
/// to 10 000 windows per run (a [`MetricsProbe`] windows a measurement into
/// at most a few dozen).
#[must_use]
pub(crate) fn window_label(index: usize) -> String {
    format!("w{index:04}")
}

/// One metric in a [`MetricReport`], closed under merging (see
/// [`MetricReport::merge`]).
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A summed event count.
    Counter(u64),
    /// A scalar observation (merge keeps the maximum).
    Gauge(f64),
    /// A mergeable quantile sketch.
    Histogram(QuantileSketch),
    /// A labelled family of nested values, in label order.
    Family(BTreeMap<String, MetricValue>),
}

impl MetricValue {
    /// The metric kind name used in error messages.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
            MetricValue::Family(_) => "family",
        }
    }

    fn merge(&mut self, other: &MetricValue, path: &str) -> Result<(), MetricMergeError> {
        match (self, other) {
            (MetricValue::Counter(a), MetricValue::Counter(b)) => {
                *a += b;
                Ok(())
            }
            (MetricValue::Gauge(a), MetricValue::Gauge(b)) => {
                if *b > *a {
                    *a = *b;
                }
                Ok(())
            }
            (MetricValue::Histogram(a), MetricValue::Histogram(b)) => {
                a.merge(b);
                Ok(())
            }
            (MetricValue::Family(a), MetricValue::Family(b)) => {
                for (label, value) in b {
                    match a.get_mut(label) {
                        Some(existing) => {
                            existing.merge(value, &format!("{path}/{label}"))?;
                        }
                        None => {
                            a.insert(label.clone(), value.clone());
                        }
                    }
                }
                Ok(())
            }
            (a, b) => Err(MetricMergeError {
                metric: path.to_string(),
                left_kind: a.kind(),
                right_kind: b.kind(),
            }),
        }
    }
}

/// Why two [`MetricReport`]s could not be merged: the same name holds
/// different metric kinds on the two sides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricMergeError {
    /// Path of the conflicting metric (`name` or `name/label`).
    pub metric: String,
    /// Kind on the receiving side.
    pub left_kind: &'static str,
    /// Kind on the incoming side.
    pub right_kind: &'static str,
}

impl std::fmt::Display for MetricMergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot merge metric '{}': left side is a {}, right side is a {}",
            self.metric, self.left_kind, self.right_kind
        )
    }
}

impl std::error::Error for MetricMergeError {}

/// A named, ordered snapshot of metrics — what a [`Probe`] produces and what
/// the [`JsonlSink`] writes.
///
/// Entries are kept in name order, so serialization (and therefore the JSONL
/// sink output) is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricReport {
    entries: BTreeMap<String, MetricValue>,
}

impl MetricReport {
    /// Creates an empty report.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) a metric.
    pub fn insert(&mut self, name: impl Into<String>, value: MetricValue) {
        self.entries.insert(name.into(), value);
    }

    /// The metric stored under `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.get(name)
    }

    /// The counter stored under `name`, if it is one.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.entries.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// The gauge stored under `name`, if it is one.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.entries.get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The histogram stored under `name`, if it is one.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&QuantileSketch> {
        match self.entries.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// The family stored under `name`, if it is one.
    #[must_use]
    pub fn family(&self, name: &str) -> Option<&BTreeMap<String, MetricValue>> {
        match self.entries.get(name) {
            Some(MetricValue::Family(f)) => Some(f),
            _ => None,
        }
    }

    /// Iterates `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of metrics in the report.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the report is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merges another report into this one: counters add, gauges keep the
    /// maximum, histograms merge bin-wise, families merge label-wise. The
    /// operation is associative and deterministic, so merging per-point
    /// reports in ladder order gives bitwise the same result regardless of
    /// which threads produced the points.
    ///
    /// # Errors
    ///
    /// Returns [`MetricMergeError`] when the same name holds different metric
    /// kinds on the two sides; `self` may be partially updated in that case.
    pub fn merge(&mut self, other: &MetricReport) -> Result<(), MetricMergeError> {
        for (name, value) in &other.entries {
            match self.entries.get_mut(name) {
                Some(existing) => existing.merge(value, name)?,
                None => {
                    self.entries.insert(name.clone(), value.clone());
                }
            }
        }
        Ok(())
    }

    /// Renders the report as one compact, deterministic JSON object (the
    /// payload format of the [`JsonlSink`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_report_json(&mut out, self);
        out
    }
}

// ---------------------------------------------------------------------------
// Compact deterministic JSON rendering
// ---------------------------------------------------------------------------

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders an `f64` deterministically: Rust's shortest-round-trip `Display`,
/// with non-finite values mapped to `null`.
fn write_json_f64(out: &mut String, value: f64) {
    if value.is_finite() {
        let _ = write!(out, "{value}");
    } else {
        out.push_str("null");
    }
}

fn write_sketch_json(out: &mut String, sketch: &QuantileSketch) {
    let _ = write!(out, "{{\"count\":{}", sketch.count());
    let _ = write!(out, ",\"sum\":{}", sketch.sum());
    for (key, value) in [("min", sketch.min()), ("max", sketch.max())] {
        match value {
            Some(v) => {
                let _ = write!(out, ",\"{key}\":{v}");
            }
            None => {
                let _ = write!(out, ",\"{key}\":null");
            }
        }
    }
    for (key, p) in [("p50", 50.0), ("p95", 95.0), ("p99", 99.0)] {
        match sketch.percentile(p) {
            Some(v) => {
                let _ = write!(out, ",\"{key}\":{v}");
            }
            None => {
                let _ = write!(out, ",\"{key}\":null");
            }
        }
    }
    out.push_str(",\"bins\":[");
    for (i, (idx, count)) in sketch.nonzero_bins().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{idx},{count}]");
    }
    out.push_str("]}");
}

fn write_value_json(out: &mut String, value: &MetricValue) {
    match value {
        MetricValue::Counter(v) => {
            let _ = write!(out, "{v}");
        }
        MetricValue::Gauge(v) => write_json_f64(out, *v),
        MetricValue::Histogram(h) => write_sketch_json(out, h),
        MetricValue::Family(members) => {
            out.push('{');
            for (i, (label, member)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(out, label);
                out.push(':');
                write_value_json(out, member);
            }
            out.push('}');
        }
    }
}

fn write_report_json(out: &mut String, report: &MetricReport) {
    out.push('{');
    for (i, (name, value)) in report.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_string(out, name);
        out.push(':');
        write_value_json(out, value);
    }
    out.push('}');
}

// ---------------------------------------------------------------------------
// Events and probes
// ---------------------------------------------------------------------------

/// One observable simulation event, emitted by a network while it steps.
///
/// The two flit events carry a *run*: `flits ≥ 1` flits of `bits` bits each,
/// all visible at the event's cycle, between the same pair of cores. A
/// consumer counts a run exactly as `flits` one-flit events — every flit
/// consumer is an integer sum keyed by cycle, core or cluster pair, so the
/// split of a cycle's flits into runs and their order inside the cycle carry
/// no meaning. A flat network moves at most one flit per core per cycle and
/// emits `flits: 1`; the hierarchy's spine emits one run per packet per
/// serialization slot. The packet-level events are never batched and keep
/// their order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// A traffic generator created a packet at `src`.
    PacketGenerated {
        /// Generating core.
        src: CoreId,
    },
    /// A packet was dropped at `src`'s full injection queue.
    PacketDropped {
        /// Dropping core.
        src: CoreId,
    },
    /// A packet started injecting at `src`.
    PacketInjected {
        /// Injecting core.
        src: CoreId,
    },
    /// A run of flits entered the network at `src`.
    FlitInjected {
        /// Injecting core.
        src: CoreId,
        /// Payload bits of each flit.
        bits: u32,
        /// Flits in the run (at least one).
        flits: u32,
    },
    /// A run of flits was delivered to its destination core.
    FlitDelivered {
        /// Source core of the flits.
        src: CoreId,
        /// Destination core (where they were ejected).
        dst: CoreId,
        /// Payload bits of each flit.
        bits: u32,
        /// Flits in the run (at least one).
        flits: u32,
        /// Whether the flits crossed the photonic fabric (inter-cluster).
        photonic: bool,
    },
    /// A packet's tail flit arrived: the whole packet is delivered.
    PacketDelivered {
        /// Source core.
        src: CoreId,
        /// Destination core.
        dst: CoreId,
        /// Creation → tail-delivery latency in cycles.
        latency: u64,
    },
    /// A scheduled fault took effect on the fabric.
    FaultApplied {
        /// Index of the fault event within its plan.
        fault: u32,
    },
    /// A scheduled fault was repaired.
    FaultRepaired {
        /// Index of the fault event within its plan.
        fault: u32,
    },
}

// `PacketDelivered` is the largest variant. The hierarchy buffers a window of
// `(u64, SimEvent)` per pod, so a growth here is a growth of its footprint.
const _: () = assert!(std::mem::size_of::<SimEvent>() == 32);

/// Where a stepping network reports its [`SimEvent`]s.
///
/// The engine passes a sink into
/// [`CycleNetwork::step_observed`](crate::engine::CycleNetwork::step_observed);
/// networks call [`EventSink::emit`] as things happen.
pub trait EventSink {
    /// Reports one event at `cycle`.
    fn emit(&mut self, cycle: u64, event: SimEvent);
}

/// An engine-driven observer of one simulation run.
///
/// [`crate::engine::run_to_completion_with`] warms the network up
/// unobserved, calls [`Probe::on_measurement_begin`] at the warm-up /
/// measurement boundary, forwards every [`SimEvent`] of the measurement
/// window to [`Probe::on_event`], marks each cycle boundary with
/// [`Probe::on_cycle_end`], and finishes with [`Probe::finish`] (handing the
/// probe the run's [`SimStats`], which the engine counted from the same
/// events and cycles, plus the network's energy). [`Probe::report`] then
/// yields the collected [`MetricReport`].
pub trait Probe {
    /// The measurement window starts at `cycle` (warm-up state has been
    /// discarded).
    fn on_measurement_begin(&mut self, cycle: u64) {
        let _ = cycle;
    }

    /// One simulation event inside the measurement window.
    fn on_event(&mut self, cycle: u64, event: &SimEvent);

    /// A measured cycle finished (window bookkeeping hook).
    fn on_cycle_end(&mut self, cycle: u64) {
        let _ = cycle;
    }

    /// The run is over; `stats` holds the measurement window's counters,
    /// counted by the engine from the events this probe saw, and the
    /// network's energy.
    fn finish(&mut self, stats: &SimStats) {
        let _ = stats;
    }

    /// The metrics collected so far.
    fn report(&self) -> MetricReport;
}

/// The standard probe: latency quantiles, per-node and per-cluster-pair
/// delivery breakdowns, time-windowed throughput, and the headline event
/// counters. This is what the sweep engine attaches to every ladder point.
///
/// The nine headline counters (`generated_packets` … `measured_cycles`) are
/// not counted here: [`Probe::finish`] copies them from the engine's
/// [`SimStats`].
///
/// The hot path (one [`Probe::on_event`] call per flit) touches only
/// integer-indexed accumulators; the labelled [`MetricValue::Family`]
/// representation is materialised once, in [`Probe::report`].
///
/// The per-cluster-pair photonic breakdown needs the
/// [`ClusterTopology`](pnoc_noc::topology::ClusterTopology) to map cores to
/// clusters: build the probe with [`MetricsProbe::for_config`] (what the
/// sweep engine does). A probe built with [`MetricsProbe::new`] has no
/// topology: its `photonic_bits_by_cluster_pair` stays empty while the
/// `delivered_photonic_bits` counter is still reported.
#[derive(Debug, Clone)]
pub struct MetricsProbe {
    window_cycles: u64,
    /// Cycles closed since the current window opened.
    window_elapsed: u64,
    window_bits: u64,
    /// The run's statistics, handed over by `finish`: the source of the
    /// reported headline counters.
    stats: SimStats,
    latency: QuantileSketch,
    /// Delivered bits per destination core, indexed by core id.
    bits_by_node: Vec<u64>,
    /// Dropped packets per source core, indexed by core id.
    drops_by_node: Vec<u64>,
    /// Photonic bits per (src cluster, dst cluster) pair.
    photonic_bits_by_pair: BTreeMap<(usize, usize), u64>,
    /// Delivered bits of every closed window, in window order.
    window_series: Vec<u64>,
    /// The largest closed window's delivered bits (starts at 0.0 and only
    /// ever rises).
    max_window_bits: f64,
    fault_applied_events: u64,
    fault_repaired_events: u64,
    topology: Option<pnoc_noc::topology::ClusterTopology>,
}

impl MetricsProbe {
    /// Creates a probe that closes a throughput window every `window_cycles`
    /// measured cycles. The probe has no topology — use
    /// [`MetricsProbe::for_config`] to enable the per-cluster-pair photonic
    /// breakdown.
    ///
    /// # Panics
    ///
    /// Panics if `window_cycles` is zero.
    #[must_use]
    pub fn new(window_cycles: u64) -> Self {
        assert!(window_cycles > 0, "window must span at least one cycle");
        Self {
            window_cycles,
            window_elapsed: 0,
            window_bits: 0,
            stats: SimStats::default(),
            latency: QuantileSketch::new(),
            bits_by_node: Vec::new(),
            drops_by_node: Vec::new(),
            photonic_bits_by_pair: BTreeMap::new(),
            window_series: Vec::new(),
            max_window_bits: 0.0,
            fault_applied_events: 0,
            fault_repaired_events: 0,
            topology: None,
        }
    }

    /// Sets the topology used to attribute photonic bits to cluster pairs.
    #[must_use]
    pub(crate) fn with_topology(mut self, topology: pnoc_noc::topology::ClusterTopology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// A probe windowed for one sweep point: an eighth of the measurement
    /// window (at least one cycle), so every run yields a small time series,
    /// with the configuration's topology for per-cluster-pair attribution.
    #[must_use]
    pub fn for_config(config: &crate::config::SimConfig) -> Self {
        Self::new((config.sim_cycles / 8).max(1)).with_topology(config.topology)
    }

    fn close_window(&mut self) {
        self.window_series.push(self.window_bits);
        let bits = self.window_bits as f64;
        if bits > self.max_window_bits {
            self.max_window_bits = bits;
        }
        self.window_bits = 0;
        self.window_elapsed = 0;
    }
}

/// A family of counters, one per `(label, count)` pair.
fn counter_family(members: impl Iterator<Item = (String, u64)>) -> MetricValue {
    MetricValue::Family(
        members
            .map(|(label, count)| (label, MetricValue::Counter(count)))
            .collect(),
    )
}

fn bump(slots: &mut Vec<u64>, index: usize, delta: u64) {
    if index >= slots.len() {
        slots.resize(index + 1, 0);
    }
    slots[index] += delta;
}

impl Probe for MetricsProbe {
    fn on_event(&mut self, _cycle: u64, event: &SimEvent) {
        match *event {
            SimEvent::PacketDropped { src } => bump(&mut self.drops_by_node, src.0, 1),
            SimEvent::FlitDelivered {
                src,
                dst,
                bits,
                flits,
                photonic,
            } => {
                let bits = u64::from(flits) * u64::from(bits);
                self.window_bits += bits;
                bump(&mut self.bits_by_node, dst.0, bits);
                if photonic {
                    if let Some(topology) = &self.topology {
                        let pair = (topology.cluster_of(src).0, topology.cluster_of(dst).0);
                        *self.photonic_bits_by_pair.entry(pair).or_insert(0) += bits;
                    }
                }
            }
            SimEvent::PacketDelivered { latency, .. } => self.latency.record(latency),
            SimEvent::FaultApplied { .. } => self.fault_applied_events += 1,
            SimEvent::FaultRepaired { .. } => self.fault_repaired_events += 1,
            SimEvent::PacketGenerated { .. }
            | SimEvent::PacketInjected { .. }
            | SimEvent::FlitInjected { .. } => {}
        }
    }

    fn on_cycle_end(&mut self, _cycle: u64) {
        self.window_elapsed += 1;
        if self.window_elapsed == self.window_cycles {
            self.close_window();
        }
    }

    fn finish(&mut self, stats: &SimStats) {
        // Close the trailing partial window, if any cycles fell into it.
        if self.window_elapsed > 0 {
            self.close_window();
        }
        self.stats = *stats;
    }

    fn report(&self) -> MetricReport {
        let mut report = MetricReport::new();
        let stats = &self.stats;
        let counters = [
            ("generated_packets", stats.generated_packets),
            ("dropped_packets", stats.dropped_packets),
            ("injected_packets", stats.injected_packets),
            ("injected_flits", stats.injected_flits),
            ("delivered_packets", stats.delivered_packets),
            ("delivered_flits", stats.delivered_flits),
            ("delivered_bits", stats.delivered_bits),
            ("delivered_photonic_bits", stats.delivered_photonic_bits),
            ("measured_cycles", stats.measured_cycles),
        ];
        for (name, count) in counters {
            report.insert(name, MetricValue::Counter(count));
        }
        // Fault counters appear only when a fault transition was observed:
        // healthy runs keep the exact pre-fault report shape (and bytes).
        if self.fault_applied_events + self.fault_repaired_events > 0 {
            report.insert(
                "fault_applied_events",
                MetricValue::Counter(self.fault_applied_events),
            );
            report.insert(
                "fault_repaired_events",
                MetricValue::Counter(self.fault_repaired_events),
            );
        }
        report.insert(
            "latency_cycles",
            MetricValue::Histogram(self.latency.clone()),
        );
        report.insert(
            "max_window_delivered_bits",
            MetricValue::Gauge(self.max_window_bits),
        );
        // Materialise the labelled families (touched members only — the
        // integer accumulators keep the per-event path allocation-free).
        let node_family = |slots: &[u64]| {
            counter_family(
                slots
                    .iter()
                    .enumerate()
                    .filter(|(_, &count)| count > 0)
                    .map(|(core, &count)| (node_label(CoreId(core)), count)),
            )
        };
        report.insert("delivered_bits_by_node", node_family(&self.bits_by_node));
        report.insert("dropped_packets_by_node", node_family(&self.drops_by_node));
        report.insert(
            "photonic_bits_by_cluster_pair",
            counter_family(
                self.photonic_bits_by_pair
                    .iter()
                    .map(|(&(src, dst), &count)| {
                        (cluster_pair_label(ClusterId(src), ClusterId(dst)), count)
                    }),
            ),
        );
        report.insert(
            "delivered_bits_by_window",
            counter_family(
                self.window_series
                    .iter()
                    .enumerate()
                    .map(|(index, &count)| (window_label(index), count)),
            ),
        );
        report
    }
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// One exported record: the metrics of one sweep point of one scenario, plus
/// enough context to identify it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRow {
    /// Scenario identifier (`arch:traffic:set:effort`).
    pub scenario: String,
    /// Ladder index of the point within its scenario.
    pub point_index: usize,
    /// Offered load of the point.
    pub offered_load: f64,
    /// Derived RNG seed the point simulated with.
    pub seed: u64,
    /// The point's metrics.
    pub report: MetricReport,
}

/// Renders one row as its JSONL line (without the trailing newline).
#[must_use]
pub fn render_jsonl_row(row: &MetricRow) -> String {
    let mut line = String::new();
    line.push_str("{\"scenario\":");
    write_json_string(&mut line, &row.scenario);
    let _ = write!(line, ",\"point\":{}", row.point_index);
    line.push_str(",\"offered_load\":");
    write_json_f64(&mut line, row.offered_load);
    // Seeds are u64; JSON numbers are f64 — write them as strings, exactly.
    let _ = write!(line, ",\"seed\":\"{}\"", row.seed);
    line.push_str(",\"metrics\":");
    line.push_str(&row.report.to_json());
    line.push('}');
    line
}

/// The metric sink: writes each [`MetricRow`] as one compact JSON object
/// per line, as it arrives, so exporting a large matrix never holds more
/// than one row's rendering in memory. Rows arrive in deterministic order
/// (scenarios in batch order, points in ladder order).
#[derive(Debug)]
pub struct JsonlSink<W: io::Write> {
    out: W,
}

impl<W: io::Write> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> Self {
        Self { out }
    }

    /// Writes one row as one line.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures of the underlying writer.
    pub fn write_row(&mut self, row: &MetricRow) -> io::Result<()> {
        self.out.write_all(render_jsonl_row(row).as_bytes())?;
        self.out.write_all(b"\n")
    }

    /// Flushes the writer (called once after the last row).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures of the underlying writer.
    pub fn finish(&mut self) -> io::Result<()> {
        self.out.flush()
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_merge_semantics() {
        let mut a = MetricReport::new();
        a.insert("count", MetricValue::Counter(5));
        a.insert("peak", MetricValue::Gauge(3.0));
        let mut b = MetricReport::new();
        b.insert("count", MetricValue::Counter(10));
        b.insert("peak", MetricValue::Gauge(2.0));
        a.merge(&b).expect("kinds line up");
        assert_eq!(a.counter("count"), Some(15), "counters add");
        assert_eq!(a.gauge("peak"), Some(3.0), "a lower gauge does not win");
        let mut c = MetricReport::new();
        c.insert("peak", MetricValue::Gauge(7.5));
        a.merge(&c).expect("kinds line up");
        assert_eq!(a.gauge("peak"), Some(7.5), "gauges keep the maximum");
    }

    #[test]
    fn bucket_index_and_edges_are_consistent() {
        for v in (0..2000u64).chain([1 << 20, (1 << 40) + 12345, u64::MAX]) {
            let idx = bucket_index(v);
            let upper = bucket_upper_edge(idx);
            assert!(upper >= v, "upper edge of {v}'s bucket is {upper}");
            if idx > 0 {
                let below = bucket_upper_edge(idx - 1);
                assert!(below < v, "lower edge {below} must be below {v}");
            }
            // Relative width bound: upper/v ≤ 1 + 2^-SUB_BITS.
            if v >= SUB_BUCKETS {
                assert!((upper - v) as f64 <= v as f64 / SUB_BUCKETS as f64 + 1.0);
            }
        }
    }

    #[test]
    fn sketch_tracks_exact_extrema_and_bounded_quantiles() {
        let mut s = QuantileSketch::new();
        assert_eq!(s.quantile(0.5), None);
        let samples: Vec<u64> = (1..=1000).collect();
        for &v in &samples {
            s.record(v);
        }
        assert_eq!(s.count(), 1000);
        assert_eq!(s.min(), Some(1));
        assert_eq!(s.max(), Some(1000));
        assert_eq!(s.sum(), 500_500);
        let p50 = s.quantile(0.5).unwrap();
        assert!((485..=516).contains(&p50), "p50 was {p50}");
        let p99 = s.percentile(99.0).unwrap();
        assert!((990..=1000).contains(&p99), "p99 was {p99}");
        // Quantiles never exceed the tracked maximum.
        assert!(s.quantile(1.0).unwrap() <= 1000);
    }

    #[test]
    fn sketch_merge_equals_recording_the_union() {
        let mut left = QuantileSketch::new();
        let mut right = QuantileSketch::new();
        let mut all = QuantileSketch::new();
        for v in [3u64, 99, 1500, 7] {
            left.record(v);
            all.record(v);
        }
        for v in [250u64, 4, 1_000_000] {
            right.record(v);
            all.record(v);
        }
        let mut merged = left.clone();
        merged.merge(&right);
        assert_eq!(merged, all, "merge must equal recording the union");
        // Merge order does not matter.
        let mut reversed = right.clone();
        reversed.merge(&left);
        assert_eq!(reversed, all);
        // Merging an empty sketch is the identity.
        merged.merge(&QuantileSketch::new());
        assert_eq!(merged, all);
    }

    #[test]
    fn families_keep_label_order_and_merge() {
        let family = |members: &[(&str, u64)]| {
            counter_family(
                members
                    .iter()
                    .map(|&(label, count)| (label.to_string(), count)),
            )
        };
        let mut a = MetricReport::new();
        a.insert("by_node", family(&[("n002", 5), ("n000", 1)]));
        let mut b = MetricReport::new();
        b.insert("by_node", family(&[("n001", 2), ("n002", 1)]));
        a.merge(&b).expect("kinds line up");
        let merged = a.family("by_node").unwrap();
        let labels: Vec<&str> = merged.keys().map(String::as_str).collect();
        assert_eq!(labels, vec!["n000", "n001", "n002"]);
        assert_eq!(merged.get("n002"), Some(&MetricValue::Counter(6)));
        assert_eq!(a.to_json(), r#"{"by_node":{"n000":1,"n001":2,"n002":6}}"#);
    }

    #[test]
    fn report_merge_combines_and_rejects_kind_mismatches() {
        let mut a = MetricReport::new();
        a.insert("packets", MetricValue::Counter(3));
        a.insert("peak", MetricValue::Gauge(1.5));
        let mut sketch = QuantileSketch::new();
        sketch.record(10);
        a.insert("latency", MetricValue::Histogram(sketch.clone()));
        a.insert(
            "by_node",
            MetricValue::Family(BTreeMap::from([(
                "n000".to_string(),
                MetricValue::Counter(7),
            )])),
        );

        let mut b = MetricReport::new();
        b.insert("packets", MetricValue::Counter(4));
        b.insert("peak", MetricValue::Gauge(0.5));
        let mut sketch_b = QuantileSketch::new();
        sketch_b.record(20);
        b.insert("latency", MetricValue::Histogram(sketch_b));
        b.insert(
            "by_node",
            MetricValue::Family(BTreeMap::from([
                ("n000".to_string(), MetricValue::Counter(1)),
                ("n001".to_string(), MetricValue::Counter(2)),
            ])),
        );

        a.merge(&b).expect("kinds line up");
        assert_eq!(a.counter("packets"), Some(7));
        assert_eq!(a.gauge("peak"), Some(1.5));
        assert_eq!(a.histogram("latency").unwrap().count(), 2);
        let family = a.family("by_node").unwrap();
        assert_eq!(family.get("n000"), Some(&MetricValue::Counter(8)));
        assert_eq!(family.get("n001"), Some(&MetricValue::Counter(2)));

        let mut clash = MetricReport::new();
        clash.insert("packets", MetricValue::Gauge(1.0));
        let error = a.merge(&clash).expect_err("counter vs gauge");
        assert_eq!(error.metric, "packets");
        assert!(error.to_string().contains("counter"));
        assert!(error.to_string().contains("gauge"));
    }

    #[test]
    fn jsonl_rendering_is_compact_and_deterministic() {
        let mut report = MetricReport::new();
        report.insert("delivered_bits", MetricValue::Counter(4096));
        report.insert("load", MetricValue::Gauge(0.25));
        let mut sketch = QuantileSketch::new();
        for v in [5u64, 5, 9] {
            sketch.record(v);
        }
        report.insert("latency_cycles", MetricValue::Histogram(sketch));
        let row = MetricRow {
            scenario: "firefly:uniform-random:set1:smoke".to_string(),
            point_index: 2,
            offered_load: 0.0125,
            seed: u64::MAX,
            report,
        };
        let line = render_jsonl_row(&row);
        assert!(line.starts_with("{\"scenario\":\"firefly:uniform-random:set1:smoke\""));
        assert!(line.contains("\"point\":2"));
        assert!(line.contains("\"seed\":\"18446744073709551615\""));
        assert!(line.contains("\"delivered_bits\":4096"));
        assert!(line.contains("\"p50\":5"));
        assert!(line.contains("\"bins\":[[5,2],[9,1]]"));
        assert!(!line.contains('\n'));
        assert_eq!(line, render_jsonl_row(&row), "rendering is a pure function");
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_row() {
        let mut report = MetricReport::new();
        report.insert("delivered_bits", MetricValue::Counter(64));
        report.insert(
            "by_node",
            MetricValue::Family(BTreeMap::from([
                ("n000".to_string(), MetricValue::Counter(32)),
                ("n001".to_string(), MetricValue::Counter(32)),
            ])),
        );
        let mut sketch = QuantileSketch::new();
        sketch.record(11);
        report.insert("latency_cycles", MetricValue::Histogram(sketch));
        let row = MetricRow {
            scenario: "a:b:set1:smoke".to_string(),
            point_index: 0,
            offered_load: 0.5,
            seed: 9,
            report,
        };

        let mut jsonl = JsonlSink::new(Vec::new());
        jsonl.write_row(&row).unwrap();
        jsonl.write_row(&row).unwrap();
        jsonl.finish().unwrap();
        let text = String::from_utf8(jsonl.into_inner()).unwrap();
        let line = render_jsonl_row(&row);
        assert_eq!(text, format!("{line}\n{line}\n"));

        // In memory, rows merge report by report, as
        // `ScenarioResult::merged_metrics` merges a scenario's points.
        let mut merged = MetricReport::new();
        for _ in 0..2 {
            merged.merge(&row.report).expect("same kinds");
        }
        assert_eq!(merged.counter("delivered_bits"), Some(128));
    }

    #[test]
    fn metrics_probe_aggregates_events_into_a_report() {
        let mut probe = MetricsProbe::new(10);
        // What the engine does around the probe: count the same events.
        let mut stats = SimStats::new(crate::clock::Clock::paper_default());
        let mut emit = |probe: &mut MetricsProbe, cycle: u64, event: SimEvent| {
            stats.observe(&event);
            probe.on_event(cycle, &event);
        };
        probe.on_measurement_begin(0);
        let src = CoreId(3);
        let dst = CoreId(17);
        for cycle in 0..25u64 {
            emit(&mut probe, cycle, SimEvent::PacketGenerated { src });
            emit(
                &mut probe,
                cycle,
                SimEvent::FlitDelivered {
                    src,
                    dst,
                    bits: 32,
                    flits: 1,
                    photonic: false,
                },
            );
            if cycle % 5 == 0 {
                emit(
                    &mut probe,
                    cycle,
                    SimEvent::PacketDelivered {
                        src,
                        dst,
                        latency: cycle + 1,
                    },
                );
            }
            probe.on_cycle_end(cycle);
        }
        emit(&mut probe, 24, SimEvent::PacketDropped { src });
        stats.measured_cycles = 25;
        probe.finish(&stats);
        let report = probe.report();
        assert_eq!(report.counter("generated_packets"), Some(25));
        assert_eq!(report.counter("delivered_packets"), Some(5));
        assert_eq!(report.counter("delivered_bits"), Some(25 * 32));
        assert_eq!(report.counter("dropped_packets"), Some(1));
        assert_eq!(report.counter("measured_cycles"), Some(25));
        let by_node = report.family("delivered_bits_by_node").unwrap();
        assert_eq!(by_node.get("n017"), Some(&MetricValue::Counter(25 * 32)));
        let windows = report.family("delivered_bits_by_window").unwrap();
        // 25 cycles / window 10 → windows w0000, w0001 and the partial w0002.
        assert_eq!(windows.len(), 3);
        assert_eq!(report.histogram("latency_cycles").unwrap().count(), 5);
        assert!(report.gauge("max_window_delivered_bits").unwrap() >= 320.0);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_is_rejected() {
        let _ = MetricsProbe::new(0);
    }
}
