//! Spans recorded from the benchmark's own files, around each call into a
//! crate. Kept in memory, written out when the run ends.
//!
//! A span's name is `layer:call` (`sim:run_with_mode[firefly]`,
//! `server:post_single`); the layer is the crate the call does its work in.
//! Spans on the calling thread nest by construction. A span measured on
//! another thread (the in-process server) is added with [`Tracer::record`]
//! and may overlap its siblings, so self time subtracts the *union* of the
//! children, not their sum.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// The rep index of spans recorded outside the timed reps (set-up, warm-up
/// rep, verification, layer probes).
pub const OUTSIDE_REPS: i32 = -1;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer:call`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The timed rep this span belongs to, or [`OUTSIDE_REPS`].
    pub rep: i32,
}

impl Span {
    /// The span's length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The part of the name before `:`.
    pub fn layer(&self) -> &'static str {
        self.name.split(':').next().unwrap_or(self.name)
    }
}

/// Records spans when enabled; when disabled, [`Tracer::span`] only calls
/// its closure, so the untraced run executes the same code.
pub struct Tracer {
    enabled: Cell<bool>,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    current: Cell<Option<usize>>,
    rep: Cell<i32>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled: Cell::new(enabled),
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            current: Cell::new(None),
            rep: Cell::new(OUTSIDE_REPS),
        }
    }

    /// Turns recording on or off (the traced run alternates, to measure its
    /// own overhead).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.set(enabled);
    }

    /// Tags subsequent spans with a rep index.
    pub fn set_rep(&self, rep: i32) {
        self.rep.set(rep);
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span that is a child of the span currently open on
    /// this thread.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled.get() {
            return f();
        }
        let parent = self.current.get();
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.ns(Instant::now()),
                end_ns: 0,
                parent,
                rep: self.rep.get(),
            });
            spans.len() - 1
        };
        self.current.set(Some(index));
        let out = f();
        self.spans.borrow_mut()[index].end_ns = self.ns(Instant::now());
        self.current.set(parent);
        out
    }

    /// Adds a span measured elsewhere (another thread) as a child of the
    /// span currently open on this thread.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled.get() {
            return;
        }
        self.spans.borrow_mut().push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.current.get(),
            rep: self.rep.get(),
        });
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (their union, clipped to the span).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Self time per layer over the spans of the timed reps, as a percentage of
/// the total time of the `harness:rep` spans. A layer no call entered has no
/// entry.
pub fn layer_share_pct(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let self_ns = self_times_ns(spans);
    let mut per_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut rep_total = 0u64;
    for (span, own) in spans.iter().zip(self_ns) {
        if span.rep == OUTSIDE_REPS {
            continue;
        }
        if span.name == "harness:rep" {
            rep_total += span.duration_ns();
        }
        *per_layer.entry(span.layer()).or_default() += own;
    }
    per_layer
        .into_iter()
        .map(|(layer, ns)| (layer, ns as f64 / rep_total.max(1) as f64 * 100.0))
        .collect()
}

/// The shortest span of the given name among the timed reps, in seconds.
pub fn best_span_s(spans: &[Span], name: &str) -> Option<f64> {
    spans
        .iter()
        .filter(|s| s.rep != OUTSIDE_REPS && s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e9)
        .reduce(f64::min)
}

/// Writes `header` (one JSON object) and then one JSON object per span.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_jsonl(path: &Path, header: &str, spans: &[Span]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    let self_ns = self_times_ns(spans);
    for (id, (span, own)) in spans.iter().zip(self_ns).enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{parent},\"rep\":{}}}",
            span.name, span.start_ns, span.end_ns, span.rep
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, rep: i32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            rep,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = [
            span("harness:rep", 0, 100, None, 0),
            span("sim:a", 10, 40, Some(0), 0),
            span("sim:b", 50, 90, Some(0), 0),
            span("store:inner", 55, 60, Some(2), 0),
        ];
        // Grandchildren count against their parent only.
        assert_eq!(self_times_ns(&spans), vec![30, 30, 35, 5]);
    }

    #[test]
    fn overlapping_children_are_counted_as_their_union() {
        let spans = [
            span("harness:rep", 0, 100, None, 0),
            span("server:post", 10, 60, Some(0), 0),
            // Measured on the server thread: overlaps the client span and
            // sticks out of the parent at the end.
            span("server:serve", 5, 120, Some(0), 0),
            span("server:get", 70, 80, Some(0), 0),
        ];
        // Union of the children inside the parent is 5..100.
        assert_eq!(self_times_ns(&spans)[0], 5);
    }

    #[test]
    fn layer_shares_skip_spans_outside_the_reps() {
        let spans = [
            span("harness:rep", 0, 100, None, OUTSIDE_REPS),
            span("harness:rep", 100, 200, None, 0),
            span("sim:run", 100, 190, Some(1), 0),
        ];
        let shares = layer_share_pct(&spans);
        assert_eq!(shares["sim"], 90.0);
        assert_eq!(shares["harness"], 10.0);
        assert!(!shares.contains_key("store"));
        assert_eq!(best_span_s(&spans, "sim:run"), Some(90e-9));
        assert_eq!(best_span_s(&spans, "store:open"), None);
    }

    #[test]
    fn tracer_nests_spans_and_is_silent_when_disabled() {
        let tracer = Tracer::new(true);
        tracer.set_rep(3);
        let out = tracer.span("harness:rep", || tracer.span("sim:run", || 7));
        assert_eq!(out, 7);
        tracer.set_enabled(false);
        tracer.span("sim:ignored", || ());
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].rep, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
