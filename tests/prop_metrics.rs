//! Property-based tests of the typed metrics layer: the streaming quantile
//! sketch stays within its rank/relative error bounds against an exact sort,
//! sketch merging equals recording the union, and metric reports merge
//! deterministically.

use d_hetpnoc_repro::prelude::*;
use proptest::prelude::*;

/// The exact order statistic the sketch's `quantile(q)` estimates: the
/// sample of rank `ceil(q · n)` (1-based) in sorted order.
fn exact_rank_sample(sorted: &[u64], q: f64) -> u64 {
    let target = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[target - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// For any sample set and any probed quantile, the sketch's estimate
    /// (a) covers the target rank — at least `ceil(q·n)` samples are ≤ the
    /// estimate — and (b) is within one log-linear bucket width
    /// (relative error `2^-SUB_BITS`, plus one for the unit bucket floor) of
    /// the exact sorted order statistic.
    #[test]
    fn sketch_quantiles_stay_within_rank_error_bounds(
        samples in prop::collection::vec(0u64..5_000_000, 1..400),
        q_mille in 0u64..=1000,
    ) {
        let q = q_mille as f64 / 1000.0;
        let mut sketch = QuantileSketch::new();
        for &s in &samples {
            sketch.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();

        let estimate = sketch.quantile(q).expect("non-empty");
        let exact = exact_rank_sample(&sorted, q);

        // (a) Rank coverage: the estimate dominates the target rank.
        let target = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let covered = sorted.iter().filter(|&&s| s <= estimate).count();
        prop_assert!(
            covered >= target,
            "estimate {estimate} covers {covered} samples, rank target is {target}"
        );

        // (b) Value error: never below the exact order statistic, and at
        // most one bucket width above it.
        prop_assert!(estimate >= exact, "estimate {estimate} below exact {exact}");
        let allowed = exact + exact / (1 << pnoc_sim::metrics::SUB_BITS) + 1;
        prop_assert!(
            estimate <= allowed,
            "estimate {estimate} exceeds error bound {allowed} (exact {exact})"
        );

        // Exact tails regardless of bucketing.
        prop_assert_eq!(sketch.max(), sorted.last().copied());
        prop_assert_eq!(sketch.min(), sorted.first().copied());
        prop_assert_eq!(sketch.count(), sorted.len() as u64);
    }

    /// Merging two sketches is bitwise identical to recording the
    /// concatenated sample stream — in either merge order.
    #[test]
    fn sketch_merge_equals_recording_the_union(
        left in prop::collection::vec(0u64..1_000_000, 0..120),
        right in prop::collection::vec(0u64..1_000_000, 0..120),
    ) {
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        let mut union = QuantileSketch::new();
        for &s in &left {
            a.record(s);
            union.record(s);
        }
        for &s in &right {
            b.record(s);
            union.record(s);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        prop_assert_eq!(&ab, &union, "merge must equal the union");
        prop_assert_eq!(&ba, &union, "merge order must not matter");
    }
}
