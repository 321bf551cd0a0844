//! Property-based tests of the typed metrics layer: the streaming quantile
//! sketch stays within its rank/relative error bounds against an exact sort,
//! sketch merging equals recording the union, metric reports merge
//! deterministically, and a cycle's flit totals count as its flits one by
//! one.

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

/// One flit a cycle moved: delivered (else injected), its bits, and whether
/// it crossed the photonic fabric.
type Flit = (bool, u64, bool);

/// The `Flits` total of `flits`.
fn total(flits: &[Flit]) -> SimEvent {
    let delivered = || flits.iter().filter(|flit| flit.0);
    SimEvent::Flits {
        injected: flits.iter().filter(|flit| !flit.0).count() as u32,
        delivered: delivered().count() as u32,
        delivered_bits: delivered().map(|flit| flit.1).sum(),
        photonic_bits: delivered().filter(|flit| flit.2).map(|flit| flit.1).sum(),
    }
}

/// Counts `stream` the way the engine does: every event into the run's
/// `SimStats` and into a sweep point's metrics probe, every cycle closed.
fn count_stream(config: &SimConfig, stream: &[(u64, SimEvent)], cycles: u64) -> (SimStats, String) {
    let mut stats = SimStats::default();
    let mut probe = MetricsProbe::for_config(config);
    probe.on_measurement_begin(0);
    let mut events = stream.iter().peekable();
    for cycle in 0..cycles {
        while let Some((_, event)) = events.next_if(|(at, _)| *at == cycle) {
            stats.observe(event);
            probe.on_event(cycle, event);
        }
        stats.measured_cycles += 1;
        probe.on_cycle_end(cycle);
    }
    assert!(
        events.next().is_none(),
        "the stream ends before cycle {cycles}"
    );
    probe.finish(&stats);
    (stats, probe.report().to_json())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A cycle's flits count the same as one total, as several partial
    /// totals, or one by one. A random per-flit stream is summed once into
    /// one `Flits` total per cycle and once, cut at random, into several per
    /// cycle (as the hierarchy's pods and spine each report one); both
    /// streams must give equal statistics and a byte-equal report, and those
    /// must equal the per-flit sums: the four flit counters, and every
    /// throughput window's delivered bits. The probe's throughput window is
    /// three cycles, so window boundaries fall inside the stream.
    #[test]
    fn flit_totals_count_as_their_flits_one_by_one(
        groups in prop::collection::vec(
            (
                (0u64..3, any::<bool>(), 0usize..4),
                (any::<bool>(), 1u32..=9, 0u16..=u16::MAX, any::<bool>()),
            ),
            1..80,
        ),
    ) {
        let mut config = SimConfig::paper_default(BandwidthSet::Set1);
        config.sim_cycles = 24;
        prop_assert_eq!(config.sim_cycles / 8, 3, "a three-cycle window");
        // Every flit with its cycle and whether a cut follows it, in order.
        let mut flits: Vec<(u64, Flit, bool)> = Vec::new();
        let mut packets: Vec<(u64, SimEvent)> = Vec::new();
        let mut cycle = 0;
        for ((gap, delivered, width), (photonic, count, cuts, tail)) in groups {
            cycle += gap;
            let bits = [1, 32, 64, u64::from(u32::MAX)][width];
            for flit in 0..count {
                let cut = cuts >> flit & 1 == 1;
                flits.push((cycle, (delivered, bits, photonic), cut));
            }
            if tail {
                let (src, dst) = (CoreId(width), CoreId(63 - width));
                let latency = u64::from(count);
                packets.push((cycle, SimEvent::PacketDelivered { src, dst, latency }));
            }
        }
        let cycles = cycle + 1;
        let (mut whole, mut split) = (Vec::new(), Vec::new());
        for cycle in 0..cycles {
            let moved: Vec<(Flit, bool)> = flits
                .iter()
                .filter(|(at, _, _)| *at == cycle)
                .map(|&(_, flit, cut)| (flit, cut))
                .collect();
            let ours = |stream: &mut Vec<(u64, SimEvent)>| {
                stream.extend(packets.iter().filter(|(at, _)| *at == cycle).copied());
            };
            ours(&mut whole);
            if !moved.is_empty() {
                let all: Vec<Flit> = moved.iter().map(|&(flit, _)| flit).collect();
                whole.push((cycle, total(&all)));
            }
            let mut part = Vec::new();
            for (index, &(flit, cut)) in moved.iter().enumerate() {
                part.push(flit);
                if cut || index + 1 == moved.len() {
                    split.push((cycle, total(&part)));
                    part.clear();
                }
            }
            ours(&mut split);
        }
        let (stats, report) = count_stream(&config, &whole, cycles);
        prop_assert_eq!((stats, report.clone()), count_stream(&config, &split, cycles));

        let delivered = || flits.iter().filter(|(_, flit, _)| flit.0);
        prop_assert_eq!(
            stats.injected_flits,
            flits.iter().filter(|(_, flit, _)| !flit.0).count() as u64
        );
        prop_assert_eq!(stats.delivered_flits, delivered().count() as u64);
        prop_assert_eq!(
            stats.delivered_bits,
            delivered().map(|(_, flit, _)| flit.1).sum::<u64>()
        );
        prop_assert_eq!(
            stats.delivered_photonic_bits,
            delivered().filter(|(_, flit, _)| flit.2).map(|(_, flit, _)| flit.1).sum::<u64>()
        );
        let windows: Vec<String> = (0..cycles.div_ceil(3))
            .map(|window| {
                let bits: u64 = delivered()
                    .filter(|(at, _, _)| at / 3 == window)
                    .map(|(_, flit, _)| flit.1)
                    .sum();
                format!("\"w{window:04}\":{bits}")
            })
            .collect();
        let series = format!("\"delivered_bits_by_window\":{{{}}}", windows.join(","));
        prop_assert!(report.contains(&series), "{series} not in {report}");
    }
}
