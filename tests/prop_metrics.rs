//! Property-based tests of the typed metrics layer: the streaming quantile
//! sketch stays within its rank/relative error bounds against an exact sort,
//! sketch merging equals recording the union, metric reports merge
//! deterministically, and a flit run counts as its flits one by one.

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

/// A flit event of `flits` flits: a delivery or an injection.
fn flit_run(
    delivered: bool,
    (src, dst): (usize, usize),
    bits: u32,
    photonic: bool,
    flits: u32,
) -> SimEvent {
    let (src, dst) = (CoreId(src), CoreId(dst));
    if delivered {
        SimEvent::FlitDelivered {
            src,
            dst,
            bits,
            flits,
            photonic,
        }
    } else {
        SimEvent::FlitInjected { src, bits, flits }
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

    /// A `k`-flit run counts as `k` one-flit events. A random per-flit
    /// stream is coalesced at random into runs of flits with the same cycle,
    /// kind, cores, width and photonic flag; both streams must give equal
    /// statistics and a byte-equal report. The probe's throughput window is
    /// three cycles, so window boundaries fall inside the stream, and its
    /// topology fills the cluster-pair family.
    #[test]
    fn a_flit_run_counts_as_its_flits_one_by_one(
        groups in prop::collection::vec(
            (
                (0u64..3, any::<bool>(), (0usize..64, 0usize..64), 0usize..4),
                (any::<bool>(), 1u32..=9, 0u16..=u16::MAX, any::<bool>()),
            ),
            1..80,
        ),
    ) {
        let mut config = SimConfig::paper_default(BandwidthSet::Set1);
        config.sim_cycles = 24;
        prop_assert_eq!(config.sim_cycles / 8, 3, "a three-cycle window");
        let (mut flit_wise, mut run_wise) = (Vec::new(), Vec::new());
        let mut cycle = 0;
        for ((gap, delivered, cores, width), (photonic, flits, cuts, tail)) in groups {
            cycle += gap;
            let bits = [1, 32, 64, u32::MAX][width];
            let run = |flits| (cycle, flit_run(delivered, cores, bits, photonic, flits));
            flit_wise.extend((0..flits).map(|_| run(1)));
            // A cut after flit `i` ends a run there; the last flit ends one.
            let mut start = 0;
            for flit in 0..flits {
                if flit + 1 == flits || cuts >> flit & 1 == 1 {
                    run_wise.push(run(flit + 1 - start));
                    start = flit + 1;
                }
            }
            if tail {
                let delivered = SimEvent::PacketDelivered {
                    src: CoreId(cores.0),
                    dst: CoreId(cores.1),
                    latency: u64::from(flits),
                };
                flit_wise.push((cycle, delivered));
                run_wise.push((cycle, delivered));
            }
        }
        let cycles = cycle + 1;
        prop_assert_eq!(
            count_stream(&config, &flit_wise, cycles),
            count_stream(&config, &run_wise, cycles)
        );
    }
}
