//! The law batch sharing rests on: two architecture spellings that build
//! one network share its runs, and the batch is bitwise-identical to the
//! sequential reference (which shares nothing).
//!
//! - `firefly{radix=R}` and `uniform-fabric{wavelengths=W}` with equal
//!   channel widths (`total/R == W/16`, each at least 1) build one channel
//!   table. Over a drawn bandwidth set, open-loop pattern at one load of its
//!   smoke ladder or closed-loop collective, fault preset, seed and
//!   equal-width pair, the batch must write byte-identical JSONL, simulate
//!   half its unique points, and report the two architectures' rows equal
//!   but for their `scenario` label. A one-cycle-longer reservation or one
//!   wavelength more or fewer per channel is another network and must not
//!   share.
//! - On healthy uniform-class demand (`uniform-random`, `tornado`,
//!   `bursty-uniform`) d-HetPNoC's class table, under either policy, is
//!   Firefly's channel table, with set 3's two-cycle reservation. The three
//!   share every run, on a healthy run and under plans of only `link-fail`
//!   events (`single-link`, `rolling-links`), which derate no width and
//!   move no pool. Skewed demand, a binding cap, or a fault plan
//!   (`laser-dim`, `wavelength-degrade`) that the two width rules answer
//!   differently, is another network and must not share.
//!
//! The vendored `proptest` does not shrink, so every failure message
//! carries the case.

use pnoc_bench::runner::ensure_registered;
use pnoc_sim::config::BandwidthSet;
use pnoc_sim::metrics::{render_jsonl_row, JsonlSink};
use pnoc_sim::scenario::{Effort, MatrixResult, ScenarioMatrix, ScenarioSpec};
use proptest::prelude::*;

const PATTERNS: [&str; 7] = [
    "uniform-random",
    "tornado",
    "bursty-uniform",
    "skewed-3",
    "transpose",
    "bit-reverse",
    "hotspot-20pct-skewed-3",
];
const WORKLOADS: [&str; 2] = ["allreduce:8", "incast:8"];
const PRESETS: [&str; 4] = ["", "single-link", "rolling-links", "ring-drift"];
const RADICES: [usize; 6] = [2, 4, 8, 16, 32, 64];
/// A closed loop runs until it drains, and its makespan grows as the
/// channel narrows (`incast:8` takes ≈ 3× the cycles at radix 64 as at 16),
/// so closed-loop draws keep to the radices up to the paper's 16.
const CLOSED_LOOP_RADICES: usize = 4;
/// The patterns whose every cluster pair demands one class.
const UNIFORM_CLASS_PATTERNS: [&str; 3] = ["uniform-random", "tornado", "bursty-uniform"];

/// The Firefly spelling of d-HetPNoC's table under uniform-class demand:
/// the paper's radix, with set 3's two-cycle reservation.
fn firefly_twin(set: BandwidthSet) -> String {
    match set {
        BandwidthSet::Set3 => "firefly{reservation_cycles=2}".to_string(),
        _ => "firefly".to_string(),
    }
}

/// The two architecture entries of one equal-width pair: `firefly` at
/// `radix` and `uniform-fabric` with a budget that floors to the same
/// channel width over the 16 clusters (`slack` extra wavelengths, kept
/// inside the schema's 4096).
fn equal_width_pair(set: BandwidthSet, radix: usize, slack: usize) -> [String; 2] {
    let width = (set.total_wavelengths() / radix).max(1);
    let wavelengths = (width * 16 + slack % 16).min(4096);
    [
        format!("firefly{{radix={radix}}}"),
        format!("uniform-fabric{{wavelengths={wavelengths}}}"),
    ]
}

/// A smoke-effort matrix of `architectures` over one payload (an open-loop
/// pattern at load `load_index` of its smoke ladder, or a closed-loop
/// workload when `payload` names one), one set, one fault preset and one
/// seed.
fn matrix(
    architectures: &[String],
    payload: &str,
    load_index: usize,
    set: BandwidthSet,
    preset: &str,
    seed: u64,
) -> ScenarioMatrix {
    let matrix = ScenarioMatrix::new()
        .architectures(architectures.iter().cloned())
        .bandwidth_sets([set])
        .fault_plans([preset])
        .effort(Effort::Smoke)
        .seed(seed);
    if WORKLOADS.contains(&payload) {
        return matrix.workloads([payload]);
    }
    let ladder = ScenarioSpec::new("firefly", payload)
        .with_bandwidth_set(set)
        .with_effort(Effort::Smoke)
        .loads();
    matrix.traffics([payload]).ladder(vec![ladder[load_index]])
}

/// Scenario `index`'s JSONL rows with their `scenario` label cleared.
fn unlabelled(result: &MatrixResult, index: usize) -> Vec<String> {
    result.scenarios[index]
        .metric_rows()
        .into_iter()
        .map(|mut row| {
            row.scenario.clear();
            render_jsonl_row(&row)
        })
        .collect()
}

fn jsonl(result: &MatrixResult) -> Vec<u8> {
    let mut sink = JsonlSink::new(Vec::new());
    result.write_metrics(&mut sink).expect("rows render");
    sink.into_inner()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn equal_width_uniform_fabric_shares_firefly_runs_bitwise(
        set_index in 0usize..3,
        payload_index in 0usize..(PATTERNS.len() + WORKLOADS.len()),
        load_index in 0usize..3,
        preset_index in 0usize..PRESETS.len(),
        seed in 0u64..u64::MAX,
        radix_index in 0usize..RADICES.len(),
        slack in 0usize..16,
    ) {
        ensure_registered();
        let set = BandwidthSet::ALL[set_index];
        let payload = PATTERNS.iter().chain(&WORKLOADS).nth(payload_index).unwrap();
        let preset = PRESETS[preset_index];
        let radix = if WORKLOADS.contains(payload) {
            RADICES[radix_index % CLOSED_LOOP_RADICES]
        } else {
            RADICES[radix_index]
        };
        let pair = equal_width_pair(set, radix, slack);
        let case = format!(
            "{pair:?} × {payload} (load {load_index}) × {set:?} × faults '{preset}' × seed {seed}"
        );

        let matrix = matrix(&pair, payload, load_index, set, preset, seed);
        let batched = matrix.run().expect("the case resolves");
        let sequential = matrix.run_sequential().expect("the case resolves");
        prop_assert!(batched.bitwise_eq(&sequential), "batch ≠ sequential: {case}");
        prop_assert_eq!(jsonl(&batched), jsonl(&sequential), "JSONL differs: {}", case);
        prop_assert_eq!(batched.unique_points, batched.total_points, "{}", case);
        prop_assert_eq!(
            2 * batched.cache.simulated,
            batched.unique_points,
            "equal widths must share every run: {}",
            case
        );

        prop_assert_eq!(batched.scenarios.len(), 2, "{}", case);
        prop_assert_eq!(
            unlabelled(&batched, 0),
            unlabelled(&batched, 1),
            "rows differ: {}",
            case
        );
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn another_reservation_or_width_is_another_network(
        set_index in 0usize..3,
        radix_index in 0usize..RADICES.len(),
        slack in 0usize..16,
        seed in 0u64..u64::MAX,
    ) {
        ensure_registered();
        let set = BandwidthSet::ALL[set_index];
        let [firefly, uniform] = equal_width_pair(set, RADICES[radix_index], slack);
        let radix = RADICES[radix_index];
        let width = (set.total_wavelengths() / radix).max(1);
        let other_width = if (width + 1) * 16 <= 4096 { width + 1 } else { width - 1 };
        let controls = [
            [format!("firefly{{radix={radix},reservation_cycles=2}}"), uniform],
            [firefly, format!("uniform-fabric{{wavelengths={}}}", other_width * 16)],
        ];
        for pair in controls {
            let batched = matrix(&pair, "tornado", 2, set, "", seed)
                .run()
                .expect("the control resolves");
            prop_assert_eq!(
                batched.cache.simulated,
                batched.unique_points,
                "{:?} on {:?} shared a run",
                pair,
                set
            );
            prop_assert_eq!(batched.unique_points, 2);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn a_class_table_equal_to_a_channel_table_shares_its_runs_bitwise(
        set_index in 0usize..3,
        pattern_index in 0usize..UNIFORM_CLASS_PATTERNS.len(),
        load_index in 0usize..3,
        seed in 0u64..u64::MAX,
    ) {
        ensure_registered();
        let set = BandwidthSet::ALL[set_index];
        let pattern = UNIFORM_CLASS_PATTERNS[pattern_index];
        let architectures = [
            "d-hetpnoc".to_string(),
            "d-hetpnoc{policy=paper-max}".to_string(),
            firefly_twin(set),
        ];
        let case = format!(
            "{architectures:?} × {pattern} (load {load_index}) × {set:?} × seed {seed}"
        );

        let matrix = matrix(&architectures, pattern, load_index, set, "", seed);
        let batched = matrix.run().expect("the case resolves");
        let sequential = matrix.run_sequential().expect("the case resolves");
        prop_assert!(batched.bitwise_eq(&sequential), "batch ≠ sequential: {case}");
        prop_assert_eq!(jsonl(&batched), jsonl(&sequential), "JSONL differs: {}", case);
        prop_assert_eq!(
            3 * batched.cache.simulated,
            batched.unique_points,
            "one table must share every run: {}",
            case
        );
        prop_assert_eq!(
            unlabelled(&batched, 0),
            unlabelled(&batched, 2),
            "rows differ: {}",
            case
        );
        prop_assert_eq!(
            unlabelled(&batched, 1),
            unlabelled(&batched, 2),
            "rows differ: {}",
            case
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn a_class_table_equal_to_a_channel_table_shares_its_runs_under_link_faults(
        set_index in 0usize..3,
        preset_index in 0usize..2,
        load_index in 0usize..3,
        seed in 0u64..u64::MAX,
    ) {
        ensure_registered();
        let set = BandwidthSet::ALL[set_index];
        let preset = ["single-link", "rolling-links"][preset_index];
        let architectures = ["d-hetpnoc".to_string(), firefly_twin(set)];
        let case = format!(
            "{architectures:?} × uniform-random (load {load_index}) × {set:?} × faults '{preset}' × seed {seed}"
        );

        let matrix = matrix(&architectures, "uniform-random", load_index, set, preset, seed);
        let batched = matrix.run().expect("the case resolves");
        let sequential = matrix.run_sequential().expect("the case resolves");
        prop_assert!(batched.bitwise_eq(&sequential), "batch ≠ sequential: {case}");
        prop_assert_eq!(jsonl(&batched), jsonl(&sequential), "JSONL differs: {}", case);
        prop_assert_eq!(
            2 * batched.cache.simulated,
            batched.unique_points,
            "one table must share every run: {}",
            case
        );
        prop_assert_eq!(
            unlabelled(&batched, 0),
            unlabelled(&batched, 1),
            "rows differ: {}",
            case
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn another_demand_cap_or_fault_plan_is_another_network(
        set_index in 0usize..3,
        seed in 0u64..u64::MAX,
    ) {
        ensure_registered();
        let set = BandwidthSet::ALL[set_index];
        let pair = |dhet: &str, firefly: String| [dhet.to_string(), firefly];
        let controls = [
            (pair("d-hetpnoc", "firefly".into()), "skewed-3", ""),
            (pair("d-hetpnoc{max_wavelengths=2}", firefly_twin(set)), "uniform-random", ""),
            (pair("d-hetpnoc", firefly_twin(set)), "uniform-random", "laser-dim@c200:fabric/2"),
            (
                pair("d-hetpnoc", firefly_twin(set)),
                "uniform-random",
                "wavelength-degrade@c200:class-high/2",
            ),
        ];
        for (pair, pattern, plan) in controls {
            let batched = matrix(&pair, pattern, 2, set, plan, seed)
                .run()
                .expect("the control resolves");
            prop_assert_eq!(
                batched.cache.simulated,
                batched.unique_points,
                "{:?} × {} × faults '{}' on {:?} shared a run",
                pair,
                pattern,
                plan,
                set
            );
            prop_assert_eq!(batched.unique_points, 2);
        }
    }
}
