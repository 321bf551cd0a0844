//! Property test of the scenario spec round trip through the hand-rolled
//! JSON emitter/parser: `parse_scenarios(render_scenarios(specs)) == specs`
//! for arbitrary specs — including registry names full of quotes,
//! backslashes, control characters and non-ASCII text, seeds that do not fit
//! in an `f64`, and arbitrary finite ladders.

use pnoc_bench::scenario_io::{parse_scenarios, render_scenarios};
use pnoc_sim::config::BandwidthSet;
use pnoc_sim::params::ArchParams;
use pnoc_sim::scenario::{Effort, ScenarioSpec};
use proptest::prelude::*;

/// Maps sampled code points to a name string. The range deliberately covers
/// ASCII controls (escaped as `\uXXXX`), `"` and `\` (escaped), and Latin
/// letters beyond ASCII; every code point below 0x250 is a valid `char`.
fn name_from(codes: &[u32]) -> String {
    codes
        .iter()
        .map(|&c| char::from_u32(c).expect("code points below 0x250 are valid chars"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn scenario_specs_round_trip_through_the_json_emitter(
        arch_codes in prop::collection::vec(1u32..0x250, 1..12),
        traffic_codes in prop::collection::vec(1u32..0x250, 1..12),
        workload_codes in prop::collection::vec(1u32..0x250, 1..12),
        param_entries in prop::collection::vec(
            (prop::collection::vec(1u32..0x250, 1..8), prop::collection::vec(1u32..0x250, 1..8)),
            0..4,
        ),
        knobs in (0usize..3, 0usize..3, 0u64..=u64::MAX, any::<bool>()),
        ladder in prop::collection::vec(1e-9f64..10.0, 0..5),
        fault_codes in prop::collection::vec(1u32..0x250, 1..12),
        with_faults in any::<bool>(),
    ) {
        let (set_index, effort_index, seed, closed_loop) = knobs;
        // JSON carries arch_params as a string map, so keys and values may
        // be arbitrary text (the spec-string grammar is stricter, but the
        // JSON wire format must not lose anything).
        let mut arch_params = ArchParams::new();
        for (key_codes, value_codes) in &param_entries {
            arch_params.insert(name_from(key_codes), name_from(value_codes));
        }
        let spec = ScenarioSpec {
            architecture: name_from(&arch_codes),
            arch_params,
            traffic: name_from(&traffic_codes),
            bandwidth_set: BandwidthSet::ALL[set_index],
            effort: Effort::ALL[effort_index],
            seed,
            ladder,
            workload: closed_loop.then(|| name_from(&workload_codes)),
            // The wire format carries the fault plan verbatim (resolution
            // happens at run time), so arbitrary text must survive too.
            faults: with_faults.then(|| name_from(&fault_codes)),
        };
        let rendered = render_scenarios(std::slice::from_ref(&spec));
        let parsed = parse_scenarios(&rendered)
            .map_err(|e| format!("own output failed to parse: {e}\n{rendered}"))?;
        prop_assert_eq!(parsed, vec![spec]);
    }

    #[test]
    fn batches_of_specs_round_trip_in_order(
        seeds in prop::collection::vec(0u64..=u64::MAX, 1..6),
    ) {
        let specs: Vec<ScenarioSpec> = seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| {
                ScenarioSpec::new(format!("arch-{i}"), format!("traffic-{i}"))
                    .with_arch_param("radix", i)
                    .with_bandwidth_set(BandwidthSet::ALL[i % 3])
                    .with_effort(Effort::ALL[i % 3])
                    .with_seed(seed)
            })
            .collect();
        let parsed = parse_scenarios(&render_scenarios(&specs))
            .map_err(|e| format!("own output failed to parse: {e}"))?;
        prop_assert_eq!(parsed, specs);
    }
}
