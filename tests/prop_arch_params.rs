//! Property-based tests of the architecture-parameter system: spec strings
//! round-trip through parse↔render, schema validation accepts exactly the
//! declared in-bounds values, and a parameter-swept scenario matrix is
//! deterministic across runs.

use d_hetpnoc_repro::prelude::*;
use proptest::prelude::*;

/// A small pool of well-formed parameter keys; properties index into it so
/// the generated maps stay within the spec grammar (the grammar itself is
/// pinned by unit tests in `pnoc_sim::params`).
const KEYS: [&str; 6] = ["radix", "scale", "policy", "wavelengths", "alpha", "b-52"];

fn params_from(entries: &[(u64, u64)]) -> ArchParams {
    let mut params = ArchParams::new();
    for &(key_idx, raw) in entries {
        // Shift into a signed range so negative values are exercised too.
        let value = raw as i64 - 1_000_000;
        params.insert(KEYS[key_idx as usize % KEYS.len()], value);
    }
    params
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// render → parse is the identity on every ArchParams value, both as a
    /// bare block and embedded in a `name{...}` architecture spec.
    #[test]
    fn params_render_parse_round_trip(
        entries in prop::collection::vec((0u64..6, 0u64..2_000_000), 0..6),
    ) {
        let params = params_from(&entries);
        let rendered = params.render();
        let parsed = ArchParams::parse(&rendered).expect("rendered text is canonical");
        prop_assert_eq!(&parsed, &params);
        // Canonical text is a fixed point of parse∘render.
        prop_assert_eq!(parsed.render(), rendered.clone());

        let spec = params.render_spec("firefly");
        let (name, from_spec) = ArchParams::split_spec(&spec).expect("well-formed spec");
        prop_assert_eq!(name, "firefly".to_string());
        prop_assert_eq!(from_spec, params);
    }

    /// An int parameter validates exactly when the value is inside the
    /// declared bounds, and resolves to the exact value (or the default when
    /// not overridden). Unknown keys are always rejected.
    #[test]
    fn schema_validation_accepts_exactly_the_declared_range(
        raw_value in 0u64..20_000,
        unknown_key in 0u64..6,
    ) {
        let value = raw_value as i64 - 10_000;
        let schema = ParamSchema::new().int("radix", 16, 2, 512, "crossbar radix");
        let result = schema.validate("arch", &ArchParams::new().set("radix", value));
        if (2..=512).contains(&value) {
            let resolved = result.expect("in bounds");
            prop_assert_eq!(resolved.int("radix"), value);
        } else {
            let error = result.expect_err("out of bounds");
            prop_assert!(matches!(error, ArchParamError::OutOfBounds { .. }));
            prop_assert!(error.to_string().contains("2..=512"));
        }

        // Any key the schema does not declare is rejected regardless of value.
        let key = KEYS[unknown_key as usize % KEYS.len()];
        if key != "radix" {
            let error = schema
                .validate("arch", &ArchParams::new().set(key, value))
                .expect_err("unknown key");
            prop_assert!(matches!(error, ArchParamError::UnknownParameter { .. }));
        }

        // Defaults fill in when no override is given.
        let defaults = schema.validate("arch", &ArchParams::new()).expect("defaults");
        prop_assert_eq!(defaults.int("radix"), 16);
    }
}

/// A parameter-swept matrix — two values of `uniform-fabric`'s
/// `wavelengths` knob crossed with two traffic patterns — produces
/// bitwise-identical results run after run, and the parallel batch equals
/// the per-scenario sequential reference.
#[test]
fn param_swept_matrix_is_deterministic_across_runs() {
    let matrix = ScenarioMatrix::new()
        .architectures(["uniform-fabric"])
        .arch_params("wavelengths", ["16", "64"])
        .traffics(["uniform-random", "tornado"])
        .effort(Effort::Smoke);
    assert_eq!(matrix.specs().len(), 4);
    let first = matrix.run().expect("all specs valid");
    let second = matrix.run().expect("all specs valid");
    assert!(
        first.bitwise_eq(&second),
        "two runs of the same param sweep must be bitwise-identical"
    );
    let sequential = matrix.run_sequential().expect("all specs valid");
    assert!(
        first.bitwise_eq(&sequential),
        "the parallel batch must equal the sequential reference"
    );
    // The two parameter values simulate distinct networks: no cross-value
    // deduplication may occur.
    assert_eq!(first.unique_points, first.total_points);
}
