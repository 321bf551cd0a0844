//! `ScenarioSpec::resolve` is total: over every registered architecture with
//! its declared parameters at in-range, out-of-range and wrong-kind values,
//! open-loop patterns or `NAME:SIZE` workload references, and the fault
//! presets, it returns a scenario or a typed [`ScenarioError`] and never
//! panics. So is the shorthand grammar: mangled `--scenario` text goes
//! through `ScenarioSpec::parse_shorthand` and then `resolve` without a
//! panic. The draws come from a fixed-seed generator, so a failure names a
//! spec that fails again on every run.

use d_hetpnoc_repro::prelude::*;
use pnoc_sim::params::{ParamKind, ParamSpec};
use pnoc_workload::registry::registered_workloads;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Specs drawn per run.
const DRAWS: usize = 3_000;

/// The fault presets, an empty plan and one name that is none of them.
const FAULTS: [&str; 6] = [
    "",
    "none",
    "single-link",
    "rolling-links",
    "ring-drift",
    "rolling-link",
];

/// A SplitMix64 stream: enough randomness for spec draws, no dependency.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// A value for `spec`: in its declared range, outside it, or of another
/// kind altogether (`1.5` for an int, a word for a float, a number for a
/// choice, an empty value).
fn param_value(spec: &ParamSpec, draws: &mut Draws) -> String {
    let raw = draws.next() % 1_000_000;
    match (&spec.kind, draws.below(8)) {
        (_, 7) => draws.pick(&["1.5", "x", "", "-", "1e999", "7"]).to_string(),
        (ParamKind::Int { min, max }, 0..=4) => {
            let span = max.abs_diff(*min) + 1;
            (min + (raw % span) as i64).to_string()
        }
        (ParamKind::Int { min, max }, _) => match raw % 3 {
            0 => (max + 1 + (raw % 1_000) as i64).to_string(),
            1 => (min - 1 - (raw % 1_000) as i64).to_string(),
            _ => "99999999999999999999".to_string(),
        },
        (ParamKind::Float { min, max }, 0..=4) => {
            let fraction = (raw % 1_001) as f64 / 1_000.0;
            (min + fraction * (max - min)).to_string()
        }
        (ParamKind::Float { min, max }, _) => match raw % 4 {
            0 => (max + 1.0 + (raw % 100) as f64).to_string(),
            1 => (min - 1.0 - (raw % 100) as f64).to_string(),
            2 => "NaN".to_string(),
            _ => "inf".to_string(),
        },
        (ParamKind::Enum { choices }, 0..=4) => draws.pick(choices).clone(),
        (ParamKind::Enum { choices }, _) => format!("{}-not", choices[0]),
    }
}

/// One spec: an architecture with up to three parameter draws, split
/// between its embedded block and its explicit overrides (an undeclared key
/// now and then), an open-loop pattern or a `NAME:SIZE` workload with a
/// size in 0..=300, and a fault plan from [`FAULTS`].
fn draw_spec(draws: &mut Draws) -> ScenarioSpec {
    let name = draws.pick(&registered_architectures()).clone();
    let schema = lookup_architecture(&name).expect("listed").param_schema();
    let (mut embedded, mut explicit) = (ArchParams::new(), ArchParams::new());
    for _ in 0..draws.below(4) {
        let target = if draws.below(2) == 0 {
            &mut embedded
        } else {
            &mut explicit
        };
        if schema.is_empty() || draws.below(10) == 0 {
            target.insert("warp-factor", draws.below(100));
        } else {
            let spec = draws.pick(schema.specs());
            target.insert(spec.name.clone(), param_value(spec, draws));
        }
    }
    let architecture = embedded.render_spec(&name);
    let spec = if draws.below(2) == 0 {
        let workload = draws.pick(&registered_workloads()).clone();
        ScenarioSpec::closed_loop(architecture, format!("{workload}:{}", draws.below(301)))
    } else {
        ScenarioSpec::new(architecture, draws.pick(&registered_traffic_patterns()))
    };
    spec.with_arch_params(explicit)
        .with_faults(*draws.pick(&FAULTS))
        .with_effort(Effort::Smoke)
}

#[test]
fn resolve_returns_a_scenario_or_a_typed_error() {
    d_hetpnoc_repro::install_architectures();
    let mut draws = Draws(0x5eed_0f5c_e4a2_1000);
    let (mut resolved, mut rejected) = (0, 0);
    for _ in 0..DRAWS {
        let spec = draw_spec(&mut draws);
        match catch_unwind(AssertUnwindSafe(|| spec.resolve().map(drop))) {
            Ok(Ok(())) => resolved += 1,
            Ok(Err(_)) => rejected += 1,
            Err(_) => panic!("resolve panicked on {}", spec.id()),
        }
    }
    // Both outcomes are common, so neither half of the space goes unvisited.
    assert!(
        resolved > DRAWS / 5 && rejected > DRAWS / 5,
        "{resolved} resolved, {rejected} rejected of {DRAWS}"
    );
}

/// Mangled shorthands drawn per run.
const MANGLED: usize = 40_000;

/// `--scenario` shorthands that resolve, which the mangling starts from:
/// parameter blocks, a leaf, every optional part, aliases and fault plans with
/// colons, slashes and commas of their own.
const SHORTHANDS: [&str; 8] = [
    "d-hetpnoc:tornado:set2",
    "firefly{radix=8}:uniform:1:smoke",
    "uniform-fabric{wavelengths=16}:bursty:set3:quick",
    "hier{pods=4,leaf=firefly,spine_latency=0}:skewed-3:1:smoke",
    "hier{pods=1,leaf=d-hetpnoc}:real-application",
    "firefly:tornado#faults=link-fail@c150:sw1,laser-dim@c200:fabric/2",
    "d-hetpnoc{policy=paper-max,max_wavelengths=32}:hotspot-20pct-skewed-3:2:paper#faults=rolling-links",
    "uniform-fabric:transpose#faults=none",
];

/// What an edit inserts or writes: the grammar's punctuation, digits,
/// letters and one multi-byte character.
const ALPHABET: &str = "{}=,:#@-/0123456789aeflrsxzλ";

/// `text` after one to three random character insertions, deletions and
/// replacements.
fn mangle(text: &str, draws: &mut Draws) -> String {
    let alphabet: Vec<char> = ALPHABET.chars().collect();
    let mut chars: Vec<char> = text.chars().collect();
    for _ in 0..=draws.below(3) {
        let at = draws.below(chars.len() + 1);
        let c = *draws.pick(&alphabet);
        match draws.below(3) {
            0 => chars.insert(at, c),
            _ if at == chars.len() => chars.push(c),
            1 => drop(chars.remove(at)),
            _ => chars[at] = c,
        }
    }
    chars.into_iter().collect()
}

#[test]
fn mangled_shorthands_parse_and_resolve_or_fail_typed() {
    d_hetpnoc_repro::install_architectures();
    let mut draws = Draws(0x5eed_0f5c_e4a2_2000);
    let (mut resolved, mut rejected) = (0, 0);
    for _ in 0..MANGLED {
        let shorthand = SHORTHANDS[draws.below(SHORTHANDS.len())];
        let text = mangle(shorthand, &mut draws);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            ScenarioSpec::parse_shorthand(&text).and_then(|spec| spec.resolve().map(drop))
        }));
        match outcome {
            Ok(Ok(())) => resolved += 1,
            Ok(Err(_)) => rejected += 1,
            Err(_) => panic!("parse or resolve panicked on {text:?}"),
        }
    }
    // About one mangle in a hundred still resolves (an edit inside a number
    // or a fault time), so both outcomes are visited.
    assert!(
        resolved > MANGLED / 200 && rejected > MANGLED / 2,
        "{resolved} resolved, {rejected} rejected of {MANGLED}"
    );
}
