//! Golden test pinning the canonical scenario-id renderings that key the
//! result cache (`pnoc_store::ResultStore`). These strings are **on-disk
//! contract**: a cache entry written today must still be found by tomorrow's
//! build, so any change here invalidates every existing cache and must be
//! deliberate (and called out in the changelog), not incidental.
//!
//! Covered per registered architecture: the default rendering (schema
//! defaults filled in), explicit parameter overrides (including a default
//! spelled out explicitly, which must collapse onto the default rendering),
//! and closed-loop workload payloads (whose `:` size separator is rewritten
//! to `@` to keep the id's `:` structure unambiguous).

use pnoc_bench::runner::ensure_registered;
use pnoc_sim::config::BandwidthSet;
use pnoc_sim::scenario::{Effort, ScenarioSpec};

/// Resolves a spec and returns the canonical id the cache keys on.
fn canonical(spec: ScenarioSpec) -> String {
    spec.resolve()
        .expect("golden specs must resolve")
        .canonical_id()
}

#[test]
fn every_registered_architecture_renders_a_pinned_default_id() {
    ensure_registered();
    let mut rendered: Vec<String> = pnoc_sim::registry::registered_architectures()
        .into_iter()
        .map(|name| {
            canonical(ScenarioSpec::new(&name, "uniform-random").with_effort(Effort::Quick))
        })
        .collect();
    rendered.sort();
    assert_eq!(
        rendered,
        [
            "d-hetpnoc{max_wavelengths=0,policy=proportional}:uniform-random:set1:quick",
            "firefly{radix=16,reservation_cycles=1}:uniform-random:set1:quick",
            "hier{epoch=0,leaf=d-hetpnoc,pods=4,spine=electrical,spine_bandwidth=0,\
             spine_latency=32,spine_oversub=1}:uniform-random:set1:quick",
            "uniform-fabric{wavelengths=0}:uniform-random:set1:quick",
        ],
        "canonical id rendering changed — this invalidates every existing result cache"
    );
}

#[test]
fn parameter_overrides_render_resolved_and_sorted() {
    ensure_registered();
    // Explicit non-default values appear in the rendering...
    assert_eq!(
        canonical(
            ScenarioSpec::new("firefly", "tornado")
                .with_arch_param("reservation_cycles", 2)
                .with_arch_param("radix", 8)
                .with_bandwidth_set(BandwidthSet::Set2)
                .with_effort(Effort::Paper)
        ),
        "firefly{radix=8,reservation_cycles=2}:tornado:set2:paper"
    );
    // ...while spelling out a default explicitly collapses onto the default
    // rendering: both specs hit the same cache entries.
    assert_eq!(
        canonical(
            ScenarioSpec::new("firefly", "uniform-random")
                .with_arch_param("radix", 16)
                .with_effort(Effort::Quick)
        ),
        canonical(ScenarioSpec::new("firefly", "uniform-random").with_effort(Effort::Quick)),
    );
}

#[test]
fn fault_plans_render_as_a_pinned_canonical_suffix() {
    ensure_registered();
    // A faulted scenario's id carries the *rendered* plan, never the preset
    // name, so a preset and its literal expansion share cache entries...
    let preset = canonical(
        ScenarioSpec::new("firefly", "uniform-random")
            .with_effort(Effort::Quick)
            .with_faults("single-link"),
    );
    assert_eq!(
        preset,
        "firefly{radix=16,reservation_cycles=1}:uniform-random:set1:quick#faults=link-fail@c150-450:sw1"
    );
    assert_eq!(
        preset,
        canonical(
            ScenarioSpec::new("firefly", "uniform-random")
                .with_effort(Effort::Quick)
                .with_faults("link-fail@c150-450:sw1")
        )
    );
    // ...while a healthy plan ('none' or absent) renders no suffix at all:
    // a faulted scenario can never be served a healthy cached point and
    // vice versa.
    assert_eq!(
        canonical(
            ScenarioSpec::new("firefly", "uniform-random")
                .with_effort(Effort::Quick)
                .with_faults("none")
        ),
        "firefly{radix=16,reservation_cycles=1}:uniform-random:set1:quick"
    );
    // Multi-event plans keep their validated order in the rendering.
    assert_eq!(
        canonical(
            ScenarioSpec::closed_loop("d-hetpnoc", "allreduce:8")
                .with_effort(Effort::Quick)
                .with_faults("ring-drift")
        ),
        "d-hetpnoc{max_wavelengths=0,policy=proportional}:ring-allreduce@8x16384B:set1:quick\
         #faults=ring-stuck@c100-500:sw0,wavelength-degrade@c200:class-high/2"
    );
}

#[test]
fn the_engine_fingerprint_is_pinned_and_keys_stale_caches_out() {
    // The fingerprint is the other half of every cache key: bumping the
    // workspace version (0.11.0 → 0.12.0 when faulted `uniform-fabric`
    // points stopped reading healthy; 0.12.0 → 0.13.0 when d-HetPNoC
    // targets above 65 wavelengths were reached before cycle 0 instead of
    // by the token ring during the run) must retire every older cache
    // entry, so a store written by a previous engine can never satisfy a
    // lookup.
    assert_eq!(
        pnoc_sim::scenario::engine_fingerprint(),
        "v0.13.0+event",
        "fingerprint changed — deliberate cache invalidation only"
    );
}

#[test]
fn a_spec_whose_results_changed_keeps_its_id_and_misses_older_caches() {
    ensure_registered();
    // Set 3 skewed-3 demand under a 512-wavelength cap gives targets above
    // 65 that 0.12.0 left short until the ring filled them, so this spec's
    // points simulate differently from 0.13.0 on. Its canonical id stays;
    // its keys change only in the fingerprint, so an older entry misses.
    let scenario = ScenarioSpec::new("d-hetpnoc{max_wavelengths=512}", "skewed-3")
        .with_bandwidth_set(BandwidthSet::Set3)
        .with_effort(Effort::Quick)
        .resolve()
        .unwrap();
    let id = scenario.canonical_id();
    assert_eq!(
        id,
        "d-hetpnoc{max_wavelengths=512,policy=proportional}:skewed-3:set3:quick"
    );
    let keys = scenario.point_keys(&pnoc_sim::scenario::engine_fingerprint());
    assert_eq!(
        keys[0],
        "d-hetpnoc{max_wavelengths=512,policy=proportional}:skewed-3:set3:quick\
         |seed=18260876482268130199|load=3f84000000000000|v0.13.0+event"
    );
    for key in &keys {
        let per_point = key
            .strip_prefix(id.as_str())
            .and_then(|rest| rest.strip_suffix("|v0.13.0+event"));
        assert!(per_point.is_some_and(|p| p.starts_with("|seed=")), "{key}");
    }
}

#[test]
fn workload_payloads_render_with_the_size_separator_rewritten() {
    ensure_registered();
    // The payload component is the *resolved* workload's self-description
    // (flavour and message size filled in), not the spec shorthand — two
    // shorthands naming the same workload share cache entries.
    assert_eq!(
        canonical(
            ScenarioSpec::closed_loop("d-hetpnoc", "allreduce:64").with_effort(Effort::Quick)
        ),
        "d-hetpnoc{max_wavelengths=0,policy=proportional}:ring-allreduce@64x16384B:set1:quick"
    );
    assert_eq!(
        canonical(ScenarioSpec::closed_loop("firefly", "incast:16").with_effort(Effort::Smoke)),
        "firefly{radix=16,reservation_cycles=1}:incast@16x16384B:set1:smoke"
    );
}
