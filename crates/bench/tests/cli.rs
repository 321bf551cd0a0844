//! The `repro` binary's command-line contracts that only a real process can
//! show: the listing flags, the cache-maintenance flags against an on-disk
//! store, the exit code + message of an unknown registry name or of a flag
//! whose work would never run, and the experiments running as one
//! (cacheable) batch.

use pnoc_bench::scenario_io::parse_scenarios;
use pnoc_sim::scenario::{Effort, ScenarioSpec};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

/// `(stdout, stderr)` of an invocation that must succeed (`[repro]` notes go
/// to stderr).
fn run_ok(args: &[&str]) -> (String, String) {
    let output = repro(args);
    assert!(output.status.success(), "repro {args:?} failed: {output:?}");
    let text = |bytes| String::from_utf8(bytes).expect("output is UTF-8");
    (text(output.stdout), text(output.stderr))
}

fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("directory lists")
        .map(|entry| entry.expect("entry reads").file_name())
        .map(|name| name.to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn listings_render_the_live_catalogues() {
    assert!(run_ok(&["--describe-arch", "hier"])
        .0
        .contains("nested leaf fabrics"));
    assert!(run_ok(&["--list-architectures"])
        .0
        .contains("hier (7 parameters)"));
    assert!(run_ok(&["--list-faults"]).0.contains("single-link"));
    assert_eq!(
        run_ok(&["--list-traffic"]).0,
        "bit-reverse\nbursty-uniform\nhotspot-10pct-skewed-2\nhotspot-10pct-skewed-3\n\
         hotspot-20pct-skewed-2\nhotspot-20pct-skewed-3\nreal-application\n\
         skewed-1\nskewed-2\nskewed-3\ntornado\ntranspose\nuniform-random\n"
    );
    assert_eq!(
        run_ok(&["--list-workloads"]).0,
        "all-to-all\nincast\nparameter-server\nring-allreduce\ntree-allreduce\n"
    );
}

/// `repro ARGS` must exit 2 before doing any work, naming `expected` on
/// stderr.
fn assert_rejected(args: &[&str], expected: &str) {
    let output = repro(args);
    assert_eq!(output.status.code(), Some(2), "repro {args:?}: {output:?}");
    let stderr = String::from_utf8(output.stderr).expect("stderr is UTF-8");
    assert!(stderr.contains(expected), "repro {args:?}: {stderr}");
}

#[test]
fn unknown_architecture_exits_2_with_a_suggestion() {
    assert_rejected(
        &["--scenario", "d-hetpnok:uniform"],
        "unknown architecture 'd-hetpnok'; registered: \
         [d-hetpnoc, firefly, hier, uniform-fabric] — did you mean 'd-hetpnoc'?",
    );
}

#[test]
fn a_typo_of_a_shorthand_suggests_the_shorthand() {
    assert_rejected(
        &["--workload", "alreduce:8"],
        "unknown workload 'alreduce'; registered: [all-to-all, incast, parameter-server, \
         ring-allreduce, tree-allreduce] — did you mean 'allreduce'?",
    );
    assert_rejected(
        &["--scenario", "firefly:unifrm"],
        "tornado, transpose, uniform-random] — did you mean 'uniform'?",
    );
    // A canonical name one edit away still wins over a shorthand.
    assert_rejected(
        &["--workload", "ring-alreduce:8"],
        "did you mean 'ring-allreduce'?",
    );
}

#[test]
fn describe_arch_errors_exit_2_with_the_registry_message() {
    assert_rejected(
        &["--describe-arch", "uniform-fabric{wavelengths=100000}"],
        "0..=4096",
    );
    assert_rejected(&["--describe-arch", "nope"], "unknown architecture 'nope'");
}

#[test]
fn declined_hier_specs_exit_2_before_simulating() {
    assert_rejected(
        &[
            "--quick",
            "--arch",
            "hier{pods=2}",
            "--workload",
            "allreduce:8",
            "--faults",
            "single-link",
        ],
        "architecture 'hier' does not support fault injection",
    );
    assert_rejected(
        &[
            "--quick",
            "--arch",
            "hier{leaf=firefly{radix=8}}",
            "--workload",
            "allreduce:8",
        ],
        "nested braces",
    );
}

#[test]
fn real_application_on_a_multi_pod_hierarchy_exits_2() {
    // The paper's mapping fits 16 clusters; four pods simulate 64.
    assert_rejected(
        &["--scenario", "hier{pods=4}:real-application:1:smoke"],
        "cannot run traffic pattern 'real-application' on its topology",
    );
}

#[test]
fn batch_output_flags_need_a_scenario_batch_that_runs() {
    let dir = scratch_dir("batch-flags");
    let file = |name: &str| dir.join(name).to_str().expect("UTF-8").to_string();
    assert_rejected(
        &["--quick", "--batch-json", &file("bj.json"), "fig3_6"],
        "--batch-json needs a scenario batch",
    );
    assert!(!dir.join("bj.json").exists(), "nothing ran");
    assert_rejected(
        &["--quick", "--percentiles", "fig3_6"],
        "--percentiles needs a scenario batch",
    );
    // Dumping the batch runs nothing either.
    assert_rejected(
        &[
            "--scenario",
            "uniform-fabric:uniform",
            "--metrics",
            &file("m.jsonl"),
            "--dump-scenarios",
            &file("d.json"),
        ],
        "--metrics needs a scenario batch",
    );
    // Nor does a scenario file that holds no scenarios.
    std::fs::write(dir.join("empty.json"), "[]").expect("scratch file writes");
    assert_rejected(
        &["--quick", "--from-scenarios", &file("empty.json")],
        "holds no scenarios",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_requests_needs_serve() {
    assert_rejected(
        &["--quick", "--serve-requests", "1", "fig3_6"],
        "--serve-requests needs --serve",
    );
}

#[test]
fn cache_dir_holds_only_entries_and_maintenance_flags_count_them() {
    let dir: PathBuf = std::env::temp_dir().join(format!("pnoc-cli-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("temp path is UTF-8");

    let scenario = "uniform-fabric:uniform";
    run_ok(&["--quick", "--scenario", scenario, "--cache-dir", dir_arg]);
    // The entry files are the whole store: nothing else may appear.
    assert_eq!(file_names(&dir), ["entries"]);
    let entries = file_names(&dir.join("entries"));
    assert!(entries.len() > 1, "a quick ladder has several points");

    // One entry deleted behind the store's back: compaction counts the rest.
    std::fs::remove_file(dir.join("entries").join(&entries[0])).expect("entry deletes");
    let live = entries.len() - 1;
    let (_, compacted) = run_ok(&["--cache-dir", dir_arg, "--cache-compact"]);
    assert!(
        compacted.contains(&format!("cache compacted: {live} live entr")),
        "{compacted}"
    );
    assert_eq!(file_names(&dir.join("entries")).len(), live);

    // LRU eviction to a 1-byte budget clears every entry.
    run_ok(&["--cache-dir", dir_arg, "--cache-max-bytes", "1"]);
    assert_eq!(file_names(&dir), ["entries"]);
    assert!(file_names(&dir.join("entries")).is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fresh scratch directory under the system temp dir, named per test.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pnoc-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory creates");
    dir
}

/// Runs `repro ARGS --dump-scenarios FILE` and returns the specs it wrote.
fn dump(args: &[&str], file: &Path) -> Vec<ScenarioSpec> {
    run_ok(&[args, &["--dump-scenarios", file.to_str().expect("UTF-8")]].concat());
    let text = std::fs::read_to_string(file).expect("the dump was written");
    parse_scenarios(&text).expect("the dump parses")
}

#[test]
fn cache_maintenance_still_writes_the_requested_files() {
    let dir = scratch_dir("maintenance");
    let cache = dir.join("cache");
    let maintain = [
        "--quick",
        "--cache-dir",
        cache.to_str().expect("UTF-8"),
        "--cache-compact",
    ];
    assert_eq!(
        dump(&maintain, &dir.join("d.json")).len(),
        24,
        "the default matrix"
    );
    let report = dir.join("r.json");
    run_ok(&[&maintain[..], &["--json", report.to_str().expect("UTF-8")]].concat());
    let text = std::fs::read_to_string(&report).expect("the report was written");
    assert!(text.contains("\"fig3_3_3_4\""), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `repro ARGS --dump-scenarios FILE` must exit 2 naming `expected`, and
/// write no file.
fn assert_not_dumped(name: &str, args: &[&str], expected: &str) {
    let dir = scratch_dir(name);
    let file = dir.join("d.json");
    let dump = ["--dump-scenarios", file.to_str().expect("UTF-8")];
    assert_rejected(&[args, &dump].concat(), expected);
    assert!(!file.exists(), "repro {args:?} wrote {file:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unknown_architecture_is_not_dumped() {
    assert_not_dumped(
        "dump-arch",
        &["--scenario", "nope:skewed-3"],
        "unknown architecture 'nope'",
    );
}

#[test]
fn an_empty_workload_is_not_dumped() {
    assert_not_dumped(
        "dump-workload",
        &["--workload", "incast:0"],
        "workload size in 'incast:0' must be positive",
    );
}

#[test]
fn the_effort_flag_reaches_a_shorthand_whose_fault_plan_has_colons() {
    let dir = scratch_dir("effort");
    for plan in [
        "link-fail@c150:sw1",
        "link-fail@c150:sw1,laser-dim@c200:fabric/2",
    ] {
        let scenario = format!("firefly:tornado#faults={plan}");
        let specs = dump(&["--paper", "--scenario", &scenario], &dir.join("a.json"));
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].effort, Effort::Paper, "{scenario}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn named_figures_share_one_batch() {
    // Figures 3-7 … 3-10 re-read cells of Figures 3-3/3-4: naming both
    // simulates the 24-cell grid once.
    let (_, stderr) = run_ok(&["--quick", "fig3_3_3_4", "fig3_7_3_10"]);
    assert!(
        stderr.contains("batch: 24 scenario(s), 72 point(s) (72 unique after dedup)"),
        "{stderr}"
    );
}

#[test]
fn cache_dir_reaches_the_experiments() {
    let dir: PathBuf = std::env::temp_dir().join(format!("pnoc-cli-figs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("temp path is UTF-8");
    let args = ["--quick", "fig3_5", "--cache-dir", dir_arg];
    let (cold_stdout, cold_stderr) = run_ok(&args);
    assert!(
        cold_stderr.contains("cache: 0 hit(s), 30 miss(es), 30 stored"),
        "{cold_stderr}"
    );
    // 10 cells × 3 quick ladder points, one entry each.
    assert_eq!(file_names(&dir.join("entries")).len(), 30);
    let (warm_stdout, warm_stderr) = run_ok(&args);
    assert!(
        warm_stderr.contains("cache: 30 hit(s), 0 miss(es), 0 stored"),
        "{warm_stderr}"
    );
    assert_eq!(warm_stdout, cold_stdout);
    let _ = std::fs::remove_dir_all(&dir);
}
