//! The `repro` binary's command-line contracts that only a real process can
//! show: the listing flags, the cache-maintenance flags against an on-disk
//! store, the exit code + message of an unknown registry name, and the
//! experiments running as one (cacheable) batch.

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
}

#[test]
fn unknown_architecture_exits_2_with_a_suggestion() {
    let output = repro(&["--scenario", "d-hetpnok:uniform"]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8(output.stderr).expect("stderr is UTF-8");
    assert!(
        stderr.contains(
            "unknown architecture 'd-hetpnok'; registered: \
             [d-hetpnoc, firefly, hier, uniform-fabric] — did you mean 'd-hetpnoc'?"
        ),
        "{stderr}"
    );
}

#[test]
fn declined_hier_specs_exit_2_before_simulating() {
    for (args, expected) in [
        (
            &[
                "--quick",
                "--arch",
                "hier{pods=2}",
                "--workload",
                "allreduce:8",
                "--faults",
                "single-link",
            ][..],
            "architecture 'hier' does not support fault injection",
        ),
        (
            &[
                "--quick",
                "--arch",
                "hier{leaf=firefly{radix=8}}",
                "--workload",
                "allreduce:8",
            ][..],
            "nested braces",
        ),
    ] {
        let output = repro(args);
        assert_eq!(output.status.code(), Some(2), "repro {args:?}: {output:?}");
        let stderr = String::from_utf8(output.stderr).expect("stderr is UTF-8");
        assert!(stderr.contains(expected), "repro {args:?}: {stderr}");
    }
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
