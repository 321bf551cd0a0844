//! The paper's numbers, pinned: every experiment (`fig1_1`, `tables`,
//! `fig3_3_3_4`, `fig3_5`, `fig3_6`, `fig3_7_3_10`, `overheads` — the ids
//! carry the figure numbers) rendered at smoke effort must equal its golden
//! under `tests/golden/`, so an engine change that shifts science fails
//! tier-1. The goldens were rendered by the per-figure runners that preceded
//! the one-batch flow; they are not regenerated by any switch — a deliberate
//! change replaces the file with the actual text this test writes out.

use pnoc_bench::experiments::{self, ALL_EXPERIMENTS};
use pnoc_sim::scenario::Effort;
use std::path::Path;

#[test]
fn every_experiment_renders_its_golden_from_one_batch() {
    let (reports, batch) = experiments::run(&ALL_EXPERIMENTS, Effort::Smoke, None);

    // The whole evaluation is one grid: 24 cells of Figures 3-3/3-4 (which
    // contain all of Figures 3-7 … 3-10) plus the 10 case-study cells of
    // Figure 3-5, none simulated twice.
    assert_eq!(batch.scenarios.len(), 34);
    assert_eq!(batch.total_points, batch.unique_points);

    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let actual_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("paper_figures");
    let mut mismatches = Vec::new();
    for (report, name) in reports.iter().zip(ALL_EXPERIMENTS) {
        assert_eq!(report.id, name);
        let golden_path = golden_dir.join(format!("{name}.txt"));
        let golden = std::fs::read_to_string(&golden_path)
            .unwrap_or_else(|error| panic!("{}: {error}", golden_path.display()));
        let actual = report.render();
        if actual != golden {
            let actual_path = actual_dir.join(format!("{name}.txt"));
            std::fs::create_dir_all(&actual_dir).expect("target tmpdir is writable");
            std::fs::write(&actual_path, actual).expect("actual text writes");
            mismatches.push(format!(
                "{name}: expected {} but rendered {}",
                golden_path.display(),
                actual_path.display()
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
