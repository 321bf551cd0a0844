//! One module per table / figure of the paper's evaluation, and the one
//! entry point that runs them.
//!
//! The simulated figures (3-3 … 3-5, 3-7 … 3-10) are three readings of one
//! grid — Firefly vs d-HetPNoC × traffic × bandwidth set — so each figure
//! module only *describes* its cells (`specs(effort)`) and *reads* its report
//! out of a finished batch (`report(&MatrixResult, effort)`). [`run`] unions
//! the cells of the named experiments, simulates every distinct cell once in
//! a single (optionally cached) batch, and renders the views. The analytic
//! modules (`fig1_1`, `tables`, `fig3_6`, `overheads`) simulate nothing and
//! keep a plain `run()`.

pub mod fig1_1;
pub mod fig3_3_3_4;
pub mod fig3_5;
pub mod fig3_6;
pub mod fig3_7_3_10;
pub mod overheads;
pub mod tables;

use crate::runner::ensure_registered;
use pnoc_sim::report::Table;
use pnoc_sim::scenario::{run_specs_with_cache, Effort, MatrixResult, PointCache, ScenarioSpec};
use pnoc_store::Json;

/// The output of one experiment: a set of tables plus free-form notes
/// comparing the measured shape against the paper's reported shape.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExperimentReport {
    /// Short identifier ("fig3_3", "tables", ...).
    pub id: String,
    /// Human readable title.
    pub title: String,
    /// The regenerated tables / series.
    pub tables: Vec<Table>,
    /// Observations (e.g. measured gain vs the paper's reported gain).
    pub notes: Vec<String>,
}

impl ExperimentReport {
    /// Creates an empty report.
    #[must_use]
    pub fn new(id: &str, title: &str) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            ..Self::default()
        }
    }

    /// Renders the full report as plain text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "################ {} — {} ################\n",
            self.id, self.title
        );
        for table in &self.tables {
            out.push_str(&table.render());
            out.push('\n');
        }
        if !self.notes.is_empty() {
            out.push_str("Notes:\n");
            for note in &self.notes {
                out.push_str("  * ");
                out.push_str(note);
                out.push('\n');
            }
        }
        out
    }

    /// JSON representation of the report.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let strings = |items: &[String]| Json::Arr(items.iter().map(Json::str).collect());
        let table_json = |table: &Table| {
            Json::obj(vec![
                ("title", Json::str(table.title())),
                ("header", strings(table.header())),
                (
                    "rows",
                    Json::Arr(table.rows().iter().map(|row| strings(row)).collect()),
                ),
            ])
        };
        Json::obj(vec![
            ("id", Json::str(&self.id)),
            ("title", Json::str(&self.title)),
            (
                "tables",
                Json::Arr(self.tables.iter().map(table_json).collect()),
            ),
            ("notes", strings(&self.notes)),
        ])
    }
}

/// JSON representation of a batch of experiment reports (what
/// `repro --json` writes).
#[must_use]
pub fn reports_json(reports: &[ExperimentReport]) -> Json {
    Json::Arr(reports.iter().map(ExperimentReport::to_json).collect())
}

/// Names of all experiments, in the order they appear in the paper.
pub const ALL_EXPERIMENTS: [&str; 7] = [
    "fig1_1",
    "tables",
    "fig3_3_3_4",
    "fig3_5",
    "fig3_6",
    "fig3_7_3_10",
    "overheads",
];

/// The paper's comparison pair, by registry name: the Firefly baseline
/// first, d-HetPNoC second.
pub const COMPARISON_PAIR: [&str; 2] = ["firefly", "d-hetpnoc"];

/// The cells an experiment needs simulated.
type Cells = fn(Effort) -> Vec<ScenarioSpec>;
/// The view that reads an experiment's report out of the finished batch.
type View = fn(&MatrixResult, Effort) -> ExperimentReport;

/// The two halves of one experiment. Analytic experiments have no cells and
/// a view that ignores the batch.
fn experiment(name: &str) -> (Cells, View) {
    let none: Cells = |_| Vec::new();
    match name {
        "fig1_1" => (none, |_, _| fig1_1::run()),
        "tables" => (none, |_, _| tables::run()),
        "fig3_3_3_4" => (fig3_3_3_4::specs, |batch, _| fig3_3_3_4::report(batch)),
        "fig3_5" => (fig3_5::specs, fig3_5::report),
        "fig3_6" => (none, |_, _| fig3_6::run()),
        "fig3_7_3_10" => (fig3_7_3_10::specs, fig3_7_3_10::report),
        "overheads" => (none, |_, _| overheads::run()),
        other => panic!("unknown experiment '{other}'; valid names: {ALL_EXPERIMENTS:?}"),
    }
}

/// Runs the named experiments as **one batch**: the scenario cells of every
/// named figure are unioned (an identical cell is listed once), simulated in
/// a single deduplicated [`run_specs_with_cache`] call — served from and
/// stored to `cache` when one is given — and each experiment's report is then
/// read out of that batch. Reports come back in `names` order, next to the
/// batch they were read from (empty when only analytic experiments were
/// named).
///
/// # Panics
///
/// Panics if a name is unknown (the `repro` binary validates names first).
#[must_use]
pub fn run(
    names: &[&str],
    effort: Effort,
    cache: Option<&dyn PointCache>,
) -> (Vec<ExperimentReport>, MatrixResult) {
    ensure_registered();
    let experiments: Vec<(Cells, View)> = names.iter().map(|name| experiment(name)).collect();
    let mut specs: Vec<ScenarioSpec> = Vec::new();
    for (cells, _) in &experiments {
        for spec in cells(effort) {
            if !specs.contains(&spec) {
                specs.push(spec);
            }
        }
    }
    let batch = run_specs_with_cache(&specs, cache).unwrap_or_else(|error| panic!("{error}"));
    let reports = experiments
        .iter()
        .map(|(_, view)| view(&batch, effort))
        .collect();
    (reports, batch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_rendering_includes_tables_and_notes() {
        let mut report = ExperimentReport::new("x", "demo");
        let mut t = Table::new("t", &["a"]);
        t.add_row(&["1".to_string()]);
        report.tables.push(t);
        report.notes.push("note".to_string());
        let text = report.render();
        assert!(text.contains("demo"));
        assert!(text.contains("| 1 |"));
        assert!(text.contains("* note"));
    }

    #[test]
    fn report_round_trips_structure() {
        let mut report = ExperimentReport::new("x", "demo");
        let mut table = Table::new("t", &["a", "b"]);
        table.add_row(&["1".to_string(), "2".to_string()]);
        report.tables.push(table);
        report.notes.push("note".to_string());
        let text = reports_json(&[report]).render();
        assert!(text.contains("\"id\": \"x\""));
        assert!(text.contains("\"header\": [\n"));
        assert!(text.contains("\"note\""));
    }

    #[test]
    fn analytic_experiments_run_by_name() {
        let names = ["fig1_1", "tables", "fig3_6", "overheads"];
        let (reports, batch) = run(&names, Effort::Quick, None);
        assert!(
            batch.scenarios.is_empty(),
            "analytic experiments simulate nothing"
        );
        assert_eq!(reports.len(), names.len());
        for (report, name) in reports.iter().zip(names) {
            assert_eq!(report.id, name);
            assert!(!report.tables.is_empty(), "{name} produced no tables");
        }
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_experiment_panics() {
        let _ = run(&["fig9_9"], Effort::Quick, None);
    }
}
