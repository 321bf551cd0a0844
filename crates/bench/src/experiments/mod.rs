//! One module per table / figure of the paper's evaluation.

pub mod fig1_1;
pub mod fig3_3_3_4;
pub mod fig3_5;
pub mod fig3_6;
pub mod fig3_7_3_10;
pub mod overheads;
pub mod tables;

use crate::runner::EffortLevel;
use pnoc_sim::report::Table;

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

/// Runs an experiment by name.
///
/// # Panics
///
/// Panics if the name is unknown (the `repro` binary validates names first).
#[must_use]
pub fn run_by_name(name: &str, effort: EffortLevel) -> ExperimentReport {
    match name {
        "fig1_1" => fig1_1::run(),
        "tables" => tables::run(),
        "fig3_3_3_4" => fig3_3_3_4::run(effort),
        "fig3_5" => fig3_5::run(effort),
        "fig3_6" => fig3_6::run(),
        "fig3_7_3_10" => fig3_7_3_10::run(effort),
        "overheads" => overheads::run(),
        other => panic!("unknown experiment '{other}'; valid names: {ALL_EXPERIMENTS:?}"),
    }
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
    fn analytic_experiments_run_by_name() {
        for name in ["fig1_1", "tables", "fig3_6", "overheads"] {
            let report = run_by_name(name, EffortLevel::Quick);
            assert_eq!(report.id, name);
            assert!(!report.tables.is_empty(), "{name} produced no tables");
        }
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_experiment_panics() {
        let _ = run_by_name("fig9_9", EffortLevel::Quick);
    }
}
