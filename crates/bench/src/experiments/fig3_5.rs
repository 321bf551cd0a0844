//! Figure 3-5 — peak core bandwidth and packet energy for the synthetic
//! hotspot-skewed case studies and the real-application (GPU + memory)
//! traffic, Firefly vs d-HetPNoC.
//!
//! The published shape: "In all the cases the peak bandwidth of the
//! d-HetPNoC is better than the Firefly architecture ... The same trend is
//! observed regardless of the actual percentage traffic with the hotspot."

use crate::experiments::{ExperimentReport, COMPARISON_PAIR};
use crate::runner::comparison_rows;
use pnoc_sim::config::BandwidthSet;
use pnoc_sim::report::{fmt_f, Table};
use pnoc_sim::scenario::{Effort, MatrixResult, ScenarioMatrix, ScenarioSpec};

/// The case studies of Figure 3-5 (four hotspot mixes + real application).
pub const TRAFFICS: [&str; 5] = [
    "hotspot-10pct-skewed-2",
    "hotspot-10pct-skewed-3",
    "hotspot-20pct-skewed-2",
    "hotspot-20pct-skewed-3",
    "real-application",
];

/// The cells of Figure 3-5: the comparison pair × [`TRAFFICS`], all at
/// bandwidth set 1 as in the thesis.
#[must_use]
pub fn specs(effort: Effort) -> Vec<ScenarioSpec> {
    ScenarioMatrix::new()
        .architectures(COMPARISON_PAIR)
        .traffics(TRAFFICS)
        .effort(effort)
        .specs()
}

/// Reads the report out of a finished batch that contains [`specs`].
#[must_use]
pub fn report(batch: &MatrixResult, effort: Effort) -> ExperimentReport {
    let [baseline, candidate] = COMPARISON_PAIR;
    let rows = comparison_rows(batch, baseline, candidate, &[BandwidthSet::Set1], &TRAFFICS);
    let num_cores = effort.config(BandwidthSet::Set1).topology.num_cores() as f64;
    let mut report = ExperimentReport::new(
        "fig3_5",
        "Case studies: hotspot-skewed and real-application traffic (Figure 3-5)",
    );
    let mut table = Table::new(
        "Figure 3-5: peak core bandwidth (Gb/s per core) and packet energy (pJ)",
        &[
            "traffic",
            "Firefly BW/core",
            "d-HetPNoC BW/core",
            "BW gain",
            "Firefly EPM",
            "d-HetPNoC EPM",
            "EPM saving",
        ],
    );
    for row in &rows {
        table.add_row(&[
            row.traffic.clone(),
            fmt_f(row.baseline_peak_gbps / num_cores, 2),
            fmt_f(row.candidate_peak_gbps / num_cores, 2),
            format!("{}%", fmt_f(row.bandwidth_gain_percent(), 2)),
            fmt_f(row.baseline_packet_energy_pj, 1),
            fmt_f(row.candidate_packet_energy_pj, 1),
            format!("{}%", fmt_f(row.energy_saving_percent(), 2)),
        ]);
    }
    report.tables.push(table);
    let wins = rows
        .iter()
        .filter(|r| r.candidate_peak_gbps >= r.baseline_peak_gbps * 0.995)
        .count();
    report.notes.push(format!(
        "d-HetPNoC matches or beats Firefly peak bandwidth in {}/{} case studies (paper: all cases)",
        wins,
        rows.len()
    ));
    report
}
