//! Figures 3-3 and 3-4 — peak bandwidth and packet energy of Firefly vs
//! d-HetPNoC for uniform-random and skewed traffic at all three bandwidth
//! sets.
//!
//! The published shape to reproduce:
//!
//! * uniform-random traffic: both architectures perform the same (the
//!   d-HetPNoC allocation degenerates to the uniform Firefly allocation),
//! * with increasing skew, d-HetPNoC's peak bandwidth advantage grows (up to
//!   ≈ 7 % in the thesis) and its packet energy advantage grows (up to ≈ 5 %).

use crate::experiments::{ExperimentReport, COMPARISON_PAIR};
use crate::runner::{comparison_rows, ComparisonRow};
use pnoc_sim::config::BandwidthSet;
use pnoc_sim::report::{fmt_f, Table};
use pnoc_sim::scenario::{Effort, MatrixResult, ScenarioMatrix, ScenarioSpec};

/// The traffic scenarios of Figures 3-3 / 3-4 (uniform + three skews).
pub const TRAFFICS: [&str; 4] = ["uniform-random", "skewed-1", "skewed-2", "skewed-3"];

/// The cells of Figures 3-3 / 3-4: the comparison pair × [`TRAFFICS`] × all
/// three bandwidth sets.
#[must_use]
pub fn specs(effort: Effort) -> Vec<ScenarioSpec> {
    ScenarioMatrix::new()
        .architectures(COMPARISON_PAIR)
        .traffics(TRAFFICS)
        .all_bandwidth_sets()
        .effort(effort)
        .specs()
}

/// Reads the report out of a finished batch that contains [`specs`].
#[must_use]
pub fn report(batch: &MatrixResult) -> ExperimentReport {
    let [baseline, candidate] = COMPARISON_PAIR;
    let rows = comparison_rows(batch, baseline, candidate, &BandwidthSet::ALL, &TRAFFICS);
    let mut report = ExperimentReport::new(
        "fig3_3_3_4",
        "Peak bandwidth (Fig 3-3) and packet energy (Fig 3-4), Firefly vs d-HetPNoC",
    );
    let mut bw = Table::new(
        "Figure 3-3: peak aggregate bandwidth (Gb/s)",
        &[
            "bandwidth set",
            "traffic",
            "Firefly",
            "d-HetPNoC",
            "d-HetPNoC gain",
        ],
    );
    let mut energy = Table::new(
        "Figure 3-4: packet energy at saturation (pJ)",
        &[
            "bandwidth set",
            "traffic",
            "Firefly",
            "d-HetPNoC",
            "d-HetPNoC saving",
        ],
    );
    for row in &rows {
        bw.add_row(&[
            row.bandwidth_set.clone(),
            row.traffic.clone(),
            fmt_f(row.baseline_peak_gbps, 1),
            fmt_f(row.candidate_peak_gbps, 1),
            format!("{}%", fmt_f(row.bandwidth_gain_percent(), 2)),
        ]);
        energy.add_row(&[
            row.bandwidth_set.clone(),
            row.traffic.clone(),
            fmt_f(row.baseline_packet_energy_pj, 1),
            fmt_f(row.candidate_packet_energy_pj, 1),
            format!("{}%", fmt_f(row.energy_saving_percent(), 2)),
        ]);
    }
    report.tables.push(bw);
    report.tables.push(energy);

    // Shape checks against the paper.
    let uniform_gains: Vec<f64> = rows
        .iter()
        .filter(|r| r.traffic == "uniform-random")
        .map(ComparisonRow::bandwidth_gain_percent)
        .collect();
    let skew3_gains: Vec<f64> = rows
        .iter()
        .filter(|r| r.traffic == "skewed-3")
        .map(ComparisonRow::bandwidth_gain_percent)
        .collect();
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    report.notes.push(format!(
        "uniform-random: mean d-HetPNoC bandwidth gain {:.2}% (paper: ≈0.1%, architectures equivalent)",
        avg(&uniform_gains)
    ));
    report.notes.push(format!(
        "skewed-3: mean d-HetPNoC bandwidth gain {:.2}% (paper: up to ≈7%)",
        avg(&skew3_gains)
    ));
    let skew3_savings: Vec<f64> = rows
        .iter()
        .filter(|r| r.traffic == "skewed-3")
        .map(ComparisonRow::energy_saving_percent)
        .collect();
    report.notes.push(format!(
        "skewed-3: mean d-HetPNoC packet-energy saving {:.2}% (paper: up to ≈5%)",
        avg(&skew3_savings)
    ));
    report
}
