//! Figures 3-7 … 3-10 — the effect of growing the total number of
//! wavelengths (64 → 256 → 512) on peak bandwidth, energy per message and
//! area, for d-HetPNoC (Figures 3-7, 3-8, 3-9) and Firefly (Figure 3-10).
//!
//! The published shape: as the total wavelength count grows from 64 to 512,
//! peak bandwidth grows by roughly 7.5×–8.6× while packet energy drops by
//! ≈ 11 % and the d-HetPNoC device area grows by ≈ 70 %; d-HetPNoC stays
//! ahead of Firefly in bandwidth and below it in energy for skewed traffic.

use crate::experiments::{fig3_3_3_4, ExperimentReport, COMPARISON_PAIR};
use crate::runner::{architecture, cell};
use pnoc_photonics::area::AreaModel;
use pnoc_sim::config::BandwidthSet;
use pnoc_sim::registry::Provisioning;
use pnoc_sim::report::{fmt_f, Table};
use pnoc_sim::scenario::{Effort, MatrixResult, ScenarioMatrix, ScenarioSpec};

/// One scaling-point measurement for one architecture.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ScalingRow {
    /// Architecture label.
    pub architecture: String,
    /// Bandwidth set label.
    pub bandwidth_set: String,
    /// Traffic label.
    pub traffic: String,
    /// Peak aggregate bandwidth, Gb/s.
    pub peak_gbps: f64,
    /// Peak per-core bandwidth, Gb/s.
    pub peak_core_gbps: f64,
    /// Packet energy at saturation, pJ.
    pub packet_energy_pj: f64,
    /// Electro-optic device area of the architecture at this design point, mm².
    pub area_mm2: f64,
}

/// The traffic scenarios of the scaling figures: uniform + skewed as in
/// Figures 3-3 / 3-4 at paper effort, the two extremes below it.
fn traffics(effort: Effort) -> &'static [&'static str] {
    match effort {
        Effort::Paper => &fig3_3_3_4::TRAFFICS,
        Effort::Quick | Effort::Smoke => &["uniform-random", "skewed-3"],
    }
}

/// The cells of Figures 3-7 … 3-10: the comparison pair × the effort's
/// traffic scenarios × all three bandwidth sets — a subset of
/// [`fig3_3_3_4::specs`], so a batch holding both simulates them once.
#[must_use]
pub fn specs(effort: Effort) -> Vec<ScenarioSpec> {
    ScenarioMatrix::new()
        .architectures(COMPARISON_PAIR)
        .traffics(traffics(effort).iter().copied())
        .all_bandwidth_sets()
        .effort(effort)
        .specs()
}

/// Reads the scaling rows out of a finished batch that contains [`specs`].
#[must_use]
pub(crate) fn rows(batch: &MatrixResult, effort: Effort) -> Vec<ScalingRow> {
    let area_model = AreaModel::paper_default();
    let mut out = Vec::new();
    for name in COMPARISON_PAIR {
        let builder = architecture(name);
        for set in BandwidthSet::ALL {
            let config = effort.config(set);
            let area = match builder.provisioning() {
                Provisioning::Static => area_model.firefly_report(set.total_wavelengths()).area_mm2,
                Provisioning::Dynamic => {
                    area_model.dynamic_report(set.total_wavelengths()).area_mm2
                }
            };
            for &traffic in traffics(effort) {
                let sweep = &cell(batch, name, traffic, set).result;
                let peak = sweep.sustainable_bandwidth_gbps();
                out.push(ScalingRow {
                    architecture: builder.label(),
                    bandwidth_set: set.label().to_string(),
                    traffic: traffic.to_string(),
                    peak_gbps: peak,
                    peak_core_gbps: peak / config.topology.num_cores() as f64,
                    packet_energy_pj: sweep.packet_energy_at_saturation_pj(),
                    area_mm2: area,
                });
            }
        }
    }
    out
}

/// Builds the report from precomputed rows.
#[must_use]
pub(crate) fn report_from_rows(rows: &[ScalingRow]) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig3_7_3_10",
        "Scaling with total wavelengths: Figures 3-7 (d-HetPNoC), 3-8/3-9 (bandwidth & energy vs area) and 3-10 (Firefly)",
    );
    let mut table = Table::new(
        "Figures 3-7 / 3-10: peak core bandwidth and energy per message across bandwidth sets",
        &[
            "architecture",
            "bandwidth set",
            "traffic",
            "peak BW (Gb/s)",
            "peak core BW (Gb/s)",
            "EPM (pJ)",
            "area (mm²)",
        ],
    );
    for row in rows {
        table.add_row(&[
            row.architecture.clone(),
            row.bandwidth_set.clone(),
            row.traffic.clone(),
            fmt_f(row.peak_gbps, 1),
            fmt_f(row.peak_core_gbps, 2),
            fmt_f(row.packet_energy_pj, 1),
            fmt_f(row.area_mm2, 3),
        ]);
    }
    report.tables.push(table);

    // Figures 3-8 / 3-9: bandwidth & energy vs area for skewed-3, d-HetPNoC.
    let mut scaling = Table::new(
        "Figures 3-8 / 3-9: d-HetPNoC peak bandwidth, energy per message and area vs total wavelengths (skewed-3)",
        &["bandwidth set", "peak BW (Gb/s)", "EPM (pJ)", "area (mm²)"],
    );
    let dhet_skew3: Vec<&ScalingRow> = rows
        .iter()
        .filter(|r| r.architecture == "d-HetPNoC" && r.traffic == "skewed-3")
        .collect();
    for row in &dhet_skew3 {
        scaling.add_row(&[
            row.bandwidth_set.clone(),
            fmt_f(row.peak_gbps, 1),
            fmt_f(row.packet_energy_pj, 1),
            fmt_f(row.area_mm2, 3),
        ]);
    }
    report.tables.push(scaling);

    if dhet_skew3.len() >= 2 {
        let first = dhet_skew3.first().unwrap();
        let last = dhet_skew3.last().unwrap();
        if first.peak_gbps > 0.0 && first.area_mm2 > 0.0 && first.packet_energy_pj > 0.0 {
            report.notes.push(format!(
                "64 → 512 wavelengths (skewed-3, d-HetPNoC): peak bandwidth ×{:.2} (paper: ≈×8.5), \
                 packet energy {:+.1}% (paper: ≈-11%), area {:+.1}% (paper: ≈+70%)",
                last.peak_gbps / first.peak_gbps,
                (last.packet_energy_pj - first.packet_energy_pj) / first.packet_energy_pj * 100.0,
                (last.area_mm2 - first.area_mm2) / first.area_mm2 * 100.0,
            ));
        }
    }
    report
}

/// Reads the report out of a finished batch that contains [`specs`].
#[must_use]
pub fn report(batch: &MatrixResult, effort: Effort) -> ExperimentReport {
    report_from_rows(&rows(batch, effort))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_structure_from_synthetic_rows() {
        let rows = vec![
            ScalingRow {
                architecture: "d-HetPNoC".to_string(),
                bandwidth_set: "BW Set 1 (64 wavelengths)".to_string(),
                traffic: "skewed-3".to_string(),
                peak_gbps: 700.0,
                peak_core_gbps: 11.0,
                packet_energy_pj: 4000.0,
                area_mm2: 1.608,
            },
            ScalingRow {
                architecture: "d-HetPNoC".to_string(),
                bandwidth_set: "BW Set 3 (512 wavelengths)".to_string(),
                traffic: "skewed-3".to_string(),
                peak_gbps: 5600.0,
                peak_core_gbps: 88.0,
                packet_energy_pj: 3600.0,
                area_mm2: 2.73,
            },
        ];
        let report = report_from_rows(&rows);
        assert_eq!(report.tables.len(), 2);
        assert_eq!(report.tables[1].num_rows(), 2);
        assert!(report.notes[0].contains("64 → 512"));
        assert!(report.notes[0].contains("×8.00"));
    }
}
