//! Figure 3-6 — total electro-optic device area of d-HetPNoC and Firefly as
//! the aggregate bandwidth requirement grows.
//!
//! Analytic (equations 5–24); the published anchors are 1.608 mm² vs
//! 1.367 mm² at 64 data wavelengths, with the d-HetPNoC overhead growing as
//! the number of data waveguides grows.

use crate::experiments::ExperimentReport;
use pnoc_photonics::area::AreaModel;
use pnoc_sim::report::{fmt_f, Table};

/// Wavelength counts swept by the figure.
pub(crate) const WAVELENGTH_SWEEP: [usize; 5] = [64, 128, 256, 384, 512];

/// Regenerates the Figure 3-6 series.
#[must_use]
pub fn run() -> ExperimentReport {
    let model = AreaModel::paper_default();
    let mut report = ExperimentReport::new(
        "fig3_6",
        "Total modulator/demodulator area vs aggregate bandwidth (Figure 3-6)",
    );
    let mut table = Table::new(
        "Figure 3-6: electro-optic device area (mm²)",
        &[
            "total data wavelengths",
            "data waveguides",
            "Firefly area",
            "d-HetPNoC area",
            "overhead",
        ],
    );
    for wavelengths in WAVELENGTH_SWEEP {
        let firefly = model.firefly_report(wavelengths);
        let dhet = model.dynamic_report(wavelengths);
        table.add_row(&[
            wavelengths.to_string(),
            dhet.data_waveguides.to_string(),
            fmt_f(firefly.area_mm2, 3),
            fmt_f(dhet.area_mm2, 3),
            format!(
                "{}%",
                fmt_f(
                    (dhet.area_mm2 - firefly.area_mm2) / firefly.area_mm2 * 100.0,
                    1
                )
            ),
        ]);
    }
    report.tables.push(table);
    let d64 = model.dynamic_report(64).area_mm2;
    let f64_ = model.firefly_report(64).area_mm2;
    report.notes.push(format!(
        "at 64 data wavelengths: d-HetPNoC {:.3} mm² vs Firefly {:.3} mm² (paper: 1.608 vs 1.367 mm²)",
        d64, f64_
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_table_reproduces_the_paper_anchors() {
        let report = run();
        assert_eq!(report.tables[0].num_rows(), WAVELENGTH_SWEEP.len());
        assert!(report.notes[0].contains("1.608"));
        let rendered = report.render();
        assert!(rendered.contains("1.608"));
        assert!(rendered.contains("1.367"));
    }
}
