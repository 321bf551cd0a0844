//! On-chip silicon waveguides.
//!
//! Waveguides carry the DWDM optical signals between photonic routers
//! (thesis Section 2.1.5). They are fabricated in silicon-on-insulator with
//! deep-UV lithography \[17\]; light is confined by total internal reflection
//! between the high-index core and the cladding. The models here track the
//! propagation loss and wavelength capacity used by the loss budget and the
//! waveguide-count arithmetic of the area model.

use crate::dwdm::PAPER_WAVELENGTHS_PER_WAVEGUIDE;

/// Role a waveguide plays in the photonic fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaveguideRole {
    /// Carries data packets between photonic routers.
    Data,
    /// Carries reservation broadcasts (R-SWMR control).
    Reservation,
    /// Carries the DBA token of d-HetPNoC.
    Control,
}

/// An on-chip optical waveguide.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Waveguide {
    /// What the waveguide is used for.
    pub role: WaveguideRole,
    /// Physical length in milli-metres. For a 20 mm × 20 mm die, a serpentine
    /// crossbar waveguide visiting all 16 clusters is a few centimetres long.
    pub length_mm: f64,
    /// Propagation loss in dB per centimetre (≈ 1.5 dB/cm for SOI strip
    /// waveguides fabricated with DUV lithography \[17\]).
    pub propagation_loss_db_per_cm: f64,
    /// Maximum number of DWDM wavelengths the waveguide carries.
    pub max_wavelengths: usize,
}

impl Waveguide {
    /// A data waveguide with the paper's parameters (64 DWDM wavelengths,
    /// ~40 mm serpentine across the 20 mm × 20 mm die).
    #[must_use]
    pub fn paper_data() -> Self {
        Self {
            role: WaveguideRole::Data,
            length_mm: 40.0,
            propagation_loss_db_per_cm: 1.5,
            max_wavelengths: PAPER_WAVELENGTHS_PER_WAVEGUIDE,
        }
    }

    /// A reservation-broadcast waveguide.
    #[must_use]
    pub fn paper_reservation() -> Self {
        Self {
            role: WaveguideRole::Reservation,
            ..Self::paper_data()
        }
    }

    /// The d-HetPNoC token (control) waveguide, which uses maximum DWDM
    /// (Section 3.2.1: "circulated between the photonic routers using a
    /// separate control waveguide with maximum DWDM").
    #[must_use]
    pub fn paper_control() -> Self {
        Self {
            role: WaveguideRole::Control,
            ..Self::paper_data()
        }
    }

    /// Propagation loss over the full waveguide length, in dB.
    #[must_use]
    pub fn propagation_loss_db(&self) -> f64 {
        self.propagation_loss_db_per_cm * self.length_mm / 10.0
    }

    /// Propagation loss over a partial traversal, in dB.
    ///
    /// # Panics
    ///
    /// Panics if `distance_mm` is negative or exceeds the waveguide length.
    #[must_use]
    pub fn partial_loss_db(&self, distance_mm: f64) -> f64 {
        assert!(
            (0.0..=self.length_mm).contains(&distance_mm),
            "distance outside waveguide"
        );
        self.propagation_loss_db_per_cm * distance_mm / 10.0
    }

    /// Aggregate bandwidth in Gb/s given a per-wavelength line rate.
    #[must_use]
    pub fn aggregate_bandwidth_gbps(&self, line_rate_gbps: f64) -> f64 {
        self.max_wavelengths as f64 * line_rate_gbps
    }

    /// Time for light to traverse the waveguide, in pico-seconds
    /// (group velocity ≈ c / n_g).
    #[must_use]
    pub fn traversal_time_ps(&self) -> f64 {
        use crate::units::{SILICON_GROUP_INDEX, SPEED_OF_LIGHT_M_PER_S};
        let length_m = self.length_mm * 1e-3;
        length_m * SILICON_GROUP_INDEX / SPEED_OF_LIGHT_M_PER_S * 1e12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn propagation_loss_scales_with_length() {
        let wg = Waveguide::paper_data();
        // 40 mm = 4 cm at 1.5 dB/cm = 6 dB.
        assert!((wg.propagation_loss_db() - 6.0).abs() < 1e-9);
        assert!((wg.partial_loss_db(20.0) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn aggregate_bandwidth_matches_paper() {
        let wg = Waveguide::paper_data();
        // 64 wavelengths at 12.5 Gb/s = 800 Gb/s, the figure the paper uses
        // for reservation-flit timing (Section 3.4.1.1).
        assert!((wg.aggregate_bandwidth_gbps(12.5) - 800.0).abs() < 1e-9);
    }

    #[test]
    fn light_crosses_the_die_well_within_a_clock_cycle() {
        let wg = Waveguide::paper_data();
        // 40 mm of silicon waveguide ≈ 460 ps — about one 400 ps clock cycle,
        // which is why the paper charges a single cycle for photonic
        // traversal.
        let t = wg.traversal_time_ps();
        assert!(t > 300.0 && t < 600.0, "traversal {t} ps");
    }

    #[test]
    fn roles_are_preserved() {
        assert_eq!(Waveguide::paper_control().role, WaveguideRole::Control);
        assert_eq!(
            Waveguide::paper_reservation().role,
            WaveguideRole::Reservation
        );
    }

    #[test]
    #[should_panic(expected = "outside waveguide")]
    fn partial_loss_rejects_out_of_range() {
        let _ = Waveguide::paper_data().partial_loss_db(100.0);
    }
}
