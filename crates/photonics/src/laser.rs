//! Multi-wavelength laser sources.
//!
//! The PNoC needs a multi-wavelength light source (thesis Section 2.1.4).
//! The paper assumes heterogeneously-integrated on-chip sources, citing Heck
//! and Bowers \[16\] for energy-efficiency and energy-proportionality, and uses
//! 1.5 mW of laser power per wavelength (Table 3-4, after Preston et al.
//! \[30\]). The launch energy of Table 3-5 (0.15 pJ/bit) is the per-bit cost of
//! that optical power plus coupling overheads at the 12.5 Gb/s line rate.

use crate::units::{gbps_to_bps, mw_to_w, power_to_energy_per_bit_pj};

/// Placement of the laser source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaserPlacement {
    /// Off-chip comb laser coupled through fibre.
    OffChip,
    /// On-chip distributed-feedback laser array (the paper's assumption).
    OnChip,
}

/// A multi-wavelength laser source feeding the photonic fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaserSource {
    /// Where the laser lives.
    pub placement: LaserPlacement,
    /// Number of wavelengths generated.
    pub num_wavelengths: usize,
    /// Electrical power per wavelength in milli-watts (1.5 in the paper).
    pub power_per_wavelength_mw: f64,
    /// Line rate each wavelength is modulated at, Gb/s.
    pub line_rate_gbps: f64,
    /// Whether the source is energy-proportional (can gate unused
    /// wavelengths), as argued for on-chip sources in \[16\].
    pub energy_proportional: bool,
}

impl LaserSource {
    /// The on-chip source assumed by the paper, sized for `num_wavelengths`.
    #[must_use]
    pub fn paper_default(num_wavelengths: usize) -> Self {
        Self {
            placement: LaserPlacement::OnChip,
            num_wavelengths,
            power_per_wavelength_mw: 1.5,
            line_rate_gbps: 12.5,
            energy_proportional: true,
        }
    }

    /// Total laser power in milli-watts when `active_wavelengths` are in use.
    /// A non-energy-proportional source burns full power regardless.
    #[must_use]
    pub fn power_mw(&self, active_wavelengths: usize) -> f64 {
        let counted = if self.energy_proportional {
            active_wavelengths.min(self.num_wavelengths)
        } else {
            self.num_wavelengths
        };
        counted as f64 * self.power_per_wavelength_mw
    }

    /// Laser energy per transmitted bit in pico-joules, assuming the
    /// wavelength is fully utilised at the line rate.
    #[must_use]
    pub fn energy_pj_per_bit(&self) -> f64 {
        power_to_energy_per_bit_pj(
            mw_to_w(self.power_per_wavelength_mw),
            gbps_to_bps(self.line_rate_gbps),
        )
    }

    /// Aggregate optical bandwidth of the source in Gb/s.
    #[must_use]
    pub fn aggregate_bandwidth_gbps(&self) -> f64 {
        self.num_wavelengths as f64 * self.line_rate_gbps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_scales_with_wavelengths() {
        let laser = LaserSource::paper_default(64);
        assert!((laser.power_mw(64) - 96.0).abs() < 1e-9);
        assert!((laser.power_mw(10) - 15.0).abs() < 1e-9);
        // Active count beyond capacity is clamped.
        assert!((laser.power_mw(1000) - 96.0).abs() < 1e-9);
    }

    #[test]
    fn non_proportional_source_burns_full_power() {
        let mut laser = LaserSource::paper_default(32);
        laser.energy_proportional = false;
        assert!((laser.power_mw(1) - 48.0).abs() < 1e-9);
    }

    #[test]
    fn per_bit_energy_close_to_launch_figure() {
        // 1.5 mW / 12.5 Gb/s = 0.12 pJ/bit, within the 0.15 pJ/bit launch
        // energy of Table 3-5 (which also includes coupling overheads).
        let laser = LaserSource::paper_default(64);
        let e = laser.energy_pj_per_bit();
        assert!((e - 0.12).abs() < 1e-9);
        assert!(e <= 0.15);
    }

    #[test]
    fn aggregate_bandwidth_of_paper_sets() {
        assert!((LaserSource::paper_default(64).aggregate_bandwidth_gbps() - 800.0).abs() < 1e-9);
        assert!((LaserSource::paper_default(512).aggregate_bandwidth_gbps() - 6400.0).abs() < 1e-9);
    }
}
