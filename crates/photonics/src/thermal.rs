//! Thermal tuning of micro-ring resonances.
//!
//! Each MRR carries a local heater that shifts its resonance onto the
//! desired DWDM channel (thesis Section 2.1.1: "The resonant frequency of
//! each MRR can be changed by applying heat to them... We assume a single
//! heater element per MRR"). The paper budgets 2.4 mW of heater power per
//! nano-metre of resonance shift (Table 3-4, after Dong et al. \[28\]); over a
//! 12.5 Gb/s channel this contributes the 0.24 pJ/bit tuning energy of
//! Table 3-5 (corresponding to a 1.25 nm average shift).

use crate::units::{gbps_to_bps, mw_to_w, power_to_energy_per_bit_pj};

/// Thermal tuner (heater) attached to one micro-ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalTuner {
    /// Heater efficiency: milli-watts per nano-metre of resonance shift
    /// (2.4 mW/nm in the paper).
    pub mw_per_nm: f64,
    /// Current resonance shift being held, in nano-metres.
    pub shift_nm: f64,
    /// Line rate of the channel the ring serves, Gb/s (used to express the
    /// steady heater power as a per-bit energy).
    pub line_rate_gbps: f64,
}

impl ThermalTuner {
    /// The tuner assumed by the paper, holding the average shift that yields
    /// Table 3-5's 0.24 pJ/bit tuning energy at 12.5 Gb/s.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            mw_per_nm: 2.4,
            shift_nm: 1.25,
            line_rate_gbps: 12.5,
        }
    }

    /// Creates a tuner holding a given shift.
    ///
    /// # Panics
    ///
    /// Panics if the shift is negative.
    #[must_use]
    pub fn with_shift_nm(shift_nm: f64) -> Self {
        assert!(shift_nm >= 0.0, "resonance shift cannot be negative");
        Self {
            shift_nm,
            ..Self::paper_default()
        }
    }

    /// Heater power needed to hold the current shift, in milli-watts.
    #[must_use]
    pub fn power_mw(&self) -> f64 {
        self.mw_per_nm * self.shift_nm
    }

    /// Tuning energy per transmitted bit in pico-joules, assuming the channel
    /// runs at its line rate while the heater holds the shift.
    #[must_use]
    pub fn energy_pj_per_bit(&self) -> f64 {
        power_to_energy_per_bit_pj(mw_to_w(self.power_mw()), gbps_to_bps(self.line_rate_gbps))
    }

    /// Re-targets the tuner to a new shift, returning the change in steady
    /// heater power (mW, positive when more power is now needed).
    pub fn retune_nm(&mut self, new_shift_nm: f64) -> f64 {
        assert!(new_shift_nm >= 0.0, "resonance shift cannot be negative");
        let before = self.power_mw();
        self.shift_nm = new_shift_nm;
        self.power_mw() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table_3_5() {
        let t = ThermalTuner::paper_default();
        // 2.4 mW/nm × 1.25 nm = 3 mW; over 12.5 Gb/s that is 0.24 pJ/bit.
        assert!((t.power_mw() - 3.0).abs() < 1e-12);
        assert!((t.energy_pj_per_bit() - 0.24).abs() < 1e-12);
    }

    #[test]
    fn power_scales_with_shift() {
        let t = ThermalTuner::with_shift_nm(2.5);
        assert!((t.power_mw() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn retune_reports_power_delta() {
        let mut t = ThermalTuner::paper_default();
        let delta = t.retune_nm(2.0);
        assert!((delta - (4.8 - 3.0)).abs() < 1e-12);
        let delta_down = t.retune_nm(0.0);
        assert!((delta_down + 4.8).abs() < 1e-12);
        assert_eq!(t.power_mw(), 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot be negative")]
    fn negative_shift_rejected() {
        let _ = ThermalTuner::with_shift_nm(-1.0);
    }
}
