//! Germanium photo-detectors.
//!
//! The receive side of a photonic channel filters the target wavelength with
//! an MRR and converts it to a photo-current in a germanium p-i-n detector
//! (thesis Section 2.1.2). The detector output is amplified and compared to a
//! threshold to recover the bit. The thesis cites 40 Gb/s waveguide
//! integrated Ge detectors \[13\]\[19\] with responsivities up to 1.08 A/W \[14\].
//!
//! The reservation-assisted SWMR flow control (Section 3.3.1) relies on
//! detectors being switched on only for the duration of a packet; the
//! [`PhotoDetector::gate`] / [`PhotoDetector::ungate`] API models that and
//! tracks how long the detector was powered.

use crate::mrr::MicroRingResonator;
use crate::units::fj_to_pj;

/// A wavelength-selective germanium photo-detector (filter ring + Ge p-i-n).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhotoDetector {
    /// The drop-filter ring in front of the detector.
    pub ring: MicroRingResonator,
    /// Maximum detection rate in Gb/s.
    pub data_rate_gbps: f64,
    /// Responsivity in amperes per watt (1.08 A/W in \[14\], 0.74 A/W in \[18\]).
    pub responsivity_a_per_w: f64,
    /// Receiver energy per bit in femto-joules (demodulation side of the
    /// 40 fJ/bit modulator/demodulator figure of Table 3-4).
    pub energy_fj_per_bit: f64,
    /// Minimum detectable optical power in milli-watts.
    pub sensitivity_mw: f64,
    /// Whether the detector is currently powered (gated on).
    gated_on: bool,
    /// Cycles spent powered on, for idle-energy accounting.
    powered_cycles: u64,
}

impl PhotoDetector {
    /// The detector assumed by the paper's evaluation.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            ring: MicroRingResonator::paper_area_ring(),
            data_rate_gbps: 12.5,
            responsivity_a_per_w: 1.08,
            energy_fj_per_bit: 40.0,
            sensitivity_mw: 0.01,
            gated_on: false,
            powered_cycles: 0,
        }
    }

    /// Demodulation energy in pico-joules per bit.
    #[must_use]
    pub fn energy_pj_per_bit(&self) -> f64 {
        fj_to_pj(self.energy_fj_per_bit)
    }

    /// Photo-current produced by an incident optical power, in milli-amperes.
    #[must_use]
    pub fn photocurrent_ma(&self, optical_power_mw: f64) -> f64 {
        self.responsivity_a_per_w * optical_power_mw
    }

    /// Whether an incident power is strong enough to be detected as a `1`.
    #[must_use]
    pub fn detects(&self, optical_power_mw: f64) -> bool {
        optical_power_mw >= self.sensitivity_mw
    }

    /// Powers the detector on (done when a reservation flit names this
    /// detector's wavelength, Section 3.3.1).
    pub fn gate(&mut self) {
        self.gated_on = true;
    }

    /// Powers the detector off (done when the packet has been received).
    pub fn ungate(&mut self) {
        self.gated_on = false;
    }

    /// True while the detector is powered.
    #[must_use]
    pub fn is_gated_on(&self) -> bool {
        self.gated_on
    }

    /// Advances one clock cycle, accumulating powered time.
    pub fn tick(&mut self) {
        if self.gated_on {
            self.powered_cycles += 1;
        }
    }

    /// Cycles the detector has spent powered on.
    #[must_use]
    pub fn powered_cycles(&self) -> u64 {
        self.powered_cycles
    }
}

impl Default for PhotoDetector {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responsivity_produces_expected_current() {
        let d = PhotoDetector::paper_default();
        assert!((d.photocurrent_ma(1.0) - 1.08).abs() < 1e-12);
        assert!((d.photocurrent_ma(0.5) - 0.54).abs() < 1e-12);
    }

    #[test]
    fn detection_threshold() {
        let d = PhotoDetector::paper_default();
        assert!(d.detects(0.02));
        assert!(d.detects(0.01));
        assert!(!d.detects(0.001));
    }

    #[test]
    fn gating_tracks_powered_cycles() {
        let mut d = PhotoDetector::paper_default();
        for _ in 0..5 {
            d.tick();
        }
        assert_eq!(d.powered_cycles(), 0, "ungated detector consumes no time");
        d.gate();
        assert!(d.is_gated_on());
        for _ in 0..7 {
            d.tick();
        }
        d.ungate();
        for _ in 0..3 {
            d.tick();
        }
        assert_eq!(d.powered_cycles(), 7);
    }

    #[test]
    fn demodulation_energy_matches_table() {
        let d = PhotoDetector::paper_default();
        assert!((d.energy_pj_per_bit() - 0.04).abs() < 1e-12);
    }
}
