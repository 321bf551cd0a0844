//! Micro-ring resonators (MRRs).
//!
//! MRRs are the workhorse of the photonic NoC (thesis Section 2.1.1): they
//! act as wavelength-selective filters and, with carrier injection, as
//! modulators and switches. The thesis cites silicon *adiabatic* micro-rings
//! of 2 µm radius with a free spectral range (FSR) of 6.92 THz \[13\] and
//! assumes 5 µm-radius rings \[28\] for the area estimate of Section 3.4.3.

use crate::units::{um2_to_mm2, um_to_m, SILICON_GROUP_INDEX, SPEED_OF_LIGHT_M_PER_S};
use std::f64::consts::PI;

/// A silicon micro-ring resonator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroRingResonator {
    /// Ring radius in micro-metres.
    pub radius_um: f64,
    /// Quality factor of the resonance.
    pub q_factor: f64,
    /// Group index of the ring waveguide (dimensionless).
    pub group_index: f64,
    /// Resonant wavelength in nano-metres.
    pub resonance_nm: f64,
}

impl MicroRingResonator {
    /// The 5 µm ring assumed by the paper's area model \[28\].
    #[must_use]
    pub fn paper_area_ring() -> Self {
        Self {
            radius_um: 5.0,
            q_factor: 10_000.0,
            group_index: SILICON_GROUP_INDEX,
            resonance_nm: 1550.0,
        }
    }

    /// The 2 µm adiabatic ring of Biberman et al. \[13\] with 6.92 THz FSR.
    #[must_use]
    pub fn adiabatic_2um() -> Self {
        Self {
            radius_um: 2.0,
            q_factor: 8_000.0,
            group_index: SILICON_GROUP_INDEX,
            resonance_nm: 1550.0,
        }
    }

    /// Creates a ring with an explicit radius, keeping the default silicon
    /// group index and a 1550 nm resonance.
    ///
    /// # Panics
    ///
    /// Panics if the radius is not positive.
    #[must_use]
    pub fn with_radius_um(radius_um: f64) -> Self {
        assert!(radius_um > 0.0, "ring radius must be positive");
        Self {
            radius_um,
            ..Self::paper_area_ring()
        }
    }

    /// Ring circumference in micro-metres.
    #[must_use]
    pub fn circumference_um(&self) -> f64 {
        2.0 * PI * self.radius_um
    }

    /// Footprint of the ring, `π r²`, in square micro-metres. This is the
    /// per-ring area used in equations 23 and 24 of the thesis.
    #[must_use]
    pub fn footprint_um2(&self) -> f64 {
        PI * self.radius_um * self.radius_um
    }

    /// Footprint in square milli-metres.
    #[must_use]
    pub fn footprint_mm2(&self) -> f64 {
        um2_to_mm2(self.footprint_um2())
    }

    /// Free spectral range in hertz: `FSR = c / (n_g · L)` where `L` is the
    /// ring circumference. The FSR bounds how many DWDM channels the ring
    /// based WDM system can host (Section 2.1.1: FSR is inversely
    /// proportional to the circumference).
    #[must_use]
    pub fn free_spectral_range_hz(&self) -> f64 {
        let circumference_m = um_to_m(self.circumference_um());
        SPEED_OF_LIGHT_M_PER_S / (self.group_index * circumference_m)
    }

    /// Resonance full-width-at-half-maximum in hertz, `f / Q`.
    #[must_use]
    pub fn linewidth_hz(&self) -> f64 {
        let f = SPEED_OF_LIGHT_M_PER_S / (self.resonance_nm * 1e-9);
        f / self.q_factor
    }

    /// Maximum number of DWDM channels that fit in one FSR given a channel
    /// spacing in hertz.
    ///
    /// # Panics
    ///
    /// Panics if `channel_spacing_hz` is not positive.
    #[must_use]
    pub fn max_channels(&self, channel_spacing_hz: f64) -> usize {
        assert!(channel_spacing_hz > 0.0, "channel spacing must be positive");
        (self.free_spectral_range_hz() / channel_spacing_hz).floor() as usize
    }

    /// Whether an optical carrier at `frequency_hz` is coupled by this ring
    /// (within half a linewidth of a resonance, modulo FSR).
    #[must_use]
    pub fn couples(&self, frequency_hz: f64) -> bool {
        let resonance_hz = SPEED_OF_LIGHT_M_PER_S / (self.resonance_nm * 1e-9);
        let fsr = self.free_spectral_range_hz();
        let delta = (frequency_hz - resonance_hz).rem_euclid(fsr);
        let dist = delta.min(fsr - delta);
        dist <= self.linewidth_hz() / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, rel: f64) -> bool {
        (a - b).abs() <= rel * b.abs()
    }

    #[test]
    fn paper_ring_footprint() {
        let ring = MicroRingResonator::paper_area_ring();
        // π · 25 µm² ≈ 78.54 µm².
        assert!(close(ring.footprint_um2(), 78.5398, 1e-4));
        assert!(close(ring.footprint_mm2(), 78.5398e-6, 1e-4));
    }

    #[test]
    fn adiabatic_ring_fsr_matches_reference() {
        // Biberman et al. report 6.92 THz for the 2 µm adiabatic ring; the
        // group index constant was chosen to reproduce this within 1 %.
        let ring = MicroRingResonator::adiabatic_2um();
        let fsr_thz = ring.free_spectral_range_hz() / 1e12;
        assert!(close(fsr_thz, 6.92, 0.01), "FSR was {fsr_thz} THz");
    }

    #[test]
    fn fsr_inversely_proportional_to_circumference() {
        let small = MicroRingResonator::with_radius_um(2.0);
        let large = MicroRingResonator::with_radius_um(4.0);
        let ratio = small.free_spectral_range_hz() / large.free_spectral_range_hz();
        assert!(close(ratio, 2.0, 1e-9));
    }

    #[test]
    fn channel_capacity_supports_paper_dwdm() {
        // With a 2 µm ring (6.92 THz FSR) and 100 GHz channel spacing, more
        // than 64 channels fit — consistent with the paper's 64-wavelength
        // waveguides.
        let ring = MicroRingResonator::adiabatic_2um();
        assert!(ring.max_channels(100e9) >= 64);
    }

    #[test]
    fn coupling_is_resonance_selective() {
        let ring = MicroRingResonator::paper_area_ring();
        let resonance_hz = SPEED_OF_LIGHT_M_PER_S / (ring.resonance_nm * 1e-9);
        assert!(ring.couples(resonance_hz));
        // Halfway between two resonances nothing couples.
        assert!(!ring.couples(resonance_hz + ring.free_spectral_range_hz() / 2.0));
        // One full FSR away couples again.
        assert!(ring.couples(resonance_hz + ring.free_spectral_range_hz()));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_radius_rejected() {
        let _ = MicroRingResonator::with_radius_um(0.0);
    }
}
