//! Micro-ring resonators (MRRs).
//!
//! MRRs are the workhorse of the photonic NoC (thesis Section 2.1.1): they
//! act as wavelength-selective filters and, with carrier injection, as
//! modulators and switches. The area estimate of Section 3.4.3 assumes
//! 5 µm-radius rings \[28\]; this module holds that geometry and its
//! footprint.

use crate::units::um2_to_mm2;
use std::f64::consts::PI;

/// A silicon micro-ring resonator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroRingResonator {
    /// Ring radius in micro-metres.
    pub radius_um: f64,
}

impl MicroRingResonator {
    /// The 5 µm ring assumed by the paper's area model \[28\].
    #[must_use]
    pub fn paper_area_ring() -> Self {
        Self { radius_um: 5.0 }
    }

    /// Footprint of the ring, `π r²`, in square micro-metres. This is the
    /// per-ring area used in equations 23 and 24 of the thesis.
    #[must_use]
    pub(crate) fn footprint_um2(&self) -> f64 {
        PI * self.radius_um * self.radius_um
    }

    /// Footprint in square milli-metres.
    #[must_use]
    pub fn footprint_mm2(&self) -> f64 {
        um2_to_mm2(self.footprint_um2())
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
}
