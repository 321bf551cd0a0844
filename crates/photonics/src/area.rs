//! Electro-optic device area model (Section 3.4.3, equations 5–24).
//!
//! The dynamic bandwidth allocation of d-HetPNoC requires every photonic
//! router to be able to modulate (and detect) *any* wavelength in *any* data
//! waveguide, which costs extra ring devices compared to the Firefly
//! baseline, where each router only writes its own statically-assigned
//! wavelengths. This module implements the ring-count equations of the
//! thesis verbatim and converts them to area with the `π·(5 µm)²` per-ring
//! footprint (equations 23–24).
//!
//! With the paper's 64-core / 16-cluster configuration and 64 data
//! wavelengths, the model reproduces the numbers quoted in the text:
//! 1.608 mm² for d-HetPNoC and 1.367 mm² for Firefly.

use crate::mrr::MicroRingResonator;

/// Number of wavelengths the control waveguide carries (the thesis fixes the
/// token/control waveguide at maximum DWDM, i.e. 64 wavelengths — equation 17
/// uses the literal constant 64).
pub const CONTROL_WAVEGUIDE_WAVELENGTHS: usize = 64;

/// Counts of electro-optic ring devices (modulators and detectors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingCounts {
    /// Modulators on data waveguides.
    pub data_modulators: usize,
    /// Modulators on reservation waveguides.
    pub reservation_modulators: usize,
    /// Modulators on the control (token) waveguide; zero for Firefly.
    pub control_modulators: usize,
    /// Detectors on data waveguides.
    pub data_detectors: usize,
    /// Detectors on reservation waveguides.
    pub reservation_detectors: usize,
    /// Detectors on the control (token) waveguide; zero for Firefly.
    pub control_detectors: usize,
}

impl RingCounts {
    /// Total modulators (`T_MD` / `T_MF` in the thesis).
    #[must_use]
    pub fn total_modulators(&self) -> usize {
        self.data_modulators + self.reservation_modulators + self.control_modulators
    }

    /// Total detectors (`T_DMD` / `T_DMF` in the thesis).
    #[must_use]
    pub fn total_detectors(&self) -> usize {
        self.data_detectors + self.reservation_detectors + self.control_detectors
    }

    /// Total ring devices.
    #[must_use]
    pub fn total_rings(&self) -> usize {
        self.total_modulators() + self.total_detectors()
    }
}

/// Area report for one architecture at one design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaReport {
    /// The ring counts behind the area figure.
    pub rings: RingCounts,
    /// Number of data waveguides.
    pub data_waveguides: usize,
    /// Total electro-optic device area in mm².
    pub area_mm2: f64,
}

/// The area model of Section 3.4.3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    /// Number of photonic routers, `N_PR` (16 for the 64-core chip).
    pub num_photonic_routers: usize,
    /// Maximum DWDM wavelengths per waveguide, `λ_W` (64).
    pub wavelengths_per_waveguide: usize,
    /// The ring geometry used for the per-device footprint (5 µm radius).
    pub ring: MicroRingResonator,
}

impl AreaModel {
    /// The paper's configuration: 16 photonic routers, 64 wavelengths per
    /// waveguide, 5 µm rings.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            num_photonic_routers: 16,
            wavelengths_per_waveguide: 64,
            ring: MicroRingResonator::paper_area_ring(),
        }
    }

    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    #[must_use]
    pub fn new(num_photonic_routers: usize, wavelengths_per_waveguide: usize) -> Self {
        assert!(num_photonic_routers > 0);
        assert!(wavelengths_per_waveguide > 0);
        Self {
            num_photonic_routers,
            wavelengths_per_waveguide,
            ring: MicroRingResonator::paper_area_ring(),
        }
    }

    /// Number of data waveguides needed for `total_data_wavelengths`
    /// (`N_WD = ⌈N_λ / λ_W⌉`).
    #[must_use]
    pub fn data_waveguides_dynamic(&self, total_data_wavelengths: usize) -> usize {
        total_data_wavelengths.div_ceil(self.wavelengths_per_waveguide)
    }

    /// Ring counts for the d-HetPNoC (dynamic) architecture, equations 5–9
    /// and 14–18.
    #[must_use]
    pub fn dynamic_ring_counts(&self, total_data_wavelengths: usize) -> RingCounts {
        let n_pr = self.num_photonic_routers;
        let lambda_w = self.wavelengths_per_waveguide;
        let n_wd = self.data_waveguides_dynamic(total_data_wavelengths);
        RingCounts {
            // eq. 6: every router can modulate any wavelength in any waveguide.
            data_modulators: n_pr * lambda_w * n_wd,
            // eq. 7: each router writes all channels of its reservation waveguide.
            reservation_modulators: n_pr * lambda_w,
            // eq. 8: each router can write all channels of the control waveguide.
            control_modulators: n_pr * lambda_w,
            // eq. 15: every router can detect any wavelength in any waveguide.
            data_detectors: n_pr * lambda_w * n_wd,
            // eq. 16: each router reads every reservation waveguide except its own.
            reservation_detectors: n_pr * lambda_w * (n_pr - 1),
            // eq. 17: each router receives all 64 channels of the control waveguide.
            control_detectors: n_pr * CONTROL_WAVEGUIDE_WAVELENGTHS,
        }
    }

    /// Wavelengths per data waveguide in the Firefly baseline
    /// (`N_Fλ = ⌈N_λ / N_WF⌉` with `N_WF = N_PR`).
    #[must_use]
    pub fn firefly_wavelengths_per_channel(&self, total_data_wavelengths: usize) -> usize {
        total_data_wavelengths.div_ceil(self.num_photonic_routers)
    }

    /// Ring counts for the Firefly baseline, equations 10–13 and 19–22.
    #[must_use]
    pub fn firefly_ring_counts(&self, total_data_wavelengths: usize) -> RingCounts {
        let n_pr = self.num_photonic_routers;
        let lambda_w = self.wavelengths_per_waveguide;
        let n_f = self.firefly_wavelengths_per_channel(total_data_wavelengths);
        RingCounts {
            // eq. 11: each router writes its own N_Fλ channels.
            data_modulators: n_pr * n_f,
            // eq. 12: each router writes all channels of its reservation waveguide.
            reservation_modulators: n_pr * lambda_w,
            control_modulators: 0,
            // eq. 20: each router reads the N_Fλ channels of every other router.
            data_detectors: n_pr * n_f * (n_pr - 1),
            // eq. 21: each router reads every reservation waveguide except its own.
            reservation_detectors: n_pr * lambda_w * (n_pr - 1),
            control_detectors: 0,
        }
    }

    /// Converts ring counts to area in mm² (equations 23–24: every modulator
    /// and detector occupies `π r²`).
    #[must_use]
    pub fn area_mm2(&self, rings: &RingCounts) -> f64 {
        rings.total_rings() as f64 * self.ring.footprint_mm2()
    }

    /// Full area report for d-HetPNoC at a given aggregate data bandwidth.
    #[must_use]
    pub fn dynamic_report(&self, total_data_wavelengths: usize) -> AreaReport {
        let rings = self.dynamic_ring_counts(total_data_wavelengths);
        AreaReport {
            rings,
            data_waveguides: self.data_waveguides_dynamic(total_data_wavelengths),
            area_mm2: self.area_mm2(&rings),
        }
    }

    /// Full area report for the Firefly baseline at a given aggregate data
    /// bandwidth.
    #[must_use]
    pub fn firefly_report(&self, total_data_wavelengths: usize) -> AreaReport {
        let rings = self.firefly_ring_counts(total_data_wavelengths);
        AreaReport {
            rings,
            data_waveguides: self.num_photonic_routers,
            area_mm2: self.area_mm2(&rings),
        }
    }
}

impl Default for AreaModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ring_counts_at_64_wavelengths() {
        let m = AreaModel::paper_default();
        let dyn_rings = m.dynamic_ring_counts(64);
        // eq. 9: 16·64·1 + 2·16·64 = 3072 modulators.
        assert_eq!(dyn_rings.total_modulators(), 3072);
        // eq. 18: 16·64·1 + 16·64·15 + 16·64 = 17408 detectors.
        assert_eq!(dyn_rings.total_detectors(), 17_408);

        let ff_rings = m.firefly_ring_counts(64);
        // eq. 13: 16·4 + 16·64 = 1088 modulators.
        assert_eq!(ff_rings.total_modulators(), 1088);
        // eq. 22: 16·4·15 + 16·64·15 = 16320 detectors.
        assert_eq!(ff_rings.total_detectors(), 16_320);
    }

    #[test]
    fn paper_area_numbers_reproduced() {
        // The thesis quotes 1.608 mm² (d-HetPNoC) and 1.367 mm² (Firefly)
        // for the 64-data-wavelength configuration.
        let m = AreaModel::paper_default();
        let d = m.dynamic_report(64);
        let f = m.firefly_report(64);
        assert!(
            (d.area_mm2 - 1.608).abs() < 0.01,
            "d-HetPNoC {}",
            d.area_mm2
        );
        assert!((f.area_mm2 - 1.367).abs() < 0.01, "Firefly {}", f.area_mm2);
        assert!(d.area_mm2 > f.area_mm2);
    }

    #[test]
    fn dynamic_area_grows_faster_with_bandwidth() {
        let m = AreaModel::paper_default();
        let mut last_gap = 0.0;
        for wavelengths in [64, 128, 256, 512] {
            let d = m.dynamic_report(wavelengths).area_mm2;
            let f = m.firefly_report(wavelengths).area_mm2;
            let gap = d - f;
            assert!(d > f, "dynamic must cost more area at {wavelengths} λ");
            assert!(
                gap >= last_gap,
                "area gap must widen with total bandwidth (was {last_gap}, now {gap})"
            );
            last_gap = gap;
        }
    }

    #[test]
    fn area_growth_64_to_512_is_about_70_percent() {
        // Figure 3-8/3-9: total area grows by ≈ 70 % from 64 to 512
        // wavelengths for d-HetPNoC.
        let m = AreaModel::paper_default();
        let a64 = m.dynamic_report(64).area_mm2;
        let a512 = m.dynamic_report(512).area_mm2;
        let growth = (a512 - a64) / a64 * 100.0;
        assert!(
            (60.0..=420.0).contains(&growth),
            "growth {growth}% outside plausible range"
        );
    }

    #[test]
    fn waveguide_counts_follow_ceiling_division() {
        let m = AreaModel::paper_default();
        assert_eq!(m.data_waveguides_dynamic(64), 1);
        assert_eq!(m.data_waveguides_dynamic(65), 2);
        assert_eq!(m.data_waveguides_dynamic(256), 4);
        assert_eq!(m.data_waveguides_dynamic(512), 8);
        assert_eq!(m.firefly_wavelengths_per_channel(64), 4);
        assert_eq!(m.firefly_wavelengths_per_channel(256), 16);
        assert_eq!(m.firefly_wavelengths_per_channel(512), 32);
    }

    #[test]
    fn control_overhead_is_constant_in_bandwidth() {
        // Section 3.4.3: the control-waveguide overhead "remains constant and
        // is independent of the aggregate data bandwidth requirement".
        let m = AreaModel::paper_default();
        let c64 = m.dynamic_ring_counts(64);
        let c512 = m.dynamic_ring_counts(512);
        assert_eq!(c64.control_modulators, c512.control_modulators);
        assert_eq!(c64.control_detectors, c512.control_detectors);
    }
}
