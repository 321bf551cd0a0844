//! Packet-energy model (Section 3.4.1.2, Tables 3-4 and 3-5).
//!
//! The energy of transferring a packet over the PNoC is
//!
//! ```text
//! E_packet   = E_electrical + E_photonic                         (eq. 3)
//! E_photonic = E_launch + E_modulation + E_tuning + E_buffer     (eq. 4)
//! ```
//!
//! with the per-bit coefficients of Table 3-5:
//!
//! | component    | pJ/bit     |
//! |--------------|------------|
//! | E_modulation | 0.04       |
//! | E_tuning     | 0.24       |
//! | E_launch     | 0.15       |
//! | E_buffer     | 0.0781250  |
//! | E_router     | 0.625      |
//!
//! The buffer component is charged per bit per cycle of residence in a
//! photonic-router buffer, which is what makes congestion visible in the
//! packet energy (the thesis explains the d-HetPNoC energy advantage by
//! "flits occupy the buffers in routers for a shorter duration"). The router
//! component is charged per bit per electrical-router traversal.

/// Per-bit energy coefficients of the photonic NoC (Table 3-5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhotonicEnergyModel {
    /// Modulation / demodulation energy, pJ per bit.
    pub modulation_pj_per_bit: f64,
    /// Thermal-tuning energy, pJ per bit.
    pub tuning_pj_per_bit: f64,
    /// Laser launch energy, pJ per bit.
    pub launch_pj_per_bit: f64,
    /// Buffering energy, pJ per bit written into a buffer.
    pub buffer_pj_per_bit: f64,
    /// Buffer retention (leakage) energy, pJ per bit per cycle of residence.
    /// Calibrated so that holding a flit for one full buffer depth (64
    /// cycles) costs one additional buffer-write energy; this is the term
    /// that makes congestion visible in the packet energy ("flits occupy the
    /// buffers in routers for a shorter duration", Section 3.4.1.2) without
    /// letting it dwarf the link energy.
    pub buffer_leakage_pj_per_bit_cycle: f64,
    /// Electrical router traversal energy, pJ per bit per hop (the thesis
    /// folds the electrical link into this figure).
    pub router_pj_per_bit: f64,
}

impl PhotonicEnergyModel {
    /// The coefficients of Table 3-5.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            modulation_pj_per_bit: 0.04,
            tuning_pj_per_bit: 0.24,
            launch_pj_per_bit: 0.15,
            buffer_pj_per_bit: 0.078_125,
            buffer_leakage_pj_per_bit_cycle: 0.078_125 / 64.0,
            router_pj_per_bit: 0.625,
        }
    }

    /// Photonic per-bit energy excluding buffering:
    /// launch + modulation + tuning (0.43 pJ/bit with the paper's numbers).
    #[must_use]
    pub fn photonic_link_pj_per_bit(&self) -> f64 {
        self.launch_pj_per_bit + self.modulation_pj_per_bit + self.tuning_pj_per_bit
    }

    /// Energy to move `bits` bits over one photonic channel (launch,
    /// modulation, tuning), in pico-joules.
    #[must_use]
    pub fn photonic_transfer_pj(&self, bits: u64) -> f64 {
        self.photonic_link_pj_per_bit() * bits as f64
    }

    /// Energy of writing `bits` bits into a buffer, pJ.
    #[must_use]
    pub fn buffering_pj(&self, bits: u64) -> f64 {
        self.buffer_pj_per_bit * bits as f64
    }

    /// Energy of holding `bits` bits buffered for one cycle, pJ.
    #[must_use]
    pub fn buffer_retention_pj(&self, bits: u64) -> f64 {
        self.buffer_leakage_pj_per_bit_cycle * bits as f64
    }

    /// Energy of pushing `bits` bits through one electrical router, pJ.
    #[must_use]
    pub fn router_traversal_pj(&self, bits: u64) -> f64 {
        self.router_pj_per_bit * bits as f64
    }
}

impl Default for PhotonicEnergyModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Energy totals accumulated during a simulation, split by component
/// (the terms of equations 3 and 4).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Laser launch energy, pJ.
    pub launch_pj: f64,
    /// Modulation / demodulation energy, pJ.
    pub modulation_pj: f64,
    /// Thermal tuning energy, pJ.
    pub tuning_pj: f64,
    /// Buffering energy, pJ.
    pub buffer_pj: f64,
    /// Electrical router + link energy, pJ.
    pub electrical_pj: f64,
}

impl EnergyBreakdown {
    /// Total photonic energy (eq. 4), pJ.
    #[must_use]
    pub fn photonic_pj(&self) -> f64 {
        self.launch_pj + self.modulation_pj + self.tuning_pj + self.buffer_pj
    }

    /// Total packet energy (eq. 3), pJ.
    #[must_use]
    pub fn total_pj(&self) -> f64 {
        self.photonic_pj() + self.electrical_pj
    }

    /// Element-wise sum of two breakdowns.
    #[must_use]
    pub fn combined(&self, other: &EnergyBreakdown) -> EnergyBreakdown {
        EnergyBreakdown {
            launch_pj: self.launch_pj + other.launch_pj,
            modulation_pj: self.modulation_pj + other.modulation_pj,
            tuning_pj: self.tuning_pj + other.tuning_pj,
            buffer_pj: self.buffer_pj + other.buffer_pj,
            electrical_pj: self.electrical_pj + other.electrical_pj,
        }
    }
}

/// Streaming accumulator of simulation energy, driven by the cycle-accurate
/// engine.
#[derive(Debug, Clone)]
pub struct EnergyAccumulator {
    model: PhotonicEnergyModel,
    breakdown: EnergyBreakdown,
}

impl EnergyAccumulator {
    /// Creates an accumulator using the given coefficients.
    #[must_use]
    pub fn new(model: PhotonicEnergyModel) -> Self {
        Self {
            model,
            breakdown: EnergyBreakdown::default(),
        }
    }

    /// The coefficient set in use.
    #[must_use]
    pub fn model(&self) -> &PhotonicEnergyModel {
        &self.model
    }

    /// Records `bits` bits crossing a photonic channel (launch + modulation +
    /// tuning are charged).
    #[inline]
    pub fn record_photonic_transfer(&mut self, bits: u64) {
        let b = bits as f64;
        self.breakdown.launch_pj += self.model.launch_pj_per_bit * b;
        self.breakdown.modulation_pj += self.model.modulation_pj_per_bit * b;
        self.breakdown.tuning_pj += self.model.tuning_pj_per_bit * b;
    }

    /// Records `bits` bits being written into a router buffer.
    #[inline]
    pub fn record_buffer_write(&mut self, bits: u64) {
        self.breakdown.buffer_pj += self.model.buffering_pj(bits);
    }

    /// Records `bits` bits sitting in router buffers for one cycle
    /// (retention energy).
    #[inline]
    pub fn record_buffer_occupancy(&mut self, bits: u64) {
        self.breakdown.buffer_pj += self.model.buffer_retention_pj(bits);
    }

    /// Records `bits` bits traversing an electrical router.
    #[inline]
    pub fn record_router_traversal(&mut self, bits: u64) {
        self.breakdown.electrical_pj += self.model.router_traversal_pj(bits);
    }

    /// Current totals.
    #[must_use]
    pub fn breakdown(&self) -> EnergyBreakdown {
        self.breakdown
    }

    /// Resets the totals (used at the end of the warm-up phase).
    pub fn reset(&mut self) {
        self.breakdown = EnergyBreakdown::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_coefficients_sum_to_0_43_pj_per_bit() {
        let m = PhotonicEnergyModel::paper_default();
        assert!((m.photonic_link_pj_per_bit() - 0.43).abs() < 1e-12);
    }

    #[test]
    fn transfer_and_buffer_energies_scale_with_bits() {
        let m = PhotonicEnergyModel::paper_default();
        assert!((m.photonic_transfer_pj(100) - 43.0).abs() < 1e-9);
        assert!((m.buffering_pj(64) - 5.0).abs() < 1e-9);
        assert!((m.buffer_retention_pj(64 * 64) - 5.0).abs() < 1e-9);
        assert!((m.router_traversal_pj(32) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn accumulator_splits_components_correctly() {
        let mut acc = EnergyAccumulator::new(PhotonicEnergyModel::paper_default());
        acc.record_photonic_transfer(1000);
        acc.record_buffer_write(1000);
        acc.record_router_traversal(1000);
        let b = acc.breakdown();
        assert!((b.launch_pj - 150.0).abs() < 1e-9);
        assert!((b.modulation_pj - 40.0).abs() < 1e-9);
        assert!((b.tuning_pj - 240.0).abs() < 1e-9);
        assert!((b.buffer_pj - 78.125).abs() < 1e-9);
        assert!((b.electrical_pj - 625.0).abs() < 1e-9);
        assert!((b.photonic_pj() - 508.125).abs() < 1e-9);
        assert!((b.total_pj() - 1133.125).abs() < 1e-9);
        // Retention: holding 1000 bits for 64 cycles costs one write-equivalent.
        let mut acc2 = EnergyAccumulator::new(PhotonicEnergyModel::paper_default());
        for _ in 0..64 {
            acc2.record_buffer_occupancy(1000);
        }
        assert!((acc2.breakdown().buffer_pj - 78.125).abs() < 1e-6);
    }

    #[test]
    fn breakdown_combination_is_elementwise() {
        let a = EnergyBreakdown {
            launch_pj: 1.0,
            modulation_pj: 2.0,
            tuning_pj: 3.0,
            buffer_pj: 4.0,
            electrical_pj: 5.0,
        };
        let b = a.combined(&a);
        assert_eq!(b.launch_pj, 2.0);
        assert_eq!(b.electrical_pj, 10.0);
        assert_eq!(b.total_pj(), 2.0 * a.total_pj());
    }

    #[test]
    fn reset_clears_totals() {
        let mut acc = EnergyAccumulator::new(PhotonicEnergyModel::paper_default());
        acc.record_photonic_transfer(10);
        acc.reset();
        assert_eq!(acc.breakdown().total_pj(), 0.0);
    }
}
