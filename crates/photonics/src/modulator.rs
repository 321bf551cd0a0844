//! Electro-optic ring modulators.
//!
//! The transmit side of every photonic channel converts electrical flits into
//! optical signals by modulating a laser carrier with a micro-ring modulator.
//! The thesis uses the tunable high-speed silicon microring modulator of Dong
//! et al. \[28\]: 12.5 Gb/s per wavelength carrier and 40 fJ/bit modulation
//! energy (Table 3-4).

use crate::mrr::MicroRingResonator;
use crate::units::fj_to_pj;

/// An electro-optic micro-ring modulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Modulator {
    /// The ring the modulator is built around.
    pub ring: MicroRingResonator,
    /// Maximum modulation rate in Gb/s (12.5 in the paper).
    pub data_rate_gbps: f64,
    /// Dynamic modulation energy in femto-joules per bit (40 in the paper).
    pub energy_fj_per_bit: f64,
    /// Insertion loss contributed to the through path, in dB.
    pub insertion_loss_db: f64,
}

impl Modulator {
    /// The modulator assumed throughout the paper's evaluation \[28\].
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            ring: MicroRingResonator::paper_area_ring(),
            data_rate_gbps: 12.5,
            energy_fj_per_bit: 40.0,
            insertion_loss_db: 0.5,
        }
    }

    /// Modulation energy in pico-joules per bit (0.04 pJ/bit in Table 3-5).
    #[must_use]
    pub fn energy_pj_per_bit(&self) -> f64 {
        fj_to_pj(self.energy_fj_per_bit)
    }

    /// Energy to modulate `bits` bits, in pico-joules.
    #[must_use]
    pub fn modulation_energy_pj(&self, bits: u64) -> f64 {
        self.energy_pj_per_bit() * bits as f64
    }

    /// Time to serialise `bits` bits over this single modulator, in seconds.
    ///
    /// # Panics
    ///
    /// Panics if the configured data rate is not positive.
    #[must_use]
    pub fn serialization_time_s(&self, bits: u64) -> f64 {
        assert!(self.data_rate_gbps > 0.0, "data rate must be positive");
        bits as f64 / (self.data_rate_gbps * 1e9)
    }

    /// Bits that one modulator pushes per core clock cycle.
    ///
    /// At the paper's 2.5 GHz clock and 12.5 Gb/s line rate this is exactly
    /// 5 bits per wavelength per cycle, the conversion factor used by the
    /// cycle-accurate photonic transfer model.
    #[must_use]
    pub fn bits_per_cycle(&self, clock_ghz: f64) -> f64 {
        assert!(clock_ghz > 0.0, "clock frequency must be positive");
        self.data_rate_gbps / clock_ghz
    }
}

impl Default for Modulator {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_modulation_energy_matches_table_3_5() {
        let m = Modulator::paper_default();
        assert!((m.energy_pj_per_bit() - 0.04).abs() < 1e-12);
        assert!((m.modulation_energy_pj(1000) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn five_bits_per_cycle_at_paper_clock() {
        let m = Modulator::paper_default();
        assert!((m.bits_per_cycle(2.5) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn serialization_time_scales_linearly() {
        let m = Modulator::paper_default();
        let t1 = m.serialization_time_s(125);
        let t2 = m.serialization_time_s(250);
        assert!((t2 / t1 - 2.0).abs() < 1e-12);
        // 12.5 Gb/s -> 125 bits take 10 ns.
        assert!((t1 - 10e-9).abs() < 1e-15);
    }
}
