//! The system clock.
//!
//! The whole chip runs at a single 2.5 GHz clock (Table 3-3), i.e. a 400 ps
//! cycle. Photonic line rates are expressed per wavelength (12.5 Gb/s), so a
//! single wavelength carries exactly 5 bits per clock cycle — the conversion
//! factor at the heart of the cycle-accurate photonic transfer model.

/// The global clock of the simulated chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clock {
    /// Clock frequency in GHz.
    pub frequency_ghz: f64,
}

impl Clock {
    /// The paper's 2.5 GHz clock.
    #[must_use]
    pub fn paper_default() -> Self {
        Self { frequency_ghz: 2.5 }
    }

    /// Creates a clock.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is not positive.
    #[must_use]
    pub fn new(frequency_ghz: f64) -> Self {
        assert!(frequency_ghz > 0.0, "clock frequency must be positive");
        Self { frequency_ghz }
    }

    /// Cycle time in pico-seconds (400 ps at 2.5 GHz).
    #[must_use]
    pub fn cycle_time_ps(&self) -> f64 {
        1e3 / self.frequency_ghz
    }

    /// Cycle time in seconds.
    #[must_use]
    pub fn cycle_time_s(&self) -> f64 {
        1e-9 / self.frequency_ghz
    }

    /// Converts a cycle count into seconds.
    #[must_use]
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 * self.cycle_time_s()
    }

    /// Bits carried per cycle by one wavelength running at `line_rate_gbps`.
    #[must_use]
    pub fn bits_per_wavelength_per_cycle(&self, line_rate_gbps: f64) -> f64 {
        line_rate_gbps / self.frequency_ghz
    }

    /// Number of whole cycles needed to transfer `bits` bits over a channel of
    /// `bandwidth_gbps` (rounded up, minimum 1).
    #[must_use]
    pub fn cycles_for_transfer(&self, bits: u64, bandwidth_gbps: f64) -> u64 {
        assert!(bandwidth_gbps > 0.0, "bandwidth must be positive");
        let seconds = bits as f64 / (bandwidth_gbps * 1e9);
        (seconds / self.cycle_time_s()).ceil().max(1.0) as u64
    }

    /// Converts an aggregate number of bits delivered over `cycles` cycles
    /// into a bandwidth in Gb/s.
    #[must_use]
    pub fn bandwidth_gbps(&self, bits: u64, cycles: u64) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        bits as f64 / self.cycles_to_seconds(cycles) / 1e9
    }
}

impl Default for Clock {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_clock_cycle_time() {
        let c = Clock::paper_default();
        assert!((c.cycle_time_ps() - 400.0).abs() < 1e-9);
        assert!((c.cycle_time_s() - 400e-12).abs() < 1e-21);
    }

    #[test]
    fn five_bits_per_wavelength_per_cycle() {
        let c = Clock::paper_default();
        assert!((c.bits_per_wavelength_per_cycle(12.5) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn reservation_flit_timing_of_section_3_4_1_1() {
        let c = Clock::paper_default();
        // 8 wavelength identifiers × 6 bits = 48 bits over 800 Gb/s = 60 ps,
        // fits in one 400 ps cycle.
        assert_eq!(c.cycles_for_transfer(48, 800.0), 1);
        // 64 identifiers × 9 bits = 576 bits over 800 Gb/s = 720 ps → 2 cycles.
        assert_eq!(c.cycles_for_transfer(576, 800.0), 2);
    }

    #[test]
    fn bandwidth_computation_roundtrip() {
        let c = Clock::paper_default();
        // 4000 bits over 100 cycles of 400 ps = 4000 / 40 ns = 100 Gb/s.
        assert!((c.bandwidth_gbps(4000, 100) - 100.0).abs() < 1e-9);
        assert_eq!(c.bandwidth_gbps(4000, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_frequency_rejected() {
        let _ = Clock::new(0.0);
    }
}
