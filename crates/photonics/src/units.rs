//! Physical unit helpers.
//!
//! The photonic models mix quantities spanning many orders of magnitude
//! (pico-joules per bit, milli-watts, giga-bits per second, micro-metres). To
//! keep the arithmetic readable and auditable, this module provides thin
//! conversion helpers. All quantities are stored as `f64` in SI base units
//! unless the name says otherwise.

/// Converts milli-watts to watts.
#[must_use]
pub fn mw_to_w(mw: f64) -> f64 {
    mw * 1e-3
}

/// Converts giga-bits-per-second to bits-per-second.
#[must_use]
pub fn gbps_to_bps(gbps: f64) -> f64 {
    gbps * 1e9
}

/// Converts square micro-metres to square milli-metres.
#[must_use]
pub fn um2_to_mm2(um2: f64) -> f64 {
    um2 * 1e-6
}

/// Converts a power (watts) sustained for a bit-time at `bit_rate_bps` into
/// the equivalent per-bit energy in pico-joules. This is how the laser and
/// tuning *powers* of Table 3-4 become the per-bit *energies* of Table 3-5.
#[must_use]
pub fn power_to_energy_per_bit_pj(power_w: f64, bit_rate_bps: f64) -> f64 {
    assert!(bit_rate_bps > 0.0, "bit rate must be positive");
    (power_w / bit_rate_bps) * 1e12
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * b.abs().max(1e-30)
    }

    #[test]
    fn simple_conversions_roundtrip() {
        assert!(close(mw_to_w(1.5), 0.0015, 1e-12));
        assert!(close(gbps_to_bps(12.5), 12.5e9, 1e-12));
        assert!(close(um2_to_mm2(1e6), 1.0, 1e-12));
    }

    #[test]
    fn laser_power_to_energy_matches_table_3_5() {
        // 1.5 mW per wavelength at 12.5 Gb/s ≈ 0.12 pJ/bit; the thesis rounds
        // the combined launch figure to 0.15 pJ/bit (which also folds in
        // coupling overheads), so the raw conversion must come out slightly
        // below that.
        let pj = power_to_energy_per_bit_pj(mw_to_w(1.5), gbps_to_bps(12.5));
        assert!(close(pj, 0.12, 1e-9), "got {pj}");
        assert!(pj < 0.15);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn energy_per_bit_rejects_zero_rate() {
        let _ = power_to_energy_per_bit_pj(1.0, 0.0);
    }
}
