//! Physical unit helpers.
//!
//! The photonic models mix quantities spanning many orders of magnitude
//! (femto-joules per bit, milli-watts, tera-hertz, micro-metres). To keep the
//! arithmetic readable and auditable, this module provides thin conversion
//! helpers and the physical constants the device models rely on. All
//! quantities are stored as `f64` in SI base units unless the name says
//! otherwise.

/// Speed of light in vacuum, metres per second.
pub const SPEED_OF_LIGHT_M_PER_S: f64 = 299_792_458.0;

/// Group index of a silicon strip waveguide around 1550 nm, chosen such that
/// a 2 µm-radius adiabatic micro-ring has a free spectral range of 6.92 THz
/// as reported by Biberman et al. \[13\] (thesis Section 2.1.1).
pub const SILICON_GROUP_INDEX: f64 = 3.448;

/// Nominal DWDM centre wavelength used by the models, metres (1550 nm).
pub const CENTER_WAVELENGTH_M: f64 = 1550e-9;

/// Converts pico-joules to joules.
#[must_use]
pub fn pj_to_j(pj: f64) -> f64 {
    pj * 1e-12
}

/// Converts joules to pico-joules.
#[must_use]
pub fn j_to_pj(j: f64) -> f64 {
    j * 1e12
}

/// Converts femto-joules to pico-joules.
#[must_use]
pub fn fj_to_pj(fj: f64) -> f64 {
    fj * 1e-3
}

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

/// Converts bits-per-second to giga-bits-per-second.
#[must_use]
pub fn bps_to_gbps(bps: f64) -> f64 {
    bps * 1e-9
}

/// Converts micro-metres to metres.
#[must_use]
pub fn um_to_m(um: f64) -> f64 {
    um * 1e-6
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
    j_to_pj(power_w / bit_rate_bps)
}

/// Converts a dB value to a linear power ratio.
#[must_use]
pub fn db_to_linear(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Converts a linear power ratio to dB.
#[must_use]
pub fn linear_to_db(ratio: f64) -> f64 {
    assert!(ratio > 0.0, "ratio must be positive to express in dB");
    10.0 * ratio.log10()
}

/// Converts dBm to milli-watts.
#[must_use]
pub fn dbm_to_mw(dbm: f64) -> f64 {
    db_to_linear(dbm)
}

/// Converts milli-watts to dBm.
#[must_use]
pub fn mw_to_dbm(mw: f64) -> f64 {
    linear_to_db(mw)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * b.abs().max(1e-30)
    }

    #[test]
    fn simple_conversions_roundtrip() {
        assert!(close(j_to_pj(pj_to_j(3.7)), 3.7, 1e-12));
        assert!(close(fj_to_pj(40.0), 0.04, 1e-12));
        assert!(close(mw_to_w(1.5), 0.0015, 1e-12));
        assert!(close(gbps_to_bps(12.5), 12.5e9, 1e-12));
        assert!(close(bps_to_gbps(gbps_to_bps(7.0)), 7.0, 1e-12));
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
    fn db_conversions() {
        assert!(close(db_to_linear(3.0103), 2.0, 1e-4));
        assert!(close(linear_to_db(db_to_linear(-7.5)), -7.5, 1e-9));
        assert!(close(dbm_to_mw(0.0), 1.0, 1e-12));
        assert!(close(mw_to_dbm(10.0), 10.0, 1e-9));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn energy_per_bit_rejects_zero_rate() {
        let _ = power_to_energy_per_bit_pj(1.0, 0.0);
    }
}
