//! Reservation-flit timing with piggybacked wavelength identifiers
//! (Sections 3.3.1 and 3.4.1.1).
//!
//! d-HetPNoC reuses Firefly's reservation-assisted SWMR flow control but
//! extends the reservation flit with the identifiers of the wavelengths the
//! destination must listen on. Each identifier is the binary-encoded
//! wavelength number within a waveguide (6 bits for 64 wavelengths) plus,
//! when the fabric spans several data waveguides, the binary-encoded
//! waveguide number. The thesis works out two corner cases:
//!
//! * **BW set 1** (64 λ, one waveguide): at most 8 identifiers × 6 bits =
//!   48 bits, which crosses the 800 Gb/s reservation waveguide in 60 ps —
//!   within a single 400 ps cycle, so no extra overhead versus Firefly.
//! * **BW set 3** (512 λ, eight waveguides): at most 64 identifiers ×
//!   (6 + 3) bits = 576 bits → 720 ps → two cycles, a small extra overhead.

use pnoc_noc::packet::BandwidthClass;
use pnoc_photonics::dwdm::WavelengthGrid;
use pnoc_sim::clock::Clock;
use pnoc_sim::config::{BandwidthSet, SimConfig};

/// Timing of the d-HetPNoC reservation broadcast.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReservationTiming {
    /// Bits per wavelength identifier (wavelength number + waveguide number).
    pub identifier_bits: u32,
    /// Maximum number of identifiers a reservation may carry (the maximum
    /// channel width of the bandwidth set).
    pub max_identifiers: usize,
    /// Worst-case payload of the identifiers, in bits.
    pub identifier_payload_bits: u32,
    /// Time to serialise the identifier payload on the reservation waveguide,
    /// in pico-seconds.
    pub payload_time_ps: f64,
    /// Reservation latency in cycles (including the base destination-id
    /// broadcast, which fits in the first cycle as in Firefly).
    pub cycles: u64,
}

impl ReservationTiming {
    /// The paper's maximum channel width for a bandwidth set (8 / 32 / 64:
    /// the wavelength demand of the set's highest application class), the
    /// default worst-case identifier count of a reservation.
    #[must_use]
    pub fn default_max_identifiers(set: BandwidthSet) -> usize {
        set.class_wavelengths(BandwidthClass::High)
    }

    /// Computes the reservation timing for a configuration at the paper's
    /// maximum channel width.
    #[must_use]
    pub fn for_config(config: &SimConfig) -> Self {
        Self::new(
            config.bandwidth_set,
            config.wavelengths_per_waveguide,
            config.wavelength_rate_gbps,
            config.clock,
        )
    }

    /// Computes the reservation timing from first principles at the paper's
    /// maximum channel width for the set.
    #[must_use]
    pub fn new(
        set: BandwidthSet,
        wavelengths_per_waveguide: usize,
        wavelength_rate_gbps: f64,
        clock: Clock,
    ) -> Self {
        Self::with_max_identifiers(
            set,
            wavelengths_per_waveguide,
            wavelength_rate_gbps,
            clock,
            Self::default_max_identifiers(set),
        )
    }

    /// Computes the reservation timing for an explicit maximum channel width
    /// (what the `"d-hetpnoc"` registry entry's `max_wavelengths` parameter
    /// feeds: a wider maximum channel piggybacks more identifiers and may
    /// need an extra reservation cycle).
    #[must_use]
    pub fn with_max_identifiers(
        set: BandwidthSet,
        wavelengths_per_waveguide: usize,
        wavelength_rate_gbps: f64,
        clock: Clock,
        max_identifiers: usize,
    ) -> Self {
        let grid = WavelengthGrid::for_total(set.total_wavelengths(), wavelengths_per_waveguide);
        let identifier_bits = grid.identifier_bits();
        let identifier_payload_bits = identifier_bits * max_identifiers as u32;
        let reservation_channel_gbps = wavelengths_per_waveguide as f64 * wavelength_rate_gbps;
        let payload_time_ps = f64::from(identifier_payload_bits) / reservation_channel_gbps * 1e3;
        let cycles =
            clock.cycles_for_transfer(u64::from(identifier_payload_bits), reservation_channel_gbps);
        Self {
            identifier_bits,
            max_identifiers,
            identifier_payload_bits,
            payload_time_ps,
            cycles,
        }
    }

    /// Extra cycles relative to Firefly's single-cycle reservation.
    #[must_use]
    pub fn extra_cycles_vs_firefly(&self) -> u64 {
        self.cycles.saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(set: BandwidthSet) -> ReservationTiming {
        ReservationTiming::new(set, 64, 12.5, Clock::paper_default())
    }

    #[test]
    fn bw_set_1_fits_in_one_cycle() {
        let t = timing(BandwidthSet::Set1);
        assert_eq!(
            t.identifier_bits, 6,
            "single waveguide: no waveguide number"
        );
        assert_eq!(t.max_identifiers, 8);
        assert_eq!(t.identifier_payload_bits, 48);
        assert!(
            (t.payload_time_ps - 60.0).abs() < 1e-9,
            "{}",
            t.payload_time_ps
        );
        assert_eq!(t.cycles, 1);
        assert_eq!(t.extra_cycles_vs_firefly(), 0);
    }

    #[test]
    fn bw_set_3_needs_two_cycles() {
        let t = timing(BandwidthSet::Set3);
        assert_eq!(
            t.identifier_bits, 9,
            "6-bit wavelength + 3-bit waveguide number"
        );
        assert_eq!(t.max_identifiers, 64);
        assert_eq!(t.identifier_payload_bits, 576);
        assert!(
            (t.payload_time_ps - 720.0).abs() < 1e-9,
            "{}",
            t.payload_time_ps
        );
        assert_eq!(t.cycles, 2);
        assert_eq!(t.extra_cycles_vs_firefly(), 1);
    }

    #[test]
    fn explicit_max_identifiers_scale_the_payload() {
        // Halving the maximum channel width of set 3 halves the payload and
        // brings the reservation back to a single cycle.
        let narrow = ReservationTiming::with_max_identifiers(
            BandwidthSet::Set3,
            64,
            12.5,
            Clock::paper_default(),
            32,
        );
        assert_eq!(narrow.max_identifiers, 32);
        assert_eq!(narrow.identifier_payload_bits, 288);
        assert_eq!(narrow.cycles, 1);
        // The default path equals the explicit default width.
        assert_eq!(
            ReservationTiming::default_max_identifiers(BandwidthSet::Set3),
            64
        );
        assert_eq!(
            timing(BandwidthSet::Set3),
            ReservationTiming::with_max_identifiers(
                BandwidthSet::Set3,
                64,
                12.5,
                Clock::paper_default(),
                64,
            )
        );
    }

    #[test]
    fn bw_set_2_still_fits_in_one_cycle() {
        let t = timing(BandwidthSet::Set2);
        // 256 λ → 4 waveguides → 6 + 2 = 8-bit identifiers, 32 of them.
        assert_eq!(t.identifier_bits, 8);
        assert_eq!(t.max_identifiers, 32);
        assert_eq!(t.identifier_payload_bits, 256);
        assert!(t.payload_time_ps <= 400.0);
        assert_eq!(t.cycles, 1);
    }
}
