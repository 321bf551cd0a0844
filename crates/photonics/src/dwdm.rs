//! Dense Wavelength Division Multiplexing (DWDM) wavelength bookkeeping.
//!
//! A data waveguide carries up to `λ_W` wavelengths (64 in the paper, as in
//! Firefly \[20\]); the whole photonic fabric spreads its `N_λ` data
//! wavelengths over `⌈N_λ / λ_W⌉` waveguides. The d-HetPNoC DBA protocol
//! identifies an allocated wavelength with a *(waveguide number, wavelength
//! number)* pair; the reservation flit carries `log2(λ_W)`-bit wavelength
//! numbers plus, when several data waveguides exist, `log2(N_W)`-bit
//! waveguide numbers (Section 3.4.1.1).

/// Maximum number of DWDM wavelengths per waveguide used throughout the paper.
pub const PAPER_WAVELENGTHS_PER_WAVEGUIDE: usize = 64;

/// Identifier of one DWDM wavelength within the data-waveguide bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WavelengthId {
    /// Which data waveguide the wavelength lives in.
    pub waveguide: usize,
    /// Index of the wavelength within its waveguide (`0..wavelengths_per_waveguide`).
    pub index: usize,
}

impl WavelengthId {
    /// Creates a wavelength identifier.
    #[must_use]
    pub fn new(waveguide: usize, index: usize) -> Self {
        Self { waveguide, index }
    }
}

/// A grid of `num_waveguides × wavelengths_per_waveguide` DWDM wavelengths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WavelengthGrid {
    num_waveguides: usize,
    wavelengths_per_waveguide: usize,
}

impl WavelengthGrid {
    /// Creates a grid.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(num_waveguides: usize, wavelengths_per_waveguide: usize) -> Self {
        assert!(num_waveguides > 0, "need at least one waveguide");
        assert!(
            wavelengths_per_waveguide > 0,
            "need at least one wavelength per waveguide"
        );
        Self {
            num_waveguides,
            wavelengths_per_waveguide,
        }
    }

    /// Builds the smallest grid able to carry `total_wavelengths` data
    /// wavelengths with at most `per_waveguide` wavelengths per waveguide
    /// (the `N_WD = ⌈N_λ / λ_W⌉` relation of Section 3.4.3).
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    #[must_use]
    pub fn for_total(total_wavelengths: usize, per_waveguide: usize) -> Self {
        assert!(total_wavelengths > 0 && per_waveguide > 0);
        let waveguides = total_wavelengths.div_ceil(per_waveguide);
        Self::new(waveguides, per_waveguide)
    }

    /// Number of waveguides.
    #[must_use]
    pub fn num_waveguides(&self) -> usize {
        self.num_waveguides
    }

    /// Wavelengths per waveguide.
    #[must_use]
    pub fn wavelengths_per_waveguide(&self) -> usize {
        self.wavelengths_per_waveguide
    }

    /// Total wavelength capacity of the grid.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.num_waveguides * self.wavelengths_per_waveguide
    }

    /// Flattens a wavelength id into `0..capacity()`.
    ///
    /// # Panics
    ///
    /// Panics if the id is outside the grid.
    #[must_use]
    pub fn flatten(&self, id: WavelengthId) -> usize {
        assert!(id.waveguide < self.num_waveguides, "waveguide out of range");
        assert!(
            id.index < self.wavelengths_per_waveguide,
            "wavelength index out of range"
        );
        id.waveguide * self.wavelengths_per_waveguide + id.index
    }

    /// Inverse of [`WavelengthGrid::flatten`].
    ///
    /// # Panics
    ///
    /// Panics if `flat` is outside the grid.
    #[must_use]
    pub fn unflatten(&self, flat: usize) -> WavelengthId {
        assert!(flat < self.capacity(), "flat index out of range");
        WavelengthId {
            waveguide: flat / self.wavelengths_per_waveguide,
            index: flat % self.wavelengths_per_waveguide,
        }
    }

    /// Iterates over every wavelength id in the grid in flat order.
    pub fn iter(&self) -> impl Iterator<Item = WavelengthId> + '_ {
        (0..self.capacity()).map(move |f| self.unflatten(f))
    }

    /// Number of bits needed to encode the wavelength index within a
    /// waveguide (6 bits for 64 wavelengths, per Section 3.4.1.1).
    #[must_use]
    pub fn wavelength_index_bits(&self) -> u32 {
        bits_for(self.wavelengths_per_waveguide)
    }

    /// Number of bits needed to encode the waveguide number; zero when a
    /// single waveguide suffices (the "best case" of Section 3.4.1.1).
    #[must_use]
    pub fn waveguide_number_bits(&self) -> u32 {
        if self.num_waveguides <= 1 {
            0
        } else {
            bits_for(self.num_waveguides)
        }
    }

    /// Number of bits of one wavelength identifier in the reservation flit.
    #[must_use]
    pub fn identifier_bits(&self) -> u32 {
        self.wavelength_index_bits() + self.waveguide_number_bits()
    }
}

/// Number of bits needed to represent values `0..n` (`⌈log2 n⌉`, minimum 1).
#[must_use]
pub fn bits_for(n: usize) -> u32 {
    assert!(n > 0, "cannot encode an empty range");
    if n == 1 {
        1
    } else {
        usize::BITS - (n - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_for_paper_bandwidth_sets() {
        // BW set 1: 64 wavelengths -> 1 waveguide.
        let g1 = WavelengthGrid::for_total(64, PAPER_WAVELENGTHS_PER_WAVEGUIDE);
        assert_eq!(g1.num_waveguides(), 1);
        assert_eq!(g1.capacity(), 64);
        // BW set 2: 256 wavelengths -> 4 waveguides.
        let g2 = WavelengthGrid::for_total(256, 64);
        assert_eq!(g2.num_waveguides(), 4);
        // BW set 3: 512 wavelengths -> 8 waveguides.
        let g3 = WavelengthGrid::for_total(512, 64);
        assert_eq!(g3.num_waveguides(), 8);
    }

    #[test]
    fn identifier_bit_widths_match_section_3_4_1_1() {
        // One waveguide: 6-bit wavelength number, no waveguide number.
        let g1 = WavelengthGrid::for_total(64, 64);
        assert_eq!(g1.wavelength_index_bits(), 6);
        assert_eq!(g1.waveguide_number_bits(), 0);
        assert_eq!(g1.identifier_bits(), 6);
        // Eight waveguides (BW set 3): 6 + 3 bits.
        let g3 = WavelengthGrid::for_total(512, 64);
        assert_eq!(g3.waveguide_number_bits(), 3);
        assert_eq!(g3.identifier_bits(), 9);
    }

    #[test]
    fn flatten_unflatten_roundtrip() {
        let g = WavelengthGrid::new(3, 5);
        for flat in 0..g.capacity() {
            let id = g.unflatten(flat);
            assert_eq!(g.flatten(id), flat);
        }
        assert_eq!(g.iter().count(), 15);
    }

    #[test]
    fn rounding_up_of_waveguides() {
        let g = WavelengthGrid::for_total(65, 64);
        assert_eq!(g.num_waveguides(), 2);
    }

    #[test]
    fn bits_for_small_values() {
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(64), 6);
        assert_eq!(bits_for(65), 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flatten_rejects_out_of_range() {
        let g = WavelengthGrid::new(1, 4);
        let _ = g.flatten(WavelengthId::new(1, 0));
    }
}
