//! The wavelength-allocation token (Section 3.2.1, equations 1 and 2).
//!
//! The right to acquire wavelengths is granted to one photonic router at a
//! time by a token circulating on a dedicated control waveguide with maximum
//! DWDM. The token carries one status bit per dynamically allocatable
//! wavelength:
//!
//! ```text
//! N_TW = N_W · λ_W − N_λR                      (eq. 1)
//! T_L  = N_TW / (λ_W · B)                      (eq. 2)
//! ```
//!
//! where `N_W` is the number of data waveguides, `λ_W` the wavelengths per
//! waveguide, `N_λR` the wavelengths reserved for per-cluster minimum
//! allocations, and `B` the per-wavelength line rate. `T_L` is the time for
//! the token to traverse the control waveguide between two photonic routers.

use pnoc_noc::ids::ClusterId;
use pnoc_sim::clock::Clock;

/// Size of the token in bits (eq. 1).
///
/// # Panics
///
/// Panics if the reserved wavelengths exceed the total capacity.
#[must_use]
pub fn token_size_bits(
    num_waveguides: usize,
    wavelengths_per_waveguide: usize,
    reserved_wavelengths: usize,
) -> usize {
    let capacity = num_waveguides * wavelengths_per_waveguide;
    assert!(
        reserved_wavelengths <= capacity,
        "reserved wavelengths exceed the waveguide capacity"
    );
    capacity - reserved_wavelengths
}

/// Cycles for the token to traverse the control-waveguide link between two
/// photonic routers (eq. 2, rounded up to whole cycles, minimum 1).
#[must_use]
pub fn token_hop_cycles(
    token_bits: usize,
    wavelengths_per_waveguide: usize,
    wavelength_rate_gbps: f64,
    clock: Clock,
) -> u64 {
    let channel_gbps = wavelengths_per_waveguide as f64 * wavelength_rate_gbps;
    clock.cycles_for_transfer(token_bits as u64, channel_gbps)
}

/// The token: one status bit per dynamically allocatable wavelength
/// (`true` = currently allocated to some cluster).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    status: Vec<bool>,
}

impl Token {
    /// Creates a token with all wavelengths free.
    #[must_use]
    pub fn new(num_dynamic_wavelengths: usize) -> Self {
        Self {
            status: vec![false; num_dynamic_wavelengths],
        }
    }

    /// Number of currently unallocated wavelengths.
    #[must_use]
    pub fn free_count(&self) -> usize {
        self.status.iter().filter(|&&b| !b).count()
    }

    /// Number of currently allocated wavelengths.
    #[must_use]
    pub fn allocated_count(&self) -> usize {
        self.status.len() - self.free_count()
    }

    /// Whether a specific wavelength is allocated.
    #[must_use]
    pub(crate) fn is_allocated(&self, index: usize) -> bool {
        self.status[index]
    }

    /// Allocates up to `count` free wavelengths and returns their indices.
    pub fn allocate(&mut self, count: usize) -> Vec<usize> {
        let mut taken = Vec::new();
        for (i, slot) in self.status.iter_mut().enumerate() {
            if taken.len() == count {
                break;
            }
            if !*slot {
                *slot = true;
                taken.push(i);
            }
        }
        taken
    }

    /// Releases previously allocated wavelengths.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or not currently allocated
    /// (double-free), which would indicate a protocol bug.
    pub fn release(&mut self, indices: &[usize]) {
        for &i in indices {
            assert!(
                self.status[i],
                "releasing wavelength {i} that is not allocated"
            );
            self.status[i] = false;
        }
    }
}

/// The circulation of the token between the photonic routers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TokenRing {
    num_routers: usize,
    hop_cycles: u64,
    holder: usize,
    cycles_until_next_hop: u64,
}

impl TokenRing {
    /// Creates a ring starting at router 0; the token arrives at the next
    /// router after `hop_cycles` cycles.
    ///
    /// # Panics
    ///
    /// Panics if there are no routers or the hop latency is zero.
    #[must_use]
    pub fn new(num_routers: usize, hop_cycles: u64) -> Self {
        assert!(num_routers > 0, "need at least one photonic router");
        assert!(
            hop_cycles >= 1,
            "token hop latency must be at least 1 cycle"
        );
        Self {
            num_routers,
            hop_cycles,
            holder: 0,
            cycles_until_next_hop: hop_cycles,
        }
    }

    /// Advances one cycle. Returns `Some(cluster)` when the token arrives at
    /// a new router this cycle (that router may then allocate wavelengths).
    pub fn tick(&mut self) -> Option<ClusterId> {
        self.cycles_until_next_hop -= 1;
        if self.cycles_until_next_hop == 0 {
            self.holder = (self.holder + 1) % self.num_routers;
            self.cycles_until_next_hop = self.hop_cycles;
            Some(ClusterId(self.holder))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_size_matches_equation_1() {
        // BW set 1: 1 waveguide × 64 λ − 16 reserved = 48 bits.
        assert_eq!(token_size_bits(1, 64, 16), 48);
        // BW set 2: 4 × 64 − 16 = 240 bits.
        assert_eq!(token_size_bits(4, 64, 16), 240);
        // BW set 3: 8 × 64 − 16 = 496 bits.
        assert_eq!(token_size_bits(8, 64, 16), 496);
    }

    #[test]
    fn token_hop_latency_matches_equation_2() {
        let clock = Clock::paper_default();
        // 48 bits over 800 Gb/s = 60 ps → 1 cycle.
        assert_eq!(token_hop_cycles(48, 64, 12.5, clock), 1);
        // 496 bits over 800 Gb/s = 620 ps → 2 cycles.
        assert_eq!(token_hop_cycles(496, 64, 12.5, clock), 2);
    }

    #[test]
    fn allocate_and_release_are_consistent() {
        let mut t = Token::new(8);
        assert_eq!(t.free_count(), 8);
        let a = t.allocate(3);
        assert_eq!(a.len(), 3);
        assert_eq!(t.allocated_count(), 3);
        let b = t.allocate(10);
        assert_eq!(b.len(), 5, "only the remaining wavelengths are granted");
        assert_eq!(t.free_count(), 0);
        t.release(&a);
        assert_eq!(t.free_count(), 3);
        assert!(a.iter().all(|&i| !t.is_allocated(i)));
    }

    #[test]
    #[should_panic(expected = "not allocated")]
    fn double_release_is_detected() {
        let mut t = Token::new(4);
        let a = t.allocate(1);
        t.release(&a);
        t.release(&a);
    }

    #[test]
    fn ring_visits_every_router_in_order() {
        let mut ring = TokenRing::new(4, 2);
        assert_eq!(ring.holder, 0);
        let mut arrivals = Vec::new();
        for _ in 0..16 {
            if let Some(c) = ring.tick() {
                arrivals.push(c.0);
            }
        }
        assert_eq!(arrivals, vec![1, 2, 3, 0, 1, 2, 3, 0]);
    }
}
