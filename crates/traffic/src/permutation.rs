//! Deterministic permutation traffic: transpose, bit-reverse and tornado.
//!
//! Permutation patterns are the classic adversarial workloads of the NoC
//! literature (Dally & Towles, ch. 3): every source core sends all of its
//! traffic to a single, fixed destination determined by a permutation of the
//! core index. They stress exactly the weakness the paper's dynamic
//! bandwidth allocation targets — a *non-uniform, persistent* communication
//! matrix — while being fully reproducible:
//!
//! * **transpose** — on the √n × √n core grid, core `(r, c)` sends to
//!   `(c, r)`; diagonal cores have no partner and stay silent,
//! * **bit-reverse** — core `b₅b₄…b₀` sends to core `b₀…b₄b₅`
//!   (palindromic indices map to themselves and stay silent),
//! * **tornado** — core `i` sends to core `(i + n/2 − 1) mod n`, the
//!   worst case for ring-like channel provisioning.
//!
//! Packet *timing* is still randomized (Bernoulli injection at the offered
//! load, from the generator's seeded RNG); only the destination mapping is
//! deterministic.

use crate::pattern::PacketShape;
use pnoc_noc::ids::{ClusterId, CoreId};
use pnoc_noc::packet::{BandwidthClass, PacketDescriptor};
use pnoc_noc::topology::ClusterTopology;
use pnoc_noc::traffic_model::{OfferedLoad, TrafficModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The supported core-index permutations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum PermutationKind {
    /// Matrix transpose on the √n × √n core grid.
    Transpose,
    /// Bit reversal of the core index.
    BitReverse,
    /// Half-ring offset: `i → (i + n/2 − 1) mod n`.
    Tornado,
}

impl PermutationKind {
    /// Registry / report name ("transpose", "bit-reverse", "tornado").
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PermutationKind::Transpose => "transpose",
            PermutationKind::BitReverse => "bit-reverse",
            PermutationKind::Tornado => "tornado",
        }
    }

    /// Destination core for `src` under this permutation, or `None` when the
    /// permutation maps the core to itself (the core stays silent).
    ///
    /// # Panics
    ///
    /// Panics if the core count does not fit the permutation's structure
    /// (perfect square for transpose, power of two for bit-reverse).
    #[must_use]
    pub fn destination(self, src: usize, num_cores: usize) -> Option<usize> {
        let dst = match self {
            PermutationKind::Transpose => {
                let side = (num_cores as f64).sqrt().round() as usize;
                assert!(
                    side * side == num_cores,
                    "transpose needs a square core count, got {num_cores}"
                );
                let (r, c) = (src / side, src % side);
                c * side + r
            }
            PermutationKind::BitReverse => {
                assert!(
                    num_cores.is_power_of_two(),
                    "bit-reverse needs a power-of-two core count, got {num_cores}"
                );
                let bits = num_cores.trailing_zeros();
                (src as u64).reverse_bits() as usize >> (64 - bits)
            }
            PermutationKind::Tornado => (src + num_cores / 2 - 1) % num_cores,
        };
        (dst != src).then_some(dst)
    }
}

/// Permutation traffic over all cores (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct PermutationTraffic {
    shape: PacketShape,
    kind: PermutationKind,
    load: OfferedLoad,
    /// `mapping[src] = Some(dst)`, or `None` for silent (self-mapped) cores.
    mapping: Vec<Option<CoreId>>,
    /// Per-cluster injection intensity relative to the chip mean.
    intensity: Vec<f64>,
    rng: StdRng,
}

impl PermutationTraffic {
    /// Creates a permutation generator.
    ///
    /// # Panics
    ///
    /// Panics if the topology's core count does not fit the permutation (see
    /// [`PermutationKind::destination`]).
    #[must_use]
    pub fn new(
        topology: ClusterTopology,
        shape: PacketShape,
        kind: PermutationKind,
        load: OfferedLoad,
        seed: u64,
    ) -> Self {
        let n = topology.num_cores();
        let mapping: Vec<Option<CoreId>> = (0..n)
            .map(|src| kind.destination(src, n).map(CoreId))
            .collect();
        let clusters = topology.num_clusters();
        // Injection intensity: clusters with silent cores inject less.
        let cpc = topology.cores_per_cluster();
        let mut intensity: Vec<f64> = (0..clusters)
            .map(|c| {
                (0..cpc)
                    .filter(|&l| mapping[ClusterId(c).core(l, cpc).0].is_some())
                    .count() as f64
                    / cpc as f64
            })
            .collect();
        let mean = intensity.iter().sum::<f64>() / clusters as f64;
        if mean > 0.0 {
            for w in &mut intensity {
                *w /= mean;
            }
        }
        Self {
            shape,
            kind,
            load,
            mapping,
            intensity,
            rng: StdRng::seed_from_u64(seed ^ 0x5045_524d),
        }
    }
}

impl TrafficModel for PermutationTraffic {
    fn next_packet(&mut self, cycle: u64, src: CoreId) -> Option<PacketDescriptor> {
        let dst = self.mapping[src.0]?;
        if !self.rng.gen_bool(self.load.value()) {
            return None;
        }
        Some(PacketDescriptor {
            src,
            dst,
            num_flits: self.shape.num_flits,
            flit_bits: self.shape.flit_bits,
            class: BandwidthClass::MediumHigh,
            created_cycle: cycle,
        })
    }

    fn offered_load(&self) -> OfferedLoad {
        self.load
    }

    fn demand_class(&self, _src: ClusterId, _dst: ClusterId) -> BandwidthClass {
        BandwidthClass::MediumHigh
    }

    fn source_intensity(&self, src: ClusterId) -> f64 {
        self.intensity[src.0]
    }

    fn name(&self) -> String {
        self.kind.label().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_KINDS: [PermutationKind; 3] = [
        PermutationKind::Transpose,
        PermutationKind::BitReverse,
        PermutationKind::Tornado,
    ];

    fn model(kind: PermutationKind, load: f64) -> PermutationTraffic {
        PermutationTraffic::new(
            ClusterTopology::paper_default(),
            PacketShape::new(64, 32),
            kind,
            OfferedLoad::new(load),
            9,
        )
    }

    #[test]
    fn transpose_maps_the_8x8_grid() {
        let m = model(PermutationKind::Transpose, 1.0);
        // (r=1, c=2) = core 10 → (r=2, c=1) = core 17.
        assert_eq!(m.mapping[10], Some(CoreId(17)));
        // Diagonal core (r=c=1) = core 9 is silent.
        assert_eq!(m.mapping[9], None);
        // Transpose is an involution on the non-diagonal cores.
        for src in 0..64 {
            if let Some(dst) = m.mapping[src] {
                assert_eq!(m.mapping[dst.0], Some(CoreId(src)));
            }
        }
    }

    #[test]
    fn bit_reverse_maps_the_6_bit_indices() {
        let m = model(PermutationKind::BitReverse, 1.0);
        // 000001 → 100000.
        assert_eq!(m.mapping[1], Some(CoreId(32)));
        // 000110 → 011000.
        assert_eq!(m.mapping[6], Some(CoreId(24)));
        // Palindromic index 100001 → itself → silent.
        assert_eq!(m.mapping[33], None);
    }

    #[test]
    fn tornado_offsets_by_half_the_ring_minus_one() {
        let m = model(PermutationKind::Tornado, 1.0);
        for src in 0..64usize {
            assert_eq!(
                m.mapping[src],
                Some(CoreId((src + 31) % 64)),
                "tornado destination of core {src}"
            );
        }
    }

    #[test]
    fn all_packets_follow_the_fixed_mapping() {
        for kind in ALL_KINDS {
            let mut m = model(kind, 1.0);
            for cycle in 0..500 {
                let src = CoreId((cycle as usize * 7) % 64);
                let expected = m.mapping[src.0];
                match (m.next_packet(cycle, src), expected) {
                    (Some(p), Some(dst)) => {
                        assert_eq!(p.dst, dst, "{kind:?}: wrong destination");
                        assert_ne!(p.dst, src);
                    }
                    (None, None) => {}
                    (got, want) => {
                        panic!("{kind:?}: core {src:?} produced {got:?}, mapping {want:?}")
                    }
                }
            }
        }
    }

    #[test]
    fn injection_rate_tracks_offered_load() {
        let mut m = model(PermutationKind::Tornado, 0.2);
        let cycles = 20_000;
        let generated = (0..cycles)
            .filter(|&c| m.next_packet(c, CoreId(5)).is_some())
            .count();
        let rate = generated as f64 / cycles as f64;
        assert!((rate - 0.2).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn intensity_reflects_silent_cores() {
        let m = model(PermutationKind::Transpose, 0.5);
        // Diagonal clusters (containing r==c cores) have silent cores, so
        // their intensity is below that of fully active clusters — but the
        // mean over all clusters stays 1.
        let mean: f64 = (0..16)
            .map(|c| m.source_intensity(ClusterId(c)))
            .sum::<f64>()
            / 16.0;
        assert!((mean - 1.0).abs() < 1e-9);
        let tornado = model(PermutationKind::Tornado, 0.5);
        for c in 0..16 {
            assert!((tornado.source_intensity(ClusterId(c)) - 1.0).abs() < 1e-12);
        }
    }
}
