//! Property-based tests of the analytic models and NoC data structures:
//! wormhole framing, arbiter fairness, the area model (equations 5–24), the
//! energy model and the reservation/DWDM arithmetic.

use d_hetpnoc_repro::prelude::*;
use pnoc_noc::ids::{CoreId, PacketId, RouterId, VcId};
use pnoc_noc::packet::{PacketDescriptor, PacketReassembler};
use pnoc_noc::router::RouterSpec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Framing a packet and reassembling it at the destination is lossless
    /// and order-preserving for any packet geometry.
    #[test]
    fn wormhole_framing_roundtrip(num_flits in 1u32..=128, flit_bits in 1u32..=512) {
        let packet = pnoc_noc::packet::Packet {
            id: PacketId(9),
            descriptor: PacketDescriptor {
                src: CoreId(0),
                dst: CoreId(5),
                num_flits,
                flit_bits,
                class: BandwidthClass::MediumLow,
                created_cycle: 0,
            },
            injected_cycle: 3,
        };
        let flits = PacketFramer::frame(&packet, VcId(2));
        prop_assert_eq!(flits.len() as u32, num_flits);
        prop_assert!(flits[0].is_head());
        prop_assert!(flits.last().unwrap().is_tail());
        prop_assert_eq!(flits.iter().filter(|f| f.is_head()).count(), 1);
        prop_assert_eq!(flits.iter().filter(|f| f.is_tail()).count(), 1);
        let total_bits: u64 = flits.iter().map(|f| u64::from(f.bits)).sum();
        prop_assert_eq!(total_bits, packet.total_bits());
        let mut reassembler = PacketReassembler::new();
        let mut completed = None;
        for flit in &flits {
            completed = reassembler.accept(flit);
        }
        prop_assert_eq!(completed, Some(PacketId(9)));
        prop_assert_eq!(reassembler.incomplete(), 0);
    }

    /// A packet pushed through an electrical router comes out complete, in
    /// order and on the right output port, for any packet length and port
    /// count.
    #[test]
    fn router_preserves_packets(
        num_flits in 1u32..=32,
        num_ports in 2usize..=6,
        out_port in 0usize..6,
    ) {
        let out_port = out_port % num_ports;
        let spec = RouterSpec::new(num_ports, 2, 64);
        let mut router = ElectricalRouter::new(RouterId(0), spec);
        router.set_route_fn(Box::new(move |_dst| pnoc_noc::ids::PortId(out_port)));
        let packet = pnoc_noc::packet::Packet {
            id: PacketId(1),
            descriptor: PacketDescriptor {
                src: CoreId(0),
                dst: CoreId(1),
                num_flits,
                flit_bits: 32,
                class: BandwidthClass::Low,
                created_cycle: 0,
            },
            injected_cycle: 0,
        };
        let flits = PacketFramer::frame(&packet, VcId(0));
        let mut cycle = 0u64;
        let mut received = Vec::new();
        let mut next_to_inject = 0usize;
        while received.len() < flits.len() && cycle < 10 * u64::from(num_flits) + 50 {
            if next_to_inject < flits.len()
                && router.can_accept(pnoc_noc::ids::PortId(1 % num_ports), VcId(0))
            {
                router
                    .accept(pnoc_noc::ids::PortId(1 % num_ports), VcId(0), flits[next_to_inject], cycle)
                    .unwrap();
                next_to_inject += 1;
            }
            for grant in router.step(cycle, |_, _, _| true) {
                prop_assert_eq!(grant.output, pnoc_noc::ids::PortId(out_port));
                received.push(grant.flit);
            }
            cycle += 1;
        }
        prop_assert_eq!(received.len(), flits.len(), "every flit must eventually leave");
        for (i, flit) in received.iter().enumerate() {
            prop_assert_eq!(flit.seq as usize, i, "flits must stay in order");
        }
    }

    /// Round-robin arbitration never grants an inactive requester and is
    /// starvation-free: a persistent requester is served within `n` grants.
    #[test]
    fn round_robin_is_fair(n in 1usize..=64, pattern in prop::collection::vec(any::<bool>(), 1..=64)) {
        let mut arb = RoundRobinArbiter::new(n);
        let requests: Vec<bool> = (0..n).map(|i| pattern.get(i).copied().unwrap_or(false)).collect();
        if requests.iter().any(|&r| r) {
            let mut seen = std::collections::HashSet::new();
            for _ in 0..n {
                let g = arb.grant(&requests).unwrap();
                prop_assert!(requests[g], "granted an inactive requester");
                seen.insert(g);
            }
            let active = requests.iter().filter(|&&r| r).count();
            prop_assert_eq!(seen.len(), active, "every active requester served within n rounds");
        } else {
            prop_assert!(arb.grant(&requests).is_none());
        }
    }

    /// `grant_mask` (and `grant`, which packs into it) picks the same winner
    /// as a rotating-priority offset loop over the request vector, from any
    /// starting priority and for every arbiter width a mask can carry.
    #[test]
    fn grant_mask_matches_the_offset_loop(
        n in 1usize..=64,
        start in 0usize..64,
        rounds in prop::collection::vec(0u64..=u64::MAX, 1..=32),
    ) {
        let (mut by_mask, mut by_slice) = (RoundRobinArbiter::new(n), RoundRobinArbiter::new(n));
        // A grant to `start - 1` moves the priority pointer to `start`.
        let mut next = start % n;
        let before = (next + n - 1) % n;
        prop_assert_eq!(by_mask.grant_mask(1 << before), Some(before));
        prop_assert_eq!(by_slice.grant_mask(1 << before), Some(before));
        for round in rounds {
            let mask = if n == 64 { round } else { round & ((1 << n) - 1) };
            let requests: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
            let expected = (0..n).map(|offset| (next + offset) % n).find(|&i| requests[i]);
            if let Some(winner) = expected {
                next = (winner + 1) % n;
            }
            prop_assert_eq!(by_mask.grant_mask(mask), expected);
            prop_assert_eq!(by_slice.grant(&requests), expected);
        }
    }

    /// Area model (equations 5–24): the d-HetPNoC always needs at least as
    /// many rings as Firefly, both grow monotonically with the wavelength
    /// count, and the area is exactly rings × π r².
    #[test]
    fn area_model_invariants(wavelengths in 1usize..=1024, clusters in 2usize..=64) {
        let model = AreaModel::new(clusters, 64);
        let dynamic = model.dynamic_report(wavelengths);
        let firefly = model.firefly_report(wavelengths);
        prop_assert!(dynamic.rings.total_rings() >= firefly.rings.total_rings());
        prop_assert!(dynamic.area_mm2 >= firefly.area_mm2);
        let ring_area = MicroRingResonator::paper_area_ring().footprint_mm2();
        prop_assert!((dynamic.area_mm2 - dynamic.rings.total_rings() as f64 * ring_area).abs() < 1e-9);
        // Monotonicity in the wavelength count.
        let bigger = model.dynamic_report(wavelengths + 64);
        prop_assert!(bigger.area_mm2 >= dynamic.area_mm2);
        prop_assert!(bigger.data_waveguides >= dynamic.data_waveguides);
    }

    /// Energy accounting is non-negative, additive and proportional to bits.
    #[test]
    fn energy_model_is_linear(bits in 0u64..10_000_000) {
        let model = PhotonicEnergyModel::paper_default();
        prop_assert!(model.photonic_transfer_pj(bits) >= 0.0);
        let double = model.photonic_transfer_pj(bits * 2);
        prop_assert!((double - 2.0 * model.photonic_transfer_pj(bits)).abs() < 1e-6);
        let mut acc = EnergyAccumulator::new(model);
        acc.record_photonic_transfer(bits);
        acc.record_router_traversal(bits);
        acc.record_buffer_write(bits);
        acc.record_buffer_occupancy(bits);
        let b = acc.breakdown();
        prop_assert!(b.total_pj() >= b.photonic_pj());
        prop_assert!(b.total_pj() >= 0.0);
    }

    /// DWDM grids: flatten/unflatten round-trips and identifier widths cover
    /// the grid.
    #[test]
    fn wavelength_grid_roundtrip(total in 1usize..=2048) {
        let grid = WavelengthGrid::for_total(total, 64);
        prop_assert!(grid.capacity() >= total);
        prop_assert!(grid.capacity() - total < 64);
        for flat in [0, total / 2, grid.capacity() - 1] {
            let id = grid.unflatten(flat);
            prop_assert_eq!(grid.flatten(id), flat);
        }
        // Identifier bits must be able to address every wavelength/waveguide.
        prop_assert!(1usize << grid.wavelength_index_bits() >= grid.wavelengths_per_waveguide());
        if grid.num_waveguides() > 1 {
            prop_assert!(1usize << grid.waveguide_number_bits() >= grid.num_waveguides());
        }
    }

    /// Reservation timing: identifier payloads grow with the bandwidth set
    /// and the latency never drops below one cycle.
    #[test]
    fn reservation_timing_is_sane(rate in 1.0f64..50.0) {
        let clock = Clock::paper_default();
        let mut last_bits = 0;
        for set in BandwidthSet::ALL {
            let timing = ReservationTiming::new(set, 64, rate, clock);
            prop_assert!(timing.cycles >= 1);
            prop_assert!(timing.identifier_payload_bits >= last_bits);
            last_bits = timing.identifier_payload_bits;
        }
    }

    /// The GPU speedup model is monotone in flit size and bounded.
    #[test]
    fn gpu_speedup_is_monotone_and_bounded(frac in 0.0f64..=1.0, residual in 0.0f64..=1.0) {
        let bench = GpuBenchmark::new("x", pnoc_traffic::gpu::BenchmarkSuite::CudaSdk, 1, frac, residual);
        let mut last = 0.0;
        for flit in [32u32, 64, 128, 256, 512, 1024] {
            let s = bench.speedup(flit);
            prop_assert!(s >= 1.0 - 1e-9);
            prop_assert!(s >= last - 1e-9);
            prop_assert!(s <= 1.0 / (1.0 - frac).max(1e-9) + 1e-9);
            last = s;
        }
    }
}
