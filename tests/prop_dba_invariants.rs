//! Property-based tests of the dynamic bandwidth allocation protocol: under
//! arbitrary target sequences and token schedules, no wavelength is ever
//! double-allocated, no cluster starves, no cluster exceeds the per-channel
//! cap, and the budget is never exceeded.

use d_hetpnoc_repro::prelude::*;
use pnoc_noc::ids::ClusterId;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Invariants hold after convergence for arbitrary target vectors.
    #[test]
    fn allocation_invariants_hold_for_any_targets(
        targets in prop::collection::vec(0usize..=12, 16),
    ) {
        let mut controller = DbaController::new(16, 48, 1, 8, 1);
        controller.set_targets(&targets);
        controller.converge(64);
        prop_assert!(controller.check_invariants().is_ok());
        let allocation = controller.allocation_snapshot();
        // No starvation, cap respected, budget respected.
        prop_assert!(allocation.iter().all(|&p| (1..=8).contains(&p)));
        prop_assert!(controller.total_held() <= 64);
        // Every cluster reaches its (clamped) target unless the budget ran out.
        let clamped: Vec<usize> = targets.iter().map(|&t| t.clamp(1, 8)).collect();
        if clamped.iter().sum::<usize>() <= 64 {
            for (c, &target) in clamped.iter().enumerate() {
                prop_assert_eq!(
                    allocation[c], target,
                    "cluster {} should reach target {} when the budget suffices", c, target
                );
            }
        }
    }

    /// Invariants hold at every single step of an arbitrary interleaving of
    /// retargeting and token circulation (not just after convergence).
    #[test]
    fn allocation_invariants_hold_under_retargeting(
        retargets in prop::collection::vec(
            (0usize..16, 0usize..=12, 1usize..=200),
            1..6
        ),
    ) {
        let mut controller = DbaController::new(16, 48, 1, 8, 1);
        let mut targets = vec![4usize; 16];
        for (cluster, new_target, ticks) in retargets {
            targets[cluster] = new_target;
            controller.set_targets(&targets);
            for _ in 0..ticks {
                controller.tick();
                prop_assert!(controller.check_invariants().is_ok());
            }
        }
    }

    /// Skipping is ticking, and a settled controller is a fixed point: over
    /// random shapes, hop latencies, targets, request tables and spans, with
    /// re-targets between skips, `skip_cycles(span)` leaves the whole
    /// controller (`token_visits` included) equal to `span` ticks; after
    /// enough cycles every cluster is at its target or the budget is spent;
    /// and one more `converge(1)` then changes nothing.
    #[test]
    fn skipping_equals_ticking_and_settled_controllers_stay_put(
        clusters in 2usize..=20,
        hop in 1u64..=4,
        reserved in 1usize..=2,
        headroom in 0usize..=6,
        dynamic_per_cluster in 0usize..=4,
        rounds in prop::collection::vec(
            (
                prop::collection::vec(0usize..=10, 20),
                prop::collection::vec(0usize..=10, 20),
                any::<bool>(),
                0u64..300,
            ),
            1..6
        ),
    ) {
        let cap = reserved + headroom;
        let dynamic = clusters * dynamic_per_cluster;
        let mut controller = DbaController::new(clusters, dynamic, reserved, cap, hop);
        for (targets, demands, new_requests, span) in rounds {
            controller.set_targets(&targets[..clusters]);
            if new_requests {
                for src in 0..clusters {
                    let mut demand = DemandTable::new(clusters);
                    for dst in (0..clusters).filter(|&dst| dst != src) {
                        demand.set(ClusterId(dst), demands[(src + dst) % 20]);
                    }
                    let mut request = RequestTable::new(clusters);
                    request.rebuild(std::slice::from_ref(&demand));
                    controller.set_request_table(ClusterId(src), request);
                }
            }
            // Acquisition takes at most one wavelength per visit, so `cap`
            // rotations reach every reachable target and one more refreshes.
            let settle = (cap as u64 + 2) * clusters as u64 * hop;
            for span in [span, settle] {
                let mut ticked = controller.clone();
                for _ in 0..span {
                    ticked.tick();
                    prop_assert!(ticked.check_invariants().is_ok());
                }
                controller.skip_cycles(span);
                prop_assert_eq!(&controller, &ticked, "span {}", span);
            }
            let free = dynamic + clusters * reserved - controller.total_held();
            for c in (0..clusters).map(ClusterId) {
                let (pool, target) = (controller.pool(c), controller.target(c));
                prop_assert!(
                    pool == target || (pool < target && free == 0),
                    "cluster {} holds {} for target {} with {} free", c.0, pool, target, free
                );
            }
            let mut again = controller.clone();
            again.converge(1);
            prop_assert_eq!(&again, &controller, "converge(1) moved a settled controller");
        }
    }

    /// The token never hands out more wavelengths than it has, and releasing
    /// what was allocated always restores the free count.
    #[test]
    fn token_allocate_release_roundtrip(
        size in 1usize..256,
        requests in prop::collection::vec(0usize..64, 1..20),
    ) {
        let mut token = Token::new(size);
        let mut held: Vec<Vec<usize>> = Vec::new();
        for want in requests {
            let got = token.allocate(want);
            prop_assert!(got.len() <= want);
            held.push(got);
            prop_assert_eq!(token.allocated_count() + token.free_count(), size);
        }
        let total_held: usize = held.iter().map(Vec::len).sum();
        prop_assert_eq!(token.allocated_count(), total_held);
        for h in &held {
            token.release(h);
        }
        prop_assert_eq!(token.free_count(), size);
    }

    /// Request tables always equal the element-wise maximum of the demand
    /// tables they were built from.
    #[test]
    fn request_table_is_elementwise_max(
        demands in prop::collection::vec(
            prop::collection::vec(0usize..=64, 16),
            1..5
        ),
    ) {
        let tables: Vec<DemandTable> = demands
            .iter()
            .map(|row| {
                let mut t = DemandTable::new(16);
                for (d, &w) in row.iter().enumerate() {
                    t.set(ClusterId(d), w);
                }
                t
            })
            .collect();
        let mut request = RequestTable::new(16);
        request.rebuild(&tables);
        for d in 0..16 {
            let expected = demands.iter().map(|row| row[d]).max().unwrap();
            prop_assert_eq!(request.get(ClusterId(d)), expected);
        }
        prop_assert_eq!(
            request.max_request(),
            demands.iter().flat_map(|r| r.iter().copied()).max().unwrap()
        );
    }

    /// Token sizing (eq. 1) and hop latency (eq. 2) behave monotonically.
    #[test]
    fn token_timing_is_monotone(waveguides in 1usize..=16, reserved in 0usize..=64) {
        let bits = token_size_bits(waveguides, 64, reserved.min(waveguides * 64));
        prop_assert!(bits <= waveguides * 64);
        let hop_small = token_hop_cycles(bits.max(1), 64, 12.5, Clock::paper_default());
        let hop_large = token_hop_cycles(bits.max(1) * 2, 64, 12.5, Clock::paper_default());
        prop_assert!(hop_small >= 1);
        prop_assert!(hop_large >= hop_small);
    }
}
