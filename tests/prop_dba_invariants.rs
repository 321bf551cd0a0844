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

    /// Ticking settles at a fixed point of `converge`: over random shapes,
    /// hop latencies and targets, with re-targets between rounds, `cap + 2`
    /// rotations of the ring leave every cluster at its target or the
    /// budget spent, and one more `converge(1)` then changes nothing.
    #[test]
    fn ticking_settles_at_a_fixed_point_of_converge(
        clusters in 2usize..=20,
        hop in 1u64..=4,
        reserved in 1usize..=2,
        headroom in 0usize..=6,
        dynamic_per_cluster in 0usize..=4,
        rounds in prop::collection::vec(prop::collection::vec(0usize..=10, 20), 1..6),
    ) {
        let cap = reserved + headroom;
        let dynamic = clusters * dynamic_per_cluster;
        let mut controller = DbaController::new(clusters, dynamic, reserved, cap, hop);
        for targets in rounds {
            controller.set_targets(&targets[..clusters]);
            // Acquisition takes at most one wavelength per visit, so `cap`
            // rotations reach every reachable target and the next settles.
            for _ in 0..(cap as u64 + 2) * clusters as u64 * hop {
                controller.tick();
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

    /// From a fresh controller, `converge` lands on a closed form. Clamp the
    /// targets to `[reserve, cap]`, fill every cluster up to a common level
    /// `L` (never above its target), the largest level whose total fits the
    /// dynamic budget, and hand what is left over one wavelength each,
    /// lowest cluster index first, to clusters still below their target.
    #[test]
    fn fresh_convergence_is_a_water_fill_of_the_budget(
        clusters in 1usize..=20,
        reserved in 1usize..=3,
        headroom in 0usize..=8,
        dynamic in 0usize..=160,
        raw_targets in prop::collection::vec(0usize..=14, 20),
    ) {
        let cap = reserved + headroom;
        let raw_targets = &raw_targets[..clusters];
        let targets: Vec<usize> = raw_targets.iter().map(|&t| t.clamp(reserved, cap)).collect();
        let filled = |level: usize| -> usize {
            targets.iter().map(|&t| t.min(level) - reserved).sum()
        };
        let level = (reserved..=cap)
            .take_while(|&level| filled(level) <= dynamic)
            .last()
            .expect("the reserve level spends nothing");
        let mut leftover = dynamic - filled(level);
        let mut expected: Vec<usize> = targets.iter().map(|&t| t.min(level)).collect();
        for (pool, &target) in expected.iter_mut().zip(&targets) {
            if leftover > 0 && *pool < target {
                *pool += 1;
                leftover -= 1;
            }
        }
        let mut controller = DbaController::new(clusters, dynamic, reserved, cap, 1);
        controller.set_targets(raw_targets);
        // One wavelength per visit: `cap - reserved` rotations fill every
        // target the budget allows, and one more finds nothing to change.
        controller.converge(cap - reserved + 1);
        prop_assert_eq!(controller.allocation_snapshot(), expected);
        prop_assert!(controller.check_invariants().is_ok());
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
