//! `refill`, the allocation a d-HetPNoC table holds, is the token
//! protocol's fixed point computed on pool counts: from any state a
//! `DbaController` can reach, installing targets and converging the
//! controller with `cap + 1` rotations leaves exactly the pools `refill`
//! returns from that state's pools.
//!
//! A case draws the chip's shape (1–16 clusters, a reserve of 1–4, a cap up
//! to 70 above it, a budget from none to every cluster's headroom) and 1–6
//! rounds of targets. Round 1 starts from the fresh controller. After each
//! round the controller is retargeted and stopped after 1–3 rotations, or
//! converged, so the next round starts from an arbitrary history: pools
//! above their new targets, short clusters, or a spent budget.
//!
//! The vendored `proptest` does not shrink, so every failure message
//! carries the case.

use d_hetpnoc_repro::dhetpnoc::dba::DbaController;
use d_hetpnoc_repro::sim::system::refill;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn refill_is_converge_on_pool_counts(
        clusters in 1usize..=16,
        reserve in 1usize..=4,
        headroom in 0usize..=70,
        budget_draw in 0usize..1_000_000,
        rounds in prop::collection::vec(
            (prop::collection::vec(0usize..=76, 16), 0usize..=3),
            1..=6,
        ),
    ) {
        let cap = reserve + headroom;
        let budget = budget_draw % (clusters * headroom + 1);
        let mut controller = DbaController::new(clusters, budget, reserve, cap, 1);
        for (round, (raw_targets, stop)) in rounds.iter().enumerate() {
            let raw_targets = &raw_targets[..clusters];
            let targets: Vec<usize> =
                raw_targets.iter().map(|&t| t.clamp(reserve, cap)).collect();
            let start = controller.allocation_snapshot();
            let mut oracle = controller.clone();
            oracle.set_targets(raw_targets);
            oracle.converge(cap + 1);
            prop_assert_eq!(
                refill(&start, &targets, budget, reserve, cap),
                oracle.allocation_snapshot(),
                "round {} of {} clusters, reserve {}, cap {}, budget {}: from {:?} to {:?}",
                round,
                clusters,
                reserve,
                cap,
                budget,
                start,
                targets
            );
            controller.set_targets(raw_targets);
            controller.converge(if *stop == 0 { cap + 1 } else { *stop });
        }
    }
}
