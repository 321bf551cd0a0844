//! Bursty (Markov-modulated on-off) uniform traffic.
//!
//! Real workloads do not inject Bernoulli-smooth traffic: communication
//! phases alternate with compute phases. This generator gives every core an
//! independent two-state Markov chain (ON / OFF). While ON the core injects
//! uniform-random traffic at an elevated rate `load / duty`; while OFF it is
//! silent. The transition probabilities are chosen so that the stationary ON
//! probability equals `duty` and the mean burst length equals `burst_len`
//! cycles — so the *long-run* offered load matches the configured load while
//! the short-run load alternates between `0` and `load / duty`.
//!
//! With the defaults (`duty = 0.25`, `burst_len = 64`) the instantaneous
//! load during a burst is 4× the mean, which drives queueing far harder than
//! smooth injection at the same mean — precisely the transient regime the
//! reservation-assisted photonic transfers have to absorb.

use crate::pattern::PacketShape;
use pnoc_noc::ids::{ClusterId, CoreId};
use pnoc_noc::packet::{BandwidthClass, PacketDescriptor};
use pnoc_noc::topology::ClusterTopology;
use pnoc_noc::traffic_model::{OfferedLoad, TrafficModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Default fraction of time each core spends in the ON state.
pub(crate) const DEFAULT_DUTY: f64 = 0.25;

/// Default mean burst (ON-phase) length in cycles.
pub(crate) const DEFAULT_BURST_LEN: f64 = 64.0;

/// Markov-modulated on-off uniform traffic (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct BurstyUniformTraffic {
    topology: ClusterTopology,
    shape: PacketShape,
    load: OfferedLoad,
    duty: f64,
    burst_len: f64,
    /// Per-core ON/OFF state.
    on: Vec<bool>,
    rng: StdRng,
}

impl BurstyUniformTraffic {
    /// Creates a bursty generator with explicit burst parameters.
    ///
    /// # Panics
    ///
    /// Panics if `duty` is outside `(0, 1]` or `burst_len < 1`.
    #[must_use]
    pub(crate) fn with_burstiness(
        topology: ClusterTopology,
        shape: PacketShape,
        load: OfferedLoad,
        duty: f64,
        burst_len: f64,
        seed: u64,
    ) -> Self {
        assert!(duty > 0.0 && duty <= 1.0, "duty {duty} outside (0, 1]");
        assert!(burst_len >= 1.0, "mean burst length {burst_len} below 1");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4255_5253);
        // Start each core in its stationary distribution so the measured
        // window needs no extra burn-in beyond the engine's warm-up.
        let on = (0..topology.num_cores())
            .map(|_| rng.gen_bool(duty))
            .collect();
        Self {
            topology,
            shape,
            load,
            duty,
            burst_len,
            on,
            rng,
        }
    }

    /// Creates a bursty generator with the default burstiness
    /// ([`DEFAULT_DUTY`], [`DEFAULT_BURST_LEN`]).
    #[must_use]
    pub fn new(
        topology: ClusterTopology,
        shape: PacketShape,
        load: OfferedLoad,
        seed: u64,
    ) -> Self {
        Self::with_burstiness(topology, shape, load, DEFAULT_DUTY, DEFAULT_BURST_LEN, seed)
    }

    /// Injection probability while a core is ON (the mean load amplified by
    /// `1 / duty`, clamped to 1).
    #[must_use]
    pub(crate) fn on_load(&self) -> f64 {
        (self.load.value() / self.duty).min(1.0)
    }

    /// Advances the Markov chain of one core by one step and returns whether
    /// the core is ON afterwards.
    fn advance_state(&mut self, core: usize) -> bool {
        let p_off = 1.0 / self.burst_len;
        // Stationary ON probability = duty ⇒ p_on = p_off · duty / (1 − duty)
        // (clamped for duty = 1).
        let p_on = if self.duty >= 1.0 {
            1.0
        } else {
            (p_off * self.duty / (1.0 - self.duty)).min(1.0)
        };
        let state = self.on[core];
        let next = if state {
            !self.rng.gen_bool(p_off)
        } else {
            self.rng.gen_bool(p_on)
        };
        self.on[core] = next;
        next
    }
}

impl TrafficModel for BurstyUniformTraffic {
    fn next_packet(&mut self, cycle: u64, src: CoreId) -> Option<PacketDescriptor> {
        // The engine queries each core exactly once per cycle, so one chain
        // step per query keeps the per-core processes independent and
        // correctly timed.
        if !self.advance_state(src.0) {
            return None;
        }
        if !self.rng.gen_bool(self.on_load()) {
            return None;
        }
        let num_cores = self.topology.num_cores();
        let mut dst = CoreId(self.rng.gen_range(0..num_cores));
        while dst == src {
            dst = CoreId(self.rng.gen_range(0..num_cores));
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

    fn demand_class(&self, _src: ClusterId, _dst: ClusterId) -> BandwidthClass {
        BandwidthClass::MediumHigh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(load: f64) -> BurstyUniformTraffic {
        BurstyUniformTraffic::new(
            ClusterTopology::paper_default(),
            PacketShape::new(64, 32),
            OfferedLoad::new(load),
            13,
        )
    }

    #[test]
    fn long_run_rate_matches_the_offered_load() {
        let mut m = model(0.05);
        let cycles = 200_000;
        let generated = (0..cycles)
            .filter(|&c| m.next_packet(c, CoreId(7)).is_some())
            .count();
        let rate = generated as f64 / cycles as f64;
        assert!((rate - 0.05).abs() < 0.01, "rate {rate}, expected ≈0.05");
    }

    #[test]
    fn duty_cycle_matches_the_stationary_distribution() {
        let mut m = model(0.01);
        let steps = 200_000;
        let on = (0..steps).filter(|_| m.advance_state(3)).count();
        let duty = on as f64 / steps as f64;
        assert!(
            (duty - DEFAULT_DUTY).abs() < 0.03,
            "duty {duty}, expected ≈0.25"
        );
    }

    #[test]
    fn injection_is_burstier_than_bernoulli() {
        // Count ON→ON persistence: for a Markov chain with mean burst length
        // 64 the probability of staying ON is 1 − 1/64 ≈ 0.984, far above
        // the stationary ON probability (0.25) a memoryless process has.
        let mut m = model(0.01);
        let mut prev = m.advance_state(0);
        let (mut on_on, mut on_total) = (0usize, 0usize);
        for _ in 0..200_000 {
            let now = m.advance_state(0);
            if prev {
                on_total += 1;
                if now {
                    on_on += 1;
                }
            }
            prev = now;
        }
        let persistence = on_on as f64 / on_total.max(1) as f64;
        assert!(
            persistence > 0.95,
            "ON→ON persistence {persistence}, expected ≈0.984"
        );
    }

    #[test]
    fn destinations_are_uniform_and_never_self() {
        let mut m = model(1.0);
        let mut seen = vec![0usize; 64];
        let mut total = 0;
        for cycle in 0..50_000 {
            if let Some(p) = m.next_packet(cycle, CoreId(10)) {
                assert_ne!(p.dst, CoreId(10));
                seen[p.dst.0] += 1;
                total += 1;
            }
        }
        assert!(total > 5_000, "only {total} packets generated");
        let covered = seen.iter().filter(|&&c| c > 0).count();
        assert!(covered >= 60, "only {covered} destinations seen");
    }

    #[test]
    fn volume_shares_are_uniform() {
        // Bursts change when a core sends, not where: each other cluster
        // receives 4/63 of a source's packets, its own cluster 3/63.
        let topology = ClusterTopology::paper_default();
        let mut m = model(0.5);
        let src = CoreId(9);
        let packets = 63_000;
        let mut per_cluster = [0usize; 16];
        let mut cycle = 0;
        while per_cluster.iter().sum::<usize>() < packets {
            if let Some(p) = m.next_packet(cycle, src) {
                per_cluster[topology.cluster_of(p.dst).0] += 1;
            }
            cycle += 1;
        }
        for (cluster, &count) in per_cluster.iter().enumerate() {
            let cores = if cluster == topology.cluster_of(src).0 {
                3.0
            } else {
                4.0
            };
            let share = count as f64 / packets as f64;
            assert!(
                (share - cores / 63.0).abs() < 0.01,
                "cluster {cluster}: share {share}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "duty")]
    fn zero_duty_is_rejected() {
        let _ = BurstyUniformTraffic::with_burstiness(
            ClusterTopology::paper_default(),
            PacketShape::new(64, 32),
            OfferedLoad::new(0.1),
            0.0,
            64.0,
            1,
        );
    }
}
