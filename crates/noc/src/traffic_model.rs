//! The interface between traffic generators and the cycle-accurate engine.
//!
//! Traffic models live in the `pnoc-traffic` crate; the simulation engine and
//! the photonic fabrics only see this trait. The engines poll a model **once
//! per cycle** through [`TrafficModel::poll_cycle`], which hands back every
//! packet created that cycle (at most one per core, ascending core order).
//! Its provided body asks [`TrafficModel::next_packet`] — the one primitive
//! every model implements — core by core, which is what a stochastic model
//! needs: each question consumes RNG state, so none may be left out. A model
//! that *knows* which cores have something to send (a closed-loop flow
//! driver, a replay feed) overrides the batch form to visit only those, so
//! generation costs per packet instead of per core; the override must stay
//! observably identical to the provided loop.
//!
//! The trait's demand interface is two answers, which d-HetPNoC reads once,
//! when it builds its demand matrix (its stand-in for the demand tables of
//! Section 3.2.1 of the thesis: the cores send demand tables to their
//! photonic router whenever the task mapping changes):
//! [`TrafficModel::demand_class`] decides how many wavelengths a transfer to
//! each destination asks for, and [`TrafficModel::source_intensity`] weighs
//! the per-cluster wavelength targets the allocation converges to.
//!
//! A model names nothing and reports no load: the pattern's name is its
//! factory's registry key, and the load is a constructor argument that a
//! model spends on its own injection decisions.

use crate::ids::{ClusterId, CoreId};
use crate::packet::{BandwidthClass, PacketDescriptor};

/// Offered load, expressed as the probability that a core injects a new
/// packet in a given cycle (packets / core / cycle).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct OfferedLoad(pub f64);

impl OfferedLoad {
    /// Zero load.
    pub const ZERO: OfferedLoad = OfferedLoad(0.0);

    /// Creates a load value, clamping to `[0, 1]`.
    #[must_use]
    pub fn new(packets_per_core_per_cycle: f64) -> Self {
        Self(packets_per_core_per_cycle.clamp(0.0, 1.0))
    }

    /// The raw packets-per-core-per-cycle value.
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }
}

/// A source of packets for the cycle-accurate simulation.
pub trait TrafficModel {
    /// Asks the model whether core `src` creates a new packet at `cycle`.
    ///
    /// At most one packet per core per cycle is generated; the engine queues
    /// requests that cannot be injected immediately.
    fn next_packet(&mut self, cycle: u64, src: CoreId) -> Option<PacketDescriptor>;

    /// Hands every packet cores `0..num_cores` create at `cycle` to `emit`,
    /// in ascending core order — the form the engines call, once per cycle.
    ///
    /// Contract: observably identical to the provided body — the same
    /// packets in the same order and the same model state afterwards.
    /// Overriding is an optimisation only, for models that can enumerate
    /// their sending cores without asking each one, or that hoist per-core
    /// work out of the loop; a model whose polls consume RNG state still
    /// asks every core, in order.
    ///
    /// `emit` may report the packet's own fate back to whatever shares state
    /// with the model (an engine tells its probes "generated" and, on a full
    /// queue, "dropped" from inside it) but nothing about any other core. An
    /// override may therefore decide the whole cycle before the first call,
    /// and must not hold a lock across `emit` that such a report takes.
    fn poll_cycle(
        &mut self,
        cycle: u64,
        num_cores: usize,
        emit: &mut dyn FnMut(CoreId, PacketDescriptor),
    ) {
        for core in (0..num_cores).map(CoreId) {
            if let Some(descriptor) = self.next_packet(cycle, core) {
                emit(core, descriptor);
            }
        }
    }

    /// Bandwidth class of the application flow from cluster `src` to cluster
    /// `dst`. This is what the cores advertise in their demand tables:
    /// d-HetPNoC requests the class's wavelengths for every transfer of the
    /// pair (and the `paper-max` policy sizes a cluster's target by its
    /// highest class).
    fn demand_class(&self, src: ClusterId, dst: ClusterId) -> BandwidthClass;

    /// Relative traffic intensity of cluster `src` compared to the chip
    /// average (mean ≈ 1.0 across clusters). Clusters running high-bandwidth
    /// applications communicate more frequently ("Traffic patterns with
    /// increasing skew demands a higher frequency of communication for high
    /// bandwidth applications", Section 3.4.1); this is the quantity the
    /// dynamic bandwidth allocation responds to: the proportional policy
    /// splits the wavelength budget across clusters by this weight.
    fn source_intensity(&self, _src: ClusterId) -> f64 {
        1.0
    }

    /// The earliest future cycle (`> now`) at which this model could generate
    /// a packet, or `None` if it will never generate again. Consulted by the
    /// event-driven engine **only while the network is otherwise idle**, to
    /// decide how far the clock may fast-forward.
    ///
    /// The default — `Some(now + 1)` — is always safe and must be kept by
    /// models whose generation decision consumes RNG state per poll (they
    /// cannot look ahead without perturbing their stream). Only models with a
    /// deterministic release schedule (paced workload flows, periodic test
    /// generators) should override this; an override must guarantee that
    /// `next_packet` returns `None` for every core at every cycle strictly
    /// before the returned one, and that the skipped polls would not have
    /// mutated observable model state.
    fn next_generation_cycle(&self, now: u64) -> Option<u64> {
        Some(now + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_load_is_clamped_to_a_probability() {
        assert_eq!(OfferedLoad::new(-1.0).value(), 0.0);
        assert_eq!(OfferedLoad::new(0.25).value(), 0.25);
        assert_eq!(OfferedLoad::new(7.0).value(), 1.0);
    }

    /// A trivial model: one packet per core per cycle, to the next core.
    struct Constant;

    impl TrafficModel for Constant {
        fn next_packet(&mut self, cycle: u64, src: CoreId) -> Option<PacketDescriptor> {
            Some(PacketDescriptor {
                src,
                dst: CoreId(src.0 + 1),
                num_flits: 1,
                flit_bits: 32,
                class: BandwidthClass::Low,
                created_cycle: cycle,
            })
        }

        fn demand_class(&self, _src: ClusterId, _dst: ClusterId) -> BandwidthClass {
            BandwidthClass::MediumHigh
        }
    }

    fn polled(model: &mut dyn TrafficModel, cycle: u64, cores: usize) -> Vec<(CoreId, CoreId)> {
        let mut seen = Vec::new();
        model.poll_cycle(cycle, cores, &mut |core, packet| {
            assert_eq!(packet.created_cycle, cycle);
            seen.push((core, packet.dst));
        });
        seen
    }

    #[test]
    fn the_provided_batch_poll_is_the_per_core_loop() {
        let mut model = Constant;
        let expected: Vec<_> = (0..5).map(|c| (CoreId(c), CoreId(c + 1))).collect();
        assert_eq!(polled(&mut model, 9, 5), expected);
        assert!(polled(&mut model, 9, 0).is_empty());
    }

    #[test]
    fn boxed_models_delegate() {
        let mut boxed: Box<dyn TrafficModel> = Box::new(Constant);
        let pkt = boxed.next_packet(3, CoreId(1)).unwrap();
        assert_eq!(pkt.dst, CoreId(2));
        assert_eq!(pkt.created_cycle, 3);
        assert_eq!(
            boxed.demand_class(ClusterId(0), ClusterId(1)),
            BandwidthClass::MediumHigh
        );
        // Default lookahead: always the very next cycle.
        assert_eq!(boxed.next_generation_cycle(41), Some(42));
    }
}
