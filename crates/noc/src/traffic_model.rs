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
//! observably identical to the provided loop. The trait also exposes the
//! *per-cluster-pair* bandwidth class and traffic volume share, which the
//! d-HetPNoC dynamic-bandwidth-allocation logic uses to populate its demand
//! tables (Section 3.2.1 of the thesis: the cores send demand tables to
//! their photonic router whenever the task mapping changes).

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
    /// their sending cores without asking each one; models whose polls
    /// consume RNG state keep the provided loop.
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

    /// The offered load the model is currently configured for.
    fn offered_load(&self) -> OfferedLoad;

    /// Bandwidth class of the application flow from cluster `src` to cluster
    /// `dst`. This is what the cores advertise in their demand tables.
    fn demand_class(&self, src: ClusterId, dst: ClusterId) -> BandwidthClass;

    /// Fraction of the traffic volume leaving cluster `src` that is destined
    /// to cluster `dst` (0..=1; the values for all `dst != src` sum to ≈ 1).
    /// d-HetPNoC uses this to weight its wavelength requests in proportion to
    /// the traffic requirement (Section 3.1).
    fn volume_share(&self, src: ClusterId, dst: ClusterId) -> f64;

    /// Relative traffic intensity of cluster `src` compared to the chip
    /// average (mean ≈ 1.0 across clusters). Clusters running high-bandwidth
    /// applications communicate more frequently ("Traffic patterns with
    /// increasing skew demands a higher frequency of communication for high
    /// bandwidth applications", Section 3.4.1); this is the quantity the
    /// dynamic bandwidth allocation responds to.
    fn source_intensity(&self, _src: ClusterId) -> f64 {
        1.0
    }

    /// Human-readable name used in reports ("uniform-random", "skewed-3", ...).
    fn name(&self) -> String;

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

/// Blanket implementation so that boxed traffic models can be used wherever a
/// concrete model is expected.
impl<T: TrafficModel + ?Sized> TrafficModel for Box<T> {
    fn next_packet(&mut self, cycle: u64, src: CoreId) -> Option<PacketDescriptor> {
        (**self).next_packet(cycle, src)
    }

    // Forwarded explicitly: the provided body would loop over the box's
    // `next_packet` and never reach the inner model's override.
    fn poll_cycle(
        &mut self,
        cycle: u64,
        num_cores: usize,
        emit: &mut dyn FnMut(CoreId, PacketDescriptor),
    ) {
        (**self).poll_cycle(cycle, num_cores, emit);
    }

    fn offered_load(&self) -> OfferedLoad {
        (**self).offered_load()
    }

    fn demand_class(&self, src: ClusterId, dst: ClusterId) -> BandwidthClass {
        (**self).demand_class(src, dst)
    }

    fn volume_share(&self, src: ClusterId, dst: ClusterId) -> f64 {
        (**self).volume_share(src, dst)
    }

    fn source_intensity(&self, src: ClusterId) -> f64 {
        (**self).source_intensity(src)
    }

    fn name(&self) -> String {
        (**self).name()
    }

    fn next_generation_cycle(&self, now: u64) -> Option<u64> {
        (**self).next_generation_cycle(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offered_load_is_clamped() {
        assert_eq!(OfferedLoad::new(-1.0).value(), 0.0);
        assert_eq!(OfferedLoad::new(0.25).value(), 0.25);
        assert_eq!(OfferedLoad::new(7.0).value(), 1.0);
    }

    /// A trivial model used to exercise the boxed blanket implementation.
    struct Constant {
        load: OfferedLoad,
    }

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

        fn offered_load(&self) -> OfferedLoad {
            self.load
        }

        fn demand_class(&self, _src: ClusterId, _dst: ClusterId) -> BandwidthClass {
            BandwidthClass::MediumHigh
        }

        fn volume_share(&self, _src: ClusterId, _dst: ClusterId) -> f64 {
            1.0 / 15.0
        }

        fn name(&self) -> String {
            "constant".to_string()
        }
    }

    /// Overrides the batch form (and says so): one packet from core 2, which
    /// the per-core primitive would never produce.
    struct Batched {
        inner: Constant,
        batch_polls: u32,
    }

    impl TrafficModel for Batched {
        fn next_packet(&mut self, _cycle: u64, _src: CoreId) -> Option<PacketDescriptor> {
            None
        }

        fn poll_cycle(
            &mut self,
            cycle: u64,
            _num_cores: usize,
            emit: &mut dyn FnMut(CoreId, PacketDescriptor),
        ) {
            self.batch_polls += 1;
            let packet = self.inner.next_packet(cycle, CoreId(2)).expect("constant");
            emit(CoreId(2), packet);
        }

        fn offered_load(&self) -> OfferedLoad {
            self.inner.offered_load()
        }

        fn demand_class(&self, src: ClusterId, dst: ClusterId) -> BandwidthClass {
            self.inner.demand_class(src, dst)
        }

        fn volume_share(&self, src: ClusterId, dst: ClusterId) -> f64 {
            self.inner.volume_share(src, dst)
        }

        fn name(&self) -> String {
            format!("batched-{}", self.batch_polls)
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
        let mut model = Constant {
            load: OfferedLoad::ZERO,
        };
        let expected: Vec<_> = (0..5).map(|c| (CoreId(c), CoreId(c + 1))).collect();
        assert_eq!(polled(&mut model, 9, 5), expected);
        assert!(polled(&mut model, 9, 0).is_empty());
    }

    #[test]
    fn a_boxed_model_reaches_its_batch_override() {
        let mut boxed: Box<Box<dyn TrafficModel>> = Box::new(Box::new(Batched {
            inner: Constant {
                load: OfferedLoad::ZERO,
            },
            batch_polls: 0,
        }));
        // Through two boxes: the provided loop over `next_packet` would
        // yield nothing and leave the counter at zero.
        assert_eq!(polled(&mut boxed, 4, 64), vec![(CoreId(2), CoreId(3))]);
        assert_eq!(boxed.name(), "batched-1");
    }

    #[test]
    fn boxed_models_delegate() {
        let mut boxed: Box<dyn TrafficModel> = Box::new(Constant {
            load: OfferedLoad::new(0.75),
        });
        assert_eq!(boxed.offered_load().value(), 0.75);
        let pkt = boxed.next_packet(3, CoreId(1)).unwrap();
        assert_eq!(pkt.dst, CoreId(2));
        assert_eq!(pkt.created_cycle, 3);
        assert_eq!(boxed.name(), "constant");
        assert_eq!(
            boxed.demand_class(ClusterId(0), ClusterId(1)),
            BandwidthClass::MediumHigh
        );
        // Default lookahead: always the very next cycle.
        assert_eq!(boxed.next_generation_cycle(41), Some(42));
    }
}
