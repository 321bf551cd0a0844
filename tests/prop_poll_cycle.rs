//! The contract of [`TrafficModel::poll_cycle`]: an override is observably
//! identical to the provided per-core loop over `next_packet` — the same
//! packets in the same order every cycle, and the same behaviour afterwards.
//!
//! Two copies of one model run in lock step, one polled through the batch
//! form and one through the loop, with identical feedback. The closed-loop
//! flow driver (the override with the most state) gets random injection,
//! drop and delivery interleavings; every registered stochastic pattern is
//! pinned to the provided body. The vendored `proptest` does not shrink, so
//! every failure message carries the seed that drove the interleaving.

use d_hetpnoc_repro::noc::ids::CoreId;
use d_hetpnoc_repro::noc::packet::PacketDescriptor;
use d_hetpnoc_repro::noc::traffic_model::{OfferedLoad, TrafficModel};
use d_hetpnoc_repro::sim::config::{BandwidthSet, SimConfig};
use d_hetpnoc_repro::sim::metrics::{Probe, SimEvent};
use d_hetpnoc_repro::sim::sweep::derive_point_seed;
use d_hetpnoc_repro::sim::workload::{FlowProbe, WorkloadDriver};
use d_hetpnoc_repro::traffic::factory::{
    lookup_traffic_factory, registered_traffic_patterns, TrafficSpec,
};
use d_hetpnoc_repro::traffic::pattern::PacketShape;
use d_hetpnoc_repro::workload::dag::Workload;
use d_hetpnoc_repro::workload::flow::FlowId;
use d_hetpnoc_repro::workload::registry::{
    lookup_workload_factory, registered_workloads, WorkloadSpec,
};
use proptest::prelude::*;
use std::sync::Arc;

/// The interleaving stream, a pure function of the seed: draw `i` is the
/// sweep engine's own SplitMix64 derivation for point `i`.
struct Stream {
    seed: u64,
    draws: usize,
}

impl Stream {
    fn next(&mut self) -> u64 {
        self.draws += 1;
        derive_point_seed(self.seed, self.draws)
    }

    /// True once in `n` draws.
    fn one_in(&mut self, n: u64) -> bool {
        self.next().is_multiple_of(n)
    }
}

/// One copy of the closed-loop driver: the model, its probe, and the drain
/// condition they share.
struct Side {
    driver: WorkloadDriver,
    traffic: Box<dyn TrafficModel + Send>,
    probe: FlowProbe,
}

impl Side {
    fn new(workload: &Arc<Workload>, config: &SimConfig) -> Self {
        let driver = WorkloadDriver::new(Arc::clone(workload), config);
        let (traffic, probe) = (driver.traffic(), driver.probe());
        Self {
            driver,
            traffic,
            probe,
        }
    }
}

/// What the engine reports from inside `emit`: the packet was generated
/// and, when its bit of `drops` is set, refused by a full injection queue.
fn report_fate(probe: &mut FlowProbe, cycle: u64, src: CoreId, drops: u64) {
    probe.on_event(cycle, &SimEvent::PacketGenerated { src });
    if drops >> src.0 & 1 == 1 {
        probe.on_event(cycle, &SimEvent::PacketDropped { src });
    }
}

/// Runs `workload` on two drivers in lock step — `batched` through
/// `poll_cycle`, `looped` through the per-core loop — polling cores
/// `0..polled`, feeding both probes the same seeded stream of drops,
/// injections, out-of-order deliveries and ignored flit events, then lets
/// everything still in flight land. Fails on the first difference.
fn lock_step(workload: Workload, polled: usize, seed: u64) -> Result<(), String> {
    let config = SimConfig::fast(BandwidthSet::Set1);
    let context = format!("seed {seed}, '{}', {polled} cores", workload.name());
    let total_packets = workload.total_packets(config.bandwidth_set.packet_bits());
    let spans_every_source = workload.max_core() < polled;
    let workload = Arc::new(workload);
    let mut batched = Side::new(&workload, &config);
    let mut looped = Side::new(&workload, &config);
    let mut stream = Stream { seed, draws: 0 };
    // Packets waiting in an injection queue, and on the wire.
    let mut queued: Vec<(CoreId, CoreId)> = Vec::new();
    let mut in_flight: Vec<(CoreId, CoreId)> = Vec::new();
    let random_until = 150 + stream.next() % 150;
    let give_up = random_until + 4 * total_packets + 1_000;
    let mut cycle = 0;
    while cycle < give_up {
        let settling = cycle >= random_until;
        // About one emission in sixteen is dropped while the stream is random.
        let drops = if settling {
            0
        } else {
            stream.next() & stream.next() & stream.next() & stream.next()
        };

        let mut got: Vec<(CoreId, PacketDescriptor)> = Vec::new();
        batched
            .traffic
            .poll_cycle(cycle, polled, &mut |core, packet| {
                got.push((core, packet));
                report_fate(&mut batched.probe, cycle, core, drops);
            });
        let mut want = Vec::new();
        for core in (0..polled).map(CoreId) {
            if let Some(packet) = looped.traffic.next_packet(cycle, core) {
                want.push((core, packet));
                report_fate(&mut looped.probe, cycle, core, drops);
            }
        }
        prop_assert_eq!(&got, &want, "{context}: packets of cycle {cycle}");
        queued.extend(
            want.iter()
                .filter(|(core, _)| drops >> core.0 & 1 == 0)
                .map(|(core, packet)| (*core, packet.dst)),
        );

        // The same feedback to both probes: some queued packets inject, some
        // in-flight ones land (any order), plus the cycle's flit total,
        // which neither needs.
        let mut events = Vec::new();
        queued.retain(|&(src, dst)| {
            let inject = settling || stream.one_in(2);
            if inject {
                events.push(SimEvent::PacketInjected { src });
                in_flight.push((src, dst));
            }
            !inject
        });
        while !in_flight.is_empty() && (settling || stream.one_in(3)) {
            let landed = in_flight.swap_remove(stream.next() as usize % in_flight.len());
            let (src, dst) = landed;
            events.push(SimEvent::PacketDelivered {
                src,
                dst,
                latency: 7,
            });
        }
        if !events.is_empty() {
            events.push(SimEvent::Flits {
                injected: events.len() as u32,
                delivered: 0,
                delivered_bits: 0,
                photonic_bits: 0,
            });
        }
        for event in &events {
            batched.probe.on_event(cycle, event);
            looped.probe.on_event(cycle, event);
        }

        let next = batched.traffic.next_generation_cycle(cycle);
        prop_assert_eq!(
            next,
            looped.traffic.next_generation_cycle(cycle),
            "{context}: look-ahead after cycle {cycle}"
        );
        prop_assert_eq!(
            batched.driver.drained(),
            looped.driver.drained(),
            "{context}: drain state after cycle {cycle}"
        );
        if batched.driver.drained() {
            break;
        }
        // With nothing outstanding the engine would fast-forward; do so too,
        // half of the time, so timed releases are reached both ways.
        let idle = queued.is_empty() && in_flight.is_empty();
        cycle = match next {
            Some(target) if idle && stream.one_in(2) => target.max(cycle + 1),
            None if idle => break,
            _ => cycle + 1,
        };
    }
    prop_assert_eq!(
        batched.probe.report(),
        looped.probe.report(),
        "{context}: final flow metrics"
    );
    if spans_every_source {
        prop_assert!(batched.driver.drained(), "{context}: the DAG must drain");
    }
    Ok(())
}

/// Timed releases, dependencies, a source above most `polled` cuts, and two
/// flows on each of two (src, dst) pairs, so delivery attribution queues
/// more than one open flow.
fn hand_made_dag() -> Workload {
    let mut dag = Workload::builder("hand-made");
    // (src, dst, bytes, deps, release cycle), in flow id order.
    let flows: [(usize, usize, u64, &[usize], u64); 8] = [
        (0, 5, 700, &[], 0),
        (0, 5, 256, &[], 0),
        (3, 9, 300, &[], 17),
        (3, 9, 256, &[0], 40),
        (5, 0, 1_000, &[1, 2], 0),
        (63, 1, 256, &[], 5),
        (9, 3, 2_000, &[3], 400),
        (0, 12, 256, &[5], 0),
    ];
    for (src, dst, bytes, deps, release) in flows {
        dag.push(CoreId(src), CoreId(dst), bytes);
        for &dep in deps {
            dag.after(FlowId(dep));
        }
        dag.released_at(release);
    }
    dag.finish().expect("a DAG")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `FlowTraffic::poll_cycle` ≡ the loop over every registered collective
    /// at random sizes, polling either the whole chip or a prefix of it that
    /// may cut the workload's sources off.
    #[test]
    fn the_flow_driver_batch_poll_equals_the_per_core_loop_on_collectives(
        seed in 0u64..u64::MAX,
        size in 2usize..=64,
        bytes in 1u64..6_000,
        cut in 1usize..=64,
        whole_chip in any::<bool>(),
    ) {
        for name in registered_workloads() {
            let factory = lookup_workload_factory(&name).expect("just listed");
            let workload = factory.build(&WorkloadSpec { size, bytes_per_node: bytes });
            let polled = if whole_chip { 64 } else { cut };
            lock_step(workload, polled, seed)?;
        }
    }

    /// The same on a DAG with timed releases and shared (src, dst) pairs.
    #[test]
    fn the_flow_driver_batch_poll_equals_the_per_core_loop_on_a_timed_dag(
        seed in 0u64..u64::MAX,
        cut in 1usize..=64,
        whole_chip in any::<bool>(),
    ) {
        let polled = if whole_chip { 64 } else { cut };
        lock_step(hand_made_dag(), polled, seed)?;
    }

    /// No registered pattern overrides the batch form today; this pins that
    /// whoever adds an override keeps it equal to the loop, RNG stream
    /// included (the two copies must still agree cycles later).
    #[test]
    fn every_registered_pattern_polls_like_the_per_core_loop(
        seed in 0u64..u64::MAX,
        load in 0.01f64..0.6,
        cores in 1usize..=64,
    ) {
        let config = SimConfig::fast(BandwidthSet::Set1);
        let shape = PacketShape::new(
            config.bandwidth_set.packet_flits(),
            config.bandwidth_set.flit_bits(),
        );
        let spec = TrafficSpec::new(config.topology, shape, OfferedLoad::new(load), seed);
        for name in registered_traffic_patterns() {
            let factory = lookup_traffic_factory(&name).expect("just listed");
            let (mut batched, mut looped) = (factory.build(&spec), factory.build(&spec));
            for cycle in 0..300 {
                let mut got = Vec::new();
                batched.poll_cycle(cycle, cores, &mut |core, packet| got.push((core, packet)));
                let want: Vec<_> = (0..cores)
                    .map(CoreId)
                    .filter_map(|core| looped.next_packet(cycle, core).map(|p| (core, p)))
                    .collect();
                prop_assert_eq!(
                    got, want,
                    "seed {seed}: '{name}' at load {load} on {cores} cores, cycle {cycle}"
                );
            }
        }
    }
}
