//! Simulation statistics: throughput, latency, drops and energy.
//!
//! The two headline metrics of the paper's evaluation are derived here:
//!
//! * **Peak bandwidth** — "measured as average number of bits successfully
//!   arriving at all cores per second" (Section 3.4.1.1). [`SimStats`]
//!   accumulates delivered bits during the measurement window and converts
//!   them with the clock.
//! * **Packet energy / energy per message** — "the energy dissipated in
//!   transferring one packet completely from source to destination at network
//!   saturation" (Section 3.4.1.2): the accumulated [`EnergyBreakdown`]
//!   divided by the number of delivered packets.
//!
//! A run's [`SimStats`] are its counters plus the clock that converts cycles
//! to seconds; they name neither the architecture nor the traffic (a
//! scenario's canonical id does). The engine builds them: it counts every
//! measured [`SimEvent`] through [`SimStats::observe`] and every measured
//! cycle, then fills in the network's energy. A network sums the flits of a
//! step into one [`SimEvent::Flits`] total; the only tallies it keeps are
//! where the delivered bits went
//! ([`DeliveryTally`](crate::metrics::DeliveryTally)), which no counter here
//! reads.

use crate::clock::Clock;
use crate::metrics::SimEvent;
use pnoc_photonics::energy::EnergyBreakdown;

/// Statistics of one simulation run (measurement window only).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    /// Cycles in the measurement window.
    pub measured_cycles: u64,
    /// Packets created by the traffic generators.
    pub generated_packets: u64,
    /// Packets dropped at the injection queues (source overflow).
    pub dropped_packets: u64,
    /// Packets injected into the network.
    pub injected_packets: u64,
    /// Flits injected into the network.
    pub injected_flits: u64,
    /// Packets fully delivered to their destination core.
    pub delivered_packets: u64,
    /// Flits delivered.
    pub delivered_flits: u64,
    /// Bits delivered (payload of delivered flits).
    pub delivered_bits: u64,
    /// Bits delivered whose source and destination are in different clusters
    /// (i.e. that crossed the photonic fabric).
    pub delivered_photonic_bits: u64,
    /// Sum of packet latencies (creation → tail delivery), cycles.
    pub total_packet_latency: u64,
    /// Maximum packet latency observed, cycles.
    pub max_packet_latency: u64,
    /// Accumulated energy, split by component.
    pub energy: EnergyBreakdown,
    /// Clock used by the run (needed to convert cycles to seconds).
    pub clock: Clock,
}

impl SimStats {
    /// Creates an empty statistics record for a run on `clock`.
    #[must_use]
    pub fn new(clock: Clock) -> Self {
        Self {
            clock,
            ..Self::default()
        }
    }

    /// Counts one event: the single map from [`SimEvent`]s to counters. The
    /// flit counters add a step's [`SimEvent::Flits`] total. Fault
    /// transitions count nothing.
    #[inline]
    pub fn observe(&mut self, event: &SimEvent) {
        match *event {
            SimEvent::PacketGenerated { .. } => self.generated_packets += 1,
            SimEvent::PacketDropped { .. } => self.dropped_packets += 1,
            SimEvent::PacketInjected { .. } => self.injected_packets += 1,
            SimEvent::Flits {
                injected,
                delivered,
                delivered_bits,
                photonic_bits,
            } => {
                self.injected_flits += u64::from(injected);
                self.delivered_flits += u64::from(delivered);
                self.delivered_bits += delivered_bits;
                self.delivered_photonic_bits += photonic_bits;
            }
            SimEvent::PacketDelivered { latency, .. } => {
                self.delivered_packets += 1;
                self.total_packet_latency += latency;
                self.max_packet_latency = self.max_packet_latency.max(latency);
            }
            SimEvent::FaultApplied { .. } | SimEvent::FaultRepaired { .. } => {}
        }
    }

    /// Aggregate accepted bandwidth (all cores) in Gb/s — the paper's
    /// "peak bandwidth" once measured at saturation.
    #[must_use]
    pub fn accepted_bandwidth_gbps(&self) -> f64 {
        self.clock
            .bandwidth_gbps(self.delivered_bits, self.measured_cycles)
    }

    /// Accepted bandwidth per core in Gb/s (the "peak core bandwidth" of
    /// Figures 3-5, 3-7 and 3-10).
    #[must_use]
    pub fn accepted_bandwidth_per_core_gbps(&self, num_cores: usize) -> f64 {
        if num_cores == 0 {
            return 0.0;
        }
        self.accepted_bandwidth_gbps() / num_cores as f64
    }

    /// Mean packet latency in cycles.
    #[must_use]
    pub fn average_packet_latency(&self) -> f64 {
        if self.delivered_packets == 0 {
            0.0
        } else {
            self.total_packet_latency as f64 / self.delivered_packets as f64
        }
    }

    /// Energy per delivered packet ("packet energy" / "energy per message"),
    /// in pico-joules.
    #[must_use]
    pub fn packet_energy_pj(&self) -> f64 {
        if self.delivered_packets == 0 {
            0.0
        } else {
            self.energy.total_pj() / self.delivered_packets as f64
        }
    }

    /// Fraction of generated packets that were dropped at the source queues.
    #[must_use]
    pub fn drop_rate(&self) -> f64 {
        if self.generated_packets == 0 {
            0.0
        } else {
            self.dropped_packets as f64 / self.generated_packets as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnoc_noc::ids::CoreId;

    fn stats() -> SimStats {
        SimStats::new(Clock::paper_default())
    }

    fn deliver(s: &mut SimStats, latency: u64) {
        let (src, dst) = (CoreId(0), CoreId(1));
        s.observe(&SimEvent::PacketDelivered { src, dst, latency });
    }

    #[test]
    fn bandwidth_from_delivered_bits() {
        let mut s = stats();
        s.measured_cycles = 10_000;
        s.delivered_bits = 3_200_000;
        // 3.2 Mbit over 4 µs = 800 Gb/s.
        assert!((s.accepted_bandwidth_gbps() - 800.0).abs() < 1e-6);
        assert!((s.accepted_bandwidth_per_core_gbps(64) - 12.5).abs() < 1e-6);
    }

    #[test]
    fn latency_accounting() {
        let mut s = stats();
        deliver(&mut s, 10);
        deliver(&mut s, 30);
        assert_eq!(s.delivered_packets, 2);
        assert!((s.average_packet_latency() - 20.0).abs() < 1e-12);
        assert_eq!(s.max_packet_latency, 30);
    }

    #[test]
    fn observe_maps_each_event_to_its_counters() {
        let (src, dst) = (CoreId(0), CoreId(9));
        let mut s = stats();
        for event in [
            SimEvent::PacketGenerated { src },
            SimEvent::PacketGenerated { src },
            SimEvent::PacketDropped { src },
            SimEvent::PacketInjected { src },
            SimEvent::Flits {
                injected: 1,
                delivered: 2,
                delivered_bits: 48,
                photonic_bits: 32,
            },
            SimEvent::Flits {
                injected: 3,
                delivered: 0,
                delivered_bits: 0,
                photonic_bits: 0,
            },
            SimEvent::PacketDelivered {
                src,
                dst,
                latency: 7,
            },
            SimEvent::FaultApplied { fault: 0 },
            SimEvent::FaultRepaired { fault: 0 },
        ] {
            s.observe(&event);
        }
        assert_eq!(
            [
                s.generated_packets,
                s.dropped_packets,
                s.injected_packets,
                s.injected_flits,
                s.delivered_flits,
                s.delivered_bits,
                s.delivered_photonic_bits,
                s.delivered_packets,
                s.total_packet_latency,
                s.max_packet_latency,
                s.measured_cycles,
            ],
            [2, 1, 1, 4, 2, 48, 32, 1, 7, 7, 0]
        );
    }

    #[test]
    fn packet_energy_divides_total_by_packets() {
        let mut s = stats();
        s.energy.launch_pj = 100.0;
        s.energy.electrical_pj = 300.0;
        deliver(&mut s, 1);
        deliver(&mut s, 1);
        assert!((s.packet_energy_pj() - 200.0).abs() < 1e-12);
    }

    #[test]
    fn rates_handle_zero_denominators() {
        let s = stats();
        assert_eq!(s.accepted_bandwidth_gbps(), 0.0);
        assert_eq!(s.average_packet_latency(), 0.0);
        assert_eq!(s.packet_energy_pj(), 0.0);
        assert_eq!(s.drop_rate(), 0.0);
    }

    #[test]
    fn drop_and_delivery_ratios() {
        let mut s = stats();
        s.generated_packets = 10;
        s.dropped_packets = 2;
        s.injected_packets = 8;
        s.delivered_packets = 4;
        assert!((s.drop_rate() - 0.2).abs() < 1e-12);
    }
}
