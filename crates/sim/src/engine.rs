#![doc = include_str!("engine.md")]

use crate::clock::Clock;
use crate::config::SimConfig;
use crate::metrics::{EventSink, Probe, SimEvent};
use crate::stats::SimStats;
use pnoc_photonics::energy::EnergyBreakdown;
use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide executor selector: `true` (the default) lets the engine act
/// on [`CycleNetwork::next_event_cycle`]; `false` forces the per-cycle
/// reference executor used by cross-engine determinism checks.
static EVENT_DRIVEN: AtomicBool = AtomicBool::new(true);

/// Selects the executor for subsequent engine runs: `true` (the default)
/// enables idle-gap fast-forwarding, `false` forces stepping every cycle.
/// Both executors produce bitwise-identical results; the per-cycle mode
/// exists as the reference for cross-engine determinism diffs.
pub fn set_event_driven(enabled: bool) {
    EVENT_DRIVEN.store(enabled, Ordering::Relaxed);
}

/// Whether the event-driven executor is currently enabled.
#[must_use]
pub fn event_driven_enabled() -> bool {
    EVENT_DRIVEN.load(Ordering::Relaxed)
}

/// A network that can be advanced cycle by cycle.
///
/// `Send` is a supertrait so a built network can be handed to a `pnoc-exec`
/// worker: the hierarchical engine shards one simulation into per-pod
/// networks and steps them as batch jobs.
pub trait CycleNetwork: Send {
    /// Advances the network by one cycle, reporting observable events
    /// ([`SimEvent`]) to `sink` as they happen. These events are the only
    /// source of a run's [`SimStats`] counters.
    fn step_observed(&mut self, cycle: u64, sink: &mut dyn EventSink);

    /// Marks the beginning of the measurement window: energy accumulated so
    /// far (the warm-up) is discarded.
    fn begin_measurement(&mut self, cycle: u64);

    /// Energy accumulated since measurement began: the one [`SimStats`]
    /// field the event stream cannot carry. The engine reads it once, after
    /// the last cycle of a run, and counts every other field itself from the
    /// events and cycles of the measurement window.
    fn energy(&self) -> EnergyBreakdown;

    /// The configuration the network was built with.
    fn config(&self) -> &SimConfig;

    /// The earliest cycle `> now` at which stepping this network could
    /// differ from doing nothing, or `None` if no future step will ever
    /// change anything.
    ///
    /// The default — `Some(now + 1)` — declares every cycle potentially
    /// eventful and preserves pure per-cycle execution. An implementation
    /// may only answer a later cycle when every step in between would be a
    /// bitwise no-op (no state change, no event, no RNG draw); it must then
    /// also override [`CycleNetwork::skip_cycles`] if it has any per-cycle
    /// bookkeeping. See `engine.md` for the full scheduler contract.
    fn next_event_cycle(&mut self, now: u64) -> Option<u64> {
        Some(now + 1)
    }

    /// Fast-forwards the network across the provably idle cycles
    /// `from..to` (exclusive of `to`, which the engine steps normally).
    /// Must leave the network bitwise-identical to stepping each skipped
    /// cycle. Only called for gaps this network itself announced through
    /// [`CycleNetwork::next_event_cycle`]; the default is a no-op, matching
    /// the default `next_event_cycle` that never opens a gap.
    fn skip_cycles(&mut self, from: u64, to: u64) {
        let _ = (from, to);
    }

    /// Installs a fault schedule to replay during the run, returning whether
    /// the network supports fault injection. A supporting implementation
    /// must apply every due transition at the top of each stepped cycle
    /// (emitting the fault [`SimEvent`]s) and fold the controller's
    /// [`pnoc_faults::FaultController::next_transition_cycle`] bound into
    /// [`CycleNetwork::next_event_cycle`], so idle-gap skips never jump over
    /// a scheduled fault. The default declines: networks without fabric
    /// capability hooks cannot degrade, so silently accepting a plan would
    /// report healthy numbers for a supposedly faulted run.
    fn install_fault_schedule(&mut self, controller: pnoc_faults::FaultController) -> bool {
        let _ = controller;
        false
    }

    /// `(faults_applied, faults_active)` counts from the installed fault
    /// schedule, `(0, 0)` when no schedule was installed.
    fn fault_counts(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Contributes network-internal metrics to a finished point's report,
    /// after the probes have built it from the event stream: what the
    /// stream's per-step [`SimEvent::Flits`] totals do not carry. A leaf
    /// network renders its [`DeliveryTally`](crate::metrics::DeliveryTally)
    /// (`delivered_bits_by_node`, `photonic_bits_by_cluster_pair`); the
    /// hierarchy engine renders its pods' tallies lifted into the global
    /// numbering, plus per-pod delivery families and spine-link counters.
    /// The default adds nothing.
    fn contribute_metrics(&self, report: &mut crate::metrics::MetricReport) {
        let _ = report;
    }

    /// Where the flits delivered since measurement began went, for a network
    /// that keeps a [`DeliveryTally`](crate::metrics::DeliveryTally): what a
    /// composite network sums its parts' families from. The default has
    /// none.
    fn delivery_tally(&self) -> Option<&crate::metrics::DeliveryTally> {
        None
    }
}

/// The one place a run's events become counters: fans the event stream out
/// to a probe slice and counts it into the run's [`SimStats`], both gated on
/// the measurement window.
struct ProbeFanout<'a, 'b> {
    probes: &'a mut [&'b mut dyn Probe],
    measuring: bool,
    stats: SimStats,
}

impl<'a, 'b> ProbeFanout<'a, 'b> {
    /// An unmeasuring fanout whose statistics run on `clock`.
    fn new(clock: Clock, probes: &'a mut [&'b mut dyn Probe]) -> Self {
        Self {
            probes,
            measuring: false,
            stats: SimStats::new(clock),
        }
    }

    /// Opens the measurement window at `cycle`, on the network and the
    /// probes.
    fn begin<N: CycleNetwork + ?Sized>(&mut self, network: &mut N, cycle: u64) {
        network.begin_measurement(cycle);
        self.measuring = true;
        for probe in self.probes.iter_mut() {
            probe.on_measurement_begin(cycle);
        }
    }

    /// Closes `cycle`, stepped or skipped: inside the measurement window it
    /// is counted and every probe sees [`Probe::on_cycle_end`].
    fn cycle_end(&mut self, cycle: u64) {
        if self.measuring {
            self.stats.measured_cycles += 1;
            for probe in self.probes.iter_mut() {
                probe.on_cycle_end(cycle);
            }
        }
    }

    /// Ends the run: fills in the network's energy and finishes every probe
    /// with the statistics.
    fn finish<N: CycleNetwork + ?Sized>(mut self, network: &N) -> SimStats {
        self.stats.energy = network.energy();
        for probe in self.probes.iter_mut() {
            probe.finish(&self.stats);
        }
        self.stats
    }
}

impl EventSink for ProbeFanout<'_, '_> {
    fn emit(&mut self, cycle: u64, event: SimEvent) {
        debug_assert!(
            match event {
                SimEvent::Flits {
                    injected,
                    delivered,
                    delivered_bits,
                    photonic_bits,
                } => (injected > 0 || delivered > 0) && photonic_bits <= delivered_bits,
                _ => true,
            },
            "a flit total moves at least one flit, and its photonic bits are delivered bits"
        );
        // Fault transitions are schedule replay, not workload statistics:
        // they pass the warm-up gate so the probes' fault counters reconcile
        // exactly with the controller's whole-run gauges even when an onset
        // lands inside the warm-up window. They count nothing in `SimStats`.
        let structural = matches!(
            event,
            SimEvent::FaultApplied { .. } | SimEvent::FaultRepaired { .. }
        );
        if self.measuring || structural {
            self.stats.observe(&event);
            for probe in self.probes.iter_mut() {
                probe.on_event(cycle, &event);
            }
        }
    }
}

/// The advance rule every executor shares. After stepping `cycle`, decides
/// how far the clock may jump — the network's own
/// [`CycleNetwork::next_event_cycle`] under the event-driven executor, the
/// very next cycle under the per-cycle reference, never past `limit` — has
/// the network skip the gap in one call, and returns the next cycle to step
/// (`limit` when nothing is left before it).
pub fn advance_network<N: CycleNetwork + ?Sized>(network: &mut N, cycle: u64, limit: u64) -> u64 {
    let next = if event_driven_enabled() {
        network.next_event_cycle(cycle)
    } else {
        Some(cycle + 1)
    };
    let target = next.unwrap_or(limit).clamp(cycle + 1, limit);
    if target > cycle + 1 {
        network.skip_cycles(cycle + 1, target);
    }
    target
}

/// [`advance_network`] for a probed run: every skipped cycle is closed like
/// a stepped one, so measured cycles count it and windowed metrics close at
/// exactly the same cycles as under per-cycle execution. Returns the next
/// cycle to step.
fn advance_clock<N: CycleNetwork + ?Sized>(
    network: &mut N,
    fanout: &mut ProbeFanout<'_, '_>,
    cycle: u64,
    limit: u64,
) -> u64 {
    let target = advance_network(network, cycle, limit);
    for skipped in cycle + 1..target {
        fanout.cycle_end(skipped);
    }
    target
}

/// Runs a network for its configured warm-up + measurement window while
/// driving `probes`, and returns the statistics of the measurement window.
///
/// The warm-up runs unobserved, except that fault transitions pass the gate
/// so fault counters cover the whole run. At the measurement boundary every
/// probe gets [`Probe::on_measurement_begin`]; during the window every
/// [`SimEvent`] is counted into the returned [`SimStats`] and forwarded to
/// every probe, and each cycle ends with [`Probe::on_cycle_end`]; after the
/// last cycle every probe is finished with those [`SimStats`]. Collect the
/// probes' reports with [`Probe::report`].
pub fn run_to_completion_with<N: CycleNetwork + ?Sized>(
    network: &mut N,
    probes: &mut [&mut dyn Probe],
) -> SimStats {
    let warmup = network.config().warmup_cycles;
    let total = network.config().total_cycles();
    let mut fanout = ProbeFanout::new(network.config().clock, probes);
    let mut cycle = 0;
    while cycle < total {
        if cycle == warmup {
            fanout.begin(network, cycle);
        }
        network.step_observed(cycle, &mut fanout);
        fanout.cycle_end(cycle);
        // Fast-forwarding must land exactly on the warm-up boundary so
        // `begin_measurement` fires at the configured cycle.
        let limit = if cycle < warmup { warmup } else { total };
        cycle = advance_clock(network, &mut fanout, cycle, limit);
    }
    fanout.finish(network)
}

/// Runs a network for its configured warm-up + measurement window and returns
/// the measured statistics (no probes attached).
pub fn run_to_completion<N: CycleNetwork + ?Sized>(network: &mut N) -> SimStats {
    run_to_completion_with(network, &mut [])
}

/// Runs a network **closed-loop**: measurement starts immediately (no
/// warm-up — a finite workload has no steady state to warm into), every
/// cycle is observed by the probes, and the run ends as soon as `drained`
/// returns `true` (checked after each cycle, so the cycle that completes the
/// last flow is still measured) or `max_cycles` is reached.
///
/// This is the completion condition behind the flow-level workload engine
/// ([`crate::workload`]): the fixed-cycle ladder of
/// [`run_to_completion_with`] measures open-loop steady state, this entry
/// point measures how long a finite dependency DAG takes to drain.
pub fn run_until_with<N: CycleNetwork + ?Sized>(
    network: &mut N,
    probes: &mut [&mut dyn Probe],
    mut drained: impl FnMut(u64) -> bool,
    max_cycles: u64,
) -> SimStats {
    let mut fanout = ProbeFanout::new(network.config().clock, probes);
    fanout.begin(network, 0);
    let mut cycle = 0;
    while cycle < max_cycles {
        network.step_observed(cycle, &mut fanout);
        fanout.cycle_end(cycle);
        if drained(cycle) {
            break;
        }
        // Drain state can only change on a stepped cycle (it is driven by
        // deliveries), so it cannot flip inside a skipped gap.
        cycle = advance_clock(network, &mut fanout, cycle, max_cycles);
    }
    fanout.finish(network)
}

/// Runs a network for an explicit number of cycles (no warm-up handling),
/// counting every one of them and every event they emit. Useful for
/// fine-grained tests that want to observe transient behaviour.
pub fn run_cycles<N: CycleNetwork + ?Sized>(network: &mut N, start: u64, cycles: u64) -> SimStats {
    let mut fanout = ProbeFanout::new(network.config().clock, &mut []);
    fanout.measuring = true;
    for cycle in start..start + cycles {
        network.step_observed(cycle, &mut fanout);
        fanout.cycle_end(cycle);
    }
    fanout.finish(network)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BandwidthSet;
    use crate::metrics::{MetricReport, MetricValue};
    use pnoc_noc::ids::CoreId;

    /// One synthetic delivery whose latency is its cycle.
    fn delivery(sink: &mut dyn EventSink, cycle: u64) {
        let (src, dst) = (CoreId(0), CoreId(1));
        let latency = cycle;
        sink.emit(cycle, SimEvent::PacketDelivered { src, dst, latency });
    }

    /// A fake network that records when measurement began and emits one
    /// synthetic delivery event per step.
    struct Counter {
        config: SimConfig,
        measured_from: Option<u64>,
    }

    impl CycleNetwork for Counter {
        fn step_observed(&mut self, cycle: u64, sink: &mut dyn EventSink) {
            delivery(sink, cycle);
        }

        fn begin_measurement(&mut self, cycle: u64) {
            self.measured_from = Some(cycle);
        }

        fn energy(&self) -> EnergyBreakdown {
            EnergyBreakdown::default()
        }

        fn config(&self) -> &SimConfig {
            &self.config
        }
    }

    fn counter_net(warmup: u64, sim: u64) -> Counter {
        let mut config = SimConfig::fast(BandwidthSet::Set1);
        config.warmup_cycles = warmup;
        config.sim_cycles = sim;
        Counter {
            config,
            measured_from: None,
        }
    }

    #[test]
    fn run_to_completion_honours_warmup() {
        let mut net = counter_net(100, 400);
        let stats = run_to_completion(&mut net);
        assert_eq!(net.measured_from, Some(100));
        assert_eq!(stats.measured_cycles, 400);
    }

    #[test]
    fn run_cycles_steps_exactly() {
        let mut net = counter_net(1_000, 5_000);
        let stats = run_cycles(&mut net, 0, 37);
        assert_eq!(stats.measured_cycles, 37);
        assert_eq!(stats.delivered_packets, 37);
    }

    /// A probe that records the engine-driven lifecycle.
    #[derive(Default)]
    struct LifecycleProbe {
        measurement_begun_at: Option<u64>,
        events: u64,
        first_event_cycle: Option<u64>,
        cycle_ends: u64,
        finished_with: Option<SimStats>,
    }

    impl Probe for LifecycleProbe {
        fn on_measurement_begin(&mut self, cycle: u64) {
            self.measurement_begun_at = Some(cycle);
        }

        fn on_event(&mut self, cycle: u64, _event: &SimEvent) {
            self.events += 1;
            self.first_event_cycle.get_or_insert(cycle);
        }

        fn on_cycle_end(&mut self, _cycle: u64) {
            self.cycle_ends += 1;
        }

        fn finish(&mut self, stats: &SimStats) {
            self.finished_with = Some(*stats);
        }

        fn report(&self) -> MetricReport {
            let mut report = MetricReport::new();
            report.insert("events", MetricValue::Counter(self.events));
            report
        }
    }

    #[test]
    fn probes_only_observe_the_measurement_window() {
        let mut net = counter_net(100, 400);
        let mut probe = LifecycleProbe::default();
        let stats = run_to_completion_with(&mut net, &mut [&mut probe]);
        assert_eq!(stats.measured_cycles, 400);
        assert_eq!(probe.measurement_begun_at, Some(100));
        // One event per measured cycle; warm-up events were suppressed.
        assert_eq!(probe.events, 400);
        assert_eq!(probe.first_event_cycle, Some(100));
        assert_eq!(probe.cycle_ends, 400);
        assert_eq!(probe.finished_with.as_ref(), Some(&stats));
        assert_eq!(probe.report().counter("events"), Some(400));
        // The engine counted exactly the in-window deliveries (cycles
        // 100..500), none of the warm-up's.
        assert_eq!(
            (stats.delivered_packets, stats.total_packet_latency),
            (400, (100..500).sum())
        );
    }

    #[test]
    fn run_until_with_stops_at_drain_and_measures_from_cycle_zero() {
        let mut net = counter_net(100, 400); // warm-up is ignored closed-loop
        let mut probe = LifecycleProbe::default();
        let drained = |cycle: u64| cycle >= 6;
        let stats = run_until_with(&mut net, &mut [&mut probe], drained, 10_000);
        // Measurement began immediately; 7 cycles ran (0..=6 inclusive).
        assert_eq!(net.measured_from, Some(0));
        assert_eq!(stats.measured_cycles, 7);
        assert_eq!(stats.delivered_packets, 7);
        assert_eq!(probe.measurement_begun_at, Some(0));
        assert_eq!(probe.first_event_cycle, Some(0));
        assert_eq!(probe.events, 7);
        assert_eq!(probe.finished_with, Some(stats));
    }

    #[test]
    fn run_until_with_honours_the_cycle_cap() {
        let mut net = counter_net(0, 0);
        let stats = run_until_with(&mut net, &mut [], |_| false, 37);
        assert_eq!(stats.measured_cycles, 37);
    }

    #[test]
    fn multiple_probes_see_the_same_stream() {
        let mut net = counter_net(10, 50);
        let mut a = LifecycleProbe::default();
        let mut b = LifecycleProbe::default();
        let _ = run_to_completion_with(&mut net, &mut [&mut a, &mut b]);
        assert_eq!(a.events, b.events);
        assert_eq!(a.events, 50);
    }

    /// A network with one event every `period` cycles and nothing in
    /// between: the event-driven engine can skip the gaps, the per-cycle
    /// engine steps through them. Both must agree on every observable.
    struct Pulsed {
        config: SimConfig,
        period: u64,
        steps: u64,
        skips: u64,
        measured_from: Option<u64>,
    }

    impl Pulsed {
        fn new(warmup: u64, sim: u64, period: u64) -> Self {
            let mut config = SimConfig::fast(BandwidthSet::Set1);
            config.warmup_cycles = warmup;
            config.sim_cycles = sim;
            Pulsed {
                config,
                period,
                steps: 0,
                skips: 0,
                measured_from: None,
            }
        }
    }

    impl CycleNetwork for Pulsed {
        fn step_observed(&mut self, cycle: u64, sink: &mut dyn EventSink) {
            self.steps += 1;
            if cycle.is_multiple_of(self.period) {
                delivery(sink, cycle);
            }
        }

        fn begin_measurement(&mut self, cycle: u64) {
            self.measured_from = Some(cycle);
        }

        fn energy(&self) -> EnergyBreakdown {
            EnergyBreakdown::default()
        }

        fn config(&self) -> &SimConfig {
            &self.config
        }

        fn next_event_cycle(&mut self, now: u64) -> Option<u64> {
            Some(((now / self.period) + 1) * self.period)
        }

        fn skip_cycles(&mut self, _from: u64, _to: u64) {
            self.skips += 1;
        }
    }

    /// One test owns every toggle of the process-wide executor flag, so the
    /// other tests of this binary never race against a temporarily forced
    /// per-cycle mode (they are bitwise-identical under both anyway).
    #[test]
    fn event_driven_skips_idle_gaps_and_matches_per_cycle_bitwise() {
        let run = |net: &mut Pulsed| {
            let mut probe = LifecycleProbe::default();
            let stats = run_to_completion_with(net, &mut [&mut probe]);
            (
                stats.measured_cycles,
                probe.events,
                probe.cycle_ends,
                probe.measurement_begun_at,
                probe.first_event_cycle,
                stats.delivered_packets,
            )
        };

        assert!(event_driven_enabled(), "event mode is the default");
        let mut event_net = Pulsed::new(100, 400, 10);
        let event_obs = run(&mut event_net);
        assert_eq!(event_net.measured_from, Some(100));
        assert!(
            event_net.skips > 0,
            "period-10 pulses must open skippable gaps"
        );
        assert!(
            event_net.steps < 100,
            "only ~one step per pulse expected, got {}",
            event_net.steps
        );

        set_event_driven(false);
        let mut reference_net = Pulsed::new(100, 400, 10);
        let reference_obs = run(&mut reference_net);
        set_event_driven(true);

        assert_eq!(reference_net.steps, 500, "per-cycle mode steps every cycle");
        assert_eq!(reference_net.skips, 0);
        assert_eq!(event_obs, reference_obs);
        // Both saw the full 400 measured cycles and every in-window pulse.
        assert_eq!(event_obs.0, 400);
        assert_eq!(event_obs.2, 400);
        assert_eq!(event_obs.3, Some(100));
        assert_eq!(event_obs.4, Some(100));
        // The engine's own count: 40 pulses (cycles 100, 110, …, 490), and
        // 400 measured cycles although the event run stepped fewer than 100
        // of them — the skipped cycles count too.
        assert_eq!(event_obs.5, 40);
    }

    #[test]
    fn fast_forward_lands_exactly_on_the_warmup_boundary() {
        // Warm-up 105 is not a pulse multiple: the jump from cycle 100's
        // pulse toward 110 must be clamped to 105 so measurement starts
        // there, not after it.
        let mut net = Pulsed::new(105, 95, 10);
        let stats = run_to_completion(&mut net);
        assert_eq!(net.measured_from, Some(105));
        assert_eq!(stats.measured_cycles, 95);
    }

    #[test]
    fn run_until_with_fast_forwards_to_the_cycle_cap() {
        // Never drains: the engine should skip straight across each idle
        // gap and still report exactly `max_cycles` measured cycles.
        let mut net = Pulsed::new(0, 0, 25);
        let stats = run_until_with(&mut net, &mut [], |_| false, 101);
        assert_eq!(stats.measured_cycles, 101);
        assert!(net.steps < 10, "expected ~5 pulse steps, got {}", net.steps);
    }

    #[test]
    fn none_from_next_event_cycle_jumps_to_the_horizon() {
        /// A network that dies after cycle 3: no event will ever fire again.
        struct Dead {
            config: SimConfig,
            steps: u64,
        }
        impl CycleNetwork for Dead {
            fn step_observed(&mut self, _cycle: u64, _sink: &mut dyn EventSink) {
                self.steps += 1;
            }
            fn begin_measurement(&mut self, _cycle: u64) {}
            fn energy(&self) -> EnergyBreakdown {
                EnergyBreakdown::default()
            }
            fn config(&self) -> &SimConfig {
                &self.config
            }
            fn next_event_cycle(&mut self, now: u64) -> Option<u64> {
                if now < 3 {
                    Some(now + 1)
                } else {
                    None
                }
            }
        }
        let mut config = SimConfig::fast(BandwidthSet::Set1);
        config.warmup_cycles = 0;
        config.sim_cycles = 1_000;
        let mut net = Dead { config, steps: 0 };
        let stats = run_to_completion(&mut net);
        assert_eq!(stats.measured_cycles, 1_000);
        assert_eq!(net.steps, 4, "cycles 0..=3 step, the rest is one skip");
    }
}
