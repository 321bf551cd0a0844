//! Offered-load sweeps and saturation search.
//!
//! "Peak bandwidth" and "packet energy at saturation" are properties of the
//! saturated network: the evaluation sweeps the offered load upward until the
//! accepted bandwidth stops improving and reports the maximum. This module
//! provides the load ladder, the simulation of one sweep point shared by every
//! architecture, and the result container used by every throughput/energy
//! experiment.
//!
//! # One point at a time
//!
//! Every sweep point is an independent network: the architecture builds it on
//! the point's configuration, the engine runs it with a [`MetricsProbe`]
//! attached, and the point comes back as a [`SweepPoint`] carrying the run's
//! [`SimStats`] and [`MetricReport`] (latency quantiles, per-node and
//! per-cluster-pair breakdowns, windowed throughput).
//!
//! A [`Scenario`](crate::scenario::Scenario) expands its ladder into points
//! and simulates each one; [`SweepMode`] only chooses where. The **sequential
//! reference** is [`Scenario::run_with_mode`](crate::scenario::Scenario::run_with_mode)
//! with [`SweepMode::Sequential`]: the points in ladder order on the calling
//! thread. The one parallel path — the flattened, deduplicated point queue of
//! [`crate::scenario::run_specs_with_cache`], which [`SweepMode::Parallel`]
//! selects — must be **bitwise-identical** to it, and is, because each point
//! is a fully independent deterministic simulation.
//!
//! # Per-point seed derivation
//!
//! Every sweep point gets its own RNG seed derived from the base
//! configuration seed:
//!
//! ```text
//! point_seed(i) = splitmix64(config.seed XOR (i + 1) · 0x9E3779B97F4A7C15)
//! ```
//!
//! (golden-ratio increment, SplitMix64 finalizer — see [`derive_point_seed`]).
//! The derived seed replaces the seed of the point's copy of the
//! [`SimConfig`] handed to the builder, so a point's result depends only on
//! `(base seed, point index, load)` — never on which thread ran it or in
//! which order points completed. This is what makes the parallel point queue
//! reproducible and bitwise-equal to the sequential sweep.

use crate::config::SimConfig;
use crate::engine::{run_to_completion_with, CycleNetwork};
use crate::metrics::{MetricReport, MetricValue, MetricsProbe, Probe as _};
use crate::params::ResolvedParams;
use crate::registry::ArchitectureBuilder;
use crate::stats::SimStats;
use pnoc_faults::{FaultController, FaultPlan};
use pnoc_noc::traffic_model::{OfferedLoad, TrafficModel};

/// One point of an offered-load sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Offered load in packets per core per cycle.
    pub offered_load: f64,
    /// Measured statistics at that load.
    pub stats: SimStats,
    /// Streamed metrics of the point (latency quantiles, per-node and
    /// per-cluster-pair breakdowns, windowed throughput). Empty for points
    /// assembled outside the generic driver.
    pub metrics: MetricReport,
}

/// The outcome of a saturation sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SaturationResult {
    /// All swept points, in increasing offered-load order.
    pub points: Vec<SweepPoint>,
}

impl SaturationResult {
    /// Index of the point with the highest accepted bandwidth.
    #[must_use]
    pub(crate) fn peak_index(&self) -> Option<usize> {
        (0..self.points.len()).max_by(|&a, &b| {
            self.points[a]
                .stats
                .accepted_bandwidth_gbps()
                .partial_cmp(&self.points[b].stats.accepted_bandwidth_gbps())
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    }

    /// The sweep point with the highest accepted bandwidth.
    #[must_use]
    pub fn peak(&self) -> Option<&SweepPoint> {
        self.peak_index().map(|i| &self.points[i])
    }

    /// Peak aggregate bandwidth in Gb/s (0 when the sweep is empty).
    #[must_use]
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        self.peak()
            .map(|p| p.stats.accepted_bandwidth_gbps())
            .unwrap_or(0.0)
    }

    /// Index of the *saturation point*: the sweep point with the highest
    /// accepted bandwidth among those the network absorbs without significant
    /// source-queue overflow (drop rate ≤ 2 %). Beyond this point injected
    /// traffic is lost rather than delivered. Falls back to the
    /// maximum-accepted point when even the lightest load already drops.
    #[must_use]
    pub fn saturation_index(&self) -> Option<usize> {
        let sustained = (0..self.points.len())
            .filter(|&i| self.points[i].stats.drop_rate() <= 0.02)
            .max_by(|&a, &b| {
                self.points[a]
                    .stats
                    .accepted_bandwidth_gbps()
                    .partial_cmp(&self.points[b].stats.accepted_bandwidth_gbps())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        sustained.or_else(|| self.peak_index())
    }

    /// The sweep point at saturation (see [`SaturationResult::saturation_index`]).
    #[must_use]
    pub fn saturation_point(&self) -> Option<&SweepPoint> {
        self.saturation_index().map(|i| &self.points[i])
    }

    /// The peak achievable (sustainable) bandwidth in Gb/s: the accepted
    /// bandwidth at the saturation point. This is the figure reported as
    /// "peak bandwidth" in the comparison experiments.
    #[must_use]
    pub fn sustainable_bandwidth_gbps(&self) -> f64 {
        self.saturation_point()
            .map(|p| p.stats.accepted_bandwidth_gbps())
            .unwrap_or(0.0)
    }

    /// Packet energy at the saturation point, pico-joules.
    #[must_use]
    pub fn packet_energy_at_saturation_pj(&self) -> f64 {
        self.saturation_point()
            .map(|p| p.stats.packet_energy_pj())
            .unwrap_or(0.0)
    }

    /// Average packet latency at the saturation point, cycles.
    #[must_use]
    pub fn latency_at_saturation(&self) -> f64 {
        self.saturation_point()
            .map(|p| p.stats.average_packet_latency())
            .unwrap_or(0.0)
    }
}

/// The default ladder of offered loads used by the experiments, expressed as
/// multiples of the analytically estimated saturation load.
pub(crate) const DEFAULT_LOAD_FRACTIONS: [f64; 8] = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0];

/// Builds the ladder of absolute offered loads from an estimated saturation
/// load.
///
/// # Panics
///
/// Panics if `estimated_saturation_load` is not positive.
#[must_use]
pub(crate) fn default_load_ladder(estimated_saturation_load: f64) -> Vec<f64> {
    assert!(
        estimated_saturation_load > 0.0,
        "saturation estimate must be positive"
    );
    DEFAULT_LOAD_FRACTIONS
        .iter()
        .map(|f| f * estimated_saturation_load)
        .collect()
}

/// Execution strategy of a scenario run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepMode {
    /// Run the ladder points one after another on the calling thread.
    Sequential,
    /// Run the ladder points as jobs of the flattened matrix queue on the
    /// persistent executor pool. Results are bitwise-identical to
    /// [`SweepMode::Sequential`] because every point is an independent
    /// deterministic simulation with a seed derived only from the base seed
    /// and the point index.
    Parallel,
}

/// One point of a sweep: its offered load as the ladder gives it, and the
/// per-point configuration (the scenario's configuration with `seed`
/// replaced by the point's derived seed, see [`derive_point_seed`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SweepPointSpec {
    /// Offered load of the point, unclamped: the cache key renders these
    /// exact bits, and the simulation clamps it to `[0, 1]`.
    pub offered_load: f64,
    /// The scenario's configuration with [`SimConfig::seed`] set to the
    /// point's derived seed.
    pub config: SimConfig,
}

/// Derives the RNG seed of sweep point `index` from the base configuration
/// seed: a golden-ratio increment XORed into the base seed, passed through
/// the SplitMix64 finalizer. Distinct indices give statistically independent
/// seeds; the same `(base_seed, index)` pair always gives the same seed.
#[must_use]
pub fn derive_point_seed(base_seed: u64, index: usize) -> u64 {
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut z = base_seed ^ GOLDEN.wrapping_mul(index as u64 + 1);
    z = z.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub(crate) fn point_spec(config: &SimConfig, index: usize, load: f64) -> SweepPointSpec {
    let mut point_config = *config;
    point_config.seed = derive_point_seed(config.seed, index);
    SweepPointSpec {
        offered_load: load,
        config: point_config,
    }
}

/// Simulates one point: builds the network on the point's configuration,
/// installs a non-empty fault plan, runs the network through `drive` — which
/// attaches the probes and returns the run's statistics with the probes'
/// report — and completes the report. Open-loop and closed-loop points
/// differ only in `drive`.
///
/// The report gains the photonic static-power gauges: `static_power_mw`
/// (laser + thermal tuning, see [`SimConfig::static_power_mw`]) and
/// `total_energy_pj` (the dynamic
/// [`EnergyBreakdown`](pnoc_photonics::energy::EnergyBreakdown) total plus
/// the static power integrated over the measured window), so energy-per-bit
/// comparisons do not undercount the always-on laser and heater budget. A
/// faulted point also gains `faults_applied` (onset transitions executed)
/// and `faults_active` (faults still unrepaired at the end); healthy reports
/// keep their exact pre-fault shape. Last, the network contributes its own
/// metrics ([`CycleNetwork::contribute_metrics`]).
///
/// # Panics
///
/// Panics when `faults` is non-empty and the network declines the schedule:
/// silently running a faulted scenario on a fault-blind network would report
/// healthy numbers under a faulted scenario id.
pub(crate) fn simulate_point(
    architecture: &dyn ArchitectureBuilder,
    params: &ResolvedParams,
    point: &SweepPointSpec,
    traffic: Box<dyn TrafficModel + Send>,
    faults: &FaultPlan,
    drive: impl FnOnce(&mut dyn CycleNetwork) -> (SimStats, MetricReport),
) -> SweepPoint {
    let config = point.config;
    let mut network = architecture.build(config, params, traffic);
    if !faults.is_empty() {
        let installed = network.install_fault_schedule(FaultController::new(faults));
        assert!(
            installed,
            "architecture '{}' does not support fault injection \
             (CycleNetwork::install_fault_schedule declined the schedule)",
            architecture.name()
        );
    }
    let (stats, mut metrics) = drive(&mut *network);
    let static_mw = config.static_power_mw();
    let seconds = config.clock.cycles_to_seconds(stats.measured_cycles);
    // 1 mW·s = 1 mJ = 1e9 pJ.
    let static_pj = static_mw * seconds * 1e9;
    metrics.insert("static_power_mw", MetricValue::Gauge(static_mw));
    metrics.insert(
        "total_energy_pj",
        MetricValue::Gauge(stats.energy.total_pj() + static_pj),
    );
    if !faults.is_empty() {
        let (applied, active) = network.fault_counts();
        metrics.insert("faults_applied", MetricValue::Gauge(applied as f64));
        metrics.insert("faults_active", MetricValue::Gauge(active as f64));
    }
    network.contribute_metrics(&mut metrics);
    SweepPoint {
        offered_load: OfferedLoad::new(point.offered_load).value(),
        stats,
        metrics,
    }
}

/// Builds and runs the network of one open-loop sweep point with the
/// standard [`MetricsProbe`] attached.
pub(crate) fn run_point(
    architecture: &dyn ArchitectureBuilder,
    params: &ResolvedParams,
    spec: &SweepPointSpec,
    traffic: Box<dyn TrafficModel + Send>,
    faults: &FaultPlan,
) -> SweepPoint {
    let drive = |network: &mut dyn CycleNetwork| {
        let mut probe = MetricsProbe::for_config(&spec.config);
        let stats = run_to_completion_with(network, &mut [&mut probe]);
        (stats, probe.report())
    };
    simulate_point(architecture, params, spec, traffic, faults, drive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;

    fn stats_with_bandwidth(delivered_bits: u64) -> SimStats {
        let mut s = SimStats::new(Clock::paper_default());
        s.measured_cycles = 1000;
        s.delivered_bits = delivered_bits;
        s.delivered_packets = delivered_bits / 2048;
        s.energy.launch_pj = delivered_bits as f64 * 0.15;
        s
    }

    /// A sweep of hand-built points, one per `(load, delivered bits)` pair.
    fn sweep(points: &[(f64, u64)]) -> SaturationResult {
        let points = points
            .iter()
            .map(|&(load, delivered_bits)| SweepPoint {
                offered_load: load,
                stats: stats_with_bandwidth(delivered_bits),
                metrics: MetricReport::new(),
            })
            .collect();
        SaturationResult { points }
    }

    #[test]
    fn peak_is_the_maximum_accepted_bandwidth() {
        // Accepted bandwidth rises then falls (post-saturation congestion).
        let result = sweep(&[
            (0.1, 1_000_000),
            (0.2, 2_000_000),
            (0.3, 1_800_000),
            (0.4, 1_500_000),
        ]);
        assert_eq!(result.points.len(), 4);
        assert_eq!(result.peak_index(), Some(1));
        let peak = result.peak().unwrap();
        assert!((peak.offered_load - 0.2).abs() < 1e-12);
        assert!(result.peak_bandwidth_gbps() > 0.0);
        assert!(result.packet_energy_at_saturation_pj() > 0.0);
    }

    #[test]
    fn empty_sweep_is_harmless() {
        let result = sweep(&[]);
        assert_eq!(result.peak_index(), None);
        assert_eq!(result.peak_bandwidth_gbps(), 0.0);
        assert_eq!(result.packet_energy_at_saturation_pj(), 0.0);
    }

    #[test]
    fn ladder_scales_with_estimate() {
        let ladder = default_load_ladder(0.01);
        assert_eq!(ladder.len(), DEFAULT_LOAD_FRACTIONS.len());
        assert!((ladder[0] - 0.0025).abs() < 1e-12);
        assert!((ladder.last().unwrap() - 0.03).abs() < 1e-12);
        // Monotone increasing.
        assert!(ladder.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn per_core_bandwidth_divides_aggregate() {
        let result = sweep(&[(0.1, 640_000)]);
        let agg = result.peak_bandwidth_gbps();
        let per_core = result
            .peak()
            .unwrap()
            .stats
            .accepted_bandwidth_per_core_gbps(64);
        assert!((agg / 64.0 - per_core).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn ladder_rejects_zero_estimate() {
        let _ = default_load_ladder(0.0);
    }

    #[test]
    fn point_seeds_are_stable_and_distinct() {
        let base = 0x2014_50CC;
        // Stable: the scheme is part of the public contract.
        assert_eq!(derive_point_seed(base, 0), derive_point_seed(base, 0));
        // Distinct across indices and across base seeds.
        let seeds: Vec<u64> = (0..64).map(|i| derive_point_seed(base, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(
            unique.len(),
            seeds.len(),
            "per-point seeds must not collide"
        );
        assert_ne!(derive_point_seed(base, 3), derive_point_seed(base + 1, 3));
    }

    use crate::config::BandwidthSet;
    use crate::registry::UniformFabricArchitecture;
    use pnoc_noc::ids::{ClusterId, CoreId};
    use pnoc_noc::packet::{BandwidthClass, PacketDescriptor};

    /// A deterministic traffic model whose stream depends on its seed.
    struct SeededPeriodic {
        seed: u64,
        period: u64,
        shape: (u32, u32),
    }

    impl TrafficModel for SeededPeriodic {
        fn next_packet(&mut self, cycle: u64, src: CoreId) -> Option<PacketDescriptor> {
            let phase = (self.seed ^ src.0 as u64) % self.period;
            (cycle % self.period == phase).then(|| PacketDescriptor {
                src,
                dst: CoreId((src.0 + 4 + (self.seed as usize % 8)) % 64),
                num_flits: self.shape.0,
                flit_bits: self.shape.1,
                class: BandwidthClass::MediumHigh,
                created_cycle: cycle,
            })
        }

        fn demand_class(&self, _src: ClusterId, _dst: ClusterId) -> BandwidthClass {
            BandwidthClass::MediumHigh
        }
    }

    fn sweep_config() -> SimConfig {
        let mut config = SimConfig::fast(BandwidthSet::Set1);
        config.sim_cycles = 600;
        config.warmup_cycles = 150;
        config
    }

    fn make_seeded(spec: &SweepPointSpec) -> Box<dyn TrafficModel + Send> {
        let period = (1.0 / spec.offered_load.max(1e-6)).round().max(1.0) as u64;
        Box::new(SeededPeriodic {
            seed: spec.config.seed,
            period,
            shape: (
                spec.config.bandwidth_set.packet_flits(),
                spec.config.bandwidth_set.flit_bits(),
            ),
        })
    }

    #[test]
    fn points_carry_metric_reports() {
        let config = sweep_config();
        let loads = [1.0 / 200.0, 1.0 / 100.0];
        let architecture = UniformFabricArchitecture;
        for (index, &load) in loads.iter().enumerate() {
            let spec = point_spec(&config, index, load);
            let point = run_point(
                &architecture,
                &architecture.default_params(),
                &spec,
                make_seeded(&spec),
                &FaultPlan::empty(),
            );
            assert_eq!(
                point.metrics.counter("delivered_packets"),
                Some(point.stats.delivered_packets),
                "probe counters must agree with the snapshot"
            );
            let latency = point.metrics.histogram("latency_cycles").expect("present");
            assert_eq!(latency.count(), point.stats.delivered_packets);
        }
    }
}
