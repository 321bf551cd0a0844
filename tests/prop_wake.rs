//! The switch wake set and the photonic router's sleeping phases against
//! random small systems.
//!
//! `PhotonicSystem::step_switches` arbitrates only the switches whose wake
//! bit is set; a switch sleeps once its arbitration returns `false` and
//! wakes when a flit enters it or leaves one of the inputs it sends into. A
//! cluster's start phase sleeps once no requesting port can start a
//! transmission, and replays its round-robin pointer when a head enters an
//! empty input VC, one of its transmissions finishes, an ejection VC frees
//! up or a fault transition lands. Transmissions waiting for wavelengths are
//! not visited while their pool is exhausted. In debug builds every stepped
//! cycle also arbitrates each occupied sleeping switch, re-attempts each
//! sleeping start phase on a replayed copy of its arbiter, and checks the
//! wavelength counters and waiting sets against a scan, so a missing wake
//! rule fails here at the cycle it first matters. The systems are d-HetPNoC
//! chips under fixed-offset, hotspot or incast bursts, with and without a
//! fault preset; each runs under the per-cycle and the event-driven
//! executor, which must agree on every statistic and metric. The vendored
//! `proptest` does not shrink, so every failure message carries the case.

use d_hetpnoc_repro::dhetpnoc::network::build_dhetpnoc_system;
use d_hetpnoc_repro::noc::ids::{ClusterId, CoreId};
use d_hetpnoc_repro::noc::packet::{BandwidthClass, PacketDescriptor};
use d_hetpnoc_repro::noc::topology::ClusterTopology;
use d_hetpnoc_repro::noc::traffic_model::TrafficModel;
use d_hetpnoc_repro::sim::config::{BandwidthSet, SimConfig};
use d_hetpnoc_repro::sim::engine::{run_to_completion_with, set_event_driven, CycleNetwork};
use d_hetpnoc_repro::sim::metrics::{MetricReport, MetricsProbe, Probe};
use d_hetpnoc_repro::sim::stats::SimStats;
use d_hetpnoc_repro::sim::{FaultController, FaultPlan};
use proptest::prelude::*;

/// SplitMix64: the test's own deterministic hash.
fn mix(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Where a burst's packets go.
#[derive(Debug, Clone, Copy)]
enum Pattern {
    /// To the core `offset` ids further on.
    Offset(usize),
    /// Every core to one hot core (which sends to its successor).
    Hotspot(CoreId),
    /// Every other core to one core, which sends nothing.
    Incast(CoreId),
}

/// Every `period` cycles about three cores in four send one packet. Whether
/// a core sends is a pure function of (seed, cycle, core), so the model can
/// announce its next burst and the event-driven executor skips drained gaps.
#[derive(Debug, Clone)]
struct Bursts {
    pattern: Pattern,
    period: u64,
    num_cores: usize,
    set: BandwidthSet,
    seed: u64,
}

impl TrafficModel for Bursts {
    fn next_packet(&mut self, cycle: u64, src: CoreId) -> Option<PacketDescriptor> {
        if !cycle.is_multiple_of(self.period)
            || mix(self.seed ^ cycle << 8 ^ src.0 as u64).is_multiple_of(4)
        {
            return None;
        }
        let n = self.num_cores;
        let dst = match self.pattern {
            Pattern::Offset(offset) => CoreId((src.0 + offset) % n),
            Pattern::Hotspot(hot) if hot == src => CoreId((src.0 + 1) % n),
            Pattern::Incast(hot) if hot == src => return None,
            Pattern::Hotspot(hot) | Pattern::Incast(hot) => hot,
        };
        Some(PacketDescriptor {
            src,
            dst,
            num_flits: self.set.packet_flits(),
            flit_bits: self.set.flit_bits(),
            class: BandwidthClass::MediumHigh,
            created_cycle: cycle,
        })
    }

    fn demand_class(&self, src: ClusterId, dst: ClusterId) -> BandwidthClass {
        BandwidthClass::ALL[(src.0 + dst.0) % BandwidthClass::ALL.len()]
    }

    fn next_generation_cycle(&self, now: u64) -> Option<u64> {
        Some((now / self.period + 1) * self.period)
    }
}

/// The fault presets, healthy first; a preset naming a cluster the chip does
/// not have leaves that cluster's faults out.
const PRESETS: [&str; 4] = ["none", "single-link", "rolling-links", "ring-drift"];

/// Runs one system under the selected executor, returning its statistics
/// and the standard probe's report.
fn run(
    config: SimConfig,
    traffic: &Bursts,
    faults: &FaultPlan,
    event_driven: bool,
) -> (SimStats, MetricReport) {
    set_event_driven(event_driven);
    let mut system = build_dhetpnoc_system(config, traffic.clone());
    if !faults.is_empty() {
        assert!(system.install_fault_schedule(FaultController::new(faults)));
    }
    let mut probe = MetricsProbe::for_config(&config);
    let stats = run_to_completion_with(&mut system, &mut [&mut probe]);
    set_event_driven(true);
    let mut report = probe.report();
    system.contribute_metrics(&mut report);
    (stats, report)
}

/// A chip of `clusters` × `cores_per_cluster` cores with `vcs` VCs per port
/// and one-packet-deep buffers.
fn small_config(
    set: BandwidthSet,
    clusters: usize,
    cores_per_cluster: usize,
    vcs: usize,
) -> SimConfig {
    let mut config = SimConfig::fast(set);
    config.topology = ClusterTopology::new(clusters, cores_per_cluster);
    config.vcs_per_port = vcs;
    config.vc_depth = set.packet_flits() as usize;
    config.warmup_cycles = 100;
    config.sim_cycles = 600;
    config
}

/// Runs `traffic` on `config` under fault preset `preset` with both
/// executors and checks that they agree and delivered something.
fn check_engines_agree(
    config: SimConfig,
    traffic: &Bursts,
    preset: &str,
    seed: u64,
) -> Result<(), String> {
    let faults = FaultPlan::resolve(preset).expect("a registered preset");
    let topology = config.topology;
    let context = format!(
        "{}×{} cores, {} VC(s), {:?} every {}, faults '{preset}', seed {seed}",
        topology.num_clusters(),
        topology.cores_per_cluster(),
        config.vcs_per_port,
        traffic.pattern,
        traffic.period,
    );
    let stepped = run(config, traffic, &faults, false);
    let skipped = run(config, traffic, &faults, true);
    prop_assert!(
        stepped.0.delivered_packets > 0,
        "{context}: nothing delivered"
    );
    prop_assert_eq!(&stepped.0, &skipped.0, "{context}: statistics");
    prop_assert_eq!(&stepped.1, &skipped.1, "{context}: metrics");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Both executors agree on every statistic and metric of a small,
    /// back-pressured system, while the debug build checks on every stepped
    /// cycle that no sleeping switch could have moved a flit.
    #[test]
    fn sleeping_switches_never_miss_a_change(
        clusters in 2usize..=4,
        cores_per_cluster in 2usize..=4,
        vcs in 1usize..=4,
        hotspot in any::<bool>(),
        target in 0usize..64,
        period in 4u64..=160,
        preset in 0usize..PRESETS.len(),
        seed in 0u64..u64::MAX,
    ) {
        let set = BandwidthSet::Set3;
        let config = small_config(set, clusters, cores_per_cluster, vcs);
        let num_cores = config.topology.num_cores();
        let pattern = if hotspot {
            Pattern::Hotspot(CoreId(target % num_cores))
        } else {
            Pattern::Offset(1 + target % (num_cores - 1))
        };
        let traffic = Bursts { pattern, period, num_cores, set, seed };
        check_engines_agree(config, &traffic, PRESETS[preset], seed)?;
    }

    /// Incast and hotspot bursts into one or two ejection VCs keep most
    /// clusters' start phases asleep for long spans, and the link presets
    /// take a source or destination link down and up again mid-sleep. The
    /// debug build re-attempts every sleeping start phase each cycle.
    #[test]
    fn sleeping_starts_never_miss_a_change(
        clusters in 2usize..=4,
        cores_per_cluster in 2usize..=4,
        vcs in 1usize..=2,
        incast in any::<bool>(),
        target in 0usize..64,
        period in 1u64..=12,
        preset in 0usize..3,
        seed in 0u64..u64::MAX,
    ) {
        let set = BandwidthSet::Set3;
        let config = small_config(set, clusters, cores_per_cluster, vcs);
        let num_cores = config.topology.num_cores();
        let hot = CoreId(target % num_cores);
        let pattern = if incast { Pattern::Incast(hot) } else { Pattern::Hotspot(hot) };
        let traffic = Bursts { pattern, period, num_cores, set, seed };
        check_engines_agree(config, &traffic, PRESETS[preset], seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Eight-core clusters that each send every packet to the other
    /// cluster, in dense bursts on the smallest wavelength budget, hold ≈ 88
    /// transmissions per cluster, most of them waiting for wavelengths: the
    /// waiting set spans two words and `swap_remove` moves bits across them.
    #[test]
    fn waiting_sets_span_several_words(
        vcs in 16usize..=24,
        preset in 0usize..3,
        seed in 0u64..u64::MAX,
    ) {
        let set = BandwidthSet::Set1;
        let cores_per_cluster = 8;
        let mut config = small_config(set, 2, cores_per_cluster, vcs);
        config.sim_cycles = 1_500;
        let num_cores = config.topology.num_cores();
        let pattern = Pattern::Offset(cores_per_cluster);
        let traffic = Bursts { pattern, period: 1, num_cores, set, seed };
        check_engines_agree(config, &traffic, PRESETS[preset], seed)?;
    }
}
