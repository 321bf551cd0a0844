//! Simulation configuration (Table 3-1 and Table 3-3 of the thesis).

use crate::clock::Clock;
use pnoc_noc::packet::BandwidthClass;
use pnoc_noc::router::RouterSpec;
use pnoc_noc::topology::ClusterTopology;

/// The three aggregate-bandwidth design points of Table 3-1 / Table 3-3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BandwidthSet {
    /// 64 total data wavelengths; application bandwidths 12.5–100 Gbps;
    /// 64-flit packets of 32-bit flits.
    Set1,
    /// 256 total data wavelengths; application bandwidths 50–400 Gbps;
    /// 16-flit packets of 128-bit flits.
    Set2,
    /// 512 total data wavelengths; application bandwidths 100–800 Gbps;
    /// 8-flit packets of 256-bit flits.
    Set3,
}

impl BandwidthSet {
    /// All three sets in increasing-bandwidth order.
    pub const ALL: [BandwidthSet; 3] = [BandwidthSet::Set1, BandwidthSet::Set2, BandwidthSet::Set3];

    /// Total number of DWDM data wavelengths in the fabric.
    #[must_use]
    pub fn total_wavelengths(self) -> usize {
        match self {
            BandwidthSet::Set1 => 64,
            BandwidthSet::Set2 => 256,
            BandwidthSet::Set3 => 512,
        }
    }

    /// Number of flits per packet (Table 3-3).
    #[must_use]
    pub fn packet_flits(self) -> u32 {
        match self {
            BandwidthSet::Set1 => 64,
            BandwidthSet::Set2 => 16,
            BandwidthSet::Set3 => 8,
        }
    }

    /// Flit size in bits (Table 3-3).
    #[must_use]
    pub fn flit_bits(self) -> u32 {
        match self {
            BandwidthSet::Set1 => 32,
            BandwidthSet::Set2 => 128,
            BandwidthSet::Set3 => 256,
        }
    }

    /// Total packet size in bits (2048 for every set: 64×32 = 16×128 = 8×256).
    #[must_use]
    pub fn packet_bits(self) -> u64 {
        u64::from(self.packet_flits()) * u64::from(self.flit_bits())
    }

    /// Wavelengths needed by the *lowest* application bandwidth of the set
    /// (12.5 / 50 / 100 Gbps → 1 / 4 / 8 wavelengths at 12.5 Gb/s each).
    #[must_use]
    pub fn min_class_wavelengths(self) -> usize {
        self.total_wavelengths() / 64
    }

    /// Wavelengths demanded by an application of the given bandwidth class
    /// within this set (doubles per class: 1/2/4/8 × the set's minimum).
    #[must_use]
    pub fn class_wavelengths(self, class: BandwidthClass) -> usize {
        self.min_class_wavelengths() * class.multiplier()
    }

    /// Application bandwidth in Gbps for a class within this set (Table 3-1).
    #[must_use]
    pub fn class_bandwidth_gbps(self, class: BandwidthClass, wavelength_rate_gbps: f64) -> f64 {
        self.class_wavelengths(class) as f64 * wavelength_rate_gbps
    }

    /// Human-readable label used in reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            BandwidthSet::Set1 => "BW Set 1 (64 wavelengths)",
            BandwidthSet::Set2 => "BW Set 2 (256 wavelengths)",
            BandwidthSet::Set3 => "BW Set 3 (512 wavelengths)",
        }
    }

    /// Compact machine-readable name (`"set1"`, `"set2"`, `"set3"`), used in
    /// scenario identifiers and serialized specs.
    #[must_use]
    pub fn short_name(self) -> &'static str {
        match self {
            BandwidthSet::Set1 => "set1",
            BandwidthSet::Set2 => "set2",
            BandwidthSet::Set3 => "set3",
        }
    }

    /// Parses a compact set name (the inverse of [`BandwidthSet::short_name`];
    /// also accepts the bare digit, e.g. `"2"`).
    #[must_use]
    pub fn from_short_name(name: &str) -> Option<Self> {
        match name {
            "set1" | "1" => Some(BandwidthSet::Set1),
            "set2" | "2" => Some(BandwidthSet::Set2),
            "set3" | "3" => Some(BandwidthSet::Set3),
            _ => None,
        }
    }
}

/// Full simulation configuration (Table 3-3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Cluster topology (16 clusters of 4 cores in the paper).
    pub topology: ClusterTopology,
    /// Aggregate-bandwidth design point.
    pub bandwidth_set: BandwidthSet,
    /// System clock.
    pub clock: Clock,
    /// Line rate per DWDM wavelength, Gb/s (12.5).
    pub wavelength_rate_gbps: f64,
    /// Maximum DWDM wavelengths per waveguide (64).
    pub wavelengths_per_waveguide: usize,
    /// Measured simulation cycles (10 000).
    pub sim_cycles: u64,
    /// Warm-up (reset) cycles excluded from measurement (1 000).
    pub warmup_cycles: u64,
    /// Virtual channels per router port (16).
    pub vcs_per_port: usize,
    /// Buffer depth per virtual channel, flits (64).
    pub vc_depth: usize,
    /// Maximum packets waiting in a core's injection queue before new packets
    /// are dropped (models finite source queues; drops indicate saturation).
    pub injection_queue_capacity: usize,
    /// Seed for every pseudo-random decision of the run.
    pub seed: u64,
}

impl SimConfig {
    /// The paper's configuration for a given bandwidth set.
    #[must_use]
    pub fn paper_default(set: BandwidthSet) -> Self {
        Self {
            topology: ClusterTopology::paper_default(),
            bandwidth_set: set,
            clock: Clock::paper_default(),
            wavelength_rate_gbps: 12.5,
            wavelengths_per_waveguide: 64,
            sim_cycles: 10_000,
            warmup_cycles: 1_000,
            vcs_per_port: 16,
            vc_depth: 64,
            injection_queue_capacity: 8,
            seed: 0x2014_50CC,
        }
    }

    /// A reduced configuration for unit tests and doc examples: the same
    /// architecture but fewer cycles, fewer VCs and shallower buffers so that
    /// debug builds stay fast.
    #[must_use]
    pub fn fast(set: BandwidthSet) -> Self {
        Self {
            sim_cycles: 1_500,
            warmup_cycles: 300,
            vcs_per_port: 4,
            vc_depth: 64,
            injection_queue_capacity: 4,
            ..Self::paper_default(set)
        }
    }

    /// Total cycles simulated (warm-up + measurement).
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.sim_cycles + self.warmup_cycles
    }

    /// Bits carried per wavelength per clock cycle (5 with the paper numbers).
    #[must_use]
    pub fn bits_per_wavelength_per_cycle(&self) -> f64 {
        self.clock
            .bits_per_wavelength_per_cycle(self.wavelength_rate_gbps)
    }

    /// Router specification of the electrical core switches.
    #[must_use]
    pub fn core_switch_spec(&self) -> RouterSpec {
        RouterSpec::new(
            self.topology.switch_ports(),
            self.vcs_per_port,
            self.vc_depth,
        )
    }

    /// Aggregate photonic data bandwidth of the whole fabric, Gb/s.
    #[must_use]
    pub fn aggregate_photonic_bandwidth_gbps(&self) -> f64 {
        self.bandwidth_set.total_wavelengths() as f64 * self.wavelength_rate_gbps
    }

    /// Static electrical power of the photonic fabric in milli-watts: the
    /// laser sources driving every data wavelength (1.5 mW each, Table 3-4)
    /// plus the thermal tuning holding one modulator ring and one detector
    /// ring on-resonance per active data wavelength (3 mW per ring at the
    /// paper's 2.4 mW/nm × 1.25 nm operating point).
    ///
    /// This burns regardless of traffic — 480 mW for bandwidth set 1 —
    /// which is why energy-per-bit comparisons that only count the dynamic
    /// [`crate::stats::SimStats::packet_energy_pj`] undercount: the sweep
    /// engine reports it next to the dynamic totals as the
    /// `static_power_mw` / `total_energy_pj` gauges on every
    /// [`MetricReport`](crate::metrics::MetricReport).
    #[must_use]
    pub fn static_power_mw(&self) -> f64 {
        let wavelengths = self.bandwidth_set.total_wavelengths();
        let laser = pnoc_photonics::laser::LaserSource::paper_default(wavelengths);
        let tuner = pnoc_photonics::thermal::ThermalTuner::paper_default();
        let tuned_rings = 2 * wavelengths; // one modulator + one detector per λ
        laser.power_mw(wavelengths) + tuner.power_mw() * tuned_rings as f64
    }

    /// A rough estimate of the per-core offered load (packets per core per
    /// cycle) that would exactly saturate the aggregate photonic bandwidth.
    /// Sweeps use multiples of this value.
    #[must_use]
    pub fn estimated_saturation_load(&self) -> f64 {
        let bits_per_cycle =
            self.bandwidth_set.total_wavelengths() as f64 * self.bits_per_wavelength_per_cycle();
        let packets_per_cycle = bits_per_cycle / self.bandwidth_set.packet_bits() as f64;
        packets_per_cycle / self.topology.num_cores() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_set_table_3_3_values() {
        assert_eq!(BandwidthSet::Set1.total_wavelengths(), 64);
        assert_eq!(BandwidthSet::Set2.total_wavelengths(), 256);
        assert_eq!(BandwidthSet::Set3.total_wavelengths(), 512);
        assert_eq!(BandwidthSet::Set1.packet_flits(), 64);
        assert_eq!(BandwidthSet::Set2.packet_flits(), 16);
        assert_eq!(BandwidthSet::Set3.packet_flits(), 8);
        assert_eq!(BandwidthSet::Set1.flit_bits(), 32);
        assert_eq!(BandwidthSet::Set2.flit_bits(), 128);
        assert_eq!(BandwidthSet::Set3.flit_bits(), 256);
        for set in BandwidthSet::ALL {
            assert_eq!(set.packet_bits(), 2048);
        }
    }

    #[test]
    fn firefly_and_dhet_channel_widths() {
        // Table 3-3: the Firefly channel width is the medium-high class, the
        // d-HetPNoC per-cluster maximum the high class (the builders' defaults).
        let widths = |class| BandwidthSet::ALL.map(|set| set.class_wavelengths(class));
        assert_eq!(widths(BandwidthClass::MediumHigh), [4, 16, 32]);
        assert_eq!(widths(BandwidthClass::High), [8, 32, 64]);
    }

    #[test]
    fn class_wavelengths_match_table_3_1() {
        // Set 1: 12.5, 25, 50, 100 Gbps → 1, 2, 4, 8 wavelengths.
        let s1 = BandwidthSet::Set1;
        assert_eq!(s1.class_wavelengths(BandwidthClass::Low), 1);
        assert_eq!(s1.class_wavelengths(BandwidthClass::High), 8);
        assert!((s1.class_bandwidth_gbps(BandwidthClass::High, 12.5) - 100.0).abs() < 1e-9);
        // Set 2: 50..400 Gbps.
        let s2 = BandwidthSet::Set2;
        assert!((s2.class_bandwidth_gbps(BandwidthClass::Low, 12.5) - 50.0).abs() < 1e-9);
        assert!((s2.class_bandwidth_gbps(BandwidthClass::High, 12.5) - 400.0).abs() < 1e-9);
        // Set 3: 100..800 Gbps.
        let s3 = BandwidthSet::Set3;
        assert!((s3.class_bandwidth_gbps(BandwidthClass::Low, 12.5) - 100.0).abs() < 1e-9);
        assert!((s3.class_bandwidth_gbps(BandwidthClass::High, 12.5) - 800.0).abs() < 1e-9);
    }

    #[test]
    fn firefly_channel_width_is_the_table_3_3_formula() {
        for set in BandwidthSet::ALL {
            assert_eq!(
                set.class_wavelengths(BandwidthClass::MediumHigh),
                set.total_wavelengths() / 16
            );
        }
    }

    #[test]
    fn paper_config_matches_table_3_3() {
        let c = SimConfig::paper_default(BandwidthSet::Set1);
        assert_eq!(c.topology.num_cores(), 64);
        assert_eq!(c.topology.num_clusters(), 16);
        assert_eq!(c.sim_cycles, 10_000);
        assert_eq!(c.warmup_cycles, 1_000);
        assert_eq!(c.vcs_per_port, 16);
        assert_eq!(c.vc_depth, 64);
        assert!((c.bits_per_wavelength_per_cycle() - 5.0).abs() < 1e-12);
        assert!((c.aggregate_photonic_bandwidth_gbps() - 800.0).abs() < 1e-9);
    }

    #[test]
    fn saturation_load_estimate_is_sane() {
        let c = SimConfig::paper_default(BandwidthSet::Set1);
        let load = c.estimated_saturation_load();
        // 320 bits/cycle across the fabric, 2048-bit packets, 64 cores:
        // ≈ 0.00244 packets/core/cycle.
        assert!((load - 0.00244).abs() < 1e-4, "load {load}");
        // Higher bandwidth sets saturate at proportionally higher loads.
        let c3 = SimConfig::paper_default(BandwidthSet::Set3);
        assert!(c3.estimated_saturation_load() > 7.0 * load);
    }

    #[test]
    fn static_power_counts_lasers_and_tuned_rings() {
        // Set 1: 64 λ × 1.5 mW laser + 128 rings × 3 mW heater = 480 mW.
        let c1 = SimConfig::paper_default(BandwidthSet::Set1);
        assert!((c1.static_power_mw() - 480.0).abs() < 1e-9);
        // Scales linearly with the wavelength count.
        let c3 = SimConfig::paper_default(BandwidthSet::Set3);
        assert!((c3.static_power_mw() - 8.0 * c1.static_power_mw()).abs() < 1e-9);
    }

    #[test]
    fn device_constants_agree_with_the_simulated_ones() {
        // The laser and heater models restate the line rate and the tuning
        // energy; each copy must match the number the simulation uses.
        use pnoc_photonics::energy::PhotonicEnergyModel;
        use pnoc_photonics::laser::LaserSource;
        use pnoc_photonics::thermal::ThermalTuner;
        let tuner = ThermalTuner::paper_default();
        for set in BandwidthSet::ALL {
            let rate = SimConfig::paper_default(set).wavelength_rate_gbps;
            let laser = LaserSource::paper_default(set.total_wavelengths());
            assert!((rate - laser.line_rate_gbps).abs() < 1e-12, "{set:?} laser");
            assert!(
                (rate - tuner.line_rate_gbps).abs() < 1e-12,
                "{set:?} heater"
            );
        }
        let tuning = PhotonicEnergyModel::paper_default().tuning_pj_per_bit;
        assert!((tuner.energy_pj_per_bit() - tuning).abs() < 1e-12);
    }

    #[test]
    fn fast_config_is_smaller_but_same_architecture() {
        let f = SimConfig::fast(BandwidthSet::Set2);
        let p = SimConfig::paper_default(BandwidthSet::Set2);
        assert!(f.sim_cycles < p.sim_cycles);
        assert!(f.vcs_per_port < p.vcs_per_port);
        assert_eq!(f.topology, p.topology);
        assert_eq!(f.bandwidth_set, p.bandwidth_set);
    }
}
