//! The Firefly photonic fabric: uniform, static wavelength allocation.
//!
//! Every cluster's write channel carries exactly `total wavelengths / 16`
//! DWDM wavelengths (4, 16 or 32 for the three bandwidth sets, Table 3-3).
//! Every transmission uses the full channel — "all the modulators and
//! demodulators are on for any communication ... irrespective of the
//! required data rate" (Sections 2.2.1 and 3.3.1) — so a source can only
//! drive one packet at a time and a high-bandwidth application receives no
//! more bandwidth than a low-bandwidth one.

use pnoc_faults::{FaultEvent, FaultSurface};
use pnoc_noc::ids::ClusterId;
use pnoc_sim::config::SimConfig;
use pnoc_sim::system::PhotonicFabric;

/// The uniform, statically-allocated Firefly fabric.
#[derive(Debug, Clone)]
pub struct FireflyFabric {
    num_clusters: usize,
    wavelengths_per_channel: usize,
    total_wavelengths: usize,
    reservation_cycles: u64,
    faults: FaultSurface,
}

impl FireflyFabric {
    /// The paper's crossbar radix: 16 clusters share the R-SWMR crossbar, so
    /// each write channel gets `total wavelengths / 16` wavelengths
    /// (Table 3-3). This is the default of the `radix` parameter declared by
    /// the `"firefly"` registry entry.
    pub const DEFAULT_RADIX: usize = 16;

    /// Builds the fabric for a simulation configuration at the paper's
    /// defaults (radix 16, single-cycle reservation).
    #[must_use]
    pub fn new(config: &SimConfig) -> Self {
        Self::with_params(config, Self::DEFAULT_RADIX, 1)
    }

    /// Builds the fabric with an explicit crossbar radix (the uniform static
    /// allocation divisor: each write channel gets `total wavelengths /
    /// radix` wavelengths, at least 1) and reservation latency. This is what
    /// the registry entry's `radix` / `reservation_cycles` parameters feed.
    ///
    /// # Panics
    ///
    /// Panics if `radix` or `reservation_cycles` is zero.
    #[must_use]
    pub fn with_params(config: &SimConfig, radix: usize, reservation_cycles: u64) -> Self {
        assert!(radix > 0, "radix must be positive");
        assert!(reservation_cycles > 0, "reservation takes at least a cycle");
        let total_wavelengths = config.bandwidth_set.total_wavelengths();
        let num_clusters = config.topology.num_clusters();
        Self {
            num_clusters,
            wavelengths_per_channel: (total_wavelengths / radix).max(1),
            total_wavelengths,
            reservation_cycles,
            faults: FaultSurface::new(num_clusters),
        }
    }

    /// Wavelengths of each cluster's write channel.
    #[must_use]
    pub fn wavelengths_per_channel(&self) -> usize {
        self.wavelengths_per_channel
    }

    /// Number of clusters sharing the crossbar.
    #[must_use]
    pub fn num_clusters(&self) -> usize {
        self.num_clusters
    }
}

impl PhotonicFabric for FireflyFabric {
    fn architecture_name(&self) -> &str {
        "firefly"
    }

    #[inline]
    fn pre_cycle(&mut self, _cycle: u64) {}

    fn skip_cycles(&mut self, _from: u64, _to: u64) {
        // Firefly has no per-cycle control-plane state to advance.
    }

    #[inline]
    fn pool_size(&self, _src: ClusterId) -> usize {
        self.wavelengths_per_channel
    }

    #[inline]
    fn wavelengths_for(&self, src: ClusterId, dst: ClusterId) -> usize {
        // A stuck/detuned MRR ring at either endpoint pins the transfer to a
        // single wavelength.
        if self.faults.ring_stuck(src.0) || self.faults.ring_stuck(dst.0) {
            return 1;
        }
        // All wavelengths of the channel are used for every transmission,
        // regardless of the application's bandwidth class — so a degraded
        // class (or dimmed laser) derates the whole channel: Firefly cannot
        // steer transfers away from the damaged wavelengths.
        (self.wavelengths_per_channel / self.faults.max_divisor() as usize).max(1)
    }

    #[inline]
    fn reservation_cycles(&self, _src: ClusterId, _dst: ClusterId) -> u64 {
        self.reservation_cycles
    }

    fn total_data_wavelengths(&self) -> usize {
        self.total_wavelengths
    }

    fn allocation_snapshot(&self) -> Vec<usize> {
        vec![self.wavelengths_per_channel; self.num_clusters]
    }

    fn apply_fault(&mut self, event: &FaultEvent) {
        self.faults.apply(event);
    }

    fn clear_fault(&mut self, event: &FaultEvent) {
        self.faults.clear(event);
    }

    #[inline]
    fn link_up(&self, cluster: ClusterId) -> bool {
        self.faults.link_up(cluster.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnoc_sim::config::BandwidthSet;

    #[test]
    fn channel_widths_match_table_3_3() {
        for (set, expected) in [
            (BandwidthSet::Set1, 4),
            (BandwidthSet::Set2, 16),
            (BandwidthSet::Set3, 32),
        ] {
            let fabric = FireflyFabric::new(&SimConfig::paper_default(set));
            assert_eq!(fabric.wavelengths_per_channel(), expected);
            assert_eq!(fabric.pool_size(ClusterId(0)), expected);
            assert_eq!(fabric.wavelengths_for(ClusterId(0), ClusterId(5)), expected);
        }
    }

    #[test]
    fn allocation_is_uniform_across_clusters() {
        let fabric = FireflyFabric::new(&SimConfig::paper_default(BandwidthSet::Set1));
        let alloc = fabric.allocation_snapshot();
        assert_eq!(alloc.len(), 16);
        assert!(alloc.iter().all(|&w| w == 4));
        // The whole aggregate bandwidth budget is exactly used.
        assert_eq!(alloc.iter().sum::<usize>(), fabric.total_data_wavelengths());
    }

    #[test]
    fn reservation_takes_one_cycle() {
        let fabric = FireflyFabric::new(&SimConfig::paper_default(BandwidthSet::Set3));
        assert_eq!(fabric.reservation_cycles(ClusterId(1), ClusterId(2)), 1);
        assert_eq!(fabric.architecture_name(), "firefly");
    }

    #[test]
    fn faults_derate_the_channel_and_repairs_restore_it() {
        use pnoc_sim::system::PhotonicFabric as _;
        let mut fabric = FireflyFabric::new(&SimConfig::paper_default(BandwidthSet::Set2));
        let healthy = fabric.wavelengths_for(ClusterId(0), ClusterId(5));
        assert_eq!(healthy, 16);
        let plan = pnoc_faults::FaultPlan::parse(
            "wavelength-degrade@c10-20:class-high/2,ring-stuck@c10-20:sw3,link-fail@c10-20:sw7",
        )
        .unwrap();
        for event in plan.events() {
            fabric.apply_fault(event);
        }
        // Class-blind Firefly derates the whole channel by the worst class.
        assert_eq!(fabric.wavelengths_for(ClusterId(0), ClusterId(5)), 8);
        // A stuck ring at either endpoint pins transfers to one wavelength.
        assert_eq!(fabric.wavelengths_for(ClusterId(3), ClusterId(5)), 1);
        assert_eq!(fabric.wavelengths_for(ClusterId(0), ClusterId(3)), 1);
        assert!(!fabric.link_up(ClusterId(7)));
        assert!(fabric.link_up(ClusterId(6)));
        for event in plan.events() {
            fabric.clear_fault(event);
        }
        assert_eq!(fabric.wavelengths_for(ClusterId(0), ClusterId(5)), healthy);
        assert!(fabric.link_up(ClusterId(7)));
    }

    #[test]
    fn radix_parameter_scales_the_channel_width() {
        let config = SimConfig::paper_default(BandwidthSet::Set1);
        // Halving the radix doubles each channel's wavelength share.
        let wide = FireflyFabric::with_params(&config, 8, 1);
        assert_eq!(wide.wavelengths_per_channel(), 8);
        // A radix beyond the wavelength budget still leaves one wavelength.
        let starved = FireflyFabric::with_params(&config, 128, 2);
        assert_eq!(starved.wavelengths_per_channel(), 1);
        assert_eq!(starved.reservation_cycles(ClusterId(0), ClusterId(1)), 2);
        // The default constructor is the paper point.
        assert_eq!(
            FireflyFabric::new(&config).wavelengths_per_channel(),
            FireflyFabric::with_params(&config, FireflyFabric::DEFAULT_RADIX, 1)
                .wavelengths_per_channel()
        );
    }
}
