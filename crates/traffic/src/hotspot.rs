//! Hotspot-coupled skewed traffic (Section 3.4.2).
//!
//! "a core is determined to be the hotspot core and all cores send a certain
//! percentage of all traffic to the hotspot. The rest of the traffic is
//! distributed following the skewed traffic types". The paper's four case
//! studies are 10 % and 20 % hotspot fractions combined with the Skewed2 and
//! Skewed3 patterns; [`HotspotSkewedTraffic::paper_case_studies`] builds all
//! four.

use crate::pattern::{PacketShape, SkewLevel};
use crate::skewed::SkewedTraffic;
use pnoc_noc::ids::{ClusterId, CoreId};
use pnoc_noc::packet::{BandwidthClass, PacketDescriptor};
use pnoc_noc::topology::ClusterTopology;
use pnoc_noc::traffic_model::{OfferedLoad, TrafficModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Skewed traffic with an additional hotspot destination.
#[derive(Debug, Clone)]
pub struct HotspotSkewedTraffic {
    topology: ClusterTopology,
    inner: SkewedTraffic,
    hotspot: CoreId,
    hotspot_fraction: f64,
    label: String,
    rng: StdRng,
}

impl HotspotSkewedTraffic {
    /// Creates a hotspot generator.
    ///
    /// # Panics
    ///
    /// Panics if `hotspot_fraction` is outside `[0, 1)`.
    #[must_use]
    pub fn new(
        topology: ClusterTopology,
        shape: PacketShape,
        skew: SkewLevel,
        hotspot: CoreId,
        hotspot_fraction: f64,
        load: OfferedLoad,
        seed: u64,
    ) -> Self {
        assert!(
            (0.0..1.0).contains(&hotspot_fraction),
            "hotspot fraction must be in [0, 1)"
        );
        let inner = SkewedTraffic::new(topology, shape, skew, load, seed);
        let label = format!(
            "hotspot-{}pct-{}",
            (hotspot_fraction * 100.0).round() as u32,
            skew.label()
        );
        Self {
            topology,
            inner,
            hotspot,
            hotspot_fraction,
            label,
            rng: StdRng::seed_from_u64(seed ^ 0x4854_5350),
        }
    }

    /// The four synthetic case studies of Figure 3-5:
    /// skewed-hotspot1 (10 % + Skewed2), skewed-hotspot2 (10 % + Skewed3),
    /// skewed-hotspot3 (20 % + Skewed2), skewed-hotspot4 (20 % + Skewed3).
    #[must_use]
    pub fn paper_case_studies(
        topology: ClusterTopology,
        shape: PacketShape,
        load: OfferedLoad,
        seed: u64,
    ) -> Vec<HotspotSkewedTraffic> {
        let hotspot = CoreId(0);
        vec![
            Self::new(
                topology,
                shape,
                SkewLevel::Skewed2,
                hotspot,
                0.10,
                load,
                seed,
            ),
            Self::new(
                topology,
                shape,
                SkewLevel::Skewed3,
                hotspot,
                0.10,
                load,
                seed,
            ),
            Self::new(
                topology,
                shape,
                SkewLevel::Skewed2,
                hotspot,
                0.20,
                load,
                seed,
            ),
            Self::new(
                topology,
                shape,
                SkewLevel::Skewed3,
                hotspot,
                0.20,
                load,
                seed,
            ),
        ]
    }

    /// The hotspot core.
    #[must_use]
    pub fn hotspot(&self) -> CoreId {
        self.hotspot
    }

    /// Fraction of traffic sent to the hotspot.
    #[must_use]
    pub fn hotspot_fraction(&self) -> f64 {
        self.hotspot_fraction
    }
}

impl TrafficModel for HotspotSkewedTraffic {
    fn next_packet(&mut self, cycle: u64, src: CoreId) -> Option<PacketDescriptor> {
        let base = self.inner.next_packet(cycle, src)?;
        if src != self.hotspot && self.rng.gen_bool(self.hotspot_fraction) {
            // Redirect this packet to the hotspot core. The flow inherits the
            // class of the (src, hotspot-cluster) application.
            let hot_cluster = self.topology.cluster_of(self.hotspot);
            let src_cluster = self.topology.cluster_of(src);
            let class = if src_cluster == hot_cluster {
                base.class
            } else {
                self.inner.demand_class(src_cluster, hot_cluster)
            };
            return Some(PacketDescriptor {
                dst: self.hotspot,
                class,
                ..base
            });
        }
        Some(base)
    }

    fn offered_load(&self) -> OfferedLoad {
        self.inner.offered_load()
    }

    fn demand_class(&self, src: ClusterId, dst: ClusterId) -> BandwidthClass {
        self.inner.demand_class(src, dst)
    }

    fn source_intensity(&self, src: ClusterId) -> f64 {
        self.inner.source_intensity(src)
    }

    fn volume_share(&self, src: ClusterId, dst: ClusterId) -> f64 {
        // Blend the skewed share with the hotspot redirection.
        let hot_cluster = self.topology.cluster_of(self.hotspot);
        if src == dst {
            return 0.0;
        }
        let base = self.inner.volume_share(src, dst) * (1.0 - self.hotspot_fraction);
        if dst == hot_cluster && src != hot_cluster {
            base + self.hotspot_fraction
        } else {
            base
        }
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(fraction: f64) -> HotspotSkewedTraffic {
        HotspotSkewedTraffic::new(
            ClusterTopology::paper_default(),
            PacketShape::new(64, 32),
            SkewLevel::Skewed2,
            CoreId(0),
            fraction,
            OfferedLoad::new(1.0),
            21,
        )
    }

    #[test]
    fn hotspot_receives_the_configured_fraction() {
        let mut m = model(0.2);
        let mut total = 0usize;
        let mut to_hotspot = 0;
        for cycle in 0..30_000 {
            let src = CoreId(((cycle as usize) % 63) + 1); // never the hotspot itself
            if let Some(p) = m.next_packet(cycle, src) {
                total += 1;
                if p.dst == CoreId(0) {
                    to_hotspot += 1;
                }
            }
        }
        assert!(total > 10_000);
        let fraction = to_hotspot as f64 / total as f64;
        // The hotspot also receives a little skewed traffic naturally, so the
        // measured fraction is at least the configured redirection.
        assert!(
            fraction > 0.18 && fraction < 0.30,
            "hotspot fraction {fraction}"
        );
    }

    #[test]
    fn volume_shares_still_normalise() {
        let m = model(0.1);
        for s in 1..16 {
            let total: f64 = (0..16)
                .map(|d| m.volume_share(ClusterId(s), ClusterId(d)))
                .sum();
            assert!((total - 1.0).abs() < 1e-9, "source {s}: {total}");
        }
        // The hotspot cluster receives at least the redirected fraction on top
        // of its skewed share.
        let hot_share = m.volume_share(ClusterId(5), ClusterId(0));
        assert!(
            hot_share >= m.hotspot_fraction(),
            "hotspot share {hot_share} below redirected fraction"
        );
    }

    #[test]
    fn paper_case_studies_have_expected_parameters() {
        let studies = HotspotSkewedTraffic::paper_case_studies(
            ClusterTopology::paper_default(),
            PacketShape::new(64, 32),
            OfferedLoad::new(0.01),
            3,
        );
        assert_eq!(studies.len(), 4);
        assert!((studies[0].hotspot_fraction() - 0.10).abs() < 1e-12);
        assert!((studies[3].hotspot_fraction() - 0.20).abs() < 1e-12);
        assert_eq!(studies[0].name(), "hotspot-10pct-skewed-2");
        assert_eq!(studies[3].name(), "hotspot-20pct-skewed-3");
    }

    #[test]
    #[should_panic(expected = "hotspot fraction")]
    fn fraction_of_one_is_rejected() {
        let _ = model(1.0);
    }
}
