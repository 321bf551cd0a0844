//! Hotspot-coupled skewed traffic (Section 3.4.2).
//!
//! "a core is determined to be the hotspot core and all cores send a certain
//! percentage of all traffic to the hotspot. The rest of the traffic is
//! distributed following the skewed traffic types". The paper's four case
//! studies are 10 % and 20 % hotspot fractions combined with the Skewed2 and
//! Skewed3 patterns, registered as `hotspot-{10,20}pct-skewed-{2,3}`.

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

    /// The hotspot core.
    #[must_use]
    pub fn hotspot(&self) -> CoreId {
        self.hotspot
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
    #[should_panic(expected = "hotspot fraction")]
    fn fraction_of_one_is_rejected() {
        let _ = model(1.0);
    }
}
