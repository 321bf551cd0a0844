//! The data-plane fault state of one photonic system.
//!
//! Which cluster links are down, which MRR rings are stuck, and by how much
//! each bandwidth class (and the shared laser) is derated. The system owns
//! the one [`FaultSurface`] and applies every scheduled transition to it;
//! fabrics only read it, to decide *how* the derating maps onto their
//! wavelength arithmetic, never to book-keep overlapping transient windows.

use crate::plan::{FaultEvent, FaultKind, FaultTarget};
use pnoc_noc::packet::BandwidthClass;

/// Data-plane fault state, owned by the system and read by its fabric.
///
/// Overlapping faults compose multiplicatively: two concurrent
/// `wavelength-degrade …/2` windows on the same class derate it by 4 until
/// the first repair divides the factor back out. Link and ring faults are
/// idempotent flags (the grammar forbids overlapping windows on the same
/// target only through plan authorship; a repeated apply is harmless).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSurface {
    failed_links: Vec<bool>,
    stuck_rings: Vec<bool>,
    class_divisors: [u32; BandwidthClass::ALL.len()],
    laser_divisor: u32,
}

impl FaultSurface {
    /// A healthy surface for a fabric with `num_switches` cluster switches.
    #[must_use]
    pub fn new(num_switches: usize) -> Self {
        Self {
            failed_links: vec![false; num_switches],
            stuck_rings: vec![false; num_switches],
            class_divisors: [1; BandwidthClass::ALL.len()],
            laser_divisor: 1,
        }
    }

    /// Records the onset of `event`.
    pub fn apply(&mut self, event: &FaultEvent) {
        match (event.kind, event.target) {
            (FaultKind::LinkFail, FaultTarget::Switch(n)) => {
                if let Some(link) = self.failed_links.get_mut(n) {
                    *link = true;
                }
            }
            (FaultKind::RingStuck, FaultTarget::Switch(n)) => {
                if let Some(ring) = self.stuck_rings.get_mut(n) {
                    *ring = true;
                }
            }
            (FaultKind::WavelengthDegrade, FaultTarget::Class(class)) => {
                let d = &mut self.class_divisors[class.index()];
                *d = d.saturating_mul(event.severity.max(1));
            }
            (FaultKind::LaserDim, _) => {
                self.laser_divisor = self.laser_divisor.saturating_mul(event.severity.max(1));
            }
            // Kind/target pairings the grammar does not produce.
            _ => {}
        }
    }

    /// Records the repair of `event`, restoring exactly the state
    /// [`FaultSurface::apply`] disturbed.
    pub fn clear(&mut self, event: &FaultEvent) {
        match (event.kind, event.target) {
            (FaultKind::LinkFail, FaultTarget::Switch(n)) => {
                if let Some(link) = self.failed_links.get_mut(n) {
                    *link = false;
                }
            }
            (FaultKind::RingStuck, FaultTarget::Switch(n)) => {
                if let Some(ring) = self.stuck_rings.get_mut(n) {
                    *ring = false;
                }
            }
            (FaultKind::WavelengthDegrade, FaultTarget::Class(class)) => {
                let d = &mut self.class_divisors[class.index()];
                *d = (*d / event.severity.max(1)).max(1);
            }
            (FaultKind::LaserDim, _) => {
                self.laser_divisor = (self.laser_divisor / event.severity.max(1)).max(1);
            }
            _ => {}
        }
    }

    /// Whether the photonic link of switch `n` is operational.
    #[inline]
    #[must_use]
    pub fn link_up(&self, n: usize) -> bool {
        !self.failed_links.get(n).copied().unwrap_or(false)
    }

    /// Whether switch `n` has a stuck/detuned MRR ring (its transmissions
    /// are pinned to a single wavelength).
    #[inline]
    #[must_use]
    pub fn ring_stuck(&self, n: usize) -> bool {
        self.stuck_rings.get(n).copied().unwrap_or(false)
    }

    /// The combined derating divisor for transfers of `class`: the class's
    /// own degradation times the global laser dimming.
    #[inline]
    #[must_use]
    pub fn class_divisor(&self, class: BandwidthClass) -> u32 {
        self.class_divisors[class.index()].saturating_mul(self.laser_divisor)
    }

    /// The global laser-dimming divisor alone (applies to every pool,
    /// independent of class).
    #[must_use]
    pub fn laser_divisor(&self) -> u32 {
        self.laser_divisor
    }

    /// The worst derating divisor across all classes (what a class-blind
    /// fabric like Firefly, which switches every modulator for every
    /// transfer, must assume for its whole channel).
    #[inline]
    #[must_use]
    pub fn max_divisor(&self) -> u32 {
        self.class_divisors
            .iter()
            .copied()
            .max()
            .unwrap_or(1)
            .saturating_mul(self.laser_divisor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;

    fn event(text: &str) -> FaultEvent {
        FaultPlan::parse(text).expect("valid event").events()[0]
    }

    #[test]
    fn apply_then_clear_restores_the_healthy_surface() {
        let healthy = FaultSurface::new(8);
        let mut surface = healthy.clone();
        let events = [
            event("link-fail@c10-20:sw3"),
            event("ring-stuck@c10-20:sw5"),
            event("wavelength-degrade@c10-20:class-high/4"),
            event("laser-dim@c10-20:fabric/2"),
        ];
        for e in &events {
            surface.apply(e);
        }
        assert_ne!(surface, healthy);
        assert!(!surface.link_up(3));
        assert!(surface.link_up(4));
        assert!(surface.ring_stuck(5));
        assert_eq!(surface.class_divisor(BandwidthClass::High), 8);
        assert_eq!(surface.class_divisor(BandwidthClass::Low), 2);
        assert_eq!(surface.max_divisor(), 8);
        for e in &events {
            surface.clear(e);
        }
        assert_eq!(surface, healthy);
    }

    #[test]
    fn overlapping_degradations_compose_multiplicatively() {
        let mut surface = FaultSurface::new(4);
        let first = event("wavelength-degrade@c10-30:class-low/2");
        let second = event("wavelength-degrade@c20-40:class-low/3");
        surface.apply(&first);
        surface.apply(&second);
        assert_eq!(surface.class_divisor(BandwidthClass::Low), 6);
        surface.clear(&first);
        assert_eq!(surface.class_divisor(BandwidthClass::Low), 3);
        surface.clear(&second);
        assert_eq!(surface, FaultSurface::new(4));
    }

    #[test]
    fn out_of_range_switches_are_ignored() {
        // `validate` rejects these before a run; direct applies stay safe.
        let mut surface = FaultSurface::new(2);
        surface.apply(&event("link-fail@c10:sw9"));
        assert_eq!(surface, FaultSurface::new(2));
        assert!(surface.link_up(9), "unknown switches read as healthy");
    }
}
