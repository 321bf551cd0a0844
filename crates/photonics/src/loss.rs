//! Optical loss budget.
//!
//! A photonic link works only if the optical power arriving at the detector,
//! after every coupling, propagation, ring-pass and crossing loss, is still
//! above the detector sensitivity. This module provides a simple additive
//! (in dB) loss budget that the crossbar architectures use to check that a
//! wavelength launched at the source cluster is detectable at the farthest
//! cluster — the feasibility argument underlying the crossbar design choice
//! of Section 2.2 / Chapter 3.

use crate::units::{db_to_linear, linear_to_db};

/// A named loss contribution, in dB.
#[derive(Debug, Clone, PartialEq)]
pub struct LossItem {
    /// Human-readable source of the loss ("coupler", "propagation", ...).
    pub name: String,
    /// Loss in dB (positive number = power lost).
    pub loss_db: f64,
}

/// An additive optical loss budget along one source→destination light path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LossBudget {
    items: Vec<LossItem>,
}

impl LossBudget {
    /// Creates an empty budget.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A representative budget for one hop of the paper's photonic crossbar:
    /// laser-to-waveguide coupling, the modulator insertion loss, propagation
    /// across the die, passing the off-resonance rings of the other clusters,
    /// the drop filter at the destination and the detector coupling.
    ///
    /// `pass_by_rings` is the number of off-resonance rings the light passes
    /// (proportional to the number of clusters sharing the waveguide).
    #[must_use]
    pub fn paper_crossbar_hop(pass_by_rings: usize) -> Self {
        let mut b = Self::new();
        b.add("laser coupling", 1.0);
        b.add("modulator insertion", 0.5);
        b.add("waveguide propagation (40 mm @ 1.5 dB/cm)", 6.0);
        b.add("ring pass-by", 0.01 * pass_by_rings as f64);
        b.add("drop filter", 0.5);
        b.add("detector coupling", 0.5);
        b
    }

    /// Adds a loss contribution.
    pub fn add(&mut self, name: impl Into<String>, loss_db: f64) {
        assert!(loss_db >= 0.0, "loss contributions must be non-negative");
        self.items.push(LossItem {
            name: name.into(),
            loss_db,
        });
    }

    /// Total loss in dB.
    #[must_use]
    pub fn total_db(&self) -> f64 {
        self.items.iter().map(|i| i.loss_db).sum()
    }

    /// The individual contributions.
    #[must_use]
    pub fn items(&self) -> &[LossItem] {
        &self.items
    }

    /// Power arriving at the detector, in milli-watts, for a given launch
    /// power.
    #[must_use]
    pub fn received_power_mw(&self, launch_power_mw: f64) -> f64 {
        launch_power_mw / db_to_linear(self.total_db())
    }

    /// Whether the link closes: received power stays above the detector
    /// sensitivity.
    #[must_use]
    pub fn link_closes(&self, launch_power_mw: f64, sensitivity_mw: f64) -> bool {
        self.received_power_mw(launch_power_mw) >= sensitivity_mw
    }

    /// Margin of the link in dB (positive = closes with room to spare).
    ///
    /// # Panics
    ///
    /// Panics if either power is not positive.
    #[must_use]
    pub fn margin_db(&self, launch_power_mw: f64, sensitivity_mw: f64) -> f64 {
        assert!(launch_power_mw > 0.0 && sensitivity_mw > 0.0);
        linear_to_db(launch_power_mw / sensitivity_mw) - self.total_db()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_are_additive() {
        let mut b = LossBudget::new();
        b.add("a", 1.5);
        b.add("b", 2.5);
        assert!((b.total_db() - 4.0).abs() < 1e-12);
        assert_eq!(b.items().len(), 2);
    }

    #[test]
    fn received_power_follows_db_arithmetic() {
        let mut b = LossBudget::new();
        b.add("x", 10.0);
        assert!((b.received_power_mw(1.0) - 0.1).abs() < 1e-12);
        assert!((b.received_power_mw(2.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn paper_crossbar_link_closes_with_paper_laser_and_detector() {
        // 1.5 mW launch, 0.01 mW sensitivity, 15 pass-by clusters × 64 rings.
        let b = LossBudget::paper_crossbar_hop(15 * 64);
        assert!(b.link_closes(1.5, 0.01), "loss budget {} dB", b.total_db());
        assert!(b.margin_db(1.5, 0.01) > 0.0);
    }

    #[test]
    fn margin_goes_negative_when_loss_too_high() {
        let mut b = LossBudget::paper_crossbar_hop(64);
        b.add("catastrophic extra loss", 40.0);
        assert!(!b.link_closes(1.5, 0.01));
        assert!(b.margin_db(1.5, 0.01) < 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_loss_rejected() {
        let mut b = LossBudget::new();
        b.add("gain?!", -3.0);
    }
}
