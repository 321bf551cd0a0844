//! Photonic switching elements (PSEs).
//!
//! Some photonic NoCs (e.g. the 2-D folded torus of Shacham et al. \[15\])
//! steer light through 90° turns with MRR-based photonic switching elements
//! (thesis Section 2.1.3). The crossbar-based architectures studied in the
//! thesis do not need PSEs on the data path, but the element is part of the
//! photonic substrate and is modelled here for completeness and for the loss
//! analysis that justifies the crossbar design choice (each PSE hop adds loss
//! and crosstalk, which is why the thesis prefers a blocking, compact switch).

use crate::mrr::MicroRingResonator;

/// State of a photonic switching element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PseState {
    /// Ring off-resonance: light passes straight through.
    Off,
    /// Ring on-resonance: the matching wavelength is turned by 90°.
    On,
}

/// Direction taken by light through a PSE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PsePath {
    /// Straight through (ring off or wavelength mismatch).
    Through,
    /// Turned by 90° (ring on and wavelength matches).
    Turned,
}

/// An MRR-based photonic switching element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhotonicSwitchingElement {
    /// The ring implementing the switch.
    pub ring: MicroRingResonator,
    /// Current switching state.
    pub state: PseState,
    /// Insertion loss of the through path, dB.
    pub through_loss_db: f64,
    /// Insertion loss of the turned (drop) path, dB.
    pub turn_loss_db: f64,
    /// Crosstalk leaked into the unintended port, dB (negative number means
    /// the leaked power is that many dB below the signal).
    pub crosstalk_db: f64,
    /// Energy to change state once, in pico-joules.
    pub switching_energy_pj: f64,
}

impl PhotonicSwitchingElement {
    /// A PSE with representative published parameters.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            ring: MicroRingResonator::paper_area_ring(),
            state: PseState::Off,
            through_loss_db: 0.05,
            turn_loss_db: 0.5,
            crosstalk_db: -20.0,
            switching_energy_pj: 0.4,
        }
    }

    /// Sets the switching state, returning the energy spent (zero when the
    /// state does not change).
    pub fn set_state(&mut self, state: PseState) -> f64 {
        if self.state == state {
            0.0
        } else {
            self.state = state;
            self.switching_energy_pj
        }
    }

    /// Path taken by light whose wavelength matches the ring resonance.
    #[must_use]
    pub fn route_resonant(&self) -> PsePath {
        match self.state {
            PseState::Off => PsePath::Through,
            PseState::On => PsePath::Turned,
        }
    }

    /// Path taken by light whose wavelength does not match the resonance:
    /// always straight through, regardless of switch state.
    #[must_use]
    pub fn route_off_resonant(&self) -> PsePath {
        PsePath::Through
    }

    /// Insertion loss experienced along `path`, in dB.
    #[must_use]
    pub fn loss_db(&self, path: PsePath) -> f64 {
        match path {
            PsePath::Through => self.through_loss_db,
            PsePath::Turned => self.turn_loss_db,
        }
    }

    /// Total insertion loss of a route crossing `hops` PSEs that all turn the
    /// light. This grows linearly, which is the argument (Section 2.1.3)
    /// against deep PSE-based non-blocking switches.
    #[must_use]
    pub fn cascaded_turn_loss_db(&self, hops: usize) -> f64 {
        self.turn_loss_db * hops as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_state_passes_light_through() {
        let pse = PhotonicSwitchingElement::paper_default();
        assert_eq!(pse.route_resonant(), PsePath::Through);
        assert_eq!(pse.route_off_resonant(), PsePath::Through);
    }

    #[test]
    fn on_state_turns_only_resonant_light() {
        let mut pse = PhotonicSwitchingElement::paper_default();
        let e = pse.set_state(PseState::On);
        assert!(e > 0.0);
        assert_eq!(pse.route_resonant(), PsePath::Turned);
        assert_eq!(pse.route_off_resonant(), PsePath::Through);
    }

    #[test]
    fn redundant_state_change_costs_nothing() {
        let mut pse = PhotonicSwitchingElement::paper_default();
        assert_eq!(pse.set_state(PseState::Off), 0.0);
        assert!(pse.set_state(PseState::On) > 0.0);
        assert_eq!(pse.set_state(PseState::On), 0.0);
    }

    #[test]
    fn turn_loss_exceeds_through_loss_and_cascades() {
        let pse = PhotonicSwitchingElement::paper_default();
        assert!(pse.loss_db(PsePath::Turned) > pse.loss_db(PsePath::Through));
        assert!((pse.cascaded_turn_loss_db(4) - 2.0).abs() < 1e-9);
    }
}
