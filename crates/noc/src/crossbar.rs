//! Crossbar switch model.
//!
//! The routing/crossbar stage of the three-stage router connects granted
//! input ports to output ports for one cycle. The crossbar enforces the two
//! structural invariants of a physical crossbar: an input drives at most one
//! output per cycle, and an output is driven by at most one input per cycle.

use crate::ids::PortId;

/// A single input→output connection established for one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrossbarGrant {
    /// Input port driving the connection.
    pub input: PortId,
    /// Output port being driven.
    pub output: PortId,
}

/// An `n × n` crossbar that records the connections established in the
/// current cycle and rejects conflicting ones.
#[derive(Debug, Clone)]
pub struct Crossbar {
    num_ports: usize,
    /// `output_for_input[i] = Some(o)` when input `i` drives output `o`.
    output_for_input: Vec<Option<PortId>>,
    /// `input_for_output[o] = Some(i)` when output `o` is driven by input `i`.
    input_for_output: Vec<Option<PortId>>,
    traversals: u64,
}

impl Crossbar {
    /// Creates a crossbar with `num_ports` inputs and outputs.
    ///
    /// # Panics
    ///
    /// Panics if `num_ports` is zero.
    #[must_use]
    pub fn new(num_ports: usize) -> Self {
        assert!(num_ports > 0, "crossbar needs at least one port");
        Self {
            num_ports,
            output_for_input: vec![None; num_ports],
            input_for_output: vec![None; num_ports],
            traversals: 0,
        }
    }

    /// Number of ports.
    #[must_use]
    pub fn num_ports(&self) -> usize {
        self.num_ports
    }

    /// Attempts to connect `input` to `output` for this cycle. Returns the
    /// grant on success or `None` when either endpoint is already in use.
    #[inline]
    pub fn connect(&mut self, input: PortId, output: PortId) -> Option<CrossbarGrant> {
        assert!(input.0 < self.num_ports, "input port out of range");
        assert!(output.0 < self.num_ports, "output port out of range");
        if self.output_for_input[input.0].is_some() || self.input_for_output[output.0].is_some() {
            return None;
        }
        self.output_for_input[input.0] = Some(output);
        self.input_for_output[output.0] = Some(input);
        self.traversals += 1;
        Some(CrossbarGrant { input, output })
    }

    /// True when `output` is still free this cycle.
    #[must_use]
    pub fn output_free(&self, output: PortId) -> bool {
        self.input_for_output
            .get(output.0)
            .map(Option::is_none)
            .unwrap_or(false)
    }

    /// True when `input` is still free this cycle.
    #[must_use]
    pub fn input_free(&self, input: PortId) -> bool {
        self.output_for_input
            .get(input.0)
            .map(Option::is_none)
            .unwrap_or(false)
    }

    /// Clears every connection (call at the start of each cycle).
    #[inline]
    pub fn clear(&mut self) {
        self.output_for_input.iter_mut().for_each(|v| *v = None);
        self.input_for_output.iter_mut().for_each(|v| *v = None);
    }

    /// Total connections established over the crossbar's lifetime (one per
    /// flit traversal). Used for switching-energy accounting.
    #[must_use]
    pub fn traversals(&self) -> u64 {
        self.traversals
    }

    /// Current connections as `(input, output)` pairs.
    #[must_use]
    pub fn connections(&self) -> Vec<CrossbarGrant> {
        self.output_for_input
            .iter()
            .enumerate()
            .filter_map(|(i, o)| {
                o.map(|output| CrossbarGrant {
                    input: PortId(i),
                    output,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_and_conflict_detection() {
        let mut xbar = Crossbar::new(4);
        assert!(xbar.connect(PortId(0), PortId(2)).is_some());
        // Same input cannot drive a second output.
        assert!(xbar.connect(PortId(0), PortId(3)).is_none());
        // Same output cannot be driven by a second input.
        assert!(xbar.connect(PortId(1), PortId(2)).is_none());
        // Disjoint connection succeeds.
        assert!(xbar.connect(PortId(1), PortId(3)).is_some());
        assert_eq!(xbar.connections().len(), 2);
    }

    #[test]
    fn clear_releases_connections() {
        let mut xbar = Crossbar::new(2);
        xbar.connect(PortId(0), PortId(1)).unwrap();
        assert!(!xbar.output_free(PortId(1)));
        xbar.clear();
        assert!(xbar.output_free(PortId(1)));
        assert!(xbar.input_free(PortId(0)));
        assert!(xbar.connect(PortId(0), PortId(1)).is_some());
    }

    #[test]
    fn traversal_counter_accumulates_across_clears() {
        let mut xbar = Crossbar::new(2);
        xbar.connect(PortId(0), PortId(1)).unwrap();
        xbar.clear();
        xbar.connect(PortId(1), PortId(0)).unwrap();
        assert_eq!(xbar.traversals(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_port_panics() {
        let mut xbar = Crossbar::new(2);
        let _ = xbar.connect(PortId(5), PortId(0));
    }
}
