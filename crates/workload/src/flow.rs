//! The [`Flow`] primitive: one finite transfer between two cores.

use pnoc_noc::ids::CoreId;

/// Identifier of one flow within a [`Workload`](crate::dag::Workload): the
/// flow's index in the workload's flow list (checked by
/// [`Workload::validate`](crate::dag::Workload::validate)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct FlowId(pub usize);

impl std::fmt::Display for FlowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// One finite transfer: `bytes` bytes from `src` to `dst`, eligible to start
/// once every flow in `deps` has completed **and** the clock has reached
/// `release_cycle`. Flows are grouped into named phases by their
/// `collective` label (per-collective makespans are reported per label).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flow {
    /// Identifier; must equal the flow's index in its workload.
    pub id: FlowId,
    /// Source core.
    pub src: CoreId,
    /// Destination core (must differ from `src`).
    pub dst: CoreId,
    /// Payload size in bytes (must be positive).
    pub bytes: u64,
    /// Flows that must complete before this one may start.
    pub deps: Vec<FlowId>,
    /// Earliest cycle this flow may start, even with all dependencies met.
    pub release_cycle: u64,
    /// Collective / phase label ("reduce-scatter", "push", ...).
    pub collective: String,
}

impl Flow {
    /// Creates a dependency-free flow released at cycle 0 with an empty
    /// collective label.
    #[must_use]
    pub fn new(id: FlowId, src: CoreId, dst: CoreId, bytes: u64) -> Self {
        Self {
            id,
            src,
            dst,
            bytes,
            deps: Vec::new(),
            release_cycle: 0,
            collective: String::new(),
        }
    }

    /// Adds a dependency.
    #[must_use]
    pub fn after(mut self, dep: FlowId) -> Self {
        self.deps.push(dep);
        self
    }

    /// Sets the earliest release cycle.
    #[must_use]
    pub fn released_at(mut self, cycle: u64) -> Self {
        self.release_cycle = cycle;
        self
    }

    /// Sets the collective label.
    #[must_use]
    pub(crate) fn in_collective(mut self, label: impl Into<String>) -> Self {
        self.collective = label.into();
        self
    }

    /// Number of network packets this flow occupies when packets carry
    /// `packet_bits` payload bits (rounded up; at least one packet, so even
    /// a sub-packet flow is observable on the wire).
    ///
    /// # Panics
    ///
    /// Panics if `packet_bits` is zero.
    #[must_use]
    pub fn packets(&self, packet_bits: u64) -> u64 {
        assert!(packet_bits > 0, "packets must carry at least one bit");
        (self.bytes * 8).div_ceil(packet_bits).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_dependencies_and_labels() {
        let flow = Flow::new(FlowId(3), CoreId(0), CoreId(5), 4096)
            .after(FlowId(1))
            .after(FlowId(2))
            .released_at(100)
            .in_collective("push");
        assert_eq!(flow.deps, vec![FlowId(1), FlowId(2)]);
        assert_eq!(flow.release_cycle, 100);
        assert_eq!(flow.collective, "push");
        assert_eq!(flow.id.to_string(), "f3");
    }

    #[test]
    fn packet_count_rounds_up_and_never_hits_zero() {
        // 4096 bytes = 32768 bits = exactly 16 packets of 2048 bits.
        let flow = Flow::new(FlowId(0), CoreId(0), CoreId(1), 4096);
        assert_eq!(flow.packets(2048), 16);
        // 4097 bytes needs a 17th packet.
        let flow = Flow::new(FlowId(0), CoreId(0), CoreId(1), 4097);
        assert_eq!(flow.packets(2048), 17);
        // A 1-byte flow still occupies one packet.
        let flow = Flow::new(FlowId(0), CoreId(0), CoreId(1), 1);
        assert_eq!(flow.packets(2048), 1);
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn zero_packet_bits_is_rejected() {
        let _ = Flow::new(FlowId(0), CoreId(0), CoreId(1), 1).packets(0);
    }
}
