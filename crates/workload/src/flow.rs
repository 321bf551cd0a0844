//! Flow identity and packet geometry: one flow is one finite transfer
//! between two cores, stored as a row of a [`Workload`](crate::dag::Workload).

/// Identifier of one flow within a [`Workload`](crate::dag::Workload): the
/// flow's row in the workload's columns, as
/// [`WorkloadBuilder::push`](crate::dag::WorkloadBuilder::push) returned it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct FlowId(pub usize);

impl std::fmt::Display for FlowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Number of network packets a `bytes`-byte flow occupies when packets carry
/// `packet_bits` payload bits (rounded up; at least one packet, so even a
/// sub-packet flow is observable on the wire).
///
/// # Panics
///
/// Panics if `packet_bits` is zero.
#[must_use]
pub fn packets(bytes: u64, packet_bits: u64) -> u64 {
    assert!(packet_bits > 0, "packets must carry at least one bit");
    (bytes * 8).div_ceil(packet_bits).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::Workload;
    use pnoc_noc::ids::CoreId;

    #[test]
    fn builder_accumulates_dependencies_and_labels() {
        let mut dag = Workload::builder("test");
        let a = dag.push(CoreId(0), CoreId(1), 8);
        let b = dag.push(CoreId(1), CoreId(2), 8);
        dag.collective("push");
        let flow = dag.push(CoreId(0), CoreId(5), 4096);
        dag.after(a).after(b).released_at(100);
        let workload = dag.finish().expect("valid");
        assert_eq!(workload.deps(flow), [a, b]);
        assert_eq!(workload.release_cycle(flow), 100);
        assert_eq!(workload.collective(flow), "push");
        assert_eq!(workload.collective(a), "");
        assert_eq!(workload.dependents(a), [flow]);
        assert_eq!(flow.to_string(), "f2");
    }

    #[test]
    fn packet_count_rounds_up_and_never_hits_zero() {
        // 4096 bytes = 32768 bits = exactly 16 packets of 2048 bits.
        assert_eq!(packets(4096, 2048), 16);
        // 4097 bytes needs a 17th packet.
        assert_eq!(packets(4097, 2048), 17);
        // A 1-byte flow still occupies one packet.
        assert_eq!(packets(1, 2048), 1);
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn zero_packet_bits_is_rejected() {
        let _ = packets(1, 0);
    }
}
