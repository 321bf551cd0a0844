//! Flow-control units (flits).
//!
//! The thesis uses wormhole switching (Table 3-3): every packet is divided
//! into fixed-size flits; the *head* flit carries the routing information and
//! establishes the path, *body* flits follow, and the *tail* flit releases the
//! resources. Packets that fit in a single flit are represented by
//! [`FlitKind::Single`].

use crate::ids::{CoreId, PacketId, VcId};
use crate::packet::BandwidthClass;

/// The position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlitKind {
    /// First flit of a multi-flit packet; carries routing information.
    Head,
    /// Intermediate flit of a multi-flit packet.
    Body,
    /// Last flit of a multi-flit packet; releases wormhole resources.
    Tail,
    /// A packet consisting of exactly one flit (head and tail at once).
    Single,
}

impl FlitKind {
    /// True for flits that carry routing information (head or single).
    #[must_use]
    #[inline]
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::Single)
    }

    /// True for flits that terminate a packet (tail or single).
    #[must_use]
    #[inline]
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::Single)
    }
}

/// Optional payload classification. Data flits carry application payload;
/// control flits are used for reservation / token traffic by the photonic
/// layers built on top of this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlitPayload {
    /// Ordinary application data.
    Data,
    /// Network-control information (reservation flits, token fragments, ...).
    Control,
}

/// A single flow-control unit travelling through the network.
///
/// A flit is a 64-byte `Copy` value — one cache line; a VC ring slot is 72
/// with the arrival cycle — and the cycle-accurate inner loop moves millions
/// of them, so the assertion below turns a new field into a compile error
/// rather than into memory traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Packet this flit belongs to.
    pub packet: PacketId,
    /// Position of the flit within the packet.
    pub kind: FlitKind,
    /// Payload classification.
    pub payload: FlitPayload,
    /// Source core of the packet.
    pub src: CoreId,
    /// Destination core of the packet.
    pub dst: CoreId,
    /// Index of the flit within the packet (0 for the head flit).
    pub seq: u32,
    /// Total number of flits in the packet.
    pub packet_len: u32,
    /// Width of the flit in bits (32 / 128 / 256 in the paper's BW sets).
    pub bits: u32,
    /// Bandwidth class of the application flow this packet belongs to.
    pub class: BandwidthClass,
    /// Cycle at which the packet was created by the traffic generator.
    pub created_cycle: u64,
    /// Cycle at which the head flit entered the network (0 until injection).
    pub injected_cycle: u64,
    /// Virtual channel the flit is currently assigned to.
    pub vc: VcId,
}

const _: () = assert!(std::mem::size_of::<Flit>() <= 64);

impl Flit {
    /// Returns true if this flit is the head (or single) flit of its packet.
    #[must_use]
    #[inline]
    pub fn is_head(&self) -> bool {
        self.kind.is_head()
    }

    /// Returns true if this flit is the tail (or single) flit of its packet.
    #[must_use]
    #[inline]
    pub fn is_tail(&self) -> bool {
        self.kind.is_tail()
    }

    /// Network latency of this flit, measured from packet creation to `now`.
    #[must_use]
    pub fn latency_from_creation(&self, now: u64) -> u64 {
        now.saturating_sub(self.created_cycle)
    }

    /// Network latency of this flit, measured from injection to `now`.
    #[must_use]
    pub fn latency_from_injection(&self, now: u64) -> u64 {
        now.saturating_sub(self.injected_cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{CoreId, PacketId};

    fn flit(kind: FlitKind) -> Flit {
        Flit {
            packet: PacketId(1),
            kind,
            payload: FlitPayload::Data,
            src: CoreId(0),
            dst: CoreId(5),
            seq: 0,
            packet_len: 4,
            bits: 32,
            class: BandwidthClass::High,
            created_cycle: 10,
            injected_cycle: 12,
            vc: VcId(0),
        }
    }

    #[test]
    fn head_and_tail_predicates() {
        assert!(flit(FlitKind::Head).is_head());
        assert!(!flit(FlitKind::Head).is_tail());
        assert!(flit(FlitKind::Tail).is_tail());
        assert!(!flit(FlitKind::Tail).is_head());
        assert!(flit(FlitKind::Single).is_head());
        assert!(flit(FlitKind::Single).is_tail());
        assert!(!flit(FlitKind::Body).is_head());
        assert!(!flit(FlitKind::Body).is_tail());
    }

    #[test]
    fn latency_accessors() {
        let f = flit(FlitKind::Head);
        assert_eq!(f.latency_from_creation(30), 20);
        assert_eq!(f.latency_from_injection(30), 18);
        // Saturating behaviour: never negative.
        assert_eq!(f.latency_from_creation(5), 0);
    }
}
