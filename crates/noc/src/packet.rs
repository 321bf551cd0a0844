//! Packets, bandwidth classes and wormhole framing.
//!
//! A packet is the unit of data transfer between two cores. The evaluation in
//! the thesis uses three "bandwidth sets" (Table 3-1 / Table 3-3); within each
//! set, applications fall into four bandwidth classes whose required channel
//! bandwidths are in the ratio 1 : 2 : 4 : 8 (e.g. 12.5, 25, 50 and 100 Gbps
//! for bandwidth set 1). [`BandwidthClass`] captures the relative requirement;
//! the absolute Gbps value is obtained by multiplying with the minimum channel
//! bandwidth of the bandwidth set in use (see `pnoc-sim`).

use crate::flit::{Flit, FlitKind, FlitPayload};
use crate::ids::{CoreId, PacketId, VcId};
use std::fmt;

/// Relative bandwidth requirement of an application flow.
///
/// The four classes correspond to the four per-application bandwidths of
/// Table 3-1 of the thesis, in increasing order. The relative wavelength
/// requirement doubles from one class to the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum BandwidthClass {
    /// Lowest bandwidth application (12.5 Gbps in BW set 1).
    #[default]
    Low,
    /// Second lowest (25 Gbps in BW set 1).
    MediumLow,
    /// Second highest (50 Gbps in BW set 1).
    MediumHigh,
    /// Highest bandwidth application (100 Gbps in BW set 1).
    High,
}

impl BandwidthClass {
    /// All classes in increasing bandwidth order.
    pub const ALL: [BandwidthClass; 4] = [
        BandwidthClass::Low,
        BandwidthClass::MediumLow,
        BandwidthClass::MediumHigh,
        BandwidthClass::High,
    ];

    /// Index of the class (0 = lowest, 3 = highest).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            BandwidthClass::Low => 0,
            BandwidthClass::MediumLow => 1,
            BandwidthClass::MediumHigh => 2,
            BandwidthClass::High => 3,
        }
    }

    /// Bandwidth multiplier relative to the lowest class (1, 2, 4, 8).
    ///
    /// Multiplying by the minimum channel bandwidth of a bandwidth set yields
    /// the absolute application bandwidth; multiplying by the number of
    /// wavelengths of the minimum channel yields the wavelength requirement.
    #[must_use]
    pub fn multiplier(self) -> usize {
        1 << self.index()
    }

    /// Builds a class from its index.
    ///
    /// # Panics
    ///
    /// Panics if `idx > 3`.
    #[must_use]
    pub fn from_index(idx: usize) -> Self {
        Self::ALL[idx]
    }
}

impl fmt::Display for BandwidthClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BandwidthClass::Low => "low",
            BandwidthClass::MediumLow => "medium-low",
            BandwidthClass::MediumHigh => "medium-high",
            BandwidthClass::High => "high",
        };
        f.write_str(s)
    }
}

/// A request for a packet transfer, produced by a traffic model before the
/// packet is admitted into the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketDescriptor {
    /// Source core.
    pub src: CoreId,
    /// Destination core.
    pub dst: CoreId,
    /// Number of flits in the packet.
    pub num_flits: u32,
    /// Flit width in bits.
    pub flit_bits: u32,
    /// Bandwidth class of the flow this packet belongs to.
    pub class: BandwidthClass,
    /// Cycle at which the traffic generator created the request.
    pub created_cycle: u64,
}

impl PacketDescriptor {
    /// Total payload size of the packet in bits.
    #[must_use]
    pub fn total_bits(&self) -> u64 {
        u64::from(self.num_flits) * u64::from(self.flit_bits)
    }
}

/// A packet admitted into the network, with an assigned id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Unique identifier.
    pub id: PacketId,
    /// Transfer description.
    pub descriptor: PacketDescriptor,
    /// Cycle at which the head flit was injected into the source switch.
    pub injected_cycle: u64,
}

impl Packet {
    /// Total payload size of the packet in bits.
    #[must_use]
    pub fn total_bits(&self) -> u64 {
        self.descriptor.total_bits()
    }
}

/// Converts packets into wormhole flit sequences.
#[derive(Debug, Default, Clone)]
pub struct PacketFramer;

impl PacketFramer {
    /// Frames `packet` into its flit sequence, assigning the given virtual
    /// channel to every flit.
    ///
    /// A packet of one flit produces a single [`FlitKind::Single`] flit;
    /// longer packets produce `Head, Body*, Tail`.
    #[must_use]
    pub fn frame(packet: &Packet, vc: VcId) -> Vec<Flit> {
        (0..packet.descriptor.num_flits.max(1))
            .map(|seq| Self::flit_at(packet, vc, seq))
            .collect()
    }

    /// The flit at position `seq` of [`PacketFramer::frame`]'s sequence,
    /// without materialising the rest (the injection path builds one flit per
    /// cycle).
    #[must_use]
    #[inline]
    pub fn flit_at(packet: &Packet, vc: VcId, seq: u32) -> Flit {
        let n = packet.descriptor.num_flits.max(1);
        debug_assert!(seq < n, "flit {seq} of a {n}-flit packet");
        let kind = if n == 1 {
            FlitKind::Single
        } else if seq == 0 {
            FlitKind::Head
        } else if seq == n - 1 {
            FlitKind::Tail
        } else {
            FlitKind::Body
        };
        Flit {
            packet: packet.id,
            kind,
            payload: FlitPayload::Data,
            src: packet.descriptor.src,
            dst: packet.descriptor.dst,
            seq,
            packet_len: n,
            bits: packet.descriptor.flit_bits,
            class: packet.descriptor.class,
            created_cycle: packet.descriptor.created_cycle,
            injected_cycle: packet.injected_cycle,
            vc,
        }
    }
}

/// Reassembles flits back into packets at the destination, verifying wormhole
/// framing along the way.
#[derive(Debug, Default, Clone)]
pub struct PacketReassembler {
    in_flight: std::collections::HashMap<PacketId, u32>,
}

impl PacketReassembler {
    /// Creates an empty reassembler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the arrival of `flit`. Returns `Some(packet_id)` when the
    /// packet is complete (its tail flit arrived and every flit was seen).
    ///
    /// Returns `None` while the packet is still incomplete.
    ///
    /// # Panics
    ///
    /// Panics if flits of a packet arrive out of order, which would indicate a
    /// bug in the wormhole implementation.
    pub fn accept(&mut self, flit: &Flit) -> Option<PacketId> {
        let seen = self.in_flight.entry(flit.packet).or_insert(0);
        assert_eq!(
            *seen, flit.seq,
            "out-of-order flit for packet {:?}: expected seq {}, got {}",
            flit.packet, seen, flit.seq
        );
        *seen += 1;
        if flit.is_tail() {
            assert_eq!(
                *seen, flit.packet_len,
                "tail flit arrived before all body flits of packet {:?}",
                flit.packet
            );
            self.in_flight.remove(&flit.packet);
            Some(flit.packet)
        } else {
            None
        }
    }

    /// Number of packets currently partially received.
    #[must_use]
    pub fn incomplete(&self) -> usize {
        self.in_flight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(num_flits: u32) -> Packet {
        Packet {
            id: PacketId(42),
            descriptor: PacketDescriptor {
                src: CoreId(1),
                dst: CoreId(17),
                num_flits,
                flit_bits: 32,
                class: BandwidthClass::MediumHigh,
                created_cycle: 100,
            },
            injected_cycle: 105,
        }
    }

    #[test]
    fn class_multipliers_double() {
        assert_eq!(BandwidthClass::Low.multiplier(), 1);
        assert_eq!(BandwidthClass::MediumLow.multiplier(), 2);
        assert_eq!(BandwidthClass::MediumHigh.multiplier(), 4);
        assert_eq!(BandwidthClass::High.multiplier(), 8);
    }

    #[test]
    fn class_from_index_roundtrip() {
        for c in BandwidthClass::ALL {
            assert_eq!(BandwidthClass::from_index(c.index()), c);
        }
    }

    #[test]
    fn descriptor_total_bits() {
        let p = packet(64);
        assert_eq!(p.total_bits(), 64 * 32);
    }

    #[test]
    fn framing_single_flit_packet() {
        let flits = PacketFramer::frame(&packet(1), VcId(3));
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].kind, FlitKind::Single);
        assert_eq!(flits[0].vc, VcId(3));
    }

    #[test]
    fn framing_multi_flit_packet() {
        let flits = PacketFramer::frame(&packet(5), VcId(0));
        assert_eq!(flits.len(), 5);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert_eq!(flits[4].kind, FlitKind::Tail);
        for f in &flits[1..4] {
            assert_eq!(f.kind, FlitKind::Body);
        }
        for (i, f) in flits.iter().enumerate() {
            assert_eq!(f.seq as usize, i);
            assert_eq!(f.packet_len, 5);
            assert_eq!(f.packet, PacketId(42));
        }
    }

    #[test]
    fn flit_at_matches_frame() {
        for n in [1, 2, 64] {
            let p = packet(n);
            let flits = PacketFramer::frame(&p, VcId(5));
            assert_eq!(flits.len() as u32, n);
            for (i, flit) in flits.iter().enumerate() {
                assert_eq!(PacketFramer::flit_at(&p, VcId(5), i as u32), *flit);
            }
        }
    }

    #[test]
    fn reassembler_completes_packet_in_order() {
        let p = packet(4);
        let flits = PacketFramer::frame(&p, VcId(0));
        let mut r = PacketReassembler::new();
        assert_eq!(r.accept(&flits[0]), None);
        assert_eq!(r.accept(&flits[1]), None);
        assert_eq!(r.accept(&flits[2]), None);
        assert_eq!(r.accept(&flits[3]), Some(PacketId(42)));
        assert_eq!(r.incomplete(), 0);
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    fn reassembler_detects_out_of_order() {
        let p = packet(4);
        let flits = PacketFramer::frame(&p, VcId(0));
        let mut r = PacketReassembler::new();
        r.accept(&flits[0]);
        r.accept(&flits[2]);
    }

    #[test]
    fn display_of_classes() {
        assert_eq!(BandwidthClass::High.to_string(), "high");
        assert_eq!(BandwidthClass::Low.to_string(), "low");
    }
}
