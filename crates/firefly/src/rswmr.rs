//! Reservation-assisted Single-Write-Multiple-Read (R-SWMR) channels.
//!
//! In an SWMR crossbar each source cluster owns one write channel that every
//! other cluster can read. Keeping all detectors of all readers powered would
//! waste energy, so Firefly adds a *reservation* broadcast (Figure 2-3 of the
//! thesis): before sending a packet the source broadcasts a small reservation
//! flit carrying the destination id (and, in d-HetPNoC, the wavelength
//! identifiers); only the addressed destination then powers the detectors of
//! the source's data channel, and only for the duration of the packet.
//!
//! This module models the channel bookkeeping: reservation flit contents and
//! size, which destination is currently listening, and how many
//! detector-cycles were spent — the quantity that makes R-SWMR energy
//! efficient compared to an always-on SWMR crossbar.

use pnoc_noc::ids::{ClusterId, PacketId};

/// The reservation flit broadcast on a cluster's reservation channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReservationFlit {
    /// Source cluster (owner of the write channel being reserved).
    pub src: ClusterId,
    /// Destination cluster that should power its detectors.
    pub dst: ClusterId,
    /// Packet the reservation is for.
    pub packet: PacketId,
    /// Packet size in flits (the destination keeps its detectors on for this
    /// long).
    pub packet_flits: u32,
    /// Wavelength identifiers the destination must listen on. Empty for
    /// Firefly (the destination listens on the source's whole static
    /// channel); populated by d-HetPNoC.
    pub wavelength_identifiers: Vec<u16>,
}

impl ReservationFlit {
    /// Size of the reservation flit in bits: destination id, packet length
    /// and the wavelength identifiers (each `identifier_bits` wide).
    #[must_use]
    pub fn size_bits(&self, cluster_id_bits: u32, length_bits: u32, identifier_bits: u32) -> u32 {
        cluster_id_bits + length_bits + identifier_bits * self.wavelength_identifiers.len() as u32
    }
}

/// State of one source cluster's R-SWMR write channel.
#[derive(Debug, Clone, PartialEq)]
pub struct RswmrChannel {
    /// The cluster that owns (writes) this channel.
    pub owner: ClusterId,
    /// Number of DWDM wavelengths in the channel.
    pub wavelengths: usize,
    /// The destination currently listening, if any.
    listener: Option<(ClusterId, PacketId)>,
    /// Total detector-cycles spent listening on this channel.
    detector_cycles: u64,
    /// Total reservations broadcast.
    reservations: u64,
}

impl RswmrChannel {
    /// Creates an idle channel.
    #[must_use]
    pub fn new(owner: ClusterId, wavelengths: usize) -> Self {
        Self {
            owner,
            wavelengths,
            listener: None,
            detector_cycles: 0,
            reservations: 0,
        }
    }

    /// True when no destination is listening (the channel is free).
    #[must_use]
    pub fn is_free(&self) -> bool {
        self.listener.is_none()
    }

    /// The destination currently listening, if any.
    #[must_use]
    pub fn listener(&self) -> Option<ClusterId> {
        self.listener.map(|(c, _)| c)
    }

    /// Processes a reservation: the destination powers its detectors.
    ///
    /// Returns `false` (and changes nothing) if another destination is still
    /// listening — the source must retry later.
    pub fn reserve(&mut self, reservation: &ReservationFlit) -> bool {
        assert_eq!(
            reservation.src, self.owner,
            "reservation broadcast on the wrong channel"
        );
        if self.listener.is_some() {
            return false;
        }
        self.listener = Some((reservation.dst, reservation.packet));
        self.reservations += 1;
        true
    }

    /// Advances one cycle; while a listener is attached its detectors are
    /// powered on every wavelength of the channel.
    pub fn tick(&mut self) {
        if self.listener.is_some() {
            self.detector_cycles += self.wavelengths as u64;
        }
    }

    /// Ends the transmission of `packet`, powering the detectors down.
    ///
    /// Returns `false` if that packet was not the one being listened to.
    pub fn release(&mut self, packet: PacketId) -> bool {
        match self.listener {
            Some((_, p)) if p == packet => {
                self.listener = None;
                true
            }
            _ => false,
        }
    }

    /// Total wavelength-cycles during which destination detectors were
    /// powered.
    #[must_use]
    pub fn detector_cycles(&self) -> u64 {
        self.detector_cycles
    }

    /// Total reservations accepted on this channel.
    #[must_use]
    pub fn reservations(&self) -> u64 {
        self.reservations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reservation(dst: usize, packet: u64, identifiers: usize) -> ReservationFlit {
        ReservationFlit {
            src: ClusterId(0),
            dst: ClusterId(dst),
            packet: PacketId(packet),
            packet_flits: 64,
            wavelength_identifiers: vec![0; identifiers],
        }
    }

    #[test]
    fn reservation_flit_size_matches_section_3_4_1_1() {
        // Firefly: destination id (4 bits for 16 clusters) + length, no
        // wavelength identifiers.
        let firefly = reservation(3, 1, 0);
        assert_eq!(firefly.size_bits(4, 8, 6), 12);
        // d-HetPNoC BW set 1: up to 8 identifiers of 6 bits = 48 bits extra.
        let dhet = reservation(3, 1, 8);
        assert_eq!(dhet.size_bits(4, 8, 6), 4 + 8 + 48);
        // BW set 3: 64 identifiers of 9 bits.
        let dhet3 = reservation(3, 1, 64);
        assert_eq!(dhet3.size_bits(4, 8, 9), 4 + 8 + 576);
    }

    #[test]
    fn only_one_listener_at_a_time() {
        let mut ch = RswmrChannel::new(ClusterId(0), 4);
        assert!(ch.is_free());
        assert!(ch.reserve(&reservation(5, 1, 0)));
        assert!(!ch.is_free());
        assert_eq!(ch.listener(), Some(ClusterId(5)));
        // A second reservation is refused until the first releases.
        assert!(!ch.reserve(&reservation(9, 2, 0)));
        assert!(!ch.release(PacketId(2)), "wrong packet cannot release");
        assert!(ch.release(PacketId(1)));
        assert!(ch.reserve(&reservation(9, 2, 0)));
        assert_eq!(ch.reservations(), 2);
    }

    #[test]
    fn detector_cycles_accumulate_only_while_listening() {
        let mut ch = RswmrChannel::new(ClusterId(0), 4);
        ch.tick();
        assert_eq!(ch.detector_cycles(), 0);
        ch.reserve(&reservation(2, 7, 0));
        ch.tick();
        ch.tick();
        ch.release(PacketId(7));
        ch.tick();
        // 2 cycles × 4 wavelengths.
        assert_eq!(ch.detector_cycles(), 8);
    }

    #[test]
    #[should_panic(expected = "wrong channel")]
    fn reservation_on_wrong_channel_panics() {
        let mut ch = RswmrChannel::new(ClusterId(3), 4);
        let _ = ch.reserve(&reservation(5, 1, 0));
    }
}
