//! Point-to-point pipelined links.
//!
//! Electrical links inside a cluster are short (the four cores of a cluster
//! and their photonic router are physically adjacent), so the paper models
//! them with a single cycle of traversal latency. The [`Link`] type is a
//! small delay pipeline: flits pushed in at cycle `t` become available at
//! cycle `t + latency`.

use crate::flit::Flit;
use crate::ids::VcId;
use std::collections::VecDeque;

/// Static description of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    /// Traversal latency in cycles (≥ 1).
    pub latency: u64,
    /// Physical width in bits (one flit per cycle regardless; the width is
    /// used by energy accounting).
    pub width_bits: u32,
}

impl LinkSpec {
    /// Creates a link spec.
    ///
    /// # Panics
    ///
    /// Panics if `latency` is zero.
    #[must_use]
    pub fn new(latency: u64, width_bits: u32) -> Self {
        assert!(latency >= 1, "link latency must be at least one cycle");
        Self {
            latency,
            width_bits,
        }
    }
}

impl Default for LinkSpec {
    fn default() -> Self {
        Self {
            latency: 1,
            width_bits: 32,
        }
    }
}

/// An in-flight flit annotated with the virtual channel it targets at the
/// receiving side and the cycle at which it becomes deliverable.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    ready_at: u64,
    flit: Flit,
    vc: VcId,
}

/// A unidirectional pipelined link.
#[derive(Debug, Clone)]
pub struct Link {
    spec: LinkSpec,
    pipeline: VecDeque<InFlight>,
    transferred_bits: u64,
}

impl Link {
    /// Creates an idle link.
    #[must_use]
    pub fn new(spec: LinkSpec) -> Self {
        Self {
            spec,
            pipeline: VecDeque::new(),
            transferred_bits: 0,
        }
    }

    /// Static link parameters.
    #[must_use]
    pub fn spec(&self) -> LinkSpec {
        self.spec
    }

    /// Pushes a flit into the link at `cycle`; it becomes deliverable at
    /// `cycle + latency`. At most one flit may be pushed per cycle; the caller
    /// (the router's output stage) guarantees this by construction, and the
    /// link asserts it in debug builds.
    pub fn send(&mut self, flit: Flit, vc: VcId, cycle: u64) {
        debug_assert!(
            self.pipeline
                .back()
                .map(|f| f.ready_at != cycle + self.spec.latency)
                .unwrap_or(true),
            "more than one flit pushed into a link in the same cycle"
        );
        self.transferred_bits += u64::from(flit.bits);
        self.pipeline.push_back(InFlight {
            ready_at: cycle + self.spec.latency,
            flit,
            vc,
        });
    }

    /// Returns the flit that completes traversal at `cycle`, if any, without
    /// removing it.
    #[must_use]
    pub fn peek_arrival(&self, cycle: u64) -> Option<(&Flit, VcId)> {
        self.pipeline
            .front()
            .filter(|f| f.ready_at <= cycle)
            .map(|f| (&f.flit, f.vc))
    }

    /// Removes and returns the flit completing traversal at `cycle`, if any.
    pub fn take_arrival(&mut self, cycle: u64) -> Option<(Flit, VcId)> {
        if self
            .pipeline
            .front()
            .map(|f| f.ready_at <= cycle)
            .unwrap_or(false)
        {
            self.pipeline.pop_front().map(|f| (f.flit, f.vc))
        } else {
            None
        }
    }

    /// Number of flits currently traversing the link.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.pipeline.len()
    }

    /// Total bits ever pushed into this link (for energy accounting).
    #[must_use]
    pub fn transferred_bits(&self) -> u64 {
        self.transferred_bits
    }

    /// True when nothing is traversing the link.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.pipeline.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlitKind, FlitPayload};
    use crate::ids::{CoreId, PacketId};
    use crate::packet::BandwidthClass;

    fn flit(seq: u32) -> Flit {
        Flit {
            packet: PacketId(0),
            kind: FlitKind::Body,
            payload: FlitPayload::Data,
            src: CoreId(0),
            dst: CoreId(1),
            seq,
            packet_len: 8,
            bits: 32,
            class: BandwidthClass::Low,
            created_cycle: 0,
            injected_cycle: 0,
            vc: VcId(0),
        }
    }

    #[test]
    fn flit_arrives_after_latency() {
        let mut link = Link::new(LinkSpec::new(2, 32));
        link.send(flit(0), VcId(1), 10);
        assert!(link.take_arrival(10).is_none());
        assert!(link.take_arrival(11).is_none());
        let (f, vc) = link.take_arrival(12).unwrap();
        assert_eq!(f.seq, 0);
        assert_eq!(vc, VcId(1));
        assert!(link.is_idle());
    }

    #[test]
    fn flits_preserve_order() {
        let mut link = Link::new(LinkSpec::default());
        link.send(flit(0), VcId(0), 0);
        link.send(flit(1), VcId(0), 1);
        link.send(flit(2), VcId(0), 2);
        assert_eq!(link.in_flight(), 3);
        assert_eq!(link.take_arrival(1).unwrap().0.seq, 0);
        assert_eq!(link.take_arrival(2).unwrap().0.seq, 1);
        assert_eq!(link.take_arrival(3).unwrap().0.seq, 2);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut link = Link::new(LinkSpec::default());
        link.send(flit(7), VcId(0), 0);
        assert_eq!(link.peek_arrival(1).unwrap().0.seq, 7);
        assert_eq!(link.peek_arrival(1).unwrap().0.seq, 7);
        assert_eq!(link.take_arrival(1).unwrap().0.seq, 7);
        assert!(link.peek_arrival(2).is_none());
    }

    #[test]
    fn transferred_bits_accumulate() {
        let mut link = Link::new(LinkSpec::new(1, 32));
        link.send(flit(0), VcId(0), 0);
        link.send(flit(1), VcId(0), 1);
        assert_eq!(link.transferred_bits(), 64);
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_latency_panics() {
        let _ = LinkSpec::new(0, 32);
    }
}
