//! Virtual-channel buffers.
//!
//! Each router port holds a set of virtual channels (16 per port in the
//! paper's configuration, Table 3-3), each a FIFO of flits with a fixed
//! capacity (64 flits per VC in the paper). Virtual channels decouple
//! independent packets sharing a physical link so that a blocked wormhole
//! does not stall unrelated traffic (Section 1.4 of the thesis).
//!
//! Storage exists once used. A port's VC headers are built on its first
//! push or route assignment, and each VC's ring grows by doubling to that
//! VC's own high-water mark, so a leaf's memory follows the ports that carry
//! traffic and what they buffer, not `ports × VCs × depth`. A set that was
//! never used answers every query exactly as a freshly built one would.

use crate::error::{NocError, NocResult};
use crate::flit::Flit;
use crate::ids::{PortId, VcId};
use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};

/// A single virtual-channel FIFO.
#[derive(Debug, Clone)]
pub struct VcBuffer {
    fifo: VecDeque<(Flit, u64)>,
    capacity: usize,
    /// Output port assigned to the wormhole currently occupying this VC
    /// (established by the head flit, released by the tail flit).
    assigned_output: Option<PortId>,
}

impl VcBuffer {
    /// Creates an empty buffer that accepts up to `capacity` flits.
    ///
    /// Nothing is allocated here: the ring grows by doubling to the VC's own
    /// high-water mark, so a leaf's memory follows what it buffers, not
    /// `ports × VCs × depth`. `capacity` is enforced by [`VcBuffer::push`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "VC buffer capacity must be non-zero");
        Self {
            fifo: VecDeque::new(),
            capacity,
            assigned_output: None,
        }
    }

    /// Configured capacity in flits.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy in flits.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.fifo.len()
    }

    /// True when no flits are buffered.
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// True when the buffer cannot accept any more flits.
    #[must_use]
    #[inline]
    pub fn is_full(&self) -> bool {
        self.fifo.len() >= self.capacity
    }

    /// Pushes a flit into the buffer, recording the cycle of arrival.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::BufferFull`] when the buffer is at capacity.
    #[inline]
    pub fn push(&mut self, flit: Flit, cycle: u64) -> NocResult<()> {
        if self.is_full() {
            return Err(NocError::BufferFull {
                port: PortId(usize::MAX),
                vc: flit.vc,
                capacity: self.capacity,
            });
        }
        self.fifo.push_back((flit, cycle));
        Ok(())
    }

    /// Returns the head-of-line flit (and its arrival cycle) without removing it.
    #[must_use]
    #[inline]
    pub fn front(&self) -> Option<(&Flit, u64)> {
        self.fifo.front().map(|(f, c)| (f, *c))
    }

    /// Removes and returns the head-of-line flit and its arrival cycle.
    #[inline]
    pub fn pop(&mut self) -> Option<(Flit, u64)> {
        self.fifo.pop_front()
    }

    /// Output port currently assigned to the wormhole occupying this VC.
    #[must_use]
    #[inline]
    pub fn assigned_output(&self) -> Option<PortId> {
        self.assigned_output
    }

    /// Assigns an output port (done when the head flit is routed).
    #[inline]
    pub fn assign_output(&mut self, port: PortId) {
        self.assigned_output = Some(port);
    }

    /// Releases the output-port assignment (done when the tail flit departs).
    #[inline]
    pub fn release_output(&mut self) {
        self.assigned_output = None;
    }
}

/// Iterates over the indices of the set bits of `mask`, lowest first.
#[inline]
pub fn set_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            bit
        })
    })
}

/// A set of virtual channels belonging to one router port.
///
/// Beside the FIFOs the set keeps three `u64` masks (bit `v` ⇔ VC `v`):
/// *non-empty*, *full* and *wormhole-assigned*. Every mutation goes through
/// the set ([`VcSet::push`], [`VcSet::pop`], [`VcSet::assign_output`],
/// [`VcSet::release_output`]), which updates the masks in place, so the
/// per-cycle scans of the routers walk set bits instead of probing every FIFO.
///
/// The VC headers are built on the set's first [`VcSet::push`] or
/// [`VcSet::assign_output`]. Until then the set holds no heap memory, its
/// masks are zero, and [`VcSet::vc`] and [`VcSet::iter`] show every VC as an
/// empty `depth`-flit buffer with no assignment.
#[derive(Debug, Clone)]
pub struct VcSet {
    /// Empty until the set is first used, then `num_vcs` buffers.
    vcs: Box<[VcBuffer]>,
    nonempty: u64,
    full: u64,
    assigned: u64,
    num_vcs: u32,
    depth: u32,
}

impl VcSet {
    /// Creates `num_vcs` virtual channels of `depth` flits each. Nothing is
    /// allocated until the set is first used.
    ///
    /// # Panics
    ///
    /// Panics if `num_vcs` is zero or exceeds 64 (one mask word), or if
    /// `depth` is zero.
    #[must_use]
    pub fn new(num_vcs: usize, depth: usize) -> Self {
        assert!(
            (1..=64).contains(&num_vcs),
            "a port needs between 1 and 64 virtual channels, got {num_vcs}"
        );
        assert!(depth > 0, "VC buffer capacity must be non-zero");
        Self {
            vcs: Box::default(),
            nonempty: 0,
            full: 0,
            assigned: 0,
            num_vcs: num_vcs as u32,
            depth: u32::try_from(depth).expect("VC depth fits in 32 bits"),
        }
    }

    /// Number of virtual channels in the set.
    #[must_use]
    #[inline]
    pub fn num_vcs(&self) -> usize {
        self.num_vcs as usize
    }

    /// Immutable access to a VC.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidVc`] if the index is out of range.
    #[inline]
    pub fn vc(&self, vc: VcId) -> NocResult<&VcBuffer> {
        match self.vcs.get(vc.0) {
            Some(buffer) => Ok(buffer),
            None => self.unused_vc(vc),
        }
    }

    /// VC `vc` of a set that is in use, the access of the per-cycle scans:
    /// a VC a mask names, or one feeding a transmission, belongs to a set
    /// that was pushed to.
    ///
    /// # Panics
    ///
    /// Panics if the set was never used or `vc` is out of range.
    #[must_use]
    #[inline]
    pub fn occupied(&self, vc: VcId) -> &VcBuffer {
        &self.vcs[vc.0]
    }

    /// [`VcSet::vc`] for an index the buffers do not hold: out of range, or
    /// the set was never used and every VC reads as an empty buffer.
    #[cold]
    #[inline(never)]
    fn unused_vc(&self, vc: VcId) -> NocResult<&VcBuffer> {
        if vc.0 >= self.num_vcs() {
            return Err(NocError::InvalidVc {
                vc,
                num_vcs: self.num_vcs(),
            });
        }
        // One empty buffer per distinct depth for the life of the process,
        // leaked so that a never-used set can lend it out without holding it.
        static BLANKS: Mutex<Vec<&'static VcBuffer>> = Mutex::new(Vec::new());
        let mut blanks = BLANKS.lock().unwrap_or_else(PoisonError::into_inner);
        let blank = match blanks.iter().find(|b| b.capacity == self.depth as usize) {
            Some(&blank) => blank,
            None => {
                let blank: &'static VcBuffer =
                    Box::leak(Box::new(VcBuffer::new(self.depth as usize)));
                blanks.push(blank);
                blank
            }
        };
        Ok(blank)
    }

    /// The first use of the set: builds its `num_vcs` empty buffers.
    #[cold]
    #[inline(never)]
    fn materialise(&mut self) {
        debug_assert!(self.vcs.is_empty(), "a set is materialised once");
        self.vcs = (0..self.num_vcs)
            .map(|_| VcBuffer::new(self.depth as usize))
            .collect();
    }

    /// Pushes a flit into VC `vc`, recording the cycle of arrival.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidVc`] if the index is out of range and
    /// [`NocError::BufferFull`] when the VC is at capacity.
    #[inline]
    pub fn push(&mut self, vc: VcId, flit: Flit, cycle: u64) -> NocResult<()> {
        if vc.0 >= self.vcs.len() {
            if vc.0 >= self.num_vcs() {
                return Err(NocError::InvalidVc {
                    vc,
                    num_vcs: self.num_vcs(),
                });
            }
            self.materialise();
        }
        let buffer = &mut self.vcs[vc.0];
        buffer.push(flit, cycle)?;
        self.nonempty |= 1 << vc.0;
        if buffer.is_full() {
            self.full |= 1 << vc.0;
        }
        Ok(())
    }

    /// Removes and returns the head-of-line flit of VC `vc` and its arrival
    /// cycle.
    ///
    /// # Panics
    ///
    /// Panics if `vc` is out of range.
    #[inline]
    pub fn pop(&mut self, vc: VcId) -> Option<(Flit, u64)> {
        if vc.0 >= self.vcs.len() {
            // A never-used set holds no flit.
            assert!(vc.0 < self.num_vcs(), "VC out of range");
            return None;
        }
        let buffer = &mut self.vcs[vc.0];
        let popped = buffer.pop()?;
        self.full &= !(1 << vc.0);
        if buffer.is_empty() {
            self.nonempty &= !(1 << vc.0);
        }
        Some(popped)
    }

    /// Assigns an output port to the wormhole occupying VC `vc`.
    ///
    /// # Panics
    ///
    /// Panics if `vc` is out of range.
    #[inline]
    pub fn assign_output(&mut self, vc: VcId, port: PortId) {
        if vc.0 >= self.vcs.len() {
            assert!(vc.0 < self.num_vcs(), "VC out of range");
            self.materialise();
        }
        self.vcs[vc.0].assign_output(port);
        self.assigned |= 1 << vc.0;
    }

    /// Releases the output-port assignment of VC `vc`.
    ///
    /// # Panics
    ///
    /// Panics if `vc` is out of range.
    #[inline]
    pub fn release_output(&mut self, vc: VcId) {
        if vc.0 < self.vcs.len() {
            self.vcs[vc.0].release_output();
        } else {
            // A never-used set holds no assignment.
            assert!(vc.0 < self.num_vcs(), "VC out of range");
        }
        self.assigned &= !(1 << vc.0);
    }

    /// Mask of the VCs holding at least one flit.
    #[must_use]
    #[inline]
    pub fn nonempty_mask(&self) -> u64 {
        self.nonempty
    }

    /// Mask of the VCs at capacity.
    #[must_use]
    #[inline]
    pub fn full_mask(&self) -> u64 {
        self.full
    }

    /// Mask of the VCs with a wormhole output assignment.
    #[must_use]
    pub fn assigned_mask(&self) -> u64 {
        self.assigned
    }

    /// Whether the three masks equal a recomputation from the buffers (the
    /// ground truth behind the engine's debug cross-check). A set that was
    /// never used holds no buffer, so its masks must be zero.
    #[must_use]
    pub fn masks_consistent(&self) -> bool {
        let scan = |pred: fn(&VcBuffer) -> bool| {
            self.vcs
                .iter()
                .enumerate()
                .filter(|(_, b)| pred(b))
                .fold(0u64, |mask, (vc, _)| mask | 1 << vc)
        };
        (self.vcs.is_empty() || self.vcs.len() == self.num_vcs())
            && self.nonempty == scan(|b| !b.is_empty())
            && self.full == scan(VcBuffer::is_full)
            && self.assigned == scan(|b| b.assigned_output().is_some())
    }

    /// Iterates over `(VcId, &VcBuffer)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VcId, &VcBuffer)> {
        (0..self.num_vcs()).map(|i| (VcId(i), self.vc(VcId(i)).expect("vc in range")))
    }

    /// Total occupancy across all VCs, in flits.
    #[must_use]
    pub fn total_occupancy(&self) -> usize {
        self.vcs.iter().map(VcBuffer::occupancy).sum()
    }

    /// Returns the id of a VC that could accept a new packet's head flit:
    /// an empty VC with no wormhole assignment. Packets always start in an
    /// empty VC so that flits of different packets never interleave within a
    /// single FIFO.
    #[must_use]
    #[inline]
    pub fn free_vc(&self) -> Option<VcId> {
        let free = !(self.nonempty | self.assigned);
        let vc = free.trailing_zeros() as usize;
        (vc < self.num_vcs()).then_some(VcId(vc))
    }

    /// True when every VC is completely empty.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.nonempty == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlitKind, FlitPayload};
    use crate::ids::{CoreId, PacketId};
    use crate::packet::BandwidthClass;

    fn flit(vc: usize) -> Flit {
        Flit {
            packet: PacketId(1),
            kind: FlitKind::Single,
            payload: FlitPayload::Data,
            src: CoreId(0),
            dst: CoreId(1),
            seq: 0,
            packet_len: 1,
            bits: 32,
            class: BandwidthClass::Low,
            created_cycle: 0,
            injected_cycle: 0,
            vc: VcId(vc),
        }
    }

    #[test]
    fn buffer_push_pop_fifo_order() {
        let mut b = VcBuffer::new(4);
        for i in 0..4 {
            let mut f = flit(0);
            f.seq = i;
            b.push(f, u64::from(i)).unwrap();
        }
        assert!(b.is_full());
        for i in 0..4 {
            let (f, cycle) = b.pop().unwrap();
            assert_eq!(f.seq, i);
            assert_eq!(cycle, u64::from(i));
        }
        assert!(b.is_empty());
    }

    #[test]
    fn buffer_rejects_overflow() {
        let mut b = VcBuffer::new(1);
        b.push(flit(0), 0).unwrap();
        let err = b.push(flit(0), 1).unwrap_err();
        assert!(matches!(err, NocError::BufferFull { .. }));
    }

    #[test]
    fn buffer_output_assignment_lifecycle() {
        let mut b = VcBuffer::new(2);
        assert_eq!(b.assigned_output(), None);
        b.assign_output(PortId(3));
        assert_eq!(b.assigned_output(), Some(PortId(3)));
        b.release_output();
        assert_eq!(b.assigned_output(), None);
    }

    #[test]
    fn vcset_free_vc_skips_assigned() {
        let mut set = VcSet::new(2, 2);
        assert_eq!(set.free_vc(), Some(VcId(0)));
        set.assign_output(VcId(0), PortId(1));
        assert_eq!(set.free_vc(), Some(VcId(1)));
        set.push(VcId(1), flit(1), 0).unwrap();
        assert_eq!(set.free_vc(), None);
    }

    #[test]
    fn vcset_occupancy_and_idle() {
        let mut set = VcSet::new(3, 4);
        assert!(set.is_idle());
        set.push(VcId(2), flit(2), 0).unwrap();
        assert_eq!(set.total_occupancy(), 1);
        assert!(!set.is_idle());
    }

    #[test]
    fn vcset_invalid_index_is_error() {
        let set = VcSet::new(2, 2);
        assert!(matches!(
            set.vc(VcId(5)),
            Err(NocError::InvalidVc { num_vcs: 2, .. })
        ));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = VcBuffer::new(0);
    }

    #[test]
    fn fresh_buffers_own_no_ring() {
        assert_eq!(VcBuffer::new(64).fifo.capacity(), 0);
        let mut set = VcSet::new(16, 256);
        set.push(VcId(3), flit(3), 0).unwrap();
        assert!(set
            .iter()
            .all(|(vc, b)| (b.fifo.capacity() == 0) == (vc != VcId(3))));
    }

    /// Every read answer of a set, for comparing two sets.
    fn answers(set: &VcSet) -> impl PartialEq + std::fmt::Debug + '_ {
        let buffers: Vec<_> = set
            .iter()
            .map(|(vc, b)| {
                (
                    vc,
                    b.capacity(),
                    b.occupancy(),
                    b.is_full(),
                    b.front().map(|(f, c)| (f.seq, c)),
                    b.assigned_output(),
                )
            })
            .collect();
        (
            buffers,
            set.vc(VcId(set.num_vcs())).map(|_| ()),
            set.free_vc(),
            set.total_occupancy(),
            set.is_idle(),
            (set.nonempty_mask(), set.full_mask(), set.assigned_mask()),
            set.masks_consistent(),
        )
    }

    #[test]
    fn a_never_used_set_answers_like_a_used_and_emptied_one() {
        let (mut unused, mut emptied) = (VcSet::new(4, 3), VcSet::new(4, 3));
        emptied.assign_output(VcId(2), PortId(1));
        emptied.push(VcId(2), flit(2), 7).unwrap();
        assert!(emptied.pop(VcId(2)).is_some());
        emptied.release_output(VcId(2));
        assert_eq!(answers(&unused), answers(&emptied));
        assert!(unused.masks_consistent());
        assert_eq!(unused.free_vc(), Some(VcId(0)));
        assert_eq!(unused.total_occupancy(), 0);
        assert!(matches!(
            unused.vc(VcId(4)),
            Err(NocError::InvalidVc { num_vcs: 4, .. })
        ));
        let blank = unused.vc(VcId(1)).unwrap();
        assert_eq!((blank.capacity(), blank.occupancy()), (3, 0));
        assert_eq!((blank.front(), blank.assigned_output()), (None, None));
        // Neither a pop nor a release builds anything.
        assert_eq!(unused.pop(VcId(3)), None);
        unused.release_output(VcId(0));
        assert!(unused.vcs.is_empty());
        assert_eq!(answers(&unused), answers(&emptied));
    }

    #[test]
    fn the_first_push_or_assignment_materialises_that_port_only() {
        let mut ports: Vec<VcSet> = (0..3).map(|_| VcSet::new(16, 64)).collect();
        ports[1].push(VcId(5), flit(5), 0).unwrap();
        let built = |ports: &[VcSet]| ports.iter().map(|p| p.vcs.len()).collect::<Vec<_>>();
        assert_eq!(built(&ports), [0, 16, 0]);
        ports[2].assign_output(VcId(0), PortId(4));
        assert_eq!(built(&ports), [0, 16, 16]);
        // An out-of-range push is refused without building the port.
        assert!(matches!(
            ports[0].push(VcId(16), flit(0), 0),
            Err(NocError::InvalidVc { num_vcs: 16, .. })
        ));
        assert_eq!(built(&ports), [0, 16, 16]);
        assert!(ports.iter().all(VcSet::masks_consistent));
        assert_eq!(ports[1].vc(VcId(5)).unwrap().occupancy(), 1);
        assert_eq!(
            ports[2].vc(VcId(0)).unwrap().assigned_output(),
            Some(PortId(4))
        );
    }

    #[test]
    #[should_panic(expected = "VC out of range")]
    fn popping_past_a_never_used_sets_vcs_panics() {
        let _ = VcSet::new(2, 2).pop(VcId(2));
    }

    /// Random `push`/`pop`/`assign_output`/`release_output` against a plain
    /// `VecDeque` model: the ring grows by doubling under the configured
    /// capacity, so FIFO order and arrival cycles must survive every
    /// reallocation and wrap-around, and `BufferFull` must come at exactly
    /// `capacity`, never at the ring's power-of-two size.
    #[test]
    fn ring_growth_matches_a_vecdeque_model() {
        for capacity in [1usize, 3, 4, 5, 63, 64, 65, 100] {
            let mut set = VcSet::new(2, capacity);
            let mut model: [VecDeque<(u32, u64)>; 2] = [VecDeque::new(), VecDeque::new()];
            let mut assigned = [None; 2];
            let mut rng = 0x9e37_79b9_7f4a_7c15 ^ capacity as u64;
            let mut refused = 0usize;
            let mut reallocations = 0usize;
            let phase = 8 * capacity as u64 + 16;
            for step in 0..6 * phase {
                // xorshift64: the test's own deterministic random stream.
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let v = (rng >> 8) as usize % 2;
                let vc = VcId(v);
                let ring_before = set.vc(vc).unwrap().fifo.capacity();
                // Alternating phases of mostly-push and mostly-pop, so each
                // ring fills to capacity, drains and wraps; a sprinkle of the
                // other two operations.
                let filling = (step / phase).is_multiple_of(2);
                match rng % 16 {
                    0 => {
                        set.assign_output(vc, PortId(step as usize % 5));
                        assigned[v] = Some(PortId(step as usize % 5));
                    }
                    1 => {
                        set.release_output(vc);
                        assigned[v] = None;
                    }
                    r if (r < 13) == filling => {
                        let mut f = flit(v);
                        f.seq = step as u32;
                        match set.push(vc, f, step) {
                            Ok(()) => {
                                assert!(model[v].len() < capacity);
                                model[v].push_back((f.seq, step));
                            }
                            Err(NocError::BufferFull { capacity: c, .. }) => {
                                assert_eq!(model[v].len(), capacity);
                                assert_eq!(c, capacity);
                                refused += 1;
                            }
                            Err(other) => panic!("unexpected error {other:?}"),
                        }
                    }
                    _ => {
                        let popped = set.pop(vc).map(|(f, cycle)| (f.seq, cycle));
                        assert_eq!(popped, model[v].pop_front());
                    }
                }
                reallocations += usize::from(set.vc(vc).unwrap().fifo.capacity() != ring_before);
                assert!(set.masks_consistent());
                let buffer = set.vc(vc).unwrap();
                assert_eq!(buffer.occupancy(), model[v].len());
                assert_eq!(buffer.is_full(), model[v].len() == capacity);
                assert_eq!(buffer.assigned_output(), assigned[v]);
                assert_eq!(
                    buffer.front().map(|(f, cycle)| (f.seq, cycle)),
                    model[v].front().copied()
                );
            }
            assert!(refused > 0, "capacity {capacity} was never reached");
            // Doubling to the high-water mark: a handful of reallocations per
            // VC over the whole run, not one per refill.
            assert!(
                reallocations <= 2 * 6,
                "capacity {capacity}: {reallocations} ring reallocations"
            );
        }
    }
}
