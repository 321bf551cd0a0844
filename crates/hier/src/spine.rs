//! The spine: a deterministic latency/bandwidth pipe between pods.
//!
//! Cross-pod packets do not traverse a modelled router network; the spine
//! serializes them in generation order at a fixed flit rate and delivers
//! every flit a fixed latency after its serialization slot. The queue is
//! unbounded, so oversubscription manifests as latency, never as drops —
//! the same lossless treatment the paper gives the photonic fabric.

use pnoc_noc::ids::CoreId;
use pnoc_noc::packet::PacketDescriptor;
use pnoc_sim::metrics::SimEvent;
use std::collections::VecDeque;
use std::ops::Range;

/// One queued cross-pod packet: what its events carry and the whole schedule
/// of them. Flit `i` serializes in slot `first + (offset + i) / flits_per_cycle`
/// and arrives `latency` cycles later.
#[derive(Debug, Clone)]
struct Run {
    src: CoreId,
    dst: CoreId,
    flits: u32,
    flit_bits: u32,
    created_cycle: u64,
    /// Cycle of the `transmit` call.
    generated: u64,
    /// Slot of flit 0.
    first: u64,
    /// Flits of earlier packets sharing slot `first`.
    offset: u64,
}

/// Deterministic single-arbiter spine model.
///
/// The schedule is a pure function of the sequence of
/// [`Spine::transmit`] calls, which the hierarchy issues in the global
/// generation order (cycles ascending, cores ascending) — so the spine is
/// bitwise reproducible regardless of how the pods themselves execute.
///
/// The spine holds one `Run` per queued packet, never an event: the queue
/// is monotone in generation cycle, first slot and last slot, so
/// [`Spine::replay`] computes a cycle's events from the runs delivering at
/// the head, the runs serializing behind `sending` and the runs generated
/// behind `announced`, and skips the backlog between them.
#[derive(Debug, Clone)]
pub struct Spine {
    photonic: bool,
    latency: u64,
    flits_per_cycle: u64,
    /// Earliest cycle with remaining serialization capacity.
    cursor: u64,
    /// Flits already allocated at `cursor`.
    used: u64,
    peak_backlog: u64,
    /// Packets whose tail flit has not been delivered yet, in transmit order.
    runs: VecDeque<Run>,
    /// Index of the first run with a flit still to serialize.
    sending: usize,
    /// Index of the first run whose `PacketGenerated` is not out yet.
    announced: usize,
}

impl Spine {
    /// Creates a spine delivering flits `latency` cycles after their
    /// serialization slot, at `flits_per_cycle` flits per cycle.
    ///
    /// # Panics
    ///
    /// Panics on a zero flit rate (the spine could never drain).
    #[must_use]
    pub fn new(photonic: bool, latency: u64, flits_per_cycle: u64) -> Self {
        assert!(
            flits_per_cycle >= 1,
            "spine capacity must be at least one flit per cycle"
        );
        Self {
            photonic,
            latency,
            flits_per_cycle,
            cursor: 0,
            used: 0,
            peak_backlog: 0,
            runs: VecDeque::new(),
            sending: 0,
            announced: 0,
        }
    }

    /// Queues one cross-pod packet generated at `cycle`; calls must come in
    /// ascending cycle order. Serialization starts no earlier than
    /// `cycle + 1` (generation and first transmission never share a cycle,
    /// matching the leaf fabrics' inject-after-generate phasing). Constant
    /// time: the packet's events are computed by [`Spine::replay`].
    pub fn transmit(&mut self, cycle: u64, desc: &PacketDescriptor) {
        if self.cursor <= cycle {
            self.cursor = cycle + 1;
            self.used = 0;
        }
        let flits = u64::from(desc.num_flits);
        if flits > 0 && self.used == self.flits_per_cycle {
            self.cursor += 1;
            self.used = 0;
        }
        let run = Run {
            src: desc.src,
            dst: desc.dst,
            flits: desc.num_flits,
            flit_bits: desc.flit_bits,
            created_cycle: desc.created_cycle,
            generated: cycle,
            first: self.cursor,
            offset: self.used,
        };
        if flits > 0 {
            self.cursor = self.last_slot(&run);
            self.used = (run.offset + flits - 1) % self.flits_per_cycle + 1;
        }
        self.runs.push_back(run);
        self.peak_backlog = self.peak_backlog.max(self.cursor - cycle);
    }

    /// Slot of the tail flit of `run` (`first` for a zero-flit packet).
    fn last_slot(&self, run: &Run) -> u64 {
        run.first + (run.offset + u64::from(run.flits)).saturating_sub(1) / self.flits_per_cycle
    }

    /// Emits the events visible at `cycle`, in a fixed order the probes rely
    /// on (deliveries are attributed per pair first-in first-out): runs in
    /// transmit order; within a run `PacketGenerated`, then one
    /// `FlitDelivered` for its flits that serialized `latency` cycles ago,
    /// `PacketInjected` if flit 0 serializes now and one `FlitInjected` for
    /// the flits serializing now (delivered right after it, without a
    /// latency), then `PacketDelivered` with the tail flit. A flit event
    /// carries the run's flit count, so a packet costs one event per slot,
    /// not one per flit.
    ///
    /// Every cycle [`Spine::next_event_after`] names must be replayed, in
    /// ascending order; a cycle costs its events plus a constant.
    pub fn replay(&mut self, cycle: u64, mut emit: impl FnMut(SimEvent)) {
        // The runs delivering now are a prefix of the queue; the ones
        // serializing now start at `sending` unless that prefix reaches them.
        // Between the two lie runs fully on the wire: nothing to emit. A run
        // generated now serializes later, so it comes after both.
        let delivering = self
            .runs
            .iter()
            .take_while(|r| r.first + self.latency <= cycle)
            .count();
        let serializing = self
            .runs
            .range(self.sending.max(delivering)..)
            .take_while(|r| r.first <= cycle);
        for run in self.runs.range(..delivering).chain(serializing) {
            self.emit_flits(run, cycle, &mut emit);
        }
        while let Some(run) = self.runs.get(self.announced) {
            if run.generated != cycle {
                break;
            }
            emit(SimEvent::PacketGenerated { src: run.src });
            self.announced += 1;
        }
        while self
            .runs
            .get(self.sending)
            .is_some_and(|r| self.last_slot(r) <= cycle)
        {
            self.sending += 1;
        }
        while self
            .runs
            .front()
            .is_some_and(|r| self.last_slot(r) + self.latency <= cycle)
        {
            self.runs.pop_front();
            self.sending -= 1;
            self.announced -= 1;
        }
    }

    /// The injection and delivery events of `run` visible at `cycle`.
    fn emit_flits(&self, run: &Run, cycle: u64, emit: &mut impl FnMut(SimEvent)) {
        let delivered = |flits: u32| SimEvent::FlitDelivered {
            src: run.src,
            dst: run.dst,
            bits: run.flit_bits,
            flits,
            photonic: self.photonic,
        };
        // With a latency the flits arriving now precede the ones serializing
        // now; without one they are the same flits, injected then delivered.
        if self.latency > 0 {
            if let Some(arriving) = run_length(self.flits_at(run, cycle, self.latency)) {
                emit(delivered(arriving));
            }
        }
        let sending = self.flits_at(run, cycle, 0);
        let holds_head = sending.start == 0;
        if let Some(flits) = run_length(sending) {
            if holds_head {
                emit(SimEvent::PacketInjected { src: run.src });
            }
            emit(SimEvent::FlitInjected {
                src: run.src,
                bits: run.flit_bits,
                flits,
            });
            if self.latency == 0 {
                emit(delivered(flits));
            }
        }
        if cycle == self.last_slot(run) + self.latency {
            emit(SimEvent::PacketDelivered {
                src: run.src,
                dst: run.dst,
                latency: cycle - run.created_cycle,
            });
        }
    }

    /// Indices of the flits of `run` whose slot is `delay` cycles before
    /// `cycle`.
    fn flits_at(&self, run: &Run, cycle: u64, delay: u64) -> Range<u64> {
        let Some(slots_before) = cycle.checked_sub(run.first + delay) else {
            return 0..0;
        };
        // Flits of the run within its first `slots` slots.
        let within = |slots: u64| {
            slots
                .saturating_mul(self.flits_per_cycle)
                .saturating_sub(run.offset)
                .min(u64::from(run.flits))
        };
        within(slots_before)..within(slots_before + 1)
    }

    /// The earliest cycle after `now` with a spine event, `None` when every
    /// queued packet's last event is at or before `now`. `now` must not
    /// precede the last replayed cycle.
    #[must_use]
    pub fn next_event_after(&self, now: u64) -> Option<u64> {
        let generation = self
            .runs
            .range(self.announced..)
            .map(|r| r.generated)
            .find(|&at| at > now);
        let injection = self
            .runs
            .range(self.sending..)
            .find(|r| self.last_slot(r) > now && r.flits > 0)
            .map(|r| r.first.max(now + 1));
        let delivery = self
            .runs
            .iter()
            .find(|r| self.last_slot(r) + self.latency > now)
            .map(|r| (r.first + self.latency).max(now + 1));
        [generation, injection, delivery]
            .into_iter()
            .flatten()
            .min()
    }

    /// Peak serialization backlog (cycles between a packet's generation and
    /// the busy edge of the spine schedule) over the whole run.
    #[must_use]
    pub fn peak_backlog(&self) -> u64 {
        self.peak_backlog
    }

    /// Packets queued or in flight: transmitted, tail flit not yet replayed.
    #[must_use]
    pub fn queued_packets(&self) -> usize {
        self.runs.len()
    }
}

/// The flit count of a run of flit indices, `None` when it is empty. A run
/// lies within one packet, whose flit count is a `u32`.
fn run_length(flits: Range<u64>) -> Option<u32> {
    (!flits.is_empty()).then(|| u32::try_from(flits.end - flits.start).expect("within one packet"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnoc_noc::packet::BandwidthClass;

    fn packet(src: usize, dst: usize, flits: u32, cycle: u64) -> PacketDescriptor {
        PacketDescriptor {
            src: CoreId(src),
            dst: CoreId(dst),
            num_flits: flits,
            flit_bits: 32,
            class: BandwidthClass::MediumHigh,
            created_cycle: cycle,
        }
    }

    /// Replays every cycle the spine names until it is idle.
    fn drain(spine: &mut Spine) -> Vec<(u64, SimEvent)> {
        let mut events = Vec::new();
        let mut next = Some(0);
        while let Some(cycle) = next {
            spine.replay(cycle, |event| events.push((cycle, event)));
            next = spine.next_event_after(cycle);
        }
        assert_eq!(spine.queued_packets(), 0, "a drained spine holds nothing");
        events
    }

    fn delivered_latency(events: &[(u64, SimEvent)]) -> Vec<u64> {
        events
            .iter()
            .filter_map(|(_, event)| match event {
                SimEvent::PacketDelivered { latency, .. } => Some(*latency),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn uncontended_packet_arrives_after_serialization_plus_latency() {
        let mut spine = Spine::new(false, 10, 4);
        // 8 flits at 4 flits/cycle serialize over cycles 1-2; the tail flit
        // lands at 2 + 10 = 12, so the latency is 12 - 0.
        spine.transmit(0, &packet(0, 64, 8, 0));
        assert_eq!(spine.queued_packets(), 1);
        let events = drain(&mut spine);
        assert_eq!(delivered_latency(&events), vec![12]);
        // One cycle entry per flit, each run expanded to its flit count.
        let flit_cycles = |delivered: bool| -> Vec<u64> {
            let runs = events.iter().filter_map(|&(cycle, event)| match event {
                SimEvent::FlitInjected { flits, .. } if !delivered => Some((cycle, flits)),
                SimEvent::FlitDelivered { flits, .. } if delivered => Some((cycle, flits)),
                _ => None,
            });
            runs.flat_map(|(cycle, flits)| std::iter::repeat_n(cycle, flits as usize))
                .collect()
        };
        assert_eq!(flit_cycles(false), [1, 1, 1, 1, 2, 2, 2, 2]);
        assert_eq!(flit_cycles(true), [11, 11, 11, 11, 12, 12, 12, 12]);
    }

    #[test]
    fn an_aligned_packet_on_a_one_packet_spine_makes_five_events() {
        let mut spine = Spine::new(true, 32, 64);
        spine.transmit(0, &packet(0, 64, 64, 0));
        let events: Vec<SimEvent> = drain(&mut spine).into_iter().map(|(_, e)| e).collect();
        let (src, dst, bits, flits) = (CoreId(0), CoreId(64), 32, 64);
        assert_eq!(
            events,
            [
                SimEvent::PacketGenerated { src },
                SimEvent::PacketInjected { src },
                SimEvent::FlitInjected { src, bits, flits },
                SimEvent::FlitDelivered {
                    src,
                    dst,
                    bits,
                    flits,
                    photonic: true,
                },
                SimEvent::PacketDelivered {
                    src,
                    dst,
                    latency: 33,
                },
            ]
        );
    }

    #[test]
    fn contention_is_latency_not_loss() {
        let mut fast = Spine::new(false, 0, 8);
        let mut slow = Spine::new(false, 0, 1);
        for i in 0..4 {
            fast.transmit(0, &packet(i, 64 + i, 8, 0));
            slow.transmit(0, &packet(i, 64 + i, 8, 0));
        }
        let fast_latencies = delivered_latency(&drain(&mut fast));
        let slow_latencies = delivered_latency(&drain(&mut slow));
        assert_eq!(fast_latencies.len(), 4, "no packet is ever dropped");
        assert_eq!(slow_latencies.len(), 4, "no packet is ever dropped");
        assert!(slow_latencies.iter().max() > fast_latencies.iter().max());
        assert!(slow.peak_backlog() > fast.peak_backlog());
    }

    #[test]
    fn schedule_is_reproducible() {
        let run = || {
            let mut spine = Spine::new(true, 5, 2);
            for cycle in 0..32 {
                if cycle % 3 == 0 {
                    spine.transmit(cycle, &packet(1, 70, 4, cycle));
                }
            }
            drain(&mut spine)
        };
        let events = run();
        // Per packet: generated, injected, a two-flit run in each of two
        // slots for injection and for delivery, delivered.
        assert_eq!(events.len(), 11 * (1 + 1 + 2 + 2 + 1));
        assert_eq!(events, run());
    }
}
