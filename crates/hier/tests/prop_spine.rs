//! Property test of the run-queue [`Spine`] against the eager spine it
//! replaced, kept here as the reference: that one turned every packet, at
//! enqueue, into all the events of its lifetime, stored per cycle — one
//! injection and one delivery flit run per serialization slot. Over random
//! schedules the two must agree on every cycle's event vector (order
//! included), on the next event cycle and on the peak backlog, whether the
//! spine is replayed every cycle or only at the cycles it names.

use pnoc_hier::Spine;
use pnoc_noc::ids::CoreId;
use pnoc_noc::packet::{BandwidthClass, PacketDescriptor};
use pnoc_sim::metrics::SimEvent;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The eager model: `transmit` schedules a packet's whole lifetime into
/// `events`, keyed by the cycle at which each event becomes visible.
struct EagerSpine {
    latency: u64,
    flits_per_cycle: u64,
    cursor: u64,
    used: u64,
    peak_backlog: u64,
    events: BTreeMap<u64, Vec<SimEvent>>,
}

impl EagerSpine {
    fn new(latency: u64, flits_per_cycle: u64) -> Self {
        Self {
            latency,
            flits_per_cycle,
            cursor: 0,
            used: 0,
            peak_backlog: 0,
            events: BTreeMap::new(),
        }
    }

    fn transmit(&mut self, cycle: u64, desc: &PacketDescriptor) {
        let events = &mut self.events;
        events
            .entry(cycle)
            .or_default()
            .push(SimEvent::PacketGenerated { src: desc.src });
        if self.cursor <= cycle {
            self.cursor = cycle + 1;
            self.used = 0;
        }
        // The packet's flits counted per serialization slot, in slot order.
        let mut slots: Vec<(u64, u32)> = Vec::new();
        for _ in 0..desc.num_flits {
            if self.used >= self.flits_per_cycle {
                self.cursor += 1;
                self.used = 0;
            }
            self.used += 1;
            match slots.last_mut() {
                Some((slot, flits)) if *slot == self.cursor => *flits += 1,
                _ => slots.push((self.cursor, 1)),
            }
        }
        for (index, &(slot, flits)) in slots.iter().enumerate() {
            let at = events.entry(slot).or_default();
            if index == 0 {
                at.push(SimEvent::PacketInjected { src: desc.src });
            }
            at.push(SimEvent::FlitInjected {
                src: desc.src,
                bits: desc.flit_bits,
                flits,
            });
            events
                .entry(slot + self.latency)
                .or_default()
                .push(SimEvent::FlitDelivered {
                    src: desc.src,
                    dst: desc.dst,
                    bits: desc.flit_bits,
                    flits,
                    photonic: true,
                });
        }
        let last_slot = slots.last().map_or(self.cursor, |&(slot, _)| slot);
        let delivered_at = last_slot + self.latency;
        events
            .entry(delivered_at)
            .or_default()
            .push(SimEvent::PacketDelivered {
                src: desc.src,
                dst: desc.dst,
                latency: delivered_at - desc.created_cycle,
            });
        self.peak_backlog = self.peak_backlog.max(self.cursor - cycle);
    }

    fn next_event_after(&self, now: u64) -> Option<u64> {
        self.events.range(now + 1..).next().map(|(&at, _)| at)
    }
}

const LATENCIES: [u64; 4] = [0, 1, 5, 32];
const RATES: [u64; 5] = [1, 3, 8, 64, 100];
const EPOCHS: [u64; 3] = [1, 16, 64];
const GAPS: [u64; 4] = [0, 1, 7, 300];
const FLITS: [u32; 5] = [0, 1, 4, 64, 65];

/// Turns drawn `(gap, burst)` indices into `(cycle, packets)` in ascending
/// cycle order; a zero gap extends the previous cycle's burst.
fn schedule(bursts: &[(usize, Vec<usize>)]) -> Vec<(u64, Vec<PacketDescriptor>)> {
    let mut cycle = 0;
    let mut serial = 0;
    let mut out: Vec<(u64, Vec<PacketDescriptor>)> = Vec::new();
    for (gap, sizes) in bursts {
        cycle += GAPS[*gap];
        let packets = sizes.iter().map(|&size| {
            serial += 1;
            PacketDescriptor {
                src: CoreId(serial),
                dst: CoreId(10_000 + serial),
                num_flits: FLITS[size],
                flit_bits: 32 + serial as u32 % 3,
                class: BandwidthClass::Low,
                created_cycle: cycle,
            }
        });
        match out.last_mut() {
            Some((at, burst)) if *at == cycle => burst.extend(packets),
            _ => out.push((cycle, packets.collect())),
        }
    }
    out
}

/// Feeds both spines the schedule the way the hierarchy does — a whole
/// `epoch` window of generations ahead of that window's replays — and
/// compares them at every replayed cycle: all of them, or only window starts
/// and the cycles the spine names.
fn drive(
    latency: u64,
    rate: u64,
    epoch: u64,
    schedule: &[(u64, Vec<PacketDescriptor>)],
    every_cycle: bool,
) -> Result<(), String> {
    let mut spine = Spine::new(true, latency, rate);
    let mut eager = EagerSpine::new(latency, rate);
    let mut traffic = schedule.iter().peekable();
    let (mut cycle, mut frontier) = (0, 0);
    loop {
        if cycle >= frontier {
            frontier = cycle + epoch;
            while let Some((at, burst)) = traffic.next_if(|(at, _)| *at < frontier) {
                for packet in burst {
                    spine.transmit(*at, packet);
                    eager.transmit(*at, packet);
                }
            }
        }
        let mut got = Vec::new();
        spine.replay(cycle, |event| got.push(event));
        let want = eager.events.remove(&cycle).unwrap_or_default();
        prop_assert_eq!(&got, &want, "cycle {cycle}: {got:?} != {want:?}");
        let next = spine.next_event_after(cycle);
        prop_assert_eq!(next, eager.next_event_after(cycle), "after cycle {cycle}");
        prop_assert_eq!(spine.peak_backlog(), eager.peak_backlog);
        let next_window = traffic.peek().map(|_| frontier);
        let Some(upcoming) = [next, next_window].into_iter().flatten().min() else {
            break;
        };
        cycle = if every_cycle { cycle + 1 } else { upcoming };
    }
    prop_assert!(eager.events.is_empty());
    prop_assert_eq!(
        spine.queued_packets(),
        0,
        "the last PacketDelivered is out, so nothing is queued"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_run_queue_replays_what_the_eager_spine_stored(
        shape in (0usize..4, 0usize..5, 0usize..3),
        bursts in prop::collection::vec(
            (0usize..4, prop::collection::vec(0usize..5, 1..=4)),
            1..30,
        ),
    ) {
        let (latency, rate, epoch) = (LATENCIES[shape.0], RATES[shape.1], EPOCHS[shape.2]);
        let schedule = schedule(&bursts);
        drive(latency, rate, epoch, &schedule, true)?;
        drive(latency, rate, epoch, &schedule, false)?;
    }
}
