//! Property test of the run-queue [`Spine`] against the eager spine it
//! replaced, kept here as the reference: that one turned every packet, at
//! enqueue, into all the events of its lifetime, stored per cycle — one
//! injection and one delivery per flit. Over random schedules the two must
//! agree at every cycle on the packet events (order included), on the
//! cycle's one `Flits` total (the eager flits folded), on the bits delivered
//! per destination core and per (src, dst) core pair, on the next event
//! cycle and on the peak backlog, whether the spine is replayed every cycle
//! or only at the cycles it names.

use pnoc_hier::Spine;
use pnoc_noc::ids::CoreId;
use pnoc_noc::packet::{BandwidthClass, PacketDescriptor};
use pnoc_sim::metrics::SimEvent;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One entry of the eager model: a packet event, or one flit.
#[derive(Debug, Clone, Copy)]
enum Eager {
    Packet(SimEvent),
    FlitInjected,
    FlitDelivered { src: CoreId, dst: CoreId, bits: u64 },
}

/// The bits delivered at one cycle, per destination core and per (src, dst)
/// core pair.
#[derive(Debug, Default, PartialEq)]
struct Arrivals {
    by_dst: BTreeMap<CoreId, u64>,
    by_pair: BTreeMap<(CoreId, CoreId), u64>,
}

impl Arrivals {
    fn credit(&mut self, src: CoreId, dst: CoreId, bits: u64) {
        *self.by_dst.entry(dst).or_insert(0) += bits;
        *self.by_pair.entry((src, dst)).or_insert(0) += bits;
    }
}

/// The eager model: `transmit` schedules a packet's whole lifetime into
/// `events`, keyed by the cycle at which each event becomes visible.
struct EagerSpine {
    photonic: bool,
    latency: u64,
    flits_per_cycle: u64,
    cursor: u64,
    used: u64,
    peak_backlog: u64,
    events: BTreeMap<u64, Vec<Eager>>,
}

impl EagerSpine {
    fn new(photonic: bool, latency: u64, flits_per_cycle: u64) -> Self {
        Self {
            photonic,
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
            .push(Eager::Packet(SimEvent::PacketGenerated { src: desc.src }));
        if self.cursor <= cycle {
            self.cursor = cycle + 1;
            self.used = 0;
        }
        // Each flit in its serialization slot, in flit order.
        let mut last_slot = self.cursor;
        for flit in 0..desc.num_flits {
            if self.used >= self.flits_per_cycle {
                self.cursor += 1;
                self.used = 0;
            }
            self.used += 1;
            last_slot = self.cursor;
            let at = events.entry(last_slot).or_default();
            if flit == 0 {
                at.push(Eager::Packet(SimEvent::PacketInjected { src: desc.src }));
            }
            at.push(Eager::FlitInjected);
            events
                .entry(last_slot + self.latency)
                .or_default()
                .push(Eager::FlitDelivered {
                    src: desc.src,
                    dst: desc.dst,
                    bits: u64::from(desc.flit_bits),
                });
        }
        let delivered_at = last_slot + self.latency;
        events
            .entry(delivered_at)
            .or_default()
            .push(Eager::Packet(SimEvent::PacketDelivered {
                src: desc.src,
                dst: desc.dst,
                latency: delivered_at - desc.created_cycle,
            }));
        self.peak_backlog = self.peak_backlog.max(self.cursor - cycle);
    }

    fn next_event_after(&self, now: u64) -> Option<u64> {
        self.events.range(now + 1..).next().map(|(&at, _)| at)
    }

    /// Removes `cycle`'s entries, folded as the spine reports them: the
    /// packet events in order, followed by one `Flits` total when a flit
    /// moved, and where the delivered bits went.
    fn fold(&mut self, cycle: u64) -> (Vec<SimEvent>, Arrivals) {
        let mut events = Vec::new();
        let mut arrivals = Arrivals::default();
        let (mut injected, mut delivered, mut delivered_bits) = (0, 0, 0);
        for entry in self.events.remove(&cycle).unwrap_or_default() {
            match entry {
                Eager::Packet(event) => events.push(event),
                Eager::FlitInjected => injected += 1,
                Eager::FlitDelivered { src, dst, bits } => {
                    delivered += 1;
                    delivered_bits += bits;
                    arrivals.credit(src, dst, bits);
                }
            }
        }
        if injected + delivered > 0 {
            events.push(SimEvent::Flits {
                injected,
                delivered,
                delivered_bits,
                photonic_bits: if self.photonic { delivered_bits } else { 0 },
            });
        }
        (events, arrivals)
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
    photonic: bool,
    latency: u64,
    rate: u64,
    epoch: u64,
    schedule: &[(u64, Vec<PacketDescriptor>)],
    every_cycle: bool,
) -> Result<(), String> {
    let mut spine = Spine::new(photonic, latency, rate);
    let mut eager = EagerSpine::new(photonic, latency, rate);
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
        let (mut got, mut arrived) = (Vec::new(), Arrivals::default());
        spine.replay(
            cycle,
            |event| got.push(event),
            |src, dst, bits| arrived.credit(src, dst, bits),
        );
        let (want, arrivals) = eager.fold(cycle);
        prop_assert_eq!(&got, &want, "cycle {cycle}: {got:?} != {want:?}");
        prop_assert_eq!(&arrived, &arrivals, "cycle {cycle}");
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
        photonic in any::<bool>(),
        bursts in prop::collection::vec(
            (0usize..4, prop::collection::vec(0usize..5, 1..=4)),
            1..30,
        ),
    ) {
        let (latency, rate, epoch) = (LATENCIES[shape.0], RATES[shape.1], EPOCHS[shape.2]);
        let schedule = schedule(&bursts);
        drive(photonic, latency, rate, epoch, &schedule, true)?;
        drive(photonic, latency, rate, epoch, &schedule, false)?;
    }
}
