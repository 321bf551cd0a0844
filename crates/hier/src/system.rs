//! The sharded hierarchical engine: per-pod leaf networks stepped as
//! `pnoc-exec` batch jobs with a boundary-exchange phase per epoch.
//!
//! See `hierarchy.md` (the crate docs) for the execution model. The short
//! version: the global traffic model is polled in the monolithic engine's
//! exact order, pod-local packets are fed to the owning pod, cross-pod
//! packets go through the [`Spine`], and every pod's events are replayed to
//! the engine's probes in pod-index order — a schedule that is a pure
//! function of the generation stream, so parallel and sequential pod
//! execution are bitwise identical.

use crate::spine::Spine;
use pnoc_noc::ids::{ClusterId, CoreId};
use pnoc_noc::packet::{BandwidthClass, PacketDescriptor};
use pnoc_noc::traffic_model::TrafficModel;
use pnoc_photonics::energy::EnergyBreakdown;
use pnoc_sim::config::SimConfig;
use pnoc_sim::engine::{advance_network, CycleNetwork};
use pnoc_sim::metrics::{
    delivery_families, EventSink, MetricReport, MetricValue, QuantileSketch, SimEvent,
};
use pnoc_sim::registry::ArchitectureBuilder;
use pnoc_sim::stats::SimStats;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Buffered generator output for one pod: `(cycle, local core, descriptor)`
/// in the exact `(cycle, core)` order the pod will poll.
type Feed = VecDeque<(u64, usize, PacketDescriptor)>;

/// Where the hierarchy leaves a pod's generator output. The hierarchy fills
/// a whole window before the pod steps it, and the pod takes everything
/// there at its first poll of the window, under one lock: the flag tells it
/// whether there is anything to take, so the polls after that lock nothing.
#[derive(Default)]
struct Inbox {
    feed: Mutex<Feed>,
    /// Set when entries were appended that the pod has not taken yet.
    filled: AtomicBool,
}

impl Inbox {
    /// Moves a window's staged entries to the back of the pod's feed, under
    /// one lock, leaving `staged` empty with its capacity.
    fn append(&self, staged: &mut Vec<(u64, usize, PacketDescriptor)>) {
        if staged.is_empty() {
            return;
        }
        let mut feed = self.feed.lock().expect("pod feed poisoned");
        feed.extend(staged.drain(..));
        self.filled.store(true, Ordering::Release);
    }

    /// Moves every entry not taken yet to the back of `feed`: a plain load
    /// on every poll, the lock once per window.
    #[inline]
    fn take_into(&self, feed: &mut Feed) {
        if self.filled.load(Ordering::Acquire) {
            self.take_all(feed);
        }
    }

    /// [`Inbox::take_into`] once the flag is set. The flag changes only
    /// under the lock, together with the entries, so it never reads clear
    /// with entries left.
    fn take_all(&self, feed: &mut Feed) {
        let mut shared = self.feed.lock().expect("pod feed poisoned");
        feed.append(&mut shared);
        self.filled.store(false, Ordering::Release);
    }

    /// The first entry not taken yet with a cycle after `now`.
    fn next_after(&self, now: u64) -> Option<u64> {
        if !self.filled.load(Ordering::Acquire) {
            return None;
        }
        next_entry_after(&self.feed.lock().expect("pod feed poisoned"), now)
    }
}

/// The cycle of `feed`'s first entry after `now`.
fn next_entry_after(feed: &Feed, now: u64) -> Option<u64> {
    feed.iter()
        .find(|&&(at, _, _)| at > now)
        .map(|&(at, _, _)| at)
}

/// One pod: a leaf network plus its core-id offset into the global
/// numbering. Wrapped in a `Mutex` by the system so `pnoc_exec::run_batch`
/// — which hands out `&T` — can step pods mutably.
struct PodShard {
    network: Box<dyn CycleNetwork>,
    core_offset: usize,
    /// The pod's own events since measurement began (the per-pod metric
    /// families), counted by the pod job as it records them.
    totals: SimStats,
    /// The buffer the next window's events are recorded into: the spent log
    /// of the window before, cleared, so its capacity carries over.
    log: Vec<(u64, SimEvent)>,
}

/// One pod's events over one window, in cycle order, read front to back
/// during replay.
#[derive(Default)]
struct PodLog {
    events: Vec<(u64, SimEvent)>,
    /// Index of the first event not replayed yet.
    next: usize,
}

impl PodLog {
    /// The earliest event not replayed yet.
    fn head(&self) -> Option<&(u64, SimEvent)> {
        self.events.get(self.next)
    }
}

/// Captures a pod's events with core ids lifted into the global numbering,
/// counting them into the pod's totals.
struct RecordingSink<'a> {
    core_offset: usize,
    events: Vec<(u64, SimEvent)>,
    totals: &'a mut SimStats,
}

impl EventSink for RecordingSink<'_> {
    fn emit(&mut self, cycle: u64, event: SimEvent) {
        let up = |core: CoreId| CoreId(core.0 + self.core_offset);
        let lifted = match event {
            SimEvent::PacketGenerated { src } => SimEvent::PacketGenerated { src: up(src) },
            SimEvent::PacketDropped { src } => SimEvent::PacketDropped { src: up(src) },
            SimEvent::PacketInjected { src } => SimEvent::PacketInjected { src: up(src) },
            SimEvent::PacketDelivered { src, dst, latency } => SimEvent::PacketDelivered {
                src: up(src),
                dst: up(dst),
                latency,
            },
            unnumbered @ (SimEvent::Flits { .. }
            | SimEvent::FaultApplied { .. }
            | SimEvent::FaultRepaired { .. }) => unnumbered,
        };
        debug_assert!(
            self.events.last().is_none_or(|&(at, _)| at <= cycle),
            "a pod's log is replayed front to back, so it must be in cycle order"
        );
        self.totals.observe(&lifted);
        self.events.push((cycle, lifted));
    }
}

/// The traffic model a pod sees: an exact replay of the global generator's
/// decisions for this pod's cores, served from the entries the hierarchy
/// leaves in the pod's inbox during the generate phase. Demand-table
/// queries (`demand_class`, `source_intensity`) answer from a snapshot of
/// the pod's block of the global model, taken when the pod is built — the
/// only time a leaf reads its demand — so a leaf that samples its demand
/// matrix sees exactly its block of the global pattern.
struct PodFeedTraffic {
    inbox: Arc<Inbox>,
    /// The entries taken from the inbox and not polled yet.
    feed: Feed,
    pod: usize,
    /// The pod's block of the global `demand_class`, row-major over its
    /// clusters.
    classes: Vec<BandwidthClass>,
    /// The pod's clusters' global `source_intensity`.
    intensity: Vec<f64>,
}

impl PodFeedTraffic {
    /// A pod's proxy over `inbox`, snapshotting the demand of the
    /// `clusters` clusters from `first_cluster` on in `global`.
    fn new(
        inbox: Arc<Inbox>,
        pod: usize,
        global: &dyn TrafficModel,
        first_cluster: usize,
        clusters: usize,
    ) -> Self {
        let block = first_cluster..first_cluster + clusters;
        let classes = block
            .clone()
            .flat_map(|src| {
                block
                    .clone()
                    .map(move |dst| global.demand_class(ClusterId(src), ClusterId(dst)))
            })
            .collect();
        let intensity = block
            .map(|src| global.source_intensity(ClusterId(src)))
            .collect();
        Self {
            inbox,
            feed: VecDeque::new(),
            pod,
            classes,
            intensity,
        }
    }

    /// A feed entry older than the polled cycle was jumped over: the leaf
    /// skipped a cycle its feed had a packet for. Answering "nothing" would
    /// lose that packet and block every entry behind it while the run drains
    /// short with healthy-looking numbers, so this is a panic.
    fn assert_not_passed(&self, at: u64, core: usize, cycle: u64) {
        assert!(
            at >= cycle,
            "pod {} polled at cycle {cycle} past its feed entry (cycle {at}, core {core}): \
             the leaf skipped a cycle it had traffic for",
            self.pod
        );
    }
}

impl TrafficModel for PodFeedTraffic {
    fn next_packet(&mut self, cycle: u64, src: CoreId) -> Option<PacketDescriptor> {
        self.inbox.take_into(&mut self.feed);
        let &(at, core, desc) = self.feed.front()?;
        self.assert_not_passed(at, core, cycle);
        (at == cycle && core == src.0).then(|| {
            self.feed.pop_front();
            desc
        })
    }

    /// Pops the feed's head run for `cycle`: the feed is in the
    /// `(cycle, core)` order the per-core loop would find it in.
    fn poll_cycle(
        &mut self,
        cycle: u64,
        _num_cores: usize,
        emit: &mut dyn FnMut(CoreId, PacketDescriptor),
    ) {
        self.inbox.take_into(&mut self.feed);
        while let Some(&(at, core, desc)) = self.feed.front() {
            self.assert_not_passed(at, core, cycle);
            if at != cycle {
                break;
            }
            self.feed.pop_front();
            emit(CoreId(core), desc);
        }
    }

    fn demand_class(&self, src: ClusterId, dst: ClusterId) -> BandwidthClass {
        self.classes[src.0 * self.intensity.len() + dst.0]
    }

    fn source_intensity(&self, src: ClusterId) -> f64 {
        self.intensity[src.0]
    }

    fn next_generation_cycle(&self, now: u64) -> Option<u64> {
        // Only the already-buffered entries count. The hierarchy fills a
        // whole window before the pods step, so inside the window the head
        // entry is the pod's next packet; after it nothing is buffered
        // beyond, and no entry means "idle until the hierarchy says
        // otherwise". Entries not taken yet come after every taken one.
        next_entry_after(&self.feed, now).or_else(|| self.inbox.next_after(now))
    }
}

/// Spine-side accounting for the measurement window, driven by replayed
/// spine events and arrivals (and therefore reset together with the pods at
/// `begin_measurement`).
struct SpineAccount {
    /// The spine's own events; only the packet and flit counters are read.
    totals: SimStats,
    latency_sketch: QuantileSketch,
    /// Delivered packets per (source pod, destination pod), row-major.
    pod_pair_packets: Vec<u64>,
    /// Bits the spine delivered per destination core, and, on a photonic
    /// spine, per (src, dst) global cluster pair. Sparse: a global pair
    /// array would be clusters² long, and a run touches them once per slot.
    bits_by_node: BTreeMap<CoreId, u64>,
    photonic_bits_by_pair: BTreeMap<(ClusterId, ClusterId), u64>,
}

impl SpineAccount {
    fn new(pods: usize) -> Self {
        Self {
            totals: SimStats::default(),
            latency_sketch: QuantileSketch::new(),
            pod_pair_packets: vec![0; pods * pods],
            bits_by_node: BTreeMap::new(),
            photonic_bits_by_pair: BTreeMap::new(),
        }
    }
}

/// Label for one pod in the per-pod metric families (`p00`, `p01`, ...).
#[must_use]
pub(crate) fn pod_label(pod: usize) -> String {
    format!("p{pod:02}")
}

/// Label for a cross-pod pair in the spine traffic matrix (`p00->p01`).
#[must_use]
pub(crate) fn pod_pair_label(src: usize, dst: usize) -> String {
    format!("p{src:02}->p{dst:02}")
}

/// A hierarchy of leaf networks behind one [`CycleNetwork`] face.
///
/// Built by [`crate::HierArchitecture`]; construct directly only in tests.
pub(crate) struct HierarchicalSystem {
    config: SimConfig,
    pods: Vec<Mutex<PodShard>>,
    inboxes: Vec<Arc<Inbox>>,
    /// Each pod's pod-local packets of the window being generated, in
    /// `(cycle, core)` order, appended to its inbox once the window is.
    staged: Vec<Vec<(u64, usize, PacketDescriptor)>>,
    traffic: Box<dyn TrafficModel + Send>,
    leaf_cores: usize,
    epoch: u64,
    spine: Spine,
    /// The current window's events awaiting replay, one log per pod.
    pod_logs: Vec<PodLog>,
    /// Cycles `[0, simulated_through)` have been simulated in the pods.
    simulated_through: u64,
    /// Whether any pod reported pending work at the last window boundary.
    pods_active: bool,
    account: SpineAccount,
}

impl HierarchicalSystem {
    /// Builds `pods` replicas of `leaf` (at its default parameters) under a
    /// spine, fed from one global traffic model.
    ///
    /// `config` is the **effective** configuration: its topology must be the
    /// leaf topology scaled by `pods` (see
    /// [`ArchitectureBuilder::effective_config`]).
    ///
    /// # Panics
    ///
    /// Panics when the effective cluster count is not divisible by `pods`,
    /// or when `pods` or `epoch` is zero.
    #[must_use]
    pub fn new(
        config: SimConfig,
        pods: usize,
        epoch: u64,
        spine: Spine,
        leaf: &dyn ArchitectureBuilder,
        traffic: Box<dyn TrafficModel + Send>,
    ) -> Self {
        assert!(pods >= 1, "a hierarchy needs at least one pod");
        assert!(
            epoch >= 1,
            "the boundary-exchange epoch must be at least one cycle"
        );
        let clusters = config.topology.num_clusters();
        assert!(
            clusters.is_multiple_of(pods),
            "effective cluster count {clusters} is not divisible by {pods} pods \
             (was the config passed through effective_config?)"
        );
        let mut leaf_config = config;
        leaf_config.topology = pnoc_noc::topology::ClusterTopology::new(
            clusters / pods,
            config.topology.cores_per_cluster(),
        );
        let leaf_cores = leaf_config.topology.num_cores();
        let leaf_clusters = leaf_config.topology.num_clusters();
        let leaf_params = leaf.default_params();
        let mut shards = Vec::with_capacity(pods);
        let mut inboxes = Vec::with_capacity(pods);
        for pod in 0..pods {
            let inbox = Arc::new(Inbox::default());
            let proxy = PodFeedTraffic::new(
                Arc::clone(&inbox),
                pod,
                &*traffic,
                pod * leaf_clusters,
                leaf_clusters,
            );
            let network = leaf.build(leaf_config, &leaf_params, Box::new(proxy));
            shards.push(Mutex::new(PodShard {
                network,
                core_offset: pod * leaf_cores,
                totals: SimStats::default(),
                log: Vec::new(),
            }));
            inboxes.push(inbox);
        }
        Self {
            config,
            pods: shards,
            inboxes,
            staged: vec![Vec::new(); pods],
            traffic,
            leaf_cores,
            epoch,
            spine,
            pod_logs: (0..pods).map(|_| PodLog::default()).collect(),
            simulated_through: 0,
            pods_active: false,
            account: SpineAccount::new(pods),
        }
    }

    /// Simulates the next window `[simulated_through, end)`, where `end` is
    /// an epoch away clamped to the warm-up and total-cycle boundaries (so
    /// `begin_measurement` always finds the pods exactly at the boundary).
    fn simulate_window(&mut self) {
        let start = self.simulated_through;
        let mut end = start + self.epoch;
        for boundary in [self.config.warmup_cycles, self.config.total_cycles()] {
            if start < boundary && boundary < end {
                end = boundary;
            }
        }
        // Generate: poll the global model once per cycle of the window, which
        // yields packets in the monolithic engine's exact (cycle, core)
        // order, so the generation stream is independent of the pod
        // decomposition.
        let num_cores = self.config.topology.num_cores();
        for cycle in start..end {
            self.traffic.poll_cycle(cycle, num_cores, &mut |_, desc| {
                let src_pod = desc.src.0 / self.leaf_cores;
                let dst_pod = desc.dst.0 / self.leaf_cores;
                if src_pod == dst_pod {
                    let offset = src_pod * self.leaf_cores;
                    let local = PacketDescriptor {
                        src: CoreId(desc.src.0 - offset),
                        dst: CoreId(desc.dst.0 - offset),
                        ..desc
                    };
                    self.staged[src_pod].push((cycle, local.src.0, local));
                } else {
                    self.spine.transmit(cycle, &desc);
                }
            });
        }
        for (inbox, staged) in self.inboxes.iter().zip(&mut self.staged) {
            inbox.append(staged);
        }
        // The window that just ended is fully replayed — the engine steps
        // every cycle `next_event_cycle` names — so its logs are spent: each
        // goes back to its pod, emptied, to record the next window into.
        debug_assert!(
            self.pod_logs.iter().all(|log| log.next == log.events.len()),
            "a pod event of the previous window was never replayed"
        );
        for (log, pod) in self.pod_logs.iter_mut().zip(&self.pods) {
            let mut events = std::mem::take(&mut log.events);
            events.clear();
            pod.lock().expect("pod shard poisoned").log = events;
        }
        // Step pods: one batch job per pod over the whole window, advancing
        // by the engine's own rule — a pod with nothing buffered jumps to its
        // feed's next entry, or to the window's end. Pods are independent,
        // results come back in submission order, and each job records its
        // events locally — bitwise identical however many workers the
        // executor runs.
        let window = (start, end);
        let batches = pnoc_exec::run_batch(&self.pods, |_, pod| {
            let mut guard = pod.lock().expect("pod shard poisoned");
            let pod = &mut *guard;
            let mut sink = RecordingSink {
                core_offset: pod.core_offset,
                events: std::mem::take(&mut pod.log),
                totals: &mut pod.totals,
            };
            let mut cycle = window.0;
            while cycle < window.1 {
                pod.network.step_observed(cycle, &mut sink);
                cycle = advance_network(&mut *pod.network, cycle, window.1);
            }
            sink.events
        });
        // Exchange: the logs stay where they were recorded.
        for (log, events) in self.pod_logs.iter_mut().zip(batches) {
            *log = PodLog { events, next: 0 };
        }
        self.pods_active = self.pods.iter().any(|pod| {
            pod.lock()
                .expect("pod shard poisoned")
                .network
                .next_event_cycle(end - 1)
                .is_some()
        });
        self.simulated_through = end;
    }

    /// Hands `cycle`'s events to the probes: pods in index order, then the
    /// spine.
    fn replay(&mut self, cycle: u64, sink: &mut dyn EventSink) {
        for log in &mut self.pod_logs {
            while let Some(&(_, event)) = log.head().filter(|&&(at, _)| at == cycle) {
                sink.emit(cycle, event);
                log.next += 1;
            }
        }
        let (account, leaf_cores, pods) = (&mut self.account, self.leaf_cores, self.pods.len());
        let (topology, photonic) = (self.config.topology, self.spine.is_photonic());
        self.spine.replay(
            cycle,
            |event| {
                account.totals.observe(&event);
                if let SimEvent::PacketDelivered { src, dst, latency } = event {
                    account.latency_sketch.record(latency);
                    account.pod_pair_packets[src.0 / leaf_cores * pods + dst.0 / leaf_cores] += 1;
                }
                sink.emit(cycle, event);
            },
            |src, dst, bits| {
                *account.bits_by_node.entry(dst).or_insert(0) += bits;
                if photonic {
                    let pair = (topology.cluster_of(src), topology.cluster_of(dst));
                    *account.photonic_bits_by_pair.entry(pair).or_insert(0) += bits;
                }
            },
        );
    }
}

impl CycleNetwork for HierarchicalSystem {
    fn step_observed(&mut self, cycle: u64, sink: &mut dyn EventSink) {
        if cycle >= self.simulated_through {
            debug_assert_eq!(
                cycle, self.simulated_through,
                "the engine must not step past the simulated frontier"
            );
            self.simulate_window();
        }
        self.replay(cycle, sink);
    }

    fn begin_measurement(&mut self, cycle: u64) {
        debug_assert!(
            cycle == self.simulated_through,
            "window clamping must land the pods exactly on the measurement boundary"
        );
        for pod in &self.pods {
            let mut pod = pod.lock().expect("pod shard poisoned");
            pod.network.begin_measurement(cycle);
            pod.totals = SimStats::default();
        }
        self.account = SpineAccount::new(self.pods.len());
    }

    fn energy(&self) -> EnergyBreakdown {
        self.pods
            .iter()
            .fold(EnergyBreakdown::default(), |energy, pod| {
                energy.combined(&pod.lock().expect("pod shard poisoned").network.energy())
            })
    }

    fn config(&self) -> &SimConfig {
        &self.config
    }

    fn next_event_cycle(&mut self, now: u64) -> Option<u64> {
        let mut next: Option<u64> = None;
        let consider = |candidate: u64, next: &mut Option<u64>| {
            *next = Some(next.map_or(candidate, |n| n.min(candidate)));
        };
        // Everything at or before `now` is replayed, so a log's head is its
        // earliest pending cycle.
        for log in &self.pod_logs {
            if let Some(&(cycle, _)) = log.head() {
                consider(cycle, &mut next);
            }
        }
        if let Some(cycle) = self.spine.next_event_after(now) {
            consider(cycle, &mut next);
        }
        if self.pods_active {
            consider(self.simulated_through.max(now + 1), &mut next);
        } else if let Some(generation) = self.traffic.next_generation_cycle(now) {
            consider(generation.max(now + 1), &mut next);
        }
        next
    }

    fn skip_cycles(&mut self, from: u64, to: u64) {
        let start = from.max(self.simulated_through);
        if start < to {
            for pod in &self.pods {
                pod.lock()
                    .expect("pod shard poisoned")
                    .network
                    .skip_cycles(start, to);
            }
            self.simulated_through = to;
        }
    }

    fn contribute_metrics(&self, report: &mut MetricReport) {
        let mut generated = BTreeMap::new();
        let mut delivered = BTreeMap::new();
        let mut bits = BTreeMap::new();
        let mut dropped = BTreeMap::new();
        // The spine's deliveries plus every pod's, lifted into the global
        // numbering: a pod's cores and clusters are one block of it.
        let mut nodes = self.account.bits_by_node.clone();
        let mut pairs = self.account.photonic_bits_by_pair.clone();
        let leaf_clusters = self.config.topology.num_clusters() / self.pods.len();
        for (index, pod) in self.pods.iter().enumerate() {
            let pod = pod.lock().expect("pod shard poisoned");
            if let Some(tally) = pod.network.delivery_tally() {
                for (core, bits) in tally.nodes() {
                    *nodes.entry(CoreId(core.0 + pod.core_offset)).or_insert(0) += bits;
                }
                let up = |cluster: ClusterId| ClusterId(cluster.0 + index * leaf_clusters);
                for ((src, dst), bits) in tally.cluster_pairs() {
                    *pairs.entry((up(src), up(dst))).or_insert(0) += bits;
                }
            }
            let totals = &pod.totals;
            let label = pod_label(index);
            for (family, count) in [
                (&mut generated, totals.generated_packets),
                (&mut delivered, totals.delivered_packets),
                (&mut bits, totals.delivered_bits),
                (&mut dropped, totals.dropped_packets),
            ] {
                family.insert(label.clone(), MetricValue::Counter(count));
            }
        }
        report.insert("pod_generated_packets", MetricValue::Family(generated));
        report.insert("pod_delivered_packets", MetricValue::Family(delivered));
        report.insert("pod_delivered_bits", MetricValue::Family(bits));
        report.insert("pod_dropped_packets", MetricValue::Family(dropped));
        delivery_families(report, nodes, pairs);
        let spine = &self.account.totals;
        for (name, count) in [
            ("cross_pod_packets", spine.generated_packets),
            ("spine_packets", spine.delivered_packets),
            ("spine_flits", spine.delivered_flits),
            ("spine_bits", spine.delivered_bits),
        ] {
            report.insert(name, MetricValue::Counter(count));
        }
        report.insert(
            "spine_latency_cycles",
            MetricValue::Histogram(self.account.latency_sketch.clone()),
        );
        report.insert(
            "spine_backlog_cycles",
            MetricValue::Gauge(self.spine.peak_backlog() as f64),
        );
        let pods = self.pods.len();
        let pairs = self
            .account
            .pod_pair_packets
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(index, &count)| {
                (
                    pod_pair_label(index / pods, index % pods),
                    MetricValue::Counter(count),
                )
            })
            .collect();
        report.insert("pod_pair_packets", MetricValue::Family(pairs));
    }
}

/// Metric names only the hierarchy contributes — a helper for comparisons
/// that want to line a hierarchy report up against a flat network's (the
/// `pods=1` degeneracy tests strip these before the bitwise diff).
pub const HIER_ONLY_METRICS: [&str; 11] = [
    "pod_generated_packets",
    "pod_delivered_packets",
    "pod_delivered_bits",
    "pod_dropped_packets",
    "cross_pod_packets",
    "spine_packets",
    "spine_flits",
    "spine_bits",
    "spine_latency_cycles",
    "spine_backlog_cycles",
    "pod_pair_packets",
];

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn packet(core: usize, cycle: u64) -> PacketDescriptor {
        PacketDescriptor {
            src: CoreId(core),
            dst: CoreId(core + 1),
            num_flits: 4,
            flit_bits: 32,
            class: BandwidthClass::Low,
            created_cycle: cycle,
        }
    }

    /// A pod-3 proxy over `entries`, which must be in `(cycle, core)` order.
    fn pod_feed(entries: &[(u64, usize)]) -> PodFeedTraffic {
        let inbox = Arc::new(Inbox::default());
        inbox.append(
            &mut entries
                .iter()
                .map(|&(cycle, core)| (cycle, core, packet(core, cycle)))
                .collect(),
        );
        PodFeedTraffic {
            inbox,
            feed: VecDeque::new(),
            pod: 3,
            classes: Vec::new(),
            intensity: Vec::new(),
        }
    }

    #[test]
    fn a_flit_total_tallies_as_its_flits_one_by_one() {
        let total = |flits: u32, bits: u64, photonic: bool| SimEvent::Flits {
            injected: flits,
            delivered: flits,
            delivered_bits: u64::from(flits) * bits,
            photonic_bits: if photonic { u64::from(flits) * bits } else { 0 },
        };
        for bits in [1, 32, u64::from(u32::MAX)] {
            for flits in [1, 2, 7, 64] {
                for photonic in [false, true] {
                    let (mut whole, mut one_by_one) = (SimStats::default(), SimStats::default());
                    whole.observe(&total(flits, bits, photonic));
                    for _ in 0..flits {
                        one_by_one.observe(&total(1, bits, photonic));
                    }
                    assert_eq!(whole, one_by_one, "{flits} flits of {bits} bits");
                    assert_eq!(whole.delivered_flits, u64::from(flits));
                    assert_eq!(whole.injected_flits, u64::from(flits));
                    let photonic_bits = if photonic { whole.delivered_bits } else { 0 };
                    assert_eq!(whole.delivered_photonic_bits, photonic_bits);
                }
            }
        }
    }

    #[test]
    fn a_pod_takes_its_inbox_once_and_still_sees_later_entries() {
        let mut pod = pod_feed(&[(5, 2), (9, 0)]);
        // Before the first poll the entries are still in the inbox.
        assert_eq!(pod.next_generation_cycle(0), Some(5));
        let mut got = Vec::new();
        pod.poll_cycle(5, 64, &mut |core, _| got.push(core));
        assert_eq!(got, [CoreId(2)]);
        assert!(pod.inbox.feed.lock().unwrap().is_empty());
        assert!(!pod.inbox.filled.load(Ordering::Relaxed));
        // An entry appended after the take is seen behind the taken ones.
        pod.inbox.append(&mut vec![(12, 1, packet(1, 12))]);
        assert_eq!(pod.next_generation_cycle(9), Some(12));
        assert_eq!(
            pod.next_packet(9, CoreId(0)).map(|p| p.src),
            Some(CoreId(0))
        );
        assert_eq!(pod.next_generation_cycle(9), Some(12));
        pod.poll_cycle(12, 64, &mut |core, _| got.push(core));
        assert_eq!(got, [CoreId(2), CoreId(1)]);
        assert_eq!(pod.next_generation_cycle(12), None);
    }

    #[test]
    #[should_panic(expected = "pod 3 polled at cycle 6 past its feed entry (cycle 5, core 2)")]
    fn a_per_core_poll_past_a_queued_entry_panics() {
        let _ = pod_feed(&[(5, 2), (9, 0)]).next_packet(6, CoreId(2));
    }

    #[test]
    #[should_panic(expected = "pod 3 polled at cycle 6 past its feed entry (cycle 5, core 2)")]
    fn a_batched_poll_past_a_queued_entry_panics() {
        pod_feed(&[(5, 2), (9, 0)]).poll_cycle(6, 64, &mut |_, _| {});
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The feed's batch override is the per-core loop: same packets in
        /// the same order every cycle, the same entries left queued and the
        /// same look-ahead answer, over random `(cycle, core)`-sorted feeds.
        #[test]
        fn the_batched_feed_poll_equals_the_per_core_loop(
            cores in 1usize..=64,
            raw in prop::collection::vec((0u64..40, 0usize..64), 0..60),
        ) {
            let mut entries: Vec<(u64, usize)> =
                raw.into_iter().map(|(cycle, core)| (cycle, core % cores)).collect();
            entries.sort_unstable();
            entries.dedup();
            let (mut batched, mut looped) = (pod_feed(&entries), pod_feed(&entries));
            for cycle in 0..40 {
                let mut got = Vec::new();
                batched.poll_cycle(cycle, cores, &mut |core, packet| got.push((core, packet)));
                let want: Vec<_> = (0..cores)
                    .filter_map(|c| looped.next_packet(cycle, CoreId(c)).map(|p| (CoreId(c), p)))
                    .collect();
                prop_assert_eq!(&got, &want, "cycle {cycle} of {entries:?} on {cores} cores");
                prop_assert_eq!(
                    batched.next_generation_cycle(cycle),
                    looped.next_generation_cycle(cycle),
                    "look-ahead after cycle {cycle} of {entries:?} on {cores} cores"
                );
                prop_assert_eq!(
                    &batched.feed,
                    &looped.feed,
                    "feed left after cycle {cycle} of {entries:?} on {cores} cores"
                );
            }
            prop_assert!(batched.feed.is_empty());
        }
    }
}
