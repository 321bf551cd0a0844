//! The closed-loop workload engine: executing a flow-level
//! [`Workload`] DAG on a simulated network.
//!
//! Open-loop sweeps (the [`crate::sweep`] ladder) inject packets at a fixed
//! rate forever and measure steady state. This module runs the other kind of
//! experiment: a **finite** set of flows with dependencies is injected
//! closed-loop, deliveries are observed through the engine's [`SimEvent`]
//! stream, dependent flows are released as their prerequisites complete,
//! and the run terminates when the DAG drains (see
//! [`crate::engine::run_until_with`]). The metrics that come out are the
//! ones that matter for closed-loop workloads: per-flow **flow-completion
//! time** quantiles and per-collective **makespans**.
//!
//! # How the loop closes
//!
//! A [`WorkloadDriver`] owns the shared flow state and hands out two views
//! of it:
//!
//! * a [`TrafficModel`] (via [`WorkloadDriver::traffic`]) that the network
//!   polls each cycle — it emits the next packet of the frontmost released
//!   flow at each source core, **paced** so a core never generates while its
//!   injection queue is full (closed-loop flows must not be load-shed; a
//!   dropped packet would leave its flow waiting forever), and
//! * a [`FlowProbe`] (via [`WorkloadDriver::probe`]) that watches the event
//!   stream: `PacketInjected`/`PacketDropped` maintain the pacing window,
//!   and `PacketDelivered` advances per-flow delivery counts, completes
//!   flows, records their completion time and releases their dependents.
//!
//! Everything is deterministic — no RNG is involved anywhere in the flow
//! path — so a workload point run in the parallel matrix queue is
//! bitwise-identical to the same point run sequentially, the same guarantee
//! the open-loop sweep engine gives.
//!
//! Flows sharing a (source, destination) pair are credited in release
//! order: delivery counts are attributed to the earliest incomplete flow of
//! the pair. Totals (and therefore the drain condition) are exact; if the
//! network reorders packets across two same-pair flows, their individual
//! completion cycles are approximations at sub-flow granularity.

use crate::config::SimConfig;
use crate::engine::{run_until_with, CycleNetwork};
use crate::metrics::{MetricReport, MetricValue, MetricsProbe, Probe, QuantileSketch, SimEvent};
use crate::params::ResolvedParams;
use crate::registry::ArchitectureBuilder;
use crate::sweep::{simulate_point, SweepPoint, SweepPointSpec};
use pnoc_noc::ids::{ClusterId, CoreId};
use pnoc_noc::packet::{BandwidthClass, PacketDescriptor};
use pnoc_noc::traffic_model::TrafficModel;
use pnoc_noc::vc::set_bits;
use pnoc_workload::dag::{Workload, WorkloadValidationError};
use pnoc_workload::flow::FlowId;
use pnoc_workload::registry::{WorkloadFactory, WorkloadSpec};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::{Arc, Mutex, Weak};

/// How many simulated cycles a closed-loop run may take before it is
/// declared stuck, expressed as a multiple of the configuration's
/// (open-loop) measurement window. Generous: a drained DAG ends the run
/// long before the cap; the cap only bounds a genuinely wedged workload.
pub(crate) const DRAIN_CYCLE_CAP_FACTOR: u64 = 100;

/// The per-packet term of the drain cap: a workload whose flows all funnel
/// through one core (incast, parameter-server fan-in) is limited by that
/// core's one-flit-per-cycle ejection port, so the cap must grow with
/// `total packets × flits per packet`. The factor leaves an order of
/// magnitude of slack for reservation overhead and dependency serialization.
pub(crate) const DRAIN_CYCLE_CAP_PACKET_FACTOR: u64 = 8;

/// The shared, mutex-guarded state of one closed-loop run.
struct FlowState {
    /// Remaining unmet dependencies per flow.
    remaining_deps: Vec<usize>,
    /// Packets each flow occupies on the wire.
    packets_total: Vec<u64>,
    /// Packets generated so far per flow (drops are re-credited).
    packets_generated: Vec<u64>,
    /// Packets delivered so far per flow.
    packets_delivered: Vec<u64>,
    /// Cycle each flow became eligible to inject.
    released_at: Vec<Option<u64>>,
    /// Cycle each flow's last packet arrived.
    completed_at: Vec<Option<u64>>,
    /// Released-but-not-fully-generated flows, FIFO per source core.
    ready: Vec<VecDeque<usize>>,
    /// The cores whose `ready` queue is non-empty, one bit per core (core
    /// `c` is bit `c % 64` of word `c / 64`): what a batched poll walks
    /// instead of asking every core. Kept by the three places `ready`
    /// changes: `activate_due`, `generate` and `requeue_dropped`.
    ready_cores: Vec<u64>,
    /// Released flows awaiting delivery attribution, FIFO per (src, dst).
    open_by_pair: BTreeMap<(usize, usize), VecDeque<usize>>,
    /// Dependency-satisfied flows waiting on their `release_cycle`.
    timed: BinaryHeap<Reverse<(u64, usize)>>,
    /// Tracked injection-queue occupancy per core (generated − injected −
    /// dropped); generation pauses at the configured capacity.
    in_queue: Vec<u64>,
    /// The flow that generated each core's most recent packet (drop
    /// re-crediting).
    last_generated: Vec<Option<usize>>,
    /// Completed flows so far.
    completed: usize,
    /// Packets dropped and re-credited for retransmission (zero under the
    /// pacing window; counted defensively).
    retransmitted: u64,
    /// Flow-completion-time sketch (completion − release, cycles).
    fct: QuantileSketch,
    /// Next cycle whose timed releases have not been activated yet.
    activated_through: u64,
}

impl FlowState {
    fn new(workload: &Workload, config: &SimConfig) -> Self {
        let cores = config.topology.num_cores();
        let packet_bits = config.bandwidth_set.packet_bits();
        let flows = workload.len();
        let roots = || workload.ids().filter(|&f| workload.deps(f).is_empty());
        let mut state = Self {
            remaining_deps: workload.ids().map(|f| workload.deps(f).len()).collect(),
            packets_total: workload
                .ids()
                .map(|f| workload.packets(f, packet_bits))
                .collect(),
            packets_generated: vec![0; flows],
            packets_delivered: vec![0; flows],
            released_at: vec![None; flows],
            completed_at: vec![None; flows],
            ready: vec![VecDeque::new(); cores],
            ready_cores: vec![0; cores.div_ceil(64)],
            open_by_pair: BTreeMap::new(),
            timed: BinaryHeap::with_capacity(roots().count()),
            in_queue: vec![0; cores],
            last_generated: vec![None; cores],
            completed: 0,
            retransmitted: 0,
            fct: QuantileSketch::new(),
            activated_through: 0,
        };
        for flow in roots() {
            state
                .timed
                .push(Reverse((workload.release_cycle(flow), flow.0)));
        }
        state
    }

    /// Moves every timed flow due at or before `cycle` into the per-core
    /// ready queues (and the per-pair attribution queues), in (cycle, flow
    /// id) order — deterministic regardless of completion interleaving.
    fn activate_due(&mut self, cycle: u64, workload: &Workload) {
        if cycle < self.activated_through {
            return;
        }
        while let Some(&Reverse((due, flow_idx))) = self.timed.peek() {
            if due > cycle {
                break;
            }
            self.timed.pop();
            let flow = FlowId(flow_idx);
            let (src, dst) = (workload.src(flow).0, workload.dst(flow).0);
            self.released_at[flow_idx] = Some(cycle.max(due));
            self.ready[src].push_back(flow_idx);
            self.ready_cores[src / 64] |= 1 << (src % 64);
            self.open_by_pair
                .entry((src, dst))
                .or_default()
                .push_back(flow_idx);
        }
        self.activated_through = cycle + 1;
    }

    /// Marks `flow_idx` complete at `cycle`, records its completion time and
    /// schedules any dependents whose last prerequisite this was.
    fn complete(&mut self, flow_idx: usize, cycle: u64, workload: &Workload) {
        self.completed_at[flow_idx] = Some(cycle);
        self.completed += 1;
        let released = self.released_at[flow_idx].unwrap_or(0);
        self.fct.record(cycle.saturating_sub(released));
        for &dependent in workload.dependents(FlowId(flow_idx)) {
            self.remaining_deps[dependent.0] -= 1;
            if self.remaining_deps[dependent.0] == 0 {
                let release = workload.release_cycle(dependent).max(cycle + 1);
                self.timed.push(Reverse((release, dependent.0)));
                // The dependent may be due before `activated_through` if its
                // prerequisite completed this very cycle; re-open activation.
                self.activated_through = self.activated_through.min(release);
            }
        }
    }

    /// Generates the next packet of `src`'s frontmost released flow and
    /// returns that flow, or `None` when nothing is released there or the
    /// pacing window (`capacity` packets queued at the core) is full.
    fn generate(&mut self, src: usize, capacity: u64) -> Option<usize> {
        if self.in_queue[src] >= capacity {
            return None; // queue full: generating now would drop
        }
        let &flow_idx = self.ready[src].front()?;
        self.packets_generated[flow_idx] += 1;
        if self.packets_generated[flow_idx] == self.packets_total[flow_idx] {
            self.ready[src].pop_front();
            if self.ready[src].is_empty() {
                self.ready_cores[src / 64] &= !(1 << (src % 64));
            }
        }
        self.in_queue[src] += 1;
        self.last_generated[src] = Some(flow_idx);
        Some(flow_idx)
    }

    /// Takes back `src`'s most recently generated packet after the network
    /// dropped it: the flow owes one more packet and returns to the front of
    /// the core's queue if generating that packet had retired it.
    fn requeue_dropped(&mut self, src: usize) {
        self.in_queue[src] = self.in_queue[src].saturating_sub(1);
        let Some(flow_idx) = self.last_generated[src] else {
            return;
        };
        self.packets_generated[flow_idx] = self.packets_generated[flow_idx].saturating_sub(1);
        self.retransmitted += 1;
        if self.ready[src].front() != Some(&flow_idx) {
            self.ready[src].push_front(flow_idx);
            self.ready_cores[src / 64] |= 1 << (src % 64);
        }
    }

    /// Credits one delivered packet to the earliest incomplete flow of the
    /// (src, dst) `pair`, completing the flow on its last packet.
    fn credit_delivery(&mut self, pair: (usize, usize), cycle: u64, workload: &Workload) {
        let Some(flow_idx) = self
            .open_by_pair
            .get(&pair)
            .and_then(|queue| queue.front().copied())
        else {
            return;
        };
        self.packets_delivered[flow_idx] += 1;
        if self.packets_delivered[flow_idx] == self.packets_total[flow_idx] {
            self.open_by_pair
                .get_mut(&pair)
                .expect("just present")
                .pop_front();
            self.complete(flow_idx, cycle, workload);
        }
    }

    fn drained(&self, total_flows: usize) -> bool {
        self.completed == total_flows
    }
}

/// Static per-cluster-pair byte volumes of a workload (drives the demand
/// tables d-HetPNoC allocates wavelengths from).
struct PairDemand {
    /// Bytes exchanged between each ordered cluster pair.
    volume: Vec<Vec<u64>>,
    /// Total bytes leaving each cluster for other clusters.
    outbound: Vec<u64>,
    clusters: usize,
}

impl PairDemand {
    fn new(workload: &Workload, config: &SimConfig) -> Self {
        let clusters = config.topology.num_clusters();
        let mut volume = vec![vec![0u64; clusters]; clusters];
        let mut outbound = vec![0u64; clusters];
        for flow in workload.ids() {
            let src = config.topology.cluster_of(workload.src(flow)).0;
            let dst = config.topology.cluster_of(workload.dst(flow)).0;
            if src != dst {
                volume[src][dst] += workload.bytes(flow);
                outbound[src] += workload.bytes(flow);
            }
        }
        Self {
            volume,
            outbound,
            clusters,
        }
    }

    fn share(&self, src: ClusterId, dst: ClusterId) -> f64 {
        if src.0 >= self.clusters || dst.0 >= self.clusters || self.outbound[src.0] == 0 {
            return 0.0;
        }
        self.volume[src.0][dst.0] as f64 / self.outbound[src.0] as f64
    }

    fn class(&self, src: ClusterId, dst: ClusterId) -> BandwidthClass {
        // Classify relative to the uniform share (1/(clusters−1)): pairs
        // carrying multiples of the average demand advertise higher classes.
        let uniform = 1.0 / (self.clusters.saturating_sub(1).max(1)) as f64;
        let share = self.share(src, dst);
        if share >= 4.0 * uniform {
            BandwidthClass::High
        } else if share >= 2.0 * uniform {
            BandwidthClass::MediumHigh
        } else if share >= 0.5 * uniform {
            BandwidthClass::MediumLow
        } else {
            BandwidthClass::Low
        }
    }
}

/// The closed-loop driver of one workload run: builds the paired traffic
/// model and probe, owns the drain condition and the cycle cap.
pub struct WorkloadDriver {
    workload: Arc<Workload>,
    state: Arc<Mutex<FlowState>>,
    config: SimConfig,
}

impl WorkloadDriver {
    /// Creates a driver for one run of `workload` under `config`. The
    /// workload is a valid DAG by construction; that it fits the topology is
    /// checked by scenario resolution
    /// ([`crate::scenario::ScenarioSpec::resolve`]), which returns a typed
    /// error instead.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the workload touches cores outside the
    /// configured topology.
    #[must_use]
    pub fn new(workload: Arc<Workload>, config: &SimConfig) -> Self {
        debug_assert!(
            workload.max_core() < config.topology.num_cores(),
            "workload '{}' touches core {}, topology has {} cores",
            workload.name(),
            workload.max_core(),
            config.topology.num_cores()
        );
        let state = Arc::new(Mutex::new(FlowState::new(&workload, config)));
        Self {
            workload,
            state,
            config: *config,
        }
    }

    /// The paced closed-loop traffic model (hand to the architecture
    /// builder).
    #[must_use]
    pub fn traffic(&self) -> Box<dyn TrafficModel + Send> {
        Box::new(FlowTraffic {
            workload: Arc::clone(&self.workload),
            state: Arc::clone(&self.state),
            demand: PairDemand::new(&self.workload, &self.config),
            topology: self.config.topology,
            shape: (
                self.config.bandwidth_set.packet_flits(),
                self.config.bandwidth_set.flit_bits(),
            ),
            capacity: self.config.injection_queue_capacity as u64,
            batch: Vec::new(),
        })
    }

    /// The flow-observing probe (attach to the engine next to the standard
    /// [`MetricsProbe`]).
    #[must_use]
    pub fn probe(&self) -> FlowProbe {
        FlowProbe {
            workload: Arc::clone(&self.workload),
            state: Arc::clone(&self.state),
        }
    }

    /// Whether every flow of the DAG has completed.
    #[must_use]
    pub fn drained(&self) -> bool {
        self.state
            .lock()
            .expect("flow state poisoned")
            .drained(self.workload.len())
    }

    /// The safety cap on closed-loop cycles: the larger of
    /// [`DRAIN_CYCLE_CAP_FACTOR`] × the open-loop measurement window and
    /// [`DRAIN_CYCLE_CAP_PACKET_FACTOR`] × the workload's total flit count
    /// (the serial-ejection lower bound of fan-in workloads).
    #[must_use]
    pub(crate) fn max_cycles(&self) -> u64 {
        let effort_cap = self
            .config
            .sim_cycles
            .saturating_mul(DRAIN_CYCLE_CAP_FACTOR);
        let packet_bits = self.config.bandwidth_set.packet_bits();
        let total_flits = self
            .workload
            .total_packets(packet_bits)
            .saturating_mul(u64::from(self.config.bandwidth_set.packet_flits()));
        effort_cap
            .max(total_flits.saturating_mul(DRAIN_CYCLE_CAP_PACKET_FACTOR))
            .max(1)
    }
}

/// The closed-loop [`TrafficModel`]: emits the next packet of the frontmost
/// released flow at each core, paced by the tracked injection-queue
/// occupancy so closed-loop traffic is never load-shed.
struct FlowTraffic {
    workload: Arc<Workload>,
    state: Arc<Mutex<FlowState>>,
    demand: PairDemand,
    topology: pnoc_noc::topology::ClusterTopology,
    shape: (u32, u32),
    capacity: u64,
    /// One cycle's packets between deciding them and emitting them (reused
    /// by every [`TrafficModel::poll_cycle`], so steady state allocates
    /// nothing).
    batch: Vec<(CoreId, PacketDescriptor)>,
}

impl FlowTraffic {
    /// The one emission step both poll forms share: `src`'s next packet at
    /// `cycle`, if a flow is released there and the pacing window admits it.
    fn generate(&self, state: &mut FlowState, cycle: u64, src: CoreId) -> Option<PacketDescriptor> {
        let flow_idx = state.generate(src.0, self.capacity)?;
        let dst = self.workload.dst(FlowId(flow_idx));
        Some(PacketDescriptor {
            src,
            dst,
            num_flits: self.shape.0,
            flit_bits: self.shape.1,
            class: self
                .demand
                .class(self.topology.cluster_of(src), self.topology.cluster_of(dst)),
            created_cycle: cycle,
        })
    }
}

impl TrafficModel for FlowTraffic {
    fn next_packet(&mut self, cycle: u64, src: CoreId) -> Option<PacketDescriptor> {
        let mut state = self.state.lock().expect("flow state poisoned");
        state.activate_due(cycle, &self.workload);
        self.generate(&mut state, cycle, src)
    }

    /// Visits only the cores with a released flow. The whole cycle is decided
    /// under one lock and emitted after releasing it, because `emit` may
    /// report a drop to the [`FlowProbe`], which takes the same lock; a drop
    /// only touches the dropping core's own state, so deciding ahead of the
    /// feedback changes nothing.
    fn poll_cycle(
        &mut self,
        cycle: u64,
        num_cores: usize,
        emit: &mut dyn FnMut(CoreId, PacketDescriptor),
    ) {
        let mut batch = std::mem::take(&mut self.batch);
        {
            let mut state = self.state.lock().expect("flow state poisoned");
            state.activate_due(cycle, &self.workload);
            for word in 0..state.ready_cores.len() {
                // Walks a copy of the word: a flow's last packet clears its
                // core's bit underneath.
                for core in set_bits(state.ready_cores[word])
                    .map(|bit| CoreId(word * 64 + bit))
                    .take_while(|core| core.0 < num_cores)
                {
                    if let Some(desc) = self.generate(&mut state, cycle, core) {
                        batch.push((core, desc));
                    }
                }
            }
        }
        for (core, desc) in batch.drain(..) {
            emit(core, desc);
        }
        self.batch = batch;
    }

    fn demand_class(&self, src: ClusterId, dst: ClusterId) -> BandwidthClass {
        self.demand.class(src, dst)
    }

    fn next_generation_cycle(&self, now: u64) -> Option<u64> {
        let state = self.state.lock().expect("flow state poisoned");
        // A released flow can emit on its very next poll.
        if state.ready_cores.iter().any(|&word| word != 0) {
            return Some(now + 1);
        }
        // Otherwise the earliest timed release bounds the next emission; the
        // engine lands exactly on `due`, so `released_at = cycle.max(due)`
        // matches a per-cycle run bitwise. With no timed flow left either,
        // only a delivery could release work — and the engine only consults
        // this answer when the network is fully drained, so nothing will
        // ever happen again (a wedged DAG fast-forwards to the cycle cap).
        state
            .timed
            .peek()
            .map(|&Reverse((due, _))| due.max(now + 1))
    }
}

/// The flow-observing [`Probe`]: closes the loop (pacing window, delivery
/// attribution, dependency release) and reports the closed-loop metrics.
pub struct FlowProbe {
    workload: Arc<Workload>,
    state: Arc<Mutex<FlowState>>,
}

impl Probe for FlowProbe {
    fn on_event(&mut self, cycle: u64, event: &SimEvent) {
        // Matched before locking: only the three packet-level events touch
        // the flow state, and the generations and flit totals must not pay
        // for the lock.
        let state = || self.state.lock().expect("flow state poisoned");
        match *event {
            SimEvent::PacketInjected { src } => {
                let mut state = state();
                state.in_queue[src.0] = state.in_queue[src.0].saturating_sub(1);
            }
            // Cannot happen under the pacing window, but if it ever does,
            // re-credit the packet so the flow still completes.
            SimEvent::PacketDropped { src } => state().requeue_dropped(src.0),
            SimEvent::PacketDelivered { src, dst, .. } => {
                state().credit_delivery((src.0, dst.0), cycle, &self.workload);
            }
            _ => {}
        }
    }

    fn report(&self) -> MetricReport {
        let state = self.state.lock().expect("flow state poisoned");
        let mut report = MetricReport::new();
        report.insert(
            "flows_total",
            MetricValue::Counter(self.workload.len() as u64),
        );
        report.insert(
            "flows_completed",
            MetricValue::Counter(state.completed as u64),
        );
        report.insert(
            "flow_bytes_total",
            MetricValue::Counter(self.workload.total_bytes()),
        );
        report.insert(
            "flow_packets_total",
            MetricValue::Counter(state.packets_total.iter().sum()),
        );
        report.insert(
            "flow_retransmitted_packets",
            MetricValue::Counter(state.retransmitted),
        );
        report.insert(
            "workload_drained",
            MetricValue::Gauge(if state.drained(self.workload.len()) {
                1.0
            } else {
                0.0
            }),
        );
        report.insert(
            "flow_completion_cycles",
            MetricValue::Histogram(state.fct.clone()),
        );
        // Whole-workload makespan: first release to last completion.
        let first_release = state.released_at.iter().flatten().min().copied();
        let last_completion = state.completed_at.iter().flatten().max().copied();
        let makespan = match (first_release, last_completion) {
            (Some(start), Some(end)) => end.saturating_sub(start) as f64,
            _ => 0.0,
        };
        report.insert("workload_makespan_cycles", MetricValue::Gauge(makespan));
        // Per-collective makespans, one gauge per label (first release of
        // the phase to its last completion).
        let mut spans: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for flow in self.workload.ids() {
            let (Some(released), Some(completed)) =
                (state.released_at[flow.0], state.completed_at[flow.0])
            else {
                continue;
            };
            let span = spans
                .entry(self.workload.collective(flow))
                .or_insert((released, completed));
            span.0 = span.0.min(released);
            span.1 = span.1.max(completed);
        }
        let members: BTreeMap<String, MetricValue> = spans
            .into_iter()
            .map(|(label, (start, end))| {
                let label = if label.is_empty() { "flows" } else { label };
                (
                    label.to_string(),
                    MetricValue::Gauge(end.saturating_sub(start) as f64),
                )
            })
            .collect();
        report.insert("collective_makespan_cycles", MetricValue::Family(members));
        report
    }
}

/// Builds the network of one closed-loop workload point, runs it to
/// DAG-drain (or the cycle cap) with the standard [`MetricsProbe`] plus the
/// [`FlowProbe`] attached, and returns the sweep point carrying both metric
/// sets merged.
///
/// The point's configuration is used with its warm-up zeroed (closed-loop
/// runs measure from cycle 0). Deterministic: depends only on the
/// architecture, the point, the workload and the fault plan (pass
/// [`FaultPlan::empty`](pnoc_faults::FaultPlan::empty) for a healthy run).
///
/// # Panics
///
/// Panics if `faults` is non-empty and the built network does not support
/// fault injection.
#[must_use]
pub(crate) fn run_workload_point(
    architecture: &dyn ArchitectureBuilder,
    params: &ResolvedParams,
    point: &SweepPointSpec,
    workload: &Arc<Workload>,
    faults: &pnoc_faults::FaultPlan,
) -> SweepPoint {
    let mut point = *point;
    point.config.warmup_cycles = 0;
    let driver = WorkloadDriver::new(Arc::clone(workload), &point.config);
    let drive = |network: &mut dyn CycleNetwork| {
        let mut metrics_probe = MetricsProbe::for_config(&point.config);
        let mut flow_probe = driver.probe();
        let stats = run_until_with(
            network,
            &mut [&mut metrics_probe, &mut flow_probe],
            |_cycle| driver.drained(),
            driver.max_cycles(),
        );
        let mut metrics = metrics_probe.report();
        metrics
            .merge(&flow_probe.report())
            .expect("flow metrics use distinct names");
        (stats, metrics)
    };
    simulate_point(
        architecture,
        params,
        &point,
        driver.traffic(),
        faults,
        drive,
    )
}

/// A live DAG's key: the factory's canonical name, the spec it was built
/// from and the placement map it was remapped with (`None`: the generators'
/// dense placement).
type DagKey = (&'static str, WorkloadSpec, Option<Vec<usize>>);

/// Every workload DAG some scenario of the process still holds, weakly.
static DAGS: Mutex<Vec<(DagKey, Weak<Workload>)>> = Mutex::new(Vec::new());

/// The DAG `factory` builds for `spec`, remapped by `placement`: the one a
/// scenario still holds when there is one, a fresh build otherwise.
///
/// Sharing is sound because [`WorkloadFactory::build`] is a pure function
/// of its spec, a catalogue name names one factory, and a placement map is
/// a pure function of architecture, params and size, so a shared DAG equals
/// a rebuilt one. The intern holds no strong reference: a DAG lives exactly
/// as long as the scenarios holding it, and dead entries are pruned on
/// insert. The lock is never held during a build, so two racing calls may
/// both build; the first to insert is the one both return, and the other
/// build is dropped.
///
/// # Errors
///
/// What [`Workload::remap_cores`] returns for an invalid `placement`.
pub(crate) fn shared_workload(
    factory: &'static WorkloadFactory,
    spec: WorkloadSpec,
    placement: Option<Vec<usize>>,
) -> Result<Arc<Workload>, WorkloadValidationError> {
    let key = (factory.name(), spec, placement);
    let held = |dags: &[(DagKey, Weak<Workload>)]| {
        dags.iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, dag)| dag.upgrade())
    };
    if let Some(dag) = held(&DAGS.lock().expect("workload intern poisoned")) {
        return Ok(dag);
    }
    let built = factory.build(&key.1);
    let dag = Arc::new(match &key.2 {
        Some(map) => built.remap_cores(map)?,
        None => built,
    });
    let mut dags = DAGS.lock().expect("workload intern poisoned");
    if let Some(first) = held(&dags) {
        return Ok(first);
    }
    dags.retain(|(k, dag)| *k != key && dag.strong_count() > 0);
    dags.push((key, Arc::downgrade(&dag)));
    Ok(dag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BandwidthSet;
    use crate::registry::UniformFabricArchitecture;
    use crate::sweep::point_spec;
    use pnoc_workload::collectives::{incast, parameter_server, ring_allreduce};

    fn smoke_config() -> SimConfig {
        let mut config = SimConfig::fast(BandwidthSet::Set1);
        config.sim_cycles = 600;
        config.warmup_cycles = 0;
        config
    }

    fn run(workload: Workload) -> SweepPoint {
        let config = smoke_config();
        run_workload_point(
            &UniformFabricArchitecture,
            &UniformFabricArchitecture.default_params(),
            &point_spec(&config, 0, 0.0),
            &Arc::new(workload),
            &pnoc_faults::FaultPlan::empty(),
        )
    }

    #[test]
    fn incast_drains_and_reports_flow_metrics() {
        let workload = incast(8, 1024);
        let flows = workload.len() as u64;
        let packets = workload.total_packets(2048);
        let point = run(workload);
        assert_eq!(point.metrics.gauge("workload_drained"), Some(1.0));
        assert_eq!(point.metrics.counter("flows_completed"), Some(flows));
        assert_eq!(point.metrics.counter("flow_packets_total"), Some(packets));
        assert_eq!(point.stats.delivered_packets, packets);
        assert_eq!(point.stats.dropped_packets, 0, "pacing must prevent drops");
        let fct = point
            .metrics
            .histogram("flow_completion_cycles")
            .expect("recorded");
        assert_eq!(fct.count(), flows);
        assert!(fct.min().unwrap() > 0);
        assert!(point.metrics.gauge("workload_makespan_cycles").unwrap() > 0.0);
    }

    #[test]
    fn ring_allreduce_serializes_its_steps() {
        let nodes = 4;
        let workload = ring_allreduce(nodes, 1024);
        let steps = 2 * (nodes as u64 - 1);
        let point = run(workload);
        assert_eq!(point.metrics.gauge("workload_drained"), Some(1.0));
        // 2(n−1) dependent steps cannot finish faster than 2(n−1) single-
        // packet delivery latencies; the makespan must reflect the chain.
        let fct = point
            .metrics
            .histogram("flow_completion_cycles")
            .expect("recorded");
        let makespan = point.metrics.gauge("workload_makespan_cycles").unwrap();
        assert!(
            makespan >= steps as f64 * fct.min().unwrap() as f64,
            "makespan {makespan} vs {steps} serialized steps of ≥{} cycles",
            fct.min().unwrap()
        );
        let spans = point
            .metrics
            .family("collective_makespan_cycles")
            .expect("present");
        assert!(spans.contains_key("reduce-scatter"));
        assert!(spans.contains_key("all-gather"));
    }

    #[test]
    fn parameter_server_barrier_orders_the_phases() {
        let point = run(parameter_server(6, 2048));
        assert_eq!(point.metrics.gauge("workload_drained"), Some(1.0));
        let spans = point
            .metrics
            .family("collective_makespan_cycles")
            .expect("present");
        let gauge = |label: &str| match spans.get(label) {
            Some(MetricValue::Gauge(v)) => *v,
            other => panic!("expected a gauge for '{label}', got {other:?}"),
        };
        assert!(gauge("push") > 0.0);
        assert!(gauge("pull") > 0.0);
    }

    #[test]
    fn closed_loop_runs_are_deterministic() {
        let a = run(ring_allreduce(4, 4096));
        let b = run(ring_allreduce(4, 4096));
        assert_eq!(a, b, "closed-loop runs must be reproducible");
    }

    #[test]
    fn timed_releases_hold_flows_back() {
        let mut dag = Workload::builder("timed");
        dag.push(CoreId(0), CoreId(5), 256);
        dag.released_at(200);
        let point = run(dag.finish().expect("valid"));
        assert_eq!(point.metrics.gauge("workload_drained"), Some(1.0));
        // The single flow could not complete before its release cycle.
        assert!(point.stats.measured_cycles > 200);
    }

    /// The drop path the pacing window keeps cold: a dropped packet goes
    /// back to its flow, the flow back to the front of its core's queue and
    /// the core back into the ready index, under either poll form.
    #[test]
    fn a_dropped_packet_is_re_credited_and_re_emitted() {
        type Poll = fn(&mut dyn TrafficModel, u64) -> Vec<PacketDescriptor>;
        let per_core: Poll = |traffic, cycle| {
            (0..64)
                .filter_map(|core| traffic.next_packet(cycle, CoreId(core)))
                .collect()
        };
        let batched: Poll = |traffic, cycle| {
            let mut packets = Vec::new();
            traffic.poll_cycle(cycle, 64, &mut |_, packet| packets.push(packet));
            packets
        };
        for poll in [per_core, batched] {
            // One-packet flows: two queued at core 0, one alone at core 3.
            let mut dag = Workload::builder("dropped");
            for (src, dst) in [(0, 5), (0, 6), (3, 7)] {
                dag.push(CoreId(src), CoreId(dst), 256);
            }
            let workload = dag.finish().expect("valid");
            let driver = WorkloadDriver::new(Arc::new(workload), &smoke_config());
            let (mut traffic, mut probe) = (driver.traffic(), driver.probe());
            let dsts = |packets: &[PacketDescriptor]| -> Vec<usize> {
                packets.iter().map(|p| p.dst.0).collect()
            };
            let deliver = |probe: &mut FlowProbe, cycle: u64, packet: &PacketDescriptor| {
                let (src, dst) = (packet.src, packet.dst);
                probe.on_event(cycle, &SimEvent::PacketInjected { src });
                let latency = 1;
                probe.on_event(cycle, &SimEvent::PacketDelivered { src, dst, latency });
            };

            // Flow 2's only packet retires it: core 3 leaves the index.
            let first = poll(&mut *traffic, 0);
            assert_eq!(dsts(&first), [5, 7]);
            {
                let state = driver.state.lock().unwrap();
                assert_eq!(state.ready[0], [1]);
                assert!(state.ready[3].is_empty());
                assert_eq!(state.ready_cores, [1 << 0]);
            }
            probe.on_event(0, &SimEvent::PacketDropped { src: CoreId(3) });
            {
                let state = driver.state.lock().unwrap();
                assert_eq!(state.ready[3], [2], "flow 2 owes its packet again");
                assert_eq!(state.ready_cores, [1 << 0 | 1 << 3], "core 3 is back");
                assert_eq!((state.in_queue[3], state.packets_generated[2]), (0, 0));
            }
            assert_eq!(
                probe.report().counter("flow_retransmitted_packets"),
                Some(1)
            );
            // Flow 0 retired ahead of flow 1: dropped, it goes back in front.
            probe.on_event(0, &SimEvent::PacketDropped { src: CoreId(0) });
            assert_eq!(driver.state.lock().unwrap().ready[0], [0, 1]);

            let second = poll(&mut *traffic, 1);
            assert_eq!(dsts(&second), [5, 7], "both packets are emitted again");
            deliver(&mut probe, 1, &second[0]);
            deliver(&mut probe, 1, &second[1]);
            let third = poll(&mut *traffic, 2);
            assert_eq!(dsts(&third), [6]);
            deliver(&mut probe, 2, &third[0]);
            assert!(poll(&mut *traffic, 3).is_empty());
            assert!(driver.drained(), "every flow completes despite the drops");
            let report = probe.report();
            assert_eq!(report.counter("flow_retransmitted_packets"), Some(2));
            assert_eq!(report.counter("flows_completed"), Some(3));
            assert_eq!(driver.state.lock().unwrap().ready_cores, [0]);
        }
    }

    /// The range check is a debug assertion: release builds rely on
    /// scenario resolution's typed error.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "touches core")]
    fn oversized_workloads_are_rejected() {
        let config = smoke_config();
        let _ = WorkloadDriver::new(Arc::new(incast(65, 64)), &config);
    }
}
