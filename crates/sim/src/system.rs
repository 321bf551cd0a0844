//! The full cluster system: cores, electrical core switches, photonic routers
//! and reservation-assisted photonic transfers.
//!
//! [`PhotonicSystem`] implements the hybrid, hierarchical organisation shared
//! by the Firefly baseline and d-HetPNoC (Section 3.1):
//!
//! * every core has an injection queue and a 5-port electrical core switch,
//! * the four switches of a cluster are connected all-to-all and to the
//!   cluster's photonic router,
//! * the photonic router buffers outgoing flits per source switch, transmits
//!   packets over the photonic crossbar after broadcasting a reservation, and
//!   buffers incoming flits per destination switch (ejection),
//! * a [`PhotonicFabric`] table says how many wavelengths each cluster's
//!   channel holds and each transmission may use, and how long its
//!   reservation takes — this is the only place where Firefly and
//!   d-HetPNoC differ: Firefly and `uniform-fabric` build a channel table,
//!   d-HetPNoC a class table,
//! * the system owns the fault state: it applies each scheduled transition
//!   to its [`FaultSurface`], refuses new transfers over a failed link, pins
//!   transfers touching a stuck ring to one wavelength, and has the fabric
//!   refill its pools on a `laser-dim` transition
//!   ([`PhotonicFabric::laser_changed`]).
//!
//! The simulation is flit-level and cycle-accurate: electrical routers follow
//! the three-stage pipeline of `pnoc-noc`, photonic transfers accumulate
//! wavelength·cycle credit (5 bits per wavelength per cycle with the paper's
//! clock and line rate), and energy is accounted per bit with the
//! coefficients of Table 3-5.

use crate::config::{BandwidthSet, SimConfig};
use crate::engine::CycleNetwork;
use crate::metrics::{DeliveryTally, EventSink, MetricReport, SimEvent};
use pnoc_faults::{FaultAction, FaultController, FaultKind, FaultSurface};
use pnoc_noc::arbiter::RoundRobinArbiter;
use pnoc_noc::flit::Flit;
use pnoc_noc::ids::{ClusterId, CoreId, PacketId, PacketIdAllocator, PortId, RouterId, VcId};
use pnoc_noc::packet::{Packet, PacketFramer};
use pnoc_noc::router::ElectricalRouter;
use pnoc_noc::routing::ClusterRoutingTable;
use pnoc_noc::topology::ClusterTopology;
use pnoc_noc::traffic_model::TrafficModel;
use pnoc_noc::vc::{set_bits, VcSet};
use pnoc_photonics::energy::{EnergyAccumulator, EnergyBreakdown, PhotonicEnergyModel};
use pnoc_traffic::demand::DemandMatrix;
use std::collections::VecDeque;

/// The photonic fabric, the one place where Firefly and d-HetPNoC differ
/// (Section 3.1): a table the system reads when a cluster starts an
/// inter-cluster transfer. It holds every cluster's wavelength pool, a rule
/// for how many of them one transfer drives, the reservation cycles, and,
/// for d-HetPNoC, the [`Allocation`] that sized the pools. No cycle changes
/// the table; only a `laser-dim` transition does, through
/// [`PhotonicFabric::laser_changed`].
#[derive(Debug, Clone, PartialEq)]
pub struct PhotonicFabric {
    pools: Vec<usize>,
    width: WidthRule,
    reservation_cycles: u64,
    allocation: Option<Allocation>,
}

/// What d-HetPNoC's pools are refilled from (Section 3.2.1): every
/// cluster's healthy target, already clamped to `[reserve, cap]`, and the
/// wavelengths the clusters share. Each cluster holds `reserve` for good;
/// the other `budget` go to whichever clusters the [`refill`] gives them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// Every cluster's healthy target, by cluster index.
    pub targets: Vec<usize>,
    /// Wavelengths the clusters share on top of their reserves (`N_TW` of
    /// eq. 1).
    pub budget: usize,
    /// Wavelengths every cluster holds permanently.
    pub reserve: usize,
    /// The widest pool a cluster may hold.
    pub cap: usize,
}

/// The pools the token protocol leaves once `targets` are installed over
/// `prev_pools`: clusters are visited in index order, rotation after
/// rotation, until a rotation changes nothing. A visit to a cluster above
/// its target releases its whole excess; a visit to a cluster below its
/// target takes one wavelength, while any of the `budget` is free. Each
/// cluster holds `reserve` of its own, so the free wavelengths are
/// `reserve × clusters + budget − Σ prev_pools`.
///
/// This is `DbaController::converge`'s loop on counts, which is all a run
/// reads. From the reserve it is a water fill of the budget; from other
/// pools the result depends on them, because a visit releases only its own
/// cluster's excess.
///
/// `cap + 1` rotations always suffice, with every pool in `[reserve, cap]`
/// and every target in `[reserve, cap]`, `reserve ≥ 1`. Rotation 1 releases
/// every excess, and targets do not change inside the loop. From then on no
/// cluster is above its target and nothing returns to the budget, so every
/// rotation gives each short cluster one wavelength until it reaches its
/// target or the budget runs dry (after which no visit changes anything). A
/// short cluster holds at least the reserve of 1 and aims for at most
/// `cap`, so rotations 2 to `cap` fill every deficit the budget allows, and
/// rotation `cap + 1` finds nothing to change.
///
/// Debug builds check the result: every pool in `[reserve, cap]`, and
/// `Σ pools ≤ reserve × clusters + budget`, the count form of "a wavelength
/// is never allocated to two clusters".
#[must_use]
pub fn refill(
    prev_pools: &[usize],
    targets: &[usize],
    budget: usize,
    reserve: usize,
    cap: usize,
) -> Vec<usize> {
    debug_assert_eq!(prev_pools.len(), targets.len());
    let mut pools = prev_pools.to_vec();
    let mut free = reserve * pools.len() + budget - pools.iter().sum::<usize>();
    let mut changed = true;
    while changed {
        changed = false;
        for (pool, &target) in pools.iter_mut().zip(targets) {
            if *pool > target {
                free += *pool - target;
                *pool = target;
                changed = true;
            } else if *pool < target && free > 0 {
                *pool += 1;
                free -= 1;
                changed = true;
            }
        }
    }
    debug_assert!(
        pools.iter().all(|pool| (reserve..=cap).contains(pool))
            && pools.iter().sum::<usize>() <= reserve * pools.len() + budget,
        "pools {pools:?} break the reserve {reserve}, the cap {cap} or the budget {budget}"
    );
    pools
}

/// How many of its pool's wavelengths one transfer drives.
#[derive(Debug, Clone, PartialEq)]
enum WidthRule {
    /// The whole pool. Class-blind, it cannot steer transfers away from
    /// damaged wavelengths, so the worst fault divisor derates it.
    Channel,
    /// The width `set` gives the pair's class in `demand`, derated by that
    /// class's divisor only, and never more than the pool.
    Class {
        demand: DemandMatrix,
        set: BandwidthSet,
    },
}

impl PhotonicFabric {
    /// Firefly's channel table: every cluster owns `wavelengths_per_channel`
    /// wavelengths (never zero) and every transfer drives all of them —
    /// "all the modulators and demodulators are on for any communication"
    /// (Sections 2.2.1 and 3.3.1).
    #[must_use]
    pub fn channel(
        config: &SimConfig,
        wavelengths_per_channel: usize,
        reservation_cycles: u64,
    ) -> Self {
        Self {
            pools: vec![wavelengths_per_channel; config.topology.num_clusters()],
            width: WidthRule::Channel,
            reservation_cycles,
            allocation: None,
        }
    }

    /// d-HetPNoC's class table: demand-sized `pools`, refilled from
    /// `allocation` on a `laser-dim` transition, and every transfer as wide
    /// as its flow's application class.
    #[must_use]
    pub fn class(
        pools: Vec<usize>,
        demand: DemandMatrix,
        set: BandwidthSet,
        reservation_cycles: u64,
        allocation: Allocation,
    ) -> Self {
        Self {
            pools,
            width: WidthRule::Class { demand, set },
            reservation_cycles,
            allocation: Some(allocation),
        }
    }

    /// Refills a class table's pools after a `laser-dim` transition (an
    /// apply or a repair) has left `faults`: the healthy targets, each
    /// divided by the laser divisor (at least 1, then clamped to
    /// `[reserve, cap]`), refilled from the current pools. Under `paper-max`
    /// a repair can therefore leave other pools than the healthy ones (see
    /// [`refill`]). A channel table keeps its pools.
    pub fn laser_changed(&mut self, faults: &FaultSurface) {
        let Some(Allocation {
            targets,
            budget,
            reserve,
            cap,
        }) = &self.allocation
        else {
            return;
        };
        let laser = faults.laser_divisor() as usize;
        let derated: Vec<usize> = targets
            .iter()
            .map(|&target| (target / laser).max(1).clamp(*reserve, *cap))
            .collect();
        self.pools = refill(&self.pools, &derated, *budget, *reserve, *cap);
    }

    /// The inputs a `laser-dim` transition refills the pools from; `None`
    /// for a channel table.
    #[must_use]
    pub fn allocation(&self) -> Option<&Allocation> {
        self.allocation.as_ref()
    }

    /// The identity of the table, for
    /// [`ArchitectureBuilder::network_id`](crate::registry::ArchitectureBuilder::network_id):
    /// its pools, its widths on a healthy [`FaultSurface`] and its
    /// reservation cycles. A table whose pools are equal and whose every
    /// inter-cluster transfer drives the whole pool renders as a channel
    /// table, `channel(wavelengths_per_channel=…,reservation_cycles=…)`,
    /// whichever width rule it holds. Any other renders
    /// `class(pools=[…],widths=[…],reservation_cycles=…)`, the widths
    /// row-major over the (src, dst ≠ src) pairs.
    ///
    /// A channel table's id names its network under any fault plan. A class
    /// table's names it on a healthy run and under plans of only
    /// `link-fail` and `ring-stuck` events, which derate no width and move
    /// no pool. The id holds neither the [`Allocation`] a `laser-dim`
    /// transition refills from nor the per-class derating of a
    /// `wavelength-degrade`, so under those equal ids can diverge.
    #[must_use]
    pub fn network_id(&self) -> String {
        let clusters = self.pools.len();
        let healthy = FaultSurface::new(clusters);
        let widths: Vec<usize> = (0..clusters)
            .flat_map(|src| (0..clusters).map(move |dst| (src, dst)))
            .filter(|(src, dst)| src != dst)
            .map(|(src, dst)| self.wavelengths_for(ClusterId(src), ClusterId(dst), &healthy))
            .collect();
        let pool = self.pools[0];
        if self.pools.iter().chain(&widths).all(|&w| w == pool) {
            return format!(
                "channel(wavelengths_per_channel={pool},reservation_cycles={})",
                self.reservation_cycles
            );
        }
        let list = |values: &[usize]| {
            values
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "class(pools=[{}],widths=[{}],reservation_cycles={})",
            list(&self.pools),
            list(&widths),
            self.reservation_cycles
        )
    }

    /// Every cluster's pool, by cluster index.
    #[must_use]
    pub fn pools(&self) -> &[usize] {
        &self.pools
    }

    /// The wavelengths cluster `src` may drive concurrently.
    #[inline]
    #[must_use]
    pub fn pool_size(&self, src: ClusterId) -> usize {
        self.pools[src.0]
    }

    /// The wavelengths one `src` → `dst` transfer drives under the derating
    /// of `faults`, before the free part of the pool limits it.
    #[inline]
    #[must_use]
    pub fn wavelengths_for(&self, src: ClusterId, dst: ClusterId, faults: &FaultSurface) -> usize {
        let pool = self.pools[src.0];
        match &self.width {
            WidthRule::Channel => (pool / faults.max_divisor() as usize).max(1),
            WidthRule::Class { demand, set } => {
                let class = demand.class(src, dst);
                let derated =
                    (set.class_wavelengths(class) / faults.class_divisor(class) as usize).max(1);
                derated.min(pool).max(1)
            }
        }
    }

    /// Cycles of a packet's reservation broadcast (1 for Firefly; 1–2 for
    /// d-HetPNoC, by the wavelength identifiers it carries, Section 3.4.1.1).
    #[inline]
    #[must_use]
    pub fn reservation_cycles(&self) -> u64 {
        self.reservation_cycles
    }
}

/// An in-flight photonic packet transfer.
///
/// A transmission goes through two phases: the *reservation* phase (the
/// reservation flit travels on the dedicated reservation channel, overlapping
/// with other transmissions' data phases) and the *data* phase, during which
/// the transmission occupies `wavelengths` wavelengths of the source's write
/// channel. Wavelengths are assigned when the data phase starts: at least the
/// application's demanded wavelengths (bounded by what is free), plus any
/// idle wavelengths of the pool that no other pending transfer is asking for
/// (work-conserving use of the allocated channel).
#[derive(Debug, Clone)]
struct Transmission {
    packet: PacketId,
    src_port: usize,
    src_vc: VcId,
    dst_cluster: ClusterId,
    dst_local: usize,
    dst_vc: VcId,
    /// Wavelengths demanded by the application class of this flow.
    demand: usize,
    /// Wavelengths actually driving the data phase (0 until it starts).
    wavelengths: usize,
    data_started: bool,
    reservation_remaining: u64,
    credit_bits: f64,
    flits_sent: u32,
    flits_total: u32,
}

/// Per-cluster photonic router state.
struct PhotonicRouter {
    /// Input buffers, one port per local core switch.
    inputs: Vec<VcSet>,
    /// Ejection buffers, one port per local core switch.
    ejection: Vec<VcSet>,
    /// Per ejection port, the mask of VCs reserved by a packet in flight
    /// (from its reservation until its tail flit drains).
    ejection_reserved: Vec<u64>,
    /// Per input port, the mask of VCs feeding an active transmission.
    active_sources: Vec<u64>,
    /// Round-robin over ejection VCs, one arbiter per ejection port.
    ejection_rr: Vec<RoundRobinArbiter>,
    /// Round-robin over input ports for starting transmissions.
    start_rr: RoundRobinArbiter,
    /// Set while the start phase sleeps (see `start_transmissions`).
    start_sleep: Option<StartSleep>,
    /// Active outgoing transmissions.
    active: Vec<Transmission>,
    /// Wavelengths held by transmissions in their data phase.
    in_use: usize,
    /// Wavelengths demanded by transmissions not yet in their data phase.
    pending: usize,
    /// One bit per `active` index, set while that transmission waits for
    /// wavelengths: reservation done, data phase not started. A transmission
    /// holds one source VC, so `ports × vcs` bits bound the set.
    waiting: Vec<u64>,
}

/// A start phase asleep since the attempt at cycle `since`, in which every
/// port of `requests` held a head that could not start.
#[derive(Debug, Clone)]
struct StartSleep {
    since: u64,
    requests: u64,
    /// Debug builds grant `requests` on this copy of the arbiter in every
    /// slept cycle, and check that the replay on waking lands on it.
    #[cfg(debug_assertions)]
    stepped: RoundRobinArbiter,
}

impl PhotonicRouter {
    fn new(ports: usize, vcs: usize, depth: usize) -> Self {
        Self {
            inputs: (0..ports).map(|_| VcSet::new(vcs, depth)).collect(),
            ejection: (0..ports).map(|_| VcSet::new(vcs, depth)).collect(),
            ejection_reserved: vec![0; ports],
            active_sources: vec![0; ports],
            ejection_rr: (0..ports).map(|_| RoundRobinArbiter::new(vcs)).collect(),
            start_rr: RoundRobinArbiter::new(ports),
            start_sleep: None,
            active: Vec::new(),
            in_use: 0,
            pending: 0,
            waiting: vec![0; (ports * vcs).div_ceil(64)],
        }
    }

    /// Ground truth behind `in_use`: the wavelengths of every transmission in
    /// its data phase. Reservation broadcasts travel on the separate
    /// reservation channel and do not hold data wavelengths.
    fn wavelengths_in_use(&self) -> usize {
        self.active
            .iter()
            .filter(|t| t.data_started)
            .map(|t| t.wavelengths)
            .sum()
    }

    /// Ground truth behind `pending`: the demand of every transmission that
    /// has not started its data phase.
    fn pending_demand(&self) -> usize {
        self.active
            .iter()
            .filter(|t| !t.data_started)
            .map(|t| t.demand)
            .sum()
    }

    /// Whether transmission `idx` is in the waiting set.
    fn is_waiting(&self, idx: usize) -> bool {
        self.waiting[idx / 64] >> (idx % 64) & 1 == 1
    }

    /// Removes finished transmission `idx` as `swap_remove` does: its
    /// wavelengths go back to the pool, its source VC is free, and the last
    /// transmission moves into `idx` with its waiting bit.
    fn remove_finished(&mut self, idx: usize) {
        let tx = self.active.swap_remove(idx);
        self.in_use -= tx.wavelengths;
        self.active_sources[tx.src_port] &= !(1 << tx.src_vc.0);
        let last = self.active.len();
        if self.is_waiting(last) {
            self.waiting[last / 64] &= !(1 << (last % 64));
            self.waiting[idx / 64] |= 1 << (idx % 64);
        }
    }

    /// The ports holding a head flit that may start a transmission.
    fn start_requests(&self) -> u64 {
        (0..self.inputs.len())
            .filter(|&p| self.startable_heads(p).next().is_some())
            .fold(0u64, |mask, p| mask | 1 << p)
    }

    /// Wakes a sleeping start phase before the attempt at `cycle`. Each
    /// cycle it slept through would have granted the same requests and
    /// failed, so the round-robin pointer replays those grants.
    fn wake_starts(&mut self, cycle: u64) {
        if let Some(sleep) = self.start_sleep.take() {
            self.start_rr
                .replay_grants(sleep.requests, cycle - sleep.since - 1);
            #[cfg(debug_assertions)]
            debug_assert_eq!(
                self.start_rr, sleep.stepped,
                "start pointer replay diverged at cycle {cycle}"
            );
        }
    }

    /// The head flits on `port` that may start a transmission, lowest VC
    /// first: the head of line of every occupied VC not already feeding one.
    fn startable_heads(&self, port: usize) -> impl Iterator<Item = (VcId, Flit)> + '_ {
        let set = &self.inputs[port];
        set_bits(set.nonempty_mask() & !self.active_sources[port]).filter_map(move |v| {
            let buffer = set.occupied(VcId(v));
            let (flit, _) = buffer.front().expect("non-empty mask bit");
            flit.is_head().then_some((VcId(v), *flit))
        })
    }

    /// The lowest ejection VC on `port` that is empty and unreserved.
    fn free_ejection_vc(&self, port: usize) -> Option<VcId> {
        let set = &self.ejection[port];
        let free = !(self.ejection_reserved[port] | set.nonempty_mask());
        let vc = free.trailing_zeros() as usize;
        (vc < set.num_vcs()).then_some(VcId(vc))
    }
}

/// Per-core injection state.
struct CoreState {
    queue: VecDeque<Packet>,
    injecting: Option<InjectionProgress>,
}

/// A packet part-way through injection: its flits are materialised one per
/// cycle ([`PacketFramer::flit_at`]), never as a whole sequence.
struct InjectionProgress {
    packet: Packet,
    vc: VcId,
    next: u32,
}

/// Sets bit `i` of the bitset `words` (the wake set, or a set of busy cores
/// or clusters).
#[inline]
fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

/// Clears bit `i` of the bitset `words`.
#[inline]
fn clear_bit(words: &mut [u64], i: usize) {
    words[i / 64] &= !(1 << (i % 64));
}

/// A walk over the set bits of a bitset, lowest first. Each word is read
/// when the walk reaches it; no phase sets a bit of the set it walks, so the
/// walk visits what a scan of every index would, in the same order.
struct BitWalk {
    word: usize,
    bits: u64,
}

impl BitWalk {
    #[inline]
    fn new(words: &[u64]) -> Self {
        Self {
            word: 0,
            bits: words.first().copied().unwrap_or(0),
        }
    }

    /// The next set bit of `words`, the bitset the walk was started on.
    #[inline]
    fn next(&mut self, words: &[u64]) -> Option<usize> {
        while self.bits == 0 {
            self.word += 1;
            self.bits = *words.get(self.word)?;
        }
        let bit = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.word * 64 + bit)
    }
}

/// The flits one step moved: the four sums of its [`SimEvent::Flits`].
#[derive(Default)]
struct StepFlits {
    injected: u32,
    delivered: u32,
    delivered_bits: u64,
    photonic_bits: u64,
}

/// The complete simulated chip.
pub struct PhotonicSystem {
    config: SimConfig,
    topology: ClusterTopology,
    fabric: PhotonicFabric,
    traffic: Box<dyn TrafficModel + Send>,
    ids: PacketIdAllocator,
    switches: Vec<ElectricalRouter>,
    photonic: Vec<PhotonicRouter>,
    cores: Vec<CoreState>,
    energy: EnergyAccumulator,
    /// Flits buffered in each electrical core switch (incremental mirror of
    /// [`ElectricalRouter::buffered_flits`], kept for O(1) idle detection).
    switch_occ: Vec<u32>,
    /// The wake set, one bit per core switch: clear while the switch is
    /// empty, or its last arbitration returned `false` and nothing it reads
    /// has changed since, so arbitrating it again would be a no-op (see
    /// `step_switches`).
    awake: Vec<u64>,
    /// Switches whose arbitration returned `true` this cycle, ascending.
    granting: Vec<usize>,
    /// Flits buffered in each cluster's photonic input buffers.
    cluster_in_occ: Vec<u32>,
    /// Flits buffered in each cluster's ejection buffers.
    cluster_ej_occ: Vec<u32>,
    /// The bitsets the per-cycle phases walk instead of every core or
    /// cluster, each bit set where its counter leaves zero and cleared where
    /// it returns to zero: cores with a queued or part-injected packet
    /// (`inject_flits`), and clusters with an active transmission
    /// (`advance_transmissions`), with ejection flits (`drain_ejection`) and
    /// with input flits (`start_transmissions`).
    busy_set: Vec<u64>,
    active_set: Vec<u64>,
    ejection_set: Vec<u64>,
    input_set: Vec<u64>,
    /// Running totals behind the O(1) [`Self::is_quiescent`] and
    /// [`Self::buffered_flits`]: flits buffered anywhere, in-flight photonic
    /// transmissions, and cores with a queued or part-injected packet.
    total_buffered: usize,
    total_active: usize,
    busy_cores: usize,
    /// Reusable finished-transmission index list.
    scratch_finished: Vec<usize>,
    /// The flits the current step moved, emitted as one total when it ends.
    step_flits: StepFlits,
    /// Where the flits delivered since measurement began went.
    tally: DeliveryTally,
    /// Deterministic fault schedule, when one was installed.
    faults: Option<FaultController>,
    /// The data-plane fault state the schedule's transitions have built up
    /// (healthy until the first one lands).
    fault_surface: FaultSurface,
}

impl PhotonicSystem {
    /// Builds the system.
    ///
    /// # Panics
    ///
    /// Panics if the configured VC depth cannot hold a full packet (the
    /// reservation protocol pre-allocates one ejection VC per packet).
    pub fn new(
        config: SimConfig,
        fabric: PhotonicFabric,
        traffic: Box<dyn TrafficModel + Send>,
    ) -> Self {
        assert!(
            config.vc_depth as u32 >= config.bandwidth_set.packet_flits(),
            "VC depth ({}) must hold a full packet ({} flits)",
            config.vc_depth,
            config.bandwidth_set.packet_flits()
        );
        let topology = config.topology;
        let spec = config.core_switch_spec();
        let mut switches = Vec::with_capacity(topology.num_cores());
        for core in topology.cores() {
            let mut router = ElectricalRouter::new(RouterId(core.0), spec);
            router.set_routing_table(ClusterRoutingTable::new(topology, core));
            switches.push(router);
        }
        let photonic = (0..topology.num_clusters())
            .map(|_| {
                PhotonicRouter::new(
                    topology.cores_per_cluster(),
                    config.vcs_per_port,
                    config.vc_depth,
                )
            })
            .collect();
        let cores = (0..topology.num_cores())
            .map(|_| CoreState {
                queue: VecDeque::new(),
                injecting: None,
            })
            .collect();
        let num_cores = topology.num_cores();
        let num_clusters = topology.num_clusters();
        Self {
            config,
            topology,
            fabric,
            traffic,
            ids: PacketIdAllocator::new(),
            switches,
            photonic,
            cores,
            energy: EnergyAccumulator::new(PhotonicEnergyModel::paper_default()),
            switch_occ: vec![0; num_cores],
            awake: vec![0; num_cores.div_ceil(64)],
            granting: Vec::with_capacity(num_cores),
            cluster_in_occ: vec![0; num_clusters],
            cluster_ej_occ: vec![0; num_clusters],
            busy_set: vec![0; num_cores.div_ceil(64)],
            active_set: vec![0; num_clusters.div_ceil(64)],
            ejection_set: vec![0; num_clusters.div_ceil(64)],
            input_set: vec![0; num_clusters.div_ceil(64)],
            total_buffered: 0,
            total_active: 0,
            busy_cores: 0,
            scratch_finished: Vec::new(),
            step_flits: StepFlits::default(),
            tally: DeliveryTally::new(num_cores, num_clusters),
            faults: None,
            fault_surface: FaultSurface::new(num_clusters),
        }
    }

    /// Immutable access to the fabric (used by tests and examples to
    /// inspect allocations).
    pub fn fabric(&self) -> &PhotonicFabric {
        &self.fabric
    }

    /// Total flits currently buffered anywhere in the network.
    ///
    /// Answered from an incrementally maintained running total (debug builds
    /// cross-check every counter and occupancy mask against a full buffer
    /// scan), so closed-loop drain checks can call this every cycle without
    /// walking every VC.
    #[must_use]
    pub fn buffered_flits(&self) -> usize {
        debug_assert!(
            self.counters_match_buffers(),
            "occupancy counters or masks diverged from buffer contents"
        );
        self.total_buffered
    }

    /// Ground truth behind the incremental state: recomputes the per-switch
    /// and per-cluster occupancies, the three running totals, the busy-core
    /// and three cluster bitsets, every `VcSet`'s masks, the active-source
    /// masks and each photonic router's wavelength counters and waiting set
    /// from the cores, buffers and transmissions themselves.
    fn counters_match_buffers(&self) -> bool {
        let occupancy = |sets: &[VcSet]| sets.iter().map(VcSet::total_occupancy).sum::<usize>();
        let switches_ok = self.switches.iter().zip(&self.switch_occ).all(|(s, &occ)| {
            s.buffered_flits() == occ as usize
                && (0..s.num_ports()).all(|p| s.input(PortId(p)).is_ok_and(VcSet::masks_consistent))
        });
        let clusters_ok = self.photonic.iter().enumerate().all(|(c, r)| {
            let sources = r
                .active
                .iter()
                .fold(vec![0u64; r.inputs.len()], |mut m, t| {
                    m[t.src_port] |= 1 << t.src_vc.0;
                    m
                });
            let waiting_ok = (0..r.waiting.len() * 64).all(|i| {
                r.is_waiting(i)
                    == r.active
                        .get(i)
                        .is_some_and(|t| t.reservation_remaining == 0 && !t.data_started)
            });
            occupancy(&r.inputs) == self.cluster_in_occ[c] as usize
                && occupancy(&r.ejection) == self.cluster_ej_occ[c] as usize
                && r.in_use == r.wavelengths_in_use()
                && r.pending == r.pending_demand()
                && waiting_ok
                && r.inputs
                    .iter()
                    .chain(&r.ejection)
                    .all(VcSet::masks_consistent)
                && r.active_sources == sources
        });
        let buffered = self
            .switch_occ
            .iter()
            .chain(&self.cluster_in_occ)
            .chain(&self.cluster_ej_occ)
            .map(|&o| o as usize)
            .sum::<usize>();
        let active = self.photonic.iter().map(|r| r.active.len()).sum::<usize>();
        let is_busy = |c: &CoreState| c.injecting.is_some() || !c.queue.is_empty();
        let busy = self.cores.iter().filter(|c| is_busy(c)).count();
        let bitset = |members: &mut dyn Iterator<Item = bool>| {
            let mut words = Vec::new();
            for (i, member) in members.enumerate() {
                if i % 64 == 0 {
                    words.push(0);
                }
                if member {
                    set_bit(&mut words, i);
                }
            }
            words
        };
        let holds_flits = |sets: &[VcSet]| sets.iter().any(|set| !set.is_idle());
        let sets_ok = self.busy_set == bitset(&mut self.cores.iter().map(is_busy))
            && self.active_set == bitset(&mut self.photonic.iter().map(|r| !r.active.is_empty()))
            && self.ejection_set
                == bitset(&mut self.photonic.iter().map(|r| holds_flits(&r.ejection)))
            && self.input_set == bitset(&mut self.photonic.iter().map(|r| holds_flits(&r.inputs)));
        switches_ok
            && clusters_ok
            && sets_ok
            && self.total_buffered == buffered
            && self.total_active == active
            && self.busy_cores == busy
    }

    /// Whether stepping the network (absent new traffic) would be a no-op:
    /// nothing buffered, no core mid-injection or with queued packets, and no
    /// in-flight photonic transmission.
    fn is_quiescent(&self) -> bool {
        self.total_buffered == 0 && self.total_active == 0 && self.busy_cores == 0
    }

    fn generate_traffic(&mut self, cycle: u64, sink: &mut dyn EventSink) {
        let num_cores = self.topology.num_cores();
        self.traffic
            .poll_cycle(cycle, num_cores, &mut |core, desc| {
                sink.emit(cycle, SimEvent::PacketGenerated { src: core });
                let state = &mut self.cores[core.0];
                if state.queue.len() >= self.config.injection_queue_capacity {
                    sink.emit(cycle, SimEvent::PacketDropped { src: core });
                    return;
                }
                let packet = Packet {
                    id: self.ids.allocate(),
                    descriptor: desc,
                    injected_cycle: 0,
                };
                if state.injecting.is_none() && state.queue.is_empty() {
                    self.busy_cores += 1;
                    set_bit(&mut self.busy_set, core.0);
                }
                state.queue.push_back(packet);
            });
    }

    fn inject_flits(&mut self, cycle: u64, sink: &mut dyn EventSink) {
        let local_port = self.topology.local_port();
        // Only busy cores are visited: an idle core (nothing queued, nothing
        // mid-injection) cannot make progress this cycle.
        let mut walk = BitWalk::new(&self.busy_set);
        while let Some(core_idx) = walk.next(&self.busy_set) {
            // Start a new packet if the previous one finished injecting.
            if self.cores[core_idx].injecting.is_none() {
                let Some(vc) = self.switches[core_idx].free_input_vc(local_port) else {
                    continue;
                };
                let Some(mut packet) = self.cores[core_idx].queue.pop_front() else {
                    continue;
                };
                packet.injected_cycle = cycle;
                sink.emit(
                    cycle,
                    SimEvent::PacketInjected {
                        src: CoreId(core_idx),
                    },
                );
                self.cores[core_idx].injecting = Some(InjectionProgress {
                    packet,
                    vc,
                    next: 0,
                });
            }
            // Push at most one flit of the in-progress packet per cycle.
            let state = &mut self.cores[core_idx];
            let Some(progress) = state.injecting.as_mut() else {
                continue;
            };
            if !self.switches[core_idx].can_accept(local_port, progress.vc) {
                continue;
            }
            let flit = PacketFramer::flit_at(&progress.packet, progress.vc, progress.next);
            self.switches[core_idx]
                .accept(local_port, flit.vc, flit, cycle)
                .expect("capacity checked");
            set_bit(&mut self.awake, core_idx);
            self.switch_occ[core_idx] += 1;
            self.total_buffered += 1;
            self.energy.record_buffer_write(u64::from(flit.bits));
            self.step_flits.injected += 1;
            progress.next += 1;
            if flit.is_tail() {
                state.injecting = None;
                if state.queue.is_empty() {
                    self.busy_cores -= 1;
                    clear_bit(&mut self.busy_set, core_idx);
                }
            }
        }
    }

    fn step_switches(&mut self, cycle: u64, sink: &mut dyn EventSink) {
        let topology = self.topology;
        let cpc = topology.cores_per_cluster();
        let local_port = topology.local_port();
        let photonic_port = topology.photonic_port();

        // Phase 1: every awake switch holding a flit arbitrates against the
        // live downstream full masks. Arbitration moves no flit, so every
        // switch sees the masks as they stood at the start of the cycle;
        // every input port has exactly one upstream and a switch sends at
        // most one flit per output per cycle, so a VC that is not full now
        // still has room when this cycle's grant lands.
        //
        // A switch sleeps (its wake bit clears) when it is empty or its
        // arbitration returns `false`: then arbitrating it again is a no-op
        // until its buffers or a downstream full mask change. Buffers change
        // only by `accept` (inject, ejection drain, a peer's grant landing)
        // and a downstream full bit clears only by a pop from that input
        // (a peer's phase 2, `advance_transmissions`); each of those sets
        // the bit. A push only sets full bits, so it wakes no upstream. Debug
        // builds check the rule: every occupied sleeping switch must still be
        // blocked.
        #[cfg(debug_assertions)]
        for core_idx in 0..topology.num_cores() {
            if self.switch_occ[core_idx] != 0
                && self.awake[core_idx / 64] >> (core_idx % 64) & 1 == 0
            {
                let live = self.arbitrate_switch(core_idx, cycle);
                debug_assert!(
                    !live,
                    "switch {core_idx} slept through a change at cycle {cycle}"
                );
            }
        }
        self.granting.clear();
        for word in 0..self.awake.len() {
            for bit in set_bits(self.awake[word]) {
                let core_idx = word * 64 + bit;
                if self.switch_occ[core_idx] != 0 && self.arbitrate_switch(core_idx, cycle) {
                    self.granting.push(core_idx);
                } else {
                    self.awake[word] &= !(1 << bit);
                }
            }
        }

        // Phase 2: land every granted flit downstream, switch by switch in
        // output order. Only a switch whose arbitration returned `true` can
        // hold a grant.
        for &core_idx in &self.granting {
            let core = CoreId(core_idx);
            let cluster = topology.cluster_of(core);
            let local = topology.local_index(core);
            while let Some(grant) = self.switches[core_idx].next_grant() {
                let flit = grant.flit;
                if grant.input != local_port && grant.input != photonic_port {
                    // The feeding peer's full mask for this port may clear.
                    let upstream = cluster.core(topology.peer_of_port(local, grant.input), cpc);
                    set_bit(&mut self.awake, upstream.0);
                }
                self.switch_occ[core_idx] -= 1;
                self.energy.record_router_traversal(u64::from(flit.bits));
                if grant.output == local_port {
                    debug_assert_eq!(flit.dst, core, "flit ejected at the wrong core");
                    self.total_buffered -= 1;
                    let bits = u64::from(flit.bits);
                    let step = &mut self.step_flits;
                    step.delivered += 1;
                    step.delivered_bits += bits;
                    self.tally.deliver(core, bits);
                    let src_cluster = topology.cluster_of(flit.src);
                    if src_cluster != cluster {
                        step.photonic_bits += bits;
                        self.tally.cross(src_cluster, cluster, bits);
                    }
                    if flit.is_tail() {
                        let latency = cycle.saturating_sub(flit.created_cycle);
                        sink.emit(
                            cycle,
                            SimEvent::PacketDelivered {
                                src: flit.src,
                                dst: flit.dst,
                                latency,
                            },
                        );
                    }
                } else if grant.output == photonic_port {
                    self.energy.record_buffer_write(u64::from(flit.bits));
                    if self.cluster_in_occ[cluster.0] == 0 {
                        set_bit(&mut self.input_set, cluster.0);
                    }
                    self.cluster_in_occ[cluster.0] += 1;
                    let router = &mut self.photonic[cluster.0];
                    if router.inputs[local].nonempty_mask() >> grant.vc.0 & 1 == 0 {
                        // A flit entering an empty input VC may be a head
                        // its cluster's start phase has not seen.
                        router.wake_starts(cycle);
                    }
                    router.inputs[local]
                        .push(grant.vc, flit, cycle)
                        .expect("photonic input capacity checked in phase 1");
                } else {
                    let peer = cluster.core(topology.peer_of_port(local, grant.output), cpc);
                    self.energy.record_buffer_write(u64::from(flit.bits));
                    self.switch_occ[peer.0] += 1;
                    self.switches[peer.0]
                        .accept(topology.peer_port(peer, core), grant.vc, flit, cycle)
                        .expect("peer capacity checked in phase 1");
                    set_bit(&mut self.awake, peer.0);
                }
            }
        }
    }

    /// Phase 1 for one switch: [`ElectricalRouter::arbitrate`] against the
    /// live full masks of the downstream peer and photonic inputs (the local
    /// port always accepts).
    fn arbitrate_switch(&mut self, core_idx: usize, cycle: u64) -> bool {
        let topology = self.topology;
        let cpc = topology.cores_per_cluster();
        let local_port = topology.local_port();
        let photonic_port = topology.photonic_port();
        let core = CoreId(core_idx);
        let cluster = topology.cluster_of(core);
        let local = topology.local_index(core);
        let photonic_full = self.photonic[cluster.0].inputs[local].full_mask();
        let (before, rest) = self.switches.split_at_mut(core_idx);
        let (switch, after) = rest.split_first_mut().expect("core in range");
        switch.arbitrate(cycle, |out, vc, _flit| {
            let full = if out == local_port {
                0
            } else if out == photonic_port {
                photonic_full
            } else {
                let peer = cluster.core(topology.peer_of_port(local, out), cpc);
                let peer_switch = if peer.0 < core_idx {
                    &before[peer.0]
                } else {
                    &after[peer.0 - core_idx - 1]
                };
                let arrival = peer_switch.input(topology.peer_port(peer, core));
                arrival.expect("port in range").full_mask()
            };
            full >> vc.0 & 1 == 0
        })
    }

    fn advance_transmissions(&mut self, cycle: u64) {
        let bits_per_wavelength = self.config.bits_per_wavelength_per_cycle();
        let cpc = self.topology.cores_per_cluster();

        // Only clusters with an active transmission are visited: with none
        // there is nothing to advance and nothing to deliver.
        let mut walk = BitWalk::new(&self.active_set);
        while let Some(cluster_idx) = walk.next(&self.active_set) {
            let len = self.photonic[cluster_idx].active.len();
            let src_cluster = ClusterId(cluster_idx);
            let pool = self.fabric.pool_size(src_cluster);
            // With the pool exhausted now, no waiting transmission can enter
            // its data phase this cycle: `in_use` only grows in this loop, and
            // finished transmissions give their wavelengths back after it. So
            // the loop visits only the data-phase and still-reserving ones,
            // in the same ascending order.
            let starved = pool.saturating_sub(self.photonic[cluster_idx].in_use) == 0;
            let finished = &mut self.scratch_finished;
            finished.clear();
            let mut popped = 0u32;
            for word in 0..len.div_ceil(64) {
                let live = if starved {
                    !self.photonic[cluster_idx].waiting[word]
                } else {
                    u64::MAX
                };
                let in_range = u64::MAX >> (64 - (len - word * 64).min(64));
                for bit in set_bits(live & in_range) {
                    let tx_idx = word * 64 + bit;
                    let dst_cluster = self.photonic[cluster_idx].active[tx_idx].dst_cluster.0;
                    let [router, dst] = self
                        .photonic
                        .get_disjoint_mut([cluster_idx, dst_cluster])
                        .expect("intra-cluster packets never reach the photonic router");
                    let tx = &mut router.active[tx_idx];
                    if tx.reservation_remaining > 0 {
                        tx.reservation_remaining -= 1;
                        if tx.reservation_remaining == 0 {
                            router.waiting[word] |= 1 << bit;
                        }
                        continue;
                    }
                    if !tx.data_started {
                        // Assign wavelengths: at least the flow's demand
                        // (bounded by what is free), plus idle pool
                        // wavelengths that no other pending transfer is
                        // asking for.
                        let available = pool.saturating_sub(router.in_use);
                        if available == 0 {
                            continue;
                        }
                        let others_demand = router.pending - tx.demand;
                        let spare = available.saturating_sub(others_demand);
                        let wavelengths = tx.demand.max(spare).min(available);
                        tx.wavelengths = wavelengths.max(1);
                        tx.data_started = true;
                        router.waiting[word] &= !(1 << bit);
                        router.in_use += tx.wavelengths;
                        router.pending -= tx.demand;
                    }
                    tx.credit_bits += tx.wavelengths as f64 * bits_per_wavelength;
                    let source = &mut router.inputs[tx.src_port];
                    loop {
                        let buffer = source.occupied(tx.src_vc);
                        let Some((flit, _)) = buffer.front() else {
                            // Source stalled: the wavelength·cycles are lost.
                            tx.credit_bits = 0.0;
                            break;
                        };
                        if flit.packet != tx.packet {
                            tx.credit_bits = 0.0;
                            break;
                        }
                        if tx.credit_bits < f64::from(flit.bits) {
                            break;
                        }
                        let (mut flit, _) = source.pop(tx.src_vc).expect("front checked");
                        // The feeding switch's photonic output may have room again.
                        set_bit(&mut self.awake, src_cluster.core(tx.src_port, cpc).0);
                        popped += 1;
                        tx.credit_bits -= f64::from(flit.bits);
                        tx.flits_sent += 1;
                        flit.vc = tx.dst_vc;
                        let bits = u64::from(flit.bits);
                        self.energy.record_photonic_transfer(bits);
                        // Source-side photonic router electrical traversal and
                        // the write into the destination's ejection buffer.
                        self.energy.record_router_traversal(bits);
                        self.energy.record_buffer_write(bits);
                        if self.cluster_ej_occ[dst_cluster] == 0 {
                            set_bit(&mut self.ejection_set, dst_cluster);
                        }
                        self.cluster_ej_occ[dst_cluster] += 1;
                        dst.ejection[tx.dst_local]
                            .push(tx.dst_vc, flit, cycle)
                            .expect("ejection VC reserved for the whole packet");
                        if tx.flits_sent == tx.flits_total {
                            finished.push(tx_idx);
                            break;
                        }
                    }
                }
            }
            self.total_active -= finished.len();
            let router = &mut self.photonic[cluster_idx];
            if !finished.is_empty() {
                // A finished transmission frees its source VC, whose next
                // packet's head may start.
                router.wake_starts(cycle);
            }
            for idx in finished.drain(..).rev() {
                router.remove_finished(idx);
            }
            if router.active.is_empty() {
                clear_bit(&mut self.active_set, cluster_idx);
            }
            self.cluster_in_occ[cluster_idx] -= popped;
            if self.cluster_in_occ[cluster_idx] == 0 {
                clear_bit(&mut self.input_set, cluster_idx);
            }
        }
    }

    fn start_transmissions(&mut self, cycle: u64) {
        // Only clusters with a buffered input flit are visited: with none
        // there is no head flit to start, and an all-false request vector
        // never advances the round-robin state.
        let mut walk = BitWalk::new(&self.input_set);
        while let Some(cluster_idx) = walk.next(&self.input_set) {
            // A sleeping start phase would only grant the requests it slept
            // on and fail; `wake_starts` replays those grants when something
            // it reads changes.
            if self.photonic[cluster_idx].start_sleep.is_some() {
                #[cfg(debug_assertions)]
                self.assert_starts_blocked(cluster_idx, cycle);
                continue;
            }
            let src_cluster = ClusterId(cluster_idx);
            // A failed source link refuses new transmissions outright;
            // buffered flits wait for the repair. In-flight transfers keep
            // advancing — photons already on the waveguide are not retracted.
            if !self.fault_surface.link_up(cluster_idx) {
                continue;
            }
            // Reservations are broadcast on the reservation channel, so a new
            // transfer may enter its reservation phase even while the data
            // wavelengths are fully occupied; the data phase is gated on
            // wavelength availability in `advance_transmissions`.
            // Candidate head flits, visited in round-robin port order.
            let router = &mut self.photonic[cluster_idx];
            let requests = router.start_requests();
            let granted = router.start_rr.grant_mask(requests);
            let Some((port, (vc, flit, dst_cluster, dst_local, dst_vc))) =
                granted.and_then(|port| Some((port, self.find_start(cluster_idx, port)?)))
            else {
                // The start phase sleeps once no requesting port can start
                // (vacuously when none requests): until a head arrives in an
                // empty input VC, a transmission of this cluster finishes, an
                // ejection VC frees up or a fault transition lands, every
                // attempt would grant the same requests and fail.
                let others = requests & !granted.map_or(0, |port| 1 << port);
                if set_bits(others).all(|p| self.find_start(cluster_idx, p).is_none()) {
                    let router = &mut self.photonic[cluster_idx];
                    router.start_sleep = Some(StartSleep {
                        since: cycle,
                        requests,
                        #[cfg(debug_assertions)]
                        stepped: router.start_rr.clone(),
                    });
                }
                continue;
            };
            self.photonic[dst_cluster.0].ejection_reserved[dst_local] |= 1 << dst_vc.0;
            self.total_active += 1;
            let demand = self.transfer_wavelengths(src_cluster, dst_cluster).max(1);
            let reservation = self.fabric.reservation_cycles();
            set_bit(&mut self.active_set, cluster_idx);
            let router = &mut self.photonic[cluster_idx];
            router.active_sources[port] |= 1 << vc.0;
            let idx = router.active.len();
            if reservation == 0 {
                router.waiting[idx / 64] |= 1 << (idx % 64);
            }
            router.pending += demand;
            router.active.push(Transmission {
                packet: flit.packet,
                src_port: port,
                src_vc: vc,
                dst_cluster,
                dst_local,
                dst_vc,
                demand,
                wavelengths: 0,
                data_started: false,
                reservation_remaining: reservation,
                credit_bits: 0.0,
                flits_sent: 0,
                flits_total: flit.packet_len,
            });
        }
    }

    /// The first head on input `port` of `cluster_idx` that can start a
    /// transmission now: its destination link is up and the destination port
    /// has a free ejection VC. Returns the source VC, the head, and the
    /// destination cluster, port and VC.
    fn find_start(
        &self,
        cluster_idx: usize,
        port: usize,
    ) -> Option<(VcId, Flit, ClusterId, usize, VcId)> {
        let topology = &self.topology;
        self.photonic[cluster_idx]
            .startable_heads(port)
            .find_map(|(vc, flit)| {
                let dst_cluster = topology.cluster_of(flit.dst);
                debug_assert_ne!(
                    dst_cluster.0, cluster_idx,
                    "intra-cluster packets must not reach the photonic router"
                );
                // A failed destination link cannot accept new reservations.
                if !self.fault_surface.link_up(dst_cluster.0) {
                    return None;
                }
                let dst_local = topology.local_index(flit.dst);
                let dst_vc = self.photonic[dst_cluster.0].free_ejection_vc(dst_local)?;
                Some((vc, flit, dst_cluster, dst_local, dst_vc))
            })
    }

    /// Debug check of the start-phase sleep, mirroring the switches' one:
    /// this cycle's attempt, made on the arbiter copy that took every slept
    /// cycle's grant, must still see the source link up, the requests the
    /// cluster slept on, and no requesting port able to start.
    #[cfg(debug_assertions)]
    fn assert_starts_blocked(&mut self, cluster_idx: usize, cycle: u64) {
        let router = &mut self.photonic[cluster_idx];
        let requests = router.start_requests();
        let sleep = router.start_sleep.as_mut().expect("cluster sleeps");
        let slept_on = sleep.requests;
        sleep.stepped.grant_mask(slept_on);
        let live = !self.fault_surface.link_up(cluster_idx)
            || requests != slept_on
            || set_bits(requests).any(|port| self.find_start(cluster_idx, port).is_some());
        debug_assert!(
            !live,
            "cluster {cluster_idx}'s start phase slept through a change at cycle {cycle}"
        );
    }

    /// Wakes every sleeping start phase (see `PhotonicRouter::wake_starts`).
    fn wake_all_starts(&mut self, cycle: u64) {
        for router in &mut self.photonic {
            router.wake_starts(cycle);
        }
    }

    fn drain_ejection(&mut self, cycle: u64) {
        let topology = self.topology;
        let cpc = topology.cores_per_cluster();
        let photonic_port = topology.photonic_port();

        let mut freed = false;
        // Only clusters holding ejection flits are visited: empty ejection
        // buffers yield all-false request vectors, which leave every
        // round-robin arbiter untouched.
        let mut walk = BitWalk::new(&self.ejection_set);
        while let Some(cluster_idx) = walk.next(&self.ejection_set) {
            for local in 0..cpc {
                // An empty port requests nothing, and `grant_mask(0)` leaves
                // its arbiter untouched.
                let router = &mut self.photonic[cluster_idx];
                let occupied = router.ejection[local].nonempty_mask();
                if occupied == 0 {
                    continue;
                }
                // Which VCs have a head-of-line flit that the core switch can accept?
                let core = ClusterId(cluster_idx).core(local, cpc);
                let switch_full = self.switches[core.0]
                    .input(photonic_port)
                    .expect("port in range")
                    .full_mask();
                let requests = occupied & !switch_full;
                let Some(vc_idx) = router.ejection_rr[local].grant_mask(requests) else {
                    continue;
                };
                let vc = VcId(vc_idx);
                let (flit, _) = router.ejection[local]
                    .pop(vc)
                    .expect("request implies occupancy");
                self.cluster_ej_occ[cluster_idx] -= 1;
                if flit.is_tail() {
                    router.ejection_reserved[local] &= !(1 << vc.0);
                    freed = true;
                }
                // Destination-side photonic router electrical traversal.
                self.energy.record_router_traversal(u64::from(flit.bits));
                self.energy.record_buffer_write(u64::from(flit.bits));
                self.switch_occ[core.0] += 1;
                self.switches[core.0]
                    .accept(photonic_port, vc, flit, cycle)
                    .expect("acceptance checked in request vector");
                set_bit(&mut self.awake, core.0);
            }
            if self.cluster_ej_occ[cluster_idx] == 0 {
                clear_bit(&mut self.ejection_set, cluster_idx);
            }
        }
        if freed {
            // A freed ejection VC may let a sleeping cluster's head start.
            self.wake_all_starts(cycle);
        }
    }

    /// Wavelengths a new `src` → `dst` transmission demands: one when a
    /// stuck ring at either endpoint pins it, else the fabric's answer under
    /// the current fault surface.
    #[inline]
    fn transfer_wavelengths(&self, src: ClusterId, dst: ClusterId) -> usize {
        let faults = &self.fault_surface;
        if faults.ring_stuck(src.0) || faults.ring_stuck(dst.0) {
            return 1;
        }
        self.fabric.wavelengths_for(src, dst, faults)
    }

    /// Applies every fault transition due at `cycle` — repairs before applies,
    /// plan order within each group — to the fault surface, refilling the
    /// fabric's pools on `laser-dim` and reporting each transition
    /// to the probes. Runs first in the cycle, so every phase after it sees
    /// the post-transition surface.
    fn apply_fault_transitions(&mut self, cycle: u64, sink: &mut dyn EventSink) {
        while let Some((action, index)) = self.faults.as_mut().and_then(|c| c.pop_due(cycle)) {
            // A link going down or up changes what every start phase reads.
            self.wake_all_starts(cycle);
            let event = self
                .faults
                .as_ref()
                .expect("pop_due implies a controller")
                .event(index);
            let fault = index as u32;
            let transition = match action {
                FaultAction::Apply => {
                    self.fault_surface.apply(&event);
                    SimEvent::FaultApplied { fault }
                }
                FaultAction::Repair => {
                    self.fault_surface.clear(&event);
                    SimEvent::FaultRepaired { fault }
                }
            };
            if event.kind == FaultKind::LaserDim {
                self.fabric.laser_changed(&self.fault_surface);
            }
            sink.emit(cycle, transition);
        }
    }

    fn account_buffer_energy(&mut self) {
        let flit_bits = u64::from(self.config.bandwidth_set.flit_bits());
        // `buffered_flits` answers from the occupancy counters in O(1) (and
        // cross-checks against a full scan in debug builds).
        let buffered = self.buffered_flits() as u64;
        self.energy.record_buffer_occupancy(buffered * flit_bits);
    }
}

impl CycleNetwork for PhotonicSystem {
    fn step_observed(&mut self, cycle: u64, sink: &mut dyn EventSink) {
        self.apply_fault_transitions(cycle, sink);
        self.generate_traffic(cycle, sink);
        self.inject_flits(cycle, sink);
        self.drain_ejection(cycle);
        self.step_switches(cycle, sink);
        self.advance_transmissions(cycle);
        self.start_transmissions(cycle);
        self.account_buffer_energy();
        let StepFlits {
            injected,
            delivered,
            delivered_bits,
            photonic_bits,
        } = std::mem::take(&mut self.step_flits);
        if injected > 0 || delivered > 0 {
            let flits = SimEvent::Flits {
                injected,
                delivered,
                delivered_bits,
                photonic_bits,
            };
            sink.emit(cycle, flits);
        }
    }

    fn next_event_cycle(&mut self, now: u64) -> Option<u64> {
        let base = if self.is_quiescent() {
            // Fully drained: the only possible future event is traffic
            // generation. Stochastic models keep the `Some(now + 1)` default
            // (each poll consumes RNG state), so skips only engage for models
            // with a computable next release, e.g. closed-loop workloads.
            self.traffic
                .next_generation_cycle(now)
                .map(|c| c.max(now + 1))
        } else {
            Some(now + 1)
        };
        // A pending fault transition bounds any skip: the transition cycle
        // must be stepped normally so the fabric mutates (and the event is
        // emitted) at exactly its scheduled cycle.
        let fault = self
            .faults
            .as_ref()
            .and_then(|c| c.next_transition_cycle(now));
        match (base, fault) {
            (Some(b), Some(f)) => Some(b.min(f)),
            (b, f) => b.or(f),
        }
    }

    fn skip_cycles(&mut self, from: u64, to: u64) {
        debug_assert!(from < to, "skip span must be non-empty");
        debug_assert!(self.is_quiescent(), "skipping cycles on an active network");
        debug_assert!(
            self.photonic.iter().all(|r| r.start_sleep.is_none()),
            "skipping cycles past a sleeping start phase"
        );
        // Nothing to replay: buffer-energy accounting at zero occupancy adds
        // exactly 0.0 and every other phase is a no-op on a quiescent
        // network.
    }

    fn begin_measurement(&mut self, _cycle: u64) {
        self.energy.reset();
        self.tally.reset();
    }

    fn energy(&self) -> EnergyBreakdown {
        self.energy.breakdown()
    }

    fn config(&self) -> &SimConfig {
        &self.config
    }

    fn install_fault_schedule(&mut self, controller: FaultController) -> bool {
        self.faults = Some(controller);
        true
    }

    fn fault_counts(&self) -> (u64, u64) {
        self.faults
            .as_ref()
            .map_or((0, 0), |c| (c.applied(), c.active()))
    }

    fn contribute_metrics(&self, report: &mut MetricReport) {
        self.tally.render(report);
    }

    fn delivery_tally(&self) -> Option<&DeliveryTally> {
        Some(&self.tally)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BandwidthSet;
    use crate::engine::{run_cycles, run_to_completion};
    use pnoc_noc::packet::{BandwidthClass, PacketDescriptor};

    /// Deterministic test traffic: every `period` cycles each core sends one
    /// packet to a fixed destination (its core id offset by `offset`).
    struct FixedOffsetTraffic {
        period: u64,
        offset: usize,
        num_cores: usize,
        packet_flits: u32,
        flit_bits: u32,
        /// Advertise the next generation cycle so the event-driven engine can
        /// fast-forward drained gaps (legal here: generation is deterministic).
        lookahead: bool,
    }

    impl FixedOffsetTraffic {
        fn new(period: u64, offset: usize, set: BandwidthSet) -> Self {
            Self {
                period,
                offset,
                num_cores: 64,
                packet_flits: set.packet_flits(),
                flit_bits: set.flit_bits(),
                lookahead: false,
            }
        }
    }

    impl TrafficModel for FixedOffsetTraffic {
        fn next_packet(&mut self, cycle: u64, src: CoreId) -> Option<PacketDescriptor> {
            if !cycle.is_multiple_of(self.period) {
                return None;
            }
            let dst = CoreId((src.0 + self.offset) % self.num_cores);
            Some(PacketDescriptor {
                src,
                dst,
                num_flits: self.packet_flits,
                flit_bits: self.flit_bits,
                class: BandwidthClass::MediumHigh,
                created_cycle: cycle,
            })
        }

        fn demand_class(&self, _src: ClusterId, _dst: ClusterId) -> BandwidthClass {
            BandwidthClass::MediumHigh
        }

        fn next_generation_cycle(&self, now: u64) -> Option<u64> {
            if self.lookahead {
                Some(((now / self.period) + 1) * self.period)
            } else {
                Some(now + 1)
            }
        }
    }

    fn small_config(set: BandwidthSet) -> SimConfig {
        let mut c = SimConfig::fast(set);
        c.sim_cycles = 1200;
        c.warmup_cycles = 200;
        c
    }

    #[test]
    fn intra_cluster_packets_are_delivered() {
        // Offset 1 stays within the cluster for 3 of 4 cores; offset 2 also
        // mixes. Use offset 1: cores 0->1, 1->2, 2->3 intra; 3->4 inter.
        let config = small_config(BandwidthSet::Set1);
        let fabric = PhotonicFabric::channel(&config, 4, 1);
        let traffic = FixedOffsetTraffic::new(400, 1, BandwidthSet::Set1);
        let mut system = PhotonicSystem::new(config, fabric, Box::new(traffic));
        let stats = run_to_completion(&mut system);
        assert!(
            stats.delivered_packets > 0,
            "no packets delivered: {stats:?}"
        );
        assert!(stats.delivered_flits >= stats.delivered_packets * 64);
        assert!(stats.average_packet_latency() > 0.0);
    }

    #[test]
    fn inter_cluster_packets_cross_the_photonic_fabric() {
        let config = small_config(BandwidthSet::Set1);
        let fabric = PhotonicFabric::channel(&config, 4, 1);
        // Offset 4 = always the next cluster, never intra-cluster.
        let traffic = FixedOffsetTraffic::new(400, 4, BandwidthSet::Set1);
        let mut system = PhotonicSystem::new(config, fabric, Box::new(traffic));
        let stats = run_to_completion(&mut system);
        assert!(stats.delivered_packets > 0);
        assert_eq!(
            stats.delivered_photonic_bits, stats.delivered_bits,
            "all traffic is inter-cluster"
        );
        // Photonic energy must have been charged.
        assert!(stats.energy.launch_pj > 0.0);
        assert!(stats.energy.modulation_pj > 0.0);
    }

    #[test]
    fn packets_are_conserved_when_below_saturation() {
        let config = small_config(BandwidthSet::Set1);
        let fabric = PhotonicFabric::channel(&config, 4, 1);
        let traffic = FixedOffsetTraffic::new(500, 8, BandwidthSet::Set1);
        let mut system = PhotonicSystem::new(config, fabric, Box::new(traffic));
        let stats = run_to_completion(&mut system);
        assert_eq!(stats.dropped_packets, 0, "light load must not drop");
        // Everything injected during the window either arrived or is still in
        // flight; deliveries cannot exceed injections (plus warm-up leftovers).
        assert!(stats.delivered_packets <= stats.injected_packets + 64);
    }

    #[test]
    fn higher_wavelength_budget_gives_higher_throughput() {
        // The same traffic saturates the 1-wavelength-per-cluster fabric but
        // not the 8-wavelength one.
        let run = |per_cluster: usize| {
            let config = small_config(BandwidthSet::Set1);
            let fabric = PhotonicFabric::channel(&config, per_cluster, 1);
            let traffic = FixedOffsetTraffic::new(120, 16, BandwidthSet::Set1);
            let mut system = PhotonicSystem::new(config, fabric, Box::new(traffic));
            run_to_completion(&mut system).accepted_bandwidth_gbps()
        };
        let narrow = run(1);
        let wide = run(8);
        assert!(
            wide > narrow * 1.5,
            "wide fabric ({wide} Gb/s) should clearly beat narrow ({narrow} Gb/s)"
        );
    }

    #[test]
    fn energy_breakdown_components_are_all_positive_under_load() {
        let config = small_config(BandwidthSet::Set2);
        let fabric = PhotonicFabric::channel(&config, 16, 1);
        let traffic = FixedOffsetTraffic::new(200, 20, BandwidthSet::Set2);
        let mut system = PhotonicSystem::new(config, fabric, Box::new(traffic));
        let stats = run_to_completion(&mut system);
        assert!(stats.delivered_packets > 0);
        let e = stats.energy;
        assert!(e.launch_pj > 0.0);
        assert!(e.tuning_pj > 0.0);
        assert!(e.buffer_pj > 0.0);
        assert!(e.electrical_pj > 0.0);
        assert!(stats.packet_energy_pj() > 0.0);
    }

    /// Counts the `Flits` totals of each cycle it sees.
    #[derive(Default)]
    struct FlitTotals {
        per_cycle: std::collections::BTreeMap<u64, u32>,
    }

    impl crate::metrics::Probe for FlitTotals {
        fn on_event(&mut self, cycle: u64, event: &SimEvent) {
            if let SimEvent::Flits { .. } = event {
                *self.per_cycle.entry(cycle).or_insert(0) += 1;
            }
        }

        fn report(&self) -> MetricReport {
            MetricReport::new()
        }
    }

    #[test]
    fn metrics_probe_stream_matches_the_legacy_snapshot() {
        use crate::engine::run_to_completion_with;
        use crate::metrics::{MetricValue, MetricsProbe, Probe};
        let config = small_config(BandwidthSet::Set1);
        let fabric = PhotonicFabric::channel(&config, 4, 1);
        let traffic = FixedOffsetTraffic::new(150, 4, BandwidthSet::Set1);
        let mut system = PhotonicSystem::new(config, fabric, Box::new(traffic));
        let mut probe = MetricsProbe::for_config(&config);
        let mut totals = FlitTotals::default();
        let stats = run_to_completion_with(&mut system, &mut [&mut probe, &mut totals]);
        assert!(stats.delivered_packets > 0);
        // A stepped cycle reports its flits as one total, or none.
        assert!(!totals.per_cycle.is_empty());
        assert!(
            totals.per_cycle.values().all(|&count| count == 1),
            "a cycle emitted several flit totals: {:?}",
            totals.per_cycle.iter().find(|(_, &count)| count > 1)
        );
        let mut report = probe.report();
        // Where the bits went comes from the system, not the stream.
        system.contribute_metrics(&mut report);
        for (name, expected) in [
            ("generated_packets", stats.generated_packets),
            ("dropped_packets", stats.dropped_packets),
            ("injected_packets", stats.injected_packets),
            ("injected_flits", stats.injected_flits),
            ("delivered_packets", stats.delivered_packets),
            ("delivered_flits", stats.delivered_flits),
            ("delivered_bits", stats.delivered_bits),
            ("delivered_photonic_bits", stats.delivered_photonic_bits),
            ("measured_cycles", stats.measured_cycles),
        ] {
            assert_eq!(
                report.counter(name),
                Some(expected),
                "probe counter '{name}' diverged from the snapshot"
            );
        }
        let latency = report.histogram("latency_cycles").expect("recorded");
        assert_eq!(latency.count(), stats.delivered_packets);
        assert_eq!(latency.max(), Some(stats.max_packet_latency));
        assert_eq!(latency.sum(), stats.total_packet_latency);
        // The per-node delivered-bits family partitions the aggregate;
        // offset-4 traffic reaches every core.
        let by_node = report.family("delivered_bits_by_node").expect("present");
        let node_sum: u64 = by_node
            .values()
            .map(|v| match v {
                MetricValue::Counter(c) => *c,
                other => panic!("family member must be a counter, got {other:?}"),
            })
            .sum();
        assert_eq!(node_sum, stats.delivered_bits);
        assert_eq!(by_node.len(), 64);
        // Offset-4 traffic is always inter-cluster, so the pair family too.
        let by_pair = report
            .family("photonic_bits_by_cluster_pair")
            .expect("present");
        let pair_sum: u64 = by_pair
            .values()
            .map(|v| match v {
                MetricValue::Counter(c) => *c,
                other => panic!("family member must be a counter, got {other:?}"),
            })
            .sum();
        assert_eq!(pair_sum, stats.delivered_photonic_bits);
        // Core c sends to c + 4, one cluster on: every pair runs from a
        // cluster to the next, never back.
        let pairs: Vec<&str> = by_pair.keys().map(String::as_str).collect();
        let expected: Vec<String> = (0..16)
            .map(|c| format!("c{c:02}->c{:02}", (c + 1) % 16))
            .collect();
        assert_eq!(pairs, expected);
    }

    #[test]
    fn generation_lookahead_skips_are_bitwise_invisible() {
        // The same deterministic traffic, once stepped every cycle (the
        // default `next_generation_cycle` forbids skipping) and once with
        // idle-gap fast-forwarding enabled, must produce identical stats —
        // including energy and measured cycles.
        let run = |lookahead: bool| {
            let config = small_config(BandwidthSet::Set1);
            let fabric = PhotonicFabric::channel(&config, 4, 1);
            // Offset 1: mostly intra-cluster plus one inter-cluster packet
            // per cluster, so each burst drains well within the period and
            // the lookahead run actually fast-forwards the idle tails.
            let mut traffic = FixedOffsetTraffic::new(400, 1, BandwidthSet::Set1);
            traffic.lookahead = lookahead;
            let mut system = PhotonicSystem::new(config, fabric, Box::new(traffic));
            run_to_completion(&mut system)
        };
        let stepped = run(false);
        let skipped = run(true);
        assert!(stepped.delivered_packets > 0);
        assert_eq!(stepped, skipped);
    }

    #[test]
    fn next_event_cycle_reports_quiescence_only_when_drained() {
        let config = small_config(BandwidthSet::Set1);
        let fabric = PhotonicFabric::channel(&config, 4, 1);
        let mut traffic = FixedOffsetTraffic::new(400, 1, BandwidthSet::Set1);
        traffic.lookahead = true;
        let mut system = PhotonicSystem::new(config, fabric, Box::new(traffic));
        let mut cycle = 0u64;
        loop {
            run_cycles(&mut system, cycle, 1);
            match system.next_event_cycle(cycle) {
                Some(c) if c == cycle + 1 => {
                    cycle += 1;
                    assert!(cycle < 400, "burst never drained");
                }
                other => {
                    assert_eq!(
                        other,
                        Some(400),
                        "a drained system should sleep until the next generation"
                    );
                    break;
                }
            }
        }
        // Fast-forward the idle tail: the system is still waiting for 400.
        system.skip_cycles(cycle + 1, 400);
        assert_eq!(system.next_event_cycle(399), Some(400));
    }

    #[test]
    fn the_system_applies_faults_for_every_fabric_and_repairs_restore_them() {
        let config = small_config(BandwidthSet::Set2);
        let fabric = PhotonicFabric::channel(&config, 16, 1);
        // Offset 4: every packet crosses to the next cluster.
        let traffic = FixedOffsetTraffic::new(1000, 4, BandwidthSet::Set2);
        let mut system = PhotonicSystem::new(config, fabric, Box::new(traffic));
        let plan = pnoc_faults::FaultPlan::parse(
            "wavelength-degrade@c1-300:class-high/2,ring-stuck@c1-300:sw3,link-fail@c1-300:sw7",
        )
        .unwrap();
        assert!(system.install_fault_schedule(FaultController::new(&plan)));
        let (a, b) = (ClusterId(0), ClusterId(5));
        assert_eq!(system.transfer_wavelengths(a, b), 16);
        let faulted = run_cycles(&mut system, 0, 300);
        assert_eq!(system.fault_counts(), (3, 3));
        // The class-blind static fabric derates its whole channel by the
        // worst class; a stuck ring at either endpoint pins to one.
        assert_eq!(system.transfer_wavelengths(a, b), 8);
        assert_eq!(system.transfer_wavelengths(ClusterId(3), b), 1);
        assert_eq!(system.transfer_wavelengths(a, ClusterId(3)), 1);
        // The failed link started nothing, from or towards cluster 7, while
        // its flits wait in the photonic input buffers.
        assert!(faulted.delivered_packets > 0);
        assert!(system.photonic[7].active.is_empty());
        assert!(system.photonic[6]
            .active
            .iter()
            .all(|t| t.dst_cluster != ClusterId(7)));
        assert!(system.cluster_in_occ[7] > 0 && system.cluster_in_occ[6] > 0);
        let repaired = run_cycles(&mut system, 300, 700);
        assert_eq!(system.fault_counts(), (3, 0));
        assert_eq!(system.fault_surface, FaultSurface::new(16));
        assert_eq!(system.transfer_wavelengths(a, b), 16);
        assert_eq!(
            faulted.delivered_packets + repaired.delivered_packets,
            64,
            "after the repair the held packets drain"
        );
    }

    /// A set-1 class table of 16 pools of `pool` wavelengths whose demand
    /// is medium-high (4 wavelengths) on every pair but `low`, which demands
    /// the low class (1 wavelength).
    fn class_table(
        pool: usize,
        low: Option<(usize, usize)>,
        reservation_cycles: u64,
    ) -> PhotonicFabric {
        struct Classes(Option<(usize, usize)>);
        impl TrafficModel for Classes {
            fn next_packet(&mut self, _cycle: u64, _src: CoreId) -> Option<PacketDescriptor> {
                None
            }

            fn demand_class(&self, src: ClusterId, dst: ClusterId) -> BandwidthClass {
                if self.0 == Some((src.0, dst.0)) {
                    BandwidthClass::Low
                } else {
                    BandwidthClass::MediumHigh
                }
            }
        }
        PhotonicFabric::class(
            vec![pool; 16],
            DemandMatrix::from_model(&Classes(low), 16),
            BandwidthSet::Set1,
            reservation_cycles,
            Allocation {
                targets: vec![pool; 16],
                budget: 16 * (pool - 1),
                reserve: 1,
                cap: pool,
            },
        )
    }

    #[test]
    fn a_class_table_driving_equal_whole_pools_renders_the_channel_id() {
        let config = small_config(BandwidthSet::Set1);
        let channel = PhotonicFabric::channel(&config, 4, 1).network_id();
        assert_eq!(
            channel,
            "channel(wavelengths_per_channel=4,reservation_cycles=1)"
        );
        assert_eq!(class_table(4, None, 1).network_id(), channel);
        // A pool narrower than every class width caps each transfer at it.
        assert_eq!(
            class_table(2, None, 1).network_id(),
            PhotonicFabric::channel(&config, 2, 1).network_id()
        );
    }

    #[test]
    fn one_narrower_pair_renders_a_class_id_with_every_width() {
        let id = class_table(4, Some((0, 1)), 1).network_id();
        let pools = vec!["4"; 16].join(",");
        assert!(
            id.starts_with(&format!("class(pools=[{pools}],widths=[1,4,4,")),
            "{id}"
        );
        assert!(id.ends_with("],reservation_cycles=1)"), "{id}");
        assert_ne!(
            id,
            class_table(4, Some((1, 0)), 1).network_id(),
            "the narrow pair is part of the id"
        );
        let mut unequal = class_table(4, None, 1);
        unequal.pools[3] = 8;
        assert!(unequal.network_id().starts_with("class("));
    }

    #[test]
    fn reservation_cycles_separate_ids() {
        let config = small_config(BandwidthSet::Set1);
        assert_ne!(
            class_table(4, None, 1).network_id(),
            class_table(4, None, 2).network_id()
        );
        assert_eq!(
            class_table(4, None, 2).network_id(),
            PhotonicFabric::channel(&config, 4, 2).network_id()
        );
        assert_ne!(
            class_table(4, Some((0, 1)), 1).network_id(),
            class_table(4, Some((0, 1)), 2).network_id()
        );
    }

    #[test]
    #[should_panic(expected = "VC depth")]
    fn shallow_vc_depth_is_rejected() {
        let mut config = small_config(BandwidthSet::Set1);
        config.vc_depth = 8; // packet is 64 flits
        let fabric = PhotonicFabric::channel(&config, 4, 1);
        let traffic = FixedOffsetTraffic::new(100, 4, BandwidthSet::Set1);
        let _ = PhotonicSystem::new(config, fabric, Box::new(traffic));
    }
}
