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
//! * a [`PhotonicFabric`] implementation decides how many wavelengths each
//!   transmission may use — this is the only place where Firefly and
//!   d-HetPNoC differ.
//!
//! The simulation is flit-level and cycle-accurate: electrical routers follow
//! the three-stage pipeline of `pnoc-noc`, photonic transfers accumulate
//! wavelength·cycle credit (5 bits per wavelength per cycle with the paper's
//! clock and line rate), and energy is accounted per bit with the
//! coefficients of Table 3-5.

use crate::config::SimConfig;
use crate::engine::CycleNetwork;
use crate::metrics::{EventSink, SimEvent};
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
use std::collections::VecDeque;

/// The photonic interconnect behaviour that distinguishes architectures.
///
/// The generic [`PhotonicSystem`] asks the fabric, every time a cluster wants
/// to start an inter-cluster packet transfer, how many wavelengths that
/// transfer may use and how long the reservation broadcast takes. The Firefly
/// baseline answers with its fixed per-channel width; d-HetPNoC answers from
/// its dynamically allocated wavelength pool and per-destination demand.
pub trait PhotonicFabric {
    /// Architecture name used in reports ("firefly", "d-hetpnoc", ...).
    fn architecture_name(&self) -> &str;

    /// Called once at the beginning of every cycle (d-HetPNoC circulates its
    /// allocation token here).
    fn pre_cycle(&mut self, cycle: u64);

    /// Fast-forwards the fabric's control plane across the idle cycles
    /// `from..to`, leaving it in exactly the state that calling
    /// [`PhotonicFabric::pre_cycle`] for each cycle of the span would have.
    /// The default does just that; fabrics with cheap-to-replay control state
    /// (token rings, credit counters) should override it with a closed form.
    fn skip_cycles(&mut self, from: u64, to: u64) {
        for cycle in from..to {
            self.pre_cycle(cycle);
        }
    }

    /// Total number of wavelengths cluster `src` may drive concurrently at
    /// this moment (its write-channel width).
    fn pool_size(&self, src: ClusterId) -> usize;

    /// Number of wavelengths a single transmission from `src` to `dst` uses
    /// (before being limited by the currently free part of the pool).
    fn wavelengths_for(&self, src: ClusterId, dst: ClusterId) -> usize;

    /// Cycles taken by the reservation broadcast for a `src` → `dst` packet
    /// (1 for Firefly; 1–2 for d-HetPNoC depending on how many wavelength
    /// identifiers must be piggybacked, Section 3.4.1.1).
    fn reservation_cycles(&self, src: ClusterId, dst: ClusterId) -> u64;

    /// Total data wavelengths in the fabric.
    fn total_data_wavelengths(&self) -> usize;

    /// Current per-cluster wavelength allocation (diagnostic).
    fn allocation_snapshot(&self) -> Vec<usize> {
        Vec::new()
    }

    /// Applies a fault to the fabric's data plane. The default ignores the
    /// event, so fabrics only model the degradations they understand; the
    /// system-level effects every fabric shares (a failed link refusing new
    /// transmissions) are handled by [`PhotonicSystem`] via
    /// [`PhotonicFabric::link_up`].
    fn apply_fault(&mut self, event: &pnoc_faults::FaultEvent) {
        let _ = event;
    }

    /// Reverses a previously applied fault (called at the event's repair
    /// cycle). Must restore exactly the state `apply_fault` disturbed.
    fn clear_fault(&mut self, event: &pnoc_faults::FaultEvent) {
        let _ = event;
    }

    /// Whether the photonic link of `cluster` is currently operational. A
    /// down link stops *new* transmissions from starting at or terminating on
    /// the cluster; in-flight transfers complete (photons already committed
    /// to the waveguide are not retracted).
    fn link_up(&self, cluster: ClusterId) -> bool {
        let _ = cluster;
        true
    }
}

/// A trivially uniform fabric: every cluster always owns `wavelengths_per_channel`
/// wavelengths and every transmission uses all of them. Used for tests and as
/// the simplest possible baseline.
#[derive(Debug, Clone)]
pub(crate) struct UniformFabric {
    /// Name reported in statistics.
    pub name: String,
    /// Wavelengths per cluster write channel.
    pub wavelengths_per_channel: usize,
    /// Total data wavelengths.
    pub total_wavelengths: usize,
    /// Reservation latency in cycles.
    pub reservation_cycles: u64,
}

impl UniformFabric {
    /// Creates a uniform fabric with `total` wavelengths split evenly over
    /// `clusters` clusters.
    #[must_use]
    pub fn new(name: &str, total: usize, clusters: usize) -> Self {
        Self {
            name: name.to_string(),
            wavelengths_per_channel: (total / clusters).max(1),
            total_wavelengths: total,
            reservation_cycles: 1,
        }
    }
}

impl PhotonicFabric for UniformFabric {
    fn architecture_name(&self) -> &str {
        &self.name
    }

    fn pre_cycle(&mut self, _cycle: u64) {}

    fn skip_cycles(&mut self, _from: u64, _to: u64) {}

    fn pool_size(&self, _src: ClusterId) -> usize {
        self.wavelengths_per_channel
    }

    fn wavelengths_for(&self, _src: ClusterId, _dst: ClusterId) -> usize {
        self.wavelengths_per_channel
    }

    fn reservation_cycles(&self, _src: ClusterId, _dst: ClusterId) -> u64 {
        self.reservation_cycles
    }

    fn total_data_wavelengths(&self) -> usize {
        self.total_wavelengths
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
    /// Active outgoing transmissions.
    active: Vec<Transmission>,
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
            active: Vec::new(),
        }
    }

    /// Wavelengths occupied by transmissions in their data phase. Reservation
    /// broadcasts travel on the separate reservation channel and do not hold
    /// data wavelengths.
    fn wavelengths_in_use(&self) -> usize {
        self.active
            .iter()
            .filter(|t| t.data_started)
            .map(|t| t.wavelengths)
            .sum()
    }

    /// Total wavelengths demanded by transmissions that have not started
    /// their data phase yet (used for work-conserving wavelength assignment).
    fn pending_demand(&self) -> usize {
        self.active
            .iter()
            .filter(|t| !t.data_started)
            .map(|t| t.demand)
            .sum()
    }

    /// The head flits on `port` that may start a transmission, lowest VC
    /// first: the head of line of every occupied VC not already feeding one.
    fn startable_heads(&self, port: usize) -> impl Iterator<Item = (VcId, Flit)> + '_ {
        let set = &self.inputs[port];
        set_bits(set.nonempty_mask() & !self.active_sources[port]).filter_map(move |v| {
            let buffer = set.vc(VcId(v)).expect("mask bit names a VC");
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

/// Sets core switch `switch`'s bit in the wake set.
#[inline]
fn wake(awake: &mut [u64], switch: usize) {
    awake[switch / 64] |= 1 << (switch % 64);
}

/// The complete simulated chip.
pub struct PhotonicSystem<F: PhotonicFabric, T: TrafficModel> {
    config: SimConfig,
    topology: ClusterTopology,
    fabric: F,
    traffic: T,
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
    /// Running totals behind the O(1) [`Self::is_quiescent`] and
    /// [`Self::buffered_flits`]: flits buffered anywhere, in-flight photonic
    /// transmissions, and cores with a queued or part-injected packet.
    total_buffered: usize,
    total_active: usize,
    busy_cores: usize,
    /// Reusable finished-transmission index list.
    scratch_finished: Vec<usize>,
    /// Deterministic fault schedule, when one was installed.
    faults: Option<pnoc_faults::FaultController>,
}

impl<F: PhotonicFabric, T: TrafficModel> PhotonicSystem<F, T> {
    /// Builds the system.
    ///
    /// # Panics
    ///
    /// Panics if the configured VC depth cannot hold a full packet (the
    /// reservation protocol pre-allocates one ejection VC per packet).
    pub fn new(config: SimConfig, fabric: F, traffic: T) -> Self {
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
            let table = ClusterRoutingTable::new(topology, core);
            router.set_route_fn(Box::new(move |dst| table.output_port(dst)));
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
            total_buffered: 0,
            total_active: 0,
            busy_cores: 0,
            scratch_finished: Vec::new(),
            faults: None,
        }
    }

    /// Immutable access to the fabric (used by tests and experiments to
    /// inspect allocations).
    pub fn fabric(&self) -> &F {
        &self.fabric
    }

    /// Immutable access to the traffic model.
    pub fn traffic(&self) -> &T {
        &self.traffic
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
    /// and per-cluster occupancies, the three running totals, every `VcSet`'s
    /// masks and the active-source masks from the buffers themselves.
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
            occupancy(&r.inputs) == self.cluster_in_occ[c] as usize
                && occupancy(&r.ejection) == self.cluster_ej_occ[c] as usize
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
        let busy = self
            .cores
            .iter()
            .filter(|c| c.injecting.is_some() || !c.queue.is_empty())
            .count();
        switches_ok
            && clusters_ok
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
                }
                state.queue.push_back(packet);
            });
    }

    fn inject_flits(&mut self, cycle: u64, sink: &mut dyn EventSink) {
        let local_port = self.topology.local_port();
        for core_idx in 0..self.topology.num_cores() {
            // An idle core (nothing queued, nothing mid-injection) cannot make
            // progress this cycle; the probe below is read-only, so skipping
            // it is behaviour-preserving.
            if self.cores[core_idx].injecting.is_none() && self.cores[core_idx].queue.is_empty() {
                continue;
            }
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
            wake(&mut self.awake, core_idx);
            self.switch_occ[core_idx] += 1;
            self.total_buffered += 1;
            self.energy.record_buffer_write(u64::from(flit.bits));
            sink.emit(
                cycle,
                SimEvent::FlitInjected {
                    src: CoreId(core_idx),
                    bits: flit.bits,
                    flits: 1,
                },
            );
            progress.next += 1;
            if flit.is_tail() {
                state.injecting = None;
                if state.queue.is_empty() {
                    self.busy_cores -= 1;
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
                    wake(&mut self.awake, upstream.0);
                }
                self.switch_occ[core_idx] -= 1;
                self.energy.record_router_traversal(u64::from(flit.bits));
                if grant.output == local_port {
                    debug_assert_eq!(flit.dst, core, "flit ejected at the wrong core");
                    self.total_buffered -= 1;
                    let photonic = !topology.same_cluster(flit.src, flit.dst);
                    sink.emit(
                        cycle,
                        SimEvent::FlitDelivered {
                            src: flit.src,
                            dst: flit.dst,
                            bits: flit.bits,
                            flits: 1,
                            photonic,
                        },
                    );
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
                    self.cluster_in_occ[cluster.0] += 1;
                    self.photonic[cluster.0].inputs[local]
                        .push(grant.vc, flit, cycle)
                        .expect("photonic input capacity checked in phase 1");
                } else {
                    let peer = cluster.core(topology.peer_of_port(local, grant.output), cpc);
                    self.energy.record_buffer_write(u64::from(flit.bits));
                    self.switch_occ[peer.0] += 1;
                    self.switches[peer.0]
                        .accept(topology.peer_port(peer, core), grant.vc, flit, cycle)
                        .expect("peer capacity checked in phase 1");
                    wake(&mut self.awake, peer.0);
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

        for cluster_idx in 0..self.topology.num_clusters() {
            // No active transmission: nothing to advance, nothing to deliver.
            if self.photonic[cluster_idx].active.is_empty() {
                continue;
            }
            let src_cluster = ClusterId(cluster_idx);
            let pool = self.fabric.pool_size(src_cluster);
            let finished = &mut self.scratch_finished;
            finished.clear();
            let mut in_use = self.photonic[cluster_idx].wavelengths_in_use();
            let mut pending_demand = self.photonic[cluster_idx].pending_demand();
            let mut popped = 0u32;
            for tx_idx in 0..self.photonic[cluster_idx].active.len() {
                let dst_cluster = self.photonic[cluster_idx].active[tx_idx].dst_cluster.0;
                let [router, dst] = self
                    .photonic
                    .get_disjoint_mut([cluster_idx, dst_cluster])
                    .expect("intra-cluster packets never reach the photonic router");
                let tx = &mut router.active[tx_idx];
                if tx.reservation_remaining > 0 {
                    tx.reservation_remaining -= 1;
                    continue;
                }
                if !tx.data_started {
                    // Assign wavelengths: at least the flow's demand (bounded
                    // by what is free), plus idle pool wavelengths that no
                    // other pending transfer is asking for.
                    let available = pool.saturating_sub(in_use);
                    if available == 0 {
                        continue;
                    }
                    let others_demand = pending_demand.saturating_sub(tx.demand);
                    let spare = available.saturating_sub(others_demand);
                    let wavelengths = tx.demand.max(spare).min(available);
                    tx.wavelengths = wavelengths.max(1);
                    tx.data_started = true;
                    in_use += tx.wavelengths;
                    pending_demand = pending_demand.saturating_sub(tx.demand);
                }
                tx.credit_bits += tx.wavelengths as f64 * bits_per_wavelength;
                let source = &mut router.inputs[tx.src_port];
                loop {
                    let buffer = source.vc(tx.src_vc).expect("vc in range");
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
                    wake(&mut self.awake, src_cluster.core(tx.src_port, cpc).0);
                    popped += 1;
                    tx.credit_bits -= f64::from(flit.bits);
                    tx.flits_sent += 1;
                    flit.vc = tx.dst_vc;
                    let bits = u64::from(flit.bits);
                    self.energy.record_photonic_transfer(bits);
                    // Source-side photonic router electrical traversal and the
                    // write into the destination's ejection buffer.
                    self.energy.record_router_traversal(bits);
                    self.energy.record_buffer_write(bits);
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
            self.total_active -= finished.len();
            let router = &mut self.photonic[cluster_idx];
            for idx in finished.drain(..).rev() {
                let tx = router.active.swap_remove(idx);
                router.active_sources[tx.src_port] &= !(1 << tx.src_vc.0);
            }
            self.cluster_in_occ[cluster_idx] -= popped;
        }
    }

    fn start_transmissions(&mut self) {
        let num_clusters = self.topology.num_clusters();
        let cpc = self.topology.cores_per_cluster();

        for cluster_idx in 0..num_clusters {
            // With no buffered input flit there is no head flit to start; an
            // all-false request vector never advances the round-robin state.
            if self.cluster_in_occ[cluster_idx] == 0 {
                continue;
            }
            let src_cluster = ClusterId(cluster_idx);
            // A failed source link refuses new transmissions outright;
            // buffered flits wait for the repair. In-flight transfers keep
            // advancing — photons already on the waveguide are not retracted.
            if !self.fabric.link_up(src_cluster) {
                continue;
            }
            // Reservations are broadcast on the reservation channel, so a new
            // transfer may enter its reservation phase even while the data
            // wavelengths are fully occupied; the data phase is gated on
            // wavelength availability in `advance_transmissions`.
            // Candidate head flits, visited in round-robin port order.
            let router = &mut self.photonic[cluster_idx];
            let requests = (0..cpc)
                .filter(|&p| router.startable_heads(p).next().is_some())
                .fold(0u64, |mask, p| mask | 1 << p);
            let Some(port) = router.start_rr.grant_mask(requests) else {
                continue;
            };
            // Pick the first startable VC on the granted port.
            let (topology, fabric, photonic) = (&self.topology, &self.fabric, &self.photonic);
            let start = photonic[cluster_idx]
                .startable_heads(port)
                .find_map(|(vc, flit)| {
                    let dst_cluster = topology.cluster_of(flit.dst);
                    debug_assert_ne!(
                        dst_cluster, src_cluster,
                        "intra-cluster packets must not reach the photonic router"
                    );
                    // A failed destination link cannot accept new reservations.
                    if !fabric.link_up(dst_cluster) {
                        return None;
                    }
                    let dst_local = topology.local_index(flit.dst);
                    let dst_vc = photonic[dst_cluster.0].free_ejection_vc(dst_local)?;
                    Some((vc, flit, dst_cluster, dst_local, dst_vc))
                });
            let Some((vc, flit, dst_cluster, dst_local, dst_vc)) = start else {
                continue;
            };
            self.photonic[dst_cluster.0].ejection_reserved[dst_local] |= 1 << dst_vc.0;
            self.total_active += 1;
            let router = &mut self.photonic[cluster_idx];
            router.active_sources[port] |= 1 << vc.0;
            router.active.push(Transmission {
                packet: flit.packet,
                src_port: port,
                src_vc: vc,
                dst_cluster,
                dst_local,
                dst_vc,
                demand: fabric.wavelengths_for(src_cluster, dst_cluster).max(1),
                wavelengths: 0,
                data_started: false,
                reservation_remaining: fabric.reservation_cycles(src_cluster, dst_cluster),
                credit_bits: 0.0,
                flits_sent: 0,
                flits_total: flit.packet_len,
            });
        }
    }

    fn drain_ejection(&mut self, cycle: u64) {
        let topology = self.topology;
        let cpc = topology.cores_per_cluster();
        let photonic_port = topology.photonic_port();

        for cluster_idx in 0..topology.num_clusters() {
            // Empty ejection buffers yield all-false request vectors, which
            // leave every round-robin arbiter untouched — skip the cluster.
            if self.cluster_ej_occ[cluster_idx] == 0 {
                continue;
            }
            for local in 0..cpc {
                let core = ClusterId(cluster_idx).core(local, cpc);
                // Which VCs have a head-of-line flit that the core switch can accept?
                let router = &mut self.photonic[cluster_idx];
                let switch_full = self.switches[core.0]
                    .input(photonic_port)
                    .expect("port in range")
                    .full_mask();
                let requests = router.ejection[local].nonempty_mask() & !switch_full;
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
                }
                // Destination-side photonic router electrical traversal.
                self.energy.record_router_traversal(u64::from(flit.bits));
                self.energy.record_buffer_write(u64::from(flit.bits));
                self.switch_occ[core.0] += 1;
                self.switches[core.0]
                    .accept(photonic_port, vc, flit, cycle)
                    .expect("acceptance checked in request vector");
                wake(&mut self.awake, core.0);
            }
        }
    }

    /// Applies every fault transition due at `cycle` — repairs before applies,
    /// plan order within each group — mutating the fabric and reporting each
    /// transition to the probes. Runs before `pre_cycle`, so the fabric's
    /// control plane already sees the post-transition data plane.
    fn apply_fault_transitions(&mut self, cycle: u64, sink: &mut dyn EventSink) {
        while let Some((action, index)) = self.faults.as_mut().and_then(|c| c.pop_due(cycle)) {
            let event = self
                .faults
                .as_ref()
                .expect("pop_due implies a controller")
                .event(index);
            match action {
                pnoc_faults::FaultAction::Apply => {
                    self.fabric.apply_fault(&event);
                    sink.emit(
                        cycle,
                        SimEvent::FaultApplied {
                            fault: index as u32,
                        },
                    );
                }
                pnoc_faults::FaultAction::Repair => {
                    self.fabric.clear_fault(&event);
                    sink.emit(
                        cycle,
                        SimEvent::FaultRepaired {
                            fault: index as u32,
                        },
                    );
                }
            }
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

impl<F: PhotonicFabric + Send, T: TrafficModel + Send> CycleNetwork for PhotonicSystem<F, T> {
    fn step_observed(&mut self, cycle: u64, sink: &mut dyn EventSink) {
        self.apply_fault_transitions(cycle, sink);
        self.fabric.pre_cycle(cycle);
        self.generate_traffic(cycle, sink);
        self.inject_flits(cycle, sink);
        self.drain_ejection(cycle);
        self.step_switches(cycle, sink);
        self.advance_transmissions(cycle);
        self.start_transmissions();
        self.account_buffer_energy();
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
        // Each skipped cycle would have circulated the fabric's control
        // plane; buffer-energy accounting at zero occupancy adds exactly 0.0
        // and every other phase is a no-op on a quiescent network.
        self.fabric.skip_cycles(from, to);
    }

    fn begin_measurement(&mut self, _cycle: u64) {
        self.energy.reset();
    }

    fn energy(&self) -> EnergyBreakdown {
        self.energy.breakdown()
    }

    fn traffic_label(&self) -> (String, f64) {
        (self.traffic.name(), self.traffic.offered_load().value())
    }

    fn config(&self) -> &SimConfig {
        &self.config
    }

    fn architecture(&self) -> &str {
        self.fabric.architecture_name()
    }

    fn install_fault_schedule(&mut self, controller: pnoc_faults::FaultController) -> bool {
        self.faults = Some(controller);
        true
    }

    fn fault_counts(&self) -> (u64, u64) {
        self.faults
            .as_ref()
            .map_or((0, 0), |c| (c.applied(), c.active()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BandwidthSet;
    use crate::engine::{run_cycles, run_to_completion};
    use pnoc_noc::packet::{BandwidthClass, PacketDescriptor};
    use pnoc_noc::traffic_model::OfferedLoad;

    /// Deterministic test traffic: every `period` cycles each core sends one
    /// packet to a fixed destination (its core id offset by `offset`).
    struct FixedOffsetTraffic {
        period: u64,
        offset: usize,
        num_cores: usize,
        packet_flits: u32,
        flit_bits: u32,
        load: OfferedLoad,
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
                load: OfferedLoad::new(1.0 / period as f64),
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

        fn offered_load(&self) -> OfferedLoad {
            self.load
        }

        fn demand_class(&self, _src: ClusterId, _dst: ClusterId) -> BandwidthClass {
            BandwidthClass::MediumHigh
        }

        fn volume_share(&self, _src: ClusterId, _dst: ClusterId) -> f64 {
            1.0 / 15.0
        }

        fn name(&self) -> String {
            format!("fixed-offset-{}", self.offset)
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
        let fabric = UniformFabric::new("uniform-test", 64, 16);
        let traffic = FixedOffsetTraffic::new(400, 1, BandwidthSet::Set1);
        let mut system = PhotonicSystem::new(config, fabric, traffic);
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
        let fabric = UniformFabric::new("uniform-test", 64, 16);
        // Offset 4 = always the next cluster, never intra-cluster.
        let traffic = FixedOffsetTraffic::new(400, 4, BandwidthSet::Set1);
        let mut system = PhotonicSystem::new(config, fabric, traffic);
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
        let fabric = UniformFabric::new("uniform-test", 64, 16);
        let traffic = FixedOffsetTraffic::new(500, 8, BandwidthSet::Set1);
        let mut system = PhotonicSystem::new(config, fabric, traffic);
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
            let fabric = UniformFabric::new("uniform-test", per_cluster * 16, 16);
            let traffic = FixedOffsetTraffic::new(120, 16, BandwidthSet::Set1);
            let mut system = PhotonicSystem::new(config, fabric, traffic);
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
        let fabric = UniformFabric::new("uniform-test", 256, 16);
        let traffic = FixedOffsetTraffic::new(200, 20, BandwidthSet::Set2);
        let mut system = PhotonicSystem::new(config, fabric, traffic);
        let stats = run_to_completion(&mut system);
        assert!(stats.delivered_packets > 0);
        let e = stats.energy;
        assert!(e.launch_pj > 0.0);
        assert!(e.tuning_pj > 0.0);
        assert!(e.buffer_pj > 0.0);
        assert!(e.electrical_pj > 0.0);
        assert!(stats.packet_energy_pj() > 0.0);
    }

    #[test]
    fn metrics_probe_stream_matches_the_legacy_snapshot() {
        use crate::engine::run_to_completion_with;
        use crate::metrics::{MetricValue, MetricsProbe, Probe};
        let config = small_config(BandwidthSet::Set1);
        let fabric = UniformFabric::new("uniform-test", 64, 16);
        let traffic = FixedOffsetTraffic::new(150, 4, BandwidthSet::Set1);
        let mut system = PhotonicSystem::new(config, fabric, traffic);
        let mut probe = MetricsProbe::for_config(&config);
        let stats = run_to_completion_with(&mut system, &mut [&mut probe]);
        assert!(stats.delivered_packets > 0);
        let report = probe.report();
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
        // The per-node delivered-bits family partitions the aggregate.
        let by_node = report.family("delivered_bits_by_node").expect("present");
        let node_sum: u64 = by_node
            .values()
            .map(|v| match v {
                MetricValue::Counter(c) => *c,
                other => panic!("family member must be a counter, got {other:?}"),
            })
            .sum();
        assert_eq!(node_sum, stats.delivered_bits);
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
    }

    #[test]
    fn generation_lookahead_skips_are_bitwise_invisible() {
        // The same deterministic traffic, once stepped every cycle (the
        // default `next_generation_cycle` forbids skipping) and once with
        // idle-gap fast-forwarding enabled, must produce identical stats —
        // including energy and measured cycles.
        let run = |lookahead: bool| {
            let config = small_config(BandwidthSet::Set1);
            let fabric = UniformFabric::new("uniform-test", 64, 16);
            // Offset 1: mostly intra-cluster plus one inter-cluster packet
            // per cluster, so each burst drains well within the period and
            // the lookahead run actually fast-forwards the idle tails.
            let mut traffic = FixedOffsetTraffic::new(400, 1, BandwidthSet::Set1);
            traffic.lookahead = lookahead;
            let mut system = PhotonicSystem::new(config, fabric, traffic);
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
        let fabric = UniformFabric::new("uniform-test", 64, 16);
        let mut traffic = FixedOffsetTraffic::new(400, 1, BandwidthSet::Set1);
        traffic.lookahead = true;
        let mut system = PhotonicSystem::new(config, fabric, traffic);
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
    #[should_panic(expected = "VC depth")]
    fn shallow_vc_depth_is_rejected() {
        let mut config = small_config(BandwidthSet::Set1);
        config.vc_depth = 8; // packet is 64 flits
        let fabric = UniformFabric::new("uniform-test", 64, 16);
        let traffic = FixedOffsetTraffic::new(100, 4, BandwidthSet::Set1);
        let _ = PhotonicSystem::new(config, fabric, traffic);
    }
}
