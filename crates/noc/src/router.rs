//! Three-stage electrical router.
//!
//! The thesis adopts the switch architecture of Pande et al. \[24\]: a
//! three-stage pipeline of **input arbitration**, **routing / crossbar
//! traversal** and **output arbitration** (Section 3.3.2). Each port carries
//! a set of virtual channels; wormhole switching is used, i.e. the head flit
//! of a packet claims an output port for its virtual channel and the tail
//! flit releases it.
//!
//! The router is driven externally by the cycle-accurate engine: the caller
//! pushes incoming flits with [`ElectricalRouter::accept`] and once per cycle
//! calls [`ElectricalRouter::arbitrate`], providing a closure that tells the
//! router whether the downstream buffer of a given output port / VC can
//! accept a flit this cycle (credit-based backpressure), then takes the
//! granted flits with [`ElectricalRouter::next_grant`]
//! ([`ElectricalRouter::step`] does both). When `arbitrate` returns `false`
//! the router is blocked: calling it again changes nothing until a buffer or
//! a downstream answer changes, so the caller may stop arbitrating it until
//! then.

use crate::arbiter::RoundRobinArbiter;
use crate::error::{NocError, NocResult};
use crate::flit::Flit;
use crate::ids::{CoreId, PortId, RouterId, VcId};
use crate::vc::{set_bits, VcSet};
use std::fmt;

/// Static configuration of an [`ElectricalRouter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterSpec {
    /// Number of ports (inputs and outputs are symmetric).
    pub num_ports: usize,
    /// Virtual channels per port.
    pub num_vcs: usize,
    /// Buffer depth per virtual channel, in flits.
    pub vc_depth: usize,
    /// Pipeline latency in cycles a flit spends in the router before it may
    /// leave (3 in the paper: input arbitration, routing, output arbitration).
    pub pipeline_latency: u64,
}

impl RouterSpec {
    /// Creates a spec with the paper's three-cycle pipeline.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn new(num_ports: usize, num_vcs: usize, vc_depth: usize) -> Self {
        assert!(num_ports > 0 && num_vcs > 0 && vc_depth > 0);
        Self {
            num_ports,
            num_vcs,
            vc_depth,
            pipeline_latency: 3,
        }
    }

    /// Overrides the pipeline latency (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `latency` is zero.
    #[must_use]
    pub fn with_pipeline_latency(mut self, latency: u64) -> Self {
        assert!(latency >= 1, "pipeline latency must be at least 1 cycle");
        self.pipeline_latency = latency;
        self
    }
}

/// A flit leaving the router through an output port in the current cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputGrant {
    /// Input port the flit was buffered on.
    pub input: PortId,
    /// Output port the flit leaves through.
    pub output: PortId,
    /// Virtual channel the flit travels on.
    pub vc: VcId,
    /// The flit itself.
    pub flit: Flit,
}

/// Route-computation function: maps a destination core to an output port.
pub type RouteFn = Box<dyn Fn(CoreId) -> PortId + Send + Sync>;

/// The three-stage electrical router.
pub struct ElectricalRouter {
    id: RouterId,
    spec: RouterSpec,
    inputs: Vec<VcSet>,
    input_arbiters: Vec<RoundRobinArbiter>,
    output_arbiters: Vec<RoundRobinArbiter>,
    route_fn: Option<RouteFn>,
    /// Per-cycle state, kept across cycles so arbitration never allocates:
    /// the VC each input port nominated in stage 1, per output port the mask
    /// of input ports nominating it (the stage-3 requests) and the input port
    /// that won it, and the mask of outputs whose grant is not yet taken.
    nominated_vc: Vec<VcId>,
    output_requests: Vec<u64>,
    winner: Vec<usize>,
    granted: u64,
}

impl fmt::Debug for ElectricalRouter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ElectricalRouter")
            .field("id", &self.id)
            .field("spec", &self.spec)
            .finish_non_exhaustive()
    }
}

impl ElectricalRouter {
    /// Creates a router with empty buffers and no routing function.
    ///
    /// # Panics
    ///
    /// Panics if `spec` has more than 64 ports or more than 64 VCs per port:
    /// the router carries per-port and per-VC state as `u64` masks.
    #[must_use]
    pub fn new(id: RouterId, spec: RouterSpec) -> Self {
        Self {
            id,
            spec,
            inputs: (0..spec.num_ports)
                .map(|_| VcSet::new(spec.num_vcs, spec.vc_depth))
                .collect(),
            input_arbiters: (0..spec.num_ports)
                .map(|_| RoundRobinArbiter::new(spec.num_vcs))
                .collect(),
            output_arbiters: (0..spec.num_ports)
                .map(|_| RoundRobinArbiter::new(spec.num_ports))
                .collect(),
            route_fn: None,
            nominated_vc: vec![VcId(0); spec.num_ports],
            output_requests: vec![0; spec.num_ports],
            winner: vec![0; spec.num_ports],
            granted: 0,
        }
    }

    /// Installs the route-computation function.
    pub fn set_route_fn(&mut self, f: RouteFn) {
        self.route_fn = Some(f);
    }

    /// Router identifier.
    #[must_use]
    pub fn id(&self) -> RouterId {
        self.id
    }

    /// Static configuration.
    #[must_use]
    pub fn spec(&self) -> RouterSpec {
        self.spec
    }

    /// Number of ports.
    #[must_use]
    pub fn num_ports(&self) -> usize {
        self.spec.num_ports
    }

    /// Immutable access to the VC set of an input port.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidPort`] if the port index is out of range.
    #[inline]
    pub fn input(&self, port: PortId) -> NocResult<&VcSet> {
        self.inputs.get(port.0).ok_or(NocError::InvalidPort {
            port,
            num_ports: self.spec.num_ports,
        })
    }

    /// True when the input buffer `(port, vc)` can accept one more flit.
    #[must_use]
    #[inline]
    pub fn can_accept(&self, port: PortId, vc: VcId) -> bool {
        self.inputs
            .get(port.0)
            .is_some_and(|set| vc.0 < set.num_vcs() && set.full_mask() >> vc.0 & 1 == 0)
    }

    /// Finds a free (empty, unassigned) VC on `port` for a new packet.
    #[must_use]
    #[inline]
    pub fn free_input_vc(&self, port: PortId) -> Option<VcId> {
        self.inputs.get(port.0).and_then(VcSet::free_vc)
    }

    /// Pushes a flit into input buffer `(port, vc)` at `cycle`.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidPort`], [`NocError::InvalidVc`] or
    /// [`NocError::BufferFull`] on failure.
    #[inline]
    pub fn accept(&mut self, port: PortId, vc: VcId, flit: Flit, cycle: u64) -> NocResult<()> {
        let num_ports = self.spec.num_ports;
        let set = self
            .inputs
            .get_mut(port.0)
            .ok_or(NocError::InvalidPort { port, num_ports })?;
        set.push(vc, flit, cycle).map_err(|e| match e {
            NocError::BufferFull { capacity, .. } => NocError::BufferFull { port, vc, capacity },
            other => other,
        })
    }

    /// Total number of flits buffered in the router.
    #[must_use]
    pub fn buffered_flits(&self) -> usize {
        self.inputs.iter().map(VcSet::total_occupancy).sum()
    }

    /// Total number of bits buffered in the router (for buffer-energy
    /// accounting).
    #[must_use]
    pub fn buffered_bits(&self) -> u64 {
        self.inputs.iter().map(VcSet::buffered_bits).sum()
    }

    /// True when every input buffer is empty.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.inputs.iter().all(VcSet::is_idle)
    }

    /// Advances the router by one cycle: [`Self::arbitrate`], then every
    /// [`Self::next_grant`].
    ///
    /// # Panics
    ///
    /// As [`Self::arbitrate`].
    pub fn step<F>(&mut self, cycle: u64, can_send: F) -> Vec<OutputGrant>
    where
        F: FnMut(PortId, VcId, &Flit) -> bool,
    {
        self.arbitrate(cycle, can_send);
        std::iter::from_fn(|| self.next_grant()).collect()
    }

    /// Runs the three arbitration stages of one cycle and records each
    /// output's winner; no buffer changes until [`Self::next_grant`] takes
    /// the granted flits, so every occupancy and full mask still reads as
    /// before the cycle.
    ///
    /// `can_send(output, vc, flit)` must return true when the downstream
    /// buffer attached to `output` can accept the flit on virtual channel `vc`
    /// this cycle. At most one flit leaves per output port per cycle; at most
    /// one flit leaves per input port per cycle.
    ///
    /// Returns `true` when a grant was recorded or an occupied VC's head is
    /// still inside the pipeline latency. On `false`, every occupied VC was
    /// routed and refused by `can_send`, so no arbiter moved (`grant_mask(0)`
    /// is a no-op): a later call with the same buffers and the same
    /// `can_send` answers is a bitwise no-op too.
    ///
    /// # Panics
    ///
    /// Panics if no routing function has been installed and a head flit needs
    /// routing.
    pub fn arbitrate<F>(&mut self, cycle: u64, mut can_send: F) -> bool
    where
        F: FnMut(PortId, VcId, &Flit) -> bool,
    {
        debug_assert_eq!(
            self.granted, 0,
            "arbitrate called before the previous cycle's grants were taken"
        );
        let num_ports = self.spec.num_ports;
        let latency = self.spec.pipeline_latency;

        // Stage 1+2: input arbitration and route computation.
        // For every input port pick one candidate VC whose head-of-line flit
        // is eligible (pipeline latency satisfied), routed, and whose
        // downstream buffer can take it. Only occupied VCs are visited, in
        // ascending order (the set bits of the port's non-empty mask). Two
        // ports may nominate the same output; the stage-3 arbiters resolve
        // that. Each port nominates one output, so no port wins two.
        self.output_requests.fill(0);
        let mut in_pipeline = false;
        for (p, set) in self.inputs.iter_mut().enumerate() {
            let mut requests = 0u64;
            for v in set_bits(set.nonempty_mask()) {
                let vc = VcId(v);
                let buffer = set.vc(vc).expect("mask bit names a VC");
                let (head, entered) = buffer.front().expect("non-empty mask bit");
                if cycle < entered + latency.saturating_sub(1) {
                    in_pipeline = true; // still traversing the router pipeline
                    continue;
                }
                // Route any head flit that does not have an output assignment yet.
                let out = match buffer.assigned_output() {
                    Some(out) => out,
                    None if head.is_head() => {
                        let route = self
                            .route_fn
                            .as_ref()
                            .expect("routing function must be installed before stepping");
                        let out = route(head.dst);
                        assert!(
                            out.0 < num_ports,
                            "routing function returned invalid port {out} (router has {num_ports})"
                        );
                        set.assign_output(vc, out);
                        out
                    }
                    // A body/tail flit can only be at the head of a VC whose
                    // wormhole is already established; if the assignment was
                    // released the framing is broken.
                    None => panic!(
                        "wormhole framing violation at router {:?}: body/tail flit {:?} with no output assignment",
                        self.id, head.packet
                    ),
                };
                let (head, _) = set.vc(vc).expect("vc in range").front().expect("non-empty");
                if can_send(out, vc, head) {
                    requests |= 1 << v;
                }
            }
            if let Some(winner) = self.input_arbiters[p].grant_mask(requests) {
                let out = set
                    .vc(VcId(winner))
                    .expect("vc in range")
                    .assigned_output()
                    .expect("candidate has assignment");
                self.nominated_vc[p] = VcId(winner);
                self.output_requests[out.0] |= 1 << p;
            }
        }

        // Stage 3: output arbitration — each output port picks one nominating
        // input port.
        for out in 0..num_ports {
            if let Some(port) = self.output_arbiters[out].grant_mask(self.output_requests[out]) {
                self.winner[out] = port;
                self.granted |= 1 << out;
            }
        }
        in_pipeline || self.granted != 0
    }

    /// Takes the next flit granted by [`Self::arbitrate`], in ascending
    /// output order, and releases the wormhole when it is a tail flit.
    #[inline]
    pub fn next_grant(&mut self) -> Option<OutputGrant> {
        if self.granted == 0 {
            return None;
        }
        let out = self.granted.trailing_zeros() as usize;
        self.granted &= self.granted - 1;
        let port = self.winner[out];
        let vc = self.nominated_vc[port];
        let set = &mut self.inputs[port];
        let (flit, _entered) = set.pop(vc).expect("granted buffer non-empty");
        if flit.is_tail() {
            set.release_output(vc);
        }
        Some(OutputGrant {
            input: PortId(port),
            output: PortId(out),
            vc,
            flit,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlitKind, FlitPayload};
    use crate::ids::PacketId;
    use crate::packet::BandwidthClass;

    fn mk_flit(packet: u64, kind: FlitKind, seq: u32, len: u32, dst: usize) -> Flit {
        Flit {
            packet: PacketId(packet),
            kind,
            payload: FlitPayload::Data,
            src: CoreId(0),
            dst: CoreId(dst),
            seq,
            packet_len: len,
            bits: 32,
            class: BandwidthClass::Low,
            created_cycle: 0,
            injected_cycle: 0,
            vc: VcId(0),
        }
    }

    fn fixed_route(port: usize) -> RouteFn {
        Box::new(move |_dst| PortId(port))
    }

    #[test]
    fn single_flit_traverses_after_pipeline_latency() {
        let mut r = ElectricalRouter::new(RouterId(0), RouterSpec::new(2, 2, 4));
        r.set_route_fn(fixed_route(1));
        r.accept(PortId(0), VcId(0), mk_flit(1, FlitKind::Single, 0, 1, 9), 0)
            .unwrap();
        // Pipeline latency 3: flit enters at cycle 0, may leave at cycle 2.
        assert!(r.step(0, |_, _, _| true).is_empty());
        assert!(r.step(1, |_, _, _| true).is_empty());
        let grants = r.step(2, |_, _, _| true);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].output, PortId(1));
        assert_eq!(grants[0].flit.packet, PacketId(1));
        assert!(r.is_idle());
    }

    #[test]
    fn backpressure_blocks_flit() {
        let mut r = ElectricalRouter::new(RouterId(0), RouterSpec::new(2, 2, 4));
        r.set_route_fn(fixed_route(1));
        r.accept(PortId(0), VcId(0), mk_flit(1, FlitKind::Single, 0, 1, 9), 0)
            .unwrap();
        for c in 0..5 {
            assert!(r.step(c, |_, _, _| false).is_empty());
        }
        let grants = r.step(5, |_, _, _| true);
        assert_eq!(grants.len(), 1);
    }

    #[test]
    fn a_head_inside_the_pipeline_keeps_arbitration_live_without_a_grant() {
        let mut r = ElectricalRouter::new(RouterId(0), RouterSpec::new(2, 2, 4));
        r.set_route_fn(fixed_route(1));
        r.accept(PortId(0), VcId(0), mk_flit(1, FlitKind::Single, 0, 1, 9), 0)
            .unwrap();
        assert!(r.arbitrate(1, |_, _, _| true));
        assert_eq!(r.next_grant(), None);
    }

    #[test]
    fn a_router_whose_every_vc_is_refused_reports_blocked() {
        let mut r = ElectricalRouter::new(RouterId(0), RouterSpec::new(3, 2, 4));
        r.set_route_fn(fixed_route(2));
        r.accept(PortId(0), VcId(0), mk_flit(1, FlitKind::Single, 0, 1, 9), 0)
            .unwrap();
        r.accept(PortId(1), VcId(1), mk_flit(2, FlitKind::Single, 0, 1, 9), 0)
            .unwrap();
        assert!(!r.arbitrate(5, |_, _, _| false));
        assert_eq!(r.next_grant(), None);
        // Refusing only one VC leaves the other to nominate.
        assert!(r.arbitrate(5, |_, vc, _| vc == VcId(1)));
        assert!(r.next_grant().is_some());
    }

    #[test]
    fn a_nomination_reports_live() {
        let mut r = ElectricalRouter::new(RouterId(0), RouterSpec::new(2, 2, 4));
        r.set_route_fn(fixed_route(1));
        r.accept(PortId(0), VcId(0), mk_flit(1, FlitKind::Single, 0, 1, 9), 0)
            .unwrap();
        assert!(r.arbitrate(2, |_, _, _| true));
        assert!(r.next_grant().is_some());
        // Empty again: nothing to nominate, nothing in the pipeline.
        assert!(!r.arbitrate(3, |_, _, _| true));
    }

    #[test]
    fn next_grant_reports_the_input_port() {
        let mut r = ElectricalRouter::new(RouterId(0), RouterSpec::new(4, 2, 4));
        r.set_route_fn(Box::new(|dst| PortId(dst.0)));
        r.accept(PortId(2), VcId(1), mk_flit(1, FlitKind::Single, 0, 1, 0), 0)
            .unwrap();
        r.accept(PortId(3), VcId(0), mk_flit(2, FlitKind::Single, 0, 1, 1), 0)
            .unwrap();
        let grants = r.step(2, |_, _, _| true);
        let routes: Vec<_> = grants.iter().map(|g| (g.input, g.output, g.vc)).collect();
        assert_eq!(
            routes,
            vec![
                (PortId(2), PortId(0), VcId(1)),
                (PortId(3), PortId(1), VcId(0))
            ]
        );
    }

    #[test]
    fn wormhole_keeps_packet_contiguous_per_vc() {
        let mut r = ElectricalRouter::new(RouterId(0), RouterSpec::new(3, 2, 8));
        r.set_route_fn(fixed_route(2));
        // 3-flit packet on VC 0 of port 0.
        r.accept(PortId(0), VcId(0), mk_flit(7, FlitKind::Head, 0, 3, 5), 0)
            .unwrap();
        r.accept(PortId(0), VcId(0), mk_flit(7, FlitKind::Body, 1, 3, 5), 1)
            .unwrap();
        r.accept(PortId(0), VcId(0), mk_flit(7, FlitKind::Tail, 2, 3, 5), 2)
            .unwrap();
        let mut seqs = Vec::new();
        for c in 0..12 {
            for g in r.step(c, |_, _, _| true) {
                seqs.push(g.flit.seq);
            }
        }
        assert_eq!(seqs, vec![0, 1, 2]);
        // After the tail left, the VC assignment is released.
        assert_eq!(
            r.input(PortId(0))
                .unwrap()
                .vc(VcId(0))
                .unwrap()
                .assigned_output(),
            None
        );
    }

    #[test]
    fn output_contention_is_serialised() {
        let mut r = ElectricalRouter::new(RouterId(0), RouterSpec::new(3, 2, 4));
        r.set_route_fn(fixed_route(2));
        r.accept(PortId(0), VcId(0), mk_flit(1, FlitKind::Single, 0, 1, 9), 0)
            .unwrap();
        r.accept(PortId(1), VcId(0), mk_flit(2, FlitKind::Single, 0, 1, 9), 0)
            .unwrap();
        let mut per_cycle = Vec::new();
        for c in 0..6 {
            per_cycle.push(r.step(c, |_, _, _| true).len());
        }
        // Only one flit per cycle can use output port 2.
        assert!(per_cycle.iter().all(|&n| n <= 1));
        assert_eq!(per_cycle.iter().sum::<usize>(), 2);
    }

    #[test]
    fn two_packets_to_distinct_outputs_flow_in_parallel() {
        let mut r = ElectricalRouter::new(RouterId(0), RouterSpec::new(3, 2, 4));
        // Route by destination: even cores -> port 1, odd -> port 2.
        r.set_route_fn(Box::new(
            |dst| {
                if dst.0 % 2 == 0 {
                    PortId(1)
                } else {
                    PortId(2)
                }
            },
        ));
        r.accept(PortId(0), VcId(0), mk_flit(1, FlitKind::Single, 0, 1, 2), 0)
            .unwrap();
        r.accept(PortId(1), VcId(0), mk_flit(2, FlitKind::Single, 0, 1, 3), 0)
            .unwrap();
        let grants = r.step(2, |_, _, _| true);
        assert_eq!(grants.len(), 2, "distinct outputs should both fire");
    }

    #[test]
    fn each_input_and_output_carries_at_most_one_flit_per_cycle() {
        // Every input holds a flit for every output (packet id = 10 × input +
        // output): a cycle still moves at most one flit per input and one per
        // output, as a physical crossbar connects them.
        let mut r = ElectricalRouter::new(RouterId(0), RouterSpec::new(3, 3, 4));
        r.set_route_fn(Box::new(|dst| PortId(dst.0)));
        for p in 0..3 {
            for out in 0..3 {
                let flit = mk_flit((10 * p + out) as u64, FlitKind::Single, 0, 1, out);
                r.accept(PortId(p), VcId(out), flit, 0).unwrap();
            }
        }
        let mut moved = 0;
        for c in 2..12 {
            let grants = r.step(c, |_, _, _| true);
            let mut inputs: Vec<u64> = grants.iter().map(|g| g.flit.packet.0 / 10).collect();
            let mut outputs: Vec<usize> = grants.iter().map(|g| g.output.0).collect();
            inputs.sort_unstable();
            inputs.dedup();
            outputs.sort_unstable();
            outputs.dedup();
            assert_eq!(inputs.len(), grants.len(), "cycle {c}: {grants:?}");
            assert_eq!(outputs.len(), grants.len(), "cycle {c}: {grants:?}");
            moved += grants.len();
        }
        assert_eq!(moved, 9);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "grants were taken")]
    fn arbitrating_over_untaken_grants_panics() {
        let mut r = ElectricalRouter::new(RouterId(0), RouterSpec::new(2, 1, 4));
        r.set_route_fn(fixed_route(1));
        r.accept(PortId(0), VcId(0), mk_flit(1, FlitKind::Single, 0, 1, 9), 0)
            .unwrap();
        assert!(r.arbitrate(2, |_, _, _| true));
        r.arbitrate(3, |_, _, _| true);
    }

    #[test]
    fn accept_rejects_when_buffer_full() {
        let mut r = ElectricalRouter::new(RouterId(0), RouterSpec::new(2, 1, 1));
        r.accept(PortId(0), VcId(0), mk_flit(1, FlitKind::Single, 0, 1, 1), 0)
            .unwrap();
        let err = r
            .accept(PortId(0), VcId(0), mk_flit(2, FlitKind::Single, 0, 1, 1), 0)
            .unwrap_err();
        assert!(matches!(
            err,
            NocError::BufferFull {
                port: PortId(0),
                ..
            }
        ));
        assert!(!r.can_accept(PortId(0), VcId(0)));
    }

    #[test]
    #[should_panic(expected = "between 1 and 64")]
    fn more_than_64_vcs_per_port_is_rejected() {
        let _ = ElectricalRouter::new(RouterId(0), RouterSpec::new(2, 65, 1));
    }

    #[test]
    fn free_input_vc_reports_availability() {
        let mut r = ElectricalRouter::new(RouterId(0), RouterSpec::new(2, 2, 1));
        assert_eq!(r.free_input_vc(PortId(0)), Some(VcId(0)));
        r.accept(PortId(0), VcId(0), mk_flit(1, FlitKind::Single, 0, 1, 1), 0)
            .unwrap();
        assert_eq!(r.free_input_vc(PortId(0)), Some(VcId(1)));
        r.accept(PortId(0), VcId(1), mk_flit(2, FlitKind::Single, 0, 1, 1), 0)
            .unwrap();
        assert_eq!(r.free_input_vc(PortId(0)), None);
    }

    #[test]
    fn buffered_bits_tracks_occupancy() {
        let mut r = ElectricalRouter::new(RouterId(0), RouterSpec::new(2, 2, 4));
        r.set_route_fn(fixed_route(1));
        r.accept(PortId(0), VcId(0), mk_flit(1, FlitKind::Head, 0, 2, 9), 0)
            .unwrap();
        r.accept(PortId(0), VcId(0), mk_flit(1, FlitKind::Tail, 1, 2, 9), 0)
            .unwrap();
        assert_eq!(r.buffered_flits(), 2);
        assert_eq!(r.buffered_bits(), 64);
    }
}
