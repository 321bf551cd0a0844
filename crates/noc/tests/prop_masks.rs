//! Property tests of the occupancy-mask kernel: the `VcSet` masks against a
//! recomputation from the buffers, and `ElectricalRouter` against a reference
//! model of the three-stage algorithm that probes every VC with `Vec<bool>`
//! request vectors (the implementation the masks replaced).

use pnoc_noc::error::NocError;
use pnoc_noc::flit::{Flit, FlitKind, FlitPayload};
use pnoc_noc::ids::{CoreId, PacketId, PortId, RouterId, VcId};
use pnoc_noc::packet::BandwidthClass;
use pnoc_noc::router::{ElectricalRouter, OutputGrant, RouterSpec};
use pnoc_noc::vc::{VcBuffer, VcSet};
use proptest::prelude::*;
use std::collections::VecDeque;

fn flit(packet: u64, seq: u32, len: u32, dst: usize, vc: VcId) -> Flit {
    let kind = match (len, seq) {
        (1, _) => FlitKind::Single,
        (_, 0) => FlitKind::Head,
        (n, s) if s == n - 1 => FlitKind::Tail,
        _ => FlitKind::Body,
    };
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
        vc,
    }
}

/// SplitMix64: the tests' own deterministic random stream.
fn mix(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The rotating-priority arbiter as an offset loop over a request vector.
fn offset_loop_grant(next: &mut usize, requests: &[bool]) -> Option<usize> {
    let n = requests.len();
    for offset in 0..n {
        let idx = (*next + offset) % n;
        if requests[idx] {
            *next = (idx + 1) % n;
            return Some(idx);
        }
    }
    None
}

/// What a port's upstream and the engine read of it: the non-empty mask, the
/// full mask, the occupancy and the free VC.
type PortState = (u64, u64, usize, Option<VcId>);

fn port_state(router: &ElectricalRouter, port: usize) -> PortState {
    let set = router.input(PortId(port)).unwrap();
    (
        set.nonempty_mask(),
        set.full_mask(),
        set.total_occupancy(),
        router.free_input_vc(PortId(port)),
    )
}

struct ReferenceVc {
    fifo: VecDeque<(Flit, u64)>,
    assigned: Option<PortId>,
}

/// The three-stage router, probing every VC of every port each cycle.
struct ReferenceRouter {
    spec: RouterSpec,
    inputs: Vec<Vec<ReferenceVc>>,
    input_next: Vec<usize>,
    output_next: Vec<usize>,
}

impl ReferenceRouter {
    fn new(spec: RouterSpec) -> Self {
        let port = || {
            (0..spec.num_vcs)
                .map(|_| ReferenceVc {
                    fifo: VecDeque::new(),
                    assigned: None,
                })
                .collect()
        };
        Self {
            spec,
            inputs: (0..spec.num_ports).map(|_| port()).collect(),
            input_next: vec![0; spec.num_ports],
            output_next: vec![0; spec.num_ports],
        }
    }

    fn can_accept(&self, port: usize, vc: usize) -> bool {
        self.inputs[port][vc].fifo.len() < self.spec.vc_depth
    }

    fn free_input_vc(&self, port: usize) -> Option<VcId> {
        self.inputs[port]
            .iter()
            .position(|b| b.fifo.is_empty() && b.assigned.is_none())
            .map(VcId)
    }

    /// Port `port`'s non-empty mask, full mask, occupancy and free VC.
    fn port_state(&self, port: usize) -> PortState {
        let vcs = &self.inputs[port];
        let mask = |pred: &dyn Fn(&ReferenceVc) -> bool| {
            (vcs.iter().enumerate())
                .filter(|(_, b)| pred(b))
                .fold(0u64, |mask, (v, _)| mask | 1 << v)
        };
        (
            mask(&|b| !b.fifo.is_empty()),
            mask(&|b| b.fifo.len() >= self.spec.vc_depth),
            vcs.iter().map(|b| b.fifo.len()).sum(),
            self.free_input_vc(port),
        )
    }

    /// One cycle's grants, and whether the router was live: some port
    /// nominated or some occupied VC's head is still inside the pipeline.
    fn step(
        &mut self,
        cycle: u64,
        route: impl Fn(CoreId) -> PortId,
        mut can_send: impl FnMut(PortId, VcId, &Flit) -> bool,
    ) -> (Vec<OutputGrant>, bool) {
        let RouterSpec {
            num_ports,
            num_vcs,
            pipeline_latency,
            ..
        } = self.spec;
        let mut nominations: Vec<Option<(VcId, PortId)>> = vec![None; num_ports];
        let mut in_pipeline = false;
        for (p, nomination) in nominations.iter_mut().enumerate() {
            let mut requests = vec![false; num_vcs];
            for (v, request) in requests.iter_mut().enumerate() {
                let vc = &mut self.inputs[p][v];
                let Some(&(flit, entered)) = vc.fifo.front() else {
                    continue;
                };
                if cycle < entered + pipeline_latency.saturating_sub(1) {
                    in_pipeline = true;
                    continue;
                }
                if vc.assigned.is_none() {
                    assert!(flit.is_head(), "wormhole framing violation");
                    vc.assigned = Some(route(flit.dst));
                }
                let out = vc.assigned.expect("just assigned");
                *request = can_send(out, VcId(v), &flit);
            }
            if let Some(winner) = offset_loop_grant(&mut self.input_next[p], &requests) {
                let out = self.inputs[p][winner].assigned.expect("assigned");
                *nomination = Some((VcId(winner), out));
            }
        }
        let live = in_pipeline || nominations.iter().any(Option::is_some);
        let mut grants = Vec::new();
        for out in 0..num_ports {
            let requests: Vec<bool> = nominations
                .iter()
                .map(|n| n.is_some_and(|(_, o)| o.0 == out))
                .collect();
            let Some(winner) = offset_loop_grant(&mut self.output_next[out], &requests) else {
                continue;
            };
            let (vc, _) = nominations[winner].expect("winner nominated");
            let buffer = &mut self.inputs[winner][vc.0];
            let (flit, _) = buffer.fifo.pop_front().expect("candidate non-empty");
            if flit.is_tail() {
                buffer.assigned = None;
            }
            grants.push(OutputGrant {
                input: PortId(winner),
                output: PortId(out),
                vc,
                flit,
            });
        }
        (grants, live)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// After any sequence of `push`/`pop`/`assign_output`/`release_output`
    /// the three masks, `free_vc`, `is_idle` and `total_occupancy` equal a
    /// recomputation from the buffers, and a full VC still refuses a push.
    #[test]
    fn vcset_masks_track_the_buffers(
        num_vcs in 1usize..=64,
        depth in 1usize..=3,
        ops in prop::collection::vec((0u8..4, 0usize..64, 0usize..8), 0..=256),
    ) {
        let mut set = VcSet::new(num_vcs, depth);
        for (op, vc, port) in ops {
            let vc = VcId(vc % num_vcs);
            let before = set.vc(vc).unwrap().occupancy();
            match op {
                0 => match set.push(vc, flit(1, 0, 1, 0, vc), 0) {
                    Ok(()) => prop_assert!(before < depth),
                    Err(NocError::BufferFull { capacity, .. }) => {
                        prop_assert_eq!(before, depth);
                        prop_assert_eq!(capacity, depth);
                    }
                    Err(other) => prop_assert!(false, "unexpected error {other:?}"),
                },
                1 => prop_assert_eq!(set.pop(vc).is_some(), before > 0),
                2 => set.assign_output(vc, PortId(port)),
                _ => set.release_output(vc),
            }
            let scan = |pred: fn(&VcBuffer) -> bool| {
                set.iter()
                    .filter(|(_, b)| pred(b))
                    .fold(0u64, |mask, (v, _)| mask | 1 << v.0)
            };
            prop_assert_eq!(set.nonempty_mask(), scan(|b| !b.is_empty()));
            prop_assert_eq!(set.full_mask(), scan(VcBuffer::is_full));
            prop_assert_eq!(set.assigned_mask(), scan(|b| b.assigned_output().is_some()));
            prop_assert!(set.masks_consistent());
            let free = set
                .iter()
                .find(|(_, b)| b.is_empty() && b.assigned_output().is_none())
                .map(|(v, _)| v);
            prop_assert_eq!(set.free_vc(), free);
            prop_assert_eq!(set.is_idle(), set.iter().all(|(_, b)| b.is_empty()));
            let occupancy: usize = set.iter().map(|(_, b)| b.occupancy()).sum();
            prop_assert_eq!(set.total_occupancy(), occupancy);
        }
        prop_assert!(matches!(
            set.push(VcId(num_vcs), flit(1, 0, 1, 0, VcId(num_vcs)), 0),
            Err(NocError::InvalidVc { .. })
        ));
    }

    /// `ElectricalRouter` and the reference model, fed the same random
    /// wormhole streams under the same random back-pressure, grant the same
    /// flits from the same inputs on the same outputs and VCs in the same
    /// order, every cycle, `arbitrate` reports the router live exactly when
    /// the reference nominated or held a head in the pipeline — and between
    /// `arbitrate` and the `next_grant`s every port still reads as it did
    /// before the cycle.
    #[test]
    fn router_matches_the_reference_model(
        num_ports in 2usize..=5,
        num_vcs in 1usize..=16,
        depth in 1usize..=4,
        latency in 1u64..=3,
        seed in 0u64..u64::MAX,
    ) {
        let spec = RouterSpec::new(num_ports, num_vcs, depth).with_pipeline_latency(latency);
        let route = move |dst: CoreId| PortId(dst.0 % num_ports);
        let mut router = ElectricalRouter::new(RouterId(0), spec);
        router.set_route_fn(Box::new(route));
        let mut reference = ReferenceRouter::new(spec);
        // Per (port, VC): the packet being streamed in, as (id, next seq, len, dst).
        let mut streams = vec![vec![(0u64, 0u32, 0u32, 0usize); num_vcs]; num_ports];
        let mut rng = seed;
        let mut next_packet = 0u64;
        let mut granted = 0usize;
        for cycle in 0..300u64 {
            for (p, port_streams) in streams.iter_mut().enumerate() {
                rng = mix(rng);
                if rng.is_multiple_of(4) {
                    continue; // this port's upstream idles this cycle
                }
                let v = (rng >> 8) as usize % num_vcs;
                let accepts = router.can_accept(PortId(p), VcId(v));
                prop_assert_eq!(accepts, reference.can_accept(p, v));
                if !accepts {
                    continue;
                }
                let stream = &mut port_streams[v];
                if stream.1 == stream.2 {
                    next_packet += 1;
                    *stream = (next_packet, 0, 1 + (rng >> 16) as u32 % 5, (rng >> 24) as usize % 64);
                }
                let f = flit(stream.0, stream.1, stream.2, stream.3, VcId(v));
                stream.1 += 1;
                router.accept(PortId(p), VcId(v), f, cycle).unwrap();
                reference.inputs[p][v].fifo.push_back((f, cycle));
            }
            let blocked = move |out: PortId, vc: VcId, _: &Flit| {
                mix(seed ^ cycle << 20 ^ (out.0 as u64) << 8 ^ vc.0 as u64).is_multiple_of(3)
            };
            let before: Vec<PortState> = (0..num_ports).map(|p| reference.port_state(p)).collect();
            let (expected, live) = reference.step(cycle, route, |o, v, f| !blocked(o, v, f));
            let arbitrated = router.arbitrate(cycle, |o, v, f| !blocked(o, v, f));
            prop_assert_eq!(arbitrated, live, "liveness diverged at cycle {cycle}");
            // Arbitration moves no flit: the engine arbitrates every switch
            // against the live downstream masks before any grant lands.
            for (p, state) in before.iter().enumerate() {
                prop_assert_eq!(&port_state(&router, p), state, "arbitrate changed port {p} at cycle {cycle}");
            }
            let actual: Vec<OutputGrant> = std::iter::from_fn(|| router.next_grant()).collect();
            prop_assert_eq!(&actual, &expected, "grants diverged at cycle {cycle}");
            granted += actual.len();
            for p in 0..num_ports {
                prop_assert_eq!(router.free_input_vc(PortId(p)), reference.free_input_vc(p));
            }
        }
        prop_assert!(granted > 0, "the streams never produced a grant");
    }
}
