//! `ladder_saturated`: the per-cycle hot path and nothing else.
//!
//! Open loop, one thread, no cache: d-HetPNoC and Firefly under `skewed-3`
//! traffic, a 16-point ladder pinned at the top load of the paper's ladder,
//! where every switch and cluster is busy every cycle. The `PhotonicSystem`
//! step, the routers, the DBA token ring and traffic polling do all the
//! work; store, executor, server and hierarchy do none.
//!
//! `skewed-3` draws its class matrix from the point's seed, and the host
//! time of a saturated point varies by ±5 % with that matrix. Each ladder
//! point derives its own seed, so sixteen quick-effort points (1 500 cycles
//! each) average sixteen matrices in one rep, where one paper-effort point
//! (11 000 cycles) would make the rep's cost a property of the seed.

use super::{ns_per_call, simulated_cycles, Layers, RepOutcome, Workload};
use crate::golden::bits;
use crate::trace::{best_span_s, Tracer};
use pnoc_dhetpnoc::dba::DbaController;
use pnoc_dhetpnoc::fabric::DhetFabric;
use pnoc_noc::arbiter::{Arbiter, RoundRobinArbiter};
use pnoc_noc::flit::{Flit, FlitKind, FlitPayload};
use pnoc_noc::ids::{CoreId, PacketId, PortId, RouterId};
use pnoc_noc::packet::BandwidthClass;
use pnoc_noc::router::{ElectricalRouter, RouterSpec};
use pnoc_noc::topology::ClusterTopology;
use pnoc_noc::traffic_model::{OfferedLoad, TrafficModel};
use pnoc_sim::config::{BandwidthSet, SimConfig};
use pnoc_sim::engine::set_event_driven;
use pnoc_sim::scenario::{Effort, Scenario, ScenarioSpec};
use pnoc_sim::stats::SimStats;
use pnoc_sim::sweep::SweepMode;
use pnoc_traffic::demand::DemandMatrix;
use pnoc_traffic::pattern::{PacketShape, SkewLevel};
use pnoc_traffic::skewed::SkewedTraffic;
use std::hint::black_box;
use std::time::Instant;

const SPAN_DHET: &str = "sim:run_with_mode[d-hetpnoc]";
const SPAN_FIREFLY: &str = "sim:run_with_mode[firefly]";

/// Ladder points per scenario, all at the same load.
const POINTS: usize = 16;

/// The scenario of `arch` with every ladder point at the load `pick`
/// selects from the paper's eight-point ladder.
fn at_load(arch: &str, seed: u64, pick: fn(&[f64]) -> f64) -> Scenario {
    let spec = ScenarioSpec::new(arch, "skewed-3").with_seed(seed);
    let load = pick(&Effort::Paper.load_ladder(&spec.config()));
    spec.with_ladder(vec![load; POINTS])
        .resolve()
        .expect("registered architecture and traffic")
}

fn top(ladder: &[f64]) -> f64 {
    ladder[ladder.len() - 1]
}

/// See the module documentation.
pub struct LadderSaturated {
    seed: u64,
    dhet: Scenario,
    firefly: Scenario,
    /// Peak-bandwidth gain of d-HetPNoC over Firefly in the last rep
    /// (simulated, exact).
    bw_gain_pct: f64,
}

impl LadderSaturated {
    /// Resolves the two scenarios at the top ladder load.
    pub fn new(seed: u64) -> Self {
        LadderSaturated {
            seed,
            dhet: at_load("d-hetpnoc", seed, top),
            firefly: at_load("firefly", seed, top),
            bw_gain_pct: 0.0,
        }
    }
}

impl Workload for LadderSaturated {
    fn rep(&mut self, tracer: &Tracer) -> RepOutcome {
        let mut outcome = RepOutcome::default();
        let dhet = outcome.call(tracer, SPAN_DHET, || {
            self.dhet.run_with_mode(SweepMode::Sequential)
        });
        outcome.simulated(simulated_cycles(&dhet), POINTS as u64);
        let firefly = outcome.call(tracer, SPAN_FIREFLY, || {
            self.firefly.run_with_mode(SweepMode::Sequential)
        });
        outcome.simulated(simulated_cycles(&firefly), POINTS as u64);
        let mut stats = Vec::new();
        let mut failures = Vec::new();
        for (label, result) in [("d-hetpnoc", &dhet), ("firefly", &firefly)] {
            let points = &result.result.points;
            let sum = |field: fn(&SimStats) -> u64| points.iter().map(|p| field(&p.stats)).sum();
            let (delivered_flits, dropped): (u64, u64) =
                (sum(|s| s.delivered_flits), sum(|s| s.dropped_packets));
            for (index, point) in points.iter().enumerate() {
                let point = &point.stats;
                if point.delivered_packets == 0 || point.delivered_packets > point.generated_packets
                {
                    failures.push(format!(
                        "{label} point {index}: delivered {} of {} generated packets",
                        point.delivered_packets, point.generated_packets
                    ));
                }
            }
            stats.push((
                format!("{label}.peak_gbps"),
                bits(result.result.peak_bandwidth_gbps()),
            ));
            stats.push((
                format!("{label}.sustainable_gbps"),
                bits(result.result.sustainable_bandwidth_gbps()),
            ));
            stats.push((
                format!("{label}.delivered_flits"),
                delivered_flits.to_string(),
            ));
            stats.push((format!("{label}.dropped_packets"), dropped.to_string()));
        }
        self.bw_gain_pct =
            (dhet.result.peak_bandwidth_gbps() / firefly.result.peak_bandwidth_gbps() - 1.0)
                * 100.0;
        stats.push(("bw_gain_pct".to_string(), bits(self.bw_gain_pct)));
        outcome.attempted = 2 * POINTS as u64;
        outcome.failures = failures;
        outcome.stats = stats;
        outcome
    }

    fn probe_layers(&mut self, tracer: &Tracer, layers: &mut Layers) {
        let spans = tracer.spans();
        let cycles = (self.dhet.config().total_cycles() * POINTS as u64) as f64;
        for (metric, span) in [
            ("sim.step_ns.dhetpnoc_sat", SPAN_DHET),
            ("sim.step_ns.firefly_sat", SPAN_FIREFLY),
        ] {
            let best = best_span_s(&spans, span).expect("the traced reps recorded this span");
            layers.insert(metric, best * 1e9 / cycles);
        }
        layers.insert(
            "sim.cycles_per_s.load_sat",
            1e9 / layers["sim.step_ns.dhetpnoc_sat"],
        );
        layers.insert("sim.bw_gain_pct", self.bw_gain_pct);

        let low = at_load("d-hetpnoc", self.seed, |ladder| ladder[0]);
        let mid = at_load("d-hetpnoc", self.seed, |ladder| ladder[ladder.len() / 2]);
        let run_s = |scenario: &Scenario| {
            let started = Instant::now();
            black_box(scenario.run_with_mode(SweepMode::Sequential));
            started.elapsed().as_secs_f64()
        };
        let low_s = run_s(&low).min(run_s(&low));
        layers.insert("sim.cycles_per_s.load_low", cycles / low_s);
        layers.insert("sim.cycles_per_s.load_mid", cycles / run_s(&mid));
        // The per-cycle reference executor against the event-driven default,
        // where idle gaps are longest.
        set_event_driven(false);
        let per_cycle_s = run_s(&low);
        set_event_driven(true);
        layers.insert("sim.event_skip_speedup", per_cycle_s / low_s);

        kernels(layers);
    }
}

fn skewed_traffic(load: f64) -> SkewedTraffic {
    SkewedTraffic::new(
        ClusterTopology::paper_default(),
        PacketShape::new(64, 32),
        SkewLevel::Skewed3,
        OfferedLoad::new(load),
        7,
    )
}

/// The kernels of `crates/bench/benches/microbench_{router,dba}.rs`, timed
/// with fixed iteration counts.
fn kernels(layers: &mut Layers) {
    let mut router = ElectricalRouter::new(RouterId(0), RouterSpec::new(5, 16, 64));
    router.set_route_fn(Box::new(|dst| PortId(dst.0 % 5)));
    let (mut cycle, mut packet) = (0u64, 0u64);
    let router_step = ns_per_call(7, 20_000, || {
        for port in 0..5 {
            if let Some(vc) = router.free_input_vc(PortId(port)) {
                packet += 1;
                let flit = Flit {
                    packet: PacketId(packet),
                    kind: FlitKind::Single,
                    payload: FlitPayload::Data,
                    src: CoreId(0),
                    dst: CoreId((port + 1) % 5),
                    seq: 0,
                    packet_len: 1,
                    bits: 32,
                    class: BandwidthClass::MediumHigh,
                    created_cycle: 0,
                    injected_cycle: 0,
                    vc,
                };
                let _ = router.accept(PortId(port), vc, flit, cycle);
            }
        }
        black_box(router.step(cycle, |_, _, _| true).len());
        cycle += 1;
    });
    layers.insert("noc.router_step_ns", router_step);

    let mut arbiter = RoundRobinArbiter::new(16);
    let requests = [true; 16];
    layers.insert(
        "noc.arbiter_grant_ns",
        ns_per_call(7, 200_000, || {
            black_box(arbiter.grant(black_box(&requests)));
        }),
    );

    let mut traffic = skewed_traffic(0.08);
    let cores = ClusterTopology::paper_default().num_cores();
    let mut cycle = 0u64;
    layers.insert(
        "traffic.poll_ns_per_cycle",
        ns_per_call(7, 5_000, || {
            for core in 0..cores {
                black_box(traffic.next_packet(cycle, CoreId(core)));
            }
            cycle += 1;
        }),
    );

    let mut controller = DbaController::new(16, 48, 1, 8, 1);
    controller.set_targets(&[8; 16]);
    layers.insert(
        "core.dba_token_tick_ns",
        ns_per_call(7, 200_000, || {
            black_box(controller.tick());
        }),
    );
    layers.insert(
        "core.dba_converge_us",
        ns_per_call(7, 200, || {
            let mut controller = DbaController::new(16, 48, 1, 8, 1);
            controller.set_targets(&[8; 16]);
            controller.converge(64);
            black_box(controller.allocation_snapshot());
        }) / 1e3,
    );

    let config = SimConfig::paper_default(BandwidthSet::Set1);
    let demand = DemandMatrix::from_model(&skewed_traffic(0.01), 16);
    layers.insert(
        "core.fabric_build_us",
        ns_per_call(7, 200, || {
            black_box(DhetFabric::new(&config, demand.clone()));
        }) / 1e3,
    );
}
