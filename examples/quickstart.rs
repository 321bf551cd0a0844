//! Quick start: describe both architectures as scenarios, run them as one
//! batch, and print the headline comparison (peak bandwidth and packet
//! energy at saturation).
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use d_hetpnoc_repro::prelude::*;

fn main() {
    // Make "firefly" and "d-hetpnoc" resolvable by name.
    d_hetpnoc_repro::install_architectures();

    let config = Effort::Quick.config(BandwidthSet::Set1);
    println!("d-HetPNoC reproduction — quick start");
    println!(
        "  {} cores in {} clusters, {} total wavelengths, skewed-3 traffic\n",
        config.topology.num_cores(),
        config.topology.num_clusters(),
        config.bandwidth_set.total_wavelengths(),
    );

    // One typed scenario per architecture; the matrix engine flattens every
    // (scenario, ladder point) pair into a single parallel work queue.
    let batch = ScenarioMatrix::new()
        .architectures(["firefly", "d-hetpnoc"])
        .traffics(["skewed-3"])
        .bandwidth_sets([BandwidthSet::Set1])
        .effort(Effort::Quick)
        .run()
        .expect("architectures and workload are registered");

    // The d-HetPNoC wavelength allocation adapts to the skewed demand; show
    // the per-cluster snapshot from a directly built system.
    let traffic = SkewedTraffic::new(
        ClusterTopology::paper_default(),
        PacketShape::new(
            config.bandwidth_set.packet_flits(),
            config.bandwidth_set.flit_bits(),
        ),
        SkewLevel::Skewed3,
        OfferedLoad::new(config.estimated_saturation_load()),
        config.seed,
    );
    let dhet_system = build_dhetpnoc_system(config, traffic);
    println!(
        "  d-HetPNoC wavelength allocation per cluster: {:?}\n",
        dhet_system.fabric().pools()
    );

    let mut table = Table::new(
        "Skewed-3 traffic, saturation sweep (reduced scale)",
        &[
            "scenario",
            "sustainable BW (Gb/s)",
            "latency@sat (cycles)",
            "p95 latency (cycles)",
            "packet energy (pJ)",
        ],
    );
    for outcome in &batch.scenarios {
        // Every ladder point carries a typed MetricReport; the saturation
        // point's quantile sketch gives the tail latency for free.
        let p95 = outcome
            .result
            .saturation_point()
            .and_then(|p| p.metrics.histogram("latency_cycles"))
            .and_then(|h| h.percentile(95.0))
            .map_or_else(|| "-".to_string(), |v| v.to_string());
        table.add_row(&[
            outcome.spec.id(),
            format!("{:.1}", outcome.result.sustainable_bandwidth_gbps()),
            format!("{:.1}", outcome.result.latency_at_saturation()),
            p95,
            format!("{:.1}", outcome.result.packet_energy_at_saturation_pj()),
        ]);
    }
    println!("{table}");

    let firefly = &batch.scenarios[0].result;
    let dhet = &batch.scenarios[1].result;
    let gain = (dhet.sustainable_bandwidth_gbps() - firefly.sustainable_bandwidth_gbps())
        / firefly.sustainable_bandwidth_gbps().max(1e-9)
        * 100.0;
    println!(
        "d-HetPNoC sustainable bandwidth vs Firefly: {gain:+.2}% \
         (the paper reports gains of up to ~7% at saturation for skewed traffic)"
    );
}
