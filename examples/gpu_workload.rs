//! The real-application case study of Section 3.4.2: MUM, BFS, CP, RAY and
//! LPS mapped onto 12 GPU clusters exchanging data with 4 memory clusters.
//! Also prints the Figure 1-1 flit-size speedup study that motivates
//! heterogeneous interconnects in the first place.
//!
//! ```bash
//! cargo run --release --example gpu_workload
//! ```

use d_hetpnoc_repro::prelude::*;

fn main() {
    // Part 1: Figure 1-1 — why heterogeneous bandwidth matters.
    let speedups = GpuSpeedupModel::figure_1_1();
    let mut fig = Table::new(
        "Figure 1-1: speedup of 1024B flits over the 32B baseline",
        &["benchmark", "speedup"],
    );
    let mut rows = speedups.rows();
    rows.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap());
    for (name, _launches, pct) in rows.iter().take(8) {
        fig.add_row(&[name.clone(), format!("{pct:+.2}%")]);
    }
    println!("{fig}");
    println!(
        "{} of {} benchmarks gain <1%; the most bandwidth-hungry gains {:.0}% — only a few\n\
         applications need wide channels, which is what d-HetPNoC exploits.\n",
        speedups.count_below(1.0),
        speedups.benchmarks.len(),
        speedups.max_speedup_percent()
    );

    // Part 2: the GPU + memory-cluster traffic on both architectures.
    let mut config = SimConfig::fast(BandwidthSet::Set1);
    config.sim_cycles = 4_000;
    config.warmup_cycles = 500;
    let shape = PacketShape::new(
        config.bandwidth_set.packet_flits(),
        config.bandwidth_set.flit_bits(),
    );
    let load = OfferedLoad::new(config.estimated_saturation_load() * 1.2);

    let make_traffic = || {
        RealApplicationTraffic::paper_mapping(
            ClusterTopology::paper_default(),
            shape,
            load,
            config.seed,
        )
    };

    let apps = make_traffic();
    let mut mapping = Table::new(
        "Application mapping (Section 3.4.2)",
        &[
            "application",
            "clusters",
            "bandwidth class",
            "relative intensity",
        ],
    );
    for app in apps.applications() {
        mapping.add_row(&[
            app.benchmark.name.clone(),
            format!("{:?}", app.clusters.iter().map(|c| c.0).collect::<Vec<_>>()),
            app.benchmark.bandwidth_class().to_string(),
            format!("{:.2}", app.intensity),
        ]);
    }
    println!("{mapping}");

    let mut firefly = build_firefly_system(config, make_traffic());
    let firefly_stats = run_to_completion(&mut firefly);
    let mut dhet = build_dhetpnoc_system(config, make_traffic());
    let dhet_stats = run_to_completion(&mut dhet);

    println!(
        "d-HetPNoC wavelength pools (clusters 0-11 are GPUs, 12-15 memory): {:?}\n",
        dhet.fabric().controller().allocation_snapshot()
    );

    let mut result = Table::new(
        "Real-application traffic above the saturation estimate",
        &[
            "architecture",
            "accepted bandwidth (Gb/s)",
            "per-core bandwidth (Gb/s)",
            "packet energy (pJ)",
        ],
    );
    for (architecture, stats) in [("firefly", &firefly_stats), ("d-hetpnoc", &dhet_stats)] {
        result.add_row(&[
            architecture.to_string(),
            format!("{:.1}", stats.accepted_bandwidth_gbps()),
            format!("{:.2}", stats.accepted_bandwidth_per_core_gbps(64)),
            format!("{:.1}", stats.packet_energy_pj()),
        ]);
    }
    println!("{result}");
    println!(
        "The memory-bound applications (MUM, BFS) and the memory clusters receive wider\n\
         wavelength pools under d-HetPNoC, which is where its advantage on this workload comes from."
    );
}
