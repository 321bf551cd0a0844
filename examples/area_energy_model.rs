//! The analytic cost models of the thesis: the electro-optic device area
//! model of Section 3.4.3 (equations 5–24) and the packet-energy coefficients
//! of Tables 3-4 / 3-5.
//!
//! ```bash
//! cargo run --release --example area_energy_model
//! ```

use d_hetpnoc_repro::prelude::*;

fn main() {
    // Area model (Figure 3-6 and the 1.608 / 1.367 mm² anchors).
    let model = AreaModel::paper_default();
    let mut area = Table::new(
        "Electro-optic device area vs aggregate bandwidth (equations 5-24)",
        &[
            "wavelengths",
            "Firefly rings",
            "d-HetPNoC rings",
            "Firefly mm²",
            "d-HetPNoC mm²",
        ],
    );
    for wavelengths in [64usize, 128, 256, 512] {
        let f = model.firefly_report(wavelengths);
        let d = model.dynamic_report(wavelengths);
        area.add_row(&[
            wavelengths.to_string(),
            f.rings.total_rings().to_string(),
            d.rings.total_rings().to_string(),
            format!("{:.3}", f.area_mm2),
            format!("{:.3}", d.area_mm2),
        ]);
    }
    println!("{area}");
    println!(
        "At 64 data wavelengths the model reproduces the paper's 1.608 mm² (d-HetPNoC) vs \
         1.367 mm² (Firefly).\n"
    );

    // Energy model.
    let energy = PhotonicEnergyModel::paper_default();
    println!(
        "photonic link energy: {:.2} pJ/bit (launch {} + modulation {} + tuning {})",
        energy.photonic_link_pj_per_bit(),
        energy.launch_pj_per_bit,
        energy.modulation_pj_per_bit,
        energy.tuning_pj_per_bit
    );
    let packet_bits = 2048u64;
    println!(
        "a {packet_bits}-bit packet costs {:.0} pJ on the photonic link and {:.0} pJ per electrical \
         router traversal\n",
        energy.photonic_transfer_pj(packet_bits),
        energy.router_traversal_pj(packet_bits)
    );
}
