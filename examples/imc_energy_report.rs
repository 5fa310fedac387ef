//! Hardware report: map the paper-size VGG-16 and ResNet-19 onto the
//! Table-I RRAM architecture and print the placement, the component-wise
//! energy breakdown (Fig. 1A), the timestep scaling (Fig. 1B) and the σ–E
//! module overhead — no training required.
//!
//! ```sh
//! cargo run --release --example imc_energy_report
//! ```

use dt_snn::imc::{
    chip_area, AreaConstants, ChipMapping, Component, CostModel, EventSim, HardwareConfig,
    Placement, SigmaEModule, SimOptions,
};
use dt_snn::snn::{resnet19_geometry, vgg16_geometry};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = HardwareConfig::default();
    println!(
        "architecture: {}×{} crossbars, {}/tile, {}-bit devices, {}-bit weights, mux {}:1",
        config.crossbar_size,
        config.crossbar_size,
        config.crossbars_per_tile,
        config.device_bits,
        config.weight_bits,
        config.adc_mux_ratio
    );

    for (name, geometry) in [
        ("VGG-16 (CIFAR-10, 32×32)", vgg16_geometry(32, 3, 10)),
        ("ResNet-19 (CIFAR-10, 32×32)", resnet19_geometry(32, 3, 10)),
        ("VGG-16 (TinyImageNet, 64×64)", vgg16_geometry(64, 3, 200)),
    ] {
        let mapping = ChipMapping::map(&geometry, &config)?;
        println!(
            "\n== {name} ==\n  {} weight layers → {} crossbars, {} tiles, {:.1}% device utilization",
            geometry.len(),
            mapping.total_crossbars(),
            mapping.total_tiles(),
            mapping.utilization() * 100.0
        );
        let model = CostModel::new(mapping, config.clone())?;
        let mut densities = vec![0.2f32; geometry.len()];
        densities[0] = 1.0;
        let cost = model.inference_cost(&densities, 4.0, None)?;
        println!("  energy @T=4: {:.2} µJ  latency: {:.2} µs  EDP: {:.3e} pJ·ns",
            cost.energy_pj() / 1e6, cost.latency_ns() / 1e3, cost.edp());
        for c in Component::ALL {
            let f = cost.energy.fraction(c);
            if f > 0.0 {
                println!("    {:<20} {:>5.1}%", c.name(), f * 100.0);
            }
        }
        let c1 = model.inference_cost(&densities, 1.0, None)?;
        let c8 = model.inference_cost(&densities, 8.0, None)?;
        println!(
            "  T=8 vs T=1: {:.2}× energy, {:.2}× latency (paper: ≈4.9×, 8×)",
            c8.energy_pj() / c1.energy_pj(),
            c8.latency_ns() / c1.latency_ns()
        );
        let ratio = model.sigma_e_energy(10) / model.timestep_energy(&densities)?.total();
        println!("  σ–E module overhead: {ratio:.1e} of one-timestep energy");
        // structural NoC (network-order floorplan, pipelined with link
        // contention) and silicon-area views
        let placement = Placement::linear(model.mapping())?;
        let side = placement.mesh_side();
        let worst_hops =
            (1..geometry.len()).map(|l| placement.hops(l - 1, l)).max().unwrap_or(0);
        let sim = EventSim::new(&model, placement, SimOptions::pipelined())?;
        let sim = sim.run(&densities, 4, None)?;
        println!(
            "  NoC: {side}×{side} tile mesh, worst link {worst_hops} hops, \
             {} flits and {} link-stall cycles @T=4 pipelined",
            sim.link_flits, sim.link_stall_cycles
        );
        let area = chip_area(model.mapping(), &config, &AreaConstants::default())?;
        println!(
            "  area: {:.2} mm² total (σ–E module {:.3}%)",
            area.total_mm2(),
            area.sigma_e / area.total() * 100.0
        );
    }

    // The σ–E module is also functional: quantized LUT softmax + entropy.
    let module = SigmaEModule::new(&config)?;
    let reading = module.evaluate(&[2.5, 0.1, -1.0, 0.3, 0.0, -0.5, 1.0, 0.2, -2.0, 0.4], 0.5)?;
    println!(
        "\nσ–E LUT datapath on sample logits: entropy {:.3}, exit={}",
        reading.entropy, reading.exit
    );
    Ok(())
}
