//! Extension — device-precision sweep: why Table I picks 4-bit RRAM.
//!
//! Sweeps the per-device bit width (1/2/4/8 bits; 8-bit weights bit-sliced
//! accordingly) and evaluates a trained DT-SNN after deployment through the
//! noisy device model (σ/μ = 20% per device, no discrete faults), as a
//! three-trial Monte-Carlo run per width. Fewer bits per device need more
//! slices (more columns, more ADC conversions → more energy); more bits per
//! device squeeze more levels into the same conductance range, amplifying the
//! impact of variation. The sweep exposes that accuracy/energy trade-off.

use dtsnn_bench::{json, print_table, train_model, write_json, Arch, ExpConfig};
use dtsnn_core::{DynamicInference, ExitPolicy, HardwareProfile, MonteCarloConfig, MonteCarloRobustness};
use dtsnn_data::Preset;
use dtsnn_imc::{FaultModel, HardwareConfig};
use dtsnn_snn::LossKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let exp = ExpConfig::from_env();
    let t_max = 4;
    let dataset = Preset::Cifar10.generate(exp.scale, exp.seed)?;
    let frames = dataset.test.frames();
    let labels = dataset.test.labels();
    eprintln!("[ext-precision] training VGG* (Eq. 10)…");
    let (net, _, model_cfg) = train_model(&dataset, Arch::Vgg, LossKind::PerTimestep, t_max, &exp)?;
    let runner = DynamicInference::new(ExitPolicy::entropy(0.3)?, t_max)?;
    let mc = MonteCarloConfig { trials: 3, seed: exp.seed ^ 0x9E37 };

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for device_bits in [1u32, 2, 4, 8] {
        let hw = HardwareConfig { device_bits, ..HardwareConfig::default() };
        // slices change the mapping, so each width prices its own profile
        let profile = HardwareProfile::new(&net, &model_cfg.input_dims(), &hw)?;
        let run = MonteCarloRobustness::run(
            &net,
            &runner,
            &frames,
            &labels,
            &profile,
            &FaultModel::none(),
            &mc,
        )?;
        rows.push(vec![
            format!("{device_bits}-bit"),
            format!("{}", hw.slices_per_weight()),
            format!("{:.2}%", run.accuracy.mean * 100.0),
            format!("{:.2}", run.avg_timesteps.mean),
            format!("{:.2}", run.energy_pj.mean / 1e6),
        ]);
        json.push(json!({
            "device_bits": device_bits,
            "slices_per_weight": hw.slices_per_weight(),
            "noisy_accuracy": run.accuracy.mean,
            "noisy_accuracy_ci95": run.accuracy.ci95,
            "avg_timesteps": run.avg_timesteps.mean,
            "energy_uj": run.energy_pj.mean / 1e6,
        }));
    }
    print_table(
        "Extension: device-precision sweep (20% variation, DT-SNN θ=0.3, 3 trials)",
        &["device", "slices/weight", "noisy acc", "avg T̂", "energy (µJ)"],
        &rows,
    );
    println!("\nTable I's 4-bit choice balances slice count (energy) against variation sensitivity");
    let path = write_json("ext_precision_sweep", &json::Value::Array(json))?;
    println!("wrote {}", path.display());
    Ok(())
}
