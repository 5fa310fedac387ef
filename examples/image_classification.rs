//! End-to-end image classification: train a spiking VGG on the CIFAR-10
//! stand-in, then compare a static 4-timestep SNN against DT-SNN on
//! accuracy, average timesteps, energy and EDP through the IMC cost model.
//!
//! ```sh
//! cargo run --release --example image_classification
//! ```

use dt_snn::data::cifar10_like;
use dt_snn::dtsnn::{HardwareProfile, ThresholdSweep};
use dt_snn::imc::HardwareConfig;
use dt_snn::snn::{vgg_small, LossKind, ModelConfig, SgdConfig, Trainer, TrainerConfig};
use dt_snn::tensor::TensorRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = cifar10_like(1, 7)?;
    let model_cfg = ModelConfig {
        in_channels: data.channels,
        image_size: data.image_size,
        num_classes: data.classes,
        ..ModelConfig::default()
    };
    let mut rng = TensorRng::seed_from(7);
    let mut net = vgg_small(&model_cfg, &mut rng)?;
    println!("training spiking VGG on {} ({} samples)…", data.name, data.train.len());
    let trainer = Trainer::new(TrainerConfig {
        epochs: 10,
        batch_size: 32,
        timesteps: 4,
        loss: LossKind::PerTimestep,
        sgd: SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 5e-4 },
        seed: 3,
    })?;
    trainer.fit(&mut net, &data.train.frames(), &data.train.labels())?;

    // Map the network onto the Table-I RRAM architecture and sweep exit
    // thresholds to trace the accuracy–EDP trade-off.
    let profile = HardwareProfile::new(&net, &model_cfg.input_dims(), &HardwareConfig::default())?;
    let sweep = ThresholdSweep::run(
        &mut net,
        &data.test.frames(),
        &data.test.labels(),
        &[0.1, 0.3, 0.7],
        4,
        &profile,
    )?;
    let base = sweep.baseline_edp();
    println!("\n{:<14} {:>8} {:>8} {:>14}", "point", "acc", "avg T", "EDP vs T=1");
    for p in sweep.static_points.iter().chain(&sweep.dynamic_points) {
        println!(
            "{:<14} {:>7.2}% {:>8.2} {:>13.2}×",
            p.label,
            p.accuracy * 100.0,
            p.avg_timesteps,
            p.edp / base
        );
    }
    let static4 = sweep.static_points.last().expect("static point");
    if let Some(iso) = sweep.iso_accuracy_point(static4.accuracy) {
        println!(
            "\nDT-SNN matches the static T=4 accuracy with {:.2} average timesteps and {:.0}% less EDP",
            iso.avg_timesteps,
            (1.0 - iso.edp / static4.edp) * 100.0
        );
    }
    Ok(())
}
