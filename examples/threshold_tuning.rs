//! Threshold tuning: how to pick θ for a deployment. Sweeps the entropy
//! threshold densely, prints the accuracy / average-T / EDP frontier, and
//! selects the iso-accuracy operating point (the Table II protocol).
//!
//! ```sh
//! cargo run --release --example threshold_tuning
//! ```

use dt_snn::data::cifar10_like;
use dt_snn::dtsnn::{HardwareProfile, ThresholdSweep};
use dt_snn::imc::HardwareConfig;
use dt_snn::snn::{vgg_small, LossKind, ModelConfig, SgdConfig, Trainer, TrainerConfig};
use dt_snn::tensor::TensorRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = cifar10_like(1, 19)?;
    let model_cfg = ModelConfig {
        in_channels: data.channels,
        image_size: data.image_size,
        num_classes: data.classes,
        ..ModelConfig::default()
    };
    let mut rng = TensorRng::seed_from(19);
    let mut net = vgg_small(&model_cfg, &mut rng)?;
    println!("training…");
    let trainer = Trainer::new(TrainerConfig {
        epochs: 10,
        batch_size: 32,
        timesteps: 4,
        loss: LossKind::PerTimestep,
        sgd: SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 5e-4 },
        seed: 4,
    })?;
    trainer.fit(&mut net, &data.train.frames(), &data.train.labels())?;

    let profile = HardwareProfile::new(&net, &model_cfg.input_dims(), &HardwareConfig::default())?;
    // dense θ grid — in practice tuned on a validation split
    let thetas: Vec<f32> = (1..=18).map(|i| i as f32 * 0.05).collect();
    let sweep = ThresholdSweep::run(
        &mut net,
        &data.test.frames(),
        &data.test.labels(),
        &thetas,
        4,
        &profile,
    )?;
    let static4 = sweep.static_points.last().expect("static point");
    println!(
        "\nstatic T=4 reference: {:.2}% accuracy, EDP {:.3e}",
        static4.accuracy * 100.0,
        static4.edp
    );
    println!("\n{:>8} {:>8} {:>8} {:>10}", "θ", "acc", "avg T̂", "EDP ratio");
    for p in &sweep.dynamic_points {
        println!(
            "{:>8.2} {:>7.2}% {:>8.2} {:>9.2}×",
            p.theta.expect("dynamic point"),
            p.accuracy * 100.0,
            p.avg_timesteps,
            p.edp / static4.edp
        );
    }
    if let Some(iso) = sweep.iso_accuracy_point(static4.accuracy) {
        println!(
            "\nchosen operating point: {} → {:.2}% accuracy at {:.2} avg timesteps ({:.0}% EDP reduction)",
            iso.label,
            iso.accuracy * 100.0,
            iso.avg_timesteps,
            (1.0 - iso.edp / static4.edp) * 100.0
        );
    }
    Ok(())
}
