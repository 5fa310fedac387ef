//! Development probe: fast single-dataset check of the accuracy-vs-T shape
//! and the Eq. 9 / Eq. 10 gap. Not part of the paper's experiment set; used
//! to tune LIF/tdBN hyperparameters so the scaled models recreate the
//! paper's qualitative behaviour.

use dtsnn_bench::{env_parse, model_config_for, print_table, ExpConfig};
use dtsnn_core::StaticEvaluation;
use dtsnn_data::Preset;
use dtsnn_snn::{LossKind, SgdConfig, Trainer, TrainerConfig};
use dtsnn_tensor::TensorRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let exp = ExpConfig::from_env();
    let t_max = 4;
    let alpha: f32 = env_parse("DTSNN_ALPHA").unwrap_or(0.0);
    let dataset = Preset::Cifar10.generate(exp.scale, exp.seed)?;
    let mut rows = Vec::new();
    for loss in [LossKind::MeanOutput, LossKind::PerTimestep] {
        let mut cfg = model_config_for(&dataset);
        if alpha > 0.0 {
            cfg.tdbn_alpha = alpha;
        }
        let mut rng = TensorRng::seed_from(exp.seed);
        let mut net = dtsnn_bench::Arch::Vgg.build(&cfg, &mut rng)?;
        let trainer = Trainer::new(TrainerConfig {
            epochs: exp.epochs,
            batch_size: 32,
            timesteps: t_max,
            loss,
            sgd: SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 5e-4 },
            seed: exp.seed ^ 0xBEEF,
        })?;
        let report = trainer.fit(&mut net, &dataset.train.frames(), &dataset.train.labels())?;
        let eval = StaticEvaluation::run(
            &mut net,
            &dataset.test.frames(),
            &dataset.test.labels(),
            t_max,
        )?;
        let mut row = vec![loss.name().to_string(), format!("{:.2}", report.final_accuracy())];
        row.extend(eval.accuracy_by_t.iter().map(|a| format!("{:.1}%", a * 100.0)));
        rows.push(row);
    }
    print_table(
        &format!("probe: CIFAR-10*, epochs={}, alpha={alpha}", exp.epochs),
        &["loss", "train", "T=1", "T=2", "T=3", "T=4"],
        &rows,
    );
    Ok(())
}
