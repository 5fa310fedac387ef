//! Fig. 6 — (A) comparison with prior training methods (tdBN, Dspike) and
//! (B) accuracy under 20% device-conductance variation.
//!
//! Panel A trains the same backbone three ways: a tdBN-style baseline
//! (rectangular surrogate + Eq. 9 loss), a Dspike-style baseline (smooth
//! temperature surrogate + Eq. 9), and ours (Eq. 10 per-timestep loss), then
//! reports accuracy at every timestep budget, plus the DT-SNN point.
//! Panel B re-evaluates the static and DT-SNN models after pushing the
//! trained weights through the 4-bit RRAM device model with σ/μ = 20%,
//! using the Monte-Carlo robustness harness: N seeded programming-variation
//! draws (the null fault model — Table I device statistics only) with
//! accuracy reported as mean ± 95% CI.

use dtsnn_bench::{
    hardware_profile, json, model_config_for, print_table, write_json, Arch, ExpConfig,
};
use dtsnn_core::{
    DynamicEvaluation, DynamicInference, ExitPolicy, MonteCarloConfig, MonteCarloRobustness,
    MonteCarloStatic, StaticEvaluation,
};
use dtsnn_data::Preset;
use dtsnn_imc::FaultModel;
use dtsnn_snn::{
    LifConfig, LossKind, SgdConfig, Snn, Surrogate, Trainer, TrainerConfig,
};
use dtsnn_tensor::TensorRng;

fn train_variant(
    dataset: &dtsnn_data::Dataset,
    surrogate: Surrogate,
    loss: LossKind,
    t_max: usize,
    exp: &ExpConfig,
) -> Result<Snn, Box<dyn std::error::Error>> {
    let mut cfg = model_config_for(dataset);
    cfg.lif = LifConfig { surrogate, ..cfg.lif };
    let mut rng = TensorRng::seed_from(exp.seed);
    let mut net = Arch::Vgg.build(&cfg, &mut rng)?;
    let trainer = Trainer::new(TrainerConfig {
        epochs: exp.epochs,
        batch_size: 32,
        timesteps: t_max,
        loss,
        sgd: SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 5e-4 },
        seed: exp.seed ^ 0xBEEF,
    })?;
    trainer.fit(&mut net, &dataset.train.frames(), &dataset.train.labels())?;
    Ok(net)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let exp = ExpConfig::from_env();
    let t_max = 4;
    let preset = Preset::Cifar10;
    let dataset = preset.generate(exp.scale, exp.seed)?;
    let frames = dataset.test.frames();
    let labels = dataset.test.labels();

    // ---- Panel A: prior-work comparison ------------------------------------
    eprintln!("[fig6A] training tdBN baseline…");
    let mut tdbn = train_variant(&dataset, Surrogate::Rectangular, LossKind::MeanOutput, t_max, &exp)?;
    eprintln!("[fig6A] training Dspike baseline…");
    let mut dspike =
        train_variant(&dataset, Surrogate::Dspike { b: 3.0 }, LossKind::MeanOutput, t_max, &exp)?;
    eprintln!("[fig6A] training ours (Eq. 10)…");
    let mut ours = train_variant(&dataset, Surrogate::Rectangular, LossKind::PerTimestep, t_max, &exp)?;

    let mut rows = Vec::new();
    let mut json_a = json::Map::new();
    for (name, net) in [("tdBN", &mut tdbn), ("Dspike", &mut dspike), ("ours (static)", &mut ours)]
    {
        let eval = StaticEvaluation::run(net, &frames, &labels, t_max)?;
        let mut row = vec![name.to_string()];
        row.extend(eval.accuracy_by_t.iter().map(|a| format!("{:.2}%", a * 100.0)));
        rows.push(row);
        json_a.insert(name.to_string(), json!(eval.accuracy_by_t));
    }
    // DT-SNN row: ours + entropy exit
    let runner = DynamicInference::new(ExitPolicy::entropy(0.3)?, t_max)?;
    let dt_eval = DynamicEvaluation::run_batched(&mut ours, &runner, &frames, &labels, None, 32)?;
    rows.push(vec![
        "ours (DT-SNN θ=0.3)".into(),
        format!("T̂={:.2}", dt_eval.avg_timesteps),
        String::new(),
        String::new(),
        format!("{:.2}%", dt_eval.accuracy * 100.0),
    ]);
    print_table(
        "Fig. 6(A): accuracy vs timesteps — prior work comparison (VGG*, CIFAR-10*)",
        &["method", "T=1", "T=2", "T=3", "T=4"],
        &rows,
    );

    // ---- Panel B: device-variation robustness ------------------------------
    // Monte-Carlo over programming variation alone: the null fault model
    // leaves only Table I's σ/μ = 20% conductance spread, drawn fresh per
    // trial. Identical mc seeds give the static baseline and DT-SNN the
    // same damaged substrates.
    let profile = hardware_profile(&ours, &model_config_for(&dataset))?;
    let variation = FaultModel::none();
    let mc = MonteCarloConfig { trials: 5, seed: exp.seed ^ 0x0A05E };
    eprintln!("[fig6B] {} Monte-Carlo variation draws per model…", mc.trials);
    let s_mc = MonteCarloStatic::run(&tdbn, &frames, &labels, t_max, &profile, &variation, &mc)?;
    let d_mc =
        MonteCarloRobustness::run(&ours, &runner, &frames, &labels, &profile, &variation, &mc)?;
    let pct = |s: &dtsnn_core::Statistic| {
        format!("{:.2}% ± {:.2}%", s.mean * 100.0, s.ci95 * 100.0)
    };
    let rows_b = vec![
        vec![
            format!("tdBN static @T={t_max}"),
            pct(&s_mc.accuracy),
            String::new(),
        ],
        vec![
            "ours DT-SNN θ=0.3".into(),
            pct(&d_mc.accuracy),
            format!("T̂ = {}", d_mc.avg_timesteps.display(2)),
        ],
    ];
    print_table(
        &format!("Fig. 6(B): accuracy under 20% device variation ({} trials, mean ± 95% CI)", mc.trials),
        &["model", "accuracy (NI)", "timesteps"],
        &rows_b,
    );
    let json_b = json!({
        "trials": mc.trials,
        "mc_seed": mc.seed,
        "static_noisy_accuracy": json!({
            "mean": s_mc.accuracy.mean, "std": s_mc.accuracy.std_dev, "ci95": s_mc.accuracy.ci95,
            "per_trial": s_mc.trials.iter().map(|t| t.accuracy).collect::<Vec<_>>(),
        }),
        "dtsnn_noisy_accuracy": json!({
            "mean": d_mc.accuracy.mean, "std": d_mc.accuracy.std_dev, "ci95": d_mc.accuracy.ci95,
            "per_trial": d_mc.trials.iter().map(|t| t.accuracy).collect::<Vec<_>>(),
        }),
        "dtsnn_avg_timesteps": json!({"mean": d_mc.avg_timesteps.mean, "ci95": d_mc.avg_timesteps.ci95}),
        "quarantined_total": d_mc.quarantined_total,
    });
    println!("\npaper: DT-SNN maintains higher accuracy than static SNN under variation");
    let path = write_json(
        "fig6_prior_and_noise",
        &json!({"panel_a": json_a, "panel_b": json_b}),
    )?;
    println!("wrote {}", path.display());
    Ok(())
}
