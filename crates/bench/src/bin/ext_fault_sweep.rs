//! Extension — graceful degradation of DT-SNN on a damaged IMC substrate.
//!
//! Trains the VGG backbone once, then sweeps a composite fault model
//! (stuck-at devices, read noise, conductance drift, dead word/bitlines)
//! across severity multipliers. Every severity is evaluated with the
//! Monte-Carlo robustness harness — N independent seeded fault draws over
//! the chip mapping, common random numbers across severities — reporting
//! accuracy, average exit timestep T̂, energy and EDP as mean ± 95% CI.
//! The interesting DT-SNN-specific effect: as damage corrupts the logits,
//! the entropy policy loses confidence and T̂ *rises* — the network spends
//! its timestep budget trying to compensate before accuracy collapses.
//!
//! Env: `DTSNN_TRIALS` (default 5) overrides the Monte-Carlo trial count;
//! `DTSNN_THETA` (default 0.7) the entropy exit threshold. The default θ is
//! looser than the iso-accuracy θ=0.3 of Table II because the baseline here
//! already carries Table I's σ/μ = 20% programming variation, which lifts
//! every sample's entropy; θ=0.7 leaves the healthy-chip baseline exit-rich
//! (T̂ ≈ 2.8) so the damage-induced T̂ climb is visible.

use dtsnn_bench::{
    env_parse, hardware_profile, json, print_table, train_model, write_json, Arch, ExpConfig,
};
use dtsnn_core::{degradation_sweep, DynamicInference, ExitPolicy, MonteCarloConfig};
use dtsnn_data::Preset;
use dtsnn_imc::FaultModel;
use dtsnn_snn::LossKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let exp = ExpConfig::from_env();
    let trials: usize = env_parse("DTSNN_TRIALS").unwrap_or(5).max(1);
    let theta: f32 = env_parse("DTSNN_THETA").unwrap_or(0.7);
    let t_max = 4;
    let preset = Preset::Cifar10;
    let dataset = preset.generate(exp.scale, exp.seed)?;
    let frames = dataset.test.frames();
    let labels = dataset.test.labels();

    eprintln!("[fault_sweep] training VGG backbone…");
    let (net, _, model_cfg) = train_model(&dataset, Arch::Vgg, LossKind::PerTimestep, t_max, &exp)?;
    let profile = hardware_profile(&net, &model_cfg)?;
    let runner = DynamicInference::new(ExitPolicy::entropy(theta)?, t_max)?;

    // severity 1.0 = a plausibly aged chip; 4.0 = heavy damage. The mix is
    // dominated by signal-*flattening* faults (stuck-off, drift, dead lines —
    // the common RRAM endurance failures); stuck-ON is kept rare because a
    // saturated device produces spuriously *confident* logits, which reads
    // as low entropy rather than damage.
    let base = FaultModel {
        stuck_on_rate: 1e-3,
        stuck_off_rate: 2.5e-2,
        read_sigma: 0.05,
        drift: 0.03,
        dead_wordline_rate: 2e-3,
        dead_bitline_rate: 2e-3,
    };
    // sweep up to the full aged-chip model; past 1.0× the network is near
    // chance and stuck-device saturation starts producing confidently-wrong
    // early exits, which muddies rather than informs the curve
    let severities = [0.0, 0.25, 0.5, 1.0];
    let mc = MonteCarloConfig { trials, seed: exp.seed ^ 0xFA17 };
    eprintln!("[fault_sweep] sweeping {} severities × {trials} trials…", severities.len());
    let points = degradation_sweep(&net, &runner, &frames, &labels, &profile, &base, &severities, &mc)?;

    let mut rows = Vec::new();
    let mut json_points = Vec::new();
    for p in &points {
        let r = &p.result;
        let stuck = r.trials.iter().map(|t| t.report.stuck_fraction()).sum::<f64>()
            / r.trials.len() as f64;
        rows.push(vec![
            format!("{:.1}×", p.severity),
            format!("{:.3}%", stuck * 100.0),
            format!("{} ± {}", fmt_pct(r.accuracy.mean), fmt_pct(r.accuracy.ci95)),
            r.avg_timesteps.display(3),
            r.edp.display(1),
            r.quarantined_total.to_string(),
        ]);
        json_points.push(json!({
            "severity": p.severity,
            "model": json!({
                "stuck_on_rate": p.model.stuck_on_rate,
                "stuck_off_rate": p.model.stuck_off_rate,
                "read_sigma": p.model.read_sigma,
                "drift": p.model.drift,
                "dead_wordline_rate": p.model.dead_wordline_rate,
                "dead_bitline_rate": p.model.dead_bitline_rate,
            }),
            "stuck_device_fraction": stuck,
            "accuracy": stat_json(&r.accuracy),
            "avg_timesteps": stat_json(&r.avg_timesteps),
            "energy_pj": stat_json(&r.energy_pj),
            "edp": stat_json(&r.edp),
            "quarantined_total": r.quarantined_total,
            "trial_accuracies": r.trials.iter().map(|t| t.accuracy).collect::<Vec<_>>(),
        }));
    }
    print_table(
        &format!("Graceful degradation under IMC faults (VGG*, θ={theta}, {trials} trials)"),
        &["severity", "stuck", "accuracy", "T̂ (mean ± ci)", "EDP pJ·ns", "quarantined"],
        &rows,
    );
    println!("\nexpected: accuracy degrades monotonically with severity while T̂ rises —");
    println!("the entropy policy spends more timesteps as the damaged logits lose confidence");

    let path = write_json(
        "fault_sweep",
        &json!({
            "trials": trials,
            "theta": theta,
            "t_max": t_max,
            "mc_seed": mc.seed,
            "points": json_points,
        }),
    )?;
    println!("wrote {}", path.display());
    Ok(())
}

fn fmt_pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

fn stat_json(s: &dtsnn_core::Statistic) -> json::Value {
    json!({"mean": s.mean, "std": s.std_dev, "ci95": s.ci95})
}
