//! Fig. 5 — accuracy vs. EDP trade-off curves with T̂ distribution pies.
//!
//! Static SNN points at T ∈ {1,2,3,4}; DT-SNN points at three thresholds.
//! EDP is normalized to the 1-timestep static SNN, and each DT-SNN point
//! carries its timestep distribution (the paper's pie charts, here as
//! percentage rows). DT-SNN should sit top-left of the static curve.

use dtsnn_bench::{hardware_profile, json, print_table, train_model, write_json, Arch, ExpConfig};
use dtsnn_core::ThresholdSweep;
use dtsnn_data::Preset;
use dtsnn_snn::LossKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let exp = ExpConfig::from_env();
    let thetas = [0.1f32, 0.3, 0.7];
    let t_max = 4;
    let mut json = Vec::new();
    for arch in Arch::all() {
        for preset in [Preset::Cifar10, Preset::Cifar100] {
            let dataset = preset.generate(exp.scale, exp.seed)?;
            eprintln!("[fig5] {} on {}…", arch.name(), preset.name());
            let (mut net, _, model_cfg) =
                train_model(&dataset, arch, LossKind::PerTimestep, t_max, &exp)?;
            let profile = hardware_profile(&net, &model_cfg)?;
            let sweep = ThresholdSweep::run(
                &mut net,
                &dataset.test.frames(),
                &dataset.test.labels(),
                &thetas,
                t_max,
                &profile,
            )?;
            let base_edp = sweep.baseline_edp();
            let mut rows = Vec::new();
            for p in sweep.static_points.iter().chain(&sweep.dynamic_points) {
                let dist = if p.timestep_distribution.is_empty() {
                    "-".to_string()
                } else {
                    p.timestep_distribution
                        .iter()
                        .map(|f| format!("{:.0}%", f * 100.0))
                        .collect::<Vec<_>>()
                        .join("/")
                };
                rows.push(vec![
                    p.label.clone(),
                    format!("{:.2}%", p.accuracy * 100.0),
                    format!("{:.2}", p.avg_timesteps),
                    format!("{:.2}×", p.edp / base_edp),
                    dist,
                ]);
            }
            print_table(
                &format!("Fig. 5: accuracy vs EDP — {} / {}", arch.name(), preset.name()),
                &["point", "acc", "avg T", "EDP (vs static T=1)", "T̂ dist (1/2/3/4)"],
                &rows,
            );
            json.push(json!({
                "arch": arch.name(),
                "dataset": preset.name(),
                "static": sweep.static_points.iter().map(|p| json!({
                    "label": &p.label, "accuracy": p.accuracy, "edp_norm": p.edp / base_edp,
                })).collect::<Vec<_>>(),
                "dynamic": sweep.dynamic_points.iter().map(|p| json!({
                    "label": &p.label, "accuracy": p.accuracy, "edp_norm": p.edp / base_edp,
                    "avg_timesteps": p.avg_timesteps,
                    "distribution": &p.timestep_distribution,
                })).collect::<Vec<_>>(),
            }));
        }
    }
    println!("\npaper: DT-SNN sits top-left of the static curve; T̂=1 dominates the pies");
    let path = write_json("fig5_accuracy_edp_curve", &json::Value::Array(json))?;
    println!("wrote {}", path.display());
    Ok(())
}
