//! Table II — static SNN vs. DT-SNN: timesteps, accuracy and normalized
//! energy on all four benchmarks × both backbones.
//!
//! Protocol mirrors the paper: both models are trained identically except
//! for the loss (static uses Eq. 9, DT-SNN uses Eq. 10); the static SNN runs
//! the full window (T = 4, or 10 for DVS); DT-SNN sweeps θ and reports the
//! iso-accuracy point. Energy is normalized to the static SNN and computed
//! from measured spike activity through the IMC cost model.

use dtsnn_bench::{hardware_profile, json, print_table, train_model, write_json, Arch, ExpConfig};
use dtsnn_core::ThresholdSweep;
use dtsnn_data::Preset;
use dtsnn_snn::LossKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let exp = ExpConfig::from_env();
    let thetas = [0.02f32, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9];
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for arch in Arch::all() {
        for preset in Preset::all() {
            let t_max = preset.paper_timesteps();
            let dataset = preset.generate(exp.scale, exp.seed)?;
            eprintln!("[table2] {} on {} (T={t_max})…", arch.name(), preset.name());
            // static baseline: Eq. 9 loss
            let (mut static_net, _, model_cfg) =
                train_model(&dataset, arch, LossKind::MeanOutput, t_max, &exp)?;
            // DT-SNN: Eq. 10 loss
            let (mut dt_net, _, _) =
                train_model(&dataset, arch, LossKind::PerTimestep, t_max, &exp)?;
            let profile = hardware_profile(&dt_net, &model_cfg)?;
            let frames = dataset.test.frames();
            let labels = dataset.test.labels();
            // static SNN at full window
            let static_sweep =
                ThresholdSweep::run(&mut static_net, &frames, &labels, &[1e-6], t_max, &profile)?;
            let static_point = static_sweep.static_points.last().expect("max_timesteps ≥ 1");
            // DT-SNN threshold sweep on its own net
            let dt_sweep =
                ThresholdSweep::run(&mut dt_net, &frames, &labels, &thetas, t_max, &profile)?;
            // iso-accuracy selection against the *static* baseline accuracy
            let iso = dt_sweep.iso_accuracy_point(static_point.accuracy).expect("nonempty sweep");
            let energy_ratio = iso.energy_pj / static_point.energy_pj;
            let edp_ratio = iso.edp / static_point.edp;
            rows.push(vec![
                arch.name().into(),
                preset.name().into(),
                "static".into(),
                format!("{t_max}"),
                format!("{:.2}%", static_point.accuracy * 100.0),
                "1.00×".into(),
            ]);
            rows.push(vec![
                String::new(),
                String::new(),
                "DT-SNN".into(),
                format!("{:.2}", iso.avg_timesteps),
                format!("{:.2}%", iso.accuracy * 100.0),
                format!("{energy_ratio:.2}×"),
            ]);
            json.push(json!({
                "arch": arch.name(),
                "dataset": preset.name(),
                "t_max": t_max,
                "static_accuracy": static_point.accuracy,
                "dtsnn_accuracy": iso.accuracy,
                "dtsnn_avg_timesteps": iso.avg_timesteps,
                "dtsnn_theta": iso.theta,
                "energy_ratio": energy_ratio,
                "edp_ratio": edp_ratio,
                "timestep_distribution": &iso.timestep_distribution,
            }));
        }
    }
    print_table(
        "Table II: static SNN vs DT-SNN",
        &["model", "dataset", "method", "T", "acc", "energy"],
        &rows,
    );
    println!("\npaper: DT-SNN reaches static accuracy at ~1.3–5.3 avg timesteps, 0.41–0.60× energy");
    // the experiment config is recorded so `fig4_edp` reuses only its own run
    let path = write_json(
        "table2_static_vs_dtsnn",
        &json!({ "scale": exp.scale, "epochs": exp.epochs, "seed": exp.seed, "rows": json }),
    )?;
    println!("wrote {}", path.display());
    Ok(())
}
