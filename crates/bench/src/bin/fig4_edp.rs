//! Fig. 4 — energy-delay-product of DT-SNN normalized to the static SNN.
//!
//! The paper reports 61.2%–80.9% EDP reduction across the eight
//! architecture × dataset pairs at the iso-accuracy operating point. The
//! underlying runs are identical to Table II, so this binary consumes
//! `bench-results/table2_static_vs_dtsnn.json` when it exists (run
//! `table2_static_vs_dtsnn` first) and only recomputes from scratch — the
//! full 16-model training campaign — when it does not.

use dtsnn_bench::{hardware_profile, json, print_table, train_model, write_json, Arch, ExpConfig};
use dtsnn_core::ThresholdSweep;
use dtsnn_data::Preset;
use dtsnn_snn::LossKind;

fn from_table2() -> Option<EdpRows> {
    let raw = std::fs::read_to_string("bench-results/table2_static_vs_dtsnn.json").ok()?;
    let rows: json::Value = json::from_str(&raw).ok()?;
    let mut out = Vec::new();
    for row in rows.as_array()? {
        out.push((
            row.get("arch")?.as_str()?.to_string(),
            row.get("dataset")?.as_str()?.to_string(),
            row.get("edp_ratio")?.as_f64()?,
        ));
    }
    (!out.is_empty()).then_some(out)
}

/// (arch, dataset, EDP ratio) rows.
type EdpRows = Vec<(String, String, f64)>;

fn recompute(exp: &ExpConfig) -> Result<EdpRows, Box<dyn std::error::Error>> {
    let thetas = [0.02f32, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9];
    let mut out = Vec::new();
    for arch in Arch::all() {
        for preset in Preset::all() {
            let t_max = preset.paper_timesteps();
            let dataset = preset.generate(exp.scale, exp.seed)?;
            eprintln!("[fig4] {} on {}…", arch.name(), preset.name());
            let (mut static_net, _, model_cfg) =
                train_model(&dataset, arch, LossKind::MeanOutput, t_max, exp)?;
            let (mut dt_net, _, _) =
                train_model(&dataset, arch, LossKind::PerTimestep, t_max, exp)?;
            let profile = hardware_profile(&dt_net, &model_cfg)?;
            let frames = dataset.test.frames();
            let labels = dataset.test.labels();
            let static_sweep =
                ThresholdSweep::run(&mut static_net, &frames, &labels, &[1e-6], t_max, &profile)?;
            let static_point = static_sweep.static_points.last().expect("nonempty");
            let dt_sweep =
                ThresholdSweep::run(&mut dt_net, &frames, &labels, &thetas, t_max, &profile)?;
            let iso = dt_sweep.iso_accuracy_point(static_point.accuracy).expect("nonempty sweep");
            out.push((
                arch.name().to_string(),
                preset.name().to_string(),
                iso.edp / static_point.edp,
            ));
        }
    }
    Ok(out)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let exp = ExpConfig::from_env();
    let results = match from_table2() {
        Some(r) => {
            eprintln!("[fig4] reusing bench-results/table2_static_vs_dtsnn.json");
            r
        }
        None => recompute(&exp)?,
    };
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (arch, dataset, edp_ratio) in &results {
        rows.push(vec![
            format!("{arch} / {dataset}"),
            format!("{edp_ratio:.3}"),
            format!("{:.1}%", (1.0 - edp_ratio) * 100.0),
        ]);
        json.push(json!({
            "arch": arch,
            "dataset": dataset,
            "edp_ratio": edp_ratio,
            "edp_reduction_percent": (1.0 - edp_ratio) * 100.0,
        }));
    }
    print_table(
        "Fig. 4: EDP of DT-SNN normalized to static SNN",
        &["config", "EDP ratio", "reduction"],
        &rows,
    );
    println!("\npaper: 61.2%–80.9% EDP reduction");
    let path = write_json("fig4_edp", &json::Value::Array(json))?;
    println!("wrote {}", path.display());
    Ok(())
}
