//! Fig. 4 — energy-delay-product of DT-SNN normalized to the static SNN.
//!
//! The paper reports 61.2%–80.9% EDP reduction across the eight
//! architecture × dataset pairs at the iso-accuracy operating point. The
//! underlying runs are identical to Table II, so this binary consumes
//! `bench-results/table2_static_vs_dtsnn.json` when that file records the
//! same experiment config (`DTSNN_SCALE`, `DTSNN_EPOCHS`, `DTSNN_SEED`) as
//! this run (run `table2_static_vs_dtsnn` first), and otherwise says why and
//! recomputes from scratch — the full 16-model training campaign.

use dtsnn_bench::{hardware_profile, json, print_table, train_model, write_json, Arch, ExpConfig};
use dtsnn_core::ThresholdSweep;
use dtsnn_data::Preset;
use dtsnn_snn::LossKind;

const TABLE2: &str = "bench-results/table2_static_vs_dtsnn.json";

/// Table II's EDP rows when its recorded run used `exp`; otherwise why they
/// cannot stand in for this run.
fn from_table2(exp: &ExpConfig) -> Result<EdpRows, String> {
    let raw = std::fs::read_to_string(TABLE2).map_err(|e| format!("cannot read {TABLE2}: {e}"))?;
    let doc = json::from_str(&raw).map_err(|e| format!("{TABLE2} does not parse: {e}"))?;
    let config = [("scale", exp.scale as u64), ("epochs", exp.epochs as u64), ("seed", exp.seed)];
    for (key, own) in config {
        let recorded = doc.get(key);
        if recorded != Some(&json::Value::from(own)) {
            let recorded = recorded.map_or("no".into(), json::to_string_pretty);
            return Err(format!("{TABLE2} records {recorded} {key}, this run uses {own}"));
        }
    }
    let row = |row: &json::Value| {
        Some((
            row.get("arch")?.as_str()?.to_string(),
            row.get("dataset")?.as_str()?.to_string(),
            row.get("edp_ratio")?.as_f64()?,
        ))
    };
    let rows = doc.get("rows").and_then(json::Value::as_array);
    let rows: Option<EdpRows> = rows.and_then(|rows| rows.iter().map(row).collect());
    rows.filter(|r| !r.is_empty()).ok_or_else(|| format!("{TABLE2} has no complete EDP rows"))
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
    let results = match from_table2(&exp) {
        Ok(r) => {
            eprintln!("[fig4] reusing {TABLE2}");
            r
        }
        Err(why) => {
            eprintln!("[fig4] recomputing: {why}");
            recompute(&exp)?
        }
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
