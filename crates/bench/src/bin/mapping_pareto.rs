//! Extension — mapping-search Pareto front over the IMC design space.
//!
//! Sweeps hardware variants (crossbar size × ADC column-mux ratio) for both
//! full-size backbones and, per variant, runs the annealed layer→tile
//! placement search ([`dtsnn_imc::search_placement`]) on the event-driven
//! simulator to get the best achievable EDP. Each variant is scored on
//! three axes:
//!
//! * **area** — provisioned √N×√N mesh silicon ([`provisioned_area_mm2`]),
//! * **EDP** — the searched placement's event-simulated energy-delay
//!   product (pipelined schedule, link contention and finite buffers on),
//! * **fault accuracy** — Monte-Carlo mean accuracy of the trained scaled
//!   stand-in mapped under the *same* hardware variant with a moderately
//!   aged-chip fault model (half the severity of `ext_fault_sweep`'s base).
//!
//! The non-dominated variants form the committed Pareto front. The mux
//! ratio trades area against EDP at equal accuracy (EDP is U-shaped in
//! the ratio, so past its minimum fewer ADC groups keep shrinking silicon
//! while EDP climbs); the crossbar size moves all three axes (mapping
//! granularity changes tile count, stage balance and the blast radius of
//! dead word/bitlines), so the front is non-degenerate.
//!
//! Env: `DTSNN_TRIALS` (default 3) Monte-Carlo trials per variant;
//! `DTSNN_SEARCH_ROUNDS` (default 12) annealing rounds;
//! `DTSNN_AREA_BUDGET_MM2` (optional) excludes variants over the budget
//! from the front; plus the usual `DTSNN_SCALE`/`DTSNN_EPOCHS`/`DTSNN_SEED`.

use dtsnn_bench::{env_parse, json, print_table, train_model, write_json, Arch, ExpConfig};
use dtsnn_core::{DynamicInference, ExitPolicy, HardwareProfile, MonteCarloConfig, MonteCarloRobustness};
use dtsnn_data::Preset;
use dtsnn_imc::{
    pareto_front, provisioned_area_mm2, search_placement, AnnealOptions, AreaConstants,
    ChipMapping, CostModel, FaultModel, HardwareConfig, ParetoPoint, Placement,
};
use dtsnn_snn::{resnet19_geometry, vgg16_geometry, LossKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let exp = ExpConfig::from_env();
    let trials: usize = env_parse("DTSNN_TRIALS").unwrap_or(3).max(1);
    let rounds: usize = env_parse("DTSNN_SEARCH_ROUNDS").unwrap_or(12).max(1);
    let budget: Option<f64> = env_parse("DTSNN_AREA_BUDGET_MM2");
    let t_max = 4;
    let theta = 0.7f32;
    let preset = Preset::Cifar10;
    let dataset = preset.generate(exp.scale, exp.seed)?;
    let frames = dataset.test.frames();
    let labels = dataset.test.labels();
    let runner = DynamicInference::new(ExitPolicy::entropy(theta)?, t_max)?;

    // Half of ext_fault_sweep's aged-chip severity: enough damage that the
    // crossbar granularity matters, not enough to flatten every variant to
    // chance (which would collapse the accuracy axis).
    let faults = FaultModel {
        stuck_on_rate: 5e-4,
        stuck_off_rate: 1.25e-2,
        read_sigma: 0.025,
        drift: 0.015,
        dead_wordline_rate: 1e-3,
        dead_bitline_rate: 1e-3,
    };
    let mc = MonteCarloConfig { trials, seed: exp.seed ^ 0x9A7E70 };

    // (crossbar rows/cols, ADC column-mux ratio). Per crossbar size: the
    // EDP-minimizing mux and the area-minimizing mux (= crossbar size, one
    // ADC group per crossbar). EDP is U-shaped in the mux ratio — latency
    // falls with fewer serialized conversion groups while mux energy grows
    // linearly — so past the minimum, area keeps shrinking as EDP rises:
    // a genuine trade at equal accuracy.
    let variants: [(usize, usize); 6] =
        [(32, 16), (32, 32), (64, 16), (64, 64), (128, 32), (128, 128)];

    let mut arch_docs = Vec::new();
    for arch in Arch::all() {
        let full_geometry = match arch {
            Arch::Vgg => vgg16_geometry(32, 3, 10),
            Arch::ResNet => resnet19_geometry(32, 3, 10),
        };
        eprintln!("[mapping_pareto] training {} stand-in…", arch.name());
        let (net, _, model_cfg) =
            train_model(&dataset, arch, LossKind::PerTimestep, t_max, &exp)?;

        let mut points = Vec::new();
        let mut variant_docs = Vec::new();
        let mut rows = Vec::new();
        for &(crossbar, mux) in &variants {
            let hw = HardwareConfig {
                crossbar_size: crossbar,
                adc_mux_ratio: mux,
                ..HardwareConfig::default()
            };
            // area + EDP axes: the full-size backbone on this variant
            let mapping = ChipMapping::map(&full_geometry, &hw)?;
            let cost = CostModel::new(mapping, hw.clone())?;
            let mut densities = vec![0.2f32; cost.mapping().layers().len()];
            densities[0] = 1.0; // analog-encoded input layer
            let anneal = AnnealOptions {
                seed: exp.seed ^ 0x5EA_12C4,
                rounds,
                timesteps: t_max,
                classes: Some(model_cfg.num_classes),
                ..AnnealOptions::default()
            };
            eprintln!(
                "[mapping_pareto] {} xb={crossbar} mux={mux}: searching placement…",
                arch.name()
            );
            let search = search_placement(&cost, &densities, &anneal)?;
            let mesh_side = Placement::linear(cost.mapping())?.mesh_side();
            let area = provisioned_area_mm2(&cost, &AreaConstants::default(), mesh_side)?;

            // accuracy axis: the trained stand-in mapped under the same variant
            let profile = HardwareProfile::new(&net, &model_cfg.input_dims(), &hw)?;
            let robust =
                MonteCarloRobustness::run(&net, &runner, &frames, &labels, &profile, &faults, &mc)?;

            points.push(ParetoPoint {
                area_mm2: area,
                edp: search.best_edp,
                fault_accuracy: robust.accuracy.mean,
            });
            rows.push(vec![
                format!("{crossbar}×{crossbar}"),
                mux.to_string(),
                format!("{area:.2}"),
                format!("{:.3e}", search.best_edp),
                format!("{:.1}%", 100.0 * (1.0 - search.best_edp / search.identity_edp)),
                format!("{:.2}% ± {:.2}%", robust.accuracy.mean * 100.0, robust.accuracy.ci95 * 100.0),
            ]);
            variant_docs.push(json!({
                "crossbar_size": crossbar,
                "adc_mux_ratio": mux,
                "mesh_side": mesh_side,
                "area_mm2": area,
                "edp": search.best_edp,
                "identity_edp": search.identity_edp,
                "greedy_edp": search.greedy_edp,
                "search_evaluations": search.evaluations,
                "best_order": search.best_order.clone(),
                "fault_accuracy": robust.accuracy.mean,
                "fault_accuracy_ci95": robust.accuracy.ci95,
                "avg_timesteps": robust.avg_timesteps.mean,
            }));
        }

        // the front is computed over the variants inside the area budget
        let eligible: Vec<usize> = (0..points.len())
            .filter(|&i| budget.is_none_or(|b| points[i].area_mm2 <= b))
            .collect();
        let sub: Vec<ParetoPoint> = eligible.iter().map(|&i| points[i]).collect();
        let front: Vec<usize> = pareto_front(&sub).into_iter().map(|k| eligible[k]).collect();
        for (i, row) in rows.iter_mut().enumerate() {
            row.push(if front.contains(&i) { "◆".into() } else { String::new() });
        }
        print_table(
            &format!("{} mapping-search Pareto sweep ({trials} MC trials)", arch.name()),
            &["crossbar", "mux", "area mm²", "EDP pJ·ns", "search gain", "fault accuracy", "front"],
            &rows,
        );
        if front.len() < 3 {
            eprintln!(
                "[mapping_pareto] warning: {} front has only {} points",
                arch.name(),
                front.len()
            );
        }
        arch_docs.push(json!({
            "arch": arch.name(),
            "full_network": match arch { Arch::Vgg => "VGG-16", Arch::ResNet => "ResNet-19" },
            "variants": variant_docs,
            "pareto_front": front,
        }));
    }

    println!("\nexpected: per architecture, ≥3 non-dominated variants — the mux ratio");
    println!("trades area against EDP at equal accuracy, the crossbar size moves all axes");

    let path = write_json(
        "mapping_pareto",
        &json!({
            "scale": exp.scale,
            "epochs": exp.epochs,
            "seed": exp.seed,
            "trials": trials,
            "search_rounds": rounds,
            "theta": theta,
            "t_max": t_max,
            "mc_seed": mc.seed,
            "area_budget_mm2": budget,
            "archs": arch_docs,
        }),
    )?;
    println!("wrote {}", path.display());
    Ok(())
}
