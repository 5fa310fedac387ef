//! Integration of the algorithmic stack with the IMC hardware model:
//! measured spike activity drives the energy model, DT-SNN saves energy and
//! EDP, and the LUT-based σ–E module agrees with the algorithmic policy.

use dt_snn::dtsnn::{
    DynamicEvaluation, DynamicInference, ExitPolicy, HardwareProfile, StaticEvaluation,
};
use dt_snn::imc::{
    exact_normalized_entropy, ChipMapping, Component, CostModel, HardwareConfig, SigmaEModule,
};
use dt_snn::snn::{
    vgg16_geometry, vgg_small, LossKind, ModelConfig, SgdConfig, Trainer, TrainerConfig,
};
use dt_snn::data::{SyntheticVision, VisionConfig};
use dt_snn::tensor::{softmax_rows, Tensor, TensorRng};

fn quick_setup() -> (dt_snn::snn::Snn, HardwareProfile, Vec<Vec<Tensor>>, Vec<usize>) {
    let data = SyntheticVision::generate(
        &VisionConfig {
            classes: 4,
            train_size: 120,
            test_size: 60,
            prototype_similarity: 0.5,
            ..VisionConfig::default()
        },
        21,
    )
    .unwrap();
    let cfg = ModelConfig { num_classes: 4, width: 16, ..ModelConfig::default() };
    let mut rng = TensorRng::seed_from(21);
    let mut net = vgg_small(&cfg, &mut rng).unwrap();
    let trainer = Trainer::new(TrainerConfig {
        epochs: 4,
        batch_size: 32,
        timesteps: 4,
        loss: LossKind::PerTimestep,
        sgd: SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 1e-4 },
        seed: 5,
    })
    .unwrap();
    trainer.fit(&mut net, &data.train.frames(), &data.train.labels()).unwrap();
    let profile =
        HardwareProfile::new(&net, &cfg.input_dims(), &HardwareConfig::default()).unwrap();
    (net, profile, data.test.frames(), data.test.labels())
}

#[test]
fn measured_activity_drives_energy_and_dtsnn_saves_edp() {
    let (mut net, profile, frames, labels) = quick_setup();
    let static_eval = StaticEvaluation::run(&mut net, &frames, &labels, 4).unwrap();
    // measured spike densities are meaningful (nonzero, subunit)
    let densities = profile.densities(&static_eval.activity);
    assert_eq!(densities[0], 1.0, "input layer is analog-encoded");
    for &d in &densities[1..] {
        assert!(d > 0.0 && d < 1.0, "density {d} out of the plausible band");
    }
    let static_cost = profile.static_cost(&static_eval.activity, 4.0).unwrap();

    let runner = DynamicInference::new(ExitPolicy::entropy(0.4).unwrap(), 4).unwrap();
    let dyn_eval = DynamicEvaluation::run(&mut net, &runner, &frames, &labels, None).unwrap();
    let dyn_cost =
        profile.dynamic_cost(&dyn_eval.activity, dyn_eval.avg_timesteps as f64).unwrap();
    assert!(dyn_eval.avg_timesteps < 4.0);
    assert!(dyn_cost.energy_pj() < static_cost.energy_pj());
    assert!(dyn_cost.edp() < static_cost.edp());
    // σ–E is engaged for DT-SNN and negligible
    assert!(dyn_cost.energy.component(Component::SigmaE) > 0.0);
    assert!(dyn_cost.energy.fraction(Component::SigmaE) < 1e-3);
    assert_eq!(static_cost.energy.component(Component::SigmaE), 0.0);
}

#[test]
fn sigma_e_module_agrees_with_algorithmic_exit_policy() {
    let config = HardwareConfig::default();
    let module = SigmaEModule::new(&config).unwrap();
    let policy = ExitPolicy::entropy(0.35).unwrap();
    let mut rng = TensorRng::seed_from(33);
    let mut agree = 0;
    let n = 200;
    for _ in 0..n {
        let logits = Tensor::randn(&[1, 8], 0.0, 2.0, &mut rng);
        let probs = softmax_rows(&logits).unwrap();
        let algorithmic = policy.should_exit(probs.data());
        let hardware = module.evaluate(logits.data(), 0.35).unwrap().exit;
        agree += (algorithmic == hardware) as usize;
    }
    assert!(agree as f32 / n as f32 > 0.97, "agreement {agree}/{n}");
}

#[test]
fn lut_entropy_matches_exact_entropy_on_network_outputs() {
    let (mut net, _profile, frames, _labels) = quick_setup();
    let module = SigmaEModule::new(&HardwareConfig::default()).unwrap();
    let runner = DynamicInference::new(ExitPolicy::entropy(1e-7).unwrap(), 4).unwrap();
    for sample_frames in frames.iter().take(20) {
        let outcome = runner.run(&mut net, sample_frames).unwrap();
        let exact = exact_normalized_entropy(&outcome.probabilities);
        // reconstruct logits is not possible post-softmax; feed scaled probs
        // as logits to exercise the LUT path on realistic distributions
        let reading = module
            .evaluate(
                &outcome.probabilities.iter().map(|p| p.ln().max(-16.0)).collect::<Vec<_>>(),
                0.5,
            )
            .unwrap();
        assert!(
            (reading.entropy - exact).abs() < 0.03,
            "LUT {} vs exact {exact}",
            reading.entropy
        );
    }
}

#[test]
fn paper_scale_vgg16_maps_and_costs_consistently() {
    let config = HardwareConfig::default();
    let geometry = vgg16_geometry(32, 3, 10);
    let mapping = ChipMapping::map(&geometry, &config).unwrap();
    let model = CostModel::new(mapping, config).unwrap();
    let mut densities = vec![0.2f32; geometry.len()];
    densities[0] = 1.0;
    // DT-SNN at the paper's measured 1.46 average timesteps vs static T=4
    let static4 = model.inference_cost(&densities, 4.0, None).unwrap();
    let dt = model.inference_cost(&densities, 1.46, Some(10)).unwrap();
    let energy_ratio = dt.energy_pj() / static4.energy_pj();
    // paper Table II: 0.46× energy for VGG-16/CIFAR-10
    assert!(
        (0.30..=0.65).contains(&energy_ratio),
        "energy ratio {energy_ratio} outside the paper's band"
    );
    let edp_ratio = dt.edp() / static4.edp();
    // paper Fig. 4: ~80% EDP reduction on CIFAR-10 VGG-16
    assert!((0.08..=0.35).contains(&edp_ratio), "EDP ratio {edp_ratio}");
}
