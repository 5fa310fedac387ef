//! Device-variation integration (Fig. 6B): deploying a trained network onto
//! noisy 4-bit RRAM degrades accuracy gracefully, and DT-SNN keeps working.

use dt_snn::data::{SyntheticVision, VisionConfig};
use dt_snn::dtsnn::{DynamicEvaluation, DynamicInference, ExitPolicy, StaticEvaluation};
use dt_snn::imc::{FaultInjector, FaultModel, HardwareConfig};
use dt_snn::snn::{vgg_small, LossKind, ModelConfig, SgdConfig, Snn, Trainer, TrainerConfig};
use dt_snn::tensor::TensorRng;

fn model_config() -> ModelConfig {
    ModelConfig { num_classes: 4, width: 16, ..ModelConfig::default() }
}

/// Programs `net`'s crossbar weights onto RRAM with `config`'s device
/// variation and reads them back (no discrete faults).
fn deploy(net: &mut Snn, config: &HardwareConfig, rng: &mut TensorRng) {
    let walk = net.weight_layers(&model_config().input_dims()).unwrap();
    let geometry: Vec<_> = walk.into_iter().map(|(g, _)| g).collect();
    FaultInjector::for_geometry(FaultModel::none(), &geometry, config)
        .unwrap()
        .inject(net, rng)
        .unwrap();
}

fn setup() -> (Snn, dt_snn::data::Dataset) {
    let data = SyntheticVision::generate(
        &VisionConfig {
            classes: 4,
            train_size: 160,
            test_size: 80,
            prototype_similarity: 0.5,
            ..VisionConfig::default()
        },
        31,
    )
    .unwrap();
    let mut rng = TensorRng::seed_from(31);
    let mut net = vgg_small(&model_config(), &mut rng).unwrap();
    let trainer = Trainer::new(TrainerConfig {
        epochs: 6,
        batch_size: 32,
        timesteps: 4,
        loss: LossKind::PerTimestep,
        sgd: SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 1e-4 },
        seed: 9,
    })
    .unwrap();
    trainer.fit(&mut net, &data.train.frames(), &data.train.labels()).unwrap();
    (net, data)
}

#[test]
fn deployment_noise_degrades_gracefully() {
    let (mut net, data) = setup();
    let frames = data.test.frames();
    let labels = data.test.labels();
    let clean = StaticEvaluation::run(&mut net, &frames, &labels, 4).unwrap();
    assert!(clean.full_window_accuracy() > 0.5, "underfit: {}", clean.full_window_accuracy());

    let mut rng = TensorRng::seed_from(99);
    deploy(&mut net, &HardwareConfig::default(), &mut rng);
    let noisy = StaticEvaluation::run(&mut net, &frames, &labels, 4).unwrap();
    // 20% device variation costs accuracy but must not collapse to chance
    let chance = 1.0 / data.classes as f32;
    assert!(
        noisy.full_window_accuracy() > chance + 0.15,
        "noisy accuracy {} collapsed",
        noisy.full_window_accuracy()
    );
    assert!(
        noisy.full_window_accuracy() <= clean.full_window_accuracy() + 0.05,
        "noise should not improve accuracy materially"
    );
}

#[test]
fn dtsnn_still_exits_early_under_device_noise() {
    let (mut net, data) = setup();
    let mut rng = TensorRng::seed_from(17);
    deploy(&mut net, &HardwareConfig::default(), &mut rng);
    let runner = DynamicInference::new(ExitPolicy::entropy(0.4).unwrap(), 4).unwrap();
    let eval = DynamicEvaluation::run(
        &mut net,
        &runner,
        &data.test.frames(),
        &data.test.labels(),
        None,
    )
    .unwrap();
    assert!(eval.avg_timesteps < 4.0, "no early exits under noise");
    let chance = 1.0 / data.classes as f32;
    assert!(eval.accuracy > chance + 0.15, "accuracy {} collapsed", eval.accuracy);
}

#[test]
fn stronger_variation_hurts_more_on_average() {
    let (net, data) = setup();
    let frames = data.test.frames();
    let labels = data.test.labels();
    let acc_at = |sigma: f64, seed: u64| {
        let cfg = HardwareConfig { sigma_over_mu: sigma, ..HardwareConfig::default() };
        // average over noisy replicas of the same trained network
        let mut total = 0.0;
        for trial in 0..3u64 {
            let mut noisy = net.clone();
            let mut rng = TensorRng::seed_from(seed + trial);
            deploy(&mut noisy, &cfg, &mut rng);
            total += StaticEvaluation::run(&mut noisy, &frames, &labels, 4)
                .unwrap()
                .full_window_accuracy();
        }
        total / 3.0
    };
    let lo = acc_at(0.05, 41);
    let hi = acc_at(0.60, 41);
    assert!(lo >= hi - 0.05, "σ/μ=5% accuracy {lo} should be ≥ σ/μ=60% accuracy {hi}");
}

#[test]
fn cloned_network_is_independent_of_the_original() {
    let (net, data) = setup();
    let frames = data.test.frames();
    let labels = data.test.labels();
    let mut original = net.clone();
    let mut noisy = net.clone();
    let mut rng = TensorRng::seed_from(55);
    deploy(&mut noisy, &HardwareConfig::default(), &mut rng);
    // perturbing the clone must not affect the original's behaviour
    let a1 = StaticEvaluation::run(&mut original, &frames, &labels, 4).unwrap();
    let mut original2 = net.clone();
    let a2 = StaticEvaluation::run(&mut original2, &frames, &labels, 4).unwrap();
    assert_eq!(a1.accuracy_by_t, a2.accuracy_by_t);
}
