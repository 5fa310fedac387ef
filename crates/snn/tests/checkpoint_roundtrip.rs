//! Checkpoint round-trip: saving a network that ran a Train sequence and
//! reloading it into a differently-initialized instance of the same
//! architecture must reproduce the original's inference outputs bitwise —
//! parameters and BatchNorm running statistics alike.

use dtsnn_snn::{
    load_params, resnet_small, save_params, vgg_small, Mode, ModelConfig, Snn,
};
use dtsnn_tensor::{Tensor, TensorRng};

fn roundtrip(name: &str, build: impl Fn(&mut TensorRng) -> Snn) {
    let mut rng = TensorRng::seed_from(0xC4EC);
    let mut original = build(&mut rng);
    // one Train sequence (no optimizer step) moves only the running
    // statistics away from the identity
    let batch = Tensor::randn(&[4, 3, 16, 16], 0.5, 0.5, &mut TensorRng::seed_from(11));
    original
        .forward_sequence(std::slice::from_ref(&batch), 4, Mode::Train)
        .expect("original train sequence");
    let path = std::env::temp_dir()
        .join(format!("dtsnn-roundtrip-{name}-{}.bin", std::process::id()));
    save_params(&mut original, &path).expect("save checkpoint");

    // different init seed: every parameter starts out different, so equality
    // after load proves the checkpoint carried all of them
    let mut other_rng = TensorRng::seed_from(0x0DD5);
    let mut reloaded = build(&mut other_rng);
    load_params(&mut reloaded, &path).expect("load checkpoint");
    let _ = std::fs::remove_file(&path);

    let mut frame_rng = TensorRng::seed_from(7);
    let frame = Tensor::randn(&[1, 3, 16, 16], 0.5, 0.5, &mut frame_rng);
    let timesteps = 4;
    let a = original
        .forward_sequence(std::slice::from_ref(&frame), timesteps, Mode::Eval)
        .expect("original forward");
    let b = reloaded
        .forward_sequence(std::slice::from_ref(&frame), timesteps, Mode::Eval)
        .expect("reloaded forward");
    assert_eq!(a, b, "{name}: reloaded inference must be bitwise identical");
    let untrained = build(&mut TensorRng::seed_from(0xC4EC))
        .forward_sequence(std::slice::from_ref(&frame), timesteps, Mode::Eval)
        .expect("untrained forward");
    assert_ne!(a, untrained, "{name}: the Train sequence must move the running statistics");
    // and the per-timestep logits must not be trivially zero for the
    // comparison to mean anything
    assert!(
        a.iter().any(|t| t.data().iter().any(|&v| v != 0.0)),
        "{name}: all-zero outputs make the round-trip check vacuous"
    );
}

fn config() -> ModelConfig {
    // tdbn_alpha > 1 keeps the untrained network spiking end to end in Eval
    // mode (see the conformance trace module), so the outputs compared
    // below are nonzero
    ModelConfig { width: 8, tdbn_alpha: 6.0, ..ModelConfig::default() }
}

#[test]
fn vgg_checkpoint_roundtrip_is_bitwise_identical() {
    roundtrip("vgg", |rng| vgg_small(&config(), rng).expect("build vgg"));
}

#[test]
fn resnet_checkpoint_roundtrip_is_bitwise_identical() {
    roundtrip("resnet", |rng| resnet_small(&config(), rng).expect("build resnet"));
}
