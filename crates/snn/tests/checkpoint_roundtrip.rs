//! Checkpoint round-trip: saving a network that ran a Train sequence and
//! reloading it into a differently-initialized instance of the same
//! architecture must reproduce the original's inference outputs bitwise —
//! parameters and BatchNorm running statistics alike. A damaged file is a
//! typed error that leaves the receiving network as it was.

use dtsnn_snn::{
    load_params, resnet_small, save_params, vgg_small, Mode, ModelConfig, Snn, SnnError, State,
};
use dtsnn_tensor::{Tensor, TensorRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

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

/// The bit pattern of every state slot, in [`Snn::visit_state`] order.
fn state_bits(net: &mut Snn) -> Vec<u32> {
    let mut out = Vec::new();
    net.visit_state(&mut |s| match s {
        State::Param(p) => out.extend(p.value.data().iter().map(|v| v.to_bits())),
        State::Buffer(b) => out.extend(b.iter().map(|v| v.to_bits())),
    });
    out
}

#[test]
fn damaged_checkpoints_are_typed_errors_that_leave_the_network_untouched() {
    // A saved vgg_small checkpoint cut at every length, then with seeded
    // byte flips: each load is a CheckpointError, never a panic or a
    // silently different network, and leaves every state slot of the
    // receiving network as it was.
    let config = ModelConfig {
        in_channels: 2,
        image_size: 8,
        num_classes: 3,
        width: 4,
        ..ModelConfig::default()
    };
    let mut saved = vgg_small(&config, &mut TensorRng::seed_from(0x5A7E)).expect("build vgg");
    let path = std::env::temp_dir().join(format!("dtsnn-damaged-{}.bin", std::process::id()));
    save_params(&mut saved, &path).expect("save checkpoint");
    let blob = std::fs::read(&path).expect("read checkpoint");
    let target = vgg_small(&config, &mut TensorRng::seed_from(0x0DD5)).expect("build vgg");
    let before = state_bits(&mut target.clone());
    // true for a load that succeeded, false for a typed error
    let load = |bytes: &[u8], case: &str| -> bool {
        std::fs::write(&path, bytes).expect("write damaged checkpoint");
        let mut net = target.clone();
        let result = catch_unwind(AssertUnwindSafe(|| load_params(&mut net, &path)))
            .unwrap_or_else(|_| panic!("{case}: load panicked"));
        match result {
            Ok(()) => true,
            Err(SnnError::Checkpoint(_)) => {
                assert_eq!(state_bits(&mut net), before, "{case}: a failed load wrote state");
                false
            }
            Err(e) => panic!("{case}: not a checkpoint error: {e:?}"),
        }
    };
    for len in 0..blob.len() {
        assert!(!load(&blob[..len], &format!("cut to {len} of {} bytes", blob.len())));
    }
    let mut rng = TensorRng::seed_from(0xF11B);
    for trial in 0..400 {
        let mut bytes = blob.clone();
        let flips = 1 + rng.below(8);
        for _ in 0..flips {
            let at = rng.below(bytes.len());
            bytes[at] ^= 1 + rng.below(255) as u8;
        }
        // a flip in a value is caught by the checksum, one in the header or
        // a shape field by the structure checks
        assert!(!load(&bytes, &format!("trial {trial}: {flips} flipped bytes")));
    }
    let _ = std::fs::remove_file(&path);
}
