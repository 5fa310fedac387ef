//! Tier-1 pins trained bits: a few BPTT batches of a tiny vgg_small and
//! resnet_small, then one 64-bit hash over every parameter. The goldens
//! replay untrained backbones, so without this a change to a backward
//! kernel could move every trained network and no root test would notice.
//! The same hash at 1 and 4 workers also pins the backward kernels'
//! thread-count invariance end to end.

use dt_snn::data::{SyntheticVision, VisionConfig};
use dt_snn::snn::{resnet_small, vgg_small, ModelConfig, Snn, Trainer, TrainerConfig};
use dt_snn::tensor::{parallel, TensorRng};

/// FNV-1a over the bit pattern of every parameter value, in visit order.
fn parameter_hash(net: &mut Snn) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    net.visit_params(&mut |p| {
        for v in p.value.data() {
            for byte in v.to_bits().to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    });
    h
}

/// Trains a fresh network from `build` for one epoch of four batches at
/// `T = 2` (otherwise the trainer's defaults) and hashes its parameters.
fn trained_hash(build: fn(&ModelConfig, &mut TensorRng) -> dt_snn::snn::Result<Snn>) -> u64 {
    let data = SyntheticVision::generate(
        &VisionConfig { classes: 4, train_size: 64, test_size: 4, ..VisionConfig::default() },
        7,
    )
    .unwrap();
    let cfg = ModelConfig { num_classes: 4, width: 8, ..ModelConfig::default() };
    let mut net = build(&cfg, &mut TensorRng::seed_from(11)).unwrap();
    let trainer = Trainer::new(TrainerConfig {
        epochs: 1,
        batch_size: 16,
        timesteps: 2,
        ..TrainerConfig::default()
    })
    .unwrap();
    trainer.fit(&mut net, &data.train.frames(), &data.train.labels()).unwrap();
    parameter_hash(&mut net)
}

#[test]
fn trained_parameters_are_pinned_at_every_thread_count() {
    for (name, build, want) in [
        ("vgg_small", vgg_small as fn(&_, &mut _) -> _, 0x0f51_f911_966f_54c1_u64),
        ("resnet_small", resnet_small, 0xdbc6_54f3_8c91_c5c5),
    ] {
        for threads in [1, 4] {
            let got = parallel::with_threads(threads, || trained_hash(build));
            assert_eq!(got, want, "{name} threads={threads}: {got:#018x}");
        }
    }
}
