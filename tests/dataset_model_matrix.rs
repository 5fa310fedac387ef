//! Cross-crate compatibility matrix: every dataset preset must flow through
//! both backbones, the trainer, the evaluators, and the hardware mapper.

use dt_snn::data::Preset;
use dt_snn::dtsnn::{DynamicInference, ExitPolicy, HardwareProfile};
use dt_snn::imc::HardwareConfig;
use dt_snn::snn::{resnet_small, vgg_small, Mode, ModelConfig};
use dt_snn::tensor::TensorRng;

fn model_config(ds: &dt_snn::data::Dataset) -> ModelConfig {
    ModelConfig {
        in_channels: ds.channels,
        image_size: ds.image_size,
        num_classes: ds.classes,
        width: 16,
        ..ModelConfig::default()
    }
}

#[test]
fn every_preset_runs_through_both_architectures() {
    for preset in Preset::all() {
        let ds = preset.generate(1, 3).unwrap();
        let t = preset.paper_timesteps();
        let cfg = model_config(&ds);
        let mut rng = TensorRng::seed_from(1);
        for arch in 0..2 {
            let mut net = if arch == 0 {
                vgg_small(&cfg, &mut rng).unwrap()
            } else {
                resnet_small(&cfg, &mut rng).unwrap()
            };
            // forward one sample through the full window
            let frames = &ds.test.samples[0].frames;
            let batched: Vec<_> = frames
                .iter()
                .map(|f| {
                    let mut d = vec![1];
                    d.extend_from_slice(f.dims());
                    f.reshape(&d).unwrap()
                })
                .collect();
            let outs = net.forward_sequence(&batched, t, Mode::Eval).unwrap();
            assert_eq!(outs.len(), t, "{}: wrong window", preset.name());
            assert_eq!(outs[0].dims(), &[1, ds.classes], "{}: wrong logits", preset.name());
            // dynamic inference also runs
            let runner = DynamicInference::new(ExitPolicy::entropy(0.5).unwrap(), t).unwrap();
            let outcome = runner.run(&mut net, frames).unwrap();
            assert!(outcome.timesteps_used >= 1 && outcome.timesteps_used <= t);
        }
    }
}

#[test]
fn both_architectures_map_onto_the_chip() {
    let ds = Preset::Cifar10.generate(1, 4).unwrap();
    let cfg = model_config(&ds);
    let hw = HardwareConfig::default();
    let mut rng = TensorRng::seed_from(4);
    let vgg = vgg_small(&cfg, &mut rng).unwrap();
    let vgg = HardwareProfile::new(&vgg, &cfg.input_dims(), &hw).unwrap();
    let res = resnet_small(&cfg, &mut rng).unwrap();
    let res = HardwareProfile::new(&res, &cfg.input_dims(), &hw).unwrap();
    assert!(vgg.cost_model().mapping().total_crossbars() > 0);
    assert!(res.cost_model().mapping().total_crossbars() > 0);
}

#[test]
fn dvs_preset_has_temporal_frames_and_event_channels() {
    let ds = Preset::Cifar10Dvs.generate(1, 5).unwrap();
    assert_eq!(ds.frames_per_sample, 10);
    assert_eq!(ds.channels, 2);
    for s in ds.test.samples.iter().take(5) {
        assert_eq!(s.frames.len(), 10);
        for f in &s.frames {
            assert!(f.data().iter().all(|&v| v == 0.0 || v == 1.0), "events must be binary");
        }
    }
}
