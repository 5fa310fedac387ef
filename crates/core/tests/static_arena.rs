//! Warmed dataset evaluations allocate nothing: every timestep's logits and
//! every carried membrane go back to the network's arena. Alone in their
//! binary because they pin the process-wide worker count to one — with more,
//! a pass would run on (and warm) clones of the network, not the network
//! itself.

use dtsnn_core::{DynamicEvaluation, DynamicInference, ExitPolicy, StaticEvaluation};
use dtsnn_snn::{resnet_small, vgg_small, ModelConfig};
use dtsnn_tensor::{parallel, Tensor, TensorRng};

fn config() -> ModelConfig {
    ModelConfig { in_channels: 2, image_size: 8, num_classes: 3, width: 4, ..Default::default() }
}

#[test]
fn warmed_static_evaluation_allocates_nothing() {
    parallel::set_threads(1);
    let mut rng = TensorRng::seed_from(93);
    let mut net = vgg_small(&config(), &mut rng).unwrap();
    let mut frame = || Tensor::randn(&[2, 8, 8], 0.5, 2.0, &mut rng);
    let mut frames: Vec<Vec<Tensor>> = (0..16).map(|_| vec![frame()]).collect();
    frames.push((0..4).map(|_| frame()).collect()); // one event sample
    let labels: Vec<usize> = (0..frames.len()).map(|i| i % 3).collect();
    let warm = StaticEvaluation::run(&mut net, &frames, &labels, 4).unwrap();
    net.reset_workspace_stats();
    assert_eq!(StaticEvaluation::run(&mut net, &frames, &labels, 4).unwrap(), warm);
    let stats = net.workspace_stats();
    assert!(stats.takes > 0);
    assert_eq!(stats.misses, 0, "a warmed static pass must not allocate: {stats:?}");
}

/// The public entry the benchmark's `batched_resnet` times, at its window
/// size of 32 samples.
#[test]
fn warmed_run_batched_over_a_resnet_allocates_nothing() {
    parallel::set_threads(1);
    let mut rng = TensorRng::seed_from(81);
    let mut net = resnet_small(&config(), &mut rng).unwrap();
    let frames: Vec<Vec<Tensor>> =
        (0..40).map(|_| vec![Tensor::randn(&[2, 8, 8], 0.5, 2.0, &mut rng)]).collect();
    let labels: Vec<usize> = (0..frames.len()).map(|i| i % 3).collect();
    let diffs = [0.5f32; 40]; // real values: NaN would defeat the comparison
    // θ chosen to split this untrained net's exits across the window
    let runner = DynamicInference::new(ExitPolicy::entropy(0.98).unwrap(), 4).unwrap();
    let run = |net: &mut _| {
        DynamicEvaluation::run_batched(net, &runner, &frames, &labels, Some(&diffs), 32).unwrap()
    };
    let warm = run(&mut net);
    let h = &warm.timestep_histogram;
    assert!(h[..3].iter().sum::<usize>() > 0 && h[3] > 0, "exits must be mixed: {h:?}");
    net.reset_workspace_stats();
    assert_eq!(run(&mut net), warm);
    let stats = net.workspace_stats();
    assert!(stats.takes > 0);
    assert_eq!(stats.misses, 0, "a warmed run_batched must not allocate: {stats:?}");
}
