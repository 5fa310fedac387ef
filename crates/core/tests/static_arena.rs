//! A warmed static evaluation allocates nothing: every timestep's logits go
//! back to the network's arena. Alone in its binary because it pins the
//! process-wide worker count to one — with more, the pass would run on (and
//! warm) clones of the network, not the network itself.

use dtsnn_core::StaticEvaluation;
use dtsnn_snn::{vgg_small, ModelConfig};
use dtsnn_tensor::{parallel, Tensor, TensorRng};

#[test]
fn warmed_static_evaluation_allocates_nothing() {
    parallel::set_threads(1);
    let config =
        ModelConfig { in_channels: 2, image_size: 8, num_classes: 3, width: 4, ..Default::default() };
    let mut rng = TensorRng::seed_from(93);
    let mut net = vgg_small(&config, &mut rng).unwrap();
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
