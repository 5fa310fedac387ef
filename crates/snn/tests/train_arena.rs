//! The training step's allocation discipline: from the second step of one
//! batch shape, a Train forward window, its BPTT and the SGD step take
//! every activation-sized buffer — backward caches, activations and the
//! gradients passed between layers — from the network's arena and miss
//! nothing, as the warmed Eval loop does.

use dtsnn_snn::{
    AvgPool2d, BatchNorm2d, Conv2d, Flatten, LifConfig, LifNeuron, Linear, Mode, ResidualBlock,
    Sgd, SgdConfig, Snn,
};
use dtsnn_tensor::{Tensor, TensorRng};

/// Every layer kind with a Train cache or a backward kernel: conv, BN, LIF,
/// pool, a projection residual block (both branches and the join), flatten
/// and the classifier.
fn every_kind(rng: &mut TensorRng) -> Snn {
    let lif = LifConfig::default();
    let block = ResidualBlock::new(
        vec![
            Box::new(Conv2d::new(4, 8, 3, 2, 1, rng).unwrap()),
            Box::new(BatchNorm2d::new(8)),
            Box::new(LifNeuron::new(lif)),
            Box::new(Conv2d::new(8, 8, 3, 1, 1, rng).unwrap()),
            Box::new(BatchNorm2d::new(8)),
        ],
        vec![Box::new(Conv2d::new(4, 8, 1, 2, 0, rng).unwrap()), Box::new(BatchNorm2d::new(8))],
        lif,
    );
    Snn::from_layers(vec![
        Box::new(Conv2d::new(2, 4, 3, 1, 1, rng).unwrap()),
        Box::new(BatchNorm2d::new(4)),
        Box::new(LifNeuron::new(lif)),
        Box::new(block),
        Box::new(AvgPool2d::new(2).unwrap()),
        Box::new(Flatten::new()),
        Box::new(Linear::new(8 * 2 * 2, 3, rng)),
    ])
}

/// One training step as `Trainer::fit` runs it, handing the logits and the
/// input gradients back to the arena.
fn train_step(net: &mut Snn, sgd: &mut Sgd, frame: &Tensor, timesteps: usize) {
    let outputs = net.forward_sequence(std::slice::from_ref(frame), timesteps, Mode::Train).unwrap();
    net.zero_grads();
    for out in outputs.iter().rev() {
        let grad_logits = out.map(|v| 0.1 * v);
        let grad_input = net.backward_timestep(&grad_logits).unwrap();
        net.recycle(grad_input);
    }
    sgd.step(net);
    for out in outputs {
        net.recycle(out);
    }
}

#[test]
fn warmed_train_steps_take_every_buffer_from_the_arena() {
    let mut rng = TensorRng::seed_from(41);
    let mut net = every_kind(&mut rng);
    let mut sgd = Sgd::new(SgdConfig::default()).unwrap();
    // the longest window the repo trains at (the event preset's): a step
    // parks ten timesteps of caches at once, which the arena's freelist cap
    // must hold
    let timesteps = 10;
    let frame = Tensor::randn(&[3, 2, 8, 8], 0.5, 1.0, &mut rng);
    train_step(&mut net, &mut sgd, &frame, timesteps);
    assert!(net.workspace_stats().misses > 0, "the first step warms the arena");
    for step in 2..=4 {
        net.reset_workspace_stats();
        train_step(&mut net, &mut sgd, &frame, timesteps);
        let stats = net.workspace_stats();
        assert!(stats.takes > 0);
        assert_eq!(stats.misses, 0, "step {step} allocated: {stats:?}");
    }
}
