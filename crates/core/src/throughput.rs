//! Wall-clock throughput measurement on a general processor (Table III).
//!
//! The paper measures images/s on a GPU at batch size 1; here the same
//! protocol runs on the CPU with our engine. The claim shape is preserved:
//! throughput falls roughly linearly with timesteps, and DT-SNN recovers
//! near-1-timestep throughput at full-window accuracy.
//!
//! Measurement protocol: all input validation happens **before** the clock
//! starts. With one worker the timed span is inference work only, on the
//! caller's network and its arena (allocation-free once the first sample has
//! warmed the size classes); with more, it also covers one `Snn::clone` per
//! worker — a fraction of a millisecond against the evaluation it runs.
//! Reported accuracy and mean timesteps are bitwise identical to the
//! corresponding evaluation harness.

use crate::harness::{check_inputs, fan_out};
use crate::inference::DynamicInference;
use crate::Result;
use dtsnn_snn::Snn;
use dtsnn_tensor::{parallel, Tensor};
use std::time::Instant;

/// Throughput and accuracy of one inference configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputReport {
    /// Configuration label (`"static T=2"` / `"DT-SNN θ=0.3"`).
    pub label: String,
    /// Images per second at batch size 1.
    pub images_per_second: f64,
    /// Top-1 accuracy over the measured set.
    pub accuracy: f32,
    /// Mean timesteps per image.
    pub avg_timesteps: f32,
}

/// Measures batch-1 throughput of a static SNN at a fixed `timesteps`: the
/// DT-SNN meter with an exit that never fires.
///
/// # Errors
///
/// Returns [`crate::CoreError::BadInput`] for empty or mismatched data, zero
/// `timesteps`, or a sample that breaks the frame contract.
pub fn measure_throughput(
    network: &mut Snn,
    frames: &[Vec<Tensor>],
    labels: &[usize],
    timesteps: usize,
) -> Result<ThroughputReport> {
    let runner = DynamicInference::full_window(timesteps);
    let report = measure_dynamic_throughput(network, &runner, frames, labels)?;
    Ok(ThroughputReport { label: format!("static T={timesteps}"), ..report })
}

/// Measures batch-1 throughput of DT-SNN under `runner`'s policy.
///
/// # Errors
///
/// Returns [`crate::CoreError::BadInput`] for empty or mismatched data or a
/// sample that breaks the frame contract — raised before the clock starts.
pub fn measure_dynamic_throughput(
    network: &mut Snn,
    runner: &DynamicInference,
    frames: &[Vec<Tensor>],
    labels: &[usize],
) -> Result<ThroughputReport> {
    check_inputs(frames, labels, None, runner.max_timesteps())?;
    let start = Instant::now();
    // outcomes come back in sample order, so accuracy is thread-count
    // invariant while the wall clock shrinks with DTSNN_THREADS
    let per_sample = fan_out(network, parallel::num_threads(), frames, |net, i, sample| {
        let outcome = runner.run(net, sample)?;
        Ok((outcome.timesteps_used, outcome.prediction == labels[i]))
    })?;
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    let correct = per_sample.iter().filter(|(_, ok)| *ok).count();
    let timestep_total: usize = per_sample.iter().map(|(used, _)| used).sum();
    let n = frames.len() as f32;
    Ok(ThroughputReport {
        label: format!("DT-SNN {}", runner.policy().name()),
        images_per_second: frames.len() as f64 / secs,
        accuracy: correct as f32 / n,
        avg_timesteps: timestep_total as f32 / n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DynamicEvaluation, ExitPolicy};
    use dtsnn_snn::{Flatten, Layer, LifConfig, LifNeuron, Linear};
    use dtsnn_tensor::TensorRng;

    fn tiny_net(seed: u64) -> Snn {
        let mut rng = TensorRng::seed_from(seed);
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Flatten::new()),
            Box::new(Linear::new(16, 32, &mut rng)),
            Box::new(LifNeuron::new(LifConfig::default())),
            Box::new(Linear::new(32, 3, &mut rng)),
        ];
        Snn::from_layers(layers)
    }

    fn data(n: usize) -> (Vec<Vec<Tensor>>, Vec<usize>) {
        let mut rng = TensorRng::seed_from(1);
        let frames = (0..n).map(|_| vec![Tensor::randn(&[1, 4, 4], 0.5, 0.5, &mut rng)]).collect();
        (frames, (0..n).map(|i| i % 3).collect())
    }

    #[test]
    fn throughput_positive_and_monotone_in_t() {
        let mut net = tiny_net(2);
        let (frames, labels) = data(64);
        let t1 = measure_throughput(&mut net, &frames, &labels, 1).unwrap();
        let t8 = measure_throughput(&mut net, &frames, &labels, 8).unwrap();
        // more timesteps → strictly more work: asserted on the counted work,
        // not on the wall-clock order of two sub-millisecond runs
        assert_eq!((t1.avg_timesteps, t8.avg_timesteps), (1.0, 8.0));
        assert!(t1.images_per_second > 0.0 && t8.images_per_second > 0.0);
    }

    #[test]
    fn dynamic_throughput_between_t1_and_tmax() {
        let mut net = tiny_net(3);
        let (frames, labels) = data(64);
        let runner = DynamicInference::new(ExitPolicy::entropy(0.9).unwrap(), 8).unwrap();
        let dt = measure_dynamic_throughput(&mut net, &runner, &frames, &labels).unwrap();
        assert!(dt.avg_timesteps >= 1.0 && dt.avg_timesteps <= 8.0);
        assert!(dt.images_per_second > 0.0);
    }

    #[test]
    fn dynamic_throughput_accuracy_matches_evaluation_harness() {
        let (frames, labels) = data(24);
        let runner = DynamicInference::new(ExitPolicy::entropy(0.9).unwrap(), 4).unwrap();
        let mut net = tiny_net(5);
        let eval = DynamicEvaluation::run(&mut net, &runner, &frames, &labels, None).unwrap();
        let mut net = tiny_net(5);
        let dt = measure_dynamic_throughput(&mut net, &runner, &frames, &labels).unwrap();
        assert_eq!(dt.accuracy, eval.accuracy);
        assert_eq!(dt.avg_timesteps, eval.avg_timesteps);
    }

    #[test]
    fn validation_happens_before_the_clock() {
        // invalid inputs error out rather than being timed mid-measurement
        let mut net = tiny_net(4);
        let (mut frames, labels) = data(4);
        let runner = DynamicInference::new(ExitPolicy::entropy(0.9).unwrap(), 4).unwrap();
        assert!(measure_throughput(&mut net, &frames, &labels, 0).is_err());
        frames[1] = vec![frames[1][0].clone(); 2]; // 2 frames under a T=4 window
        assert!(measure_throughput(&mut net, &frames, &labels, 4).is_err());
        assert!(measure_dynamic_throughput(&mut net, &runner, &frames, &labels).is_err());
    }

    #[test]
    fn rejects_empty_data() {
        let mut net = tiny_net(4);
        assert!(measure_throughput(&mut net, &[], &[], 1).is_err());
    }
}
