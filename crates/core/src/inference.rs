//! The per-sample dynamic-timestep runner (Eqs. 5–8), and the static SNN as
//! that runner with an exit that never fires.

use crate::policy::ExitPolicy;
use crate::window::Window;
use crate::{CoreError, Result};
use dtsnn_snn::{batch1_frames, Snn};
use dtsnn_tensor::Tensor;

/// Result of one dynamic inference.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicOutcome {
    /// Predicted class (argmax of the accumulated output at exit).
    pub prediction: usize,
    /// Timesteps actually executed, `1 ≤ T̂ ≤ T`.
    pub timesteps_used: usize,
    /// Whether the policy fired before the full window.
    pub exited_early: bool,
    /// Confidence score (entropy for the paper's policy) at each executed
    /// timestep.
    pub scores: Vec<f32>,
    /// Accumulated class probabilities at exit.
    pub probabilities: Vec<f32>,
}

/// Everything observed during one executed timestep of a traced inference.
#[derive(Debug, Clone, PartialEq)]
pub struct TimestepTrace {
    /// Logits accumulated (summed, not yet averaged) up to this timestep.
    pub accumulated_logits: Vec<f32>,
    /// Output spike density of every observable spiking layer, network order.
    pub spike_densities: Vec<f32>,
    /// Policy confidence score (normalized entropy for the paper's policy).
    pub score: f32,
}

/// A fully instrumented dynamic inference: the outcome plus every
/// intermediate quantity the golden-trace recorder commits to disk.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicTrace {
    /// The plain inference result.
    pub outcome: DynamicOutcome,
    /// One record per executed timestep (`len == outcome.timesteps_used`).
    pub per_timestep: Vec<TimestepTrace>,
}

/// Dynamic-timestep inference engine bound to an exit policy and a maximum
/// window `T`.
///
/// # Example
///
/// See the crate-level example and `examples/quickstart.rs`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicInference {
    policy: ExitPolicy,
    max_timesteps: usize,
}

impl DynamicInference {
    /// Creates a runner.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when `max_timesteps == 0`.
    pub fn new(policy: ExitPolicy, max_timesteps: usize) -> Result<Self> {
        if max_timesteps == 0 {
            return Err(CoreError::InvalidConfig("max_timesteps must be nonzero".into()));
        }
        Ok(DynamicInference { policy, max_timesteps })
    }

    /// The static SNN: the full window `T` for every sample, since no
    /// softmax probability exceeds 1 and a NaN score never fires. A zero `T`
    /// is left to the caller's input check.
    pub(crate) fn full_window(max_timesteps: usize) -> Self {
        DynamicInference { policy: ExitPolicy::MaxProb { threshold: 1.0 }, max_timesteps }
    }

    /// The exit policy.
    pub fn policy(&self) -> &ExitPolicy {
        &self.policy
    }

    /// The maximum window `T`.
    pub fn max_timesteps(&self) -> usize {
        self.max_timesteps
    }

    /// Runs one sample (`frames`: one static frame or `T` event frames)
    /// through `network`, exiting at the first timestep whose accumulated
    /// output satisfies the policy (Eq. 8), else at `T`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadInput`] for frames that break the frame
    /// contract ([`dtsnn_snn::check_frames`]) — before anything is forwarded —
    /// and propagates network errors.
    pub fn run(&self, network: &mut Snn, frames: &[Tensor]) -> Result<DynamicOutcome> {
        self.drive(network, frames, |_, _| Ok(()))
    }

    /// Like [`DynamicInference::run`], additionally recording the accumulated
    /// logits, per-layer spike densities and policy score of every executed
    /// timestep. This is the recording half of the conformance crate's
    /// golden-trace subsystem.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DynamicInference::run`].
    pub fn run_traced(&self, network: &mut Snn, frames: &[Tensor]) -> Result<DynamicTrace> {
        let mut per_timestep = Vec::with_capacity(self.max_timesteps);
        let outcome = self.drive(network, frames, |network, window| {
            per_timestep.push(TimestepTrace {
                accumulated_logits: window.accumulated(0).to_vec(),
                spike_densities: network
                    .layers()
                    .iter()
                    .filter_map(|n| n.layer.last_spike_density())
                    .collect(),
                score: window.decision(0).score,
            });
            Ok(())
        })?;
        Ok(DynamicTrace { outcome, per_timestep })
    }

    /// The one-row driver of the [`Window`] behind both entry points and the
    /// dataset driver (`harness::run_samples`), which differ only in what
    /// `observe` records after each timestep — so a golden trace or a dataset
    /// evaluation can never drift from a production run. An error from
    /// `observe` ends the run.
    pub(crate) fn drive(
        &self,
        network: &mut Snn,
        frames: &[Tensor],
        mut observe: impl FnMut(&Snn, &Window) -> Result<()>,
    ) -> Result<DynamicOutcome> {
        // Batch the frames once, outside the loop: `batch1_frames` copies, and
        // the timestep loop itself must stay allocation-free (the network's
        // workspace arena covers everything inside `forward_timestep`).
        let batched = batch1_frames(frames, self.max_timesteps)?;
        let mut window = Window::new();
        window.admit(network, 1)?;
        let mut scores = Vec::with_capacity(self.max_timesteps);
        loop {
            window.step(network, |_| &batched, &self.policy, self.max_timesteps)?;
            observe(network, &window)?;
            let decision = window.decision(0);
            scores.push(decision.score);
            if decision.exit {
                return Ok(DynamicOutcome {
                    prediction: decision.prediction,
                    timesteps_used: decision.t,
                    exited_early: decision.fired && decision.t < self.max_timesteps,
                    scores,
                    probabilities: window.probabilities(0).to_vec(),
                });
            }
        }
    }
}

/// Runs a sample for exactly `timesteps` steps (the static-SNN protocol),
/// returning the prediction from the time-averaged output — the argmax of
/// the Eq. 5 running mean `f_T(x) = (1/T)·Σ_t h(x, t)` at the full window.
///
/// # Errors
///
/// Returns [`CoreError::BadInput`] for malformed frames or a zero window.
pub fn static_inference(
    network: &mut Snn,
    frames: &[Tensor],
    timesteps: usize,
) -> Result<usize> {
    if timesteps == 0 {
        return Err(CoreError::BadInput("timesteps must be nonzero".into()));
    }
    Ok(DynamicInference::full_window(timesteps).run(network, frames)?.prediction)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtsnn_snn::{Flatten, Layer, LifConfig, LifNeuron, Linear, Mode};
    use dtsnn_tensor::TensorRng;

    fn tiny_net(seed: u64) -> Snn {
        let mut rng = TensorRng::seed_from(seed);
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Flatten::new()),
            Box::new(Linear::new(4, 8, &mut rng)),
            Box::new(LifNeuron::new(LifConfig::default())),
            Box::new(Linear::new(8, 3, &mut rng)),
        ];
        Snn::from_layers(layers)
    }

    #[test]
    fn validates_window_and_frames() {
        let p = ExitPolicy::entropy(0.5).unwrap();
        assert!(DynamicInference::new(p, 0).is_err());
        let runner = DynamicInference::new(p, 4).unwrap();
        let mut net = tiny_net(1);
        assert!(runner.run(&mut net, &[]).is_err());
        let f = Tensor::zeros(&[1, 2, 2]);
        assert!(runner.run(&mut net, &[f.clone(), f]).is_err());
    }

    #[test]
    fn uses_at_most_max_timesteps() {
        // θ → 0 never exits early, so T̂ = T.
        let p = ExitPolicy::entropy(1e-6).unwrap();
        let runner = DynamicInference::new(p, 3).unwrap();
        let mut net = tiny_net(2);
        let mut rng = TensorRng::seed_from(3);
        let frame = Tensor::randn(&[1, 2, 2], 0.5, 0.5, &mut rng);
        let out = runner.run(&mut net, &[frame]).unwrap();
        assert_eq!(out.timesteps_used, 3);
        assert!(!out.exited_early);
        assert_eq!(out.scores.len(), 3);
    }

    #[test]
    fn lax_threshold_exits_at_first_timestep() {
        // θ = 1 exits whenever entropy < 1, i.e. any non-uniform output.
        let p = ExitPolicy::entropy(1.0).unwrap();
        let runner = DynamicInference::new(p, 4).unwrap();
        let mut net = tiny_net(4);
        let mut rng = TensorRng::seed_from(5);
        let frame = Tensor::randn(&[1, 2, 2], 0.5, 0.5, &mut rng);
        let out = runner.run(&mut net, &[frame]).unwrap();
        assert_eq!(out.timesteps_used, 1);
        assert!(out.exited_early);
    }

    #[test]
    fn full_window_prediction_matches_static_inference() {
        // the reference, independent of the Window both runners drive: the
        // argmax of the forward_sequence running mean (Eq. 5) at every budget
        let mut rng = TensorRng::seed_from(7);
        let frame = Tensor::randn(&[1, 2, 2], 0.5, 0.5, &mut rng);
        let batched = batch1_frames(std::slice::from_ref(&frame), 4).unwrap();
        let outputs = tiny_net(6).forward_sequence(&batched, 4, Mode::Eval).unwrap();
        let mut sum = outputs[0].clone();
        let mut reference = Vec::new();
        for (t, output) in outputs.iter().enumerate() {
            if t > 0 {
                sum.axpy(1.0, output).unwrap();
            }
            reference.push(sum.scale(1.0 / (t + 1) as f32).row(0).unwrap().argmax().unwrap());
        }
        let mut net = tiny_net(6);
        for (t, &want) in reference.iter().enumerate() {
            let got = static_inference(&mut net, std::slice::from_ref(&frame), t + 1).unwrap();
            assert_eq!(got, want, "budget {}", t + 1);
        }
        let p = ExitPolicy::entropy(1e-6).unwrap(); // never exits early
        let runner = DynamicInference::new(p, 4).unwrap();
        let dynamic = runner.run(&mut net, std::slice::from_ref(&frame)).unwrap();
        assert_eq!(dynamic.prediction, reference[3]);
        assert!(static_inference(&mut net, &[frame], 0).is_err());
    }

    #[test]
    fn probabilities_are_a_distribution() {
        let p = ExitPolicy::entropy(0.5).unwrap();
        let runner = DynamicInference::new(p, 4).unwrap();
        let mut net = tiny_net(8);
        let mut rng = TensorRng::seed_from(9);
        let frame = Tensor::randn(&[1, 2, 2], 0.5, 0.5, &mut rng);
        let out = runner.run(&mut net, &[frame]).unwrap();
        let s: f32 = out.probabilities.iter().sum();
        assert!((s - 1.0).abs() < 1e-5);
        assert!(out.prediction < 3);
    }

    #[test]
    fn traced_run_matches_plain_run_and_records_every_timestep() {
        let p = ExitPolicy::entropy(0.5).unwrap();
        let runner = DynamicInference::new(p, 4).unwrap();
        let mut rng = TensorRng::seed_from(13);
        let frame = Tensor::randn(&[1, 2, 2], 0.5, 0.5, &mut rng);
        let mut net = tiny_net(12);
        let traced = runner.run_traced(&mut net, std::slice::from_ref(&frame)).unwrap();
        let mut net2 = tiny_net(12);
        let plain = runner.run(&mut net2, &[frame]).unwrap();
        assert_eq!(traced.outcome, plain);
        assert_eq!(traced.per_timestep.len(), plain.timesteps_used);
        for (rec, &score) in traced.per_timestep.iter().zip(&plain.scores) {
            assert_eq!(rec.score, score);
            assert_eq!(rec.spike_densities.len(), 1); // one LIF in tiny_net
            assert_eq!(rec.accumulated_logits.len(), 3);
        }
        // the final accumulated logits reproduce the exit probabilities
        let last = traced.per_timestep.last().unwrap();
        let inv_t = 1.0 / plain.timesteps_used as f32;
        let f_t = Tensor::from_vec(
            last.accumulated_logits.iter().map(|&v| v * inv_t).collect(),
            &[1, 3],
        )
        .unwrap();
        let probs = dtsnn_tensor::softmax_rows(&f_t).unwrap();
        assert_eq!(probs.data(), plain.probabilities.as_slice());
    }

    #[test]
    fn event_frames_consume_one_per_timestep() {
        let p = ExitPolicy::entropy(1e-6).unwrap();
        let runner = DynamicInference::new(p, 3).unwrap();
        let mut net = tiny_net(10);
        let mut rng = TensorRng::seed_from(11);
        let frames: Vec<Tensor> =
            (0..3).map(|_| Tensor::randn(&[1, 2, 2], 0.5, 0.5, &mut rng)).collect();
        let out = runner.run(&mut net, &frames).unwrap();
        assert_eq!(out.timesteps_used, 3);
    }
}
