//! Whole-network finite-difference gradient verification.
//!
//! BPTT through a spiking network cannot normally be gradient-checked: the
//! Heaviside firing function makes the loss piecewise constant, so finite
//! differences see zero while the surrogate backward reports nonzero. The
//! conformance build sidesteps this with two opt-in switches that make the
//! forward pass a smooth function whose *exact* derivative the existing
//! backward code computes:
//!
//! - [`LifConfig::smooth_spike`] replaces the hard threshold with
//!   `s = ½·(tanh(b·(u − V_th)) + 1)` and backs it with the exact
//!   `½·b·sech²` derivative (with `detach_reset: false` the reset-path
//!   gradients are exact for the relaxed dynamics too);
//! - [`Snn::freeze_norm_stats`] sets BatchNorm momentum to zero, so the
//!   Train-mode forward normalizes with constant statistics and its backward
//!   is the exact adjoint.
//!
//! With both engaged, central finite differences over randomly sampled
//! parameters of a complete VGG/ResNet-block network — through multi-timestep
//! BPTT and either the Eq. 9 mean-output or Eq. 10 per-timestep loss — must
//! agree with the analytic gradients to first order. Any sign error, dropped
//! term, or mis-ordered cache in *any* layer's backward shows up here.

use crate::Result;
use dtsnn_bench::Arch;
use dtsnn_snn::{LifConfig, LossKind, Mode, ModelConfig, Snn};
use dtsnn_tensor::{Tensor, TensorRng};

/// One gradient-check configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradCheckConfig {
    /// Backbone under check.
    pub arch: Arch,
    /// Training loss (Eq. 9 or Eq. 10).
    pub loss: LossKind,
    /// Seed for weights, inputs and parameter sampling.
    pub seed: u64,
    /// BPTT window.
    pub timesteps: usize,
    /// Batch size of the checked forward.
    pub batch: usize,
    /// Scalar parameters sampled per parameter tensor.
    pub samples_per_tensor: usize,
    /// Central-difference step.
    pub epsilon: f32,
    /// Absolute tolerance floor (covers f32 loss round-off).
    pub abs_tol: f32,
    /// Relative tolerance on top of the floor.
    pub rel_tol: f32,
}

impl GradCheckConfig {
    /// Default check for one `(arch, loss)` pair: a small-width network,
    /// three timesteps, two samples per parameter tensor.
    pub fn new(arch: Arch, loss: LossKind) -> Self {
        GradCheckConfig {
            arch,
            loss,
            seed: 0x6E4D,
            timesteps: 3,
            batch: 2,
            samples_per_tensor: 2,
            epsilon: 1e-2,
            abs_tol: 2e-3,
            rel_tol: 0.05,
        }
    }

    fn model_config(&self) -> ModelConfig {
        ModelConfig {
            in_channels: 2,
            image_size: 8,
            num_classes: 4,
            lif: LifConfig {
                tau: 0.5,
                v_th: 1.0,
                detach_reset: false,
                smooth_spike: Some(4.0),
                ..LifConfig::default()
            },
            width: 4,
            tdbn_alpha: 1.0,
        }
    }
}

/// Outcome of one whole-network gradient check.
#[derive(Debug, Clone, PartialEq)]
pub struct GradCheckReport {
    /// Scalar parameters compared.
    pub checked: usize,
    /// Largest |analytic − numeric| observed.
    pub max_abs_err: f32,
    /// Largest |analytic gradient| among the samples — a vacuity guard: a
    /// check over an all-zero gradient field would pass for free.
    pub max_abs_grad: f32,
    /// One line per out-of-tolerance parameter (empty = pass).
    pub failures: Vec<String>,
}

/// Applies `f` to the scalar at `(tensor_idx, elem_idx)` of `net`'s
/// parameters, in `visit_params` order.
fn with_param_scalar(net: &mut Snn, tensor_idx: usize, elem_idx: usize, f: &mut dyn FnMut(&mut f32)) {
    let mut i = 0usize;
    net.visit_params(&mut |p| {
        if i == tensor_idx {
            f(&mut p.value.data_mut()[elem_idx]);
        }
        i += 1;
    });
}

/// Runs the full-network central-difference check described by `cfg`.
///
/// # Errors
///
/// Propagates model-construction and forward/backward errors; out-of-tolerance
/// gradients are reported in [`GradCheckReport::failures`], not as `Err`.
pub fn check_network_gradients(cfg: &GradCheckConfig) -> Result<GradCheckReport> {
    let model_cfg = cfg.model_config();
    let mut rng = TensorRng::seed_from(cfg.seed);
    let mut pristine = cfg.arch.build(&model_cfg, &mut rng)?;
    // zero-momentum BN: Train-mode forward becomes a pure function (see
    // module docs), which both the analytic and FD evaluations require
    pristine.freeze_norm_stats();

    let frame = Tensor::randn(
        &[cfg.batch, model_cfg.in_channels, model_cfg.image_size, model_cfg.image_size],
        0.5,
        0.5,
        &mut rng,
    );
    let labels: Vec<usize> = (0..cfg.batch).map(|i| i % model_cfg.num_classes).collect();

    let loss_of = |net: &mut Snn| -> Result<f32> {
        let outputs =
            net.forward_sequence(std::slice::from_ref(&frame), cfg.timesteps, Mode::Train)?;
        Ok(cfg.loss.compute(&outputs, &labels)?.0)
    };

    // analytic gradients via BPTT on a fresh clone
    let mut analytic_net = pristine.clone();
    let outputs =
        analytic_net.forward_sequence(std::slice::from_ref(&frame), cfg.timesteps, Mode::Train)?;
    let (_, grads) = cfg.loss.compute(&outputs, &labels)?;
    analytic_net.zero_grads();
    for g in grads.iter().rev() {
        analytic_net.backward_timestep(g)?;
    }

    // sample scalar parameters, stratified across every parameter tensor
    let mut tensor_lens = Vec::new();
    analytic_net.visit_params(&mut |p| tensor_lens.push(p.value.data().len()));
    let mut picks: Vec<(usize, usize)> = Vec::new();
    for (t, &len) in tensor_lens.iter().enumerate() {
        let mut seen = Vec::new();
        for _ in 0..cfg.samples_per_tensor.min(len) {
            let e = rng.below(len);
            if !seen.contains(&e) {
                seen.push(e);
                picks.push((t, e));
            }
        }
    }

    let mut analytic = Vec::with_capacity(picks.len());
    for &(t, e) in &picks {
        let mut i = 0usize;
        let mut g = 0.0f32;
        analytic_net.visit_params(&mut |p| {
            if i == t {
                g = p.grad.data()[e];
            }
            i += 1;
        });
        analytic.push(g);
    }

    let mut failures = Vec::new();
    let mut max_abs_err = 0.0f32;
    let max_abs_grad = analytic.iter().fold(0.0f32, |m, g| m.max(g.abs()));
    for (&(t, e), &ana) in picks.iter().zip(&analytic) {
        let mut plus = pristine.clone();
        with_param_scalar(&mut plus, t, e, &mut |w| *w += cfg.epsilon);
        let lp = loss_of(&mut plus)?;
        let mut minus = pristine.clone();
        with_param_scalar(&mut minus, t, e, &mut |w| *w -= cfg.epsilon);
        let lm = loss_of(&mut minus)?;
        let numeric = (lp - lm) / (2.0 * cfg.epsilon);
        let err = (ana - numeric).abs();
        max_abs_err = max_abs_err.max(err);
        let tol = cfg.abs_tol + cfg.rel_tol * ana.abs().max(numeric.abs());
        if err > tol {
            failures.push(format!(
                "{} {} param tensor {t}[{e}]: analytic {ana:.6} vs numeric {numeric:.6} (err {err:.2e} > tol {tol:.2e})",
                cfg.arch.name(),
                cfg.loss.name(),
            ));
        }
    }
    Ok(GradCheckReport { checked: picks.len(), max_abs_err, max_abs_grad, failures })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_covers_both_archs_and_losses() {
        for arch in Arch::all() {
            for loss in [LossKind::MeanOutput, LossKind::PerTimestep] {
                let cfg = GradCheckConfig::new(arch, loss);
                assert!(cfg.epsilon > 0.0 && cfg.samples_per_tensor > 0);
                // the check-mode model must engage both exactness switches
                let mc = cfg.model_config();
                assert!(mc.lif.smooth_spike.is_some());
                assert!(!mc.lif.detach_reset);
            }
        }
    }
}
