//! SGD with momentum and L2 regularization, plus the cosine learning-rate
//! schedule the paper trains with (lr 0.1, cosine decay, L2 5e-4).

use crate::network::Snn;
use crate::{Result, SnnError};

/// Hyperparameters for [`Sgd`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdConfig {
    /// Base learning rate.
    pub lr: f32,
    /// Momentum coefficient in `[0, 1)`.
    pub momentum: f32,
    /// L2 regularization (applied only to params flagged `decay`).
    pub weight_decay: f32,
}

impl Default for SgdConfig {
    fn default() -> Self {
        // Paper Sec. IV-A: lr 0.1 with cosine decay, L2 = 0.0005.
        SgdConfig { lr: 0.1, momentum: 0.9, weight_decay: 5e-4 }
    }
}

impl SgdConfig {
    /// Validates the hyperparameters.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] for nonpositive lr, momentum
    /// outside `[0,1)`, or negative weight decay.
    pub fn validate(&self) -> Result<()> {
        if self.lr <= 0.0 {
            return Err(SnnError::InvalidConfig(format!("lr must be positive, got {}", self.lr)));
        }
        if !(0.0..1.0).contains(&self.momentum) {
            return Err(SnnError::InvalidConfig(format!(
                "momentum must be in [0,1), got {}",
                self.momentum
            )));
        }
        if self.weight_decay < 0.0 {
            return Err(SnnError::InvalidConfig("weight decay must be nonnegative".into()));
        }
        Ok(())
    }
}

/// Stochastic gradient descent with classical momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    config: SgdConfig,
    current_lr: f32,
}

impl Sgd {
    /// Creates an optimizer.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] for invalid hyperparameters.
    pub fn new(config: SgdConfig) -> Result<Self> {
        config.validate()?;
        Ok(Sgd { current_lr: config.lr, config })
    }

    /// The learning rate the next [`Sgd::step`] will use.
    pub fn lr(&self) -> f32 {
        self.current_lr
    }

    /// Overrides the learning rate (driven by a schedule).
    pub fn set_lr(&mut self, lr: f32) {
        self.current_lr = lr.max(0.0);
    }

    /// Applies one update to every parameter of `network` and zeroes grads.
    pub fn step(&mut self, network: &mut Snn) {
        let lr = self.current_lr;
        let mu = self.config.momentum;
        let wd = self.config.weight_decay;
        network.visit_params(&mut |p| {
            let decay = if p.decay { wd } else { 0.0 };
            let values = p.value.data_mut().iter_mut();
            let momenta = p.momentum.data_mut().iter_mut();
            for ((v, m), g) in values.zip(momenta).zip(p.grad.data()) {
                *m = mu * *m + g + decay * *v;
                *v -= lr * *m;
            }
            p.zero_grad();
        });
    }
}

/// Cosine learning-rate decay: `lr(e) = lr₀ · ½(1 + cos(π e / E))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CosineSchedule {
    base_lr: f32,
    total_epochs: usize,
}

impl CosineSchedule {
    /// Creates a schedule over `total_epochs` epochs.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] when `total_epochs == 0`.
    pub fn new(base_lr: f32, total_epochs: usize) -> Result<Self> {
        if total_epochs == 0 {
            return Err(SnnError::InvalidConfig("cosine schedule needs ≥ 1 epoch".into()));
        }
        Ok(CosineSchedule { base_lr, total_epochs })
    }

    /// Learning rate at `epoch` (clamped to the final epoch).
    pub fn lr_at(&self, epoch: usize) -> f32 {
        let e = epoch.min(self.total_epochs) as f32;
        let frac = e / self.total_epochs as f32;
        0.5 * self.base_lr * (1.0 + (std::f32::consts::PI * frac).cos())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Linear;
    use crate::network::Snn;
    use crate::Mode;
    use dtsnn_tensor::{Tensor, TensorRng};

    #[test]
    fn config_validation() {
        assert!(SgdConfig { lr: 0.0, ..SgdConfig::default() }.validate().is_err());
        assert!(SgdConfig { momentum: 1.0, ..SgdConfig::default() }.validate().is_err());
        assert!(SgdConfig { weight_decay: -1.0, ..SgdConfig::default() }.validate().is_err());
        assert!(SgdConfig::default().validate().is_ok());
    }

    #[test]
    fn sgd_descends_a_quadratic() {
        // minimize ||W x − y||² for a 1-layer linear net by hand-computed grads
        let mut rng = TensorRng::seed_from(1);
        let mut net = Snn::from_layers(vec![Box::new(Linear::new(2, 1, &mut rng))]);
        let x = Tensor::from_vec(vec![1.0, 0.5], &[1, 2]).unwrap();
        let target = 3.0;
        let mut sgd = Sgd::new(SgdConfig { lr: 0.1, momentum: 0.0, weight_decay: 0.0 }).unwrap();
        let mut last = f32::INFINITY;
        for _ in 0..100 {
            net.reset_state();
            let y = net.forward_timestep(&x, Mode::Train).unwrap();
            let err = y.data()[0] - target;
            net.backward_timestep(&Tensor::from_vec(vec![2.0 * err], &[1, 1]).unwrap()).unwrap();
            sgd.step(&mut net);
            let loss = err * err;
            assert!(loss <= last + 1e-4);
            last = loss;
        }
        assert!(last < 1e-3, "loss={last}");
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut rng = TensorRng::seed_from(2);
        let mut net = Snn::from_layers(vec![Box::new(Linear::new(4, 4, &mut rng))]);
        let mut before = 0.0;
        net.visit_params(&mut |p| {
            if p.decay {
                before += p.value.norm_sq()
            }
        });
        let mut sgd = Sgd::new(SgdConfig { lr: 0.1, momentum: 0.0, weight_decay: 0.1 }).unwrap();
        // zero gradients: only decay acts
        sgd.step(&mut net);
        let mut after = 0.0;
        net.visit_params(&mut |p| {
            if p.decay {
                after += p.value.norm_sq()
            }
        });
        assert!(after < before);
    }

    #[test]
    fn cosine_schedule_endpoints_and_monotonicity() {
        let s = CosineSchedule::new(0.1, 100).unwrap();
        assert!((s.lr_at(0) - 0.1).abs() < 1e-7);
        assert!(s.lr_at(100) < 1e-7);
        assert!((s.lr_at(50) - 0.05).abs() < 1e-7);
        for e in 1..=100 {
            assert!(s.lr_at(e) <= s.lr_at(e - 1) + 1e-9);
        }
        assert!(CosineSchedule::new(0.1, 0).is_err());
        // clamps beyond the horizon
        assert_eq!(s.lr_at(500), s.lr_at(100));
    }
}
