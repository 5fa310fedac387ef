//! Leaky integrate-and-fire neurons (Eqs. 2–3 of the paper).

use crate::layer::{Layer, Mode};
use crate::{Result, SnnError, Surrogate};
use dtsnn_tensor::{simd, Tensor, TensorError, Workspace};

/// How the membrane potential is reset after a spike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ResetMode {
    /// Hard reset to zero: `u ← u·(1 − s)` — the paper's choice.
    #[default]
    Zero,
    /// Soft reset by subtraction: `u ← u − V_th·s`.
    Subtract,
}

/// Configuration of a LIF layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifConfig {
    /// Leak factor `τ ∈ (0, 1]` (Eq. 2).
    pub tau: f32,
    /// Firing threshold `V_th` (Eq. 3); must be positive.
    pub v_th: f32,
    /// Reset behaviour after a spike.
    pub reset: ResetMode,
    /// Surrogate gradient used in backward.
    pub surrogate: Surrogate,
    /// Whether the reset path is detached from the gradient (standard STBP
    /// practice; `true` matches the reference implementations).
    pub detach_reset: bool,
    /// Optional smooth-spike relaxation temperature `b`.
    ///
    /// `None` (the default) keeps the exact Heaviside firing of Eq. 3. With
    /// `Some(b)` the layer instead emits the smooth step
    /// `s = ½·(tanh(b·(u − V_th)) + 1)` and backward uses that function's
    /// exact derivative `½·b·sech²(b·(u − V_th))` in place of the configured
    /// surrogate. Combined with `detach_reset: false`, BPTT then computes the
    /// exact gradient of the relaxed network — the property the conformance
    /// crate's whole-network finite-difference checker relies on. Outputs are
    /// no longer binary, so this mode is for gradient verification only.
    pub smooth_spike: Option<f32>,
}

impl Default for LifConfig {
    fn default() -> Self {
        LifConfig {
            tau: 0.5,
            v_th: 1.0,
            reset: ResetMode::Zero,
            surrogate: Surrogate::Rectangular,
            detach_reset: true,
            smooth_spike: None,
        }
    }
}

impl LifConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] when `τ ∉ (0,1]` or `V_th ≤ 0`.
    pub fn validate(&self) -> Result<()> {
        if !(self.tau > 0.0 && self.tau <= 1.0) {
            return Err(SnnError::InvalidConfig(format!("tau must be in (0,1], got {}", self.tau)));
        }
        if !(self.v_th > 0.0 && self.v_th.is_finite()) {
            return Err(SnnError::InvalidConfig(format!(
                "v_th must be positive and finite, got {}",
                self.v_th
            )));
        }
        if let Some(b) = self.smooth_spike {
            if !(b > 0.0 && b.is_finite()) {
                return Err(SnnError::InvalidConfig(format!(
                    "smooth_spike temperature must be positive and finite, got {b}"
                )));
            }
        }
        Ok(())
    }
}

/// A stateful layer of leaky integrate-and-fire neurons.
///
/// Forward implements Eqs. 2–3 exactly: the input current charges the
/// membrane, a spike fires wherever the membrane exceeds `V_th`, and fired
/// membranes reset. Backward replaces the Heaviside derivative with the
/// configured [`Surrogate`] and carries the membrane gradient across
/// timesteps.
#[derive(Debug, Clone)]
pub struct LifNeuron {
    config: LifConfig,
    /// Post-reset membrane potential carried to the next timestep.
    membrane: Option<Tensor>,
    /// The pre-reset membrane `u[t+1]` of Eq. 2 per timestep (training
    /// only), pushed by forward / popped by backward. The spikes of Eq. 3
    /// are a pure function of it, so backward recomputes them.
    u_pres: Vec<Tensor>,
    /// Gradient w.r.t. the carried membrane, flowing backward through time.
    grad_membrane: Option<Tensor>,
    /// Spike density of the most recent forward output.
    last_density: f32,
    /// Per-batch-row spike densities of the most recent forward output.
    last_row_densities: Vec<f32>,
}

impl LifNeuron {
    /// Creates a LIF layer.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use [`LifConfig::validate`] to
    /// check fallibly.
    pub fn new(config: LifConfig) -> Self {
        config.validate().expect("invalid LIF configuration");
        LifNeuron {
            config,
            membrane: None,
            u_pres: Vec::new(),
            grad_membrane: None,
            last_density: 0.0,
            last_row_densities: Vec::new(),
        }
    }

    /// The layer's configuration.
    pub fn config(&self) -> &LifConfig {
        &self.config
    }

    /// Current membrane potential, if the layer has processed a timestep.
    pub fn membrane(&self) -> Option<&Tensor> {
        self.membrane.as_ref()
    }

    /// What the Train steps leave for backward: the pre-reset membrane of
    /// each step not yet backpropagated (oldest first) and the gradient the
    /// last backward carried to the step before it.
    pub fn bptt_state(&self) -> (&[Tensor], Option<&Tensor>) {
        (&self.u_pres, self.grad_membrane.as_ref())
    }
}

impl Layer for LifNeuron {
    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Result<Tensor> {
        if let Some(u) = self.membrane.as_ref().filter(|u| u.dims() != input.dims()) {
            return Err(SnnError::from(TensorError::ShapeMismatch {
                expected: u.dims().to_vec(),
                actual: input.dims().to_vec(),
            }));
        }
        // Charge, fire, reset and count in one pass (`simd::lif_step`) into
        // arena buffers it overwrites; a Train step also keeps the pre-reset
        // membrane for BPTT. Per element the operations are Eqs. 2–3 as
        // written (safe Rust emits no FMA), in either mode.
        let step = simd::LifStep {
            tau: self.config.tau,
            v_th: self.config.v_th,
            soft_reset: self.config.reset == ResetMode::Subtract,
            smooth_spike: self.config.smooth_spike,
        };
        // one density per axis-0 row, as `Tensor::density_rows` has it
        let rows = if input.is_empty() { 0 } else { input.dims().first().copied().unwrap_or(0) };
        self.last_row_densities.clear();
        self.last_row_densities.resize(rows, 0.0);
        let mut next = ws.take_overwrite(input.len());
        let mut spikes = ws.take_overwrite(input.len());
        let mut u_pre = (mode == Mode::Train).then(|| ws.take_overwrite(input.len()));
        let fired = simd::lif_step(
            step,
            input.data(),
            self.membrane.as_ref().map(Tensor::data),
            &mut next,
            &mut spikes,
            u_pre.as_deref_mut(),
            &mut self.last_row_densities,
        );
        self.last_density = fired as f32 / input.len().max(1) as f32;
        if let Some(u_pre) = u_pre {
            self.u_pres.push(Tensor::from_aligned(u_pre, input.dims())?);
        }
        // the previous membrane's buffer goes back to the arena
        if let Some(old) = self.membrane.replace(Tensor::from_aligned(next, input.dims())?) {
            ws.recycle_tensor(old);
        }
        Ok(Tensor::from_aligned(spikes, input.dims())?)
    }

    fn reset_state_ws(&mut self, ws: &mut Workspace) {
        let carried = self.membrane.take().into_iter().chain(self.grad_membrane.take());
        for u in carried.chain(self.u_pres.drain(..)) {
            ws.recycle_tensor(u);
        }
        self.last_density = 0.0;
        self.last_row_densities.clear();
    }

    fn visit_carried(&mut self, f: &mut dyn FnMut(&mut Option<Tensor>)) {
        f(&mut self.membrane);
    }

    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Result<Tensor> {
        let u_pre = self.u_pres.last().ok_or(SnnError::MissingForwardCache("LifNeuron"))?;
        if grad_out.dims() != u_pre.dims() {
            return Err(SnnError::from(TensorError::ShapeMismatch {
                expected: u_pre.dims().to_vec(),
                actual: grad_out.dims().to_vec(),
            }));
        }
        // ∂L/∂u_pre overwrites u_pre, and τ·∂L/∂u_pre (carried to timestep
        // t−1 if one exists) the gradient carried in, in the same pass; the
        // first backward's carry is an arena buffer the pass overwrites
        let mut grad = self.u_pres.pop().expect("checked above");
        let carry_in = self.grad_membrane.is_some();
        let mut carried = match self.grad_membrane.take() {
            Some(carried) => carried,
            None => Tensor::from_aligned(ws.take_overwrite(grad.len()), grad.dims())?,
        };
        let pass = Bptt { go: grad_out.data(), gu: grad.data_mut(), gm: carried.data_mut() };
        pass.run(&self.config, carry_in);
        if self.u_pres.is_empty() {
            ws.recycle_tensor(carried);
        } else {
            self.grad_membrane = Some(carried);
        }
        // ∂u_pre/∂input = 1.
        Ok(grad)
    }

    fn kind(&self) -> &'static str {
        "lif"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn last_spike_density(&self) -> Option<f32> {
        Some(self.last_density)
    }

    fn last_spike_row_densities(&self) -> Option<&[f32]> {
        Some(&self.last_row_densities)
    }
}

/// One LIF timestep's BPTT in place: `gu` holds `u_pre` and receives
/// `∂L/∂u_pre`, `gm` holds the carried `∂L/∂u` (read when there is one) and
/// receives `τ·∂L/∂u_pre`.
struct Bptt<'a> {
    go: &'a [f32],
    gu: &'a mut [f32],
    gm: &'a mut [f32],
}

impl Bptt<'_> {
    /// Hoists the loop-invariant choices — smooth firing, the Rectangular
    /// surrogate or another family, reset and detach, whether a gradient is
    /// carried in — out of the element loop, one straight loop per
    /// combination. Each recomputes the spike from `u_pre` by the forward's
    /// own expression.
    fn run(self, cfg: &LifConfig, carry_in: bool) {
        let v_th = cfg.v_th;
        let step = move |u: f32| if u > v_th { 1.0 } else { 0.0 };
        let surrogate = move |s: Surrogate| move |u| (step(u), s.grad(u, v_th));
        match (cfg.smooth_spike, cfg.surrogate) {
            // the smooth step and its exact derivative share one tanh
            (Some(b), _) => self.reset(cfg, carry_in, move |u: f32| {
                let t = (b * (u - v_th)).tanh();
                (0.5 * (t + 1.0), 0.5 * b * (1.0 - t * t))
            }),
            // the default surrogate's loops vectorize; the other families
            // share loops that match on theirs per element
            (None, s @ Surrogate::Rectangular) => self.reset(cfg, carry_in, surrogate(s)),
            (None, s) => self.reset(cfg, carry_in, surrogate(s)),
        }
    }

    /// `∂u[t]/∂u_pre[t]` of the reset as a function of `(u_pre, s, ∂s/∂u)`.
    #[inline(always)]
    fn reset(self, cfg: &LifConfig, carry_in: bool, fire: impl Fn(f32) -> (f32, f32)) {
        let (tau, v_th) = (cfg.tau, cfg.v_th);
        match (cfg.reset, cfg.detach_reset, carry_in) {
            (_, _, false) => self.pass::<false>(tau, fire, |_, _, _| 0.0),
            (ResetMode::Zero, true, true) => self.pass::<true>(tau, fire, |_, s, _| 1.0 - s),
            (ResetMode::Zero, false, true) => {
                self.pass::<true>(tau, fire, |u, s, surr| (1.0 - s) - u * surr)
            }
            (ResetMode::Subtract, true, true) => self.pass::<true>(tau, fire, |_, _, _| 1.0),
            (ResetMode::Subtract, false, true) => {
                self.pass::<true>(tau, fire, move |_, _, surr| 1.0 - v_th * surr)
            }
        }
    }

    #[inline(always)]
    fn pass<const CARRY_IN: bool>(
        self,
        tau: f32,
        fire: impl Fn(f32) -> (f32, f32),
        dreset: impl Fn(f32, f32, f32) -> f32,
    ) {
        let (go, gm) = (&self.go[..self.gu.len()], &mut self.gm[..self.gu.len()]);
        for ((gu, &go), gm) in self.gu.iter_mut().zip(go).zip(gm) {
            let up = *gu;
            let (s, surr) = fire(up);
            // Path 1: through the spike output.
            let mut g = go * surr;
            // Path 2: through the carried membrane u[t] → u_pre[t+1].
            if CARRY_IN {
                g += *gm * dreset(up, s, surr);
            }
            *gu = g;
            *gm = g * tau;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        assert!(LifConfig { tau: 0.0, ..LifConfig::default() }.validate().is_err());
        assert!(LifConfig { tau: 1.5, ..LifConfig::default() }.validate().is_err());
        assert!(LifConfig { v_th: -1.0, ..LifConfig::default() }.validate().is_err());
        for v_th in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert!(LifConfig { v_th, ..LifConfig::default() }.validate().is_err(), "{v_th}");
        }
        assert!(LifConfig::default().validate().is_ok());
    }

    #[test]
    fn subthreshold_input_accumulates_with_leak() {
        let mut lif = LifNeuron::new(LifConfig { tau: 0.5, v_th: 1.0, ..LifConfig::default() });
        let x = Tensor::full(&[1, 1], 0.4);
        // u: 0.4, 0.6, 0.7, 0.75 … never crosses 1.0
        for _ in 0..4 {
            let s = lif.forward_ws(&x, Mode::Eval, &mut Workspace::new()).unwrap();
            assert_eq!(s.sum(), 0.0);
        }
        let u = lif.membrane().unwrap().data()[0];
        assert!((u - 0.75).abs() < 1e-5, "u={u}");
    }

    #[test]
    fn spike_fires_and_resets_to_zero() {
        let mut lif = LifNeuron::new(LifConfig { tau: 0.5, v_th: 1.0, ..LifConfig::default() });
        let x = Tensor::full(&[1, 1], 0.7);
        let s1 = lif.forward_ws(&x, Mode::Eval, &mut Workspace::new()).unwrap();
        assert_eq!(s1.sum(), 0.0); // u = 0.7
        let s2 = lif.forward_ws(&x, Mode::Eval, &mut Workspace::new()).unwrap();
        assert_eq!(s2.sum(), 1.0); // u = 1.05 > 1 → spike
        assert_eq!(lif.membrane().unwrap().data()[0], 0.0); // hard reset
    }

    #[test]
    fn soft_reset_subtracts_threshold() {
        let cfg = LifConfig { tau: 1.0, v_th: 1.0, reset: ResetMode::Subtract, ..LifConfig::default() };
        let mut lif = LifNeuron::new(cfg);
        let x = Tensor::full(&[1, 1], 1.3);
        let s = lif.forward_ws(&x, Mode::Eval, &mut Workspace::new()).unwrap();
        assert_eq!(s.sum(), 1.0);
        let u = lif.membrane().unwrap().data()[0];
        assert!((u - 0.3).abs() < 1e-6, "u={u}");
    }

    #[test]
    fn threshold_is_strict_inequality() {
        // Eq. 3: spike iff u > V_th; u == V_th must not fire.
        let mut lif = LifNeuron::new(LifConfig { tau: 0.5, v_th: 1.0, ..LifConfig::default() });
        let x = Tensor::full(&[1, 1], 1.0);
        let s = lif.forward_ws(&x, Mode::Eval, &mut Workspace::new()).unwrap();
        assert_eq!(s.sum(), 0.0);
    }

    #[test]
    fn reset_state_clears_membrane() {
        let mut lif = LifNeuron::new(LifConfig::default());
        let x = Tensor::full(&[1, 2], 0.6);
        lif.forward_ws(&x, Mode::Eval, &mut Workspace::new()).unwrap();
        assert!(lif.membrane().is_some());
        lif.reset_state_ws(&mut Workspace::new());
        assert!(lif.membrane().is_none());
    }

    #[test]
    fn hostile_gradient_is_a_typed_error_and_keeps_the_cache() {
        let mut lif = LifNeuron::new(LifConfig::default());
        let x = Tensor::full(&[2, 4], 0.9);
        let mut ws = Workspace::new();
        lif.forward_ws(&x, Mode::Train, &mut ws).unwrap();
        // wrong rank, wrong n, a short buffer
        for dims in [vec![8], vec![3, 4], vec![2, 3]] {
            let err = lif.backward(&Tensor::ones(&dims), &mut Workspace::new()).unwrap_err();
            assert!(
                matches!(err, SnnError::Tensor(TensorError::ShapeMismatch { .. })),
                "{dims:?}: {err:?}"
            );
        }
        // the rejected gradients left the cache for the right one
        let gx = lif.backward(&Tensor::ones(&[2, 4]), &mut Workspace::new()).unwrap();
        assert_eq!(gx.dims(), &[2, 4]);
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut lif = LifNeuron::new(LifConfig::default());
        let g = Tensor::ones(&[1, 1]);
        let err = lif.backward(&g, &mut Workspace::new());
        assert!(matches!(err, Err(SnnError::MissingForwardCache(_))));
    }

    #[test]
    fn backward_uses_surrogate_window() {
        let mut lif = LifNeuron::new(LifConfig::default());
        // u lands at 0.9 (inside the surrogate window, no spike)
        let x = Tensor::full(&[1, 1], 0.9);
        lif.forward_ws(&x, Mode::Train, &mut Workspace::new()).unwrap();
        let g = lif.backward(&Tensor::ones(&[1, 1]), &mut Workspace::new()).unwrap();
        // Eq. 4 at u=0.9, V_th=1: 1 − |0.9−1| = 0.9
        assert!((g.data()[0] - 0.9).abs() < 1e-5);
        // far below threshold → zero gradient
        lif.reset_state_ws(&mut Workspace::new());
        let x = Tensor::full(&[1, 1], -3.0);
        lif.forward_ws(&x, Mode::Train, &mut Workspace::new()).unwrap();
        let g = lif.backward(&Tensor::ones(&[1, 1]), &mut Workspace::new()).unwrap();
        assert_eq!(g.data()[0], 0.0);
    }

    #[test]
    fn bptt_carries_membrane_gradient() {
        // Two timesteps; gradient injected only at t=2 must reach t=1's input
        // through the leak path.
        let mut lif = LifNeuron::new(LifConfig { tau: 0.5, v_th: 10.0, ..LifConfig::default() });
        let x = Tensor::full(&[1, 1], 1.0);
        lif.forward_ws(&x, Mode::Train, &mut Workspace::new()).unwrap(); // t=1, u=1
        lif.forward_ws(&x, Mode::Train, &mut Workspace::new()).unwrap(); // t=2, u=1.5
        // upstream gradient dL/ds=0 both steps, but membrane path still matters
        // only through spikes; with v_th=10 surrogate window is wide: grad at
        // u=1.5: max(0, 10-8.5)=1.5; at t=1 carry = τ * that * dreset(=1, s=0)
        let g2 = lif.backward(&Tensor::ones(&[1, 1]), &mut Workspace::new()).unwrap();
        assert!((g2.data()[0] - 1.5).abs() < 1e-5);
        let g1 = lif.backward(&Tensor::zeros(&[1, 1]), &mut Workspace::new()).unwrap();
        // carry τ·1.5 = 0.75, times dreset 1 → grad through membrane only
        assert!((g1.data()[0] - 0.75).abs() < 1e-5);
    }

    #[test]
    fn smooth_spike_config_validation() {
        assert!(LifConfig { smooth_spike: Some(0.0), ..LifConfig::default() }.validate().is_err());
        assert!(LifConfig { smooth_spike: Some(f32::NAN), ..LifConfig::default() }
            .validate()
            .is_err());
        assert!(LifConfig { smooth_spike: Some(4.0), ..LifConfig::default() }.validate().is_ok());
    }

    #[test]
    fn smooth_spike_bptt_is_exact_gradient() {
        // With the smooth forward and an attached reset the analytic BPTT
        // gradient must equal a central finite difference of the input.
        for reset in [ResetMode::Zero, ResetMode::Subtract] {
            let cfg = LifConfig {
                tau: 0.5,
                v_th: 1.0,
                reset,
                detach_reset: false,
                smooth_spike: Some(3.0),
                ..LifConfig::default()
            };
            let steps = 3;
            let base = [0.9f32, 0.7, 1.2];
            let run = |inputs: &[f32]| -> f32 {
                let mut lif = LifNeuron::new(cfg);
                let mut total = 0.0;
                for &v in inputs {
                    let s = lif.forward_ws(&Tensor::full(&[1, 1], v), Mode::Eval, &mut Workspace::new()).unwrap();
                    total += s.data()[0];
                }
                total
            };
            // analytic: sum of spikes over all timesteps, dL/ds_t = 1
            let mut lif = LifNeuron::new(cfg);
            for &v in &base {
                lif.forward_ws(&Tensor::full(&[1, 1], v), Mode::Train, &mut Workspace::new()).unwrap();
            }
            let mut analytic = [0.0f32; 3];
            for t in (0..steps).rev() {
                let g = lif.backward(&Tensor::ones(&[1, 1]), &mut Workspace::new()).unwrap();
                analytic[t] = g.data()[0];
            }
            let eps = 1e-3;
            for t in 0..steps {
                let mut plus = base;
                plus[t] += eps;
                let mut minus = base;
                minus[t] -= eps;
                let num = (run(&plus) - run(&minus)) / (2.0 * eps);
                assert!(
                    (num - analytic[t]).abs() < 1e-3,
                    "{reset:?} t={t}: numeric {num} vs analytic {}",
                    analytic[t]
                );
            }
        }
    }

    #[test]
    fn spike_density_reported() {
        let mut lif = LifNeuron::new(LifConfig::default());
        let x = Tensor::from_vec(vec![2.0, 0.0, 2.0, 0.0], &[1, 4]).unwrap();
        lif.forward_ws(&x, Mode::Eval, &mut Workspace::new()).unwrap();
        assert_eq!(lif.last_spike_density(), Some(0.5));
    }

    #[test]
    fn per_row_densities_reported_per_batch_row() {
        let mut lif = LifNeuron::new(LifConfig::default());
        // row 0 fires both neurons, row 1 one, row 2 none
        let x = Tensor::from_vec(vec![2.0, 2.0, 2.0, 0.0, 0.0, 0.0], &[3, 2]).unwrap();
        lif.forward_ws(&x, Mode::Eval, &mut Workspace::new()).unwrap();
        assert_eq!(lif.last_spike_row_densities(), Some([1.0, 0.5, 0.0].as_slice()));
        lif.reset_state_ws(&mut Workspace::new());
        assert_eq!(lif.last_spike_row_densities(), Some([].as_slice()));
    }
}
