//! `LifNeuron` in both modes — the one-pass `simd::lif_step` forward and
//! the hoisted BPTT loop — against the plain-tensor Train step and backward
//! loop it replaced, kept here verbatim as the oracle, bit for bit.
//!
//! In its own process: the equivalence test flips the process-wide SIMD
//! override.

use dtsnn_snn::{Layer, LifConfig, LifNeuron, Mode, ResetMode, Surrogate};
use dtsnn_tensor::{simd, SimdLevel, Tensor, TensorRng, Workspace};

/// The former `LifNeuron` Train arm and backward, verbatim but for the
/// field names of their owner: Eqs. 2–3 one tensor operation per pass,
/// `u_pre` and the spikes cached per timestep.
struct Oracle {
    config: LifConfig,
    membrane: Option<Tensor>,
    caches: Vec<(Tensor, Tensor)>,
    grad_membrane: Option<Tensor>,
    last_density: f32,
    last_row_densities: Vec<f32>,
}

impl Oracle {
    fn new(config: LifConfig) -> Self {
        Oracle {
            config,
            membrane: None,
            caches: Vec::new(),
            grad_membrane: None,
            last_density: 0.0,
            last_row_densities: Vec::new(),
        }
    }

    fn step_train(&mut self, input: &Tensor) -> Tensor {
        let tau = self.config.tau;
        let v_th = self.config.v_th;
        // u_pre = τ·u + W·s  (Eq. 2); membrane starts at 0 for a new sequence.
        let u_pre = match &self.membrane {
            Some(u) => {
                let mut m = u.scale(tau);
                m.axpy(1.0, input).unwrap();
                m
            }
            None => input.clone(),
        };
        let mut spikes = Tensor::zeros(u_pre.dims());
        {
            let s = spikes.data_mut();
            match self.config.smooth_spike {
                None => {
                    for (o, &u) in s.iter_mut().zip(u_pre.data()) {
                        *o = if u > v_th { 1.0 } else { 0.0 };
                    }
                }
                Some(b) => {
                    for (o, &u) in s.iter_mut().zip(u_pre.data()) {
                        *o = 0.5 * ((b * (u - v_th)).tanh() + 1.0);
                    }
                }
            }
        }
        // Reset (Eq. 3 text): zero or subtract.
        let mut next = u_pre.clone();
        {
            let m = next.data_mut();
            match self.config.reset {
                ResetMode::Zero => {
                    for (u, &s) in m.iter_mut().zip(spikes.data()) {
                        *u *= 1.0 - s;
                    }
                }
                ResetMode::Subtract => {
                    for (u, &s) in m.iter_mut().zip(spikes.data()) {
                        *u -= v_th * s;
                    }
                }
            }
        }
        self.membrane = Some(next);
        self.last_density = spikes.density();
        self.last_row_densities = spikes.density_rows();
        self.caches.push((u_pre, spikes.clone()));
        spikes
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (u_pre, spikes) = self.caches.pop().unwrap();
        let v_th = self.config.v_th;
        let sg = self.config.surrogate;
        let n = u_pre.len();
        let mut grad_u_pre = Tensor::zeros(u_pre.dims());
        {
            let gu = grad_u_pre.data_mut();
            let up = u_pre.data();
            let sp = spikes.data();
            let go = grad_out.data();
            let gm = self.grad_membrane.as_ref().map(|t| t.data());
            let smooth = self.config.smooth_spike;
            for i in 0..n {
                let surr = match smooth {
                    None => sg.grad(up[i], v_th),
                    // exact derivative of the smooth forward step
                    Some(b) => {
                        let t = (b * (up[i] - v_th)).tanh();
                        0.5 * b * (1.0 - t * t)
                    }
                };
                // Path 1: through the spike output.
                let mut g = go[i] * surr;
                // Path 2: through the carried membrane u[t] → u_pre[t+1].
                if let Some(gm) = gm {
                    let dreset = match (self.config.reset, self.config.detach_reset) {
                        (ResetMode::Zero, true) => 1.0 - sp[i],
                        (ResetMode::Zero, false) => (1.0 - sp[i]) - up[i] * surr,
                        (ResetMode::Subtract, true) => 1.0,
                        (ResetMode::Subtract, false) => 1.0 - v_th * surr,
                    };
                    g += gm[i] * dreset;
                }
                gu[i] = g;
            }
        }
        // Carry τ·∂L/∂u_pre[t] to timestep t−1 (only if one exists).
        self.grad_membrane =
            if self.caches.is_empty() { None } else { Some(grad_u_pre.scale(self.config.tau)) };
        // ∂u_pre/∂input = 1.
        grad_u_pre
    }
}

/// Bit patterns, with every NaN mapped to one pattern: where a NaN membrane
/// meets a NaN input in the charge, x86 keeps the first operand's sign and
/// payload, and which operand the compiler puts first is not pinned.
fn bits(data: &[f32]) -> Vec<u32> {
    data.iter().map(|v| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() }).collect()
}

/// Membrane-scale noise with the values a step must survive sprinkled in:
/// `+inf` spikes and resets through `inf·0 → NaN`, NaN compares false
/// against the threshold, `-0.0` must keep its sign through the first step.
fn input_of(dims: &[usize], rng: &mut TensorRng) -> Tensor {
    let mut x = Tensor::randn(dims, 0.2, 1.0, rng);
    for v in x.data_mut() {
        if rng.bernoulli(0.15) {
            *v = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -0.0, 0.0, 0.4][rng.below(6)];
        }
    }
    x
}

/// Everything one forward step exposes: spikes, carried membrane, densities.
type Step = (Vec<u32>, Vec<u32>, u32, Vec<u32>);

fn observe(lif: &LifNeuron, spikes: &Tensor) -> Step {
    (
        bits(spikes.data()),
        bits(lif.membrane().expect("stepped").data()),
        lif.last_spike_density().expect("lif").to_bits(),
        lif.last_spike_row_densities().expect("lif").iter().map(|d| d.to_bits()).collect(),
    )
}

fn observe_oracle(o: &Oracle, spikes: &Tensor) -> Step {
    (
        bits(spikes.data()),
        bits(o.membrane.as_ref().expect("stepped").data()),
        o.last_density.to_bits(),
        o.last_row_densities.iter().map(|d| d.to_bits()).collect(),
    )
}

/// Every configuration the layer has: reset × detach × surrogate × smooth
/// spike.
fn configs() -> Vec<LifConfig> {
    let surrogates = [
        Surrogate::Rectangular,
        Surrogate::Triangle { gamma: 0.7 },
        Surrogate::Dspike { b: 2.0 },
        Surrogate::Sigmoid { alpha: 4.0 },
        Surrogate::Atan { alpha: 2.0 },
    ];
    let mut out = Vec::new();
    for reset in [ResetMode::Zero, ResetMode::Subtract] {
        for detach_reset in [true, false] {
            for surrogate in surrogates {
                for smooth_spike in [None, Some(3.0)] {
                    out.push(LifConfig {
                        tau: 0.5,
                        v_th: 0.4,
                        reset,
                        surrogate,
                        detach_reset,
                        smooth_spike,
                    });
                }
            }
        }
    }
    out
}

#[test]
fn lif_train_and_eval_match_the_plain_tensor_oracle_bitwise() {
    // four timesteps from a fresh state (the first has no membrane to
    // charge from) and back, through one workspace shared by every case so
    // the overwrite-takes reuse — and in the test profile find poisoned —
    // buffers of other shapes
    const T: usize = 4;
    let mut rng = TensorRng::seed_from(0x11F5);
    let mut ws = Workspace::new();
    for cfg in configs() {
        for batch in [0usize, 1, 5] {
            for row_len in [1usize, 7, 33, 256] {
                // the same row as a vector and as a `[c, h, w]` map
                let dims = if row_len == 256 { vec![batch, 4, 8, 8] } else { vec![batch, row_len] };
                let inputs: Vec<Tensor> = (0..T).map(|_| input_of(&dims, &mut rng)).collect();
                let grads: Vec<Tensor> = (0..T).map(|_| input_of(&dims, &mut rng)).collect();
                let tag = format!("{cfg:?} dims={dims:?}");
                let mut oracle = Oracle::new(cfg);
                let mut want_fwd = Vec::new();
                let mut want_u_pre = Vec::new();
                for x in &inputs {
                    let spikes = oracle.step_train(x);
                    want_fwd.push(observe_oracle(&oracle, &spikes));
                    want_u_pre.push(bits(oracle.caches.last().unwrap().0.data()));
                }
                // per backward step: the input gradient, then the carried one
                let mut want_bwd = Vec::new();
                for g in grads.iter().rev() {
                    let gx = oracle.backward(g);
                    want_bwd.push((bits(gx.data()), oracle.grad_membrane.as_ref().map(|t| bits(t.data()))));
                }
                for level in SimdLevel::ALL {
                    let case = format!("{tag} {level:?}");
                    simd::with_level(level, || {
                        let mut lif = LifNeuron::new(cfg);
                        for (t, x) in inputs.iter().enumerate() {
                            let spikes = lif.forward_ws(x, Mode::Train, &mut ws).unwrap();
                            assert_eq!(observe(&lif, &spikes), want_fwd[t], "{case} t={t}");
                            let u_pre = lif.bptt_state().0.last().expect("cached");
                            assert_eq!(bits(u_pre.data()), want_u_pre[t], "{case} t={t}");
                        }
                        for (step, g) in grads.iter().rev().enumerate() {
                            let gx = lif.backward(g, &mut ws).unwrap();
                            let carried = lif.bptt_state().1.map(|t| bits(t.data()));
                            assert_eq!(
                                (bits(gx.data()), carried),
                                want_bwd[step],
                                "{case} back {step}"
                            );
                            ws.recycle_tensor(gx);
                        }
                        assert!(lif.bptt_state().0.is_empty());
                        lif.reset_state_ws(&mut ws);
                        // the Eval arm is the same forward without the cache
                        for (t, x) in inputs.iter().enumerate() {
                            let spikes = lif.forward_ws(x, Mode::Eval, &mut ws).unwrap();
                            assert_eq!(spikes.dims(), x.dims(), "{case}");
                            assert_eq!(observe(&lif, &spikes), want_fwd[t], "{case} eval t={t}");
                            ws.recycle_tensor(spikes);
                        }
                        assert!(lif.bptt_state().0.is_empty());
                        lif.reset_state_ws(&mut ws);
                    })
                }
            }
        }
    }
}

#[test]
fn a_membrane_of_another_shape_is_a_typed_error() {
    let mut ws = Workspace::new();
    let mut lif = LifNeuron::new(LifConfig::default());
    for mode in [Mode::Eval, Mode::Train] {
        lif.forward_ws(&Tensor::zeros(&[2, 3]), mode, &mut ws).unwrap();
        assert!(lif.forward_ws(&Tensor::zeros(&[3, 2]), mode, &mut ws).is_err());
        // the carried state survives the rejected step
        assert_eq!(lif.membrane().unwrap().dims(), &[2, 3]);
        lif.reset_state_ws(&mut ws);
    }
}
