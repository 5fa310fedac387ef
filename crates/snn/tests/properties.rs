//! Property-based tests of the SNN stack: LIF dynamics under arbitrary
//! configurations, loss-gradient identities, and BPTT cache discipline.
//!
//! Cases are generated from a seeded [`TensorRng`] (48 per property, matching
//! the previous proptest configuration) so failures reproduce from the case
//! index alone and the suite needs no external crates.

use dtsnn_snn::{
    cross_entropy_mean_output, cross_entropy_per_timestep, Flatten, Layer, LifConfig, LifNeuron,
    Linear, Mode, ResetMode, Snn, Surrogate,
};
use dtsnn_tensor::{Tensor, TensorRng, Workspace};

const CASES: u64 = 48;

fn case_rng(case: u64) -> TensorRng {
    TensorRng::seed_from(0x5EED ^ case.wrapping_mul(0x9E37_79B9))
}

#[test]
fn lif_spike_count_monotone_in_input() {
    for case in 0..CASES {
        let mut params = case_rng(case);
        let tau = params.uniform(0.1, 1.0);
        let v_th = params.uniform(0.2, 2.0);
        let base = params.uniform(0.0, 1.0);
        let boost = params.uniform(0.1, 2.0);
        // stronger input current never produces fewer spikes over a window
        let cfg = LifConfig { tau, v_th, ..LifConfig::default() };
        let count = |level: f32| -> f32 {
            let mut lif = LifNeuron::new(cfg);
            let x = Tensor::full(&[1, 4], level);
            let mut total = 0.0;
            for _ in 0..6 {
                total += lif.forward_ws(&x, Mode::Eval, &mut Workspace::new()).unwrap().sum();
            }
            total
        };
        assert!(count(base + boost) >= count(base), "case {case}");
    }
}

#[test]
fn lif_membrane_never_exceeds_threshold_after_reset() {
    for case in 0..CASES {
        let mut params = case_rng(case);
        let tau = params.uniform(0.1, 1.0);
        let v_th = params.uniform(0.2, 2.0);
        let inputs: Vec<f32> = (0..6).map(|_| params.uniform(-1.5, 1.5)).collect();
        let soft = params.bernoulli(0.5);
        let reset = if soft { ResetMode::Subtract } else { ResetMode::Zero };
        let mut lif = LifNeuron::new(LifConfig { tau, v_th, reset, ..LifConfig::default() });
        let mut prev: Option<f32> = None;
        for &v in &inputs {
            let x = Tensor::full(&[1, 3], v);
            let s = lif.forward_ws(&x, Mode::Eval, &mut Workspace::new()).unwrap();
            let u = lif.membrane().unwrap().data()[0];
            let spiked = s.data()[0] == 1.0;
            match reset {
                // hard reset zeroes any crossing: post-reset u ≤ v_th always
                ResetMode::Zero => assert!(u <= v_th + 1e-5, "case {case}: u={u}"),
                // soft reset subtracts exactly one threshold per spike, so
                // u_post = u_pre − v_th on spikes; u can stay above v_th for
                // strong inputs, but never exceeds the pre-reset potential
                ResetMode::Subtract => {
                    let u_pre = prev.map(|p| tau * p).unwrap_or(0.0) + v;
                    if spiked {
                        assert!(
                            (u - (u_pre - v_th)).abs() < 1e-5,
                            "case {case}: u={u} u_pre={u_pre}"
                        );
                    } else {
                        assert!((u - u_pre).abs() < 1e-5, "case {case}");
                    }
                }
            }
            prev = Some(u);
        }
    }
}

#[test]
fn lif_backward_cache_discipline() {
    for case in 0..CASES {
        let mut params = case_rng(case);
        let t = 1 + params.below(5);
        let extra = 1 + params.below(2);
        // exactly t backwards succeed after t forwards; the (t+1)-th fails
        let mut lif = LifNeuron::new(LifConfig::default());
        let x = Tensor::full(&[1, 2], 0.7);
        for _ in 0..t {
            lif.forward_ws(&x, Mode::Train, &mut Workspace::new()).unwrap();
        }
        let g = Tensor::ones(&[1, 2]);
        for _ in 0..t {
            assert!(lif.backward(&g, &mut Workspace::new()).is_ok(), "case {case}");
        }
        for _ in 0..extra {
            assert!(lif.backward(&g, &mut Workspace::new()).is_err(), "case {case}");
        }
    }
}

#[test]
fn ce_gradients_sum_to_zero_per_row() {
    for case in 0..CASES {
        let mut params = case_rng(case);
        let t = 1 + params.below(3);
        let b = 1 + params.below(3);
        // softmax-CE gradient rows always sum to zero (probabilities − onehot)
        let mut rng = TensorRng::seed_from(case);
        let k = 5;
        let outputs: Vec<Tensor> =
            (0..t).map(|_| Tensor::randn(&[b, k], 0.0, 2.0, &mut rng)).collect();
        let labels: Vec<usize> = (0..b).map(|i| i % k).collect();
        for (_, grads) in [
            cross_entropy_mean_output(&outputs, &labels).unwrap(),
            cross_entropy_per_timestep(&outputs, &labels).unwrap(),
        ] {
            for g in grads {
                for row in 0..b {
                    let s: f32 = g.data()[row * k..(row + 1) * k].iter().sum();
                    assert!(s.abs() < 1e-5, "case {case}: row sum {s}");
                }
            }
        }
    }
}

#[test]
fn surrogate_families_bounded() {
    for case in 0..CASES {
        let mut params = case_rng(case);
        let u = params.uniform(-5.0, 5.0);
        let v_th = params.uniform(0.2, 2.0);
        let which = params.below(5);
        let s = match which {
            0 => Surrogate::Rectangular,
            1 => Surrogate::Triangle { gamma: 0.5 },
            2 => Surrogate::Dspike { b: 4.0 },
            3 => Surrogate::Sigmoid { alpha: 3.0 },
            _ => Surrogate::Atan { alpha: 2.0 },
        };
        let g = s.grad(u, v_th);
        assert!(g.is_finite(), "case {case}");
        assert!(g >= 0.0, "case {case}");
        assert!(g <= 5.0, "case {case}: surrogate blew up: {g}");
    }
}

#[test]
fn network_eval_is_deterministic_and_stateless_across_resets() {
    for case in 0..CASES {
        let mut rng = TensorRng::seed_from(case);
        let mut net = Snn::from_layers(vec![
            Box::new(Flatten::new()),
            Box::new(Linear::new(8, 6, &mut rng)),
            Box::new(LifNeuron::new(LifConfig::default())),
            Box::new(Linear::new(6, 3, &mut rng)),
        ]);
        let x = Tensor::randn(&[1, 2, 2, 2], 0.5, 0.5, &mut rng);
        let a = net.forward_sequence(std::slice::from_ref(&x), 3, Mode::Eval).unwrap();
        let b = net.forward_sequence(&[x], 3, Mode::Eval).unwrap();
        for (ya, yb) in a.iter().zip(&b) {
            assert_eq!(ya, yb, "case {case}");
        }
    }
}
