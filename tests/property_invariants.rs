//! Property-based invariants spanning crates: entropy bounds, exit-policy
//! monotonicity, LIF dynamics, energy-model monotonicity, quantization.
//!
//! Each property runs over `CASES` seeded random instances drawn from
//! [`TensorRng`], so failures reproduce exactly by case index.

use dt_snn::dtsnn::ExitPolicy;
use dt_snn::imc::{
    exact_normalized_entropy, ChipMapping, CostModel, HardwareConfig, SigmaEModule,
};
use dt_snn::snn::{vgg_small, Layer, LifConfig, LifNeuron, Mode, ModelConfig, Surrogate};
use dt_snn::tensor::quant::quantize_dequantize;
use dt_snn::tensor::{softmax_rows, Tensor, TensorRng, Workspace};

const CASES: u64 = 64;

fn case_rng(case: u64) -> TensorRng {
    TensorRng::seed_from(0x1B4A_57E5 ^ case.wrapping_mul(0x9E37_79B9))
}

fn probability_vector(rng: &mut TensorRng, k: usize) -> Vec<f32> {
    let raw: Vec<f32> = (0..k).map(|_| rng.uniform(0.01, 10.0)).collect();
    let s: f32 = raw.iter().sum();
    raw.iter().map(|v| v / s).collect()
}

#[test]
fn normalized_entropy_is_in_unit_interval() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let p = probability_vector(&mut rng, 10);
        let e = exact_normalized_entropy(&p);
        assert!((0.0..=1.0).contains(&e), "case {case}: entropy {e}");
    }
}

#[test]
fn entropy_of_concentrated_below_uniform() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let mass = rng.uniform(0.5, 0.99);
        let k = 3 + rng.below(9);
        let mut p = vec![(1.0 - mass) / (k - 1) as f32; k];
        p[0] = mass;
        let concentrated = exact_normalized_entropy(&p);
        let uniform = exact_normalized_entropy(&vec![1.0 / k as f32; k]);
        assert!(concentrated < uniform + 1e-6, "case {case}: {concentrated} vs {uniform}");
    }
}

#[test]
fn entropy_exit_is_monotone_in_theta() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let p = probability_vector(&mut rng, 8);
        let theta = rng.uniform(0.01, 0.99);
        let lo = ExitPolicy::entropy(theta).unwrap();
        let hi = ExitPolicy::entropy((theta + 0.3).min(1.0)).unwrap();
        // exiting under a strict threshold implies exiting under a lax one
        if lo.should_exit(&p) {
            assert!(hi.should_exit(&p), "case {case}: θ={theta}");
        }
    }
}

#[test]
fn lut_entropy_tracks_exact() {
    let module = SigmaEModule::new(&HardwareConfig::default()).unwrap();
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let p = probability_vector(&mut rng, 10);
        let logits: Vec<f32> = p.iter().map(|v| v.ln()).collect();
        let reading = module.evaluate(&logits, 0.5).unwrap();
        let exact = exact_normalized_entropy(&p);
        assert!(
            (reading.entropy - exact).abs() < 0.05,
            "case {case}: LUT {} vs exact {exact}",
            reading.entropy
        );
    }
}

#[test]
fn softmax_rows_always_normalized() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let vals: Vec<f32> = (0..12).map(|_| rng.uniform(-30.0, 30.0)).collect();
        let t = Tensor::from_vec(vals, &[3, 4]).unwrap();
        let p = softmax_rows(&t).unwrap();
        for r in 0..3 {
            let s: f32 = p.data()[r * 4..(r + 1) * 4].iter().sum();
            assert!((s - 1.0).abs() < 1e-4, "case {case}: row {r} sums to {s}");
            assert!(
                p.data()[r * 4..(r + 1) * 4].iter().all(|v| v.is_finite() && *v >= 0.0),
                "case {case}: row {r} not a distribution"
            );
        }
    }
}

#[test]
fn lif_spikes_are_binary_and_membrane_bounded() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let inputs: Vec<f32> = (0..8).map(|_| rng.uniform(-2.0, 2.0)).collect();
        let tau = rng.uniform(0.1, 1.0);
        let v_th = rng.uniform(0.2, 2.0);
        let mut lif = LifNeuron::new(LifConfig {
            tau,
            v_th,
            surrogate: Surrogate::Rectangular,
            ..LifConfig::default()
        });
        let frame = Tensor::from_vec(inputs, &[1, 8]).unwrap();
        for _ in 0..6 {
            let s = lif.forward_ws(&frame, Mode::Eval, &mut Workspace::new()).unwrap();
            assert!(
                s.data().iter().all(|&v| v == 0.0 || v == 1.0),
                "case {case}: non-binary spike"
            );
            // hard reset: post-reset membrane never exceeds v_th
            let u = lif.membrane().unwrap();
            assert!(
                u.data().iter().all(|&v| v <= v_th + 1e-5),
                "case {case}: membrane exceeds threshold"
            );
        }
    }
}

#[test]
fn energy_monotone_in_density_and_timesteps() {
    let config = HardwareConfig::default();
    let cfg = ModelConfig::default();
    let net = vgg_small(&cfg, &mut TensorRng::seed_from(0)).unwrap();
    let geometry: Vec<_> =
        net.weight_layers(&cfg.input_dims()).unwrap().into_iter().map(|(g, _)| g).collect();
    let mapping = ChipMapping::map(&geometry, &config).unwrap();
    let model = CostModel::new(mapping, config).unwrap();
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let d1 = rng.uniform(0.05, 0.45);
        let extra = rng.uniform(0.05, 0.5);
        let t = 1 + rng.below(5);
        let lo = vec![d1; geometry.len()];
        let hi = vec![(d1 + extra).min(1.0); geometry.len()];
        let e_lo = model.timestep_energy(&lo).unwrap().total();
        let e_hi = model.timestep_energy(&hi).unwrap().total();
        assert!(e_hi > e_lo, "case {case}: {e_hi} !> {e_lo}");
        let c_t = model.inference_cost(&lo, t as f64, None).unwrap();
        let c_t1 = model.inference_cost(&lo, (t + 1) as f64, None).unwrap();
        assert!(c_t1.energy_pj() > c_t.energy_pj(), "case {case}");
        assert!(c_t1.latency_cycles > c_t.latency_cycles, "case {case}");
    }
}

#[test]
fn quantization_is_idempotent() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let w = rng.uniform(-1.0, 1.0);
        let once = quantize_dequantize(w, 1.0, 8);
        let twice = quantize_dequantize(once, 1.0, 8);
        assert!((once - twice).abs() < 1e-6, "case {case}: {once} vs {twice}");
    }
}

#[test]
fn max_prob_and_margin_policies_bounded() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let p = probability_vector(&mut rng, 6);
        let mp = ExitPolicy::max_prob(0.5).unwrap();
        let mg = ExitPolicy::margin(0.5).unwrap();
        assert!((0.0..=1.0).contains(&mp.score(&p)), "case {case}");
        assert!((0.0..=1.0).contains(&mg.score(&p)), "case {case}");
        assert!(
            mg.score(&p) <= mp.score(&p) + 1e-6,
            "case {case}: margin cannot exceed the top probability"
        );
    }
}
