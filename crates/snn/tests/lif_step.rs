//! The one-pass LIF step (`simd::lif_step`, the Eval arm of
//! `LifNeuron::forward_ws`) against the plain tensor ops of its Train arm,
//! bit for bit.
//!
//! In its own process: the equivalence test flips the process-wide thread
//! and SIMD overrides.

use dtsnn_snn::{Layer, LifConfig, LifNeuron, Mode, ResetMode};
use dtsnn_tensor::{parallel, simd, SimdLevel, Tensor, TensorRng, Workspace};

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

/// Everything one step exposes: spikes, carried membrane, densities.
fn observe(lif: &LifNeuron, spikes: &Tensor) -> (Vec<u32>, Vec<u32>, u32, Vec<u32>) {
    (
        bits(spikes.data()),
        bits(lif.membrane().expect("stepped").data()),
        lif.last_spike_density().expect("lif").to_bits(),
        lif.last_spike_row_densities().expect("lif").iter().map(|d| d.to_bits()).collect(),
    )
}

#[test]
fn lif_step_matches_the_plain_tensor_forward_bitwise() {
    // four timesteps from a fresh state (the first has no membrane to
    // charge from), through one workspace shared by every case so the
    // overwrite-takes reuse — and in this profile find poisoned — buffers of
    // other shapes
    let mut rng = TensorRng::seed_from(0x11F5);
    let mut ws = Workspace::new();
    for reset in [ResetMode::Zero, ResetMode::Subtract] {
        for smooth_spike in [None, Some(3.0)] {
            for batch in [0usize, 1, 5] {
                for row_len in [1usize, 7, 33, 256] {
                    let cfg =
                        LifConfig { tau: 0.5, v_th: 0.4, reset, smooth_spike, ..LifConfig::default() };
                    // the same row as a vector and as a `[c, h, w]` map
                    let dims = if row_len == 256 { vec![batch, 4, 8, 8] } else { vec![batch, row_len] };
                    let inputs: Vec<Tensor> = (0..4).map(|_| input_of(&dims, &mut rng)).collect();
                    let tag = format!("{reset:?} smooth={smooth_spike:?} dims={dims:?}");
                    let mut reference = LifNeuron::new(cfg);
                    let want: Vec<_> = inputs
                        .iter()
                        .map(|x| {
                            let spikes = reference.forward_ws(x, Mode::Train, &mut ws).unwrap();
                            observe(&reference, &spikes)
                        })
                        .collect();
                    for threads in [1, 4] {
                        for level in SimdLevel::ALL {
                            let mut lif = LifNeuron::new(cfg);
                            parallel::with_threads(threads, || {
                                simd::with_level(level, || {
                                    for (t, x) in inputs.iter().enumerate() {
                                        let spikes = lif.forward_ws(x, Mode::Eval, &mut ws).unwrap();
                                        assert_eq!(spikes.dims(), x.dims(), "{tag}");
                                        assert_eq!(
                                            observe(&lif, &spikes),
                                            want[t],
                                            "{tag} t={t} threads={threads} {level:?}"
                                        );
                                        ws.recycle_tensor(spikes);
                                    }
                                })
                            });
                            lif.reset_state_ws(&mut ws);
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn a_membrane_of_another_shape_is_a_typed_error() {
    let mut ws = Workspace::new();
    let mut lif = LifNeuron::new(LifConfig::default());
    lif.forward_ws(&Tensor::zeros(&[2, 3]), Mode::Eval, &mut ws).unwrap();
    assert!(lif.forward_ws(&Tensor::zeros(&[3, 2]), Mode::Eval, &mut ws).is_err());
    // the carried state survives the rejected step
    assert_eq!(lif.membrane().unwrap().dims(), &[2, 3]);
}
