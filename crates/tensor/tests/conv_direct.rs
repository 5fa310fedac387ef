//! The direct spike-scatter convolution against its reference, bit for bit.
//!
//! One test, alone in its own process: it flips the process-wide thread,
//! SIMD and backend overrides, which the unit tests of those knobs assert on.

use dtsnn_tensor::{
    backend, conv2d, conv2d_ws, parallel, simd, BackendKind, Conv2dSpec, ConvPlan, SimdLevel,
    Tensor, TensorRng, Workspace,
};

/// Bit patterns, with every NaN mapped to one pattern: where two NaNs of
/// different sign meet in an add (`inf - inf` against a NaN input), x86
/// keeps the first operand's, and which operand the compiler puts first
/// differs between inlined copies of one scalar loop.
fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() }).collect()
}

/// Input of one of the value classes the network produces (binary
/// spikes, avg-pooled quarter values, analog frames) or must survive
/// (ternary, `-0.0`, NaN / ±inf).
fn input_of(kind: &str, dims: &[usize], rng: &mut TensorRng) -> Tensor {
    let mut x = Tensor::zeros(dims);
    for v in x.data_mut() {
        let spike = rng.bernoulli(0.2);
        *v = match kind {
            "binary" => f32::from(u8::from(spike)),
            "ternary" if spike => [1.0, -1.0][rng.below(2)],
            "analog" => rng.uniform(-1.0, 1.0),
            "pooled" => rng.below(5) as f32 * 0.25,
            "negzero" if !spike => -0.0,
            "negzero" => 1.0,
            "special" if spike => {
                [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.0, 0.5][rng.below(5)]
            }
            _ => 0.0,
        };
    }
    x
}

#[test]
fn direct_conv_matches_reference_bitwise() {
    // The scatter kernel against conv2d (im2col + matmul) forced down
    // each f32 family, over every geometry class, input class, batch
    // size, thread count and SIMD tier — through one workspace, so warmed
    // buffers of other shapes are reused along the way.
    let mut rng = TensorRng::seed_from(0xD1EC7);
    let mut ws = Workspace::new();
    let kinds = ["binary", "ternary", "analog", "pooled", "negzero", "special"];
    let mut case = 0usize;
    for kernel in [1, 3, 5] {
        for stride in [1, 2, 3] {
            for padding in [0, 1, 2] {
                for kind in kinds {
                    for n in [0, 1, 5] {
                        case += 1;
                        let (ci, co) = (1 + rng.below(3), [2, 35][case % 2]);
                        let h = kernel + rng.below(3);
                        // every third case spans several nonzero words
                        let wide = case % 3 == 0;
                        let w = if wide { 66 + rng.below(5) } else { h + 1 + rng.below(2) };
                        let spec = Conv2dSpec::new(ci, co, kernel, stride, padding).unwrap();
                        let x = input_of(kind, &[n, ci, h, w], &mut rng);
                        let weight = Tensor::randn(&[co, spec.patch_len()], 0.0, 0.5, &mut rng);
                        let bias = Tensor::randn(&[co], 0.0, 0.1, &mut rng);
                        let bias = (case % 4 != 0).then_some(&bias);
                        let tag = format!(
                            "k={kernel} s={stride} p={padding} {kind} n={n} \
                             ci={ci} co={co} h={h} w={w}"
                        );
                        let reference = |family| {
                            backend::with_backend(family, || {
                                conv2d(&x, &weight, bias, &spec).unwrap().0
                            })
                        };
                        let want = reference(BackendKind::Dense);
                        for family in [BackendKind::Csr, BackendKind::Bitset] {
                            assert_eq!(bits(&want), bits(&reference(family)), "{tag} {family:?}");
                        }
                        let plan = ConvPlan::new(&weight, &spec).unwrap();
                        for threads in [1, 4] {
                            for level in SimdLevel::ALL {
                                let (got, planned) = parallel::with_threads(threads, || {
                                    simd::with_level(level, || {
                                        (
                                            conv2d_ws(&x, &weight, bias, &spec, &mut ws).unwrap(),
                                            plan.forward(&x, bias, &mut ws).unwrap(),
                                        )
                                    })
                                });
                                assert_eq!(got.dims(), want.dims(), "{tag}");
                                assert_eq!(bits(&want), bits(&got), "{tag} t={threads} {level:?}");
                                assert_eq!(bits(&want), bits(&planned.0), "{tag} plan");
                                assert_eq!(planned.1, x.spike_stats(), "{tag} scan counts");
                                ws.recycle_tensor(got);
                                ws.recycle_tensor(planned.0);
                            }
                        }
                    }
                }
            }
        }
    }
}
