//! The direct spike-scatter convolution against its reference, bit for bit.
//!
//! One test, alone in its own process: it flips the process-wide thread and
//! SIMD overrides, which the unit tests of those knobs assert on.

use dtsnn_tensor::{
    conv2d, conv2d_ws, parallel, simd, Conv2dSpec, ConvPlan, SimdLevel, Tensor, TensorRng,
    Workspace,
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

const KINDS: [&str; 6] = ["binary", "ternary", "analog", "pooled", "negzero", "special"];

/// One geometry × input class × batch size: the scatter kernel (raw and
/// planned) against conv2d (im2col + matmul), at every thread count and
/// SIMD tier.
fn check(
    spec: &Conv2dSpec,
    [n, h, w]: [usize; 3],
    kind: &str,
    with_bias: bool,
    rng: &mut TensorRng,
    ws: &mut Workspace,
) {
    let (ci, co) = (spec.in_channels, spec.out_channels);
    let x = input_of(kind, &[n, ci, h, w], rng);
    let weight = Tensor::randn(&[co, spec.patch_len()], 0.0, 0.5, rng);
    let bias = Tensor::randn(&[co], 0.0, 0.1, rng);
    let bias = with_bias.then_some(&bias);
    let tag = format!(
        "k={} s={} p={} {kind} n={n} ci={ci} co={co} h={h} w={w} bias={with_bias}",
        spec.kernel, spec.stride, spec.padding
    );
    let want = conv2d(&x, &weight, bias, spec).unwrap().0;
    let plan = ConvPlan::new(&weight, spec).unwrap();
    for threads in [1, 4] {
        for level in SimdLevel::ALL {
            let (got, planned) = parallel::with_threads(threads, || {
                simd::with_level(level, || {
                    (
                        conv2d_ws(&x, &weight, bias, spec, ws).unwrap(),
                        plan.forward(&x, bias, ws).unwrap(),
                    )
                })
            });
            assert_eq!(got.dims(), want.dims(), "{tag}");
            assert_eq!(bits(&want), bits(&got), "{tag} t={threads} {level:?}");
            assert_eq!(bits(&want), bits(&planned), "{tag} t={threads} {level:?} plan");
            ws.recycle_tensor(got);
            ws.recycle_tensor(planned);
        }
    }
}

#[test]
fn direct_conv_matches_reference_bitwise() {
    // Every geometry class, input class and batch size through one
    // workspace, so warmed buffers of other shapes are reused along the way
    // — and, the test profile poisoning the arena's overwrite-takes with
    // NaN, an output element the epilogue skipped cannot pass.
    let mut rng = TensorRng::seed_from(0xD1EC7);
    let mut ws = Workspace::new();
    let mut case = 0usize;
    for kernel in [1, 3, 5] {
        for stride in [1, 2, 3] {
            for padding in [0, 1, 2] {
                for kind in KINDS {
                    for n in [0, 1, 5] {
                        case += 1;
                        let (ci, co) = (1 + rng.below(3), [2, 35][case % 2]);
                        let h = kernel + rng.below(3);
                        // every third case spans several nonzero words
                        let wide = case % 3 == 0;
                        let w = if wide { 66 + rng.below(5) } else { h + 1 + rng.below(2) };
                        let spec = Conv2dSpec::new(ci, co, kernel, stride, padding).unwrap();
                        check(&spec, [n, h, w], kind, !case.is_multiple_of(4), &mut rng, &mut ws);
                    }
                }
            }
        }
    }
    // What the stride-1 fast path and the fused epilogue distinguish: an
    // input smaller than the kernel but not than its padded self (one pixel
    // clipped at both borders at once), rows of exactly one nonzero word and
    // one element more, output channels that fill whole vectors with no
    // remainder lane, and no bias.
    for (kernel, stride, padding, h, w, co) in [
        (5, 1, 2, 2, 2, 8),
        (5, 1, 2, 2, 9, 32),
        (5, 1, 2, 7, 3, 64),
        (3, 1, 1, 1, 1, 8),
        (5, 2, 2, 2, 3, 8),
        (3, 1, 1, 3, 64, 32),
        (3, 1, 1, 3, 65, 8),
        (3, 2, 1, 4, 64, 64),
        (1, 1, 0, 2, 65, 32),
    ] {
        for kind in KINDS {
            for n in [0, 1, 5] {
                case += 1;
                let spec = Conv2dSpec::new(1 + case % 3, co, kernel, stride, padding).unwrap();
                check(&spec, [n, h, w], kind, case.is_multiple_of(2), &mut rng, &mut ws);
            }
        }
    }
}
