//! The direct spike-scatter convolution and its direct backward against
//! their im2col references, bit for bit.
//!
//! Alone in their own process: the tests flip the process-wide SIMD
//! override, which the unit tests of that knob assert on.

use dtsnn_tensor::{
    conv2d, conv2d_backward, conv2d_backward_im2col, conv2d_ws, simd, Conv2dSpec, ConvPlan,
    SimdLevel, Tensor, TensorRng, Workspace,
};
use std::sync::Mutex;

/// Serializes the two tests, so that each case really runs at the tier it
/// pins (the override is process-wide).
static KNOBS: Mutex<()> = Mutex::new(());

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
/// planned) against conv2d (im2col + matmul), at every SIMD tier.
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
    compare_forward(spec, &x, &weight, bias, &tag, ws);
}

/// The scatter kernel (raw and planned) against conv2d on one input, at
/// every SIMD tier.
fn compare_forward(
    spec: &Conv2dSpec,
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    tag: &str,
    ws: &mut Workspace,
) {
    let want = conv2d(x, weight, bias, spec).unwrap();
    let plan = ConvPlan::new(weight, spec).unwrap();
    for level in SimdLevel::ALL {
        let (got, planned) = simd::with_level(level, || {
            (conv2d_ws(x, weight, bias, spec, ws).unwrap(), plan.forward(x, bias, ws).unwrap())
        });
        assert_eq!(got.dims(), want.dims(), "{tag}");
        assert_eq!(bits(&want), bits(&got), "{tag} {level:?}");
        assert_eq!(bits(&want), bits(&planned), "{tag} {level:?} plan");
        ws.recycle_tensor(got);
        ws.recycle_tensor(planned);
    }
}

/// Every geometry of the matrix both tests walk: k ∈ {1, 3, 5} × stride
/// {1, 2, 3} × padding {0, 1, 2} × input class × n ∈ {0, 1, 5} (every third
/// case spanning several nonzero words), then the shapes the stride-1 fast
/// path and the fused epilogue distinguish: an input smaller than the kernel
/// but not than its padded self (one pixel clipped at both borders at once),
/// rows of exactly one nonzero word and one element more, output channels
/// that fill whole vectors with no remainder lane, patches of 100+ taps, and
/// the literal-extent shapes of both strides beside runtime-extent ones.
/// `f` gets the spec, the `[n, h, w]` extent, the input class, a bias flag
/// and the case number.
fn for_each_case(
    rng: &mut TensorRng,
    mut f: impl FnMut(&Conv2dSpec, [usize; 3], &str, bool, usize, &mut TensorRng),
) {
    let mut case = 0usize;
    for kernel in [1, 3, 5] {
        for stride in [1, 2, 3] {
            for padding in [0, 1, 2] {
                for kind in KINDS {
                    for n in [0, 1, 5] {
                        case += 1;
                        let (ci, co) = (1 + rng.below(3), [2, 35][case % 2]);
                        let h = kernel + rng.below(3);
                        let wide = case.is_multiple_of(3);
                        let w = if wide { 66 + rng.below(5) } else { h + 1 + rng.below(2) };
                        let spec = Conv2dSpec::new(ci, co, kernel, stride, padding).unwrap();
                        f(&spec, [n, h, w], kind, !case.is_multiple_of(4), case, rng);
                    }
                }
            }
        }
    }
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
                f(&spec, [n, h, w], kind, case.is_multiple_of(2), case, rng);
            }
        }
    }
    // patch rows long enough for every register block the input gradient
    // builds a row in (96, 32, 8 and 1 floats): 117, 135 and 275 taps
    for (ci, kernel, stride, padding) in [(13, 3, 1, 1), (15, 3, 2, 0), (11, 5, 1, 2)] {
        for kind in KINDS {
            case += 1;
            let spec = Conv2dSpec::new(ci, 9, kernel, stride, padding).unwrap();
            f(&spec, [2, 6, 7], kind, case.is_multiple_of(2), case, rng);
        }
    }
    // the stride-1 3×3 shapes the scan runs with literal extents (c_out 32
    // and 64) beside one it reads from the spec (c_out 35): padding 0, 1 and
    // 2 leave the whole-kernel interior run empty, partial or covering the
    // row; rows of one and two elements, one word and one element either
    // side, two words and two; samples of whole and partial nonzero words
    for co in [32, 64, 35] {
        for padding in [0, 1, 2] {
            for w in [1, 2, 63, 64, 65, 130] {
                if w + 2 * padding < 3 {
                    continue; // the kernel exceeds the padded row
                }
                for kind in KINDS {
                    for n in [0, 1, 5] {
                        case += 1;
                        let (ci, h) = (1 + case % 2, 3);
                        let spec = Conv2dSpec::new(ci, co, 3, 1, padding).unwrap();
                        f(&spec, [n, h, w], kind, case.is_multiple_of(2), case, rng);
                    }
                }
            }
        }
    }
    // the stride-2 shapes the scan runs with literal extents (3×3 and 1×1 at
    // c_out 64) beside ones it reads from the spec (c_out 32, and 35 with a
    // remainder lane): padding 0, 1 and 2 put either phase at either border,
    // odd and even widths and heights end a row or a column of outputs on
    // either phase, and the 1×1's odd phase feeds nothing
    for kernel in [3, 1] {
        for co in [64, 32, 35] {
            for padding in [0, 1, 2] {
                for w in [1, 2, 3, 63, 64, 65, 130] {
                    if w + 2 * padding < kernel {
                        continue; // the kernel exceeds the padded row
                    }
                    for kind in KINDS {
                        for n in [0, 1, 5] {
                            case += 1;
                            let (ci, h) = (1 + case % 2, [kernel + 2, kernel + 3][case / 3 % 2]);
                            let spec = Conv2dSpec::new(ci, co, kernel, 2, padding).unwrap();
                            f(&spec, [n, h, w], kind, case.is_multiple_of(3), case, rng);
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn direct_conv_matches_reference_bitwise() {
    // Every geometry class, input class and batch size through one
    // workspace, so warmed buffers of other shapes are reused along the way
    // — and, the test profile poisoning the arena's overwrite-takes with
    // NaN, an output element the epilogue skipped cannot pass.
    let _knobs = KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = TensorRng::seed_from(0xD1EC7);
    let mut ws = Workspace::new();
    for_each_case(&mut rng, |spec, extent, kind, with_bias, _, rng| {
        check(spec, extent, kind, with_bias, rng, &mut ws);
    });
}

#[test]
fn zero_rows_keep_signed_zeros_and_cancellations_bitwise() {
    // A 3×3 at stride 2 runs an odd-phase spike through a zero weight row
    // past its one tap, adding x·0 = ±0.0 to the next output column: exact
    // only because a tile accumulator is never −0.0 (it starts at +0.0, and
    // an add gives −0.0 only when both terms are). Weights of −0.0 and
    // exactly cancelling pairs (each kernel row [v, −v, −0.0]) bring
    // accumulators back to ±0.0 between terms, and no bias hides the sign of
    // a zero output.
    let _knobs = KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = TensorRng::seed_from(0x2E50);
    let mut ws = Workspace::new();
    for co in [64, 35] {
        for padding in [0, 1, 2] {
            for w in [3, 64, 65] {
                for kind in KINDS {
                    let spec = Conv2dSpec::new(2, co, 3, 2, padding).unwrap();
                    let x = input_of(kind, &[3, 2, 5, w], &mut rng);
                    let mut weight = Tensor::randn(&[co, spec.patch_len()], 0.0, 0.5, &mut rng);
                    for (o, filter) in
                        weight.data_mut().chunks_exact_mut(spec.patch_len()).enumerate()
                    {
                        for row in filter.chunks_exact_mut(3) {
                            // every fourth filter all −0.0
                            let v = if o % 4 == 3 { -0.0 } else { row[0] };
                            row.copy_from_slice(&[v, -v, -0.0]);
                        }
                    }
                    let tag = format!("zero rows p={padding} co={co} w={w} {kind}");
                    compare_forward(&spec, &x, &weight, None, &tag, &mut ws);
                }
            }
        }
    }
}

/// An output gradient of one of the classes backward meets: `sparse` (most
/// entries zero, as behind silent neurons), `dense`, `negzero` (`-0.0`
/// wherever `sparse` has a zero) and `special` (NaN / ±inf among dense ones).
fn grad_of(kind: &str, dims: &[usize], rng: &mut TensorRng) -> Tensor {
    let mut g = Tensor::randn(dims, 0.0, 1.0, rng);
    for v in g.data_mut() {
        let keep = rng.bernoulli(0.25);
        match kind {
            "sparse" if !keep => *v = 0.0,
            "negzero" if !keep => *v = -0.0,
            "special" if rng.bernoulli(0.1) => {
                *v = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.below(3)];
            }
            _ => {}
        }
    }
    g
}

#[test]
fn direct_backward_matches_reference_bitwise() {
    // The forward test's geometries and input classes, each with every
    // gradient class: dX, dW and db of the direct kernels against the
    // im2col reference at every SIMD tier.
    let _knobs = KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = TensorRng::seed_from(0xBAC4);
    // one arena for every call, its buffers parked again after each: a
    // kernel that skips an element of a recycled buffer reads stale data
    let mut ws = Workspace::new();
    for_each_case(&mut rng, |spec, [n, h, w], kind, _, case, rng| {
        let (ci, co) = (spec.in_channels, spec.out_channels);
        let (oh, ow) = spec.output_hw(h, w).unwrap();
        let x = input_of(kind, &[n, ci, h, w], rng);
        for (gi, gkind) in ["sparse", "dense", "negzero", "special"].into_iter().enumerate() {
            let mut weight = Tensor::randn(&[co, spec.patch_len()], 0.0, 0.5, rng);
            if (case + gi) % 4 == 0 {
                // a non-finite weight behind a zero gradient must stay
                // unread, as the reference's zero skip leaves it
                let at = rng.below(weight.len());
                weight.data_mut()[at] = [f32::INFINITY, f32::NAN][case % 2];
            }
            let g = grad_of(gkind, &[n, co, oh, ow], rng);
            let tag = format!(
                "k={} s={} p={} {kind} grad={gkind} n={n} ci={ci} co={co} h={h} w={w}",
                spec.kernel, spec.stride, spec.padding
            );
            let want = conv2d_backward_im2col(&g, &x, &weight, spec).unwrap();
            let want = [&want.0, &want.1, &want.2].map(bits);
            for level in SimdLevel::ALL {
                let got = simd::with_level(level, || {
                    conv2d_backward(&g, &x, &weight, spec, &mut ws).unwrap()
                });
                assert_eq!(got.0.dims(), [n, ci, h, w], "{tag}");
                assert_eq!(got.1.dims(), [co, spec.patch_len()], "{tag}");
                let got_bits = [&got.0, &got.1, &got.2].map(bits);
                for (i, name) in ["dX", "dW", "db"].into_iter().enumerate() {
                    assert_eq!(want[i], got_bits[i], "{name} {tag} {level:?}");
                }
                ws.recycle_tensor(got.0);
                ws.recycle_tensor(got.1);
            }
        }
    });
}
