//! The one f32 matmul family against the plain triple loop, bit for bit.
//!
//! Every kernel skips a zero left-operand entry in place (and the linear
//! kernel behind `matmul_nt`, `linear_ws` and `LinearPlan` walks only a row's
//! nonzero inputs over packed column groups); none of it may move a bit
//! against a loop that multiplies and adds every term in ascending `k`, and a
//! weight behind a silent input must not reach the output at all.
//!
//! One test, alone in its own process: it flips the process-wide SIMD
//! override, which the unit tests of that knob assert on.

use dtsnn_tensor::{linear_ws, simd, LinearPlan, SimdLevel, Tensor, TensorRng, Workspace};

const CLASSES: [&str; 6] = ["binary", "ternary", "graded", "dense", "zero", "negzero"];

/// A left operand of one value class: what the network produces (binary
/// spikes, graded avg-pooled spikes, dense analog values) or must survive
/// (ternary, nothing but zeros, `-0.0` standing in for every zero).
fn operand(class: &str, dims: &[usize], rng: &mut TensorRng) -> Tensor {
    let mut t = Tensor::zeros(dims);
    for v in t.data_mut() {
        let active = rng.bernoulli(0.2);
        *v = match class {
            "binary" if active => 1.0,
            "ternary" if active => [1.0, -1.0][rng.below(2)],
            "graded" => rng.below(5) as f32 * 0.25,
            "dense" => rng.uniform(-1.0, 1.0),
            "negzero" if active => 1.0,
            "negzero" => -0.0,
            _ => 0.0,
        };
    }
    t
}

/// `a[m,k] × b[k,n]` with no skip and no blocking: every term multiplied,
/// then added, in ascending `p`, from `+0.0`.
fn naive(a: &[f32], b: &[f32], [m, k, n]: [usize; 3]) -> Vec<u32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            for j in 0..n {
                out[i * n + j] += a[i * k + p] * b[p * n + j];
            }
        }
    }
    out.iter().map(|v| v.to_bits()).collect()
}

/// `want[m,n] + bias[n]`: the bias lands after the last term. (`want` is
/// empty when `n` is 0.)
fn biased(want: &[u32], bias: &Tensor) -> Vec<u32> {
    let b = bias.data();
    want.iter().enumerate().map(|(i, &w)| (f32::from_bits(w) + b[i % b.len()]).to_bits()).collect()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Asserts that all five entry points return `want` (`want_biased` for
/// `linear_ws` and a `LinearPlan`) for `a[m,k] × b[k,n]`, at every SIMD
/// tier.
fn check(a: &Tensor, b: &Tensor, bias: &Tensor, want: &[u32], want_biased: &[u32], tag: &str) {
    let (at, bt) = (a.transpose2d().unwrap(), b.transpose2d().unwrap());
    let plan = LinearPlan::new(&bt).unwrap();
    let mut ws = Workspace::new();
    for level in SimdLevel::ALL {
        let tag = format!("{tag} {level:?}");
        simd::with_level(level, || {
            assert_eq!(want, bits(&a.matmul(b).unwrap()), "matmul {tag}");
            assert_eq!(want, bits(&at.matmul_tn(b).unwrap()), "matmul_tn {tag}");
            assert_eq!(want, bits(&a.matmul_nt(&bt).unwrap()), "matmul_nt {tag}");
            for (name, linear) in [
                ("linear_ws", linear_ws(a, &bt, bias, &mut ws).unwrap()),
                ("LinearPlan", plan.forward(a, bias, &mut ws).unwrap()),
            ] {
                assert_eq!(want_biased, bits(&linear), "{name} {tag}");
                ws.recycle_tensor(linear);
            }
        });
    }
}

#[test]
fn matmul_family_equals_the_naive_triple_loop_and_skips_silent_inputs() {
    let mut rng = TensorRng::seed_from(0x2E80);
    // empty extents; one element; a ragged small case; k = 135 ends inside a
    // tile of `linalg`'s `BLOCK_K` (64) and a scan word of the linear kernel
    // with n = 300 past `BLOCK_N` (256); k of exactly one tile; a tall
    // product at a narrow n; n on each side of the
    // linear kernel's 16-column group against k on each side of its 64-input
    // scan words; then the ten-class head at widths 1, 8 and 32
    for shape in [
        [0, 5, 3],
        [4, 0, 3],
        [4, 5, 0],
        [1, 1, 1],
        [3, 7, 5],
        [13, 135, 300],
        [33, 64, 40],
        [70, 200, 37],
        [3, 63, 15],
        [3, 64, 16],
        [3, 65, 17],
        [3, 127, 15],
        [3, 128, 16],
        [3, 129, 17],
        [2, 1, 33],
        [1, 1024, 10],
        [8, 1024, 10],
        [32, 1024, 10],
    ] {
        let [m, k, n] = shape;
        for class in CLASSES {
            let a = operand(class, &[m, k], &mut rng);
            let b = Tensor::randn(&[k, n], 0.0, 1.0, &mut rng);
            let bias = Tensor::randn(&[n], 0.0, 0.1, &mut rng);
            let want = naive(a.data(), b.data(), shape);
            let want_biased = biased(&want, &bias);
            check(&a, &b, &bias, &want, &want_biased, &format!("{class} {shape:?}"));
            // A silent input never meets a weight: silence every other
            // input, make the weights behind them non-finite, and nothing
            // may change against the same product over zeros there.
            let (mut a, mut b, mut poisoned) = (a, b.clone(), b);
            for p in (0..k).step_by(2) {
                for i in 0..m {
                    a.data_mut()[i * k + p] = if class == "negzero" { -0.0 } else { 0.0 };
                }
                b.data_mut()[p * n..][..n].fill(0.0);
                poisoned.data_mut()[p * n..][..n].fill([f32::NAN, f32::INFINITY][p / 2 % 2]);
            }
            let want = naive(a.data(), b.data(), shape);
            let want_biased = biased(&want, &bias);
            let tag = format!("{class} {shape:?} poisoned");
            check(&a, &poisoned, &bias, &want, &want_biased, &tag);
        }
    }
}
