//! Property-based tests of the tensor algebra that everything above relies
//! on: linearity, adjointness, involution, conservation.
//!
//! Cases are generated from a seeded [`TensorRng`] (48 cases per property,
//! like the previous proptest configuration) so failures are reproducible by
//! seed alone and the suite needs no external crates.

use dtsnn_tensor::{
    avg_pool2d, avg_pool2d_backward, col2im, im2col, softmax_rows, Conv2dSpec, PoolSpec, Tensor,
    TensorRng, Workspace,
};

const CASES: u64 = 48;

/// Random tensor of the given shape, pinned to a case seed.
fn tensor_from_seed(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = TensorRng::seed_from(seed);
    Tensor::randn(dims, 0.0, 1.0, &mut rng)
}

/// Per-case parameter generator (dims, scalars) independent of data seeds.
fn case_rng(case: u64) -> TensorRng {
    TensorRng::seed_from(0xC0FFEE ^ case.wrapping_mul(0x9E37_79B9))
}

#[test]
fn matmul_is_linear_in_lhs() {
    for case in 0..CASES {
        let alpha = case_rng(case).uniform(-3.0, 3.0);
        let a = tensor_from_seed(&[3, 4], case);
        let b = tensor_from_seed(&[4, 2], case ^ 1);
        // (αA)B == α(AB)
        let lhs = a.scale(alpha).matmul(&b).unwrap();
        let rhs = a.matmul(&b).unwrap().scale(alpha);
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            assert!((x - y).abs() < 1e-3, "case {case}: {x} vs {y}");
        }
    }
}

#[test]
fn matmul_distributes_over_addition() {
    for case in 0..CASES {
        let a = tensor_from_seed(&[2, 5], case);
        let b = tensor_from_seed(&[2, 5], case ^ 2);
        let c = tensor_from_seed(&[5, 3], case ^ 3);
        let lhs = a.add(&b).unwrap().matmul(&c).unwrap();
        let rhs = a.matmul(&c).unwrap().add(&b.matmul(&c).unwrap()).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            assert!((x - y).abs() < 1e-3, "case {case}");
        }
    }
}

#[test]
fn transpose_is_involutive() {
    for case in 0..CASES {
        let mut params = case_rng(case);
        let rows = 1 + params.below(7);
        let cols = 1 + params.below(7);
        let a = tensor_from_seed(&[rows, cols], case);
        let back = a.transpose2d().unwrap().transpose2d().unwrap();
        assert_eq!(a, back, "case {case}");
    }
}

#[test]
fn matmul_transpose_identity() {
    for case in 0..CASES {
        // (AB)ᵀ == Bᵀ Aᵀ
        let a = tensor_from_seed(&[3, 4], case);
        let b = tensor_from_seed(&[4, 2], case ^ 5);
        let lhs = a.matmul(&b).unwrap().transpose2d().unwrap();
        let rhs = b.transpose2d().unwrap().matmul(&a.transpose2d().unwrap()).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            assert!((x - y).abs() < 1e-3, "case {case}");
        }
    }
}

#[test]
fn im2col_col2im_adjoint() {
    for case in 0..CASES {
        let mut params = case_rng(case);
        let channels = 1 + params.below(2);
        let size = 4 + params.below(4);
        let stride = 1 + params.below(2);
        let pad = params.below(2);
        // <im2col(x), y> == <x, col2im(y)> for every geometry
        let spec = Conv2dSpec::new(channels, 1, 3, stride, pad).unwrap();
        if spec.output_hw(size, size).is_err() {
            continue;
        }
        let x = tensor_from_seed(&[1, channels, size, size], case);
        let cols = im2col(&x, &spec).unwrap();
        let y = tensor_from_seed(cols.dims(), case ^ 7);
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let back = col2im(&y, &spec, 1, size, size).unwrap();
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0), "case {case}: {lhs} vs {rhs}");
    }
}

#[test]
fn pooling_preserves_mean() {
    for case in 0..CASES {
        // 2×2 stride-2 average pooling preserves the global mean exactly
        let x = tensor_from_seed(&[1, 2, 4, 4], case);
        let y = avg_pool2d(&x, &PoolSpec::new(2, 2).unwrap()).unwrap();
        assert!((x.mean() - y.mean()).abs() < 1e-4, "case {case}");
    }
}

#[test]
fn pool_backward_conserves_gradient() {
    for case in 0..CASES {
        let g = tensor_from_seed(&[1, 2, 2, 2], case);
        let spec = PoolSpec::new(2, 2).unwrap();
        let gx = avg_pool2d_backward(&g, &spec, (4, 4), &mut Workspace::new()).unwrap();
        assert!((g.sum() - gx.sum()).abs() < 1e-3, "case {case}");
    }
}

#[test]
fn softmax_invariant_to_logit_shift() {
    for case in 0..CASES {
        let shift = case_rng(case).uniform(-20.0, 20.0);
        let x = tensor_from_seed(&[2, 6], case);
        let p1 = softmax_rows(&x).unwrap();
        let p2 = softmax_rows(&x.add_scalar(shift)).unwrap();
        for (a, b) in p1.data().iter().zip(p2.data()) {
            assert!((a - b).abs() < 1e-4, "case {case}");
        }
    }
}

#[test]
fn concat_then_rows_roundtrip() {
    for case in 0..CASES {
        let mut params = case_rng(case);
        let n1 = 1 + params.below(3);
        let n2 = 1 + params.below(3);
        let a = tensor_from_seed(&[n1, 3], case);
        let b = tensor_from_seed(&[n2, 3], case ^ 11);
        let c = Tensor::concat_axis0(&[&a, &b]).unwrap();
        assert_eq!(c.dims(), &[n1 + n2, 3]);
        for i in 0..n1 {
            assert_eq!(c.row(i).unwrap(), a.row(i).unwrap(), "case {case}");
        }
        for i in 0..n2 {
            assert_eq!(c.row(n1 + i).unwrap(), b.row(i).unwrap(), "case {case}");
        }
    }
}

#[test]
fn axpy_matches_scale_add() {
    for case in 0..CASES {
        let alpha = case_rng(case).uniform(-2.0, 2.0);
        let a = tensor_from_seed(&[7], case);
        let b = tensor_from_seed(&[7], case ^ 13);
        let mut fast = a.clone();
        fast.axpy(alpha, &b).unwrap();
        let slow = a.add(&b.scale(alpha)).unwrap();
        for (x, y) in fast.data().iter().zip(slow.data()) {
            assert!((x - y).abs() < 1e-5, "case {case}");
        }
    }
}
