//! Average pooling (the pooling used by the paper's spiking VGG/ResNet).

use crate::{simd, Result, Tensor, TensorError, Workspace};

/// Geometry of a 2-D average pool (square window, no padding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolSpec {
    /// Window extent (k×k).
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
}

impl PoolSpec {
    /// Creates a pool spec.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for zero kernel or stride.
    pub fn new(kernel: usize, stride: usize) -> Result<Self> {
        if kernel == 0 || stride == 0 {
            return Err(TensorError::InvalidArgument("pool kernel and stride must be nonzero".into()));
        }
        Ok(PoolSpec { kernel, stride })
    }

    /// Output spatial extent for an `(h, w)` input.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if the window exceeds the input.
    pub fn output_hw(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        if self.kernel > h || self.kernel > w {
            return Err(TensorError::InvalidGeometry(format!(
                "pool window {} exceeds input {h}x{w}",
                self.kernel
            )));
        }
        Ok(((h - self.kernel) / self.stride + 1, (w - self.kernel) / self.stride + 1))
    }
}

/// Average-pools `input` (`[n, c, h, w]`).
///
/// # Errors
///
/// Returns rank/geometry errors for malformed inputs.
pub fn avg_pool2d(input: &Tensor, spec: &PoolSpec) -> Result<Tensor> {
    let d = input.dims();
    if d.len() != 4 {
        return Err(TensorError::RankMismatch { expected: 4, actual: d.len() });
    }
    let [n, c, h, w] = [d[0], d[1], d[2], d[3]];
    let (oh, ow) = spec.output_hw(h, w)?;
    let mut out = Tensor::zeros(&[n, c, oh, ow]);
    simd::avg_pool2d(input.data(), [n, c, h, w], *spec, (oh, ow), out.data_mut());
    Ok(out)
}

/// Eval-mode average pool with the output drawn from `ws` — bitwise
/// identical to [`avg_pool2d`].
///
/// # Errors
///
/// Returns rank/geometry errors for malformed inputs.
pub fn avg_pool2d_ws(input: &Tensor, spec: &PoolSpec, ws: &mut Workspace) -> Result<Tensor> {
    let d = input.dims();
    if d.len() != 4 {
        return Err(TensorError::RankMismatch { expected: 4, actual: d.len() });
    }
    let [n, c, h, w] = [d[0], d[1], d[2], d[3]];
    let (oh, ow) = spec.output_hw(h, w)?;
    let mut out = ws.take_overwrite(n * c * oh * ow);
    simd::avg_pool2d(input.data(), [n, c, h, w], *spec, (oh, ow), &mut out);
    Tensor::from_aligned(out, &[n, c, oh, ow])
}

/// Core of [`avg_pool2d`]: writes every output element exactly once, as
/// `acc = +0.0`, the window's taps added row-major, then `acc * inv`. Safe
/// plain loops, no calls: [`simd::avg_pool2d`] compiles it once per tier.
#[inline(always)]
pub(crate) fn avg_pool2d_core(
    src: &[f32],
    dims: [usize; 4],
    spec: PoolSpec,
    out_hw: (usize, usize),
    dst: &mut [f32],
) {
    // one instantiation for the 2×2 / stride-2 window both models use, whose
    // column loop vectorizes; every other window runs the general loop
    if (spec.kernel, spec.stride) == (2, 2) {
        pool_planes::<true>(src, dims, spec, out_hw, dst)
    } else {
        pool_planes::<false>(src, dims, spec, out_hw, dst)
    }
}

#[inline(always)]
fn pool_planes<const HALVE: bool>(
    src: &[f32],
    [n, c, h, w]: [usize; 4],
    spec: PoolSpec,
    (oh, ow): (usize, usize),
    dst: &mut [f32],
) {
    let (k, stride) = (spec.kernel, spec.stride);
    let inv = 1.0 / (k * k) as f32;
    for plane in 0..n * c {
        let (src, dst) = (&src[plane * h * w..][..h * w], &mut dst[plane * oh * ow..][..oh * ow]);
        for (oy, orow) in dst.chunks_exact_mut(ow).enumerate() {
            if HALVE {
                // the two input rows are bounds-checked once, so the column
                // loop vectorizes; `0.0 +` is the accumulator's start
                let top = src[2 * oy * w..][..2 * ow].chunks_exact(2);
                let bottom = src[(2 * oy + 1) * w..][..2 * ow].chunks_exact(2);
                for ((o, t), b) in orow.iter_mut().zip(top).zip(bottom) {
                    *o = (0.0 + t[0] + t[1] + b[0] + b[1]) * inv;
                }
            } else {
                for (ox, o) in orow.iter_mut().enumerate() {
                    let mut acc = 0.0;
                    for ky in 0..k {
                        let row = (oy * stride + ky) * w + ox * stride;
                        for kx in 0..k {
                            acc += src[row + kx];
                        }
                    }
                    *o = acc * inv;
                }
            }
        }
    }
}

/// Backward pass of [`avg_pool2d`]: spreads each upstream gradient uniformly
/// over its window, into a buffer from `ws`.
///
/// # Errors
///
/// Returns rank/geometry errors for malformed inputs.
pub fn avg_pool2d_backward(
    grad_out: &Tensor,
    spec: &PoolSpec,
    input_hw: (usize, usize),
    ws: &mut Workspace,
) -> Result<Tensor> {
    let d = grad_out.dims();
    if d.len() != 4 {
        return Err(TensorError::RankMismatch { expected: 4, actual: d.len() });
    }
    let [n, c, oh, ow] = [d[0], d[1], d[2], d[3]];
    let (h, w) = input_hw;
    let (eh, ew) = spec.output_hw(h, w)?;
    if (eh, ew) != (oh, ow) {
        return Err(TensorError::ShapeMismatch {
            expected: vec![n, c, eh, ew],
            actual: d.to_vec(),
        });
    }
    let mut out = ws.take(n * c * h * w);
    simd::avg_pool2d_grad(grad_out.data(), [n, c, h, w], *spec, (oh, ow), &mut out);
    Tensor::from_aligned(out, &[n, c, h, w])
}

/// Core of [`avg_pool2d_backward`] over a zeroed `dst`: adds `g·inv` into
/// every tap of each window in `(plane, oy, ox, ky, kx)` order. Safe plain
/// loops, no calls: [`simd::avg_pool2d_grad`] compiles it once per tier.
#[inline(always)]
pub(crate) fn avg_pool2d_backward_core(
    grad: &[f32],
    dims: [usize; 4],
    spec: PoolSpec,
    out_hw: (usize, usize),
    dst: &mut [f32],
) {
    // as in `avg_pool2d_core`: one instantiation for the 2×2 / stride-2
    // window, whose disjoint windows store `0.0 + g·inv` (bitwise the `+=`
    // into a zero, `-0.0 → +0.0` included) in a loop that vectorizes
    if (spec.kernel, spec.stride) == (2, 2) {
        spread_planes::<true>(grad, dims, spec, out_hw, dst)
    } else {
        spread_planes::<false>(grad, dims, spec, out_hw, dst)
    }
}

#[inline(always)]
fn spread_planes<const HALVE: bool>(
    grad: &[f32],
    [n, c, h, w]: [usize; 4],
    spec: PoolSpec,
    (oh, ow): (usize, usize),
    dst: &mut [f32],
) {
    let (k, stride) = (spec.kernel, spec.stride);
    let inv = 1.0 / (k * k) as f32;
    for plane in 0..n * c {
        let (src, dst) = (&grad[plane * oh * ow..][..oh * ow], &mut dst[plane * h * w..][..h * w]);
        for (oy, grow) in src.chunks_exact(ow).enumerate() {
            if HALVE {
                // the two output rows are bounds-checked once, so the column
                // loop vectorizes
                let (top, bottom) = dst[2 * oy * w..][..w + 2 * ow].split_at_mut(w);
                let pairs = top[..2 * ow].chunks_exact_mut(2).zip(bottom.chunks_exact_mut(2));
                for ((t, b), &g) in pairs.zip(grow) {
                    let v = 0.0 + g * inv;
                    (t[0], t[1], b[0], b[1]) = (v, v, v, v);
                }
            } else {
                for (ox, &g) in grow.iter().enumerate() {
                    let g = g * inv;
                    for ky in 0..k {
                        for d in &mut dst[(oy * stride + ky) * w + ox * stride..][..k] {
                            *d += g;
                        }
                    }
                }
            }
        }
    }
}

/// Global average pool: `[n, c, h, w]` → `[n, c]`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-4-D input.
pub fn global_avg_pool(input: &Tensor) -> Result<Tensor> {
    let d = input.dims();
    if d.len() != 4 {
        return Err(TensorError::RankMismatch { expected: 4, actual: d.len() });
    }
    let [n, c, h, w] = [d[0], d[1], d[2], d[3]];
    let inv = 1.0 / (h * w) as f32;
    let mut out = Tensor::zeros(&[n, c]);
    let src = input.data();
    let dst = out.data_mut();
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            let mut acc = 0.0;
            for p in 0..h * w {
                acc += src[base + p];
            }
            dst[ni * c + ci] = acc * inv;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TensorRng;

    #[test]
    fn pool_known_values() {
        let x = Tensor::from_vec((1..=16).map(|v| v as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let spec = PoolSpec::new(2, 2).unwrap();
        let y = avg_pool2d(&x, &spec).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[3.5, 5.5, 11.5, 13.5]);
    }

    #[test]
    fn pool_backward_conserves_gradient_mass() {
        let mut rng = TensorRng::seed_from(4);
        let spec = PoolSpec::new(2, 2).unwrap();
        let g = Tensor::randn(&[2, 3, 2, 2], 0.0, 1.0, &mut rng);
        let gx = avg_pool2d_backward(&g, &spec, (4, 4), &mut Workspace::new()).unwrap();
        assert!((gx.sum() - g.sum()).abs() < 1e-4);
    }

    #[test]
    fn pool_backward_matches_finite_difference() {
        let mut rng = TensorRng::seed_from(5);
        let spec = PoolSpec::new(2, 2).unwrap();
        let x = Tensor::randn(&[1, 1, 4, 4], 0.0, 1.0, &mut rng);
        let y = avg_pool2d(&x, &spec).unwrap();
        let gy = Tensor::ones(y.dims());
        let gx = avg_pool2d_backward(&gy, &spec, (4, 4), &mut Workspace::new()).unwrap();
        let eps = 1e-3;
        for idx in [0usize, 5, 10, 15] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let yp = avg_pool2d(&xp, &spec).unwrap();
            let num = (yp.sum() - y.sum()) / eps;
            assert!((num - gx.data()[idx]).abs() < 1e-2);
        }
    }

    #[test]
    fn avg_pool2d_ws_matches_avg_pool2d_bitwise() {
        let mut rng = TensorRng::seed_from(6);
        let spec = PoolSpec::new(2, 2).unwrap();
        let x = Tensor::randn(&[2, 3, 6, 6], 0.0, 1.0, &mut rng);
        let want = avg_pool2d(&x, &spec).unwrap();
        let mut ws = Workspace::new();
        for _ in 0..2 {
            let got = avg_pool2d_ws(&x, &spec, &mut ws).unwrap();
            assert_eq!(got.dims(), want.dims());
            let wb: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
            let gb: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(wb, gb);
            ws.recycle_tensor(got);
        }
        assert!(avg_pool2d_ws(&Tensor::zeros(&[4]), &spec, &mut ws).is_err());
    }

    #[test]
    fn global_pool_averages_each_channel() {
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0, 2.0, 2.0, 2.0, 2.0], &[1, 2, 2, 2])
            .unwrap();
        let y = global_avg_pool(&x).unwrap();
        assert_eq!(y.dims(), &[1, 2]);
        assert_eq!(y.data(), &[4.0, 2.0]);
    }

    #[test]
    fn geometry_validation() {
        assert!(PoolSpec::new(0, 1).is_err());
        let spec = PoolSpec::new(5, 1).unwrap();
        let x = Tensor::zeros(&[1, 1, 4, 4]);
        assert!(avg_pool2d(&x, &spec).is_err());
        let g = Tensor::zeros(&[1, 1, 3, 3]);
        let mut ws = Workspace::new();
        assert!(avg_pool2d_backward(&g, &PoolSpec::new(2, 2).unwrap(), (4, 4), &mut ws).is_err());
    }
}
