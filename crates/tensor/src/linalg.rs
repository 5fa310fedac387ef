//! Matrix multiplication kernels.
//!
//! Cache-blocked (i,k,j) loop ordering on the caller's thread. Every output
//! element accumulates over `k` in ascending order regardless of blocking,
//! so the blocking never changes a bit.
//!
//! There is one f32 family. Spike operands need no kernel of their own:
//! every kernel skips a zero left-operand entry in place, so a silent input
//! costs a compare and never meets a weight. The skip is bitwise neutral for
//! finite operands — accumulators start at `+0.0`, `+0.0 + ±0.0 == +0.0`,
//! and adding `±0.0` to a nonzero value changes nothing — so every entry
//! point equals the plain triple loop bit for bit (pinned by
//! `tests/zero_skip.rs`). `a × bᵀ` (the linear layer, [`Tensor::matmul_nt`])
//! runs over `b` packed in column groups — once per weight version in a
//! [`LinearPlan`], per call in [`linear_ws`] — and walks each row's nonzero
//! inputs only.

use crate::{simd, AlignedVec, Result, Tensor, TensorError, Workspace};

/// K-dimension tile: one tile of `b` rows (`BLOCK_K × BLOCK_N` floats) stays
/// cache-hot across all output rows. Per output element
/// the tiles are visited in ascending order, so blocking is bitwise neutral.
const BLOCK_K: usize = 64;
/// N-dimension tile (floats): bounds the write window per pass.
const BLOCK_N: usize = 256;
/// Output columns the linear kernel carries per row: sixteen accumulators in
/// a local array are two independent AVX2 add chains (four at the baseline
/// width, one at AVX-512). Thirty-two is faster on wide `n` but slows the
/// ten-class head on both vector tiers (EXPERIMENTS, "A 512-bit tier").
pub(crate) const NT_COLS: usize = 16;

// The chunk kernels below are the bodies `simd`'s `per_tier!` entries compile
// once per tier: safe code, plain loops, no closures (see `simd`'s module
// docs). An empty extent runs no iteration.

/// `c[i, j] += a[i, p] * b[p, j]` over the rows of `c`, blocked over `j` and
/// `p`. A zero `a[i, p]` is skipped
/// (bitwise neutral; what makes a spike operand cheap).
#[inline(always)]
pub(crate) fn matmul_chunk(a: &[f32], k: usize, b: &[f32], n: usize, c: &mut [f32]) {
    for jb in (0..n).step_by(BLOCK_N) {
        let jend = (jb + BLOCK_N).min(n);
        for pb in (0..k).step_by(BLOCK_K) {
            let pend = (pb + BLOCK_K).min(k);
            for (i, crow) in c.chunks_mut(n).enumerate() {
                let arow = &a[i * k..][pb..pend];
                let ctile = &mut crow[jb..jend];
                for (p, &av) in (pb..pend).zip(arow) {
                    if av == 0.0 {
                        continue;
                    }
                    // explicit multiply, then add: never an FMA
                    for (cv, &bv) in ctile.iter_mut().zip(&b[p * n + jb..p * n + jend]) {
                        *cv += av * bv;
                    }
                }
            }
        }
    }
}

/// [`matmul_chunk`] with `a` stored `[k, m]`: `p` stays the loop over `a`'s
/// rows, and per output element the accumulation still ascends over `p`.
#[inline(always)]
pub(crate) fn matmul_tn_chunk(a: &[f32], k: usize, m: usize, b: &[f32], n: usize, c: &mut [f32]) {
    for jb in (0..n).step_by(BLOCK_N) {
        let jend = (jb + BLOCK_N).min(n);
        for pb in (0..k).step_by(BLOCK_K) {
            for p in pb..(pb + BLOCK_K).min(k) {
                let brow = &b[p * n + jb..p * n + jend];
                for (crow, &av) in c.chunks_mut(n).zip(&a[p * m..]) {
                    if av == 0.0 {
                        continue;
                    }
                    for (cv, &bv) in crow[jb..jend].iter_mut().zip(brow) {
                        *cv += av * bv;
                    }
                }
            }
        }
    }
}

/// `c[i, j] = Σ_p a[i, p] * w[j, p] + bias[j]` over the rows of `c`, every
/// element written, `w` packed by [`pack_linear`]. Per row and group of
/// [`NT_COLS`] columns it walks the row's nonzero inputs — one packed word per
/// 64, as the convolution's scan — and adds `a[i, p]` times the group's
/// packed weight row `p` into a register group: per output element one
/// ascending-`p` chain over the nonzero terms, so a silent input never meets
/// its weight, then the bias. The spare lanes of a ragged last group run on
/// zero weights and are dropped.
#[inline(always)]
pub(crate) fn linear_chunk(a: &[f32], k: usize, w: &[f32], n: usize, bias: &[f32], c: &mut [f32]) {
    for (i, crow) in c.chunks_mut(n.max(1)).enumerate() {
        let arow = &a[i * k..][..k];
        for (g, cgroup) in crow.chunks_mut(NT_COLS).enumerate() {
            let wg = &w[g * k * NT_COLS..][..k * NT_COLS];
            // indexed with fixed trip counts only, so it stays in registers
            let mut acc = [0.0f32; NT_COLS];
            for (wi, chunk) in arow.chunks(64).enumerate() {
                let mut bits = 0u64;
                for (bit, &v) in chunk.iter().enumerate() {
                    bits |= u64::from(v != 0.0) << bit;
                }
                while bits != 0 {
                    let p = wi * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    // explicit multiply (off the add chain), then add: no FMA
                    let x = arow[p];
                    for (s, &wv) in acc.iter_mut().zip(&wg[p * NT_COLS..][..NT_COLS]) {
                        *s += x * wv;
                    }
                }
            }
            let gbias = &bias[g * NT_COLS..][..cgroup.len()];
            for (j, &s) in acc.iter().enumerate() {
                if let Some(cv) = cgroup.get_mut(j) {
                    *cv = s + gbias[j];
                }
            }
        }
    }
}

/// Packs `[n, k]` weights for [`linear_chunk`], every element of `out`
/// written: per group of [`NT_COLS`] output columns, one `NT_COLS`-wide row
/// per input, the spare lanes of a ragged last group zero.
pub(crate) fn pack_linear(w: &[f32], n: usize, k: usize, out: &mut [f32]) {
    for (g, packed) in out.chunks_exact_mut((k * NT_COLS).max(1)).enumerate() {
        let cols = NT_COLS.min(n - g * NT_COLS);
        for (p, row) in packed.chunks_exact_mut(NT_COLS).enumerate() {
            for (l, v) in row.iter_mut().enumerate() {
                *v = if l < cols { w[(g * NT_COLS + l) * k + p] } else { 0.0 };
            }
        }
    }
}

/// `c[i, j] += bias[j]` over the rows of `c`.
fn add_bias(c: &mut [f32], bias: &[f32]) {
    for crow in c.chunks_mut(bias.len().max(1)) {
        for (cv, &bv) in crow.iter_mut().zip(bias) {
            *cv += bv;
        }
    }
}

impl Tensor {
    /// Matrix product `self[m,k] × rhs[k,n] → [m,n]`; zero entries of
    /// `self` cost a compare, not a row-add.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless both operands are rank 2
    /// and [`TensorError::MatmulDims`] when inner dims disagree.
    ///
    /// # Example
    ///
    /// ```
    /// use dtsnn_tensor::Tensor;
    /// # fn main() -> Result<(), dtsnn_tensor::TensorError> {
    /// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
    /// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2])?;
    /// assert_eq!(a.matmul(&b)?.data(), &[19.0, 22.0, 43.0, 50.0]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor> {
        let (m, k) = mat_dims(self)?;
        let (k2, n) = mat_dims(rhs)?;
        if k != k2 {
            return Err(TensorError::MatmulDims { lhs_cols: k, rhs_rows: k2 });
        }
        let mut out = Tensor::zeros(&[m, n]);
        if m > 0 && n > 0 {
            simd::matmul_chunk(self.data(), k, rhs.data(), n, out.data_mut());
        }
        Ok(out)
    }

    /// `selfᵀ[k,m] × rhs[k,n] → [m,n]` without materializing the transpose,
    /// with the same zero skip as [`Tensor::matmul`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul`], with `self` read as `[k, m]`.
    pub fn matmul_tn(&self, rhs: &Tensor) -> Result<Tensor> {
        let (k, m) = mat_dims(self)?;
        let (k2, n) = mat_dims(rhs)?;
        if k != k2 {
            return Err(TensorError::MatmulDims { lhs_cols: m, rhs_rows: k2 });
        }
        let mut out = Tensor::zeros(&[m, n]);
        if m > 0 && n > 0 {
            simd::matmul_tn_chunk(self.data(), k, m, rhs.data(), n, out.data_mut());
        }
        Ok(out)
    }

    /// `self[m,k] × rhsᵀ[n,k] → [m,n]`: [`linear_ws`] with a zero bias (a sum
    /// that starts at `+0.0` is never `-0.0`, so adding `+0.0` is exact).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul`], with `rhs` read as `[n, k]`.
    pub fn matmul_nt(&self, rhs: &Tensor) -> Result<Tensor> {
        let (_, (n, _)) = (mat_dims(self)?, mat_dims(rhs)?);
        linear_ws(self, rhs, &Tensor::zeros(&[n]), &mut Workspace::new())
    }

    /// Adds a length-`n` bias vector to every row of an `[m, n]` matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `bias` is not `[n]`.
    pub fn add_row_bias(&self, bias: &Tensor) -> Result<Tensor> {
        let (_, n) = mat_dims(self)?;
        if bias.dims() != [n] {
            return Err(TensorError::ShapeMismatch {
                expected: vec![n],
                actual: bias.dims().to_vec(),
            });
        }
        let mut out = self.clone();
        add_bias(out.data_mut(), bias.data());
        Ok(out)
    }

    /// Column-wise sum of an `[m, n]` matrix → `[n]` (bias gradients).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn sum_rows(&self) -> Result<Tensor> {
        let (_, n) = mat_dims(self)?;
        let mut out = Tensor::zeros(&[n]);
        for row in self.data().chunks_exact(n.max(1)) {
            for (o, &v) in out.data_mut().iter_mut().zip(row) {
                *o += v;
            }
        }
        Ok(out)
    }
}

/// Fully-connected forward:
/// `input[m,k] × weightᵀ[n,k] + bias[n] → [m,n]`, with the packed weights and
/// the output drawn from `ws`. Bitwise identical to
/// `input.matmul_nt(weight)?.add_row_bias(bias)?`. It packs `weight` on every
/// call; a layer that runs the same weights every timestep keeps a
/// [`LinearPlan`] instead.
///
/// # Errors
///
/// Same conditions as [`Tensor::matmul_nt`] plus
/// [`TensorError::ShapeMismatch`] when `bias` is not `[n]`.
pub fn linear_ws(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    ws: &mut Workspace,
) -> Result<Tensor> {
    mat_dims(input)?;
    let plan = LinearPlan::pack(weight, |len| ws.take_overwrite(len))?;
    let out = plan.forward(input, bias, ws);
    ws.recycle(plan.packed);
    out
}

/// A layer's `[n, k]` weights packed once for the linear kernel, so packing
/// leaves the timestep loop (what [`crate::ConvPlan`] is to a convolution).
/// The owner repacks it whenever the weights may change; a clone owns its
/// copy.
#[derive(Debug, Clone)]
pub struct LinearPlan {
    dims: [usize; 2],
    packed: AlignedVec,
}

impl LinearPlan {
    /// Packs `weight` (`[n, k]`).
    ///
    /// # Errors
    ///
    /// [`TensorError::RankMismatch`] unless `weight` is a matrix.
    pub fn new(weight: &Tensor) -> Result<Self> {
        LinearPlan::pack(weight, AlignedVec::zeroed)
    }

    /// Packs `weight` again, into the plan's own buffer.
    ///
    /// # Errors
    ///
    /// As [`LinearPlan::new`]; the plan is untouched then.
    pub fn repack(&mut self, weight: &Tensor) -> Result<()> {
        let (n, k) = mat_dims(weight)?;
        self.packed.resize(n.div_ceil(NT_COLS) * k * NT_COLS, 0.0);
        pack_linear(weight.data(), n, k, &mut self.packed);
        self.dims = [n, k];
        Ok(())
    }

    /// Packs `weight` into `buffer(len)`, which it overwrites.
    fn pack(weight: &Tensor, buffer: impl FnOnce(usize) -> AlignedVec) -> Result<Self> {
        let (n, k) = mat_dims(weight)?;
        let mut packed = buffer(n.div_ceil(NT_COLS) * k * NT_COLS);
        pack_linear(weight.data(), n, k, &mut packed);
        Ok(LinearPlan { dims: [n, k], packed })
    }

    /// `input[m, k] × weightᵀ + bias → [m, n]` over the packed weights,
    /// bitwise identical to [`linear_ws`]; the output comes from `ws`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`linear_ws`].
    pub fn forward(&self, input: &Tensor, bias: &Tensor, ws: &mut Workspace) -> Result<Tensor> {
        let ([n, k], m) = (self.dims, linear_rows(input, self.dims, bias)?);
        let mut out = ws.take_overwrite(m * n);
        if m > 0 && n > 0 {
            simd::linear_chunk(input.data(), k, &self.packed, n, bias.data(), &mut out);
        }
        Tensor::from_aligned(out, &[m, n])
    }
}

/// The row count of `input` after checking it is `[m, k]` and `bias` is `[n]`.
fn linear_rows(input: &Tensor, [n, k]: [usize; 2], bias: &Tensor) -> Result<usize> {
    let (m, k_in) = mat_dims(input)?;
    if k_in != k {
        return Err(TensorError::MatmulDims { lhs_cols: k_in, rhs_rows: k });
    }
    if bias.dims() != [n] {
        return Err(TensorError::ShapeMismatch { expected: vec![n], actual: bias.dims().to_vec() });
    }
    Ok(m)
}

fn mat_dims(t: &Tensor) -> Result<(usize, usize)> {
    if t.shape().rank() != 2 {
        return Err(TensorError::RankMismatch { expected: 2, actual: t.shape().rank() });
    }
    Ok((t.dims()[0], t.dims()[1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TensorRng;

    #[test]
    fn matmul_identity() {
        let mut rng = TensorRng::seed_from(1);
        let a = Tensor::randn(&[3, 3], 0.0, 1.0, &mut rng);
        let i = Tensor::eye(3);
        assert_eq!(a.matmul(&i).unwrap(), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_bad_dims() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(matches!(a.matmul(&b), Err(TensorError::MatmulDims { .. })));
        let v = Tensor::zeros(&[3]);
        assert!(matches!(a.matmul(&v), Err(TensorError::RankMismatch { .. })));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let mut rng = TensorRng::seed_from(2);
        let a = Tensor::randn(&[4, 3], 0.0, 1.0, &mut rng);
        let b = Tensor::randn(&[4, 5], 0.0, 1.0, &mut rng);
        let fast = a.matmul_tn(&b).unwrap();
        let slow = a.transpose2d().unwrap().matmul(&b).unwrap();
        for (x, y) in fast.data().iter().zip(slow.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let mut rng = TensorRng::seed_from(3);
        let a = Tensor::randn(&[4, 3], 0.0, 1.0, &mut rng);
        let b = Tensor::randn(&[5, 3], 0.0, 1.0, &mut rng);
        let fast = a.matmul_nt(&b).unwrap();
        let slow = a.matmul(&b.transpose2d().unwrap()).unwrap();
        for (x, y) in fast.data().iter().zip(slow.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_nt_handles_sparse_spike_operands() {
        // Sparse spike-like lhs: must agree with the explicit-transpose
        // product.
        let mut rng = TensorRng::seed_from(13);
        let mut a = Tensor::zeros(&[6, 9]);
        for v in a.data_mut().iter_mut() {
            if rng.bernoulli(0.2) {
                *v = 1.0;
            }
        }
        let b = Tensor::randn(&[4, 9], 0.0, 1.0, &mut rng);
        let fast = a.matmul_nt(&b).unwrap();
        let slow = a.matmul(&b.transpose2d().unwrap()).unwrap();
        for (x, y) in fast.data().iter().zip(slow.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn linear_ws_matches_method_chain_on_sparse_and_dense_inputs() {
        let mut rng = TensorRng::seed_from(61);
        let w = Tensor::randn(&[17, 40], 0.0, 0.5, &mut rng);
        let bias = Tensor::randn(&[17], 0.0, 0.1, &mut rng);
        for density in [0.05f32, 0.9] {
            let mut x = Tensor::zeros(&[3, 40]);
            for v in x.data_mut().iter_mut() {
                if rng.bernoulli(density) {
                    *v = 1.0;
                }
            }
            let want = x.matmul_nt(&w).unwrap().add_row_bias(&bias).unwrap();
            let mut ws = Workspace::new();
            for pass in 0..3 {
                let got = linear_ws(&x, &w, &bias, &mut ws).unwrap();
                let wb: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
                let gb: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
                assert_eq!(wb, gb, "density={density} pass={pass}");
                ws.recycle_tensor(got);
            }
        }
    }

    #[test]
    fn linear_ws_validates_shapes() {
        let mut ws = Workspace::new();
        let x = Tensor::zeros(&[2, 4]);
        let w = Tensor::zeros(&[3, 5]);
        assert!(linear_ws(&x, &w, &Tensor::zeros(&[3]), &mut ws).is_err());
        let w = Tensor::zeros(&[3, 4]);
        assert!(linear_ws(&x, &w, &Tensor::zeros(&[2]), &mut ws).is_err());
        assert!(linear_ws(&x, &w, &Tensor::zeros(&[3]), &mut ws).is_ok());
    }

    #[test]
    fn bias_and_row_sum_are_adjoint_shapes() {
        let x = Tensor::ones(&[2, 3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let y = x.add_row_bias(&b).unwrap();
        assert_eq!(y.data(), &[2.0, 3.0, 4.0, 2.0, 3.0, 4.0]);
        assert_eq!(y.sum_rows().unwrap().data(), &[4.0, 6.0, 8.0]);
        let bad = Tensor::zeros(&[4]);
        assert!(x.add_row_bias(&bad).is_err());
    }
}
