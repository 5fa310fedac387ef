//! Matrix multiplication kernels.
//!
//! Cache-blocked (i,k,j) loop ordering, row-partitioned across the
//! [`crate::parallel`] worker pool. Each worker owns a disjoint slice of
//! output rows and every output element accumulates over `k` in ascending
//! order regardless of blocking, so results are bitwise identical for any
//! `DTSNN_THREADS` value.
//!
//! There is one f32 family. Spike operands need no kernel of their own:
//! every kernel skips a zero left-operand entry in place, so a silent input
//! costs a compare and never meets a weight. The skip is bitwise neutral for
//! finite operands — accumulators start at `+0.0`, `+0.0 + ±0.0 == +0.0`,
//! and adding `±0.0` to a nonzero value changes nothing — so every entry
//! point equals the plain triple loop bit for bit (pinned by
//! `tests/zero_skip.rs`). The int8 path ([`linear_ws_quant`]) is entered
//! only with explicit [`QuantizedWeights`].

use crate::quant::QuantizedWeights;
use crate::{parallel, simd, Result, Tensor, TensorError, Workspace};

/// K-dimension tile: one tile of `b` rows (`BLOCK_K × BLOCK_N` floats) stays
/// cache-hot across all output rows of a worker's chunk. Per output element
/// the tiles are visited in ascending order, so blocking is bitwise neutral.
const BLOCK_K: usize = 64;
/// N-dimension tile (floats): bounds the write window per pass.
const BLOCK_N: usize = 256;
/// Output columns `matmul_nt` carries per row: sixteen accumulators in a
/// local array are two independent AVX2 add chains (four at the baseline
/// width, one at AVX-512), which is what hides the add latency of the single
/// chain each output element must keep. Thirty-two is faster on wide `n` but
/// slows the ten-class head on both vector tiers (EXPERIMENTS, "A 512-bit
/// tier").
const NT_COLS: usize = 16;
/// K-tile of `matmul_nt`: `NT_BLOCK_K` rows of [`NT_COLS`] packed `b` columns
/// sit in a stack tile (8 KiB). Per output element the tiles are visited in
/// ascending order and the partial accumulator round-trips through `out`
/// between tiles — an exact f32 store/load, so blocking stays bitwise
/// neutral.
const NT_BLOCK_K: usize = 128;

// The chunk kernels below are the bodies `simd`'s `per_tier!` entries compile
// once per tier: safe code, plain loops, no closures (see `simd`'s module
// docs). An empty extent runs no iteration.

/// `c[i, j] += a[i, p] * b[p, j]` over the rows of `c` (row `first_row` of
/// `a` onwards), blocked over `j` and `p`. A zero `a[i, p]` is skipped
/// (bitwise neutral; what makes a spike operand cheap).
#[inline(always)]
pub(crate) fn matmul_chunk(
    a: &[f32],
    k: usize,
    first_row: usize,
    b: &[f32],
    n: usize,
    c: &mut [f32],
) {
    for jb in (0..n).step_by(BLOCK_N) {
        let jend = (jb + BLOCK_N).min(n);
        for pb in (0..k).step_by(BLOCK_K) {
            let pend = (pb + BLOCK_K).min(k);
            for (local_i, crow) in c.chunks_mut(n).enumerate() {
                let arow = &a[(first_row + local_i) * k..][pb..pend];
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
/// rows, and per output element the accumulation still ascends over `p`
/// exactly like a serial pass.
#[inline(always)]
pub(crate) fn matmul_tn_chunk(
    a: &[f32],
    k: usize,
    m: usize,
    first_row: usize,
    b: &[f32],
    n: usize,
    c: &mut [f32],
) {
    for jb in (0..n).step_by(BLOCK_N) {
        let jend = (jb + BLOCK_N).min(n);
        for pb in (0..k).step_by(BLOCK_K) {
            for p in pb..(pb + BLOCK_K).min(k) {
                let brow = &b[p * n + jb..p * n + jend];
                for (crow, &av) in c.chunks_mut(n).zip(&a[p * m + first_row..]) {
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

/// `c[i, j] = Σ_p a[i, p] * b[j, p]` over a **zero-filled** `c`, `b` stored
/// `[n, k]`. Groups of [`NT_COLS`] columns are packed k-tile by k-tile into a
/// stack tile, so the inner loop is one broadcast `a[i, p]` against sixteen
/// contiguous weights, each product masked by [`nonzero_mask`]; per output
/// element that is one ascending-`p` chain of multiply-then-add. The last
/// group of a ragged `n` (all of a ten-class head) runs the same loop with
/// its spare lanes computed on stale tile columns and dropped.
#[inline(always)]
pub(crate) fn matmul_nt_chunk(
    a: &[f32],
    k: usize,
    first_row: usize,
    b: &[f32],
    n: usize,
    c: &mut [f32],
) {
    let mut tile = [0.0f32; NT_BLOCK_K * NT_COLS];
    let mut keep = [0u32; NT_BLOCK_K];
    for jb in (0..n).step_by(NT_COLS) {
        let cols = NT_COLS.min(n - jb);
        for pb in (0..k).step_by(NT_BLOCK_K) {
            let pend = (pb + NT_BLOCK_K).min(k);
            for l in 0..cols {
                let brow = &b[(jb + l) * k..][pb..pend];
                for (pi, &bv) in brow.iter().enumerate() {
                    tile[pi * NT_COLS + l] = bv;
                }
            }
            for (local_i, crow) in c.chunks_mut(n).enumerate() {
                let arow = &a[(first_row + local_i) * k..][pb..pend];
                // The masks go through memory: on a compare of the one `av`
                // all sixteen lanes share, LLVM forms a branch around the
                // multiplies, and a branch on spike data mispredicts.
                for (kp, &av) in keep.iter_mut().zip(arow) {
                    *kp = nonzero_mask(av);
                }
                let cgroup = &mut crow[jb..jb + cols];
                let mut acc = [0.0f32; NT_COLS];
                acc[..cols].copy_from_slice(cgroup);
                for ((&av, &kp), bvs) in arow.iter().zip(&keep).zip(tile.chunks_exact(NT_COLS)) {
                    for (sum, &bv) in acc.iter_mut().zip(bvs) {
                        // explicit multiply, then add: never an FMA
                        *sum += f32::from_bits((av * bv).to_bits() & kp);
                    }
                }
                cgroup.copy_from_slice(&acc[..cols]);
            }
        }
    }
}

/// All ones iff `a` is nonzero (NaN counts as nonzero). ANDed onto the bits
/// of a product `a * b` it leaves `+0.0` for a zero `a` whatever `b` is.
/// Bitwise neutral for finite operands (a sum that starts at `+0.0` can never
/// become `-0.0`), and it keeps a weight behind a silent input out of the
/// sum, as the skip of the row-add kernels does. A mask, not a branch: the
/// loop is bound by the add chain and a branch on spike data mispredicts.
#[inline(always)]
fn nonzero_mask(a: f32) -> u32 {
    u32::from(a != 0.0).wrapping_neg()
}

/// `c[i, j] += bias[j]` over the rows of `c`.
#[inline(always)]
pub(crate) fn add_bias_chunk(c: &mut [f32], n: usize, bias: &[f32]) {
    if n == 0 {
        return; // (`chunks_mut(0)` panics; the matmul bodies run no iteration)
    }
    for crow in c.chunks_mut(n) {
        for (cv, &bv) in crow.iter_mut().zip(bias) {
            *cv += bv;
        }
    }
}

/// Dense blocked `out[m,n] += a[m,k] × b[k,n]` over a zeroed output buffer.
pub(crate) fn matmul_dense(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    let work = m.saturating_mul(k).saturating_mul(n);
    parallel::for_each_row_chunk(out, n, m, work, |r, c| simd::matmul_chunk(a, k, r, b, n, c));
}

/// Dense blocked `out[m,n] += aᵀ × b` with `a` stored `[k, m]`.
pub(crate) fn matmul_tn_dense(a: &[f32], k: usize, m: usize, b: &[f32], n: usize, out: &mut [f32]) {
    let work = m.saturating_mul(k).saturating_mul(n);
    parallel::for_each_row_chunk(out, n, m, work, |first_row, c| {
        simd::matmul_tn_chunk(a, k, m, first_row, b, n, c);
    });
}

/// Dense `out[m,n] += a[m,k] × bᵀ` over a **zero-filled** `out`, with `b`
/// stored `[n, k]`. The partial accumulator is parked in `out` between
/// k-tiles, which is why the buffer must start zeroed; every caller passes a
/// fresh [`crate::Tensor::zeros`] or zero-filled [`crate::Workspace::take`]
/// buffer.
pub(crate) fn matmul_nt_dense(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    if m == 0 || n == 0 {
        return;
    }
    let work = m.saturating_mul(k).saturating_mul(n);
    parallel::for_each_row_chunk(out, n, m, work, |r, c| simd::matmul_nt_chunk(a, k, r, b, n, c));
}

/// `c[rows, n] += bias[n]` broadcast over rows, row-partitioned.
pub(crate) fn add_bias_rows(c: &mut [f32], n: usize, rows: usize, b: &[f32]) {
    let work = rows.saturating_mul(n);
    parallel::for_each_row_chunk(c, n, rows, work, |_, chunk| simd::add_bias_chunk(chunk, n, b));
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
        if m == 0 || n == 0 {
            return Ok(out);
        }
        matmul_dense(self.data(), m, k, rhs.data(), n, out.data_mut());
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
        if m == 0 || n == 0 {
            return Ok(out);
        }
        matmul_tn_dense(self.data(), k, m, rhs.data(), n, out.data_mut());
        Ok(out)
    }

    /// `self[m,k] × rhsᵀ[n,k] → [m,n]` without materializing the transpose,
    /// with the same zero skip as [`Tensor::matmul`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul`], with `rhs` read as `[n, k]`.
    pub fn matmul_nt(&self, rhs: &Tensor) -> Result<Tensor> {
        let (m, k) = mat_dims(self)?;
        let (n, k2) = mat_dims(rhs)?;
        if k != k2 {
            return Err(TensorError::MatmulDims { lhs_cols: k, rhs_rows: k2 });
        }
        let mut out = Tensor::zeros(&[m, n]);
        if m == 0 || n == 0 {
            return Ok(out);
        }
        matmul_nt_dense(self.data(), m, k, rhs.data(), n, out.data_mut());
        Ok(out)
    }

    /// Adds a length-`n` bias vector to every row of an `[m, n]` matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `bias` is not `[n]`.
    pub fn add_row_bias(&self, bias: &Tensor) -> Result<Tensor> {
        let (m, n) = mat_dims(self)?;
        if bias.dims() != [n] {
            return Err(TensorError::ShapeMismatch {
                expected: vec![n],
                actual: bias.dims().to_vec(),
            });
        }
        let mut out = self.clone();
        add_bias_rows(out.data_mut(), n, m, bias.data());
        Ok(out)
    }

    /// Column-wise sum of an `[m, n]` matrix → `[n]` (bias gradients).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn sum_rows(&self) -> Result<Tensor> {
        let (m, n) = mat_dims(self)?;
        let mut out = Tensor::zeros(&[n]);
        let a = self.data();
        let o = out.data_mut();
        for i in 0..m {
            for j in 0..n {
                o[j] += a[i * n + j];
            }
        }
        Ok(out)
    }
}

/// Fully-connected forward:
/// `input[m,k] × weightᵀ[n,k] + bias[n] → [m,n]`, with the output drawn from
/// `ws` instead of a fresh heap allocation. Bitwise identical to
/// `input.matmul_nt(weight)?.add_row_bias(bias)?`.
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
    let (m, k) = mat_dims(input)?;
    let (n, k2) = mat_dims(weight)?;
    if k != k2 {
        return Err(TensorError::MatmulDims { lhs_cols: k, rhs_rows: k2 });
    }
    if bias.dims() != [n] {
        return Err(TensorError::ShapeMismatch { expected: vec![n], actual: bias.dims().to_vec() });
    }
    let mut out = ws.take(m * n);
    if m > 0 && n > 0 {
        matmul_nt_dense(input.data(), m, k, weight.data(), n, &mut out);
        add_bias_rows(&mut out, n, m, bias.data());
    }
    Tensor::from_aligned(out, &[m, n])
}

/// Quantized fully-connected forward: for a binary input, an exact `i32`
/// accumulation of the weight codes over the active inputs with a single
/// rescale per output element (plus the f32 bias); for a non-binary input,
/// the ordinary [`linear_ws`] over the on-grid dequantized weights.
/// Deterministic and thread-count-invariant on both branches.
///
/// # Errors
///
/// Same conditions as [`linear_ws`].
pub fn linear_ws_quant(
    input: &Tensor,
    qw: &QuantizedWeights,
    bias: &Tensor,
    ws: &mut Workspace,
) -> Result<Tensor> {
    if !input.is_binary() {
        return linear_ws(input, qw.dequantized(), bias, ws);
    }
    let (m, k) = mat_dims(input)?;
    let n = qw.rows();
    if k != qw.cols() {
        return Err(TensorError::MatmulDims { lhs_cols: k, rhs_rows: qw.cols() });
    }
    if bias.dims() != [n] {
        return Err(TensorError::ShapeMismatch { expected: vec![n], actual: bias.dims().to_vec() });
    }
    let mut out = ws.take(m * n);
    if m > 0 && n > 0 {
        let mut bm = ws.take_bits();
        bm.build_from_dense(input.data(), m, k)?;
        qw.matmul_nt_bits_into(&bm, &mut out);
        ws.recycle_bits(bm);
        add_bias_rows(&mut out, n, m, bias.data());
    }
    Tensor::from_aligned(out, &[m, n])
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
    fn kernels_are_thread_count_invariant() {
        let mut rng = TensorRng::seed_from(41);
        // Big enough to clear the parallel-work threshold.
        let a = Tensor::randn(&[64, 48], 0.0, 1.0, &mut rng);
        let b = Tensor::randn(&[48, 56], 0.0, 1.0, &mut rng);
        let bt = Tensor::randn(&[56, 48], 0.0, 1.0, &mut rng);
        let at = Tensor::randn(&[48, 64], 0.0, 1.0, &mut rng);
        let serial = parallel::with_threads(1, || {
            (a.matmul(&b).unwrap(), at.matmul_tn(&b).unwrap(), a.matmul_nt(&bt).unwrap())
        });
        for threads in [2, 4, 7] {
            let par = parallel::with_threads(threads, || {
                (a.matmul(&b).unwrap(), at.matmul_tn(&b).unwrap(), a.matmul_nt(&bt).unwrap())
            });
            for (s, p) in [(&serial.0, &par.0), (&serial.1, &par.1), (&serial.2, &par.2)] {
                let sb: Vec<u32> = s.data().iter().map(|v| v.to_bits()).collect();
                let pb: Vec<u32> = p.data().iter().map(|v| v.to_bits()).collect();
                assert_eq!(sb, pb, "threads={threads}");
            }
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
