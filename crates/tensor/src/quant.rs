//! Quantized int8 weight path on the IMC deployment grid.
//!
//! Crossbar-deployed weights live on a signed `weight_bits` grid: with
//! `scale = max |w|` and `levels = 2^(bits-1)`, every weight becomes an
//! integer code `q ∈ [-levels, levels-1]` times the step `Δ = scale/levels`.
//! [`QuantizedWeights`] caches those codes as `i8` plus the bitwise-exact
//! dequantized tensor, and its kernel exploits that binary spikes select a
//! **subset sum of integer codes**: each output element is an exact `i32`
//! accumulation of `q` over the active inputs followed by a *single* f32
//! rescale by `Δ` — one rounding step instead of one per term, the software
//! analogue of an ideal bit-serial crossbar read.
//!
//! # Semantics and determinism
//!
//! The quantized backend is **not** bitwise identical to dense f32 — the
//! grid snap is a real numeric change — so it carries its own golden traces
//! rather than riding the dense ones. It is still fully deterministic:
//! integer accumulation is exact (order-free), the rescale is a single f32
//! multiply, and non-binary operands fall back to the ordinary f32 kernels
//! over the dequantized (on-grid) weights.
//!
//! [`quantize_dequantize`] is the one definition of the grid: the IMC fault
//! injector's noiseless read reduces to it bitwise, so the hardware model and
//! this backend cannot disagree, and the dequantized tensor is a fixed point
//! of the grid snap.

use crate::bitset::BitMatrix;
use crate::{Result, Tensor, TensorError};

/// Quantize-then-dequantize one weight on the signed `weight_bits` grid
/// with full-scale magnitude `scale` (the ideal, noise-free deployment).
/// Returns `0.0` for a non-positive scale.
pub fn quantize_dequantize(w: f32, scale: f32, weight_bits: u32) -> f32 {
    if scale <= 0.0 {
        return 0.0;
    }
    let levels = 1i64 << (weight_bits - 1);
    let delta = scale / levels as f32;
    let q = ((w / delta).round() as i64).clamp(-levels, levels - 1);
    q as f32 * delta
}

/// Exact integer dot of a packed spike row (`words`, bit `p` set ⇔ input `p`
/// active) against an `i8` code row: the sum of the active codes. A bit-scan
/// — integer code with nothing for a vector tier to widen, and integer
/// accumulation is order-free, so every build returns the same `i32`.
#[inline]
fn quant_dot(words: &[u64], q: &[i8]) -> i32 {
    let mut acc = 0i32;
    for (wi, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let p = wi * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            acc += i32::from(q[p]);
        }
    }
    acc
}

/// A `[n_out, k]` weight matrix frozen onto the `weight_bits` grid: `i8`
/// codes for the integer fast path plus the exact dequantized tensor for
/// the f32 fallback. Built once per layer and invalidated whenever the
/// underlying weights change.
#[derive(Debug, Clone)]
pub struct QuantizedWeights {
    q: Vec<i8>,
    delta: f32,
    bits: u32,
    rows: usize,
    cols: usize,
    deq: Tensor,
}

impl QuantizedWeights {
    /// Quantizes a rank-2 `[n_out, k]` weight tensor onto the signed
    /// `bits` grid with `scale = max |w|`. The stored dequantized tensor is
    /// elementwise bitwise equal to [`quantize_dequantize`] of the input.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices and
    /// [`TensorError::InvalidArgument`] for `bits` outside `2..=8` (codes
    /// must fit an `i8`).
    pub fn from_tensor(w: &Tensor, bits: u32) -> Result<Self> {
        if w.shape().rank() != 2 {
            return Err(TensorError::RankMismatch { expected: 2, actual: w.shape().rank() });
        }
        if !(2..=8).contains(&bits) {
            return Err(TensorError::InvalidArgument(format!(
                "quantized weight bits must be in 2..=8 to fit i8 codes, got {bits}"
            )));
        }
        let (rows, cols) = (w.dims()[0], w.dims()[1]);
        let scale = w.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let levels = 1i64 << (bits - 1);
        let delta = if scale <= 0.0 { 0.0 } else { scale / levels as f32 };
        let mut q = Vec::with_capacity(w.len());
        let mut deq = Vec::with_capacity(w.len());
        for &v in w.data() {
            if scale <= 0.0 {
                q.push(0);
                deq.push(0.0);
            } else {
                let code = ((v / delta).round() as i64).clamp(-levels, levels - 1);
                q.push(code as i8);
                deq.push(code as f32 * delta);
            }
        }
        let deq = Tensor::from_vec(deq, &[rows, cols])?;
        Ok(QuantizedWeights { q, delta, bits, rows, cols, deq })
    }

    /// Grid resolution used at build time.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Output-feature count (`n_out`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Input-feature count (`k`).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Grid step `Δ = scale / 2^(bits-1)` (zero for an all-zero weight).
    pub fn delta(&self) -> f32 {
        self.delta
    }

    /// The on-grid f32 weights — elementwise bitwise equal to
    /// [`quantize_dequantize`] of the original tensor, and a fixed point of
    /// the grid snap (re-quantizing returns the same values).
    pub fn dequantized(&self) -> &Tensor {
        &self.deq
    }

    /// `a[m, k] × selfᵀ[n_out, k] → out[m, n_out]` for a bit-packed binary
    /// `a`: per output element an exact `i32` sum of the active codes, then
    /// one rescale by `Δ`. `out` is overwritten.
    pub fn matmul_nt_bits_into(&self, a: &BitMatrix, out: &mut [f32]) {
        debug_assert_eq!(a.cols(), self.cols);
        debug_assert_eq!(out.len(), a.rows() * self.rows);
        let n = self.rows;
        if a.rows() == 0 || n == 0 {
            return;
        }
        let k = self.cols;
        for (i, crow) in out.chunks_mut(n).enumerate() {
            let words = a.row_words(i);
            for (j, cv) in crow.iter_mut().enumerate() {
                let qrow = &self.q[j * k..(j + 1) * k];
                *cv = quant_dot(words, qrow) as f32 * self.delta;
            }
        }
    }

    /// `a[m, k] × selfᵀ[n_out, k] → [m, n_out]` with quantized semantics:
    /// the integer fast path for a binary `a`, the f32 kernels over the
    /// on-grid dequantized weights otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for a non-matrix `a` and
    /// [`TensorError::MatmulDims`] when `a`'s columns disagree with `k`.
    pub fn matmul_nt(&self, a: &Tensor) -> Result<Tensor> {
        if a.shape().rank() != 2 {
            return Err(TensorError::RankMismatch { expected: 2, actual: a.shape().rank() });
        }
        let (m, k) = (a.dims()[0], a.dims()[1]);
        if k != self.cols {
            return Err(TensorError::MatmulDims { lhs_cols: k, rhs_rows: self.cols });
        }
        if !a.is_binary() {
            return a.matmul_nt(&self.deq);
        }
        let mut out = Tensor::zeros(&[m, self.rows]);
        if m > 0 && self.rows > 0 {
            let mut bm = BitMatrix::new();
            bm.build_from_dense(a.data(), m, k)?;
            self.matmul_nt_bits_into(&bm, out.data_mut());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TensorRng;

    #[test]
    fn dequantized_matches_reference_grid_snap_bitwise() {
        let mut rng = TensorRng::seed_from(201);
        let w = Tensor::randn(&[7, 13], 0.0, 0.5, &mut rng);
        let scale = w.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        for bits in [2u32, 4, 8] {
            let qw = QuantizedWeights::from_tensor(&w, bits).unwrap();
            for (&orig, &snapped) in w.data().iter().zip(qw.dequantized().data()) {
                assert_eq!(
                    quantize_dequantize(orig, scale, bits).to_bits(),
                    snapped.to_bits(),
                    "bits={bits} w={orig}"
                );
            }
        }
    }

    #[test]
    fn dequantized_weights_are_a_fixed_point_of_the_grid() {
        // PR 4 invariant: unfaulted weights stay on-grid — re-snapping the
        // dequantized tensor on the *same* grid (same scale) changes
        // nothing. The scale must be held fixed: the positive extremum
        // clamps to `levels-1`, so re-deriving `max |w|` from the snapped
        // tensor would define a slightly different grid.
        let mut rng = TensorRng::seed_from(202);
        let w = Tensor::randn(&[5, 9], 0.0, 1.0, &mut rng);
        let scale = w.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        for bits in [2u32, 4, 8] {
            let qw = QuantizedWeights::from_tensor(&w, bits).unwrap();
            for &snapped in qw.dequantized().data() {
                let again = quantize_dequantize(snapped, scale, bits);
                assert_eq!(again.to_bits(), snapped.to_bits(), "bits={bits} v={snapped}");
            }
        }
    }

    #[test]
    fn integer_kernel_matches_naive_code_sums() {
        let mut rng = TensorRng::seed_from(203);
        // k on both sides of the 64-bit spike words, empty to full rows
        for k in [1usize, 40, 63, 64, 65, 200] {
            for density in [0.0f32, 0.3, 1.0] {
                let w = Tensor::randn(&[6, k], 0.0, 0.5, &mut rng);
                let qw = QuantizedWeights::from_tensor(&w, 8).unwrap();
                let mut x = Tensor::zeros(&[9, k]);
                for v in x.data_mut().iter_mut() {
                    if rng.bernoulli(density) {
                        *v = 1.0;
                    }
                }
                let mut bm = BitMatrix::new();
                bm.build_from_dense(x.data(), 9, k).unwrap();
                let mut out = vec![0.0f32; 9 * 6];
                qw.matmul_nt_bits_into(&bm, &mut out);
                for i in 0..9 {
                    for j in 0..6 {
                        let mut acc: i32 = 0;
                        for p in 0..k {
                            if x.data()[i * k + p] == 1.0 {
                                acc += i32::from(qw.q[j * k + p]);
                            }
                        }
                        let want = acc as f32 * qw.delta();
                        assert_eq!(want.to_bits(), out[i * 6 + j].to_bits(), "k={k} ({i},{j})");
                    }
                }
            }
        }
    }

    #[test]
    fn rejects_bad_shapes_and_bit_widths() {
        let w = Tensor::zeros(&[4]);
        assert!(QuantizedWeights::from_tensor(&w, 8).is_err());
        let w = Tensor::zeros(&[2, 2]);
        assert!(QuantizedWeights::from_tensor(&w, 1).is_err());
        assert!(QuantizedWeights::from_tensor(&w, 9).is_err());
        // all-zero weights quantize to an all-zero grid
        let qw = QuantizedWeights::from_tensor(&w, 8).unwrap();
        assert_eq!(qw.delta(), 0.0);
        assert_eq!(qw.dequantized().data(), &[0.0; 4]);
    }
}
