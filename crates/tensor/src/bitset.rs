//! Bit-packed spike operands: one `u64` word per 64 activations.
//!
//! Binary spike tensors carry one bit of information per element.
//! [`BitMatrix`] packs each operand row into `u64` words — a 64× cut in
//! activation memory against dense f32 — and is the spike operand of the
//! quantized integer kernel
//! ([`crate::QuantizedWeights::matmul_nt_bits_into`]), which consumes whole
//! packed rows: [`crate::linear_ws_quant`] packs its input with
//! [`BitMatrix::build_from_dense`], [`crate::conv2d_ws_quant`] the patch
//! rows with [`BitMatrix::build_from_im2col`]. The f32 kernels do not come
//! through here; they skip zeros in place.
//!
//! A [`BitMatrix`] can only represent a **binary** operand (every value
//! exactly `0.0` or `1.0`; `-0.0` counts as inactive). The builders reject
//! anything else so a misrouted ternary/analog operand fails loudly instead
//! of silently losing coefficients — the quantized entry points check
//! binarity first and run the f32 kernels over the on-grid weights otherwise.

use crate::{AlignedWords, Conv2dSpec, Result, Tensor, TensorError};

/// Bit-packed binary matrix: row `i`'s active columns are the set bits of
/// `words[i*words_per_row..][..words_per_row]`, bit `j % 64` of word
/// `j / 64`. Buffers are retained across [`BitMatrix::clear`]/rebuild
/// cycles, so a matrix parked in a [`crate::Workspace`] costs no
/// steady-state allocations.
#[derive(Debug, Clone, Default)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    words: AlignedWords,
}

fn non_binary(v: f32) -> TensorError {
    TensorError::InvalidArgument(format!(
        "BitMatrix requires a binary (0/1) operand, found {v}"
    ))
}

impl BitMatrix {
    /// An empty matrix with no retained capacity.
    pub fn new() -> Self {
        BitMatrix::default()
    }

    /// Logical row count of the last build.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical column count of the last build.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of set bits (active entries).
    pub fn nnz(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Empties the matrix, keeping allocated capacity for the next build.
    pub fn clear(&mut self) {
        self.rows = 0;
        self.cols = 0;
        self.words_per_row = 0;
        self.words.clear();
    }

    /// The packed words of row `i` (crate-visible so the quantized integer
    /// kernel can feed whole words to the SIMD dot).
    pub(crate) fn row_words(&self, i: usize) -> &[u64] {
        &self.words[i * self.words_per_row..(i + 1) * self.words_per_row]
    }

    fn reset(&mut self, rows: usize, cols: usize) {
        self.clear();
        self.rows = rows;
        self.cols = cols;
        self.words_per_row = cols.div_ceil(64);
        // clear() + resize() zero-fills reused capacity
        self.words.resize(rows * self.words_per_row, 0);
    }

    /// Rebuilds from a dense row-major `[rows, cols]` buffer in one pass.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when the buffer length
    /// disagrees and [`TensorError::InvalidArgument`] on any value other
    /// than `0.0` / `1.0`.
    pub fn build_from_dense(&mut self, a: &[f32], rows: usize, cols: usize) -> Result<()> {
        if a.len() != rows * cols {
            return Err(TensorError::LengthMismatch { expected: rows * cols, actual: a.len() });
        }
        self.reset(rows, cols);
        let wpr = self.words_per_row;
        for (i, row) in a.chunks(cols.max(1)).take(rows).enumerate() {
            let base = i * wpr;
            // branchless word-at-a-time pack: each 64-float chunk becomes one
            // u64 with no per-element control flow, so the scan vectorizes
            for (wi, chunk) in row.chunks(64).enumerate() {
                let mut word = 0u64;
                let mut ok = true;
                for (bit, &v) in chunk.iter().enumerate() {
                    word |= u64::from(v == 1.0) << bit;
                    ok &= (v == 0.0) | (v == 1.0);
                }
                if !ok {
                    let bad =
                        chunk.iter().copied().find(|&v| v != 0.0 && v != 1.0).unwrap_or(f32::NAN);
                    return Err(non_binary(bad));
                }
                self.words[base + wi] = word;
            }
        }
        Ok(())
    }

    /// Rebuilds as the im2col unfolding of `input` (`[n, c, h, w]`), setting
    /// **only active patch taps** — the dense `[n*oh*ow, c*k*k]` column
    /// matrix is never materialized and padding taps stay unset. Used by
    /// [`crate::conv2d_ws_quant`] only; equal, word for word, to packing
    /// [`crate::im2col`]'s output with [`BitMatrix::build_from_dense`].
    ///
    /// # Errors
    ///
    /// Returns the same shape/geometry errors as [`crate::im2col`], plus
    /// [`TensorError::InvalidArgument`] on non-binary input values.
    pub fn build_from_im2col(&mut self, input: &Tensor, spec: &Conv2dSpec) -> Result<()> {
        let d = input.dims();
        if d.len() != 4 {
            return Err(TensorError::RankMismatch { expected: 4, actual: d.len() });
        }
        let [n, c, h, w] = [d[0], d[1], d[2], d[3]];
        if c != spec.in_channels {
            return Err(TensorError::ShapeMismatch {
                expected: vec![n, spec.in_channels, h, w],
                actual: d.to_vec(),
            });
        }
        let (oh, ow) = spec.output_hw(h, w)?;
        let k = spec.kernel;
        self.reset(n * oh * ow, spec.patch_len());
        let wpr = self.words_per_row;
        let src = input.data();
        let pad = spec.padding as isize;
        for flat in 0..self.rows {
            let ox = flat % ow;
            let oy = (flat / ow) % oh;
            let ni = flat / (ow * oh);
            let iy0 = (oy * spec.stride) as isize - pad;
            let ix0 = (ox * spec.stride) as isize - pad;
            let base = flat * wpr;
            for ci in 0..c {
                let cbase = (ni * c + ci) * h * w;
                for ky in 0..k {
                    let iy = iy0 + ky as isize;
                    if iy < 0 || iy >= h as isize {
                        continue; // padding taps stay unset
                    }
                    let srow = cbase + iy as usize * w;
                    let drow = (ci * k + ky) * k;
                    for kx in 0..k {
                        let ix = ix0 + kx as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        let v = src[srow + ix as usize];
                        if v == 1.0 {
                            let j = drow + kx;
                            self.words[base + j / 64] |= 1u64 << (j % 64);
                        } else if v != 0.0 {
                            return Err(non_binary(v));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Visits the active columns of row `i` in ascending order: the
    /// readable reference for the tests below (the quantized kernel scans
    /// words itself, `quant::quant_dot`).
    #[cfg(test)]
    pub(crate) fn for_each_active<F: FnMut(usize)>(&self, i: usize, mut f: F) {
        for (wi, &word) in self.row_words(i).iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                f(wi * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TensorRng;

    fn spikes(dims: &[usize], density: f32, rng: &mut TensorRng) -> Tensor {
        let mut t = Tensor::zeros(dims);
        for v in t.data_mut().iter_mut() {
            if rng.bernoulli(density) {
                *v = 1.0;
            }
        }
        t
    }

    #[test]
    fn build_from_dense_sets_expected_bits() {
        let mut bm = BitMatrix::new();
        // 70 columns straddles a word boundary
        let mut a = vec![0.0f32; 2 * 70];
        for j in [0usize, 63, 64, 69] {
            a[j] = 1.0; // row 0
        }
        a[70 + 5] = 1.0; // row 1
        bm.build_from_dense(&a, 2, 70).unwrap();
        assert_eq!(bm.rows(), 2);
        assert_eq!(bm.cols(), 70);
        assert_eq!(bm.nnz(), 5);
        let mut seen = Vec::new();
        bm.for_each_active(0, |p| seen.push(p));
        assert_eq!(seen, vec![0, 63, 64, 69]);
        seen.clear();
        bm.for_each_active(1, |p| seen.push(p));
        assert_eq!(seen, vec![5]);
    }

    #[test]
    fn builders_reject_non_binary_values() {
        let mut bm = BitMatrix::new();
        assert!(bm.build_from_dense(&[1.0, 0.5], 1, 2).is_err());
        assert!(bm.build_from_dense(&[-1.0, 0.0], 1, 2).is_err());
        // -0.0 is inactive, not an error
        assert!(bm.build_from_dense(&[-0.0, 1.0], 1, 2).is_ok());
        assert_eq!(bm.nnz(), 1);
        // length mismatch
        assert!(bm.build_from_dense(&[1.0], 2, 3).is_err());
    }

    #[test]
    fn im2col_build_matches_packing_the_dense_unfolding() {
        let mut rng = TensorRng::seed_from(173);
        for (stride, pad) in [(1, 1), (2, 1), (1, 0)] {
            let spec = Conv2dSpec::new(3, 5, 3, stride, pad).unwrap();
            let x = spikes(&[2, 3, 8, 8], 0.12, &mut rng);
            let mut direct = BitMatrix::new();
            direct.build_from_im2col(&x, &spec).unwrap();
            let cols = crate::im2col(&x, &spec).unwrap();
            let mut packed = BitMatrix::new();
            packed.build_from_dense(cols.data(), cols.dims()[0], cols.dims()[1]).unwrap();
            assert_eq!((direct.rows(), direct.cols()), (packed.rows(), packed.cols()));
            assert_eq!(direct.words, packed.words, "stride={stride} pad={pad}");
        }
    }

    #[test]
    fn clear_retains_capacity() {
        let mut bm = BitMatrix::new();
        bm.build_from_dense(&[1.0, 0.0, 0.0, 1.0], 2, 2).unwrap();
        let cap = bm.words.capacity();
        bm.clear();
        assert_eq!(bm.nnz(), 0);
        assert!(bm.words.capacity() >= cap);
        // rebuild after clear starts from zeroed words
        bm.build_from_dense(&[0.0, 1.0, 0.0, 0.0], 2, 2).unwrap();
        assert_eq!(bm.nnz(), 1);
    }

    #[test]
    fn empty_operands_build() {
        let mut bm = BitMatrix::new();
        bm.build_from_dense(&[], 0, 4).unwrap();
        assert_eq!((bm.rows(), bm.cols(), bm.nnz()), (0, 4, 0));
        bm.build_from_dense(&[], 3, 0).unwrap();
        assert_eq!((bm.rows(), bm.cols(), bm.nnz()), (3, 0, 0));
    }
}
