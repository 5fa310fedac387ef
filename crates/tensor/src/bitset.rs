//! Bit-packed spike operands: one `u64` word per 64 activations.
//!
//! Binary spike tensors carry one bit of information per element, yet the
//! CSR path in [`crate::sparse`] spends a `u32` index plus an `f32`
//! coefficient per active entry. [`BitMatrix`] packs each operand row into
//! `u64` words instead — a 64× cut in activation memory against dense f32 —
//! and its kernels walk the words with `trailing_zeros` / `bits &= bits - 1`,
//! turning the gather loop into branch-light word arithmetic.
//!
//! # Bitwise equivalence with the dense path
//!
//! The word scan visits set bits in **ascending column order**: within a
//! word, `trailing_zeros` always yields the lowest set bit, and words are
//! visited low to high. Every kernel therefore accumulates each output
//! element over the active `p` indices in exactly the order the dense
//! kernels visit them after their `== 0.0` skip, and — because the operand
//! is binary — each active term is a plain add (`1.0 * x == x`). The same
//! argument that makes [`crate::SpikeMatrix`] bitwise identical to dense
//! (see the [`crate::sparse`] module docs) applies verbatim, so dense, CSR
//! and bitset results are **bitwise identical** for any thread count.
//!
//! A [`BitMatrix`] can only represent a **binary** operand (every value
//! exactly `0.0` or `1.0`; `-0.0` counts as inactive). The builders reject
//! anything else so a misrouted ternary/analog operand fails loudly instead
//! of silently losing coefficients — the dispatch layer in
//! [`crate::backend`] measures binarity first and routes non-binary
//! operands to CSR.
//!
//! The f32 convolution forward does not come through here: it scatters
//! spikes straight from the NCHW input (see `conv.rs`). The bit-packed
//! im2col ([`BitMatrix::build_from_im2col`]) remains for the quantized
//! convolution, whose integer dot consumes whole packed patch rows.

use crate::{parallel, simd, AlignedWords, Conv2dSpec, Result, Tensor, TensorError};

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
        "BitMatrix requires a binary (0/1) operand, found {v}; route non-binary \
         operands to the CSR backend"
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

    /// Rebuilds as the transpose of a dense `[k, m]` buffer: logical shape
    /// `[m, k]`, so [`BitMatrix::matmul_into`] computes `aᵀ × b` — the
    /// bitset counterpart of [`crate::Tensor::matmul_tn`]. A single pass
    /// suffices (unlike the CSR two-pass build): scattered bits land at
    /// their final position and sort themselves within each word.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BitMatrix::build_from_dense`].
    pub fn build_transposed_from_dense(&mut self, a: &[f32], k: usize, m: usize) -> Result<()> {
        if a.len() != k * m {
            return Err(TensorError::LengthMismatch { expected: k * m, actual: a.len() });
        }
        self.reset(m, k);
        let wpr = self.words_per_row;
        for (p, row) in a.chunks(m.max(1)).take(k).enumerate() {
            let (word, bit) = (p / 64, 1u64 << (p % 64));
            for (i, &v) in row.iter().enumerate() {
                if v == 1.0 {
                    self.words[i * wpr + word] |= bit;
                } else if v != 0.0 {
                    return Err(non_binary(v));
                }
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

    /// `self[rows, cols] × b[cols, n] → out[rows, n]`, accumulating into
    /// `out` (callers pass a zero-filled buffer). Each set bit adds row `p`
    /// of `b`; bits are visited in ascending `p` order, so results are
    /// bitwise identical to the dense and CSR kernels for any thread count.
    pub fn matmul_into(&self, b: &[f32], n: usize, out: &mut [f32]) {
        debug_assert_eq!(b.len(), self.cols * n);
        debug_assert_eq!(out.len(), self.rows * n);
        if self.rows == 0 || n == 0 {
            return;
        }
        let work = self.nnz().saturating_mul(n);
        let lvl = simd::level();
        parallel::for_each_row_chunk(out, n, self.rows, work, |first_row, c| {
            for (local_i, crow) in c.chunks_mut(n).enumerate() {
                let i = first_row + local_i;
                for (wi, &word) in self.row_words(i).iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let p = wi * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let brow = &b[p * n..p * n + n];
                        simd::add_row(crow, brow, lvl);
                    }
                }
            }
        });
    }

    /// `self[rows, cols] × bᵀ → out[rows, n]` where `b` is row-major
    /// `[n, cols]` — the bitset counterpart of [`crate::Tensor::matmul_nt`],
    /// writing into a zero-filled `out`. Each packed row is decoded once
    /// into a stack-resident batch of ascending indices; the gather loop
    /// then matches the CSR kernel shape — register accumulator, one
    /// contiguous row of `b` per output column — while the operand itself
    /// stays 64× smaller than the CSR index list. Batches are flushed in
    /// ascending order, so per output element the active `p` arrive low to
    /// high and results stay bitwise identical to dense and CSR.
    pub fn matmul_nt_into(&self, b: &[f32], n: usize, out: &mut [f32]) {
        debug_assert_eq!(b.len(), self.cols * n);
        debug_assert_eq!(out.len(), self.rows * n);
        if self.rows == 0 || n == 0 {
            return;
        }
        let k = self.cols;
        let work = self.nnz().saturating_mul(n);
        parallel::for_each_row_chunk(out, n, self.rows, work, |first_row, c| {
            // stack-resident index batch: the packed row is decoded once and
            // the inner gather loop reads L1-hot u32 indices, exactly like
            // the CSR kernel — without CSR's per-entry index storage
            let mut batch = [0u32; 128];
            for (local_i, crow) in c.chunks_mut(n).enumerate() {
                let words = self.row_words(first_row + local_i);
                let flush = |batch: &[u32], first: bool, crow: &mut [f32]| {
                    for (j, cv) in crow.iter_mut().enumerate() {
                        let brow = &b[j * k..(j + 1) * k];
                        let mut acc = if first { 0.0 } else { *cv };
                        for &p in batch {
                            acc += brow[p as usize];
                        }
                        *cv = acc;
                    }
                };
                let mut len = 0usize;
                let mut first = true;
                for (wi, &word) in words.iter().enumerate() {
                    let base = (wi * 64) as u32;
                    let mut bits = word;
                    while bits != 0 {
                        batch[len] = base + bits.trailing_zeros();
                        bits &= bits - 1;
                        len += 1;
                        if len == batch.len() {
                            flush(&batch, first, crow);
                            len = 0;
                            first = false;
                        }
                    }
                }
                flush(&batch[..len], first, crow);
            }
        });
    }

    /// Visits the active columns of row `i` in ascending order. The
    /// quantized kernel now scans words via [`crate::simd::quant_dot`];
    /// this stays as the readable reference for the tests below.
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
    use crate::{sparse::with_density_threshold, SpikeMatrix, TensorRng};

    fn bits_of(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

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
        assert!(bm.build_transposed_from_dense(&[2.0, 0.0], 1, 2).is_err());
        // -0.0 is inactive, not an error
        assert!(bm.build_from_dense(&[-0.0, 1.0], 1, 2).is_ok());
        assert_eq!(bm.nnz(), 1);
        // length mismatch
        assert!(bm.build_from_dense(&[1.0], 2, 3).is_err());
    }

    #[test]
    fn bitset_matmul_family_matches_dense_and_csr_bitwise() {
        let mut rng = TensorRng::seed_from(171);
        let a = spikes(&[33, 70], 0.15, &mut rng);
        let b = Tensor::randn(&[70, 21], 0.0, 1.0, &mut rng);
        let bt = Tensor::randn(&[21, 70], 0.0, 1.0, &mut rng); // [n, k]
        let at = spikes(&[70, 33], 0.15, &mut rng); // [k, m]
        for threads in [1, 4] {
            parallel::with_threads(threads, || {
                // dense references
                let (d_mm, d_tn, d_nt) = with_density_threshold(-1.0, || {
                    (
                        a.matmul(&b).unwrap(),
                        at.matmul_tn(&b).unwrap(),
                        a.matmul_nt(&bt).unwrap(),
                    )
                });

                // raw bitset kernels
                let mut bm = BitMatrix::new();
                bm.build_from_dense(a.data(), 33, 70).unwrap();
                let mut out = vec![0.0f32; 33 * 21];
                bm.matmul_into(b.data(), 21, &mut out);
                assert_eq!(bits_of(&d_mm), out.iter().map(|v| v.to_bits()).collect::<Vec<_>>());

                out.iter_mut().for_each(|v| *v = 0.0);
                bm.matmul_nt_into(bt.data(), 21, &mut out);
                assert_eq!(bits_of(&d_nt), out.iter().map(|v| v.to_bits()).collect::<Vec<_>>());

                let mut tm = BitMatrix::new();
                tm.build_transposed_from_dense(at.data(), 70, 33).unwrap();
                out.iter_mut().for_each(|v| *v = 0.0);
                tm.matmul_into(b.data(), 21, &mut out);
                assert_eq!(bits_of(&d_tn), out.iter().map(|v| v.to_bits()).collect::<Vec<_>>());

                // CSR agrees too (the existing oracle, re-pinned here)
                let mut sm = SpikeMatrix::new();
                sm.build_from_dense(a.data(), 33, 70).unwrap();
                let mut csr = vec![0.0f32; 33 * 21];
                sm.matmul_into(b.data(), 21, &mut csr);
                assert_eq!(bits_of(&d_mm), csr.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
            });
        }
    }

    #[test]
    fn transposed_build_matches_explicit_transpose() {
        let mut rng = TensorRng::seed_from(172);
        let a = spikes(&[12, 9], 0.3, &mut rng); // [k, m]
        let mut tn = BitMatrix::new();
        tn.build_transposed_from_dense(a.data(), 12, 9).unwrap();
        let at = a.transpose2d().unwrap();
        let mut explicit = BitMatrix::new();
        explicit.build_from_dense(at.data(), 9, 12).unwrap();
        assert_eq!(tn.words, explicit.words);
        assert_eq!(tn.nnz(), explicit.nnz());
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
    fn empty_operands_are_noops() {
        let mut bm = BitMatrix::new();
        bm.build_from_dense(&[], 0, 4).unwrap();
        let mut out: Vec<f32> = vec![];
        bm.matmul_into(&[0.0; 8], 2, &mut out);
        bm.build_from_dense(&[], 3, 0).unwrap();
        let mut out = vec![0.0f32; 6];
        bm.matmul_into(&[], 2, &mut out);
        assert_eq!(out, vec![0.0; 6]);
    }
}
