//! Event-driven sparse kernels over binary/ternary spike operands.
//!
//! Spiking activations are mostly zeros, so dense matrix kernels waste the
//! bulk of their inner-loop iterations. [`SpikeMatrix`] stores only the
//! active entries of an operand — per-row index lists in CSR form, built in
//! one scan like [`crate::Tensor::density`] — and its gather-accumulate
//! kernels touch exactly those entries. For binary operands (`val == 1.0`
//! everywhere) the multiply disappears entirely: `a[i,p] * b[p,:]`
//! degenerates to adding row `p` of `b`.
//!
//! # Bitwise equivalence with the dense path
//!
//! Every kernel here accumulates each output element over the active `p`
//! indices **in ascending order** — exactly the order the dense kernels in
//! [`crate::Tensor::matmul`] et al. visit them after their own `== 0.0`
//! skip. Skipping a zero term is itself bitwise neutral: accumulators start
//! at `+0.0`, `+0.0 + ±0.0 == +0.0`, and adding `±0.0` to a nonzero value
//! changes nothing, so for finite operands the sparse and dense paths return
//! **bitwise identical** results. The conformance goldens and fuzz oracle 8
//! pin this.
//!
//! # Density-threshold dispatch
//!
//! The dense entry points measure operand density and switch to the sparse
//! path when it is at or below [`density_threshold`]. The threshold comes
//! from, in priority order: a process-wide override
//! ([`set_density_threshold`] / [`with_density_threshold`]), the
//! `DTSNN_SPARSE_THRESHOLD` environment variable (read once), or
//! [`DEFAULT_DENSITY_THRESHOLD`]. `-1.0` forces the dense path and `1.0`
//! forces the sparse path — useful for benches and equivalence tests; since
//! the two paths agree bitwise, flipping the knob concurrently cannot change
//! any numeric output.

use crate::{parallel, simd, Result, TensorError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Default spike-density cutoff at or below which the sparse path runs.
///
/// Break-even sits well above this: the gather kernel does `nnz` row-adds
/// versus `k` fused multiply-rows for dense, so sparse wins whenever most
/// entries are zero. `0.25` leaves margin for the build scan.
pub const DEFAULT_DENSITY_THRESHOLD: f32 = 0.25;

// Packed override: 0 = none, otherwise `f32::to_bits(threshold) as u64 + 1`.
static OVERRIDE: AtomicU64 = AtomicU64::new(0);
static ENV_THRESHOLD: OnceLock<Option<f32>> = OnceLock::new();

fn clamp_threshold(t: f32) -> f32 {
    if t.is_nan() {
        DEFAULT_DENSITY_THRESHOLD
    } else {
        t.clamp(-1.0, 1.0)
    }
}

/// Parses a `DTSNN_SPARSE_THRESHOLD` value; `None` flags a malformed
/// string (the caller warns and falls back to the default).
pub(crate) fn parse_threshold(raw: &str) -> Option<f32> {
    raw.trim().parse::<f32>().ok()
}

/// The active sparse-dispatch density threshold (override → env → default).
pub fn density_threshold() -> f32 {
    let packed = OVERRIDE.load(Ordering::Relaxed);
    if packed != 0 {
        return f32::from_bits((packed - 1) as u32);
    }
    ENV_THRESHOLD
        .get_or_init(|| match std::env::var("DTSNN_SPARSE_THRESHOLD") {
            Ok(v) => match parse_threshold(&v) {
                Some(t) => Some(clamp_threshold(t)),
                None => {
                    // OnceLock init runs at most once, so this warning
                    // cannot repeat per process.
                    eprintln!(
                        "dtsnn: warning: DTSNN_SPARSE_THRESHOLD={v:?} is not a number; \
                         using the default threshold {DEFAULT_DENSITY_THRESHOLD}"
                    );
                    None
                }
            },
            Err(_) => None,
        })
        .unwrap_or(DEFAULT_DENSITY_THRESHOLD)
}

/// Installs a process-wide threshold override (clamped to `[-1.0, 1.0]`);
/// `None` restores the environment/default value. Returns the previous
/// override.
pub fn set_density_threshold(t: Option<f32>) -> Option<f32> {
    let packed = t.map_or(0, |v| u64::from(clamp_threshold(v).to_bits()) + 1);
    let prev = OVERRIDE.swap(packed, Ordering::Relaxed);
    if prev == 0 {
        None
    } else {
        Some(f32::from_bits((prev - 1) as u32))
    }
}

/// Runs `f` with the dispatch threshold pinned to `t`, restoring the
/// previous override afterwards. `-1.0` forces dense, `1.0` forces sparse.
pub fn with_density_threshold<R>(t: f32, f: impl FnOnce() -> R) -> R {
    let prev = set_density_threshold(Some(t));
    let out = f();
    set_density_threshold(prev);
    out
}

/// CSR list of the active (nonzero) entries of a spike operand.
///
/// Row `i`'s entries live at `idx[row_ptr[i]..row_ptr[i+1]]` (column
/// indices, ascending) with matching coefficients in `val`. When every
/// stored coefficient is exactly `1.0` the matrix is flagged `binary` and
/// the kernels drop the multiply. The buffers are retained across
/// [`SpikeMatrix::clear`]/rebuild cycles, so a matrix parked in a
/// [`crate::Workspace`] costs no steady-state allocations.
#[derive(Debug, Clone, Default)]
pub struct SpikeMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    idx: Vec<u32>,
    val: Vec<f32>,
    binary: bool,
}

impl SpikeMatrix {
    /// An empty matrix with no retained capacity.
    pub fn new() -> Self {
        SpikeMatrix::default()
    }

    /// Logical row count of the last build.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical column count of the last build.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (active) entries.
    pub fn nnz(&self) -> usize {
        self.idx.len()
    }

    /// Whether every stored coefficient is exactly `1.0`.
    pub fn is_binary(&self) -> bool {
        self.binary
    }

    /// Empties the matrix, keeping allocated capacity for the next build.
    pub fn clear(&mut self) {
        self.rows = 0;
        self.cols = 0;
        self.row_ptr.clear();
        self.idx.clear();
        self.val.clear();
        self.binary = true;
    }

    fn check_cols(cols: usize) -> Result<()> {
        if cols > u32::MAX as usize {
            return Err(TensorError::InvalidArgument(format!(
                "SpikeMatrix column count {cols} exceeds u32 index range"
            )));
        }
        Ok(())
    }

    /// Rebuilds from a dense row-major `[rows, cols]` buffer in one pass.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when the buffer length
    /// disagrees and [`TensorError::InvalidArgument`] when `cols` overflows
    /// the `u32` index range.
    pub fn build_from_dense(&mut self, a: &[f32], rows: usize, cols: usize) -> Result<()> {
        if a.len() != rows * cols {
            return Err(TensorError::LengthMismatch { expected: rows * cols, actual: a.len() });
        }
        Self::check_cols(cols)?;
        self.clear();
        self.rows = rows;
        self.cols = cols;
        self.row_ptr.reserve(rows + 1);
        self.row_ptr.push(0);
        for row in a.chunks(cols.max(1)).take(rows) {
            for (j, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    self.idx.push(j as u32);
                    self.val.push(v);
                    self.binary &= v == 1.0;
                }
            }
            self.row_ptr.push(self.idx.len());
        }
        Ok(())
    }

    /// Rebuilds as the transpose of a dense `[k, m]` buffer: logical shape
    /// `[m, k]`, so [`SpikeMatrix::matmul_into`] computes `aᵀ × b` — the
    /// sparse counterpart of [`crate::Tensor::matmul_tn`]. Two passes
    /// (count, fill); each row's indices come out ascending because the fill
    /// scans `p` in ascending order.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when the buffer length
    /// disagrees and [`TensorError::InvalidArgument`] when `k` overflows the
    /// `u32` index range.
    pub fn build_transposed_from_dense(&mut self, a: &[f32], k: usize, m: usize) -> Result<()> {
        if a.len() != k * m {
            return Err(TensorError::LengthMismatch { expected: k * m, actual: a.len() });
        }
        Self::check_cols(k)?;
        self.clear();
        self.rows = m;
        self.cols = k;
        let mut counts = vec![0usize; m];
        for row in a.chunks(m.max(1)).take(k) {
            for (i, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    counts[i] += 1;
                }
            }
        }
        self.row_ptr.reserve(m + 1);
        self.row_ptr.push(0);
        let mut total = 0usize;
        for &c in &counts {
            total += c;
            self.row_ptr.push(total);
        }
        self.idx.resize(total, 0);
        self.val.resize(total, 0.0);
        let mut cursor: Vec<usize> = self.row_ptr[..m].to_vec();
        for (p, row) in a.chunks(m.max(1)).take(k).enumerate() {
            for (i, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    let pos = cursor[i];
                    cursor[i] += 1;
                    self.idx[pos] = p as u32;
                    self.val[pos] = v;
                    self.binary &= v == 1.0;
                }
            }
        }
        Ok(())
    }

    /// `self[rows, cols] × b[cols, n] → out[rows, n]`, accumulating into
    /// `out` (callers pass a zero-filled buffer). Row-partitioned across the
    /// [`crate::parallel`] pool; per-element accumulation visits the active
    /// `p` indices in ascending order, exactly like the dense kernel's
    /// zero-skip loop, so results are bitwise identical to it for any
    /// thread count. For binary operands each active entry is a plain row
    /// add.
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
                let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
                // the gather over irregular `p` stays scalar; the contiguous
                // dense-row accumulate per active entry is vectorized
                if self.binary {
                    for &p in &self.idx[lo..hi] {
                        let brow = &b[p as usize * n..p as usize * n + n];
                        simd::add_row(crow, brow, lvl);
                    }
                } else {
                    for (&p, &av) in self.idx[lo..hi].iter().zip(&self.val[lo..hi]) {
                        let brow = &b[p as usize * n..p as usize * n + n];
                        simd::add_scaled_row(crow, av, brow, lvl);
                    }
                }
            }
        });
    }

    /// `self[rows, cols] × bᵀ → out[rows, n]` where `b` is row-major
    /// `[n, cols]` — the sparse counterpart of [`crate::Tensor::matmul_nt`].
    /// Each output element is a gathered dot product over the row's active
    /// indices in ascending order (bitwise identical to the dense
    /// accumulation, which adds only `±0.0` for the skipped terms).
    pub fn matmul_nt_into(&self, b: &[f32], n: usize, out: &mut [f32]) {
        debug_assert_eq!(b.len(), self.cols * n);
        debug_assert_eq!(out.len(), self.rows * n);
        if self.rows == 0 || n == 0 {
            return;
        }
        let k = self.cols;
        let work = self.nnz().saturating_mul(n);
        parallel::for_each_row_chunk(out, n, self.rows, work, |first_row, c| {
            for (local_i, crow) in c.chunks_mut(n).enumerate() {
                let i = first_row + local_i;
                let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
                let (irow, vrow) = (&self.idx[lo..hi], &self.val[lo..hi]);
                for (j, cv) in crow.iter_mut().enumerate() {
                    let brow = &b[j * k..(j + 1) * k];
                    let mut acc = 0.0;
                    if self.binary {
                        for &p in irow {
                            acc += brow[p as usize];
                        }
                    } else {
                        for (&p, &av) in irow.iter().zip(vrow) {
                            acc += av * brow[p as usize];
                        }
                    }
                    *cv = acc;
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Tensor, TensorRng};

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Random operand of the given kind: binary spikes, ternary (±1), or
    /// fully dense floats.
    fn operand(dims: &[usize], kind: &str, density: f32, rng: &mut TensorRng) -> Tensor {
        let mut t = Tensor::zeros(dims);
        for v in t.data_mut().iter_mut() {
            match kind {
                "binary" => {
                    if rng.bernoulli(density) {
                        *v = 1.0;
                    }
                }
                "ternary" => {
                    if rng.bernoulli(density) {
                        *v = if rng.bernoulli(0.5) { 1.0 } else { -1.0 };
                    }
                }
                _ => *v = rng.uniform(-1.0, 1.0),
            }
        }
        t
    }

    #[test]
    fn build_from_dense_lists_active_entries_in_order() {
        let a = Tensor::from_vec(vec![0.0, 2.0, 0.0, 1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let mut sm = SpikeMatrix::new();
        sm.build_from_dense(a.data(), 2, 3).unwrap();
        assert_eq!(sm.rows(), 2);
        assert_eq!(sm.cols(), 3);
        assert_eq!(sm.nnz(), 3);
        assert!(!sm.is_binary()); // the 2.0 breaks binarity
        assert_eq!(sm.row_ptr, vec![0, 1, 3]);
        assert_eq!(sm.idx, vec![1, 0, 2]);
        assert_eq!(sm.val, vec![2.0, 1.0, 1.0]);
        sm.build_from_dense(&[1.0, 0.0, 0.0, 1.0], 2, 2).unwrap();
        assert!(sm.is_binary());
        assert!(sm.build_from_dense(&[1.0], 2, 3).is_err());
    }

    #[test]
    fn threshold_override_roundtrip() {
        // NaN falls back to the default; out-of-range values clamp.
        assert_eq!(clamp_threshold(f32::NAN), DEFAULT_DENSITY_THRESHOLD);
        assert_eq!(clamp_threshold(5.0), 1.0);
        assert_eq!(clamp_threshold(-5.0), -1.0);
        with_density_threshold(0.5, || {
            assert_eq!(density_threshold(), 0.5);
            // nested override shadows and restores
            with_density_threshold(-1.0, || assert_eq!(density_threshold(), -1.0));
            assert_eq!(density_threshold(), 0.5);
        });
    }

    #[test]
    fn malformed_thresholds_are_rejected_by_the_parser() {
        // density_threshold() reads the env exactly once per process, so the
        // malformed-input behavior is pinned at the parser seam: `None`
        // means "warn and fall back to DEFAULT_DENSITY_THRESHOLD".
        for bad in ["abc", "", "  ", "0.1.2", "25%", "0,25", "half"] {
            assert_eq!(parse_threshold(bad), None, "{bad:?} must be rejected");
        }
        assert_eq!(parse_threshold("0.5"), Some(0.5));
        assert_eq!(parse_threshold("  -1 "), Some(-1.0));
        // NaN parses but clamps back to the default downstream
        assert_eq!(parse_threshold("NaN").map(clamp_threshold), Some(DEFAULT_DENSITY_THRESHOLD));
    }

    #[test]
    fn sparse_dense_matmul_bitwise_identical() {
        let mut rng = TensorRng::seed_from(71);
        for kind in ["binary", "ternary", "dense"] {
            let a = operand(&[33, 40], kind, 0.15, &mut rng);
            let b = Tensor::randn(&[40, 21], 0.0, 1.0, &mut rng);
            for threads in [1, 4] {
                parallel::with_threads(threads, || {
                    let dense = with_density_threshold(-1.0, || a.matmul(&b).unwrap());
                    let sparse = with_density_threshold(1.0, || a.matmul(&b).unwrap());
                    assert_eq!(bits(&dense), bits(&sparse), "{kind} threads={threads}");
                });
            }
        }
    }

    #[test]
    fn sparse_dense_matmul_tn_bitwise_identical() {
        let mut rng = TensorRng::seed_from(72);
        for kind in ["binary", "ternary", "dense"] {
            let a = operand(&[40, 33], kind, 0.15, &mut rng); // read as [k, m]
            let b = Tensor::randn(&[40, 21], 0.0, 1.0, &mut rng);
            for threads in [1, 4] {
                parallel::with_threads(threads, || {
                    let dense = with_density_threshold(-1.0, || a.matmul_tn(&b).unwrap());
                    let sparse = with_density_threshold(1.0, || a.matmul_tn(&b).unwrap());
                    assert_eq!(bits(&dense), bits(&sparse), "{kind} threads={threads}");
                });
            }
        }
    }

    #[test]
    fn sparse_dense_matmul_nt_bitwise_identical() {
        let mut rng = TensorRng::seed_from(73);
        for kind in ["binary", "ternary", "dense"] {
            let a = operand(&[33, 40], kind, 0.15, &mut rng);
            let b = Tensor::randn(&[21, 40], 0.0, 1.0, &mut rng); // read as [n, k]
            for threads in [1, 4] {
                parallel::with_threads(threads, || {
                    let dense = with_density_threshold(-1.0, || a.matmul_nt(&b).unwrap());
                    let sparse = with_density_threshold(1.0, || a.matmul_nt(&b).unwrap());
                    assert_eq!(bits(&dense), bits(&sparse), "{kind} threads={threads}");
                });
            }
        }
    }

    #[test]
    fn sparse_dense_transposed_build_matches_explicit_transpose() {
        let mut rng = TensorRng::seed_from(74);
        let a = operand(&[12, 9], "ternary", 0.3, &mut rng); // [k, m]
        let mut tn = SpikeMatrix::new();
        tn.build_transposed_from_dense(a.data(), 12, 9).unwrap();
        let at = a.transpose2d().unwrap();
        let mut explicit = SpikeMatrix::new();
        explicit.build_from_dense(at.data(), 9, 12).unwrap();
        assert_eq!(tn.row_ptr, explicit.row_ptr);
        assert_eq!(tn.idx, explicit.idx);
        assert_eq!(tn.val, explicit.val);
        assert_eq!(tn.is_binary(), explicit.is_binary());
    }

    #[test]
    fn clear_retains_capacity() {
        let mut sm = SpikeMatrix::new();
        sm.build_from_dense(&[1.0, 0.0, 1.0, 1.0], 2, 2).unwrap();
        let cap = (sm.idx.capacity(), sm.row_ptr.capacity());
        sm.clear();
        assert_eq!(sm.nnz(), 0);
        assert!(sm.idx.capacity() >= cap.0 && sm.row_ptr.capacity() >= cap.1);
    }
}
