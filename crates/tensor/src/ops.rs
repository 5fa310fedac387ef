//! Softmax-family kernels used by the classifier head and the entropy-based
//! exit policy.

use crate::{Result, Tensor, TensorError};

/// Row-wise numerically-stable softmax of an `[m, n]` matrix.
///
/// Each row of the result sums to 1 (Eq. 6 of the paper).
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrices and
/// [`TensorError::InvalidArgument`] for zero-width rows.
///
/// # Example
///
/// ```
/// use dtsnn_tensor::{softmax_rows, Tensor};
/// # fn main() -> Result<(), dtsnn_tensor::TensorError> {
/// let logits = Tensor::from_vec(vec![0.0, 0.0, 1000.0, 1000.0], &[2, 2])?;
/// let p = softmax_rows(&logits)?;
/// assert!((p.data()[0] - 0.5).abs() < 1e-6);
/// assert!(p.data().iter().all(|v| v.is_finite()));
/// # Ok(())
/// # }
/// ```
pub fn softmax_rows(logits: &Tensor) -> Result<Tensor> {
    let (_, n) = mat_dims(logits)?;
    let mut out = logits.clone();
    out.data_mut().chunks_exact_mut(n).for_each(softmax_in_place);
    Ok(out)
}

/// Numerically-stable softmax of one row of logits, in place — the row
/// kernel of [`softmax_rows`], for callers that keep their rows in a
/// preallocated buffer (the exit-decision window scores one row per sample
/// per timestep). An empty row is left as it is.
pub fn softmax_in_place(row: &mut [f32]) {
    let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut z = 0.0;
    for v in row.iter_mut() {
        *v = (*v - mx).exp();
        z += *v;
    }
    for v in row.iter_mut() {
        *v /= z;
    }
}

/// Row-wise log-softmax of an `[m, n]` matrix (stable: shifts by the row max
/// and subtracts `log Σ exp`).
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrices and
/// [`TensorError::InvalidArgument`] for zero-width rows.
pub fn log_softmax_rows(logits: &Tensor) -> Result<Tensor> {
    let (m, n) = mat_dims(logits)?;
    let mut out = logits.clone();
    let d = out.data_mut();
    for i in 0..m {
        let row = &mut d[i * n..(i + 1) * n];
        let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let logz = row.iter().map(|v| (*v - mx).exp()).sum::<f32>().ln() + mx;
        for v in row.iter_mut() {
            *v -= logz;
        }
    }
    Ok(out)
}

fn mat_dims(t: &Tensor) -> Result<(usize, usize)> {
    if t.shape().rank() != 2 {
        return Err(TensorError::RankMismatch { expected: 2, actual: t.shape().rank() });
    }
    let (m, n) = (t.dims()[0], t.dims()[1]);
    if n == 0 {
        return Err(TensorError::InvalidArgument("softmax over zero classes".into()));
    }
    Ok((m, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TensorRng;

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut rng = TensorRng::seed_from(1);
        let x = Tensor::randn(&[5, 7], 0.0, 3.0, &mut rng);
        let p = softmax_rows(&x).unwrap();
        for i in 0..5 {
            let s: f32 = p.data()[i * 7..(i + 1) * 7].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let x = Tensor::from_vec(vec![1e4, 1e4 + 1.0], &[1, 2]).unwrap();
        let p = softmax_rows(&x).unwrap();
        assert!(p.data().iter().all(|v| v.is_finite()));
        assert!(p.data()[1] > p.data()[0]);
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let mut rng = TensorRng::seed_from(2);
        let x = Tensor::randn(&[3, 4], 0.0, 2.0, &mut rng);
        let p = softmax_rows(&x).unwrap();
        let lp = log_softmax_rows(&x).unwrap();
        for (a, b) in p.data().iter().zip(lp.data()) {
            assert!((a.ln() - b).abs() < 1e-5);
        }
    }

    #[test]
    fn uniform_logits_give_uniform_probs() {
        let x = Tensor::zeros(&[1, 10]);
        let p = softmax_rows(&x).unwrap();
        for &v in p.data() {
            assert!((v - 0.1).abs() < 1e-6);
        }
    }

    #[test]
    fn rank_validation() {
        let v = Tensor::zeros(&[3]);
        assert!(softmax_rows(&v).is_err());
        assert!(log_softmax_rows(&v).is_err());
    }
}
