use crate::{AlignedVec, Result, Shape, TensorError, TensorRng};

/// An owned, contiguous, row-major `f32` tensor.
///
/// [`Tensor`] is the single data container used by every crate in the
/// workspace: images are `NCHW`, weight matrices are `[rows, cols]`, spike
/// trains are `NCHW` per timestep. The buffer is an [`AlignedVec`], so the
/// data always starts on a 64-byte (cache-line) boundary for the SIMD
/// kernel tier.
///
/// # Example
///
/// ```
/// use dtsnn_tensor::Tensor;
///
/// # fn main() -> Result<(), dtsnn_tensor::TensorError> {
/// let x = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3])?;
/// let y = x.map(f32::abs);
/// assert_eq!(y.data(), &[1.0, 2.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: AlignedVec,
}

impl Tensor {
    // ---------------------------------------------------------------- ctors

    /// Creates a tensor from raw data and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `data.len()` disagrees
    /// with the shape's element count.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        Tensor::from_aligned(AlignedVec::from(data), dims)
    }

    /// Creates a tensor from an already-aligned buffer and a shape — the
    /// move-not-copy path the [`crate::Workspace`] arena uses to turn a
    /// recycled buffer back into a tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `data.len()` disagrees
    /// with the shape's element count.
    pub fn from_aligned(data: AlignedVec, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.len() {
            return Err(TensorError::LengthMismatch { expected: shape.len(), actual: data.len() });
        }
        Ok(Tensor { shape, data })
    }

    /// All-zeros tensor of the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let n = shape.len();
        Tensor { shape, data: AlignedVec::zeroed(n) }
    }

    /// All-ones tensor of the given shape.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Constant-filled tensor.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.len();
        let mut data = AlignedVec::with_capacity(n);
        data.resize(n, value);
        Tensor { shape, data }
    }

    /// Square identity matrix of extent `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// I.i.d. normal-sampled tensor.
    pub fn randn(dims: &[usize], mean: f32, std: f32, rng: &mut TensorRng) -> Self {
        let mut t = Tensor::zeros(dims);
        rng.fill_normal(&mut t.data, mean, std);
        t
    }

    /// Kaiming/He normal initialization for a weight tensor whose fan-in is
    /// `fan_in` (used for conv and linear weights feeding spiking neurons).
    pub fn kaiming(dims: &[usize], fan_in: usize, rng: &mut TensorRng) -> Self {
        let std = (2.0 / fan_in.max(1) as f32).sqrt();
        Tensor::randn(dims, 0.0, std, rng)
    }

    // ------------------------------------------------------------- accessors

    /// Shape of the tensor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Extents as a slice, e.g. `[n, c, h, w]`.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its aligned buffer without copying —
    /// the counterpart of [`Tensor::from_aligned`] for arena recycling.
    pub fn into_aligned(self) -> AlignedVec {
        self.data
    }

    /// Element at a multi-index.
    ///
    /// # Errors
    ///
    /// Propagates index errors from [`Shape::offset`].
    pub fn at(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Sets the element at a multi-index.
    ///
    /// # Errors
    ///
    /// Propagates index errors from [`Shape::offset`].
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    // --------------------------------------------------------------- shape ops

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor> {
        let shape = Shape::new(dims);
        if shape.len() != self.len() {
            return Err(TensorError::LengthMismatch { expected: shape.len(), actual: self.len() });
        }
        Ok(Tensor { shape, data: self.data.clone() })
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn transpose2d(&self) -> Result<Tensor> {
        if self.shape.rank() != 2 {
            return Err(TensorError::RankMismatch { expected: 2, actual: self.shape.rank() });
        }
        let (r, c) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = Tensor::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        Ok(out)
    }

    /// Extracts row `i` of a rank-2 tensor as a rank-1 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices and
    /// [`TensorError::InvalidArgument`] for out-of-range rows.
    pub fn row(&self, i: usize) -> Result<Tensor> {
        if self.shape.rank() != 2 {
            return Err(TensorError::RankMismatch { expected: 2, actual: self.shape.rank() });
        }
        let (r, c) = (self.shape.dim(0), self.shape.dim(1));
        if i >= r {
            return Err(TensorError::InvalidArgument(format!("row {i} out of range ({r} rows)")));
        }
        Ok(Tensor {
            shape: Shape::new(&[c]),
            data: AlignedVec::from_slice(&self.data[i * c..(i + 1) * c]),
        })
    }

    /// Concatenates rank-equal tensors along axis 0.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for an empty list and
    /// [`TensorError::ShapeMismatch`] when trailing dims differ.
    pub fn concat_axis0(parts: &[&Tensor]) -> Result<Tensor> {
        let first = parts
            .first()
            .ok_or_else(|| TensorError::InvalidArgument("concat of empty list".into()))?;
        let tail = &first.dims()[1..];
        let mut rows = 0;
        for p in parts {
            if &p.dims()[1..] != tail {
                return Err(TensorError::ShapeMismatch {
                    expected: first.dims().to_vec(),
                    actual: p.dims().to_vec(),
                });
            }
            rows += p.dims()[0];
        }
        let mut dims = vec![rows];
        dims.extend_from_slice(tail);
        let mut data = AlignedVec::with_capacity(Shape::new(&dims).len());
        for p in parts {
            data.extend_from_slice(p.data());
        }
        Tensor::from_aligned(data, &dims)
    }

    /// Gathers the given axis-0 rows into a new tensor (`out[k] = self[rows[k]]`).
    ///
    /// Indices may repeat and appear in any order; the output shape is
    /// `[rows.len(), tail…]`. This is the batch-compaction primitive: the
    /// batched dynamic-evaluation harness uses it to drop exited samples from
    /// input frames and carried layer state between timesteps.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for rank-0 tensors and
    /// [`TensorError::InvalidArgument`] for an out-of-range index.
    pub fn select_rows(&self, rows: &[usize]) -> Result<Tensor> {
        if self.shape.rank() == 0 {
            return Err(TensorError::RankMismatch { expected: 1, actual: 0 });
        }
        let n = self.shape.dim(0);
        let stride: usize = self.dims()[1..].iter().product();
        let mut data = AlignedVec::with_capacity(rows.len() * stride);
        for &r in rows {
            if r >= n {
                return Err(TensorError::InvalidArgument(format!(
                    "select_rows index {r} out of range ({n} rows)"
                )));
            }
            data.extend_from_slice(&self.data[r * stride..(r + 1) * stride]);
        }
        let mut dims = vec![rows.len()];
        dims.extend_from_slice(&self.dims()[1..]);
        Tensor::from_aligned(data, &dims)
    }

    // ---------------------------------------------------------- elementwise

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { shape: self.shape.clone(), data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Applies `f` in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.data.iter_mut() {
            *v = f(*v);
        }
    }

    /// Elementwise combination of two same-shape tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        self.shape.expect_eq(&other.shape)?;
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect(),
        })
    }

    /// Elementwise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise difference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, |a, b| a * b)
    }

    /// In-place `self += alpha * other` (the hot path of SGD updates).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        self.shape.expect_eq(&other.shape)?;
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Adds `s` to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|x| x + s)
    }

    // ----------------------------------------------------------- reductions

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (`-inf` for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (`+inf` for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Fraction of nonzero elements — spike density for binary spike tensors.
    pub fn density(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().filter(|&&x| x != 0.0).count() as f32 / self.data.len() as f32
    }

    /// Fraction of nonzero elements in each axis-0 row.
    ///
    /// Entry `k` is bitwise identical to `self.select_rows(&[k]).density()`,
    /// and for a rank-≥1 tensor the whole-tensor [`Tensor::density`] equals
    /// `total_count / len` over the same integer counts — the property the
    /// batched evaluation harness relies on to account spike activity per
    /// sample. Returns one entry per row (empty for rank-0 tensors).
    pub fn density_rows(&self) -> Vec<f32> {
        if self.shape.rank() == 0 || self.data.is_empty() {
            return Vec::new();
        }
        let stride = self.data.len() / self.shape.dim(0);
        self.data
            .chunks(stride)
            .map(|row| row.iter().filter(|&&x| x != 0.0).count() as f32 / stride as f32)
            .collect()
    }

    /// Index of the maximum element of a rank-1 tensor (ties → first).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-vectors and
    /// [`TensorError::InvalidArgument`] for empty vectors.
    pub fn argmax(&self) -> Result<usize> {
        if self.shape.rank() != 1 {
            return Err(TensorError::RankMismatch { expected: 1, actual: self.shape.rank() });
        }
        if self.data.is_empty() {
            return Err(TensorError::InvalidArgument("argmax of empty vector".into()));
        }
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        Ok(best)
    }

    /// Row-wise argmax of a rank-2 tensor (ties → first).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn argmax_rows(&self) -> Result<Vec<usize>> {
        if self.shape.rank() != 2 {
            return Err(TensorError::RankMismatch { expected: 2, actual: self.shape.rank() });
        }
        let (r, c) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = Vec::with_capacity(r);
        for i in 0..r {
            let row = &self.data[i * c..(i + 1) * c];
            let mut best = 0;
            for (j, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = j;
                }
            }
            out.push(best);
        }
        Ok(out)
    }

    /// Squared L2 norm of the buffer.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{} n={}", self.shape, self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    fn eye_has_unit_diagonal() {
        let e = Tensor::eye(3);
        assert_eq!(e.at(&[0, 0]).unwrap(), 1.0);
        assert_eq!(e.at(&[1, 2]).unwrap(), 0.0);
        assert_eq!(e.sum(), 3.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let r = t.reshape(&[4]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[5]).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let tt = t.transpose2d().unwrap().transpose2d().unwrap();
        assert_eq!(t, tt);
        assert_eq!(t.transpose2d().unwrap().at(&[2, 1]).unwrap(), t.at(&[1, 2]).unwrap());
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[4.0, 6.0]);
        assert_eq!(a.sub(&b).unwrap().data(), &[-2.0, -2.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[3.0, 8.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
        let c = Tensor::zeros(&[3]);
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::ones(&[3]);
        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        a.axpy(-0.5, &g).unwrap();
        assert_eq!(a.data(), &[0.5, 0.0, -0.5]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![-1.0, 0.0, 3.0, 2.0], &[4]).unwrap();
        assert_eq!(t.sum(), 4.0);
        assert_eq!(t.mean(), 1.0);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -1.0);
        assert_eq!(t.density(), 0.75);
        assert_eq!(t.argmax().unwrap(), 2);
    }

    #[test]
    fn argmax_rows_ties_pick_first() {
        let t = Tensor::from_vec(vec![1.0, 1.0, 0.0, 0.0, 2.0, 2.0], &[2, 3]).unwrap();
        assert_eq!(t.argmax_rows().unwrap(), vec![0, 1]);
    }

    #[test]
    fn concat_axis0_stacks_batches() {
        let a = Tensor::ones(&[2, 3]);
        let b = Tensor::zeros(&[1, 3]);
        let c = Tensor::concat_axis0(&[&a, &b]).unwrap();
        assert_eq!(c.dims(), &[3, 3]);
        assert_eq!(c.sum(), 6.0);
        let bad = Tensor::zeros(&[1, 4]);
        assert!(Tensor::concat_axis0(&[&a, &bad]).is_err());
    }

    #[test]
    fn select_rows_gathers_in_index_order() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 2, 2]).unwrap();
        let g = t.select_rows(&[2, 0]).unwrap();
        assert_eq!(g.dims(), &[2, 2, 2]);
        assert_eq!(g.data(), &[8.0, 9.0, 10.0, 11.0, 0.0, 1.0, 2.0, 3.0]);
        // repeats are allowed; the empty gather yields an empty batch
        assert_eq!(
            t.select_rows(&[1, 1]).unwrap().data(),
            &[4.0, 5.0, 6.0, 7.0, 4.0, 5.0, 6.0, 7.0]
        );
        assert_eq!(t.select_rows(&[]).unwrap().dims(), &[0, 2, 2]);
        assert!(t.select_rows(&[3]).is_err());
    }

    #[test]
    fn density_rows_matches_per_row_density() {
        let t = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 0.5, 2.0], &[3, 2]).unwrap();
        let rows = t.density_rows();
        assert_eq!(rows, vec![0.5, 0.0, 1.0]);
        for (k, &d) in rows.iter().enumerate() {
            assert_eq!(d, t.select_rows(&[k]).unwrap().density());
        }
        // whole-tensor density is the count-weighted mean of the row counts
        assert_eq!(t.density(), 3.0 / 6.0);
    }

    #[test]
    fn row_extraction() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert_eq!(t.row(1).unwrap().data(), &[3.0, 4.0]);
        assert!(t.row(2).is_err());
    }

    #[test]
    fn kaiming_scale_tracks_fan_in() {
        let mut rng = TensorRng::seed_from(0);
        let w = Tensor::kaiming(&[1000], 50, &mut rng);
        let std = (w.norm_sq() / 1000.0).sqrt();
        let expect = (2.0f32 / 50.0).sqrt();
        assert!((std - expect).abs() / expect < 0.15, "std={std} expect={expect}");
    }
}
