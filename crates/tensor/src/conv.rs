//! 2-D convolution (`NCHW`, weights `[c_out, c_in*k*k]`): a direct
//! spike-scatter forward kernel, two direct backward kernels, and the
//! im2col + matmul references all three are pinned against.
//!
//! **Forward** ([`conv2d_ws`], [`ConvPlan::forward`]) never materialises an
//! unfolding. It walks each sample's input in `(ci, iy, ix)` raster order —
//! one packed nonzero word per 64 elements of an input row keeps the scan
//! branch-light — and adds `x` times the packed `c_out`-wide weight row of
//! tap `(ci, ky, kx)` into the at most `k*k` rows of the sample's
//! `[oh*ow, c_out]` output tile that `x` touches (at stride 1 the taps along
//! x fuse into one longer row-add, and the rows of successive `ky` are a
//! constant step apart); one epilogue pass then adds the bias while it
//! reorders tile -> NCHW. The per-sample scatter is one safe function
//! compiled once per SIMD tier ([`crate::simd`], "Dispatch granularity"),
//! its row-adds plain loops. For a fixed output pixel, ascending input
//! `(ci, iy, ix)` *is* ascending patch index `(ci, ky, kx)`, so every output
//! element accumulates the terms of [`conv2d`]'s im2col row times the
//! transposed weights in the same order (zero taps skipped, explicit
//! multiply-then-add): **bitwise identical** (the sign/payload of a NaN made
//! from two NaNs aside). Input rows and columns that feed no output (a
//! kernel narrower than its stride) are never scanned.
//!
//! **Backward** ([`conv2d_backward`]) never materialises one either. The
//! weight gradient is the forward's scan with the roles swapped: each
//! nonzero `x` adds `x` times the gradient row of every output pixel it
//! feeds into the packed row of the tap it feeds it through. For a fixed
//! tap, ascending input `(n, iy, ix)` *is* ascending output `(n, oy, ox)`,
//! so each weight-gradient element sums the im2col column times the
//! gradient rows in [`Tensor::matmul_tn`]'s order. The input gradient builds
//! each output pixel's `c_in*k*k`-wide row `grad × W` (ascending `c_out`, as
//! [`Tensor::matmul`]) in a one-row scratch and folds it straight into the
//! input gradient in [`col2im`]'s order. Both are **bitwise identical** to
//! [`conv2d_backward_im2col`].
//!
//! **Reference**: [`im2col`] has one row per output pixel and one column per
//! tap, so [`conv2d`] is one matrix product, [`conv2d_backward_im2col`] two.
//!
//! Every pass is partitioned across the [`crate::parallel`] pool so that one
//! output element's accumulation stays on one worker in serial order
//! (`im2col` by output row, the weight gradient by input channel, the rest
//! by sample): thread-count-invariant bits.

use crate::quant::QuantizedWeights;
use crate::{parallel, simd, AlignedVec, Result, Tensor, TensorError, Workspace};

/// Geometry of a 2-D convolution (square kernel, symmetric padding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dSpec {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Kernel extent (k×k).
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on every border.
    pub padding: usize,
}

impl Conv2dSpec {
    /// Creates a spec, validating the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if any extent is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Result<Self> {
        if in_channels == 0 || out_channels == 0 || kernel == 0 || stride == 0 {
            return Err(TensorError::InvalidArgument(
                "conv2d channels, kernel and stride must be nonzero".into(),
            ));
        }
        Ok(Conv2dSpec { in_channels, out_channels, kernel, stride, padding })
    }

    /// Output spatial extent for an input of extent `(h, w)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if the kernel exceeds the
    /// padded input.
    pub fn output_hw(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        let ph = h + 2 * self.padding;
        let pw = w + 2 * self.padding;
        if self.kernel > ph || self.kernel > pw {
            return Err(TensorError::InvalidGeometry(format!(
                "kernel {} exceeds padded input {}x{}",
                self.kernel, ph, pw
            )));
        }
        Ok(((ph - self.kernel) / self.stride + 1, (pw - self.kernel) / self.stride + 1))
    }

    /// Number of columns of the im2col matrix: `c_in * k * k`.
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Weight tensor shape `[c_out, c_in * k * k]`.
    pub fn weight_dims(&self) -> [usize; 2] {
        [self.out_channels, self.patch_len()]
    }

    /// Multiply-accumulate count for one input of extent `(h, w)` — used by
    /// the IMC latency/energy model.
    ///
    /// # Errors
    ///
    /// Propagates geometry errors from [`Conv2dSpec::output_hw`].
    pub fn macs(&self, h: usize, w: usize) -> Result<usize> {
        let (oh, ow) = self.output_hw(h, w)?;
        Ok(oh * ow * self.out_channels * self.patch_len())
    }
}

/// Unfolds `input` (`[n, c, h, w]`) into a `[n*oh*ow, c*k*k]` column matrix.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-4-D input,
/// [`TensorError::ShapeMismatch`] when channel counts disagree, and geometry
/// errors from [`Conv2dSpec::output_hw`].
pub fn im2col(input: &Tensor, spec: &Conv2dSpec) -> Result<Tensor> {
    let [n, c, h, w] = dims4(input)?;
    expect_dims(input.dims(), &[n, spec.in_channels, h, w])?;
    let (oh, ow) = spec.output_hw(h, w)?;
    let (k, pl, rows) = (spec.kernel, spec.patch_len(), n * oh * ow);
    let mut cols = Tensor::zeros(&[rows, pl]);
    if rows == 0 {
        return Ok(cols);
    }
    let src = input.data();
    let pad = spec.padding as isize;
    let work = rows.saturating_mul(pl);
    parallel::for_each_row_chunk(cols.data_mut(), pl, rows, work, |first_row, dst| {
        for (local, patch) in dst.chunks_mut(pl).enumerate() {
            let flat = first_row + local;
            let ox = flat % ow;
            let oy = (flat / ow) % oh;
            let ni = flat / (ow * oh);
            let iy0 = (oy * spec.stride) as isize - pad;
            let ix0 = (ox * spec.stride) as isize - pad;
            for ci in 0..c {
                let cbase = (ni * c + ci) * h * w;
                for ky in 0..k {
                    let iy = iy0 + ky as isize;
                    if iy < 0 || iy >= h as isize {
                        continue; // padding stays zero
                    }
                    let srow = cbase + iy as usize * w;
                    let drow = (ci * k + ky) * k;
                    for kx in 0..k {
                        let ix = ix0 + kx as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        patch[drow + kx] = src[srow + ix as usize];
                    }
                }
            }
        }
    });
    Ok(cols)
}

/// Folds a column-matrix gradient back onto the input: the adjoint of
/// [`im2col`]. `cols` is `[n*oh*ow, c*k*k]`; the result is `[n, c, h, w]`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `cols` disagrees with the
/// geometry, plus geometry errors from [`Conv2dSpec::output_hw`].
pub fn col2im(cols: &Tensor, spec: &Conv2dSpec, n: usize, h: usize, w: usize) -> Result<Tensor> {
    let (oh, ow) = spec.output_hw(h, w)?;
    let k = spec.kernel;
    let c = spec.in_channels;
    let pl = spec.patch_len();
    expect_dims(cols.dims(), &[n * oh * ow, pl])?;
    let mut out = Tensor::zeros(&[n, c, h, w]);
    let sample_len = c * h * w;
    if n == 0 || sample_len == 0 {
        return Ok(out);
    }
    let src = cols.data();
    let pad = spec.padding as isize;
    // Partition by batch index: every += for sample ni lands in that sample's
    // chunk, in the same (oy, ox, ci, ky, kx) order as the serial loop.
    let work = n.saturating_mul(oh * ow).saturating_mul(pl);
    parallel::for_each_row_chunk(out.data_mut(), sample_len, n, work, |first_n, dst| {
        for (local_ni, sample) in dst.chunks_mut(sample_len).enumerate() {
            let ni = first_n + local_ni;
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = ((ni * oh + oy) * ow + ox) * pl;
                    let iy0 = (oy * spec.stride) as isize - pad;
                    let ix0 = (ox * spec.stride) as isize - pad;
                    for ci in 0..c {
                        let cbase = ci * h * w;
                        for ky in 0..k {
                            let iy = iy0 + ky as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            let drow = cbase + iy as usize * w;
                            let srow = row + (ci * k + ky) * k;
                            for kx in 0..k {
                                let ix = ix0 + kx as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                sample[drow + ix as usize] += src[srow + kx];
                            }
                        }
                    }
                }
            }
        }
    });
    Ok(out)
}

/// Full convolution forward pass through the unfolding: the reference the
/// direct kernel is pinned against.
///
/// `input` is `[n, c_in, h, w]`, `weight` is `[c_out, c_in*k*k]`, `bias` is
/// `[c_out]` (optional). Returns the output `[n, c_out, oh, ow]`.
///
/// # Errors
///
/// Propagates shape and geometry errors from [`im2col`] / matmul.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: &Conv2dSpec,
) -> Result<Tensor> {
    let [n, _, h, w] = dims4(input)?;
    let (oh, ow) = spec.output_hw(h, w)?;
    let cols = im2col(input, spec)?;
    // [n*oh*ow, pl] × [pl, c_out] → [n*oh*ow, c_out]. Plain matmul with the
    // column matrix on the left skips the zeros of a spike input.
    let w_t = weight.transpose2d()?;
    let out_mat = cols.matmul(&w_t)?;
    if let Some(b) = bias {
        expect_dims(b.dims(), &[spec.out_channels])?;
    }
    let mut out = Tensor::zeros(&[n, spec.out_channels, oh, ow]);
    rows_to_nchw(out_mat.data(), bias, [n, spec.out_channels, oh, ow], out.data_mut());
    Ok(out)
}

/// Input-side checks shared by the workspace forwards: rank and channel
/// count of `input`, dims of `bias`. Returns `[n, c, h, w]` and the output
/// extent.
fn check_input(
    input: &Tensor,
    bias: Option<&Tensor>,
    spec: &Conv2dSpec,
) -> Result<([usize; 4], (usize, usize))> {
    let [n, c, h, w] = dims4(input)?;
    expect_dims(input.dims(), &[n, spec.in_channels, h, w])?;
    if let Some(b) = bias {
        expect_dims(b.dims(), &[spec.out_channels])?;
    }
    Ok(([n, c, h, w], spec.output_hw(h, w)?))
}

/// A layer's `[c_out, c_in*k*k]` weights packed once for the direct kernel
/// (one `c_out`-wide row per tap), so packing leaves the timestep loop. The
/// owner rebuilds it whenever the weights may change; a clone owns its copy.
#[derive(Debug, Clone)]
pub struct ConvPlan {
    spec: Conv2dSpec,
    w_t: AlignedVec,
}

impl ConvPlan {
    /// Packs `weight` (`[c_out, c_in*k*k]`) for `spec`.
    ///
    /// # Errors
    ///
    /// [`TensorError::ShapeMismatch`] when `weight` disagrees with `spec`.
    pub fn new(weight: &Tensor, spec: &Conv2dSpec) -> Result<Self> {
        expect_dims(weight.dims(), &spec.weight_dims())?;
        let mut w_t = AlignedVec::zeroed(weight.len());
        pack_weights(weight.data(), spec, &mut w_t);
        Ok(ConvPlan { spec: *spec, w_t })
    }

    /// Forward over the packed weights, bitwise identical to [`conv2d`];
    /// scratch and output come from `ws`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`conv2d_ws`].
    pub fn forward(
        &self,
        input: &Tensor,
        bias: Option<&Tensor>,
        ws: &mut Workspace,
    ) -> Result<Tensor> {
        scatter_forward(input, &self.w_t, bias, &self.spec, ws)
    }
}

/// Convolution forward with every intermediate drawn from `ws`: the direct
/// spike-scatter kernel (see the module docs), bitwise identical to
/// [`conv2d`]. It packs `weight` on every call; a layer that runs the same
/// weights every timestep keeps a [`ConvPlan`] instead.
///
/// # Errors
///
/// [`TensorError::RankMismatch`] for non-4-D input, [`TensorError::ShapeMismatch`]
/// for an input channel count, weight or bias that disagrees with `spec`, and
/// geometry errors from [`Conv2dSpec::output_hw`].
pub fn conv2d_ws(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: &Conv2dSpec,
    ws: &mut Workspace,
) -> Result<Tensor> {
    expect_dims(weight.dims(), &spec.weight_dims())?;
    let mut w_t = ws.take_overwrite(weight.len());
    pack_weights(weight.data(), spec, &mut w_t);
    let out = scatter_forward(input, &w_t, bias, spec, ws);
    ws.recycle(w_t);
    out
}

/// The direct kernel over [`pack_weights`] output: scatter into one zeroed `[oh*ow, co]`
/// tile per sample (sharded by sample, as [`col2im`] is), then the epilogue pass.
fn scatter_forward(
    input: &Tensor,
    w_t: &[f32],
    bias: Option<&Tensor>,
    spec: &Conv2dSpec,
    ws: &mut Workspace,
) -> Result<Tensor> {
    let ([n, c, h, w], (oh, ow)) = check_input(input, bias, spec)?;
    let co = spec.out_channels;
    let (sample_len, tile_len) = (c * h * w, oh * ow * co);
    let mut tiles = ws.take(n * tile_len);
    if n * tile_len > 0 {
        let src = input.data();
        let work = (n * tile_len).saturating_mul(spec.patch_len());
        parallel::for_each_row_chunk(&mut tiles, tile_len, n, work, |first_n, chunk| {
            for (local_ni, tile) in chunk.chunks_mut(tile_len).enumerate() {
                let sample = &src[(first_n + local_ni) * sample_len..][..sample_len];
                simd::conv_scatter_sample(sample, [c, h, w], (oh, ow), w_t, *spec, tile);
            }
        });
    }
    tiles_into_nchw(tiles, bias, [n, co, oh, ow], ws)
}

/// The epilogue over arena buffers: [`rows_to_nchw`] into a buffer that is not cleared first
/// (every element is written). Recycles `tiles`.
fn tiles_into_nchw(
    tiles: AlignedVec,
    bias: Option<&Tensor>,
    dims: [usize; 4],
    ws: &mut Workspace,
) -> Result<Tensor> {
    let mut out = ws.take_overwrite(tiles.len());
    rows_to_nchw(&tiles, bias, dims, &mut out);
    ws.recycle(tiles);
    Tensor::from_aligned(out, &dims)
}

/// `[n*oh*ow, c]` row matrix → `[n, c, oh, ow]` in one pass that also adds the per-channel
/// bias (after the last term of the row matrix); writes every element of `dst` exactly once.
fn rows_to_nchw(src: &[f32], bias: Option<&Tensor>, [n, c, oh, ow]: [usize; 4], dst: &mut [f32]) {
    let (plane, sample_len) = (oh * ow, c * oh * ow);
    if n == 0 || sample_len == 0 {
        return;
    }
    let bias = bias.map(Tensor::data);
    parallel::for_each_row_chunk(dst, sample_len, n, n * sample_len, |first_n, dst| {
        for (local_ni, sample) in dst.chunks_mut(sample_len).enumerate() {
            let rows = &src[(first_n + local_ni) * sample_len..][..sample_len];
            for (p, row) in rows.chunks_exact(c).enumerate() {
                match bias {
                    Some(b) => {
                        for (ci, (&v, &bv)) in row.iter().zip(b).enumerate() {
                            sample[ci * plane + p] = v + bv;
                        }
                    }
                    None => {
                        for (ci, &v) in row.iter().enumerate() {
                            sample[ci * plane + p] = v;
                        }
                    }
                }
            }
        }
    });
}

/// The outputs along one axis that see input coordinate `i` (`t = i + pad`);
/// output `o` sees it through tap `t - o*stride`.
#[inline(always)]
fn axis_outputs(t: usize, stride: usize, kernel: usize, out: usize) -> std::ops::Range<usize> {
    t.saturating_sub(kernel - 1).div_ceil(stride)..(t / stride + 1).min(out)
}

/// `acc[j] += x * w[j]`: explicit multiply, then add. `1.0 * w == w` exactly, so a
/// spike's plain add is the same sum with the multiply dropped.
#[inline(always)]
fn add_taps(acc: &mut [f32], x: f32, w: &[f32]) {
    if x == 1.0 {
        for (a, &wv) in acc.iter_mut().zip(w) {
            *a += wv;
        }
        return;
    }
    for (a, &wv) in acc.iter_mut().zip(w) {
        *a += x * wv;
    }
}

/// Scatters one sample (`[c, h, w]`) into its zeroed `[oh*ow, co]` tile. Safe
/// code with plain loops, no calls and no closures (a closure body inlines
/// only at LLVM's discretion, and one that does not is compiled for the
/// baseline): [`simd::conv_scatter_sample`] compiles it once per tier, so the
/// row loops vectorize at that tier's width.
#[inline(always)]
pub(crate) fn scatter_sample(
    src: &[f32],
    dims: [usize; 3],
    out_hw: (usize, usize),
    w_t: &[f32],
    spec: Conv2dSpec,
    tile: &mut [f32],
) {
    // one instantiation per stride class: the stride-1 walk needs none of
    // the general one's index arithmetic
    if spec.stride == 1 {
        scatter_strided::<true, false>(src, dims, out_hw, w_t, spec, tile)
    } else {
        scatter_strided::<false, false>(src, dims, out_hw, w_t, spec, tile)
    }
}

/// The weight gradient of the input channels `first_ci..` that `dw` holds
/// (`k*k` packed `co`-wide rows each, the layout of [`pack_weights`]) over
/// every sample of `src` (`[n, c, h, w]`), `gmat` holding each sample's
/// `[oh*ow, co]` output-gradient rows: the forward's scan with the roles of
/// weights and tile swapped. [`simd::conv_weight_grad_chunk`] compiles it
/// once per tier.
#[inline(always)]
pub(crate) fn weight_grad_chunk(
    src: &[f32],
    [n, c, h, w]: [usize; 4],
    (oh, ow): (usize, usize),
    gmat: &[f32],
    spec: Conv2dSpec,
    first_ci: usize,
    dw: &mut [f32],
) {
    let (plane, tile) = (h * w, oh * ow * spec.out_channels);
    let cis = dw.len() / (spec.kernel * spec.kernel * spec.out_channels);
    for ni in 0..n {
        let x = &src[(ni * c + first_ci) * plane..][..cis * plane];
        let g = &gmat[ni * tile..][..tile];
        if spec.stride == 1 {
            scatter_strided::<true, true>(x, [cis, h, w], (oh, ow), g, spec, dw)
        } else {
            scatter_strided::<false, true>(x, [cis, h, w], (oh, ow), g, spec, dw)
        }
    }
}

/// Words of [`live_columns`]' mask; columns past them count as live.
const LIVE_WORDS: usize = 4;

/// One bit per input column (word `ix / 64`, bit `ix % 64`), set unless the
/// column feeds no output. Only a kernel narrower than its stride leaves gaps
/// (column `t = ix + pad` is read through tap `t % stride` of output
/// `t / stride` or not at all), so for `k ≥ stride` the mask is all ones: an
/// unread right-edge remnant there has an empty output range anyway.
#[inline(always)]
fn live_columns(w: usize, pad: usize, stride: usize, k: usize, ow: usize) -> [u64; LIVE_WORDS] {
    if k >= stride {
        return [u64::MAX; LIVE_WORDS];
    }
    let mut live = [0u64; LIVE_WORDS];
    let (mut o, mut tap) = (pad / stride, pad % stride);
    for ix in 0..w.min(64 * LIVE_WORDS) {
        if tap < k && o < ow {
            live[ix / 64] |= 1 << (ix % 64);
        }
        tap += 1;
        if tap == stride {
            (o, tap) = (o + 1, 0);
        }
    }
    live
}

/// The spike scan both directions share: every nonzero input `x` at
/// `(ci, iy, ix)`, in that order, meets each output pixel it feeds through tap
/// `(ci, ky, kx)`. The forward (`WEIGHT_GRAD = false`) adds `x` times the tap's
/// packed weight row (`operand`) into the pixel's `co`-wide row of `acc`, the
/// sample's tile; the weight gradient adds `x` times the pixel's gradient row
/// (`operand`) into the tap's packed row of `acc`. Input rows and columns that
/// feed no output (a kernel narrower than its stride) are never visited.
#[inline(always)]
fn scatter_strided<const UNIT_STRIDE: bool, const WEIGHT_GRAD: bool>(
    src: &[f32],
    [c, h, w]: [usize; 3],
    (oh, ow): (usize, usize),
    operand: &[f32],
    spec: Conv2dSpec,
    acc: &mut [f32],
) {
    let (k, pad, co) = (spec.kernel, spec.padding, spec.out_channels);
    let stride = if UNIT_STRIDE { 1 } else { spec.stride }; // the literal folds the divisions
    // at stride 1 every input row and column feeds an output
    let live =
        if UNIT_STRIDE { [u64::MAX; LIVE_WORDS] } else { live_columns(w, pad, stride, k, ow) };
    for ci in 0..c {
        for iy in 0..h {
            let ty = iy + pad;
            let oys = axis_outputs(ty, stride, k, oh);
            if !UNIT_STRIDE && oys.is_empty() {
                continue;
            }
            let row = &src[(ci * h + iy) * w..][..w];
            // one packed nonzero word per 64 elements keeps the scan branch-light
            for (wi, chunk) in row.chunks(64).enumerate() {
                let mut bits = 0u64;
                for (bit, &v) in chunk.iter().enumerate() {
                    bits |= u64::from(v != 0.0) << bit;
                }
                if !UNIT_STRIDE {
                    bits &= live.get(wi).copied().unwrap_or(u64::MAX);
                }
                while bits != 0 {
                    let ix = wi * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let (x, tx) = (row[ix], ix + pad);
                    let oxs = axis_outputs(tx, stride, k, ow);
                    // tap (ky, kx) sits in packed row (ci*k + ky)*k + k-1-kx
                    if UNIT_STRIDE {
                        // Ascending output columns see x through descending
                        // kx, that is ascending packed rows: one run of len
                        // floats in both the tile and the packed rows, and
                        // the next ky is k packed rows up, one output row down.
                        let len = oxs.len() * co;
                        let mut wo =
                            ((ci * k + ty + 1 - oys.end) * k + k - 1 - (tx - oxs.start)) * co;
                        let mut oo = (oys.end * ow + oxs.start) * co;
                        for _ in oys.clone() {
                            oo -= ow * co;
                            if WEIGHT_GRAD {
                                add_taps(&mut acc[wo..wo + len], x, &operand[oo..oo + len]);
                            } else {
                                add_taps(&mut acc[oo..oo + len], x, &operand[wo..wo + len]);
                            }
                            wo += k * co;
                        }
                    } else {
                        for oy in oys.clone() {
                            let wrow = (ci * k + ty - oy * stride) * k + k - 1;
                            for ox in oxs.clone() {
                                let wo = (wrow - (tx - ox * stride)) * co;
                                let oo = (oy * ow + ox) * co;
                                if WEIGHT_GRAD {
                                    add_taps(&mut acc[wo..][..co], x, &operand[oo..][..co]);
                                } else {
                                    add_taps(&mut acc[oo..][..co], x, &operand[wo..][..co]);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The input gradient of one sample: per output pixel, in raster order, the
/// `pl`-wide row `g[pixel] × W` in `row` (ascending `c_out`, a zero gradient
/// skipped, as [`crate::Tensor::matmul`] sums it), folded straight into `dx`
/// (`[c, h, w]`, zeroed) in [`col2im`]'s `(ci, ky, kx)` order.
/// [`simd::conv_input_grad_sample`] compiles it once per tier.
#[inline(always)]
pub(crate) fn input_grad_sample(
    g: &[f32],
    weight: &[f32],
    [c, h, w]: [usize; 3],
    (oh, ow): (usize, usize),
    spec: Conv2dSpec,
    row: &mut [f32],
    dx: &mut [f32],
) {
    let (k, co, pl) = (spec.kernel, spec.out_channels, spec.patch_len());
    let pad = spec.padding as isize;
    for oy in 0..oh {
        let iy0 = (oy * spec.stride) as isize - pad;
        let kys = clip_taps(iy0, k, h);
        for ox in 0..ow {
            let ix0 = (ox * spec.stride) as isize - pad;
            let kxs = clip_taps(ix0, k, w);
            if kys.is_empty() || kxs.is_empty() {
                continue; // a window wholly inside the padding feeds nothing
            }
            row.fill(0.0);
            for (&gv, wrow) in g[(oy * ow + ox) * co..][..co].iter().zip(weight.chunks_exact(pl)) {
                if gv == 0.0 {
                    continue;
                }
                // explicit multiply, then add: never an FMA
                for (r, &wv) in row.iter_mut().zip(wrow) {
                    *r += gv * wv;
                }
            }
            // the taps inside the input, kx runs contiguous on both sides
            let len = kxs.len();
            for ci in 0..c {
                for ky in kys.clone() {
                    let iy = (iy0 + ky as isize) as usize;
                    let dst =
                        &mut dx[(ci * h + iy) * w + (ix0 + kxs.start as isize) as usize..][..len];
                    let taps = &row[(ci * k + ky) * k + kxs.start..][..len];
                    for (d, &r) in dst.iter_mut().zip(taps) {
                        *d += r;
                    }
                }
            }
        }
    }
}

/// The taps `0..k` of a window starting at input coordinate `i0` that land
/// inside `0..extent`.
#[inline(always)]
fn clip_taps(i0: isize, k: usize, extent: usize) -> std::ops::Range<usize> {
    let lo = (-i0).clamp(0, k as isize) as usize;
    let hi = (extent as isize - i0).clamp(lo as isize, k as isize) as usize;
    lo..hi
}

/// Quantized convolution forward: for a binary input the bit-packed im2col
/// feeds the integer kernel — each output element is an exact `i32` sum of
/// the active weight codes in the filter's **natural** `[c_out, c_in*k*k]`
/// layout (no transpose needed) rescaled once by `Δ` — and a non-binary
/// input falls back to [`conv2d_ws`] over the on-grid dequantized weights.
/// Deterministic and thread-count-invariant on both branches.
///
/// # Errors
///
/// Same conditions as [`conv2d_ws`].
pub fn conv2d_ws_quant(
    input: &Tensor,
    qw: &QuantizedWeights,
    bias: Option<&Tensor>,
    spec: &Conv2dSpec,
    ws: &mut Workspace,
) -> Result<Tensor> {
    if !input.is_binary() {
        return conv2d_ws(input, qw.dequantized(), bias, spec, ws);
    }
    expect_dims(&[qw.rows(), qw.cols()], &spec.weight_dims())?;
    let ([n, ..], (oh, ow)) = check_input(input, bias, spec)?;
    let co = spec.out_channels;
    let rows = n * oh * ow;
    let mut out_mat = ws.take_overwrite(rows * co);
    if rows > 0 {
        let mut bm = ws.take_bits();
        bm.build_from_im2col(input, spec)?;
        qw.matmul_nt_bits_into(&bm, &mut out_mat);
        ws.recycle_bits(bm);
    }
    tiles_into_nchw(out_mat, bias, [n, co, oh, ow], ws)
}

/// Packs `[c_out, c_in*k*k]` weights for the direct kernel: one `c_out`-wide
/// row per patch tap, the `kx` taps of each `(ci, ky)` in **descending** order,
/// so that at stride 1 the taps one input pixel feeds along x land on ascending
/// output columns in ascending packed rows and fuse into one contiguous row-add.
fn pack_weights(src: &[f32], spec: &Conv2dSpec, out: &mut [f32]) {
    let (co, k, pl) = (spec.out_channels, spec.kernel, spec.patch_len());
    debug_assert_eq!((src.len(), out.len()), (co * pl, co * pl));
    for i in 0..co {
        for (p, &v) in src[i * pl..(i + 1) * pl].iter().enumerate() {
            out[packed_tap(p, k) * co + i] = v;
        }
    }
}

/// Gradients of a convolution: `(grad_input, grad_weight, grad_bias)` of the
/// output gradient `grad_out` (`[n, c_out, oh, ow]`) at the forward's `input`
/// (`[n, c_in, h, w]`), by two direct kernels that never unfold `input` (see
/// the module docs), bitwise identical to [`conv2d_backward_im2col`].
///
/// # Errors
///
/// [`TensorError::RankMismatch`] for a non-4-D `input`,
/// [`TensorError::ShapeMismatch`] for an `input` channel count or `weight`
/// that disagrees with `spec`, or a `grad_out` that is not exactly the
/// `[n, c_out, oh, ow]` output of `input`, and geometry errors from
/// [`Conv2dSpec::output_hw`].
pub fn conv2d_backward(
    grad_out: &Tensor,
    input: &Tensor,
    weight: &Tensor,
    spec: &Conv2dSpec,
) -> Result<(Tensor, Tensor, Tensor)> {
    let ([n, c, h, w], (oh, ow)) = check_backward(grad_out, input, weight, spec)?;
    let (k, co, pl) = (spec.kernel, spec.out_channels, spec.patch_len());
    let gmat = nchw_to_rows(grad_out, [n, co, oh, ow]);
    let (x, g) = (input.data(), gmat.data());
    let work = (n * oh * ow).saturating_mul(co).saturating_mul(pl);
    // dW: the scan over x, by input channel, into packed [pl, co] rows
    let mut packed = vec![0.0f32; pl * co];
    if n * oh * ow > 0 {
        parallel::for_each_row_chunk(&mut packed, k * k * co, c, work, |first_ci, dw| {
            simd::conv_weight_grad_chunk(x, [n, c, h, w], (oh, ow), g, *spec, first_ci, dw);
        });
    }
    let mut grad_weight = Tensor::zeros(&[co, pl]);
    for (o, dst) in grad_weight.data_mut().chunks_exact_mut(pl).enumerate() {
        for (tap, v) in dst.iter_mut().enumerate() {
            *v = packed[packed_tap(tap, k) * co + o];
        }
    }
    // dX: gradient rows × W folded into the input, by sample
    let mut grad_input = Tensor::zeros(&[n, c, h, w]);
    let (sample_len, tile) = (c * h * w, oh * ow * co);
    if n * sample_len > 0 {
        let wd = weight.data();
        parallel::for_each_row_chunk(grad_input.data_mut(), sample_len, n, work, |first_n, dx| {
            let mut row = vec![0.0f32; pl];
            for (local, dx) in dx.chunks_mut(sample_len).enumerate() {
                let g = &g[(first_n + local) * tile..][..tile];
                simd::conv_input_grad_sample(g, wd, [c, h, w], (oh, ow), *spec, &mut row, dx);
            }
        });
    }
    Ok((grad_input, grad_weight, gmat.sum_rows()?))
}

/// [`conv2d_backward`] through the unfolding, the reference the direct
/// kernels are pinned against: `dW = (im2col(input)ᵀ × gmat)ᵀ` (the column
/// matrix on the left, so its zeros are skipped), `dX = col2im(gmat × W)`,
/// `db` the column sums of `gmat`, `gmat` being `grad_out` as `[n*oh*ow,
/// c_out]` rows.
///
/// # Errors
///
/// Same conditions as [`conv2d_backward`].
pub fn conv2d_backward_im2col(
    grad_out: &Tensor,
    input: &Tensor,
    weight: &Tensor,
    spec: &Conv2dSpec,
) -> Result<(Tensor, Tensor, Tensor)> {
    let ([n, _, h, w], (oh, ow)) = check_backward(grad_out, input, weight, spec)?;
    let gmat = nchw_to_rows(grad_out, [n, spec.out_channels, oh, ow]);
    let grad_weight = im2col(input, spec)?.matmul_tn(&gmat)?.transpose2d()?;
    let grad_input = col2im(&gmat.matmul(weight)?, spec, n, h, w)?;
    Ok((grad_input, grad_weight, gmat.sum_rows()?))
}

/// The shape checks of both backward passes: `input` as in the forward,
/// `weight` as `spec` says, `grad_out` exactly the output of `input`.
fn check_backward(
    grad_out: &Tensor,
    input: &Tensor,
    weight: &Tensor,
    spec: &Conv2dSpec,
) -> Result<([usize; 4], (usize, usize))> {
    let ([n, c, h, w], (oh, ow)) = check_input(input, None, spec)?;
    expect_dims(weight.dims(), &spec.weight_dims())?;
    expect_dims(grad_out.dims(), &[n, spec.out_channels, oh, ow])?;
    Ok(([n, c, h, w], (oh, ow)))
}

/// The row [`pack_weights`] stores patch tap `p` (`(ci*k + ky)*k + kx`) in:
/// the `kx` taps of each `(ci, ky)` reversed.
fn packed_tap(p: usize, k: usize) -> usize {
    p - p % k + (k - 1 - p % k)
}

/// `[n, c, oh, ow]` → `[n*oh*ow, c]` row matrix.
fn nchw_to_rows(t: &Tensor, [n, c, oh, ow]: [usize; 4]) -> Tensor {
    let mut out = Tensor::zeros(&[n * oh * ow, c]);
    let sample_len = oh * ow * c;
    if n == 0 || sample_len == 0 {
        return out;
    }
    let src = t.data();
    let work = n.saturating_mul(sample_len);
    parallel::for_each_row_chunk(out.data_mut(), sample_len, n, work, |first_n, dst| {
        for (local_ni, sample) in dst.chunks_mut(sample_len).enumerate() {
            let ni = first_n + local_ni;
            for ci in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        sample[((oy * ow + ox) * c) + ci] =
                            src[((ni * c + ci) * oh + oy) * ow + ox];
                    }
                }
            }
        }
    });
    out
}

fn expect_dims(actual: &[usize], expected: &[usize]) -> Result<()> {
    if actual != expected {
        return Err(TensorError::ShapeMismatch {
            expected: expected.to_vec(),
            actual: actual.to_vec(),
        });
    }
    Ok(())
}

fn dims4(t: &Tensor) -> Result<[usize; 4]> {
    let d = t.dims();
    if d.len() != 4 {
        return Err(TensorError::RankMismatch { expected: 4, actual: d.len() });
    }
    Ok([d[0], d[1], d[2], d[3]])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TensorRng;

    fn naive_conv(
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: &Conv2dSpec,
    ) -> Tensor {
        let [n, c, h, w] = dims4(input).unwrap();
        let (oh, ow) = spec.output_hw(h, w).unwrap();
        let k = spec.kernel;
        let mut out = Tensor::zeros(&[n, spec.out_channels, oh, ow]);
        for ni in 0..n {
            for co in 0..spec.out_channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias.map(|b| b.data()[co]).unwrap_or(0.0);
                        for ci in 0..c {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let iy = (oy * spec.stride + ky) as isize
                                        - spec.padding as isize;
                                    let ix = (ox * spec.stride + kx) as isize
                                        - spec.padding as isize;
                                    if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                        continue;
                                    }
                                    let iv = input
                                        .at(&[ni, ci, iy as usize, ix as usize])
                                        .unwrap();
                                    let wv =
                                        weight.at(&[co, (ci * k + ky) * k + kx]).unwrap();
                                    acc += iv * wv;
                                }
                            }
                        }
                        out.set(&[ni, co, oy, ox], acc).unwrap();
                    }
                }
            }
        }
        out
    }

    #[test]
    fn spec_output_geometry() {
        let s = Conv2dSpec::new(3, 8, 3, 1, 1).unwrap();
        assert_eq!(s.output_hw(16, 16).unwrap(), (16, 16));
        let s2 = Conv2dSpec::new(3, 8, 3, 2, 1).unwrap();
        assert_eq!(s2.output_hw(16, 16).unwrap(), (8, 8));
        assert!(Conv2dSpec::new(0, 8, 3, 1, 1).is_err());
        assert!(s.output_hw(0, 0).is_err());
    }

    #[test]
    fn conv_matches_naive_reference() {
        let mut rng = TensorRng::seed_from(1);
        // (the no-bias, whole-vector case pins the tail conv2d shares with
        // the direct kernel it is the reference for)
        for &(stride, pad, co, biased) in &[(1, 0, 3, true), (1, 1, 8, false), (2, 1, 3, true)] {
            let spec = Conv2dSpec::new(2, co, 3, stride, pad).unwrap();
            let x = Tensor::randn(&[2, 2, 6, 6], 0.0, 1.0, &mut rng);
            let w = Tensor::randn(&[co, spec.patch_len()], 0.0, 1.0, &mut rng);
            let b = Tensor::randn(&[co], 0.0, 1.0, &mut rng);
            let b = biased.then_some(&b);
            let fast = conv2d(&x, &w, b, &spec).unwrap();
            let slow = naive_conv(&x, &w, b, &spec);
            assert_eq!(fast.dims(), slow.dims());
            for (a, b) in fast.data().iter().zip(slow.data()) {
                assert!((a - b).abs() < 1e-4, "{a} vs {b} (stride={stride} pad={pad})");
            }
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property of an adjoint pair, which is exactly what backward needs.
        let mut rng = TensorRng::seed_from(2);
        let spec = Conv2dSpec::new(2, 1, 3, 1, 1).unwrap();
        let x = Tensor::randn(&[1, 2, 5, 5], 0.0, 1.0, &mut rng);
        let cols = im2col(&x, &spec).unwrap();
        let y = Tensor::randn(cols.dims(), 0.0, 1.0, &mut rng);
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let back = col2im(&y, &spec, 1, 5, 5).unwrap();
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = TensorRng::seed_from(3);
        let spec = Conv2dSpec::new(1, 2, 3, 1, 1).unwrap();
        let x = Tensor::randn(&[1, 1, 4, 4], 0.0, 1.0, &mut rng);
        let w = Tensor::randn(&[2, spec.patch_len()], 0.0, 0.5, &mut rng);
        let b = Tensor::zeros(&[2]);
        let y = conv2d(&x, &w, Some(&b), &spec).unwrap();
        // loss = sum(y); upstream grad is all ones.
        let gy = Tensor::ones(y.dims());
        let (gx, gw, gb) = conv2d_backward(&gy, &x, &w, &spec).unwrap();

        let eps = 1e-3;
        // check a few weight coordinates
        for &idx in &[0usize, 5, 11] {
            let mut wp = w.clone();
            wp.data_mut()[idx] += eps;
            let yp = conv2d(&x, &wp, Some(&b), &spec).unwrap();
            let num = (yp.sum() - y.sum()) / eps;
            assert!((num - gw.data()[idx]).abs() < 1e-1, "gw[{idx}]: {num} vs {}", gw.data()[idx]);
        }
        // check a few input coordinates
        for &idx in &[0usize, 7, 15] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let yp = conv2d(&xp, &w, Some(&b), &spec).unwrap();
            let num = (yp.sum() - y.sum()) / eps;
            assert!((num - gx.data()[idx]).abs() < 1e-1, "gx[{idx}]: {num} vs {}", gx.data()[idx]);
        }
        // bias gradient is #output pixels per channel
        assert_eq!(gb.data(), &[16.0, 16.0]);
    }

    #[test]
    fn conv_forward_backward_are_thread_count_invariant() {
        let mut rng = TensorRng::seed_from(21);
        // 4 samples × 3ch × 12px clears the parallel-work threshold.
        let spec = Conv2dSpec::new(3, 8, 3, 1, 1).unwrap();
        let x = Tensor::randn(&[4, 3, 12, 12], 0.0, 1.0, &mut rng);
        let w = Tensor::randn(&[8, spec.patch_len()], 0.0, 0.5, &mut rng);
        let b = Tensor::randn(&[8], 0.0, 0.1, &mut rng);
        let run = || {
            let y = conv2d(&x, &w, Some(&b), &spec).unwrap();
            let gy = Tensor::ones(y.dims());
            let (gx, gw, gb) = conv2d_backward(&gy, &x, &w, &spec).unwrap();
            (y, gx, gw, gb)
        };
        let serial = crate::parallel::with_threads(1, run);
        for threads in [2, 4] {
            let par = crate::parallel::with_threads(threads, run);
            for (s, p) in
                [(&serial.0, &par.0), (&serial.1, &par.1), (&serial.2, &par.2), (&serial.3, &par.3)]
            {
                let sb: Vec<u32> = s.data().iter().map(|v| v.to_bits()).collect();
                let pb: Vec<u32> = p.data().iter().map(|v| v.to_bits()).collect();
                assert_eq!(sb, pb, "threads={threads}");
            }
        }
    }

    #[test]
    fn conv2d_ws_validates_shapes() {
        let mut ws = Workspace::new();
        let spec = Conv2dSpec::new(2, 3, 3, 1, 1).unwrap();
        let x = Tensor::zeros(&[1, 2, 4, 4]);
        let w_good = Tensor::zeros(&[3, spec.patch_len()]);
        let shape_err = |r: Result<Tensor>| matches!(r, Err(TensorError::ShapeMismatch { .. }));
        // weight: wrong patch length, wrong filter count, wrong rank
        let pl = spec.patch_len();
        for dims in [&[3, pl + 1][..], &[4, pl], &[3 * pl]] {
            let w_bad = Tensor::zeros(dims);
            assert!(shape_err(conv2d_ws(&x, &w_bad, None, &spec, &mut ws)), "{dims:?}");
            assert!(matches!(ConvPlan::new(&w_bad, &spec), Err(TensorError::ShapeMismatch { .. })));
        }
        // bias: wrong length, wrong rank
        for dims in [&[4][..], &[3, 1]] {
            let b_bad = Tensor::zeros(dims);
            assert!(shape_err(conv2d_ws(&x, &w_good, Some(&b_bad), &spec, &mut ws)), "{dims:?}");
        }
        // input: wrong channel count, wrong rank
        let x_bad = Tensor::zeros(&[1, 3, 4, 4]);
        assert!(shape_err(conv2d_ws(&x_bad, &w_good, None, &spec, &mut ws)));
        let x_flat = Tensor::zeros(&[2, 4, 4]);
        assert!(matches!(
            conv2d_ws(&x_flat, &w_good, None, &spec, &mut ws),
            Err(TensorError::RankMismatch { expected: 4, actual: 3 })
        ));
        // kernel larger than the padded input
        let unpadded = Conv2dSpec::new(2, 3, 3, 1, 0).unwrap();
        for dims in [[1, 2, 2, 4], [1, 2, 4, 2], [1, 2, 0, 0]] {
            let small = Tensor::zeros(&dims);
            assert!(matches!(
                conv2d_ws(&small, &w_good, None, &unpadded, &mut ws),
                Err(TensorError::InvalidGeometry(_))
            ));
        }
        let plan = ConvPlan::new(&w_good, &spec).unwrap();
        assert!(plan.forward(&x_bad, None, &mut ws).is_err());
        assert!(plan.forward(&x, None, &mut ws).is_ok());
        assert!(conv2d_ws(&x, &w_good, None, &spec, &mut ws).is_ok());
    }

    #[test]
    fn conv2d_backward_rejects_a_gradient_of_the_wrong_shape() {
        // the direct kernels index the gradient by the input's geometry, so a
        // mismatched one must be an error before any of them runs
        let spec = Conv2dSpec::new(2, 3, 3, 2, 1).unwrap();
        let x = Tensor::ones(&[2, 2, 5, 5]);
        let w = Tensor::ones(&[3, spec.patch_len()]);
        let good = [2, 3, 3, 3];
        assert!(conv2d_backward(&Tensor::ones(&good), &x, &w, &spec).is_ok());
        for dims in [
            &[1, 3, 3, 3][..], // n
            &[3, 3, 3, 3],     // n
            &[2, 4, 3, 3],     // c_out
            &[2, 3, 2, 3],     // oh
            &[2, 3, 3, 4],     // ow
            &[2, 3, 9],        // rank
        ] {
            let g = Tensor::ones(dims);
            for backward in [conv2d_backward, conv2d_backward_im2col] {
                assert!(
                    matches!(backward(&g, &x, &w, &spec), Err(TensorError::ShapeMismatch { .. })),
                    "{dims:?}"
                );
            }
        }
        // an input or weight that disagrees with the spec
        let g = Tensor::ones(&good);
        assert!(conv2d_backward(&g, &Tensor::ones(&[2, 3, 5, 5]), &w, &spec).is_err());
        assert!(conv2d_backward(&g, &x, &Tensor::ones(&[3, 17]), &spec).is_err());
        assert!(conv2d_backward(&g, &Tensor::ones(&[2, 5, 5]), &w, &spec).is_err());
    }

    #[test]
    fn macs_counts_products() {
        let spec = Conv2dSpec::new(3, 8, 3, 1, 1).unwrap();
        // 16x16 out, 8 filters, 27 taps each
        assert_eq!(spec.macs(16, 16).unwrap(), 16 * 16 * 8 * 27);
    }
}
