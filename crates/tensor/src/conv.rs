//! 2-D convolution (`NCHW`, weights `[c_out, c_in*k*k]`): a direct
//! spike-scatter forward kernel, two direct backward kernels, and the
//! im2col + matmul references all three are pinned against.
//!
//! **Forward** ([`conv2d_ws`], [`ConvPlan::forward`]) never materialises an
//! unfolding. One vectorised pass packs each sample's input into nonzero
//! words (one bit per element, whole-vector compares), then the scan walks
//! the set bits in `(ci, iy, ix)` raster order and adds `x` times the packed
//! `c_out`-wide weight row of tap `(ci, ky, kx)` into the at most `k*k` rows
//! of the sample's `[oh, ow, c_out]` output tile that `x` touches. At any
//! stride `s` the taps along x fuse into one row-add (the packed rows of
//! each `(ci, ky)` are ordered by phase `kx mod s`, so the taps of one input
//! column are contiguous) and the rows of successive `ky` are a constant
//! step apart; the tile carries spare columns at both ends of each output
//! row, so every spike's row-add is `⌈k/s⌉` columns long (a phase with
//! fewer taps, as the odd columns of a 3×3 at stride 2, is padded with zero
//! weight rows). For the 3×3 layers at stride 1 and `c_out` 32 and 64, and
//! for the 3×3 and 1×1 layers at stride 2 and `c_out` 64, that length is a
//! literal the compiler unrolls. One epilogue pass then adds the bias while
//! it reorders tile -> NCHW, skipping the spare columns: per output row,
//! each channel's `ow` outputs are read `c_out` floats apart and stored
//! contiguously, with `(c_out, ow)` literals for the shapes both nets run.
//! The per-sample scatter and the epilogue are safe functions compiled once
//! per SIMD tier ([`crate::simd`], "Dispatch granularity"), their compares,
//! row-adds and reorders plain loops. For a fixed output pixel, ascending
//! input `(ci, iy, ix)` *is* ascending patch index `(ci, ky, kx)`, so every
//! output element accumulates the terms of [`conv2d`]'s im2col row times the
//! transposed weights in the same order (zero taps skipped, explicit
//! multiply-then-add; a zero weight row adds `±0.0` to an accumulator that
//! is never `−0.0`, which leaves it as it was): **bitwise identical** (the
//! sign/payload of a NaN made from two NaNs aside). Input rows and columns
//! that feed no output (a kernel narrower than its stride) are never
//! scanned.
//!
//! **Backward** ([`conv2d_backward`]) never materialises one either. The
//! weight gradient is the forward's scan with the roles swapped: each
//! nonzero `x` adds `x` times the gradient row of every output pixel it
//! feeds into the packed row of the tap it feeds it through. For a fixed
//! tap, ascending input `(n, iy, ix)` *is* ascending output `(n, oy, ox)`,
//! so each weight-gradient element sums the im2col column times the
//! gradient rows in [`Tensor::matmul_tn`]'s order (the gradient rows are
//! the epilogue's reorder run backwards, NCHW -> rows). The input gradient
//! builds each output pixel's `c_in*k*k`-wide row `grad × W` (ascending
//! `c_out`, as [`Tensor::matmul`]; zero gradients skipped through a
//! per-pixel list of the nonzero ones) in fixed-size register blocks,
//! stores it once in a one-row scratch and folds it straight into the input
//! gradient in [`col2im`]'s order. Both are **bitwise identical** to
//! [`conv2d_backward_im2col`].
//!
//! **Reference**: [`im2col`] has one row per output pixel and one column per
//! tap, so [`conv2d`] is one matrix product, [`conv2d_backward_im2col`] two.
//!
//! Every pass runs on its caller's thread.

use crate::{simd, AlignedVec, Result, Tensor, TensorError, Workspace};

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
    for (flat, patch) in cols.data_mut().chunks_mut(pl).enumerate() {
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
    for (ni, sample) in out.data_mut().chunks_mut(sample_len).enumerate() {
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
    let (tiles, bias) = (out_mat.data(), bias.map(Tensor::data));
    let dir = Reorder::TilesToNchw { tiles, bias, margins: (0, 0), nchw: out.data_mut() };
    simd::conv_epilogue(dir, [n, spec.out_channels, oh, ow]);
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
/// owner repacks it whenever the weights may change; a clone owns its copy.
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
        let mut plan = ConvPlan { spec: *spec, w_t: AlignedVec::zeroed(packed_len(spec)) };
        plan.repack(weight)?;
        Ok(plan)
    }

    /// Packs `weight` again, into the plan's own buffer.
    ///
    /// # Errors
    ///
    /// As [`ConvPlan::new`]; the plan is untouched then.
    pub fn repack(&mut self, weight: &Tensor) -> Result<()> {
        expect_dims(weight.dims(), &self.spec.weight_dims())?;
        pack_weights(weight.data(), &self.spec, &mut self.w_t);
        Ok(())
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
    let mut w_t = ws.take_overwrite(packed_len(spec));
    pack_weights(weight.data(), spec, &mut w_t);
    let out = scatter_forward(input, &w_t, bias, spec, ws);
    ws.recycle(w_t);
    out
}

/// The direct kernel over [`pack_weights`] output: scatter into one zeroed
/// `[oh, left + ow + right, co]` tile per sample ([`tile_margins`]), then the
/// epilogue pass.
fn scatter_forward(
    input: &Tensor,
    w_t: &[f32],
    bias: Option<&Tensor>,
    spec: &Conv2dSpec,
    ws: &mut Workspace,
) -> Result<Tensor> {
    let ([n, c, h, w], (oh, ow)) = check_input(input, bias, spec)?;
    let (co, margins) = (spec.out_channels, tile_margins(spec, w, ow));
    let (sample_len, tile_len) = (c * h * w, oh * (margins.0 + ow + margins.1) * co);
    let mut tiles = ws.take(n * tile_len);
    if n * tile_len > 0 {
        let src = input.data();
        // one nonzero-pass scratch per sample
        let words_len = nonzero_words_len(sample_len);
        let mut words = ws.take_words(n * words_len);
        let samples = tiles.chunks_mut(tile_len).zip(words.chunks_exact_mut(words_len));
        for (ni, (tile, words)) in samples.enumerate() {
            let input = (&src[ni * sample_len..][..sample_len], words);
            simd::conv_scatter_sample(input, [c, h, w], (oh, ow), w_t, *spec, tile);
        }
        ws.recycle_words(words);
    }
    tiles_into_nchw(tiles, bias, [n, co, oh, ow], margins, ws)
}

/// The zero columns the forward's tile carries left and right of each output
/// row, for an input `w` wide. A spike in input column `ix` (`t = ix + pad`)
/// starts its run at output column `⌈(t + 1 − k) / s⌉` and runs
/// `⌈k / s⌉` columns ([`scatter_strided`]); with these margins that run lies
/// inside the tile row for every column that feeds an output, at both
/// borders, and the columns that stand for no output collect terms nothing
/// reads. At stride 1 both are `k − 1 − pad`.
fn tile_margins(spec: &Conv2dSpec, w: usize, ow: usize) -> (usize, usize) {
    let (k, s, pad) = (spec.kernel, spec.stride, spec.padding);
    let left = (k - 1).saturating_sub(pad) / s;
    // the run that ends furthest right is the last live column's; counted
    // from the left margin, its first column is never negative
    let last = (w + pad).saturating_sub(1).min((ow - 1) * s + k - 1) + left * s;
    let right =
        ((last + 1).saturating_sub(k).div_ceil(s) + k.div_ceil(s)).saturating_sub(left + ow);
    (left, right)
}

/// The epilogue over arena buffers: [`simd::conv_epilogue`] into a buffer
/// that is not cleared first (every element is written). Recycles `tiles`.
fn tiles_into_nchw(
    tiles: AlignedVec,
    bias: Option<&Tensor>,
    dims: [usize; 4],
    margins: (usize, usize),
    ws: &mut Workspace,
) -> Result<Tensor> {
    let mut out = ws.take_overwrite(dims.iter().product());
    let bias = bias.map(Tensor::data);
    let dir = Reorder::TilesToNchw { tiles: &tiles, bias, margins, nchw: &mut out };
    simd::conv_epilogue(dir, dims);
    ws.recycle(tiles);
    Tensor::from_aligned(out, &dims)
}

/// One reorder of a convolution's output between the kernels' pixel-major
/// rows and `NCHW`: [`simd::conv_epilogue`]'s argument.
pub(crate) enum Reorder<'a> {
    /// `[n, oh, left + ow + right, c]` tiles → `[n, c, oh, ow]`, skipping
    /// the `margins` columns of each row and adding the per-channel bias
    /// (after the last term of the tile) when there is one; without one
    /// every value is copied bit for bit.
    TilesToNchw {
        tiles: &'a [f32],
        bias: Option<&'a [f32]>,
        margins: (usize, usize),
        nchw: &'a mut [f32],
    },
    /// `[n, c, oh, ow]` → `[n, oh, ow, c]` rows, copied bit for bit: the
    /// backward's gradient rows.
    NchwToRows { nchw: &'a [f32], rows: &'a mut [f32] },
}

/// The literal instantiations of [`reorder_shape`]: the `(c_out, ow)` of the
/// 3×3 layers both reference nets run (32 at 16 columns, 64 at 8 and 4),
/// then every other shape with its extents read from `dims`. Writes every
/// element of the destination exactly once.
#[inline(always)]
pub(crate) fn epilogue(dir: Reorder<'_>, dims: [usize; 4]) {
    // (direct calls: a function pointer picked here would not inline)
    match (dims[1], dims[3]) {
        (32, 16) => reorder_shape::<32, 16>(dir, dims),
        (64, 8) => reorder_shape::<64, 8>(dir, dims),
        (64, 4) => reorder_shape::<64, 4>(dir, dims),
        _ => reorder_shape::<0, 0>(dir, dims),
    }
}

/// [`epilogue`] with `c` and `ow` the literals `C` and `OW`, or read from
/// `dims` where they are `0`. Both directions are one transpose per output
/// row whose stores are contiguous (a strided store touches another cache
/// line per element): the forward writes each channel's `ow` outputs from
/// the `c`-strided tile row, the backward each pixel's `c` channels from the
/// `oh·ow`-strided planes.
#[inline(always)]
fn reorder_shape<const C: usize, const OW: usize>(dir: Reorder<'_>, [n, c, oh, ow]: [usize; 4]) {
    debug_assert!(C == 0 || (C, OW) == (c, ow));
    // the literals turn every inner trip count and stride into a constant
    let c = if C == 0 { c } else { C };
    let ow = if OW == 0 { ow } else { OW };
    let (plane, sample_len) = (oh * ow, c * oh * ow);
    if n == 0 || sample_len == 0 {
        return;
    }
    match dir {
        Reorder::TilesToNchw { tiles, bias: Some(b), margins, nchw } => {
            tiles_to_nchw::<true>(tiles, b, margins, [n, c, oh, ow], nchw);
        }
        Reorder::TilesToNchw { tiles, bias: None, margins, nchw } => {
            tiles_to_nchw::<false>(tiles, &[], margins, [n, c, oh, ow], nchw);
        }
        Reorder::NchwToRows { nchw, rows } => {
            let samples = rows[..n * sample_len].chunks_exact_mut(sample_len);
            for (planes, sample) in nchw.chunks_exact(sample_len).zip(samples) {
                for p in 0..plane {
                    let out = &mut sample[p * c..][..c];
                    for ci in 0..c {
                        out[ci] = planes[ci * plane + p];
                    }
                }
            }
        }
    }
}

/// The forward half of [`reorder_shape`] (which makes `c` and `ow` literals
/// where it can): each channel's `ow` outputs of a row, `v + b` when `BIAS`,
/// else `v` itself.
#[inline(always)]
fn tiles_to_nchw<const BIAS: bool>(
    tiles: &[f32],
    bias: &[f32],
    (left, right): (usize, usize),
    [n, c, oh, ow]: [usize; 4],
    nchw: &mut [f32],
) {
    let (plane, sample_len, tile_row) = (oh * ow, c * oh * ow, (left + ow + right) * c);
    for (ni, sample) in nchw[..n * sample_len].chunks_exact_mut(sample_len).enumerate() {
        for oy in 0..oh {
            let pixels = &tiles[(ni * oh + oy) * tile_row + left * c..][..ow * c];
            for ci in 0..c {
                let out = &mut sample[ci * plane + oy * ow..][..ow];
                let bv = if BIAS { bias[ci] } else { 0.0 };
                for x in 0..ow {
                    let v = pixels[x * c + ci];
                    out[x] = if BIAS { v + bv } else { v };
                }
            }
        }
    }
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

/// `acc[j] += x * w[j]` for the first `keep` elements, the rest selected
/// back unchanged: the run of a non-finite `x` (`x·0` is NaN) over the zero
/// weight rows past its phase's taps ([`spikes`]).
#[inline(always)]
fn add_taps_masked(acc: &mut [f32], x: f32, w: &[f32], keep: usize) {
    for (j, (a, &wv)) in acc.iter_mut().zip(w).enumerate() {
        let v = *a + x * wv;
        *a = if j < keep { v } else { *a };
    }
}

/// Scatters one sample (`[c, h, w]`) into its zeroed `[oh, left + ow +
/// right, co]` tile ([`tile_margins`]), `words` (at least `c*h*w / 64 + 2` long) the
/// scratch of its nonzero pass. Safe code with plain loops, no calls and no
/// closures (a closure body inlines only at LLVM's discretion, and one that
/// does not is compiled for the baseline): [`simd::conv_scatter_sample`]
/// compiles it once per tier, so the compares and row loops vectorize at
/// that tier's width.
#[inline(always)]
pub(crate) fn scatter_sample(
    (src, words): (&[f32], &mut [u64]),
    dims: [usize; 3],
    out_hw: (usize, usize),
    w_t: &[f32],
    spec: Conv2dSpec,
    tile: &mut [f32],
) {
    nonzero_words(src, words);
    scatter::<false>(Scan { src, words, dims, out_hw, operand: w_t, spec }, tile);
}

/// The weight gradient `dw` (`c·k` blocks of [`block_rows`] packed `co`-wide
/// rows, the layout of [`pack_weights`]) over every sample of `src`
/// (`[n, c, h, w]`), `gmat` holding each sample's `[oh*ow, co]`
/// output-gradient rows: the forward's scan with the roles of weights and
/// tile swapped, `words` (at least `c*h*w / 64 + 2` long) the scratch of
/// each sample's nonzero pass.
/// [`simd::conv_weight_grad_chunk`] compiles it once per tier.
#[inline(always)]
pub(crate) fn weight_grad_chunk(
    (src, words): (&[f32], &mut [u64]),
    [n, c, h, w]: [usize; 4],
    (oh, ow): (usize, usize),
    gmat: &[f32],
    spec: Conv2dSpec,
    dw: &mut [f32],
) {
    let (sample_len, tile) = (c * h * w, oh * ow * spec.out_channels);
    for ni in 0..n {
        let x = &src[ni * sample_len..][..sample_len];
        let g = &gmat[ni * tile..][..tile];
        nonzero_words(x, words);
        let scan = Scan { src: x, words, dims: [c, h, w], out_hw: (oh, ow), operand: g, spec };
        scatter::<true>(scan, dw);
    }
}

/// Words of the nonzero pass over `len` floats: one per 64, the last
/// partial one, and a zero word [`row_word`] may read past the end.
fn nonzero_words_len(len: usize) -> usize {
    len / 64 + 2
}

/// The nonzero pass: bit `i % 64` of `words[i / 64]` is `src[i] != 0.0`
/// (`-0.0` inactive, NaN active), for any length; the words after the last
/// one covering `src` are zero.
#[inline(always)]
fn nonzero_words(src: &[f32], words: &mut [u64]) {
    let words = &mut words[..nonzero_words_len(src.len())];
    let chunks = src.chunks_exact(64);
    let (tail, whole) = (chunks.remainder(), chunks.len());
    for (word, chunk) in words.iter_mut().zip(chunks) {
        // 64 compares of a literal trip count: LLVM makes them whole-vector
        *word = nonzero_bits(<&[f32; 64]>::try_from(chunk).expect("64 elements"));
    }
    (words[whole], words[whole + 1]) = (nonzero_bits(tail), 0);
}

/// Bit `i` set where `chunk[i] != 0.0` (at most 64 elements).
#[inline(always)]
fn nonzero_bits(chunk: &[f32]) -> u64 {
    let mut bits = 0;
    for (bit, &v) in chunk.iter().enumerate() {
        bits |= u64::from(v != 0.0) << bit;
    }
    bits
}

/// The `len ≤ 64` bits of [`nonzero_words`]' output that start at bit `at`,
/// as one word (bit 0 = element `at`).
#[inline(always)]
fn row_word(words: &[u64], at: usize, len: usize) -> u64 {
    let (q, r) = (at / 64, at % 64);
    // the two shifts make `r = 0` a shift by 64, which is zero
    let bits = words[q] >> r | (words[q + 1] << 1) << (63 - r);
    bits & u64::MAX >> (64 - len)
}

/// What one scan reads: the input (`[c, h, w]`) and its nonzero words, the
/// output extent, the operand (packed weights, or gradient rows) and the
/// geometry.
#[derive(Clone, Copy)]
struct Scan<'a> {
    src: &'a [f32],
    words: &'a [u64],
    dims: [usize; 3],
    out_hw: (usize, usize),
    operand: &'a [f32],
    spec: Conv2dSpec,
}

/// The literal instantiations of [`scatter_strided`]: the stride-1, 3×3
/// shapes both reference nets run at `c_out` 32 and 64, resnet's two stride-2
/// shapes (3×3 and the 1×1 shortcut at `c_out` 64), then every other shape
/// with its extents read from `spec`.
#[inline(always)]
fn scatter<const WEIGHT_GRAD: bool>(scan: Scan<'_>, acc: &mut [f32]) {
    // (direct calls: a function pointer picked here would not inline)
    let spec = scan.spec;
    match (spec.stride, spec.kernel, spec.out_channels) {
        (1, 3, 32) => scatter_strided::<WEIGHT_GRAD, 1, 3, 32>(scan, acc),
        (1, 3, 64) => scatter_strided::<WEIGHT_GRAD, 1, 3, 64>(scan, acc),
        (2, 3, 64) => scatter_strided::<WEIGHT_GRAD, 2, 3, 64>(scan, acc),
        (2, 1, 64) => scatter_strided::<WEIGHT_GRAD, 2, 1, 64>(scan, acc),
        _ => scatter_strided::<WEIGHT_GRAD, 0, 0, 0>(scan, acc),
    }
}

/// Words of [`live_columns`]' precomputed masks; the words past them are
/// computed per row.
const LIVE_WORDS: usize = 4;

/// The masks of [`live_word`] for the first [`LIVE_WORDS`] words of a row.
#[inline(always)]
fn live_columns(pad: usize, stride: usize, k: usize, live_w: usize) -> [u64; LIVE_WORDS] {
    let mut live = [0u64; LIVE_WORDS];
    for (wi, word) in live.iter_mut().enumerate() {
        *word = live_word(wi * 64, pad, stride, k, live_w);
    }
    live
}

/// One bit per input column `at..at + 64` of a row, set unless the column
/// feeds no output: columns from `live_w` on lie right of the last output's
/// window, and a kernel narrower than its stride leaves gaps (column
/// `t = ix + pad` is read through tap `t % stride` of output `t / stride` or
/// not at all).
#[inline(always)]
fn live_word(at: usize, pad: usize, stride: usize, k: usize, live_w: usize) -> u64 {
    let mut live = below(live_w, at);
    if k < stride {
        for bit in 0..64 {
            if (at + bit + pad) % stride >= k {
                live &= !(1 << bit);
            }
        }
    }
    live
}

/// The taps `kx ≡ r (mod s)` of a `k`-wide kernel: the phase of the input
/// columns `t = ix + pad ≡ r` read through them.
#[inline(always)]
fn phase_taps(r: usize, k: usize, s: usize) -> usize {
    k.saturating_sub(r).div_ceil(s)
}

/// The packed rows of one `(ci, ky)` block: `⌈k/s⌉` per phase that has
/// taps ([`packed_tap`]).
#[inline(always)]
fn block_rows(k: usize, s: usize) -> usize {
    k.min(s) * k.div_ceil(s)
}

/// The first of phase `r`'s rows in a packed `(ci, ky)` block: the phases
/// above it come first ([`packed_tap`]).
#[inline(always)]
fn phase_start(r: usize, k: usize, s: usize) -> usize {
    (k.min(s) - 1 - r) * k.div_ceil(s)
}

/// The spike scan both directions share: every nonzero input `x` at
/// `(ci, iy, ix)`, in that order (the set bits of `words`, [`nonzero_words`]
/// of `src`), meets each output pixel it feeds through tap `(ci, ky, kx)`.
/// The forward (`WEIGHT_GRAD = false`) adds `x` times the tap's packed weight
/// row (`operand`) into the pixel's `co`-wide row of `acc`, the sample's
/// tile; the weight gradient adds `x` times the pixel's gradient row
/// (`operand`) into the tap's packed row of `acc`. `S`, `K` and `CO` are the
/// stride, kernel extent and `c_out` as literals, or `0` to read them from
/// `spec`.
///
/// Along x a spike at `t = ix + pad` feeds ascending output columns through
/// descending taps `kx ≡ t (mod s)`, which [`pack_weights`] stores as
/// ascending packed rows: one run in both the tile and the packed rows, per
/// output row. Every forward spike, and every weight-gradient spike clear of
/// the borders, runs `⌈k/s⌉` columns (`⌈k/s⌉·co` floats, a literal for the
/// literal shapes); where its phase has fewer taps (odd `t` of a 3×3 at
/// stride 2), the run goes on through the phase's zero rows ([`spikes`]).
/// Columns and rows that feed no output are never visited.
#[inline(always)]
fn scatter_strided<const WEIGHT_GRAD: bool, const S: usize, const K: usize, const CO: usize>(
    Scan { src, words, dims: [c, h, w], out_hw: (oh, ow), operand, spec }: Scan<'_>,
    acc: &mut [f32],
) {
    debug_assert!(K == 0 || (S, K, CO) == (spec.stride, spec.kernel, spec.out_channels));
    // the literals fold the divisions and turn every run length into a constant
    let k = if K == 0 { spec.kernel } else { K };
    let co = if CO == 0 { spec.out_channels } else { CO };
    let s = if S == 0 { spec.stride } else { S };
    let pad = spec.padding;
    let live_w = ((ow - 1) * s + k).saturating_sub(pad).min(w);
    let masks = live_columns(pad, s, k, live_w);
    // The forward's tile rows are `tw` wide, input column ix standing at
    // ix + xpad in tile-column units of the stride (`tile_margins`); the
    // gradient rows the weight gradient reads have no margin. A spike in the
    // columns `interior` runs all ⌈k/s⌉ columns inside its rows: in the
    // forward, every live column.
    let m = k.div_ceil(s);
    let (left, right) = if WEIGHT_GRAD { (0, 0) } else { tile_margins(&spec, w, ow) };
    let (tw, xpad) = (left + ow + right, pad + left * s);
    let interior = if tw < m {
        0..0
    } else {
        k.saturating_sub(s).saturating_sub(xpad)..((tw - m) * s + k).saturating_sub(xpad)
    };
    let interior = if interior.is_empty() { 0..0 } else { interior };
    debug_assert!(WEIGHT_GRAD || (interior.start == 0 && interior.end >= live_w));
    for ci in 0..c {
        for iy in 0..h {
            let ty = iy + pad;
            let oys = axis_outputs(ty, s, k, oh);
            if oys.is_empty() {
                continue;
            }
            let row_at = (ci * h + iy) * w;
            // the (ci, ky) block the last output row reads; each row above
            // reads s taps further down
            let block = ci * k + ty - (oys.end - 1) * s;
            let (row, oys) = (&src[row_at..][..w], (oys.end, oys.len()));
            for wi in 0..live_w.div_ceil(64) {
                let at = wi * 64;
                let live = match masks.get(wi) {
                    Some(&live) => live,
                    None => live_word(at, pad, s, k, live_w),
                };
                let bits = row_word(words, row_at + at, (w - at).min(64)) & live;
                let r = Row { row, at, k, s, co, tw, xpad, oys, block };
                if !WEIGHT_GRAD {
                    spikes::<false, true>(bits, r, operand, acc);
                    continue;
                }
                // left of the interior, in it, right of it: three passes in
                // ascending ix, none branching on where a spike sits
                let (lo, hi) = (below(interior.start, at), below(interior.end, at));
                spikes::<true, false>(bits & lo, r, operand, acc);
                spikes::<true, true>(bits & hi & !lo, r, operand, acc);
                spikes::<true, false>(bits & !hi, r, operand, acc);
            }
        }
    }
}

/// The bits of a row word (bit `i` = element `at + i`) below element `i`.
#[inline(always)]
fn below(i: usize, at: usize) -> u64 {
    let n = i.saturating_sub(at);
    if n >= 64 {
        u64::MAX
    } else {
        (1 << n) - 1
    }
}

/// One input row of the scan, `(ci, iy)`: its elements (bit `i` of a word is
/// `row[at + i]`), the extents and stride, the width `tw` of a tile row and
/// the position `ix + xpad` of input column `ix` in it, the end and count of
/// the output rows it feeds, `oys`, and `block`, the packed `(ci, ky)` row
/// block the last of them reads.
#[derive(Clone, Copy)]
struct Row<'a> {
    row: &'a [f32],
    at: usize,
    k: usize,
    s: usize,
    co: usize,
    tw: usize,
    xpad: usize,
    oys: (usize, usize),
    block: usize,
}

/// The spikes `bits` of one row word. An `INTERIOR` spike's run per output
/// row is `⌈k/s⌉` columns, through its phase's zero rows where the phase has
/// fewer taps; an edge spike's is clipped at the border to the taps it
/// really meets.
#[inline(always)]
fn spikes<const WEIGHT_GRAD: bool, const INTERIOR: bool>(
    mut bits: u64,
    Row { row, at, k, s, co, tw, xpad, oys: (oy_end, rows), block }: Row<'_>,
    operand: &[f32],
    acc: &mut [f32],
) {
    let (m, bk) = (k.div_ceil(s), block_rows(k, s));
    let steps = (tw * co, s * bk * co);
    // whether phases differ in their tap count (a 3×3 at stride 2: two, one)
    let ragged = bk > k;
    while bits != 0 {
        let ix = at + bits.trailing_zeros() as usize;
        bits &= bits - 1;
        let (x, tx) = (row[ix], ix + xpad);
        let r = tx % s;
        if INTERIOR {
            // the first output column, through the phase's largest tap
            let ox = (tx + s - k) / s;
            let at = ((oy_end * tw + ox) * co, (block * bk + phase_start(r, k, s)) * co);
            // Past a phase's taps the run meets its zero rows: a finite x adds
            // x·0 = ±0.0 to a tile accumulator, which keeps its bits (it
            // starts at +0.0, and a sum is −0.0 only when both terms are).
            // The weight gradient's zero rows take what they get and are
            // never read. Only a non-finite x (x·0 = NaN) is masked.
            let masked = ragged && !WEIGHT_GRAD && !x.is_finite();
            let keep = if masked { Some(phase_taps(r, k, s) * co) } else { None };
            let run = (x, m * co, keep);
            // (all ⌈k/s⌉ output rows, the common case, is a literal trip count)
            if rows == m {
                strided_runs::<WEIGHT_GRAD>(acc, operand, (m, run), at, steps);
            } else {
                strided_runs::<WEIGHT_GRAD>(acc, operand, (rows, run), at, steps);
            }
        } else {
            let oxs = axis_outputs(tx, s, k, tw);
            let kx = tx - oxs.start * s;
            let slot = phase_start(r, k, s) + phase_taps(r, k, s) - 1 - kx / s;
            let at = ((oy_end * tw + oxs.start) * co, (block * bk + slot) * co);
            let run = (x, oxs.len() * co, None);
            strided_runs::<WEIGHT_GRAD>(acc, operand, (rows, run), at, steps);
        }
    }
}

/// One spike `x`'s `rows` runs of `len` floats (of which only the first
/// `keep` add, if given): the tile's from one output row above `oo`
/// upwards, the packed weights' from `wo` on (the forward; the weight
/// gradient swaps the roles of `acc` and `operand`).
#[inline(always)]
fn strided_runs<const WEIGHT_GRAD: bool>(
    acc: &mut [f32],
    operand: &[f32],
    (rows, (x, len, keep)): (usize, (f32, usize, Option<usize>)),
    (mut oo, mut wo): (usize, usize),
    (o_step, w_step): (usize, usize),
) {
    for _ in 0..rows {
        oo -= o_step;
        let (a, b) = if WEIGHT_GRAD { (wo, oo) } else { (oo, wo) };
        let (a, b) = (&mut acc[a..][..len], &operand[b..][..len]);
        match keep {
            Some(keep) => add_taps_masked(a, x, b, keep),
            None => add_taps(a, x, b),
        }
        wo += w_step;
    }
}

/// Floats of an input-gradient row one register block accumulates.
const DX_BLOCK: usize = 96;

/// The input gradient of one sample: per output pixel, in raster order, the
/// `pl`-wide row `g[pixel] × W` (ascending `c_out`, a zero gradient skipped,
/// as [`crate::Tensor::matmul`] sums it), built over the pixel's nonzero
/// `c_out` list in register blocks of [`DX_BLOCK`], 32, 8 and 1 floats and
/// stored once in the scratch row, then folded into `dx` (`[c, h, w]`,
/// zeroed) in [`col2im`]'s `(ci, ky, kx)` order.
/// [`simd::conv_input_grad_sample`] compiles it once per tier.
#[inline(always)]
pub(crate) fn input_grad_sample(
    g: &[f32],
    weight: &[f32],
    [c, h, w]: [usize; 3],
    (oh, ow): (usize, usize),
    spec: Conv2dSpec,
    (row, nz): (&mut [f32], &mut [usize]),
    dx: &mut [f32],
) {
    let (k, co) = (spec.kernel, spec.out_channels);
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
            // the nonzero gradients, found once: the blocks below then run
            // no branch on gradient data
            let gp = &g[(oy * ow + ox) * co..][..co];
            let mut live = 0;
            for (o, &gv) in gp.iter().enumerate() {
                nz[live] = o;
                live += usize::from(gv != 0.0);
            }
            let nz = &nz[..live];
            let mut at = row_blocks::<DX_BLOCK>(gp, nz, weight, 0, row);
            at = row_blocks::<32>(gp, nz, weight, at, row);
            at = row_blocks::<8>(gp, nz, weight, at, row);
            row_blocks::<1>(gp, nz, weight, at, row);
            // the taps inside the input, kx runs contiguous on both sides;
            // a whole 3-wide run (every interior pixel of a 3×3 kernel) is
            // three fixed adds
            let x0 = (ix0 + kxs.start as isize) as usize;
            for ci in 0..c {
                for ky in kys.clone() {
                    let iy = (iy0 + ky as isize) as usize;
                    let dst = &mut dx[(ci * h + iy) * w + x0..];
                    let taps = &row[(ci * k + ky) * k + kxs.start..];
                    if kxs.len() == 3 {
                        let (dst, taps) = (&mut dst[..3], &taps[..3]);
                        (dst[0], dst[1], dst[2]) =
                            (dst[0] + taps[0], dst[1] + taps[1], dst[2] + taps[2]);
                    } else {
                        for (d, &r) in dst[..kxs.len()].iter_mut().zip(&taps[..kxs.len()]) {
                            *d += r;
                        }
                    }
                }
            }
        }
    }
}

/// Builds the whole `B`-float blocks of `row[from..]` (a row of all `pl`
/// taps) as `Σ g·W` over the ascending nonzero `c_out` list `nz`, each block
/// in registers and stored once; returns where the blocks end.
#[inline(always)]
fn row_blocks<const B: usize>(
    gp: &[f32],
    nz: &[usize],
    weight: &[f32],
    from: usize,
    row: &mut [f32],
) -> usize {
    let pl = row.len();
    let end = from + (pl - from) / B * B;
    for (i, out) in row[from..end].chunks_exact_mut(B).enumerate() {
        let at = from + i * B;
        let mut acc = [0.0f32; B];
        for &o in nz {
            // explicit multiply, then add: never an FMA
            let (gv, wb) = (gp[o], &weight[o * pl + at..][..B]);
            for (a, &wv) in acc.iter_mut().zip(wb) {
                *a += gv * wv;
            }
        }
        out.copy_from_slice(&acc);
    }
    end
}

/// The taps `0..k` of a window starting at input coordinate `i0` that land
/// inside `0..extent`.
#[inline(always)]
fn clip_taps(i0: isize, k: usize, extent: usize) -> std::ops::Range<usize> {
    let lo = (-i0).clamp(0, k as isize) as usize;
    let hi = (extent as isize - i0).clamp(lo as isize, k as isize) as usize;
    lo..hi
}

/// Packs `[c_out, c_in*k*k]` weights for the direct kernel: one `c_out`-wide
/// row per patch tap, the `kx` taps of each `(ci, ky)` ordered by phase
/// ([`packed_tap`]; zero rows pad a phase with fewer taps), so that the
/// taps one input pixel feeds along x land on ascending output columns in
/// ascending packed rows and fuse into one contiguous run.
fn pack_weights(src: &[f32], spec: &Conv2dSpec, out: &mut [f32]) {
    let (co, pl) = (spec.out_channels, spec.patch_len());
    debug_assert_eq!((src.len(), out.len()), (co * pl, packed_len(spec)));
    out.fill(0.0);
    for i in 0..co {
        for (p, &v) in src[i * pl..(i + 1) * pl].iter().enumerate() {
            out[packed_tap(p, spec) * co + i] = v;
        }
    }
}

/// Gradients of a convolution: `(grad_input, grad_weight, grad_bias)` of the
/// output gradient `grad_out` (`[n, c_out, oh, ow]`) at the forward's `input`
/// (`[n, c_in, h, w]`), by two direct kernels that never unfold `input` (see
/// the module docs), bitwise identical to [`conv2d_backward_im2col`]. The
/// input and weight gradients and every activation-sized scratch come from
/// `ws`; a training loop parks them again once it has used them.
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
    ws: &mut Workspace,
) -> Result<(Tensor, Tensor, Tensor)> {
    let ([n, c, h, w], (oh, ow)) = check_backward(grad_out, input, weight, spec)?;
    let (co, pl) = (spec.out_channels, spec.patch_len());
    let mut gmat = ws.take_overwrite(n * oh * ow * co);
    let rows = Reorder::NchwToRows { nchw: grad_out.data(), rows: &mut gmat };
    simd::conv_epilogue(rows, [n, co, oh, ow]);
    let (x, g) = (input.data(), &gmat[..]);
    // dW: the scan over x into packed [pl, co] rows
    let mut packed = ws.take(packed_len(spec));
    if n * oh * ow > 0 {
        // nonzero-pass scratch: a plane's words per input channel
        let mut words = ws.take_words(c * nonzero_words_len(h * w));
        let input = (x, &mut words[..]);
        simd::conv_weight_grad_chunk(input, [n, c, h, w], (oh, ow), g, *spec, &mut packed);
        ws.recycle_words(words);
    }
    let mut grad_weight = ws.take_overwrite(co * pl);
    for (o, dst) in grad_weight.chunks_exact_mut(pl).enumerate() {
        for (tap, v) in dst.iter_mut().enumerate() {
            *v = packed[packed_tap(tap, spec) * co + o];
        }
    }
    ws.recycle(packed);
    // dX: gradient rows × W folded into the input, by sample
    let mut grad_input = ws.take(n * c * h * w);
    let (sample_len, tile) = (c * h * w, oh * ow * co);
    if n * sample_len > 0 {
        let (wd, mut row, mut nz) = (weight.data(), vec![0.0f32; pl], vec![0usize; co]);
        for (ni, dx) in grad_input.chunks_mut(sample_len).enumerate() {
            let g = &g[ni * tile..][..tile];
            let scratch = (&mut row[..], &mut nz[..]);
            simd::conv_input_grad_sample(g, wd, [c, h, w], (oh, ow), *spec, scratch, dx);
        }
    }
    let gmat = Tensor::from_aligned(gmat, &[n * oh * ow, co])?;
    let grad_bias = gmat.sum_rows()?;
    ws.recycle_tensor(gmat);
    let grad_input = Tensor::from_aligned(grad_input, &[n, c, h, w])?;
    Ok((grad_input, Tensor::from_aligned(grad_weight, &[co, pl])?, grad_bias))
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
/// within each `(ci, ky)` block ([`block_rows`]) the taps by phase
/// `r = kx mod s`, the highest phase first, each phase `⌈k/s⌉` rows: its
/// taps in descending `kx`, then zero rows up to that count. At stride 1
/// that is the `kx` taps reversed; for a 3×3 at stride 2 it is
/// `kx = 1, 0-row, 2, 0`. A spike's run of `⌈k/s⌉` rows from its phase's
/// first tap then never reaches another phase's taps.
fn packed_tap(p: usize, spec: &Conv2dSpec) -> usize {
    let (k, s) = (spec.kernel, spec.stride);
    let (kx, r) = (p % k, p % k % s);
    p / k * block_rows(k, s) + phase_start(r, k, s) + phase_taps(r, k, s) - 1 - kx / s
}

/// Floats of [`pack_weights`]' layout: `c_in·k` blocks of [`block_rows`]
/// `c_out`-wide rows.
fn packed_len(spec: &Conv2dSpec) -> usize {
    let (k, s) = (spec.kernel, spec.stride);
    spec.in_channels * k * block_rows(k, s) * spec.out_channels
}

/// `[n, c, oh, ow]` → `[n*oh*ow, c]` row matrix ([`simd::conv_epilogue`]
/// reversed).
fn nchw_to_rows(t: &Tensor, dims: [usize; 4]) -> Tensor {
    let [n, c, oh, ow] = dims;
    let mut out = Tensor::zeros(&[n * oh * ow, c]);
    simd::conv_epilogue(Reorder::NchwToRows { nchw: t.data(), rows: out.data_mut() }, dims);
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
        let (gx, gw, gb) = conv2d_backward(&gy, &x, &w, &spec, &mut Workspace::new()).unwrap();

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
        let mut ws = Workspace::new();
        let mut direct = |g: &Tensor, x: &Tensor, w: &Tensor| {
            conv2d_backward(g, x, w, &spec, &mut ws).map(|_| ())
        };
        assert!(direct(&Tensor::ones(&good), &x, &w).is_ok());
        for dims in [
            &[1, 3, 3, 3][..], // n
            &[3, 3, 3, 3],     // n
            &[2, 4, 3, 3],     // c_out
            &[2, 3, 2, 3],     // oh
            &[2, 3, 3, 4],     // ow
            &[2, 3, 9],        // rank
        ] {
            let g = Tensor::ones(dims);
            for err in [direct(&g, &x, &w), conv2d_backward_im2col(&g, &x, &w, &spec).map(|_| ())] {
                assert!(matches!(err, Err(TensorError::ShapeMismatch { .. })), "{dims:?}");
            }
        }
        // an input or weight that disagrees with the spec
        let g = Tensor::ones(&good);
        assert!(direct(&g, &Tensor::ones(&[2, 3, 5, 5]), &w).is_err());
        assert!(direct(&g, &x, &Tensor::ones(&[3, 17])).is_err());
        assert!(direct(&g, &Tensor::ones(&[2, 5, 5]), &w).is_err());
    }

    #[test]
    fn packing_orders_each_block_by_phase_then_descending_kx() {
        for k in 1..=6 {
            for s in 1..=4 {
                let spec = Conv2dSpec::new(2, 1, k, s, 0).unwrap();
                let (m, bk) = (k.div_ceil(s), block_rows(k, s));
                // the highest phase with taps first, each its taps descending
                // and then zero rows up to ⌈k/s⌉
                let want: Vec<Option<usize>> = (0..s.min(k))
                    .rev()
                    .flat_map(|r| {
                        let taps = (0..k).rev().filter(move |kx| kx % s == r).map(Some);
                        taps.chain(std::iter::repeat(None)).take(m)
                    })
                    .collect();
                assert_eq!(want.len(), bk);
                for block in 0..2 * k {
                    let mut order = vec![None; bk];
                    for kx in 0..k {
                        let slot = packed_tap(block * k + kx, &spec);
                        assert_eq!(slot / bk, block, "k={k} s={s}: a tap left its (ci, ky) block");
                        assert_eq!(order[slot % bk], None, "k={k} s={s}: two taps in one row");
                        order[slot % bk] = Some(kx);
                    }
                    assert_eq!(order, want, "k={k} s={s}");
                }
                assert_eq!(packed_len(&spec), 2 * k * bk);
            }
        }
        let order = |s| {
            let spec = Conv2dSpec::new(1, 1, 3, s, 1).unwrap();
            let mut order = vec![None; block_rows(3, s)];
            for kx in 0..3 {
                order[packed_tap(kx, &spec)] = Some(kx);
            }
            order
        };
        assert_eq!(order(1), [Some(2), Some(1), Some(0)]);
        assert_eq!(order(2), [Some(1), None, Some(2), Some(0)]);
        // the zero rows are zero, whatever the buffer held
        let spec = Conv2dSpec::new(1, 2, 3, 2, 1).unwrap();
        let mut out = vec![f32::NAN; packed_len(&spec)];
        pack_weights(&[1.0; 18], &spec, &mut out);
        for (row, v) in out.chunks_exact(2).enumerate() {
            assert_eq!(v, [[1.0; 2], [0.0; 2]][usize::from(row % 4 == 1)], "row {row}");
        }
    }

    #[test]
    fn tile_margins_hold_every_forward_run() {
        for k in 1..=5 {
            for s in 1..=3 {
                for pad in 0..=2 {
                    for w in 1..=20 {
                        let spec = Conv2dSpec::new(1, 1, k, s, pad).unwrap();
                        let Ok((_, ow)) = spec.output_hw(k, w) else {
                            continue;
                        };
                        let (left, right) = tile_margins(&spec, w, ow);
                        let tw = left + ow + right;
                        if s == 1 {
                            let margin = (k - 1).saturating_sub(pad);
                            assert_eq!((left, right), (margin, margin), "k={k} pad={pad} w={w}");
                        }
                        for ix in 0..w {
                            let t = (ix + pad) as isize;
                            let (k_, s_) = (k as isize, s as isize);
                            // ⌈(t + 1 − k) / s⌉, the first output column
                            let first = (t + 1 - k_ + s_ - 1).div_euclid(s_);
                            let live = (t % s_) < k_ && first < ow as isize;
                            if live {
                                let start = first + left as isize;
                                let tag = format!("k={k} s={s} pad={pad} w={w} ix={ix}");
                                assert!(start >= 0, "{tag}");
                                assert!(start + k.div_ceil(s) as isize <= tw as isize, "{tag}");
                            }
                        }
                    }
                }
            }
        }
        // one spare column right of a 3×3 at stride 2, none either side of
        // the 1×1 shortcut
        let spec = Conv2dSpec::new(1, 1, 3, 2, 1).unwrap();
        assert_eq!((tile_margins(&spec, 16, 8), tile_margins(&spec, 15, 8)), ((0, 1), (0, 1)));
        assert_eq!(tile_margins(&Conv2dSpec::new(1, 1, 1, 2, 0).unwrap(), 16, 8), (0, 0));
    }

    #[test]
    fn macs_counts_products() {
        let spec = Conv2dSpec::new(3, 8, 3, 1, 1).unwrap();
        // 16x16 out, 8 filters, 27 taps each
        assert_eq!(spec.macs(16, 16).unwrap(), 16 * 16 * 8 * 27);
    }
}
