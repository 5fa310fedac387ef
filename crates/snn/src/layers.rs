//! Stateless and learnable layers: convolution, linear, normalization,
//! pooling, dropout, flatten, and residual composition.
//!
//! All layers obey the per-timestep forward / reverse-time backward contract
//! of [`Layer`]. Convolution runs the direct scatter kernel over a packed
//! weight plan in both modes; backward runs the direct gradient kernels over
//! the cached (sparse, binary) input spikes, never an unfolding of them.

use crate::layer::{retire, Layer, Mode, Param};
use crate::lif::{LifConfig, LifNeuron};
use crate::{Result, SnnError};
use dtsnn_tensor::{
    avg_pool2d_backward, avg_pool2d_ws, conv2d_backward, conv2d_ws_quant, linear_ws_quant, simd,
    Conv2dSpec, ConvPlan, LinearPlan, PoolSpec, QuantizedWeights, Tensor, TensorError, TensorRng,
    Workspace,
};

/// [`Layer::backend`] of a weight layer: the int8 kernels iff
/// [`Layer::quantize_weights`] opted it in, the f32 ones otherwise.
fn backend_name(quant_bits: Option<u32>) -> &'static str {
    if quant_bits.is_some() {
        "quantized"
    } else {
        "dense"
    }
}

// ===========================================================================
// Conv2d
// ===========================================================================

/// A 2-D convolution layer (weights `[c_out, c_in·k·k]`, bias `[c_out]`).
#[derive(Debug, Clone)]
pub struct Conv2d {
    spec: Conv2dSpec,
    weight: Param,
    bias: Param,
    /// Cached inputs per timestep (training only).
    inputs: Vec<Tensor>,
    /// On-grid weight codes for the quantized Eval backend (lazy cache,
    /// invalidated whenever the weights are touched).
    quant: Option<QuantizedWeights>,
    /// `Some(bits)` once [`Layer::quantize_weights`] opted this layer in.
    quant_bits: Option<u32>,
    /// Weights packed for the direct kernel (lazy cache, invalidated
    /// wherever `quant` is). A clone owns its own copy.
    plan: Option<ConvPlan>,
}

impl Conv2d {
    /// Creates a Kaiming-initialized convolution.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::Tensor`] for invalid geometry.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut TensorRng,
    ) -> Result<Self> {
        let spec = Conv2dSpec::new(in_channels, out_channels, kernel, stride, padding)?;
        let fan_in = spec.patch_len();
        let weight = Param::new(Tensor::kaiming(&spec.weight_dims(), fan_in, rng), true);
        let bias = Param::new(Tensor::zeros(&[out_channels]), false);
        Ok(Conv2d {
            spec,
            weight,
            bias,
            inputs: Vec::new(),
            quant: None,
            quant_bits: None,
            plan: None,
        })
    }

    /// The convolution geometry.
    pub fn spec(&self) -> &Conv2dSpec {
        &self.spec
    }

    /// Read access to the weight matrix (for the IMC mapper / noise injector).
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// Mutable access to the weight matrix (for device-noise injection).
    pub fn weight_mut(&mut self) -> &mut Tensor {
        self.invalidate_packed(); // weights may change
        &mut self.weight.value
    }

    /// Drops the caches derived from the weights: the on-grid codes and the
    /// packed plan. Both rebuild lazily on the next forward.
    fn invalidate_packed(&mut self) {
        self.quant = None;
        self.plan = None;
    }

    /// The direct kernel over the (lazily packed) plan.
    fn forward_packed(&mut self, input: &Tensor, ws: &mut Workspace) -> Result<Tensor> {
        if self.plan.is_none() {
            self.plan = Some(ConvPlan::new(&self.weight.value, &self.spec)?);
        }
        let plan = self.plan.as_ref().expect("plan ensured above");
        Ok(plan.forward(input, Some(&self.bias.value), ws)?)
    }

}

impl Layer for Conv2d {
    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Result<Tensor> {
        // the int8 kernel iff Eval and opted in (training never reads the
        // on-grid codes), the direct f32 kernel otherwise
        let out = match self.quant_bits.filter(|_| mode == Mode::Eval) {
            None => self.forward_packed(input, ws)?,
            Some(bits) => {
                if self.quant.is_none() {
                    self.quant = Some(QuantizedWeights::from_tensor(&self.weight.value, bits)?);
                }
                let qw = self.quant.as_ref().expect("cache ensured above");
                conv2d_ws_quant(input, qw, Some(&self.bias.value), &self.spec, ws)?
            }
        };
        if mode == Mode::Train {
            self.inputs.push(input.clone());
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let input = self.inputs.pop().ok_or(SnnError::MissingForwardCache("Conv2d"))?;
        let (gx, gw, gb) = conv2d_backward(grad_out, &input, &self.weight.value, &self.spec)?;
        self.weight.grad.axpy(1.0, &gw)?;
        self.bias.grad.axpy(1.0, &gb)?;
        Ok(gx)
    }

    fn reset_state_ws(&mut self, _ws: &mut Workspace) {
        self.inputs.clear();
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.invalidate_packed(); // visitors may mutate weights (optimizer, noise)
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn kind(&self) -> &'static str {
        "conv2d"
    }

    fn backend(&self) -> Option<&'static str> {
        Some(backend_name(self.quant_bits))
    }

    fn quantize_weights(&mut self, bits: u32) {
        self.quant_bits = Some(bits);
        self.invalidate_packed(); // codes rebuilt lazily at the new width
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

// ===========================================================================
// Linear
// ===========================================================================

/// A fully connected layer (weights `[out, in]`, bias `[out]`).
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Param,
    bias: Param,
    inputs: Vec<Tensor>,
    /// On-grid weight codes for the quantized Eval backend (lazy cache,
    /// invalidated whenever the weights are touched).
    quant: Option<QuantizedWeights>,
    /// `Some(bits)` once [`Layer::quantize_weights`] opted this layer in.
    quant_bits: Option<u32>,
    /// Weights packed for the linear kernel (lazy cache, invalidated
    /// wherever `quant` is). A clone owns its own copy.
    plan: Option<LinearPlan>,
}

impl Linear {
    /// Creates a Kaiming-initialized linear layer.
    pub fn new(in_features: usize, out_features: usize, rng: &mut TensorRng) -> Self {
        let weight = Param::new(Tensor::kaiming(&[out_features, in_features], in_features, rng), true);
        let bias = Param::new(Tensor::zeros(&[out_features]), false);
        Linear { weight, bias, inputs: Vec::new(), quant: None, quant_bits: None, plan: None }
    }

    /// Drops the caches derived from the weights: the on-grid codes and the
    /// packed plan. Both rebuild lazily on the next forward.
    fn invalidate_packed(&mut self) {
        self.quant = None;
        self.plan = None;
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.value.dims()[0]
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.value.dims()[1]
    }

    /// Read access to the weight matrix.
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// Mutable access to the weight matrix (for device-noise injection).
    pub fn weight_mut(&mut self) -> &mut Tensor {
        self.invalidate_packed(); // weights may change
        &mut self.weight.value
    }
}

impl Layer for Linear {
    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Result<Tensor> {
        // y = x Wᵀ + b ; x is [n, in]. The int8 kernel iff Eval and opted in
        // (training never reads the on-grid codes), the f32 one over the
        // (lazily packed) plan otherwise.
        let out = match self.quant_bits.filter(|_| mode == Mode::Eval) {
            None => {
                if self.plan.is_none() {
                    self.plan = Some(LinearPlan::new(&self.weight.value)?);
                }
                let plan = self.plan.as_ref().expect("plan ensured above");
                plan.forward(input, &self.bias.value, ws)?
            }
            Some(bits) => {
                if self.quant.is_none() {
                    self.quant = Some(QuantizedWeights::from_tensor(&self.weight.value, bits)?);
                }
                let qw = self.quant.as_ref().expect("cache ensured above");
                linear_ws_quant(input, qw, &self.bias.value, ws)?
            }
        };
        if mode == Mode::Train {
            self.inputs.push(input.clone());
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let input = self.inputs.pop().ok_or(SnnError::MissingForwardCache("Linear"))?;
        // dW = gᵀ x  ([out, n]×[n, in])
        let gw = grad_out.matmul_tn(&input)?;
        let gb = grad_out.sum_rows()?;
        self.weight.grad.axpy(1.0, &gw)?;
        self.bias.grad.axpy(1.0, &gb)?;
        // dx = g W  ([n, out]×[out, in])
        Ok(grad_out.matmul(&self.weight.value)?)
    }

    fn reset_state_ws(&mut self, _ws: &mut Workspace) {
        self.inputs.clear();
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.invalidate_packed(); // visitors may mutate weights (optimizer, noise)
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn kind(&self) -> &'static str {
        "linear"
    }

    fn backend(&self) -> Option<&'static str> {
        Some(backend_name(self.quant_bits))
    }

    fn quantize_weights(&mut self, bits: u32) {
        self.quant_bits = Some(bits);
        self.invalidate_packed(); // codes rebuilt lazily at the new width
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

// ===========================================================================
// BatchNorm2d (tdBN-style)
// ===========================================================================

/// Per-timestep cache for BN backward.
#[derive(Debug, Clone)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
}

/// Channel-wise batch normalization over `[n, c, h, w]` activations for
/// spiking networks, tdBN-style \[23\]: one set of statistics **shared
/// across timesteps** (estimated as an EMA over batches and timesteps, used
/// as constants in both training and inference). Because the membrane
/// charges over time, early timesteps are systematically under-normalized —
/// exactly the effect that makes first-timestep accuracy poor under the
/// conventional loss (Eq. 9) and lets the per-timestep loss (Eq. 10) repair
/// it (the paper's Fig. 7 ablation).
///
/// The tdBN-flavoured initialization `γ = α·V_th` \[23\] is available via
/// [`BatchNorm2d::tdbn`].
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    /// Running mean per channel (identity statistics until trained).
    running_mean: Vec<f32>,
    /// Running variance per channel.
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    caches: Vec<BnCache>,
}

impl BatchNorm2d {
    /// Standard BN with `γ = 1`.
    pub fn new(channels: usize) -> Self {
        Self::tdbn(channels, 1.0)
    }

    /// tdBN initialization: `γ = alpha_vth` (= α·V_th in \[23\]).
    pub fn tdbn(channels: usize, alpha_vth: f32) -> Self {
        BatchNorm2d {
            gamma: Param::new(Tensor::full(&[channels], alpha_vth), false),
            beta: Param::new(Tensor::zeros(&[channels]), false),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            eps: 1e-5,
            caches: Vec::new(),
        }
    }

    /// Number of normalized channels.
    pub fn channels(&self) -> usize {
        self.gamma.value.len()
    }

    fn check_input(&self, input: &Tensor) -> Result<(usize, usize, usize, usize)> {
        let d = input.dims();
        if d.len() != 4 {
            return Err(SnnError::BadInput(format!("batchnorm expects NCHW, got {d:?}")));
        }
        if d[1] != self.channels() {
            return Err(SnnError::BadInput(format!(
                "batchnorm has {} channels, input has {}",
                self.channels(),
                d[1]
            )));
        }
        Ok((d[0], d[1], d[2], d[3]))
    }
}

impl Layer for BatchNorm2d {
    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Result<Tensor> {
        let (n, c, h, w) = self.check_input(input)?;
        let plane = h * w;
        // either arm writes every element exactly once
        let mut out = ws.take_overwrite(input.len());
        match mode {
            Mode::Train => {
                let m = (n * plane) as f32;
                // Batch statistics of this timestep update the one EMA: all
                // timesteps feed it, pooling statistics over time as tdBN
                // does.
                for ci in 0..c {
                    let mut mean = 0.0;
                    for ni in 0..n {
                        let base = (ni * c + ci) * plane;
                        for p in 0..plane {
                            mean += input.data()[base + p];
                        }
                    }
                    mean /= m;
                    let mut var = 0.0;
                    for ni in 0..n {
                        let base = (ni * c + ci) * plane;
                        for p in 0..plane {
                            let d = input.data()[base + p] - mean;
                            var += d * d;
                        }
                    }
                    var /= m;
                    self.running_mean[ci] =
                        (1.0 - self.momentum) * self.running_mean[ci] + self.momentum * mean;
                    self.running_var[ci] =
                        (1.0 - self.momentum) * self.running_var[ci] + self.momentum * var;
                }
                // Normalize with the (updated) EMA statistics, treated as
                // constants — training and inference see the same transform,
                // which is what lets Eq. 10 supervision repair early
                // timesteps under shared statistics.
                let mut x_hat = Tensor::zeros(input.dims());
                let mut inv_stds = vec![0.0f32; c];
                for (ci, inv_slot) in inv_stds.iter_mut().enumerate() {
                    let mean = self.running_mean[ci];
                    let inv_std = 1.0 / (self.running_var[ci] + self.eps).sqrt();
                    *inv_slot = inv_std;
                    let g = self.gamma.value.data()[ci];
                    let b = self.beta.value.data()[ci];
                    for ni in 0..n {
                        let base = (ni * c + ci) * plane;
                        for p in 0..plane {
                            let xh = (input.data()[base + p] - mean) * inv_std;
                            x_hat.data_mut()[base + p] = xh;
                            out[base + p] = g * xh + b;
                        }
                    }
                }
                self.caches.push(BnCache { x_hat, inv_std: inv_stds });
            }
            Mode::Eval => {
                for ci in 0..c {
                    let inv_std = 1.0 / (self.running_var[ci] + self.eps).sqrt();
                    let mean = self.running_mean[ci];
                    let g = self.gamma.value.data()[ci];
                    let b = self.beta.value.data()[ci];
                    for ni in 0..n {
                        let base = (ni * c + ci) * plane;
                        simd::bn_affine(
                            &mut out[base..base + plane],
                            &input.data()[base..base + plane],
                            g,
                            mean,
                            inv_std,
                            b,
                        );
                    }
                }
            }
        }
        Ok(Tensor::from_aligned(out, input.dims())?)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let cache = self.caches.pop().ok_or(SnnError::MissingForwardCache("BatchNorm2d"))?;
        let d = grad_out.dims();
        let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
        let plane = h * w;
        let mut gx = Tensor::zeros(grad_out.dims());
        // Statistics are EMA constants, so the transform is affine per
        // channel: dx = dy·γ·inv_std, dγ = Σ dy·x̂, dβ = Σ dy.
        for ci in 0..c {
            let g = self.gamma.value.data()[ci];
            let inv_std = cache.inv_std[ci];
            let mut sum_dy = 0.0;
            let mut sum_dy_xh = 0.0;
            let k = g * inv_std;
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                for p in 0..plane {
                    let dy = grad_out.data()[base + p];
                    sum_dy += dy;
                    sum_dy_xh += dy * cache.x_hat.data()[base + p];
                    gx.data_mut()[base + p] = k * dy;
                }
            }
            self.beta.grad.data_mut()[ci] += sum_dy;
            self.gamma.grad.data_mut()[ci] += sum_dy_xh;
        }
        Ok(gx)
    }

    fn reset_state_ws(&mut self, _ws: &mut Workspace) {
        self.caches.clear();
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn freeze_stats(&mut self) {
        // With zero momentum the EMA update is the identity, so Train-mode
        // forward normalizes with constants and backward (which already
        // treats the statistics as constants) is its exact adjoint.
        self.momentum = 0.0;
    }

    fn kind(&self) -> &'static str {
        "batchnorm2d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

// ===========================================================================
// AvgPool2d / Flatten / Dropout
// ===========================================================================

/// `input`'s elements under new `dims`, in an arena buffer.
pub(crate) fn copy_through(input: &Tensor, dims: &[usize], ws: &mut Workspace) -> Result<Tensor> {
    let mut out = ws.take_overwrite(input.len());
    out.copy_from_slice(input.data());
    Ok(Tensor::from_aligned(out, dims)?)
}

/// Average pooling layer.
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    spec: PoolSpec,
    input_hw: Vec<(usize, usize)>,
}

impl AvgPool2d {
    /// Creates a pool with a square window of `kernel`, stride = kernel.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::Tensor`] for zero extents.
    pub fn new(kernel: usize) -> Result<Self> {
        Ok(AvgPool2d { spec: PoolSpec::new(kernel, kernel)?, input_hw: Vec::new() })
    }
}

impl Layer for AvgPool2d {
    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Result<Tensor> {
        let out = avg_pool2d_ws(input, &self.spec, ws)?;
        if mode == Mode::Train {
            self.input_hw.push((input.dims()[2], input.dims()[3]));
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let hw = self.input_hw.pop().ok_or(SnnError::MissingForwardCache("AvgPool2d"))?;
        Ok(avg_pool2d_backward(grad_out, &self.spec, hw)?)
    }

    fn reset_state_ws(&mut self, _ws: &mut Workspace) {
        self.input_hw.clear();
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn kind(&self) -> &'static str {
        "avgpool2d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Reshapes `[n, c, h, w]` → `[n, c·h·w]`.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    input_dims: Vec<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten::default()
    }
}

impl Layer for Flatten {
    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Result<Tensor> {
        let d = input.dims();
        if d.len() < 2 {
            return Err(SnnError::BadInput(format!("flatten expects rank ≥ 2, got {d:?}")));
        }
        let n = d[0];
        let rest: usize = d[1..].iter().product();
        if mode == Mode::Train {
            self.input_dims.push(d.to_vec());
        }
        copy_through(input, &[n, rest], ws)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let dims = self.input_dims.pop().ok_or(SnnError::MissingForwardCache("Flatten"))?;
        Ok(grad_out.reshape(&dims)?)
    }

    fn reset_state_ws(&mut self, _ws: &mut Workspace) {
        self.input_dims.clear();
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn kind(&self) -> &'static str {
        "flatten"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Inverted dropout: active only in [`Mode::Train`].
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    rng: TensorRng,
    masks: Vec<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p ∈ [0, 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] for `p` outside `[0, 1)`.
    pub fn new(p: f32, rng: &mut TensorRng) -> Result<Self> {
        if !(0.0..1.0).contains(&p) {
            return Err(SnnError::InvalidConfig(format!("dropout p must be in [0,1), got {p}")));
        }
        Ok(Dropout { p, rng: rng.fork(0xD0), masks: Vec::new() })
    }
}

impl Layer for Dropout {
    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Result<Tensor> {
        if mode == Mode::Eval || self.p == 0.0 {
            // the identity; copied so the caller's recycle discipline stays
            // uniform
            return copy_through(input, input.dims(), ws);
        }
        let keep = 1.0 - self.p;
        let mut mask = Tensor::zeros(input.dims());
        for v in mask.data_mut() {
            *v = if self.rng.bernoulli(keep) { 1.0 / keep } else { 0.0 };
        }
        let out = input.mul(&mask)?;
        self.masks.push(mask);
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let mask = self.masks.pop().ok_or(SnnError::MissingForwardCache("Dropout"))?;
        Ok(grad_out.mul(&mask)?)
    }

    fn reset_state_ws(&mut self, _ws: &mut Workspace) {
        self.masks.clear();
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn kind(&self) -> &'static str {
        "dropout"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

// ===========================================================================
// ResidualBlock
// ===========================================================================

/// A spiking residual block: `LIF(main(x) + shortcut(x))`.
///
/// The main path is typically `Conv-BN-LIF-Conv-BN`; the shortcut is empty
/// (identity) or a projection `Conv1x1-BN`. The joining LIF keeps the output
/// binary, as in spiking ResNets trained with tdBN \[23\].
pub struct ResidualBlock {
    main: Vec<Box<dyn Layer>>,
    shortcut: Vec<Box<dyn Layer>>,
    join: LifNeuron,
}

impl Clone for ResidualBlock {
    fn clone(&self) -> Self {
        ResidualBlock {
            main: self.main.clone(),
            shortcut: self.shortcut.clone(),
            join: self.join.clone(),
        }
    }
}

impl std::fmt::Debug for ResidualBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResidualBlock")
            .field("main_layers", &self.main.len())
            .field("shortcut_layers", &self.shortcut.len())
            .finish()
    }
}

impl ResidualBlock {
    /// Creates a residual block; `shortcut` may be empty for identity.
    pub fn new(
        main: Vec<Box<dyn Layer>>,
        shortcut: Vec<Box<dyn Layer>>,
        lif: LifConfig,
    ) -> Self {
        ResidualBlock { main, shortcut, join: LifNeuron::new(lif) }
    }

    /// Every child, main → shortcut → join: the one walk behind each call
    /// the block forwards (the container contract of [`Layer`]).
    fn each_child(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        for l in self.main.iter_mut().chain(&mut self.shortcut) {
            f(l.as_mut());
        }
        f(&mut self.join);
    }
}

/// Runs `input` through one branch, retiring each intermediate as soon as
/// the next layer has consumed it. `None` stands for "still the block
/// input" (an empty branch), which the caller owns.
fn run_branch(
    branch: &mut [Box<dyn Layer>],
    input: &Tensor,
    mode: Mode,
    ws: &mut Workspace,
) -> Result<Option<Tensor>> {
    let mut x: Option<Tensor> = None;
    for l in branch {
        let y = l.forward_ws(x.as_ref().unwrap_or(input), mode, ws)?;
        if let Some(prev) = x.replace(y) {
            retire(ws, mode, prev);
        }
    }
    Ok(x)
}

impl Layer for ResidualBlock {
    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Result<Tensor> {
        let m = run_branch(&mut self.main, input, mode, ws)?;
        let s = run_branch(&mut self.shortcut, input, mode, ws)?;
        let (mt, st) = (m.as_ref().unwrap_or(input), s.as_ref().unwrap_or(input));
        if mt.dims() != st.dims() {
            return Err(SnnError::from(TensorError::ShapeMismatch {
                expected: mt.dims().to_vec(),
                actual: st.dims().to_vec(),
            }));
        }
        let mut j = ws.take_overwrite(mt.len());
        for ((o, &a), &b) in j.iter_mut().zip(mt.data()).zip(st.data()) {
            *o = a + b;
        }
        let joined = Tensor::from_aligned(j, mt.dims())?;
        for t in [m, s].into_iter().flatten() {
            retire(ws, mode, t);
        }
        let out = self.join.forward_ws(&joined, mode, ws)?;
        retire(ws, mode, joined);
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let g = self.join.backward(grad_out)?;
        let mut gm = g.clone();
        for l in self.main.iter_mut().rev() {
            gm = l.backward(&gm)?;
        }
        let mut gs = g;
        for l in self.shortcut.iter_mut().rev() {
            gs = l.backward(&gs)?;
        }
        Ok(gm.add(&gs)?)
    }

    fn reset_state_ws(&mut self, ws: &mut Workspace) {
        self.each_child(&mut |l| l.reset_state_ws(ws));
    }

    fn visit_carried(&mut self, f: &mut dyn FnMut(&mut Option<Tensor>)) {
        self.each_child(&mut |l| l.visit_carried(f));
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.each_child(&mut |l| l.visit_params(f));
    }

    fn freeze_stats(&mut self) {
        self.each_child(&mut |l| l.freeze_stats());
    }

    fn quantize_weights(&mut self, bits: u32) {
        self.each_child(&mut |l| l.quantize_weights(bits));
    }

    fn kind(&self) -> &'static str {
        "residual"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn last_spike_density(&self) -> Option<f32> {
        self.join.last_spike_density()
    }

    fn last_spike_row_densities(&self) -> Option<&[f32]> {
        self.join.last_spike_row_densities()
    }

    fn backend_choices(&self, name: &str, out: &mut Vec<(String, &'static str)>) {
        for (i, l) in self.main.iter().enumerate() {
            l.backend_choices(&format!("{name}.main{i}"), out);
        }
        for (i, l) in self.shortcut.iter().enumerate() {
            l.backend_choices(&format!("{name}.shortcut{i}"), out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> TensorRng {
        TensorRng::seed_from(42)
    }

    #[test]
    fn linear_forward_backward_shapes() {
        let mut r = rng();
        let mut lin = Linear::new(4, 3, &mut r);
        let x = Tensor::ones(&[2, 4]);
        let y = lin.forward_ws(&x, Mode::Train, &mut Workspace::new()).unwrap();
        assert_eq!(y.dims(), &[2, 3]);
        let gx = lin.backward(&Tensor::ones(&[2, 3])).unwrap();
        assert_eq!(gx.dims(), &[2, 4]);
        assert!(matches!(lin.backward(&Tensor::ones(&[2, 3])), Err(SnnError::MissingForwardCache(_))));
    }

    #[test]
    fn linear_gradient_matches_finite_difference() {
        let mut r = rng();
        let mut lin = Linear::new(3, 2, &mut r);
        let x = Tensor::randn(&[2, 3], 0.0, 1.0, &mut r);
        let y = lin.forward_ws(&x, Mode::Train, &mut Workspace::new()).unwrap();
        let loss0 = y.sum();
        lin.backward(&Tensor::ones(&[2, 2])).unwrap();
        let mut grads = Vec::new();
        lin.visit_params(&mut |p: &mut Param| grads.push(p.grad.clone()));
        // dL/dW[0,0] for L = Σy is Σ_batch x[:,0]
        let expect = x.data()[0] + x.data()[3];
        assert!((grads[0].data()[0] - expect).abs() < 1e-5);
        // perturb W[0,0] and confirm numerically
        let eps = 1e-2;
        lin.reset_state_ws(&mut Workspace::new());
        lin.weight_mut().data_mut()[0] += eps;
        let y2 = lin.forward_ws(&x, Mode::Eval, &mut Workspace::new()).unwrap();
        let num = (y2.sum() - loss0) / eps;
        assert!((num - grads[0].data()[0]).abs() < 1e-2, "num={num} ana={}", grads[0].data()[0]);
    }

    #[test]
    fn linear_train_forward_equals_eval_forward_bitwise() {
        let mut r = rng();
        let mut lin = Linear::new(40, 7, &mut r);
        lin.bias.value = Tensor::randn(&[7], 0.0, 0.1, &mut r);
        let mut spikes = Tensor::zeros(&[5, 40]);
        for v in spikes.data_mut() {
            *v = f32::from(u8::from(r.bernoulli(0.2)));
        }
        let bits = |t: Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut ws = Workspace::new();
        for x in [spikes, Tensor::randn(&[5, 40], 0.0, 1.0, &mut r)] {
            let train = bits(lin.forward_ws(&x, Mode::Train, &mut ws).unwrap());
            assert_eq!(train, bits(lin.forward_ws(&x, Mode::Eval, &mut ws).unwrap()));
            // training never reads the on-grid codes
            let mut quantized = lin.clone();
            quantized.quantize_weights(4);
            assert_eq!(train, bits(quantized.forward_ws(&x, Mode::Train, &mut ws).unwrap()));
            assert_ne!(train, bits(quantized.forward_ws(&x, Mode::Eval, &mut ws).unwrap()));
        }
    }

    #[test]
    fn conv_layer_roundtrip_and_grad_accumulation() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, &mut r).unwrap();
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let y = conv.forward_ws(&x, Mode::Train, &mut Workspace::new()).unwrap();
        assert_eq!(y.dims(), &[1, 2, 4, 4]);
        conv.backward(&Tensor::ones(y.dims())).unwrap();
        let mut total = 0.0;
        conv.visit_params(&mut |p| total += p.grad.norm_sq());
        assert!(total > 0.0);
    }

    #[test]
    fn batchnorm_converges_to_unit_stats() {
        // EMA statistics converge to the input distribution, so outputs
        // approach mean β = 0, std γ = 1.
        let mut bn = BatchNorm2d::new(2);
        let mut r = rng();
        let mut y = Tensor::zeros(&[8, 2, 3, 3]);
        for _ in 0..80 {
            let x = Tensor::randn(&[8, 2, 3, 3], 5.0, 2.0, &mut r);
            y = bn.forward_ws(&x, Mode::Train, &mut Workspace::new()).unwrap();
            bn.reset_state_ws(&mut Workspace::new());
        }
        let mean = y.mean();
        let var = y.data().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / y.len() as f32;
        assert!(mean.abs() < 0.15, "mean={mean}");
        assert!((var - 1.0).abs() < 0.25, "var={var}");
    }

    #[test]
    fn tdbn_gamma_scales_output() {
        let mut bn = BatchNorm2d::tdbn(1, 2.0);
        let mut r = rng();
        let mut y = Tensor::zeros(&[8, 1, 4, 4]);
        for _ in 0..80 {
            let x = Tensor::randn(&[8, 1, 4, 4], 0.0, 1.0, &mut r);
            y = bn.forward_ws(&x, Mode::Train, &mut Workspace::new()).unwrap();
            bn.reset_state_ws(&mut Workspace::new());
        }
        let mean = y.mean();
        let var = y.data().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / y.len() as f32;
        assert!((var - 4.0).abs() < 1.0, "var={var}");
    }

    #[test]
    fn batchnorm_eval_matches_train_transform() {
        // After warm-up, Train and Eval apply the same affine transform
        // (both use the EMA statistics) — train/eval consistency is the point
        // of constant-statistics normalization.
        let mut bn = BatchNorm2d::new(1);
        let mut r = rng();
        for _ in 0..50 {
            let x = Tensor::randn(&[16, 1, 2, 2], 3.0, 1.0, &mut r);
            bn.forward_ws(&x, Mode::Train, &mut Workspace::new()).unwrap();
            bn.reset_state_ws(&mut Workspace::new());
        }
        // A larger probe batch keeps the train-mode EMA update small, so the
        // residual Eval/Train gap is dominated by the momentum (0.1) times the
        // batch-statistic sampling error rather than by the stream draw.
        let x = Tensor::randn(&[16, 1, 2, 2], 3.0, 1.0, &mut r);
        let ye = bn.forward_ws(&x, Mode::Eval, &mut Workspace::new()).unwrap();
        bn.reset_state_ws(&mut Workspace::new());
        let yt = bn.forward_ws(&x, Mode::Train, &mut Workspace::new()).unwrap();
        bn.reset_state_ws(&mut Workspace::new());
        for (a, b) in ye.data().iter().zip(yt.data()) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn batchnorm_backward_gamma_beta_finite_difference() {
        let mut r = rng();
        let x = Tensor::randn(&[4, 1, 2, 2], 1.0, 2.0, &mut r);
        let mut bn = BatchNorm2d::new(1);
        // warm EMA so the transform is stable
        for _ in 0..30 {
            bn.forward_ws(&x, Mode::Train, &mut Workspace::new()).unwrap();
            bn.reset_state_ws(&mut Workspace::new());
        }
        let y = bn.forward_ws(&x, Mode::Train, &mut Workspace::new()).unwrap();
        // loss = Σ y² / 2 → dL/dy = y
        let gx = bn.backward(&y).unwrap();
        // dx = dy·γ·inv_std: uniform positive scale of dy
        let ratio = gx.data()[0] / y.data()[0];
        for (g, v) in gx.data().iter().zip(y.data()) {
            assert!((g / v - ratio).abs() < 1e-4);
        }
        // gamma/beta grads: perturb and compare loss (statistics unaffected
        // by parameter perturbation, so FD is exact up to EMA drift)
        let mut grads = Vec::new();
        bn.visit_params(&mut |p: &mut Param| grads.push(p.grad.clone()));
        let loss0 = y.norm_sq() / 2.0;
        let eps = 1e-3;
        for (idx, _) in grads.iter().enumerate() {
            let mut bn2 = bn.clone();
            bn2.reset_state_ws(&mut Workspace::new());
            let mut which = 0;
            bn2.visit_params(&mut |p: &mut Param| {
                if which == idx {
                    p.value.data_mut()[0] += eps;
                }
                which += 1;
            });
            let y2 = bn2.forward_ws(&x, Mode::Eval, &mut Workspace::new()).unwrap();
            let num = (y2.norm_sq() / 2.0 - loss0) / eps;
            let ana = grads[idx].data()[0];
            assert!((num - ana).abs() / ana.abs().max(1.0) < 0.15,
                "param {idx}: fd {num} vs analytic {ana}");
        }
    }

    #[test]
    fn flatten_roundtrip() {
        let mut fl = Flatten::new();
        let x = Tensor::ones(&[2, 3, 4, 4]);
        let y = fl.forward_ws(&x, Mode::Train, &mut Workspace::new()).unwrap();
        assert_eq!(y.dims(), &[2, 48]);
        let g = fl.backward(&y).unwrap();
        assert_eq!(g.dims(), &[2, 3, 4, 4]);
    }

    #[test]
    fn dropout_eval_is_identity_train_scales() {
        let mut r = rng();
        let mut drop = Dropout::new(0.5, &mut r).unwrap();
        let x = Tensor::ones(&[1, 1000]);
        let ye = drop.forward_ws(&x, Mode::Eval, &mut Workspace::new()).unwrap();
        assert_eq!(ye, x);
        let yt = drop.forward_ws(&x, Mode::Train, &mut Workspace::new()).unwrap();
        // inverted dropout: E[y] = x, so the mean should be ≈ 1
        assert!((yt.mean() - 1.0).abs() < 0.1, "mean={}", yt.mean());
        // surviving values are scaled by 1/keep = 2
        assert!(yt.data().iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
        assert!(Dropout::new(1.0, &mut r).is_err());
    }

    #[test]
    fn residual_identity_shortcut_adds_input() {
        let mut r = rng();
        // main path: conv that is zero-initialized → output = LIF(0 + x)
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut r).unwrap();
        conv.visit_params(&mut |p| p.value.map_inplace(|_| 0.0));
        let lif = LifConfig { v_th: 0.5, ..LifConfig::default() };
        let mut block = ResidualBlock::new(vec![Box::new(conv)], vec![], lif);
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let y = block.forward_ws(&x, Mode::Eval, &mut Workspace::new()).unwrap();
        // x = 1 > v_th = 0.5 → all spike
        assert_eq!(y.sum(), 16.0);
        assert_eq!(block.last_spike_density(), Some(1.0));
    }

    #[test]
    fn residual_backward_splits_gradient() {
        let mut r = rng();
        let conv = Conv2d::new(1, 1, 3, 1, 1, &mut r).unwrap();
        let lif = LifConfig { v_th: 1.0, ..LifConfig::default() };
        let mut block = ResidualBlock::new(vec![Box::new(conv)], vec![], lif);
        let x = Tensor::full(&[1, 1, 4, 4], 0.9);
        block.forward_ws(&x, Mode::Train, &mut Workspace::new()).unwrap();
        let gx = block.backward(&Tensor::ones(&[1, 1, 4, 4])).unwrap();
        assert_eq!(gx.dims(), &[1, 1, 4, 4]);
    }

    #[test]
    fn batchnorm_eval_is_bitwise_invariant_across_simd_levels_and_threads() {
        // the one test of this binary that flips the process-wide overrides
        use dtsnn_tensor::{parallel, simd};
        let mut r = rng();
        let mut bn = BatchNorm2d::new(3);
        for _ in 0..10 {
            let x = Tensor::randn(&[4, 3, 5, 5], 1.0, 2.0, &mut r);
            bn.forward_ws(&x, Mode::Train, &mut Workspace::new()).unwrap();
            bn.reset_state_ws(&mut Workspace::new());
        }
        let x = Tensor::randn(&[4, 3, 5, 5], 1.0, 2.0, &mut r);
        let run = |level: simd::SimdLevel, threads: usize| {
            simd::with_level(level, || {
                parallel::with_threads(threads, || {
                    let mut b = bn.clone();
                    let mut ws = Workspace::new();
                    let y = b.forward_ws(&x, Mode::Eval, &mut ws).unwrap();
                    y.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                })
            })
        };
        let want = run(simd::SimdLevel::Scalar, 1);
        for &lvl in simd::SimdLevel::ALL.iter().filter(|&&l| l <= simd::detected()) {
            for threads in [1usize, 4] {
                assert_eq!(want, run(lvl, threads), "{lvl:?} threads={threads}");
            }
        }
    }
}
