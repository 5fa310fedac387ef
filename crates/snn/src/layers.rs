//! Stateless and learnable layers: convolution, linear, normalization,
//! pooling, flatten, and residual composition.
//!
//! All layers obey the per-timestep forward / reverse-time backward contract
//! of [`Layer`]. Convolution runs the direct scatter kernel over a packed
//! weight plan in both modes; backward runs the direct gradient kernels over
//! the cached (sparse, binary) input spikes, never an unfolding of them.

use crate::layer::{Layer, Mode, Param, State, WeightVisitor};
use crate::lif::{LifConfig, LifNeuron};
use crate::{LayerGeometry, Result, SnnError};
use dtsnn_tensor::{
    avg_pool2d_backward, avg_pool2d_ws, conv2d_backward, simd, Conv2dSpec, ConvPlan, LinearPlan,
    PoolSpec, Tensor, TensorError, TensorRng, Workspace,
};

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
    /// Weights packed for the direct kernel, repacked in place once `stale`
    /// (the weights may have changed). A clone owns its own copy.
    plan: ConvPlan,
    stale: bool,
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
        let plan = ConvPlan::new(&weight.value, &spec)?;
        Ok(Conv2d { spec, weight, bias, inputs: Vec::new(), plan, stale: false })
    }

    /// The convolution geometry.
    pub fn spec(&self) -> &Conv2dSpec {
        &self.spec
    }
}

impl Layer for Conv2d {
    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Result<Tensor> {
        // the direct kernel over the packed plan
        if self.stale {
            self.plan.repack(&self.weight.value)?;
            self.stale = false;
        }
        let out = self.plan.forward(input, Some(&self.bias.value), ws)?;
        if mode == Mode::Train {
            self.inputs.push(copy_through(input, input.dims(), ws)?);
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Result<Tensor> {
        let input = self.inputs.pop().ok_or(SnnError::MissingForwardCache("Conv2d"))?;
        let (gx, gw, gb) =
            conv2d_backward(grad_out, &input, &self.weight.value, &self.spec, ws)?;
        self.weight.grad.axpy(1.0, &gw)?;
        self.bias.grad.axpy(1.0, &gb)?;
        ws.recycle_tensor(input);
        ws.recycle_tensor(gw);
        Ok(gx)
    }

    fn reset_state_ws(&mut self, ws: &mut Workspace) {
        park_all(&mut self.inputs, ws);
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(State<'_>)) {
        self.stale = true; // visitors may mutate weights (optimizer, faults, load)
        f(State::Param(&mut self.weight));
        f(State::Param(&mut self.bias));
    }

    fn kind(&self) -> &'static str {
        "conv2d"
    }

    fn visit_weights(&self, input: &[usize], f: &mut WeightVisitor<'_>) -> Result<Vec<usize>> {
        let Conv2dSpec { in_channels, out_channels, kernel, stride, padding } = self.spec;
        let (in_h, in_w) = match *input {
            [c, h, w] if c == in_channels => (h, w),
            _ => return Err(takes("conv2d", &format!("[{in_channels}, h, w]"), input)),
        };
        let (oh, ow) = self.spec.output_hw(in_h, in_w)?;
        let geometry =
            LayerGeometry::Conv { in_channels, out_channels, kernel, stride, padding, in_h, in_w };
        f(geometry, false);
        Ok(vec![out_channels, oh, ow])
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
    /// Weights packed for the linear kernel, repacked in place once `stale`
    /// (the weights may have changed). A clone owns its own copy.
    plan: LinearPlan,
    stale: bool,
}

impl Linear {
    /// Creates a Kaiming-initialized linear layer.
    pub fn new(in_features: usize, out_features: usize, rng: &mut TensorRng) -> Self {
        let weight = Param::new(Tensor::kaiming(&[out_features, in_features], in_features, rng), true);
        let bias = Param::new(Tensor::zeros(&[out_features]), false);
        let plan = LinearPlan::new(&weight.value).expect("a weight matrix");
        Linear { weight, bias, inputs: Vec::new(), plan, stale: false }
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.value.dims()[0]
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.value.dims()[1]
    }
}

impl Layer for Linear {
    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Result<Tensor> {
        // y = x Wᵀ + b ; x is [n, in], over the packed plan
        if self.stale {
            self.plan.repack(&self.weight.value)?;
            self.stale = false;
        }
        let out = self.plan.forward(input, &self.bias.value, ws)?;
        if mode == Mode::Train {
            self.inputs.push(copy_through(input, input.dims(), ws)?);
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Result<Tensor> {
        let input = self.inputs.pop().ok_or(SnnError::MissingForwardCache("Linear"))?;
        // dW = gᵀ x  ([out, n]×[n, in]); the accumulation checks g is [n, out]
        let gw = grad_out.matmul_tn(&input)?;
        let gb = grad_out.sum_rows()?;
        self.weight.grad.axpy(1.0, &gw)?;
        self.bias.grad.axpy(1.0, &gb)?;
        ws.recycle_tensor(input);
        // dx = g W  ([n, out]×[out, in]) in an arena buffer: `Tensor::matmul`'s
        // sum per element, ascending over `out`, a zero gradient skipped
        let (n, k, out) = (grad_out.dims()[0], self.in_features(), self.out_features());
        let mut dx = ws.take(n * k);
        if k > 0 && out > 0 {
            let rows = dx.chunks_exact_mut(k).zip(grad_out.data().chunks_exact(out));
            for (dx_row, g_row) in rows {
                for (&g, w_row) in g_row.iter().zip(self.weight.value.data().chunks_exact(k)) {
                    if g != 0.0 {
                        for (d, &w) in dx_row.iter_mut().zip(w_row) {
                            *d += g * w;
                        }
                    }
                }
            }
        }
        Ok(Tensor::from_aligned(dx, &[n, k])?)
    }

    fn reset_state_ws(&mut self, ws: &mut Workspace) {
        park_all(&mut self.inputs, ws);
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(State<'_>)) {
        self.stale = true; // visitors may mutate weights (optimizer, faults, load)
        f(State::Param(&mut self.weight));
        f(State::Param(&mut self.bias));
    }

    fn kind(&self) -> &'static str {
        "linear"
    }

    fn visit_weights(&self, input: &[usize], f: &mut WeightVisitor<'_>) -> Result<Vec<usize>> {
        let (in_features, out_features) = (self.in_features(), self.out_features());
        if input != [in_features] {
            return Err(takes("linear", &format!("[{in_features}]"), input));
        }
        f(LayerGeometry::Fc { in_features, out_features }, false);
        Ok(vec![out_features])
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
                // Batch statistics of this timestep update the one EMA: all
                // timesteps feed it, pooling statistics over time as tdBN
                // does. Then normalize with the (updated) EMA statistics,
                // treated as constants — training and inference see the same
                // transform, which is what lets Eq. 10 supervision repair
                // early timesteps under shared statistics.
                let mut x_hat = ws.take_overwrite(input.len());
                let mut inv_std = vec![0.0f32; c];
                let st = simd::BnTrainState {
                    gamma: self.gamma.value.data(),
                    beta: self.beta.value.data(),
                    momentum: self.momentum,
                    eps: self.eps,
                    running_mean: &mut self.running_mean,
                    running_var: &mut self.running_var,
                };
                simd::bn_train_forward(
                    input.data(),
                    [n, c, plane],
                    st,
                    &mut inv_std,
                    &mut x_hat,
                    &mut out,
                );
                let x_hat = Tensor::from_aligned(x_hat, input.dims())?;
                self.caches.push(BnCache { x_hat, inv_std });
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

    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Result<Tensor> {
        let cache = self.caches.last().ok_or(SnnError::MissingForwardCache("BatchNorm2d"))?;
        let d = cache.x_hat.dims();
        if grad_out.dims() != d {
            return Err(SnnError::from(TensorError::ShapeMismatch {
                expected: d.to_vec(),
                actual: grad_out.dims().to_vec(),
            }));
        }
        let (n, c, plane) = (d[0], d[1], d[2] * d[3]);
        let cache = self.caches.pop().expect("checked above");
        // Statistics are EMA constants, so the transform is affine per
        // channel: dx = dy·γ·inv_std, dγ = Σ dy·x̂, dβ = Σ dy.
        let k: Vec<f32> =
            self.gamma.value.data().iter().zip(&cache.inv_std).map(|(&g, &s)| g * s).collect();
        // (writes every element of gx)
        let mut gx = ws.take_overwrite(grad_out.len());
        simd::bn_train_backward(
            grad_out.data(),
            cache.x_hat.data(),
            [n, c, plane],
            &k,
            self.beta.grad.data_mut(),
            self.gamma.grad.data_mut(),
            &mut gx,
        );
        ws.recycle_tensor(cache.x_hat);
        Ok(Tensor::from_aligned(gx, grad_out.dims())?)
    }

    fn reset_state_ws(&mut self, ws: &mut Workspace) {
        for cache in self.caches.drain(..) {
            ws.recycle_tensor(cache.x_hat);
        }
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(State<'_>)) {
        f(State::Param(&mut self.gamma));
        f(State::Param(&mut self.beta));
        f(State::Buffer(&mut self.running_mean));
        f(State::Buffer(&mut self.running_var));
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
// AvgPool2d / Flatten
// ===========================================================================

/// `input`'s elements under new `dims`, in an arena buffer.
pub(crate) fn copy_through(input: &Tensor, dims: &[usize], ws: &mut Workspace) -> Result<Tensor> {
    let mut out = ws.take_overwrite(input.len());
    out.copy_from_slice(input.data());
    Ok(Tensor::from_aligned(out, dims)?)
}

/// Parks every cached tensor of a backward stack in the arena.
fn park_all(cache: &mut Vec<Tensor>, ws: &mut Workspace) {
    for t in cache.drain(..) {
        ws.recycle_tensor(t);
    }
}

/// The [`Layer::visit_weights`] error for a sample of dims `got` that a
/// `layer` taking dims `want` cannot place.
fn takes(layer: &str, want: &str, got: &[usize]) -> SnnError {
    SnnError::BadInput(format!("{layer} takes a sample of dims {want}, got {got:?}"))
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

    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Result<Tensor> {
        let hw = self.input_hw.pop().ok_or(SnnError::MissingForwardCache("AvgPool2d"))?;
        Ok(avg_pool2d_backward(grad_out, &self.spec, hw, ws)?)
    }

    fn reset_state_ws(&mut self, _ws: &mut Workspace) {
        self.input_hw.clear();
    }

    fn kind(&self) -> &'static str {
        "avgpool2d"
    }

    fn visit_weights(&self, input: &[usize], _: &mut WeightVisitor<'_>) -> Result<Vec<usize>> {
        let &[c, h, w] = input else { return Err(takes("avgpool2d", "[c, h, w]", input)) };
        let (oh, ow) = self.spec.output_hw(h, w)?;
        Ok(vec![c, oh, ow])
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

    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Result<Tensor> {
        let dims = self.input_dims.pop().ok_or(SnnError::MissingForwardCache("Flatten"))?;
        copy_through(grad_out, &dims, ws)
    }

    fn reset_state_ws(&mut self, _ws: &mut Workspace) {
        self.input_dims.clear();
    }

    fn kind(&self) -> &'static str {
        "flatten"
    }

    fn visit_weights(&self, input: &[usize], _: &mut WeightVisitor<'_>) -> Result<Vec<usize>> {
        Ok(vec![input.iter().product()])
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

/// Runs `input` through a chain of layers — forward, or backward in reverse
/// layer order — parking each intermediate as soon as the next layer has
/// consumed it. `None` stands for "still the input" (an empty chain), which
/// the caller owns.
pub(crate) fn run_chain<'a>(
    layers: impl Iterator<Item = &'a mut Box<dyn Layer>>,
    input: &Tensor,
    ws: &mut Workspace,
    mut step: impl FnMut(&mut dyn Layer, &Tensor, &mut Workspace) -> Result<Tensor>,
) -> Result<Option<Tensor>> {
    let mut x: Option<Tensor> = None;
    for l in layers {
        let y = step(l.as_mut(), x.as_ref().unwrap_or(input), ws)?;
        if let Some(prev) = x.replace(y) {
            ws.recycle_tensor(prev);
        }
    }
    Ok(x)
}

/// The sum of the two branch results (`None`: the block input), in an arena
/// buffer; both results are parked.
fn join_branches(
    input: &Tensor,
    m: Option<Tensor>,
    s: Option<Tensor>,
    ws: &mut Workspace,
) -> Result<Tensor> {
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
        ws.recycle_tensor(t);
    }
    Ok(joined)
}

impl Layer for ResidualBlock {
    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Result<Tensor> {
        let forward = |l: &mut dyn Layer, x: &Tensor, ws: &mut Workspace| l.forward_ws(x, mode, ws);
        let m = run_chain(self.main.iter_mut(), input, ws, forward)?;
        let s = run_chain(self.shortcut.iter_mut(), input, ws, forward)?;
        let joined = join_branches(input, m, s, ws)?;
        let out = self.join.forward_ws(&joined, mode, ws)?;
        ws.recycle_tensor(joined);
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Result<Tensor> {
        let g = self.join.backward(grad_out, ws)?;
        let backward = |l: &mut dyn Layer, g: &Tensor, ws: &mut Workspace| l.backward(g, ws);
        let m = run_chain(self.main.iter_mut().rev(), &g, ws, backward)?;
        let s = run_chain(self.shortcut.iter_mut().rev(), &g, ws, backward)?;
        let gx = join_branches(&g, m, s, ws)?;
        ws.recycle_tensor(g);
        Ok(gx)
    }

    fn reset_state_ws(&mut self, ws: &mut Workspace) {
        self.each_child(&mut |l| l.reset_state_ws(ws));
    }

    fn visit_carried(&mut self, f: &mut dyn FnMut(&mut Option<Tensor>)) {
        self.each_child(&mut |l| l.visit_carried(f));
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(State<'_>)) {
        self.each_child(&mut |l| l.visit_state(f));
    }

    fn freeze_stats(&mut self) {
        self.each_child(&mut |l| l.freeze_stats());
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

    /// Main path, then shortcut: a main-path weight behind a spiking child
    /// reads spikes made inside the block, the shortcut the block's input.
    fn visit_weights(&self, input: &[usize], f: &mut WeightVisitor<'_>) -> Result<Vec<usize>> {
        let mut main = input.to_vec();
        let mut spiked = false;
        for l in &self.main {
            main = l.visit_weights(&main, &mut |g, inner| f(g, spiked || inner))?;
            spiked |= l.last_spike_density().is_some();
        }
        let mut shortcut = input.to_vec();
        for l in &self.shortcut {
            shortcut = l.visit_weights(&shortcut, f)?;
        }
        if main != shortcut {
            return Err(TensorError::ShapeMismatch { expected: main, actual: shortcut }.into());
        }
        Ok(main)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> TensorRng {
        TensorRng::seed_from(42)
    }

    /// Runs `f` on every [`State::Param`] slot of `layer`'s state walk.
    fn each_param(layer: &mut dyn Layer, mut f: impl FnMut(&mut Param)) {
        layer.visit_state(&mut |s| {
            if let State::Param(p) = s {
                f(p);
            }
        });
    }

    #[test]
    fn linear_forward_backward_shapes() {
        let mut r = rng();
        let mut lin = Linear::new(4, 3, &mut r);
        let x = Tensor::ones(&[2, 4]);
        let y = lin.forward_ws(&x, Mode::Train, &mut Workspace::new()).unwrap();
        assert_eq!(y.dims(), &[2, 3]);
        let gx = lin.backward(&Tensor::ones(&[2, 3]), &mut Workspace::new()).unwrap();
        assert_eq!(gx.dims(), &[2, 4]);
        let again = lin.backward(&Tensor::ones(&[2, 3]), &mut Workspace::new());
        assert!(matches!(again, Err(SnnError::MissingForwardCache(_))));
    }

    #[test]
    fn linear_gradient_matches_finite_difference() {
        let mut r = rng();
        let mut lin = Linear::new(3, 2, &mut r);
        let x = Tensor::randn(&[2, 3], 0.0, 1.0, &mut r);
        let y = lin.forward_ws(&x, Mode::Train, &mut Workspace::new()).unwrap();
        let loss0 = y.sum();
        lin.backward(&Tensor::ones(&[2, 2]), &mut Workspace::new()).unwrap();
        let mut grads = Vec::new();
        each_param(&mut lin, |p| grads.push(p.grad.clone()));
        // dL/dW[0,0] for L = Σy is Σ_batch x[:,0]
        let expect = x.data()[0] + x.data()[3];
        assert!((grads[0].data()[0] - expect).abs() < 1e-5);
        // perturb W[0,0] and confirm numerically
        let eps = 1e-2;
        lin.reset_state_ws(&mut Workspace::new());
        each_param(&mut lin, |p| {
            if p.decay {
                p.value.data_mut()[0] += eps; // the weight, not the bias
            }
        });
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
        }
    }

    #[test]
    fn conv_layer_roundtrip_and_grad_accumulation() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, &mut r).unwrap();
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let y = conv.forward_ws(&x, Mode::Train, &mut Workspace::new()).unwrap();
        assert_eq!(y.dims(), &[1, 2, 4, 4]);
        conv.backward(&Tensor::ones(y.dims()), &mut Workspace::new()).unwrap();
        let mut total = 0.0;
        each_param(&mut conv, |p| total += p.grad.norm_sq());
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
    fn batchnorm_state_walk_reaches_the_running_statistics() {
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::randn(&[4, 2, 3, 3], 2.0, 3.0, &mut rng());
        bn.forward_ws(&x, Mode::Train, &mut Workspace::new()).unwrap();
        let mut slots = Vec::new();
        bn.visit_state(&mut |s| {
            slots.push(match s {
                State::Param(p) => ("param", p.value.data().to_vec()),
                State::Buffer(b) => ("buffer", b.to_vec()),
            })
        });
        let kinds: Vec<_> = slots.iter().map(|s| s.0).collect();
        assert_eq!(kinds, ["param", "param", "buffer", "buffer"]);
        assert_eq!((&slots[2].1, &slots[3].1), (&bn.running_mean, &bn.running_var));
        // the Eval forward normalizes with what the walk writes
        let mut stats = [[1.0f32; 2], [4.0 - bn.eps; 2]].into_iter();
        bn.visit_state(&mut |s| {
            if let State::Buffer(b) = s {
                b.copy_from_slice(&stats.next().unwrap());
            }
        });
        let y = bn.forward_ws(&Tensor::full(&[1, 2, 1, 1], 3.0), Mode::Eval, &mut Workspace::new());
        assert_eq!(y.unwrap().data(), &[1.0, 1.0]);
    }

    #[test]
    fn hostile_gradient_is_a_typed_error_for_batchnorm() {
        let mut bn = BatchNorm2d::new(2);
        let mut ws = Workspace::new();
        bn.forward_ws(&Tensor::ones(&[3, 2, 2, 2]), Mode::Train, &mut ws).unwrap();
        // wrong rank, wrong n, a short buffer
        for dims in [vec![24], vec![4, 2, 2, 2], vec![3, 2, 2, 1]] {
            let err = bn.backward(&Tensor::ones(&dims), &mut Workspace::new()).unwrap_err();
            assert!(
                matches!(err, SnnError::Tensor(TensorError::ShapeMismatch { .. })),
                "{dims:?}: {err:?}"
            );
        }
        // the rejected gradients left the cache for the right one
        let gx = bn.backward(&Tensor::ones(&[3, 2, 2, 2]), &mut Workspace::new()).unwrap();
        assert_eq!(gx.dims(), &[3, 2, 2, 2]);
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
        let gx = bn.backward(&y, &mut Workspace::new()).unwrap();
        // dx = dy·γ·inv_std: uniform positive scale of dy
        let ratio = gx.data()[0] / y.data()[0];
        for (g, v) in gx.data().iter().zip(y.data()) {
            assert!((g / v - ratio).abs() < 1e-4);
        }
        // gamma/beta grads: perturb and compare loss (statistics unaffected
        // by parameter perturbation, so FD is exact up to EMA drift)
        let mut grads = Vec::new();
        each_param(&mut bn, |p| grads.push(p.grad.clone()));
        let loss0 = y.norm_sq() / 2.0;
        let eps = 1e-3;
        for (idx, _) in grads.iter().enumerate() {
            let mut bn2 = bn.clone();
            bn2.reset_state_ws(&mut Workspace::new());
            let mut which = 0;
            each_param(&mut bn2, |p| {
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
        let g = fl.backward(&y, &mut Workspace::new()).unwrap();
        assert_eq!(g.dims(), &[2, 3, 4, 4]);
    }

    #[test]
    fn residual_identity_shortcut_adds_input() {
        let mut r = rng();
        // main path: conv that is zero-initialized → output = LIF(0 + x)
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut r).unwrap();
        each_param(&mut conv, |p| p.value.map_inplace(|_| 0.0));
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
        let gx = block.backward(&Tensor::ones(&[1, 1, 4, 4]), &mut Workspace::new()).unwrap();
        assert_eq!(gx.dims(), &[1, 1, 4, 4]);
    }

    #[test]
    fn batchnorm_eval_is_bitwise_invariant_across_simd_levels() {
        // the one test of this binary that flips the process-wide override
        use dtsnn_tensor::simd;
        let mut r = rng();
        let mut bn = BatchNorm2d::new(3);
        for _ in 0..10 {
            let x = Tensor::randn(&[4, 3, 5, 5], 1.0, 2.0, &mut r);
            bn.forward_ws(&x, Mode::Train, &mut Workspace::new()).unwrap();
            bn.reset_state_ws(&mut Workspace::new());
        }
        let x = Tensor::randn(&[4, 3, 5, 5], 1.0, 2.0, &mut r);
        let run = |level: simd::SimdLevel| {
            simd::with_level(level, || {
                let mut b = bn.clone();
                let mut ws = Workspace::new();
                let y = b.forward_ws(&x, Mode::Eval, &mut ws).unwrap();
                y.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            })
        };
        let want = run(simd::SimdLevel::Scalar);
        for &lvl in simd::SimdLevel::ALL.iter().filter(|&&l| l <= simd::detected()) {
            assert_eq!(want, run(lvl), "{lvl:?}");
        }
    }
}
