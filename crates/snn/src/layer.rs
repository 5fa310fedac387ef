//! The [`Layer`] trait: the contract every network component implements for
//! per-timestep forward passes and reverse-time backpropagation.

use crate::Result;
use dtsnn_tensor::{Tensor, Workspace};

/// Whether a pass updates training-only state (batch statistics, dropout
/// masks, backward caches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Training: caches activations for backward, uses batch statistics.
    Train,
    /// Inference: no caches, running statistics, dropout disabled.
    Eval,
}

/// A learnable parameter: value, accumulated gradient and momentum buffer.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Gradient accumulated over the current BPTT window.
    pub grad: Tensor,
    /// Momentum buffer owned by the optimizer.
    pub momentum: Tensor,
    /// Whether weight decay applies (disabled for norms/biases).
    pub decay: bool,
}

impl Param {
    /// Wraps a freshly initialized value with zeroed gradient/momentum.
    pub fn new(value: Tensor, decay: bool) -> Self {
        let grad = Tensor::zeros(value.dims());
        let momentum = Tensor::zeros(value.dims());
        Param { value, grad, momentum, decay }
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.map_inplace(|_| 0.0);
    }
}

/// One component of a spiking network, processed once per timestep.
///
/// # BPTT contract
///
/// - `forward` is called once per timestep `t = 1..=T`; in [`Mode::Train`]
///   each call pushes an activation cache onto an internal stack.
/// - `backward` is called once per timestep in **reverse** order; each call
///   pops the matching cache and accumulates parameter gradients.
/// - `reset_state` clears membrane potentials **and** caches; call it before
///   every new input sequence.
///
/// `Send + Sync` is a supertrait bound so the data-parallel evaluation
/// workers in `dtsnn-core` can clone a shared prototype network onto scoped
/// threads. No layer uses interior mutability, so the bound is free.
pub trait Layer: Send + Sync {
    /// Processes one timestep of input.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape disagrees with the layer.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor>;

    /// Processes one timestep of input, drawing scratch and output buffers
    /// from the workspace arena where the layer supports it.
    ///
    /// This is the zero-allocation Eval path: overriding layers must produce
    /// output **bitwise identical** to [`Layer::forward`] (the conformance
    /// golden traces pin this), and should delegate to `forward` in
    /// [`Mode::Train`], where backward caches make buffer reuse unsafe. The
    /// default simply delegates, so layers without an arena-backed kernel
    /// stay correct.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape disagrees with the layer.
    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Result<Tensor> {
        let _ = ws;
        self.forward(input, mode)
    }

    /// Backpropagates one timestep (reverse order), returning `∂L/∂input`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SnnError::MissingForwardCache`] when called more times
    /// than `forward`.
    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor>;

    /// Clears sequence state like [`Layer::reset_state`], parking any
    /// retired carried buffers (e.g. LIF membranes) in the workspace so the
    /// next sample's warm-up takes hit the freelist instead of allocating.
    /// Container layers must forward the call to their children. The default
    /// delegates to `reset_state`.
    fn reset_state_ws(&mut self, ws: &mut Workspace) {
        let _ = ws;
        self.reset_state();
    }

    /// Clears sequence state (membranes, caches) before a new sample.
    fn reset_state(&mut self);

    /// Visits every learnable parameter.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Human-readable layer kind for reports.
    fn kind(&self) -> &'static str;

    /// Spike density of the most recent output, if this layer emits spikes.
    ///
    /// Used by the IMC energy model: crossbar input activity is the spike
    /// density of the preceding LIF layer.
    fn last_spike_density(&self) -> Option<f32> {
        None
    }

    /// Per-axis-0-row spike density of the most recent output, if this layer
    /// emits spikes (aligned with [`Layer::last_spike_density`]: the batch
    /// mean of these rows over integer nonzero counts equals the scalar
    /// density bitwise).
    ///
    /// The batched dynamic-evaluation harness reads this to account spike
    /// activity per sample rather than per batch. Spiking layers must
    /// override it together with `last_spike_density`; the default covers
    /// non-spiking layers.
    fn last_spike_row_densities(&self) -> Option<&[f32]> {
        None
    }

    /// Restricts all carried batch state (e.g. LIF membrane potentials) to
    /// the given axis-0 rows, in order — the layer-level half of
    /// [`crate::Snn::compact_batch`], called between timesteps when the
    /// batched dynamic-evaluation harness retires exited samples.
    ///
    /// Only inference-time sequence state participates: training caches are
    /// out of scope (compaction is an [`Mode::Eval`] operation). Layers
    /// without per-row state keep the default no-op; container layers must
    /// forward the call to their children.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range row indices.
    fn select_batch_rows(&mut self, rows: &[usize]) -> Result<()> {
        let _ = rows;
        Ok(())
    }

    /// Workspace-backed variant of [`Layer::select_batch_rows`]: layers
    /// with per-row state gather the survivors into an arena buffer and
    /// park the retired one, so mid-window compaction allocates nothing
    /// once the loop is warmed (the serving engine compacts and re-admits
    /// rows every window, where the plain path's drop-and-reallocate would
    /// bleed buffers out of the arena). The resulting state must be bitwise
    /// identical to [`Layer::select_batch_rows`]. The default delegates;
    /// container layers must forward the call to their children.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range row indices.
    fn select_batch_rows_ws(&mut self, rows: &[usize], ws: &mut Workspace) -> Result<()> {
        let _ = ws;
        self.select_batch_rows(rows)
    }

    /// Appends `extra` fresh batch rows to all carried batch state — the
    /// layer-level half of [`crate::Snn::admit_batch_rows`], the row
    /// *insertion* dual of [`Layer::select_batch_rows`]. New rows start from
    /// the same state a freshly reset layer would give them (zero membrane):
    /// a zero row evolves `u = 0·τ + x` on its first timestep, which can
    /// differ from a fresh `None` membrane's `u = x` only in the sign of
    /// zero, a distinction the strict `u > V_th` spike comparison (and the
    /// smooth step, a function of `u − V_th`) cannot observe — so a spliced
    /// row's spikes, and everything downstream of them, are bitwise
    /// identical to running that row alone. Existing rows are untouched.
    ///
    /// Layers without per-row state keep the default no-op; container layers
    /// must forward the call to their children. Like compaction this is an
    /// [`Mode::Eval`] operation: training caches are out of scope.
    ///
    /// # Errors
    ///
    /// Returns an error if the carried state has no batch axis.
    fn pad_batch_rows(&mut self, extra: usize, ws: &mut Workspace) -> Result<()> {
        let _ = (extra, ws);
        Ok(())
    }

    /// Freezes any input-dependent normalization statistics so repeated
    /// forward passes become pure functions of the parameters (the
    /// conformance gradient checker needs this: batch-norm EMA updates
    /// otherwise make the loss depend on evaluation history). Default is a
    /// no-op; container layers must forward the call to their children.
    fn freeze_stats(&mut self) {}

    /// Deep-copies the layer behind a fresh box (lets [`crate::Snn`]
    /// implement `Clone` despite holding trait objects — e.g. to perturb
    /// several noisy replicas of one trained network).
    fn clone_box(&self) -> Box<dyn Layer>;

    /// Name of the kernel family this layer's Eval forward runs, if it has
    /// a weight kernel: `"quantized"` (int8 weights) once
    /// [`Layer::quantize_weights`] opted it in, `"dense"` (f32) otherwise.
    /// Default covers layers with no weight kernel.
    fn backend(&self) -> Option<&'static str> {
        None
    }

    /// Appends `(qualified_name, backend)` pairs for every weight kernel
    /// inside this layer to `out`. The default reports [`Layer::backend`]
    /// under the given name; container layers override it to recurse with
    /// qualified child names.
    fn backend_choices(&self, name: &str, out: &mut Vec<(String, &'static str)>) {
        if let Some(b) = self.backend() {
            out.push((name.to_string(), b));
        }
    }

    /// Opts this layer's weights into the quantized Eval backend on the
    /// signed `bits` grid (the IMC `weight_bits` deployment grid). The
    /// stored f32 weights are untouched — the on-grid codes are a cached
    /// view, rebuilt lazily whenever the weights change. Layers without
    /// weight kernels ignore the call; container layers must forward it.
    fn quantize_weights(&mut self, bits: u32) {
        let _ = bits;
    }
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_zero_grad() {
        let mut p = Param::new(Tensor::ones(&[3]), true);
        p.grad = Tensor::ones(&[3]);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.value.sum(), 3.0);
    }
}
