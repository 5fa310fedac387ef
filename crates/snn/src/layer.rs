//! The [`Layer`] trait: the contract every network component implements for
//! per-timestep forward passes and reverse-time backpropagation.

use crate::{LayerGeometry, Result};
use dtsnn_tensor::{Tensor, Workspace};

/// Whether a pass updates training-only state (batch statistics, backward
/// caches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Training: caches activations for backward, uses batch statistics.
    Train,
    /// Inference: no caches, running statistics.
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

/// One slot of a layer's persistent state, as [`Layer::visit_state`] yields
/// it: what a deployed network is made of, and what a checkpoint stores.
#[derive(Debug)]
pub enum State<'a> {
    /// A learnable parameter (the optimizer's and the fault injector's view).
    Param(&'a mut Param),
    /// A non-learnable buffer the Eval forward reads (BatchNorm's running
    /// mean and variance).
    Buffer(&'a mut [f32]),
}

/// What [`Layer::visit_weights`] reports each weight layer to: its geometry,
/// and whether its input spikes come from a spiking layer *inside* the
/// reporting layer (a residual block's inner LIF) rather than its input.
pub type WeightVisitor<'a> = dyn FnMut(LayerGeometry, bool) + 'a;

/// One component of a spiking network, processed once per timestep.
///
/// # BPTT contract
///
/// - `forward_ws` is called once per timestep `t = 1..=T`; in
///   [`Mode::Train`] each call pushes an activation cache onto an internal
///   stack, in a buffer taken from the arena it is given.
/// - `backward` is called once per timestep in **reverse** order with the
///   same arena; each call pops the matching cache, accumulates parameter
///   gradients, parks the cache and every scratch buffer in the arena, and
///   returns `∂L/∂input` in an arena buffer. The caller parks that gradient
///   once the layer before has used it, so a warmed training step, like a
///   warmed Eval step, allocates nothing.
/// - `reset_state_ws` clears membrane potentials **and** caches, parking
///   their buffers; call it before every new input sequence.
///
/// # Container contract
///
/// A layer that owns child layers ([`crate::ResidualBlock`]) forwards
/// `reset_state_ws`, `visit_carried`, `visit_state` and `freeze_stats` to
/// every child, runs `forward_ws` and `backward` through them in the same
/// arena, and threads `visit_weights` through them in forward order.
/// Everything that happens to carried state between timesteps — reset,
/// compaction, admission — reaches a child through the first two alone.
///
/// # Row-wise purity
///
/// In [`Mode::Eval`], a layer that visits no carried slot
/// ([`Layer::visit_carried`]) and reports no spike density
/// ([`Layer::last_spike_density`]) is a row-wise pure function of its input
/// and its parameters: output row `r` is a function of input row `r` alone,
/// bit for bit, whatever the other rows of the batch are and however often
/// it ran before. [`crate::Snn`] relies on this to keep, per batch row, the
/// output of its input prefix — the leading layers of that kind — and to
/// reuse it while the row's input is unchanged. A layer whose Eval output
/// could change without one of the calls that drop that cache (`Snn`'s
/// `visit_state` — and so `visit_params` and `load_params` —
/// `freeze_norm_stats`, `layers_mut`, `reset_state` or a [`Mode::Train`]
/// forward) must therefore carry state or report a density.
///
/// `Send + Sync` is a supertrait bound so the data-parallel evaluation
/// workers in `dtsnn-core` can clone a shared prototype network onto scoped
/// threads. No layer uses interior mutability, so the bound is free.
pub trait Layer: Send + Sync {
    /// Processes one timestep of input — the only forward. Scratch, output
    /// and backward-cache buffers come from `ws`, so a loop whose caller
    /// recycles each consumed activation allocates nothing once warmed, in
    /// either mode. Train differs only where it has to: it pushes the
    /// backward caches (a copy of the input where backward needs it, never
    /// the caller's buffer), BatchNorm folds batch statistics, and the LIF
    /// also keeps each step's pre-reset membrane.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape disagrees with the layer.
    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Result<Tensor>;

    /// Backpropagates one timestep (reverse order), returning `∂L/∂input` in
    /// a buffer from `ws`; the popped cache and all scratch go back to `ws`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SnnError::MissingForwardCache`] when called more times
    /// than `forward_ws` in [`Mode::Train`].
    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Result<Tensor>;

    /// Clears sequence state (carried tensors, backward caches, timestep
    /// counters) before a new sample, parking retired carried buffers in the
    /// workspace so the next sample's warm-up takes hit the freelist.
    fn reset_state_ws(&mut self, ws: &mut Workspace);

    /// Visits every per-row tensor this layer carries from one timestep to
    /// the next (today: the LIF membrane), `None` while the layer has not
    /// run since its last reset. Axis 0 of a carried tensor is the batch
    /// row. [`crate::Snn::compact_batch`] and
    /// [`crate::Snn::admit_batch_rows`] gather and pad rows through these
    /// slots, so a layer with carried state implements only this; training
    /// caches are out of scope (both are [`Mode::Eval`] operations).
    fn visit_carried(&mut self, f: &mut dyn FnMut(&mut Option<Tensor>)) {
        let _ = f;
    }

    /// Visits every slot of persistent state in a fixed order, a layer's
    /// parameters before its buffers (default: none). The visitor may
    /// change any slot, so a layer drops whatever it derived from them.
    /// Carried per-row state is not persistent: it has its own walk,
    /// [`Layer::visit_carried`], which runs on every compaction and must not
    /// invalidate weight plans.
    fn visit_state(&mut self, f: &mut dyn FnMut(State<'_>)) {
        let _ = f;
    }

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
    /// density bitwise). Rewritten by every forward and meaningful only
    /// until the batch is next compacted or padded.
    ///
    /// The batched dynamic-evaluation harness reads this to account spike
    /// activity per sample rather than per batch. Spiking layers must
    /// override it together with `last_spike_density`; the default covers
    /// non-spiking layers.
    fn last_spike_row_densities(&self) -> Option<&[f32]> {
        None
    }

    /// Freezes any input-dependent normalization statistics so repeated
    /// forward passes become pure functions of the parameters (the
    /// conformance gradient checker needs this: batch-norm EMA updates
    /// otherwise make the loss depend on evaluation history). Default is a
    /// no-op.
    fn freeze_stats(&mut self) {}

    /// Deep-copies the layer behind a fresh box (lets [`crate::Snn`]
    /// implement `Clone` despite holding trait objects — e.g. to perturb
    /// several noisy replicas of one trained network).
    fn clone_box(&self) -> Box<dyn Layer>;

    /// Reports every weight layer in this one to `f`, in forward order, at
    /// the shape one sample of dims `input` (no batch axis) gives it, and
    /// returns the output's dims: the walk [`crate::Snn::weight_layers`]
    /// reads a network's IMC geometry off. The default reports no weight and
    /// passes the dims through.
    ///
    /// # Errors
    ///
    /// Returns an error if the layer cannot take `input` (wrong rank or
    /// extent, a kernel larger than the padded image).
    fn visit_weights(&self, input: &[usize], f: &mut WeightVisitor<'_>) -> Result<Vec<usize>> {
        let _ = f;
        Ok(input.to_vec())
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
