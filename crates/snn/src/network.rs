//! The [`Snn`] container: a sequential spiking network evaluated over
//! timesteps (Eq. 1), with BPTT support and spike-activity accounting.

use crate::frames::{check_frame_count, frame_at};
use crate::layer::{Layer, Mode, Param, State};
use crate::layers::{copy_through, run_chain};
use crate::prefix::{self, PrefixCache, PrefixStats};
use crate::{DensitySource, LayerGeometry, Result, SnnError};
use dtsnn_tensor::{Tensor, TensorError, Workspace, WorkspaceStats};

/// A named layer inside an [`Snn`], exposed for reports and hardware mapping.
pub struct LayerNode {
    /// Human-readable name (`"conv1"`, `"lif3"`, …).
    pub name: String,
    /// The layer itself.
    pub layer: Box<dyn Layer>,
}

impl Clone for LayerNode {
    fn clone(&self) -> Self {
        LayerNode { name: self.name.clone(), layer: self.layer.clone_box() }
    }
}

impl std::fmt::Debug for LayerNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LayerNode").field("name", &self.name).field("kind", &self.layer.kind()).finish()
    }
}

/// Average spike density per spiking layer, accumulated over the timesteps
/// and samples seen since the last [`Snn::take_activity`] call.
///
/// The IMC energy model consumes this: the crossbar input activity of layer
/// `ℓ+1` is the output density of spiking layer `ℓ`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpikeActivity {
    /// Mean output spike density of each spiking layer, in network order.
    pub per_layer: Vec<f32>,
    /// Number of timestep observations folded into the means.
    pub observations: usize,
}

impl SpikeActivity {
    /// Overall mean density across spiking layers (0 when empty).
    pub fn mean(&self) -> f32 {
        if self.per_layer.is_empty() {
            0.0
        } else {
            self.per_layer.iter().sum::<f32>() / self.per_layer.len() as f32
        }
    }
}

/// A feed-forward spiking network processed one timestep at a time.
///
/// The container owns an ordered list of layers ending (by convention) in a
/// classifier [`crate::Linear`]; the per-timestep output of
/// [`Snn::forward_timestep`] is the logits `h∘g^L∘…∘g¹(x)` of Eq. 1. The
/// caller is responsible for averaging logits across timesteps (the
/// dynamic-timestep policy in `dtsnn-core` does this incrementally).
///
/// In [`Mode::Eval`] the network keeps, per batch row, the output of its
/// *input prefix* — the leading layers that carry no state and report no
/// spike density — and reuses it while the row's input stays bit-identical
/// (a static frame under direct encoding), so those layers run once per row
/// and window instead of once per timestep. The outputs are bitwise those of
/// a cache-free forward; [`Snn::prefix_stats`] counts the reuse.
pub struct Snn {
    layers: Vec<LayerNode>,
    /// Running sums of spike density per spiking layer.
    density_sums: Vec<f64>,
    density_obs: usize,
    /// Scratch arena for the timestep loop, forward and backward. Owned per
    /// network so no locking is needed; a cloned network starts with a
    /// fresh, empty arena (the clone-pool harness hands each worker its own
    /// clone), and [`crate::Trainer::fit`] drops training's working set
    /// with it when it returns.
    pub(crate) workspace: Workspace,
    /// Per-row outputs of the input prefix (carried state).
    prefix: PrefixCache,
}

impl Clone for Snn {
    fn clone(&self) -> Self {
        // the clone starts with an empty prefix cache: its rows recompute
        Snn {
            layers: self.layers.clone(),
            density_sums: self.density_sums.clone(),
            density_obs: self.density_obs,
            workspace: Workspace::new(),
            prefix: PrefixCache::default(),
        }
    }
}

impl std::fmt::Debug for Snn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snn").field("layers", &self.layers).finish()
    }
}

impl Snn {
    /// Builds a network from named layers.
    pub fn new(layers: Vec<LayerNode>) -> Self {
        let spiking = layers.iter().filter(|n| n.layer.last_spike_density().is_some()).count();
        Snn {
            layers,
            density_sums: vec![0.0; spiking],
            density_obs: 0,
            workspace: Workspace::new(),
            prefix: PrefixCache::default(),
        }
    }

    /// Convenience constructor that auto-names layers `"<kind><idx>"`.
    pub fn from_layers(layers: Vec<Box<dyn Layer>>) -> Self {
        let nodes = layers
            .into_iter()
            .enumerate()
            .map(|(i, layer)| LayerNode { name: format!("{}{}", layer.kind(), i), layer })
            .collect();
        Snn::new(nodes)
    }

    /// The network's layers, in order.
    pub fn layers(&self) -> &[LayerNode] {
        &self.layers
    }

    /// Mutable access to the layers (for a caller that runs or edits them
    /// one by one). Drops the cached prefix outputs, since the caller may
    /// change a layer.
    pub fn layers_mut(&mut self) -> &mut [LayerNode] {
        self.prefix.clear();
        &mut self.layers
    }

    /// Number of learnable scalar parameters.
    pub fn num_parameters(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.value.len());
        n
    }

    /// Clears all sequence state; call before each new input sequence.
    ///
    /// Retired carried buffers (LIF membranes) are parked in the network's
    /// workspace, so the next sample's timestep loop reuses them instead of
    /// allocating; the cached prefix rows are dropped, their buffers kept.
    pub fn reset_state(&mut self) {
        let ws = &mut self.workspace;
        self.prefix.clear();
        for node in &mut self.layers {
            node.layer.reset_state_ws(ws);
        }
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Freezes normalization statistics in every layer (see
    /// [`Layer::freeze_stats`]); used by the conformance gradient checker to
    /// make Train-mode forwards pure functions of the parameters. Drops the
    /// cached prefix outputs.
    pub fn freeze_norm_stats(&mut self) {
        self.prefix.clear();
        for node in &mut self.layers {
            node.layer.freeze_stats();
        }
    }

    /// Visits every slot of persistent state in the network, in layer order
    /// ([`Layer::visit_state`]): what a checkpoint stores. The visitor may
    /// change any slot (checkpoint loading does), so this drops the cached
    /// prefix outputs.
    pub fn visit_state(&mut self, f: &mut dyn FnMut(State<'_>)) {
        self.prefix.clear();
        for node in &mut self.layers {
            node.layer.visit_state(f);
        }
    }

    /// Visits every learnable parameter in the network: the
    /// [`State::Param`] slots of [`Snn::visit_state`]. The visitor may
    /// change any of them (the optimizer and the fault injector do), so this
    /// drops the cached prefix outputs too.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.visit_state(&mut |s| {
            if let State::Param(p) = s {
                f(p);
            }
        });
    }

    /// Every weight layer in forward order ([`Layer::visit_weights`]), at the
    /// geometry one input sample of dims `input` (`[c, h, w]`) gives it, and
    /// where its input spikes come from: the input before the first spiking
    /// node, else the last spiking node before it, and a node's own output
    /// for a weight behind a spiking layer inside the node (a residual
    /// block's inner LIF, whose density is not measured apart from the join).
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::BadInput`] for an `input` that is not rank 3 or
    /// that a layer cannot take, and a tensor error for an image too small
    /// for a kernel or pool window.
    pub fn weight_layers(&self, input: &[usize]) -> Result<Vec<(LayerGeometry, DensitySource)>> {
        if input.len() != 3 {
            return Err(SnnError::BadInput(format!("a sample is [c, h, w], got {input:?}")));
        }
        let mut out = Vec::new();
        let (mut dims, mut source, mut spiking) = (input.to_vec(), DensitySource::Input, 0);
        for node in &self.layers {
            let own = DensitySource::SpikingLayer(spiking);
            dims = node.layer.visit_weights(&dims, &mut |g, inner| {
                out.push((g, if inner { own } else { source }));
            })?;
            if node.layer.last_spike_density().is_some() {
                (source, spiking) = (own, spiking + 1);
            }
        }
        Ok(out)
    }

    /// `(layer_name, "dense")` for every weight kernel a forward runs, in
    /// network order (f32 is the one family). Needing no input dims, it
    /// counts the weight matrices — the decayed parameters, as the IMC fault
    /// injector does — which are the layers [`Snn::weight_layers`] reports.
    pub fn layer_backends(&self) -> Vec<(String, &'static str)> {
        let mut out = Vec::new();
        for node in &self.layers {
            node.layer.clone_box().visit_state(&mut |s| {
                if matches!(s, State::Param(p) if p.decay) {
                    out.push((node.name.clone(), "dense"));
                }
            });
        }
        out
    }

    /// Runs one timestep through the whole network, returning logits.
    ///
    /// Every layer draws its buffers from the network's arena
    /// ([`Layer::forward_ws`]), and each intermediate activation is recycled
    /// as soon as the next layer has consumed it (a Train layer keeps its
    /// own copy of what backward needs), so a warmed-up loop performs no
    /// heap allocation in either mode ([`Snn::workspace_stats`] proves it);
    /// the returned logits come from the arena too — callers that iterate
    /// timesteps should hand them back via [`Snn::recycle`] once folded.
    ///
    /// An Eval step runs the input prefix only for the rows whose input
    /// changed or whose cached output is stale (see [`Snn`]); a Train step
    /// runs every layer and drops the cache.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn forward_timestep(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let ws = &mut self.workspace;
        // (an input with no elements has no rows to compare: nothing cached)
        let batch = input.dims().first().is_some_and(|&rows| rows > 0) && !input.is_empty();
        let cached = match mode {
            Mode::Eval if batch => prefix::prefix_len(&mut self.layers),
            Mode::Eval => 0,
            Mode::Train => {
                self.prefix.clear();
                0
            }
        };
        let (head, tail) = self.layers.split_at_mut(cached);
        let start = if cached > 0 { self.prefix.forward(head, input, ws)? } else { input };
        let mut x: Option<Tensor> = None;
        let mut spiking_idx = 0;
        for node in tail {
            let y = node.layer.forward_ws(x.as_ref().unwrap_or(start), mode, ws)?;
            if let Some(prev) = x.replace(y) {
                ws.recycle_tensor(prev);
            }
            if let Some(d) = node.layer.last_spike_density() {
                self.density_sums[spiking_idx] += d as f64;
                spiking_idx += 1;
            }
        }
        self.density_obs += 1;
        match x {
            Some(out) => Ok(out),
            None => copy_through(start, start.dims(), ws),
        }
    }

    /// Backpropagates one timestep (call in reverse timestep order),
    /// returning `∂L/∂input`. Like the forward, it draws every buffer from
    /// the network's arena and parks each gradient once the layer before has
    /// used it; the returned gradient is an arena buffer too, for
    /// [`Snn::recycle`].
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::MissingForwardCache`] when called more times than
    /// `forward_timestep` was called in [`Mode::Train`].
    pub fn backward_timestep(&mut self, grad_logits: &Tensor) -> Result<Tensor> {
        let ws = &mut self.workspace;
        let layers = self.layers.iter_mut().rev().map(|node| &mut node.layer);
        let g = run_chain(layers, grad_logits, ws, |l, g, ws| l.backward(g, ws))?;
        g.map_or_else(|| copy_through(grad_logits, grad_logits.dims(), ws), Ok)
    }

    /// Runs a full sequence. `frames` holds either one frame (static input,
    /// repeated with direct encoding for `timesteps` steps — Sec. II) or one
    /// frame per timestep (event data): the frame contract's count rule and
    /// its pick, [`crate::frame_at`]. The frames are whole batches, so its
    /// per-sample rules ([`crate::check_frames`]) do not apply.
    ///
    /// Returns the per-timestep logits.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::BadInput`] when `frames` is empty or its length
    /// disagrees with `timesteps`.
    pub fn forward_sequence(
        &mut self,
        frames: &[Tensor],
        timesteps: usize,
        mode: Mode,
    ) -> Result<Vec<Tensor>> {
        check_frame_count(frames.len(), timesteps)?;
        self.reset_state();
        let mut outputs = Vec::with_capacity(timesteps);
        for frame in (0..timesteps).map_while(|t| frame_at(frames, t)) {
            outputs.push(self.forward_timestep(frame, mode)?);
        }
        Ok(outputs)
    }

    /// Narrowest axis-0 width among the per-row tensors the layers carry
    /// between timesteps ([`Layer::visit_carried`]) and the cached prefix
    /// rows; `usize::MAX` while nothing is carried. Read-only: the check both
    /// row operations make before either touches a layer.
    fn carried_width(&mut self) -> Result<usize> {
        let mut width = Some(self.prefix.rows().unwrap_or(usize::MAX));
        for node in &mut self.layers {
            node.layer.visit_carried(&mut |slot| {
                if let Some(u) = slot {
                    width = width.and_then(|w| u.dims().first().map(|&n| w.min(n)));
                }
            });
        }
        width.ok_or_else(|| SnnError::BadInput("carried state without a batch axis".into()))
    }

    /// Rebuilds every carried tensor at `new_rows(old_rows)` axis-0 rows in
    /// an arena buffer that `fill(old_data, row_len, buffer)` must write
    /// completely, and parks the old tensor — gather and pad, written once.
    fn rebuild_carried(
        &mut self,
        new_rows: impl Fn(usize) -> usize,
        fill: impl Fn(&[f32], usize, &mut [f32]),
    ) {
        let ws = &mut self.workspace;
        for node in &mut self.layers {
            node.layer.visit_carried(&mut |slot| {
                let Some(old) = slot.take() else { return };
                let mut dims = old.dims().to_vec();
                let row_len: usize = dims[1..].iter().product();
                dims[0] = new_rows(dims[0]);
                let mut buf = ws.take_overwrite(dims[0] * row_len);
                fill(old.data(), row_len, &mut buf);
                ws.recycle_tensor(old);
                *slot = Some(Tensor::from_aligned(buf, &dims).expect("buffer sized from dims"));
            });
        }
    }

    /// Restricts every layer's carried batch state (LIF membranes, cached
    /// prefix rows) to the given axis-0 rows, in order.
    ///
    /// This is the active-set compaction hook of the batched dynamic
    /// evaluation in `dtsnn-core`: between timesteps it retires samples whose
    /// exit policy fired, so later timesteps forward a physically smaller
    /// batch whose per-row state is bitwise identical to what a batch built
    /// from only the surviving samples would carry. Survivors are gathered
    /// into arena buffers and the retired tensors parked, so compacting
    /// mid-window allocates nothing once warmed.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::Tensor`] for a row index beyond the carried batch
    /// width; no layer's state has been touched then.
    pub fn compact_batch(&mut self, rows: &[usize]) -> Result<()> {
        let width = self.carried_width()?;
        if let Some(&bad) = rows.iter().find(|&&r| r >= width) {
            return Err(SnnError::from(TensorError::InvalidArgument(format!(
                "compact_batch index {bad} out of range ({width} rows)"
            ))));
        }
        self.rebuild_carried(|_| rows.len(), |old, row_len, buf| {
            for (i, &r) in rows.iter().enumerate() {
                buf[i * row_len..(i + 1) * row_len]
                    .copy_from_slice(&old[r * row_len..(r + 1) * row_len]);
            }
        });
        self.prefix.compact(rows);
        Ok(())
    }

    /// Appends `extra` fresh rows to every layer's carried batch state — the
    /// row-insertion dual of [`Snn::compact_batch`], and the hook the
    /// continuous-batching serving engine in `dtsnn-serve` uses to splice
    /// newly admitted requests into an open inference window.
    ///
    /// New rows start from the state a freshly reset layer would give them
    /// (zero membrane): a zero row evolves `u = 0·τ + x` on its first
    /// timestep, which can differ from a fresh `None` membrane's `u = x`
    /// only in the sign of zero, a distinction the strict `u > V_th` spike
    /// comparison (and the smooth step, a function of `u − V_th`) cannot
    /// observe — so a spliced row's spikes, and everything downstream of
    /// them, are bitwise identical to running that row alone. Existing rows
    /// are untouched bitwise, and a layer that has not run since its reset
    /// carries nothing to pad. A new row's cached prefix entry is stale, so
    /// its first step runs the prefix whatever its input is. Buffers come
    /// from the network's workspace, so a warmed serving loop stays
    /// allocation-free across width changes.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::BadInput`] if some carried tensor has no batch
    /// axis; no layer's state has been touched then.
    pub fn admit_batch_rows(&mut self, extra: usize) -> Result<()> {
        self.carried_width()?;
        if extra > 0 {
            self.rebuild_carried(|n| n + extra, |old, _, buf| {
                let (kept, fresh) = buf.split_at_mut(old.len());
                kept.copy_from_slice(old);
                fresh.fill(0.0);
            });
            self.prefix.admit(extra);
        }
        Ok(())
    }

    /// Per-batch-row output spike densities of every observable spiking
    /// layer for the most recent timestep, in network order (aligned with
    /// [`SpikeActivity::per_layer`] and the accumulators behind
    /// [`Snn::take_activity`]).
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::BadInput`] if a spiking layer reports a scalar
    /// density but no per-row densities (every built-in spiking layer
    /// reports both).
    pub fn last_spike_row_densities(&self) -> Result<Vec<&[f32]>> {
        self.layers
            .iter()
            .filter(|n| n.layer.last_spike_density().is_some())
            .map(|n| {
                n.layer.last_spike_row_densities().ok_or_else(|| {
                    SnnError::BadInput(format!(
                        "layer '{}' reports spike density but not per-row densities",
                        n.name
                    ))
                })
            })
            .collect()
    }

    /// Returns and resets the raw spike-activity accumulators: per-layer
    /// density sums plus the timestep-observation count.
    ///
    /// The data-parallel harnesses in `dtsnn-core` call this once per sample
    /// on cloned networks and fold the raw sums back in sample-index order
    /// (via [`Snn::absorb_raw_activity`]); because every sample's sums start
    /// from zero, the folded totals are bitwise identical for any worker
    /// count.
    pub fn take_raw_activity(&mut self) -> (Vec<f64>, usize) {
        let n = self.density_sums.len();
        let sums = std::mem::replace(&mut self.density_sums, vec![0.0; n]);
        let obs = std::mem::take(&mut self.density_obs);
        (sums, obs)
    }

    /// Folds raw activity (from [`Snn::take_raw_activity`] on a clone) into
    /// this network's accumulators.
    pub fn absorb_raw_activity(&mut self, sums: &[f64], obs: usize) {
        debug_assert_eq!(sums.len(), self.density_sums.len());
        for (acc, &s) in self.density_sums.iter_mut().zip(sums) {
            *acc += s;
        }
        self.density_obs += obs;
    }

    /// Allocation counters of the network's scratch arena (see
    /// [`WorkspaceStats`]): a warmed-up Eval loop shows `misses == 0`.
    pub fn workspace_stats(&self) -> WorkspaceStats {
        self.workspace.stats()
    }

    /// Prefix rows reused and recomputed since the last
    /// [`Snn::reset_workspace_stats`] (see [`Snn`]).
    pub fn prefix_stats(&self) -> PrefixStats {
        self.prefix.stats()
    }

    /// Zeroes the arena's allocation counters and the prefix-row counters —
    /// call after a warm-up pass, before the span you want to count.
    pub fn reset_workspace_stats(&mut self) {
        self.workspace.reset_stats();
        self.prefix.reset_stats();
    }

    /// Parks a tensor (typically logits returned by
    /// [`Snn::forward_timestep`]) back into the network's arena so the next
    /// timestep can reuse its buffer.
    pub fn recycle(&mut self, t: Tensor) {
        self.workspace.recycle_tensor(t);
    }

    /// Returns and resets the accumulated spike-activity statistics.
    pub fn take_activity(&mut self) -> SpikeActivity {
        let obs = self.density_obs.max(1);
        let per_layer =
            self.density_sums.iter().map(|&s| (s / obs as f64) as f32).collect();
        let activity = SpikeActivity { per_layer, observations: self.density_obs };
        for s in &mut self.density_sums {
            *s = 0.0;
        }
        self.density_obs = 0;
        activity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Flatten, Linear};
    use crate::lif::{LifConfig, LifNeuron};
    use dtsnn_tensor::TensorRng;

    fn tiny_net(rng: &mut TensorRng) -> Snn {
        Snn::from_layers(vec![
            Box::new(Flatten::new()),
            Box::new(Linear::new(8, 6, rng)),
            Box::new(LifNeuron::new(LifConfig::default())),
            Box::new(Linear::new(6, 3, rng)),
        ])
    }

    #[test]
    fn forward_sequence_static_repeats_frame() {
        let mut rng = TensorRng::seed_from(1);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn(&[2, 2, 2, 2], 0.0, 1.0, &mut rng);
        let outs = net.forward_sequence(&[x], 4, Mode::Eval).unwrap();
        assert_eq!(outs.len(), 4);
        assert_eq!(outs[0].dims(), &[2, 3]);
    }

    #[test]
    fn forward_sequence_validates_frame_count() {
        let mut rng = TensorRng::seed_from(1);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::zeros(&[1, 2, 2, 2]);
        assert!(net.forward_sequence(&[], 4, Mode::Eval).is_err());
        assert!(net.forward_sequence(&[x.clone(), x], 4, Mode::Eval).is_err());
    }

    #[test]
    fn activity_tracks_spiking_layers_only() {
        let mut rng = TensorRng::seed_from(2);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::full(&[1, 2, 2, 2], 5.0);
        net.forward_sequence(&[x], 3, Mode::Eval).unwrap();
        let act = net.take_activity();
        assert_eq!(act.per_layer.len(), 1); // one LIF
        assert_eq!(act.observations, 3);
        assert!(act.per_layer[0] > 0.0);
        // taking resets
        let act2 = net.take_activity();
        assert_eq!(act2.observations, 0);
    }

    #[test]
    fn raw_activity_roundtrips_through_absorb() {
        let mut rng = TensorRng::seed_from(5);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::full(&[1, 2, 2, 2], 5.0);

        // direct accumulation over two samples
        let mut direct = net.clone();
        direct.forward_sequence(std::slice::from_ref(&x), 3, Mode::Eval).unwrap();
        direct.forward_sequence(std::slice::from_ref(&x), 2, Mode::Eval).unwrap();
        let expect = direct.take_activity();

        // per-sample take + absorb in sample order must match exactly
        let mut worker = net.clone();
        worker.forward_sequence(std::slice::from_ref(&x), 3, Mode::Eval).unwrap();
        let (s0, o0) = worker.take_raw_activity();
        worker.forward_sequence(&[x], 2, Mode::Eval).unwrap();
        let (s1, o1) = worker.take_raw_activity();
        net.absorb_raw_activity(&s0, o0);
        net.absorb_raw_activity(&s1, o1);
        assert_eq!(net.take_activity(), expect);
    }

    #[test]
    fn dynamic_batch_width_stays_allocation_free_after_warmup() {
        // The serving loop grows (admit) and shrinks (compact) the batch
        // mid-window; once warmed at the maximum width, every narrower width
        // must be served from the freelist — zero workspace misses.
        let mut rng = TensorRng::seed_from(24);
        let mut net = tiny_net(&mut rng);
        let max_width = 4usize;
        let full = Tensor::randn(&[max_width, 2, 2, 2], 0.0, 1.5, &mut rng);
        net.reset_state();
        for _ in 0..2 {
            let out = net.forward_timestep(&full, Mode::Eval).unwrap();
            net.recycle(out);
        }
        net.reset_state();
        net.reset_workspace_stats();
        // width trajectory 4 → 2 (compact) → 4 (admit) → 1 (compact), a
        // window per width with the carried membrane reshaped in between
        let out = net.forward_timestep(&full, Mode::Eval).unwrap();
        net.recycle(out);
        net.compact_batch(&[0, 2]).unwrap();
        let two = full.select_rows(&[0, 2]).unwrap();
        let out = net.forward_timestep(&two, Mode::Eval).unwrap();
        net.recycle(out);
        net.admit_batch_rows(2).unwrap();
        let out = net.forward_timestep(&full, Mode::Eval).unwrap();
        net.recycle(out);
        net.compact_batch(&[1]).unwrap();
        let one = full.select_rows(&[1]).unwrap();
        let out = net.forward_timestep(&one, Mode::Eval).unwrap();
        net.recycle(out);
        let stats = net.workspace_stats();
        assert!(stats.takes > 0);
        assert_eq!(stats.misses, 0, "warmed dynamic-width loop must not allocate: {stats:?}");
    }

    #[test]
    fn spike_row_densities_align_with_activity_accounting() {
        let mut rng = TensorRng::seed_from(9);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::full(&[2, 2, 2, 2], 5.0);
        net.forward_timestep(&x, Mode::Eval).unwrap();
        let rows = net.last_spike_row_densities().unwrap();
        assert_eq!(rows.len(), 1); // one LIF
        assert_eq!(rows[0].len(), 2); // one density per batch row
        // batch mean of the rows reproduces the scalar density
        let scalar = net.layers()[2].layer.last_spike_density().unwrap();
        assert!(((rows[0][0] + rows[0][1]) / 2.0 - scalar).abs() < 1e-6);
    }

    #[test]
    fn bptt_roundtrip_produces_gradients() {
        let mut rng = TensorRng::seed_from(3);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn(&[2, 2, 2, 2], 0.0, 2.0, &mut rng);
        let outs = net.forward_sequence(&[x], 3, Mode::Train).unwrap();
        net.zero_grads();
        for _ in (0..outs.len()).rev() {
            net.backward_timestep(&Tensor::ones(&[2, 3])).unwrap();
        }
        let mut gnorm = 0.0;
        net.visit_params(&mut |p| gnorm += p.grad.norm_sq());
        assert!(gnorm > 0.0);
        // extra backward → cache exhausted
        assert!(net.backward_timestep(&Tensor::ones(&[2, 3])).is_err());
    }

    #[test]
    fn warmed_timestep_loop_allocates_nothing() {
        let mut rng = TensorRng::seed_from(12);
        let mut net = tiny_net(&mut rng);
        assert!(net.layer_backends().iter().all(|(_, b)| *b == "dense"));
        let x = Tensor::randn(&[2, 2, 2, 2], 0.0, 1.5, &mut rng);
        // warm-up: one full sample populates every size class
        net.reset_state();
        for _ in 0..2 {
            let out = net.forward_timestep(&x, Mode::Eval).unwrap();
            net.recycle(out);
        }
        // steady state: fresh sample, same shapes → zero misses
        net.reset_state();
        net.reset_workspace_stats();
        for _ in 0..4 {
            let out = net.forward_timestep(&x, Mode::Eval).unwrap();
            net.recycle(out);
        }
        let stats = net.workspace_stats();
        assert!(stats.takes > 0);
        assert_eq!(stats.misses, 0, "warmed Eval loop must not allocate: {stats:?}");
    }

    #[test]
    fn num_parameters_counts_scalars() {
        let mut rng = TensorRng::seed_from(4);
        let mut net = tiny_net(&mut rng);
        // 8*6 + 6 + 6*3 + 3 = 75
        assert_eq!(net.num_parameters(), 75);
    }
}
