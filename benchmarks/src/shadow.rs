//! Shadow and replay loops: how a traced run sees inside calls it may not
//! instrument.
//!
//! The *shadow* loop rebuilds the timestep loop from public pieces
//! (`Snn::layers_mut` + `Layer::forward_ws` + a bench-owned `Workspace` +
//! `softmax_rows` + `ExitPolicy`) with a span around every layer, and is
//! asserted to give the same prediction and T̂ as `DynamicInference::run`.
//! The *replay* loops push the width sequence a batched window or a served
//! schedule actually ran through `forward_timestep` / `compact_batch` /
//! `admit_batch_rows`, so the forwards can be subtracted from the timed
//! public call and what remains is the caller's own overhead.

use crate::spans::Tracer;
use crate::{fail, Result};
use dtsnn_core::ExitPolicy;
use dtsnn_serve::StepRecord;
use dtsnn_snn::{Mode, Snn};
use dtsnn_tensor::{softmax_rows, Tensor, Workspace};
use std::collections::HashMap;
use std::time::Instant;

/// Span name of a layer kind (`Layer::kind`).
pub fn kind_span(kind: &str) -> &'static str {
    match kind {
        "conv2d" => "snn.conv",
        "batchnorm2d" => "snn.bn",
        "lif" => "snn.lif",
        "avgpool2d" => "snn.pool",
        "linear" => "snn.linear",
        "residual" => "snn.block",
        _ => "snn.other",
    }
}

/// Adds a leading batch axis of one to a `[c, h, w]` frame.
pub fn batch1(frame: &Tensor) -> Result<Tensor> {
    let mut dims = vec![1];
    dims.extend_from_slice(frame.dims());
    Ok(frame.reshape(&dims)?)
}

/// Stacks the given samples' (static) frames into one `[n, c, h, w]` batch.
pub fn stack(frames: &[Vec<Tensor>], rows: &[usize]) -> Result<Tensor> {
    let views: Vec<Tensor> = rows.iter().map(|&i| batch1(&frames[i][0])).collect::<Result<_>>()?;
    let refs: Vec<&Tensor> = views.iter().collect();
    Ok(Tensor::concat_axis0(&refs)?)
}

/// One shadow forward of every layer, a span around each.
fn shadow_forward(
    net: &mut Snn,
    ws: &mut Workspace,
    input: &Tensor,
    tracer: &mut Tracer,
    request: u64,
) -> Result<Tensor> {
    let span = tracer.enter("snn.forward_timestep", request);
    let mut x: Option<Tensor> = None;
    for node in net.layers_mut() {
        let layer_span = tracer.enter(kind_span(node.layer.kind()), request);
        let y = node.layer.forward_ws(x.as_ref().unwrap_or(input), Mode::Eval, ws)?;
        // the real loop reads the density after every layer; keep its cost
        std::hint::black_box(node.layer.last_spike_density());
        tracer.exit(layer_span);
        if let Some(prev) = x.take() {
            ws.recycle_tensor(prev);
        }
        x = Some(y);
    }
    tracer.exit(span);
    x.ok_or_else(|| "network has no layers".into())
}

fn shadow_reset(net: &mut Snn, ws: &mut Workspace, tracer: &mut Tracer, request: u64) {
    let span = tracer.enter("snn.reset_state", request);
    for node in net.layers_mut() {
        node.layer.reset_state_ws(ws);
    }
    tracer.exit(span);
}

/// Runs one sample through the shadow early-exit loop; returns
/// `(prediction, T̂)`.
pub fn shadow_request(
    net: &mut Snn,
    ws: &mut Workspace,
    policy: &ExitPolicy,
    t_max: usize,
    frame: &Tensor,
    tracer: &mut Tracer,
    request: u64,
) -> Result<(usize, usize)> {
    let span = tracer.enter("shadow.request", request);
    shadow_reset(net, ws, tracer, request);
    let input = batch1(frame)?;
    let mut accumulated: Option<Tensor> = None;
    let mut outcome = None;
    for t in 1..=t_max {
        let logits = shadow_forward(net, ws, &input, tracer, request)?;
        let policy_span = tracer.enter("core.softmax_policy", request);
        match &mut accumulated {
            Some(acc) => {
                acc.axpy(1.0, &logits)?;
                ws.recycle_tensor(logits);
            }
            None => accumulated = Some(logits),
        }
        let acc = accumulated.as_ref().expect("set above");
        let probs = softmax_rows(&acc.scale(1.0 / t as f32))?;
        let exit = policy.should_exit(probs.data());
        tracer.exit(policy_span);
        if exit || t == t_max {
            outcome = Some((probs.row(0)?.argmax()?, t));
            break;
        }
    }
    if let Some(acc) = accumulated.take() {
        ws.recycle_tensor(acc);
    }
    tracer.exit(span);
    outcome.ok_or_else(|| "shadow loop ended without an outcome".into())
}

/// Runs `steps` shadow timesteps of a fixed-width batch (no exits).
pub fn shadow_steps(
    net: &mut Snn,
    ws: &mut Workspace,
    input: &Tensor,
    steps: usize,
    tracer: &mut Tracer,
    request: u64,
) -> Result<()> {
    let span = tracer.enter("shadow.window", request);
    shadow_reset(net, ws, tracer, request);
    for _ in 0..steps {
        let logits = shadow_forward(net, ws, input, tracer, request)?;
        ws.recycle_tensor(logits);
    }
    tracer.exit(span);
    Ok(())
}

/// Host time of a replayed width sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayCost {
    /// Nanoseconds inside `Snn::forward_timestep`.
    pub forward_nanos: u64,
    /// Nanoseconds inside `compact_batch` / `admit_batch_rows` / `reset_state`.
    pub state_nanos: u64,
    /// Batch rows forwarded, summed over steps.
    pub row_steps: u64,
    /// Steps forwarded.
    pub steps: u64,
}

impl ReplayCost {
    fn forward(&mut self, net: &mut Snn, input: &Tensor) -> Result<()> {
        let t0 = Instant::now();
        let logits = net.forward_timestep(input, Mode::Eval)?;
        self.forward_nanos += t0.elapsed().as_nanos() as u64;
        net.recycle(logits);
        self.row_steps += input.dims()[0] as u64;
        self.steps += 1;
        Ok(())
    }

    fn state<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.state_nanos += t0.elapsed().as_nanos() as u64;
        out
    }
}

/// Width of a compacting window at each timestep, from its samples' T̂:
/// a sample occupies a row for timesteps `1..=T̂`.
pub fn window_widths(timesteps: &[usize], t_max: usize) -> Vec<usize> {
    (1..=t_max)
        .map(|t| timesteps.iter().filter(|&&used| used >= t).count())
        .take_while(|&w| w > 0)
        .collect()
}

/// Replays one compacting batched window whose per-sample exit timesteps
/// are known: the forwards and compactions `run_batched` performed on
/// `rows`, without its policy scoring and bookkeeping.
pub fn replay_window(
    net: &mut Snn,
    frames: &[Vec<Tensor>],
    rows: &[usize],
    timesteps: &[usize],
    t_max: usize,
    cost: &mut ReplayCost,
) -> Result<()> {
    cost.state(|| net.reset_state());
    let mut active: Vec<(usize, usize)> =
        rows.iter().copied().zip(timesteps.iter().copied()).collect();
    for t in 1..=t_max {
        let ids: Vec<usize> = active.iter().map(|&(i, _)| i).collect();
        cost.forward(net, &stack(frames, &ids)?)?;
        let keep: Vec<usize> =
            active.iter().enumerate().filter(|(_, &(_, used))| used > t).map(|(r, _)| r).collect();
        if keep.len() < active.len() {
            if keep.is_empty() {
                break;
            }
            cost.state(|| net.compact_batch(&keep))?;
            active = keep.iter().map(|&r| active[r]).collect();
        }
    }
    Ok(())
}

/// Replays a served schedule: every recorded step's forward at its recorded
/// rows, with the row retirements and admissions between them. Checks that
/// the window reconstructed from `admitted` / `retired` equals the recorded
/// `rows` of every step. `sample_of` maps a request id to its test sample.
pub fn replay_schedule(
    net: &mut Snn,
    frames: &[Vec<Tensor>],
    schedule: &[StepRecord],
    sample_of: &HashMap<u64, usize>,
    cost: &mut ReplayCost,
) -> Result<()> {
    let mut window: Vec<u64> = Vec::new();
    for (n, step) in schedule.iter().enumerate() {
        if !step.admitted.is_empty() {
            if window.is_empty() {
                cost.state(|| net.reset_state());
            } else {
                cost.state(|| net.admit_batch_rows(step.admitted.len()))?;
            }
            window.extend_from_slice(&step.admitted);
        }
        if window != step.rows {
            return fail(format!(
                "step {n}: replayed window {window:?} differs from the recorded rows {:?}",
                step.rows
            ));
        }
        let ids: Vec<usize> = window
            .iter()
            .map(|id| sample_of.get(id).copied().ok_or_else(|| format!("unknown request id {id}")))
            .collect::<std::result::Result<_, _>>()?;
        cost.forward(net, &stack(frames, &ids)?)?;
        let keep: Vec<usize> =
            (0..window.len()).filter(|&r| !step.retired.contains(&window[r])).collect();
        if keep.len() < window.len() {
            if keep.is_empty() {
                cost.state(|| net.reset_state());
            } else {
                cost.state(|| net.compact_batch(&keep))?;
            }
            window = keep.iter().map(|&r| window[r]).collect();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_widths_follow_the_exit_timesteps() {
        assert_eq!(window_widths(&[1, 1, 4, 2], 4), vec![4, 2, 1, 1]);
        assert_eq!(window_widths(&[1, 1], 4), vec![2]);
        assert_eq!(window_widths(&[4], 4), vec![1, 1, 1, 1]);
        assert!(window_widths(&[], 4).is_empty());
    }

    #[test]
    fn layer_kinds_map_to_span_names() {
        for (kind, span) in [
            ("conv2d", "snn.conv"),
            ("batchnorm2d", "snn.bn"),
            ("lif", "snn.lif"),
            ("avgpool2d", "snn.pool"),
            ("linear", "snn.linear"),
            ("residual", "snn.block"),
            ("flatten", "snn.other"),
        ] {
            assert_eq!(kind_span(kind), span);
        }
    }
}
