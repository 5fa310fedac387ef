//! `batched_resnet`: resnet_small through `DynamicEvaluation::run_batched`
//! on 32-sample windows; one window call is one request.
//!
//! Wide kernels, the `ResidualBlock` containers and `compact_batch` do most
//! of the work and per-call overhead is amortised over 32 rows, so this is
//! the workload a kernel optimisation should move and a per-call dispatch
//! fix should not.
//!
//! The partition of the split into windows and their order are fixed
//! (dataset order); the seed shuffles the rows inside each window, which
//! changes every compaction's keep-set. A window's cost follows the exit
//! timesteps of its members, so seeded *membership* would make p50/p90 over
//! nine windows a property of the seed, not of the program; and the order of
//! the windows decides how the arena's free list grows, so a seeded order
//! moved `peak_rss_mb` by 7 % between seeds on identical code.

use super::{traced_passes, Spec};
use crate::passes::{run_for, summarize, Pass};
use crate::probes::inference_layers;
use crate::report::{LayerMetrics, Measured, Traced};
use crate::setup::{shuffled, Fixture, RESNET, WINDOW};
use crate::spans::{timed, Tracer};
use crate::{fail, Result};
use dtsnn_core::DynamicEvaluation;
use dtsnn_tensor::{Tensor, TensorRng};
use std::time::Instant;

/// One prepared window: its samples and their inputs in seeded row order.
struct Window {
    rows: Vec<usize>,
    frames: Vec<Vec<Tensor>>,
    labels: Vec<usize>,
}

/// The full windows of the split, each with its rows shuffled by `seed`.
fn windows(fx: &Fixture, seed: u64) -> Vec<Window> {
    let mut rng = TensorRng::seed_from(seed);
    (0..fx.frames.len() / WINDOW)
        .map(|w| {
            let rows: Vec<usize> =
                shuffled(WINDOW, &mut rng).into_iter().map(|r| w * WINDOW + r).collect();
            Window {
                frames: rows.iter().map(|&i| fx.frames[i].clone()).collect(),
                labels: rows.iter().map(|&i| fx.labels[i]).collect(),
                rows,
            }
        })
        .collect()
}

/// One sweep over every window, checking every sample against the
/// reference.
fn sweep(fx: &mut Fixture, windows: &[Window], mut tracer: Option<&mut Tracer>) -> Result<Pass> {
    let mut latencies_ms = Vec::with_capacity(windows.len());
    let runner = fx.runner;
    for w in windows {
        let (eval, ms) = timed(tracer.as_deref_mut(), "core.run_batched", w.rows[0] as u64, || {
            DynamicEvaluation::run_batched(&mut fx.net, &runner, &w.frames, &w.labels, None, WINDOW)
        });
        let eval = eval?;
        latencies_ms.push(ms);
        for (&i, got) in w.rows.iter().zip(&eval.samples) {
            let want = fx.reference[i];
            if got.timesteps_used != want.timesteps
                || got.correct != (want.prediction == fx.labels[i])
            {
                return fail(format!(
                    "sample {i}: batched path gave (T̂ {}, correct {}), reference {want:?}",
                    got.timesteps_used, got.correct
                ));
            }
        }
    }
    Ok(Pass::closed_loop((windows.len() * WINDOW) as f64, latencies_ms))
}

fn set_up(spec: Spec) -> Result<(Fixture, Vec<Window>, f64)> {
    let t0 = Instant::now();
    let mut fx = Fixture::build(RESNET)?;
    let windows = windows(&fx, spec.seed);
    sweep(&mut fx, &windows, None)?;
    Ok((fx, windows, t0.elapsed().as_secs_f64()))
}

/// Untraced run: end-to-end metrics.
pub fn measure(spec: Spec) -> Result<Measured> {
    let (mut fx, windows, setup_s) = set_up(spec)?;
    // No `misses == 0` check here: at the commit that defined the benchmark
    // the compacting resnet path still allocates a few buffers per window
    // after warm-up (the traced run reports them as
    // `tensor.workspace_misses`).
    let passes = run_for(spec.seconds, || sweep(&mut fx, &windows, None))?;
    fx.measured(summarize(&passes)?, setup_s, (passes.len() * windows.len()) as u64, 0)
}

/// Traced run: per-layer metrics.
pub fn trace(spec: Spec, tracer: &mut Tracer) -> Result<Traced> {
    let (mut fx, windows, _) = set_up(spec)?;
    let mut m = LayerMetrics::default();
    let passes = traced_passes(spec.seconds, tracer, |t| sweep(&mut fx, &windows, t))?;
    m.set("trace.overhead_ratio", passes.overhead_ratio);
    inference_layers(&mut fx, tracer, &mut m)?;
    Ok(Traced { metrics: m, attempted: (passes.passes * windows.len()) as u64, failed: 0 })
}
