//! `solo_vgg`: vgg_small, one `DynamicInference::run` per request over the
//! 300-sample test split (the paper's Table III protocol, batch 1).
//!
//! Width-1 shapes sit under the SIMD short-row gate, so per-call dispatch,
//! density probes, the arena and `core`'s softmax + policy dominate and the
//! wide kernels do little. A dispatch-overhead fix should move this
//! workload and leave `batched_resnet` alone; a kernel fix the reverse.

use super::{traced_passes, Spec};
use crate::passes::{run_for, summarize, Pass};
use crate::probes::inference_layers;
use crate::report::{LayerMetrics, Measured, Traced};
use crate::setup::{shuffled, Fixture, VGG};
use crate::spans::{timed, Tracer};
use crate::stats::mode_boundaries_clear;
use crate::{fail, Result};
use dtsnn_tensor::TensorRng;
use std::time::Instant;

/// Percentile points a gated rank must keep from every exit-share boundary.
const MODE_MARGIN: f64 = 8.0;

/// One sweep of the split in `order`, checking every outcome against the
/// reference. A tracer, when given, gets one span per request.
fn sweep(fx: &mut Fixture, order: &[usize], mut tracer: Option<&mut Tracer>) -> Result<Pass> {
    let mut latencies_ms = Vec::with_capacity(order.len());
    let runner = fx.runner;
    for &i in order {
        let (out, ms) = timed(tracer.as_deref_mut(), "core.run", i as u64, || {
            runner.run(&mut fx.net, &fx.frames[i])
        });
        let out = out?;
        latencies_ms.push(ms);
        if !fx.matches(i, out.prediction, out.timesteps_used) {
            return fail(format!(
                "sample {i}: got (class {}, T̂ {}), reference {:?}",
                out.prediction, out.timesteps_used, fx.reference[i]
            ));
        }
    }
    Ok(Pass::closed_loop(order.len() as f64, latencies_ms))
}

/// Builds the fixture and runs the discarded warm-up pass; returns the
/// fixture, the seeded request order and the set-up time.
fn set_up(spec: Spec) -> Result<(Fixture, Vec<usize>, f64)> {
    let t0 = Instant::now();
    let mut fx = Fixture::build(VGG)?;
    // Request latency here is a single sample's T̂, so it has one mode per
    // exit timestep: the gated ranks must sit well inside a mode.
    if let Err((rank, boundary)) =
        mode_boundaries_clear(&fx.evaluation.timestep_histogram, &[50.0, 90.0], MODE_MARGIN)
    {
        return fail(format!(
            "percentile rank {rank} lies within {MODE_MARGIN} points of the exit-share boundary at \
             {boundary:.1} % (histogram {:?}); choose another θ",
            fx.evaluation.timestep_histogram
        ));
    }
    let order = shuffled(fx.frames.len(), &mut TensorRng::seed_from(spec.seed));
    sweep(&mut fx, &order, None)?;
    Ok((fx, order, t0.elapsed().as_secs_f64()))
}

/// Untraced run: end-to-end metrics.
pub fn measure(spec: Spec) -> Result<Measured> {
    let (mut fx, order, setup_s) = set_up(spec)?;
    fx.net.reset_workspace_stats();
    let passes = run_for(spec.seconds, || sweep(&mut fx, &order, None))?;
    let misses = fx.net.workspace_stats().misses;
    if misses != 0 {
        return fail(format!("{misses} workspace misses after warm-up"));
    }
    fx.measured(summarize(&passes)?, setup_s, (passes.len() * order.len()) as u64, 0)
}

/// Traced run: per-layer metrics.
pub fn trace(spec: Spec, tracer: &mut Tracer) -> Result<Traced> {
    let (mut fx, order, _) = set_up(spec)?;
    let mut m = LayerMetrics::default();
    let passes = traced_passes(spec.seconds, tracer, |t| sweep(&mut fx, &order, t))?;
    m.set("trace.overhead_ratio", passes.overhead_ratio);
    inference_layers(&mut fx, tracer, &mut m)?;
    Ok(Traced { metrics: m, attempted: (passes.passes * order.len()) as u64, failed: 0 })
}
