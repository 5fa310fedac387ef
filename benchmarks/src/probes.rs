//! Per-layer probes of the inference stack (`tensor`, `snn`, `core`,
//! `datasets`), shared by the traced runs of the three inference workloads.
//! Each workload probes its *own* trained network, at batch widths 1, 8 and
//! 32, so the `_b1` numbers explain the solo path and the `_b32` numbers
//! the batched path whichever workload is traced.

use crate::report::LayerMetrics;
use crate::setup::{trainer, Fixture, Recipe, T_MAX, WINDOW};
use crate::shadow::{
    batch1, replay_window, shadow_request, shadow_steps, stack, window_widths, ReplayCost,
};
use crate::spans::Tracer;
use crate::{fail, Result};
use dtsnn_core::DynamicEvaluation;
use dtsnn_snn::{LayerGeometry, Mode, Snn};
use dtsnn_tensor::{
    avg_pool2d_ws, conv2d_ws, linear_ws, parallel, simd, Conv2dSpec, PoolSpec, SimdLevel, Tensor,
    TensorRng, Workspace,
};
use std::time::Instant;

/// Repetitions of the kernel micro-timings (the best is kept).
const KERNEL_REPS: usize = 20;

/// Windows of [`WINDOW`] samples the wide probes sweep.
const WIDE_WINDOWS: usize = 3;

/// Spike density of the synthetic kernel inputs (typical of the trained
/// nets' hidden layers, and under the sparse-dispatch threshold).
const PROBE_DENSITY: f32 = 0.15;

fn micros(nanos: u64) -> f64 {
    nanos as f64 / 1e3
}

/// Nanoseconds of the fastest of `reps` calls.
fn best_of(reps: usize, mut f: impl FnMut() -> Result<()>) -> Result<u64> {
    let mut best = u64::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        f()?;
        best = best.min(t0.elapsed().as_nanos() as u64);
    }
    Ok(best)
}

fn binary(dims: &[usize], rng: &mut TensorRng) -> Tensor {
    let mut t = Tensor::zeros(dims);
    for v in t.data_mut() {
        *v = f32::from(u8::from(rng.bernoulli(PROBE_DENSITY)));
    }
    t
}

/// `tensor.*_us`: every weight kernel of the network's geometry called
/// directly, summed over the layers, at batch width `n`.
fn kernel_times(fx: &Fixture, n: usize) -> Result<(f64, f64, f64)> {
    let mut rng = TensorRng::seed_from(0x7E57);
    let mut ws = Workspace::new();
    let (mut conv, mut linear) = (0u64, 0u64);
    let rows: Vec<usize> = (0..n).collect();
    for (i, g) in fx.recipe.arch.geometry(&fx.model).iter().enumerate() {
        match *g {
            LayerGeometry::Conv {
                in_channels,
                out_channels,
                kernel,
                stride,
                padding,
                in_h,
                in_w,
            } => {
                let spec = Conv2dSpec::new(in_channels, out_channels, kernel, stride, padding)?;
                let weight = Tensor::kaiming(&spec.weight_dims(), spec.patch_len(), &mut rng);
                // the first layer sees the analog frames, the rest see spikes
                let input = if i == 0 {
                    stack(&fx.frames, &rows)?
                } else {
                    binary(&[n, in_channels, in_h, in_w], &mut rng)
                };
                conv += best_of(KERNEL_REPS, || {
                    let out = conv2d_ws(&input, &weight, None, &spec, &mut ws)?;
                    ws.recycle_tensor(out);
                    Ok(())
                })?;
            }
            LayerGeometry::Fc { in_features, out_features } => {
                let weight = Tensor::kaiming(&[out_features, in_features], in_features, &mut rng);
                let bias = Tensor::zeros(&[out_features]);
                let input = binary(&[n, in_features], &mut rng);
                linear += best_of(KERNEL_REPS, || {
                    let out = linear_ws(&input, &weight, &bias, &mut ws)?;
                    ws.recycle_tensor(out);
                    Ok(())
                })?;
            }
        }
    }
    // the pooled activations: vgg pools after each of its two stages,
    // resnet once after its strided block
    let (w, s) = (fx.model.width, fx.model.image_size);
    let pooled: &[[usize; 3]] = match fx.recipe.arch {
        dtsnn_bench::Arch::Vgg => &[[w, s, s], [2 * w, s / 2, s / 2]],
        dtsnn_bench::Arch::ResNet => &[[2 * w, s / 2, s / 2]],
    };
    let spec = PoolSpec::new(2, 2)?;
    let mut pool = 0u64;
    for &[c, h, wd] in pooled {
        let input = binary(&[n, c, h, wd], &mut rng);
        pool += best_of(KERNEL_REPS, || {
            let out = avg_pool2d_ws(&input, &spec, &mut ws)?;
            ws.recycle_tensor(out);
            Ok(())
        })?;
    }
    Ok((micros(conv), micros(linear), micros(pool)))
}

/// Full-window forwards (no exits) of `inputs` through the public
/// `forward_timestep`; nanoseconds of the best of `reps` sweeps.
fn forward_sweep(net: &mut Snn, inputs: &[Tensor], reps: usize) -> Result<u64> {
    best_of(reps, || {
        for input in inputs {
            net.reset_state();
            for _ in 0..T_MAX {
                let logits = net.forward_timestep(input, Mode::Eval)?;
                net.recycle(logits);
            }
        }
        Ok(())
    })
}

/// Per-step self time of every layer kind since `mark`, microseconds.
fn kind_times(tracer: &Tracer, mark: usize, steps: usize) -> Vec<(&'static str, f64)> {
    tracer
        .self_times_since(mark)
        .into_iter()
        .filter(|(name, _)| name.starts_with("snn.") && *name != "snn.reset_state")
        .map(|(name, nanos)| (name, micros(nanos) / steps as f64))
        .collect()
}

fn set_kinds(m: &mut LayerMetrics, kinds: &[(&'static str, f64)], suffix: &str) {
    for kind in ["conv", "bn", "lif", "pool", "linear", "block"] {
        let span = format!("snn.{kind}");
        let value = kinds.iter().find(|(name, _)| *name == span).map_or(0.0, |&(_, v)| v);
        m.set(&format!("snn.{kind}_us_per_step_{suffix}"), value);
    }
}

/// One minibatch of the recipe's training (forward, backward, SGD step).
fn train_step(fx: &Fixture) -> Result<u64> {
    let one_step = trainer(&Recipe { epochs: 1, ..fx.recipe })?;
    let batch = fx.dataset.train.truncated(fx.recipe.batch);
    let (frames, labels) = (batch.frames(), batch.labels());
    let mut net = fx.net.clone();
    best_of(3, || {
        one_step.fit(&mut net, &frames, &labels)?;
        Ok(())
    })
}

/// Fills every `tensor.*`, `snn.*`, `core.*` and `datasets.*` metric.
pub fn inference_layers(fx: &mut Fixture, tracer: &mut Tracer, m: &mut LayerMetrics) -> Result<()> {
    let n = fx.frames.len();
    let steps_total: usize = fx.reference.iter().map(|r| r.timesteps).sum();

    // --- exact counts -----------------------------------------------------
    for (t, &count) in fx.evaluation.timestep_histogram.iter().enumerate() {
        m.set(&format!("core.exit_share_t{}", t + 1), count as f64 / n as f64);
    }
    m.set("core.row_steps", steps_total as f64);
    m.set("snn.spike_density_mean", f64::from(fx.evaluation.activity.mean()));
    m.set("datasets.generate_s", fx.generate_s);

    // --- tensor: kernels called directly ------------------------------------
    let (conv, linear, pool) = kernel_times(fx, 1)?;
    m.set("tensor.conv2d_b1_us", conv);
    m.set("tensor.linear_b1_us", linear);
    m.set("tensor.avg_pool_b1_us", pool);
    let (conv, linear, pool) = kernel_times(fx, WINDOW)?;
    m.set("tensor.conv2d_b32_us", conv);
    m.set("tensor.linear_b32_us", linear);
    m.set("tensor.avg_pool_b32_us", pool);

    // --- snn: shadow loop, width 1, every sample, with early exit -----------
    let policy = *fx.runner.policy();
    let mut shadow_net = fx.net.clone();
    let mut ws = Workspace::new();
    let mut warm = Tracer::new(0);
    for i in 0..WINDOW {
        shadow_request(&mut shadow_net, &mut ws, &policy, T_MAX, &fx.frames[i][0], &mut warm, 0)?;
    }
    let mark = tracer.mark();
    for i in 0..n {
        let (prediction, timesteps) = shadow_request(
            &mut shadow_net,
            &mut ws,
            &policy,
            T_MAX,
            &fx.frames[i][0],
            tracer,
            i as u64,
        )?;
        if !fx.matches(i, prediction, timesteps) {
            return fail(format!(
                "sample {i}: shadow loop gave (class {prediction}, T̂ {timesteps}), DynamicInference::run gave {:?}",
                fx.reference[i]
            ));
        }
    }
    let b1 = kind_times(tracer, mark, steps_total);
    set_kinds(m, &b1, "b1");
    let policy_nanos =
        tracer.self_times_since(mark).get("core.softmax_policy").copied().unwrap_or(0);
    m.set("core.softmax_policy_us", micros(policy_nanos) / steps_total as f64);

    // --- snn: shadow loop vs forward_timestep, width 32, full window --------
    let wide: Vec<Tensor> = (0..WIDE_WINDOWS)
        .map(|w| stack(&fx.frames, &(w * WINDOW..(w + 1) * WINDOW).collect::<Vec<_>>()))
        .collect::<Result<_>>()?;
    let wide_steps = WIDE_WINDOWS * T_MAX;
    let mut best: Option<(f64, Vec<(&'static str, f64)>)> = None;
    for rep in 0..3 {
        let mark = tracer.mark();
        for (w, input) in wide.iter().enumerate() {
            shadow_steps(&mut shadow_net, &mut ws, input, T_MAX, tracer, w as u64)?;
        }
        let kinds = kind_times(tracer, mark, wide_steps);
        let total: f64 = kinds.iter().map(|&(_, v)| v).sum();
        // rep 0 warms the bench-owned arena at this width
        if rep > 0 && best.as_ref().is_none_or(|(t, _)| total < *t) {
            best = Some((total, kinds));
        }
    }
    let (shadow_b32, kinds) = best.expect("two measured reps");
    set_kinds(m, &kinds, "b32");

    forward_sweep(&mut fx.net, &wide, 1)?;
    let forward_b32 = micros(forward_sweep(&mut fx.net, &wide, 2)?) / wide_steps as f64;
    m.set("snn.forward_timestep_us_b32", forward_b32);
    m.set("snn.shadow_coverage", shadow_b32 / forward_b32);

    let narrow: Vec<Tensor> =
        (0..WINDOW).map(|i| batch1(&fx.frames[i][0])).collect::<Result<_>>()?;
    forward_sweep(&mut fx.net, &narrow[..4], 1)?;
    let forward_b1 = forward_sweep(&mut fx.net, &narrow, 3)?;
    m.set("snn.forward_timestep_us_b1", micros(forward_b1) / (WINDOW * T_MAX) as f64);
    let eights: Vec<Tensor> = (0..4)
        .map(|g| stack(&fx.frames, &(g * 8..(g + 1) * 8).collect::<Vec<_>>()))
        .collect::<Result<_>>()?;
    forward_sweep(&mut fx.net, &eights[..1], 1)?;
    let forward_b8 = forward_sweep(&mut fx.net, &eights, 3)?;
    m.set("snn.forward_timestep_us_b8", micros(forward_b8) / (4 * T_MAX) as f64);

    // --- tensor: dispatch tiers on the same wide sweep ----------------------
    let auto = forward_sweep(&mut fx.net, &wide[..1], 2)?;
    let scalar = simd::with_level(SimdLevel::Scalar, || forward_sweep(&mut fx.net, &wide[..1], 2))?;
    m.set("tensor.simd_speedup", scalar as f64 / auto as f64);
    let two = parallel::with_threads(2, || forward_sweep(&mut fx.net, &wide[..1], 2))?;
    m.set("tensor.threads2_speedup", auto as f64 / two as f64);

    // --- snn: carried-state operations --------------------------------------
    let halves: Vec<usize> = (0..WINDOW).step_by(2).collect();
    let (mut reset, mut compact, mut admit) = (u64::MAX, u64::MAX, u64::MAX);
    for _ in 0..5 {
        fx.net.reset_state();
        let logits = fx.net.forward_timestep(&wide[0], Mode::Eval)?;
        fx.net.recycle(logits);
        let t0 = Instant::now();
        fx.net.compact_batch(&halves)?;
        compact = compact.min(t0.elapsed().as_nanos() as u64);
        let t0 = Instant::now();
        fx.net.reset_state();
        reset = reset.min(t0.elapsed().as_nanos() as u64);
        let four = stack(&fx.frames, &[0, 1, 2, 3])?;
        let logits = fx.net.forward_timestep(&four, Mode::Eval)?;
        fx.net.recycle(logits);
        let t0 = Instant::now();
        fx.net.admit_batch_rows(4)?;
        admit = admit.min(t0.elapsed().as_nanos() as u64);
    }
    fx.net.reset_state();
    m.set("snn.compact_batch_us", micros(compact));
    m.set("snn.reset_state_us", micros(reset));
    m.set("snn.admit_rows_us", micros(admit));
    m.set("snn.train_step_ms", train_step(fx)? as f64 / 1e6);

    // --- core: the public calls minus their replayed forwards ---------------
    fx.net.reset_workspace_stats();
    let runner = fx.runner;
    // half the split is enough to resolve a few microseconds per step
    let probed = n / 2;
    let probed_steps: usize = fx.reference[..probed].iter().map(|r| r.timesteps).sum();
    let mut run_nanos = vec![u64::MAX; probed];
    let mut fwd_nanos = vec![u64::MAX; probed];
    for _ in 0..2 {
        for (i, best) in run_nanos.iter_mut().enumerate() {
            let span = tracer.enter("core.run", i as u64);
            let out = runner.run(&mut fx.net, &fx.frames[i])?;
            *best = (*best).min(tracer.exit(span));
            std::hint::black_box(out);
        }
        for (i, best) in fwd_nanos.iter_mut().enumerate() {
            let mut cost = ReplayCost::default();
            let timesteps = [fx.reference[i].timesteps];
            replay_window(&mut fx.net, &fx.frames, &[i], &timesteps, T_MAX, &mut cost)?;
            *best = (*best).min(cost.forward_nanos);
        }
    }
    let (run, fwd): (u64, u64) = (run_nanos.iter().sum(), fwd_nanos.iter().sum());
    m.set("core.run_overhead_us_per_step", micros(run.saturating_sub(fwd)) / probed_steps as f64);
    let mut backends = [0usize; 4];
    for (_, backend) in fx.net.layer_backends() {
        match backend {
            "dense" => backends[0] += 1,
            "csr" => backends[1] += 1,
            "bitset" => backends[2] += 1,
            "quantized" => backends[3] += 1,
            other => return fail(format!("unknown kernel backend {other}")),
        }
    }
    for (name, count) in ["dense", "csr", "bitset", "int8"].iter().zip(backends) {
        m.set(&format!("tensor.backend_{name}_layers"), count as f64);
    }

    let (mut call, mut replayed) = (0u64, 0u64);
    for w in 0..WIDE_WINDOWS {
        let rows: Vec<usize> = (w * WINDOW..(w + 1) * WINDOW).collect();
        let rows = rows.as_slice();
        let frames: Vec<Vec<Tensor>> = rows.iter().map(|&i| fx.frames[i].clone()).collect();
        let labels: Vec<usize> = rows.iter().map(|&i| fx.labels[i]).collect();
        let timesteps: Vec<usize> = rows.iter().map(|&i| fx.reference[i].timesteps).collect();
        let mut eval = None;
        call += best_of(2, || {
            let span = tracer.enter("core.run_batched", rows[0] as u64);
            eval = Some(DynamicEvaluation::run_batched(
                &mut fx.net,
                &runner,
                &frames,
                &labels,
                None,
                WINDOW,
            )?);
            tracer.exit(span);
            Ok(())
        })?;
        let eval = eval.expect("ran twice");
        let widths = window_widths(
            &eval.samples.iter().map(|s| s.timesteps_used).collect::<Vec<_>>(),
            T_MAX,
        );
        if widths != window_widths(&timesteps, T_MAX) {
            return fail("replayed width sequence differs from the batched path's");
        }
        let mut best_forward = u64::MAX;
        for _ in 0..2 {
            let mut cost = ReplayCost::default();
            replay_window(&mut fx.net, &fx.frames, rows, &timesteps, T_MAX, &mut cost)?;
            best_forward = best_forward.min(cost.forward_nanos);
        }
        replayed += best_forward;
    }
    m.set("core.batched_overhead_ratio", call as f64 / replayed as f64 - 1.0);
    let stats = fx.net.workspace_stats();
    m.set("tensor.workspace_hits", (stats.takes - stats.misses) as f64);
    m.set("tensor.workspace_misses", stats.misses as f64);

    let t0 = Instant::now();
    for _ in 0..100 {
        std::hint::black_box(fx.profile.dynamic_cost(&fx.evaluation.activity, fx.avg_timesteps())?);
    }
    m.set("core.dynamic_cost_us", micros(t0.elapsed().as_nanos() as u64) / 100.0);
    Ok(())
}
