//! Seeded differential fuzzing of cross-path equivalences.
//!
//! Every case is derived deterministically from a single `u64` seed
//! ([`FuzzCase::from_seed`]), so a failure is reproduced by re-running that
//! seed — the failure report carries it, plus a greedily minimized variant
//! of the case ([`minimize`]) that still violates the same oracle.
//!
//! Oracles (all must hold for every case):
//!
//! 1. **Never-exit DT-SNN ≡ static SNN ≡ a plain `forward_sequence`** —
//!    the static prediction is the argmax of the sequence's running mean at
//!    every budget; a dynamic run under a θ no entropy undercuts predicts it
//!    at `T`, its accumulated logits bitwise the running sum at every `t`.
//! 2. **Thread-count invariance** — one inference under 1 worker and under 4
//!    workers returns bitwise-identical [`DynamicOutcome`]s (the contract of
//!    the deterministic parallel execution layer).
//! 3. *(retired with its subject: the per-weight device read model it
//!    checked against quantization was deleted. Oracle 7(a) checks the same
//!    grid bitwise through the fault injector, now the only device model.
//!    The number stays so the later oracles keep theirs.)*
//! 4. **Mapping invariants** — every [`MappedLayer`] satisfies the
//!    arithmetic relations of Sec. III-B, and remapping is bitwise stable.
//! 5. **Checkpoint round-trip** — saving a network and loading it into a
//!    differently-initialized clone of the same architecture reproduces the
//!    original's inference outputs bitwise.
//! 6. **Compacted batched evaluation ≡ sequential** — the dataset driver
//!    behind [`DynamicEvaluation::run`] and
//!    [`DynamicEvaluation::run_batched`] (active-set compaction, windows
//!    fanned out over workers) must reproduce a plain loop over the
//!    per-sample runner bitwise: outcomes, T̂ histogram AND accumulated
//!    spike activity, under 1 worker and under 4.
//! 7. **Fault-injection invariants** — the null [`FaultModel`] over
//!    noiseless devices reduces injection bitwise to quantize–dequantize
//!    (digital parameters untouched), a live model is seed-reproducible and
//!    thread-count invariant, and severity scaling never leaves the valid
//!    model domain.
//! 8. *(retired with its subject: the event-driven CSR f32 kernels it
//!    compared against the dense ones were deleted. The number stays so
//!    the later oracles keep theirs.)*
//! 9. *(retired with its subject: the int8 weight kernels it checked for
//!    reproducibility, thread-count invariance and finiteness were deleted.
//!    The deployment grid lives on in oracle 7's fault injector. The number
//!    stays so the later oracles keep theirs.)*
//! 10. **Continuous-batching server ≡ sequential runner** — a seeded
//!     request trace replayed through the simulated-clock serving engine
//!     (staggered arrivals, mid-window admissions, compaction-retired
//!     rows) must reproduce each request's solo [`DynamicInference`]
//!     run bitwise — prediction, T̂ and accumulated logits — under 1
//!     worker and under 4.
//! 11. **Event-driven simulator ≡ analytical ledger** — with pipelining
//!     disabled and contention off, the event-queue hardware simulator
//!     ([`EventSim`]) must reproduce `CostModel::inference_cost` exactly:
//!     bitwise on latency cycles, within 1e-9 relative on every energy
//!     component, with and without the σ–E module, under 1 worker and
//!     under 4 — and so must a run that σ–E exits at every T̂ ≤ T, against
//!     the ledger at integer T̂.
//! 12. **No-fault cluster ≡ single server** — the sharded fault-tolerant
//!     router with an empty fault schedule must be a transparent wrapper:
//!     a 1-worker cluster reproduces the single-server replay bitwise
//!     (status, prediction, T̂, finish times, scores and accumulated
//!     logits; arrival stamps are the documented divergence), and a
//!     4-worker cluster still matches each request's solo
//!     [`DynamicInference`] run bitwise with exactly-once termination —
//!     both under 1 worker thread and under 4.
//! 13. **Every vector tier ≡ forced scalar** — a traced inference under each
//!     SIMD level the CPU has replays the forced-scalar one bitwise (outcome
//!     and every timestep's record), under 1 worker and under 4.

use dtsnn_bench::Arch;
use dtsnn_core::{
    static_inference, DynamicEvaluation, DynamicInference, DynamicOutcome, DynamicSampleOutcome,
    ExitPolicy,
};
use dtsnn_imc::{
    ChipMapping, Component, CostModel, EventSim, FaultInjector, FaultModel, HardwareConfig,
    Placement, SimOptions,
};
use dtsnn_snn::{load_params, save_params, LifConfig, Mode, ModelConfig, Snn};
use dtsnn_tensor::quant::quantize_dequantize;
use dtsnn_tensor::{parallel, simd, Tensor, TensorRng};

/// A randomly derived but fully deterministic fuzz configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FuzzCase {
    /// The seed this case was derived from (reproduction handle).
    pub seed: u64,
    /// `true` → ResNet backbone, `false` → VGG.
    pub resnet: bool,
    /// Number of classes (2–5).
    pub classes: usize,
    /// Square input extent (8, 12 or 16).
    pub image_size: usize,
    /// Backbone channel width (4 or 8).
    pub width: usize,
    /// Maximum timestep window (1–4).
    pub timesteps: usize,
    /// Entropy exit threshold for the early-exit oracles.
    pub theta: f32,
    /// Crossbar size for the mapping oracle (32, 64 or 128).
    pub crossbar_size: usize,
}

impl FuzzCase {
    /// Derives a case from a seed. Identical seeds give identical cases.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = TensorRng::seed_from(seed ^ 0xF0_55_EE_D5);
        FuzzCase {
            seed,
            resnet: rng.bernoulli(0.5),
            classes: 2 + rng.below(4),
            image_size: [8, 12, 16][rng.below(3)],
            width: [4, 8][rng.below(2)],
            timesteps: 1 + rng.below(4),
            theta: rng.uniform(0.05, 0.95),
            crossbar_size: [32, 64, 128][rng.below(3)],
        }
    }

    fn arch(&self) -> Arch {
        if self.resnet {
            Arch::ResNet
        } else {
            Arch::Vgg
        }
    }

    fn model_config(&self) -> ModelConfig {
        ModelConfig {
            in_channels: 2,
            image_size: self.image_size,
            num_classes: self.classes,
            lif: LifConfig { v_th: 1.0, tau: 0.75, ..LifConfig::default() },
            width: self.width,
            tdbn_alpha: 1.0,
        }
    }

    fn build(&self, seed_offset: u64) -> Result<Snn, String> {
        let mut rng = TensorRng::seed_from(self.seed.wrapping_add(seed_offset));
        self.arch().build(&self.model_config(), &mut rng).map_err(|e| e.to_string())
    }

    fn frame(&self, tag: u64) -> Tensor {
        let mut rng = TensorRng::seed_from(self.seed ^ tag);
        Tensor::randn(&[2, self.image_size, self.image_size], 0.5, 0.5, &mut rng)
    }
}

/// A θ below any entropy a softmax over ≥2 finite-logit classes can reach in
/// f32 — the "never triggers" threshold of oracle 1.
const THETA_NEVER: f32 = 1e-30;

fn oracle_never_exit_equals_static(case: &FuzzCase) -> Result<(), String> {
    let runner = DynamicInference::new(
        ExitPolicy::entropy(THETA_NEVER).map_err(|e| e.to_string())?,
        case.timesteps,
    )
    .map_err(|e| e.to_string())?;
    let frame = case.frame(0xA11CE);
    let mut dyn_net = case.build(1)?;
    let traced =
        runner.run_traced(&mut dyn_net, std::slice::from_ref(&frame)).map_err(|e| e.to_string())?;
    if traced.outcome.exited_early || traced.outcome.timesteps_used != case.timesteps {
        return Err(format!(
            "θ={THETA_NEVER:e} exited early at t={} of {}",
            traced.outcome.timesteps_used, case.timesteps
        ));
    }
    // the reference: a plain forward_sequence, its running sum and mean
    let batched = frame.reshape(&[1, 2, case.image_size, case.image_size]).map_err(|e| e.to_string())?;
    let outputs = case
        .build(1)?
        .forward_sequence(std::slice::from_ref(&batched), case.timesteps, Mode::Eval)
        .map_err(|e| e.to_string())?;
    let (mut sum, mut reference) = (outputs[0].clone(), 0);
    let mut static_net = case.build(1)?;
    for (t, output) in outputs.iter().enumerate() {
        if t > 0 {
            sum.axpy(1.0, output).map_err(|e| e.to_string())?;
        }
        let mean = sum.scale(1.0 / (t + 1) as f32);
        reference = mean.row(0).and_then(|r| r.argmax()).map_err(|e| e.to_string())?;
        let static_pred = static_inference(&mut static_net, std::slice::from_ref(&frame), t + 1)
            .map_err(|e| e.to_string())?;
        if static_pred != reference {
            return Err(format!("t={}: static prediction {static_pred} != {reference}", t + 1));
        }
        if traced.per_timestep[t].accumulated_logits.as_slice() != sum.data() {
            return Err(format!("t={}: accumulated logits differ from the running sum", t + 1));
        }
    }
    if traced.outcome.prediction != reference {
        return Err(format!("never-exit prediction {} != {reference}", traced.outcome.prediction));
    }
    Ok(())
}

fn oracle_thread_count_invariance(case: &FuzzCase) -> Result<(), String> {
    let runner = DynamicInference::new(
        ExitPolicy::entropy(case.theta).map_err(|e| e.to_string())?,
        case.timesteps,
    )
    .map_err(|e| e.to_string())?;
    let frame = case.frame(0xB0B);
    let run_with = |threads: usize| -> Result<DynamicOutcome, String> {
        parallel::with_threads(threads, || {
            let mut net = case.build(2)?;
            runner.run(&mut net, std::slice::from_ref(&frame)).map_err(|e| e.to_string())
        })
    };
    let single = run_with(1)?;
    let multi = run_with(4)?;
    if single != multi {
        return Err(format!(
            "outcome differs across thread counts: 1 worker {single:?} vs 4 workers {multi:?}"
        ));
    }
    Ok(())
}

fn oracle_mapping_invariants(case: &FuzzCase) -> Result<(), String> {
    let config = HardwareConfig { crossbar_size: case.crossbar_size, ..HardwareConfig::default() };
    let geometry = case.arch().geometry(&case.model_config());
    let mapping = ChipMapping::map(&geometry, &config).map_err(|e| e.to_string())?;
    let slices = config.slices_per_weight();
    for (i, layer) in mapping.layers().iter().enumerate() {
        let xb = config.crossbar_size;
        if layer.physical_cols != layer.cols * slices * 2 {
            return Err(format!("layer {i}: physical_cols {} != cols·slices·2", layer.physical_cols));
        }
        if layer.row_segments != layer.rows.div_ceil(xb)
            || layer.col_segments != layer.physical_cols.div_ceil(xb)
        {
            return Err(format!("layer {i}: segment counts disagree with ⌈extent/{xb}⌉"));
        }
        if layer.crossbars != layer.row_segments * layer.col_segments {
            return Err(format!("layer {i}: crossbars != row_segments × col_segments"));
        }
        if layer.tiles != layer.crossbars.div_ceil(config.crossbars_per_tile) {
            return Err(format!("layer {i}: tiles != ⌈crossbars / crossbars_per_tile⌉"));
        }
        if layer.output_neurons != layer.cols * layer.vector_presentations {
            return Err(format!("layer {i}: output_neurons != cols × presentations"));
        }
    }
    if mapping.layers().last().map(|l| l.is_classifier) != Some(true) {
        return Err("last mapped layer not marked as classifier".into());
    }
    let remapped = ChipMapping::map(&geometry, &config).map_err(|e| e.to_string())?;
    if mapping != remapped {
        return Err("remapping the same geometry is not bitwise stable".into());
    }
    Ok(())
}

fn oracle_checkpoint_roundtrip(case: &FuzzCase) -> Result<(), String> {
    let mut original = case.build(3)?;
    let path = std::env::temp_dir().join(format!(
        "dtsnn-fuzz-ckpt-{}-{}.bin",
        case.seed,
        std::process::id()
    ));
    save_params(&mut original, &path).map_err(|e| e.to_string())?;
    // same architecture, different weights — load must overwrite all of them
    let mut reloaded = case.build(4)?;
    let load_result = load_params(&mut reloaded, &path).map_err(|e| e.to_string());
    let _ = std::fs::remove_file(&path);
    load_result?;
    let frame = case
        .frame(0xC0FFEE)
        .reshape(&[1, 2, case.image_size, case.image_size])
        .map_err(|e| e.to_string())?;
    let a = original
        .forward_sequence(std::slice::from_ref(&frame), case.timesteps, Mode::Eval)
        .map_err(|e| e.to_string())?;
    let b = reloaded
        .forward_sequence(std::slice::from_ref(&frame), case.timesteps, Mode::Eval)
        .map_err(|e| e.to_string())?;
    if a != b {
        return Err("reloaded network's inference outputs differ bitwise from the original".into());
    }
    Ok(())
}

fn oracle_batched_compaction_equals_sequential(case: &FuzzCase) -> Result<(), String> {
    let runner = DynamicInference::new(
        ExitPolicy::entropy(case.theta).map_err(|e| e.to_string())?,
        case.timesteps,
    )
    .map_err(|e| e.to_string())?;
    let samples = 5usize;
    let frames: Vec<Vec<Tensor>> =
        (0..samples).map(|k| vec![case.frame(0xBA7C40 + k as u64)]).collect();
    let labels: Vec<usize> = (0..samples).map(|k| k % case.classes).collect();
    // real difficulty values: a NaN placeholder would defeat the equality check
    let diffs: Vec<f32> = (0..samples).map(|k| k as f32 / samples as f32).collect();
    // The independent leg, written out here and not taken from the crate
    // under test: the solo runner sample by sample, each sample's activity
    // counters taken from zero and folded back in sample order.
    let mut net = case.build(5)?;
    let mut histogram = vec![0usize; case.timesteps];
    let mut outcomes = Vec::with_capacity(samples);
    let mut raw_activity = Vec::with_capacity(samples);
    for ((sample, &label), &difficulty) in frames.iter().zip(&labels).zip(&diffs) {
        let out = runner.run(&mut net, sample).map_err(|e| e.to_string())?;
        raw_activity.push(net.take_raw_activity());
        histogram[out.timesteps_used - 1] += 1;
        outcomes.push(DynamicSampleOutcome {
            timesteps_used: out.timesteps_used,
            correct: out.prediction == label,
            difficulty,
        });
    }
    for (sums, observations) in &raw_activity {
        net.absorb_raw_activity(sums, *observations);
    }
    let n = samples as f32;
    let plain = DynamicEvaluation {
        accuracy: outcomes.iter().filter(|s| s.correct).count() as f32 / n,
        avg_timesteps: outcomes.iter().map(|s| s.timesteps_used).sum::<usize>() as f32 / n,
        timestep_histogram: histogram,
        samples: outcomes,
        activity: net.take_activity(),
    };
    for threads in [1usize, 4] {
        let (seq, bat) = parallel::with_threads(threads, || -> Result<_, String> {
            let mut net = case.build(5)?;
            let seq = DynamicEvaluation::run(&mut net, &runner, &frames, &labels, Some(&diffs))
                .map_err(|e| e.to_string())?;
            let mut net = case.build(5)?;
            let bat = DynamicEvaluation::run_batched(
                &mut net, &runner, &frames, &labels, Some(&diffs), 2,
            )
            .map_err(|e| e.to_string())?;
            Ok((seq, bat))
        })?;
        for (name, eval) in [("sequential", &seq), ("batched", &bat)] {
            if *eval != plain {
                return Err(format!(
                    "{threads}-worker {name} evaluation diverges from the plain per-sample \
                     loop (outcomes/histogram/activity): plain {plain:?} vs {name} {eval:?}"
                ));
            }
        }
    }
    Ok(())
}

fn oracle_fault_injection_invariants(case: &FuzzCase) -> Result<(), String> {
    let geometry = case.arch().geometry(&case.model_config());
    // (a) the null model over noiseless devices collapses to pure
    // quantization on the crossbar-mapped parameters, and leaves the
    // digital (non-decay) parameters untouched
    let quiet = HardwareConfig {
        sigma_over_mu: 0.0,
        crossbar_size: case.crossbar_size,
        ..HardwareConfig::default()
    };
    let injector = FaultInjector::for_geometry(FaultModel::none(), &geometry, &quiet)
        .map_err(|e| e.to_string())?;
    let mut net = case.build(6)?;
    let mut originals: Vec<(bool, Vec<f32>)> = Vec::new();
    net.visit_params(&mut |p| originals.push((p.decay, p.value.data().to_vec())));
    let mut rng = TensorRng::seed_from(case.seed ^ 0xFA17);
    let report = injector.inject(&mut net, &mut rng).map_err(|e| e.to_string())?;
    if report.weights_faulted != 0 || report.stuck_on + report.stuck_off != 0 {
        return Err(format!("null model reported faults: {report:?}"));
    }
    let mut idx = 0usize;
    let mut violation: Option<String> = None;
    net.visit_params(&mut |p| {
        let (decay, orig) = &originals[idx];
        idx += 1;
        if violation.is_some() {
            return;
        }
        if *decay {
            let scale = orig.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            for (&a, &o) in p.value.data().iter().zip(orig) {
                let want = quantize_dequantize(o, scale, quiet.weight_bits);
                if a.to_bits() != want.to_bits() {
                    violation =
                        Some(format!("null injection of {o} gave {a}, quantization gives {want}"));
                    return;
                }
            }
        } else if p.value.data() != orig.as_slice() {
            violation = Some("null injection touched a digital (non-crossbar) parameter".into());
        }
    });
    if let Some(e) = violation {
        return Err(e);
    }
    // (b) severity scaling must stay inside the valid model domain
    let model = FaultModel {
        stuck_on_rate: 0.01,
        stuck_off_rate: 0.02,
        read_sigma: 0.03,
        drift: 0.02,
        dead_wordline_rate: 0.005,
        dead_bitline_rate: 0.005,
    };
    if model.scaled(4.0).validate().is_err() || !model.scaled(0.0).is_null() {
        return Err("scaling a valid fault model left the valid domain".into());
    }
    // (c) a live model must be seed-reproducible and thread-count invariant
    let config = HardwareConfig { crossbar_size: case.crossbar_size, ..HardwareConfig::default() };
    let damage = |threads: usize| {
        parallel::with_threads(threads, || -> Result<_, String> {
            let injector = FaultInjector::for_geometry(model, &geometry, &config)
                .map_err(|e| e.to_string())?;
            let mut net = case.build(6)?;
            let mut rng = TensorRng::seed_from(case.seed ^ 0xDA06);
            let report = injector.inject(&mut net, &mut rng).map_err(|e| e.to_string())?;
            let mut weights: Vec<Vec<f32>> = Vec::new();
            net.visit_params(&mut |p| weights.push(p.value.data().to_vec()));
            Ok((weights, report))
        })
    };
    let single = damage(1)?;
    if single != damage(1)? {
        return Err("same-seed fault injection is not reproducible".into());
    }
    if single != damage(4)? {
        return Err("fault injection differs across thread counts".into());
    }
    Ok(())
}

fn oracle_simd_equals_scalar(case: &FuzzCase) -> Result<(), String> {
    let runner = DynamicInference::new(
        ExitPolicy::entropy(case.theta).map_err(|e| e.to_string())?,
        case.timesteps,
    )
    .map_err(|e| e.to_string())?;
    let frame = case.frame(0x51_3D);
    let run_at = |threads: usize, level: simd::SimdLevel| -> Result<_, String> {
        parallel::with_threads(threads, || {
            simd::with_level(level, || {
                let mut net = case.build(13)?;
                let traced = runner
                    .run_traced(&mut net, std::slice::from_ref(&frame))
                    .map_err(|e| e.to_string())?;
                Ok((traced.outcome, traced.per_timestep))
            })
        })
    };
    // forced-scalar is the conformance oracle; every detected vector tier
    // must replay the whole traced forward pass bitwise
    for threads in [1usize, 4] {
        let scalar = run_at(threads, simd::SimdLevel::Scalar)?;
        for &lvl in simd::SimdLevel::ALL.iter().filter(|&&l| l <= simd::detected()) {
            let vec = run_at(threads, lvl)?;
            if scalar.0 != vec.0 {
                return Err(format!(
                    "{threads}-worker outcome differs: scalar {:?} vs {} {:?}",
                    scalar.0,
                    lvl.name(),
                    vec.0
                ));
            }
            for (t, (a, b)) in scalar.1.iter().zip(&vec.1).enumerate() {
                let ab: Vec<u32> = a.accumulated_logits.iter().map(|v| v.to_bits()).collect();
                let bb: Vec<u32> = b.accumulated_logits.iter().map(|v| v.to_bits()).collect();
                if ab != bb {
                    return Err(format!(
                        "{threads}-worker {} accumulated logits differ bitwise at t={}",
                        lvl.name(),
                        t + 1
                    ));
                }
                if a.spike_densities != b.spike_densities {
                    return Err(format!(
                        "{threads}-worker {} spike densities differ at t={}",
                        lvl.name(),
                        t + 1
                    ));
                }
            }
        }
    }
    Ok(())
}

fn oracle_serving_equals_sequential(case: &FuzzCase) -> Result<(), String> {
    use dtsnn_serve::{
        replay_trace, CompletionStatus, Request, Server, ServerConfig, ServiceModel, SimClock,
        ThetaController, TracedRequest,
    };
    let runner = DynamicInference::new(
        ExitPolicy::entropy(case.theta).map_err(|e| e.to_string())?,
        case.timesteps,
    )
    .map_err(|e| e.to_string())?;
    // staggered arrivals under 2 slots force mid-window admissions into
    // carried LIF state whenever exits free slots out of phase
    let samples = 5usize;
    let trace: Vec<TracedRequest> = (0..samples)
        .map(|k| TracedRequest {
            at_nanos: k as u64 * 700,
            request: Request {
                id: k as u64,
                frames: vec![case.frame(0x5E7_5E7 + k as u64)],
                deadline_nanos: None,
                priority: 0,
            },
        })
        .collect();
    let config = ServerConfig {
        max_timesteps: case.timesteps,
        slots: 2,
        queue_capacity: samples,
        theta: ThetaController::fixed(case.theta).map_err(|e| e.to_string())?,
        service: ServiceModel { step_fixed_nanos: 1000, step_per_row_nanos: 100 },
        default_deadline_nanos: None,
        record_schedule: false,
    };
    for threads in [1usize, 4] {
        let outcomes = parallel::with_threads(threads, || -> Result<_, String> {
            let net = case.build(9)?;
            let mut server =
                Server::new(net, config.clone(), SimClock::new()).map_err(|e| e.to_string())?;
            replay_trace(&mut server, &trace).map_err(|e| e.to_string())?;
            Ok(server.take_outcomes())
        })?;
        if outcomes.len() != samples {
            return Err(format!(
                "{threads}-worker server returned {} outcomes for {samples} requests",
                outcomes.len()
            ));
        }
        for tr in &trace {
            let outcome = outcomes
                .iter()
                .find(|o| o.id == tr.request.id)
                .ok_or_else(|| format!("request {} has no outcome", tr.request.id))?;
            if outcome.status != CompletionStatus::Completed {
                return Err(format!(
                    "{threads}-worker request {} ended {:?} without deadlines configured",
                    tr.request.id, outcome.status
                ));
            }
            let mut net = case.build(9)?;
            let solo = runner
                .run_traced(&mut net, &tr.request.frames)
                .map_err(|e| e.to_string())?;
            if outcome.prediction != Some(solo.outcome.prediction)
                || outcome.timesteps_used != solo.outcome.timesteps_used
            {
                return Err(format!(
                    "{threads}-worker request {}: server (pred {:?}, T̂ {}) vs solo (pred {}, T̂ {})",
                    tr.request.id,
                    outcome.prediction,
                    outcome.timesteps_used,
                    solo.outcome.prediction,
                    solo.outcome.timesteps_used
                ));
            }
            let solo_acc = &solo.per_timestep.last().expect("nonempty trace").accumulated_logits;
            let server_bits: Vec<u32> =
                outcome.accumulated_logits.iter().map(|v| v.to_bits()).collect();
            let solo_bits: Vec<u32> = solo_acc.iter().map(|v| v.to_bits()).collect();
            if server_bits != solo_bits {
                return Err(format!(
                    "{threads}-worker request {}: accumulated logits differ bitwise from the solo run",
                    tr.request.id
                ));
            }
        }
    }
    Ok(())
}

fn oracle_cluster_equals_server(case: &FuzzCase) -> Result<(), String> {
    use dtsnn_serve::{
        replay_trace, BrownoutConfig, Cluster, ClusterConfig, CompletionStatus, FaultSchedule,
        Request, Server, ServerConfig, ServiceModel, SimClock, ThetaController, TracedRequest,
    };
    let samples = 5usize;
    let trace: Vec<TracedRequest> = (0..samples)
        .map(|k| TracedRequest {
            at_nanos: k as u64 * 700,
            request: Request {
                id: k as u64,
                frames: vec![case.frame(0xC1_057E4 + k as u64)],
                deadline_nanos: None,
                priority: 0,
            },
        })
        .collect();
    let server_config = ServerConfig {
        max_timesteps: case.timesteps,
        slots: 2,
        queue_capacity: samples,
        theta: ThetaController::fixed(case.theta).map_err(|e| e.to_string())?,
        service: ServiceModel { step_fixed_nanos: 1000, step_per_row_nanos: 100 },
        default_deadline_nanos: None,
        record_schedule: false,
    };
    let cluster_config = ClusterConfig {
        server: server_config.clone(),
        queue_capacity: samples,
        retry_budget: 3,
        backoff_base_nanos: 1000,
        stall_timeout_nanos: None,
        hedge_after_nanos: None,
        max_consecutive_faults: 3,
        brownout: BrownoutConfig::disabled(),
        record_events: false,
    };
    let runner = DynamicInference::new(
        ExitPolicy::entropy(case.theta).map_err(|e| e.to_string())?,
        case.timesteps,
    )
    .map_err(|e| e.to_string())?;
    for threads in [1usize, 4] {
        let baseline = parallel::with_threads(threads, || -> Result<_, String> {
            let net = case.build(9)?;
            let mut server =
                Server::new(net, server_config.clone(), SimClock::new()).map_err(|e| e.to_string())?;
            replay_trace(&mut server, &trace).map_err(|e| e.to_string())?;
            Ok(server.take_outcomes())
        })?;
        for workers in [1usize, 4] {
            let outcomes = parallel::with_threads(threads, || -> Result<_, String> {
                let net = case.build(9)?;
                let mut cluster =
                    Cluster::simulated(net, cluster_config.clone(), workers, FaultSchedule::none())
                        .map_err(|e| e.to_string())?;
                cluster.run_trace(&trace).map_err(|e| e.to_string())?;
                let stats = cluster.stats();
                if stats.completed != samples as u64
                    || stats.requeues + stats.hedges + stats.shed + stats.failed != 0
                {
                    return Err(format!("no-fault {workers}-worker cluster misbehaved: {stats:?}"));
                }
                Ok(cluster.take_outcomes())
            })?;
            if outcomes.len() != samples {
                return Err(format!(
                    "threads={threads} workers={workers}: {} outcomes for {samples} requests",
                    outcomes.len()
                ));
            }
            if workers == 1 {
                // full behavioral parity with the single server, including
                // termination order and finish times (arrival stamps are
                // the documented divergence)
                for (c, b) in outcomes.iter().zip(&baseline) {
                    let c_bits: Vec<u32> =
                        c.accumulated_logits.iter().map(|v| v.to_bits()).collect();
                    let b_bits: Vec<u32> =
                        b.accumulated_logits.iter().map(|v| v.to_bits()).collect();
                    if c.id != b.id
                        || c.status != b.status
                        || c.prediction != b.prediction
                        || c.timesteps_used != b.timesteps_used
                        || c.finish_nanos != b.finish_nanos
                        || c_bits != b_bits
                    {
                        return Err(format!(
                            "threads={threads}: 1-worker cluster diverged from the single server \
                             at request {} (cluster {:?} pred {:?} T̂ {} finish {}, server {:?} \
                             pred {:?} T̂ {} finish {})",
                            c.id,
                            c.status,
                            c.prediction,
                            c.timesteps_used,
                            c.finish_nanos,
                            b.status,
                            b.prediction,
                            b.timesteps_used,
                            b.finish_nanos
                        ));
                    }
                }
            } else {
                // sharded: per-request solo parity and exactly-once
                for tr in &trace {
                    let outcome = outcomes
                        .iter()
                        .find(|o| o.id == tr.request.id)
                        .ok_or_else(|| format!("request {} has no outcome", tr.request.id))?;
                    if outcome.status != CompletionStatus::Completed {
                        return Err(format!(
                            "workers={workers} request {} ended {:?} without faults or deadlines",
                            tr.request.id, outcome.status
                        ));
                    }
                    let mut net = case.build(9)?;
                    let solo = runner
                        .run_traced(&mut net, &tr.request.frames)
                        .map_err(|e| e.to_string())?;
                    let solo_acc =
                        &solo.per_timestep.last().expect("nonempty trace").accumulated_logits;
                    let outcome_bits: Vec<u32> =
                        outcome.accumulated_logits.iter().map(|v| v.to_bits()).collect();
                    let solo_bits: Vec<u32> = solo_acc.iter().map(|v| v.to_bits()).collect();
                    if outcome.prediction != Some(solo.outcome.prediction)
                        || outcome.timesteps_used != solo.outcome.timesteps_used
                        || outcome_bits != solo_bits
                    {
                        return Err(format!(
                            "workers={workers} request {}: sharded outcome (pred {:?}, T̂ {}) \
                             drifted from solo (pred {}, T̂ {})",
                            tr.request.id,
                            outcome.prediction,
                            outcome.timesteps_used,
                            solo.outcome.prediction,
                            solo.outcome.timesteps_used
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

fn oracle_event_sim_matches_ledger(case: &FuzzCase) -> Result<(), String> {
    let config = HardwareConfig { crossbar_size: case.crossbar_size, ..HardwareConfig::default() };
    let geometry = case.arch().geometry(&case.model_config());
    let mapping = ChipMapping::map(&geometry, &config).map_err(|e| e.to_string())?;
    let cost = CostModel::new(mapping, config).map_err(|e| e.to_string())?;
    // seeded per-layer densities; the analog-encoded first layer stays 1.0
    let mut rng = TensorRng::seed_from(case.seed ^ 0x0051_E711);
    let mut densities: Vec<f32> =
        (0..cost.mapping().layers().len()).map(|_| rng.uniform(0.0, 1.0)).collect();
    densities[0] = 1.0;
    let t_max = case.timesteps;
    for classes in [None, Some(case.classes)] {
        // T̂ = T is the plain run; an earlier exit needs σ–E to decide it
        let first_exit = if classes.is_some() { 1 } else { t_max };
        for t_hat in first_exit..=t_max {
            let ledger = cost
                .inference_cost(&densities, t_hat as f64, classes)
                .map_err(|e| e.to_string())?;
            for threads in [1usize, 4] {
                let report = parallel::with_threads(threads, || {
                    let placement = Placement::linear(cost.mapping())?;
                    let sim = EventSim::new(&cost, placement, SimOptions::analytical_parity())?;
                    if t_hat == t_max {
                        sim.run(&densities, t_max, classes)
                    } else {
                        sim.run_exiting(&densities, t_max, t_hat, classes)
                    }
                })
                .map_err(|e| e.to_string())?;
                let at = format!("threads={threads} classes={classes:?} T̂={t_hat}/{t_max}");
                if report.cost.latency_cycles != ledger.latency_cycles {
                    return Err(format!(
                        "{at}: event-sim latency {} cycles != analytical {} cycles",
                        report.cost.latency_cycles, ledger.latency_cycles
                    ));
                }
                for c in Component::ALL {
                    let sim = report.cost.energy.component(c);
                    let ana = ledger.energy.component(c);
                    let relative = (sim - ana).abs() / ana.abs().max(1e-12);
                    if relative > 1e-9 {
                        return Err(format!(
                            "{at}: component {} energy {sim} pJ drifts from analytical {ana} pJ \
                             (relative {relative:e})",
                            c.name()
                        ));
                    }
                }
                if (report.cost.timesteps - ledger.timesteps).abs() > 0.0 {
                    return Err(format!(
                        "{at}: executed timesteps {} != analytical {}",
                        report.cost.timesteps, ledger.timesteps
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Runs every oracle against `case`, returning the first violation.
///
/// # Errors
///
/// Returns a description of the violated equivalence.
pub fn run_case(case: &FuzzCase) -> Result<(), String> {
    oracle_never_exit_equals_static(case).map_err(|e| format!("never-exit≡static: {e}"))?;
    oracle_thread_count_invariance(case).map_err(|e| format!("thread-invariance: {e}"))?;
    oracle_mapping_invariants(case).map_err(|e| format!("mapping: {e}"))?;
    oracle_checkpoint_roundtrip(case).map_err(|e| format!("checkpoint: {e}"))?;
    oracle_batched_compaction_equals_sequential(case)
        .map_err(|e| format!("batched-compaction≡sequential: {e}"))?;
    oracle_fault_injection_invariants(case).map_err(|e| format!("fault-injection: {e}"))?;
    oracle_simd_equals_scalar(case).map_err(|e| format!("simd≡scalar: {e}"))?;
    oracle_serving_equals_sequential(case).map_err(|e| format!("serving≡sequential: {e}"))?;
    oracle_event_sim_matches_ledger(case).map_err(|e| format!("event-sim≡ledger: {e}"))?;
    oracle_cluster_equals_server(case).map_err(|e| format!("cluster≡server: {e}"))?;
    Ok(())
}

/// Greedily shrinks a failing case while `check` keeps failing.
///
/// Each step tries one-notch reductions of every dimension (fewer timesteps,
/// smaller image, narrower network, fewer classes, VGG instead of ResNet,
/// smaller crossbar) and keeps the first reduction that still fails,
/// looping to a fixed point. The result is the minimal reproduction reported
/// alongside the seed.
pub fn minimize(case: FuzzCase, check: &dyn Fn(&FuzzCase) -> Result<(), String>) -> FuzzCase {
    debug_assert!(check(&case).is_err(), "minimize requires a failing case");
    let mut current = case;
    loop {
        let mut candidates: Vec<FuzzCase> = Vec::new();
        if current.timesteps > 1 {
            candidates.push(FuzzCase { timesteps: current.timesteps - 1, ..current });
        }
        if current.image_size > 8 {
            candidates.push(FuzzCase { image_size: current.image_size - 4, ..current });
        }
        if current.width > 4 {
            candidates.push(FuzzCase { width: 4, ..current });
        }
        if current.classes > 2 {
            candidates.push(FuzzCase { classes: current.classes - 1, ..current });
        }
        if current.resnet {
            candidates.push(FuzzCase { resnet: false, ..current });
        }
        if current.crossbar_size > 32 {
            candidates.push(FuzzCase { crossbar_size: current.crossbar_size / 2, ..current });
        }
        match candidates.into_iter().find(|c| check(c).is_err()) {
            Some(smaller) => current = smaller,
            None => return current,
        }
    }
}

/// A minimized, reproducible fuzz failure.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzFailure {
    /// Seed that reproduces the failure (`FuzzCase::from_seed(seed)`).
    pub seed: u64,
    /// The case as originally derived.
    pub original: FuzzCase,
    /// The greedily minimized case that still fails.
    pub minimized: FuzzCase,
    /// The violated oracle, from the minimized case.
    pub message: String,
}

impl std::fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fuzz failure — reproduce with seed {:#x} (FuzzCase::from_seed then run_case)\n  oracle: {}\n  original:  {:?}\n  minimized: {:?}",
            self.seed, self.message, self.original, self.minimized
        )
    }
}

/// Derives the case for `seed`, runs every oracle, and on failure returns the
/// seed plus a minimized reproduction.
///
/// # Errors
///
/// Returns [`FuzzFailure`] describing the violated equivalence.
pub fn run_seed(seed: u64) -> Result<(), Box<FuzzFailure>> {
    let original = FuzzCase::from_seed(seed);
    match run_case(&original) {
        Ok(()) => Ok(()),
        Err(first_message) => {
            let minimized = minimize(original, &|c| run_case(c));
            let message = run_case(&minimized).err().unwrap_or(first_message);
            Err(Box::new(FuzzFailure { seed, original, minimized, message }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic_and_in_range() {
        for seed in 0..64u64 {
            let a = FuzzCase::from_seed(seed);
            assert_eq!(a, FuzzCase::from_seed(seed));
            assert!((2..=5).contains(&a.classes));
            assert!([8, 12, 16].contains(&a.image_size));
            assert!([4, 8].contains(&a.width));
            assert!((1..=4).contains(&a.timesteps));
            assert!(a.theta > 0.0 && a.theta < 1.0);
            assert!([32, 64, 128].contains(&a.crossbar_size));
        }
        // the derivation actually varies across seeds
        let distinct: std::collections::HashSet<usize> =
            (0..64).map(|s| FuzzCase::from_seed(s).classes).collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn minimizer_reaches_the_smallest_failing_case() {
        // synthetic oracle: fails whenever timesteps ≥ 2 and width ≥ 8 —
        // the minimizer must shrink everything else to its floor while
        // keeping exactly those two dimensions at their failure boundary
        let check = |c: &FuzzCase| -> Result<(), String> {
            if c.timesteps >= 2 && c.width >= 8 {
                Err("synthetic".into())
            } else {
                Ok(())
            }
        };
        let start = FuzzCase {
            seed: 99,
            resnet: true,
            classes: 5,
            image_size: 16,
            width: 8,
            timesteps: 4,
            theta: 0.5,
            crossbar_size: 128,
        };
        let min = minimize(start, &check);
        assert!(check(&min).is_err(), "minimized case must still fail");
        assert_eq!(min.timesteps, 2);
        assert_eq!(min.width, 8);
        assert_eq!(min.image_size, 8);
        assert_eq!(min.classes, 2);
        assert!(!min.resnet);
        assert_eq!(min.crossbar_size, 32);
    }
}
