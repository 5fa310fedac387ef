//! Dataset-level evaluation harnesses: the machinery behind Table II,
//! Fig. 2, Fig. 4 and the pie charts of Fig. 5.

use crate::inference::DynamicInference;
use crate::{CoreError, Result};
use dtsnn_snn::{check_frames, Snn, SpikeActivity};
use dtsnn_tensor::{parallel, Tensor};

/// Per-sample record of a dynamic evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicSampleOutcome {
    /// Timesteps the sample consumed.
    pub timesteps_used: usize,
    /// Whether the prediction was correct.
    pub correct: bool,
    /// Synthesis-time difficulty of the sample (NaN when unknown).
    pub difficulty: f32,
}

/// Aggregate result of evaluating DT-SNN over a dataset split.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicEvaluation {
    /// Top-1 accuracy.
    pub accuracy: f32,
    /// Mean T̂ over the split (the paper's headline "average timesteps").
    pub avg_timesteps: f32,
    /// `histogram[t-1]` = number of samples that exited at timestep `t`.
    pub timestep_histogram: Vec<usize>,
    /// Per-sample outcomes, aligned with the input order.
    pub samples: Vec<DynamicSampleOutcome>,
    /// Spike activity accumulated during the evaluation (drives the energy
    /// model).
    pub activity: SpikeActivity,
}

/// The input checks every dataset-level entry shares, all made before
/// anything is forwarded (or timed): frames, labels and difficulties align,
/// the window `t_max` is nonzero, and every sample keeps the frame contract
/// under it ([`check_frames`]).
pub(crate) fn check_inputs(
    frames: &[Vec<Tensor>],
    labels: &[usize],
    difficulties: Option<&[f32]>,
    t_max: usize,
) -> Result<()> {
    if frames.is_empty() || frames.len() != labels.len() {
        return Err(CoreError::BadInput("frames/labels mismatch or empty".into()));
    }
    if difficulties.is_some_and(|d| d.len() != frames.len()) {
        return Err(CoreError::BadInput("difficulties length mismatch".into()));
    }
    if t_max == 0 {
        return Err(CoreError::BadInput("timesteps must be nonzero".into()));
    }
    for (i, sample) in frames.iter().enumerate() {
        check_frames(sample, t_max).map_err(|e| CoreError::BadInput(format!("sample {i}: {e}")))?;
    }
    Ok(())
}

/// The one fan-out of this crate: `f(net, i, &items[i])` for every item,
/// results in item order. With one worker (or one item) `net` is `network`
/// itself — no clone, so its warmed arena keeps serving; otherwise each
/// worker owns one clone (with a fresh arena) for its contiguous run of
/// items. Items must be independent given the network's parameters, which
/// makes the result bitwise identical for any `workers`.
///
/// `workers` is the caller's one reading of [`parallel::num_threads`]: the
/// serial-or-cloned decision is made here, once per call, whatever a
/// concurrent `set_threads` does meanwhile.
pub(crate) fn fan_out<T: Sync, R: Send>(
    network: &mut Snn,
    workers: usize,
    items: &[T],
    f: impl Fn(&mut Snn, usize, &T) -> Result<R> + Sync,
) -> Result<Vec<R>> {
    if workers.min(items.len()) <= 1 {
        return items.iter().enumerate().map(|(i, item)| f(network, i, item)).collect();
    }
    let proto: &Snn = network;
    let per_item = parallel::map_chunks(items, |first, chunk| {
        let mut net = proto.clone();
        chunk.iter().enumerate().map(|(k, item)| f(&mut net, first + k, item)).collect()
    });
    per_item.into_iter().collect()
}

/// How one sample left its window.
#[derive(Debug, Clone)]
struct Exit {
    /// The prediction at every timestep it executed, so `len` is T̂ and the
    /// last entry the prediction it exits with.
    predictions: Vec<usize>,
    /// Every accumulated logit, score and probability it produced was finite.
    finite: bool,
    /// Per-layer spike-density sums over the timesteps it executed.
    sums: Vec<f64>,
}

/// Runs one sample to its exit through the one-row driver of
/// [`DynamicInference::run`], recording after every fold its prediction,
/// whether everything the policy saw was finite, and its per-layer spike
/// densities (folded in f64, in timestep order, so activity stops at the
/// sample's exit).
fn run_sample(net: &mut Snn, runner: &DynamicInference, sample: &[Tensor]) -> Result<Exit> {
    let mut exit = Exit {
        predictions: Vec::with_capacity(runner.max_timesteps()),
        finite: true,
        sums: Vec::new(),
    };
    runner.drive(net, sample, |net, window| {
        let layer_rows = net.last_spike_row_densities()?;
        exit.sums.resize(layer_rows.len(), 0.0);
        for (acc, layer) in exit.sums.iter_mut().zip(&layer_rows) {
            *acc += layer[0] as f64;
        }
        let decision = window.decision(0);
        exit.predictions.push(decision.prediction);
        exit.finite &= decision.score.is_finite()
            && window.accumulated(0).iter().all(|v| v.is_finite())
            && window.probabilities(0).iter().all(|p| p.is_finite());
        Ok(())
    })?;
    Ok(exit)
}

/// The one dataset driver, dynamic or static: runs every sample on its own
/// ([`run_sample`]) fanned out over `workers` ([`fan_out`] — samples share
/// nothing) and returns the exits in dataset order, having absorbed their
/// spike activity into `network` in that order — one f64 chain whatever the
/// worker count, so exits **and** [`SpikeActivity`] are bitwise invariant in
/// it (a sample whose activity sums are not finite is left out).
///
/// `batch_size` is the callers' window size: it must be nonzero, and no
/// value of it changes the schedule or any bit of the result. One sample at a
/// time is the paper's batch-1 protocol, and on a CPU whose convolution
/// scatters one sample's spikes at a time a wider step buys nothing back.
fn run_samples(
    network: &mut Snn,
    runner: &DynamicInference,
    frames: &[Vec<Tensor>],
    labels: &[usize],
    difficulties: Option<&[f32]>,
    batch_size: usize,
    workers: usize,
) -> Result<Vec<Exit>> {
    if batch_size == 0 {
        return Err(CoreError::BadInput("batch_size must be nonzero".into()));
    }
    check_inputs(frames, labels, difficulties, runner.max_timesteps())?;
    let exits =
        fan_out(network, workers, frames, |net, _, sample| run_sample(net, runner, sample))?;
    // whatever the forwards accumulated on `network` (or something older) is
    // not the per-sample chain: discard it
    let _ = network.take_raw_activity();
    for exit in exits.iter().filter(|exit| exit.sums.iter().all(|s| s.is_finite())) {
        network.absorb_raw_activity(&exit.sums, exit.predictions.len());
    }
    Ok(exits)
}

/// [`run_samples`] behind every [`DynamicEvaluation`] entry. Samples that
/// produced a non-finite value are listed, not rescored.
pub(crate) fn drive(
    network: &mut Snn,
    runner: &DynamicInference,
    frames: &[Vec<Tensor>],
    labels: &[usize],
    difficulties: Option<&[f32]>,
    batch_size: usize,
    workers: usize,
) -> Result<QuarantinedEvaluation> {
    let exits = run_samples(network, runner, frames, labels, difficulties, batch_size, workers)?;
    let mut histogram = vec![0usize; runner.max_timesteps()];
    let (mut correct_total, mut timestep_total) = (0usize, 0usize);
    let mut quarantined = Vec::new();
    let samples: Vec<DynamicSampleOutcome> = exits
        .iter()
        .enumerate()
        .map(|(i, exit)| {
            if !exit.finite {
                quarantined.push(i);
            }
            let t = exit.predictions.len();
            let correct = exit.predictions[t - 1] == labels[i];
            correct_total += correct as usize;
            timestep_total += t;
            histogram[t - 1] += 1;
            let difficulty = difficulties.map_or(f32::NAN, |d| d[i]);
            DynamicSampleOutcome { timesteps_used: t, correct, difficulty }
        })
        .collect();
    let n = samples.len() as f32;
    let eval = DynamicEvaluation {
        accuracy: correct_total as f32 / n,
        avg_timesteps: timestep_total as f32 / n,
        timestep_histogram: histogram,
        samples,
        activity: network.take_activity(),
    };
    Ok(QuarantinedEvaluation { eval, quarantined })
}

impl DynamicEvaluation {
    /// Runs the dynamic-timestep evaluation, one sample at a time.
    ///
    /// `difficulties`, when provided, must align with `frames` and is copied
    /// into the per-sample outcomes (used by the Fig. 8 visualization).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadInput`] for mismatched inputs or a sample
    /// that breaks the frame contract ([`check_frames`]).
    pub fn run(
        network: &mut Snn,
        runner: &DynamicInference,
        frames: &[Vec<Tensor>],
        labels: &[usize],
        difficulties: Option<&[f32]>,
    ) -> Result<Self> {
        Self::run_batched(network, runner, frames, labels, difficulties, 1)
    }

    /// Like [`DynamicEvaluation::run`], but hardened against numerically
    /// broken forward passes: a sample whose inference produces a non-finite
    /// value anywhere the policy or prediction can see it (accumulated
    /// logits, policy scores, class probabilities) is **quarantined** — its
    /// index is reported and it is scored as incorrect instead of letting a
    /// NaN argmax silently poison the accuracy. This matters under fault
    /// injection, where a damaged substrate can blow up activations.
    ///
    /// Quarantined samples still contribute their T̂ and spike activity —
    /// the forward pass physically ran. Note the entropy policy's hardware
    /// model treats non-positive (hence also NaN) probabilities as
    /// contributing zero entropy, so a poisoned sample typically *exits
    /// immediately as confidently wrong* — exactly the failure mode this
    /// harness surfaces; under max-prob/margin the NaN score never fires
    /// and such samples burn the full window instead. Spike counts stay
    /// finite even when logits do not; should a sample's activity sums
    /// themselves be non-finite, they are dropped from the activity
    /// accumulator as well.
    ///
    /// On a healthy network the result equals [`DynamicEvaluation::run`]
    /// bitwise with an empty quarantine list.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DynamicEvaluation::run`].
    pub fn run_quarantined(
        network: &mut Snn,
        runner: &DynamicInference,
        frames: &[Vec<Tensor>],
        labels: &[usize],
        difficulties: Option<&[f32]>,
    ) -> Result<QuarantinedEvaluation> {
        let mut q =
            drive(network, runner, frames, labels, difficulties, 1, parallel::num_threads())?;
        for &i in &q.quarantined {
            q.eval.samples[i].correct = false;
        }
        let correct = q.eval.samples.iter().filter(|s| s.correct).count();
        q.eval.accuracy = correct as f32 / frames.len() as f32;
        Ok(q)
    }

    /// [`DynamicEvaluation::run`] for callers that name a window size: the
    /// same dataset driver, which runs **one sample at a time** through the
    /// per-sample runner's one-row [`crate::window::Window`] — the paper's
    /// batch-1 protocol, each input exiting on its own schedule (Eqs. 7–8).
    /// Every sample's prediction, T̂ and spike activity are recorded at its
    /// exit timestep, so activity accounting stops at each exit.
    ///
    /// `batch_size` must be nonzero; no value of it changes the schedule or
    /// any bit of the result. The multi-row window with active-set
    /// compaction ([`crate::window::Window::compact`]) serves the
    /// continuous-batching engine (`dtsnn-serve`), whose requests step in
    /// lockstep; here, where the convolution scatters one sample's spikes at
    /// a time, a wider step is slower per sample, not faster.
    ///
    /// Samples are independent and fan out over the `DTSNN_THREADS` workers
    /// (read once per call). With one worker they run on `network` itself,
    /// whose warmed arena then allocates nothing; with more, every worker
    /// runs its contiguous share of the samples on a clone of `network` and
    /// warms that clone's fresh arena. The per-sample outcomes **and** the
    /// accumulated [`SpikeActivity`] are bitwise identical for any
    /// `batch_size` and any `DTSNN_THREADS` setting.
    ///
    /// Each sample supplies either one frame (static input) or exactly `T`
    /// frames (event data); samples of both kinds may be mixed.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DynamicEvaluation::run`], and a zero
    /// `batch_size`.
    pub fn run_batched(
        network: &mut Snn,
        runner: &DynamicInference,
        frames: &[Vec<Tensor>],
        labels: &[usize],
        difficulties: Option<&[f32]>,
        batch_size: usize,
    ) -> Result<Self> {
        let workers = parallel::num_threads();
        Ok(drive(network, runner, frames, labels, difficulties, batch_size, workers)?.eval)
    }

    /// T̂ distribution as fractions (the Fig. 5 pie chart).
    pub fn timestep_distribution(&self) -> Vec<f32> {
        let n: usize = self.timestep_histogram.iter().sum();
        self.timestep_histogram
            .iter()
            .map(|&c| c as f32 / n.max(1) as f32)
            .collect()
    }
}

/// Result of [`DynamicEvaluation::run_quarantined`]: the evaluation over
/// **all** samples (quarantined ones scored as incorrect) plus the indices
/// that produced non-finite values. `eval.samples` stays aligned with the
/// input order, so callers can cross-reference.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedEvaluation {
    /// The evaluation, with quarantined samples forced incorrect.
    pub eval: DynamicEvaluation,
    /// Input indices whose forward pass produced NaN/Inf, ascending.
    pub quarantined: Vec<usize>,
}

/// Aggregate result of evaluating a static SNN at every timestep budget
/// `t = 1..=T` in a single pass (Fig. 2's accuracy-vs-T curves).
#[derive(Debug, Clone, PartialEq)]
pub struct StaticEvaluation {
    /// `accuracy_by_t[t-1]` = top-1 accuracy using the first `t` timesteps.
    pub accuracy_by_t: Vec<f32>,
    /// Spike activity accumulated during the evaluation.
    pub activity: SpikeActivity,
}

impl StaticEvaluation {
    /// Evaluates cumulative accuracy at every `t ≤ max_timesteps`: the driver
    /// of [`DynamicEvaluation::run`] with an exit that never fires, so the
    /// prediction at budget `t` is the argmax of the Eq. 5 running mean.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadInput`] for mismatched inputs, a zero window
    /// or a sample that breaks the frame contract ([`check_frames`]) — before
    /// anything is forwarded.
    pub fn run(
        network: &mut Snn,
        frames: &[Vec<Tensor>],
        labels: &[usize],
        max_timesteps: usize,
    ) -> Result<Self> {
        let runner = DynamicInference::full_window(max_timesteps);
        let workers = parallel::num_threads();
        let exits = run_samples(network, &runner, frames, labels, None, 1, workers)?;
        let mut correct_by_t = vec![0usize; max_timesteps];
        for (exit, &label) in exits.iter().zip(labels) {
            for (correct, &prediction) in correct_by_t.iter_mut().zip(&exit.predictions) {
                *correct += (prediction == label) as usize;
            }
        }
        let n = frames.len() as f32;
        Ok(StaticEvaluation {
            accuracy_by_t: correct_by_t.iter().map(|&c| c as f32 / n).collect(),
            activity: network.take_activity(),
        })
    }

    /// Accuracy at the full window.
    pub fn full_window_accuracy(&self) -> f32 {
        self.accuracy_by_t.last().copied().unwrap_or(f32::NAN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExitPolicy;
    use dtsnn_snn::{batch1_frames, Flatten, Layer, LifConfig, LifNeuron, Linear};
    use dtsnn_tensor::TensorRng;

    fn tiny_net(seed: u64) -> Snn {
        let mut rng = TensorRng::seed_from(seed);
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Flatten::new()),
            Box::new(Linear::new(4, 8, &mut rng)),
            Box::new(LifNeuron::new(LifConfig::default())),
            Box::new(Linear::new(8, 3, &mut rng)),
        ];
        Snn::from_layers(layers)
    }

    fn tiny_data(n: usize, seed: u64) -> (Vec<Vec<Tensor>>, Vec<usize>) {
        let mut rng = TensorRng::seed_from(seed);
        let frames = (0..n).map(|_| vec![Tensor::randn(&[1, 2, 2], 0.5, 0.5, &mut rng)]).collect();
        let labels = (0..n).map(|i| i % 3).collect();
        (frames, labels)
    }

    #[test]
    fn dynamic_eval_bookkeeping() {
        let (frames, labels) = tiny_data(12, 1);
        let mut net = tiny_net(2);
        let runner = DynamicInference::new(ExitPolicy::entropy(0.6).unwrap(), 4).unwrap();
        let eval = DynamicEvaluation::run(&mut net, &runner, &frames, &labels, None).unwrap();
        assert_eq!(eval.samples.len(), 12);
        assert_eq!(eval.timestep_histogram.iter().sum::<usize>(), 12);
        assert!((1.0..=4.0).contains(&eval.avg_timesteps));
        assert!((0.0..=1.0).contains(&eval.accuracy));
        let dist = eval.timestep_distribution();
        assert!((dist.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(eval.activity.observations > 0);
        assert!(eval.samples.iter().all(|s| s.difficulty.is_nan()));
    }

    #[test]
    fn dynamic_eval_validates_inputs() {
        let (frames, labels) = tiny_data(4, 3);
        let mut net = tiny_net(4);
        let runner = DynamicInference::new(ExitPolicy::entropy(0.5).unwrap(), 4).unwrap();
        assert!(DynamicEvaluation::run(&mut net, &runner, &frames, &labels[..2], None).is_err());
        assert!(
            DynamicEvaluation::run(&mut net, &runner, &frames, &labels, Some(&[0.5])).is_err()
        );
    }

    #[test]
    fn difficulties_are_recorded() {
        let (frames, labels) = tiny_data(4, 5);
        let diffs = [0.1, 0.2, 0.3, 0.4];
        let mut net = tiny_net(6);
        let runner = DynamicInference::new(ExitPolicy::entropy(0.5).unwrap(), 2).unwrap();
        let eval =
            DynamicEvaluation::run(&mut net, &runner, &frames, &labels, Some(&diffs)).unwrap();
        let got: Vec<f32> = eval.samples.iter().map(|s| s.difficulty).collect();
        assert_eq!(got, diffs);
    }

    #[test]
    fn static_eval_reports_each_budget() {
        let (frames, labels) = tiny_data(9, 7);
        let mut net = tiny_net(8);
        let eval = StaticEvaluation::run(&mut net, &frames, &labels, 4).unwrap();
        assert_eq!(eval.accuracy_by_t.len(), 4);
        for a in &eval.accuracy_by_t {
            assert!((0.0..=1.0).contains(a));
        }
        assert_eq!(eval.full_window_accuracy(), eval.accuracy_by_t[3]);
        assert!(StaticEvaluation::run(&mut net, &frames, &labels, 0).is_err());
    }

    /// Entropy threshold that splits the tiny-net fixture between early and
    /// full-window exits, keeping the parity tests non-vacuous.
    const THETA_MIXED: f32 = 0.986;

    #[test]
    fn batched_evaluation_matches_sequential() {
        // Evaluation is deterministic and every sample stops at its exact exit
        // timestep, so any window size must reproduce the per-sample runner
        // bitwise — outcomes AND spike activity.
        let (frames, labels) = tiny_data(13, 21); // odd count exercises a ragged tail batch
        let diffs: Vec<f32> = (0..13).map(|i| i as f32 / 13.0).collect();
        let runner = DynamicInference::new(ExitPolicy::entropy(THETA_MIXED).unwrap(), 4).unwrap();
        let mut net_a = tiny_net(22);
        let seq =
            DynamicEvaluation::run(&mut net_a, &runner, &frames, &labels, Some(&diffs)).unwrap();
        // the independent leg: the solo runner sample by sample, its own
        // activity counters folded in sample order — no driver, no window set
        let mut solo_net = tiny_net(22);
        let mut activity_net = tiny_net(22);
        for (i, sample) in frames.iter().enumerate() {
            let out = runner.run(&mut solo_net, sample).unwrap();
            let (sums, obs) = solo_net.take_raw_activity();
            activity_net.absorb_raw_activity(&sums, obs);
            let (got, correct) = (seq.samples[i], out.prediction == labels[i]);
            assert_eq!((got.timesteps_used, got.correct), (out.timesteps_used, correct));
        }
        assert_eq!(seq.activity, activity_net.take_activity());
        let mut net_b = tiny_net(22);
        let bat = DynamicEvaluation::run_batched(
            &mut net_b, &runner, &frames, &labels, Some(&diffs), 4,
        )
        .unwrap();
        assert_eq!(seq, bat); // every field, including SpikeActivity
        // non-vacuous: the threshold must actually mix exit timesteps
        let h = &bat.timestep_histogram;
        assert!(h[..3].iter().sum::<usize>() > 0, "no early exits: {h:?}");
        assert!(h[1..].iter().sum::<usize>() > 0, "every sample exited at t=1: {h:?}");
    }

    #[test]
    fn batched_spike_activity_matches_sequential() {
        // Regression pin for the Fig. 5/7 energy bias: the pre-compaction
        // batched evaluator measured full-window activity for every sample,
        // so equal outcomes did NOT imply equal SpikeActivity. It must now.
        let (frames, labels) = tiny_data(11, 41);
        let runner = DynamicInference::new(ExitPolicy::entropy(THETA_MIXED).unwrap(), 4).unwrap();
        let mut net_a = tiny_net(42);
        let seq = DynamicEvaluation::run(&mut net_a, &runner, &frames, &labels, None).unwrap();
        for batch_size in [1, 3, 11, 64] {
            let mut net_b = tiny_net(42);
            let bat = DynamicEvaluation::run_batched(
                &mut net_b, &runner, &frames, &labels, None, batch_size,
            )
            .unwrap();
            assert_eq!(seq.activity, bat.activity, "batch_size={batch_size}");
            assert_eq!(seq.timestep_histogram, bat.timestep_histogram);
        }
        // accounting stops at each sample's exit: observations = Σ T̂, which
        // is strictly below the full-window total when anything exits early
        let total: usize =
            seq.samples.iter().map(|s| s.timesteps_used).sum();
        assert_eq!(seq.activity.observations, total);
        assert!(total < 4 * frames.len(), "θ produced no early exits");
    }

    #[test]
    fn every_window_runs_a_static_sample_s_input_prefix_once() {
        // Flatten + Linear carry no state: a sample's prefix runs on its
        // first step and is reused on every later one, at any window size
        // (one worker, passed in, so the counters are this network's).
        let (frames, labels) = tiny_data(13, 21);
        let runner = DynamicInference::new(ExitPolicy::entropy(THETA_MIXED).unwrap(), 4).unwrap();
        for batch_size in [1, 4, 13] {
            let mut net = tiny_net(22);
            let eval = drive(&mut net, &runner, &frames, &labels, None, batch_size, 1).unwrap().eval;
            let row_steps: usize = eval.samples.iter().map(|s| s.timesteps_used).sum();
            assert!(row_steps > 13, "every sample exited at t = 1");
            let stats = net.prefix_stats();
            assert_eq!((stats.reused, stats.recomputed), ((row_steps - 13) as u64, 13), "{batch_size}");
        }
    }

    #[test]
    fn warmed_batched_windows_over_a_resnet_allocate_nothing() {
        // Every step's logits, every carried membrane — the three nested in
        // each ResidualBlock included — must return to the arena: a second
        // pass over the same samples finds every buffer parked.
        let config = dtsnn_snn::ModelConfig {
            in_channels: 2,
            image_size: 8,
            num_classes: 3,
            width: 4,
            ..Default::default()
        };
        let mut rng = TensorRng::seed_from(81);
        let mut net = dtsnn_snn::resnet_small(&config, &mut rng).unwrap();
        let frames: Vec<Vec<Tensor>> =
            (0..20).map(|_| vec![Tensor::randn(&[2, 8, 8], 0.5, 2.0, &mut rng)]).collect();
        let labels: Vec<usize> = (0..20).map(|i| i % 3).collect();
        let diffs = [0.5f32; 20]; // real values: NaN would defeat the comparison
        // θ chosen to split this untrained net's exits across the window
        let runner = DynamicInference::new(ExitPolicy::entropy(0.98).unwrap(), 4).unwrap();
        // one worker, passed in: the process-wide thread override belongs to
        // every test of this binary, and a multi-worker call would warm its
        // clones' arenas, not this one
        let run = |net: &mut Snn| {
            drive(net, &runner, &frames, &labels, Some(&diffs), 32, 1).unwrap().eval
        };
        let warm = run(&mut net);
        let h = &warm.timestep_histogram;
        assert!(h[..3].iter().sum::<usize>() > 0 && h[3] > 0, "exits must be mixed: {h:?}");
        net.reset_workspace_stats();
        assert_eq!(run(&mut net), warm);
        let stats = net.workspace_stats();
        assert!(stats.takes > 0);
        assert_eq!(stats.misses, 0, "a warmed pass must not allocate: {stats:?}");
    }

    /// A small untrained vgg_small or resnet_small, 12 static samples and
    /// one `T`-frame event sample.
    fn small_model(resnet: bool, t_max: usize) -> (Snn, Vec<Vec<Tensor>>, Vec<usize>) {
        let config = dtsnn_snn::ModelConfig {
            in_channels: 2,
            image_size: 8,
            num_classes: 3,
            width: 4,
            ..Default::default()
        };
        let mut rng = TensorRng::seed_from(91 + resnet as u64);
        let net = if resnet {
            dtsnn_snn::resnet_small(&config, &mut rng)
        } else {
            dtsnn_snn::vgg_small(&config, &mut rng)
        };
        let mut frame = || Tensor::randn(&[2, 8, 8], 0.5, 2.0, &mut rng);
        let mut frames: Vec<Vec<Tensor>> = (0..12).map(|_| vec![frame()]).collect();
        frames.push((0..t_max).map(|_| frame()).collect());
        let labels = (0..frames.len()).map(|i| i % 3).collect();
        (net.unwrap(), frames, labels)
    }

    /// The static evaluation as it was computed before it drove the window,
    /// kept as the reference: per sample, `forward_sequence`, the argmax of
    /// the running mean at every budget, and the sample's activity absorbed
    /// in sample order.
    fn static_reference(
        net: &mut Snn,
        frames: &[Vec<Tensor>],
        labels: &[usize],
        t_max: usize,
    ) -> StaticEvaluation {
        let mut absorbed = net.clone();
        let _ = absorbed.take_activity();
        let mut correct_by_t = vec![0usize; t_max];
        for (sample, &label) in frames.iter().zip(labels) {
            let batched = batch1_frames(sample, t_max).unwrap();
            let outputs = net.forward_sequence(&batched, t_max, dtsnn_snn::Mode::Eval).unwrap();
            let mut sum = outputs[0].clone();
            for (t, output) in outputs.iter().enumerate() {
                if t > 0 {
                    sum.axpy(1.0, output).unwrap();
                }
                let mean = sum.scale(1.0 / (t + 1) as f32);
                correct_by_t[t] += (mean.row(0).unwrap().argmax().unwrap() == label) as usize;
            }
            let (sums, obs) = net.take_raw_activity();
            absorbed.absorb_raw_activity(&sums, obs);
        }
        let n = frames.len() as f32;
        StaticEvaluation {
            accuracy_by_t: correct_by_t.iter().map(|&c| c as f32 / n).collect(),
            activity: absorbed.take_activity(),
        }
    }

    #[test]
    fn static_evaluation_matches_the_forward_sequence_reference() {
        for resnet in [false, true] {
            let (mut net, frames, labels) = small_model(resnet, 4);
            let want = static_reference(&mut net.clone(), &frames, &labels, 4);
            let got = StaticEvaluation::run(&mut net, &frames, &labels, 4).unwrap();
            assert_eq!(got, want, "resnet: {resnet}");
            assert_eq!(got.activity.observations, 4 * frames.len());
            assert!(got.activity.per_layer.iter().any(|&d| d > 0.0), "no spikes");
        }
    }

    #[test]
    fn batched_rejects_partial_frame_counts() {
        // 1 < len(frames[i]) < T must fail exactly like the sequential
        // runner, not silently run a shortened window.
        let (mut frames, labels) = tiny_data(4, 25);
        frames[2] = vec![frames[2][0].clone(); 2]; // 2 frames under a T=4 window
        let mut net = tiny_net(26);
        let runner = DynamicInference::new(ExitPolicy::entropy(0.5).unwrap(), 4).unwrap();
        assert!(DynamicEvaluation::run(&mut net, &runner, &frames, &labels, None).is_err());
        assert!(
            DynamicEvaluation::run_batched(&mut net, &runner, &frames, &labels, None, 2).is_err()
        );
    }

    #[test]
    fn batched_accepts_mixed_static_and_temporal_samples() {
        // A batch may mix 1-frame (static) and T-frame (event) samples; the
        // per-row frame selection must reproduce the sequential runner.
        let mut rng = TensorRng::seed_from(51);
        let frames: Vec<Vec<Tensor>> = (0..7)
            .map(|i| {
                let n = if i % 2 == 0 { 1 } else { 4 };
                (0..n).map(|_| Tensor::randn(&[1, 2, 2], 0.5, 0.5, &mut rng)).collect()
            })
            .collect();
        let labels: Vec<usize> = (0..7).map(|i| i % 3).collect();
        let diffs: Vec<f32> = (0..7).map(|i| i as f32 / 7.0).collect();
        let runner = DynamicInference::new(ExitPolicy::entropy(THETA_MIXED).unwrap(), 4).unwrap();
        let mut net_a = tiny_net(52);
        let seq =
            DynamicEvaluation::run(&mut net_a, &runner, &frames, &labels, Some(&diffs)).unwrap();
        let mut net_b = tiny_net(52);
        let bat = DynamicEvaluation::run_batched(
            &mut net_b, &runner, &frames, &labels, Some(&diffs), 3,
        )
        .unwrap();
        assert_eq!(seq, bat);
    }

    #[test]
    fn batched_evaluation_is_thread_count_invariant() {
        let (frames, labels) = tiny_data(9, 61);
        let diffs: Vec<f32> = (0..9).map(|i| i as f32 / 9.0).collect();
        let runner = DynamicInference::new(ExitPolicy::entropy(THETA_MIXED).unwrap(), 4).unwrap();
        let run = || {
            let mut net = tiny_net(62);
            DynamicEvaluation::run_batched(&mut net, &runner, &frames, &labels, Some(&diffs), 4)
                .unwrap()
        };
        let serial = dtsnn_tensor::parallel::with_threads(1, run);
        for threads in [2, 4] {
            let par = dtsnn_tensor::parallel::with_threads(threads, run);
            assert_eq!(serial, par, "batched eval diverged at {threads} threads");
        }
        // the one driver, every window size x worker count (the workers it is
        // handed decide clone-or-not, the override how map_chunks splits)
        for batch in [1, 3, 32] {
            for workers in [1, 2, 4] {
                let got = dtsnn_tensor::parallel::with_threads(workers, || {
                    let mut net = tiny_net(62);
                    drive(&mut net, &runner, &frames, &labels, Some(&diffs), batch, workers)
                });
                assert_eq!(got.unwrap().eval, serial, "batch {batch}, {workers} workers");
            }
        }
        // the static and the quarantined entries ride the same driver
        let others = || {
            let mut net = tiny_net(62);
            let s = StaticEvaluation::run(&mut net, &frames, &labels, 4).unwrap();
            let mut net = tiny_net(62);
            let q =
                DynamicEvaluation::run_quarantined(&mut net, &runner, &frames, &labels, Some(&diffs));
            (s, q.unwrap())
        };
        let (static_1, quarantined_1) = dtsnn_tensor::parallel::with_threads(1, others);
        assert_eq!(quarantined_1.eval, serial);
        for workers in [2, 4] {
            let (s, q) = dtsnn_tensor::parallel::with_threads(workers, others);
            assert_eq!(s, static_1, "static eval diverged at {workers} workers");
            assert_eq!(q, quarantined_1, "quarantined eval diverged at {workers} workers");
        }
    }

    #[test]
    fn batched_evaluation_validates_inputs() {
        let (frames, labels) = tiny_data(4, 23);
        let mut net = tiny_net(24);
        let runner = DynamicInference::new(ExitPolicy::entropy(0.5).unwrap(), 4).unwrap();
        assert!(
            DynamicEvaluation::run_batched(&mut net, &runner, &frames, &labels, None, 0).is_err()
        );
        assert!(DynamicEvaluation::run_batched(&mut net, &runner, &frames, &labels[..2], None, 2)
            .is_err());
    }

    #[test]
    fn evaluation_is_thread_count_invariant() {
        let (frames, labels) = tiny_data(17, 31); // ragged across worker chunks
        // real difficulty values: NaN would defeat the PartialEq comparison
        let diffs: Vec<f32> = (0..17).map(|i| i as f32 / 17.0).collect();
        let runner = DynamicInference::new(ExitPolicy::entropy(0.6).unwrap(), 4).unwrap();
        let run_both = || {
            let mut net = tiny_net(32);
            let d =
                DynamicEvaluation::run(&mut net, &runner, &frames, &labels, Some(&diffs)).unwrap();
            let mut net = tiny_net(32);
            let s = StaticEvaluation::run(&mut net, &frames, &labels, 4).unwrap();
            (d, s)
        };
        let serial = dtsnn_tensor::parallel::with_threads(1, run_both);
        for threads in [2, 4, 8] {
            let par = dtsnn_tensor::parallel::with_threads(threads, run_both);
            assert_eq!(serial.0, par.0, "dynamic eval diverged at {threads} threads");
            assert_eq!(serial.1, par.1, "static eval diverged at {threads} threads");
        }
    }

    #[test]
    fn quarantine_is_a_noop_on_healthy_networks() {
        let (frames, labels) = tiny_data(12, 71);
        let diffs: Vec<f32> = (0..12).map(|i| i as f32 / 12.0).collect();
        let runner = DynamicInference::new(ExitPolicy::entropy(0.6).unwrap(), 4).unwrap();
        let mut net_a = tiny_net(72);
        let plain =
            DynamicEvaluation::run(&mut net_a, &runner, &frames, &labels, Some(&diffs)).unwrap();
        let mut net_b = tiny_net(72);
        let q = DynamicEvaluation::run_quarantined(&mut net_b, &runner, &frames, &labels, Some(&diffs))
            .unwrap();
        assert!(q.quarantined.is_empty());
        assert_eq!(plain, q.eval, "healthy path must match the plain harness bitwise");
    }

    #[test]
    fn nan_weights_quarantine_every_sample() {
        let (frames, labels) = tiny_data(6, 73);
        let mut net = tiny_net(74);
        // Poison the biases: a NaN *weight* can hide behind the spike-sparse
        // matmul kernels (zero activations are skipped, so NaN·0 never
        // happens), but the bias is added to every logit unconditionally —
        // every forward pass now yields a NaN logit.
        net.visit_params(&mut |p| {
            if !p.decay {
                p.value.data_mut()[0] = f32::NAN;
            }
        });
        let runner = DynamicInference::new(ExitPolicy::entropy(0.9).unwrap(), 3).unwrap();
        let q =
            DynamicEvaluation::run_quarantined(&mut net, &runner, &frames, &labels, None).unwrap();
        assert_eq!(q.quarantined, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(q.eval.accuracy, 0.0, "quarantined samples must score incorrect");
        // the entropy hardware model reads NaN probabilities as zero entropy,
        // so poisoned samples exit immediately as confidently wrong — the
        // exact silent failure the quarantine flags
        assert_eq!(q.eval.timestep_histogram, vec![6, 0, 0]);
        assert_eq!(q.eval.avg_timesteps, 1.0);
        assert!(q.eval.samples.iter().all(|s| !s.correct));
    }

    /// Fills the classifier's first weight row with NaN: any sample whose
    /// hidden layer ever spikes gets a NaN logit, while a sample that stays
    /// silent never multiplies the poisoned row (the spike-sparse matmul
    /// skips zero activations) and remains healthy.
    fn poison_classifier(net: &mut Snn) {
        let mut decayed = 0;
        net.visit_params(&mut |p| decayed += p.decay as usize);
        let mut seen = 0;
        net.visit_params(&mut |p| {
            if p.decay {
                seen += 1;
                if seen == decayed {
                    let cols = p.value.dims()[1];
                    p.value.data_mut()[..cols].fill(f32::NAN);
                }
            }
        });
    }

    #[test]
    fn quarantine_is_thread_count_invariant_and_partial() {
        // odd sample count, alternating live frames (hidden spikes → NaN
        // logits → quarantined) and all-zero frames (zero bias + positive
        // threshold ⇒ provably silent ⇒ healthy)
        let (mut frames, labels) = tiny_data(11, 75);
        for f in frames.iter_mut().skip(1).step_by(2) {
            *f = vec![Tensor::zeros(&[1, 2, 2])];
        }
        // real difficulty values: NaN would defeat the PartialEq comparison
        let diffs: Vec<f32> = (0..11).map(|i| i as f32 / 11.0).collect();
        let runner = DynamicInference::new(ExitPolicy::entropy(1e-7).unwrap(), 4).unwrap();
        let run = || {
            let mut net = tiny_net(76);
            poison_classifier(&mut net);
            DynamicEvaluation::run_quarantined(&mut net, &runner, &frames, &labels, Some(&diffs))
                .unwrap()
        };
        let serial = dtsnn_tensor::parallel::with_threads(1, run);
        assert!(
            !serial.quarantined.is_empty() && serial.quarantined.len() < frames.len(),
            "fixture must mix quarantined and healthy samples: {:?}",
            serial.quarantined
        );
        for threads in [2, 4] {
            let par = dtsnn_tensor::parallel::with_threads(threads, run);
            assert_eq!(serial, par, "quarantined eval diverged at {threads} threads");
        }
        // windows of three name the same samples as windows of one
        let mut net = tiny_net(76);
        poison_classifier(&mut net);
        let batched = drive(&mut net, &runner, &frames, &labels, Some(&diffs), 3, 2).unwrap();
        assert_eq!(batched.quarantined, serial.quarantined);
    }

    #[test]
    fn strict_threshold_forces_full_window() {
        let (frames, labels) = tiny_data(6, 9);
        let mut net = tiny_net(10);
        let runner = DynamicInference::new(ExitPolicy::entropy(1e-7).unwrap(), 3).unwrap();
        let eval = DynamicEvaluation::run(&mut net, &runner, &frames, &labels, None).unwrap();
        assert_eq!(eval.avg_timesteps, 3.0);
        assert_eq!(eval.timestep_histogram, vec![0, 0, 6]);
    }
}
