//! Monte-Carlo robustness evaluation over the faulty IMC substrate.
//!
//! A single fault draw (even the fault-free Fig. 6(B) point, whose σ/μ = 20%
//! programming variation is itself random) is one arbitrary sample of a wide
//! distribution. [`MonteCarloRobustness`] runs N seeded trials — each
//! programs a fresh clone of the network onto an independently drawn faulty
//! substrate via [`FaultInjector`] and evaluates it with the
//! quarantine-hardened dynamic harness — and aggregates accuracy, average
//! exit timestep T̂, energy and EDP into mean/std/95% CI.
//! [`degradation_sweep`] repeats this across fault severities, producing the
//! accuracy-and-T̂-versus-severity curves that show how the entropy policy
//! reallocates timesteps under damage.
//!
//! # Determinism
//!
//! Trials run one after another, each fanning its samples out over the
//! deterministic parallel layer: per-trial seeds are derived arithmetically
//! from the base seed, each trial is self-contained, and every statistic
//! folds in trial order in `f64` — so all aggregates are **bitwise identical
//! for any `DTSNN_THREADS` value**, like the rest of the stack. Sweep points
//! reuse the same per-trial seeds across severities (common random numbers),
//! which removes inter-severity sampling jitter from the degradation curve.

use crate::energy_link::HardwareProfile;
use crate::harness::{DynamicEvaluation, StaticEvaluation};
use crate::inference::DynamicInference;
use crate::{CoreError, Result};
use dtsnn_imc::{FaultInjector, FaultModel, FaultReport};
use dtsnn_snn::Snn;
use dtsnn_tensor::{Tensor, TensorRng};

/// Mean, standard deviation and 95% confidence half-width of one metric over
/// the Monte-Carlo trials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Statistic {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for a single trial).
    pub std_dev: f64,
    /// 95% confidence half-width of the mean: `1.96·σ/√n`.
    pub ci95: f64,
}

impl Statistic {
    /// Computes the statistic over `samples`, folding in slice order.
    pub fn from_samples(samples: &[f64]) -> Statistic {
        let n = samples.len();
        if n == 0 {
            return Statistic { mean: f64::NAN, std_dev: f64::NAN, ci95: f64::NAN };
        }
        let mean = samples.iter().sum::<f64>() / n as f64;
        let std_dev = if n < 2 {
            0.0
        } else {
            (samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1) as f64).sqrt()
        };
        Statistic { mean, std_dev, ci95: 1.96 * std_dev / (n as f64).sqrt() }
    }

    /// `"mean ± ci95"` with the given precision, for tables.
    pub fn display(&self, precision: usize) -> String {
        format!("{:.p$} ± {:.p$}", self.mean, self.ci95, p = precision)
    }
}

/// Trial count and base seed of a Monte-Carlo run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonteCarloConfig {
    /// Number of independent fault draws (≥ 1).
    pub trials: usize,
    /// Base seed; per-trial seeds are derived arithmetically from it.
    pub seed: u64,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        MonteCarloConfig { trials: 5, seed: 0xD7_5EED }
    }
}

/// Derives trial `t`'s seed from the base seed (golden-ratio multiplier, so
/// nearby trial indices get unrelated streams).
fn trial_seed(base: u64, trial: usize) -> u64 {
    base ^ (trial as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The trial loop both Monte-Carlo harnesses share: trial `t` programs a
/// fresh clone of `network` onto the substrate drawn from `trial_seed(t)` and
/// hands it to `evaluate(t, seed, report, net)`. Trials run one after another
/// — the evaluation inside each already fans its samples out.
fn fault_trials<T>(
    network: &Snn,
    profile: &HardwareProfile,
    model: &FaultModel,
    mc: &MonteCarloConfig,
    mut evaluate: impl FnMut(usize, u64, FaultReport, &mut Snn) -> Result<T>,
) -> Result<Vec<T>> {
    if mc.trials == 0 {
        return Err(CoreError::InvalidConfig("Monte-Carlo needs at least one trial".into()));
    }
    let injector =
        FaultInjector::new(*model, profile.cost_model().mapping(), profile.cost_model().config())?;
    let trial = |trial| {
        let mut net = network.clone();
        let seed = trial_seed(mc.seed, trial);
        let report = injector.inject(&mut net, &mut TensorRng::seed_from(seed))?;
        evaluate(trial, seed, report, &mut net)
    };
    (0..mc.trials).map(trial).collect()
}

/// One dynamic-evaluation fault trial.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultTrial {
    /// Trial index.
    pub trial: usize,
    /// Seed the trial's fault draw used.
    pub seed: u64,
    /// Top-1 accuracy on the damaged substrate (quarantined = incorrect).
    pub accuracy: f32,
    /// Average exit timestep T̂.
    pub avg_timesteps: f32,
    /// Dataset-average inference energy, pJ.
    pub energy_pj: f64,
    /// Dataset-average energy-delay product, pJ·ns.
    pub edp: f64,
    /// Samples quarantined for non-finite forward passes.
    pub quarantined: usize,
    /// What the injector actually did.
    pub report: FaultReport,
}

/// Aggregate of N dynamic fault trials.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloRobustness {
    /// Per-trial results, in trial order.
    pub trials: Vec<FaultTrial>,
    /// Accuracy across trials.
    pub accuracy: Statistic,
    /// T̂ across trials.
    pub avg_timesteps: Statistic,
    /// Energy across trials, pJ.
    pub energy_pj: Statistic,
    /// EDP across trials, pJ·ns.
    pub edp: Statistic,
    /// Total quarantined samples across all trials.
    pub quarantined_total: usize,
}

impl MonteCarloRobustness {
    /// Runs `mc.trials` seeded fault trials of the dynamic-timestep network.
    ///
    /// Each trial clones `network`, injects an independent fault draw of
    /// `model` through `profile`'s chip mapping, evaluates with
    /// [`DynamicEvaluation::run_quarantined`] and prices the result with the
    /// profile's energy model (see the module docs for the determinism
    /// contract).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a zero trial count, and
    /// propagates injector construction/mismatch and evaluation errors.
    pub fn run(
        network: &Snn,
        runner: &DynamicInference,
        frames: &[Vec<Tensor>],
        labels: &[usize],
        profile: &HardwareProfile,
        model: &FaultModel,
        mc: &MonteCarloConfig,
    ) -> Result<Self> {
        let trials = fault_trials(network, profile, model, mc, |trial, seed, report, net| {
            let q = DynamicEvaluation::run_quarantined(net, runner, frames, labels, None)?;
            let cost = profile.dynamic_cost(&q.eval.activity, q.eval.avg_timesteps as f64)?;
            Ok(FaultTrial {
                trial,
                seed,
                accuracy: q.eval.accuracy,
                avg_timesteps: q.eval.avg_timesteps,
                energy_pj: cost.energy_pj(),
                edp: cost.edp(),
                quarantined: q.quarantined.len(),
                report,
            })
        })?;
        let stat = |f: fn(&FaultTrial) -> f64| {
            Statistic::from_samples(&trials.iter().map(f).collect::<Vec<_>>())
        };
        Ok(MonteCarloRobustness {
            accuracy: stat(|t| t.accuracy as f64),
            avg_timesteps: stat(|t| t.avg_timesteps as f64),
            energy_pj: stat(|t| t.energy_pj),
            edp: stat(|t| t.edp),
            quarantined_total: trials.iter().map(|t| t.quarantined).sum(),
            trials,
        })
    }
}

/// One static-SNN fault trial (fixed full window, no exit policy).
#[derive(Debug, Clone, PartialEq)]
pub struct StaticTrial {
    /// Trial index.
    pub trial: usize,
    /// Seed the trial's fault draw used.
    pub seed: u64,
    /// Top-1 accuracy at the full window.
    pub accuracy: f32,
    /// What the injector actually did.
    pub report: FaultReport,
}

/// Aggregate of N static-SNN fault trials — the baseline the paper's
/// Fig. 6(B) compares DT-SNN against under device variation.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloStatic {
    /// Per-trial results, in trial order.
    pub trials: Vec<StaticTrial>,
    /// Accuracy across trials.
    pub accuracy: Statistic,
}

impl MonteCarloStatic {
    /// Runs `mc.trials` seeded fault trials of a static SNN at a fixed
    /// `timesteps` window. Same seeding and determinism contract as
    /// [`MonteCarloRobustness::run`]: identical `mc` values produce fault
    /// draws identical to the dynamic harness's, so static/dynamic pairs
    /// see the same damaged substrates.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a zero trial count, and
    /// propagates injector and evaluation errors.
    pub fn run(
        network: &Snn,
        frames: &[Vec<Tensor>],
        labels: &[usize],
        timesteps: usize,
        profile: &HardwareProfile,
        model: &FaultModel,
        mc: &MonteCarloConfig,
    ) -> Result<Self> {
        let trials = fault_trials(network, profile, model, mc, |trial, seed, report, net| {
            let accuracy =
                StaticEvaluation::run(net, frames, labels, timesteps)?.full_window_accuracy();
            Ok(StaticTrial { trial, seed, accuracy, report })
        })?;
        let accuracy =
            Statistic::from_samples(&trials.iter().map(|t| t.accuracy as f64).collect::<Vec<_>>());
        Ok(MonteCarloStatic { trials, accuracy })
    }
}

/// One point of a graceful-degradation sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationPoint {
    /// Severity multiplier applied to the base fault model.
    pub severity: f64,
    /// The fault model actually injected ([`FaultModel::scaled`]).
    pub model: FaultModel,
    /// Monte-Carlo aggregate at this severity.
    pub result: MonteCarloRobustness,
}

/// Sweeps fault severity: evaluates [`MonteCarloRobustness`] at
/// `base.scaled(s)` for every `s` in `severities`, reusing the same trial
/// seeds at every point (common random numbers). The resulting
/// accuracy/T̂/EDP-versus-severity curves quantify graceful degradation and
/// the entropy policy's timestep reallocation under damage.
///
/// # Errors
///
/// Returns [`CoreError::BadInput`] for an empty severity list and propagates
/// Monte-Carlo errors.
// mirrors MonteCarloRobustness::run's argument list plus the severity axis
#[allow(clippy::too_many_arguments)]
pub fn degradation_sweep(
    network: &Snn,
    runner: &DynamicInference,
    frames: &[Vec<Tensor>],
    labels: &[usize],
    profile: &HardwareProfile,
    base: &FaultModel,
    severities: &[f64],
    mc: &MonteCarloConfig,
) -> Result<Vec<DegradationPoint>> {
    if severities.is_empty() {
        return Err(CoreError::BadInput("no severities to sweep".into()));
    }
    severities
        .iter()
        .map(|&severity| {
            let model = base.scaled(severity);
            let result =
                MonteCarloRobustness::run(network, runner, frames, labels, profile, &model, mc)?;
            Ok(DegradationPoint { severity, model, result })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExitPolicy;
    use dtsnn_imc::HardwareConfig;
    use dtsnn_snn::{vgg_small, ModelConfig};
    use dtsnn_tensor::parallel;

    fn setup() -> (Snn, HardwareProfile, Vec<Vec<Tensor>>, Vec<usize>) {
        let mut rng = TensorRng::seed_from(91);
        let cfg = ModelConfig { num_classes: 4, ..ModelConfig::default() };
        let net = vgg_small(&cfg, &mut rng).unwrap();
        let hw = HardwareConfig::default();
        let profile = HardwareProfile::new(&net, &cfg.input_dims(), &hw).unwrap();
        let frames: Vec<Vec<Tensor>> =
            (0..6).map(|_| vec![Tensor::randn(&[3, 16, 16], 0.5, 0.3, &mut rng)]).collect();
        let labels: Vec<usize> = (0..6).map(|i| i % 4).collect();
        (net, profile, frames, labels)
    }

    fn mild_model() -> FaultModel {
        FaultModel {
            stuck_on_rate: 0.002,
            stuck_off_rate: 0.01,
            read_sigma: 0.05,
            drift: 0.02,
            dead_wordline_rate: 0.002,
            dead_bitline_rate: 0.002,
        }
    }

    #[test]
    fn statistic_from_samples() {
        let s = Statistic::from_samples(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.std_dev - 1.0).abs() < 1e-12);
        assert!((s.ci95 - 1.96 / 3.0f64.sqrt()).abs() < 1e-12);
        let one = Statistic::from_samples(&[5.0]);
        assert_eq!(one.std_dev, 0.0);
        assert_eq!(one.ci95, 0.0);
        assert!(Statistic::from_samples(&[]).mean.is_nan());
        assert!(Statistic::from_samples(&[1.0, 2.0]).display(2).contains("±"));
    }

    #[test]
    fn monte_carlo_smoke_2_trials() {
        // the CI robustness stage runs exactly this: 2 trials, tiny net
        let (net, profile, frames, labels) = setup();
        let runner = DynamicInference::new(ExitPolicy::entropy(0.3).unwrap(), 4).unwrap();
        let mc = MonteCarloConfig { trials: 2, seed: 1234 };
        let r = MonteCarloRobustness::run(
            &net, &runner, &frames, &labels, &profile, &mild_model(), &mc,
        )
        .unwrap();
        assert_eq!(r.trials.len(), 2);
        assert_ne!(r.trials[0].seed, r.trials[1].seed);
        // different fault draws damage different devices
        assert_ne!(r.trials[0].report, r.trials[1].report);
        for t in &r.trials {
            assert!((0.0..=1.0).contains(&t.accuracy));
            assert!((1.0..=4.0).contains(&t.avg_timesteps));
            assert!(t.energy_pj > 0.0 && t.edp > 0.0);
            assert!(t.report.stuck_on + t.report.stuck_off > 0);
        }
        assert!(r.accuracy.mean.is_finite() && r.accuracy.ci95.is_finite());
        assert!(r.edp.mean > 0.0);
    }

    #[test]
    fn aggregates_are_thread_count_invariant() {
        let (net, profile, frames, labels) = setup();
        let runner = DynamicInference::new(ExitPolicy::entropy(0.3).unwrap(), 4).unwrap();
        let mc = MonteCarloConfig { trials: 2, seed: 77 };
        let run = || {
            MonteCarloRobustness::run(
                &net, &runner, &frames, &labels, &profile, &mild_model(), &mc,
            )
            .unwrap()
        };
        let serial = parallel::with_threads(1, run);
        for threads in [2, 4] {
            let par = parallel::with_threads(threads, run);
            assert_eq!(serial, par, "MC aggregates diverged at {threads} threads");
        }
        // rerunning with the same config reproduces everything bitwise
        assert_eq!(serial, run());
    }

    #[test]
    fn static_monte_carlo_runs_and_shares_fault_draws() {
        let (net, profile, frames, labels) = setup();
        let mc = MonteCarloConfig { trials: 2, seed: 55 };
        let s =
            MonteCarloStatic::run(&net, &frames, &labels, 4, &profile, &mild_model(), &mc).unwrap();
        assert_eq!(s.trials.len(), 2);
        assert!(s.accuracy.mean.is_finite());
        // the dynamic harness under the same mc sees the same substrates
        let runner = DynamicInference::new(ExitPolicy::entropy(0.3).unwrap(), 4).unwrap();
        let d = MonteCarloRobustness::run(
            &net, &runner, &frames, &labels, &profile, &mild_model(), &mc,
        )
        .unwrap();
        for (st, dt) in s.trials.iter().zip(&d.trials) {
            assert_eq!(st.seed, dt.seed);
            assert_eq!(st.report, dt.report, "same seed must draw the same faults");
        }
    }

    #[test]
    fn null_model_trials_are_identical_and_clean() {
        // with no faults and the config's default σ>0, trials still differ
        // (programming draws differ per seed); with σ=0 they are all the
        // ideal quantized network → zero variance
        let mut rng = TensorRng::seed_from(92);
        let cfg = ModelConfig { num_classes: 4, ..ModelConfig::default() };
        let net = vgg_small(&cfg, &mut rng).unwrap();
        let hw = HardwareConfig { sigma_over_mu: 0.0, ..HardwareConfig::default() };
        let profile = HardwareProfile::new(&net, &cfg.input_dims(), &hw).unwrap();
        let frames: Vec<Vec<Tensor>> =
            (0..4).map(|_| vec![Tensor::randn(&[3, 16, 16], 0.5, 0.3, &mut rng)]).collect();
        let labels = vec![0, 1, 2, 3];
        let runner = DynamicInference::new(ExitPolicy::entropy(0.3).unwrap(), 4).unwrap();
        let mc = MonteCarloConfig { trials: 3, seed: 9 };
        let r = MonteCarloRobustness::run(
            &net, &runner, &frames, &labels, &profile, &FaultModel::none(), &mc,
        )
        .unwrap();
        assert_eq!(r.accuracy.std_dev, 0.0);
        assert_eq!(r.avg_timesteps.std_dev, 0.0);
        assert_eq!(r.quarantined_total, 0);
        assert_eq!(r.trials[0].report.stuck_on + r.trials[0].report.stuck_off, 0);
    }

    #[test]
    fn degradation_sweep_produces_points_in_order() {
        let (net, profile, frames, labels) = setup();
        let runner = DynamicInference::new(ExitPolicy::entropy(0.3).unwrap(), 4).unwrap();
        let mc = MonteCarloConfig { trials: 2, seed: 13 };
        let severities = [0.0, 2.0];
        let points = degradation_sweep(
            &net, &runner, &frames, &labels, &profile, &mild_model(), &severities, &mc,
        )
        .unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].severity, 0.0);
        assert!(points[0].model.is_null());
        assert_eq!(points[1].model, mild_model().scaled(2.0));
        // severity 2 injects strictly more discrete faults than severity 0
        let faults = |p: &DegradationPoint| {
            p.result.trials.iter().map(|t| t.report.stuck_on + t.report.stuck_off).sum::<usize>()
        };
        assert_eq!(faults(&points[0]), 0);
        assert!(faults(&points[1]) > 0);
        assert!(degradation_sweep(
            &net, &runner, &frames, &labels, &profile, &mild_model(), &[], &mc
        )
        .is_err());
    }

    #[test]
    fn zero_trials_rejected() {
        let (net, profile, frames, labels) = setup();
        let runner = DynamicInference::new(ExitPolicy::entropy(0.3).unwrap(), 4).unwrap();
        let mc = MonteCarloConfig { trials: 0, seed: 1 };
        assert!(MonteCarloRobustness::run(
            &net, &runner, &frames, &labels, &profile, &FaultModel::none(), &mc
        )
        .is_err());
        assert!(MonteCarloStatic::run(
            &net, &frames, &labels, 4, &profile, &FaultModel::none(), &mc
        )
        .is_err());
    }
}
