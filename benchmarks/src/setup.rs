//! Set-up shared by the three inference workloads: dataset, trained
//! network, per-sample reference outcomes and the hardware profile.

use crate::passes::Timing;
use crate::report::{peak_rss_mb, Measured};
use crate::{fail, Result};
use dtsnn_bench::{hardware_profile_for, model_config_for, Arch};
use dtsnn_core::{DynamicEvaluation, DynamicInference, ExitPolicy, HardwareProfile};
use dtsnn_data::{Dataset, Preset};
use dtsnn_snn::{LossKind, ModelConfig, SgdConfig, Snn, Trainer, TrainerConfig};
use dtsnn_tensor::{Tensor, TensorRng};

/// Dataset and training seed. Fixed: `--seed` drives only the order in which
/// inputs are presented, so accuracy, T̂ and EDP repeat bit-for-bit for every
/// seed.
pub const FIXED_SEED: u64 = 7;

/// Inference window `T`.
pub const T_MAX: usize = 4;

/// Batch width of the batched path and of the reference evaluation.
pub const WINDOW: usize = 32;

/// How one reference network is trained and run.
///
/// Training stays in set-up (checkpoints do not carry BatchNorm running
/// statistics, so a committed fixture cannot restore Eval behaviour). The
/// recipes are sized so that 4 + 22 × 4 benchmark runs fit the driver's
/// budget: a training window of 2 timesteps halves BPTT cost, and shared
/// tdBN statistics let the network run the full window of 4 at inference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recipe {
    /// Backbone.
    pub arch: Arch,
    /// Entropy threshold θ of the exit policy.
    pub theta: f32,
    /// Training samples used (a prefix of the 600-sample train split).
    pub train_samples: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch: usize,
    /// BPTT window during training.
    pub train_timesteps: usize,
    /// Sanity floor on test accuracy (the exact value is gated by the
    /// `accuracy` metric itself).
    pub min_accuracy: f32,
}

/// vgg_small. θ = 0.4 puts percentile ranks 50 and 90 well inside the
/// T̂ = 1 and T̂ = 4 latency modes (see `stats::mode_boundaries_clear`).
pub const VGG: Recipe = Recipe {
    arch: Arch::Vgg,
    theta: 0.4,
    train_samples: 400,
    epochs: 4,
    batch: 16,
    train_timesteps: 2,
    min_accuracy: 0.75,
};

/// resnet_small.
pub const RESNET: Recipe = Recipe {
    arch: Arch::ResNet,
    theta: 0.6,
    train_samples: 400,
    epochs: 3,
    batch: 16,
    train_timesteps: 2,
    min_accuracy: 0.70,
};

/// Reference outcome of one test sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    /// Predicted class.
    pub prediction: usize,
    /// Exit timestep T̂.
    pub timesteps: usize,
}

/// Everything an inference workload measures against.
pub struct Fixture {
    /// The recipe that built it.
    pub recipe: Recipe,
    /// The generated dataset (train split kept for the train-step probe).
    pub dataset: Dataset,
    /// Model hyperparameters.
    pub model: ModelConfig,
    /// The trained network.
    pub net: Snn,
    /// The early-exit runner.
    pub runner: DynamicInference,
    /// The network's IMC embodiment.
    pub profile: HardwareProfile,
    /// Test frames, one `[c, h, w]` tensor per sample.
    pub frames: Vec<Vec<Tensor>>,
    /// Test labels.
    pub labels: Vec<usize>,
    /// Per-sample outcome of the solo path, dataset order.
    pub reference: Vec<Reference>,
    /// Dataset-order evaluation through the batched path.
    pub evaluation: DynamicEvaluation,
    /// Seconds spent generating the dataset.
    pub generate_s: f64,
}

/// The trainer a recipe uses (also timed on its own by the traced run).
pub fn trainer(recipe: &Recipe) -> Result<Trainer> {
    Ok(Trainer::new(TrainerConfig {
        epochs: recipe.epochs,
        batch_size: recipe.batch,
        timesteps: recipe.train_timesteps,
        loss: LossKind::PerTimestep,
        sgd: SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 5e-4 },
        seed: FIXED_SEED ^ 0xBEEF,
    })?)
}

impl Fixture {
    /// Generates the dataset, trains the network and establishes the
    /// per-sample reference, checking that the solo and batched paths agree
    /// on every sample.
    pub fn build(recipe: Recipe) -> Result<Fixture> {
        let t0 = std::time::Instant::now();
        let dataset = Preset::Cifar10.generate(1, FIXED_SEED)?;
        let generate_s = t0.elapsed().as_secs_f64();

        let model = model_config_for(&dataset);
        let mut rng = TensorRng::seed_from(FIXED_SEED);
        let mut net = recipe.arch.build(&model, &mut rng)?;
        let train = dataset.train.truncated(recipe.train_samples);
        trainer(&recipe)?.fit(&mut net, &train.frames(), &train.labels())?;

        let runner = DynamicInference::new(ExitPolicy::entropy(recipe.theta)?, T_MAX)?;
        let profile = hardware_profile_for(recipe.arch, &model)?;
        let frames = dataset.test.frames();
        let labels = dataset.test.labels();

        let mut reference = Vec::with_capacity(frames.len());
        for f in &frames {
            let out = runner.run(&mut net, f)?;
            reference.push(Reference { prediction: out.prediction, timesteps: out.timesteps_used });
        }
        let evaluation =
            DynamicEvaluation::run_batched(&mut net, &runner, &frames, &labels, None, WINDOW)?;
        for (i, (r, b)) in reference.iter().zip(&evaluation.samples).enumerate() {
            if r.timesteps != b.timesteps_used || (r.prediction == labels[i]) != b.correct {
                return fail(format!(
                    "sample {i}: solo path (T̂ {}, correct {}) disagrees with batched path (T̂ {}, correct {})",
                    r.timesteps,
                    r.prediction == labels[i],
                    b.timesteps_used,
                    b.correct
                ));
            }
        }
        if evaluation.accuracy < recipe.min_accuracy {
            return fail(format!(
                "{} accuracy {} is below the floor {}",
                recipe.arch.name(),
                evaluation.accuracy,
                recipe.min_accuracy
            ));
        }
        Ok(Fixture {
            recipe,
            dataset,
            model,
            net,
            runner,
            profile,
            frames,
            labels,
            reference,
            evaluation,
            generate_s,
        })
    }

    /// Top-1 accuracy on the test split (exact, seed-independent).
    pub fn accuracy(&self) -> f64 {
        f64::from(self.evaluation.accuracy)
    }

    /// Mean exit timestep T̂ (exact, seed-independent).
    pub fn avg_timesteps(&self) -> f64 {
        f64::from(self.evaluation.avg_timesteps)
    }

    /// Simulated energy-delay product of one average inference, pJ·ns.
    pub fn edp(&self) -> Result<f64> {
        Ok(self.profile.dynamic_cost(&self.evaluation.activity, self.avg_timesteps())?.edp())
    }

    /// The end-to-end metrics of an untraced run on this fixture: the timed
    /// ones from `timing`, the exact ones from the reference evaluation.
    pub fn measured(
        &self,
        timing: Timing,
        setup_s: f64,
        attempted: u64,
        failed: u64,
    ) -> Result<Measured> {
        Ok(Measured {
            values: [
                timing.throughput,
                timing.p50_ms,
                timing.p90_ms,
                self.accuracy(),
                self.avg_timesteps(),
                self.edp()?,
                setup_s,
                peak_rss_mb()?,
            ],
            attempted,
            failed,
            timing,
        })
    }

    /// Whether `(prediction, timesteps)` match sample `i`'s reference.
    pub fn matches(&self, i: usize, prediction: usize, timesteps: usize) -> bool {
        self.reference[i] == Reference { prediction, timesteps }
    }
}

/// A seeded permutation of `0..n`.
pub fn shuffled(n: usize, rng: &mut TensorRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    order
}
