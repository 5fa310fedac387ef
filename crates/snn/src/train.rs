//! Mini-batch surrogate-gradient trainer (BPTT over the full timestep
//! window) with the paper's recipe: SGD + momentum, cosine decay, L2.

use crate::frames::check_frames;
use crate::loss::LossKind;
use crate::network::Snn;
use crate::optim::{CosineSchedule, Sgd, SgdConfig};
use crate::{Mode, Result, SnnError};
use dtsnn_tensor::{Tensor, TensorRng, Workspace};

/// Trainer hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainerConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Timestep window `T` used for training.
    pub timesteps: usize,
    /// Loss function (Eq. 9 for static SNN baselines, Eq. 10 for DT-SNN).
    pub loss: LossKind,
    /// Optimizer hyperparameters.
    pub sgd: SgdConfig,
    /// Seed for batch shuffling.
    pub seed: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            epochs: 10,
            batch_size: 32,
            timesteps: 4,
            loss: LossKind::PerTimestep,
            sgd: SgdConfig::default(),
            seed: 0,
        }
    }
}

impl TrainerConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] for zero extents, plus SGD errors.
    pub fn validate(&self) -> Result<()> {
        if self.epochs == 0 || self.batch_size == 0 || self.timesteps == 0 {
            return Err(SnnError::InvalidConfig(
                "epochs, batch_size and timesteps must be nonzero".into(),
            ));
        }
        self.sgd.validate()
    }
}

/// Per-epoch training trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainReport {
    /// Mean loss of each epoch.
    pub epoch_loss: Vec<f32>,
    /// Training accuracy of each epoch (on mean logits over `T`).
    pub epoch_accuracy: Vec<f32>,
}

impl TrainReport {
    /// Loss of the final epoch (`NaN` if training never ran).
    pub fn final_loss(&self) -> f32 {
        self.epoch_loss.last().copied().unwrap_or(f32::NAN)
    }

    /// Accuracy of the final epoch (`NaN` if training never ran).
    pub fn final_accuracy(&self) -> f32 {
        self.epoch_accuracy.last().copied().unwrap_or(f32::NAN)
    }
}

/// Drives surrogate-gradient training of an [`Snn`].
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainerConfig,
}

impl Trainer {
    /// Creates a trainer.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] for invalid hyperparameters.
    pub fn new(config: TrainerConfig) -> Result<Self> {
        config.validate()?;
        Ok(Trainer { config })
    }

    /// The trainer's configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// Trains `network` on `(frames, labels)`.
    ///
    /// `frames[i]` holds the frame sequence of sample `i` under the frame
    /// contract ([`check_frames`]): one `[c, h, w]` (or `[1, c, h, w]`)
    /// tensor for static images (direct encoding repeats it every timestep)
    /// or `timesteps` of them for event data. A batch mixes neither frame
    /// counts nor shapes.
    ///
    /// Every step, its batch included, runs in the network's arena, so the
    /// steps after the first of each batch shape allocate no activation
    /// buffer. That working set is a BPTT window's caches, not what an Eval
    /// loop needs, so the arena is dropped when `fit` returns.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::BadInput`] when `frames` and `labels` disagree or
    /// are empty, or a sample breaks the frame contract, plus any layer/loss
    /// errors.
    pub fn fit(
        &self,
        network: &mut Snn,
        frames: &[Vec<Tensor>],
        labels: &[usize],
    ) -> Result<TrainReport> {
        let report = self.run_epochs(network, frames, labels);
        network.workspace = Workspace::new();
        report
    }

    fn run_epochs(
        &self,
        network: &mut Snn,
        frames: &[Vec<Tensor>],
        labels: &[usize],
    ) -> Result<TrainReport> {
        if frames.is_empty() || frames.len() != labels.len() {
            return Err(SnnError::BadInput(format!(
                "{} frame sequences vs {} labels",
                frames.len(),
                labels.len()
            )));
        }
        let cfg = &self.config;
        let mut sgd = Sgd::new(cfg.sgd)?;
        let schedule = CosineSchedule::new(cfg.sgd.lr, cfg.epochs)?;
        let mut rng = TensorRng::seed_from(cfg.seed);
        let mut order: Vec<usize> = (0..frames.len()).collect();
        let mut report = TrainReport::default();
        for epoch in 0..cfg.epochs {
            sgd.set_lr(schedule.lr_at(epoch));
            rng.shuffle(&mut order);
            let mut epoch_loss = 0.0;
            let mut correct = 0usize;
            let mut seen = 0usize;
            let mut batches = 0usize;
            for chunk in order.chunks(cfg.batch_size) {
                let (batch_frames, batch_labels) =
                    gather_batch(frames, labels, chunk, cfg.timesteps, &mut network.workspace)?;
                let outputs =
                    network.forward_sequence(&batch_frames, cfg.timesteps, Mode::Train)?;
                let (loss, grads) = cfg.loss.compute(&outputs, &batch_labels)?;
                network.zero_grads();
                for g in grads.iter().rev() {
                    let grad_input = network.backward_timestep(g)?;
                    network.recycle(grad_input);
                }
                sgd.step(network);
                epoch_loss += loss;
                batches += 1;
                // training accuracy on the averaged logits
                let mut mean = outputs[0].clone();
                for o in &outputs[1..] {
                    mean.axpy(1.0, o)?;
                }
                let preds = mean.argmax_rows()?;
                correct += preds.iter().zip(&batch_labels).filter(|(p, l)| p == l).count();
                seen += batch_labels.len();
                for t in outputs.into_iter().chain(batch_frames) {
                    network.recycle(t);
                }
            }
            report.epoch_loss.push(epoch_loss / batches.max(1) as f32);
            report.epoch_accuracy.push(correct as f32 / seen.max(1) as f32);
        }
        Ok(report)
    }
}

/// Stacks the samples `idx` into one `[batch, ..]` tensor per frame, in
/// buffers from `ws`. Each sample passes the frame contract
/// ([`check_frames`]) and is stacked at the dims it returns, so a batch-1
/// rank-4 frame stacks like its rank-3 spelling.
fn gather_batch(
    frames: &[Vec<Tensor>],
    labels: &[usize],
    idx: &[usize],
    timesteps: usize,
    ws: &mut Workspace,
) -> Result<(Vec<Tensor>, Vec<usize>)> {
    let first = &frames[idx[0]];
    let dims = check_frames(first, timesteps)?;
    for &i in idx {
        if frames[i].len() != first.len() || check_frames(&frames[i], timesteps)? != dims {
            return Err(SnnError::BadInput("mixed frame counts or shapes in one batch".into()));
        }
    }
    let row_len: usize = dims.iter().product();
    let batch_dims: Vec<usize> = std::iter::once(idx.len()).chain(dims.iter().copied()).collect();
    let batch_frames = (0..first.len())
        .map(|t| {
            let mut batch = ws.take_overwrite(idx.len() * row_len);
            for (row, &i) in batch.chunks_exact_mut(row_len).zip(idx) {
                row.copy_from_slice(frames[i][t].data());
            }
            Ok(Tensor::from_aligned(batch, &batch_dims)?)
        })
        .collect::<Result<_>>()?;
    let batch_labels = idx.iter().map(|&i| labels[i]).collect();
    Ok((batch_frames, batch_labels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Flatten, Linear};
    use crate::lif::{LifConfig, LifNeuron};
    use crate::Surrogate;

    /// A linearly separable toy problem: class = argmax over 3 pixel groups.
    fn toy_data(n: usize, seed: u64) -> (Vec<Vec<Tensor>>, Vec<usize>) {
        let mut rng = TensorRng::seed_from(seed);
        let mut frames = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let class = rng.below(3);
            let mut img = Tensor::randn(&[1, 3, 3], 0.2, 0.1, &mut rng);
            // make the class's row bright
            for j in 0..3 {
                let v = img.at(&[0, class, j]).unwrap();
                img.set(&[0, class, j], v + 1.0).unwrap();
            }
            frames.push(vec![img]);
            labels.push(class);
        }
        (frames, labels)
    }

    fn toy_net(seed: u64) -> Snn {
        let mut rng = TensorRng::seed_from(seed);
        let lif = LifConfig { surrogate: Surrogate::Rectangular, ..LifConfig::default() };
        Snn::from_layers(vec![
            Box::new(Flatten::new()),
            Box::new(Linear::new(9, 16, &mut rng)),
            Box::new(LifNeuron::new(lif)),
            Box::new(Linear::new(16, 3, &mut rng)),
        ])
    }

    #[test]
    fn trainer_validates_config() {
        assert!(Trainer::new(TrainerConfig { epochs: 0, ..TrainerConfig::default() }).is_err());
        assert!(Trainer::new(TrainerConfig::default()).is_ok());
    }

    #[test]
    fn trainer_rejects_mismatched_data() {
        let t = Trainer::new(TrainerConfig::default()).unwrap();
        let mut net = toy_net(0);
        let (frames, _) = toy_data(4, 0);
        assert!(t.fit(&mut net, &frames, &[0, 1]).is_err());
        assert!(t.fit(&mut net, &[], &[]).is_err());
    }

    #[test]
    fn training_learns_separable_problem() {
        let (frames, labels) = toy_data(90, 1);
        let mut net = toy_net(7);
        let cfg = TrainerConfig {
            epochs: 25,
            batch_size: 16,
            timesteps: 2,
            loss: LossKind::PerTimestep,
            sgd: SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 1e-4 },
            seed: 3,
        };
        let trainer = Trainer::new(cfg).unwrap();
        let report = trainer.fit(&mut net, &frames, &labels).unwrap();
        assert!(report.final_accuracy() > 0.85, "train acc = {}", report.final_accuracy());
        // held-out accuracy of the timestep-averaged logits at the full window
        let (test_frames, test_labels) = toy_data(60, 2);
        let all: Vec<usize> = (0..test_labels.len()).collect();
        let (batch, _) =
            gather_batch(&test_frames, &test_labels, &all, 2, &mut Workspace::new()).unwrap();
        let outputs = net.forward_sequence(&batch, 2, Mode::Eval).unwrap();
        let mut sum = outputs[0].clone();
        sum.axpy(1.0, &outputs[1]).unwrap();
        let preds = sum.argmax_rows().unwrap();
        let correct = preds.iter().zip(&test_labels).filter(|(p, l)| p == l).count();
        let acc = correct as f32 / test_labels.len() as f32;
        assert!(acc > 0.8, "test acc = {acc}");
    }

    #[test]
    fn both_losses_reduce_loss_over_epochs() {
        for loss in [LossKind::MeanOutput, LossKind::PerTimestep] {
            let (frames, labels) = toy_data(60, 4);
            let mut net = toy_net(9);
            let cfg = TrainerConfig {
                epochs: 8,
                batch_size: 16,
                timesteps: 2,
                loss,
                sgd: SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 0.0 },
                seed: 5,
            };
            let trainer = Trainer::new(cfg).unwrap();
            let report = trainer.fit(&mut net, &frames, &labels).unwrap();
            assert!(
                report.final_loss() < report.epoch_loss[0],
                "{loss:?}: {} !< {}",
                report.final_loss(),
                report.epoch_loss[0]
            );
        }
    }

    #[test]
    fn batch1_rank4_frames_train_like_their_rank3_spelling() {
        // the frame contract's two spellings of one sample: trained on
        // either, the parameters end bit for bit the same
        let mut rng = TensorRng::seed_from(40);
        let frames: Vec<Tensor> =
            (0..6).map(|_| Tensor::randn(&[2, 8, 8], 0.5, 1.0, &mut rng)).collect();
        let labels = [0, 1, 2, 0, 1, 2];
        let trainer = Trainer::new(TrainerConfig {
            epochs: 2,
            batch_size: 4,
            timesteps: 2,
            ..TrainerConfig::default()
        })
        .unwrap();
        let trained = |batched: bool| {
            let mut rng = TensorRng::seed_from(41);
            let mut net = Snn::from_layers(vec![
                Box::new(Conv2d::new(2, 4, 3, 1, 1, &mut rng).unwrap()),
                Box::new(LifNeuron::new(LifConfig::default())),
                Box::new(Flatten::new()),
                Box::new(Linear::new(4 * 8 * 8, 3, &mut rng)),
            ]);
            let samples: Vec<Vec<Tensor>> = frames
                .iter()
                .map(|f| vec![if batched { f.reshape(&[1, 2, 8, 8]).unwrap() } else { f.clone() }])
                .collect();
            trainer.fit(&mut net, &samples, &labels).unwrap();
            let mut bits = Vec::new();
            net.visit_params(&mut |p| bits.extend(p.value.data().iter().map(|v| v.to_bits())));
            bits
        };
        assert_eq!(trained(true), trained(false));
    }

    #[test]
    fn gather_batch_rejects_ragged_sequences() {
        let f = vec![vec![Tensor::zeros(&[1, 2, 2])], vec![
            Tensor::zeros(&[1, 2, 2]),
            Tensor::zeros(&[1, 2, 2]),
        ]];
        let l = vec![0, 1];
        assert!(gather_batch(&f, &l, &[0, 1], 2, &mut Workspace::new()).is_err());
    }
}
