//! The exit-decision core: Eqs. 5–8 for a set of batch rows.
//!
//! The paper's algorithm is one loop — forward a timestep, fold the logits
//! into the running mean `f_t(x)` (Eq. 5), softmax it (Eq. 6), score its
//! normalized entropy (Eq. 7) and exit when the score clears θ (Eq. 8). A
//! [`Window`] is that loop body for any number of rows, each at its own
//! timestep and each the network's carried batch row of the same index. Core
//! has one driver of it, the per-sample runner ([`crate::DynamicInference`],
//! one row), and everything above one request runs through that: the static
//! SNN is the runner with an exit that cannot fire, and the dataset driver
//! runs every sample through it in turn. The serving engine (`dtsnn-serve`)
//! drives many rows in lockstep: rows retire ([`Window::compact`]) and are
//! admitted mid-window ([`Window::admit`]). Because every driver folds and
//! decides through the same arithmetic on the same row of logits, a
//! sample's scores, exit timestep and prediction cannot depend on which
//! driver ran it or on its batch neighbours.

use crate::policy::ExitPolicy;
use crate::{CoreError, Result};
use dtsnn_snn::{frame_at, Mode, Snn};
use dtsnn_tensor::{softmax_in_place, Tensor};

/// What one [`Window::fold`] decided about one row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Timesteps the row has executed, this one included.
    pub t: usize,
    /// The policy's confidence score of the row's running mean (normalized
    /// entropy, Eq. 7, for the paper's policy).
    pub score: f32,
    /// Whether the policy fired on that score (Eq. 8).
    pub fired: bool,
    /// Whether the row leaves the window: the policy fired or `t` reached
    /// the cap.
    pub exit: bool,
    /// Argmax of the row's class probabilities (ties → first).
    pub prediction: usize,
}

/// Per-row running state of a dynamic-timestep inference window.
///
/// Row order is the batch-row order of the network the window is stepped
/// with, and [`Window::admit`] and [`Window::compact`] move the network's
/// carried rows with the window's. All buffers are reused across timesteps;
/// only growth beyond the widest batch seen allocates.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Logit width, `0` until the first fold of a non-empty window.
    classes: usize,
    /// Timesteps executed, per row.
    t: Vec<usize>,
    /// `[rows, classes]` logit sums — the Eq. 5 numerators.
    acc: Vec<f32>,
    /// `[rows, classes]` scratch: running mean, then its softmax.
    probs: Vec<f32>,
    /// Outcome of the latest fold, per row.
    decisions: Vec<Decision>,
}

impl Window {
    /// An empty window.
    pub fn new() -> Self {
        Window::default()
    }

    /// Rows currently in the window.
    pub fn rows(&self) -> usize {
        self.t.len()
    }

    /// Appends `n` fresh rows (no timestep executed yet): an empty window
    /// resets `network`, an open one pads its carried state
    /// ([`Snn::admit_batch_rows`]).
    ///
    /// # Errors
    ///
    /// Propagates the network's refusal to pad; the window is untouched then.
    pub fn admit(&mut self, network: &mut Snn, n: usize) -> Result<()> {
        if self.rows() == 0 {
            network.reset_state();
        } else {
            network.admit_batch_rows(n)?;
        }
        self.t.resize(self.t.len() + n, 0);
        self.acc.resize(self.t.len() * self.classes, 0.0);
        Ok(())
    }

    /// Forwards every row one timestep through `network` — row `r` on the
    /// frame of `frames_of(r)` at the row's own `t` ([`frame_at`]: a single
    /// static frame repeats) — folds the logits ([`Window::fold`]) and hands
    /// their buffer back to the network's arena. The frames must be batch-1
    /// ([`dtsnn_snn::batch1_frames`]): every runner checks its samples once,
    /// before their first step.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadInput`] for an empty window or a row whose
    /// frames ran out, and propagates network errors; the window's state is
    /// untouched in either case.
    pub fn step<'f>(
        &mut self,
        network: &mut Snn,
        frames_of: impl Fn(usize) -> &'f [Tensor],
        policy: &ExitPolicy,
        t_cap: usize,
    ) -> Result<()> {
        let frame_of = |row: usize| {
            frame_at(frames_of(row), self.t[row]).ok_or_else(|| {
                CoreError::BadInput(format!("row {row}: no frame for timestep {}", self.t[row] + 1))
            })
        };
        let logits = match self.rows() {
            0 => return Err(CoreError::BadInput("stepping an empty window".into())),
            // a lone row is its own batch: the solo runner stacks nothing
            1 => network.forward_timestep(frame_of(0)?, Mode::Eval)?,
            rows => {
                let frames = (0..rows).map(frame_of).collect::<Result<Vec<&Tensor>>>()?;
                network.forward_timestep(&Tensor::concat_axis0(&frames)?, Mode::Eval)?
            }
        };
        let folded = self.fold(&logits, policy, t_cap);
        network.recycle(logits);
        folded
    }

    /// Folds one timestep's `[rows, classes]` logits into the window: per
    /// row, add them to the accumulator (the first fold copies, so a `-0.0`
    /// logit keeps its sign), scale by `1/t` (Eq. 5), softmax (Eq. 6), score
    /// (Eq. 7) and decide (Eq. 8, or `t ≥ t_cap`). The outcome is read back
    /// through [`Window::decision`], [`Window::accumulated`] and
    /// [`Window::probabilities`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadInput`] unless `logits` is `[rows, classes]`
    /// with the window's row count and a nonzero class count equal to that
    /// of earlier folds; nothing has been folded then.
    pub fn fold(&mut self, logits: &Tensor, policy: &ExitPolicy, t_cap: usize) -> Result<()> {
        let rows = self.rows();
        let classes = match *logits.dims() {
            [r, c] if r == rows && c > 0 && (self.classes == 0 || self.classes == c) => c,
            _ => {
                return Err(CoreError::BadInput(format!(
                    "window of {rows} rows x {} classes cannot fold logits of dims {:?}",
                    self.classes,
                    logits.dims()
                )))
            }
        };
        self.classes = classes;
        self.acc.resize(rows * classes, 0.0);
        self.probs.resize(rows * classes, 0.0);
        self.decisions.clear();
        let per_row = self.acc.chunks_exact_mut(classes).zip(self.probs.chunks_exact_mut(classes));
        for ((t, logits), (acc, probs)) in
            self.t.iter_mut().zip(logits.data().chunks_exact(classes)).zip(per_row)
        {
            if *t == 0 {
                acc.copy_from_slice(logits);
            } else {
                for (a, &l) in acc.iter_mut().zip(logits) {
                    *a += l;
                }
            }
            *t += 1;
            let inv_t = 1.0 / *t as f32;
            for (p, &a) in probs.iter_mut().zip(acc.iter()) {
                *p = a * inv_t;
            }
            softmax_in_place(probs);
            let score = policy.score(probs);
            let fired = policy.fires(score);
            let mut prediction = 0;
            for (class, &p) in probs.iter().enumerate() {
                if p > probs[prediction] {
                    prediction = class;
                }
            }
            self.decisions.push(Decision { t: *t, score, fired, exit: fired || *t >= t_cap, prediction });
        }
        Ok(())
    }

    /// The latest fold's decision for `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` was not part of the latest fold.
    pub fn decision(&self, row: usize) -> Decision {
        self.decisions[row]
    }

    /// The logits `row` has accumulated (summed, not averaged).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn accumulated(&self, row: usize) -> &[f32] {
        &self.acc[row * self.classes..(row + 1) * self.classes]
    }

    /// The class probabilities of `row` at the latest fold.
    ///
    /// # Panics
    ///
    /// Panics if `row` was not part of the latest fold.
    pub fn probabilities(&self, row: usize) -> &[f32] {
        &self.probs[row * self.classes..(row + 1) * self.classes]
    }

    /// Keeps the given rows, in order, and drops the rest (with their fold
    /// outcomes: decisions and probabilities are per fold), in the window
    /// and in `network` ([`Snn::compact_batch`]; reset when none is kept).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadInput`] unless `keep` is strictly ascending
    /// and in range, and propagates the network's refusal of a row; the
    /// window and the network are both untouched then.
    pub fn compact(&mut self, network: &mut Snn, keep: &[usize]) -> Result<()> {
        let ascending = keep.windows(2).all(|w| w[0] < w[1]);
        if !ascending || keep.last().is_some_and(|&r| r >= self.rows()) {
            return Err(CoreError::BadInput(format!(
                "compact rows {keep:?} must be ascending and below {}",
                self.rows()
            )));
        }
        // the network checks its side before touching a layer
        if keep.is_empty() {
            network.reset_state();
        } else {
            network.compact_batch(keep)?;
        }
        // ascending, so every source sits at or after its destination
        for (dst, &src) in keep.iter().enumerate() {
            self.t[dst] = self.t[src];
            self.acc.copy_within(src * self.classes..(src + 1) * self.classes, dst * self.classes);
        }
        self.t.truncate(keep.len());
        self.acc.truncate(keep.len() * self.classes);
        self.decisions.clear();
        if keep.is_empty() {
            self.classes = 0; // an emptied window may serve another network
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DynamicInference, DynamicOutcome};
    use dtsnn_snn::{batch1_frames, Layer, LifConfig, LifNeuron, Linear};
    use dtsnn_tensor::TensorRng;

    /// Linear (the cached input prefix) → LIF (a carried membrane) → Linear.
    fn tiny_net() -> Snn {
        let mut rng = TensorRng::seed_from(17);
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Linear::new(4, 6, &mut rng)),
            Box::new(LifNeuron::new(LifConfig::default())),
            Box::new(Linear::new(6, 3, &mut rng)),
        ];
        Snn::from_layers(layers)
    }

    fn logits(rows: &[&[f32]]) -> Tensor {
        let flat: Vec<f32> = rows.iter().flat_map(|r| r.iter().copied()).collect();
        Tensor::from_vec(flat, &[rows.len(), rows[0].len()]).unwrap()
    }

    #[test]
    fn first_fold_copies_and_later_folds_add() {
        let policy = ExitPolicy::entropy(1e-6).unwrap();
        let mut w = Window::new();
        w.admit(&mut tiny_net(), 1).unwrap();
        w.fold(&logits(&[&[-0.0, 1.5, 0.0]]), &policy, 4).unwrap();
        // 0.0 + -0.0 would be +0.0: the first fold must not add to zeros
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(w.accumulated(0)), bits(&[-0.0, 1.5, 0.0]));
        w.fold(&logits(&[&[0.25, 0.5, -1.0]]), &policy, 4).unwrap();
        assert_eq!(w.accumulated(0), &[0.25, 2.0, -1.0]);
        let d = w.decision(0);
        assert_eq!((d.t, d.prediction, d.exit), (2, 1, false));
        // probabilities are the softmax of the running mean acc / t
        let mean = Tensor::from_vec(vec![0.125, 1.0, -0.5], &[1, 3]).unwrap();
        assert_eq!(w.probabilities(0), dtsnn_tensor::softmax_rows(&mean).unwrap().data());
        assert_eq!(d.score, policy.score(w.probabilities(0)));
    }

    #[test]
    fn rows_keep_their_own_timestep_across_admit_and_compact() {
        let policy = ExitPolicy::entropy(1e-6).unwrap();
        let (mut w, mut net) = (Window::new(), tiny_net());
        w.admit(&mut net, 2).unwrap();
        w.fold(&logits(&[&[1.0, 0.0], &[0.0, 2.0]]), &policy, 3).unwrap();
        w.compact(&mut net, &[1]).unwrap();
        w.admit(&mut net, 1).unwrap();
        assert_eq!(w.rows(), 2);
        w.fold(&logits(&[&[0.0, 2.0], &[5.0, 0.0]]), &policy, 3).unwrap();
        assert_eq!((w.decision(0).t, w.decision(1).t), (2, 1));
        assert_eq!(w.accumulated(0), &[0.0, 4.0]);
        assert_eq!(w.accumulated(1), &[5.0, 0.0], "a spliced row starts from its own logits");
        assert_eq!((w.decision(0).prediction, w.decision(1).prediction), (1, 0));
        // malformed keeps and logits are typed errors that fold nothing
        assert!(w.compact(&mut net, &[1, 0]).is_err());
        assert!(w.compact(&mut net, &[2]).is_err());
        assert!(w.fold(&logits(&[&[0.0, 1.0]]), &policy, 3).is_err());
        assert!(w.fold(&logits(&[&[0.0; 3], &[0.0; 3]]), &policy, 3).is_err());
        assert_eq!((w.rows(), w.decision(0).t), (2, 2));
        // an emptied window takes any class count again
        w.compact(&mut net, &[]).unwrap();
        w.admit(&mut net, 1).unwrap();
        w.fold(&logits(&[&[0.0; 3]]), &policy, 3).unwrap();
    }

    #[test]
    fn a_cap_lowered_mid_flight_retires_rows_already_past_it() {
        let policy = ExitPolicy::entropy(1e-6).unwrap(); // never fires
        let mut w = Window::new();
        w.admit(&mut tiny_net(), 1).unwrap();
        let l = logits(&[&[0.3, 0.2]]);
        for _ in 0..3 {
            w.fold(&l, &policy, 8).unwrap();
            assert!(!w.decision(0).exit);
        }
        // the row sits at t = 3; a cap of 2 must still retire it (`>=`)
        w.fold(&l, &policy, 2).unwrap();
        let d = w.decision(0);
        assert_eq!((d.t, d.fired, d.exit), (4, false, true));
    }

    #[test]
    fn nan_probabilities_never_fire_max_prob_or_margin() {
        let (mut w, mut net) = (Window::new(), tiny_net());
        let l = logits(&[&[f32::NAN, 9.0, 0.0], &[9.0, 0.0, 0.0]]);
        for policy in [ExitPolicy::max_prob(0.1).unwrap(), ExitPolicy::margin(0.1).unwrap()] {
            w.compact(&mut net, &[]).unwrap();
            w.admit(&mut net, 2).unwrap();
            w.fold(&l, &policy, 4).unwrap();
            let (poisoned, healthy) = (w.decision(0), w.decision(1));
            assert!(poisoned.score.is_nan() && !poisoned.fired && !poisoned.exit, "{poisoned:?}");
            assert!(healthy.fired && healthy.exit, "{healthy:?}");
            // the cap still retires the poisoned row
            for _ in 1..4 {
                w.fold(&l, &policy, 4).unwrap();
            }
            assert!(w.decision(0).exit && !w.decision(0).fired);
        }
    }

    /// One input row per sample: `[1, 4]` frames, a fresh one every step.
    fn samples(n: usize) -> Vec<Vec<Tensor>> {
        let mut rng = TensorRng::seed_from(23);
        (0..n).map(|_| (0..4).map(|_| Tensor::randn(&[1, 4], 0.5, 1.0, &mut rng)).collect()).collect()
    }

    /// `sample`'s accumulated logits after `steps` timesteps alone.
    fn solo(sample: &[Tensor], steps: usize) -> Vec<f32> {
        let policy = ExitPolicy::entropy(1e-6).unwrap();
        let (mut w, mut net) = (Window::new(), tiny_net());
        w.admit(&mut net, 1).unwrap();
        for _ in 0..steps {
            w.step(&mut net, |_| sample, &policy, 4).unwrap();
        }
        w.accumulated(0).to_vec()
    }

    #[test]
    fn admit_and_compact_move_the_network_rows_with_the_window_rows() {
        let policy = ExitPolicy::entropy(1e-6).unwrap();
        let samples = samples(3);
        let (mut w, mut net) = (Window::new(), tiny_net());
        // rows 0 and 1 open the window, row 0 retires, sample 2 splices in
        w.admit(&mut net, 2).unwrap();
        let mut rows = vec![0, 1];
        w.step(&mut net, |r| &samples[rows[r]], &policy, 4).unwrap();
        w.compact(&mut net, &[1]).unwrap();
        w.admit(&mut net, 1).unwrap();
        rows = vec![1, 2];
        for _ in 0..2 {
            w.step(&mut net, |r| &samples[rows[r]], &policy, 4).unwrap();
        }
        assert_eq!(w.accumulated(0), solo(&samples[1], 3).as_slice(), "the kept row");
        assert_eq!(w.accumulated(1), solo(&samples[2], 2).as_slice(), "the spliced row");
        // emptying the window resets the network: the next window starts fresh
        w.compact(&mut net, &[]).unwrap();
        w.admit(&mut net, 1).unwrap();
        w.step(&mut net, |_| &samples[0], &policy, 4).unwrap();
        assert_eq!(w.accumulated(0), solo(&samples[0], 1).as_slice());
    }

    /// Runs every sample through one window of them all to its exit, as a
    /// lockstep driver does: step every row, record its decision, compact
    /// away the rows that exit. Returns each sample's outcome, in order.
    fn lockstep(
        net: &mut Snn,
        runner: &DynamicInference,
        samples: &[Vec<Tensor>],
    ) -> Vec<DynamicOutcome> {
        let t_max = runner.max_timesteps();
        let frames: Vec<Vec<Tensor>> =
            samples.iter().map(|s| batch1_frames(s, t_max).unwrap()).collect();
        let mut outcomes: Vec<Option<DynamicOutcome>> = vec![None; samples.len()];
        let mut scores = vec![Vec::new(); samples.len()];
        let mut active: Vec<usize> = (0..samples.len()).collect();
        let mut w = Window::new();
        w.admit(net, active.len()).unwrap();
        while !active.is_empty() {
            w.step(net, |row| &frames[active[row]], runner.policy(), t_max).unwrap();
            let mut keep = Vec::new();
            for (row, &sample) in active.iter().enumerate() {
                let d = w.decision(row);
                scores[sample].push(d.score);
                if !d.exit {
                    keep.push(row);
                    continue;
                }
                outcomes[sample] = Some(DynamicOutcome {
                    prediction: d.prediction,
                    timesteps_used: d.t,
                    exited_early: d.fired && d.t < t_max,
                    scores: std::mem::take(&mut scores[sample]),
                    probabilities: w.probabilities(row).to_vec(),
                });
            }
            w.compact(net, &keep).unwrap();
            active = keep.iter().map(|&row| active[row]).collect();
        }
        outcomes.into_iter().map(Option::unwrap).collect()
    }

    #[test]
    fn a_compacting_resnet_window_matches_the_solo_runner_and_warms_its_arena() {
        let config = dtsnn_snn::ModelConfig {
            in_channels: 2,
            image_size: 8,
            num_classes: 3,
            width: 4,
            ..Default::default()
        };
        let mut rng = TensorRng::seed_from(81);
        let mut net = dtsnn_snn::resnet_small(&config, &mut rng).unwrap();
        let mut frame = || Tensor::randn(&[2, 8, 8], 0.5, 2.0, &mut rng);
        let mut samples: Vec<Vec<Tensor>> = (0..11).map(|_| vec![frame()]).collect();
        samples.push((0..4).map(|_| frame()).collect()); // one event sample
        // θ chosen to split this untrained net's exits across the window
        let runner = DynamicInference::new(ExitPolicy::entropy(0.98).unwrap(), 4).unwrap();
        let warm = lockstep(&mut net, &runner, &samples);
        let used: Vec<usize> = warm.iter().map(|o| o.timesteps_used).collect();
        let retire_apart = used.iter().any(|&t| t < 4) && used.contains(&4);
        assert!(retire_apart, "rows must retire apart: {used:?}");
        let bits = |o: &DynamicOutcome| {
            let f = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            (o.prediction, o.timesteps_used, o.exited_early, f(&o.scores), f(&o.probabilities))
        };
        let mut solo_net = net.clone();
        for (sample, got) in samples.iter().zip(&warm) {
            assert_eq!(bits(got), bits(&runner.run(&mut solo_net, sample).unwrap()));
        }
        // every compacted membrane, the ones nested in ResidualBlocks included,
        // went back to the arena: a second pass finds every buffer parked
        net.reset_workspace_stats();
        let again = lockstep(&mut net, &runner, &samples);
        let stats = net.workspace_stats();
        assert!(stats.takes > 0);
        assert_eq!(stats.misses, 0, "a warmed compacting window must not allocate: {stats:?}");
        assert!(again.iter().zip(&warm).all(|(a, w)| bits(a) == bits(w)));
    }

    #[test]
    fn a_refused_compact_leaves_the_window_and_the_network_untouched() {
        let policy = ExitPolicy::entropy(1e-6).unwrap();
        let samples = samples(3);
        let (mut w, mut net) = (Window::new(), tiny_net());
        w.admit(&mut net, 3).unwrap();
        w.step(&mut net, |r| &samples[r], &policy, 4).unwrap();
        let (w_before, mut net_before) = (w.clone(), net.clone());
        // rows out of order, or past the window: refused before either side
        assert!(w.compact(&mut net, &[1, 0]).is_err());
        assert!(w.compact(&mut net, &[3]).is_err());
        assert_eq!(w.rows(), 3);
        let mut twin = (w_before.clone(), net_before.clone());
        for (w, net) in [(&mut w, &mut net), (&mut twin.0, &mut twin.1)] {
            w.step(net, |r| &samples[r], &policy, 4).unwrap();
        }
        for row in 0..3 {
            assert_eq!(w.accumulated(row), twin.0.accumulated(row), "row {row}");
        }
        // a row the window has but the network does not: the network refuses,
        // and the window has not been gathered meanwhile
        let mut narrow = net_before.clone();
        narrow.compact_batch(&[0, 1]).unwrap();
        let mut w = w_before.clone();
        assert!(w.compact(&mut narrow, &[2]).is_err());
        assert_eq!(w.rows(), 3);
        assert_eq!(w.accumulated(2), w_before.accumulated(2));
        // ... nor the network: it steps on as two rows, like its untouched twin
        net_before.compact_batch(&[0, 1]).unwrap();
        let two = Tensor::concat_axis0(&[&samples[0][1], &samples[1][1]]).unwrap();
        let got = narrow.forward_timestep(&two, dtsnn_snn::Mode::Eval).unwrap();
        let want = net_before.forward_timestep(&two, dtsnn_snn::Mode::Eval).unwrap();
        assert_eq!(got.data(), want.data());
    }
}
