//! Early-exit ANN baseline (BranchyNet-style [1, 18]).
//!
//! Sec. III-A(c) of the paper contrasts DT-SNN with early exit in ANNs:
//! DT-SNN operates in the *time* dimension and needs no extra layers, while
//! an early-exit ANN attaches classifier branches to intermediate depths.
//! This module implements that comparator so the claim — "the majority of
//! examples can use the first timestep, while the first exit in ANNs outputs
//! marginal examples" — can be tested, not just quoted.
//!
//! The ANN reuses the same [`Layer`] building blocks as the SNN (conv, BN,
//! pooling, linear) with [`Relu`] activations and a single forward pass
//! (no timesteps). Each trunk block feeds both the next block and its own
//! exit head; training jointly minimizes the cross-entropy of every exit.

use crate::layer::{Layer, Mode, Param, State};
use crate::layers::{AvgPool2d, BatchNorm2d, Conv2d, Linear};
use crate::loss::cross_entropy_mean_output;
use crate::{Result, SnnError};
use dtsnn_tensor::{global_avg_pool, Tensor, TensorRng, Workspace};

/// Rectified linear activation for the ANN baseline.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    masks: Vec<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn forward_ws(&mut self, input: &Tensor, mode: Mode, _ws: &mut Workspace) -> Result<Tensor> {
        let out = input.map(|v| v.max(0.0));
        if mode == Mode::Train {
            self.masks.push(input.map(|v| if v > 0.0 { 1.0 } else { 0.0 }));
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor, _ws: &mut Workspace) -> Result<Tensor> {
        let mask = self.masks.pop().ok_or(SnnError::MissingForwardCache("Relu"))?;
        Ok(grad_out.mul(&mask)?)
    }

    fn reset_state_ws(&mut self, _ws: &mut Workspace) {
        self.masks.clear();
    }

    fn kind(&self) -> &'static str {
        "relu"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// One exit's logits together with the fraction of total network
/// multiply-accumulates spent to reach it (its compute cost).
#[derive(Debug, Clone, PartialEq)]
pub struct ExitOutput {
    /// Logits `[batch, classes]`.
    pub logits: Tensor,
    /// Cumulative fraction of the full network's MACs executed when this
    /// exit fires, in `(0, 1]`.
    pub compute_fraction: f32,
}

/// A feed-forward ANN with classifier branches after every trunk block.
pub struct EarlyExitAnn {
    blocks: Vec<Vec<Box<dyn Layer>>>,
    heads: Vec<Vec<Box<dyn Layer>>>,
    /// Cumulative MAC fraction up to and including each block (+ its head).
    compute_fractions: Vec<f32>,
    /// Kernel scratch and the backward caches and gradients of the layers
    /// (activations are not recycled: a single pass has no steady state to
    /// warm). A clone starts empty.
    workspace: Workspace,
}

impl std::fmt::Debug for EarlyExitAnn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EarlyExitAnn")
            .field("blocks", &self.blocks.len())
            .field("heads", &self.heads.len())
            .finish()
    }
}

impl Clone for EarlyExitAnn {
    fn clone(&self) -> Self {
        EarlyExitAnn {
            blocks: self.blocks.iter().map(|b| b.to_vec()).collect(),
            heads: self.heads.iter().map(|h| h.to_vec()).collect(),
            compute_fractions: self.compute_fractions.clone(),
            workspace: Workspace::new(),
        }
    }
}

impl EarlyExitAnn {
    /// Builds a VGG-flavoured early-exit ANN comparable to
    /// [`crate::vgg_small`]: three conv stages, each followed by an exit
    /// head (global-average-pool → linear).
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] for invalid geometry.
    pub fn vgg_like(
        in_channels: usize,
        image_size: usize,
        num_classes: usize,
        width: usize,
        rng: &mut TensorRng,
    ) -> Result<Self> {
        if image_size < 8 || !image_size.is_multiple_of(4) {
            return Err(SnnError::InvalidConfig(format!(
                "image_size must be a multiple of 4 and ≥ 8, got {image_size}"
            )));
        }
        let w = width.max(1);
        let blocks: Vec<Vec<Box<dyn Layer>>> = vec![
            vec![
                Box::new(Conv2d::new(in_channels, w, 3, 1, 1, rng)?),
                Box::new(BatchNorm2d::new(w)),
                Box::new(Relu::new()),
                Box::new(Conv2d::new(w, w, 3, 1, 1, rng)?),
                Box::new(BatchNorm2d::new(w)),
                Box::new(Relu::new()),
                Box::new(AvgPool2d::new(2)?),
            ],
            vec![
                Box::new(Conv2d::new(w, 2 * w, 3, 1, 1, rng)?),
                Box::new(BatchNorm2d::new(2 * w)),
                Box::new(Relu::new()),
                Box::new(Conv2d::new(2 * w, 2 * w, 3, 1, 1, rng)?),
                Box::new(BatchNorm2d::new(2 * w)),
                Box::new(Relu::new()),
                Box::new(AvgPool2d::new(2)?),
            ],
            vec![
                Box::new(Conv2d::new(2 * w, 2 * w, 3, 1, 1, rng)?),
                Box::new(BatchNorm2d::new(2 * w)),
                Box::new(Relu::new()),
            ],
        ];
        // exit heads: GAP (via explicit flatten of pooled maps) → linear
        let heads: Vec<Vec<Box<dyn Layer>>> = vec![
            vec![Box::new(GapFlatten::new()), Box::new(Linear::new(w, num_classes, rng))],
            vec![Box::new(GapFlatten::new()), Box::new(Linear::new(2 * w, num_classes, rng))],
            vec![Box::new(GapFlatten::new()), Box::new(Linear::new(2 * w, num_classes, rng))],
        ];
        // MAC budget per block (heads are negligible): s², (s/2)², (s/4)²
        let s = image_size as f32;
        let macs = [
            (in_channels * w + w * w) as f32 * 9.0 * s * s,
            (w * 2 * w + 4 * w * w) as f32 * 9.0 * (s / 2.0).powi(2),
            (4 * w * w) as f32 * 9.0 * (s / 4.0).powi(2),
        ];
        let total: f32 = macs.iter().sum();
        let mut acc = 0.0;
        let compute_fractions = macs
            .iter()
            .map(|m| {
                acc += m / total;
                acc
            })
            .collect();
        Ok(EarlyExitAnn { blocks, heads, compute_fractions, workspace: Workspace::new() })
    }

    /// Number of exits.
    pub fn num_exits(&self) -> usize {
        self.heads.len()
    }

    /// Clears caches (between samples / batches).
    pub fn reset_state(&mut self) {
        for l in self.blocks.iter_mut().chain(&mut self.heads).flatten() {
            l.reset_state_ws(&mut self.workspace);
        }
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Visits every learnable parameter: the [`State::Param`] slots of the
    /// blocks' and then the heads' state walk.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for l in self.blocks.iter_mut().chain(&mut self.heads).flatten() {
            l.visit_state(&mut |s| {
                if let State::Param(p) = s {
                    f(p);
                }
            });
        }
    }

    /// Forward pass producing every exit's output.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn forward_all(&mut self, input: &Tensor, mode: Mode) -> Result<Vec<ExitOutput>> {
        self.reset_state();
        let ws = &mut self.workspace;
        let mut x = input.clone();
        let mut outputs = Vec::with_capacity(self.heads.len());
        for (i, block) in self.blocks.iter_mut().enumerate() {
            for layer in block.iter_mut() {
                x = layer.forward_ws(&x, mode, ws)?;
            }
            let mut h = x.clone();
            for layer in self.heads[i].iter_mut() {
                h = layer.forward_ws(&h, mode, ws)?;
            }
            outputs.push(ExitOutput { logits: h, compute_fraction: self.compute_fractions[i] });
        }
        Ok(outputs)
    }

    /// Backward pass given one gradient per exit (joint training).
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::BadInput`] when the gradient count differs from
    /// the exit count.
    pub fn backward_all(&mut self, grads: &[Tensor]) -> Result<()> {
        if grads.len() != self.heads.len() {
            return Err(SnnError::BadInput(format!(
                "{} exit gradients for {} exits",
                grads.len(),
                self.heads.len()
            )));
        }
        let mut carry: Option<Tensor> = None;
        for i in (0..self.blocks.len()).rev() {
            let mut g = grads[i].clone();
            for layer in self.heads[i].iter_mut().rev() {
                g = layer.backward(&g, &mut self.workspace)?;
            }
            if let Some(c) = carry {
                g.axpy(1.0, &c)?;
            }
            for layer in self.blocks[i].iter_mut().rev() {
                g = layer.backward(&g, &mut self.workspace)?;
            }
            carry = Some(g);
        }
        Ok(())
    }

    /// One SGD training step on a batch (joint cross-entropy over all exits,
    /// equal weights). Returns the mean loss.
    ///
    /// # Errors
    ///
    /// Propagates loss/layer errors.
    pub fn train_batch(&mut self, input: &Tensor, labels: &[usize], lr: f32) -> Result<f32> {
        let outputs = self.forward_all(input, Mode::Train)?;
        let mut total = 0.0;
        let mut grads = Vec::with_capacity(outputs.len());
        for out in &outputs {
            // single-"timestep" CE per exit
            let (loss, g) = cross_entropy_mean_output(std::slice::from_ref(&out.logits), labels)?;
            total += loss;
            grads.push(g.into_iter().next().expect("one timestep"));
        }
        self.zero_grads();
        self.backward_all(&grads)?;
        let scale = lr / outputs.len() as f32;
        self.visit_params(&mut |p| {
            let g = p.grad.clone();
            p.value.axpy(-scale, &g).expect("matching parameter shapes");
        });
        Ok(total / outputs.len() as f32)
    }
}

/// Global-average-pool + flatten as a single layer (`[n,c,h,w] → [n,c]`).
#[derive(Debug, Clone, Default)]
struct GapFlatten {
    input_dims: Vec<Vec<usize>>,
}

impl GapFlatten {
    fn new() -> Self {
        GapFlatten::default()
    }
}

impl Layer for GapFlatten {
    fn forward_ws(&mut self, input: &Tensor, mode: Mode, _ws: &mut Workspace) -> Result<Tensor> {
        if mode == Mode::Train {
            self.input_dims.push(input.dims().to_vec());
        }
        Ok(global_avg_pool(input)?)
    }

    fn backward(&mut self, grad_out: &Tensor, _ws: &mut Workspace) -> Result<Tensor> {
        let dims = self.input_dims.pop().ok_or(SnnError::MissingForwardCache("GapFlatten"))?;
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let inv = 1.0 / (h * w) as f32;
        let mut gx = Tensor::zeros(&dims);
        for ni in 0..n {
            for ci in 0..c {
                let g = grad_out.data()[ni * c + ci] * inv;
                let base = (ni * c + ci) * h * w;
                for p in 0..h * w {
                    gx.data_mut()[base + p] = g;
                }
            }
        }
        Ok(gx)
    }

    fn reset_state_ws(&mut self, _ws: &mut Workspace) {
        self.input_dims.clear();
    }

    fn kind(&self) -> &'static str {
        "gap-flatten"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 2.0, 0.0, 3.0], &[1, 4]).unwrap();
        let y = relu.forward_ws(&x, Mode::Train, &mut Workspace::new()).unwrap();
        assert_eq!(y.data(), &[0.0, 2.0, 0.0, 3.0]);
        let g = relu.backward(&Tensor::ones(&[1, 4]), &mut Workspace::new()).unwrap();
        assert_eq!(g.data(), &[0.0, 1.0, 0.0, 1.0]);
        assert!(relu.backward(&Tensor::ones(&[1, 4]), &mut Workspace::new()).is_err());
    }

    #[test]
    fn ann_builds_and_exits_have_increasing_compute() {
        let mut rng = TensorRng::seed_from(1);
        let ann = EarlyExitAnn::vgg_like(3, 16, 5, 8, &mut rng).unwrap();
        assert_eq!(ann.num_exits(), 3);
        for w in ann.compute_fractions.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!((ann.compute_fractions[2] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn forward_all_produces_per_exit_logits() {
        let mut rng = TensorRng::seed_from(2);
        let mut ann = EarlyExitAnn::vgg_like(3, 16, 5, 8, &mut rng).unwrap();
        let x = Tensor::randn(&[2, 3, 16, 16], 0.5, 0.3, &mut rng);
        let outs = ann.forward_all(&x, Mode::Eval).unwrap();
        assert_eq!(outs.len(), 3);
        for o in &outs {
            assert_eq!(o.logits.dims(), &[2, 5]);
        }
    }

    #[test]
    fn training_reduces_joint_loss() {
        let mut rng = TensorRng::seed_from(3);
        let mut ann = EarlyExitAnn::vgg_like(1, 8, 2, 4, &mut rng).unwrap();
        let x = Tensor::randn(&[8, 1, 8, 8], 0.5, 0.5, &mut rng);
        let labels: Vec<usize> = (0..8).map(|i| i % 2).collect();
        let first = ann.train_batch(&x, &labels, 0.05).unwrap();
        let mut last = first;
        for _ in 0..30 {
            last = ann.train_batch(&x, &labels, 0.05).unwrap();
        }
        assert!(last < first * 0.8, "loss {first} → {last} did not improve");
    }

    #[test]
    fn backward_all_validates_gradient_count() {
        let mut rng = TensorRng::seed_from(4);
        let mut ann = EarlyExitAnn::vgg_like(1, 8, 2, 4, &mut rng).unwrap();
        let x = Tensor::zeros(&[1, 1, 8, 8]);
        ann.forward_all(&x, Mode::Train).unwrap();
        assert!(ann.backward_all(&[Tensor::zeros(&[1, 2])]).is_err());
    }

    #[test]
    fn clone_is_independent() {
        let mut rng = TensorRng::seed_from(5);
        let ann = EarlyExitAnn::vgg_like(1, 8, 2, 4, &mut rng).unwrap();
        let mut a = ann.clone();
        let mut b = ann.clone();
        let x = Tensor::randn(&[4, 1, 8, 8], 0.5, 0.5, &mut rng);
        let labels = vec![0, 1, 0, 1];
        a.train_batch(&x, &labels, 0.1).unwrap();
        // b's outputs unchanged by training a
        let oa = a.forward_all(&x, Mode::Eval).unwrap();
        let ob = b.forward_all(&x, Mode::Eval).unwrap();
        assert_ne!(oa[2].logits, ob[2].logits);
    }
}
