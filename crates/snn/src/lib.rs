//! Spiking neural network layers and surrogate-gradient training for the
//! DT-SNN reproduction.
//!
//! The crate implements the training stack of Sec. II of the paper:
//! leaky integrate-and-fire (LIF) neurons with reset-to-zero dynamics
//! (Eqs. 2–3), surrogate gradients (Eq. 4 plus the alternatives used by the
//! paper's baselines), direct input encoding, tdBN-style normalization,
//! backpropagation through time, SGD with momentum and cosine learning-rate
//! decay, and the two loss functions of Eqs. 9–10.
//!
//! # Example
//!
//! ```
//! use dtsnn_snn::{Layer, LifConfig, LifNeuron, Mode};
//! use dtsnn_tensor::{Tensor, Workspace};
//!
//! # fn main() -> Result<(), dtsnn_snn::SnnError> {
//! let mut lif = LifNeuron::new(LifConfig::default());
//! let input = Tensor::full(&[1, 4], 2.0); // strong current → immediate spike
//! let spikes = lif.forward_ws(&input, Mode::Eval, &mut Workspace::new())?;
//! assert_eq!(spikes.data(), &[1.0, 1.0, 1.0, 1.0]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ann;
mod checkpoint;
mod error;
mod frames;
mod layer;
mod layers;
mod lif;
mod loss;
mod models;
mod network;
mod optim;
mod prefix;
mod surrogate;
mod train;

pub use ann::{EarlyExitAnn, ExitOutput, Relu};
pub use checkpoint::{load_params, save_params, CheckpointError};
pub use error::SnnError;
pub use frames::{batch1_frames, check_frames, frame_at, FrameError};
pub use layer::{Layer, Mode, Param, State, WeightVisitor};
pub use layers::{AvgPool2d, BatchNorm2d, Conv2d, Flatten, Linear, ResidualBlock};
pub use lif::{LifConfig, LifNeuron, ResetMode};
pub use loss::{cross_entropy_mean_output, cross_entropy_per_timestep, LossKind};
pub use models::{
    resnet19_geometry, resnet_small, vgg16_geometry, vgg_small, DensitySource, LayerGeometry,
    ModelConfig,
};
pub use network::{LayerNode, Snn, SpikeActivity};
pub use optim::{CosineSchedule, Sgd, SgdConfig};
pub use prefix::PrefixStats;
pub use surrogate::Surrogate;
pub use train::{TrainReport, Trainer, TrainerConfig};

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, SnnError>;
