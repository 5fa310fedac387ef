//! Dense `f32` tensor math for the DT-SNN reproduction.
//!
//! This crate provides the minimal-but-complete numeric substrate the rest of
//! the workspace builds on: an owned, contiguous, row-major [`Tensor`] with
//! elementwise arithmetic, matrix multiplication, 2-D convolution (a direct
//! spike-scatter forward and backward, pinned to im2col references), pooling,
//! softmax and reduction kernels, and deterministic random initialization.
//!
//! Everything is pure safe Rust and **deterministic (thread-count-invariant)**:
//! the hot kernels run on the scoped-thread pool in [`parallel`], but every
//! worker owns a disjoint slice of output rows so float accumulation order
//! never changes — results are bitwise identical whether `DTSNN_THREADS` is
//! `1` (exactly the old serial path) or any larger worker count, and exactly
//! reproducible across runs.
//!
//! There is one numeric world, f32, and one kernel family: the blocked
//! matmul kernels ([`Tensor::matmul`] and friends, which skip a spike
//! operand's zeros in place) and the direct spike-scatter convolution
//! ([`conv2d_ws`], [`ConvPlan`]) with its direct backward
//! ([`conv2d_backward`]). The IMC deployment grid of crossbar weights is one
//! function, [`quant::quantize_dequantize`], which the hardware model reads;
//! no kernel runs on it. The [`Workspace`] arena makes the timestep loop —
//! an Eval window, or a training step's forward and backward — allocation
//! free after one warm-up pass.
//!
//! # Example
//!
//! ```
//! use dtsnn_tensor::Tensor;
//!
//! # fn main() -> Result<(), dtsnn_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.data(), a.data());
//! # Ok(())
//! # }
//! ```

// `deny` (not `forbid`) so the two layout/intrinsics modules — [`align`]
// and [`simd`] — can opt in with scoped `#[allow(unsafe_code)]`; everything
// else stays statically unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod align;
mod conv;
mod env_knob;
mod error;
mod linalg;
mod ops;
pub mod parallel;
mod pool;
pub mod quant;
mod rng;
mod shape;
pub mod simd;
mod tensor;
mod workspace;

pub use align::{AlignedVec, AlignedWords};
pub use conv::{
    col2im, conv2d, conv2d_backward, conv2d_backward_im2col, conv2d_ws, im2col, Conv2dSpec,
    ConvPlan,
};
pub use error::TensorError;
pub use linalg::{linear_ws, LinearPlan};
pub use ops::{log_softmax_rows, softmax_in_place, softmax_rows};
pub use pool::{avg_pool2d, avg_pool2d_backward, avg_pool2d_ws, global_avg_pool, PoolSpec};
pub use rng::TensorRng;
pub use shape::Shape;
pub use simd::SimdLevel;
pub use tensor::Tensor;
pub use workspace::{Workspace, WorkspaceStats};

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
