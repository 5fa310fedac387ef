//! DT-SNN: input-aware dynamic-timestep inference for spiking neural
//! networks (the paper's primary contribution).
//!
//! After every timestep the accumulated classifier output is softmaxed, its
//! normalized entropy (Eq. 7) is compared against a threshold θ, and
//! inference terminates at the first timestep that is confident enough
//! (Eq. 8) — so easy inputs use one timestep and only the hard tail pays for
//! the full window. The crate provides:
//!
//! - [`ExitPolicy`] — entropy thresholding plus the max-probability and
//!   margin alternatives used in the extension ablation;
//! - [`window::Window`] — Eqs. 5–8 for a set of the network's batch rows:
//!   the one timestep loop every runner below, static ones included (and
//!   the `dtsnn-serve` engine), drives;
//! - [`DynamicInference`] — the per-sample runner ([`static_inference`]:
//!   the same with an exit that never fires);
//! - [`DynamicEvaluation`] / [`StaticEvaluation`] — dataset-level harnesses
//!   reporting accuracy, average timesteps and the T̂ distribution;
//! - [`ThresholdSweep`] — accuracy–EDP curves over θ (Figs. 5 and 7);
//! - [`MonteCarloRobustness`] / [`degradation_sweep`] — seeded fault trials
//!   over the damaged IMC substrate with mean/std/CI aggregation (Fig. 6(B));
//! - [`measure_throughput`] — wall-clock images/s (Table III);
//! - [`ascii_render`] — easy/hard sample visualization (Fig. 8).
//!
//! # Example
//!
//! ```
//! use dtsnn_core::ExitPolicy;
//!
//! let policy = ExitPolicy::entropy(0.2).expect("valid threshold");
//! // a confident distribution exits, a uniform one does not
//! assert!(policy.should_exit(&[0.97, 0.01, 0.01, 0.01]));
//! assert!(!policy.should_exit(&[0.25, 0.25, 0.25, 0.25]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calibration;
mod energy_link;
mod error;
mod harness;
mod inference;
mod policy;
mod robustness;
mod sweep;
mod throughput;
mod visualize;
pub mod window;

pub use calibration::{
    collect_exit_scores, reliability_bins, score_correctness_correlation, ReliabilityBin,
};
pub use energy_link::HardwareProfile;
pub use error::CoreError;
pub use harness::{
    DynamicEvaluation, DynamicSampleOutcome, QuarantinedEvaluation, StaticEvaluation,
};
pub use inference::{static_inference, DynamicInference, DynamicOutcome, DynamicTrace, TimestepTrace};
pub use policy::ExitPolicy;
pub use robustness::{
    degradation_sweep, DegradationPoint, FaultTrial, MonteCarloConfig, MonteCarloRobustness,
    MonteCarloStatic, StaticTrial, Statistic,
};
pub use sweep::{SweepPoint, ThresholdSweep};
pub use throughput::{measure_dynamic_throughput, measure_throughput, ThroughputReport};
pub use visualize::{ascii_render, bucket_by_timesteps};

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
