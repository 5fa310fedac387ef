//! `dtsnn-perfbench`: the repository's benchmark.
//!
//! Four workloads measure the system from outside — timing calls into the
//! public functions of `tensor`, `snn`, `core`, `serve` and `imc` — and
//! report eight end-to-end metrics (untraced runs) or a per-layer breakdown
//! (traced runs). See `benchmarks/README.md` for what each workload is for
//! and how the estimators keep shared-host noise out of the numbers.

pub mod passes;
pub mod probes;
pub mod replay;
pub mod report;
pub mod setup;
pub mod shadow;
pub mod spans;
pub mod stats;
pub mod workloads;

/// Crate-wide result: any failed output check or propagated library error
/// ends the run without a result line.
pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// Fails the run with a message.
pub fn fail<T>(message: impl Into<String>) -> Result<T> {
    Err(message.into().into())
}
