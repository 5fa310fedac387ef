//! Conformance test layer for the DT-SNN workspace.
//!
//! Three pillars, exercised by this crate's integration tests and wired into
//! `scripts/ci.sh`:
//!
//! - **Golden traces** ([`trace`]) — a recorder that serializes a fixed-seed
//!   end-to-end run (per-timestep spike densities, accumulated logits,
//!   normalized entropy, exit timestep, and the full IMC energy/latency/EDP
//!   ledger) into committed `goldens/*.json` files, plus a replay comparator
//!   with an explicit per-field tolerance policy and a `bless` binary that
//!   regenerates the files after an intentional numerics change.
//! - **Full-network gradient checks** ([`gradcheck`]) — central finite
//!   differences over sampled parameters of complete VGG/ResNet-block
//!   networks through multi-timestep BPTT, under both the Eq. 9 mean-output
//!   and Eq. 10 per-timestep losses. Exactness comes from the LIF
//!   `smooth_spike` relaxation and frozen-statistics BatchNorm.
//! - **Differential fuzzing** ([`fuzz`]) — seeded random configurations
//!   asserting cross-path equivalences (never-exit DT-SNN ≡ static SNN,
//!   thread-count invariance, σ = 0 device reads ≡ pure quantization,
//!   mapping invariants, checkpoint round-trips, compacted batched
//!   evaluation ≡ sequential evaluation, SIMD tier ≡ scalar), with failing
//!   cases shrunk to a minimal reproduction and reported by seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzz;
pub mod gradcheck;
pub mod trace;

use std::path::PathBuf;

/// Conformance-layer error.
#[derive(Debug)]
pub enum ConformanceError {
    /// Filesystem failure reading or writing a golden file.
    Io(std::io::Error),
    /// A dependency crate rejected a configuration or input.
    Invalid(String),
}

impl std::fmt::Display for ConformanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConformanceError::Io(e) => write!(f, "io error: {e}"),
            ConformanceError::Invalid(msg) => write!(f, "invalid: {msg}"),
        }
    }
}

impl std::error::Error for ConformanceError {}

impl From<std::io::Error> for ConformanceError {
    fn from(e: std::io::Error) -> Self {
        ConformanceError::Io(e)
    }
}

macro_rules! from_dep_error {
    ($($ty:ty),*) => {$(
        impl From<$ty> for ConformanceError {
            fn from(e: $ty) -> Self {
                ConformanceError::Invalid(e.to_string())
            }
        }
    )*};
}

from_dep_error!(
    dtsnn_snn::SnnError,
    dtsnn_core::CoreError,
    dtsnn_imc::ImcError,
    dtsnn_data::DataError
);

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, ConformanceError>;

/// Directory holding the committed golden trace files.
///
/// Anchored to the workspace root the same way `dtsnn_bench::write_json`
/// anchors `bench-results/`, so tests resolve it regardless of the
/// working directory cargo invokes them from.
pub fn goldens_dir() -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(PathBuf::from)
        .unwrap_or_default()
        .join("goldens")
}

/// Logical cores of the recording host, written into golden/bench context
/// blocks. Context fields are never
/// compared during replay — they document provenance.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goldens_dir_is_workspace_anchored() {
        let dir = goldens_dir();
        assert!(dir.ends_with("goldens"));
        // the parent must be the workspace root (it contains Cargo.toml)
        assert!(dir.parent().unwrap().join("Cargo.toml").exists());
    }

    #[test]
    fn host_cores_is_positive() {
        assert!(host_cores() >= 1);
    }
}
