//! Tiled RRAM in-memory-computing architecture simulator (Sec. III-B of the
//! paper).
//!
//! The simulator models the monolithic tiled chip of Fig. 3(a): layers are
//! unrolled onto 64×64 crossbars of 4-bit RRAM devices (two bit-slices per
//! 8-bit weight, differential columns for sign), crossbars are grouped into
//! PEs and tiles with hierarchical buffers and accumulators, ADCs are shared
//! across columns by a multiplexer, and tiles communicate over a NoC. The
//! DT-SNN-specific σ–E module (LUT-based softmax + entropy, Fig. 3(b)) is
//! modelled both *functionally* (quantized LUT arithmetic you can execute)
//! and *energetically*.
//!
//! Energy, latency and area are analytical per-event models whose leaf
//! constants are calibrated so that the VGG-16/CIFAR-10 mapping reproduces
//! the paper's Fig. 1(A) component breakdown (digital peripherals ≈ 45%,
//! crossbar + ADC ≈ 25%) and Fig. 1(B) scaling (≈ 4.9× energy and 8×
//! latency from T = 1 → 8). Everything else — scaling with spike activity,
//! with timesteps, the ≈ 2·10⁻⁵ σ–E overhead — follows structurally.
//!
//! # Example
//!
//! ```
//! use dtsnn_imc::{ChipMapping, HardwareConfig};
//! use dtsnn_snn::vgg16_geometry;
//!
//! # fn main() -> Result<(), dtsnn_imc::ImcError> {
//! let config = HardwareConfig::default();
//! let mapping = ChipMapping::map(&vgg16_geometry(32, 3, 10), &config)?;
//! assert!(mapping.total_crossbars() > 100);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod area;
mod config;
mod energy;
mod error;
mod faults;
mod mapping;
mod search;
mod sigma_e;
mod sim;

pub use area::{chip_area, AreaConstants, AreaReport};
pub use config::{EnergyConstants, HardwareConfig, LatencyConstants};
pub use energy::{Component, CostModel, EnergyBreakdown, InferenceCost};
pub use error::ImcError;
pub use faults::{FaultInjector, FaultModel, FaultReport};
pub use mapping::{ChipMapping, MappedLayer};
pub use search::{
    pareto_front, provisioned_area_mm2, search_placement, AnnealOptions, ParetoPoint,
    SearchResult, TrajectoryPoint,
};
pub use sigma_e::{exact_normalized_entropy, SigmaEModule, SigmaEReading};
pub use sim::{EventSim, Placement, SimOptions, SimReport, TimestepSchedule};

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, ImcError>;
