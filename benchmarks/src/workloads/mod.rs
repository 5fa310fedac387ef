//! The four workloads. Each has an untraced `measure` (end-to-end metrics)
//! and a traced `trace` (per-layer metrics, spans written at exit).

pub mod batched;
pub mod chip;
pub mod serve;
pub mod solo;

use crate::passes::{run_for, summarize, Pass, Timing};
use crate::report::{Measured, Traced};
use crate::spans::Tracer;
use crate::{fail, Result};

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["solo_vgg", "batched_resnet", "serve_poisson", "chip_map"];

/// Spans a traced run keeps (a few MB of JSON at most).
pub const SPAN_CAPACITY: usize = 60_000;

/// What the driver passes to one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Drives input order, window row order, arrival times, search order.
    pub seed: u64,
    /// Length of the measurement phase.
    pub seconds: f64,
}

/// Runs the untraced measurement of a workload.
pub fn measure(workload: &str, spec: Spec) -> Result<Measured> {
    match workload {
        "solo_vgg" => solo::measure(spec),
        "batched_resnet" => batched::measure(spec),
        "serve_poisson" => serve::measure(spec),
        "chip_map" => chip::measure(spec),
        other => fail(format!("unknown workload {other}; expected one of {NAMES:?}")),
    }
}

/// Runs the traced measurement of a workload and writes its spans to
/// `benchmarks/out/trace_<workload>.json` under the current directory.
pub fn trace(workload: &str, spec: Spec) -> Result<Traced> {
    let mut tracer = Tracer::new(SPAN_CAPACITY);
    let traced = match workload {
        "solo_vgg" => solo::trace(spec, &mut tracer),
        "batched_resnet" => batched::trace(spec, &mut tracer),
        "serve_poisson" => serve::trace(spec, &mut tracer),
        "chip_map" => chip::trace(spec, &mut tracer),
        other => fail(format!("unknown workload {other}; expected one of {NAMES:?}")),
    }?;
    let dir = std::path::Path::new("benchmarks").join("out");
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join(format!("trace_{workload}.json")), tracer.to_json())?;
    Ok(traced)
}

/// The same sweep measured without and then with spans.
pub(crate) struct TracedPasses {
    /// The untraced passes.
    pub plain: Timing,
    /// Traced ÷ untraced sweep time − 1: what recording spans costs.
    pub overhead_ratio: f64,
    /// Passes run, untraced and traced together.
    pub passes: usize,
}

/// Runs `sweep` for a quarter of `seconds` without a tracer and a quarter
/// with one (the rest of a traced run goes to the layer probes).
pub(crate) fn traced_passes(
    seconds: f64,
    tracer: &mut Tracer,
    mut sweep: impl FnMut(Option<&mut Tracer>) -> Result<Pass>,
) -> Result<TracedPasses> {
    let plain = summarize(&run_for(seconds / 4.0, || sweep(None))?)?;
    let traced = summarize(&run_for(seconds / 4.0, || sweep(Some(&mut *tracer)))?)?;
    Ok(TracedPasses {
        overhead_ratio: traced.sweep_seconds / plain.sweep_seconds - 1.0,
        passes: plain.passes + traced.passes,
        plain,
    })
}
