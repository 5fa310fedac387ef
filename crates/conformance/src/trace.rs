//! Golden-trace recording, comparison, and blessing.
//!
//! A golden trace is the committed JSON image of one fixed-seed end-to-end
//! run: an untrained backbone (weights pinned by the seed), a fixed synthetic
//! corpus, dynamic-timestep inference per sample with every intermediate
//! recorded (accumulated logits, per-layer spike densities, normalized-entropy
//! score, exit timestep), and the complete IMC cost ledger (per-component
//! energy, latency, EDP) derived from the measured spike activity.
//!
//! The replay test ([`compare`]) re-records the trace live and diffs it
//! field-by-field against the committed file under the tolerance policy of
//! [`tolerance_for`]. Intentional numerics changes are absorbed by running
//! the `bless` binary (`cargo run -p dtsnn-conformance --bin bless`), which
//! rewrites `goldens/*.json`.

use crate::{goldens_dir, host_cores, ConformanceError, Result};
use dtsnn_bench::json;
use dtsnn_bench::json::{Map, Value};
use dtsnn_bench::{hardware_profile, Arch};
use dtsnn_core::{DynamicInference, ExitPolicy};
use dtsnn_imc::{Component, InferenceCost};
use dtsnn_snn::{LifConfig, ModelConfig};
use dtsnn_tensor::{parallel, TensorRng};
use std::path::PathBuf;

/// Everything that pins one golden trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSpec {
    /// Backbone under trace.
    pub arch: Arch,
    /// Seed for weight init and corpus synthesis.
    pub seed: u64,
    /// Entropy exit threshold θ.
    pub theta: f32,
    /// Maximum timestep window T.
    pub timesteps: usize,
    /// Number of test samples traced.
    pub samples: usize,
    /// Channel width of the scaled backbone.
    pub width: usize,
}

impl TraceSpec {
    /// The committed VGG golden.
    pub fn vgg_default() -> Self {
        TraceSpec {
            arch: Arch::Vgg,
            seed: 0xD7_5EED,
            theta: 0.85,
            timesteps: 4,
            samples: 3,
            width: 8,
        }
    }

    /// The committed ResNet golden.
    pub fn resnet_default() -> Self {
        TraceSpec { arch: Arch::ResNet, ..TraceSpec::vgg_default() }
    }

    /// All committed goldens.
    pub fn all_defaults() -> [TraceSpec; 2] {
        [TraceSpec::vgg_default(), TraceSpec::resnet_default()]
    }

    /// Golden file stem (`trace_vgg` / `trace_resnet`).
    pub fn golden_name(&self) -> &'static str {
        match self.arch {
            Arch::Vgg => "trace_vgg",
            Arch::ResNet => "trace_resnet",
        }
    }

    /// Path of the committed golden file.
    pub fn golden_path(&self) -> PathBuf {
        goldens_dir().join(format!("{}.json", self.golden_name()))
    }

    fn model_config(&self) -> ModelConfig {
        ModelConfig {
            in_channels: 3,
            image_size: 16,
            num_classes: 10,
            lif: LifConfig { v_th: 1.0, tau: 0.75, ..LifConfig::default() },
            width: self.width,
            // untrained weights are small and Eval-mode BatchNorm applies its
            // init statistics, so at α = 1 spikes die out after two layers
            // and the trace would be mostly zeros. A large tdBN gain keeps
            // every layer and the classifier active, so the golden pins real
            // numerics end to end. (V_th cancels: tdBN scales γ by α·V_th.)
            tdbn_alpha: 6.0,
        }
    }
}

fn floats(values: &[f32]) -> Value {
    Value::Array(values.iter().map(|&v| Value::Num(f64::from(v))).collect())
}

fn ledger(cost: &InferenceCost) -> Value {
    let mut components = Map::new();
    for c in Component::ALL {
        components.insert(c.name().to_string(), Value::Num(cost.energy.component(c)));
    }
    json!({
        "per_component_pj": Value::Object(components),
        "energy_pj": cost.energy_pj(),
        "latency_cycles": cost.latency_cycles as f64,
        "clock_ns": cost.clock_ns,
        "latency_ns": cost.latency_ns(),
        "edp_pj_ns": cost.edp(),
        "timesteps": cost.timesteps,
    })
}

/// Records the trace `spec` describes, returning the full golden document
/// (a `context` block that is never compared, plus the compared `trace`
/// block).
///
/// # Errors
///
/// Propagates model-construction, dataset, inference and cost-model errors.
pub fn record(spec: &TraceSpec) -> Result<Value> {
    let cfg = spec.model_config();
    let mut rng = TensorRng::seed_from(spec.seed);
    let mut net = spec.arch.build(&cfg, &mut rng)?;
    let dataset = dtsnn_data::SyntheticVision::generate(
        &dtsnn_data::VisionConfig {
            train_size: 1,
            test_size: spec.samples,
            ..dtsnn_data::VisionConfig::default()
        },
        spec.seed ^ 0xDA7A,
    )?;
    let runner = DynamicInference::new(ExitPolicy::entropy(spec.theta)?, spec.timesteps)?;

    let mut sample_docs = Vec::with_capacity(spec.samples);
    let mut total_timesteps = 0usize;
    for sample in &dataset.test.samples {
        let traced = runner.run_traced(&mut net, &sample.frames)?;
        total_timesteps += traced.outcome.timesteps_used;
        let steps: Vec<Value> = traced
            .per_timestep
            .iter()
            .map(|s| {
                json!({
                    "score": f64::from(s.score),
                    "accumulated_logits": floats(&s.accumulated_logits),
                    "spike_densities": floats(&s.spike_densities),
                })
            })
            .collect();
        sample_docs.push(json!({
            "label": sample.label as f64,
            "prediction": traced.outcome.prediction as f64,
            "timesteps_used": traced.outcome.timesteps_used as f64,
            "exited_early": traced.outcome.exited_early,
            "scores": floats(&traced.outcome.scores),
            "probabilities": floats(&traced.outcome.probabilities),
            "per_timestep": Value::Array(steps),
        }));
    }

    let activity = net.take_activity();
    let profile = hardware_profile(&net, &cfg)?;
    let static_cost = profile.static_cost(&activity, spec.timesteps as f64)?;
    let avg_t = total_timesteps as f64 / spec.samples as f64;
    let dynamic_cost = profile.dynamic_cost(&activity, avg_t)?;

    Ok(json!({
        "context": json!({
            "schema_version": 1.0,
            "arch": spec.arch.name(),
            "seed": spec.seed as f64,
            "theta": f64::from(spec.theta),
            "timesteps": spec.timesteps as f64,
            "samples": spec.samples as f64,
            "width": spec.width as f64,
            "host_cores": host_cores() as f64,
            "threads": parallel::num_threads() as f64,
        }),
        "trace": json!({
            "samples": Value::Array(sample_docs),
            "activity": json!({
                "per_layer": floats(&activity.per_layer),
                "observations": activity.observations as f64,
            }),
            "energy": json!({
                "static_full_window": ledger(&static_cost),
                "dynamic_avg": ledger(&dynamic_cost),
            }),
        }),
    }))
}

/// Relative tolerance for a numeric field at `path`.
///
/// The policy is explicit and narrow:
///
/// - everything inference-side (logits, densities, scores, probabilities,
///   predictions, exit timesteps) must replay **exactly** — these are f32
///   chains whose values round-trip bit-exactly through the JSON layer, and
///   the whole point of the deterministic execution layer is that they do
///   not depend on thread count or host;
/// - the `energy` ledger is an f64 arithmetic chain on top of the densities;
///   it is deterministic too, but we allow 1 part in 10⁹ so an intentional
///   re-association inside the cost model does not count as golden drift.
pub fn tolerance_for(path: &str) -> f64 {
    if path.contains("/energy/") {
        1e-9
    } else {
        0.0
    }
}

fn numbers_match(golden: f64, live: f64, rel_tol: f64) -> bool {
    if golden == live {
        return true;
    }
    let scale = golden.abs().max(live.abs());
    (golden - live).abs() <= rel_tol * scale
}

fn diff_value(path: &str, golden: &Value, live: &Value, diffs: &mut Vec<String>) {
    match (golden, live) {
        (Value::Num(g), Value::Num(l)) => {
            let tol = tolerance_for(path);
            if !numbers_match(*g, *l, tol) {
                diffs.push(format!("{path}: golden {g} vs live {l} (rel tol {tol:e})"));
            }
        }
        (Value::Array(g), Value::Array(l)) => {
            if g.len() != l.len() {
                diffs.push(format!("{path}: golden len {} vs live len {}", g.len(), l.len()));
                return;
            }
            for (i, (gv, lv)) in g.iter().zip(l).enumerate() {
                diff_value(&format!("{path}[{i}]"), gv, lv, diffs);
            }
        }
        (Value::Object(g), Value::Object(l)) => {
            for (key, gv) in g.iter() {
                match l.get(key) {
                    Some(lv) => diff_value(&format!("{path}/{key}"), gv, lv, diffs),
                    None => diffs.push(format!("{path}/{key}: missing from live trace")),
                }
            }
            for (key, _) in l.iter() {
                if g.get(key).is_none() {
                    diffs.push(format!("{path}/{key}: not present in golden"));
                }
            }
        }
        (g, l) if g == l => {}
        (g, l) => diffs.push(format!("{path}: golden {g:?} vs live {l:?}")),
    }
}

/// Diffs a live trace document against a golden one, returning one
/// human-readable line per drifting field (empty = conformant).
///
/// Only the `trace` block is compared; `context` documents provenance
/// (host cores, thread count, seeds) and legitimately varies between
/// machines. A `schema_version` mismatch is reported as a single diff.
pub fn compare(golden: &Value, live: &Value) -> Vec<String> {
    let mut diffs = Vec::new();
    let version = |doc: &Value| doc.get("context").and_then(|c| c.get("schema_version")).and_then(Value::as_f64);
    if version(golden) != version(live) {
        diffs.push(format!(
            "context/schema_version: golden {:?} vs live {:?} — regenerate with the bless binary",
            version(golden),
            version(live)
        ));
        return diffs;
    }
    match (golden.get("trace"), live.get("trace")) {
        (Some(g), Some(l)) => diff_value("trace", g, l, &mut diffs),
        _ => diffs.push("trace block missing from golden or live document".into()),
    }
    diffs
}

/// Loads the committed golden for `spec`.
///
/// # Errors
///
/// Returns [`ConformanceError::Io`] when the file is missing (run the bless
/// binary first) and [`ConformanceError::Invalid`] when it fails to parse.
pub fn load_golden(spec: &TraceSpec) -> Result<Value> {
    let path = spec.golden_path();
    let text = std::fs::read_to_string(&path).map_err(|e| {
        ConformanceError::Io(std::io::Error::new(
            e.kind(),
            format!(
                "{}: {e} — regenerate goldens with `cargo run -p dtsnn-conformance --bin bless`",
                path.display()
            ),
        ))
    })?;
    json::from_str(&text)
        .map_err(|e| ConformanceError::Invalid(format!("{}: {e:?}", path.display())))
}

/// Records `spec` live and writes it as the new golden, returning the path.
///
/// # Errors
///
/// Propagates recording and filesystem errors.
pub fn bless(spec: &TraceSpec) -> Result<PathBuf> {
    let doc = record(spec)?;
    let dir = goldens_dir();
    std::fs::create_dir_all(&dir)?;
    let path = spec.golden_path();
    let mut text = json::to_string_pretty(&doc);
    text.push('\n');
    std::fs::write(&path, text)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_is_deterministic_in_spec() {
        let spec = TraceSpec { samples: 1, ..TraceSpec::vgg_default() };
        let a = record(&spec).unwrap();
        let b = record(&spec).unwrap();
        assert!(compare(&a, &b).is_empty());
    }

    #[test]
    fn compare_flags_numeric_drift_and_shape_changes() {
        let spec = TraceSpec { samples: 1, ..TraceSpec::vgg_default() };
        let golden = record(&spec).unwrap();
        let other = record(&TraceSpec { seed: spec.seed ^ 1, ..spec }).unwrap();
        let diffs = compare(&golden, &other);
        assert!(!diffs.is_empty(), "different seeds must not replay cleanly");
        assert!(diffs.iter().all(|d| d.starts_with("trace")), "{diffs:?}");
    }

    #[test]
    fn tolerance_policy_is_exact_outside_the_energy_ledger() {
        assert_eq!(tolerance_for("trace/samples[0]/scores[1]"), 0.0);
        assert!(tolerance_for("trace/energy/static_full_window/energy_pj") > 0.0);
        assert!(numbers_match(1.0, 1.0 + 1e-13, 1e-9));
        assert!(!numbers_match(1.0, 1.0 + 1e-13, 0.0));
    }

    #[test]
    fn golden_names_differ_per_arch() {
        assert_ne!(
            TraceSpec::vgg_default().golden_name(),
            TraceSpec::resnet_default().golden_name()
        );
    }
}
