//! Metric tables (the single source `BENCHMARK.json` is checked against),
//! the result line the driver parses, and the run-context block.

use crate::passes::Timing;
use crate::stats::Better;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One end-to-end metric: name, unit, direction, allowed worsening.
pub struct EndToEndSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which direction is better.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// How two measurements in one process are compared by `--selfcheck`.
    pub repeat: Repeat,
}

/// What `--selfcheck` expects of a metric measured twice in one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Repeat {
    /// Simulated or counted: must match bit for bit.
    Exact,
    /// Timed: must agree within the metric's bound.
    WithinBound,
    /// A process-lifetime maximum (`VmHWM`): the second reading contains
    /// the first, so it can only be required not to be lower.
    NotLower,
}

/// Bound of the simulated / counted metrics. They repeat bit-for-bit, so the
/// bound only has to be smaller than the smallest possible change (one
/// sample of 300 flipping moves accuracy by 0.4 %).
pub const EXACT_BOUND: f64 = 0.001;

/// The end-to-end metrics, in reporting order.
pub const END_TO_END: [EndToEndSpec; 8] = [
    EndToEndSpec {
        name: "samples_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        repeat: Repeat::WithinBound,
    },
    EndToEndSpec {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        repeat: Repeat::WithinBound,
    },
    EndToEndSpec {
        name: "latency_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        repeat: Repeat::WithinBound,
    },
    EndToEndSpec {
        name: "accuracy",
        unit: "ratio",
        better: Better::Higher,
        bound: EXACT_BOUND,
        repeat: Repeat::Exact,
    },
    EndToEndSpec {
        name: "avg_timesteps",
        unit: "count",
        better: Better::Lower,
        bound: EXACT_BOUND,
        repeat: Repeat::Exact,
    },
    EndToEndSpec {
        name: "edp_pj_ns",
        unit: "pJ.ns",
        better: Better::Lower,
        bound: EXACT_BOUND,
        repeat: Repeat::Exact,
    },
    EndToEndSpec {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        repeat: Repeat::WithinBound,
    },
    EndToEndSpec {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        repeat: Repeat::NotLower,
    },
];

/// What an untraced run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Values aligned with [`END_TO_END`].
    pub values: [f64; 8],
    /// Operations attempted in the measurement phase.
    pub attempted: u64,
    /// Operations that failed (timed out, rejected).
    pub failed: u64,
    /// Pass diagnostics.
    pub timing: Timing,
}

/// What a traced run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Traced {
    /// The per-layer values.
    pub metrics: LayerMetrics,
    /// Operations attempted in the timed passes.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

/// The per-layer metrics `(name, unit)`, in reporting order. Every traced
/// run prints all of them; a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tensor.conv2d_b1_us", "us"),
    ("tensor.conv2d_b32_us", "us"),
    ("tensor.linear_b1_us", "us"),
    ("tensor.linear_b32_us", "us"),
    ("tensor.avg_pool_b1_us", "us"),
    ("tensor.avg_pool_b32_us", "us"),
    ("tensor.backend_dense_layers", "count"),
    ("tensor.backend_csr_layers", "count"),
    ("tensor.backend_bitset_layers", "count"),
    ("tensor.backend_int8_layers", "count"),
    ("tensor.workspace_hits", "count"),
    ("tensor.workspace_misses", "count"),
    ("tensor.simd_speedup", "ratio"),
    ("tensor.threads2_speedup", "ratio"),
    ("snn.conv_us_per_step_b1", "us"),
    ("snn.conv_us_per_step_b32", "us"),
    ("snn.bn_us_per_step_b1", "us"),
    ("snn.bn_us_per_step_b32", "us"),
    ("snn.lif_us_per_step_b1", "us"),
    ("snn.lif_us_per_step_b32", "us"),
    ("snn.pool_us_per_step_b1", "us"),
    ("snn.pool_us_per_step_b32", "us"),
    ("snn.linear_us_per_step_b1", "us"),
    ("snn.linear_us_per_step_b32", "us"),
    ("snn.block_us_per_step_b1", "us"),
    ("snn.block_us_per_step_b32", "us"),
    ("snn.forward_timestep_us_b1", "us"),
    ("snn.forward_timestep_us_b8", "us"),
    ("snn.forward_timestep_us_b32", "us"),
    ("snn.shadow_coverage", "ratio"),
    ("snn.reset_state_us", "us"),
    ("snn.compact_batch_us", "us"),
    ("snn.admit_rows_us", "us"),
    ("snn.train_step_ms", "ms"),
    ("snn.spike_density_mean", "ratio"),
    ("datasets.generate_s", "s"),
    ("core.run_overhead_us_per_step", "us"),
    ("core.softmax_policy_us", "us"),
    ("core.exit_share_t1", "ratio"),
    ("core.exit_share_t2", "ratio"),
    ("core.exit_share_t3", "ratio"),
    ("core.exit_share_t4", "ratio"),
    ("core.row_steps", "count"),
    ("core.batched_overhead_ratio", "ratio"),
    ("core.dynamic_cost_us", "us"),
    ("serve.step_ms_p50", "ms"),
    ("serve.step_ms_p90", "ms"),
    ("serve.submit_us", "us"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p90", "ms"),
    ("serve.batch_width_mean", "count"),
    ("serve.peak_width", "count"),
    ("serve.steps", "count"),
    ("serve.spliced_share", "ratio"),
    ("serve.utilization", "ratio"),
    ("serve.engine_overhead_ratio", "ratio"),
    ("serve.latency_p99_ms_r120", "ms"),
    ("serve.latency_p90_ms_r240", "ms"),
    ("serve.latency_p90_ms_r360", "ms"),
    ("serve.timeout_share_r360", "ratio"),
    ("serve.max_rate_in_slo", "1/s"),
    ("serve.realclock_p50_ratio", "ratio"),
    ("imc.map_us", "us"),
    ("imc.ledger_cost_us", "us"),
    ("imc.sim_run_us", "us"),
    ("imc.sim_events_per_s", "1/s"),
    ("imc.search_ms", "ms"),
    ("imc.sigma_e_eval_us", "us"),
    ("imc.search_evaluations", "count"),
    ("imc.search_edp_gain", "ratio"),
    ("imc.link_stall_cycles", "count"),
    ("imc.buffer_stall_cycles", "count"),
    ("imc.energy_share_adc", "ratio"),
    ("imc.energy_share_digital", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Per-layer values of one traced run, keyed by the names of [`PER_LAYER`].
#[derive(Debug, Clone, PartialEq)]
pub struct LayerMetrics(BTreeMap<&'static str, f64>);

impl Default for LayerMetrics {
    fn default() -> Self {
        LayerMetrics(PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect())
    }
}

impl LayerMetrics {
    /// Records a value.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`] or a non-finite value:
    /// both are harness bugs that must not reach the result line.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "{name} is not finite: {value}");
        let slot =
            self.0.get_mut(name).unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        *slot = value;
    }

    /// Reads a value back.
    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }

    /// `(name, unit, value)` rows in reporting order.
    pub fn rows(&self) -> Vec<(&'static str, &'static str, f64)> {
        PER_LAYER.iter().map(|&(name, unit)| (name, unit, self.0[name])).collect()
    }
}

/// The one-line JSON object the driver reads from the last line of stdout.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, &'static str, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        assert!(value.is_finite(), "{name} is not finite: {value}");
        if i > 0 {
            out.push_str(", ");
        }
        // `{:?}` keeps every digit (shortest round-trip form) and a
        // decimal point on whole numbers
        let _ = write!(out, "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> crate::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The commit a git checkout is at, or `"unknown"` (the driver's checkout
/// is not a git repository).
pub fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| head.clone()),
        None => head,
    }
}

/// Host and dispatch context recorded with every run.
pub fn context_line(workload: &str, seed: u64, seconds: f64, traced: bool, wall_s: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "context: {{\"workload\": \"{workload}\", \"commit\": \"{}\", \"seed\": {seed}, \"seconds\": {seconds:?}, \
         \"trace\": {traced}, \"nproc\": {nproc}, \"cpu_features\": \"{}\", \"simd_level\": \"{}\", \
         \"threads\": {}, \"wall_s\": {wall_s:?}}}",
        commit(),
        dtsnn_tensor::simd::cpu_features(),
        dtsnn_tensor::simd::level().name(),
        dtsnn_tensor::parallel::num_threads(),
    )
}

/// Human-readable pass diagnostics of an untraced run.
pub fn timing_lines(t: &Timing) -> String {
    format!(
        "passes: {} x {} requests (one sweep at per-unit cost: {:.4} s)\n\
         pass_spread: {:.4} (whole-pass throughput: best {:.3}, median {:.3})\n\
         latency_p99_ms (ungated): {:.4}\n\
         pass_seconds: {:.4?}",
        t.passes,
        t.requests_per_pass,
        t.sweep_seconds,
        t.pass_throughput.spread,
        t.pass_throughput.best,
        t.pass_throughput.median,
        t.p99_ms,
        t.pass_seconds,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtsnn_bench::json::{self, Value};

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn text<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("missing {key}"))
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_binary_prints() {
        let doc = benchmark_json();
        let e2e = doc.get("end_to_end").and_then(Value::as_array).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, spec) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(entry, "name"), spec.name);
            assert_eq!(text(entry, "unit"), spec.unit);
            let better = if spec.better == Better::Higher { "higher" } else { "lower" };
            assert_eq!(text(entry, "better"), better);
            assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(spec.bound));
        }
        let layers = doc.get("per_layer").and_then(Value::as_array).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, &(name, unit)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(text(entry, "name"), name);
            assert_eq!(text(entry, "unit"), unit);
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_all_digits() {
        let line = result_line(
            true,
            1000,
            2,
            &[("latency_ms", "ms", 1.2034567890123), ("n", "count", 4.0)],
        );
        let doc = json::from_str(&line).unwrap();
        let keys: Vec<&String> = doc.as_object().unwrap().iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("attempted").and_then(Value::as_f64), Some(1000.0));
        let m = doc.get("metrics").unwrap();
        assert_eq!(
            m.get("latency_ms").unwrap().get("value").and_then(Value::as_f64),
            Some(1.2034567890123)
        );
        assert_eq!(text(m.get("n").unwrap(), "unit"), "count");
        assert!(line.contains("\"value\": 4.0"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn layer_metrics_start_at_zero_and_reject_unknown_names() {
        let mut m = LayerMetrics::default();
        assert_eq!(m.rows().len(), PER_LAYER.len());
        assert!(m.rows().iter().all(|&(_, _, v)| v == 0.0));
        m.set("trace.overhead_ratio", 0.25);
        assert_eq!(m.get("trace.overhead_ratio"), 0.25);
        assert!(std::panic::catch_unwind(move || m.set("nope", 1.0)).is_err());
    }

    #[test]
    fn peak_rss_reads_a_positive_number() {
        assert!(peak_rss_mb().unwrap() > 1.0);
    }
}
