//! The pass loop every workload shares, and the noise-robust reduction of
//! what the passes measured.
//!
//! A *pass* is one fixed sweep of the workload's inputs, so every pass times
//! the same units of work in the same order. Noise on a shared host only
//! ever adds time, so the cost of a unit is the *smallest* time any pass saw
//! for it; throughput and latency percentiles are then computed over those
//! per-unit costs. Taking the minimum per unit rather than per pass matters
//! for the wide-batch workload: its working set lives in the shared L3, a
//! whole undisturbed pass (1 s) is rare when a neighbour is busy, but an
//! undisturbed window (0.1 s) is not.

use crate::stats::{best_pass, percentile, sorted, BestPass, Better};
use crate::{fail, Result};
use std::time::Instant;

/// What one pass measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Pass {
    /// Units of work the sweep completes (inferences, simulator evaluations).
    pub work: f64,
    /// Host seconds of each timed unit the sweep consists of, in order;
    /// their sum is the time the sweep took.
    pub service_s: Vec<f64>,
    /// Latency of every request of the sweep, milliseconds, in a fixed
    /// request order (`INFINITY` for a request that failed).
    pub latencies_ms: Vec<f64>,
}

impl Pass {
    /// A closed-loop sweep: requests run back to back, so the timed units
    /// are the requests themselves.
    pub fn closed_loop(work: f64, latencies_ms: Vec<f64>) -> Pass {
        Pass { work, service_s: latencies_ms.iter().map(|ms| ms / 1e3).collect(), latencies_ms }
    }

    /// Time the sweep took, seconds.
    pub fn seconds(&self) -> f64 {
        self.service_s.iter().sum()
    }
}

/// Fewest passes a measurement may rest on, however short `--seconds` is.
pub const MIN_PASSES: usize = 2;

/// Runs `pass` until `seconds` have elapsed (at least [`MIN_PASSES`] times).
/// The pass count follows from the time box, so a slower program measures
/// fewer passes rather than running longer.
pub fn run_for(seconds: f64, mut pass: impl FnMut() -> Result<Pass>) -> Result<Vec<Pass>> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        passes.push(pass()?);
    }
    Ok(passes)
}

/// The reduction of a measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    /// Work per second over the per-unit costs.
    pub throughput: f64,
    /// p50 of the per-request latencies, ms.
    pub p50_ms: f64,
    /// p90 of the per-request latencies, ms.
    pub p90_ms: f64,
    /// p99 of the per-request latencies, ms (ungated: too few samples
    /// beyond it).
    pub p99_ms: f64,
    /// Time of one sweep at the per-unit costs, seconds.
    pub sweep_seconds: f64,
    /// Passes measured.
    pub passes: usize,
    /// Requests per pass.
    pub requests_per_pass: usize,
    /// Whole-pass throughput: best pass, median pass and the spread between
    /// them (ungated diagnostic of in-run noise).
    pub pass_throughput: BestPass,
    /// Time of every pass, seconds, in order (shows noise phases).
    pub pass_seconds: Vec<f64>,
}

/// Element-wise minimum over the passes of one per-unit series.
fn per_unit_min<'a>(series: impl Iterator<Item = &'a Vec<f64>>) -> Result<Vec<f64>> {
    let mut best: Option<Vec<f64>> = None;
    for s in series {
        match &mut best {
            None => best = Some(s.clone()),
            Some(b) if b.len() == s.len() => {
                for (b, &v) in b.iter_mut().zip(s) {
                    *b = b.min(v);
                }
            }
            Some(b) => {
                return fail(format!("passes differ in shape: {} units vs {}", b.len(), s.len()));
            }
        }
    }
    match best {
        Some(b) if !b.is_empty() => Ok(b),
        _ => fail("nothing was measured"),
    }
}

/// Reduces passes to per-unit costs and the statistics over them.
pub fn summarize(passes: &[Pass]) -> Result<Timing> {
    let costs = per_unit_min(passes.iter().map(|p| &p.service_s))?;
    let latencies = sorted(per_unit_min(passes.iter().map(|p| &p.latencies_ms))?);
    let sweep_seconds: f64 = costs.iter().sum();
    let pass_seconds: Vec<f64> = passes.iter().map(Pass::seconds).collect();
    let per_pass: Vec<f64> = passes.iter().map(|p| p.work / p.seconds()).collect();
    Ok(Timing {
        throughput: passes[0].work / sweep_seconds,
        p50_ms: percentile(&latencies, 50.0),
        p90_ms: percentile(&latencies, 90.0),
        p99_ms: percentile(&latencies, 99.0),
        sweep_seconds,
        passes: passes.len(),
        requests_per_pass: latencies.len(),
        pass_throughput: best_pass(&per_pass, Better::Higher),
        pass_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_box_still_runs_the_minimum_number_of_passes() {
        let mut calls = 0.0;
        let passes = run_for(0.0, || {
            calls += 1.0;
            Ok(Pass::closed_loop(calls, vec![1.0, 2.0]))
        })
        .unwrap();
        assert_eq!(passes.len(), MIN_PASSES);
        assert_eq!(passes[MIN_PASSES - 1].work, MIN_PASSES as f64);
    }

    #[test]
    fn each_unit_keeps_its_least_disturbed_time() {
        // request 1 was disturbed in pass 0, request 3 in pass 1: no single
        // pass was clean, but every request was measured cleanly once
        let passes = vec![
            Pass::closed_loop(4.0, vec![1.0, 9.0, 1.0, 5.0]),
            Pass::closed_loop(4.0, vec![1.0, 2.0, 1.0, 8.0]),
        ];
        let t = summarize(&passes).unwrap();
        assert!((t.sweep_seconds - 0.009).abs() < 1e-12);
        assert_eq!(t.throughput, 4.0 / t.sweep_seconds);
        assert_eq!((t.p50_ms, t.p90_ms, t.p99_ms), (1.0, 5.0, 5.0));
        assert_eq!((t.passes, t.requests_per_pass), (2, 4));
        // the whole-pass view is kept as a diagnostic: 16 ms and 12 ms
        assert!(
            (t.pass_seconds[0] - 0.016).abs() < 1e-12 && (t.pass_seconds[1] - 0.012).abs() < 1e-12
        );
        assert!((t.pass_throughput.best - 4.0 / 0.012).abs() < 1e-6);
        assert!(t.pass_throughput.best < t.throughput);
    }

    #[test]
    fn service_units_and_latencies_are_reduced_separately() {
        // an open-loop pass: capacity from two timed steps, latency from three requests
        let passes = vec![
            Pass {
                work: 6.0,
                service_s: vec![0.2, 0.1],
                latencies_ms: vec![3.0, f64::INFINITY, 7.0],
            },
            Pass { work: 6.0, service_s: vec![0.1, 0.3], latencies_ms: vec![4.0, 5.0, 6.0] },
        ];
        let t = summarize(&passes).unwrap();
        assert!((t.throughput - 6.0 / 0.2).abs() < 1e-9);
        // the request that failed once still has a measured latency
        assert_eq!((t.p50_ms, t.p90_ms), (5.0, 6.0));
    }

    #[test]
    fn passes_of_different_shape_are_refused() {
        let passes = vec![
            Pass::closed_loop(1.0, vec![1.0, 2.0]),
            Pass::closed_loop(1.0, vec![1.0, 2.0, 3.0]),
        ];
        assert!(summarize(&passes).is_err());
        assert!(summarize(&[]).is_err());
    }
}
