//! Open-loop load generation and latency reporting.
//!
//! Arrivals are generated ahead of time from a seeded [`TensorRng`], so a
//! load experiment is a pure function of `(process, n, seed)` — the same
//! trace replays bitwise through the simulated-clock server.

use crate::engine::{CompletionStatus, RequestOutcome};
use crate::{Result, ServeError};
use dtsnn_tensor::TensorRng;

/// Nanoseconds per second, for rate conversions.
const NANOS_PER_SEC: f64 = 1e9;

/// An open-loop arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: exponential inter-arrival gaps at `rate_per_sec`.
    Poisson {
        /// Mean arrival rate in requests per second.
        rate_per_sec: f64,
    },
    /// On/off bursts: during an *on* phase requests arrive as a Poisson
    /// stream at `rate_per_sec`; *off* phases are silent. Phase lengths are
    /// exponential with the given means, so the long-run offered rate is
    /// `rate_per_sec · on / (on + off)` while the instantaneous rate
    /// alternates between `rate_per_sec` and zero — the bursty pattern that
    /// stresses admission control and the θ controller.
    Bursty {
        /// Arrival rate during *on* phases, in requests per second.
        rate_per_sec: f64,
        /// Mean *on*-phase length in nanoseconds.
        mean_on_nanos: u64,
        /// Mean *off*-phase length in nanoseconds.
        mean_off_nanos: u64,
    },
}

/// Draws an exponential sample with the given mean via inversion.
pub(crate) fn exponential(rng: &mut TensorRng, mean: f64) -> f64 {
    // uniform() is in [0, 1); flip to (0, 1] so ln never sees zero
    let u = 1.0 - f64::from(rng.uniform(0.0, 1.0));
    -u.ln() * mean
}

/// Generates `n` arrival times (nanoseconds, sorted, starting after 0) for
/// the process, deterministically in `(process, n, rng state)`.
///
/// # Errors
///
/// Returns [`ServeError::InvalidConfig`] for non-positive or non-finite
/// rates, or zero-length burst phases.
pub fn generate_arrivals(
    process: ArrivalProcess,
    n: usize,
    rng: &mut TensorRng,
) -> Result<Vec<u64>> {
    let rate = match process {
        ArrivalProcess::Poisson { rate_per_sec } | ArrivalProcess::Bursty { rate_per_sec, .. } => {
            rate_per_sec
        }
    };
    if !(rate > 0.0 && rate.is_finite()) {
        return Err(ServeError::InvalidConfig(format!(
            "arrival rate must be positive and finite, got {rate}"
        )));
    }
    let mean_gap = NANOS_PER_SEC / rate;
    let mut arrivals = Vec::with_capacity(n);
    match process {
        ArrivalProcess::Poisson { .. } => {
            let mut t = 0.0f64;
            for _ in 0..n {
                t += exponential(rng, mean_gap);
                arrivals.push(t as u64);
            }
        }
        ArrivalProcess::Bursty { mean_on_nanos, mean_off_nanos, .. } => {
            if mean_on_nanos == 0 || mean_off_nanos == 0 {
                return Err(ServeError::InvalidConfig(
                    "burst phase means must be nonzero".into(),
                ));
            }
            let mut t = 0.0f64;
            // start inside an *on* phase; its end is exponential
            let mut phase_end = exponential(rng, mean_on_nanos as f64);
            while arrivals.len() < n {
                let gap = exponential(rng, mean_gap);
                t += gap;
                // an arrival falling past the phase boundary is pushed
                // through the silent off phase into the next on phase
                while t >= phase_end {
                    t += exponential(rng, mean_off_nanos as f64);
                    phase_end = t + exponential(rng, mean_on_nanos as f64);
                }
                arrivals.push(t as u64);
            }
        }
    }
    Ok(arrivals)
}

/// Aggregate latency/goodput report over one load run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Requests offered (completed + timed out + rejected).
    pub offered: usize,
    /// Requests that completed within deadline.
    pub completed: usize,
    /// Requests that terminated past their deadline.
    pub timed_out: usize,
    /// Requests refused by admission control.
    pub rejected: usize,
    /// Requests that exhausted their cluster retry budget (always 0 for a
    /// single server).
    pub failed: usize,
    /// Median completion latency in nanoseconds (nearest-rank, completed
    /// requests only); 0 when nothing completed.
    pub p50_latency_nanos: u64,
    /// 99th-percentile completion latency in nanoseconds (nearest-rank).
    pub p99_latency_nanos: u64,
    /// Deadline-censored median latency: completed requests at their true
    /// latency *and* timed-out requests counted at their deadline budget —
    /// the survivor-bias fix. A request that blew its deadline spent at
    /// least its whole budget waiting, so the censored tail can only be
    /// equal to or worse than the completed-only tail. Failed and rejected
    /// requests carry no meaningful latency and stay excluded.
    pub censored_p50_latency_nanos: u64,
    /// Deadline-censored 99th-percentile latency (see
    /// [`LoadReport::censored_p50_latency_nanos`]).
    pub censored_p99_latency_nanos: u64,
    /// Completed requests per second of elapsed clock time.
    pub goodput_per_sec: f64,
    /// `(timed_out + rejected + failed) / offered`.
    pub failure_rate: f64,
    /// Mean timesteps used by completed requests (the early-exit saving).
    pub avg_timesteps: f64,
    /// Clock span the run covered.
    pub elapsed_nanos: u64,
}

/// Nearest-rank percentile over a sorted slice; `q` in `(0, 100]`.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Summarizes a run's outcomes into a [`LoadReport`].
pub fn summarize(outcomes: &[RequestOutcome], elapsed_nanos: u64) -> LoadReport {
    let mut latencies: Vec<u64> = Vec::new();
    let mut censored: Vec<u64> = Vec::new();
    let mut completed = 0usize;
    let mut timed_out = 0usize;
    let mut rejected = 0usize;
    let mut failed = 0usize;
    let mut timestep_sum = 0usize;
    for o in outcomes {
        match o.status {
            CompletionStatus::Completed => {
                completed += 1;
                latencies.push(o.latency_nanos());
                censored.push(o.latency_nanos());
                timestep_sum += o.timesteps_used;
            }
            CompletionStatus::TimedOut => {
                timed_out += 1;
                // censor at the deadline: the request observably waited its
                // whole budget. Outcomes without a recorded deadline (a
                // server predating the field) fall back to true latency.
                censored.push(
                    o.deadline_nanos
                        .map_or(o.latency_nanos(), |d| d.saturating_sub(o.arrival_nanos)),
                );
            }
            CompletionStatus::Rejected => rejected += 1,
            CompletionStatus::Failed => failed += 1,
        }
    }
    latencies.sort_unstable();
    censored.sort_unstable();
    let offered = outcomes.len();
    let elapsed_secs = elapsed_nanos as f64 / NANOS_PER_SEC;
    LoadReport {
        offered,
        completed,
        timed_out,
        rejected,
        failed,
        p50_latency_nanos: percentile(&latencies, 50.0),
        p99_latency_nanos: percentile(&latencies, 99.0),
        censored_p50_latency_nanos: percentile(&censored, 50.0),
        censored_p99_latency_nanos: percentile(&censored, 99.0),
        goodput_per_sec: if elapsed_secs > 0.0 { completed as f64 / elapsed_secs } else { 0.0 },
        failure_rate: if offered > 0 {
            (timed_out + rejected + failed) as f64 / offered as f64
        } else {
            0.0
        },
        avg_timesteps: if completed > 0 { timestep_sum as f64 / completed as f64 } else { 0.0 },
        elapsed_nanos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(id: u64, status: CompletionStatus, latency: u64, t: usize) -> RequestOutcome {
        RequestOutcome {
            id,
            status,
            prediction: Some(0),
            timesteps_used: t,
            exited_early: t < 4,
            scores: Vec::new(),
            accumulated_logits: Vec::new(),
            arrival_nanos: 100,
            finish_nanos: 100 + latency,
            deadline_nanos: None,
        }
    }

    #[test]
    fn poisson_arrivals_are_sorted_deterministic_and_near_rate() {
        let mut rng = TensorRng::seed_from(0xA441);
        let a = generate_arrivals(ArrivalProcess::Poisson { rate_per_sec: 1000.0 }, 500, &mut rng)
            .unwrap();
        assert_eq!(a.len(), 500);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals must be sorted");
        let mut rng2 = TensorRng::seed_from(0xA441);
        let b = generate_arrivals(ArrivalProcess::Poisson { rate_per_sec: 1000.0 }, 500, &mut rng2)
            .unwrap();
        assert_eq!(a, b, "same seed, same trace");
        // 500 arrivals at 1000/s should span roughly 0.5 s of virtual time
        let span_secs = *a.last().unwrap() as f64 / 1e9;
        assert!(
            (0.3..0.8).contains(&span_secs),
            "500 arrivals at 1 kHz spanned {span_secs} s"
        );
    }

    #[test]
    fn bursty_arrivals_cluster_relative_to_poisson() {
        let mut rng = TensorRng::seed_from(7);
        let bursty = generate_arrivals(
            ArrivalProcess::Bursty {
                rate_per_sec: 1000.0,
                mean_on_nanos: 5_000_000,
                mean_off_nanos: 45_000_000,
            },
            300,
            &mut rng,
        )
        .unwrap();
        assert!(bursty.windows(2).all(|w| w[0] <= w[1]));
        // the off phases stretch the trace: long-run rate is ~1000·5/50 =
        // 100/s, so 300 arrivals span far longer than 0.3 s
        let span_secs = *bursty.last().unwrap() as f64 / 1e9;
        assert!(span_secs > 1.0, "off phases must stretch the trace, got {span_secs} s");
    }

    #[test]
    fn rejects_bad_rates() {
        let mut rng = TensorRng::seed_from(1);
        assert!(generate_arrivals(ArrivalProcess::Poisson { rate_per_sec: 0.0 }, 1, &mut rng)
            .is_err());
        assert!(generate_arrivals(
            ArrivalProcess::Poisson { rate_per_sec: f64::INFINITY },
            1,
            &mut rng
        )
        .is_err());
        assert!(generate_arrivals(
            ArrivalProcess::Bursty { rate_per_sec: 10.0, mean_on_nanos: 0, mean_off_nanos: 1 },
            1,
            &mut rng
        )
        .is_err());
    }

    #[test]
    fn summarize_counts_and_percentiles() {
        let outcomes = vec![
            outcome(0, CompletionStatus::Completed, 10, 1),
            outcome(1, CompletionStatus::Completed, 20, 2),
            outcome(2, CompletionStatus::Completed, 30, 3),
            outcome(3, CompletionStatus::TimedOut, 99, 4),
            outcome(4, CompletionStatus::Rejected, 0, 0),
        ];
        let r = summarize(&outcomes, 1_000_000_000);
        assert_eq!(
            (r.offered, r.completed, r.timed_out, r.rejected),
            (5, 3, 1, 1)
        );
        assert_eq!(r.p50_latency_nanos, 20);
        assert_eq!(r.p99_latency_nanos, 30);
        assert!((r.goodput_per_sec - 3.0).abs() < 1e-9);
        assert!((r.failure_rate - 0.4).abs() < 1e-9);
        assert!((r.avg_timesteps - 2.0).abs() < 1e-9);
    }

    #[test]
    fn summarize_censors_timed_out_latency_at_the_deadline() {
        // the PR 7 survivor bias: completed-only p99 ignores the requests
        // that blew their budget entirely. Three completions at 10/20/30 ns
        // plus one timeout with a 50 ns budget must leave the completed-only
        // percentiles untouched while the censored tail picks up the 50.
        let mut outcomes = vec![
            outcome(0, CompletionStatus::Completed, 10, 1),
            outcome(1, CompletionStatus::Completed, 20, 2),
            outcome(2, CompletionStatus::Completed, 30, 3),
        ];
        let mut late = outcome(3, CompletionStatus::TimedOut, 75, 4);
        late.deadline_nanos = Some(late.arrival_nanos + 50);
        outcomes.push(late);
        // a cluster-level retry-budget failure counts against the failure
        // rate but contributes no latency sample to either family
        outcomes.push(outcome(4, CompletionStatus::Failed, 0, 0));
        let r = summarize(&outcomes, 1_000_000_000);
        assert_eq!((r.offered, r.completed, r.timed_out, r.failed), (5, 3, 1, 1));
        assert_eq!((r.p50_latency_nanos, r.p99_latency_nanos), (20, 30));
        assert_eq!(
            (r.censored_p50_latency_nanos, r.censored_p99_latency_nanos),
            (20, 50),
            "the timed-out request must appear at its 50 ns deadline budget"
        );
        assert!((r.failure_rate - 0.4).abs() < 1e-9);
    }

    #[test]
    fn censored_stats_fall_back_to_latency_without_a_deadline() {
        // outcomes predating the deadline field (deadline_nanos: None) use
        // their observed latency rather than being dropped
        let outcomes = vec![
            outcome(0, CompletionStatus::Completed, 10, 1),
            outcome(1, CompletionStatus::TimedOut, 40, 2),
        ];
        let r = summarize(&outcomes, 1_000);
        assert_eq!(r.censored_p99_latency_nanos, 40);
        assert_eq!(r.p99_latency_nanos, 10);
    }

    #[test]
    fn summarize_handles_empty_runs() {
        let r = summarize(&[], 0);
        assert_eq!(r.offered, 0);
        assert_eq!(r.p50_latency_nanos, 0);
        assert_eq!(r.goodput_per_sec, 0.0);
        assert_eq!(r.failure_rate, 0.0);
    }
}
