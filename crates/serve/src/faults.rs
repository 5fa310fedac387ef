//! The deterministic fault-injection plane: seeded schedules of worker
//! crashes, stalls, slowdowns and transient step errors, driven through the
//! cluster's virtual-time pump so every chaos run is bitwise reproducible.
//!
//! A [`FaultSchedule`] is data, not behavior: a sorted list of
//! `(time, worker, kind)` events the cluster applies when its virtual time
//! reaches them. Schedules come from [`FaultSchedule::generate`] (seeded
//! Poisson arrivals per fault kind per worker, scalable by intensity via
//! [`FaultSpec::scaled`]) or are hand-built with
//! [`FaultSchedule::from_events`] for targeted tests.

use crate::loadgen::exponential;
use crate::{Result, ServeError};
use dtsnn_tensor::TensorRng;

/// One kind of injected worker fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The worker process dies: its in-flight and queued rows are lost and
    /// must be re-dispatched. The supervisor respawns a fresh worker (empty
    /// state, same network) after `restart_after_nanos`.
    Crash {
        /// Delay before the respawned worker accepts work again.
        restart_after_nanos: u64,
    },
    /// The worker hangs — it makes no progress for the duration, then
    /// resumes exactly where it was. Detected by the supervisor's stall
    /// check; in-flight rows are hedged, not lost.
    Stall {
        /// How long the worker is frozen.
        duration_nanos: u64,
    },
    /// The worker's service cost is multiplied by `factor` for the
    /// duration (a degraded device, thermal throttling).
    Slowdown {
        /// Multiplier on [`crate::ServiceModel::step_cost`]; must be ≥ 1.
        factor: f64,
        /// How long the slowdown lasts.
        duration_nanos: u64,
    },
    /// The next `count` steps on the worker fail with
    /// [`ServeError::Fault`] without touching row state (a transient
    /// device error); the cluster retries after backoff.
    TransientErrors {
        /// Number of consecutive failing steps.
        count: u32,
    },
}

impl FaultKind {
    /// Deterministic ordering rank for same-time, same-worker events.
    fn rank(&self) -> u8 {
        match self {
            FaultKind::Crash { .. } => 0,
            FaultKind::Stall { .. } => 1,
            FaultKind::Slowdown { .. } => 2,
            FaultKind::TransientErrors { .. } => 3,
        }
    }

    fn validate(&self) -> Result<()> {
        match *self {
            FaultKind::Stall { duration_nanos: 0 } => {
                Err(ServeError::InvalidConfig("stall duration must be nonzero".into()))
            }
            FaultKind::Slowdown { factor, duration_nanos } => {
                if !(factor.is_finite() && factor >= 1.0) {
                    return Err(ServeError::InvalidConfig(format!(
                        "slowdown factor must be finite and >= 1, got {factor}"
                    )));
                }
                if duration_nanos == 0 {
                    return Err(ServeError::InvalidConfig(
                        "slowdown duration must be nonzero".into(),
                    ));
                }
                Ok(())
            }
            FaultKind::TransientErrors { count: 0 } => {
                Err(ServeError::InvalidConfig("transient error count must be nonzero".into()))
            }
            _ => Ok(()),
        }
    }
}

/// One scheduled fault: a kind striking a worker at a virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Virtual time (cluster nanoseconds) the fault strikes.
    pub at_nanos: u64,
    /// Index of the worker it strikes.
    pub worker: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic schedule of fault events, sorted by
/// `(time, worker, kind)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

/// Mean fault rates for [`FaultSchedule::generate`], each in events per
/// simulated second *per worker* (0 disables that kind).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Crash rate per worker-second.
    pub crash_per_sec: f64,
    /// Crash restart delay in nanoseconds.
    pub restart_after_nanos: u64,
    /// Stall rate per worker-second.
    pub stall_per_sec: f64,
    /// Mean stall duration in nanoseconds (drawn exponentially, floored
    /// at 1).
    pub mean_stall_nanos: u64,
    /// Slowdown rate per worker-second.
    pub slowdown_per_sec: f64,
    /// Slowdown multiplier (≥ 1).
    pub slowdown_factor: f64,
    /// Mean slowdown duration in nanoseconds.
    pub mean_slowdown_nanos: u64,
    /// Transient-error burst rate per worker-second.
    pub transient_per_sec: f64,
    /// Failing steps per transient burst.
    pub transient_count: u32,
}

impl FaultSpec {
    /// A spec with every rate zeroed (generates the empty schedule).
    pub fn none() -> Self {
        FaultSpec {
            crash_per_sec: 0.0,
            restart_after_nanos: 0,
            stall_per_sec: 0.0,
            mean_stall_nanos: 0,
            slowdown_per_sec: 0.0,
            slowdown_factor: 1.0,
            mean_slowdown_nanos: 0,
            transient_per_sec: 0.0,
            transient_count: 0,
        }
    }

    /// Scales every rate by `intensity` (durations, delays and counts are
    /// unchanged) — the chaos bench's fault-intensity axis. Zero yields
    /// the empty schedule.
    #[must_use]
    pub fn scaled(&self, intensity: f64) -> Self {
        FaultSpec {
            crash_per_sec: self.crash_per_sec * intensity,
            stall_per_sec: self.stall_per_sec * intensity,
            slowdown_per_sec: self.slowdown_per_sec * intensity,
            transient_per_sec: self.transient_per_sec * intensity,
            ..*self
        }
    }
}

impl FaultSchedule {
    /// The empty schedule (a healthy cluster).
    pub fn none() -> Self {
        FaultSchedule::default()
    }

    /// Builds a schedule from explicit events; they are sorted into the
    /// canonical `(time, worker, kind)` order.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for zero durations/counts or a
    /// non-finite / sub-1 slowdown factor.
    pub fn from_events(mut events: Vec<FaultEvent>) -> Result<Self> {
        for e in &events {
            e.kind.validate()?;
        }
        events.sort_by_key(|e| (e.at_nanos, e.worker, e.kind.rank()));
        Ok(FaultSchedule { events })
    }

    /// Generates a seeded schedule: per worker and per fault kind, events
    /// arrive as a Poisson process at the spec's rate over `[0, horizon)`.
    /// Deterministic in `(spec, workers, horizon, rng state)`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for negative or non-finite
    /// rates, or spec fields that produce invalid events (zero mean
    /// durations at a nonzero rate, factor < 1).
    pub fn generate(
        spec: &FaultSpec,
        workers: usize,
        horizon_nanos: u64,
        rng: &mut TensorRng,
    ) -> Result<Self> {
        for (name, rate) in [
            ("crash", spec.crash_per_sec),
            ("stall", spec.stall_per_sec),
            ("slowdown", spec.slowdown_per_sec),
            ("transient", spec.transient_per_sec),
        ] {
            if !(rate >= 0.0 && rate.is_finite()) {
                return Err(ServeError::InvalidConfig(format!(
                    "{name} rate must be non-negative and finite, got {rate}"
                )));
            }
        }
        let mut events = Vec::new();
        let horizon = horizon_nanos as f64;
        for worker in 0..workers {
            // one independent arrival stream per (worker, kind); draw order
            // is fixed so the schedule is a pure function of the rng state
            let arrivals = |rate: f64, events: &mut Vec<FaultEvent>,
                                mk: &mut dyn FnMut(&mut TensorRng) -> FaultKind,
                                rng: &mut TensorRng| {
                if rate <= 0.0 {
                    return;
                }
                let mean_gap = 1e9 / rate;
                let mut t = exponential(rng, mean_gap);
                while t < horizon {
                    events.push(FaultEvent { at_nanos: t as u64, worker, kind: mk(rng) });
                    t += exponential(rng, mean_gap);
                }
            };
            arrivals(
                spec.crash_per_sec,
                &mut events,
                &mut |_| FaultKind::Crash { restart_after_nanos: spec.restart_after_nanos },
                rng,
            );
            let mean_stall = spec.mean_stall_nanos as f64;
            arrivals(
                spec.stall_per_sec,
                &mut events,
                &mut |rng| FaultKind::Stall {
                    duration_nanos: (exponential(rng, mean_stall) as u64).max(1),
                },
                rng,
            );
            let mean_slow = spec.mean_slowdown_nanos as f64;
            arrivals(
                spec.slowdown_per_sec,
                &mut events,
                &mut |rng| FaultKind::Slowdown {
                    factor: spec.slowdown_factor,
                    duration_nanos: (exponential(rng, mean_slow) as u64).max(1),
                },
                rng,
            );
            arrivals(
                spec.transient_per_sec,
                &mut events,
                &mut |_| FaultKind::TransientErrors { count: spec.transient_count.max(1) },
                rng,
            );
        }
        FaultSchedule::from_events(events)
    }

    /// The events in canonical order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> FaultSpec {
        FaultSpec {
            crash_per_sec: 20.0,
            restart_after_nanos: 3_000_000,
            stall_per_sec: 30.0,
            mean_stall_nanos: 2_000_000,
            slowdown_per_sec: 10.0,
            slowdown_factor: 4.0,
            mean_slowdown_nanos: 5_000_000,
            transient_per_sec: 40.0,
            transient_count: 2,
        }
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let a =
            FaultSchedule::generate(&spec(), 4, 1_000_000_000, &mut TensorRng::seed_from(0xFA))
                .unwrap();
        let b =
            FaultSchedule::generate(&spec(), 4, 1_000_000_000, &mut TensorRng::seed_from(0xFA))
                .unwrap();
        assert_eq!(a, b, "same seed must yield the same schedule");
        assert!(!a.is_empty(), "~100 events/worker-second over 1 s must produce events");
        let c =
            FaultSchedule::generate(&spec(), 4, 1_000_000_000, &mut TensorRng::seed_from(0xFB))
                .unwrap();
        assert_ne!(a, c, "a different seed must move the schedule");
    }

    #[test]
    fn events_are_sorted_and_within_horizon() {
        let s =
            FaultSchedule::generate(&spec(), 3, 500_000_000, &mut TensorRng::seed_from(7))
                .unwrap();
        assert!(s.events().windows(2).all(|w| {
            (w[0].at_nanos, w[0].worker, w[0].kind.rank())
                <= (w[1].at_nanos, w[1].worker, w[1].kind.rank())
        }));
        assert!(s.events().iter().all(|e| e.at_nanos < 500_000_000 && e.worker < 3));
    }

    #[test]
    fn intensity_scales_event_counts() {
        let mut rng = TensorRng::seed_from(21);
        let base = FaultSchedule::generate(&spec(), 4, 1_000_000_000, &mut rng).unwrap();
        let mut rng = TensorRng::seed_from(21);
        let double =
            FaultSchedule::generate(&spec().scaled(2.0), 4, 1_000_000_000, &mut rng).unwrap();
        let ratio = double.len() as f64 / base.len() as f64;
        assert!(
            (1.5..2.5).contains(&ratio),
            "doubling intensity should ~double events: {} -> {}",
            base.len(),
            double.len()
        );
        let none =
            FaultSchedule::generate(&spec().scaled(0.0), 4, 1_000_000_000, &mut rng).unwrap();
        assert!(none.is_empty(), "zero intensity must disable every fault");
    }

    #[test]
    fn invalid_events_are_refused() {
        let at = |kind| vec![FaultEvent { at_nanos: 0, worker: 0, kind }];
        assert!(FaultSchedule::from_events(at(FaultKind::Stall { duration_nanos: 0 })).is_err());
        assert!(FaultSchedule::from_events(at(FaultKind::Slowdown {
            factor: 0.5,
            duration_nanos: 10
        }))
        .is_err());
        assert!(FaultSchedule::from_events(at(FaultKind::Slowdown {
            factor: f64::NAN,
            duration_nanos: 10
        }))
        .is_err());
        assert!(FaultSchedule::from_events(at(FaultKind::TransientErrors { count: 0 })).is_err());
        assert!(FaultSchedule::from_events(at(FaultKind::Crash { restart_after_nanos: 0 }))
            .is_ok());
    }

    #[test]
    fn from_events_sorts_into_canonical_order() {
        let s = FaultSchedule::from_events(vec![
            FaultEvent { at_nanos: 50, worker: 1, kind: FaultKind::TransientErrors { count: 1 } },
            FaultEvent { at_nanos: 50, worker: 1, kind: FaultKind::Crash { restart_after_nanos: 9 } },
            FaultEvent { at_nanos: 10, worker: 2, kind: FaultKind::Stall { duration_nanos: 5 } },
        ])
        .unwrap();
        assert_eq!(s.events()[0].at_nanos, 10);
        assert_eq!(s.events()[1].kind.rank(), 0, "crash sorts before transient at equal time");
    }
}
