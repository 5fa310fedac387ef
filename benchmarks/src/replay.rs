//! Open-loop serving in *virtual time*.
//!
//! The server runs on a `SimClock` whose service model costs nothing; the
//! harness times each `Server::step()` on the host and advances the shared
//! clock by exactly that duration, submits every request whose due time has
//! passed, and jumps the clock to the next arrival when the server is idle.
//! Latency runs from the request's *due* time, so a stall is charged to
//! every request that had to wait behind it. This has the semantics of an
//! open loop on a real clock with a load generator that is never late and
//! never sleeps — which removes sleep jitter from the measurement.

use crate::Result;
use dtsnn_serve::{Clock, Request, RequestOutcome, Server, SimClock};
use std::collections::HashMap;
use std::time::Instant;

/// A request and the clock time it is due to be sent at.
#[derive(Debug, Clone)]
pub struct Due {
    /// Absolute due time on the server clock, nanoseconds.
    pub at: u64,
    /// The request.
    pub request: Request,
}

/// A terminated request with harness-side stamps.
#[derive(Debug, Clone, PartialEq)]
pub struct Finished {
    /// When the request was due.
    pub due: u64,
    /// Clock reading after the step that terminated it.
    pub finish: u64,
    /// What the server reported.
    pub outcome: RequestOutcome,
}

impl Finished {
    /// Due-time-to-finish latency, nanoseconds.
    pub fn latency(&self) -> u64 {
        self.finish - self.due
    }
}

/// One timed engine step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Clock reading when the step started.
    pub start: u64,
    /// Host duration of the step = virtual time it consumed.
    pub nanos: u64,
}

/// Everything one replay observed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReplayLog {
    /// Terminated requests, in termination order.
    pub finished: Vec<Finished>,
    /// Steps that did work, in order.
    pub steps: Vec<Step>,
    /// Host nanoseconds spent inside `Server::submit`.
    pub submit_nanos: u64,
    /// Clock reading when the replay started.
    pub start: u64,
    /// Clock reading when the last request terminated.
    pub end: u64,
}

impl ReplayLog {
    /// Virtual time the replay spanned, nanoseconds.
    pub fn elapsed(&self) -> u64 {
        self.end - self.start
    }

    /// Virtual time spent inside steps, nanoseconds.
    pub fn busy(&self) -> u64 {
        self.steps.iter().map(|s| s.nanos).sum()
    }
}

/// How a step is timed: the host clock in measurements, a fixed cost in the
/// harness's own tests.
pub trait StepTimer {
    /// Runs `step` and returns how many nanoseconds it took.
    fn time(&mut self, step: &mut dyn FnMut()) -> u64;
}

/// Times steps on the host's monotonic clock.
#[derive(Debug, Default)]
pub struct HostTimer;

impl StepTimer for HostTimer {
    fn time(&mut self, step: &mut dyn FnMut()) -> u64 {
        let t0 = Instant::now();
        step();
        t0.elapsed().as_nanos() as u64
    }
}

/// Replays `trace` (sorted by due time, ids unique) through `server`, whose
/// clock must be a clone of `clock`.
pub fn replay(
    server: &mut Server<SimClock>,
    clock: &SimClock,
    trace: Vec<Due>,
    timer: &mut dyn StepTimer,
) -> Result<ReplayLog> {
    if trace.windows(2).any(|w| w[0].at > w[1].at) {
        return crate::fail("trace must be sorted by due time");
    }
    let mut log = ReplayLog { start: clock.now(), end: clock.now(), ..ReplayLog::default() };
    let mut due_of: HashMap<u64, u64> = HashMap::with_capacity(trace.len());
    let mut queue = trace.into_iter().peekable();
    loop {
        while let Some(d) = queue.next_if(|d| d.at <= clock.now()) {
            due_of.insert(d.request.id, d.at);
            let t0 = Instant::now();
            server.submit(d.request)?;
            log.submit_nanos += t0.elapsed().as_nanos() as u64;
        }
        let start = clock.now();
        let mut stepped = Ok(false);
        let nanos = timer.time(&mut || stepped = server.step());
        let worked = stepped?;
        if worked {
            clock.advance(nanos);
            log.steps.push(Step { start, nanos });
        }
        // an idle step can still expire queued requests, so always collect
        let now = clock.now();
        for outcome in server.take_outcomes() {
            let due = due_of.remove(&outcome.id).ok_or_else(|| {
                format!("request {} terminated twice or was never sent", outcome.id)
            })?;
            log.finished.push(Finished { due, finish: now, outcome });
            log.end = now;
        }
        if !worked {
            match queue.peek() {
                Some(next) => clock.wait_until(next.at),
                None => break,
            }
        }
    }
    if !due_of.is_empty() {
        return crate::fail(format!("{} requests never terminated", due_of.len()));
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtsnn_serve::{CompletionStatus, ServerConfig, ServiceModel, ThetaController};
    use dtsnn_snn::{Flatten, Layer, LifConfig, LifNeuron, Linear, Snn};
    use dtsnn_tensor::{Tensor, TensorRng};

    /// Every step costs the same virtual time.
    struct Fixed(u64);

    impl StepTimer for Fixed {
        fn time(&mut self, step: &mut dyn FnMut()) -> u64 {
            step();
            self.0
        }
    }

    const STEP: u64 = 1_000;

    fn server(slots: usize, theta: f32, clock: &SimClock) -> Server<SimClock> {
        let mut rng = TensorRng::seed_from(1);
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Flatten::new()),
            Box::new(Linear::new(4, 8, &mut rng)),
            Box::new(LifNeuron::new(LifConfig::default())),
            Box::new(Linear::new(8, 3, &mut rng)),
        ];
        let config = ServerConfig {
            max_timesteps: 4,
            slots,
            queue_capacity: 1 << 16,
            theta: ThetaController::fixed(theta).unwrap(),
            service: ServiceModel { step_fixed_nanos: 0, step_per_row_nanos: 0 },
            default_deadline_nanos: None,
            record_schedule: false,
        };
        Server::new(Snn::from_layers(layers), config, clock.clone()).unwrap()
    }

    fn trace(dues: &[u64]) -> Vec<Due> {
        let mut rng = TensorRng::seed_from(2);
        dues.iter()
            .enumerate()
            .map(|(i, &at)| Due {
                at,
                request: Request {
                    id: i as u64,
                    frames: vec![Tensor::randn(&[1, 2, 2], 0.5, 0.5, &mut rng)],
                    deadline_nanos: None,
                    priority: 0,
                },
            })
            .collect()
    }

    #[test]
    fn every_request_terminates_exactly_once() {
        let clock = SimClock::new();
        let mut s = server(2, 0.5, &clock);
        let dues: Vec<u64> = (0..40).map(|i| i * 700).collect();
        let log = replay(&mut s, &clock, trace(&dues), &mut Fixed(STEP)).unwrap();
        let mut ids: Vec<u64> = log.finished.iter().map(|f| f.outcome.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..40).collect::<Vec<u64>>());
        assert!(log.finished.iter().all(|f| f.outcome.status == CompletionStatus::Completed));
    }

    #[test]
    fn latency_covers_at_least_the_steps_the_request_rode() {
        let clock = SimClock::new();
        // θ → 0 never exits early: every request rides exactly 4 steps
        let mut s = server(1, 1e-6, &clock);
        let log = replay(&mut s, &clock, trace(&[0, 0, 0]), &mut Fixed(STEP)).unwrap();
        for f in &log.finished {
            assert_eq!(f.outcome.timesteps_used, 4);
            assert!(f.latency() >= 4 * STEP);
        }
        // one slot: the three requests are served back to back, and the
        // wait behind earlier ones is charged from the shared due time
        let mut lat: Vec<u64> = log.finished.iter().map(Finished::latency).collect();
        lat.sort_unstable();
        assert_eq!(lat, vec![4 * STEP, 8 * STEP, 12 * STEP]);
        assert_eq!(log.busy(), 12 * STEP);
        assert_eq!(log.elapsed(), 12 * STEP);
    }

    #[test]
    fn latency_is_stamped_from_the_due_time_not_the_submit_time() {
        let clock = SimClock::new();
        let mut s = server(1, 1e-6, &clock);
        // request 1 is due mid-step (t = 500) but can only be submitted
        // once the running step returns (t = 1000)
        let log = replay(&mut s, &clock, trace(&[0, 500]), &mut Fixed(STEP)).unwrap();
        let second = log.finished.iter().find(|f| f.outcome.id == 1).unwrap();
        assert_eq!(second.due, 500);
        assert!(second.outcome.arrival_nanos >= 1_000, "engine stamps the late submit");
        assert_eq!(second.finish, 8 * STEP);
        assert_eq!(second.latency(), 8 * STEP - 500);
    }

    #[test]
    fn idle_jumps_move_time_forward_only() {
        let clock = SimClock::new();
        let mut s = server(4, 1e-6, &clock);
        // long idle gaps, then a burst that is already overdue when reached
        let dues = [10_000, 50_000, 50_001, 50_002, 900_000];
        let log = replay(&mut s, &clock, trace(&dues), &mut Fixed(STEP)).unwrap();
        assert_eq!(log.start, 0);
        assert!(log.steps.windows(2).all(|w| w[1].start >= w[0].start + w[0].nanos));
        assert_eq!(log.steps[0].start, 10_000, "idle server jumps to the first arrival");
        assert!(log.finished.iter().all(|f| f.finish >= f.due));
        let last = log.finished.iter().find(|f| f.outcome.id == 4).unwrap();
        assert_eq!(last.finish, 900_000 + 4 * STEP);
        assert_eq!(log.end, clock.now());
    }

    #[test]
    fn unsorted_traces_are_refused() {
        let clock = SimClock::new();
        let mut s = server(1, 0.5, &clock);
        assert!(replay(&mut s, &clock, trace(&[5, 1]), &mut Fixed(STEP)).is_err());
    }
}
