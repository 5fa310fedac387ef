//! Property suite for admission control and the dynamic-θ controller:
//! θ stays inside its configured band and responds monotonically to queue
//! pressure under adversarial seeded load, and no admitted request is ever
//! silently dropped — every submission terminates as completed, timed out
//! or rejected.

use dtsnn_serve::{
    replay_trace, Clock, ClusterConfig, CompletionStatus, Request, Server, ServerConfig,
    ServiceModel, SimClock, ThetaController, TracedRequest,
};
use dtsnn_snn::{Flatten, Layer, LifConfig, LifNeuron, Linear, Snn};
use dtsnn_tensor::{Tensor, TensorRng};
use std::collections::HashMap;

fn tiny_net(seed: u64) -> Snn {
    let mut rng = TensorRng::seed_from(seed);
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Flatten::new()),
        Box::new(Linear::new(4, 8, &mut rng)),
        Box::new(LifNeuron::new(LifConfig::default())),
        Box::new(Linear::new(8, 3, &mut rng)),
    ];
    Snn::from_layers(layers)
}

fn frame(rng: &mut TensorRng) -> Tensor {
    Tensor::randn(&[1, 2, 2], 0.5, 0.5, rng)
}

/// Adversarial seeded arrival pattern: bursts of random size at random
/// gaps, including back-to-back zero-gap clumps.
fn adversarial_trace(n: usize, seed: u64, deadline: Option<u64>) -> Vec<TracedRequest> {
    let mut rng = TensorRng::seed_from(seed);
    let mut at = 0u64;
    let mut trace = Vec::with_capacity(n);
    let mut id = 0u64;
    while trace.len() < n {
        let burst = 1 + rng.below(5);
        for _ in 0..burst.min(n - trace.len()) {
            trace.push(TracedRequest {
                at_nanos: at,
                request: Request { id, frames: vec![frame(&mut rng)], deadline_nanos: deadline, priority: 0 },
            });
            id += 1;
        }
        at += rng.below(20_000) as u64;
    }
    trace
}

#[test]
fn theta_stays_in_band_and_is_monotone_in_queue_depth() {
    let mut rng = TensorRng::seed_from(0xFEED);
    for _ in 0..200 {
        let lo = rng.uniform(0.05, 0.9);
        let hi = rng.uniform(lo, 1.0).min(1.0);
        let half = rng.uniform(0.5, 64.0);
        let c = ThetaController::new(lo, hi, half).unwrap();
        let mut prev = f32::NEG_INFINITY;
        for depth in [0usize, 1, 2, 3, 5, 8, 13, 21, 100, 10_000, usize::MAX / 2] {
            let theta = c.theta_for(depth);
            assert!(
                (c.theta_min()..=c.theta_max()).contains(&theta),
                "theta {theta} escaped [{}, {}] at depth {depth}",
                c.theta_min(),
                c.theta_max()
            );
            assert!(theta >= prev, "theta must be monotone in depth: {theta} < {prev}");
            prev = theta;
        }
    }
}

#[test]
fn the_server_reports_thetas_only_inside_the_configured_band() {
    let controller = ThetaController::new(0.6, 0.99, 2.0).unwrap();
    let config = ServerConfig {
        max_timesteps: 6,
        slots: 1, // tiny capacity → deep queues → the controller's top end
        queue_capacity: 32,
        theta: controller,
        service: ServiceModel { step_fixed_nanos: 1000, step_per_row_nanos: 100 },
        default_deadline_nanos: None,
        record_schedule: true,
    };
    let mut server = Server::new(tiny_net(5), config, SimClock::new()).unwrap();
    replay_trace(&mut server, &adversarial_trace(40, 0xBAD_5EED, None)).unwrap();
    let schedule = server.take_schedule();
    assert!(!schedule.is_empty());
    let (mut lo_seen, mut hi_seen) = (f32::INFINITY, f32::NEG_INFINITY);
    for s in &schedule {
        assert!(
            (0.6..=0.99).contains(&s.theta),
            "recorded theta {} escaped the band",
            s.theta
        );
        lo_seen = lo_seen.min(s.theta);
        hi_seen = hi_seen.max(s.theta);
    }
    // the adversarial burst pattern must actually sweep the controller:
    // idle steps at the floor, saturated steps well above it
    assert!(
        hi_seen - lo_seen > 0.05,
        "load must sweep theta through the band, saw [{lo_seen}, {hi_seen}]"
    );
}

#[test]
fn no_request_is_ever_silently_dropped() {
    // overload on purpose: 1 slot, tiny queue, tight deadlines
    let config = ServerConfig {
        max_timesteps: 6,
        slots: 1,
        queue_capacity: 4,
        theta: ThetaController::fixed(0.9).unwrap(),
        service: ServiceModel { step_fixed_nanos: 2000, step_per_row_nanos: 500 },
        default_deadline_nanos: Some(25_000),
        record_schedule: false,
    };
    let trace = adversarial_trace(60, 0xD00D, None);
    let mut server = Server::new(tiny_net(5), config, SimClock::new()).unwrap();
    replay_trace(&mut server, &trace).unwrap();
    let outcomes = server.take_outcomes();
    // every submitted id terminates exactly once
    assert_eq!(outcomes.len(), trace.len(), "every request needs exactly one outcome");
    let mut seen: HashMap<u64, usize> = HashMap::new();
    for o in &outcomes {
        *seen.entry(o.id).or_default() += 1;
    }
    for tr in &trace {
        assert_eq!(
            seen.get(&tr.request.id),
            Some(&1),
            "request {} must terminate exactly once",
            tr.request.id
        );
    }
    let stats = server.stats();
    assert_eq!(stats.submitted, trace.len() as u64);
    assert_eq!(
        stats.completed + stats.timed_out + stats.rejected,
        stats.submitted,
        "terminations must account for every submission: {stats:?}"
    );
    // the overload must actually trigger all three terminal states
    assert!(stats.rejected > 0, "queue of 4 under a 60-request burst must reject: {stats:?}");
    assert!(stats.timed_out > 0, "25 µs deadlines under overload must time out: {stats:?}");
    assert!(stats.completed > 0, "some requests must still complete: {stats:?}");
    // deadline accounting: completed requests finished within budget,
    // timed-out ones are past it (queued expiries report at expiry time)
    for o in &outcomes {
        match o.status {
            CompletionStatus::Completed => assert!(
                o.latency_nanos() <= 25_000,
                "request {} completed past its deadline ({} ns)",
                o.id,
                o.latency_nanos()
            ),
            CompletionStatus::TimedOut => assert!(
                o.latency_nanos() > 25_000,
                "request {} timed out within budget ({} ns)",
                o.id,
                o.latency_nanos()
            ),
            CompletionStatus::Rejected => {
                assert_eq!(o.timesteps_used, 0);
                assert_eq!(o.prediction, None);
            }
            CompletionStatus::Failed => {
                panic!("a single server never exhausts a retry budget: {o:?}")
            }
        }
    }
}

#[test]
fn queued_requests_past_their_deadline_expire_without_running() {
    let config = ServerConfig {
        max_timesteps: 6,
        slots: 1,
        queue_capacity: 8,
        // θ low enough that the entropy policy never fires: the first
        // request holds the single slot for the full window
        theta: ThetaController::fixed(0.05).unwrap(),
        service: ServiceModel { step_fixed_nanos: 10_000, step_per_row_nanos: 0 },
        default_deadline_nanos: None,
        record_schedule: false,
    };
    let mut rng = TensorRng::seed_from(11);
    let mut server = Server::new(tiny_net(5), config, SimClock::new()).unwrap();
    // first request occupies the single slot for up to 60 µs; the second's
    // 5 µs budget expires while it waits in the queue
    assert!(server
        .submit(Request { id: 0, frames: vec![frame(&mut rng)], deadline_nanos: None, priority: 0 })
        .unwrap());
    server.step().unwrap();
    assert!(server
        .submit(Request { id: 1, frames: vec![frame(&mut rng)], deadline_nanos: Some(5_000), priority: 0 })
        .unwrap());
    server.run_until_idle().unwrap();
    let outcomes = server.take_outcomes();
    let expired = outcomes.iter().find(|o| o.id == 1).unwrap();
    assert_eq!(expired.status, CompletionStatus::TimedOut);
    assert_eq!(expired.timesteps_used, 0, "an expired queued request must never run");
    assert_eq!(expired.prediction, None);
    let served = outcomes.iter().find(|o| o.id == 0).unwrap();
    assert_eq!(served.status, CompletionStatus::Completed);
}

#[test]
fn admission_control_rejects_only_past_queue_capacity() {
    let config = ServerConfig {
        max_timesteps: 6,
        slots: 2,
        queue_capacity: 3,
        theta: ThetaController::fixed(0.9).unwrap(),
        service: ServiceModel { step_fixed_nanos: 1000, step_per_row_nanos: 0 },
        default_deadline_nanos: None,
        record_schedule: false,
    };
    let mut rng = TensorRng::seed_from(13);
    let mut server = Server::new(tiny_net(5), config, SimClock::new()).unwrap();
    // without stepping, the queue alone bounds admissions
    for id in 0..5u64 {
        let accepted = server
            .submit(Request { id, frames: vec![frame(&mut rng)], deadline_nanos: None, priority: 0 })
            .unwrap();
        assert_eq!(accepted, id < 3, "queue of 3 must refuse the 4th submission (id {id})");
    }
    assert_eq!(server.stats().rejected, 2);
    let rejected: Vec<u64> = server
        .take_outcomes()
        .iter()
        .filter(|o| o.status == CompletionStatus::Rejected)
        .map(|o| o.id)
        .collect();
    assert_eq!(rejected, vec![3, 4]);
    // the queued three still complete
    server.run_until_idle().unwrap();
    let outcomes = server.take_outcomes();
    assert_eq!(outcomes.len(), 3);
    assert!(outcomes.iter().all(|o| o.status == CompletionStatus::Completed));
}

#[test]
fn theta_controller_saturates_cleanly_at_extreme_depths() {
    // the asymptote: d/(d+half) → 1, so θ(usize::MAX) must sit at (or one
    // float below) the ceiling without overflowing or going NaN
    let c = ThetaController::new(0.6, 0.95, 8.0).unwrap();
    let top = c.theta_for(usize::MAX);
    assert!(top.is_finite());
    assert!((c.theta_min()..=c.theta_max()).contains(&top));
    assert!(c.theta_max() - top < 1e-5, "θ(usize::MAX) must saturate at the ceiling, got {top}");
    assert_eq!(c.theta_for(0), c.theta_min(), "an idle queue must sit at the floor");

    // a half-pressure depth at the positive float floor makes any nonzero
    // depth saturate immediately — still clamped, still monotone
    let steep = ThetaController::new(0.6, 0.95, f32::MIN_POSITIVE).unwrap();
    assert_eq!(steep.theta_for(0), steep.theta_min());
    let one = steep.theta_for(1);
    assert!((steep.theta_min()..=steep.theta_max()).contains(&one));
    assert!(steep.theta_max() - one < 1e-5, "depth 1 must saturate a near-zero half, got {one}");
    assert!(steep.theta_for(usize::MAX) >= one);

    // a huge half-pressure depth pins θ to the floor at any finite load
    let flat = ThetaController::new(0.6, 0.95, f32::MAX).unwrap();
    let loaded = flat.theta_for(1_000_000);
    assert!(loaded - flat.theta_min() < 1e-5, "a vast half must stay at the floor, got {loaded}");
    // degenerate bands and parameters are refused outright
    assert!(ThetaController::new(0.6, 0.95, 0.0).is_err());
    assert!(ThetaController::new(0.6, 0.95, f32::INFINITY).is_err());
    assert!(ThetaController::new(0.6, 0.95, f32::NAN).is_err());
}

#[test]
fn virtual_time_saturates_instead_of_wrapping() {
    // step costs, the cluster defaults derived from them and the simulated
    // clock all stop at u64::MAX: a wrapped value is a small time, and time
    // that moves backwards breaks every deadline comparison
    let service = ServiceModel { step_fixed_nanos: u64::MAX, step_per_row_nanos: u64::MAX };
    assert_eq!(service.step_cost(0), u64::MAX);
    assert_eq!(service.step_cost(usize::MAX), u64::MAX);
    let per_row = ServiceModel { step_fixed_nanos: 7, step_per_row_nanos: u64::MAX / 2 };
    assert_eq!(per_row.step_cost(1), u64::MAX / 2 + 7);
    assert_eq!(per_row.step_cost(3), u64::MAX);

    let config = ClusterConfig::with_defaults(ServerConfig {
        max_timesteps: 6,
        slots: 4,
        queue_capacity: 8,
        theta: ThetaController::fixed(0.9).unwrap(),
        service,
        default_deadline_nanos: None,
        record_schedule: false,
    });
    assert_eq!(config.backoff_base_nanos, u64::MAX);
    assert_eq!(config.stall_timeout_nanos, Some(u64::MAX));
    assert_eq!(config.hedge_after_nanos, Some(u64::MAX));

    let clock = SimClock::new();
    clock.advance(u64::MAX - 5);
    clock.advance(u64::MAX);
    assert_eq!(clock.now(), u64::MAX);
    clock.advance(1);
    assert_eq!(clock.now(), u64::MAX, "a clock at the ceiling must stay there");
}

#[test]
fn zero_capacity_configs_are_refused_up_front() {
    let base = ServerConfig {
        max_timesteps: 6,
        slots: 2,
        queue_capacity: 8,
        theta: ThetaController::fixed(0.9).unwrap(),
        service: ServiceModel { step_fixed_nanos: 1000, step_per_row_nanos: 0 },
        default_deadline_nanos: None,
        record_schedule: false,
    };
    for broken in [
        ServerConfig { queue_capacity: 0, ..base.clone() },
        ServerConfig { slots: 0, ..base.clone() },
        ServerConfig { max_timesteps: 0, ..base.clone() },
    ] {
        assert!(
            Server::new(tiny_net(5), broken, SimClock::new()).is_err(),
            "zero-capacity configs must be refused at construction"
        );
    }
    // the valid base still constructs
    assert!(Server::new(tiny_net(5), base, SimClock::new()).is_ok());
}

#[test]
fn an_already_expired_deadline_times_out_without_ever_running() {
    let config = ServerConfig {
        max_timesteps: 6,
        slots: 2,
        queue_capacity: 8,
        theta: ThetaController::fixed(0.9).unwrap(),
        service: ServiceModel { step_fixed_nanos: 1000, step_per_row_nanos: 0 },
        default_deadline_nanos: None,
        record_schedule: false,
    };
    let mut rng = TensorRng::seed_from(19);
    let mut server = Server::new(tiny_net(5), config, SimClock::new()).unwrap();
    // a zero-nanosecond budget: the deadline equals the arrival instant,
    // and any clock movement at all expires it before the next step
    assert!(server
        .submit(Request { id: 0, frames: vec![frame(&mut rng)], deadline_nanos: Some(0), priority: 0 })
        .unwrap());
    server.clock().advance(1);
    assert!(server
        .submit(Request { id: 1, frames: vec![frame(&mut rng)], deadline_nanos: None, priority: 0 })
        .unwrap());
    server.run_until_idle().unwrap();
    let outcomes = server.take_outcomes();
    let dead = outcomes.iter().find(|o| o.id == 0).unwrap();
    assert_eq!(dead.status, CompletionStatus::TimedOut);
    assert_eq!(dead.timesteps_used, 0, "an expired-on-arrival request must never run");
    assert_eq!(dead.prediction, None);
    assert_eq!(dead.deadline_nanos, Some(0));
    let alive = outcomes.iter().find(|o| o.id == 1).unwrap();
    assert_eq!(alive.status, CompletionStatus::Completed);
}

#[test]
fn malformed_requests_are_refused_up_front() {
    let config = ServerConfig {
        max_timesteps: 6,
        slots: 2,
        queue_capacity: 8,
        theta: ThetaController::fixed(0.9).unwrap(),
        service: ServiceModel { step_fixed_nanos: 1000, step_per_row_nanos: 0 },
        default_deadline_nanos: None,
        record_schedule: false,
    };
    let mut rng = TensorRng::seed_from(17);
    let mut server = Server::new(tiny_net(5), config, SimClock::new()).unwrap();
    // no frames
    assert!(server.submit(Request { id: 0, frames: vec![], deadline_nanos: None, priority: 0 }).is_err());
    // frame count neither 1 nor max_timesteps
    let frames: Vec<Tensor> = (0..3).map(|_| frame(&mut rng)).collect();
    assert!(server.submit(Request { id: 1, frames, deadline_nanos: None, priority: 0 }).is_err());
    // first accepted request fixes the shape; a disagreeing one is refused
    assert!(server
        .submit(Request { id: 2, frames: vec![frame(&mut rng)], deadline_nanos: None, priority: 0 })
        .unwrap());
    let wide = Tensor::randn(&[1, 4, 4], 0.5, 0.5, &mut rng);
    assert!(server.submit(Request { id: 3, frames: vec![wide], deadline_nanos: None, priority: 0 }).is_err());
    // a batch axis wider than one is refused
    let batched = Tensor::randn(&[2, 1, 2, 2], 0.5, 0.5, &mut rng);
    assert!(server.submit(Request { id: 4, frames: vec![batched], deadline_nanos: None, priority: 0 }).is_err());
    server.run_until_idle().unwrap();
}
