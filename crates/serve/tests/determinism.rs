//! The virtual-time determinism harness: seeded traces through the
//! simulated-clock server must reproduce the per-request sequential runner
//! bitwise, across repeated runs and across `DTSNN_THREADS` settings — and
//! requests spliced into an *open* window must be indistinguishable from
//! requests run alone.

use dtsnn_core::{DynamicInference, ExitPolicy};
use dtsnn_serve::{
    replay_trace, CompletionStatus, Request, RequestOutcome, Server, ServerConfig, ServiceModel,
    SimClock, StepRecord, ThetaController, TracedRequest,
};
use dtsnn_snn::{Conv2d, Flatten, Layer, LifConfig, LifNeuron, Linear, Snn};
use dtsnn_tensor::{parallel, Tensor, TensorRng};

/// Splits the tiny-net fixtures between early and full-window exits (same
/// threshold the core harness suite uses).
const THETA_MIXED: f32 = 0.986;
const MAX_T: usize = 6;

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

fn staggered_trace(n: usize, seed: u64) -> Vec<TracedRequest> {
    let mut rng = TensorRng::seed_from(seed);
    (0..n)
        .map(|i| TracedRequest {
            at_nanos: i as u64 * 700,
            request: Request { id: i as u64, frames: vec![frame(&mut rng)], deadline_nanos: None, priority: 0 },
        })
        .collect()
}

fn config(slots: usize) -> ServerConfig {
    ServerConfig {
        max_timesteps: MAX_T,
        slots,
        queue_capacity: 64,
        theta: ThetaController::fixed(THETA_MIXED).unwrap(),
        service: ServiceModel { step_fixed_nanos: 1000, step_per_row_nanos: 100 },
        default_deadline_nanos: None,
        record_schedule: true,
    }
}

fn run_trace(trace: &[TracedRequest], slots: usize) -> (Vec<RequestOutcome>, Vec<StepRecord>) {
    let mut server = Server::new(tiny_net(42), config(slots), SimClock::new()).unwrap();
    replay_trace(&mut server, trace).unwrap();
    assert!(
        server.stats().spliced_mid_window >= 1,
        "the staggered trace must exercise mid-window admission, stats {:?}",
        server.stats()
    );
    let outcomes = server.take_outcomes();
    let schedule = server.take_schedule();
    (outcomes, schedule)
}

fn solo_reference(request: &Request) -> (usize, usize, bool, Vec<f32>, Vec<f32>) {
    let mut net = tiny_net(42);
    let runner =
        DynamicInference::new(ExitPolicy::entropy(THETA_MIXED).unwrap(), MAX_T).unwrap();
    let trace = runner.run_traced(&mut net, &request.frames).unwrap();
    let acc = trace.per_timestep.last().unwrap().accumulated_logits.clone();
    (
        trace.outcome.prediction,
        trace.outcome.timesteps_used,
        trace.outcome.exited_early,
        trace.outcome.scores,
        acc,
    )
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_matches_solo(outcome: &RequestOutcome, request: &Request) {
    let (prediction, timesteps, early, scores, acc) = solo_reference(request);
    assert_eq!(outcome.status, CompletionStatus::Completed, "request {}", outcome.id);
    assert_eq!(outcome.prediction, Some(prediction), "request {}", outcome.id);
    assert_eq!(outcome.timesteps_used, timesteps, "request {}", outcome.id);
    assert_eq!(outcome.exited_early, early, "request {}", outcome.id);
    assert_eq!(bits(&outcome.scores), bits(&scores), "request {} scores drifted", outcome.id);
    assert_eq!(
        bits(&outcome.accumulated_logits),
        bits(&acc),
        "request {} logits drifted",
        outcome.id
    );
}

#[test]
fn server_outcomes_match_solo_runs_bitwise_at_1_and_4_threads() {
    let trace = staggered_trace(6, 0x5EED);
    // the solo references are computed at the default thread count; the
    // server must hit them bitwise at 1 *and* 4 workers
    for threads in [1usize, 4] {
        let (outcomes, _) = parallel::with_threads(threads, || run_trace(&trace, 2));
        assert_eq!(outcomes.len(), trace.len());
        for tr in &trace {
            let outcome = outcomes
                .iter()
                .find(|o| o.id == tr.request.id)
                .unwrap_or_else(|| panic!("request {} has no outcome", tr.request.id));
            assert_matches_solo(outcome, &tr.request);
        }
    }
}

#[test]
fn a_mixture_of_early_and_full_window_exits_is_exercised() {
    // guard the fixture: if every request exits at t=1 (or none do), the
    // splice/compaction interleavings above stop covering anything
    let trace = staggered_trace(6, 0x5EED);
    let (outcomes, _) = run_trace(&trace, 2);
    let early = outcomes.iter().filter(|o| o.exited_early).count();
    assert!(
        early > 0 && early < outcomes.len(),
        "fixture must mix early and full-window exits, got {early}/{}",
        outcomes.len()
    );
}

#[test]
fn replays_are_byte_identical_across_runs_and_thread_counts() {
    let trace = staggered_trace(8, 0xCAFE);
    let (base_outcomes, base_schedule) = parallel::with_threads(1, || run_trace(&trace, 3));
    for threads in [1usize, 2, 4] {
        let (outcomes, schedule) = parallel::with_threads(threads, || run_trace(&trace, 3));
        assert_eq!(outcomes.len(), base_outcomes.len());
        for (a, b) in outcomes.iter().zip(&base_outcomes) {
            assert_eq!(a.id, b.id, "termination order drifted at {threads} threads");
            assert_eq!(a.status, b.status);
            assert_eq!(a.prediction, b.prediction);
            assert_eq!(a.timesteps_used, b.timesteps_used);
            assert_eq!((a.arrival_nanos, a.finish_nanos), (b.arrival_nanos, b.finish_nanos));
            assert_eq!(bits(&a.scores), bits(&b.scores));
            assert_eq!(bits(&a.accumulated_logits), bits(&b.accumulated_logits));
        }
        // scheduling decisions — batch compositions, admissions,
        // retirements, θ — are part of the contract too
        assert_eq!(schedule.len(), base_schedule.len(), "step count drifted at {threads} threads");
        for (a, b) in schedule.iter().zip(&base_schedule) {
            assert_eq!(a.start_nanos, b.start_nanos);
            assert_eq!(a.theta.to_bits(), b.theta.to_bits());
            assert_eq!(a.rows, b.rows);
            assert_eq!(a.admitted, b.admitted);
            assert_eq!(a.retired, b.retired);
        }
    }
}

#[test]
fn a_request_spliced_mid_window_is_bitwise_identical_to_running_it_alone() {
    let trace = staggered_trace(6, 0x5EED);
    let (outcomes, schedule) = run_trace(&trace, 2);
    // find an id admitted into a step that carried other rows — a true
    // mid-window splice, not a fresh-window start
    let spliced: Vec<u64> = schedule
        .iter()
        .filter(|s| !s.admitted.is_empty() && s.rows.len() > s.admitted.len())
        .flat_map(|s| s.admitted.iter().copied())
        .collect();
    assert!(!spliced.is_empty(), "trace must splice at least one request mid-window");
    for id in spliced {
        let outcome = outcomes.iter().find(|o| o.id == id).unwrap();
        let request = &trace[id as usize].request;
        assert_matches_solo(outcome, request);
    }
}

#[test]
fn a_solo_request_through_the_server_matches_run_traced() {
    let mut rng = TensorRng::seed_from(99);
    let request = Request { id: 7, frames: vec![frame(&mut rng)], deadline_nanos: None, priority: 0 };
    let mut server = Server::new(tiny_net(42), config(4), SimClock::new()).unwrap();
    assert!(server.submit(request.clone()).unwrap());
    server.run_until_idle().unwrap();
    let outcomes = server.take_outcomes();
    assert_eq!(outcomes.len(), 1);
    assert_matches_solo(&outcomes[0], &request);
}

#[test]
fn per_timestep_frame_sequences_ride_through_the_window() {
    // event-style input: one frame per timestep; row r consumes frames[r.t]
    let mut rng = TensorRng::seed_from(3);
    let frames: Vec<Tensor> = (0..MAX_T).map(|_| frame(&mut rng)).collect();
    let request = Request { id: 0, frames: frames.clone(), deadline_nanos: None, priority: 0 };
    let mut server = Server::new(tiny_net(42), config(2), SimClock::new()).unwrap();
    // a second, static request keeps the window occupied so the sequenced
    // one is spliced mid-window at a nonzero offset
    let filler = Request { id: 1, frames: vec![frame(&mut rng)], deadline_nanos: None, priority: 0 };
    assert!(server.submit(filler).unwrap());
    server.step().unwrap();
    assert!(server.submit(request.clone()).unwrap());
    server.run_until_idle().unwrap();
    let outcomes = server.take_outcomes();
    let outcome = outcomes.iter().find(|o| o.id == 0).unwrap();
    assert_matches_solo(outcome, &request);
}

#[test]
fn a_spliced_static_request_runs_the_input_prefix_once() {
    // Flatten + Linear carry no state: the prefix of every static request
    // runs on its admission step and is reused on every later one, whether
    // the row opened the window or was spliced into it.
    let trace = staggered_trace(9, 0x5EED);
    let mut server = Server::new(tiny_net(42), config(3), SimClock::new()).unwrap();
    replay_trace(&mut server, &trace).unwrap();
    assert!(server.stats().spliced_mid_window >= 1, "stats {:?}", server.stats());
    let outcomes = server.take_outcomes();
    let row_steps: usize = outcomes.iter().map(|o| o.timesteps_used).sum();
    assert!(row_steps > trace.len(), "every request exited at t = 1");
    let stats = server.prefix_stats();
    assert_eq!(
        (stats.reused, stats.recomputed),
        ((row_steps - trace.len()) as u64, trace.len() as u64)
    );
}

#[test]
fn warmed_server_serves_from_its_arena_without_allocating() {
    // A conv net (so the packed-weight plan and the scatter tiles are in
    // play) under staggered arrivals: widths rise and fall, rows are spliced
    // and compacted. Once a burst has warmed every width up to `slots`, a
    // second identical burst must take every buffer from the freelist.
    let mut rng = TensorRng::seed_from(77);
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(2, 4, 3, 1, 1, &mut rng).unwrap()),
        Box::new(LifNeuron::new(LifConfig::default())),
        Box::new(Flatten::new()),
        Box::new(Linear::new(4 * 4 * 4, 3, &mut rng)),
    ];
    let burst = |first_id: u64, start: u64| -> Vec<TracedRequest> {
        let mut rng = TensorRng::seed_from(0xB0057);
        (0..12)
            .map(|i| TracedRequest {
                at_nanos: start + i * 300,
                request: Request {
                    id: first_id + i,
                    frames: vec![Tensor::randn(&[2, 4, 4], 0.5, 0.5, &mut rng)],
                    deadline_nanos: None,
                    priority: 0,
                },
            })
            .collect()
    };
    let mut server = Server::new(Snn::from_layers(layers), config(4), SimClock::new()).unwrap();
    replay_trace(&mut server, &burst(0, 0)).unwrap();
    assert!(server.stats().spliced_mid_window >= 1, "stats {:?}", server.stats());
    let warm = server.workspace_stats();
    let second = burst(100, server.now());
    replay_trace(&mut server, &second).unwrap();
    let after = server.workspace_stats();
    assert_eq!(server.take_outcomes().len(), 24);
    assert!(after.takes > warm.takes);
    assert_eq!(after.misses, warm.misses, "warmed server allocated: {warm:?} -> {after:?}");
}
