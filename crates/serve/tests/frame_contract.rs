//! The frame contract (`dtsnn_snn::check_frames`) at every boundary that
//! takes a sample: core's solo runner, its dataset harnesses and throughput
//! meter, and serve's `Server` and `Cluster` intake. A malformed sample is
//! refused with the boundary's own typed error before anything is forwarded;
//! a valid one, in any of its accepted forms, gets the same outcome
//! everywhere. And a request whose frames keep the contract but that the
//! network cannot run ends failed without wedging the server behind it.

use dtsnn_core::{
    measure_throughput, static_inference, CoreError, DynamicEvaluation, DynamicInference,
    ExitPolicy, StaticEvaluation,
};
use dtsnn_serve::{
    Cluster, ClusterConfig, CompletionStatus, FaultSchedule, Request, RequestOutcome, ServeError,
    Server, ServerConfig, ServiceModel, SimClock, ThetaController,
};
use dtsnn_snn::{Flatten, Layer, LifConfig, LifNeuron, Linear, Snn};
use dtsnn_tensor::{parallel, Tensor, TensorRng};

const T: usize = 4;
const THETA: f32 = 0.9;

/// A 4-input net: `Flatten` takes any frame of four elements.
fn tiny_net() -> Snn {
    let mut rng = TensorRng::seed_from(3);
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Flatten::new()),
        Box::new(Linear::new(4, 8, &mut rng)),
        Box::new(LifNeuron::new(LifConfig::default())),
        Box::new(Linear::new(8, 3, &mut rng)),
    ];
    Snn::from_layers(layers)
}

fn server_config() -> ServerConfig {
    ServerConfig {
        max_timesteps: T,
        slots: 2,
        queue_capacity: 8,
        theta: ThetaController::fixed(THETA).unwrap(),
        service: ServiceModel { step_fixed_nanos: 1000, step_per_row_nanos: 100 },
        default_deadline_nanos: None,
        record_schedule: false,
    }
}

fn server() -> Server<SimClock> {
    Server::new(tiny_net(), server_config(), SimClock::new()).unwrap()
}

fn cluster() -> Cluster<SimClock> {
    let config = ClusterConfig::with_defaults(server_config());
    Cluster::simulated(tiny_net(), config, 2, FaultSchedule::none()).unwrap()
}

fn request(id: u64, frames: Vec<Tensor>) -> Request {
    Request { id, frames, deadline_nanos: None, priority: 0 }
}

fn runner() -> DynamicInference {
    DynamicInference::new(ExitPolicy::entropy(THETA).unwrap(), T).unwrap()
}

/// Every refusal is the boundary's `BadInput`, naming the sample when the
/// boundary takes a split.
fn refused<R: std::fmt::Debug>(result: Result<R, CoreError>, sample: Option<usize>, case: &str) {
    match result {
        Err(CoreError::BadInput(why)) => {
            if let Some(i) = sample {
                assert!(why.starts_with(&format!("sample {i}: ")), "{case}: {why}");
            }
        }
        other => panic!("{case}: expected BadInput, got {other:?}"),
    }
}

/// Every refusal is serve's `BadRequest`, naming the request.
fn names_request_7(submitted: &Result<bool, ServeError>) -> bool {
    matches!(submitted, Err(ServeError::BadRequest(why)) if why.starts_with("request 7: "))
}

#[test]
fn every_boundary_refuses_a_malformed_sample_before_forwarding_anything() {
    let mut rng = TensorRng::seed_from(11);
    let mut frame = |dims: &[usize]| Tensor::randn(dims, 0.5, 0.5, &mut rng);
    let good = vec![frame(&[1, 2, 2])];
    let cases: Vec<(&str, Vec<Tensor>)> = vec![
        ("a batch-2 frame", vec![frame(&[2, 1, 2, 2])]),
        ("a zero-element frame", vec![Tensor::zeros(&[1, 0, 4])]),
        (
            "an event sample of [1,2,2] and [4,1,1] frames",
            vec![frame(&[1, 2, 2]), frame(&[4, 1, 1]), frame(&[1, 2, 2]), frame(&[4, 1, 1])],
        ),
        ("a wrong frame count", vec![frame(&[1, 2, 2]), frame(&[1, 2, 2])]),
    ];
    // one worker: a split's samples run on `net` itself, so a forward of
    // the valid sample ahead of the bad one would show in its arena counters
    parallel::with_threads(1, || {
        let mut net = tiny_net();
        let runner = runner();
        for (case, bad) in &cases {
            let split = [good.clone(), bad.clone()];
            let before = net.workspace_stats();
            refused(runner.run(&mut net, bad), None, case);
            refused(
                DynamicEvaluation::run_batched(&mut net, &runner, &split, &[0, 0], None, 2),
                Some(1),
                case,
            );
            refused(StaticEvaluation::run(&mut net, &split, &[0, 0], T), Some(1), case);
            refused(static_inference(&mut net, bad, T), None, case);
            refused(measure_throughput(&mut net, &split, &[0, 0], T), Some(1), case);
            assert_eq!(net.workspace_stats(), before, "{case}: something was forwarded");

            let mut server = server();
            let submitted = server.submit(request(7, bad.clone()));
            assert!(names_request_7(&submitted), "{case}: {submitted:?}");
            assert_eq!(server.queue_depth(), 0, "{case}");
            server.run_until_idle().unwrap();
            assert_eq!(server.stats().steps, 0, "{case}");
            assert!(server.take_outcomes().is_empty(), "{case}");

            let mut cluster = cluster();
            let submitted = cluster.submit(request(7, bad.clone()));
            assert!(names_request_7(&submitted), "{case}: {submitted:?}");
            assert_eq!(cluster.backlog_depth(), 0, "{case}");
            cluster.run_until_idle().unwrap();
            assert_eq!(cluster.stats().steps, 0, "{case}");
            assert!(cluster.take_outcomes().is_empty(), "{case}");
        }
    });
}

#[test]
fn a_valid_sample_gets_one_outcome_in_every_accepted_form_at_every_boundary() {
    let mut rng = TensorRng::seed_from(12);
    let image = Tensor::randn(&[1, 2, 2], 0.5, 0.5, &mut rng);
    let batched = image.reshape(&[1, 1, 2, 2]).unwrap();
    // a static frame with or without its batch axis, and the same frame as
    // an event sample mixing both forms: one input, four spellings
    let forms: Vec<Vec<Tensor>> = vec![
        vec![image.clone()],
        vec![batched.clone()],
        vec![image.clone(), batched.clone(), image.clone(), batched.clone()],
        vec![batched.clone(), image.clone(), batched, image],
    ];
    let runner = runner();
    let reference = runner.run(&mut tiny_net(), &forms[0]).unwrap();
    let static_reference = static_inference(&mut tiny_net(), &forms[0], T).unwrap();
    let labels = vec![reference.prediction; forms.len()];
    parallel::with_threads(1, || {
        let mut net = tiny_net();
        for (i, form) in forms.iter().enumerate() {
            assert_eq!(runner.run(&mut net, form).unwrap(), reference, "form {i}");
            assert_eq!(static_inference(&mut net, form, T).unwrap(), static_reference, "form {i}");
        }
        // all four forms in one batched window
        let eval =
            DynamicEvaluation::run_batched(&mut net, &runner, &forms, &labels, None, 4).unwrap();
        assert_eq!(eval.accuracy, 1.0);
        assert!(eval.samples.iter().all(|s| s.timesteps_used == reference.timesteps_used));
        let statics = vec![static_reference; forms.len()];
        let eval = StaticEvaluation::run(&mut net, &forms, &statics, T).unwrap();
        assert_eq!(eval.full_window_accuracy(), 1.0);
        assert_eq!(measure_throughput(&mut net, &forms, &statics, T).unwrap().accuracy, 1.0);
    });
    let served = |outcomes: Vec<RequestOutcome>| {
        assert_eq!(outcomes.len(), forms.len());
        for o in outcomes {
            assert_eq!(o.status, CompletionStatus::Completed, "{o:?}");
            assert_eq!(o.prediction, Some(reference.prediction), "{o:?}");
            assert_eq!(o.timesteps_used, reference.timesteps_used, "{o:?}");
            assert_eq!(o.scores, reference.scores, "{o:?}");
        }
    };
    let mut server = server();
    let mut cluster = cluster();
    for (id, form) in forms.iter().enumerate() {
        assert!(server.submit(request(id as u64, form.clone())).unwrap());
        assert!(cluster.submit(request(id as u64, form.clone())).unwrap());
    }
    server.run_until_idle().unwrap();
    cluster.run_until_idle().unwrap();
    served(server.take_outcomes());
    served(cluster.take_outcomes());
}

/// Frames that keep the contract but that the 4-input net cannot run: nine
/// elements into a `Linear(4, ..)`.
fn unrunnable(id: u64) -> Request {
    request(id, vec![Tensor::zeros(&[1, 3, 3])])
}

fn runnable(id: u64) -> Request {
    request(id, vec![Tensor::full(&[1, 2, 2], 0.5)])
}

/// The one outcome a server or cluster reported for each request, in id order.
fn by_id(mut outcomes: Vec<RequestOutcome>) -> Vec<(u64, CompletionStatus, Option<usize>)> {
    outcomes.sort_by_key(|o| o.id);
    outcomes.iter().map(|o| (o.id, o.status, o.prediction)).collect()
}

#[test]
fn a_first_request_the_network_cannot_run_fails_alone_and_pins_nothing() {
    let mut server = server();
    assert!(server.submit(unrunnable(0)).unwrap());
    server.run_until_idle().unwrap();
    assert_eq!(by_id(server.take_outcomes()), [(0, CompletionStatus::Failed, None)]);
    // the failed shape is not pinned: a well-formed request runs
    assert!(server.submit(runnable(1)).unwrap());
    server.run_until_idle().unwrap();
    let outcomes = by_id(server.take_outcomes());
    assert!(matches!(outcomes[..], [(1, CompletionStatus::Completed, Some(_))]), "{outcomes:?}");
    // a forwarded shape is pinned for good
    assert!(matches!(server.submit(unrunnable(2)), Err(ServeError::BadRequest(_))));
    let stats = server.stats();
    assert_eq!((stats.failed, stats.completed, stats.submitted), (1, 1, 3));

    let mut cluster = cluster();
    assert!(cluster.submit(unrunnable(0)).unwrap());
    cluster.run_until_idle().unwrap();
    assert_eq!(by_id(cluster.take_outcomes()), [(0, CompletionStatus::Failed, None)]);
    assert!(cluster.submit(runnable(1)).unwrap());
    cluster.run_until_idle().unwrap();
    let outcomes = by_id(cluster.take_outcomes());
    assert!(matches!(outcomes[..], [(1, CompletionStatus::Completed, Some(_))]), "{outcomes:?}");
    assert!(matches!(cluster.submit(unrunnable(2)), Err(ServeError::BadRequest(_))));
    let stats = cluster.stats();
    assert_eq!((stats.failed, stats.completed, stats.submitted), (1, 1, 3));
}

#[test]
fn a_failed_forward_ends_every_row_of_its_batch_once_and_the_server_serves_on() {
    // the shape pin holds while the unrunnable request waits, so requests
    // queued behind it share its shape and its batch; each ends failed once
    let mut server = server();
    for id in 0..3 {
        assert!(server.submit(unrunnable(id)).unwrap());
    }
    assert!(matches!(server.submit(runnable(9)), Err(ServeError::BadRequest(_))));
    server.run_until_idle().unwrap();
    let failed = CompletionStatus::Failed;
    let all_failed = [(0, failed, None), (1, failed, None), (2, failed, None)];
    assert_eq!(by_id(server.take_outcomes()), all_failed);
    assert!(server.submit(runnable(3)).unwrap());
    server.run_until_idle().unwrap();
    assert_eq!(by_id(server.take_outcomes())[0].1, CompletionStatus::Completed);
}
