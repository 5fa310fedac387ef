//! The serving engine end to end: a small seeded `vgg_small` behind the
//! continuous-batching `Server` on a simulated clock. Requests arrive
//! staggered, so rows are spliced into open windows and compacted out of
//! them; every request must still get the prediction and exit timestep of
//! `DynamicInference::run` on its sample alone.

use dt_snn::dtsnn::{DynamicInference, ExitPolicy};
use dt_snn::snn::{vgg_small, ModelConfig, Snn};
use dt_snn::tensor::{Tensor, TensorRng};
use dtsnn_serve::{
    replay_trace, CompletionStatus, Request, Server, ServerConfig, ServiceModel, SimClock,
    ThetaController, TracedRequest,
};

const T_MAX: usize = 4;
const THETA: f32 = 0.5;

fn net() -> Snn {
    // tdbn_alpha > 1 keeps the untrained net spiking end to end
    let config = ModelConfig {
        in_channels: 2,
        image_size: 8,
        num_classes: 4,
        width: 4,
        tdbn_alpha: 6.0,
        ..ModelConfig::default()
    };
    vgg_small(&config, &mut TensorRng::seed_from(0x5E4E)).unwrap()
}

#[test]
fn served_requests_match_their_solo_runs() {
    let mut rng = TensorRng::seed_from(17);
    let trace: Vec<TracedRequest> = (0..12)
        .map(|i| TracedRequest {
            at_nanos: i * 500,
            request: Request {
                id: i,
                frames: vec![Tensor::randn(&[1, 2, 8, 8], 0.5, 1.0, &mut rng)],
                deadline_nanos: None,
                priority: 0,
            },
        })
        .collect();
    let config = ServerConfig {
        max_timesteps: T_MAX,
        slots: 4,
        queue_capacity: 16,
        theta: ThetaController::fixed(THETA).unwrap(),
        service: ServiceModel { step_fixed_nanos: 1_000, step_per_row_nanos: 200 },
        default_deadline_nanos: None,
        record_schedule: false,
    };
    let mut server = Server::new(net(), config, SimClock::new()).unwrap();
    replay_trace(&mut server, &trace).unwrap();
    assert!(server.stats().spliced_mid_window >= 1, "{:?}", server.stats());
    let outcomes = server.take_outcomes();
    assert_eq!(outcomes.len(), trace.len());

    let solo = DynamicInference::new(ExitPolicy::entropy(THETA).unwrap(), T_MAX).unwrap();
    let mut exits = Vec::new();
    for tr in &trace {
        let want = solo.run(&mut net(), &tr.request.frames).unwrap();
        let got = outcomes.iter().find(|o| o.id == tr.request.id).unwrap();
        assert_eq!(got.status, CompletionStatus::Completed, "request {}", got.id);
        assert_eq!(got.prediction, Some(want.prediction), "request {}", got.id);
        assert_eq!(got.timesteps_used, want.timesteps_used, "request {}", got.id);
        exits.push(want.timesteps_used);
    }
    // both early and full-window exits, or the splice proves little
    assert!(exits.contains(&T_MAX) && exits.iter().any(|&t| t < T_MAX), "exits {exits:?}");
}
