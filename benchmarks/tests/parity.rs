//! Shadow-loop and replay parity: the harness-side reconstructions a traced
//! run relies on must reproduce what the program's own paths do.
//!
//! The tests share one trained vgg fixture (the benchmark's own recipe), so
//! the exit histogram is the multi-modal one the benchmark measures.

use dtsnn_perfbench::probes::inference_layers;
use dtsnn_perfbench::replay::{replay, Due, HostTimer};
use dtsnn_perfbench::report::LayerMetrics;
use dtsnn_perfbench::setup::{Fixture, T_MAX, VGG, WINDOW};
use dtsnn_perfbench::shadow::{
    replay_schedule, replay_window, shadow_request, window_widths, ReplayCost,
};
use dtsnn_perfbench::spans::Tracer;
use dtsnn_serve::{
    generate_arrivals, ArrivalProcess, CompletionStatus, Request, Server, ServerConfig,
    ServiceModel, SimClock, ThetaController,
};
use dtsnn_tensor::{TensorRng, Workspace};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

fn fixture() -> MutexGuard<'static, Fixture> {
    static FIXTURE: OnceLock<Mutex<Fixture>> = OnceLock::new();
    FIXTURE
        .get_or_init(|| {
            dtsnn_tensor::parallel::set_threads(1);
            Mutex::new(Fixture::build(VGG).expect("fixture builds"))
        })
        .lock()
        // a failed assertion in one test must not hide the others' results
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn fixture_exits_at_several_timesteps() {
    let fx = fixture();
    let h = &fx.evaluation.timestep_histogram;
    assert_eq!(h.iter().sum::<usize>(), fx.frames.len());
    assert!(h[0] > 0 && h[T_MAX - 1] > 0, "histogram {h:?} is not multi-modal");
    assert!(fx.accuracy() >= f64::from(VGG.min_accuracy));
}

#[test]
fn shadow_loop_matches_dynamic_inference_on_the_whole_split() {
    let fx = fixture();
    let mut net = fx.net.clone();
    let mut ws = Workspace::new();
    let mut tracer = Tracer::new(1 << 16);
    let policy = *fx.runner.policy();
    for (i, frames) in fx.frames.iter().enumerate() {
        let (prediction, timesteps) =
            shadow_request(&mut net, &mut ws, &policy, T_MAX, &frames[0], &mut tracer, i as u64)
                .unwrap();
        assert!(
            fx.matches(i, prediction, timesteps),
            "sample {i}: shadow ({prediction}, {timesteps}) vs reference {:?}",
            fx.reference[i]
        );
    }
    // one forward span per executed timestep, one policy span beside it
    let steps: usize = fx.reference.iter().map(|r| r.timesteps).sum();
    let forwards = tracer.spans().iter().filter(|s| s.name == "snn.forward_timestep").count();
    let policies = tracer.spans().iter().filter(|s| s.name == "core.softmax_policy").count();
    assert_eq!((forwards, policies), (steps, steps));
    assert_eq!(tracer.dropped(), 0);
}

#[test]
fn replayed_window_forwards_the_batched_paths_row_steps() {
    let mut fx = fixture();
    let fx = &mut *fx;
    let rows: Vec<usize> = (0..WINDOW).collect();
    let timesteps: Vec<usize> = rows.iter().map(|&i| fx.reference[i].timesteps).collect();
    let mut cost = ReplayCost::default();
    replay_window(&mut fx.net, &fx.frames, &rows, &timesteps, T_MAX, &mut cost).unwrap();
    let widths = window_widths(&timesteps, T_MAX);
    assert_eq!(cost.steps as usize, widths.len());
    assert_eq!(cost.row_steps as usize, widths.iter().sum::<usize>());
    assert_eq!(cost.row_steps as usize, timesteps.iter().sum::<usize>());
    assert!(cost.forward_nanos > 0);
}

#[test]
fn replayed_schedule_reproduces_the_recorded_step_widths() {
    let mut fx = fixture();
    let fx = &mut *fx;
    let clock = SimClock::new();
    let config = ServerConfig {
        max_timesteps: T_MAX,
        slots: 8,
        queue_capacity: 1 << 16,
        theta: ThetaController::fixed(VGG.theta).unwrap(),
        service: ServiceModel { step_fixed_nanos: 0, step_per_row_nanos: 0 },
        default_deadline_nanos: None,
        record_schedule: true,
    };
    let mut server = Server::new(fx.net.clone(), config, clock.clone()).unwrap();
    // a rate high enough that windows overlap, so rows are spliced and compacted
    let n = 200;
    let arrivals = generate_arrivals(
        ArrivalProcess::Poisson { rate_per_sec: 400.0 },
        n,
        &mut TensorRng::seed_from(3),
    )
    .unwrap();
    let trace: Vec<Due> = arrivals
        .iter()
        .enumerate()
        .map(|(id, &at)| Due {
            at,
            request: Request {
                id: id as u64,
                frames: fx.frames[id].clone(),
                deadline_nanos: None,
                priority: 0,
            },
        })
        .collect();
    let log = replay(&mut server, &clock, trace, &mut HostTimer).unwrap();
    assert_eq!(log.finished.len(), n);
    for f in &log.finished {
        let o = &f.outcome;
        assert_eq!(o.status, CompletionStatus::Completed);
        assert!(fx.matches(o.id as usize, o.prediction.unwrap(), o.timesteps_used));
        assert!(f.latency() >= o.timesteps_used as u64, "latency covers the steps ridden");
    }
    let schedule = server.take_schedule();
    assert_eq!(schedule.len(), log.steps.len());
    assert!(server.stats().spliced_mid_window > 0, "the trace must exercise splicing");
    let sample_of: HashMap<u64, usize> = (0..n).map(|i| (i as u64, i)).collect();
    let mut cost = ReplayCost::default();
    // fails if the window rebuilt from admitted/retired ever differs from `rows`
    replay_schedule(&mut fx.net, &fx.frames, &schedule, &sample_of, &mut cost).unwrap();
    assert_eq!(cost.steps as usize, schedule.len());
    assert_eq!(cost.row_steps as usize, schedule.iter().map(|s| s.rows.len()).sum::<usize>());
    let served_steps: usize = log.finished.iter().map(|f| f.outcome.timesteps_used).sum();
    assert_eq!(cost.row_steps as usize, served_steps);
}

#[test]
fn layer_probes_cover_the_forward_pass() {
    let mut fx = fixture();
    let mut tracer = Tracer::new(1 << 16);
    let mut m = LayerMetrics::default();
    inference_layers(&mut fx, &mut tracer, &mut m).unwrap();
    let coverage = m.get("snn.shadow_coverage");
    assert!((0.90..=1.10).contains(&coverage), "shadow coverage {coverage}");
    // per-kind self times at width 1 add up to about one forward_timestep
    let kinds: f64 = ["conv", "bn", "lif", "pool", "linear", "block"]
        .iter()
        .map(|k| m.get(&format!("snn.{k}_us_per_step_b1")))
        .sum();
    let forward = m.get("snn.forward_timestep_us_b1");
    assert!(kinds > 0.5 * forward && kinds < 1.5 * forward, "kinds {kinds} vs forward {forward}");
    let shares: f64 = (1..=T_MAX).map(|t| m.get(&format!("core.exit_share_t{t}"))).sum();
    assert!((shares - 1.0).abs() < 1e-9);
    assert_eq!(
        m.get("core.row_steps"),
        fx.reference.iter().map(|r| r.timesteps).sum::<usize>() as f64
    );
    for name in [
        "tensor.conv2d_b32_us",
        "snn.train_step_ms",
        "core.softmax_policy_us",
        "tensor.workspace_hits",
    ] {
        assert!(m.get(name) > 0.0, "{name} not measured");
    }
}
