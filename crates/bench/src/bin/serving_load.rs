//! Serving-layer load benchmark: the continuous-batching engine under
//! Poisson and bursty open-loop arrivals, fixed θ vs SLO-aware dynamic θ.
//!
//! Every run replays a seeded arrival trace through the simulated-clock
//! server, so the numbers are a pure function of the committed seeds — no
//! wall-clock noise. Per load level the same trace is served twice, once
//! with a fixed accuracy-favoring θ and once with a dynamic controller
//! that tightens θ under queue pressure (shedding timesteps exactly when
//! the queue is deep) and relaxes it when idle. Under overload the dynamic
//! arm must improve goodput and failure rate — the bin asserts it.
//!
//! Results go to `bench-results/serving_load.json` (p50/p99 latency,
//! goodput, failure rate, mean T̂ per run).
//!
//! With `DTSNN_SERVE_SMOKE_SECS=<n>` the bin instead runs an n-second
//! real-clock smoke: a producer thread feeds Poisson traffic through an
//! MPSC channel into `run_channel` under `RealClock`, exercising the live
//! reactor path end to end (used by the CI serving stage).

use dtsnn_bench::{json, print_table, write_json};
use dtsnn_serve::{
    generate_arrivals, replay_trace, run_channel, ArrivalProcess, LoadReport, RealClock, Request,
    Server, ServerConfig, ServiceModel, SimClock, ThetaController, TracedRequest,
};
use dtsnn_snn::{vgg_small, LifConfig, ModelConfig, Snn};
use dtsnn_tensor::{Tensor, TensorRng};

const MAX_T: usize = 4;
const SLOTS: usize = 4;
const QUEUE: usize = 64;
const DEADLINE_NANOS: u64 = 40_000_000; // 40 ms budget per request
const REQUESTS: usize = 400;
/// Simulated per-step cost: 1 ms dispatch + 0.25 ms per batch row.
const SERVICE: ServiceModel = ServiceModel { step_fixed_nanos: 1_000_000, step_per_row_nanos: 250_000 };
/// Accuracy-favoring floor: the fixed arm always runs here.
const THETA_FLOOR: f32 = 0.70;
/// Load-shedding ceiling for the dynamic arm.
const THETA_CEIL: f32 = 0.98;

fn model_config() -> ModelConfig {
    ModelConfig {
        in_channels: 2,
        image_size: 8,
        num_classes: 4,
        lif: LifConfig { v_th: 1.0, tau: 0.75, ..LifConfig::default() },
        width: 4,
        // untrained Eval nets need the calibrated tdBN gain to spike at all
        tdbn_alpha: 6.0,
    }
}

fn fresh_net() -> dtsnn_snn::Result<Snn> {
    vgg_small(&model_config(), &mut TensorRng::seed_from(17))
}

fn config(theta: ThetaController) -> ServerConfig {
    ServerConfig {
        max_timesteps: MAX_T,
        slots: SLOTS,
        queue_capacity: QUEUE,
        theta,
        service: SERVICE,
        default_deadline_nanos: Some(DEADLINE_NANOS),
        record_schedule: false,
    }
}

fn build_trace(arrivals: &[u64], seed: u64) -> Vec<TracedRequest> {
    let mut rng = TensorRng::seed_from(seed);
    arrivals
        .iter()
        .enumerate()
        .map(|(i, &at)| TracedRequest {
            at_nanos: at,
            request: Request {
                id: i as u64,
                frames: vec![Tensor::randn(&[2, 8, 8], 0.5, 0.5, &mut rng)],
                deadline_nanos: None,
                priority: 0,
            },
        })
        .collect()
}

fn serve(trace: &[TracedRequest], theta: ThetaController) -> (LoadReport, f32, f32) {
    let mut server =
        Server::new(fresh_net().expect("model builds"), config(theta), SimClock::new())
            .expect("valid config");
    replay_trace(&mut server, trace).expect("replay succeeds");
    let elapsed = server.now();
    let outcomes = server.take_outcomes();
    let stats = server.stats();
    assert_eq!(outcomes.len(), trace.len(), "every request must terminate");
    let report = dtsnn_serve::summarize(&outcomes, elapsed);
    let avg_width = if stats.steps > 0 {
        // rows served per step: total timesteps executed / steps
        outcomes.iter().map(|o| o.timesteps_used as f32).sum::<f32>() / stats.steps as f32
    } else {
        0.0
    };
    (report, avg_width, stats.spliced_mid_window as f32)
}

fn fmt_ms(nanos: u64) -> String {
    format!("{:.2}", nanos as f64 / 1e6)
}

fn real_clock_smoke(secs: u64) -> Result<(), Box<dyn std::error::Error>> {
    let mut server = Server::new(
        fresh_net()?,
        config(ThetaController::new(THETA_FLOOR, THETA_CEIL, 8.0)?),
        RealClock::new(),
    )?;
    let (tx, rx) = std::sync::mpsc::channel::<Request>();
    let producer = std::thread::spawn(move || {
        let mut rng = TensorRng::seed_from(0x5E4E);
        let mut sent = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_secs() < secs {
            let frame = Tensor::randn(&[2, 8, 8], 0.5, 0.5, &mut rng);
            if tx
                .send(Request { id: sent, frames: vec![frame], deadline_nanos: None, priority: 0 })
                .is_err()
            {
                break;
            }
            sent += 1;
            // ~200 req/s of live traffic
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        sent
    });
    run_channel(&mut server, &rx)?;
    let sent = producer.join().expect("producer thread");
    let outcomes = server.take_outcomes();
    let report = dtsnn_serve::summarize(&outcomes, server.now());
    assert_eq!(outcomes.len() as u64, sent, "live reactor must account for every request");
    assert!(report.completed > 0, "live reactor must complete requests");
    println!(
        "real-clock smoke: {}s, {} requests, {} completed, p99 {} ms, goodput {:.0}/s",
        secs,
        sent,
        report.completed,
        fmt_ms(report.p99_latency_nanos),
        report.goodput_per_sec
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    if let Ok(v) = std::env::var("DTSNN_SERVE_SMOKE_SECS") {
        let secs: u64 = v.parse().map_err(|_| format!("bad DTSNN_SERVE_SMOKE_SECS: {v}"))?;
        return real_clock_smoke(secs);
    }

    // offered load levels in requests/second: light, near saturation (the
    // 4-slot window at ~2 ms/step serves roughly 600-700/s), and overload
    let levels = [300.0f64, 600.0, 1200.0];
    let dynamic = ThetaController::new(THETA_FLOOR, THETA_CEIL, 8.0)?;
    let fixed = ThetaController::fixed(THETA_FLOOR)?;

    let mut runs = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut overload_checked = false;
    for (pi, process_name) in ["poisson", "bursty"].iter().enumerate() {
        for &rate in &levels {
            let process = if pi == 0 {
                ArrivalProcess::Poisson { rate_per_sec: rate }
            } else {
                // bursts at 4× the average rate; off phases make up the gap
                ArrivalProcess::Bursty {
                    rate_per_sec: rate * 4.0,
                    mean_on_nanos: 20_000_000,
                    mean_off_nanos: 60_000_000,
                }
            };
            let mut rng = TensorRng::seed_from(0x10AD ^ (pi as u64) << 16 ^ rate.to_bits());
            let arrivals = generate_arrivals(process, REQUESTS, &mut rng)?;
            let trace = build_trace(&arrivals, 0xF4A3 ^ rate.to_bits());

            let (fixed_report, _, _) = serve(&trace, fixed);
            let (dyn_report, _, spliced) = serve(&trace, dynamic);
            assert!(spliced > 0.0, "load runs must exercise mid-window admission");

            for (arm, r) in [("fixed", &fixed_report), ("dynamic", &dyn_report)] {
                rows.push(vec![
                    process_name.to_string(),
                    format!("{rate:.0}/s"),
                    arm.to_string(),
                    fmt_ms(r.p50_latency_nanos),
                    fmt_ms(r.p99_latency_nanos),
                    format!("{:.0}/s", r.goodput_per_sec),
                    format!("{:.1}%", r.failure_rate * 100.0),
                    format!("{:.2}", r.avg_timesteps),
                ]);
                runs.push(json!({
                    "process": process_name.to_string(),
                    "offered_rate_per_sec": rate,
                    "controller": arm.to_string(),
                    "theta_min": THETA_FLOOR,
                    "theta_max": if arm == "fixed" { THETA_FLOOR } else { THETA_CEIL },
                    "offered": r.offered,
                    "completed": r.completed,
                    "timed_out": r.timed_out,
                    "rejected": r.rejected,
                    "failed": r.failed,
                    "p50_latency_ms": r.p50_latency_nanos as f64 / 1e6,
                    "p99_latency_ms": r.p99_latency_nanos as f64 / 1e6,
                    "censored_p50_latency_ms": r.censored_p50_latency_nanos as f64 / 1e6,
                    "censored_p99_latency_ms": r.censored_p99_latency_nanos as f64 / 1e6,
                    "goodput_per_sec": r.goodput_per_sec,
                    "failure_rate": r.failure_rate,
                    "avg_timesteps": r.avg_timesteps,
                }));
            }

            // the headline claim: under overload, shedding timesteps via
            // dynamic θ buys goodput and failure rate. (p99 over *completed*
            // requests saturates at the deadline for both arms and is
            // survivor-biased — the fixed arm times its hard tail out
            // instead of completing it — so the tail comparison lives in
            // failure_rate, not the percentile.)
            if rate >= 1200.0 {
                overload_checked = true;
                assert!(
                    dyn_report.goodput_per_sec > fixed_report.goodput_per_sec,
                    "{process_name} overload: dynamic goodput {} must beat fixed {}",
                    dyn_report.goodput_per_sec,
                    fixed_report.goodput_per_sec
                );
                assert!(
                    dyn_report.failure_rate < fixed_report.failure_rate,
                    "{process_name} overload: dynamic failure rate {} must beat fixed {}",
                    dyn_report.failure_rate,
                    fixed_report.failure_rate
                );
                assert!(
                    dyn_report.avg_timesteps < fixed_report.avg_timesteps,
                    "{process_name} overload: the win must come from shed timesteps"
                );
            }
        }
    }
    assert!(overload_checked, "the sweep must include an overload level");

    print_table(
        &format!(
            "continuous-batching serving, {REQUESTS} requests/run, {SLOTS} slots, T={MAX_T}, \
             deadline {} ms (simulated clock)",
            DEADLINE_NANOS / 1_000_000
        ),
        &["process", "offered", "θ control", "p50 ms", "p99 ms", "goodput", "failures", "mean T̂"],
        &rows,
    );

    let doc = json!({
        "requests_per_run": REQUESTS,
        "slots": SLOTS,
        "max_timesteps": MAX_T,
        "queue_capacity": QUEUE,
        "deadline_ms": DEADLINE_NANOS as f64 / 1e6,
        "service_model": json!({
            "step_fixed_ms": SERVICE.step_fixed_nanos as f64 / 1e6,
            "step_per_row_ms": SERVICE.step_per_row_nanos as f64 / 1e6,
        }),
        "arch": "vgg_small",
        "clock": "simulated",
        "runs": runs,
    });
    let path = write_json("serving_load", &doc)?;
    println!("\nwrote {}", path.display());
    Ok(())
}
