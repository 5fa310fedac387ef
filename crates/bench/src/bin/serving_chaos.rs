//! Chaos benchmark: the sharded fault-tolerant cluster under a seeded
//! fault-intensity sweep — goodput, failure-rate and tail-latency curves
//! as crashes, stalls, slowdowns and transient step errors scale up.
//!
//! Every run replays the same seeded Poisson arrival trace through a
//! 4-worker simulated-clock cluster; only the fault schedule changes, and
//! it too is a pure function of the committed seed and the intensity
//! knob. Intensity 0 is the control arm (no faults); each nonzero rung
//! multiplies the base event rates. The bin asserts the tentpole
//! invariants at every rung — exactly-once termination, a balanced stats
//! ledger, and *strictly positive goodput* (the cluster degrades, it
//! never collapses) — and that the fault plane actually injected
//! something wherever intensity > 0.
//!
//! Results go to `bench-results/serving_chaos.json`.
//!
//! With `DTSNN_CHAOS_SMOKE=1` the sweep shrinks to a CI-sized budget.

use dtsnn_bench::{json, print_table, write_json};
use dtsnn_serve::{
    generate_arrivals, ArrivalProcess, BrownoutConfig, Cluster, ClusterConfig, FaultSchedule,
    FaultSpec, Request, ServerConfig, ServiceModel, ThetaController, TracedRequest,
};
use dtsnn_snn::{vgg_small, LifConfig, ModelConfig, Snn};
use dtsnn_tensor::{Tensor, TensorRng};

const MAX_T: usize = 4;
const SLOTS: usize = 4;
const WORKERS: usize = 4;
const DEADLINE_NANOS: u64 = 40_000_000; // 40 ms budget per request
/// Simulated per-step cost: 1 ms dispatch + 0.25 ms per batch row.
const SERVICE: ServiceModel =
    ServiceModel { step_fixed_nanos: 1_000_000, step_per_row_nanos: 250_000 };
const THETA_FLOOR: f32 = 0.70;
const THETA_CEIL: f32 = 0.98;
const OFFERED_RATE: f64 = 600.0; // req/s: light for 4 workers, tight under faults

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

fn cluster_config() -> Result<ClusterConfig, Box<dyn std::error::Error>> {
    let server = ServerConfig {
        max_timesteps: MAX_T,
        slots: SLOTS,
        queue_capacity: SLOTS, // overridden per worker by the cluster anyway
        theta: ThetaController::new(THETA_FLOOR, THETA_CEIL, 8.0)?,
        service: SERVICE,
        default_deadline_nanos: Some(DEADLINE_NANOS),
        record_schedule: false,
    };
    Ok(ClusterConfig {
        server,
        queue_capacity: 256,
        retry_budget: 3,
        backoff_base_nanos: 2_000_000,           // 2 ms
        stall_timeout_nanos: Some(25_000_000),   // 25 ms
        hedge_after_nanos: Some(30_000_000),     // 30 ms, inside the 40 ms budget
        max_consecutive_faults: 3,
        brownout: BrownoutConfig {
            theta_pressure_depth: 8,
            cap_depth: 16,
            timestep_cap: 2,
            shed_depth: 32,
            shed_below_priority: 1,
        },
        record_events: false,
    })
}

/// Base fault mix at intensity 1.0, per worker: a couple of crashes and a
/// few stalls/slowdowns/error bursts over a ~0.7 s run.
fn base_faults() -> FaultSpec {
    FaultSpec {
        crash_per_sec: 2.0,
        restart_after_nanos: 50_000_000, // 50 ms outage
        stall_per_sec: 3.0,
        mean_stall_nanos: 30_000_000,
        slowdown_per_sec: 3.0,
        slowdown_factor: 3.0,
        mean_slowdown_nanos: 40_000_000,
        transient_per_sec: 5.0,
        transient_count: 2,
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
                // a quarter of the traffic is high priority: the brownout
                // ladder may shed the rest first under pressure
                priority: u8::from(i % 4 == 0),
            },
        })
        .collect()
}

fn fmt_ms(nanos: u64) -> String {
    format!("{:.2}", nanos as f64 / 1e6)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::var("DTSNN_CHAOS_SMOKE").is_ok();
    let requests = if smoke { 80 } else { 400 };
    let intensities: &[f64] = if smoke { &[0.0, 1.0] } else { &[0.0, 0.5, 1.0, 2.0] };

    let mut arrival_rng = TensorRng::seed_from(0xC4A0_10AD);
    let arrivals =
        generate_arrivals(ArrivalProcess::Poisson { rate_per_sec: OFFERED_RATE }, requests, &mut arrival_rng)?;
    let trace = build_trace(&arrivals, 0xC4A0_F4A3);
    let horizon = arrivals.last().copied().unwrap_or(0) + 200_000_000; // arrivals + 200 ms drain

    let mut runs = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for &intensity in intensities {
        let spec = base_faults().scaled(intensity);
        let mut fault_rng = TensorRng::seed_from(0xFA17_5EED ^ intensity.to_bits());
        let schedule = FaultSchedule::generate(&spec, WORKERS, horizon, &mut fault_rng)?;
        let injected = schedule.len();
        if intensity > 0.0 {
            assert!(injected > 0, "intensity {intensity} must schedule faults");
        }

        let mut cluster = Cluster::simulated(fresh_net()?, cluster_config()?, WORKERS, schedule)?;
        cluster.run_trace(&trace)?;
        let elapsed = cluster.now();
        let stats = cluster.stats();
        let outcomes = cluster.take_outcomes();

        // the tentpole invariants, re-asserted on the bench fixture
        assert_eq!(outcomes.len(), trace.len(), "every request must terminate exactly once");
        assert_eq!(
            stats.rejected + stats.shed + stats.completed + stats.expired + stats.failed,
            stats.submitted,
            "the termination ledger must balance: {stats:?}"
        );
        let report = dtsnn_serve::summarize(&outcomes, elapsed);
        assert!(
            report.goodput_per_sec > 0.0,
            "goodput must stay strictly positive at intensity {intensity}: {stats:?}"
        );
        if intensity == 0.0 {
            assert!(
                report.failure_rate < 0.01,
                "the no-fault control arm must serve cleanly, failure rate {}",
                report.failure_rate
            );
        } else {
            assert!(
                stats.worker_crashes + stats.stalls_detected + stats.transient_faults > 0,
                "intensity {intensity} must actually perturb the cluster: {stats:?}"
            );
        }

        rows.push(vec![
            format!("{intensity:.1}"),
            injected.to_string(),
            format!("{:.0}/s", report.goodput_per_sec),
            format!("{:.1}%", report.failure_rate * 100.0),
            fmt_ms(report.p50_latency_nanos),
            fmt_ms(report.censored_p99_latency_nanos),
            stats.worker_crashes.to_string(),
            stats.requeues.to_string(),
            stats.hedges.to_string(),
            stats.shed.to_string(),
        ]);
        runs.push(json!({
            "intensity": intensity,
            "faults_scheduled": injected as u64,
            "offered": report.offered,
            "completed": report.completed,
            "timed_out": report.timed_out,
            "rejected": report.rejected,
            "failed": report.failed,
            "goodput_per_sec": report.goodput_per_sec,
            "failure_rate": report.failure_rate,
            "p50_latency_ms": report.p50_latency_nanos as f64 / 1e6,
            "p99_latency_ms": report.p99_latency_nanos as f64 / 1e6,
            "censored_p50_latency_ms": report.censored_p50_latency_nanos as f64 / 1e6,
            "censored_p99_latency_ms": report.censored_p99_latency_nanos as f64 / 1e6,
            "avg_timesteps": report.avg_timesteps,
            "worker_crashes": stats.worker_crashes,
            "worker_restarts": stats.worker_restarts,
            "stalls_detected": stats.stalls_detected,
            "transient_faults": stats.transient_faults,
            "requeues": stats.requeues,
            "hedges": stats.hedges,
            "duplicates_suppressed": stats.duplicates_suppressed,
            "shed": stats.shed,
            "max_brownout_level": stats.max_brownout_level,
        }));
    }

    print_table(
        &format!(
            "sharded serving under chaos, {requests} requests at {OFFERED_RATE:.0}/s, \
             {WORKERS} workers × {SLOTS} slots, T={MAX_T}, deadline {} ms (simulated clock)",
            DEADLINE_NANOS / 1_000_000
        ),
        &[
            "intensity", "faults", "goodput", "failures", "p50 ms", "c-p99 ms", "crashes",
            "requeues", "hedges", "shed",
        ],
        &rows,
    );

    let doc = json!({
        "requests_per_run": requests,
        "offered_rate_per_sec": OFFERED_RATE,
        "workers": WORKERS,
        "slots": SLOTS,
        "max_timesteps": MAX_T,
        "deadline_ms": DEADLINE_NANOS as f64 / 1e6,
        "service_model": json!({
            "step_fixed_ms": SERVICE.step_fixed_nanos as f64 / 1e6,
            "step_per_row_ms": SERVICE.step_per_row_nanos as f64 / 1e6,
        }),
        "theta": json!({ "min": THETA_FLOOR, "max": THETA_CEIL }),
        "retry_budget": 3,
        "arch": "vgg_small",
        "clock": "simulated",
        "runs": runs,
    });
    if smoke {
        println!("\nsmoke mode: skipping bench-results write");
    } else {
        let path = write_json("serving_chaos", &doc)?;
        println!("\nwrote {}", path.display());
    }
    Ok(())
}
