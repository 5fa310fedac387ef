//! `serve_poisson`: the vgg network inside `Server<SimClock>`, driven by an
//! open loop of Poisson arrivals replayed in virtual time (see
//! [`crate::replay`]).
//!
//! It uses `snn` differently from the other two inference workloads: batch
//! widths fluctuate between 1 and the slot count, and rows are spliced into
//! an open window (`admit_batch_rows`) as well as compacted out of it.
//! Under load a step-time saving is amplified by about `1 / (1 − ρ)` in
//! queue wait, so latency here can move more than the step time does.
//!
//! A pass is an open-loop segment (latency) followed by a saturated segment
//! in which every request is due at once (`samples_per_s` = capacity).
//!
//! The *shape* of the traffic — the arrival times and the exit timestep of
//! the sample in each slot — is fixed; the seed chooses which sample of that
//! exit class fills each slot. Latency percentiles of a few hundred Poisson
//! arrivals are otherwise a property of the trace: with a third of arrivals
//! meeting a busy server, rank 50 sits on the edge between "idle arrival,
//! T̂ = 1" and everything slower, and p50 moved 21 % (p90 15 %) between
//! seeds on identical code.

use super::{traced_passes, Spec};
use crate::passes::{run_for, summarize, Pass};
use crate::probes::inference_layers;
use crate::replay::{replay, Due, HostTimer, ReplayLog, StepTimer};
use crate::report::{LayerMetrics, Measured, Traced};
use crate::setup::{shuffled, Fixture, T_MAX, VGG};
use crate::shadow::{replay_schedule, ReplayCost};
use crate::spans::{timed, Tracer};
use crate::stats::{percentile, sorted};
use crate::{fail, Result};
use dtsnn_serve::{
    generate_arrivals, run_channel, ArrivalProcess, Clock, CompletionStatus, RealClock, Request,
    Server, ServerConfig, ServerStats, ServiceModel, SimClock, StepRecord, ThetaController,
};
use dtsnn_tensor::TensorRng;
use std::collections::HashMap;
use std::time::Instant;

/// Concurrent in-flight rows.
const SLOTS: usize = 8;
/// Latency limit: the per-request deadline and the SLO on p90.
const DEADLINE_NANOS: u64 = 40_000_000;
/// Offered rate of the gated open-loop segment (utilisation ≈ 0.3).
const RATE: f64 = 120.0;
/// Requests of the real-clock validation run (2 s at [`RATE`]).
const REAL_REQUESTS: usize = 240;
/// Seed of the traffic shape (arrival times, exit class per slot).
const SHAPE_SEED: u64 = crate::setup::FIXED_SEED ^ 0x5EE9;

/// A seeded permutation of the split that maps every sample to one with
/// the same exit timestep.
fn within_exit_class(fx: &Fixture, seed: u64) -> Vec<usize> {
    let mut rng = TensorRng::seed_from(seed);
    let mut image: Vec<usize> = (0..fx.frames.len()).collect();
    for t in 1..=T_MAX {
        let class: Vec<usize> =
            (0..fx.frames.len()).filter(|&i| fx.reference[i].timesteps == t).collect();
        for (&from, to) in class.iter().zip(shuffled(class.len(), &mut rng)) {
            image[from] = class[to];
        }
    }
    image
}

/// A request stream: which sample each request carries and when it is due,
/// relative to the start of the segment.
struct Stream {
    samples: Vec<usize>,
    offsets: Vec<u64>,
    deadline: Option<u64>,
}

impl Stream {
    /// `sweeps` permutations of the split, arriving as a Poisson process at
    /// `rate` requests per second. `shape` fixes the arrival times and the
    /// exit class of every slot; `image` fills the slots.
    fn open_loop(
        fx: &Fixture,
        sweeps: usize,
        rate: f64,
        shape: &mut TensorRng,
        image: &[usize],
    ) -> Result<Stream> {
        let samples: Vec<usize> =
            (0..sweeps).flat_map(|_| shuffled(fx.frames.len(), shape)).map(|i| image[i]).collect();
        let offsets = generate_arrivals(
            ArrivalProcess::Poisson { rate_per_sec: rate },
            samples.len(),
            shape,
        )?;
        Ok(Stream { samples, offsets, deadline: None })
    }

    /// One permutation of the split, all due at once and exempt from the
    /// deadline (the backlog is the point).
    fn saturated(fx: &Fixture, shape: &mut TensorRng, image: &[usize]) -> Stream {
        let samples: Vec<usize> =
            shuffled(fx.frames.len(), shape).into_iter().map(|i| image[i]).collect();
        Stream { offsets: vec![0; samples.len()], samples, deadline: Some(u64::MAX / 2) }
    }

    fn requests(&self, fx: &Fixture, base: u64) -> Vec<Due> {
        self.samples
            .iter()
            .zip(&self.offsets)
            .enumerate()
            .map(|(id, (&i, &offset))| Due {
                at: base + offset,
                request: Request {
                    id: id as u64,
                    frames: fx.frames[i].clone(),
                    deadline_nanos: self.deadline,
                    priority: 0,
                },
            })
            .collect()
    }
}

fn config(theta: f32, record_schedule: bool) -> Result<ServerConfig> {
    Ok(ServerConfig {
        max_timesteps: T_MAX,
        slots: SLOTS,
        queue_capacity: 1 << 20,
        theta: ThetaController::fixed(theta)?,
        // virtual time advances only by the measured host time of each step
        service: ServiceModel { step_fixed_nanos: 0, step_per_row_nanos: 0 },
        default_deadline_nanos: Some(DEADLINE_NANOS),
        record_schedule,
    })
}

/// The server under test and the handle that steers its clock.
struct Harness {
    server: Server<SimClock>,
    clock: SimClock,
}

impl Harness {
    fn new(fx: &Fixture, record_schedule: bool) -> Result<Harness> {
        let clock = SimClock::new();
        let server =
            Server::new(fx.net.clone(), config(fx.recipe.theta, record_schedule)?, clock.clone())?;
        Ok(Harness { server, clock })
    }

    /// Replays a stream and checks every completed request against the
    /// reference; returns the log and the number of failed requests.
    fn run(
        &mut self,
        fx: &Fixture,
        stream: &Stream,
        timer: &mut dyn StepTimer,
    ) -> Result<(ReplayLog, u64)> {
        let trace = stream.requests(fx, self.clock.now());
        let log = replay(&mut self.server, &self.clock, trace, timer)?;
        if log.finished.len() != stream.samples.len() {
            return fail(format!(
                "{} requests sent, {} outcomes",
                stream.samples.len(),
                log.finished.len()
            ));
        }
        let mut failed = 0;
        for f in &log.finished {
            let o = &f.outcome;
            if o.status != CompletionStatus::Completed {
                failed += 1;
                continue;
            }
            let i = stream.samples[o.id as usize];
            if !o.prediction.is_some_and(|p| fx.matches(i, p, o.timesteps_used)) {
                return fail(format!(
                    "sample {i}: served path gave (class {:?}, T̂ {}), reference {:?}",
                    o.prediction, o.timesteps_used, fx.reference[i]
                ));
            }
        }
        Ok((log, failed))
    }
}

/// Latency of every request, indexed by request id; a request that did not
/// complete in time misses every latency limit.
fn latencies_ms(log: &ReplayLog) -> Vec<f64> {
    let mut by_id = vec![f64::INFINITY; log.finished.len()];
    for f in &log.finished {
        if f.outcome.status == CompletionStatus::Completed {
            by_id[f.outcome.id as usize] = f.latency() as f64 / 1e6;
        }
    }
    by_id
}

/// The seeded streams of one pass.
struct Plan {
    open: Stream,
    saturated: Stream,
}

impl Plan {
    /// Requests one pass sends.
    fn requests(&self) -> usize {
        self.open.samples.len() + self.saturated.samples.len()
    }
}

/// One pass: the open-loop segment gives the latencies, the saturated
/// segment the capacity. Returns the pass and its failed requests.
fn pass(
    h: &mut Harness,
    fx: &Fixture,
    plan: &Plan,
    timer: &mut dyn StepTimer,
) -> Result<(Pass, u64)> {
    let (open, failed_open) = h.run(fx, &plan.open, timer)?;
    let (sat, failed_sat) = h.run(fx, &plan.saturated, timer)?;
    // with everything queued at once the schedule does not depend on step
    // timing, so step k does the same work in every pass
    Ok((
        Pass {
            work: (plan.saturated.samples.len() as u64 - failed_sat) as f64,
            service_s: sat.steps.iter().map(|s| s.nanos as f64 / 1e9).collect(),
            latencies_ms: latencies_ms(&open),
        },
        failed_open + failed_sat,
    ))
}

fn set_up(spec: Spec, record_schedule: bool) -> Result<(Fixture, Harness, Plan, f64)> {
    let t0 = Instant::now();
    let fx = Fixture::build(VGG)?;
    let image = within_exit_class(&fx, spec.seed);
    let mut shape = TensorRng::seed_from(SHAPE_SEED);
    let plan = Plan {
        open: Stream::open_loop(&fx, 2, RATE, &mut shape, &image)?,
        saturated: Stream::saturated(&fx, &mut shape, &image),
    };
    let mut h = Harness::new(&fx, record_schedule)?;
    pass(&mut h, &fx, &plan, &mut HostTimer)?;
    Ok((fx, h, plan, t0.elapsed().as_secs_f64()))
}

/// Untraced run: end-to-end metrics.
pub fn measure(spec: Spec) -> Result<Measured> {
    let (fx, mut h, plan, setup_s) = set_up(spec, false)?;
    let mut failed = 0;
    let passes = run_for(spec.seconds, || {
        let (p, f) = pass(&mut h, &fx, &plan, &mut HostTimer)?;
        failed += f;
        Ok(p)
    })?;
    let timing = summarize(&passes)?;
    if !timing.p90_ms.is_finite() {
        return fail("a tenth of the requests missed the deadline in every pass");
    }
    fx.measured(timing, setup_s, (passes.len() * plan.requests()) as u64, failed)
}

/// Times each step as a span, so traced passes carry the tracer's cost.
struct SpanTimer<'a> {
    tracer: &'a mut Tracer,
    steps: u64,
}

impl StepTimer for SpanTimer<'_> {
    fn time(&mut self, step: &mut dyn FnMut()) -> u64 {
        self.steps += 1;
        let ((), ms) = timed(Some(&mut *self.tracer), "serve.step", self.steps, step);
        (ms * 1e6) as u64
    }
}

/// Queue wait of every admitted request: admission step start − due time.
fn queue_waits_ms(schedule: &[StepRecord], stream: &Stream, base: u64) -> Vec<f64> {
    schedule
        .iter()
        .flat_map(|s| {
            s.admitted.iter().map(move |&id| {
                s.start_nanos.saturating_sub(base + stream.offsets[id as usize]) as f64 / 1e6
            })
        })
        .collect()
}

/// Serves `stream` from a live MPSC queue on a real clock; returns the
/// median completion latency, ms.
fn real_clock_p50_ms(fx: &Fixture, stream: &Stream) -> Result<f64> {
    let clock = RealClock::new();
    let mut server = Server::new(fx.net.clone(), config(fx.recipe.theta, false)?, clock.clone())?;
    let requests = stream.requests(fx, 0);
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::scope(|scope| -> Result<()> {
        let producer = scope.spawn(move || {
            for d in requests {
                clock.wait_until(d.at);
                if tx.send(d.request).is_err() {
                    break;
                }
            }
        });
        let served = run_channel(&mut server, &rx);
        drop(rx);
        producer.join().map_err(|_| "load generator thread panicked")?;
        Ok(served?)
    })?;
    let lat: Vec<f64> = server
        .take_outcomes()
        .iter()
        .filter(|o| o.status == CompletionStatus::Completed)
        .map(|o| o.latency_nanos() as f64 / 1e6)
        .collect();
    if lat.is_empty() {
        return fail("no request completed on the real clock");
    }
    Ok(percentile(&sorted(lat), 50.0))
}

/// One open-loop segment of the load sweep, schedule recorded.
struct RateRun {
    stream: Stream,
    log: ReplayLog,
    schedule: Vec<StepRecord>,
    /// Clock reading the stream's offsets are relative to.
    base: u64,
    /// Requests that missed the deadline.
    late: u64,
    /// Sorted latencies, a late request counted at the deadline.
    latencies_ms: Vec<f64>,
}

const LIMIT_MS: f64 = DEADLINE_NANOS as f64 / 1e6;

fn rate_run(h: &mut Harness, fx: &Fixture, image: &[usize], rate: f64) -> Result<RateRun> {
    let stream = Stream::open_loop(fx, 2, rate, &mut TensorRng::seed_from(SHAPE_SEED), image)?;
    h.server.take_schedule();
    let base = h.clock.now();
    let (log, late) = h.run(fx, &stream, &mut HostTimer)?;
    let schedule = h.server.take_schedule();
    let latencies_ms = sorted(latencies_ms(&log).into_iter().map(|ms| ms.min(LIMIT_MS)).collect());
    Ok(RateRun { stream, log, schedule, base, late, latencies_ms })
}

/// `serve.*` of the gated rate: what the engine did with the 120 req/s
/// segment, and what its forwards cost when replayed outside it.
fn engine_metrics(
    fx: &mut Fixture,
    run: &RateRun,
    stats: [ServerStats; 2],
    m: &mut LayerMetrics,
) -> Result<()> {
    let RateRun { stream, log, schedule, .. } = run;
    let steps = sorted(log.steps.iter().map(|s| s.nanos as f64 / 1e6).collect());
    m.set("serve.step_ms_p50", percentile(&steps, 50.0));
    m.set("serve.step_ms_p90", percentile(&steps, 90.0));
    m.set("serve.submit_us", log.submit_nanos as f64 / 1e3 / stream.samples.len() as f64);
    let waits = sorted(queue_waits_ms(schedule, stream, run.base));
    m.set("serve.queue_wait_ms_p50", percentile(&waits, 50.0));
    m.set("serve.queue_wait_ms_p90", percentile(&waits, 90.0));
    let rows: usize = schedule.iter().map(|s| s.rows.len()).sum();
    m.set("serve.batch_width_mean", rows as f64 / schedule.len() as f64);
    let [before, after] = stats;
    m.set("serve.peak_width", after.peak_width as f64);
    m.set("serve.steps", (after.steps - before.steps) as f64);
    m.set(
        "serve.spliced_share",
        (after.spliced_mid_window - before.spliced_mid_window) as f64
            / (after.admitted - before.admitted) as f64,
    );
    m.set("serve.utilization", log.busy() as f64 / log.elapsed() as f64);
    let sample_of: HashMap<u64, usize> =
        stream.samples.iter().enumerate().map(|(id, &i)| (id as u64, i)).collect();
    let mut forward = u64::MAX;
    for _ in 0..2 {
        let mut cost = ReplayCost::default();
        replay_schedule(&mut fx.net, &fx.frames, schedule, &sample_of, &mut cost)?;
        forward = forward.min(cost.forward_nanos);
    }
    m.set("serve.engine_overhead_ratio", log.busy() as f64 / forward as f64 - 1.0);
    Ok(())
}

/// Traced run: per-layer metrics.
pub fn trace(spec: Spec, tracer: &mut Tracer) -> Result<Traced> {
    let (mut fx, mut h, plan, _) = set_up(spec, true)?;
    let mut m = LayerMetrics::default();

    let mut failed = 0;
    let passes = traced_passes(spec.seconds, tracer, |t| {
        let (p, f) = match t {
            Some(tracer) => pass(&mut h, &fx, &plan, &mut SpanTimer { tracer, steps: 0 })?,
            None => pass(&mut h, &fx, &plan, &mut HostTimer)?,
        };
        failed += f;
        Ok(p)
    })?;
    m.set("trace.overhead_ratio", passes.overhead_ratio);
    let mut attempted = (passes.passes * plan.requests()) as u64;

    // --- the same traffic shape at each swept rate ---------------------------
    let image = within_exit_class(&fx, spec.seed);
    let before = h.server.stats();
    let r120 = rate_run(&mut h, &fx, &image, RATE)?;
    engine_metrics(&mut fx, &r120, [before, h.server.stats()], &mut m)?;
    let r240 = rate_run(&mut h, &fx, &image, 240.0)?;
    let r360 = rate_run(&mut h, &fx, &image, 360.0)?;
    m.set("serve.latency_p99_ms_r120", percentile(&r120.latencies_ms, 99.0));
    m.set("serve.latency_p90_ms_r240", percentile(&r240.latencies_ms, 90.0));
    m.set("serve.latency_p90_ms_r360", percentile(&r360.latencies_ms, 90.0));
    m.set("serve.timeout_share_r360", r360.late as f64 / r360.stream.samples.len() as f64);
    // the overload probes are not operations of the workload: their late
    // requests are the measurement (`serve.timeout_share_r360`)
    attempted += r120.stream.samples.len() as u64;
    failed += r120.late;
    let mut in_slo = 0.0;
    for (rate, run) in [(RATE, &r120), (240.0, &r240), (360.0, &r360)] {
        if percentile(&run.latencies_ms, 90.0) < LIMIT_MS && run.late == 0 {
            in_slo = rate;
        }
    }
    m.set("serve.max_rate_in_slo", in_slo);

    // --- the same arrivals on a real clock validate the virtual replay ------
    let mut real = r120.stream;
    real.samples.truncate(REAL_REQUESTS);
    real.offsets.truncate(REAL_REQUESTS);
    let virtual_p50 = percentile(&r120.latencies_ms, 50.0);
    m.set("serve.realclock_p50_ratio", real_clock_p50_ms(&fx, &real)? / virtual_p50);

    inference_layers(&mut fx, tracer, &mut m)?;
    Ok(Traced { metrics: m, attempted, failed })
}
