//! The continuous-batching engine: an open inference window whose rows
//! retire on entropy exits and whose vacated slots admit queued requests
//! mid-window.

use crate::clock::Clock;
use crate::controller::ThetaController;
use crate::{Result, ServeError};
use dtsnn_core::window::Window;
use dtsnn_core::ExitPolicy;
use dtsnn_snn::{batch1_frames, PrefixStats, Snn};
use dtsnn_tensor::{Tensor, WorkspaceStats};
use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, TryRecvError};
use std::time::Duration;

/// One inference request: a static frame or one frame per timestep, plus an
/// optional latency budget.
#[derive(Debug, Clone)]
pub struct Request {
    /// Caller-chosen identifier echoed in the [`RequestOutcome`].
    pub id: u64,
    /// Either one `[c, h, w]` frame (static input, direct encoding) or
    /// exactly `max_timesteps` frames (event data), all of one shape, none
    /// empty. A leading batch axis of one is also accepted
    /// ([`dtsnn_snn::check_frames`]).
    pub frames: Vec<Tensor>,
    /// Latency budget in nanoseconds from arrival; `None` uses the server's
    /// default (which may itself be "no deadline").
    pub deadline_nanos: Option<u64>,
    /// Scheduling priority (higher is more important). A single [`Server`]
    /// serves FIFO regardless of priority; the cluster's brownout ladder
    /// sheds the lowest-priority queued requests first under overload.
    pub priority: u8,
}

/// How a request left the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionStatus {
    /// Exited (early or at the full window) within its deadline.
    Completed,
    /// Terminated past its deadline — while queued (no prediction) or
    /// mid-window (best-effort prediction from the logits folded so far).
    TimedOut,
    /// Refused at submission: the pending queue was at capacity — or, at
    /// the cluster level, shed by the brownout ladder while queued.
    Rejected,
    /// No prediction: the network failed to forward the request's frames
    /// (the whole batch it rode in ends so, and its window closes) or, at
    /// the cluster level, the retry budget ran out across worker failures.
    Failed,
}

/// Everything the server reports about one request. Every request a server
/// accepts, or refuses for capacity, produces exactly one outcome —
/// completed, timed out, rejected or failed, never silently dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestOutcome {
    /// The caller's request id.
    pub id: u64,
    /// How the request terminated.
    pub status: CompletionStatus,
    /// Predicted class; `None` when the request never ran a timestep or
    /// failed.
    pub prediction: Option<usize>,
    /// Timesteps actually executed (0 when the request has no prediction).
    pub timesteps_used: usize,
    /// Whether the exit policy fired before the full window.
    pub exited_early: bool,
    /// Policy confidence score at each executed timestep.
    pub scores: Vec<f32>,
    /// Logits accumulated (summed, not averaged) over the executed
    /// timesteps — bitwise comparable to
    /// [`dtsnn_core::TimestepTrace::accumulated_logits`].
    pub accumulated_logits: Vec<f32>,
    /// Arrival time on the server clock.
    pub arrival_nanos: u64,
    /// Termination time on the server clock.
    pub finish_nanos: u64,
    /// Absolute deadline on the server clock, if the request had one — the
    /// censoring point for deadline-censored latency statistics.
    pub deadline_nanos: Option<u64>,
}

impl RequestOutcome {
    /// The outcome of a request that leaves without a prediction: refused,
    /// expired or shed while queued, or failed.
    pub(crate) fn unanswered(
        id: u64,
        status: CompletionStatus,
        arrival_nanos: u64,
        finish_nanos: u64,
        deadline_nanos: Option<u64>,
    ) -> Self {
        RequestOutcome {
            id,
            status,
            prediction: None,
            timesteps_used: 0,
            exited_early: false,
            scores: Vec::new(),
            accumulated_logits: Vec::new(),
            arrival_nanos,
            finish_nanos,
            deadline_nanos,
        }
    }

    /// Queueing + service latency on the server clock.
    pub fn latency_nanos(&self) -> u64 {
        self.finish_nanos.saturating_sub(self.arrival_nanos)
    }
}

/// Virtual service-time model: what one engine step costs on the simulated
/// clock. Under a [`crate::RealClock`] the model is ignored (real work takes
/// real time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceModel {
    /// Fixed per-step cost (dispatch, kernel launch) in nanoseconds.
    pub step_fixed_nanos: u64,
    /// Additional cost per in-flight batch row in nanoseconds.
    pub step_per_row_nanos: u64,
}

impl ServiceModel {
    /// Cost of one timestep at the given batch width, saturating at
    /// `u64::MAX` (the fields are public: a wrapped cost would send virtual
    /// time backwards).
    pub fn step_cost(&self, width: usize) -> u64 {
        self.step_fixed_nanos.saturating_add(self.step_per_row_nanos.saturating_mul(width as u64))
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Inference window `T` (every request exits by this timestep).
    pub max_timesteps: usize,
    /// Maximum concurrent in-flight rows (the batch width ceiling).
    pub slots: usize,
    /// Pending-queue capacity; submissions beyond it are rejected.
    pub queue_capacity: usize,
    /// The dynamic-θ controller ([`ThetaController::fixed`] for a fixed θ).
    pub theta: ThetaController,
    /// Simulated service cost per engine step.
    pub service: ServiceModel,
    /// Default latency budget for requests that do not carry one.
    pub default_deadline_nanos: Option<u64>,
    /// Record a [`StepRecord`] per engine step (scheduling decisions for
    /// the determinism harness).
    pub record_schedule: bool,
}

/// One engine step's scheduling decisions, recorded when
/// [`ServerConfig::record_schedule`] is set. The determinism suite compares
/// these across runs and thread counts.
#[derive(Debug, Clone, PartialEq)]
pub struct StepRecord {
    /// Clock reading when the step started (before service time).
    pub start_nanos: u64,
    /// θ chosen by the controller for this step.
    pub theta: f32,
    /// Request ids of the batch rows forwarded this step, in row order.
    pub rows: Vec<u64>,
    /// Ids admitted into the window at the start of this step.
    pub admitted: Vec<u64>,
    /// Ids retired (completed or timed out) at the end of this step.
    pub retired: Vec<u64>,
}

/// Lifetime counters of one server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Requests offered via `submit`.
    pub submitted: u64,
    /// Requests refused by admission control.
    pub rejected: u64,
    /// Requests that completed within deadline.
    pub completed: u64,
    /// Requests that terminated past their deadline (queued or in-flight).
    pub timed_out: u64,
    /// Requests whose forward failed ([`CompletionStatus::Failed`]).
    pub failed: u64,
    /// Requests admitted into an inference window.
    pub admitted: u64,
    /// Admissions spliced into an *open* window (carried state padded via
    /// [`Snn::admit_batch_rows`]) rather than starting a fresh one.
    pub spliced_mid_window: u64,
    /// Engine steps executed (timesteps forwarded).
    pub steps: u64,
    /// Widest batch forwarded.
    pub peak_width: u64,
}

/// A request inside the server: queued, then the request behind one batch
/// row — whose timestep counter and logit accumulator live in the server's
/// [`Window`], at the same index.
struct Job {
    id: u64,
    frames: Vec<Tensor>,
    arrival: u64,
    deadline: Option<u64>,
    /// Policy score of every timestep executed so far.
    scores: Vec<f32>,
}

impl Job {
    /// The request's outcome when it leaves without a prediction.
    fn unanswered(&self, status: CompletionStatus, finish_nanos: u64) -> RequestOutcome {
        RequestOutcome::unanswered(self.id, status, self.arrival, finish_nanos, self.deadline)
    }
}

/// The continuous-batching inference server.
///
/// One engine step forwards every in-flight row a single timestep and
/// folds, scores and decides each row at that row's own `t` through the
/// [`Window`] the sequential runner drives too (so the two agree bitwise by
/// construction), retires exited/expired rows ([`Window::compact`], which
/// gathers the network's carried rows too) and admits queued requests into
/// the vacated slots ([`Window::admit`], which pads them).
pub struct Server<C: Clock> {
    net: Snn,
    config: ServerConfig,
    clock: C,
    pending: VecDeque<Job>,
    in_flight: Vec<Job>,
    /// Eqs. 5–8 state of the in-flight rows, in `in_flight` order.
    window: Window,
    outcomes: Vec<RequestOutcome>,
    schedule: Vec<StepRecord>,
    stats: ServerStats,
    /// Batch-1 frame dims every request must share: pinned by the first
    /// accepted request, kept once a request of them has been forwarded
    /// (`frames_forwarded`) or while one waits.
    frame_dims: Option<Vec<usize>>,
    /// Whether any forward has succeeded on this server.
    frames_forwarded: bool,
    /// Service-cost multiplier (the chaos plane's slowdown lever); 1.0 when
    /// healthy.
    service_multiplier: f64,
    /// Brownout cap on timesteps: rows retire at `min(cap, max_timesteps)`.
    timestep_cap: Option<usize>,
    /// Extra queue depth the θ controller sees (cluster-wide pressure fed
    /// into a worker whose local queue is intentionally kept shallow).
    pressure_hint: usize,
    /// Outstanding injected transient step errors (the chaos plane).
    injected_faults: u32,
}

impl<C: Clock> Server<C> {
    /// Builds a server around a network, a configuration and a clock.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for a zero window, zero slots
    /// or zero queue capacity.
    pub fn new(net: Snn, config: ServerConfig, clock: C) -> Result<Self> {
        if config.max_timesteps == 0 {
            return Err(ServeError::InvalidConfig("max_timesteps must be nonzero".into()));
        }
        if config.slots == 0 {
            return Err(ServeError::InvalidConfig("slots must be nonzero".into()));
        }
        if config.queue_capacity == 0 {
            return Err(ServeError::InvalidConfig("queue_capacity must be nonzero".into()));
        }
        Ok(Server {
            net,
            config,
            clock,
            pending: VecDeque::new(),
            in_flight: Vec::new(),
            window: Window::new(),
            outcomes: Vec::new(),
            schedule: Vec::new(),
            stats: ServerStats::default(),
            frame_dims: None,
            frames_forwarded: false,
            service_multiplier: 1.0,
            timestep_cap: None,
            pressure_hint: 0,
            injected_faults: 0,
        })
    }

    /// Scales every subsequent step's service cost (the chaos plane's
    /// slowdown fault); 1.0 restores the healthy cost.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] unless the factor is finite
    /// and ≥ 1.
    pub fn set_service_multiplier(&mut self, factor: f64) -> Result<()> {
        if !(factor.is_finite() && factor >= 1.0) {
            return Err(ServeError::InvalidConfig(format!(
                "service multiplier must be finite and >= 1, got {factor}"
            )));
        }
        self.service_multiplier = factor;
        Ok(())
    }

    /// Caps the effective inference window at `min(cap, max_timesteps)` —
    /// the brownout ladder's degradation lever. Rows already past the cap
    /// retire on their next step. `None` restores the full window.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for a zero cap.
    pub fn set_timestep_cap(&mut self, cap: Option<usize>) -> Result<()> {
        if cap == Some(0) {
            return Err(ServeError::InvalidConfig("timestep cap must be nonzero".into()));
        }
        self.timestep_cap = cap;
        Ok(())
    }

    /// Extra queue depth added to the local pending depth when the θ
    /// controller is consulted — how a cluster feeds cluster-wide pressure
    /// into a worker whose own queue is kept shallow by design.
    pub fn set_pressure_hint(&mut self, depth: usize) {
        self.pressure_hint = depth;
    }

    /// Arms `count` injected transient step errors (the chaos plane): each
    /// subsequent [`Server::step`] with work to do burns its dispatch cost
    /// and returns [`ServeError::Fault`] without touching any row state,
    /// until the counter drains.
    pub fn inject_transient_errors(&mut self, count: u32) {
        self.injected_faults = self.injected_faults.saturating_add(count);
    }

    /// Removes a queued (not yet admitted) request *without* recording an
    /// outcome; returns whether it was found. Cluster-level cancellation of
    /// a redundant copy — the canceling layer owns the request's single
    /// outcome.
    pub fn cancel_queued(&mut self, id: u64) -> bool {
        let before = self.pending.len();
        self.pending.retain(|p| p.id != id);
        self.pending.len() < before
    }

    /// The server's clock (clone a [`crate::SimClock`] handle before
    /// construction to steer virtual time from outside).
    pub fn clock(&self) -> &C {
        &self.clock
    }

    /// Current clock reading.
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Allocation counters of the network's scratch arena (lifetime totals:
    /// difference two readings to count the misses of a span).
    pub fn workspace_stats(&self) -> WorkspaceStats {
        self.net.workspace_stats()
    }

    /// Input-prefix rows the network reused and recomputed (lifetime totals,
    /// see [`Snn::prefix_stats`]).
    pub fn prefix_stats(&self) -> PrefixStats {
        self.net.prefix_stats()
    }

    /// Queued (not yet admitted) requests.
    pub fn queue_depth(&self) -> usize {
        self.pending.len()
    }

    /// In-flight batch rows.
    pub fn width(&self) -> usize {
        self.in_flight.len()
    }

    /// θ the controller would use for the next step at the current queue
    /// depth (including any cluster pressure hint).
    pub fn current_theta(&self) -> f32 {
        self.config.theta.theta_for(self.pending.len().saturating_add(self.pressure_hint))
    }

    /// Service cost of one step at the given width under the current
    /// slowdown multiplier. A multiplier of exactly 1.0 is bitwise-neutral
    /// (every step cost in range is exactly representable in f64).
    fn scaled_cost(&self, width: usize) -> u64 {
        let base = self.config.service.step_cost(width);
        if self.service_multiplier == 1.0 {
            return base;
        }
        (base as f64 * self.service_multiplier).ceil() as u64
    }

    /// Drains the finished-request outcomes accumulated so far, in
    /// termination order.
    pub fn take_outcomes(&mut self) -> Vec<RequestOutcome> {
        std::mem::take(&mut self.outcomes)
    }

    /// Drains the per-step scheduling records (empty unless
    /// [`ServerConfig::record_schedule`] is set).
    pub fn take_schedule(&mut self) -> Vec<StepRecord> {
        std::mem::take(&mut self.schedule)
    }

    /// Offers a request; it is stamped with the current clock reading.
    ///
    /// Returns `true` if queued, `false` if refused by admission control
    /// (the refusal is recorded as a [`CompletionStatus::Rejected`]
    /// outcome).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] for frames that break the frame
    /// contract ([`dtsnn_snn::check_frames`]) or disagree with the pinned
    /// shape: the first accepted request's, kept once a request of it has
    /// been forwarded or while one waits.
    pub fn submit(&mut self, request: Request) -> Result<bool> {
        let arrival = self.clock.now();
        self.stats.submitted += 1;
        let held = self.frames_forwarded || !self.pending.is_empty() || !self.in_flight.is_empty();
        let frames = normalize_request_frames(
            &request,
            self.config.max_timesteps,
            &mut self.frame_dims,
            held,
        )?;
        let deadline = request
            .deadline_nanos
            .or(self.config.default_deadline_nanos)
            .map(|budget| arrival.saturating_add(budget));
        if self.pending.len() >= self.config.queue_capacity {
            self.stats.rejected += 1;
            self.outcomes.push(RequestOutcome::unanswered(
                request.id,
                CompletionStatus::Rejected,
                arrival,
                arrival,
                deadline,
            ));
            return Ok(false);
        }
        self.pending.push_back(Job { id: request.id, frames, arrival, deadline, scores: Vec::new() });
        Ok(true)
    }

    /// Runs one engine step: expire queued requests past their deadline,
    /// admit queued requests into free slots (splicing into the open window
    /// when one is running), forward every in-flight row one timestep,
    /// account the service cost on the clock, fold and score each row, and
    /// retire exited or expired rows.
    ///
    /// Returns `false` — without touching the clock — when there is
    /// nothing to do (no in-flight rows and nothing admissible).
    ///
    /// A forward the network cannot run (frames it has no layers for) ends
    /// every row of the batch as [`CompletionStatus::Failed`] and closes the
    /// window, without touching the clock; the step still returns `true`.
    ///
    /// # Errors
    ///
    /// Returns an injected [`ServeError::Fault`] and propagates failures of
    /// the row bookkeeping.
    pub fn step(&mut self) -> Result<bool> {
        if self.injected_faults > 0 {
            if self.in_flight.is_empty() && self.pending.is_empty() {
                // an idle step is a no-op even on a faulty worker
                return Ok(false);
            }
            // burn the dispatch cost, touch no row state, surface the fault
            self.injected_faults -= 1;
            self.clock.advance(self.scaled_cost(0));
            return Err(ServeError::Fault("injected transient step error".into()));
        }
        let start = self.clock.now();
        self.expire_pending(start);

        // admission: fill free slots FIFO; an open window gets padded rows
        let mut admitted: Vec<u64> = Vec::new();
        let carried = !self.in_flight.is_empty();
        while self.in_flight.len() < self.config.slots {
            let Some(p) = self.pending.pop_front() else { break };
            admitted.push(p.id);
            self.in_flight.push(p);
        }
        if !admitted.is_empty() {
            // a fresh window (the network reset) or a splice into the open
            // one (every layer's carried batch state padded with fresh zero
            // rows: bitwise-neutral — see the crate docs)
            self.window.admit(&mut self.net, admitted.len())?;
            if carried {
                self.stats.spliced_mid_window += admitted.len() as u64;
            }
            self.stats.admitted += admitted.len() as u64;
        }
        if self.in_flight.is_empty() {
            return Ok(false);
        }

        // θ for this step comes from the controller at the *post-admission*
        // queue depth (plus any cluster-wide pressure hint), and applies
        // uniformly to every row scored this step
        let theta = self.current_theta();
        let policy = ExitPolicy::entropy(theta).map_err(ServeError::from)?;
        let width = self.in_flight.len();
        self.stats.peak_width = self.stats.peak_width.max(width as u64);

        // forward one timestep (row r on its frame at its own t) and fold,
        // score and decide every row. The brownout cap shortens the
        // effective window; rows already past a cap lowered mid-flight
        // retire on this step.
        let t_max = self.config.max_timesteps;
        let t_eff = self.timestep_cap.map_or(t_max, |cap| cap.min(t_max));
        let in_flight = &self.in_flight;
        if self.window.step(&mut self.net, |row| &in_flight[row].frames, &policy, t_eff).is_err() {
            // the same frames would fail again: no retry, no prediction
            let now = self.clock.now();
            self.stats.failed += width as u64;
            for r in self.in_flight.drain(..) {
                self.outcomes.push(r.unanswered(CompletionStatus::Failed, now));
            }
            self.window.compact(&mut self.net, &[])?;
            return Ok(true);
        }
        self.frames_forwarded = true;
        self.clock.advance(self.scaled_cost(width));
        let now = self.clock.now();
        self.stats.steps += 1;

        // the forwarded row order, before retirement reshuffles it
        let rows: Option<Vec<u64>> =
            self.config.record_schedule.then(|| self.in_flight.iter().map(|r| r.id).collect());
        let mut keep: Vec<usize> = Vec::with_capacity(width);
        let mut retired: Vec<u64> = Vec::new();
        for (row, r) in self.in_flight.iter_mut().enumerate() {
            let decision = self.window.decision(row);
            r.scores.push(decision.score);
            let late = r.deadline.is_some_and(|d| now > d);
            if !(decision.exit || late) {
                keep.push(row);
                continue;
            }
            // exit (early or full window) or deadline blown mid-window;
            // either way the row leaves with a prediction from the logits
            // folded so far
            retired.push(r.id);
            let status = if late {
                self.stats.timed_out += 1;
                CompletionStatus::TimedOut
            } else {
                self.stats.completed += 1;
                CompletionStatus::Completed
            };
            self.outcomes.push(RequestOutcome {
                id: r.id,
                status,
                prediction: Some(decision.prediction),
                timesteps_used: decision.t,
                exited_early: decision.fired && decision.t < t_max,
                scores: std::mem::take(&mut r.scores),
                accumulated_logits: self.window.accumulated(row).to_vec(),
                arrival_nanos: r.arrival,
                finish_nanos: now,
                deadline_nanos: r.deadline,
            });
        }

        // retire: physically gather the survivors' carried layer state
        if keep.len() < width {
            self.window.compact(&mut self.net, &keep)?;
            let mut row = 0usize;
            self.in_flight.retain(|_| {
                row += 1;
                keep.binary_search(&(row - 1)).is_ok()
            });
        }

        if let Some(rows) = rows {
            self.schedule.push(StepRecord { start_nanos: start, theta, rows, admitted, retired });
        }
        Ok(true)
    }

    /// Expires queued requests whose deadline has passed; each is reported
    /// as timed out (never silently dropped).
    fn expire_pending(&mut self, now: u64) {
        let outcomes = &mut self.outcomes;
        let stats = &mut self.stats;
        self.pending.retain(|p| {
            let expired = p.deadline.is_some_and(|d| now > d);
            if expired {
                stats.timed_out += 1;
                outcomes.push(p.unanswered(CompletionStatus::TimedOut, now));
            }
            !expired
        });
    }

    /// Steps until no in-flight or queued work remains.
    ///
    /// # Errors
    ///
    /// Propagates [`Server::step`] failures.
    pub fn run_until_idle(&mut self) -> Result<()> {
        while self.step()? {}
        Ok(())
    }
}

/// A request's frames, checked and batch-1 shaped by the frame contract
/// ([`batch1_frames`]), then held to the shape pin across requests: `pin`
/// holds the batch-1 dims every request must share. The first accepted
/// request sets it, and it stays only while `held` — a request of that shape
/// has been forwarded or still waits — so a shape the network cannot run
/// does not lock out the next request. Shared by [`Server`] and the cluster
/// router (which validates before sharding).
///
/// # Errors
///
/// Returns [`ServeError::BadRequest`] for frames that break the contract or
/// disagree with the pin.
pub(crate) fn normalize_request_frames(
    request: &Request,
    max_timesteps: usize,
    pin: &mut Option<Vec<usize>>,
    held: bool,
) -> Result<Vec<Tensor>> {
    let bad = |why: String| ServeError::BadRequest(format!("request {}: {why}", request.id));
    let frames = batch1_frames(&request.frames, max_timesteps).map_err(|e| bad(e.to_string()))?;
    if !held {
        *pin = None;
    }
    let dims = pin.get_or_insert_with(|| frames[0].dims().to_vec());
    if dims.as_slice() != frames[0].dims() {
        let got = frames[0].dims();
        return Err(bad(format!("frame dims {got:?} disagree with the server's {dims:?}")));
    }
    Ok(frames)
}

/// A request paired with its arrival time on the server clock.
#[derive(Debug, Clone)]
pub struct TracedRequest {
    /// Arrival time in clock nanoseconds.
    pub at_nanos: u64,
    /// The request itself.
    pub request: Request,
}

/// Replays a seeded arrival trace through a server deterministically: the
/// engine steps until virtual time reaches each arrival (jumping over idle
/// gaps), submits it, and finally drains the window. With a
/// [`crate::SimClock`] every scheduling decision is a pure function of the
/// trace.
///
/// # Errors
///
/// Returns [`ServeError::BadRequest`] if the trace is not sorted by
/// `at_nanos`; propagates engine failures.
pub fn replay_trace<C: Clock>(server: &mut Server<C>, trace: &[TracedRequest]) -> Result<()> {
    if trace.windows(2).any(|w| w[0].at_nanos > w[1].at_nanos) {
        return Err(ServeError::BadRequest("trace must be sorted by arrival time".into()));
    }
    for tr in trace {
        while server.now() < tr.at_nanos {
            if !server.step()? {
                // idle: jump straight to the next arrival
                server.clock.wait_until(tr.at_nanos);
            }
        }
        server.submit(tr.request.clone())?;
    }
    server.run_until_idle()
}

/// Serves live traffic from an MPSC queue on the current thread: drains the
/// channel into the server, steps while there is work, and parks on the
/// channel when idle. Returns once the channel has disconnected and all
/// accepted work has terminated.
///
/// This is the real-clock reactor — producers hold the `Sender` side and
/// submit from any thread; every step's inference runs on this thread too
/// (the kernels under `forward_timestep` do not fan out).
///
/// # Errors
///
/// Propagates engine failures.
pub fn run_channel<C: Clock>(server: &mut Server<C>, requests: &Receiver<Request>) -> Result<()> {
    let mut disconnected = false;
    loop {
        // drain everything already queued on the channel
        loop {
            match requests.try_recv() {
                Ok(r) => {
                    server.submit(r)?;
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        if server.step()? {
            continue;
        }
        // idle: either wait for traffic or finish
        if disconnected {
            return Ok(());
        }
        match requests.recv_timeout(Duration::from_millis(1)) {
            Ok(r) => {
                server.submit(r)?;
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => disconnected = true,
        }
    }
}
