//! Fault-tolerant sharded serving: a router dispatching requests across N
//! [`Server`] workers under a deterministic fault-injection plane, with
//! supervised recovery (requeue, retry budgets, exponential backoff),
//! deadline-aware hedging for stragglers, and a brownout ladder for
//! graceful degradation under queue pressure.
//!
//! # The virtual-time pump
//!
//! Each worker owns an independent clock; the cluster runs a discrete-event
//! pump that repeatedly executes the earliest pending action — a scheduled
//! fault, a slowdown expiry, a worker restart, a supervisor check (stall
//! detection, hedge timers) or a worker engine step. Ties break on a fixed
//! action ranking and then worker/request index, so under [`SimClock`]s an
//! entire chaos run — every dispatch, requeue, hedge and brownout
//! transition — is a pure function of `(trace, config, fault schedule)`
//! and invariant to `DTSNN_THREADS`.
//!
//! # Exactly-once completion accounting
//!
//! The cluster, not the workers, owns request terminality. Every submitted
//! request has one [`Tracked`] entry; re-dispatch after a crash and hedged
//! re-dispatch for stragglers may create *copies* on several workers, but
//! the first copy to retire wins: its outcome is recorded, the entry is
//! marked done, queued copies elsewhere are cancelled, and any later
//! retirement of a redundant copy is suppressed (counted in
//! [`ClusterStats::duplicates_suppressed`]). A request therefore terminates
//! exactly once — completed, expired, rejected/shed, or failed (its retry
//! budget exhausted, or its forward failed on a worker, which no retry
//! mends) — under any fault schedule; the chaos property suite asserts it.
//!
//! # Brownout ladder
//!
//! Backlog depth engages degradation in rungs: cluster-wide queue pressure
//! is always fed into each worker's θ controller (the paper's knob —
//! tighten θ under load to shed timesteps), deeper backlogs additionally
//! cap the inference window ([`BrownoutConfig::timestep_cap`]), and past
//! [`BrownoutConfig::shed_depth`] the lowest-priority queued requests are
//! shed outright so high-priority traffic keeps its latency.

use crate::clock::{Clock, SimClock};
use crate::engine::{normalize_request_frames, Request, RequestOutcome, Server, ServerConfig};
use crate::engine::{CompletionStatus, StepRecord};
use crate::faults::{FaultKind, FaultSchedule};
use crate::{Result, ServeError};
use dtsnn_snn::Snn;
use dtsnn_tensor::Tensor;
use std::collections::{BTreeMap, VecDeque};

/// Graceful-degradation thresholds, all in backlog depth (queued requests
/// cluster-wide). Rungs engage in order as depth grows:
///
/// 1. `theta_pressure_depth` — the θ rung is *marked* engaged (pressure is
///    always fed to the workers' θ controllers; this threshold only labels
///    the level for events/stats).
/// 2. `cap_depth` — the inference window is capped at `timestep_cap`.
/// 3. `shed_depth` — queued requests with priority below
///    `shed_below_priority` are shed (newest, lowest-priority first) until
///    the backlog drops under the threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrownoutConfig {
    /// Depth at which the ladder reports level 1 (θ pressure).
    pub theta_pressure_depth: usize,
    /// Depth at which the timestep cap engages (level 2).
    pub cap_depth: usize,
    /// Window cap applied at level 2 (must be nonzero).
    pub timestep_cap: usize,
    /// Depth at which load shedding engages (level 3).
    pub shed_depth: usize,
    /// Only queued requests with priority strictly below this are shed.
    pub shed_below_priority: u8,
}

impl BrownoutConfig {
    /// A ladder that never engages (every threshold at `usize::MAX`).
    pub fn disabled() -> Self {
        BrownoutConfig {
            theta_pressure_depth: usize::MAX,
            cap_depth: usize::MAX,
            timestep_cap: usize::MAX,
            shed_depth: usize::MAX,
            shed_below_priority: 0,
        }
    }

    fn level_for(&self, depth: usize) -> u8 {
        if depth >= self.shed_depth {
            3
        } else if depth >= self.cap_depth {
            2
        } else if depth >= self.theta_pressure_depth {
            1
        } else {
            0
        }
    }
}

/// Cluster configuration: the per-worker engine config plus the router,
/// supervisor and degradation knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Per-worker engine configuration. The cluster overrides
    /// `queue_capacity` (workers are fed at most `slots` rows) and
    /// `default_deadline_nanos` (deadlines are applied at cluster
    /// admission and passed down as remaining budget).
    pub server: ServerConfig,
    /// Cluster backlog capacity; submissions beyond it are rejected.
    pub queue_capacity: usize,
    /// How many times a request lost to worker failures is re-queued
    /// before it terminates as [`CompletionStatus::Failed`].
    pub retry_budget: u32,
    /// Base of the exponential backoff applied to requeues and faulting
    /// workers: attempt `k` waits `base · 2^(k−1)`.
    pub backoff_base_nanos: u64,
    /// A worker with in-flight rows and no progress for this long is
    /// suspected stalled: its rows are hedged onto other workers. `None`
    /// disables stall detection.
    pub stall_timeout_nanos: Option<u64>,
    /// A dispatched request still unresolved this long after dispatch is
    /// hedged (re-dispatched while the original keeps running; first
    /// terminal copy wins). Hedges past the request deadline are skipped.
    /// `None` disables hedging.
    pub hedge_after_nanos: Option<u64>,
    /// Consecutive transient step faults tolerated before the supervisor
    /// recycles the worker (fresh engine, rows requeued).
    pub max_consecutive_faults: u32,
    /// The graceful-degradation ladder.
    pub brownout: BrownoutConfig,
    /// Record [`ClusterEvent`]s (the determinism harness compares them
    /// across runs and thread counts).
    pub record_events: bool,
}

impl ClusterConfig {
    /// A config with supervision defaults scaled to the service model:
    /// retry budget 3, backoff base = 4 step costs, stall timeout and
    /// hedge delay = 20 step costs (each saturating), 3 consecutive faults,
    /// brownout disabled.
    pub fn with_defaults(server: ServerConfig) -> Self {
        let step = server.service.step_cost(server.slots).max(1);
        ClusterConfig {
            queue_capacity: server.queue_capacity,
            server,
            retry_budget: 3,
            backoff_base_nanos: step.saturating_mul(4),
            stall_timeout_nanos: Some(step.saturating_mul(20)),
            hedge_after_nanos: Some(step.saturating_mul(20)),
            max_consecutive_faults: 3,
            brownout: BrownoutConfig::disabled(),
            record_events: false,
        }
    }

    /// The wait before attempt `k ≥ 1`: `base · 2^(k−1)`, saturating (the
    /// exponent stops growing at 32).
    fn backoff(&self, k: u32) -> u64 {
        self.backoff_base_nanos.saturating_mul(1u64 << (k - 1).min(32))
    }
}

/// Lifetime counters of one cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterStats {
    /// Requests offered via [`Cluster::submit`].
    pub submitted: u64,
    /// Requests refused by backlog admission control.
    pub rejected: u64,
    /// Requests shed by the brownout ladder while queued.
    pub shed: u64,
    /// Requests completed within deadline.
    pub completed: u64,
    /// Requests that terminated past their deadline.
    pub expired: u64,
    /// Requests that exhausted their retry budget across worker failures,
    /// or whose forward failed on a worker.
    pub failed: u64,
    /// Requeues after a lost worker copy.
    pub requeues: u64,
    /// Hedged re-dispatches (straggler timers and stall suspicion).
    pub hedges: u64,
    /// Redundant copy retirements suppressed by first-terminal-wins.
    pub duplicates_suppressed: u64,
    /// Queued redundant copies cancelled after their sibling terminated.
    pub cancellations: u64,
    /// Worker crashes applied (scheduled faults and fault-loop recycles).
    pub worker_crashes: u64,
    /// Worker respawns (post-crash restarts and recycles).
    pub worker_restarts: u64,
    /// Stall suspicions raised by the supervisor.
    pub stalls_detected: u64,
    /// Transient step faults absorbed.
    pub transient_faults: u64,
    /// Engine steps executed across all workers.
    pub steps: u64,
    /// Highest brownout level reached.
    pub max_brownout_level: u8,
}

/// One observable cluster decision, recorded when
/// [`ClusterConfig::record_events`] is set. The chaos determinism suite
/// compares full event streams across runs and `DTSNN_THREADS` settings.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterEvent {
    /// A worker executed an engine step (the worker's own
    /// [`StepRecord`], present when the engine records schedules).
    Step {
        /// Step start on the shared virtual timeline.
        at_nanos: u64,
        /// Worker index.
        worker: usize,
        /// The worker's scheduling record for the step.
        record: StepRecord,
    },
    /// A scheduled fault reached its time (`applied` is false when it
    /// struck an already-crashed worker).
    FaultApplied {
        /// Fault time.
        at_nanos: u64,
        /// Worker index.
        worker: usize,
        /// Whether the fault had any effect.
        applied: bool,
    },
    /// A request lost its worker and went back into the backlog.
    Requeued {
        /// Requeue time.
        at_nanos: u64,
        /// Request id.
        id: u64,
        /// Retry attempts consumed so far.
        retries: u32,
    },
    /// A straggling or stalled request was queued for redundant dispatch.
    Hedged {
        /// Hedge time.
        at_nanos: u64,
        /// Request id.
        id: u64,
    },
    /// The brownout ladder shed a queued request.
    Shed {
        /// Shed time.
        at_nanos: u64,
        /// Request id.
        id: u64,
    },
    /// The brownout level changed.
    BrownoutLevel {
        /// Transition time.
        at_nanos: u64,
        /// New level (0 = healthy … 3 = shedding).
        level: u8,
    },
    /// The supervisor suspected a stalled worker and hedged its rows.
    StallSuspected {
        /// Detection time.
        at_nanos: u64,
        /// Worker index.
        worker: usize,
    },
    /// A crashed worker respawned.
    WorkerRestarted {
        /// Restart time.
        at_nanos: u64,
        /// Worker index.
        worker: usize,
    },
    /// A fault-looping worker was recycled (fresh engine, rows requeued).
    WorkerRecycled {
        /// Recycle time.
        at_nanos: u64,
        /// Worker index.
        worker: usize,
    },
}

/// Cluster-side bookkeeping for one admitted request.
struct Tracked {
    frames: Vec<Tensor>,
    priority: u8,
    arrival: u64,
    deadline: Option<u64>,
    /// Workers currently holding a live copy (queued or in flight).
    copies: Vec<usize>,
    dispatched_at: u64,
    retries: u32,
    hedged: bool,
    /// Earliest time the backlog entry may be dispatched (retry backoff).
    eligible_at: u64,
    in_backlog: bool,
    /// Terminal: exactly one outcome has been recorded.
    done: bool,
}

struct WorkerSlot<C: Clock + Clone> {
    /// `None` while crashed (awaiting restart).
    server: Option<Server<C>>,
    /// The cluster's handle on the worker's clock (shared with the
    /// server; survives respawns).
    clock: C,
    /// Earliest next step (stall faults and transient-fault backoff).
    resume_at: u64,
    /// Active slowdown fault end, if any.
    slowdown_until: Option<u64>,
    /// Pending respawn time, if crashed.
    restart_at: Option<u64>,
    /// Last successful step end (stall detection reference).
    last_progress: u64,
    /// The supervisor already flagged the current stall.
    stall_flagged: bool,
    /// Consecutive transient step faults without a successful step.
    consecutive_faults: u32,
}

/// The earliest pending action classes, in tie-break order at equal time.
enum Action {
    Fault,
    Restore(usize),
    Restart(usize),
    StallCheck(usize),
    HedgeCheck(u64),
    Step(usize),
}

/// The shard router + supervisor over N [`Server`] workers.
///
/// See the module docs for the pump, exactly-once accounting and brownout
/// semantics. Construct with per-worker clocks ([`Cluster::new`]) or the
/// all-simulated convenience ([`Cluster::simulated`]); drive with
/// [`Cluster::run_trace`] / [`Cluster::run_until_idle`] or one action at a
/// time with [`Cluster::pump`].
pub struct Cluster<C: Clock + Clone> {
    net: Snn,
    config: ClusterConfig,
    worker_config: ServerConfig,
    workers: Vec<WorkerSlot<C>>,
    faults: FaultSchedule,
    next_fault: usize,
    tracked: BTreeMap<u64, Tracked>,
    backlog: VecDeque<u64>,
    outcomes: Vec<RequestOutcome>,
    events: Vec<ClusterEvent>,
    stats: ClusterStats,
    /// The shape pin across requests (see [`normalize_request_frames`]).
    frame_dims: Option<Vec<usize>>,
    /// Whether any worker has forwarded a request (its outcome ran a
    /// timestep).
    frames_forwarded: bool,
    /// Monotone virtual-time cursor: the start time of the last executed
    /// action.
    time: u64,
    brownout_level: u8,
}

impl Cluster<SimClock> {
    /// A cluster of `workers` simulated-clock workers (the deterministic
    /// chaos configuration).
    ///
    /// # Errors
    ///
    /// See [`Cluster::new`].
    pub fn simulated(
        net: Snn,
        config: ClusterConfig,
        workers: usize,
        faults: FaultSchedule,
    ) -> Result<Self> {
        let clocks = (0..workers).map(|_| SimClock::new()).collect();
        Cluster::new(net, config, clocks, faults)
    }
}

impl<C: Clock + Clone> Cluster<C> {
    /// Builds a cluster with one worker per clock. Each worker runs a
    /// clone of `net` under the per-worker engine config (`queue_capacity`
    /// clamped to `slots`, deadlines owned by the cluster).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for zero workers, zero
    /// cluster queue capacity, a zero brownout timestep cap, a zero stall
    /// timeout, or an invalid engine config.
    pub fn new(
        net: Snn,
        config: ClusterConfig,
        clocks: Vec<C>,
        faults: FaultSchedule,
    ) -> Result<Self> {
        if clocks.is_empty() {
            return Err(ServeError::InvalidConfig("cluster needs at least one worker".into()));
        }
        if config.queue_capacity == 0 {
            return Err(ServeError::InvalidConfig("cluster queue_capacity must be nonzero".into()));
        }
        if config.brownout.timestep_cap == 0 {
            return Err(ServeError::InvalidConfig("brownout timestep_cap must be nonzero".into()));
        }
        if config.stall_timeout_nanos == Some(0) {
            return Err(ServeError::InvalidConfig("stall timeout must be nonzero".into()));
        }
        let worker_config = ServerConfig {
            // workers are fed at most `slots` rows per step, and deadlines
            // arrive as remaining budget from the cluster
            queue_capacity: config.server.slots,
            default_deadline_nanos: None,
            ..config.server.clone()
        };
        let workers = clocks
            .into_iter()
            .map(|clock| {
                let server = Server::new(net.clone(), worker_config.clone(), clock.clone())?;
                Ok(WorkerSlot {
                    server: Some(server),
                    clock,
                    resume_at: 0,
                    slowdown_until: None,
                    restart_at: None,
                    last_progress: 0,
                    stall_flagged: false,
                    consecutive_faults: 0,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Cluster {
            net,
            config,
            worker_config,
            workers,
            faults,
            next_fault: 0,
            tracked: BTreeMap::new(),
            backlog: VecDeque::new(),
            outcomes: Vec::new(),
            events: Vec::new(),
            stats: ClusterStats::default(),
            frame_dims: None,
            frames_forwarded: false,
            time: 0,
            brownout_level: 0,
        })
    }

    /// Number of workers (alive or crashed).
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Queued requests cluster-wide.
    pub fn backlog_depth(&self) -> usize {
        self.backlog.len()
    }

    /// The virtual-time cursor: start time of the last executed action,
    /// advanced past it by worker service time.
    pub fn now(&self) -> u64 {
        self.workers.iter().map(|w| w.clock.now()).fold(self.time, u64::max)
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ClusterStats {
        self.stats
    }

    /// Drains the finished-request outcomes, in termination order.
    pub fn take_outcomes(&mut self) -> Vec<RequestOutcome> {
        std::mem::take(&mut self.outcomes)
    }

    /// Drains the recorded cluster events (empty unless
    /// [`ClusterConfig::record_events`] is set).
    pub fn take_events(&mut self) -> Vec<ClusterEvent> {
        std::mem::take(&mut self.events)
    }

    fn event(&mut self, e: ClusterEvent) {
        if self.config.record_events {
            self.events.push(e);
        }
    }

    /// Offers a request to the cluster at the current cursor time.
    ///
    /// Returns `true` if queued, `false` if refused by backlog admission
    /// control (recorded as a [`CompletionStatus::Rejected`] outcome).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] for malformed frames or a
    /// duplicate request id (exactly-once accounting needs unique ids).
    pub fn submit(&mut self, request: Request) -> Result<bool> {
        let arrival = self.time;
        self.stats.submitted += 1;
        if self.tracked.contains_key(&request.id) {
            return Err(ServeError::BadRequest(format!(
                "request id {} was already submitted; cluster ids must be unique",
                request.id
            )));
        }
        // a live request is queued here or holds a copy on a live worker
        let held = self.frames_forwarded
            || !self.backlog.is_empty()
            || self.workers.iter().flat_map(|w| &w.server).any(|s| s.width() + s.queue_depth() > 0);
        let frames = normalize_request_frames(
            &request,
            self.config.server.max_timesteps,
            &mut self.frame_dims,
            held,
        )?;
        let deadline = request
            .deadline_nanos
            .or(self.config.server.default_deadline_nanos)
            .map(|budget| arrival.saturating_add(budget));
        if self.backlog.len() >= self.config.queue_capacity {
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
        self.tracked.insert(
            request.id,
            Tracked {
                frames,
                priority: request.priority,
                arrival,
                deadline,
                copies: Vec::new(),
                dispatched_at: 0,
                retries: 0,
                hedged: false,
                eligible_at: arrival,
                in_backlog: true,
                done: false,
            },
        );
        self.backlog.push_back(request.id);
        Ok(true)
    }

    /// Earliest pending action, or `None` when the cluster is quiescent.
    /// Candidates are ordered by `(time, action class, index)` with the
    /// class ranking fault < slowdown-restore < restart < stall check <
    /// hedge check < step — a total order, so the pump is deterministic.
    fn next_action(&self) -> Option<(u64, Action)> {
        // (time, class, index) — strictly ordered keys
        let mut best: Option<(u64, u8, u64, Action)> = None;
        let mut offer = |t: u64, class: u8, idx: u64, a: Action| {
            let t = t.max(self.time);
            let better = match &best {
                None => true,
                Some((bt, bc, bi, _)) => (t, class, idx) < (*bt, *bc, *bi),
            };
            if better {
                best = Some((t, class, idx, a));
            }
        };
        if let Some(ev) = self.faults.events().get(self.next_fault) {
            offer(ev.at_nanos, 0, 0, Action::Fault);
        }
        for (i, w) in self.workers.iter().enumerate() {
            if let Some(t) = w.slowdown_until {
                offer(t, 1, i as u64, Action::Restore(i));
            }
            if let Some(t) = w.restart_at {
                offer(t, 2, i as u64, Action::Restart(i));
            }
            let Some(server) = &w.server else { continue };
            if let Some(timeout) = self.config.stall_timeout_nanos {
                if server.width() > 0 && !w.stall_flagged {
                    offer(w.last_progress.saturating_add(timeout), 3, i as u64, Action::StallCheck(i));
                }
            }
            // step candidate: work in hand steps at max(now, resume_at);
            // a worker with only backlog work also waits for eligibility
            let base = server.now().max(w.resume_at);
            if server.width() > 0 || server.queue_depth() > 0 {
                offer(base, 5, i as u64, Action::Step(i));
            } else if let Some(eligible) = self
                .backlog
                .iter()
                .filter(|id| !self.tracked[id].copies.contains(&i))
                .map(|id| self.tracked[id].eligible_at)
                .min()
            {
                offer(base.max(eligible), 5, i as u64, Action::Step(i));
            }
        }
        if let Some(hedge_after) = self.config.hedge_after_nanos {
            for (&id, tr) in &self.tracked {
                if tr.done || tr.hedged || tr.in_backlog || tr.copies.len() != 1 {
                    continue;
                }
                let t = tr.dispatched_at.saturating_add(hedge_after);
                if tr.deadline.is_some_and(|d| t > d) {
                    // hedging past the deadline cannot help
                    continue;
                }
                offer(t, 4, id, Action::HedgeCheck(id));
            }
        }
        best.map(|(t, _, _, a)| (t, a))
    }

    /// Executes the earliest pending action; returns `false` when the
    /// cluster is quiescent (no faults, timers or steppable work).
    ///
    /// # Errors
    ///
    /// Propagates engine failures (injected transient faults are absorbed
    /// internally, not propagated).
    pub fn pump(&mut self) -> Result<bool> {
        let Some((t, action)) = self.next_action() else { return Ok(false) };
        self.time = t;
        match action {
            Action::Fault => self.exec_fault(t)?,
            Action::Restore(w) => self.exec_restore(w)?,
            Action::Restart(w) => self.exec_restart(w, t)?,
            Action::StallCheck(w) => self.exec_stall_check(w, t),
            Action::HedgeCheck(id) => self.hedge(id, t),
            Action::Step(w) => self.exec_step(w, t)?,
        }
        Ok(true)
    }

    fn exec_fault(&mut self, t: u64) -> Result<()> {
        let ev = self.faults.events()[self.next_fault];
        self.next_fault += 1;
        if ev.worker >= self.workers.len() {
            return Err(ServeError::InvalidConfig(format!(
                "fault schedule names worker {} of {}",
                ev.worker,
                self.workers.len()
            )));
        }
        let alive = self.workers[ev.worker].server.is_some();
        let applied = alive;
        match ev.kind {
            FaultKind::Crash { restart_after_nanos } => {
                if alive {
                    self.crash_worker(ev.worker, t, Some(restart_after_nanos));
                }
            }
            FaultKind::Stall { duration_nanos } => {
                if alive {
                    let w = &mut self.workers[ev.worker];
                    w.resume_at = w.resume_at.max(t.saturating_add(duration_nanos));
                }
            }
            FaultKind::Slowdown { factor, duration_nanos } => {
                if let Some(server) = self.workers[ev.worker].server.as_mut() {
                    server.set_service_multiplier(factor)?;
                    let end = t.saturating_add(duration_nanos);
                    let w = &mut self.workers[ev.worker];
                    w.slowdown_until = Some(w.slowdown_until.map_or(end, |e| e.max(end)));
                }
            }
            FaultKind::TransientErrors { count } => {
                if let Some(server) = self.workers[ev.worker].server.as_mut() {
                    server.inject_transient_errors(count);
                }
            }
        }
        self.event(ClusterEvent::FaultApplied { at_nanos: t, worker: ev.worker, applied });
        Ok(())
    }

    /// Kills a worker: its engine (and every queued/in-flight copy on it)
    /// is lost; copies are requeued against their retry budgets. With a
    /// restart delay the supervisor respawns it later; `None` recycles it
    /// immediately (fresh engine, same clock).
    fn crash_worker(&mut self, wi: usize, t: u64, restart_after: Option<u64>) {
        self.workers[wi].server = None;
        self.workers[wi].slowdown_until = None;
        self.workers[wi].stall_flagged = false;
        self.workers[wi].consecutive_faults = 0;
        self.workers[wi].restart_at = restart_after.map(|d| t.saturating_add(d));
        self.stats.worker_crashes += 1;
        let lost: Vec<u64> = self
            .tracked
            .iter()
            .filter(|(_, tr)| !tr.done && tr.copies.contains(&wi))
            .map(|(&id, _)| id)
            .collect();
        for id in lost {
            let tr = self.tracked.get_mut(&id).expect("tracked id");
            tr.copies.retain(|&w| w != wi);
            self.lose_copy_and_requeue(id, t);
        }
    }

    fn exec_restore(&mut self, wi: usize) -> Result<()> {
        self.workers[wi].slowdown_until = None;
        if let Some(server) = self.workers[wi].server.as_mut() {
            server.set_service_multiplier(1.0)?;
        }
        Ok(())
    }

    fn exec_restart(&mut self, wi: usize, t: u64) -> Result<()> {
        let server =
            Server::new(self.net.clone(), self.worker_config.clone(), self.workers[wi].clock.clone())?;
        let w = &mut self.workers[wi];
        w.server = Some(server);
        w.restart_at = None;
        w.resume_at = t;
        w.last_progress = t;
        w.stall_flagged = false;
        w.consecutive_faults = 0;
        self.stats.worker_restarts += 1;
        self.event(ClusterEvent::WorkerRestarted { at_nanos: t, worker: wi });
        Ok(())
    }

    fn exec_stall_check(&mut self, wi: usize, t: u64) {
        self.workers[wi].stall_flagged = true;
        self.stats.stalls_detected += 1;
        self.event(ClusterEvent::StallSuspected { at_nanos: t, worker: wi });
        // hedge the suspect's rows so siblings can race it; the copies
        // stay — if the worker wakes up, first terminal still wins
        let suspects: Vec<u64> = self
            .tracked
            .iter()
            .filter(|(_, tr)| !tr.done && tr.copies.contains(&wi))
            .map(|(&id, _)| id)
            .collect();
        for id in suspects {
            self.hedge(id, t);
        }
    }

    /// Queues a redundant copy of a dispatched request (the original keeps
    /// running; exactly-once accounting suppresses the loser).
    fn hedge(&mut self, id: u64, t: u64) {
        let Some(tr) = self.tracked.get_mut(&id) else { return };
        if tr.done || tr.hedged || tr.in_backlog || tr.copies.is_empty() {
            return;
        }
        tr.hedged = true;
        tr.eligible_at = t;
        tr.in_backlog = true;
        self.backlog.push_back(id);
        self.stats.hedges += 1;
        self.event(ClusterEvent::Hedged { at_nanos: t, id });
    }

    /// Called after a request's copy vanished from a worker. Requeues it
    /// under backoff while budget remains; terminal
    /// [`CompletionStatus::Failed`] once exhausted.
    fn lose_copy_and_requeue(&mut self, id: u64, t: u64) {
        let tr = self.tracked.get_mut(&id).expect("tracked id");
        if tr.done || tr.in_backlog || !tr.copies.is_empty() {
            // terminal, already queued, or a sibling copy is still racing
            return;
        }
        if tr.retries < self.config.retry_budget {
            tr.retries += 1;
            tr.eligible_at = t.saturating_add(self.config.backoff(tr.retries));
            tr.in_backlog = true;
            let retries = tr.retries;
            self.backlog.push_back(id);
            self.stats.requeues += 1;
            self.event(ClusterEvent::Requeued { at_nanos: t, id, retries });
        } else {
            tr.done = true;
            let (arrival, deadline) = (tr.arrival, tr.deadline);
            self.stats.failed += 1;
            let failed = CompletionStatus::Failed;
            self.outcomes.push(RequestOutcome::unanswered(id, failed, arrival, t, deadline));
        }
    }

    /// Expires queued requests past their deadline, in FIFO order (the
    /// same lazy discipline as [`Server`]'s queue). A hedged entry whose
    /// sibling copy is still running is silently dropped — the running
    /// copy owns the outcome.
    fn expire_backlog(&mut self, t: u64) {
        let mut i = 0;
        while i < self.backlog.len() {
            let id = self.backlog[i];
            let tr = self.tracked.get_mut(&id).expect("tracked id");
            if tr.deadline.is_none_or(|d| t <= d) {
                i += 1;
                continue;
            }
            self.backlog.remove(i);
            tr.in_backlog = false;
            if tr.copies.is_empty() && !tr.done {
                tr.done = true;
                let (arrival, deadline) = (tr.arrival, tr.deadline);
                self.stats.expired += 1;
                let timed_out = CompletionStatus::TimedOut;
                self.outcomes.push(RequestOutcome::unanswered(id, timed_out, arrival, t, deadline));
            }
        }
    }

    /// Level-3 brownout: shed queued-only requests below the priority
    /// line, lowest priority first and newest first within a priority,
    /// until the backlog drops under the shed threshold.
    fn shed_backlog(&mut self, t: u64) {
        while self.backlog.len() >= self.config.brownout.shed_depth {
            let mut victim: Option<(u8, usize)> = None;
            for (pos, id) in self.backlog.iter().enumerate() {
                let tr = &self.tracked[id];
                if !tr.copies.is_empty() || tr.priority >= self.config.brownout.shed_below_priority
                {
                    continue;
                }
                let better = match victim {
                    None => true,
                    Some((vp, vpos)) => {
                        tr.priority < vp || (tr.priority == vp && pos > vpos)
                    }
                };
                if better {
                    victim = Some((tr.priority, pos));
                }
            }
            let Some((_, pos)) = victim else { break };
            let id = self.backlog.remove(pos).expect("victim position");
            let tr = self.tracked.get_mut(&id).expect("tracked id");
            tr.in_backlog = false;
            tr.done = true;
            let (arrival, deadline) = (tr.arrival, tr.deadline);
            self.stats.shed += 1;
            let shed = CompletionStatus::Rejected;
            self.outcomes.push(RequestOutcome::unanswered(id, shed, arrival, t, deadline));
            self.event(ClusterEvent::Shed { at_nanos: t, id });
        }
    }

    /// Dispatches eligible backlog entries into the worker's free slots,
    /// FIFO with ineligible entries (backoff, already-copied-there)
    /// skipped. Deadlines travel as remaining budget so the absolute
    /// deadline is preserved on the shared timeline.
    fn dispatch(&mut self, wi: usize, t: u64) -> Result<()> {
        loop {
            let server = self.workers[wi].server.as_ref().expect("dispatch to live worker");
            let used = server.width() + server.queue_depth();
            if used >= self.worker_config.slots {
                return Ok(());
            }
            let Some(pos) = self.backlog.iter().position(|id| {
                let tr = &self.tracked[id];
                tr.eligible_at <= t && !tr.copies.contains(&wi)
            }) else {
                return Ok(());
            };
            let id = self.backlog.remove(pos).expect("dispatch position");
            let tr = self.tracked.get_mut(&id).expect("tracked id");
            tr.in_backlog = false;
            tr.copies.push(wi);
            tr.dispatched_at = t;
            let request = Request {
                id,
                frames: tr.frames.clone(),
                deadline_nanos: tr.deadline.map(|d| d.saturating_sub(t)),
                priority: tr.priority,
            };
            let accepted =
                self.workers[wi].server.as_mut().expect("dispatch to live worker").submit(request)?;
            if !accepted {
                return Err(ServeError::Internal(format!(
                    "worker {wi} rejected a slot-bounded dispatch of request {id}"
                )));
            }
        }
    }

    fn exec_step(&mut self, wi: usize, t: u64) -> Result<()> {
        // sync the worker onto the shared timeline before it observes time
        self.workers[wi].clock.wait_until(t);
        self.expire_backlog(t);
        let mut level = self.config.brownout.level_for(self.backlog.len());
        if level >= 3 {
            self.shed_backlog(t);
            level = self.config.brownout.level_for(self.backlog.len());
        }
        if level != self.brownout_level {
            self.brownout_level = level;
            self.stats.max_brownout_level = self.stats.max_brownout_level.max(level);
            self.event(ClusterEvent::BrownoutLevel { at_nanos: t, level });
        }
        self.dispatch(wi, t)?;
        let pressure = self.backlog.len();
        let cap =
            if level >= 2 { Some(self.config.brownout.timestep_cap) } else { None };
        let server = self.workers[wi].server.as_mut().expect("step on live worker");
        server.set_pressure_hint(pressure);
        server.set_timestep_cap(cap)?;
        match server.step() {
            Ok(false) => Ok(()),
            Ok(true) => {
                self.stats.steps += 1;
                let end = self.workers[wi].server.as_ref().expect("live worker").now();
                self.workers[wi].last_progress = end;
                self.workers[wi].stall_flagged = false;
                self.workers[wi].consecutive_faults = 0;
                let server = self.workers[wi].server.as_mut().expect("live worker");
                let records = server.take_schedule();
                let outcomes = server.take_outcomes();
                for record in records {
                    self.event(ClusterEvent::Step { at_nanos: t, worker: wi, record });
                }
                for outcome in outcomes {
                    self.finalize_worker_outcome(wi, outcome)?;
                }
                Ok(())
            }
            Err(ServeError::Fault(_)) => {
                self.stats.transient_faults += 1;
                self.workers[wi].consecutive_faults += 1;
                let cf = self.workers[wi].consecutive_faults;
                let now = self.workers[wi].clock.now();
                if cf > self.config.max_consecutive_faults {
                    // fault loop: recycle the worker — fresh engine on the
                    // same clock, its rows requeued against their budgets
                    self.crash_worker(wi, now, None);
                    self.exec_restart(wi, now)?;
                    self.event(ClusterEvent::WorkerRecycled { at_nanos: now, worker: wi });
                } else {
                    let backoff = self.config.backoff(cf);
                    let w = &mut self.workers[wi];
                    w.resume_at = w.resume_at.max(now.saturating_add(backoff));
                }
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// First-terminal-wins: records the winning copy's outcome (rewritten
    /// to the cluster arrival time), cancels queued sibling copies, and
    /// suppresses later retirements of redundant copies.
    fn finalize_worker_outcome(&mut self, wi: usize, outcome: RequestOutcome) -> Result<()> {
        let Some(tr) = self.tracked.get_mut(&outcome.id) else {
            return Err(ServeError::Internal(format!(
                "worker {wi} retired unknown request {}",
                outcome.id
            )));
        };
        if tr.done {
            self.stats.duplicates_suppressed += 1;
            return Ok(());
        }
        match outcome.status {
            CompletionStatus::Completed => self.stats.completed += 1,
            CompletionStatus::TimedOut => self.stats.expired += 1,
            // a forward failure is the frames' own: no retry, first terminal
            CompletionStatus::Failed => self.stats.failed += 1,
            CompletionStatus::Rejected => {
                return Err(ServeError::Internal(format!(
                    "worker {wi} produced a {:?} outcome for dispatched request {}",
                    outcome.status, outcome.id
                )));
            }
        }
        self.frames_forwarded |= outcome.timesteps_used > 0;
        tr.done = true;
        let arrival = tr.arrival;
        let in_backlog = tr.in_backlog;
        tr.in_backlog = false;
        let siblings: Vec<usize> = tr.copies.iter().copied().filter(|&w| w != wi).collect();
        for sibling in siblings {
            if let Some(server) = self.workers[sibling].server.as_mut() {
                if server.cancel_queued(outcome.id) {
                    self.stats.cancellations += 1;
                }
                // an in-flight sibling copy runs to retirement and is
                // suppressed then (rows cannot be yanked mid-window)
            }
        }
        if in_backlog {
            self.backlog.retain(|&id| id != outcome.id);
        }
        self.outcomes.push(RequestOutcome { arrival_nanos: arrival, ..outcome });
        Ok(())
    }

    /// Replays a sorted arrival trace deterministically: the pump executes
    /// every action scheduled before each arrival, the request is
    /// submitted at its arrival time, and the cluster then drains.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] for an unsorted trace;
    /// propagates engine failures.
    pub fn run_trace(&mut self, trace: &[crate::TracedRequest]) -> Result<()> {
        if trace.windows(2).any(|w| w[0].at_nanos > w[1].at_nanos) {
            return Err(ServeError::BadRequest("trace must be sorted by arrival time".into()));
        }
        for tr in trace {
            while self.next_action().is_some_and(|(t, _)| t < tr.at_nanos) {
                self.pump()?;
            }
            self.time = self.time.max(tr.at_nanos);
            self.submit(tr.request.clone())?;
        }
        self.run_until_idle()
    }

    /// Pumps until quiescent. If requests remain queued with no way to
    /// serve them (every worker dead with no restart scheduled), they are
    /// drained as [`CompletionStatus::Failed`] so every admitted request
    /// still terminates exactly once.
    ///
    /// # Errors
    ///
    /// Propagates engine failures.
    pub fn run_until_idle(&mut self) -> Result<()> {
        while self.pump()? {}
        let t = self.time;
        self.backlog.clear();
        let stranded: Vec<u64> =
            self.tracked.iter().filter(|(_, tr)| !tr.done).map(|(&id, _)| id).collect();
        for id in stranded {
            let tr = self.tracked.get_mut(&id).expect("tracked id");
            tr.done = true;
            tr.in_backlog = false;
            let (arrival, deadline) = (tr.arrival, tr.deadline);
            self.stats.failed += 1;
            let failed = CompletionStatus::Failed;
            self.outcomes.push(RequestOutcome::unanswered(id, failed, arrival, t, deadline));
        }
        Ok(())
    }
}
