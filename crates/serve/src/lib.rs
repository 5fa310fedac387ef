//! Early-exit-aware continuous-batching inference service.
//!
//! The paper's value proposition — easy inputs exit at `T̂ = 1`, hard ones
//! run the full window — only reaches a *request stream* if the batch can
//! change composition mid-window: entropy-driven exits retire rows through
//! [`dtsnn_snn::Snn::compact_batch`] (PR 3), and the vacated slots admit
//! queued requests through [`dtsnn_snn::Snn::admit_batch_rows`], the same
//! continuous-batching insight vLLM applies to EOS tokens. This crate is
//! that serving layer:
//!
//! - [`Server`] — the engine: an open inference window where each in-flight
//!   row carries its own timestep counter and logit accumulator (in a
//!   [`dtsnn_core::window::Window`]) and, inside the network, LIF membrane; per-request deadlines; admission control
//!   with a bounded FIFO queue; SLO-aware dynamic θ via
//!   [`ThetaController`].
//! - [`Clock`] — the test-archetype headline: the engine never reads a
//!   wall clock directly, so [`SimClock`] makes the entire serving stack —
//!   scheduling decisions, batch compositions, per-request outcomes —
//!   deterministic and bitwise reproducible across runs and
//!   `DTSNN_THREADS` settings, while [`RealClock`] serves live traffic
//!   from an MPSC queue ([`run_channel`]).
//! - [`ArrivalProcess`] / [`replay_trace`] / [`summarize`] — an open-loop
//!   load generator (Poisson and bursty on/off arrivals) and the
//!   p50/p99/goodput/timeout report behind
//!   `bench-results/serving_load.json`.
//! - [`Cluster`] — fault-tolerant sharding: a router dispatching requests
//!   across N workers under a seeded, bitwise-reproducible
//!   [`FaultSchedule`] (crashes, stalls, slowdowns, transient step
//!   errors), with supervised recovery (requeue under retry budgets and
//!   exponential backoff), deadline-aware hedging for stragglers,
//!   exactly-once completion accounting, and a [`BrownoutConfig`]
//!   degradation ladder (θ pressure → timestep cap → priority shedding)
//!   behind `bench-results/serving_chaos.json`.
//!
//! # The row-insertion invariant
//!
//! A request spliced into an open window must behave exactly as if it had
//! been run alone. The only carried per-row state in the network is the
//! LIF membrane; a spliced row starts from a zero membrane, and `0·τ + x`
//! can differ from a fresh sequence's `x` only in the sign of zero — a
//! distinction the strict `u > V_th` spike comparison cannot observe. The
//! per-row fold, score and exit decision are [`dtsnn_core::window::Window`]'s
//! — the code [`dtsnn_core::DynamicInference`] drives for a solo run — so a
//! mid-window admission yields bitwise-identical logits, prediction and T̂
//! to a solo run (conformance fuzz oracle 10 and this crate's harness pin
//! that rows do not leak into each other below the window).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod cluster;
mod controller;
mod engine;
mod error;
mod faults;
mod loadgen;

pub use clock::{Clock, RealClock, SimClock};
pub use cluster::{BrownoutConfig, Cluster, ClusterConfig, ClusterEvent, ClusterStats};
pub use controller::ThetaController;
pub use engine::{
    replay_trace, run_channel, CompletionStatus, Request, RequestOutcome, Server, ServerConfig,
    ServerStats, ServiceModel, StepRecord, TracedRequest,
};
pub use error::ServeError;
pub use faults::{FaultEvent, FaultKind, FaultSchedule, FaultSpec};
pub use loadgen::{generate_arrivals, summarize, ArrivalProcess, LoadReport};

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, ServeError>;
