//! # sst-portfolio — the solver portfolio service
//!
//! The paper positions its algorithms as a toolbox keyed to instance
//! structure: LPT and the PTAS for uniform machines, randomized LP rounding
//! for general unrelated machines, the 2- and 3-approximations for the
//! class-uniform special cases, plus the exact and search baselines. This
//! crate turns that toolbox into a *service*, in five layers:
//!
//! 1. **[`model`]** — the [`ModelOps`] trait: per-model
//!    behavior (protocol kind, features, greedy floor, solution
//!    evaluation) behind one object-safe interface, so the machine models
//!    — uniform, unrelated, and the splittable model of Section 3.3 — are
//!    served by the same pipeline and adding a model is one trait impl;
//! 2. **[`solver`]** — one [`Solver`] trait over every
//!    algorithm in `sst-algos`, all cancellable through
//!    [`sst_core::cancel::CancelToken`], so each is an *anytime* solver
//!    under a deadline;
//! 3. **[`features`] + [`select`](mod@select)** — a structural feature extractor
//!    (size, setup weight, speed skew, eligibility density, the three
//!    special-case structure flags) and a rule-based selector mapping
//!    features to a ranked portfolio, refined online by a per-family
//!    win-rate tracker ([`select::WinRateTracker`]) keeping a
//!    recency-decayed win score per member: recent winners rank first,
//!    members whose score decays out are demoted and the raced top-k
//!    shrinks to the members in good standing;
//! 4. **[`race`](mod@race)** — a racing executor running the top-k portfolio members
//!    concurrently with a cross-seeded incumbent: the best-known makespan
//!    prunes the branch-and-bound and warm-starts the search heuristics;
//!    [`race::race_observed`] feeds results back into the win-rate
//!    tracker and pre-publishes a session's repaired incumbent so a warm
//!    re-solve can only improve on it;
//! 5. **[`protocol`] + [`pool`] + [`session`] + [`durable`] +
//!    [`service`]** — an NDJSON request/response codec (one-shot solves
//!    *and* the stateful create/delta/solve/close session verbs riding
//!    [`sst_core::delta`]), the LRU-bounded [`session::SessionStore`]
//!    with its write-ahead journal / snapshot-spill durability layer
//!    ([`durable::DurableStore`]: accepted verbs are journaled before the
//!    response, crashes recover by replay, capacity spills to disk
//!    instead of destroying sessions), and a worker pool (one shared FIFO
//!    queue, backpressure and dead-worker error paths; session verbs on
//!    one-worker pools keyed by session id) serving it over stdin or
//!    TCP with running throughput/latency percentile metrics
//!    ([`sst_core::stats::LatencyHistogram`]) and end-to-end telemetry
//!    ([`sst_core::telemetry`]): a unified metrics registry (per-stage
//!    latency histograms, per-solver standings) plus a ring-buffered
//!    NDJSON trace-event sink threading each request id through
//!    enqueue → dequeue → race → respond.
//!
//! The `sst serve` CLI command is a thin shell around [`service`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod durable;
pub mod features;
pub mod model;
pub mod pool;
pub mod protocol;
pub mod race;
pub mod select;
pub mod service;
pub mod session;
pub mod solver;
pub mod wire;

pub use durable::{Durability, DurableStore, JournalRecord, Recovery};
pub use features::{extract_features, Features, ModelKind};
pub use model::{EvalError, ModelOps, Repaired, Solution, SplittableInstance};
pub use pool::{Pool, PoolConfig};
pub use race::{
    race, race_observed, Incumbent, RaceConfig, RaceObserver, RaceResult, SolverReport,
    WARM_INCUMBENT,
};
pub use select::{select, select_portfolio, Portfolio, WinRateTracker, WinStats};
pub use session::{SessionEntry, SessionStats, SessionStore};
pub use solver::{Cost, Outcome, ProblemInstance, SolveContext, Solver};
