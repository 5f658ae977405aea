//! # sst-core — scheduling with setup times: model and shared machinery
//!
//! Core library for the reproduction of *Jansen, Maack, Mäcker:
//! "Scheduling on (Un-)Related Machines with Setup Times"* (IPPS 2019).
//!
//! The problem: `n` jobs, partitioned into `K` setup classes, are scheduled
//! non-preemptively on `m` parallel machines. A machine pays setup time
//! `s_ik` for every class `k` of which it processes at least one job; the
//! objective is the makespan
//! `max_i ( Σ_{j∈σ⁻¹(i)} p_ij + Σ_{k present on i} s_ik )`.
//!
//! This crate provides:
//!
//! * the instance model for uniformly related and unrelated machines
//!   (restricted assignment is the unrelated model with `∞` entries) —
//!   [`instance`];
//! * schedules and their exact evaluation — [`schedule`];
//! * exact rational arithmetic for uniform-machine makespans — [`ratio`];
//! * combinatorial lower/upper bounds — [`bounds`];
//! * the dual approximation (Hochbaum–Shmoys) search drivers — [`dual`];
//! * the simplification pipeline of Section 2 (Lemmas 2.2–2.4) —
//!   [`simplify`];
//! * speed groups and core/fringe classification (Figure 1) — [`groups`];
//! * placeholder replacement for small jobs (Lemmas 2.1/2.3) — [`batch`];
//! * explicit batched timelines and ASCII Gantt charts — [`timeline`];
//! * the [`model::MachineModel`] trait unifying the machine environments
//!   (uniform, unrelated, and the splittable substrate of Section 3.3) —
//!   [`model`];
//! * incremental load tracking with `O(1)` move evaluation for
//!   the search heuristics, written once against the trait — [`tracker`];
//! * cooperative cancellation tokens (deadline + flag) that make every
//!   solver an anytime solver — [`cancel`];
//! * the observability layer — a unified metrics registry and a
//!   ring-buffered NDJSON trace-event sink — [`telemetry`].
//!
//! Algorithms live in `sst-algos`; the LP solver in `sst-lp`; generators in
//! `sst-gen`; the SetCover substrate in `sst-setcover`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod bounds;
pub mod cancel;
pub mod delta;
pub mod dual;
pub mod error;
pub mod groups;
pub mod instance;
pub mod io;
pub mod model;
pub mod ratio;
pub mod schedule;
pub mod simplify;
pub mod stats;
pub mod telemetry;
pub mod timeline;
pub mod tracker;
pub mod wire;

pub use cancel::CancelToken;
pub use delta::{DeltaError, InstanceDelta};
pub use error::{InstanceError, ScheduleError};
pub use instance::{ClassId, Job, JobId, MachineId, UniformInstance, UnrelatedInstance, INF};
pub use model::{MachineModel, Splittable, Uniform, Unrelated};
pub use ratio::Ratio;
pub use schedule::Schedule;
pub use tracker::{LoadTracker, SplittableLoadTracker, UniformLoadTracker, UnrelatedLoadTracker};
