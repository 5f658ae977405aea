//! # setup-scheduling
//!
//! A Rust implementation of the approximation algorithms of
//! *Jansen, Maack, Mäcker — "Scheduling on (Un-)Related Machines with Setup
//! Times"* (IPPS 2019): `n` jobs partitioned into `K` setup classes run on
//! `m` parallel machines; a machine pays a setup whenever it processes a
//! class, and the makespan is minimized.
//!
//! This façade crate re-exports the workspace:
//!
//! * [`core`] (`sst-core`) — instances, schedules, exact arithmetic,
//!   bounds, dual approximation, simplification, speed groups;
//! * [`algos`] (`sst-algos`) — LPT (Lemma 2.1), the PTAS (Section 2),
//!   randomized rounding (Theorem 3.3), the 2-/3-approximations of
//!   Sections 3.3.1/3.3.2, exact branch-and-bound, greedy baselines;
//! * [`lp`] (`sst-lp`) — the dense simplex solver;
//! * [`setcover`] (`sst-setcover`) — the hardness substrate (Theorem 3.5);
//! * [`gen`] (`sst-gen`) — seeded workload generators and scenarios;
//! * [`portfolio`] (`sst-portfolio`) — the solver-portfolio service:
//!   feature-based algorithm selection, deadline racing with cross-seeded
//!   incumbents, and the NDJSON protocol behind `sst serve`.
//!
//! ## Quickstart
//!
//! ```
//! use setup_scheduling::prelude::*;
//!
//! // Two machines (speeds 2 and 1), two classes with setup sizes 3 and 5.
//! let inst = UniformInstance::new(
//!     vec![2, 1],
//!     vec![3, 5],
//!     vec![Job::new(0, 4), Job::new(1, 6), Job::new(0, 2)],
//! )
//! .unwrap();
//!
//! // Lemma 2.1: the ~4.74-approximation.
//! let (schedule, makespan) = lpt_with_setups_makespan(&inst);
//! assert_eq!(schedule.n(), 3);
//!
//! // The PTAS does at least as well for small ε.
//! let ptas = ptas_uniform(&inst, &PtasConfig::default());
//! assert!(ptas.makespan <= makespan);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use sst_algos as algos;
pub use sst_core as core;
pub use sst_gen as gen;
pub use sst_lp as lp;
pub use sst_portfolio as portfolio;
pub use sst_setcover as setcover;

/// The most common imports in one place.
pub mod prelude {
    pub use sst_algos::annealing::{anneal_uniform, anneal_unrelated, AnnealConfig};
    pub use sst_algos::configlp::{config_lp_lower_bound, ConfigLpLimits};
    pub use sst_algos::cupt::solve_class_uniform_ptimes;
    pub use sst_algos::exact::{exact_uniform, exact_unrelated};
    pub use sst_algos::identical::{batch_lpt_identical, wrap_identical};
    pub use sst_algos::lpt::{lpt_with_setups, lpt_with_setups_makespan, LPT_FACTOR};
    pub use sst_algos::ptas::{ptas_uniform, PtasConfig};
    pub use sst_algos::ra::solve_ra_class_uniform;
    pub use sst_algos::rounding::{solve_unrelated_randomized, RoundingConfig};
    pub use sst_algos::splittable::{
        solve_splittable_class_uniform_ptimes, solve_splittable_ra_class_uniform, SplitSchedule,
        SplitShare,
    };
    pub use sst_core::bounds::{uniform_lower_bound, unrelated_lower_bound};
    pub use sst_core::instance::{Job, UniformInstance, UnrelatedInstance, INF};
    pub use sst_core::ratio::Ratio;
    pub use sst_core::schedule::{
        uniform_loads, uniform_makespan, unrelated_loads, unrelated_makespan, Schedule,
    };
    pub use sst_core::timeline::{render_gantt, render_gantt_svg, Timeline};
    pub use sst_portfolio::{race, ProblemInstance, RaceConfig};
}
