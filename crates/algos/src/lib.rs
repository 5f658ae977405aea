//! # sst-algos — the approximation algorithms of Jansen, Maack, Mäcker
//!
//! Every algorithmic result of *"Scheduling on (Un-)Related Machines with
//! Setup Times"* (IPPS 2019), plus the exact solvers and greedy baselines
//! the experiments compare against:
//!
//! | Paper result | Module |
//! |---|---|
//! | Lemma 2.1 — LPT `≈ 4.74`-approximation (uniform) | [`lpt`] |
//! | Section 2 — PTAS for uniform machines | [`ptas`] |
//! | Theorem 3.3 — `O(log n + log m)` randomized rounding (unrelated) | [`rounding`], [`lp_relax`] |
//! | Theorem 3.10 — 2-approx, RA with class-uniform restrictions | [`ra`], [`pseudoforest`] |
//! | Theorem 3.11 — 3-approx, class-uniform processing times | [`cupt`] |
//! | Baselines (setup-oblivious/-aware greedy) | [`list`] |
//! | Exact branch-and-bound (sequential + parallel) | [`exact`] |
//! | Local-search post-optimization (extension) | [`local_search`] |
//! | MULTIFIT/FFD heuristic baseline (extension) | [`multifit`] |
//! | Splittable model of Correa et al. \[5\] (Section 3.3's substrate) | [`splittable`] |
//! | Identical-machines constant factors (\[24\] lineage) | [`identical`] |
//! | Simulated annealing — the OR-survey metaheuristic baseline | [`annealing`] |
//! | Configuration-LP lower bound via column generation (\[19,20\] lineage) | [`configlp`] |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod annealing;
pub mod configlp;
pub mod cupt;
pub mod exact;
pub mod identical;
pub mod list;
pub mod local_search;
pub mod lp_relax;
pub mod lpt;
pub mod multifit;
pub mod pseudoforest;
pub mod ptas;
pub mod ra;
pub mod repair;
pub mod rounding;
pub mod splittable;

pub use cupt::solve_class_uniform_ptimes;
pub use exact::{exact_uniform, exact_unrelated, ExactResult};
pub use lpt::{lpt_with_setups, lpt_with_setups_makespan, LPT_FACTOR};
pub use ra::{solve_ra_class_uniform, RaResult};
pub use repair::{repair_after_deltas, repair_schedule, RepairError, RepairOutcome};
pub use rounding::{solve_unrelated_randomized, RoundingConfig, RoundingResult};
pub use splittable::{
    solve_splittable_class_uniform_ptimes, solve_splittable_ra_class_uniform,
    split_from_assignment, split_greedy, splittable_feasible, SplitResult, SplitSchedule,
    SplitShare,
};
