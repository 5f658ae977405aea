//! # sst-setcover — set cover substrate for the hardness side of the paper
//!
//! Section 3.2 of *Jansen, Maack, Mäcker (2019)* proves the
//! `Ω(log n + log m)` inapproximability of scheduling with setup times on
//! unrelated machines by a randomized reduction from SetCover. This crate
//! supplies everything that argument consumes:
//!
//! * [`instance::SetCoverInstance`] — the combinatorial substrate;
//! * [`solvers`] — the greedy `H_N`-approximation and an exact
//!   branch-and-bound used to certify cover numbers;
//! * [`gap`] — the deterministic GF(2) family with *known* integral (`k`)
//!   and fractional (`< 2`) optima, substituting for NP-hard gap instances
//!   (measured by the E4 experiment, `e4_hardness` in `sst-bench`);
//! * [`lp`] — the set cover LP, certified by `sst-lp`, with randomized
//!   `O(log N)` and deterministic frequency roundings (the Vazirani
//!   machinery Cor. 3.4 leans on);
//! * [`reduction`] — the Theorem 3.5 reduction itself, its yes-certificate
//!   schedule, and the averaging lower bound on reduced instances.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod gap;
pub mod instance;
pub mod lp;
pub mod reduction;
pub mod solvers;

pub use gap::{gf2_basis_cover, gf2_fractional_optimum, gf2_gap_instance, gf2_integral_optimum};
pub use instance::SetCoverInstance;
pub use lp::{frequency_rounding_cover, lp_cover, randomized_rounding_cover, FractionalCover};
pub use reduction::{reduce, reduction_makespan_lower_bound, schedule_from_cover, Reduction};
pub use solvers::{exact_cover, greedy_cover};
