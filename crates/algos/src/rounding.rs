//! Randomized rounding for unrelated machines (Section 3.1, Theorem 3.3).
//!
//! Given an optimal fractional solution `(x*, y*)` of the ILP-UM relaxation
//! at guess `T`:
//!
//! 1. For each machine/class pair, set the class up with probability
//!    `y*_ik`; if set up, assign each job `j` of the class with probability
//!    `x*_ij / y*_ik` (unless already assigned).
//! 2. Repeat `⌈c·ln n⌉` times.
//! 3. Any still-unassigned job goes to `argmin_i p_ij` (among machines with
//!    finite setup).
//! 4. Multiple assignments/setups collapse (keep-first), which only lowers
//!    loads.
//!
//! Lemmas 3.1/3.2: with probability `≥ 1 − n^{-c}` every job is assigned by
//! step 2 and every machine load is `O(T(log n + log m))`. Wrapped in the
//! dual-approximation bisection this is the paper's
//! `O(log n + log m)`-approximation (Corollary 3.4), and the guess found by
//! the bisection is itself an LP *lower* bound on `|Opt|` — so measured
//! ratios in the experiments are certified.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::lp_relax::{solve_ilp_um_relaxation, FractionalAssignment, LpRelaxOutcome};
use sst_core::bounds::{unrelated_lower_bound, unrelated_upper_bound};
use sst_core::cancel::CancelToken;
use sst_core::dual::{binary_search_u64_budgeted, BudgetedSearch, Decision};
use sst_core::instance::{is_finite, UnrelatedInstance};
use sst_core::schedule::{unrelated_makespan, Schedule};

/// Tuning knobs of the rounding.
#[derive(Debug, Clone, Copy)]
pub struct RoundingConfig {
    /// The `c` of `⌈c·ln n⌉` rounding iterations (paper: "c log n"). The
    /// failure probability of step 2 is `n^{-c}`.
    pub c: f64,
    /// RNG seed — experiments pin this for reproducibility.
    pub seed: u64,
}

impl Default for RoundingConfig {
    fn default() -> Self {
        RoundingConfig { c: 2.0, seed: 0x5e7_0b5 }
    }
}

/// Result of the full dual-approximation pipeline.
#[derive(Debug, Clone)]
pub struct RoundingResult {
    /// The schedule produced by rounding.
    pub schedule: Schedule,
    /// Its exact makespan.
    pub makespan: u64,
    /// The smallest `T` at which the LP relaxation was feasible — a lower
    /// bound on the optimal makespan.
    pub t_star: u64,
    /// How many jobs survived to the fallback step 3 (0 in the typical run).
    pub fallback_jobs: usize,
}

/// Rounds a fractional solution into a schedule (steps 1–4 above).
pub fn round_fractional(
    inst: &UnrelatedInstance,
    frac: &FractionalAssignment,
    cfg: &RoundingConfig,
) -> (Schedule, usize) {
    round_fractional_budgeted(inst, frac, cfg, &CancelToken::new())
}

/// [`round_fractional`] with cooperative cancellation: the repetition loop
/// stops once `cancel` fires and the step-3 fallback places whatever is
/// still unassigned, so a valid schedule is always produced.
pub fn round_fractional_budgeted(
    inst: &UnrelatedInstance,
    frac: &FractionalAssignment,
    cfg: &RoundingConfig,
    cancel: &CancelToken,
) -> (Schedule, usize) {
    let n = inst.n();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let iterations = ((cfg.c * (n.max(2) as f64).ln()).ceil() as usize).max(1);
    let mut assigned: Vec<Option<usize>> = vec![None; n];
    // Per class: jobs of that class with their sparse x rows, grouped once.
    let mut jobs_of_class: Vec<Vec<usize>> = vec![Vec::new(); inst.num_classes()];
    for j in 0..n {
        jobs_of_class[inst.class_of(j)].push(j);
    }
    let mut remaining = n;
    for _ in 0..iterations {
        if remaining == 0 || cancel.is_cancelled() {
            break;
        }
        for (k, yk) in frac.y.iter().enumerate() {
            for &(i, yik) in yk {
                if !rng.gen_bool(yik.clamp(0.0, 1.0)) {
                    continue; // no setup for k on i this iteration
                }
                for &j in &jobs_of_class[k] {
                    if assigned[j].is_some() {
                        continue; // keep-first (step 4)
                    }
                    let xij =
                        frac.x[j].iter().find(|&&(ii, _)| ii == i).map(|&(_, v)| v).unwrap_or(0.0);
                    if xij <= 0.0 {
                        continue;
                    }
                    let p = (xij / yik).clamp(0.0, 1.0);
                    if rng.gen_bool(p) {
                        assigned[j] = Some(i);
                        remaining -= 1;
                    }
                }
            }
        }
    }
    // Step 3 fallback: cheapest machine by processing time (among machines
    // where the job and its setup are finite — guaranteed to exist).
    let mut fallback = 0usize;
    for j in 0..n {
        if assigned[j].is_none() {
            fallback += 1;
            let i = (0..inst.m())
                .filter(|&i| is_finite(inst.cost(i, j)))
                .min_by_key(|&i| inst.ptime(i, j))
                .expect("instance validation guarantees an eligible machine");
            assigned[j] = Some(i);
        }
    }
    (Schedule::new(assigned.into_iter().map(|a| a.expect("all assigned")).collect()), fallback)
}

/// The full Section-3.1 algorithm: bisect `T` over LP feasibility, round
/// the fractional solution at the smallest feasible guess.
pub fn solve_unrelated_randomized(
    inst: &UnrelatedInstance,
    cfg: &RoundingConfig,
) -> RoundingResult {
    solve_unrelated_randomized_budgeted(inst, cfg, &CancelToken::new())
}

/// [`solve_unrelated_randomized`] with cooperative cancellation.
///
/// The token is polled between LP solves (the bisection's natural check
/// interval — an individual simplex run is not interruptible) and inside
/// the rounding loop. On early exit the best *feasible* fractional solution
/// seen so far is rounded; if none exists yet, the setup-aware greedy
/// schedule is returned. In all cases the reported `t_star` is the certified
/// invariant of the bisection — every `T < t_star` is known infeasible — so
/// it remains a true lower bound on the optimum even when cancelled.
pub fn solve_unrelated_randomized_budgeted(
    inst: &UnrelatedInstance,
    cfg: &RoundingConfig,
    cancel: &CancelToken,
) -> RoundingResult {
    if inst.n() == 0 {
        return RoundingResult {
            schedule: Schedule::new(vec![]),
            makespan: 0,
            t_star: 0,
            fallback_jobs: 0,
        };
    }
    let lb = unrelated_lower_bound(inst);
    let ub = unrelated_upper_bound(inst);
    let search =
        binary_search_u64_budgeted(lb, ub, cancel, |t| match solve_ilp_um_relaxation(inst, t) {
            LpRelaxOutcome::Feasible(f) => Decision::Feasible(f),
            LpRelaxOutcome::Infeasible => Decision::Infeasible,
        });
    let (t_star, frac) = match search {
        BudgetedSearch::Converged(t, f) => (t, Some(f)),
        BudgetedSearch::Cancelled { lower_bound, best } => (lower_bound, best.map(|(_, f)| f)),
        // Only reachable uncancelled — a broken relaxation or upper bound
        // must fail loudly, not degrade quietly to the greedy fallback.
        BudgetedSearch::Infeasible => panic!("LP feasible at the greedy upper bound"),
    };
    let (schedule, fallback_jobs) = match &frac {
        Some(frac) => round_fractional_budgeted(inst, frac, cfg, cancel),
        // Cancelled before any feasible probe: fall back to the greedy
        // schedule (the same incumbent the exact solvers start from).
        None => (crate::list::greedy_unrelated(inst), inst.n()),
    };
    let makespan = unrelated_makespan(inst, &schedule)
        .expect("rounding assigns only along finite x-variables or finite fallbacks");
    RoundingResult { schedule, makespan, t_star, fallback_jobs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_core::dual::{binary_search_u64, Decision};
    use sst_core::instance::INF;

    fn pseudo_random_instance(n: usize, m: usize, kk: usize, seed: u64) -> UnrelatedInstance {
        // Small deterministic generator local to the tests (sst-gen provides
        // the real families; avoiding a dev-dependency cycle here).
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let job_class: Vec<usize> = (0..n).map(|_| (next() % kk as u64) as usize).collect();
        let ptimes: Vec<Vec<u64>> =
            (0..n).map(|_| (0..m).map(|_| 1 + next() % 20).collect()).collect();
        let setups: Vec<Vec<u64>> =
            (0..kk).map(|_| (0..m).map(|_| 1 + next() % 10).collect()).collect();
        UnrelatedInstance::new(m, job_class, ptimes, setups).unwrap()
    }

    #[test]
    fn produces_valid_schedule_and_certified_bound() {
        let inst = pseudo_random_instance(20, 4, 5, 11);
        let res = solve_unrelated_randomized(&inst, &RoundingConfig::default());
        assert_eq!(res.schedule.n(), 20);
        assert_eq!(unrelated_makespan(&inst, &res.schedule).unwrap(), res.makespan);
        // t_star is an LP lower bound on Opt ≤ measured makespan.
        assert!(res.t_star <= res.makespan);
    }

    #[test]
    fn ratio_is_within_log_envelope() {
        let inst = pseudo_random_instance(30, 4, 6, 7);
        let res = solve_unrelated_randomized(&inst, &RoundingConfig::default());
        let envelope = ((30f64).ln() + (4f64).ln()) * 6.0 + 6.0; // generous constant
        let ratio = res.makespan as f64 / res.t_star as f64;
        assert!(
            ratio <= envelope,
            "ratio {ratio} vastly exceeds O(log n + log m) envelope {envelope}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let inst = pseudo_random_instance(15, 3, 4, 3);
        let cfg = RoundingConfig { c: 2.0, seed: 99 };
        let a = solve_unrelated_randomized(&inst, &cfg);
        let b = solve_unrelated_randomized(&inst, &cfg);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn integral_lp_solutions_round_to_themselves() {
        // Disjoint eligibility forces the LP to an integral vertex; the
        // rounding must reproduce it (every y* = x* = 1).
        let inst = UnrelatedInstance::new(
            2,
            vec![0, 1],
            vec![vec![5, INF], vec![INF, 5]],
            vec![vec![1, INF], vec![INF, 1]],
        )
        .unwrap();
        let res = solve_unrelated_randomized(&inst, &RoundingConfig::default());
        assert_eq!(res.schedule.machine_of(0), 0);
        assert_eq!(res.schedule.machine_of(1), 1);
        assert_eq!(res.makespan, 6);
        assert_eq!(res.t_star, 6);
        assert_eq!(res.fallback_jobs, 0);
    }

    #[test]
    fn cancelled_rounding_still_returns_valid_schedule_and_true_bound() {
        let inst = pseudo_random_instance(18, 3, 4, 13);
        let token = CancelToken::new();
        token.cancel();
        let res = solve_unrelated_randomized_budgeted(&inst, &RoundingConfig::default(), &token);
        // Greedy fallback: valid, and t_star stays a certified lower bound.
        assert_eq!(unrelated_makespan(&inst, &res.schedule).unwrap(), res.makespan);
        let full = solve_unrelated_randomized(&inst, &RoundingConfig::default());
        assert!(res.t_star <= full.t_star, "cancelled bound may be weaker, never wrong");
        assert!(res.t_star <= res.makespan);
    }

    #[test]
    fn budgeted_equals_plain_when_never_cancelled() {
        let inst = pseudo_random_instance(16, 3, 4, 29);
        let cfg = RoundingConfig { c: 2.0, seed: 4 };
        let plain = solve_unrelated_randomized(&inst, &cfg);
        let budgeted = solve_unrelated_randomized_budgeted(&inst, &cfg, &CancelToken::new());
        assert_eq!(plain.schedule, budgeted.schedule);
        assert_eq!(plain.t_star, budgeted.t_star);
    }

    #[test]
    fn more_iterations_reduce_fallbacks() {
        let inst = pseudo_random_instance(40, 5, 8, 21);
        let frugal = RoundingConfig { c: 0.1, seed: 5 };
        let generous = RoundingConfig { c: 4.0, seed: 5 };
        // Find the common T*.
        let lb = unrelated_lower_bound(&inst);
        let ub = unrelated_upper_bound(&inst);
        let (_, frac) = binary_search_u64(lb, ub, |t| match solve_ilp_um_relaxation(&inst, t) {
            LpRelaxOutcome::Feasible(f) => Decision::Feasible(f),
            LpRelaxOutcome::Infeasible => Decision::Infeasible,
        })
        .unwrap();
        let (_, fb_frugal) = round_fractional(&inst, &frac, &frugal);
        let (_, fb_generous) = round_fractional(&inst, &frac, &generous);
        assert!(fb_generous <= fb_frugal);
    }
}
