//! Configuration-LP lower bounds by column generation.
//!
//! The assignment LP of Section 3.1 (the relaxation of ILP-UM) is weak:
//! Corollary 3.4 shows its integrality gap is `Θ(log n + log m)`, and even
//! on benign instances it lets a single huge job spread fractionally over
//! all machines. The *configuration LP* — the stronger relaxation behind
//! the paper's restricted-assignment lineage (Jansen–Rohwedder \[19, 20\],
//! Svensson \[26\]) — closes much of that slack: for a makespan guess `T`
//! its columns are whole machine *configurations* (a machine together with
//! a set of jobs whose processing times plus the setups of their classes
//! fit in `T`), so no job can be split below machine granularity.
//!
//! ```text
//!   ∃? x ≥ 0 :  Σ_{C ∈ C_i(T)} x_{i,C} ≤ 1   ∀ machines i
//!               Σ_{(i,C): j ∈ C} x_{i,C} = 1  ∀ jobs j
//! ```
//!
//! Feasibility is decided by column generation on the phase-style master
//! `min Σ_j slack_j`: pricing asks, per machine, for the `T`-feasible
//! configuration maximizing the summed job duals — a knapsack whose items
//! are grouped by setup class (opening a class costs its setup first).
//! The pricing DP is **exact** (budget-indexed, one mask per cell), so a
//! round that adds no column proves the master optimal over *all* columns:
//! positive residual slack then certifies `T < Opt_config ≤ Opt`. The
//! returned bound is therefore a true lower bound on the optimum. Only
//! when no guess hits a limit is it at least as strong as the assignment
//! LP's `T*`, and then often strictly stronger (see the module tests for
//! a factor-~2 example). Under [`ConfigLpLimits::default`] guesses do hit
//! the limits on realistic instances: on twelve 48×5×6 scenario instances
//! the bound came out weaker than `T*` on eleven.
//!
//! Limits: the DP is pseudo-polynomial in `T` and stores one `u64` job
//! mask per budget cell, so instances must have `n ≤ 64` and guesses are
//! capped by [`ConfigLpLimits::max_t`]. Guesses the solver cannot settle
//! within its limits are treated as "possibly feasible", which only ever
//! *weakens* the reported bound — soundness is never at risk.
//!
//! ```
//! use sst_algos::configlp::{config_lp_lower_bound, ConfigLpLimits};
//! use sst_core::instance::UnrelatedInstance;
//!
//! // Three size-10 jobs of one class (setup 2) on two machines: the
//! // assignment LP is feasible at T = 17, but some machine must run two
//! // whole jobs, so the configuration LP certifies 22 — the optimum.
//! let inst = UnrelatedInstance::new(
//!     2, vec![0, 0, 0], vec![vec![10, 10]; 3], vec![vec![2, 2]],
//! ).unwrap();
//! assert_eq!(config_lp_lower_bound(&inst, &ConfigLpLimits::default()), 22);
//! ```

use std::collections::HashSet;

use sst_core::bounds::{unrelated_lower_bound, unrelated_upper_bound};
use sst_core::instance::{is_finite, MachineId, UnrelatedInstance};
use sst_lp::{LpProblem, LpStatus, Relation, Sense, VarId};

/// Resource limits for the column generation loop.
#[derive(Debug, Clone, Copy)]
pub struct ConfigLpLimits {
    /// Largest makespan guess the pricing DP will attempt (budget cells).
    pub max_t: u64,
    /// Cap on generated columns across all rounds.
    pub max_columns: usize,
    /// Cap on master-solve/pricing rounds per feasibility query.
    pub max_rounds: usize,
}

impl Default for ConfigLpLimits {
    fn default() -> Self {
        ConfigLpLimits { max_t: 1 << 13, max_columns: 4_000, max_rounds: 60 }
    }
}

/// Outcome of one configuration-LP feasibility query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigFeasibility {
    /// A fractional configuration cover of all jobs exists at this `T`.
    Feasible,
    /// Certified: no such cover exists, so `T < Opt` (pricing was exact and
    /// the master still had uncovered slack).
    Infeasible,
    /// The limits were hit before a certificate either way.
    Unknown,
}

/// Decides feasibility of the configuration LP at guess `t`.
///
/// # Panics
/// Panics if the instance has more than 64 jobs (the pricing DP stores one
/// `u64` job mask per cell; the bound targets exact-reference sizes).
pub fn config_lp_feasible(
    inst: &UnrelatedInstance,
    t: u64,
    limits: &ConfigLpLimits,
) -> ConfigFeasibility {
    assert!(inst.n() <= 64, "configuration-LP pricing supports n ≤ 64 jobs");
    let n = inst.n();
    let m = inst.m();
    if n == 0 {
        return ConfigFeasibility::Feasible;
    }
    if t > limits.max_t {
        return ConfigFeasibility::Unknown;
    }
    // Quick necessary condition: every job fits somewhere within T.
    for j in 0..n {
        let fits = (0..m).any(|i| {
            let c = inst.cost(i, j);
            is_finite(c) && c <= t
        });
        if !fits {
            return ConfigFeasibility::Infeasible;
        }
    }
    // Columns: (machine, job mask). Start with one empty-ish seed per
    // machine (the greedy single best job) so the master has structure.
    let mut seen: HashSet<(MachineId, u64)> = HashSet::new();
    let mut columns: Vec<(MachineId, u64)> = Vec::new();
    for i in 0..m {
        if let Some(j) = (0..n)
            .filter(|&j| {
                let c = inst.cost(i, j);
                is_finite(c) && c <= t
            })
            .max_by_key(|&j| inst.ptime(i, j))
        {
            let mask = 1u64 << j;
            if seen.insert((i, mask)) {
                columns.push((i, mask));
            }
        }
    }

    for _round in 0..limits.max_rounds {
        // Master: min Σ slack  s.t. slack_j + Σ_{col∋j} x_col = 1 (per job),
        // Σ_{col on i} x_col ≤ 1 (per machine).
        let mut lp = LpProblem::new(Sense::Min);
        let slack: Vec<VarId> = (0..n).map(|_| lp.add_var(1.0, Some(1.0))).collect();
        let xs: Vec<VarId> = columns.iter().map(|_| lp.add_var(0.0, None)).collect();
        for (j, &sv) in slack.iter().enumerate() {
            let mut coeffs = vec![(sv, 1.0)];
            for (c, &(_, mask)) in columns.iter().enumerate() {
                if mask & (1 << j) != 0 {
                    coeffs.push((xs[c], 1.0));
                }
            }
            lp.add_constraint(&coeffs, Relation::Eq, 1.0);
        }
        // Machines without columns get no row (their dual is 0 below).
        // Row order in LpResult.duals follows *add order*: the n slack
        // upper-bound rows from add_var, then the n job rows, then the
        // machine rows added now.
        let mut machine_row: Vec<Option<usize>> = vec![None; m];
        let mut row_count = 0usize;
        for i in 0..m {
            let coeffs: Vec<(VarId, f64)> = columns
                .iter()
                .enumerate()
                .filter(|&(_, &(mi, _))| mi == i)
                .map(|(c, _)| (xs[c], 1.0))
                .collect();
            if !coeffs.is_empty() {
                lp.add_constraint(&coeffs, Relation::Le, 1.0);
                machine_row[i] = Some(row_count);
                row_count += 1;
            }
        }
        let sol = lp.solve();
        if sol.status != LpStatus::Optimal {
            return ConfigFeasibility::Unknown; // numerically wedged master
        }
        if sol.objective <= 1e-7 {
            return ConfigFeasibility::Feasible;
        }
        // Duals: rows were added as [slack ub ×n][job eq ×n][machine le …].
        let job_dual = |j: usize| sol.duals[n + j];
        let machine_dual = |i: usize| machine_row[i].map(|r| sol.duals[n + n + r]).unwrap_or(0.0);

        // Pricing: per machine, maximize Σ_{j∈S} y_j over T-feasible S.
        // Enter any column with Σ y_j > −z_i (reduced cost < 0).
        let mut added = 0usize;
        for i in 0..m {
            if columns.len() + added >= limits.max_columns {
                break;
            }
            let (value, mask) = best_configuration(inst, i, t, &job_dual);
            if mask == 0 {
                continue;
            }
            let threshold = -machine_dual(i) + 1e-6;
            if value > threshold && seen.insert((i, mask)) {
                columns.push((i, mask));
                added += 1;
            }
        }
        if added == 0 {
            // Exact pricing found nothing improving: master optimal over
            // all columns, residual slack > 0 ⇒ infeasible at T. Certified.
            return ConfigFeasibility::Infeasible;
        }
        if columns.len() >= limits.max_columns {
            return ConfigFeasibility::Unknown;
        }
    }
    ConfigFeasibility::Unknown
}

/// Exact pricing: the `t`-feasible configuration on machine `i` maximizing
/// the summed job duals. Budget-indexed DP; items are grouped by class
/// (first job of a class also pays its setup). Returns `(value, job mask)`.
fn best_configuration(
    inst: &UnrelatedInstance,
    i: MachineId,
    t: u64,
    dual: &dyn Fn(usize) -> f64,
) -> (f64, u64) {
    let tt = t as usize;
    let mut val = vec![0.0f64; tt + 1];
    let mut mask = vec![0u64; tt + 1];
    for &k in inst.nonempty_classes() {
        let s = inst.setup(i, k);
        if !is_finite(s) || s > t {
            continue;
        }
        let jobs: Vec<usize> = inst
            .jobs_of_class(k)
            .iter()
            .copied()
            .filter(|&j| {
                let p = inst.ptime(i, j);
                is_finite(p) && s + p <= t && dual(j) > 1e-9
            })
            .collect();
        if jobs.is_empty() {
            continue;
        }
        // tmp[b] — best value using ≥1 job of class k (setup already paid),
        // starting from the pre-class DP shifted by the setup cost.
        let s_us = s as usize;
        let mut tval = vec![f64::NEG_INFINITY; tt + 1];
        let mut tmask = vec![0u64; tt + 1];
        tval[s_us..=tt].copy_from_slice(&val[..=tt - s_us]);
        tmask[s_us..=tt].copy_from_slice(&mask[..=tt - s_us]);
        for &j in &jobs {
            let p = inst.ptime(i, j) as usize;
            let y = dual(j);
            for b in (s_us + p..=tt).rev() {
                let cand = tval[b - p] + y;
                if cand > tval[b] {
                    tval[b] = cand;
                    tmask[b] = tmask[b - p] | (1 << j);
                }
            }
        }
        // Merge: either skip class k entirely or take its best extension.
        for b in 0..=tt {
            if tval[b] > val[b] {
                val[b] = tval[b];
                mask[b] = tmask[b];
            }
        }
        // Make the DP monotone in budget so shifts compose correctly.
        for b in 1..=tt {
            if val[b - 1] > val[b] {
                val[b] = val[b - 1];
                mask[b] = mask[b - 1];
            }
        }
    }
    (val[tt], mask[tt])
}

/// The configuration-LP lower bound: the smallest guess in
/// `[combinatorial LB, greedy UB]` that is not *provably* infeasible.
/// Always a valid lower bound on the optimum; equals the true
/// configuration-LP value when no query returns `Unknown`.
pub fn config_lp_lower_bound(inst: &UnrelatedInstance, limits: &ConfigLpLimits) -> u64 {
    if inst.n() == 0 {
        return 0;
    }
    let mut lo = unrelated_lower_bound(inst).max(1);
    let mut hi = unrelated_upper_bound(inst).max(lo);
    // Invariant: everything below `lo` is infeasible (or below the
    // combinatorial LB); `hi` is never provably infeasible (a real
    // schedule exists at the greedy UB).
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match config_lp_feasible(inst, mid, limits) {
            ConfigFeasibility::Infeasible => lo = mid + 1,
            ConfigFeasibility::Feasible | ConfigFeasibility::Unknown => hi = mid,
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp_relax::lp_makespan_lower_bound;
    use sst_core::instance::INF;

    fn limits() -> ConfigLpLimits {
        ConfigLpLimits::default()
    }

    #[test]
    fn three_jobs_two_machines_gap_closed() {
        // Three jobs of size 10 (one class, setup 2) on two machines. The
        // assignment LP spreads 1.5 jobs per machine: feasible at T = 17
        // (15 work + one setup). The configuration LP knows some machine
        // runs two whole jobs: bound = 22 = Opt. This is exactly the
        // integrality slack Corollary 3.4 blames on ILP-UM.
        let inst =
            UnrelatedInstance::new(2, vec![0, 0, 0], vec![vec![10, 10]; 3], vec![vec![2, 2]])
                .unwrap();
        let weak = lp_makespan_lower_bound(&inst);
        let strong = config_lp_lower_bound(&inst, &limits());
        assert!(weak <= 17, "assignment LP splits job counts: T* = {weak}");
        assert_eq!(strong, 22, "configuration LP must keep jobs whole");
        let exact = crate::exact::exact_unrelated(&inst, 1 << 16);
        assert_eq!(exact.makespan, 22);
    }

    #[test]
    fn config_bound_sandwiched_between_assignment_lp_and_opt() {
        for seed in 0..4u64 {
            let inst = sst_gen_like(seed);
            let weak = lp_makespan_lower_bound(&inst);
            let strong = config_lp_lower_bound(&inst, &limits());
            let exact = crate::exact::exact_unrelated(&inst, 1 << 24);
            assert!(exact.complete);
            assert!(weak <= strong + 1, "seed {seed}: config bound below assignment T*");
            assert!(
                strong <= exact.makespan,
                "seed {seed}: bound {strong} above optimum {}",
                exact.makespan
            );
        }
    }

    /// A small deterministic unrelated family (no sst-gen dependency here).
    fn sst_gen_like(seed: u64) -> UnrelatedInstance {
        let n = 8;
        let m = 3;
        let k = 3;
        let h = |a: u64, b: u64| -> u64 {
            (seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(a * 131 + b * 17) >> 33) % 12 + 1
        };
        let ptimes: Vec<Vec<u64>> =
            (0..n).map(|j| (0..m).map(|i| h(j as u64, i as u64)).collect()).collect();
        let setups: Vec<Vec<u64>> = (0..k)
            .map(|kk| (0..m).map(|i| h(kk as u64 + 50, i as u64) / 2 + 1).collect())
            .collect();
        let classes: Vec<usize> = (0..n).map(|j| j % k).collect();
        UnrelatedInstance::new(m, classes, ptimes, setups).unwrap()
    }

    #[test]
    fn feasible_at_greedy_upper_bound() {
        let inst = sst_gen_like(9);
        let ub = sst_core::bounds::unrelated_upper_bound(&inst);
        assert_eq!(config_lp_feasible(&inst, ub, &limits()), ConfigFeasibility::Feasible);
    }

    #[test]
    fn infeasible_below_single_job_floor() {
        let inst = UnrelatedInstance::new(1, vec![0], vec![vec![10]], vec![vec![5]]).unwrap();
        assert_eq!(config_lp_feasible(&inst, 14, &limits()), ConfigFeasibility::Infeasible);
        assert_eq!(config_lp_feasible(&inst, 15, &limits()), ConfigFeasibility::Feasible);
        assert_eq!(config_lp_lower_bound(&inst, &limits()), 15);
    }

    #[test]
    fn setup_shared_within_configuration() {
        // Two jobs of one class (sizes 5, 5, setup 4) on one machine: a
        // single configuration holds both for T = 14 (= 4+5+5), not 18.
        let inst =
            UnrelatedInstance::new(1, vec![0, 0], vec![vec![5], vec![5]], vec![vec![4]]).unwrap();
        assert_eq!(config_lp_lower_bound(&inst, &limits()), 14);
    }

    #[test]
    fn respects_inf_cells() {
        // Job 1 only runs on machine 1; configurations must respect it.
        let inst =
            UnrelatedInstance::new(2, vec![0, 0], vec![vec![6, 6], vec![INF, 6]], vec![vec![1, 1]])
                .unwrap();
        let bound = config_lp_lower_bound(&inst, &limits());
        // Opt: job1 → m1 (7), job0 → m0 (7) → 7.
        assert_eq!(bound, 7);
    }

    #[test]
    fn unknown_on_oversized_guesses_stays_sound() {
        let inst = UnrelatedInstance::new(1, vec![0], vec![vec![100_000]], vec![vec![1]]).unwrap();
        let tight = ConfigLpLimits { max_t: 64, ..ConfigLpLimits::default() };
        // Every queried guess is over the DP cap → Unknown → bisection
        // collapses to the combinatorial lower bound. Sound, just weak.
        let bound = config_lp_lower_bound(&inst, &tight);
        assert!(bound <= 100_001);
        assert!(bound >= sst_core::bounds::unrelated_lower_bound(&inst));
    }

    #[test]
    fn empty_instance() {
        let inst = UnrelatedInstance::new(2, vec![], vec![], vec![vec![1, 1]]).unwrap();
        assert_eq!(config_lp_lower_bound(&inst, &limits()), 0);
    }

    #[test]
    #[should_panic(expected = "n ≤ 64")]
    fn rejects_oversized_instances() {
        let n = 65;
        let inst = UnrelatedInstance::new(1, vec![0; n], vec![vec![1]; n], vec![vec![1]]).unwrap();
        let _ = config_lp_feasible(&inst, 100, &limits());
    }
}
