//! Splittable scheduling with setup times — the model of Correa et al. \[5\]
//! that Section 3.3 builds on.
//!
//! The paper notes (Section 3.3.1) that LP-RelaxedRA "is identical to the LP
//! given in \[5\]", where \[5\]'s splittable *jobs* correspond to our setup
//! *classes*: a class's workload may be split arbitrarily across machines —
//! parts may even run simultaneously — but every machine that processes a
//! positive share of a class pays that class's **full** setup time. The
//! makespan of a split schedule on machine `i` is therefore
//! `Σ_k x̄_ik·p̄_ik + Σ_{k: x̄_ik>0} s_ik`.
//!
//! This module provides the split-schedule model ([`SplitSchedule`], with
//! validation and exact evaluation) and two LP-rounding solvers mirroring
//! the two special cases of Section 3.3, with the job-granularity step
//! removed (splitting makes it unnecessary):
//!
//! * [`solve_splittable_ra_class_uniform`] — restricted assignment with
//!   class-uniform restrictions; the Lemma 3.9 move gives makespan `≤ 2T*`.
//! * [`solve_splittable_class_uniform_ptimes`] — unrelated machines with
//!   class-uniform processing times; the Section 3.3.2 doubling rule gives
//!   makespan `≤ 3T*` (each machine carries at most 2× its LP row plus at
//!   most one fractional class's setup top-up `≤ T`).
//!
//! `T*` — the smallest LP-feasible guess — lower-bounds the *splittable*
//! optimum as well: a split schedule with makespan `T` induces a feasible
//! LP point (`x̄_ik·p̄_ik + s_ik ≤ T` forces `x̄_ik·α_ik ≤ 1`, so the LP row
//! charges at most the true load). \[5\]'s golden-ratio `(1+φ)` rounding
//! for the fully general unrelated case is deliberately out of scope; the
//! README's *Machine models* section lists what the split model covers.
//!
//! ```
//! use sst_algos::splittable::solve_splittable_ra_class_uniform;
//! use sst_core::instance::UnrelatedInstance;
//!
//! // One 40-unit class (setup 2) on two machines: unsplittable optimum is
//! // 42; the split optimum is 22 (20 work + setup per machine).
//! let inst = UnrelatedInstance::restricted_assignment(
//!     2, vec![0], vec![40], vec![vec![0, 1]], vec![2], None,
//! ).unwrap();
//! let res = solve_splittable_ra_class_uniform(&inst);
//! res.schedule.validate(&inst).unwrap();
//! assert!(res.makespan <= 2.0 * res.t_star as f64 + 1e-6);
//! assert!(res.makespan < 42.0);
//! ```

use crate::pseudoforest::compute_etilde;
use crate::ra::{solve_lp_relaxed_ra, ExclusionRule, RaFractional};
use sst_core::bounds::unrelated_upper_bound;
use sst_core::dual::{binary_search_u64, Decision};
use sst_core::instance::{is_finite, ClassId, MachineId, UnrelatedInstance};
use sst_core::schedule::Schedule;

/// A positive share of one class's workload on one machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitShare {
    /// Machine carrying the share.
    pub machine: MachineId,
    /// Fraction of the class's workload, in `(0, 1]`.
    pub fraction: f64,
}

/// A split schedule: per class, the machines sharing its workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitSchedule {
    shares: Vec<Vec<SplitShare>>,
}

/// Fraction-sum tolerance for [`SplitSchedule::validate`].
pub const SPLIT_TOL: f64 = 1e-6;

/// Why a split schedule was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum SplitError {
    /// Share rows don't match the number of classes.
    WrongClassCount {
        /// Classes in the instance.
        expected: usize,
        /// Share rows provided.
        got: usize,
    },
    /// A nonempty class's fractions do not sum to 1 (within [`SPLIT_TOL`]).
    BadFractionSum {
        /// Offending class.
        class: ClassId,
        /// The sum its fractions reached.
        sum: f64,
    },
    /// A share is non-positive, exceeds 1, or is not finite.
    BadFraction {
        /// Offending class.
        class: ClassId,
        /// Machine of the offending share.
        machine: MachineId,
    },
    /// A share sits on a machine where the class's workload or setup is ∞.
    InfiniteShare {
        /// Offending class.
        class: ClassId,
        /// Machine of the offending share.
        machine: MachineId,
    },
    /// An empty class has shares (it has no workload to split).
    EmptyClassWithShares {
        /// Offending class.
        class: ClassId,
    },
}

impl std::fmt::Display for SplitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SplitError::WrongClassCount { expected, got } => {
                write!(f, "split schedule covers {got} classes, instance has {expected}")
            }
            SplitError::BadFractionSum { class, sum } => {
                write!(f, "class {class}: fractions sum to {sum}, expected 1")
            }
            SplitError::BadFraction { class, machine } => {
                write!(f, "class {class} on machine {machine}: fraction outside (0,1]")
            }
            SplitError::InfiniteShare { class, machine } => {
                write!(f, "class {class} split onto machine {machine} where workload or setup is ∞")
            }
            SplitError::EmptyClassWithShares { class } => {
                write!(f, "class {class} is empty but has shares")
            }
        }
    }
}

impl std::error::Error for SplitError {}

impl SplitSchedule {
    /// Wraps per-class share rows (row `k` = shares of class `k`).
    pub fn new(shares: Vec<Vec<SplitShare>>) -> SplitSchedule {
        SplitSchedule { shares }
    }

    /// Shares of class `k`.
    pub fn shares_of(&self, k: ClassId) -> &[SplitShare] {
        &self.shares[k]
    }

    /// All share rows, indexed by class.
    pub fn shares(&self) -> &[Vec<SplitShare>] {
        &self.shares
    }

    /// Number of machines processing a positive share of class `k`.
    pub fn split_degree(&self, k: ClassId) -> usize {
        self.shares[k].len()
    }

    /// Checks the split-schedule invariants against an instance.
    pub fn validate(&self, inst: &UnrelatedInstance) -> Result<(), SplitError> {
        if self.shares.len() != inst.num_classes() {
            return Err(SplitError::WrongClassCount {
                expected: inst.num_classes(),
                got: self.shares.len(),
            });
        }
        for (k, row) in self.shares.iter().enumerate() {
            let empty_class = inst.jobs_of_class(k).is_empty();
            if empty_class {
                if !row.is_empty() {
                    return Err(SplitError::EmptyClassWithShares { class: k });
                }
                continue;
            }
            let mut sum = 0.0;
            for share in row {
                if !share.fraction.is_finite()
                    || share.fraction <= 0.0
                    || share.fraction > 1.0 + SPLIT_TOL
                {
                    return Err(SplitError::BadFraction { class: k, machine: share.machine });
                }
                if !is_finite(inst.class_workload(share.machine, k))
                    || !is_finite(inst.setup(share.machine, k))
                {
                    return Err(SplitError::InfiniteShare { class: k, machine: share.machine });
                }
                sum += share.fraction;
            }
            if (sum - 1.0).abs() > SPLIT_TOL * row.len().max(1) as f64 {
                return Err(SplitError::BadFractionSum { class: k, sum });
            }
        }
        Ok(())
    }

    /// Per-machine load: `Σ_k x̄_ik·p̄_ik + Σ_{k: x̄_ik>0} s_ik`.
    pub fn machine_loads(&self, inst: &UnrelatedInstance) -> Vec<f64> {
        let mut load = vec![0.0f64; inst.m()];
        for (k, row) in self.shares.iter().enumerate() {
            for share in row {
                let pbar = inst.class_workload(share.machine, k);
                let s = inst.setup(share.machine, k);
                debug_assert!(is_finite(pbar) && is_finite(s));
                load[share.machine] += share.fraction * pbar as f64 + s as f64;
            }
        }
        load
    }

    /// Makespan of the split schedule.
    pub fn makespan(&self, inst: &UnrelatedInstance) -> f64 {
        self.machine_loads(inst).into_iter().fold(0.0, f64::max)
    }
}

/// Result of a splittable solver.
#[derive(Debug, Clone)]
pub struct SplitResult {
    /// The rounded split schedule (validated).
    pub schedule: SplitSchedule,
    /// Its makespan.
    pub makespan: f64,
    /// Smallest LP-feasible guess — lower bound on the splittable optimum.
    pub t_star: u64,
}

/// Splittable 2-approximation for restricted assignment with class-uniform
/// restrictions (Lemma 3.9's move, without the job-granularity pour).
///
/// # Panics
/// Panics on instances that are not restricted assignment with
/// class-uniform restrictions.
pub fn solve_splittable_ra_class_uniform(inst: &UnrelatedInstance) -> SplitResult {
    assert!(
        inst.is_restricted_assignment(),
        "splittable 2-approximation requires a restricted-assignment instance"
    );
    assert!(
        inst.has_class_uniform_restrictions(),
        "splittable 2-approximation requires class-uniform restrictions"
    );
    solve_split(inst, ExclusionRule::SetupOnly, round_split_move)
}

/// Splittable 3-approximation for unrelated machines with class-uniform
/// processing times (the Section 3.3.2 doubling redistribution).
///
/// # Panics
/// Panics on instances without class-uniform processing times.
pub fn solve_splittable_class_uniform_ptimes(inst: &UnrelatedInstance) -> SplitResult {
    assert!(
        inst.has_class_uniform_ptimes(),
        "splittable 3-approximation requires class-uniform processing times"
    );
    solve_split(inst, ExclusionRule::SetupPlusJob, round_split_double)
}

fn solve_split(
    inst: &UnrelatedInstance,
    rule: ExclusionRule,
    round: impl Fn(&UnrelatedInstance, &RaFractional) -> SplitSchedule,
) -> SplitResult {
    if inst.n() == 0 {
        let schedule = SplitSchedule::new(vec![Vec::new(); inst.num_classes()]);
        return SplitResult { schedule, makespan: 0.0, t_star: 0 };
    }
    let lb = splittable_lower_bound(inst).max(1);
    let ub = unrelated_upper_bound(inst).max(lb);
    let (t_star, frac) = binary_search_u64(lb, ub, |t| match solve_lp_relaxed_ra(inst, t, rule) {
        Some(f) => Decision::Feasible(f),
        None => Decision::Infeasible,
    })
    .expect("LP feasible at the greedy upper bound");
    let schedule = round(inst, &frac);
    debug_assert_eq!(schedule.validate(inst), Ok(()));
    let makespan = schedule.makespan(inst);
    SplitResult { schedule, makespan, t_star }
}

/// A lower bound on the **splittable** optimum. The job-granular bound of
/// `sst_core::bounds` (cheapest `p_ij + s_ik` per job) is invalid here — a
/// split class pays per *share*, not per job — so this uses only
/// split-safe facts: every nonempty class pays at least one setup
/// somewhere (`min_i s_ik`), and if class `k` runs on `d` machines its
/// busiest one carries at least `p̄_ik/d + s_ik` (optimize over `d ≤ m`).
pub fn splittable_lower_bound(inst: &UnrelatedInstance) -> u64 {
    let m = inst.m() as u64;
    let mut lb = 0u64;
    for &k in inst.nonempty_classes() {
        let per_class = (0..inst.m())
            .filter_map(|i| {
                let s = inst.setup(i, k);
                let pbar = inst.class_workload(i, k);
                if !is_finite(s) || !is_finite(pbar) {
                    return None;
                }
                // Best split degree d minimizes p̄/d + s; at d = m the
                // busiest-share bound is weakest, so use that (cheap and
                // safe — the bisection only needs a valid starting point).
                Some(s + pbar.div_ceil(m))
            })
            .min()
            .unwrap_or(0);
        lb = lb.max(per_class);
    }
    lb
}

/// True iff the instance can host every nonempty class *whole* on some
/// machine (finite workload and setup): the feasibility precondition of the
/// splittable model's solvers and greedy floor. Per-job schedulability is
/// not enough — a class whose jobs are eligible only on disjoint machine
/// sets has no machine that can carry a positive share of the whole class.
pub fn splittable_feasible(inst: &UnrelatedInstance) -> bool {
    inst.nonempty_classes().iter().all(|&k| {
        (0..inst.m()).any(|i| is_finite(inst.class_workload(i, k)) && is_finite(inst.setup(i, k)))
    })
}

/// The splittable model's greedy floor: classes in descending cheapest
/// whole-placement cost, each placed *whole* (`x̄ = 1`) on the machine
/// minimizing its resulting load. Deterministic, `O(K·m)` after the
/// workload sums, and always valid on [`splittable_feasible`] instances —
/// the quality floor every splittable race is measured against, mirroring
/// the setup-aware greedy of the integral models.
///
/// The returned `t_star` is [`splittable_lower_bound`] — a certified lower
/// bound on the splittable optimum, not an LP certificate.
///
/// # Panics
/// Panics when some nonempty class cannot be hosted whole anywhere (check
/// with [`splittable_feasible`] first).
pub fn split_greedy(inst: &UnrelatedInstance) -> SplitResult {
    let m = inst.m();
    let mut loads = vec![0u64; m];
    let mut shares: Vec<Vec<SplitShare>> = vec![Vec::new(); inst.num_classes()];
    // Heaviest classes first (by their cheapest whole placement), so the
    // light tail balances around them; ties break by class id.
    let mut order: Vec<(u64, ClassId)> = inst
        .nonempty_classes()
        .iter()
        .map(|&k| {
            let cheapest = (0..m)
                .filter_map(|i| {
                    let w = inst.class_workload(i, k);
                    let s = inst.setup(i, k);
                    (is_finite(w) && is_finite(s)).then(|| w + s)
                })
                .min()
                .expect("splittable_feasible: every nonempty class hostable somewhere");
            (cheapest, k)
        })
        .collect();
    order.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for (_, k) in order {
        let best = (0..m)
            .filter_map(|i| {
                let w = inst.class_workload(i, k);
                let s = inst.setup(i, k);
                (is_finite(w) && is_finite(s)).then(|| (loads[i] + w + s, i))
            })
            .min()
            .expect("feasible by the ordering pass");
        loads[best.1] = best.0;
        shares[k].push(SplitShare { machine: best.1, fraction: 1.0 });
    }
    let schedule = SplitSchedule::new(shares);
    debug_assert_eq!(schedule.validate(inst), Ok(()));
    let makespan = schedule.makespan(inst);
    SplitResult { schedule, makespan, t_star: splittable_lower_bound(inst) }
}

/// Lifts a job-granular (integral) schedule into the split model: class
/// `k`'s share on machine `i` is its workload fraction
/// `Σ_{j∈k on i} p_ij / p̄_ik`. Shares sum to 1 exactly when workload
/// fractions are consistent across machines — i.e. under the two
/// structures of Section 3.3 (restricted assignment with class-uniform
/// restrictions, or class-uniform processing times); the caller is
/// expected to [`SplitSchedule::validate`] the result and decline
/// otherwise. This is how the integral tracker/descent sub-space (see
/// [`sst_core::model::Splittable`]) re-enters the split solution space.
pub fn split_from_assignment(inst: &UnrelatedInstance, sched: &Schedule) -> SplitSchedule {
    let m = inst.m();
    let mut shares: Vec<Vec<SplitShare>> = vec![Vec::new(); inst.num_classes()];
    for &k in inst.nonempty_classes() {
        let mut on_machine = vec![0u64; m];
        for &j in inst.jobs_of_class(k) {
            let i = sched.machine_of(j);
            debug_assert!(is_finite(inst.ptime(i, j)));
            on_machine[i] += inst.ptime(i, j);
        }
        let mut total = 0.0;
        for (i, &w) in on_machine.iter().enumerate() {
            if w == 0 {
                continue;
            }
            let pbar = inst.class_workload(i, k);
            debug_assert!(is_finite(pbar) && pbar > 0);
            let f = w as f64 / pbar as f64;
            shares[k].push(SplitShare { machine: i, fraction: f });
            total += f;
        }
        if total > 0.0 {
            // Exact under the Section 3.3 structures up to float error;
            // scaling to 1 absorbs that error so validation is exact-ish.
            for s in shares[k].iter_mut() {
                s.fraction /= total;
            }
        } else {
            // Zero-workload class (every hosted job has p_ij = 0): park it
            // whole on its first job's machine.
            let i = sched.machine_of(inst.jobs_of_class(k)[0]);
            shares[k].push(SplitShare { machine: i, fraction: 1.0 });
        }
    }
    SplitSchedule::new(shares)
}

/// Integrality threshold shared with the non-splittable roundings.
const INTEGRAL_TOL: f64 = 1e-6;

/// Splits the fractional support into integral homes and Ẽ structure.
fn split_support(
    frac: &RaFractional,
    kk: usize,
    m: usize,
) -> (Vec<Option<usize>>, crate::pseudoforest::Etilde) {
    let mut support_edges: Vec<(usize, usize)> = Vec::new();
    let mut integral_home: Vec<Option<usize>> = vec![None; kk];
    for (k, row) in frac.xbar.iter().enumerate() {
        if let Some(&(i, _)) = row.iter().find(|&&(_, v)| v >= 1.0 - INTEGRAL_TOL) {
            integral_home[k] = Some(i);
        } else {
            for &(i, _) in row {
                support_edges.push((k, i));
            }
        }
    }
    (integral_home, compute_etilde(&support_edges, kk, m))
}

/// Lemma 3.9 move: the at-most-one non-Ẽ share of each fractional class is
/// moved wholesale onto one kept machine (`i⁺_k`, which no other class uses
/// as its `i⁺`); all other shares stay put.
fn round_split_move(inst: &UnrelatedInstance, frac: &RaFractional) -> SplitSchedule {
    let kk = inst.num_classes();
    let (integral_home, etilde) = split_support(frac, kk, inst.m());
    let mut shares: Vec<Vec<SplitShare>> = vec![Vec::new(); kk];
    for k in 0..kk {
        if inst.jobs_of_class(k).is_empty() {
            continue;
        }
        if let Some(i) = integral_home[k] {
            shares[k].push(SplitShare { machine: i, fraction: 1.0 });
            continue;
        }
        let value = |i: usize| -> f64 {
            frac.xbar[k].iter().find(|&&(ii, _)| ii == i).map(|&(_, v)| v).unwrap_or(0.0)
        };
        let kept = &etilde.kept[k];
        assert!(!kept.is_empty(), "fractional class keeps at least one support edge");
        let i_plus = *kept.last().expect("non-empty");
        let moved = etilde.removed[k].map(&value).unwrap_or(0.0);
        let mut total = 0.0;
        for &i in kept {
            let f = value(i) + if i == i_plus { moved } else { 0.0 };
            if f > 0.0 {
                shares[k].push(SplitShare { machine: i, fraction: f });
                total += f;
            }
        }
        renormalize(&mut shares[k], total);
    }
    SplitSchedule::new(shares)
}

/// Section 3.3.2 doubling: a removed share `> 1/2` pulls the whole class to
/// `i⁻`; otherwise the kept shares are scaled by `1/(1−x̄_{i⁻k}) ≤ 2`.
fn round_split_double(inst: &UnrelatedInstance, frac: &RaFractional) -> SplitSchedule {
    let kk = inst.num_classes();
    let (integral_home, etilde) = split_support(frac, kk, inst.m());
    let mut shares: Vec<Vec<SplitShare>> = vec![Vec::new(); kk];
    for k in 0..kk {
        if inst.jobs_of_class(k).is_empty() {
            continue;
        }
        if let Some(i) = integral_home[k] {
            shares[k].push(SplitShare { machine: i, fraction: 1.0 });
            continue;
        }
        let value = |i: usize| -> f64 {
            frac.xbar[k].iter().find(|&&(ii, _)| ii == i).map(|&(_, v)| v).unwrap_or(0.0)
        };
        let removed_share = etilde.removed[k].map(&value).unwrap_or(0.0);
        if removed_share > 0.5 {
            let i_minus = etilde.removed[k].expect("share > 0 implies a removed machine");
            shares[k].push(SplitShare { machine: i_minus, fraction: 1.0 });
            continue;
        }
        let kept = &etilde.kept[k];
        assert!(!kept.is_empty(), "fractional class keeps at least one support edge");
        let scale = 1.0 / (1.0 - removed_share);
        let mut total = 0.0;
        for &i in kept {
            let f = value(i) * scale;
            if f > 0.0 {
                shares[k].push(SplitShare { machine: i, fraction: f });
                total += f;
            }
        }
        renormalize(&mut shares[k], total);
    }
    SplitSchedule::new(shares)
}

/// Scales a share row so its fractions sum to exactly 1 (the roundings keep
/// sums within floating error of 1; validation wants them exact-ish).
fn renormalize(row: &mut [SplitShare], total: f64) {
    debug_assert!((total - 1.0).abs() < 1e-6, "share sum {total} far from 1");
    if total > 0.0 {
        for s in row.iter_mut() {
            s.fraction /= total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_core::instance::INF;

    fn ra_instance(
        m: usize,
        class_sizes: Vec<Vec<u64>>,
        class_machines: Vec<Vec<usize>>,
        class_setups: Vec<u64>,
    ) -> UnrelatedInstance {
        let mut job_class = Vec::new();
        let mut sizes = Vec::new();
        let mut eligible = Vec::new();
        for (k, js) in class_sizes.iter().enumerate() {
            for &p in js {
                job_class.push(k);
                sizes.push(p);
                eligible.push(class_machines[k].clone());
            }
        }
        UnrelatedInstance::restricted_assignment(
            m,
            job_class,
            sizes,
            eligible,
            class_setups,
            Some(class_machines),
        )
        .unwrap()
    }

    #[test]
    fn split_schedule_evaluation() {
        let inst = ra_instance(2, vec![vec![4, 4]], vec![vec![0, 1]], vec![2]);
        let s = SplitSchedule::new(vec![vec![
            SplitShare { machine: 0, fraction: 0.5 },
            SplitShare { machine: 1, fraction: 0.5 },
        ]]);
        s.validate(&inst).unwrap();
        // Each machine: 0.5·8 + 2 = 6.
        let loads = s.machine_loads(&inst);
        assert!((loads[0] - 6.0).abs() < 1e-9 && (loads[1] - 6.0).abs() < 1e-9);
        assert!((s.makespan(&inst) - 6.0).abs() < 1e-9);
        assert_eq!(s.split_degree(0), 2);
    }

    #[test]
    fn validation_catches_bad_sum_and_bad_machine() {
        let inst = ra_instance(2, vec![vec![4]], vec![vec![0]], vec![2]);
        let short = SplitSchedule::new(vec![vec![SplitShare { machine: 0, fraction: 0.5 }]]);
        assert!(matches!(short.validate(&inst), Err(SplitError::BadFractionSum { class: 0, .. })));
        // machine 1 is ineligible (workload ∞ there).
        let wrong = SplitSchedule::new(vec![vec![SplitShare { machine: 1, fraction: 1.0 }]]);
        assert!(matches!(
            wrong.validate(&inst),
            Err(SplitError::InfiniteShare { class: 0, machine: 1 })
        ));
        let neg = SplitSchedule::new(vec![vec![SplitShare { machine: 0, fraction: -0.2 }]]);
        assert!(matches!(neg.validate(&inst), Err(SplitError::BadFraction { .. })));
        let rows = SplitSchedule::new(vec![]);
        assert!(matches!(rows.validate(&inst), Err(SplitError::WrongClassCount { .. })));
    }

    #[test]
    fn validation_rejects_shares_on_empty_class() {
        let inst = UnrelatedInstance::new(
            1,
            vec![0],
            vec![vec![3]],
            vec![vec![1], vec![1]], // class 1 exists but has no jobs
        )
        .unwrap();
        let s = SplitSchedule::new(vec![
            vec![SplitShare { machine: 0, fraction: 1.0 }],
            vec![SplitShare { machine: 0, fraction: 1.0 }],
        ]);
        assert_eq!(s.validate(&inst), Err(SplitError::EmptyClassWithShares { class: 1 }));
    }

    #[test]
    fn ra_split_two_approximation() {
        let inst = ra_instance(
            3,
            vec![vec![4, 4, 4], vec![6, 2], vec![5, 5, 5, 5]],
            vec![vec![0, 1], vec![1, 2], vec![0, 1, 2]],
            vec![2, 3, 1],
        );
        let res = solve_splittable_ra_class_uniform(&inst);
        res.schedule.validate(&inst).unwrap();
        assert!(
            res.makespan <= 2.0 * res.t_star as f64 + 1e-6,
            "{} > 2·{}",
            res.makespan,
            res.t_star
        );
        // Splitting can only help: split makespan ≤ integral optimum.
        let exact = crate::exact::exact_unrelated(&inst, 1 << 22);
        assert!(exact.complete);
        assert!(res.t_star as f64 <= exact.makespan as f64 + 1e-9);
    }

    #[test]
    fn one_heavy_class_splits_across_machines() {
        // 40 units of work, setup 2, two machines: splitting beats any
        // integral schedule of a *single job* of size 40 would (22 vs 42).
        let inst = ra_instance(2, vec![vec![40]], vec![vec![0, 1]], vec![2]);
        let res = solve_splittable_ra_class_uniform(&inst);
        res.schedule.validate(&inst).unwrap();
        // Split optimum: x·40+2 = (1−x)·40+2 → 22.
        assert!(res.makespan <= 2.0 * res.t_star as f64 + 1e-6);
        assert!(res.makespan <= 24.0 + 1e-6, "measured {}", res.makespan);
        // The integral optimum is 42; splitting must do strictly better.
        let exact = crate::exact::exact_unrelated(&inst, 1 << 20);
        assert_eq!(exact.makespan, 42);
        assert!(res.makespan < 42.0);
    }

    #[test]
    fn cupt_split_three_approximation() {
        // Class-uniform processing times on genuinely unrelated machines.
        let inst = UnrelatedInstance::new(
            3,
            vec![0, 0, 1, 1, 2],
            vec![vec![4, 6, 8], vec![4, 6, 8], vec![9, 3, 5], vec![9, 3, 5], vec![2, 7, 4]],
            vec![vec![1, 2, 3], vec![2, 1, 2], vec![3, 3, 1]],
        )
        .unwrap();
        assert!(inst.has_class_uniform_ptimes());
        let res = solve_splittable_class_uniform_ptimes(&inst);
        res.schedule.validate(&inst).unwrap();
        assert!(
            res.makespan <= 3.0 * res.t_star as f64 + 1e-6,
            "{} > 3·{}",
            res.makespan,
            res.t_star
        );
    }

    #[test]
    fn integral_lp_solutions_stay_integral() {
        // Classes pinned to disjoint machines: LP must be integral and the
        // split schedule puts each class wholly on its machine.
        let inst = ra_instance(2, vec![vec![5, 5], vec![3, 3]], vec![vec![0], vec![1]], vec![1, 1]);
        let res = solve_splittable_ra_class_uniform(&inst);
        assert_eq!(res.schedule.split_degree(0), 1);
        assert_eq!(res.schedule.split_degree(1), 1);
        assert!((res.makespan - 11.0).abs() < 1e-9);
        assert_eq!(res.t_star, 11);
    }

    #[test]
    fn empty_instance() {
        let inst = UnrelatedInstance::new(2, vec![], vec![], vec![vec![1, 1]]).unwrap();
        let res = solve_splittable_ra_class_uniform(&inst);
        assert_eq!(res.makespan, 0.0);
        assert_eq!(res.t_star, 0);
        res.schedule.validate(&inst).unwrap();
    }

    #[test]
    #[should_panic(expected = "class-uniform processing times")]
    fn cupt_split_rejects_non_uniform() {
        let inst =
            UnrelatedInstance::new(2, vec![0, 0], vec![vec![1, 2], vec![2, 1]], vec![vec![1, 1]])
                .unwrap();
        let _ = solve_splittable_class_uniform_ptimes(&inst);
    }

    #[test]
    fn split_greedy_is_a_valid_floor() {
        let inst = ra_instance(
            3,
            vec![vec![4, 4, 4], vec![6, 2], vec![5, 5, 5, 5]],
            vec![vec![0, 1], vec![1, 2], vec![0, 1, 2]],
            vec![2, 3, 1],
        );
        assert!(splittable_feasible(&inst));
        let greedy = split_greedy(&inst);
        greedy.schedule.validate(&inst).unwrap();
        assert!(greedy.t_star as f64 <= greedy.makespan + 1e-9);
        // Every class lands whole on exactly one machine.
        for k in 0..inst.num_classes() {
            assert_eq!(greedy.schedule.split_degree(k), 1, "class {k}");
        }
        // The LP-guided 2-approximation may split; it never certifies a
        // worse lower bound than the combinatorial one.
        let lp = solve_splittable_ra_class_uniform(&inst);
        assert!(lp.t_star >= greedy.t_star);
    }

    #[test]
    fn split_greedy_deterministic_and_respects_inf() {
        let inst = ra_instance(2, vec![vec![9], vec![3, 3]], vec![vec![0], vec![0, 1]], vec![1, 2]);
        let a = split_greedy(&inst);
        let b = split_greedy(&inst);
        assert_eq!(a.schedule, b.schedule);
        // Class 0 is pinned to machine 0.
        assert_eq!(a.schedule.shares_of(0)[0].machine, 0);
    }

    #[test]
    fn splittable_feasible_rejects_unhostable_classes() {
        // Both jobs schedulable individually, but no machine hosts the
        // whole class (disjoint eligibility).
        let inst = UnrelatedInstance::new(
            2,
            vec![0, 0],
            vec![vec![4, INF], vec![INF, 4]],
            vec![vec![1, 1]],
        )
        .unwrap();
        assert!(!splittable_feasible(&inst));
        let ok = ra_instance(2, vec![vec![4, 4]], vec![vec![0, 1]], vec![2]);
        assert!(splittable_feasible(&ok));
    }

    #[test]
    fn assignment_lift_matches_integral_loads_under_both_structures() {
        // RA + class-uniform restrictions.
        let ra =
            ra_instance(2, vec![vec![4, 4], vec![6, 2]], vec![vec![0, 1], vec![0, 1]], vec![2, 3]);
        let sched = Schedule::new(vec![0, 1, 0, 1]);
        let lifted = split_from_assignment(&ra, &sched);
        lifted.validate(&ra).unwrap();
        let loads = lifted.machine_loads(&ra);
        let integral = sst_core::schedule::unrelated_loads(&ra, &sched).unwrap();
        for i in 0..ra.m() {
            assert!(
                (loads[i] - integral[i] as f64).abs() < 1e-6,
                "machine {i}: split {} vs integral {}",
                loads[i],
                integral[i]
            );
        }
        // Class-uniform processing times on genuinely unrelated machines.
        let cupt = UnrelatedInstance::new(
            2,
            vec![0, 0, 1],
            vec![vec![4, 6], vec![4, 6], vec![9, 3]],
            vec![vec![1, 2], vec![2, 1]],
        )
        .unwrap();
        let sched = Schedule::new(vec![0, 1, 1]);
        let lifted = split_from_assignment(&cupt, &sched);
        lifted.validate(&cupt).unwrap();
        let loads = lifted.machine_loads(&cupt);
        let integral = sst_core::schedule::unrelated_loads(&cupt, &sched).unwrap();
        for i in 0..cupt.m() {
            assert!((loads[i] - integral[i] as f64).abs() < 1e-6);
        }
    }

    #[test]
    fn split_degree_counts_machines() {
        let inst = ra_instance(4, vec![vec![10; 8]], vec![vec![0, 1, 2, 3]], vec![1]);
        let res = solve_splittable_ra_class_uniform(&inst);
        // 80 units over 4 machines: the LP spreads the class widely.
        assert!(res.schedule.split_degree(0) >= 2);
        let loads = res.schedule.machine_loads(&inst);
        assert!(loads.iter().all(|&l| l <= 2.0 * res.t_star as f64 + 1e-6));
    }

    #[test]
    fn inf_setup_machines_never_receive_shares() {
        let inst =
            UnrelatedInstance::new(2, vec![0, 0], vec![vec![5, 5], vec![5, 5]], vec![vec![2, INF]])
                .unwrap();
        assert!(inst.has_class_uniform_ptimes());
        let res = solve_splittable_class_uniform_ptimes(&inst);
        for share in res.schedule.shares_of(0) {
            assert_eq!(share.machine, 0, "machine 1 has infinite setup");
        }
    }
}
