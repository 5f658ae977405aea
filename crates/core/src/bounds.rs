//! Combinatorial lower bounds on the optimal makespan.
//!
//! These bootstrap the dual-approximation binary searches (Section 1.1.1 of
//! the paper) and serve as denominators when reporting empirical
//! approximation ratios: `|A| / LB ≥ |A| / |Opt|`, so a measured ratio below
//! an algorithm's guarantee *proves* the guarantee held on that instance.

use crate::instance::{is_finite, UniformInstance, UnrelatedInstance, INF};
use crate::ratio::Ratio;

/// Lower bound for uniform instances: the maximum of
///
/// 1. the *area bound* `(Σ_j p_j + Σ_{k nonempty} s_k) / Σ_i v_i` — every
///    schedule processes all job sizes plus at least one setup per nonempty
///    class, and total speed bounds throughput, and
/// 2. the *single-job bound* `max_j (p_j + s_{k_j}) / v_max` — the machine
///    running job `j` pays its size plus one setup of its class.
pub fn uniform_lower_bound(inst: &UniformInstance) -> Ratio {
    let area = Ratio::new(inst.total_work_with_min_setups().max(1), inst.total_speed());
    let vmax = inst.max_speed();
    let single = (0..inst.n())
        .map(|j| {
            let job = inst.job(j);
            Ratio::new(job.size + inst.setup(job.class), vmax)
        })
        .max()
        .unwrap_or(Ratio::ZERO);
    if inst.n() == 0 {
        return Ratio::ZERO;
    }
    area.max(single)
}

/// Trivial upper bound for uniform instances: run everything on a fastest
/// machine. Used as the right endpoint of binary searches.
pub fn uniform_upper_bound(inst: &UniformInstance) -> Ratio {
    if inst.n() == 0 {
        return Ratio::ZERO;
    }
    Ratio::new(inst.total_work_with_min_setups(), inst.max_speed())
}

/// Lower bound for unrelated instances: `max_j min_i (p_ij + s_{i,k_j})`.
/// The machine that runs `j` has load at least `p_ij + s_{i,k_j}`.
pub fn unrelated_lower_bound(inst: &UnrelatedInstance) -> u64 {
    (0..inst.n())
        .map(|j| (0..inst.m()).map(|i| inst.cost(i, j)).min().unwrap_or(INF))
        .max()
        .unwrap_or(0)
}

/// Trivial upper bound for unrelated instances: assign every job greedily to
/// its cheapest machine and evaluate. Always finite for valid instances.
pub fn unrelated_upper_bound(inst: &UnrelatedInstance) -> u64 {
    use crate::schedule::{unrelated_makespan, Schedule};
    let assignment: Vec<usize> = (0..inst.n())
        .map(|j| {
            (0..inst.m())
                .min_by_key(|&i| inst.cost(i, j))
                .expect("instance has at least one machine")
        })
        .collect();
    unrelated_makespan(inst, &Schedule::new(assignment))
        .expect("cheapest-machine assignment uses only finite entries")
}

/// Area-style lower bound for unrelated instances with a *makespan guess* —
/// used to reject hopeless guesses before solving an LP: if even assigning
/// every job to its cheapest machine w.r.t. `T`-feasibility exceeds total
/// capacity `m·T`, no schedule of makespan `T` exists. Conservative (never
/// rejects a feasible `T`).
pub fn unrelated_area_reject(inst: &UnrelatedInstance, t: u64) -> bool {
    let mut total: u128 = 0;
    for j in 0..inst.n() {
        let best = (0..inst.m())
            .filter(|&i| {
                let p = inst.ptime(i, j);
                is_finite(p) && p <= t && is_finite(inst.setup(i, inst.class_of(j)))
            })
            .map(|i| inst.ptime(i, j))
            .min();
        match best {
            Some(p) => total += p as u128,
            None => return true, // some job cannot run anywhere within T
        }
    }
    total > inst.m() as u128 * t as u128
}

/// Area lower bound for unrelated instances: the smallest `T` that
/// [`unrelated_area_reject`] cannot reject, and never below
/// [`unrelated_lower_bound`]. Unlike the max-job bound it grows with the
/// total work. The test is monotone in `T` (a larger guess admits more
/// machines per job and more capacity), so a bisection finds it between
/// the max-job bound and [`unrelated_upper_bound`], whose schedule the
/// conservative test never rejects.
pub fn unrelated_area_lower_bound(inst: &UnrelatedInstance) -> u64 {
    let mut lo = unrelated_lower_bound(inst);
    if !unrelated_area_reject(inst, lo) {
        return lo;
    }
    // Invariant: reject(lo), !reject(hi).
    let mut hi = unrelated_upper_bound(inst);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if unrelated_area_reject(inst, mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Job;
    use crate::schedule::{uniform_makespan, Schedule};

    #[test]
    fn uniform_bounds_sandwich_a_real_schedule() {
        let inst = UniformInstance::new(
            vec![2, 1],
            vec![3, 5],
            vec![Job::new(0, 4), Job::new(1, 6), Job::new(0, 2)],
        )
        .unwrap();
        let lb = uniform_lower_bound(&inst);
        let ub = uniform_upper_bound(&inst);
        assert!(lb <= ub);
        // Any schedule's makespan must be within [lb, ..]; the all-on-fastest
        // schedule must be within [lb, ub].
        let s = Schedule::new(vec![0, 0, 0]);
        let ms = uniform_makespan(&inst, &s).unwrap();
        assert!(lb <= ms);
        assert!(ms <= ub);
    }

    #[test]
    fn uniform_single_job_bound_dominates_when_one_giant_job() {
        let inst = UniformInstance::new(vec![1, 1, 1, 1], vec![2], vec![Job::new(0, 100)]).unwrap();
        // area bound: 102/4; single-job: 102/1.
        assert_eq!(uniform_lower_bound(&inst), Ratio::new(102, 1));
    }

    #[test]
    fn empty_instances() {
        let inst = UniformInstance::new(vec![1], vec![], vec![]).unwrap();
        assert_eq!(uniform_lower_bound(&inst), Ratio::ZERO);
        assert_eq!(uniform_upper_bound(&inst), Ratio::ZERO);
    }

    #[test]
    fn unrelated_bounds() {
        let inst = UnrelatedInstance::new(
            2,
            vec![0, 1],
            vec![vec![10, 2], vec![1, INF]],
            vec![vec![5, 1], vec![2, 9]],
        )
        .unwrap();
        // job 0: min(10+5, 2+1)=3 ; job 1: min(1+2, INF)=3 → LB = 3.
        assert_eq!(unrelated_lower_bound(&inst), 3);
        let ub = unrelated_upper_bound(&inst);
        assert!(ub >= 3);
    }

    #[test]
    fn area_lower_bound_grows_with_the_work() {
        // Ten unit jobs on two machines: the max-job bound is 1, the area
        // bound 5, attained by a 5/5 split.
        let inst =
            UnrelatedInstance::new(2, vec![0; 10], vec![vec![1, 1]; 10], vec![vec![0, 0]]).unwrap();
        assert_eq!(unrelated_lower_bound(&inst), 1);
        assert_eq!(unrelated_area_lower_bound(&inst), 5);
        // One job that dominates: the max-job bound holds.
        let big =
            UnrelatedInstance::new(2, vec![0, 0], vec![vec![9, 9], vec![1, 1]], vec![vec![2, 2]])
                .unwrap();
        assert_eq!(unrelated_area_lower_bound(&big), 11);
        let empty = UnrelatedInstance::new(2, vec![], vec![], vec![]).unwrap();
        assert_eq!(unrelated_area_lower_bound(&empty), 0);
    }

    #[test]
    fn area_reject_is_conservative() {
        let inst =
            UnrelatedInstance::new(2, vec![0, 0], vec![vec![4, 4], vec![4, 4]], vec![vec![0, 0]])
                .unwrap();
        // T = 4: each job takes 4 somewhere, total 8 = m*T → not rejected.
        assert!(!unrelated_area_reject(&inst, 4));
        // T = 3: no machine can fit any job (p=4 > 3) → rejected.
        assert!(unrelated_area_reject(&inst, 3));
    }
}
