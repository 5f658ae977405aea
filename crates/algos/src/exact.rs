//! Exact makespan solvers by branch-and-bound.
//!
//! The paper proves *ratios*; measuring them requires true optima on small
//! instances. Both environments get a depth-first branch-and-bound over
//! jobs in non-increasing size order with
//!
//! * greedy incumbents (from [`crate::list`]) so pruning starts tight,
//! * the current-max-load prune and an area (average-load) bound,
//! * machine symmetry breaking (identical speed + identical load +
//!   identical class set ⇒ only the first such machine is branched).
//!
//! The unrelated search can share its incumbent with other solvers through
//! an `AtomicU64` (relaxed loads on the hot pruning path), which is how the
//! portfolio racer cross-seeds it.
//!
//! Class sets are tracked as `u128` bitmasks — the exact solvers support
//! `K ≤ 128`, far beyond anything they can solve in reasonable time anyway.

use std::sync::atomic::{AtomicU64, Ordering};

use sst_core::cancel::CancelToken;
use sst_core::instance::{is_finite, UniformInstance, UnrelatedInstance};
use sst_core::ratio::Ratio;
use sst_core::schedule::{uniform_makespan, unrelated_makespan, Schedule};

/// Nodes between deadline polls — cancellation overshoots by at most this
/// many node expansions.
const CANCEL_CHECK_MASK: u64 = 0x3FF;

/// Result of an exact search.
#[derive(Debug, Clone)]
pub struct ExactResult<M> {
    /// Best makespan found (the optimum when [`Self::complete`]).
    pub makespan: M,
    /// A schedule attaining [`Self::makespan`].
    pub schedule: Schedule,
    /// Branch-and-bound nodes expanded.
    pub nodes: u64,
    /// True iff the search space was exhausted (result certified optimal).
    pub complete: bool,
}

const MAX_CLASSES: usize = 128;

/// Exact uniform-machines optimum. `node_limit` caps the search; when hit,
/// the incumbent is returned with `complete = false` (still a valid upper
/// bound). Intended for small instances (`n ≲ 15`).
pub fn exact_uniform(inst: &UniformInstance, node_limit: u64) -> ExactResult<Ratio> {
    exact_uniform_budgeted(inst, node_limit, &CancelToken::new())
}

/// [`exact_uniform`] with cooperative cancellation: the search polls
/// `cancel` every few hundred nodes and, once cancelled, returns the
/// current incumbent with `complete = false` — an anytime upper bound.
pub fn exact_uniform_budgeted(
    inst: &UniformInstance,
    node_limit: u64,
    cancel: &CancelToken,
) -> ExactResult<Ratio> {
    assert!(inst.num_classes() <= MAX_CLASSES, "exact solver supports K ≤ 128");
    let incumbent_sched = crate::list::greedy_uniform(inst);
    let incumbent = uniform_makespan(inst, &incumbent_sched).expect("greedy is valid");
    if inst.n() == 0 {
        return ExactResult {
            makespan: Ratio::ZERO,
            schedule: incumbent_sched,
            nodes: 0,
            complete: true,
        };
    }
    let mut order: Vec<usize> = (0..inst.n()).collect();
    order.sort_by_key(|&a| std::cmp::Reverse(inst.job(a).size));

    struct Ctx<'a> {
        inst: &'a UniformInstance,
        order: Vec<usize>,
        best: Ratio,
        best_sched: Vec<usize>,
        assignment: Vec<usize>,
        loads: Vec<u64>,
        masks: Vec<u128>,
        suffix_work: Vec<u64>,
        total_speed: u64,
        nodes: u64,
        node_limit: u64,
        cancel: &'a CancelToken,
        stopped: bool,
    }

    fn dfs(c: &mut Ctx<'_>, depth: usize, assigned_work: u64) {
        if c.nodes >= c.node_limit || c.stopped {
            return;
        }
        if c.nodes & CANCEL_CHECK_MASK == 0 && c.cancel.is_cancelled() {
            c.stopped = true;
            return;
        }
        c.nodes += 1;
        if depth == c.order.len() {
            let ms = (0..c.inst.m())
                .map(|i| Ratio::new(c.loads[i], c.inst.speed(i)))
                .max()
                .unwrap_or(Ratio::ZERO);
            if ms < c.best {
                c.best = ms;
                c.best_sched = c.assignment.clone();
            }
            return;
        }
        // Area bound: even perfectly balanced, the remaining work forces
        // average load (assigned + remaining) / total speed.
        let area = Ratio::new(assigned_work + c.suffix_work[depth], c.total_speed);
        if area >= c.best {
            return;
        }
        let j = c.order[depth];
        let job = c.inst.job(j);
        let kbit = 1u128 << job.class;
        // Candidate machines sorted by resulting completion time, with
        // symmetry breaking among indistinguishable machines.
        let mut cands: Vec<(Ratio, usize, u64)> = Vec::with_capacity(c.inst.m());
        'mach: for i in 0..c.inst.m() {
            for i2 in 0..i {
                if c.inst.speed(i2) == c.inst.speed(i)
                    && c.loads[i2] == c.loads[i]
                    && c.masks[i2] == c.masks[i]
                {
                    continue 'mach; // indistinguishable from i2, already tried
                }
            }
            let setup = if c.masks[i] & kbit != 0 { 0 } else { c.inst.setup(job.class) };
            let new_load = c.loads[i] + job.size + setup;
            let finish = Ratio::new(new_load, c.inst.speed(i));
            if finish >= c.best {
                continue; // cannot strictly improve
            }
            cands.push((finish, i, setup));
        }
        cands.sort_by_key(|c| c.0);
        for (_, i, setup) in cands {
            // Re-check against the (possibly improved) incumbent.
            if Ratio::new(c.loads[i] + job.size + setup, c.inst.speed(i)) >= c.best {
                continue;
            }
            let had = c.masks[i] & kbit != 0;
            c.loads[i] += job.size + setup;
            c.masks[i] |= kbit;
            c.assignment[j] = i;
            dfs(c, depth + 1, assigned_work + job.size + setup);
            c.loads[i] -= job.size + setup;
            if !had {
                c.masks[i] &= !kbit;
            }
        }
    }

    let mut ctx = Ctx {
        inst,
        order,
        best: incumbent,
        best_sched: incumbent_sched.assignment().to_vec(),
        assignment: vec![0; inst.n()],
        loads: vec![0; inst.m()],
        masks: vec![0; inst.m()],
        suffix_work: suffix_sums(inst),
        total_speed: inst.total_speed(),
        nodes: 0,
        node_limit,
        cancel,
        stopped: false,
    };
    dfs(&mut ctx, 0, 0);
    let complete = ctx.nodes < node_limit && !ctx.stopped;
    ExactResult {
        makespan: ctx.best,
        schedule: Schedule::new(ctx.best_sched),
        nodes: ctx.nodes,
        complete,
    }
}

/// `suffix_work[d]` = total size of jobs at depths `d..` in LPT order
/// (setups excluded — a conservative but always-valid area bound).
fn suffix_sums(inst: &UniformInstance) -> Vec<u64> {
    let mut order: Vec<usize> = (0..inst.n()).collect();
    order.sort_by_key(|&a| std::cmp::Reverse(inst.job(a).size));
    let mut suffix = vec![0u64; inst.n() + 1];
    for d in (0..inst.n()).rev() {
        suffix[d] = suffix[d + 1] + inst.job(order[d]).size;
    }
    suffix
}

/// Exact unrelated-machines optimum by sequential branch-and-bound.
pub fn exact_unrelated(inst: &UnrelatedInstance, node_limit: u64) -> ExactResult<u64> {
    exact_unrelated_budgeted(inst, node_limit, &CancelToken::new(), None)
}

/// [`exact_unrelated`] with cooperative cancellation and an optional
/// externally shared incumbent bound.
///
/// `shared_best` is the cross-seeding hook used by the portfolio racer:
/// makespans published there by *other* solvers tighten this search's
/// pruning bound (relaxed loads: the value is only a hint), and
/// improvements found here are published back via `fetch_min`. Because the
/// externally seeded bound can be smaller than anything this search ever
/// attains, the returned `makespan` is always recomputed from the returned
/// schedule — the pair stays consistent even when the bound came from
/// elsewhere. `complete = true` then certifies "no schedule strictly better
/// than the final bound exists", which is the optimality certificate
/// whenever the bound was attained by a published schedule.
pub fn exact_unrelated_budgeted(
    inst: &UnrelatedInstance,
    node_limit: u64,
    cancel: &CancelToken,
    shared_best: Option<&AtomicU64>,
) -> ExactResult<u64> {
    assert!(inst.num_classes() <= MAX_CLASSES, "exact solver supports K ≤ 128");
    let incumbent_sched = crate::list::greedy_unrelated(inst);
    let incumbent = unrelated_makespan(inst, &incumbent_sched).expect("greedy is valid");
    if inst.n() == 0 {
        return ExactResult { makespan: 0, schedule: incumbent_sched, nodes: 0, complete: true };
    }
    // Branching on constrained (costly) jobs first shrinks the tree.
    let order = crate::list::by_decreasing_best_cost(inst);
    let mut ctx = UnrelCtx {
        inst,
        order,
        best: incumbent,
        best_sched: incumbent_sched.assignment().to_vec(),
        assignment: vec![0; inst.n()],
        loads: vec![0; inst.m()],
        masks: vec![0; inst.m()],
        nodes: 0,
        node_limit,
        shared_best,
        cancel,
        stopped: false,
    };
    unrel_dfs(&mut ctx, 0);
    let complete = ctx.nodes < node_limit && !ctx.stopped;
    let schedule = Schedule::new(ctx.best_sched);
    let makespan = unrelated_makespan(inst, &schedule).expect("incumbents are valid");
    ExactResult { makespan, schedule, nodes: ctx.nodes, complete }
}

struct UnrelCtx<'a> {
    inst: &'a UnrelatedInstance,
    order: Vec<usize>,
    best: u64,
    best_sched: Vec<usize>,
    assignment: Vec<usize>,
    loads: Vec<u64>,
    masks: Vec<u128>,
    nodes: u64,
    node_limit: u64,
    /// In the portfolio racer, the fleet-wide incumbent. Relaxed ordering
    /// is sufficient: the value is only a pruning hint; correctness never
    /// depends on seeing the latest write.
    shared_best: Option<&'a AtomicU64>,
    cancel: &'a CancelToken,
    stopped: bool,
}

fn unrel_dfs(c: &mut UnrelCtx<'_>, depth: usize) {
    if c.nodes >= c.node_limit || c.stopped {
        return;
    }
    if c.nodes & CANCEL_CHECK_MASK == 0 && c.cancel.is_cancelled() {
        c.stopped = true;
        return;
    }
    c.nodes += 1;
    // Refresh from the fleet incumbent occasionally (cheap relaxed load).
    if let Some(shared) = c.shared_best {
        let g = shared.load(Ordering::Relaxed);
        if g < c.best {
            c.best = g;
        }
    }
    if depth == c.order.len() {
        let ms = c.loads.iter().copied().max().unwrap_or(0);
        if ms < c.best {
            c.best = ms;
            c.best_sched = c.assignment.clone();
            if let Some(shared) = c.shared_best {
                shared.fetch_min(ms, Ordering::Relaxed);
            }
        }
        return;
    }
    let j = c.order[depth];
    let k = c.inst.class_of(j);
    let kbit = 1u128 << k;
    let mut cands: Vec<(u64, usize, u64)> = Vec::with_capacity(c.inst.m());
    'mach: for i in 0..c.inst.m() {
        let p = c.inst.ptime(i, j);
        let s = c.inst.setup(i, k);
        if !is_finite(p) || !is_finite(s) {
            continue;
        }
        for i2 in 0..i {
            if c.loads[i2] == c.loads[i]
                && c.masks[i2] == c.masks[i]
                && c.inst.ptime(i2, j) == p
                && c.inst.setup(i2, k) == s
            {
                continue 'mach;
            }
        }
        let setup = if c.masks[i] & kbit != 0 { 0 } else { s };
        let new_load = c.loads[i] + p + setup;
        if new_load >= c.best {
            continue;
        }
        cands.push((new_load, i, p + setup));
    }
    cands.sort_unstable();
    for (new_load, i, delta) in cands {
        if new_load >= c.best {
            continue;
        }
        let had = c.masks[i] & kbit != 0;
        c.loads[i] += delta;
        c.masks[i] |= kbit;
        c.assignment[j] = i;
        unrel_dfs(c, depth + 1);
        c.loads[i] -= delta;
        if !had {
            c.masks[i] &= !kbit;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_core::instance::{Job, INF};

    #[test]
    fn exact_uniform_tiny_known_optimum() {
        // 2 identical machines, one class with setup 2, jobs 3 and 3:
        // split: each machine 3+2=5; together: 6+2=8 on one. Opt = 5.
        let inst =
            UniformInstance::identical(2, vec![2], vec![Job::new(0, 3), Job::new(0, 3)]).unwrap();
        let res = exact_uniform(&inst, 1 << 20);
        assert!(res.complete);
        assert_eq!(res.makespan, Ratio::new(5, 1));
        assert_eq!(uniform_makespan(&inst, &res.schedule).unwrap(), res.makespan);
    }

    #[test]
    fn exact_uniform_weighs_batching_against_spreading() {
        // Setup 100, three unit jobs, three machines: spreading pays three
        // setups but in *parallel* (max load 101); batching pays one setup
        // serially (103). The optimum spreads.
        let inst = UniformInstance::identical(
            3,
            vec![100],
            vec![Job::new(0, 1), Job::new(0, 1), Job::new(0, 1)],
        )
        .unwrap();
        let res = exact_uniform(&inst, 1 << 20);
        assert!(res.complete);
        assert_eq!(res.makespan, Ratio::new(101, 1));
        // With only one machine allowed to be fast enough, batching wins:
        // speeds (1, 100) make the fast machine the only sensible host.
        let inst2 = UniformInstance::new(
            vec![1, 100],
            vec![100],
            vec![Job::new(0, 1), Job::new(0, 1), Job::new(0, 1)],
        )
        .unwrap();
        let res2 = exact_uniform(&inst2, 1 << 20);
        assert_eq!(res2.makespan, Ratio::new(103, 100)); // all on the fast one
    }

    #[test]
    fn exact_uniform_uses_speeds() {
        // Speeds 3 and 1; jobs 6 and 3 of separate zero-setup classes:
        // both on fast: 9/3 = 3; split 6/3=2 & 3/1=3 → 3; or 3 on fast, 6 slow: 6.
        // Opt = 3.
        let inst =
            UniformInstance::new(vec![3, 1], vec![0, 0], vec![Job::new(0, 6), Job::new(1, 3)])
                .unwrap();
        let res = exact_uniform(&inst, 1 << 20);
        assert_eq!(res.makespan, Ratio::new(3, 1));
    }

    #[test]
    fn exact_unrelated_matches_brute_force() {
        let inst = UnrelatedInstance::new(
            2,
            vec![0, 1, 0],
            vec![vec![4, 2], vec![3, 3], vec![1, 5]],
            vec![vec![1, 2], vec![2, 1]],
        )
        .unwrap();
        let res = exact_unrelated(&inst, 1 << 20);
        assert!(res.complete);
        // Brute force all 2³ assignments.
        let mut best = u64::MAX;
        for bits in 0..8u32 {
            let asg: Vec<usize> = (0..3).map(|j| ((bits >> j) & 1) as usize).collect();
            if let Ok(ms) = unrelated_makespan(&inst, &Schedule::new(asg)) {
                best = best.min(ms);
            }
        }
        assert_eq!(res.makespan, best);
    }

    #[test]
    fn exact_unrelated_respects_infinities() {
        let inst = UnrelatedInstance::new(
            2,
            vec![0, 0],
            vec![vec![5, INF], vec![INF, 7]],
            vec![vec![1, 1]],
        )
        .unwrap();
        let res = exact_unrelated(&inst, 1 << 20);
        assert_eq!(res.makespan, 8); // forced split, machine 1 pays 7+1
    }

    #[test]
    fn node_limit_returns_valid_incumbent() {
        let inst = UniformInstance::identical(
            2,
            vec![1],
            (0..12).map(|x| Job::new(0, 1 + (x % 5) as u64)).collect(),
        )
        .unwrap();
        let res = exact_uniform(&inst, 4); // absurdly small limit
        assert!(!res.complete);
        // Incumbent is the greedy schedule — still valid and evaluable.
        assert_eq!(uniform_makespan(&inst, &res.schedule).unwrap(), res.makespan);
    }

    #[test]
    fn empty_instance() {
        let inst = UniformInstance::identical(2, vec![], vec![]).unwrap();
        let res = exact_uniform(&inst, 100);
        assert!(res.complete);
        assert_eq!(res.makespan, Ratio::ZERO);
    }

    #[test]
    fn cancelled_search_returns_valid_incumbent() {
        let inst = UniformInstance::identical(
            2,
            vec![1],
            (0..14).map(|x| Job::new(0, 1 + (x % 5) as u64)).collect(),
        )
        .unwrap();
        let token = CancelToken::new();
        token.cancel();
        let res = exact_uniform_budgeted(&inst, u64::MAX >> 1, &token);
        assert!(!res.complete, "a cancelled search must not claim optimality");
        assert_eq!(uniform_makespan(&inst, &res.schedule).unwrap(), res.makespan);
        assert!(res.nodes <= 1, "pre-cancelled token must stop immediately");
    }

    #[test]
    fn shared_bound_keeps_result_consistent() {
        let inst = UnrelatedInstance::new(
            2,
            vec![0, 1, 0],
            vec![vec![4, 2], vec![3, 3], vec![1, 5]],
            vec![vec![1, 2], vec![2, 1]],
        )
        .unwrap();
        // An absurdly tight external bound prunes everything; the returned
        // (makespan, schedule) pair must still agree with each other.
        let shared = AtomicU64::new(0);
        let res = exact_unrelated_budgeted(&inst, 1 << 16, &CancelToken::new(), Some(&shared));
        assert_eq!(unrelated_makespan(&inst, &res.schedule).unwrap(), res.makespan);
        // A loose external bound must not block the true optimum.
        let shared = AtomicU64::new(u64::MAX);
        let res = exact_unrelated_budgeted(&inst, 1 << 20, &CancelToken::new(), Some(&shared));
        assert!(res.complete);
        assert_eq!(res.makespan, exact_unrelated(&inst, 1 << 20).makespan);
        // Improvements are published back for other racers to prune with.
        assert_eq!(shared.load(Ordering::Relaxed), res.makespan);
    }
}
