//! Local-search post-optimization (extension beyond the paper), written
//! **once** against [`sst_core::model::MachineModel`].
//!
//! The paper's algorithms optimize worst-case guarantees; in practice a
//! cheap descent pass often shaves the constants. Two moves, both evaluated
//! exactly with full setup accounting:
//!
//! * **job move** — reassign one job to another machine;
//! * **class move** — migrate *all* jobs of a class on one machine to
//!   another machine (the batching-aware move that plain job moves miss:
//!   moving a single job of a class rarely pays because the setup stays).
//!
//! The descent accepts only strict improvements of the global makespan and
//! therefore terminates; the result never degrades the input schedule.
//! This is labeled an *extension* in the [crate] module table — no claim
//! from the paper depends on it, and the experiment harness reports it
//! separately.
//!
//! Candidate moves are evaluated **incrementally** through
//! [`sst_core::tracker::LoadTracker`]: a job-move candidate costs
//! `O(1)` instead of an `O(n)` full makespan recompute, so one descent
//! sweep is `O(n_bottleneck · m)` instead of `O(n² · m)`. There is
//! exactly one descent loop — [`improve_budgeted`] — generic over the
//! machine model; `improve_uniform*` / `improve_unrelated*` are thin
//! monomorphizing wrappers kept so every historical call site compiles
//! unchanged, and `crates/algos/tests/golden_search.rs` pins the generic
//! code bit-identical to the pre-refactor per-model implementations.
//!
//! The pre-tracker full-recompute descent survives only as the test
//! oracle; its last measured timings are recorded in `ROADMAP.md`.

use sst_core::cancel::CancelToken;
use sst_core::instance::{UniformInstance, UnrelatedInstance};
use sst_core::model::{MachineModel, Uniform, Unrelated};
use sst_core::schedule::Schedule;
use sst_core::tracker::LoadTracker;

/// Candidate evaluations between deadline polls: one check interval of the
/// anytime contract (each evaluation is `O(1)`, so an interval is a few
/// microseconds).
const CANCEL_CHECK_MASK: u64 = 0xFFF;

/// Outcome of a descent run.
#[derive(Debug, Clone)]
pub struct LocalSearchResult {
    /// The (possibly improved) schedule.
    pub schedule: Schedule,
    /// Number of improving moves applied.
    pub moves: usize,
}

/// The descent, written once for every machine model: repeatedly take the
/// bottleneck machine and try job moves off it, then whole-class moves,
/// accepting the first strict improvement; stop at a local optimum, after
/// `max_moves` accepted moves, or when `cancel` fires (the descent is
/// anytime by construction — every accepted move only improves the
/// makespan).
///
/// # Panics
/// Panics if `start` is not a valid schedule for `inst`.
pub fn improve_budgeted<M: MachineModel>(
    inst: &M::Instance,
    start: &Schedule,
    max_moves: usize,
    cancel: &CancelToken,
) -> LocalSearchResult {
    let mut tracker = LoadTracker::<M>::new(inst, start).expect("valid input schedule");
    let mut best = tracker.makespan();
    let mut moves = 0usize;
    let mut evals = 0u64;
    'outer: while moves < max_moves {
        let bottleneck = tracker.bottleneck();
        // Job moves: try moving any job off the current bottleneck machine.
        for k in 0..M::num_classes(inst) {
            for idx in 0..tracker.count(bottleneck, k) {
                let j = tracker.jobs_of_class_on(bottleneck, k)[idx];
                for i in 0..M::m(inst) {
                    evals += 1;
                    if evals & CANCEL_CHECK_MASK == 0 && cancel.is_cancelled() {
                        break 'outer;
                    }
                    if let Some(ms) = tracker.eval_job_move(j, i) {
                        if ms < best {
                            tracker.apply_job_move(j, i);
                            best = ms;
                            moves += 1;
                            continue 'outer;
                        }
                    }
                }
            }
        }
        // Class moves off the bottleneck.
        for k in 0..M::num_classes(inst) {
            for i in 0..M::m(inst) {
                evals += 1;
                if evals & CANCEL_CHECK_MASK == 0 && cancel.is_cancelled() {
                    break 'outer;
                }
                if let Some(ms) = tracker.eval_class_move(bottleneck, k, i) {
                    if ms < best {
                        tracker.apply_class_move(bottleneck, k, i);
                        best = ms;
                        moves += 1;
                        continue 'outer;
                    }
                }
            }
        }
        break; // local optimum
    }
    LocalSearchResult { schedule: tracker.schedule(), moves }
}

/// [`improve_budgeted`] with a never-firing token.
pub fn improve<M: MachineModel>(
    inst: &M::Instance,
    start: &Schedule,
    max_moves: usize,
) -> LocalSearchResult {
    improve_budgeted::<M>(inst, start, max_moves, &CancelToken::new())
}

/// Descent for uniform instances. `max_moves` caps the number of accepted
/// moves; each candidate evaluates in `O(1)` via the tracker.
pub fn improve_uniform(
    inst: &UniformInstance,
    start: &Schedule,
    max_moves: usize,
) -> LocalSearchResult {
    improve::<Uniform>(inst, start, max_moves)
}

/// Descent for unrelated instances (same move set; infeasible targets —
/// infinite processing or setup time — are skipped by the tracker, so the
/// schedule stays valid).
pub fn improve_unrelated(
    inst: &UnrelatedInstance,
    start: &Schedule,
    max_moves: usize,
) -> LocalSearchResult {
    improve::<Unrelated>(inst, start, max_moves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_core::instance::{Job, INF};
    use sst_core::model::{self, Splittable};
    use sst_core::ratio::Ratio;
    use sst_core::schedule::{uniform_makespan, unrelated_makespan};

    /// The pre-tracker descent: every candidate move re-evaluates the full
    /// makespan in `O(n)` through [`model::loads`] — the oracle the
    /// incremental descent is checked against.
    fn full_recompute<M: MachineModel>(
        inst: &M::Instance,
        start: &Schedule,
        max_moves: usize,
    ) -> LocalSearchResult {
        let mut sched = start.clone();
        let mut best = model::makespan_key::<M>(inst, &sched).expect("valid input schedule");
        let mut moves = 0usize;
        'outer: while moves < max_moves {
            let loads = model::loads::<M>(inst, &sched).expect("valid");
            let bottleneck = (0..M::m(inst))
                .max_by(|&a, &b| M::key(inst, a, loads[a]).cmp(&M::key(inst, b, loads[b])))
                .expect("non-empty");
            for j in 0..M::n(inst) {
                if sched.machine_of(j) != bottleneck {
                    continue;
                }
                let k = M::class_of(inst, j);
                for i in 0..M::m(inst) {
                    if i == bottleneck
                        || M::job_time(inst, i, j).is_none()
                        || M::setup_time(inst, i, k).is_none()
                    {
                        continue;
                    }
                    let old = sched.machine_of(j);
                    sched.set(j, i);
                    let ms = model::makespan_key::<M>(inst, &sched).expect("still valid");
                    if ms < best {
                        best = ms;
                        moves += 1;
                        continue 'outer;
                    }
                    sched.set(j, old);
                }
            }
            for k in 0..M::num_classes(inst) {
                let batch: Vec<usize> = (0..M::n(inst))
                    .filter(|&j| sched.machine_of(j) == bottleneck && M::class_of(inst, j) == k)
                    .collect();
                if batch.is_empty() {
                    continue;
                }
                for i in 0..M::m(inst) {
                    if i == bottleneck || M::setup_time(inst, i, k).is_none() {
                        continue;
                    }
                    if batch.iter().any(|&j| M::job_time(inst, i, j).is_none()) {
                        continue;
                    }
                    for &j in &batch {
                        sched.set(j, i);
                    }
                    let ms = model::makespan_key::<M>(inst, &sched).expect("still valid");
                    if ms < best {
                        best = ms;
                        moves += 1;
                        continue 'outer;
                    }
                    for &j in &batch {
                        sched.set(j, bottleneck);
                    }
                }
            }
            break; // local optimum
        }
        LocalSearchResult { schedule: sched, moves }
    }

    #[test]
    fn never_worsens_uniform() {
        let inst = UniformInstance::identical(
            3,
            vec![5, 2],
            vec![Job::new(0, 7), Job::new(0, 3), Job::new(1, 9), Job::new(1, 1)],
        )
        .unwrap();
        // Terrible start: everything on machine 0.
        let start = Schedule::new(vec![0; 4]);
        let before = uniform_makespan(&inst, &start).unwrap();
        let res = improve_uniform(&inst, &start, 100);
        let after = uniform_makespan(&inst, &res.schedule).unwrap();
        assert!(after <= before);
        assert!(res.moves > 0, "obvious improvements must be found");
    }

    #[test]
    fn class_move_fixes_split_classes() {
        // Class split across two machines pays the setup twice; the class
        // move should reunite it when that lowers the makespan.
        let inst = UniformInstance::identical(
            2,
            vec![10, 0],
            vec![Job::new(0, 1), Job::new(0, 1), Job::new(1, 13)],
        )
        .unwrap();
        // Start: class 0 split: m0 = {j0}, m1 = {j1, j2} → loads 11, 24.
        let start = Schedule::new(vec![0, 1, 1]);
        let res = improve_uniform(&inst, &start, 100);
        let after = uniform_makespan(&inst, &res.schedule).unwrap();
        // Optimal: class 0 together on m0 (12), job big on m1 (13).
        assert_eq!(after, Ratio::new(13, 1));
    }

    #[test]
    fn never_worsens_unrelated_and_respects_inf() {
        let inst = UnrelatedInstance::new(
            2,
            vec![0, 1],
            vec![vec![9, INF], vec![8, 2]],
            vec![vec![1, 1], vec![1, 1]],
        )
        .unwrap();
        let start = Schedule::new(vec![0, 0]);
        let res = improve_unrelated(&inst, &start, 100);
        let ms = unrelated_makespan(&inst, &res.schedule).unwrap();
        assert!(ms <= unrelated_makespan(&inst, &start).unwrap());
        // Job 0 must stay on machine 0 (INF elsewhere).
        assert_eq!(res.schedule.machine_of(0), 0);
    }

    #[test]
    fn local_optimum_reports_zero_moves() {
        let inst =
            UniformInstance::identical(2, vec![0], vec![Job::new(0, 5), Job::new(0, 5)]).unwrap();
        let perfect = Schedule::new(vec![0, 1]);
        let res = improve_uniform(&inst, &perfect, 100);
        assert_eq!(res.moves, 0);
        assert_eq!(res.schedule, perfect);
    }

    #[test]
    fn incremental_matches_full_recompute_quality() {
        // Same makespan (not necessarily the same schedule: sweep order
        // differs) on a messy instance, both environments.
        let inst = UniformInstance::new(
            vec![3, 1, 2],
            vec![4, 0, 7],
            vec![
                Job::new(0, 9),
                Job::new(1, 2),
                Job::new(2, 5),
                Job::new(0, 1),
                Job::new(2, 8),
                Job::new(1, 6),
            ],
        )
        .unwrap();
        let start = Schedule::new(vec![0, 0, 0, 0, 0, 0]);
        let fast = improve_uniform(&inst, &start, 1000);
        let slow = full_recompute::<Uniform>(&inst, &start, 1000);
        let fast_ms = uniform_makespan(&inst, &fast.schedule).unwrap();
        let slow_ms = uniform_makespan(&inst, &slow.schedule).unwrap();
        // Both are local optima of the same neighborhood started from the
        // same point; they need not coincide, but neither may be worse than
        // the start and both must be genuine local optima.
        let start_ms = uniform_makespan(&inst, &start).unwrap();
        assert!(fast_ms <= start_ms);
        assert!(slow_ms <= start_ms);
        let refine_fast = full_recompute::<Uniform>(&inst, &fast.schedule, 1000);
        assert_eq!(refine_fast.moves, 0, "incremental result must be a local optimum");
    }

    #[test]
    fn generic_splittable_descent_matches_the_unrelated_one() {
        // The splittable integral sub-space evaluates like the unrelated
        // model, so the generic descent must walk the identical trajectory.
        let inst = UnrelatedInstance::new(
            3,
            (0..12).map(|j| j % 3).collect(),
            (0..12).map(|j| vec![1 + j as u64 % 7, 2 + j as u64 % 5, 3]).collect(),
            vec![vec![2, 1, 3], vec![1, 2, 1], vec![3, 1, 2]],
        )
        .unwrap();
        let start = Schedule::new(vec![0; 12]);
        let a = improve::<Splittable>(&inst, &start, 1000);
        let b = improve::<Unrelated>(&inst, &start, 1000);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.moves, b.moves);
    }

    #[test]
    fn cancelled_descent_never_worsens() {
        let inst = UniformInstance::identical(
            3,
            vec![5, 2],
            vec![Job::new(0, 7), Job::new(0, 3), Job::new(1, 9), Job::new(1, 1)],
        )
        .unwrap();
        let start = Schedule::new(vec![0; 4]);
        let token = sst_core::cancel::CancelToken::new();
        token.cancel();
        let res = improve_budgeted::<Uniform>(&inst, &start, 1000, &token);
        let before = uniform_makespan(&inst, &start).unwrap();
        let after = uniform_makespan(&inst, &res.schedule).unwrap();
        assert!(after <= before, "anytime return must not degrade the start");
    }
}
