//! Greedy list-scheduling baselines.
//!
//! Every experiment needs comparators: the *setup-oblivious* baselines show
//! why ignoring classes is catastrophic when setups dominate (experiment
//! E8), and the *setup-aware* greedy provides incumbents for the exact
//! branch-and-bound solvers.

use sst_core::instance::{is_finite, UniformInstance, UnrelatedInstance, INF};
use sst_core::schedule::Schedule;

/// Setup-oblivious LPT on uniform machines: classic LPT on the raw jobs
/// (no batching); setups are whatever the resulting spread incurs. The
/// natural "wrong" algorithm for this problem.
pub fn oblivious_lpt_uniform(inst: &UniformInstance) -> Schedule {
    crate::lpt::lpt_ignore_setups(inst)
}

/// Setup-aware greedy for uniform machines: jobs in non-increasing size
/// order; each goes to the machine minimizing the resulting *completion
/// ratio* `(load + p + (setup if class new there)) / v`, ties to the lowest
/// machine id. O(n log n + n·m): the ratios are compared by
/// cross-multiplying the unreduced fractions in `u128` (the order
/// [`Ratio`](sst_core::ratio::Ratio)'s `Ord` gives, without reducing by a
/// gcd).
pub fn greedy_uniform(inst: &UniformInstance) -> Schedule {
    let m = inst.m();
    let mut order: Vec<usize> = (0..inst.n()).collect();
    order.sort_by_key(|&a| std::cmp::Reverse(inst.job(a).size));
    let speeds = inst.speeds();
    let mut load = vec![0u64; m];
    // `has_class[k * m + i]`: machine `i` already paid class `k`'s setup.
    let mut has_class = vec![false; inst.num_classes() * m];
    let mut assignment = vec![0usize; inst.n()];
    for &j in &order {
        let job = inst.job(j);
        let opened = &mut has_class[job.class * m..(job.class + 1) * m];
        let completion = |i: usize| {
            let setup = if opened[i] { 0 } else { inst.setup(job.class) };
            (load[i] + job.size + setup) as u128
        };
        let mut best = 0;
        let mut best_num = completion(0);
        for i in 1..m {
            let num = completion(i);
            if num * (speeds[best] as u128) < best_num * (speeds[i] as u128) {
                best = i;
                best_num = num;
            }
        }
        if !opened[best] {
            opened[best] = true;
            load[best] += inst.setup(job.class);
        }
        load[best] += job.size;
        assignment[j] = best;
    }
    Schedule::new(assignment)
}

/// Jobs in order of decreasing best-case cost `min_i (p_ij + s_ik)`, ties
/// in job-id order. Each job's O(m) key is computed once and packed with
/// its id into one `u128`, `(Reverse(best), j)`; the keys are distinct, so
/// an unstable sort gives the stable order. O(n·m + n log n).
pub(crate) fn by_decreasing_best_cost(inst: &UnrelatedInstance) -> Vec<usize> {
    let mut keys: Vec<u128> = (0..inst.n())
        .map(|j| {
            // `min_i cost(i, j)` over the job's row slices: a sum with an
            // ∞ term saturates to ∞, so no cell needs a finiteness test.
            let setups = inst.setups_row(inst.class_of(j));
            let best = inst
                .ptimes_row(j)
                .iter()
                .zip(setups)
                .fold(INF, |best, (&p, &s)| best.min(p.saturating_add(s)));
            (u128::from(INF - best) << 64) | j as u128
        })
        .collect();
    keys.sort_unstable();
    keys.into_iter().map(|key| key as u64 as usize).collect()
}

/// Setup-aware greedy for unrelated machines: jobs ordered by decreasing
/// best-case cost `min_i (p_ij + s_ik)`; each goes to the machine minimizing
/// the resulting load (processing plus setup if its class is new there),
/// ties to the lowest machine id. Machines where the job or its setup is
/// infinite are skipped; validity is guaranteed because instances reject
/// jobs that can run nowhere. O(n log n + n·m).
pub fn greedy_unrelated(inst: &UnrelatedInstance) -> Schedule {
    let m = inst.m();
    let mut load = vec![0u64; m];
    // `has_class[k * m + i]`: machine `i` already paid class `k`'s setup.
    let mut has_class = vec![false; inst.num_classes() * m];
    let mut assignment = vec![0usize; inst.n()];
    for j in by_decreasing_best_cost(inst) {
        let k = inst.class_of(j);
        let setups = inst.setups_row(k);
        let opened = &mut has_class[k * m..(k + 1) * m];
        // The least new load, ties to the lowest id by the strict `<`; an
        // infeasible machine's key `u64::MAX` never wins. Selects, not
        // branches: which machine wins is data-dependent.
        let (mut best_load, mut i) = (u64::MAX, usize::MAX);
        let cells = inst.ptimes_row(j).iter().zip(setups).zip(&load).zip(opened.iter());
        for (c, (((&p, &s), &l), &open)) in cells.enumerate() {
            let new_load = l.saturating_add(p).saturating_add(if open { 0 } else { s });
            let key = if is_finite(p) && is_finite(s) { new_load } else { u64::MAX };
            let better = key < best_load;
            best_load = if better { key } else { best_load };
            i = if better { c } else { i };
        }
        if i == usize::MAX {
            // Every feasible load saturated at `u64::MAX`: the lowest id.
            i = (0..m)
                .find(|&c| is_finite(inst.ptime(c, j)) && is_finite(setups[c]))
                .expect("instance validation guarantees a finite machine");
        }
        if !opened[i] {
            opened[i] = true;
            load[i] += setups[i];
        }
        load[i] += inst.ptime(i, j);
        assignment[j] = i;
    }
    Schedule::new(assignment)
}

/// Class-grouped greedy for unrelated machines: whole classes are placed
/// atomically (never split), ordered by decreasing total workload, each on
/// the machine minimizing the resulting load. A strong baseline when setups
/// dominate, and pathological when one class holds most of the work.
/// O(n·m + K log K).
pub fn class_grouped_greedy_unrelated(inst: &UnrelatedInstance) -> Option<Schedule> {
    let mut classes: Vec<usize> = inst.nonempty_classes().to_vec();
    // Order by decreasing best-case workload, one key per class.
    classes.sort_by_cached_key(|&k| {
        let best = (0..inst.m())
            .map(|i| inst.class_workload(i, k).saturating_add(inst.setup(i, k)))
            .min()
            .unwrap_or(INF);
        std::cmp::Reverse(best)
    });
    let mut load = vec![0u64; inst.m()];
    let mut assignment = vec![0usize; inst.n()];
    for &k in &classes {
        let mut best: Option<(u64, usize)> = None;
        for i in 0..inst.m() {
            let w = inst.class_workload(i, k);
            let s = inst.setup(i, k);
            if !is_finite(w) || !is_finite(s) {
                continue;
            }
            let new_load = load[i].saturating_add(w).saturating_add(s);
            match best {
                None => best = Some((new_load, i)),
                Some((bl, _)) if new_load < bl => best = Some((new_load, i)),
                _ => {}
            }
        }
        // A class may be unplaceable atomically (no machine hosts *all* its
        // jobs) even though the instance is schedulable job-by-job.
        let (_, i) = best?;
        load[i] =
            load[i].saturating_add(inst.class_workload(i, k)).saturating_add(inst.setup(i, k));
        for &j in inst.jobs_of_class(k) {
            assignment[j] = i;
        }
    }
    Some(Schedule::new(assignment))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_core::instance::Job;
    use sst_core::ratio::Ratio;
    use sst_core::schedule::{uniform_makespan, unrelated_makespan};

    #[test]
    fn lemma_2_1_batching_beats_oblivious_when_setups_dominate() {
        // Two classes of 2 unit jobs each, setups 100, two machines. The
        // optimum keeps each class on its own machine (102). Oblivious LPT
        // interleaves the unit jobs and pays both setups on both machines
        // (202). Myopic setup-aware greedy falls into the same trap — only
        // the Lemma 2.1 batching transform avoids it.
        let inst = UniformInstance::identical(
            2,
            vec![100, 100],
            vec![Job::new(0, 1), Job::new(0, 1), Job::new(1, 1), Job::new(1, 1)],
        )
        .unwrap();
        let obl = uniform_makespan(&inst, &oblivious_lpt_uniform(&inst)).unwrap();
        let lpt = uniform_makespan(&inst, &crate::lpt::lpt_with_setups(&inst)).unwrap();
        assert_eq!(obl, Ratio::new(202, 1));
        assert_eq!(lpt, Ratio::new(102, 1));
        assert!(lpt < obl);
    }

    #[test]
    fn greedy_uniform_is_setup_aware_per_machine() {
        // Single class, setup 3, jobs 5 and 5, two machines: greedy reaches
        // the optimum (split, 8 = 5 + 3 per machine) and never does worse
        // than serializing everything.
        let inst =
            UniformInstance::identical(2, vec![3], vec![Job::new(0, 5), Job::new(0, 5)]).unwrap();
        let grd = uniform_makespan(&inst, &greedy_uniform(&inst)).unwrap();
        assert_eq!(grd, Ratio::new(8, 1));
    }

    #[test]
    fn greedy_unrelated_avoids_infinite_cells() {
        let inst = UnrelatedInstance::new(
            2,
            vec![0, 1],
            vec![vec![INF, 3], vec![2, INF]],
            vec![vec![1, 1], vec![1, 1]],
        )
        .unwrap();
        let s = greedy_unrelated(&inst);
        assert_eq!(s.machine_of(0), 1);
        assert_eq!(s.machine_of(1), 0);
        assert_eq!(unrelated_makespan(&inst, &s).unwrap(), 4);
    }

    #[test]
    fn greedy_unrelated_ties_at_a_saturated_load_go_to_the_lowest_id() {
        // Jobs 0 and 1 fill both machines to `u64::MAX - 1`; job 2 then
        // reaches `u64::MAX` on either, and the lowest id takes it.
        let big = u64::MAX - 2;
        let inst = UnrelatedInstance::new(
            2,
            vec![0, 0, 0],
            vec![vec![big, big], vec![big, big], vec![1, 1]],
            vec![vec![1, 1]],
        )
        .unwrap();
        assert_eq!(greedy_unrelated(&inst).assignment(), [0, 1, 0]);
    }

    #[test]
    fn class_grouped_keeps_classes_together() {
        let inst = UnrelatedInstance::new(
            2,
            vec![0, 0, 1, 1],
            vec![vec![2, 2]; 4],
            vec![vec![10, 10], vec![10, 10]],
        )
        .unwrap();
        let s = class_grouped_greedy_unrelated(&inst).unwrap();
        assert_eq!(s.machine_of(0), s.machine_of(1));
        assert_eq!(s.machine_of(2), s.machine_of(3));
        // Two classes, two machines → one class each: load 14.
        assert_eq!(unrelated_makespan(&inst, &s).unwrap(), 14);
    }

    #[test]
    fn class_grouped_returns_none_when_class_must_split() {
        // Class 0 has jobs eligible on disjoint machines — cannot be atomic.
        let inst = UnrelatedInstance::new(
            2,
            vec![0, 0],
            vec![vec![1, INF], vec![INF, 1]],
            vec![vec![1, 1]],
        )
        .unwrap();
        assert!(class_grouped_greedy_unrelated(&inst).is_none());
        // The job-level greedy still succeeds.
        assert!(unrelated_makespan(&inst, &greedy_unrelated(&inst)).is_ok());
    }
}
