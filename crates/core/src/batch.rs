//! Placeholder replacement for small jobs.
//!
//! Both Lemma 2.1 (LPT bootstrap: jobs smaller than their class's setup are
//! replaced by placeholders of size `s_k`) and simplification step 2
//! (Lemma 2.3: jobs of size `≤ ε·s_k` are replaced by placeholders of size
//! `ε·s_k`) use the same construction: per class, remove all jobs below a
//! threshold and insert `⌈(Σ removed sizes) / unit⌉` placeholder jobs of size
//! `unit`. This module implements the transformation and the greedy
//! back-mapping of the lemmas' proofs: removed jobs are refilled into the
//! machines hosting that class's placeholders, over-packing each machine by
//! at most one job per class.

use crate::instance::{ClassId, Job, JobId, MachineId, UniformInstance};
use crate::schedule::Schedule;

/// Records how an instance was transformed so schedules can be mapped back.
#[derive(Debug, Clone)]
pub struct PlaceholderMap {
    /// `kept[j'] = j`: job `j'` of the transformed instance is original job `j`.
    /// Placeholder jobs (appended after all kept jobs) are not listed.
    kept: Vec<JobId>,
    /// Per class: the original job ids that were removed (ascending by id).
    removed: Vec<Vec<JobId>>,
    /// Per class: the placeholder unit size used (0 if none inserted).
    unit: Vec<u64>,
    /// Number of jobs in the *original* instance.
    original_n: usize,
}

impl PlaceholderMap {
    /// Number of kept (non-placeholder) jobs in the transformed instance.
    pub fn num_kept(&self) -> usize {
        self.kept.len()
    }
}

/// Applies placeholder replacement. For each class `k`, jobs with size
/// `< threshold(k)` are removed and `max(1, ⌈Σ/unit(k)⌉)` placeholders of
/// size `unit(k)` are appended (at least one, so classes consisting solely of
/// zero-size jobs still get a host machine paying their setup).
///
/// `unit(k)` must be positive for any class that has a removed job.
pub fn replace_small_jobs(
    inst: &UniformInstance,
    threshold: impl Fn(ClassId) -> u64,
    unit: impl Fn(ClassId) -> u64,
) -> (UniformInstance, PlaceholderMap) {
    let kk = inst.num_classes();
    let mut kept_jobs: Vec<Job> = Vec::with_capacity(inst.n());
    let mut kept: Vec<JobId> = Vec::with_capacity(inst.n());
    let mut removed: Vec<Vec<JobId>> = vec![Vec::new(); kk];
    let mut removed_size: Vec<u64> = vec![0; kk];
    for j in 0..inst.n() {
        let job = inst.job(j);
        if job.size < threshold(job.class) {
            removed[job.class].push(j);
            removed_size[job.class] += job.size;
        } else {
            kept.push(j);
            kept_jobs.push(job);
        }
    }
    let mut unit_used = vec![0u64; kk];
    for k in 0..kk {
        if removed[k].is_empty() {
            continue;
        }
        let u = unit(k);
        assert!(u > 0, "placeholder unit for class {k} must be positive");
        unit_used[k] = u;
        let count = (removed_size[k].div_ceil(u)).max(1);
        for _ in 0..count {
            kept_jobs.push(Job::new(k, u));
        }
    }
    let new_inst = UniformInstance::new(inst.speeds().to_vec(), inst.setups().to_vec(), kept_jobs)
        .expect("transformed instance inherits validity");
    (new_inst, PlaceholderMap { kept, removed, unit: unit_used, original_n: inst.n() })
}

/// Maps a schedule of the transformed instance back to the original
/// instance (the greedy refill of Lemmas 2.1/2.3).
///
/// Kept jobs keep their machines. For each class, the machines hosting its
/// placeholders are treated as bins of capacity `(#placeholders)·unit`; the
/// removed jobs are poured into those bins in order, moving to the next bin
/// once the current one's capacity is reached — so each bin overflows by
/// less than one job.
pub fn map_schedule_back(
    map: &PlaceholderMap,
    transformed: &UniformInstance,
    sched: &Schedule,
    original: &UniformInstance,
) -> Schedule {
    assert_eq!(sched.n(), transformed.n(), "schedule/instance mismatch");
    let mut assignment: Vec<MachineId> = vec![usize::MAX; map.original_n];
    for (j_new, &j_orig) in map.kept.iter().enumerate() {
        assignment[j_orig] = sched.machine_of(j_new);
    }
    // Capacity per (class, machine) contributed by placeholders.
    let kk = transformed.num_classes();
    let mut capacity: Vec<std::collections::BTreeMap<MachineId, u64>> =
        vec![std::collections::BTreeMap::new(); kk];
    for j_new in map.kept.len()..transformed.n() {
        let job = transformed.job(j_new);
        let i = sched.machine_of(j_new);
        *capacity[job.class].entry(i).or_insert(0) += job.size;
    }
    for k in 0..kk {
        if map.removed[k].is_empty() {
            continue;
        }
        let bins: Vec<(MachineId, u64)> = capacity[k].iter().map(|(&i, &c)| (i, c)).collect();
        assert!(!bins.is_empty(), "class {k} has removed jobs but no placeholder was scheduled");
        let mut bin = 0usize;
        let mut used: u64 = 0;
        for &j in &map.removed[k] {
            // Advance past bins that are already full. The last bin takes
            // whatever remains: total removed size ≤ total capacity by
            // construction of the placeholder count (up to the final job
            // overflow the lemmas budget for).
            while bin + 1 < bins.len() && used >= bins[bin].1 {
                bin += 1;
                used = 0;
            }
            assignment[j] = bins[bin].0;
            used += original.job(j).size;
        }
        let _ = map.unit[k];
    }
    debug_assert!(assignment.iter().all(|&i| i != usize::MAX));
    Schedule::new(assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::uniform_loads;

    fn inst() -> UniformInstance {
        // class 0: setup 10, jobs 12, 3, 4 (3 and 4 are "small" for threshold 10)
        // class 1: setup 6, jobs 2, 2, 2 (all small)
        UniformInstance::new(
            vec![1, 1],
            vec![10, 6],
            vec![
                Job::new(0, 12),
                Job::new(0, 3),
                Job::new(0, 4),
                Job::new(1, 2),
                Job::new(1, 2),
                Job::new(1, 2),
            ],
        )
        .unwrap()
    }

    #[test]
    fn replacement_counts_and_sizes() {
        let (t, map) = replace_small_jobs(&inst(), |k| [10, 6][k], |k| [10, 6][k]);
        // class 0: removed 3+4=7 → ⌈7/10⌉ = 1 placeholder of size 10.
        // class 1: removed 6 → ⌈6/6⌉ = 1 placeholder of size 6.
        assert_eq!(t.n(), 1 + 2);
        assert_eq!(map.num_kept(), 1);
        assert_eq!(map.kept.first().copied(), Some(0));
        assert_eq!(map.kept.get(1).copied(), None);
        assert_eq!(map.removed[0], &[1, 2]);
        let ph: Vec<_> = (1..t.n()).map(|j| t.job(j)).collect();
        assert_eq!(ph, vec![Job::new(0, 10), Job::new(1, 6)]);
    }

    #[test]
    fn zero_size_class_still_gets_a_placeholder() {
        let i = UniformInstance::new(vec![1], vec![5], vec![Job::new(0, 0)]).unwrap();
        let (t, _map) = replace_small_jobs(&i, |_| 5, |_| 5);
        assert_eq!(t.n(), 1); // one placeholder even though Σ removed = 0
        assert_eq!(t.job(0), Job::new(0, 5));
    }

    #[test]
    fn back_mapping_preserves_kept_jobs_and_fills_removed() {
        let original = inst();
        let (t, map) = replace_small_jobs(&original, |k| [10, 6][k], |k| [10, 6][k]);
        // t jobs: [0]=orig 0 (class0,12), [1]=ph class0 size10, [2]=ph class1 size6
        let sched_t = Schedule::new(vec![0, 1, 1]);
        let back = map_schedule_back(&map, &t, &sched_t, &original);
        assert_eq!(back.machine_of(0), 0); // kept job follows its machine
        for j in [1, 2, 3, 4, 5] {
            assert_eq!(back.machine_of(j), 1); // removed jobs go to placeholder hosts
        }
        // Load accounting: machine 1 carries 3+4+2+2+2 = 13 + setups 10+6 = 29;
        // transformed machine 1 carried 10+6 + setups 16 = 32 ≥ refilled work.
        let loads = uniform_loads(&original, &back).unwrap();
        assert_eq!(loads[1], 29);
    }

    #[test]
    fn back_mapping_splits_across_multiple_placeholder_hosts() {
        // 6 small unit jobs, unit 2 → 3 placeholders; place them on 3 machines.
        let original =
            UniformInstance::new(vec![1, 1, 1], vec![2], (0..6).map(|_| Job::new(0, 1)).collect())
                .unwrap();
        let (t, map) = replace_small_jobs(&original, |_| 2, |_| 2);
        assert_eq!(t.n(), 3);
        let sched_t = Schedule::new(vec![0, 1, 2]);
        let back = map_schedule_back(&map, &t, &sched_t, &original);
        let loads = uniform_loads(&original, &back).unwrap();
        // Each machine gets exactly 2 unit jobs + setup 2 → load 4.
        assert_eq!(loads, vec![4, 4, 4]);
    }

    #[test]
    fn no_small_jobs_is_identity() {
        let original = inst();
        let (t, map) = replace_small_jobs(&original, |_| 0, |_| 1);
        assert_eq!(t.n(), original.n());
        assert_eq!(map.num_kept(), original.n());
        let sched = Schedule::new(vec![0, 1, 0, 1, 0, 1]);
        let back = map_schedule_back(&map, &t, &sched, &original);
        assert_eq!(back, sched);
    }
}
