//! Schedules and their exact evaluation.
//!
//! A schedule is the mapping `σ : J → M` of Section 1.1. The load of machine
//! `i` is `Σ_{j∈σ⁻¹(i)} p_ij + Σ_{k: class k present on i} s_ik` — jobs of a
//! class are processed in one batch per machine, so each machine pays each
//! present class's setup exactly once.

use crate::error::ScheduleError;
use crate::instance::{is_finite, JobId, MachineId, UniformInstance, UnrelatedInstance};
use crate::ratio::Ratio;

/// An assignment of every job to one machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    assignment: Vec<MachineId>,
}

impl Schedule {
    /// Wraps a raw assignment vector (`assignment[j]` = machine of job `j`).
    pub fn new(assignment: Vec<MachineId>) -> Schedule {
        Schedule { assignment }
    }

    #[inline]
    /// Number of jobs covered by the schedule.
    pub fn n(&self) -> usize {
        self.assignment.len()
    }

    #[inline]
    /// Machine `σ(j)` of job `j`.
    pub fn machine_of(&self, j: JobId) -> MachineId {
        self.assignment[j]
    }

    #[inline]
    /// The raw assignment vector.
    pub fn assignment(&self) -> &[MachineId] {
        &self.assignment
    }

    #[inline]
    /// Reassigns job `j` to machine `i`.
    pub fn set(&mut self, j: JobId, i: MachineId) {
        self.assignment[j] = i;
    }

    /// Jobs assigned to machine `i`, in job-id order.
    pub fn jobs_on(&self, i: MachineId) -> Vec<JobId> {
        (0..self.n()).filter(|&j| self.assignment[j] == i).collect()
    }

    /// Groups jobs by machine: `result[i]` lists the jobs on machine `i`.
    pub fn by_machine(&self, m: usize) -> Vec<Vec<JobId>> {
        let mut res = vec![Vec::new(); m];
        for (j, &i) in self.assignment.iter().enumerate() {
            res[i].push(j);
        }
        res
    }

    /// Basic shape validation shared by both environments.
    fn validate_shape(&self, n: usize, m: usize) -> Result<(), ScheduleError> {
        if self.n() != n {
            return Err(ScheduleError::WrongLength { expected: n, got: self.n() });
        }
        for (j, &i) in self.assignment.iter().enumerate() {
            if i >= m {
                return Err(ScheduleError::MachineOutOfRange { job: j, machine: i, m });
            }
        }
        Ok(())
    }
}

/// Per-machine *work* (size units) of a schedule on a uniform instance:
/// `work_i = Σ_{j on i} p_j + Σ_{classes on i} s_k`. Divide by `v_i` for time.
pub fn uniform_loads(inst: &UniformInstance, sched: &Schedule) -> Result<Vec<u64>, ScheduleError> {
    sched.validate_shape(inst.n(), inst.m())?;
    let mut work = vec![0u64; inst.m()];
    let mut seen = SeenScratch::new(inst.m(), inst.num_classes(), inst.n());
    for j in 0..inst.n() {
        let i = sched.machine_of(j);
        let job = inst.job(j);
        work[i] += job.size;
        if seen.first_sight(i, job.class) {
            work[i] += inst.setup(job.class);
        }
    }
    Ok(work)
}

/// Per-(machine, class) "seen" set for the full-recompute paths. Dense
/// `m × K` bitmap — one allocation, O(1) queries — when that stays
/// proportional to the input size; per-machine sorted Vecs otherwise, so a
/// sparse instance (huge `m·K`, few jobs) never allocates beyond
/// O(n + m). Kept private to this module — incremental callers should use
/// [`crate::tracker`] instead.
enum SeenScratch {
    Dense { num_classes: usize, seen: Vec<bool> },
    Sparse(Vec<Vec<usize>>),
}

impl SeenScratch {
    fn new(m: usize, num_classes: usize, n: usize) -> SeenScratch {
        // At most one bitmap byte per 8 input words (plus slack for tiny
        // instances): past that, the dense table no longer pays for itself.
        let budget = (8 * (n + m)).max(1 << 12);
        if m.saturating_mul(num_classes) <= budget {
            SeenScratch::Dense { num_classes, seen: vec![false; m * num_classes] }
        } else {
            SeenScratch::Sparse(vec![Vec::new(); m])
        }
    }

    /// Marks `(machine, class)` and returns true iff it was unseen before.
    #[inline]
    fn first_sight(&mut self, i: MachineId, k: usize) -> bool {
        match self {
            SeenScratch::Dense { num_classes, seen } => {
                !std::mem::replace(&mut seen[i * *num_classes + k], true)
            }
            SeenScratch::Sparse(per_machine) => match per_machine[i].binary_search(&k) {
                Ok(_) => false,
                Err(pos) => {
                    per_machine[i].insert(pos, k);
                    true
                }
            },
        }
    }
}

/// Exact makespan of a schedule on a uniform instance:
/// `max_i work_i / v_i`.
pub fn uniform_makespan(inst: &UniformInstance, sched: &Schedule) -> Result<Ratio, ScheduleError> {
    let loads = uniform_loads(inst, sched)?;
    Ok(loads
        .iter()
        .zip(inst.speeds())
        .map(|(&w, &v)| Ratio::new(w, v))
        .max()
        .unwrap_or(Ratio::ZERO))
}

/// Per-machine load (time units) of a schedule on an unrelated instance.
/// Fails if any assigned job or required setup is infinite on its machine.
pub fn unrelated_loads(
    inst: &UnrelatedInstance,
    sched: &Schedule,
) -> Result<Vec<u64>, ScheduleError> {
    sched.validate_shape(inst.n(), inst.m())?;
    let mut load = vec![0u64; inst.m()];
    let mut seen = SeenScratch::new(inst.m(), inst.num_classes(), inst.n());
    for j in 0..inst.n() {
        let i = sched.machine_of(j);
        let p = inst.ptime(i, j);
        if !is_finite(p) {
            return Err(ScheduleError::InfiniteProcessingTime { job: j, machine: i });
        }
        load[i] = load[i].saturating_add(p);
        let k = inst.class_of(j);
        if seen.first_sight(i, k) {
            let s = inst.setup(i, k);
            if !is_finite(s) {
                return Err(ScheduleError::InfiniteSetup { class: k, machine: i });
            }
            load[i] = load[i].saturating_add(s);
        }
    }
    Ok(load)
}

/// Exact makespan of a schedule on an unrelated instance.
pub fn unrelated_makespan(
    inst: &UnrelatedInstance,
    sched: &Schedule,
) -> Result<u64, ScheduleError> {
    Ok(unrelated_loads(inst, sched)?.into_iter().max().unwrap_or(0))
}

/// Number of setups each machine pays under `sched` (unrelated instance):
/// the number of distinct classes present per machine.
pub fn setups_per_machine(inst: &UnrelatedInstance, sched: &Schedule) -> Vec<usize> {
    let mut seen = SeenScratch::new(inst.m(), inst.num_classes(), inst.n());
    let mut counts = vec![0usize; inst.m()];
    for j in 0..inst.n() {
        let i = sched.machine_of(j);
        let k = inst.class_of(j);
        if seen.first_sight(i, k) {
            counts[i] += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{Job, INF};

    fn inst() -> UniformInstance {
        // speeds 2,1; classes with setups 3 and 5.
        UniformInstance::new(
            vec![2, 1],
            vec![3, 5],
            vec![Job::new(0, 4), Job::new(1, 6), Job::new(0, 2)],
        )
        .unwrap()
    }

    #[test]
    fn uniform_load_counts_setup_once_per_class() {
        let s = Schedule::new(vec![0, 0, 0]);
        let loads = uniform_loads(&inst(), &s).unwrap();
        // machine 0: jobs 4+6+2 = 12, setups 3 (class 0 once) + 5 = 20.
        assert_eq!(loads, vec![20, 0]);
        assert_eq!(uniform_makespan(&inst(), &s).unwrap(), Ratio::new(20, 2));
    }

    #[test]
    fn uniform_load_split_pays_setup_per_machine() {
        let s = Schedule::new(vec![0, 1, 1]);
        let loads = uniform_loads(&inst(), &s).unwrap();
        // machine 0: 4 + setup 3 = 7; machine 1: 6 + 2 + setups 5 + 3 = 16.
        assert_eq!(loads, vec![7, 16]);
        assert_eq!(uniform_makespan(&inst(), &s).unwrap(), Ratio::new(16, 1));
    }

    #[test]
    fn shape_validation() {
        let s = Schedule::new(vec![0, 0]);
        assert!(matches!(
            uniform_loads(&inst(), &s),
            Err(ScheduleError::WrongLength { expected: 3, got: 2 })
        ));
        let s = Schedule::new(vec![0, 0, 5]);
        assert!(matches!(
            uniform_loads(&inst(), &s),
            Err(ScheduleError::MachineOutOfRange { job: 2, machine: 5, m: 2 })
        ));
    }

    #[test]
    fn unrelated_loads_and_errors() {
        let inst = UnrelatedInstance::new(
            2,
            vec![0, 0, 1],
            vec![vec![3, 9], vec![INF, 4], vec![5, 5]],
            vec![vec![1, 2], vec![7, INF]],
        )
        .unwrap();
        let good = Schedule::new(vec![0, 1, 0]);
        // machine 0: job0 p=3 + setup(0)=1, job2 p=5 + setup(1)=7 → 16
        // machine 1: job1 p=4 + setup(0)=2 → 6
        assert_eq!(unrelated_loads(&inst, &good).unwrap(), vec![16, 6]);
        assert_eq!(unrelated_makespan(&inst, &good).unwrap(), 16);
        assert_eq!(setups_per_machine(&inst, &good), vec![2, 1]);

        let bad_p = Schedule::new(vec![0, 0, 0]);
        assert!(matches!(
            unrelated_loads(&inst, &bad_p),
            Err(ScheduleError::InfiniteProcessingTime { job: 1, machine: 0 })
        ));
        assert!(unrelated_makespan(&inst, &bad_p).is_err());

        let bad_s = Schedule::new(vec![0, 1, 1]);
        assert!(matches!(
            unrelated_loads(&inst, &bad_s),
            Err(ScheduleError::InfiniteSetup { class: 1, machine: 1 })
        ));
    }

    #[test]
    fn sparse_scratch_handles_huge_class_count() {
        // m·K far beyond the dense-bitmap budget: the sparse path must give
        // the same answer without allocating m·K memory.
        let kk = 3_000_000usize;
        let mut setups = vec![0u64; kk];
        setups[0] = 3;
        setups[kk - 1] = 5;
        let inst = UniformInstance::new(
            vec![1; 64],
            setups,
            vec![Job::new(0, 4), Job::new(kk - 1, 6), Job::new(0, 2)],
        )
        .unwrap();
        let s = Schedule::new(vec![0, 0, 0]);
        let loads = uniform_loads(&inst, &s).unwrap();
        assert_eq!(loads[0], 4 + 6 + 2 + 3 + 5);
        assert_eq!(uniform_makespan(&inst, &s).unwrap(), Ratio::new(20, 1));
    }

    #[test]
    fn by_machine_partitions_jobs() {
        let s = Schedule::new(vec![1, 0, 1]);
        let groups = s.by_machine(3);
        assert_eq!(groups, vec![vec![1], vec![0, 2], vec![]]);
        assert_eq!(s.jobs_on(1), vec![0, 2]);
    }
}
