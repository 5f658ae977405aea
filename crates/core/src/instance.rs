//! Instance model: jobs, setup classes and the three machine environments of
//! the paper (uniformly related, unrelated, restricted assignment).
//!
//! Terminology follows Section 1.1 of the paper. A job `j` has a *size* `p_j`
//! and belongs to exactly one class `k_j`; a class `k` has a *setup size*
//! `s_k` (uniform case) or machine-dependent setup times `s_ik` (unrelated
//! case). "Size" is the machine-independent quantity; the *processing time*
//! on a uniform machine `i` is `p_j / v_i`.
//!
//! ## Memory layout
//!
//! [`UnrelatedInstance`] stores `p_ij` and `s_ik` as **row-major flat
//! buffers** (`ptimes[j * m + i]`, `setups[k * m + i]`) rather than nested
//! `Vec<Vec<u64>>`: one allocation per matrix, contiguous rows, and `O(1)`
//! `#[inline]` accessors with no pointer chase per row. Both instance types
//! additionally precompute index tables at construction —
//! [`UnrelatedInstance::jobs_of_class`], [`UnrelatedInstance::nonempty_classes`]
//! and [`UnrelatedInstance::eligible_machines`] return borrowed slices
//! instead of allocating a fresh `Vec` per call, which keeps the search
//! heuristics' inner loops allocation-free.

use crate::error::InstanceError;
use crate::ratio::Ratio;

/// Index of a job in `0..n`.
pub type JobId = usize;
/// Index of a machine in `0..m`.
pub type MachineId = usize;
/// Index of a setup class in `0..K`.
pub type ClassId = usize;

/// Sentinel for an infinite processing/setup time (restricted assignment and
/// unrelated instances). Finite times must stay strictly below this value.
pub const INF: u64 = u64::MAX;

/// Returns true for finite time values.
#[inline]
pub fn is_finite(t: u64) -> bool {
    t != INF
}

/// CSR-style grouping of job ids by class: `jobs[offsets[k]..offsets[k + 1]]`
/// lists the jobs of class `k` in job-id order.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ClassIndex {
    offsets: Vec<usize>,
    jobs: Vec<JobId>,
    nonempty: Vec<ClassId>,
}

impl ClassIndex {
    fn build(num_classes: usize, classes: impl Iterator<Item = ClassId> + Clone) -> ClassIndex {
        let mut counts = vec![0usize; num_classes + 1];
        for k in classes.clone() {
            counts[k + 1] += 1;
        }
        for k in 0..num_classes {
            counts[k + 1] += counts[k];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut jobs = vec![0usize; offsets[num_classes]];
        for (j, k) in classes.enumerate() {
            jobs[cursor[k]] = j;
            cursor[k] += 1;
        }
        let nonempty = (0..num_classes).filter(|&k| offsets[k + 1] > offsets[k]).collect();
        ClassIndex { offsets, jobs, nonempty }
    }

    #[inline]
    fn of(&self, k: ClassId) -> &[JobId] {
        &self.jobs[self.offsets[k]..self.offsets[k + 1]]
    }
}

/// A job of a uniformly-related-machines instance: a size and a class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Job {
    /// Setup class of the job (`k_j`).
    pub class: ClassId,
    /// Machine-independent size (`p_j`).
    pub size: u64,
}

impl Job {
    #[inline]
    /// Creates a job of class `class` with size `size`.
    pub fn new(class: ClassId, size: u64) -> Job {
        Job { class, size }
    }
}

/// An instance of scheduling with setup times on **uniformly related
/// machines**: machine `i` has speed `v_i`, job `j` takes `p_j / v_i` time,
/// a setup for class `k` takes `s_k / v_i` time.
///
/// Identical machines are the special case of all speeds equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UniformInstance {
    speeds: Vec<u64>,
    setups: Vec<u64>,
    jobs: Vec<Job>,
    by_class: ClassIndex,
}

impl UniformInstance {
    /// Builds and validates an instance.
    pub fn new(speeds: Vec<u64>, setups: Vec<u64>, jobs: Vec<Job>) -> Result<Self, InstanceError> {
        if speeds.is_empty() {
            return Err(InstanceError::NoMachines);
        }
        if let Some(i) = speeds.iter().position(|&v| v == 0) {
            return Err(InstanceError::ZeroSpeed { machine: i });
        }
        for (j, job) in jobs.iter().enumerate() {
            if job.class >= setups.len() {
                return Err(InstanceError::ClassOutOfRange {
                    job: j,
                    class: job.class,
                    num_classes: setups.len(),
                });
            }
        }
        let by_class = ClassIndex::build(setups.len(), jobs.iter().map(|j| j.class));
        Ok(UniformInstance { speeds, setups, jobs, by_class })
    }

    /// Identical machines: `m` machines of speed 1.
    pub fn identical(m: usize, setups: Vec<u64>, jobs: Vec<Job>) -> Result<Self, InstanceError> {
        UniformInstance::new(vec![1; m], setups, jobs)
    }

    #[inline]
    /// Number of jobs `n`.
    pub fn n(&self) -> usize {
        self.jobs.len()
    }

    #[inline]
    /// Number of machines `m`.
    pub fn m(&self) -> usize {
        self.speeds.len()
    }

    /// Number of setup classes `K`.
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.setups.len()
    }

    #[inline]
    /// Job `j`.
    pub fn job(&self, j: JobId) -> Job {
        self.jobs[j]
    }

    #[inline]
    /// All jobs, indexed by [`JobId`].
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    #[inline]
    /// Speed `v_i` of machine `i`.
    pub fn speed(&self, i: MachineId) -> u64 {
        self.speeds[i]
    }

    #[inline]
    /// All machine speeds, indexed by [`MachineId`].
    pub fn speeds(&self) -> &[u64] {
        &self.speeds
    }

    /// Setup size `s_k` of class `k`.
    #[inline]
    pub fn setup(&self, k: ClassId) -> u64 {
        self.setups[k]
    }

    #[inline]
    /// All setup sizes, indexed by [`ClassId`].
    pub fn setups(&self) -> &[u64] {
        &self.setups
    }

    /// Processing time of job `j` on machine `i` as an exact rational.
    #[inline]
    pub fn ptime(&self, i: MachineId, j: JobId) -> Ratio {
        Ratio::new(self.jobs[j].size, self.speeds[i])
    }

    /// Jobs of class `k`, in job-id order (precomputed; no allocation).
    #[inline]
    pub fn jobs_of_class(&self, k: ClassId) -> &[JobId] {
        self.by_class.of(k)
    }

    /// Classes that actually contain at least one job (precomputed).
    #[inline]
    pub fn nonempty_classes(&self) -> &[ClassId] {
        &self.by_class.nonempty
    }

    /// Total job size `Σ_j p_j`.
    pub fn total_job_size(&self) -> u64 {
        self.jobs.iter().map(|j| j.size).sum()
    }

    /// `Σ_j p_j + Σ_{k nonempty} s_k` — minimum total work any schedule pays.
    pub fn total_work_with_min_setups(&self) -> u64 {
        let setups: u64 = self.nonempty_classes().iter().map(|&k| self.setups[k]).sum();
        self.total_job_size() + setups
    }

    /// Sum of all machine speeds.
    pub fn total_speed(&self) -> u64 {
        self.speeds.iter().sum()
    }

    /// Fastest machine speed `v_max`.
    pub fn max_speed(&self) -> u64 {
        *self.speeds.iter().max().expect("non-empty by construction")
    }

    /// Slowest machine speed `v_min`.
    pub fn min_speed(&self) -> u64 {
        *self.speeds.iter().min().expect("non-empty by construction")
    }

    /// True iff all machines have equal speed.
    pub fn is_identical(&self) -> bool {
        self.speeds.iter().all(|&v| v == self.speeds[0])
    }
}

/// An instance of scheduling with setup times on **unrelated machines**:
/// arbitrary processing times `p_ij` and setup times `s_ik`, either of which
/// may be [`INF`] (restricted assignment).
///
/// Both matrices are stored as row-major flat buffers — `p_ij` at
/// `ptimes[j * m + i]`, `s_ik` at `setups[k * m + i]` — and class/eligibility
/// index tables are precomputed at construction (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnrelatedInstance {
    m: usize,
    job_class: Vec<ClassId>,
    /// `ptimes[j * m + i] = p_ij` (row per job).
    ptimes: Vec<u64>,
    /// `setups[k * m + i] = s_ik` (row per class).
    setups: Vec<u64>,
    by_class: ClassIndex,
    /// CSR: machines with finite `cost(i, j)`, grouped by job.
    elig_offsets: Vec<usize>,
    elig_machines: Vec<MachineId>,
}

impl UnrelatedInstance {
    /// Builds and validates an instance.
    ///
    /// `ptimes[j][i]` is the processing time of job `j` on machine `i`;
    /// `setups[k][i]` is the setup time of class `k` on machine `i`.
    pub fn new(
        m: usize,
        job_class: Vec<ClassId>,
        ptimes: Vec<Vec<u64>>,
        setups: Vec<Vec<u64>>,
    ) -> Result<Self, InstanceError> {
        if m == 0 {
            return Err(InstanceError::NoMachines);
        }
        if ptimes.len() != job_class.len() {
            return Err(InstanceError::DimensionMismatch {
                what: "ptimes rows",
                expected: job_class.len(),
                got: ptimes.len(),
            });
        }
        for (j, row) in ptimes.iter().enumerate() {
            if row.len() != m {
                return Err(InstanceError::DimensionMismatch {
                    what: "ptimes columns",
                    expected: m,
                    got: row.len(),
                });
            }
            if row.iter().all(|&p| !is_finite(p)) {
                return Err(InstanceError::UnschedulableJob { job: j });
            }
        }
        for row in setups.iter() {
            if row.len() != m {
                return Err(InstanceError::DimensionMismatch {
                    what: "setup columns",
                    expected: m,
                    got: row.len(),
                });
            }
        }
        for (j, &k) in job_class.iter().enumerate() {
            if k >= setups.len() {
                return Err(InstanceError::ClassOutOfRange {
                    job: j,
                    class: k,
                    num_classes: setups.len(),
                });
            }
        }
        Self::from_flat(
            m,
            job_class,
            ptimes.into_iter().flatten().collect(),
            setups.into_iter().flatten().collect(),
        )
    }

    /// Builds and validates an instance from row-major flat matrices
    /// (`ptimes[j * m + i]`, `setups[k * m + i]`). This is the
    /// allocation-minimal constructor; [`UnrelatedInstance::new`] forwards
    /// to it after flattening.
    pub fn from_flat(
        m: usize,
        job_class: Vec<ClassId>,
        ptimes: Vec<u64>,
        setups: Vec<u64>,
    ) -> Result<Self, InstanceError> {
        if m == 0 {
            return Err(InstanceError::NoMachines);
        }
        let n = job_class.len();
        if ptimes.len() != n * m {
            return Err(InstanceError::DimensionMismatch {
                what: "flat ptimes length",
                expected: n * m,
                got: ptimes.len(),
            });
        }
        if !setups.len().is_multiple_of(m) {
            return Err(InstanceError::DimensionMismatch {
                what: "flat setups length",
                expected: (setups.len() / m + 1) * m,
                got: setups.len(),
            });
        }
        let num_classes = setups.len() / m;
        for (j, &k) in job_class.iter().enumerate() {
            if k >= num_classes {
                return Err(InstanceError::ClassOutOfRange { job: j, class: k, num_classes });
            }
        }
        let by_class = ClassIndex::build(num_classes, job_class.iter().copied());
        let mut inst = UnrelatedInstance {
            m,
            job_class,
            ptimes,
            setups,
            by_class,
            elig_offsets: Vec::new(),
            elig_machines: Vec::new(),
        };
        // Eligibility index: machines with finite p_ij AND finite s_{i,k_j}.
        // Row slices instead of per-cell `cost(i, j)` calls: one bounds
        // check per row, and the inner zip compiles to a straight sweep —
        // this loop dominates packed-frame decode for large instances.
        let mut offsets = Vec::with_capacity(n + 1);
        let mut machines = Vec::new();
        offsets.push(0);
        for j in 0..n {
            let prow = &inst.ptimes[j * m..(j + 1) * m];
            let k = inst.job_class[j];
            let srow = &inst.setups[k * m..(k + 1) * m];
            let before = machines.len();
            for (i, (&p, &s)) in prow.iter().zip(srow).enumerate() {
                if is_finite(p) && is_finite(s) && is_finite(p.saturating_add(s)) {
                    machines.push(i);
                }
            }
            if machines.len() == before {
                return Err(InstanceError::UnschedulableJob { job: j });
            }
            offsets.push(machines.len());
        }
        inst.elig_offsets = offsets;
        inst.elig_machines = machines;
        Ok(inst)
    }

    /// Restricted assignment: job `j` has size `sizes[j]` on every machine in
    /// `eligible[j]` and `∞` elsewhere; class `k` has setup `class_setups[k]`
    /// on every machine in `class_machines[k]` and `∞` elsewhere (pass
    /// `None` to allow a class everywhere).
    pub fn restricted_assignment(
        m: usize,
        job_class: Vec<ClassId>,
        sizes: Vec<u64>,
        eligible: Vec<Vec<MachineId>>,
        class_setups: Vec<u64>,
        class_machines: Option<Vec<Vec<MachineId>>>,
    ) -> Result<Self, InstanceError> {
        if sizes.len() != job_class.len() || eligible.len() != job_class.len() {
            return Err(InstanceError::DimensionMismatch {
                what: "restricted assignment job vectors",
                expected: job_class.len(),
                got: sizes.len().min(eligible.len()),
            });
        }
        let mut ptimes = vec![INF; job_class.len() * m];
        for (j, elig) in eligible.iter().enumerate() {
            for &i in elig {
                ptimes[j * m + i] = sizes[j];
            }
        }
        let mut setups = vec![INF; class_setups.len() * m];
        match &class_machines {
            Some(rows) => {
                for (k, row) in rows.iter().enumerate() {
                    for &i in row {
                        setups[k * m + i] = class_setups[k];
                    }
                }
            }
            None => {
                for (k, s) in class_setups.iter().enumerate() {
                    setups[k * m..(k + 1) * m].fill(*s);
                }
            }
        }
        UnrelatedInstance::from_flat(m, job_class, ptimes, setups)
    }

    #[inline]
    /// Number of jobs `n`.
    pub fn n(&self) -> usize {
        self.job_class.len()
    }

    #[inline]
    /// Number of machines `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    #[inline]
    /// Number of setup classes `K`.
    pub fn num_classes(&self) -> usize {
        self.setups.len() / self.m
    }

    /// Class `k_j` of job `j`.
    #[inline]
    pub fn class_of(&self, j: JobId) -> ClassId {
        self.job_class[j]
    }

    /// Classes of all jobs, indexed by [`JobId`].
    #[inline]
    pub fn job_classes(&self) -> &[ClassId] {
        &self.job_class
    }

    /// Processing time `p_ij` (possibly [`INF`]).
    #[inline]
    pub fn ptime(&self, i: MachineId, j: JobId) -> u64 {
        self.ptimes[j * self.m + i]
    }

    /// Row `j` of the processing-time matrix: `p_ij` for all machines `i`.
    #[inline]
    pub fn ptimes_row(&self, j: JobId) -> &[u64] {
        &self.ptimes[j * self.m..(j + 1) * self.m]
    }

    /// Setup time `s_ik` (possibly [`INF`]).
    #[inline]
    pub fn setup(&self, i: MachineId, k: ClassId) -> u64 {
        self.setups[k * self.m + i]
    }

    /// Row `k` of the setup-time matrix: `s_ik` for all machines `i`.
    #[inline]
    pub fn setups_row(&self, k: ClassId) -> &[u64] {
        &self.setups[k * self.m..(k + 1) * self.m]
    }

    /// `p_ij + s_{i,k_j}`, saturating at [`INF`]: the cost of running `j` on
    /// an otherwise-empty machine `i`.
    #[inline]
    pub fn cost(&self, i: MachineId, j: JobId) -> u64 {
        let p = self.ptime(i, j);
        let s = self.setup(i, self.job_class[j]);
        if !is_finite(p) || !is_finite(s) {
            INF
        } else {
            p.saturating_add(s)
        }
    }

    /// Jobs of class `k`, in job-id order (precomputed; no allocation).
    #[inline]
    pub fn jobs_of_class(&self, k: ClassId) -> &[JobId] {
        self.by_class.of(k)
    }

    /// Classes with at least one job (precomputed).
    #[inline]
    pub fn nonempty_classes(&self) -> &[ClassId] {
        &self.by_class.nonempty
    }

    /// Machines on which job `j` can run with finite `p_ij` *and* finite
    /// setup for its class (precomputed; no allocation).
    #[inline]
    pub fn eligible_machines(&self, j: JobId) -> &[MachineId] {
        &self.elig_machines[self.elig_offsets[j]..self.elig_offsets[j + 1]]
    }

    /// True iff the instance is a restricted-assignment instance: each job's
    /// finite processing times are all equal.
    pub fn is_restricted_assignment(&self) -> bool {
        (0..self.n()).all(|j| {
            let mut finite = self.ptimes_row(j).iter().copied().filter(|&p| is_finite(p));
            match finite.next() {
                None => true,
                Some(first) => finite.all(|p| p == first),
            }
        })
    }

    /// True iff the restrictions are class-uniform (Section 3.3.1): all jobs
    /// of a class have the same set of machines with finite `p_ij`.
    pub fn has_class_uniform_restrictions(&self) -> bool {
        for k in 0..self.num_classes() {
            let Some((&first, rest)) = self.jobs_of_class(k).split_first() else {
                continue;
            };
            let first = self.ptimes_row(first);
            let differs = |j: JobId| {
                self.ptimes_row(j).iter().zip(first).any(|(&p, &q)| is_finite(p) != is_finite(q))
            };
            if rest.iter().any(|&j| differs(j)) {
                return false;
            }
        }
        true
    }

    /// True iff processing times are class-uniform (Section 3.3.2):
    /// `k_j = k_{j'}` implies `p_ij = p_ij'` on every machine.
    pub fn has_class_uniform_ptimes(&self) -> bool {
        for k in 0..self.num_classes() {
            let jobs = self.jobs_of_class(k);
            for w in jobs.windows(2) {
                if self.ptimes_row(w[0]) != self.ptimes_row(w[1]) {
                    return false;
                }
            }
        }
        true
    }

    /// Total workload of class `k` on machine `i` — `p̄_ik = Σ_{j: k_j=k} p_ij`
    /// if every job of the class is finite on `i`, otherwise [`INF`]
    /// (Section 3.3.1 notation).
    pub fn class_workload(&self, i: MachineId, k: ClassId) -> u64 {
        let mut sum: u64 = 0;
        for &j in self.jobs_of_class(k) {
            let p = self.ptime(i, j);
            if !is_finite(p) {
                return INF;
            }
            sum = sum.saturating_add(p);
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_uniform() -> UniformInstance {
        UniformInstance::new(
            vec![2, 1],
            vec![3, 5],
            vec![Job::new(0, 4), Job::new(1, 6), Job::new(0, 2)],
        )
        .unwrap()
    }

    #[test]
    fn uniform_accessors() {
        let inst = small_uniform();
        assert_eq!(inst.n(), 3);
        assert_eq!(inst.m(), 2);
        assert_eq!(inst.num_classes(), 2);
        assert_eq!(inst.ptime(0, 1), Ratio::new(6, 2));
        assert_eq!(inst.jobs_of_class(0), vec![0, 2]);
        assert_eq!(inst.total_job_size(), 12);
        assert_eq!(inst.total_work_with_min_setups(), 12 + 3 + 5);
        assert_eq!(inst.total_speed(), 3);
        assert!(!inst.is_identical());
    }

    #[test]
    fn uniform_rejects_bad_input() {
        assert_eq!(UniformInstance::new(vec![], vec![1], vec![]), Err(InstanceError::NoMachines));
        assert_eq!(
            UniformInstance::new(vec![1, 0], vec![1], vec![]),
            Err(InstanceError::ZeroSpeed { machine: 1 })
        );
        assert!(matches!(
            UniformInstance::new(vec![1], vec![1], vec![Job::new(3, 1)]),
            Err(InstanceError::ClassOutOfRange { job: 0, class: 3, .. })
        ));
    }

    #[test]
    fn nonempty_classes_skips_empty() {
        let inst = UniformInstance::new(vec![1], vec![1, 2, 3], vec![Job::new(2, 5)]).unwrap();
        assert_eq!(inst.nonempty_classes(), vec![2]);
        assert_eq!(inst.total_work_with_min_setups(), 5 + 3);
    }

    #[test]
    fn identical_constructor() {
        let inst = UniformInstance::identical(4, vec![2], vec![Job::new(0, 7)]).unwrap();
        assert!(inst.is_identical());
        assert_eq!(inst.m(), 4);
    }

    fn small_unrelated() -> UnrelatedInstance {
        UnrelatedInstance::new(
            2,
            vec![0, 0, 1],
            vec![vec![3, 9], vec![INF, 4], vec![5, 5]],
            vec![vec![1, 2], vec![7, INF]],
        )
        .unwrap()
    }

    #[test]
    fn unrelated_accessors() {
        let inst = small_unrelated();
        assert_eq!(inst.n(), 3);
        assert_eq!(inst.m(), 2);
        assert_eq!(inst.ptime(1, 0), 9);
        assert_eq!(inst.cost(0, 0), 4);
        assert_eq!(inst.cost(0, 1), INF); // infinite ptime
        assert_eq!(inst.cost(1, 2), INF); // infinite setup
        assert_eq!(inst.eligible_machines(2), vec![0]);
    }

    #[test]
    fn flat_rows_match_cell_accessors() {
        let inst = small_unrelated();
        for j in 0..inst.n() {
            for (i, &cell) in inst.ptimes_row(j).iter().enumerate() {
                assert_eq!(cell, inst.ptime(i, j));
            }
        }
        for k in 0..inst.num_classes() {
            for (i, &cell) in inst.setups_row(k).iter().enumerate() {
                assert_eq!(cell, inst.setup(i, k));
            }
        }
    }

    #[test]
    fn from_flat_matches_nested_constructor() {
        let nested = small_unrelated();
        let flat = UnrelatedInstance::from_flat(
            2,
            vec![0, 0, 1],
            vec![3, 9, INF, 4, 5, 5],
            vec![1, 2, 7, INF],
        )
        .unwrap();
        assert_eq!(nested, flat);
    }

    #[test]
    fn unrelated_rejects_unschedulable() {
        // Job 0 finite nowhere once setups are considered.
        let err = UnrelatedInstance::new(1, vec![0], vec![vec![5]], vec![vec![INF]]);
        assert_eq!(err, Err(InstanceError::UnschedulableJob { job: 0 }));
    }

    #[test]
    fn restricted_assignment_builder() {
        let inst = UnrelatedInstance::restricted_assignment(
            3,
            vec![0, 0, 1],
            vec![4, 6, 2],
            vec![vec![0, 1], vec![0, 1], vec![2]],
            vec![1, 1],
            None,
        )
        .unwrap();
        assert!(inst.is_restricted_assignment());
        assert!(inst.has_class_uniform_restrictions());
        assert_eq!(inst.ptime(2, 0), INF);
        assert_eq!(inst.ptime(0, 0), 4);
    }

    #[test]
    fn class_uniform_checks() {
        let inst = small_unrelated();
        // jobs 0 and 1 share class 0 but differ on machine 0 (3 vs INF).
        assert!(!inst.has_class_uniform_ptimes());
        assert!(!inst.has_class_uniform_restrictions());

        let cu =
            UnrelatedInstance::new(2, vec![0, 0], vec![vec![3, 9], vec![3, 9]], vec![vec![1, 1]])
                .unwrap();
        assert!(cu.has_class_uniform_ptimes());
        assert!(cu.has_class_uniform_restrictions());
    }

    #[test]
    fn class_workload_saturates_to_inf() {
        let inst = small_unrelated();
        assert_eq!(inst.class_workload(0, 0), INF); // job 1 infinite on machine 0
        assert_eq!(inst.class_workload(1, 0), 13);
        assert_eq!(inst.class_workload(0, 1), 5);
    }
}
