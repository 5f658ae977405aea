//! The [`MachineModel`] trait: one abstraction over the machine
//! environments of the paper, capturing exactly what the per-model code
//! used to duplicate.
//!
//! The paper analyzes the setup-class problem on uniformly related *and*
//! unrelated machines with one shared toolkit, and Section 3.3 builds on
//! the splittable substrate of Correa et al. \[5\]. The implementation
//! mirrors that: everything the incremental tracker
//! ([`crate::tracker::LoadTracker`]) and the generic search heuristics
//! (`sst_algos::local_search`, `sst_algos::annealing`) need from a machine
//! environment is:
//!
//! * an **instance type** and its shape accessors (`n`, `m`, `K`, job
//!   classes);
//! * the **raw load unit** — how many `u64` units a job or a setup adds to
//!   a machine (work units on uniform machines, time units on unrelated
//!   ones), with `None` encoding infeasibility (`∞` cells);
//! * the **ordered load key** the makespan is measured in — plain `u64`
//!   time for unrelated machines, the exact [`Ratio`] `work / speed` for
//!   uniform ones — i.e. the `Cost` arithmetic of the model;
//! * whether times are **machine-independent**, which decides if a
//!   whole-class move can reuse the cached departing sum for the arriving
//!   side (`O(1)` uniform class moves vs `O(B)` unrelated ones).
//!
//! Three models implement the trait:
//!
//! | marker | instance | key | notes |
//! |---|---|---|---|
//! | [`Uniform`] | [`UniformInstance`] | [`Ratio`] | machine-independent sizes |
//! | [`Unrelated`] | [`UnrelatedInstance`] | `u64` | `∞` cells allowed |
//! | [`Splittable`] | [`UnrelatedInstance`] | `u64` | integral sub-space of the split model |
//!
//! [`Splittable`] shares the unrelated instance data: in the splittable
//! model of Correa et al. a class's workload may be divided across
//! machines (each paying the full setup), and a *job-granular* schedule is
//! exactly a split schedule whose shares are job subsets — its per-machine
//! load is the same `Σ p_ij + Σ s_ik` sum. Trackers and descent therefore
//! operate on the integral sub-space of the split model through this
//! marker; fractional shares live in `sst_algos::splittable`.
//!
//! Adding machine model number four is: implement [`MachineModel`] for a
//! marker type, and the tracker, local search and annealing come for free
//! (see the "Adding a machine model" guide in the repository README).

use crate::delta::{self, DeltaError, InstanceDelta};
use crate::instance::{is_finite, ClassId, JobId, MachineId, UniformInstance, UnrelatedInstance};
use crate::ratio::Ratio;
use crate::schedule::Schedule;
use crate::ScheduleError;

/// A machine environment: the per-model behavior behind the generic
/// tracker and search heuristics. See the [module docs](self).
///
/// All methods are associated functions over marker types (no `self`), so
/// generic code monomorphizes to exactly the loops the hand-written
/// per-model implementations used to contain.
pub trait MachineModel {
    /// The instance type of this model.
    type Instance;

    /// Ordered load key — the unit makespans are measured and compared in
    /// (`u64` time for unrelated machines, exact [`Ratio`] for uniform).
    type Key: Ord + Copy + std::fmt::Debug;

    /// The protocol/file-format `kind` tag of this model.
    const KIND: &'static str;

    /// True when job and setup times do not depend on the machine (in raw
    /// load units). Lets whole-class moves reuse the cached per-slot sum
    /// for the arriving side instead of an `O(B)` re-sum.
    const MACHINE_INDEPENDENT_TIMES: bool;

    /// Number of jobs.
    fn n(inst: &Self::Instance) -> usize;
    /// Number of machines.
    fn m(inst: &Self::Instance) -> usize;
    /// Number of setup classes.
    fn num_classes(inst: &Self::Instance) -> usize;
    /// Class of job `j`.
    fn class_of(inst: &Self::Instance, j: JobId) -> ClassId;

    /// Raw load units job `j` adds to machine `i`; `None` when infeasible
    /// (infinite processing time).
    fn job_time(inst: &Self::Instance, i: MachineId, j: JobId) -> Option<u64>;

    /// Raw load units class `k`'s setup adds to machine `i`; `None` when
    /// infeasible (infinite setup time).
    fn setup_time(inst: &Self::Instance, i: MachineId, k: ClassId) -> Option<u64>;

    /// The ordered key of machine `i` carrying `load` raw units.
    ///
    /// For a fixed machine the key is **non-decreasing in `load`**: more
    /// load never orders below less. The tracker's `*_move_target`
    /// accessors and the annealer's scoring rest on this (a machine that
    /// only sheds load cannot raise the makespan), and
    /// `crates/core/tests/proptest_tracker.rs` checks it for every model.
    fn key(inst: &Self::Instance, i: MachineId, load: u64) -> Self::Key;

    /// The key of an empty machine set — the identity of `max`.
    fn zero_key() -> Self::Key;

    /// Lossy float view of a key (temperature scales, the annealer's
    /// Metropolis deltas, display).
    fn key_to_f64(key: Self::Key) -> f64;

    /// The raw load `key` stands for, when the model's key of a machine is
    /// its raw load itself (`key(inst, i, load) == load` for every machine,
    /// as for [`Unrelated`] and [`Splittable`]); `None` for models whose
    /// keys are not loads ([`Uniform`]'s ratios). The annealer's integer
    /// plateau phase runs only for models that answer `Some`.
    fn key_as_load(_key: Self::Key) -> Option<u64> {
        None
    }

    /// Applies one [`InstanceDelta`] (see [`crate::delta`]) and returns the
    /// edited, re-validated instance. The session layer mutates instances
    /// exclusively through this hook, so delta semantics (swap-remove job
    /// ids, appended classes) are identical across machine models.
    fn apply_delta(
        inst: &Self::Instance,
        delta: &InstanceDelta,
    ) -> Result<Self::Instance, DeltaError>;

    /// Applies a whole delta batch with **one** instance rebuild (the
    /// repair path's fast variant — per-edit application would pay the
    /// `O(n·m)` reconstruction once per edit). Equivalent to folding
    /// [`Self::apply_delta`], except that validation runs on the final
    /// state only (pinned, on per-step-valid sequences, by the
    /// differential proptests).
    fn apply_deltas(
        inst: &Self::Instance,
        deltas: &[InstanceDelta],
    ) -> Result<Self::Instance, DeltaError>;
}

/// Uniformly related machines: machine `i` has speed `v_i`, loads are
/// tracked in machine-independent *work* units, and the key is the exact
/// rational `work / v_i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Uniform;

impl MachineModel for Uniform {
    type Instance = UniformInstance;
    type Key = Ratio;

    const KIND: &'static str = "uniform";
    const MACHINE_INDEPENDENT_TIMES: bool = true;

    #[inline]
    fn n(inst: &UniformInstance) -> usize {
        inst.n()
    }
    #[inline]
    fn m(inst: &UniformInstance) -> usize {
        inst.m()
    }
    #[inline]
    fn num_classes(inst: &UniformInstance) -> usize {
        inst.num_classes()
    }
    #[inline]
    fn class_of(inst: &UniformInstance, j: JobId) -> ClassId {
        inst.job(j).class
    }
    #[inline]
    fn job_time(inst: &UniformInstance, _i: MachineId, j: JobId) -> Option<u64> {
        Some(inst.job(j).size)
    }
    #[inline]
    fn setup_time(inst: &UniformInstance, _i: MachineId, k: ClassId) -> Option<u64> {
        Some(inst.setup(k))
    }
    #[inline]
    fn key(inst: &UniformInstance, i: MachineId, load: u64) -> Ratio {
        Ratio::new(load, inst.speed(i))
    }
    #[inline]
    fn zero_key() -> Ratio {
        Ratio::ZERO
    }
    #[inline]
    fn key_to_f64(key: Ratio) -> f64 {
        key.to_f64()
    }
    #[inline]
    fn apply_delta(
        inst: &UniformInstance,
        d: &InstanceDelta,
    ) -> Result<UniformInstance, DeltaError> {
        delta::apply_uniform(inst, d)
    }
    #[inline]
    fn apply_deltas(
        inst: &UniformInstance,
        ds: &[InstanceDelta],
    ) -> Result<UniformInstance, DeltaError> {
        delta::apply_uniform_all(inst, ds)
    }
}

/// Unrelated machines: full `p_ij` / `s_ik` matrices, `∞` cells allowed;
/// loads are plain time units and are their own key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unrelated;

impl MachineModel for Unrelated {
    type Instance = UnrelatedInstance;
    type Key = u64;

    const KIND: &'static str = "unrelated";
    const MACHINE_INDEPENDENT_TIMES: bool = false;

    #[inline]
    fn n(inst: &UnrelatedInstance) -> usize {
        inst.n()
    }
    #[inline]
    fn m(inst: &UnrelatedInstance) -> usize {
        inst.m()
    }
    #[inline]
    fn num_classes(inst: &UnrelatedInstance) -> usize {
        inst.num_classes()
    }
    #[inline]
    fn class_of(inst: &UnrelatedInstance, j: JobId) -> ClassId {
        inst.class_of(j)
    }
    #[inline]
    fn job_time(inst: &UnrelatedInstance, i: MachineId, j: JobId) -> Option<u64> {
        let p = inst.ptime(i, j);
        is_finite(p).then_some(p)
    }
    #[inline]
    fn setup_time(inst: &UnrelatedInstance, i: MachineId, k: ClassId) -> Option<u64> {
        let s = inst.setup(i, k);
        is_finite(s).then_some(s)
    }
    #[inline]
    fn key(_inst: &UnrelatedInstance, _i: MachineId, load: u64) -> u64 {
        load
    }
    #[inline]
    fn zero_key() -> u64 {
        0
    }
    #[inline]
    fn key_to_f64(key: u64) -> f64 {
        key as f64
    }
    #[inline]
    fn key_as_load(key: u64) -> Option<u64> {
        Some(key)
    }
    #[inline]
    fn apply_delta(
        inst: &UnrelatedInstance,
        d: &InstanceDelta,
    ) -> Result<UnrelatedInstance, DeltaError> {
        delta::apply_unrelated(inst, d)
    }
    #[inline]
    fn apply_deltas(
        inst: &UnrelatedInstance,
        ds: &[InstanceDelta],
    ) -> Result<UnrelatedInstance, DeltaError> {
        delta::apply_unrelated_all(inst, ds)
    }
}

/// The splittable model of Correa et al. \[5\] (Section 3.3's substrate),
/// restricted to its **integral sub-space**: a job-granular schedule is a
/// split schedule whose shares are job subsets, and its per-machine load
/// is the same `Σ p_ij + Σ s_ik` sum the unrelated model uses — so the
/// trait delegates to [`Unrelated`] cell for cell. What differs is the
/// *solution space* around it: fractional shares, the split-aware solvers
/// and the `"splittable"` protocol kind (see `sst_algos::splittable`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Splittable;

impl MachineModel for Splittable {
    type Instance = UnrelatedInstance;
    type Key = u64;

    const KIND: &'static str = "splittable";
    const MACHINE_INDEPENDENT_TIMES: bool = false;

    #[inline]
    fn n(inst: &UnrelatedInstance) -> usize {
        Unrelated::n(inst)
    }
    #[inline]
    fn m(inst: &UnrelatedInstance) -> usize {
        Unrelated::m(inst)
    }
    #[inline]
    fn num_classes(inst: &UnrelatedInstance) -> usize {
        Unrelated::num_classes(inst)
    }
    #[inline]
    fn class_of(inst: &UnrelatedInstance, j: JobId) -> ClassId {
        Unrelated::class_of(inst, j)
    }
    #[inline]
    fn job_time(inst: &UnrelatedInstance, i: MachineId, j: JobId) -> Option<u64> {
        Unrelated::job_time(inst, i, j)
    }
    #[inline]
    fn setup_time(inst: &UnrelatedInstance, i: MachineId, k: ClassId) -> Option<u64> {
        Unrelated::setup_time(inst, i, k)
    }
    #[inline]
    fn key(inst: &UnrelatedInstance, i: MachineId, load: u64) -> u64 {
        Unrelated::key(inst, i, load)
    }
    #[inline]
    fn zero_key() -> u64 {
        Unrelated::zero_key()
    }
    #[inline]
    fn key_to_f64(key: u64) -> f64 {
        Unrelated::key_to_f64(key)
    }
    #[inline]
    fn key_as_load(key: u64) -> Option<u64> {
        Unrelated::key_as_load(key)
    }
    #[inline]
    fn apply_delta(
        inst: &UnrelatedInstance,
        d: &InstanceDelta,
    ) -> Result<UnrelatedInstance, DeltaError> {
        Unrelated::apply_delta(inst, d)
    }
    #[inline]
    fn apply_deltas(
        inst: &UnrelatedInstance,
        ds: &[InstanceDelta],
    ) -> Result<UnrelatedInstance, DeltaError> {
        Unrelated::apply_deltas(inst, ds)
    }
}

/// Per-machine raw loads of `sched` under model `M` — the `O(n)`
/// full-recompute evaluator, written once against the trait. Agrees with
/// [`crate::schedule::uniform_loads`] / [`crate::schedule::unrelated_loads`]
/// on their models (pinned by the tracker proptests) and is the oracle
/// the incremental tracker and the descent are tested against.
pub fn loads<M: MachineModel>(
    inst: &M::Instance,
    sched: &Schedule,
) -> Result<Vec<u64>, ScheduleError> {
    let (n, m, kk) = (M::n(inst), M::m(inst), M::num_classes(inst));
    if sched.n() != n {
        return Err(ScheduleError::WrongLength { expected: n, got: sched.n() });
    }
    let mut load = vec![0u64; m];
    let mut seen = vec![false; m * kk];
    for j in 0..n {
        let i = sched.machine_of(j);
        if i >= m {
            return Err(ScheduleError::MachineOutOfRange { job: j, machine: i, m });
        }
        let p = M::job_time(inst, i, j)
            .ok_or(ScheduleError::InfiniteProcessingTime { job: j, machine: i })?;
        let k = M::class_of(inst, j);
        if !seen[i * kk + k] {
            seen[i * kk + k] = true;
            load[i] += M::setup_time(inst, i, k)
                .ok_or(ScheduleError::InfiniteSetup { class: k, machine: i })?;
        }
        load[i] += p;
    }
    Ok(load)
}

/// Makespan key of `sched` under model `M` (max over [`loads`]).
pub fn makespan_key<M: MachineModel>(
    inst: &M::Instance,
    sched: &Schedule,
) -> Result<M::Key, ScheduleError> {
    let loads = loads::<M>(inst, sched)?;
    Ok(loads.iter().enumerate().map(|(i, &l)| M::key(inst, i, l)).max().unwrap_or_else(M::zero_key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{Job, INF};
    use crate::schedule::{uniform_loads, unrelated_loads};

    #[test]
    fn generic_loads_match_the_per_model_evaluators() {
        let u = UniformInstance::new(
            vec![2, 1],
            vec![3, 5],
            vec![Job::new(0, 4), Job::new(1, 6), Job::new(0, 2)],
        )
        .unwrap();
        let sched = Schedule::new(vec![0, 1, 0]);
        assert_eq!(loads::<Uniform>(&u, &sched).unwrap(), uniform_loads(&u, &sched).unwrap());

        let r = UnrelatedInstance::new(
            2,
            vec![0, 0, 1],
            vec![vec![3, 9], vec![INF, 4], vec![5, 5]],
            vec![vec![1, 2], vec![7, INF]],
        )
        .unwrap();
        let sched = Schedule::new(vec![0, 1, 0]);
        assert_eq!(loads::<Unrelated>(&r, &sched).unwrap(), unrelated_loads(&r, &sched).unwrap());
        // The splittable integral view evaluates identically.
        assert_eq!(loads::<Splittable>(&r, &sched).unwrap(), unrelated_loads(&r, &sched).unwrap());
        // Infeasible placements error like the per-model evaluators.
        let bad = Schedule::new(vec![0, 0, 0]);
        assert_eq!(
            loads::<Unrelated>(&r, &bad).unwrap_err(),
            unrelated_loads(&r, &bad).unwrap_err()
        );
    }

    #[test]
    fn keys_order_like_the_model_arithmetic() {
        let u = UniformInstance::new(vec![2, 1], vec![0], vec![Job::new(0, 4)]).unwrap();
        // 5 work units on speed 2 (5/2) < 3 work units on speed 1 (3/1).
        assert!(Uniform::key(&u, 0, 5) < Uniform::key(&u, 1, 3));
        assert_eq!(Uniform::key_to_f64(Ratio::new(5, 2)), 2.5);
        assert_eq!(Unrelated::zero_key(), 0);
        assert_eq!(Splittable::KIND, "splittable");
        // Only the integer-keyed models' keys are their loads.
        assert_eq!(Unrelated::key_as_load(7), Some(7));
        assert_eq!(Splittable::key_as_load(7), Some(7));
        assert_eq!(Uniform::key_as_load(Uniform::key(&u, 1, 3)), None);
    }
}
