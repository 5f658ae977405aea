//! Schedule repair after instance deltas: the warm-start half of a
//! scheduling session.
//!
//! A session answers a delta request by *repairing* its incumbent instead
//! of recomputing it. [`repair_after_deltas`] keeps one live
//! [`LoadTracker`] repaired **in lockstep
//! with the whole delta batch** through the tracker's value-based
//! structural edits (`O(m)` per edit, plus `O(m)` per greedily
//! placed orphan — see the structural-edit section of
//! [`sst_core::tracker`]): incoming times are resolved from an *overlay*
//! of the delta payloads over the pre-batch instance (tracking the same
//! swap-remove renames the deltas apply), outgoing contributions come
//! from the tracker's own caches. The edited instance itself is built
//! **once** per batch ([`MachineModel::apply_deltas`]), so repairing a
//! `D`-edit batch costs `O(n·m + D·m)` — one reconstruction
//! plus per-edit repair — instead of `D` reconstructions.
//!
//! The result is a valid schedule on the post-delta instance that
//! perturbs the incumbent only where the deltas force it: new arrivals
//! and displaced jobs are re-placed by the setup-aware greedy rule,
//! everything else keeps its machine. This repaired incumbent is the
//! floor a warm re-solve races against, and the start the search
//! heuristics descend from.
//!
//! The splittable model repairs on its **integral sub-space** (the same
//! proxy the `split-refine` solver descends on); lifting the repaired
//! assignment back to fractional shares lives in the portfolio's session
//! layer, next to the split solvers.

use sst_core::delta::{DeltaError, InstanceDelta};
use sst_core::instance::{is_finite, ClassId, JobId, MachineId};
use sst_core::model::MachineModel;
use sst_core::schedule::Schedule;
use sst_core::tracker::LoadTracker;
use sst_core::ScheduleError;

/// Why a repair could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepairError {
    /// A delta failed to apply (see [`DeltaError`]).
    Delta(DeltaError),
    /// The starting schedule was invalid for the base instance.
    Schedule(ScheduleError),
    /// An edit left a job with no feasible machine at that point of the
    /// batch (batches must keep the instance schedulable at every prefix).
    Stranded {
        /// The job (by its id at that point of the batch) that could not
        /// be placed.
        job: JobId,
    },
}

impl std::fmt::Display for RepairError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepairError::Delta(e) => write!(f, "{e}"),
            RepairError::Schedule(e) => write!(f, "invalid start schedule: {e}"),
            RepairError::Stranded { job } => {
                write!(f, "delta batch leaves job {job} with no feasible machine")
            }
        }
    }
}

impl std::error::Error for RepairError {}

impl From<DeltaError> for RepairError {
    fn from(e: DeltaError) -> Self {
        RepairError::Delta(e)
    }
}

impl From<ScheduleError> for RepairError {
    fn from(e: ScheduleError) -> Self {
        RepairError::Schedule(e)
    }
}

/// Outcome of [`repair_after_deltas`].
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// The repaired schedule — valid on the post-delta instance.
    pub schedule: Schedule,
    /// Per-machine raw loads of the repaired tracker (bit-identical to a
    /// tracker freshly built from the post-delta instance and
    /// [`Self::schedule`] — pinned by the differential proptests).
    pub loads: Vec<u64>,
    /// Jobs that had to be (re-)placed greedily: arrivals plus evictions.
    pub placed: usize,
    /// Makespan of the repaired schedule as a lossy float (exact keys stay
    /// available through a tracker or the model evaluators).
    pub makespan: f64,
}

/// Where a job's per-machine times currently come from: the pre-batch
/// instance (by its pre-batch id) or a delta payload.
enum JobSrc {
    Base(usize),
    Payload(Vec<u64>),
}

/// Reads machine `i`'s entry of a delta `times` payload: a singleton
/// broadcasts (uniform payloads), otherwise per-machine; the `INF`
/// sentinel means infeasible.
#[inline]
fn payload_time(times: &[u64], i: MachineId) -> Option<u64> {
    let t = if times.len() == 1 { times[0] } else { times[i] };
    is_finite(t).then_some(t)
}

/// Payload-length validation, mirroring the per-model rule of the
/// `sst_core::delta` appliers: machine-independent models take singleton
/// payloads, the others take full per-machine rows. Enforced up front so
/// the standalone [`repair_schedule`] cannot silently interpret a payload
/// shape the model does not have.
fn check_times_len<M: MachineModel>(times: &[u64], m: usize) -> Result<(), RepairError> {
    let expected = if M::MACHINE_INDEPENDENT_TIMES { 1 } else { m };
    if times.len() == expected {
        Ok(())
    } else {
        Err(RepairError::Delta(DeltaError::WrongTimesLength { expected, got: times.len() }))
    }
}

/// Applies `deltas` to `base` (one batched instance rebuild,
/// [`MachineModel::apply_deltas`]) and repairs `start` alongside
/// ([`repair_schedule`]). Returns the post-delta instance and the
/// repaired schedule.
///
/// Fails — without partial effects visible to the caller — when a delta
/// is malformed for the instance shape, or when an edit strands a job
/// mid-batch (no feasible machine at that prefix of the sequence).
pub fn repair_after_deltas<M: MachineModel>(
    base: &M::Instance,
    start: &Schedule,
    deltas: &[InstanceDelta],
) -> Result<(M::Instance, RepairOutcome), RepairError> {
    let outcome = repair_schedule::<M>(base, start, deltas)?;
    let final_inst = M::apply_deltas(base, deltas)?;
    Ok((final_inst, outcome))
}

/// The schedule half of [`repair_after_deltas`]: repairs `start` through
/// the delta batch **without materializing the post-delta instance** —
/// the tracker's value-based structural edits resolve every incoming time
/// from the payload overlay, so this is pure schedule work:
/// `O(n + m + K)` to seat the tracker plus `O(m)` per edit,
/// independent of how much of the instance the deltas did *not* touch.
/// (The session layer pairs it with the one batched instance rebuild it
/// needs anyway to serve future requests.)
pub fn repair_schedule<M: MachineModel>(
    base: &M::Instance,
    start: &Schedule,
    deltas: &[InstanceDelta],
) -> Result<RepairOutcome, RepairError> {
    let m = M::m(base);
    let mut tracker = LoadTracker::<M>::new(base, start)?;
    // The payload overlay: per current job id / class id, where its times
    // come from. Swap-removed in lockstep with the deltas, so `Base(j0)`
    // entries keep pointing at the right pre-batch row through renames.
    let mut jobs: Vec<JobSrc> = (0..M::n(base)).map(JobSrc::Base).collect();
    let mut setups: Vec<Option<Vec<u64>>> = (0..M::num_classes(base)).map(|_| None).collect();
    let mut placed = 0usize;

    for delta in deltas {
        // One immutable view per edit for the accessor closures (the
        // tracker borrow is disjoint from the overlay borrows).
        let setup_of = |setups: &[Option<Vec<u64>>], k: ClassId, i: MachineId| -> Option<u64> {
            match &setups[k] {
                Some(times) => payload_time(times, i),
                None => M::setup_time(base, i, k),
            }
        };
        let job_time_of = |jobs: &[JobSrc], j: JobId, i: MachineId| -> Option<u64> {
            match &jobs[j] {
                JobSrc::Base(j0) => M::job_time(base, i, *j0),
                JobSrc::Payload(times) => payload_time(times, i),
            }
        };
        match delta {
            InstanceDelta::AddJob { class, times } => {
                check_times_len::<M>(times, m)?;
                if *class >= setups.len() {
                    return Err(DeltaError::ClassOutOfRange {
                        class: *class,
                        num_classes: setups.len(),
                    }
                    .into());
                }
                let j = jobs.len();
                tracker
                    .insert_job_greedy(*class, &|i| payload_time(times, i), &|i| {
                        setup_of(&setups, *class, i)
                    })
                    .ok_or(RepairError::Stranded { job: j })?;
                jobs.push(JobSrc::Payload(times.clone()));
                placed += 1;
            }
            InstanceDelta::RemoveJob { job } => {
                if *job >= jobs.len() {
                    return Err(DeltaError::JobOutOfRange { job: *job, n: jobs.len() }.into());
                }
                tracker.remove_job(*job);
                jobs.swap_remove(*job);
            }
            InstanceDelta::ResizeJob { job, times } => {
                check_times_len::<M>(times, m)?;
                if *job >= jobs.len() {
                    return Err(DeltaError::JobOutOfRange { job: *job, n: jobs.len() }.into());
                }
                let k = tracker.class_of_job(*job);
                let stayed = tracker
                    .retime_job(*job, &|i| payload_time(times, i), &|i| setup_of(&setups, k, i))
                    .ok_or(RepairError::Stranded { job: *job })?;
                jobs[*job] = JobSrc::Payload(times.clone());
                if !stayed {
                    placed += 1;
                }
            }
            InstanceDelta::ResizeSetup { class, times } => {
                check_times_len::<M>(times, m)?;
                if *class >= setups.len() {
                    return Err(DeltaError::ClassOutOfRange {
                        class: *class,
                        num_classes: setups.len(),
                    }
                    .into());
                }
                setups[*class] = Some(times.clone());
                placed += tracker
                    .retime_setup(*class, &|i| payload_time(times, i), &|j, i| {
                        job_time_of(&jobs, j, i)
                    })
                    .map_err(|job| RepairError::Stranded { job })?;
            }
            InstanceDelta::AddClass { times } => {
                check_times_len::<M>(times, m)?;
                setups.push(Some(times.clone()));
                tracker.add_class();
            }
        }
    }

    Ok(RepairOutcome {
        schedule: tracker.schedule(),
        loads: tracker.loads().to_vec(),
        placed,
        makespan: M::key_to_f64(tracker.makespan()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_core::instance::{Job, UniformInstance, UnrelatedInstance, INF};
    use sst_core::model::{makespan_key, Uniform, Unrelated};

    #[test]
    fn repair_tracks_the_delta_sequence_uniform() {
        let base = UniformInstance::new(
            vec![2, 1, 1],
            vec![3, 5],
            vec![Job::new(0, 4), Job::new(1, 6), Job::new(0, 2), Job::new(1, 9)],
        )
        .unwrap();
        let start = Schedule::new(vec![0, 1, 2, 0]);
        let deltas = vec![
            InstanceDelta::AddClass { times: vec![2] },
            InstanceDelta::AddJob { class: 2, times: vec![7] },
            InstanceDelta::RemoveJob { job: 1 },
            InstanceDelta::ResizeJob { job: 0, times: vec![10] },
            InstanceDelta::ResizeSetup { class: 0, times: vec![6] },
        ];
        let (inst, out) = repair_after_deltas::<Uniform>(&base, &start, &deltas).unwrap();
        assert_eq!(inst.n(), 4);
        assert_eq!(inst.num_classes(), 3);
        // Valid on the final instance, and the reported makespan matches
        // an exact re-evaluation.
        let key = makespan_key::<Uniform>(&inst, &out.schedule).expect("repaired schedule valid");
        assert_eq!(out.makespan, key.to_f64());
        assert_eq!(out.placed, 1, "one arrival placed, nothing evicted");
        // The repaired loads are the fresh-build loads.
        let fresh = sst_core::tracker::UniformLoadTracker::new(&inst, &out.schedule).unwrap();
        assert_eq!(out.loads, fresh.loads());
    }

    #[test]
    fn repair_places_orphans_of_infeasible_edits() {
        let base = UnrelatedInstance::new(
            2,
            vec![0, 0, 1],
            vec![vec![3, 9], vec![4, 4], vec![5, 5]],
            vec![vec![1, 2], vec![7, 3]],
        )
        .unwrap();
        let start = Schedule::new(vec![0, 0, 0]);
        // Class 1's setup becomes infinite on machine 0: job 2 must move.
        let deltas = vec![InstanceDelta::ResizeSetup { class: 1, times: vec![INF, 3] }];
        let (inst, out) = repair_after_deltas::<Unrelated>(&base, &start, &deltas).unwrap();
        assert_eq!(out.schedule.machine_of(2), 1);
        assert_eq!(out.placed, 1);
        assert!(makespan_key::<Unrelated>(&inst, &out.schedule).is_ok());
    }

    #[test]
    fn within_batch_dependencies_resolve_through_the_overlay() {
        // An added job is then resized, and a resized setup is read by a
        // later arrival — the repair must see payload values, not the
        // pre-batch instance.
        let base = UnrelatedInstance::new(2, vec![0], vec![vec![3, 9]], vec![vec![1, 2]]).unwrap();
        let start = Schedule::new(vec![0]);
        let deltas = vec![
            InstanceDelta::AddJob { class: 0, times: vec![5, 5] },
            InstanceDelta::ResizeJob { job: 1, times: vec![50, 1] },
            InstanceDelta::ResizeSetup { class: 0, times: vec![40, 2] },
            InstanceDelta::AddJob { class: 0, times: vec![6, 6] },
        ];
        let (inst, out) = repair_after_deltas::<Unrelated>(&base, &start, &deltas).unwrap();
        let fresh = sst_core::tracker::UnrelatedLoadTracker::new(&inst, &out.schedule).unwrap();
        assert_eq!(out.loads, fresh.loads());
        assert_eq!(out.makespan, fresh.makespan() as f64);
    }

    #[test]
    fn empty_delta_list_is_the_identity() {
        let base = UniformInstance::identical(2, vec![1], vec![Job::new(0, 3)]).unwrap();
        let start = Schedule::new(vec![1]);
        let (inst, out) = repair_after_deltas::<Uniform>(&base, &start, &[]).unwrap();
        assert_eq!(inst, base);
        assert_eq!(out.schedule, start);
        assert_eq!(out.placed, 0);
    }

    #[test]
    fn bad_inputs_error_cleanly() {
        let base = UniformInstance::identical(2, vec![1], vec![Job::new(0, 3)]).unwrap();
        let bad_start = Schedule::new(vec![0, 0]);
        assert!(matches!(
            repair_after_deltas::<Uniform>(&base, &bad_start, &[]),
            Err(RepairError::Schedule(_))
        ));
        let bad_delta = vec![InstanceDelta::RemoveJob { job: 9 }];
        assert!(matches!(
            repair_after_deltas::<Uniform>(&base, &Schedule::new(vec![0]), &bad_delta),
            Err(RepairError::Delta(DeltaError::JobOutOfRange { .. }))
        ));
        // An arrival feasible nowhere strands cleanly.
        let r = UnrelatedInstance::new(2, vec![0], vec![vec![3, 9]], vec![vec![1, INF]]).unwrap();
        let stranded = vec![InstanceDelta::AddJob { class: 0, times: vec![INF, 4] }];
        assert!(matches!(
            repair_after_deltas::<Unrelated>(&r, &Schedule::new(vec![0]), &stranded),
            Err(RepairError::Stranded { job: 1 })
        ));
    }
}
