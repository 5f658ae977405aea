//! Instance deltas: the small edits dynamic traffic applies to a known
//! instance — jobs arriving, finishing or changing size, setups being
//! re-measured, new classes appearing.
//!
//! A scheduling *session* (see the portfolio crate's session protocol)
//! keeps an instance alive across requests and mutates it with
//! [`InstanceDelta`]s instead of re-shipping the whole instance. One delta
//! vocabulary covers every machine model: the per-model payload is the
//! `times` vector — one machine-independent entry for uniform machines, a
//! full per-machine row for unrelated (and splittable) ones — and
//! [`crate::model::MachineModel::apply_delta`] routes each model to its
//! applier, so the session layer never matches on the model.
//!
//! ## Job-id semantics
//!
//! [`InstanceDelta::RemoveJob`] uses **swap-remove** semantics: the last
//! job takes the removed job's id, exactly like `Vec::swap_remove`. This
//! keeps ids dense (every id in `0..n` stays a job) at the cost of one
//! rename per removal — callers replaying a delta sequence (the tracker
//! repair in [`crate::tracker`], the oracle in the differential proptests)
//! apply the same rename and stay in lockstep. [`InstanceDelta::AddJob`]
//! appends: the new job's id is the *post-delta* `n - 1`.
//!
//! Application goes through the normal validating constructors, so a delta
//! can never produce an invalid in-memory instance: removing the last
//! finite machine of a job, for example, is rejected as
//! [`DeltaError::Invalid`] and the pre-delta instance stays untouched
//! (appliers take `&Instance` and return a new one).

use crate::error::InstanceError;
use crate::instance::{ClassId, Job, JobId, UniformInstance, UnrelatedInstance};
use crate::io::json::{self, Parser};
use crate::io::IoError;

/// One structural edit to an instance. `times` payloads are
/// machine-independent singletons (`len == 1`) for uniform instances and
/// per-machine rows (`len == m`) for unrelated/splittable ones; the wrong
/// length is a [`DeltaError::WrongTimesLength`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceDelta {
    /// A job arrives: appended with id `n` (post-delta `n - 1`).
    AddJob {
        /// Setup class of the new job.
        class: ClassId,
        /// Size (uniform) or `p_ij` row (unrelated).
        times: Vec<u64>,
    },
    /// A job finishes or is cancelled (swap-remove: the last job takes
    /// this id).
    RemoveJob {
        /// Id of the removed job.
        job: JobId,
    },
    /// A job's size / processing-time row is re-estimated.
    ResizeJob {
        /// Id of the resized job.
        job: JobId,
        /// New size (uniform) or `p_ij` row (unrelated).
        times: Vec<u64>,
    },
    /// A class's setup size / setup-time row changes.
    ResizeSetup {
        /// Id of the resized class.
        class: ClassId,
        /// New setup size (uniform) or `s_ik` row (unrelated).
        times: Vec<u64>,
    },
    /// A new (initially empty) setup class appears with id `K`.
    AddClass {
        /// Setup size (uniform) or `s_ik` row (unrelated).
        times: Vec<u64>,
    },
}

/// Why a delta could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The delta names a job id outside `0..n`.
    JobOutOfRange {
        /// Offending job id.
        job: JobId,
        /// Current number of jobs.
        n: usize,
    },
    /// The delta names a class id outside `0..K`.
    ClassOutOfRange {
        /// Offending class id.
        class: ClassId,
        /// Current number of classes.
        num_classes: usize,
    },
    /// The `times` payload has the wrong length for the model.
    WrongTimesLength {
        /// Expected length (1 for uniform, `m` for unrelated).
        expected: usize,
        /// Provided length.
        got: usize,
    },
    /// The edited instance failed validation (e.g. a job left with no
    /// finite machine).
    Invalid(InstanceError),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::JobOutOfRange { job, n } => {
                write!(f, "delta names job {job} but the instance has {n} jobs")
            }
            DeltaError::ClassOutOfRange { class, num_classes } => {
                write!(f, "delta names class {class} but the instance has {num_classes} classes")
            }
            DeltaError::WrongTimesLength { expected, got } => {
                write!(f, "delta times payload must have {expected} entries, got {got}")
            }
            DeltaError::Invalid(e) => write!(f, "delta produces an invalid instance: {e}"),
        }
    }
}

impl std::error::Error for DeltaError {}

fn expect_len(times: &[u64], expected: usize) -> Result<(), DeltaError> {
    if times.len() == expected {
        Ok(())
    } else {
        Err(DeltaError::WrongTimesLength { expected, got: times.len() })
    }
}

fn check_job(job: JobId, n: usize) -> Result<(), DeltaError> {
    if job < n {
        Ok(())
    } else {
        Err(DeltaError::JobOutOfRange { job, n })
    }
}

fn check_class(class: ClassId, num_classes: usize) -> Result<(), DeltaError> {
    if class < num_classes {
        Ok(())
    } else {
        Err(DeltaError::ClassOutOfRange { class, num_classes })
    }
}

fn edit_uniform(
    setups: &mut Vec<u64>,
    jobs: &mut Vec<Job>,
    delta: &InstanceDelta,
) -> Result<(), DeltaError> {
    match delta {
        InstanceDelta::AddJob { class, times } => {
            expect_len(times, 1)?;
            check_class(*class, setups.len())?;
            jobs.push(Job::new(*class, times[0]));
        }
        InstanceDelta::RemoveJob { job } => {
            check_job(*job, jobs.len())?;
            jobs.swap_remove(*job);
        }
        InstanceDelta::ResizeJob { job, times } => {
            expect_len(times, 1)?;
            check_job(*job, jobs.len())?;
            jobs[*job].size = times[0];
        }
        InstanceDelta::ResizeSetup { class, times } => {
            expect_len(times, 1)?;
            check_class(*class, setups.len())?;
            setups[*class] = times[0];
        }
        InstanceDelta::AddClass { times } => {
            expect_len(times, 1)?;
            setups.push(times[0]);
        }
    }
    Ok(())
}

/// Applies one delta to a uniform instance, returning the edited instance
/// (re-validated through [`UniformInstance::new`]).
pub fn apply_uniform(
    inst: &UniformInstance,
    delta: &InstanceDelta,
) -> Result<UniformInstance, DeltaError> {
    apply_uniform_all(inst, std::slice::from_ref(delta))
}

/// Applies a whole delta batch to a uniform instance with **one**
/// decompose/rebuild: per-edit work is `O(1)`, the `O(n + m + K)`
/// reconstruction (and its validation) is paid once for the batch.
/// Id/length checks still run per edit against the evolving shape.
pub fn apply_uniform_all(
    inst: &UniformInstance,
    deltas: &[InstanceDelta],
) -> Result<UniformInstance, DeltaError> {
    let mut setups = inst.setups().to_vec();
    let mut jobs = inst.jobs().to_vec();
    for delta in deltas {
        edit_uniform(&mut setups, &mut jobs, delta)?;
    }
    UniformInstance::new(inst.speeds().to_vec(), setups, jobs).map_err(DeltaError::Invalid)
}

fn edit_unrelated(
    m: usize,
    job_class: &mut Vec<ClassId>,
    ptimes: &mut Vec<u64>,
    setups: &mut Vec<u64>,
    delta: &InstanceDelta,
) -> Result<(), DeltaError> {
    let n = job_class.len();
    let kk = setups.len() / m;
    match delta {
        InstanceDelta::AddJob { class, times } => {
            expect_len(times, m)?;
            check_class(*class, kk)?;
            job_class.push(*class);
            ptimes.extend_from_slice(times);
        }
        InstanceDelta::RemoveJob { job } => {
            check_job(*job, n)?;
            job_class.swap_remove(*job);
            if *job + 1 < n {
                ptimes.copy_within((n - 1) * m..n * m, *job * m);
            }
            ptimes.truncate((n - 1) * m);
        }
        InstanceDelta::ResizeJob { job, times } => {
            expect_len(times, m)?;
            check_job(*job, n)?;
            ptimes[*job * m..(*job + 1) * m].copy_from_slice(times);
        }
        InstanceDelta::ResizeSetup { class, times } => {
            expect_len(times, m)?;
            check_class(*class, kk)?;
            setups[*class * m..(*class + 1) * m].copy_from_slice(times);
        }
        InstanceDelta::AddClass { times } => {
            expect_len(times, m)?;
            setups.extend_from_slice(times);
        }
    }
    Ok(())
}

/// Applies one delta to an unrelated-shaped instance (also the splittable
/// model's data), returning the edited instance (re-validated through
/// [`UnrelatedInstance::from_flat`]).
pub fn apply_unrelated(
    inst: &UnrelatedInstance,
    delta: &InstanceDelta,
) -> Result<UnrelatedInstance, DeltaError> {
    apply_unrelated_all(inst, std::slice::from_ref(delta))
}

/// Applies a whole delta batch to an unrelated-shaped instance with
/// **one** decompose/rebuild (see [`apply_uniform_all`]): per-edit work is
/// `O(m)` row copies, and the `O(n·m)` reconstruction — including the
/// class and eligibility index tables and the unschedulable-job check —
/// is paid once for the batch, not once per edit. Schedulability is
/// therefore validated on the **final** state; a batch may pass through
/// transiently-unschedulable intermediate states as long as the end state
/// is valid (per-edit application via [`apply_unrelated`] rejects such
/// states instead).
pub fn apply_unrelated_all(
    inst: &UnrelatedInstance,
    deltas: &[InstanceDelta],
) -> Result<UnrelatedInstance, DeltaError> {
    let m = inst.m();
    let n = inst.n();
    let kk = inst.num_classes();
    let mut job_class: Vec<ClassId> = inst.job_classes().to_vec();
    let mut ptimes: Vec<u64> = Vec::with_capacity((n + 1) * m);
    for j in 0..n {
        ptimes.extend_from_slice(inst.ptimes_row(j));
    }
    let mut setups: Vec<u64> = Vec::with_capacity((kk + 1) * m);
    for k in 0..kk {
        setups.extend_from_slice(inst.setups_row(k));
    }
    for delta in deltas {
        edit_unrelated(m, &mut job_class, &mut ptimes, &mut setups, delta)?;
    }
    UnrelatedInstance::from_flat(m, job_class, ptimes, setups).map_err(DeltaError::Invalid)
}

// The JSON codec for deltas — the wire format of the session protocol's
// `delta` verb and the `dynamic-queue` trace files of `sst-gen`:
// `{"add_job": {"class": K, "times": [..]}}`, `{"remove_job": J}`,
// `{"resize_job": {"job": J, "times": [..]}}`,
// `{"resize_setup": {"class": K, "times": [..]}}`,
// `{"add_class": {"times": [..]}}`.

/// Serializes one delta to a compact JSON object.
pub fn delta_to_json(delta: &InstanceDelta) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let with_times = |out: &mut String, head: String, times: &[u64]| {
        out.push_str(&head);
        json::write_u64_array(out, times);
        out.push_str("}}");
    };
    match delta {
        InstanceDelta::AddJob { class, times } => {
            with_times(
                &mut out,
                format!("{{\"add_job\": {{\"class\": {class}, \"times\": "),
                times,
            );
        }
        InstanceDelta::RemoveJob { job } => {
            let _ = write!(out, "{{\"remove_job\": {job}}}");
        }
        InstanceDelta::ResizeJob { job, times } => {
            with_times(&mut out, format!("{{\"resize_job\": {{\"job\": {job}, \"times\": "), times);
        }
        InstanceDelta::ResizeSetup { class, times } => with_times(
            &mut out,
            format!("{{\"resize_setup\": {{\"class\": {class}, \"times\": "),
            times,
        ),
        InstanceDelta::AddClass { times } => {
            with_times(&mut out, "{\"add_class\": {\"times\": ".to_string(), times);
        }
    }
    out
}

/// Serializes a delta sequence to a compact JSON array.
pub fn deltas_to_json(deltas: &[InstanceDelta]) -> String {
    let mut out = String::from("[");
    for (i, d) in deltas.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&delta_to_json(d));
    }
    out.push(']');
    out
}

fn id_at(v: Option<Parser<'_>>, what: &str) -> Result<usize, IoError> {
    let mut p = v.ok_or_else(|| IoError::Json(format!("delta missing '{what}'")))?;
    let id = p.u64().ok_or_else(|| {
        IoError::Json(format!("delta field '{what}' must be an unsigned integer"))
    })?;
    usize::try_from(id).map_err(|_| IoError::Json(format!("delta field '{what}' out of range")))
}

fn times_at(v: Option<Parser<'_>>) -> Result<Vec<u64>, IoError> {
    let mut times = Vec::new();
    v.and_then(|mut p| p.u64_array_into(&mut times)).ok_or_else(|| {
        IoError::Json("delta 'times' must be an array of unsigned integers".into())
    })?;
    Ok(times)
}

/// Reads the delta at `p`. An object naming several edits decodes as the
/// first of `remove_job`, `add_job`, `resize_job`, `resize_setup`,
/// `add_class`; an edit other than `remove_job` whose payload is not an
/// object is passed over.
pub fn delta_at<'a>(mut p: Parser<'a>) -> Result<InstanceDelta, IoError> {
    let [remove_job, add_job, resize_job, resize_setup, add_class] = p
        .fields(["remove_job", "add_job", "resize_job", "resize_setup", "add_class"])
        .map_err(IoError::Json)?
        .ok_or_else(|| IoError::Json("delta must be a JSON object".into()))?;
    if remove_job.is_some() {
        return Ok(InstanceDelta::RemoveJob { job: id_at(remove_job, "remove_job")? });
    }
    let payload =
        |v: Option<Parser<'a>>| v.and_then(|mut p| p.fields(["class", "job", "times"]).ok()?);
    Ok(if let Some([class, _, times]) = payload(add_job) {
        InstanceDelta::AddJob { class: id_at(class, "class")?, times: times_at(times)? }
    } else if let Some([_, job, times]) = payload(resize_job) {
        InstanceDelta::ResizeJob { job: id_at(job, "job")?, times: times_at(times)? }
    } else if let Some([class, _, times]) = payload(resize_setup) {
        InstanceDelta::ResizeSetup { class: id_at(class, "class")?, times: times_at(times)? }
    } else if let Some([.., times]) = payload(add_class) {
        InstanceDelta::AddClass { times: times_at(times)? }
    } else {
        return Err(IoError::Json(
            "delta must be one of add_job | remove_job | resize_job | resize_setup | add_class"
                .into(),
        ));
    })
}

/// Reads the delta array at `p`.
pub fn deltas_at(mut p: Parser<'_>) -> Result<Vec<InstanceDelta>, IoError> {
    let items = p.items().map_err(IoError::Json)?;
    items
        .ok_or_else(|| IoError::Json("'deltas' must be an array".into()))?
        .into_iter()
        .map(delta_at)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::INF;

    fn uniform_fixture() -> UniformInstance {
        UniformInstance::new(
            vec![2, 1],
            vec![3, 5],
            vec![Job::new(0, 4), Job::new(1, 6), Job::new(0, 2)],
        )
        .unwrap()
    }

    fn unrelated_fixture() -> UnrelatedInstance {
        UnrelatedInstance::new(
            2,
            vec![0, 0, 1],
            vec![vec![3, 9], vec![INF, 4], vec![5, 5]],
            vec![vec![1, 2], vec![7, INF]],
        )
        .unwrap()
    }

    #[test]
    fn uniform_add_remove_resize() {
        let inst = uniform_fixture();
        let added =
            apply_uniform(&inst, &InstanceDelta::AddJob { class: 1, times: vec![9] }).unwrap();
        assert_eq!(added.n(), 4);
        assert_eq!(added.job(3), Job::new(1, 9));

        // Swap-remove: job 2 takes id 0.
        let removed = apply_uniform(&inst, &InstanceDelta::RemoveJob { job: 0 }).unwrap();
        assert_eq!(removed.n(), 2);
        assert_eq!(removed.job(0), Job::new(0, 2));
        assert_eq!(removed.job(1), Job::new(1, 6));

        let resized =
            apply_uniform(&inst, &InstanceDelta::ResizeJob { job: 1, times: vec![11] }).unwrap();
        assert_eq!(resized.job(1), Job::new(1, 11));

        let setup =
            apply_uniform(&inst, &InstanceDelta::ResizeSetup { class: 0, times: vec![8] }).unwrap();
        assert_eq!(setup.setup(0), 8);

        let grown = apply_uniform(&inst, &InstanceDelta::AddClass { times: vec![4] }).unwrap();
        assert_eq!(grown.num_classes(), 3);
        assert_eq!(grown.setup(2), 4);
        assert!(grown.jobs_of_class(2).is_empty());
    }

    #[test]
    fn unrelated_add_remove_resize() {
        let inst = unrelated_fixture();
        let added =
            apply_unrelated(&inst, &InstanceDelta::AddJob { class: 0, times: vec![2, 7] }).unwrap();
        assert_eq!(added.n(), 4);
        assert_eq!(added.ptimes_row(3), &[2, 7]);
        assert_eq!(added.class_of(3), 0);

        // Swap-remove: job 2's row lands at id 0.
        let removed = apply_unrelated(&inst, &InstanceDelta::RemoveJob { job: 0 }).unwrap();
        assert_eq!(removed.n(), 2);
        assert_eq!(removed.ptimes_row(0), &[5, 5]);
        assert_eq!(removed.class_of(0), 1);

        let setup =
            apply_unrelated(&inst, &InstanceDelta::ResizeSetup { class: 1, times: vec![2, 3] })
                .unwrap();
        assert_eq!(setup.setups_row(1), &[2, 3]);

        let grown = apply_unrelated(&inst, &InstanceDelta::AddClass { times: vec![4, 4] }).unwrap();
        assert_eq!(grown.num_classes(), 3);
    }

    #[test]
    fn invalid_deltas_are_rejected_without_mutation() {
        let inst = unrelated_fixture();
        assert!(matches!(
            apply_unrelated(&inst, &InstanceDelta::RemoveJob { job: 9 }),
            Err(DeltaError::JobOutOfRange { job: 9, n: 3 })
        ));
        assert!(matches!(
            apply_unrelated(&inst, &InstanceDelta::AddJob { class: 7, times: vec![1, 1] }),
            Err(DeltaError::ClassOutOfRange { class: 7, .. })
        ));
        assert!(matches!(
            apply_unrelated(&inst, &InstanceDelta::AddJob { class: 0, times: vec![1] }),
            Err(DeltaError::WrongTimesLength { expected: 2, got: 1 })
        ));
        // Resizing job 0 to all-INF leaves it unschedulable: rejected by
        // the validating constructor, original untouched.
        assert!(matches!(
            apply_unrelated(&inst, &InstanceDelta::ResizeJob { job: 0, times: vec![INF, INF] }),
            Err(DeltaError::Invalid(InstanceError::UnschedulableJob { job: 0 }))
        ));
        assert_eq!(inst, unrelated_fixture());

        let u = uniform_fixture();
        assert!(matches!(
            apply_uniform(&u, &InstanceDelta::AddJob { class: 0, times: vec![1, 2] }),
            Err(DeltaError::WrongTimesLength { expected: 1, got: 2 })
        ));
    }

    #[test]
    fn delta_json_roundtrip() {
        let deltas = vec![
            InstanceDelta::AddJob { class: 2, times: vec![3, 4, 5] },
            InstanceDelta::RemoveJob { job: 7 },
            InstanceDelta::ResizeJob { job: 1, times: vec![9] },
            InstanceDelta::ResizeSetup { class: 0, times: vec![1, 2, 3] },
            InstanceDelta::AddClass { times: vec![6] },
        ];
        let text = deltas_to_json(&deltas);
        assert!(!text.contains('\n'));
        assert_eq!(deltas_at(Parser::new(&text)).unwrap(), deltas);
        assert!(delta_at(Parser::new("{\"nope\": 1}")).is_err());
    }
}
