//! Per-model behavior behind [`ProblemInstance`]:
//! the [`ModelOps`] trait.
//!
//! The portfolio crate used to thread `match` statements over the instance
//! enum through every layer (solver dispatch, feature extraction,
//! selection, the race floor). Those per-variant matches now live in
//! exactly one place — `ProblemInstance::ops` — and everything else goes
//! through this trait: what a machine model must provide to be *served* is
//! its protocol kind, shape, feature vector, greedy floor and exact
//! solution evaluation. Adding machine model number four is one
//! [`ModelOps`] impl (plus a `sst_core::model::MachineModel` impl for the
//! tracker/search layer) — not a fork of five layers.

use sst_algos::list::{greedy_uniform, greedy_unrelated};
use sst_algos::repair::repair_after_deltas;
use sst_algos::splittable::{
    split_from_assignment, split_greedy, splittable_feasible, SplitError, SplitSchedule,
};
use sst_core::delta::InstanceDelta;
use sst_core::instance::{UniformInstance, UnrelatedInstance};
use sst_core::model::{MachineModel, Splittable, Uniform, Unrelated};
use sst_core::schedule::{uniform_makespan, unrelated_makespan, Schedule};
use sst_core::ScheduleError;

use crate::features::{uniform_features, unrelated_features, Features, ModelKind};
use crate::solver::{Cost, Outcome, ProblemInstance};

/// An instance of the **splittable** machine model (Section 3.3's
/// substrate, Correa et al. \[5\]): the same data as an unrelated
/// instance, but a class's workload may be split across machines — every
/// machine processing a positive share pays the class's full setup. A
/// newtype rather than a bare [`UnrelatedInstance`] so the model (not just
/// the data) selects the [`ModelOps`] behavior.
#[derive(Debug, Clone, PartialEq)]
pub struct SplittableInstance(pub UnrelatedInstance);

impl SplittableInstance {
    /// Wraps `inner` if every nonempty class fits *whole* on some machine:
    /// the split model needs that, because a positive share pays the full
    /// setup, so per-job schedulability is not enough. The gate both
    /// instance decoders (JSON and packed) apply.
    pub fn new(inner: UnrelatedInstance) -> Result<Self, &'static str> {
        if splittable_feasible(&inner) {
            Ok(SplittableInstance(inner))
        } else {
            Err("splittable instance has a class with no machine able to host it whole")
        }
    }

    /// The shared unrelated-shaped instance data.
    #[inline]
    pub fn inner(&self) -> &UnrelatedInstance {
        &self.0
    }
}

/// A solution in the model's native solution space: a job→machine
/// assignment for the integral models, per-class fractional shares for the
/// splittable one.
#[derive(Debug, Clone, PartialEq)]
pub enum Solution {
    /// A job-granular assignment (uniform / unrelated machines).
    Assignment(Schedule),
    /// Per-class fractional shares (splittable machines).
    Split(SplitSchedule),
}

/// Why a solution could not be evaluated against an instance.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// An integral schedule failed validation.
    Schedule(ScheduleError),
    /// A split schedule failed validation.
    Split(SplitError),
    /// The solution's shape does not fit the model (e.g. shares offered to
    /// an integral model).
    WrongSolutionShape {
        /// The model kind that rejected the solution.
        kind: &'static str,
    },
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Schedule(e) => write!(f, "{e}"),
            EvalError::Split(e) => write!(f, "{e}"),
            EvalError::WrongSolutionShape { kind } => {
                write!(f, "solution shape does not fit the {kind} model")
            }
        }
    }
}

impl std::error::Error for EvalError {}

impl From<ScheduleError> for EvalError {
    fn from(e: ScheduleError) -> Self {
        EvalError::Schedule(e)
    }
}

impl From<SplitError> for EvalError {
    fn from(e: SplitError) -> Self {
        EvalError::Split(e)
    }
}

/// A session's repaired state after a delta batch (see
/// [`ModelOps::repair_deltas`]): the post-delta instance, the repaired
/// incumbent in the model's native solution space with its exact cost,
/// and — for the splittable model — the integral proxy assignment the
/// next repair starts from.
#[derive(Debug, Clone)]
pub struct Repaired {
    /// The post-delta instance.
    pub instance: ProblemInstance,
    /// The repaired incumbent — valid on [`Self::instance`].
    pub incumbent: Solution,
    /// Exact cost of [`Self::incumbent`].
    pub cost: Cost,
    /// Integral proxy assignment (splittable sessions repair on the
    /// integral sub-space and lift; `None` for the integral models, whose
    /// incumbent *is* the assignment).
    pub proxy: Option<Schedule>,
    /// Jobs the repair had to (re-)place greedily.
    pub placed: usize,
}

/// Everything the service layers need from a machine model, behind one
/// object-safe trait (see the [module docs](self)).
pub trait ModelOps: Sync {
    /// The protocol/file-format `kind` tag.
    fn kind(&self) -> &'static str;
    /// Number of jobs.
    fn n(&self) -> usize;
    /// Number of machines.
    fn m(&self) -> usize;
    /// Structural features — the selector's input.
    fn features(&self) -> Features;
    /// The model's greedy floor: cheap, always valid, pre-published as the
    /// quality floor of every race.
    fn greedy(&self) -> Outcome;
    /// Exact cost of a solution (validates first).
    fn evaluate(&self, sol: &Solution) -> Result<Cost, EvalError>;
    /// Applies a delta batch to this instance and *repairs* `incumbent`
    /// instead of recomputing it (tracker structural edits + greedy
    /// re-placement of orphans — see [`sst_algos::repair`]). `proxy` is
    /// the session's integral proxy for share-based models. Errors are
    /// protocol-ready messages (out-of-range ids, edits that leave the
    /// instance unservable).
    fn repair_deltas(
        &self,
        incumbent: &Solution,
        proxy: Option<&Schedule>,
        deltas: &[InstanceDelta],
    ) -> Result<Repaired, String>;
}

impl ModelOps for UniformInstance {
    fn kind(&self) -> &'static str {
        Uniform::KIND
    }
    fn n(&self) -> usize {
        UniformInstance::n(self)
    }
    fn m(&self) -> usize {
        UniformInstance::m(self)
    }
    fn features(&self) -> Features {
        uniform_features(self)
    }
    fn greedy(&self) -> Outcome {
        let schedule = greedy_uniform(self);
        let cost = Cost::Frac(uniform_makespan(self, &schedule).expect("greedy is valid"));
        Outcome { solution: Solution::Assignment(schedule), cost, complete: true }
    }
    fn evaluate(&self, sol: &Solution) -> Result<Cost, EvalError> {
        match sol {
            Solution::Assignment(s) => Ok(Cost::Frac(uniform_makespan(self, s)?)),
            Solution::Split(_) => Err(EvalError::WrongSolutionShape { kind: self.kind() }),
        }
    }
    fn repair_deltas(
        &self,
        incumbent: &Solution,
        _proxy: Option<&Schedule>,
        deltas: &[InstanceDelta],
    ) -> Result<Repaired, String> {
        let Solution::Assignment(start) = incumbent else {
            return Err("uniform session incumbent must be an assignment".into());
        };
        let (inst, out) =
            repair_after_deltas::<Uniform>(self, start, deltas).map_err(|e| e.to_string())?;
        let cost = Cost::Frac(
            uniform_makespan(&inst, &out.schedule).expect("repair keeps schedules valid"),
        );
        Ok(Repaired {
            instance: ProblemInstance::Uniform(inst),
            incumbent: Solution::Assignment(out.schedule),
            cost,
            proxy: None,
            placed: out.placed,
        })
    }
}

impl ModelOps for UnrelatedInstance {
    fn kind(&self) -> &'static str {
        Unrelated::KIND
    }
    fn n(&self) -> usize {
        UnrelatedInstance::n(self)
    }
    fn m(&self) -> usize {
        UnrelatedInstance::m(self)
    }
    fn features(&self) -> Features {
        unrelated_features(self, ModelKind::Unrelated)
    }
    fn greedy(&self) -> Outcome {
        let schedule = greedy_unrelated(self);
        let cost = Cost::Time(unrelated_makespan(self, &schedule).expect("greedy is valid"));
        Outcome { solution: Solution::Assignment(schedule), cost, complete: true }
    }
    fn evaluate(&self, sol: &Solution) -> Result<Cost, EvalError> {
        match sol {
            Solution::Assignment(s) => Ok(Cost::Time(unrelated_makespan(self, s)?)),
            Solution::Split(_) => Err(EvalError::WrongSolutionShape { kind: self.kind() }),
        }
    }
    fn repair_deltas(
        &self,
        incumbent: &Solution,
        _proxy: Option<&Schedule>,
        deltas: &[InstanceDelta],
    ) -> Result<Repaired, String> {
        let Solution::Assignment(start) = incumbent else {
            return Err("unrelated session incumbent must be an assignment".into());
        };
        let (inst, out) =
            repair_after_deltas::<Unrelated>(self, start, deltas).map_err(|e| e.to_string())?;
        let cost = Cost::Time(
            unrelated_makespan(&inst, &out.schedule).expect("repair keeps schedules valid"),
        );
        Ok(Repaired {
            instance: ProblemInstance::Unrelated(inst),
            incumbent: Solution::Assignment(out.schedule),
            cost,
            proxy: None,
            placed: out.placed,
        })
    }
}

impl ModelOps for SplittableInstance {
    fn kind(&self) -> &'static str {
        Splittable::KIND
    }
    fn n(&self) -> usize {
        self.0.n()
    }
    fn m(&self) -> usize {
        self.0.m()
    }
    fn features(&self) -> Features {
        unrelated_features(&self.0, ModelKind::Splittable)
    }
    fn greedy(&self) -> Outcome {
        let res = split_greedy(&self.0);
        Outcome {
            cost: Cost::Real(res.makespan),
            solution: Solution::Split(res.schedule),
            complete: true,
        }
    }
    fn evaluate(&self, sol: &Solution) -> Result<Cost, EvalError> {
        match sol {
            Solution::Split(s) => {
                s.validate(&self.0)?;
                Ok(Cost::Real(s.makespan(&self.0)))
            }
            Solution::Assignment(_) => Err(EvalError::WrongSolutionShape { kind: self.kind() }),
        }
    }
    fn repair_deltas(
        &self,
        _incumbent: &Solution,
        proxy: Option<&Schedule>,
        deltas: &[InstanceDelta],
    ) -> Result<Repaired, String> {
        // Splittable sessions repair on the integral sub-space (the same
        // proxy the split-refine descent walks), then lift to shares.
        let fallback;
        let start = match proxy {
            Some(s) => s,
            None => {
                fallback = greedy_unrelated(&self.0);
                &fallback
            }
        };
        let (inner, out) =
            repair_after_deltas::<Splittable>(&self.0, start, deltas).map_err(|e| e.to_string())?;
        if !splittable_feasible(&inner) {
            return Err(
                "deltas left a class no machine can host whole (splittable model)".to_string()
            );
        }
        // Lift the repaired proxy; outside the Section 3.3 structures the
        // lift may not validate — the whole-class greedy then floors the
        // repaired incumbent, and either way the better of the two wins.
        let greedy = split_greedy(&inner);
        let lifted = split_from_assignment(&inner, &out.schedule);
        let (schedule, makespan) = match lifted.validate(&inner) {
            Ok(()) => {
                let lm = lifted.makespan(&inner);
                if lm <= greedy.makespan {
                    (lifted, lm)
                } else {
                    (greedy.schedule, greedy.makespan)
                }
            }
            Err(_) => (greedy.schedule, greedy.makespan),
        };
        Ok(Repaired {
            instance: ProblemInstance::Splittable(SplittableInstance(inner)),
            incumbent: Solution::Split(schedule),
            cost: Cost::Real(makespan),
            proxy: Some(out.schedule),
            placed: out.placed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_core::instance::Job;

    #[test]
    fn every_model_floors_with_a_valid_self_consistent_greedy() {
        let u =
            UniformInstance::identical(2, vec![2], vec![Job::new(0, 5), Job::new(0, 3)]).unwrap();
        let r = UnrelatedInstance::new(
            2,
            vec![0, 1],
            vec![vec![3, 5], vec![4, 2]],
            vec![vec![1, 1], vec![2, 2]],
        )
        .unwrap();
        let s = SplittableInstance(r.clone());
        let models: [&dyn ModelOps; 3] = [&u, &r, &s];
        for model in models {
            let out = model.greedy();
            let reval = model.evaluate(&out.solution).expect("greedy is valid");
            assert_eq!(reval, out.cost, "{}", model.kind());
        }
        assert_eq!(u.kind(), "uniform");
        assert_eq!(r.kind(), "unrelated");
        assert_eq!(s.kind(), "splittable");
    }

    #[test]
    fn shape_mismatches_are_rejected_not_miscosted() {
        let r = UnrelatedInstance::new(2, vec![0], vec![vec![3, 5]], vec![vec![1, 1]]).unwrap();
        let s = SplittableInstance(r.clone());
        let split_sol = s.greedy().solution;
        let integral_sol = r.greedy().solution;
        assert!(matches!(
            r.evaluate(&split_sol),
            Err(EvalError::WrongSolutionShape { kind: "unrelated" })
        ));
        assert!(matches!(
            s.evaluate(&integral_sol),
            Err(EvalError::WrongSolutionShape { kind: "splittable" })
        ));
    }
}
