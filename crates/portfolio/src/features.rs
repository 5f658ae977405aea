//! Instance feature extraction — the selector's input.
//!
//! A thin, model-agnostic view over [`sst_core::stats`]: the handful of
//! structural measures the experiments showed to predict which algorithm
//! wins — size, setup weight relative to job work, machine skew (speed
//! spread or matrix heterogeneity), eligibility density, class skew, and
//! the three special-case structure flags of Section 3. The machine model
//! itself is a feature ([`ModelKind`]), so the selector and the win-rate
//! tracker treat "which environment is this" the same way they treat any
//! other structural property.

use sst_core::instance::{UniformInstance, UnrelatedInstance};
use sst_core::stats::{uniform_stats, unrelated_stats};

use crate::solver::ProblemInstance;

/// Which machine model an instance belongs to. Carried inside
/// [`Features`] so selection rules and win-rate families key on the model
/// without re-matching the instance enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Uniformly related machines (speeds, class setups).
    Uniform,
    /// Unrelated machines (full `p_ij` / `s_ik` matrices).
    Unrelated,
    /// The splittable model (unrelated data, divisible class workloads).
    Splittable,
}

impl ModelKind {
    /// The protocol `kind` tag of the model.
    pub fn as_str(self) -> &'static str {
        match self {
            ModelKind::Uniform => "uniform",
            ModelKind::Unrelated => "unrelated",
            ModelKind::Splittable => "splittable",
        }
    }
}

/// Structural features of an instance, uniform across the machine models.
#[derive(Debug, Clone, PartialEq)]
pub struct Features {
    /// The machine model.
    pub model: ModelKind,
    /// Number of jobs.
    pub n: usize,
    /// Number of machines.
    pub m: usize,
    /// Number of classes with at least one job.
    pub classes: usize,
    /// Mandatory setup work relative to job work (`> 1`: setups dominate,
    /// batching decides everything).
    pub setup_to_work: f64,
    /// Machine skew: `v_max / v_min` (uniform) or the worst per-job
    /// `max p_ij / min p_ij` over finite rows (unrelated). 1 = identical.
    pub skew: f64,
    /// Mean fraction of machines a job may run on (1.0 when dense).
    pub eligibility: f64,
    /// Largest share of jobs held by one class, in `[1/K, 1]`.
    pub class_concentration: f64,
    /// Restricted assignment (finite cells constant per job).
    pub restricted: bool,
    /// Class-uniform restrictions (Section 3.3.1 model).
    pub class_uniform_restrictions: bool,
    /// Class-uniform processing times (Section 3.3.2 model).
    pub class_uniform_ptimes: bool,
}

/// Features of a uniform instance.
pub(crate) fn uniform_features(inst: &UniformInstance) -> Features {
    let s = uniform_stats(inst);
    Features {
        model: ModelKind::Uniform,
        n: s.n,
        m: s.m,
        classes: s.nonempty_classes,
        setup_to_work: s.setup_to_work,
        skew: s.speed_spread,
        eligibility: 1.0,
        class_concentration: s.class_concentration,
        restricted: false,
        class_uniform_restrictions: false,
        class_uniform_ptimes: false,
    }
}

/// Features of an unrelated-shaped instance, tagged with the model it is
/// being served under (the splittable model shares the data layout).
pub(crate) fn unrelated_features(inst: &UnrelatedInstance, model: ModelKind) -> Features {
    let s = unrelated_stats(inst);
    let max_pop =
        inst.nonempty_classes().iter().map(|&k| inst.jobs_of_class(k).len()).max().unwrap_or(0);
    let (restricted, cur, cupt) = s.structure;
    Features {
        model,
        n: s.n,
        m: s.m,
        classes: s.nonempty_classes,
        setup_to_work: s.setup_to_work,
        skew: s.heterogeneity,
        eligibility: if s.m == 0 { 1.0 } else { s.mean_eligibility / s.m as f64 },
        class_concentration: if s.n == 0 { 0.0 } else { max_pop as f64 / s.n as f64 },
        restricted,
        class_uniform_restrictions: cur,
        class_uniform_ptimes: cupt,
    }
}

/// Computes [`Features`] in one pass over the instance statistics, routed
/// through the model's [`crate::model::ModelOps`] impl.
pub fn extract_features(inst: &ProblemInstance) -> Features {
    inst.ops().features()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SplittableInstance;
    use sst_core::instance::{Job, INF};

    #[test]
    fn uniform_features() {
        let inst = ProblemInstance::Uniform(
            UniformInstance::new(
                vec![1, 4],
                vec![10, 5],
                vec![Job::new(0, 10), Job::new(0, 10), Job::new(1, 20)],
            )
            .unwrap(),
        );
        let f = extract_features(&inst);
        assert_eq!(f.model, ModelKind::Uniform);
        assert_eq!((f.n, f.m, f.classes), (3, 2, 2));
        assert!((f.skew - 4.0).abs() < 1e-12);
        assert!((f.eligibility - 1.0).abs() < 1e-12);
        assert!((f.class_concentration - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn unrelated_structure_flags_flow_through() {
        let inst = ProblemInstance::Unrelated(
            UnrelatedInstance::new(
                2,
                vec![0, 1],
                vec![vec![4, INF], vec![6, 6]],
                vec![vec![1, 1], vec![2, 2]],
            )
            .unwrap(),
        );
        let f = extract_features(&inst);
        assert_eq!(f.model, ModelKind::Unrelated);
        assert!(f.restricted);
        assert!((f.eligibility - 0.75).abs() < 1e-12);
        assert!((f.class_concentration - 0.5).abs() < 1e-12);
    }

    #[test]
    fn splittable_instances_share_stats_but_carry_their_model() {
        let inner =
            UnrelatedInstance::new(2, vec![0, 0], vec![vec![4, 6], vec![4, 6]], vec![vec![1, 2]])
                .unwrap();
        let split =
            extract_features(&ProblemInstance::Splittable(SplittableInstance(inner.clone())));
        let unrel = extract_features(&ProblemInstance::Unrelated(inner));
        assert_eq!(split.model, ModelKind::Splittable);
        assert_eq!(split.model.as_str(), "splittable");
        assert!(split.class_uniform_ptimes);
        // Everything except the model tag matches the unrelated view.
        assert_eq!(Features { model: ModelKind::Unrelated, ..split }, unrel);
    }
}
