//! The unifying [`Solver`] trait and its implementations over `sst-algos`.
//!
//! A solver receives a [`ProblemInstance`] (any machine model), a
//! [`SolveContext`] carrying the request's cancellation token, a seed and
//! the shared race [`Incumbent`], and returns an
//! [`Outcome`] — a valid [`Solution`] in the model's native solution space
//! plus its exactly evaluated [`Cost`]. Every implementation is *anytime*:
//! once the token fires it returns its best-so-far solution within one
//! check interval (the iterative solvers poll the token in their hot
//! loops; the one-shot constructions are only offered by the selector at
//! sizes where they complete in microseconds to a few milliseconds).
//!
//! Model dispatch goes through [`crate::model::ModelOps`] — the instance
//! enum is matched in exactly one place ([`ProblemInstance::ops`]); the
//! per-model algorithm bodies below are the genuinely model-specific part
//! (which algorithm applies), not duplicated plumbing.

use sst_algos::annealing::{anneal_budgeted, AnnealConfig};
use sst_algos::cupt::solve_class_uniform_ptimes;
use sst_algos::exact::{exact_uniform_budgeted, exact_unrelated_budgeted};
use sst_algos::list::greedy_unrelated;
use sst_algos::local_search::improve_budgeted;
use sst_algos::lpt::lpt_with_setups_makespan;
use sst_algos::multifit::multifit_uniform;
use sst_algos::ptas::{ptas_uniform_budgeted, PtasConfig};
use sst_algos::ra::solve_ra_class_uniform;
use sst_algos::rounding::{solve_unrelated_randomized_budgeted, RoundingConfig};
use sst_algos::splittable::{
    solve_splittable_class_uniform_ptimes, solve_splittable_ra_class_uniform, split_from_assignment,
};
use sst_core::cancel::CancelToken;
use sst_core::instance::{UniformInstance, UnrelatedInstance};
use sst_core::model::{Splittable, Uniform, Unrelated};
use sst_core::ratio::Ratio;
use sst_core::schedule::Schedule;

use crate::features::{Features, ModelKind};
use crate::model::{EvalError, ModelOps, Solution, SplittableInstance};
use crate::race::Incumbent;

/// An instance of any machine model — the unit of work of the service.
#[derive(Debug, Clone, PartialEq)]
pub enum ProblemInstance {
    /// Uniformly related machines (speeds, class setups).
    Uniform(UniformInstance),
    /// Unrelated machines (full `p_ij` / `s_ik` matrices, `∞` allowed).
    Unrelated(UnrelatedInstance),
    /// The splittable model (Section 3.3's substrate): unrelated data,
    /// class workloads divisible across machines, full setup per share.
    Splittable(SplittableInstance),
}

impl ProblemInstance {
    /// The model behavior of this instance — the **only** place the
    /// variant is matched; every other layer goes through
    /// [`ModelOps`].
    pub fn ops(&self) -> &dyn ModelOps {
        match self {
            ProblemInstance::Uniform(i) => i,
            ProblemInstance::Unrelated(i) => i,
            ProblemInstance::Splittable(i) => i,
        }
    }

    /// Number of jobs.
    pub fn n(&self) -> usize {
        self.ops().n()
    }

    /// Number of machines.
    pub fn m(&self) -> usize {
        self.ops().m()
    }

    /// `"uniform"`, `"unrelated"` or `"splittable"` — the protocol's
    /// `kind` tag.
    pub fn kind(&self) -> &'static str {
        self.ops().kind()
    }

    /// Exact cost of a solution for this instance (validates first).
    pub fn evaluate(&self, sol: &Solution) -> Result<Cost, EvalError> {
        self.ops().evaluate(sol)
    }

    /// The model's greedy baseline — cheap, always valid, and the quality
    /// floor of every race.
    pub fn greedy(&self) -> Outcome {
        self.ops().greedy()
    }
}

/// A makespan in the model's native arithmetic: exact integer time for
/// unrelated machines, an exact rational for uniform machines (where the
/// makespan is `work / speed`), a float for the splittable model (whose
/// shares come from an LP).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cost {
    /// Unrelated-machines makespan (time units).
    Time(u64),
    /// Uniform-machines makespan (`work / speed`).
    Frac(Ratio),
    /// Splittable-model makespan (fractional shares).
    Real(f64),
}

impl Cost {
    /// Lossy float view (display, cross-family comparisons).
    pub fn to_f64(&self) -> f64 {
        match self {
            Cost::Time(t) => *t as f64,
            Cost::Frac(r) => r.to_f64(),
            Cost::Real(x) => *x,
        }
    }

    /// Strict improvement test. Costs of the same variant compare exactly;
    /// mixed variants (which never race each other) fall back to floats.
    pub fn better_than(&self, other: &Cost) -> bool {
        match (self, other) {
            (Cost::Time(a), Cost::Time(b)) => a < b,
            (Cost::Frac(a), Cost::Frac(b)) => a < b,
            _ => self.to_f64() < other.to_f64(),
        }
    }
}

impl std::fmt::Display for Cost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cost::Time(t) => write!(f, "{t}"),
            Cost::Frac(r) => write!(f, "{r}"),
            Cost::Real(x) => write!(f, "{x}"),
        }
    }
}

/// What a solver hands back: a valid solution, its exact cost, and whether
/// the solver ran to natural completion (vs. being cut off by the deadline
/// or a node limit).
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The produced solution (always valid for the instance).
    pub solution: Solution,
    /// Exactly evaluated makespan of [`Self::solution`].
    pub cost: Cost,
    /// False when the deadline or a resource limit cut the run short.
    pub complete: bool,
}

/// Per-run context shared by all solvers of one race.
pub struct SolveContext<'a> {
    /// Deadline/cancellation token of the request.
    pub cancel: &'a CancelToken,
    /// Seed for the randomized solvers (derived per portfolio slot).
    pub seed: u64,
    /// The race's shared incumbent: read it to warm-start, rely on the
    /// racer to publish results back.
    pub incumbent: &'a Incumbent,
}

/// A portfolio member: one algorithm, wrapped to be raceable.
pub trait Solver: Sync {
    /// Stable name used in responses and reports.
    fn name(&self) -> &'static str;

    /// Whether this solver applies to (and is worth running on) an
    /// instance with these features. `solve` on an unsupported instance
    /// returns `None`.
    fn supports(&self, feat: &Features) -> bool;

    /// Runs the algorithm. Returns `None` when the instance is out of this
    /// solver's domain; otherwise the solution is valid and exactly costed.
    fn solve(&self, inst: &ProblemInstance, ctx: &SolveContext<'_>) -> Option<Outcome>;
}

/// Node budget for the exact solvers inside a race: enough to close small
/// instances, bounded so the cancel polls stay the effective limit.
const EXACT_NODE_LIMIT: u64 = 1 << 26;

/// Warm start for the integral search heuristics: the incumbent's
/// assignment when one exists (cross-seeding), the setup-aware greedy
/// otherwise. Only the integral models call this, so the greedy outcome is
/// always an assignment.
fn warm_start(inst: &ProblemInstance, ctx: &SolveContext<'_>) -> Schedule {
    if let Some((Solution::Assignment(sched), _)) = ctx.incumbent.snapshot() {
        if sched.n() == inst.n() {
            return sched;
        }
    }
    match inst.greedy().solution {
        Solution::Assignment(s) => s,
        Solution::Split(_) => unreachable!("integral models floor with assignments"),
    }
}

/// The model's greedy floor (every model) — also the portfolio's floor.
pub struct GreedySolver;

impl Solver for GreedySolver {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn supports(&self, _feat: &Features) -> bool {
        true
    }

    fn solve(&self, inst: &ProblemInstance, _ctx: &SolveContext<'_>) -> Option<Outcome> {
        Some(inst.greedy())
    }
}

/// LPT with batched setups (Lemma 2.1, uniform machines, ≤ 4.74·Opt).
pub struct LptSolver;

impl Solver for LptSolver {
    fn name(&self) -> &'static str {
        "lpt"
    }

    fn supports(&self, feat: &Features) -> bool {
        feat.model == ModelKind::Uniform
    }

    fn solve(&self, inst: &ProblemInstance, _ctx: &SolveContext<'_>) -> Option<Outcome> {
        let ProblemInstance::Uniform(u) = inst else { return None };
        let (schedule, ms) = lpt_with_setups_makespan(u);
        Some(Outcome {
            solution: Solution::Assignment(schedule),
            cost: Cost::Frac(ms),
            complete: true,
        })
    }
}

/// MULTIFIT/FFD (uniform machines) — strong when setups are heavy.
pub struct MultifitSolver;

impl Solver for MultifitSolver {
    fn name(&self) -> &'static str {
        "multifit"
    }

    fn supports(&self, feat: &Features) -> bool {
        feat.model == ModelKind::Uniform
    }

    fn solve(&self, inst: &ProblemInstance, _ctx: &SolveContext<'_>) -> Option<Outcome> {
        let ProblemInstance::Uniform(u) = inst else { return None };
        let res = multifit_uniform(u, 8);
        Some(Outcome {
            cost: Cost::Frac(res.makespan),
            solution: Solution::Assignment(res.schedule),
            complete: true,
        })
    }
}

/// The Section-2 PTAS (uniform machines). One-shot and superpolynomial in
/// `1/ε`, so the selector only offers it on small instances; it polls the
/// race's token and answers nothing once the token has fired.
pub struct PtasSolver {
    /// Precision `ε = 1/q`.
    pub q: u64,
}

impl Solver for PtasSolver {
    fn name(&self) -> &'static str {
        "ptas"
    }

    fn supports(&self, feat: &Features) -> bool {
        feat.model == ModelKind::Uniform && feat.n <= 60 && feat.m <= 8
    }

    fn solve(&self, inst: &ProblemInstance, ctx: &SolveContext<'_>) -> Option<Outcome> {
        let ProblemInstance::Uniform(u) = inst else { return None };
        let cfg = PtasConfig { q: self.q, node_limit: 1 << 22 };
        let res = ptas_uniform_budgeted(u, &cfg, ctx.cancel)?;
        let cost = Cost::Frac(res.makespan);
        Some(Outcome { solution: Solution::Assignment(res.schedule), cost, complete: true })
    }
}

/// Randomized LP rounding (Theorem 3.3, unrelated machines), budgeted:
/// polls the token between LP solves and rounding iterations.
pub struct RoundingSolver;

impl Solver for RoundingSolver {
    fn name(&self) -> &'static str {
        "rounding"
    }

    fn supports(&self, feat: &Features) -> bool {
        // The assignment LP has ~n·m variables; past this size one simplex
        // run blows any interactive budget.
        feat.model == ModelKind::Unrelated && feat.n * feat.m <= 6_000
    }

    fn solve(&self, inst: &ProblemInstance, ctx: &SolveContext<'_>) -> Option<Outcome> {
        let ProblemInstance::Unrelated(r) = inst else { return None };
        let cfg = RoundingConfig { c: 2.0, seed: ctx.seed };
        let res = solve_unrelated_randomized_budgeted(r, &cfg, ctx.cancel);
        Some(Outcome {
            solution: Solution::Assignment(res.schedule),
            cost: Cost::Time(res.makespan),
            complete: !ctx.cancel.is_cancelled(),
        })
    }
}

/// RA 2-approximation (Theorem 3.10) — restricted assignment with
/// class-uniform restrictions only.
pub struct Ra2Solver;

impl Solver for Ra2Solver {
    fn name(&self) -> &'static str {
        "ra2"
    }

    fn supports(&self, feat: &Features) -> bool {
        feat.model == ModelKind::Unrelated && feat.restricted && feat.class_uniform_restrictions
    }

    fn solve(&self, inst: &ProblemInstance, _ctx: &SolveContext<'_>) -> Option<Outcome> {
        let ProblemInstance::Unrelated(r) = inst else { return None };
        if !(r.is_restricted_assignment() && r.has_class_uniform_restrictions()) {
            return None;
        }
        let res = solve_ra_class_uniform(r);
        Some(Outcome {
            solution: Solution::Assignment(res.schedule),
            cost: Cost::Time(res.makespan),
            complete: true,
        })
    }
}

/// CUPT 3-approximation (Theorem 3.11) — class-uniform processing times.
pub struct Cupt3Solver;

impl Solver for Cupt3Solver {
    fn name(&self) -> &'static str {
        "cupt3"
    }

    fn supports(&self, feat: &Features) -> bool {
        feat.model == ModelKind::Unrelated && feat.class_uniform_ptimes
    }

    fn solve(&self, inst: &ProblemInstance, _ctx: &SolveContext<'_>) -> Option<Outcome> {
        let ProblemInstance::Unrelated(r) = inst else { return None };
        if !r.has_class_uniform_ptimes() {
            return None;
        }
        let res = solve_class_uniform_ptimes(r);
        Some(Outcome {
            solution: Solution::Assignment(res.schedule),
            cost: Cost::Time(res.makespan),
            complete: true,
        })
    }
}

/// Branch-and-bound (integral models). In a race its pruning bound is
/// cross-seeded from the incumbent (unrelated machines), so a good
/// heuristic result published early shrinks this search's tree.
pub struct ExactSolver;

impl Solver for ExactSolver {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn supports(&self, feat: &Features) -> bool {
        feat.model != ModelKind::Splittable && feat.n <= 18
    }

    fn solve(&self, inst: &ProblemInstance, ctx: &SolveContext<'_>) -> Option<Outcome> {
        match inst {
            ProblemInstance::Uniform(u) => {
                if u.num_classes() > 128 {
                    return None;
                }
                let res = exact_uniform_budgeted(u, EXACT_NODE_LIMIT, ctx.cancel);
                Some(Outcome {
                    solution: Solution::Assignment(res.schedule),
                    cost: Cost::Frac(res.makespan),
                    complete: res.complete,
                })
            }
            ProblemInstance::Unrelated(r) => {
                if r.num_classes() > 128 {
                    return None;
                }
                let res = exact_unrelated_budgeted(
                    r,
                    EXACT_NODE_LIMIT,
                    ctx.cancel,
                    Some(ctx.incumbent.bound()),
                );
                Some(Outcome {
                    solution: Solution::Assignment(res.schedule),
                    cost: Cost::Time(res.makespan),
                    complete: res.complete,
                })
            }
            ProblemInstance::Splittable(_) => None,
        }
    }
}

/// Tracker-based descent (integral models), warm-started from the race
/// incumbent; the generic loop of `sst_algos::local_search` monomorphized
/// per model.
pub struct LocalSearchSolver;

impl Solver for LocalSearchSolver {
    fn name(&self) -> &'static str {
        "local-search"
    }

    fn supports(&self, feat: &Features) -> bool {
        feat.model != ModelKind::Splittable
    }

    fn solve(&self, inst: &ProblemInstance, ctx: &SolveContext<'_>) -> Option<Outcome> {
        let (schedule, done) = match inst {
            ProblemInstance::Uniform(u) => {
                let start = warm_start(inst, ctx);
                let r = improve_budgeted::<Uniform>(u, &start, usize::MAX, ctx.cancel);
                (r.schedule, !ctx.cancel.is_cancelled())
            }
            ProblemInstance::Unrelated(r) => {
                let start = warm_start(inst, ctx);
                let res = improve_budgeted::<Unrelated>(r, &start, usize::MAX, ctx.cancel);
                (res.schedule, !ctx.cancel.is_cancelled())
            }
            ProblemInstance::Splittable(_) => return None,
        };
        let solution = Solution::Assignment(schedule);
        let cost = inst.evaluate(&solution).expect("descent keeps schedules valid");
        Some(Outcome { solution, cost, complete: done })
    }
}

/// Seeded Metropolis annealer (integral models), warm-started from the
/// race incumbent; it stops at the deadline, after 400 000 proposals,
/// once its state is provably frozen (no later proposal could be
/// accepted, so the answer is the same as running on), or once a window
/// of proposals in a row found no new best (the stall stop of
/// [`sst_algos::annealing`], which returns the best seen so far): after a
/// new best at proposal `p`, twice `p` clamped to 20 000–80 000, or 256
/// neighbourhoods when that is less. At n=48, m=5, K=6 and at n=800,
/// m=10, K=16 the doubling term sets it, so a walk that never beats its
/// start ends after 20 000 proposals and one whose last new best came at
/// proposal 8 000 ends at 28 000.
pub struct AnnealSolver;

impl Solver for AnnealSolver {
    fn name(&self) -> &'static str {
        "anneal"
    }

    fn supports(&self, feat: &Features) -> bool {
        feat.model != ModelKind::Splittable
    }

    fn solve(&self, inst: &ProblemInstance, ctx: &SolveContext<'_>) -> Option<Outcome> {
        let cfg = AnnealConfig { iterations: 400_000, seed: ctx.seed, ..AnnealConfig::default() };
        let schedule = match inst {
            ProblemInstance::Uniform(u) => {
                let start = warm_start(inst, ctx);
                anneal_budgeted::<Uniform>(u, &start, &cfg, ctx.cancel).schedule
            }
            ProblemInstance::Unrelated(r) => {
                let start = warm_start(inst, ctx);
                anneal_budgeted::<Unrelated>(r, &start, &cfg, ctx.cancel).schedule
            }
            ProblemInstance::Splittable(_) => return None,
        };
        let solution = Solution::Assignment(schedule);
        let cost = inst.evaluate(&solution).expect("annealer keeps schedules valid");
        Some(Outcome { solution, cost, complete: !ctx.cancel.is_cancelled() })
    }
}

/// Splittable 2-approximation (Lemma 3.9's move on the Section 3.3.1 LP):
/// restricted assignment with class-uniform restrictions, shares rounded
/// from the smallest LP-feasible guess.
pub struct Split2Solver;

impl Solver for Split2Solver {
    fn name(&self) -> &'static str {
        "split2"
    }

    fn supports(&self, feat: &Features) -> bool {
        feat.model == ModelKind::Splittable
            && feat.restricted
            && feat.class_uniform_restrictions
            // One LP bisection; past this size it blows interactive budgets.
            && feat.n * feat.m <= 6_000
    }

    fn solve(&self, inst: &ProblemInstance, _ctx: &SolveContext<'_>) -> Option<Outcome> {
        let ProblemInstance::Splittable(s) = inst else { return None };
        let inner = s.inner();
        if !(inner.is_restricted_assignment() && inner.has_class_uniform_restrictions()) {
            return None;
        }
        let res = solve_splittable_ra_class_uniform(inner);
        Some(Outcome {
            cost: Cost::Real(res.makespan),
            solution: Solution::Split(res.schedule),
            complete: true,
        })
    }
}

/// Splittable 3-approximation (Section 3.3.2's doubling rule):
/// class-uniform processing times.
pub struct Split3Solver;

impl Solver for Split3Solver {
    fn name(&self) -> &'static str {
        "split3"
    }

    fn supports(&self, feat: &Features) -> bool {
        feat.model == ModelKind::Splittable && feat.class_uniform_ptimes && feat.n * feat.m <= 6_000
    }

    fn solve(&self, inst: &ProblemInstance, _ctx: &SolveContext<'_>) -> Option<Outcome> {
        let ProblemInstance::Splittable(s) = inst else { return None };
        let inner = s.inner();
        if !inner.has_class_uniform_ptimes() {
            return None;
        }
        let res = solve_splittable_class_uniform_ptimes(inner);
        Some(Outcome {
            cost: Cost::Real(res.makespan),
            solution: Solution::Split(res.schedule),
            complete: true,
        })
    }
}

/// Splittable descent: the generic tracker-based local search run on the
/// **integral sub-space** of the split model
/// (`LoadTracker<sst_core::model::Splittable>`), then lifted to shares via
/// workload fractions. Sound under the two Section 3.3 structures, where
/// workload fractions are machine-consistent; elsewhere it declines.
pub struct SplitRefineSolver;

impl Solver for SplitRefineSolver {
    fn name(&self) -> &'static str {
        "split-refine"
    }

    fn supports(&self, feat: &Features) -> bool {
        feat.model == ModelKind::Splittable
            && ((feat.restricted && feat.class_uniform_restrictions) || feat.class_uniform_ptimes)
    }

    fn solve(&self, inst: &ProblemInstance, ctx: &SolveContext<'_>) -> Option<Outcome> {
        let ProblemInstance::Splittable(s) = inst else { return None };
        let inner = s.inner();
        if !((inner.is_restricted_assignment() && inner.has_class_uniform_restrictions())
            || inner.has_class_uniform_ptimes())
        {
            return None;
        }
        let start = greedy_unrelated(inner);
        let res = improve_budgeted::<Splittable>(inner, &start, usize::MAX, ctx.cancel);
        let split = split_from_assignment(inner, &res.schedule);
        split.validate(inner).ok()?;
        let solution = Solution::Split(split);
        let cost = inst.evaluate(&solution).expect("validated above");
        Some(Outcome { solution, cost, complete: !ctx.cancel.is_cancelled() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::extract_features;
    use sst_core::instance::Job;

    fn uniform_fixture() -> ProblemInstance {
        ProblemInstance::Uniform(
            UniformInstance::identical(
                2,
                vec![3, 1],
                vec![Job::new(0, 5), Job::new(0, 4), Job::new(1, 7)],
            )
            .unwrap(),
        )
    }

    fn splittable_fixture() -> ProblemInstance {
        // Class-uniform processing times on genuinely unrelated machines.
        ProblemInstance::Splittable(SplittableInstance(
            UnrelatedInstance::new(
                3,
                vec![0, 0, 1, 1, 2],
                vec![vec![4, 6, 8], vec![4, 6, 8], vec![9, 3, 5], vec![9, 3, 5], vec![2, 7, 4]],
                vec![vec![1, 2, 3], vec![2, 1, 2], vec![3, 3, 1]],
            )
            .unwrap(),
        ))
    }

    #[test]
    fn every_supported_solver_returns_valid_costed_outcome() {
        let inst = uniform_fixture();
        let feat = extract_features(&inst);
        let incumbent = Incumbent::new();
        let token = CancelToken::new();
        let ctx = SolveContext { cancel: &token, seed: 7, incumbent: &incumbent };
        let solvers: Vec<Box<dyn Solver>> = vec![
            Box::new(GreedySolver),
            Box::new(LptSolver),
            Box::new(MultifitSolver),
            Box::new(PtasSolver { q: 4 }),
            Box::new(ExactSolver),
            Box::new(LocalSearchSolver),
            Box::new(AnnealSolver),
        ];
        for s in &solvers {
            assert!(s.supports(&feat), "{} should support the fixture", s.name());
            let out = s.solve(&inst, &ctx).expect("supported solver must produce an outcome");
            let reval = inst.evaluate(&out.solution).expect("solution must be valid");
            assert_eq!(reval, out.cost, "{} misreported its cost", s.name());
        }
        // Unrelated-only and splittable-only solvers refuse the uniform
        // instance.
        assert!(RoundingSolver.solve(&inst, &ctx).is_none());
        assert!(Ra2Solver.solve(&inst, &ctx).is_none());
        assert!(Cupt3Solver.solve(&inst, &ctx).is_none());
        assert!(Split2Solver.solve(&inst, &ctx).is_none());
        assert!(Split3Solver.solve(&inst, &ctx).is_none());
        assert!(SplitRefineSolver.solve(&inst, &ctx).is_none());
    }

    #[test]
    fn ptas_member_answers_nothing_once_the_token_fired() {
        let inst = uniform_fixture();
        let incumbent = Incumbent::new();
        let token = CancelToken::new();
        token.cancel();
        let ctx = SolveContext { cancel: &token, seed: 7, incumbent: &incumbent };
        assert!(PtasSolver { q: 4 }.solve(&inst, &ctx).is_none());
    }

    #[test]
    fn splittable_solvers_cover_the_third_model() {
        let inst = splittable_fixture();
        let feat = extract_features(&inst);
        assert_eq!(feat.model, ModelKind::Splittable);
        let incumbent = Incumbent::new();
        let token = CancelToken::new();
        let ctx = SolveContext { cancel: &token, seed: 7, incumbent: &incumbent };
        let supported: Vec<Box<dyn Solver>> =
            vec![Box::new(GreedySolver), Box::new(Split3Solver), Box::new(SplitRefineSolver)];
        for s in &supported {
            assert!(s.supports(&feat), "{} should support the splittable fixture", s.name());
            let out = s.solve(&inst, &ctx).expect("supported solver must produce an outcome");
            assert!(matches!(out.solution, Solution::Split(_)), "{}", s.name());
            let reval = inst.evaluate(&out.solution).expect("solution must be valid");
            assert_eq!(reval, out.cost, "{} misreported its cost", s.name());
        }
        // The integral-model members must decline the split model: their
        // assignments are not solutions of it.
        assert!(!LocalSearchSolver.supports(&feat));
        assert!(!AnnealSolver.supports(&feat));
        assert!(!ExactSolver.supports(&feat));
        assert!(LocalSearchSolver.solve(&inst, &ctx).is_none());
        assert!(AnnealSolver.solve(&inst, &ctx).is_none());
        // split2 needs class-uniform restrictions, which this CUPT fixture
        // lacks.
        assert!(!Split2Solver.supports(&feat));
    }

    #[test]
    fn cost_ordering_is_exact_within_a_kind() {
        assert!(Cost::Time(3).better_than(&Cost::Time(4)));
        assert!(!Cost::Time(4).better_than(&Cost::Time(4)));
        assert!(Cost::Frac(Ratio::new(1, 3)).better_than(&Cost::Frac(Ratio::new(1, 2))));
        assert!(Cost::Real(3.5).better_than(&Cost::Real(4.0)));
        assert!(!Cost::Real(4.0).better_than(&Cost::Real(4.0)));
    }
}
