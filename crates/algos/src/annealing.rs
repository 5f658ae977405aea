//! Simulated annealing — the operations-research baseline (extension),
//! written **once** against [`sst_core::model::MachineModel`].
//!
//! The related-work surveys the paper cites (Allahverdi et al. \[1,2,3\])
//! document that practical setup-time scheduling is dominated by
//! metaheuristics evaluated "through simulations, but without formal
//! performance guarantees". This module supplies that comparator so the
//! experiments can show where guarantee-free search lands relative to the
//! paper's algorithms: a seeded Metropolis annealer over the same two move
//! kinds as [`crate::local_search`] (single-job moves and batching-aware
//! whole-class moves), with geometric cooling.
//!
//! Moves are proposed and evaluated through
//! [`sst_core::tracker::LoadTracker`] *before* being applied, so rejected
//! proposals cost no apply-and-revert round trip. A proposal is scored
//! from its target machine alone: the source machine only sheds load and
//! every other machine is at most the current makespan, so when the
//! target's new key ([`LoadTracker::job_move_target`] /
//! [`LoadTracker::class_move_target`]) is at least the makespan it is the
//! new makespan exactly — this rests on [`MachineModel::key`] being
//! non-decreasing in load. Only the proposals whose target stays below the
//! makespan (most accepted moves among them) pay the full `eval_*`
//! evaluation, and a worsening proposal whose Metropolis exponent is
//! below `exp`'s underflow skips `exp` (its uniform draw still happens,
//! so the RNG stream is unchanged). Each is `O(1)` (`O(B)` for unrelated
//! class moves), and every proposal's `delta` is bit-identical to a full
//! evaluation's. There is exactly one proposal loop — [`anneal_budgeted`]
//! — generic over the machine model; `anneal_uniform*` /
//! `anneal_unrelated*` are thin monomorphizing wrappers, pinned
//! bit-identical to the pre-refactor per-model implementations by
//! `crates/algos/tests/golden_search.rs`.
//!
//! Like every baseline in this workspace it is deterministic under a fixed
//! seed and **never returns a schedule worse than its start** (the
//! best-seen schedule is tracked and returned).
//!
//! **Frozen-state exit.** The loop stops before `iterations` once no later
//! proposal can be accepted: every feasible job and class move out of the
//! current state strictly raises the makespan, the smallest rise `r` gives
//! `-r / temp < -1000` (where `exp` is exactly `0.0`) or `temp <= 0`, and
//! `cooling` lies in `[0, 1]`, so `temp` never rises again. Rejected
//! proposals change nothing but the RNG state and the temperature, so the
//! returned schedule, `accepted` and `improvements` are bit-identical to
//! running every iteration; only [`AnnealResult::proposals`] tells the
//! runs apart. The scan of the whole neighbourhood runs after a streak of
//! rejections 16 times the neighbourhood's size, and its minimum rise is
//! kept until the next accepted move, so a walk that never freezes pays at
//! most about 1/16 extra. `crates/algos/tests/anneal_exit.rs` pins the exit
//! against a copy of the loop without it.
//!
//! **Two phases.** The walk starts in the Metropolis loop above. For the
//! models whose keys are integer loads ([`MachineModel::key_as_load`]:
//! `Unrelated` and `Splittable`; `Uniform`'s ratio keys stay in the
//! Metropolis loop) it switches to a **plateau phase** at the first
//! iteration where all of these hold:
//!
//! * `cooling` lies in `[0, 1]`, so the temperature never rises again;
//! * `temp * 1000 < 1` (`temp == 0` included);
//! * makespan + the largest finite `p_ij` + the largest finite `s_ik` is
//!   below 2^53.
//!
//! From there the Metropolis test has a fixed answer. Every load a
//! proposal can compare is an integer and the makespan is below 2^53, so
//! it converts to `f64` exactly; a target load `L` above the makespan `C`
//! converts to at least `C + 1` (conversion is monotone, and every integer
//! up to 2^53 is exact), so `delta >= 1` and `-delta / temp <= -1000`,
//! where `exp` is `0.0`: no rising proposal passes, while every other one
//! passes with `delta <= 0` and no draw. The plateau phase therefore
//! accepts a proposal iff it is feasible and its target machine's new load
//! is at most the makespan, draws the test's one `u` for a feasible rising
//! proposal while `temp > 0`, and computes no `f64` delta, division or
//! `exp`. The 2^53 guard is what makes the integer comparison agree with
//! the float one: above it two loads can convert to the same `f64`, and
//! the Metropolis loop would accept a rise of 1 as a zero delta. It keeps
//! the makespan and every job move's target load below 2^53; a class
//! move's target can be larger, but then it is above the makespan and,
//! conversion being monotone, reads as a rise on both sides.
//!
//! The phase keeps the walk's tracker and its target accessors, so it
//! builds no state of its own; an accepted move goes through the
//! tracker's `apply_*` and reads the new makespan back. It checks for a
//! frozen state once at entry (with the same neighbourhood scan as the
//! Metropolis loop) and then after the same patience, and stops as soon
//! as it finds one: no rising proposal can pass any more. The schedule,
//! `accepted` and `improvements` stay bit-identical to the Metropolis
//! loop run to the end; only `proposals` falls.
//!
//! Both phases draw a proposal the same way: the class-move coin, then
//! the job and the target machine through [`rand::distributions::Uniform`],
//! whose draws are exactly `gen_range`'s but whose rejection zone is
//! computed once per walk instead of once per draw.
//!
//! **Stall stop.** Every walk ends, in either phase, once a window of
//! proposals in a row passes without a new best. After a new best at
//! proposal `p` (`p = 0` at the start) the window is
//! `min(256 · (m−1)(n + min(n, m·K)), clamp(2p, 20 000, 80 000))`: 256
//! neighbourhoods' worth (the unit the frozen exit's patience uses), or
//! twice the walk's time to that best, at least 20 000 and at most 80 000
//! proposals, whichever is smaller. A walk that found its best early has
//! shown what it is going to find and waits little; one still improving
//! late waits up to the cap. Unlike the frozen exit the stop can change
//! the answer: a walk that would still have improved its best after the
//! window returns the best seen so far. It stops exactly one window after
//! its last new best (or after its start), with the schedule, `accepted`
//! and `improvements` of the same walk cut at that iteration.
//!
//! The sweep term sets the window whenever 256 sweeps are below 20 000
//! proposals (neighbourhoods of at most 78, every instance of a few jobs),
//! and no window is shorter than `min(256 sweeps, 20 000)`; so those walks,
//! and every walk of at most 20 000 proposals, end exactly where a fixed
//! window of 256 sweeps capped at 80 000 proposals ended them. At n=48,
//! m=5, K=6 (256 sweeps are 79 872 proposals) and at n=800, m=10, K=16
//! (2.2 M) the doubling term sets it:
//! a served 400 000-proposal walk whose last new best came at proposal
//! 8 000 ends at 28 000, and one that never beats its start ends at
//! 20 000. It is folded into the loop bound, so it costs the proposal loop
//! nothing; [`AnnealResult::exit`] says which exit ended the walk.
//!
//! ```
//! use sst_algos::annealing::{anneal_uniform, AnnealConfig};
//! use sst_algos::lpt::lpt_with_setups;
//! use sst_core::instance::{Job, UniformInstance};
//! use sst_core::schedule::uniform_makespan;
//!
//! let inst = UniformInstance::identical(
//!     2,
//!     vec![3],
//!     vec![Job::new(0, 9), Job::new(0, 7), Job::new(0, 5)],
//! ).unwrap();
//! let start = lpt_with_setups(&inst);
//! let res = anneal_uniform(&inst, &start, &AnnealConfig::default());
//! let before = uniform_makespan(&inst, &start).unwrap();
//! let after = uniform_makespan(&inst, &res.schedule).unwrap();
//! assert!(after <= before);
//! ```

use rand::distributions::{Distribution, Uniform as Draw};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use sst_core::cancel::CancelToken;
use sst_core::instance::{UniformInstance, UnrelatedInstance};
use sst_core::model::{MachineModel, Uniform, Unrelated};
use sst_core::schedule::Schedule;
use sst_core::tracker::LoadTracker;

/// Proposals between deadline polls (each proposal is an `O(1)` tracker
/// evaluation of tens of nanoseconds, so one interval is a few
/// microseconds).
const CANCEL_CHECK_MASK: usize = 0xFF;

/// Consecutive rejections, in multiples of the neighbourhood size, before
/// the loop scans for a frozen state, so the scans cost at most about
/// 1/16 of the rejected proposals they follow.
const FROZEN_PATIENCE: usize = 16;

/// The stall stop's window at most, in multiples of the neighbourhood
/// size (module docs).
const STALL_SWEEPS: usize = 256;

/// The stall stop's doubling term at least: the window at the start and
/// after a new best before proposal 10 000 (module docs).
const STALL_MIN_PROPOSALS: usize = 20_000;

/// The stall stop's doubling term at most: the window after a new best at
/// or after proposal 40 000 (module docs).
const STALL_MAX_PROPOSALS: usize = 80_000;

/// `f64::exp` returns exactly `0.0` below about -745.2, so a worsening
/// proposal whose Metropolis exponent `-delta / temp` is under this can
/// never pass `u < exp(-delta / temp)`, not even for `u == 0.0`; the loop
/// skips `exp` there.
const EXP_UNDERFLOW: f64 = -1000.0;

/// Loads below this convert to `f64` exactly (the plateau phase's guard).
const EXACT_F64_LOADS: u64 = 1 << 53;

/// Annealer parameters.
#[derive(Debug, Clone, Copy)]
pub struct AnnealConfig {
    /// Number of proposed moves.
    pub iterations: usize,
    /// Initial temperature as a *fraction of the start makespan* (the
    /// natural scale of the objective).
    pub initial_temp_fraction: f64,
    /// Geometric cooling multiplier applied every iteration.
    pub cooling: f64,
    /// Probability of proposing a whole-class move instead of a job move.
    pub class_move_prob: f64,
    /// RNG seed (the run is a pure function of instance, start and config).
    pub seed: u64,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            iterations: 20_000,
            initial_temp_fraction: 0.2,
            cooling: 0.9995,
            class_move_prob: 0.25,
            seed: 0,
        }
    }
}

/// Outcome of an annealing run.
#[derive(Debug, Clone)]
pub struct AnnealResult {
    /// Best schedule seen (never worse than the start schedule).
    pub schedule: Schedule,
    /// Proposals accepted by the Metropolis criterion.
    pub accepted: usize,
    /// Accepted proposals that strictly improved the incumbent best.
    pub improvements: usize,
    /// Iterations actually run, in both phases: fewer than
    /// [`AnnealConfig::iterations`] when the cancel token fired, the state
    /// froze or the best stalled. Unlike the three fields above it is not a
    /// function of the walk alone: a frozen state found at plateau entry
    /// stops at once, where the Metropolis loop would have waited out its
    /// patience.
    pub proposals: usize,
    /// Which exit ended the walk.
    pub exit: AnnealExit,
    /// The iteration at which the plateau phase began (module docs);
    /// `None` when the walk never entered it.
    pub plateau_entry: Option<usize>,
    /// Of `accepted`, the proposals accepted in the plateau phase.
    pub plateau_accepted: usize,
}

/// Why an annealing walk stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnnealExit {
    /// It ran [`AnnealConfig::iterations`] proposals.
    Iterations,
    /// No later proposal could be accepted (module docs), or the instance
    /// has no move at all (no job, or a single machine).
    Frozen,
    /// The stall stop's window (module docs) passed without a new best.
    Stalled,
    /// The cancel token fired.
    Cancelled,
}

/// A proposed move, shared by every machine model.
enum Proposal {
    Job(usize, usize),
    Class(usize, usize, usize),
}

/// The annealer's proposal loop, written once for every machine model:
/// the Metropolis phase and, for integer-keyed models, the plateau phase
/// (module docs). Deltas are measured in the model's key arithmetic
/// projected to `f64` ([`MachineModel::key_to_f64`]); acceptance and
/// cooling follow the classic geometric schedule. Early exit (the `cancel`
/// token, or the stall stop) returns the best schedule seen so far, which
/// never degrades the start; the frozen-state exit (module docs) returns
/// exactly what running every iteration would.
///
/// # Panics
/// Panics if `start` is not a valid schedule for `inst`.
pub fn anneal_budgeted<M: MachineModel>(
    inst: &M::Instance,
    start: &Schedule,
    cfg: &AnnealConfig,
    cancel: &CancelToken,
) -> AnnealResult {
    let mut tracker = LoadTracker::<M>::new(inst, start).expect("valid start schedule");
    let (n, m) = (M::n(inst), M::m(inst));
    let mut res = AnnealResult {
        schedule: start.clone(),
        accepted: 0,
        improvements: 0,
        proposals: 0,
        // Kept by an instance without moves and by a plateau phase that
        // starts frozen; every other exit overwrites it.
        exit: AnnealExit::Frozen,
        plateau_entry: None,
        plateau_accepted: 0,
    };
    if n == 0 || m < 2 {
        return res;
    }
    let cools = (0.0..=1.0).contains(&cfg.cooling);
    let neighbourhood = (m - 1) * (n + n.min(m * M::num_classes(inst)));
    // Rejections in a row before a frozen-state scan; never, when cooling
    // outside [0, 1] can make the temperature rise again.
    let patience = if cools { FROZEN_PATIENCE * neighbourhood } else { usize::MAX };
    // The stall stop, folded into the loop bound: `limit` moves on with
    // every new best.
    let sweeps = STALL_SWEEPS * neighbourhood;
    let mut limit = cfg.iterations.min(stall_window(sweeps, 0));
    // Makespans below this may enter the plateau phase.
    let headroom = if cools && M::key_as_load(tracker.makespan()).is_some() {
        EXACT_F64_LOADS.checked_sub(largest_finite_cells::<M>(inst))
    } else {
        None
    };
    // The hot state lives in locals rather than in a struct behind a
    // reference, so the compiler keeps it in registers.
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let draws = Draws { jobs: Draw::new(0, n), machines: Draw::new(0, m) };
    let mut cur_ms = tracker.makespan();
    let mut cur = M::key_to_f64(cur_ms);
    let mut best_ms = cur_ms;
    let mut temp = cur * cfg.initial_temp_fraction;
    let mut rejected = 0usize;
    // The smallest rise out of the current state, once a scan has found
    // that every move rises; cleared by the next accepted move.
    let mut frozen: Option<f64> = None;
    // The Metropolis phase; it ends the walk, or breaks `None` to enter
    // the plateau phase.
    let exit = loop {
        if res.proposals >= limit {
            break Some(bound_exit(res.proposals, cfg.iterations));
        }
        let below = |h: u64| M::key_as_load(cur_ms).is_some_and(|load| load < h);
        if temp * 1000.0 < 1.0 && headroom.is_some_and(below) {
            break None;
        }
        if res.proposals & CANCEL_CHECK_MASK == 0 && cancel.is_cancelled() {
            break Some(AnnealExit::Cancelled);
        }
        if frozen.is_some_and(|rise| temp <= 0.0 || -rise / temp < EXP_UNDERFLOW) {
            break Some(AnnealExit::Frozen);
        }
        res.proposals += 1;
        // A target key at or above the makespan is the new makespan
        // (module docs); below it, the full evaluation decides.
        let scored = draws.propose(&mut rng, &tracker, cfg.class_move_prob).map(|(p, kt)| {
            let new_ms = if kt >= cur_ms {
                kt
            } else {
                match p {
                    Proposal::Job(j, to) => tracker.eval_job_move(j, to),
                    Proposal::Class(from, k, to) => tracker.eval_class_move(from, k, to),
                }
                .expect("the target accessor found the move feasible")
            };
            (p, new_ms)
        });
        let chosen = scored.filter(|&(_, new_ms)| {
            let delta = M::key_to_f64(new_ms) - cur;
            delta <= 0.0
                || (temp > 0.0 && {
                    let u = rng.gen::<f64>();
                    let x = -delta / temp;
                    x >= EXP_UNDERFLOW && u < x.exp()
                })
        });
        match chosen {
            Some((proposal, new_ms)) => {
                apply(&mut tracker, proposal);
                res.accepted += 1;
                cur_ms = new_ms;
                cur = M::key_to_f64(cur_ms);
                if new_ms < best_ms {
                    best_ms = new_ms;
                    res.schedule = tracker.schedule();
                    res.improvements += 1;
                    limit = cfg.iterations.min(res.proposals + stall_window(sweeps, res.proposals));
                }
                rejected = 0;
                frozen = None;
            }
            None => {
                rejected += 1;
                if rejected >= patience && frozen.is_none() {
                    rejected = 0;
                    frozen = min_rise(&tracker, cur_ms, cancel);
                }
            }
        }
        temp *= cfg.cooling;
    };
    if let Some(exit) = exit {
        res.exit = exit;
        return res;
    }
    // The plateau phase: a proposal passes iff it is feasible and its
    // target key is at most the makespan. A frozen state, found at entry
    // or after the patience, ends the walk: no rising proposal can pass
    // any more.
    res.plateau_entry = Some(res.proposals);
    if min_rise(&tracker, cur_ms, cancel).is_some() {
        return res;
    }
    res.exit = loop {
        if res.proposals >= limit {
            break bound_exit(res.proposals, cfg.iterations);
        }
        if res.proposals & CANCEL_CHECK_MASK == 0 && cancel.is_cancelled() {
            break AnnealExit::Cancelled;
        }
        res.proposals += 1;
        match draws.propose(&mut rng, &tracker, cfg.class_move_prob) {
            Some((proposal, kt)) if kt <= cur_ms => {
                apply(&mut tracker, proposal);
                res.accepted += 1;
                res.plateau_accepted += 1;
                cur_ms = tracker.makespan();
                if cur_ms < best_ms {
                    best_ms = cur_ms;
                    res.schedule = tracker.schedule();
                    res.improvements += 1;
                    limit = cfg.iterations.min(res.proposals + stall_window(sweeps, res.proposals));
                }
                rejected = 0;
            }
            rising => {
                // A feasible rising proposal still draws the Metropolis
                // test's `u`, whose answer is "reject" (module docs).
                if rising.is_some() && temp > 0.0 {
                    rng.next_u64();
                }
                rejected += 1;
                if rejected >= patience {
                    rejected = 0;
                    if min_rise(&tracker, cur_ms, cancel).is_some() {
                        break AnnealExit::Frozen;
                    }
                }
            }
        }
        temp *= cfg.cooling;
    };
    res
}

/// Proposals in a row without a new best that end a walk whose last new
/// best came at proposal `p` (module docs), given its `sweeps` (256
/// neighbourhoods).
fn stall_window(sweeps: usize, p: usize) -> usize {
    sweeps.min(p.saturating_mul(2).clamp(STALL_MIN_PROPOSALS, STALL_MAX_PROPOSALS))
}

/// The exit of a walk that reached its loop bound: `iterations`, or the
/// stall stop's window when that came first.
fn bound_exit(proposals: usize, iterations: usize) -> AnnealExit {
    if proposals >= iterations {
        AnnealExit::Iterations
    } else {
        AnnealExit::Stalled
    }
}

/// The job and machine draws of `gen_range(0..n)` and `gen_range(0..m)`,
/// with their rejection zones computed once per walk instead of once per
/// draw.
struct Draws {
    jobs: Draw<usize>,
    machines: Draw<usize>,
}

impl Draws {
    /// Draws one proposal and its target machine's new key
    /// ([`LoadTracker::job_move_target`] /
    /// [`LoadTracker::class_move_target`]): the class-move coin, the job,
    /// then the target machine. Both phases draw through here, so they
    /// consume the RNG identically. `None` when the move is a no-op or
    /// infeasible. Always inlined: called out of line, the RNG state
    /// would round-trip through memory on every proposal.
    #[inline(always)]
    fn propose<M: MachineModel>(
        &self,
        rng: &mut SmallRng,
        tracker: &LoadTracker<'_, M>,
        class_move_prob: f64,
    ) -> Option<(Proposal, M::Key)> {
        let class_move = rng.gen::<f64>() < class_move_prob;
        let j = self.jobs.sample(rng);
        let from = tracker.machine_of(j);
        let to = self.machines.sample(rng);
        if class_move {
            let k = M::class_of(tracker.instance(), j);
            tracker.class_move_target(from, k, to).map(|kt| (Proposal::Class(from, k, to), kt))
        } else {
            tracker.job_move_target(j, to).map(|kt| (Proposal::Job(j, to), kt))
        }
    }
}

/// Applies an accepted proposal.
fn apply<M: MachineModel>(tracker: &mut LoadTracker<'_, M>, proposal: Proposal) {
    match proposal {
        Proposal::Job(j, to) => tracker.apply_job_move(j, to),
        Proposal::Class(from, k, to) => tracker.apply_class_move(from, k, to),
    }
}

/// The largest finite job time plus the largest finite setup time, in raw
/// load units (saturating).
fn largest_finite_cells<M: MachineModel>(inst: &M::Instance) -> u64 {
    let (n, m, kk) = (M::n(inst), M::m(inst), M::num_classes(inst));
    let max_p = (0..n).flat_map(|j| (0..m).filter_map(move |i| M::job_time(inst, i, j))).max();
    let max_s = (0..kk).flat_map(|k| (0..m).filter_map(move |i| M::setup_time(inst, i, k))).max();
    max_p.unwrap_or(0).saturating_add(max_s.unwrap_or(0))
}

/// The smallest rise `key_to_f64(new) - key_to_f64(cur_ms)` over every
/// feasible job move and whole-class move out of `tracker`'s state,
/// computed exactly as the proposal loop computes `delta` (`+inf` when no
/// move is feasible). `None` when some move does not rise, so the loop
/// would accept it, or when `cancel` fires mid-scan. A NaN rise is skipped:
/// the loop never accepts one.
fn min_rise<M: MachineModel>(
    tracker: &LoadTracker<'_, M>,
    cur_ms: M::Key,
    cancel: &CancelToken,
) -> Option<f64> {
    let inst = tracker.instance();
    let m = M::m(inst);
    let cur = M::key_to_f64(cur_ms);
    let mut min = f64::INFINITY;
    let mut evals = 0usize;
    let mut visit = |new_ms: Option<M::Key>| -> Option<()> {
        evals += 1;
        if evals & CANCEL_CHECK_MASK == 0 && cancel.is_cancelled() {
            return None;
        }
        if let Some(ms) = new_ms {
            let rise = M::key_to_f64(ms) - cur;
            if rise <= 0.0 {
                return None;
            }
            min = min.min(rise);
        }
        Some(())
    };
    for j in 0..M::n(inst) {
        for to in 0..m {
            visit(tracker.eval_job_move(j, to))?;
        }
    }
    for from in 0..m {
        for k in 0..M::num_classes(inst) {
            if tracker.count(from, k) > 0 {
                for to in 0..m {
                    visit(tracker.eval_class_move(from, k, to))?;
                }
            }
        }
    }
    Some(min)
}

/// [`anneal_budgeted`] with a never-firing token.
pub fn anneal<M: MachineModel>(
    inst: &M::Instance,
    start: &Schedule,
    cfg: &AnnealConfig,
) -> AnnealResult {
    anneal_budgeted::<M>(inst, start, cfg, &CancelToken::new())
}

/// Anneals a schedule on an unrelated instance.
///
/// # Panics
/// Panics if `start` is not a valid schedule for `inst`.
pub fn anneal_unrelated(
    inst: &UnrelatedInstance,
    start: &Schedule,
    cfg: &AnnealConfig,
) -> AnnealResult {
    anneal::<Unrelated>(inst, start, cfg)
}

/// Anneals a schedule on a uniform instance (loads kept in exact work
/// units; makespans compare `work_i / v_i` as [`sst_core::Ratio`]s).
///
/// # Panics
/// Panics if `start` is not a valid schedule for `inst`.
pub fn anneal_uniform(
    inst: &UniformInstance,
    start: &Schedule,
    cfg: &AnnealConfig,
) -> AnnealResult {
    anneal::<Uniform>(inst, start, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_core::instance::{Job, INF};
    use sst_core::ratio::Ratio;
    use sst_core::schedule::{uniform_makespan, unrelated_makespan};

    fn cfg(seed: u64) -> AnnealConfig {
        AnnealConfig { iterations: 5_000, seed, ..AnnealConfig::default() }
    }

    #[test]
    fn never_worsens_uniform() {
        let inst = UniformInstance::identical(
            3,
            vec![5, 2],
            vec![Job::new(0, 7), Job::new(0, 3), Job::new(1, 9), Job::new(1, 1)],
        )
        .unwrap();
        let start = Schedule::new(vec![0; 4]);
        let before = uniform_makespan(&inst, &start).unwrap();
        let res = anneal_uniform(&inst, &start, &cfg(42));
        let after = uniform_makespan(&inst, &res.schedule).unwrap();
        assert!(after <= before);
        assert!(res.improvements > 0, "bad start must be improved");
    }

    #[test]
    fn finds_optimum_on_tiny_uniform() {
        // 2 machines, two classes: optimum splits the classes (12 / 13).
        let inst = UniformInstance::identical(
            2,
            vec![10, 0],
            vec![Job::new(0, 1), Job::new(0, 1), Job::new(1, 13)],
        )
        .unwrap();
        let start = Schedule::new(vec![0, 1, 1]);
        let res = anneal_uniform(&inst, &start, &cfg(7));
        assert_eq!(uniform_makespan(&inst, &res.schedule).unwrap(), Ratio::new(13, 1));
    }

    #[test]
    fn never_worsens_unrelated_and_respects_inf() {
        let inst = UnrelatedInstance::new(
            2,
            vec![0, 1],
            vec![vec![9, INF], vec![8, 2]],
            vec![vec![1, 1], vec![1, 1]],
        )
        .unwrap();
        let start = Schedule::new(vec![0, 0]);
        let res = anneal_unrelated(&inst, &start, &cfg(3));
        let ms = unrelated_makespan(&inst, &res.schedule)
            .expect("annealer must keep the schedule valid");
        assert!(ms <= unrelated_makespan(&inst, &start).unwrap());
        assert_eq!(res.schedule.machine_of(0), 0, "INF machine must be avoided");
    }

    #[test]
    fn deterministic_under_seed() {
        let inst = UnrelatedInstance::new(
            3,
            (0..12).map(|j| j % 3).collect(),
            (0..12).map(|j| vec![1 + j as u64 % 7, 2 + j as u64 % 5, 3]).collect(),
            vec![vec![2, 1, 3], vec![1, 2, 1], vec![3, 1, 2]],
        )
        .unwrap();
        let start = Schedule::new((0..12).map(|j| j % 3).collect());
        let a = anneal_unrelated(&inst, &start, &cfg(99));
        let b = anneal_unrelated(&inst, &start, &cfg(99));
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.accepted, b.accepted);
        // The splittable integral view must follow the identical RNG
        // trajectory (same proposals, same acceptances).
        let c = anneal::<sst_core::model::Splittable>(&inst, &start, &cfg(99));
        assert_eq!(a.schedule, c.schedule);
        assert_eq!(a.accepted, c.accepted);
        // A different seed is allowed to find a different schedule, but both
        // must be valid.
        let d = anneal_unrelated(&inst, &start, &cfg(100));
        unrelated_makespan(&inst, &d.schedule).unwrap();
    }

    #[test]
    fn zero_iterations_returns_start() {
        let inst = UniformInstance::identical(2, vec![1], vec![Job::new(0, 4)]).unwrap();
        let start = Schedule::new(vec![0]);
        let res = anneal_uniform(
            &inst,
            &start,
            &AnnealConfig { iterations: 0, ..AnnealConfig::default() },
        );
        assert_eq!(res.schedule, start);
        assert_eq!(res.accepted, 0);
        assert_eq!(res.proposals, 0);
    }

    #[test]
    fn single_machine_is_noop() {
        let inst = UniformInstance::identical(1, vec![2], vec![Job::new(0, 3)]).unwrap();
        let start = Schedule::new(vec![0]);
        let res = anneal_uniform(&inst, &start, &cfg(1));
        assert_eq!(res.schedule, start);
    }

    #[test]
    fn empty_instance_is_noop() {
        let inst = UnrelatedInstance::new(2, vec![], vec![], vec![]).unwrap();
        let res = anneal_unrelated(&inst, &Schedule::new(vec![]), &cfg(1));
        assert_eq!(res.schedule.n(), 0);
    }

    #[test]
    fn cancelled_annealer_returns_start() {
        let inst = UniformInstance::identical(
            2,
            vec![1],
            vec![Job::new(0, 4), Job::new(0, 6), Job::new(0, 2)],
        )
        .unwrap();
        let start = Schedule::new(vec![0, 0, 0]);
        let token = CancelToken::new();
        token.cancel();
        let res = anneal_budgeted::<Uniform>(&inst, &start, &cfg(9), &token);
        assert_eq!(res.schedule, start, "pre-cancelled run proposes nothing");
        assert_eq!(res.accepted, 0);
        assert_eq!(res.proposals, 0);
    }

    /// Two identical machines, four unit-setup jobs split 9+8 / 9+8: every
    /// job or class move strictly raises the optimal makespan of 19.
    fn strict_local_optimum() -> (UniformInstance, Schedule) {
        let inst = UniformInstance::identical(
            2,
            vec![1, 1],
            vec![Job::new(0, 9), Job::new(1, 8), Job::new(0, 9), Job::new(1, 8)],
        )
        .unwrap();
        (inst, Schedule::new(vec![0, 0, 1, 1]))
    }

    #[test]
    fn frozen_state_exits_early_with_the_start() {
        let (inst, start) = strict_local_optimum();
        let tracker = LoadTracker::<Uniform>::new(&inst, &start).unwrap();
        assert_eq!(min_rise(&tracker, tracker.makespan(), &CancelToken::new()), Some(8.0));
        let long = AnnealConfig { iterations: 50_000, ..cfg(4) };
        let res = anneal_uniform(&inst, &start, &long);
        assert_eq!(res.schedule, start);
        assert!(res.proposals < 50_000, "cold strict optimum must exit");
        // A zero temperature freezes the state as soon as a scan runs.
        let cold = AnnealConfig { initial_temp_fraction: 0.0, cooling: 1.0, ..cfg(4) };
        let res = anneal_uniform(&inst, &start, &cold);
        assert_eq!((res.accepted, res.improvements), (0, 0));
        assert!(res.proposals < 5_000);
    }

    #[test]
    fn no_exit_while_the_temperature_holds_or_rises() {
        // Every move rises by at least 8 while the temperature stays at
        // 1.9, so a proposal passes with probability about e^-4.2: rare,
        // but some do over the run, so no iteration may be skipped. The
        // start is optimal, so no new best comes: the walk ends on the
        // stall stop, one window (256 neighbourhoods of 8) after its start.
        let (inst, start) = strict_local_optimum();
        let window = STALL_SWEEPS * 8;
        let hold =
            AnnealConfig { iterations: 50_000, initial_temp_fraction: 0.1, cooling: 1.0, ..cfg(4) };
        let res = anneal_uniform(&inst, &start, &hold);
        assert_eq!((res.exit, res.proposals), (AnnealExit::Stalled, window));
        assert!(res.accepted > 0, "a worsening move must have passed");
        // Frozen at the start, but heating: later proposals pass.
        let heat = AnnealConfig { initial_temp_fraction: 1e-6, cooling: 1.01, ..hold };
        let res = anneal_uniform(&inst, &start, &heat);
        assert_eq!((res.exit, res.proposals), (AnnealExit::Stalled, window));
        assert!(res.accepted > 0, "a heated walk must leave the optimum");
    }

    #[test]
    fn the_window_follows_the_last_new_best() {
        // 256 sweeps below the floor (a neighbourhood of 42) set every
        // window.
        for p in [0, 5_000, 30_000, 100_000] {
            assert_eq!(stall_window(STALL_SWEEPS * 42, p), 10_752);
        }
        // 256 sweeps of 408 are 104 448: the doubling term, clamped.
        let sweeps = STALL_SWEEPS * 408;
        let windows = [0, 9_999, 10_000, 16_780, 39_999, 40_000, 78_228, 300_000]
            .map(|p| stall_window(sweeps, p));
        assert_eq!(windows, [20_000, 20_000, 20_000, 33_560, 79_998, 80_000, 80_000, 80_000]);
        // Between the floor and the cap, the sweeps when they are smaller
        // (n=48, m=5, K=6).
        assert_eq!(stall_window(79_872, 39_990), 79_872);
    }

    #[test]
    fn a_large_walk_without_a_new_best_stalls_at_the_floor() {
        // Machine 0 holds the optimal makespan of 1000 alone, and 200 unit
        // jobs share machines 1 and 2. 256 neighbourhoods of 2·(201 + 3)
        // are 104 448 proposals, above the cap. A zero temperature that
        // cooling above 1 keeps (so no frozen scan runs) finds no new best,
        // and the stall stop ends the walk at the floor.
        let mut jobs = vec![Job::new(0, 1000)];
        jobs.extend((0..200).map(|_| Job::new(0, 1)));
        let inst = UniformInstance::identical(3, vec![0], jobs).unwrap();
        let start = Schedule::new((0..201).map(|j| if j == 0 { 0 } else { 1 + j % 2 }).collect());
        const { assert!(STALL_SWEEPS * 2 * (201 + 3) > STALL_MIN_PROPOSALS) };
        let cold = AnnealConfig {
            iterations: 200_000,
            initial_temp_fraction: 0.0,
            cooling: 2.0,
            ..cfg(5)
        };
        let res = anneal_uniform(&inst, &start, &cold);
        assert_eq!((res.exit, res.proposals), (AnnealExit::Stalled, STALL_MIN_PROPOSALS));
        assert_eq!((res.improvements, &res.schedule), (0, &start));
        assert!(res.accepted > 0, "zero-rise moves between machines 1 and 2 pass");
    }

    /// Anneals 201 jobs of 1–1000 on 3 identical machines (256 sweeps of
    /// 408 are 104 448 proposals, above the cap), all starting on machine
    /// 0, under the default temperature and `cooling`, and asserts that the
    /// walk's last new best came at proposal `p` (the walk cut there has
    /// all its improvements and the same schedule, cut one proposal earlier
    /// one improvement fewer) and that it stalled at `stop`.
    fn assert_stalls_at(cooling: f64, p: usize, stop: usize) {
        let jobs = (0..201).map(|j| Job::new(0, 1 + (j * 7919) % 1000)).collect();
        let inst = UniformInstance::identical(3, vec![0], jobs).unwrap();
        let start = Schedule::new(vec![0; 201]);
        let walk = AnnealConfig { iterations: 400_000, cooling, ..cfg(0) };
        let cut = |iterations| anneal_uniform(&inst, &start, &AnnealConfig { iterations, ..walk });
        let res = anneal_uniform(&inst, &start, &walk);
        assert_eq!((res.exit, res.proposals), (AnnealExit::Stalled, stop));
        let upto = cut(p);
        assert_eq!((&upto.schedule, upto.improvements), (&res.schedule, res.improvements));
        assert_eq!(cut(p - 1).improvements + 1, res.improvements);
    }

    #[test]
    fn a_walk_stalls_twice_its_time_to_best_after_it() {
        // Cooling from hot, the walk's last new best comes at proposal
        // 16 780, between half the floor and half the cap: the window is
        // twice that, so the walk ends at three times it.
        assert_stalls_at(0.9995, 16_780, 3 * 16_780);
    }

    #[test]
    fn a_late_best_waits_the_cap() {
        // Cooling slower, the last new best comes at proposal 78 228, past
        // half the cap: the walk ends one cap after it.
        assert_stalls_at(0.9999, 78_228, 78_228 + STALL_MAX_PROPOSALS);
    }

    #[test]
    fn no_exit_on_a_zero_rise_plateau() {
        // Machine 0 holds the makespan alone; the two small jobs can move
        // between machines 1 and 2 without changing it, so some move
        // always has a zero rise and the walk never freezes. The start is
        // optimal, so the stall stop ends the walk one window after its
        // start: 256 neighbourhoods of 12, the sweep term, which is below
        // the floor on an instance this small.
        let inst = UniformInstance::identical(
            3,
            vec![0, 0],
            vec![Job::new(0, 100), Job::new(1, 1), Job::new(1, 1)],
        )
        .unwrap();
        let start = Schedule::new(vec![0, 1, 2]);
        let tracker = LoadTracker::<Uniform>::new(&inst, &start).unwrap();
        assert_eq!(min_rise(&tracker, tracker.makespan(), &CancelToken::new()), None);
        const { assert!(STALL_SWEEPS * 12 < STALL_MIN_PROPOSALS) };
        let res = anneal_uniform(&inst, &start, &AnnealConfig { iterations: 50_000, ..cfg(6) });
        assert_eq!((res.exit, res.proposals), (AnnealExit::Stalled, STALL_SWEEPS * 12));
        assert!(res.accepted > 0);
    }

    /// [`strict_local_optimum`] on unrelated machines: the same loads, so
    /// every move rises by at least 8 from the makespan of 19.
    fn unrelated_strict_local_optimum() -> (UnrelatedInstance, Schedule) {
        let inst = UnrelatedInstance::new(
            2,
            vec![0, 1, 0, 1],
            vec![vec![9, 9], vec![8, 8], vec![9, 9], vec![8, 8]],
            vec![vec![1, 1], vec![1, 1]],
        )
        .unwrap();
        (inst, Schedule::new(vec![0, 0, 1, 1]))
    }

    #[test]
    fn a_strict_optimum_at_plateau_entry_stops_at_entry() {
        let (inst, start) = unrelated_strict_local_optimum();
        // Cold from the start: the walk enters the plateau phase at once and
        // the entry check finds the frozen state.
        let cold = AnnealConfig { initial_temp_fraction: 0.0, cooling: 1.0, ..cfg(4) };
        let res = anneal_unrelated(&inst, &start, &cold);
        assert_eq!((res.plateau_entry, res.proposals, res.accepted), (Some(0), 0, 0));
        assert_eq!(res.schedule, start);
        // Warm enough to run Metropolis proposals first (each passes with
        // probability below e^-40), then halving: entry is the first
        // iteration whose temperature is below 1/1000, long before the
        // patience of 128 rejections would have run a frozen scan.
        let warm = AnnealConfig { initial_temp_fraction: 0.01, cooling: 0.5, ..cfg(4) };
        let entry = std::iter::successors(Some(19.0 * 0.01), |t| Some(t * 0.5))
            .position(|t: f64| t * 1000.0 < 1.0)
            .unwrap();
        assert!(entry > 0);
        let res = anneal::<sst_core::model::Splittable>(&inst, &start, &warm);
        assert_eq!((res.plateau_entry, res.proposals, res.accepted), (Some(entry), entry, 0));
        assert_eq!(res.schedule, start);
    }

    #[test]
    fn loads_near_2_pow_53_stay_in_the_metropolis_phase() {
        // Machine 0 carries 2^53 alone; the two unit jobs share class 1.
        // Moving one onto machine 0 gives 2^53 + 1, which converts to the
        // same f64 as 2^53: a zero delta the Metropolis loop accepts at zero
        // temperature, where the integer comparison would reject it, so the
        // guard must keep the walk out of the plateau phase. Some zero-delta
        // move exists in every state the walk reaches, so it never freezes;
        // it finds no new best, so the stall stop ends it one window (256
        // neighbourhoods of 6) after its start.
        let big = 1u64 << 53;
        let inst = UnrelatedInstance::new(
            2,
            vec![0, 1, 1],
            vec![vec![big, INF], vec![1, 1], vec![1, 1]],
            vec![vec![0, 0], vec![0, 0]],
        )
        .unwrap();
        let start = Schedule::new(vec![0, 1, 1]);
        let cold = AnnealConfig { initial_temp_fraction: 0.0, cooling: 1.0, ..cfg(8) };
        let res = anneal_unrelated(&inst, &start, &cold);
        assert_eq!(res.plateau_entry, None);
        assert_eq!((res.exit, res.proposals), (AnnealExit::Stalled, STALL_SWEEPS * 6));
        assert!(res.accepted > 0, "float-equal rises must pass");
        assert_eq!((res.improvements, &res.schedule), (0, &start));
    }

    #[test]
    fn anneal_tracks_best_not_last() {
        // With a hot temperature and many iterations the *current* state
        // wanders; the returned schedule must still be the best seen.
        let inst = UniformInstance::identical(
            2,
            vec![0],
            vec![Job::new(0, 5), Job::new(0, 5), Job::new(0, 5), Job::new(0, 5)],
        )
        .unwrap();
        let start = Schedule::new(vec![0, 0, 0, 0]);
        let res = anneal_uniform(
            &inst,
            &start,
            &AnnealConfig {
                iterations: 10_000,
                initial_temp_fraction: 2.0, // very hot
                cooling: 1.0,               // never cools
                class_move_prob: 0.0,
                seed: 5,
            },
        );
        // Best possible split is 10/10.
        assert_eq!(uniform_makespan(&inst, &res.schedule).unwrap(), Ratio::new(10, 1));
    }
}
