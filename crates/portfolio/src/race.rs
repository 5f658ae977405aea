//! The racing executor: top-k portfolio members run concurrently against a
//! shared deadline, cross-seeding one incumbent.
//!
//! Cross-seeding is what makes a race more than k independent runs:
//!
//! * the model's greedy baseline ([`crate::model::ModelOps::greedy`]) is
//!   published *before* any thread starts, so the race can never return
//!   worse than greedy — on any machine model;
//! * the best-known unrelated makespan lives in an `AtomicU64` that the
//!   branch-and-bound reads as its pruning bound
//!   ([`sst_algos::exact::exact_unrelated_budgeted`]) — a heuristic result
//!   published early shrinks the exact search tree;
//! * the integral search heuristics (local search, annealing) warm-start
//!   from the incumbent *assignment* via [`Incumbent::snapshot`],
//!   descending from the best point any member has reached instead of from
//!   scratch.
//!
//! Threads are plain `std::thread::scope` workers, except that a sole
//! raced member runs inline on the calling thread (a spawn and join would
//! cost more than a short member); the incumbent is a
//! `parking_lot`-style mutex around the best `(solution, cost, winner)`
//! plus the atomic bound. Every member polls the request's
//! [`CancelToken`], so the race returns within one check interval of the
//! deadline with per-solver attribution.
//!
//! With a [`WinRateTracker`], the effective `top_k` additionally
//! **shrinks** to the members in good standing for the instance's feature
//! family ([`crate::select::Portfolio::active`]): solvers that raced
//! often and never won stop consuming race capacity, freeing cores for
//! the members that win.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use sst_core::cancel::CancelToken;
use sst_core::telemetry::{self, stage, Telemetry, TraceEvent};

use crate::features::extract_features;
use crate::model::Solution;
use crate::select::{select_portfolio, WinRateTracker};
use crate::solver::{Cost, ProblemInstance, SolveContext, Solver};

/// Knobs of one race.
#[derive(Debug, Clone, Copy)]
pub struct RaceConfig {
    /// How many ranked portfolio members run concurrently.
    pub top_k: usize,
    /// Wall-clock budget; the shared deadline of every member.
    pub budget: Duration,
    /// Base seed; each member gets `seed + slot` for diversity.
    pub seed: u64,
}

impl Default for RaceConfig {
    fn default() -> Self {
        RaceConfig { top_k: 3, budget: Duration::from_millis(200), seed: 1 }
    }
}

/// The shared incumbent of a race: best solution/cost/author so far plus
/// the atomic pruning bound for the unrelated branch-and-bound.
pub struct Incumbent {
    best: Mutex<Option<(Solution, Cost, &'static str)>>,
    bound: AtomicU64,
}

impl Default for Incumbent {
    fn default() -> Self {
        Self::new()
    }
}

impl Incumbent {
    /// An empty incumbent (bound starts at `u64::MAX`).
    pub fn new() -> Self {
        Incumbent { best: Mutex::named("race.incumbent", None), bound: AtomicU64::new(u64::MAX) }
    }

    /// Publishes a result; keeps it iff it strictly improves. Returns
    /// whether it became the new incumbent.
    pub fn offer(&self, name: &'static str, solution: Solution, cost: Cost) -> bool {
        let mut guard = self.best.lock();
        let improved = guard.as_ref().map(|(_, c, _)| cost.better_than(c)).unwrap_or(true);
        if improved {
            if let Cost::Time(t) = cost {
                self.bound.fetch_min(t, Ordering::Relaxed);
            }
            *guard = Some((solution, cost, name));
        }
        improved
    }

    /// A clone of the current best `(solution, cost)` — the warm start of
    /// the integral search heuristics.
    pub fn snapshot(&self) -> Option<(Solution, Cost)> {
        self.best.lock().as_ref().map(|(s, c, _)| (s.clone(), *c))
    }

    /// The atomic makespan bound (unrelated machines) for B&B pruning.
    pub fn bound(&self) -> &AtomicU64 {
        &self.bound
    }

    fn into_best(self) -> Option<(Solution, Cost, &'static str)> {
        self.best.into_inner()
    }
}

/// Attribution of one portfolio member's run.
#[derive(Debug, Clone)]
pub struct SolverReport {
    /// Solver name.
    pub name: &'static str,
    /// Cost it achieved (`None` when it declined or failed).
    pub cost: Option<Cost>,
    /// Wall-clock microseconds it ran.
    pub micros: u64,
    /// Whether it ran to natural completion (vs. deadline/limit cutoff).
    pub completed: bool,
}

/// Winner plus per-solver attribution of one race.
#[derive(Debug, Clone)]
pub struct RaceResult {
    /// The best solution found, in the model's native solution space.
    pub solution: Solution,
    /// Its exact cost.
    pub cost: Cost,
    /// Name of the member that produced it (`"greedy-baseline"` when no
    /// member beat the pre-published greedy floor).
    pub winner: &'static str,
    /// One report per raced member, in portfolio rank order.
    pub reports: Vec<SolverReport>,
    /// Total wall-clock microseconds of the race.
    pub micros: u64,
}

/// Name under which a session's repaired incumbent is pre-published as a
/// race floor (see [`race_observed`]); reported as the winner when no
/// raced member improves on it.
pub const WARM_INCUMBENT: &str = "warm-incumbent";

/// Telemetry context of one observed race ([`race_observed`]): the serving
/// process's telemetry handle plus the request id stamped on every event.
#[derive(Debug, Clone, Copy)]
pub struct RaceObserver<'a> {
    /// Metrics registry and trace sink of the serving process.
    pub telemetry: &'a Telemetry,
    /// Request id carried by every trace event of this race, linking the
    /// race span to its enqueue/dequeue/respond events.
    pub id: u64,
}

impl RaceObserver<'_> {
    /// Records an improving incumbent offer: an `incumbent` trace event,
    /// the per-solver improvement counter, and — the first time `solver`
    /// improves the incumbent in this race — its time-to-first-incumbent.
    fn note_incumbent(
        &self,
        t0: Instant,
        first: &Mutex<Vec<&'static str>>,
        solver: &'static str,
        cost: Cost,
    ) {
        let at_us = t0.elapsed().as_micros() as u64;
        self.telemetry.emit(TraceEvent::Incumbent {
            id: self.id,
            solver: solver.to_string(),
            at_us,
            makespan: cost.to_f64(),
        });
        self.telemetry.incr(&telemetry::solver_improvements(solver));
        let mut seen = first.lock();
        if !seen.contains(&solver) {
            seen.push(solver);
            self.telemetry.record(&telemetry::solver_first_incumbent(solver), at_us);
        }
    }
}

/// Races the top-k selected solvers on `inst` under `cfg.budget`: no
/// win-rate tracker, no floor, no observer.
pub fn race(inst: &ProblemInstance, cfg: &RaceConfig) -> RaceResult {
    race_observed(inst, cfg, None, None, None)
}

/// The race the server runs, with its three optional inputs:
///
/// * `tracker` — the adaptive-selection feedback loop: the portfolio
///   ranking consults the tracker's per-family win-rate scores — recent
///   winners rank first, members whose score decayed out demote and
///   shrink the raced top-k (never below one) — and the race's outcome is
///   recorded back so future selections learn from it.
/// * `floor` — the warm re-solve mode of a scheduling session. The floor
///   (a session's repaired incumbent and its exact cost) is offered to the
///   shared incumbent *before* the greedy baseline and before any member
///   starts: the race can only improve on it, the integral search
///   heuristics warm-start from it ([`Incumbent::snapshot`]), and its cost
///   prunes the unrelated branch-and-bound — so a re-solve after a small
///   delta spends its whole budget ahead of, never re-deriving, the
///   previous solution. A floor win (no member improved) is attributed to
///   [`WARM_INCUMBENT`] and is not demotion evidence against the raced
///   members beyond the usual no-winner decay.
/// * `obs` — trace/metrics instrumentation: when set, the race emits a
///   `race_start` event, per-member `solver_start`/`solver_end` spans
///   (outcome `completed`, `cancelled`, or `declined`), an `incumbent`
///   event for every improving offer (including the floor and baseline
///   pre-publishes), and a `cancel` event carrying the cancellation
///   latency — how far past the shared deadline a cut-off member kept
///   running — of every member that did not finish naturally. The registry side records
///   per-solver improvement counts, time-to-first-incumbent histograms,
///   win counters, and the [`stage::CANCEL_US`] histogram, and the serial
///   prologue before any member starts (features, selection, floors)
///   feeds [`stage::FLOOR_US`]. The observer sits entirely off the solve
///   path: with `None` the race runs the same way, unrecorded.
pub fn race_observed(
    inst: &ProblemInstance,
    cfg: &RaceConfig,
    tracker: Option<&WinRateTracker>,
    floor: Option<(Solution, Cost)>,
    obs: Option<RaceObserver<'_>>,
) -> RaceResult {
    let t0 = Instant::now();
    let feat = extract_features(inst);
    let portfolio = select_portfolio(&feat, tracker);
    // Static clamp to the ranking, then the adaptive shrink: demoted
    // members do not consume race slots (capacity freed for winners), but
    // at least one member always races.
    let k = cfg.top_k.clamp(1, portfolio.ranked.len()).min(portfolio.active);
    let members = &portfolio.ranked[..k];
    if let Some(o) = &obs {
        o.telemetry.emit(TraceEvent::RaceStart { id: o.id, members: k as u64 });
    }
    // Which solvers already improved the incumbent in this race, for the
    // time-to-first-incumbent histograms. Untouched when unobserved.
    let first_incumbent: Mutex<Vec<&'static str>> =
        Mutex::named("race.first_incumbent", Vec::new());
    let incumbent = Incumbent::new();
    // The session floor (when re-solving) and the quality floor, both
    // published before any member starts.
    if let Some((solution, cost)) = floor {
        if incumbent.offer(WARM_INCUMBENT, solution, cost) {
            if let Some(o) = &obs {
                o.note_incumbent(t0, &first_incumbent, WARM_INCUMBENT, cost);
            }
        }
    }
    let baseline = inst.greedy();
    let baseline_cost = baseline.cost;
    if incumbent.offer("greedy-baseline", baseline.solution, baseline_cost) {
        if let Some(o) = &obs {
            o.note_incumbent(t0, &first_incumbent, "greedy-baseline", baseline_cost);
        }
    }
    if let Some(o) = &obs {
        o.telemetry.record(stage::FLOOR_US, t0.elapsed().as_micros() as u64);
    }
    let cancel = CancelToken::with_deadline(cfg.budget);
    let reports: Mutex<Vec<(usize, SolverReport)>> =
        Mutex::named("race.reports", Vec::with_capacity(k));
    let run = |slot: usize, solver: &'static dyn Solver| {
        if let Some(o) = &obs {
            o.telemetry.emit(TraceEvent::SolverStart { id: o.id, solver: solver.name().into() });
        }
        let seed = cfg.seed.wrapping_add(slot as u64);
        let ctx = SolveContext { cancel: &cancel, seed, incumbent: &incumbent };
        let started = Instant::now();
        let outcome = solver.solve(inst, &ctx);
        let micros = started.elapsed().as_micros() as u64;
        let report = match outcome {
            Some(out) => {
                let cost = out.cost;
                if incumbent.offer(solver.name(), out.solution, cost) {
                    if let Some(o) = &obs {
                        o.note_incumbent(t0, &first_incumbent, solver.name(), cost);
                    }
                }
                SolverReport {
                    name: solver.name(),
                    cost: Some(cost),
                    micros,
                    completed: out.complete,
                }
            }
            None => SolverReport { name: solver.name(), cost: None, micros, completed: false },
        };
        if let Some(o) = &obs {
            let outcome = match (&report.cost, report.completed) {
                (_, true) => "completed",
                (Some(_), false) => "cancelled",
                (None, false) => "declined",
            };
            o.telemetry.emit(TraceEvent::SolverEnd {
                id: o.id,
                solver: report.name.into(),
                outcome: outcome.into(),
                micros,
                makespan: report.cost.map(|c| c.to_f64()),
            });
            if !report.completed {
                // Cancellation latency: how long the member overran the
                // shared deadline before honouring the token.
                let overrun = micros.saturating_sub(cfg.budget.as_micros() as u64);
                o.telemetry.emit(TraceEvent::CancelLatency {
                    id: o.id,
                    solver: report.name.into(),
                    micros: overrun,
                });
                o.telemetry.record(stage::CANCEL_US, overrun);
            }
        }
        reports.lock().push((slot, report));
    };
    if let [solver] = members {
        // A sole member runs on the calling thread: no spawn, no join.
        run(0, *solver);
    } else {
        std::thread::scope(|scope| {
            for (slot, &solver) in members.iter().enumerate() {
                let run = &run;
                scope.spawn(move || run(slot, solver));
            }
        });
    }
    let mut ordered = reports.into_inner();
    ordered.sort_by_key(|&(slot, _)| slot);
    let (solution, cost, winner) = incumbent.into_best().expect("baseline guarantees an incumbent");
    if let Some(o) = &obs {
        o.telemetry.incr(&telemetry::solver_wins(winner));
    }
    if let Some(tracker) = tracker {
        let family = WinRateTracker::family_key(&feat);
        let raced: Vec<&'static str> = members.iter().map(|s| s.name()).collect();
        // `winner == "greedy-baseline"` means no member beat the floor:
        // everyone raced, nobody won. But a race nobody *finished* (every
        // member cut off by the deadline, e.g. a degenerate budget) is no
        // evidence of anything — recording it would let budget-starved
        // traffic permanently demote members that win at sane budgets.
        let won = raced.contains(&winner).then_some(winner);
        let any_completed = ordered.iter().any(|(_, r)| r.completed);
        if won.is_some() || any_completed {
            tracker.record(&family, &raced, won);
        }
    }
    RaceResult {
        solution,
        cost,
        winner,
        reports: ordered.into_iter().map(|(_, r)| r).collect(),
        micros: t0.elapsed().as_micros() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SplittableInstance;
    use crate::select::DEMOTION_MIN_RACES;
    use sst_core::instance::{Job, UniformInstance, UnrelatedInstance};
    use sst_core::schedule::Schedule;

    #[test]
    fn race_never_loses_to_greedy_and_attributes_the_winner() {
        let inst = ProblemInstance::Uniform(
            UniformInstance::identical(
                3,
                vec![5, 2],
                (0..12).map(|i| Job::new((i % 2) as usize, 1 + (i * 3) % 9)).collect(),
            )
            .unwrap(),
        );
        let res = race(&inst, &RaceConfig::default());
        let greedy = inst.greedy();
        assert!(
            !greedy.cost.better_than(&res.cost),
            "race ({}) must not lose to greedy ({})",
            res.cost,
            greedy.cost
        );
        assert!(!res.reports.is_empty());
        assert!(
            res.reports.iter().any(|r| r.name == res.winner) || res.winner == "greedy-baseline"
        );
        let reval = inst.evaluate(&res.solution).expect("race solution valid");
        assert_eq!(reval, res.cost);
    }

    #[test]
    fn tiny_unrelated_race_finds_the_optimum() {
        let inst = ProblemInstance::Unrelated(
            UnrelatedInstance::new(
                2,
                vec![0, 1, 0],
                vec![vec![4, 2], vec![3, 3], vec![1, 5]],
                vec![vec![1, 2], vec![2, 1]],
            )
            .unwrap(),
        );
        let res = race(&inst, &RaceConfig { top_k: 4, ..Default::default() });
        // Known optimum 6 (brute-forced in the exact solver tests).
        assert_eq!(res.cost, Cost::Time(6));
    }

    #[test]
    fn splittable_race_beats_or_ties_the_split_greedy_floor() {
        // A heavy splittable class: the LP rounding splits it, beating any
        // whole-class greedy placement.
        let inst = ProblemInstance::Splittable(SplittableInstance(
            UnrelatedInstance::restricted_assignment(
                2,
                vec![0],
                vec![40],
                vec![vec![0, 1]],
                vec![2],
                None,
            )
            .unwrap(),
        ));
        let res = race(&inst, &RaceConfig { top_k: 3, ..Default::default() });
        let greedy = inst.greedy();
        assert!(!greedy.cost.better_than(&res.cost), "{} vs {}", res.cost, greedy.cost);
        let reval = inst.evaluate(&res.solution).expect("split solution valid");
        assert_eq!(reval, res.cost);
        // Splitting is *necessary* here: greedy = 42, split optimum = 22.
        assert!(res.cost.to_f64() < greedy.cost.to_f64(), "the race must split the class");
        assert!(matches!(res.solution, Solution::Split(_)));
    }

    #[test]
    fn expired_budget_still_returns_at_least_greedy() {
        let inst = ProblemInstance::Unrelated(
            UnrelatedInstance::new(
                3,
                (0..30).map(|j| j % 4).collect(),
                (0..30).map(|j| vec![1 + j as u64 % 7, 2 + j as u64 % 5, 3]).collect(),
                vec![vec![2, 1, 3], vec![1, 2, 1], vec![3, 1, 2], vec![2, 2, 2]],
            )
            .unwrap(),
        );
        let res = race(&inst, &RaceConfig { top_k: 3, budget: Duration::ZERO, seed: 5 });
        let greedy = inst.greedy();
        assert!(!greedy.cost.better_than(&res.cost));
        assert_eq!(inst.evaluate(&res.solution).unwrap(), res.cost);
    }

    #[test]
    fn race_adaptive_records_every_raced_member_once() {
        let tracker = WinRateTracker::new();
        let inst = ProblemInstance::Uniform(
            UniformInstance::identical(
                2,
                vec![2],
                (0..10).map(|i| Job::new(0, 1 + i % 4)).collect(),
            )
            .unwrap(),
        );
        let res = race_observed(&inst, &RaceConfig::default(), Some(&tracker), None, None);
        let feat = crate::features::extract_features(&inst);
        let family = WinRateTracker::family_key(&feat);
        let mut wins = 0;
        for r in &res.reports {
            let s = tracker.stats(&family, r.name);
            assert_eq!(s.races, 1, "{} raced exactly once", r.name);
            wins += s.wins;
        }
        // Exactly one member win, unless greedy-baseline kept the floor.
        assert_eq!(wins, u64::from(res.winner != "greedy-baseline"));
    }

    #[test]
    fn adaptive_top_k_shrinks_to_members_in_good_standing() {
        // Demote everything except the statically-first member, then race
        // with top_k = 3: only the one member in good standing may hold a
        // slot — demotion frees capacity instead of reordering it.
        let inst = ProblemInstance::Uniform(
            UniformInstance::identical(
                2,
                vec![2],
                (0..24).map(|i| Job::new(0, 1 + i % 4)).collect(),
            )
            .unwrap(),
        );
        let feat = crate::features::extract_features(&inst);
        let family = WinRateTracker::family_key(&feat);
        let ranked = crate::select::select(&feat);
        let survivor = ranked[0].name();
        let tracker = WinRateTracker::new();
        for s in &ranked[1..] {
            for _ in 0..DEMOTION_MIN_RACES {
                tracker.record(&family, &[s.name()], None);
            }
        }
        let cfg = RaceConfig { top_k: 3, ..Default::default() };
        let res = race_observed(&inst, &cfg, Some(&tracker), None, None);
        assert_eq!(res.reports.len(), 1, "top-k must shrink to the good-standing prefix");
        assert_eq!(res.reports[0].name, survivor);
        // The greedy floor still holds even with one racer.
        let greedy = inst.greedy();
        assert!(!greedy.cost.better_than(&res.cost));
    }

    #[test]
    fn budget_starved_race_records_no_demotion_evidence() {
        // Zero budget: every raced member is cut off and nobody beats the
        // greedy floor. Such a race must not count toward demotion.
        let tracker = WinRateTracker::new();
        let inst = ProblemInstance::Unrelated(
            UnrelatedInstance::new(
                3,
                (0..30).map(|j| j % 4).collect(),
                (0..30).map(|j| vec![1 + j as u64 % 7, 2 + j as u64 % 5, 3]).collect(),
                vec![vec![2, 1, 3], vec![1, 2, 1], vec![3, 1, 2], vec![2, 2, 2]],
            )
            .unwrap(),
        );
        let cfg = RaceConfig { top_k: 3, budget: Duration::ZERO, seed: 5 };
        let res = race_observed(&inst, &cfg, Some(&tracker), None, None);
        if res.winner == "greedy-baseline" && res.reports.iter().all(|r| !r.completed) {
            let feat = crate::features::extract_features(&inst);
            let family = WinRateTracker::family_key(&feat);
            for r in &res.reports {
                assert_eq!(
                    tracker.stats(&family, r.name).races,
                    0,
                    "{} must not accumulate starved-race evidence",
                    r.name
                );
            }
        }
    }

    #[test]
    fn floor_can_only_be_improved_and_wins_when_unbeaten() {
        let inst = ProblemInstance::Unrelated(
            UnrelatedInstance::new(
                2,
                vec![0, 1, 0],
                vec![vec![4, 2], vec![3, 3], vec![1, 5]],
                vec![vec![1, 2], vec![2, 1]],
            )
            .unwrap(),
        );
        // Establish the optimum (6, brute-forced in the exact solver
        // tests), then re-race with it pre-published as the session floor:
        // nothing can strictly improve it, so the floor is the winner.
        let first = race(&inst, &RaceConfig { top_k: 4, ..Default::default() });
        assert_eq!(first.cost, Cost::Time(6));
        let cfg = RaceConfig { top_k: 4, ..Default::default() };
        let res =
            race_observed(&inst, &cfg, None, Some((first.solution.clone(), first.cost)), None);
        assert_eq!(res.cost, Cost::Time(6));
        assert_eq!(res.winner, WARM_INCUMBENT, "unbeaten floor must be attributed");
        assert_eq!(inst.evaluate(&res.solution).unwrap(), res.cost);
        // A deliberately bad floor is simply improved past: the race never
        // returns worse than greedy even when the floor is worse.
        let bad = inst.greedy();
        let worse_cost = Cost::Time(match bad.cost {
            Cost::Time(t) => t + 100,
            _ => unreachable!("unrelated greedy is a time cost"),
        });
        let res = race_observed(&inst, &cfg, None, Some((bad.solution, worse_cost)), None);
        assert!(!bad.cost.better_than(&res.cost), "bad floors must not cap quality");
    }

    #[test]
    fn observed_race_emits_a_full_span_with_matching_ids() {
        use sst_core::telemetry::{Telemetry, TraceSink};
        let (sink, buf) = TraceSink::to_shared_buffer();
        let tel = Telemetry::new(Some(sink));
        let inst = ProblemInstance::Uniform(
            UniformInstance::identical(
                3,
                vec![5, 2],
                (0..12).map(|i| Job::new((i % 2) as usize, 1 + (i * 3) % 9)).collect(),
            )
            .unwrap(),
        );
        let obs = RaceObserver { telemetry: &tel, id: 42 };
        let res = race_observed(&inst, &RaceConfig::default(), None, None, Some(obs));
        tel.close_trace();
        let text = String::from_utf8(buf.lock().clone()).unwrap();
        let count = |kind: &str| {
            text.lines().filter(|l| l.contains(&format!("\"event\": \"{kind}\""))).count()
        };
        assert_eq!(count("race_start"), 1);
        assert_eq!(
            count("solver_start"),
            res.reports.len(),
            "one solver_start per raced member:\n{text}"
        );
        assert_eq!(count("solver_end"), res.reports.len());
        assert!(count("incumbent") >= 1, "the baseline publish is an incumbent event");
        assert!(
            text.lines().filter(|l| !l.contains("sink_close")).all(|l| l.contains("\"id\": 42")),
            "every race event carries the request id:\n{text}"
        );
        // Registry side: the winner's win counter and the baseline's
        // improvement counter moved.
        let snap = tel.registry().snapshot();
        assert_eq!(snap.counter(&sst_core::telemetry::solver_wins(res.winner)), 1);
        assert!(
            snap.counter(&sst_core::telemetry::solver_improvements("greedy-baseline")) >= 1
                || res.winner != "greedy-baseline"
        );
    }

    #[test]
    fn sole_member_runs_inline_with_the_same_span_and_floor_stage() {
        use sst_core::telemetry::{Telemetry, TraceSink};
        let (sink, buf) = TraceSink::to_shared_buffer();
        let tel = Telemetry::new(Some(sink));
        let inst = ProblemInstance::Unrelated(
            UnrelatedInstance::new(
                2,
                vec![0, 1, 0],
                vec![vec![4, 2], vec![3, 3], vec![1, 5]],
                vec![vec![1, 2], vec![2, 1]],
            )
            .unwrap(),
        );
        let cfg = RaceConfig { top_k: 1, ..Default::default() };
        let obs = RaceObserver { telemetry: &tel, id: 7 };
        let res = race_observed(&inst, &cfg, None, None, Some(obs));
        tel.close_trace();
        let text = String::from_utf8(buf.lock().clone()).unwrap();
        let count = |kind: &str| {
            text.lines().filter(|l| l.contains(&format!("\"event\": \"{kind}\""))).count()
        };
        assert_eq!(res.reports.len(), 1);
        assert_eq!((count("race_start"), count("solver_start"), count("solver_end")), (1, 1, 1));
        assert!(
            res.winner == res.reports[0].name || res.winner == "greedy-baseline",
            "the winner is attributed: {}",
            res.winner
        );
        assert_eq!(inst.evaluate(&res.solution).unwrap(), res.cost);
        let snap = tel.registry().snapshot();
        let floor = snap.histogram(stage::FLOOR_US).expect("the prologue is recorded");
        assert_eq!(floor.count(), 1);
        assert!(floor.max() <= res.micros, "the prologue is part of the race");
    }

    #[test]
    fn observer_does_not_change_the_race_answer() {
        use sst_core::telemetry::Telemetry;
        let inst = ProblemInstance::Unrelated(
            UnrelatedInstance::new(
                2,
                vec![0, 1, 0],
                vec![vec![4, 2], vec![3, 3], vec![1, 5]],
                vec![vec![1, 2], vec![2, 1]],
            )
            .unwrap(),
        );
        let cfg = RaceConfig { top_k: 4, ..Default::default() };
        let tel = Telemetry::new(None);
        let obs = RaceObserver { telemetry: &tel, id: 1 };
        let a = race_observed(&inst, &cfg, None, None, Some(obs));
        let b = race(&inst, &cfg);
        assert_eq!(a.cost, b.cost, "deterministic optimum either way");
    }

    #[test]
    fn incumbent_bound_tracks_unrelated_offers() {
        let inc = Incumbent::new();
        let sol = || Solution::Assignment(Schedule::new(vec![0]));
        assert!(inc.offer("a", sol(), Cost::Time(10)));
        assert!(!inc.offer("b", sol(), Cost::Time(12)), "worse offer rejected");
        assert!(inc.offer("c", sol(), Cost::Time(7)));
        assert_eq!(inc.bound().load(Ordering::Relaxed), 7);
        let (_, cost, winner) = inc.into_best().unwrap();
        assert_eq!(cost, Cost::Time(7));
        assert_eq!(winner, "c");
    }
}
