//! Rule-based algorithm selection: features → ranked portfolio, refined
//! online by per-family win rates.
//!
//! The rules encode what the paper's theory and this repo's experiments
//! say about which tool wins where:
//!
//! * tiny instances (`n ≤ 18`) — branch-and-bound can certify the optimum
//!   within a race budget, so it leads;
//! * class-uniform processing times — the 3-approximation of Theorem 3.11
//!   applies and its LP bound certifies the result;
//! * restricted assignment with class-uniform restrictions — the
//!   2-approximation of Theorem 3.10 leads;
//! * dense unrelated instances of moderate size — randomized LP rounding
//!   (Theorem 3.3) is worth one simplex run;
//! * uniform machines — LPT (Lemma 2.1) is the guaranteed fast start;
//!   MULTIFIT ranks higher when setups dominate (its FFD core batches),
//!   and the PTAS joins on small instances;
//! * the splittable model — the structure-matched LP rounding of Section
//!   3.3 (`split2` / `split3`) leads, followed by the integral-sub-space
//!   descent (`split-refine`);
//! * always — the model's greedy floor; the integral models additionally
//!   get tracker-based local search and the annealer, which warm-start
//!   from whatever the faster members already published.
//!
//! The racer takes the top-k of this ranking and runs them concurrently.
//!
//! On top of the static rules sits the **adaptive layer**
//! ([`WinRateTracker`] + [`select_portfolio`]): the racing executor
//! reports which member actually produced each race's winning solution,
//! keyed by a coarse feature family. Each `(family, member)` pair carries
//! a **recency-decayed win score** ([`SCORE_DECAY`]): a win banks
//! `1 − SCORE_DECAY`, every race decays the balance geometrically.
//! Members in good standing are ranked by that score (recent winners
//! first; members without [`DEMOTION_MIN_RACES`] races of evidence float
//! at an optimistic prior and keep their static order); a member whose
//! score decayed below [`DEMOTION_SCORE`] with enough evidence is
//! *demoted* — stably moved behind every member that still might win, and
//! **excluded from the top-k slots** ([`Portfolio::active`]): the racer
//! shrinks its effective `top_k` to the members in good standing instead
//! of merely reordering, so demoted members stop consuming race capacity
//! on stable traffic — and unlike the former binary never-won rule, one
//! long-ago win no longer immunizes forever. The portfolio never shrinks
//! below one member, and the greedy *floor* is unaffected — the racer
//! pre-publishes it outside the portfolio ranking, so a demoted greedy
//! member costs quality nothing.

use std::collections::BTreeMap;

use parking_lot::Mutex;

use crate::features::{Features, ModelKind};
use crate::solver::{
    AnnealSolver, Cupt3Solver, ExactSolver, GreedySolver, LocalSearchSolver, LptSolver,
    MultifitSolver, PtasSolver, Ra2Solver, RoundingSolver, Solver, Split2Solver, Split3Solver,
    SplitRefineSolver,
};

static GREEDY: GreedySolver = GreedySolver;
static LPT: LptSolver = LptSolver;
static MULTIFIT: MultifitSolver = MultifitSolver;
static PTAS: PtasSolver = PtasSolver { q: 4 };
static ROUNDING: RoundingSolver = RoundingSolver;
static RA2: Ra2Solver = Ra2Solver;
static CUPT3: Cupt3Solver = Cupt3Solver;
static EXACT: ExactSolver = ExactSolver;
static LOCAL_SEARCH: LocalSearchSolver = LocalSearchSolver;
static ANNEAL: AnnealSolver = AnnealSolver;
static SPLIT2: Split2Solver = Split2Solver;
static SPLIT3: Split3Solver = Split3Solver;
static SPLIT_REFINE: SplitRefineSolver = SplitRefineSolver;

static REGISTRY: [&dyn Solver; 13] = [
    &GREEDY,
    &LPT,
    &MULTIFIT,
    &PTAS,
    &ROUNDING,
    &RA2,
    &CUPT3,
    &EXACT,
    &LOCAL_SEARCH,
    &ANNEAL,
    &SPLIT2,
    &SPLIT3,
    &SPLIT_REFINE,
];

/// Every solver the portfolio knows, in no particular order.
pub fn registry() -> &'static [&'static dyn Solver] {
    &REGISTRY
}

/// Maps features to a ranked, non-empty portfolio of applicable solvers.
/// The first entry is the selector's single-algorithm pick; a racer runs
/// the first k concurrently.
pub fn select(feat: &Features) -> Vec<&'static dyn Solver> {
    let mut ranked: Vec<&'static dyn Solver> = Vec::new();
    let mut push = |s: &'static dyn Solver| {
        if s.supports(feat) && !ranked.iter().any(|r| std::ptr::eq(*r, s)) {
            ranked.push(s);
        }
    };
    // Certifiable optima first on tiny instances (integral models).
    push(&EXACT);
    match feat.model {
        ModelKind::Uniform => {
            push(&LPT);
            if feat.setup_to_work >= 1.0 {
                // Setups dominate: the FFD batching core shines.
                push(&MULTIFIT);
            }
            push(&LOCAL_SEARCH);
            push(&PTAS);
            push(&ANNEAL);
            push(&MULTIFIT);
        }
        ModelKind::Unrelated => {
            // Guaranteed special-case algorithms when the structure holds.
            push(&CUPT3);
            push(&RA2);
            push(&LOCAL_SEARCH);
            push(&ROUNDING);
            push(&ANNEAL);
        }
        ModelKind::Splittable => {
            // Structure-matched LP roundings of Section 3.3 lead (each
            // gated by its structure via supports); the integral-sub-space
            // descent refines alongside.
            push(&SPLIT3);
            push(&SPLIT2);
            push(&SPLIT_REFINE);
        }
    }
    // The floor — also what the race baseline is measured against.
    push(&GREEDY);
    debug_assert!(!ranked.is_empty());
    ranked
}

/// Races a `(family, solver)` pair must accumulate before its score may
/// demote it. Below this the evidence is noise: with `top_k = 3` a strong
/// member can legitimately lose a handful of races to warm-started
/// heuristics before its first win.
pub const DEMOTION_MIN_RACES: u64 = 8;

/// Per-race exponential decay of the win score: after each race
/// `score ← score · DECAY + (won ? 1 − DECAY : 0)`, so the score is a
/// recency-weighted win rate in `[0, 1]` — a win is worth `1 − DECAY`
/// immediately and fades geometrically as winless races accumulate.
pub const SCORE_DECAY: f64 = 0.8;

/// Score below which a member with enough evidence is demoted. A single
/// win (`1 − SCORE_DECAY = 0.2`) decays below this after
/// `log(DEMOTION_SCORE / 0.2) / log(SCORE_DECAY) ≈ 11` winless races —
/// the *recency* half of the rule: old glory expires, unlike the former
/// binary never-won rule under which one win immunized forever.
pub const DEMOTION_SCORE: f64 = 0.02;

/// Win/loss record of one `(family, solver)` pair.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct WinStats {
    /// Races in which the solver held a top-k slot.
    pub races: u64,
    /// Races whose final incumbent this solver produced.
    pub wins: u64,
    /// Recency-decayed win score (see [`SCORE_DECAY`]): the ranking and
    /// demotion signal.
    pub score: f64,
}

impl WinStats {
    /// The demotion rule: enough races ([`DEMOTION_MIN_RACES`]) and a win
    /// score that decayed below [`DEMOTION_SCORE`]. A member that never
    /// won scores exactly 0 and demotes at the evidence floor, like the
    /// old binary rule; a member whose last win is ~11+ races in the past
    /// demotes too — demotion is no longer sticky-proof to one lucky win.
    pub fn demoted(&self) -> bool {
        self.races >= DEMOTION_MIN_RACES && self.score < DEMOTION_SCORE
    }

    /// The ranking key of [`select_portfolio`]: the decayed score for
    /// members with enough evidence; members still accumulating evidence
    /// float at least at [`DEMOTION_SCORE`] (an optimistic prior), so an
    /// unraced member keeps its static-rule position until proven, while
    /// any recent winner outranks it.
    pub fn ranking_score(&self) -> f64 {
        if self.races >= DEMOTION_MIN_RACES {
            self.score
        } else {
            self.score.max(DEMOTION_SCORE)
        }
    }
}

/// Per-family solver win rates, fed back from race results
/// ([`crate::race::race_observed`]) and consulted by [`select_portfolio`].
///
/// Thread-safe and shared across a serve pool's workers: every worker
/// records into the same tracker, so demotion decisions reflect the whole
/// service's traffic, not one worker's slice.
#[derive(Debug, Default)]
pub struct WinRateTracker {
    /// family key → solver name → record. Two levels so the per-request
    /// read path ([`select_portfolio`]) resolves the family once and then
    /// probes solver names without allocating per-lookup keys.
    stats: Mutex<BTreeMap<String, BTreeMap<&'static str, WinStats>>>,
}

impl WinRateTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// The coarse feature family a race is binned under. Deliberately few
    /// buckets (machine model × special-case structure × setup weight ×
    /// size band): win-rate evidence must accumulate fast enough at serve
    /// time to act on, and the static rules already encode the fine
    /// structure. The size band keeps evidence from tiny instances (where
    /// fast constructions win everything) from demoting the heavyweight
    /// members on large instances, where they earn their keep — demotion
    /// is permanent within a family, so families must not mix regimes.
    pub fn family_key(feat: &Features) -> String {
        let setups = if feat.setup_to_work >= 1.0 { "setup-heavy" } else { "setup-light" };
        let size = match feat.n {
            0..=18 => "tiny",
            19..=80 => "mid",
            _ => "large",
        };
        let model = feat.model.as_str();
        match feat.model {
            ModelKind::Uniform => format!("{model}|{setups}|{size}"),
            ModelKind::Unrelated | ModelKind::Splittable => format!(
                "{model}|ra={}|cur={}|cupt={}|{setups}|{size}",
                feat.restricted, feat.class_uniform_restrictions, feat.class_uniform_ptimes
            ),
        }
    }

    /// Records one race: every member of `raced` held a slot; `winner` is
    /// the member that produced the final incumbent, or `None` when no
    /// member beat the pre-published floor. Each member's score decays by
    /// [`SCORE_DECAY`] and the winner banks `1 − SCORE_DECAY`.
    pub fn record(&self, family: &str, raced: &[&'static str], winner: Option<&str>) {
        let mut stats = self.stats.lock();
        if !stats.contains_key(family) {
            stats.insert(family.to_string(), BTreeMap::new());
        }
        let by_solver = stats.get_mut(family).expect("inserted above");
        for &name in raced {
            let s = by_solver.entry(name).or_default();
            s.races += 1;
            let won = winner == Some(name);
            s.score = s.score * SCORE_DECAY + if won { 1.0 - SCORE_DECAY } else { 0.0 };
            if won {
                s.wins += 1;
            }
        }
    }

    /// A snapshot of every `(family, solver)` record, most-raced first —
    /// the standings payload of the `{"metrics": true}` probe.
    pub fn standings(&self) -> Vec<(String, &'static str, WinStats)> {
        let stats = self.stats.lock();
        let mut rows: Vec<(String, &'static str, WinStats)> = stats
            .iter()
            .flat_map(|(family, by_solver)| {
                by_solver.iter().map(move |(&name, &s)| (family.clone(), name, s))
            })
            .collect();
        rows.sort_by(|a, b| b.2.races.cmp(&a.2.races).then_with(|| a.0.cmp(&b.0)));
        rows
    }

    /// The record of one `(family, solver)` pair (zeroes when never raced).
    pub fn stats(&self, family: &str, name: &'static str) -> WinStats {
        self.stats
            .lock()
            .get(family)
            .and_then(|by_solver| by_solver.get(name))
            .copied()
            .unwrap_or_default()
    }
}

/// A ranked portfolio plus the prefix length still in good standing — the
/// racer's race-capacity budget.
pub struct Portfolio {
    /// All applicable solvers: members in good standing first (in static
    /// rule order), demoted members stably behind them.
    pub ranked: Vec<&'static dyn Solver>,
    /// How many leading members are in good standing. Never 0: when every
    /// member is demoted, the first demoted member stays active so a race
    /// always has at least one contender (the greedy floor is published
    /// outside the ranking and needs no slot).
    pub active: usize,
}

/// [`select`], refined by the scored win-rate × recency ranking: members
/// in good standing are stably ordered by descending
/// [`WinStats::ranking_score`] (recent winners first; members without
/// enough evidence float at the optimistic prior, i.e. keep their static
/// relative order), demoted members (see [`WinStats::demoted`])
/// move — stably — behind every member still in good standing, and
/// [`Portfolio::active`] tells the racer how many leading slots are worth
/// racing (the per-family `top_k` *shrinking*: demoted members free
/// capacity instead of merely being reordered). With no tracker (or no
/// history) the ranking is exactly [`select`]'s and every member is
/// active.
pub fn select_portfolio(feat: &Features, tracker: Option<&WinRateTracker>) -> Portfolio {
    let ranked = select(feat);
    let Some(tracker) = tracker else {
        let active = ranked.len();
        return Portfolio { ranked, active };
    };
    let family = WinRateTracker::family_key(feat);
    // One lock and one family resolution for the whole partition — this
    // runs per served request, on a mutex every worker also records into.
    let stats = tracker.stats.lock();
    let Some(by_solver) = stats.get(&family) else {
        let active = ranked.len();
        return Portfolio { ranked, active };
    };
    let stat_of = |s: &&'static dyn Solver| by_solver.get(s.name()).copied().unwrap_or_default();
    let (mut kept, demoted): (Vec<_>, Vec<_>) =
        ranked.into_iter().partition(|s| !stat_of(s).demoted());
    // Stable sort: equal ranking scores (e.g. the shared prior of
    // unproven members) keep the static rule order.
    kept.sort_by(|a, b| {
        stat_of(b)
            .ranking_score()
            .partial_cmp(&stat_of(a).ranking_score())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    drop(stats);
    let active = kept.len().max(1);
    Portfolio { ranked: kept.into_iter().chain(demoted).collect(), active }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::extract_features;
    use crate::model::SplittableInstance;
    use crate::solver::ProblemInstance;
    use sst_core::instance::{Job, UniformInstance, UnrelatedInstance};

    fn names(v: &[&'static dyn Solver]) -> Vec<&'static str> {
        v.iter().map(|s| s.name()).collect()
    }

    #[test]
    fn tiny_instances_lead_with_exact() {
        let inst = ProblemInstance::Uniform(
            UniformInstance::identical(2, vec![1], vec![Job::new(0, 3), Job::new(0, 4)]).unwrap(),
        );
        let ranked = select(&extract_features(&inst));
        assert_eq!(ranked[0].name(), "exact");
        assert!(names(&ranked).contains(&"lpt"));
    }

    #[test]
    fn heavy_setups_promote_multifit() {
        let jobs: Vec<Job> = (0..40).map(|i| Job::new(i % 3, 2)).collect();
        let heavy = ProblemInstance::Uniform(
            UniformInstance::identical(4, vec![500, 400, 600], jobs.clone()).unwrap(),
        );
        let light =
            ProblemInstance::Uniform(UniformInstance::identical(4, vec![1, 1, 1], jobs).unwrap());
        let rh = names(&select(&extract_features(&heavy)));
        let rl = names(&select(&extract_features(&light)));
        let pos = |v: &[&str], n: &str| v.iter().position(|x| *x == n).unwrap();
        assert!(pos(&rh, "multifit") < pos(&rl, "multifit"), "heavy {rh:?} vs light {rl:?}");
    }

    #[test]
    fn structure_flags_activate_guaranteed_solvers() {
        // Class-uniform processing times → cupt3 ranked, ra2 not.
        let rows = vec![vec![5, 7]; 30];
        let classes: Vec<usize> = (0..30).map(|j| j % 2).collect();
        let inst = ProblemInstance::Unrelated(
            UnrelatedInstance::new(2, classes, rows, vec![vec![2, 2], vec![3, 3]]).unwrap(),
        );
        let ranked = names(&select(&extract_features(&inst)));
        assert!(ranked.contains(&"cupt3"), "{ranked:?}");
    }

    #[test]
    fn splittable_model_ranks_structure_matched_split_solvers() {
        // CUPT structure → split3 leads (after exact declines), refine and
        // the greedy floor follow; the integral members stay out.
        let rows = vec![vec![5, 7]; 30];
        let classes: Vec<usize> = (0..30).map(|j| j % 2).collect();
        let inner = UnrelatedInstance::new(2, classes, rows, vec![vec![2, 2], vec![3, 3]]).unwrap();
        let inst = ProblemInstance::Splittable(SplittableInstance(inner));
        let ranked = names(&select(&extract_features(&inst)));
        assert_eq!(ranked[0], "split3", "{ranked:?}");
        assert!(ranked.contains(&"split-refine"), "{ranked:?}");
        assert!(ranked.contains(&"greedy"), "{ranked:?}");
        for absent in ["local-search", "anneal", "exact", "cupt3", "rounding", "lpt"] {
            assert!(!ranked.contains(&absent), "{absent} must not serve the split model");
        }
    }

    /// The hand-computed EWMA oracle: replays the same decay arithmetic
    /// the tracker applies, win-by-win.
    fn ewma(outcomes: &[bool]) -> f64 {
        outcomes
            .iter()
            .fold(0.0, |s, &won| s * SCORE_DECAY + if won { 1.0 - SCORE_DECAY } else { 0.0 })
    }

    #[test]
    fn win_rate_tracker_scoring_matches_hand_computed_oracle() {
        let t = WinRateTracker::new();
        let fam = "uniform|setup-light";
        let raced: [&'static str; 3] = ["lpt", "local-search", "anneal"];
        // 7 races, all won by lpt: nobody is demoted yet (evidence below
        // DEMOTION_MIN_RACES = 8).
        for _ in 0..7 {
            t.record(fam, &raced, Some("lpt"));
        }
        let lpt = t.stats(fam, "lpt");
        assert_eq!((lpt.races, lpt.wins), (7, 7));
        assert_eq!(lpt.score, ewma(&[true; 7]), "score must replay the decay bit-exactly");
        assert_eq!(t.stats(fam, "anneal").score, 0.0, "winless score is exactly zero");
        assert!(!t.stats(fam, "anneal").demoted(), "7 races is below the evidence floor");
        // Race 8: anneal wins once, local-search still winless.
        t.record(fam, &raced, Some("anneal"));
        let anneal = t.stats(fam, "anneal");
        assert_eq!((anneal.races, anneal.wins), (8, 1));
        assert_eq!(anneal.score, 1.0 - SCORE_DECAY, "a fresh win banks 1 − DECAY");
        assert!(!t.stats(fam, "anneal").demoted(), "a recent win keeps the score high");
        assert!(t.stats(fam, "local-search").demoted(), "8 races, score 0 → demoted");
        assert!(!t.stats(fam, "lpt").demoted());
        // A floor race (no member won) still counts and still decays.
        t.record(fam, &raced, None);
        let lpt = t.stats(fam, "lpt");
        assert_eq!((lpt.races, lpt.wins), (9, 7));
        assert_eq!(lpt.score, ewma(&[true, true, true, true, true, true, true, false, false]));
        // Families are independent: same solver, different family, clean.
        assert_eq!(t.stats("unrelated|ra=false|cur=false|cupt=false|setup-light", "lpt").races, 0);
        assert!(!t.stats("other-family", "local-search").demoted());
    }

    #[test]
    fn old_wins_decay_into_demotion() {
        // The recency half of the rule: one early win, then a winless
        // streak — the score decays geometrically and the member demotes
        // once it crosses DEMOTION_SCORE, where the former binary rule
        // kept it immune forever.
        let t = WinRateTracker::new();
        let fam = "uniform|setup-light|mid";
        t.record(fam, &["anneal"], Some("anneal"));
        let mut outcomes = vec![true];
        let mut demoted_at = None;
        for race in 2..=30u64 {
            t.record(fam, &["anneal"], None);
            outcomes.push(false);
            assert_eq!(t.stats(fam, "anneal").score, ewma(&outcomes), "race {race}");
            if t.stats(fam, "anneal").demoted() {
                demoted_at = Some(race);
                break;
            }
        }
        // Oracle: (1 − DECAY) · DECAY^t < DEMOTION_SCORE first at t = 11
        // winless races (0.2 · 0.8^11 ≈ 0.017), i.e. race 12 — and not
        // before the evidence floor.
        assert_eq!(demoted_at, Some(12), "one win must expire, not immunize");
    }

    #[test]
    fn select_adaptive_ranks_by_score_and_demotes_stably() {
        let inst = ProblemInstance::Uniform(
            UniformInstance::identical(3, vec![2], (0..30).map(|i| Job::new(0, i + 1)).collect())
                .unwrap(),
        );
        let feat = extract_features(&inst);
        let base = names(&select(&feat));
        // No tracker, or a tracker with no history: identical to select().
        assert_eq!(names(&select_portfolio(&feat, None).ranked), base);
        let t = WinRateTracker::new();
        assert_eq!(names(&select_portfolio(&feat, Some(&t)).ranked), base);
        // 8 races: anneal wins them all, the statically-first member never
        // does. Oracle: anneal (proven, score ≈ 0.83) jumps to the front,
        // the unproven members keep their static relative order at the
        // prior, the demoted first member goes last.
        let fam = WinRateTracker::family_key(&feat);
        let first: &'static str = select(&feat)[0].name();
        let raced = [first, "anneal"];
        for _ in 0..DEMOTION_MIN_RACES {
            t.record(&fam, &raced, Some("anneal"));
        }
        assert!(t.stats(&fam, "anneal").ranking_score() > DEMOTION_SCORE);
        assert!(t.stats(&fam, first).demoted());
        let adapted = names(&select_portfolio(&feat, Some(&t)).ranked);
        let mut expected: Vec<&str> = vec!["anneal"];
        expected.extend(base.iter().copied().filter(|n| *n != first && *n != "anneal"));
        expected.push(first);
        assert_eq!(adapted, expected, "score-ranked, stable at the prior, demoted last");
    }

    #[test]
    fn portfolio_active_count_shrinks_with_demotions_but_never_to_zero() {
        // Oracle-pinned shrinking: with members demoted one by one, the
        // active prefix must shrink in lockstep — and stop at 1.
        let inst = ProblemInstance::Uniform(
            UniformInstance::identical(3, vec![2], (0..30).map(|i| Job::new(0, i + 1)).collect())
                .unwrap(),
        );
        let feat = extract_features(&inst);
        let fam = WinRateTracker::family_key(&feat);
        let base = select(&feat);
        let all: Vec<&'static str> = base.iter().map(|s| s.name()).collect();
        let t = WinRateTracker::new();
        // No history: every member is active.
        let p = select_portfolio(&feat, Some(&t));
        assert_eq!(p.active, base.len());
        assert_eq!(names(&p.ranked), all);
        // Demote members one at a time; the survivor always wins so it is
        // immunized. The hand-computed oracle: active = len - #demoted.
        let winner = *all.last().expect("non-empty");
        for demote_upto in 1..all.len() {
            let victim = all[demote_upto - 1];
            for _ in 0..DEMOTION_MIN_RACES {
                t.record(&fam, &[victim, winner], Some(winner));
            }
            let p = select_portfolio(&feat, Some(&t));
            assert_eq!(
                p.active,
                all.len() - demote_upto,
                "after demoting {demote_upto} members: {:?}",
                names(&p.ranked)
            );
            // The active prefix contains no demoted member.
            for s in &p.ranked[..p.active] {
                assert!(!t.stats(&fam, s.name()).demoted(), "{} still active", s.name());
            }
        }
        // A tracker where *every* member is winless: active floors at 1,
        // not 0, and the ranking keeps the static rule order.
        let t2 = WinRateTracker::new();
        for name in &all {
            for _ in 0..DEMOTION_MIN_RACES {
                t2.record(&fam, &[name], None);
            }
        }
        let p = select_portfolio(&feat, Some(&t2));
        assert_eq!(p.active, 1, "portfolio must never shrink below one member");
        assert_eq!(names(&p.ranked), all, "all-demoted keeps the static order");
    }

    #[test]
    fn every_selected_solver_supports_the_features_and_registry_is_superset() {
        let inst = ProblemInstance::Uniform(
            UniformInstance::identical(3, vec![2], (0..30).map(|i| Job::new(0, i + 1)).collect())
                .unwrap(),
        );
        let feat = extract_features(&inst);
        let ranked = select(&feat);
        assert!(!ranked.is_empty());
        for s in &ranked {
            assert!(s.supports(&feat), "{} selected but unsupported", s.name());
        }
        assert!(ranked.len() <= registry().len());
    }
}
