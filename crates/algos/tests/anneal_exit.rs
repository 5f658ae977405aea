//! Exactness of the annealer's shortcuts: the frozen-state exit, scoring a
//! rising proposal from its target machine alone, skipping `exp` where it
//! underflows, and the integer plateau phase of the cold walk.
//!
//! `reference_anneal` below is a verbatim copy of the proposal loop as it
//! stood before any of them existed: it runs every iteration, fully
//! evaluates every proposal and calls `exp` for every worsening one. The
//! annealer must return the same schedule, `accepted` and `improvements` on
//! every model, temperature schedule and move mix — walks that start in
//! the plateau phase (`initial_temp_fraction` 1e-7) and reach it within a
//! few dozen iterations (`cooling` 0.5) included — on restricted-assignment
//! instances dense with infinite cells, next to loads whose float view
//! rounds (2^53), and on the long runs the serve race uses (400 000
//! iterations, from greedy and from its descent) on all six solve-complete
//! families and on two print-shop instances at the solve-deadline shape;
//! the exit must actually fire on the families whose walk freezes.
//!
//! The stall stop is the one shortcut that may change the answer, so the
//! reference applies the same rule (after a new best at iteration `p`,
//! `min(256 neighbourhoods, clamp(2p, 20 000, 80 000))` iterations in a
//! row without another end the walk): the annealer must return the
//! reference's schedule, `accepted` and `improvements`, and a stalled walk
//! must stop where the reference stops. On instances of a few jobs the
//! 256-neighbourhood term sets the window and it fires inside the walk; at
//! the solve-complete and solve-deadline shapes the doubling term sets it.
//!
//! The answer survey measures what the rule costs: from greedy, on
//! perfbench's catalogue instances of the four unrelated solve-complete
//! families at 48×5×6 and the four unrelated solve-deadline families at
//! 800×10×16, it prints per family how many answers differ from the
//! reference run with the window the rule replaced (256 neighbourhoods, at
//! most 80 000), the change of the mean makespan and the share of that
//! run's iterations the rule leaves (both counted in the reference, so the
//! frozen exit's savings are not in it); no family's mean makespan may
//! rise by more than 0.1 %. It runs in release builds only.
//!
//! `cargo test --release -p sst-algos --test anneal_exit -- --nocapture`
//! prints the proposals each long run used, where its plateau phase
//! began, and which exit ended it, and the survey's rows.

use std::ops::Range;

use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sst_algos::annealing::{anneal, AnnealConfig, AnnealExit, AnnealResult};
use sst_algos::list::{greedy_uniform, greedy_unrelated};
use sst_algos::local_search::improve;
use sst_core::cancel::CancelToken;
use sst_core::instance::{Job, UniformInstance, UnrelatedInstance, INF};
use sst_core::model::{MachineModel, Splittable, Uniform, Unrelated};
use sst_core::schedule::{unrelated_makespan, Schedule};
use sst_core::tracker::LoadTracker;
use sst_gen::{scenarios, UnrelatedParams};

const CANCEL_CHECK_MASK: usize = 0xFF;

/// The stall stop's window at most, in neighbourhoods, and its doubling
/// term's floor and cap in proposals.
const STALL_SWEEPS: usize = 256;
const STALL_MIN_PROPOSALS: usize = 20_000;
const STALL_MAX_PROPOSALS: usize = 80_000;

/// 256 neighbourhoods of `inst`, in proposals.
fn sweeps<M: MachineModel>(inst: &M::Instance) -> usize {
    let (n, m) = (M::n(inst), M::m(inst));
    STALL_SWEEPS * (m - 1) * (n + n.min(m * M::num_classes(inst)))
}

/// The stall stop's window on `inst` after a new best at iteration `p`
/// (`p = 0` at the start): 256 neighbourhoods, or twice `p` clamped to
/// 20 000–80 000 proposals, whichever is smaller.
fn stall_window<M: MachineModel>(inst: &M::Instance, p: usize) -> usize {
    sweeps::<M>(inst).min((2 * p).clamp(STALL_MIN_PROPOSALS, STALL_MAX_PROPOSALS))
}

/// The window the doubling rule replaced, the answer survey's baseline:
/// 256 neighbourhoods, at most 80 000 proposals, whenever the last new
/// best came.
fn fixed_stall_window<M: MachineModel>(inst: &M::Instance) -> usize {
    sweeps::<M>(inst).min(STALL_MAX_PROPOSALS)
}

/// The iteration of the last new best of a walk that stalled at `stop`:
/// the one `p` with `p + stall_window(p) == stop` (the sum grows strictly
/// with `p`).
fn last_best_of<M: MachineModel>(inst: &M::Instance, stop: usize) -> usize {
    [sweeps::<M>(inst), STALL_MIN_PROPOSALS, STALL_MAX_PROPOSALS]
        .map(|w| stop.saturating_sub(w))
        .into_iter()
        .chain([stop / 3])
        .find(|&p| p + stall_window::<M>(inst, p) == stop)
        .unwrap_or_else(|| panic!("no last new best ends a walk at {stop}"))
}

enum Proposal {
    Job(usize, usize),
    Class(usize, usize, usize),
}

/// The annealer without the frozen-state exit, plus the stall stop's rule
/// (the walk ends once [`stall_window`] iterations in a row found no new
/// best): `(schedule, accepted, improvements, iterations run)`.
fn reference_anneal<M: MachineModel>(
    inst: &M::Instance,
    start: &Schedule,
    cfg: &AnnealConfig,
    cancel: &CancelToken,
) -> (Schedule, usize, usize, usize) {
    reference_walk::<M>(inst, start, cfg, cancel, |p| stall_window::<M>(inst, p))
}

/// [`reference_anneal`] under any stall rule: the walk ends once
/// `window(p)` iterations in a row after a new best at iteration `p`
/// (`p = 0` at the start) found no other.
fn reference_walk<M: MachineModel>(
    inst: &M::Instance,
    start: &Schedule,
    cfg: &AnnealConfig,
    cancel: &CancelToken,
    window: impl Fn(usize) -> usize,
) -> (Schedule, usize, usize, usize) {
    let mut tracker = LoadTracker::<M>::new(inst, start).expect("valid start schedule");
    let m = M::m(inst);
    let mut cur_ms = tracker.makespan();
    let mut best = start.clone();
    let mut best_ms = cur_ms;
    let mut temp = M::key_to_f64(cur_ms) * cfg.initial_temp_fraction;
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut accepted = 0usize;
    let mut improvements = 0usize;
    if M::n(inst) == 0 || m < 2 {
        return (best, accepted, improvements, 0);
    }
    let mut last_best = 0usize;
    let mut wait = window(0);
    let mut ran = cfg.iterations;
    for it in 0..cfg.iterations {
        if it - last_best >= wait {
            ran = it;
            break;
        }
        if it & CANCEL_CHECK_MASK == 0 && cancel.is_cancelled() {
            ran = it;
            break;
        }
        let class_move = rng.gen::<f64>() < cfg.class_move_prob;
        let j = rng.gen_range(0..M::n(inst));
        let from = tracker.machine_of(j);
        let to = rng.gen_range(0..m);
        let (proposal, new_ms) = if class_move {
            let k = M::class_of(inst, j);
            match tracker.eval_class_move(from, k, to) {
                Some(ms) => (Proposal::Class(from, k, to), ms),
                None => {
                    temp *= cfg.cooling;
                    continue;
                }
            }
        } else {
            match tracker.eval_job_move(j, to) {
                Some(ms) => (Proposal::Job(j, to), ms),
                None => {
                    temp *= cfg.cooling;
                    continue;
                }
            }
        };
        let delta = M::key_to_f64(new_ms) - M::key_to_f64(cur_ms);
        let accept = delta <= 0.0 || (temp > 0.0 && rng.gen::<f64>() < (-delta / temp).exp());
        if accept {
            match proposal {
                Proposal::Job(j, to) => tracker.apply_job_move(j, to),
                Proposal::Class(from, k, to) => tracker.apply_class_move(from, k, to),
            }
            accepted += 1;
            cur_ms = new_ms;
            if new_ms < best_ms {
                best_ms = new_ms;
                best = tracker.schedule();
                improvements += 1;
                last_best = it + 1;
                wait = window(last_best);
            }
        }
        temp *= cfg.cooling;
    }
    (best, accepted, improvements, ran)
}

/// Runs both loops; fails unless they agree, and unless a walk that ended
/// on its iteration count or its stall stop ran as many proposals as the
/// reference. Returns the annealer's result.
fn assert_exact<M: MachineModel>(
    inst: &M::Instance,
    start: &Schedule,
    cfg: &AnnealConfig,
) -> Result<AnnealResult, TestCaseError> {
    let got = anneal::<M>(inst, start, cfg);
    let (schedule, accepted, improvements, ran) =
        reference_anneal::<M>(inst, start, cfg, &CancelToken::new());
    prop_assert_eq!(
        (got.schedule.clone(), got.accepted, got.improvements),
        (schedule, accepted, improvements)
    );
    prop_assert!(got.proposals <= cfg.iterations);
    match got.exit {
        AnnealExit::Iterations => prop_assert_eq!(got.proposals, cfg.iterations),
        AnnealExit::Stalled => {
            prop_assert!(got.proposals < cfg.iterations);
            prop_assert_eq!(got.proposals, ran);
        }
        AnnealExit::Frozen => prop_assert!(got.proposals <= ran),
        AnnealExit::Cancelled => prop_assert!(false, "nothing cancels these walks"),
    }
    if let Some(entry) = got.plateau_entry {
        prop_assert!(entry <= got.proposals);
        prop_assert!(got.plateau_accepted <= got.accepted);
    }
    Ok(got)
}

/// A config of up to `max_iterations` mixing the knobs the exit's and the
/// plateau phase's conditions depend on: cooling at and below 1 (0.5
/// reaches the plateau phase within a few dozen iterations), a zero or
/// near-zero start temperature (1e-7 starts in the plateau phase), and
/// pure job or class moves.
fn config_of(max_iterations: usize) -> impl Strategy<Value = AnnealConfig> {
    (0..max_iterations, 0usize..5, 0usize..5, 0usize..3, any::<u64>()).prop_map(
        |(iterations, cool, hot, mix, seed)| AnnealConfig {
            iterations,
            cooling: [1.0, 0.999, 0.99, 0.9, 0.5][cool],
            initial_temp_fraction: [0.0, 1e-7, 0.05, 0.2, 2.0][hot],
            class_move_prob: [0.0, 0.25, 1.0][mix],
            seed,
        },
    )
}

fn config() -> impl Strategy<Value = AnnealConfig> {
    config_of(6_000)
}

fn uniform_instance() -> impl Strategy<Value = UniformInstance> {
    uniform_instance_of(1..12)
}

fn unrelated_instance() -> impl Strategy<Value = UnrelatedInstance> {
    unrelated_instance_of(1..12)
}

fn restricted_instance() -> impl Strategy<Value = UnrelatedInstance> {
    restricted_instance_of(1..14)
}

fn uniform_instance_of(jobs: Range<usize>) -> impl Strategy<Value = UniformInstance> {
    (vec(1u64..4, 2..5), vec(0u64..12, 1..4), vec((0usize..4, 1u64..30), jobs)).prop_map(
        |(speeds, setups, raw)| {
            let k = setups.len();
            let jobs = raw.into_iter().map(|(c, p)| Job::new(c % k, p)).collect();
            UniformInstance::new(speeds, setups, jobs).expect("valid")
        },
    )
}

/// An unrelated instance with some infinite cells; machine 0 stays finite
/// for every job and class so each job has a home.
fn unrelated_instance_of(jobs: Range<usize>) -> impl Strategy<Value = UnrelatedInstance> {
    (2usize..5, 1usize..4, vec((0usize..4, vec(0u64..30, 4)), jobs), vec(vec(0u64..12, 4), 4))
        .prop_map(|(m, k, raw, setup_rows)| {
            let cell = |i: usize, v: u64| if i > 0 && v == 0 { INF } else { v.max(1) };
            let job_class: Vec<usize> = raw.iter().map(|&(c, _)| c % k).collect();
            let p: Vec<Vec<u64>> =
                raw.iter().map(|(_, row)| (0..m).map(|i| cell(i, row[i])).collect()).collect();
            let s: Vec<Vec<u64>> = setup_rows[..k]
                .iter()
                .map(|row| {
                    (0..m).map(|i| if i > 0 && row[i] == 11 { INF } else { row[i] }).collect()
                })
                .collect();
            UnrelatedInstance::new(m, job_class, p, s).expect("valid")
        })
}

/// A restricted-assignment instance (`p_ij` is `p_j` or infinite) on 2–6
/// machines: each cell beyond machine 0 is infinite with probability 3/4,
/// and each setup beyond machine 0 with probability 1/4. Machine 0 stays
/// finite for every job and class so each job has a home.
fn restricted_instance_of(jobs: Range<usize>) -> impl Strategy<Value = UnrelatedInstance> {
    (
        2usize..7,
        1usize..4,
        vec((0usize..4, 1u64..30, vec(0u8..4, 6)), jobs),
        vec(vec(0u64..16, 6), 4),
    )
        .prop_map(|(m, k, raw, setup_rows)| {
            let job_class: Vec<usize> = raw.iter().map(|&(c, _, _)| c % k).collect();
            let p: Vec<Vec<u64>> = raw
                .iter()
                .map(|(_, size, mask)| {
                    (0..m).map(|i| if i == 0 || mask[i] == 0 { *size } else { INF }).collect()
                })
                .collect();
            let s: Vec<Vec<u64>> = setup_rows[..k]
                .iter()
                .map(|row| (0..m).map(|i| if i > 0 && row[i] < 4 { INF } else { row[i] }).collect())
                .collect();
            UnrelatedInstance::new(m, job_class, p, s).expect("valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn uniform_exit_is_exact(inst in uniform_instance(), cfg in config()) {
        let start = greedy_uniform(&inst);
        assert_exact::<Uniform>(&inst, &start, &cfg)?;
    }

    #[test]
    fn unrelated_exit_is_exact(inst in unrelated_instance(), cfg in config()) {
        let start = greedy_unrelated(&inst);
        assert_exact::<Unrelated>(&inst, &start, &cfg)?;
    }

    #[test]
    fn splittable_exit_is_exact(inst in unrelated_instance(), cfg in config()) {
        let start = greedy_unrelated(&inst);
        assert_exact::<Splittable>(&inst, &start, &cfg)?;
    }

    #[test]
    fn restricted_assignment_walks_are_exact(inst in restricted_instance(), cfg in config()) {
        let start = greedy_unrelated(&inst);
        assert_exact::<Unrelated>(&inst, &start, &cfg)?;
        assert_exact::<Splittable>(&inst, &start, &cfg)?;
    }

    #[test]
    fn walks_next_to_2_pow_53_are_exact(offset in 0u64..4, cfg in config()) {
        // Machine 0 holds a job of about 2^53 that fits nowhere else;
        // moving a unit job there can round to a zero f64 delta.
        let big = (1u64 << 53) - offset;
        let inst = UnrelatedInstance::new(
            3,
            vec![0, 1, 1, 1],
            vec![vec![big, INF, INF], vec![1, 1, 2], vec![1, 2, 1], vec![2, 1, 1]],
            vec![vec![0, 0, 0], vec![0, 1, 0]],
        )
        .expect("valid");
        let start = Schedule::new(vec![0, 1, 2, 1]);
        assert_exact::<Unrelated>(&inst, &start, &cfg)?;
    }

    /// Instances of at most four jobs have windows of at most 10 240
    /// iterations, so the stall stop ends most of these walks.
    #[test]
    fn stalled_walks_are_exact(
        uniform in uniform_instance_of(1..5),
        unrelated in unrelated_instance_of(1..5),
        restricted in restricted_instance_of(1..5),
        cfg in config_of(20_000),
    ) {
        assert_exact::<Uniform>(&uniform, &greedy_uniform(&uniform), &cfg)?;
        for inst in [&unrelated, &restricted] {
            let start = greedy_unrelated(inst);
            assert_exact::<Unrelated>(inst, &start, &cfg)?;
            assert_exact::<Splittable>(inst, &start, &cfg)?;
        }
    }
}

/// Checks that the walk under `cfg` ended on its stall stop exactly one
/// window after its last new best, at the iteration [`last_best_of`]
/// reads off its stop. The walk cut at the same proposal returns the same
/// schedule, `accepted` and `improvements`; cut at the last new best, the
/// same schedule and `improvements`; one proposal before that, one
/// improvement fewer. Returns the stalled walk and its last new best.
fn assert_stalls_one_window_after_its_last_best<M: MachineModel>(
    inst: &M::Instance,
    start: &Schedule,
    cfg: &AnnealConfig,
) -> (AnnealResult, usize) {
    let res = anneal::<M>(inst, start, cfg);
    assert_eq!(res.exit, AnnealExit::Stalled);
    let cut = |iterations| anneal::<M>(inst, start, &AnnealConfig { iterations, ..*cfg });
    let same = cut(res.proposals);
    assert_eq!(
        (&same.schedule, same.accepted, same.improvements),
        (&res.schedule, res.accepted, res.improvements)
    );
    let last_best = last_best_of::<M>(inst, res.proposals);
    let upto = cut(last_best);
    assert_eq!((&upto.schedule, upto.improvements), (&res.schedule, res.improvements));
    if last_best > 0 {
        assert_eq!(cut(last_best - 1).improvements + 1, res.improvements);
    } else {
        assert_eq!((res.improvements, &res.schedule), (0, start));
    }
    (res, last_best)
}

#[test]
fn a_stalled_walk_stops_one_window_after_its_last_new_best() {
    // The served walk on a solve-complete family, from greedy as the race
    // warm-starts a sole annealer: the best improves early, then stalls.
    // 256 neighbourhoods are 79 872 proposals at 48x5x6, so the doubling
    // term sets the window. On this instance the last new best comes
    // before proposal 10 000 and the walk waits the 20 000 floor ...
    let served = AnnealConfig { iterations: 400_000, seed: 41, ..AnnealConfig::default() };
    let early = scenarios::print_shop(48, 5, 6, 1);
    let (res, p) = assert_stalls_one_window_after_its_last_best::<Unrelated>(
        &early,
        &greedy_unrelated(&early),
        &served,
    );
    assert!(res.improvements > 0, "greedy leaves room on print-shop");
    assert!(p < STALL_MIN_PROPOSALS / 2, "last new best at {p}");
    assert_eq!(res.proposals, p + STALL_MIN_PROPOSALS);
    // ... and on this one it comes later, and the walk waits twice as long
    // as it took to find it.
    let late = scenarios::print_shop(48, 5, 6, 5);
    let (res, p) = assert_stalls_one_window_after_its_last_best::<Unrelated>(
        &late,
        &greedy_unrelated(&late),
        &served,
    );
    assert!((STALL_MIN_PROPOSALS / 2..STALL_MAX_PROPOSALS / 2).contains(&p), "last best at {p}");
    assert_eq!(res.proposals, 3 * p);
    // A hot walk that never cools out of the Metropolis phase.
    let hot = AnnealConfig {
        iterations: 200_000,
        initial_temp_fraction: 0.5,
        cooling: 1.0,
        seed: 3,
        ..AnnealConfig::default()
    };
    let line = scenarios::production_line(12, 3, 3, 5);
    let (res, _) = assert_stalls_one_window_after_its_last_best::<Uniform>(
        &line,
        &greedy_uniform(&line),
        &hot,
    );
    assert_eq!(res.plateau_entry, None);
    // No new best at all: a zero-temperature walk from the descent (ratio
    // keys, so no plateau phase, and cooling above 1 turns the frozen
    // scan off) stops one window after its start.
    let descent = improve::<Uniform>(&line, &greedy_uniform(&line), usize::MAX).schedule;
    let cold = AnnealConfig { initial_temp_fraction: 0.0, cooling: 2.0, ..hot };
    let (res, _) = assert_stalls_one_window_after_its_last_best::<Uniform>(&line, &descent, &cold);
    // On this small instance the 256-neighbourhood term sets the window.
    assert_eq!((res.proposals, res.improvements), (STALL_SWEEPS * 2 * (12 + 9), 0));
}

/// Runs both loops for `iterations` proposals from `greedy` and from its
/// descent, the race's usual warm starts. Returns the run from `greedy`.
fn long_runs<M: MachineModel>(
    name: &str,
    inst: &M::Instance,
    greedy: &Schedule,
    iterations: usize,
) -> AnnealResult {
    let cfg = AnnealConfig { iterations, seed: 41, ..AnnealConfig::default() };
    let descent = improve::<M>(inst, greedy, usize::MAX).schedule;
    let [run, from_descent] = [("greedy", greedy), ("descent", &descent)].map(|(label, start)| {
        assert_exact::<M>(inst, start, &cfg)
            .unwrap_or_else(|e| panic!("{name} from {label}: the answer changed: {e:?}"))
    });
    let entry = |r: &AnnealResult| r.plateau_entry.map_or("-".to_string(), |e| e.to_string());
    println!(
        "{name:<22} proposals {:>6} ({:?}) from greedy, {:>6} ({:?}) from the descent, of {}; \
         plateau from {} / {}",
        run.proposals,
        run.exit,
        from_descent.proposals,
        from_descent.exit,
        cfg.iterations,
        entry(&run),
        entry(&from_descent),
    );
    run
}

#[test]
fn long_runs_on_the_solve_complete_families_exit_exactly() {
    let (n, m, k) = (48, 5, 6);
    let families: [(&str, UnrelatedInstance); 4] = [
        ("compute-cluster", scenarios::compute_cluster(n, m, k, 11)),
        ("print-shop", scenarios::print_shop(n, m, k, 12)),
        ("ci-build-farm", scenarios::ci_build_farm(n, m, k, 13)),
        (
            "unrelated-correlated",
            sst_gen::unrelated(&UnrelatedParams { n, m, k, seed: 14, ..Default::default() }),
        ),
    ];
    let mut fired = 0;
    for (name, inst) in &families {
        let run = long_runs::<Unrelated>(name, inst, &greedy_unrelated(inst), 400_000);
        if run.exit == AnnealExit::Frozen {
            fired += 1;
        }
    }
    assert!(fired >= 3, "the frozen exit fired on only {fired} of 4 families");
    let line = scenarios::production_line(n, m, k, 15);
    let uniform = long_runs::<Uniform>("production-line", &line, &greedy_uniform(&line), 400_000);
    assert_eq!(uniform.plateau_entry, None, "ratio keys stay in the Metropolis loop");
    let cdn = scenarios::cdn_transcode(n, m, k, 16);
    long_runs::<Splittable>("cdn-transcode", &cdn, &greedy_unrelated(&cdn), 400_000);
}

/// `perfbench`'s instance catalogue seed and its seed mixer: entry `i` of
/// a workload's catalogue is its family `i % families` with generator seed
/// `derive(CATALOGUE_SEED, 1000 + i)` (solve-complete: six families,
/// compute-cluster to unrelated-correlated at 1–4; solve-deadline: five,
/// compute-cluster to unrelated at 1–4, print-shop at 2).
const CATALOGUE_SEED: u64 = 0x5e7_2019;

fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt.wrapping_add(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn a_long_run_at_the_solve_deadline_shape_is_exact() {
    // 256 neighbourhoods are 2.2 M proposals at this shape, so the
    // doubling term sets the window, and a 400 000-proposal walk from
    // greedy stalls where the reference stalls.
    let shop = scenarios::print_shop(800, 10, 16, 17);
    assert!(sweeps::<Unrelated>(&shop) > STALL_MAX_PROPOSALS);
    let run =
        long_runs::<Unrelated>("print-shop 800x10x16", &shop, &greedy_unrelated(&shop), 400_000);
    assert!(run.plateau_entry.is_some(), "the walk must reach the plateau phase");
    assert_eq!(run.exit, AnnealExit::Stalled);
    // Catalogue entry 12, a print-shop instance whose walk from greedy
    // finds its last new best after 20 000 proposals and waits twice that.
    let late = scenarios::print_shop(800, 10, 16, derive(CATALOGUE_SEED, 1000 + 12));
    let run =
        long_runs::<Unrelated>("print-shop catalogue 12", &late, &greedy_unrelated(&late), 400_000);
    assert_eq!(run.exit, AnnealExit::Stalled);
    assert!(run.improvements > 0);
    let p = last_best_of::<Unrelated>(&late, run.proposals);
    assert!((STALL_MIN_PROPOSALS..STALL_MAX_PROPOSALS / 2).contains(&p), "last new best at {p}");
    assert_eq!(run.proposals, 3 * p);
}

/// Solver seeds of the answer survey's walks, per catalogue instance.
const SURVEY_SEEDS: std::ops::RangeInclusive<u64> = 41..=44;

/// Catalogue instances per family in the answer survey (perfbench's
/// `COMPLETE_PER_FAMILY` and `DEADLINE_PER_FAMILY`).
const SURVEY_INSTANCES: usize = 16;

/// The most a family's mean makespan may rise under the stall rule,
/// against the fixed window, in percent.
const SURVEY_MAX_RISE_PCT: f64 = 0.1;

/// One family's row of the answer survey.
struct SurveyRow {
    walks: usize,
    changed: usize,
    /// Sum of the answers' makespans under the rule and under the fixed
    /// window.
    makespans: (u64, u64),
    /// Iterations the reference ran under the rule and under the fixed
    /// window.
    iterations: (usize, usize),
}

impl SurveyRow {
    fn mean_change_pct(&self) -> f64 {
        (self.makespans.0 as f64 / self.makespans.1 as f64 - 1.0) * 100.0
    }
}

/// Anneals each instance from greedy with the served configuration under
/// every survey seed, and compares the answer with the reference run under
/// the fixed window. The annealer must return what the reference returns
/// under the rule.
fn survey(instances: &[UnrelatedInstance]) -> SurveyRow {
    let mut row = SurveyRow { walks: 0, changed: 0, makespans: (0, 0), iterations: (0, 0) };
    let cancel = CancelToken::new();
    for inst in instances {
        let greedy = greedy_unrelated(inst);
        let fixed_window = fixed_stall_window::<Unrelated>(inst);
        for seed in SURVEY_SEEDS {
            let cfg = AnnealConfig { iterations: 400_000, seed, ..AnnealConfig::default() };
            let got = anneal::<Unrelated>(inst, &greedy, &cfg);
            let (schedule, accepted, improvements, ran) =
                reference_anneal::<Unrelated>(inst, &greedy, &cfg, &cancel);
            assert_eq!(
                (&got.schedule, got.accepted, got.improvements),
                (&schedule, accepted, improvements)
            );
            let (fixed, _, _, fixed_ran) =
                reference_walk::<Unrelated>(inst, &greedy, &cfg, &cancel, |_| fixed_window);
            let makespan = |s: &Schedule| unrelated_makespan(inst, s).expect("valid schedule");
            row.walks += 1;
            row.changed += usize::from(got.schedule != fixed);
            row.makespans.0 += makespan(&got.schedule);
            row.makespans.1 += makespan(&fixed);
            row.iterations.0 += ran;
            row.iterations.1 += fixed_ran;
        }
    }
    row
}

/// perfbench's first [`SURVEY_INSTANCES`] catalogue instances of the family
/// at `position` among `families`, generated by `generate`.
fn catalogue(
    families: usize,
    position: usize,
    generate: impl Fn(u64) -> UnrelatedInstance,
) -> Vec<UnrelatedInstance> {
    (0..SURVEY_INSTANCES)
        .map(|r| generate(derive(CATALOGUE_SEED, 1000 + (r * families + position) as u64)))
        .collect()
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "512 walks of up to 400 000 proposals, each run three times; release only"
)]
fn answer_survey_against_the_fixed_window() {
    // The four unrelated families sit at catalogue positions 1-4 in both
    // workloads; solve-complete has six families, solve-deadline five.
    let generators: [fn(usize, usize, usize, u64) -> UnrelatedInstance; 4] = [
        scenarios::compute_cluster,
        scenarios::print_shop,
        scenarios::ci_build_farm,
        |n, m, k, seed| {
            sst_gen::unrelated(&UnrelatedParams { n, m, k, seed, ..Default::default() })
        },
    ];
    let workloads = [
        (
            "48x5x6",
            (48, 5, 6),
            6,
            ["compute-cluster", "print-shop", "ci-build-farm", "unrelated-correlated"],
        ),
        (
            "800x10x16",
            (800, 10, 16),
            5,
            ["compute-cluster", "print-shop", "ci-build-farm", "unrelated"],
        ),
    ];
    let mut rows = Vec::new();
    for (shape, (n, m, k), families, names) in workloads {
        for (position, (family, generate)) in (1..).zip(names.into_iter().zip(generators)) {
            let instances = catalogue(families, position, |seed| generate(n, m, k, seed));
            rows.push((shape, family, survey(&instances)));
        }
    }
    println!(
        "answer survey: greedy starts, {SURVEY_INSTANCES} catalogue instances x solver seeds \
         {SURVEY_SEEDS:?}, 400 000 proposals; the stall rule against the fixed window"
    );
    for (shape, family, row) in &rows {
        println!(
            "survey {shape:<9} {family:<20} answers changed {:>2}/{}  mean makespan {:+.3} %  \
             proposals {:.1} % of the fixed window's",
            row.changed,
            row.walks,
            row.mean_change_pct(),
            100.0 * row.iterations.0 as f64 / row.iterations.1 as f64,
        );
    }
    for (shape, family, row) in &rows {
        assert!(
            row.mean_change_pct() <= SURVEY_MAX_RISE_PCT,
            "{shape} {family}: mean makespan {:+.3} % under the stall rule",
            row.mean_change_pct()
        );
    }
}
