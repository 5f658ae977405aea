//! Differential property tests: the incremental [`sst_core::tracker`]
//! trackers must agree **bit-identically** with the full-recompute
//! evaluators in [`sst_core::schedule`] after arbitrary sequences of job
//! and whole-class moves — loads, makespan and the evaluated makespan of
//! every candidate move — and of structural edits; the bottleneck must be
//! the highest-numbered machine among those attaining the makespan.

use proptest::collection::vec;
use proptest::prelude::*;
use sst_core::delta::InstanceDelta;
use sst_core::instance::{Job, UniformInstance, UnrelatedInstance, INF};
use sst_core::model::{self, MachineModel, Splittable, Uniform, Unrelated};
use sst_core::ratio::Ratio;
use sst_core::schedule::{
    uniform_loads, uniform_makespan, unrelated_loads, unrelated_makespan, Schedule,
};
use sst_core::tracker::{
    LoadTracker, SplittableLoadTracker, UniformLoadTracker, UnrelatedLoadTracker,
};

/// A random but valid unrelated instance: every cell finite except a
/// deterministic sprinkle of INFs that never makes a job unschedulable.
fn unrelated_instance() -> impl Strategy<Value = UnrelatedInstance> {
    (2usize..5, 1usize..5, vec((0usize..100, 1u64..500, 0u64..30), 1..40)).prop_map(
        |(m, k, raw)| {
            let n = raw.len();
            let job_class: Vec<usize> = raw.iter().map(|&(c, _, _)| c % k).collect();
            let ptimes: Vec<Vec<u64>> = raw
                .iter()
                .enumerate()
                .map(|(j, &(_, p, inf_mask))| {
                    (0..m)
                        .map(|i| {
                            // Knock out some cells, but never machine j % m,
                            // so each job keeps at least one finite machine.
                            if i != j % m && (inf_mask >> i) & 1 == 1 {
                                INF
                            } else {
                                p + (i as u64) * 7 % 90
                            }
                        })
                        .collect()
                })
                .collect();
            let setups: Vec<Vec<u64>> =
                (0..k).map(|kk| (0..m).map(|i| 1 + ((kk + i) as u64 % 40)).collect()).collect();
            let _ = n;
            UnrelatedInstance::new(m, job_class, ptimes, setups).expect("constructed valid")
        },
    )
}

fn uniform_instance() -> impl Strategy<Value = UniformInstance> {
    (vec(1u64..50, 2..5), vec(0u64..100, 1..5), vec((0usize..100, 1u64..500), 1..40)).prop_map(
        |(speeds, setups, raw)| {
            let k = setups.len();
            let jobs: Vec<Job> = raw.into_iter().map(|(c, p)| Job::new(c % k, p)).collect();
            UniformInstance::new(speeds, setups, jobs).expect("constructed valid")
        },
    )
}

/// Replays `moves` on the tracker, checking every state against the
/// full-recompute oracle. Each move item is (job, target, class_move).
fn check_unrelated(
    inst: &UnrelatedInstance,
    moves: &[(usize, usize, bool)],
) -> Result<(), TestCaseError> {
    // Start: every job on its first eligible machine.
    let start = Schedule::new((0..inst.n()).map(|j| inst.eligible_machines(j)[0]).collect());
    let mut tracker = UnrelatedLoadTracker::new(inst, &start).expect("valid start");
    for &(raw_j, raw_i, class_move) in moves {
        let j = raw_j % inst.n();
        let to = raw_i % inst.m();
        if class_move {
            let from = tracker.machine_of(j);
            let k = inst.class_of(j);
            if let Some(predicted) = tracker.eval_class_move(from, k, to) {
                tracker.apply_class_move(from, k, to);
                prop_assert_eq!(tracker.makespan(), predicted);
            }
        } else if let Some(predicted) = tracker.eval_job_move(j, to) {
            tracker.apply_job_move(j, to);
            prop_assert_eq!(tracker.makespan(), predicted);
        }
        // Bit-identical agreement with the O(n) oracle, every step.
        let sched = tracker.schedule();
        let oracle_loads = unrelated_loads(inst, &sched).expect("tracker kept schedule valid");
        prop_assert_eq!(tracker.loads(), &oracle_loads[..]);
        prop_assert_eq!(tracker.makespan(), unrelated_makespan(inst, &sched).expect("valid"));
        // The O(log m) bottleneck must name a machine the oracle agrees
        // attains the maximum load.
        let b = tracker.bottleneck();
        let oracle_max = oracle_loads.iter().copied().max().expect("m >= 1");
        prop_assert_eq!(oracle_loads[b], oracle_max, "bottleneck() machine not an argmax");
    }
    // Every candidate job move the tracker evaluates must equal the oracle
    // makespan of the hypothetically moved schedule.
    let sched = tracker.schedule();
    for j in 0..inst.n().min(8) {
        for to in 0..inst.m() {
            if let Some(predicted) = tracker.eval_job_move(j, to) {
                let mut probe = sched.clone();
                probe.set(j, to);
                prop_assert_eq!(
                    predicted,
                    unrelated_makespan(inst, &probe).expect("eval said feasible"),
                    "eval_job_move({}, {}) disagrees with oracle",
                    j,
                    to
                );
            }
        }
    }
    Ok(())
}

fn check_uniform(
    inst: &UniformInstance,
    moves: &[(usize, usize, bool)],
) -> Result<(), TestCaseError> {
    let start = Schedule::new((0..inst.n()).map(|j| j % inst.m()).collect());
    let mut tracker = UniformLoadTracker::new(inst, &start).expect("valid start");
    for &(raw_j, raw_i, class_move) in moves {
        let j = raw_j % inst.n();
        let to = raw_i % inst.m();
        if class_move {
            let from = tracker.machine_of(j);
            let k = inst.job(j).class;
            if let Some(predicted) = tracker.eval_class_move(from, k, to) {
                tracker.apply_class_move(from, k, to);
                prop_assert_eq!(tracker.makespan(), predicted);
            }
        } else if let Some(predicted) = tracker.eval_job_move(j, to) {
            tracker.apply_job_move(j, to);
            prop_assert_eq!(tracker.makespan(), predicted);
        }
        let sched = tracker.schedule();
        let oracle = uniform_loads(inst, &sched).expect("valid");
        prop_assert_eq!(tracker.work(), &oracle[..]);
        prop_assert_eq!(tracker.makespan(), uniform_makespan(inst, &sched).expect("valid"));
        // O(log m) bottleneck pinned to the oracle: its work/speed ratio
        // must equal the oracle makespan exactly.
        let b = tracker.bottleneck();
        prop_assert_eq!(
            Ratio::new(oracle[b], inst.speed(b)),
            uniform_makespan(inst, &sched).expect("valid"),
            "bottleneck() machine not an argmax"
        );
    }
    let sched = tracker.schedule();
    for j in 0..inst.n().min(8) {
        for to in 0..inst.m() {
            if let Some(predicted) = tracker.eval_job_move(j, to) {
                let mut probe = sched.clone();
                probe.set(j, to);
                prop_assert_eq!(
                    predicted,
                    uniform_makespan(inst, &probe).expect("valid"),
                    "eval_job_move({}, {}) disagrees with oracle",
                    j,
                    to
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn unrelated_tracker_matches_oracle_after_move_sequences(
        inst in unrelated_instance(),
        moves in vec((0usize..1000, 0usize..1000, proptest::bool::ANY), 0..60),
    ) {
        check_unrelated(&inst, &moves)?;
    }

    #[test]
    fn uniform_tracker_matches_oracle_after_move_sequences(
        inst in uniform_instance(),
        moves in vec((0usize..1000, 0usize..1000, proptest::bool::ANY), 0..60),
    ) {
        check_uniform(&inst, &moves)?;
    }

    #[test]
    fn splittable_tracker_matches_oracle_after_move_sequences(
        inst in unrelated_instance(),
        moves in vec((0usize..1000, 0usize..1000, proptest::bool::ANY), 0..60),
    ) {
        // `LoadTracker<Splittable>` works on the integral sub-space of the
        // split model, whose per-machine load is the same
        // `Σ p_ij + Σ s_ik` sum — so the O(n) full-recompute oracle is
        // `unrelated_loads`, and agreement must be bit-identical after
        // arbitrary move sequences, exactly like the unrelated tracker.
        let start = Schedule::new((0..inst.n()).map(|j| inst.eligible_machines(j)[0]).collect());
        let mut tracker = SplittableLoadTracker::new(&inst, &start).expect("valid start");
        for &(raw_j, raw_i, class_move) in &moves {
            let j = raw_j % inst.n();
            let to = raw_i % inst.m();
            if class_move {
                let from = tracker.machine_of(j);
                let k = inst.class_of(j);
                if let Some(predicted) = tracker.eval_class_move(from, k, to) {
                    tracker.apply_class_move(from, k, to);
                    prop_assert_eq!(tracker.makespan(), predicted);
                }
            } else if let Some(predicted) = tracker.eval_job_move(j, to) {
                tracker.apply_job_move(j, to);
                prop_assert_eq!(tracker.makespan(), predicted);
            }
            let sched = tracker.schedule();
            let oracle = unrelated_loads(&inst, &sched).expect("tracker kept schedule valid");
            prop_assert_eq!(tracker.loads(), &oracle[..]);
            prop_assert_eq!(tracker.makespan(), unrelated_makespan(&inst, &sched).expect("valid"));
            let b = tracker.bottleneck();
            let oracle_max = oracle.iter().copied().max().expect("m >= 1");
            prop_assert_eq!(oracle[b], oracle_max, "bottleneck() machine not an argmax");
        }
    }

    #[test]
    fn tracker_construction_matches_loads_exactly(
        inst in unrelated_instance(),
        seed in 0usize..1000,
    ) {
        // An arbitrary eligible start assignment.
        let assignment: Vec<usize> = (0..inst.n())
            .map(|j| {
                let elig = inst.eligible_machines(j);
                elig[(j + seed) % elig.len()]
            })
            .collect();
        let sched = Schedule::new(assignment);
        let tracker = UnrelatedLoadTracker::new(&inst, &sched).expect("eligible start");
        prop_assert_eq!(
            tracker.loads(),
            &unrelated_loads(&inst, &sched).expect("valid")[..]
        );
        let max = tracker.makespan();
        prop_assert_eq!(max, unrelated_makespan(&inst, &sched).expect("valid"));
        prop_assert_eq!(tracker.loads()[tracker.bottleneck()], max);
    }

    #[test]
    fn uniform_class_move_is_exact_ratio(
        inst in uniform_instance(),
        from_seed in 0usize..100,
        to_seed in 0usize..100,
    ) {
        // Everything on one machine, then one whole-class move: the
        // makespan must be the exact Ratio the oracle computes.
        let from = from_seed % inst.m();
        let to = to_seed % inst.m();
        let start = Schedule::new(vec![from; inst.n()]);
        let mut tracker = UniformLoadTracker::new(&inst, &start).expect("valid");
        let k = inst.job(0).class;
        if let Some(predicted) = tracker.eval_class_move(from, k, to) {
            tracker.apply_class_move(from, k, to);
            prop_assert_eq!(predicted, tracker.makespan());
            let oracle = uniform_makespan(&inst, &tracker.schedule()).expect("valid");
            prop_assert_eq!(predicted, oracle);
            prop_assert!(predicted >= Ratio::ZERO);
        }
    }
}

/// The oracle's makespan and bottleneck for per-machine `loads`: the
/// largest `(key, machine)` pair, so ties go to the highest machine id.
fn oracle_max<M: MachineModel>(inst: &M::Instance, loads: &[u64]) -> (M::Key, usize) {
    (0..loads.len()).map(|i| (M::key(inst, i, loads[i]), i)).max().expect("m >= 1")
}

/// Pins every query of `t` to the `O(n)` oracle on `inst`: loads,
/// makespan, bottleneck, and every job and whole-class move's
/// `eval_*` (the moved schedule's makespan) and `*_target` (its target
/// machine's key), `None` exactly for no-op, empty or infeasible moves.
fn check_state<M: MachineModel>(
    t: &LoadTracker<'_, M>,
    inst: &M::Instance,
) -> Result<(), TestCaseError> {
    let (n, m) = (M::n(inst), M::m(inst));
    let sched = t.schedule();
    let loads = model::loads::<M>(inst, &sched).expect("tracker keeps the schedule valid");
    prop_assert_eq!(t.loads(), &loads[..]);
    let (ms, bottleneck) = oracle_max::<M>(inst, &loads);
    prop_assert_eq!(t.makespan(), ms);
    prop_assert_eq!(t.bottleneck(), bottleneck);
    // `(makespan, target key)` of `probe`, or `None` when it is invalid.
    let oracle = |probe: &Schedule, to: usize| {
        model::loads::<M>(inst, probe)
            .ok()
            .map(|l| (oracle_max::<M>(inst, &l).0, M::key(inst, to, l[to])))
    };
    for j in 0..n {
        for to in 0..m {
            let mut probe = sched.clone();
            probe.set(j, to);
            let want = if to == sched.machine_of(j) { None } else { oracle(&probe, to) };
            prop_assert_eq!(
                t.eval_job_move(j, to),
                want.map(|w| w.0),
                "eval_job_move({}, {})",
                j,
                to
            );
            prop_assert_eq!(
                t.job_move_target(j, to),
                want.map(|w| w.1),
                "job_move_target({}, {})",
                j,
                to
            );
        }
    }
    for from in 0..m {
        for k in 0..M::num_classes(inst) {
            for to in 0..m {
                let mut probe = sched.clone();
                for &j in t.jobs_of_class_on(from, k) {
                    probe.set(j, to);
                }
                let want =
                    if from == to || t.count(from, k) == 0 { None } else { oracle(&probe, to) };
                prop_assert_eq!(
                    t.eval_class_move(from, k, to),
                    want.map(|w| w.0),
                    "eval_class_move({}, {}, {})",
                    from,
                    k,
                    to
                );
                prop_assert_eq!(
                    t.class_move_target(from, k, to),
                    want.map(|w| w.1),
                    "class_move_target({}, {}, {})",
                    from,
                    k,
                    to
                );
            }
        }
    }
    Ok(())
}

/// One step of a random tracker history: a job move, a whole-class move
/// (of a job's class, off its machine), or a structural edit together
/// with the index of the instance it produces.
enum Step {
    Job(usize, usize),
    Class(usize, usize),
    Edit(InstanceDelta, usize),
}

/// A raw operation: `(kind, a, b, values)`. Kinds 0–2 are job moves, 3–4
/// class moves, 5–9 the five structural edits.
type RawOp = (u8, usize, usize, Vec<u64>);

fn raw_ops() -> impl Strategy<Value = Vec<RawOp>> {
    vec((0u8..10, 0usize..1000, 0usize..1000, vec(0u64..40, 4)), 0..30)
}

/// Replays `ops` from "every job on machine 0" and checks the tracker
/// against the oracle after every step. `job_row` / `setup_row` turn raw
/// values into an edit's per-machine times; they must keep machine 0
/// finite, so every edit has a feasible placement.
fn check_history<M: MachineModel>(
    base: M::Instance,
    ops: &[RawOp],
    job_row: fn(&[u64], usize) -> Vec<u64>,
    setup_row: fn(&[u64], usize) -> Vec<u64>,
) -> Result<(), TestCaseError> {
    // Every instance the edits produce, built up front so the tracker can
    // borrow each one in turn.
    let mut insts = vec![base];
    let mut steps = Vec::new();
    for (kind, a, b, vals) in ops {
        let cur = insts.last().expect("base instance");
        let (n, m, kk) = (M::n(cur), M::m(cur), M::num_classes(cur));
        let delta = match kind {
            0..=2 => {
                steps.push(Step::Job(*a, *b));
                continue;
            }
            3 | 4 => {
                steps.push(Step::Class(*a, *b));
                continue;
            }
            5 => InstanceDelta::AddJob { class: a % kk, times: job_row(vals, m) },
            6 if n > 1 => InstanceDelta::RemoveJob { job: a % n },
            6 => continue,
            7 => InstanceDelta::ResizeJob { job: a % n, times: job_row(vals, m) },
            8 => InstanceDelta::ResizeSetup { class: a % kk, times: setup_row(vals, m) },
            _ => InstanceDelta::AddClass { times: setup_row(vals, m) },
        };
        let Ok(next) = M::apply_delta(cur, &delta) else { continue };
        insts.push(next);
        steps.push(Step::Edit(delta, insts.len() - 1));
    }
    let mut inst = &insts[0];
    let start = Schedule::new(vec![0; M::n(inst)]);
    let mut t = LoadTracker::<M>::new(inst, &start).expect("machine 0 is always feasible");
    check_state(&t, inst)?;
    for step in &steps {
        let (n, m) = (M::n(inst), M::m(inst));
        match step {
            Step::Job(a, b) => {
                let (j, to) = (a % n, b % m);
                if t.eval_job_move(j, to).is_some() {
                    t.apply_job_move(j, to);
                }
            }
            Step::Class(a, b) => {
                let j = a % n;
                let (from, k, to) = (t.machine_of(j), t.class_of_job(j), b % m);
                if t.eval_class_move(from, k, to).is_some() {
                    t.apply_class_move(from, k, to);
                }
            }
            Step::Edit(delta, idx) => {
                let next = &insts[*idx];
                match delta {
                    InstanceDelta::AddJob { class, .. } => {
                        let j = M::n(next) - 1;
                        let placed =
                            t.insert_job_greedy(*class, &|i| M::job_time(next, i, j), &|i| {
                                M::setup_time(next, i, *class)
                            });
                        prop_assert!(placed.is_some());
                    }
                    InstanceDelta::RemoveJob { job } => t.remove_job(*job),
                    InstanceDelta::ResizeJob { job, .. } => {
                        let k = t.class_of_job(*job);
                        let placed = t.retime_job(*job, &|i| M::job_time(next, i, *job), &|i| {
                            M::setup_time(next, i, k)
                        });
                        prop_assert!(placed.is_some());
                    }
                    InstanceDelta::ResizeSetup { class, .. } => {
                        let placed =
                            t.retime_setup(*class, &|i| M::setup_time(next, i, *class), &|j, i| {
                                M::job_time(next, i, j)
                            });
                        prop_assert!(placed.is_ok());
                    }
                    InstanceDelta::AddClass { .. } => t.add_class(),
                }
                t.rebind(next);
                inst = next;
            }
        }
        check_state(&t, inst)?;
    }
    Ok(())
}

/// Unrelated times: `v == 0` is infinite off machine 0.
fn unrelated_row(vals: &[u64], m: usize) -> Vec<u64> {
    (0..m).map(|i| if i > 0 && vals[i] == 0 { INF } else { vals[i] + 1 }).collect()
}

fn uniform_row(vals: &[u64], _m: usize) -> Vec<u64> {
    vec![vals[0] + 1]
}

/// Equal times everywhere: the tie-heavy histories.
fn tied_row(_vals: &[u64], m: usize) -> Vec<u64> {
    vec![3; m]
}

fn tied_uniform_row(_vals: &[u64], _m: usize) -> Vec<u64> {
    vec![3]
}

/// An unrelated instance with `m` in 1..=4 and infinite cells off
/// machine 0.
fn small_unrelated() -> impl Strategy<Value = UnrelatedInstance> {
    (1usize..5, 1usize..4, vec((0usize..4, vec(0u64..40, 4)), 1..10), vec(vec(0u64..40, 4), 3))
        .prop_map(|(m, k, raw, setup_rows)| {
            let job_class = raw.iter().map(|&(c, _)| c % k).collect();
            let p = raw.iter().map(|(_, row)| unrelated_row(row, m)).collect();
            let s = setup_rows[..k].iter().map(|row| unrelated_row(row, m)).collect();
            UnrelatedInstance::new(m, job_class, p, s).expect("valid")
        })
}

/// A uniform instance with `m` in 1..=4.
fn small_uniform() -> impl Strategy<Value = UniformInstance> {
    (vec(1u64..5, 1..5), vec(0u64..20, 1..4), vec((0usize..4, 1u64..40), 1..10)).prop_map(
        |(speeds, setups, raw)| {
            let k = setups.len();
            let jobs = raw.into_iter().map(|(c, p)| Job::new(c % k, p)).collect();
            UniformInstance::new(speeds, setups, jobs).expect("valid")
        },
    )
}

/// Identical machines, equal job sizes and equal setups: most loads tie.
fn tied_uniform() -> impl Strategy<Value = UniformInstance> {
    (1usize..5, 1usize..4, vec(0usize..4, 1..10)).prop_map(|(m, k, classes)| {
        let jobs = classes.into_iter().map(|c| Job::new(c % k, 3)).collect();
        UniformInstance::identical(m, vec![3; k], jobs).expect("valid")
    })
}

/// The unrelated counterpart of [`tied_uniform`].
fn tied_unrelated() -> impl Strategy<Value = UnrelatedInstance> {
    (1usize..5, 1usize..4, vec(0usize..4, 1..10)).prop_map(|(m, k, classes)| {
        let job_class: Vec<usize> = classes.into_iter().map(|c| c % k).collect();
        let p = vec![vec![3; m]; job_class.len()];
        UnrelatedInstance::new(m, job_class, p, vec![vec![3; m]; k]).expect("valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn unrelated_index_matches_oracle_through_moves_and_edits(
        inst in small_unrelated(),
        ops in raw_ops(),
    ) {
        check_history::<Unrelated>(inst, &ops, unrelated_row, unrelated_row)?;
    }

    #[test]
    fn splittable_index_matches_oracle_through_moves_and_edits(
        inst in small_unrelated(),
        ops in raw_ops(),
    ) {
        check_history::<Splittable>(inst, &ops, unrelated_row, unrelated_row)?;
    }

    #[test]
    fn uniform_index_matches_oracle_through_moves_and_edits(
        inst in small_uniform(),
        ops in raw_ops(),
    ) {
        check_history::<Uniform>(inst, &ops, uniform_row, uniform_row)?;
    }

    #[test]
    fn tied_loads_resolve_to_the_highest_machine(
        uniform in tied_uniform(),
        unrelated in tied_unrelated(),
        ops in raw_ops(),
    ) {
        check_history::<Uniform>(uniform, &ops, tied_uniform_row, tied_uniform_row)?;
        check_history::<Unrelated>(unrelated, &ops, tied_row, tied_row)?;
    }

    #[test]
    fn keys_are_non_decreasing_in_load(
        uniform in small_uniform(),
        unrelated in small_unrelated(),
        a in 0u64..1 << 40,
        b in 0u64..1 << 40,
    ) {
        // The tracker's `*_move_target` accessors and the annealer's
        // target-machine scoring rely on this contract of
        // `MachineModel::key`.
        let (lo, hi) = (a.min(b), a.max(b));
        for i in 0..uniform.m() {
            prop_assert!(Uniform::key(&uniform, i, lo) <= Uniform::key(&uniform, i, hi));
        }
        for i in 0..unrelated.m() {
            prop_assert!(Unrelated::key(&unrelated, i, lo) <= Unrelated::key(&unrelated, i, hi));
            prop_assert!(Splittable::key(&unrelated, i, lo) <= Splittable::key(&unrelated, i, hi));
        }
    }
}
