//! Differential tests pinning the linear-time greedy floors to the
//! original implementations, kept verbatim below as oracles: the uniform
//! greedy that compared gcd-reduced `Ratio`s, and the unrelated greedies
//! whose sorts recomputed an O(m) key per comparison. Schedules must be
//! identical, not merely equally good — the greedy floor is pre-published
//! in every race, so any difference would change served answers.

use proptest::prelude::*;
use sst_algos::list::{class_grouped_greedy_unrelated, greedy_uniform, greedy_unrelated};
use sst_core::instance::{is_finite, Job, UniformInstance, UnrelatedInstance, INF};
use sst_core::ratio::Ratio;
use sst_core::schedule::Schedule;

/// The original `greedy_uniform`.
fn oracle_greedy_uniform(inst: &UniformInstance) -> Schedule {
    let mut order: Vec<usize> = (0..inst.n()).collect();
    order.sort_by_key(|&a| std::cmp::Reverse(inst.job(a).size));
    let mut load = vec![0u64; inst.m()];
    let mut has_class = vec![vec![false; inst.num_classes()]; inst.m()];
    let mut assignment = vec![0usize; inst.n()];
    for &j in &order {
        let job = inst.job(j);
        let best = (0..inst.m())
            .min_by(|&a, &b| {
                let cost = |i: usize| {
                    let setup = if has_class[i][job.class] { 0 } else { inst.setup(job.class) };
                    Ratio::new(load[i] + job.size + setup, inst.speed(i))
                };
                cost(a).cmp(&cost(b)).then(a.cmp(&b))
            })
            .expect("at least one machine");
        if !has_class[best][job.class] {
            has_class[best][job.class] = true;
            load[best] += inst.setup(job.class);
        }
        load[best] += job.size;
        assignment[j] = best;
    }
    Schedule::new(assignment)
}

/// The original `greedy_unrelated`.
fn oracle_greedy_unrelated(inst: &UnrelatedInstance) -> Schedule {
    let mut order: Vec<usize> = (0..inst.n()).collect();
    order.sort_by_key(|&j| {
        let best = (0..inst.m()).map(|i| inst.cost(i, j)).min().unwrap_or(INF);
        std::cmp::Reverse(best)
    });
    let mut load = vec![0u64; inst.m()];
    let mut has_class = vec![vec![false; inst.num_classes()]; inst.m()];
    let mut assignment = vec![0usize; inst.n()];
    for &j in &order {
        let k = inst.class_of(j);
        let mut best: Option<(u64, usize)> = None;
        for i in 0..inst.m() {
            let p = inst.ptime(i, j);
            let s = inst.setup(i, k);
            if !is_finite(p) || !is_finite(s) {
                continue;
            }
            let setup = if has_class[i][k] { 0 } else { s };
            let new_load = load[i].saturating_add(p).saturating_add(setup);
            match best {
                None => best = Some((new_load, i)),
                Some((bl, _)) if new_load < bl => best = Some((new_load, i)),
                _ => {}
            }
        }
        let (_, i) = best.expect("instance validation guarantees a finite machine");
        if !has_class[i][k] {
            has_class[i][k] = true;
            load[i] += inst.setup(i, k);
        }
        load[i] += inst.ptime(i, j);
        assignment[j] = i;
    }
    Schedule::new(assignment)
}

/// The original `class_grouped_greedy_unrelated`.
fn oracle_class_grouped(inst: &UnrelatedInstance) -> Option<Schedule> {
    let mut classes: Vec<usize> = inst.nonempty_classes().to_vec();
    classes.sort_by_key(|&k| {
        let best = (0..inst.m())
            .map(|i| inst.class_workload(i, k).saturating_add(inst.setup(i, k)))
            .min()
            .unwrap_or(INF);
        std::cmp::Reverse(best)
    });
    let mut load = vec![0u64; inst.m()];
    let mut assignment = vec![0usize; inst.n()];
    for &k in &classes {
        let mut best: Option<(u64, usize)> = None;
        for i in 0..inst.m() {
            let w = inst.class_workload(i, k);
            let s = inst.setup(i, k);
            if !is_finite(w) || !is_finite(s) {
                continue;
            }
            let new_load = load[i].saturating_add(w).saturating_add(s);
            match best {
                None => best = Some((new_load, i)),
                Some((bl, _)) if new_load < bl => best = Some((new_load, i)),
                _ => {}
            }
        }
        let (_, i) = best?;
        load[i] =
            load[i].saturating_add(inst.class_workload(i, k)).saturating_add(inst.setup(i, k));
        for &j in inst.jobs_of_class(k) {
            assignment[j] = i;
        }
    }
    Some(Schedule::new(assignment))
}

/// SplitMix64: a self-contained stream so one `u64` seed fixes an instance.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    fn percent(&mut self, pct: u64) -> bool {
        self.next() % 100 < pct
    }
}

/// Instance shapes: `(n, m, K, seed, mode)`. `m` reaches 1, and jobs draw
/// classes from a prefix of `0..K`, so trailing classes are often empty.
fn shape() -> impl Strategy<Value = (usize, usize, usize, u64, u8)> {
    (0usize..=300, 1usize..=6, 1usize..=8, any::<u64>(), 0u8..4)
}

/// Modes: 0 random, 1 heavy ties (identical machines, equal sizes and
/// setups), 2 random with 30 % infinite cells, 3 large values.
fn uniform_instance((n, m, kk, seed, mode): (usize, usize, usize, u64, u8)) -> UniformInstance {
    let mut r = Mix(seed);
    let used = r.range(1, kk as u64);
    // Value ranges `lo..=hi` of sizes, speeds and setups.
    let (lo, size_hi, speed_hi, setup_hi) = match mode {
        1 => (1, 1, 1, 1),
        3 => (0, 1 << 40, 1 << 20, 1 << 40),
        _ => (0, 50, 5, 20),
    };
    let speeds = (0..m).map(|_| r.range(1, speed_hi)).collect();
    let setups = (0..kk).map(|_| r.range(lo, setup_hi)).collect();
    let jobs =
        (0..n).map(|_| Job::new(r.range(0, used - 1) as usize, r.range(lo, size_hi))).collect();
    UniformInstance::new(speeds, setups, jobs).expect("valid uniform instance")
}

/// Same modes for unrelated machines; mode 2 puts ∞ in 30 % of the
/// processing and setup cells, then makes one random cell per job finite
/// where the job had no machine with both its time and setup finite.
fn unrelated_instance((n, m, kk, seed, mode): (usize, usize, usize, u64, u8)) -> UnrelatedInstance {
    let mut r = Mix(seed);
    let used = r.range(1, kk as u64);
    let hi = if mode == 3 { 1 << 40 } else { 60 };
    let inf_pct = if mode == 2 { 30 } else { 0 };
    let cell = |r: &mut Mix, tied: u64| {
        if r.percent(inf_pct) {
            INF
        } else if mode == 1 {
            tied
        } else {
            r.range(0, hi)
        }
    };
    let mut setups: Vec<u64> = (0..kk * m).map(|_| cell(&mut r, 3)).collect();
    let job_class: Vec<usize> = (0..n).map(|_| r.range(0, used - 1) as usize).collect();
    let mut ptimes = Vec::with_capacity(n * m);
    for &k in &job_class {
        let tied = r.range(1, 2);
        let row = ptimes.len();
        for _ in 0..m {
            ptimes.push(cell(&mut r, tied));
        }
        if (0..m).all(|i| ptimes[row + i] == INF || setups[k * m + i] == INF) {
            let i = r.range(0, m as u64 - 1) as usize;
            ptimes[row + i] = r.range(0, hi);
            setups[k * m + i] = r.range(0, hi);
        }
    }
    UnrelatedInstance::from_flat(m, job_class, ptimes, setups).expect("every job has a machine")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn greedy_uniform_matches_the_ratio_oracle(s in shape()) {
        let inst = uniform_instance(s);
        prop_assert_eq!(greedy_uniform(&inst), oracle_greedy_uniform(&inst));
    }

    #[test]
    fn unrelated_greedies_match_the_sort_by_key_oracles(s in shape()) {
        let inst = unrelated_instance(s);
        prop_assert_eq!(greedy_unrelated(&inst), oracle_greedy_unrelated(&inst));
        prop_assert_eq!(class_grouped_greedy_unrelated(&inst), oracle_class_grouped(&inst));
    }
}

#[test]
fn generator_modes_reach_the_edge_cases() {
    // The proptests are only as strong as their inputs: the shapes they
    // draw must really contain ∞ cells, empty classes and full ties.
    let inf = unrelated_instance((40, 4, 6, 7, 2));
    assert!((0..40).any(|j| inf.ptimes_row(j).contains(&INF)));
    let tied = uniform_instance((40, 4, 8, 7, 1));
    assert!(tied.speeds().iter().all(|&v| v == 1));
    assert!(tied.jobs().iter().all(|j| j.size == tied.jobs()[0].size));
    assert!(
        (0..20).any(|seed| {
            let inst = uniform_instance((40, 4, 8, seed, 0));
            inst.nonempty_classes().len() < inst.num_classes()
        }),
        "some class stays empty"
    );
}

#[test]
fn greedy_floors_match_on_the_scenario_families() {
    use sst_gen::scenarios;
    for (n, m, k) in [(48, 5, 6), (800, 10, 16), (13, 3, 4), (200, 7, 30), (1, 1, 1)] {
        for seed in 1..=3 {
            let line = scenarios::production_line(n, m, k, seed);
            assert_eq!(greedy_uniform(&line), oracle_greedy_uniform(&line));
            for inst in [
                scenarios::compute_cluster(n, m, k, seed),
                scenarios::print_shop(n, m, k, seed),
                scenarios::ci_build_farm(n, m, k, seed),
                scenarios::cdn_transcode(n, m, k, seed),
                sst_gen::unrelated(&sst_gen::UnrelatedParams {
                    n,
                    m,
                    k,
                    seed,
                    ..Default::default()
                }),
            ] {
                assert_eq!(greedy_unrelated(&inst), oracle_greedy_unrelated(&inst));
                assert_eq!(class_grouped_greedy_unrelated(&inst), oracle_class_grouped(&inst));
            }
        }
    }
}
