//! Differential tests pinning the one-pass instance statistics to the
//! original per-row implementations, kept verbatim below as oracles.
//! Features select the race's members and key the win-rate tracker, so
//! they must be bit-identical (compared through `Debug`, which prints
//! every `f64` in round-trip form), not merely close.

use proptest::prelude::*;
use sst_core::instance::{is_finite, JobId, UnrelatedInstance, INF};
use sst_core::stats::{unrelated_stats, UnrelatedStats};
use sst_gen::{scenarios, UnrelatedParams};
use sst_portfolio::features::{extract_features, Features, ModelKind};
use sst_portfolio::model::SplittableInstance;
use sst_portfolio::select::WinRateTracker;
use sst_portfolio::solver::ProblemInstance;

/// The original `UnrelatedInstance::has_class_uniform_restrictions`.
fn oracle_class_uniform_restrictions(inst: &UnrelatedInstance) -> bool {
    for k in 0..inst.num_classes() {
        let jobs = inst.jobs_of_class(k);
        if jobs.len() < 2 {
            continue;
        }
        let sig = |j: JobId| -> Vec<bool> {
            (0..inst.m()).map(|i| is_finite(inst.ptime(i, j))).collect()
        };
        let first = sig(jobs[0]);
        if jobs[1..].iter().any(|&j| sig(j) != first) {
            return false;
        }
    }
    true
}

/// The original `unrelated_stats`.
fn oracle_unrelated_stats(inst: &UnrelatedInstance) -> UnrelatedStats {
    let n = inst.n();
    let m = inst.m();
    let mut finite_cells = 0usize;
    let mut elig_sum = 0usize;
    let mut hetero: f64 = 1.0;
    for j in 0..n {
        let row: Vec<u64> = (0..m).map(|i| inst.ptime(i, j)).filter(|&p| is_finite(p)).collect();
        finite_cells += row.len();
        elig_sum += inst.eligible_machines(j).len();
        if let (Some(&max), Some(&min)) = (row.iter().max(), row.iter().min()) {
            if min > 0 {
                hetero = hetero.max(max as f64 / min as f64);
            }
        }
    }
    let mut setup_ratio = 0.0f64;
    for i in 0..m {
        let s: u64 =
            (0..inst.num_classes()).map(|k| inst.setup(i, k)).filter(|&s| is_finite(s)).sum();
        let p: u64 = (0..n).map(|j| inst.ptime(i, j)).filter(|&p| is_finite(p)).sum();
        setup_ratio += s as f64 / p.max(1) as f64;
    }
    UnrelatedStats {
        n,
        m,
        nonempty_classes: inst.nonempty_classes().len(),
        density: if n == 0 { 1.0 } else { finite_cells as f64 / (n * m) as f64 },
        mean_eligibility: if n == 0 { 0.0 } else { elig_sum as f64 / n as f64 },
        heterogeneity: hetero,
        setup_to_work: if m == 0 { 0.0 } else { setup_ratio / m as f64 },
        structure: (
            inst.is_restricted_assignment(),
            oracle_class_uniform_restrictions(inst),
            inst.has_class_uniform_ptimes(),
        ),
    }
}

/// The original unrelated-model features, built on the oracle statistics.
fn oracle_unrelated_features(inst: &UnrelatedInstance, model: ModelKind) -> Features {
    let s = oracle_unrelated_stats(inst);
    let mut pop = vec![0usize; inst.num_classes()];
    for j in 0..inst.n() {
        pop[inst.class_of(j)] += 1;
    }
    let max_pop = pop.iter().copied().max().unwrap_or(0);
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

/// Asserts the served features and the win-rate family of `inst` equal the
/// oracle's.
fn assert_features_match(inst: &UnrelatedInstance, model: ModelKind) {
    let served = match model {
        ModelKind::Splittable => ProblemInstance::Splittable(SplittableInstance(inst.clone())),
        _ => ProblemInstance::Unrelated(inst.clone()),
    };
    let got = extract_features(&served);
    let want = oracle_unrelated_features(inst, model);
    assert_eq!(format!("{got:?}"), format!("{want:?}"));
    assert_eq!(WinRateTracker::family_key(&got), WinRateTracker::family_key(&want));
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
}

/// A random instance of `n ≤ 300` jobs on `m ≤ 6` machines and `K ≤ 8`
/// classes; jobs use a prefix of the classes, so some stay empty. Mode 0
/// draws values (zeros included), mode 1 ties them (one value per job
/// row, equal setups), mode 2 puts ∞ in 30 % of the cells, and mode 3 bars
/// each class from a fixed set of machines (class-uniform restrictions).
/// A job left with no machine whose time and setup are both finite gets
/// one random cell made finite.
fn instance((n, m, kk, seed, mode): (usize, usize, usize, u64, u8)) -> UnrelatedInstance {
    let mut r = Mix(seed);
    let used = r.range(1, kk as u64);
    let cell = |r: &mut Mix, tied: u64| match mode {
        1 => tied,
        2 if r.range(0, 99) < 30 => INF,
        _ => r.range(0, 60),
    };
    let mut setups: Vec<u64> = (0..kk * m).map(|_| cell(&mut r, 3)).collect();
    let job_class: Vec<usize> = (0..n).map(|_| r.range(0, used - 1) as usize).collect();
    let mut ptimes = Vec::with_capacity(n * m);
    for &k in &job_class {
        let tied = r.range(1, 2);
        let row = ptimes.len();
        for i in 0..m {
            let barred = mode == 3 && (i + k) % 3 == 0 && i != k % m;
            ptimes.push(if barred { INF } else { cell(&mut r, tied) });
        }
        if (0..m).all(|i| ptimes[row + i] == INF || setups[k * m + i] == INF) {
            let i = r.range(0, m as u64 - 1) as usize;
            ptimes[row + i] = r.range(0, 60);
            setups[k * m + i] = r.range(0, 60);
        }
    }
    UnrelatedInstance::from_flat(m, job_class, ptimes, setups).expect("every job has a machine")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_pass_stats_match_the_per_row_oracle(
        s in (0usize..=300, 1usize..=6, 1usize..=8, any::<u64>(), 0u8..4)
    ) {
        let inst = instance(s);
        prop_assert_eq!(
            inst.has_class_uniform_restrictions(),
            oracle_class_uniform_restrictions(&inst)
        );
        prop_assert_eq!(
            format!("{:?}", unrelated_stats(&inst)),
            format!("{:?}", oracle_unrelated_stats(&inst))
        );
        assert_features_match(&inst, ModelKind::Unrelated);
    }
}

#[test]
fn generator_reaches_both_restriction_structures() {
    let shapes = |mode| (0..20).map(move |seed| instance((60, 4, 3, seed, mode)));
    assert!(shapes(3).any(|i| i.has_class_uniform_restrictions()));
    assert!(shapes(2).any(|i| !i.has_class_uniform_restrictions()));
    assert!(shapes(2).any(|i| (0..i.n()).any(|j| i.ptimes_row(j).contains(&0))));
}

#[test]
fn features_and_families_match_on_the_solve_complete_families() {
    for (n, m, k) in [(48, 5, 6), (800, 10, 16)] {
        for seed in 1..=4 {
            for inst in [
                scenarios::compute_cluster(n, m, k, seed),
                scenarios::print_shop(n, m, k, seed),
                scenarios::ci_build_farm(n, m, k, seed),
                sst_gen::unrelated(&UnrelatedParams { n, m, k, seed, ..Default::default() }),
            ] {
                assert_features_match(&inst, ModelKind::Unrelated);
            }
            // cdn-transcode is served splittable; production-line, the
            // sixth family, is uniform and never reads these statistics.
            assert_features_match(&scenarios::cdn_transcode(n, m, k, seed), ModelKind::Splittable);
        }
    }
}
