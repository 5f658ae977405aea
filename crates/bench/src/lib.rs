//! # sst-bench — the experiment harness
//!
//! One function per experiment, E1–E11. Each returns the table it prints,
//! so integration tests can assert on the measured shapes and the
//! `experiments` binary can print or archive exact numbers. Runtime-oriented
//! measurements live in the criterion benches (`benches/`); the functions
//! here measure *solution quality*, which criterion cannot.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use rayon::prelude::*;

use sst_algos::exact::{exact_uniform, exact_unrelated};
use sst_algos::list::{greedy_unrelated, oblivious_lpt_uniform};
use sst_algos::lpt::{lpt_with_setups_makespan, LPT_FACTOR};
use sst_algos::ptas::{ptas_uniform, PtasConfig};
use sst_algos::ra::solve_ra_class_uniform;
use sst_algos::rounding::{solve_unrelated_randomized, RoundingConfig};
use sst_core::bounds::uniform_lower_bound;
use sst_core::groups::SpeedGroups;
use sst_core::schedule::{uniform_makespan, unrelated_makespan};
use sst_gen::{SetupWeight, SpeedProfile, UniformParams, UnrelatedParams};

/// A generic table: header + rows of cells, pretty-printable.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id ("E1" …).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// The paper claim being measured.
    pub claim: &'static str,
    /// Column names.
    pub header: Vec<&'static str>,
    /// Row-major cells, already formatted.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        let _ = writeln!(out, "claim: {}", self.claim);
        for (c, h) in self.header.iter().enumerate() {
            let _ = write!(out, "{:>w$}  ", h, w = widths[c]);
        }
        let _ = writeln!(out);
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                let _ = write!(out, "{:>w$}  ", cell, w = widths[c]);
            }
            let _ = writeln!(out);
        }
        out
    }
}

fn f2(v: f64) -> String {
    format!("{v:.2}")
}
fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// E1 — Lemma 2.1: measured LPT ratios stay below `3(1+1/√3) ≈ 4.74`.
///
/// Ratios are against the certified combinatorial lower bound (so they
/// upper-bound the true ratio); on the small rows also against the exact
/// optimum. `quick` trims the grid.
pub fn e1_lpt(quick: bool) -> Table {
    struct Row {
        n: usize,
        m: usize,
        k: usize,
        setups: SetupWeight,
        seeds: u64,
    }
    let mut grid = vec![
        Row { n: 20, m: 3, k: 4, setups: SetupWeight::Light, seeds: 5 },
        Row { n: 20, m: 3, k: 4, setups: SetupWeight::Heavy, seeds: 5 },
        Row { n: 60, m: 6, k: 10, setups: SetupWeight::Moderate, seeds: 5 },
        Row { n: 120, m: 10, k: 20, setups: SetupWeight::Heavy, seeds: 5 },
    ];
    if !quick {
        grid.push(Row { n: 300, m: 20, k: 40, setups: SetupWeight::Moderate, seeds: 5 });
        grid.push(Row { n: 500, m: 50, k: 80, setups: SetupWeight::Heavy, seeds: 5 });
        grid.push(Row { n: 500, m: 50, k: 5, setups: SetupWeight::Light, seeds: 5 });
    }
    let mut rows: Vec<Vec<String>> = grid
        .par_iter()
        .map(|r| {
            let mut worst: f64 = 0.0;
            let mut sum = 0.0;
            for seed in 0..r.seeds {
                let inst = sst_gen::uniform(&UniformParams {
                    n: r.n,
                    m: r.m,
                    k: r.k,
                    size_range: (1, 100),
                    speeds: SpeedProfile::UniformRandom { lo: 1, hi: 8 },
                    setups: r.setups,
                    seed: 1000 + seed,
                });
                let lb = uniform_lower_bound(&inst).to_f64();
                let (_, ms) = lpt_with_setups_makespan(&inst);
                let ratio = ms.to_f64() / lb;
                worst = worst.max(ratio);
                sum += ratio;
            }
            vec![
                r.n.to_string(),
                r.m.to_string(),
                r.k.to_string(),
                format!("{:?}", r.setups),
                f3(sum / r.seeds as f64),
                f3(worst),
                f2(LPT_FACTOR),
            ]
        })
        .collect();
    // Adversarial family + exact-referenced small rows (sequential: B&B).
    for m in [3usize, 4] {
        let inst = sst_gen::lpt_adversarial(m, 7);
        let lb = uniform_lower_bound(&inst).to_f64();
        let (_, ms) = lpt_with_setups_makespan(&inst);
        rows.push(vec![
            inst.n().to_string(),
            m.to_string(),
            inst.num_classes().to_string(),
            "Adversarial".into(),
            f3(ms.to_f64() / lb),
            f3(ms.to_f64() / lb),
            f2(LPT_FACTOR),
        ]);
    }
    for seed in 0..3u64 {
        let inst = sst_gen::uniform(&UniformParams {
            n: 11,
            m: 3,
            k: 3,
            size_range: (1, 30),
            speeds: SpeedProfile::UniformRandom { lo: 1, hi: 4 },
            setups: SetupWeight::Moderate,
            seed: 50 + seed,
        });
        let exact = exact_uniform(&inst, 1 << 24);
        let (_, ms) = lpt_with_setups_makespan(&inst);
        let ratio = ms.to_f64() / exact.makespan.to_f64();
        rows.push(vec![
            "11".into(),
            "3".into(),
            "3".into(),
            format!("vs-exact(s{seed})"),
            f3(ratio),
            f3(ratio),
            f2(LPT_FACTOR),
        ]);
    }
    Table {
        id: "E1",
        title: "LPT with setup batching (Lemma 2.1)",
        claim: "makespan ≤ 3(1+1/√3)·Opt ≈ 4.74·Opt on uniform machines",
        header: vec!["n", "m", "K", "family", "mean-ratio", "worst-ratio", "bound"],
        rows,
    }
}

/// E2 — Section 2 PTAS: ratio vs exact optimum shrinks with ε; certified
/// `(1+O(ε))` behaviour on small instances.
pub fn e2_ptas(quick: bool) -> Table {
    let seeds: u64 = if quick { 2 } else { 4 };
    let qs: &[u64] = if quick { &[2, 4] } else { &[2, 4, 8] };
    let mut rows = Vec::new();
    for &q in qs {
        // ε = 1/8 multiplies the DP state space; keep it tractable with a
        // smaller instance and a firm node cap (the decision degrades to
        // "infeasible" on cap — sound, see PtasConfig docs).
        let (n, node_limit) = if q >= 8 { (8usize, 2_000_000u64) } else { (10, 30_000_000) };
        let results: Vec<(f64, f64, f64)> = (0..seeds)
            .into_par_iter()
            .map(|seed| {
                let inst = sst_gen::uniform(&UniformParams {
                    n,
                    m: 3,
                    k: 3,
                    size_range: (1, 25),
                    speeds: SpeedProfile::UniformRandom { lo: 1, hi: 4 },
                    setups: SetupWeight::Moderate,
                    seed: 300 + seed,
                });
                let t0 = std::time::Instant::now();
                let res = ptas_uniform(&inst, &PtasConfig { q, node_limit });
                let dt = t0.elapsed().as_secs_f64();
                let exact = exact_uniform(&inst, 1 << 26);
                assert!(exact.complete, "exact reference must finish");
                (res.makespan.to_f64() / exact.makespan.to_f64(), dt, 0.0)
            })
            .collect();
        let mean: f64 = results.iter().map(|r| r.0).sum::<f64>() / results.len() as f64;
        let worst: f64 = results.iter().map(|r| r.0).fold(0.0, f64::max);
        let time: f64 = results.iter().map(|r| r.1).sum::<f64>() / results.len() as f64;
        rows.push(vec![
            format!("1/{q}"),
            format!("{n}×3"),
            f3(mean),
            f3(worst),
            format!("{:.0}", 1.0 + 3.0 / q as f64 * 100.0 - 100.0 + 100.0), // placeholder replaced below
            format!("{:.1}ms", time * 1e3),
        ]);
        let last = rows.last_mut().expect("just pushed");
        last[4] = f3(1.0 + 3.0 / q as f64);
    }
    Table {
        id: "E2",
        title: "PTAS for uniform machines (Section 2)",
        claim: "ratio ≤ 1+O(ε), shrinking with ε; runtime grows in 1/ε",
        header: vec!["eps", "n×m", "mean-ratio", "worst-ratio", "1+3eps", "mean-time"],
        rows,
    }
}

/// E3 — Theorem 3.3: rounding ratio grows at most like `log n + log m`;
/// includes the `c`-parameter ablation.
pub fn e3_rounding(quick: bool) -> Table {
    let grid: Vec<(usize, usize)> =
        if quick { vec![(20, 4), (40, 6)] } else { vec![(20, 4), (40, 6), (80, 8), (120, 10)] };
    let mut rows: Vec<Vec<String>> = grid
        .par_iter()
        .map(|&(n, m)| {
            let seeds = 3u64;
            let mut worst = 0.0f64;
            let mut sum = 0.0;
            let mut fallbacks = 0usize;
            for seed in 0..seeds {
                let inst = sst_gen::unrelated(&UnrelatedParams {
                    n,
                    m,
                    k: (n / 5).max(2),
                    seed: 700 + seed,
                    ..Default::default()
                });
                let res = solve_unrelated_randomized(&inst, &RoundingConfig { c: 2.0, seed });
                let ratio = res.makespan as f64 / res.t_star as f64;
                worst = worst.max(ratio);
                sum += ratio;
                fallbacks += res.fallback_jobs;
            }
            let env = (n as f64).ln() + (m as f64).ln();
            vec![
                n.to_string(),
                m.to_string(),
                "2.0".into(),
                f3(sum / seeds as f64),
                f3(worst),
                f3(env),
                f3(worst / env),
                fallbacks.to_string(),
            ]
        })
        .collect();
    // Ablation on c at fixed size: the failure probability of step 2 is
    // n^{-c}; frugal c leaves jobs to the guarantee-less fallback.
    for c in [0.05f64, 0.5, 2.0, 4.0] {
        let (n, m) = (40usize, 6usize);
        let mut worst = 0.0f64;
        let mut sum = 0.0;
        let mut fallbacks = 0usize;
        let seeds = 3u64;
        for seed in 0..seeds {
            let inst = sst_gen::unrelated(&UnrelatedParams {
                n,
                m,
                k: 8,
                seed: 900 + seed,
                ..Default::default()
            });
            let res = solve_unrelated_randomized(&inst, &RoundingConfig { c, seed });
            let ratio = res.makespan as f64 / res.t_star as f64;
            worst = worst.max(ratio);
            sum += ratio;
            fallbacks += res.fallback_jobs;
        }
        let env = (n as f64).ln() + (m as f64).ln();
        rows.push(vec![
            n.to_string(),
            m.to_string(),
            format!("{c}"),
            f3(sum / seeds as f64),
            f3(worst),
            f3(env),
            f3(worst / env),
            fallbacks.to_string(),
        ]);
    }
    Table {
        id: "E3",
        title: "Randomized rounding on unrelated machines (Theorem 3.3)",
        claim: "makespan = O(T*·(log n + log m)) whp; T* is the LP lower bound",
        header: vec![
            "n",
            "m",
            "c",
            "mean-ratio",
            "worst-ratio",
            "ln n+ln m",
            "worst/env",
            "fallbacks",
        ],
        rows,
    }
}

/// E4 — Corollary 3.4 / Theorem 3.5: the reduction's integral-vs-fractional
/// gap grows linearly in `log N` on the GF(2) family.
pub fn e4_hardness(quick: bool) -> Table {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sst_setcover::{
        gf2_basis_cover, gf2_fractional_optimum, gf2_gap_instance, gf2_integral_optimum, reduce,
        reduction_makespan_lower_bound, schedule_from_cover,
    };
    let ks: Vec<u32> = if quick { vec![2, 3, 4] } else { vec![2, 3, 4, 5, 6] };
    let rows = ks
        .iter()
        .map(|&k| {
            let sc = gf2_gap_instance(k);
            let t = gf2_fractional_optimum(k).ceil() as usize;
            let mut rng = StdRng::seed_from_u64(42 + k as u64);
            let red = reduce(&sc, t, &mut rng);
            let lb = reduction_makespan_lower_bound(&red, gf2_integral_optimum(k));
            let sched = schedule_from_cover(&sc, &red, &gf2_basis_cover(k));
            let yes = unrelated_makespan(&red.instance, &sched).expect("valid");
            let frac_per_machine =
                red.num_classes as f64 * gf2_fractional_optimum(k) / red.instance.m() as f64;
            vec![
                k.to_string(),
                sc.num_sets().to_string(),
                red.num_classes.to_string(),
                red.instance.n().to_string(),
                lb.to_string(),
                yes.to_string(),
                f2(frac_per_machine),
                f2(lb as f64 / frac_per_machine),
            ]
        })
        .collect();
    Table {
        id: "E4",
        title: "Integrality gap via the Theorem 3.5 reduction (GF(2) family)",
        claim: "integral/fractional gap grows like k/2 = Θ(log N) = Θ(log n + log m)",
        header: vec!["k", "m=N", "K", "n", "int-LB", "schedule", "frac/machine", "gap"],
        rows,
    }
}

/// E5 — Theorem 3.10: the 2-approximation for RA with class-uniform
/// restrictions never exceeds `2·T*`, and tracks the exact optimum closely.
pub fn e5_ra(quick: bool) -> Table {
    let seeds: u64 = if quick { 3 } else { 6 };
    let mut rows: Vec<Vec<String>> = (0..seeds)
        .into_par_iter()
        .map(|seed| {
            let inst =
                sst_gen::ra_class_uniform(40, 6, 7, 3, (1, 40), SetupWeight::Moderate, 1300 + seed);
            let res = solve_ra_class_uniform(&inst);
            vec![
                format!("40×6 (s{seed})"),
                res.t_star.to_string(),
                res.makespan.to_string(),
                f3(res.makespan as f64 / res.t_star as f64),
                "2.00".into(),
            ]
        })
        .collect();
    // Exact-referenced small rows.
    for seed in 0..2u64 {
        let inst =
            sst_gen::ra_class_uniform(10, 3, 3, 2, (1, 20), SetupWeight::Moderate, 1400 + seed);
        let res = solve_ra_class_uniform(&inst);
        let exact = exact_unrelated(&inst, 1 << 24);
        rows.push(vec![
            format!("10×3 vs-exact (s{seed})"),
            exact.makespan.to_string(),
            res.makespan.to_string(),
            f3(res.makespan as f64 / exact.makespan as f64),
            "2.00".into(),
        ]);
    }
    Table {
        id: "E5",
        title: "RA with class-uniform restrictions (Theorem 3.10)",
        claim: "makespan ≤ 2·T* ≤ 2·Opt",
        header: vec!["instance", "T*/Opt", "makespan", "ratio", "bound"],
        rows,
    }
}

/// E6 — Theorem 3.11: the 3-approximation for class-uniform processing
/// times never exceeds `3·T*`.
pub fn e6_cupt(quick: bool) -> Table {
    let seeds: u64 = if quick { 3 } else { 6 };
    let mut rows: Vec<Vec<String>> = (0..seeds)
        .into_par_iter()
        .map(|seed| {
            let inst = sst_gen::class_uniform_ptimes(
                40,
                5,
                6,
                (1, 30),
                SetupWeight::Moderate,
                1500 + seed,
            );
            let res = sst_algos::cupt::solve_class_uniform_ptimes(&inst);
            vec![
                format!("40×5 (s{seed})"),
                res.t_star.to_string(),
                res.makespan.to_string(),
                f3(res.makespan as f64 / res.t_star as f64),
                "3.00".into(),
            ]
        })
        .collect();
    for seed in 0..2u64 {
        let inst =
            sst_gen::class_uniform_ptimes(10, 3, 3, (1, 15), SetupWeight::Moderate, 1600 + seed);
        let res = sst_algos::cupt::solve_class_uniform_ptimes(&inst);
        let exact = exact_unrelated(&inst, 1 << 24);
        rows.push(vec![
            format!("10×3 vs-exact (s{seed})"),
            exact.makespan.to_string(),
            res.makespan.to_string(),
            f3(res.makespan as f64 / exact.makespan as f64),
            "3.00".into(),
        ]);
    }
    Table {
        id: "E6",
        title: "Class-uniform processing times (Theorem 3.11)",
        claim: "makespan ≤ 3·T* ≤ 3·Opt",
        header: vec!["instance", "T*/Opt", "makespan", "ratio", "bound"],
        rows,
    }
}

/// E7 — Figure 1: speed-group structure across speed profiles. Verifies
/// each speed lies in exactly two groups, counts nonempty groups `G`, and
/// summarizes core-group coverage of the classes.
pub fn e7_groups(_quick: bool) -> Table {
    let profiles: Vec<(&'static str, SpeedProfile)> = vec![
        ("identical", SpeedProfile::Identical),
        ("uniform(1..8)", SpeedProfile::UniformRandom { lo: 1, hi: 8 }),
        ("geometric(4^0..4^4)", SpeedProfile::GeometricSpread { base: 4, tiers: 5 }),
        ("bimodal(1|64)", SpeedProfile::Bimodal { slow: 1, fast: 64, fast_per_8: 2 }),
    ];
    let rows = profiles
        .iter()
        .map(|(name, profile)| {
            let inst = sst_gen::uniform(&UniformParams {
                n: 40,
                m: 16,
                k: 8,
                speeds: *profile,
                seed: 77,
                ..Default::default()
            });
            let t = uniform_lower_bound(&inst);
            let q = 2u64;
            let groups = SpeedGroups::new(&inst, q, t);
            let g_max = groups.max_group();
            // Every machine in exactly two groups; group sizes.
            let mut sizes = Vec::new();
            for g in 0..=g_max {
                sizes.push(groups.machines_of_group(g).len());
            }
            let total: usize = sizes.iter().sum();
            assert_eq!(total, 2 * inst.m(), "each machine counted twice");
            // Core groups of the classes (Remark: every class has one).
            let core_groups: Vec<i64> =
                (0..inst.num_classes()).filter_map(|k| groups.core_group(inst.setup(k))).collect();
            let span =
                core_groups.iter().max().unwrap_or(&0) - core_groups.iter().min().unwrap_or(&0);
            vec![
                (*name).to_string(),
                inst.m().to_string(),
                format!("{}", g_max + 1),
                format!("{sizes:?}"),
                span.to_string(),
            ]
        })
        .collect();
    Table {
        id: "E7",
        title: "Speed groups of Figure 1 (ε = 1/2, γ = 1/8)",
        claim: "overlapping groups; every speed in exactly 2; G = O(log_{1/γ}(v_max/v_min))",
        header: vec!["profile", "m", "#groups", "|M_g| per group", "core-group span"],
        rows,
    }
}

/// E8 — setup-awareness matters: paper algorithms vs oblivious baselines
/// across setup weights, both environments.
pub fn e8_baselines(quick: bool) -> Table {
    let weights = [SetupWeight::Light, SetupWeight::Moderate, SetupWeight::Heavy];
    let seeds: u64 = if quick { 2 } else { 4 };
    let mut rows = Vec::new();
    for &w in &weights {
        // Uniform environment.
        let mut obl = 0.0f64;
        let mut lpt = 0.0f64;
        for seed in 0..seeds {
            let inst = sst_gen::uniform(&UniformParams {
                n: 80,
                m: 8,
                k: 16,
                setups: w,
                seed: 1700 + seed,
                ..Default::default()
            });
            let lb = uniform_lower_bound(&inst).to_f64();
            obl += uniform_makespan(&inst, &oblivious_lpt_uniform(&inst)).expect("valid").to_f64()
                / lb;
            lpt += lpt_with_setups_makespan(&inst).1.to_f64() / lb;
        }
        rows.push(vec![
            "uniform".into(),
            format!("{w:?}"),
            f3(obl / seeds as f64),
            f3(lpt / seeds as f64),
            "-".into(),
        ]);
        // Unrelated environment.
        let mut grd = 0.0f64;
        let mut rr = 0.0f64;
        for seed in 0..seeds {
            let inst = sst_gen::unrelated(&UnrelatedParams {
                n: 40,
                m: 5,
                k: 8,
                setups: w,
                seed: 1800 + seed,
                ..Default::default()
            });
            let res = solve_unrelated_randomized(&inst, &RoundingConfig { c: 2.0, seed });
            let t = res.t_star as f64;
            grd += unrelated_makespan(&inst, &greedy_unrelated(&inst)).expect("valid") as f64 / t;
            rr += res.makespan as f64 / t;
        }
        rows.push(vec![
            "unrelated".into(),
            format!("{w:?}"),
            f3(grd / seeds as f64),
            "-".into(),
            f3(rr / seeds as f64),
        ]);
    }
    Table {
        id: "E8",
        title: "Setup-awareness ablation (baselines vs paper algorithms)",
        claim: "oblivious baselines degrade with setup weight; guarantees hold throughout",
        header: vec!["env", "setups", "oblivious/greedy", "Lemma 2.1", "Thm 3.3"],
        rows,
    }
}

/// E9 — the splittable model of Correa et al. \[5\] (Section 3.3's
/// substrate): on heavy-class instances the split schedule beats the best
/// non-splittable one, and both certify against the same `T*`.
pub fn e9_splittable(quick: bool) -> Table {
    use sst_algos::splittable::{
        solve_splittable_class_uniform_ptimes, solve_splittable_ra_class_uniform,
    };
    let seeds: u64 = if quick { 3 } else { 6 };
    let mut rows: Vec<Vec<String>> = (0..seeds)
        .into_par_iter()
        .map(|seed| {
            let inst = sst_gen::splittable_stress(4, 6, 12, 2100 + seed);
            let unsplit = solve_ra_class_uniform(&inst);
            let split = solve_splittable_ra_class_uniform(&inst);
            assert!(split.makespan <= 2.0 * split.t_star as f64 + 1e-6, "2T* violated");
            split.schedule.validate(&inst).expect("split invariants");
            let degree =
                (0..inst.num_classes()).map(|k| split.schedule.split_degree(k)).max().unwrap_or(0);
            vec![
                format!("ra-stress (s{seed})"),
                split.t_star.to_string(),
                unsplit.makespan.to_string(),
                format!("{:.1}", split.makespan),
                f3(split.makespan / split.t_star as f64),
                "2.00".into(),
                degree.to_string(),
            ]
        })
        .collect();
    for seed in 0..if quick { 2u64 } else { 4 } {
        let inst =
            sst_gen::class_uniform_ptimes(30, 5, 4, (1, 30), SetupWeight::Moderate, 2200 + seed);
        let unsplit = sst_algos::cupt::solve_class_uniform_ptimes(&inst);
        let split = solve_splittable_class_uniform_ptimes(&inst);
        assert!(split.makespan <= 3.0 * split.t_star as f64 + 1e-6, "3T* violated");
        split.schedule.validate(&inst).expect("split invariants");
        let degree =
            (0..inst.num_classes()).map(|k| split.schedule.split_degree(k)).max().unwrap_or(0);
        rows.push(vec![
            format!("cupt (s{seed})"),
            split.t_star.to_string(),
            unsplit.makespan.to_string(),
            format!("{:.1}", split.makespan),
            f3(split.makespan / split.t_star as f64),
            "3.00".into(),
            degree.to_string(),
        ]);
    }
    Table {
        id: "E9",
        title: "Splittable classes (Correa et al. [5], Section 3.3 substrate)",
        claim: "split makespan ≤ bound·T*, never above the unsplit rounding",
        header: vec!["family", "T*", "unsplit", "split", "ratio", "bound", "max-degree"],
        rows,
    }
}

/// E10 — the identical-machines lineage (\[24\]) plus the OR metaheuristic:
/// wrap rule and batch-LPT stay inside factor 4 while the setup-oblivious
/// baseline degrades; annealing polishes but certifies nothing.
pub fn e10_identical(quick: bool) -> Table {
    use sst_algos::annealing::{anneal_uniform, AnnealConfig};
    use sst_algos::identical::{wrap_capacity, wrap_identical};
    let weights = [SetupWeight::Light, SetupWeight::Moderate, SetupWeight::Heavy];
    let seeds: u64 = if quick { 2 } else { 4 };
    let rows: Vec<Vec<String>> = weights
        .par_iter()
        .map(|&w| {
            let mut obl = 0.0f64;
            let mut wrap = 0.0f64;
            let mut blpt = 0.0f64;
            let mut sa = 0.0f64;
            for seed in 0..seeds {
                let inst = sst_gen::uniform(&UniformParams {
                    n: 80,
                    m: 8,
                    k: 16,
                    setups: w,
                    seed: 2300 + seed,
                    speeds: SpeedProfile::Identical,
                    ..Default::default()
                });
                let lb = uniform_lower_bound(&inst).to_f64();
                obl +=
                    uniform_makespan(&inst, &oblivious_lpt_uniform(&inst)).expect("valid").to_f64()
                        / lb;
                let wrapped = wrap_identical(&inst);
                let wms = uniform_makespan(&inst, &wrapped).expect("valid");
                assert!(
                    wms.to_f64() <= wrap_capacity(&inst) as f64 + 1e-9,
                    "wrap exceeded its own capacity bound"
                );
                wrap += wms.to_f64() / lb;
                let (batch, bms) = lpt_with_setups_makespan(&inst);
                blpt += bms.to_f64() / lb;
                let res = anneal_uniform(
                    &inst,
                    &batch,
                    &AnnealConfig { iterations: 15_000, seed, ..AnnealConfig::default() },
                );
                sa += uniform_makespan(&inst, &res.schedule).expect("valid").to_f64() / lb;
            }
            let s = seeds as f64;
            vec![
                format!("{w:?}"),
                f3(obl / s),
                f3(wrap / s),
                f3(blpt / s),
                f3(sa / s),
                "4.00".into(),
            ]
        })
        .collect();
    Table {
        id: "E10",
        title: "Identical machines ([24] lineage) + annealing baseline",
        claim: "wrap/batch-LPT ≤ 4·Opt throughout; oblivious degrades; SA certifies nothing",
        header: vec!["setups", "oblivious", "wrap", "batch-LPT", "annealed", "bound"],
        rows,
    }
}

/// E11 — lower-bound strength: combinatorial bound ≤ assignment-LP `T*`
/// (Section 3.1's relaxation) ≤ configuration-LP bound (the \[19,20\]
/// lineage) ≤ exact optimum, with the configuration LP visibly tighter.
pub fn e11_bounds(quick: bool) -> Table {
    use sst_algos::configlp::{config_lp_lower_bound, ConfigLpLimits};
    use sst_algos::lp_relax::lp_makespan_lower_bound;
    use sst_core::bounds::unrelated_lower_bound;
    let seeds: u64 = if quick { 3 } else { 6 };
    let rows: Vec<Vec<String>> = (0..seeds)
        .into_par_iter()
        .map(|seed| {
            let inst = sst_gen::unrelated(&UnrelatedParams {
                n: 10,
                m: 3,
                k: 3,
                size_range: (1, 20),
                setups: SetupWeight::Moderate,
                seed: 2500 + seed,
                ..Default::default()
            });
            let comb = unrelated_lower_bound(&inst);
            let assign = lp_makespan_lower_bound(&inst);
            let config = config_lp_lower_bound(&inst, &ConfigLpLimits::default());
            let exact = exact_unrelated(&inst, 1 << 24);
            assert!(exact.complete, "exact reference must finish");
            assert!(comb <= assign && assign <= config + 1 && config <= exact.makespan);
            vec![
                format!("10×3 (s{seed})"),
                comb.to_string(),
                assign.to_string(),
                config.to_string(),
                exact.makespan.to_string(),
                f3(config as f64 / exact.makespan as f64),
            ]
        })
        .collect();
    Table {
        id: "E11",
        title: "Lower-bound strength: combinatorial vs assignment LP vs configuration LP",
        claim: "comb ≤ assignment T* ≤ config-LP ≤ Opt; config-LP closes most of the gap",
        header: vec!["instance", "comb", "assign-LP", "config-LP", "Opt", "config/Opt"],
        rows,
    }
}

/// Runs the selected experiments (all when `ids` is empty), invoking
/// `sink` with each finished table (for progressive output), and returns
/// the tables in order.
pub fn run_experiments_with(
    ids: &[String],
    quick: bool,
    mut sink: impl FnMut(&Table),
) -> Vec<Table> {
    let all: Vec<(&str, fn(bool) -> Table)> = vec![
        ("E1", e1_lpt),
        ("E2", e2_ptas),
        ("E3", e3_rounding),
        ("E4", e4_hardness),
        ("E5", e5_ra),
        ("E6", e6_cupt),
        ("E7", e7_groups),
        ("E8", e8_baselines),
        ("E9", e9_splittable),
        ("E10", e10_identical),
        ("E11", e11_bounds),
    ];
    all.into_iter()
        .filter(|(id, _)| ids.is_empty() || ids.iter().any(|x| x.eq_ignore_ascii_case(id)))
        .map(|(_, f)| {
            let t = f(quick);
            sink(&t);
            t
        })
        .collect()
}

/// Serializes finished tables as a JSON array (id, title, claim, header,
/// rows) for archival (`experiments --json FILE`). Hand-rolled writer — the
/// cells are already strings, so no serde derive is needed.
pub fn tables_to_json(tables: &[Table]) -> String {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    let mut out = String::from("[\n");
    for (i, t) in tables.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"id\": \"{}\", \"title\": \"{}\", \"claim\": \"{}\",\n   \"header\": [{}],\n   \"rows\": [\n",
            esc(t.id),
            esc(t.title),
            esc(t.claim),
            t.header
                .iter()
                .map(|h| format!("\"{}\"", esc(h)))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        for (r, row) in t.rows.iter().enumerate() {
            out.push_str("    [");
            out.push_str(
                &row.iter().map(|c| format!("\"{}\"", esc(c))).collect::<Vec<_>>().join(", "),
            );
            out.push(']');
            out.push_str(if r + 1 < t.rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("   ]}");
        out.push_str(if i + 1 < tables.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_core::io::json::Parser;

    #[test]
    fn tables_to_json_is_parseable() {
        let t = Table {
            id: "EX",
            title: "demo \"quoted\"",
            claim: "c",
            header: vec!["a", "b"],
            rows: vec![vec!["1".into(), "x\\y".into()], vec!["2".into(), "z".into()]],
        };
        let json = tables_to_json(&[t]);
        let mut p = Parser::new(&json);
        let tables = p.items().expect("valid JSON").expect("expected array");
        p.finish().expect("one value");
        let mut table = tables[0];
        let [id, title, rows] =
            table.fields(["id", "title", "rows"]).unwrap().expect("expected object");
        assert_eq!(id.and_then(|mut p| p.string()), Some("EX".into()));
        assert_eq!(title.and_then(|mut p| p.string()), Some("demo \"quoted\"".into()));
        let rows = rows.and_then(|mut p| p.items().unwrap()).expect("expected rows array");
        let mut row0 = rows[0];
        let mut cells = row0.items().unwrap().expect("expected row array");
        assert_eq!(cells[1].string(), Some("x\\y".into()));
    }

    #[test]
    fn tables_to_json_empty() {
        let json = tables_to_json(&[]);
        let mut p = Parser::new(&json);
        assert_eq!(p.items().unwrap().map(|items| items.len()), Some(0));
        p.finish().unwrap();
    }
}
