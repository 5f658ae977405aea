//! # sst-gen — seeded workload generators
//!
//! Instance families for the E1–E11 experiments (one function each in
//! `crates/bench/src/lib.rs`). All generators are deterministic functions of
//! their parameter struct (including the seed), so every experiment row is
//! exactly reproducible.
//!
//! The families mirror the applications the paper's introduction motivates:
//! *production systems* (changeover/cleaning/calibration times — few
//! classes, heavy setups) and *computer systems* (data transfer before
//! execution — many classes, lighter setups), plus adversarial families for
//! stress-testing the guarantees.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sst_core::instance::{Job, UniformInstance, UnrelatedInstance};

pub mod dynamic;
pub mod families;
pub mod scenarios;

pub use dynamic::{dynamic_queue, DynamicBase, DynamicInstance, DynamicQueueParams, TraceStep};
pub use families::{correlated_unrelated, splittable_stress, uniform_zipf, ZipfParams};

/// Machine speed profile for uniform instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpeedProfile {
    /// All speeds 1 (identical machines).
    Identical,
    /// Speeds drawn uniformly from `[lo, hi]`.
    UniformRandom {
        /// Slowest possible speed (≥ 1).
        lo: u64,
        /// Fastest possible speed.
        hi: u64,
    },
    /// Speeds `base^0, base^1, …` cycling across machines — exercises the
    /// speed-group machinery with genuinely spread speeds.
    GeometricSpread {
        /// Ratio between consecutive tiers (≥ 2).
        base: u64,
        /// Number of tiers before cycling.
        tiers: u32,
    },
    /// A slow majority and a fast minority.
    Bimodal {
        /// Slow-machine speed.
        slow: u64,
        /// Fast-machine speed.
        fast: u64,
        /// How many machines (out of each 8) are fast.
        fast_per_8: u32,
    },
}

/// How heavy setup sizes are relative to job sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetupWeight {
    /// Setups ≈ 10% of the mean job size.
    Light,
    /// Setups on the order of the mean job size.
    Moderate,
    /// Setups ≈ 10× the mean job size — batching decides everything.
    Heavy,
}

impl SetupWeight {
    fn range(self, mean_size: u64) -> (u64, u64) {
        let m = mean_size.max(1);
        match self {
            SetupWeight::Light => (1.max(m / 10), 1.max(m / 5)),
            SetupWeight::Moderate => (1.max(m / 2), 2 * m),
            SetupWeight::Heavy => (5 * m, 20 * m),
        }
    }
}

/// Parameters of the uniform-machine family.
#[derive(Debug, Clone)]
pub struct UniformParams {
    /// Number of jobs.
    pub n: usize,
    /// Number of machines.
    pub m: usize,
    /// Number of setup classes.
    pub k: usize,
    /// Job sizes drawn uniformly from this inclusive range.
    pub size_range: (u64, u64),
    /// Machine speed profile.
    pub speeds: SpeedProfile,
    /// Setup weight relative to job sizes.
    pub setups: SetupWeight,
    /// RNG seed.
    pub seed: u64,
}

impl Default for UniformParams {
    fn default() -> Self {
        UniformParams {
            n: 50,
            m: 5,
            k: 8,
            size_range: (1, 100),
            speeds: SpeedProfile::UniformRandom { lo: 1, hi: 8 },
            setups: SetupWeight::Moderate,
            seed: 1,
        }
    }
}

fn speeds_for(profile: SpeedProfile, m: usize, rng: &mut StdRng) -> Vec<u64> {
    match profile {
        SpeedProfile::Identical => vec![1; m],
        SpeedProfile::UniformRandom { lo, hi } => {
            (0..m).map(|_| rng.gen_range(lo.max(1)..=hi.max(lo.max(1)))).collect()
        }
        SpeedProfile::GeometricSpread { base, tiers } => {
            (0..m).map(|i| base.max(2).pow(i as u32 % tiers.max(1))).collect()
        }
        SpeedProfile::Bimodal { slow, fast, fast_per_8 } => {
            (0..m).map(|i| if (i % 8) < fast_per_8 as usize { fast } else { slow.max(1) }).collect()
        }
    }
}

/// Generates a uniform-machines instance.
pub fn uniform(params: &UniformParams) -> UniformInstance {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let speeds = speeds_for(params.speeds, params.m, &mut rng);
    let (lo, hi) = params.size_range;
    let mean = (lo + hi) / 2;
    let (slo, shi) = params.setups.range(mean);
    let setups: Vec<u64> = (0..params.k).map(|_| rng.gen_range(slo..=shi)).collect();
    let jobs: Vec<Job> = (0..params.n)
        .map(|_| Job::new(rng.gen_range(0..params.k.max(1)), rng.gen_range(lo..=hi)))
        .collect();
    UniformInstance::new(speeds, setups, jobs).expect("generator produces valid instances")
}

/// Parameters of the unrelated-machine family. Processing times follow a
/// machine-effect × job-effect model with multiplicative noise — the
/// standard "correlated unrelated machines" benchmark shape.
#[derive(Debug, Clone)]
pub struct UnrelatedParams {
    /// Number of jobs.
    pub n: usize,
    /// Number of machines.
    pub m: usize,
    /// Number of setup classes.
    pub k: usize,
    /// Base job-effect range.
    pub size_range: (u64, u64),
    /// Machine effect: each machine scales times by a factor in this range
    /// (divided by 4, so `(4, 4)` means "identical").
    pub machine_effect_quarters: (u64, u64),
    /// Relative noise in percent applied per (job, machine) cell.
    pub noise_pct: u32,
    /// Setup weight relative to job sizes.
    pub setups: SetupWeight,
    /// Fraction (in percent) of cells made infinite (restricted-assignment
    /// flavour); 0 for dense instances.
    pub inf_pct: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for UnrelatedParams {
    fn default() -> Self {
        UnrelatedParams {
            n: 40,
            m: 5,
            k: 6,
            size_range: (1, 50),
            machine_effect_quarters: (2, 12),
            noise_pct: 25,
            setups: SetupWeight::Moderate,
            inf_pct: 0,
            seed: 1,
        }
    }
}

/// Generates an unrelated-machines instance.
pub fn unrelated(params: &UnrelatedParams) -> UnrelatedInstance {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let (lo, hi) = params.size_range;
    let mean = (lo + hi) / 2;
    let job_effect: Vec<u64> = (0..params.n).map(|_| rng.gen_range(lo..=hi)).collect();
    let (melo, mehi) = params.machine_effect_quarters;
    let machine_effect: Vec<u64> = (0..params.m).map(|_| rng.gen_range(melo..=mehi)).collect();
    let cell = |rng: &mut StdRng, base: u64, eff: u64| -> u64 {
        let raw = base.saturating_mul(eff).max(4) / 4;
        let noise = if params.noise_pct == 0 {
            100
        } else {
            rng.gen_range(100 - params.noise_pct.min(99)..=100 + params.noise_pct)
        };
        (raw.saturating_mul(noise as u64) / 100).max(1)
    };
    let mut ptimes: Vec<Vec<u64>> = Vec::with_capacity(params.n);
    for j in 0..params.n {
        let mut row: Vec<u64> = (0..params.m)
            .map(|i| {
                if params.inf_pct > 0 && rng.gen_range(0..100) < params.inf_pct {
                    sst_core::instance::INF
                } else {
                    cell(&mut rng, job_effect[j], machine_effect[i])
                }
            })
            .collect();
        // Keep every job runnable somewhere.
        if row.iter().all(|&p| p == sst_core::instance::INF) {
            let i = rng.gen_range(0..params.m);
            row[i] = cell(&mut rng, job_effect[j], machine_effect[i]);
        }
        ptimes.push(row);
    }
    let (slo, shi) = params.setups.range(mean);
    let setups: Vec<Vec<u64>> = (0..params.k)
        .map(|_| {
            let base = rng.gen_range(slo..=shi);
            (0..params.m).map(|i| cell(&mut rng, base, machine_effect[i])).collect()
        })
        .collect();
    let job_class: Vec<usize> = (0..params.n).map(|_| rng.gen_range(0..params.k.max(1))).collect();
    UnrelatedInstance::new(params.m, job_class, ptimes, setups)
        .expect("generator keeps every job runnable")
}

/// Generates a restricted-assignment instance with **class-uniform
/// restrictions** (the Section 3.3.1 model): each class gets a random
/// eligible machine set of size `eligible_per_class`, shared by all its
/// jobs.
pub fn ra_class_uniform(
    n: usize,
    m: usize,
    k: usize,
    eligible_per_class: usize,
    size_range: (u64, u64),
    setups: SetupWeight,
    seed: u64,
) -> UnrelatedInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let (lo, hi) = size_range;
    let mean = (lo + hi) / 2;
    let e = eligible_per_class.clamp(1, m);
    let class_machines: Vec<Vec<usize>> = (0..k)
        .map(|_| {
            let mut ms: Vec<usize> = (0..m).collect();
            for i in (1..ms.len()).rev() {
                ms.swap(i, rng.gen_range(0..=i));
            }
            ms.truncate(e);
            ms.sort_unstable();
            ms
        })
        .collect();
    let (slo, shi) = setups.range(mean);
    let class_setups: Vec<u64> = (0..k).map(|_| rng.gen_range(slo..=shi)).collect();
    let job_class: Vec<usize> = (0..n).map(|_| rng.gen_range(0..k.max(1))).collect();
    let sizes: Vec<u64> = (0..n).map(|_| rng.gen_range(lo..=hi)).collect();
    let eligible: Vec<Vec<usize>> =
        job_class.iter().map(|&kj| class_machines[kj].clone()).collect();
    UnrelatedInstance::restricted_assignment(
        m,
        job_class,
        sizes,
        eligible,
        class_setups,
        Some(class_machines),
    )
    .expect("generator produces valid instances")
}

/// Generates an unrelated instance with **class-uniform processing times**
/// (the Section 3.3.2 model): all jobs of a class share one row of the
/// time matrix.
pub fn class_uniform_ptimes(
    n: usize,
    m: usize,
    k: usize,
    size_range: (u64, u64),
    setups: SetupWeight,
    seed: u64,
) -> UnrelatedInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let (lo, hi) = size_range;
    let mean = (lo + hi) / 2;
    let class_rows: Vec<Vec<u64>> =
        (0..k).map(|_| (0..m).map(|_| rng.gen_range(lo..=hi)).collect()).collect();
    let (slo, shi) = setups.range(mean);
    let class_setups: Vec<Vec<u64>> =
        (0..k).map(|_| (0..m).map(|_| rng.gen_range(slo..=shi)).collect()).collect();
    let job_class: Vec<usize> = (0..n).map(|_| rng.gen_range(0..k.max(1))).collect();
    let ptimes: Vec<Vec<u64>> = job_class.iter().map(|&kj| class_rows[kj].clone()).collect();
    UnrelatedInstance::new(m, job_class, ptimes, class_setups)
        .expect("generator produces valid instances")
}

/// An adversarial family for LPT (experiment E1): many classes whose jobs
/// are just below their setup size, forcing the Lemma 2.1 transform to
/// round workloads up, on machines that are nearly-but-not-quite balanced.
pub fn lpt_adversarial(m: usize, seed: u64) -> UniformInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let k = 2 * m;
    let setups: Vec<u64> = (0..k).map(|_| 60 + rng.gen_range(0..5)).collect();
    let mut jobs = Vec::new();
    for (kk, &s) in setups.iter().enumerate() {
        // Σ small jobs slightly above s ⇒ two placeholders of size s each.
        let unit = s - 1;
        jobs.push(Job::new(kk, unit));
        jobs.push(Job::new(kk, 3));
    }
    // A couple of large loners to unbalance LPT's tie-breaking.
    jobs.push(Job::new(0, 2 * setups[0]));
    UniformInstance::new(vec![1; m], setups, jobs).expect("valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_deterministic_and_valid() {
        let p = UniformParams::default();
        let a = uniform(&p);
        let b = uniform(&p);
        assert_eq!(a, b);
        assert_eq!(a.n(), p.n);
        assert_eq!(a.m(), p.m);
        assert_eq!(a.num_classes(), p.k);
    }

    #[test]
    fn different_seeds_differ() {
        let a = uniform(&UniformParams { seed: 1, ..Default::default() });
        let b = uniform(&UniformParams { seed: 2, ..Default::default() });
        assert_ne!(a, b);
    }

    #[test]
    fn speed_profiles() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(speeds_for(SpeedProfile::Identical, 3, &mut rng), vec![1, 1, 1]);
        let g = speeds_for(SpeedProfile::GeometricSpread { base: 4, tiers: 3 }, 5, &mut rng);
        assert_eq!(g, vec![1, 4, 16, 1, 4]);
        let b =
            speeds_for(SpeedProfile::Bimodal { slow: 1, fast: 10, fast_per_8: 2 }, 10, &mut rng);
        assert_eq!(b.iter().filter(|&&v| v == 10).count(), 4); // idx 0,1,8,9
    }

    #[test]
    fn setup_weights_scale() {
        let (l1, l2) = SetupWeight::Light.range(100);
        let (h1, h2) = SetupWeight::Heavy.range(100);
        assert!(l2 < h1, "light {l1}..{l2} must sit below heavy {h1}..{h2}");
    }

    #[test]
    fn unrelated_has_no_dead_jobs() {
        let p = UnrelatedParams { inf_pct: 60, seed: 3, ..Default::default() };
        let inst = unrelated(&p);
        for j in 0..inst.n() {
            assert!(!inst.eligible_machines(j).is_empty(), "job {j} unschedulable");
        }
    }

    #[test]
    fn ra_generator_satisfies_model_checks() {
        let inst = ra_class_uniform(30, 6, 5, 3, (1, 40), SetupWeight::Moderate, 7);
        assert!(inst.is_restricted_assignment());
        assert!(inst.has_class_uniform_restrictions());
    }

    #[test]
    fn cupt_generator_satisfies_model_checks() {
        let inst = class_uniform_ptimes(30, 5, 4, (1, 30), SetupWeight::Light, 9);
        assert!(inst.has_class_uniform_ptimes());
    }

    #[test]
    fn adversarial_family_shape() {
        let inst = lpt_adversarial(4, 5);
        assert_eq!(inst.m(), 4);
        assert_eq!(inst.num_classes(), 8);
        assert_eq!(inst.n(), 2 * 8 + 1);
    }
}
