//! Differential testing of the branch-and-bound exact solvers against
//! brute-force enumeration (`m^n` assignments) on tiny instances. The B&B
//! is the reference every experiment's "vs-exact" column trusts, so it
//! gets its own oracle. The B&B's optimum is in turn the oracle for the
//! area lower bound of `sst_core::bounds`.

use proptest::collection::vec;
use proptest::prelude::*;
use sst_algos::exact::{exact_uniform, exact_unrelated};
use sst_core::bounds::{unrelated_area_lower_bound, unrelated_area_reject, unrelated_lower_bound};
use sst_core::instance::{Job, UniformInstance, UnrelatedInstance, INF};
use sst_core::ratio::Ratio;
use sst_core::schedule::{uniform_makespan, unrelated_makespan, Schedule};

fn brute_force_uniform(inst: &UniformInstance) -> Ratio {
    let n = inst.n();
    let m = inst.m();
    let mut best = uniform_makespan(inst, &Schedule::new(vec![0; n])).expect("valid");
    let total = (m as u64).pow(n as u32);
    for code in 0..total {
        let mut c = code;
        let mut asg = Vec::with_capacity(n);
        for _ in 0..n {
            asg.push((c % m as u64) as usize);
            c /= m as u64;
        }
        let ms = uniform_makespan(inst, &Schedule::new(asg)).expect("valid");
        if ms < best {
            best = ms;
        }
    }
    best
}

fn brute_force_unrelated(inst: &UnrelatedInstance) -> u64 {
    let n = inst.n();
    let m = inst.m();
    let mut best = u64::MAX;
    let total = (m as u64).pow(n as u32);
    for code in 0..total {
        let mut c = code;
        let mut asg = Vec::with_capacity(n);
        for _ in 0..n {
            asg.push((c % m as u64) as usize);
            c /= m as u64;
        }
        if let Ok(ms) = unrelated_makespan(inst, &Schedule::new(asg)) {
            best = best.min(ms);
        }
    }
    best
}

fn tiny_uniform() -> impl Strategy<Value = UniformInstance> {
    (vec(1u64..=4, 1..=3), vec(0u64..=10, 1..=3), vec((0usize..3, 0u64..=12), 1..=6)).prop_map(
        |(speeds, setups, raw)| {
            let k = setups.len();
            let jobs: Vec<Job> = raw.into_iter().map(|(c, p)| Job::new(c % k, p)).collect();
            UniformInstance::new(speeds, setups, jobs).expect("valid")
        },
    )
}

fn tiny_unrelated() -> impl Strategy<Value = UnrelatedInstance> {
    (1usize..=3, vec((0usize..2, 1u64..=10), 1..=6), vec(vec(0u64..=6, 3), 2)).prop_map(
        |(m, raw, setup_rows)| {
            let job_class: Vec<usize> = raw.iter().map(|&(c, _)| c % 2).collect();
            let ptimes: Vec<Vec<u64>> = raw
                .iter()
                .enumerate()
                .map(|(j, &(_, p))| (0..m).map(|i| p + ((i * 7 + j) % 4) as u64).collect())
                .collect();
            let setups: Vec<Vec<u64>> = setup_rows
                .into_iter()
                .map(|row| (0..m).map(|i| row[i % row.len()]).collect())
                .collect();
            UnrelatedInstance::new(m, job_class, ptimes, setups).expect("valid")
        },
    )
}

/// Up to ten jobs on 1–4 machines, with infinite cells and setups beyond
/// machine 0 (which stays finite, so every job has a home).
fn restricted_unrelated() -> impl Strategy<Value = UnrelatedInstance> {
    (1usize..=4, vec((0usize..3, vec(0u64..=12, 4)), 1..=10), vec(vec(0u64..=8, 4), 3)).prop_map(
        |(m, raw, setup_rows)| {
            let cell = |i: usize, v: u64| if i > 0 && v == 0 { INF } else { v.max(1) };
            let job_class: Vec<usize> = raw.iter().map(|&(c, _)| c).collect();
            let ptimes: Vec<Vec<u64>> =
                raw.iter().map(|(_, row)| (0..m).map(|i| cell(i, row[i])).collect()).collect();
            let setups: Vec<Vec<u64>> = setup_rows
                .into_iter()
                .map(|row| {
                    (0..m).map(|i| if i > 0 && row[i] == 8 { INF } else { row[i] }).collect()
                })
                .collect();
            UnrelatedInstance::new(m, job_class, ptimes, setups).expect("valid")
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn area_lower_bound_lies_between_the_max_job_bound_and_the_optimum(
        inst in restricted_unrelated(),
    ) {
        let (area, max_job) = (unrelated_area_lower_bound(&inst), unrelated_lower_bound(&inst));
        prop_assert!(area >= max_job);
        // The smallest guess the area test cannot reject, above the max-job
        // bound.
        prop_assert!(!unrelated_area_reject(&inst, area));
        prop_assert!(area == max_job || unrelated_area_reject(&inst, area - 1));
        let opt = exact_unrelated(&inst, 1 << 22);
        prop_assume!(opt.complete);
        prop_assert!(area <= opt.makespan, "area bound {area} > Opt {}", opt.makespan);
    }

    #[test]
    fn bb_uniform_matches_brute_force(inst in tiny_uniform()) {
        let res = exact_uniform(&inst, 1 << 24);
        prop_assert!(res.complete, "tiny instances must complete");
        let bf = brute_force_uniform(&inst);
        prop_assert_eq!(res.makespan, bf, "B&B disagrees with enumeration");
        prop_assert_eq!(
            uniform_makespan(&inst, &res.schedule).expect("valid"),
            res.makespan,
            "B&B's own schedule must attain its makespan"
        );
    }

    #[test]
    fn bb_unrelated_matches_brute_force(inst in tiny_unrelated()) {
        let res = exact_unrelated(&inst, 1 << 24);
        prop_assert!(res.complete);
        let bf = brute_force_unrelated(&inst);
        prop_assert_eq!(res.makespan, bf);
        prop_assert_eq!(
            unrelated_makespan(&inst, &res.schedule).expect("valid"),
            res.makespan
        );
    }
}

#[test]
fn known_optimum_handcheck() {
    // Two machines speed 1, jobs {6, 5, 4} one class setup 1.
    // Best split: {6} vs {5,4} → 7+1=8 vs 10 → makespan 10; or {6,4} vs {5}
    // → 11 vs 6 → 11; or {6,5} vs {4} → 12 vs 5. Optimum 10.
    let inst = UniformInstance::identical(
        2,
        vec![1],
        vec![Job::new(0, 6), Job::new(0, 5), Job::new(0, 4)],
    )
    .unwrap();
    assert_eq!(brute_force_uniform(&inst), Ratio::new(10, 1));
    assert_eq!(exact_uniform(&inst, 1 << 20).makespan, Ratio::new(10, 1));
}
