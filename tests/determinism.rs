//! Determinism contract: every randomized or parallel component in the
//! workspace is a pure function of (input, seed/config). This is what makes
//! the `experiments` binary's "same seeds → same rows" promise true.

use setup_scheduling::gen::{
    correlated_unrelated, splittable_stress, uniform_zipf, SetupWeight, UniformParams,
    UnrelatedParams, ZipfParams,
};
use setup_scheduling::prelude::*;
use setup_scheduling::setcover::{gf2_gap_instance, randomized_rounding_cover, reduce};

#[test]
fn generators_are_pure_functions_of_their_seeds() {
    let up = UniformParams { seed: 77, ..Default::default() };
    assert_eq!(setup_scheduling::gen::uniform(&up), setup_scheduling::gen::uniform(&up));
    let rp = UnrelatedParams { seed: 77, inf_pct: 30, ..Default::default() };
    assert_eq!(setup_scheduling::gen::unrelated(&rp), setup_scheduling::gen::unrelated(&rp));
    let zp = ZipfParams { seed: 77, ..Default::default() };
    assert_eq!(uniform_zipf(&zp), uniform_zipf(&zp));
    assert_eq!(
        correlated_unrelated(20, 4, 3, 40, (1, 30), SetupWeight::Light, 5),
        correlated_unrelated(20, 4, 3, 40, (1, 30), SetupWeight::Light, 5)
    );
    assert_eq!(splittable_stress(3, 5, 8, 5), splittable_stress(3, 5, 8, 5));
}

#[test]
fn randomized_rounding_is_seed_deterministic() {
    let inst = setup_scheduling::gen::unrelated(&UnrelatedParams {
        n: 30,
        m: 5,
        seed: 9,
        ..Default::default()
    });
    let a = solve_unrelated_randomized(&inst, &RoundingConfig { c: 2.0, seed: 4 });
    let b = solve_unrelated_randomized(&inst, &RoundingConfig { c: 2.0, seed: 4 });
    assert_eq!(a.schedule, b.schedule);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.t_star, b.t_star);
}

#[test]
fn annealing_is_seed_deterministic_across_runs() {
    let inst = setup_scheduling::gen::uniform(&UniformParams { seed: 3, ..Default::default() });
    let start = lpt_with_setups(&inst);
    let cfg = AnnealConfig { iterations: 4000, seed: 11, ..AnnealConfig::default() };
    let a = anneal_uniform(&inst, &start, &cfg);
    let b = anneal_uniform(&inst, &start, &cfg);
    assert_eq!(a.schedule, b.schedule);
    assert_eq!(a.accepted, b.accepted);
    assert_eq!(a.improvements, b.improvements);
}

#[test]
fn setcover_reduction_is_rng_deterministic() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let sc = gf2_gap_instance(3);
    let mut r1 = StdRng::seed_from_u64(5);
    let mut r2 = StdRng::seed_from_u64(5);
    let a = reduce(&sc, 2, &mut r1);
    let b = reduce(&sc, 2, &mut r2);
    assert_eq!(a.instance, b.instance);
    // Rounding covers too.
    assert_eq!(randomized_rounding_cover(&sc, 2.0, 8), randomized_rounding_cover(&sc, 2.0, 8));
}

#[test]
fn splittable_solver_is_deterministic() {
    let inst = splittable_stress(4, 6, 10, 2);
    let a = solve_splittable_ra_class_uniform(&inst);
    let b = solve_splittable_ra_class_uniform(&inst);
    assert_eq!(a.schedule, b.schedule);
    assert_eq!(a.t_star, b.t_star);
}

#[test]
fn config_lp_bound_is_deterministic() {
    let inst = setup_scheduling::gen::unrelated(&UnrelatedParams {
        n: 9,
        m: 3,
        k: 3,
        seed: 33,
        ..Default::default()
    });
    let l = ConfigLpLimits::default();
    assert_eq!(config_lp_lower_bound(&inst, &l), config_lp_lower_bound(&inst, &l));
}
