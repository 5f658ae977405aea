//! The GF(2) integrality-gap family (Vazirani, *Approximation Algorithms*,
//! pp. 111–112), used to exhibit the `Ω(log n + log m)` integrality gap of
//! ILP-UM (Corollary 3.4) and the gap structure behind Theorem 3.5.
//!
//! For a dimension `k`: the universe is the non-zero vectors of `𝔽₂ᵏ`
//! (`N = 2ᵏ − 1` elements) and there is one set per non-zero vector `y`:
//! `S_y = { x ≠ 0 : ⟨x, y⟩ = 1 }` (inner product over 𝔽₂).
//!
//! Certified optima:
//! * **Fractional optimum ≤ 2 − 1/2^{k-1}**: every element lies in exactly
//!   `2^{k-1}` sets, so uniform weights `1/2^{k-1}` cover each element with
//!   total weight exactly 1; the total is `(2ᵏ−1)/2^{k-1} < 2`.
//! * **Integral optimum = k**: any `j < k` vectors `y₁…y_j` span a proper
//!   subspace, whose orthogonal complement contains a non-zero `x` with
//!   `⟨x, yᵢ⟩ = 0` for all `i` — uncovered. A basis `y₁…y_k` covers
//!   everything (only `x = 0` is orthogonal to all of 𝔽₂ᵏ).
//!
//! The instance-level gap `k / 2 = Θ(log N)` is what no experiment on
//! NP-hard gap instances could manufacture, and it is all Theorem 3.5
//! needs; the E4 experiment (`e4_hardness` in `crates/bench/src/lib.rs`)
//! measures it through the reduction.

use crate::instance::SetCoverInstance;

/// Builds the dimension-`k` GF(2) gap instance (`2 ≤ k ≤ 16`).
pub fn gf2_gap_instance(k: u32) -> SetCoverInstance {
    assert!((2..=16).contains(&k), "k must be in 2..=16 (N = 2^k - 1 elements)");
    let n: usize = (1usize << k) - 1;
    // Element e ∈ {0..N-1} represents vector e+1; set s represents vector s+1.
    let sets: Vec<Vec<usize>> = (0..n)
        .map(|s| {
            let y = (s + 1) as u64;
            (0..n)
                .filter(|&e| {
                    let x = (e + 1) as u64;
                    (x & y).count_ones() % 2 == 1
                })
                .collect()
        })
        .collect();
    SetCoverInstance::new(n, sets)
}

/// The certified integral optimum of [`gf2_gap_instance`]: `k`.
pub fn gf2_integral_optimum(k: u32) -> usize {
    k as usize
}

/// The certified fractional optimum of [`gf2_gap_instance`]:
/// `(2ᵏ − 1)/2^{k-1} = 2 − 2^{1-k}`, as an `f64`.
pub fn gf2_fractional_optimum(k: u32) -> f64 {
    ((1u64 << k) - 1) as f64 / (1u64 << (k - 1)) as f64
}

/// A witness integral cover of size `k`: the standard basis vectors
/// `e₁, …, e_k` (set index = vector − 1).
pub fn gf2_basis_cover(k: u32) -> Vec<usize> {
    (0..k).map(|i| (1usize << i) - 1).collect()
}

/// A witness fractional cover: uniform weight `1/2^{k-1}` on every set.
/// Returns `(weight_per_set, total_weight)`.
pub fn gf2_uniform_fractional_cover(k: u32) -> (f64, f64) {
    let w = 1.0 / (1u64 << (k - 1)) as f64;
    (w, w * ((1u64 << k) - 1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::exact_cover;

    #[test]
    fn element_set_membership_is_symmetric_inner_product() {
        let inst = gf2_gap_instance(3);
        assert_eq!(inst.n_elements(), 7);
        assert_eq!(inst.num_sets(), 7);
        for s in 0..7 {
            for e in 0..7 {
                assert_eq!(inst.contains(s, e), inst.contains(e, s));
            }
        }
    }

    #[test]
    fn every_element_in_exactly_half_the_space() {
        for k in [2u32, 3, 4, 5] {
            let inst = gf2_gap_instance(k);
            let half = 1usize << (k - 1);
            for e in 0..inst.n_elements() {
                let count = (0..inst.num_sets()).filter(|&s| inst.contains(s, e)).count();
                assert_eq!(count, half, "k={k}, e={e}");
            }
        }
    }

    #[test]
    fn basis_cover_is_a_cover_of_size_k() {
        for k in [2u32, 3, 4, 5, 6] {
            let inst = gf2_gap_instance(k);
            let cover = gf2_basis_cover(k);
            assert_eq!(cover.len(), k as usize);
            assert!(inst.is_cover(&cover), "k={k}");
        }
    }

    #[test]
    fn no_smaller_cover_exists() {
        for k in [2u32, 3, 4] {
            let inst = gf2_gap_instance(k);
            let opt = exact_cover(&inst).unwrap();
            assert_eq!(opt.len(), gf2_integral_optimum(k), "k={k}");
        }
    }

    #[test]
    fn fractional_certificate_covers_every_element() {
        for k in [2u32, 3, 4, 5] {
            let inst = gf2_gap_instance(k);
            let (w, total) = gf2_uniform_fractional_cover(k);
            for e in 0..inst.n_elements() {
                let coverage: f64 =
                    (0..inst.num_sets()).filter(|&s| inst.contains(s, e)).count() as f64 * w;
                assert!((coverage - 1.0).abs() < 1e-12);
            }
            assert!((total - gf2_fractional_optimum(k)).abs() < 1e-12);
            assert!(total < 2.0);
        }
    }

    #[test]
    fn lp_fractional_optimum_matches_certificate() {
        // Cross-validate the closed-form fractional optimum against sst-lp.
        use sst_lp::{LpProblem, LpStatus, Relation, Sense};
        for k in [2u32, 3, 4] {
            let inst = gf2_gap_instance(k);
            let mut lp = LpProblem::new(Sense::Min);
            let vars: Vec<_> = (0..inst.num_sets()).map(|_| lp.add_var(1.0, Some(1.0))).collect();
            for e in 0..inst.n_elements() {
                let coeffs: Vec<_> = (0..inst.num_sets())
                    .filter(|&s| inst.contains(s, e))
                    .map(|s| (vars[s], 1.0))
                    .collect();
                lp.add_constraint(&coeffs, Relation::Ge, 1.0);
            }
            let sol = lp.solve();
            assert_eq!(sol.status, LpStatus::Optimal);
            assert!(
                (sol.objective - gf2_fractional_optimum(k)).abs() < 1e-6,
                "k={k}: LP {} vs certificate {}",
                sol.objective,
                gf2_fractional_optimum(k)
            );
        }
    }

    #[test]
    fn gap_grows_logarithmically() {
        for k in [2u32, 4, 6, 8] {
            let gap = gf2_integral_optimum(k) as f64 / gf2_fractional_optimum(k);
            assert!(gap >= k as f64 / 2.0);
        }
    }
}
