//! Speed groups, core/fringe jobs and machines (Section 2, Figure 1).
//!
//! For accuracy `ε = 1/q` the paper sets `δ = ε²`, `γ = ε³` and covers the
//! speed axis with overlapping groups: group `g` is the speed interval
//! `[v̌_g, v̂_g)` with `v̌_g = v_min/γ^{g-1} = v_min·q^{3(g-1)}` and
//! `v̂_g = v_min·q^{3(g+1)}`. Every speed lies in exactly two consecutive
//! groups. All membership predicates below are *exact* (u128 integer
//! arithmetic against the rational makespan guess `T`), because they decide
//! which jobs the dynamic program may place where — an off-by-one-ulp here
//! becomes an invalid schedule there.

use crate::instance::{Job, MachineId, UniformInstance};
use crate::ratio::Ratio;

/// The group structure for one simplified instance and makespan guess.
#[derive(Debug, Clone)]
pub struct SpeedGroups {
    /// `q = 1/ε`.
    q: u64,
    /// `q³ = 1/γ`.
    q3: u64,
    v_min: u64,
    t: Ratio,
    /// For each machine: the *smaller* of its two group indices (`t` such
    /// that the machine's speed lies in groups `t` and `t+1`); machines of
    /// speed `v_min` get 0.
    machine_base_group: Vec<i64>,
    /// Largest group index containing a machine (G in the paper).
    max_group: i64,
}

/// `base^exp` in u128, or `None` on overflow ("larger than anything we
/// compare against").
fn checked_pow(base: u64, exp: u32) -> Option<u128> {
    let mut acc: u128 = 1;
    for _ in 0..exp {
        acc = acc.checked_mul(base as u128)?;
    }
    Some(acc)
}

impl SpeedGroups {
    /// Builds the group structure for (already simplified) `inst` with
    /// accuracy `ε = 1/q` and makespan guess `t`.
    pub fn new(inst: &UniformInstance, q: u64, t: Ratio) -> SpeedGroups {
        assert!(q >= 2, "accuracy parameter requires q = 1/ε ≥ 2");
        assert!(!t.is_zero(), "makespan guess must be positive");
        let q3 = q * q * q;
        let v_min = inst.min_speed();
        let machine_base_group: Vec<i64> = inst
            .speeds()
            .iter()
            .map(|&v| {
                // Largest g ≥ 0 with v_min·q^{3g} ≤ v.
                let mut g: i64 = 0;
                let mut bound = v_min as u128;
                loop {
                    match bound.checked_mul(q3 as u128) {
                        Some(next) if next <= v as u128 => {
                            bound = next;
                            g += 1;
                        }
                        _ => break,
                    }
                }
                g
            })
            .collect();
        let max_group = machine_base_group.iter().map(|&g| g + 1).max().unwrap_or(0);
        SpeedGroups { q, q3, v_min, t, machine_base_group, max_group }
    }

    #[inline]
    /// Accuracy parameter `q = 1/ε`.
    pub fn q(&self) -> u64 {
        self.q
    }

    #[inline]
    /// The makespan guess `T` the structure was built for.
    pub fn t(&self) -> Ratio {
        self.t
    }

    /// Largest group index containing a machine (`G`). The smallest is 0.
    #[inline]
    pub fn max_group(&self) -> i64 {
        self.max_group
    }

    /// The two groups containing machine `i`: `(g, g+1)`.
    #[inline]
    pub fn machine_groups(&self, i: MachineId) -> (i64, i64) {
        let g = self.machine_base_group[i];
        (g, g + 1)
    }

    /// Machines belonging to group `g` (`M_g`): those whose speed lies in
    /// `[v̌_g, v̂_g)`.
    pub fn machines_of_group(&self, g: i64) -> Vec<MachineId> {
        (0..self.machine_base_group.len())
            .filter(|&i| {
                let b = self.machine_base_group[i];
                b == g || b + 1 == g
            })
            .collect()
    }

    /// Exact three-way comparison of `p` against `v_min·q^e·T` for any
    /// integer `e` (negative exponents divide). Overflow on either side means
    /// that side is astronomically larger, which the ordering reflects.
    fn cmp_size_pow(&self, p: u64, e: i64) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        let lhs0 = p as u128 * self.t.denom() as u128;
        let rhs0 = self.v_min as u128 * self.t.numer() as u128;
        if e >= 0 {
            match checked_pow(self.q, e as u32) {
                Some(pw) => match rhs0.checked_mul(pw) {
                    Some(rhs) => lhs0.cmp(&rhs),
                    None => Ordering::Less,
                },
                None => Ordering::Less,
            }
        } else {
            match checked_pow(self.q, (-e) as u32) {
                Some(pw) => match lhs0.checked_mul(pw) {
                    Some(lhs) => lhs.cmp(&rhs0),
                    None => Ordering::Greater,
                },
                None => Ordering::Greater,
            }
        }
    }

    /// The *native group* of a size `p`: the smallest `g` whose speed range
    /// `[v̌_g, v̂_g)` contains **every** speed for which `p` is big, i.e.
    /// `v̌_g ≤ p/T` and `p/(εT) < v̂_g`, equivalently
    /// `v_min·q^{3(g-1)}·T ≤ p < v_min·q^{3g+2}·T`.
    ///
    /// (The paper's inline formula states the weaker pair
    /// `p ≥ ε·v̌_g·T ∧ p < v̂_g·T`; the containment form here is what the
    /// surrounding text — "at least one of them contains all such speeds" —
    /// and the accounting in Lemma 2.8 require, and it makes Remark 2.7's
    /// derivation go through. The E7 experiment, `e7_groups` in
    /// `crates/bench/src/lib.rs`, checks the two-groups-per-speed property.)
    ///
    /// Returns `None` for `p = 0`.
    pub fn native_group(&self, p: u64) -> Option<i64> {
        if p == 0 {
            return None;
        }
        // Smallest g with p < v_min·q^{3g+2}·T; the bound grows in g, so scan
        // upward from a floor low enough for any positive p (sizes ≥ 1,
        // speeds ≤ 2^64, T's numerator/denominator ≤ 2^64).
        let mut g = -64_i64;
        while self.cmp_size_pow(p, 3 * g + 2) != std::cmp::Ordering::Less {
            g += 1;
            assert!(g < 10_000, "native group scan diverged");
        }
        debug_assert!(
            self.cmp_size_pow(p, 3 * (g - 1)) != std::cmp::Ordering::Less,
            "smallest g with p < ε·v̂_g·T automatically satisfies p ≥ v̌_g·T"
        );
        Some(g)
    }

    /// The *core group* of class `k` with setup size `s`: the smallest `g`
    /// whose speed range contains every possible core-machine speed of `k`
    /// (`s ≤ T·v < s·q³`), i.e. `v̌_g ≤ s/T` and `s·q³/T ≤ v̂_g`,
    /// equivalently `v_min·q^{3(g-1)}·T ≤ s ≤ v_min·q^{3g}·T`.
    ///
    /// Every class has a core group even if it has no core machines
    /// (Section 2). Returns `None` for `s = 0` — zero setups cost nothing
    /// and need no group bookkeeping.
    pub fn core_group(&self, s: u64) -> Option<i64> {
        if s == 0 {
            return None;
        }
        // Smallest g with s ≤ v_min·q^{3g}·T.
        let mut g = -64_i64;
        while self.cmp_size_pow(s, 3 * g) == std::cmp::Ordering::Greater {
            g += 1;
            assert!(g < 10_000, "core group scan diverged");
        }
        debug_assert!(
            self.cmp_size_pow(s, 3 * (g - 1)) != std::cmp::Ordering::Less,
            "smallest g with s ≤ γ·v̂_g·T automatically satisfies s ≥ v̌_g·T"
        );
        Some(g)
    }

    /// Is job `j` a *core job* of its class (size `εs_k ≤ p < s_k/δ = s_k·q²`)?
    /// Jobs with `p ≥ s_k·q²` are *fringe jobs*. (Smaller jobs were removed
    /// by simplification step 2.) Classes with `s_k = 0` have only fringe
    /// jobs — their setups cost nothing, matching the paper's convention
    /// that fringe jobs' setups are ignored in relaxed schedules.
    pub fn is_core_job(&self, job: Job, setup: u64) -> bool {
        if setup == 0 {
            return false;
        }
        // p < s·q² (upper); lower bound εs ≤ p guaranteed by simplification.
        (job.size as u128) < setup as u128 * (self.q * self.q) as u128
    }

    /// Is machine `i` (speed `v`) a *core machine* of a class with setup `s`:
    /// `s ≤ T·v < s·q³`? Faster machines are *fringe machines*.
    pub fn is_core_machine(&self, v: u64, setup: u64) -> bool {
        if setup == 0 {
            return false;
        }
        // s ≤ T·v  and  T·v < s·q³
        let tv_num = v as u128 * self.t.numer() as u128;
        let lower = setup as u128 * self.t.denom() as u128;
        let upper = lower.saturating_mul(self.q3 as u128);
        lower <= tv_num && tv_num < upper
    }
}

/// Geometric speed bucketing: assigns each machine the index
/// `k = ⌊log_{(q+1)/q}(v/v_min)⌋`, so machines within one bucket differ in
/// speed by a factor `< 1+ε`. Used by the PTAS dynamic program to bound the
/// number of distinct speeds per group (the paper's geometric speed
/// rounding, Lemma 2.4).
///
/// Buckets are computed with f64 logarithms and then repaired to be exactly
/// monotone in the true (integer) speeds; the *representative* speed of a
/// bucket is its minimum member, i.e. speeds are rounded *down*, so any
/// schedule feasible for representatives is feasible for the real machines.
/// The float is therefore only a performance/precision-of-ε choice, never a
/// correctness issue.
pub fn geometric_speed_buckets(speeds: &[u64], q: u64) -> Vec<u32> {
    assert!(q >= 2);
    let v_min = *speeds.iter().min().expect("at least one machine") as f64;
    let base = ((q + 1) as f64 / q as f64).ln();
    let mut order: Vec<usize> = (0..speeds.len()).collect();
    order.sort_by_key(|&i| speeds[i]);
    let mut buckets = vec![0u32; speeds.len()];
    let mut last_speed = 0u64;
    let mut last_bucket = 0u32;
    for &i in &order {
        let raw = ((speeds[i] as f64 / v_min).ln() / base).floor().max(0.0) as u32;
        // Monotone repair: equal speeds share a bucket; larger speeds never
        // get a smaller bucket than a slower machine already received.
        let b = if speeds[i] == last_speed { last_bucket } else { raw.max(last_bucket) };
        buckets[i] = b;
        last_speed = speeds[i];
        last_bucket = b;
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Job;

    fn groups(speeds: Vec<u64>, q: u64, t: Ratio) -> (UniformInstance, SpeedGroups) {
        let inst = UniformInstance::new(speeds, vec![4], vec![Job::new(0, 8)]).unwrap();
        let sg = SpeedGroups::new(&inst, q, t);
        (inst, sg)
    }

    #[test]
    fn every_speed_lies_in_exactly_two_groups() {
        // q = 2 → q³ = 8. Speeds 1..=64 with v_min = 1.
        let speeds: Vec<u64> = vec![1, 2, 7, 8, 9, 63, 64, 512];
        let (_inst, sg) = groups(speeds.clone(), 2, Ratio::ONE);
        for (i, &v) in speeds.iter().enumerate() {
            let (a, b) = sg.machine_groups(i);
            assert_eq!(b, a + 1);
            // Membership check: v ∈ [q^{3(g-1)}, q^{3(g+1)}) for g ∈ {a, b}.
            for g in [a, b] {
                let lo = 8f64.powi((g - 1) as i32);
                let hi = 8f64.powi((g + 1) as i32);
                assert!(
                    (v as f64) >= lo && (v as f64) < hi,
                    "speed {v} should lie in group {g} = [{lo},{hi})"
                );
            }
        }
        // v = 1 is in groups (0,1); v = 8 in (1,2); v = 512 = 8³ in (3,4).
        assert_eq!(sg.machine_groups(0), (0, 1));
        assert_eq!(sg.machine_groups(3), (1, 2));
        assert_eq!(sg.machine_groups(7), (3, 4));
        assert_eq!(sg.max_group(), 4);
    }

    #[test]
    fn machines_of_group_overlap() {
        let speeds: Vec<u64> = vec![1, 8, 64];
        let (_i, sg) = groups(speeds, 2, Ratio::ONE);
        // speed 8 (base 1) is in groups 1 and 2; speed 64 (base 2) in 2 and 3.
        assert_eq!(sg.machines_of_group(0), vec![0]);
        assert_eq!(sg.machines_of_group(1), vec![0, 1]);
        assert_eq!(sg.machines_of_group(2), vec![1, 2]);
        assert_eq!(sg.machines_of_group(3), vec![2]);
    }

    #[test]
    fn native_group_covers_all_big_speeds() {
        // q = 2, v_min = 1, T = 1: job size p is big for v ∈ [p, 2p] (ε = ½).
        let (_i, sg) = groups(vec![1, 8, 64], 2, Ratio::ONE);
        for p in [1u64, 3, 7, 8, 20, 64, 100, 500] {
            let g = sg.native_group(p).unwrap();
            // All speeds v with εvT ≤ p ≤ vT, i.e. v ∈ [p, 2p], must lie in
            // group g: [8^{g-1}, 8^{g+1}).
            let lo = 8f64.powi((g - 1) as i32);
            let hi = 8f64.powi((g + 1) as i32);
            assert!(
                p as f64 >= lo && ((2 * p) as f64) < hi,
                "p={p}: big-speed interval [{p},{}] outside group {g} = [{lo},{hi})",
                2 * p
            );
            // Minimality: group g-1 must NOT contain the whole interval.
            let hi_prev = 8f64.powi(g as i32);
            assert!(
                ((2 * p) as f64) >= hi_prev,
                "p={p}: group {} already contains the interval",
                g - 1
            );
        }
        assert_eq!(sg.native_group(0), None);
    }

    #[test]
    fn core_group_contains_core_machine_speeds() {
        // Core machines of class with setup s: s ≤ Tv < s·q³.
        let (_i, sg) = groups(vec![1, 8, 64], 2, Ratio::ONE);
        for s in [1u64, 2, 5, 8, 30, 64] {
            let g = sg.core_group(s).unwrap();
            let lo = 8f64.powi((g - 1) as i32);
            let hi = 8f64.powi((g + 1) as i32);
            // Speed interval of core machines: [s, 8s). Must lie in group g.
            assert!(
                s as f64 >= lo && (8 * s) as f64 <= hi,
                "s={s}: core-machine speeds [{s},{}) outside group {g} = [{lo},{hi})",
                8 * s
            );
            // Remark 2.7 needs s ≤ γ·v̂_g·T, i.e. s ≤ 8^g here.
            assert!(s as f64 <= 8f64.powi(g as i32));
        }
    }

    #[test]
    fn remark_2_6_core_jobs_small_on_fringe_machines() {
        // Core job of class k: p < s·q²; fringe machine: Tv ≥ s·q³.
        // Then p < s·q² = (s·q³)·ε ≤ εTv → small.
        let (_i, sg) = groups(vec![1, 1000], 2, Ratio::ONE);
        let setup = 10u64;
        let core_job = Job::new(0, 39); // < 10·4 = 40 → core
        assert!(sg.is_core_job(core_job, setup));
        let fringe_v = 80; // Tv = 80 ≥ 10·8 → fringe machine
        assert!(!sg.is_core_machine(fringe_v, setup));
    }

    #[test]
    fn core_machine_window() {
        let (_i, sg) = groups(vec![1, 1000], 2, Ratio::ONE);
        let s = 10u64;
        assert!(!sg.is_core_machine(9, s)); // Tv < s
        assert!(sg.is_core_machine(10, s));
        assert!(sg.is_core_machine(79, s)); // < 80 = s·q³
        assert!(!sg.is_core_machine(80, s));
    }

    #[test]
    fn zero_setup_classes_are_all_fringe() {
        let (_i, sg) = groups(vec![1, 4], 2, Ratio::ONE);
        assert!(!sg.is_core_job(Job::new(0, 1), 0));
        assert!(!sg.is_core_machine(1, 0));
        assert_eq!(sg.core_group(0), None);
    }

    #[test]
    fn geometric_buckets_monotone_and_tight() {
        let speeds = vec![100, 100, 150, 151, 400, 99, 1000];
        let b = geometric_speed_buckets(&speeds, 2);
        // Equal speeds share buckets; order by speed gives non-decreasing buckets.
        assert_eq!(b[0], b[1]);
        let mut pairs: Vec<(u64, u32)> = speeds.iter().copied().zip(b.iter().copied()).collect();
        pairs.sort();
        for w in pairs.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        // Within a bucket, speeds differ by < 1+ε = 1.5 (q=2).
        for i in 0..speeds.len() {
            for j in 0..speeds.len() {
                if b[i] == b[j] {
                    let (lo, hi) =
                        (speeds[i].min(speeds[j]) as f64, speeds[i].max(speeds[j]) as f64);
                    assert!(hi / lo < 1.5 + 1e-9);
                }
            }
        }
    }
}
