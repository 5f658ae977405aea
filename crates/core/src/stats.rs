//! Descriptive statistics of instances: the quantities that predict which
//! algorithm (and which guarantee) is the right tool.
//!
//! The E1–E11 experiments (`crates/bench/src/lib.rs`) show behaviour
//! switching on a few structural measures — setup weight relative to job
//! work (E8/E10), class population skew, machine heterogeneity (E7),
//! eligibility density (E5).
//! This module computes them once, uniformly, for both machine models;
//! `sst info` prints them. It also hosts the *service-side* statistics: a
//! fixed-size log-bucketed [`LatencyHistogram`] that the `sst serve` worker
//! pool uses for running throughput/latency percentiles.

use crate::instance::{is_finite, UniformInstance, UnrelatedInstance};

/// A constant-space latency histogram with power-of-two buckets.
///
/// Bucket `b` counts samples `v` with `⌊log₂ v⌋ = b` (bucket 0 also takes
/// `v = 0`). Percentiles interpolate rank-weighted *within* the bucket
/// (samples assumed uniform over the bucket's range), so a quantile is off
/// by at most the in-bucket distribution skew instead of the full 2× a raw
/// bucket upper bound would give — the right trade for a hot server path:
/// `record` is a couple of arithmetic instructions, the struct is one
/// cache line of counters, and no allocation ever happens. Units are
/// whatever the caller records (`sst serve` records microseconds).
///
/// Equality is bucket-exact: two histograms compare equal iff every bucket
/// count, the sample count, the (saturating) sum and the max agree — the
/// property [`LatencyHistogram::merge`] is tested against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { buckets: [0; 64], count: 0, sum: 0, max: 0 }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let b = 63 - value.max(1).leading_zeros() as usize;
        self.buckets[b] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Folds `other` into `self`, as if every sample recorded into `other`
    /// had been recorded here instead: bucket counts and sample counts add,
    /// sums add saturating (matching [`Self::record`]), the max is the max
    /// of both. Exact at bucket granularity — merging per-worker histograms
    /// is indistinguishable from recording the union of their samples into
    /// one histogram, which is what lets `sst serve` aggregate worker-local
    /// telemetry without sharing a hot lock.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`q` in `[0, 1]`), rank-weighted within its bucket:
    /// the quantile's rank is located in the cumulative counts, and the
    /// estimate interpolates linearly across the bucket's value range
    /// (samples assumed uniform inside the bucket; each of the bucket's `c`
    /// samples gets a `width/c` slice and the estimate is its slice's left
    /// edge, so a sparse bucket estimates low rather than echoing the
    /// bucket's upper bound). The top rank is the observed maximum, which
    /// is tracked exactly. The result is monotone in `q`, never below the
    /// bucket's lower bound, and capped at the observed maximum; 0 when
    /// empty. `percentile(0.5)` is the median, `percentile(0.99)` the p99.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        if rank >= self.count {
            // The largest sample is known exactly — no bucket estimate.
            return self.max;
        }
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                // Bucket b spans [lower, upper] (bucket 0 also holds v = 0;
                // the top bucket is clipped to the observed max).
                let lower = if b == 0 { 0 } else { 1u64 << b };
                let upper = if b >= 63 { u64::MAX } else { (1u64 << (b + 1)) - 1 };
                let upper = upper.min(self.max);
                let width = (upper - lower).saturating_add(1);
                // `pos` is the rank's 1-based position inside the bucket:
                // the pos-th of c uniform samples sits at
                // lower + ⌊(pos−1)·width/c⌋ — pos = 1 maps to `lower`,
                // monotone in between, and c = width reproduces the dense
                // case lower + pos − 1 exactly.
                let pos = rank - seen;
                let est = ((pos - 1) as u128 * width as u128 / c as u128) as u64;
                return (lower + est).min(self.max);
            }
            seen += c;
        }
        self.max
    }
}

/// Summary statistics of a uniform instance.
#[derive(Debug, Clone, PartialEq)]
pub struct UniformStats {
    /// Number of jobs.
    pub n: usize,
    /// Number of machines.
    pub m: usize,
    /// Number of classes with at least one job.
    pub nonempty_classes: usize,
    /// Total job size `Σ p_j`.
    pub total_job_size: u64,
    /// `Σ_{k nonempty} s_k / max(1, Σ p_j)` — how much of the mandatory
    /// work is setups. `> 1` means setups dominate (batching decides).
    pub setup_to_work: f64,
    /// `v_max / v_min` — speed spread (1 = identical machines).
    pub speed_spread: f64,
    /// Largest share of jobs held by a single class, in `[1/K, 1]`.
    pub class_concentration: f64,
    /// Mean jobs per nonempty class.
    pub mean_class_population: f64,
}

/// Computes [`UniformStats`]. Zero-job instances give zeroed ratios.
pub fn uniform_stats(inst: &UniformInstance) -> UniformStats {
    let nonempty = inst.nonempty_classes();
    let total = inst.total_job_size();
    let setups: u64 = nonempty.iter().map(|&k| inst.setup(k)).sum();
    let mut pop = vec![0usize; inst.num_classes()];
    for j in 0..inst.n() {
        pop[inst.job(j).class] += 1;
    }
    let max_pop = pop.iter().copied().max().unwrap_or(0);
    UniformStats {
        n: inst.n(),
        m: inst.m(),
        nonempty_classes: nonempty.len(),
        total_job_size: total,
        setup_to_work: setups as f64 / total.max(1) as f64,
        speed_spread: inst.max_speed() as f64 / inst.min_speed() as f64,
        class_concentration: if inst.n() == 0 { 0.0 } else { max_pop as f64 / inst.n() as f64 },
        mean_class_population: if nonempty.is_empty() {
            0.0
        } else {
            inst.n() as f64 / nonempty.len() as f64
        },
    }
}

/// Summary statistics of an unrelated instance.
#[derive(Debug, Clone, PartialEq)]
pub struct UnrelatedStats {
    /// Number of jobs.
    pub n: usize,
    /// Number of machines.
    pub m: usize,
    /// Number of classes with at least one job.
    pub nonempty_classes: usize,
    /// Fraction of finite `(j, i)` processing-time cells, in `(0, 1]`.
    pub density: f64,
    /// Mean eligible machines per job.
    pub mean_eligibility: f64,
    /// Max over finite rows of `max p_ij / min p_ij` — how "unrelated" the
    /// matrix really is (1 on restricted-assignment instances).
    pub heterogeneity: f64,
    /// Mean over machines of `Σ_k s_ik (finite) / Σ_j p_ij (finite)`.
    pub setup_to_work: f64,
    /// Whether the three special-case structures hold (restricted
    /// assignment, class-uniform restrictions, class-uniform times).
    pub structure: (bool, bool, bool),
}

/// Computes [`UnrelatedStats`] in one row-major pass over the matrices,
/// O(n·m + K·m).
pub fn unrelated_stats(inst: &UnrelatedInstance) -> UnrelatedStats {
    let n = inst.n();
    let m = inst.m();
    let mut finite_cells = 0usize;
    let mut elig_sum = 0usize;
    let mut hetero: f64 = 1.0;
    // Per machine: Σ_j finite p_ij, then Σ_k finite s_ik.
    let mut work = vec![0u64; m];
    let mut setup = vec![0u64; m];
    for j in 0..n {
        let mut row_min = u64::MAX;
        let mut row_max = 0u64;
        for (w, &p) in work.iter_mut().zip(inst.ptimes_row(j)) {
            if is_finite(p) {
                finite_cells += 1;
                row_min = row_min.min(p);
                row_max = row_max.max(p);
                *w += p;
            }
        }
        elig_sum += inst.eligible_machines(j).len();
        // `row_min <= row_max` iff the row has a finite cell.
        if row_min > 0 && row_min <= row_max {
            hetero = hetero.max(row_max as f64 / row_min as f64);
        }
    }
    for k in 0..inst.num_classes() {
        for (t, &s) in setup.iter_mut().zip(inst.setups_row(k)) {
            if is_finite(s) {
                *t += s;
            }
        }
    }
    let mut setup_ratio = 0.0f64;
    for (&s, &p) in setup.iter().zip(&work) {
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
            inst.has_class_uniform_restrictions(),
            inst.has_class_uniform_ptimes(),
        ),
    }
}

impl std::fmt::Display for UniformStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "jobs/machines/classes: {}/{}/{}", self.n, self.m, self.nonempty_classes)?;
        writeln!(f, "total job size:        {}", self.total_job_size)?;
        writeln!(f, "setup-to-work ratio:   {:.3}", self.setup_to_work)?;
        writeln!(f, "speed spread:          {:.2}", self.speed_spread)?;
        writeln!(f, "class concentration:   {:.3}", self.class_concentration)?;
        write!(f, "mean class population: {:.2}", self.mean_class_population)
    }
}

impl std::fmt::Display for UnrelatedStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "jobs/machines/classes: {}/{}/{}", self.n, self.m, self.nonempty_classes)?;
        writeln!(f, "matrix density:        {:.3}", self.density)?;
        writeln!(f, "mean eligibility:      {:.2}", self.mean_eligibility)?;
        writeln!(f, "heterogeneity:         {:.2}", self.heterogeneity)?;
        writeln!(f, "setup-to-work ratio:   {:.3}", self.setup_to_work)?;
        let (ra, cur, cupt) = self.structure;
        write!(
            f,
            "structure:             restricted={ra}, class-uniform-restr={cur}, class-uniform-ptimes={cupt}"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{Job, INF};

    #[test]
    fn uniform_stats_basic() {
        let inst = UniformInstance::new(
            vec![1, 4],
            vec![10, 5, 99],
            vec![Job::new(0, 10), Job::new(0, 10), Job::new(1, 20)],
        )
        .unwrap();
        let s = uniform_stats(&inst);
        assert_eq!(s.n, 3);
        assert_eq!(s.nonempty_classes, 2); // class 2 empty → its setup not counted
        assert_eq!(s.total_job_size, 40);
        assert!((s.setup_to_work - 15.0 / 40.0).abs() < 1e-12);
        assert!((s.speed_spread - 4.0).abs() < 1e-12);
        assert!((s.class_concentration - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.mean_class_population - 1.5).abs() < 1e-12);
        let text = s.to_string();
        assert!(text.contains("setup-to-work ratio:   0.375"), "{text}");
    }

    #[test]
    fn uniform_stats_empty_instance() {
        let inst = UniformInstance::new(vec![2], vec![3], vec![]).unwrap();
        let s = uniform_stats(&inst);
        assert_eq!(s.setup_to_work, 0.0);
        assert_eq!(s.class_concentration, 0.0);
        assert_eq!(s.mean_class_population, 0.0);
    }

    #[test]
    fn unrelated_stats_density_and_structure() {
        let inst = UnrelatedInstance::new(
            2,
            vec![0, 1],
            vec![vec![4, INF], vec![6, 6]],
            vec![vec![1, 1], vec![2, 2]],
        )
        .unwrap();
        let s = unrelated_stats(&inst);
        assert!((s.density - 0.75).abs() < 1e-12);
        assert!((s.mean_eligibility - 1.5).abs() < 1e-12);
        assert!((s.heterogeneity - 1.0).abs() < 1e-12); // finite rows constant
        assert!(s.structure.0, "finite ptimes per job are constant → RA");
        let text = s.to_string();
        assert!(text.contains("restricted=true"), "{text}");
    }

    #[test]
    fn latency_histogram_percentiles_interpolate_within_buckets() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        assert_eq!(h.max(), 1000);
        // Hand-computed oracles. p50: rank 500 lands in bucket 8
        // ([256, 511], 256 samples, 255 before), position 245 →
        // 256 + ⌊244·256/256⌋ = 500 — exactly the true median, because the
        // samples really are uniform within the bucket. p90/p99 land in
        // bucket 9 clipped to the observed max ([512, 1000], 489 samples,
        // 511 before): 512 + ⌊388·489/489⌋ = 900 and
        // 512 + ⌊478·489/489⌋ = 990. p100 is the tracked max, exact.
        assert_eq!(h.percentile(0.5), 500);
        assert_eq!(h.percentile(0.9), 900);
        assert_eq!(h.percentile(0.99), 990);
        assert_eq!(h.percentile(1.0), 1000);
    }

    #[test]
    fn latency_histogram_sparse_buckets_estimate_low_not_upper_bound() {
        // One sample deep in a wide bucket plus one far outlier: the old
        // upper-bound behavior reported the median as 1023 (≈ 2× the
        // truth); left-edge interpolation reports the bucket floor, and
        // the top rank is the exact max.
        let mut h = LatencyHistogram::new();
        h.record(513);
        h.record(5000);
        assert_eq!(h.percentile(0.5), 512, "rank 1 of 1 in [512, 1023] → left edge");
        assert_eq!(h.percentile(1.0), 5000, "top rank is the exact max");
    }

    #[test]
    fn latency_histogram_percentile_is_monotone_and_capped() {
        // Skewed data: interpolation must stay monotone in q and never
        // exceed the observed maximum.
        let mut h = LatencyHistogram::new();
        for v in [1u64, 2, 2, 3, 900, 901, 5000] {
            h.record(v);
        }
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];
        let estimates: Vec<u64> = qs.iter().map(|&q| h.percentile(q)).collect();
        assert!(estimates.windows(2).all(|w| w[0] <= w[1]), "non-monotone: {estimates:?}");
        assert_eq!(*estimates.last().unwrap(), 5000, "p100 is the max");
        assert!(estimates.iter().all(|&e| e <= 5000));
    }

    #[test]
    fn latency_histogram_merge_equals_recording_the_union() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut union = LatencyHistogram::new();
        for v in [1u64, 7, 300, 4096, 0] {
            a.record(v);
            union.record(v);
        }
        for v in [2u64, 300, 9999, u64::MAX] {
            b.record(v);
            union.record(v);
        }
        a.merge(&b);
        assert_eq!(a, union, "merge must be bucket-exact");
        // Merging an empty histogram is a no-op on both sides.
        let empty = LatencyHistogram::new();
        let before = a.clone();
        a.merge(&empty);
        assert_eq!(a, before);
        let mut fresh = LatencyHistogram::new();
        fresh.merge(&union);
        assert_eq!(fresh, union);
    }

    #[test]
    fn latency_histogram_edge_cases() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        let mut h = LatencyHistogram::new();
        h.record(0); // value 0 lands in bucket 0
        h.record(u64::MAX); // top bucket must not overflow the bound
        assert_eq!(h.count(), 2);
        assert_eq!(h.percentile(1.0), u64::MAX);
    }

    #[test]
    fn unrelated_heterogeneity_detects_spread() {
        let inst = UnrelatedInstance::new(2, vec![0], vec![vec![2, 10]], vec![vec![1, 1]]).unwrap();
        let s = unrelated_stats(&inst);
        assert!((s.heterogeneity - 5.0).abs() < 1e-12);
        assert!(!s.structure.0);
    }
}
