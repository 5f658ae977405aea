//! Exact non-negative rational arithmetic.
//!
//! Makespans on uniformly related machines are rationals `work / speed`.
//! Comparing them through floating point silently breaks dual-approximation
//! feasibility tests near the threshold, so every correctness-critical
//! comparison in this workspace goes through [`Ratio`]: a reduced `u64/u64`
//! fraction compared by `u128` cross-multiplication.

use std::cmp::Ordering;
use std::fmt;

/// A non-negative rational number stored as a reduced fraction.
///
/// Invariants: `den > 0` and `gcd(num, den) == 1` (with `0` represented as
/// `0/1`). All operations keep the value reduced. Arithmetic panics on
/// overflow of the reduced result — scheduling quantities in this workspace
/// (work sums below 2^63, speeds below 2^32) stay far from that limit, and a
/// loud panic beats a silently wrong makespan.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ratio {
    num: u64,
    den: u64,
}

/// Greatest common divisor (binary-free Euclid; inputs fit u64).
#[inline]
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[inline]
fn gcd128(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Ratio {
    /// The rational `0`.
    pub const ZERO: Ratio = Ratio { num: 0, den: 1 };
    /// The rational `1`.
    pub const ONE: Ratio = Ratio { num: 1, den: 1 };

    /// Creates `num / den`, reducing to lowest terms.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    #[inline]
    pub fn new(num: u64, den: u64) -> Ratio {
        assert!(den != 0, "Ratio denominator must be non-zero");
        if num == 0 {
            return Ratio::ZERO;
        }
        let g = gcd(num, den);
        Ratio { num: num / g, den: den / g }
    }

    /// Builds a ratio from a (possibly unreduced) `u128` fraction, reducing
    /// first and panicking only if the *reduced* fraction does not fit `u64`.
    fn from_u128(num: u128, den: u128) -> Ratio {
        assert!(den != 0, "Ratio denominator must be non-zero");
        if num == 0 {
            return Ratio::ZERO;
        }
        let g = gcd128(num, den);
        let (n, d) = (num / g, den / g);
        assert!(
            n <= u64::MAX as u128 && d <= u64::MAX as u128,
            "Ratio overflow: {n}/{d} does not fit u64/u64"
        );
        Ratio { num: n as u64, den: d as u64 }
    }

    /// Like [`Ratio::from_u128`], but returns `None` instead of panicking
    /// when the reduced fraction does not fit `u64/u64`.
    fn try_from_u128(num: u128, den: u128) -> Option<Ratio> {
        assert!(den != 0, "Ratio denominator must be non-zero");
        if num == 0 {
            return Some(Ratio::ZERO);
        }
        let g = gcd128(num, den);
        let (n, d) = (num / g, den / g);
        if n <= u64::MAX as u128 && d <= u64::MAX as u128 {
            Some(Ratio { num: n as u64, den: d as u64 })
        } else {
            None
        }
    }

    /// Smallest ratio `≥ self` whose denominator is at most `max_den`
    /// (identity when `den ≤ max_den` already). Rounds *up*, never down.
    pub fn round_up_to_den(self, max_den: u64) -> Ratio {
        assert!(max_den > 0, "max_den must be positive");
        if self.den <= max_den {
            return self;
        }
        // ceil(num·max_den / den) / max_den ≥ num/den; num·max_den fits u128.
        let scaled = self.num as u128 * max_den as u128;
        let num = scaled.div_ceil(self.den as u128);
        Ratio::from_u128(num, max_den as u128)
    }

    /// Multiplication for geometric grids: exact whenever the reduced exact
    /// product fits `u64/u64`; otherwise `self` is first rounded **up** to a
    /// denominator ≤ 2³² (an absolute error below 2⁻³²) and the product is
    /// taken exactly from there. The result is always `≥ self · rhs` and
    /// `≤ round_up_to_den(self) · rhs`, preserving the monotone-coverage
    /// property geometric search needs even when the exact grid point (e.g.
    /// `5³⁴/4³⁴`) is unrepresentable.
    pub fn mul_rounding_up(self, rhs: Ratio) -> Ratio {
        let g1 = gcd(self.num, rhs.den);
        let g2 = gcd(rhs.num, self.den);
        let num = (self.num / g1) as u128 * (rhs.num / g2) as u128;
        let den = (self.den / g2) as u128 * (rhs.den / g1) as u128;
        if let Some(exact) = Ratio::try_from_u128(num, den) {
            return exact;
        }
        self.round_up_to_den(1 << 32).mul(rhs)
    }

    #[inline]
    /// The integer `v` as a rational `v/1`.
    pub fn from_int(v: u64) -> Ratio {
        Ratio { num: v, den: 1 }
    }

    #[inline]
    /// Numerator of the reduced fraction.
    pub fn numer(self) -> u64 {
        self.num
    }

    #[inline]
    /// Denominator of the reduced fraction (always positive).
    pub fn denom(self) -> u64 {
        self.den
    }

    #[inline]
    /// True iff the value is zero.
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Exact addition.
    #[inline]
    pub fn add(self, rhs: Ratio) -> Ratio {
        Ratio::from_u128(
            self.num as u128 * rhs.den as u128 + rhs.num as u128 * self.den as u128,
            self.den as u128 * rhs.den as u128,
        )
    }

    /// Exact subtraction, saturating at zero (loads and gaps in this crate
    /// are non-negative by construction; callers that care use `checked_sub`).
    #[inline]
    pub fn saturating_sub(self, rhs: Ratio) -> Ratio {
        match self.checked_sub(rhs) {
            Some(r) => r,
            None => Ratio::ZERO,
        }
    }

    /// Exact subtraction; `None` if the result would be negative.
    #[inline]
    pub fn checked_sub(self, rhs: Ratio) -> Option<Ratio> {
        let lhs = self.num as u128 * rhs.den as u128;
        let r = rhs.num as u128 * self.den as u128;
        if lhs < r {
            return None;
        }
        Some(Ratio::from_u128(lhs - r, self.den as u128 * rhs.den as u128))
    }

    /// Exact multiplication.
    #[inline]
    pub fn mul(self, rhs: Ratio) -> Ratio {
        // Cross-reduce first to keep intermediates small.
        let g1 = gcd(self.num, rhs.den);
        let g2 = gcd(rhs.num, self.den);
        Ratio::from_u128(
            (self.num / g1) as u128 * (rhs.num / g2) as u128,
            (self.den / g2) as u128 * (rhs.den / g1) as u128,
        )
    }

    /// Exact division.
    ///
    /// # Panics
    /// Panics if `rhs` is zero.
    #[inline]
    pub fn div(self, rhs: Ratio) -> Ratio {
        assert!(!rhs.is_zero(), "Ratio division by zero");
        self.mul(Ratio { num: rhs.den, den: rhs.num })
    }

    #[inline]
    /// Multiplies by an integer.
    pub fn mul_int(self, v: u64) -> Ratio {
        self.mul(Ratio::from_int(v))
    }

    #[inline]
    /// Divides by a (non-zero) integer.
    pub fn div_int(self, v: u64) -> Ratio {
        self.div(Ratio::from_int(v))
    }

    /// Smallest integer `>= self`.
    #[inline]
    pub fn ceil(self) -> u64 {
        self.num.div_ceil(self.den)
    }

    /// Largest integer `<= self`.
    #[inline]
    pub fn floor(self) -> u64 {
        self.num / self.den
    }

    /// Lossy `f64` view. Reporting uses it, and so does the annealer's
    /// Metropolis test, which compares these views (via
    /// `MachineModel::key_to_f64`); exact comparisons use [`Ord`].
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// `self^exp` by repeated squaring.
    pub fn pow(self, mut exp: u32) -> Ratio {
        let mut base = self;
        let mut acc = Ratio::ONE;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = acc.mul(base);
            }
            exp >>= 1;
            if exp > 0 {
                base = base.mul(base);
            }
        }
        acc
    }

    #[inline]
    /// Smaller of the two values.
    pub fn min(self, rhs: Ratio) -> Ratio {
        if self <= rhs {
            self
        } else {
            rhs
        }
    }

    #[inline]
    /// Larger of the two values.
    pub fn max(self, rhs: Ratio) -> Ratio {
        if self >= rhs {
            self
        } else {
            rhs
        }
    }
}

impl PartialOrd for Ratio {
    #[inline]
    fn partial_cmp(&self, other: &Ratio) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    #[inline]
    fn cmp(&self, other: &Ratio) -> Ordering {
        // Reduced fractions with u64 parts: products fit u128 exactly.
        let lhs = self.num as u128 * other.den as u128;
        let rhs = other.num as u128 * self.den as u128;
        lhs.cmp(&rhs)
    }
}

impl fmt::Debug for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.num, self.den)
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{} (~{:.4})", self.num, self.den, self.to_f64())
        }
    }
}

impl From<u64> for Ratio {
    fn from(v: u64) -> Ratio {
        Ratio::from_int(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduces_on_construction() {
        let r = Ratio::new(6, 4);
        assert_eq!(r.numer(), 3);
        assert_eq!(r.denom(), 2);
        assert_eq!(Ratio::new(0, 7), Ratio::ZERO);
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn zero_denominator_panics() {
        let _ = Ratio::new(1, 0);
    }

    #[test]
    fn ordering_is_exact_near_ties() {
        // 1/3 vs 333333333/1000000000: f64 would need care; exact cmp is trivial.
        let a = Ratio::new(1, 3);
        let b = Ratio::new(333_333_333, 1_000_000_000);
        assert!(b < a);
        assert!(a > b);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn arithmetic_identities() {
        let a = Ratio::new(3, 4);
        let b = Ratio::new(5, 6);
        assert_eq!(a.add(b), Ratio::new(19, 12));
        assert_eq!(b.checked_sub(a), Some(Ratio::new(1, 12)));
        assert_eq!(a.checked_sub(b), None);
        assert_eq!(a.saturating_sub(b), Ratio::ZERO);
        assert_eq!(a.mul(b), Ratio::new(5, 8));
        assert_eq!(a.div(b), Ratio::new(9, 10));
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(Ratio::new(7, 2).ceil(), 4);
        assert_eq!(Ratio::new(7, 2).floor(), 3);
        assert_eq!(Ratio::new(8, 2).ceil(), 4);
        assert_eq!(Ratio::new(8, 2).floor(), 4);
        assert_eq!(Ratio::ZERO.ceil(), 0);
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let r = Ratio::new(3, 2);
        let mut acc = Ratio::ONE;
        for e in 0..8u32 {
            assert_eq!(r.pow(e), acc);
            acc = acc.mul(r);
        }
    }

    #[test]
    fn large_values_no_overflow() {
        let a = Ratio::new(u32::MAX as u64, 3);
        let b = Ratio::new(u32::MAX as u64, 5);
        // Products of ~2^32 values fit comfortably in u128 comparisons.
        assert!(a > b);
        let p = a.mul(Ratio::new(3, u32::MAX as u64));
        assert_eq!(p, Ratio::ONE);
    }

    #[test]
    fn min_max() {
        let a = Ratio::new(1, 2);
        let b = Ratio::new(2, 3);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }
}
