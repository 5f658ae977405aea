//! Offline stand-in for the subset of the `rand` 0.8 API this workspace uses.
//!
//! The build environment has no access to crates.io, so this crate provides
//! the exact surface the workspace needs — `SeedableRng::seed_from_u64`,
//! `Rng::{gen, gen_range, gen_bool}`, `rngs::{SmallRng, StdRng}`,
//! `distributions::Uniform` and `seq::SliceRandom::shuffle` — backed by a
//! SplitMix64-seeded xoshiro256** generator. Streams are deterministic for a given seed (the
//! workspace's own determinism guarantee), but are **not** identical to the
//! streams of the real `rand` crate.

/// Seeding from a `u64`, as in `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Core generator state: xoshiro256** with SplitMix64 seeding.
#[derive(Debug, Clone)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    fn from_u64(seed: u64) -> Self {
        // SplitMix64 to fill the state, per the xoshiro authors' guidance.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Xoshiro256 { s: [next(), next(), next(), next()] }
    }

    #[inline]
    fn next_u64_impl(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

macro_rules! named_rng {
    ($name:ident) => {
        /// A seedable pseudo-random generator (xoshiro256**).
        #[derive(Debug, Clone)]
        pub struct $name(Xoshiro256);

        impl SeedableRng for $name {
            fn seed_from_u64(seed: u64) -> Self {
                $name(Xoshiro256::from_u64(seed))
            }
        }

        impl RngCore for $name {
            #[inline]
            fn next_u64(&mut self) -> u64 {
                self.0.next_u64_impl()
            }
        }
    };
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng, Xoshiro256};

    named_rng!(SmallRng);
    named_rng!(StdRng);
}

/// The raw 64-bit source every generator implements.
pub trait RngCore {
    /// Next raw 64 bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types samplable by [`Rng::gen`] (the `Standard` distribution).
pub trait Standard: Sized {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 random mantissa bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges samplable by [`Rng::gen_range`]. Generic over the output type
/// (like `rand`'s `SampleRange<T>`), with blanket impls over
/// [`SampleUniform`] so untyped integer literals unify with the calling
/// context the way they do with the real crate.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the (non-empty) range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Integer types uniformly samplable from ranges.
pub trait SampleUniform: Copy + PartialOrd {
    /// Widens to `u128` (sign-extending) for span arithmetic.
    fn widen(self) -> u128;
    /// Adds an unsigned offset with wrapping semantics.
    fn offset(self, delta: u64) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn widen(self) -> u128 {
                self as u128
            }
            #[inline]
            fn offset(self, delta: u64) -> $t {
                self.wrapping_add(delta as $t)
            }
        }
    )*};
}

impl_sample_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: SampleUniform> SampleRange<T> for core::ops::Range<T> {
    #[inline]
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        let span = self.end.widen().wrapping_sub(self.start.widen()) as u64;
        self.start.offset(uniform_u64(rng, span))
    }
}

impl<T: SampleUniform> SampleRange<T> for core::ops::RangeInclusive<T> {
    #[inline]
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "cannot sample empty range");
        let span = hi.widen().wrapping_sub(lo.widen()) as u64;
        if span == u64::MAX {
            return lo.offset(rng.next_u64());
        }
        lo.offset(uniform_u64(rng, span + 1))
    }
}

/// Uniform draw from `0..span` (`span > 0`) by rejection sampling, bias-free.
#[inline]
fn uniform_u64<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    if span.is_power_of_two() {
        return rng.next_u64() & (span - 1);
    }
    uniform_in_zone(rng, span, zone(span))
}

/// The rejection zone of `0..span`: accepting `v <= zone` keeps the same
/// number of raw values for every result (the largest multiple of `span`
/// that fits in `u64`).
#[inline]
fn zone(span: u64) -> u64 {
    u64::MAX - (u64::MAX % span) - 1
}

/// The rejection loop of [`uniform_u64`] for a span that is not a power of
/// two, given its [`zone`].
#[inline]
fn uniform_in_zone<R: RngCore + ?Sized>(rng: &mut R, span: u64, zone: u64) -> u64 {
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % span;
        }
    }
}

/// Distributions, mirroring `rand::distributions`.
pub mod distributions {
    use super::{uniform_in_zone, zone, RngCore, SampleUniform};

    /// Types that sample values, mirroring `rand::distributions::Distribution`.
    pub trait Distribution<T> {
        /// Draws one value.
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// Uniform integers from a half-open range, with the rejection zone
    /// computed once instead of per draw. Unlike the real crate's, its
    /// draws are exactly those of [`super::Rng::gen_range`] on the same
    /// range: the same raw outputs consumed and the same values returned.
    #[derive(Debug, Clone, Copy)]
    pub struct Uniform<T> {
        low: T,
        span: u64,
        zone: u64,
    }

    impl<T: SampleUniform> Uniform<T> {
        /// The uniform distribution on `low..high`.
        ///
        /// # Panics
        /// Panics if the range is empty.
        pub fn new(low: T, high: T) -> Self {
            assert!(low < high, "cannot sample empty range");
            let span = high.widen().wrapping_sub(low.widen()) as u64;
            Uniform { low, span, zone: zone(span) }
        }
    }

    impl<T: SampleUniform> Distribution<T> for Uniform<T> {
        #[inline]
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T {
            let v = if self.span.is_power_of_two() {
                rng.next_u64() & (self.span - 1)
            } else {
                uniform_in_zone(rng, self.span, self.zone)
            };
            self.low.offset(v)
        }
    }
}

/// User-facing sampling methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Samples a value of a [`Standard`]-samplable type.
    #[inline]
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Samples uniformly from `range` (half-open or inclusive).
    #[inline]
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::sample(self) < p
    }
}

impl<R: RngCore> Rng for R {}

/// Slice helpers, mirroring `rand::seq`.
pub mod seq {
    use super::{Rng, RngCore};

    /// Shuffling, mirroring `rand::seq::SliceRandom`.
    pub trait SliceRandom {
        /// The element type.
        type Item;
        /// Fisher–Yates shuffle in place.
        fn shuffle<R: Rng + RngCore>(&mut self, rng: &mut R);
        /// Uniformly random element, or `None` if empty.
        fn choose<R: Rng + RngCore>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + RngCore>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: Rng + RngCore>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_under_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = rng.gen_range(3u64..17);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(5usize..=9);
            assert!((5..=9).contains(&y));
            let f = rng.gen::<f64>();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn range_endpoints_reachable() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..4)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn uniform_draws_what_gen_range_draws() {
        use super::distributions::{Distribution, Uniform};
        for (lo, hi) in [(0usize, 1usize), (0, 5), (3, 51), (0, 64), (7, 1 << 40)] {
            let dist = Uniform::new(lo, hi);
            let mut a = StdRng::seed_from_u64(hi as u64);
            let mut b = a.clone();
            for _ in 0..1000 {
                assert_eq!(dist.sample(&mut a), b.gen_range(lo..hi));
            }
            assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "same raw outputs consumed");
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
