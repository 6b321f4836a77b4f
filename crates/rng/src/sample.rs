//! Distributions: full-range [`Standard`] samples and uniform
//! [`SampleRange`] draws over integer and float ranges.

use crate::RngCore;
use std::ops::{Range, RangeInclusive};

/// A double in `[0, 1)` with 53 random mantissa bits — the standard
/// `(x >> 11) * 2^-53` construction.
pub(crate) fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A float in `[0, 1)` with 24 random mantissa bits.
pub(crate) fn unit_f32<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
    (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
}

/// Unbiased uniform draw from `0..n` (Lemire's nearly-divisionless
/// widening-multiply rejection).
pub(crate) fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    debug_assert!(n > 0);
    let mut m = u128::from(rng.next_u64()) * u128::from(n);
    if (m as u64) < n {
        let threshold = n.wrapping_neg() % n;
        while (m as u64) < threshold {
            m = u128::from(rng.next_u64()) * u128::from(n);
        }
    }
    (m >> 64) as u64
}

/// Types [`Rng::gen`](crate::Rng::gen) can produce: the analogue of
/// sampling `rand`'s `Standard` distribution.
pub trait Standard: Sized {
    /// One uniform sample.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 != 0
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        unit_f64(rng)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        unit_f32(rng)
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> $t {
                // Truncate from the top bits, xoshiro's strongest.
                (rng.next_u64() >> (64 - <$t>::BITS.min(64))) as $t
            }
        }
    )*};
}

impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges [`Rng::gen_range`](crate::Rng::gen_range) accepts.
pub trait SampleRange<T> {
    /// One uniform sample from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(
                    self.start < self.end,
                    "cannot sample empty range {}..{}", self.start, self.end
                );
                let span = (self.end as $u).wrapping_sub(self.start as $u) as u64;
                self.start.wrapping_add(uniform_below(rng, span) as $t)
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "cannot sample empty range {lo}..={hi}");
                let span = (hi as $u).wrapping_sub(lo as $u) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(uniform_below(rng, span + 1) as $t)
            }
        }
    )*};
}

impl_int_range!(
    u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize,
    i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize
);

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(
            self.start < self.end,
            "cannot sample empty range {}..{}",
            self.start,
            self.end
        );
        assert!(
            (self.end - self.start).is_finite(),
            "cannot sample non-finite range {}..{}",
            self.start,
            self.end
        );
        let v = self.start + (self.end - self.start) * unit_f64(rng);
        // Rounding can land exactly on the excluded endpoint; nudge back
        // to keep the half-open contract.
        if v < self.end {
            v
        } else {
            self.end.next_down().max(self.start)
        }
    }
}

impl SampleRange<f32> for Range<f32> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(
            self.start < self.end,
            "cannot sample empty range {}..{}",
            self.start,
            self.end
        );
        assert!(
            (self.end - self.start).is_finite(),
            "cannot sample non-finite range {}..{}",
            self.start,
            self.end
        );
        let v = self.start + (self.end - self.start) * unit_f32(rng);
        if v < self.end {
            v
        } else {
            self.end.next_down().max(self.start)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;
    use crate::{Rng, SeedableRng};

    #[test]
    fn uniform_below_is_unbiased_enough() {
        // Chi-squared-ish sanity over a modulus that a naive `% n`
        // would visibly bias for small word sizes.
        let mut rng = StdRng::seed_from_u64(99);
        let n = 6u64;
        let mut counts = [0usize; 6];
        let draws = 60_000;
        for _ in 0..draws {
            counts[uniform_below(&mut rng, n) as usize] += 1;
        }
        let expect = draws / 6;
        for (face, &c) in counts.iter().enumerate() {
            assert!(
                (c as i64 - expect as i64).abs() < expect as i64 / 10,
                "face {face}: {c} vs expected {expect}"
            );
        }
    }

    #[test]
    fn signed_ranges_span_zero() {
        let mut rng = StdRng::seed_from_u64(100);
        let mut saw_neg = false;
        let mut saw_pos = false;
        for _ in 0..1000 {
            let v = rng.gen_range(-3i32..4);
            assert!((-3..4).contains(&v));
            saw_neg |= v < 0;
            saw_pos |= v > 0;
        }
        assert!(saw_neg && saw_pos);
    }

    #[test]
    fn inclusive_range_hits_both_endpoints() {
        let mut rng = StdRng::seed_from_u64(101);
        let mut lo = false;
        let mut hi = false;
        for _ in 0..500 {
            match rng.gen_range(1..=2usize) {
                1 => lo = true,
                2 => hi = true,
                v => panic!("out of range: {v}"),
            }
        }
        assert!(lo && hi);
    }

    #[test]
    fn full_width_inclusive_range_is_supported() {
        let mut rng = StdRng::seed_from_u64(102);
        let _: u64 = rng.gen_range(0..=u64::MAX);
        let _: i64 = rng.gen_range(i64::MIN..=i64::MAX);
    }

    #[test]
    fn degenerate_float_span_returns_start() {
        // A one-ULP range must still respect the half-open contract.
        let lo = 1.0f64;
        let hi = lo.next_up();
        let mut rng = StdRng::seed_from_u64(103);
        for _ in 0..100 {
            assert_eq!(rng.gen_range(lo..hi), lo);
        }
    }
}
