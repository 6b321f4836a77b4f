//! Vendored deterministic RNG for the BISRAMGEN workspace.
//!
//! The workspace must build and test fully offline, and every
//! Monte-Carlo experiment (fault injection, yield simulation, coverage
//! campaigns) must be bit-reproducible from a single `u64` seed across
//! machines and toolchain versions. This crate provides both, with no
//! external dependencies:
//!
//! * [`Xoshiro256StarStar`] — the xoshiro256** generator (Blackman &
//!   Vigna), seeded through [`SplitMix64`] exactly as its authors
//!   recommend;
//! * a facade mirroring the subset of the `rand` 0.8 API the workspace
//!   uses, so call sites read identically: [`Rng::gen`],
//!   [`Rng::gen_range`] over integer and float ranges, [`Rng::gen_bool`],
//!   [`SeedableRng::seed_from_u64`], [`rngs::StdRng`], and
//!   [`seq::SliceRandom`]'s `shuffle` / `partial_shuffle` / `choose`.
//!
//! Unlike `rand`, whose `StdRng` stream is explicitly *not* guaranteed
//! stable across versions, this crate pins the algorithm forever: a
//! seed written into a test or an experiment log replays the same
//! stream on any machine.
//!
//! ```
//! use bisram_rng::rngs::StdRng;
//! use bisram_rng::{Rng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let a: u64 = rng.gen();
//! let b = rng.gen_range(0..10usize);
//! let mut again = StdRng::seed_from_u64(7);
//! assert_eq!(a, again.gen::<u64>());
//! assert_eq!(b, again.gen_range(0..10usize));
//! ```

mod sample;
pub mod seq;
mod xoshiro;

pub use sample::{SampleRange, Standard};
pub use xoshiro::{SplitMix64, Xoshiro256StarStar};

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    /// The workspace-standard generator: xoshiro256** behind the
    /// stable seeding path. Unlike `rand::rngs::StdRng`, the stream is
    /// guaranteed never to change.
    pub type StdRng = crate::Xoshiro256StarStar;
}

/// The raw 64-bit source every generator implements.
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly random bits (the high half of
    /// [`next_u64`](Self::next_u64) — xoshiro's upper bits are its
    /// strongest).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Deterministic construction from a `u64` seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a single `u64` via splitmix64 state
    /// expansion. Distinct seeds give uncorrelated streams.
    fn seed_from_u64(state: u64) -> Self;
}

/// User-facing sampling methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// A uniform sample of a [`Standard`]-distributed type: full-range
    /// integers, `bool`, or a float in `[0, 1)`.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform sample from `range` (`a..b` or `a..=b` over integers,
    /// `a..b` over floats). Unbiased for integers (Lemire rejection).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability {p} not in [0, 1]"
        );
        sample::unit_f64(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn splitmix64_matches_reference_vectors() {
        // Reference sequence from the published splitmix64.c test vector.
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220A8397B1DCDAF);
        assert_eq!(sm.next_u64(), 0x6E789E6AA1B965F4);
        assert_eq!(sm.next_u64(), 0x06C45D188009454F);
        assert_eq!(sm.next_u64(), 0xF88BB8A8724C81EC);
        let mut sm = SplitMix64::new(42);
        assert_eq!(sm.next_u64(), 0xBDD732262FEB6E95);
        assert_eq!(sm.next_u64(), 0x28EFE333B266F103);
    }

    #[test]
    fn xoshiro_matches_reference_stream() {
        // State expanded from seed 12345 by splitmix64, then the first
        // outputs of the reference xoshiro256** update.
        let mut rng = StdRng::seed_from_u64(12345);
        assert_eq!(rng.next_u64(), 0xBE6A36374160D49B);
        assert_eq!(rng.next_u64(), 0x214AAA0637A688C6);
        assert_eq!(rng.next_u64(), 0xF69D16DE9954D388);
        assert_eq!(rng.next_u64(), 0x0C60048C4E96E033);
    }

    #[test]
    fn seeding_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(StdRng::seed_from_u64(9), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(StdRng::seed_from_u64(9), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(StdRng::seed_from_u64(10), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn gen_range_stays_in_bounds_over_integer_ranges() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..2000 {
            let v = rng.gen_range(0..7usize);
            assert!(v < 7);
            let w = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&w));
            let x = rng.gen_range(1..=2usize);
            assert!((1..=2).contains(&x));
            let y = rng.gen_range(0..3);
            assert!((0..3).contains(&y));
        }
    }

    #[test]
    fn gen_range_covers_every_value_of_a_small_range() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 7];
        for _ in 0..500 {
            seen[rng.gen_range(0..7usize)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues hit: {seen:?}");
    }

    #[test]
    fn float_ranges_are_half_open() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..2000 {
            let v = rng.gen_range(0.0..1.0);
            assert!((0.0..1.0).contains(&v));
            let w = rng.gen_range(f64::MIN_POSITIVE..1.0);
            assert!((f64::MIN_POSITIVE..1.0).contains(&w));
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn gen_bool_degenerate_probabilities() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            assert!(!rng.gen_bool(0.0));
            assert!(rng.gen_bool(1.0));
        }
        let heads = (0..4000).filter(|_| rng.gen_bool(0.5)).count();
        assert!(
            (1700..2300).contains(&heads),
            "fair coin came up {heads}/4000"
        );
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_integer_range_panics() {
        let mut rng = StdRng::seed_from_u64(5);
        let _ = rng.gen_range(5..5usize);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_float_range_panics() {
        let mut rng = StdRng::seed_from_u64(5);
        let _ = rng.gen_range(1.0..1.0);
    }

    #[test]
    fn works_through_unsized_generic_bounds() {
        // The call pattern the workspace uses everywhere.
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> (u64, usize, bool, f64) {
            (
                rng.gen(),
                rng.gen_range(0..9),
                rng.gen_bool(0.25),
                rng.gen(),
            )
        }
        let mut rng = StdRng::seed_from_u64(6);
        let a = draw(&mut rng);
        let mut rng = StdRng::seed_from_u64(6);
        assert_eq!(a, draw(&mut rng));
    }

    #[test]
    fn shuffle_is_a_permutation_and_choose_hits_members() {
        use crate::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(7);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "a 50-element shuffle should not be identity");
        for _ in 0..20 {
            assert!(v.choose(&mut rng).is_some_and(|&x| x < 50));
        }
        assert!(Vec::<u8>::new().choose(&mut rng).is_none());
    }

    #[test]
    fn partial_shuffle_returns_distinct_prefix() {
        use crate::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(8);
        let mut v: Vec<usize> = (0..100).collect();
        let (picked, rest) = v.partial_shuffle(&mut rng, 10);
        assert_eq!(picked.len(), 10);
        assert_eq!(rest.len(), 90);
        let mut all: Vec<usize> = picked.iter().chain(rest.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
        // Amounts past the end clamp to the slice length.
        let mut w = [1u8, 2, 3];
        let (p, r) = w.partial_shuffle(&mut rng, 10);
        assert_eq!(p.len(), 3);
        assert!(r.is_empty());
    }
}
