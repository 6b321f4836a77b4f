//! Slice sampling helpers, mirroring `rand::seq::SliceRandom`.

use crate::sample::uniform_below;
use crate::RngCore;

/// Random selection and reordering over slices.
pub trait SliceRandom {
    /// The element type.
    type Item;

    /// A uniformly random element, or `None` for an empty slice.
    fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;

    /// Uniform in-place Fisher–Yates shuffle.
    fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

    /// Shuffles just enough to fill the first `amount` slots with a
    /// uniform sample (without replacement), returning
    /// `(sampled, remainder)`. `amount` clamps to the slice length.
    fn partial_shuffle<R: RngCore + ?Sized>(
        &mut self,
        rng: &mut R,
        amount: usize,
    ) -> (&mut [Self::Item], &mut [Self::Item]);
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[uniform_below(rng, self.len() as u64) as usize])
        }
    }

    fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            self.swap(i, uniform_below(rng, i as u64 + 1) as usize);
        }
    }

    fn partial_shuffle<R: RngCore + ?Sized>(
        &mut self,
        rng: &mut R,
        amount: usize,
    ) -> (&mut [T], &mut [T]) {
        let amount = amount.min(self.len());
        for i in 0..amount {
            // Draw the i-th sample from the not-yet-picked tail.
            let j = i + uniform_below(rng, (self.len() - i) as u64) as usize;
            self.swap(i, j);
        }
        self.split_at_mut(amount)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;
    use crate::SeedableRng;

    #[test]
    fn choose_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(11);
        let items = [0usize, 1, 2, 3];
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[*items.choose(&mut rng).unwrap()] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((800..1200).contains(&c), "item {i} drawn {c}/4000");
        }
    }

    #[test]
    fn partial_shuffle_prefix_is_a_uniform_sample() {
        // Every element should land in the 2-element sample with
        // frequency 2/5 over many seeded draws.
        let mut hits = [0usize; 5];
        for seed in 0..2000u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut v = [0usize, 1, 2, 3, 4];
            let (picked, _) = v.partial_shuffle(&mut rng, 2);
            for &p in picked.iter() {
                hits[p] += 1;
            }
        }
        for (i, &h) in hits.iter().enumerate() {
            assert!(
                (640..960).contains(&h),
                "element {i} sampled {h}/2000 (expect ~800)"
            );
        }
    }

    #[test]
    fn shuffle_of_singleton_and_empty_is_noop() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut empty: [u8; 0] = [];
        empty.shuffle(&mut rng);
        let mut one = [7u8];
        one.shuffle(&mut rng);
        assert_eq!(one, [7]);
    }
}
