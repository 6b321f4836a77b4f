//! The generators: splitmix64 (state expansion) and xoshiro256**
//! (the workhorse stream), both from the public-domain reference
//! implementations by Blackman & Vigna.

use crate::{RngCore, SeedableRng};

/// Vigna's splitmix64: a tiny 64-bit generator whose only job here is
/// expanding one `u64` seed into well-mixed xoshiro state words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose stream is fully determined by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }
}

impl RngCore for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

impl SeedableRng for SplitMix64 {
    fn seed_from_u64(state: u64) -> Self {
        SplitMix64::new(state)
    }
}

/// xoshiro256**: 256 bits of state, period 2^256 − 1, passes BigCrush.
/// The workspace's [`StdRng`](crate::rngs::StdRng).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Builds the generator from raw state words.
    ///
    /// # Panics
    ///
    /// Panics on the all-zero state, the one fixed point of the update.
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(
            s.iter().any(|&w| w != 0),
            "xoshiro256** state must not be all zero"
        );
        Xoshiro256StarStar { s }
    }

    /// Advances the stream by 2^128 steps: up to 2^128 independent
    /// non-overlapping substreams from one seed, for sharded
    /// Monte-Carlo runs.
    pub fn jump(&mut self) {
        const JUMP: [u64; 4] = [
            0x180EC6D33CFD0ABA,
            0xD5A61266F0C9392C,
            0xA9582618E03FC9AA,
            0x39ABDC4529B1661C,
        ];
        let mut acc = [0u64; 4];
        for word in JUMP {
            for bit in 0..64 {
                if word & (1u64 << bit) != 0 {
                    for (a, s) in acc.iter_mut().zip(self.s) {
                        *a ^= s;
                    }
                }
                self.next_u64();
            }
        }
        self.s = acc;
    }
}

impl RngCore for Xoshiro256StarStar {
    fn next_u64(&mut self) -> u64 {
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

impl SeedableRng for Xoshiro256StarStar {
    fn seed_from_u64(state: u64) -> Self {
        // The seeding path the xoshiro authors prescribe: run the seed
        // through splitmix64 and take consecutive outputs as state.
        let mut sm = SplitMix64::new(state);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        // Splitmix64 is a bijection on consecutive outputs, so an
        // all-zero expansion is practically impossible, but the
        // invariant is cheap to keep unconditional.
        if s.iter().all(|&w| w == 0) {
            return Xoshiro256StarStar {
                s: [0x9E3779B97F4A7C15, 0, 0, 0],
            };
        }
        Xoshiro256StarStar { s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_state_update_matches_reference_algorithm() {
        // Hand-computed from the reference update for state [1,2,3,4].
        let mut rng = Xoshiro256StarStar::from_state([1, 2, 3, 4]);
        assert_eq!(rng.next_u64(), 11520);
        assert_eq!(rng.next_u64(), 0);
        assert_eq!(rng.next_u64(), 1509978240);
    }

    #[test]
    #[should_panic(expected = "all zero")]
    fn all_zero_state_rejected() {
        let _ = Xoshiro256StarStar::from_state([0; 4]);
    }

    #[test]
    fn jump_produces_a_disjoint_looking_stream() {
        let mut a = Xoshiro256StarStar::seed_from_u64(1);
        let mut b = a.clone();
        b.jump();
        assert_ne!(a, b);
        let sa: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert!(sa.iter().all(|v| !sb.contains(v)));
    }
}
