//! DATAGEN: the test data background generator and comparator.
//!
//! Paper §V: "the test data generator DATAGEN is a Johnson counter that
//! can generate data backgrounds for a bpw-bit RAM word ... all-0,
//! 0101…, 0011…, …, all-1. The generation of ~bpw/2 background patterns
//! requires less hardware than that of log-many patterns, and is thereby
//! preferable, even though it causes a greater test application time."
//! DATAGEN also compares read data with expected values using
//! exclusive-OR gates and a wide OR gate.
//!
//! The background *schedule* here is the stripe family — all-zeros, then
//! stripes of run length 1, 2, …, bpw/2, then all-ones — which is the set
//! the paper lists and which provably distinguishes every pair of bit
//! positions in the word (see `backgrounds_distinguish_all_pairs` in the
//! tests; this is the property the thesis (paper ref. \[2\]) proves for the Johnson
//! construction).

use bisram_mem::Word;

/// A twisted-ring (Johnson) counter of `stages` flip-flops, the hardware
/// core of DATAGEN.
///
/// An `m`-stage Johnson counter cycles through `2m` states: the all-zero
/// state, the rising thermometer codes, the all-one state and the falling
/// thermometer codes.
///
/// ```
/// use bisram_bist::datagen::JohnsonCounter;
/// let mut j = JohnsonCounter::new(3);
/// let states: Vec<u64> = (0..6).map(|_| { let s = j.state(); j.step(); s }).collect();
/// assert_eq!(states, vec![0b000, 0b001, 0b011, 0b111, 0b110, 0b100]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JohnsonCounter {
    bits: Vec<bool>,
}

impl JohnsonCounter {
    /// Creates a cleared counter of `stages` flip-flops.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is zero or above 64.
    pub fn new(stages: usize) -> Self {
        assert!((1..=64).contains(&stages), "stage count out of range");
        JohnsonCounter {
            bits: vec![false; stages],
        }
    }

    /// Number of flip-flops.
    pub fn stages(&self) -> usize {
        self.bits.len()
    }

    /// Cycle length (`2 · stages`).
    pub fn period(&self) -> usize {
        2 * self.bits.len()
    }

    /// Current state as an integer (stage 0 is bit 0).
    pub fn state(&self) -> u64 {
        self.bits
            .iter()
            .enumerate()
            .fold(0, |acc, (i, b)| acc | ((*b as u64) << i))
    }

    /// Advances one clock: shift toward the MSB, feeding back the
    /// complement of the last stage.
    pub fn step(&mut self) {
        // `new` rejects zero stages, so the register is never empty.
        let feedback = !self.bits[self.bits.len() - 1];
        for i in (1..self.bits.len()).rev() {
            self.bits[i] = self.bits[i - 1];
        }
        self.bits[0] = feedback;
    }

    /// Resets to all-zero.
    pub fn reset(&mut self) {
        self.bits.fill(false);
    }
}

/// The data-background schedule for a `bpw`-bit word: all-zeros, stripe
/// patterns with run lengths `1, 2, …, bpw/2`, and all-ones. For
/// single-bit words only the two trivial backgrounds exist.
///
/// The count is `bpw/2 + 2` backgrounds (the paper quotes `bpw/2 + 1`;
/// our set carries the all-ones background explicitly, one extra apply,
/// so that the pairwise-distinction property below holds for every word
/// width under the stripe construction — see DESIGN.md).
///
/// ```
/// use bisram_bist::datagen::backgrounds;
/// let bgs = backgrounds(8);
/// assert_eq!(bgs.len(), 6);
/// assert_eq!(bgs[0].to_u64(), 0x00);
/// assert_eq!(bgs[1].to_u64(), 0b1010_1010);
/// assert_eq!(bgs.last().unwrap().to_u64(), 0xFF);
/// ```
pub fn backgrounds(bpw: usize) -> Vec<Word> {
    assert!(
        (1..=Word::MAX_BITS).contains(&bpw),
        "word width out of range"
    );
    let mut out = vec![Word::zeros(bpw)];
    for run in 1..=(bpw / 2) {
        out.push(Word::background(bpw, run, false));
    }
    out.push(Word::ones_word(bpw));
    out
}

/// The single background a scheme without a Johnson counter applies
/// (Chen–Sunada's data generator applies "a single data pattern or its
/// complement", paper §III item 4).
pub fn single_background(bpw: usize) -> Vec<Word> {
    vec![Word::zeros(bpw)]
}

/// The DATAGEN comparator: XOR gates per bit plus a wide OR — returns
/// true when `read` mismatches `expected` in any bit position.
pub fn mismatch(read: &Word, expected: &Word) -> bool {
    (read ^ expected).ones() > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn johnson_counter_cycle_structure() {
        for stages in 1..=8 {
            let mut j = JohnsonCounter::new(stages);
            let start = j.state();
            let mut seen = std::collections::HashSet::new();
            for _ in 0..j.period() {
                assert!(seen.insert(j.state()), "state repeated early");
                j.step();
            }
            assert_eq!(j.state(), start, "period must close the cycle");
            assert_eq!(seen.len(), 2 * stages);
        }
    }

    #[test]
    fn johnson_states_are_thermometer_codes() {
        let mut j = JohnsonCounter::new(4);
        for _ in 0..j.period() {
            let s = j.state();
            // A Johnson state is a cyclic run of ones: s and its
            // complement within 4 bits are both "contiguous" patterns.
            let bits: Vec<bool> = (0..4).map(|i| (s >> i) & 1 == 1).collect();
            let transitions = (0..4).filter(|&i| bits[i] != bits[(i + 1) % 4]).count();
            assert!(transitions <= 2, "state {s:04b} is not a ring run");
            j.step();
        }
    }

    #[test]
    fn reset_returns_to_zero() {
        let mut j = JohnsonCounter::new(5);
        j.step();
        j.step();
        assert_ne!(j.state(), 0);
        j.reset();
        assert_eq!(j.state(), 0);
    }

    #[test]
    fn background_schedule_matches_paper_list() {
        let bgs = backgrounds(8);
        let expect: Vec<u64> = vec![
            0b0000_0000, // all-0
            0b1010_1010, // 0101... (LSB first: bit0=0)
            0b1100_1100, // 0011...
            0b0011_1000, // run-3 stripes
            0b1111_0000, // 00001111
            0b1111_1111, // all-1
        ];
        assert_eq!(bgs.len(), 6);
        for (i, e) in expect.iter().enumerate() {
            assert_eq!(bgs[i].to_u64(), *e, "background {i}");
        }
    }

    #[test]
    fn background_count_is_half_word_plus_two() {
        for bpw in [2usize, 4, 8, 16, 32, 64, 128, 256] {
            assert_eq!(backgrounds(bpw).len(), bpw / 2 + 2, "bpw={bpw}");
        }
        // Degenerate single-bit word: all-0 and all-1 only.
        assert_eq!(backgrounds(1).len(), 2);
    }

    #[test]
    fn backgrounds_distinguish_all_pairs() {
        // The key property (thesis [2]): for every pair of distinct bit
        // positions there is a background in which they differ — this is
        // what lets the march, which writes each background and its
        // complement, expose intra-word coupling faults.
        for bpw in [2usize, 4, 8, 16, 32, 64] {
            let bgs = backgrounds(bpw);
            for i in 0..bpw {
                for j in (i + 1)..bpw {
                    let distinguished = bgs.iter().any(|b| b.get(i) != b.get(j));
                    assert!(distinguished, "bpw={bpw}: pair ({i},{j}) never differs");
                }
            }
        }
    }

    #[test]
    fn single_background_does_not_distinguish_pairs() {
        // The Chen–Sunada comparison point: one background (plus its
        // complement) never separates any bit pair.
        let bgs = single_background(8);
        for b in &bgs {
            for i in 0..8 {
                for j in 0..8 {
                    assert_eq!(b.get(i), b.get(j));
                }
            }
        }
    }

    #[test]
    fn comparator_detects_any_bit_flip() {
        let a = Word::from_u64(0b1010, 4);
        assert!(!mismatch(&a, &a));
        for bit in 0..4 {
            let mut b = a.clone();
            b.set(bit, !b.get(bit));
            assert!(mismatch(&a, &b));
        }
    }
}
