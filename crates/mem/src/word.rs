//! Fixed-capacity bit words up to 256 bits wide.

/// A memory word of up to 256 bits (the widest configuration the paper
/// evaluates, Fig. 7, uses `bpw = 256`).
///
/// ```
/// use bisram_mem::Word;
/// let w = Word::from_u64(0b1011, 4);
/// assert_eq!(w.get(0), true);
/// assert_eq!(w.get(2), false);
/// assert_eq!(w.ones(), 3);
/// assert_eq!((!w.clone()).to_u64(), 0b0100);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Word {
    bits: [u64; 4],
    len: u16,
}

impl Word {
    /// Maximum supported width in bits.
    pub const MAX_BITS: usize = 256;

    /// All-zero word of width `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or exceeds [`Word::MAX_BITS`].
    pub fn zeros(len: usize) -> Self {
        assert!(len > 0 && len <= Self::MAX_BITS, "word width out of range");
        Word {
            bits: [0; 4],
            len: len as u16,
        }
    }

    /// All-one word of width `len`.
    pub fn ones_word(len: usize) -> Self {
        !Word::zeros(len)
    }

    /// Builds a word from the low `len` bits of `value` (bit 0 is the
    /// least significant bit).
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or greater than 64.
    pub fn from_u64(value: u64, len: usize) -> Self {
        assert!(len > 0 && len <= 64, "from_u64 supports 1..=64 bits");
        let mut w = Word::zeros(len);
        w.bits[0] = if len == 64 {
            value
        } else {
            value & ((1u64 << len) - 1)
        };
        w
    }

    /// Builds a word from a bit iterator, LSB first.
    pub fn from_bits<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let bits: Vec<bool> = iter.into_iter().collect();
        let mut w = Word::zeros(bits.len());
        for (i, b) in bits.iter().enumerate() {
            w.set(i, *b);
        }
        w
    }

    /// Width in bits.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the word is zero bits wide — never happens for words
    /// constructed through the public API, provided for completeness.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i` (LSB is bit 0).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len(), "bit index out of range");
        (self.bits[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len(), "bit index out of range");
        let mask = 1u64 << (i % 64);
        if value {
            self.bits[i / 64] |= mask;
        } else {
            self.bits[i / 64] &= !mask;
        }
    }

    /// Number of set bits.
    pub fn ones(&self) -> usize {
        self.bits.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// The low 64 bits as an integer.
    ///
    /// # Panics
    ///
    /// Panics if the word is wider than 64 bits (truncation would be a
    /// silent bug in callers).
    pub fn to_u64(&self) -> u64 {
        assert!(self.len <= 64, "word wider than 64 bits");
        self.bits[0]
    }

    /// Iterates over bits, LSB first.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// The checkerboard-family background pattern with stripes of `run`
    /// equal bits, starting with `start` at bit 0:
    /// `run = 1` gives `0101...`, `run = 2` gives `0011...`, etc.
    ///
    /// These are exactly the data backgrounds the paper's DATAGEN Johnson
    /// counter produces for a `bpw`-bit word.
    pub fn background(len: usize, run: usize, start: bool) -> Self {
        assert!(run >= 1, "stripe run length must be at least 1");
        let mut w = Word::zeros(len);
        for i in 0..len {
            let bit = (i / run).is_multiple_of(2) == start;
            w.set(i, bit);
        }
        w
    }
}

impl std::ops::Not for Word {
    type Output = Word;
    fn not(self) -> Word {
        let mut out = self;
        for b in &mut out.bits {
            *b = !*b;
        }
        // Clear bits above len.
        let len = out.len as usize;
        for i in len..Word::MAX_BITS {
            out.bits[i / 64] &= !(1u64 << (i % 64));
        }
        out
    }
}

impl std::ops::BitXor for &Word {
    type Output = Word;
    fn bitxor(self, rhs: &Word) -> Word {
        assert_eq!(self.len, rhs.len, "word width mismatch");
        let mut out = self.clone();
        for (a, b) in out.bits.iter_mut().zip(rhs.bits.iter()) {
            *a ^= b;
        }
        out
    }
}

impl std::fmt::Display for Word {
    /// MSB-first binary rendering.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for i in (0..self.len()).rev() {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisram_rng::rngs::StdRng;
    use bisram_rng::{Rng, SeedableRng};

    #[test]
    fn construction_and_access() {
        let mut w = Word::zeros(10);
        assert_eq!(w.len(), 10);
        assert_eq!(w.ones(), 0);
        w.set(9, true);
        w.set(0, true);
        assert!(w.get(9) && w.get(0) && !w.get(5));
        assert_eq!(w.ones(), 2);
        assert_eq!(w.to_u64(), 0b10_0000_0001);
    }

    #[test]
    fn wide_words_span_limbs() {
        let mut w = Word::zeros(200);
        w.set(63, true);
        w.set(64, true);
        w.set(199, true);
        assert_eq!(w.ones(), 3);
        assert!(w.get(64));
        let inv = !w.clone();
        assert_eq!(inv.ones(), 197);
        assert!(!inv.get(63));
    }

    #[test]
    fn not_clears_padding() {
        let w = !Word::zeros(5);
        assert_eq!(w.ones(), 5);
        assert_eq!(w.to_u64(), 0b11111);
    }

    #[test]
    fn xor_detects_differences() {
        let a = Word::from_u64(0b1100, 4);
        let b = Word::from_u64(0b1010, 4);
        assert_eq!((&a ^ &b).to_u64(), 0b0110);
        assert_eq!((&a ^ &a).ones(), 0);
    }

    #[test]
    fn backgrounds_match_paper_patterns() {
        // all-0: run=len start=false conceptually; run=1 alternating:
        assert_eq!(Word::background(8, 1, false).to_u64(), 0b1010_1010);
        assert_eq!(Word::background(8, 1, true).to_u64(), 0b0101_0101);
        assert_eq!(Word::background(8, 2, false).to_u64(), 0b1100_1100);
        assert_eq!(Word::background(8, 4, true).to_u64(), 0b0000_1111);
        assert_eq!(Word::background(8, 8, true).to_u64(), 0b1111_1111);
    }

    #[test]
    fn display_is_msb_first() {
        assert_eq!(Word::from_u64(0b1011, 4).to_string(), "1011");
    }

    #[test]
    #[should_panic(expected = "width out of range")]
    fn oversize_word_rejected() {
        Word::zeros(257);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_bit_panics() {
        Word::zeros(4).get(4);
    }

    #[test]
    fn from_bits_roundtrip() {
        let bits = vec![true, false, false, true, true];
        let w = Word::from_bits(bits.clone());
        assert_eq!(w.iter().collect::<Vec<_>>(), bits);
    }

    // Deterministic seeded sweeps over full-range values and every
    // length 1..=64 (the old strategies sampled the same space).

    #[test]
    fn from_u64_roundtrips() {
        let mut rng = StdRng::seed_from_u64(0x30D_0001);
        for case in 0..512 {
            let v: u64 = rng.gen();
            let len = rng.gen_range(1usize..=64);
            let masked = if len == 64 {
                v
            } else {
                v & ((1u64 << len) - 1)
            };
            assert_eq!(
                Word::from_u64(v, len).to_u64(),
                masked,
                "case {case}: v={v:#x} len={len}"
            );
        }
    }

    #[test]
    fn double_negation_is_identity() {
        let mut rng = StdRng::seed_from_u64(0x30D_0002);
        for case in 0..512 {
            let v: u64 = rng.gen();
            let len = rng.gen_range(1usize..=64);
            let w = Word::from_u64(v, len);
            assert_eq!(!(!w.clone()), w, "case {case}: v={v:#x} len={len}");
        }
    }

    #[test]
    fn ones_plus_zeros_is_len() {
        let mut rng = StdRng::seed_from_u64(0x30D_0003);
        for case in 0..512 {
            let v: u64 = rng.gen();
            let len = rng.gen_range(1usize..=64);
            let w = Word::from_u64(v, len);
            assert_eq!(
                w.ones() + (!w.clone()).ones(),
                len,
                "case {case}: v={v:#x} len={len}"
            );
        }
    }
}
