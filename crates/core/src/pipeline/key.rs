//! Deterministic content keys for pipeline artifacts.
//!
//! Every stage (and every individually cached cell inside a stage) is
//! identified by a [`ContentKey`]: a 64-bit digest of the *subset* of
//! `(RamParams, Process)` the stage actually reads. Two compiles whose
//! inputs agree on that subset map to the same key and may share the
//! cached artifact; anything the stage reads must therefore be folded
//! into its key — the determinism suite (`tests/determinism.rs`) pins
//! this byte-for-byte.
//!
//! The hasher is a vendored FxHash-style multiply-rotate hash (the
//! rustc-hash algorithm), kept in-tree because the workspace is
//! hermetic by policy: zero external dependencies. It is *not* DoS
//! resistant and does not need to be — keys are derived from trusted
//! in-process structs, never from attacker-controlled input.

use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Multiplier from the FxHash algorithm (a 64-bit cousin of the
/// Fowler–Noll–Vo primes, chosen by the Firefox team for instruction
/// throughput rather than avalanche quality).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash-style streaming hasher.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word) ^ rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` plugging [`FxHasher`] into `HashMap`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A 64-bit content digest identifying one cached artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentKey(pub u64);

impl std::fmt::Display for ContentKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Digests any hashable key struct into a [`ContentKey`].
pub fn content_key<T: Hash + ?Sized>(value: &T) -> ContentKey {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    ContentKey(h.finish())
}

/// Folds a [`Process`](bisram_tech::Process) into a stable 64-bit
/// fingerprint. `Process` intentionally does not implement `Hash` (it
/// carries `f64` device parameters), so the fingerprint hashes the
/// fields a leaf generator can observe: name, feature size, metal
/// count, the rule lambda, and the raw bit patterns of every device
/// parameter. Custom processes with identical electrical and geometric
/// content deliberately collide — their generated cells are identical.
pub fn process_fingerprint(process: &bisram_tech::Process) -> u64 {
    let mut h = FxHasher::default();
    process.name().hash(&mut h);
    process.feature_nm().hash(&mut h);
    process.metal_layers().hash(&mut h);
    process.rules().lambda().hash(&mut h);
    for bits in process.devices().field_bits() {
        h.write_u64(bits);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisram_tech::Process;

    #[test]
    fn keys_are_deterministic_across_hasher_instances() {
        let a = content_key(&("macro:array", 42u64, 7usize));
        let b = content_key(&("macro:array", 42u64, 7usize));
        assert_eq!(a, b);
        assert_eq!(a.to_string().len(), 16);
    }

    #[test]
    fn keys_separate_different_inputs() {
        assert_ne!(content_key(&1u64), content_key(&2u64));
        assert_ne!(content_key(&"a"), content_key(&"b"));
        assert_ne!(content_key(&("k", 1u64)), content_key(&("k", 2u64)));
    }

    #[test]
    fn byte_stream_tail_is_length_disambiguated() {
        // "ab" vs "ab\0" style collisions of a naive zero-padded tail.
        let mut h1 = FxHasher::default();
        h1.write(&[1, 2, 3]);
        let mut h2 = FxHasher::default();
        h2.write(&[1, 2, 3, 0]);
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn process_fingerprints_distinguish_the_builtins() {
        let fps: Vec<u64> = Process::builtin().iter().map(process_fingerprint).collect();
        assert_eq!(fps.len(), 3);
        assert!(fps[0] != fps[1] && fps[1] != fps[2] && fps[0] != fps[2]);
        // Stable across calls.
        assert_eq!(process_fingerprint(&Process::cda07()), fps[2]);
    }
}
