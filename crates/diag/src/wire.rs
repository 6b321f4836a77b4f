//! Serialized march-signature frames for the shared BIST transport.
//!
//! A chip-level BIST controller serializes each macro's failure
//! signature over a shared scan link as a stream of `u64` words. The
//! format is self-checking: a magic/count header, a geometry word, one
//! meta word plus a fail-bitmap per record, and a trailing FNV-1a
//! checksum. Dropped, duplicated or corrupted words are *detected* at
//! the receiver — a diagnosis computed from a mangled signature would
//! repair the wrong rows, which is worse than no repair at all.
//!
//! The framing primitives (the magic/count header word, the checksum
//! trailer) are the shared [`bisram_wire`] implementation — the same
//! one the compile-service socket protocol uses — so the two wire
//! formats cannot drift apart. This module keeps only what is specific
//! to march signatures: the geometry word, the record layout, and the
//! receiver-side geometry cross-check.

use bisram_bist::engine::{FailRecord, MarchSignature};
use bisram_mem::{ArrayOrg, Word};
use bisram_wire::{fnv1a64_words, header_word, seal_words, split_header};

/// Tag in the high 32 bits of the first frame word.
const MAGIC: u32 = 0xB15D_516E;

/// Typed receiver-side validation error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Fewer words than the fixed header + trailer.
    TooShort,
    /// The first word does not carry the signature magic.
    BadMagic,
    /// The word count does not match the record count in the header.
    LengthMismatch {
        /// Words implied by the header.
        expected: usize,
        /// Words actually received.
        got: usize,
    },
    /// The geometry word disagrees with the receiver's array organization.
    GeometryMismatch,
    /// The trailing checksum does not match the received words.
    BadChecksum,
    /// A record's address exceeds the array's word count.
    AddrOutOfRange {
        /// Index of the offending record.
        record: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::TooShort => write!(f, "signature frame truncated below header size"),
            WireError::BadMagic => write!(f, "signature frame missing magic tag"),
            WireError::LengthMismatch { expected, got } => {
                write!(f, "signature frame length {got}, header implies {expected}")
            }
            WireError::GeometryMismatch => {
                write!(f, "signature geometry disagrees with receiver organization")
            }
            WireError::BadChecksum => write!(f, "signature frame checksum mismatch"),
            WireError::AddrOutOfRange { record } => {
                write!(f, "record {record} addresses a word beyond the array")
            }
        }
    }
}

impl std::error::Error for WireError {}

fn limbs(bpw: usize) -> usize {
    bpw.div_ceil(64)
}

/// Encodes a signature into transport frames.
///
/// # Panics
///
/// Panics if a record's coordinates exceed the frame field widths
/// (address ≥ 2³², element ≥ 2⁸, op ≥ 2⁸, background ≥ 2¹⁶) — all far
/// beyond any real march over any valid organization.
pub fn encode_signature(sig: &MarchSignature) -> Vec<u64> {
    let mut out = Vec::with_capacity(2 + sig.records.len() * (1 + limbs(sig.bpw)) + 1);
    assert!(
        sig.records.len() < (1 << 32),
        "record count overflows frame field"
    );
    out.push(header_word(MAGIC, sig.records.len() as u32));
    assert!(
        sig.words < (1 << 32) && sig.bpw < (1 << 16),
        "geometry overflows frame fields"
    );
    assert!(
        sig.backgrounds_run < (1 << 16),
        "background count overflows frame field"
    );
    out.push(((sig.words as u64) << 32) | ((sig.bpw as u64) << 16) | sig.backgrounds_run as u64);
    for r in &sig.records {
        assert!(
            r.addr < (1 << 32)
                && r.element < (1 << 8)
                && r.op < (1 << 8)
                && r.background < (1 << 16),
            "record coordinates overflow frame fields"
        );
        out.push(
            ((r.addr as u64) << 32)
                | ((r.element as u64) << 24)
                | ((r.op as u64) << 16)
                | r.background as u64,
        );
        for limb in 0..limbs(sig.bpw) {
            let mut w: u64 = 0;
            for b in 0..64 {
                let bit = limb * 64 + b;
                if bit < sig.bpw && r.fail_bits.get(bit) {
                    w |= 1 << b;
                }
            }
            out.push(w);
        }
    }
    seal_words(&mut out);
    out
}

/// Validates and decodes transport frames back into a signature.
///
/// `org` is the receiver's knowledge of the macro's organization and
/// `test` the name of the march the controller requested — neither
/// travels on the link in full, so the receiver re-derives row/column
/// splits locally and cross-checks the geometry word.
///
/// # Errors
///
/// Returns a [`WireError`] describing the first integrity violation.
pub fn decode_signature(
    frames: &[u64],
    org: &ArrayOrg,
    test: &str,
) -> Result<MarchSignature, WireError> {
    if frames.len() < 3 {
        return Err(WireError::TooShort);
    }
    let (magic, count) = split_header(frames[0]);
    if magic != MAGIC {
        return Err(WireError::BadMagic);
    }
    let count = count as usize;
    let bpw_limbs = limbs(org.bpw());
    let expected = 2 + count * (1 + bpw_limbs) + 1;
    if frames.len() != expected {
        return Err(WireError::LengthMismatch {
            expected,
            got: frames.len(),
        });
    }
    // Checksum first: a corrupted geometry word must not read as a
    // geometry mismatch.
    let body = &frames[..frames.len() - 1];
    if fnv1a64_words(body) != frames[frames.len() - 1] {
        return Err(WireError::BadChecksum);
    }
    let geo = frames[1];
    let words = (geo >> 32) as usize;
    let bpw = ((geo >> 16) & 0xFFFF) as usize;
    let backgrounds_run = (geo & 0xFFFF) as usize;
    if words != org.words() || bpw != org.bpw() {
        return Err(WireError::GeometryMismatch);
    }
    let mut records = Vec::with_capacity(count);
    let mut i = 2;
    for record in 0..count {
        let meta = frames[i];
        i += 1;
        let addr = (meta >> 32) as usize;
        if addr >= org.words() {
            return Err(WireError::AddrOutOfRange { record });
        }
        let element = ((meta >> 24) & 0xFF) as usize;
        let op = ((meta >> 16) & 0xFF) as usize;
        let background = (meta & 0xFFFF) as usize;
        let mut fail_bits = Word::zeros(bpw);
        for limb in 0..bpw_limbs {
            let w = frames[i];
            i += 1;
            for b in 0..64 {
                let bit = limb * 64 + b;
                if bit < bpw && (w >> b) & 1 == 1 {
                    fail_bits.set(bit, true);
                }
            }
        }
        let (row, col) = org.split(addr);
        records.push(FailRecord {
            addr,
            row,
            col,
            element,
            op,
            background,
            fail_bits,
        });
    }
    Ok(MarchSignature {
        test: test.to_owned(),
        words,
        bpw,
        backgrounds_run,
        records,
    })
}

/// Receiver-side integrity check without full decoding — what the
/// transport layer uses to decide whether to retry a delivery.
pub fn frames_valid(frames: &[u64], org: &ArrayOrg) -> bool {
    if frames.len() < 3 || split_header(frames[0]).0 != MAGIC {
        return false;
    }
    let count = split_header(frames[0]).1 as usize;
    if frames.len() != 2 + count * (1 + limbs(org.bpw())) + 1 {
        return false;
    }
    fnv1a64_words(&frames[..frames.len() - 1]) == frames[frames.len() - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisram_bist::engine::{run_march_diagnose, MarchConfig};
    use bisram_bist::march;
    use bisram_mem::{Fault, FaultKind, SramModel};

    fn org() -> ArrayOrg {
        ArrayOrg::new(256, 8, 4, 4).unwrap()
    }

    fn faulty_signature() -> MarchSignature {
        let mut m = SramModel::new(org());
        m.inject(Fault::new(
            m.org().cell_at(5, 2, 3),
            FaultKind::StuckAt(true),
        ));
        m.inject(Fault::new(
            m.org().cell_at(40, 0, 7),
            FaultKind::TransitionDown,
        ));
        run_march_diagnose(&march::ifa13(), &mut m, &MarchConfig::default(), None)
    }

    #[test]
    fn roundtrip_preserves_every_record() {
        let sig = faulty_signature();
        assert!(sig.detected());
        let frames = encode_signature(&sig);
        assert!(frames_valid(&frames, &org()));
        let back = decode_signature(&frames, &org(), &sig.test).unwrap();
        assert_eq!(back, sig);
    }

    #[test]
    fn empty_signature_roundtrips() {
        let mut m = SramModel::new(org());
        let sig = run_march_diagnose(&march::ifa9(), &mut m, &MarchConfig::default(), None);
        assert!(!sig.detected());
        let frames = encode_signature(&sig);
        assert_eq!(frames.len(), 3);
        let back = decode_signature(&frames, &org(), &sig.test).unwrap();
        assert_eq!(back, sig);
    }

    #[test]
    fn corruption_is_detected_not_decoded() {
        let sig = faulty_signature();
        let frames = encode_signature(&sig);
        // Flip one bit anywhere in the body: checksum catches it.
        for i in 0..frames.len() - 1 {
            let mut bad = frames.clone();
            bad[i] ^= 1 << 17;
            let err = decode_signature(&bad, &org(), "ifa13").unwrap_err();
            assert!(
                matches!(
                    err,
                    WireError::BadChecksum | WireError::BadMagic | WireError::LengthMismatch { .. }
                ),
                "word {i}: {err:?}"
            );
            assert!(!frames_valid(&bad, &org()));
        }
        // Dropped word.
        let mut short = frames.clone();
        short.remove(3);
        assert!(decode_signature(&short, &org(), "ifa13").is_err());
        // Duplicated word.
        let mut dup = frames.clone();
        dup.insert(3, dup[3]);
        assert!(decode_signature(&dup, &org(), "ifa13").is_err());
        // Truncation below the header.
        assert_eq!(
            decode_signature(&frames[..2], &org(), "ifa13").unwrap_err(),
            WireError::TooShort
        );
    }

    #[test]
    fn geometry_mismatch_rejected() {
        let sig = faulty_signature();
        let frames = encode_signature(&sig);
        let other = ArrayOrg::new(512, 8, 4, 4).unwrap();
        assert_eq!(
            decode_signature(&frames, &other, "ifa13").unwrap_err(),
            WireError::GeometryMismatch
        );
    }

    #[test]
    fn wire_layout_is_pinned_to_the_shared_framing() {
        // Hand-assemble an empty signature's frame from the shared
        // `bisram-wire` primitives: hoisting the framing must not have
        // changed a single byte on the link.
        let mut m = SramModel::new(org());
        let sig = run_march_diagnose(&march::ifa9(), &mut m, &MarchConfig::default(), None);
        let frames = encode_signature(&sig);
        let mut expect = vec![
            header_word(0xB15D_516E, 0),
            ((sig.words as u64) << 32) | ((sig.bpw as u64) << 16) | sig.backgrounds_run as u64,
        ];
        seal_words(&mut expect);
        assert_eq!(frames, expect);
    }

    #[test]
    fn wide_words_use_multiple_limbs() {
        let wide = ArrayOrg::new(256, 128, 2, 0).unwrap();
        let mut m = SramModel::new(wide);
        m.inject(Fault::new(
            wide.cell_at(3, 1, 100),
            FaultKind::StuckAt(true),
        ));
        let sig = run_march_diagnose(&march::mats_plus(), &mut m, &MarchConfig::default(), None);
        assert!(sig.detected());
        let back = decode_signature(&encode_signature(&sig), &wide, &sig.test).unwrap();
        assert_eq!(back, sig);
        assert!(back.records.iter().all(|r| r.fail_bits.get(100)));
    }
}
