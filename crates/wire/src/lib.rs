//! Shared wire-format framing: length-prefixed, checksummed frames.
//!
//! Two subsystems move data over unreliable channels and must *detect*
//! rather than silently absorb corruption: the chip-level BIST
//! transport serializes march signatures as `u64` word streams
//! (`bisram-diag`), and the compile-service daemon frames requests and
//! artifact sections as byte payloads over a local socket
//! (`bisram-serve`). Both use the same idiom — a magic tag, an explicit
//! length, and a trailing FNV-1a checksum — so the implementation lives
//! here once, with the two carriers as thin layers on top:
//!
//! * **word frames** ([`header_word`], [`seal_words`], [`check_words`]):
//!   the header packs a 32-bit magic above a 32-bit count, the trailer
//!   is [`fnv1a64_words`] over everything before it. This is the exact
//!   layout `bisram-diag` has always put on the scan link — hoisting it
//!   here changed no bytes.
//! * **byte frames** ([`write_frame`], [`read_frame`]): `magic · length
//!   · payload · checksum`, all little-endian, for stream sockets. The
//!   reader validates the length *before* allocating, so a corrupted or
//!   hostile length prefix yields [`FrameError::Oversized`] instead of
//!   an attempted multi-gigabyte allocation.
//!
//! Every failure mode is a typed [`FrameError`] / [`WordFrameError`] —
//! never a panic: a decoder that panics on a mangled frame turns a
//! flaky link into a crashed service.

use std::io::{Read, Write};

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a over a byte slice.
pub fn fnv1a64_bytes(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over a word slice, hashing each word's little-endian bytes —
/// byte-compatible with hashing the equivalent `&[u8]` stream.
pub fn fnv1a64_words(words: &[u64]) -> u64 {
    let mut h = FNV_OFFSET;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

// ---------------------------------------------------------------------
// Word frames (the BIST scan-link layout).
// ---------------------------------------------------------------------

/// Typed validation error for word frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WordFrameError {
    /// Fewer words than a header plus a trailer.
    TooShort,
    /// The header word does not carry the expected magic tag.
    BadMagic,
    /// The trailing checksum does not match the preceding words.
    BadChecksum,
}

impl std::fmt::Display for WordFrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WordFrameError::TooShort => write!(f, "word frame shorter than header + trailer"),
            WordFrameError::BadMagic => write!(f, "word frame missing magic tag"),
            WordFrameError::BadChecksum => write!(f, "word frame checksum mismatch"),
        }
    }
}

impl std::error::Error for WordFrameError {}

/// Packs a 32-bit magic tag above a 32-bit count — the first word of
/// every word frame.
pub const fn header_word(magic: u32, count: u32) -> u64 {
    ((magic as u64) << 32) | count as u64
}

/// Splits a header word into `(magic, count)`.
pub const fn split_header(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, (word & 0xFFFF_FFFF) as u32)
}

/// Appends the FNV-1a trailer over everything currently in `words`.
pub fn seal_words(words: &mut Vec<u64>) {
    words.push(fnv1a64_words(words));
}

/// Validates a sealed word frame: minimum length, the magic in the
/// header word, and the checksum trailer (checked before anything else
/// is interpreted — a corrupted body must not be read at all). Returns
/// the body (everything before the trailer, including the header).
///
/// # Errors
///
/// The first [`WordFrameError`] encountered, in the order above.
pub fn check_words(frames: &[u64], magic: u32) -> Result<&[u64], WordFrameError> {
    if frames.len() < 2 {
        return Err(WordFrameError::TooShort);
    }
    if split_header(frames[0]).0 != magic {
        return Err(WordFrameError::BadMagic);
    }
    let body = &frames[..frames.len() - 1];
    if fnv1a64_words(body) != frames[frames.len() - 1] {
        return Err(WordFrameError::BadChecksum);
    }
    Ok(body)
}

// ---------------------------------------------------------------------
// Byte frames (the socket protocol layout).
// ---------------------------------------------------------------------

/// Magic tag opening every byte frame on a service socket.
pub const FRAME_MAGIC: u32 = 0xB15E_F4A3;

/// Default ceiling on a frame payload (16 MiB) — far above any job spec
/// or artifact section, far below anything that could exhaust a host.
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// Bytes of framing around a payload: magic (4) + length (4) +
/// checksum (8).
pub const FRAME_OVERHEAD: usize = 16;

/// Typed failure of a byte-frame read.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// The stream ended mid-frame (after at least one byte of it).
    Truncated,
    /// The first four bytes are not [`FRAME_MAGIC`].
    BadMagic,
    /// The length prefix exceeds the reader's ceiling; nothing was
    /// allocated. `len` is what the prefix claimed, `max` the ceiling.
    Oversized {
        /// Payload length the prefix claimed.
        len: u32,
        /// The reader's configured ceiling.
        max: u32,
    },
    /// The payload checksum does not match.
    BadChecksum,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::BadMagic => write!(f, "frame missing magic tag"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame length prefix {len} exceeds ceiling {max}")
            }
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl FrameError {
    /// Whether a client may reasonably retry after this error: transport
    /// hiccups (I/O, truncation) are retryable; structural corruption
    /// (magic, length, checksum) means the peer is speaking a different
    /// protocol or the channel mangles data, and retrying the same bytes
    /// cannot help.
    pub fn retryable(&self) -> bool {
        matches!(self, FrameError::Io(_) | FrameError::Truncated)
    }
}

/// Writes one frame: magic, length, payload, FNV-1a checksum of the
/// payload — all lengths and the checksum little-endian.
///
/// # Errors
///
/// Propagates the writer's I/O error.
///
/// # Panics
///
/// Panics if `payload` exceeds `u32::MAX` bytes (callers cap payloads
/// far below [`MAX_FRAME_BYTES`]).
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).expect("frame payload exceeds u32::MAX bytes");
    w.write_all(&FRAME_MAGIC.to_le_bytes())?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.write_all(&fnv1a64_bytes(payload).to_le_bytes())?;
    w.flush()
}

/// Reads one frame, returning `Ok(None)` on a clean end-of-stream (no
/// bytes before EOF — how a client signals it is done).
///
/// The length prefix is validated against `max` *before* any payload
/// allocation, so a corrupt or hostile prefix cannot trigger a huge
/// allocation; EOF after the first byte of a frame is [`FrameError::Truncated`].
///
/// # Errors
///
/// A typed [`FrameError`]; the stream should be considered dead for
/// non-retryable variants.
pub fn read_frame<R: Read>(r: &mut R, max: u32) -> Result<Option<Vec<u8>>, FrameError> {
    let mut magic = [0u8; 4];
    match read_exact_or_eof(r, &mut magic)? {
        ReadOutcome::CleanEof => return Ok(None),
        ReadOutcome::Filled => {}
        ReadOutcome::Partial => return Err(FrameError::Truncated),
    }
    if u32::from_le_bytes(magic) != FRAME_MAGIC {
        return Err(FrameError::BadMagic);
    }
    let mut len_bytes = [0u8; 4];
    read_all(r, &mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes);
    if len > max {
        return Err(FrameError::Oversized { len, max });
    }
    let mut payload = vec![0u8; len as usize];
    read_all(r, &mut payload)?;
    let mut sum = [0u8; 8];
    read_all(r, &mut sum)?;
    if u64::from_le_bytes(sum) != fnv1a64_bytes(&payload) {
        return Err(FrameError::BadChecksum);
    }
    Ok(Some(payload))
}

enum ReadOutcome {
    Filled,
    CleanEof,
    Partial,
}

/// Fills `buf`, distinguishing a clean EOF before the first byte from a
/// truncation after it.
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<ReadOutcome, FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    ReadOutcome::CleanEof
                } else {
                    ReadOutcome::Partial
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(ReadOutcome::Filled)
}

/// Fills `buf` mid-frame: EOF here is always a truncation.
fn read_all<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), FrameError> {
    match read_exact_or_eof(r, buf)? {
        ReadOutcome::Filled => Ok(()),
        ReadOutcome::CleanEof | ReadOutcome::Partial => Err(FrameError::Truncated),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_is_the_reference_function() {
        // Reference vectors for 64-bit FNV-1a.
        assert_eq!(fnv1a64_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64_bytes(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn word_and_byte_hashes_agree_on_the_same_stream() {
        let words = [0x0123_4567_89AB_CDEFu64, 42, u64::MAX];
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(fnv1a64_words(&words), fnv1a64_bytes(&bytes));
    }

    #[test]
    fn header_word_round_trips() {
        let w = header_word(0xB15D_516E, 1234);
        assert_eq!(split_header(w), (0xB15D_516E, 1234));
        assert_eq!(header_word(0, 0), 0);
    }

    #[test]
    fn sealed_words_validate_and_flipped_bits_do_not() {
        let mut frame = vec![header_word(0xABCD, 2), 7, 8];
        seal_words(&mut frame);
        let body = check_words(&frame, 0xABCD).unwrap();
        assert_eq!(body, &frame[..3]);
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 1 << 40;
            let err = check_words(&bad, 0xABCD).unwrap_err();
            assert!(
                matches!(err, WordFrameError::BadChecksum | WordFrameError::BadMagic),
                "word {i}: {err:?}"
            );
        }
        assert_eq!(
            check_words(&frame[..1], 0xABCD).unwrap_err(),
            WordFrameError::TooShort
        );
        assert_eq!(
            check_words(&frame, 0xDCBA).unwrap_err(),
            WordFrameError::BadMagic
        );
    }

    #[test]
    fn byte_frame_round_trips() {
        let payload = b"job = compile\nwords = 256\n";
        let mut buf = Vec::new();
        write_frame(&mut buf, payload).unwrap();
        assert_eq!(buf.len(), payload.len() + FRAME_OVERHEAD);
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_BYTES).unwrap().as_deref(),
            Some(&payload[..])
        );
        // The stream is exactly consumed; the next read is a clean EOF.
        assert!(read_frame(&mut r, MAX_FRAME_BYTES).unwrap().is_none());
    }

    #[test]
    fn empty_payload_round_trips() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r, 16).unwrap().as_deref(), Some(&b""[..]));
    }

    #[test]
    fn truncation_at_every_byte_is_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        for cut in 1..buf.len() {
            let mut r = &buf[..cut];
            let err = read_frame(&mut r, MAX_FRAME_BYTES).unwrap_err();
            assert!(
                matches!(err, FrameError::Truncated),
                "cut at {cut}: {err:?}"
            );
            assert!(err.retryable());
        }
    }

    #[test]
    fn corrupted_checksum_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x10;
        let err = read_frame(&mut &buf[..], MAX_FRAME_BYTES).unwrap_err();
        assert!(matches!(err, FrameError::BadChecksum));
        assert!(!err.retryable());
    }

    #[test]
    fn corrupted_payload_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        buf[9] ^= 0x01;
        let err = read_frame(&mut &buf[..], MAX_FRAME_BYTES).unwrap_err();
        assert!(matches!(err, FrameError::BadChecksum));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"x").unwrap();
        buf[0] ^= 0xFF;
        let err = read_frame(&mut &buf[..], MAX_FRAME_BYTES).unwrap_err();
        assert!(matches!(err, FrameError::BadMagic));
        assert!(!err.retryable());
    }

    #[test]
    fn oversized_length_prefix_allocates_nothing() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        // No payload follows; the reader must reject on the prefix alone
        // rather than trying to read (or allocate) 4 GiB.
        let err = read_frame(&mut &buf[..], 1024).unwrap_err();
        match err {
            FrameError::Oversized { len, max } => {
                assert_eq!(len, u32::MAX);
                assert_eq!(max, 1024);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn payload_at_the_ceiling_is_accepted() {
        let payload = vec![0xA5u8; 64];
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        assert_eq!(
            read_frame(&mut &buf[..], 64).unwrap().as_deref(),
            Some(&payload[..])
        );
    }

    #[test]
    fn back_to_back_frames_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first").unwrap();
        write_frame(&mut buf, b"second").unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r, 1024).unwrap().as_deref(),
            Some(&b"first"[..])
        );
        assert_eq!(
            read_frame(&mut r, 1024).unwrap().as_deref(),
            Some(&b"second"[..])
        );
        assert!(read_frame(&mut r, 1024).unwrap().is_none());
    }
}
