//! Shared-BIST transport fault model with bounded retry.
//!
//! A chip-level BIST controller talks to every macro over one serialized
//! scan link. The link itself can be defective: a stuck line corrupts
//! every word the same way, marginal timing drops or duplicates words,
//! and a wedged macro times out entirely. The chip must degrade
//! gracefully — retry with backoff, then *quarantine the macro* — never
//! abort the whole chip's test-and-repair session.

use bisram_rng::Rng;

/// Injectable transport fault configuration. All probabilities are per
/// draw (per response word for drop/duplicate, per session attempt for
/// timeout); `stuck_bit` is persistent by nature.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TransportFaults {
    /// A scan-link line stuck at a value: `(bit, value)` forces that bit
    /// of *every* transferred word. A checksum retry cannot fix this —
    /// it is the configuration that must end in quarantine (unless the
    /// payload happens to carry that value in that bit everywhere, in
    /// which case the defect is genuinely harmless).
    pub stuck_bit: Option<(u8, bool)>,
    /// Probability that a response word is dropped.
    pub drop_probability: f64,
    /// Probability that a response word is duplicated.
    pub duplicate_probability: f64,
    /// Probability that a session attempt times out entirely.
    pub timeout_probability: f64,
}

impl TransportFaults {
    /// A fault-free link.
    pub fn none() -> Self {
        TransportFaults::default()
    }

    /// True when no fault mechanism is configured.
    pub fn is_clean(&self) -> bool {
        self.stuck_bit.is_none()
            && self.drop_probability == 0.0
            && self.duplicate_probability == 0.0
            && self.timeout_probability == 0.0
    }
}

/// Why a delivery attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportError {
    /// The macro never answered within the session window.
    Timeout,
    /// Words arrived but failed the receiver's integrity validation.
    Corrupted,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Timeout => write!(f, "session timeout"),
            TransportError::Corrupted => write!(f, "frame integrity check failed"),
        }
    }
}

impl std::error::Error for TransportError {}

/// The outcome of a (possibly retried) delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Attempts made (1 = first try succeeded).
    pub attempts: u32,
    /// Total backoff cycles spent between attempts.
    pub backoff_cycles: u64,
    /// The validated received words, or `None` when every attempt failed.
    pub payload: Option<Vec<u64>>,
    /// The error of the *last* failed attempt (also set when a retry
    /// eventually succeeded — it records what was survived).
    pub last_error: Option<TransportError>,
}

impl Delivery {
    /// True when a validated payload was delivered.
    pub fn delivered(&self) -> bool {
        self.payload.is_some()
    }
}

/// The shared link: fault configuration plus retry policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transport {
    /// Injected link faults.
    pub faults: TransportFaults,
    /// Maximum session attempts before giving up (≥ 1).
    pub max_attempts: u32,
    /// Backoff after the `n`-th failure is `backoff_base_cycles << n`
    /// (exponential, capped at shift 16).
    pub backoff_base_cycles: u64,
}

impl Default for Transport {
    fn default() -> Self {
        Transport {
            faults: TransportFaults::none(),
            max_attempts: 4,
            backoff_base_cycles: 16,
        }
    }
}

impl Transport {
    /// A transport with the given faults and default retry policy.
    pub fn with_faults(faults: TransportFaults) -> Self {
        Transport {
            faults,
            ..Transport::default()
        }
    }

    /// Transfers `payload` across the faulty link, validating each
    /// attempt with `validate` (normally [`crate::wire::frames_valid`]).
    /// Failed attempts back off exponentially and retry, up to
    /// `max_attempts`; the delivery never panics and always terminates.
    pub fn deliver<R, F>(&self, payload: &[u64], rng: &mut R, validate: F) -> Delivery
    where
        R: Rng + ?Sized,
        F: Fn(&[u64]) -> bool,
    {
        let attempts_allowed = self.max_attempts.max(1);
        let mut delivery = Delivery {
            attempts: 0,
            backoff_cycles: 0,
            payload: None,
            last_error: None,
        };
        for attempt in 0..attempts_allowed {
            delivery.attempts = attempt + 1;
            match self.attempt(payload, rng, &validate) {
                Ok(words) => {
                    delivery.payload = Some(words);
                    return delivery;
                }
                Err(e) => {
                    delivery.last_error = Some(e);
                    if attempt + 1 < attempts_allowed {
                        delivery.backoff_cycles += self.backoff_base_cycles << attempt.min(16);
                    }
                }
            }
        }
        delivery
    }

    fn attempt<R, F>(
        &self,
        payload: &[u64],
        rng: &mut R,
        validate: &F,
    ) -> Result<Vec<u64>, TransportError>
    where
        R: Rng + ?Sized,
        F: Fn(&[u64]) -> bool,
    {
        let f = &self.faults;
        if f.timeout_probability > 0.0 && rng.gen_bool(f.timeout_probability) {
            return Err(TransportError::Timeout);
        }
        let mut received = Vec::with_capacity(payload.len());
        for &w in payload {
            if f.drop_probability > 0.0 && rng.gen_bool(f.drop_probability) {
                continue;
            }
            let sent = match f.stuck_bit {
                Some((bit, true)) => w | (1 << bit),
                Some((bit, false)) => w & !(1 << bit),
                None => w,
            };
            received.push(sent);
            if f.duplicate_probability > 0.0 && rng.gen_bool(f.duplicate_probability) {
                received.push(sent);
            }
        }
        if validate(&received) {
            Ok(received)
        } else {
            Err(TransportError::Corrupted)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisram_rng::rngs::StdRng;
    use bisram_rng::SeedableRng;

    fn payload() -> Vec<u64> {
        (0..64u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect()
    }

    #[test]
    fn clean_link_delivers_first_try() {
        let t = Transport::default();
        let p = payload();
        let mut rng = StdRng::seed_from_u64(1);
        let d = t.deliver(&p, &mut rng, |got| got == p.as_slice());
        assert!(d.delivered());
        assert_eq!(d.attempts, 1);
        assert_eq!(d.backoff_cycles, 0);
        assert_eq!(d.last_error, None);
        assert_eq!(d.payload.unwrap(), p);
    }

    #[test]
    fn drops_and_duplicates_recover_by_retry() {
        let t = Transport::with_faults(TransportFaults {
            drop_probability: 0.02,
            duplicate_probability: 0.02,
            ..TransportFaults::none()
        });
        let p = payload();
        let mut recovered = 0;
        for seed in 0..50 {
            let mut rng = StdRng::seed_from_u64(seed);
            let d = t.deliver(&p, &mut rng, |got| got == p.as_slice());
            if d.delivered() {
                if d.attempts > 1 {
                    recovered += 1;
                    assert!(d.backoff_cycles > 0, "retries must back off");
                    assert!(d.last_error.is_some(), "survived error recorded");
                }
            } else {
                assert_eq!(d.attempts, t.max_attempts);
            }
        }
        assert!(recovered > 0, "no retry ever exercised");
    }

    #[test]
    fn stuck_link_never_recovers() {
        // A stuck bit corrupts every attempt identically: retry cannot
        // help, and the caller must quarantine.
        let t = Transport::with_faults(TransportFaults {
            stuck_bit: Some((3, true)),
            ..TransportFaults::none()
        });
        // Payload with bit 3 clear somewhere: corruption guaranteed.
        let p = vec![0u64, 0xFF, 42];
        let mut rng = StdRng::seed_from_u64(7);
        let d = t.deliver(&p, &mut rng, |got| got == p.as_slice());
        assert!(!d.delivered());
        assert_eq!(d.attempts, t.max_attempts);
        assert_eq!(d.last_error, Some(TransportError::Corrupted));
        // Exponential backoff: 16 + 32 + 48... base<<0 + base<<1 + base<<2.
        assert_eq!(d.backoff_cycles, 16 + 32 + 64);
    }

    #[test]
    fn harmless_stuck_bit_is_survived_in_place() {
        // If every payload word already carries the stuck value, the
        // defect is undetectable and harmless — delivery succeeds.
        let t = Transport::with_faults(TransportFaults {
            stuck_bit: Some((0, true)),
            ..TransportFaults::none()
        });
        let p = vec![1u64, 3, 0xFFFF_FFFF_FFFF_FFFF];
        let mut rng = StdRng::seed_from_u64(9);
        let d = t.deliver(&p, &mut rng, |got| got == p.as_slice());
        assert!(d.delivered());
        assert_eq!(d.attempts, 1);
    }

    #[test]
    fn timeouts_exhaust_attempts() {
        let t = Transport::with_faults(TransportFaults {
            timeout_probability: 1.0,
            ..TransportFaults::none()
        });
        let mut rng = StdRng::seed_from_u64(3);
        let d = t.deliver(&payload(), &mut rng, |_| true);
        assert!(!d.delivered());
        assert_eq!(d.last_error, Some(TransportError::Timeout));
        assert_eq!(d.attempts, t.max_attempts);
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let t = Transport::with_faults(TransportFaults {
            drop_probability: 0.1,
            duplicate_probability: 0.1,
            timeout_probability: 0.1,
            ..TransportFaults::none()
        });
        let p = payload();
        let run = || {
            let mut rng = StdRng::seed_from_u64(0xD1A6);
            t.deliver(&p, &mut rng, |got| got == p.as_slice())
        };
        assert_eq!(run(), run());
    }
}
