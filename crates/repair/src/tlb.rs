//! The fault-address translation lookaside buffer.

use bisram_bist::RowMap;

/// Error raised by [`Tlb::capture`].
///
/// Capturing is the one TLB operation that can fail at run time, and an
/// in-field repair engine must survive both failure modes without
/// aborting: spare exhaustion is an expected end-of-life event, and a
/// row address outside the regular array is a caller bug that should be
/// reported, not turned into a panic mid-simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbError {
    /// Every spare row is already assigned.
    Exhausted {
        /// Number of spares the TLB manages (all in use).
        spares: usize,
    },
    /// The row address is not a regular-array row (spare-region and
    /// beyond-array addresses cannot be captured).
    RowOutOfRange {
        /// Offending row address.
        row: usize,
        /// Number of regular rows the TLB serves.
        regular_rows: usize,
    },
}

impl std::fmt::Display for TlbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TlbError::Exhausted { spares } => {
                write!(f, "all {spares} spare rows are already assigned")
            }
            TlbError::RowOutOfRange { row, regular_rows } => write!(
                f,
                "row {row} is outside the regular array (0..{regular_rows})"
            ),
        }
    }
}

impl std::error::Error for TlbError {}

/// The BISR TLB: a small CAM associating captured faulty row addresses
/// with spare rows in a predetermined, strictly increasing order.
///
/// * **Capture** (pass 1, and later passes for faulty spares): the next
///   free spare — always the lowest unassigned index — is bound to the
///   failing logical row. The spare sequence is therefore strictly
///   increasing in capture order, the invariant paper §VI relies on.
/// * **Lookup** (pass 2 and normal operation): the incoming row address
///   is compared *in parallel* with every stored address; among multiple
///   matches the most recently captured entry wins, so a row whose first
///   spare turned out faulty resolves to its replacement spare.
///
/// ```
/// use bisram_repair::Tlb;
/// use bisram_bist::RowMap;
///
/// let mut tlb = Tlb::new(1024, 4);
/// tlb.capture(17)?;          // row 17 -> spare 0 (physical row 1024)
/// tlb.capture(900)?;         // row 900 -> spare 1
/// assert_eq!(tlb.map_row(17), 1024);
/// assert_eq!(tlb.map_row(900), 1025);
/// assert_eq!(tlb.map_row(3), 3); // unmapped rows pass through
///
/// // Spare 0 turns out faulty: recapture row 17.
/// tlb.capture(17)?;          // row 17 -> spare 2; latest entry wins
/// assert_eq!(tlb.map_row(17), 1026);
/// # Ok::<(), bisram_repair::TlbError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tlb {
    regular_rows: usize,
    spares: usize,
    /// `entries[i]` = logical row mapped to spare `i`. Index order *is*
    /// capture order — the strictly increasing sequence.
    entries: Vec<usize>,
}

impl Tlb {
    /// Creates an empty TLB for an array with `regular_rows` rows and
    /// `spares` spare rows.
    pub fn new(regular_rows: usize, spares: usize) -> Self {
        Tlb {
            regular_rows,
            spares,
            entries: Vec::with_capacity(spares),
        }
    }

    /// Number of spare rows managed.
    pub fn spares(&self) -> usize {
        self.spares
    }

    /// Spares already assigned.
    pub fn used(&self) -> usize {
        self.entries.len()
    }

    /// Spares still free.
    pub fn free(&self) -> usize {
        self.spares - self.entries.len()
    }

    /// The capture log: `(logical_row, spare_index)` pairs in capture
    /// order.
    pub fn entries(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.entries.iter().enumerate().map(|(i, &row)| (row, i))
    }

    /// Binds the next spare (strictly increasing) to `row`.
    ///
    /// Capturing the same row twice deliberately allocates a *new* spare:
    /// that is exactly the faulty-spare replacement path of the iterated
    /// repair.
    ///
    /// # Errors
    ///
    /// [`TlbError::Exhausted`] when every spare is already assigned;
    /// [`TlbError::RowOutOfRange`] when `row` is not a regular row
    /// address. Neither condition panics — a lifetime simulation feeding
    /// fuzzed fault patterns through the repair flow must be able to log
    /// the failure and continue.
    pub fn capture(&mut self, row: usize) -> Result<usize, TlbError> {
        if row >= self.regular_rows {
            return Err(TlbError::RowOutOfRange {
                row,
                regular_rows: self.regular_rows,
            });
        }
        if self.entries.len() >= self.spares {
            return Err(TlbError::Exhausted {
                spares: self.spares,
            });
        }
        self.entries.push(row);
        Ok(self.entries.len() - 1)
    }

    /// Physical row of spare `i`.
    pub fn spare_row(&self, i: usize) -> usize {
        self.regular_rows + i
    }

    /// True when `row` currently diverts to a spare.
    pub fn is_mapped(&self, row: usize) -> bool {
        self.entries.contains(&row)
    }
}

impl RowMap for Tlb {
    /// The parallel CAM lookup: latest matching entry wins; unmatched
    /// rows pass through unchanged.
    fn map_row(&self, row: usize) -> usize {
        match self.entries.iter().rposition(|&r| r == row) {
            Some(i) => self.regular_rows + i,
            None => row,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisram_rng::rngs::StdRng;
    use bisram_rng::{Rng, SeedableRng};

    #[test]
    fn empty_tlb_is_identity() {
        let tlb = Tlb::new(64, 4);
        for row in 0..64 {
            assert_eq!(tlb.map_row(row), row);
        }
        assert_eq!(tlb.free(), 4);
    }

    #[test]
    fn capture_assigns_strictly_increasing_spares() {
        let mut tlb = Tlb::new(64, 4);
        let mut last = None;
        for row in [10, 3, 50] {
            let spare = tlb.capture(row).expect("spares available");
            if let Some(prev) = last {
                assert!(spare > prev, "spare sequence must strictly increase");
            }
            last = Some(spare);
        }
        assert_eq!(tlb.used(), 3);
        assert_eq!(tlb.map_row(3), 65);
    }

    #[test]
    fn exhaustion_reports_error() {
        let mut tlb = Tlb::new(64, 2);
        tlb.capture(1).expect("spare 0 free");
        tlb.capture(2).expect("spare 1 free");
        let err = tlb.capture(3).expect_err("no spares left");
        assert_eq!(err, TlbError::Exhausted { spares: 2 });
        assert!(err.to_string().contains('2'));
        // The failed capture changed nothing.
        assert_eq!(tlb.used(), 2);
        assert_eq!(tlb.map_row(3), 3);
    }

    #[test]
    fn out_of_range_capture_is_a_typed_error_not_a_panic() {
        let mut tlb = Tlb::new(64, 4);
        let err = tlb.capture(64).expect_err("row 64 is the first spare");
        assert_eq!(
            err,
            TlbError::RowOutOfRange {
                row: 64,
                regular_rows: 64
            }
        );
        assert!(err.to_string().contains("64"));
        // State untouched; in-range captures still work afterwards.
        assert_eq!(tlb.used(), 0);
        assert_eq!(tlb.capture(63), Ok(0));
    }

    #[test]
    fn out_of_range_beats_exhaustion_in_diagnosis() {
        // A full TLB fed a bad address reports the address problem, the
        // more specific diagnosis.
        let mut tlb = Tlb::new(4, 1);
        tlb.capture(0).expect("spare 0 free");
        assert!(matches!(
            tlb.capture(9),
            Err(TlbError::RowOutOfRange { row: 9, .. })
        ));
    }

    #[test]
    fn recapture_moves_row_forward() {
        let mut tlb = Tlb::new(64, 4);
        tlb.capture(7).expect("spare 0 free");
        assert_eq!(tlb.map_row(7), 64);
        tlb.capture(7).expect("spare 1 free");
        assert_eq!(tlb.map_row(7), 65, "latest entry must win");
        // The stale entry still occupies spare 0 (hardware does not
        // reclaim), so capacity shrinks accordingly.
        assert_eq!(tlb.free(), 2);
        assert!(tlb.is_mapped(7));
    }

    #[test]
    fn entries_report_capture_order() {
        let mut tlb = Tlb::new(64, 4);
        tlb.capture(9).expect("spare 0 free");
        tlb.capture(2).expect("spare 1 free");
        let log: Vec<_> = tlb.entries().collect();
        assert_eq!(log, vec![(9, 0), (2, 1)]);
    }

    // Deterministic seeded sweeps over random capture sequences
    // (duplicates allowed in the first, deduplicated in the second).

    #[test]
    fn mapped_rows_land_in_spare_region() {
        let mut rng = StdRng::seed_from_u64(0x71B_0001);
        for case in 0..256 {
            let rows: Vec<usize> = (0..rng.gen_range(1usize..8))
                .map(|_| rng.gen_range(0usize..100))
                .collect();
            let mut tlb = Tlb::new(100, 8);
            for &r in &rows {
                tlb.capture(r).expect("at most 7 captures into 8 spares");
            }
            for &r in &rows {
                let m = tlb.map_row(r);
                assert!(
                    (100..108).contains(&m),
                    "case {case}: rows={rows:?} row {r} mapped to {m}"
                );
            }
            // Unmapped rows are untouched.
            for r in 0..100 {
                if !rows.contains(&r) {
                    assert_eq!(tlb.map_row(r), r, "case {case}: rows={rows:?}");
                }
            }
        }
    }

    #[test]
    fn distinct_rows_get_distinct_spares() {
        let mut rng = StdRng::seed_from_u64(0x71B_0002);
        for case in 0..256 {
            let want = rng.gen_range(1usize..8);
            let mut rows = std::collections::HashSet::new();
            while rows.len() < want {
                rows.insert(rng.gen_range(0usize..100));
            }
            let mut tlb = Tlb::new(100, 8);
            for &r in &rows {
                tlb.capture(r).expect("at most 7 captures into 8 spares");
            }
            let mapped: std::collections::HashSet<_> =
                rows.iter().map(|&r| tlb.map_row(r)).collect();
            assert_eq!(mapped.len(), rows.len(), "case {case}: rows={rows:?}");
        }
    }

    #[test]
    fn fuzzed_capture_sequences_never_panic() {
        // The robustness contract behind the typed errors: ANY sequence
        // of capture calls — in-range, out-of-range, past exhaustion —
        // returns Ok or Err, never aborts, and leaves the map usable.
        let mut rng = StdRng::seed_from_u64(0x71B_0003);
        for _case in 0..256 {
            let mut tlb = Tlb::new(32, rng.gen_range(0usize..4));
            for _ in 0..rng.gen_range(0usize..12) {
                let row = rng.gen_range(0usize..64); // half out of range
                let _ = tlb.capture(row);
            }
            assert!(tlb.used() <= tlb.spares());
            for row in 0..32 {
                let m = tlb.map_row(row);
                assert!(m < 32 + tlb.spares());
            }
        }
    }
}
