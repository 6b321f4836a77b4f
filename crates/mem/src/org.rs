//! Array organization: the column-multiplexed geometry of Fig. 2.

/// Index of a single storage cell in the physical array.
///
/// Cells are numbered row-major over the physical array *including* spare
/// rows: `index = row * columns + column`.
pub type CellIndex = usize;

/// Errors raised when validating an array organization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrgError {
    /// `bpc` must be a power of two (it feeds a binary column decoder).
    BpcNotPowerOfTwo {
        /// Offending value.
        bpc: usize,
    },
    /// `words` must be a positive multiple of `bpc` so that rows come out
    /// whole.
    WordsNotMultipleOfBpc {
        /// Offending word count.
        words: usize,
        /// Bits per column.
        bpc: usize,
    },
    /// `bpw` out of the supported 1..=256 range.
    BadWordWidth {
        /// Offending width.
        bpw: usize,
    },
    /// The number of regular rows must be a power of two so the row
    /// address field decodes exactly.
    RowsNotPowerOfTwo {
        /// Derived row count.
        rows: usize,
    },
}

impl std::fmt::Display for OrgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrgError::BpcNotPowerOfTwo { bpc } => {
                write!(f, "bits-per-column {bpc} is not a power of two")
            }
            OrgError::WordsNotMultipleOfBpc { words, bpc } => {
                write!(
                    f,
                    "word count {words} is not a multiple of bits-per-column {bpc}"
                )
            }
            OrgError::BadWordWidth { bpw } => {
                write!(f, "word width {bpw} outside the supported range 1..=256")
            }
            OrgError::RowsNotPowerOfTwo { rows } => {
                write!(f, "derived row count {rows} is not a power of two")
            }
        }
    }
}

impl std::error::Error for OrgError {}

/// The organization of a column-multiplexed RAM array (paper §II, Fig. 2).
///
/// * `words` — number of addressable words,
/// * `bpw` — bits per word (number of I/O subarrays),
/// * `bpc` — bits per column: how many words share a physical row,
/// * `spare_rows` — redundant rows appended below the regular array.
///
/// Derived geometry: the array has `words / bpc` regular rows and
/// `bpw · bpc` physical columns; a word address splits into a row field
/// (high bits) and a `log2(bpc)`-bit column field (low bits).
///
/// ```
/// use bisram_mem::ArrayOrg;
/// let org = ArrayOrg::new(4096, 32, 8, 4)?;
/// assert_eq!(org.rows(), 512);
/// assert_eq!(org.columns(), 256);
/// assert_eq!(org.row_bits(), 9);
/// assert_eq!(org.col_bits(), 3);
/// # Ok::<(), bisram_mem::OrgError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayOrg {
    words: usize,
    bpw: usize,
    bpc: usize,
    spare_rows: usize,
}

impl ArrayOrg {
    /// Validates and creates an organization.
    ///
    /// # Errors
    ///
    /// See [`OrgError`] — `bpc` must be a power of two (paper §II: "the
    /// value of bpc must be a power of 2"), `words` a multiple of `bpc`,
    /// `bpw` in 1..=256, and the derived row count a power of two.
    pub fn new(words: usize, bpw: usize, bpc: usize, spare_rows: usize) -> Result<Self, OrgError> {
        if bpc == 0 || !bpc.is_power_of_two() {
            return Err(OrgError::BpcNotPowerOfTwo { bpc });
        }
        if bpw == 0 || bpw > 256 {
            return Err(OrgError::BadWordWidth { bpw });
        }
        if words == 0 || !words.is_multiple_of(bpc) {
            return Err(OrgError::WordsNotMultipleOfBpc { words, bpc });
        }
        let rows = words / bpc;
        if !rows.is_power_of_two() {
            return Err(OrgError::RowsNotPowerOfTwo { rows });
        }
        Ok(ArrayOrg {
            words,
            bpw,
            bpc,
            spare_rows,
        })
    }

    /// Number of addressable words.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Bits per word.
    pub fn bpw(&self) -> usize {
        self.bpw
    }

    /// Bits per column.
    pub fn bpc(&self) -> usize {
        self.bpc
    }

    /// Number of spare rows.
    pub fn spare_rows(&self) -> usize {
        self.spare_rows
    }

    /// Number of regular rows.
    pub fn rows(&self) -> usize {
        self.words / self.bpc
    }

    /// Total physical rows including spares.
    pub fn total_rows(&self) -> usize {
        self.rows() + self.spare_rows
    }

    /// Physical columns: `bpw` I/O subarrays of `bpc` bitline pairs each.
    pub fn columns(&self) -> usize {
        self.bpw * self.bpc
    }

    /// Storage cells in the regular array.
    pub fn cells(&self) -> usize {
        self.rows() * self.columns()
    }

    /// Storage cells including the spare rows.
    pub fn total_cells(&self) -> usize {
        self.total_rows() * self.columns()
    }

    /// Spare words made available by the spare rows (`spare_rows · bpc` —
    /// the paper's "redundancy of between bpc and 4·bpc spare words" for
    /// 1–4 spare rows).
    pub fn spare_words(&self) -> usize {
        self.spare_rows * self.bpc
    }

    /// Width of the row address field.
    pub fn row_bits(&self) -> u32 {
        self.rows().trailing_zeros()
    }

    /// Width of the column address field (`log2 bpc`).
    pub fn col_bits(&self) -> u32 {
        self.bpc.trailing_zeros()
    }

    /// Splits a word address into `(row, column_select)`.
    ///
    /// # Panics
    ///
    /// Panics if `addr >= self.words()`.
    pub fn split(&self, addr: usize) -> (usize, usize) {
        assert!(addr < self.words, "word address out of range");
        (addr / self.bpc, addr % self.bpc)
    }

    /// Recombines `(row, column_select)` into a word address. Valid for
    /// regular rows only.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()` or `col >= self.bpc()`.
    pub fn join(&self, row: usize, col: usize) -> usize {
        assert!(row < self.rows(), "row out of range");
        assert!(col < self.bpc, "column select out of range");
        row * self.bpc + col
    }

    /// Physical cell index of bit `bit` of the word at physical row
    /// `row`, column select `col`. Bit `b` lives in I/O subarray `b`,
    /// which occupies physical columns `b*bpc .. (b+1)*bpc`.
    ///
    /// # Panics
    ///
    /// Panics on any out-of-range coordinate (spare rows are legal).
    pub fn cell_at(&self, row: usize, col: usize, bit: usize) -> CellIndex {
        assert!(row < self.total_rows(), "physical row out of range");
        assert!(col < self.bpc, "column select out of range");
        assert!(bit < self.bpw, "bit index out of range");
        row * self.columns() + bit * self.bpc + col
    }

    /// Inverse of [`ArrayOrg::cell_at`]: `(row, col, bit)` of a cell.
    pub fn cell_coords(&self, cell: CellIndex) -> (usize, usize, usize) {
        let row = cell / self.columns();
        let in_row = cell % self.columns();
        let bit = in_row / self.bpc;
        let col = in_row % self.bpc;
        (row, col, bit)
    }

    /// Size of the memory in bits (regular array only).
    pub fn capacity_bits(&self) -> usize {
        self.words * self.bpw
    }
}

impl std::fmt::Display for ArrayOrg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}x{} (bpc={}, {} rows + {} spares)",
            self.words,
            self.bpw,
            self.bpc,
            self.rows(),
            self.spare_rows
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisram_rng::rngs::StdRng;
    use bisram_rng::{Rng, SeedableRng};

    #[test]
    fn paper_fig4_configuration() {
        // Fig. 4: 1024 rows, bpc = 4, bpw = 4 → 4096 words of 4 bits.
        let org = ArrayOrg::new(4096, 4, 4, 4).unwrap();
        assert_eq!(org.rows(), 1024);
        assert_eq!(org.columns(), 16);
        assert_eq!(org.cells(), 16384);
        assert_eq!(org.spare_words(), 16);
        assert_eq!(org.capacity_bits(), 16384);
    }

    #[test]
    fn fig6_configuration() {
        // Fig. 6: 4K words × 128 bits, bpc = 8, 4 spares → 64 kB.
        let org = ArrayOrg::new(4096, 128, 8, 4).unwrap();
        assert_eq!(org.rows(), 512);
        assert_eq!(org.columns(), 1024);
        assert_eq!(org.capacity_bits() / 8, 64 * 1024);
    }

    #[test]
    fn validation_errors() {
        assert_eq!(
            ArrayOrg::new(100, 8, 3, 0).unwrap_err(),
            OrgError::BpcNotPowerOfTwo { bpc: 3 }
        );
        assert_eq!(
            ArrayOrg::new(10, 8, 4, 0).unwrap_err(),
            OrgError::WordsNotMultipleOfBpc { words: 10, bpc: 4 }
        );
        assert_eq!(
            ArrayOrg::new(1024, 0, 4, 0).unwrap_err(),
            OrgError::BadWordWidth { bpw: 0 }
        );
        assert_eq!(
            ArrayOrg::new(1024, 300, 4, 0).unwrap_err(),
            OrgError::BadWordWidth { bpw: 300 }
        );
        assert_eq!(
            ArrayOrg::new(24, 8, 4, 0).unwrap_err(),
            OrgError::RowsNotPowerOfTwo { rows: 6 }
        );
        for e in [
            ArrayOrg::new(100, 8, 3, 0).unwrap_err(),
            ArrayOrg::new(10, 8, 4, 0).unwrap_err(),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn split_join_roundtrip() {
        let org = ArrayOrg::new(64, 8, 4, 2).unwrap();
        for addr in 0..64 {
            let (r, c) = org.split(addr);
            assert_eq!(org.join(r, c), addr);
        }
        assert_eq!(org.split(0), (0, 0));
        assert_eq!(org.split(5), (1, 1));
    }

    #[test]
    fn cell_mapping_roundtrip_including_spares() {
        let org = ArrayOrg::new(64, 8, 4, 2).unwrap();
        let mut seen = std::collections::HashSet::new();
        for row in 0..org.total_rows() {
            for col in 0..org.bpc() {
                for bit in 0..org.bpw() {
                    let cell = org.cell_at(row, col, bit);
                    assert!(cell < org.total_cells());
                    assert!(seen.insert(cell), "duplicate cell index");
                    assert_eq!(org.cell_coords(cell), (row, col, bit));
                }
            }
        }
        assert_eq!(seen.len(), org.total_cells());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn split_rejects_out_of_range() {
        ArrayOrg::new(64, 8, 4, 0).unwrap().split(64);
    }

    #[test]
    fn derived_quantities_consistent() {
        // Deterministic seeded sweep over valid organisations (the same
        // parameter space the proptest strategy generated).
        let mut rng = StdRng::seed_from_u64(0x026_0001);
        for case in 0..256 {
            let rows_log2 = rng.gen_range(2u32..10);
            let bpw = rng.gen_range(1usize..64);
            let bpc = 1usize << rng.gen_range(0u32..4);
            let spares = rng.gen_range(0usize..8);
            let words = (1usize << rows_log2) * bpc;
            let ctx = format!("case {case}: words={words} bpw={bpw} bpc={bpc} spares={spares}");
            let org = ArrayOrg::new(words, bpw, bpc, spares)
                .unwrap_or_else(|e| panic!("{ctx}: rejected valid organisation: {e}"));
            assert_eq!(org.rows() * org.bpc(), org.words(), "{ctx}");
            assert_eq!(org.cells(), org.words() * org.bpw(), "{ctx}");
            assert_eq!(
                org.total_cells() - org.cells(),
                org.spare_words() * org.bpw(),
                "{ctx}"
            );
            assert_eq!(1usize << org.row_bits(), org.rows(), "{ctx}");
            assert_eq!(1usize << org.col_bits(), org.bpc(), "{ctx}");
        }
    }
}
