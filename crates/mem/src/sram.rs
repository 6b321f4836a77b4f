//! The behavioural SRAM model.

use crate::fault::{Fault, FaultKind, RowFault};
use crate::org::{ArrayOrg, CellIndex};
use crate::word::Word;
use std::collections::HashMap;

/// Access counters, used by the BIST engine's cost accounting and by
/// tests asserting test length (e.g. IFA-9 applies a bounded number of
/// operations per cell).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Word reads performed.
    pub reads: u64,
    /// Word writes performed.
    pub writes: u64,
    /// Retention pauses taken.
    pub delays: u64,
}

/// A behavioural column-multiplexed SRAM with spare rows and injected
/// functional faults.
///
/// Logical accesses ([`SramModel::read_word`] / [`SramModel::write_word`])
/// address the regular array. Physical accesses
/// ([`SramModel::read_word_at`] / [`SramModel::write_word_at`]) take a
/// physical row index and can reach the spare rows — this is the
/// interface the BISR TLB redirects through.
///
/// # Fault semantics
///
/// * `SAF` — the cell always holds its stuck value.
/// * `TF` — the offending transition is suppressed.
/// * `SOF` — the cell is disconnected; a read returns the last value the
///   I/O subarray's sense amplifier produced, a write is lost.
/// * `CFin`/`CFid` — fire when the aggressor cell makes the sensitizing
///   transition (one level of propagation; cascades are not chained, the
///   standard behavioural simplification).
/// * `CFst` — fires when the aggressor is written into its sensitizing
///   state.
/// * `DRF` — the cell decays to its leak value when
///   [`SramModel::retention_pause`] is called.
///
/// # Storage
///
/// The array is stored one packed [`Word`] per physical word (index
/// `row * bpc + col`). A word is *hot* once an injected fault names one
/// of its cells as victim or aggressor. Reads and writes of a cold word
/// copy the whole word; hot words keep the per-bit fault semantics.
/// The copy is exact: a cold word holds no victim, so every bit stores
/// and reads back plainly, and no aggressor, so no coupling can fire.
#[derive(Debug, Clone)]
pub struct SramModel {
    org: ArrayOrg,
    words: Vec<Word>,
    /// Per physical word: does an injected fault touch it?
    hot: Vec<bool>,
    /// Victim-indexed fault lists.
    faults: HashMap<CellIndex, Vec<FaultKind>>,
    /// Aggressor index: aggressor cell → (victim, kind).
    by_aggressor: HashMap<CellIndex, Vec<(CellIndex, FaultKind)>>,
    /// Last value sensed per I/O subarray (for stuck-open behaviour).
    sense_last: Word,
    /// Row-level address-decoder faults.
    row_faults: HashMap<usize, RowFault>,
    /// Latent faults staged by a lifetime simulation but not yet active:
    /// they have no behavioural effect until [`SramModel::activate_staged`].
    staged: Vec<Fault>,
    stats: AccessStats,
}

impl SramModel {
    /// Creates a fault-free memory with all cells zero.
    pub fn new(org: ArrayOrg) -> Self {
        let words = org.total_rows() * org.bpc();
        SramModel {
            org,
            words: vec![Word::zeros(org.bpw()); words],
            hot: vec![false; words],
            faults: HashMap::new(),
            by_aggressor: HashMap::new(),
            sense_last: Word::zeros(org.bpw()),
            row_faults: HashMap::new(),
            staged: Vec::new(),
            stats: AccessStats::default(),
        }
    }

    /// A model whose every word is hot, so every access takes the
    /// per-bit fault path: the reference the fast-path oracle compares
    /// against.
    #[cfg(test)]
    pub(crate) fn all_hot(org: ArrayOrg) -> Self {
        let mut m = SramModel::new(org);
        m.hot.fill(true);
        m
    }

    /// The array organization.
    pub fn org(&self) -> &ArrayOrg {
        &self.org
    }

    /// Access counters so far.
    pub fn stats(&self) -> AccessStats {
        self.stats
    }

    /// Injects one fault.
    ///
    /// # Panics
    ///
    /// Panics if the victim or aggressor cell index is out of range.
    pub fn inject(&mut self, fault: Fault) {
        assert!(
            fault.cell < self.org.total_cells(),
            "victim cell out of range"
        );
        if let Some(a) = fault.kind.aggressor() {
            assert!(a < self.org.total_cells(), "aggressor cell out of range");
            self.by_aggressor
                .entry(a)
                .or_default()
                .push((fault.cell, fault.kind));
            let (word, _) = self.locate(a);
            self.hot[word] = true;
        }
        self.faults.entry(fault.cell).or_default().push(fault.kind);
        let (word, _) = self.locate(fault.cell);
        self.hot[word] = true;
        // A stuck-at cell immediately assumes its stuck value.
        if let FaultKind::StuckAt(v) = fault.kind {
            self.set_cell(fault.cell, v);
        }
    }

    /// Injects many faults.
    pub fn inject_all<I: IntoIterator<Item = Fault>>(&mut self, faults: I) {
        for f in faults {
            self.inject(f);
        }
    }

    /// Stages a latent fault: the defect exists (an in-field wear-out
    /// mechanism has struck the cell) but has no behavioural effect yet.
    /// Lifetime simulations stage faults at their drawn arrival times and
    /// activate them when simulated time passes those instants, so a
    /// single model can carry the whole future fault population without
    /// perturbing the present.
    ///
    /// Staged faults do not affect reads, writes, [`SramModel::faults`],
    /// [`SramModel::faulty_rows`], or [`SramModel::is_fault_free`].
    ///
    /// # Panics
    ///
    /// Panics if the victim or aggressor cell index is out of range (same
    /// contract as [`SramModel::inject`], checked eagerly so a bad arrival
    /// is caught where it is created, not at activation).
    pub fn stage_fault(&mut self, fault: Fault) {
        assert!(
            fault.cell < self.org.total_cells(),
            "victim cell out of range"
        );
        if let Some(a) = fault.kind.aggressor() {
            assert!(a < self.org.total_cells(), "aggressor cell out of range");
        }
        self.staged.push(fault);
    }

    /// The latent faults staged so far, in staging order.
    pub fn staged_faults(&self) -> &[Fault] {
        &self.staged
    }

    /// Activates every staged fault: each becomes a live injected fault
    /// (a staged stuck-at corrupts its cell at this moment — activation
    /// is when the data loss happens). Returns the activated faults in
    /// staging order; the staged list is left empty.
    pub fn activate_staged(&mut self) -> Vec<Fault> {
        let activated = std::mem::take(&mut self.staged);
        for f in &activated {
            self.inject(*f);
        }
        activated
    }

    /// All injected faults, victim-ordered.
    pub fn faults(&self) -> Vec<Fault> {
        let mut out: Vec<Fault> = self
            .faults
            .iter()
            .flat_map(|(cell, kinds)| kinds.iter().map(|k| Fault::new(*cell, *k)))
            .collect();
        out.sort_by_key(|f| f.cell);
        out
    }

    /// The injected fault kinds at one cell, in injection order — the
    /// per-cell ground-truth accessor diagnosis cross-validation keys on.
    /// Empty when the cell is healthy.
    pub fn faults_at(&self, cell: CellIndex) -> Vec<FaultKind> {
        self.faults.get(&cell).cloned().unwrap_or_default()
    }

    /// True when no faults are injected.
    pub fn is_fault_free(&self) -> bool {
        self.faults.is_empty() && self.row_faults.is_empty()
    }

    /// Injects a row-level address-decoder fault.
    ///
    /// # Panics
    ///
    /// Panics when either involved row is out of range.
    pub fn inject_row_fault(&mut self, row: usize, fault: RowFault) {
        assert!(row < self.org.total_rows(), "row out of range");
        if let RowFault::AliasedWith { other } = fault {
            assert!(other < self.org.total_rows(), "aliased row out of range");
            assert_ne!(other, row, "a row cannot alias itself");
        }
        self.row_faults.insert(row, fault);
    }

    /// The injected row faults.
    pub fn row_faults(&self) -> impl Iterator<Item = (usize, RowFault)> + '_ {
        self.row_faults.iter().map(|(r, f)| (*r, *f))
    }

    /// The set of physical rows containing at least one fault (victim
    /// side). Row-repair must replace exactly these.
    pub fn faulty_rows(&self) -> Vec<usize> {
        let mut rows: Vec<usize> = self
            .faults
            .keys()
            .map(|c| self.org.cell_coords(*c).0)
            .collect();
        rows.extend(self.row_faults.keys().copied());
        rows.sort_unstable();
        rows.dedup();
        rows
    }

    /// Reads the word at a logical address (regular array).
    ///
    /// # Panics
    ///
    /// Panics if `addr >= org.words()`.
    pub fn read_word(&mut self, addr: usize) -> Word {
        let (row, col) = self.org.split(addr);
        self.read_word_at(row, col)
    }

    /// Writes the word at a logical address.
    pub fn write_word(&mut self, addr: usize, data: Word) {
        let (row, col) = self.org.split(addr);
        self.write_word_at(row, col, data);
    }

    /// Reads a word at a physical `(row, column-select)` position; spare
    /// rows are reachable with `row >= org.rows()`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range coordinates.
    pub fn read_word_at(&mut self, row: usize, col: usize) -> Word {
        self.stats.reads += 1;
        match self.row_faults.get(&row).copied() {
            // No word line: the sense amplifiers repeat themselves.
            Some(RowFault::NoAccess) => self.sense_last.clone(),
            Some(RowFault::AliasedWith { other }) => {
                // Two rows drive the bitlines: wired-OR per bit.
                let mut w = Word::zeros(self.org.bpw());
                for bit in 0..self.org.bpw() {
                    let a = self.read_cell(self.org.cell_at(row, col, bit), bit);
                    let b = self.read_cell(self.org.cell_at(other, col, bit), bit);
                    w.set(bit, a || b);
                    self.sense_last.set(bit, a || b);
                }
                w
            }
            None => {
                let word = self.word_index(row, col);
                if !self.hot[word] {
                    self.sense_last.clone_from(&self.words[word]);
                    return self.words[word].clone();
                }
                let mut w = Word::zeros(self.org.bpw());
                for bit in 0..self.org.bpw() {
                    let cell = self.org.cell_at(row, col, bit);
                    let v = self.read_cell(cell, bit);
                    w.set(bit, v);
                }
                w
            }
        }
    }

    /// Writes a word at a physical `(row, column-select)` position.
    ///
    /// All bits of the word are written simultaneously in hardware, so
    /// coupling faults are evaluated against the *final* state of the
    /// word: first every cell is updated (through its own write-fault
    /// semantics), then transition- and state-couplings fire.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range coordinates or word-width mismatch.
    pub fn write_word_at(&mut self, row: usize, col: usize, data: Word) {
        assert_eq!(data.len(), self.org.bpw(), "word width mismatch");
        match self.row_faults.get(&row).copied() {
            Some(RowFault::NoAccess) => {
                // No word line: the write is lost entirely.
                self.stats.writes += 1;
            }
            Some(RowFault::AliasedWith { other }) => {
                // Both rows capture the data.
                self.write_word_at_inner(row, col, data.clone());
                self.write_word_at_inner(other, col, data);
            }
            None => self.write_word_at_inner(row, col, data),
        }
    }

    fn write_word_at_inner(&mut self, row: usize, col: usize, data: Word) {
        self.stats.writes += 1;
        let word = self.word_index(row, col);
        if !self.hot[word] {
            self.words[word] = data;
            return;
        }
        // Phase 1: store every bit.
        let mut written: Vec<(CellIndex, bool, bool)> = Vec::with_capacity(self.org.bpw());
        for bit in 0..self.org.bpw() {
            let cell = self.org.cell_at(row, col, bit);
            let old = self.cell(cell);
            let new = self.effective_stored(cell, data.get(bit));
            self.set_cell(cell, new);
            written.push((cell, old, new));
        }
        // Phase 2: transition couplings from cells that changed.
        for &(cell, old, new) in &written {
            if new != old {
                self.fire_transition_couplings(cell, new);
            }
        }
        // Phase 3: state couplings from every written cell's final state.
        for &(cell, _, new) in &written {
            self.fire_state_couplings(cell, new);
        }
    }

    /// Models the data-retention pause of the IFA tests (the ~100 ms
    /// window in which the embedded processor tristates the memory):
    /// every cell with a retention fault decays to its leak value.
    pub fn retention_pause(&mut self) {
        self.stats.delays += 1;
        let decays: Vec<(CellIndex, bool)> = self
            .faults
            .iter()
            .flat_map(|(cell, kinds)| {
                kinds.iter().filter_map(|k| match k {
                    FaultKind::Retention { leaks_to } => Some((*cell, *leaks_to)),
                    _ => None,
                })
            })
            .collect();
        for (cell, v) in decays {
            let eff = self.effective_stored(cell, v);
            self.set_cell(cell, eff);
        }
    }

    /// Direct (fault-transparent) view of a cell's stored value, for
    /// white-box tests.
    pub fn peek(&self, cell: CellIndex) -> bool {
        self.cell(cell)
    }

    /// Index into `words` of the physical word at `(row, col)`.
    fn word_index(&self, row: usize, col: usize) -> usize {
        assert!(row < self.org.total_rows(), "physical row out of range");
        assert!(col < self.org.bpc(), "column select out of range");
        row * self.org.bpc() + col
    }

    /// The physical word holding `cell` and the cell's bit within it.
    fn locate(&self, cell: CellIndex) -> (usize, usize) {
        let (row, col, bit) = self.org.cell_coords(cell);
        (self.word_index(row, col), bit)
    }

    fn cell(&self, cell: CellIndex) -> bool {
        let (word, bit) = self.locate(cell);
        self.words[word].get(bit)
    }

    fn set_cell(&mut self, cell: CellIndex, value: bool) {
        let (word, bit) = self.locate(cell);
        self.words[word].set(bit, value);
    }

    fn read_cell(&mut self, cell: CellIndex, subarray: usize) -> bool {
        let mut value = self.cell(cell);
        if let Some(kinds) = self.faults.get(&cell) {
            for k in kinds {
                match k {
                    FaultKind::StuckAt(v) => value = *v,
                    FaultKind::StuckOpen => {
                        // Sense amplifier repeats its previous output.
                        return self.sense_last.get(subarray);
                    }
                    _ => {}
                }
            }
        }
        self.sense_last.set(subarray, value);
        value
    }

    /// Applies the victim-side write-fault semantics: what actually ends
    /// up stored when `new` is written into `cell` holding `old`.
    fn effective_stored(&self, cell: CellIndex, new: bool) -> bool {
        let old = self.cell(cell);
        let mut value = new;
        if let Some(kinds) = self.faults.get(&cell) {
            for k in kinds {
                match k {
                    FaultKind::StuckAt(v) => value = *v,
                    FaultKind::TransitionUp if !old && value => value = false,
                    FaultKind::TransitionDown if old && !value => value = true,
                    FaultKind::StuckOpen => value = old,
                    _ => {}
                }
            }
        }
        value
    }

    fn fire_transition_couplings(&mut self, aggressor: CellIndex, new_value: bool) {
        let Some(victims) = self.by_aggressor.get(&aggressor) else {
            return;
        };
        // One level of coupling propagation (no cascades).
        let mut updates: Vec<(CellIndex, bool)> = Vec::new();
        for (victim, kind) in victims {
            match kind {
                FaultKind::CouplingInv { rising, .. } if *rising == new_value => {
                    updates.push((*victim, !self.cell(*victim)));
                }
                FaultKind::CouplingIdem { rising, forced, .. } if *rising == new_value => {
                    updates.push((*victim, *forced));
                }
                _ => {}
            }
        }
        for (victim, v) in updates {
            let eff = self.effective_stored(victim, v);
            self.set_cell(victim, eff);
        }
    }

    fn fire_state_couplings(&mut self, aggressor: CellIndex, value: bool) {
        let Some(victims) = self.by_aggressor.get(&aggressor) else {
            return;
        };
        let mut updates: Vec<(CellIndex, bool)> = Vec::new();
        for (victim, kind) in victims {
            if let FaultKind::StateCoupling { state, forced, .. } = kind {
                if *state == value {
                    updates.push((*victim, *forced));
                }
            }
        }
        for (victim, v) in updates {
            let eff = self.effective_stored(victim, v);
            self.set_cell(victim, eff);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SramModel {
        SramModel::new(ArrayOrg::new(64, 8, 4, 2).unwrap())
    }

    #[test]
    fn fault_free_readback() {
        let mut m = small();
        for addr in 0..64 {
            m.write_word(addr, Word::from_u64(addr as u64, 8));
        }
        for addr in 0..64 {
            assert_eq!(m.read_word(addr).to_u64(), addr as u64);
        }
        assert!(m.is_fault_free());
        assert_eq!(m.stats().reads, 64);
        assert_eq!(m.stats().writes, 64);
    }

    #[test]
    fn spare_rows_are_independent_storage() {
        let mut m = small();
        let spare_row = m.org().rows(); // first spare
        m.write_word_at(spare_row, 2, Word::from_u64(0xA5, 8));
        assert_eq!(m.read_word_at(spare_row, 2).to_u64(), 0xA5);
        // Regular row 0 unaffected.
        assert_eq!(m.read_word(2).to_u64(), 0);
    }

    #[test]
    fn stuck_at_dominates_writes() {
        let mut m = small();
        let cell = m.org().cell_at(3, 1, 0); // bit 0 of word (3,1)
        m.inject(Fault::new(cell, FaultKind::StuckAt(true)));
        let addr = m.org().join(3, 1);
        m.write_word(addr, Word::zeros(8));
        assert_eq!(m.read_word(addr).to_u64() & 1, 1);
        assert_eq!(m.faulty_rows(), vec![3]);
    }

    #[test]
    fn transition_fault_blocks_one_direction_only() {
        let mut m = small();
        let cell = m.org().cell_at(0, 0, 2);
        m.inject(Fault::new(cell, FaultKind::TransitionUp));
        // 0 -> 1 blocked.
        m.write_word(0, Word::from_u64(0b100, 8));
        assert_eq!(m.read_word(0).to_u64() & 0b100, 0);
        // But if the cell somehow holds 1 (write 1 first from 1-state is
        // impossible here) the 1->0 direction still works; emulate via
        // TransitionDown on a fresh model.
        let mut m2 = small();
        let cell2 = m2.org().cell_at(0, 0, 2);
        m2.inject(Fault::new(cell2, FaultKind::TransitionDown));
        m2.write_word(0, Word::from_u64(0b100, 8)); // 0->1 fine
        m2.write_word(0, Word::zeros(8)); // 1->0 blocked
        assert_eq!(m2.read_word(0).to_u64() & 0b100, 0b100);
    }

    #[test]
    fn stuck_open_repeats_sense_amp_value() {
        let mut m = small();
        let cell = m.org().cell_at(1, 0, 0);
        m.inject(Fault::new(cell, FaultKind::StuckOpen));
        let victim_addr = m.org().join(1, 0);
        let donor_addr = m.org().join(0, 0);
        // Read a 1 from the donor word through subarray 0...
        m.write_word(donor_addr, Word::from_u64(1, 8));
        assert_eq!(m.read_word(donor_addr).to_u64() & 1, 1);
        // ...then the stuck-open cell echoes it even though it holds 0.
        assert_eq!(m.read_word(victim_addr).to_u64() & 1, 1);
        // After sensing a 0 elsewhere, the echo flips.
        m.write_word(donor_addr, Word::zeros(8));
        m.read_word(donor_addr);
        assert_eq!(m.read_word(victim_addr).to_u64() & 1, 0);
        // Writes to the stuck-open cell are lost.
        m.write_word(victim_addr, Word::from_u64(1, 8));
        assert!(!m.peek(cell));
    }

    #[test]
    fn inversion_coupling_fires_on_matching_transition() {
        let mut m = small();
        let aggressor = m.org().cell_at(0, 0, 0);
        let victim = m.org().cell_at(2, 0, 0);
        m.inject(Fault::new(
            victim,
            FaultKind::CouplingInv {
                aggressor,
                rising: true,
            },
        ));
        let victim_addr = m.org().join(2, 0);
        m.write_word(victim_addr, Word::zeros(8));
        // Rising aggressor inverts the victim.
        m.write_word(0, Word::from_u64(1, 8));
        assert_eq!(m.read_word(victim_addr).to_u64() & 1, 1);
        // Falling aggressor does nothing.
        m.write_word(0, Word::zeros(8));
        assert_eq!(m.read_word(victim_addr).to_u64() & 1, 1);
    }

    #[test]
    fn idempotent_coupling_forces_value() {
        let mut m = small();
        let aggressor = m.org().cell_at(0, 0, 0);
        let victim = m.org().cell_at(4, 0, 3);
        m.inject(Fault::new(
            victim,
            FaultKind::CouplingIdem {
                aggressor,
                rising: false,
                forced: true,
            },
        ));
        let victim_addr = m.org().join(4, 0);
        // Put the aggressor high, then drop it: victim forced to 1.
        m.write_word(0, Word::from_u64(1, 8));
        assert_eq!(m.read_word(victim_addr).to_u64() & 0b1000, 0);
        m.write_word(0, Word::zeros(8));
        assert_eq!(m.read_word(victim_addr).to_u64() & 0b1000, 0b1000);
    }

    #[test]
    fn state_coupling_within_word() {
        // Victim and aggressor in the same word — what multiple data
        // backgrounds are needed to expose.
        let mut m = small();
        let aggressor = m.org().cell_at(5, 2, 1);
        let victim = m.org().cell_at(5, 2, 6);
        m.inject(Fault::new(
            victim,
            FaultKind::StateCoupling {
                aggressor,
                state: true,
                forced: false,
            },
        ));
        let addr = m.org().join(5, 2);
        // All-ones background: aggressor written 1 forces victim low.
        m.write_word(addr, Word::ones_word(8));
        assert_eq!(m.read_word(addr).to_u64() & (1 << 6), 0);
        // All-zeros background leaves the victim alone.
        m.write_word(addr, Word::zeros(8));
        m.write_word(addr, Word::from_u64(1 << 6, 8));
        assert_eq!(m.read_word(addr).to_u64() & (1 << 6), 1 << 6);
    }

    #[test]
    fn retention_fault_decays_only_after_pause() {
        let mut m = small();
        let cell = m.org().cell_at(7, 3, 0);
        m.inject(Fault::new(cell, FaultKind::Retention { leaks_to: false }));
        let addr = m.org().join(7, 3);
        m.write_word(addr, Word::from_u64(1, 8));
        assert_eq!(m.read_word(addr).to_u64() & 1, 1);
        m.retention_pause();
        assert_eq!(m.read_word(addr).to_u64() & 1, 0);
        assert_eq!(m.stats().delays, 1);
    }

    #[test]
    fn faults_listing_sorted_by_cell() {
        let mut m = small();
        m.inject(Fault::new(50, FaultKind::StuckAt(false)));
        m.inject(Fault::new(3, FaultKind::TransitionUp));
        let fs = m.faults();
        assert_eq!(fs.len(), 2);
        assert_eq!(fs[0].cell, 3);
        assert_eq!(fs[1].cell, 50);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn inject_rejects_bad_cell() {
        let mut m = small();
        let total = m.org().total_cells();
        m.inject(Fault::new(total, FaultKind::StuckAt(false)));
    }

    #[test]
    #[should_panic(expected = "word width mismatch")]
    fn write_rejects_wrong_width() {
        let mut m = small();
        m.write_word(0, Word::zeros(4));
    }

    #[test]
    fn no_access_row_floats_and_loses_writes() {
        let mut m = small();
        m.inject_row_fault(5, RowFault::NoAccess);
        assert!(!m.is_fault_free());
        assert_eq!(m.faulty_rows(), vec![5]);
        let addr = m.org().join(5, 0);
        // Write is lost; a subsequent read echoes the sense amps.
        m.write_word(addr, Word::from_u64(0xFF, 8));
        let donor = m.org().join(0, 0);
        m.write_word(donor, Word::from_u64(0b1010_0101, 8));
        m.read_word(donor);
        assert_eq!(m.read_word(addr).to_u64(), 0b1010_0101);
        // The underlying cells never changed.
        for bit in 0..8 {
            assert!(!m.peek(m.org().cell_at(5, 0, bit)));
        }
    }

    #[test]
    fn aliased_rows_write_both_and_read_wired_or() {
        let mut m = small();
        m.inject_row_fault(2, RowFault::AliasedWith { other: 9 });
        let aliased = m.org().join(2, 1);
        let shadow = m.org().join(9, 1);
        // Writing through the faulty decoder hits both rows.
        m.write_word(aliased, Word::from_u64(0x0F, 8));
        assert_eq!(m.read_word(shadow).to_u64(), 0x0F);
        // Diverging contents read back as the OR.
        m.write_word(shadow, Word::from_u64(0xF0, 8));
        assert_eq!(m.read_word(aliased).to_u64(), 0xFF);
    }

    #[test]
    fn row_faults_listing() {
        let mut m = small();
        m.inject_row_fault(1, RowFault::NoAccess);
        let listed: Vec<_> = m.row_faults().collect();
        assert_eq!(listed, vec![(1, RowFault::NoAccess)]);
        assert_eq!(RowFault::NoAccess.to_string(), "AF/no-access");
        assert!(RowFault::AliasedWith { other: 3 }.to_string().contains('3'));
    }

    #[test]
    #[should_panic(expected = "cannot alias itself")]
    fn self_alias_rejected() {
        let mut m = small();
        m.inject_row_fault(1, RowFault::AliasedWith { other: 1 });
    }

    #[test]
    fn staged_faults_are_latent_until_activation() {
        let mut m = small();
        let cell = m.org().cell_at(6, 0, 0);
        let addr = m.org().join(6, 0);
        m.write_word(addr, Word::from_u64(1, 8));

        m.stage_fault(Fault::new(cell, FaultKind::StuckAt(false)));
        // Latent: the memory still behaves perfectly.
        assert!(m.is_fault_free());
        assert!(m.faulty_rows().is_empty());
        assert_eq!(m.read_word(addr).to_u64() & 1, 1);
        assert_eq!(m.staged_faults().len(), 1);

        // Activation is the moment of data loss.
        let activated = m.activate_staged();
        assert_eq!(activated, vec![Fault::new(cell, FaultKind::StuckAt(false))]);
        assert!(m.staged_faults().is_empty());
        assert!(!m.is_fault_free());
        assert_eq!(m.faulty_rows(), vec![6]);
        assert_eq!(m.read_word(addr).to_u64() & 1, 0);
    }

    #[test]
    fn activation_preserves_staging_order_and_drains() {
        let mut m = small();
        let a = m.org().cell_at(1, 0, 0);
        let b = m.org().cell_at(2, 0, 0);
        m.stage_fault(Fault::new(b, FaultKind::TransitionUp));
        m.stage_fault(Fault::new(a, FaultKind::StuckAt(true)));
        let activated = m.activate_staged();
        assert_eq!(activated.len(), 2);
        assert_eq!(activated[0].cell, b, "staging order preserved");
        assert_eq!(activated[1].cell, a);
        // A second activation is a no-op.
        assert!(m.activate_staged().is_empty());
        assert_eq!(m.faults().len(), 2);
    }

    #[test]
    #[should_panic(expected = "victim cell out of range")]
    fn stage_rejects_bad_cell_eagerly() {
        let mut m = small();
        let total = m.org().total_cells();
        m.stage_fault(Fault::new(total, FaultKind::StuckAt(false)));
    }
}
