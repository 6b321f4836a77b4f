//! March-test execution against the behavioural memory.
//!
//! The engine walks a [`MarchTest`] over an [`SramModel`], applying the
//! DATAGEN background schedule and recording every comparator mismatch.
//! All accesses go through an optional [`RowMap`] translation, which is
//! where the BISR TLB plugs in for the second test pass and for normal
//! operation.

use crate::datagen::{self, mismatch};
use crate::march::{MarchElement, MarchOp, MarchTest};
use crate::RowMap;
use bisram_mem::{SramModel, Word};

/// How the engine schedules data backgrounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackgroundSchedule {
    /// The full DATAGEN Johnson-counter schedule (`bpw/2 + 2` patterns).
    Johnson,
    /// A single all-zeros background (the Chen–Sunada baseline).
    Single,
    /// An explicit list.
    Explicit(Vec<Word>),
}

/// Engine configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarchConfig {
    /// Background schedule.
    pub schedule: BackgroundSchedule,
    /// Stop at the first mismatch (cheap detection checks) instead of
    /// logging all failures (repair needs the full log).
    pub stop_at_first: bool,
}

impl Default for MarchConfig {
    fn default() -> Self {
        MarchConfig {
            schedule: BackgroundSchedule::Johnson,
            stop_at_first: false,
        }
    }
}

impl MarchConfig {
    /// Detection-only configuration (single background, stop early) —
    /// what a quick screen uses.
    pub fn quick() -> Self {
        MarchConfig {
            schedule: BackgroundSchedule::Single,
            stop_at_first: true,
        }
    }
}

/// One comparator mismatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailEvent {
    /// Logical word address at which the mismatch was observed.
    pub addr: usize,
    /// Logical row of that address.
    pub row: usize,
    /// Index of the march element.
    pub element: usize,
    /// Index of the operation inside the element.
    pub op: usize,
    /// Index of the data background in force.
    pub background: usize,
}

/// One fully-attributed comparator mismatch: a [`FailEvent`] plus the
/// per-bit fail bitmap (`read XOR expected`). This is the raw material
/// of fault *diagnosis* — which element, which address, which bits —
/// and what the shared BIST transport ships off-macro.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailRecord {
    /// Logical word address at which the mismatch was observed.
    pub addr: usize,
    /// Logical row of that address.
    pub row: usize,
    /// Column-select of that address.
    pub col: usize,
    /// Index of the march element.
    pub element: usize,
    /// Index of the operation inside the element.
    pub op: usize,
    /// Index of the data background in force.
    pub background: usize,
    /// Bit positions that mismatched (`read XOR expected`), LSB = bit 0.
    pub fail_bits: Word,
}

impl FailRecord {
    /// Iterates the failing bit positions, ascending.
    pub fn failing_bits(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.fail_bits.len()).filter(move |&b| self.fail_bits.get(b))
    }
}

/// The complete failure signature of one march run: every mismatch with
/// its per-element / per-address / per-bit attribution, in occurrence
/// order. Equality is exact — two signatures are the same if and only
/// if the memory failed in the identical way, which is what makes the
/// fault-dictionary diagnosis of `bisram-diag` sound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarchSignature {
    /// Name of the march test that produced the signature.
    pub test: String,
    /// Addressable words of the array under test.
    pub words: usize,
    /// Bits per word.
    pub bpw: usize,
    /// Number of data backgrounds applied.
    pub backgrounds_run: usize,
    /// Every mismatch, in occurrence order.
    pub records: Vec<FailRecord>,
}

impl MarchSignature {
    /// True when at least one mismatch occurred.
    pub fn detected(&self) -> bool {
        !self.records.is_empty()
    }

    /// Distinct logical rows that produced mismatches, ascending.
    pub fn faulty_rows(&self) -> Vec<usize> {
        let mut rows: Vec<usize> = self.records.iter().map(|r| r.row).collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    }

    /// Distinct `(addr, bit)` positions that ever mismatched, ascending —
    /// the suspect list a diagnosis engine starts from.
    pub fn suspects(&self) -> Vec<(usize, usize)> {
        let mut out: Vec<(usize, usize)> = self
            .records
            .iter()
            .flat_map(|r| r.failing_bits().map(move |b| (r.addr, b)))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The records in which `(addr, bit)` failed, as
    /// `(background, element, op)` triples in occurrence order — the
    /// per-cell signature key the fault dictionary matches on.
    pub fn cell_key(&self, addr: usize, bit: usize) -> Vec<(usize, usize, usize)> {
        self.records
            .iter()
            .filter(|r| r.addr == addr && r.fail_bits.get(bit))
            .map(|r| (r.background, r.element, r.op))
            .collect()
    }
}

/// The outcome of one march run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarchOutcome {
    fails: Vec<FailEvent>,
    reads: u64,
    writes: u64,
    backgrounds_run: usize,
}

impl MarchOutcome {
    /// True when at least one mismatch occurred.
    pub fn detected(&self) -> bool {
        !self.fails.is_empty()
    }

    /// All mismatches, in occurrence order.
    pub fn fails(&self) -> &[FailEvent] {
        &self.fails
    }

    /// Distinct logical rows that produced mismatches, ascending — the
    /// input to row repair.
    pub fn faulty_rows(&self) -> Vec<usize> {
        let mut rows: Vec<usize> = self.fails.iter().map(|f| f.row).collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    }

    /// Reads performed.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Writes performed.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Number of data backgrounds applied.
    pub fn backgrounds_run(&self) -> usize {
        self.backgrounds_run
    }
}

/// Runs `test` over the memory with the given configuration, translating
/// every row through `map` when provided.
///
/// The march convention: `w0`/`r0` refer to the current background
/// pattern, `w1`/`r1` to its complement. `Delay` elements trigger the
/// memory's retention pause.
pub fn run_march(
    test: &MarchTest,
    ram: &mut SramModel,
    config: &MarchConfig,
    map: Option<&dyn RowMap>,
) -> MarchOutcome {
    let bpw = ram.org().bpw();
    let words = ram.org().words();
    let backgrounds = match &config.schedule {
        BackgroundSchedule::Johnson => datagen::backgrounds(bpw),
        BackgroundSchedule::Single => datagen::single_background(bpw),
        BackgroundSchedule::Explicit(v) => v.clone(),
    };

    let mut outcome = MarchOutcome {
        fails: Vec::new(),
        reads: 0,
        writes: 0,
        backgrounds_run: 0,
    };

    'backgrounds: for (bg_idx, bg) in backgrounds.iter().enumerate() {
        outcome.backgrounds_run = bg_idx + 1;
        let inv = !bg.clone();
        for (el_idx, element) in test.elements().iter().enumerate() {
            match element {
                MarchElement::Delay => ram.retention_pause(),
                MarchElement::Sweep { order, ops } => {
                    let sweep: Box<dyn Iterator<Item = usize>> = if order.effective_up() {
                        Box::new(0..words)
                    } else {
                        Box::new((0..words).rev())
                    };
                    for addr in sweep {
                        let (row, col) = ram.org().split(addr);
                        let phys_row = map.map_or(row, |m| m.map_row(row));
                        for (op_idx, op) in ops.iter().enumerate() {
                            let data = if op.is_inverse() { &inv } else { bg };
                            match op {
                                MarchOp::W0 | MarchOp::W1 => {
                                    outcome.writes += 1;
                                    ram.write_word_at(phys_row, col, data.clone());
                                }
                                MarchOp::R0 | MarchOp::R1 => {
                                    outcome.reads += 1;
                                    let read = ram.read_word_at(phys_row, col);
                                    if mismatch(&read, data) {
                                        outcome.fails.push(FailEvent {
                                            addr,
                                            row,
                                            element: el_idx,
                                            op: op_idx,
                                            background: bg_idx,
                                        });
                                        if config.stop_at_first {
                                            break 'backgrounds;
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    outcome
}

/// Runs `test` in full-diagnosis mode: every mismatch is logged with its
/// per-bit fail bitmap (`read XOR expected`), and the run never stops
/// early — a diagnosis signature must be complete to be matchable
/// against a fault dictionary. The background schedule of `config` is
/// honoured; `stop_at_first` is ignored.
pub fn run_march_diagnose(
    test: &MarchTest,
    ram: &mut SramModel,
    config: &MarchConfig,
    map: Option<&dyn RowMap>,
) -> MarchSignature {
    let bpw = ram.org().bpw();
    let words = ram.org().words();
    let backgrounds = match &config.schedule {
        BackgroundSchedule::Johnson => datagen::backgrounds(bpw),
        BackgroundSchedule::Single => datagen::single_background(bpw),
        BackgroundSchedule::Explicit(v) => v.clone(),
    };

    let mut sig = MarchSignature {
        test: test.name().to_owned(),
        words,
        bpw,
        backgrounds_run: 0,
        records: Vec::new(),
    };

    for (bg_idx, bg) in backgrounds.iter().enumerate() {
        sig.backgrounds_run = bg_idx + 1;
        let inv = !bg.clone();
        for (el_idx, element) in test.elements().iter().enumerate() {
            match element {
                MarchElement::Delay => ram.retention_pause(),
                MarchElement::Sweep { order, ops } => {
                    let sweep: Box<dyn Iterator<Item = usize>> = if order.effective_up() {
                        Box::new(0..words)
                    } else {
                        Box::new((0..words).rev())
                    };
                    for addr in sweep {
                        let (row, col) = ram.org().split(addr);
                        let phys_row = map.map_or(row, |m| m.map_row(row));
                        for (op_idx, op) in ops.iter().enumerate() {
                            let data = if op.is_inverse() { &inv } else { bg };
                            match op {
                                MarchOp::W0 | MarchOp::W1 => {
                                    ram.write_word_at(phys_row, col, data.clone());
                                }
                                MarchOp::R0 | MarchOp::R1 => {
                                    let read = ram.read_word_at(phys_row, col);
                                    if mismatch(&read, data) {
                                        sig.records.push(FailRecord {
                                            addr,
                                            row,
                                            col,
                                            element: el_idx,
                                            op: op_idx,
                                            background: bg_idx,
                                            fail_bits: &read ^ data,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    sig
}

/// Runs `test` over the *spare rows only* (physical rows
/// `rows()..total_rows()`), used by the repair flow to verify that spares
/// themselves are fault-free before relying on them, and by the second
/// pass to test mapped redundant locations. Returns the physical spare
/// rows that failed.
pub fn test_spare_rows(test: &MarchTest, ram: &mut SramModel, config: &MarchConfig) -> Vec<usize> {
    let rows: Vec<usize> = (ram.org().rows()..ram.org().total_rows()).collect();
    test_physical_rows(test, ram, config, &rows)
}

/// Runs `test` destructively over an explicit set of physical rows,
/// returning the ones that failed (sorted, deduplicated).
///
/// This is the row-subset variant the in-field engine needs: periodic
/// spare-region checks must cover only the *unassigned* spares, because
/// assigned spares hold live user data (those are screened transparently
/// through the TLB instead). Out-of-range rows are ignored rather than
/// panicking — the caller's bookkeeping may lag the hardware, and a
/// field check must not abort on a stale address.
pub fn test_physical_rows(
    test: &MarchTest,
    ram: &mut SramModel,
    config: &MarchConfig,
    rows: &[usize],
) -> Vec<usize> {
    let bpw = ram.org().bpw();
    let backgrounds = match &config.schedule {
        BackgroundSchedule::Johnson => datagen::backgrounds(bpw),
        BackgroundSchedule::Single => datagen::single_background(bpw),
        BackgroundSchedule::Explicit(v) => v.clone(),
    };
    let total = ram.org().total_rows();
    let bpc = ram.org().bpc();
    let positions_up: Vec<(usize, usize)> = rows
        .iter()
        .filter(|&&r| r < total)
        .flat_map(|&r| (0..bpc).map(move |c| (r, c)))
        .collect();
    let mut failed: Vec<usize> = Vec::new();

    for bg in &backgrounds {
        let inv = !bg.clone();
        for element in test.elements() {
            match element {
                MarchElement::Delay => ram.retention_pause(),
                MarchElement::Sweep { order, ops } => {
                    let positions: Box<dyn Iterator<Item = &(usize, usize)>> =
                        if order.effective_up() {
                            Box::new(positions_up.iter())
                        } else {
                            Box::new(positions_up.iter().rev())
                        };
                    for &(row, col) in positions {
                        for op in ops {
                            let data = if op.is_inverse() { &inv } else { bg };
                            match op {
                                MarchOp::W0 | MarchOp::W1 => {
                                    ram.write_word_at(row, col, data.clone())
                                }
                                MarchOp::R0 | MarchOp::R1 => {
                                    let read = ram.read_word_at(row, col);
                                    if mismatch(&read, data) {
                                        failed.push(row);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    failed.sort_unstable();
    failed.dedup();
    failed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::march;
    use bisram_mem::{ArrayOrg, Fault, FaultKind};

    fn ram(spares: usize) -> SramModel {
        SramModel::new(ArrayOrg::new(256, 8, 4, spares).unwrap())
    }

    #[test]
    fn fault_free_memory_passes_every_test() {
        for test in march::library() {
            let mut m = ram(0);
            let out = run_march(&test, &mut m, &MarchConfig::default(), None);
            assert!(!out.detected(), "{} false-alarmed", test.name());
            assert!(out.reads() > 0 && out.writes() > 0);
        }
    }

    #[test]
    fn stuck_at_detected_and_localized() {
        let mut m = ram(0);
        let cell = m.org().cell_at(5, 2, 3);
        m.inject(Fault::new(cell, FaultKind::StuckAt(true)));
        let out = run_march(&march::ifa9(), &mut m, &MarchConfig::default(), None);
        assert!(out.detected());
        assert_eq!(out.faulty_rows(), vec![5]);
        // Every fail event points at the faulty word address.
        let addr = m.org().join(5, 2);
        assert!(out.fails().iter().all(|f| f.addr == addr));
    }

    #[test]
    fn quick_config_stops_early() {
        let mut m = ram(0);
        m.inject(Fault::new(0, FaultKind::StuckAt(true)));
        m.inject(Fault::new(
            m.org().cell_at(10, 0, 0),
            FaultKind::StuckAt(true),
        ));
        let out = run_march(&march::ifa9(), &mut m, &MarchConfig::quick(), None);
        assert!(out.detected());
        assert_eq!(out.fails().len(), 1);
        assert_eq!(out.backgrounds_run(), 1);
    }

    #[test]
    fn retention_fault_needs_delay_elements() {
        // MATS+ has no delay: misses the DRF. IFA-9 has two: catches it.
        for (test, expect) in [(march::mats_plus(), false), (march::ifa9(), true)] {
            let mut m = ram(0);
            let cell = m.org().cell_at(3, 1, 0);
            m.inject(Fault::new(cell, FaultKind::Retention { leaks_to: false }));
            let out = run_march(&test, &mut m, &MarchConfig::default(), None);
            assert_eq!(out.detected(), expect, "{}", test.name());
        }
    }

    #[test]
    fn intra_word_state_coupling_needs_multiple_backgrounds() {
        // Aggressor and victim in the same word, with the forced value
        // equal to the sensitizing state: under all-zeros/all-ones data
        // the victim is only ever forced to the value it already holds,
        // so a single background is blind to the fault; the Johnson
        // schedule separates the two bits and exposes it.
        let build = || {
            let mut m = ram(0);
            let aggressor = m.org().cell_at(7, 1, 2);
            let victim = m.org().cell_at(7, 1, 5);
            m.inject(Fault::new(
                victim,
                FaultKind::StateCoupling {
                    aggressor,
                    state: true,
                    forced: true,
                },
            ));
            m
        };
        let single = run_march(
            &march::ifa9(),
            &mut build(),
            &MarchConfig {
                schedule: BackgroundSchedule::Single,
                stop_at_first: false,
            },
            None,
        );
        let johnson = run_march(&march::ifa9(), &mut build(), &MarchConfig::default(), None);
        assert!(
            !single.detected(),
            "single background should miss the intra-word CFst"
        );
        assert!(johnson.detected(), "johnson backgrounds must catch it");
    }

    #[test]
    fn row_map_translation_redirects_accesses() {
        struct SwapMap;
        impl RowMap for SwapMap {
            fn map_row(&self, row: usize) -> usize {
                // Swap rows 0 and 1.
                match row {
                    0 => 1,
                    1 => 0,
                    r => r,
                }
            }
        }
        // Fault in physical row 0; with the swap map logical row 1
        // touches it, logical row 0 does not.
        let mut m = ram(0);
        m.inject(Fault::new(
            m.org().cell_at(0, 0, 0),
            FaultKind::StuckAt(true),
        ));
        let out = run_march(
            &march::ifa9(),
            &mut m,
            &MarchConfig::default(),
            Some(&SwapMap),
        );
        assert!(out.detected());
        assert_eq!(
            out.faulty_rows(),
            vec![1],
            "fault shows up at logical row 1"
        );
    }

    #[test]
    fn spare_row_testing_flags_faulty_spares_only() {
        let mut m = ram(4);
        let first_spare = m.org().rows();
        // Fault in the second spare row.
        m.inject(Fault::new(
            m.org().cell_at(first_spare + 1, 0, 0),
            FaultKind::StuckAt(false),
        ));
        let failed = test_spare_rows(&march::ifa9(), &mut m, &MarchConfig::default());
        assert_eq!(failed, vec![first_spare + 1]);
        // Regular-array faults don't affect spare testing.
        let mut m2 = ram(4);
        m2.inject(Fault::new(0, FaultKind::StuckAt(true)));
        assert!(test_spare_rows(&march::ifa9(), &mut m2, &MarchConfig::default()).is_empty());
    }

    #[test]
    fn physical_row_subset_testing_covers_only_requested_rows() {
        let mut m = ram(4);
        let first_spare = m.org().rows();
        // Faults in two spares; ask about only one of them.
        m.inject(Fault::new(
            m.org().cell_at(first_spare, 0, 0),
            FaultKind::StuckAt(true),
        ));
        m.inject(Fault::new(
            m.org().cell_at(first_spare + 2, 0, 0),
            FaultKind::StuckAt(true),
        ));
        let failed = test_physical_rows(
            &march::ifa9(),
            &mut m,
            &MarchConfig::default(),
            &[first_spare + 1, first_spare + 2],
        );
        assert_eq!(failed, vec![first_spare + 2]);
        // The untested faulty spare's cells were never touched.
        assert_eq!(m.read_word_at(first_spare, 0).to_u64() & 1, 1);
        // Out-of-range rows are ignored, not a panic.
        let total = m.org().total_rows();
        let failed = test_physical_rows(
            &march::ifa9(),
            &mut m,
            &MarchConfig::default(),
            &[total, total + 7],
        );
        assert!(failed.is_empty());
    }

    #[test]
    fn diagnose_signature_attributes_every_failing_bit() {
        let mut m = ram(0);
        let org = *m.org();
        let c1 = org.cell_at(5, 2, 3);
        let c2 = org.cell_at(5, 2, 6);
        m.inject(Fault::new(c1, FaultKind::StuckAt(true)));
        m.inject(Fault::new(c2, FaultKind::StuckAt(true)));
        let sig = run_march_diagnose(&march::ifa9(), &mut m, &MarchConfig::default(), None);
        assert!(sig.detected());
        assert_eq!(sig.faulty_rows(), vec![5]);
        let addr = org.join(5, 2);
        // Both stuck bits appear in the suspect list, nothing else.
        assert_eq!(sig.suspects(), vec![(addr, 3), (addr, 6)]);
        // Records carry split coordinates and only the failing bits.
        for r in &sig.records {
            assert_eq!((r.addr, r.row, r.col), (addr, 5, 2));
            let bits: Vec<usize> = r.failing_bits().collect();
            assert!(!bits.is_empty());
            assert!(bits.iter().all(|&b| b == 3 || b == 6));
        }
        // Per-cell keys are non-empty, and the Johnson backgrounds give
        // the two bits *different* data — so their keys differ, which is
        // exactly the per-bit attribution diagnosis relies on.
        let k1 = sig.cell_key(addr, 3);
        let k2 = sig.cell_key(addr, 6);
        assert!(!k1.is_empty() && !k2.is_empty());
        assert_ne!(k1, k2);
    }

    #[test]
    fn diagnose_never_stops_early_and_matches_run_march() {
        let mut m = ram(0);
        m.inject(Fault::new(
            m.org().cell_at(0, 0, 0),
            FaultKind::StuckAt(true),
        ));
        m.inject(Fault::new(
            m.org().cell_at(10, 1, 2),
            FaultKind::StuckAt(false),
        ));
        // Even with a quick() config the diagnosis run logs everything.
        let sig = run_march_diagnose(&march::ifa9(), &mut m, &MarchConfig::quick(), None);
        assert!(sig.records.len() > 1);

        // Same schedule => the signature's (addr, element, op, background)
        // stream equals run_march's fail stream.
        let rebuild = || {
            let mut m = ram(0);
            m.inject(Fault::new(
                m.org().cell_at(0, 0, 0),
                FaultKind::StuckAt(true),
            ));
            m.inject(Fault::new(
                m.org().cell_at(10, 1, 2),
                FaultKind::StuckAt(false),
            ));
            m
        };
        let cfg = MarchConfig::default();
        let sig = run_march_diagnose(&march::ifa13(), &mut rebuild(), &cfg, None);
        let out = run_march(&march::ifa13(), &mut rebuild(), &cfg, None);
        let from_sig: Vec<FailEvent> = sig
            .records
            .iter()
            .map(|r| FailEvent {
                addr: r.addr,
                row: r.row,
                element: r.element,
                op: r.op,
                background: r.background,
            })
            .collect();
        assert_eq!(from_sig, out.fails());
        assert_eq!(sig.backgrounds_run, out.backgrounds_run());
    }

    #[test]
    fn operation_counts_match_formula() {
        let mut m = ram(0);
        let out = run_march(&march::mats_plus(), &mut m, &MarchConfig::quick(), None);
        // MATS+ = 5N with 2 reads and 3 writes per address over 1
        // background (quick).
        assert_eq!(out.reads() + out.writes(), 5 * 256);
        assert_eq!(out.reads(), 2 * 256);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::march::{AddrOrder, MarchElement, MarchOp, MarchTest};
    use bisram_mem::{ArrayOrg, Fault, FaultKind, SramModel};
    use bisram_rng::rngs::StdRng;
    use bisram_rng::{Rng, SeedableRng};

    const CASES: usize = 48;

    fn arb_op(rng: &mut StdRng) -> MarchOp {
        // Indexing a const array with a bounded draw cannot fail, unlike
        // `choose` whose Option would need unwrapping.
        const OPS: [MarchOp; 4] = [MarchOp::R0, MarchOp::R1, MarchOp::W0, MarchOp::W1];
        OPS[rng.gen_range(0..OPS.len())]
    }

    fn arb_order(rng: &mut StdRng) -> AddrOrder {
        const ORDERS: [AddrOrder; 3] = [AddrOrder::Up, AddrOrder::Down, AddrOrder::Either];
        ORDERS[rng.gen_range(0..ORDERS.len())]
    }

    fn arb_element(rng: &mut StdRng) -> MarchElement {
        let order = arb_order(rng);
        let ops = (0..rng.gen_range(1..5usize)).map(|_| arb_op(rng)).collect();
        MarchElement::Sweep { order, ops }
    }

    /// Random *well-formed* march: starts with an initializing write
    /// element and every element's first read matches the data state the
    /// previous element leaves behind. Simplification: we force each
    /// element to begin with a write, which makes any op sequence
    /// self-consistent for a fault-free memory. The stored state ("0" =
    /// background, "1" = inverse) is tracked and reads rewritten to
    /// expect it, producing a march clean by construction.
    fn arb_march(rng: &mut StdRng) -> MarchTest {
        let mut elements = Vec::new();
        for _ in 0..rng.gen_range(1..6usize) {
            let order = arb_order(rng);
            let first_write = if rng.gen_bool(0.5) {
                MarchOp::W0
            } else {
                MarchOp::W1
            };
            let mut state = !matches!(first_write, MarchOp::W0);
            let mut ops = vec![first_write];
            for _ in 0..rng.gen_range(0..4usize) {
                let fixed = match arb_op(rng) {
                    MarchOp::W0 => {
                        state = false;
                        MarchOp::W0
                    }
                    MarchOp::W1 => {
                        state = true;
                        MarchOp::W1
                    }
                    MarchOp::R0 | MarchOp::R1 => {
                        if state {
                            MarchOp::R1
                        } else {
                            MarchOp::R0
                        }
                    }
                };
                ops.push(fixed);
            }
            elements.push(MarchElement::Sweep { order, ops });
        }
        MarchTest::new("random", elements)
    }

    #[test]
    fn fault_free_memory_never_fails_a_wellformed_march() {
        let mut rng = StdRng::seed_from_u64(0xE61_0001);
        for case in 0..CASES {
            let test = arb_march(&mut rng);
            let org = ArrayOrg::new(64, 8, 4, 0).unwrap();
            let mut ram = SramModel::new(org);
            let out = run_march(&test, &mut ram, &MarchConfig::default(), None);
            assert!(!out.detected(), "case {case}: false alarm on {test}");
        }
    }

    #[test]
    fn operation_counts_match_the_formula() {
        let mut rng = StdRng::seed_from_u64(0xE61_0002);
        for case in 0..CASES {
            let test = arb_march(&mut rng);
            let org = ArrayOrg::new(64, 8, 4, 0).unwrap();
            let mut ram = SramModel::new(org);
            let out = run_march(&test, &mut ram, &MarchConfig::quick(), None);
            // quick() stops early only on detection; fault-free runs all.
            assert_eq!(
                out.reads() + out.writes(),
                test.operation_count(64),
                "case {case}: {test}"
            );
        }
    }

    #[test]
    fn engine_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(0xE61_0003);
        for case in 0..CASES {
            let element = arb_element(&mut rng);
            let test = MarchTest::new("det", vec![MarchElement::either(&[MarchOp::W0]), element]);
            let org = ArrayOrg::new(64, 8, 4, 0).unwrap();
            let run = |seed_cell: usize| {
                let mut ram = SramModel::new(org);
                ram.inject(Fault::new(seed_cell, FaultKind::StuckAt(true)));
                run_march(&test, &mut ram, &MarchConfig::default(), None)
            };
            assert_eq!(run(100), run(100), "case {case}: {test}");
        }
    }

    #[test]
    fn any_wellformed_march_with_a_read_detects_a_stuck_pair() {
        let mut rng = StdRng::seed_from_u64(0xE61_0004);
        let mut checked = 0;
        for case in 0..CASES * 2 {
            // A cell stuck at 0 AND its word-mate stuck at 1 guarantee a
            // mismatch on every read of that word, whatever the data.
            let test = arb_march(&mut rng);
            let has_read = test.elements().iter().any(|e| {
                matches!(e, MarchElement::Sweep { ops, .. }
                    if ops.iter().any(|o| o.is_read()))
            });
            if !has_read {
                continue; // the seeded analogue of prop_assume!
            }
            checked += 1;
            let org = ArrayOrg::new(64, 8, 4, 0).unwrap();
            let mut ram = SramModel::new(org);
            ram.inject(Fault::new(org.cell_at(3, 1, 0), FaultKind::StuckAt(false)));
            ram.inject(Fault::new(org.cell_at(3, 1, 1), FaultKind::StuckAt(true)));
            let out = run_march(&test, &mut ram, &MarchConfig::default(), None);
            assert!(out.detected(), "case {case}: {test}");
        }
        assert!(checked >= CASES / 2, "only {checked} marches had a read");
    }
}
