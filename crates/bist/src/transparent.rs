//! Transparent BIST — the Kebichi–Nicolaidis technique of paper §III.
//!
//! "A RAM generator was described by Kebichi and Nicolaidis for RAMs
//! equipped with BIST and *transparent* BIST, i.e., BIST techniques that
//! result in the normal-mode contents of the RAM to remain unmodified at
//! the end of the self-test." BISRAMGEN's destructive IFA-9 is fine at
//! manufacturing time; for periodic *field* self-test of an embedded
//! cache, a transparent variant is the natural extension, so this module
//! implements the classical transformation:
//!
//! * data becomes content-relative — a `w0`/`r0` refers to each word's
//!   *initial* content `c`, a `w1`/`r1` to its complement `~c`;
//! * a **prediction phase** simulates the read sequence against the
//!   initial contents and compresses the expected read stream into a
//!   MISR signature;
//! * the **test phase** executes the march for real, compressing actual
//!   read data into a second signature; any mismatch signals a fault;
//! * if the march leaves the complement in memory, a restoring write
//!   element is appended so the contents end unmodified.
//!
//! The classical caveat applies: a fault that already corrupted the
//! initial contents consistently (e.g. a stuck-at cell already holding
//! its stuck value with matching writes) is invisible to a transparent
//! test, because "initial content" is read through the fault.

use crate::march::{MarchElement, MarchOp, MarchTest};
use crate::RowMap;
use bisram_mem::{SramModel, Word};

/// A signature register compressing the read stream.
///
/// A 64-stage Galois LFSR with the primitive feedback polynomial
/// `x⁶⁴ + x⁴ + x³ + x + 1`, clocked once per data bit (the
/// serial-equivalent of a hardware MISR). A corrupted stream aliases
/// only when its error polynomial is divisible by the feedback
/// polynomial; with a primitive polynomial that requires error-bit
/// spacings on the order of `2⁶⁴` clocks, so every one- or two-bit
/// corruption a march session can produce is guaranteed to change the
/// signature, and larger error patterns alias with probability `≈2⁻⁶⁴`.
///
/// (An earlier rotate-and-xor compactor turned out to cancel pairs of
/// identical bit flips seven rotations apart — a structural aliasing the
/// seeded sweep in this module's tests now guards against.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Misr {
    state: u64,
}

impl Misr {
    /// Feedback taps of `x⁶⁴ + x⁴ + x³ + x + 1` (the `x⁶⁴` term is the
    /// implicit shift-out).
    const POLY: u64 = 0x1B;

    /// A cleared signature register.
    pub fn new() -> Self {
        Misr { state: 0 }
    }

    /// Absorbs one read word, LSB first.
    pub fn absorb(&mut self, word: &Word) {
        for bit in word.iter() {
            let carry = self.state >> 63;
            self.state = (self.state << 1) ^ u64::from(bit);
            if carry == 1 {
                self.state ^= Self::POLY;
            }
        }
    }

    /// The current signature.
    pub fn signature(&self) -> u64 {
        self.state
    }
}

impl Default for Misr {
    fn default() -> Self {
        Misr::new()
    }
}

/// Outcome of a transparent self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransparentOutcome {
    /// Signature predicted from the initial contents.
    pub predicted: u64,
    /// Signature observed during the test phase.
    pub observed: u64,
    /// Reads compressed into each signature.
    pub reads: u64,
}

impl TransparentOutcome {
    /// True when the signatures disagree — a fault was exposed.
    pub fn detected(&self) -> bool {
        self.predicted != self.observed
    }
}

/// One word-level mismatch found by [`run_transparent_diagnose`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransparentMismatch {
    /// Logical word address of the failing read.
    pub addr: usize,
    /// Logical row of that address — the unit of repair.
    pub row: usize,
    /// What the prediction phase said the read should return.
    pub expected: Word,
    /// What the memory actually returned.
    pub got: Word,
}

/// Outcome of a diagnosing transparent run: word-exact comparison
/// instead of signature compaction, so there is no aliasing and the
/// failing rows are known — the bookkeeping an in-field repair session
/// needs after a signature-only screen has raised the alarm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransparentDiagnosis {
    /// Distinct logical rows with at least one mismatching read,
    /// ascending.
    pub faulty_rows: Vec<usize>,
    /// Every mismatching read, in occurrence order.
    pub mismatches: Vec<TransparentMismatch>,
    /// Reads performed in the test phase.
    pub reads: u64,
}

impl TransparentDiagnosis {
    /// True when at least one read disagreed with its prediction.
    pub fn detected(&self) -> bool {
        !self.mismatches.is_empty()
    }
}

/// The effective element list of a transparent run: the test itself
/// plus a restoring write when its net effect leaves the complement
/// stored. Shared with the lane-packed engine ([`crate::lane`]) so both
/// execute the identical element sequence.
pub(crate) fn transparent_elements(test: &MarchTest) -> Vec<MarchElement> {
    let mut elements: Vec<MarchElement> = test.elements().to_vec();
    if last_write_is_inverse(test) {
        elements.push(MarchElement::either(&[MarchOp::W0]));
    }
    elements
}

/// Phase 0: fetch the initial contents (real reads; a transparent test's
/// notion of "0" is whatever is stored right now).
fn read_initial(ram: &mut SramModel, map: Option<&dyn RowMap>) -> Vec<Word> {
    let org = *ram.org();
    let mut initial: Vec<Word> = Vec::with_capacity(org.words());
    for addr in 0..org.words() {
        let (row, col) = org.split(addr);
        let prow = map.map_or(row, |m| m.map_row(row));
        initial.push(ram.read_word_at(prow, col));
    }
    initial
}

/// Phase 1: prediction — simulate the march against a virtual copy of
/// the initial contents and emit the expected word of every read, in
/// read order (the exact order phase 2 performs them).
fn predicted_reads(elements: &[MarchElement], initial: &[Word]) -> Vec<(usize, Word)> {
    let words = initial.len();
    let mut expected: Vec<(usize, Word)> = Vec::new();
    let mut virt: Vec<bool> = vec![false; words]; // false = holds c, true = holds ~c
    for element in elements {
        let MarchElement::Sweep { order, ops } = element else {
            continue; // delays do not touch data
        };
        let sweep: Box<dyn Iterator<Item = usize>> = if order.effective_up() {
            Box::new(0..words)
        } else {
            Box::new((0..words).rev())
        };
        for addr in sweep {
            for op in ops {
                match op {
                    MarchOp::W0 => virt[addr] = false,
                    MarchOp::W1 => virt[addr] = true,
                    MarchOp::R0 | MarchOp::R1 => {
                        let w = if virt[addr] {
                            !initial[addr].clone()
                        } else {
                            initial[addr].clone()
                        };
                        expected.push((addr, w));
                    }
                }
            }
        }
    }
    expected
}

/// Phase 2: the real test with content-relative data. Every read is
/// handed to `on_read(addr, got)` in the same order the prediction phase
/// emitted its expectations.
fn execute_test_phase(
    elements: &[MarchElement],
    initial: &[Word],
    ram: &mut SramModel,
    map: Option<&dyn RowMap>,
    mut on_read: impl FnMut(usize, Word),
) {
    let org = *ram.org();
    let words = org.words();
    for element in elements {
        match element {
            MarchElement::Delay => ram.retention_pause(),
            MarchElement::Sweep { order, ops } => {
                let sweep: Box<dyn Iterator<Item = usize>> = if order.effective_up() {
                    Box::new(0..words)
                } else {
                    Box::new((0..words).rev())
                };
                for addr in sweep {
                    let (row, col) = org.split(addr);
                    let prow = map.map_or(row, |m| m.map_row(row));
                    for op in ops {
                        match op {
                            MarchOp::W0 => ram.write_word_at(prow, col, initial[addr].clone()),
                            MarchOp::W1 => ram.write_word_at(prow, col, !initial[addr].clone()),
                            MarchOp::R0 | MarchOp::R1 => {
                                let got = ram.read_word_at(prow, col);
                                on_read(addr, got);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Runs the transparent version of `test` over the memory, through the
/// optional row mapping.
///
/// The memory's normal-mode contents are unmodified afterwards
/// (fault-free hardware; fault sites may of course end corrupted —
/// that is what the signature flags).
pub fn run_transparent(
    test: &MarchTest,
    ram: &mut SramModel,
    map: Option<&dyn RowMap>,
) -> TransparentOutcome {
    let initial = read_initial(ram, map);
    let elements = transparent_elements(test);

    let expected = predicted_reads(&elements, &initial);
    let mut predictor = Misr::new();
    for (_, w) in &expected {
        predictor.absorb(w);
    }

    let mut observer = Misr::new();
    execute_test_phase(&elements, &initial, ram, map, |_, got| {
        observer.absorb(&got);
    });

    TransparentOutcome {
        predicted: predictor.signature(),
        observed: observer.signature(),
        reads: expected.len() as u64,
    }
}

/// Runs the transparent test in *diagnosis* mode: instead of compacting
/// the read streams into signatures, every real read is compared against
/// its predicted word directly, producing the failing addresses and rows.
///
/// This is what a field repair controller runs after a signature
/// mismatch: the cheap MISR screen says *something* is wrong, the
/// diagnosing re-run says *where*, and the row list feeds incremental
/// repair. Contents are preserved exactly as in [`run_transparent`].
pub fn run_transparent_diagnose(
    test: &MarchTest,
    ram: &mut SramModel,
    map: Option<&dyn RowMap>,
) -> TransparentDiagnosis {
    let org = *ram.org();
    let initial = read_initial(ram, map);
    let elements = transparent_elements(test);
    let expected = predicted_reads(&elements, &initial);

    let mut mismatches: Vec<TransparentMismatch> = Vec::new();
    let mut idx = 0usize;
    execute_test_phase(&elements, &initial, ram, map, |addr, got| {
        // Reads arrive in the exact order the prediction emitted them;
        // both phases walk the same element list over the same geometry.
        if let Some((exp_addr, exp)) = expected.get(idx) {
            debug_assert_eq!(*exp_addr, addr, "phase read-order divergence");
            if *exp != got {
                mismatches.push(TransparentMismatch {
                    addr,
                    row: org.split(addr).0,
                    expected: exp.clone(),
                    got,
                });
            }
        }
        idx += 1;
    });

    let mut faulty_rows: Vec<usize> = mismatches.iter().map(|m| m.row).collect();
    faulty_rows.sort_unstable();
    faulty_rows.dedup();
    TransparentDiagnosis {
        faulty_rows,
        mismatches,
        reads: idx as u64,
    }
}

/// True when the last write of the march stores the complement — i.e.
/// the transparent run must append a restoring element.
fn last_write_is_inverse(test: &MarchTest) -> bool {
    for element in test.elements().iter().rev() {
        if let MarchElement::Sweep { ops, .. } = element {
            for op in ops.iter().rev() {
                match op {
                    MarchOp::W0 => return false,
                    MarchOp::W1 => return true,
                    _ => {}
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::march;
    use bisram_mem::{ArrayOrg, Fault, FaultKind};
    use bisram_rng::rngs::StdRng;
    use bisram_rng::{Rng, SeedableRng};

    fn loaded_ram() -> (SramModel, Vec<Word>) {
        let org = ArrayOrg::new(128, 8, 4, 0).unwrap();
        let mut ram = SramModel::new(org);
        let mut rng = StdRng::seed_from_u64(5);
        let mut contents = Vec::new();
        for addr in 0..org.words() {
            let w = Word::from_u64(rng.gen::<u64>() & 0xFF, 8);
            ram.write_word(addr, w.clone());
            contents.push(w);
        }
        (ram, contents)
    }

    #[test]
    fn fault_free_run_preserves_contents_and_signature() {
        for test in [march::ifa9(), march::march_c_minus(), march::mats_plus()] {
            let (mut ram, contents) = loaded_ram();
            let outcome = run_transparent(&test, &mut ram, None);
            assert!(!outcome.detected(), "{} false alarm", test.name());
            assert!(outcome.reads > 0);
            for (addr, expect) in contents.iter().enumerate() {
                assert_eq!(
                    &ram.read_word(addr),
                    expect,
                    "{}: contents clobbered at {addr}",
                    test.name()
                );
            }
        }
    }

    #[test]
    fn destructive_test_clobbers_what_transparent_preserves() {
        use crate::engine::{run_march, MarchConfig};
        let (mut ram, contents) = loaded_ram();
        let _ = run_march(&march::ifa9(), &mut ram, &MarchConfig::quick(), None);
        let clobbered = (0..contents.len())
            .filter(|&a| ram.read_word(a) != contents[a])
            .count();
        assert!(
            clobbered > contents.len() / 2,
            "the destructive run should wipe most contents"
        );
    }

    #[test]
    fn transition_fault_detected_transparently() {
        let (mut ram, _) = loaded_ram();
        let cell = ram.org().cell_at(9, 2, 3);
        ram.inject(Fault::new(cell, FaultKind::TransitionUp));
        let outcome = run_transparent(&march::ifa9(), &mut ram, None);
        assert!(outcome.detected());
    }

    #[test]
    fn coupling_fault_detected_and_distant_contents_survive() {
        let (mut ram, contents) = loaded_ram();
        let aggressor = ram.org().cell_at(3, 0, 0);
        let victim = ram.org().cell_at(20, 1, 5);
        ram.inject(Fault::new(
            victim,
            FaultKind::CouplingInv {
                aggressor,
                rising: true,
            },
        ));
        let outcome = run_transparent(&march::ifa9(), &mut ram, None);
        assert!(outcome.detected());
        // Words untouched by the fault pair keep their data.
        let safe_addr = ram.org().join(25, 2);
        assert_eq!(ram.read_word(safe_addr), contents[safe_addr]);
    }

    #[test]
    fn known_stuck_at_limitation_is_documented_behaviour() {
        // A stuck-at-1 cell whose initial content bit is read as 1: the
        // transparent test sees a consistent world on the r0 ops, but
        // the complement writes expose it, so IFA-9 still detects. The
        // truly invisible case is a memory whose faulty cell is never
        // driven to the opposite value — a single w0-only element.
        let org = ArrayOrg::new(64, 8, 4, 0).unwrap();
        let mut ram = SramModel::new(org);
        ram.inject(Fault::new(org.cell_at(2, 0, 0), FaultKind::StuckAt(true)));
        let blind = MarchTest::new("blind", vec![MarchElement::up(&[MarchOp::R0])]);
        let outcome = run_transparent(&blind, &mut ram, None);
        assert!(
            !outcome.detected(),
            "a read-only transparent pass cannot see a settled stuck-at"
        );
        // The full IFA-9 does.
        let outcome = run_transparent(&march::ifa9(), &mut ram, None);
        assert!(outcome.detected());
    }

    #[test]
    fn restore_element_logic() {
        assert!(last_write_is_inverse(&MarchTest::new(
            "t",
            vec![
                MarchElement::up(&[MarchOp::W1]),
                MarchElement::up(&[MarchOp::R1])
            ],
        )));
        assert!(!last_write_is_inverse(&march::march_c_minus()));
        assert!(last_write_is_inverse(&march::ifa9()));
        assert!(!last_write_is_inverse(&MarchTest::new(
            "reads",
            vec![MarchElement::up(&[MarchOp::R0])],
        )));
    }

    #[test]
    fn misr_distinguishes_streams() {
        let mut a = Misr::new();
        let mut b = Misr::new();
        for i in 0..50u64 {
            a.absorb(&Word::from_u64(i, 8));
            // One bit differs in one word.
            b.absorb(&Word::from_u64(if i == 20 { i ^ 4 } else { i }, 8));
        }
        assert_ne!(a.signature(), b.signature());
        // Identical streams agree.
        let mut c = Misr::new();
        for i in 0..50u64 {
            c.absorb(&Word::from_u64(i, 8));
        }
        assert_eq!(a.signature(), c.signature());
    }

    #[test]
    fn order_sensitivity_of_the_misr() {
        // Swapped words must change the signature (rotation makes the
        // compactor order-sensitive).
        let mut a = Misr::new();
        a.absorb(&Word::from_u64(1, 8));
        a.absorb(&Word::from_u64(2, 8));
        let mut b = Misr::new();
        b.absorb(&Word::from_u64(2, 8));
        b.absorb(&Word::from_u64(1, 8));
        assert_ne!(a.signature(), b.signature());
    }

    #[test]
    fn misr_aliasing_probability_sweep() {
        // Empirical aliasing estimate: corrupt a random read stream in
        // 1..=4 random positions and count signature collisions with the
        // clean stream. For a sound 64-bit compactor the aliasing
        // probability is ~2^-64, so over a few thousand seeded trials the
        // observed collision count must be exactly zero — one collision
        // here would mean a structural weakness (e.g. a fold that
        // cancels), not bad luck.
        let mut rng = StdRng::seed_from_u64(0x3153_0001);
        let mut collisions = 0usize;
        const TRIALS: usize = 4096;
        for _ in 0..TRIALS {
            let len = rng.gen_range(8usize..64);
            let stream: Vec<u64> = (0..len).map(|_| rng.gen::<u64>() & 0xFF).collect();
            let mut corrupted = stream.clone();
            for _ in 0..rng.gen_range(1usize..5) {
                let pos = rng.gen_range(0..len);
                let bit = rng.gen_range(0..8u32);
                corrupted[pos] ^= 1 << bit;
            }
            if corrupted == stream {
                continue; // double flips can cancel; only differing streams count
            }
            let mut clean = Misr::new();
            let mut dirty = Misr::new();
            for (&c, &d) in stream.iter().zip(&corrupted) {
                clean.absorb(&Word::from_u64(c, 8));
                dirty.absorb(&Word::from_u64(d, 8));
            }
            if clean.signature() == dirty.signature() {
                collisions += 1;
            }
        }
        assert_eq!(
            collisions, 0,
            "observed {collisions}/{TRIALS} aliasing collisions"
        );
    }

    #[test]
    fn signature_is_stable_across_fault_free_reruns() {
        // Repeated transparent sessions over unchanged contents must
        // produce the same (predicted, observed) signature pair every
        // time — the property that lets a field controller treat any
        // signature change as a detection event.
        for test in [march::mats_plus(), march::ifa9()] {
            let (mut ram, _) = loaded_ram();
            let first = run_transparent(&test, &mut ram, None);
            for run in 1..4 {
                let again = run_transparent(&test, &mut ram, None);
                assert_eq!(
                    (first.predicted, first.observed),
                    (again.predicted, again.observed),
                    "{} run {run}: signature drifted on a fault-free memory",
                    test.name()
                );
                assert!(!again.detected());
            }
        }
    }

    #[test]
    fn signatures_depend_on_contents() {
        // Different user data ⇒ different signatures (the transparent
        // test really is content-relative, not a fixed pattern).
        let (mut ram_a, _) = loaded_ram();
        let sig_a = run_transparent(&march::mats_plus(), &mut ram_a, None);
        let org = *ram_a.org();
        let mut ram_b = SramModel::new(org);
        for addr in 0..org.words() {
            ram_b.write_word(addr, Word::from_u64(addr as u64 & 0xFF, 8));
        }
        let sig_b = run_transparent(&march::mats_plus(), &mut ram_b, None);
        assert_ne!(sig_a.predicted, sig_b.predicted);
    }

    #[test]
    fn transparent_preserves_user_data_seeded_sweep() {
        // The regression demanded of `run_transparent`: across seeded
        // random contents and every library march, a fault-free memory
        // ends the session byte-identical to how it started.
        let mut rng = StdRng::seed_from_u64(0x3153_0002);
        for case in 0..24 {
            let org = ArrayOrg::new(64, 8, 4, 0).unwrap();
            let mut ram = SramModel::new(org);
            let contents: Vec<Word> = (0..org.words())
                .map(|addr| {
                    let w = Word::from_u64(rng.gen::<u64>() & 0xFF, 8);
                    ram.write_word(addr, w.clone());
                    w
                })
                .collect();
            for test in march::library() {
                let outcome = run_transparent(&test, &mut ram, None);
                assert!(
                    !outcome.detected(),
                    "case {case} {}: false alarm",
                    test.name()
                );
                for (addr, expect) in contents.iter().enumerate() {
                    assert_eq!(
                        &ram.read_word(addr),
                        expect,
                        "case {case} {}: clobbered addr {addr}",
                        test.name()
                    );
                }
            }
        }
    }

    #[test]
    fn diagnose_localizes_faulty_rows_and_preserves_data() {
        let (mut ram, contents) = loaded_ram();
        let c1 = ram.org().cell_at(9, 2, 3);
        let c2 = ram.org().cell_at(21, 0, 0);
        ram.inject(Fault::new(c1, FaultKind::TransitionUp));
        ram.inject(Fault::new(c2, FaultKind::TransitionDown));
        let diag = run_transparent_diagnose(&march::ifa9(), &mut ram, None);
        assert!(diag.detected());
        assert_eq!(diag.faulty_rows, vec![9, 21]);
        assert!(diag.reads > 0);
        // Mismatch records carry coherent address/row pairs and real
        // expected/got divergence.
        for m in &diag.mismatches {
            assert_eq!(m.row, ram.org().split(m.addr).0);
            assert_ne!(m.expected, m.got);
        }
        // Rows away from the fault sites keep their data.
        let safe = ram.org().join(30, 1);
        assert_eq!(ram.read_word(safe), contents[safe]);
    }

    #[test]
    fn diagnose_agrees_with_signature_screen() {
        // On a fault-free memory both modes are quiet; with a detectable
        // fault both raise — diagnosis is the exact-compare refinement of
        // the MISR screen.
        let (mut ram, _) = loaded_ram();
        let quiet = run_transparent_diagnose(&march::ifa9(), &mut ram, None);
        assert!(!quiet.detected());
        assert!(quiet.faulty_rows.is_empty());

        let cell = ram.org().cell_at(14, 1, 6);
        ram.inject(Fault::new(cell, FaultKind::TransitionUp));
        let screen_ram = &mut ram.clone();
        let screen = run_transparent(&march::ifa9(), screen_ram, None);
        let diag = run_transparent_diagnose(&march::ifa9(), &mut ram, None);
        assert_eq!(screen.detected(), diag.detected());
        assert_eq!(diag.faulty_rows, vec![14]);
    }

    #[test]
    fn diagnose_works_through_a_row_map() {
        struct Offset;
        impl RowMap for Offset {
            fn map_row(&self, row: usize) -> usize {
                if row == 0 {
                    32
                } else {
                    row
                }
            }
        }
        let org = ArrayOrg::new(128, 8, 4, 1).unwrap();
        let mut ram = SramModel::new(org);
        // Fault in physical row 32 (where logical 0 diverts).
        ram.inject(Fault::new(org.cell_at(32, 0, 0), FaultKind::TransitionUp));
        let diag = run_transparent_diagnose(&march::ifa9(), &mut ram, Some(&Offset));
        assert_eq!(
            diag.faulty_rows,
            vec![0],
            "diagnosis reports logical rows, the repair domain"
        );
    }
}
