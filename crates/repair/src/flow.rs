//! The two-pass self-test-and-repair flow.
//!
//! Paper §V: "The test involves two passes. In the first pass, the memory
//! array is tested and faulty addresses are stored in a translation
//! lookaside buffer (TLB). In the second pass, the array is retested
//! along with the mapped redundant addresses. Any fault detected in the
//! second pass produces a 'Repair Unsuccessful' status signal, which
//! implies either too many faults in the memory array or faulty spares.
//! This two-pass algorithm can be easily converted to a 2·k-pass
//! algorithm; that is, the cycle of self-testing and self-repair may be
//! iterated to repair faults within the spares themselves."

use crate::tlb::Tlb;
use bisram_bist::engine::{run_march, MarchConfig};
use bisram_bist::march::{self, MarchTest};
use bisram_bist::RowMap;
use bisram_mem::SramModel;

/// Configuration of a repair session.
#[derive(Debug, Clone)]
pub struct RepairSetup {
    /// March test to run (IFA-9 by default, as microprogrammed into the
    /// TRPLA).
    pub test: MarchTest,
    /// Engine configuration (Johnson backgrounds, full fail logging).
    pub march: MarchConfig,
    /// Maximum test passes. `2` is the paper's base algorithm (one
    /// capture pass, one verify pass); larger values enable the iterated
    /// variant that replaces faulty spares.
    pub max_passes: usize,
}

impl Default for RepairSetup {
    fn default() -> Self {
        RepairSetup {
            test: march::ifa9(),
            march: MarchConfig::default(),
            max_passes: 2,
        }
    }
}

impl RepairSetup {
    /// The iterated `2·k`-pass variant able to repair faulty spares.
    pub fn iterated(max_passes: usize) -> Self {
        assert!(max_passes >= 2, "need at least capture + verify");
        RepairSetup {
            max_passes,
            ..RepairSetup::default()
        }
    }
}

/// Why a repair session failed.
///
/// Both variants carry the logical rows that were still faulty when the
/// flow gave up, so callers (the yield simulator's diagnosis path, the
/// in-field lifetime engine's unrepairable-region map) can act on the
/// surviving addresses instead of only knowing a count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnrepairableReason {
    /// More faulty rows than free spares (at some pass).
    OutOfSpares {
        /// Rows that still needed mapping when the spares ran out.
        unmapped_rows: usize,
        /// The logical rows left without a spare, in address order.
        surviving_rows: Vec<usize>,
    },
    /// Mismatches persisted through the final allowed pass.
    FaultsPersist {
        /// The logical rows still failing in the last pass, in address
        /// order.
        surviving_rows: Vec<usize>,
    },
}

impl UnrepairableReason {
    /// The logical rows still faulty when the flow gave up, regardless
    /// of which way it failed.
    pub fn surviving_rows(&self) -> &[usize] {
        match self {
            UnrepairableReason::OutOfSpares { surviving_rows, .. }
            | UnrepairableReason::FaultsPersist { surviving_rows } => surviving_rows,
        }
    }
}

/// Outcome of a repair session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepairOutcome {
    /// Pass 1 found no faults: the array is good as manufactured.
    AlreadyGood,
    /// Repair succeeded: the final verify pass was clean.
    Repaired {
        /// Spares consumed (including any burned on faulty spares).
        spares_used: usize,
    },
    /// The paper's "Repair Unsuccessful" status signal.
    Unsuccessful {
        /// Diagnosis.
        reason: UnrepairableReason,
    },
}

impl RepairOutcome {
    /// True for both `AlreadyGood` and `Repaired`.
    pub fn is_usable(&self) -> bool {
        !matches!(self, RepairOutcome::Unsuccessful { .. })
    }

    /// True only when spares were actually deployed.
    pub fn is_repaired(&self) -> bool {
        matches!(self, RepairOutcome::Repaired { .. })
    }
}

/// Full report of a repair session.
#[derive(Debug, Clone)]
pub struct RepairReport {
    /// Final outcome.
    pub outcome: RepairOutcome,
    /// The TLB as programmed (useful even on failure, for diagnosis).
    pub tlb: Tlb,
    /// Test passes executed.
    pub passes: usize,
    /// Faulty rows seen in the first pass.
    pub pass1_faulty_rows: Vec<usize>,
    /// Total memory operations spent on self-test.
    pub operations: u64,
}

/// Runs the self-test-and-repair flow on a memory.
///
/// Pass 1 runs the march unmapped and captures every distinct faulty row
/// into the TLB (strictly increasing spare assignment). Each subsequent
/// pass re-runs the march through the TLB; mismatching rows are captured
/// again (remapping rows whose spare was itself faulty) until a pass is
/// clean or `max_passes` is exhausted.
pub fn self_test_and_repair(ram: &mut SramModel, setup: &RepairSetup) -> RepairReport {
    let org = *ram.org();
    let mut tlb = Tlb::new(org.rows(), org.spare_rows());
    let mut operations: u64 = 0;

    // Pass 1: unmapped capture pass.
    let pass1 = run_march(&setup.test, ram, &setup.march, None);
    operations += pass1.reads() + pass1.writes();
    let pass1_faulty_rows = pass1.faulty_rows();
    if !pass1.detected() {
        return RepairReport {
            outcome: RepairOutcome::AlreadyGood,
            tlb,
            passes: 1,
            pass1_faulty_rows,
            operations,
        };
    }
    if let Err(e) = capture_rows(&mut tlb, &pass1_faulty_rows) {
        return RepairReport {
            outcome: RepairOutcome::Unsuccessful { reason: e },
            tlb,
            passes: 1,
            pass1_faulty_rows,
            operations,
        };
    }

    // Verify (and possibly iterate).
    let mut passes = 1;
    while passes < setup.max_passes {
        passes += 1;
        let verify = run_march(&setup.test, ram, &setup.march, Some(&tlb));
        operations += verify.reads() + verify.writes();
        if !verify.detected() {
            return RepairReport {
                outcome: RepairOutcome::Repaired {
                    spares_used: tlb.used(),
                },
                tlb,
                passes,
                pass1_faulty_rows,
                operations,
            };
        }
        if passes == setup.max_passes {
            return RepairReport {
                outcome: RepairOutcome::Unsuccessful {
                    reason: UnrepairableReason::FaultsPersist {
                        surviving_rows: verify.faulty_rows(),
                    },
                },
                tlb,
                passes,
                pass1_faulty_rows,
                operations,
            };
        }
        // Iterated variant: recapture the still-failing rows (their
        // spares were faulty, or they are newly exposed rows).
        if let Err(e) = capture_rows(&mut tlb, &verify.faulty_rows()) {
            return RepairReport {
                outcome: RepairOutcome::Unsuccessful { reason: e },
                tlb,
                passes,
                pass1_faulty_rows,
                operations,
            };
        }
    }

    // Only reachable with `max_passes == 1`: capture ran but no verify
    // pass was allowed, so the pass-1 rows count as unverified survivors.
    RepairReport {
        outcome: RepairOutcome::Unsuccessful {
            reason: UnrepairableReason::FaultsPersist {
                surviving_rows: pass1_faulty_rows.clone(),
            },
        },
        tlb,
        passes,
        pass1_faulty_rows,
        operations,
    }
}

fn capture_rows(tlb: &mut Tlb, rows: &[usize]) -> Result<(), UnrepairableReason> {
    for (i, &row) in rows.iter().enumerate() {
        if tlb.capture(row).is_err() {
            return Err(UnrepairableReason::OutOfSpares {
                unmapped_rows: rows.len() - i,
                surviving_rows: rows[i..].to_vec(),
            });
        }
    }
    Ok(())
}

/// Result of an [`incremental_repair`] call: a total accounting of what
/// happened to every requested row. There is no error type — the in-field
/// repair engine must keep running whatever the fault pattern, so every
/// outcome (mapped, spares exhausted, bogus address) is data, not a
/// panic.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IncrementalRepair {
    /// `(logical_row, spare_index)` pairs successfully mapped this call,
    /// in request order.
    pub mapped: Vec<(usize, usize)>,
    /// Rows left unmapped because the spares ran out, in request order.
    pub unmapped: Vec<usize>,
    /// Rows rejected as not regular-array addresses (caller bug or
    /// corrupted detection bookkeeping), in request order.
    pub invalid: Vec<usize>,
    /// Words copied from old physical locations into the new spares.
    pub copied_words: usize,
}

impl IncrementalRepair {
    /// True when every valid requested row got a spare.
    pub fn fully_mapped(&self) -> bool {
        self.unmapped.is_empty()
    }
}

/// Maps freshly detected faulty rows onto spares *without* a full
/// test-and-repair session, preserving user data.
///
/// This is the in-field counterpart of [`self_test_and_repair`]: the
/// manufacturing flow may scramble contents because nothing is stored
/// yet, but a repair performed mid-lifetime must carry the live data
/// across. For each row, the words at its current physical location
/// (`tlb.map_row(row)` *before* the new capture — which may already be a
/// spare if this row was repaired once before) are copied into the newly
/// assigned spare, then the TLB entry is added so subsequent accesses
/// divert. Bits held by already-dead cells at the source are copied as
/// read — a row repair cannot resurrect data a hard fault has destroyed,
/// only stop the rot.
///
/// Rows that cannot be mapped are reported in the result rather than
/// aborting the run: `unmapped` when spares are exhausted (the memory
/// enters degraded mode but keeps serving its still-good rows) and
/// `invalid` for addresses outside the regular array.
pub fn incremental_repair(
    ram: &mut SramModel,
    tlb: &mut Tlb,
    faulty_rows: &[usize],
) -> IncrementalRepair {
    let org = *ram.org();
    let mut result = IncrementalRepair::default();
    for &row in faulty_rows {
        let source = tlb.map_row(row);
        match tlb.capture(row) {
            Ok(spare) => {
                let dest = tlb.spare_row(spare);
                for col in 0..org.bpc() {
                    let word = ram.read_word_at(source, col);
                    ram.write_word_at(dest, col, word);
                    result.copied_words += 1;
                }
                result.mapped.push((row, spare));
            }
            Err(crate::TlbError::Exhausted { .. }) => result.unmapped.push(row),
            Err(crate::TlbError::RowOutOfRange { .. }) => result.invalid.push(row),
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisram_bist::RowMap;
    use bisram_mem::{row_failure, ArrayOrg, Fault, FaultKind, Word};

    fn org(spares: usize) -> ArrayOrg {
        ArrayOrg::new(256, 8, 4, spares).unwrap()
    }

    #[test]
    fn clean_memory_is_already_good() {
        let mut ram = SramModel::new(org(4));
        let report = self_test_and_repair(&mut ram, &RepairSetup::default());
        assert_eq!(report.outcome, RepairOutcome::AlreadyGood);
        assert_eq!(report.passes, 1);
        assert!(report.pass1_faulty_rows.is_empty());
        assert!(report.operations > 0);
    }

    #[test]
    fn single_faulty_row_repaired_with_one_spare() {
        let o = org(4);
        let mut ram = SramModel::new(o);
        ram.inject_all(row_failure(&o, 9, true));
        let report = self_test_and_repair(&mut ram, &RepairSetup::default());
        assert_eq!(report.outcome, RepairOutcome::Repaired { spares_used: 1 });
        assert_eq!(report.pass1_faulty_rows, vec![9]);
        assert_eq!(report.tlb.map_row(9), o.rows());
        // The repaired memory now works through the map.
        let addr = o.join(9, 0);
        let phys = report.tlb.map_row(9);
        ram.write_word_at(phys, 0, Word::from_u64(0x5A, 8));
        assert_eq!(ram.read_word_at(phys, 0).to_u64(), 0x5A);
        let _ = addr;
    }

    #[test]
    fn repairs_up_to_spare_count_rows() {
        let o = org(4);
        let mut ram = SramModel::new(o);
        for row in [3, 17, 42, 63] {
            ram.inject(Fault::new(o.cell_at(row, 1, 2), FaultKind::StuckAt(true)));
        }
        let report = self_test_and_repair(&mut ram, &RepairSetup::default());
        assert_eq!(report.outcome, RepairOutcome::Repaired { spares_used: 4 });
        assert_eq!(report.pass1_faulty_rows.len(), 4);
    }

    #[test]
    fn too_many_faulty_rows_is_out_of_spares() {
        let o = org(2);
        let mut ram = SramModel::new(o);
        for row in [1, 2, 3] {
            ram.inject(Fault::new(o.cell_at(row, 0, 0), FaultKind::StuckAt(true)));
        }
        let report = self_test_and_repair(&mut ram, &RepairSetup::default());
        assert_eq!(
            report.outcome,
            RepairOutcome::Unsuccessful {
                reason: UnrepairableReason::OutOfSpares {
                    unmapped_rows: 1,
                    surviving_rows: vec![3],
                }
            }
        );
    }

    #[test]
    fn faulty_spare_fails_two_pass_but_iterated_repairs() {
        let o = org(4);
        let build = || {
            let mut ram = SramModel::new(o);
            // Row 5 faulty; spare 0 (the row it will map to) also faulty.
            ram.inject(Fault::new(o.cell_at(5, 0, 0), FaultKind::StuckAt(true)));
            ram.inject(Fault::new(
                o.cell_at(o.rows(), 0, 0),
                FaultKind::StuckAt(false),
            ));
            ram
        };

        // Base two-pass algorithm: Repair Unsuccessful (faulty spare).
        let mut ram = build();
        let two_pass = self_test_and_repair(&mut ram, &RepairSetup::default());
        assert_eq!(
            two_pass.outcome,
            RepairOutcome::Unsuccessful {
                reason: UnrepairableReason::FaultsPersist {
                    surviving_rows: vec![5],
                }
            }
        );

        // Iterated 2k-pass: row 5 is recaptured onto spare 1.
        let mut ram = build();
        let iterated = self_test_and_repair(&mut ram, &RepairSetup::iterated(4));
        assert_eq!(iterated.outcome, RepairOutcome::Repaired { spares_used: 2 });
        assert_eq!(iterated.tlb.map_row(5), o.rows() + 1);
    }

    #[test]
    fn spare_exhaustion_via_faulty_spares() {
        let o = org(2);
        let mut ram = SramModel::new(o);
        // One faulty row but both spares faulty: iterated repair burns
        // through them and runs out.
        ram.inject(Fault::new(o.cell_at(7, 0, 0), FaultKind::StuckAt(true)));
        ram.inject(Fault::new(
            o.cell_at(o.rows(), 0, 0),
            FaultKind::StuckAt(true),
        ));
        ram.inject(Fault::new(
            o.cell_at(o.rows() + 1, 0, 0),
            FaultKind::StuckAt(true),
        ));
        let report = self_test_and_repair(&mut ram, &RepairSetup::iterated(6));
        match report.outcome {
            RepairOutcome::Unsuccessful {
                reason: reason @ UnrepairableReason::OutOfSpares { .. },
            } => {
                // Row 7 is the survivor: both spares burned, still faulty.
                assert_eq!(reason.surviving_rows(), &[7]);
            }
            other => panic!("expected OutOfSpares, got {other:?}"),
        }
    }

    #[test]
    fn outcome_predicates() {
        assert!(RepairOutcome::AlreadyGood.is_usable());
        assert!(!RepairOutcome::AlreadyGood.is_repaired());
        assert!(RepairOutcome::Repaired { spares_used: 1 }.is_repaired());
        assert!(!RepairOutcome::Unsuccessful {
            reason: UnrepairableReason::FaultsPersist {
                surviving_rows: vec![0],
            }
        }
        .is_usable());
    }

    #[test]
    fn surviving_rows_accessor_covers_both_variants() {
        let oos = UnrepairableReason::OutOfSpares {
            unmapped_rows: 2,
            surviving_rows: vec![4, 9],
        };
        assert_eq!(oos.surviving_rows(), &[4, 9]);
        let fp = UnrepairableReason::FaultsPersist {
            surviving_rows: vec![1],
        };
        assert_eq!(fp.surviving_rows(), &[1]);
    }

    #[test]
    fn incremental_repair_preserves_user_data() {
        let o = org(4);
        let mut ram = SramModel::new(o);
        // Fill the regular array with a recognisable pattern.
        for row in 0..o.rows() {
            for col in 0..o.bpc() {
                let value = ((row * o.bpc() + col) & 0xFF) as u64;
                ram.write_word_at(row, col, Word::from_u64(value, o.bpw()));
            }
        }
        // Row 11 develops a stuck-at fault on one bit mid-life.
        ram.inject(Fault::new(o.cell_at(11, 2, 0), FaultKind::StuckAt(false)));

        let mut tlb = Tlb::new(o.rows(), o.spare_rows());
        let result = incremental_repair(&mut ram, &mut tlb, &[11]);
        assert_eq!(result.mapped, vec![(11, 0)]);
        assert!(result.fully_mapped());
        assert!(result.invalid.is_empty());
        assert_eq!(result.copied_words, o.bpc());

        // Every word of row 11 now reads back through the map with its
        // original value (the stuck bit happened to already match the
        // stored data pattern's 0 at that position or was copied as-is;
        // use a column whose data is unaffected to check preservation).
        let phys = tlb.map_row(11);
        assert_eq!(phys, o.rows(), "row must divert to spare 0");
        for col in 0..o.bpc() {
            let expect = ((11 * o.bpc() + col) & 0xFF) as u64;
            let got = ram.read_word_at(phys, col).to_u64();
            if col != 2 {
                assert_eq!(got, expect, "col {col} must survive the repair");
            }
        }
        // Other rows untouched.
        assert_eq!(ram.read_word_at(5, 1).to_u64(), (5 * o.bpc() + 1) as u64);
    }

    #[test]
    fn incremental_repair_chains_through_previous_spare() {
        // A row repaired once whose spare later dies must copy from the
        // spare (its live location), not from the long-dead regular row.
        let o = org(4);
        let mut ram = SramModel::new(o);
        let mut tlb = Tlb::new(o.rows(), o.spare_rows());

        let first = incremental_repair(&mut ram, &mut tlb, &[20]);
        assert_eq!(first.mapped, vec![(20, 0)]);
        // User writes new data through the map after the first repair.
        let phys0 = tlb.map_row(20);
        ram.write_word_at(phys0, 3, Word::from_u64(0xAB, o.bpw()));

        let second = incremental_repair(&mut ram, &mut tlb, &[20]);
        assert_eq!(second.mapped, vec![(20, 1)]);
        let phys1 = tlb.map_row(20);
        assert_eq!(phys1, o.rows() + 1);
        assert_eq!(
            ram.read_word_at(phys1, 3).to_u64(),
            0xAB,
            "post-repair writes must survive the second migration"
        );
    }

    #[test]
    fn incremental_repair_degrades_without_panicking() {
        let o = org(1);
        let mut ram = SramModel::new(o);
        let mut tlb = Tlb::new(o.rows(), o.spare_rows());
        // Two faulty rows, one spare, plus a bogus address: everything is
        // accounted for, nothing aborts.
        let result = incremental_repair(&mut ram, &mut tlb, &[8, 40, 9999]);
        assert_eq!(result.mapped, vec![(8, 0)]);
        assert_eq!(result.unmapped, vec![40]);
        assert_eq!(result.invalid, vec![9999]);
        assert!(!result.fully_mapped());
        // The memory still serves: mapped row diverted, unmapped row
        // passes through.
        assert_eq!(tlb.map_row(8), o.rows());
        assert_eq!(tlb.map_row(40), 40);
    }

    #[test]
    #[should_panic(expected = "capture + verify")]
    fn iterated_needs_two_passes() {
        let _ = RepairSetup::iterated(1);
    }
}
