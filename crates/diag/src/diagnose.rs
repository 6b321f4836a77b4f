//! Fault-dictionary diagnosis of march signatures.
//!
//! The classical dictionary method: for every suspect cell named by the
//! signature, simulate each single-cell fault hypothesis on a fresh
//! model of the same organization, run the identical march, and keep the
//! hypotheses whose per-cell failure keys match the observation exactly.
//! The surviving hypotheses are the *candidate set*:
//!
//! * one candidate — the fault is uniquely classified;
//! * several candidates — the march genuinely cannot tell them apart
//!   (the canonical case: a test whose every element starts by writing
//!   the background never lets a `TF⟨↑⟩` cell rise, so its signature is
//!   bit-identical to `SAF/0`), and the set reports the ambiguity
//!   honestly instead of guessing;
//! * none — no single-cell hypothesis explains the cell, which is the
//!   cue to probe for a coupling fault ([`crate::probe`]).
//!
//! Hypotheses are simulated from both initial cell values, because a
//! field diagnosis starts from whatever the array held when the failure
//! was caught — a `TF⟨↓⟩` cell that already sits at 1 fails differently
//! than one starting at 0.

use crate::probe::probe_coupling;
use bisram_bist::engine::{run_march_diagnose, BackgroundSchedule, MarchConfig, MarchSignature};
use bisram_bist::march::MarchTest;
use bisram_mem::{ArrayOrg, CellIndex, Fault, FaultClass, FaultKind, SramModel, Word};

/// Diagnosis configuration: which march to replay and whether to spend
/// probe cycles resolving coupling faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagnosisConfig {
    /// The diagnostic march test.
    pub test: MarchTest,
    /// Background schedule for the march.
    pub schedule: BackgroundSchedule,
    /// Probe for coupling aggressors when the dictionary has no match.
    pub probe_couplings: bool,
}

impl DiagnosisConfig {
    /// Diagnosis under the given march with Johnson backgrounds and
    /// coupling probing enabled.
    pub fn new(test: MarchTest) -> Self {
        DiagnosisConfig {
            test,
            schedule: BackgroundSchedule::Johnson,
            probe_couplings: true,
        }
    }

    fn march_config(&self) -> MarchConfig {
        MarchConfig {
            schedule: self.schedule.clone(),
            stop_at_first: false,
        }
    }
}

/// One localized, classified fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagnosedFault {
    /// The victim cell.
    pub cell: CellIndex,
    /// Physical row of the victim.
    pub row: usize,
    /// Column-select of the victim.
    pub col: usize,
    /// Bit (I/O subarray) of the victim.
    pub bit: usize,
    /// Fault hypotheses that exactly reproduce the observed signature,
    /// in canonical dictionary order. Empty = unexplained (detected but
    /// not classified — still repairable by row replacement).
    pub candidates: Vec<FaultKind>,
}

impl DiagnosedFault {
    /// True when exactly one hypothesis survived.
    pub fn is_exact(&self) -> bool {
        self.candidates.len() == 1
    }

    /// True when at least one hypothesis survived.
    pub fn is_classified(&self) -> bool {
        !self.candidates.is_empty()
    }

    /// The distinct fault classes among the candidates, in canonical
    /// report order.
    pub fn classes(&self) -> Vec<FaultClass> {
        let mut out: Vec<FaultClass> = self.candidates.iter().map(|k| k.class()).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// The result of diagnosing one macro.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacroDiagnosis {
    /// The observed signature the diagnosis was computed from.
    pub signature: MarchSignature,
    /// One entry per suspect cell, in ascending `(addr, bit)` order.
    pub faults: Vec<DiagnosedFault>,
    /// Dictionary simulations spent.
    pub dictionary_sims: usize,
    /// Writes spent on coupling probes.
    pub probe_writes: u64,
}

impl MacroDiagnosis {
    /// True when the march detected anything at all.
    pub fn detected(&self) -> bool {
        self.signature.detected()
    }

    /// Suspect cells no hypothesis explained.
    pub fn unexplained(&self) -> usize {
        self.faults.iter().filter(|f| !f.is_classified()).count()
    }

    /// Distinct faulty physical rows, ascending — the demand row repair
    /// must cover.
    pub fn faulty_rows(&self) -> Vec<usize> {
        self.signature.faulty_rows()
    }
}

/// The canonical dictionary order of single-cell hypotheses. Candidate
/// sets preserve this order, so reports are stable.
const DICTIONARY: [FaultKind; 7] = [
    FaultKind::StuckAt(false),
    FaultKind::StuckAt(true),
    FaultKind::TransitionUp,
    FaultKind::TransitionDown,
    FaultKind::StuckOpen,
    FaultKind::Retention { leaks_to: false },
    FaultKind::Retention { leaks_to: true },
];

/// Diagnoses the memory in place: runs the diagnostic march, dictionary-
/// matches every suspect cell and (optionally) probes for coupling
/// aggressors. Probing is destructive to array contents — diagnosis runs
/// where a repair march would run anyway.
pub fn diagnose(ram: &mut SramModel, cfg: &DiagnosisConfig) -> MacroDiagnosis {
    let signature = run_march_diagnose(&cfg.test, ram, &cfg.march_config(), None);
    diagnose_signature(signature, ram, cfg)
}

/// Diagnoses an already-captured signature — the chip-controller entry
/// point, where the signature arrived over the shared BIST transport
/// and `ram` is only accessed for coupling probes. The signature must
/// have been produced by the same march `cfg` names.
pub fn diagnose_signature(
    signature: MarchSignature,
    ram: &mut SramModel,
    cfg: &DiagnosisConfig,
) -> MacroDiagnosis {
    let march_cfg = cfg.march_config();
    let org = *ram.org();
    let mut faults = Vec::new();
    let mut dictionary_sims = 0;
    let mut probe_writes = 0;
    for (addr, bit) in signature.suspects() {
        let (row, col) = org.split(addr);
        let cell = org.cell_at(row, col, bit);
        let observed_key = signature.cell_key(addr, bit);
        let mut candidates = Vec::new();
        for kind in DICTIONARY {
            let mut matched = false;
            for init in [false, true] {
                dictionary_sims += 1;
                let key = simulate_key(&org, cell, kind, init, cfg, &march_cfg, addr, bit);
                if key == observed_key {
                    matched = true;
                    break;
                }
            }
            if matched {
                candidates.push(kind);
            }
        }
        if candidates.is_empty() && cfg.probe_couplings {
            let outcome = probe_coupling(ram, cell);
            probe_writes += outcome.writes;
            if let Some(kind) = outcome.kind {
                candidates.push(kind);
            }
        }
        faults.push(DiagnosedFault {
            cell,
            row,
            col,
            bit,
            candidates,
        });
    }
    MacroDiagnosis {
        signature,
        faults,
        dictionary_sims,
        probe_writes,
    }
}

/// Simulates hypothesis `kind` at `cell` (starting from value `init`)
/// under the same march and returns the victim's failure key.
#[allow(clippy::too_many_arguments)]
fn simulate_key(
    org: &ArrayOrg,
    cell: CellIndex,
    kind: FaultKind,
    init: bool,
    cfg: &DiagnosisConfig,
    march_cfg: &MarchConfig,
    addr: usize,
    bit: usize,
) -> Vec<(usize, usize, usize)> {
    let mut m = SramModel::new(*org);
    if init {
        let (row, col, b) = org.cell_coords(cell);
        let mut w = Word::zeros(org.bpw());
        w.set(b, true);
        m.write_word_at(row, col, w);
    }
    m.inject(Fault::new(cell, kind));
    let sim = run_march_diagnose(&cfg.test, &mut m, march_cfg, None);
    sim.cell_key(addr, bit)
}

/// How one diagnosis compares against the injected ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ValidationReport {
    /// Diagnosed cells whose single candidate is the injected kind.
    pub exact: usize,
    /// Diagnosed cells whose candidate set contains the injected kind
    /// (alongside genuinely indistinguishable alternatives).
    pub ambiguous_hit: usize,
    /// Diagnosed cells whose candidates exclude the injected kind.
    pub wrong: usize,
    /// Diagnosed cells that were detected but not classified.
    pub unclassified: usize,
    /// Diagnosed cells where no fault was injected at all.
    pub spurious: usize,
    /// Injected regular-array faults the diagnosis never named.
    pub missed: usize,
}

impl ValidationReport {
    /// Every diagnosed suspect carried the injected kind in its
    /// candidate set, and nothing injected was missed.
    pub fn is_perfect(&self) -> bool {
        self.wrong == 0 && self.unclassified == 0 && self.spurious == 0 && self.missed == 0
    }
}

/// Cross-validates a diagnosis against the model's injected ground truth
/// (the fault population actually present in `ram`, via
/// [`SramModel::faults_at`]).
pub fn validate(faults: &[DiagnosedFault], ram: &SramModel) -> ValidationReport {
    let mut report = ValidationReport::default();
    for d in faults {
        let truth = ram.faults_at(d.cell);
        if truth.is_empty() {
            report.spurious += 1;
        } else if !d.is_classified() {
            report.unclassified += 1;
        } else if truth.iter().any(|k| d.candidates.contains(k)) {
            if d.is_exact() {
                report.exact += 1;
            } else {
                report.ambiguous_hit += 1;
            }
        } else {
            report.wrong += 1;
        }
    }
    let org = ram.org();
    for f in ram.faults() {
        let (row, _, _) = org.cell_coords(f.cell);
        if row < org.rows() && !faults.iter().any(|d| d.cell == f.cell) {
            report.missed += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisram_bist::march;

    fn org() -> ArrayOrg {
        ArrayOrg::new(256, 8, 4, 4).unwrap()
    }

    fn diagnose_single(kind: FaultKind, cell: CellIndex, test: MarchTest) -> MacroDiagnosis {
        let mut m = SramModel::new(org());
        m.inject(Fault::new(cell, kind));
        diagnose(&mut m, &DiagnosisConfig::new(test))
    }

    #[test]
    fn fault_free_memory_diagnoses_clean() {
        let mut m = SramModel::new(org());
        let d = diagnose(&mut m, &DiagnosisConfig::new(march::ifa13()));
        assert!(!d.detected());
        assert!(d.faults.is_empty());
        assert_eq!(d.probe_writes, 0);
    }

    #[test]
    fn saf1_pairs_with_worn_tfdown_under_ifa13() {
        // The mirror of the SAF/0–TF⟨↑⟩ pair: a TF⟨↓⟩ cell that held 1
        // when diagnosis started can never be written down — pinned at 1,
        // bit-identical to SAF/1. The dictionary simulates both initial
        // values, so the candidate set reports the ambiguity honestly.
        let cell = org().cell_at(11, 3, 5);
        let d = diagnose_single(FaultKind::StuckAt(true), cell, march::ifa13());
        assert_eq!(d.faults.len(), 1);
        let f = &d.faults[0];
        assert_eq!((f.cell, f.row, f.col, f.bit), (cell, 11, 3, 5));
        assert_eq!(
            f.candidates,
            vec![FaultKind::StuckAt(true), FaultKind::TransitionDown]
        );
        // A TF⟨↓⟩ injected on a *fresh* array is NOT ambiguous: it can
        // still rise, and only the falling writes fail.
        let d = diagnose_single(FaultKind::TransitionDown, cell, march::ifa13());
        assert_eq!(d.faults.len(), 1);
        assert!(d.faults[0].candidates.contains(&FaultKind::TransitionDown));
        assert!(!d.faults[0].candidates.contains(&FaultKind::StuckAt(true)));
    }

    #[test]
    fn saf0_and_tfup_are_one_honest_candidate_set() {
        // A TF⟨↑⟩ cell can never leave 0 under a march whose elements
        // all start by writing the background — behaviourally identical
        // to SAF/0. Both injections must yield the same two-candidate
        // set, never a single guessed kind.
        let cell = org().cell_at(7, 0, 2);
        for kind in [FaultKind::StuckAt(false), FaultKind::TransitionUp] {
            let d = diagnose_single(kind, cell, march::ifa13());
            assert_eq!(d.faults.len(), 1);
            assert_eq!(
                d.faults[0].candidates,
                vec![FaultKind::StuckAt(false), FaultKind::TransitionUp],
                "injected {kind}"
            );
            assert_eq!(d.faults[0].classes(), vec![FaultClass::Saf, FaultClass::Tf]);
        }
    }

    #[test]
    fn validation_cross_checks_ground_truth() {
        let o = org();
        let mut m = SramModel::new(o);
        let c1 = o.cell_at(3, 1, 0);
        let c2 = o.cell_at(50, 2, 7);
        m.inject(Fault::new(c1, FaultKind::StuckAt(true)));
        m.inject(Fault::new(c2, FaultKind::TransitionDown));
        let d = diagnose(&mut m, &DiagnosisConfig::new(march::ifa13()));
        let report = validate(&d.faults, &m);
        assert!(report.is_perfect(), "{report:?}");
        assert_eq!(report.exact + report.ambiguous_hit, 2);

        // A fabricated wrong diagnosis is flagged.
        let bogus = vec![DiagnosedFault {
            cell: c1,
            row: 3,
            col: 1,
            bit: 0,
            candidates: vec![FaultKind::StuckAt(false)],
        }];
        let r = validate(&bogus, &m);
        assert_eq!(r.wrong, 1);
        assert_eq!(r.missed, 1, "c2 never named");
        // A diagnosis naming a healthy cell is spurious.
        let ghost = vec![DiagnosedFault {
            cell: o.cell_at(0, 0, 0),
            row: 0,
            col: 0,
            bit: 0,
            candidates: vec![FaultKind::StuckAt(true)],
        }];
        assert_eq!(validate(&ghost, &m).spurious, 1);
    }

    #[test]
    fn coupling_falls_through_to_probe() {
        let o = org();
        let victim = o.cell_at(20, 1, 3);
        let kind = FaultKind::CouplingInv {
            aggressor: o.cell_at(20, 1, 6),
            rising: true,
        };
        let d = diagnose_single(kind, victim, march::ifa13());
        assert!(d
            .faults
            .iter()
            .any(|f| f.cell == victim && f.candidates == vec![kind]));
        assert!(d.probe_writes > 0);

        // With probing disabled the suspect stays unexplained instead of
        // being guessed.
        let mut m = SramModel::new(o);
        m.inject(Fault::new(victim, kind));
        let mut cfg = DiagnosisConfig::new(march::ifa13());
        cfg.probe_couplings = false;
        let d = diagnose(&mut m, &cfg);
        assert!(d.unexplained() > 0);
        assert_eq!(d.probe_writes, 0);
    }

    #[test]
    fn worn_state_still_diagnoses_tfdown() {
        // Device-worn start: the cell already holds 1 when diagnosis
        // begins. The both-initial-values dictionary still matches.
        let o = org();
        let cell = o.cell_at(9, 2, 4);
        let (row, col, bit) = o.cell_coords(cell);
        let mut m = SramModel::new(o);
        let mut w = Word::zeros(o.bpw());
        w.set(bit, true);
        m.write_word_at(row, col, w);
        m.inject(Fault::new(cell, FaultKind::TransitionDown));
        let d = diagnose(&mut m, &DiagnosisConfig::new(march::ifa13()));
        let f = d
            .faults
            .iter()
            .find(|f| f.cell == cell)
            .expect("cell diagnosed");
        assert!(
            f.candidates.contains(&FaultKind::TransitionDown),
            "candidates: {:?}",
            f.candidates
        );
    }
}
