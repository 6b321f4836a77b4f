//! Golden diagnosis matrix: every fault kind in the behavioural model,
//! injected one at a time and diagnosed under IFA-13, March C- and
//! IFA-9, with the resulting candidate sets pinned exactly and
//! cross-validated against the injected ground truth.
//!
//! Two ambiguities are *behaviourally real* and must be reported as
//! candidate sets, never collapsed to a guess:
//!
//! * `SAF/0` vs `TF⟨↑⟩` — a cell that cannot rise is pinned at 0 under
//!   any march whose elements write the background first, bit-identical
//!   to stuck-at-0;
//! * `SAF/1` vs `TF⟨↓⟩` from a worn initial 1 — a cell that cannot fall
//!   and already holds 1 is pinned at 1.
//!
//! The matrix also pins each march's blind spots: March C- (no
//! retention delays, one read per element visit) misses DRF and the
//! stuck-open fault, and IFA-9 misses stuck-open — IFA-13's
//! read-after-write elements are what make SOF uniquely classifiable,
//! which is exactly why the paper's tool generates an IFA march.

use bisram_bist::march::{self, MarchTest};
use bisram_diag::{diagnose, validate, DiagnosisConfig};
use bisram_mem::{ArrayOrg, CellIndex, Fault, FaultClass, FaultKind, SramModel};

fn org() -> ArrayOrg {
    ArrayOrg::new(256, 8, 4, 4).expect("valid org")
}

/// The fixed victim every single-fault injection uses.
fn victim(o: &ArrayOrg) -> CellIndex {
    o.cell_at(11, 2, 3)
}

/// Coupling aggressor placements: same word (intra-word probe path) and
/// a different row (group-probe binary-search path).
fn couplings(o: &ArrayOrg) -> Vec<FaultKind> {
    let same_word = o.cell_at(11, 2, 6);
    let other_row = o.cell_at(40, 1, 3);
    vec![
        FaultKind::CouplingInv {
            aggressor: same_word,
            rising: true,
        },
        FaultKind::CouplingInv {
            aggressor: other_row,
            rising: false,
        },
        FaultKind::CouplingIdem {
            aggressor: same_word,
            rising: true,
            forced: false,
        },
        FaultKind::CouplingIdem {
            aggressor: other_row,
            rising: false,
            forced: true,
        },
        FaultKind::StateCoupling {
            aggressor: same_word,
            state: true,
            forced: false,
        },
        FaultKind::StateCoupling {
            aggressor: other_row,
            state: false,
            forced: true,
        },
    ]
}

/// Injects `kind` alone and diagnoses under `test`.
fn run(kind: FaultKind, test: MarchTest) -> (SramModel, bisram_diag::MacroDiagnosis) {
    let o = org();
    let mut m = SramModel::new(o);
    m.inject(Fault::new(victim(&o), kind));
    let d = diagnose(&mut m, &DiagnosisConfig::new(test));
    (m, d)
}

/// The golden candidate set for each non-coupling kind under a march
/// that detects it. Identical for IFA-13, March C- and IFA-9 wherever
/// the kind is detected at all.
fn golden_candidates(kind: FaultKind) -> Vec<FaultKind> {
    match kind {
        FaultKind::StuckAt(false) | FaultKind::TransitionUp => {
            vec![FaultKind::StuckAt(false), FaultKind::TransitionUp]
        }
        FaultKind::StuckAt(true) => {
            vec![FaultKind::StuckAt(true), FaultKind::TransitionDown]
        }
        other => vec![other],
    }
}

const NON_COUPLING: [FaultKind; 7] = [
    FaultKind::StuckAt(false),
    FaultKind::StuckAt(true),
    FaultKind::TransitionUp,
    FaultKind::TransitionDown,
    FaultKind::StuckOpen,
    FaultKind::Retention { leaks_to: false },
    FaultKind::Retention { leaks_to: true },
];

/// Asserts that the diagnosis names exactly the victim, pins the golden
/// candidate set, and survives ground-truth validation.
fn assert_golden(kind: FaultKind, test: MarchTest, expected: &[FaultKind]) {
    let name = test.name().to_owned();
    let (m, d) = run(kind, test);
    let o = org();
    assert_eq!(d.faults.len(), 1, "{name}/{kind}: exactly one suspect");
    let f = &d.faults[0];
    assert_eq!(f.cell, victim(&o), "{name}/{kind}: localized to the victim");
    assert_eq!((f.row, f.col, f.bit), (11, 2, 3), "{name}/{kind}: coords");
    assert_eq!(f.candidates, expected, "{name}/{kind}: candidate set");
    let report = validate(&d.faults, &m);
    assert!(report.is_perfect(), "{name}/{kind}: {report:?}");
}

#[test]
fn ifa13_classifies_every_fault_kind() {
    for kind in NON_COUPLING {
        assert_golden(kind, march::ifa13(), &golden_candidates(kind));
    }
}

#[test]
fn ifa13_recovers_every_coupling_aggressor() {
    // Coupling faults fall through the dictionary to the active probe,
    // which must localize the aggressor cell and recover the subtype
    // parameters exactly — the candidate set is the injected kind alone.
    for kind in couplings(&org()) {
        let (m, d) = run(kind, march::ifa13());
        assert_eq!(d.faults.len(), 1, "{kind}: exactly one suspect");
        assert_eq!(d.faults[0].candidates, vec![kind], "{kind}: exact recovery");
        assert!(
            d.probe_writes > 0,
            "{kind}: resolved by probing, not guessing"
        );
        assert!(validate(&d.faults, &m).is_perfect(), "{kind}");
    }
}

#[test]
fn march_c_minus_matrix_with_pinned_blind_spots() {
    for kind in NON_COUPLING {
        match kind {
            // March C- has no retention delays, and its single-read
            // element visits re-arm the sense amplifier at every
            // address, so a stuck-open cell echoes the right value.
            // Undetected is the honest golden outcome — never a
            // misclassification.
            FaultKind::StuckOpen | FaultKind::Retention { .. } => {
                let (_, d) = run(kind, march::march_c_minus());
                assert!(d.faults.is_empty(), "{kind}: March C- blind spot");
            }
            detected => {
                assert_golden(
                    detected,
                    march::march_c_minus(),
                    &golden_candidates(detected),
                );
            }
        }
    }
    // Coupling aggressors still resolve exactly (probing is march-
    // independent once the suspect is named).
    for kind in couplings(&org()) {
        let (m, d) = run(kind, march::march_c_minus());
        assert_eq!(d.faults[0].candidates, vec![kind], "{kind}");
        assert!(validate(&d.faults, &m).is_perfect(), "{kind}");
    }
}

#[test]
fn ifa9_reports_ambiguity_as_a_candidate_set_not_a_guess() {
    // Both members of each indistinguishable pair must produce the SAME
    // two-candidate set — the diagnosis refuses to pick a winner.
    for kind in [FaultKind::StuckAt(false), FaultKind::TransitionUp] {
        let (_, d) = run(kind, march::ifa9());
        let f = &d.faults[0];
        assert!(!f.is_exact(), "{kind}: must not guess");
        assert_eq!(
            f.candidates,
            vec![FaultKind::StuckAt(false), FaultKind::TransitionUp],
            "{kind}"
        );
        assert_eq!(f.classes(), vec![FaultClass::Saf, FaultClass::Tf], "{kind}");
    }
    // IFA-9 detects retention faults (it has the two delays) but not
    // stuck-open; IFA-13 pins SOF exactly. This gap is the reason the
    // generated BIST prefers the 13-operation IFA march for diagnosis.
    let (_, d9) = run(FaultKind::StuckOpen, march::ifa9());
    assert!(d9.faults.is_empty(), "IFA-9 cannot sensitize SOF");
    let (_, d13) = run(FaultKind::StuckOpen, march::ifa13());
    assert_eq!(d13.faults[0].candidates, vec![FaultKind::StuckOpen]);
    for leaks_to in [false, true] {
        let kind = FaultKind::Retention { leaks_to };
        assert_golden(kind, march::ifa9(), &golden_candidates(kind));
    }
}

#[test]
fn multi_fault_population_validates_perfectly_under_ifa13() {
    // Several independent faults in distinct words: each must still be
    // localized and classified, with no cross-talk between suspects.
    let o = org();
    let mut m = SramModel::new(o);
    let plant = [
        (o.cell_at(2, 0, 1), FaultKind::StuckAt(true)),
        (o.cell_at(17, 3, 6), FaultKind::TransitionDown),
        (o.cell_at(33, 1, 0), FaultKind::StuckOpen),
        (o.cell_at(48, 2, 4), FaultKind::Retention { leaks_to: true }),
    ];
    for (cell, kind) in plant {
        m.inject(Fault::new(cell, kind));
    }
    let d = diagnose(&mut m, &DiagnosisConfig::new(march::ifa13()));
    assert_eq!(d.faults.len(), plant.len());
    let report = validate(&d.faults, &m);
    assert!(report.is_perfect(), "{report:?}");
    for (cell, kind) in plant {
        let f = d
            .faults
            .iter()
            .find(|f| f.cell == cell)
            .expect("cell named");
        assert!(f.candidates.contains(&kind), "{kind}: {:?}", f.candidates);
    }
}
