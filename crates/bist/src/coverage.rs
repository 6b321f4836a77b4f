//! Fault-coverage measurement campaigns.
//!
//! Paper §V claims IFA-9 "detects a wide range of functional faults
//! caused by layout defects; for example, stuck-at and stuck-open faults,
//! transition faults and state coupling faults", with the Johnson-counter
//! data backgrounds needed for "pairwise couplings between cells of the
//! same word". This module measures those claims empirically: inject one
//! fault of a class into a fresh memory, run the test, record detection.

use crate::engine::{run_march, BackgroundSchedule, MarchConfig};
use crate::march::MarchTest;
use bisram_mem::{ArrayOrg, Fault, FaultClass, FaultKind, SramModel};
use bisram_rng::Rng;

/// Coverage of one fault class under one test.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassCoverage {
    /// The fault class measured.
    pub class: FaultClass,
    /// Faults injected.
    pub injected: usize,
    /// Faults detected.
    pub detected: usize,
}

impl ClassCoverage {
    /// Detection fraction in 0..=1.
    pub fn fraction(&self) -> f64 {
        if self.injected == 0 {
            1.0
        } else {
            self.detected as f64 / self.injected as f64
        }
    }
}

/// A full campaign result: per-class coverage for one march test.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageReport {
    /// Name of the march test measured.
    pub test: String,
    /// Whether the Johnson background schedule was used.
    pub johnson: bool,
    /// Per-class results.
    pub classes: Vec<ClassCoverage>,
}

impl CoverageReport {
    /// Coverage of one fault class.
    pub fn class(&self, class: FaultClass) -> Option<&ClassCoverage> {
        self.classes.iter().find(|c| c.class == class)
    }

    /// Overall coverage across all classes.
    pub fn overall(&self) -> f64 {
        let injected: usize = self.classes.iter().map(|c| c.injected).sum();
        let detected: usize = self.classes.iter().map(|c| c.detected).sum();
        if injected == 0 {
            1.0
        } else {
            detected as f64 / injected as f64
        }
    }
}

/// Draws one random fault of each supported class, `per_class` times,
/// runs `test` on a fresh memory per fault, and tallies detection.
///
/// With `intra_word_coupling` the coupling faults are constrained to
/// aggressor/victim pairs inside the *same word* — the case that
/// separates the Johnson schedule from the single-background baseline.
pub fn measure<R: Rng + ?Sized>(
    rng: &mut R,
    org: ArrayOrg,
    test: &MarchTest,
    johnson: bool,
    per_class: usize,
    intra_word_coupling: bool,
) -> CoverageReport {
    let schedule = if johnson {
        BackgroundSchedule::Johnson
    } else {
        BackgroundSchedule::Single
    };
    let config = MarchConfig {
        schedule,
        stop_at_first: true,
    };

    type FaultGen<'a, R> = Box<dyn Fn(&mut R) -> Fault + 'a>;
    let classes: Vec<(FaultClass, FaultGen<R>)> = vec![
        (
            FaultClass::Saf,
            Box::new(move |rng: &mut R| {
                Fault::new(
                    random_regular_cell(rng, &org),
                    FaultKind::StuckAt(rng.gen()),
                )
            }),
        ),
        (
            FaultClass::Tf,
            Box::new(move |rng: &mut R| {
                let kind = if rng.gen() {
                    FaultKind::TransitionUp
                } else {
                    FaultKind::TransitionDown
                };
                Fault::new(random_regular_cell(rng, &org), kind)
            }),
        ),
        (
            FaultClass::Sof,
            Box::new(move |rng: &mut R| {
                Fault::new(random_regular_cell(rng, &org), FaultKind::StuckOpen)
            }),
        ),
        (
            FaultClass::CfIn,
            Box::new(move |rng: &mut R| {
                let (victim, aggressor) = coupling_pair(rng, &org, intra_word_coupling);
                Fault::new(
                    victim,
                    FaultKind::CouplingInv {
                        aggressor,
                        rising: rng.gen(),
                    },
                )
            }),
        ),
        (
            FaultClass::CfId,
            Box::new(move |rng: &mut R| {
                let (victim, aggressor) = coupling_pair(rng, &org, intra_word_coupling);
                Fault::new(
                    victim,
                    FaultKind::CouplingIdem {
                        aggressor,
                        rising: rng.gen(),
                        forced: rng.gen(),
                    },
                )
            }),
        ),
        (
            FaultClass::CfSt,
            Box::new(move |rng: &mut R| {
                let (victim, aggressor) = coupling_pair(rng, &org, intra_word_coupling);
                Fault::new(
                    victim,
                    FaultKind::StateCoupling {
                        aggressor,
                        state: rng.gen(),
                        forced: rng.gen(),
                    },
                )
            }),
        ),
        (
            FaultClass::Drf,
            Box::new(move |rng: &mut R| {
                Fault::new(
                    random_regular_cell(rng, &org),
                    FaultKind::Retention {
                        leaks_to: rng.gen(),
                    },
                )
            }),
        ),
    ];

    let mut out = Vec::new();
    for (name, gen) in classes {
        let mut detected = 0;
        for _ in 0..per_class {
            let mut ram = SramModel::new(org);
            ram.inject(gen(rng));
            if run_march(test, &mut ram, &config, None).detected() {
                detected += 1;
            }
        }
        out.push(ClassCoverage {
            class: name,
            injected: per_class,
            detected,
        });
    }
    CoverageReport {
        test: test.name().to_owned(),
        johnson,
        classes: out,
    }
}

fn random_regular_cell<R: Rng + ?Sized>(rng: &mut R, org: &ArrayOrg) -> usize {
    let row = rng.gen_range(0..org.rows());
    let col = rng.gen_range(0..org.bpc());
    let bit = rng.gen_range(0..org.bpw());
    org.cell_at(row, col, bit)
}

fn coupling_pair<R: Rng + ?Sized>(rng: &mut R, org: &ArrayOrg, intra_word: bool) -> (usize, usize) {
    let regular = org.rows() * org.bpc() * org.bpw();
    assert!(
        regular > 1,
        "coupling faults need at least two regular cells"
    );
    if intra_word && org.bpw() > 1 {
        let row = rng.gen_range(0..org.rows());
        let col = rng.gen_range(0..org.bpc());
        let vbit = rng.gen_range(0..org.bpw());
        // Distinct bit by offset, not rejection: a 1-bit word would spin
        // the old `b != vbit` loop forever, and even bpw == 2 wastes
        // draws.
        let abit = (vbit + rng.gen_range(1..org.bpw())) % org.bpw();
        (org.cell_at(row, col, vbit), org.cell_at(row, col, abit))
    } else if intra_word && org.bpc() > 1 {
        // One-bit words have no intra-word mate; fall back to a
        // cross-column aggressor in the same physical row — the nearest
        // layout neighbour a real defect would bridge to.
        let row = rng.gen_range(0..org.rows());
        let vcol = rng.gen_range(0..org.bpc());
        let acol = (vcol + rng.gen_range(1..org.bpc())) % org.bpc();
        (org.cell_at(row, vcol, 0), org.cell_at(row, acol, 0))
    } else {
        // Inter-word (or a degenerate single-column organisation): two
        // distinct regular cells by ordinal offset, which terminates for
        // every array with at least two cells.
        let victim = rng.gen_range(0..regular);
        let aggressor = (victim + rng.gen_range(1..regular)) % regular;
        (
            regular_cell_at(org, victim),
            regular_cell_at(org, aggressor),
        )
    }
}

/// Maps an ordinal in `0..rows*bpc*bpw` to the cell index of a regular
/// (non-spare) cell.
fn regular_cell_at(org: &ArrayOrg, ord: usize) -> usize {
    let bit = ord % org.bpw();
    let col = (ord / org.bpw()) % org.bpc();
    let row = ord / (org.bpw() * org.bpc());
    org.cell_at(row, col, bit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::march;
    use bisram_rng::rngs::StdRng;
    use bisram_rng::SeedableRng;

    fn org() -> ArrayOrg {
        ArrayOrg::new(128, 8, 4, 0).unwrap()
    }

    #[test]
    fn ifa9_covers_saf_tf_cf_drf_fully_with_johnson_backgrounds() {
        let mut rng = StdRng::seed_from_u64(11);
        let report = measure(&mut rng, org(), &march::ifa9(), true, 25, true);
        for c in &report.classes {
            if c.class == FaultClass::Sof {
                continue; // see ifa13_needed_for_stuck_open below
            }
            assert_eq!(
                c.fraction(),
                1.0,
                "IFA-9/Johnson must detect every {} fault; got {}/{}",
                c.class,
                c.detected,
                c.injected
            );
        }
    }

    #[test]
    fn ifa13_needed_for_stuck_open() {
        // The classical IFA result: the 9N test lacks the read-after-
        // write needed to observe a stuck-open cell echoing the sense
        // amplifier, while IFA-13's `⇑(r0,w1,r1)` elements catch it.
        // (The paper's §V claim that IFA-9 detects stuck-open faults only
        // holds for the boundary cases; see EXPERIMENTS.md.)
        let mut rng = StdRng::seed_from_u64(19);
        let ifa9 = measure(&mut rng, org(), &march::ifa9(), true, 25, false);
        let mut rng = StdRng::seed_from_u64(19);
        let ifa13 = measure(&mut rng, org(), &march::ifa13(), true, 25, false);
        assert_eq!(ifa13.class(FaultClass::Sof).unwrap().fraction(), 1.0);
        assert!(ifa9.class(FaultClass::Sof).unwrap().fraction() < 0.5);
    }

    #[test]
    fn single_background_misses_intra_word_couplings() {
        // Random intra-word state couplings: the cases where the forced
        // value equals the sensitizing state are invisible under uniform
        // data, so a single background hovers near half coverage while
        // the Johnson schedule reaches 100%.
        let mut rng = StdRng::seed_from_u64(13);
        let single = measure(&mut rng, org(), &march::ifa9(), false, 40, true);
        let mut rng = StdRng::seed_from_u64(13);
        let johnson = measure(&mut rng, org(), &march::ifa9(), true, 40, true);
        let s = single.class(FaultClass::CfSt).unwrap().fraction();
        let j = johnson.class(FaultClass::CfSt).unwrap().fraction();
        assert_eq!(j, 1.0, "johnson CFst coverage");
        assert!(
            s < 0.9,
            "single-background CFst coverage suspiciously high: {s}"
        );
        assert!(j > s);
        // Stuck-at coverage is unaffected by the background schedule.
        assert_eq!(single.class(FaultClass::Saf).unwrap().fraction(), 1.0);
    }

    #[test]
    fn mats_plus_misses_retention_faults() {
        let mut rng = StdRng::seed_from_u64(17);
        let report = measure(&mut rng, org(), &march::mats_plus(), true, 20, false);
        assert_eq!(report.class(FaultClass::Drf).unwrap().fraction(), 0.0);
        assert_eq!(report.class(FaultClass::Saf).unwrap().fraction(), 1.0);
    }

    #[test]
    fn coupling_pair_terminates_for_one_bit_words() {
        // Regression: bpw == 1 sent the intra-word aggressor loop into
        // `b != vbit` with a single candidate — it could never exit. The
        // fallback must produce a distinct cross-column aggressor.
        let org = ArrayOrg::new(64, 1, 4, 0).unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        for case in 0..200 {
            let (v, a) = coupling_pair(&mut rng, &org, true);
            assert_ne!(v, a, "case {case}: victim {v} == aggressor {a}");
            assert_eq!(
                org.cell_coords(v).0,
                org.cell_coords(a).0,
                "case {case}: cross-column fallback must stay in the victim row"
            );
        }
    }

    #[test]
    fn coupling_pair_terminates_for_single_column_arrays() {
        // bpw == 1 and bpc == 1: the only distinct aggressor lives in
        // another row; the inter-word path must find it without spinning.
        let org = ArrayOrg::new(16, 1, 1, 0).unwrap();
        let mut rng = StdRng::seed_from_u64(29);
        for case in 0..200 {
            for intra in [false, true] {
                let (v, a) = coupling_pair(&mut rng, &org, intra);
                assert_ne!(v, a, "case {case} intra={intra}");
                assert!(v < org.total_cells() && a < org.total_cells());
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least two regular cells")]
    fn coupling_pair_rejects_one_cell_arrays() {
        let org = ArrayOrg::new(1, 1, 1, 0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let _ = coupling_pair(&mut rng, &org, false);
    }

    #[test]
    fn report_accessors() {
        let r = CoverageReport {
            test: "t".into(),
            johnson: true,
            classes: vec![
                ClassCoverage {
                    class: FaultClass::Saf,
                    injected: 10,
                    detected: 9,
                },
                ClassCoverage {
                    class: FaultClass::Tf,
                    injected: 0,
                    detected: 0,
                },
            ],
        };
        assert!((r.class(FaultClass::Saf).unwrap().fraction() - 0.9).abs() < 1e-12);
        assert_eq!(r.class(FaultClass::Tf).unwrap().fraction(), 1.0);
        assert!(r.class(FaultClass::Drf).is_none());
        assert!((r.overall() - 0.9).abs() < 1e-12);
    }
}
