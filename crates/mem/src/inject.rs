//! Random defect-pattern generation for fault-injection campaigns.

use crate::fault::{Fault, FaultKind};
use crate::org::ArrayOrg;
use bisram_rng::seq::SliceRandom;
use bisram_rng::Rng;

/// Relative weights of the fault classes in a random campaign. The
/// defaults roughly follow the inductive-fault-analysis literature's
/// reported distribution for SRAM layout defects (stuck-ats dominate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultMix {
    /// Stuck-at weight.
    pub stuck_at: f64,
    /// Transition-fault weight.
    pub transition: f64,
    /// Stuck-open weight.
    pub stuck_open: f64,
    /// Coupling (all three sub-classes) weight.
    pub coupling: f64,
    /// Data-retention weight.
    pub retention: f64,
}

impl Default for FaultMix {
    fn default() -> Self {
        FaultMix {
            stuck_at: 0.45,
            transition: 0.20,
            stuck_open: 0.10,
            coupling: 0.15,
            retention: 0.10,
        }
    }
}

impl FaultMix {
    /// A mix containing only stuck-at faults (the model classical row
    /// repair analyses assume).
    pub fn stuck_at_only() -> Self {
        FaultMix {
            stuck_at: 1.0,
            transition: 0.0,
            stuck_open: 0.0,
            coupling: 0.0,
            retention: 0.0,
        }
    }

    fn total(&self) -> f64 {
        self.stuck_at + self.transition + self.stuck_open + self.coupling + self.retention
    }
}

/// Draws `count` random faults over distinct victim cells of the array
/// (spare rows included — spares can be faulty too, which is exactly what
/// the second BIST pass must catch).
///
/// # Panics
///
/// Panics if `count` exceeds the number of cells, or the mix has no
/// positive weight.
pub fn random_faults<R: Rng + ?Sized>(
    rng: &mut R,
    org: &ArrayOrg,
    count: usize,
    mix: &FaultMix,
) -> Vec<Fault> {
    assert!(
        count <= org.total_cells(),
        "more faults than cells requested"
    );
    assert!(mix.total() > 0.0, "fault mix has zero weight");

    // Distinct victims via partial shuffle.
    let mut cells: Vec<usize> = (0..org.total_cells()).collect();
    let (victims, _) = cells.partial_shuffle(rng, count);

    victims
        .iter()
        .map(|&cell| Fault::new(cell, random_kind(rng, org, cell, mix)))
        .collect()
}

fn random_kind<R: Rng + ?Sized>(
    rng: &mut R,
    org: &ArrayOrg,
    victim: usize,
    mix: &FaultMix,
) -> FaultKind {
    let t = mix.total();
    assert!(t > 0.0 && t.is_finite(), "fault mix has zero weight");
    // `x < t` holds by the half-open range contract, and the running
    // accumulator repeats exactly the additions behind `total()`, so the
    // last positive-weight category always claims the draw — no category
    // is ever selected by floating-point leftovers alone.
    let x = rng.gen_range(0.0..t);
    let mut acc = mix.stuck_at;
    if mix.stuck_at > 0.0 && x < acc {
        return FaultKind::StuckAt(rng.gen());
    }
    acc += mix.transition;
    if mix.transition > 0.0 && x < acc {
        return if rng.gen() {
            FaultKind::TransitionUp
        } else {
            FaultKind::TransitionDown
        };
    }
    acc += mix.stuck_open;
    if mix.stuck_open > 0.0 && x < acc {
        return FaultKind::StuckOpen;
    }
    acc += mix.coupling;
    if mix.coupling > 0.0 && x < acc {
        assert!(
            org.total_cells() > 1,
            "coupling faults need at least two cells"
        );
        // Aggressor: a random other cell, biased toward the same physical
        // row (adjacent-cell defects), as layout locality dictates.
        let aggressor = loop {
            let a = if rng.gen_bool(0.5) {
                // Same row, different column position.
                let (row, _, _) = org.cell_coords(victim);
                let col = rng.gen_range(0..org.bpc());
                let bit = rng.gen_range(0..org.bpw());
                org.cell_at(row, col, bit)
            } else {
                rng.gen_range(0..org.total_cells())
            };
            if a != victim {
                break a;
            }
        };
        return match rng.gen_range(0..3) {
            0 => FaultKind::CouplingInv {
                aggressor,
                rising: rng.gen(),
            },
            1 => FaultKind::CouplingIdem {
                aggressor,
                rising: rng.gen(),
                forced: rng.gen(),
            },
            _ => FaultKind::StateCoupling {
                aggressor,
                state: rng.gen(),
                forced: rng.gen(),
            },
        };
    }
    // Explicit final category: retention must carry the remaining weight,
    // otherwise one of the guarded branches above already returned.
    assert!(mix.retention > 0.0, "draw escaped every weighted category");
    FaultKind::Retention {
        leaks_to: rng.gen(),
    }
}

/// All-cells-stuck faults for one physical row — models a word-line /
/// row-decoder failure. Row repair replaces exactly such rows.
pub fn row_failure(org: &ArrayOrg, row: usize, stuck: bool) -> Vec<Fault> {
    assert!(row < org.total_rows(), "row out of range");
    (0..org.bpc())
        .flat_map(|col| (0..org.bpw()).map(move |bit| (col, bit)))
        .map(|(col, bit)| Fault::new(org.cell_at(row, col, bit), FaultKind::StuckAt(stuck)))
        .collect()
}

/// All-cells-stuck faults along one physical column — models a bitline
/// failure. This is the pattern that *swamps* row redundancy (paper §VI:
/// "if a column is faulty, the row redundancy will be quickly swamped").
pub fn column_failure(org: &ArrayOrg, subarray_bit: usize, col: usize, stuck: bool) -> Vec<Fault> {
    assert!(subarray_bit < org.bpw(), "subarray out of range");
    assert!(col < org.bpc(), "column select out of range");
    (0..org.total_rows())
        .map(|row| {
            Fault::new(
                org.cell_at(row, col, subarray_bit),
                FaultKind::StuckAt(stuck),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisram_rng::rngs::StdRng;
    use bisram_rng::SeedableRng;

    fn org() -> ArrayOrg {
        ArrayOrg::new(256, 8, 4, 4).unwrap()
    }

    #[test]
    fn random_faults_have_distinct_victims() {
        let mut rng = StdRng::seed_from_u64(7);
        let faults = random_faults(&mut rng, &org(), 100, &FaultMix::default());
        assert_eq!(faults.len(), 100);
        let mut cells: Vec<_> = faults.iter().map(|f| f.cell).collect();
        cells.sort_unstable();
        cells.dedup();
        assert_eq!(cells.len(), 100);
    }

    #[test]
    fn stuck_at_only_mix_produces_only_saf() {
        let mut rng = StdRng::seed_from_u64(1);
        let faults = random_faults(&mut rng, &org(), 50, &FaultMix::stuck_at_only());
        assert!(faults
            .iter()
            .all(|f| f.kind.class() == crate::FaultClass::Saf));
    }

    #[test]
    fn default_mix_produces_every_class_eventually() {
        let mut rng = StdRng::seed_from_u64(42);
        let faults = random_faults(&mut rng, &org(), 500, &FaultMix::default());
        let classes: std::collections::HashSet<_> = faults.iter().map(|f| f.kind.class()).collect();
        for c in crate::FaultClass::ALL {
            assert!(classes.contains(&c), "missing class {c}");
        }
    }

    #[test]
    fn coupling_aggressor_is_never_victim() {
        let mut rng = StdRng::seed_from_u64(3);
        let faults = random_faults(&mut rng, &org(), 500, &FaultMix::default());
        for f in faults {
            if let Some(a) = f.kind.aggressor() {
                assert_ne!(a, f.cell);
            }
        }
    }

    #[test]
    fn row_failure_covers_entire_row() {
        let o = org();
        let faults = row_failure(&o, 5, true);
        assert_eq!(faults.len(), o.columns());
        for f in &faults {
            assert_eq!(o.cell_coords(f.cell).0, 5);
        }
    }

    #[test]
    fn column_failure_covers_all_rows_including_spares() {
        let o = org();
        let faults = column_failure(&o, 3, 1, false);
        assert_eq!(faults.len(), o.total_rows());
        let rows: std::collections::HashSet<_> =
            faults.iter().map(|f| o.cell_coords(f.cell).0).collect();
        assert_eq!(rows.len(), o.total_rows());
    }

    #[test]
    #[should_panic(expected = "more faults than cells")]
    fn too_many_faults_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let o = org();
        random_faults(&mut rng, &o, o.total_cells() + 1, &FaultMix::default());
    }

    #[test]
    #[should_panic(expected = "zero weight")]
    fn all_zero_mix_rejected_before_sampling() {
        // Regression: an all-zero mix used to reach `gen_range(0.0..0.0)`
        // — a degenerate range — instead of failing with a clear message.
        let zero = FaultMix {
            stuck_at: 0.0,
            transition: 0.0,
            stuck_open: 0.0,
            coupling: 0.0,
            retention: 0.0,
        };
        random_faults(&mut StdRng::seed_from_u64(1), &org(), 1, &zero);
    }

    #[test]
    fn single_category_mixes_select_exactly_that_category() {
        // The explicit fall-through must route a draw to the one positive
        // weight, whatever its position — never to retention by default.
        use crate::FaultClass;
        let cases: [(FaultMix, &[FaultClass]); 3] = [
            (
                FaultMix {
                    stuck_at: 0.0,
                    transition: 1.0,
                    stuck_open: 0.0,
                    coupling: 0.0,
                    retention: 0.0,
                },
                &[FaultClass::Tf],
            ),
            (
                FaultMix {
                    stuck_at: 0.0,
                    transition: 0.0,
                    stuck_open: 0.0,
                    coupling: 1.0,
                    retention: 0.0,
                },
                &[FaultClass::CfIn, FaultClass::CfId, FaultClass::CfSt],
            ),
            (
                FaultMix {
                    stuck_at: 0.0,
                    transition: 0.0,
                    stuck_open: 0.0,
                    coupling: 0.0,
                    retention: 1.0,
                },
                &[FaultClass::Drf],
            ),
        ];
        for (mix, classes) in cases {
            let mut rng = StdRng::seed_from_u64(8);
            for f in random_faults(&mut rng, &org(), 50, &mix) {
                assert!(
                    classes.contains(&f.kind.class()),
                    "mix {mix:?} produced {:?}",
                    f.kind
                );
            }
        }
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let a = random_faults(
            &mut StdRng::seed_from_u64(9),
            &org(),
            20,
            &FaultMix::default(),
        );
        let b = random_faults(
            &mut StdRng::seed_from_u64(9),
            &org(),
            20,
            &FaultMix::default(),
        );
        assert_eq!(a, b);
    }
}
