//! Economic spare-count optimization.
//!
//! The paper evaluates 4, 8 and 16 spare rows (Fig. 4) and ships 4 as
//! the default. This module answers the implied design question: *which
//! spare count minimizes the cost per good die?* More spares raise the
//! repairable fraction but grow the die (the growth factor), so the cost
//! per good die — proportional to `area / yield` — has an interior
//! optimum that moves with the process defectivity.

use crate::repairability::YieldModel;
use bisram_mem::ArrayOrg;

/// One point of a spare-count sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparePoint {
    /// Spare rows.
    pub spares: usize,
    /// Yield with BISR at the sweep's defect count.
    pub yield_with_bisr: f64,
    /// Area growth factor over the spare-less array.
    pub growth_factor: f64,
    /// Relative cost per good die (`growth / yield`), normalized so the
    /// zero-spare point is 1.0 at zero defects.
    pub relative_cost: f64,
}

/// Result of the optimization.
#[derive(Debug, Clone, PartialEq)]
pub struct SpareSweep {
    /// All evaluated points, ascending in spare count.
    pub points: Vec<SparePoint>,
    /// The cost-minimizing spare count.
    pub optimal_spares: usize,
}

/// Sweeps spare counts `0..=max_spares` for an array of `words × bpw`
/// (bits-per-column `bpc`) at `defects` average defects on the
/// nonredundant array, and returns the cost-per-good-die optimum.
///
/// # Panics
///
/// Panics if the base geometry is invalid or `defects` is negative.
pub fn optimize_spares(
    words: usize,
    bpw: usize,
    bpc: usize,
    defects: f64,
    overhead_fraction: f64,
    max_spares: usize,
) -> SpareSweep {
    assert!(defects >= 0.0, "defect count cannot be negative");
    let mut points = Vec::new();
    for spares in 0..=max_spares {
        let org = ArrayOrg::new(words, bpw, bpc, spares).expect("valid geometry");
        let model = YieldModel::new(org, overhead_fraction);
        let y = if spares == 0 {
            model.yield_without_bisr(defects)
        } else {
            model.yield_with_bisr(defects)
        };
        let growth = if spares == 0 {
            1.0
        } else {
            model.growth_factor
        };
        points.push(SparePoint {
            spares,
            yield_with_bisr: y,
            growth_factor: growth,
            relative_cost: growth / y.max(1e-12),
        });
    }
    let optimal_spares = points
        .iter()
        .min_by(|a, b| a.relative_cost.total_cmp(&b.relative_cost))
        .expect("non-empty sweep")
        .spares;
    SpareSweep {
        points,
        optimal_spares,
    }
}

/// [`optimize_spares`] driven by a *measured* per-cell failure
/// probability (e.g. the rare-event engine's importance-sampled tail
/// estimate) instead of an assumed mean defect count: the expected
/// defect count on the nonredundant array is simply
/// `p_cell × total_cells`.
///
/// # Panics
///
/// Panics if `p_cell` is outside `[0, 1]` or the geometry is invalid.
pub fn optimize_spares_measured(
    words: usize,
    bpw: usize,
    bpc: usize,
    p_cell: f64,
    overhead_fraction: f64,
    max_spares: usize,
) -> SpareSweep {
    assert!(
        (0.0..=1.0).contains(&p_cell),
        "per-cell failure probability must be in [0, 1]"
    );
    let base = ArrayOrg::new(words, bpw, bpc, 0).expect("valid geometry");
    let defects = p_cell * base.total_cells() as f64;
    optimize_spares(words, bpw, bpc, defects, overhead_fraction, max_spares)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(defects: f64) -> SpareSweep {
        // The Fig. 4 array.
        optimize_spares(4096, 4, 4, defects, 0.05, 16)
    }

    #[test]
    fn perfect_process_wants_no_spares() {
        let s = sweep(0.0);
        assert_eq!(s.optimal_spares, 0);
        assert!((s.points[0].relative_cost - 1.0).abs() < 1e-9);
    }

    #[test]
    fn defective_process_wants_spares() {
        let s = sweep(6.0);
        assert!(
            s.optimal_spares >= 2,
            "at 6 defects spares must pay: optimum {}",
            s.optimal_spares
        );
        // The optimum beats both extremes.
        let best = &s.points[s.optimal_spares];
        assert!(best.relative_cost < s.points[0].relative_cost);
        assert!(best.relative_cost <= s.points[16].relative_cost);
    }

    #[test]
    fn optimum_grows_with_defectivity() {
        let low = sweep(1.0).optimal_spares;
        let high = sweep(12.0).optimal_spares;
        assert!(
            high >= low,
            "dirtier process needs at least as many spares: {low} -> {high}"
        );
        assert!(high > 0);
    }

    #[test]
    fn growth_factor_monotone_in_spares() {
        let s = sweep(4.0);
        for w in s.points.windows(2) {
            assert!(w[1].growth_factor > w[0].growth_factor);
        }
    }

    #[test]
    fn cost_curve_has_a_knee_near_the_papers_four_spares() {
        // The pure cost optimum keeps drifting upward with spares (the
        // growth factor per extra row is tiny), but the curve is nearly
        // flat past the knee: at moderate defectivity the first four
        // spares capture the large majority of the achievable saving.
        // The *binding* reason the paper ships 4 is the TLB
        // delay-masking guarantee (§VI), which only holds for 1-4
        // spares — the economics alone would ask for more.
        let s = sweep(2.0);
        let cost = |n: usize| s.points[n].relative_cost;
        let total_saving = cost(0) - cost(s.optimal_spares);
        let saving_at_4 = cost(0) - cost(4);
        assert!(
            saving_at_4 > 0.9 * total_saving,
            "four spares capture {:.0}% of the achievable saving",
            100.0 * saving_at_4 / total_saving
        );
        // Past the knee each extra spare buys almost nothing.
        assert!(cost(4) - cost(8) < 0.1 * (cost(0) - cost(4)));
    }

    #[test]
    #[should_panic(expected = "cannot be negative")]
    fn negative_defects_rejected() {
        optimize_spares(4096, 4, 4, -1.0, 0.05, 4);
    }

    #[test]
    fn measured_probability_maps_to_expected_defects() {
        // p_cell × cells ≈ 4 defects (16 Kb nonredundant array): the
        // measured entry point must agree with the assumed-count sweep
        // at that equivalent defectivity.
        let cells = 4096 * 4; // words × bits-per-word
        let p_cell = 4.0 / cells as f64;
        let measured = optimize_spares_measured(4096, 4, 4, p_cell, 0.05, 16);
        let assumed = optimize_spares(4096, 4, 4, 4.0, 0.05, 16);
        assert_eq!(measured, assumed);
        assert!(
            measured.optimal_spares > 0,
            "4 expected defects must buy spares"
        );
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn out_of_range_probability_rejected() {
        optimize_spares_measured(4096, 4, 4, 1.5, 0.05, 4);
    }
}
