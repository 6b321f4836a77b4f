//! Reliability (survivability) of BISR'ed RAMs — paper §VIII and Fig. 5.
//!
//! Repair granularity is the *row*: the RAM survives until time `t` iff
//! at most `s` regular rows have failed by `t` and the `s` spare rows are
//! themselves fault-free. With a constant per-bit failure rate `λ`, a
//! row of `bpc·bpw` bits is faulty at time `t` with probability
//! `F(t) = 1 − e^{−λ·bpc·bpw·t}`, giving
//!
//! `R(t) = [Σ_{i≤s} C(rows,i)·F^i·(1−F)^{rows−i}] · (1−F)^s`.
//!
//! The striking consequence the paper plots in Fig. 5: early in life more
//! spares *reduce* reliability (the `(1−F)^s` factor — more cells must
//! stay fault-free), and only after several years does the added
//! tolerance win. For the Fig. 5 parameters the 4-spare and 8-spare
//! curves cross at roughly 8 years (≈ 70 000 h), which this module's
//! tests verify.

use crate::repairability::binomial_cdf;
use bisram_mem::ArrayOrg;

/// Reliability parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityModel {
    /// Array organization.
    pub org: ArrayOrg,
    /// Per-bit failure rate, in failures per hour (the paper's Fig. 5
    /// uses 1e-6 per kilo-hour = 1e-9 per hour).
    pub lambda_per_hour: f64,
}

impl ReliabilityModel {
    /// The Fig. 5 configuration: 1024 regular rows, `bpc = bpw = 4`,
    /// defect rate 1e-6 per kilo-hour per cell.
    pub fn fig5(spares: usize) -> Self {
        ReliabilityModel {
            org: ArrayOrg::new(4096, 4, 4, spares).expect("fig5 geometry is valid"),
            lambda_per_hour: 1e-9,
        }
    }

    /// Probability a single row (of `bpc·bpw` bits) is faulty at
    /// `t_hours`.
    ///
    /// # Panics
    ///
    /// Panics for negative time.
    pub fn row_fault_probability(&self, t_hours: f64) -> f64 {
        assert!(t_hours >= 0.0, "time cannot be negative");
        1.0 - (-self.row_failure_rate() * t_hours).exp()
    }

    /// The survival function `R(t)`.
    pub fn reliability(&self, t_hours: f64) -> f64 {
        let f = self.row_fault_probability(t_hours);
        let tolerate = binomial_cdf(self.org.rows(), f, self.org.spare_rows());
        let spares_ok = (1.0 - f).powi(self.org.spare_rows() as i32);
        tolerate * spares_ok
    }

    /// Mean time to failure, by numeric integration of `R(t)` over a
    /// uniform grid scaled to the row failure time constant
    /// (`MTTF = ∫₀^∞ R dt`). A fault-free array (`λ = 0`) never fails:
    /// its MTTF is infinite. A row failure rate `λ·bpc·bpw` too large for
    /// an `f64` fails at once: its MTTF is the limit 0.
    ///
    /// The trapezoid sum stops early once it cannot move: `R(t)` only
    /// decreases, so no later increment exceeds the current one, and an
    /// increment below `acc·ε/16` is under an eighth of an ulp of `acc`
    /// and rounds away. The result is bit-identical to the full sum.
    pub fn mttf_hours(&self) -> f64 {
        if self.lambda_per_hour == 0.0 {
            return f64::INFINITY;
        }
        if !self.row_failure_rate().is_finite() {
            return 0.0;
        }
        let (steps, dt) = self.mttf_grid();
        let mut acc = 0.0;
        let mut prev = self.reliability(0.0);
        for i in 1..=steps {
            let r = self.reliability(i as f64 * dt);
            let increment = 0.5 * (prev + r) * dt;
            if increment < acc * (f64::EPSILON / 16.0) {
                break;
            }
            acc += increment;
            prev = r;
        }
        acc
    }

    /// Failures per hour of one row, `λ·bpc·bpw`.
    fn row_failure_rate(&self) -> f64 {
        self.lambda_per_hour * self.org.columns() as f64
    }

    /// The MTTF integration grid: step count and step width.
    fn mttf_grid(&self) -> (usize, f64) {
        let tau_row = 1.0 / self.row_failure_rate();
        // R(t) decays on the scale of tau_row / rows, stretched by the
        // spare tolerance.
        let t_max = 50.0 * tau_row / self.org.rows() as f64 * (1.0 + self.org.spare_rows() as f64);
        let steps = 20_000;
        (steps, t_max / steps as f64)
    }

    /// [`ReliabilityModel::mttf_hours`] without the early exit: every
    /// step of the grid summed, the reference the early exit must match
    /// bit for bit.
    #[cfg(test)]
    fn mttf_hours_full(&self) -> f64 {
        if self.lambda_per_hour == 0.0 {
            return f64::INFINITY;
        }
        let (steps, dt) = self.mttf_grid();
        let mut acc = 0.0;
        let mut prev = self.reliability(0.0);
        for i in 1..=steps {
            let r = self.reliability(i as f64 * dt);
            acc += 0.5 * (prev + r) * dt;
            prev = r;
        }
        acc
    }
}

/// A survival curve sampled on a time grid — the shape an empirical
/// lifetime simulation produces (`R̂(t)` from N seeded lifetimes) and the
/// shape the analytic model is sampled into for comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct SurvivalCurve {
    /// Sample times, in hours, strictly increasing.
    pub times_hours: Vec<f64>,
    /// Survival probability at each sample time.
    pub survival: Vec<f64>,
}

impl SurvivalCurve {
    /// Builds a curve from matching time/survival vectors.
    ///
    /// # Panics
    ///
    /// Panics when the vectors disagree in length — a malformed curve is
    /// a programming error at the producer, not a runtime condition.
    pub fn new(times_hours: Vec<f64>, survival: Vec<f64>) -> Self {
        assert_eq!(
            times_hours.len(),
            survival.len(),
            "time grid and survival values must pair up"
        );
        SurvivalCurve {
            times_hours,
            survival,
        }
    }

    /// Number of sample points.
    pub fn len(&self) -> usize {
        self.times_hours.len()
    }

    /// True when the curve has no samples.
    pub fn is_empty(&self) -> bool {
        self.times_hours.is_empty()
    }
}

/// Error statistics from comparing an empirical survival curve against
/// the analytic model on the curve's own grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurveComparison {
    /// Largest absolute deviation `|R̂(t) − R(t)|` over the grid.
    pub max_abs_error: f64,
    /// Mean absolute deviation over the grid.
    pub mean_abs_error: f64,
    /// Grid points compared.
    pub points: usize,
    /// Sample time (hours) at which the largest deviation occurred.
    pub worst_time_hours: f64,
}

impl ReliabilityModel {
    /// Samples the analytic `R(t)` on an explicit time grid.
    pub fn sample(&self, times_hours: &[f64]) -> SurvivalCurve {
        let survival = times_hours.iter().map(|&t| self.reliability(t)).collect();
        SurvivalCurve::new(times_hours.to_vec(), survival)
    }

    /// Compares an empirical curve against this model point-by-point on
    /// the curve's grid. Returns `None` for an empty curve (no points ⇒
    /// no error statistics), so callers decide how to treat degenerate
    /// input instead of inheriting a panic.
    pub fn compare(&self, empirical: &SurvivalCurve) -> Option<CurveComparison> {
        if empirical.is_empty() {
            return None;
        }
        let mut max_abs_error: f64 = 0.0;
        let mut worst_time_hours = empirical.times_hours[0];
        let mut sum = 0.0;
        for (&t, &r_hat) in empirical.times_hours.iter().zip(&empirical.survival) {
            let err = (r_hat - self.reliability(t)).abs();
            sum += err;
            if err > max_abs_error {
                max_abs_error = err;
                worst_time_hours = t;
            }
        }
        Some(CurveComparison {
            max_abs_error,
            mean_abs_error: sum / empirical.len() as f64,
            points: empirical.len(),
            worst_time_hours,
        })
    }
}

/// First grid time at which curve `b` rises strictly above curve `a` —
/// the empirical analogue of the paper's Fig. 5 spare-count crossover
/// (call with `a` = fewer spares, `b` = more spares; before the
/// crossover the extra spares *hurt* reliability). Both curves must be
/// sampled on the same grid; `None` when they never cross or the grids
/// differ.
pub fn crossover_time(a: &SurvivalCurve, b: &SurvivalCurve) -> Option<f64> {
    if a.times_hours != b.times_hours {
        return None;
    }
    a.times_hours
        .iter()
        .zip(a.survival.iter().zip(&b.survival))
        .find(|(_, (ra, rb))| rb > ra)
        .map(|(&t, _)| t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliability_starts_at_one_and_decays() {
        let m = ReliabilityModel::fig5(4);
        assert!((m.reliability(0.0) - 1.0).abs() < 1e-12);
        let r1 = m.reliability(10_000.0);
        let r2 = m.reliability(100_000.0);
        assert!(r1 > r2);
        assert!((0.0..=1.0).contains(&r1));
    }

    #[test]
    fn row_fault_probability_limits() {
        let m = ReliabilityModel::fig5(0);
        assert_eq!(m.row_fault_probability(0.0), 0.0);
        assert!(m.row_fault_probability(1e12) > 0.999);
    }

    #[test]
    fn zero_spare_mttf_matches_closed_form() {
        // With no spares, R(t) = (1-F)^rows = e^{-λ·bits_total·t}, so
        // MTTF = 1 / (λ · total bits).
        let m = ReliabilityModel::fig5(0);
        let analytic = 1.0 / (m.lambda_per_hour * m.org.cells() as f64);
        let numeric = m.mttf_hours();
        assert!(
            (numeric / analytic - 1.0).abs() < 0.02,
            "numeric {numeric:.1} vs analytic {analytic:.1}"
        );
    }

    #[test]
    fn fig5_crossover_between_four_and_eight_spares() {
        // Paper: "the reliability with four spare rows is greater than
        // that with eight spare rows until the age of the device becomes
        // about 8 years (i.e., 70 000 h after manufacture)".
        let m4 = ReliabilityModel::fig5(4);
        let m8 = ReliabilityModel::fig5(8);
        // Early life: fewer spares win.
        let early = 10_000.0;
        assert!(
            m4.reliability(early) > m8.reliability(early),
            "4 spares should lead early"
        );
        // Find the crossover.
        let mut crossover = None;
        let mut t = 1_000.0;
        while t < 1.0e6 {
            if m8.reliability(t) > m4.reliability(t) {
                crossover = Some(t);
                break;
            }
            t += 1_000.0;
        }
        let t_cross = crossover.expect("curves must cross");
        assert!(
            (35_000.0..140_000.0).contains(&t_cross),
            "crossover at {t_cross} h is far from the paper's ~70 000 h"
        );
    }

    #[test]
    fn more_spares_win_in_the_long_run() {
        let late = 300_000.0;
        let r4 = ReliabilityModel::fig5(4).reliability(late);
        let r16 = ReliabilityModel::fig5(16).reliability(late);
        assert!(r16 > r4);
    }

    #[test]
    fn mttf_increases_with_spares() {
        let m0 = ReliabilityModel::fig5(0).mttf_hours();
        let m4 = ReliabilityModel::fig5(4).mttf_hours();
        let m16 = ReliabilityModel::fig5(16).mttf_hours();
        assert!(m4 > m0);
        assert!(m16 > m4);
    }

    /// The early-exit oracle grid: words 64–65 536, bpw 4–64, bpc
    /// 4/8/16, spares 0–16 and λ log-spaced from 1e-12 to 1e-5 per hour,
    /// plus λ = 0.
    fn oracle_grid() -> Vec<ReliabilityModel> {
        let mut grid = Vec::new();
        for words in (6..=16).map(|e| 1usize << e) {
            for bpw in [4, 8, 16, 32, 64] {
                for bpc in [4, 8, 16] {
                    for spares in 0..=16 {
                        let org = ArrayOrg::new(words, bpw, bpc, spares).expect("valid org");
                        let lambdas = (0..8).map(|e| 10f64.powi(e - 12)).chain([0.0]);
                        grid.extend(lambdas.map(|lambda_per_hour| ReliabilityModel {
                            org,
                            lambda_per_hour,
                        }));
                    }
                }
            }
        }
        grid
    }

    fn assert_early_exit_exact(models: impl Iterator<Item = ReliabilityModel>) -> usize {
        let mut cases = 0;
        for m in models {
            let (fast, full) = (m.mttf_hours(), m.mttf_hours_full());
            assert_eq!(fast.to_bits(), full.to_bits(), "{m:?}: {fast} vs {full}");
            cases += 1;
        }
        cases
    }

    #[test]
    fn early_exit_mttf_is_bit_identical_on_a_sampled_grid() {
        // A stride coprime to every axis length walks all of them.
        let cases = assert_early_exit_exact(oracle_grid().into_iter().step_by(37));
        assert_eq!(cases, 683);
    }

    /// The whole grid; run it in release with
    /// `cargo test --release -p bisram-yield -- --ignored`.
    #[test]
    #[ignore = "the full oracle grid takes tens of seconds; run it in release"]
    fn early_exit_mttf_is_bit_identical_on_the_full_grid() {
        assert_eq!(
            assert_early_exit_exact(oracle_grid().into_iter()),
            11 * 5 * 3 * 17 * 9
        );
    }

    #[test]
    fn fault_free_array_never_fails() {
        let m = ReliabilityModel {
            lambda_per_hour: 0.0,
            ..ReliabilityModel::fig5(4)
        };
        assert_eq!(m.reliability(1e9), 1.0);
        assert_eq!(m.mttf_hours(), f64::INFINITY);
    }

    #[test]
    fn overflowing_row_failure_rate_fails_at_once() {
        // λ·bpc·bpw (here λ·16) overflows to ∞, which made the grid step
        // 0 and the first R(0) NaN; the MTTF is the limit 0 instead.
        // Just below the overflow the integral already rounds to ~0.
        let model = |lambda_per_hour| ReliabilityModel {
            lambda_per_hour,
            ..ReliabilityModel::fig5(4)
        };
        for lambda in [1e308, f64::MAX] {
            assert_eq!(model(lambda).mttf_hours(), 0.0, "{lambda}");
        }
        for lambda in [1e305, 1e307] {
            let mttf = model(lambda).mttf_hours();
            assert!((0.0..1e-300).contains(&mttf), "{lambda}: {mttf}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot be negative")]
    fn negative_time_rejected() {
        ReliabilityModel::fig5(4).reliability(-1.0);
    }

    #[test]
    fn sampling_matches_pointwise_evaluation() {
        let m = ReliabilityModel::fig5(4);
        let grid = [0.0, 10_000.0, 50_000.0, 200_000.0];
        let curve = m.sample(&grid);
        assert_eq!(curve.len(), 4);
        for (&t, &r) in curve.times_hours.iter().zip(&curve.survival) {
            assert_eq!(r, m.reliability(t));
        }
    }

    #[test]
    fn self_comparison_has_zero_error() {
        let m = ReliabilityModel::fig5(2);
        let grid: Vec<f64> = (0..10).map(|i| i as f64 * 25_000.0).collect();
        let cmp = m.compare(&m.sample(&grid)).expect("non-empty curve");
        assert_eq!(cmp.max_abs_error, 0.0);
        assert_eq!(cmp.mean_abs_error, 0.0);
        assert_eq!(cmp.points, 10);
    }

    #[test]
    fn comparison_finds_the_worst_point() {
        let m = ReliabilityModel::fig5(2);
        let grid = vec![10_000.0, 50_000.0, 100_000.0];
        let mut curve = m.sample(&grid);
        curve.survival[1] += 0.05; // perturb the middle sample
        let cmp = m.compare(&curve).expect("non-empty curve");
        assert!((cmp.max_abs_error - 0.05).abs() < 1e-12);
        assert_eq!(cmp.worst_time_hours, 50_000.0);
        assert!(cmp.mean_abs_error > 0.0 && cmp.mean_abs_error < cmp.max_abs_error);
    }

    #[test]
    fn empty_curve_comparison_is_none() {
        let m = ReliabilityModel::fig5(2);
        assert!(m.compare(&SurvivalCurve::new(vec![], vec![])).is_none());
    }

    #[test]
    fn analytic_crossover_detected_on_sampled_curves() {
        // The Fig. 5 crossover, rediscovered from sampled curves with
        // the same helper the empirical validation uses.
        let grid: Vec<f64> = (1..60).map(|i| i as f64 * 5_000.0).collect();
        let c4 = ReliabilityModel::fig5(4).sample(&grid);
        let c8 = ReliabilityModel::fig5(8).sample(&grid);
        let t = crossover_time(&c4, &c8).expect("curves must cross on this grid");
        assert!(
            (35_000.0..140_000.0).contains(&t),
            "crossover at {t} h is far from the paper's ~70 000 h"
        );
        // Before the crossover the 8-spare curve sits below.
        let idx = grid
            .iter()
            .position(|&g| g == t)
            .expect("t is a grid point");
        assert!(idx > 0);
        assert!(c8.survival[idx - 1] <= c4.survival[idx - 1]);
    }

    #[test]
    fn mismatched_grids_never_cross() {
        let c4 = ReliabilityModel::fig5(4).sample(&[1_000.0, 2_000.0]);
        let c8 = ReliabilityModel::fig5(8).sample(&[1_000.0, 3_000.0]);
        assert!(crossover_time(&c4, &c8).is_none());
    }
}
