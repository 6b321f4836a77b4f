//! The repairability probability `R` and the BISR yield of Fig. 4.
//!
//! Paper §VII: "The probability of not having a failing bit in a
//! `bpc·bpw`-bit row is given by `Y_cell^{bpc·bpw}` ... A defect pattern
//! can be repaired successfully if and only if the number of faulty rows
//! is at most equal to the number of spare rows, and the spares required
//! are themselves fault-free ... we adopt a stricter definition of
//! 'goodness' ... namely, that all the spares should be fault-free."

use crate::stapper;
use bisram_mem::ArrayOrg;

/// Probability that at most `k` of `n` independent trials with success
/// probability `p` succeed — the binomial CDF, evaluated with the stable
/// multiplicative pmf recurrence.
pub fn binomial_cdf(n: usize, p: f64, k: usize) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    if k >= n {
        return 1.0;
    }
    if p == 0.0 {
        return 1.0;
    }
    if p == 1.0 {
        return 0.0; // k < n
    }
    // pmf(0) = (1-p)^n, pmf(i+1) = pmf(i) * (n-i)/(i+1) * p/(1-p).
    // For large n the starting term underflows; work in log space then.
    let q = 1.0 - p;
    let log_pmf0 = n as f64 * q.ln();
    if log_pmf0 > -700.0 {
        let mut pmf = q.powi(n as i32);
        let mut cdf = pmf;
        let ratio = p / q;
        for i in 0..k {
            pmf *= (n - i) as f64 / (i + 1) as f64 * ratio;
            cdf += pmf;
        }
        cdf.min(1.0)
    } else {
        log_space_cdf(n, p, k, log_pmf0)
    }
}

/// The binomial CDF summed in log space, for `n` so large that the
/// direct recurrence's first term `(1-p)^n = e^log_pmf0` underflows. Two
/// passes of the same recurrence: the first finds the largest log term,
/// the second sums the terms scaled by it.
fn log_space_cdf(n: usize, p: f64, k: usize, log_pmf0: f64) -> f64 {
    let ratio_ln = (p / (1.0 - p)).ln();
    let log_pmfs = || {
        std::iter::once(log_pmf0).chain((0..k).scan(log_pmf0, move |log_pmf, i| {
            *log_pmf += ((n - i) as f64 / (i + 1) as f64).ln() + ratio_ln;
            Some(*log_pmf)
        }))
    };
    let max_log = log_pmfs().fold(f64::NEG_INFINITY, f64::max);
    let acc = log_pmfs().fold(0.0, |acc, l| acc + (l - max_log).exp());
    (acc.ln() + max_log).exp().min(1.0)
}

/// [`log_space_cdf`] as first written, buffering every log term in a
/// `Vec`: the reference the two-pass version must match bit for bit.
#[cfg(test)]
fn log_space_cdf_buffered(n: usize, p: f64, k: usize, log_pmf0: f64) -> f64 {
    let mut log_pmf = log_pmf0;
    let ratio_ln = (p / (1.0 - p)).ln();
    let mut acc: f64 = 0.0;
    let mut max_log = f64::NEG_INFINITY;
    let mut logs = Vec::with_capacity(k + 1);
    logs.push(log_pmf);
    max_log = max_log.max(log_pmf);
    for i in 0..k {
        log_pmf += ((n - i) as f64 / (i + 1) as f64).ln() + ratio_ln;
        logs.push(log_pmf);
        max_log = max_log.max(log_pmf);
    }
    for l in logs {
        acc += (l - max_log).exp();
    }
    (acc.ln() + max_log).exp().min(1.0)
}

/// The analytic repairability of a defect pattern with `defects` average
/// faults Poisson-distributed over the physical array (spare rows
/// included): the probability that at most `spares` *regular* rows are
/// faulty AND every spare row is fault-free.
pub fn repair_probability(org: &ArrayOrg, defects: f64) -> f64 {
    assert!(defects >= 0.0, "defect count cannot be negative");
    let cells = org.total_cells() as f64;
    if cells == 0.0 {
        return 1.0;
    }
    let lambda_cell = defects / cells;
    let row_ok = stapper::cell_yield(lambda_cell).powi(org.columns() as i32);
    let q = 1.0 - row_ok; // probability a given row is faulty
    let regular_ok = binomial_cdf(org.rows(), q, org.spare_rows());
    let spares_ok = row_ok.powi(org.spare_rows() as i32);
    regular_ok * spares_ok
}

/// Repairability under *clustered* defects: the Stapper model is a
/// Gamma–Poisson mixture, so the clustered repairability is the Gamma
/// average of the Poisson repairability,
/// `R_α(n) = ∫ R_poisson(x) · Gamma(x; α, n/α) dx`.
///
/// This is the consistent companion to [`crate::stapper::stapper_yield`]
/// for the Fig. 4 comparison: both the no-BISR baseline and the BISR
/// curves then see the same heavy-tailed defect statistics.
///
/// The trapezoid sum stops early once it cannot move: past the Gamma
/// mode `(α−1)·n/α` both the density and the Poisson repairability only
/// decrease, so no later increment exceeds the current one, and an
/// increment below `acc·ε/16` is under an eighth of an ulp of `acc` and
/// rounds away. The result is bit-identical to the full sum.
pub fn repair_probability_clustered(org: &ArrayOrg, defects: f64, alpha: f64) -> f64 {
    let Some((steps, dx, integrand)) = clustered_grid(org, defects, alpha) else {
        return 1.0;
    };
    let mode = (alpha - 1.0) * (defects / alpha);
    let mut acc = 0.0;
    let mut prev = 0.0; // integrand at x = 0 (pdf 0 for alpha > ... safe)
    for i in 1..=steps {
        let v = integrand(i as f64 * dx);
        let increment = 0.5 * (prev + v) * dx;
        // Step 1 starts from the x = 0 stand-in, which is not on the
        // decreasing tail even when the mode is at zero.
        if i > 1 && (i - 1) as f64 * dx >= mode && increment < acc * (f64::EPSILON / 16.0) {
            break;
        }
        acc += increment;
        prev = v;
    }
    acc.min(1.0)
}

/// [`repair_probability_clustered`] without the early exit: every step
/// of the grid summed, the reference the early exit must match bit for
/// bit.
#[cfg(test)]
fn repair_probability_clustered_full(org: &ArrayOrg, defects: f64, alpha: f64) -> f64 {
    let Some((steps, dx, integrand)) = clustered_grid(org, defects, alpha) else {
        return 1.0;
    };
    let mut acc = 0.0;
    let mut prev = 0.0;
    for i in 1..=steps {
        let v = integrand(i as f64 * dx);
        acc += 0.5 * (prev + v) * dx;
        prev = v;
    }
    acc.min(1.0)
}

/// The clustered-repairability integration grid: step count, step width
/// and the integrand, Gamma density times Poisson repairability. `None`
/// for zero defects, which are certainly repairable.
fn clustered_grid(
    org: &ArrayOrg,
    defects: f64,
    alpha: f64,
) -> Option<(usize, f64, impl Fn(f64) -> f64 + '_)> {
    assert!(defects >= 0.0, "defect count cannot be negative");
    assert!(alpha > 0.0, "clustering factor must be positive");
    if defects == 0.0 {
        return None;
    }
    // Gamma(shape = alpha, scale = defects/alpha): mean `defects`,
    // std `defects/sqrt(alpha)`. Integrate over mean ± 12 std (clipped
    // at zero) with the trapezoid rule; the integrand is smooth.
    let scale = defects / alpha;
    let std = defects / alpha.sqrt();
    let x_max = (defects + 12.0 * std).max(20.0 * scale);
    let steps = 2000;
    let ln_norm = -ln_gamma(alpha) - alpha * scale.ln();
    let integrand = move |x: f64| {
        let pdf = if x <= 0.0 {
            0.0
        } else {
            (ln_norm + (alpha - 1.0) * x.ln() - x / scale).exp()
        };
        pdf * repair_probability(org, x)
    };
    Some((steps, x_max / steps as f64, integrand))
}

/// Natural log of the Gamma function (Lanczos approximation, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        return (std::f64::consts::PI / (std::f64::consts::PI * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// The Fig. 4 yield model.
///
/// The x-axis of Fig. 4 is the total number of defects injected into the
/// *nonredundant* RAM array. For a BISR'ed RAM the same defect density
/// acts on a larger area, so the effective defect count is multiplied by
/// the `growth_factor` (redundant-array-with-BISR area over nonredundant
/// area); the BIST/BISR circuitry itself (an `overhead_fraction` of the
/// array area) must be fault-free and is scored with the Stapper model.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldModel {
    /// Array organization (spare rows included).
    pub org: ArrayOrg,
    /// Stapper clustering factor `α`.
    pub alpha: f64,
    /// Area of the redundant array plus BIST/BISR over the nonredundant
    /// array (≥ 1).
    pub growth_factor: f64,
    /// BIST/BISR circuitry area as a fraction of the nonredundant array
    /// area.
    pub overhead_fraction: f64,
}

impl YieldModel {
    /// A model with the paper's defaults: `α = 2`, growth factor from the
    /// array geometry (spare rows) plus the given circuitry overhead.
    pub fn new(org: ArrayOrg, overhead_fraction: f64) -> Self {
        let growth_factor = org.total_rows() as f64 / org.rows() as f64 + overhead_fraction;
        YieldModel {
            org,
            alpha: 2.0,
            growth_factor,
            overhead_fraction,
        }
    }

    /// Yield of the *nonredundant* array (curve (a) of Fig. 4).
    pub fn yield_without_bisr(&self, defects: f64) -> f64 {
        stapper::stapper_yield(defects, self.alpha)
    }

    /// Yield of the BISR'ed array (curves (b)–(d) of Fig. 4) at
    /// `defects` defects on the nonredundant-array x-axis.
    ///
    /// Both components use the clustered (Gamma–Poisson) statistics so
    /// that the comparison against the Stapper no-BISR baseline is
    /// apples-to-apples at every defect count.
    pub fn yield_with_bisr(&self, defects: f64) -> f64 {
        let effective = defects * self.growth_factor;
        // Split the defects between the storage array and the BIST/BISR
        // circuitry in proportion to area.
        let array_share = (self.growth_factor - self.overhead_fraction) / self.growth_factor;
        let array_defects = effective * array_share;
        let circuit_defects = effective - array_defects;
        let r = repair_probability_clustered(&self.org, array_defects, self.alpha);
        let circuit_ok = stapper::stapper_yield(circuit_defects, self.alpha);
        r * circuit_ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisram_rng::rngs::StdRng;
    use bisram_rng::seq::SliceRandom;
    use bisram_rng::{Rng, SeedableRng};

    fn fig4_org(spares: usize) -> ArrayOrg {
        // Fig. 4: 1024 rows, bpc = 4, bpw = 4.
        ArrayOrg::new(4096, 4, 4, spares).unwrap()
    }

    #[test]
    fn binomial_cdf_matches_hand_computation() {
        // n=4, p=0.5: P(X<=1) = (1 + 4)/16.
        assert!((binomial_cdf(4, 0.5, 1) - 5.0 / 16.0).abs() < 1e-12);
        assert_eq!(binomial_cdf(10, 0.3, 10), 1.0);
        assert_eq!(binomial_cdf(10, 0.0, 0), 1.0);
        assert_eq!(binomial_cdf(10, 1.0, 9), 0.0);
    }

    #[test]
    fn binomial_cdf_log_space_branch_is_finite() {
        // Large n with moderate p underflows the direct pmf start.
        let v = binomial_cdf(5000, 0.4, 2100);
        assert!(v.is_finite() && (0.0..=1.0).contains(&v));
        // Around the mean the CDF is near 0.5 or above.
        assert!(binomial_cdf(5000, 0.4, 2000) > 0.2);
    }

    #[test]
    fn two_pass_log_space_sum_matches_the_buffered_reference() {
        // n from just past the branch switch to a million rows, p
        // log-spaced over (0, 1), k up to past the spare counts the
        // models use.
        let mut cases = 0;
        for n in (10..=20).map(|e| 1usize << e) {
            for j in 1..40 {
                let p = 10f64.powf(-8.0 * f64::from(j) / 40.0);
                let log_pmf0 = n as f64 * (1.0 - p).ln();
                for k in (0..=16).chain([64, 1000]) {
                    let fast = log_space_cdf(n, p, k, log_pmf0);
                    let reference = log_space_cdf_buffered(n, p, k, log_pmf0);
                    assert_eq!(fast.to_bits(), reference.to_bits(), "n={n} p={p} k={k}");
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 11 * 39 * 19);
    }

    #[test]
    fn zero_defects_always_repairable() {
        for s in [0, 4, 8, 16] {
            assert!((repair_probability(&fig4_org(s), 0.0) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn more_spares_raise_repairability() {
        let n = 10.0;
        let r0 = repair_probability(&fig4_org(0), n);
        let r4 = repair_probability(&fig4_org(4), n);
        let r8 = repair_probability(&fig4_org(8), n);
        let r16 = repair_probability(&fig4_org(16), n);
        assert!(r0 < r4 && r4 < r8 && r8 < r16, "{r0} {r4} {r8} {r16}");
    }

    #[test]
    fn fig4_curves_order_correctly() {
        // At a defect count where the nonredundant array is mostly dead,
        // BISR with more spares must dominate.
        let mk = |s| YieldModel::new(fig4_org(s), 0.05);
        let defects = 8.0;
        let y_none = mk(4).yield_without_bisr(defects);
        let y4 = mk(4).yield_with_bisr(defects);
        let y8 = mk(8).yield_with_bisr(defects);
        let y16 = mk(16).yield_with_bisr(defects);
        assert!(y4 > y_none, "4 spares must beat no BISR: {y4} vs {y_none}");
        assert!(y8 > y4 && y16 > y8);
    }

    #[test]
    fn clustered_repairability_limits() {
        let org = fig4_org(4);
        // Zero defects: certain repair.
        assert_eq!(repair_probability_clustered(&org, 0.0, 2.0), 1.0);
        // Very large alpha converges to the Poisson result.
        let n = 6.0;
        let clustered = repair_probability_clustered(&org, n, 5e4);
        let poisson = repair_probability(&org, n);
        assert!(
            (clustered - poisson).abs() < 0.01,
            "clustered {clustered} vs poisson {poisson}"
        );
        // Clustering fattens the tail: at large defect counts the
        // clustered repairability dominates the Poisson one.
        let big = 30.0;
        assert!(repair_probability_clustered(&org, big, 2.0) > repair_probability(&org, big));
    }

    /// The early-exit oracle grid: words 64–65 536, bpw 4–64, bpc
    /// 4/8/16, spares 0–16, 0.01–50 defects and clustering factors
    /// 0.5–4, `(org, defects, alpha)` triples.
    fn clustered_oracle_grid() -> Vec<(ArrayOrg, f64, f64)> {
        let mut grid = Vec::new();
        for words in (3..=8).map(|e| 1usize << (2 * e)) {
            for bpw in [4, 8, 16, 32, 64] {
                for bpc in [4, 8, 16] {
                    for spares in [0, 1, 2, 4, 8, 16] {
                        let org = ArrayOrg::new(words, bpw, bpc, spares).expect("valid org");
                        for defects in [0.01, 0.1, 0.5, 2.0, 8.0, 20.0, 50.0] {
                            for alpha in [0.5, 1.0, 2.0, 4.0] {
                                grid.push((org, defects, alpha));
                            }
                        }
                    }
                }
            }
        }
        grid
    }

    fn assert_clustered_early_exit_exact(
        cases: impl Iterator<Item = (ArrayOrg, f64, f64)>,
    ) -> usize {
        let mut n = 0;
        for (org, defects, alpha) in cases {
            let fast = repair_probability_clustered(&org, defects, alpha);
            let full = repair_probability_clustered_full(&org, defects, alpha);
            assert_eq!(
                fast.to_bits(),
                full.to_bits(),
                "{org:?} defects={defects} alpha={alpha}: {fast} vs {full}"
            );
            n += 1;
        }
        n
    }

    #[test]
    fn early_exit_clustered_repairability_is_bit_identical_on_a_sampled_grid() {
        // A stride coprime to every axis length walks all of them.
        let cases =
            assert_clustered_early_exit_exact(clustered_oracle_grid().into_iter().step_by(13));
        assert_eq!(cases, 1164);
    }

    /// The whole grid; run it in release with
    /// `cargo test --release -p bisram-yield -- --ignored`.
    #[test]
    #[ignore = "the full oracle grid takes seconds in release; run it there"]
    fn early_exit_clustered_repairability_is_bit_identical_on_the_full_grid() {
        assert_eq!(
            assert_clustered_early_exit_exact(clustered_oracle_grid().into_iter()),
            6 * 5 * 3 * 6 * 7 * 4
        );
    }

    #[test]
    fn bisr_dominates_baseline_across_the_sweep() {
        // The Fig. 4 dominance property that the clustered model
        // restores: (a) < (b) < (c) < (d) at every plotted defect count.
        let mk = |s| YieldModel::new(fig4_org(s), 0.05);
        for i in 1..=12 {
            let n = i as f64 * 4.0;
            let a = mk(4).yield_without_bisr(n);
            let b = mk(4).yield_with_bisr(n);
            let c = mk(8).yield_with_bisr(n);
            let d = mk(16).yield_with_bisr(n);
            assert!(b > a, "n={n}: 4-spare {b} vs none {a}");
            assert!(c > b && d > c, "n={n}: ordering");
        }
    }

    #[test]
    fn ln_gamma_matches_known_values() {
        // Gamma(1) = Gamma(2) = 1; Gamma(5) = 24; Gamma(0.5) = sqrt(pi).
        assert!(ln_gamma(1.0).abs() < 1e-10);
        assert!(ln_gamma(2.0).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn growth_factor_reflects_spares_and_overhead() {
        let m = YieldModel::new(fig4_org(4), 0.05);
        let expect = 1028.0 / 1024.0 + 0.05;
        assert!((m.growth_factor - expect).abs() < 1e-12);
    }

    #[test]
    fn repair_probability_is_monotone_decreasing() {
        let mut rng = StdRng::seed_from_u64(0x4E9_0001);
        for case in 0..256 {
            let n = rng.gen_range(0.0f64..50.0);
            let spares = *[0usize, 4, 8, 16].choose(&mut rng).expect("non-empty");
            let org = fig4_org(spares);
            let a = repair_probability(&org, n);
            let b = repair_probability(&org, n + 1.0);
            assert!(
                b <= a + 1e-12,
                "case {case}: n={n} spares={spares}: {b} > {a}"
            );
            assert!(
                (0.0..=1.0).contains(&a),
                "case {case}: n={n} spares={spares}: {a}"
            );
        }
    }

    #[test]
    fn binomial_cdf_monotone_in_k() {
        let mut rng = StdRng::seed_from_u64(0x4E9_0002);
        for case in 0..256 {
            let n = rng.gen_range(1usize..200);
            let p = rng.gen_range(0.0f64..1.0);
            let k = rng.gen_range(0usize..200).min(n);
            let a = binomial_cdf(n, p, k);
            let b = binomial_cdf(n, p, (k + 1).min(n));
            assert!(b >= a - 1e-12, "case {case}: n={n} p={p} k={k}: {b} < {a}");
        }
    }
}
