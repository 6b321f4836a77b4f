//! Monte-Carlo cross-check of the analytic yield model.
//!
//! Random defect patterns are drawn (Poisson, or negative-binomial for
//! clustered defects), injected as stuck-at faults into the behavioural
//! memory, and pushed through the *actual* two-pass BIST + BISR flow of
//! `bisram-repair`. The fraction of usable memories is the empirical
//! repairability, which must agree with
//! [`crate::repairability::repair_probability`].

use bisram_bist::engine::{BackgroundSchedule, MarchConfig};
use bisram_bist::march;
use bisram_exec::{run_chunked, trial_seed, TRIAL_CHUNK};
use bisram_mem::{random_faults, ArrayOrg, FaultMix, SramModel};
use bisram_repair::flow::{self, RepairSetup};
use bisram_rng::rngs::StdRng;
use bisram_rng::{Rng, SeedableRng};

/// Draws a Poisson random variate with the given mean (Knuth's method
/// for small means, normal approximation above 64).
pub fn poisson_sample<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> usize {
    assert!(mean >= 0.0, "mean cannot be negative");
    if mean == 0.0 {
        return 0;
    }
    if mean < 64.0 {
        let l = (-mean).exp();
        let mut k = 0usize;
        let mut p = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    } else {
        // Normal approximation with continuity correction.
        let z = box_muller(rng);
        (mean + z * mean.sqrt()).round().max(0.0) as usize
    }
}

/// Draws a negative-binomial variate with mean `mean` and clustering
/// factor `alpha` (a Gamma(α, mean/α)–Poisson mixture — the defect model
/// underlying the Stapper yield formula).
pub fn negative_binomial_sample<R: Rng + ?Sized>(rng: &mut R, mean: f64, alpha: f64) -> usize {
    assert!(alpha > 0.0, "alpha must be positive");
    let lambda = gamma_sample(rng, alpha) * (mean / alpha);
    poisson_sample(rng, lambda)
}

/// One Box–Muller transform: a *pair* of independent standard-normal
/// variates from two uniforms. Both uniforms use the same half-open
/// `(0, 1)` guard: `u1` because `ln(0)` is `-∞`, `u2` so the angle draw
/// comes from the identical distribution rather than the raw `[0, 1)`
/// of `gen()`.
pub fn normal_pair<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

/// A standard-normal stream that spends *both* Box–Muller variates: the
/// sine component is cached and returned on the next call, so normal
/// draws cost one uniform each on average instead of two. Shared by the
/// defect samplers here and the variation sampler of the rare-event
/// engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct NormalSource {
    spare: Option<f64>,
}

impl NormalSource {
    /// An empty source (no cached variate).
    pub fn new() -> Self {
        NormalSource { spare: None }
    }

    /// The next standard-normal variate.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        let (z0, z1) = normal_pair(rng);
        self.spare = Some(z1);
        z0
    }
}

/// Single standard-normal variate — the cosine half of [`normal_pair`].
/// Call sites that draw repeatedly should hold a [`NormalSource`]
/// instead, which doesn't discard the sine half.
fn box_muller<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    normal_pair(rng).0
}

/// Gamma(shape, 1) variate by Marsaglia–Tsang, with the boost trick for
/// shape < 1. Public so distribution tests (and any future clustered
/// variation model) can exercise it directly.
pub fn gamma_sample<R: Rng + ?Sized>(rng: &mut R, shape: f64) -> f64 {
    assert!(shape > 0.0, "gamma shape must be positive");
    if shape < 1.0 {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        return gamma_sample(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    // The rejection loop draws normals repeatedly: a local NormalSource
    // spends the Box–Muller pair instead of discarding the sine half.
    let mut normals = NormalSource::new();
    loop {
        let x = normals.sample(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Result of a Monte-Carlo yield experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloYield {
    /// Trials run.
    pub trials: usize,
    /// Memories with no faults at all.
    pub already_good: usize,
    /// Memories repaired by BISR.
    pub repaired: usize,
    /// Memories that ended Repair Unsuccessful.
    pub unrepairable: usize,
}

impl MonteCarloYield {
    /// Usable fraction: fault-free plus repaired.
    pub fn usable_fraction(&self) -> f64 {
        (self.already_good + self.repaired) as f64 / self.trials as f64
    }

    /// Fraction usable *without* BISR (fault-free only) — the empirical
    /// curve (a) of Fig. 4.
    pub fn good_fraction(&self) -> f64 {
        self.already_good as f64 / self.trials as f64
    }

    /// Normal-approximation standard error of [`usable_fraction`]
    /// (`√(p(1−p)/n)`): the one-sigma uncertainty a variance-aware
    /// MC-vs-IS comparison divides by.
    ///
    /// [`usable_fraction`]: Self::usable_fraction
    pub fn usable_std_error(&self) -> f64 {
        binomial_std_error(self.usable_fraction(), self.trials)
    }

    /// Wilson score interval for [`usable_fraction`] at `z` sigmas
    /// (z = 1.96 for 95%). Unlike the normal approximation it stays
    /// inside `[0, 1]` and behaves at the extremes — the right interval
    /// when a run sees zero (or only) failures.
    ///
    /// [`usable_fraction`]: Self::usable_fraction
    pub fn usable_wilson_interval(&self, z: f64) -> (f64, f64) {
        wilson_interval(self.already_good + self.repaired, self.trials, z)
    }
}

/// `√(p(1−p)/n)` — the normal-approximation standard error of a
/// binomial fraction.
pub fn binomial_std_error(p: f64, n: usize) -> f64 {
    if n == 0 {
        return f64::NAN;
    }
    (p * (1.0 - p) / n as f64).sqrt()
}

/// Wilson score interval for `successes` out of `n` at `z` sigmas.
pub fn wilson_interval(successes: usize, n: usize, z: f64) -> (f64, f64) {
    assert!(successes <= n, "successes cannot exceed trials");
    if n == 0 {
        return (0.0, 1.0);
    }
    let nf = n as f64;
    let p = successes as f64 / nf;
    let z2 = z * z;
    let denom = 1.0 + z2 / nf;
    let center = (p + z2 / (2.0 * nf)) / denom;
    let half = z * (p * (1.0 - p) / nf + z2 / (4.0 * nf * nf)).sqrt() / denom;
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// Runs `trials` random defect patterns with `mean_defects` average
/// stuck-at faults through the full self-test-and-repair flow.
///
/// `clustering` of `Some(alpha)` draws defect counts from the
/// negative-binomial (clustered) model instead of Poisson.
///
/// MATS+ with a single background is used — it detects every stuck-at
/// fault, keeping the cross-check fast while remaining end-to-end (real
/// march, real TLB, real two-pass flow).
pub fn simulate_yield<R: Rng + ?Sized>(
    rng: &mut R,
    org: ArrayOrg,
    mean_defects: f64,
    trials: usize,
    clustering: Option<f64>,
) -> MonteCarloYield {
    let setup = yield_setup();
    let mut result = MonteCarloYield {
        trials,
        already_good: 0,
        repaired: 0,
        unrepairable: 0,
    };
    for _ in 0..trials {
        run_trial(rng, org, mean_defects, clustering, &setup, &mut result);
    }
    result
}

/// The seeded, parallel variant of [`simulate_yield`]: each trial draws
/// from its own RNG seeded by mixing the trial index into `base_seed`
/// with a golden-ratio multiply (the same derivation the fleet simulator
/// uses), and the trials fan out over `jobs` executor workers.
///
/// Determinism contract: the result depends only on the arguments —
/// never on `jobs` — because per-trial streams are index-derived, chunk
/// boundaries depend only on `trials`, and the integer tallies merge in
/// chunk order. Note the trial streams differ from the single-stream
/// [`simulate_yield`], so the two engines agree statistically, not byte
/// for byte.
pub fn simulate_yield_seeded(
    base_seed: u64,
    org: ArrayOrg,
    mean_defects: f64,
    trials: usize,
    clustering: Option<f64>,
    jobs: usize,
) -> MonteCarloYield {
    let setup = yield_setup();
    let partials = run_chunked(jobs, trials, TRIAL_CHUNK, |range| {
        let mut tally = MonteCarloYield {
            trials: range.len(),
            already_good: 0,
            repaired: 0,
            unrepairable: 0,
        };
        for i in range {
            // The workspace-wide index-seeded scheme; moving from a
            // local chunk size to the shared one regroups the integer
            // partials but cannot change their in-order sum.
            let mut rng = StdRng::seed_from_u64(trial_seed(base_seed, i));
            run_trial(&mut rng, org, mean_defects, clustering, &setup, &mut tally);
        }
        tally
    });
    let mut result = MonteCarloYield {
        trials,
        already_good: 0,
        repaired: 0,
        unrepairable: 0,
    };
    for p in partials {
        result.already_good += p.already_good;
        result.repaired += p.repaired;
        result.unrepairable += p.unrepairable;
    }
    result
}

/// The shared flow configuration: MATS+ with a single background —
/// detects every stuck-at fault, keeping the cross-check fast while
/// remaining end-to-end.
fn yield_setup() -> RepairSetup {
    RepairSetup {
        test: march::mats_plus(),
        march: MarchConfig {
            schedule: BackgroundSchedule::Single,
            ..MarchConfig::default()
        },
        max_passes: 2,
    }
}

/// One defect pattern through the full self-test-and-repair flow,
/// tallied into `result`.
fn run_trial<R: Rng + ?Sized>(
    rng: &mut R,
    org: ArrayOrg,
    mean_defects: f64,
    clustering: Option<f64>,
    setup: &RepairSetup,
    result: &mut MonteCarloYield,
) {
    let n = match clustering {
        Some(alpha) => negative_binomial_sample(rng, mean_defects, alpha),
        None => poisson_sample(rng, mean_defects),
    }
    .min(org.total_cells());
    let mut ram = SramModel::new(org);
    ram.inject_all(random_faults(rng, &org, n, &FaultMix::stuck_at_only()));
    let report = flow::self_test_and_repair(&mut ram, setup);
    match report.outcome {
        flow::RepairOutcome::AlreadyGood => result.already_good += 1,
        flow::RepairOutcome::Repaired { .. } => result.repaired += 1,
        flow::RepairOutcome::Unsuccessful { .. } => result.unrepairable += 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repairability::repair_probability;
    use bisram_rng::rngs::StdRng;
    use bisram_rng::SeedableRng;

    /// An RNG whose every draw is the all-zero word — the worst case for
    /// uniform-to-`(0,1)` mapping.
    struct ZeroRng;

    impl bisram_rng::RngCore for ZeroRng {
        fn next_u64(&mut self) -> u64 {
            0
        }
    }

    #[test]
    fn box_muller_is_finite_on_degenerate_draws() {
        // Regression for the unguarded u2 draw: with both uniforms
        // forced to their floor the variate must stay finite (the old
        // `rng.gen()` path handed `u2 = 0` straight to the angle term).
        let z = box_muller(&mut ZeroRng);
        assert!(z.is_finite(), "degenerate draws must not blow up: {z}");
        // Both halves of the pair are covered by the same guard.
        let (z0, z1) = normal_pair(&mut ZeroRng);
        assert!(
            z0.is_finite() && z1.is_finite(),
            "pair must stay finite: ({z0}, {z1})"
        );
        // And a seeded stream keeps producing plausible, finite normals.
        let mut rng = StdRng::seed_from_u64(42);
        let n = 2000;
        let samples: Vec<f64> = (0..n).map(|_| box_muller(&mut rng)).collect();
        assert!(samples.iter().all(|z| z.is_finite()));
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|z| (z - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.1, "standard normal mean came out {mean}");
        assert!(
            (var - 1.0).abs() < 0.15,
            "standard normal variance came out {var}"
        );
    }

    /// The cached-spare stream must deliver the same distribution as the
    /// pair it is built from, including the sine halves it recycles.
    #[test]
    fn normal_source_matches_standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(43);
        let mut src = NormalSource::new();
        let n = 4000;
        let samples: Vec<f64> = (0..n).map(|_| src.sample(&mut rng)).collect();
        assert!(samples.iter().all(|z| z.is_finite()));
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|z| (z - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.08, "mean came out {mean}");
        assert!((var - 1.0).abs() < 0.12, "variance came out {var}");
        // Consecutive samples (cos/sin of one transform) stay
        // uncorrelated.
        let cov = samples.chunks_exact(2).map(|c| c[0] * c[1]).sum::<f64>() / (n / 2) as f64;
        assert!(cov.abs() < 0.1, "pair covariance came out {cov}");
    }

    /// Gamma(k, 1) has mean k and variance k — checked at a boosted
    /// shape (0.5), the exponential corner (1), and a central shape (4).
    #[test]
    fn gamma_sample_moments_at_key_shapes() {
        let mut rng = StdRng::seed_from_u64(44);
        for shape in [0.5, 1.0, 4.0] {
            let n = 6000;
            let samples: Vec<f64> = (0..n).map(|_| gamma_sample(&mut rng, shape)).collect();
            assert!(samples.iter().all(|x| x.is_finite() && *x >= 0.0));
            let mean = samples.iter().sum::<f64>() / n as f64;
            let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
            assert!(
                (mean / shape - 1.0).abs() < 0.1,
                "shape {shape}: mean came out {mean}"
            );
            assert!(
                (var / shape - 1.0).abs() < 0.2,
                "shape {shape}: variance came out {var}"
            );
        }
    }

    #[test]
    fn wilson_interval_brackets_the_point_estimate() {
        let (lo, hi) = wilson_interval(90, 100, 1.96);
        assert!(
            lo < 0.9 && 0.9 < hi,
            "interval ({lo:.3}, {hi:.3}) must cover p̂"
        );
        assert!(
            lo > 0.8 && hi < 0.97,
            "interval ({lo:.3}, {hi:.3}) implausibly wide"
        );
        // Extremes stay inside [0, 1] — the reason Wilson beats the
        // normal approximation for rare events.
        let (lo0, hi0) = wilson_interval(0, 50, 1.96);
        assert_eq!(lo0, 0.0);
        assert!(hi0 > 0.0 && hi0 < 0.15);
        let (lo1, hi1) = wilson_interval(50, 50, 1.96);
        assert!(lo1 > 0.85 && lo1 < 1.0);
        assert_eq!(hi1, 1.0);
        // The normal-approx SE shrinks as 1/√n.
        let se100 = binomial_std_error(0.5, 100);
        let se400 = binomial_std_error(0.5, 400);
        assert!((se100 / se400 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn seeded_yield_is_byte_identical_across_job_counts() {
        let org = ArrayOrg::new(128, 8, 4, 2).unwrap();
        let one = simulate_yield_seeded(0xC0FFEE, org, 2.5, 48, None, 1);
        let two = simulate_yield_seeded(0xC0FFEE, org, 2.5, 48, None, 2);
        let eight = simulate_yield_seeded(0xC0FFEE, org, 2.5, 48, None, 8);
        assert_eq!(one, two);
        assert_eq!(one, eight);
        assert_eq!(one.trials, 48);
        assert_eq!(
            one.already_good + one.repaired + one.unrepairable,
            one.trials
        );
        // Clustered draws go through the same deterministic machinery.
        let c1 = simulate_yield_seeded(7, org, 2.5, 48, Some(0.5), 1);
        let c8 = simulate_yield_seeded(7, org, 2.5, 48, Some(0.5), 8);
        assert_eq!(c1, c8);
    }

    #[test]
    fn seeded_yield_matches_analytic_repairability() {
        let org = ArrayOrg::new(256, 8, 4, 4).unwrap();
        let mean = 3.0;
        let mc = simulate_yield_seeded(11, org, mean, 300, None, 4);
        let analytic = repair_probability(&org, mean);
        let empirical = mc.usable_fraction();
        assert!(
            (empirical - analytic).abs() < 0.08,
            "empirical {empirical:.3} vs analytic {analytic:.3}"
        );
    }

    #[test]
    fn poisson_sample_mean_and_variance() {
        let mut rng = StdRng::seed_from_u64(1);
        for mean in [0.5, 5.0, 120.0] {
            let n = 4000;
            let samples: Vec<usize> = (0..n).map(|_| poisson_sample(&mut rng, mean)).collect();
            let m = samples.iter().sum::<usize>() as f64 / n as f64;
            assert!((m / mean - 1.0).abs() < 0.1, "mean {mean}: got {m}");
        }
        assert_eq!(poisson_sample(&mut rng, 0.0), 0);
    }

    #[test]
    fn negative_binomial_is_overdispersed() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 4000;
        let mean = 10.0;
        let nb: Vec<f64> = (0..n)
            .map(|_| negative_binomial_sample(&mut rng, mean, 1.0) as f64)
            .collect();
        let m = nb.iter().sum::<f64>() / n as f64;
        let var = nb.iter().map(|x| (x - m).powi(2)).sum::<f64>() / n as f64;
        assert!((m / mean - 1.0).abs() < 0.15, "mean came out {m}");
        // NB variance = mean + mean^2/alpha = 10 + 100 >> 10.
        assert!(var > 3.0 * m, "variance {var} should exceed Poisson's {m}");
    }

    #[test]
    fn monte_carlo_matches_analytic_repairability() {
        let org = ArrayOrg::new(256, 8, 4, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mean = 3.0;
        let mc = simulate_yield(&mut rng, org, mean, 300, None);
        let analytic = repair_probability(&org, mean);
        let empirical = mc.usable_fraction();
        assert!(
            (empirical - analytic).abs() < 0.08,
            "empirical {empirical:.3} vs analytic {analytic:.3}"
        );
        // Sanity: some memories needed repair, some were clean.
        assert!(mc.repaired > 0);
        assert!(mc.already_good > 0);
    }

    #[test]
    fn bisr_beats_no_bisr_in_monte_carlo() {
        let org = ArrayOrg::new(256, 8, 4, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mc = simulate_yield(&mut rng, org, 2.0, 300, None);
        assert!(
            mc.usable_fraction() > mc.good_fraction() + 0.1,
            "repair must add usable parts: {} vs {}",
            mc.usable_fraction(),
            mc.good_fraction()
        );
    }

    #[test]
    fn clustered_defects_leave_more_dies_clean() {
        let org = ArrayOrg::new(256, 8, 4, 0).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let poisson = simulate_yield(&mut rng, org, 4.0, 400, None);
        let mut rng = StdRng::seed_from_u64(5);
        let clustered = simulate_yield(&mut rng, org, 4.0, 400, Some(0.5));
        assert!(
            clustered.good_fraction() > poisson.good_fraction(),
            "clustering concentrates defects: {} vs {}",
            clustered.good_fraction(),
            poisson.good_fraction()
        );
    }
}
