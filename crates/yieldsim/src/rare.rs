//! Rare-event estimation of bitcell failure probabilities.
//!
//! At production volume the paper's yield economics (Fig. 4, Tables
//! II–III) hinge on per-cell failure probabilities in the 4–6σ tail — a
//! regime where brute-force Monte Carlo needs billions of trials to see
//! a single failure. This module makes that tail measurable:
//!
//! * **Mean-shift importance sampling** ([`RareEngine::run_is`]): the
//!   13-dimensional Gaussian variation distribution is shifted toward
//!   the failure boundary (located by [`RareEngine::find_shift`], a
//!   deterministic sensitivity + bisection pre-search), shifted trials
//!   run on the `bisram-exec` chunked executor with the shared
//!   `trial_seed` scheme, and the tally is unbiased with
//!   likelihood-ratio weights `w(z) = exp(−z·s + ½|s|²)`.
//! * **Statistical blockade** ([`RareEngine::run_blockade`]): a linear
//!   margin surrogate fitted on a pilot run screens candidates; only
//!   draws the surrogate cannot safely accept are simulated.
//!
//! Determinism contract (shared with every engine in the workspace):
//! results depend only on the arguments, never on the worker count —
//! per-trial streams are index-derived, chunk boundaries depend only on
//! the trial count, and partial tallies (including the `f64` weight
//! sums) merge in chunk order. [`RareEngine::run_mc`] is a separate
//! plain-indicator loop over the *same* per-trial streams, which is
//! what makes the zero-shift identity testable: `run_is` with a zero
//! shift must reproduce `run_mc` byte for byte.

use crate::montecarlo::NormalSource;
use bisram_circuit::snm::CellGeometry;
use bisram_circuit::variation::{mirror_z, VariationModel, VariedCell, VAR_DIM};
use bisram_exec::{run_chunked, trial_seed, TRIAL_CHUNK};
use bisram_rng::rngs::StdRng;
use bisram_rng::SeedableRng;
use bisram_tech::{DeviceParams, Process};

/// Seed salt separating the pilot stream from the estimation stream, so
/// a blockade run never trains on the exact draws it later screens.
const PILOT_SALT: u64 = 0x009D_5AB1_C0DE;

/// Which cell analysis a trial evaluates. The engine's failure
/// criterion is uniformly `metric < threshold`, so the read-delay
/// kernel reports the *negated* delay (a slow read is a small metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialKernel {
    /// Static write margin (V) — the cheap workhorse: a handful of
    /// bisections per trial.
    WriteMargin,
    /// Read static noise margin (V) from the butterfly extraction.
    ReadSnm,
    /// Hold static noise margin (V).
    HoldSnm,
    /// Negated transient read delay (−s), via the adaptive solver; a
    /// functional read failure maps to `−∞`.
    ReadDelay,
}

impl TrialKernel {
    /// The metric of one realized cell. Larger is always healthier.
    pub fn metric(self, cell: &VariedCell) -> f64 {
        match self {
            TrialKernel::WriteMargin => cell.write_margin(),
            TrialKernel::ReadSnm => cell.margins().read_snm,
            TrialKernel::HoldSnm => cell.margins().hold_snm,
            TrialKernel::ReadDelay => -cell.read_delay(),
        }
    }

    /// Stable name for CLI flags and reports.
    pub fn name(self) -> &'static str {
        match self {
            TrialKernel::WriteMargin => "write-margin",
            TrialKernel::ReadSnm => "read-snm",
            TrialKernel::HoldSnm => "hold-snm",
            TrialKernel::ReadDelay => "read-delay",
        }
    }

    /// Parses a CLI kernel name.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "write-margin" => Some(TrialKernel::WriteMargin),
            "read-snm" => Some(TrialKernel::ReadSnm),
            "hold-snm" => Some(TrialKernel::HoldSnm),
            "read-delay" => Some(TrialKernel::ReadDelay),
            _ => None,
        }
    }
}

/// An unbiased tail-probability estimate with its estimator variance.
#[derive(Debug, Clone, Copy)]
pub struct TailEstimate {
    /// Trials run (simulated or, for blockade, screened).
    pub trials: usize,
    /// Raw failing samples (unweighted count).
    pub failures: usize,
    /// Unbiased failure-probability estimate.
    pub p_fail: f64,
    /// Estimator variance `var̂(p̂)` (sample variance of the weighted
    /// indicator divided by the trial count).
    pub variance: f64,
    /// Euclidean norm of the mean shift used (0 for plain MC).
    pub shift_norm: f64,
}

impl TailEstimate {
    /// One-sigma standard error of the estimate.
    pub fn std_error(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Relative standard error (`se / p̂`); infinite when no failure
    /// weight was collected.
    pub fn rse(&self) -> f64 {
        if self.p_fail > 0.0 {
            self.std_error() / self.p_fail
        } else {
            f64::INFINITY
        }
    }

    /// Trials a plain Monte Carlo run would need to reach this
    /// estimator's variance: `p(1−p)/var̂` — the iso-variance cost the
    /// `rare_event_yield` bench compares against. Derived analytically
    /// from the estimate itself, so it needs no wall clock and no
    /// actual billion-trial reference run.
    pub fn mc_equivalent_trials(&self) -> f64 {
        if self.variance > 0.0 {
            self.p_fail * (1.0 - self.p_fail) / self.variance
        } else {
            f64::INFINITY
        }
    }

    /// Variance-reduction factor over plain MC at the same trial count.
    pub fn speedup_over_mc(&self) -> f64 {
        self.mc_equivalent_trials() / self.trials as f64
    }
}

/// Byte-exact equality — the form the worker-count determinism pins
/// assert (an epsilon comparison would mask a nondeterministic merge).
impl PartialEq for TailEstimate {
    fn eq(&self, other: &Self) -> bool {
        self.trials == other.trials
            && self.failures == other.failures
            && self.p_fail.to_bits() == other.p_fail.to_bits()
            && self.variance.to_bits() == other.variance.to_bits()
            && self.shift_norm.to_bits() == other.shift_norm.to_bits()
    }
}

impl Eq for TailEstimate {}

/// Result of a statistical-blockade run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockadeResult {
    /// The tail estimate over all screened trials (blocked candidates
    /// count as passes).
    pub estimate: TailEstimate,
    /// Pilot trials spent fitting the surrogate.
    pub pilot_trials: usize,
    /// Candidates the surrogate could not safely accept — the ones that
    /// paid for a real simulation.
    pub simulated: usize,
    /// Candidates accepted by the surrogate without simulation.
    pub blocked: usize,
}

/// How many sigmas apart two estimates are:
/// `|p_a − p_b| / √(var_a + var_b)`. The cross-validation acceptance is
/// `agreement_sigma ≤ 3`.
pub fn agreement_sigma(a: &TailEstimate, b: &TailEstimate) -> f64 {
    let denom = (a.variance + b.variance).sqrt();
    if denom > 0.0 {
        (a.p_fail - b.p_fail).abs() / denom
    } else if a.p_fail == b.p_fail {
        0.0
    } else {
        f64::INFINITY
    }
}

/// Inverse standard-normal CDF (Acklam's rational approximation,
/// |relative error| < 1.15e-9) — used to calibrate a margin threshold
/// from a target tail probability.
///
/// # Panics
///
/// Panics unless `0 < p < 1`.
pub fn inv_normal_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probability must be in (0, 1)");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -inv_normal_cdf(1.0 - p)
    }
}

/// The rare-event estimation engine: a variation model, a trial kernel
/// and a failure threshold over one process/geometry.
#[derive(Debug, Clone)]
pub struct RareEngine {
    /// Nominal process device parameters.
    pub dev: DeviceParams,
    /// Nominal cell geometry.
    pub geom: CellGeometry,
    /// Gaussian variation sigmas and operating corner.
    pub model: VariationModel,
    /// The analysis each trial runs.
    pub kernel: TrialKernel,
    /// A trial fails when its metric falls below this.
    pub threshold: f64,
}

impl RareEngine {
    /// An engine over a built-in process with the standard cell
    /// geometry and default variation model.
    pub fn for_process(process: &Process, kernel: TrialKernel, threshold: f64) -> Self {
        RareEngine {
            dev: process.devices().clone(),
            geom: CellGeometry::standard(process.gate_length_m()),
            model: VariationModel::default(),
            kernel,
            threshold,
        }
    }

    /// The metric at one point of the variation space.
    pub fn metric_at(&self, z: &[f64; VAR_DIM]) -> f64 {
        self.kernel
            .metric(&self.model.realize(&self.dev, &self.geom, z))
    }

    /// Mean and standard deviation of the metric over `trials`
    /// index-seeded standard-normal draws — the pilot statistics a
    /// threshold calibration or a blockade surrogate starts from.
    /// Jobs-independent like every run in this module.
    pub fn metric_stats(&self, base_seed: u64, trials: usize, jobs: usize) -> (f64, f64) {
        assert!(trials >= 2, "need at least two trials for a variance");
        let samples = self.collect_pilot(base_seed, trials, jobs);
        let n = samples.len() as f64;
        let mean = samples.iter().map(|(_, m)| m).sum::<f64>() / n;
        let var = samples.iter().map(|(_, m)| (m - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, var.sqrt())
    }

    /// Calibrates a threshold hitting a target failure probability under
    /// a *Gaussian* metric approximation:
    /// `threshold = mean + std·Φ⁻¹(p_target)`. Good enough to land a
    /// cheap-regime cross-validation or to aim an IS run into a chosen
    /// tail depth; the estimate itself never depends on the Gaussian
    /// assumption.
    pub fn calibrate_threshold(
        &self,
        base_seed: u64,
        pilot: usize,
        p_target: f64,
        jobs: usize,
    ) -> f64 {
        let (mean, std) = self.metric_stats(base_seed, pilot, jobs);
        mean + std * inv_normal_cdf(p_target)
    }

    /// Plain Monte Carlo: `trials` index-seeded standard-normal draws,
    /// indicator tally, binomial-free sample variance (the same
    /// `Σ(wf)²`-based formula the IS path uses, with every weight an
    /// exact 1.0 — which is what makes the zero-shift byte identity
    /// hold).
    pub fn run_mc(&self, base_seed: u64, trials: usize, jobs: usize) -> TailEstimate {
        assert!(trials >= 2, "need at least two trials for a variance");
        let partials = run_chunked(jobs, trials, TRIAL_CHUNK, |range| {
            let mut fails = 0usize;
            let mut sum_wf = 0.0f64;
            let mut sum_wf2 = 0.0f64;
            for i in range {
                let mut rng = StdRng::seed_from_u64(trial_seed(base_seed, i));
                let z = draw_z(&mut rng);
                if self.metric_at(&z) < self.threshold {
                    fails += 1;
                    sum_wf += 1.0;
                    sum_wf2 += 1.0;
                }
            }
            (fails, sum_wf, sum_wf2)
        });
        finish_estimate(trials, partials, 0.0)
    }

    /// Mean-shift importance sampling with an explicit shift vector:
    /// draws `z₀ ~ N(0, I)` from the *same* per-trial streams as
    /// [`run_mc`](Self::run_mc), evaluates at `z = z₀ + shift`, and
    /// weighs failures by the likelihood ratio
    /// `w(z) = exp(−z·shift + ½|shift|²)`.
    pub fn run_is(
        &self,
        base_seed: u64,
        trials: usize,
        jobs: usize,
        shift: &[f64; VAR_DIM],
    ) -> TailEstimate {
        assert!(trials >= 2, "need at least two trials for a variance");
        let shift_sq: f64 = shift.iter().map(|s| s * s).sum();
        let partials = run_chunked(jobs, trials, TRIAL_CHUNK, |range| {
            let mut fails = 0usize;
            let mut sum_wf = 0.0f64;
            let mut sum_wf2 = 0.0f64;
            for i in range {
                let mut rng = StdRng::seed_from_u64(trial_seed(base_seed, i));
                let z0 = draw_z(&mut rng);
                let mut z = [0.0; VAR_DIM];
                for (zi, (z0i, si)) in z.iter_mut().zip(z0.iter().zip(shift.iter())) {
                    *zi = z0i + si;
                }
                if self.metric_at(&z) < self.threshold {
                    fails += 1;
                    let dot: f64 = z.iter().zip(shift.iter()).map(|(zi, si)| zi * si).sum();
                    let w = (-dot + 0.5 * shift_sq).exp();
                    sum_wf += w;
                    sum_wf2 += w * w;
                }
            }
            (fails, sum_wf, sum_wf2)
        });
        finish_estimate(trials, partials, shift_sq.sqrt())
    }

    /// Locates the failure boundary and returns the mean shift: the
    /// norm-minimizing pre-search of the importance sampler.
    ///
    /// Deterministic (no RNG): central-difference metric sensitivities
    /// at the origin give candidate descent directions toward failure —
    /// the full gradient plus its two one-sided projections (a
    /// `min`-over-halves metric has a *symmetric* gradient at the
    /// nominal point, but its most probable failure degrades one half
    /// only, which the one-sided candidates capture at a much smaller
    /// norm). An expand-then-bisect line search finds each candidate's
    /// boundary crossing and the smallest-norm crossing wins (the most
    /// probable failure point of the linearized metric). Returns the
    /// zero vector when the nominal point already fails or the metric
    /// shows no sensitivity — plain MC is the right tool there anyway.
    pub fn find_shift(&self) -> [f64; VAR_DIM] {
        const H: f64 = 0.25;
        let zero = [0.0; VAR_DIM];
        if self.metric_at(&zero) < self.threshold {
            return zero;
        }
        let mut grad = [0.0; VAR_DIM];
        for d in 0..VAR_DIM {
            let mut zp = zero;
            let mut zm = zero;
            zp[d] = H;
            zm[d] = -H;
            grad[d] = (self.metric_at(&zp) - self.metric_at(&zm)) / (2.0 * H);
        }
        if grad.iter().any(|g| !g.is_finite()) {
            return zero;
        }
        let normalize = |v: &[f64; VAR_DIM]| -> Option<[f64; VAR_DIM]> {
            let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm > 1e-12 && norm.is_finite() {
                let mut u = *v;
                for ui in u.iter_mut() {
                    *ui /= norm;
                }
                Some(u)
            } else {
                None
            }
        };
        // Steepest descent of the metric, full and one-sided.
        let mut descent = grad;
        for d in descent.iter_mut() {
            *d = -*d;
        }
        let mut left = descent;
        for d in [3, 4, 5, 9, 10, 11] {
            left[d] = 0.0; // zero the right half-cell's components
        }
        let mut candidates: Vec<[f64; VAR_DIM]> = Vec::new();
        if let Some(u) = normalize(&descent) {
            candidates.push(u);
        }
        if let Some(u) = normalize(&left) {
            candidates.push(u);
            candidates.push(mirror_z(&u));
        }
        if candidates.is_empty() {
            return zero;
        }
        let mut best: Option<([f64; VAR_DIM], f64)> = None;
        let mut capped: Option<([f64; VAR_DIM], f64)> = None;
        for u in &candidates {
            let (shift, t, crossed) = self.boundary_along(u);
            if crossed {
                // Norm-minimization: walk the boundary crossing toward
                // the most probable failure point of this mode.
                let (refined, tr) = self.refine_most_probable_point(shift, t);
                if best.as_ref().is_none_or(|(_, bt)| tr < *bt) {
                    best = Some((refined, tr));
                }
            } else if capped.as_ref().is_none_or(|(_, bt)| t < *bt) {
                capped = Some((shift, t));
            }
        }
        // Prefer a real boundary crossing; otherwise shift to the cap —
        // the likelihood-ratio weights stay unbiased regardless of
        // where the shift sits.
        best.or(capped).map(|(s, _)| s).unwrap_or(zero)
    }

    /// Sequential linearization toward the most probable failure point:
    /// at the current boundary point, linearize the metric with a
    /// central-difference gradient, jump to the minimum-norm point of
    /// the linearized constraint `metric = threshold`, and re-land on
    /// the true boundary with a line search. A handful of rounds
    /// converges on the smooth single-mode boundaries the margin
    /// metrics have; any degenerate round keeps the best point found so
    /// far. Returns the point and its norm.
    fn refine_most_probable_point(
        &self,
        start: [f64; VAR_DIM],
        start_norm: f64,
    ) -> ([f64; VAR_DIM], f64) {
        const H: f64 = 0.1;
        let mut x = start;
        let mut x_norm = start_norm;
        for _ in 0..3 {
            let mut grad = [0.0; VAR_DIM];
            for d in 0..VAR_DIM {
                let mut zp = x;
                let mut zm = x;
                zp[d] += H;
                zm[d] -= H;
                grad[d] = (self.metric_at(&zp) - self.metric_at(&zm)) / (2.0 * H);
            }
            let g2: f64 = grad.iter().map(|g| g * g).sum();
            if g2 <= 1e-12 || !g2.is_finite() {
                break;
            }
            let m = self.metric_at(&x);
            // Min-norm point of the linearized boundary
            // `m + g·(x' − x) = threshold`: `x' = λ·g` with
            // `λ = (threshold − m + g·x) / |g|²`.
            let gx: f64 = grad.iter().zip(x.iter()).map(|(g, xi)| g * xi).sum();
            let lambda = (self.threshold - m + gx) / g2;
            let mut target = [0.0; VAR_DIM];
            for (ti, gi) in target.iter_mut().zip(grad.iter()) {
                *ti = lambda * gi;
            }
            let t_norm: f64 = target.iter().map(|t| t * t).sum::<f64>().sqrt();
            if t_norm <= 1e-9 || !t_norm.is_finite() {
                break;
            }
            let mut u = target;
            for ui in u.iter_mut() {
                *ui /= t_norm;
            }
            let (landed, t, crossed) = self.boundary_along(&u);
            if !crossed {
                break;
            }
            if t < x_norm {
                x = landed;
                x_norm = t;
            } else {
                // No further progress toward the origin: converged.
                x = landed;
                x_norm = t;
                break;
            }
        }
        (x, x_norm)
    }

    /// Expand-then-bisect line search for the failure boundary along
    /// the unit direction `u`: returns the boundary shift, its norm,
    /// and whether the line actually crossed the threshold inside the
    /// norm cap.
    fn boundary_along(&self, u: &[f64; VAR_DIM]) -> ([f64; VAR_DIM], f64, bool) {
        const MAX_NORM: f64 = 8.0;
        let at = |t: f64| {
            let mut z = [0.0; VAR_DIM];
            for (zi, ui) in z.iter_mut().zip(u.iter()) {
                *zi = t * ui;
            }
            self.metric_at(&z)
        };
        let scaled = |t: f64| {
            let mut shift = [0.0; VAR_DIM];
            for (si, ui) in shift.iter_mut().zip(u.iter()) {
                *si = t * ui;
            }
            shift
        };
        let mut t_hi = 1.0;
        while at(t_hi) >= self.threshold {
            t_hi *= 2.0;
            if t_hi > MAX_NORM {
                return (scaled(MAX_NORM), MAX_NORM, false);
            }
        }
        let mut t_lo = 0.0;
        for _ in 0..40 {
            let mid = 0.5 * (t_lo + t_hi);
            if at(mid) >= self.threshold {
                t_lo = mid;
            } else {
                t_hi = mid;
            }
        }
        let t = 0.5 * (t_lo + t_hi);
        (scaled(t), t, true)
    }

    /// The failure modes the auto sampler shifts toward: the boundary
    /// point from [`find_shift`](Self::find_shift), plus its left/right
    /// mirror when the metric is symmetric under the half-cell swap
    /// (every `min`-over-sides DC margin is — a cell that fails with a
    /// weak left side fails identically with the same weakness on the
    /// right). Covering both modes with a mixture is what keeps the
    /// mirror mode's rare hits from entering the tally with enormous
    /// single-mode likelihood ratios and wrecking the variance.
    pub fn find_shifts(&self) -> Vec<[f64; VAR_DIM]> {
        let shift = self.find_shift();
        let norm_sq: f64 = shift.iter().map(|s| s * s).sum();
        if norm_sq == 0.0 {
            return Vec::new();
        }
        let mirror = mirror_z(&shift);
        let dist_sq: f64 = shift
            .iter()
            .zip(mirror.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        // A distinct mirror mode exists when the mirrored shift is a
        // genuinely different point that also sits on the failure
        // boundary (symmetric metrics put it there exactly; asymmetric
        // kernels like the read-delay testbench fail the check and keep
        // the single mode).
        let m_shift = self.metric_at(&shift);
        let m_mirror = self.metric_at(&mirror);
        let band = 0.25 * (self.metric_at(&[0.0; VAR_DIM]) - self.threshold).abs();
        if dist_sq > 1e-6 * norm_sq && (m_mirror - m_shift).abs() <= band {
            vec![shift, mirror]
        } else {
            vec![shift]
        }
    }

    /// Importance sampling from a mixture of mean shifts: component
    /// `k = i mod K` handles trial `i` (a deterministic, jobs-invariant
    /// allocation), and the likelihood ratio uses the full mixture
    /// density with component weights matching the exact allocation
    /// counts, so the estimator stays unbiased at any `trials`:
    ///
    /// `w(z) = φ(z) / Σₖ αₖ φ(z − sₖ) = 1 / Σₖ αₖ exp(sₖ·z − ½|sₖ|²)`
    ///
    /// (evaluated via log-sum-exp). An empty `shifts` falls back to
    /// plain MC.
    pub fn run_is_mixture(
        &self,
        base_seed: u64,
        trials: usize,
        jobs: usize,
        shifts: &[[f64; VAR_DIM]],
    ) -> TailEstimate {
        if shifts.is_empty() {
            return self.run_mc(base_seed, trials, jobs);
        }
        assert!(trials >= 2, "need at least two trials for a variance");
        let k = shifts.len();
        // Exact allocation: component j serves indices i ≡ j (mod K).
        let alpha: Vec<f64> = (0..k)
            .map(|j| (trials / k + usize::from(j < trials % k)) as f64 / trials as f64)
            .collect();
        let half_sq: Vec<f64> = shifts
            .iter()
            .map(|s| 0.5 * s.iter().map(|si| si * si).sum::<f64>())
            .collect();
        let max_norm = shifts
            .iter()
            .map(|s| s.iter().map(|si| si * si).sum::<f64>().sqrt())
            .fold(0.0f64, f64::max);
        let partials = run_chunked(jobs, trials, TRIAL_CHUNK, |range| {
            let mut fails = 0usize;
            let mut sum_wf = 0.0f64;
            let mut sum_wf2 = 0.0f64;
            for i in range {
                let mut rng = StdRng::seed_from_u64(trial_seed(base_seed, i));
                let z0 = draw_z(&mut rng);
                let s = &shifts[i % k];
                let mut z = [0.0; VAR_DIM];
                for (zi, (z0i, si)) in z.iter_mut().zip(z0.iter().zip(s.iter())) {
                    *zi = z0i + si;
                }
                if self.metric_at(&z) < self.threshold {
                    fails += 1;
                    // Log-sum-exp over the mixture components.
                    let exps: Vec<f64> = shifts
                        .iter()
                        .zip(half_sq.iter())
                        .map(|(sk, hk)| {
                            z.iter().zip(sk.iter()).map(|(zi, si)| zi * si).sum::<f64>() - hk
                        })
                        .collect();
                    let m = exps.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
                    let denom: f64 = exps
                        .iter()
                        .zip(alpha.iter())
                        .map(|(e, a)| a * (e - m).exp())
                        .sum();
                    let w = (-m).exp() / denom;
                    sum_wf += w;
                    sum_wf2 += w * w;
                }
            }
            (fails, sum_wf, sum_wf2)
        });
        finish_estimate(trials, partials, max_norm)
    }

    /// [`run_is_mixture`](Self::run_is_mixture) with the mode set from
    /// [`find_shifts`](Self::find_shifts) — the production entry point.
    pub fn run_is_auto(&self, base_seed: u64, trials: usize, jobs: usize) -> TailEstimate {
        let shifts = self.find_shifts();
        self.run_is_mixture(base_seed, trials, jobs, &shifts)
    }

    /// Statistical blockade: fits a linear margin surrogate
    /// `m̂(z) = m̄ + Σ bⱼzⱼ` on a pilot run (the regression coefficients
    /// are `bⱼ = E[(m − m̄) zⱼ]` under the standard normal), then
    /// screens `trials` fresh candidates — only those the surrogate
    /// places within `safety` residual sigmas of the threshold are
    /// simulated; the rest are accepted as passes unsimulated.
    ///
    /// The pilot stream is salted so it never overlaps the screening
    /// stream. Deterministic at any worker count like everything else
    /// here.
    pub fn run_blockade(
        &self,
        base_seed: u64,
        pilot: usize,
        trials: usize,
        safety: f64,
        jobs: usize,
    ) -> BlockadeResult {
        assert!(pilot >= 8, "surrogate fit needs a real pilot run");
        assert!(trials >= 2, "need at least two trials for a variance");
        assert!(safety > 0.0, "safety margin must be positive");
        let samples = self.collect_pilot(base_seed, pilot, jobs);
        let n = samples.len() as f64;
        let mean = samples.iter().map(|(_, m)| m).sum::<f64>() / n;
        let mut coeff = [0.0; VAR_DIM];
        for (z, m) in &samples {
            for (cj, zj) in coeff.iter_mut().zip(z.iter()) {
                *cj += (m - mean) * zj;
            }
        }
        for cj in coeff.iter_mut() {
            *cj /= n;
        }
        let var_m = samples.iter().map(|(_, m)| (m - mean).powi(2)).sum::<f64>() / (n - 1.0);
        // Empirical residual spread of the surrogate over the pilot
        // itself (it sees the actual nonlinearity, unlike the
        // `var − Σb²` identity that holds only for orthonormal
        // regressors); floored at 5% of the total spread so a
        // near-perfect linear fit can't zero the guard band.
        let resid_var = samples
            .iter()
            .map(|(z, m)| {
                let predicted = mean
                    + coeff
                        .iter()
                        .zip(z.iter())
                        .map(|(c, zi)| c * zi)
                        .sum::<f64>();
                (m - predicted).powi(2)
            })
            .sum::<f64>()
            / n;
        let resid_sigma = resid_var.max(0.0025 * var_m).sqrt();
        let guard = self.threshold + safety * resid_sigma;
        let partials = run_chunked(jobs, trials, TRIAL_CHUNK, |range| {
            let mut fails = 0usize;
            let mut simulated = 0usize;
            let mut blocked = 0usize;
            for i in range {
                let mut rng = StdRng::seed_from_u64(trial_seed(base_seed, i));
                let z = draw_z(&mut rng);
                let predicted = mean
                    + coeff
                        .iter()
                        .zip(z.iter())
                        .map(|(c, zi)| c * zi)
                        .sum::<f64>();
                if predicted > guard {
                    blocked += 1; // safely above threshold: accept unsimulated
                } else {
                    simulated += 1;
                    if self.metric_at(&z) < self.threshold {
                        fails += 1;
                    }
                }
            }
            (fails, simulated, blocked)
        });
        let mut fails = 0usize;
        let mut simulated = 0usize;
        let mut blocked = 0usize;
        for (f, s, b) in partials {
            fails += f;
            simulated += s;
            blocked += b;
        }
        let estimate = finish_estimate(trials, vec![(fails, fails as f64, fails as f64)], 0.0);
        BlockadeResult {
            estimate,
            pilot_trials: pilot,
            simulated,
            blocked,
        }
    }

    /// Pilot sampling: `(z, metric)` pairs from the salted pilot
    /// stream, in trial order regardless of worker count.
    fn collect_pilot(
        &self,
        base_seed: u64,
        trials: usize,
        jobs: usize,
    ) -> Vec<([f64; VAR_DIM], f64)> {
        let pilot_seed = base_seed ^ PILOT_SALT;
        let partials = run_chunked(jobs, trials, TRIAL_CHUNK, |range| {
            range
                .map(|i| {
                    let mut rng = StdRng::seed_from_u64(trial_seed(pilot_seed, i));
                    let z = draw_z(&mut rng);
                    let m = self.metric_at(&z);
                    (z, m)
                })
                .collect::<Vec<_>>()
        });
        partials.into_iter().flatten().collect()
    }
}

/// One standard-normal variation draw from a per-trial stream.
fn draw_z(rng: &mut StdRng) -> [f64; VAR_DIM] {
    let mut src = NormalSource::new();
    let mut z = [0.0; VAR_DIM];
    for zi in z.iter_mut() {
        *zi = src.sample(rng);
    }
    z
}

/// Merges chunk partials `(fails, Σwf, Σ(wf)²)` in chunk order and
/// forms the estimate. The merge order is fixed by the chunking, never
/// by the worker count — the byte-determinism contract.
fn finish_estimate(
    trials: usize,
    partials: Vec<(usize, f64, f64)>,
    shift_norm: f64,
) -> TailEstimate {
    let mut failures = 0usize;
    let mut sum_wf = 0.0f64;
    let mut sum_wf2 = 0.0f64;
    for (f, wf, wf2) in partials {
        failures += f;
        sum_wf += wf;
        sum_wf2 += wf2;
    }
    let n = trials as f64;
    let p_fail = sum_wf / n;
    let variance = (sum_wf2 - n * p_fail * p_fail) / (n - 1.0) / n;
    TailEstimate {
        trials,
        failures,
        p_fail,
        variance,
        shift_norm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cheap workhorse: write-margin trials on the 0.7 µm process,
    /// with the threshold calibrated into the requested tail.
    fn engine(p_target: f64) -> RareEngine {
        let mut e = RareEngine::for_process(&Process::cda07(), TrialKernel::WriteMargin, 0.0);
        e.threshold = e.calibrate_threshold(0xBEEF, 400, p_target, 4);
        e
    }

    #[test]
    fn inv_normal_cdf_hits_the_textbook_points() {
        assert!(inv_normal_cdf(0.5).abs() < 1e-9);
        assert!((inv_normal_cdf(0.975) - 1.959964).abs() < 1e-4);
        assert!((inv_normal_cdf(0.025) + 1.959964).abs() < 1e-4);
        // Deep-tail branch.
        assert!((inv_normal_cdf(1e-4) + 3.719016).abs() < 1e-4);
        // Antisymmetry.
        let p = 3e-3;
        assert!((inv_normal_cdf(p) + inv_normal_cdf(1.0 - p)).abs() < 1e-8);
    }

    /// The satellite contract: IS with a zero shift must reproduce the
    /// plain-MC tallies byte for byte under the same seeds — the two
    /// paths share per-trial streams, and `exp(0) = 1` exactly.
    #[test]
    fn zero_shift_is_reproduces_mc_byte_for_byte() {
        let e = engine(0.05);
        let mc = e.run_mc(0x5EED, 192, 3);
        let is = e.run_is(0x5EED, 192, 3, &[0.0; VAR_DIM]);
        assert_eq!(mc, is);
        assert!(mc.failures > 0, "calibrated threshold must see failures");
        assert_eq!(is.shift_norm.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn estimates_are_byte_identical_across_job_counts() {
        let e = engine(0.05);
        let shift = e.find_shift();
        let one = e.run_is(0xF00D, 96, 1, &shift);
        let two = e.run_is(0xF00D, 96, 2, &shift);
        let eight = e.run_is(0xF00D, 96, 8, &shift);
        assert_eq!(one, two);
        assert_eq!(one, eight);
        let b1 = e.run_blockade(0xF00D, 64, 96, 3.0, 1);
        let b8 = e.run_blockade(0xF00D, 64, 96, 3.0, 8);
        assert_eq!(b1, b8);
    }

    /// Cheap-regime cross-validation on one process (the bench covers
    /// all three in release mode): exhaustive MC and shifted IS must
    /// agree within 3 combined standard errors at p ≈ 1e-2.
    #[test]
    fn is_agrees_with_exhaustive_mc_in_the_cheap_regime() {
        let e = engine(0.01);
        let mc = e.run_mc(0xAB, 3000, 8);
        let is = e.run_is_auto(0xCD, 600, 8);
        assert!(mc.failures >= 5, "MC must actually see the event: {mc:?}");
        assert!(is.failures >= 50, "shifted run must hit the tail: {is:?}");
        let sigma = agreement_sigma(&mc, &is);
        assert!(
            sigma <= 3.0,
            "IS p={:.3e} (se {:.1e}) vs MC p={:.3e} (se {:.1e}): {sigma:.2}σ apart",
            is.p_fail,
            is.std_error(),
            mc.p_fail,
            mc.std_error()
        );
    }

    /// In the actual tail the sampler must beat MC by a wide margin at
    /// iso-variance. The bench asserts ≥50× on every process; this is
    /// the fast single-process pin.
    #[test]
    fn deep_tail_is_beats_mc_at_iso_variance() {
        let e = engine(1e-4);
        let is = e.run_is_auto(0x7A11, 800, 8);
        assert!(
            is.failures >= 100,
            "the shift must land in the tail: {is:?}"
        );
        assert!(
            is.p_fail > 1e-6 && is.p_fail < 1e-2,
            "tail estimate out of range: {:e}",
            is.p_fail
        );
        let speedup = is.speedup_over_mc();
        assert!(
            speedup >= 50.0,
            "IS must need ≥50× fewer trials than MC at iso-variance, got {speedup:.1}×"
        );
    }

    #[test]
    fn blockade_matches_mc_while_simulating_less() {
        let e = engine(0.02);
        let mc = e.run_mc(0x1CE, 2000, 8);
        let b = e.run_blockade(0x1CE, 200, 2000, 3.0, 8);
        assert_eq!(b.simulated + b.blocked, 2000);
        assert!(
            b.blocked > 2000 / 2,
            "the surrogate must block most safe candidates: {} blocked",
            b.blocked
        );
        // Same seeds, same draws: blockade may only differ from MC by
        // misclassified failures, so the estimates must sit within a
        // tight band of each other.
        let sigma = agreement_sigma(&mc, &b.estimate);
        assert!(
            sigma <= 1.0,
            "blockade p={:.3e} vs MC p={:.3e}: {sigma:.2}σ apart",
            b.estimate.p_fail,
            mc.p_fail
        );
    }

    #[test]
    fn find_shift_lands_on_the_failure_boundary() {
        let e = engine(1e-3);
        let shift = e.find_shift();
        let norm: f64 = shift.iter().map(|s| s * s).sum::<f64>().sqrt();
        // The boundary of a p≈1e-3 tail sits around Φ⁻¹ distance ~3σ
        // along the dominant direction — the pre-search must find a
        // nontrivial but bounded shift.
        assert!(norm > 1.0 && norm <= 8.0, "|shift| = {norm:.2}");
        // At the boundary the metric straddles the threshold.
        let m = e.metric_at(&shift);
        assert!(
            (m - e.threshold).abs() < 0.05 * e.threshold.abs().max(0.1),
            "boundary point metric {m:.4} vs threshold {:.4}",
            e.threshold
        );
    }

    #[test]
    fn metric_stats_are_jobs_invariant_and_plausible() {
        let e = RareEngine::for_process(&Process::cda05(), TrialKernel::WriteMargin, 0.0);
        let (m1, s1) = e.metric_stats(9, 300, 1);
        let (m8, s8) = e.metric_stats(9, 300, 8);
        assert_eq!(m1.to_bits(), m8.to_bits());
        assert_eq!(s1.to_bits(), s8.to_bits());
        assert!(m1 > 0.0, "nominal-ish cells must be writable: mean {m1}");
        assert!(s1 > 0.0 && s1 < m1, "spread {s1} vs mean {m1}");
    }
}
