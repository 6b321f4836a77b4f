//! Fleets of seeded lifetimes → empirical survival curves and MTTF.
//!
//! Two execution engines produce the aggregate:
//!
//! * the **lane-packed engine** ([`crate::lane`]) — 64 lifetimes per
//!   packed array walk, the default for [`simulate_fleet`]; and
//! * the **golden per-trial engine** ([`simulate_fleet_golden`]) —
//!   one [`simulate_lifetime`] per trial, kept as the reference.
//!
//! Both derive per-lifetime seeds with [`bisram_exec::trial_seed`] and
//! merge integer partial tallies in chunk order, so they are
//! byte-identical to each other and across worker counts — the chunk
//! sizes differ (64 lanes vs [`bisram_exec::TRIAL_CHUNK`]), which is
//! fine because regrouping exact integer sums is associative. The
//! identity is asserted in this module's tests and in
//! `tests/determinism.rs`.

use crate::lane::simulate_lifetimes_lane;
use crate::sim::{simulate_lifetime, FailureCause, FieldConfig, LifetimeOutcome};
use bisram_exec::{resolve_jobs, run_chunked, trial_seed, TRIAL_CHUNK};
use bisram_mem::LANE_WIDTH;
use bisram_yield::reliability::SurvivalCurve;

/// Aggregate of `N` independent simulated lifetimes.
///
/// Equality is bit-exact: the float fields (`mttf_hours` and the curve)
/// compare via `f64::to_bits`, so two results are equal only when they
/// are byte-identical — the comparison the lane-vs-golden and
/// jobs-invariance contracts are stated in. (A derived `PartialEq`
/// would be `NaN`-hostile and only partial; all floats here are finite
/// ratios and trapezoid sums of finite grids, so total bit equality is
/// the honest relation.)
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Empirical survival curve `R̂(t)` on the session grid.
    pub curve: SurvivalCurve,
    /// Grid-censored MTTF, hours (see [`censored_mttf`]): a lower bound
    /// whenever any lifetime outlives the horizon.
    pub mttf_hours: f64,
    /// Lifetimes simulated.
    pub lifetimes: usize,
    /// Lifetimes that failed (or degraded) inside the horizon.
    pub deaths: usize,
    /// Deaths whose first cause was a faulty spare row.
    pub deaths_spare_fault: usize,
    /// Deaths whose first cause was spare exhaustion.
    pub deaths_exhausted: usize,
    /// Deaths whose first cause was non-converging repair.
    pub deaths_persist: usize,
    /// Maintenance sessions that ran across the whole fleet.
    pub sessions_run: u64,
    /// Quiet sessions skipped across the whole fleet.
    pub sessions_skipped: u64,
    /// Soft-upset alarms dismissed across the whole fleet.
    pub transients_dismissed: u64,
    /// Rows successfully remapped across the whole fleet.
    pub rows_repaired: u64,
}

impl PartialEq for FleetResult {
    fn eq(&self, other: &Self) -> bool {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        self.mttf_hours.to_bits() == other.mttf_hours.to_bits()
            && self.curve.times_hours.len() == other.curve.times_hours.len()
            && bits(&self.curve.times_hours) == bits(&other.curve.times_hours)
            && bits(&self.curve.survival) == bits(&other.curve.survival)
            && self.lifetimes == other.lifetimes
            && self.deaths == other.deaths
            && self.deaths_spare_fault == other.deaths_spare_fault
            && self.deaths_exhausted == other.deaths_exhausted
            && self.deaths_persist == other.deaths_persist
            && self.sessions_run == other.sessions_run
            && self.sessions_skipped == other.sessions_skipped
            && self.transients_dismissed == other.transients_dismissed
            && self.rows_repaired == other.rows_repaired
    }
}

/// Bit-exact equality (see [`PartialEq`] impl) is reflexive, symmetric
/// and transitive, so the relation is total.
impl Eq for FleetResult {}

/// Per-chunk partial aggregate: every counter a worker accumulates
/// before the in-order merge. All fields are integers, so merging is
/// exact and the merged totals cannot depend on how work was split —
/// nor on the chunk size, which is why the lane engine (64-wide chunks)
/// and the golden engine ([`TRIAL_CHUNK`]-wide) aggregate identically.
#[derive(Debug, Clone)]
struct FleetPartial {
    alive: Vec<usize>,
    deaths: usize,
    deaths_spare_fault: usize,
    deaths_exhausted: usize,
    deaths_persist: usize,
    sessions_run: u64,
    sessions_skipped: u64,
    transients_dismissed: u64,
    rows_repaired: u64,
}

impl FleetPartial {
    fn new(grid_len: usize) -> Self {
        FleetPartial {
            alive: vec![0; grid_len],
            deaths: 0,
            deaths_spare_fault: 0,
            deaths_exhausted: 0,
            deaths_persist: 0,
            sessions_run: 0,
            sessions_skipped: 0,
            transients_dismissed: 0,
            rows_repaired: 0,
        }
    }

    fn absorb(&mut self, out: &LifetimeOutcome, times: &[f64]) {
        for (slot, &t) in self.alive.iter_mut().zip(times) {
            if out.alive_at(t) {
                *slot += 1;
            }
        }
        if out.failure_time_hours.is_some() {
            self.deaths += 1;
        }
        match out.failure_cause {
            Some(FailureCause::SpareFault) => self.deaths_spare_fault += 1,
            Some(FailureCause::SparesExhausted) => self.deaths_exhausted += 1,
            Some(FailureCause::FaultsPersist) => self.deaths_persist += 1,
            None => {}
        }
        self.sessions_run += out.sessions_run as u64;
        self.sessions_skipped += out.sessions_skipped as u64;
        self.transients_dismissed += out.transients_dismissed as u64;
        self.rows_repaired += out.rows_repaired as u64;
    }
}

/// Merges ordered partials into the final aggregate — shared by both
/// engines so the census math cannot diverge between them.
///
/// # Grid-censoring convention
///
/// The survival curve lives on the session grid `t_k = k·period`,
/// `k = 1..=sessions()`; a failure stamped exactly at `t_k` counts as
/// dead *at* `t_k` ([`LifetimeOutcome::alive_at`] uses strict `>`).
/// `mttf_hours` is the trapezoidal `∫R̂ dt` over that grid anchored at
/// `R̂(0) = 1` and truncated at the last grid point — a lower bound
/// whenever any lifetime outlives the horizon. Both engines inherit the
/// convention from this one function.
fn aggregate(partials: Vec<FleetPartial>, times: Vec<f64>, lifetimes: usize) -> FleetResult {
    let mut alive = vec![0usize; times.len()];
    let mut result = FleetResult {
        curve: SurvivalCurve::new(Vec::new(), Vec::new()),
        mttf_hours: 0.0,
        lifetimes,
        deaths: 0,
        deaths_spare_fault: 0,
        deaths_exhausted: 0,
        deaths_persist: 0,
        sessions_run: 0,
        sessions_skipped: 0,
        transients_dismissed: 0,
        rows_repaired: 0,
    };
    for p in partials {
        for (total, part) in alive.iter_mut().zip(&p.alive) {
            *total += part;
        }
        result.deaths += p.deaths;
        result.deaths_spare_fault += p.deaths_spare_fault;
        result.deaths_exhausted += p.deaths_exhausted;
        result.deaths_persist += p.deaths_persist;
        result.sessions_run += p.sessions_run;
        result.sessions_skipped += p.sessions_skipped;
        result.transients_dismissed += p.transients_dismissed;
        result.rows_repaired += p.rows_repaired;
    }
    let survival: Vec<f64> = alive.iter().map(|&a| a as f64 / lifetimes as f64).collect();
    result.curve = SurvivalCurve::new(times, survival);
    result.mttf_hours = censored_mttf(&result.curve);
    result
}

/// Runs `lifetimes` seeded lifetimes on the lane-packed engine and
/// aggregates them, fanning lane batches over the default worker count
/// (`BISRAM_JOBS`, else the CPU count — see
/// [`bisram_exec::resolve_jobs`]).
///
/// Per-lifetime seeds are derived from `base_seed` by
/// [`bisram_exec::trial_seed`], so fleets are reproducible (same
/// `base_seed` ⇒ same fleet, byte for byte) yet the individual streams
/// are decorrelated — and because the lane engine replays exactly the
/// golden per-trial streams, the result is also byte-identical to
/// [`simulate_fleet_golden`].
///
/// # Panics
///
/// Panics when `lifetimes` is zero (a survival fraction needs a
/// denominator).
pub fn simulate_fleet(config: &FieldConfig, lifetimes: usize, base_seed: u64) -> FleetResult {
    simulate_fleet_jobs(config, lifetimes, base_seed, resolve_jobs(None))
}

/// [`simulate_fleet`] with an explicit worker count.
///
/// Determinism contract: the result is byte-identical for every `jobs`
/// value *and* to the golden per-trial path. Each lifetime's RNG stream
/// depends only on `base_seed` and its index, lane-batch boundaries
/// depend only on the fleet size, and the integer partial aggregates
/// are merged in batch order.
///
/// # Panics
///
/// Panics when `lifetimes` or `jobs` is zero.
pub fn simulate_fleet_jobs(
    config: &FieldConfig,
    lifetimes: usize,
    base_seed: u64,
    jobs: usize,
) -> FleetResult {
    assert!(lifetimes > 0, "a fleet needs at least one lifetime");
    let times = config.session_times();
    // One executor task per lane batch: trials i..i+64 share a packed
    // walk. A final ragged batch (fleet size not divisible by 64) simply
    // runs with fewer lanes.
    let partials = run_chunked(jobs, lifetimes, LANE_WIDTH, |range| {
        let mut p = FleetPartial::new(times.len());
        let seeds: Vec<u64> = range.map(|i| trial_seed(base_seed, i)).collect();
        for out in simulate_lifetimes_lane(config, &seeds) {
            p.absorb(&out, &times);
        }
        p
    });
    aggregate(partials, times, lifetimes)
}

/// The golden reference: one scalar [`simulate_lifetime`] per trial,
/// default worker count. Kept alongside the lane engine so the
/// byte-identity contract stays checkable forever.
///
/// # Panics
///
/// Panics when `lifetimes` is zero.
pub fn simulate_fleet_golden(
    config: &FieldConfig,
    lifetimes: usize,
    base_seed: u64,
) -> FleetResult {
    simulate_fleet_golden_jobs(config, lifetimes, base_seed, resolve_jobs(None))
}

/// [`simulate_fleet_golden`] with an explicit worker count.
///
/// # Panics
///
/// Panics when `lifetimes` or `jobs` is zero.
pub fn simulate_fleet_golden_jobs(
    config: &FieldConfig,
    lifetimes: usize,
    base_seed: u64,
    jobs: usize,
) -> FleetResult {
    assert!(lifetimes > 0, "a fleet needs at least one lifetime");
    let times = config.session_times();
    let partials = run_chunked(jobs, lifetimes, TRIAL_CHUNK, |range| {
        let mut p = FleetPartial::new(times.len());
        for i in range {
            p.absorb(&simulate_lifetime(config, trial_seed(base_seed, i)), &times);
        }
        p
    });
    aggregate(partials, times, lifetimes)
}

/// Trapezoidal `∫R dt` over the curve's grid, anchored at `R(0) = 1`,
/// truncated at the last grid point — an MTTF lower bound under
/// censoring (see [`aggregate`] for the full grid-censoring
/// convention). Works on analytic samples too, which makes empirical
/// and analytic MTTF comparable on the same grid.
///
/// Returns 0 for an empty curve.
pub fn censored_mttf(curve: &SurvivalCurve) -> f64 {
    let mut acc = 0.0;
    let mut prev_t = 0.0;
    let mut prev_r = 1.0;
    for (&t, &r) in curve.times_hours.iter().zip(curve.survival.iter()) {
        acc += 0.5 * (prev_r + r) * (t - prev_t);
        prev_t = t;
        prev_r = r;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SparePolicy;
    use bisram_mem::ArrayOrg;

    fn config(spares: usize) -> FieldConfig {
        let org = ArrayOrg::new(32, 2, 2, spares).expect("valid test geometry");
        FieldConfig::new(org, 9.0e-7, 10_000.0, 120_000.0)
    }

    #[test]
    fn fleet_is_reproducible_and_monotone() {
        let cfg = config(4);
        let a = simulate_fleet(&cfg, 64, 0xF1EE7);
        let b = simulate_fleet(&cfg, 64, 0xF1EE7);
        assert_eq!(a, b);
        assert!(
            a.curve.survival.windows(2).all(|w| w[0] >= w[1]),
            "survival never increases: {:?}",
            a.curve.survival
        );
        assert!(a.curve.survival.iter().all(|r| (0.0..=1.0).contains(r)));
        assert_eq!(a.lifetimes, 64);
        assert!(a.deaths <= a.lifetimes);
    }

    #[test]
    fn parallel_fleets_are_byte_identical_across_job_counts() {
        let cfg = config(3);
        let one = simulate_fleet_jobs(&cfg, 40, 0xBAD5EED, 1);
        let two = simulate_fleet_jobs(&cfg, 40, 0xBAD5EED, 2);
        let eight = simulate_fleet_jobs(&cfg, 40, 0xBAD5EED, 8);
        assert_eq!(one, two);
        assert_eq!(one, eight);
        // And the defaulted entry point agrees with all of them.
        assert_eq!(one, simulate_fleet(&cfg, 40, 0xBAD5EED));
    }

    #[test]
    fn lane_and_golden_engines_are_byte_identical() {
        // The tentpole contract, on fleet sizes straddling the lane
        // width and with enough fault pressure that repairs, deaths and
        // exhaustion all occur.
        for spares in [1, 4] {
            let mut cfg = config(spares);
            cfg.lambda_per_hour = 2.0e-6;
            for lifetimes in [1, 63, 64, 65, 130] {
                let lane = simulate_fleet_jobs(&cfg, lifetimes, 0xF1EE7, 2);
                let golden = simulate_fleet_golden_jobs(&cfg, lifetimes, 0xF1EE7, 2);
                assert_eq!(
                    lane, golden,
                    "spares={spares} lifetimes={lifetimes}: engines diverged"
                );
            }
        }
    }

    #[test]
    fn lane_and_golden_agree_under_upsets_and_opportunistic_policy() {
        // Soft upsets consume extra RNG draws and the opportunistic
        // policy exercises the degradation path — both must stay aligned
        // draw for draw.
        let mut cfg = config(2);
        cfg.lambda_per_hour = 2.0e-6;
        cfg.transient_upset_probability = 0.2;
        cfg.spare_policy = SparePolicy::Opportunistic;
        let lane = simulate_fleet_jobs(&cfg, 70, 0xA11CE, 4);
        let golden = simulate_fleet_golden_jobs(&cfg, 70, 0xA11CE, 4);
        assert_eq!(lane, golden);
        cfg.max_retries = 0; // the signature-only dismissal corner
        let lane = simulate_fleet_jobs(&cfg, 70, 0xA11CE, 4);
        let golden = simulate_fleet_golden_jobs(&cfg, 70, 0xA11CE, 4);
        assert_eq!(lane, golden);
    }

    #[test]
    fn censored_mttf_of_constant_one_is_the_horizon() {
        let curve = SurvivalCurve::new(vec![10.0, 20.0, 30.0], vec![1.0, 1.0, 1.0]);
        assert!((censored_mttf(&curve) - 30.0).abs() < 1e-12);
        let empty = SurvivalCurve::new(Vec::new(), Vec::new());
        assert_eq!(censored_mttf(&empty), 0.0);
    }

    #[test]
    fn immortal_fleet_survives_everywhere() {
        let mut cfg = config(2);
        cfg.lambda_per_hour = 0.0;
        let fleet = simulate_fleet(&cfg, 8, 1);
        assert_eq!(fleet.deaths, 0);
        assert!(fleet.curve.survival.iter().all(|&r| r == 1.0));
        assert!((fleet.mttf_hours - cfg.horizon_hours).abs() < 1e-9);
    }
}
