//! Integration: the in-field lifetime simulator driven end to end
//! through the top-level crate — compiled-parameter organizations, the
//! datasheet reliability section, and both spare policies exercised on
//! the same fault pressure.

use bisram_mem::ArrayOrg;
use bisramgen::field::{
    simulate_fleet, simulate_lifetime, DegradationState, FieldConfig, SparePolicy,
};
use bisramgen::yield_model::reliability::ReliabilityModel;
use bisramgen::{Datasheet, RamParams};

fn config(spares: usize) -> FieldConfig {
    let org = ArrayOrg::new(64, 4, 4, spares).expect("valid");
    // F(horizon) ≈ 0.3 over 10 sessions.
    FieldConfig::new(org, 2.2e-7, 10_000.0, 100_000.0)
}

#[test]
fn small_fleet_tracks_the_analytic_curve_loosely() {
    // The tight 3%/2500-lifetime validation lives in bisram-field's own
    // suite; here a small fleet just has to stay in the analytic
    // ballpark while running through the public facade.
    let cfg = config(4);
    let fleet = simulate_fleet(&cfg, 200, 0x1f1e1d);
    let model = ReliabilityModel {
        org: cfg.org,
        lambda_per_hour: cfg.lambda_per_hour,
    };
    let cmp = model.compare(&fleet.curve).expect("non-empty grid");
    assert!(
        cmp.max_abs_error < 0.10,
        "max |R̂−R| = {:.3} at {} h",
        cmp.max_abs_error,
        cmp.worst_time_hours
    );
}

#[test]
fn opportunistic_policy_outlives_pessimistic_accounting() {
    // The same seeds under the lenient policy must never die earlier:
    // recapture turns spare faults from fatal into a spare tax, and
    // exhaustion degrades instead of stopping the clock... at the same
    // session or later.
    let pess = config(2);
    let mut opp = config(2);
    opp.spare_policy = SparePolicy::Opportunistic;
    let mut improved = 0usize;
    for seed in 0..150u64 {
        let a = simulate_lifetime(&pess, seed);
        let b = simulate_lifetime(&opp, seed);
        let ta = a.failure_time_hours.unwrap_or(f64::INFINITY);
        let tb = b.failure_time_hours.unwrap_or(f64::INFINITY);
        assert!(
            tb >= ta,
            "seed {seed}: opportunistic died at {tb} before pessimistic at {ta}"
        );
        if tb > ta {
            improved += 1;
        }
        // Graceful degradation: a lifetime that ran out of spares keeps
        // its unrepairable map sorted and non-empty.
        if b.state == DegradationState::DetectOnly {
            assert!(!b.unrepairable_rows.is_empty());
            assert!(b.unrepairable_rows.windows(2).all(|w| w[0] < w[1]));
        }
    }
    assert!(
        improved > 0,
        "over 150 seeds the lenient policy should beat the pessimistic one at least once"
    );
}

#[test]
fn datasheet_reliability_section_comes_from_the_simulator() {
    let p = RamParams::builder()
        .words(256)
        .bits_per_word(4)
        .bits_per_column(4)
        .spare_rows(4)
        .build()
        .expect("valid params");
    let d = Datasheet::extrapolate(&p).with_simulated_reliability(&p, 1e-9, 16, 42);
    let r = d.reliability.as_ref().expect("filled");
    assert_eq!(r.lifetimes, 16);
    assert!(r.simulated_mttf_hours > 0.0);
    assert!(d.to_string().contains("MTTF (simul.)"));
}

#[test]
fn event_logs_are_bytewise_reproducible_across_policies() {
    for policy in [SparePolicy::Pessimistic, SparePolicy::Opportunistic] {
        let mut cfg = config(2);
        cfg.spare_policy = policy;
        cfg.transient_upset_probability = 0.1;
        let a = simulate_lifetime(&cfg, 0xABCDE);
        let b = simulate_lifetime(&cfg, 0xABCDE);
        assert_eq!(format!("{:?}", a.events), format!("{:?}", b.events));
        assert_eq!(a, b);
    }
}
