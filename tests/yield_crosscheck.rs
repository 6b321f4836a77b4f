//! Integration: the analytic yield/repairability models against
//! Monte-Carlo fault injection through the real BIST + BISR machinery.

use bisram_mem::ArrayOrg;
use bisram_rng::rngs::StdRng;
use bisram_rng::SeedableRng;
use bisram_yield::montecarlo::{self, MonteCarloYield};
use bisram_yield::repairability::{repair_probability, repair_probability_clustered, YieldModel};
use bisram_yield::stapper;

fn org(spares: usize) -> ArrayOrg {
    ArrayOrg::new(512, 8, 4, spares).expect("valid")
}

#[test]
fn analytic_and_empirical_repairability_agree_across_defect_counts() {
    for (seed, defects) in [(1u64, 1.0f64), (2, 3.0), (3, 6.0)] {
        let o = org(4);
        let mut rng = StdRng::seed_from_u64(seed);
        let mc: MonteCarloYield = montecarlo::simulate_yield(&mut rng, o, defects, 250, None);
        let analytic = repair_probability(&o, defects);
        let empirical = mc.usable_fraction();
        assert!(
            (empirical - analytic).abs() < 0.09,
            "defects {defects}: empirical {empirical:.3} vs analytic {analytic:.3}"
        );
    }
}

#[test]
fn bisr_multiplies_usable_dies_in_the_interesting_regime() {
    // Around 2-6 defects the nonredundant yield has collapsed but the
    // BISR'ed yield holds — the production-economics core of the paper.
    let o = org(4);
    let mut rng = StdRng::seed_from_u64(7);
    let mc = montecarlo::simulate_yield(&mut rng, o, 3.0, 300, None);
    assert!(
        mc.usable_fraction() > 2.0 * mc.good_fraction(),
        "usable {:.3} should at least double the born-good {:.3}",
        mc.usable_fraction(),
        mc.good_fraction()
    );
}

#[test]
fn clustered_monte_carlo_tracks_the_clustered_analytic_model() {
    let o = org(4);
    let alpha = 2.0;
    let defects = 5.0;
    let mut rng = StdRng::seed_from_u64(11);
    let mc = montecarlo::simulate_yield(&mut rng, o, defects, 300, Some(alpha));
    let analytic = repair_probability_clustered(&o, defects, alpha);
    assert!(
        (mc.usable_fraction() - analytic).abs() < 0.09,
        "clustered: empirical {:.3} vs analytic {:.3}",
        mc.usable_fraction(),
        analytic
    );
}

#[test]
fn born_good_fraction_tracks_the_stapper_baseline() {
    // Without clustering, the born-good fraction follows the Poisson
    // yield; with clustering, the Stapper yield.
    let o = org(0);
    let defects = 2.0;
    let mut rng = StdRng::seed_from_u64(21);
    let poisson_mc = montecarlo::simulate_yield(&mut rng, o, defects, 400, None);
    let expect = stapper::poisson_yield(defects);
    assert!(
        (poisson_mc.good_fraction() - expect).abs() < 0.07,
        "poisson: {:.3} vs {:.3}",
        poisson_mc.good_fraction(),
        expect
    );

    let mut rng = StdRng::seed_from_u64(22);
    let clustered_mc = montecarlo::simulate_yield(&mut rng, o, defects, 400, Some(1.0));
    let expect = stapper::stapper_yield(defects, 1.0);
    assert!(
        (clustered_mc.good_fraction() - expect).abs() < 0.07,
        "stapper: {:.3} vs {:.3}",
        clustered_mc.good_fraction(),
        expect
    );
}

#[test]
fn fig4_model_is_internally_consistent_with_its_pieces() {
    let model = YieldModel::new(org(4), 0.05);
    // At zero defects everything is unity.
    assert!((model.yield_with_bisr(0.0) - 1.0).abs() < 1e-9);
    assert!((model.yield_without_bisr(0.0) - 1.0).abs() < 1e-12);
    // The BISR yield is bounded by the clustered repairability of the
    // array alone (the circuitry factor can only lower it).
    let n = 6.0;
    let array_only = repair_probability_clustered(
        &org(4),
        n * model.growth_factor * (model.growth_factor - model.overhead_fraction)
            / model.growth_factor,
        model.alpha,
    );
    assert!(model.yield_with_bisr(n) <= array_only + 1e-9);
}
