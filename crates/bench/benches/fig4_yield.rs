//! Fig. 4 — yield versus number of defects for a narrow RAM array with
//! 1024 rows, bpc = 4 and bpw = 4; curves (a) no spares, (b) 4 spares +
//! BISR, (c) 8 spares + BISR, (d) 16 spares + BISR.
//!
//! The x-axis is the number of defects injected into the nonredundant
//! array; BISR curves account for the growth factor (§VII). The analytic
//! series is cross-checked against Monte-Carlo fault injection through
//! the actual two-pass BIST + BISR flow.

use bisram_bench::harness::Harness;
use bisram_bench::{banner, quick_harness};
use bisram_mem::ArrayOrg;
use bisram_rng::rngs::StdRng;
use bisram_rng::SeedableRng;
use bisram_yield::montecarlo;
use bisram_yield::repairability::YieldModel;

fn fig4_org(spares: usize) -> ArrayOrg {
    ArrayOrg::new(4096, 4, 4, spares).expect("fig4 geometry is valid")
}

fn model(spares: usize) -> YieldModel {
    YieldModel::new(fig4_org(spares), 0.05)
}

fn print_figure() {
    banner(
        "Fig. 4",
        "yield vs defects; 1024 rows, bpc=4, bpw=4; (a) no spares, (b/c/d) 4/8/16 spares+BISR",
    );
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12}",
        "defects", "(a) none", "(b) 4+BISR", "(c) 8+BISR", "(d) 16+BISR"
    );
    let mut rows = Vec::new();
    for i in 0..=12 {
        let defects = i as f64 * 4.0;
        let a = model(4).yield_without_bisr(defects);
        let b = model(4).yield_with_bisr(defects);
        let c = model(8).yield_with_bisr(defects);
        let d = model(16).yield_with_bisr(defects);
        println!("{defects:>8.0} {a:>12.4} {b:>12.4} {c:>12.4} {d:>12.4}");
        rows.push((defects, a, b, c, d));
    }

    // Shape assertions the paper's plot shows.
    let at = |n: f64| rows.iter().find(|r| r.0 == n).copied().expect("row exists");
    let (_, a, b, c, d) = at(16.0);
    assert!(
        b > a && c > b && d > c,
        "BISR curves must dominate in order"
    );
    println!("\nshape check: at 16 defects, (a) < (b) < (c) < (d) as in the paper  [OK]");

    // Monte-Carlo cross-check at a mid-curve point.
    let mut rng = StdRng::seed_from_u64(44);
    let org = fig4_org(4);
    let mc = montecarlo::simulate_yield(&mut rng, org, 8.0, 150, None);
    let analytic = bisram_yield::repairability::repair_probability(&org, 8.0);
    println!(
        "monte-carlo cross-check @ 8 defects (4 spares): empirical {:.3} vs analytic {:.3}",
        mc.usable_fraction(),
        analytic
    );
}

fn main() {
    print_figure();
    let mut crit: Harness = quick_harness();
    crit.bench_function("fig4_yield_curve_point", |b| {
        b.iter(|| model(16).yield_with_bisr(bisram_bench::harness::black_box(24.0)))
    });
    crit.bench_function("fig4_monte_carlo_trial", |b| {
        let mut rng = StdRng::seed_from_u64(9);
        let org = fig4_org(4);
        b.iter(|| montecarlo::simulate_yield(&mut rng, org, 8.0, 1, None))
    });
    crit.final_summary();
}
