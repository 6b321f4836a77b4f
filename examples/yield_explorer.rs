//! Exploring what BISR buys in yield, reliability and cost: a compact
//! tour of the paper's §VII–§X models, cross-checked against Monte-Carlo
//! fault injection through the real BIST/BISR machinery.
//!
//! ```sh
//! cargo run --release --example yield_explorer
//! ```

use bisram_mem::ArrayOrg;
use bisram_rng::rngs::StdRng;
use bisram_rng::SeedableRng;
use bisram_yield::cost::{self, CostModel};
use bisram_yield::montecarlo;
use bisram_yield::mpr;
use bisram_yield::reliability::ReliabilityModel;
use bisram_yield::repairability::YieldModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Yield vs defects (the Fig. 4 setting).
    println!("yield vs defects (1024 rows, bpc=4, bpw=4):");
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10}",
        "defects", "no BISR", "4 spares", "8 spares", "16 spares"
    );
    for defects in [0.0, 2.0, 4.0, 8.0, 16.0, 32.0] {
        let base = YieldModel::new(ArrayOrg::new(4096, 4, 4, 4)?, 0.05);
        let y = |s: usize| {
            YieldModel::new(ArrayOrg::new(4096, 4, 4, s).unwrap(), 0.05).yield_with_bisr(defects)
        };
        println!(
            "{defects:>8.0} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
            base.yield_without_bisr(defects),
            y(4),
            y(8),
            y(16)
        );
    }

    // --- Monte-Carlo cross-check at one point.
    let org = ArrayOrg::new(1024, 8, 4, 4)?;
    let mut rng = StdRng::seed_from_u64(7);
    let mc = montecarlo::simulate_yield(&mut rng, org, 4.0, 200, None);
    let analytic = bisram_yield::repairability::repair_probability(&org, 4.0);
    println!(
        "\nmonte-carlo cross-check @ 4 defects: empirical {:.3} vs analytic {:.3} \
         ({} repaired, {} born good, {} unrepairable of {} dies)",
        mc.usable_fraction(),
        analytic,
        mc.repaired,
        mc.already_good,
        mc.unrepairable,
        mc.trials
    );

    // --- Reliability (Fig. 5): the early-life penalty of extra spares.
    println!("\nreliability over device age (defect rate 1e-6 per kilo-hour per cell):");
    println!(
        "{:>10} {:>10} {:>10} {:>10}",
        "age", "4 spares", "8 spares", "16 spares"
    );
    for years in [1u32, 4, 8, 12, 20] {
        let t = years as f64 * 8766.0;
        let r = |s| ReliabilityModel::fig5(s).reliability(t);
        println!("{years:>8} y {:>10.5} {:>10.5} {:>10.5}", r(4), r(8), r(16));
    }
    println!("(note the 4-vs-8-spare crossover around the paper's ~8 years)");

    // --- Manufacturing cost (Tables II/III).
    println!("\ncost with and without cache BISR (MPR model, synthetic dataset):");
    println!(
        "{:<18} {:>9} {:>9} {:>9} {:>9} {:>8}",
        "processor", "die $", "die+BISR", "total $", "tot+BISR", "saving"
    );
    let model = CostModel::default();
    for cpu in mpr::dataset() {
        let cmp = cost::evaluate(&cpu, &model);
        match cmp.with_bisr {
            Some(ref w) => println!(
                "{:<18} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>7.2}%",
                cmp.name,
                cmp.without.die_cost,
                w.die_cost,
                cmp.without.total(),
                w.total(),
                cmp.total_cost_reduction().unwrap_or(0.0) * 100.0
            ),
            None => println!(
                "{:<18} {:>9.2} {:>9} {:>9.2} {:>9} {:>8}",
                cmp.name,
                cmp.without.die_cost,
                "-",
                cmp.without.total(),
                "-",
                "2-metal"
            ),
        }
    }

    Ok(())
}
