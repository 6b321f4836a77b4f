//! Table III — total manufacturing cost per packaged and tested chip,
//! with and without RAM BISR.
//!
//! "The total cost of packaged microprocessors would reduce by 2.35% (in
//! case of Intel486DX2) to as much as 47.2% (in case of TI SuperSPARC),
//! if the caches are made built-in self-repairable."

use bisram_bench::harness::Harness;
use bisram_bench::{banner, quick_harness};
use bisram_yield::cost::{self, CostModel};
use bisram_yield::mpr;

fn print_table() {
    banner(
        "Table III",
        "total manufacturing cost per packaged, tested chip, with and without RAM BISR",
    );
    println!(
        "{:<18} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "processor", "die $", "test $", "pkg $", "total $", "tot+BISR", "saving"
    );
    let model = CostModel::default();
    let mut min_saving = f64::MAX;
    let mut max_saving = f64::MIN;
    let mut max_name = String::new();
    let mut min_name = String::new();
    for cpu in mpr::dataset() {
        let cmp = cost::evaluate(&cpu, &model);
        match cmp.with_bisr {
            Some(ref w) => {
                let saving = cmp.total_cost_reduction().expect("BISR applies");
                if saving < min_saving {
                    min_saving = saving;
                    min_name = cmp.name.clone();
                }
                if saving > max_saving {
                    max_saving = saving;
                    max_name = cmp.name.clone();
                }
                println!(
                    "{:<18} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>8.2}%",
                    cmp.name,
                    cmp.without.die_cost,
                    cmp.without.test_assembly_cost,
                    cmp.without.package_cost,
                    cmp.without.total(),
                    w.total(),
                    saving * 100.0
                );
            }
            None => println!(
                "{:<18} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9} {:>9}",
                cmp.name,
                cmp.without.die_cost,
                cmp.without.test_assembly_cost,
                cmp.without.package_cost,
                cmp.without.total(),
                "-",
                "2-metal"
            ),
        }
    }
    println!(
        "\nmeasured saving band: {:.2}% ({min_name}) .. {:.2}% ({max_name})",
        min_saving * 100.0,
        max_saving * 100.0
    );
    println!("paper band:           2.35% (Intel486DX2) .. 47.2% (TI SuperSPARC)");
    assert!(
        max_name.contains("SuperSPARC"),
        "the SuperSPARC must be the biggest winner, as in the paper"
    );
}

fn main() {
    print_table();
    let mut crit: Harness = quick_harness();
    let model = CostModel::default();
    crit.bench_function("table3_full_dataset", |b| {
        b.iter(|| {
            mpr::dataset()
                .iter()
                .map(|c| cost::evaluate(c, &model))
                .collect::<Vec<_>>()
        })
    });
    crit.final_summary();
}
