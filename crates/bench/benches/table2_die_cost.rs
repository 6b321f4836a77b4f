//! Table II — cost per good die before wafer testing for commercial
//! microprocessors, with and without RAM BISR (4 spare rows).
//!
//! "Blank entries correspond to chips that use only two metal layers;
//! BISR RAMs built by BISRAMGEN require three metal layers ... there is
//! a significant decrease in the cost per good die with RAM BISR, often
//! by a factor of about 2."
//!
//! The microprocessor dataset is synthetic but calibrated (the original
//! is proprietary MPR data) — see DESIGN.md.

use bisram_bench::harness::Harness;
use bisram_bench::{banner, quick_harness};
use bisram_yield::cost::{self, CostModel};
use bisram_yield::mpr;

fn print_table() {
    banner(
        "Table II",
        "cost per good die before wafer testing, with and without RAM BISR",
    );
    println!(
        "{:<18} {:>6} {:>7} {:>8} {:>10} {:>10} {:>7}",
        "processor", "metal", "mm2", "yield", "die $", "die+BISR$", "ratio"
    );
    let model = CostModel::default();
    let mut best_ratio: f64 = 1.0;
    for cpu in mpr::dataset() {
        let cmp = cost::evaluate(&cpu, &model);
        match cmp.with_bisr {
            Some(ref w) => {
                let ratio = cmp.without.die_cost / w.die_cost;
                best_ratio = best_ratio.max(ratio);
                println!(
                    "{:<18} {:>6} {:>7.0} {:>8.2} {:>10.2} {:>10.2} {:>6.2}x",
                    cmp.name,
                    cpu.metal_layers,
                    cpu.die_area_mm2,
                    cpu.die_yield,
                    cmp.without.die_cost,
                    w.die_cost,
                    ratio
                );
            }
            None => println!(
                "{:<18} {:>6} {:>7.0} {:>8.2} {:>10.2} {:>10} {:>7}",
                cmp.name,
                cpu.metal_layers,
                cpu.die_area_mm2,
                cpu.die_yield,
                cmp.without.die_cost,
                "-",
                "-"
            ),
        }
    }
    println!(
        "\npaper: 'a significant decrease ... often by a factor of about 2'; best measured ratio {best_ratio:.2}x"
    );
    assert!(
        best_ratio > 1.5,
        "the headline 2x-class improvement must appear"
    );
}

fn main() {
    print_table();
    let mut crit: Harness = quick_harness();
    let model = CostModel::default();
    let sparc = mpr::by_name("SuperSPARC").expect("dataset entry");
    crit.bench_function("table2_cost_evaluation", |b| {
        b.iter(|| cost::evaluate(&sparc, &model))
    });
    crit.final_summary();
}
