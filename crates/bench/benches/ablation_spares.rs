//! Ablation — why the paper ships four spare rows.
//!
//! Sweeps the spare count against three criteria at once:
//!
//! 1. cost per good die (growth factor / yield, §VII/§X economics),
//! 2. the TLB compare delay (§VI — the masking guarantee holds for 1-4
//!    spares only),
//! 3. early-life reliability (§VIII — spares hurt before they help).
//!
//! The result reproduces the design rationale: the cost curve knees
//! around four spares, beyond which the extra rows buy little yield but
//! keep growing the TLB delay and the early-life reliability penalty.

use bisram_bench::harness::Harness;
use bisram_bench::{banner, quick_harness};
use bisram_circuit::campath;
use bisram_tech::Process;
use bisram_yield::optimize::optimize_spares;
use bisram_yield::reliability::ReliabilityModel;

fn print_experiment() {
    banner(
        "ablation",
        "spare-row count: die cost vs TLB delay vs early-life reliability",
    );
    let process = Process::cda07();
    let defects = 2.0;
    let sweep = optimize_spares(4096, 4, 4, defects, 0.05, 16);
    println!(
        "{:>7} {:>12} {:>12} {:>12} {:>14}",
        "spares", "yield", "rel. cost", "TLB delay", "R(3 years)"
    );
    for &s in &[0usize, 1, 2, 4, 8, 16] {
        let p = sweep.points[s];
        let tlb = if s == 0 {
            0.0
        } else {
            campath::tlb_delay(&process, 10, s).total_s()
        };
        let rel = ReliabilityModel::fig5(s).reliability(3.0 * 8766.0);
        println!(
            "{s:>7} {:>12.4} {:>12.3} {:>9.0} ps {:>14.5}",
            p.yield_with_bisr,
            p.relative_cost,
            tlb * 1e12,
            rel
        );
    }
    let cost = |n: usize| sweep.points[n].relative_cost;
    println!(
        "\nfour spares capture {:.0}% of the achievable cost saving at {defects} defects;",
        100.0 * (cost(0) - cost(4)) / (cost(0) - cost(sweep.optimal_spares))
    );
    println!(
        "beyond that the TLB delay keeps growing and the masking guarantee (1-4 spares) is lost,"
    );
    println!("while early-life reliability keeps dropping — the paper's choice of 4 is the knee.");
    assert!(cost(4) < cost(0));
    assert!((cost(0) - cost(4)) > 0.9 * (cost(0) - cost(sweep.optimal_spares)));
}

fn main() {
    print_experiment();
    let mut crit: Harness = quick_harness();
    crit.bench_function("ablation_spare_sweep", |b| {
        b.iter(|| optimize_spares(4096, 4, 4, bisram_bench::harness::black_box(2.0), 0.05, 16))
    });
    crit.final_summary();
}
