//! Fig. 5 — reliability versus device age for a BISR'ed RAM with 1024
//! regular rows, bpc = 4, bpw = 4, defect rate 1e-6 per kilo-hour per
//! memory cell.
//!
//! The headline shape: more spares *reduce* early-life reliability (the
//! spares themselves must stay fault-free) and only win later; the
//! 4-spare and 8-spare curves cross around 8 years (~70 000 h).

use bisram_bench::harness::Harness;
use bisram_bench::{banner, quick_harness};
use bisram_yield::reliability::ReliabilityModel;

fn print_figure() {
    banner(
        "Fig. 5",
        "reliability vs age; 1024 rows, bpc=4, bpw=4, 1e-6 faults per kilo-hour per cell",
    );
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12}",
        "age (h)", "no spares", "4 spares", "8 spares", "16 spares"
    );
    for t_kh in [0u64, 10, 30, 50, 70, 100, 150, 200, 300, 500] {
        let t = t_kh as f64 * 1000.0;
        let r = |s: usize| ReliabilityModel::fig5(s).reliability(t);
        println!(
            "{:>8} {:>12.5} {:>12.5} {:>12.5} {:>12.5}",
            t_kh * 1000,
            r(0),
            r(4),
            r(8),
            r(16)
        );
    }

    // Locate the 4-vs-8 crossover the paper calls out at ~70 000 h.
    let m4 = ReliabilityModel::fig5(4);
    let m8 = ReliabilityModel::fig5(8);
    let mut crossover = None;
    let mut t = 1000.0;
    while t < 1e6 {
        if m8.reliability(t) > m4.reliability(t) {
            crossover = Some(t);
            break;
        }
        t += 500.0;
    }
    match crossover {
        Some(t) => println!(
            "\n4-vs-8-spare crossover: measured {:.0} h (~{:.1} years); paper: ~70 000 h (~8 years)",
            t,
            t / 8766.0
        ),
        None => println!("\nno crossover found (unexpected)"),
    }

    println!("\nMTTF (numeric integration of R(t)):");
    for s in [0usize, 4, 8, 16] {
        let mttf = ReliabilityModel::fig5(s).mttf_hours();
        println!(
            "  {s:>2} spares: {:>10.0} h ({:.1} years)",
            mttf,
            mttf / 8766.0
        );
    }
}

fn main() {
    print_figure();
    let mut crit: Harness = quick_harness();
    crit.bench_function("fig5_reliability_point", |b| {
        let m = ReliabilityModel::fig5(8);
        b.iter(|| m.reliability(bisram_bench::harness::black_box(70_000.0)))
    });
    crit.bench_function("fig5_mttf_integration", |b| {
        let m = ReliabilityModel::fig5(4);
        b.iter(|| m.mttf_hours())
    });
    crit.final_summary();
}
