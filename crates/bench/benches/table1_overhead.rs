//! Table I — BISR area overhead with four spare rows on the
//! CDA 0.7µ 3M 1P process, across array geometries.
//!
//! The paper's headline: overhead "of at most 7% for realistic array
//! sizes for embedded RAMs" (64 Kb – 4 Mb), decreasing as the array
//! grows, with the four redundant rows themselves contributing well
//! under 1%.

use bisram_bench::harness::Harness;
use bisram_bench::{banner, quick_harness};
use bisram_tech::Process;
use bisramgen::overhead_row;

/// The geometry sweep of the reproduced table (words, bpw, bpc).
const GEOMETRIES: &[(usize, usize, usize)] = &[
    (2048, 32, 4),   // 64 Kb
    (4096, 32, 4),   // 128 Kb
    (4096, 64, 8),   // 256 Kb
    (8192, 64, 8),   // 512 Kb
    (16384, 64, 8),  // 1 Mb
    (16384, 128, 8), // 2 Mb
    (32768, 128, 8), // 4 Mb
];

fn print_table() {
    banner(
        "Table I",
        "BISR overhead with four spare rows, process CDA0.7u3m1p",
    );
    let process = Process::cda07();
    let mut prev = f64::MAX;
    let mut monotone = true;
    for &(words, bpw, bpc) in GEOMETRIES {
        let row = overhead_row(&process, words, bpw, bpc, 4).expect("valid geometry");
        println!("{row}");
        assert!(
            row.overhead < 0.07,
            "paper bound violated: {:.2}%",
            row.overhead * 100.0
        );
        if row.overhead > prev {
            monotone = false;
        }
        prev = row.overhead;
    }
    println!("\npaper: overhead <= 7% for all realistic sizes          [OK]");
    println!(
        "paper: overhead shrinks with array size                {}",
        if monotone {
            "[OK]"
        } else {
            "[mostly — see EXPERIMENTS.md]"
        }
    );
}

fn main() {
    print_table();
    let mut crit: Harness = quick_harness();
    let process = Process::cda07();
    crit.bench_function("table1_overhead_row_64kb", |b| {
        b.iter(|| overhead_row(&process, 2048, 32, 4, 4).unwrap())
    });
    crit.final_summary();
}
