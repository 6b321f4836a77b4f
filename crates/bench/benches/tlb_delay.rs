//! §VI — the TLB delay penalty.
//!
//! "The TLB produces a modest delay penalty (of about 1.2 ns with four
//! spare rows and a 0.7-µm technology) ... at least an order of
//! magnitude smaller than the RAM access time ... All these techniques
//! rely on the fact that the TLB operation is extremely fast. This will
//! happen provided 1–4 spare rows are used."

use bisram_bench::harness::Harness;
use bisram_bench::{banner, quick_harness};
use bisram_circuit::campath;
use bisram_tech::Process;
use bisramgen::{Datasheet, RamParams};

fn print_experiment() {
    banner(
        "§VI",
        "TLB compare-and-map delay vs spare count (0.7 um process)",
    );
    let process = Process::cda07();
    // Fig. 4's array: 1024 regular rows -> 10 row-address bits.
    println!(
        "{:>7} {:>11} {:>11} {:>11} {:>11}",
        "spares", "compare", "match line", "select", "total"
    );
    let mut prev = 0.0;
    for spares in [1usize, 2, 4, 8, 16] {
        let t = campath::tlb_delay(&process, 10, spares);
        println!(
            "{spares:>7} {:>8.0} ps {:>8.0} ps {:>8.0} ps {:>8.0} ps",
            t.compare_s * 1e12,
            t.match_line_s * 1e12,
            t.select_s * 1e12,
            t.total_s() * 1e12
        );
        assert!(t.total_s() >= prev, "delay grows with entries");
        prev = t.total_s();
    }
    let paper_point = campath::tlb_delay(&process, 10, 4).total_s();
    println!(
        "\n4-spare point: measured {:.2} ns vs paper's ~1.2 ns (same order)",
        paper_point * 1e9
    );

    // The masking claim against the compiled datasheet.
    let params = RamParams::builder()
        .words(4096)
        .bits_per_word(4)
        .bits_per_column(4)
        .spare_rows(4)
        .build()
        .expect("valid");
    let d = Datasheet::extrapolate(&params);
    println!(
        "access time {:.2} ns -> TLB/access ratio {:.1}x ({})",
        d.access_time_s * 1e9,
        d.access_time_s / d.tlb.total_s(),
        if d.tlb_masked {
            "maskable in the precharge phase"
        } else {
            "NOT maskable"
        }
    );
    assert!(d.access_time_s / d.tlb.total_s() > 5.0);
}

fn main() {
    print_experiment();
    let mut crit: Harness = quick_harness();
    let process = Process::cda07();
    crit.bench_function("tlb_delay_evaluation", |b| {
        b.iter(|| campath::tlb_delay(&process, bisram_bench::harness::black_box(10), 4))
    });
    crit.final_summary();
}
