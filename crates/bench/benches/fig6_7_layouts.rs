//! Figs. 6 and 7 — the demonstration layouts.
//!
//! Fig. 6: "SRAM array with 4K words of 128 bits each (bpw), 8 bits per
//! column (bpc), 32 cells between strap, four spare rows and buffer size
//! 2" (64 kB). Fig. 7: the 256-bit / bpc = 16 variant (128 kB).
//!
//! The reproduction compiles both, reports dimensions / area /
//! utilization, and writes floorplan SVGs next to the Criterion output.

use bisram_bench::harness::Harness;
use bisram_bench::{banner, quick_harness};
use bisram_tech::Process;
use bisramgen::{compile, RamParams};

fn build(words: usize, bpw: usize, bpc: usize) -> bisramgen::CompiledRam {
    let params = RamParams::builder()
        .words(words)
        .bits_per_word(bpw)
        .bits_per_column(bpc)
        .spare_rows(4)
        .gate_size(2)
        .strap(32, 12)
        .process(Process::cda07())
        .build()
        .expect("figure parameters are valid");
    compile(&params).expect("compile succeeds")
}

fn print_figure() {
    banner(
        "Figs. 6/7",
        "demonstration layouts: 4K x 128 (64 kB, bpc 8) and 4K x 256 (128 kB, bpc 16)",
    );
    println!(
        "{:<8} {:>9} {:>7} {:>12} {:>10} {:>12} {:>10}",
        "figure", "capacity", "rows", "chip w x h mm", "area mm2", "utilization", "overhead"
    );
    let mut areas = Vec::new();
    for (fig, words, bpw, bpc) in [
        ("Fig. 6", 4096usize, 128usize, 8usize),
        ("Fig. 7", 4096, 256, 16),
    ] {
        let ram = build(words, bpw, bpc);
        let bbox = ram.placement().bbox();
        println!(
            "{fig:<8} {:>6} kB {:>7} {:>5.2} x {:>4.2} {:>10.3} {:>11.0}% {:>9.2}%",
            words * bpw / 8 / 1024,
            ram.params().org().rows(),
            bbox.width() as f64 * 1e-6,
            bbox.height() as f64 * 1e-6,
            ram.area_mm2(),
            ram.placement().utilization() * 100.0,
            ram.areas().overhead_fraction() * 100.0
        );
        let file = format!("{}.svg", fig.replace(". ", "").to_lowercase());
        std::fs::write(&file, ram.floorplan_svg()).expect("svg writes");
        println!("  -> floorplan written to {file}");
        areas.push(ram.area_mm2());
    }
    assert!(
        areas[1] > 1.5 * areas[0],
        "the 128 kB module must be roughly twice the 64 kB module"
    );
    println!("\nshape check: doubling the capacity roughly doubles the module area  [OK]");
}

fn main() {
    print_figure();
    let mut crit: Harness = quick_harness();
    crit.bench_function("fig6_compile_64kB", |b| b.iter(|| build(4096, 128, 8)));
    crit.final_summary();
}
