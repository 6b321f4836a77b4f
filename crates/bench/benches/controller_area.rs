//! §V/§VI — the microprogrammed controller.
//!
//! "The self-test and self-repair controller consists of 59 states,
//! encoded using six flip-flops, and a pseudo-NMOS NOR-NOR PLA. The
//! controller area is found to be a very tiny fraction of the memory
//! array area (less than 0.1%) for a 16-kbyte RAM."

use bisram_bench::harness::Harness;
use bisram_bench::{banner, quick_harness};
use bisram_bist::march;
use bisram_bist::trpla;
use bisramgen::{compile, RamParams};

fn print_experiment() {
    banner(
        "§V/§VI",
        "TRPLA controller: state count, encoding, PLA size, area fraction",
    );

    for test in [march::ifa9(), march::ifa13(), march::mats_plus()] {
        let program = trpla::assemble(&test);
        let pla = program.synthesize_pla();
        println!(
            "{:<10} {:>3} states, {} flip-flops, {:>3} PLA terms, {:>2} inputs, {:>2} outputs",
            test.name(),
            program.state_count(),
            program.flip_flops(),
            pla.terms(),
            pla.inputs,
            pla.outputs
        );
    }
    let ifa9 = trpla::assemble(&march::ifa9());
    println!(
        "\npaper: 59 states / 6 flip-flops; measured: {} states / {} flip-flops",
        ifa9.state_count(),
        ifa9.flip_flops()
    );
    assert_eq!(ifa9.flip_flops(), 6, "the 6-FF encoding must match");

    // Area fraction for a 16-kbyte RAM.
    let params = RamParams::builder()
        .words(16384)
        .bits_per_word(8)
        .bits_per_column(8)
        .spare_rows(4)
        .build()
        .expect("valid");
    let ram = compile(&params).expect("compiles");
    let frac = ram.areas().controller_fraction_of_array();
    println!(
        "controller area fraction of the 16 kB array: {:.4}% (paper: < 0.1%)",
        frac * 100.0
    );
    assert!(frac < 0.001, "the paper's 0.1% bound must hold");

    // The two-file control-code interchange (paper: changing these files
    // implements a different test algorithm).
    let (and_plane, or_plane) = ram.pla_planes();
    println!(
        "control code: AND plane {} lines, OR plane {} lines (reloadable at run time)",
        and_plane.lines().count(),
        or_plane.lines().count()
    );
}

fn main() {
    print_experiment();
    let mut crit: Harness = quick_harness();
    crit.bench_function("controller_assemble_ifa9", |b| {
        b.iter(|| trpla::assemble(&march::ifa9()))
    });
    crit.bench_function("controller_pla_synthesis", |b| {
        let program = trpla::assemble(&march::ifa9());
        b.iter(|| program.synthesize_pla())
    });
    crit.final_summary();
}
