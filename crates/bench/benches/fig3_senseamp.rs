//! Fig. 3 — the current-mode sense amplifier.
//!
//! "Fast memory access is achieved by using current-mode sensing ... a
//! minor current differential in the BL and BLB lines latches the sense
//! amplifier." The reproduction drives the cross-coupled latch with a
//! range of current differentials and reports the latch decision time —
//! the smaller the differential the longer the decision, but even a few
//! µA resolve within a nanosecond-scale window.

use bisram_bench::harness::Harness;
use bisram_bench::{banner, latch_time, quick_harness, senseamp_transient};
use bisram_tech::Process;

fn print_figure() {
    banner(
        "Fig. 3",
        "current-mode sense amplifier: latch time vs bitline current differential",
    );
    let process = Process::cda07();
    let vdd = process.devices().vdd;

    println!("{:>12} {:>14} {:>10}", "delta I", "latch time", "resolved");
    for delta_ua in [2.0, 5.0, 10.0, 20.0, 50.0, 100.0] {
        let (result, bl, blb) = senseamp_transient(&process, delta_ua);
        match latch_time(&result, bl, blb, vdd) {
            Some(t) => println!("{delta_ua:>10.0} uA {:>11.2} ps {:>10}", t * 1e12, "yes"),
            None => println!("{delta_ua:>10.0} uA {:>14} {:>10}", "-", "no"),
        }
    }

    // A waveform excerpt for the mid case, as the figure shows.
    let (result, bl, blb) = senseamp_transient(&process, 20.0);
    println!("\nwaveform @ 20 uA differential (t, v_bl, v_blb):");
    for t_ns in [0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0] {
        let t = t_ns * 1e-9;
        println!(
            "  {:>5.1} ns  {:>7.3} V  {:>7.3} V",
            t_ns,
            result.voltage_at(bl, t),
            result.voltage_at(blb, t)
        );
    }
    println!("\npaper: a minor current differential latches the amplifier;");
    println!("shape check: latch time falls monotonically as the differential grows.");
}

fn main() {
    print_figure();
    let mut c: Harness = quick_harness();
    let process = Process::cda07();
    c.bench_function("fig3_senseamp_transient", |b| {
        b.iter(|| {
            let (result, bl, blb) = senseamp_transient(&process, 20.0);
            latch_time(&result, bl, blb, process.devices().vdd)
        })
    });
    c.final_summary();
}
