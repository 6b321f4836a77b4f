//! Shared helpers for the table/figure regeneration benches.
//!
//! Each bench target (`cargo bench -p bisram-bench --bench <id>`) first
//! prints the reproduced table or figure series — paper values alongside
//! measured values where the paper states them — and then runs a small
//! timing group over the underlying computation using the internal
//! [`harness`] (a hermetic replacement for the external criterion crate).

pub mod harness;

use bisram_circuit::{MosType, Netlist, TranResult, TransientSim};
use bisram_tech::Process;
use harness::Harness;

/// Prints the standard banner over a reproduction.
pub fn banner(id: &str, caption: &str) {
    println!("\n==========================================================");
    println!("{id}: {caption}");
    println!("==========================================================");
}

/// A harness tuned for quick regeneration runs.
pub fn quick_harness() -> Harness {
    Harness::new()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(800))
        .warm_up_time(std::time::Duration::from_millis(200))
        .configure_from_args()
}

/// Builds the Fig. 3 current-mode sense amplifier testbench: a
/// cross-coupled latch over the bitline pair, with a current
/// differential `delta_ua` (µA) steered onto one side from `t` = 1 ns.
/// Returns the netlist plus the node handles `(bl, blb)`.
pub fn senseamp_netlist(
    process: &Process,
    delta_ua: f64,
) -> (Netlist, bisram_circuit::NodeId, bisram_circuit::NodeId) {
    let dev = process.devices();
    let l = process.gate_length_m();
    let lambda_m = process.rules().lambda() as f64 * 1e-9;

    let mut nl = Netlist::new("fig3_senseamp");
    let vdd = nl.node("vdd!");
    let gnd = Netlist::ground();
    nl.vdc(vdd, gnd, dev.vdd);
    let bl = nl.node("bl");
    let blb = nl.node("blb");
    // Full cross-coupled latch (PMOS loads + NMOS regenerative pair),
    // sensing the current-mode data nodes behind the column multiplexer;
    // in write mode this latch is bypassed (paper §IV).
    nl.mos(MosType::Pmos, bl, blb, vdd, 8.0 * lambda_m, l);
    nl.mos(MosType::Pmos, blb, bl, vdd, 8.0 * lambda_m, l);
    nl.mos(MosType::Nmos, bl, blb, gnd, 4.0 * lambda_m, l);
    nl.mos(MosType::Nmos, blb, bl, gnd, 4.0 * lambda_m, l);
    // Sense-node capacitance (post-mux data lines, not the full
    // bitlines — that is the point of current-mode sensing).
    let c_sense = 50e-15;
    nl.capacitor(bl, gnd, c_sense);
    nl.capacitor(blb, gnd, c_sense);
    // Common-mode read current on both sides, plus the cell's
    // differential steered off BL after 1 ns.
    let i_cm = 60e-6;
    nl.ipwl(bl, gnd, vec![(0.0, i_cm)]);
    nl.ipwl(blb, gnd, vec![(0.0, i_cm)]);
    nl.ipwl(
        blb,
        bl,
        vec![(0.0, 0.0), (1.0e-9, 0.0), (1.05e-9, delta_ua * 1e-6)],
    );
    (nl, bl, blb)
}

/// Runs the Fig. 3 experiment on the fixed-step reference driver and
/// returns the transient result plus the node handles `(bl, blb)`.
pub fn senseamp_transient(
    process: &Process,
    delta_ua: f64,
) -> (TranResult, bisram_circuit::NodeId, bisram_circuit::NodeId) {
    let (nl, bl, blb) = senseamp_netlist(process, delta_ua);
    let sim = TransientSim::new(&nl, process.devices()).expect("valid topology");
    let result = sim.run(8e-9, 10e-12).expect("sense amp converges");
    (result, bl, blb)
}

/// The latch decision time of a sense run: when the differential first
/// exceeds `vdd/4` after the 1 ns stimulus.
pub fn latch_time(
    result: &TranResult,
    bl: bisram_circuit::NodeId,
    blb: bisram_circuit::NodeId,
    vdd: f64,
) -> Option<f64> {
    let times = result.times();
    for (i, &t) in times.iter().enumerate() {
        if t < 1.0e-9 {
            continue;
        }
        let diff = (result.voltage(bl, i) - result.voltage(blb, i)).abs();
        if diff > vdd / 4.0 {
            return Some(t - 1.0e-9);
        }
    }
    None
}
