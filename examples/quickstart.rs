//! Quickstart: compile a small BISR RAM, look at what came out.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use bisram_tech::Process;
use bisramgen::{compile, RamParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's §II parameter set: words, bits per word, bits per
    // column, spare rows, critical-gate size, strap space, process.
    let params = RamParams::builder()
        .words(1024)
        .bits_per_word(32)
        .bits_per_column(4)
        .spare_rows(4)
        .gate_size(2)
        .strap(32, 12)
        .process(Process::cda07())
        .build()?;

    println!("compiling {params}");
    let ram = compile(&params)?;

    println!("\n=== datasheet ===\n{}", ram.datasheet());

    println!("=== area report ===\n{}", ram.areas().report());
    println!(
        "BIST+BISR overhead: {:.2}% (paper bound: 7%)",
        ram.areas().overhead_fraction() * 100.0
    );
    println!(
        "module area: {:.3} mm2, floorplan utilization {:.0}%",
        ram.area_mm2(),
        ram.placement().utilization() * 100.0
    );

    println!("\n=== self-test controller ===");
    println!(
        "{}: {} states in {} flip-flops, {} PLA product terms",
        ram.control_program().name(),
        ram.control_program().state_count(),
        ram.control_program().flip_flops(),
        ram.pla().terms()
    );

    // The two control-code files of paper §V.
    let (and_plane, or_plane) = ram.pla_planes();
    std::fs::write("trpla_and.plane", &and_plane)?;
    std::fs::write("trpla_or.plane", &or_plane)?;
    println!("wrote trpla_and.plane / trpla_or.plane");

    // The layout plot (macro floorplan) and the SPICE model.
    std::fs::write("quickstart_floorplan.svg", ram.floorplan_svg())?;
    std::fs::write("quickstart_sense.sp", ram.sense_path_spice())?;
    println!("wrote quickstart_floorplan.svg / quickstart_sense.sp");

    Ok(())
}
