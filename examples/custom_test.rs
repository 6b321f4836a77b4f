//! Loading a *custom* test algorithm into the controller — the workflow
//! the paper highlights: "the control code is read in at runtime by
//! BISRAMGEN from two input files ... changing these files to implement
//! a different test algorithm is a simple and straightforward matter."
//!
//! This example writes a march test in plain notation, assembles it into
//! TRPLA microcode, exports/reimports the two personality-plane files,
//! runs the microprogrammed controller against a faulty memory, and
//! finishes with a transparent (content-preserving) field self-test.
//!
//! ```sh
//! cargo run --release --example custom_test
//! ```

use bisram_bist::parse::parse_march;
use bisram_bist::transparent::run_transparent;
use bisram_bist::trpla::{assemble, ControllerSim, Pla};
use bisram_bist::IdentityMap;
use bisram_mem::{Fault, FaultKind, Word};
use bisram_rng::rngs::StdRng;
use bisram_rng::{Rng, SeedableRng};
use bisramgen::{compile, RamParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = RamParams::builder()
        .words(256)
        .bits_per_word(8)
        .bits_per_column(4)
        .spare_rows(4)
        .build()?;
    let ram = compile(&params)?;

    // 1. A custom march in standard notation (March C- here, but any
    //    r/w sequence works).
    let custom = parse_march(
        "my March C-",
        "$(w0); ^(r0,w1); ^(r1,w0); v(r0,w1); v(r1,w0); $(r0)",
    )?;
    println!("parsed: {custom}");
    println!(
        "  {}N complexity, {} delays",
        custom.ops_per_address(),
        custom.delay_count()
    );

    // 2. Assemble to TRPLA microcode and write the two control files.
    let program = assemble(&custom);
    let pla = program.synthesize_pla();
    println!(
        "assembled: {} states / {} flip-flops / {} PLA terms",
        program.state_count(),
        program.flip_flops(),
        pla.terms()
    );
    let (and_plane, or_plane) = pla.export_planes();
    std::fs::write("custom_and.plane", &and_plane)?;
    std::fs::write("custom_or.plane", &or_plane)?;

    // 3. Read them back — the runtime-loading path — and verify the
    //    loaded personality is identical.
    let loaded = Pla::import_planes(
        &std::fs::read_to_string("custom_and.plane")?,
        &std::fs::read_to_string("custom_or.plane")?,
    )?;
    assert_eq!(loaded, pla);
    println!("control code round-tripped through custom_and.plane / custom_or.plane");

    // 4. Drive the microprogrammed controller over a defective memory.
    let mut memory = ram.behavioural_model();
    memory.inject(Fault::new(
        memory.org().cell_at(13, 2, 5),
        FaultKind::StuckAt(true),
    ));
    let sim = ControllerSim::new(&program, memory.org().bpw());
    let outcome = sim.run(&mut memory, &IdentityMap, |row| {
        println!("  capture: faulty row {row}");
    });
    println!(
        "controller finished in {} cycles; captured rows {:?}; repair-unsuccessful = {}",
        outcome.cycles, outcome.captured_rows, outcome.repair_unsuccessful
    );

    // 5. Field use: the transparent variant preserves live contents.
    let mut live = ram.behavioural_model();
    let mut rng = StdRng::seed_from_u64(7);
    let snapshot: Vec<Word> = (0..live.org().words())
        .map(|addr| {
            let w = Word::from_u64(rng.gen::<u64>() & 0xFF, 8);
            live.write_word(addr, w.clone());
            w
        })
        .collect();
    let transparent = run_transparent(&custom, &mut live, None);
    let preserved = (0..live.org().words())
        .filter(|&a| live.read_word(a) == snapshot[a])
        .count();
    println!(
        "transparent run: detected={} ({} reads compressed), {}/{} words preserved",
        transparent.detected(),
        transparent.reads,
        preserved,
        live.org().words()
    );
    assert_eq!(preserved, live.org().words());

    Ok(())
}
