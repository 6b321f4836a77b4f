//! End-to-end integration: compile a RAM, damage it, self-test,
//! self-repair, and use the repaired memory — the full life of a
//! BISRAMGEN part.

use bisram_bist::engine::{run_march, MarchConfig};
use bisram_bist::march;
use bisram_bist::trpla::ControllerSim;
use bisram_bist::{IdentityMap, RowMap};
use bisram_mem::{random_faults, row_failure, FaultMix, Word};
use bisram_repair::flow::{self, RepairOutcome, RepairSetup};
use bisram_repair::Tlb;
use bisram_rng::rngs::StdRng;
use bisram_rng::SeedableRng;
use bisramgen::{compile, RamParams};

fn compiled() -> bisramgen::CompiledRam {
    let params = RamParams::builder()
        .words(512)
        .bits_per_word(16)
        .bits_per_column(4)
        .spare_rows(4)
        .build()
        .expect("valid parameters");
    compile(&params).expect("compiles")
}

#[test]
fn manufactured_good_part_passes_self_test() {
    let ram = compiled();
    let mut memory = ram.behavioural_model();
    let report = flow::self_test_and_repair(&mut memory, &RepairSetup::default());
    assert_eq!(report.outcome, RepairOutcome::AlreadyGood);
}

#[test]
fn damaged_part_repairs_and_then_behaves_fault_free() {
    let ram = compiled();
    let org = *ram.params().org();
    let mut memory = ram.behavioural_model();
    // A word-line failure plus two random cell defects.
    memory.inject_all(row_failure(&org, 40, true));
    let mut rng = StdRng::seed_from_u64(99);
    memory.inject_all(random_faults(&mut rng, &org, 2, &FaultMix::stuck_at_only()));

    let report = flow::self_test_and_repair(&mut memory, &RepairSetup::default());
    assert!(
        report.outcome.is_repaired(),
        "outcome: {:?}",
        report.outcome
    );

    // The repaired part must behave like a fault-free memory through the
    // TLB: write/read every word with two patterns.
    let tlb = &report.tlb;
    for addr in 0..org.words() {
        let (row, col) = org.split(addr);
        let phys = tlb.map_row(row);
        let pattern = Word::from_u64((addr as u64).wrapping_mul(0x9E37) & 0xFFFF, 16);
        memory.write_word_at(phys, col, pattern.clone());
        assert_eq!(memory.read_word_at(phys, col), pattern, "addr {addr}");
    }
    // And a whole IFA-9 run through the map stays clean.
    let verify = run_march(
        &march::ifa9(),
        &mut memory,
        &MarchConfig::default(),
        Some(tlb),
    );
    assert!(!verify.detected());
}

#[test]
fn microprogrammed_controller_reaches_the_same_verdict_as_the_flow() {
    // The TRPLA-driven cycle-accurate controller and the functional
    // two-pass flow must agree: same captured rows, and the controller's
    // pass 2 succeeds through the TLB the captures built.
    let ram = compiled();
    let org = *ram.params().org();

    let mut functional = ram.behavioural_model();
    functional.inject_all(row_failure(&org, 7, true));
    let report = flow::self_test_and_repair(&mut functional, &RepairSetup::default());
    assert!(report.outcome.is_repaired());

    let mut hardware = ram.behavioural_model();
    hardware.inject_all(row_failure(&org, 7, true));
    let mut tlb = Tlb::new(org.rows(), org.spare_rows());
    let sim = ControllerSim::new(ram.control_program(), org.bpw());
    // First, captures land in the TLB...
    let outcome = sim.run(&mut hardware, &tlb.clone(), |row| {
        tlb.capture(row).expect("spares available");
    });
    // ...but the mapping used during that same run was the (stale)
    // initial TLB, so run once more with the programmed TLB, as the
    // 2k-pass hardware iteration does.
    assert_eq!(outcome.captured_rows, report.pass1_faulty_rows);
    let mut hardware = ram.behavioural_model();
    hardware.inject_all(row_failure(&org, 7, true));
    let second = sim.run(&mut hardware, &tlb, |_| {});
    assert!(
        !second.repair_unsuccessful,
        "controller pass through the programmed TLB must be clean"
    );
    assert_eq!(tlb.map_row(7), org.rows(), "row 7 -> first spare");
}

#[test]
fn controller_without_mapping_raises_repair_unsuccessful() {
    let ram = compiled();
    let org = *ram.params().org();
    let mut memory = ram.behavioural_model();
    memory.inject_all(row_failure(&org, 3, true));
    let sim = ControllerSim::new(ram.control_program(), org.bpw());
    let outcome = sim.run(&mut memory, &IdentityMap, |_| {});
    assert!(outcome.repair_unsuccessful);
    assert_eq!(outcome.captured_rows, vec![3]);
}

#[test]
fn compiled_outputs_are_mutually_consistent() {
    let ram = compiled();
    // The datasheet's TLB delay matches the circuit model for the same
    // spares/row-bits.
    let d = ram.datasheet();
    let t = bisram_circuit::campath::tlb_delay(
        ram.params().process(),
        ram.params().org().row_bits(),
        ram.params().org().spare_rows(),
    );
    assert_eq!(d.tlb, t);
    // The control program drives the same march the coverage claims are
    // made for (IFA-9).
    assert!(ram.control_program().name().contains("IFA-9"));
    // The exported planes describe the same PLA the layout was built
    // from.
    let (and_s, or_s) = ram.pla_planes();
    let parsed = bisram_bist::trpla::Pla::import_planes(&and_s, &or_s).expect("parses");
    assert_eq!(&parsed, ram.pla());
}

#[test]
fn address_decoder_faults_are_detected_and_row_repaired() {
    // Paper-adjacent extension: decoder faults (AF) act on whole rows,
    // which is exactly the granularity row repair handles. A no-access
    // row floats on the sense amplifiers — row-wide stuck-open
    // behaviour — so, like SOF, it needs IFA-13's read-after-write to
    // be observed (see EXPERIMENTS.md); the aliased pair is visible to
    // IFA-9 as well.
    use bisram_mem::RowFault;

    let ram = compiled();
    let ifa13_setup = RepairSetup {
        test: march::ifa13(),
        ..RepairSetup::default()
    };

    // No-access row: invisible to IFA-9, caught and repaired by IFA-13.
    let mut memory = ram.behavioural_model();
    memory.inject_row_fault(11, RowFault::NoAccess);
    let blind = flow::self_test_and_repair(&mut memory, &RepairSetup::default());
    assert_eq!(
        blind.outcome,
        RepairOutcome::AlreadyGood,
        "IFA-9 is blind to it"
    );
    let mut memory = ram.behavioural_model();
    memory.inject_row_fault(11, RowFault::NoAccess);
    let report = flow::self_test_and_repair(&mut memory, &ifa13_setup);
    assert!(report.outcome.is_repaired(), "{:?}", report.outcome);
    assert!(report.pass1_faulty_rows.contains(&11));

    // Aliased pair: both rows misbehave; the flow may need to map both.
    let mut memory = ram.behavioural_model();
    memory.inject_row_fault(20, RowFault::AliasedWith { other: 33 });
    let report = flow::self_test_and_repair(&mut memory, &RepairSetup::iterated(6));
    assert!(
        report.outcome.is_repaired(),
        "aliased decoder fault: {:?}",
        report.outcome
    );
}
